"""Quickstart: explain a confounded aggregate query with the explanation engine.

Builds the synthetic Covid-19 dataset and its DBpedia-like knowledge graph,
runs the paper's motivating query (average deaths per 100 cases by country)
through the staged :class:`ExplanationPipeline`, and prints the confounding
attributes that explain the observed correlation — then shows the batch API
and the JSON-serializable result envelope.

Migration note: the historical ``MESA`` facade still works unchanged
(``MESA(table, kg, specs).explain(query)``); it is now a thin shim over the
pipeline used below, so switching is a rename, not a rewrite.  The facade
is still the home of ``unexplained_subgroups``.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import MESA, MESAConfig, load_dataset
from repro.engine import ExplanationPipeline
from repro.mesa.report import render_report
from repro.query.parser import parse_query


def main() -> None:
    # 1. Load the dataset bundle: the table, the knowledge graph and the
    #    extraction specification (link the Country column to Country entities).
    bundle = load_dataset("Covid-19", seed=7)
    print(f"Loaded {bundle.name}: {bundle.table.n_rows} rows, "
          f"{bundle.knowledge_graph.n_entities} KG entities")

    # 2. The analyst's query, written the way the paper writes it.
    query = parse_query(
        "SELECT Country, avg(Deaths_per_100_cases) FROM Covid GROUP BY Country",
        name="Covid-Q1",
    )
    print("\nQuery result (first groups):")
    print(query.execute(bundle.table).to_text(max_rows=8))

    # 3. Build the engine pipeline and explain the Country <-> death-rate
    #    correlation.  The pipeline's context caches extraction and offline
    #    pruning, so follow-up queries skip the pre-processing.
    pipeline = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=MESAConfig(k=5, excluded_columns=bundle.id_columns))
    result = pipeline.explain(query)

    # 4. Identify data subgroups for which the explanation is not satisfactory
    #    (the subgroup analysis lives on the MESA facade, which shares the
    #    engine underneath).
    mesa = MESA(bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
                config=pipeline.config)
    subgroups = mesa.unexplained_subgroups(result, k=3)

    print()
    print(render_report(result, subgroups))

    # 5. Batch + serving: explain every representative query in one call —
    #    extraction/offline pruning run once for the whole batch — and ship
    #    a result across a process boundary as a JSON envelope.
    batch = pipeline.explain_many([q.query for q in bundle.queries], k=3)
    print(f"Batch: explained {len(batch)} queries; "
          f"extraction ran {pipeline.context.counters['extraction_runs']}x, "
          f"offline pruning ran {pipeline.context.counters['offline_pruning_runs']}x")
    envelope = result.to_envelope()
    print(f"Envelope: {len(envelope.to_json())} bytes of JSON, "
          f"attributes={list(envelope.explanation.attributes)}")

    #    Large batches can opt into worker fan-out: n_jobs=2 runs thread
    #    workers over forked contexts (same results, counters merged back),
    #    and explain_many_envelopes(..., backend="process") forks OS
    #    processes that ship JSON envelopes back — the serving-tier shape.
    parallel = pipeline.explain_many([q.query for q in bundle.queries],
                                     k=3, n_jobs=2)
    print(f"Parallel batch: {len(parallel)} queries over "
          f"{pipeline.context.counters['parallel_workers']} workers")

    # 6. The batched inference backend: permutation tests run blocked (one
    #    shared bincount per block, bit-identical p-values) and IPW selection
    #    fits are cached by missingness mask + design and solved multi-label.
    #    `permutation_early_exit` additionally stops a permutation run the
    #    moment its verdict is determined (verdicts preserved, p-value
    #    resolution traded for speed).  The backend counters land next to
    #    the cache counters.
    fast = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=pipeline.config.with_overrides(permutation_early_exit=True))
    fast.explain_many([q.query for q in bundle.queries], k=3)
    counters = fast.context.counters
    seconds = fast.context.stage_seconds
    print(f"Inference backend: ipw fits {counters.get('ipw_fit_miss', 0)} "
          f"fitted / {counters.get('ipw_fit_hit', 0)} cached, "
          f"{counters.get('perm_early_exit', 0)} permutation tests exited "
          f"early saving {counters.get('perm_saved', 0)} permutations "
          f"(ipw_fit {seconds.get('ipw_fit', 0.0):.3f}s, "
          f"permutation_test {seconds.get('permutation_test', 0.0):.3f}s)")

    #    The adaptive scheduler goes further: `max_responsibility_permutations`
    #    lets statistically uncertain permutation tests extend their budget
    #    (clear-cut ones still exit early), and `speculative_search` overlaps
    #    each MCIMR round's responsibility test with the next round's
    #    candidate scoring on a worker thread — bit-identical explanations,
    #    better wall-clock.  `permutation_rng_stream="argsort"` additionally
    #    vectorises the permutation draw (a different documented RNG stream,
    #    matching in distribution rather than bit-for-bit).
    adaptive = ExplanationPipeline(
        bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
        config=pipeline.config.with_overrides(
            max_responsibility_permutations=200,
            permutation_rng_stream="argsort",
            speculative_search=True))
    adaptive.explain_many([q.query for q in bundle.queries], k=3)
    counters = adaptive.context.counters
    print(f"Adaptive scheduler: {counters.get('perm_budget_extended', 0)} "
          f"budgets extended, {counters.get('perm_budget_saved', 0)} "
          f"permutations saved, speculation "
          f"{counters.get('speculation_hit', 0)} hits / "
          f"{counters.get('speculation_waste', 0)} discards")

    # 7. Serving: wrap the warm context in an ExplanationService — repeated
    #    requests are answered byte-identically from the explanation cache,
    #    concurrent misses coalesce into single engine batches, and
    #    client-input errors are negative-cached so hostile repeats never
    #    reach the engine.  (The HTTP form of this is
    #    `python -m repro.serving --dataset SO`; see
    #    examples/serve_stackoverflow.py for the full tour.  GET /stats
    #    surfaces every counter printed above.)
    from repro.serving import ExplanationService

    with ExplanationService(cache_size=1024) as service:
        service.register("covid", pipeline, warm=False)
        served = service.explain("covid", query, k=3)
        repeat = service.explain("covid", query, k=3)
        print(f"Service: first request cache_hit={served.cache_hit}, "
              f"repeat cache_hit={repeat.cache_hit} "
              f"(same envelope: {repeat.envelope is served.envelope})")

    # 8. Scaling out: callers program against the transport-agnostic
    #    ExplanationClient protocol (explain / explain_batch / stats / warm
    #    / close), so *where* explanations compute is a deployment choice,
    #    not a code change:
    #      - LocalClient    wraps an in-process ExplanationService;
    #      - HTTPClient     speaks to any remote JSON deployment;
    #      - ClusterClient  shards canonical query keys over N worker
    #        processes (ServiceCluster) — stable hashing keeps each
    #        worker's caches hot for its key range, the front tier dedupes
    #        in-flight keys, merges per-worker stats and restarts dead
    #        workers.  `python -m repro.serving --workers 4` serves the
    #        same HTTP API from such a cluster.
    from repro.serving import ClusterClient, ServiceCluster

    cluster = ServiceCluster(n_workers=2)
    cluster.register_bundle(bundle, config=pipeline.config)
    with ClusterClient(cluster) as client:
        sharded = client.explain(bundle.name, query, k=3)
        same = sharded.envelope.canonical_json() == \
            served.envelope.canonical_json()
        merged = client.stats()
        print(f"Cluster: served from worker shard "
              f"(identical envelope: {same}); merged stats cover "
              f"{merged['cluster']['n_workers']} workers, "
              f"{merged['cluster']['requests_routed']} routed requests")

    # 9. Scaling the *data* axis: `shard="rows"` splits each registered
    #    table into contiguous row ranges — one per worker — and the engine
    #    scatter-gathers partial contingency counts, within-shard
    #    permutations and IRLS normal-equation partials, merging them
    #    before the entropy/solve step.  Counts are additive over row
    #    partitions, so estimates equal the single-process engine's while
    #    each worker holds only O(rows / N) of the table —
    #    `python -m repro.serving --workers 4 --shard rows` serves tables
    #    no single worker could hold, and stats() shows the per-worker
    #    layout.  (Permutation tests draw per-shard RNG streams, so a
    #    relevance verdict sitting exactly on the acceptance boundary can
    #    legitimately differ across shard layouts; this demo uses a
    #    verdict-stable query — see tests/test_distributed.py for the
    #    systematic equality coverage.)
    stable_query = bundle.queries[0].query
    direct = pipeline.explain(stable_query, k=3)
    rows_cluster = ServiceCluster(n_workers=2, shard="rows")
    rows_cluster.register_bundle(bundle, config=pipeline.config, warm=False)
    with ClusterClient(rows_cluster) as client:
        row_sharded = client.explain(bundle.name, stable_query, k=3)
        same_attrs = row_sharded.envelope.explanation.attributes == \
            direct.explanation.attributes
        layout = client.stats()["workers"]
        residency = {index: f"{worker['role']}:{worker['resident_rows']} rows"
                     for index, worker in layout.items()}
        print(f"Row shards: same attributes as the single process: "
              f"{same_attrs}; data-plane layout {residency}")

    # 10. Memory: a replica cluster holds ONE shared copy of each encoded
    #     dataset, not one per worker.  With the frame store on (the
    #     default for multi-worker clusters when /dev/shm works) the owner
    #     packs the encoded columns into POSIX shared segments and workers
    #     map them as read-only views; warm() additionally pre-encodes the
    #     hot query contexts once and publishes the frames for adoption.
    #     Scaled up — `python -m repro.serving --dataset SO --workers 8` —
    #     per-worker RSS stays near-flat as workers are added; the merged
    #     stats carry each worker's maxrss and the store's segment sizes.
    mem_cluster = ServiceCluster(n_workers=2)
    mem_cluster.register_bundle(bundle, config=pipeline.config, warm=False)
    with ClusterClient(mem_cluster) as client:
        mem_cluster.warm(bundle.name, queries=[query])
        merged = client.stats()
        store = merged["frame_store"]
        rss = {index: f"{worker['memory']['maxrss_kb'] // 1024} MiB"
               for index, worker in merged["workers"].items()}
        print(f"Frame store: enabled={store['enabled']}, "
              f"{store.get('segments', 0)} shared segments "
              f"({store.get('bytes', 0) / 1e6:.1f} MB, "
              f"{store.get('frames_published', 0)} hot frames published); "
              f"per-worker RSS {rss}")

    # 11. Observability: tracing and metrics are on by default and cheap
    #     enough to stay on.  Every served request carries a trace id whose
    #     span tree (pipeline stages, permutation tests, IPW fit batches,
    #     cache lookups, batcher queue wait — and, in a cluster, the RPCs
    #     and the worker/shard spans stitched across the process boundary)
    #     is served by GET /trace/<id>; GET /metrics exposes Prometheus
    #     text (latency histograms with estimated quantiles, cache hit
    #     ratios, engine counters) from any topology; requests slower than
    #     --slow-query-seconds write one structured JSON line with the
    #     trace id to the repro.serving.slowlog logger.
    from repro.obs.metrics import prometheus_text

    with ExplanationService(cache_size=1024) as service:
        service.register("covid", pipeline, warm=False)
        served = service.explain("covid", query, k=3)
        tree = service.tracer.trace_tree(served.trace_id)
        scrape = prometheus_text(service.stats())
        print(f"Observability: trace {served.trace_id} recorded "
              f"{tree['n_spans']} spans; "
              f"/metrics scrape is {len(scrape.splitlines())} lines "
              f"(e.g. repro_request_seconds_bucket, repro_cache_hit_ratio)")

    # 12. Durability: with a store path, envelopes and jobs survive the
    #     process.  Submit a batch as a durable job, "crash" the service
    #     mid-flight (close() checkpoints the RUNNING job exactly like
    #     SIGTERM — a SIGKILL leaves a stale RUNNING row that the next
    #     start re-queues the same way), then restart on the same SQLite
    #     file: the job resumes from its durably completed prefix and the
    #     already-answered queries replay from disk, not the engine.
    #     Operationally: `python -m repro.serving --store meta.sqlite3`,
    #     then POST /jobs, kill -9 the server, start it again, and
    #     GET /jobs/<id> shows the same job finishing.
    import os
    import tempfile
    import time
    from repro.serving.schema import query_payload

    with tempfile.TemporaryDirectory() as scratch:
        store_path = os.path.join(scratch, "meta.sqlite3")
        batch = [query_payload(entry.query, k=3)
                 for entry in bundle.queries[:4]]

        service = ExplanationService(store=store_path,
                                     coalesce_window_seconds=0.0)
        service.register_bundle(bundle, config=pipeline.config, warm=False)
        service.enable_jobs()
        job_id = service.jobs.submit(bundle.name, queries=batch, k=3)
        while not service.jobs.store.job_result_positions(job_id):
            time.sleep(0.01)  # let at least one query land durably
        service.close()  # the "crash": job checkpoints mid-flight

        reborn = ExplanationService(store=store_path,
                                    coalesce_window_seconds=0.0)
        reborn.register_bundle(bundle, config=pipeline.config, warm=False)
        reborn.enable_jobs()  # re-queues + resumes the interrupted job
        done = reborn.jobs.wait(job_id, timeout=120)
        stats = reborn.jobs.stats()
        print(f"Durable jobs: job {job_id[:8]} survived a restart — "
              f"state {done['state']}, "
              f"{done['progress']['done']}/{done['progress']['total']} "
              f"queries, {stats['queries_resumed']} resumed from the "
              f"store, {stats['queries_executed']} executed after rebirth")
        reborn.close()

    print()
    print("Interpretation: the death-rate differences between countries are")
    print("largely explained by country development (HDI / GDP, mined from the")
    print("knowledge graph) together with the confirmed-case load already in")
    print("the table - the confounders planted by the synthetic world model.")


if __name__ == "__main__":
    main()
