"""Parallel batch execution for the explanation pipeline.

``ExplanationPipeline.explain_many`` (and its process-boundary sibling
``explain_many_envelopes``) fan a batch of queries out over workers:

* **thread backend** — each worker drives its own pipeline over a *forked*
  :class:`~repro.engine.context.PipelineContext` (same table and warmed
  extraction/offline-pruning caches, private counters), so no mutable state
  is shared between workers and full :class:`ExplanationResult` objects
  come back directly.
* **process backend** — each batch starts one
  :class:`~repro.distributed.ipc.WorkerPool` with a worker process per
  chunk; every worker answers a single ``explain_chunk`` request and
  ships its chunk back as **one** JSON blob of
  :class:`~repro.engine.envelope.ExplanationEnvelope` dicts (the envelope
  is the process-boundary form of a result, and batching the chunk into
  a single string keeps the IPC cost at one serialize/parse per chunk
  instead of per query).  Available from ``explain_many_envelopes`` only
  — a live ``ExplanationResult`` cannot cross a process boundary.  What
  crosses into a worker depends on the start method.  Under ``fork`` it
  is the parent's warmed pipeline, inherited with the address space and
  never pickled.  Under ``spawn`` (platforms without fork) it is the
  dataset — table, knowledge graph, extraction specs, config and stage
  list — pickled once per worker, which builds its own pipeline and warms
  it on its first query.  Either way the request carries only the
  chunk's queries.

In both backends the workers' cache counters, stage timings and new
selection fits are merged back into the parent's :class:`PipelineContext`
after the batch, so the batch-API observability (``context.counters``)
keeps working.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.distributed import ipc
from repro.engine.envelope import ExplanationEnvelope
from repro.exceptions import ConfigurationError
from repro.obs import trace


def resolve_n_jobs(n_jobs: Optional[int], default: int = 1) -> int:
    """Normalise an ``n_jobs`` request (``None`` -> default, ``-1`` -> CPUs)."""
    if n_jobs is None:
        n_jobs = default
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1 (or -1 for all CPUs), got {n_jobs}")
    return n_jobs


def _chunks(n_items: int, n_workers: int) -> List[List[int]]:
    """Contiguous, balanced index chunks (at most ``n_workers`` of them)."""
    n_workers = min(n_workers, n_items)
    base, remainder = divmod(n_items, n_workers)
    chunks: List[List[int]] = []
    start = 0
    for worker in range(n_workers):
        size = base + (1 if worker < remainder else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


def _worker_pipeline(parent_pipeline):
    """A private pipeline over a forked context (shared read-only caches)."""
    from repro.engine.pipeline import ExplanationPipeline

    return ExplanationPipeline(
        context=parent_pipeline.context.fork(),
        config=parent_pipeline.config.with_overrides(n_jobs=1),
        stages=parent_pipeline.stages,
    )


def _warm_context(pipeline) -> None:
    """Build the cross-query artefacts once, before workers fork off.

    Workers inherit the warmed extraction and offline-pruning caches, so
    the paper's "across-queries" pre-processing still runs exactly once
    per batch regardless of the worker count.
    """
    config = pipeline.config
    augmented = pipeline.context.augmented_table(config.hops)
    if config.use_offline_pruning:
        # Verdicts are judged lazily per column, so warm exactly the
        # columns queries can use as candidates — excluded (identifier)
        # columns of a wide table are never scanned.
        candidates = [name for name in augmented.column_names
                      if name not in config.excluded_columns]
        pipeline.context.offline_pruning(
            candidates, hops=config.hops,
            max_missing_fraction=config.max_missing_fraction,
            high_entropy_unique_ratio=config.high_entropy_unique_ratio)


# --------------------------------------------------------------------------- #
# thread backend
# --------------------------------------------------------------------------- #
def _write_back_fits(parent_context, fit_entries) -> None:
    """Merge a worker's new selection fits into the parent's fit cache.

    Forked worker contexts copy the parent's IPW fit cache but fit new
    selection models privately; without this merge the parent would refit
    them for the next batch.  ``ipw_fit_writeback`` counts the fits that
    actually came home (duplicates across workers merge once).
    """
    if not fit_entries:
        return
    added = parent_context.ipw_fit_cache.merge_new_entries(fit_entries)
    if added:
        parent_context.count("ipw_fit_writeback", added)


def explain_many_threaded(pipeline, queries: Sequence, k: Optional[int],
                          n_jobs: int,
                          trace_captures: Optional[Sequence] = None) -> List:
    """Fan ``explain`` out over threads; returns full ExplanationResults.

    ``trace_captures`` (one per query, or ``None``) re-activates each
    query's originating trace on the worker thread that runs it, so
    coalesced traced requests keep their engine spans.
    """
    _warm_context(pipeline)
    results: List = [None] * len(queries)

    def run_chunk(indices: List[int]):
        worker = _worker_pipeline(pipeline)
        for index in indices:
            captured = trace_captures[index] if trace_captures else None
            with trace.activation(captured):
                results[index] = worker.explain(queries[index], k=k)
        return (dict(worker.context.counters),
                dict(worker.context.stage_seconds),
                worker.context.ipw_fit_cache.drain_new_entries())

    chunks = _chunks(len(queries), n_jobs)
    with ThreadPoolExecutor(max_workers=len(chunks)) as executor:
        futures = [executor.submit(run_chunk, chunk) for chunk in chunks]
        for future in futures:
            counters, stage_seconds, fit_entries = future.result()
            pipeline.context.merge_counters(counters, stage_seconds)
            _write_back_fits(pipeline.context, fit_entries)
    pipeline.context.count("parallel_batches")
    pipeline.context.count("parallel_workers", len(chunks))
    return results


# --------------------------------------------------------------------------- #
# process backend
# --------------------------------------------------------------------------- #
def _run_worker_chunk(worker, chunk_queries: List, k: Optional[int]):
    """Run one chunk on a worker pipeline; returns a chunked envelope blob.

    The whole chunk's envelopes ship back as **one** compact JSON string
    instead of a list of nested dicts: pickling a single flat ``str`` costs
    one buffer copy, while a list of per-query dict trees makes the pickler
    walk (and the parent unpickle) thousands of small objects.  For large
    batches this cuts the per-result IPC overhead to a single
    serialize/parse per chunk.
    """
    envelopes = [worker.explain(query, k=k).to_envelope().to_dict()
                 for query in chunk_queries]
    envelope_blob = json.dumps(envelopes, separators=(",", ":"))
    return (envelope_blob, dict(worker.context.counters),
            dict(worker.context.stage_seconds),
            worker.context.ipw_fit_cache.drain_new_entries())


def _batch_worker_main(conn, pipeline=None, dataset: Tuple = ()) -> None:
    """A process-backend worker: one pipeline, ``explain_chunk`` requests.

    Under fork ``pipeline`` is the parent's warmed pipeline (inherited,
    not pickled) and the worker drives a private fork of its context;
    under spawn ``dataset`` holds the pickled table, knowledge graph,
    extraction specs, config and stage list to build one from.
    """
    if pipeline is not None:
        worker = _worker_pipeline(pipeline)
    else:
        from repro.engine.pipeline import ExplanationPipeline

        table, knowledge_graph, extraction_specs, config, stages = dataset
        worker = ExplanationPipeline(
            table, knowledge_graph, extraction_specs,
            config=config.with_overrides(n_jobs=1), stages=list(stages))

    def serve_one(op: str, payload):
        if op == "explain_chunk":
            return _run_worker_chunk(worker, *payload)
        if op == "ping":
            return "pong"
        raise ConfigurationError(f"unknown batch worker op {op!r}")

    try:
        ipc.serve_pipe(conn, serve_one, span_prefix="batch")
    finally:
        conn.close()


def explain_many_forked(pipeline, queries: Sequence, k: Optional[int],
                        n_jobs: int,
                        start_method: Optional[str] = None,
                        ) -> List[ExplanationEnvelope]:
    """Fan the batch out over worker processes; returns envelopes.

    One :class:`~repro.distributed.ipc.WorkerPool` per batch, one worker
    per chunk.  With the ``fork`` start method (preferred where
    available) each worker inherits the parent's warmed pipeline
    copy-on-write; with **spawn** the dataset parts are pickled into each
    worker once and each worker builds its own pipeline.
    ``start_method`` forces one of ``"fork"`` / ``"spawn"`` (tests force
    spawn to exercise the portable path).  A worker that dies mid-chunk is
    restarted and its chunk retried once.  The caller's active trace (if
    any) rides each chunk's request, so the workers' spans come back
    under one ``rpc.explain_chunk`` span per chunk.
    """
    start_method = ipc.resolve_start_method(start_method)
    chunks = _chunks(len(queries), n_jobs)
    if start_method == "fork":
        # Warm the cross-query caches before forking so every worker
        # inherits them instead of redoing extraction per process.
        _warm_context(pipeline)
        worker_args: Tuple = (pipeline,)
    else:
        worker_args = (None, (pipeline.table, pipeline.context.knowledge_graph,
                              pipeline.context.extraction_specs,
                              pipeline.config, tuple(pipeline.stages)))
    pool = ipc.WorkerPool(_batch_worker_main, lambda _index: worker_args,
                          len(chunks), start_method=start_method,
                          name="repro-batch-worker")
    envelopes: List[Optional[ExplanationEnvelope]] = [None] * len(queries)
    captured = trace.capture()
    try:
        pool.start()
        with ThreadPoolExecutor(max_workers=len(chunks)) as executor:
            futures = [
                executor.submit(trace.call_with_capture, captured, pool.call,
                                index, "explain_chunk",
                                ([queries[i] for i in chunk], k))
                for index, chunk in enumerate(chunks)]
            for chunk, future in zip(chunks, futures):
                envelope_blob, counters, stage_seconds, fit_entries = \
                    future.result()
                for index, envelope_dict in zip(chunk,
                                                json.loads(envelope_blob)):
                    envelopes[index] = ExplanationEnvelope.from_dict(
                        envelope_dict)
                pipeline.context.merge_counters(counters, stage_seconds)
                _write_back_fits(pipeline.context, fit_entries)
    finally:
        pool.close()
    pipeline.context.count("parallel_batches")
    pipeline.context.count("parallel_workers", len(chunks))
    return envelopes
