"""The workloads and the run that measures one of them.

A run: start the server (the CLI in a subprocess, or in-process under the
tracer with ``trace=True``), let the workload's traffic function warm up
and then open the measured window (``begin``), send the traffic, read
``/proc`` and ``/stats``, stop the server, then check every answer
against the engine reference.  Untraced runs also start and stop the
server twice before the measured one, so ``setup_s`` is a median of
three.
``cold-cluster`` runs but is not listed in ``BENCHMARK.json`` (see
``perfbench/README.md``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.datasets.registry import load_dataset

from mesabench import corpus, loadgen, procfs, stats
from mesabench.breakdown import per_layer_metrics
from mesabench.topology import CliServer, InProcessServer
from mesabench.tracer import Instrumentation, Recorder
from mesabench.verify import References, matches

DATASET = "SO"

#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: cold workloads serve the representative queries and then one round of
#: the corpus per this many seconds of ``--seconds``: a fixed amount of
#: work, so every run of a workload serves the same queries.
SECONDS_PER_ROUND = 5.0

#: hot-repeat: the share of the run spent in the closed loop, the latency
#: limit on ``latency_tail_s`` for a ladder rate to count as sustained,
#: and the ladder of open-loop rates.
CLOSED_SHARE = 0.5
LATENCY_LIMIT_S = 0.1
LADDER = (20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
HOT_SET = 8
INVALID = 2
INVALID_SHARE = 0.05

#: update-mix: reader hot set, number of appends per run and rows each.
#: The reader waits for the re-warm after each append; with two appends
#: per 10 s run it waited most of the run and throughput_qps spread by
#: 0.28-0.29 over ten seeds.
UPDATE_HOT_SET = 4
APPENDS = 1
APPEND_ROWS = 200
REWARM_TIMEOUT_S = 60.0


@dataclass
class Workload:
    name: str
    why: str
    flags: Callable[[str], List[str]]
    workers: int
    store: bool
    drive: Callable


@dataclass
class Measured:
    """What a workload's measured phase produced."""

    outcomes: List[loadgen.Outcome]
    queries: List[Any]
    latencies: List[float]
    throughput_qps: float
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    updates: List[loadgen.Update] = field(default_factory=list)
    batches: List[List[Dict]] = field(default_factory=list)


def _closed_throughput(outcomes, started: float) -> float:
    finished = max(outcome.done for outcome in outcomes)
    return len(outcomes) / (finished - started)


# --------------------------------------------------------------------- #
# traffic functions
# --------------------------------------------------------------------- #
def drive_cold(clients: int):
    def drive(client, bundle, seed, seconds, recorder, begin) -> Measured:
        rounds = corpus.corpus_rounds(bundle)
        count = 1 + max(1, round(seconds / SECONDS_PER_ROUND))
        queries = [query for round_ in rounds[:count] for query in round_]
        started = begin()
        outcomes = loadgen.closed_loop(client, DATASET, queries, clients,
                                       recorder)
        return Measured(outcomes, queries,
                        [o.latency for o in outcomes if o.status != "error"],
                        _closed_throughput(outcomes, started),
                        {"queries": len(queries), "clients": clients})
    return drive


def drive_hot_repeat(client, bundle, seed, seconds, recorder,
                     begin) -> Measured:
    queries = corpus.distinct_corpus(bundle, HOT_SET)
    queries += corpus.invalid_queries(bundle, INVALID)
    for query in queries:  # warm-up: every later answer is a cache hit
        loadgen.send(client, DATASET, query, 0, time.perf_counter())
    senders = os.cpu_count() or 1
    closed_seconds = CLOSED_SHARE * seconds
    step_seconds = (seconds - closed_seconds) / len(LADDER)
    draws = int(sum(rate * step_seconds for rate in LADDER)) + 100000
    mix = corpus.request_mix(HOT_SET, INVALID, draws, seed, INVALID_SHARE)
    started = begin()
    saturated = loadgen.closed_loop(client, DATASET,
                                    [queries[i] for i in mix], senders,
                                    recorder, closed_seconds)
    throughput = _closed_throughput(saturated, started)
    steps: List[loadgen.Step] = []
    offset = len(saturated)
    for rate in LADDER:
        step = loadgen.open_loop(client, DATASET, queries, mix[offset:],
                                 rate, step_seconds, senders,
                                 LATENCY_LIMIT_S, recorder)
        offset += step.scheduled
        steps.append(step)
        if not _sustained(step):
            break
    rows = []
    for step in steps:
        latencies = [o.latency for o in step.outcomes] or [float("inf")]
        tail, level, n = stats.tail_latency(latencies)
        rows.append({"rate_rps": step.rate, "n": n,
                     "p50_s": stats.median(latencies), "tail_s": tail,
                     "tail_pct": level, "missed": step.missed,
                     "max_lateness_s": step.max_lateness,
                     "sustained": _sustained(step)})
    for outcome in saturated:
        outcome.index = mix[outcome.index]
    return Measured(saturated + [o for step in steps for o in step.outcomes],
                    queries,
                    [o.latency for o in saturated if o.status != "error"],
                    throughput,
                    {"max_rate_rps": _max_rate(rows), "ladder": rows,
                     "latency_limit_s": LATENCY_LIMIT_S,
                     "senders": senders})


def _sustained(step: loadgen.Step) -> bool:
    if step.missed or not step.outcomes:
        return False
    if any(o.status == "error" for o in step.outcomes):
        return False
    tail, _, _ = stats.tail_latency([o.latency for o in step.outcomes])
    return tail <= LATENCY_LIMIT_S


def _max_rate(rows: List[Dict]) -> float:
    """The highest sustained rate, interpolated (in log rate against log
    tail latency) towards the first rate that was not sustained."""
    import math

    passed = [row for row in rows if row["sustained"]]
    if not passed:
        first = rows[0]
        return first["rate_rps"] * min(1.0, LATENCY_LIMIT_S / first["tail_s"])
    best = passed[-1]
    failed = [row for row in rows if not row["sustained"]]
    if not failed:
        return best["rate_rps"]
    worse = failed[0]
    lo, hi = math.log(best["tail_s"]), math.log(max(worse["tail_s"],
                                                     best["tail_s"] * 1.0001))
    share = min(1.0, max(0.0, (math.log(LATENCY_LIMIT_S) - lo) / (hi - lo)))
    return best["rate_rps"] * (worse["rate_rps"] / best["rate_rps"]) ** share


def drive_update_mix(client, bundle, seed, seconds, recorder,
                     begin) -> Measured:
    queries = corpus.distinct_corpus(bundle, UPDATE_HOT_SET)
    for query in queries:  # warm-up: the hot set is cached and recorded
        loadgen.send(client, DATASET, query, 0, time.perf_counter())
    # Round robin, not Zipf: after an append the reader asks for every hot
    # query within a few reads, so it waits for the whole hot set to be
    # recomputed whatever the seed.  With a skewed mix, which query came
    # next decided the wait and spread throughput_qps by 0.28.
    mix = [queries[i] for i in corpus.round_robin(len(queries), 100000,
                                                  seed)]
    batches = [corpus.appended_rows(APPEND_ROWS, batch)
               for batch in range(APPENDS)]
    updates: List[loadgen.Update] = []
    started = begin()

    def writer() -> None:
        for batch, rows in enumerate(batches):
            due = started + (batch + 1) * seconds / (APPENDS + 1)
            time.sleep(max(0.0, due - time.perf_counter()))
            context = (recorder.adopt(f"u{batch}", None)
                       if recorder is not None and recorder.enabled else None)
            if context is not None:
                context.__enter__()
            try:
                updates.append(loadgen.append_and_rewarm(
                    client, DATASET, rows, batch, REWARM_TIMEOUT_S))
            finally:
                if context is not None:
                    context.__exit__(None, None, None)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    outcomes = loadgen.closed_loop(client, DATASET, mix, 1, recorder,
                                   seconds)
    thread.join()
    update_s = [u.acked - u.sent for u in updates]
    rewarm_s = [u.rewarmed - u.sent for u in updates if u.rewarmed]
    return Measured(outcomes, mix,
                    [o.latency for o in outcomes if o.status != "error"],
                    _closed_throughput(outcomes, started),
                    {"update_s": stats.median(update_s) if update_s else None,
                     "rewarm_s": stats.median(rewarm_s) if rewarm_s else None,
                     "appends": len(updates),
                     "rewarm_states": [u.state for u in updates]},
                    updates, batches)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("cold-single",
             "1 worker, 1 closed-loop client, distinct SO queries at the "
             "default 4,000 rows: every request misses the caches, so the "
             "engine does the work; serving-only changes predict no move",
             lambda store: ["--workers", "1"], 1, False, drive_cold(1)),
    Workload("cold-cluster",
             "2 workers (nproc), key sharding, 2 closed-loop clients, distinct"
             " SO queries: BLAS oversubscription, IPC routing and shm frame "
             "adoption show only here",
             lambda store: ["--workers", "2"], 2, False, drive_cold(2)),
    Workload("hot-repeat",
             "2 workers, warmed Zipf repeat mix with 5% cached-400 queries, "
             "closed loop then an open-loop rate ladder: HTTP, cache and IPC "
             "path only; engine changes predict no move",
             lambda store: ["--workers", "2"], 2, False, drive_hot_repeat),
    Workload("update-mix",
             "1 worker with --store: a closed-loop reader of a warm hot set "
             "beside an append_rows batch and its re-warm job: "
             "invalidation, metastore writes, jobs",
             lambda store: ["--workers", "1", "--store", store], 1, True,
             drive_update_mix),
)}


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #
def _stats(client) -> Dict[str, Any]:
    try:
        return client.stats()
    except Exception as error:  # reported, never fatal to the run
        return {"error": repr(error)}


def run(root: str, name: str, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    """Run one workload once; returns metrics, diagnostics and verdict."""
    workload = WORKLOADS[name]
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        return _run(root, workload, seed, seconds, trace, workdir,
                    os.path.join(work_root, "references"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(root, workload: Workload, seed, seconds, trace, workdir,
         reference_dir) -> Dict[str, Any]:
    bundle = load_dataset(DATASET)
    store = (lambda i: os.path.join(workdir, f"meta-{i}.sqlite3")) \
        if workload.store else (lambda i: None)
    setup_times: List[float] = []
    recorder = instrumentation = None
    if trace:
        recorder = Recorder(dump_dir=workdir)
        instrumentation = Instrumentation(recorder).install()
        recorder.enabled = True
        server = InProcessServer(bundle, workload.workers, store(0),
                                 os.path.join(workdir, "server.log"))
    else:
        for attempt in range(SETUP_REPEATS - 1):
            probe = CliServer(root, workdir, workload.flags(store(attempt)))
            setup_times.append(probe.setup_s)
            probe.stop()
        server = CliServer(root, workdir,
                           workload.flags(store(SETUP_REPEATS - 1)))
    setup_times.append(server.setup_s)
    ready = time.perf_counter()
    mark: Dict[str, Any] = {}

    def begin() -> float:
        """Called by a traffic function after its warm-up: the measured
        window opens."""
        mark["before"] = _stats(server.client)
        mark["cpu"] = procfs.cpu_seconds(server.pids())
        mark["start"] = time.perf_counter()
        return mark["start"]

    try:
        measured = workload.drive(server.client, bundle, seed, seconds,
                                  recorder, begin)
        window_start, window_end = mark["start"], time.perf_counter()
        pids = server.pids()
        cpu_used = procfs.cpu_seconds(pids) - mark["cpu"]
        rss_mb = procfs.peak_rss_mb(pids)
        worker_threads = ([procfs.threads(pid) for pid in server.worker_pids()]
                          if trace else [])
        after = _stats(server.client)
    finally:
        if recorder is not None:
            recorder.enabled = False
        server.stop()
    if instrumentation is not None:
        instrumentation.uninstall()
        recorder.load_worker_dumps()

    verdict = _check(root, reference_dir, bundle, measured)
    attempted = len(measured.outcomes) + len(measured.updates)
    failed = verdict["failed"]
    latencies = measured.latencies or [float("nan")]
    tail, level, n = stats.tail_latency(latencies)
    end_to_end = {
        "setup_s": stats.median(setup_times),
        "latency_p50_s": stats.median(latencies),
        "latency_tail_s": tail,
        "throughput_qps": measured.throughput_qps,
        "peak_rss_mb": rss_mb,
    }
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "end_to_end": end_to_end,
        "tail": {"percentile": level, "samples": n},
        "setup_runs_s": setup_times,
        "error_rate": failed / attempted if attempted else 1.0,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and attempted > 0,
        "check": verdict, "diagnostics": measured.diagnostics,
        "measured_seconds": window_end - window_start,
    }
    if trace:
        result["per_layer"], result["layers"] = per_layer_metrics(
            recorder, measured, mark["before"], after,
            setup_window=(server.started, ready),
            window=(window_start, window_end),
            cpu_seconds=cpu_used, worker_threads=worker_threads)
    return result


def _check(root, reference_dir, bundle, measured: Measured) -> Dict[str, Any]:
    """Compare every answer with its reference; failures by kind."""
    versions = [References(root, reference_dir, bundle,
                           measured.batches[:count])
                for count in range(len(measured.batches) + 1)]
    kinds: Dict[str, int] = {}
    examples: List[str] = []
    for outcome in measured.outcomes:
        if outcome.status == "error":
            kind = "transport"
        else:
            query = measured.queries[outcome.index]
            lo = sum(u.acked <= outcome.sent for u in measured.updates)
            hi = sum(u.sent <= outcome.done for u in measured.updates)
            if any(matches(outcome.status, outcome.payload,
                           versions[v].expected(query))
                   for v in range(lo, hi + 1)):
                continue
            kind = "mismatch"
        kinds[kind] = kinds.get(kind, 0) + 1
        if len(examples) < 3:
            examples.append(f"{kind}: {str(outcome.payload)[:200]}")
    for update in measured.updates:
        if update.state != "DONE":
            kinds["rewarm"] = kinds.get("rewarm", 0) + 1
    for references in versions:
        references.save()
    return {"failed": sum(kinds.values()), "by_kind": kinds,
            "examples": examples,
            "references_computed": sum(r.computed for r in versions)}
