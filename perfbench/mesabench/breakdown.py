"""Per-layer metrics and the self-time table of one traced run.

Span self times (see :func:`mesabench.stats.self_times`) are summed per
layer over the measured window and divided by the number of requests the
load generator completed in it, so ``*_s`` metrics read as seconds per
request.  Counters the program already keeps (cache, fit-cache,
speculation, store and job totals) come from the difference of two
``/stats`` snapshots, which also merge the cluster workers' counters.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from mesabench import stats

#: Every per-layer metric, in ``BENCHMARK.json`` order, with its unit.
PER_LAYER_UNITS = {
    "engine.online_pruning_s": "s", "engine.selection_bias_s": "s",
    "engine.mcimr_s": "s", "engine.candidates_s": "s",
    "missingness.ipw_fit_s": "s", "missingness.ipw_fit_calls": "count",
    "missingness.fit_cache_hit_ratio": "ratio",
    "infotheory.perm_test_s": "s", "infotheory.perm_tests": "count",
    "infotheory.perm_saved_ratio": "ratio",
    "core.mcimr_rounds": "count", "core.speculation_hit_ratio": "ratio",
    "table.filter_s": "s", "table.join_s": "s", "table.discretize_s": "s",
    "serving.http_overhead_s": "s", "serving.cache_lookup_s": "s",
    "serving.cache_hit_ratio": "ratio", "serving.negative_hit_ratio": "ratio",
    "engine.envelope_serialise_s": "s", "distributed.ipc_round_trip_s": "s",
    "proc.threads_per_worker": "count", "proc.cpu_utilisation": "ratio",
    "distributed.worker_restarts": "count",
    "distributed.request_retries": "count",
    "shm.frame_attach": "count", "shm.worker_reencodes": "count",
    "serving.batch_queue_wait_s": "s", "serving.batch_size": "count",
    "storage.writes_committed": "count", "storage.write_pending_max": "count",
    "storage.store_hit_ratio": "ratio",
    "jobs.queue_wait_s": "s", "jobs.run_s": "s",
    "jobs.queries_executed": "count",
    "kg.extraction_s": "s", "engine.offline_pruning_s": "s",
}


def _get(snapshot: Dict, *path, default=0):
    for key in path:
        if not isinstance(snapshot, dict) or key not in snapshot:
            return default
        snapshot = snapshot[key]
    return snapshot


def _delta(before, after, *path) -> float:
    return float(_get(after, *path)) - float(_get(before, *path))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counter(before, after, name: str) -> float:
    """A dataset counter's growth over the window.  An append replaces the
    dataset's context, whose counters start from zero: then the new
    context's count is the growth."""
    path = ("contexts", "SO")
    if _get(after, *path, "dataset_version") != \
            _get(before, *path, "dataset_version"):
        return float(_get(after, *path, "counters", name))
    return _delta(before, after, *path, "counters", name)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(recorder, measured, before: Dict, after: Dict,
                      setup_window: Tuple[float, float],
                      window: Tuple[float, float], cpu_seconds: float,
                      worker_threads: List[int]
                      ) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """``(metrics, table)``: every per-layer metric, and one row per
    layer with its span count and self time over the measured window."""
    spans = [{"id": s[0], "parent": s[1], "rid": s[2], "name": s[3],
              "layer": s[4], "start": s[5], "end": s[6]}
             for s in recorder.spans if s[6] is not None]
    selves = stats.self_times(spans)
    lo, hi = window
    measured_spans = [s for s in spans if lo <= s["start"] <= hi]
    setup_spans = [s for s in spans
                   if setup_window[0] <= s["start"] < setup_window[1]]
    requests = max(1, len(measured.outcomes))

    self_by_name: Dict[str, float] = defaultdict(float)
    count_by_name: Dict[str, int] = defaultdict(int)
    total_by_name: Dict[str, float] = defaultdict(float)
    by_layer: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in measured_spans:
        self_by_name[span["name"]] += selves[span["id"]]
        total_by_name[span["name"]] += span["end"] - span["start"]
        count_by_name[span["name"]] += 1
        by_layer[span["layer"]][0] += 1
        by_layer[span["layer"]][1] += selves[span["id"]]

    def per_request(*names: str) -> float:
        return sum(self_by_name[name] for name in names) / requests

    def setup_self(name: str) -> float:
        return sum(selves[s["id"]] for s in setup_spans if s["name"] == name)

    # HTTP overhead: each request's round trip minus its backend call.
    round_trip = {s["rid"]: s["end"] - s["start"] for s in measured_spans
                  if s["name"] == "client.request"}
    backend = {s["rid"]: s["end"] - s["start"] for s in measured_spans
               if s["name"] == "backend.explain" and s["rid"] in round_trip}
    http_overhead = _mean(round_trip[rid] - backend[rid] for rid in backend)
    ipc = 0.0
    if count_by_name["cluster.explain"]:
        ipc = (total_by_name["cluster.explain"]
               - total_by_name["service.explain"]) \
            / count_by_name["cluster.explain"]

    samples = {name: [value for stamp, value in values if lo <= stamp <= hi]
               for name, values in recorder.samples.items()}
    perm_budget = sum(samples.get("perm_budget", []))
    perm_computed = sum(samples.get("perm_computed", []))
    jobs = [times for times in recorder.job_times.values()
            if {"created", "claimed", "ended"} <= set(times)
            and lo <= times["created"] <= hi]
    cache_hits = _delta(before, after, "cache", "hits")
    cache_lookups = cache_hits + _delta(before, after, "cache", "misses")
    negative_hits = _delta(before, after, "negative_cache", "hits")
    negative_lookups = negative_hits + _delta(before, after, "negative_cache",
                                              "misses")
    store_hits = _delta(before, after, "envelope_store", "hits")
    store_lookups = store_hits + _delta(before, after, "envelope_store",
                                        "misses")
    fit_hits = _counter(before, after, "ipw_fit_hit")
    fit_misses = _counter(before, after, "ipw_fit_miss")
    spec_hits = _counter(before, after, "speculation_hit")
    spec_waste = _counter(before, after, "speculation_waste")

    metrics = {
        "engine.online_pruning_s": per_request("stage.online_pruning",
                                               "online_prune"),
        "engine.selection_bias_s": per_request("stage.selection_bias"),
        "engine.mcimr_s": per_request("stage.search", "mcimr"),
        "engine.candidates_s": per_request("stage.candidates"),
        "missingness.ipw_fit_s": per_request("ipw.fit"),
        "missingness.ipw_fit_calls": count_by_name["ipw.fit"] / requests,
        "missingness.fit_cache_hit_ratio": _ratio(fit_hits,
                                                  fit_hits + fit_misses),
        "infotheory.perm_test_s": per_request("perm_test"),
        "infotheory.perm_tests": count_by_name["perm_test"] / requests,
        "infotheory.perm_saved_ratio": _ratio(perm_budget - perm_computed,
                                              perm_budget),
        "core.mcimr_rounds": _mean(samples.get("mcimr_rounds", [])),
        "core.speculation_hit_ratio": _ratio(spec_hits,
                                             spec_hits + spec_waste),
        "table.filter_s": per_request("table.filter"),
        "table.join_s": per_request("table.join"),
        "table.discretize_s": per_request("table.discretize"),
        "serving.http_overhead_s": http_overhead,
        "serving.cache_lookup_s": per_request("cache.get"),
        "serving.cache_hit_ratio": _ratio(cache_hits, cache_lookups),
        "serving.negative_hit_ratio": _ratio(negative_hits, negative_lookups),
        "engine.envelope_serialise_s": per_request("envelope.serialise"),
        "distributed.ipc_round_trip_s": ipc,
        "proc.threads_per_worker": _mean(worker_threads),
        "proc.cpu_utilisation": cpu_seconds
        / ((hi - lo) * (os.cpu_count() or 1)),
        "distributed.worker_restarts": _delta(before, after, "cluster",
                                              "worker_restarts"),
        "distributed.request_retries": _delta(before, after, "cluster",
                                              "request_retries"),
        "shm.frame_attach": _counter(before, after, "frame_store_attach"),
        "shm.worker_reencodes": _counter(before, after, "frame_cache_misses"),
        "serving.batch_queue_wait_s": _mean(
            samples.get("batch_queue_wait", [])),
        "serving.batch_size": _mean(samples.get("batch_size", [])),
        "storage.writes_committed": _delta(before, after, "envelope_store",
                                           "meta", "writes_committed"),
        "storage.write_pending_max": max(samples.get("write_pending", [0])),
        "storage.store_hit_ratio": _ratio(store_hits, store_lookups),
        "jobs.queue_wait_s": _mean(t["claimed"] - t["created"] for t in jobs),
        "jobs.run_s": _mean(t["ended"] - t["claimed"] for t in jobs),
        "jobs.queries_executed": _delta(before, after, "jobs",
                                        "queries_executed"),
        "kg.extraction_s": setup_self("kg.extract"),
        "engine.offline_pruning_s": setup_self("offline_pruning"),
    }
    total_self = sum(value[1] for value in by_layer.values()) or 1.0
    table = [{"layer": layer, "spans": count, "self_s": seconds,
              "self_s_per_request": seconds / requests,
              "share": seconds / total_self}
             for layer, (count, seconds) in
             sorted(by_layer.items(), key=lambda item: -item[1][1])]
    return metrics, table
