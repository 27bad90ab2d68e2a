"""The benchmark's own span recorder and the instrumentation that feeds it.

Nothing in ``src/`` knows about this module.  :class:`Instrumentation`
wraps public entry points of the program (stage hooks, the IPW fit, the
pruning and search functions, table operations, caches, the batcher,
envelope serialisation, the metastore and the job manager) with functions
that record a span around each call, and restores the originals on
:meth:`Instrumentation.uninstall`.

A span is ``[id, parent, request_id, name, layer, start, end]``.  The
parent is the innermost open span of the same thread; work handed to
another thread (the micro-batcher, speculative search) carries its
request id and parent along.  Spans of one HTTP request share the request
id, which travels from the load generator to the server handler in an
``X-Perfbench-Trace`` header.  Spans stay in memory; forked cluster
workers write theirs to a file when they exit, and the parent reads them
back after the cluster has shut down.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from multiprocessing import util as multiprocessing_util
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.context import StageHook

TRACE_HEADER = "X-Perfbench-Trace"

_JOB_TERMINAL = ("DONE", "FAILED", "CANCELLED")


class Recorder:
    """In-memory span and sample store (one per process)."""

    def __init__(self, dump_dir: Optional[str] = None):
        self.dump_dir = dump_dir
        self.enabled = False
        self.spans: List[list] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.job_times: Dict[str, Dict[str, float]] = defaultdict(dict)
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._local = threading.local()
        #: id(query) -> (request id, batcher span id, submit time), from a
        #: batcher submission to the batch run that executes the query.
        self._handoff: Dict[int, Tuple[Optional[str], str, float]] = {}

    # ---- span bookkeeping -------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[Optional[str], Optional[str]]:
        """``(request_id, innermost open span id)`` of this thread."""
        stack = self._stack()
        parent = stack[-1][0] if stack else getattr(self._local, "parent",
                                                    None)
        return getattr(self._local, "rid", None), parent

    def open(self, name: str, layer: str, push: bool = True) -> Optional[list]:
        if not self.enabled:
            return None
        rid, parent = self.current()
        record = [f"{self._pid}.{next(self._ids)}", parent, rid, name, layer,
                  time.perf_counter(), None]
        if push:
            self._stack().append(record)
        return record

    def close(self, record: Optional[list]) -> None:
        if record is None:
            return
        record[6] = time.perf_counter()
        stack = self._stack()
        if record in stack:
            del stack[stack.index(record):]
        self.spans.append(record)

    def sample(self, name: str, value: float) -> None:
        """Record ``value`` under ``name``, stamped with the current time."""
        if self.enabled:
            self.samples[name].append((time.perf_counter(), value))

    def adopt(self, rid: Optional[str], parent: Optional[str]):
        """Run the enclosed code as part of request ``rid`` under ``parent``
        (for work another thread does on a request's behalf)."""
        recorder = self

        class _Adopt:
            def __enter__(self):
                local = recorder._local
                self.saved = (getattr(local, "rid", None),
                              getattr(local, "parent", None),
                              getattr(local, "stack", None))
                local.rid, local.parent, local.stack = rid, parent, []

            def __exit__(self, *_exc):
                local = recorder._local
                local.rid, local.parent, local.stack = self.saved

        return _Adopt()

    def wrap(self, func: Callable, name: str, layer: str,
             after: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = recorder.open(name, layer)
            if record is None:
                return func(*args, **kwargs)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.close(record)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ---- cross-process ------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        return {"pid": self._pid, "spans": list(self.spans),
                "samples": dict(self.samples),
                "job_times": dict(self.job_times)}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        self.spans.extend(snapshot["spans"])
        for name, values in snapshot["samples"].items():
            self.samples[name].extend(values)
        for job, times in snapshot["job_times"].items():
            self.job_times[job].update(times)

    def after_fork_in_child(self) -> None:
        """Start a forked worker with empty state; dump it when it exits."""
        if not self.enabled or self.dump_dir is None:
            return
        self.spans, self.samples = [], defaultdict(list)
        self.job_times = defaultdict(dict)
        self._pid = os.getpid()
        self._local = threading.local()
        self._handoff = {}
        multiprocessing_util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{self._pid}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)

    def load_worker_dumps(self) -> int:
        """Merge every worker dump written so far; returns how many."""
        loaded = 0
        for name in sorted(os.listdir(self.dump_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(self.dump_dir, name)) as handle:
                    self.merge(json.load(handle))
                loaded += 1
        return loaded


class Instrumentation:
    """Installs the recorder's wrappers around the program's entry points."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, layer: str,
              after: Optional[Callable] = None) -> None:
        self._patch(owner, attr, self.recorder.wrap(
            owner.__dict__[attr], name, layer, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> "Instrumentation":
        import http.client
        import importlib

        from repro.core import subgroups
        from repro.engine import context as context_module
        from repro.engine import stages
        from repro.engine.envelope import ExplanationEnvelope
        from repro.infotheory import encoding, kernel, permutation
        from repro.jobs.manager import JobManager
        from repro.kg.extraction import AttributeExtractor
        from repro.missingness import fitcache, logistic
        from repro.serving import cluster, http as http_module
        from repro.serving.batcher import MicroBatcher
        from repro.serving.cache import TTLCache
        from repro.serving.client import LocalClient
        from repro.serving.service import ExplanationService
        from repro.storage.metastore import MetaStore
        from repro.table.table import Table

        # ``repro.core.mcimr`` the attribute is the function; the module
        # lives in sys.modules.
        mcimr_module = importlib.import_module("repro.core.mcimr")
        rec = self.recorder
        # Runs in every multiprocessing child after its bootstrap has reset
        # the finalizer registry, so the exit dump registered there stays.
        multiprocessing_util.register_after_fork(
            rec, Recorder.after_fork_in_child)

        # -- HTTP: carry the request id from the client to the handler -- #
        original_request = http.client.HTTPConnection.request

        def request(conn, method, url, body=None, headers={}, **kwargs):
            rid, parent = rec.current()
            if rec.enabled and rid is not None:
                headers = dict(headers)
                headers[TRACE_HEADER] = f"{rid} {parent}"
            return original_request(conn, method, url, body, headers,
                                    **kwargs)

        self._patch(http.client.HTTPConnection, "request", request)
        handler = http_module.ExplanationRequestHandler
        for verb in ("do_GET", "do_POST"):
            original = handler.__dict__[verb]

            def traced(self_, _original=original):
                value = self_.headers.get(TRACE_HEADER, "")
                rid, _, parent = value.partition(" ")
                with rec.adopt(rid or None, parent or None):
                    record = rec.open("http.handler", "serving.http")
                    try:
                        return _original(self_)
                    finally:
                        rec.close(record)

            self._patch(handler, verb, traced)

        # -- serving tiers ----------------------------------------------- #
        self._wrap(LocalClient, "explain", "backend.explain", "serving.client")
        self._wrap(cluster.ClusterClient, "explain", "backend.explain",
                   "serving.client")
        self._wrap(cluster.ServiceCluster, "explain", "cluster.explain",
                   "distributed.cluster")
        self._wrap(ExplanationService, "explain", "service.explain",
                   "serving.service")
        self._wrap(TTLCache, "get", "cache.get", "serving.cache")

        original_submit = MicroBatcher.__dict__["submit"]

        def submit(batcher, key, query, k=None):
            record = rec.open("batcher.wait", "serving.batcher", push=False)
            future, attached = original_submit(batcher, key, query, k)
            if record is not None and not attached:
                rec._handoff[id(query)] = (record[2], record[0],
                                           record[5])
                future.add_done_callback(lambda _f: rec.close(record))
            return future, attached

        self._patch(MicroBatcher, "submit", submit)
        original_init = MicroBatcher.__dict__["__init__"]

        def batcher_init(batcher, runner, *args, **kwargs):
            @functools.wraps(runner)
            def run(queries, *r_args, **r_kwargs):
                started = time.perf_counter()
                handed = [rec._handoff.pop(id(q), None) for q in queries]
                for item in handed:
                    if item is not None:
                        rec.sample("batch_queue_wait", started - item[2])
                rec.sample("batch_size", len(queries))
                first = next((item for item in handed if item), (None, None))
                with rec.adopt(first[0], first[1]):
                    record = rec.open("batcher.run", "serving.batcher")
                    try:
                        return runner(queries, *r_args, **r_kwargs)
                    finally:
                        rec.close(record)

            original_init(batcher, run, *args, **kwargs)

        self._patch(MicroBatcher, "__init__", batcher_init)
        for attr in ("to_dict", "to_json"):
            self._wrap(ExplanationEnvelope, attr, "envelope.serialise",
                       "engine.envelope")

        # -- engine: stage hooks on every context ------------------------ #
        hook = _StageSpans(rec)
        original_ctx_init = context_module.PipelineContext.__dict__["__init__"]

        def ctx_init(context, *args, **kwargs):
            original_ctx_init(context, *args, **kwargs)
            context.add_hook(hook)

        self._patch(context_module.PipelineContext, "__init__", ctx_init)
        self._wrap(context_module.PipelineContext, "offline_pruning",
                   "offline_pruning", "engine.offline_pruning")
        self._wrap(AttributeExtractor, "augment", "kg.extract", "kg")
        for module in (fitcache, logistic):
            self._wrap(module, "fit_logistic_multi",
                       "ipw.fit", "missingness")
        self._wrap(stages, "online_prune", "online_prune", "core.pruning")
        self._wrap(stages, "mcimr", "mcimr", "core.mcimr",
                   after=lambda a, k, result: rec.sample(
                       "mcimr_rounds", len(result.trace)))
        original_speculate = mcimr_module.__dict__["speculate"]

        def speculate(compute):
            rid, parent = rec.current()

            def carried():
                with rec.adopt(rid, parent):
                    return compute()

            return original_speculate(carried)

        self._patch(mcimr_module, "speculate", speculate)
        self._wrap(kernel, "fast_independence_test", "perm_test",
                   "infotheory")

        original_report = permutation.__dict__["report_outcome"]

        def report_outcome(counter_hook, outcome, n_permutations, budget):
            rec.sample("perm_budget", n_permutations)
            rec.sample("perm_computed", outcome.computed)
            return original_report(counter_hook, outcome, n_permutations,
                                   budget)

        self._patch(permutation, "report_outcome", report_outcome)
        self._wrap(Table, "filter_view", "table.filter", "table")
        self._wrap(Table, "join", "table.join", "table")
        for module in (encoding, subgroups):
            self._wrap(module, "discretize_column", "table.discretize",
                       "table")

        # -- durability ---------------------------------------------------- #
        def pending(args, _kwargs, _result):
            rec.sample("write_pending", args[0].pending_writes)

        for attr in ("put_envelope", "record_query", "record_dataset_version",
                     "job_progress", "add_job_result"):
            self._wrap(MetaStore, attr, f"store.{attr}", "storage",
                       after=pending)
        for attr in ("get_envelope", "top_queries", "flush", "get_job"):
            self._wrap(MetaStore, attr, f"store.{attr}", "storage")

        def job_time(event):
            def after(args, kwargs, result):
                job_id = args[1]
                if event == "claimed" and not result:
                    return
                if event == "ended":
                    state = args[2] if len(args) > 2 else kwargs.get("state")
                    if state not in _JOB_TERMINAL:
                        return
                rec.job_times[job_id][event] = time.perf_counter()
            return after

        self._wrap(MetaStore, "create_job", "store.create_job", "storage",
                   after=job_time("created"))
        self._wrap(MetaStore, "claim_job", "store.claim_job", "storage",
                   after=job_time("claimed"))
        self._wrap(MetaStore, "set_job_state", "store.set_job_state",
                   "storage", after=job_time("ended"))
        for attr in ("submit", "status"):
            self._wrap(JobManager, attr, f"jobs.{attr}", "jobs")
        return self


class _StageSpans(StageHook):
    """A stage hook recording one span per pipeline stage."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def on_stage_start(self, stage_name: str, state) -> None:
        self.recorder.open(f"stage.{stage_name}", f"engine.{stage_name}")

    def on_stage_end(self, stage_name: str, state, seconds: float) -> None:
        name = f"stage.{stage_name}"
        stack = self.recorder._stack()
        for record in reversed(stack):
            if record[3] == name:
                self.recorder.close(record)
                return
