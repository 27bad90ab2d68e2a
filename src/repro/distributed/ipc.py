"""Worker processes over pipes: the one process pool of the package.

Every worker process the system starts comes from :class:`WorkerPool`:
the key-sharded replicas of :class:`~repro.serving.cluster.ServiceCluster`,
the row shards of :class:`~repro.distributed.coordinator.ShardPool` and
the process backend of :func:`repro.engine.parallel.explain_many_forked`.
The pool resolves the start method, spawns the workers, restarts a dead
one and retries the request it failed, probes them for stats and shuts
them down; its users supply only the worker body and its arguments.

The wire discipline is strict request/response over a
:mod:`multiprocessing` pipe: one outstanding request per worker (a
parent-side lock serialises the round-trips), replies framed as
``("ok", payload)`` or ``("error", (type_name, args))``, liveness-aware
waits, and library exceptions rebuilt by type in the parent
(:func:`rebuild_error`).  Worker bodies answer through :func:`serve_pipe`.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import exceptions as _exceptions
from repro.exceptions import ConfigurationError, ReproError
from repro.obs import trace


class WorkerDiedError(ReproError):
    """A worker went away mid-request (crash / kill / closed pipe).

    Deliberately *not* an :class:`ExplanationError`: that family means "the
    request was bad" (HTTP 400 on the serving path), while a dead worker is
    a server fault (500) — and one the owning tier usually heals by
    restarting the worker and retrying before any caller sees this.
    """


class WorkerFaultError(ReproError):
    """A worker raised an exception type the parent cannot reconstruct.

    Covers internal bugs (``KeyError``, ``LinAlgError``, ``MemoryError``,
    ...) whose types do not live in :mod:`repro.exceptions`.  Like
    :class:`WorkerDiedError` this is a *server* fault (HTTP 500) — it must
    never be folded into the client-error family, or switching from one
    process to a cluster would reclassify crashes as bad requests.  Unlike
    a died worker it is not retried: the process is healthy, the request
    deterministically fails.
    """


def rebuild_error(type_name: str, args: Tuple) -> Exception:
    """Reconstruct a worker-side exception in the parent process.

    Library exceptions rebuild as their own type (so 400/404/422 HTTP
    mappings and caller ``except`` clauses behave exactly as in-process);
    everything else is a worker-internal fault and surfaces as
    :class:`WorkerFaultError`.
    """
    error_class = getattr(_exceptions, type_name, None)
    if error_class is None or not isinstance(error_class, type) \
            or not issubclass(error_class, Exception):
        return WorkerFaultError(
            f"worker failed with {type_name}: "
            + "; ".join(str(arg) for arg in args))
    try:
        return error_class(*args)
    except TypeError:
        return WorkerFaultError(f"worker failed with {type_name}: {args}")


def serve_pipe(conn, serve_one, span_prefix: str = "worker") -> None:
    """The worker-side request/response loop shared by both tiers.

    ``serve_one(op, payload)`` computes one reply; exceptions cross the
    pipe as ``("error", (type_name, args))`` and are rebuilt by
    :func:`rebuild_error` on the parent side.  A ``"shutdown"`` op is
    acknowledged and ends the loop; a closed pipe ends it silently.

    Requests framed as ``(op, payload, trace_context)`` join the
    caller's distributed trace: the loop activates a process-local
    collecting tracer, serves the op under a ``{span_prefix}.{op}``
    span, and ships every span the op recorded back in a three-field
    ``("ok", result, spans)`` reply for the parent to stitch in.
    Two-field frames keep the historical untraced protocol exactly.
    """
    collector = trace.Tracer(max_traces=64, tier=span_prefix)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if len(message) == 3:
            op, payload, trace_context = message
        else:
            op, payload = message
            trace_context = None
        if op == "shutdown":
            conn.send(("ok", None))
            break
        if trace_context is None:
            try:
                conn.send(("ok", serve_one(op, payload)))
            except Exception as error:
                conn.send(("error", (type(error).__name__, error.args)))
            continue
        token = trace.activate(collector, trace_context["trace_id"],
                               trace_context.get("parent_span_id"))
        try:
            with trace.span(f"{span_prefix}.{op}"):
                result = serve_one(op, payload)
            conn.send(("ok", result,
                       collector.pop_spans(trace_context["trace_id"])))
        except Exception as error:
            collector.pop_spans(trace_context["trace_id"])
            conn.send(("error", (type(error).__name__, error.args)))
        finally:
            trace.deactivate(token)


@dataclass
class PipeWorkerHandle:
    """Parent-side view of one worker: process, pipe, request lock."""

    index: int
    process: Any
    conn: Any
    #: Serialises request/response round-trips on the pipe.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Bumped on every restart; lets a failing thread detect that another
    #: thread already replaced the process it observed dying.
    generation: int = 0
    restarts: int = 0
    #: Last successful ``stats`` snapshot (served when the worker is busy).
    last_stats: Optional[Dict[str, Any]] = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def poll_reply(handle: PipeWorkerHandle, op: str, timeout: float) -> None:
    """Wait for a reply, failing fast when the worker process dies.

    A SIGKILLed worker closes its pipe end, which ``poll`` surfaces — but
    a worker that never came up (or is wedged before its accept loop)
    would otherwise block for the full request timeout, so the wait is
    sliced and the process liveness re-checked between slices.
    """
    slice_seconds = 0.2
    waited = 0.0
    while waited < timeout:
        if handle.conn.poll(min(slice_seconds, timeout - waited)):
            return
        waited += slice_seconds
        if not handle.process.is_alive():
            # One final poll: the reply may have raced the exit.
            if handle.conn.poll(0):
                return
            raise WorkerDiedError(
                f"worker {handle.index} exited while handling {op!r}")
    raise WorkerDiedError(
        f"worker {handle.index} did not answer {op!r} within {timeout}s")


def request_locked(handle: PipeWorkerHandle, op: str, payload,
                   timeout: float) -> Any:
    """One round-trip body; the caller must hold ``handle.lock``.

    When a trace is active on the calling thread the round-trip runs
    under an ``rpc.{op}`` span whose context rides the request frame —
    the worker's spans come back in the reply and are stitched under
    the rpc span, so one trace id spans both processes.
    """
    with trace.span(f"rpc.{op}", worker=handle.index):
        trace_context = trace.current_context()
        try:
            if trace_context is None:
                handle.conn.send((op, payload))
            else:
                handle.conn.send((op, payload, trace_context))
            poll_reply(handle, op, timeout)
            reply = handle.conn.recv()
        except WorkerDiedError:
            raise
        except (EOFError, OSError, BrokenPipeError, ValueError) as error:
            raise WorkerDiedError(
                f"worker {handle.index} died during {op!r}: "
                f"{type(error).__name__}: {error}") from error
        if len(reply) == 3:
            verdict, result, remote_spans = reply
            if remote_spans:
                trace.absorb(remote_spans)
        else:
            verdict, result = reply
        if verdict == "error":
            raise rebuild_error(*result)
        return result


def resolve_start_method(start_method: Optional[str]) -> str:
    """The start method a pool uses: ``fork`` where available, else ``spawn``.

    A forced method must be ``"fork"`` or ``"spawn"`` and available on
    this platform.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in available else "spawn"
    if start_method not in ("fork", "spawn"):
        raise ConfigurationError(
            f"start_method must be 'fork' or 'spawn', got {start_method!r}")
    if start_method not in available:
        raise ConfigurationError(
            f"start method {start_method!r} is not available here")
    return start_method


class WorkerPool:
    """N worker processes answering requests over pipes.

    Parameters
    ----------
    target:
        The worker body, run in the child as ``target(conn, *args(index))``;
        it answers requests through :func:`serve_pipe`.
    args:
        ``index -> tuple`` of the body's further arguments, evaluated at
        every (re)spawn.  Under ``fork`` they reach the child through the
        inherited address space and are never pickled; under ``spawn``
        they are pickled once per process start.
    n_workers:
        How many worker processes to run.
    start_method:
        ``"fork"`` / ``"spawn"``; ``None`` picks via
        :func:`resolve_start_method`.
    request_timeout:
        Seconds to wait for one reply before declaring the worker dead.
    name:
        Process-name prefix (``{name}-{index}``).
    on_respawn:
        ``handle -> None``, run under the handle lock once a dead worker's
        replacement is up and before the failed request is retried; it
        re-installs whatever per-worker state the owner keeps.
    role:
        Reported by the stats snapshot of a worker that is busy or fails
        to answer the probe.
    """

    def __init__(self, target: Callable, args: Callable[[int], Tuple],
                 n_workers: int, start_method: Optional[str] = None,
                 request_timeout: float = 600.0, name: str = "repro-worker",
                 on_respawn: Optional[Callable[[PipeWorkerHandle],
                                               None]] = None,
                 role: str = "worker"):
        self.start_method = resolve_start_method(start_method)
        self._mp = multiprocessing.get_context(self.start_method)
        self._target = target
        self._args = args
        self.n_workers = n_workers
        self.request_timeout = request_timeout
        self.name = name
        self.on_respawn = on_respawn
        self.role = role
        self.handles: List[PipeWorkerHandle] = []
        self._lock = threading.Lock()
        self._closed = False
        #: Dead workers replaced, requests retried after a replacement, and
        #: best-effort broadcast requests that failed.
        self.restarts = 0
        self.retries = 0
        self.broadcast_failures = 0

    def _spawn(self, index: int) -> Tuple[Any, Any]:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=self._target, args=(child_conn,) + tuple(self._args(index)),
            name=f"{self.name}-{index}", daemon=True)
        process.start()
        child_conn.close()  # the parent keeps only its end
        return process, parent_conn

    def start(self) -> "WorkerPool":
        """Spawn every worker, then wait until each answers a ping.

        The workers initialise concurrently, so start-up costs the slowest
        worker's initialisation, not the sum.
        """
        if self._closed:
            raise ConfigurationError(f"{self.name} pool is closed")
        for index in range(self.n_workers):
            process, conn = self._spawn(index)
            self.handles.append(PipeWorkerHandle(index=index, process=process,
                                                 conn=conn))
        for index in range(self.n_workers):
            self.call(index, "ping", None, retry=False)
        return self

    def call(self, index: int, op: str, payload,
             prepare: Optional[Callable[[PipeWorkerHandle], None]] = None,
             retry: bool = True) -> Any:
        """One request to worker ``index``; restart and retry it once if
        the worker died.

        ``prepare(handle)`` runs under the handle lock just before the
        request (and again before the retry), for requests that need
        per-worker state installed first.
        """
        for attempt in (0, 1):
            handle = self.handles[index]
            generation = handle.generation
            try:
                with handle.lock:
                    if prepare is not None:
                        prepare(handle)
                    return request_locked(handle, op, payload,
                                          self.request_timeout)
            except WorkerDiedError:
                if not retry or attempt:
                    raise
                self.restart(index, generation)
                with self._lock:
                    self.retries += 1
        raise AssertionError("unreachable")  # pragma: no cover

    def restart(self, index: int, observed_generation: int) -> None:
        """Replace worker ``index``, once per observed death.

        A thread that saw generation ``g`` die restarts the worker only if
        no other thread has replaced it since.
        """
        handle = self.handles[index]
        with handle.lock:
            if handle.generation != observed_generation:
                return  # another thread already replaced this process
            if self._closed:
                raise WorkerDiedError(
                    f"{self.name} {index} died and the pool is closed")
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5.0)
            handle.process, handle.conn = self._spawn(index)
            handle.generation += 1
            handle.restarts += 1
            if self.on_respawn is not None:
                self.on_respawn(handle)
            with self._lock:
                self.restarts += 1

    def broadcast(self, op: str, payload) -> int:
        """Send ``op`` to every worker, best effort: no restart, no retry.

        Returns how many workers failed it; failures also accumulate in
        :attr:`broadcast_failures`.
        """
        failures = 0
        for index in range(len(self.handles)):
            try:
                self.call(index, op, payload, retry=False)
            except ReproError:
                failures += 1
        if failures:
            with self._lock:
                self.broadcast_failures += failures
        return failures

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Every worker's ``stats`` snapshot, keyed by ``str(index)``.

        A worker busy with a long request holds its pipe lock for the whole
        round-trip, and abandoning a sent request would desynchronise the
        framing, so the probe waits at most 2 s for the lock and otherwise
        returns the worker's last snapshot marked ``stale``.  Probes run
        concurrently, so the stall is ~2 s in total, not per busy worker.
        Each snapshot also carries the worker's ``alive`` and ``restarts``.
        """
        def probe(handle: PipeWorkerHandle) -> Dict[str, Any]:
            if not handle.lock.acquire(timeout=2.0):
                stale = dict(handle.last_stats or {"role": self.role})
                stale["stale"] = True
                return stale
            try:
                snapshot = request_locked(handle, "stats", None,
                                          self.request_timeout)
                handle.last_stats = snapshot
                return snapshot
            except ReproError as error:
                return {"role": self.role,
                        "error": f"{type(error).__name__}: {error}"}
            finally:
                handle.lock.release()

        handles = list(self.handles)
        if len(handles) <= 1:
            snapshots = [probe(handle) for handle in handles]
        else:
            with ThreadPoolExecutor(max_workers=len(handles)) as executor:
                snapshots = list(executor.map(probe, handles))
        health = self.health()
        return {str(handle.index): {**health[str(handle.index)], **snapshot}
                for handle, snapshot in zip(handles, snapshots)}

    def health(self) -> Dict[str, Dict[str, Any]]:
        """Per worker ``alive`` (a non-blocking process check) and
        ``restarts``, keyed by ``str(index)``."""
        return {str(handle.index): {"alive": handle.alive(),
                                    "restarts": handle.restarts}
                for handle in self.handles}

    def alive_workers(self) -> int:
        return sum(handle.alive() for handle in self.handles)

    def close(self) -> None:
        """Shut every worker down: gracefully, then firmly (idempotent).

        Each worker is sent ``shutdown`` so it can finish cleanly, but the
        wait for its pipe lock is brief: a worker mid-way through a long
        request holds it for the whole run, and shutdown must not stall
        behind request traffic.  Whatever has not exited after the grace
        period is terminated.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self.handles)
        for handle in handles:
            if not handle.lock.acquire(timeout=2.0):
                continue  # busy worker: skip graceful, terminate below
            try:
                handle.conn.send(("shutdown", None))
                handle.conn.poll(2.0)
            except (OSError, ValueError, BrokenPipeError):
                pass
            finally:
                handle.lock.release()
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
