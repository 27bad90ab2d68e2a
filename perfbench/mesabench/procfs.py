"""Process-tree readings from ``/proc`` and the host facts every result
carries."""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import time
from typing import Dict, List

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Environment variables that size BLAS / OpenMP thread pools.  They are
#: recorded when inherited and never set by the benchmark.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def process_tree(root: int) -> List[int]:
    """``root`` and all its live descendants."""
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(_children(pid))
    return tree


def _status_field(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: List[int]) -> float:
    """VmHWM summed over ``pids``, in MiB."""
    return sum(_status_field(pid, "VmHWM") for pid in pids) / 1024.0


def threads(pid: int) -> int:
    return _status_field(pid, "Threads")


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


#: ``prctl`` option that makes this process adopt orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the child subreaper of everything it starts.

    A server's helpers (the multiprocessing resource tracker, cluster
    workers) outlive it for a moment when it exits.  Orphaned, they would
    go to the machine's init, which may leave them as zombies; adopted,
    :func:`reap` and :func:`stop_children` wait for them here.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reaped(pid: int) -> bool:
    """Reap ``pid`` if it is an ended child of this process; True once it
    is neither running nor waiting to be reaped here."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
        return done == pid
    except ChildProcessError:  # not ours: gone, or reaped by its parent
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            return True
        return state in ("Z", "X")


def reap(pids: List[int], timeout: float) -> bool:
    """Wait until every one of ``pids`` has ended and, where it is (or has
    become) a child of this process, reap it; False on timeout."""
    deadline = time.monotonic() + timeout
    pending = list(pids)
    while True:
        pending = [pid for pid in pending if not _reaped(pid)]
        if not pending:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def stop_children(timeout: float = 10.0) -> bool:
    """Kill every process this one still has as a child (zombies included)
    and reap it; False if some are left after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        children = _children(os.getpid())
        if not children:
            return True
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        reap(children, max(0.0, deadline - time.monotonic()))
        if time.monotonic() >= deadline:
            return not _children(os.getpid())


def host_facts() -> Dict[str, object]:
    """nproc, interpreter and library versions, the BLAS NumPy links and
    any inherited thread-pool variables."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older NumPy without mode="dicts"
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ[name] for name in THREAD_ENV_VARS
                       if name in os.environ},
    }
