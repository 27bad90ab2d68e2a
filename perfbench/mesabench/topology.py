"""The server under test: the real CLI as a subprocess, or (for traced runs)
the same topology built in-process from the public constructors."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional

from repro.serving import HTTPClient

from mesabench import procfs

#: How long a server may take to answer its first health check.
HEALTH_TIMEOUT = 120.0

#: Socket timeout of the load generator's requests; a request that takes
#: longer fails (and counts as failed).
REQUEST_TIMEOUT = 60.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(client: HTTPClient, started: float, process=None) -> float:
    """Poll ``/healthz`` until it reports ok; seconds since ``started``."""
    while True:
        try:
            if client.health().get("status") == "ok":
                return time.perf_counter() - started
        except OSError:
            pass
        if process is not None and process.poll() is not None:
            raise RuntimeError(f"server exited with {process.returncode} "
                               "before it was healthy")
        if time.perf_counter() - started > HEALTH_TIMEOUT:
            raise RuntimeError("server not healthy in time")
        time.sleep(0.02)


class CliServer:
    """``python -m repro.serving`` in a subprocess, default flags plus the
    workload's own (``--workers``, ``--store``) and a free ``--port``."""

    def __init__(self, root: str, workdir: str, flags: List[str]):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.log = open(os.path.join(workdir, f"server-{self.port}.log"), "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "--port", str(self.port)]
            + flags, env=env, cwd=workdir, stdout=self.log,
            stderr=subprocess.STDOUT)
        self.client = HTTPClient(self.url, timeout=REQUEST_TIMEOUT)
        try:
            self.setup_s = wait_healthy(self.client, self.started,
                                        self.process)
        except BaseException:
            self.stop()
            raise

    def pids(self) -> List[int]:
        return procfs.process_tree(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (the CLI shuts its workers down gracefully), then kill
        whatever of the process tree is left."""
        self.client.close()
        tree = self.pids()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        for pid in reversed(tree):
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        self.process.wait()
        procfs.reap(tree, timeout=10.0)
        self.log.close()


class InProcessServer:
    """The CLI's topology built in this process (the traced run).

    Mirrors ``repro.serving.__main__``: an :class:`ExplanationService`
    behind a :class:`LocalClient` for one worker, a key-sharded
    :class:`ServiceCluster` behind a :class:`ClusterClient` otherwise, with
    the CLI's default cache, TTL and coalescing settings, served by
    ``make_server`` on a thread.
    """

    def __init__(self, bundle, workers: int, store: Optional[str],
                 log_path: str):
        from repro.engine.config import MESAConfig
        from repro.serving import (ClusterClient, ExplanationService,
                                   LocalClient, ServiceCluster, make_server)

        self.started = time.perf_counter()
        config = MESAConfig(excluded_columns=tuple(bundle.id_columns),
                            n_jobs=1)
        if workers == 1:
            self.service = ExplanationService(
                cache_size=4096, ttl_seconds=None,
                coalesce_window_seconds=0.005, store=store)
            self.service.register_bundle(bundle, config=config)
            if store is not None:
                self.service.enable_jobs()
            backend = LocalClient(self.service)
        else:
            self.cluster = ServiceCluster(
                n_workers=workers, shard="keys", frame_store=None,
                store_path=store, hedge_requests=False,
                service_kwargs={"cache_size": 4096, "ttl_seconds": None})
            self.cluster.register_bundle(bundle, config=config)
            backend = ClusterClient(self.cluster)
        self.workers = workers
        self.backend = backend
        # The CLI logs every request to stderr; keep that cost, not the noise.
        self._stderr = sys.stderr
        sys.stderr = open(log_path, "w")
        self.server = make_server(backend, port=0, quiet=False)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       daemon=True)
        self.thread.start()
        self.client = HTTPClient(self.url, timeout=REQUEST_TIMEOUT)
        self.setup_s = wait_healthy(self.client, self.started)

    def pids(self) -> List[int]:
        return procfs.process_tree(os.getpid())

    def worker_pids(self) -> List[int]:
        if self.workers == 1:
            return [os.getpid()]
        return [pid for pid in self.pids() if pid != os.getpid()]

    def stop(self) -> None:
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.backend.close()
        sys.stderr.close()
        sys.stderr = self._stderr
