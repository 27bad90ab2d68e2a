"""The transport-agnostic serving API, :class:`ExplanationClient`.

Callers should not care *where* explanations are computed — in their own
process, behind an HTTP endpoint, or sharded over a cluster of worker
processes.  :class:`ExplanationClient` is the one surface they program
against:

* ``explain(dataset, query, k)`` / ``explain_batch(dataset, queries, k)``
  serve :class:`~repro.serving.service.ServedExplanation` objects;
* ``stats()`` returns the serving tier's observability snapshot;
* ``warm(dataset, queries=...)`` builds cross-query artefacts and replays
  hot queries into the caches;
* ``clear_cache()`` invalidates every cache layer (dataset versions bump,
  see :meth:`~repro.engine.context.PipelineContext.bump_dataset_version`);
* ``submit_job`` / ``job_status`` / ``wait_job`` / ``cancel_job`` /
  ``list_jobs`` run durable background jobs on a store-backed deployment;
* ``close()`` releases whatever the transport holds (threads, sockets,
  worker processes).

The serving tiers implement it themselves —
:class:`~repro.serving.service.ExplanationService` (one process) and
:class:`~repro.serving.cluster.ServiceCluster` (N worker processes) — and
:class:`~repro.serving.client.HTTPClient` speaks it to a remote
deployment.  This module imports nothing from the serving tiers, so each
of them can subclass it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.query.aggregate_query import AggregateQuery

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.jobs import JobManager
    from repro.serving.service import ServedExplanation


class ExplanationClient(ABC):
    """The transport-agnostic serving API (see the module docstring).

    Implementations must be thread-safe: the HTTP front end calls one
    client from many handler threads concurrently.
    """

    @abstractmethod
    def explain(self, dataset: str, query: AggregateQuery,
                k: Optional[int] = None) -> "ServedExplanation":
        """Serve one explanation."""

    @abstractmethod
    def explain_batch(self, dataset: str, queries: Sequence[AggregateQuery],
                      k: Optional[int] = None) -> List["ServedExplanation"]:
        """Serve a batch of explanations, in request order."""

    @abstractmethod
    def stats(self) -> Dict[str, Any]:
        """The serving tier's observability snapshot (JSON-safe)."""

    @abstractmethod
    def warm(self, dataset: str, queries: Optional[Sequence] = None,
             top: int = 8) -> int:
        """Build cross-query artefacts and replay hot queries; returns count."""

    @abstractmethod
    def close(self) -> None:
        """Release the transport's resources; the client stops serving."""

    # ---- standard extensions every implementation provides ------------- #
    @abstractmethod
    def clear_cache(self) -> None:
        """Invalidate every cache layer (bumps dataset versions)."""

    @abstractmethod
    def health(self) -> Dict[str, Any]:
        """Liveness verdict: ``{"status": "ok" | "degraded" | "down", ...}``."""

    @abstractmethod
    def append_rows(self, dataset: str, rows: Sequence[Dict[str, Any]],
                    rewarm: bool = True, top: int = 8) -> Dict[str, Any]:
        """Append rows to a served dataset (live update + re-warm)."""

    def datasets(self) -> List[str]:
        """Names of the datasets this client can serve, sorted."""
        return sorted(self.health().get("datasets", []))

    # ---- durability extensions (need a store-backed deployment) -------- #
    def _no_jobs(self) -> "ConfigurationError":
        return ConfigurationError(
            "this deployment has no durable job store: construct the "
            "service/cluster with store=<path> (or pass --store to "
            "python -m repro.serving)")

    def _job_manager(self) -> "JobManager":
        """The :class:`~repro.jobs.JobManager` behind the job API.

        Raises :class:`ConfigurationError` when the deployment has no
        durable store; store-backed tiers override this.
        """
        raise self._no_jobs()

    def submit_job(self, dataset: str, kind: str = "explain_batch",
                   queries: Optional[Sequence] = None,
                   k: Optional[int] = None, top: int = 8) -> str:
        """Submit a resumable background job; returns its id."""
        return self._job_manager().submit(dataset, kind=kind, queries=queries,
                                          k=k, top=top)

    def job_status(self, job_id: str,
                   include_result: bool = False) -> Dict[str, Any]:
        """One job's public status (progress, state, optional results)."""
        return self._job_manager().status(job_id,
                                          include_result=include_result)

    def wait_job(self, job_id: str, timeout: Optional[float] = None,
                 poll_seconds: float = 0.02) -> Dict[str, Any]:
        """Block until the job reaches a terminal state (or time out)."""
        return self._job_manager().wait(job_id, timeout=timeout,
                                        poll_seconds=poll_seconds)

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the post-cancel status."""
        return self._job_manager().cancel(job_id)

    def list_jobs(self, dataset: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, Any]]:
        """Recent jobs, newest first."""
        return self._job_manager().list_jobs(dataset, limit)

    def __enter__(self) -> "ExplanationClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
