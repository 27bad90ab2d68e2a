"""Row-sharded data plane: scatter-gather counts, permutations and IRLS.

The serving tier of PR 5 scales on the *user* axis — every cluster worker
holds a full copy of the registered tables and the key space shards across
them.  This package adds the *data* axis: a registered table is split into
contiguous row ranges, each owned by a stateful shard worker process, and
a query's information-theoretic work units fan out as scatter-gather
rounds:

* **counts** — every entropy/MI/CMI term reduces to one weighted
  contingency count over fused codes, and counts are additive over row
  partitions (:func:`repro.infotheory.kernel.accumulate` /
  :func:`~repro.infotheory.kernel.merge_counts` /
  :func:`~repro.infotheory.kernel.finalize`), so each worker returns the
  partial counts of its rows and the coordinator performs one entropy
  step on the merged tensor — an *exact* decomposition, not an
  approximation;
* **permutations** — null distributions are stratified within
  (shard × stratum), a finer and equally valid stratification under the
  permutation null, with each shard consuming its own deterministic RNG
  stream (:func:`repro.utils.rng.derive_seed` over the shard index and
  block index), so verdicts are reproducible for any shard count;
* **IRLS** — the IPW selection fits decompose per Newton step into
  per-shard ``X'WX`` / ``X'(s - p)`` partials, which each shard assembles
  from the nonzeros of its one-hot design slice
  (:class:`repro.missingness.logistic.SparseDesign`, built once per fit);
  the coordinator merges them and runs the same Newton loop as
  :func:`repro.missingness.logistic.fit_logistic_multi`
  (:func:`repro.missingness.logistic.drive_irls`: ridge penalty, solve,
  rebroadcast beta), following the same trajectory up to float summation
  order.

:class:`~repro.distributed.coordinator.ShardPool` owns the worker
processes (reusing the :class:`~repro.serving.cluster.ServiceCluster`
pipe machinery via :mod:`repro.distributed.ipc`);
:class:`~repro.distributed.problem.ShardedExplanationProblem` is the
drop-in :class:`~repro.core.problem.CorrelationExplanationProblem` that
routes its estimates through a pool.  ``ServiceCluster(shard="rows")``
wires the whole stack into the serving tier.
"""

from repro.distributed.coordinator import ShardContext, ShardPool
from repro.distributed.ipc import WorkerDiedError, WorkerFaultError
from repro.distributed.partition import row_ranges
from repro.distributed.problem import ShardedExplanationProblem

__all__ = [
    "ShardContext",
    "ShardPool",
    "ShardedExplanationProblem",
    "WorkerDiedError",
    "WorkerFaultError",
    "row_ranges",
]
