"""Every worker process comes from one pool and goes when its owner closes.

The serving cluster (both sharding axes), the row-shard pool and the
process batch backend all run their workers on
:class:`repro.distributed.ipc.WorkerPool`; these tests check what each
owner leaves behind and that both cluster modes report health alike.
"""

import multiprocessing

import pytest

from repro.distributed.coordinator import ShardPool
from repro.engine import ExplanationPipeline
from repro.mesa.config import MESAConfig
from repro.serving.cluster import ServiceCluster


def _config(bundle, **overrides) -> MESAConfig:
    return MESAConfig(excluded_columns=bundle.id_columns, **overrides)


@pytest.mark.parametrize("shard", ["keys", "rows"])
def test_cluster_health_per_worker_and_close_reaps(covid_bundle, shard):
    cluster = ServiceCluster(n_workers=2, shard=shard, restart_warm_top=0)
    cluster.register_bundle(covid_bundle, config=_config(covid_bundle),
                            warm=False)
    with cluster:
        cluster.explain(covid_bundle.name, covid_bundle.queries[0].query, k=3)
        health = cluster.health()
    assert set(health) == {"status", "datasets", "mode", "shard",
                           "workers_alive", "n_workers", "workers"}
    assert health["status"] == "ok"
    assert health["shard"] == shard
    assert health["workers"] == {"0": {"alive": True, "restarts": 0},
                                 "1": {"alive": True, "restarts": 0}}
    assert multiprocessing.active_children() == []


def test_shard_pool_close_reaps():
    pool = ShardPool(n_shards=2).start()
    assert pool.stats()["pool"]["n_shards"] == 2
    pool.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_process_batch_reaps(covid_bundle, start_method):
    from repro.engine.parallel import explain_many_forked

    pipeline = ExplanationPipeline(
        covid_bundle.table, covid_bundle.knowledge_graph,
        covid_bundle.extraction_specs, config=_config(covid_bundle))
    queries = [entry.query for entry in covid_bundle.queries]
    envelopes = explain_many_forked(pipeline, queries, 3, 2,
                                    start_method=start_method)
    assert all(envelope is not None for envelope in envelopes)
    assert multiprocessing.active_children() == []
