"""Tests for the row-sharded data plane (:mod:`repro.distributed`).

The distributed tier must be *exact*, not approximate: partial counts
summed over any row partition equal the whole-table counts, the global
two-phase compaction induces the single-process relabelling, distributed
IRLS follows the same Newton trajectory as the local multi-label solver,
and a pipeline running over a :class:`~repro.distributed.coordinator.
ShardPool` produces the same explanations as the single-process engine.

One deliberate exception: permutation tests draw *different but equally
valid* null permutations per shard layout (shard ``s`` consumes its own
deterministic RNG stream), so verdicts are reproducible for a fixed shard
count but may flip across shard counts when the observed CMI sits exactly
on the acceptance boundary.  The equality tests below therefore use
workloads whose verdicts are stable across the shard counts exercised.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.coordinator import ShardPool
from repro.distributed.partition import row_ranges
from repro.engine import ExplanationPipeline, get_explainer
from repro.exceptions import ConfigurationError
from repro.infotheory.kernel import (
    accumulate,
    cmi_counts,
    cmi_from_counts,
    code_cardinality,
    conditional_entropy_from_counts,
    contingency_cmi,
    contingency_conditional_entropy,
    contingency_entropy,
    finalize,
    joint_counts,
    merge_counts,
)
from repro.infotheory.permutation import PermutationBudget
from repro.mesa.config import MESAConfig
from repro.missingness.logistic import fit_logistic_multi, one_hot_encode_codes
from repro.serving.client import HTTPClient, LocalClient
from repro.serving.cluster import ServiceCluster
from repro.serving.service import ExplanationService

TOL = 1e-9
IRLS_TOL = 1e-7


# --------------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------------- #
@st.composite
def partitioned_codes(draw, n_columns=1, max_value=4, min_size=2,
                      max_size=120, with_weights=True):
    """Aligned code arrays (with -1 missing), a row partition, weights."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    columns = [np.array(draw(st.lists(st.integers(-1, max_value),
                                      min_size=n, max_size=n)))
               for _ in range(n_columns)]
    n_cuts = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(draw(st.lists(st.integers(0, n),
                                min_size=n_cuts, max_size=n_cuts)))
    bounds = [0] + cuts + [n]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    weights = None
    if with_weights and draw(st.booleans()):
        # Exact zeros are in scope; subnormals are not (they underflow to
        # probability zero identically in both code paths, but trip noisy
        # log(0) warnings on the way).
        weights = np.array(draw(st.lists(
            st.one_of(st.just(0.0),
                      st.floats(1e-3, 8.0, allow_nan=False,
                                allow_infinity=False)),
            min_size=n, max_size=n)))
    return columns, ranges, weights


def _slice(array, start, stop):
    return None if array is None else array[start:stop]


class TestPartialCountContract:
    """Summed per-slice partials equal the whole-table estimates."""

    @given(partitioned_codes(n_columns=1))
    @settings(max_examples=80, deadline=None)
    def test_entropy_partition_sum(self, case):
        (codes,), ranges, weights = case
        parts = [accumulate(_slice(codes, a, b), _slice(weights, a, b))
                 for a, b in ranges]
        merged = merge_counts(parts)
        assert finalize(merged) == pytest.approx(
            contingency_entropy(codes, weights=weights), abs=TOL)
        assert finalize(merged, estimator="miller_madow") == pytest.approx(
            contingency_entropy(codes, weights=weights,
                                estimator="miller_madow"), abs=TOL)

    @given(partitioned_codes(n_columns=3))
    @settings(max_examples=80, deadline=None)
    def test_cmi_partition_sum(self, case):
        (x, y, z), ranges, weights = case
        n_x, n_y, n_z = (code_cardinality(c) for c in (x, y, z))
        total = np.zeros((n_z, n_y, n_x))
        for a, b in ranges:
            total += cmi_counts(x[a:b], y[a:b], z[a:b],
                                n_x=n_x, n_y=n_y, n_z=n_z,
                                weights=_slice(weights, a, b))
        assert cmi_from_counts(total) == pytest.approx(
            contingency_cmi(x, y, z, n_z=n_z, weights=weights), abs=TOL)

    @given(partitioned_codes(n_columns=2))
    @settings(max_examples=80, deadline=None)
    def test_conditional_entropy_partition_sum(self, case):
        (target, given_codes), ranges, weights = case
        n_target = code_cardinality(target)
        n_given = code_cardinality(given_codes)
        total = np.zeros((n_given, n_target))
        for a, b in ranges:
            total += joint_counts(target[a:b], given_codes[a:b],
                                  n_target=n_target, n_given=n_given,
                                  weights=_slice(weights, a, b))
        assert conditional_entropy_from_counts(total) == pytest.approx(
            contingency_conditional_entropy(target, given_codes,
                                            n_given=n_given, weights=weights),
            abs=TOL)

    @given(partitioned_codes(n_columns=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_padding_cells_are_harmless(self, case):
        """Global (unmasked) cardinalities only add zero cells."""
        (codes,), ranges, weights = case
        padded = [accumulate(_slice(codes, a, b), _slice(weights, a, b),
                             minlength=32) for a, b in ranges]
        assert finalize(merge_counts(padded)) == pytest.approx(
            contingency_entropy(codes, weights=weights), abs=TOL)


class TestRowRanges:
    def test_covers_every_row_contiguously(self):
        for n_rows, n_shards in [(10, 3), (7, 7), (100, 4), (5, 8), (0, 2)]:
            ranges = row_ranges(n_rows, n_shards)
            assert len(ranges) == n_shards
            assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert start == stop

    def test_balanced_within_one_row(self):
        sizes = [stop - start for start, stop in row_ranges(103, 4)]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_rows_leaves_empty_ranges(self):
        ranges = row_ranges(2, 5)
        assert sum(stop - start for start, stop in ranges) == 2
        assert all(stop >= start for start, stop in ranges)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            row_ranges(-1, 2)
        with pytest.raises(ConfigurationError):
            row_ranges(10, 0)


# --------------------------------------------------------------------------- #
# live shard pool
# --------------------------------------------------------------------------- #
N_ROWS = 400


@pytest.fixture(scope="module")
def shard_data():
    rng = np.random.default_rng(11)
    columns = {
        "p:x": rng.integers(0, 3, N_ROWS),
        "p:y": rng.integers(0, 4, N_ROWS),
        "p:z": rng.integers(-1, 3, N_ROWS),  # includes missing codes
        "w:x": rng.uniform(0.1, 2.0, N_ROWS),
    }
    return columns


@pytest.fixture(scope="module")
def pool(shard_data):
    with ShardPool(n_shards=3) as pool:
        yield pool


@pytest.fixture(scope="module")
def pool_ctx(pool):
    return pool.context_handle("t", 0, 1, 8, "ctx0", N_ROWS)


class TestShardPool:
    def test_counts_match_local(self, pool, pool_ctx, shard_data):
        x, y, z = shard_data["p:x"], shard_data["p:y"], shard_data["p:z"]
        n_x, n_y, n_z = (code_cardinality(c) for c in (x, y, z))
        jobs = [
            {"kind": "cmi", "x": [("col", "p:x")], "y": [("col", "p:y")],
             "z": [("col", "p:z")], "n_x": n_x, "n_y": n_y, "n_z": n_z},
            {"kind": "cmi", "x": [("col", "p:x")], "y": [("col", "p:y")],
             "z": None, "n_x": n_x, "n_y": n_y, "n_z": 1,
             "weights": ["w:x"]},
            {"kind": "entropy", "codes": [("col", "p:y")], "minlength": n_y},
            {"kind": "joint", "target": [("col", "p:x")],
             "given": [("col", "p:y")], "n_target": n_x, "n_given": n_y},
        ]
        merged = pool.counts(pool_ctx, jobs, provider=shard_data.__getitem__)
        assert cmi_from_counts(merged[0].reshape(n_z, n_y, n_x)) == \
            pytest.approx(contingency_cmi(x, y, z, n_z=n_z), abs=TOL)
        assert cmi_from_counts(merged[1].reshape(1, n_y, n_x)) == \
            pytest.approx(contingency_cmi(x, y, weights=shard_data["w:x"]),
                          abs=TOL)
        assert finalize(merged[2]) == pytest.approx(
            contingency_entropy(y), abs=TOL)
        assert conditional_entropy_from_counts(
            merged[3].reshape(n_y, n_x)) == pytest.approx(
            contingency_conditional_entropy(x, y, n_given=n_y), abs=TOL)

    def test_global_compaction_matches_local_labels(self, pool, pool_ctx,
                                                    shard_data):
        # Fuse x and y into a sparse space, then compact globally: counts
        # over the relabelled codes must match the dense local bincount.
        from repro.infotheory.kernel import compact_codes, fuse_codes

        x, y = shard_data["p:x"], shard_data["p:y"]
        fused, _ = fuse_codes(x.astype(np.int64), 0,
                              y.astype(np.int64), 97)  # deliberately sparse
        steps = [("col", "p:x"), ("fuse", "p:y", 97)]
        token, card = pool.compact(pool_ctx, steps,
                                   provider=shard_data.__getitem__)
        local_compact, local_card = compact_codes(fused)
        assert card == local_card
        merged = pool.counts(
            pool_ctx,
            [{"kind": "entropy", "codes": steps + [("relabel", token)],
              "minlength": card}],
            provider=shard_data.__getitem__)[0]
        local_counts = np.bincount(local_compact[local_compact >= 0],
                                   minlength=local_card)
        np.testing.assert_allclose(merged, local_counts, atol=0)

    def test_permutation_rounds_deterministic(self, shard_data):
        """Same seed + same shard count => identical permutation verdicts."""
        results = []
        for _ in range(2):
            with ShardPool(n_shards=3) as fresh:
                ctx = fresh.context_handle("t", 0, 1, 8, "ctx0", N_ROWS)
                results.append(fresh.permutation_rounds(
                    ctx, x=[("col", "p:x")], y=[("col", "p:y")], z=None,
                    n_x=3, n_y=4, n_z=1, weights=None,
                    observed=0.01, n_permutations=40, alpha=0.05,
                    seed=7, budget=PermutationBudget(),
                    provider=shard_data.__getitem__))
        assert results[0] == results[1]
        exceed, n_run, verdict, computed = results[0]
        assert n_run == 40 and computed == 40 and verdict is None
        assert 0 <= exceed <= 40

    @pytest.mark.parametrize("observed", [0.0, 0.005, 0.02, 1.0])
    def test_early_exit_never_flips_full_run_verdict(self, shard_data,
                                                     observed):
        """Chunk-aligned RNG streams: the early-exit ramp changes only how
        many permutations each round requests, never which permutations are
        drawn, so the sequential verdict must agree with the full run's
        threshold decision — the same guarantee the local blocked driver
        gives."""
        alpha = 0.05
        results = {}
        for early_exit in (False, True):
            with ShardPool(n_shards=3) as fresh:
                ctx = fresh.context_handle("t", 0, 1, 8, "ctx0", N_ROWS)
                results[early_exit] = fresh.permutation_rounds(
                    ctx, x=[("col", "p:x")], y=[("col", "p:y")], z=None,
                    n_x=3, n_y=4, n_z=1, weights=None,
                    observed=observed, n_permutations=100, alpha=alpha,
                    seed=13, budget=PermutationBudget(early_exit=early_exit),
                    provider=shard_data.__getitem__)
        full_exceed, full_run, _, _ = results[False]
        exceed, n_run, verdict, computed = results[True]
        full_independent = (full_exceed + 1) / (full_run + 1) > alpha
        early_independent = verdict if verdict is not None else \
            (exceed + 1) / (n_run + 1) > alpha
        assert early_independent == full_independent
        assert computed <= 100
        # The early run's exceedances are a prefix count of the full run's
        # null sequence: identical when it happens to run to completion.
        if n_run == full_run:
            assert exceed == full_exceed

    def test_worker_restart_heals_and_retries(self, shard_data):
        with ShardPool(n_shards=2) as fresh:
            ctx = fresh.context_handle("t", 0, 1, 8, "ctx0", N_ROWS)
            job = {"kind": "entropy", "codes": [("col", "p:x")],
                   "minlength": 3}
            before = fresh.counts(ctx, [job],
                                  provider=shard_data.__getitem__)[0]
            fresh._handles[0].process.kill()
            fresh._handles[0].process.join()
            after = fresh.counts(ctx, [job],
                                 provider=shard_data.__getitem__)[0]
            np.testing.assert_allclose(after, before, atol=0)
            assert fresh.worker_restarts >= 1

    def test_stats_report_shard_roles_and_residency(self, pool, pool_ctx,
                                                    shard_data):
        pool.counts(pool_ctx, [{"kind": "entropy",
                                "codes": [("col", "p:x")], "minlength": 3}],
                    provider=shard_data.__getitem__)
        snapshot = pool.stats()
        assert snapshot["pool"]["n_shards"] == 3
        sizes = []
        for worker in snapshot["workers"].values():
            assert worker["role"] == "row-shard"
            sizes.append(worker["resident_rows"])
            assert worker["maxrss_kb"] >= 0
        # Contiguous near-equal ranges: every shard holds O(rows/N) rows.
        assert sum(sizes) == N_ROWS
        assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------------- #
# distributed IRLS
# --------------------------------------------------------------------------- #
class TestDistributedIRLS:
    def _case(self, n_rows=300, seed=5, degenerate=False):
        rng = np.random.default_rng(seed)
        codes = {"p:a": rng.integers(0, 3, n_rows),
                 "p:b": rng.integers(0, 4, n_rows)}
        cards = [3, 4]
        logits = (0.8 * (codes["p:a"] == 1) - 1.1 * (codes["p:b"] == 2)
                  + 0.3)
        labels = (rng.uniform(size=(n_rows, 3))
                  < (1 / (1 + np.exp(-logits)))[:, None]).astype(float)
        if degenerate:
            labels[:, 1] = 0.0  # all-negative label column
        return codes, cards, labels

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_matches_local_multi_label_fit(self, degenerate):
        codes, cards, labels = self._case(degenerate=degenerate)
        features = one_hot_encode_codes(
            [codes["p:a"], codes["p:b"]], cards=cards)
        local = fit_logistic_multi(features, labels)
        with ShardPool(n_shards=3) as pool:
            ctx = pool.context_handle("fit", 0, 1, 8, "ctx0", len(labels))
            distributed = pool.fit_logistic_multi(
                ctx, ["p:a", "p:b"], cards, labels,
                provider=codes.__getitem__)
        assert len(distributed) == len(local)
        for ours, reference in zip(distributed, local):
            assert ours.converged_ == reference.converged_
            assert ours.n_iterations_ == reference.n_iterations_
            assert ours.intercept_ == pytest.approx(reference.intercept_,
                                                    abs=IRLS_TOL)
            np.testing.assert_allclose(ours.coefficients_,
                                       reference.coefficients_, atol=IRLS_TOL)

    def test_single_shard_equals_local(self):
        codes, cards, labels = self._case(n_rows=120, seed=9)
        features = one_hot_encode_codes(
            [codes["p:a"], codes["p:b"]], cards=cards)
        local = fit_logistic_multi(features, labels)
        with ShardPool(n_shards=1) as pool:
            ctx = pool.context_handle("fit", 0, 1, 8, "ctx0", len(labels))
            distributed = pool.fit_logistic_multi(
                ctx, ["p:a", "p:b"], cards, labels,
                provider=codes.__getitem__)
        for ours, reference in zip(distributed, local):
            np.testing.assert_allclose(ours.coefficients_,
                                       reference.coefficients_, atol=IRLS_TOL)


# --------------------------------------------------------------------------- #
# full-pipeline equality: sharded engine vs. single-process engine
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def covid_pipelines(covid_bundle):
    config = MESAConfig(excluded_columns=covid_bundle.id_columns)
    plain = ExplanationPipeline(
        covid_bundle.table, covid_bundle.knowledge_graph,
        covid_bundle.extraction_specs, config=config)
    sharded = ExplanationPipeline(
        covid_bundle.table, covid_bundle.knowledge_graph,
        covid_bundle.extraction_specs, config=config)
    with ShardPool(n_shards=3) as pool:
        sharded.context.shard_pool = pool
        sharded.context.shard_label = covid_bundle.name
        yield plain, sharded, pool


class TestShardedPipelineEquality:
    def _assert_equal(self, ours, reference):
        assert ours.attributes == reference.attributes
        assert ours.explainability == pytest.approx(
            reference.explainability, abs=TOL)
        assert ours.responsibilities == pytest.approx(
            reference.responsibilities, abs=TOL)

    @pytest.mark.parametrize("query_index", [0, 2])
    def test_explain_matches_single_process(self, covid_pipelines,
                                            covid_bundle, query_index):
        plain, sharded, pool = covid_pipelines
        query = covid_bundle.queries[query_index].query
        reference = plain.explain(query, k=3)
        ours = sharded.explain(query, k=3)
        self._assert_equal(ours.explanation, reference.explanation)
        assert ours.pruning.kept == reference.pruning.kept
        assert sorted(ours.ipw_weights) == sorted(reference.ipw_weights)
        assert pool.requests > 0  # the data plane actually served the run

    @pytest.mark.parametrize("name", ["mesa", "mesa_minus", "brute_force",
                                      "top_k", "linear_regression", "hypdb",
                                      "cajade"])
    def test_every_explainer_matches(self, covid_pipelines, covid_bundle,
                                     name):
        plain, sharded, _ = covid_pipelines
        query = covid_bundle.queries[0].query
        reference = plain.run_explainer(get_explainer(name), query, k=3)
        ours = sharded.run_explainer(get_explainer(name), query, k=3)
        self._assert_equal(ours, reference)


# --------------------------------------------------------------------------- #
# rows-mode serving cluster
# --------------------------------------------------------------------------- #
class TestRowsModeCluster:
    def test_explain_stats_and_health(self, so_bundle):
        config = MESAConfig(excluded_columns=so_bundle.id_columns)
        query = so_bundle.queries[0].query

        service = ExplanationService(coalesce_window_seconds=0.0)
        service.register_bundle(so_bundle, config=config, warm=False)
        with LocalClient(service) as local:
            reference = local.explain(so_bundle.name, query, k=3)

        cluster = ServiceCluster(n_workers=3, shard="rows")
        cluster.register_bundle(so_bundle, config=config, warm=False)
        try:
            cluster.start()
            served = cluster.explain(so_bundle.name, query, k=3)
            ours = served.envelope.explanation
            theirs = reference.envelope.explanation
            assert ours.attributes == theirs.attributes
            assert ours.explainability == pytest.approx(
                theirs.explainability, abs=TOL)

            snapshot = cluster.stats()
            assert snapshot["shard"] == "rows"
            assert snapshot["cluster"]["workers_alive"] == 3
            resident = 0
            for worker in snapshot["workers"].values():
                assert worker["role"] == "row-shard"
                resident += worker["resident_rows"]
            # One context resident: each worker holds only its row range.
            assert resident == so_bundle.table.n_rows
            assert cluster.health()["status"] == "ok"
        finally:
            cluster.close()

    def test_keys_mode_stats_report_replicas(self, covid_bundle):
        cluster = ServiceCluster(n_workers=2, shard="keys")
        cluster.register_bundle(
            covid_bundle,
            config=MESAConfig(excluded_columns=covid_bundle.id_columns),
            warm=False)
        try:
            cluster.start()
            snapshot = cluster.stats()
            assert snapshot["shard"] == "keys"
            for worker in snapshot["workers"].values():
                assert worker["role"] == "replica"
                # Replicas hold the *whole* table, not a slice.
                assert worker["resident_rows"] == covid_bundle.table.n_rows
        finally:
            cluster.close()

    def test_rows_mode_requires_valid_axis(self):
        with pytest.raises(ConfigurationError):
            ServiceCluster(n_workers=2, shard="columns")


# --------------------------------------------------------------------------- #
# HTTP keep-alive
# --------------------------------------------------------------------------- #
def _json_server(handler_class):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler_class)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class TestHTTPClientKeepAlive:
    def test_connection_is_reused_across_requests(self):
        seen_ports = set()
        counter = {"requests": 0}

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                counter["requests"] += 1
                seen_ports.add(self.client_address[1])
                body = json.dumps({"status": "ok"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = _json_server(Handler)
        host, port = server.server_address[:2]
        try:
            with HTTPClient(f"http://{host}:{port}") as client:
                for _ in range(5):
                    assert client.health()["status"] == "ok"
                assert client.stale_retries == 0
            assert counter["requests"] == 5
            assert len(seen_ports) == 1  # one socket served every request
        finally:
            server.shutdown()
            server.server_close()

    def test_stale_socket_retried_exactly_once(self):
        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                body = json.dumps({"status": "ok"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                # Silently drop the socket after every reply — the client
                # discovers the staleness only on its next reuse attempt.
                self.wfile.flush()
                self.connection.close()
                self.close_connection = True

            def log_message(self, *args):
                pass

        server = _json_server(Handler)
        host, port = server.server_address[:2]
        try:
            with HTTPClient(f"http://{host}:{port}") as client:
                for _ in range(4):
                    assert client.health()["status"] == "ok"
                # Request 1 opens fresh; each later request finds the
                # kept-alive socket dead and retries once on a new one.
                assert client.stale_retries == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_fresh_connection_failure_is_not_retried(self):
        # Nothing listens here: the very first request fails and must
        # surface immediately (no stale-socket retry for new sockets).
        server = ThreadingHTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
        host, port = server.server_address[:2]
        server.server_close()  # free the port without ever serving
        client = HTTPClient(f"http://{host}:{port}", timeout=2.0)
        with pytest.raises(OSError):
            client.stats()
        assert client.stale_retries == 0

    def test_rejects_non_http_urls(self):
        from repro.exceptions import RequestValidationError

        with pytest.raises(RequestValidationError):
            HTTPClient("ftp://example.org")
