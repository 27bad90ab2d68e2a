"""The nonzero-pattern IRLS against the dense multi-label oracle.

:func:`repro.missingness.logistic.fit_logistic_multi` assembles its Newton
terms from the design's nonzeros; ``oracles.dense_fit_logistic_multi`` is
the same loop over dense broadcast Hessians.  Only the summation order of
the three design products differs, so every label must take the same
iterations and land on the same coefficients to well below the estimators'
tolerances.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.missingness.logistic import (
    SparseDesign,
    _sigmoid,
    fit_logistic_multi,
    one_hot_encode_codes,
)

COEF_TOL = 1e-9
PROBA_TOL = 1e-12


def assert_matches_dense_oracle(features, labels, row_groups=None, **kwargs):
    ours = fit_logistic_multi(features, labels, row_groups, **kwargs)
    reference = oracles.dense_fit_logistic_multi(features, labels, row_groups,
                                                 **kwargs)
    assert len(ours) == len(reference) == labels.shape[1]
    for mine, theirs in zip(ours, reference):
        assert mine.n_iterations_ == theirs.n_iterations_
        assert mine.converged_ == theirs.converged_
        assert abs(mine.intercept_ - theirs.intercept_) <= COEF_TOL
        np.testing.assert_allclose(mine.coefficients_, theirs.coefficients_,
                                   rtol=0, atol=COEF_TOL)
        np.testing.assert_allclose(mine.predict_proba(features),
                                   theirs.predict_proba(features),
                                   rtol=0, atol=PROBA_TOL)
    return ours


def planted_labels(rng, features, n_labels):
    """0/1 labels drawn from a logistic model over ``features``."""
    weights = rng.normal(0.0, 1.0, (features.shape[1], n_labels))
    logits = features @ weights + rng.normal(0.0, 0.5, n_labels)
    return (rng.random((len(features), n_labels))
            < _sigmoid(logits)).astype(np.float64)


class TestSparseDesign:
    def test_hessians_equal_dense_gram(self):
        rng = np.random.default_rng(0)
        codes = [rng.integers(-1, card, 50) for card in (4, 3, 5)]
        design = np.hstack([np.ones((50, 1)), one_hot_encode_codes(codes)])
        weights = rng.random((50, 3))
        hessians = SparseDesign(design).hessians(weights)
        for label in range(3):
            dense = (design * weights[:, label][:, None]).T @ design
            np.testing.assert_allclose(hessians[label], dense,
                                       rtol=1e-13, atol=0)
            np.testing.assert_array_equal(hessians[label],
                                          hessians[label].T)

    def test_empty_design(self):
        design = SparseDesign(np.zeros((0, 3)))
        assert design.width == 3
        assert design.hessians(np.zeros((0, 2))).shape == (2, 3, 3)
        assert not design.hessians(np.zeros((0, 2))).any()


class TestMatchesDenseOracle:
    @given(seed=st.integers(0, 10_000), n_rows=st.integers(20, 240),
           cards=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           n_labels=st.integers(1, 5),
           grouping=st.sampled_from(["none", "fires", "does_not_fire"]),
           degenerate=st.lists(st.sampled_from([0.0, 1.0]), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_one_hot_designs(self, seed, n_rows, cards, n_labels, grouping,
                             degenerate):
        rng = np.random.default_rng(seed)
        if grouping == "fires":
            # Rows drawn from at most n_rows // 2 distinct combinations.
            base = [rng.integers(-1, card, max(1, n_rows // 3))
                    for card in cards]
            pick = rng.integers(0, len(base[0]), n_rows)
            codes = [column[pick] for column in base]
        else:
            codes = [rng.integers(-1, card, n_rows) for card in cards]
        features = one_hot_encode_codes(codes)
        labels = planted_labels(rng, features, n_labels)
        if degenerate:
            constant = np.repeat(np.array(degenerate)[None, :], n_rows, axis=0)
            labels = np.hstack([constant, labels])[:, rng.permutation(
                n_labels + len(degenerate))]
        row_groups = None
        if grouping == "fires":
            _, row_groups = np.unique(features, axis=0, return_inverse=True)
            row_groups = row_groups.reshape(-1).astype(np.int64)
            assert row_groups.max() + 1 <= n_rows // 2
        elif grouping == "does_not_fire":
            # One group per row: a valid grouping above the n // 2 limit.
            row_groups = np.arange(n_rows)
        models = assert_matches_dense_oracle(features, labels, row_groups)
        for column, model in zip(labels.T, models):
            if column.min() == column.max():
                assert model.n_iterations_ == 0

    @given(seed=st.integers(0, 10_000), n_rows=st.integers(10, 200),
           n_features=st.integers(1, 6), n_labels=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_dense_gaussian_designs(self, seed, n_rows, n_features, n_labels):
        rng = np.random.default_rng(seed)
        features = rng.normal(0.0, 1.0, (n_rows, n_features))
        labels = planted_labels(rng, features, n_labels)
        assert_matches_dense_oracle(features, labels)

    def test_singular_hessian_takes_lstsq_fallback(self, monkeypatch):
        # Two identical large-valued columns and no ridge: the 1e-12
        # diagonal vanishes below their Hessian entries' precision, so the
        # Hessian is exactly singular and solve() must give way to lstsq.
        rng = np.random.default_rng(3)
        signal = rng.integers(0, 2, 200) * 1e4
        features = np.stack([signal, signal, rng.integers(0, 2, 200)],
                            axis=1).astype(np.float64)
        labels = (rng.random((200, 2))
                  < np.where(signal[:, None] > 0, 0.7, 0.3)).astype(float)
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        fit_logistic_multi(features, labels, l2=0.0)
        assert calls
        models = assert_matches_dense_oracle(features, labels, l2=0.0)
        assert all(model.converged_ for model in models)


class TestMemory:
    def test_fit_peak_stays_below_dense_broadcast(self):
        # The dense path's (labels, rows, columns) temporary alone is
        # 44 * 4000 * 69 * 8 bytes ~ 97 MB per Newton iteration.
        rng = np.random.default_rng(11)
        codes = [rng.integers(-1, card, 4000) for card in [11] * 6 + [9]]
        features = one_hot_encode_codes(codes)
        assert features.shape == (4000, 68)
        labels = planted_labels(rng, features, 44)
        tracemalloc.start()
        try:
            models = fit_logistic_multi(features, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(model.converged_ for model in models)
        assert peak < 32 * 2 ** 20
