"""Property tests: the contingency-count kernel matches the reference estimators.

Every estimate the fast kernel produces — entropy, conditional entropy, MI,
CMI, and independence-test verdicts — must agree with the reference
implementations in :mod:`repro.infotheory.entropy` /
:mod:`repro.infotheory.mutual_information` and the reference permutation
test in ``oracles`` to 1e-9, including:

* IPW ``weights`` (non-negative, possibly zero for some rows);
* ``-1`` missing codes in any involved variable;
* ``missing_as_category`` strata (the remapped codes MESA conditions on);
* both estimators (``plugin`` and ``miller_madow``);
* fused multi-variable conditioning sets (vs. ``joint_codes``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.infotheory import kernel
from repro.infotheory.encoding import joint_codes
from repro.infotheory.entropy import conditional_entropy, entropy
from repro.infotheory.kernel import (
    code_cardinality,
    compact_codes,
    contingency_cmi,
    contingency_conditional_entropy,
    contingency_entropy,
    contingency_mi,
    fast_independence_test,
    fuse_codes,
    joint_fused,
)
from repro.infotheory.mutual_information import (
    conditional_mutual_information,
    mutual_information,
)

from oracles import _permute_within_strata, conditional_independence_test

TOL = 1e-9

estimators = st.sampled_from(["plugin", "miller_madow"])


@st.composite
def coded_columns(draw, n_columns=2, max_value=4, min_size=2, max_size=120,
                  allow_missing=True):
    """``n_columns`` aligned code arrays with optional -1 missing codes."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    low = -1 if allow_missing else 0
    columns = [np.array(draw(st.lists(st.integers(low, max_value),
                                      min_size=n, max_size=n)))
               for _ in range(n_columns)]
    return columns


@st.composite
def weight_arrays(draw, n):
    """Non-negative weights, including exact zeros and None."""
    if draw(st.booleans()):
        return None
    values = draw(st.lists(
        st.one_of(st.just(0.0),
                  st.floats(0.0, 10.0, allow_nan=False, allow_subnormal=False)),
        min_size=n, max_size=n))
    return np.array(values)


def missing_as_category(codes: np.ndarray) -> np.ndarray:
    """The EncodedFrame conditioning representation: -1 -> extra category."""
    remapped = codes.copy()
    if (remapped < 0).any():
        remapped[remapped < 0] = codes.max() + 1 if codes.max() >= 0 else 0
    return remapped


class TestEntropyMatchesReference:
    @given(data=st.data(), estimator=estimators)
    @settings(max_examples=80, deadline=None)
    def test_entropy(self, data, estimator):
        (codes,) = data.draw(coded_columns(n_columns=1))
        weights = data.draw(weight_arrays(len(codes)))
        expected = entropy(codes, weights=weights, estimator=estimator)
        actual = contingency_entropy(codes, weights=weights, estimator=estimator)
        assert actual == pytest.approx(expected, abs=TOL)

    @given(data=st.data(), estimator=estimators)
    @settings(max_examples=80, deadline=None)
    def test_conditional_entropy_single(self, data, estimator):
        target, given_codes = data.draw(coded_columns(n_columns=2))
        weights = data.draw(weight_arrays(len(target)))
        expected = conditional_entropy(target, [given_codes], weights=weights,
                                       estimator=estimator)
        actual = contingency_conditional_entropy(
            target, given_codes, n_given=code_cardinality(given_codes),
            weights=weights, estimator=estimator)
        assert actual == pytest.approx(expected, abs=TOL)

    @given(data=st.data(), estimator=estimators)
    @settings(max_examples=60, deadline=None)
    def test_conditional_entropy_fused_pair(self, data, estimator):
        target, g1, g2 = data.draw(coded_columns(n_columns=3))
        weights = data.draw(weight_arrays(len(target)))
        expected = conditional_entropy(target, [g1, g2], weights=weights,
                                       estimator=estimator)
        fused, card = joint_fused([g1, g2])
        actual = contingency_conditional_entropy(target, fused, n_given=card,
                                                 weights=weights, estimator=estimator)
        assert actual == pytest.approx(expected, abs=TOL)


class TestMutualInformationMatchesReference:
    @given(data=st.data(), estimator=estimators)
    @settings(max_examples=80, deadline=None)
    def test_mi(self, data, estimator):
        x, y = data.draw(coded_columns(n_columns=2))
        weights = data.draw(weight_arrays(len(x)))
        expected = mutual_information(x, y, weights=weights, estimator=estimator)
        actual = contingency_mi(x, y, weights=weights, estimator=estimator)
        assert actual == pytest.approx(expected, abs=TOL)

    @given(data=st.data(), estimator=estimators)
    @settings(max_examples=80, deadline=None)
    def test_mi_missing_as_category_strata(self, data, estimator):
        # MESA conditions on missing-as-category codes; the kernel must
        # agree on that representation too.
        x, y = data.draw(coded_columns(n_columns=2))
        x, y = missing_as_category(x), missing_as_category(y)
        weights = data.draw(weight_arrays(len(x)))
        expected = mutual_information(x, y, weights=weights, estimator=estimator)
        actual = contingency_mi(x, y, weights=weights, estimator=estimator)
        assert actual == pytest.approx(expected, abs=TOL)


class TestCMIMatchesReference:
    @given(data=st.data(), estimator=estimators)
    @settings(max_examples=80, deadline=None)
    def test_cmi_single_conditioning(self, data, estimator):
        x, y, z = data.draw(coded_columns(n_columns=3))
        weights = data.draw(weight_arrays(len(x)))
        expected = conditional_mutual_information(x, y, [z], weights=weights,
                                                  estimator=estimator)
        actual = contingency_cmi(x, y, z, n_z=code_cardinality(z),
                                 weights=weights, estimator=estimator)
        assert actual == pytest.approx(expected, abs=TOL)

    @given(data=st.data(), estimator=estimators)
    @settings(max_examples=60, deadline=None)
    def test_cmi_fused_conditioning_pair(self, data, estimator):
        x, y, z1, z2 = data.draw(coded_columns(n_columns=4))
        weights = data.draw(weight_arrays(len(x)))
        expected = conditional_mutual_information(x, y, [z1, z2], weights=weights,
                                                  estimator=estimator)
        fused, card = joint_fused([z1, z2])
        actual = contingency_cmi(x, y, fused, n_z=card, weights=weights,
                                 estimator=estimator)
        assert actual == pytest.approx(expected, abs=TOL)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cmi_missing_as_category_conditioning(self, data):
        # The oracle's exact shape: raw outcome/exposure codes, conditioning
        # remapped to missing-as-category strata.
        x, y, z1, z2 = data.draw(coded_columns(n_columns=4))
        z1, z2 = missing_as_category(z1), missing_as_category(z2)
        weights = data.draw(weight_arrays(len(x)))
        expected = conditional_mutual_information(x, y, [z1, z2], weights=weights)
        fused, card = joint_fused([z1, z2])
        actual = contingency_cmi(x, y, fused, n_z=card, weights=weights)
        assert actual == pytest.approx(expected, abs=TOL)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cmi_empty_conditioning_is_mi(self, data):
        x, y = data.draw(coded_columns(n_columns=2))
        assert contingency_cmi(x, y, None) == pytest.approx(
            mutual_information(x, y), abs=TOL)


class TestDenseCountFallback:
    """Code spaces too wide for a dense count defer to the row-wise estimators.

    This fallback is why :mod:`repro.infotheory.entropy` and
    :mod:`repro.infotheory.mutual_information` are production code.
    """

    @pytest.fixture()
    def fallback_calls(self, monkeypatch):
        monkeypatch.setattr(kernel, "DENSE_CELL_LIMIT", 4)
        calls = []
        for name in ("conditional_mutual_information", "conditional_entropy"):
            def spy(*args, _original=getattr(kernel, name), _name=name,
                    **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(kernel, name, spy)
        return calls

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_missing_codes_match_reference(self, fallback_calls, seed):
        rng = np.random.default_rng(seed)
        n = 200
        x = rng.integers(-1, 5, n)
        y = rng.integers(-1, 4, n)
        z = rng.integers(-1, 3, n)
        weights = rng.uniform(0.0, 3.0, n)
        assert contingency_cmi(x, y, z, weights=weights) == pytest.approx(
            conditional_mutual_information(x, y, [z], weights=weights), abs=1e-12)
        assert contingency_mi(x, y, weights=weights) == pytest.approx(
            mutual_information(x, y, weights=weights), abs=1e-12)
        assert contingency_conditional_entropy(x, z, weights=weights) == \
            pytest.approx(conditional_entropy(x, [z], weights=weights), abs=1e-12)
        assert fallback_calls == ["conditional_mutual_information"] * 2 \
            + ["conditional_entropy"]


class TestJointCoding:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fuse_matches_joint_codes_partition_and_order(self, data):
        a, b = data.draw(coded_columns(n_columns=2))
        reference = joint_codes([a, b])
        fused, card = fuse_codes(a, code_cardinality(a), b, code_cardinality(b))
        compacted, n_groups = compact_codes(fused)
        # Compacted place-value codes must reproduce joint_codes exactly:
        # same partition, same (lexicographic) label order, same missing rows.
        assert np.array_equal(compacted, reference)
        present = reference[reference >= 0]
        assert n_groups == (len(set(present.tolist())) if present.size else 1)
        assert card >= n_groups

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_incremental_fuse_associative_partition(self, data):
        a, b, c = data.draw(coded_columns(n_columns=3))
        left, _ = joint_fused([a, b, c])
        reference = joint_codes([a, b, c])
        compacted, _ = compact_codes(left)
        assert np.array_equal(compacted, reference)


class TestIndependenceMatchesReference:
    # The p-value tests are derandomized: a permutation whose contingency
    # table is a symmetric relabelling of the observed one ties the null
    # statistic with the observed *in exact arithmetic*, and a ±1e-16
    # summation difference then counts the tie differently in the two
    # implementations.  That knife-edge is inherent to permutation tests
    # (production thresholds sit nowhere near it); fixed examples keep CI
    # deterministic while the alignment test below pins the exact property.
    @given(data=st.data(),
           n_permutations=st.sampled_from([0, 10, 20]),
           seed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_same_verdict_p_value_and_rng(self, data, n_permutations, seed):
        x, y, z = data.draw(coded_columns(n_columns=3, max_size=60))
        weights = data.draw(weight_arrays(len(x)))
        expected = conditional_independence_test(
            x, y, [z], weights=weights, threshold=0.01,
            n_permutations=n_permutations, seed=seed)
        actual = fast_independence_test(
            x, y, z, n_z=code_cardinality(z), weights=weights, threshold=0.01,
            n_permutations=n_permutations, seed=seed)
        assert actual.independent == expected.independent
        assert actual.p_value == pytest.approx(expected.p_value, abs=TOL)
        assert actual.n_permutations == expected.n_permutations
        assert actual.cmi == pytest.approx(expected.cmi, abs=TOL)

    @given(data=st.data(), seed=st.integers(0, 3))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_multi_conditioning_verdicts(self, data, seed):
        x, y, z1, z2 = data.draw(coded_columns(n_columns=4, max_size=60))
        expected = conditional_independence_test(
            x, y, [z1, z2], threshold=0.01, n_permutations=20, seed=seed)
        fused, card = joint_fused([z1, z2])
        actual = fast_independence_test(
            x, y, fused, n_z=card, threshold=0.01, n_permutations=20, seed=seed)
        assert actual.independent == expected.independent
        assert actual.p_value == pytest.approx(expected.p_value, abs=TOL)

    @given(data=st.data(), seed=st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_fused_strata_consume_rng_identically(self, data, seed):
        # The exact alignment property behind the p-value equalities: fused
        # conditioning codes must drive ``_permute_within_strata`` to the
        # *identical* permutation stream as the reference ``joint_codes``
        # strata, in caller attribute order (same partition, same sorted
        # stratum iteration, same per-stratum index arrays).
        from repro.utils.rng import make_rng

        x, z1, z2 = data.draw(coded_columns(n_columns=3, max_size=60))
        reference_strata = joint_codes([z1, z2])
        fused, _ = joint_fused([z1, z2])
        for _ in range(3):
            expected = _permute_within_strata(x, reference_strata, make_rng(seed))
            actual = _permute_within_strata(x, fused, make_rng(seed))
            assert np.array_equal(expected, actual)
