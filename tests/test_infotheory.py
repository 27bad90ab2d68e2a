"""Unit tests for the information-theoretic estimators."""

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.infotheory.encoding import encode_table, joint_codes
from repro.infotheory.entropy import conditional_entropy, entropy, joint_entropy
from repro.infotheory.kernel import code_cardinality, fast_independence_test
from repro.infotheory.mutual_information import (
    conditional_mutual_information, interaction_information, mutual_information,
)
from repro.table.table import Table


class TestEntropy:
    def test_uniform_coin(self):
        assert entropy(np.array([0, 1, 0, 1])) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert entropy(np.array([3, 3, 3])) == 0.0

    def test_missing_rows_dropped(self):
        assert entropy(np.array([0, 1, -1, -1])) == pytest.approx(1.0)

    def test_weights_change_distribution(self):
        codes = np.array([0, 1])
        weighted = entropy(codes, weights=np.array([3.0, 1.0]))
        assert weighted < 1.0

    def test_negative_weights_raise(self):
        with pytest.raises(EstimationError):
            entropy(np.array([0, 1]), weights=np.array([1.0, -1.0]))

    def test_miller_madow_is_larger(self):
        codes = np.array([0, 1, 2, 3, 0, 1])
        assert entropy(codes, estimator="miller_madow") > entropy(codes, estimator="plugin")

    def test_unknown_estimator_raises(self):
        with pytest.raises(EstimationError):
            entropy(np.array([0, 1]), estimator="bogus")

    def test_joint_entropy_of_independent_vars_adds(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=5000)
        y = rng.integers(0, 2, size=5000)
        assert joint_entropy([x, y]) == pytest.approx(entropy(x) + entropy(y), abs=0.02)

    def test_conditional_entropy_of_copy_is_zero(self):
        x = np.array([0, 1, 1, 0, 1, 0])
        assert conditional_entropy(x, [x]) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_entropy_empty_conditioning(self):
        x = np.array([0, 1, 0, 1])
        assert conditional_entropy(x, []) == pytest.approx(entropy(x))


class TestJointCodes:
    def test_distinct_tuples_get_distinct_codes(self):
        joint = joint_codes([np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])])
        assert len(set(joint.tolist())) == 4

    def test_missing_propagates(self):
        joint = joint_codes([np.array([0, -1]), np.array([1, 1])])
        assert joint[1] == -1

    def test_length_mismatch_raises(self):
        with pytest.raises(EstimationError):
            joint_codes([np.array([0]), np.array([0, 1])])

    def test_empty_list_raises(self):
        with pytest.raises(EstimationError):
            joint_codes([])


class TestMutualInformation:
    def test_identical_variables(self):
        x = np.array([0, 1, 2, 0, 1, 2] * 10)
        assert mutual_information(x, x) == pytest.approx(entropy(x))

    def test_independent_variables_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 3, size=8000)
        y = rng.integers(0, 3, size=8000)
        assert mutual_information(x, y) < 0.01

    def test_cmi_removes_confounder(self):
        # z drives both x and y: I(x;y) > 0 but I(x;y|z) ~ 0.
        rng = np.random.default_rng(2)
        z = rng.integers(0, 2, size=6000)
        x = (z + (rng.random(6000) < 0.1)) % 2
        y = (z + (rng.random(6000) < 0.1)) % 2
        assert mutual_information(x, y) > 0.25
        assert conditional_mutual_information(x, y, [z]) < 0.05

    def test_cmi_with_empty_conditioning_is_mi(self):
        x = np.array([0, 1, 0, 1, 1, 0])
        y = np.array([0, 1, 1, 1, 0, 0])
        assert conditional_mutual_information(x, y, []) == pytest.approx(
            mutual_information(x, y))

    def test_interaction_information_sign(self):
        rng = np.random.default_rng(3)
        z = rng.integers(0, 2, size=6000)
        x = (z + (rng.random(6000) < 0.05)) % 2
        y = (z + (rng.random(6000) < 0.05)) % 2
        # Positive interaction: conditioning on z explains the x-y dependence.
        assert interaction_information(x, y, z) > 0.3

    def test_xor_has_negative_interaction(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=6000)
        z = rng.integers(0, 2, size=6000)
        y = x ^ z
        assert interaction_information(x, y, z) < -0.5


class TestIndependenceTest:
    def test_independent_variables_accepted(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, size=2000)
        y = rng.integers(0, 3, size=2000)
        result = fast_independence_test(x, y)
        assert result.independent

    def test_dependent_variables_rejected(self):
        x = np.array([0, 1] * 500)
        y = x.copy()
        result = fast_independence_test(x, y, n_permutations=20)
        assert not result.independent
        assert result.p_value <= 0.05

    def test_conditionally_independent_given_z(self):
        rng = np.random.default_rng(6)
        z = rng.integers(0, 2, size=3000)
        x = (z + (rng.random(3000) < 0.2)) % 2
        y = (z + (rng.random(3000) < 0.2)) % 2
        result = fast_independence_test(x, y, z, n_z=code_cardinality(z),
                                        n_permutations=30)
        assert result.independent


class TestEncodedFrame:
    def test_codes_cached_and_binned(self, people_table):
        frame = encode_table(people_table, n_bins=2)
        salary_codes = frame.codes("Salary")
        assert salary_codes.max() <= 1
        assert frame.codes("Salary") is frame.codes("Salary")  # cached object

    def test_missing_as_category(self, people_table):
        frame = encode_table(people_table)
        plain = frame.codes("Country")
        augmented = frame.codes("Country", missing_as_category=True)
        assert (plain == -1).sum() == 1
        assert (augmented == -1).sum() == 0
        assert augmented.max() == plain.max() + 1

    def test_observed_mask(self, people_table):
        frame = encode_table(people_table)
        assert frame.observed_mask("Country").sum() == 5

    def test_joint_of_empty_set_is_constant(self, people_table):
        frame = encode_table(people_table)
        assert set(frame.joint([]).tolist()) == {0}

    def test_restrict_slices_cache(self, people_table):
        frame = encode_table(people_table)
        frame.codes("Country")
        restricted = frame.restrict(np.array([True, True, False, False, False, False]))
        assert restricted.n_rows == 2
        assert len(restricted.codes("Country")) == 2

    def test_restrict_length_mismatch_raises(self, people_table):
        frame = encode_table(people_table)
        with pytest.raises(EstimationError):
            frame.restrict(np.array([True]))
