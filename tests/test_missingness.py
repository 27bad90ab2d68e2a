"""Unit tests for missing-data handling: injectors, imputation, logistic, IPW, recoverability."""

import numpy as np
import pytest

from repro.exceptions import MissingDataError
from repro.infotheory.encoding import encode_table
from repro.missingness.imputation import complete_cases, impute_mean, impute_mode
from repro.missingness.fitcache import compute_ipw_weights_batched
from repro.missingness.logistic import LogisticRegression, one_hot_encode_codes
from repro.missingness.patterns import inject_biased_removal, inject_mcar
from repro.missingness.recoverability import attribute_selection_bias, mi_is_recoverable
from repro.table.table import Table


@pytest.fixture()
def numeric_table() -> Table:
    rng = np.random.default_rng(0)
    values = rng.normal(50, 10, size=200).round(2)
    group = ["A" if v > 50 else "B" for v in values]
    return Table.from_columns({"value": list(values), "group": group,
                               "outcome": list((values * 2 + rng.normal(0, 1, 200)).round(2))})


class TestInjectors:
    def test_mcar_removes_requested_fraction(self, numeric_table):
        injected = inject_mcar(numeric_table, ["value"], fraction=0.3, seed=1)
        assert injected.column("value").missing_count() == 60

    def test_mcar_counts_only_present_cells(self, numeric_table):
        once = inject_mcar(numeric_table, ["value"], fraction=0.5, seed=1)
        twice = inject_mcar(once, ["value"], fraction=0.5, seed=2)
        assert twice.column("value").missing_count() == 150

    def test_biased_removal_drops_top_values(self, numeric_table):
        injected = inject_biased_removal(numeric_table, ["value"], fraction=0.25)
        remaining = injected.column("value").non_missing_values()
        removed_threshold = sorted(numeric_table.column("value").to_list(), reverse=True)[49]
        assert max(remaining) <= removed_threshold

    def test_invalid_fraction_raises(self, numeric_table):
        with pytest.raises(MissingDataError):
            inject_mcar(numeric_table, ["value"], fraction=1.5)


class TestImputation:
    def test_impute_mean(self, numeric_table):
        injected = inject_mcar(numeric_table, ["value"], fraction=0.4, seed=3)
        imputed = impute_mean(injected, ["value"])
        assert imputed.column("value").missing_count() == 0

    def test_impute_mode_for_categorical(self, numeric_table):
        injected = inject_mcar(numeric_table, ["group"], fraction=0.4, seed=4)
        imputed = impute_mode(injected, ["group"])
        assert imputed.column("group").missing_count() == 0
        assert set(imputed.column("group").unique()) <= {"A", "B"}

    def test_complete_cases(self, numeric_table):
        injected = inject_mcar(numeric_table, ["value"], fraction=0.2, seed=5)
        restricted = complete_cases(injected, ["value"])
        assert restricted.n_rows == 160
        assert restricted.column("value").missing_count() == 0


class TestLogisticRegression:
    def test_learns_separable_problem(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(500, 2))
        labels = (features[:, 0] + 0.5 * features[:, 1] > 0).astype(float)
        model = LogisticRegression().fit(features, labels)
        accuracy = (model.predict(features) == labels).mean()
        assert accuracy > 0.95
        assert model.converged_

    def test_degenerate_labels(self):
        model = LogisticRegression().fit(np.zeros((10, 1)), np.ones(10))
        assert model.predict_proba(np.zeros((3, 1))).min() > 0.9

    def test_input_validation(self):
        with pytest.raises(MissingDataError):
            LogisticRegression().fit(np.zeros((3, 1)), np.array([0.0, 1.0]))
        with pytest.raises(MissingDataError):
            LogisticRegression().fit(np.zeros((2, 1)), np.array([0.0, 2.0]))
        with pytest.raises(MissingDataError):
            LogisticRegression().predict_proba(np.zeros((2, 1)))

    def test_one_hot_encoding(self):
        features = one_hot_encode_codes([np.array([0, 1, 2, -1]), np.array([0, 0, 1, 1])])
        assert features.shape == (4, 3)   # (3-1) + (2-1) columns
        assert features[3, :2].sum() == 0  # missing code -> all-zero block


class TestIPW:
    def test_weights_cover_all_rows(self, numeric_table):
        injected = inject_biased_removal(numeric_table, ["value"], fraction=0.3)
        frame = encode_table(injected)
        weights = compute_ipw_weights_batched(frame, ["value"], ["group"])["value"]
        assert len(weights.weights) == injected.n_rows
        assert (weights.weights > 0).all()
        assert weights.selection_rate == pytest.approx(0.7)
        assert weights.effective_sample_size() > 0

    def test_upweights_underrepresented_groups(self, numeric_table):
        # Remove values preferentially in group A, then check group-A rows
        # that survive get larger weights than group-B rows.
        table = numeric_table
        mask = [(g == "A" and i % 2 == 0) for i, g in enumerate(table.column("group").to_list())]
        injected = table.with_column(table.column("value").with_missing(mask))
        frame = encode_table(injected)
        weights = compute_ipw_weights_batched(frame, ["value"], ["group"])["value"]
        groups = np.array(table.column("group").to_list())
        observed = frame.observed_mask("value")
        mean_a = weights.weights[(groups == "A") & observed].mean()
        mean_b = weights.weights[(groups == "B") & observed].mean()
        assert mean_a > mean_b

    def test_no_missing_gives_unit_weights(self, numeric_table):
        frame = encode_table(numeric_table)
        weights = compute_ipw_weights_batched(frame, ["value"], ["group"])["value"]
        assert np.allclose(weights.weights, 1.0)

    def test_invalid_clip_raises(self, numeric_table):
        frame = encode_table(numeric_table)
        with pytest.raises(MissingDataError):
            compute_ipw_weights_batched(frame, ["value"], ["group"], clip=0.0)


class TestRecoverability:
    def test_mcar_attribute_is_recoverable(self, numeric_table):
        injected = inject_mcar(numeric_table, ["value"], fraction=0.3, seed=7)
        frame = encode_table(injected)
        report = attribute_selection_bias(frame, "outcome", "group", "value",
                                          n_permutations=30)
        assert not report.selection_bias

    def test_biased_removal_is_detected(self, numeric_table):
        injected = inject_biased_removal(numeric_table, ["value"], fraction=0.4)
        frame = encode_table(injected)
        report = attribute_selection_bias(frame, "outcome", "group", "value",
                                          n_permutations=0)
        assert report.selection_bias
        assert report.missing_fraction == pytest.approx(0.4)

    def test_fully_observed_attribute_is_trivially_recoverable(self, numeric_table):
        frame = encode_table(numeric_table)
        report = attribute_selection_bias(frame, "outcome", "group", "value")
        assert report.cmi_recoverable and not report.selection_bias

    def test_pairwise_recoverability(self, numeric_table):
        injected = inject_mcar(numeric_table, ["value"], fraction=0.2, seed=8)
        frame = encode_table(injected)
        verdicts = mi_is_recoverable(frame, "value", "group", n_permutations=20)
        assert verdicts["recoverable"]
