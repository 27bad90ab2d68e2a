"""Reference implementations the production estimation path is checked against.

The engine has one estimation path: the contingency-count kernel, the
blocked permutation engine and the cached multi-label IPW fits.  This module
keeps the computations they replaced, for the tests and for
``benchmarks/bench_perf.py``, whose "before" timings come from here:

* :func:`conditional_independence_test` — the permutation test over the
  row-wise estimators of :mod:`repro.infotheory.mutual_information`;
* :func:`loop_independence_test` — the kernel test with one
  ``contingency_cmi`` per permutation instead of the blocked engine;
* :func:`compute_ipw_weights` — one logistic selection model per attribute,
  each fitted by :func:`dense_logistic_fit`, the single-label Newton loop
  over the dense design;
* :func:`dense_fit_logistic_multi` — the multi-label Newton loop that
  assembled every label's Hessian as a dense broadcast product over the
  full design instead of from its nonzeros;
* :class:`ReferenceExplanationProblem` / :class:`LoopPermutationProblem` —
  problem instances that answer from the row-wise estimators / run the
  per-permutation loop.

:func:`install_reference_estimators` and :func:`install_pre_blocked_inference`
swap them into the engine through a ``monkeypatch`` (pytest's fixture, or
``pytest.MonkeyPatch.context()`` outside a test).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.problem import CorrelationExplanationProblem
from repro.engine import stages
from repro.exceptions import MissingDataError
from repro.infotheory.encoding import EncodedFrame, joint_codes
from repro.infotheory.entropy import conditional_entropy, entropy
from repro.infotheory.independence import DEFAULT_CMI_THRESHOLD, IndependenceResult
from repro.infotheory.kernel import contingency_cmi
from repro.infotheory.mutual_information import (
    conditional_mutual_information,
    mutual_information,
)
from repro.infotheory.permutation import (
    BudgetedSequentialTest,
    PermutationBudget,
    PermutationPlan,
    report_outcome,
    resolve_budget,
    sequential_permutation_test,
)
from repro.missingness import recoverability
from repro.missingness.ipw import IPWWeights
from repro.missingness.logistic import (
    LogisticRegression,
    _sigmoid,
    one_hot_encode_codes,
)
from repro.utils.rng import make_rng


# --------------------------------------------------------------------------- #
# independence tests
# --------------------------------------------------------------------------- #
def _permute_within_strata(x: np.ndarray, strata: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Permute ``x`` independently inside each stratum of ``strata``."""
    permuted = x.copy()
    for stratum in np.unique(strata):
        indices = np.where(strata == stratum)[0]
        if len(indices) > 1:
            permuted[indices] = x[rng.permutation(indices)]
    return permuted


def _shortcut(observed: float, threshold: float,
              dependent_threshold: Optional[float],
              n_permutations: int) -> Optional[IndependenceResult]:
    """The verdicts both tests reach without running permutations."""
    if observed <= threshold:
        return IndependenceResult(independent=True, cmi=observed,
                                  p_value=1.0, n_permutations=0)
    if dependent_threshold is not None and observed >= dependent_threshold:
        return IndependenceResult(independent=False, cmi=observed,
                                  p_value=0.0, n_permutations=0)
    if n_permutations <= 0:
        return IndependenceResult(independent=False, cmi=observed,
                                  p_value=0.0, n_permutations=0)
    return None


def _result(observed: float, outcome, alpha: float) -> IndependenceResult:
    return IndependenceResult(independent=outcome.independent(alpha),
                              cmi=observed,
                              p_value=outcome.p_value,
                              n_permutations=outcome.n_run,
                              early_exit=outcome.verdict is not None,
                              budget_extensions=outcome.extensions)


def conditional_independence_test(x: np.ndarray, y: np.ndarray,
                                  conditioning: Sequence[np.ndarray] = (),
                                  weights: Optional[np.ndarray] = None,
                                  threshold: float = DEFAULT_CMI_THRESHOLD,
                                  n_permutations: int = 30,
                                  alpha: float = 0.05,
                                  dependent_threshold: Optional[float] = None,
                                  seed: Optional[int] = 0,
                                  early_exit: bool = False,
                                  counter_hook=None,
                                  budget: Optional[PermutationBudget] = None,
                                  ) -> IndependenceResult:
    """Row-wise reference for :func:`repro.infotheory.kernel.fast_independence_test`.

    Conditioning variables arrive as separate code arrays; every CMI,
    observed and null, is a :func:`conditional_mutual_information` call.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    conditioning = [np.asarray(codes, dtype=np.int64) for codes in conditioning]
    observed = conditional_mutual_information(x, y, conditioning, weights=weights)
    shortcut = _shortcut(observed, threshold, dependent_threshold, n_permutations)
    if shortcut is not None:
        return shortcut
    budget = resolve_budget(budget, early_exit)
    rng = make_rng(seed)
    strata = joint_codes(conditioning) if conditioning else np.zeros(len(x), dtype=np.int64)
    outcome = sequential_permutation_test(
        x, PermutationPlan(strata), rng, observed, n_permutations, alpha,
        lambda permuted: conditional_mutual_information(
            permuted, y, conditioning, weights=weights),
        budget=budget)
    report_outcome(counter_hook, outcome, n_permutations, budget)
    return _result(observed, outcome, alpha)


def loop_independence_test(x: np.ndarray, y: np.ndarray,
                           z: Optional[np.ndarray] = None,
                           n_z: Optional[int] = None,
                           weights: Optional[np.ndarray] = None,
                           threshold: float = DEFAULT_CMI_THRESHOLD,
                           n_permutations: int = 30,
                           alpha: float = 0.05,
                           dependent_threshold: Optional[float] = None,
                           seed: Optional[int] = 0,
                           early_exit: bool = False,
                           counter_hook=None,
                           budget: Optional[PermutationBudget] = None,
                           ) -> IndependenceResult:
    """:func:`~repro.infotheory.kernel.fast_independence_test` without blocking.

    Same arguments and RNG stream, but each permutation is drawn by
    :func:`_permute_within_strata` and scored by its own
    :func:`contingency_cmi` call, all under the same budgeted sequential
    decision.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    observed = contingency_cmi(x, y, z, n_z=n_z, weights=weights)
    shortcut = _shortcut(observed, threshold, dependent_threshold, n_permutations)
    if shortcut is not None:
        return shortcut
    budget = resolve_budget(budget, early_exit)
    rng = make_rng(seed)
    strata = z if z is not None else np.zeros(len(x), dtype=np.int64)
    state = BudgetedSequentialTest(n_permutations, alpha, budget)
    verdict = None
    while state.want_more:
        permuted = _permute_within_strata(x, strata, rng)
        null_cmi = contingency_cmi(permuted, y, z, n_z=n_z, weights=weights)
        verdict = state.update(null_cmi >= observed)
        if verdict is not None:
            break
    outcome = state.outcome(verdict, state.done)
    report_outcome(counter_hook, outcome, n_permutations, budget)
    return _result(observed, outcome, alpha)


def reference_recoverability_test(x: np.ndarray, y: np.ndarray,
                                  z: Optional[np.ndarray] = None,
                                  n_z: Optional[int] = None,
                                  **kwargs) -> IndependenceResult:
    """The recoverability tests' call shape over the row-wise reference test."""
    return conditional_independence_test(x, y, [] if z is None else [z], **kwargs)


# --------------------------------------------------------------------------- #
# IPW selection fits
# --------------------------------------------------------------------------- #
def dense_logistic_fit(features: np.ndarray, labels: np.ndarray,
                       row_groups: Optional[np.ndarray] = None,
                       l2: float = 1e-3, max_iter: int = 50,
                       tol: float = 1e-8) -> LogisticRegression:
    """One label's IRLS fit on the dense design (the pre-batching loop).

    Same grouping rule, degenerate fallback and convergence test as
    :func:`repro.missingness.logistic.fit_logistic_multi`; the Hessian is
    the dense ``(X * w)^T X`` product.
    """
    model = LogisticRegression(l2=l2, max_iter=max_iter, tol=tol)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2:
        raise MissingDataError(f"features must be 2-dimensional, got shape {features.shape}")
    if len(features) != len(labels):
        raise MissingDataError(
            f"features ({len(features)} rows) and labels ({len(labels)}) differ in length"
        )
    if not np.isin(labels, (0.0, 1.0)).all():
        raise MissingDataError("labels must be binary (0/1)")
    n_rows, n_features = features.shape
    design = np.hstack([np.ones((n_rows, 1)), features])
    beta = np.zeros(n_features + 1)
    penalty = np.full(n_features + 1, l2)
    penalty[0] = 0.0  # do not penalise the intercept

    # Degenerate labels (all 0 or all 1) have no unique MLE; fall back to
    # the intercept-only model at the empirical rate.
    if labels.min() == labels.max():
        rate = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
        beta[0] = np.log(rate / (1 - rate))
        model._store(beta, converged=True, iterations=0)
        return model

    totals = np.ones(n_rows)
    successes = labels
    if row_groups is not None:
        row_groups = np.asarray(row_groups, dtype=np.int64)
        if len(row_groups) != n_rows:
            raise MissingDataError(
                f"row_groups ({len(row_groups)} rows) and features "
                f"({n_rows}) differ in length")
        n_groups = int(row_groups.max()) + 1 if n_rows else 0
        if 0 < n_groups <= n_rows // 2:
            # First-occurrence representative of each group (O(n)).
            representatives = np.zeros(n_groups, dtype=np.int64)
            representatives[row_groups[::-1]] = np.arange(n_rows - 1, -1, -1)
            design = design[representatives]
            totals = np.bincount(row_groups, minlength=n_groups).astype(np.float64)
            successes = np.bincount(row_groups, weights=labels, minlength=n_groups)

    for iteration in range(1, max_iter + 1):
        linear = design @ beta
        probabilities = np.clip(_sigmoid(linear), 1e-9, 1 - 1e-9)
        weights = totals * probabilities * (1.0 - probabilities)
        gradient = design.T @ (successes - totals * probabilities) - penalty * beta
        hessian = (design * weights[:, None]).T @ design + np.diag(penalty + 1e-12)
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, gradient, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            model._store(beta, converged=True, iterations=iteration)
            return model
    model._store(beta, converged=False, iterations=max_iter)
    return model


def dense_fit_logistic_multi(features: np.ndarray, labels_matrix: np.ndarray,
                             row_groups: Optional[np.ndarray] = None,
                             l2: float = 1e-3, max_iter: int = 50,
                             tol: float = 1e-8) -> List[LogisticRegression]:
    """:func:`repro.missingness.logistic.fit_logistic_multi` with dense Hessians.

    Every label's ``X^T diag(w_l) X`` is one GEMM in a stacked ``matmul``
    over a stride-0 broadcast of the design, materialising an ``(L, n, d)``
    weighted copy per iteration.
    """
    features = np.asarray(features, dtype=np.float64)
    labels_matrix = np.asarray(labels_matrix, dtype=np.float64)
    if features.ndim != 2:
        raise MissingDataError(f"features must be 2-dimensional, got shape {features.shape}")
    if labels_matrix.ndim != 2:
        raise MissingDataError(
            f"labels_matrix must be 2-dimensional, got shape {labels_matrix.shape}")
    if len(features) != len(labels_matrix):
        raise MissingDataError(
            f"features ({len(features)} rows) and labels_matrix "
            f"({len(labels_matrix)}) differ in length")
    if not np.isin(labels_matrix, (0.0, 1.0)).all():
        raise MissingDataError("labels must be binary (0/1)")
    n_rows, n_features = features.shape
    n_labels = labels_matrix.shape[1]
    models = [LogisticRegression(l2=l2, max_iter=max_iter, tol=tol)
              for _ in range(n_labels)]
    if n_labels == 0:
        return models
    design = np.hstack([np.ones((n_rows, 1)), features])
    penalty = np.full(n_features + 1, l2)
    penalty[0] = 0.0
    beta = np.zeros((n_features + 1, n_labels))

    active: List[int] = []
    for label in range(n_labels):
        column = labels_matrix[:, label]
        if n_rows == 0 or column.min() == column.max():
            rate = float(np.clip(column.mean() if n_rows else 0.5, 1e-6, 1 - 1e-6))
            frozen = np.zeros(n_features + 1)
            frozen[0] = np.log(rate / (1 - rate))
            models[label]._store(frozen, converged=True, iterations=0)
            beta[:, label] = frozen
        else:
            active.append(label)
    active_idx = np.array(active, dtype=np.int64)

    totals = np.ones(n_rows)
    successes = labels_matrix
    if row_groups is not None and len(active_idx):
        row_groups = np.asarray(row_groups, dtype=np.int64)
        if len(row_groups) != n_rows:
            raise MissingDataError(
                f"row_groups ({len(row_groups)} rows) and features "
                f"({n_rows}) differ in length")
        n_groups = int(row_groups.max()) + 1 if n_rows else 0
        if 0 < n_groups <= n_rows // 2:
            representatives = np.zeros(n_groups, dtype=np.int64)
            representatives[row_groups[::-1]] = np.arange(n_rows - 1, -1, -1)
            design = design[representatives]
            totals = np.bincount(row_groups, minlength=n_groups).astype(np.float64)
            successes = np.stack(
                [np.bincount(row_groups, weights=labels_matrix[:, label],
                             minlength=n_groups)
                 for label in range(n_labels)], axis=1)

    for iteration in range(1, max_iter + 1):
        if not len(active_idx):
            break
        current = beta[:, active_idx]
        linear = design @ current
        probabilities = np.clip(_sigmoid(linear), 1e-9, 1 - 1e-9)
        weights = totals[:, None] * probabilities * (1.0 - probabilities)
        gradients = design.T @ (successes[:, active_idx]
                                - totals[:, None] * probabilities) \
            - penalty[:, None] * current
        # Batched X^T diag(w_l) X via stacked GEMMs: (A, d, n) @ (A, n, d).
        weighted = design[None, :, :] * weights.T[:, :, None]
        hessians = np.matmul(
            np.broadcast_to(design.T, (len(active_idx),) + design.T.shape),
            weighted)
        hessians += np.diag(penalty + 1e-12)[None, :, :]
        try:
            steps = np.linalg.solve(hessians, gradients.T[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            steps = np.empty((len(active_idx), n_features + 1))
            for position in range(len(active_idx)):
                try:
                    steps[position] = np.linalg.solve(
                        hessians[position], gradients[:, position])
                except np.linalg.LinAlgError:
                    steps[position] = np.linalg.lstsq(
                        hessians[position], gradients[:, position], rcond=None)[0]
        updated = current + steps.T
        beta[:, active_idx] = updated
        converged_now = np.abs(steps).max(axis=1) < tol
        for position in np.flatnonzero(converged_now):
            label = int(active_idx[position])
            models[label]._store(beta[:, label], converged=True,
                                 iterations=iteration)
        active_idx = active_idx[~converged_now]
    for label in active_idx:
        models[int(label)]._store(beta[:, int(label)], converged=False,
                                  iterations=max_iter)
    return models


def compute_ipw_weights(frame: EncodedFrame, attribute: str,
                        predictor_columns: Sequence[str],
                        clip: float = 10.0,
                        l2: float = 1e-3,
                        features: Optional[np.ndarray] = None,
                        row_groups: Optional[np.ndarray] = None) -> IPWWeights:
    """IPW weights for one attribute from its own logistic selection model.

    The per-attribute reference for
    :func:`repro.missingness.fitcache.compute_ipw_weights_batched`:
    observed rows get ``P(R=1) / P(R=1 | X)`` clipped to ``clip``; missing
    rows and degenerate attributes keep weight 1.
    """
    if clip <= 0:
        raise MissingDataError(f"clip must be positive, got {clip}")
    observed = frame.observed_mask(attribute)
    n_rows = frame.n_rows
    selection_rate = float(observed.mean()) if n_rows else 0.0
    weights = np.ones(n_rows, dtype=np.float64)
    if n_rows == 0 or selection_rate in (0.0, 1.0) or not predictor_columns:
        return IPWWeights(attribute=attribute, weights=weights,
                          selection_rate=selection_rate, model_converged=True)
    if features is None:
        features = one_hot_encode_codes([frame.codes(column) for column in predictor_columns])
    model = dense_logistic_fit(features, observed.astype(np.float64),
                               row_groups=row_groups, l2=l2)
    predicted = np.clip(model.predict_proba(features), 1e-3, 1.0)
    raw = np.clip(selection_rate / predicted, 0.0, clip)
    weights[observed] = raw[observed]
    return IPWWeights(attribute=attribute, weights=weights,
                      selection_rate=selection_rate, model_converged=model.converged_)


def fit_selection_models_per_attribute(problem, biased: Sequence[str],
                                       predictors: Sequence[str],
                                       context) -> Dict[str, IPWWeights]:
    """``SelectionBiasStage._fit_selection_models`` without cache or batching.

    Every biased attribute fits its own model over the shared design.
    """
    features = row_groups = None
    if predictors:
        codes = [problem.frame.codes(column) for column in predictors]
        features = one_hot_encode_codes(codes)
        row_groups = stages._predictor_row_groups(codes)
    return {attribute: compute_ipw_weights(problem.frame, attribute, predictors,
                                           features=features, row_groups=row_groups)
            for attribute in biased}


# --------------------------------------------------------------------------- #
# problem instances
# --------------------------------------------------------------------------- #
class _OracleProblem(CorrelationExplanationProblem):
    """Derived problems keep the oracle's class."""

    def restricted_to(self, mask: np.ndarray) -> "_OracleProblem":
        restricted = super().restricted_to(mask)
        restricted.__class__ = type(self)
        return restricted

    def subset_candidates(self, candidates) -> "_OracleProblem":
        clone = super().subset_candidates(candidates)
        clone.__class__ = type(self)
        return clone


class ReferenceExplanationProblem(_OracleProblem):
    """Every estimate from the row-wise reference estimators."""

    def cmi(self, conditioning: Sequence[str] = ()) -> float:
        key = tuple(sorted(conditioning))
        if key not in self._cmi_cache:
            self._cmi_cache[key] = conditional_mutual_information(
                self.frame.codes(self.outcome),
                self.frame.codes(self.exposure),
                [self.frame.codes(attribute, missing_as_category=True)
                 for attribute in key],
                weights=self._weights_for(key),
            )
        return self._cmi_cache[key]

    def score_candidates(self, attributes: Sequence[str],
                         given: Sequence[str] = ()) -> Dict[str, float]:
        given = tuple(given)
        return {attribute: self.cmi(given if attribute in given
                                    else given + (attribute,))
                for attribute in attributes}

    def pairwise_mi(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        if key not in self._mi_cache:
            self._mi_cache[key] = mutual_information(
                self.frame.codes(a, missing_as_category=True),
                self.frame.codes(b, missing_as_category=True),
                weights=self._weights_for([a, b]),
            )
        return self._mi_cache[key]

    def entropy_of(self, attribute: str) -> float:
        if attribute not in self._entropy_cache:
            self._entropy_cache[attribute] = entropy(self.frame.codes(attribute))
        return self._entropy_cache[attribute]

    def conditional_entropy_of(self, target: str, given: Sequence[str]) -> float:
        return conditional_entropy(self.frame.codes(target),
                                   [self.frame.codes(g) for g in given])

    def _independence_test(self, a, b, conditioning, weights, **kwargs):
        return conditional_independence_test(
            self.frame.codes(a), self.frame.codes(b),
            [self.frame.codes(c) for c in conditioning],
            weights=weights, counter_hook=self.counter_hook,
            budget=self.permutation_budget, **kwargs)


class LoopPermutationProblem(_OracleProblem):
    """Kernel estimates, but permutation tests run one permutation at a time."""

    def _independence_test(self, a, b, conditioning, weights, **kwargs):
        fused, card = self._joint_for(tuple(conditioning), plain=True)
        if not conditioning:
            fused, card = None, None
        return loop_independence_test(
            self.frame.codes(a), self.frame.codes(b), fused, n_z=card,
            weights=weights, counter_hook=self.counter_hook,
            budget=self.permutation_budget, **kwargs)


# --------------------------------------------------------------------------- #
# engine wiring
# --------------------------------------------------------------------------- #
def install_reference_estimators(monkeypatch) -> None:
    """Run the engine's estimates and tests on the row-wise estimators."""
    monkeypatch.setattr(stages, "CorrelationExplanationProblem",
                        ReferenceExplanationProblem)
    monkeypatch.setattr(recoverability, "fast_independence_test",
                        reference_recoverability_test)


def install_pre_blocked_inference(monkeypatch) -> None:
    """Run permutation tests as a per-permutation loop and IPW fits per attribute."""
    monkeypatch.setattr(stages, "CorrelationExplanationProblem",
                        LoopPermutationProblem)
    monkeypatch.setattr(stages.SelectionBiasStage, "_fit_selection_models",
                        staticmethod(fit_selection_models_per_attribute))
