"""Binary logistic regression, implemented from scratch with numpy.

The IPW correction fits a logistic model of the selection indicator
``R_E`` (is the extracted value present for this row?) on the fully observed
attributes of the input dataset (Section 3.2: "a logistic regression model is
fitted ... Data available for this are the values of the attributes in D").
No external ML library is available offline, so the model is implemented
here with L2-regularised Newton/IRLS optimisation.

The selection design is a one-hot encoding of a few categorical attributes
plus the intercept, so a row has at most one nonzero per attribute: a
handful of nonzeros across tens of columns.  The Newton terms are assembled
from that nonzero pattern only (:class:`SparseDesign`), so an iteration
costs ``O(n k^2)`` per label for ``k`` nonzeros per row instead of the
``O(n d^2)`` of a dense Gram product over ``d`` columns.
:func:`drive_irls` is the one Newton loop: :func:`fit_logistic_multi` runs
it on whole-table partials (:func:`logistic_partials`), the row-sharded
data plane (:mod:`repro.distributed`) on partials merged across shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import MissingDataError


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``1 / (1 + e^-z)`` for ``z >= 0`` and ``e^z / (1 + e^z)`` below, both
    from the one ``e^-|z|``, so no branch overflows.
    """
    exp_z = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, exp_z) / (1.0 + exp_z)


@dataclass
class LogisticRegression:
    """L2-regularised binary logistic regression fitted with IRLS.

    Parameters
    ----------
    l2:
        Ridge penalty on the weights (not on the intercept); a small penalty
        keeps the Newton updates stable when features are collinear, which
        happens routinely with one-hot encoded categorical attributes.
    max_iter:
        Maximum number of Newton iterations.
    tol:
        Convergence tolerance on the change of the coefficient vector.
    """

    l2: float = 1e-3
    max_iter: int = 50
    tol: float = 1e-8
    coefficients_: Optional[np.ndarray] = field(default=None, repr=False)
    intercept_: float = 0.0
    converged_: bool = False
    n_iterations_: int = 0

    def fit(self, features: np.ndarray, labels: np.ndarray,
            row_groups: Optional[np.ndarray] = None) -> "LogisticRegression":
        """Fit the model on a feature matrix and 0/1 labels.

        The one-label case of :func:`fit_logistic_multi`, which documents
        ``row_groups`` (the binomial collapse of duplicate rows).
        """
        labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        fitted = fit_logistic_multi(features, labels, row_groups, l2=self.l2,
                                    max_iter=self.max_iter, tol=self.tol)[0]
        self.intercept_ = fitted.intercept_
        self.coefficients_ = fitted.coefficients_
        self.converged_ = fitted.converged_
        self.n_iterations_ = fitted.n_iterations_
        return self

    def _store(self, beta: np.ndarray, converged: bool, iterations: int) -> None:
        self.intercept_ = float(beta[0])
        self.coefficients_ = beta[1:].copy()
        self.converged_ = converged
        self.n_iterations_ = iterations

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row."""
        if self.coefficients_ is None:
            raise MissingDataError("LogisticRegression.predict_proba called before fit")
        features = np.asarray(features, dtype=np.float64)
        return _sigmoid(self.intercept_ + features @ self.coefficients_)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)


class SparseDesign:
    """An intercept-augmented design matrix, reached only through its nonzeros.

    Built once per fit.  ``matrix`` (CSR, ``(n, d)``) evaluates the linear
    predictors ``X @ beta`` and its transpose the gradients ``X^T r``.
    ``pairs`` is the ``(d * d, n)`` pair operator: row ``i`` adds
    ``X[i, a] * X[i, b]`` to cell ``a * d + b`` for each pair ``a <= b`` of
    its nonzero columns, so ``pairs @ W`` is the upper triangle of
    ``X^T diag(W[:, l]) X`` for every column ``l`` of ``W`` in one sparse x
    dense product.  With ``k`` nonzeros per row that costs ``n k (k + 1) / 2``
    multiply-adds per label, independent of ``d``.
    """

    def __init__(self, design: np.ndarray):
        matrix = sparse.csr_matrix(np.asarray(design, dtype=np.float64))
        n_rows, width = matrix.shape
        counts = np.diff(matrix.indptr)
        # Each row's nonzeros left-aligned in ``slots`` columns; CSR keeps
        # them in ascending column order, so slot p <= q means a <= b.
        slots = int(counts.max()) if n_rows else 0
        rows = np.repeat(np.arange(n_rows), counts)
        offsets = np.arange(matrix.nnz) - matrix.indptr[rows]
        columns = np.zeros((n_rows, slots), dtype=np.int64)
        values = np.zeros((n_rows, slots))
        columns[rows, offsets] = matrix.indices
        values[rows, offsets] = matrix.data
        first, second = np.triu_indices(slots)
        present = second[None, :] < counts[:, None]
        cells = (columns[:, first] * width + columns[:, second])[present]
        products = (values[:, first] * values[:, second])[present]
        pair_rows = np.repeat(np.arange(n_rows), counts * (counts + 1) // 2)
        self.width = width
        self.matrix = matrix
        self.pairs = sparse.csr_matrix((products, (cells, pair_rows)),
                                       shape=(width * width, n_rows))
        self._below = np.tril_indices(width, -1)

    def hessians(self, weights: np.ndarray) -> np.ndarray:
        """``X^T diag(weights[:, l]) X`` for every column ``l``: ``(L, d, d)``."""
        hessians = np.ascontiguousarray(
            (self.pairs @ weights).T).reshape(-1, self.width, self.width)
        lower, upper = self._below
        hessians[:, lower, upper] = hessians[:, upper, lower]
        return hessians


def logistic_partials(design: SparseDesign, successes: np.ndarray,
                      beta: np.ndarray, totals: Optional[np.ndarray] = None,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Unpenalised Newton partials: gradients and Hessians.

    ``design`` covers some rows of the intercept-augmented design,
    ``successes`` is their ``(n, L)`` label slice, ``beta`` the current
    ``(d, L)`` coefficients and ``totals`` the binomial trials per row (one
    each when omitted, i.e. rows not collapsed into groups).  Returns
    ``(gradients, hessians)`` of shapes ``(d, L)`` and ``(L, d, d)``: the
    ``X^T (s - t p)`` and ``X^T diag(t p (1 - p)) X`` terms, with no
    penalty (:func:`drive_irls` applies it once).  Both terms are sums over
    rows, so the partials of a row partition, merged, equal the
    whole-table terms up to float summation order.
    """
    successes = np.asarray(successes, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if totals is None:
        totals = np.ones(len(successes))
    probabilities = np.clip(_sigmoid(design.matrix @ beta), 1e-9, 1 - 1e-9)
    weights = totals[:, None] * probabilities * (1.0 - probabilities)
    gradients = design.matrix.T @ (successes - totals[:, None] * probabilities)
    return gradients, design.hessians(weights)


#: ``step(beta_active, active_idx) -> (gradients, hessians)`` — the
#: unpenalised partials of shapes ``(d, A)`` and ``(A, d, d)``.
StepFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def drive_irls(step: StepFn, labels_matrix: np.ndarray, n_coefficients: int,
               l2: float = 1e-3, max_iter: int = 50,
               tol: float = 1e-8) -> List[LogisticRegression]:
    """The multi-label Newton loop, over partials computed by ``step``.

    Iterates ``beta += solve(X' W X + diag(penalty), X'(s - p) - penalty *
    beta)`` for every still-active label at once, with one batched
    ``np.linalg.solve`` over the stacked ``(A, d, d)`` Hessians (per label
    ``solve``, then ``lstsq``, when a Hessian is singular).
    ``labels_matrix`` is the full ``(n, L)`` 0/1 label matrix: degenerate
    labels (all 0 or all 1) get the intercept-only model at their
    empirical rate without consuming a ``step``, and a label whose largest
    step falls below ``tol`` is frozen while the loop continues with the
    rest.  ``n_coefficients`` is the design width *including* the
    intercept.
    """
    labels_matrix = np.asarray(labels_matrix, dtype=np.float64)
    if labels_matrix.ndim != 2:
        raise MissingDataError(
            f"labels_matrix must be 2-dimensional, got shape "
            f"{labels_matrix.shape}")
    if not np.isin(labels_matrix, (0.0, 1.0)).all():
        raise MissingDataError("labels must be binary (0/1)")
    n_rows, n_labels = labels_matrix.shape
    models = [LogisticRegression(l2=l2, max_iter=max_iter, tol=tol)
              for _ in range(n_labels)]
    if n_labels == 0:
        return models
    penalty = np.full(n_coefficients, l2)
    penalty[0] = 0.0  # do not penalise the intercept
    beta = np.zeros((n_coefficients, n_labels))

    active: List[int] = []
    for label in range(n_labels):
        column = labels_matrix[:, label]
        if n_rows == 0 or column.min() == column.max():
            rate = float(np.clip(column.mean() if n_rows else 0.5,
                                 1e-6, 1 - 1e-6))
            frozen = np.zeros(n_coefficients)
            frozen[0] = np.log(rate / (1 - rate))
            models[label]._store(frozen, converged=True, iterations=0)
            beta[:, label] = frozen
        else:
            active.append(label)
    active_idx = np.array(active, dtype=np.int64)

    for iteration in range(1, max_iter + 1):
        if not len(active_idx):
            break
        current = beta[:, active_idx]
        gradients, hessians = step(current, active_idx)
        gradients = np.asarray(gradients, dtype=np.float64) \
            - penalty[:, None] * current
        hessians = np.asarray(hessians, dtype=np.float64) \
            + np.diag(penalty + 1e-12)[None, :, :]
        try:
            steps = np.linalg.solve(hessians, gradients.T[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            steps = np.empty((len(active_idx), n_coefficients))
            for position in range(len(active_idx)):
                try:
                    steps[position] = np.linalg.solve(
                        hessians[position], gradients[:, position])
                except np.linalg.LinAlgError:
                    steps[position] = np.linalg.lstsq(
                        hessians[position], gradients[:, position],
                        rcond=None)[0]
        beta[:, active_idx] = current + steps.T
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


def fit_logistic_multi(features: np.ndarray, labels_matrix: np.ndarray,
                       row_groups: Optional[np.ndarray] = None,
                       l2: float = 1e-3, max_iter: int = 50,
                       tol: float = 1e-8) -> List[LogisticRegression]:
    """Fit one logistic model per column of ``labels_matrix`` in one solve.

    The IPW layer fits a selection model per biased attribute over the
    *same* design matrix, so the Newton work is batched across labels:
    the design is wrapped once in a :class:`SparseDesign`, and every
    iteration of :func:`drive_irls` evaluates all active labels' linear
    predictors and gradients with one CSR product each, all their
    Hessians ``X^T diag(w_l) X`` with one product of the pair operator, and
    all their Newton steps with one batched solve.  The Hessian cost scales
    with the nonzeros per row (at most one per one-hot attribute, plus the
    intercept), not with the design width.

    ``row_groups`` optionally maps each row to the id (``0..k-1``) of its
    distinct feature combination.  One-hot designs over a handful of
    categorical predictors often have far fewer distinct rows than rows;
    when there are at most half as many groups as rows, duplicates collapse
    into binomial groups (``t_i`` trials, ``s_i`` successes per distinct
    row), which yields the identical gradient and Hessian at every beta, so
    Newton follows the same trajectory at a fraction of the per-iteration
    cost.  The caller computes the grouping once and reuses it for every
    fit over the same features.
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
    if n_labels == 0:
        return []
    design = np.hstack([np.ones((n_rows, 1)), features])
    totals = np.ones(n_rows)
    successes = labels_matrix
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
            successes = np.stack(
                [np.bincount(row_groups, weights=labels_matrix[:, label],
                             minlength=n_groups)
                 for label in range(n_labels)], axis=1)
    design = SparseDesign(design)

    def step(beta: np.ndarray, active_idx: np.ndarray):
        return logistic_partials(design, successes[:, active_idx], beta, totals)

    return drive_irls(step, labels_matrix, n_features + 1,
                      l2=l2, max_iter=max_iter, tol=tol)


def one_hot_encode_codes(code_arrays: List[np.ndarray],
                         cards: Optional[List[int]] = None) -> np.ndarray:
    """One-hot encode a list of integer code arrays into a dense feature matrix.

    Missing codes (``-1``) get an all-zero row for that variable, which acts
    as its own implicit "missing" category once the intercept absorbs the
    baseline.  Used to turn the fully observed dataset attributes into
    features for the selection model.

    ``cards`` optionally pins each variable's category count.  A row shard
    may never observe the top categories of a column, so encoding from the
    local maximum would misalign its design columns against the other
    shards; passing the *global* cardinalities gives every shard the same
    layout (extra categories only append all-zero columns, which the ridge
    penalty keeps harmless).
    """
    if not code_arrays:
        raise MissingDataError("one_hot_encode_codes requires at least one code array")
    if cards is not None and len(cards) != len(code_arrays):
        raise MissingDataError(
            f"cards ({len(cards)}) and code arrays ({len(code_arrays)}) "
            f"differ in length")
    n = len(code_arrays[0])
    blocks = []
    for position, codes in enumerate(code_arrays):
        codes = np.asarray(codes, dtype=np.int64)
        if len(codes) != n:
            raise MissingDataError("code arrays have different lengths")
        if cards is not None:
            n_categories = int(cards[position])
        else:
            n_categories = int(codes.max()) + 1 if n and codes.max() >= 0 else 0
        if n_categories == 0:
            continue
        block = np.zeros((n, n_categories), dtype=np.float64)
        present = codes >= 0
        block[np.arange(n)[present], codes[present]] = 1.0
        # Drop the first category as the reference level to limit collinearity.
        if n_categories > 1:
            block = block[:, 1:]
        blocks.append(block)
    if not blocks:
        return np.zeros((n, 0), dtype=np.float64)
    return np.hstack(blocks)
