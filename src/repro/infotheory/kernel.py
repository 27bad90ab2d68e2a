"""Contingency-count estimation kernel — the production estimators.

Every entropy, MI and CMI estimate of the explanation oracle is computed
here, from encoded code arrays:

* **One weighted contingency count per term.**  ``contingency_cmi`` fuses
  the (already encoded) variables into a single code array with place-value
  arithmetic, runs one ``np.bincount``, and reads all four entropies of the
  decomposition ``I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z)`` off the
  marginals of the resulting count tensor.
* **Incremental joint coding.**  ``fuse_codes`` extends a cached fused code
  array for a conditioning set ``Z`` to ``Z ∪ {a}`` in one ``O(n)`` pass —
  no re-factorisation from scratch.  ``compact_codes`` re-labels a sparse
  fused array to a dense ``0..k-1`` range when the code space grows;
  crucially, compaction assigns labels in sorted fused order, which equals
  the lexicographic tuple order used by
  :func:`repro.infotheory.encoding.joint_codes` — so partitions, labels
  ordering, and therefore every downstream estimate and permutation test
  match the row-wise estimators exactly.
* **A permutation test that fuses once.**  ``fast_independence_test``
  reuses the fused conditioning codes across all permutations and runs
  the permutation phase on the blocked engine
  (:mod:`repro.infotheory.permutation`).

The row-wise estimators of :mod:`repro.infotheory.entropy` /
:mod:`repro.infotheory.mutual_information` serve as the fallback when a
code space is too wide for a dense count (``DENSE_CELL_LIMIT``, even
after compaction), and as the oracle the property tests compare this
module against: all estimates agree to within floating-point summation
error (1e-9), including IPW weights, ``-1`` missing codes, and both
estimators (``plugin``/``miller_madow``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.infotheory import permutation
from repro.infotheory.entropy import _ESTIMATORS, _validate_weights, conditional_entropy
from repro.infotheory.independence import DEFAULT_CMI_THRESHOLD, IndependenceResult
from repro.infotheory.mutual_information import conditional_mutual_information
from repro.utils.rng import make_rng

#: Contingency tensors larger than this fall back to compaction (and, as a
#: last resort, the reference estimator) instead of a dense ``bincount``.
DENSE_CELL_LIMIT = 1 << 22

#: Fused code spaces wider than ``max(_COMPACT_FLOOR, 2 * n_rows)`` are
#: re-labelled to a dense range before being cached or counted.
_COMPACT_FLOOR = 1024


# --------------------------------------------------------------------------- #
# joint coding
# --------------------------------------------------------------------------- #
def code_cardinality(codes: np.ndarray) -> int:
    """The size of the code space ``0..max`` of a code array (>= 1)."""
    if len(codes) == 0:
        return 1
    top = int(codes.max())
    return top + 1 if top >= 0 else 1


def fuse_codes(base: np.ndarray, base_card: int,
               extra: np.ndarray, extra_card: int) -> Tuple[np.ndarray, int]:
    """Extend a fused code array by one more variable in ``O(n)``.

    The fused code of a row is ``base * extra_card + extra`` — an injective
    (and lexicographic-order-preserving) map of the code tuple.  A ``-1``
    in either component makes the fused code ``-1``, matching the missing
    propagation of :func:`repro.infotheory.encoding.joint_codes`.
    """
    base = np.asarray(base, dtype=np.int64)
    extra = np.asarray(extra, dtype=np.int64)
    fused = base * extra_card + extra
    fused[(base < 0) | (extra < 0)] = -1
    return fused, base_card * extra_card


def compact_codes(codes: np.ndarray) -> Tuple[np.ndarray, int]:
    """Re-label present codes to a dense ``0..k-1`` range (``-1`` kept).

    Labels are assigned in sorted code order, so a compacted fused array
    induces the same partition *and* the same label ordering as the
    reference ``joint_codes`` (lexicographic over tuples).
    """
    result = np.full(len(codes), -1, dtype=np.int64)
    present = codes >= 0
    if present.any():
        uniques, inverse = np.unique(codes[present], return_inverse=True)
        result[present] = inverse
        return result, len(uniques)
    return result, 1


def maybe_compact(codes: np.ndarray, card: int,
                  limit: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """Compact a fused array when its code space outgrows its row count."""
    if limit is None:
        limit = max(_COMPACT_FLOOR, 2 * len(codes))
    if card > limit:
        return compact_codes(codes)
    return codes, card


def joint_fused(code_arrays: Sequence[np.ndarray],
                cards: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, int]:
    """Fuse several code arrays left to right (compacting as needed).

    An empty sequence encodes the empty conditioning set: every row fuses
    to ``0`` (cardinality 1) — but callers must supply the row count via a
    non-empty sequence, so the empty case is handled by callers.
    """
    if not code_arrays:
        raise ValueError("joint_fused requires at least one code array; "
                         "handle the empty conditioning set at the call site")
    fused = np.asarray(code_arrays[0], dtype=np.int64)
    card = cards[0] if cards is not None else code_cardinality(fused)
    for position, codes in enumerate(code_arrays[1:], start=1):
        extra_card = cards[position] if cards is not None \
            else code_cardinality(np.asarray(codes, dtype=np.int64))
        fused, card = fuse_codes(fused, card, codes, extra_card)
        fused, card = maybe_compact(fused, card)
    return fused, card


# --------------------------------------------------------------------------- #
# partial counts (the scatter-gather contract)
# --------------------------------------------------------------------------- #
# Every estimate in this module reduces to entropies of one weighted
# contingency count over fused codes — and counts are *additive over row
# partitions*.  ``accumulate`` produces the partial counts of one row
# slice, ``merge_counts`` sums partials, and ``finalize`` /
# ``cmi_from_counts`` / ``conditional_entropy_from_counts`` perform the
# entropy step on the merged totals.  A shard worker that owns a row range
# can therefore return partial count vectors whose sum yields *exactly*
# the whole-table estimate: integer (unweighted) counts merge exactly, and
# weighted counts agree with the single-pass bincount to float summation
# order (the property tests assert 1e-9).
def accumulate(codes: np.ndarray, weights: Optional[np.ndarray] = None,
               minlength: int = 0) -> np.ndarray:
    """Partial contingency counts of one row slice (``-1`` rows dropped).

    The returned vector is additive: summing the ``accumulate`` results of
    any partition of the rows equals the whole-table count vector.  Counts
    are float64 either way — integer counts are exact in float64 far past
    any realistic row count, and a uniform dtype keeps merged partials
    interchangeable with the single-process bincount.
    """
    codes = np.asarray(codes, dtype=np.int64)
    present = codes >= 0
    if weights is None:
        counts = np.bincount(codes[present], minlength=minlength)
        return counts.astype(np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return np.bincount(codes[present], weights=weights[present],
                       minlength=minlength)


def merge_counts(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sum per-shard partial count vectors (ragged lengths are padded).

    Shards that never observed the top codes return shorter vectors when
    ``accumulate`` ran without ``minlength``; the merge pads every partial
    to the widest shard's length before summing.
    """
    parts = [np.asarray(part, dtype=np.float64) for part in parts]
    if not parts:
        return np.zeros(0, dtype=np.float64)
    width = max(part.shape[-1] if part.ndim else 0 for part in parts)
    total = np.zeros(width, dtype=np.float64)
    for part in parts:
        total[:len(part)] += part
    return total


def finalize(counts: np.ndarray, estimator: str = "plugin",
             base: float = 2.0) -> float:
    """Entropy of merged partial counts — the gather half of the contract.

    ``finalize(merge_counts(accumulate(part) for part in partition))``
    equals ``contingency_entropy`` over the unpartitioned rows.
    """
    return entropy_from_counts(np.asarray(counts, dtype=np.float64),
                               estimator=estimator, base=base)


def cmi_counts(x: np.ndarray, y: np.ndarray,
               z: Optional[np.ndarray] = None,
               n_x: int = 0, n_y: int = 0, n_z: int = 1,
               weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Partial ``(n_z, n_y, n_x)`` contingency counts of one row slice.

    The cardinalities are *global* (supplied by the coordinator), so every
    shard lays its cells out identically and the partial tensors add.
    Rows with a missing component are dropped, matching the complete-case
    restriction of :func:`contingency_cmi`; the global cardinalities may
    be the unmasked code spaces — padding cells that the masked whole-table
    pass would not allocate stay zero and entropies ignore empty cells, so
    the merged estimate is unchanged.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if z is None:
        z = np.zeros(len(x), dtype=np.int64)
    else:
        z = np.asarray(z, dtype=np.int64)
    mask = (x >= 0) & (y >= 0) & (z >= 0)
    fused = (z[mask] * n_y + y[mask]) * n_x + x[mask]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)[mask]
        counts = np.bincount(fused, weights=weights, minlength=n_x * n_y * n_z)
    else:
        counts = np.bincount(fused, minlength=n_x * n_y * n_z).astype(np.float64)
    return counts.reshape(n_z, n_y, n_x)


def cmi_from_counts(counts: np.ndarray, estimator: str = "plugin",
                    base: float = 2.0) -> float:
    """``I(X;Y|Z)`` from a merged ``(n_z, n_y, n_x)`` count tensor."""
    counts = np.asarray(counts, dtype=np.float64)
    h_xyz = entropy_from_counts(counts.ravel(), estimator=estimator, base=base)
    h_xz = entropy_from_counts(counts.sum(axis=1).ravel(),
                               estimator=estimator, base=base)
    h_yz = entropy_from_counts(counts.sum(axis=2).ravel(),
                               estimator=estimator, base=base)
    h_z = entropy_from_counts(counts.sum(axis=(1, 2)),
                              estimator=estimator, base=base)
    return max(0.0, h_xz + h_yz - h_xyz - h_z)


def joint_counts(target: np.ndarray, given: Optional[np.ndarray] = None,
                 n_target: int = 0, n_given: int = 1,
                 weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Partial ``(n_given, n_target)`` counts for conditional entropies."""
    target = np.asarray(target, dtype=np.int64)
    if given is None:
        given = np.zeros(len(target), dtype=np.int64)
    else:
        given = np.asarray(given, dtype=np.int64)
    mask = (target >= 0) & (given >= 0)
    fused = given[mask] * n_target + target[mask]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)[mask]
        counts = np.bincount(fused, weights=weights,
                             minlength=n_target * n_given)
    else:
        counts = np.bincount(fused, minlength=n_target * n_given) \
            .astype(np.float64)
    return counts.reshape(n_given, n_target)


def conditional_entropy_from_counts(counts: np.ndarray,
                                    estimator: str = "plugin",
                                    base: float = 2.0) -> float:
    """``H(target | given)`` from a merged ``(n_given, n_target)`` tensor."""
    counts = np.asarray(counts, dtype=np.float64)
    h_joint = entropy_from_counts(counts.ravel(), estimator=estimator, base=base)
    h_given = entropy_from_counts(counts.sum(axis=1),
                                  estimator=estimator, base=base)
    return max(0.0, h_joint - h_given)


# --------------------------------------------------------------------------- #
# entropies from counts
# --------------------------------------------------------------------------- #
def entropy_from_counts(counts: np.ndarray, estimator: str = "plugin",
                        base: float = 2.0) -> float:
    """Entropy of the distribution given by (possibly weighted) cell counts.

    Mirrors :func:`repro.infotheory.entropy.entropy` over the same counts:
    empty cells are excluded from the support, the plug-in value is clipped
    at zero, and Miller–Madow adds ``(support - 1) / (2 n ln(base))`` with
    ``n`` the total (weighted) count.
    """
    if estimator not in _ESTIMATORS:
        raise EstimationError(
            f"Unknown estimator {estimator!r}; use one of {_ESTIMATORS}")
    counts = counts[counts > 0]
    total = counts.sum()
    if counts.size == 0 or total <= 0:
        return 0.0
    probabilities = counts / total
    log_base = np.log(base)
    value = float(-(probabilities * (np.log(probabilities) / log_base)).sum())
    if estimator == "miller_madow":
        value += (probabilities.size - 1) / (2.0 * float(total) * log_base)
    return max(0.0, value)


def _masked(arrays: Sequence[np.ndarray],
            weights: Optional[np.ndarray]) -> Tuple[list, Optional[np.ndarray]]:
    """Complete-case restriction of several aligned code arrays."""
    mask = arrays[0] >= 0
    for codes in arrays[1:]:
        mask = mask & (codes >= 0)
    restricted = [codes[mask] for codes in arrays]
    if weights is not None:
        weights = weights[mask]
    return restricted, weights


def contingency_entropy(codes: np.ndarray, weights: Optional[np.ndarray] = None,
                        estimator: str = "plugin", base: float = 2.0) -> float:
    """``H(X)`` from one bincount (``-1`` rows dropped, weights applied)."""
    codes = np.asarray(codes, dtype=np.int64)
    weights = _validate_weights(weights, len(codes))
    (present,), weights = _masked([codes], weights)
    if len(present) == 0:
        return 0.0
    counts = np.bincount(present, weights=weights)
    return entropy_from_counts(counts, estimator=estimator, base=base)


def contingency_cmi(x: np.ndarray, y: np.ndarray,
                    z: Optional[np.ndarray] = None, n_z: Optional[int] = None,
                    weights: Optional[np.ndarray] = None,
                    estimator: str = "plugin", base: float = 2.0) -> float:
    """``I(X;Y|Z)`` from a single weighted contingency count.

    ``z`` is a *fused* conditioning code array (``None`` or all-zeros for
    the empty set); ``n_z`` is its cardinality (inferred when omitted).
    Complete-case and clipping semantics match
    :func:`repro.infotheory.mutual_information.conditional_mutual_information`.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    weights = _validate_weights(weights, len(x))
    if z is None:
        z = np.zeros(len(x), dtype=np.int64)
        n_z = 1
    else:
        z = np.asarray(z, dtype=np.int64)
    (x_c, y_c, z_c), weights_c = _masked([x, y, z], weights)
    if len(x_c) == 0:
        return 0.0
    n_x = code_cardinality(x_c)
    n_y = code_cardinality(y_c)
    if n_z is None:
        n_z = code_cardinality(z_c)
    if n_x * n_y * n_z > DENSE_CELL_LIMIT:
        z_c, n_z = compact_codes(z_c)
        if n_x * n_y * n_z > DENSE_CELL_LIMIT:
            # Pathologically wide code spaces: defer to the reference
            # estimator rather than materialise the tensor.
            return conditional_mutual_information(x, y, [z], weights=weights,
                                                  estimator=estimator, base=base)
    fused = (z_c * n_y + y_c) * n_x + x_c
    counts = np.bincount(fused, weights=weights_c,
                         minlength=n_x * n_y * n_z).reshape(n_z, n_y, n_x)
    return cmi_from_counts(counts, estimator=estimator, base=base)


def contingency_mi(x: np.ndarray, y: np.ndarray,
                   weights: Optional[np.ndarray] = None,
                   estimator: str = "plugin", base: float = 2.0) -> float:
    """``I(X;Y)`` — the empty-conditioning special case of the CMI kernel.

    ``H(X,Z)+H(Y,Z)-H(X,Y,Z)-H(Z)`` with constant ``Z`` degenerates to
    ``H(X)+H(Y)-H(X,Y)``: the same value as the reference
    :func:`~repro.infotheory.mutual_information.mutual_information`
    (including the Miller–Madow correction, whose ``H(Z)`` term is zero).
    """
    return contingency_cmi(x, y, None, weights=weights,
                           estimator=estimator, base=base)


def contingency_conditional_entropy(target: np.ndarray,
                                    given: Optional[np.ndarray] = None,
                                    n_given: Optional[int] = None,
                                    weights: Optional[np.ndarray] = None,
                                    estimator: str = "plugin",
                                    base: float = 2.0) -> float:
    """``H(target | given)`` from one count tensor (``given`` pre-fused)."""
    target = np.asarray(target, dtype=np.int64)
    weights = _validate_weights(weights, len(target))
    if given is None:
        return contingency_entropy(target, weights=weights,
                                   estimator=estimator, base=base)
    given = np.asarray(given, dtype=np.int64)
    (t_c, g_c), weights_c = _masked([target, given], weights)
    if len(t_c) == 0:
        return 0.0
    n_t = code_cardinality(t_c)
    if n_given is None:
        n_given = code_cardinality(g_c)
    if n_t * n_given > DENSE_CELL_LIMIT:
        g_c, n_given = compact_codes(g_c)
        if n_t * n_given > DENSE_CELL_LIMIT:
            # Compaction only relabels the conditioning side; a huge target
            # code space still cannot be materialised densely — defer to
            # the reference estimator instead.
            return conditional_entropy(target, [given], weights=weights,
                                       estimator=estimator, base=base)
    counts = np.bincount(g_c * n_t + t_c, weights=weights_c,
                         minlength=n_t * n_given).reshape(n_given, n_t)
    return conditional_entropy_from_counts(counts, estimator=estimator,
                                           base=base)


# --------------------------------------------------------------------------- #
# independence testing on fused codes
# --------------------------------------------------------------------------- #
def fast_independence_test(x: np.ndarray, y: np.ndarray,
                           z: Optional[np.ndarray] = None,
                           n_z: Optional[int] = None,
                           weights: Optional[np.ndarray] = None,
                           threshold: float = DEFAULT_CMI_THRESHOLD,
                           n_permutations: int = 30,
                           alpha: float = 0.05,
                           dependent_threshold: Optional[float] = None,
                           seed: Optional[int] = 0,
                           early_exit: bool = False,
                           block_size: Optional[int] = None,
                           counter_hook=None,
                           budget=None) -> IndependenceResult:
    """Test whether ``X ⊥ Y | Z`` holds in the data.

    The observed CMI is compared with CMIs after permuting ``X`` within
    strata of ``Z`` — the "highly efficient independence test" of HypDB
    the paper cites — plus two cheap shortcuts: below ``threshold`` the
    variables are declared independent, above ``dependent_threshold``
    (when given) dependent, both without running permutations.
    Otherwise independence is declared when the permutation p-value
    exceeds ``alpha``; the smallest achievable p-value is
    ``1/(n_permutations+1)``.

    The conditioning set arrives pre-fused (``z``/``n_z``) and is reused
    across every permutation.  The permutation phase runs on the blocked
    engine (:func:`repro.infotheory.permutation.blocked_permutation_test`):
    permutations are sampled in blocks as one fancy-index and all their
    contingency counts accumulate in one shared ``bincount``, consuming
    the RNG exactly as a per-permutation loop would.  The permutation
    strata are the fused codes themselves: they induce the same
    partition, in the same sorted order, as ``joint_codes`` strata, so
    verdicts and p-values match the row-wise reference test exactly.

    ``early_exit=True`` stops the sequential test as soon as the verdict is
    determined (see :mod:`repro.infotheory.permutation`); ``counter_hook``
    (a ``(name, increment)`` callable) observes ``perm_early_exit`` /
    ``perm_saved`` when that happens.  An explicit ``budget``
    (:class:`repro.infotheory.permutation.PermutationBudget`) wins over
    the ``early_exit`` flag wholesale and may additionally extend
    ``n_permutations`` adaptively (``perm_budget_extended`` /
    ``perm_budget_saved`` counters) and select the vectorised ``argsort``
    sampling stream.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    observed = contingency_cmi(x, y, z, n_z=n_z, weights=weights)
    if observed <= threshold:
        return IndependenceResult(independent=True, cmi=observed,
                                  p_value=1.0, n_permutations=0)
    if dependent_threshold is not None and observed >= dependent_threshold:
        return IndependenceResult(independent=False, cmi=observed,
                                  p_value=0.0, n_permutations=0)
    if n_permutations <= 0:
        return IndependenceResult(independent=False, cmi=observed,
                                  p_value=0.0, n_permutations=0)
    budget = permutation.resolve_budget(budget, early_exit)
    if z is None:
        fused_z = np.zeros(len(x), dtype=np.int64)
        card_z = 1
    else:
        fused_z = np.asarray(z, dtype=np.int64)
        card_z = n_z if n_z is not None else code_cardinality(fused_z)
    outcome = permutation.blocked_permutation_test(
        x, y, fused_z, card_z, weights, observed, n_permutations, alpha,
        make_rng(seed), block_size=block_size, budget=budget)
    # Savings are counted against the permutations actually scored (the
    # block look-ahead is paid work, not a saving).
    permutation.report_outcome(counter_hook, outcome, n_permutations, budget)
    return IndependenceResult(independent=outcome.independent(alpha),
                              cmi=observed,
                              p_value=outcome.p_value,
                              n_permutations=outcome.n_run,
                              early_exit=outcome.verdict is not None,
                              budget_extensions=outcome.extensions)
