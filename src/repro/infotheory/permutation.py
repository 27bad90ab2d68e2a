"""Blocked permutation engine with a sequential early-exit test.

The independence test (:func:`repro.infotheory.kernel.
fast_independence_test`) estimates a permutation p-value by re-computing the
CMI after permuting ``X`` within strata of the conditioning set.  A
per-permutation loop pays three avoidable costs *per permutation*:

* re-deriving the strata (``np.unique`` + one ``np.where`` per stratum —
  ``O(n · n_strata)``) although the strata never change;
* one full Python round-trip through the estimator per permutation;
* on the kernel path, one independent ``bincount`` per permutation although
  the conditioning codes are already fused.

This module restructures the permutation layer:

* :class:`PermutationPlan` precomputes the stratum index lists once.  Its
  :meth:`~PermutationPlan.permute` draws ``rng.permutation`` per stratum in
  exactly the order (sorted stratum values, ascending row indices) of a
  per-stratum ``rng.permutation`` loop, so the RNG stream — and therefore
  every permutation, p-value and verdict — is bit-for-bit identical.
* :func:`blocked_permutation_test` samples permutations in blocks: one
  ``(B, n)`` permuted-code matrix, one shared ``np.bincount`` over
  per-permutation offset fused codes, then the per-permutation entropies are
  read off prefix-trimmed views of the count tensor with the *same*
  arithmetic as :func:`repro.infotheory.kernel.contingency_cmi` — the null
  CMIs (and hence the p-values) are bit-identical to the per-permutation
  kernel loop while paying one ``bincount`` per block instead of per
  permutation.
* :func:`sequential_permutation_test` drives an arbitrary per-permutation
  statistic through the same plan and early-exit decision (the blocked
  driver falls back to it for code spaces too wide to count densely).

Early exit (``early_exit=True``) is a *sequential* test on the exceedance
count.  Two deterministic bounds never flip the fixed-``N`` verdict: with
``k`` exceedances after ``m`` of ``N`` permutations the final p-value
``(K + 1) / (N + 1)`` is bracketed by ``k <= K <= k + (N - m)``, so the test
stops as soon as the bracket lies entirely above or below ``alpha``
(in the common "truly independent" case the very first exceedance already
decides the verdict at ``alpha >= 1 / (N + 1)``).  For large permutation
budgets a Clopper–Pearson interval on the true exceedance probability
additionally stops the test once the interval clears ``alpha`` at
confidence ``CP_CONFIDENCE`` — this bound can in principle differ from the
full run (probability below ``1 - CP_CONFIDENCE``) and only engages after
:data:`CP_MIN_PERMUTATIONS` draws, so small-budget tests (the pipeline
default of 20–30) are decided purely by the verdict-preserving bounds.

Adaptive budgets (:class:`PermutationBudget` with ``max_permutations``
set) invert the spend: instead of every test paying one fixed budget, a
test whose exceedance count still *straddles* ``alpha`` when its current
target is exhausted — the Clopper–Pearson interval on the exceedance
probability contains ``alpha`` — **extends** its target geometrically
(``growth``) up to ``max_permutations``, while clear-cut tests exit early
through the sequential decision.  A test that never extends exits exactly
as the fixed-budget sequential test would (same bracket, same verdict); a
test that does extend was, by construction, statistically uncertain at
the base budget, and its final verdict rests on a strictly larger sample.
:class:`BudgetedSequentialTest` is the one decision object shared by
every driver — the scalar loop, the blocked kernel driver and the
row-sharded coordinator
(:meth:`repro.distributed.coordinator.ShardPool.permutation_rounds`,
whose chunk-aligned per-shard RNG streams make extension deterministic
and resume-safe).

RNG streams: ``rng_stream="legacy"`` (default) draws one Fisher–Yates
permutation per stratum per permutation — bit-identical to the
historical loop.  ``rng_stream="argsort"`` instead draws one ``(B, n)``
uniform block and stably argsorts random keys within strata — a
*different but documented* stream producing exchangeable stratified
permutations from the same generator, acceptable wherever the
exact-count contract already does not apply (early-exit and adaptive
modes) and several times faster on many-strata plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs import trace

#: Upper bound on the number of cells materialised per blocked bincount;
#: blocks are chunked so ``block * cells_per_permutation`` stays below it.
BLOCK_CELL_BUDGET = 1 << 22

#: Upper bound on ``block * n_rows`` — the blocked path materialises a
#: handful of ``(block, n)`` temporaries, so small contingency spaces with
#: huge permutation budgets must not translate into unbounded blocks
#: (~16 MB per int64 temporary at this budget).
BLOCK_ROW_BUDGET = 1 << 21

#: First-block size when early exit is enabled.  A whole block is permuted
#: and scored before the sequential decision sees its exceedances, so the
#: common first-exceedance exit must not pay for a full-budget block;
#: blocks ramp geometrically from here up to the memory-bounded size.
EARLY_EXIT_INITIAL_BLOCK = 8

#: Confidence of the Clopper–Pearson early-exit bound (two-sided).
CP_CONFIDENCE = 0.9999

#: The Clopper–Pearson bound only engages after this many permutations, so
#: small permutation budgets are decided purely by the deterministic
#: (verdict-preserving) bracket.
CP_MIN_PERMUTATIONS = 100

#: Per-stratum Fisher–Yates draws — bit-identical to the historical loop.
RNG_STREAM_LEGACY = "legacy"

#: One uniform ``(B, n)`` draw + segmented stable argsort — a different
#: but documented stream (see the module docstring).
RNG_STREAM_ARGSORT = "argsort"

#: The streams :meth:`PermutationPlan.permute_block` understands.
RNG_STREAMS = (RNG_STREAM_LEGACY, RNG_STREAM_ARGSORT)


# --------------------------------------------------------------------------- #
# stratified permutation plan
# --------------------------------------------------------------------------- #
class PermutationPlan:
    """Precomputed strata of a conditioning code array.

    The plan derives, once, the row-index lists of every stratum with more
    than one member — the only strata that consume randomness.  Iteration
    order matches the historical per-permutation derivation exactly:
    strata sorted by code value, indices ascending within a stratum.
    """

    __slots__ = ("n_rows", "groups", "_argsort_rows", "_argsort_segments")

    def __init__(self, strata: np.ndarray):
        strata = np.asarray(strata)
        self.n_rows = len(strata)
        groups: List[np.ndarray] = []
        if self.n_rows:
            order = np.argsort(strata, kind="stable").astype(np.int64)
            sorted_strata = strata[order]
            boundaries = np.flatnonzero(sorted_strata[1:] != sorted_strata[:-1]) + 1
            groups = [group for group in np.split(order, boundaries)
                      if len(group) > 1]
        self.groups = groups
        self._argsort_rows: Optional[np.ndarray] = None
        self._argsort_segments: Optional[np.ndarray] = None

    def _argsort_layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated multi-member stratum rows + float segment offsets.

        Adding segment index ``s`` to uniform keys in ``[0, 1)`` keeps
        every stratum's keys in a disjoint band, so one stable argsort of
        the whole row axis permutes each stratum independently.
        """
        if self._argsort_rows is None:
            if self.groups:
                self._argsort_rows = np.concatenate(self.groups)
                self._argsort_segments = np.repeat(
                    np.arange(len(self.groups), dtype=np.float64),
                    [len(group) for group in self.groups])
            else:
                self._argsort_rows = np.zeros(0, dtype=np.int64)
                self._argsort_segments = np.zeros(0, dtype=np.float64)
        return self._argsort_rows, self._argsort_segments

    def permute(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One stratified permutation of ``x`` (same RNG stream as legacy)."""
        permuted = x.copy()
        for indices in self.groups:
            permuted[indices] = x[rng.permutation(indices)]
        return permuted

    def permute_block(self, x: np.ndarray, rng: np.random.Generator,
                      count: int,
                      rng_stream: str = RNG_STREAM_LEGACY) -> np.ndarray:
        """A ``(count, n)`` matrix of stratified permutations of ``x``.

        With the default legacy stream, row ``b`` equals the ``b``-th
        sequential :meth:`permute` draw, so a block of ``count``
        permutations consumes the RNG exactly as ``count`` scalar draws
        would.  With ``rng_stream="argsort"`` the block is sampled as one
        uniform ``(count, m)`` draw over the multi-member stratum rows
        followed by a segmented stable argsort — exchangeable within every
        stratum, but a *different* (documented) stream: the same seed no
        longer reproduces the legacy permutations.
        """
        x = np.asarray(x)
        if rng_stream == RNG_STREAM_ARGSORT:
            rows, segments = self._argsort_layout()
            block = np.tile(x, (count, 1))
            if rows.size:
                keys = segments[None, :] + rng.random((count, rows.size))
                order = np.argsort(keys, axis=1, kind="stable")
                block[:, rows] = x[rows[order]]
            return block
        if rng_stream != RNG_STREAM_LEGACY:
            raise ValueError(
                f"unknown rng_stream {rng_stream!r}; expected one of "
                f"{RNG_STREAMS}")
        block = np.tile(x, (count, 1))
        for row in block:
            for indices in self.groups:
                row[indices] = x[rng.permutation(indices)]
        return block


# --------------------------------------------------------------------------- #
# beta quantiles (SciPy when available, pure python otherwise)
# --------------------------------------------------------------------------- #
def _betacf(a: float, b: float, x: float,
            max_iter: int = 300, eps: float = 3e-14) -> float:
    """Continued fraction of the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)`` — the beta distribution's CDF at ``x``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # The continued fraction converges fast on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _beta_ppf_bisect(q: float, a: float, b: float,
                     tol: float = 1e-12, max_iter: int = 200) -> float:
    """Beta quantile by bisection on the regularized incomplete beta.

    ~40 CDF evaluations per call — plenty fast for the once-per-decision
    Clopper–Pearson bounds, and accurate to ``tol`` in ``x`` (the interval
    comparisons against ``alpha`` tolerate far more).
    """
    if q <= 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    lower, upper = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lower + upper)
        if _regularized_incomplete_beta(a, b, mid) < q:
            lower = mid
        else:
            upper = mid
        if upper - lower < tol:
            break
    return 0.5 * (lower + upper)


_BETA_PPF: Optional[Callable[[float, float, float], float]] = None


def _resolve_beta_ppf() -> Callable[[float, float, float], float]:
    """The beta quantile function, resolved once per process.

    SciPy's vectorised implementation when importable, the pure-python
    bisection otherwise — either way the import cost leaves the per-call
    path, and the Clopper–Pearson interval never degrades to the trivial
    ``(0, 1)`` bounds.
    """
    global _BETA_PPF
    if _BETA_PPF is None:
        try:
            from scipy.stats import beta as _scipy_beta
        except ImportError:  # pragma: no cover - exercised via monkeypatch
            _BETA_PPF = _beta_ppf_bisect
        else:
            _BETA_PPF = lambda q, a, b: float(_scipy_beta.ppf(q, a, b))
    return _BETA_PPF


# --------------------------------------------------------------------------- #
# sequential early-exit decision
# --------------------------------------------------------------------------- #
def clopper_pearson_interval(successes: int, trials: int,
                             confidence: float = CP_CONFIDENCE,
                             ) -> Tuple[float, float]:
    """Two-sided Clopper–Pearson interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    beta_ppf = _resolve_beta_ppf()
    tail = (1.0 - confidence) / 2.0
    lower = 0.0 if successes == 0 else float(
        beta_ppf(tail, successes, trials - successes + 1))
    upper = 1.0 if successes == trials else float(
        beta_ppf(1.0 - tail, successes + 1, trials - successes))
    return lower, upper


def sequential_verdict(exceed: int, done: int, total: int,
                       alpha: float) -> Optional[bool]:
    """Early verdict (``True`` = independent) after ``done`` permutations.

    ``None`` means undecided.  The deterministic bracket on the final
    p-value never contradicts the full ``total``-permutation run; the
    Clopper–Pearson rule (large ``done`` only) bounds the true exceedance
    probability instead and is correct with probability ``CP_CONFIDENCE``.
    """
    if done >= total:
        return None
    # Final p = (K + 1) / (total + 1) with exceed <= K <= exceed + remaining.
    if (exceed + 1) / (total + 1) > alpha:
        return True
    if (exceed + (total - done) + 1) / (total + 1) <= alpha:
        return False
    if done >= CP_MIN_PERMUTATIONS:
        lower, upper = clopper_pearson_interval(exceed, done)
        if lower > alpha:
            return True
        if upper < alpha:
            return False
    return None


# --------------------------------------------------------------------------- #
# adaptive permutation budgets
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PermutationBudget:
    """Policy of one permutation test's budget spend.

    Attributes
    ----------
    max_permutations:
        Adaptive cap: a test whose Clopper–Pearson interval still straddles
        ``alpha`` when its current target is exhausted extends the target
        geometrically up to this many permutations.  ``None`` (default)
        disables extension — the call-site ``n_permutations`` is final.
    growth:
        Geometric extension factor (new target =
        ``min(cap, ceil(target * growth))``).
    early_exit:
        Apply the sequential verdict between draws so clear-cut tests stop
        before exhausting the target (during an extension phase the verdict
        is always applied — an extended test is by definition past the
        base budget the caller asked for).
    rng_stream:
        ``"legacy"`` (bit-identical Fisher–Yates stream, default) or
        ``"argsort"`` (vectorised random-key sampling, different documented
        stream) — see :meth:`PermutationPlan.permute_block`.
    """

    max_permutations: Optional[int] = None
    growth: float = 2.0
    early_exit: bool = False
    rng_stream: str = RNG_STREAM_LEGACY

    def __post_init__(self) -> None:
        if self.max_permutations is not None and self.max_permutations < 1:
            raise ValueError(
                f"max_permutations must be >= 1 or None, "
                f"got {self.max_permutations}")
        if self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if self.rng_stream not in RNG_STREAMS:
            raise ValueError(
                f"rng_stream must be one of {RNG_STREAMS}, "
                f"got {self.rng_stream!r}")

    @property
    def adaptive(self) -> bool:
        """Whether this budget may extend past the call-site permutations."""
        return self.max_permutations is not None

    def cap(self, base: int) -> int:
        """The hard permutation ceiling for a base budget of ``base``."""
        if self.max_permutations is None:
            return base
        return max(base, self.max_permutations)


def resolve_budget(budget: Optional[PermutationBudget],
                   early_exit: bool) -> PermutationBudget:
    """The effective budget: an explicit policy wins wholesale, otherwise
    the legacy ``early_exit`` flag maps onto a fixed-budget policy."""
    if budget is not None:
        return budget
    return PermutationBudget(early_exit=early_exit)


class PermutationOutcome:
    """Result of one (possibly budget-extended) permutation run.

    Iterates as the historical ``(exceed, n_run, verdict, computed)``
    tuple, so existing unpacking call sites keep working; ``extensions``
    and ``target`` additionally record how often the budget grew and the
    final permutation target.
    """

    __slots__ = ("exceed", "n_run", "verdict", "computed", "extensions",
                 "target")

    def __init__(self, exceed: int, n_run: int, verdict: Optional[bool],
                 computed: int, extensions: int = 0,
                 target: Optional[int] = None):
        self.exceed = exceed
        self.n_run = n_run
        self.verdict = verdict
        self.computed = computed
        self.extensions = extensions
        self.target = n_run if target is None else target

    def __iter__(self):
        return iter((self.exceed, self.n_run, self.verdict, self.computed))

    def __eq__(self, other) -> bool:
        if isinstance(other, PermutationOutcome):
            return (tuple(self) == tuple(other)
                    and self.extensions == other.extensions
                    and self.target == other.target)
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PermutationOutcome(exceed={self.exceed}, "
                f"n_run={self.n_run}, verdict={self.verdict}, "
                f"computed={self.computed}, extensions={self.extensions}, "
                f"target={self.target})")

    @property
    def p_value(self) -> float:
        return (self.exceed + 1) / (self.n_run + 1)

    def independent(self, alpha: float) -> bool:
        """The final verdict (early decision, else p-value vs ``alpha``)."""
        if self.verdict is not None:
            return self.verdict
        return self.p_value > alpha


class BudgetedSequentialTest:
    """Mutable decision state of one budgeted sequential permutation test.

    Every driver (scalar, blocked, sharded coordinator) feeds
    exceedance outcomes through :meth:`update` one permutation at a time;
    the object owns the early-exit decision *and* the extension decision,
    so the drivers cannot drift apart:

    * while ``done < target`` the sequential verdict applies whenever
      ``early_exit`` is set, or unconditionally once the test is past its
      base budget (an extension phase);
    * when the target is exhausted undecided, the budget extends iff the
      Clopper–Pearson interval on the exceedance probability still
      contains ``alpha`` and the cap allows it — otherwise the run ends
      and the caller derives the verdict from the p-value over all draws.

    A test that never extends therefore behaves exactly like the
    fixed-budget sequential test: flips relative to a fixed run can only
    come from extensions, and extensions only happen when the fixed
    verdict was statistically uncertain at confidence ``CP_CONFIDENCE``.
    """

    __slots__ = ("base", "alpha", "budget", "cap", "target", "exceed",
                 "done", "extensions")

    def __init__(self, n_permutations: int, alpha: float,
                 budget: Optional[PermutationBudget] = None):
        self.base = n_permutations
        self.alpha = alpha
        self.budget = budget if budget is not None else PermutationBudget()
        self.cap = self.budget.cap(n_permutations)
        self.target = n_permutations
        self.exceed = 0
        self.done = 0
        self.extensions = 0

    @property
    def want_more(self) -> bool:
        return self.done < self.target

    @property
    def remaining(self) -> int:
        return self.target - self.done

    def _straddles_alpha(self) -> bool:
        lower, upper = clopper_pearson_interval(self.exceed, self.done)
        return lower <= self.alpha <= upper

    def update(self, exceeded: bool) -> Optional[bool]:
        """Record one permutation; a non-``None`` return ends the test."""
        self.done += 1
        if exceeded:
            self.exceed += 1
        if self.done >= self.target:
            if self.target < self.cap and self._straddles_alpha():
                grown = int(math.ceil(self.target * self.budget.growth))
                self.target = min(self.cap, max(self.done + 1, grown))
                self.extensions += 1
            return None
        if self.budget.early_exit or self.done > self.base:
            return sequential_verdict(self.exceed, self.done, self.target,
                                      self.alpha)
        return None

    def outcome(self, verdict: Optional[bool],
                computed: int) -> PermutationOutcome:
        return PermutationOutcome(self.exceed, self.done, verdict, computed,
                                  self.extensions, self.target)


def report_outcome(counter_hook, outcome: PermutationOutcome,
                   n_permutations: int,
                   budget: PermutationBudget) -> None:
    """Emit the standard permutation counters for one finished test.

    ``perm_early_exit`` / ``perm_saved`` keep their historical meaning
    (sequential decision fired / permutations the base budget did not
    score); adaptive budgets add ``perm_budget_extended`` (tests that grew
    past the base) and ``perm_budget_saved`` (permutations saved relative
    to always paying the base budget — early exits under an adaptive
    policy).  Savings count ``computed`` (scored work including block
    look-ahead), not ``n_run``.

    Also tags the innermost open trace span (the per-test
    ``permutation_test`` span) with the outcome, so every driver —
    scalar, blocked, sharded — reports identically.
    """
    trace.annotate(
        permutations_run=outcome.n_run,
        permutations_computed=outcome.computed,
        early_exit=outcome.verdict is not None,
        budget_extensions=outcome.extensions,
        budget_target=outcome.target,
    )
    if counter_hook is None:
        return
    saved = n_permutations - outcome.computed
    if outcome.verdict is not None:
        counter_hook("perm_early_exit", 1)
        counter_hook("perm_saved", max(0, saved))
    if budget.adaptive:
        if outcome.extensions:
            counter_hook("perm_budget_extended", 1)
        if saved > 0:
            counter_hook("perm_budget_saved", saved)


# --------------------------------------------------------------------------- #
# generic (estimator-agnostic) sequential driver
# --------------------------------------------------------------------------- #
def sequential_permutation_test(
        x: np.ndarray, plan: PermutationPlan, rng: np.random.Generator,
        observed: float, n_permutations: int, alpha: float,
        null_statistic: Callable[[np.ndarray], float],
        early_exit: bool = False,
        budget: Optional[PermutationBudget] = None) -> PermutationOutcome:
    """Drive a per-permutation statistic through the plan.

    Returns a :class:`PermutationOutcome` — unpackable as the historical
    ``(exceed, n_run, verdict, computed)`` tuple, where ``verdict`` is the
    early decision (``None`` when the test ran to completion — the caller
    then derives the verdict from the p-value as before) and ``computed``
    is the number of null statistics actually evaluated (equal to
    ``n_run`` here; the blocked driver may look ahead).  With a
    non-adaptive budget and ``early_exit=False`` this is a bit-identical
    restructuring of the historical loop: same permutations, same
    statistics, same counts.  An adaptive ``budget`` may extend
    ``n_permutations`` geometrically while the verdict stays uncertain
    (always on the legacy scalar RNG stream — this driver never batches).
    """
    budget = resolve_budget(budget, early_exit)
    state = BudgetedSequentialTest(n_permutations, alpha, budget)
    verdict: Optional[bool] = None
    while state.want_more:
        permuted = plan.permute(x, rng)
        verdict = state.update(null_statistic(permuted) >= observed)
        if verdict is not None:
            break
    return state.outcome(verdict, state.done)


# --------------------------------------------------------------------------- #
# blocked kernel driver (fused conditioning codes)
# --------------------------------------------------------------------------- #
def _block_null_cmis(x_block: np.ndarray, y: np.ndarray, z: np.ndarray,
                     n_z: int, weights: Optional[np.ndarray],
                     estimator: str, base: float) -> np.ndarray:
    """Null CMIs of every permutation row of ``x_block`` in one bincount.

    Bit-identical to calling :func:`repro.infotheory.kernel.contingency_cmi`
    per row: cells accumulate in the same row order, and the entropies are
    read off per-permutation *prefix-trimmed* views of the count tensor so
    every reduction runs over exactly the array the scalar kernel builds.
    """
    from repro.infotheory.kernel import entropy_from_counts

    n_block, n_rows = x_block.shape
    base_mask = (y >= 0) & (z >= 0)
    valid = base_mask[None, :] & (x_block >= 0)
    # Per-permutation cardinalities: the scalar kernel derives n_x / n_y
    # from each permutation's complete cases (n_z arrives precomputed).
    masked_x = np.where(valid, x_block, -1)
    masked_y = np.where(valid, y[None, :], -1)
    n_x_rows = masked_x.max(axis=1) + 1
    n_y_rows = masked_y.max(axis=1) + 1
    n_x = int(n_x_rows.max()) if n_block else 0
    n_y = int(n_y_rows.max()) if n_block else 0
    cmis = np.zeros(n_block, dtype=np.float64)
    if n_x <= 0 or n_y <= 0:
        return cmis
    cells = n_x * n_y * n_z
    fused = (z[None, :] * n_y + y[None, :]) * n_x + masked_x
    fused += np.arange(n_block, dtype=np.int64)[:, None] * cells
    flat_valid = valid.ravel()
    flat_fused = fused.ravel()[flat_valid]
    if weights is not None:
        flat_weights = np.broadcast_to(weights, (n_block, n_rows)).ravel()[flat_valid]
        counts = np.bincount(flat_fused, weights=flat_weights,
                             minlength=n_block * cells)
    else:
        counts = np.bincount(flat_fused, minlength=n_block * cells).astype(np.float64)
    counts = counts.reshape(n_block, n_z, n_y, n_x)
    for index in range(n_block):
        if not valid[index].any():
            continue
        # Prefix-trim to this permutation's (n_z, n_y_b, n_x_b) shape — and
        # make it contiguous — so the marginal reductions run over the exact
        # arrays the scalar kernel would reduce (identical layouts and
        # therefore identical pairwise-summation trees).
        tensor = np.ascontiguousarray(
            counts[index, :, :int(n_y_rows[index]), :int(n_x_rows[index])])
        h_xyz = entropy_from_counts(tensor.ravel(), estimator=estimator, base=base)
        h_xz = entropy_from_counts(tensor.sum(axis=1).ravel(),
                                   estimator=estimator, base=base)
        h_yz = entropy_from_counts(tensor.sum(axis=2).ravel(),
                                   estimator=estimator, base=base)
        h_z = entropy_from_counts(tensor.sum(axis=(1, 2)),
                                  estimator=estimator, base=base)
        cmis[index] = max(0.0, h_xz + h_yz - h_xyz - h_z)
    return cmis


def blocked_permutation_test(
        x: np.ndarray, y: np.ndarray, z: np.ndarray, n_z: int,
        weights: Optional[np.ndarray], observed: float,
        n_permutations: int, alpha: float, rng: np.random.Generator,
        estimator: str = "plugin", base: float = 2.0,
        early_exit: bool = False, block_size: Optional[int] = None,
        budget: Optional[PermutationBudget] = None) -> PermutationOutcome:
    """Blocked permutation p-value machinery over fused conditioning codes.

    Samples permutations in blocks (one fancy-index + one shared bincount
    per block) and feeds the exceedance count through the sequential
    decision.  Returns a :class:`PermutationOutcome` (unpackable as the
    historical ``(exceed, n_run, verdict, computed)``) like
    :func:`sequential_permutation_test` — ``computed`` counts the null
    CMIs actually evaluated, which on an early exit includes the current
    block's look-ahead beyond ``n_run`` (the decision only sees a block
    after it is scored), so callers reporting savings use ``computed``,
    not ``n_run``.  With a non-adaptive budget, ``early_exit=False`` and
    the legacy RNG stream, the exceedance count — and therefore the
    p-value — is bit-identical to the per-permutation kernel loop over
    the same RNG stream.  An adaptive ``budget`` extends the target
    geometrically while the Clopper–Pearson interval straddles ``alpha``;
    look-ahead permutations already scored when an extension fires are
    consumed, not re-drawn.
    """
    from repro.infotheory import kernel

    budget = resolve_budget(budget, early_exit)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    plan = PermutationPlan(z)
    present_x = x[x >= 0]
    present_y = y[y >= 0]
    n_x_bound = int(present_x.max()) + 1 if present_x.size else 1
    n_y_bound = int(present_y.max()) + 1 if present_y.size else 1
    cells_bound = n_x_bound * n_y_bound * max(1, n_z)
    if cells_bound > kernel.DENSE_CELL_LIMIT:
        # Pathologically wide code spaces take the scalar kernel per
        # permutation (which compacts / falls back as needed); the plan
        # still removes the per-permutation strata re-derivation.  The
        # scalar driver always draws the legacy stream.
        return sequential_permutation_test(
            x, plan, rng, observed, n_permutations, alpha,
            lambda permuted: kernel.contingency_cmi(
                permuted, y, z, n_z=n_z, weights=weights,
                estimator=estimator, base=base),
            early_exit=early_exit, budget=budget)
    state = BudgetedSequentialTest(n_permutations, alpha, budget)
    if block_size is None:
        block_size = max(1, min(state.cap,
                                BLOCK_CELL_BUDGET // cells_bound,
                                BLOCK_ROW_BUDGET // max(1, len(x))))
    computed = 0
    # Blocking never changes the legacy RNG stream (permutations are drawn
    # sequentially regardless of block boundaries), so the early-exit ramp
    # below only trades batching width against wasted look-ahead.  The
    # ramp restarts small whenever an extension begins: extension phases
    # check the verdict after every draw, so the first-draw exit must not
    # pay for a full-width block.
    sequential = budget.early_exit or budget.adaptive
    ramp = EARLY_EXIT_INITIAL_BLOCK if sequential else block_size
    extensions_seen = 0
    while state.want_more:
        if state.extensions != extensions_seen:
            extensions_seen = state.extensions
            ramp = EARLY_EXIT_INITIAL_BLOCK
        count = min(ramp, block_size, state.remaining)
        ramp = min(ramp * 4, block_size)
        block = plan.permute_block(x, rng, count,
                                   rng_stream=budget.rng_stream)
        null_cmis = _block_null_cmis(block, y, z, n_z, weights, estimator, base)
        computed += count
        for value in null_cmis:
            if not state.want_more:
                break
            verdict = state.update(value >= observed)
            if verdict is not None:
                return state.outcome(verdict, computed)
    return state.outcome(None, computed)


# --------------------------------------------------------------------------- #
# sharded permutation partials (scatter-gather data plane)
# --------------------------------------------------------------------------- #
def block_partial_counts(x: np.ndarray, y: np.ndarray,
                         z: Optional[np.ndarray],
                         n_x: int, n_y: int, n_z: int,
                         weights: Optional[np.ndarray],
                         rng: np.random.Generator,
                         count: int,
                         rng_stream: str = RNG_STREAM_LEGACY) -> np.ndarray:
    """Partial permutation-null count tensors of one row shard.

    Permutes ``x`` within the strata of this shard's ``z`` slice — a
    *finer* stratification than whole-table strata (shard × stratum), which
    is equally valid under the permutation null — and returns a
    ``(count, n_z * n_y * n_x)`` matrix of partial contingency counts.
    All cardinalities are global, so summing the matrices of every shard
    yields, per permutation, a full count tensor ready for
    :func:`repro.infotheory.kernel.cmi_from_counts`.  Each shard draws from
    its own generator, keeping the null distribution deterministic for any
    shard count without coordinating RNG state; ``rng_stream`` selects the
    per-shard sampling stream (see :meth:`PermutationPlan.permute_block`).
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if z is None:
        z = np.zeros(len(x), dtype=np.int64)
    else:
        z = np.asarray(z, dtype=np.int64)
    cells = n_x * n_y * max(1, n_z)
    if len(x) == 0 or count <= 0:
        return np.zeros((max(0, count), cells), dtype=np.float64)
    plan = PermutationPlan(z)
    block = plan.permute_block(x, rng, count, rng_stream=rng_stream)
    valid = (y >= 0)[None, :] & (z >= 0)[None, :] & (block >= 0)
    masked_x = np.where(valid, block, 0)
    fused = (z[None, :] * n_y + y[None, :]) * n_x + masked_x
    fused += np.arange(count, dtype=np.int64)[:, None] * cells
    flat_valid = valid.ravel()
    flat_fused = fused.ravel()[flat_valid]
    if weights is not None:
        flat_weights = np.broadcast_to(
            np.asarray(weights, dtype=np.float64),
            (count, len(x))).ravel()[flat_valid]
        counts = np.bincount(flat_fused, weights=flat_weights,
                             minlength=count * cells)
    else:
        counts = np.bincount(flat_fused,
                             minlength=count * cells).astype(np.float64)
    return counts.reshape(count, cells)


def null_cmis_from_counts(counts: np.ndarray, n_x: int, n_y: int, n_z: int,
                          estimator: str = "plugin",
                          base: float = 2.0) -> np.ndarray:
    """Null CMIs from merged ``(count, cells)`` permutation partials.

    The tensors keep their global (untrimmed) dimensions; padding cells are
    empty and entropies ignore empty cells, so each value equals the CMI of
    the corresponding whole-table permutation counts.
    """
    from repro.infotheory.kernel import cmi_from_counts

    counts = np.asarray(counts, dtype=np.float64)
    cmis = np.zeros(counts.shape[0], dtype=np.float64)
    for index in range(counts.shape[0]):
        tensor = counts[index].reshape(max(1, n_z), n_y, n_x)
        cmis[index] = cmi_from_counts(tensor, estimator=estimator, base=base)
    return cmis
