"""The Correlation-Explanation problem instance (Definition 2.1).

A :class:`CorrelationExplanationProblem` bundles everything the search
algorithms need:

* the (augmented) table restricted to the query's context ``C``;
* the exposure ``T`` and outcome ``O``;
* the candidate attribute list ``A``;
* per-attribute inverse-probability weights for selection-biased attributes;
* a memoised conditional-mutual-information oracle, since both MCIMR and the
  brute-force baseline evaluate many overlapping CMI terms over the same
  table.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ExplanationError
from repro.infotheory import kernel
from repro.infotheory.encoding import EncodedFrame
from repro.infotheory.independence import IndependenceResult
from repro.infotheory.permutation import PermutationBudget
from repro.obs import trace
from repro.query.aggregate_query import AggregateQuery
from repro.table.discretize import DEFAULT_BINS
from repro.table.table import Table


class CorrelationExplanationProblem:
    """One instance of the Correlation-Explanation problem.

    Parameters
    ----------
    table:
        The augmented table (input dataset joined with the extracted
        attributes).  The query context has *not* been applied yet; the
        constructor applies it.
    query:
        The aggregate query whose exposure/outcome correlation is being
        explained.
    candidates:
        The candidate attribute names ``A`` (everything that may enter an
        explanation).  They must exist in ``table``.
    attribute_weights:
        Optional per-attribute IPW weight vectors (aligned with the rows of
        the *context-restricted* table).  Only attributes flagged with
        selection bias need an entry.
    n_bins:
        Number of bins used when numeric attributes are discretised for the
        information-theoretic estimates.
    frame:
        An existing :class:`EncodedFrame` over the *context-restricted*
        table to adopt instead of encoding from scratch.  The engine passes
        the first problem instance's frame when it rebuilds the problem
        with IPW weights, so every column is factorised at most once per
        query — and the :class:`~repro.engine.context.PipelineContext`
        frame cache passes it across queries sharing a context, so every
        column is factorised at most once per *context*.  The adopted
        frame's code arrays may be **read-only shared-memory views**
        (:mod:`repro.shm`): every code consumer in this class treats code
        arrays as immutable — derived representations (joint codes, fused
        conditioning sets, restrictions, permutation blocks) are always
        freshly allocated — so a frame encoded once per box serves any
        number of problems in any number of processes.
    context_table:
        The context-restricted table the adopted ``frame`` encodes.  When
        given, the constructor skips re-applying the query context (the
        caller — the pipeline's frame cache — already filtered the rows).
        Must be passed together with ``frame``.
    permutation_budget:
        The :class:`~repro.infotheory.permutation.PermutationBudget`
        policy of every permutation test this problem runs (default: a
        fixed budget, no early exit, the legacy RNG stream).
        ``early_exit`` lets the sequential decision stop a run
        once the verdict is determined; an adaptive policy
        (``max_permutations`` set) extends statistically uncertain tests
        geometrically while clear-cut tests exit early, and
        ``rng_stream="argsort"`` selects the vectorised sampling stream.
    counter_hook:
        Optional ``(name, increment)`` callable observing backend counters
        (``perm_early_exit``, ``perm_saved``, ``perm_budget_extended``,
        ``perm_budget_saved``).  The engine passes
        ``PipelineContext.count`` so the serving ``/stats`` endpoint
        surfaces them.
    seconds_hook:
        Optional ``(name, seconds)`` callable observing backend phase
        timings (``permutation_test``); the engine passes
        ``PipelineContext.add_seconds``.
    """

    #: Bound on the cached fused conditioning-code arrays (LRU); each entry
    #: costs ``8 * n_rows`` bytes.
    MAX_JOINT_CACHE = 128

    def __init__(self, table: Table, query: AggregateQuery, candidates: Sequence[str],
                 attribute_weights: Optional[Dict[str, np.ndarray]] = None,
                 n_bins: int = DEFAULT_BINS,
                 frame: Optional[EncodedFrame] = None,
                 context_table: Optional[Table] = None,
                 permutation_budget: PermutationBudget = PermutationBudget(),
                 counter_hook=None, seconds_hook=None):
        query.validate_against(table)
        if context_table is not None and frame is None:
            raise ExplanationError(
                "context_table adoption requires the matching encoded frame"
            )
        missing = [name for name in candidates if name not in table]
        if missing:
            raise ExplanationError(
                f"Candidate attribute(s) {missing} are not columns of the table"
            )
        forbidden = {query.exposure, query.outcome}
        overlapping = [name for name in candidates if name in forbidden]
        if overlapping:
            raise ExplanationError(
                f"Candidate attributes may not include the exposure or outcome: {overlapping}"
            )
        self.query = query
        self.full_table = table
        self.context_table = context_table if context_table is not None \
            else query.apply_context(table)
        if self.context_table.n_rows == 0:
            raise ExplanationError(
                f"The query context {query.context!r} selects no rows"
            )
        self.candidates: List[str] = list(dict.fromkeys(candidates))
        self.n_bins = n_bins
        if frame is not None:
            if frame.n_rows != self.context_table.n_rows or frame.n_bins != n_bins:
                raise ExplanationError(
                    f"Adopted frame has {frame.n_rows} rows / {frame.n_bins} bins, "
                    f"expected {self.context_table.n_rows} rows / {n_bins} bins"
                )
            self.frame = frame
        else:
            self.frame = EncodedFrame(self.context_table, n_bins=n_bins)
        self.attribute_weights: Dict[str, np.ndarray] = dict(attribute_weights or {})
        for attribute, weights in self.attribute_weights.items():
            if len(weights) != self.context_table.n_rows:
                raise ExplanationError(
                    f"IPW weights for {attribute!r} have length {len(weights)}, "
                    f"expected {self.context_table.n_rows} (context rows)"
                )
        self.permutation_budget = permutation_budget
        self.counter_hook = counter_hook
        self.seconds_hook = seconds_hook
        self._cmi_cache: Dict[Tuple[str, ...], float] = {}
        self._mi_cache: Dict[Tuple[str, str], float] = {}
        self._entropy_cache: Dict[str, float] = {}
        # Fused conditioning codes (incremental joint coding), keyed by the
        # sorted attribute tuple.  Two caches because the CMI oracle encodes
        # conditioning attributes with missing-as-category while the
        # independence tests use the plain codes.
        self._joint_cache: "OrderedDict[Tuple[str, ...], Tuple[np.ndarray, int]]" = \
            OrderedDict()
        self._plain_joint_cache: "OrderedDict[Tuple[str, ...], Tuple[np.ndarray, int]]" = \
            OrderedDict()

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def exposure(self) -> str:
        """The exposure attribute ``T``."""
        return self.query.exposure

    @property
    def outcome(self) -> str:
        """The outcome attribute ``O``."""
        return self.query.outcome

    @property
    def n_rows(self) -> int:
        """Number of rows satisfying the query context."""
        return self.context_table.n_rows

    def has_selection_bias(self, attribute: str) -> bool:
        """Whether IPW weights were supplied for the attribute."""
        return attribute in self.attribute_weights

    # ------------------------------------------------------------------ #
    # weighted estimation helpers
    # ------------------------------------------------------------------ #
    def _weights_for(self, attributes: Sequence[str]) -> Optional[np.ndarray]:
        """Combined IPW weights for a set of attributes.

        The paper applies weights per selection-biased attribute; when a
        conditioning set contains several such attributes their weights are
        multiplied (a row must be re-weighted for every biased attribute it
        contributes to).  ``None`` means no re-weighting is needed.
        """
        combined: Optional[np.ndarray] = None
        for attribute in attributes:
            weights = self.attribute_weights.get(attribute)
            if weights is None:
                continue
            combined = weights.copy() if combined is None else combined * weights
        return combined

    # ------------------------------------------------------------------ #
    # incremental joint coding
    # ------------------------------------------------------------------ #
    def _conditioning_codes(self, attribute: str, plain: bool) -> np.ndarray:
        if plain:
            return self.frame.codes(attribute)
        return self.frame.codes(attribute, missing_as_category=True)

    def _joint_for(self, key: Tuple[str, ...], plain: bool = False,
                   ) -> Tuple[np.ndarray, int]:
        """Fused codes + cardinality of a conditioning set (cached, LRU).

        Extending a cached set ``Z`` to ``Z ∪ {a}`` is one ``O(n)`` fuse
        against the cached codes instead of a re-factorisation from
        scratch: the method looks for a cached subset one attribute short,
        falling back to a recursive build over the prefix (which leaves
        every prefix cached for the next caller).

        With ``plain=True`` (the independence-test representation) the
        fuse happens strictly left to right in the caller's attribute
        order: permutation tests stratify on these codes, and sorted
        place-value codes must reproduce the reference ``joint_codes``
        label order — lexicographic in *caller* order — for the RNG to be
        consumed identically.  The missing-as-category cache only feeds
        order-invariant scalar estimates, so it may extend any cached
        subset regardless of order.
        """
        if not key:
            return np.zeros(self.context_table.n_rows, dtype=np.int64), 1
        cache = self._plain_joint_cache if plain else self._joint_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        if len(key) == 1:
            codes = self._conditioning_codes(key[0], plain)
            entry = (codes, kernel.code_cardinality(codes))
        else:
            entry = None
            if not plain:
                for dropped in key:
                    shorter = tuple(name for name in key if name != dropped)
                    base = cache.get(shorter)
                    if base is not None:
                        extra = self._conditioning_codes(dropped, plain)
                        fused, card = kernel.fuse_codes(
                            base[0], base[1], extra, kernel.code_cardinality(extra))
                        entry = kernel.maybe_compact(fused, card)
                        break
            if entry is None:
                base = self._joint_for(key[:-1], plain=plain)
                extra = self._conditioning_codes(key[-1], plain)
                fused, card = kernel.fuse_codes(
                    base[0], base[1], extra, kernel.code_cardinality(extra))
                entry = kernel.maybe_compact(fused, card)
        cache[key] = entry
        while len(cache) > self.MAX_JOINT_CACHE:
            cache.popitem(last=False)
        return entry

    # ------------------------------------------------------------------ #
    # information-theoretic oracle
    # ------------------------------------------------------------------ #
    def cmi(self, conditioning: Sequence[str] = ()) -> float:
        """``I(O; T | conditioning, C)`` with memoisation and IPW weights.

        Missing values of conditioning attributes form their own stratum
        (see :meth:`repro.infotheory.encoding.EncodedFrame.codes`): a row
        whose confounder value is unknown keeps its unexplained dependence
        instead of being dropped, which prevents sparsely populated
        attributes from looking like good explanations merely because their
        complete cases exclude entire exposure groups.
        """
        key = tuple(sorted(conditioning))
        if key not in self._cmi_cache:
            fused, card = self._joint_for(key)
            self._cmi_cache[key] = kernel.contingency_cmi(
                self.frame.codes(self.outcome),
                self.frame.codes(self.exposure),
                fused, n_z=card,
                weights=self._weights_for(key),
            )
        return self._cmi_cache[key]

    def score_candidates(self, attributes: Sequence[str],
                         given: Sequence[str] = ()) -> Dict[str, float]:
        """``I(O;T | given ∪ {a}, C)`` for every candidate ``a``, batched.

        One greedy round of MCIMR (and the ranking passes of the brute-force
        and top-k explainers) scores every remaining candidate against the
        same selected set: the fused codes of ``given`` are built once and
        each candidate costs a single ``O(n)`` fuse plus one ``bincount``,
        instead of a full re-factorisation per candidate.  Results land in
        the same memo the scalar :meth:`cmi` oracle uses.
        """
        given = tuple(given)
        given_set = set(given)
        scores: Dict[str, float] = {}
        base, base_card = self._joint_for(tuple(sorted(given)))
        x = self.frame.codes(self.outcome)
        y = self.frame.codes(self.exposure)
        for attribute in attributes:
            key = tuple(sorted(given_set | {attribute}))
            value = self._cmi_cache.get(key)
            if value is None:
                extra = self.frame.codes(attribute, missing_as_category=True)
                fused, card = kernel.fuse_codes(
                    base, base_card, extra, kernel.code_cardinality(extra))
                fused, card = kernel.maybe_compact(fused, card)
                value = kernel.contingency_cmi(x, y, fused, n_z=card,
                                               weights=self._weights_for(key))
                self._cmi_cache[key] = value
            scores[attribute] = value
        return scores

    def baseline_cmi(self) -> float:
        """``I(O; T | C)`` — the unexplained correlation."""
        return self.cmi(())

    def explanation_score(self, attributes: Sequence[str]) -> float:
        """The explainability score of an attribute set (lower is better)."""
        return self.cmi(attributes)

    def objective(self, attributes: Sequence[str]) -> float:
        """The Definition 2.1 objective ``I(O;T|E,C) * |E|``."""
        if not attributes:
            return self.baseline_cmi()
        return self.explanation_score(attributes) * len(attributes)

    def pairwise_mi(self, a: str, b: str) -> float:
        """``I(A; B)`` between two candidate attributes (memoised, weighted)."""
        key = (a, b) if a <= b else (b, a)
        if key not in self._mi_cache:
            self._mi_cache[key] = kernel.contingency_mi(
                self.frame.codes(a, missing_as_category=True),
                self.frame.codes(b, missing_as_category=True),
                weights=self._weights_for([a, b]),
            )
        return self._mi_cache[key]

    def attribute_relevance(self, attribute: str) -> float:
        """Individual explanation power ``I(O;T|C, attribute)`` (lower = stronger)."""
        return self.cmi([attribute])

    def entropy_of(self, attribute: str) -> float:
        """Entropy of an attribute within the context (memoised).

        Pruning evaluates ``H(T)``/``H(O)`` once per candidate; the memo
        makes those repeat lookups free.
        """
        cached = self._entropy_cache.get(attribute)
        if cached is None:
            cached = kernel.contingency_entropy(self.frame.codes(attribute))
            self._entropy_cache[attribute] = cached
        return cached

    def conditional_entropy_of(self, target: str, given: Sequence[str]) -> float:
        """``H(target | given)`` within the context."""
        fused, card = self._joint_for(tuple(sorted(given)), plain=True)
        if not given:
            fused = None
            card = None
        return kernel.contingency_conditional_entropy(
            self.frame.codes(target), fused, n_given=card)

    # ------------------------------------------------------------------ #
    # independence testing
    # ------------------------------------------------------------------ #
    def independence_test(self, a: str, b: str, conditioning: Sequence[str] = (),
                          **kwargs) -> IndependenceResult:
        """Conditional-independence test between two columns given others.

        The conditioning set is fused once (cached) and the permutation
        phase runs on the blocked engine under ``permutation_budget``;
        with the default budget, verdicts, p-values and RNG consumption
        are identical to the row-wise reference test.  Elapsed
        wall-clock is reported to ``seconds_hook`` under
        ``permutation_test``.
        """
        weights = self._weights_for([a, b, *conditioning])
        start = time.perf_counter() if self.seconds_hook is not None else 0.0
        try:
            with trace.span("permutation_test", a=a, b=b,
                            conditioning=len(conditioning)):
                return self._independence_test(a, b, conditioning, weights,
                                               **kwargs)
        finally:
            if self.seconds_hook is not None:
                self.seconds_hook("permutation_test",
                                  time.perf_counter() - start)

    def _independence_test(self, a: str, b: str, conditioning: Sequence[str],
                           weights, **kwargs) -> IndependenceResult:
        # Fuse in *caller* order: the permutation strata then sort the
        # same way the reference ``joint_codes`` labels do, so the RNG is
        # consumed stratum-for-stratum identically.
        fused, card = self._joint_for(tuple(conditioning), plain=True)
        if not conditioning:
            fused, card = None, None
        return kernel.fast_independence_test(
            self.frame.codes(a), self.frame.codes(b), fused, n_z=card,
            weights=weights,
            counter_hook=self.counter_hook,
            budget=self.permutation_budget,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # derived problems
    # ------------------------------------------------------------------ #
    def restricted_to(self, mask: np.ndarray) -> "CorrelationExplanationProblem":
        """A new problem over a row subset of the *context* table.

        Used by the unexplained-subgroup search, which evaluates the same
        explanation on refinements of the context.  Attribute weights are
        sliced along with the rows.
        """
        restricted = CorrelationExplanationProblem.__new__(CorrelationExplanationProblem)
        restricted.query = self.query
        restricted.full_table = self.full_table
        restricted.context_table = self.context_table.filter(mask)
        restricted.candidates = list(self.candidates)
        restricted.n_bins = self.n_bins
        restricted.frame = self.frame.restrict(mask)
        restricted.attribute_weights = {
            attribute: weights[np.asarray(mask, dtype=bool)]
            for attribute, weights in self.attribute_weights.items()
        }
        restricted.permutation_budget = self.permutation_budget
        restricted.counter_hook = self.counter_hook
        restricted.seconds_hook = self.seconds_hook
        restricted._cmi_cache = {}
        restricted._mi_cache = {}
        restricted._entropy_cache = {}
        restricted._joint_cache = OrderedDict()
        restricted._plain_joint_cache = OrderedDict()
        return restricted

    def subset_candidates(self, candidates: Iterable[str]) -> "CorrelationExplanationProblem":
        """A shallow copy of the problem with a reduced candidate list.

        The CMI caches are shared (they are keyed by attribute names, so
        entries stay valid), which lets pruning produce a cheaper problem
        without recomputation.
        """
        clone = CorrelationExplanationProblem.__new__(CorrelationExplanationProblem)
        clone.query = self.query
        clone.full_table = self.full_table
        clone.context_table = self.context_table
        clone.candidates = [name for name in candidates]
        clone.n_bins = self.n_bins
        clone.frame = self.frame
        clone.attribute_weights = self.attribute_weights
        clone.permutation_budget = self.permutation_budget
        clone.counter_hook = self.counter_hook
        clone.seconds_hook = self.seconds_hook
        clone._cmi_cache = self._cmi_cache
        clone._mi_cache = self._mi_cache
        clone._entropy_cache = self._entropy_cache
        clone._joint_cache = self._joint_cache
        clone._plain_joint_cache = self._plain_joint_cache
        return clone
