"""A CorrelationExplanationProblem whose estimates run on a shard pool.

:class:`ShardedExplanationProblem` keeps the *control plane* of
:class:`~repro.core.problem.CorrelationExplanationProblem` — the encoded
frame, the memo caches, the search-facing API — but routes every count
underneath an estimate through a
:class:`~repro.distributed.coordinator.ShardPool`: the coordinator sends
fuse *recipes* (not data), workers return partial count tensors of their
row ranges, and the entropy step runs here on the merged totals.

Exactness.  Unweighted estimates are *identical* to the single-process
kernel: integer partial counts merge exactly, and using global (unmasked)
cardinalities only pads the count tensors with empty cells, which the
entropy step ignores.  IPW-weighted estimates agree to float summation
order (the property tests assert 1e-9).  Permutation tests stratify
within (shard × stratum) with deterministic per-shard RNG streams — a
different (equally valid) draw from the same null than the single-process
stream, so p-values differ while the engine-consumed boolean verdicts
agree except on knife-edge cases.

Hybrid by design: terms whose count tensors would exceed the dense-cell
budget fall back to the coordinator-local kernel (the frame holds every
column anyway — the pool exists to keep *worker* memory ``O(rows / N)``),
and :meth:`restricted_to` (the subgroup search, which re-estimates over
arbitrary row masks) returns a plain local problem.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import CorrelationExplanationProblem
from repro.distributed.coordinator import ShardContext, ShardPool
from repro.exceptions import ReproError
from repro.infotheory import kernel, permutation
from repro.obs import trace
from repro.infotheory.independence import (
    DEFAULT_CMI_THRESHOLD,
    IndependenceResult,
)


class ShardedExplanationProblem(CorrelationExplanationProblem):
    """The scatter-gather face of the correlation-explanation oracle.

    Constructed exactly like the base problem plus ``pool`` (a started
    :class:`ShardPool`) and ``shard_ctx`` (the pool's context handle for
    this problem's context frame).  Every estimate computes the same
    kernel quantity as the base class; only where the counts are taken
    differs.
    """

    def __init__(self, pool: ShardPool, shard_ctx: ShardContext,
                 *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool = pool
        self.shard_ctx = shard_ctx
        #: Recipe caches mirroring the base class's fused-code caches —
        #: (steps, cardinality) per conditioning tuple.  Entries are tiny
        #: (the codes live in the workers), but bounded all the same.
        self._steps_cache: "OrderedDict[Tuple[str, ...], Tuple[Tuple, int]]" = \
            OrderedDict()
        self._plain_steps_cache: "OrderedDict[Tuple[str, ...], Tuple[Tuple, int]]" = \
            OrderedDict()
        self._weight_keys_by_attr: Dict[str, str] = {
            attribute: "w:" + attribute + ":" + hashlib.sha1(
                np.ascontiguousarray(weights,
                                     dtype=np.float64).tobytes()
            ).hexdigest()[:10]
            for attribute, weights in self.attribute_weights.items()}

    # ------------------------------------------------------------------ #
    # column provider (the pool slices these per shard)
    # ------------------------------------------------------------------ #
    def _provider(self, key: str) -> np.ndarray:
        if key.startswith("p:"):
            return self.frame.codes(key[2:])
        if key.startswith("m:"):
            return self.frame.codes(key[2:], missing_as_category=True)
        if key.startswith("w:"):
            attribute = key[2:].rsplit(":", 1)[0]
            return np.asarray(self.attribute_weights[attribute],
                              dtype=np.float64)
        raise ReproError(f"unknown shard column key {key!r}")

    def _weight_keys(self, attributes: Sequence[str]) -> Optional[List[str]]:
        """Worker-side weight columns in ``_weights_for`` product order.

        Weight vectors vary per query (they depend on the IPW predictor
        set), so the key embeds a content digest — a context's workers may
        hold several vectors for one attribute without collisions.
        """
        keys = [self._weight_keys_by_attr[attribute]
                for attribute in attributes
                if attribute in self._weight_keys_by_attr]
        return keys or None

    def _card_of(self, attribute: str, plain: bool) -> int:
        codes = self.frame.codes(attribute) if plain \
            else self.frame.codes(attribute, missing_as_category=True)
        return kernel.code_cardinality(codes)

    # ------------------------------------------------------------------ #
    # fuse recipes (the distributed counterpart of _joint_for)
    # ------------------------------------------------------------------ #
    def _compact_limit(self) -> int:
        return max(1024, 2 * self.n_rows)

    def _steps_for(self, key: Tuple[str, ...],
                   plain: bool = False) -> Tuple[Tuple, int]:
        """Fuse recipe + cardinality of a conditioning set (cached).

        Mirrors the base ``_joint_for``: left-to-right fuses with the same
        compaction threshold — except compaction is *global*
        (:meth:`ShardPool.compact`), so every shard relabels identically.
        Compaction is value-preserving (sorted relabelling keeps partition
        and label order), so a decision mismatch against the
        single-process path could only change performance, never a value.
        """
        if not key:
            return (), 1
        cache = self._plain_steps_cache if plain else self._steps_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        prefix = "p:" if plain else "m:"
        if len(key) == 1:
            entry: Tuple[Tuple, int] = (
                (("col", prefix + key[0]),), self._card_of(key[0], plain))
        else:
            base_steps, base_card = self._steps_for(key[:-1], plain=plain)
            extra_card = self._card_of(key[-1], plain)
            steps = base_steps + (("fuse", prefix + key[-1], extra_card),)
            card = base_card * extra_card
            if card > self._compact_limit():
                token, card = self.pool.compact(self.shard_ctx, steps,
                                                self._provider)
                steps = steps + (("relabel", token),)
            entry = (steps, card)
        cache[key] = entry
        while len(cache) > self.MAX_JOINT_CACHE:
            cache.popitem(last=False)
        return entry

    # ------------------------------------------------------------------ #
    # local fallback (exact: the frame holds every column)
    # ------------------------------------------------------------------ #
    def _local_cmi_value(self, key: Tuple[str, ...]) -> float:
        fused, card = self._joint_for(key)
        return kernel.contingency_cmi(
            self.frame.codes(self.outcome), self.frame.codes(self.exposure),
            fused, n_z=card, weights=self._weights_for(key))

    def _count_hook(self, name: str, increment: int = 1) -> None:
        if self.counter_hook is not None:
            self.counter_hook(name, increment)

    # ------------------------------------------------------------------ #
    # information-theoretic oracle (scatter-gather)
    # ------------------------------------------------------------------ #
    def cmi(self, conditioning: Sequence[str] = ()) -> float:
        key = tuple(sorted(conditioning))
        cached = self._cmi_cache.get(key)
        if cached is not None:
            return cached
        steps, card = self._steps_for(key)
        n_x = self._card_of(self.outcome, plain=True)
        n_y = self._card_of(self.exposure, plain=True)
        if n_x * n_y * card > kernel.DENSE_CELL_LIMIT:
            self._count_hook("shard_local_fallback")
            value = self._local_cmi_value(key)
        else:
            job = {"kind": "cmi",
                   "x": (("col", "p:" + self.outcome),),
                   "y": (("col", "p:" + self.exposure),),
                   "z": steps or None,
                   "n_x": n_x, "n_y": n_y, "n_z": card,
                   "weights": self._weight_keys(key)}
            counts = self.pool.counts(self.shard_ctx, [job],
                                      self._provider)[0]
            value = kernel.cmi_from_counts(
                counts.reshape(card, n_y, n_x))
        self._cmi_cache[key] = value
        return value

    def score_candidates(self, attributes: Sequence[str],
                         given: Sequence[str] = ()) -> Dict[str, float]:
        given = tuple(given)
        given_set = set(given)
        scores: Dict[str, float] = {}
        base_steps, base_card = self._steps_for(tuple(sorted(given)))
        n_x = self._card_of(self.outcome, plain=True)
        n_y = self._card_of(self.exposure, plain=True)
        jobs: List[Dict] = []
        job_keys: List[Tuple[str, ...]] = []
        job_cards: List[int] = []
        for attribute in attributes:
            key = given if attribute in given_set \
                else tuple(sorted(given_set | {attribute}))
            value = self._cmi_cache.get(key)
            if value is not None:
                scores[attribute] = value
                continue
            if attribute in given_set:
                scores[attribute] = self.cmi(key)
                continue
            extra_card = self._card_of(attribute, plain=False)
            if base_steps:
                steps: Tuple = base_steps + (
                    ("fuse", "m:" + attribute, extra_card),)
                card = base_card * extra_card
            else:
                steps = (("col", "m:" + attribute),)
                card = extra_card
            if card > self._compact_limit():
                token, card = self.pool.compact(self.shard_ctx, steps,
                                                self._provider)
                steps = steps + (("relabel", token),)
            if n_x * n_y * card > kernel.DENSE_CELL_LIMIT:
                self._count_hook("shard_local_fallback")
                value = self._local_cmi_value(key)
                self._cmi_cache[key] = value
                scores[attribute] = value
                continue
            jobs.append({"kind": "cmi",
                         "x": (("col", "p:" + self.outcome),),
                         "y": (("col", "p:" + self.exposure),),
                         "z": steps,
                         "n_x": n_x, "n_y": n_y, "n_z": card,
                         "weights": self._weight_keys(key)})
            job_keys.append(key)
            job_cards.append(card)
        if jobs:
            merged = self.pool.counts(self.shard_ctx, jobs, self._provider)
            for key, card, counts in zip(job_keys, job_cards, merged):
                value = kernel.cmi_from_counts(
                    counts.reshape(card, n_y, n_x))
                self._cmi_cache[key] = value
        for attribute in attributes:
            if attribute in scores:
                continue
            key = tuple(sorted(given_set | {attribute}))
            scores[attribute] = self._cmi_cache[key]
        return scores

    def pairwise_mi(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        cached = self._mi_cache.get(key)
        if cached is not None:
            return cached
        n_x = self._card_of(a, plain=False)
        n_y = self._card_of(b, plain=False)
        if n_x * n_y > kernel.DENSE_CELL_LIMIT:
            self._count_hook("shard_local_fallback")
            return super().pairwise_mi(a, b)
        job = {"kind": "cmi",
               "x": (("col", "m:" + a),),
               "y": (("col", "m:" + b),),
               "z": None, "n_x": n_x, "n_y": n_y, "n_z": 1,
               "weights": self._weight_keys([a, b])}
        counts = self.pool.counts(self.shard_ctx, [job], self._provider)[0]
        value = kernel.cmi_from_counts(counts.reshape(1, n_y, n_x))
        self._mi_cache[key] = value
        return value

    def entropy_of(self, attribute: str) -> float:
        cached = self._entropy_cache.get(attribute)
        if cached is None:
            card = self._card_of(attribute, plain=True)
            job = {"kind": "entropy",
                   "codes": (("col", "p:" + attribute),),
                   "minlength": card, "weights": None}
            counts = self.pool.counts(self.shard_ctx, [job],
                                      self._provider)[0]
            cached = kernel.finalize(counts)
            self._entropy_cache[attribute] = cached
        return cached

    def conditional_entropy_of(self, target: str,
                               given: Sequence[str]) -> float:
        steps, card = self._steps_for(tuple(sorted(given)), plain=True)
        n_target = self._card_of(target, plain=True)
        if n_target * card > kernel.DENSE_CELL_LIMIT:
            self._count_hook("shard_local_fallback")
            return super().conditional_entropy_of(target, given)
        job = {"kind": "joint",
               "target": (("col", "p:" + target),),
               "given": steps or None,
               "n_target": n_target, "n_given": card, "weights": None}
        counts = self.pool.counts(self.shard_ctx, [job], self._provider)[0]
        return kernel.conditional_entropy_from_counts(
            counts.reshape(card, n_target))

    # ------------------------------------------------------------------ #
    # independence testing (distributed permutation rounds)
    # ------------------------------------------------------------------ #
    def independence_test(self, a: str, b: str,
                          conditioning: Sequence[str] = (),
                          **kwargs) -> IndependenceResult:
        threshold = kwargs.pop("threshold", DEFAULT_CMI_THRESHOLD)
        n_permutations = kwargs.pop("n_permutations", 30)
        alpha = kwargs.pop("alpha", 0.05)
        dependent_threshold = kwargs.pop("dependent_threshold", None)
        seed = kwargs.pop("seed", 0)
        kwargs.pop("block_size", None)  # a blocked-engine tuning knob;
        # the pool sizes its own rounds
        import time as _time
        start = _time.perf_counter() if self.seconds_hook is not None else 0.0
        try:
            with trace.span("permutation_test", a=a, b=b,
                            conditioning=len(conditioning), sharded=True):
                return self._sharded_independence_test(
                    a, b, conditioning, threshold, n_permutations, alpha,
                    dependent_threshold, seed, **kwargs)
        finally:
            if self.seconds_hook is not None:
                self.seconds_hook("permutation_test",
                                  _time.perf_counter() - start)

    def _sharded_independence_test(self, a: str, b: str,
                                   conditioning: Sequence[str],
                                   threshold, n_permutations: int,
                                   alpha: float, dependent_threshold, seed,
                                   **kwargs) -> IndependenceResult:
        # Fuse in *caller* order, like the base plain path: the shard
        # strata refine these codes, and keeping the recipe identical
        # lets sharded and local tests share compaction decisions.
        steps, card = self._steps_for(tuple(conditioning), plain=True)
        n_x = self._card_of(a, plain=True)
        n_y = self._card_of(b, plain=True)
        if n_x * n_y * card > kernel.DENSE_CELL_LIMIT:
            self._count_hook("shard_local_fallback")
            return super().independence_test(
                a, b, conditioning, threshold=threshold,
                n_permutations=n_permutations, alpha=alpha,
                dependent_threshold=dependent_threshold, seed=seed,
                **kwargs)
        weight_keys = self._weight_keys([a, b, *conditioning])
        x_steps = (("col", "p:" + a),)
        y_steps = (("col", "p:" + b),)
        job = {"kind": "cmi", "x": x_steps, "y": y_steps,
               "z": steps or None, "n_x": n_x, "n_y": n_y, "n_z": card,
               "weights": weight_keys}
        counts = self.pool.counts(self.shard_ctx, [job],
                                  self._provider)[0]
        observed = kernel.cmi_from_counts(counts.reshape(card, n_y, n_x))
        if observed <= threshold:
            return IndependenceResult(independent=True, cmi=observed,
                                      p_value=1.0, n_permutations=0)
        if dependent_threshold is not None \
                and observed >= dependent_threshold:
            return IndependenceResult(independent=False, cmi=observed,
                                      p_value=0.0, n_permutations=0)
        if n_permutations <= 0:
            return IndependenceResult(independent=False, cmi=observed,
                                      p_value=0.0, n_permutations=0)
        outcome = self.pool.permutation_rounds(
            self.shard_ctx, x=x_steps, y=y_steps, z=steps or None,
            n_x=n_x, n_y=n_y, n_z=card, weights=weight_keys,
            observed=observed, n_permutations=n_permutations,
            alpha=alpha, seed=seed, budget=self.permutation_budget,
            provider=self._provider)
        permutation.report_outcome(self.counter_hook, outcome,
                                   n_permutations, self.permutation_budget)
        return IndependenceResult(independent=outcome.independent(alpha),
                                  cmi=observed,
                                  p_value=outcome.p_value,
                                  n_permutations=outcome.n_run,
                                  early_exit=outcome.verdict is not None,
                                  budget_extensions=outcome.extensions)

    # ------------------------------------------------------------------ #
    # distributed IRLS (the IPW selection fits)
    # ------------------------------------------------------------------ #
    def distributed_fitter(self, predictor_columns: Sequence[str]):
        """A ``fit_logistic_multi``-shaped solver running on the pool.

        Falls back to the local solver when a shard dies mid-fit (the
        caller already holds the full design for prediction, so the
        fallback costs one local fit, not a re-ship).
        """
        # Global cards with the *encoder's* local-maximum semantics (0 for
        # an all-missing column, not code_cardinality's floor of 1), so the
        # shard designs lay out column-for-column like build_design's.
        cards = []
        for column in predictor_columns:
            codes = self.frame.codes(column)
            cards.append(int(codes.max()) + 1
                         if len(codes) and codes.max() >= 0 else 0)
        keys = ["p:" + column for column in predictor_columns]

        def fit(features, labels_matrix, row_groups=None, l2=1e-3,
                max_iter=50, tol=1e-8):
            try:
                models = self.pool.fit_logistic_multi(
                    self.shard_ctx, keys, cards, labels_matrix,
                    l2=l2, max_iter=max_iter, tol=tol,
                    provider=self._provider)
                self._count_hook("shard_irls_fit")
                return models
            except ReproError:
                self._count_hook("shard_irls_fallback")
                from repro.missingness.logistic import fit_logistic_multi
                return fit_logistic_multi(features, labels_matrix,
                                          row_groups=row_groups, l2=l2,
                                          max_iter=max_iter, tol=tol)

        return fit

    # ------------------------------------------------------------------ #
    # derived problems
    # ------------------------------------------------------------------ #
    # restricted_to is inherited unchanged: the subgroup search evaluates
    # arbitrary row masks, whose slices the workers do not hold — the base
    # implementation already returns a plain local problem over the
    # restricted frame, which is exactly the hybrid we want.

    def subset_candidates(self, candidates: Iterable[str]
                          ) -> "ShardedExplanationProblem":
        """A reduced-candidate clone that stays on the data plane."""
        clone = ShardedExplanationProblem.__new__(ShardedExplanationProblem)
        base = super().subset_candidates(candidates)
        clone.__dict__.update(base.__dict__)
        clone.pool = self.pool
        clone.shard_ctx = self.shard_ctx
        clone._steps_cache = self._steps_cache
        clone._plain_steps_cache = self._plain_steps_cache
        clone._weight_keys_by_attr = self._weight_keys_by_attr
        return clone
