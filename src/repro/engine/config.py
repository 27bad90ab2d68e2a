"""Configuration of the explanation pipeline.

The class keeps its historical name ``MESAConfig`` (it configures the
paper's MESA pipeline); it lives in the engine package because every stage,
explainer and cache key is driven by it.  ``repro.mesa.config`` re-exports
it for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class MESAConfig:
    """Tunable knobs of the MESA pipeline.

    The knobs choose *what* the pipeline computes — thresholds, pruning and
    search policies, permutation budgets, worker fan-out — never *how* an
    estimate is computed: every CMI estimate runs on the contingency-count
    kernel, every permutation test on the blocked engine and every IPW
    selection fit through the cached multi-label solve.

    Attributes
    ----------
    k:
        Upper bound on the explanation size (the paper uses 5).
    hops:
        Number of knowledge-graph hops followed during extraction (the paper
        uses 1 by default; the multi-hop appendix experiment uses 2).
    n_bins:
        Number of bins for numeric attributes in the information-theoretic
        estimates.
    use_offline_pruning / use_online_pruning:
        Toggles for the two pruning phases; disabling both yields the MESA-
        variant of the experiments.
    handle_selection_bias:
        Whether to run the recoverability analysis and apply IPW weights.
    min_missing_for_bias_check:
        Attributes missing in fewer rows than this fraction skip the
        recoverability analysis (their complete-case estimates are unbiased
        enough and the test costs time).
    max_missing_fraction:
        Offline-pruning threshold: attributes with more missing values are
        dropped.
    high_entropy_unique_ratio:
        Offline-pruning threshold for identifier-like attributes.
    fd_entropy_threshold:
        Online-pruning threshold for approximate functional dependencies.
    relevance_cmi_threshold:
        Online-pruning threshold for the low-relevance rule.
    determination_ratio:
        Online-pruning threshold for attributes that nearly determine the
        exposure or outcome (``H(T|E)/H(T)`` below the ratio); 0 disables.
    responsibility_threshold:
        CMI threshold of the MCIMR stopping criterion.
    responsibility_permutations:
        Number of permutations of the stopping criterion's independence
        test; permutations correct the upward small-sample bias of the
        plug-in CMI estimate.
    use_responsibility_test:
        Whether MCIMR may stop early (ablation switch).
    ipw_predictor_columns:
        Columns used as features of the selection (logistic) model; ``None``
        means "all fully-observed original dataset columns except the
        outcome".
    excluded_columns:
        Columns never considered as candidates (identifiers).
    permutation_early_exit:
        Let the sequential test stop a permutation run as soon as the
        verdict is determined (deterministic exceedance bracket, plus a
        Clopper–Pearson bound for large budgets).  Off by default: early
        exit keeps the verdicts but changes how many permutations run, so
        reported p-values are no longer bit-reproducible against the full
        run.  ``context.counters['perm_early_exit']`` / ``['perm_saved']``
        count the exits and the permutations saved.
    max_responsibility_permutations:
        Adaptive permutation-budget cap.  ``0`` (default) disables
        adaptation; a positive value (must be >=
        ``responsibility_permutations``) lets any permutation test whose
        verdict is still statistically uncertain when its base budget is
        exhausted — the Clopper–Pearson interval on the exceedance
        probability straddles ``alpha`` — extend its budget geometrically
        up to the cap, while clear-cut tests exit early (adaptive budgets
        imply the sequential early-exit decision).  A test that never
        extends keeps the fixed-budget verdict; an extended test replaces
        a statistically uncertain verdict with one resting on more
        permutations.  ``context.counters['perm_budget_extended']`` /
        ``['perm_budget_saved']`` count the extensions and the
        permutations saved against always paying the base budget.
    permutation_rng_stream:
        How permutation tests draw their stratified permutations:
        ``"legacy"`` (default) is the bit-identical per-stratum
        Fisher–Yates stream; ``"argsort"`` vectorises the draw as one
        uniform block + segmented stable argsort — several times faster
        on many-strata plans, but a *different* documented RNG stream, so
        p-values are no longer bit-reproducible against the legacy stream
        (verdict distribution is identical; intended for early-exit /
        adaptive modes where exact counts already vary).
    speculative_search:
        Overlap MCIMR rounds: while round ``i``'s responsibility test
        runs, a worker thread speculatively scores round ``i+1``'s
        candidates (disjoint memo state), discarding the speculation when
        the stopping criterion fires.  Explanations are bit-identical to
        the sequential search; ``context.counters['speculation_hit']`` /
        ``['speculation_waste']`` count consumed and discarded
        speculations.
    n_jobs:
        Worker count for the batch APIs (``explain_many`` /
        ``explain_many_envelopes``); ``1`` (default) runs serially, ``-1``
        uses every available CPU.
    parallel_backend:
        ``"thread"`` (default) or ``"process"`` — how batch workers are
        executed.  The process backend ships results back as
        JSON-serializable envelopes and therefore only applies to
        ``explain_many_envelopes``.
    """

    k: int = 5
    hops: int = 1
    n_bins: int = 8
    use_offline_pruning: bool = True
    use_online_pruning: bool = True
    handle_selection_bias: bool = True
    min_missing_for_bias_check: float = 0.02
    max_missing_fraction: float = 0.9
    high_entropy_unique_ratio: float = 0.9
    fd_entropy_threshold: float = 0.05
    relevance_cmi_threshold: float = 0.01
    determination_ratio: float = 0.25
    responsibility_threshold: float = 0.01
    responsibility_permutations: int = 20
    use_responsibility_test: bool = True
    ipw_predictor_columns: Optional[Tuple[str, ...]] = None
    excluded_columns: Tuple[str, ...] = ()
    permutation_early_exit: bool = False
    max_responsibility_permutations: int = 0
    permutation_rng_stream: str = "legacy"
    speculative_search: bool = False
    n_jobs: int = 1
    parallel_backend: str = "thread"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.hops < 1:
            raise ConfigurationError(f"hops must be >= 1, got {self.hops}")
        if self.n_bins < 2:
            raise ConfigurationError(f"n_bins must be >= 2, got {self.n_bins}")
        if not 0.0 <= self.max_missing_fraction <= 1.0:
            raise ConfigurationError("max_missing_fraction must lie in [0, 1]")
        if not 0.0 <= self.min_missing_for_bias_check <= 1.0:
            raise ConfigurationError("min_missing_for_bias_check must lie in [0, 1]")
        if self.fd_entropy_threshold < 0.0:
            raise ConfigurationError(
                f"fd_entropy_threshold must be >= 0, got {self.fd_entropy_threshold}"
            )
        if self.responsibility_permutations < 0:
            raise ConfigurationError(
                f"responsibility_permutations must be >= 0, "
                f"got {self.responsibility_permutations}"
            )
        if self.max_responsibility_permutations < 0:
            raise ConfigurationError(
                f"max_responsibility_permutations must be >= 0, "
                f"got {self.max_responsibility_permutations}"
            )
        if (self.max_responsibility_permutations
                and self.max_responsibility_permutations
                < self.responsibility_permutations):
            raise ConfigurationError(
                f"max_responsibility_permutations "
                f"({self.max_responsibility_permutations}) must be >= "
                f"responsibility_permutations "
                f"({self.responsibility_permutations})"
            )
        if self.permutation_rng_stream not in ("legacy", "argsort"):
            raise ConfigurationError(
                f"permutation_rng_stream must be 'legacy' or 'argsort', "
                f"got {self.permutation_rng_stream!r}"
            )
        if self.n_jobs < 1 and self.n_jobs != -1:
            raise ConfigurationError(
                f"n_jobs must be >= 1 (or -1 for all CPUs), got {self.n_jobs}"
            )
        if self.parallel_backend not in ("thread", "process"):
            raise ConfigurationError(
                f"parallel_backend must be 'thread' or 'process', "
                f"got {self.parallel_backend!r}"
            )

    def without_pruning(self) -> "MESAConfig":
        """The MESA- variant: no offline or online pruning."""
        return replace(self, use_offline_pruning=False, use_online_pruning=False)

    def with_overrides(self, **kwargs) -> "MESAConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)
