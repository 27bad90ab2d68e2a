"""First-class pipeline stages of the explanation engine.

Each stage implements one phase of the MESA pipeline (Sections 3–4 of the
paper) as an object with a uniform ``run(state, context)`` surface, so that
an :class:`~repro.engine.pipeline.ExplanationPipeline` can compose, replace
or instrument them independently:

* :class:`ExtractionStage` — mine candidate attributes from the knowledge
  source (cached across queries in the :class:`PipelineContext`);
* :class:`CandidateStage` — assemble the candidate set ``A``;
* :class:`OfflinePruningStage` — constant / mostly-missing / identifier
  attributes (query independent, cached in the context);
* :class:`OnlinePruningStage` — build the problem instance, then drop
  logical dependencies with ``T``/``O`` and low-relevance attributes;
* :class:`SelectionBiasStage` — recoverability analysis per surviving
  attribute with missing values; IPW weights for the biased ones;
* :class:`SearchStage` — the MCIMR explanation search.

Stages communicate through a mutable :class:`QueryState` and record their
wall-clock cost in its timer under the stage's timing labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.candidates import CandidateSet, build_candidate_set
from repro.core.explanation import Explanation
from repro.core.mcimr import mcimr
from repro.core.problem import CorrelationExplanationProblem
from repro.core.pruning import PruningResult, online_prune
from repro.engine.context import PipelineContext
from repro.engine.config import MESAConfig
from repro.infotheory.permutation import PermutationBudget
from repro.missingness.fitcache import compute_ipw_weights_batched
from repro.missingness.ipw import IPWWeights
from repro.missingness.recoverability import RecoverabilityReport, attribute_selection_bias
from repro.query.aggregate_query import AggregateQuery
from repro.table.table import Table
from repro.utils.timing import Timer


@dataclass
class QueryState:
    """Everything the stages accumulate while answering one query."""

    query: AggregateQuery
    config: MESAConfig
    k: int
    timer: Timer = field(default_factory=Timer)
    augmented: Optional[Table] = None
    extracted_names: List[str] = field(default_factory=list)
    candidate_set: Optional[CandidateSet] = None
    candidates: List[str] = field(default_factory=list)
    pruning: Optional[PruningResult] = None
    problem: Optional[CorrelationExplanationProblem] = None
    selection_bias_reports: List[RecoverabilityReport] = field(default_factory=list)
    ipw_weights: Dict[str, IPWWeights] = field(default_factory=dict)
    explanation: Optional[Explanation] = None
    #: Memoised search results keyed by explainer cache token (the searches
    #: are deterministic — every permutation test is seeded — so a token hit
    #: returns the identical explanation without re-searching).
    search_cache: Dict[object, Explanation] = field(default_factory=dict)


class PipelineStage:
    """Base class of all pipeline stages.

    ``name`` identifies the stage in instrumentation (hooks, counters and
    the context's cumulative timings); ``is_search`` marks the stage(s) that
    consume a prepared problem and produce the explanation, which lets the
    pipeline cache everything before them per query.
    """

    name: str = "stage"
    is_search: bool = False

    def run(self, state: QueryState, context: PipelineContext) -> None:
        raise NotImplementedError


class ExtractionStage(PipelineStage):
    """Join the dataset with the attributes mined from the knowledge source."""

    name = "extraction"

    def run(self, state: QueryState, context: PipelineContext) -> None:
        with state.timer.measure("extraction"):
            state.augmented = context.augmented_table(state.config.hops)
            state.extracted_names = context.extracted_attribute_names(state.config.hops)


class CandidateStage(PipelineStage):
    """Assemble the candidate set ``A`` for the query."""

    name = "candidates"

    def run(self, state: QueryState, context: PipelineContext) -> None:
        with state.timer.measure("candidates"):
            state.candidate_set = build_candidate_set(
                state.augmented, state.query,
                extracted_attributes=state.extracted_names,
                exclude=state.config.excluded_columns,
            )
            state.candidates = state.candidate_set.all


class OfflinePruningStage(PipelineStage):
    """Query-independent pruning, answered from the context cache."""

    name = "offline_pruning"

    def run(self, state: QueryState, context: PipelineContext) -> None:
        config = state.config
        with state.timer.measure("offline_pruning"):
            if config.use_offline_pruning:
                offline = context.offline_pruning(
                    state.candidate_set.all, hops=config.hops,
                    max_missing_fraction=config.max_missing_fraction,
                    high_entropy_unique_ratio=config.high_entropy_unique_ratio,
                )
                state.pruning = PruningResult(kept=list(offline.kept),
                                              dropped=dict(offline.dropped))
                kept = set(offline.kept)
                state.candidates = [name for name in state.candidates if name in kept]
            else:
                state.pruning = PruningResult(kept=list(state.candidates), dropped={})


def _build_problem(state: QueryState, context: PipelineContext,
                   frame, context_table, attribute_weights=None,
                   ) -> CorrelationExplanationProblem:
    """Build the problem instance, sharded when a data plane is attached.

    With ``context.shard_pool`` set (rows-mode serving) the problem routes
    its counts through the pool's row-shard workers; otherwise it runs
    entirely in this process.
    """
    config = state.config
    kwargs = dict(
        attribute_weights=attribute_weights, n_bins=config.n_bins,
        frame=frame, context_table=context_table,
        permutation_budget=PermutationBudget(
            max_permutations=config.max_responsibility_permutations or None,
            early_exit=config.permutation_early_exit
            or bool(config.max_responsibility_permutations),
            rng_stream=config.permutation_rng_stream,
        ),
        counter_hook=context.count, seconds_hook=context.add_seconds,
    )
    if context.shard_pool is not None:
        from repro.distributed.problem import ShardedExplanationProblem
        handle = context.shard_context(
            state.query.context, hops=config.hops, n_bins=config.n_bins,
            n_rows=context_table.n_rows)
        return ShardedExplanationProblem(
            context.shard_pool, handle,
            state.augmented, state.query, state.candidates, **kwargs)
    return CorrelationExplanationProblem(
        state.augmented, state.query, state.candidates, **kwargs)


class OnlinePruningStage(PipelineStage):
    """Build the problem instance, then apply the query-specific rules."""

    name = "online_pruning"

    def run(self, state: QueryState, context: PipelineContext) -> None:
        config = state.config
        with state.timer.measure("problem"):
            # The context-restricted table and its encoded columns are
            # cached per (hops, n_bins, canonical context) on the pipeline
            # context, so repeated-context queries skip the row filter and
            # every re-factorisation.
            context_table, frame = context.context_frame(
                state.query.context, hops=config.hops, n_bins=config.n_bins)
            state.problem = _build_problem(state, context, frame, context_table)
        with state.timer.measure("online_pruning"):
            if config.use_online_pruning:
                online = online_prune(
                    state.problem, state.candidates,
                    fd_entropy_threshold=config.fd_entropy_threshold,
                    relevance_cmi_threshold=config.relevance_cmi_threshold,
                    determination_ratio=config.determination_ratio,
                )
                state.pruning.dropped.update(online.dropped)
                state.candidates = online.kept
            state.pruning.kept = list(state.candidates)


class SelectionBiasStage(PipelineStage):
    """Recoverability analysis + IPW re-weighting of biased attributes."""

    name = "selection_bias"

    def run(self, state: QueryState, context: PipelineContext) -> None:
        config = state.config
        with state.timer.measure("selection_bias"):
            if config.handle_selection_bias:
                reports, weights = self._analyse(state, context)
                state.selection_bias_reports = reports
                state.ipw_weights = weights
                if weights:
                    # The weighted rebuild covers the same context rows;
                    # adopting the frame and table keeps every column
                    # factorised (and the context filtered) at most once.
                    state.problem = _build_problem(
                        state, context,
                        state.problem.frame, state.problem.context_table,
                        attribute_weights={name: w.weights
                                           for name, w in weights.items()})
            # Narrow the problem to the surviving candidates; the CMI caches
            # are shared, so this is free.
            state.problem = state.problem.subset_candidates(state.candidates)

    def _analyse(self, state: QueryState, context: PipelineContext,
                 ) -> Tuple[List[RecoverabilityReport], Dict[str, IPWWeights]]:
        config = state.config
        problem = state.problem
        reports: List[RecoverabilityReport] = []
        biased: List[str] = []
        predictors = ipw_predictor_columns(context.table, state.query, config)
        for attribute in state.candidates:
            column = problem.context_table.column(attribute)
            if column.missing_fraction() < config.min_missing_for_bias_check:
                continue
            report = attribute_selection_bias(problem.frame, problem.outcome,
                                              problem.exposure, attribute,
                                              n_permutations=0)
            reports.append(report)
            if report.selection_bias:
                biased.append(attribute)
        if not biased:
            return reports, {}
        fit_start = time.perf_counter()
        try:
            weights = self._fit_selection_models(problem, biased, predictors,
                                                 context)
        finally:
            context.add_seconds("ipw_fit", time.perf_counter() - fit_start)
        return reports, weights

    @staticmethod
    def _fit_selection_models(problem, biased: List[str], predictors: List[str],
                              context: PipelineContext,
                              ) -> Dict[str, IPWWeights]:
        """Fit the selection models of the biased attributes.

        Every fit routes through the context's
        :class:`~repro.missingness.fitcache.SelectionFitCache` (hits are
        counted as ``ipw_fit_hit``) and the misses batch into one
        multi-label IRLS solve.
        """
        def build_design():
            """One-hot features + binomial row groups of the shared design.

            Every biased attribute fits its selection model over the same
            design; grouping identical predictor rows once lets each fit
            run on binomial groups instead of raw rows.  A missing code is
            its own category (it is an all-zero one-hot block).
            """
            if not predictors:
                return None, None
            from repro.missingness.logistic import one_hot_encode_codes
            predictor_codes = [problem.frame.codes(column) for column in predictors]
            return (one_hot_encode_codes(predictor_codes),
                    _predictor_row_groups(predictor_codes))

        # The design is built lazily, only when some fit misses the cache —
        # a fully cached query (the warm serving shape) skips the one-hot
        # encoding entirely.  A sharded problem contributes its distributed
        # IRLS solver, so cache misses fit on the row shards (with a local
        # fallback inside the fitter).
        fitter = None
        if predictors and hasattr(problem, "distributed_fitter"):
            fitter = problem.distributed_fitter(predictors)
        return compute_ipw_weights_batched(
            problem.frame, biased, predictors,
            design_factory=build_design,
            cache=context.ipw_fit_cache, counter_hook=context.count,
            fitter=fitter)


class SearchStage(PipelineStage):
    """The MCIMR search with the responsibility-test stopping criterion."""

    name = "search"
    is_search = True

    def __init__(self, method_name: str = "mesa"):
        self.method_name = method_name

    def run(self, state: QueryState, context: PipelineContext) -> None:
        config = state.config
        token = ("mcimr", self.method_name, state.k, config)
        with state.timer.measure("mcimr"):
            explanation = state.search_cache.get(token)
            if explanation is None:
                explanation = mcimr(
                    state.problem, k=state.k, candidates=state.candidates,
                    use_responsibility_test=config.use_responsibility_test,
                    responsibility_threshold=config.responsibility_threshold,
                    responsibility_permutations=config.responsibility_permutations,
                    method_name=self.method_name,
                    speculative=config.speculative_search,
                )
                state.search_cache[token] = explanation
            state.explanation = explanation


def default_stages(method_name: str = "mesa") -> List[PipelineStage]:
    """The paper's seven-phase pipeline as a composable stage list."""
    return [
        ExtractionStage(),
        CandidateStage(),
        OfflinePruningStage(),
        OnlinePruningStage(),
        SelectionBiasStage(),
        SearchStage(method_name=method_name),
    ]


def _predictor_row_groups(predictor_codes) -> "np.ndarray":
    """Dense ids (``0..k-1``) of the distinct predictor-value tuples per row.

    Missing codes are remapped to an extra per-column category before
    fusing, so two rows group together exactly when their one-hot feature
    rows are identical.
    """
    import numpy as np

    from repro.infotheory import kernel

    fused = None
    card = 1
    for codes in predictor_codes:
        codes = np.asarray(codes, dtype=np.int64)
        extra_card = kernel.code_cardinality(codes) + 1
        remapped = np.where(codes < 0, extra_card - 1, codes)
        if fused is None:
            fused, card = remapped, extra_card
        else:
            fused, card = kernel.fuse_codes(fused, card, remapped, extra_card)
        fused, card = kernel.maybe_compact(fused, card)
    groups, _ = kernel.compact_codes(fused)
    return groups


def ipw_predictor_columns(table: Table, query: AggregateQuery,
                          config: MESAConfig) -> List[str]:
    """Columns of the original dataset used as selection-model features."""
    if config.ipw_predictor_columns is not None:
        return [name for name in config.ipw_predictor_columns if name in table]
    predictors: List[str] = []
    for name in table.column_names:
        if name in (query.outcome,):
            continue
        if name in config.excluded_columns:
            continue
        column = table.column(name)
        if column.missing_count() == 0 and column.n_unique() <= 64:
            predictors.append(name)
    return predictors
