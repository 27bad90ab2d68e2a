"""The shared per-pipeline context: cross-query caches and instrumentation.

A :class:`PipelineContext` is bound to one dataset (table + knowledge source
+ extraction specification) and owns everything that is *query independent*
and therefore reusable across queries — the paper's "across-queries"
pre-processing phase, generalised:

* the **extraction cache** — the augmented table (dataset joined with every
  extracted attribute), keyed by the number of KG hops;
* the **offline-pruning cache** — the query-independent pruning verdict for
  every column of the augmented table, keyed by the pruning thresholds;
* the **encoded-frame cache** — the context-restricted table and its
  :class:`~repro.infotheory.encoding.EncodedFrame`, keyed by
  ``(hops, n_bins, canonical context predicate)``, so two queries sharing a
  WHERE clause factorise each column once — the common serving shape
  (repeated-context batches) skips re-encoding entirely;
* **counters** — how often each expensive phase actually ran (cache misses),
  which the batch API's tests and the benchmarks assert against;
* **stage instrumentation** — cumulative per-stage wall-clock seconds and
  user-registered :class:`StageHook` callbacks fired around every stage.

Several :class:`~repro.engine.pipeline.ExplanationPipeline` instances (for
example the default configuration and its no-pruning MESA- variant) may
share one context, so cache keys always include the configuration values
the cached artefact depends on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pruning import PruningResult, offline_prune
from repro.exceptions import ConfigurationError, QueryError
from repro.infotheory.encoding import EncodedFrame
from repro.kg.extraction import AttributeExtractor, ExtractionResult
from repro.kg.graph import KnowledgeGraph
from repro.missingness.fitcache import SelectionFitCache
from repro.obs import trace
from repro.table.expressions import Predicate, canonical_predicate_key
from repro.table.table import Table

#: Cached offline-pruning verdict for a column the augmented table does
#: not have: excluded from both ``kept`` and ``dropped``, never re-probed.
_ABSENT_COLUMN = "__absent_column__"


class StageHook:
    """Instrumentation callback invoked around every pipeline stage.

    Subclass and override the methods you care about, then register the
    hook with :meth:`PipelineContext.add_hook`.  Hooks observe; they must
    not mutate the state.
    """

    def on_stage_start(self, stage_name: str, state) -> None:
        """Called immediately before a stage runs."""

    def on_stage_end(self, stage_name: str, state, seconds: float) -> None:
        """Called after a stage finished, with its wall-clock duration."""


class PipelineContext:
    """Cross-query caches and instrumentation shared by pipeline runs.

    Parameters
    ----------
    table:
        The input dataset ``D``.
    knowledge_graph:
        The knowledge source candidate attributes are mined from; ``None``
        disables extraction.
    extraction_specs:
        Which columns to link against which entity classes (see
        :class:`repro.datasets.registry.ExtractionSpec`).
    """

    #: Bound on the encoded-frame cache (LRU): each entry holds one
    #: context-restricted table plus its lazily-encoded columns.
    MAX_FRAME_CACHE = 32

    #: Bound on the IPW selection-fit cache (LRU): each entry holds one
    #: fitted selection model's weight vector (``8 * n_rows`` bytes).
    MAX_IPW_FIT_CACHE = 256

    def __init__(self, table: Table, knowledge_graph: Optional[KnowledgeGraph] = None,
                 extraction_specs: Sequence = ()):
        self.table = table
        self.knowledge_graph = knowledge_graph
        self.extraction_specs = tuple(extraction_specs)
        if self.extraction_specs and knowledge_graph is None:
            raise ConfigurationError(
                "Extraction specs were provided but no knowledge graph was given"
            )
        self.counters: Dict[str, int] = {}
        self.stage_seconds: Dict[str, float] = {}
        #: Monotonic dataset-version component of every canonical cache key
        #: derived from this context (frame cache, serving query keys).
        #: Bumped by the serving layer on registration and cache
        #: invalidation, so cached artefacts age out coherently across
        #: every cache layer — and every process — at once.
        self.dataset_version: int = 0
        #: Optional row-sharded data plane
        #: (:class:`repro.distributed.coordinator.ShardPool`).  When
        #: attached, the engine stages build
        #: :class:`~repro.distributed.problem.ShardedExplanationProblem`
        #: instances whose counts scatter-gather across the pool's workers
        #: instead of running on this process's arrays.  ``shard_label``
        #: names the dataset inside the pool's context keys.
        self.shard_pool = None
        self.shard_label: Optional[str] = None
        # Counters are written from serving threads (cache verdicts) and
        # batch workers concurrently; the read-modify-write increments and
        # the observability snapshots need a lock to stay exact.
        self._counter_lock = threading.Lock()
        # Held while the extraction and offline-pruning artefacts are built:
        # a serving re-warm builds them on its own thread while the batch
        # worker answers a live query, and the second caller must wait for
        # the first build, not repeat it.  Re-entrant because pruning reads
        # the augmented table.
        self._artefact_lock = threading.RLock()
        self.hooks: List[StageHook] = []
        self._extraction: Dict[int, Tuple[Table, Tuple[ExtractionResult, ...]]] = {}
        #: Per-column offline verdicts (``None`` = kept, else the drop
        #: reason), keyed by the threshold tuple.  Columns are judged
        #: lazily, in batches of whatever a caller asks about and is not
        #: cached yet — so excluded / never-candidate columns of a wide
        #: table are never scanned at all, while the across-queries
        #: amortisation (each column judged at most once) is preserved.
        self._offline: Dict[Tuple[int, float, float],
                            Dict[str, Optional[str]]] = {}
        self._frames: "OrderedDict[Tuple[int, int, str, int], Tuple[Table, EncodedFrame]]" = \
            OrderedDict()
        #: Pre-encoded frames published by a frame-store owner, keyed by
        #: ``(hops, n_bins, canonical context predicate)`` — *without* the
        #: dataset version: adoption is version-agnostic and the whole map
        #: drops on :meth:`bump_dataset_version` (a bump means the data may
        #: have changed, so owner-encoded artefacts are no longer trusted).
        #: Values are :class:`repro.shm.manifest.FrameManifest` records;
        #: the frame itself materialises lazily on the first cache miss as
        #: read-only views over the shared segments.
        self._shared_frames: Dict[Tuple[int, int, str], object] = {}
        #: Finished IPW selection fits keyed by (design signature, observed
        #: mask hash) — queries sharing a context (and attributes sharing a
        #: missingness pattern) fit each selection model at most once.
        self.ipw_fit_cache = SelectionFitCache(self.MAX_IPW_FIT_CACHE)

    # ------------------------------------------------------------------ #
    # counters and hooks
    # ------------------------------------------------------------------ #
    def count(self, name: str, increment: int = 1) -> None:
        """Increment a named counter (cache misses, stage runs, queries)."""
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + increment

    def add_seconds(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock seconds of a backend phase.

        The batched inference backends report fine-grained phase timings
        (``permutation_test``, ``ipw_fit``) through this hook; they land in
        ``stage_seconds`` next to the stage-level timings, so ``/stats``
        and the benchmarks surface them without extra plumbing.
        """
        with self._counter_lock:
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds

    def merge_counters(self, counters: Dict[str, int],
                       stage_seconds: Optional[Dict[str, float]] = None) -> None:
        """Fold a worker context's counters (and timings) into this one.

        The parallel batch executor gives every worker a private forked
        context; after the batch the per-worker cache counters are merged
        back here so ``context.counters`` stays the single source of truth
        for batch observability.
        """
        with self._counter_lock:
            for name, increment in counters.items():
                self.counters[name] = self.counters.get(name, 0) + increment
            if stage_seconds:
                for name, seconds in stage_seconds.items():
                    self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds

    def observability_snapshot(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """A consistent ``(counters, stage_seconds)`` copy.

        Observability readers (``GET /stats``) must not iterate the live
        dicts while a worker inserts a first-time key.
        """
        with self._counter_lock:
            return dict(self.counters), dict(self.stage_seconds)

    def fork(self) -> "PipelineContext":
        """A worker context: same dataset, warmed caches, private counters.

        The expensive cross-query artefacts are shared by reference —
        the augmented table and the offline-pruning verdicts are immutable
        once built, and the encoded frames only *accumulate* deterministic
        per-column encodings (safe to race: the worst case is a redundant
        encode, never a wrong value) — while counters, timings and hooks
        start empty so concurrent workers never write to shared state.
        """
        forked = PipelineContext(self.table, self.knowledge_graph,
                                 self.extraction_specs)
        forked.dataset_version = self.dataset_version
        forked.shard_pool = self.shard_pool
        forked.shard_label = self.shard_label
        forked._extraction = dict(self._extraction)
        # Verdict maps accumulate lazily now — give the fork its own dicts
        # so neither side observes the other's later additions mid-iteration.
        forked._offline = {key: dict(verdicts)
                           for key, verdicts in self._offline.items()}
        forked._frames = OrderedDict(self._frames)
        forked._shared_frames = dict(self._shared_frames)
        forked.ipw_fit_cache = self.ipw_fit_cache.copy()
        return forked

    def bump_dataset_version(self) -> int:
        """Advance the dataset version, invalidating version-keyed caches.

        The new version becomes part of every canonical key derived from
        this context, so the encoded-frame cache (and the serving layer's
        envelope/negative caches, which embed the version in their query
        keys) stop answering from pre-bump artefacts immediately; the stale
        entries age out of their bounded LRUs.  The IPW fit cache is keyed
        by content digests rather than canonical keys, so it is dropped
        outright.
        """
        with self._counter_lock:
            self.dataset_version += 1
            version = self.dataset_version
        self.ipw_fit_cache = SelectionFitCache(self.MAX_IPW_FIT_CACHE)
        # Owner-published frames describe pre-bump data; drop the adoption
        # map so post-bump misses re-encode locally (the owner re-publishes
        # on its next warm pass).
        self._shared_frames = {}
        self.count("dataset_version_bumps")
        return version

    def add_hook(self, hook: StageHook) -> None:
        """Register an instrumentation hook fired around every stage."""
        self.hooks.append(hook)

    def notify_stage_start(self, stage_name: str, state) -> None:
        """Fire ``on_stage_start`` on every registered hook."""
        for hook in self.hooks:
            hook.on_stage_start(stage_name, state)

    def notify_stage_end(self, stage_name: str, state, seconds: float) -> None:
        """Record the stage duration and fire ``on_stage_end`` hooks."""
        with self._counter_lock:
            self.stage_seconds[stage_name] = \
                self.stage_seconds.get(stage_name, 0.0) + seconds
        for hook in self.hooks:
            hook.on_stage_end(stage_name, state, seconds)

    def shard_context(self, context: Predicate, *, hops: int, n_bins: int,
                      n_rows: int):
        """The shard pool's context handle for one context frame.

        Keyed like :meth:`context_frame` plus the dataset label, so the
        worker-resident column slices age out with the same identity as
        the coordinator's encoded frames (a version bump strands the old
        context, which the pool's LRU then evicts).
        """
        if self.shard_pool is None:
            raise ConfigurationError("no shard pool is attached to this context")
        return self.shard_pool.context_handle(
            self.shard_label or self.table.name or "dataset",
            self.dataset_version, hops, n_bins,
            canonical_predicate_key(context), n_rows)

    # ------------------------------------------------------------------ #
    # extraction cache (across queries)
    # ------------------------------------------------------------------ #
    def augmented_table(self, hops: int = 1) -> Table:
        """The dataset joined with every extracted attribute (cached per hops)."""
        return self._extraction_for(hops)[0]

    def extraction_results(self, hops: int = 1) -> List[ExtractionResult]:
        """Per-spec extraction results for the given hop count."""
        return list(self._extraction_for(hops)[1])

    def extracted_attribute_names(self, hops: int = 1) -> List[str]:
        """All attribute names added by extraction."""
        names: List[str] = []
        for result in self._extraction_for(hops)[1]:
            names.extend(result.attribute_names)
        return names

    def _extraction_for(self, hops: int) -> Tuple[Table, Tuple[ExtractionResult, ...]]:
        built = self._extraction.get(hops)
        if built is not None:
            return built
        with self._artefact_lock:
            return self._build_extraction(hops)

    def _build_extraction(self, hops: int) -> Tuple[Table, Tuple[ExtractionResult, ...]]:
        if hops not in self._extraction:
            self.count("extraction_runs")
            augmented = self.table
            results: List[ExtractionResult] = []
            if self.knowledge_graph is not None and self.extraction_specs:
                extractor = AttributeExtractor(self.knowledge_graph)
                for spec in self.extraction_specs:
                    augmented, result = extractor.augment(
                        augmented, spec.column, hops=hops,
                        entity_class=getattr(spec, "entity_class", None),
                        attribute_prefix=getattr(spec, "prefix", ""),
                    )
                    results.append(result)
            self._extraction[hops] = (augmented, tuple(results))
        return self._extraction[hops]

    # ------------------------------------------------------------------ #
    # offline-pruning cache (across queries)
    # ------------------------------------------------------------------ #
    def offline_pruning(self, candidates: Sequence[str], *, hops: int = 1,
                        max_missing_fraction: float = 0.9,
                        high_entropy_unique_ratio: float = 0.9) -> PruningResult:
        """The offline pruning verdict restricted to the given candidates.

        Offline pruning is query independent and per-attribute, so the
        context judges each column exactly once and answers every query
        from the cached verdicts — this is what lets
        :meth:`ExplanationPipeline.explain_many` amortise the
        pre-processing across a whole batch of queries.  Verdicts are
        computed lazily for whatever columns a caller actually asks
        about: a wide table's excluded or never-candidate columns are
        never scanned (``n_unique`` over a quarter-million-row identifier
        column is a sort the pipeline would otherwise pay per dataset).
        """
        key = (hops, max_missing_fraction, high_entropy_unique_ratio)
        verdicts = self._offline.get(key, {})
        if any(name not in verdicts for name in candidates):
            with self._artefact_lock:
                verdicts = self._judge_offline(key, candidates)
        kept = [name for name in candidates
                if name in verdicts and verdicts[name] is None]
        dropped = {name: verdicts[name] for name in candidates
                   if verdicts.get(name) is not None
                   and verdicts[name] is not _ABSENT_COLUMN}
        return PruningResult(kept=kept, dropped=dropped)

    def _judge_offline(self, key: Tuple[int, float, float],
                       candidates: Sequence[str]) -> Dict[str, Optional[str]]:
        """Judge the candidates without a cached verdict; returns the
        verdict map.  Called with the artefact lock held."""
        hops, max_missing_fraction, high_entropy_unique_ratio = key
        verdicts = self._offline.setdefault(key, {})
        todo = [name for name in candidates if name not in verdicts]
        if todo:
            self.count("offline_pruning_runs")
            augmented = self.augmented_table(hops)
            judged = offline_prune(
                augmented, [name for name in todo if name in augmented],
                max_missing_fraction=max_missing_fraction,
                high_entropy_unique_ratio=high_entropy_unique_ratio,
            )
            for name in judged.kept:
                verdicts[name] = None
            verdicts.update(judged.dropped)
            for name in todo:
                # Absent columns stay out of both kept and dropped (the
                # historical contract); remember the verdict so they are
                # not re-probed on every call.
                verdicts.setdefault(name, _ABSENT_COLUMN)
        return verdicts

    # ------------------------------------------------------------------ #
    # encoded-frame cache (across queries)
    # ------------------------------------------------------------------ #
    def context_frame(self, context: Predicate, *, hops: int = 1,
                      n_bins: int = 8) -> Tuple[Table, EncodedFrame]:
        """The context-restricted augmented table and its encoded frame.

        Keyed by ``(hops, n_bins, canonical context predicate)`` and bounded
        (LRU), so any number of queries sharing a WHERE clause filter the
        table once and factorise each column at most once — the repeated
        context batch, the common serving shape, pays the encoding cost only
        on its first query.  Frames encode lazily, so a cache hit also
        inherits every column the earlier queries already touched.
        """
        context_key = canonical_predicate_key(context)
        key = (hops, n_bins, context_key, self.dataset_version)
        entry = self._frames.get(key)
        if entry is not None:
            self._frames.move_to_end(key)
            self.count("frame_cache_hits")
            trace.annotate(frame_cache="hit")
            return entry
        manifest = self._shared_frames.get((hops, n_bins, context_key))
        if manifest is not None:
            adopted = self._adopt_frame(key, manifest, context, hops)
            if adopted is not None:
                return adopted
        self.count("frame_cache_misses")
        with trace.span("frame.encode", hops=hops, n_bins=n_bins):
            return self._build_frame(key, context, hops, n_bins)

    def adopt_shared_frame(self, manifest) -> None:
        """Install an owner-published pre-encoded frame for later adoption.

        ``manifest`` is a :class:`repro.shm.manifest.FrameManifest`; its
        ``key`` is the version-less frame identity.  The next cache miss
        for that identity attaches read-only views over the shared code
        arrays instead of re-encoding — the ``warm()`` encode-once-per-box
        path of the frame store.
        """
        self._shared_frames[tuple(manifest.key)] = manifest

    def _adopt_frame(self, key, manifest, context: Predicate,
                     hops: int) -> Optional[Tuple[Table, EncodedFrame]]:
        """Materialise a published frame as views (None on any mismatch).

        Filtering the context table locally is cheap and deterministic;
        only the per-column factorisation arrives shared.  A row-count
        mismatch means this process's table state diverged from the
        owner's — fall back to the encode path rather than serve wrong
        codes.
        """
        from repro.shm.manifest import frame_from_manifest

        augmented = self.augmented_table(hops)
        if any(name not in augmented for name in context.columns()):
            return None  # the encode path raises the precise QueryError
        context_table = augmented.filter_view(context)
        try:
            frame = frame_from_manifest(manifest, context_table)
        except Exception:
            self._shared_frames.pop((key[0], key[1], key[2]), None)
            return None
        self.count("frame_store_attach")
        trace.annotate(frame_cache="shm-attach")
        entry = (context_table, frame)
        self._frames[key] = entry
        while len(self._frames) > self.MAX_FRAME_CACHE:
            self._frames.popitem(last=False)
        return entry

    def _build_frame(self, key, context: Predicate, hops: int,
                     n_bins: int) -> Tuple[Table, EncodedFrame]:
        augmented = self.augmented_table(hops)
        missing = [name for name in sorted(context.columns())
                   if name not in augmented]
        if missing:
            raise QueryError(
                f"Query context references missing column(s) {missing}; "
                f"the augmented table has {augmented.column_names}")
        # A lazy view: the pipeline reads a handful of candidate, exposure/
        # outcome and predictor columns — filtering the rest of a wide
        # table would copy (and, over a shared-memory table, privately
        # touch) every column per context for nothing.
        context_table = augmented.filter_view(context)
        entry = (context_table, EncodedFrame(context_table, n_bins=n_bins))
        self._frames[key] = entry
        while len(self._frames) > self.MAX_FRAME_CACHE:
            self._frames.popitem(last=False)
        return entry
