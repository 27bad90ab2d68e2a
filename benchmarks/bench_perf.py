"""Performance benchmark: the production estimation path vs. its oracles.

Runs the candidate-heavy workload of the paper's Figure 4 regime (the SO
dataset joined against a noise-heavy synthetic knowledge graph, so pruning
and search score hundreds of candidates) through ``explain_many`` twice —
once on the row-wise reference estimators (``tests/oracles.py``,
installed with :func:`oracles.install_reference_estimators`) and once on
the contingency-count kernel — and writes a ``BENCH_perf.json``
before/after artifact with the wall-clock of both, per-stage breakdowns
and the speedup.

A second phase verifies correctness: the full pipeline (selection-bias
handling included) runs all seven registered explainers in both modes and
asserts the explanations are equal — same attributes, scores within 1e-9.

A third phase benchmarks the **batched inference backend** on an IPW-heavy
+ permutation-heavy scenario (selection-bias handling on, a large
responsibility-test permutation budget, query groups sharing contexts —
the serving shape): the pre-optimisation inference path (one
``contingency_cmi`` per permutation and one dense-design Newton fit per
attribute, :func:`oracles.install_pre_blocked_inference`) against the
blocked-permutation + fit-cache path (one multi-label fit over the design's
nonzeros per batch of misses), with all seven explainers verified
equal between the modes (early exit off).  Phase-level timings
(``ipw_fit_s``, ``permutation_s``) are recorded per mode so future
changes can gate per phase; the combined phase wall-clock gates at
``--min-ipw-speedup`` (default 2x), and an informational early-exit run
reports the permutation savings.

A fourth phase benchmarks the **adaptive inference scheduler** on the same
IPW+permutation bundle at matched worst-case budget: a fixed
``ADAPTIVE_MAX_PERMUTATIONS`` budget on every responsibility test (the
only fixed policy matching the verdict resolution the scheduler can
reach) against adaptive budgets starting at ``IPW_PERM_PERMUTATIONS``
(clear-cut tests exit in a handful of draws, decisively dependent ones
stop when the Clopper–Pearson bound settles, statistically uncertain
ones extend geometrically up to the cap) combined with the vectorised
``argsort`` RNG stream and the speculative pipelined MCIMR search.  The speculative search is bit-identical by construction,
so all seven explainers are verified equal between the speculative and
sequential schedules (``--min-adaptive-speedup`` gates the compounded
wall-clock, default 1.5x); budget extensions may legitimately revise
statistically uncertain verdicts, so attribute agreement of the full
adaptive stack against the fixed run is recorded informationally.

Run with:  PYTHONPATH=src python benchmarks/bench_perf.py [--out BENCH_perf.json]

The script exits non-zero when a speedup falls below its gate or when any
explainer diverges between modes, so CI can gate on it.  It needs pytest
installed (the oracles are wired in with ``pytest.MonkeyPatch``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import __version__
from repro.datasets.registry import load_dataset
from repro.engine import ExplanationPipeline, available_explainers, get_explainer
from repro.kg.synthetic import SyntheticKGConfig, build_world_knowledge_graph
from repro.mesa.config import MESAConfig
from repro.query.aggregate_query import AggregateQuery
from repro.table.expressions import TRUE, Eq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402  (lives in tests/, next to the tests using it)

#: Candidate-heavy regime: many noise properties -> hundreds of candidates.
PERF_KG_CONFIG = SyntheticKGConfig(seed=7, n_noise_properties=40)
DATASET = "SO"
N_ROWS = 1500
K = 5
SCORE_TOLERANCE = 1e-9

#: IPW+permutation regime: default missingness (MNAR properties included)
#: so many attributes need selection models, moderate noise so the search
#: spends its time in responsibility tests rather than candidate scoring.
IPW_PERM_KG_CONFIG = SyntheticKGConfig(seed=11, n_noise_properties=16)
IPW_PERM_N_ROWS = 1500
#: A large permutation budget makes the stopping criterion
#: permutation-bound, as in the HypDB-style test of the paper.
IPW_PERM_PERMUTATIONS = 150
#: Adaptive cap: uncertain tests may quadruple their budget while
#: clear-cut ones exit after a handful of draws.
ADAPTIVE_MAX_PERMUTATIONS = 600


def ipw_perm_queries():
    """Query groups sharing contexts and outcome — the serving shape.

    Queries inside one context group share the context frame, the IPW
    design matrix and the candidate missingness masks, so the fit cache
    collapses their selection fits; across groups everything re-fits.
    """
    queries = []
    for context in (TRUE, Eq("Continent", "Europe"), Eq("Hobby", "Yes")):
        for exposure in ("Country", "Continent", "DevType", "EdLevel", "Gender"):
            queries.append(AggregateQuery(
                exposure=exposure, outcome="Salary", aggregate="avg",
                context=context, table_name="SO"))
    return queries


def _pipeline(bundle, **overrides) -> ExplanationPipeline:
    config = MESAConfig(excluded_columns=bundle.id_columns, k=K, **overrides)
    return ExplanationPipeline(bundle.table, bundle.knowledge_graph,
                               bundle.extraction_specs, config=config)


@contextmanager
def oracle_installed(install):
    """Run the enclosed block with an ``oracles.install_*`` wiring (None: none)."""
    with pytest.MonkeyPatch.context() as patch:
        if install is not None:
            install(patch)
        yield


def time_explain_many(bundle, queries, oracle=None, repeats: int = 2) -> dict:
    """Best-of-``repeats`` wall-clock of the Fig. 4 workload in one mode.

    Selection-bias handling is off, as in the paper's Figure 4 protocol:
    the measured path is candidate scoring + online pruning + search —
    exactly the counting layer the kernel restructures.
    """
    best = None
    for _ in range(repeats):
        with oracle_installed(oracle):
            pipeline = _pipeline(bundle, handle_selection_bias=False)
            start = time.perf_counter()
            results = pipeline.explain_many(queries, k=K)
            seconds = time.perf_counter() - start
        sample = {
            "seconds": seconds,
            "stage_seconds": {name: round(value, 6)
                              for name, value in pipeline.context.stage_seconds.items()},
            "results": [{"query": result.query.label(),
                         "attributes": list(result.attributes),
                         "explainability": result.explainability}
                        for result in results],
        }
        if best is None or seconds < best["seconds"]:
            best = sample
    return best


def _explain_all(bundle, queries, config: MESAConfig, oracle=None) -> list:
    """Every registered explainer on every query (method-major order)."""
    with oracle_installed(oracle):
        pipeline = ExplanationPipeline(bundle.table, bundle.knowledge_graph,
                                       bundle.extraction_specs, config=config)
        return [pipeline.run_explainer(get_explainer(method), query, k=K)
                for method in available_explainers() for query in queries]


def compare_explainers(bundle, queries, before_config: MESAConfig,
                       after_config: MESAConfig, before_oracle=None,
                       exact: bool = False) -> list:
    """All seven explainers, ``before`` mode vs ``after`` mode, row per run.

    Responsibilities are the permutation backend's direct output, so they
    must match too.  ``exact`` demands bit-identical scores instead of
    agreement within ``SCORE_TOLERANCE``.
    """
    def within(delta: float) -> bool:
        return delta == 0.0 if exact else delta < SCORE_TOLERANCE

    runs = [(method, query) for method in available_explainers()
            for query in queries]
    before_runs = _explain_all(bundle, queries, before_config, before_oracle)
    after_runs = _explain_all(bundle, queries, after_config)
    rows = []
    for (method, query), before, after in zip(runs, before_runs, after_runs):
        equal_attributes = before.attributes == after.attributes
        score_delta = abs(before.explainability - after.explainability)
        responsibility_delta = max(
            (abs(before.responsibilities[name] - after.responsibilities[name])
             for name in before.responsibilities), default=0.0,
        ) if set(before.responsibilities) == set(after.responsibilities) \
            else float("inf")
        rows.append({
            "method": method,
            "query": query.label(),
            "attributes": list(after.attributes),
            "equal_attributes": equal_attributes,
            "score_delta": score_delta,
            "responsibility_delta": responsibility_delta,
            "equivalent": (equal_attributes and within(score_delta)
                           and within(responsibility_delta)),
        })
    return rows


def _ipw_perm_config(bundle, **overrides) -> MESAConfig:
    settings = dict(excluded_columns=bundle.id_columns, k=K,
                    handle_selection_bias=True,
                    responsibility_permutations=IPW_PERM_PERMUTATIONS)
    settings.update(overrides)
    return MESAConfig(**settings)


def time_ipw_perm(bundle, queries, repeats: int = 2, oracle=None,
                  **overrides) -> dict:
    """Best-of-``repeats`` wall-clock of the IPW+permutation scenario."""
    best = None
    for _ in range(repeats):
        with oracle_installed(oracle):
            pipeline = ExplanationPipeline(
                bundle.table, bundle.knowledge_graph, bundle.extraction_specs,
                config=_ipw_perm_config(bundle, **overrides))
            start = time.perf_counter()
            results = pipeline.explain_many(queries, k=K)
            seconds = time.perf_counter() - start
        stage_seconds = pipeline.context.stage_seconds
        counters = pipeline.context.counters
        sample = {
            "seconds": seconds,
            "ipw_fit_s": round(stage_seconds.get("ipw_fit", 0.0), 6),
            "permutation_s": round(stage_seconds.get("permutation_test", 0.0), 6),
            "search_s": round(sum(result.timings.get("mcimr", 0.0)
                                  for result in results), 6),
            "counters": {name: counters[name] for name in sorted(counters)
                         if name.startswith(("ipw_fit", "perm", "speculation"))},
            "results": [{"query": result.query.label(),
                         "attributes": list(result.attributes),
                         "explainability": result.explainability}
                        for result in results],
        }
        if best is None or seconds < best["seconds"]:
            best = sample
    return best


def _ipw_perm_bundle():
    graph = build_world_knowledge_graph(IPW_PERM_KG_CONFIG)
    return load_dataset(DATASET, seed=11, n_rows=IPW_PERM_N_ROWS,
                        knowledge_graph=graph)


def run_ipw_perm_bench(repeats: int = 2, bundle=None) -> dict:
    """The IPW-heavy + permutation-heavy before/after scenario."""
    if bundle is None:
        bundle = _ipw_perm_bundle()
    queries = ipw_perm_queries()

    before = time_ipw_perm(bundle, queries, repeats=repeats,
                           oracle=oracles.install_pre_blocked_inference)
    after = time_ipw_perm(bundle, queries, repeats=repeats)
    early_exit = time_ipw_perm(bundle, queries, repeats=1,
                               permutation_early_exit=True)
    same_results = all(
        b["attributes"] == a["attributes"]
        and abs(b["explainability"] - a["explainability"]) < SCORE_TOLERANCE
        for b, a in zip(before["results"], after["results"])
    )
    early_exit_same_attributes = all(
        b["attributes"] == a["attributes"]
        for b, a in zip(before["results"], early_exit["results"])
    )
    explainer_rows = compare_explainers(
        bundle, queries[:1], _ipw_perm_config(bundle), _ipw_perm_config(bundle),
        before_oracle=oracles.install_pre_blocked_inference)
    phase_before = before["ipw_fit_s"] + before["permutation_s"]
    phase_after = after["ipw_fit_s"] + after["permutation_s"]
    return {
        "workload": "ipw+permutation-heavy (selection bias on, "
                    f"{IPW_PERM_PERMUTATIONS} responsibility permutations, "
                    "context-sharing query groups)",
        "n_rows": bundle.table.n_rows,
        "n_queries": len(queries),
        "before": {"oracle": "install_pre_blocked_inference", **before},
        "after": {"oracle": None, **after},
        "early_exit": {"permutation_early_exit": True,
                       "same_attributes": early_exit_same_attributes,
                       **early_exit},
        "speedup": before["seconds"] / after["seconds"],
        "phase_seconds_before": round(phase_before, 6),
        "phase_seconds_after": round(phase_after, 6),
        "phase_speedup": phase_before / phase_after if phase_after else float("inf"),
        "explain_many_equivalent": same_results,
        "explainers": explainer_rows,
        "all_explainers_equivalent": all(row["equivalent"] for row in explainer_rows),
    }


def run_adaptive_bench(repeats: int = 2, bundle=None) -> dict:
    """The adaptive-scheduler before/after scenario.

    The comparison is at *matched worst-case budget*: ``before`` pays the
    adaptive cap (``ADAPTIVE_MAX_PERMUTATIONS``) as a fixed budget on
    every responsibility test — the only fixed policy whose verdict
    resolution matches what the adaptive scheduler can reach — while
    ``after`` starts every test at the base
    ``IPW_PERM_PERMUTATIONS`` and lets the scheduler decide: clear-cut
    tests exit in a handful of draws, decisively dependent ones stop the
    moment the Clopper–Pearson bound settles, and only the statistically
    uncertain rump extends toward the cap.  The ``after`` mode compounds
    the vectorised argsort RNG stream and the speculative pipelined
    search on top.
    """
    if bundle is None:
        bundle = _ipw_perm_bundle()
    queries = ipw_perm_queries()

    fixed = time_ipw_perm(
        bundle, queries, repeats=repeats,
        responsibility_permutations=ADAPTIVE_MAX_PERMUTATIONS)
    adaptive = time_ipw_perm(
        bundle, queries, repeats=repeats,
        max_responsibility_permutations=ADAPTIVE_MAX_PERMUTATIONS,
        permutation_rng_stream="argsort",
        speculative_search=True)
    # Budget extensions deliberately revise statistically uncertain
    # verdicts (and argsort is a different documented RNG stream), so
    # attribute agreement is recorded, not gated.
    same_attributes = all(
        b["attributes"] == a["attributes"]
        for b, a in zip(fixed["results"], adaptive["results"])
    )
    # Speculation only overlaps wall-clock (disjoint memo caches), so the
    # explanations must be *bit-identical*, not merely equivalent.
    explainer_rows = compare_explainers(
        bundle, queries[:1], _ipw_perm_config(bundle),
        _ipw_perm_config(bundle, speculative_search=True), exact=True)
    return {
        "workload": "adaptive scheduler on the ipw+permutation workload at "
                    f"matched worst-case budget (fixed "
                    f"{ADAPTIVE_MAX_PERMUTATIONS} permutations vs base "
                    f"{IPW_PERM_PERMUTATIONS} adapting up to "
                    f"{ADAPTIVE_MAX_PERMUTATIONS}, argsort stream, "
                    "speculative search)",
        "n_rows": bundle.table.n_rows,
        "n_queries": len(queries),
        "before": {"responsibility_permutations": ADAPTIVE_MAX_PERMUTATIONS,
                   "max_responsibility_permutations": 0,
                   "permutation_rng_stream": "legacy",
                   "speculative_search": False, **fixed},
        "after": {"responsibility_permutations": IPW_PERM_PERMUTATIONS,
                  "max_responsibility_permutations": ADAPTIVE_MAX_PERMUTATIONS,
                  "permutation_rng_stream": "argsort",
                  "speculative_search": True, **adaptive},
        "speedup": fixed["seconds"] / adaptive["seconds"],
        "same_attributes": same_attributes,
        "explainers": explainer_rows,
        "all_explainers_equivalent": all(row["equivalent"]
                                         for row in explainer_rows),
    }


def run_bench(repeats: int = 2) -> dict:
    graph = build_world_knowledge_graph(PERF_KG_CONFIG)
    bundle = load_dataset(DATASET, seed=7, n_rows=N_ROWS, knowledge_graph=graph)
    queries = [entry.query for entry in bundle.queries]

    before = time_explain_many(bundle, queries,
                               oracle=oracles.install_reference_estimators,
                               repeats=repeats)
    after = time_explain_many(bundle, queries, repeats=repeats)
    same_results = all(
        b["attributes"] == a["attributes"]
        and abs(b["explainability"] - a["explainability"]) < SCORE_TOLERANCE
        for b, a in zip(before["results"], after["results"])
    )

    config = MESAConfig(excluded_columns=bundle.id_columns, k=K)
    explainer_rows = compare_explainers(
        bundle, queries[:1], config, config,
        before_oracle=oracles.install_reference_estimators)
    return {
        "version": __version__,
        "python": platform.python_version(),
        "dataset": bundle.name,
        "n_rows": bundle.table.n_rows,
        "n_queries": len(queries),
        "k": K,
        "workload": "fig4-candidate-heavy (explain_many, single process, "
                    "selection-bias handling off as in the Fig. 4 protocol)",
        "before": {"oracle": "install_reference_estimators", **before},
        "after": {"oracle": None, **after},
        "speedup": before["seconds"] / after["seconds"],
        "explain_many_equivalent": same_results,
        "explainers": explainer_rows,
        "all_explainers_equivalent": all(row["equivalent"] for row in explainer_rows),
    }


def run_full_bench(repeats: int = 2) -> dict:
    payload = run_bench(repeats=repeats)
    ipw_bundle = _ipw_perm_bundle()
    payload["ipw_perm"] = run_ipw_perm_bench(repeats=repeats,
                                             bundle=ipw_bundle)
    payload["adaptive"] = run_adaptive_bench(repeats=repeats,
                                             bundle=ipw_bundle)
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="Path of the JSON before/after artifact")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="Fail when the kernel speedup falls below this "
                             "factor (0 disables the gate)")
    parser.add_argument("--min-ipw-speedup", type=float, default=2.0,
                        help="Fail when the IPW+permutation *phase* speedup "
                             "(ipw_fit_s + permutation_s, before/after) falls "
                             "below this factor (0 disables the gate)")
    parser.add_argument("--min-adaptive-speedup", type=float, default=1.5,
                        help="Fail when the adaptive-scheduler scenario's "
                             "wall-clock speedup over the fixed-budget path "
                             "falls below this factor (0 disables the gate)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="Timing repetitions per mode (best is kept)")
    args = parser.parse_args()

    payload = run_full_bench(repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"Wrote {args.out}: legacy {payload['before']['seconds']:.2f}s -> "
          f"kernel {payload['after']['seconds']:.2f}s "
          f"({payload['speedup']:.2f}x) on {payload['n_queries']} queries / "
          f"{payload['n_rows']} rows")
    ipw = payload["ipw_perm"]
    print(f"ipw+perm scenario: {ipw['before']['seconds']:.2f}s -> "
          f"{ipw['after']['seconds']:.2f}s total ({ipw['speedup']:.2f}x); "
          f"phase {ipw['phase_seconds_before']:.2f}s -> "
          f"{ipw['phase_seconds_after']:.2f}s ({ipw['phase_speedup']:.2f}x); "
          f"early-exit total {ipw['early_exit']['seconds']:.2f}s "
          f"(saved {ipw['early_exit']['counters'].get('perm_saved', 0)} "
          f"permutations)")
    adaptive = payload["adaptive"]
    adaptive_counters = adaptive["after"]["counters"]
    print(f"adaptive scenario: fixed {adaptive['before']['seconds']:.2f}s -> "
          f"adaptive {adaptive['after']['seconds']:.2f}s "
          f"({adaptive['speedup']:.2f}x); "
          f"{adaptive_counters.get('perm_budget_extended', 0)} budgets "
          f"extended, {adaptive_counters.get('perm_budget_saved', 0)} "
          f"permutations saved, speculation "
          f"{adaptive_counters.get('speculation_hit', 0)} hits / "
          f"{adaptive_counters.get('speculation_waste', 0)} discards; "
          f"same attributes as fixed: {adaptive['same_attributes']}")

    failures = []
    if not payload["explain_many_equivalent"]:
        failures.append("explain_many results diverge between modes")
    if not payload["all_explainers_equivalent"]:
        diverged = [row["method"] for row in payload["explainers"]
                    if not row["equivalent"]]
        failures.append(f"explainers diverge between modes: {diverged}")
    if args.min_speedup > 0 and payload["speedup"] < args.min_speedup:
        failures.append(f"speedup {payload['speedup']:.2f}x is below the "
                        f"{args.min_speedup:.1f}x gate")
    if not ipw["explain_many_equivalent"]:
        failures.append("ipw+perm scenario results diverge between backends")
    if not ipw["all_explainers_equivalent"]:
        diverged = [row["method"] for row in ipw["explainers"]
                    if not row["equivalent"]]
        failures.append(f"explainers diverge between inference backends: {diverged}")
    if not ipw["early_exit"]["same_attributes"]:
        failures.append("early-exit run changed explanation attributes")
    if args.min_ipw_speedup > 0 and ipw["phase_speedup"] < args.min_ipw_speedup:
        failures.append(f"ipw+perm phase speedup {ipw['phase_speedup']:.2f}x is "
                        f"below the {args.min_ipw_speedup:.1f}x gate")
    if not adaptive["all_explainers_equivalent"]:
        diverged = [row["method"] for row in adaptive["explainers"]
                    if not row["equivalent"]]
        failures.append("explainers diverge between sequential and "
                        f"speculative search: {diverged}")
    if (args.min_adaptive_speedup > 0
            and adaptive["speedup"] < args.min_adaptive_speedup):
        failures.append(f"adaptive scheduler speedup "
                        f"{adaptive['speedup']:.2f}x is below the "
                        f"{args.min_adaptive_speedup:.1f}x gate")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
