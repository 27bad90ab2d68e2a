"""Workload inputs: the query corpus, Zipf repeat mixes and appended rows.

Everything here is deterministic, a function of its seed where it takes
one, so one ``--seed`` always gives one set of inputs.  The program under
test only ever sees the generated queries and rows.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from repro.datasets.queries import random_queries
from repro.datasets.stackoverflow import generate_so_dataset
from repro.query.aggregate_query import AggregateQuery
from repro.serving.schema import query_payload
from repro.table.expressions import Eq


#: Seed of the one draw of ``random_queries`` the corpus is dealt from.
DRAW_SEED = 0


def query_identity(query: AggregateQuery) -> str:
    """Canonical wire form of a query, ignoring its display name."""
    payload = dict(query_payload(query))
    payload.pop("name", None)
    return json.dumps(payload, sort_keys=True)


def _stratum(table, query: AggregateQuery):
    """A query's cost class: its outcome and how much of the table its
    context keeps (all of it, at least half, or less)."""
    kept = int(query.context.mask(table).sum()) / table.n_rows
    size = "all" if kept >= 1.0 else "large" if kept >= 0.5 else "small"
    return query.outcome, size


def corpus_rounds(bundle) -> List[List[AggregateQuery]]:
    """Table 2's representative queries, then ``random_queries`` dealt in
    rounds of one query per cost class.

    Duplicates (by :func:`query_identity`) are dropped, so every request
    of a cold run misses the serving caches.  Round 0 holds the
    representative queries.  The random queries are drawn once with
    :data:`DRAW_SEED` and grouped by cost class (:func:`_stratum`); round
    ``r`` holds the ``r``-th query of every class, in a fixed class order.

    The corpus does not depend on the workload seed.  Cold latencies on
    it swing with the queries served: with queries drawn per seed, the
    median latency of a cold-single run spread (inter-quartile range over
    median, five seeds) by 0.43-0.98, and reordering a fixed set by 0.17,
    beyond the bounds a regression check can use.  The seed drives the
    repeat mixes (:func:`zipf_mix`, :func:`request_mix`) instead.
    """
    table = bundle.table
    rounds = [[rq.query for rq in bundle.queries]]
    seen = {query_identity(query) for query in rounds[0]}
    strata: Dict[tuple, List[AggregateQuery]] = {}
    for query in random_queries(table, bundle.extraction_columns(),
                                n_queries=400, seed=DRAW_SEED):
        identity = query_identity(query)
        if identity not in seen:
            seen.add(identity)
            strata.setdefault(_stratum(table, query), []).append(query)
    classes = [strata[key] for key in sorted(strata)]
    for round_ in range(max(map(len, classes), default=0)):
        rounds.append([members[round_] for members in classes
                       if round_ < len(members)])
    return rounds


def distinct_corpus(bundle, size: int) -> List[AggregateQuery]:
    """The first ``size`` queries of :func:`corpus_rounds`."""
    return [query for round_ in corpus_rounds(bundle)
            for query in round_][:size]


def zipf_weights(n: int, exponent: float = 1.1) -> np.ndarray:
    """Normalised Zipf weights for ranks ``1..n``."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def zipf_mix(n_items: int, n_draws: int, seed: int,
             exponent: float = 1.1) -> List[int]:
    """``n_draws`` item indices, Zipf-skewed over a seeded rank order."""
    rng = np.random.default_rng([seed, 2])
    ranks = rng.permutation(n_items)
    draws = rng.choice(n_items, size=n_draws, p=zipf_weights(n_items,
                                                             exponent))
    return [int(ranks[d]) for d in draws]


def invalid_queries(bundle, count: int) -> List[AggregateQuery]:
    """Queries whose context selects no rows: the server answers 400 and
    caches the error (the negative cache)."""
    table = bundle.table.name
    return [AggregateQuery(exposure="Country", outcome="Salary",
                           aggregate="avg",
                           context=Eq("Continent", f"Atlantis-{i}"),
                           table_name=table, name=f"invalid-{i}")
            for i in range(count)]


def round_robin(n_items: int, n_draws: int, seed: int) -> List[int]:
    """``n_draws`` item indices cycling through all items in a seeded
    order, so every item is asked for once in any ``n_items`` draws."""
    order = np.random.default_rng([seed, 5]).permutation(n_items)
    return [int(order[i % n_items]) for i in range(n_draws)]


def request_mix(n_valid: int, n_invalid: int, n_draws: int, seed: int,
                invalid_share: float) -> List[int]:
    """Indices into ``valid + invalid``: a Zipf mix over the valid queries
    with a fixed share of draws replaced by the invalid ones."""
    rng = np.random.default_rng([seed, 3])
    mix = zipf_mix(n_valid, n_draws, seed)
    n_bad = int(round(invalid_share * n_draws))
    for slot, position in enumerate(
            sorted(rng.choice(n_draws, size=n_bad, replace=False))):
        mix[int(position)] = n_valid + slot % n_invalid
    return mix


def appended_rows(n_rows: int, batch: int) -> List[Dict]:
    """Append batch number ``batch``, made by the SO generator with a seed
    derived from the batch number, in the JSON form the server receives.

    The rows do not depend on the workload seed: every append makes a new
    table version whose reference the correctness check must compute, and
    rows shared by all seeds let one checkout compute each version once.
    """
    table = generate_so_dataset(n_rows=n_rows, seed=[4, batch])
    return json.loads(json.dumps(table.to_rows()))
