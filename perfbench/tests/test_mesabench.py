"""Tests of the benchmark's own arithmetic, inputs and correctness check.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests`` from the root
of a checkout; they start no server.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from mesabench import corpus, stats  # noqa: E402
from mesabench.tracer import Recorder  # noqa: E402
from mesabench.verify import References, matches, merged_table  # noqa: E402


# ---- the tail percentile ------------------------------------------------ #
def test_tail_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]  # 100 samples
    value, level, n = stats.tail_latency(values)
    # p90 leaves exactly 10 beyond; p95 would leave only 5.
    assert (value, level, n) == (90.0, 90.0, 100)
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.samples_beyond(100, 95.0) == 5


def test_tail_level_grows_with_samples():
    assert stats.tail_latency(range(1, 41))[1] == 75.0   # 40 - 30 = 10
    assert stats.tail_latency(range(1, 40))[1] == 50.0   # 39 - 30 = 9
    assert stats.tail_latency(range(1, 1001))[1] == 99.0
    assert stats.tail_latency(range(1, 10001))[1] == 99.9


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail_latency([])


def test_tail_ignores_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert stats.tail_latency(values) == stats.tail_latency(sorted(values))


def test_quartiles_and_spread():
    q1, q2, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q2 == 3.0 and q1 < q2 < q3
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0


# ---- self time ---------------------------------------------------------- #
def _span(ident, parent, start, end):
    return {"id": ident, "parent": parent, "start": start, "end": end}


def test_self_time_of_nested_spans():
    spans = [_span("a", None, 0.0, 10.0), _span("b", "a", 1.0, 4.0),
             _span("c", "b", 2.0, 3.0), _span("d", "a", 5.0, 6.0)]
    selves = stats.self_times(spans)
    assert selves == pytest.approx({"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0})
    # Self times add up to the root's duration.
    assert sum(selves.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", None, 0.0, 10.0), _span("x", "root", 1.0, 5.0),
             _span("y", "root", 3.0, 7.0)]
    assert stats.self_times(spans)["root"] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    # A child handed to another thread may outlive its parent.
    spans = [_span("p", None, 0.0, 2.0), _span("q", "p", 1.5, 9.0)]
    selves = stats.self_times(spans)
    assert selves["p"] == pytest.approx(1.5)
    assert selves["q"] == pytest.approx(7.5)


def test_covered_merges_and_clips():
    assert stats.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert stats.covered([(0, 20)], 5, 10) == 5
    assert stats.covered([], 0, 1) == 0


def test_recorder_links_parents_and_requests():
    recorder = Recorder()
    recorder.enabled = True
    with recorder.adopt("r1", None):
        outer = recorder.open("outer", "a")
        inner = recorder.open("inner", "b")
        recorder.close(inner)
        recorder.close(outer)
    assert inner[1] == outer[0] and outer[1] is None
    assert inner[2] == outer[2] == "r1"
    recorder.enabled = False
    assert recorder.open("ignored", "a") is None


# ---- process clean-up --------------------------------------------------- #
ORPHAN_SCRIPT = """
import os, subprocess, sys
sys.path.insert(0, sys.argv[1])
from mesabench import procfs
assert procfs.adopt_orphans()
# The shell exits at once and leaves its sleep behind, as a server leaves
# its resource tracker: the sleep is adopted by this process.
subprocess.run(["sh", "-c", "sleep 30 & exit 0"], check=True)
assert procfs._children(os.getpid()), "orphan not adopted"
assert procfs.stop_children(timeout=10.0)
assert procfs._children(os.getpid()) == []
print("clean")
"""


def test_orphans_are_adopted_and_reaped():
    import subprocess

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    completed = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT, here],
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "clean"


# ---- seeded inputs ------------------------------------------------------ #
@pytest.fixture(scope="module")
def bundle():
    from repro.datasets.registry import load_dataset

    return load_dataset("SO", seed=5, n_rows=400)


def test_corpus_is_fixed_distinct_and_dealt_in_rounds(bundle):
    rounds = corpus.corpus_rounds(bundle)
    ids = [corpus.query_identity(q) for r in rounds for q in r]
    assert ids == [corpus.query_identity(q)
                   for r in corpus.corpus_rounds(bundle) for q in r]
    assert len(set(ids)) == len(ids)
    assert rounds[0] == [rq.query for rq in bundle.queries]
    # Every round after the first holds at most one query per cost class,
    # in the same class order.
    classes = [[corpus._stratum(bundle.table, q) for q in r]
               for r in rounds[1:]]
    assert all(len(set(c)) == len(c) and c == sorted(c) for c in classes)
    assert len(classes[0]) >= len(classes[-1])
    assert corpus.distinct_corpus(bundle, size=5) == \
        [q for r in rounds for q in r][:5]


def test_zipf_mix_is_seeded_and_skewed():
    mix = corpus.zipf_mix(8, 5000, seed=1)
    assert mix == corpus.zipf_mix(8, 5000, seed=1)
    assert mix != corpus.zipf_mix(8, 5000, seed=2)
    counts = sorted((mix.count(i) for i in range(8)), reverse=True)
    assert counts[0] > 3 * counts[-1]
    weights = corpus.zipf_weights(8)
    assert weights.sum() == pytest.approx(1.0)


def test_round_robin_visits_every_item_in_a_seeded_order():
    mix = corpus.round_robin(4, 12, seed=1)
    assert mix == corpus.round_robin(4, 12, seed=1)
    assert all(sorted(mix[i:i + 4]) == [0, 1, 2, 3] for i in range(9))
    assert {tuple(corpus.round_robin(4, 4, seed=s)) for s in range(10)} != \
        {tuple(mix[:4])}


def test_request_mix_has_the_invalid_share():
    mix = corpus.request_mix(8, 2, 1000, seed=1, invalid_share=0.05)
    assert mix == corpus.request_mix(8, 2, 1000, seed=1, invalid_share=0.05)
    assert sum(index >= 8 for index in mix) == 50
    assert set(mix) <= set(range(10))


def test_appended_rows_are_seeded_json():
    rows = corpus.appended_rows(5, batch=0)
    assert rows == corpus.appended_rows(5, batch=0)
    assert rows != corpus.appended_rows(5, batch=1)
    assert set(rows[0]) >= {"Country", "Salary"}


# ---- the correctness check ---------------------------------------------- #
def test_envelope_check_rejects_tampering(bundle, tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    references = References(root, str(tmp_path), bundle)
    query = bundle.queries[1].query
    expected = references.expected(query)
    assert expected[0] == "ok"
    envelope = references._engine().explain(query).to_envelope()
    assert matches("ok", envelope, expected)
    # Wall-clock fields are not part of the comparison...
    retimed = dataclasses.replace(envelope, timings={"total": 123.0})
    assert matches("ok", retimed, expected)
    # ...but any change to the explanation is.
    explanation = dataclasses.replace(
        envelope.explanation,
        explainability=envelope.explanation.explainability + 1e-9)
    assert not matches("ok", dataclasses.replace(
        envelope, explanation=explanation), expected)
    assert not matches("ok", dataclasses.replace(
        envelope, biased_attributes=("Salary",)), expected)
    assert not matches("400", "some error", expected)


def test_expected_errors_are_checked_by_status_and_message(bundle, tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    references = References(root, str(tmp_path), bundle)
    invalid = corpus.invalid_queries(bundle, 1)[0]
    status, message = references.expected(invalid)
    assert status == "400" and "selects no rows" in message
    assert matches("400", message, (status, message))
    assert not matches("400", message + "!", (status, message))
    assert not matches("error", message, (status, message))
    references.save()
    reloaded = References(root, str(tmp_path), bundle)
    assert reloaded.expected(invalid) == (status, message)
    assert reloaded.computed == 0


def test_merged_table_appends_rows(bundle):
    rows = corpus.appended_rows(7, batch=0)
    merged = merged_table(bundle.table, [rows, rows])
    assert merged.n_rows == bundle.table.n_rows + 14
