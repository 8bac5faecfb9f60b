"""The benchmark's own references, cross-checked against ``repro``."""

import math
import random
from collections import Counter

import pytest

import reference
from repro.algebra.multiset import Multiset
from repro.engine.executor import QueryExecutor
from repro.engine.window import WindowSpec
from repro.experiments import PAPER_QUERY, paper_catalog
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement


@pytest.fixture(scope="module")
def interpreter():
    catalog = paper_catalog()
    bound = Binder(catalog).bind(parse_statement(PAPER_QUERY))
    executor = QueryExecutor(catalog, compiled=False)
    return lambda inputs: executor.execute_interpreted(bound, inputs)


@pytest.mark.parametrize("seed", range(40))
def test_count_reference_matches_interpreted_executor(interpreter, seed):
    rng = random.Random(seed)
    domain = rng.randint(1, 8)
    r = [(rng.randint(1, domain),) for _ in range(rng.randint(0, 30))]
    s = [
        (rng.randint(1, domain), rng.randint(1, domain))
        for _ in range(rng.randint(0, 30))
    ]
    t = [(rng.randint(1, domain),) for _ in range(rng.randint(0, 30))]
    result = interpreter({"r": Multiset(r), "s": Multiset(s), "t": Multiset(t)})
    expected = {}
    for row, mult in result.rows.items():
        expected[int(row[0])] = expected.get(int(row[0]), 0) + row[1] * mult
    got = reference.count_by_a(
        Counter(a for (a,) in r), Counter(s), Counter(d for (d,) in t)
    )
    assert got == expected


@pytest.mark.parametrize("width", [0.25, 0.125, 1.0])
def test_window_of_agrees_with_window_spec(width):
    # Widths that are exact binary fractions, like the wire workloads' 0.25:
    # for others (0.1) WindowSpec can place a boundary timestamp in two
    # tumbling windows through float rounding.
    spec = WindowSpec(width=width)
    rng = random.Random(7)
    stamps = [rng.uniform(0, 500) for _ in range(2000)]
    stamps += [k * width for k in range(2000)]  # exact boundaries
    stamps += [math.nextafter(k * width, -1.0) for k in range(1, 2000)]
    for ts in stamps:
        assert [reference.window_of(ts, width)] == list(spec.window_ids(ts))


def _frame(arrived, kept, dropped, groups=()):
    return {"arrived": arrived, "kept": kept, "dropped": dropped, "groups": list(groups)}


def test_arrivals_match_requires_acked_and_kept_plus_dropped():
    ok = _frame({"R": 5, "S": 3}, {"R": 1, "S": 3}, {"R": 4, "S": 0})
    assert reference.arrivals_match(ok, {"R": 5, "S": 3})
    assert not reference.arrivals_match(ok, {"R": 4, "S": 3})
    assert not reference.arrivals_match(ok, {"R": 5, "S": 3, "T": 1})
    leaky = _frame({"R": 5}, {"R": 1}, {"R": 3})
    assert not reference.arrivals_match(leaky, {"R": 5})


def test_counts_match_checks_merged_and_exact_answers():
    groups = [
        {"key": [3], "aggs": {"count": 6.0}, "exact": {"count": 6}, "estimated": None},
        {"key": [4], "aggs": {"count": 2.0}, "exact": {"count": 2}, "estimated": None},
    ]
    frame = _frame({}, {}, {}, groups)
    assert reference.counts_match(frame, {3: 6, 4: 2})
    assert not reference.counts_match(frame, {3: 6})
    groups[1]["aggs"] = {"count": 2.5}  # an estimate leaked into the answer
    assert not reference.counts_match(frame, {3: 6, 4: 2})


def test_squared_errors_cover_groups_missing_on_either_side():
    groups = [{"key": [1], "aggs": {"count": 4.0}, "exact": {"count": 4}, "estimated": None}]
    errors = reference.squared_errors(_frame({}, {}, {}, groups), {1: 2, 2: 3})
    assert sorted(errors) == [4.0, 9.0]


def test_match_subset_is_multiset_inclusion():
    ideal = [("a", 1), ("a", 1), ("b", 2)]
    assert reference.match_subset([("a", 1), ("b", 2)], ideal) == 0
    assert reference.match_subset([("a", 1)] * 3, ideal) == 1
    assert reference.match_subset([("c", 9)], ideal) == 1
