"""The benchmark's own answers, computed independently of ``repro``.

The wire workloads check every RESULT frame against what the generator
sent: the paper's Figure 7 query (``SELECT a, COUNT(*) FROM R, S, T WHERE
R.a = S.b AND S.c = T.d GROUP BY a``) by Counter arithmetic, and the
arrival accounting ``arrived = rows acked into the window = kept +
dropped``.  The CEP workload checks that every emitted match is also a
match of the unshedded engine.
"""

from __future__ import annotations

import math
from collections import Counter


def window_of(ts: float, width: float) -> int:
    """The tumbling window ``i`` with ``i*width <= ts < i*width + width``.

    Agrees with ``WindowSpec.window_ids`` when ``width`` is an exact binary
    fraction (0.25 here); for widths like 0.1 that spec can place a
    boundary timestamp in two tumbling windows through float rounding."""
    i = math.floor(ts / width)
    if not i * width <= ts:
        i -= 1
    elif not ts < i * width + width:
        i += 1
    return i


def count_by_a(r: Counter, s: Counter, t: Counter) -> dict[int, int]:
    """COUNT(*) GROUP BY a of R(a) ⋈ S(b, c) ⋈ T(d) on a = b, c = d.

    ``r`` counts values of a, ``s`` counts (b, c) pairs, ``t`` counts d.
    Groups with a zero count are absent, as in a SQL result."""
    via_s: Counter = Counter()
    for (b, c), n in s.items():
        m = t.get(c, 0)
        if m:
            via_s[b] += n * m
    out = {}
    for a, n in r.items():
        m = via_s.get(a, 0)
        if m:
            out[a] = n * m
    return out


def result_counts(frame: dict, field: str = "aggs") -> dict[int, float]:
    """``{a: count}`` from a RESULT frame's groups (``aggs`` is the merged
    exact + estimated answer, ``exact`` the kept-rows part)."""
    out = {}
    for group in frame["groups"]:
        value = group.get(field)
        if value is not None:
            out[group["key"][0]] = value["count"]
    return out


def counts_match(frame: dict, reference: dict[int, int]) -> bool:
    """Both the merged and the exact answer equal ``reference`` exactly."""
    return all(
        {a: n for a, n in result_counts(frame, field).items() if n} == reference
        for field in ("aggs", "exact")
    )


def arrivals_match(frame: dict, acked: dict[str, int]) -> bool:
    """Per stream: arrived equals rows acked into the window, and every
    arrived row was either kept or dropped."""
    for stream, arrived in frame["arrived"].items():
        if arrived != acked.get(stream, 0):
            return False
        if arrived != frame["kept"][stream] + frame["dropped"][stream]:
            return False
    return set(acked) <= set(frame["arrived"])


def squared_errors(frame: dict, reference: dict[int, int]) -> list[float]:
    """Per group (union of both sides): (merged answer - reference)^2."""
    got = result_counts(frame)
    return [
        (got.get(a, 0.0) - reference.get(a, 0)) ** 2
        for a in set(got) | set(reference)
    ]


def match_subset(identities, ideal_identities) -> int:
    """How many emitted matches have no counterpart among the ideal ones
    (multiset inclusion; 0 means every match is an ideal match)."""
    ideal = Counter(ideal_identities)
    extra = Counter(identities) - ideal
    return sum(extra.values())
