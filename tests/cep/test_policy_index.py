"""PatternUtilityPolicy against a brute-force scorer of its formula.

The policy keeps a per-queue index of buffered tuples so that an overflow
scores each class of equally-scored tuples once instead of every tuple.
These tests drive real queues through random offers, bulk offers, polls,
drains, engine steps and engine re-binds, and check every decision against
a scorer that rescans the whole buffer:

    score(t) = (P[stream][phase bin] (+ protect_bonus if protected))
               + 0.01 / (1 + buffered tuples in t's primary window)

The victim is the lowest-index buffered tuple of minimal score; the
incoming tuple is shed only when strictly worse than all of them.
"""

from __future__ import annotations

import gc
import random
from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep import PatternEngine, PatternUtilityPolicy, demo_catalog
from repro.cep.utility import UtilityModel
from repro.core.policies import DROP_INCOMING, PolicyContext
from repro.core.triage_queue import TriageQueue
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.synopses import SparseHistogramFactory

PATTERN = Binder(demo_catalog()).bind_pattern(
    parse_statement(
        "PATTERN SEQ(A a, B+ b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 2"
    )
)
STREAMS = ("A", "B", "C")


def make_engine(bins):
    utility = None if bins is None else UtilityModel(PATTERN.within, bins=bins)
    return PatternEngine(PATTERN, utility=utility)


def split(policy, name, tup):
    """(stream, untagged row) of a buffered tuple, as the policy reads it."""
    tag = policy.stream_tag
    if tag is None:
        return name or "", tup.row
    return tup.row[tag], tup.row[:tag] + tup.row[tag + 1 :]


def reference(policy, buffer, incoming, context, counts):
    """(index, last_score) by rescoring every tuple; counts may be None."""
    engine = policy.engine
    model = engine.utility
    protection = engine.protection_index()
    window = context.window

    def score(t):
        stream, row = split(policy, context.queue_name, t)
        s = model.probability(stream, t.timestamp) if model is not None else 0.0
        if protection.protects(stream, row):
            s += policy.protect_bonus
        if counts is not None and window is not None:
            wid = window.primary_window(t.timestamp)
            s = s + (0.01 / (1.0 + counts[wid]) if wid in counts else 0.01)
        return s

    scores = [score(t) for t in buffer]
    incoming_score = score(incoming)
    if not scores or incoming_score < min(scores):
        return DROP_INCOMING, incoming_score
    best = min(scores)
    return scores.index(best), best


class CheckedPolicy(PatternUtilityPolicy):
    """Asserts each queue-driven decision equals the brute-force scorer."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checked = 0

    def select_victim(self, buffer, incoming, context):
        snapshot = list(buffer)
        occupancy = Counter(
            context.window.primary_window(t.timestamp) for t in snapshot
        )
        assert dict(context.window_counts) == occupancy
        expected = reference(self, snapshot, incoming, context, occupancy)
        got = super().select_victim(buffer, incoming, context)
        assert (got, context.last_score) == expected
        self.checked += 1
        return got


def make_queue(policy, name, capacity, window):
    return TriageQueue(
        name=name,
        dimensions=[],
        dim_positions=[],
        capacity=capacity,
        policy=policy,
        synopsis_factory=SparseHistogramFactory(),
        window=window,
        summarize=False,
    )


event = st.tuples(
    st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.7, 1.1]),  # time step
    st.sampled_from(STREAMS),
    st.integers(0, 3),  # key: few values, so equal tuples recur
)
operation = st.one_of(
    st.tuples(st.just("offer"), st.integers(0, 1), event),
    st.tuples(st.just("bulk"), st.integers(0, 1), st.lists(event, max_size=12)),
    st.tuples(st.just("poll"), st.integers(0, 1), st.integers(1, 6)),
    st.tuples(st.just("drain"), st.integers(0, 1)),
    st.tuples(st.just("step"), event),
    st.tuples(st.just("rebind"), st.sampled_from([None, 1, 3, 8])),
)


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(operation, max_size=60),
        bonus=st.sampled_from([100.0, 0.0, -5.0]),
        tagged=st.booleans(),
        bins=st.sampled_from([None, 1, 3, 8]),
        capacity=st.integers(1, 7),
        width=st.sampled_from([2.0, 0.5, 0.3]),
    )
    def test_queue_decisions_match(self, ops, bonus, tagged, bins, capacity, width):
        # Two queues share one policy and one window spec, as per-stream
        # service queues do.
        policy = CheckedPolicy(
            make_engine(bins), protect_bonus=bonus, stream_tag=0 if tagged else None
        )
        names = ("pattern", "other") if tagged else ("B", "A")
        window = WindowSpec(width=width)
        queues = [make_queue(policy, n, capacity, window) for n in names]
        clock = [0.0]

        def stamp(ev):
            clock[0] += ev[0]
            stream = ev[1] if tagged else None
            return stream, clock[0], ev[2]

        def tup_for(q, ev):
            stream, ts, key = stamp(ev)
            return StreamTuple(ts, (stream, key) if tagged else (key,))

        def consume(q, t):
            stream, row = split(policy, q.name, t)
            policy.engine.consume(stream, StreamTuple(t.timestamp, row))

        for op in ops:
            kind = op[0]
            if kind == "offer":
                q = queues[op[1]]
                q.offer(tup_for(q, op[2]))
            elif kind == "bulk":
                q = queues[op[1]]
                q.offer_bulk([tup_for(q, ev) for ev in op[2]])
            elif kind == "poll":
                q = queues[op[1]]
                for _ in range(op[2]):
                    t = q.poll()
                    if t is None:
                        break
                    consume(q, t)
            elif kind == "drain":
                queues[op[1]].drain()
            elif kind == "step":
                _, ts, key = stamp(op[1])
                policy.engine.consume(op[1][1], StreamTuple(ts, (key,)))
            else:
                policy.bind_engine(make_engine(op[1]))

    @settings(max_examples=150, deadline=None)
    @given(
        buffer=st.lists(event, max_size=10),
        incoming=event,
        history=st.lists(event, max_size=20),
        bonus=st.sampled_from([100.0, 0.0, -5.0]),
        bins=st.sampled_from([None, 1, 8]),
        counts=st.one_of(
            st.none(), st.dictionaries(st.integers(0, 6), st.integers(0, 4))
        ),
        width=st.sampled_from([None, 0.5]),
    )
    def test_direct_calls_match(
        self, buffer, incoming, history, bonus, bins, counts, width
    ):
        # No queue: the policy indexes the buffer it is given and uses the
        # counts it is given (no occupancy term without them and a window).
        engine = make_engine(bins)
        ts = 0.0
        for dt, stream, key in history:
            ts += dt
            engine.consume(stream, StreamTuple(ts, (key,)))
        policy = PatternUtilityPolicy(engine, protect_bonus=bonus, stream_tag=0)

        def tup(ev):
            return StreamTuple(ts + ev[0], (ev[1], ev[2]))

        tuples = [tup(ev) for ev in buffer]
        context = PolicyContext(
            rng=random.Random(0),
            queue_name="pattern",
            window=None if width is None else WindowSpec(width=width),
            window_counts=counts,
        )
        expected = reference(policy, tuples, tup(incoming), context, counts)
        got = policy.select_victim(tuples, tup(incoming), context)
        assert (got, context.last_score) == expected


class TestSharedPolicy:
    def test_equal_tuples_in_two_queues_score_by_their_own_stream(self):
        # An open A run protects B rows with k=7, not C rows.  The same
        # (timestamp, row) buffered in the C queue must score as a C row
        # even after the B queue scored it as a protected B row.
        engine = make_engine(8)
        engine.consume("A", StreamTuple(0.0, (7,)))
        policy = PatternUtilityPolicy(engine)
        window = WindowSpec(width=2.0)
        queues = {n: make_queue(policy, n, 1, window) for n in ("B", "C")}
        seven, eight = StreamTuple(0.1, (7,)), StreamTuple(0.1, (8,))
        for q in queues.values():
            q.offer(seven)
            q.offer(eight)
        assert queues["B"].poll() == seven  # protected: the arrival is shed
        assert queues["C"].poll() == eight  # equal scores: evict buffered


def tuples_reachable(root, skip=(PatternEngine, UtilityModel)) -> int:
    """Distinct StreamTuples reachable from ``root``, not through an engine."""
    seen: set[int] = set()
    found: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, StreamTuple):
            found.add(id(obj))
            continue
        if isinstance(obj, (dict, list, tuple, set, deque)) or type(
            obj
        ).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return len(found)


class TestBoundedMemory:
    def test_long_run_tracks_only_buffered_tuples(self):
        engine = make_engine(8)
        policy = PatternUtilityPolicy(engine, stream_tag=0)
        queue = make_queue(policy, "pattern", 8, WindowSpec(width=2.0))
        rng = random.Random(3)
        for i in range(50_000):
            stream = rng.choice(STREAMS)
            queue.offer(StreamTuple(i * 0.001, (stream, rng.randrange(50))))
            if i % 3 == 0:
                t = queue.poll()
                engine.consume(t.row[0], StreamTuple(t.timestamp, t.row[1:]))
        assert queue.stats.overflows > 10_000
        assert tuples_reachable(policy) <= 8
        assert tuples_reachable(queue._policy_context.window_counts) <= 8
