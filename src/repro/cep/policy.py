"""State-aware drop policy driven by live pattern-engine state.

:class:`PatternUtilityPolicy` plugs into the triage queue's existing
:class:`~repro.core.policies.DropPolicy` slot, so pattern queries reuse the
whole shedding machinery unchanged — only victim *selection* becomes
pattern-aware.  Two signals rank candidates:

* **Protection** (hSPICE/pSPICE lineage): a tuple whose key would extend an
  active partial match gets a large score bonus.  The engine exposes this
  as a :class:`~repro.cep.engine.PatternProtection` live view over its run
  index, maintained incrementally on run transitions — victim selection
  never walks the run list per candidate.
* **Learned contribution probability** (eSPICE): the
  :class:`~repro.cep.utility.UtilityModel` histogram supplies
  P(contributes to a match | stream, phase-in-window), so among unprotected
  tuples the ones that historically never amount to anything go first.

A small occupancy term, ``0.01 / (1 + n)`` for ``n`` buffered tuples in the
tuple's primary window, breaks remaining ties toward tuples in crowded
windows, where each individual tuple is most redundant.  The policy is
fully deterministic: no RNG, ties resolved by lowest buffer index, and the
incoming tuple is shed only when *strictly* worse than every buffered one.

Victim selection is the CEP hot path during bursts, so it never rescores
the buffer tuple by tuple.  A tuple's score depends only on its *class* —
(stream, phase bin, primary window) — and on whether its key is protected.
Each queue therefore gets its own :class:`ClassIndex` (the policy's
``buffer_index``), which files every buffered tuple under its class in
arrival order.  An overflow scores each non-empty class once, finds its
first member of the cheaper protection status (O(1) when protection is
uniform across the stream), and takes the minimum by (score, arrival
order) — arrival order is buffer order, so ties still go to the lowest
buffer index.  The index also serves as the queue's window-occupancy
counts, and it holds exactly the buffered tuples, so the policy's memory
is bounded by the queue capacity however long it runs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence

from repro.core.policies import (
    DROP_INCOMING,
    DropPolicy,
    PolicyContext,
    WindowCounts,
)
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec


class _Unwindowed:
    """Stands in for a missing window spec: every tuple in window None."""

    @staticmethod
    def primary_window(timestamp: float) -> None:
        return None


_UNWINDOWED = _Unwindowed()


class ClassIndex(WindowCounts):
    """One queue's buffered tuples, filed by scoring class.

    A class is ``(stream, phase bin, primary window)``; its members are
    ``(arrival sequence number, tuple)`` pairs in arrival order.  The
    mapping itself is the per-window occupancy count.  Classes are computed
    under ``layout`` — the policy's ``(stream_tag, within, bins)`` when the
    index last filed its members; a policy whose layout has moved on (a
    re-bound engine, a new ``stream_tag``) re-files them before reading.
    """

    __slots__ = ("policy", "name", "layout", "classes", "_seq")

    def __init__(
        self, policy: "PatternUtilityPolicy", name: str | None, window
    ) -> None:
        # ``window`` is None only for a one-shot index of a bare buffer.
        super().__init__(_UNWINDOWED if window is None else window)
        self.policy = policy
        self.name = name or ""
        self.layout = policy.layout()
        self.classes: dict[tuple, deque] = {}
        self._seq = 0

    def class_of(self, tup: StreamTuple) -> tuple:
        """The class ``tup`` files under: (stream, phase bin, window)."""
        return self._class(tup, self._primary(tup.timestamp))

    def _class(self, tup: StreamTuple, wid) -> tuple:
        tag, within, bins = self.layout
        stream = self.name if tag is None else tup.row[tag]
        if within is None:
            return stream, 0, wid
        b = int((tup.timestamp % within) / within * bins)
        return stream, (b if b < bins else bins - 1), wid

    def _file(self, seq: int, tup: StreamTuple, wid) -> None:
        key = self._class(tup, wid)
        members = self.classes.get(key)
        if members is None:
            members = self.classes[key] = deque()
        members.append((seq, tup))

    def add(self, tup: StreamTuple) -> None:
        wid = self._primary(tup.timestamp)
        self[wid] = self.get(wid, 0) + 1
        self._file(self._seq, tup, wid)
        self._seq += 1

    def remove(self, tup: StreamTuple) -> None:
        """Forget the earliest indexed tuple equal to ``tup``.

        Queues remove the first equal occurrence in buffer order (the head,
        or the index the policy returned), and equal tuples share a class.
        """
        wid = self._primary(tup.timestamp)
        n = self[wid] - 1
        if n:
            self[wid] = n
        else:
            del self[wid]
        key = self._class(tup, wid)
        members = self.classes[key]
        for i, (_, m) in enumerate(members):
            if m is tup or m == tup:
                del members[i]
                break
        if not members:
            del self.classes[key]

    def clear(self) -> None:
        super().clear()
        self.classes.clear()

    def relayout(self, layout: tuple) -> None:
        """Re-file every member under ``layout``, keeping arrival order."""
        entries = sorted(
            (entry for ms in self.classes.values() for entry in ms),
            key=lambda entry: entry[0],
        )
        self.layout = layout
        self.classes = {}
        for seq, tup in entries:
            self._file(seq, tup, self._primary(tup.timestamp))


class PatternUtilityPolicy(DropPolicy):
    """Shed the tuple least likely to contribute to a pattern match."""

    #: Victim scoring reads window occupancy; here it comes from the
    #: :class:`ClassIndex` this policy hands each queue (``buffer_index``).
    wants_window_counts = True

    #: Victim scoring reads engine state and window occupancy, never the
    #: dropped-tuple synopsis — the queue may defer synopsis inserts.
    reads_synopsis = False

    def __init__(
        self,
        engine=None,
        *,
        protect_bonus: float = 100.0,
        stream_tag: int | None = None,
    ) -> None:
        #: The live :class:`~repro.cep.engine.PatternEngine`; may be bound
        #: after construction (the CLI builds the policy before the engine).
        self.engine = engine
        self.protect_bonus = protect_bonus
        #: When the queue multiplexes several streams, ``stream_tag`` is the
        #: row position holding the stream name (the CEP pipeline's merged
        #: pattern queue tags rows at position 0).  ``None`` means the queue
        #: is single-stream and ``PolicyContext.queue_name`` identifies it.
        self.stream_tag = stream_tag

    def bind_engine(self, engine) -> None:
        """Score against ``engine`` from now on.

        Queue indexes filed under another layout (a model with different
        ``within``/``bins``, or none) re-file at their next decision.
        """
        self.engine = engine

    def layout(self) -> tuple:
        """``(stream_tag, within, bins)``: what a tuple's class depends on."""
        model = None if self.engine is None else self.engine.utility
        if model is None:
            return (self.stream_tag, None, 1)
        return (self.stream_tag, model.within, model.bins)

    def buffer_index(self, name: str, window: WindowSpec) -> ClassIndex:
        return ClassIndex(self, name, window)

    # ------------------------------------------------------------------
    def select_victim(
        self,
        buffer: Sequence[StreamTuple],
        incoming: StreamTuple,
        context: PolicyContext,
    ) -> int:
        engine = self.engine
        if engine is None:
            # No pattern state yet: degrade to deterministic head drop.
            return 0
        index = context.window_counts
        layout = self.layout()
        if type(index) is ClassIndex and index.policy is self:
            counts: Mapping[int, int] | None = index
            if index.layout != layout:
                index.relayout(layout)
        else:
            # A bare buffer (no queue index): file it once, and use the
            # counts given — no occupancy term without counts and a window.
            window = context.window
            counts = index if window is not None else None
            index = ClassIndex(self, context.queue_name, window)
            for tup in buffer:
                index.add(tup)
        model = engine.utility
        row_test = engine.protection_index().row_test
        tag = layout[0]
        bonus = self.protect_bonus
        tests: dict = {}

        def test_of(stream):
            """``stream``'s protection: a bool for all rows, or a predicate."""
            test = tests.get(stream)
            if test is None:
                test = tests[stream] = row_test(stream, tag)
            return test

        def scores(stream, b, wid) -> tuple[float, float]:
            """(unprotected, protected) score of a class."""
            p = model.probability_row(stream)[b] if model is not None else 0.0
            pb = p + bonus
            if counts is None:
                return p, pb
            n = counts.get(wid)
            occ = 0.01 if n is None else 0.01 / (1.0 + n)
            return p + occ, pb + occ

        best = None
        best_score = best_seq = 0.0
        for key, members in index.classes.items():
            plain, guarded = scores(*key)
            seq, tup = members[0]
            if plain == guarded:
                score = plain
            else:
                test = test_of(key[0])
                if test is True or test is False:
                    protected = test
                else:
                    # The first member of the cheaper status wins its
                    # class; without one, the first member does.
                    cheap = guarded < plain
                    protected = not cheap
                    for s, t in members:
                        if test(t.row) is cheap:
                            seq, tup, protected = s, t, cheap
                            break
                score = guarded if protected else plain
            if best is None or score < best_score or (
                score == best_score and seq < best_seq
            ):
                best, best_score, best_seq = tup, score, seq
        key = index.class_of(incoming)
        plain, guarded = scores(*key)
        test = test_of(key[0])
        protected = test if test is True or test is False else test(incoming.row)
        incoming_score = guarded if protected else plain
        if best is None or incoming_score < best_score:
            # Score sink for the audit ledger: the shed tuple's utility.
            context.last_score = incoming_score
            return DROP_INCOMING
        context.last_score = best_score
        return buffer.index(best)
