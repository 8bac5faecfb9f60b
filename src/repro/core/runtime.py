"""The triage runtime: per-stream triage queues in front of one engine.

Paper Figure 2 as one object.  An arrival is counted in its windows and
offered to its stream's :class:`~repro.core.triage_queue.TriageQueue`; the
engine always takes the globally oldest queued tuple, which joins its
windows' kept bag and, under Data Triage, their kept-tuple synopsis.  At
window close :meth:`TriageRuntime.collect` hands kept state, dropped
synopses and counts to :meth:`DataTriagePipeline.evaluate_windows` as one
:class:`~repro.core.merge.WindowPartials`.

Three drivers add only what differs between them: the virtual-clock
simulator (:meth:`DataTriagePipeline.run`) spends ``service_time`` per
taken tuple; the service data plane
(:class:`~repro.service.dataplane.StreamDataPlane`, also one per shard
worker) takes a wall-clock tuple budget per tick; shared multi-query triage
(:class:`~repro.core.multi_query.SharedTriageRuntime`) charges a tuple once
per query reading its stream.  The gateway and CEP loops each drain one
queue, so they need no head heap (and CEP no windows) and stay separate.

A runtime is single-threaded: offers, takes and closes come from one
thread.  Queues built ``thread_safe`` protect their buffers, not the heap.
"""

from __future__ import annotations

import heapq

from repro.algebra.multiset import Multiset
from repro.core.merge import WindowPartials
from repro.core.triage_queue import TriageQueue
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec

__all__ = ["TriageRuntime", "close_rule"]


def _first_open_window(window: WindowSpec, timestamp: float) -> int:
    """The oldest window a tuple stamped ``timestamp`` can still land in.

    Its first window, or for a timestamp in the gap between sampled windows
    (``slide > width``), the next one.
    """
    wids = window.ids(timestamp)
    return wids[0] if wids else window.primary_window(timestamp) + 1


def close_rule(window: WindowSpec, known_windows, heads, now, grace=0.0) -> list[int]:
    """Known windows whose end (+grace) has passed and whose tuples drained.

    A window stays open while any queue head (``None`` for an empty queue)
    still belongs to it or to an earlier window: backlogged-but-kept tuples
    must land in their window first.  Windows are ordered, so the scan stops
    at the first one not due.
    """
    blocked = min(
        (_first_open_window(window, h) for h in heads if h is not None),
        default=None,
    )
    due: list[int] = []
    for wid in sorted(known_windows):
        if window.bounds(wid)[1] + grace > now or (
            blocked is not None and wid >= blocked
        ):
            break
        due.append(wid)
    return due


class TriageRuntime:
    """Triage queues, the oldest-head heap, and per-window kept state."""

    def __init__(
        self, queues: dict[str, TriageQueue], window: WindowSpec, *, summarize: bool
    ) -> None:
        """``queues`` maps each source to its queue in global chain order,
        which breaks timestamp ties: the lower index is taken first.
        ``summarize`` builds kept-tuple synopses for the shadow plan (Data
        Triage); drop-only runs keep bags only.
        """
        self.queues = queues
        self.window = window
        self.summarize = summarize
        self.sources: list[str] = list(queues)
        self._index = {s: i for i, s in enumerate(self.sources)}
        # Heap of (head timestamp, source index).  A drop policy may evict a
        # queue's head during an offer, so entries are checked lazily against
        # ``_heads`` (each queue's current head) rather than removed.
        self._heads: list[float | None] = [q.peek_timestamp() for q in queues.values()]
        self._heap = [(ts, i) for i, ts in enumerate(self._heads) if ts is not None]
        heapq.heapify(self._heap)
        self._kept_rows: dict[str, dict[int, Multiset]] = {s: {} for s in self.sources}
        self._kept_syn: dict[str, dict] = {s: {} for s in self.sources}
        # Per source index, what take() touches: name, queue, kept state.
        self._slots = [
            (s, q, self._kept_rows[s], self._kept_syn[s]) for s, q in queues.items()
        ]
        self.arrived: dict[str, dict[int, int]] = {s: {} for s in self.sources}
        self.known_windows: set[int] = set()
        self.last_closed_wid: int | None = None

    def offer(self, source: str, tup: StreamTuple) -> None:
        """One arrival: count it in its windows, then offer it to triage."""
        arrived = self.arrived[source]
        known = self.known_windows
        for wid in self.window.ids(tup.timestamp):
            arrived[wid] = arrived.get(wid, 0) + 1
            known.add(wid)
        self.queues[source].offer(tup)
        self.requeued(source)

    def requeued(self, source: str) -> None:
        """Re-register ``source``'s head after its queue took an offer."""
        i = self._index[source]
        ts = self.queues[source].peek_timestamp()
        if ts != self._heads[i]:
            self._heads[i] = ts
            if ts is not None:
                heapq.heappush(self._heap, (ts, i))

    def oldest(self) -> float | None:
        """Timestamp of the globally oldest queued tuple (None when empty)."""
        heap, heads = self._heap, self._heads
        while heap and heads[heap[0][1]] != heap[0][0]:
            heapq.heappop(heap)  # stale: that head was evicted or taken
        return heap[0][0] if heap else None

    def take(self) -> tuple[str, StreamTuple] | None:
        """Poll the globally oldest tuple into its windows' kept state.

        Returns ``(source, tuple)``, or None when every queue is empty.
        Windows at or before the closed watermark are skipped: their
        results are already out.
        """
        if self.oldest() is None:
            return None
        heap = self._heap
        i = heapq.heappop(heap)[1]
        source, q, kept_rows, kept_syn = self._slots[i]
        tup = q.poll()
        # Unconditional re-push: the next head may carry the same timestamp,
        # which requeued()'s change test would miss.
        ts = q.peek_timestamp()
        self._heads[i] = ts
        if ts is not None:
            heapq.heappush(heap, (ts, i))
        closed = self.last_closed_wid
        row = tup.row
        for wid in self.window.ids(tup.timestamp):
            if closed is not None and wid <= closed:
                continue
            bag = kept_rows.get(wid)
            if bag is None:
                bag = kept_rows[wid] = Multiset()
            bag.add(row)
            if self.summarize:
                syn = kept_syn.get(wid)
                if syn is None:
                    syn = kept_syn[wid] = q.synopsis_factory.create(q.dimensions)
                syn.insert([row[p] for p in q.dim_positions])
        return source, tup

    def due_windows(self, now: float, grace: float = 0.0) -> list[int]:
        """The windows :func:`close_rule` releases at ``now``."""
        return close_rule(self.window, self.known_windows, self._heads, now, grace)

    def collect(self, wids: list[int]) -> WindowPartials:
        """Pop the evaluation inputs for a batch of closing windows."""
        sources = self.sources
        released = {
            s: {w: self.queues[s].release_window(w) for w in wids} for s in sources
        }
        summarize = self.summarize
        return WindowPartials(
            window_ids=list(wids),
            kept_rows={
                s: {w: self._kept_rows[s].pop(w, Multiset()) for w in wids}
                for s in sources
            },
            kept_synopses=(
                {s: {w: self._kept_syn[s].pop(w, None) for w in wids} for s in sources}
                if summarize
                else None
            ),
            dropped_synopses=(
                {s: {w: released[s][w].synopsis for w in wids} for s in sources}
                if summarize
                else None
            ),
            dropped_counts={
                s: {w: released[s][w].dropped_count for w in wids} for s in sources
            },
            arrived={s: {w: self.arrived[s].pop(w, 0) for w in wids} for s in sources},
        )

    def mark_closed(self, wids: list[int]) -> None:
        """Advance the closed-window watermark; later rows for it are late."""
        for wid in wids:
            self.known_windows.discard(wid)
            self.last_closed_wid = (
                wid if self.last_closed_wid is None else max(self.last_closed_wid, wid)
            )
