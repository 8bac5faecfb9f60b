"""Outside-in layer tracing for the benchmark.

Nothing under ``src/`` is edited: :func:`install` replaces the public
entry points of each layer with wrappers that record spans into an
in-memory :class:`Tracer`.  Two kinds of instrumentation exist:

* **recorded spans** at batch, window, tick and RPC granularity.  Each is
  kept as ``(id, name, start, end, parent, agg_child)`` and written out
  when tracing stops; a span's self time is its duration minus the union
  of its recorded children and minus ``agg_child`` (below).
* **aggregated calls** for per-tuple functions (row validation, one-tuple
  offers, synopsis inserts), where one record per call would cost more
  than the call.  Their self time is summed per name on the fly, and
  their full duration is charged to the enclosing frame's ``agg_child``
  so that frame's self time excludes it.

Async methods (connection handling, the server's tick, the RESULT
fan-out) are timed per resumption step, so time spent by other tasks
while they await is not charged to them.

The clock is a constructor argument: thread CPU time for the server
process tree (the wire total is CPU), ``perf_counter`` for the in-process
drivers (their total is wall time).  All mutable tallies are per thread
and merged at :meth:`Tracer.snapshot`, because the sharded server ingests
from executor threads.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

# Map from span / aggregate name to the per-layer self-time metric it
# feeds.  Every name the wrappers use appears here; time outside all of
# them is reported as ``unattributed_s``.
LAYER_OF = {
    "protocol.decode": "protocol.decode_s",
    "protocol.encode": "protocol.encode_s",
    "validate": "validate.s",
    "offer": "offer.s",
    "synopsis.insert": "synopsis.insert_s",
    "ingest": "ingest.self_s",
    "drain": "drain.s",
    "close": "close.s",
    "shard.rpc": "shard.rpc_s",
    "shard.merge": "shard.merge_s",
    "exact": "exact.s",
    "shadow": "shadow.s",
    "merge": "merge.s",
    "session": "session.self_s",
    "tick": "tick.self_s",
    "fanout": "fanout.s",
    "sim.loop": "sim.loop_self_s",
    "sim.ideal": "sim.ideal_s",
    "cep.engine": "cep.engine_s",
    "cep.ideal": "cep.ideal_s",
    "cep.queue": "cep.queue_s",
    "cep.policy": "cep.policy_s",
}

LAYER_METRICS = tuple(dict.fromkeys(LAYER_OF.values()))


class _ThreadState:
    __slots__ = ("stack", "agg", "counts")

    def __init__(self) -> None:
        #: Open frames: [id, name, start, parent, agg_child, rec_child, recorded]
        self.stack: list[list] = []
        #: name -> [self seconds, calls] for aggregated calls.
        self.agg: dict[str, list] = {}
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """In-memory spans and counts, recorded only while :attr:`enabled`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        #: True in a forked shard worker (its sends are replies, not RPCs).
        self.worker = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def reset(self) -> None:
        """Forget everything recorded (also used in a freshly forked child,
        which inherits the parent's buffers)."""
        self.enabled = False
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def count(self, name: str, value: float = 1.0) -> None:
        self.state().counts[name] += value

    # ------------------------------------------------------------------
    def enter(self, name: str, recorded: bool) -> list:
        st = self.state()
        stack = st.stack
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), name, 0.0, parent, 0.0, 0.0, recorded]
        stack.append(frame)
        frame[2] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        st = self.state()
        stack = st.stack
        # Pop down to this frame (a frame left open by an exception that
        # bypassed its wrapper cannot happen: every wrapper uses finally).
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        sid, name, start, parent, agg_child, rec_child, recorded = frame
        dur = end - start
        if recorded:
            self.spans.append((sid, name, start, end, parent, agg_child))
            if stack:
                stack[-1][5] += dur
        else:
            acc = st.agg.get(name)
            if acc is None:
                acc = st.agg[name] = [0.0, 0]
            acc[0] += dur - agg_child - rec_child
            acc[1] += 1
            if stack:
                stack[-1][4] += dur

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded so far."""
        agg: dict[str, list] = {}
        counts: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (secs, calls) in list(st.agg.items()):
                a = agg.setdefault(name, [0.0, 0])
                a[0] += secs
                a[1] += calls
            for name, value in list(st.counts.items()):
                counts[name] += value
        return {"spans": list(self.spans), "agg": agg, "counts": dict(counts)}


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def span_self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals, minus the aggregated calls made directly inside it."""
    children: dict[int, list] = defaultdict(list)
    for sid, _name, start, end, parent, _agg in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, agg in spans:
        out[sid] = (end - start) - union_length(children.get(sid, ()), start, end) - agg
    return out


def layer_totals(dumps) -> tuple[dict[str, float], dict[str, float]]:
    """Sum self times per layer metric and counts across process dumps."""
    layers = {m: 0.0 for m in LAYER_METRICS}
    counts: dict[str, float] = defaultdict(float)
    for dump in dumps:
        selfs = span_self_times(dump["spans"])
        for sid, name, *_ in dump["spans"]:
            layers[LAYER_OF[name]] += selfs[sid]
        for name, (secs, _calls) in dump["agg"].items():
            layers[LAYER_OF[name]] += secs
        for name, value in dump["counts"].items():
            counts[name] += value
    return layers, dict(counts)


def breakdown(layers: dict[str, float], total: float) -> dict[str, float]:
    """Layers plus ``unattributed_s``, which together sum to ``total``."""
    out = dict(layers)
    out["unattributed_s"] = total - sum(layers.values())
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def traced(tracer: Tracer, fn, name, *, recorded=True, count=None):
    """Wrap a synchronous callable.  ``name`` is a string or a callable
    ``(args) -> str | None`` (None: run untraced, time stays with the
    caller).  ``count(tracer, args, kwargs, result)`` runs after the call."""
    fixed = name if isinstance(name, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        label = fixed or name(args)
        if label is None:
            return fn(*args, **kwargs)
        frame = tracer.enter(label, recorded)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


class _Stepped:
    """Await a coroutine one resumption at a time, each step a span."""

    __slots__ = ("tracer", "coro", "name")

    def __init__(self, tracer: Tracer, coro, name: str) -> None:
        self.tracer = tracer
        self.coro = coro
        self.name = name

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        value = None
        error = None
        while True:
            frame = tracer.enter(self.name, True) if tracer.enabled else None
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    tracer.exit(frame)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                value = None
                error = exc


def traced_async(tracer: Tracer, fn, name: str, *, count=None):
    """Wrap an ``async def``.  Whether a step is recorded is decided per
    step, so a long-lived coroutine started before tracing was enabled
    (a connection handler) is still traced once it is."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if count is not None and tracer.enabled:
            count(tracer, args, kwargs, None)
        return await _Stepped(tracer, fn(*args, **kwargs), name)

    return wrapper


def patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``."""
    setattr(owner, attr, make(getattr(owner, attr)))


# ----------------------------------------------------------------------
# Layer instrumentation
# ----------------------------------------------------------------------
def _install_synopses(tracer: Tracer) -> None:
    # Import every synopsis module so each class is a known subclass.
    from repro.synopses import (  # noqa: F401
        cms,
        endbiased,
        equiwidth,
        mhist,
        sample,
        sparse_hist,
        wavelet,
    )
    from repro.synopses.base import Synopsis

    seen = set()
    todo = [Synopsis]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr in ("insert", "insert_many", "insert_bulk"):
            if attr in cls.__dict__:
                patch(
                    cls,
                    attr,
                    lambda f: traced(tracer, f, "synopsis.insert", recorded=False),
                )


def _install_evaluation(tracer: Tracer, *, ideal_owner: bool) -> None:
    """Window evaluation: exact plan, shadow plan, composite merge."""
    import repro.core.pipeline as pipeline_mod
    from repro.engine.executor import QueryExecutor
    from repro.rewrite.shadow import ShadowPlan

    def exact_name(args):
        # The simulator's ideal reference runs the same executor; its time
        # belongs to sim.ideal, so it stays with the enclosing span.
        stack = tracer.state().stack
        if stack and stack[-1][1] == "sim.ideal":
            return None
        return "exact"

    def count_exact(tracer, args, kwargs, result):
        st = tracer.state()
        st.counts["exact.windows"] += 1
        st.counts["exact.input_rows"] += sum(len(b) for b in args[2].values())

    patch(
        QueryExecutor,
        "execute",
        lambda f: traced(tracer, f, exact_name, count=count_exact),
    )
    patch(
        ShadowPlan,
        "estimate_dropped",
        lambda f: traced(
            tracer,
            f,
            "shadow",
            count=lambda t, a, k, r: t.count("shadow.windows"),
        ),
    )
    for attr in ("exact_groups", "estimate_groups", "merge_groups"):
        patch(pipeline_mod, attr, lambda f: traced(tracer, f, "merge"))
    if ideal_owner:
        from repro.core.pipeline import DataTriagePipeline

        for attr in ("_ideal_inputs", "_ideal_for"):
            patch(DataTriagePipeline, attr, lambda f: traced(tracer, f, "sim.ideal"))


def _traced_offer(tracer: Tracer, fn, name: str, recorded: bool):
    """Wrap a triage-queue offer; counts rows offered and rows shed."""

    @functools.wraps(fn)
    def wrapper(queue, batch, *args, **kwargs):
        if not tracer.enabled:
            return fn(queue, batch, *args, **kwargs)
        before = queue.stats.dropped
        frame = tracer.enter(name, recorded)
        try:
            return fn(queue, batch, *args, **kwargs)
        finally:
            tracer.exit(frame)
            st = tracer.state()
            # A recorded offer takes a batch; an aggregated one, one tuple.
            st.counts["offer.rows"] += len(batch) if recorded else 1
            st.counts["shed.rows"] += queue.stats.dropped - before

    return wrapper


def install_server(tracer: Tracer) -> None:
    """Instrument every layer a wire workload runs, in the server process
    (the forked shard workers inherit the same wrappers)."""
    import multiprocessing.connection as mpc

    import repro.service.protocol as protocol
    import repro.service.session as session_mod
    import repro.service.shard as shard_mod
    from repro.core.triage_queue import TriageQueue
    from repro.engine.types import Schema
    from repro.service.dataplane import StreamDataPlane
    from repro.service.server import TriageServer
    from repro.service.session import SessionRegistry

    def count_decode(tracer, args, kwargs, result):
        st = tracer.state()
        st.counts["protocol.frames_in"] += 1
        st.counts["protocol.bytes_in"] += len(args[0])

    patch(
        protocol,
        "decode_frame",
        lambda f: traced(tracer, f, "protocol.decode", count=count_decode),
    )
    encode = traced(
        tracer,
        protocol.encode_frame,
        "protocol.encode",
        count=lambda t, a, k, r: t.count("protocol.bytes_out", len(r)),
    )
    protocol.encode_frame = encode
    session_mod.encode_frame = encode

    patch(
        Schema,
        "validate_row",
        lambda f: traced(
            tracer,
            f,
            "validate",
            recorded=False,
            count=lambda t, a, k, r: t.count("validate.rows"),
        ),
    )
    patch(
        Schema,
        "validate_columns",
        lambda f: traced(
            tracer,
            f,
            "validate",
            recorded=False,
            count=lambda t, a, k, r: t.count(
                "validate.rows", len(a[1][0]) if a[1] else 0
            ),
        ),
    )

    patch(
        TriageQueue,
        "offer_bulk",
        lambda f: _traced_offer(tracer, f, "offer", recorded=True),
    )
    _install_synopses(tracer)

    def count_late(tracer, args, kwargs, result):
        tracer.count("late.rows", result[1])

    for attr in ("ingest", "ingest_columns"):
        patch(
            StreamDataPlane,
            attr,
            lambda f: traced(tracer, f, "ingest", count=count_late),
        )
        patch(shard_mod.ShardedDataPlane, attr, lambda f: traced(tracer, f, "ingest"))

    def drain(f):
        @functools.wraps(f)
        def wrapper(plane, *args, **kwargs):
            if not tracer.enabled:
                return f(plane, *args, **kwargs)
            before = sum(q.stats.polled for q in plane.queues.values())
            frame = tracer.enter("drain", True)
            try:
                return f(plane, *args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.count(
                    "drain.tuples",
                    sum(q.stats.polled for q in plane.queues.values()) - before,
                )

        return wrapper

    patch(StreamDataPlane, "drain", drain)
    patch(shard_mod.ShardedDataPlane, "advance", lambda f: traced(tracer, f, "drain"))
    for cls in (StreamDataPlane, shard_mod.ShardedDataPlane):
        for attr in ("collect", "mark_closed", "due_windows"):
            patch(cls, attr, lambda f: traced(tracer, f, "close"))

    def count_send(tracer, args, kwargs, result):
        if not tracer.worker:
            tracer.count("shard.rpc_calls")

    patch(mpc.Connection, "send", lambda f: traced(tracer, f, "shard.rpc", count=count_send))
    patch(mpc.Connection, "recv", lambda f: traced(tracer, f, "shard.rpc"))
    patch(shard_mod, "merge_partials", lambda f: traced(tracer, f, "shard.merge"))

    _install_evaluation(tracer, ideal_owner=False)

    patch(
        TriageServer,
        "tick",
        lambda f: traced_async(
            tracer, f, "tick", count=lambda t, a, k, r: t.count("tick.count")
        ),
    )
    patch(SessionRegistry, "broadcast", lambda f: traced_async(tracer, f, "fanout"))
    patch(
        TriageServer,
        "_handle_connection",
        lambda f: traced_async(tracer, f, "session"),
    )


def install_sim(tracer: Tracer) -> None:
    """Instrument the virtual-clock Data Triage simulator (sim_fig9)."""
    from repro.core.pipeline import DataTriagePipeline
    from repro.core.triage_queue import TriageQueue

    patch(
        TriageQueue,
        "offer",
        lambda f: _traced_offer(tracer, f, "offer", recorded=False),
    )
    _install_synopses(tracer)
    patch(DataTriagePipeline, "run", lambda f: traced(tracer, f, "sim.loop"))
    _install_evaluation(tracer, ideal_owner=True)


def install_cep(tracer: Tracer) -> None:
    """Instrument the CEP pattern pipeline (cep_bursty)."""
    from repro.cep.engine import PatternEngine
    from repro.cep.pipeline import PatternPipeline
    from repro.cep.policy import PatternUtilityPolicy
    from repro.core.triage_queue import TriageQueue

    def build_engine(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            engine = f(*args, **kwargs)
            engine._perfbench_shedding = True
            return engine

        return wrapper

    # The pipeline builds its shedding engine through build_engine and its
    # ideal (unshedded) reference engine directly; the tag tells them apart.
    patch(PatternPipeline, "build_engine", build_engine)
    patch(
        PatternEngine,
        "advance_batch",
        lambda f: traced(
            tracer,
            f,
            lambda a: "cep.engine"
            if getattr(a[0], "_perfbench_shedding", False)
            else "cep.ideal",
        ),
    )
    for attr in ("offer", "poll"):
        patch(TriageQueue, attr, lambda f: traced(tracer, f, "cep.queue", recorded=False))
    patch(
        PatternUtilityPolicy,
        "select_victim",
        lambda f: traced(tracer, f, "cep.policy", recorded=False),
    )
