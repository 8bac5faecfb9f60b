"""In-process workloads: the two virtual-clock drivers, called directly.

``sim_fig9`` replays the paper's Figure 9 experiment loop
(``DataTriagePipeline.run``); ``cep_bursty`` replays the CEP pattern
pipeline (``PatternPipeline.run``).  Both are deterministic for a seed,
so every replay must reproduce the warm-up replay's answer exactly.

Timing.  The cores of a shared host run the same Python code at two
speeds, about 1.6x apart, depending on what other tenants run; which
speed prevails changes within seconds and over minutes, so a whole 25 s
run can sit in either.  Each replay therefore runs a fixed probe (a few
microseconds of interpreter work that touches nothing of the program) at
fixed points of its own call sequence (:class:`Marks`), and reports its
time scaled by :data:`PROBE_REFERENCE_S` over the probe's mean time
during that replay.  Probe and program are interleaved every few
hundred microseconds, so both see the same mix of host speeds, and the
scaled time stays put while the host's speed moves.  Work the program
adds anywhere adds to the scaled time; the probe's own time is left out.
"""

from __future__ import annotations

import functools
import statistics
import time

import reference

#: Calls between two probes (0.2-0.6 ms of replay).
MARK_EVERY = 20

_PROBE_KEYS = tuple(range(64))
_PROBE_MAP = {k: k for k in _PROBE_KEYS}

#: Seconds :func:`probe` takes at reference speed.  On a 2-vCPU Intel Xeon
#: VM of a shared host it takes 2.7-2.9 us while the other tenants are
#: quiet and 4-5 us while they are busy, which is most of the time.
#: In-process times are reported at this speed.
PROBE_REFERENCE_S = 4.0e-6


def probe() -> int:
    """Fixed interpreter work that allocates nothing (so it neither
    triggers nor suffers the program's garbage collections)."""
    m = _PROBE_MAP
    n = 0
    for k in _PROBE_KEYS:
        n ^= m[k]
    return n


class Marks:
    """Probes at fixed points of a replay's call sequence.

    :meth:`install` wraps triage-queue offers (one per input tuple or
    event, in both drivers) and the workload's other per-item calls.
    Every :data:`MARK_EVERY`-th call times one :func:`probe` on the wall
    and CPU clocks.  The wrapper costs one call and one increment per
    offer, the same in every run of the benchmark."""

    def __init__(self) -> None:
        self.calls = 0
        #: (CPU, wall) before and (wall, CPU) after each probe.
        self.readings: list[tuple[float, float, float, float]] = []

    def read(self) -> None:
        c0 = time.process_time()
        w0 = time.perf_counter()
        probe()
        w1 = time.perf_counter()
        self.readings.append((c0, w0, w1, time.process_time()))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            if self.calls % MARK_EVERY == 0:
                self.read()
            return fn(*args, **kwargs)

        return wrapper

    def install(self, owners) -> None:
        """Wrap each ``(owner, attr)``; an attribute the program does not
        have (a renamed internal) is left out, which only makes the
        probes sparser."""
        for owner, attr in owners:
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self._wrap(fn))

    def start(self) -> None:
        self.calls = 0
        self.readings = []
        self.read()

    def replay(self) -> "Replay":
        """The timing of the replay between :meth:`start` and the last
        :meth:`read`."""
        r = self.readings
        inner = r[1:-1]
        total = r[-1][1] - r[0][2]
        wall = total - sum(w1 - w0 for _, w0, w1, _ in inner)
        cpu = r[-1][0] - r[0][3] - sum(c1 - c0 for c0, _, _, c1 in inner)
        probes = sum(w1 - w0 for _, w0, w1, _ in r)
        return Replay(wall, cpu, total, PROBE_REFERENCE_S * len(r) / probes)


class Replay:
    """One replay's seconds: ``wall`` and ``cpu`` without the probes, and
    ``total`` wall with the probes inside the replay.  ``scale`` turns
    seconds into seconds at reference speed.  It comes from the probes'
    wall time, which is the tighter reading (their CPU time includes the
    wall clock reads around them); without steal time the two clocks
    run at the same host speed."""

    __slots__ = ("wall", "cpu", "total", "scale")

    def __init__(self, wall: float, cpu: float, total: float, scale: float) -> None:
        self.wall = wall
        self.cpu = cpu
        self.total = total
        self.scale = scale


def typical(replays: list[Replay]) -> tuple[float, float]:
    """(wall, CPU) seconds of one input at reference speed: the median
    over its replays, which sets aside a replay hit by a rare stall."""
    return (
        statistics.median(r.wall * r.scale for r in replays),
        statistics.median(r.cpu * r.scale for r in replays),
    )


class SimFig9:
    """Figure 9 at peak 8000 tuples/s, 40 windows: 18,000 tuples."""

    unit = "tuples"
    #: Inputs per run.  Replay cost differs between single inputs by 10%
    #: and more, so each run takes the median over several inputs derived
    #: from its seed.  Each input's construction plus warm-up replay is
    #: one set-up sample.
    inputs = 12

    @staticmethod
    def marked():
        from repro.core.triage_queue import TriageQueue
        from repro.engine.executor import QueryExecutor

        return [(TriageQueue, "offer"), (QueryExecutor, "execute")]

    def __init__(self, seed: int) -> None:
        from repro.core.strategies import ShedStrategy
        from repro.experiments import ExperimentParams, bursty_pipeline
        from repro.quality.rms import run_rms

        self._rms = run_rms
        self.pipeline, self.streams = bursty_pipeline(
            ShedStrategy.DATA_TRIAGE, 8000.0, ExperimentParams(n_windows=40), seed
        )
        self.expected = None
        self.rows = sum(len(v) for v in self.streams.values())

    def replay(self):
        return self.pipeline.run(self.streams)

    def check(self, result) -> tuple[int, int]:
        """(attempted, failed) window answers of one replay."""
        failed = 0
        for w in result.windows:
            for s, arrived in w.arrived.items():
                failed += arrived != w.kept[s] + w.dropped[s]
        signature = (result.total_arrived, result.total_dropped, self._rms(result))
        if self.expected is None:
            self.expected = signature
        elif signature != self.expected:
            failed += len(result.windows)
        failed += result.total_arrived != self.rows
        return len(result.windows), failed

    def quality(self, result) -> dict:
        return {
            "rms_error": self._rms(result),
            "sim.drop_fraction": result.drop_fraction,
        }


class CepBursty:
    """DEMO_PATTERN, pattern-utility shedding, 20,000 bursty events."""

    unit = "events"
    #: Fewer inputs than the simulator: a replay takes 0.6-1.2 s, and
    #: the run needs at least two of each.  Replay cost differs between
    #: inputs by up to 25%; with 4 inputs the median moved 0.09 (first to
    #: third quartile over the median) over five seeds, with 8 it moved
    #: 0.06.
    inputs = 8

    @staticmethod
    def marked():
        from repro.cep.engine import PatternEngine
        from repro.core.triage_queue import TriageQueue

        # Offers alone leave two long stretches without a probe: the ideal
        # engine's pass over every event before the first offer (about
        # 15% of a replay) and the final catch-up drain.  The engine's
        # per-event step is marked too, so probes sample those as well.
        return [(TriageQueue, "offer"), (PatternEngine, "_step_event")]

    def __init__(self, seed: int) -> None:
        from repro.cep.engine import match_identity
        from repro.cep.pipeline import (
            DEMO_PATTERN,
            PatternConfig,
            PatternPipeline,
            bursty_pattern_workload,
            demo_catalog,
        )
        from repro.core.policies import make_policy

        self._identity = match_identity
        self.events = bursty_pattern_workload(n_events=20000, seed=seed)
        self.pipeline = PatternPipeline(
            demo_catalog(),
            DEMO_PATTERN,
            PatternConfig(policy=make_policy("pattern-utility")),
        )
        self.expected = None
        self.rows = len(self.events)

    def replay(self):
        return self.pipeline.run(self.events)

    def check(self, result) -> tuple[int, int]:
        """(attempted, failed) matches of one replay: a match outside the
        ideal set fails, and so does every match of a replay whose answer
        differs from the warm-up's."""
        pattern = result.pattern
        got = [self._identity(pattern, m.row) for m in result.matches]
        ideal = [self._identity(pattern, m.row) for m in result.ideal_matches]
        failed = reference.match_subset(got, ideal)
        signature = (len(got), result.dropped, result.recall)
        if self.expected is None:
            self.expected = signature
        elif signature != self.expected:
            failed = len(got)
        failed += result.offered != self.rows
        return max(1, len(got)), failed

    def quality(self, result) -> dict:
        stats = result.engine_stats
        return {
            "cep_recall": result.recall,
            "cep.drop_fraction": result.drop_fraction,
            "cep.runs_started": stats.runs_started,
            "cep.matches": stats.matches,
            "cep.run_yield": stats.matches / stats.runs_started
            if stats.runs_started
            else 0.0,
        }


WORKLOADS = {"sim_fig9": SimFig9, "cep_bursty": CepBursty}


def subseeds(cls, seed: int) -> list[int]:
    """The input seeds of one run: disjoint for different run seeds."""
    return [seed * cls.inputs + k for k in range(cls.inputs)]


def setup(cls, seed: int):
    """Install the marks, construct one driver per input and run its
    warm-up replay.

    Returns the drivers, the marks, and each set-up's seconds at
    reference speed (scaled by the probes of its warm-up replay)."""
    marks = Marks()
    marks.install(cls.marked())
    drivers, seconds = [], []
    for sub in subseeds(cls, seed):
        marks.start()
        t0 = time.perf_counter()
        driver = cls(sub)
        result = driver.replay()
        elapsed = time.perf_counter() - t0
        marks.read()
        seconds.append(elapsed * marks.replay().scale)
        driver.check(result)
        drivers.append(driver)
    return drivers, marks, seconds


def measure(drivers, marks: Marks, seconds: float):
    """Replay the inputs in turn until ``seconds`` of wall time have passed
    (at least two replays of each).

    Returns (per input, the :class:`Replay` of each of its replays),
    attempted, failed, and the last result of each driver."""
    replays = [[] for _ in drivers]
    attempted = failed = 0
    results = [None] * len(drivers)
    end = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % len(drivers)
        driver = drivers[k]
        marks.start()
        result = driver.replay()
        marks.read()
        replays[k].append(marks.replay())
        a, f = driver.check(result)
        attempted += a
        failed += f
        results[k] = result
        i += 1
        if time.perf_counter() >= end and i >= 2 * len(drivers):
            break
    return replays, attempted, failed, results
