"""Wire workloads: a real ``repro.cli serve`` process driven over TCP.

One generator process (this one) opens one publisher and one subscriber
:class:`~repro.service.client.TriageClient` connection and sends rows
open-loop: every 10 ms it publishes, per stream, the rows whose creation
time has passed, stamped with that creation time on the server's window
clock (aligned through WELCOME ``now``).  Publishes are not awaited
before the next batch is due, so a slow server meets a growing backlog
instead of a slower client.  Everything runs on one asyncio loop: no
extra threads, two connections.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict

import procfs
import reference
import stats

WIDTH = 0.25  # window width, seconds (the delay constraint)
BATCH = 0.01  # generator batch period, seconds
TICKS_PER_WINDOW = round(WIDTH / BATCH)
WARMUP_WINDOWS = 2  # sent and checked, not measured
TAIL_WINDOWS = 2  # sent after the measured interval so its last window
#                   closes under the same load
STREAMS = ("R", "S", "T")
#: A run whose generator sent a batch this late (p99) is invalid: the
#: offered load was not the one the workload names.
MAX_LAG_P99_MS = 25.0
SETUP_SAMPLES = 7

WORKLOADS = {
    "wire_bursty_shed": {
        "serve": ["--window", "0.25"],
        "rate": 20000.0,
        "arrival": "bursty",
        "encoding": "rows",
    },
    "wire_steady_keep": {
        "serve": [
            "--window", "0.25",
            "--engine-capacity", "50000",
            "--queue-capacity", "2000",
            "--grace", "0.1",
            "--shards", "2",
        ],
        # Tracing costs the keep server up to 20% more CPU; on a busy host
        # that delayed some traced batches past a 0.1 s grace (40-341 failed
        # rows, late where logged, in 3 of 8 traced runs; none in untraced
        # ones).  The traced run closes its windows later; the work per row
        # and per window, which it attributes to layers, does not change.
        "traced_serve": ["--grace", "0.25"],
        "rate": 6000.0,
        "arrival": "steady",
        "encoding": "cols",
    },
}


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _gauss(rng: random.Random, mean: float) -> int:
    """The paper's values: rounded N(mean, 15^2), clamped to [1, 100]."""
    return min(100, max(1, int(round(rng.gauss(mean, 15.0)))))


class StreamSchedule:
    """One stream's arrivals: creation times (offsets from the start) and
    rows, generated lazily from its own seeded RNG.

    ``bursty``: the paper's two-state Markov chain, 60% burst tuples,
    mean burst length 200, bursts 100x faster, burst values shifted +25.
    ``steady``: constant rate with +-20% gap jitter.
    """

    def __init__(self, kind: str, rate: float, arity: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.kind = kind
        self.arity = arity
        self.t = 0.0
        if kind == "bursty":
            f, length, speedup = 0.6, 200.0, 100.0
            # Mean gap f/(b*speedup) + (1-f)/b = 1/rate.
            base = rate * (f / speedup + (1 - f))
            self.base_gap = 1.0 / base
            self.burst_gap = self.base_gap / speedup
            self.p_exit = 1.0 / length
            self.p_enter = self.p_exit * f / (1 - f)
            self.in_burst = self.rng.random() < f
        else:
            self.gap = 1.0 / rate
        self._advance()

    def _advance(self) -> None:
        rng = self.rng
        if self.kind == "bursty":
            burst = self.in_burst
            self.t += self.burst_gap if burst else self.base_gap
            mean = 75.0 if burst else 50.0
            if burst:
                if rng.random() < self.p_exit:
                    self.in_burst = False
            elif rng.random() < self.p_enter:
                self.in_burst = True
        else:
            self.t += self.gap * (1.0 + 0.2 * (2.0 * rng.random() - 1.0))
            mean = 50.0
        self.row = [_gauss(rng, mean) for _ in range(self.arity)]

    def take(self, until: float) -> tuple[list, list]:
        """Rows created at offsets <= ``until``, with their offsets."""
        rows, stamps = [], []
        while self.t <= until:
            rows.append(self.row)
            stamps.append(self.t)
            self._advance()
        return rows, stamps


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.cli serve`` in its own session, on an ephemeral
    port parsed from its banner; ``trace_dir`` runs it under the tracing
    boot script instead."""

    def __init__(self, root: str, args: list[str], trace_dir: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
        )
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_traced.py")
            cmd = [sys.executable, boot, trace_dir]
        cmd += ["serve", "--host", "127.0.0.1", "--port", "0", *args]
        self.trace_dir = trace_dir
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, start_new_session=True
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.1)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode(errors="replace").splitlines():
                    if "listening on " in line:
                        return int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not start: {buf.decode(errors='replace')!r}")

    def pids(self) -> list[int]:
        return procfs.tree(self.proc.pid)

    def signal_all(self, signum: int) -> list[int]:
        pids = self.pids()
        for p in pids:
            try:
                os.kill(p, signum)
            except ProcessLookupError:
                pass
        return pids

    def stop(self) -> None:
        """Graceful SIGINT, then SIGKILL of the whole session; returns once
        the server and every shard worker have ended."""
        proc = self.proc
        pids = self.pids() if proc.poll() is None else [proc.pid]
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        if proc.poll() is None or any(procfs.alive(p) for p in pids[1:]):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        deadline = time.monotonic() + 10
        while any(procfs.alive(p) for p in pids[1:]) and time.monotonic() < deadline:
            time.sleep(0.02)
        proc.stdout.close()


# ----------------------------------------------------------------------
# One measured run against one server
# ----------------------------------------------------------------------
class Run:
    """Bookkeeping of one open-loop run."""

    def __init__(self, n_windows: int) -> None:
        self.n_windows = n_windows
        self.sent = 0
        self.refused = 0
        self.late = 0
        self.accepted_measured = 0
        self.cpu_ns: list[int] = []  # server CPU when the measured interval starts and ends
        self.acked = defaultdict(Counter)  # wid -> stream -> rows acked
        self.unverifiable: set[int] = set()
        self.rows = defaultdict(lambda: {s: Counter() for s in STREAMS})
        self.last_ts: dict[int, float] = {}
        self.ack_ms: list[float] = []
        self.lag_ms: list[float] = []
        self.results: dict[int, tuple[dict, float]] = {}
        self.waited_until = 0.0  # local clock when the wait for results ended
        self.setup_s = 0.0
        self.offset = 0.0  # server window clock minus local monotonic clock
        self.peak_rss_mb = 0.0
        self.first_wid = 0
        self.dumps: list[dict] = []


async def _publish(client, run: Run, stream, rows, stamps, wids, encoding, due, measured):
    from repro.service.client import ServiceError

    try:
        ack = await client.publish(stream, rows, timestamps=stamps, encoding=encoding)
    except ServiceError:
        run.refused += len(rows)
        run.unverifiable.update(wids)
        return
    run.ack_ms.append((time.monotonic() - due) * 1e3)
    run.late += ack["late"]
    if measured:
        run.accepted_measured += ack["accepted"]
    if ack["late"]:
        run.unverifiable.update(wids)
        return
    for wid, n in wids.items():
        run.acked[wid][stream] += n


async def _collect(client, run: Run) -> None:
    async for frame in client.results():
        run.results[frame["window"]] = (frame, time.monotonic())


async def drive(server: Server, spec: dict, seed: int, measured_windows: int, trace: bool) -> Run:
    run = Run(measured_windows)
    # The generator keeps per-window Counters of everything it sent; a
    # cyclic-GC pass over them would stall batches, so it is off while the
    # run lasts (nothing here builds reference cycles at a rate that matters).
    gc.disable()
    try:
        return await _drive(server, spec, seed, run, trace)
    finally:
        gc.enable()


async def _drive(server: Server, spec: dict, seed: int, run: Run, trace: bool) -> Run:
    from repro.service.client import TriageClient

    measured_windows = run.n_windows
    pub = await TriageClient.connect("127.0.0.1", server.port, client_name="perfbench-pub")
    welcomed = time.monotonic()
    run.setup_s = welcomed - server.launched
    offset = run.offset = pub.info["now"] - welcomed
    sub = await TriageClient.connect("127.0.0.1", server.port, client_name="perfbench-sub")
    collector = asyncio.get_running_loop().create_task(_collect(sub, run))
    try:
        for s in STREAMS:
            await pub.declare(s)
        await sub.subscribe()
        arity = {"R": 1, "S": 2, "T": 1}
        per_stream = spec["rate"] / len(STREAMS)
        schedules = {
            s: StreamSchedule(spec["arrival"], per_stream, arity[s], seed * 1000 + i)
            for i, s in enumerate(STREAMS)
        }
        # Start on a window boundary, far enough ahead to be on time.
        first_wid = math.floor((time.monotonic() + offset + 0.1) / WIDTH) + 1
        run.first_wid = first_wid
        start_srv = first_wid * WIDTH
        start_local = start_srv - offset
        n_ticks = (WARMUP_WINDOWS + measured_windows + TAIL_WINDOWS) * TICKS_PER_WINDOW
        m_start = WARMUP_WINDOWS * TICKS_PER_WINDOW
        m_end = m_start + measured_windows * TICKS_PER_WINDOW
        encoding = spec["encoding"]
        pending: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        for k in range(n_ticks + 1):
            due = start_local + k * BATCH
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            run.lag_ms.append(max(0.0, time.monotonic() - due) * 1e3)
            if trace and k == m_start:
                server.signal_all(signal.SIGUSR1)
            elif trace and k == m_end:
                traced_pids = server.signal_all(signal.SIGUSR2)
            if k in (m_start, m_end):
                run.cpu_ns.append(procfs.cpu_ns(server.pids()))
            if k == n_ticks:
                break
            measured = m_start <= k < m_end
            for s in STREAMS:
                rows, offs = schedules[s].take((k + 1) * BATCH)
                if not rows:
                    continue
                stamps = [start_srv + o for o in offs]
                wids = Counter(reference.window_of(ts, WIDTH) for ts in stamps)
                run.sent += len(rows)
                cells, last = run.rows, run.last_ts
                for row, ts in zip(rows, stamps):
                    wid = reference.window_of(ts, WIDTH)
                    cells[wid][s][row[0] if len(row) == 1 else tuple(row)] += 1
                    if ts > last.get(wid, -1.0):
                        last[wid] = ts
                task = loop.create_task(
                    _publish(pub, run, s, rows, stamps, wids, encoding, due, measured)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending)
        # Every checked window (warm-up + measured) must answer.
        last_checked = first_wid + WARMUP_WINDOWS + measured_windows - 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(
            w in run.results for w in range(first_wid, last_checked + 1)
        ):
            await asyncio.sleep(0.02)
        run.waited_until = time.monotonic()
        run.peak_rss_mb = procfs.peak_rss_mb(server.pids())
        if trace:
            run.dumps = _read_dumps(server.trace_dir, traced_pids)
    finally:
        await pub.close()
        await sub.close()
        collector.cancel()
        try:
            await collector
        except asyncio.CancelledError:
            pass
    return run


def _read_dumps(trace_dir: str, pids: list[int]) -> list[dict]:
    """Wait for every traced process's span file (written on SIGUSR2)."""
    paths = [os.path.join(trace_dir, f"{p}.json") for p in pids]
    deadline = time.monotonic() + 10.0
    while not all(os.path.exists(p) for p in paths) and time.monotonic() < deadline:
        time.sleep(0.02)
    dumps = []
    for path in paths:
        with open(path) as fh:
            dumps.append(json.load(fh))
    return dumps


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def cpu_per_row(run: Run) -> float:
    """Server CPU seconds per accepted row over the measured interval.

    The CPU of the server tree (schedstat, nanoseconds) is read when the
    first and the last measured batch are due; the rows are those acked
    from the batches sent between the two readings."""
    if len(run.cpu_ns) < 2 or not run.accepted_measured:
        return 0.0
    return (run.cpu_ns[1] - run.cpu_ns[0]) / 1e9 / run.accepted_measured


def score(run: Run, workload: str) -> dict:
    """Checks and metrics of one run."""
    exact_keep = workload == "wire_steady_keep"
    first = run.first_wid
    checked = range(first, first + WARMUP_WINDOWS + run.n_windows)
    measured = range(first + WARMUP_WINDOWS, first + WARMUP_WINDOWS + run.n_windows)
    missing = bad = unverifiable = 0
    latencies, errors = [], []
    arrived = dropped = 0
    for wid in checked:
        got = run.results.get(wid)
        if got is None:
            # No answer by the end of the wait: failed, and timed at the
            # wait's end so a stalled window cannot shorten the latencies.
            missing += 1
            if wid in measured and wid in run.last_ts:
                latencies.append((run.waited_until + run.offset - run.last_ts[wid]) * 1e3)
            continue
        frame, at = got
        cells = run.rows[wid]
        ref = reference.count_by_a(cells["R"], cells["S"], cells["T"])
        if wid in run.unverifiable:
            # Rows of this window were refused; its counts cannot be checked
            # against the rows acked, and the refused rows already failed.
            unverifiable += 1
        else:
            ok = reference.arrivals_match(frame, run.acked[wid])
            if exact_keep:
                ok = ok and reference.counts_match(frame, ref)
            bad += not ok
        arrived += sum(frame["arrived"].values())
        dropped += sum(frame["dropped"].values())
        if wid in measured:
            # RESULT arrival on the server clock, minus the creation time
            # of the last row sent into the window.
            latencies.append((at + run.offset - run.last_ts[wid]) * 1e3)
            errors.extend(reference.squared_errors(frame, ref))
    windows = len(checked)
    attempted = run.sent + windows
    failed = run.refused + run.late + missing + bad + unverifiable
    lag_p99 = stats.percentile(run.lag_ms, 99)
    valid = lag_p99 <= MAX_LAG_P99_MS
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": valid and failed == 0,
        "wrong": bad,
        "valid": valid,
        "latencies": latencies,
        "lag_p99_ms": lag_p99,
        "lag_max_ms": max(run.lag_ms),
        "missing": missing,
        "unverifiable": unverifiable,
        "shed_fraction": dropped / arrived if arrived else 0.0,
        "rms_error": math.sqrt(sum(errors) / len(errors)) if errors else 0.0,
        "ack_p50_ms": stats.percentile(run.ack_ms, 50),
        "ack_p99_ms": stats.percentile(run.ack_ms, 99),
    }
