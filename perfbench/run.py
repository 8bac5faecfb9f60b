#!/usr/bin/env python3
"""The repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire_bursty_shed --seed 0 --seconds 25 --trace 0

Workloads: ``wire_bursty_shed`` and ``wire_steady_keep`` drive a
``python -m repro.cli serve`` process over TCP; ``sim_fig9`` and
``cep_bursty`` call the virtual-clock drivers in this process.  See
``perfbench/README.md`` for why each exists and what each metric means.

``--trace 0`` measures untraced and prints the end-to-end metrics.
``--trace 1`` measures half the time untraced and half traced, and prints
the per-layer metrics: self seconds per layer plus ``unattributed_s``
(which sum to ``trace.total_s``), counts at each layer boundary, and the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "result_latency_p50_ms": "ms",
    "result_latency_p90_ms": "ms",
    "server_cpu_us_per_row": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "protocol.decode_s": "s",
    "protocol.encode_s": "s",
    "protocol.frames_in": "count",
    "protocol.bytes_in": "bytes",
    "protocol.bytes_out": "bytes",
    "validate.s": "s",
    "validate.rows": "count",
    "offer.s": "s",
    "offer.rows": "count",
    "shed.rows": "count",
    "offer.kept_ratio": "ratio",
    "synopsis.insert_s": "s",
    "ingest.self_s": "s",
    "drain.s": "s",
    "drain.tuples": "count",
    "close.s": "s",
    "late.rows": "count",
    "shard.rpc_s": "s",
    "shard.rpc_calls": "count",
    "shard.merge_s": "s",
    "exact.s": "s",
    "exact.input_rows": "count",
    "exact.windows": "count",
    "shadow.s": "s",
    "shadow.windows": "count",
    "merge.s": "s",
    "session.self_s": "s",
    "tick.count": "count",
    "tick.self_s": "s",
    "fanout.s": "s",
    "ack.p50_ms": "ms",
    "ack.p99_ms": "ms",
    "sim.loop_self_s": "s",
    "sim.ideal_s": "s",
    "sim.drop_fraction": "ratio",
    "cep.engine_s": "s",
    "cep.ideal_s": "s",
    "cep.queue_s": "s",
    "cep.policy_s": "s",
    "cep.runs_started": "count",
    "cep.matches": "count",
    "cep.run_yield": "ratio",
    "cep.drop_fraction": "ratio",
    "gen.lag_p99_ms": "ms",
    "wire.shed_fraction": "ratio",
    "wire.rms_error": "count",
    "rms_error": "count",
    "cep_recall": "ratio",
    "failed_frac": "ratio",
    "trace.total_s": "s",
    "unattributed_s": "s",
    "trace_overhead_pct": "%",
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _metrics(values: dict, units: dict) -> dict:
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def _latency(values: dict, samples: list[float], what: str) -> None:
    import stats

    values["result_latency_p50_ms"] = stats.median(samples)
    values["result_latency_p90_ms"] = stats.percentile(samples, 90)
    note = "" if stats.tail_ok(len(samples), 90) else (
        f" (fewer than {stats.MIN_BEYOND} samples beyond p90)"
    )
    log(f"latency over {len(samples)} {what}{note}")


def _layers(values: dict, dumps: list[dict], total: float) -> None:
    import tracing

    layers, counts = tracing.layer_totals(dumps)
    values.update(tracing.breakdown(layers, total))
    values.update(counts)
    values["trace.total_s"] = total
    offered = counts.get("offer.rows", 0)
    if offered:
        values["offer.kept_ratio"] = 1.0 - counts.get("shed.rows", 0) / offered


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------
async def _handshake(server) -> float:
    from repro.service.client import TriageClient

    client = await TriageClient.connect("127.0.0.1", server.port)
    elapsed = time.monotonic() - server.launched
    await client.close()
    return elapsed


def _wire_run(spec, seed, windows, trace_dir=None):
    import wire

    args = spec["serve"] if trace_dir is None else spec["serve"] + spec.get("traced_serve", [])
    server = wire.Server(ROOT, args, trace_dir=trace_dir)
    try:
        return asyncio.run(wire.drive(server, spec, seed, windows, trace_dir is not None))
    finally:
        server.stop()


def run_wire(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import stats
    import wire

    spec = wire.WORKLOADS[workload]
    windows = max(1, round(seconds / wire.WIDTH))
    values: dict = {}
    if not trace:
        setups = []
        for _ in range(wire.SETUP_SAMPLES - 1):
            server = wire.Server(ROOT, spec["serve"])
            try:
                setups.append(asyncio.run(_handshake(server)))
            finally:
                server.stop()
        run = _wire_run(spec, seed, windows)
        setups.append(run.setup_s)
        sc = wire.score(run, workload)
        _log_run(workload, run, sc)
        _latency(values, sc["latencies"], "windows")
        values["server_cpu_us_per_row"] = wire.cpu_per_row(run) * 1e6
        values["peak_rss_mb"] = run.peak_rss_mb
        values["setup_s"] = stats.median(setups)
        units = END_TO_END
    else:
        half = max(1, windows // 2)
        plain = _wire_run(spec, seed, half)
        trace_dir = os.path.join(ROOT, ".perfbench_out", f"trace-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)
        try:
            run = _wire_run(spec, seed, half, trace_dir)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(trace_dir))
            except OSError:
                pass  # another run's traces are still there
        first = wire.score(plain, workload)
        _log_run(workload, plain, first)
        sc = wire.score(run, workload)
        _log_run(workload + " (traced)", run, sc)
        for key in ("attempted", "failed", "wrong", "missing", "unverifiable"):
            sc[key] += first[key]
        sc["valid"] = sc["valid"] and first["valid"]
        sc["correct"] = sc["correct"] and first["correct"]
        sc["lag_max_ms"] = max(sc["lag_max_ms"], first["lag_max_ms"])
        _layers(values, run.dumps, sum(d["cpu_s"] for d in run.dumps))
        base = wire.cpu_per_row(plain)
        traced = wire.cpu_per_row(run)
        values["trace_overhead_pct"] = (traced / base - 1.0) * 100.0 if base else 0.0
        values["ack.p50_ms"] = sc["ack_p50_ms"]
        values["ack.p99_ms"] = sc["ack_p99_ms"]
        values["gen.lag_p99_ms"] = sc["lag_p99_ms"]
        values["wire.shed_fraction"] = sc["shed_fraction"]
        values["wire.rms_error"] = sc["rms_error"]
        values["failed_frac"] = sc["failed"] / sc["attempted"]
        units = PER_LAYER
    return {
        "correct": sc["correct"],
        "attempted": sc["attempted"],
        "failed": sc["failed"],
        "metrics": _metrics(values, units),
    }


def _log_run(name: str, run, sc: dict) -> None:
    if not sc["valid"]:
        log(f"generator fell behind: lag p99 {sc['lag_p99_ms']:.1f} ms")
    log(
        f"{name}: sent {run.sent} rows, refused {run.refused}, late {run.late}; "
        f"windows missing {sc['missing']}, wrong {sc['wrong']}, unverifiable "
        f"{sc['unverifiable']}; generator lag p99 {sc['lag_p99_ms']:.1f} ms, "
        f"max {sc['lag_max_ms']:.1f} ms"
    )


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def run_inproc(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import inproc
    import stats

    cls = inproc.WORKLOADS[workload]
    values: dict = {}
    drivers, marks, setups = inproc.setup(cls, seed)
    if not trace:
        replays, attempted, failed, _ = inproc.measure(drivers, marks, seconds)
        typical = [inproc.typical(r) for r in replays]
        log(
            "median replay per input at reference speed (measured): "
            + ", ".join(
                f"{wall * 1e3:.1f} ms ({stats.median(x.wall for x in r) * 1e3:.1f} ms, "
                f"{len(r)} replays)"
                for (wall, _), r in zip(typical, replays)
            )
        )
        _latency(values, [wall * 1e3 for wall, _ in typical], "inputs")
        values["server_cpu_us_per_row"] = stats.median(
            cpu / d.rows * 1e6 for (_, cpu), d in zip(typical, drivers)
        )
        values["peak_rss_mb"] = _self_peak_rss_mb()
        values["setup_s"] = stats.median(setups)
        units = END_TO_END
    else:
        import tracing

        plain, a0, f0, _ = inproc.measure(drivers, marks, seconds / 2)
        tracer = tracing.Tracer(clock=time.perf_counter)
        {"sim_fig9": tracing.install_sim, "cep_bursty": tracing.install_cep}[workload](tracer)
        tracer.enabled = True
        traced, attempted, failed, results = inproc.measure(drivers, marks, seconds / 2)
        tracer.enabled = False
        attempted += a0
        failed += f0
        _layers(values, [tracer.snapshot()], sum(x.total for r in traced for x in r))
        values["trace_overhead_pct"] = (
            _seconds_per_row(traced, drivers) / _seconds_per_row(plain, drivers) - 1.0
        ) * 100.0
        quality = [d.quality(r) for d, r in zip(drivers, results)]
        for name in quality[0]:
            values[name] = sum(q[name] for q in quality) / len(quality)
        values["failed_frac"] = failed / attempted
        units = PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(values, units),
    }


def _seconds_per_row(replays, drivers) -> float:
    """Seconds per input row at reference speed over every replay."""
    seconds = sum(x.wall * x.scale for r in replays for x in r)
    rows = sum(len(r) * d.rows for r, d in zip(replays, drivers))
    return seconds / rows


def _self_peak_rss_mb() -> float:
    import procfs

    return procfs.peak_rss_mb([os.getpid()])


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"no program sources at {os.path.join(ROOT, 'src', 'repro')}")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # SIGTERM unwinds through every finally block, so servers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import inproc
    import wire

    if args.workload in wire.WORKLOADS:
        out = run_wire(args.workload, args.seed, args.seconds, bool(args.trace))
    elif args.workload in inproc.WORKLOADS:
        out = run_inproc(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        log(f"unknown workload {args.workload!r}")
        return 2
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
