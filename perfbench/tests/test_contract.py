"""BENCHMARK.json agrees with what run.py prints, and run.py fails fast
without the program."""

import json
import os
import shutil
import subprocess
import sys

import run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_the_runner():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    import inproc
    import wire

    gated = {w["name"] for w in spec["workloads"]}
    assert gated == set(wire.WORKLOADS) | set(inproc.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_wire_runs_cover_enough_windows_for_p90():
    import stats
    import wire

    windows = round(_spec()["run_seconds"] / wire.WIDTH)
    assert stats.tail_ok(windows, 90)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_fig9",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_in_process_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_fig9",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    layers = [m for m in metrics if m.endswith(("_s", ".s")) and m != "trace.total_s"]
    total = sum(metrics[m]["value"] for m in layers)
    assert abs(total - metrics["trace.total_s"]["value"]) < 1e-6
