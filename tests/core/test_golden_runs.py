"""Golden digests of fixed-seed runs.

Determinism tests compare a run with another run of the same code, so a
change that alters every answer the same way passes them.  These pins
hash a canonical encoding of whole results (every window's merged, exact,
estimated and ideal groups, per-source counts, latencies and queue
statistics).  Any change to a drop decision, a window's contents or an
estimate moves a digest; update one only for a change meant to alter
answers, and say so where the change is recorded.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import random

import pytest

from repro.core import (
    DataTriagePipeline,
    PipelineConfig,
    ShedStrategy,
    SharedTriageRuntime,
    run_gateway_experiment,
)
from repro.core.policies import HeadDropPolicy
from repro.core.triage_queue import QueueStats
from repro.engine import WindowSpec
from repro.experiments import (
    ExperimentParams,
    _config,
    bursty_pipeline,
    bursty_workload,
    paper_catalog,
)
from repro.sources import SteadyArrival, generate_stream, paper_row_generators
from repro.sources.network import NetworkLink

QUERY = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a;"
)
PARAMS = ExperimentParams(n_windows=10)
PEAK_RATE = 8000.0
SEED = 3


def canon(value) -> str:
    """A deterministic text encoding; floats via ``repr``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        items = sorted((canon(k), canon(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, QueueStats):
        return canon(dataclasses.astuple(value))
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def encode_run(run) -> str:
    windows = [
        canon(
            [
                w.window_id,
                w.merged,
                w.exact,
                w.estimated,
                w.ideal,
                w.arrived,
                w.kept,
                w.dropped,
                w.result_latency,
            ]
        )
        for w in run.windows
    ]
    return canon(
        [
            windows,
            run.total_arrived,
            run.total_kept,
            run.total_dropped,
            run.strategy,
            run.queue_stats,
        ]
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fig9_run(strategy=ShedStrategy.DATA_TRIAGE, **config_changes):
    if not config_changes:
        pipeline, streams = bursty_pipeline(strategy, PEAK_RATE, PARAMS, SEED)
    else:
        window, streams = bursty_workload(PEAK_RATE, PARAMS, SEED)
        config = dataclasses.replace(
            _config(strategy, window, PARAMS, SEED), **config_changes
        )
        pipeline = DataTriagePipeline(paper_catalog(), QUERY, config)
    return pipeline.run(streams)


FIG9_DIGESTS = {
    "data_triage": "68c8e32f4abb59eb9a1052963ceb0d60a787069731e0b8ce161a593eea6e79b2",
    "drop_only": "a373edc28891bfd69cee7757adc3cb346f32eaece639498ffeb0427023e2b4d9",
    "adaptive_staleness": (
        "9e6749b644484662723121aa59d1795a8df0d49e6666595dc981ccac448372d3"
    ),
    "head_drop": "66d4b9554146797ca0ab93a26ff89374c7113fc20840884f741771b2cfa49b55",
}
SHARED_DIGEST = "86420d698d374940d638aa5f004168c2023bfd44d6ae0f36b84d8692ed471470"
GATEWAY_DIGESTS = {
    "triage": "59e1811c0cefac8a5df1e65674d44a40a8d9637db5cc08e3a4d161fa2c23ac24",
    "tail_drop": "bae4bb339cc46419b26eb74437a2a89220c095e6daa7144b10c780acf5e8dccb",
}


@pytest.mark.parametrize(
    "case, make",
    [
        ("data_triage", lambda: fig9_run()),
        ("drop_only", lambda: fig9_run(ShedStrategy.DROP_ONLY)),
        ("adaptive_staleness", lambda: fig9_run(adaptive_staleness=0.05)),
        ("head_drop", lambda: fig9_run(policy=HeadDropPolicy())),
    ],
)
def test_fig9_bursty_run_digest(case, make):
    run = make()
    assert run.total_dropped > 0
    assert digest(encode_run(run)) == FIG9_DIGESTS[case]


def test_shared_runtime_overload_digest(paper_catalog):
    rng = random.Random(7)
    gens = paper_row_generators()
    streams = {
        name: generate_stream(400, SteadyArrival(250), gens[name], None, rng)
        for name in ("R", "S", "T")
    }
    config = PipelineConfig(
        strategy=ShedStrategy.DATA_TRIAGE,
        window=WindowSpec(width=1.0),
        queue_capacity=30,
        service_time=1 / 300.0,
        seed=2,
    )
    runtime = SharedTriageRuntime(
        paper_catalog,
        {
            "q1": QUERY,
            "q2": "SELECT c, COUNT(*) AS n FROM S, T WHERE S.c = T.d GROUP BY c;",
            "q3": "SELECT d, COUNT(*) AS n FROM T GROUP BY d;",
        },
        config,
    )
    result = runtime.run(streams)
    assert result.total_dropped > 0
    text = canon(
        [
            {qid: encode_run(run) for qid, run in result.per_query.items()},
            result.shared_synopsis_cells,
            result.unshared_synopsis_cells,
            result.total_arrived,
            result.total_dropped,
        ]
    )
    assert digest(text) == SHARED_DIGEST


@pytest.mark.parametrize("summarize, case", [(True, "triage"), (False, "tail_drop")])
def test_gateway_experiment_digest(paper_catalog, summarize, case):
    rng = random.Random(4)
    gens = paper_row_generators()
    streams = {
        name: generate_stream(600, SteadyArrival(300.0), gens[name], None, rng)
        for name in ("R", "S", "T")
    }
    config = PipelineConfig(
        strategy=ShedStrategy.DATA_TRIAGE,
        window=WindowSpec(width=0.5),
        service_time=1e-6,
    )
    pipeline = DataTriagePipeline(paper_catalog, QUERY, config)
    links = {
        name: NetworkLink(bandwidth=100.0, latency=0.01) for name in ("R", "S", "T")
    }
    result = run_gateway_experiment(
        pipeline, streams, links, queue_capacity=20, summarize=summarize
    )
    outputs = {
        s: [
            [(d.source_time, d.delivery_time, d.row) for d in out.delivered],
            {w: ws.dropped_count for w, ws in out.synopses.items()},
            out.synopsis_delivery,
            out.offered,
            out.dropped,
            out.max_delivery_lag,
        ]
        for s, out in result.outputs.items()
    }
    text = canon([encode_run(result.run), outputs])
    assert digest(text) == GATEWAY_DIGESTS[case]
