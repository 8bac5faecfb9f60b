"""Span arithmetic: self time, aggregation, and the layer breakdown."""

import asyncio
import time

import pytest

import tracing


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([], 0, 10) == 0
    assert tracing.union_length([(1, 3), (2, 5), (6, 7)], 0, 10) == 5
    assert tracing.union_length([(1, 3), (3, 4)], 0, 10) == 3
    assert tracing.union_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert tracing.union_length([(1, 9), (2, 3)], 0, 10) == 8


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        # (id, name, start, end, parent, aggregated-child seconds)
        (1, "tick", 0.0, 10.0, 0, 0.5),
        (2, "exact", 1.0, 3.0, 1, 0.0),
        (3, "shadow", 2.0, 5.0, 1, 0.0),  # overlaps its sibling
        (4, "merge", 6.0, 7.0, 1, 0.25),
        (5, "merge", 6.5, 6.75, 4, 0.0),
    ]
    selfs = tracing.span_self_times(spans)
    assert selfs[1] == pytest.approx(10 - 5 - 0.5)
    assert selfs[2] == 2 and selfs[3] == 3
    assert selfs[4] == pytest.approx(1 - 0.25 - 0.25)
    assert selfs[5] == 0.25


def test_nested_wrappers_record_spans_and_aggregate_leaves():
    clock = Clock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(0.1)

    def child():
        clock.advance(1.0)
        leaf()

    def parent():
        clock.advance(2.0)
        child()
        leaf()
        leaf()
        clock.advance(0.5)

    leaf = tracing.traced(tracer, leaf, "validate", recorded=False)
    child = tracing.traced(tracer, child, "offer")
    parent = tracing.traced(tracer, parent, "ingest")
    parent()  # disabled: nothing recorded
    assert tracer.snapshot()["spans"] == []
    tracer.enabled = True
    parent()
    dump = tracer.snapshot()
    layers, _ = tracing.layer_totals([dump])
    assert layers["ingest.self_s"] == pytest.approx(2.5)
    assert layers["offer.s"] == pytest.approx(1.0)
    assert layers["validate.s"] == pytest.approx(0.3)
    assert dump["agg"]["validate"][1] == 3
    out = tracing.breakdown(layers, total=4.0)
    assert out["unattributed_s"] == pytest.approx(0.2)
    assert sum(out.values()) == pytest.approx(4.0)


def test_counts_and_dynamic_names():
    clock = Clock()
    tracer = tracing.Tracer(clock=clock)
    fn = tracing.traced(
        tracer,
        lambda n: clock.advance(n),
        lambda args: None if args[0] == 0 else "exact",
        count=lambda t, a, k, r: t.count("exact.windows"),
    )
    tracer.enabled = True
    fn(1.0)
    fn(0)  # untraced: no span, no count
    dump = tracer.snapshot()
    assert [s[1] for s in dump["spans"]] == ["exact"]
    assert dump["counts"] == {"exact.windows": 1}


def test_async_steps_exclude_time_spent_by_other_tasks():
    clock = Clock()
    tracer = tracing.Tracer(clock=clock)

    async def tick():
        clock.advance(1.0)
        await asyncio.sleep(0)
        clock.advance(2.0)
        return "done"

    async def other():
        clock.advance(100.0)  # runs while tick is suspended

    tick = tracing.traced_async(tracer, tick, "tick")

    async def main():
        tracer.enabled = True
        results = await asyncio.gather(tick(), other())
        return results

    assert asyncio.run(main())[0] == "done"
    layers, _ = tracing.layer_totals([tracer.snapshot()])
    assert layers["tick.self_s"] == pytest.approx(3.0)


def test_async_exceptions_propagate():
    tracer = tracing.Tracer()

    async def boom():
        await asyncio.sleep(0)
        raise KeyError("x")

    boom = tracing.traced_async(tracer, boom, "fanout")
    tracer.enabled = True
    with pytest.raises(KeyError):
        asyncio.run(boom())
    assert tracer.state().stack == []


def test_traced_sim_replay_layers_sum_to_wall_time():
    """A real traced replay: no layer double counts, so the remainder
    (unattributed) is non-negative and small."""
    from repro.core.strategies import ShedStrategy
    from repro.experiments import ExperimentParams, bursty_pipeline

    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE, 8000.0, ExperimentParams(n_windows=6), 3
    )
    tracer = tracing.Tracer(clock=time.perf_counter)
    tracing.install_sim(tracer)
    tracer.enabled = True
    t0 = time.perf_counter()
    pipeline.run(streams)
    total = time.perf_counter() - t0
    tracer.enabled = False
    layers, counts = tracing.layer_totals([tracer.snapshot()])
    out = tracing.breakdown(layers, total)
    assert sum(out.values()) == pytest.approx(total)
    assert all(v >= 0 for v in layers.values())
    assert 0 <= out["unattributed_s"] < 0.05 * total
    for name in ("sim.loop_self_s", "offer.s", "exact.s", "shadow.s", "merge.s", "sim.ideal_s"):
        assert layers[name] > 0
    assert counts["offer.rows"] == sum(len(v) for v in streams.values())
