"""Scoring of wire runs and the in-process replay timing."""

from collections import Counter

import inproc
import pytest
import wire

FIRST = 10


def _run(answered):
    """A one-window run (plus warm-up) of one row per stream and window,
    with RESULTs for the windows in ``answered``."""
    run = wire.Run(n_windows=1)
    run.first_wid = FIRST
    run.offset = 100.0
    run.waited_until = 50.0
    run.lag_ms = [1.0]
    run.ack_ms = [1.0]
    checked = range(FIRST, FIRST + wire.WARMUP_WINDOWS + 1)
    for wid in checked:
        run.rows[wid] = {"R": Counter({5: 1}), "S": Counter({(5, 7): 1}), "T": Counter({7: 1})}
        run.acked[wid] = Counter({"R": 1, "S": 1, "T": 1})
        run.last_ts[wid] = wid * wire.WIDTH + 0.2
        run.sent += 3
    one = {"R": 1, "S": 1, "T": 1}
    for wid in answered:
        frame = {"window": wid, "arrived": one, "kept": one,
                 "dropped": {"R": 0, "S": 0, "T": 0}, "groups": []}
        run.results[wid] = (frame, 49.0)
    return run


def test_every_window_answered_is_correct():
    run = _run(range(FIRST, FIRST + 3))
    sc = wire.score(run, "wire_bursty_shed")
    assert sc["correct"] and sc["failed"] == 0
    measured = FIRST + wire.WARMUP_WINDOWS
    assert sc["latencies"] == [pytest.approx((149.0 - run.last_ts[measured]) * 1e3)]


def test_a_missing_window_fails_the_run_and_is_timed_at_the_deadline():
    run = _run(range(FIRST, FIRST + 2))
    sc = wire.score(run, "wire_bursty_shed")
    assert sc["missing"] == 1 and sc["failed"] == 1
    assert not sc["correct"]
    measured = FIRST + wire.WARMUP_WINDOWS
    assert sc["latencies"] == [pytest.approx((150.0 - run.last_ts[measured]) * 1e3)]


def test_a_lagging_generator_makes_the_run_incorrect():
    run = _run(range(FIRST, FIRST + 3))
    run.lag_ms = [wire.MAX_LAG_P99_MS + 1.0]
    sc = wire.score(run, "wire_bursty_shed")
    assert sc["failed"] == 0 and not sc["correct"]


def test_cpu_per_row_is_the_whole_interval_ratio():
    run = wire.Run(n_windows=100)
    run.cpu_ns = [2_000_000_000, 2_500_000_000]
    run.accepted_measured = 25_000
    assert wire.cpu_per_row(run) == pytest.approx(20e-6)


def _replay(wall, probe, n=4):
    """A Replay whose ``n`` probes took ``probe`` seconds each."""
    marks = inproc.Marks()
    t = 0.0
    for _ in range(n):
        marks.readings.append((t, t, t + probe, t + probe))
        t += probe + wall / (n - 1)
    return marks.replay()


def test_a_replay_leaves_its_probes_out_and_scales_to_reference_speed():
    ref = inproc.PROBE_REFERENCE_S
    replay = _replay(0.5, 2 * ref)
    assert replay.wall == pytest.approx(0.5)
    assert replay.cpu == pytest.approx(0.5)
    assert replay.total == pytest.approx(0.5 + 2 * 2 * ref)
    # The probes ran at half the reference speed, so did the replay.
    assert replay.wall * replay.scale == pytest.approx(0.25)


def test_the_same_work_reads_the_same_at_either_host_speed():
    ref = inproc.PROBE_REFERENCE_S
    fast = _replay(0.3, 0.75 * ref)
    slow = _replay(0.5, 1.25 * ref)
    assert fast.wall * fast.scale == pytest.approx(slow.wall * slow.scale)


def test_typical_is_the_median_over_replays():
    ref = inproc.PROBE_REFERENCE_S
    replays = [_replay(w, ref) for w in (0.2, 0.9, 0.3)]
    assert inproc.typical(replays) == (pytest.approx(0.3), pytest.approx(0.3))
    # Work added to every replay adds to the figure.
    slower = [_replay(w + 0.01, ref) for w in (0.2, 0.9, 0.3)]
    assert inproc.typical(slower)[0] == pytest.approx(0.31)


def test_marks_read_the_clocks_every_n_calls():
    class Work:
        def step(self):
            return 1

    marks = inproc.Marks()
    marks.install([(Work, "step")])
    marks.start()
    w = Work()
    for _ in range(2 * inproc.MARK_EVERY + 1):
        assert w.step() == 1
    marks.read()
    assert len(marks.readings) == 4
    marks.install([(Work, "no_such_method")])  # a renamed internal is skipped
    assert not hasattr(Work, "no_such_method")
