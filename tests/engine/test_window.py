"""Tests for time-window specs and assignment."""

import math
import random

import pytest

from repro.engine import StreamTuple, WindowSpec, assign_windows, parse_window_clause


class TestWindowSpec:
    def test_tumbling_primary_window(self):
        w = WindowSpec(width=2.0)
        assert w.primary_window(0.0) == 0
        assert w.primary_window(1.99) == 0
        assert w.primary_window(2.0) == 1

    def test_bounds(self):
        w = WindowSpec(width=2.0)
        assert w.bounds(3) == (6.0, 8.0)

    def test_tumbling_window_ids_single(self):
        w = WindowSpec(width=1.0)
        assert list(w.window_ids(2.5)) == [2]

    def test_hopping_membership(self):
        w = WindowSpec(width=2.0, slide=1.0)
        # t=2.5 is inside windows starting at 1.0 and 2.0.
        assert list(w.window_ids(2.5)) == [1, 2]

    @pytest.mark.parametrize(
        "width, slide", [(0.1, None), (0.3, None), (2.28375, None), (0.3, 0.1)]
    )
    def test_float_boundaries_give_a_run_ending_at_the_primary_window(
        self, width, slide
    ):
        # k * 0.1 lands in two tumbling windows (1.3) or none (4.3) if
        # membership is tested against float products instead of anchored on
        # the primary window.
        w = WindowSpec(width=width, slide=slide)
        rng = random.Random(5)
        multiples = [k * w.hop for k in range(2000)]
        stamps = multiples + [rng.uniform(0, 2000 * w.hop) for _ in range(2000)]
        stamps += [math.nextafter(t, math.inf) for t in multiples]
        stamps += [math.nextafter(t, -math.inf) for t in multiples[1:]]
        for ts in stamps:
            ids = w.window_ids(ts)
            primary = w.primary_window(ts)
            assert ids == tuple(range(primary - len(ids) + 1, primary + 1)), ts
            if slide is None:
                assert ids == (primary,), ts
            else:
                assert all(ts < w.bounds(i)[1] for i in ids), ts
                if ids[0] > 0:
                    assert ts >= w.bounds(ids[0] - 1)[1], ts
            assert w.ids(ts) == ids

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            WindowSpec(width=0)

    def test_invalid_slide(self):
        with pytest.raises(ValueError):
            WindowSpec(width=1.0, slide=-1)

    def test_str(self):
        assert "seconds" in str(WindowSpec(width=1.0))
        assert "slide" in str(WindowSpec(width=2.0, slide=1.0))


class TestAssignWindows:
    def test_partition(self):
        tuples = [StreamTuple(0.5, (1,)), StreamTuple(1.5, (2,)), StreamTuple(1.7, (3,))]
        out = assign_windows(tuples, WindowSpec(width=1.0))
        assert sorted(out) == [0, 1]
        assert len(out[1]) == 2

    def test_hopping_duplicates(self):
        tuples = [StreamTuple(2.5, (1,))]
        out = assign_windows(tuples, WindowSpec(width=2.0, slide=1.0))
        assert sorted(out) == [1, 2]


class TestParseWindowClause:
    @pytest.mark.parametrize(
        "text,width",
        [
            ("1 second", 1.0),
            ("'1 second'", 1.0),
            ("2 seconds", 2.0),
            ("500 ms", 0.5),
            ("250 milliseconds", 0.25),
            ("3 minutes", 180.0),
            ("1 hour", 3600.0),
            ("0.5", 0.5),  # bare number = seconds
        ],
    )
    def test_intervals(self, text, width):
        assert parse_window_clause(text).width == pytest.approx(width)

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            parse_window_clause("3 fortnights")

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_window_clause("a b c")
