"""The percentile rule: a tail is reported with >= 10 samples beyond it."""

import pytest

import stats


def test_beyond_counts_samples_strictly_above_the_rank():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(20, 50) == 10


def test_tail_ok_needs_ten_samples_beyond():
    assert stats.tail_ok(100, 90)
    assert not stats.tail_ok(99, 90)
    assert stats.tail_ok(1000, 99) and not stats.tail_ok(999, 99)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 99) == 5.0
    # Exactly beyond(n, p) samples lie above the reported value.
    p90 = stats.percentile(values, 90)
    assert sum(v > p90 for v in values) == stats.beyond(len(values), 90)


def test_percentile_ignores_input_order():
    assert stats.percentile([3, 1, 2, 5, 4], 60) == 3


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
