"""The ten-beyond percentile rule."""

import pytest

from stats import percentile, samples_needed


def test_p90_needs_one_hundred_samples():
    assert samples_needed(90) == 100
    assert samples_needed(50) == 20
    assert samples_needed(99) == 1000


def test_p90_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))
    p90 = percentile(values, 90)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10


def test_too_few_samples_is_refused():
    with pytest.raises(ValueError, match="needs 100 samples"):
        percentile(range(99), 90)


def test_rule_can_be_waived_for_short_runs():
    assert percentile([3.0, 1.0, 2.0], 90, beyond=0) == 3.0


def test_stopwatch_takes_out_the_stolen_share(monkeypatch):
    import stats

    readings = iter([(100, 1000), (110, 1100)])
    clock = iter([5.0, 7.0])
    monkeypatch.setattr(stats, "cpu_ticks", lambda: next(readings))
    monkeypatch.setattr(stats.time, "perf_counter", lambda: next(clock))
    wall, share = stats.Stopwatch().stop()
    assert share == pytest.approx(0.1)
    assert wall == pytest.approx(2.0 * 0.9)
