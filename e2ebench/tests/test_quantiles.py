import statistics

import pytest

import quantiles


def test_percentile_needs_ten_samples_beyond():
    assert quantiles.reportable_percentile(list(range(19)), 0.5) is None
    assert quantiles.reportable_percentile(list(range(21)), 0.5) == 10
    assert quantiles.beyond(list(range(1, 91)), 0.9) == 9
    assert quantiles.reportable_percentile(list(range(1, 91)), 0.9) is None
    assert quantiles.beyond(list(range(1, 101)), 0.9) == 10
    assert quantiles.reportable_percentile(
        list(range(1, 101)), 0.9
    ) == pytest.approx(90.1)


def test_ties_at_the_percentile_are_not_beyond_it():
    assert quantiles.beyond([1.0] * 50, 0.5) == 0
    assert quantiles.reportable_percentile([1.0] * 50, 0.5) is None


def test_spread_uses_statistics_quantiles():
    values = [10, 11, 9, 12, 10.5, 9.5, 13, 8, 10, 11]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quantiles.relative_spread(values) == pytest.approx(
        (q3 - q1) / median
    )
    assert quantiles.relative_spread([3.0, 3.0, 3.0]) == 0.0


def test_worsening_follows_the_better_direction():
    assert quantiles.worsening(100, 110, "lower") == pytest.approx(0.1)
    assert quantiles.worsening(100, 90, "lower") == pytest.approx(-0.1)
    assert quantiles.worsening(100, 90, "higher") == pytest.approx(0.1)
    assert quantiles.worsening(100, 110, "higher") == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        quantiles.worsening(1, 1, "sideways")


def test_check_bounds_flags_only_regressions_past_the_bound():
    metrics = [
        {"name": "trials_per_s", "better": "higher", "bound": 0.2},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]
    base = {"trials_per_s": 100.0, "setup_s": 0.4, "peak_rss_mb": 50.0}
    new = {"trials_per_s": 81.0, "setup_s": 0.6, "peak_rss_mb": 55.0}
    rows = {r["metric"]: r for r in quantiles.check_bounds(base, new, metrics)}
    assert rows["trials_per_s"]["ok"]  # 19% slower, bound 20%
    assert not rows["setup_s"]["ok"]  # 50% slower, bound 25%
    assert rows["peak_rss_mb"]["ok"]  # exactly at the bound
    faster = dict(new, trials_per_s=79.0)
    rows = {
        r["metric"]: r for r in quantiles.check_bounds(base, faster, metrics)
    }
    assert not rows["trials_per_s"]["ok"]
