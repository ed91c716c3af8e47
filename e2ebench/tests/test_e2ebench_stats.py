"""Fixed-rank percentiles and the spread report arithmetic."""

import math
import statistics

import pytest

from e2ebench.stats import beyond, median, percentile, quartiles, spread


def test_p90_rank_depends_only_on_the_count():
    values = list(range(1, 201))
    assert percentile(values, 0.9) == 180
    assert beyond(len(values)) == 20
    # Same count, other values: same rank.
    assert percentile([10 * v for v in reversed(values)], 0.9) == 1800


def test_nearest_rank_edges():
    assert percentile([5.0], 0.9) == 5.0
    assert percentile([3, 1, 2], 0.5) == 2
    assert percentile([1, 2, 3, 4], 1.0) == 4
    assert median([4, 1, 3, 2]) == 2
    with pytest.raises(ValueError):
        percentile([], 0.9)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_failures_count_as_missing_every_limit():
    values = [1.0] * 95 + [math.inf] * 5
    assert percentile(values, 0.9) == 1.0
    assert percentile(values + [math.inf] * 10, 0.9) == math.inf


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    row = spread(values)
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert row["median"] == mid
    assert row["iqr_share"] == pytest.approx((q3 - q1) / mid)
    assert row["max_dev_share"] == pytest.approx(
        max(abs(v - mid) for v in values) / mid)
