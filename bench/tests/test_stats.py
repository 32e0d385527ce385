import statistics

import pytest

from bench.stats import quartiles, relative_spread, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # even the median leaves 9.5 beyond
        (20, 50.0),
        (99, 75.0),  # p90 would leave 9.9
        (100, 90.0),  # exactly 10 beyond p90
        (120, 90.0),  # 300 arrivals were the plan; a 10 s open loop sends 120
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.9]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = quartiles(values)
    assert relative_spread(values) == pytest.approx((q3 - q1) / median)


def test_single_value_has_no_spread():
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert relative_spread([2.0]) == 0.0
