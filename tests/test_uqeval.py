"""Alarm outcome partition and the normal confidence band."""

import math

from statistics import NormalDist

import numpy as np
import pytest

from gridonet.uqeval import ALARM_FLAGS, alarm_analysis, confidence_interval

# threshold_profile gives 0.70 pu at y* = 2.2 s (t_cl = 2.0)
THR = 0.70
CASES = [
    (0.60, 0.75, 0.85, "FN"),  # violation, band entirely above the threshold
    (0.60, 0.50, 0.80, "TP"),  # violation, band reaches below it
    (0.60, 0.50, 0.65, "TP"),
    (0.80, 0.65, 0.90, "FP_conservative"),  # safe, band straddles the threshold
    (0.80, 0.65, THR, "FP_conservative"),  # upper bound on the threshold
    (0.80, 0.50, 0.65, "FP_nonconservative"),  # safe, band entirely below it
    (0.80, THR, 0.90, "TN"),  # lower bound on the threshold
    (0.80, 0.75, 0.90, "TN"),
]


@pytest.mark.parametrize("truth, lo, hi, expected", CASES)
def test_alarm_outcomes_partition(truth, lo, hi, expected):
    flags, summary = alarm_analysis([lo], [hi], [truth], y_star=2.2)
    assert summary["threshold"] == THR
    assert [k for k in ALARM_FLAGS if flags[k][0]] == [expected]
    assert sum(summary[f"{k}_rate"] for k in ALARM_FLAGS) == pytest.approx(100.0)


def test_alarm_outcomes_partition_in_one_call():
    truth, lo, hi, expected = zip(*CASES)
    flags, summary = alarm_analysis(lo, hi, truth, y_star=2.2)
    got = [[k for k in ALARM_FLAGS if flags[k][i]] for i in range(len(CASES))]
    assert got == [[e] for e in expected]
    assert summary["count"] == len(CASES)
    assert all(summary[k] == expected.count(k) for k in ALARM_FLAGS)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.98, 1 - 2e-6])
def test_confidence_interval_is_mean_plus_minus_normal_quantile(level):
    mean, std = np.array([0.9, 1.0, 1.1]), np.array([0.0, 0.01, 0.02])
    lo, hi = confidence_interval(mean, std, level)
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    assert np.array_equal(lo, mean - z * std) and np.array_equal(hi, mean + z * std)
    if level == 0.95:
        assert z == NormalDist().inv_cdf(0.975)
    # the band of a unit normal holds `level` of its mass, through math.erf
    assert abs(math.erf(z / math.sqrt(2.0)) - level) <= 1e-9 * (1.0 - level)


@pytest.mark.parametrize("p", [1e-6, 1 - 1e-6])
def test_inverse_normal_cdf_round_trips_through_erf(p):
    # a unit band of level |2p - 1| has its edge at the p-quantile, deep in a tail
    lo, hi = confidence_interval(0.0, 1.0, abs(2.0 * p - 1.0))
    x = float(lo if p < 0.5 else hi)
    cdf = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    assert abs(cdf - p) <= 1e-9 * min(p, 1.0 - p)
