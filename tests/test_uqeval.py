"""Alarm outcome partition and the normal quantile."""

import math

import pytest

from gridonet.uqeval import alarm_analysis, inverse_normal_cdf

# threshold_profile gives 0.70 pu at y* = 2.2 s (t_cl = 2.0)
THR = 0.70
OUTCOMES = ("FN", "TP", "FP_conservative", "FP_nonconservative", "TN")


@pytest.mark.parametrize("truth, lo, hi, expected", [
    (0.60, 0.75, 0.85, "FN"),  # violation, band entirely above the threshold
    (0.60, 0.50, 0.80, "TP"),  # violation, band reaches below it
    (0.60, 0.50, 0.65, "TP"),
    (0.80, 0.65, 0.90, "FP_conservative"),  # safe, band straddles the threshold
    (0.80, 0.65, THR, "FP_conservative"),  # upper bound on the threshold
    (0.80, 0.50, 0.65, "FP_nonconservative"),  # safe, band entirely below it
    (0.80, THR, 0.90, "TN"),  # lower bound on the threshold
    (0.80, 0.75, 0.90, "TN"),
])
def test_alarm_outcomes_partition(truth, lo, hi, expected):
    mean = 0.5 * (lo + hi)
    outcomes, summary = alarm_analysis([(7, mean, lo, hi, truth)], y_star=2.2)
    assert summary["threshold"] == THR
    assert [k for k in OUTCOMES if outcomes[0].flags[k]] == [expected]
    assert sum(summary[f"{k}_rate"] for k in OUTCOMES) == pytest.approx(100.0)


@pytest.mark.parametrize("p", [1e-6, 0.01, 0.02425, 0.5, 0.975, 1 - 1e-6])
def test_inverse_normal_cdf_round_trips_through_erf(p):
    x = inverse_normal_cdf(p)
    cdf = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    assert abs(cdf - p) <= 1e-9 * min(p, 1.0 - p)
