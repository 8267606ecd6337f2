"""Evaluation metrics: relative errors, confidence intervals, coverage
calibration, under-voltage alarm classification, residual normality.

Curves arrive as arrays with one trajectory per row and the query mesh on
the last axis. The relative errors and the eps ratio are per row, reduced
over the last axis; the coverage curve and the residual histogram pool every
point of every row."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "relative_errors",
    "confidence_interval",
    "epsilon_ratio",
    "chi_coverage_curve",
    "analytic_coverage",
    "threshold_profile",
    "ALARM_FLAGS",
    "alarm_analysis",
    "NormalityReport",
    "residual_normality",
    "aggregate_reports",
    "write_csv",
]


def relative_errors(pred, target):
    """(L1, L2) relative errors in percent, per row."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    l1_den = np.sum(np.abs(t), axis=-1)
    l2_den = np.sqrt(np.sum(t * t, axis=-1))
    if np.any(l1_den == 0.0) or np.any(l2_den == 0.0):
        raise ValueError("target has zero norm")
    l1 = 100.0 * np.sum(np.abs(p - t), axis=-1) / l1_den
    l2 = 100.0 * np.sqrt(np.sum((p - t) ** 2, axis=-1)) / l2_den
    return l1, l2


def confidence_interval(mean, std, level: float = 0.95):
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if np.any(std < 0):
        raise ValueError("std must be non-negative")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    return mean - z * std, mean + z * std


def epsilon_ratio(lower, upper, targets):
    """Percent of target points inside the band, per row."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    t = np.asarray(targets, dtype=float)
    if not (lo.shape == hi.shape == t.shape):
        raise ValueError("band and target lengths differ")
    return 100.0 * np.mean((lo <= t) & (t <= hi), axis=-1)


def analytic_coverage(chi) -> np.ndarray:
    """P(|N(0,1)| <= chi) = erf(chi / sqrt(2))."""
    return np.array([math.erf(c / math.sqrt(2.0)) for c in np.atleast_1d(chi)])


def chi_coverage_curve(mu, sigma, target, chis):
    """Empirical fraction of |mu - target| <= chi * sigma, per chi, pooled.

    Returns (empirical, analytic) arrays aligned with chis.
    """
    chis = np.asarray(chis, dtype=float)
    if chis.size > 1 and np.any(np.diff(chis) < 0):
        raise ValueError("chis must be non-decreasing")
    err = np.abs(np.asarray(mu, dtype=float) - np.asarray(target, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    empirical = np.array([np.mean(err <= c * sigma) for c in chis])
    return empirical, analytic_coverage(chis)


def threshold_profile(t: float, t_cl: float = 2.0) -> float:
    """Under-voltage limit: 0.70 pu just after clearing, 0.90 pu once the
    grid should have recovered."""
    if t <= t_cl:
        raise ValueError(f"threshold is defined on the post-fault interval, got t={t}")
    return 0.70 if t <= t_cl + 0.5 else 0.90


ALARM_FLAGS = ("FN", "TP", "FP_conservative", "FP_nonconservative", "TN")


def alarm_analysis(lower, upper, truth, y_star: float, t_cl: float = 2.0):
    """Classify each trajectory's band at probe time y_star.

    lower, upper, truth: one value per trajectory at y_star. An under-voltage
    violation means truth < threshold; the alarm region is below the
    threshold, so a CI entirely above it never raises an alarm. Exactly one
    flag is set per trajectory: a violation is TP or FN, and a safe
    trajectory is TN (CI above the threshold), FP_conservative (CI straddles
    it) or FP_nonconservative (CI entirely below it).

    Returns (flags, summary): one boolean array per name in ALARM_FLAGS, and
    the threshold with each flag's count and rate.
    """
    thr = threshold_profile(y_star, t_cl)
    lo, hi, truth = (np.asarray(x, dtype=float) for x in (lower, upper, truth))
    violation = truth < thr
    flags = {
        "FN": violation & (lo >= thr),
        "TP": violation & (lo < thr),
        "FP_conservative": ~violation & (lo < thr) & (thr <= hi),
        "FP_nonconservative": ~violation & (hi < thr),
        "TN": ~violation & (lo >= thr),
    }
    n = max(truth.size, 1)
    summary = {"threshold": thr, "y_star": y_star, "count": truth.size}
    for key in ALARM_FLAGS:
        hits = int(np.sum(flags[key]))
        summary[key] = hits
        summary[f"{key}_rate"] = 100.0 * hits / n
    return flags, summary


@dataclass(frozen=True)
class NormalityReport:
    skewness: float
    excess_kurtosis: float
    normal: bool
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def residual_normality(residuals) -> NormalityReport:
    """Moment-based verdict: |skew| < 0.2 and |excess kurtosis| < 0.5, with a
    40-bin histogram of the standardized residuals."""
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size < 8:
        raise ValueError(f"need at least 8 residuals, got {r.size}")
    s = r.std()
    if s == 0.0:
        raise ValueError("residuals have zero variance")
    z = (r - r.mean()) / s
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4) - 3.0)
    counts, edges = np.histogram(z, bins=40)
    return NormalityReport(
        skewness=skew,
        excess_kurtosis=kurt,
        normal=bool(abs(skew) < 0.2 and abs(kurt) < 0.5),
        hist_counts=counts,
        hist_edges=edges,
    )


def aggregate_reports(l1, l2, eps) -> dict:
    """Mean and sample sd of the per-trajectory L1 and L2 errors, and the
    mean eps ratio (NaN for a model without a band)."""
    n = len(l1)
    return {
        "count": n,
        "mean_L1": float(np.mean(l1)),
        "sd_L1": float(np.std(l1, ddof=1)) if n > 1 else 0.0,
        "mean_L2": float(np.mean(l2)),
        "sd_L2": float(np.std(l2, ddof=1)) if n > 1 else 0.0,
        "eps_ratio": float(np.mean(eps)),
    }


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: fixed header order, repr-style floats, newline \\n."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])
