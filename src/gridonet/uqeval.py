"""Evaluation metrics: relative errors, confidence intervals, coverage
calibration, under-voltage alarm classification, residual normality."""

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
    "AlarmOutcome",
    "alarm_analysis",
    "NormalityReport",
    "residual_normality",
    "TrajectoryReport",
    "aggregate_reports",
    "write_csv",
]


def relative_errors(pred, target) -> tuple[float, float]:
    """(L1, L2) relative errors in percent."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    l1_den = np.sum(np.abs(t))
    l2_den = np.sqrt(np.sum(t * t))
    if l1_den == 0.0 or l2_den == 0.0:
        raise ValueError("target has zero norm")
    l1 = 100.0 * np.sum(np.abs(p - t)) / l1_den
    l2 = 100.0 * np.sqrt(np.sum((p - t) ** 2)) / l2_den
    return float(l1), float(l2)


def confidence_interval(mean, std, level: float = 0.95):
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if np.any(std < 0):
        raise ValueError("std must be non-negative")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    return mean - z * std, mean + z * std


def epsilon_ratio(lower, upper, targets) -> float:
    """Percent of target points inside the band."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    t = np.asarray(targets, dtype=float)
    if not (lo.shape == hi.shape == t.shape):
        raise ValueError("band and target lengths differ")
    return float(100.0 * np.mean((lo <= t) & (t <= hi)))


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
    mu = np.concatenate([np.ravel(m) for m in np.atleast_1d(mu)]) if isinstance(mu, list) else np.ravel(mu)
    sigma = np.concatenate([np.ravel(s) for s in np.atleast_1d(sigma)]) if isinstance(sigma, list) else np.ravel(sigma)
    target = np.concatenate([np.ravel(t) for t in np.atleast_1d(target)]) if isinstance(target, list) else np.ravel(target)
    err = np.abs(mu - target)
    empirical = np.array([np.mean(err <= c * sigma) for c in chis])
    return empirical, analytic_coverage(chis)


def threshold_profile(t: float, t_cl: float = 2.0) -> float:
    """Under-voltage limit: 0.70 pu just after clearing, 0.90 pu once the
    grid should have recovered."""
    if t <= t_cl:
        raise ValueError(f"threshold is defined on the post-fault interval, got t={t}")
    return 0.70 if t <= t_cl + 0.5 else 0.90


@dataclass(frozen=True)
class AlarmOutcome:
    traj_id: int
    mean: float
    lower: float
    upper: float
    truth: float
    flags: dict


def alarm_analysis(items, y_star: float, t_cl: float = 2.0):
    """Classify each trajectory's prediction at probe time y_star.

    items: iterable of (traj_id, mean, lower, upper, truth) at y_star.
    An under-voltage violation means truth < threshold; the alarm region is
    below the threshold, so a CI entirely above it never raises an alarm.
    Exactly one flag is set per trajectory: a violation is TP or FN, and a
    safe trajectory is TN (CI above the threshold), FP_conservative (CI
    straddles it) or FP_nonconservative (CI entirely below it).
    """
    thr = threshold_profile(y_star, t_cl)
    outcomes = []
    for traj_id, mean, lo, hi, truth in items:
        violation = truth < thr
        flags = {
            "FN": bool(violation and lo >= thr),
            "TP": bool(violation and lo < thr),
            "FP_conservative": bool(not violation and lo < thr <= hi),
            "FP_nonconservative": bool(not violation and hi < thr),
            "TN": bool(not violation and lo >= thr),
        }
        outcomes.append(AlarmOutcome(traj_id, mean, lo, hi, truth, flags))
    n = max(len(outcomes), 1)
    summary = {"threshold": thr, "y_star": y_star, "count": len(outcomes)}
    for key in ("FN", "TP", "FP_conservative", "FP_nonconservative", "TN"):
        hits = sum(o.flags[key] for o in outcomes)
        summary[key] = hits
        summary[f"{key}_rate"] = 100.0 * hits / n
    return outcomes, summary


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


@dataclass(frozen=True)
class TrajectoryReport:
    traj_id: int
    l1: float
    l2: float
    eps_ratio: float


def aggregate_reports(reports) -> dict:
    l1 = np.array([r.l1 for r in reports])
    l2 = np.array([r.l2 for r in reports])
    eps = np.array([r.eps_ratio for r in reports])
    return {
        "count": len(reports),
        "mean_L1": float(l1.mean()),
        "sd_L1": float(l1.std(ddof=1)) if len(reports) > 1 else 0.0,
        "mean_L2": float(l2.mean()),
        "sd_L2": float(l2.std(ddof=1)) if len(reports) > 1 else 0.0,
        "eps_ratio": float(eps.mean()),
    }


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: fixed header order, repr-style floats, newline \\n."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])
