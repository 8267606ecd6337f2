"""Trajectory pools to operator-learning datasets.

An input function u is the fault-on window [0, t_cl] of a trajectory sampled
at m sensor times; a target is the post-fault value at a query time y in
(t_cl, T]. Training draws Q random queries per trajectory; testing evaluates
on a fixed 500-point mesh over the post-fault interval. Both sides are
arrays: training rows (U, Y, G) pair one input with one query, and the test
set (U, mesh, G) holds one input row and one target row per trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridsim import FaultScenario, Trajectory

__all__ = [
    "SplitSpec",
    "sensor_times",
    "query_mesh",
    "check_coverage",
    "trajectory_rng",
    "build_train",
    "build_test",
    "split_pools",
    "add_input_noise",
]

_KIND_CODE = {"N1": 1, "N2": 2}


@dataclass(frozen=True)
class SplitSpec:
    m: int = 200  # branch sensors on [0, t_cl]
    queries: int = 10  # Q, training queries per trajectory
    train_frac: float = 0.7
    t_cl: float = FaultScenario.t_cl  # the simulated pools' fault timing
    T: float = FaultScenario.T
    n_mesh: int = 500  # test query mesh size

    def __post_init__(self):
        if self.m < 2 or self.queries < 1 or self.n_mesh < 1 or not (0.0 < self.train_frac < 1.0):
            raise ValueError(f"invalid split spec {self}")
        if not (0.0 < self.t_cl < self.T):
            raise ValueError(f"need 0 < t_cl < T, got {self.t_cl}, {self.T}")


def sensor_times(spec: SplitSpec) -> np.ndarray:
    """x_i = i * t_cl / m for i=1..m; lands exactly on a 100 Hz grid at defaults."""
    return np.arange(1, spec.m + 1) * (spec.t_cl / spec.m)


def query_mesh(spec: SplitSpec) -> np.ndarray:
    """n_mesh equispaced points in (t_cl, T], last point exactly T."""
    j = np.arange(1, spec.n_mesh + 1)
    return spec.t_cl + (spec.T - spec.t_cl) * j / spec.n_mesh


def check_coverage(tr: Trajectory, spec: SplitSpec):
    """ValueError unless the trajectory reaches the spec's horizon T and its
    fault clears at the spec's t_cl, where the branch window ends."""
    if tr.times[-1] < spec.T - 1e-9:
        raise ValueError(f"trajectory {tr.traj_id} ends at {tr.times[-1]:.3f}s, needs {spec.T}s")
    if tr.scenario.t_cl != spec.t_cl:
        raise ValueError(
            f"trajectory {tr.traj_id} clears at {tr.scenario.t_cl}s, needs t_cl={spec.t_cl}s")


def _u_disc(tr: Trajectory, spec: SplitSpec) -> np.ndarray:
    return np.interp(sensor_times(spec), tr.times, tr.values)


def trajectory_rng(seed: int, tr: Trajectory) -> np.random.Generator:
    """Stream keyed by (seed, pool kind, trajectory id): fully reproducible."""
    return np.random.default_rng([seed, _KIND_CODE[tr.scenario.kind], tr.traj_id])


def build_train(pool, spec: SplitSpec, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q uniform queries per trajectory, targets linearly interpolated, as
    arrays (U, Y, G) of shapes (N, m), (N, 1) and (N, 1), N = Q * len(pool).

    Queries come from a per-trajectory stream, so the first Q' draws of a
    larger Q are a superset run's prefix; the rows are shuffled with the
    top-level seed.
    """
    us, ys, gs = [], [], []
    for tr in pool:
        check_coverage(tr, spec)
        y = trajectory_rng(seed, tr).uniform(spec.t_cl, spec.T, size=spec.queries)
        us.append(_u_disc(tr, spec))
        ys.append(y)
        gs.append(np.interp(y, tr.times, tr.values))
    order = np.random.default_rng([seed, 0]).permutation(len(ys) * spec.queries)
    U = np.repeat(np.reshape(us, (-1, spec.m)), spec.queries, axis=0)
    return U[order], np.reshape(ys, (-1, 1))[order], np.reshape(gs, (-1, 1))[order]


def build_test(pool, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed evaluation mesh as arrays (U, mesh, G) of shapes (N, m),
    (n_mesh,) and (N, n_mesh), row i from the i-th trajectory of the pool."""
    mesh = query_mesh(spec)
    us, gs = [], []
    for tr in pool:
        check_coverage(tr, spec)
        us.append(_u_disc(tr, spec))
        gs.append(np.interp(mesh, tr.times, tr.values))
    return np.reshape(us, (-1, spec.m)), mesh, np.reshape(gs, (-1, spec.n_mesh))


def split_pools(n1_pool, n2_pool, train_frac: float, seed: int):
    """Concatenate, shuffle, split at floor(frac * N). Both sides non-empty."""
    if not n1_pool or not n2_pool:
        raise ValueError("both pools must be non-empty")
    merged = list(n1_pool) + list(n2_pool)
    order = np.random.default_rng([seed, 1]).permutation(len(merged))
    cut = int(np.floor(train_frac * len(merged)))
    if cut == 0 or cut == len(merged):
        raise ValueError(f"train_frac {train_frac} leaves an empty split for N={len(merged)}")
    train = [merged[i] for i in order[:cut]]
    test = [merged[i] for i in order[cut:]]
    return train, test


def add_input_noise(u_disc: np.ndarray, sigma: float, seed) -> np.ndarray:
    """i.i.d. Gaussian measurement noise per sensor."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    u = np.asarray(u_disc, dtype=float)
    return u + rng.normal(0.0, sigma, size=u.shape)
