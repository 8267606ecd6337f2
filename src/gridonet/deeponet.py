"""Branch/trunk operator networks.

The operator value at query time y is the inner product of q branch features
(computed from the discretized input function) with q trunk features
(computed from y), plus a trainable output bias tau_o:

    G(u)(y) = sum_i b_i(u) * phi_i(y) + tau_o

The probabilistic variant shares every layer except the final one, which is
split into a mu head and a log-sigma head per net; sigma is recovered with a
clamped exponential. `layout(cfg, kind)` is the one place that names a
net's parameters: `out` and `tau_o` for a vanilla net; `mu`, `ls`, `tau_o_mu`
and `tau_o_ls` for a probabilistic one. Everything else reads the kind from
the parameter names.

`predict(members, ...)` covers the three models and returns (mean, std):

* one vanilla net: its curve, and std None;
* one probabilistic net: the mu curve and exp(clamped log-sigma);
* two or more vanilla nets (an ensemble): the pointwise mean and the
  unbiased (ddof=1) std over the members' curves.

Input functions lie on the last axis: an (m,) input gives (k,) curves at k
query times, and an (n, m) input gives (n, k) curves, one row per input.
Each net runs its branch and its trunk once per call, whatever n is, off the
tape. `members` may be any iterable, such as one that reads each member as it
is taken: predict keeps the members' curves, M * n * k floats, not weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .mlp import MlpConfig, glorot_init, head, hidden, param_shapes

__all__ = [
    "DeepOnetConfig",
    "LOGSIG_LO",
    "LOGSIG_HI",
    "layout",
    "init",
    "forward_batch",
    "predict",
]

# bounds on the log-sigma channel before exponentiation; sigma stays in
# [4.5e-5, 20] pu, far outside any physical voltage band
LOGSIG_LO = -10.0
LOGSIG_HI = 3.0

# (head stem, output bias) per net kind, in checkpoint order
_HEADS = {"vanilla": (("out", "tau_o"),), "prob": (("mu", "tau_o_mu"), ("ls", "tau_o_ls"))}


@dataclass(frozen=True)
class DeepOnetConfig:
    m: int = 200  # branch sensors
    q: int = 100  # latent feature dimension
    width: int = 100
    depth: int = 3

    def __post_init__(self):
        if self.m < 2 or self.q < 1 or self.width < 1 or self.depth < 1:
            raise ValueError(f"invalid config {self}")

    @property
    def branch(self) -> MlpConfig:
        return MlpConfig(self.m, self.width, self.depth, self.q)

    @property
    def trunk(self) -> MlpConfig:
        return MlpConfig(1, self.width, self.depth, self.q)


def layout(cfg: DeepOnetConfig, kind: str) -> dict[str, tuple[int, int]]:
    """Parameter names and shapes of a `vanilla` or `prob` net, in checkpoint
    order: the branch (b_*) and trunk (t_*) sub-nets with their heads, then
    the output biases."""
    if kind not in _HEADS:
        raise ValueError(f"kind must be one of {sorted(_HEADS)}, got {kind!r}")
    stems = [stem for stem, _ in _HEADS[kind]]
    shapes = {**param_shapes(cfg.branch, "b_", stems), **param_shapes(cfg.trunk, "t_", stems)}
    shapes.update((tau, (1, 1)) for _, tau in _HEADS[kind])
    return shapes


def init(cfg: DeepOnetConfig, kind: str, seed) -> dict[str, np.ndarray]:
    """Glorot-uniform weights and zero biases over `layout(cfg, kind)`."""
    return glorot_init(layout(cfg, kind), seed)


def _heads(params: dict):
    """(stem, output bias) per head: `out` alone, or mu then log-sigma."""
    return _HEADS["vanilla" if "tau_o" in params else "prob"]


def forward_batch(params: dict, cfg: DeepOnetConfig, U, Y):
    """Paired evaluation, row i of U with row i of Y, on the tape if they are
    Tensors (training), else with its sub-nets off it (`sghmc`'s potential).

    Returns (mu, log_sigma) as (B, 1) Tensors; log_sigma is clamped, and is
    None for a vanilla net.
    """
    bh = hidden(params, U, cfg.branch, "b_")
    th = hidden(params, Y, cfg.trunk, "t_")
    out = [T.sum_rows(head(params, bh, "b_", stem) * head(params, th, "t_", stem)) + params[tau]
           for stem, tau in _heads(params)]
    return out[0], (T.clip(out[1], LOGSIG_LO, LOGSIG_HI) if len(out) == 2 else None)


def _curves(params: dict, cfg: DeepOnetConfig, u, y) -> list[np.ndarray]:
    """Each head's (n, k) values for the n rows of u at the query column y
    (log-sigma clamped); the branch and the trunk run once, off the tape."""
    bh = hidden(params, u, cfg.branch, "b_")  # (n, width)
    th = hidden(params, y, cfg.trunk, "t_")  # (k, width)
    out = [head(params, th, "t_", stem) @ np.ascontiguousarray(head(params, bh, "b_", stem).T)
           + float(np.asarray(params[tau]).item()) for stem, tau in _heads(params)]
    if len(out) == 2:
        out[1] = np.clip(out[1], LOGSIG_LO, LOGSIG_HI)
    return [np.ascontiguousarray(c.T) for c in out]  # (n, k)


def predict(members, cfg: DeepOnetConfig, u_disc, ys):
    """(mean, std) curves at query times ys from members, an iterable of one
    vanilla net, one prob net or a vanilla ensemble (see the module doc). The
    inputs lie on the last axis of u_disc: (m,) gives (k,) curves, and (n, m)
    gives (n, k) curves, row i being the curve of input row i."""
    u_disc = np.asarray(u_disc, dtype=float)
    u = np.ascontiguousarray(u_disc.reshape(-1, u_disc.shape[-1]))
    y = np.ascontiguousarray(np.asarray(ys, dtype=float).reshape(-1, 1))
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise T.NumericError("non-finite network input")
    if u.shape[1] != cfg.m:
        raise ValueError(f"expected {cfg.m} sensors, got {u.shape[1]}")
    shape = u_disc.shape[:-1] + (len(y),)
    curves = [[c.reshape(shape) for c in _curves(p, cfg, u, y)] for p in members]
    if len(curves) == 1:
        return curves[0][0], (np.exp(curves[0][1]) if len(curves[0]) == 2 else None)
    if not curves or any(len(c) != 1 for c in curves):
        raise ValueError("an ensemble needs two or more vanilla members")
    stack = np.stack([c[0] for c in curves])
    return stack.mean(axis=0), stack.std(axis=0, ddof=1)
