"""Branch/trunk operator networks.

The operator value at query time y is the inner product of q branch features
(computed from the discretized input function) with q trunk features
(computed from y), plus a trainable output bias tau_o:

    G(u)(y) = sum_i b_i(u) * phi_i(y) + tau_o

The probabilistic variant shares every layer except the final one, which is
split into a mu head and a log-sigma head per net; sigma is recovered with a
clamped exponential. The heads a network has are read from its parameter
names: `out` and `tau_o` for a vanilla net; `mu`, `ls`, `tau_o_mu` and
`tau_o_ls` for a probabilistic one.

`predict(members, ...)` covers the three models and returns (mean, std):

* one vanilla net: its curve, and std None;
* one probabilistic net: the mu curve and exp(clamped log-sigma);
* two or more vanilla nets (an ensemble): the pointwise mean and the
  unbiased (ddof=1) std over the members' curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .mlp import MlpConfig, glorot_init, head, hidden

__all__ = [
    "DeepOnetConfig",
    "LOGSIG_LO",
    "LOGSIG_HI",
    "init_vanilla",
    "init_prob",
    "forward_batch",
    "predict",
]

# bounds on the log-sigma channel before exponentiation; sigma stays in
# [4.5e-5, 20] pu, far outside any physical voltage band
LOGSIG_LO = -10.0
LOGSIG_HI = 3.0


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


def init_vanilla(cfg: DeepOnetConfig, seed) -> dict[str, np.ndarray]:
    """Branch params (b_*), trunk params (t_*), and the output bias tau_o."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params = glorot_init(cfg.branch, rng, prefix="b_")
    params.update(glorot_init(cfg.trunk, rng, prefix="t_"))
    params["tau_o"] = np.zeros((1, 1))
    return params


def init_prob(cfg: DeepOnetConfig, seed) -> dict[str, np.ndarray]:
    """Shared layers plus split mu / log-sigma final layers and biases."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params = {}
    for prefix, sub in (("b_", cfg.branch), ("t_", cfg.trunk)):
        full = glorot_init(sub, rng, prefix=prefix)
        w, b = full.pop(f"{prefix}out_w"), full.pop(f"{prefix}out_b")
        params.update(full)
        params[f"{prefix}mu_w"] = w
        params[f"{prefix}mu_b"] = b
        limit = np.sqrt(6.0 / (sub.width + sub.output_dim))
        params[f"{prefix}ls_w"] = rng.uniform(-limit, limit, (sub.width, sub.output_dim))
        params[f"{prefix}ls_b"] = np.zeros((1, sub.output_dim))
    params["tau_o_mu"] = np.zeros((1, 1))
    params["tau_o_ls"] = np.zeros((1, 1))
    return params


def _heads(params: dict):
    """(stem, output bias) per head: `out` alone, or mu then log-sigma."""
    return (("out", "tau_o"),) if "tau_o" in params else (("mu", "tau_o_mu"), ("ls", "tau_o_ls"))


def forward_batch(params: dict, cfg: DeepOnetConfig, U, Y):
    """Paired evaluation, row i of U with row i of Y, on the tape.

    Returns (mu, log_sigma) as (B, 1) Tensors; log_sigma is clamped, and is
    None for a vanilla net.
    """
    bh = hidden(params, U, cfg.branch, "b_")
    th = hidden(params, Y, cfg.trunk, "t_")
    out = [T.sum_rows(head(params, bh, "b_", stem) * head(params, th, "t_", stem)) + params[tau]
           for stem, tau in _heads(params)]
    return out[0], (T.clip(out[1], LOGSIG_LO, LOGSIG_HI) if len(out) == 2 else None)


def _curves(params: dict, cfg: DeepOnetConfig, u, y) -> list[np.ndarray]:
    """Each head's values at the query column y (log-sigma clamped); the
    branch runs once."""
    bh = hidden(params, T.Tensor(u), cfg.branch, "b_")  # (1, width)
    th = hidden(params, T.Tensor(y), cfg.trunk, "t_")  # (k, width)
    out = [T.matmul(head(params, th, "t_", stem), T.Tensor(head(params, bh, "b_", stem).data.T))
           + float(np.asarray(params[tau]).item()) for stem, tau in _heads(params)]
    if len(out) == 2:
        out[1] = T.clip(out[1], LOGSIG_LO, LOGSIG_HI)
    return [c.data.ravel() for c in out]


def predict(members: list[dict], cfg: DeepOnetConfig, u_disc, ys):
    """(mean, std) curves at query times ys for one input function, from one
    vanilla net, one prob net or a vanilla ensemble (see the module doc)."""
    u = np.asarray(u_disc, dtype=float).reshape(1, -1)
    y = np.asarray(ys, dtype=float).reshape(-1, 1)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise T.NumericError("non-finite network input")
    if u.shape[1] != cfg.m:
        raise ValueError(f"expected {cfg.m} sensors, got {u.shape[1]}")
    if len(members) == 1:
        curves = _curves(members[0], cfg, u, y)
        return curves[0], (np.exp(curves[1]) if len(curves) == 2 else None)
    if not members or any(len(_heads(p)) != 1 for p in members):
        raise ValueError("an ensemble needs two or more vanilla members")
    matrix = np.stack([_curves(p, cfg, u, y)[0] for p in members])
    return matrix.mean(axis=0), matrix.std(axis=0, ddof=1)
