"""Adam training for the operator networks: MSE and Gaussian-NLL objectives.

The learning rate starts at 1e-4 and is multiplied by `factor` whenever the
best training loss has not improved by a relative 1e-4 within `patience`
epochs (floored at `min_lr`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .deeponet import DeepOnetConfig, forward_batch

__all__ = [
    "TrainingError",
    "TrainConfig",
    "AdamState",
    "PlateauSchedule",
    "loss_and_grads",
    "init_adam",
    "adam_step",
    "fit",
]

LOG_2PI = float(np.log(2.0 * np.pi))
REL_IMPROVE = 1e-4  # the plateau schedule's relative improvement threshold
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam moment decays and denominator guard


class TrainingError(RuntimeError):
    def __init__(self, msg, history=None, param=None):
        super().__init__(msg)
        self.history = history or []
        self.param = param


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 256
    lr: float = 1e-4
    patience: int = 200
    factor: float = 0.5
    min_lr: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (0.0 < self.factor < 1.0):
            raise ValueError(f"factor must be in (0,1), got {self.factor}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        for name, x in (("lr", self.lr), ("min_lr", self.min_lr)):
            if not (0.0 < x < np.inf):
                raise ValueError(f"{name} must be finite and > 0, got {x}")


class PlateauSchedule:
    """Reduce-on-plateau with relative improvement threshold 1e-4.

    Epochs are counted from 0. A constant loss stream with patience 5 and
    factor 0.5 halves the rate at epochs 5, 10, 15, ...
    """

    def __init__(self, lr: float, patience: int, factor: float, min_lr: float):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
        self.best = np.inf
        self._last_event = 0
        self._epoch = -1

    def observe(self, loss: float) -> float:
        """Record one epoch's loss; returns the rate to use next."""
        self._epoch += 1
        if not np.isfinite(self.best):
            self.best = loss  # first epoch is the baseline, not an improvement
        elif loss < self.best - REL_IMPROVE * abs(self.best):
            self.best = loss
            self._last_event = self._epoch
        if self._epoch - self._last_event >= self.patience:
            self.lr = max(self.lr * self.factor, self.min_lr)
            self._last_event = self._epoch
        return self.lr


def _watch_all(params: dict):
    tape = T.Tape()
    return tape, {k: tape.watch(k, v) for k, v in params.items()}


def _loss_graph(tracked, cfg, U, Y, G, coef):
    """coef times the summed loss: squared residuals for a vanilla net,
    Gaussian NLL for a prob net (1/B gives the batch mean)."""
    mu, ls = forward_batch(tracked, cfg, T.Tensor(U), T.Tensor(Y))
    r = mu - T.Tensor(G)
    if ls is None:
        return T.sum_all(T.square(r)) * coef
    # 0.5 r^2 / sigma^2 + 0.5 log(2 pi sigma^2), with sigma = exp(ls)
    point = T.square(r) * T.exp(ls * -2.0) * 0.5 + ls + 0.5 * LOG_2PI
    return T.sum_all(point) * coef


def loss_and_grads(params: dict, cfg: DeepOnetConfig, U, Y, G):
    """Batch-mean loss (MSE for a vanilla net, Gaussian NLL for a prob net)
    and its gradients."""
    tape, tracked = _watch_all(params)
    loss = _loss_graph(tracked, cfg, U, Y, G, 1.0 / len(G))
    return loss.item(), tape.backward(loss)


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict, lr: float) -> AdamState:
    st = AdamState(lr=lr)
    st.m = {k: np.zeros_like(np.asarray(p, dtype=float)) for k, p in params.items()}
    st.v = {k: np.zeros_like(np.asarray(p, dtype=float)) for k, p in params.items()}
    return st


def adam_step(state: AdamState, params: dict, grads: dict):
    """One bias-corrected Adam update; returns (state, new params)."""
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    out = {}
    for name in params:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for {name!r}", param=name)
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        mhat = state.m[name] / c1
        vhat = state.v[name] / c2
        out[name] = params[name] - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return state, out


def fit(params: dict, cfg: DeepOnetConfig, data, config: TrainConfig):
    """Minibatch Adam over shuffled epochs of the (U, Y, G) training rows, on
    the loss of the net's heads.

    Returns (best_params, history) where history rows are dicts with keys
    epoch, train_loss, lr. Best = lowest epoch training loss.
    """
    U, Y, G = data
    n = len(G)
    if n == 0:
        raise ValueError("no training samples")
    params = {k: np.asarray(v, dtype=float).copy() for k, v in params.items()}
    state = init_adam(params, config.lr)
    sched = PlateauSchedule(config.lr, config.patience, config.factor, config.min_lr)
    history = []
    best_loss = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 2, epoch]).permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            try:
                loss, grads = loss_and_grads(params, cfg, U[idx], Y[idx], G[idx])
            except T.NumericError as e:
                raise TrainingError(f"numeric failure at epoch {epoch}: {e}", history=history)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}", history=history)
            state, params = adam_step(state, params, grads)
            total += loss * len(idx)
        train_loss = total / n
        state.lr = sched.observe(train_loss)
        history.append({"epoch": epoch, "train_loss": train_loss, "lr": state.lr})
        if train_loss < best_loss:
            best_loss = train_loss
            best_params = {k: v.copy() for k, v in params.items()}
    return best_params, history
