"""Adam training for the operator networks: MSE and Gaussian-NLL objectives.

The learning rate starts at 1e-4 and is multiplied by `factor` whenever the
best training loss has not improved by a relative 1e-4 within `patience`
epochs (floored at `min_lr`).

Each step is one `loss_and_grads` call: deeponet's explicit forward and
backward in a workspace kept for the batch size, each running the branch and
the trunk sub-nets concurrently on two threads. The gradients are those of a
reverse-mode tape over the same ops, bit for bit, as they were when the two
sub-nets ran one after the other. `adam_update` then moves the weights and
Adam's moments, flat vectors in checkpoint order, in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import flatten, unflatten
from .deeponet import DeepOnetConfig, NumericError, Workspace, loss_and_grad

__all__ = [
    "TrainingError",
    "TrainConfig",
    "PlateauSchedule",
    "loss_and_grads",
    "adam_update",
    "fit",
]

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


def loss_and_grads(params: dict, cfg: DeepOnetConfig, U, Y, G, ws: Workspace | None = None):
    """Batch-mean loss (MSE for a vanilla net, Gaussian NLL for a prob net)
    and its gradients by name. They are views of ws's flat gradient, which
    the next pass in ws overwrites; without ws they are a fresh workspace's,
    and nothing else holds them."""
    ws = ws or Workspace(cfg, params, len(G))
    loss, _ = loss_and_grad(params, cfg, U, Y, G, 1.0 / len(G), ws)
    return loss, ws.grads


def adam_update(p, g, m, v, t: int, lr: float, tmp, step) -> None:
    """Moments m, v and position p after Adam's step t (from 1) at rate lr on
    gradient g, in place; tmp and step are scratch arrays of p's shape."""
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=tmp)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(v, 1.0 - BETA2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, 1.0 - BETA1 ** t, out=step)
    step *= lr
    step /= tmp
    p -= step


def fit(params: dict, cfg: DeepOnetConfig, data, config: TrainConfig):
    """Minibatch Adam over shuffled epochs of the (U, Y, G) training rows, on
    the loss of the net's heads.

    The weights, the Adam moments and the gradient are each one flat vector
    in checkpoint order, updated in place; each batch size gets one
    workspace, and the batch rows are gathered into it.

    Returns (best_params, history) where history rows are dicts with keys
    epoch, train_loss, lr. Best = lowest epoch training loss.
    """
    data = tuple(np.asarray(a, dtype=float) for a in data)
    n = len(data[2])
    if n == 0:
        raise ValueError("no training samples")
    layout, theta = flatten(params)
    params = unflatten(layout, theta, copy=False)
    t, lr = 0, config.lr
    m, v, tmp, step = (np.zeros_like(theta) for _ in range(4))
    spaces = {}  # batch size -> workspace
    sched = PlateauSchedule(config.lr, config.patience, config.factor, config.min_lr)
    history = []
    best_loss = np.inf
    best = theta.copy()
    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 2, epoch]).permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            ws = spaces.get(len(idx))
            if ws is None:
                ws = spaces[len(idx)] = Workspace(cfg, params, len(idx))
            try:
                loss, grads = loss_and_grads(params, cfg, *ws.take(data, idx), ws)
            except NumericError as e:
                raise TrainingError(f"numeric failure at epoch {epoch}: {e}", history=history)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}", history=history)
            if not np.all(np.isfinite(ws.grad)):
                name = next(k for k, g in grads.items() if not np.all(np.isfinite(g)))
                raise TrainingError(f"non-finite gradient for {name!r}", history, name)
            t += 1
            adam_update(theta, ws.grad, m, v, t, lr, tmp, step)
            total += loss * len(idx)
        train_loss = total / n
        lr = sched.observe(train_loss)
        history.append({"epoch": epoch, "train_loss": train_loss, "lr": lr})
        if train_loss < best_loss:
            best_loss = train_loss
            best[...] = theta
    return unflatten(layout, best), history
