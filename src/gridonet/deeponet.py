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

Training runs the paired pass, row i of U with row i of Y: `forward_batch`,
then `loss_and_grad`'s explicit backward of the summed loss (squared residuals,
or the Gaussian NLL), in a caller-owned `Workspace` that also holds the flat
gradient in checkpoint order. The backward keeps the op order of a reverse-mode
tape, so its gradients are the tape's bit for bit. It raises no NumericError:
non-finite values flow to the caller's loss and gradient check.

The branch and the trunk are independent until their inner product, and so are
an ensemble's members, so a pass may use one worker thread, whose executor
exists from import (a forked child gets a fresh one) and whose thread starts on
first use. The paired passes run the branch half there and the trunk half on
the caller, joined before the inner product and again before the gradient is
returned; the loss and the heads' adjoints run on the caller between the joins.
`predict` runs each member through the paired passes' `_forward_half` on two
lanes, the worker and the caller, each in its own pair of sub-net workspaces: a
lane takes the next index from one counter under a lock, indexes that member,
drops it once scored and files its curves by the index. A lone net runs on
the caller alone. numpy's matmul, sin, cos and elementwise loops release the
interpreter lock. `_both` alone decides whether a pass uses the worker: one
smaller than `_WORKER_SIZE` runs its two halves, or lanes, one after the
other on the caller, because the hand-off would cost more than the overlap
saves. Each half keeps its own workspace and op order and writes only its own
buffers, and every member runs the same ops on the same shapes, so the bytes
do not depend on where a half runs.

`predict(members, ...)` covers the three models and returns (mean, std):

* one vanilla net: its curve, and std None;
* one probabilistic net: the mu curve and exp(clamped log-sigma);
* two or more vanilla nets (an ensemble): the pointwise mean and the
  unbiased (ddof=1) std over the members' curves.

Input functions lie on the last axis: an (m,) input gives (k,) curves at k
query times, and an (n, m) input gives (n, k) curves, one row per input.
Each net runs its branch and its trunk once per call, whatever n is, in
buffers that one call allocates and every member on a lane reuses. `members`
is a sequence whose indexing may read the member from disk: predict indexes
each member once and keeps the members' curves, M * n * k floats, and at
most one member's weights per lane.

The trunk's outputs phi_i(y) depend on the weights and the query times alone,
never on the input function, so a caller may keep them. A member may come as
a (params, basis) pair. A basis that is an array holds the (heads, k, q)
values of the trunk's heads at ys: `_curves` runs the branch alone and takes
the (k, q) x (q, n) product with it. A basis that is a function is called,
on the member's lane, with that array once `_curves` has computed it (the
CLI's store writes it to disk). The trunk has one pass, `_forward_half` in
the lane's workspace, so a curve has the same bytes with a basis or without.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import Error, mlp
from .checkpoint import unflatten
from .mlp import MlpConfig, glorot_init, head, head_backward, hidden, hidden_backward, param_shapes

__all__ = [
    "NumericError",
    "DeepOnetConfig",
    "LOGSIG_LO",
    "LOGSIG_HI",
    "LOG_2PI",
    "Workspace",
    "layout",
    "init",
    "forward_batch",
    "loss_and_grad",
    "predict",
]

# bounds on the log-sigma channel before exponentiation; sigma stays in
# [4.5e-5, 20] pu, far outside any physical voltage band
LOGSIG_LO = -10.0
LOGSIG_HI = 3.0
LOG_2PI = float(np.log(2.0 * np.pi))

# (head stem, output bias) per net kind, in checkpoint order
_HEADS = {"vanilla": (("out", "tau_o"),), "prob": (("mu", "tau_o_mu"), ("ls", "tau_o_ls"))}


def _new_worker() -> None:
    """Make `_worker`, the one thread that runs the branch half of the paired
    passes and predict's second lane; it starts at the first submit. Called at
    import and in a forked child, where the parent's worker thread does not exist."""
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="gridonet-worker")


_new_worker()
if hasattr(os, "register_at_fork"):  # a platform without fork has no stale worker
    os.register_at_fork(after_in_child=_new_worker)


# a pass of this size (rows x width^2, one gate layer's multiply-adds) or more
# uses the worker; 32 rows at width 100 (crossover measured in CHANGES.md)
_WORKER_SIZE = 320_000


class NumericError(Error):
    """A pass produced (or would produce) non-finite values."""


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


class Workspace:
    """The buffers of a net's paired passes over n rows, allocated once by
    the caller and overwritten by every pass that is given them: the two
    sub-nets' (`mlp.Workspace`) and the inner products; with `grad`, also
    the gradient: one flat vector `grad` in the order of params, which
    `grads` views by name, and a `scratch` dict of the same shapes."""

    def __init__(self, cfg: DeepOnetConfig, params: dict, n: int, grad: bool = True):
        heads = len(_heads(params))
        self.branch = mlp.Workspace(cfg.branch, n, grad, heads)
        self.trunk = mlp.Workspace(cfg.trunk, n, grad, heads)
        self.prod = np.empty((n, cfg.q))
        self.cols = list(np.empty((heads, n, 1)))
        self.ls = np.empty((n, 1))  # the clamped log-sigma column
        if grad:
            self.grad = np.empty(sum(np.size(a) for a in params.values()))
            shapes = [(k, np.shape(a)) for k, a in params.items()]
            self.grads = unflatten(shapes, self.grad, copy=False)
            self.scratch = unflatten(shapes, np.empty_like(self.grad), copy=False)


def forward_batch(params: dict, cfg: DeepOnetConfig, U, Y, ws: Workspace | None = None):
    """Paired evaluation, row i of U with row i of Y, in ws's buffers (a
    fresh forward-only workspace if None). The branch half (`hidden` and the
    heads on U) and the trunk half go to `_both`; the inner products follow.

    Returns (mu, log_sigma) as (n, 1) buffers of ws; log_sigma is clamped,
    and is None for a vanilla net.
    """
    U, Y = np.ascontiguousarray(U, dtype=float), np.ascontiguousarray(Y, dtype=float)
    ws = ws or Workspace(cfg, params, len(U), grad=False)
    with np.errstate(over="ignore", invalid="ignore"):
        _both(_forward_half, (params, U, cfg.branch, "b_", ws.branch),
              (params, Y, cfg.trunk, "t_", ws.trunk), len(U) * cfg.width ** 2)
        for i, (_, tau) in enumerate(_heads(params)):
            np.sum(np.multiply(ws.branch.out[i], ws.trunk.out[i], out=ws.prod), axis=1,
                   keepdims=True, out=ws.cols[i])
            ws.cols[i] += params[tau]
        if len(ws.cols) == 1:
            return ws.cols[0], None
        return ws.cols[0], np.clip(ws.cols[1], LOGSIG_LO, LOGSIG_HI, out=ws.ls)


def loss_and_grad(params: dict, cfg: DeepOnetConfig, U, Y, G, coef: float, ws: Workspace):
    """coef times the loss summed over the rows, squared residuals for a
    vanilla net and Gaussian NLL for a prob net, and its gradient: returns
    (loss, ws.grad), the gradient written into ws (a `grad` workspace).

    The forward and the backward each give their branch and trunk halves to
    `_both`; the loss, the heads' adjoints and the output biases' gradients
    run here between the two.
    """
    U, Y, G = (np.ascontiguousarray(a, dtype=float) for a in (U, Y, G))
    heads = _heads(params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu, ls = forward_batch(params, cfg, U, Y, ws)
        r = mu - G
        sq = np.square(r)
        if ls is None:
            loss = float(np.sum(sq)) * coef
            douts = [(2.0 * coef) * r]
        else:
            e = np.exp(ls * -2.0)  # in [e^-6, e^20] by the clamp; a NaN ls makes the loss NaN
            # 0.5 r^2 / sigma^2 + 0.5 log(2 pi sigma^2), with sigma = exp(ls)
            loss = float(np.sum(sq * e * 0.5 + ls + 0.5 * LOG_2PI)) * coef
            half = coef * 0.5
            dsq = half * e
            dls = coef + (half * sq) * e * -2.0
            # the clamp passes the gradient on [lo, hi] and stops it outside
            raw = ws.cols[1]
            douts = [(2.0 * dsq) * r, dls * ((raw >= LOGSIG_LO) & (raw <= LOGSIG_HI))]
        for (_, tau), g in zip(heads, douts):
            # one row passes its adjoint as the tape does; a sum would turn -0.0 into 0.0
            ws.grads[tau][...] = g if g.shape == (1, 1) else np.sum(g)
        _both(_backward_half, (params, U, cfg.branch, "b_", ws.branch, ws.trunk, douts, ws.grads),
              (params, Y, cfg.trunk, "t_", ws.trunk, ws.branch, douts, ws.grads),
              len(U) * cfg.width ** 2)
    return loss, ws.grad


def _forward_half(params: dict, x, cfg: MlpConfig, prefix: str, sub: mlp.Workspace) -> None:
    """One sub-net's forward on the rows of x: `hidden`, then each head into
    sub.out."""
    h = hidden(params, x, cfg, prefix, sub)
    for i, (stem, _) in enumerate(_heads(params)):
        head(params, h, prefix, stem, sub.out[i])


def _backward_half(params: dict, x, cfg: MlpConfig, prefix: str, sub: mlp.Workspace,
                   other: mlp.Workspace, douts: list, grads: dict) -> None:
    """One sub-net's backward from douts, the adjoints of the heads' inner
    products: each head's, the last first (its adjoint being douts[i] times
    the other sub-net's head), then `hidden`'s, into the sub-net's grads."""
    heads = _heads(params)
    for i in reversed(range(len(heads))):
        np.multiply(douts[i], other.out[i], out=sub.dout)
        head_backward(params, sub.h[-1], prefix, heads[i][0], sub, grads, add=i < len(heads) - 1)
    hidden_backward(params, x, cfg, prefix, sub, grads)


def _both(half, there: tuple, here: tuple, size: int) -> None:
    """half(*here) and half(*there) for a pass of size rows x width^2: below
    `_WORKER_SIZE` both here, one after the other; from it, half(*there) on
    the worker thread, in a copy of this thread's context (numpy keeps
    `errstate` there), joined before this returns. Raises here's error, else
    there's."""
    if size < _WORKER_SIZE:
        half(*here)
        half(*there)
        return
    job = _worker.submit(contextvars.copy_context().run, half, *there)
    try:
        half(*here)
    finally:
        wait((job,))
    job.result()


def _heads(params: dict):
    """(stem, output bias) per head: `out` alone, or mu then log-sigma."""
    return _HEADS["vanilla" if "tau_o" in params else "prob"]


def _curves(member, cfg: DeepOnetConfig, u, y, bws, tws) -> list[np.ndarray]:
    """Each head's (n, k) values for the n rows of u at the query column y
    (log-sigma not yet clamped), from one `_forward_half` per sub-net, in bws
    and tws; for a (params, basis) member (see the module doc), from the
    branch's alone, or with the trunk's values handed to the basis function."""
    params, basis = member if isinstance(member, tuple) else (member, None)
    heads = _heads(params)
    _forward_half(params, u, cfg.branch, "b_", bws)  # (n, q) per head
    if basis is None or callable(basis):
        _forward_half(params, y, cfg.trunk, "t_", tws)  # (k, q) per head
        if basis is not None:
            basis(np.stack(tws.out[:len(heads)]))
        basis = tws.out
    elif basis.shape != (len(heads), len(y), cfg.q):
        raise ValueError(f"a basis of shape {basis.shape} does not fit this net at {len(y)} "
                         "query times")
    out = [t @ np.ascontiguousarray(b.T) + float(np.asarray(params[tau]).item())
           for t, b, (_, tau) in zip(basis, bws.out, heads)]
    return [np.ascontiguousarray(c.T) for c in out]  # (n, k)


def predict(members, cfg: DeepOnetConfig, u_disc, ys):
    """(mean, std) curves at query times ys from members, a sequence of one
    vanilla net, one prob net or a vanilla ensemble (see the module doc),
    each indexed once, on the lane that scores it; a member is a net's
    params, or a (params, basis) pair whose basis is the trunk's values at
    ys or a function to hand them to. The inputs lie on the last axis of
    u_disc: (m,) gives (k,) curves, and (n, m) gives (n, k) curves, row i
    being the curve of input row i. Fewer than two members are scored
    on the caller, and more on two lanes, placed by `_both` as a pass of
    max(n, k) rows. After an error no lane takes another index, and the
    error of the lowest index is raised (an interrupt first): the one a loop
    over the members meets first, since every lower index was taken before
    it. NumericError names the first member whose raw curves (before any
    clamp) are not finite."""
    u_disc = np.asarray(u_disc, dtype=float)
    u = np.ascontiguousarray(u_disc.reshape(-1, u_disc.shape[-1]))
    y = np.ascontiguousarray(np.asarray(ys, dtype=float).reshape(-1, 1))
    if u.shape[1] != cfg.m:
        raise ValueError(f"expected {cfg.m} sensors, got {u.shape[1]}")
    shape = u_disc.shape[:-1] + (len(y),)
    order, lock, curves, failed = itertools.count(), threading.Lock(), [None] * len(members), []

    def lane(bws, tws):
        """Score the next index until none is left or a lane has failed."""
        try:
            while True:
                with lock:
                    if failed or (i := next(order)) >= len(curves):
                        return
                curves[i] = [c.reshape(shape) for c in _curves(members[i], cfg, u, y, bws, tws)]
        except BaseException as err:  # an interrupt outranks every member's error
            failed.append((i if isinstance(err, Exception) else -1, err))

    # a lane's workspaces, made on the caller (on the worker: +2 MB peak RSS); two
    # heads for any kind: unused np.empty is unpaged
    def space():
        return (mlp.Workspace(cfg.branch, len(u), grad=False, heads=2),
                mlp.Workspace(cfg.trunk, len(y), grad=False, heads=2))

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values reach the check
        if len(members) < 2:
            lane(*space())
        else:
            _both(lane, space(), space(), max(len(u), len(y)) * cfg.width ** 2)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    for i, c in enumerate(curves):
        if not all(np.isfinite(a).all() for a in c):
            raise NumericError(f"member {i} gives non-finite values")
    if len(curves) == 1:
        mean, *ls = curves[0]
        return mean, (np.exp(np.clip(ls[0], LOGSIG_LO, LOGSIG_HI)) if ls else None)
    if not curves or any(len(c) != 1 for c in curves):
        raise ValueError("an ensemble needs two or more vanilla members")
    stack = np.stack([c[0] for c in curves])
    return stack.mean(axis=0), stack.std(axis=0, ddof=1)
