"""Gated fully-connected network used for both the branch and trunk nets.

Two encoders U and V are mixed through d update gates:

    U = sin(X W1 + b1)          V = sin(X W2 + b2)
    H = X
    for l in 1..d:  Z = sin(H Wz_l + bz_l);  H = (1 - Z) * U + Z * V
    f(X) = H W + b

The first gate maps from the raw input, so Wz_1 is (input_dim, width) and the
remaining gate weights are (width, width). Every layer is one `_linear`, h W + b,
with one gradient `_linear_backward`: sin of it throughout, the final one linear.

`hidden` and `head` are the package's one forward pass, and `hidden_backward`
and `head_backward` its gradient, written out for this fixed shape. They run
in a caller-owned `Workspace` of n-row buffers, so a pass allocates no
(n, width) array, and set no numpy error state: their callers in `deeponet`
do, and `_both` carries it to the worker in a context copy (numpy 2 keeps it
there). Each op and each sum keeps the order a reverse-mode tape of these ops
takes: dU and dV sum layer d first, and dZ = g*V + (-(g*U)). The gradients
are therefore the tape's bit for bit; the tests keep such a tape as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MlpConfig", "Workspace", "glorot_init", "param_shapes", "hidden", "head",
           "hidden_backward", "head_backward"]


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    width: int
    depth: int  # number of gate layers
    output_dim: int

    def __post_init__(self):
        for f in ("input_dim", "width", "depth", "output_dim"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1, got {getattr(self, f)}")


def param_shapes(cfg: MlpConfig, prefix: str = "", heads=("out",)) -> dict[str, tuple[int, int]]:
    """Parameter names and shapes in fixed insertion order (checkpoint order):
    the encoders, the gates, then one linear layer per head stem."""
    shapes = {
        f"{prefix}u_w": (cfg.input_dim, cfg.width),
        f"{prefix}u_b": (1, cfg.width),
        f"{prefix}v_w": (cfg.input_dim, cfg.width),
        f"{prefix}v_b": (1, cfg.width),
    }
    for l in range(1, cfg.depth + 1):
        fan_in = cfg.input_dim if l == 1 else cfg.width
        shapes[f"{prefix}z{l}_w"] = (fan_in, cfg.width)
        shapes[f"{prefix}z{l}_b"] = (1, cfg.width)
    for stem in heads:
        shapes[f"{prefix}{stem}_w"] = (cfg.width, cfg.output_dim)
        shapes[f"{prefix}{stem}_b"] = (1, cfg.output_dim)
    return shapes


def glorot_init(shapes: dict[str, tuple[int, int]], seed) -> dict[str, np.ndarray]:
    """Glorot-uniform weights (names ending `_w`, limit sqrt(6/(fan_in+fan_out)))
    drawn from one stream in the order of `shapes`; every other parameter
    (biases) starts at zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, (rows, cols) in shapes.items():
        if name.endswith("_w"):
            limit = np.sqrt(6.0 / (rows + cols))
            params[name] = rng.uniform(-limit, limit, size=(rows, cols))
        else:
            params[name] = np.zeros((rows, cols))
    return params


class Workspace:
    """The buffers of one sub-net's passes over n rows, allocated once and
    overwritten by every pass that is given them.

    With `grad`, the forward keeps what the backward reads: the encoders'
    pre-activations, U and V, and each gate's pre-activation, Z, 1-Z and H;
    the backward has its own adjoint buffers. Without, every gate reuses one
    set and each sin overwrites its pre-activation. `out` holds one (n,
    output_dim) buffer per head and `dout` the adjoint of the head being
    differentiated; `dh` is the adjoint of H^(d+1).
    """

    def __init__(self, cfg: MlpConfig, n: int, grad: bool = True, heads: int = 1):
        gates = cfg.depth if grad else 1
        block = iter(np.empty((4 * gates + (9 if grad else 1), n, cfg.width)))
        self.u, self.v = next(block), next(block)
        self.z = [next(block) for _ in range(gates)]
        self.a = [next(block) for _ in range(gates)]
        self.h = [next(block) for _ in range(gates)]
        if grad:
            self.pre_u, self.pre_v = next(block), next(block)
            self.pre = [next(block) for _ in range(gates)]
            self.dh, self.dz, self.du, self.dv, self.tmp = block
            self.zv = self.tmp  # Z*V, the forward's one scratch
        else:
            self.pre_u, self.pre_v, self.pre, self.zv = self.u, self.v, self.z, self.z[0]
        self.out = list(np.empty((heads, n, cfg.output_dim)))
        self.dout = np.empty((n, cfg.output_dim)) if grad else None


def _linear(params, h, name: str, out):
    """h W + b of the layer `name` ({name}_w, {name}_b), into out (fresh if None)."""
    out = np.matmul(h, params[f"{name}_w"], out=out)
    return np.add(out, params[f"{name}_b"], out=out)


def _linear_backward(params, h, name: str, d, grads, dh=None, tmp=None) -> None:
    """Gradients of `_linear` on h from d = dL/d(h W + b): the bias's into grads, dL/dh
    into dh if given (added through the scratch tmp if given), the weight's into grads."""
    np.sum(d, axis=0, keepdims=True, out=grads[f"{name}_b"])
    if tmp is not None:
        dh += np.matmul(d, params[f"{name}_w"].T, out=tmp)
    elif dh is not None:
        np.matmul(d, params[f"{name}_w"].T, out=dh)
    np.matmul(h.T, d, out=grads[f"{name}_w"])


def hidden(params: dict, x, cfg: MlpConfig, prefix: str = "", ws: Workspace | None = None):
    """Gated recurrence up to H^(d+1), before the final linear layer, on the
    rows of x, in ws's buffers (a fresh forward-only workspace if None).
    Returns a buffer of ws."""
    ws = ws or Workspace(cfg, len(x), grad=False)
    u = np.sin(_linear(params, x, f"{prefix}u", ws.pre_u), out=ws.u)
    v = np.sin(_linear(params, x, f"{prefix}v", ws.pre_v), out=ws.v)
    h = x
    for l in range(cfg.depth):
        i = l % len(ws.z)
        z = np.sin(_linear(params, h, f"{prefix}z{l + 1}", ws.pre[i]), out=ws.z[i])
        a = np.subtract(1.0, z, out=ws.a[i])
        h = np.multiply(a, u, out=ws.h[i])
        h += np.multiply(z, v, out=ws.zv)
    return h


def head(params: dict, h, prefix: str = "", stem: str = "out", out=None):
    """Final linear layer applied to a hidden state, into `out` if given."""
    return _linear(params, h, f"{prefix}{stem}", out)


def head_backward(params: dict, h, prefix: str, stem: str, ws: Workspace, grads: dict,
                  add: bool = False) -> None:
    """Gradients of `head` on hidden state h, given ws.dout = dL/d(output):
    the layer's into grads (in place), and dL/dh into ws.dh, or added to it
    when `add` (a second head on the same h)."""
    _linear_backward(params, h, f"{prefix}{stem}", ws.dout, grads, ws.dh, ws.tmp if add else None)


def hidden_backward(params: dict, x, cfg: MlpConfig, prefix: str, ws: Workspace,
                    grads: dict) -> None:
    """Gradients of the parameters of `hidden`, from its last pass over x in
    ws (a `grad` workspace), given ws.dh = dL/dH^(d+1); each is written into
    grads[name] in place. ws.dh is overwritten."""
    g, dz, du, dv, tmp = ws.dh, ws.dz, ws.du, ws.dv, ws.tmp
    for l in range(cfg.depth, 0, -1):
        z, a = ws.z[l - 1], ws.a[l - 1]
        if l == cfg.depth:
            np.multiply(g, z, out=dv)
            np.multiply(g, a, out=du)
        else:
            dv += np.multiply(g, z, out=tmp)
            du += np.multiply(g, a, out=tmp)
        np.multiply(g, ws.v, out=dz)
        dz -= np.multiply(g, ws.u, out=tmp)
        dz *= np.cos(ws.pre[l - 1], out=tmp)
        _linear_backward(params, x if l == 1 else ws.h[l - 2], f"{prefix}z{l}", dz, grads,
                         g if l > 1 else None)
    for stem, pre, d in (("v", ws.pre_v, dv), ("u", ws.pre_u, du)):
        d *= np.cos(pre, out=tmp)
        _linear_backward(params, x, f"{prefix}{stem}", d, grads)
