"""Gated fully-connected network used for both the branch and trunk nets.

Two encoders U and V are mixed through d update gates:

    U = sin(X W1 + b1)          V = sin(X W2 + b2)
    H = X
    for l in 1..d:  Z = sin(H Wz_l + bz_l);  H = (1 - Z) * U + Z * V
    f(X) = H W + b

The first gate maps from the raw input, so Wz_1 is (input_dim, width) and the
remaining gate weights are (width, width). Activation is plain sin throughout;
the final layer is linear. A Tensor input runs `hidden` and `head` on the
tape; an array runs the same ops in numpy, unrecorded, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import tensor as T

__all__ = ["MlpConfig", "glorot_init", "param_shapes"]

# numpy's primitives under the names of the tape's
_NUMPY = SimpleNamespace(matmul=np.matmul, add_bias=np.add, sin=np.sin)


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


def hidden(params: dict, x, cfg: MlpConfig, prefix: str = ""):
    """Gated recurrence up to H^(d+1), before the final linear layer."""
    ops = T if isinstance(x, T.Tensor) else _NUMPY

    def lin(v, stem):
        return ops.add_bias(ops.matmul(v, params[f"{prefix}{stem}_w"]), params[f"{prefix}{stem}_b"])

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values flow, as on the tape
        u = ops.sin(lin(x, "u"))
        v = ops.sin(lin(x, "v"))
        h = x
        for l in range(1, cfg.depth + 1):
            z = ops.sin(lin(h, f"z{l}"))
            h = (1.0 - z) * u + z * v
    return h


def head(params: dict, h, prefix: str = "", stem: str = "out"):
    """Final linear layer applied to a hidden state."""
    ops = T if isinstance(h, T.Tensor) else _NUMPY
    return ops.add_bias(ops.matmul(h, params[f"{prefix}{stem}_w"]), params[f"{prefix}{stem}_b"])
