"""Dense float64 arrays with tape-based reverse-mode differentiation.

Storage and arithmetic sit on numpy; the tape, the primitive set and the
backward pass are implemented here. A tape records primitive ops in creation
order (define-by-run) and is rebuilt for every forward pass. Each primitive
hands over one vjp per operand, and the tape keeps only those of operands it
tracks, so no gradient of a constant is ever formed.

No pass of the package runs on the tape: `mlp` and `deeponet` write their
forward and backward out. The tests record the same network on it as the
oracle of those gradients.
"""

from __future__ import annotations

import numpy as np

from .deeponet import NumericError

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "add",
    "sub",
    "mul",
    "sin",
    "exp",
    "square",
    "clip",
    "add_bias",
    "sum_all",
    "sum_rows",
    "as_array",
]


def as_array(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 ndarray (at least 2 never copies needlessly)."""
    a = np.asarray(x, dtype=np.float64)
    return np.ascontiguousarray(a)


def _is_scalar_shape(shape) -> bool:
    return int(np.prod(shape, dtype=np.int64)) == 1


class Tensor:
    """Immutable-by-convention value node. Tracked tensors carry a tape index."""

    __slots__ = ("data", "tape", "idx")

    def __init__(self, data, tape: "Tape | None" = None, idx: int = -1):
        self.data = as_array(data)
        self.tape = tape
        self.idx = idx

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # arithmetic sugar; plain numbers/arrays lift to untracked constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


class Tape:
    """Ordered record of primitive ops; backward visits each node exactly once."""

    def __init__(self):
        self._edges: list[tuple] = []  # per node: (parent index, vjp) of each tracked operand
        # name -> (index, shape); holding the leaf Tensors would make a
        # reference cycle that keeps every recorded array alive until a GC pass
        self._leaves: dict[str, tuple[int, tuple]] = {}

    def _record(self, data: np.ndarray, edges: tuple) -> Tensor:
        self._edges.append(edges)
        return Tensor(data, tape=self, idx=len(self._edges) - 1)

    def watch(self, name: str, value) -> Tensor:
        """Register a named leaf. Unused leaves still get zero gradients."""
        if name in self._leaves:
            raise ValueError(f"leaf {name!r} already watched on this tape")
        t = self._record(as_array(value), ())
        self._leaves[name] = (t.idx, t.shape)
        return t

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss with respect to every watched leaf."""
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if not _is_scalar_shape(loss.data.shape):
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        adj: list[np.ndarray | None] = [None] * len(self._edges)
        adj[loss.idx] = np.ones_like(loss.data)
        # non-finite values flow through silently; callers check the results
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(loss.idx, -1, -1):
                a = adj[i]
                if a is None:
                    continue
                for pidx, vjp in self._edges[i]:
                    contrib = vjp(a)
                    # accumulation allocates, so storing a view on first touch is safe
                    adj[pidx] = contrib if adj[pidx] is None else adj[pidx] + contrib
        return {name: np.zeros(shape) if adj[idx] is None else as_array(adj[idx])
                for name, (idx, shape) in self._leaves.items()}


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _emit(data, operands, vjps) -> Tensor:
    """Record the op on its operands' tape, keeping the vjp of each tracked
    operand; with no tracked operand it is a plain value with no record."""
    tape = None
    for t in operands:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ValueError("operands belong to different tapes")
            tape = t.tape
    if tape is None:
        return Tensor(data)
    return tape._record(data, tuple((t.idx, f) for t, f in zip(operands, vjps) if t.tape is tape))


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.data @ b.data
    ad, bd = a.data, b.data
    return _emit(out, (a, b), (lambda adj: adj @ bd.T, lambda adj: ad.T @ adj))


def _binary_elementwise(a, b, f, dfa, dfb, opname):
    a, b = _lift(a), _lift(b)
    sa, sb = a.data.shape, b.data.shape
    if not (sa == sb or _is_scalar_shape(sa) or _is_scalar_shape(sb)):
        raise ValueError(f"{opname}: shapes {sa} and {sb} are neither equal nor scalar-broadcast")
    with np.errstate(over="ignore", invalid="ignore"):
        out = f(a.data, b.data)
    ad, bd = a.data, b.data

    def reduce_to(g, shape):
        if g.shape == shape:
            return g
        return np.sum(g).reshape(shape)  # scalar operand: fold the broadcast axis back

    return _emit(out, (a, b), (lambda adj: reduce_to(dfa(adj, ad, bd), sa),
                               lambda adj: reduce_to(dfb(adj, ad, bd), sb)))


def add(a, b) -> Tensor:
    return _binary_elementwise(
        a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, "add"
    )


def sub(a, b) -> Tensor:
    return _binary_elementwise(
        a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, "sub"
    )


def mul(a, b) -> Tensor:
    return _binary_elementwise(
        a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul"
    )


def _unary(x, f, df, opname, check=None):
    x = _lift(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = f(x.data)
    if check is not None and not np.all(np.isfinite(out)):
        raise NumericError(f"{opname} produced non-finite values")
    xd = x.data
    return _emit(out, (x,), (lambda adj: df(adj, xd, out),))


def sin(x) -> Tensor:
    return _unary(x, np.sin, lambda g, xd, o: g * np.cos(xd), "sin")


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda g, xd, o: g * o, "exp", check=True)


def square(x) -> Tensor:
    return _unary(x, np.square, lambda g, xd, o: 2.0 * g * xd, "square")


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient on [lo, hi] and zero outside."""

    def df(g, xd, o):
        return g * ((xd >= lo) & (xd <= hi))

    return _unary(x, lambda v: np.clip(v, lo, hi), df, "clip")


def add_bias(x, b) -> Tensor:
    """Row-broadcast bias add: (n, k) + (1, k). The sole non-scalar broadcast."""
    x, b = _lift(x), _lift(b)
    if x.data.ndim != 2 or b.data.shape != (1, x.data.shape[1]):
        raise ValueError(f"add_bias: expected (n,k)+(1,k), got {x.data.shape}+{b.data.shape}")
    out = x.data + b.data
    return _emit(out, (x, b), (lambda adj: adj, lambda adj: adj.sum(axis=0, keepdims=True)))


def sum_all(x) -> Tensor:
    x = _lift(x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array([[x.data.sum()]])
    shape = x.data.shape
    return _emit(out, (x,), (lambda adj: np.full(shape, adj.reshape(-1)[0]),))


def sum_rows(x) -> Tensor:
    """Sum over the second axis: (n, k) -> (n, 1)."""
    x = _lift(x)
    if x.data.ndim != 2:
        raise ValueError(f"sum_rows expects a 2-d tensor, got shape {x.data.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = x.data.sum(axis=1, keepdims=True)
    k = x.data.shape[1]
    return _emit(out, (x,), (lambda adj: np.repeat(adj, k, axis=1),))
