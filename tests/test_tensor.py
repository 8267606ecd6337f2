"""Forward values, gradients against finite differences, and tape bookkeeping."""

import gc
import weakref

import numpy as np
import pytest

from gridonet import tensor as T


def naive_matmul(a, b):
    """Triple-loop reference, deliberately independent of numpy's matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for p in range(k):
                s += a[i, p] * b[p, j]
            out[i, j] = s
    return out


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(T.Tensor(a), T.Tensor(np.eye(2)))
    assert np.array_equal(out.data, a)


def test_matmul_hand_value():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_against_naive_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((4, 3))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_elementwise_values():
    x = T.Tensor([[1.0, -2.0]])
    y = T.Tensor([[3.0, 5.0]])
    assert np.array_equal((x + y).data, [[4.0, 3.0]])
    assert np.array_equal((x - y).data, [[-2.0, -7.0]])
    assert np.array_equal((x * y).data, [[3.0, -10.0]])


def test_scalar_broadcast_both_sides():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal((x * 2.0).data, [[2.0, 4.0], [6.0, 8.0]])
    assert np.array_equal((10.0 - x).data, [[9.0, 8.0], [7.0, 6.0]])
    s = T.Tensor([[3.0]])
    assert np.array_equal((x + s).data, [[4.0, 5.0], [6.0, 7.0]])


def test_general_broadcast_rejected():
    # only equal shapes or a scalar operand; row-against-matrix must raise
    with pytest.raises(ValueError):
        T.add(T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros((1, 2))))


def test_sin_matches_host_math():
    import math

    vals = np.array([[0.0, 0.5, -1.2, 3.1]])
    got = T.sin(T.Tensor(vals)).data
    want = np.array([[math.sin(v) for v in vals[0]]])
    assert np.max(np.abs(got - want)) < 1e-15


def test_exp_log_square_clip_values():
    x = T.Tensor([[0.0, 1.0]])
    assert np.allclose(T.exp(x).data, [[1.0, np.e]])
    assert np.array_equal(T.square(T.Tensor([[-3.0, 2.0]])).data, [[9.0, 4.0]])
    assert np.array_equal(T.clip(T.Tensor([[-5.0, 0.2, 9.0]]), -1.0, 1.0).data, [[-1.0, 0.2, 1.0]])


def test_exp_overflow_error():
    with pytest.raises(T.NumericError):
        T.exp(T.Tensor([[1000.0]]))


def test_reductions():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert T.sum_all(x).data.shape == (1, 1)
    assert T.sum_all(x).item() == 10.0
    assert np.array_equal(T.sum_rows(x).data, [[3.0], [7.0]])


def test_add_bias_value_and_shape_guard():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[10.0, 20.0]])
    assert np.array_equal(T.add_bias(x, b).data, [[11.0, 22.0], [13.0, 24.0]])
    with pytest.raises(ValueError):
        T.add_bias(x, T.Tensor([[1.0, 2.0, 3.0]]))


def test_grad_square_is_2x():
    tape = T.Tape()
    x = tape.watch("x", [[3.0]])
    loss = T.sum_all(T.square(x))
    g = tape.backward(loss)
    assert g["x"].shape == (1, 1)
    assert abs(g["x"][0, 0] - 6.0) < 1e-12


def test_grad_sin_at_zero():
    tape = T.Tape()
    x = tape.watch("x", [[0.0]])
    g = tape.backward(T.sum_all(T.sin(x)))
    assert abs(g["x"][0, 0] - 1.0) < 1e-12


def test_unused_leaf_gets_zeros():
    tape = T.Tape()
    x = tape.watch("x", [[1.0, 2.0]])
    w = tape.watch("w", [[5.0], [6.0]])
    g = tape.backward(T.sum_all(T.square(x)))
    assert np.array_equal(g["w"], np.zeros((2, 1)))
    assert np.array_equal(g["x"], [[2.0, 4.0]])


def test_backward_requires_scalar():
    tape = T.Tape()
    x = tape.watch("x", [[1.0, 2.0]])
    with pytest.raises(ValueError):
        tape.backward(T.square(x))


def test_duplicate_watch_rejected():
    tape = T.Tape()
    tape.watch("x", [[1.0]])
    with pytest.raises(ValueError):
        tape.watch("x", [[2.0]])


def test_untracked_ops_produce_plain_tensors():
    out = T.sin(T.Tensor([[1.0]])) + 2.0
    assert out.tape is None
    assert out.idx == -1


def test_tape_records_only_tracked_operands():
    tape = T.Tape()
    w = tape.watch("w", [[1.0], [2.0]])
    x = T.Tensor([[3.0, 4.0]])
    y = T.mul(T.matmul(x, w), 2.0)
    assert [p for p, _ in tape._edges[y.idx]] == [y.idx - 1]
    assert [p for p, _ in tape._edges[y.idx - 1]] == [w.idx]
    assert np.array_equal(tape.backward(T.sum_all(y))["w"], [[6.0], [8.0]])


def test_tape_is_freed_without_a_gc_pass():
    # a reference cycle through the tape would keep every recorded array
    # alive until the cyclic collector runs
    gc.disable()
    try:
        tape = T.Tape()
        x = tape.watch("x", [[1.0, 2.0]])
        tape.backward(T.sum_all(T.square(T.sin(x))))
        ref = weakref.ref(tape)
        del tape, x
        assert ref() is None
    finally:
        gc.enable()


def _fd_grad(f, x0, h=1e-6):
    """Central finite differences of a scalar-valued f at x0, elementwise."""
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_finite_difference_composite(seed):
    """Gradient of sum(sin(x @ w + bias)^2 * exp(clip(x, -1, 1))) vs central FD."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.8, 0.8, size=(3, 4))
    w0 = rng.standard_normal((4, 4)) * 0.5
    b0 = rng.standard_normal((1, 4)) * 0.1

    def forward(xv, wv, bv):
        tape = T.Tape()
        x = tape.watch("x", xv)
        w = tape.watch("w", wv)
        b = tape.watch("b", bv)
        h = T.sin(T.add_bias(T.matmul(x, w), b))
        loss = T.sum_all(T.square(h) * T.exp(T.clip(x, -1.0, 1.0)))
        return tape, loss

    tape, loss = forward(x0, w0, b0)
    g = tape.backward(loss)

    def scalar_in(name, base):
        def f(v):
            args = {"x": x0, "w": w0, "b": b0}
            args[name] = v
            _, out = forward(args["x"], args["w"], args["b"])
            return out.item()

        return f

    for name, base in [("x", x0), ("w", w0), ("b", b0)]:
        fd = _fd_grad(scalar_in(name, base), base)
        assert _rel_err(g[name], fd) < 1e-4, name


def test_finite_difference_log_branch():
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0.5, 2.0, size=(2, 3))

    def run(v):
        tape = T.Tape()
        x = tape.watch("x", v)
        return tape, T.sum_all(T.exp(x) * x) - T.sum_all(T.sum_rows(T.square(x)))

    tape, loss = run(x0)
    g = tape.backward(loss)
    fd = _fd_grad(lambda v: run(v)[1].item(), x0)
    assert _rel_err(g["x"], fd) < 1e-4


def test_shared_subexpression_accumulates():
    # y = x*x + x used twice through separate paths: dy/dx = 2x + 1
    tape = T.Tape()
    x = tape.watch("x", [[4.0]])
    g = tape.backward(T.sum_all(x * x + x))
    assert abs(g["x"][0, 0] - 9.0) < 1e-12


def test_backward_linear_in_loss():
    # grad of (L1 + L2) equals grad L1 + grad L2
    xv = np.array([[0.3, -0.7], [1.1, 0.4]])

    def grads(which):
        tape = T.Tape()
        x = tape.watch("x", xv)
        l1 = T.sum_all(T.square(x))
        l2 = T.sum_all(T.sin(x))
        loss = {"l1": l1, "l2": l2, "both": l1 + l2}[which]
        return tape.backward(loss)["x"]

    assert np.allclose(grads("both"), grads("l1") + grads("l2"), atol=1e-14)


def test_backward_deterministic():
    rng = np.random.default_rng(3)
    xv = rng.standard_normal((4, 4))

    def run():
        tape = T.Tape()
        x = tape.watch("x", xv)
        return tape.backward(T.sum_all(T.sin(T.matmul(x, x))))["x"]

    assert np.array_equal(run(), run())


def test_mixed_tape_rejected():
    t1, t2 = T.Tape(), T.Tape()
    a = t1.watch("a", [[1.0]])
    b = t2.watch("b", [[1.0]])
    with pytest.raises(ValueError):
        T.add(a, b)
    with pytest.raises(ValueError):
        t1.backward(t2.watch("c", [[1.0]]))
