"""Gated-network init bounds, forward correctness against a straight-line oracle,
and the explicit backward against finite differences and the tape."""

import ast
import inspect

import numpy as np
import pytest

from gridonet import mlp
from gridonet import tensor as T
from gridonet.mlp import (MlpConfig, Workspace, glorot_init, head, head_backward, hidden,
                          hidden_backward, param_shapes)

import tape_oracle as oracle


def test_only_linear_reads_the_weights():
    """Every layer is one `_linear`: no other top-level definition of `mlp`
    reads `params[...]` (`glorot_init` only stores into it)."""
    def reads_params(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "params")

    tree = ast.parse(inspect.getsource(mlp))
    assert {getattr(top, "name", "<module>") for top in tree.body
            if any(reads_params(node) for node in ast.walk(top))} == {"_linear", "_linear_backward"}


def forward(params, x, cfg, prefix=""):
    """Full network: gated recurrence plus the linear output layer."""
    return head(params, hidden(params, x, cfg, prefix), prefix)


def reference_forward(params, x, cfg, prefix=""):
    """Independent plain-numpy transcription of the recurrence (no Tensor machinery)."""
    p = {k: np.asarray(v.data if isinstance(v, T.Tensor) else v) for k, v in params.items()}
    u = np.sin(x @ p[f"{prefix}u_w"] + p[f"{prefix}u_b"])
    v = np.sin(x @ p[f"{prefix}v_w"] + p[f"{prefix}v_b"])
    h = x
    for l in range(1, cfg.depth + 1):
        z = np.sin(h @ p[f"{prefix}z{l}_w"] + p[f"{prefix}z{l}_b"])
        h = (1.0 - z) * u + z * v
    return h @ p[f"{prefix}out_w"] + p[f"{prefix}out_b"]


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(input_dim=0, width=4, depth=1, output_dim=1)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, width=4, depth=0, output_dim=1)


def test_param_set_matches_architecture():
    cfg = MlpConfig(input_dim=5, width=7, depth=3, output_dim=2)
    shapes = param_shapes(cfg)
    # encoders, 3 gates, final layer: 2*(2) + 3*2 + 2 = 12 arrays
    assert len(shapes) == 12
    assert shapes["u_w"] == (5, 7)
    assert shapes["z1_w"] == (5, 7)  # first gate reads the raw input
    assert shapes["z2_w"] == (7, 7)
    assert shapes["z3_w"] == (7, 7)
    assert shapes["out_w"] == (7, 2)
    assert shapes["out_b"] == (1, 2)


def test_glorot_bound_fanin_fanout_3():
    # fan_in = fan_out = 3 gives limit sqrt(6/6) = 1
    cfg = MlpConfig(input_dim=3, width=3, depth=1, output_dim=3)
    params = glorot_init(param_shapes(cfg), 0)
    for name, arr in params.items():
        if name.endswith("_w"):
            assert np.all(np.abs(arr) <= 1.0), name


def test_glorot_biases_zero_and_deterministic():
    cfg = MlpConfig(input_dim=4, width=6, depth=2, output_dim=3)
    p1 = glorot_init(param_shapes(cfg), 42)
    p2 = glorot_init(param_shapes(cfg), 42)
    for name in p1:
        assert np.array_equal(p1[name], p2[name]), name
        if name.endswith("_b"):
            assert np.all(p1[name] == 0.0), name
    p3 = glorot_init(param_shapes(cfg), 43)
    assert not np.array_equal(p1["u_w"], p3["u_w"])


def test_glorot_variance_matches_uniform_moment():
    # var of U(-a, a) is a^2/3 = 2/(fan_in+fan_out); check on a 100x100 layer
    cfg = MlpConfig(input_dim=100, width=100, depth=1, output_dim=1)
    draws = np.concatenate(
        [glorot_init(param_shapes(cfg), s)["u_w"].ravel() for s in range(1)]
    )
    assert draws.size == 10_000
    want = 2.0 / 200.0
    assert abs(draws.var() - want) / want < 0.05


def test_zero_params_give_zero_output():
    cfg = MlpConfig(input_dim=3, width=5, depth=2, output_dim=2)
    params = {k: np.zeros(s) for k, s in param_shapes(cfg).items()}
    x = np.random.default_rng(0).standard_normal((4, 3))
    out = forward(params, x, cfg)
    assert np.array_equal(out, np.zeros((4, 2)))


def test_hand_trace_scalar_instance():
    # d=1, all dims 1: U=sin(x*w1+b1), V=sin(x*w2+b2), Z=sin(x*wz+bz),
    # H=(1-Z)U+ZV, f = H*w+b -- traced by hand below
    cfg = MlpConfig(input_dim=1, width=1, depth=1, output_dim=1)
    params = {
        "u_w": [[0.5]], "u_b": [[0.1]],
        "v_w": [[-0.3]], "v_b": [[0.2]],
        "z1_w": [[0.7]], "z1_b": [[-0.1]],
        "out_w": [[2.0]], "out_b": [[0.05]],
    }
    x = 0.9
    u = np.sin(0.5 * x + 0.1)
    v = np.sin(-0.3 * x + 0.2)
    z = np.sin(0.7 * x - 0.1)
    h = (1 - z) * u + z * v
    want = 2.0 * h + 0.05
    got = forward({k: np.asarray(v_, dtype=float) for k, v_ in params.items()},
                  np.array([[x]]), cfg).item()
    assert abs(got - want) < 1e-14


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_forward_matches_reference_implementation(depth):
    cfg = MlpConfig(input_dim=4, width=9, depth=depth, output_dim=3)
    params = glorot_init(param_shapes(cfg), 5 + depth)
    x = np.random.default_rng(9).standard_normal((6, 4))
    got = forward(params, x, cfg)
    want = reference_forward(params, x, cfg)
    assert np.max(np.abs(got - want)) < 1e-12


def test_batch_order_equivariance():
    cfg = MlpConfig(input_dim=3, width=8, depth=2, output_dim=2)
    params = glorot_init(param_shapes(cfg), 1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 3))
    perm = rng.permutation(10)
    out = forward(params, x, cfg)
    out_p = forward(params, x[perm], cfg)
    assert np.array_equal(out[perm], out_p)


def test_gate_surgery_selects_encoder():
    # saturate each gate at sin(pi/2)=1 -> output follows V only; at 0 -> U only
    cfg = MlpConfig(input_dim=2, width=4, depth=2, output_dim=1)
    base = glorot_init(param_shapes(cfg), 3)
    x = np.random.default_rng(4).standard_normal((5, 2))

    def run(p):
        return forward(p, x, cfg)

    all_v = dict(base)
    all_u = dict(base)
    for l in (1, 2):
        all_v[f"z{l}_w"] = np.zeros_like(base[f"z{l}_w"])
        all_v[f"z{l}_b"] = np.full_like(base[f"z{l}_b"], np.pi / 2)
        all_u[f"z{l}_w"] = np.zeros_like(base[f"z{l}_w"])
        all_u[f"z{l}_b"] = np.zeros_like(base[f"z{l}_b"])

    out_v = run(all_v)
    out_u = run(all_u)
    # perturbing U must not move the V-gated output, and vice versa
    bump_u = dict(all_v)
    bump_u["u_w"] = base["u_w"] + 1.0
    assert np.array_equal(run(bump_u), out_v)
    bump_v = dict(all_u)
    bump_v["v_w"] = base["v_w"] + 1.0
    assert np.array_equal(run(bump_v), out_u)
    # and the complementary perturbation does move it
    bump_v2 = dict(all_v)
    bump_v2["v_w"] = base["v_w"] + 1.0
    assert not np.array_equal(run(bump_v2), out_v)


def grads_of_square_sum(params, x, cfg, ws):
    """Gradients of sum(forward(x)^2) from hidden_backward and head_backward."""
    out = head(params, hidden(params, x, cfg, "", ws), "", "out", ws.out[0])
    np.multiply(out, 2.0, out=ws.dout)
    grads = {k: np.full_like(v, np.nan) for k, v in params.items()}
    head_backward(params, ws.h[-1], "", "out", ws, grads)
    hidden_backward(params, x, cfg, "", ws, grads)
    return grads


def test_gradients_match_finite_differences_end_to_end():
    cfg = MlpConfig(input_dim=2, width=3, depth=2, output_dim=1)
    base = glorot_init(param_shapes(cfg), 8)
    x = np.random.default_rng(12).uniform(-1, 1, (4, 2))

    def loss_at(override):
        return float(np.sum(np.square(forward({**base, **override}, x, cfg))))

    grads = grads_of_square_sum(base, x, cfg, Workspace(cfg, len(x)))
    h = 1e-6
    rng = np.random.default_rng(77)
    for name in base:
        flat = base[name].ravel()
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            e = np.zeros_like(base[name])
            e.ravel()[idx] = h
            lp = loss_at({name: base[name] + e})
            lm = loss_at({name: base[name] - e})
            fd = (lp - lm) / (2 * h)
            g = grads[name].ravel()[idx]
            assert abs(g - fd) / max(abs(fd), 1e-10) < 1e-4, (name, idx)


@pytest.mark.parametrize("depth", [1, 3])
def test_array_input_runs_the_same_ops_off_the_tape(depth):
    """An array input gives the tape's bits, and records nothing."""
    cfg = MlpConfig(input_dim=4, width=9, depth=depth, output_dim=3)
    params = glorot_init(param_shapes(cfg), 11 + depth)
    x = np.random.default_rng(13).standard_normal((6, 4))
    on_tape = oracle.head(params, oracle.hidden(params, T.Tensor(x), cfg))
    off_tape = forward(params, x, cfg)
    assert type(off_tape) is np.ndarray
    assert off_tape.tobytes() == on_tape.data.tobytes()


@pytest.mark.parametrize("depth", [1, 3])
def test_backward_gives_the_tapes_bytes_in_a_reused_workspace(depth):
    """hidden_backward + head_backward reproduce the tape's gradient bytes,
    and a second pass in the same workspace, on other rows, matches a fresh
    workspace's."""
    cfg = MlpConfig(input_dim=4, width=9, depth=depth, output_dim=3)
    params = glorot_init(param_shapes(cfg), 21 + depth)
    rng = np.random.default_rng(23)
    ws = Workspace(cfg, 6)
    for x in (rng.standard_normal((6, 4)), rng.standard_normal((6, 4))):
        tape, tracked = oracle.watch_all(params)
        want = tape.backward(T.sum_all(T.square(oracle.head(tracked, oracle.hidden(
            tracked, T.Tensor(x), cfg)))))
        got = grads_of_square_sum(params, x, cfg, ws)
        fresh = grads_of_square_sum(params, x, cfg, Workspace(cfg, 6))
        for name in params:
            assert got[name].tobytes() == want[name].tobytes() == fresh[name].tobytes(), name
