"""Training loop checks: loss values against hand arithmetic and scalar-loop
oracles, gradient bytes against the tape oracle and pins, Adam update
algebra, the plateau schedule trace, the step's two threads, and a small
operator-learning benchmark that must actually converge."""

import hashlib
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from gridonet import deeponet, tensor, train
from gridonet.deeponet import LOG_2PI, DeepOnetConfig, Workspace, forward_batch, init, predict
from gridonet.sghmc import BayesConfig, sghmc_run
from gridonet.train import (
    PlateauSchedule,
    TrainConfig,
    TrainingError,
    adam_update,
    fit,
    loss_and_grads,
)

import tape_oracle as oracle

CFG = DeepOnetConfig(m=4, q=3, width=5, depth=2)
NO_ROWS = (np.zeros((0, CFG.m)), np.zeros((0, 1)), np.zeros((0, 1)))


def zeroed(params, **overrides):
    out = {k: np.zeros_like(v) for k, v in params.items()}
    for k, v in overrides.items():
        out[k] = np.full_like(out[k], v)
    return out


def batch_loss(params, cfg, batch):
    """MSE for a vanilla net, Gaussian NLL for a prob net, on (U, Y, G) rows."""
    return loss_and_grads(params, cfg, *batch)[0]


def mu_subparams(prob_params):
    """Vanilla-layout view of a prob net's mu channel (shares arrays)."""
    out = {k.replace("mu_w", "out_w").replace("mu_b", "out_b"): v
           for k, v in prob_params.items() if "_ls_" not in k and k != "tau_o_ls"}
    out["tau_o"] = out.pop("tau_o_mu")
    return out


def make_batch(rng, n, m=CFG.m):
    """n random (U, Y, G) rows."""
    return rng.uniform(0.8, 1.1, (n, m)), rng.uniform(2, 9, (n, 1)), rng.uniform(0.7, 1.0, (n, 1))


def one_row(y, target):
    return np.ones((1, CFG.m)), np.array([[y]]), np.array([[target]])


def test_mse_hand_values():
    # all-zero weights collapse the network to the constant tau_o
    params = zeroed(init(CFG, "vanilla", seed=0), tau_o=1.0)
    batch = one_row(3.0, 0.8)
    assert abs(batch_loss(params, CFG, batch) - 0.04) < 1e-15
    params_eq = zeroed(init(CFG, "vanilla", seed=0), tau_o=0.8)
    assert batch_loss(params_eq, CFG, batch) == 0.0
    with pytest.raises(ValueError, match="no training samples"):
        fit(params, CFG, NO_ROWS, TrainConfig(epochs=1))


def test_mse_matches_scalar_loop():
    rng = np.random.default_rng(1)
    params = init(CFG, "vanilla", seed=2)
    batch = make_batch(rng, 17)
    acc = 0.0
    for u, y, g in zip(batch[0], batch[1][:, 0], batch[2][:, 0]):
        pred = predict([params], CFG, u, [y])[0][0]
        acc += (pred - g) ** 2
    assert abs(batch_loss(params, CFG, batch) - acc / 17) < 1e-12


def test_nll_hand_values():
    base = init(CFG, "prob", seed=0)
    batch = one_row(3.0, 0.8)
    # mu = target, sigma = 1 everywhere
    params = zeroed(base, tau_o_mu=0.8)
    assert abs(batch_loss(params, CFG, batch) - 0.5 * LOG_2PI) < 1e-12
    # unit residual at sigma = 1
    params = zeroed(base, tau_o_mu=1.8)
    assert abs(batch_loss(params, CFG, batch) - (0.5 + 0.5 * LOG_2PI)) < 1e-12
    with pytest.raises(ValueError, match="no training samples"):
        fit(params, CFG, NO_ROWS, TrainConfig(epochs=1))


def test_nll_matches_scalar_loop():
    rng = np.random.default_rng(3)
    params = init(CFG, "prob", seed=4)
    batch = make_batch(rng, 13)
    acc = 0.0
    for u, y, g in zip(batch[0], batch[1][:, 0], batch[2][:, 0]):
        mu, sigma = predict([params], CFG, u, [y])
        # the division form, independent of the graph's exp(-2 ls) form
        acc += 0.5 * (mu[0] - g) ** 2 / sigma[0] ** 2 + 0.5 * np.log(
            2.0 * np.pi * sigma[0] ** 2
        )
    ref = acc / 13
    assert abs(batch_loss(params, CFG, batch) - ref) < 1e-12 * max(1.0, abs(ref))


def test_nll_reduces_to_mse_at_unit_sigma():
    rng = np.random.default_rng(5)
    prob = dict(init(CFG, "prob", seed=6))
    for k in prob:  # freeze the log-sigma heads at zero, so sigma = 1
        if "_ls_" in k or k == "tau_o_ls":
            prob[k] = np.zeros_like(prob[k])
    batch = make_batch(rng, 11)
    m = batch_loss(mu_subparams(prob), CFG, batch)
    n = batch_loss(prob, CFG, batch)
    assert abs(n - (0.5 * m + 0.5 * LOG_2PI)) < 1e-12


def test_nll_gradient_at_perfect_mean():
    # with mu = target and sigma = 1, d(nll)/d(tau_o_ls) = 1, d/d(tau_o_mu) = 0
    params = zeroed(init(CFG, "prob", seed=0), tau_o_mu=0.9)
    _, grads = loss_and_grads(params, CFG, np.ones((4, CFG.m)),
                              2.0 + np.arange(4.0).reshape(4, 1), np.full((4, 1), 0.9))
    assert abs(grads["tau_o_ls"].item() - 1.0) < 1e-12
    assert abs(grads["tau_o_mu"].item()) < 1e-12


GRADIENT_PINS = {
    "vanilla": "2e7ce8f08c8c5dfbfbf0906d147ea587917289968060527eb091cd4811dd354d",
    "prob": "b660fd15c21ed2587e0379ad7b9a5c6b68e17357189f131419f20790e08d82d2",
}


def pinned_case(kind):
    """(params, cfg, batch) of the pinned gradients."""
    cfg = DeepOnetConfig(m=20, q=8, width=8, depth=2)
    return init(cfg, kind, seed=0), cfg, make_batch(np.random.default_rng(0), 6, m=cfg.m)


@pytest.mark.parametrize("kind, digest", GRADIENT_PINS.items())
def test_gradient_bytes_are_pinned(kind, digest):
    # names and float64 bytes of every gradient: a change to the backward
    # pass's arithmetic or to its accumulation order moves them
    params, cfg, batch = pinned_case(kind)
    _, grads = loss_and_grads(params, cfg, *batch)
    h = hashlib.sha256()
    for name, g in grads.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(g, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def test_branch_and_trunk_halves_run_on_two_threads(monkeypatch):
    """The branch's forward and backward run on one worker thread, the
    trunk's on the caller's."""
    seen = {}
    for name in ("hidden", "hidden_backward"):
        def record(params, x, cfg, prefix, *rest, _name=name, _fn=getattr(deeponet, name)):
            seen[_name, prefix] = threading.get_ident()
            return _fn(params, x, cfg, prefix, *rest)

        monkeypatch.setattr(deeponet, name, record)
    params, cfg, batch = pinned_case("prob")
    loss_and_grads(params, cfg, *batch)
    assert seen[("hidden", "t_")] == seen[("hidden_backward", "t_")] == threading.get_ident()
    assert seen[("hidden", "b_")] == seen[("hidden_backward", "b_")] != threading.get_ident()


@pytest.mark.parametrize("prefix", ["b_", "t_"])
def test_an_error_in_either_half_propagates_and_the_next_step_is_exact(monkeypatch, prefix):
    """A half that raises ends the step with its error after the join, and
    the same workspace then gives the pinned gradient bytes."""
    params, cfg, batch = pinned_case("vanilla")
    ws = Workspace(cfg, params, len(batch[2]))
    backward = deeponet.hidden_backward

    def fail(params, x, cfg, p, *rest):
        if p == prefix:
            raise FloatingPointError(f"{p} half")
        return backward(params, x, cfg, p, *rest)

    monkeypatch.setattr(deeponet, "hidden_backward", fail)
    with pytest.raises(FloatingPointError, match=f"^{prefix} half$"):
        loss_and_grads(params, cfg, *batch, ws)
    monkeypatch.undo()
    assert digest(loss_and_grads(params, cfg, *batch, ws)[1]) == GRADIENT_PINS["vanilla"]


def test_callers_on_four_threads_share_the_worker_and_get_the_pinned_bytes():
    """More threads than cores, switching every microsecond: each caller's
    steps still give the pinned gradient bytes."""
    params, cfg, batch = pinned_case("prob")
    got = []

    def steps():
        ws = Workspace(cfg, params, len(batch[2]))
        for _ in range(20):
            got.append(digest(loss_and_grads(params, cfg, *batch, ws)[1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=steps) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [GRADIENT_PINS["prob"]] * 80


def test_a_child_forked_after_fit_fits_again():
    """A forked child has no worker thread of its parent's, so it makes its
    own and gives the parent's bytes."""
    batch = make_batch(np.random.default_rng(33), 9)
    config = TrainConfig(epochs=2, batch_size=4)
    want = digest(fit(init(CFG, "prob", seed=1), CFG, batch, config)[0])
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = int(digest(fit(init(CFG, "prob", seed=1), CFG, batch, config)[0]) != want)
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's fit did not finish within 60 s")
    assert os.waitstatus_to_exitcode(status[1]) == 0


def digest(arrays: dict, *floats) -> str:
    """sha256 over names and float64 bytes of arrays, then the floats' bytes."""
    h = hashlib.sha256()
    for name, a in arrays.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(np.asarray(floats, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, depth, want", [
    ("vanilla", 1, "6246ad874108d974b2f675979aaa8c0787bae01611c9547c119640703702681f"),
    ("vanilla", 3, "4d313640be087e12994ea8b5a20a85bb55507f091e07db95a1586bf45ff03af6"),
    ("prob", 1, "a84fed3d18588c42b8fe82d47beb595849c4e83ed35ced4c0799476a1e6aa817"),
    ("prob", 3, "0eee0a58f8a947113cc70c0b4ad20e5b41e12ebca160841646279116ba7ad98b"),
])
def test_gradient_bytes_pinned_on_duplicated_rows(kind, depth, want):
    # rows that share an input function, as a trajectory's queries do; the
    # loss and every gradient keep the tape's arithmetic and summation order
    cfg = DeepOnetConfig(m=20, q=8, width=8, depth=depth)
    U, Y, G = make_batch(np.random.default_rng(1), 7, m=cfg.m)
    loss, grads = loss_and_grads(init(cfg, kind, seed=depth), cfg, U[[0, 1, 1, 2, 0, 3, 3]], Y, G)
    assert digest(grads, loss) == want


@pytest.mark.parametrize("kind, want", [
    ("vanilla", "78055ff9c6a81fcc7a718319340b29d7ccbdc304ec420960aa8f9419993d8129"),
    ("prob", "aae3e4e02f7f7e5b96c280e1858822571aa2e56c13ef3e9fdbc1fa789a0875b9"),
])
def test_fit_bytes_pinned_with_a_partial_batch(kind, want):
    # 11 rows in batches of 4 end every epoch on a 3-row batch; at this rate
    # the loss stalls, so patience 1 halves the rate within the run, and the
    # prob net's best epoch is not its last
    config = TrainConfig(epochs=6, batch_size=4, lr=0.1, patience=1, seed=3)
    best, hist = fit(init(CFG, kind, seed=5), CFG, make_batch(np.random.default_rng(30), 11),
                     config)
    assert digest(best, *(h[k] for h in hist for k in ("train_loss", "lr"))) == want


@pytest.mark.parametrize("kind", ["vanilla", "prob"])
@pytest.mark.parametrize("depth, rows", [(1, 1), (2, 6), (3, 9)])
def test_gradients_equal_the_tape_oracle(kind, depth, rows):
    """The explicit pass gives the tape's loss and gradient bytes: on one row,
    whose output-bias gradient is its own adjoint rather than a sum, and with
    the log-sigma clamp active on part of the rows."""
    cfg = DeepOnetConfig(m=6, q=4, width=5, depth=depth)
    U, Y, G = make_batch(np.random.default_rng(depth + rows), rows, m=cfg.m)
    params = init(cfg, kind, seed=rows)
    if kind == "prob":  # the rows above the median log-sigma pass LOGSIG_HI
        params["tau_o_ls"] = 3.0 - np.median(forward_batch(params, cfg, U, Y)[1], keepdims=True)
        if rows > 1:
            clamped = oracle.forward_batch(params, cfg, U, Y)[1].data == 3.0
            assert 0 < clamped.sum() < rows
    loss, grads = loss_and_grads(params, cfg, U, Y, G)
    want_loss, want = oracle.loss_and_grads(params, cfg, U, Y, G)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert list(grads) == list(want)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


def test_returned_gradients_are_not_overwritten_by_the_next_call():
    rng = np.random.default_rng(31)
    params = init(CFG, "prob", seed=4)
    _, first = loss_and_grads(params, CFG, *make_batch(rng, 5))
    kept = {k: v.copy() for k, v in first.items()}
    _, second = loss_and_grads(params, CFG, *make_batch(rng, 5))
    for name in kept:
        assert np.array_equal(first[name], kept[name]), name
    assert any(not np.array_equal(first[k], second[k]) for k in kept)


def test_training_sampling_and_predict_stay_off_the_tape(monkeypatch):
    def refuse(*args):
        raise AssertionError("an op was recorded on the tape")

    monkeypatch.setattr(tensor.Tape, "_record", refuse)
    batch = make_batch(np.random.default_rng(32), 9)
    with pytest.raises(AssertionError, match="recorded"):
        oracle.loss_and_grads(init(CFG, "vanilla", seed=0), CFG, *batch)
    u, ys = batch[0][:2], [2.5, 6.0]
    for kind in ("vanilla", "prob"):
        best, _ = fit(init(CFG, kind, seed=1), CFG, batch, TrainConfig(epochs=2, batch_size=4))
        assert predict([best], CFG, u, ys)[0].shape == (2, 2)
    bc = BayesConfig(sigma_l=1.0, eps_t=1e-4, n_outer=2, burn_in=0, thinning=1, M=2, m_inner=2,
                     batch_size=4, trace_every=1)
    members, _ = sghmc_run(init(CFG, "vanilla", seed=2), CFG, batch, bc)
    assert predict(members, CFG, u, ys)[1].shape == (2, 2)


def adam_run(p, grad_fn, lr, steps):
    """p after `steps` Adam updates from zero moments; grad_fn(p) -> gradient."""
    p = np.array(p, dtype=float)
    m, v, tmp, step = (np.zeros_like(p) for _ in range(4))
    for t in range(1, steps + 1):
        adam_update(p, grad_fn(p), m, v, t, lr, tmp, step)
    return p


def test_adam_zero_gradient_is_identity():
    p = np.array([1.0, -2.0])
    assert np.array_equal(adam_run(p, np.zeros_like, 0.1, 1), p)


def test_adam_first_step_moves_by_lr():
    assert abs(adam_run([0.0], np.ones_like, 0.1, 1).item() + 0.1) < 1e-8


def test_adam_minimizes_quadratic():
    assert abs(adam_run([5.0], lambda p: 2.0 * p, 0.1, 1000).item()) < 1e-3


def test_fit_names_the_parameter_of_a_nonfinite_gradient(monkeypatch):
    real = train.loss_and_grad

    def poisoned(params, cfg, U, Y, G, coef, ws):
        out = real(params, cfg, U, Y, G, coef, ws)
        ws.grads["t_u_w"][0, 0] = np.nan
        return out

    monkeypatch.setattr(train, "loss_and_grad", poisoned)
    batch = make_batch(np.random.default_rng(4), 8)
    with pytest.raises(TrainingError) as exc:
        fit(init(CFG, "vanilla", seed=1), CFG, batch, TrainConfig(epochs=1, batch_size=8))
    assert exc.value.param == "t_u_w"


def test_plateau_halves_on_constant_stream():
    sched = PlateauSchedule(lr=1e-4, patience=5, factor=0.5, min_lr=1e-9)
    rates = [sched.observe(1.0) for _ in range(16)]
    assert rates[:5] == [1e-4] * 5
    assert rates[5:10] == [5e-5] * 5
    assert rates[10:15] == [2.5e-5] * 5
    assert rates[15] == 1.25e-5


def test_plateau_handles_negative_losses():
    # NLL can plateau below zero; the threshold must still trigger there
    sched = PlateauSchedule(lr=1e-4, patience=5, factor=0.5, min_lr=1e-9)
    rates = [sched.observe(-5.0) for _ in range(11)]
    assert rates[4] == 1e-4 and rates[5] == 5e-5 and rates[10] == 2.5e-5


def test_plateau_improvement_resets_patience():
    sched = PlateauSchedule(lr=1e-4, patience=3, factor=0.5, min_lr=1e-9)
    loss = 1.0
    for _ in range(20):  # steady 1% improvement, never a plateau
        assert sched.observe(loss) == 1e-4
        loss *= 0.99


def test_plateau_respects_min_lr():
    sched = PlateauSchedule(lr=1e-4, patience=1, factor=0.5, min_lr=1e-5)
    for _ in range(50):
        lr = sched.observe(2.0)
    assert lr == 1e-5


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=5, factor=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=5, patience=-1)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, lr=bad)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, min_lr=bad)


def test_fit_is_bit_reproducible():
    rng = np.random.default_rng(12)
    batch = make_batch(rng, 16)
    config = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=7)
    p0 = init(CFG, "vanilla", seed=11)
    a, hist_a = fit(p0, CFG, batch, config)
    b, hist_b = fit(p0, CFG, batch, config)
    for k in a:
        assert np.array_equal(a[k], b[k])
    assert hist_a == hist_b
    assert [h["epoch"] for h in hist_a] == [0, 1, 2]
    assert set(hist_a[0]) == {"epoch", "train_loss", "lr"}
    assert all(np.isfinite(h["train_loss"]) for h in hist_a)


def test_fit_raises_on_divergence():
    rng = np.random.default_rng(15)
    batch = make_batch(rng, 8)
    # the sin gates saturate, so the loss only overflows at an absurd rate
    config = TrainConfig(epochs=50, batch_size=8, lr=1e200, seed=0)
    with pytest.raises(TrainingError) as exc:
        fit(init(CFG, "vanilla", seed=2), CFG, batch, config)
    assert isinstance(exc.value.history, list)


def _integral_benchmark(n_funcs, q_per, seed):
    """u(x) = a sin(w x + phi) on [0,1]; G(u)(y) = definite integral to y."""
    cfg = DeepOnetConfig(m=20, q=10, width=20, depth=2)
    xs = np.arange(1, cfg.m + 1) / cfg.m
    rng = np.random.default_rng(seed)
    U, Y, G = [], [], []
    for _ in range(n_funcs):
        a = rng.uniform(0.5, 1.0)
        w = rng.uniform(np.pi, 2 * np.pi)
        phi = rng.uniform(0.0, 2 * np.pi)
        y = rng.uniform(0.05, 1.0, size=q_per)
        U.append(np.tile(a * np.sin(w * xs + phi), (q_per, 1)))
        Y.append(y)
        G.append(a * (np.cos(phi) - np.cos(w * y + phi)) / w)
    return cfg, (np.concatenate(U), np.concatenate(Y)[:, None], np.concatenate(G)[:, None])


def test_fit_learns_the_integral_operator():
    cfg, data = _integral_benchmark(n_funcs=30, q_per=5, seed=20)
    config = TrainConfig(epochs=2000, batch_size=64, lr=1e-3, patience=300, seed=1)
    params, hist = fit(init(cfg, "vanilla", seed=3), cfg, data, config)
    assert batch_loss(params, cfg, data) < 1e-4
    assert hist[-1]["train_loss"] < hist[0]["train_loss"]
