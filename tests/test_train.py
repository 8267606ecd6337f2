"""Training loop checks: loss values against hand arithmetic and scalar-loop
oracles, Adam update algebra, the plateau schedule trace, and a small
operator-learning benchmark that must actually converge."""

import numpy as np
import pytest

from gridonet.dataset import OperatorSample
from gridonet.deeponet import DeepOnetConfig, init_prob, init_vanilla, predict
from gridonet.train import (
    LOG_2PI,
    AdamState,
    PlateauSchedule,
    TrainConfig,
    TrainingError,
    adam_step,
    batch_arrays,
    fit,
    init_adam,
    loss_and_grads,
)

CFG = DeepOnetConfig(m=4, q=3, width=5, depth=2)


def zeroed(params, **overrides):
    out = {k: np.zeros_like(v) for k, v in params.items()}
    for k, v in overrides.items():
        out[k] = np.full_like(out[k], v)
    return out


def mse_loss(params, cfg, batch):
    return loss_and_grads("vanilla", params, cfg, *batch_arrays(batch))[0]


def nll_loss(params, cfg, batch):
    return loss_and_grads("prob", params, cfg, *batch_arrays(batch))[0]


def mu_subparams(prob_params):
    """Vanilla-layout view of a prob net's mu channel (shares arrays)."""
    out = {k.replace("mu_w", "out_w").replace("mu_b", "out_b"): v
           for k, v in prob_params.items() if "_ls_" not in k and k != "tau_o_ls"}
    out["tau_o"] = out.pop("tau_o_mu")
    return out


def make_batch(rng, n, m=CFG.m):
    return [
        OperatorSample(i, rng.uniform(0.8, 1.1, m), float(rng.uniform(2, 9)),
                       float(rng.uniform(0.7, 1.0)))
        for i in range(n)
    ]


def test_mse_hand_values():
    # all-zero weights collapse the network to the constant tau_o
    params = zeroed(init_vanilla(CFG, seed=0), tau_o=1.0)
    batch = [OperatorSample(0, np.ones(CFG.m), 3.0, 0.8)]
    assert abs(mse_loss(params, CFG, batch) - 0.04) < 1e-15
    params_eq = zeroed(init_vanilla(CFG, seed=0), tau_o=0.8)
    assert mse_loss(params_eq, CFG, batch) == 0.0
    with pytest.raises(ValueError):
        fit("vanilla", params, CFG, [], TrainConfig(epochs=1))


def test_mse_matches_scalar_loop():
    rng = np.random.default_rng(1)
    params = init_vanilla(CFG, seed=2)
    batch = make_batch(rng, 17)
    acc = 0.0
    for s in batch:
        pred = predict([params], CFG, s.u_disc, [s.y])[0][0]
        acc += (pred - s.target) ** 2
    assert abs(mse_loss(params, CFG, batch) - acc / 17) < 1e-12


def test_nll_hand_values():
    base = init_prob(CFG, seed=0)
    batch = [OperatorSample(0, np.ones(CFG.m), 3.0, 0.8)]
    # mu = target, sigma = 1 everywhere
    params = zeroed(base, tau_o_mu=0.8)
    assert abs(nll_loss(params, CFG, batch) - 0.5 * LOG_2PI) < 1e-12
    # unit residual at sigma = 1
    params = zeroed(base, tau_o_mu=1.8)
    assert abs(nll_loss(params, CFG, batch) - (0.5 + 0.5 * LOG_2PI)) < 1e-12
    with pytest.raises(ValueError):
        fit("prob", params, CFG, [], TrainConfig(epochs=1))


def test_nll_matches_scalar_loop():
    rng = np.random.default_rng(3)
    params = init_prob(CFG, seed=4)
    batch = make_batch(rng, 13)
    acc = 0.0
    for s in batch:
        mu, sigma = predict([params], CFG, s.u_disc, [s.y])
        # the division form, independent of the graph's exp(-2 ls) form
        acc += 0.5 * (mu[0] - s.target) ** 2 / sigma[0] ** 2 + 0.5 * np.log(
            2.0 * np.pi * sigma[0] ** 2
        )
    ref = acc / 13
    assert abs(nll_loss(params, CFG, batch) - ref) < 1e-12 * max(1.0, abs(ref))


def test_nll_reduces_to_mse_at_unit_sigma():
    rng = np.random.default_rng(5)
    prob = dict(init_prob(CFG, seed=6))
    for k in prob:  # freeze the log-sigma heads at zero, so sigma = 1
        if "_ls_" in k or k == "tau_o_ls":
            prob[k] = np.zeros_like(prob[k])
    batch = make_batch(rng, 11)
    m = mse_loss(mu_subparams(prob), CFG, batch)
    n = nll_loss(prob, CFG, batch)
    assert abs(n - (0.5 * m + 0.5 * LOG_2PI)) < 1e-12


def test_nll_gradient_at_perfect_mean():
    # with mu = target and sigma = 1, d(nll)/d(tau_o_ls) = 1, d/d(tau_o_mu) = 0
    params = zeroed(init_prob(CFG, seed=0), tau_o_mu=0.9)
    batch = [OperatorSample(i, np.ones(CFG.m), 2.0 + i, 0.9) for i in range(4)]
    _, grads = loss_and_grads("prob", params, CFG, *batch_arrays(batch))
    assert abs(grads["tau_o_ls"].item() - 1.0) < 1e-12
    assert abs(grads["tau_o_mu"].item()) < 1e-12


def test_adam_zero_gradient_is_identity():
    params = {"w": np.array([[1.0, -2.0]])}
    state = init_adam(params, lr=0.1)
    grads = {"w": np.zeros((1, 2))}
    state, out = adam_step(state, params, grads)
    assert np.array_equal(out["w"], params["w"])
    assert state.t == 1


def test_adam_first_step_moves_by_lr():
    params = {"x": np.array([[0.0]])}
    state = init_adam(params, lr=0.1)
    _, out = adam_step(state, params, {"x": np.array([[1.0]])})
    assert abs(out["x"].item() + 0.1) < 1e-8


def test_adam_rejects_nonfinite_gradient():
    params = {"x": np.array([[0.0]])}
    state = init_adam(params, lr=0.1)
    with pytest.raises(TrainingError) as exc:
        adam_step(state, params, {"x": np.array([[np.nan]])})
    assert exc.value.param == "x"


def test_adam_minimizes_quadratic():
    params = {"x": np.array([[5.0]])}
    state = init_adam(params, lr=0.1)
    for _ in range(1000):
        state, params = adam_step(state, params, {"x": 2.0 * params["x"]})
    assert abs(params["x"].item()) < 1e-3


def test_adam_order_invariance():
    rng = np.random.default_rng(9)
    a = {"p": rng.standard_normal((2, 2)), "q": rng.standard_normal(3)}
    b = {"q": a["q"].copy(), "p": a["p"].copy()}
    g = {"p": rng.standard_normal((2, 2)), "q": rng.standard_normal(3)}
    _, out_a = adam_step(init_adam(a, 0.01), a, g)
    _, out_b = adam_step(init_adam(b, 0.01), b, g)
    assert np.array_equal(out_a["p"], out_b["p"])
    assert np.array_equal(out_a["q"], out_b["q"])


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
        TrainConfig(epochs=5, lr=0.0)


def test_fit_is_bit_reproducible():
    rng = np.random.default_rng(12)
    batch = make_batch(rng, 16)
    config = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=7)
    p0 = init_vanilla(CFG, seed=11)
    a, hist_a = fit("vanilla", p0, CFG, batch, config)
    b, hist_b = fit("vanilla", p0, CFG, batch, config)
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
        fit("vanilla", init_vanilla(CFG, seed=2), CFG, batch, config)
    assert isinstance(exc.value.history, list)


def _integral_benchmark(n_funcs, q_per, seed):
    """u(x) = a sin(w x + phi) on [0,1]; G(u)(y) = definite integral to y."""
    cfg = DeepOnetConfig(m=20, q=10, width=20, depth=2)
    xs = np.arange(1, cfg.m + 1) / cfg.m
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_funcs):
        a = rng.uniform(0.5, 1.0)
        w = rng.uniform(np.pi, 2 * np.pi)
        phi = rng.uniform(0.0, 2 * np.pi)
        u = a * np.sin(w * xs + phi)
        for y in rng.uniform(0.05, 1.0, size=q_per):
            target = a * (np.cos(phi) - np.cos(w * y + phi)) / w
            samples.append(OperatorSample(i, u, float(y), float(target)))
    return cfg, samples


def test_fit_learns_the_integral_operator():
    cfg, samples = _integral_benchmark(n_funcs=30, q_per=5, seed=20)
    config = TrainConfig(epochs=2000, batch_size=64, lr=1e-3, patience=300, seed=1)
    params, hist = fit("vanilla", init_vanilla(cfg, seed=3), cfg, samples, config)
    assert mse_loss(params, cfg, samples) < 1e-4
    assert hist[-1]["train_loss"] < hist[0]["train_loss"]
