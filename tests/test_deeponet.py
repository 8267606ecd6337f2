"""Inner-product composition, probabilistic heads, ensembles."""

import numpy as np
import pytest

from gridonet import mlp
from gridonet import tensor as T
from gridonet.deeponet import DeepOnetConfig, forward_batch, init_prob, init_vanilla, predict

CFG = DeepOnetConfig(m=10, q=6, width=8, depth=2)


def curve(params, u, ys):
    """The mean curve of one net."""
    return predict([params], CFG, u, ys)[0]


def mu_subparams(prob_params):
    """Vanilla-layout view of a prob net's mu channel (shares arrays)."""
    out = {k.replace("mu_w", "out_w").replace("mu_b", "out_b"): v
           for k, v in prob_params.items() if "_ls_" not in k and k != "tau_o_ls"}
    out["tau_o"] = out.pop("tau_o_mu")
    return out


def test_init_latent_dims_agree():
    p = init_vanilla(CFG, 0)
    assert p["b_out_w"].shape == (8, 6)
    assert p["t_out_w"].shape == (8, 6)
    assert p["tau_o"].shape == (1, 1)
    pp = init_prob(CFG, 0)
    for k in ("b_mu_w", "b_ls_w", "t_mu_w", "t_ls_w"):
        assert pp[k].shape == (8, 6), k


def test_zero_branch_gives_tau_o():
    p = init_vanilla(CFG, 1)
    p["b_out_w"] = np.zeros_like(p["b_out_w"])
    p["b_out_b"] = np.zeros_like(p["b_out_b"])
    p["tau_o"] = np.array([[0.37]])
    ys = np.linspace(2.1, 9.0, 13)
    out, std = predict([p], CFG, np.ones(10), ys)
    assert std is None  # one vanilla net has no spread
    assert np.max(np.abs(out - 0.37)) < 1e-14


def test_basis_selection_case():
    # branch output forced to e_1 -> prediction equals trunk feature phi_1(y)
    p = init_vanilla(CFG, 2)
    p["b_out_w"] = np.zeros_like(p["b_out_w"])
    b = np.zeros((1, CFG.q))
    b[0, 0] = 1.0
    p["b_out_b"] = b
    p["tau_o"] = np.zeros((1, 1))
    ys = np.array([2.5, 4.0, 7.3])
    tfeat = mlp.forward(p, T.Tensor(ys.reshape(-1, 1)), CFG.trunk, "t_").data
    out = curve(p, np.ones(10), ys)
    assert np.max(np.abs(out - tfeat[:, 0])) < 1e-14


def test_predict_matches_scalar_loop():
    p = init_vanilla(CFG, 3)
    rng = np.random.default_rng(4)
    u = rng.uniform(0.8, 1.1, 10)
    ys = rng.uniform(2.0, 9.0, 7)
    out = curve(p, u, ys)
    bfeat = mlp.forward(p, T.Tensor(u.reshape(1, -1)), CFG.branch, "b_").data[0]
    tfeat = mlp.forward(p, T.Tensor(ys.reshape(-1, 1)), CFG.trunk, "t_").data
    for j, y in enumerate(ys):
        s = 0.0
        for i in range(CFG.q):
            s += bfeat[i] * tfeat[j, i]
        assert abs(out[j] - (s + p["tau_o"][0, 0])) < 1e-12


def test_predict_rejects_bad_sensor_count_and_nonfinite():
    p = init_vanilla(CFG, 5)
    with pytest.raises(ValueError):
        predict([p], CFG, np.ones(9), [2.5])
    with pytest.raises(T.NumericError):
        predict([p], CFG, np.full(10, np.nan), [2.5])


def test_forward_batch_agrees_with_predict():
    p = init_vanilla(CFG, 6)
    rng = np.random.default_rng(7)
    U = rng.uniform(0.9, 1.05, (4, 10))
    Y = rng.uniform(2.0, 9.0, (4, 1))
    mu, log_sigma = forward_batch(p, CFG, T.Tensor(U), T.Tensor(Y))
    assert log_sigma is None
    batch = mu.data.ravel()
    single = np.array([curve(p, U[i], [Y[i, 0]])[0] for i in range(4)])
    assert np.max(np.abs(batch - single)) < 1e-12


def test_branch_evaluated_once_per_input(monkeypatch):
    calls = {"branch": 0, "trunk": 0}
    orig = mlp.hidden

    def counting(params, x, cfg, prefix=""):
        calls["branch" if prefix == "b_" else "trunk"] += 1
        return orig(params, x, cfg, prefix)

    monkeypatch.setattr(mlp, "hidden", counting)
    monkeypatch.setattr("gridonet.deeponet.hidden", counting)
    p = init_vanilla(CFG, 8)
    predict([p], CFG, np.ones(10), np.linspace(2.1, 9.0, 50))
    assert calls == {"branch": 1, "trunk": 1}
    predict([init_prob(CFG, 8)], CFG, np.ones(10), np.linspace(2.1, 9.0, 50))
    assert calls == {"branch": 2, "trunk": 2}


def test_linear_in_branch_output():
    p = init_vanilla(CFG, 9)
    p["tau_o"] = np.array([[0.25]])
    u = np.random.default_rng(10).uniform(0.9, 1.1, 10)
    ys = np.linspace(2.2, 8.8, 5)
    base = curve(p, u, ys) - 0.25
    scaled = dict(p)
    scaled["b_out_w"] = 3.0 * p["b_out_w"]
    scaled["b_out_b"] = 3.0 * p["b_out_b"]
    got = curve(scaled, u, ys) - 0.25
    assert np.max(np.abs(got - 3.0 * base)) < 1e-12


def test_prob_sigma_one_when_logsig_zeroed():
    pp = init_prob(CFG, 11)
    for k in ("b_ls_w", "b_ls_b", "t_ls_w", "t_ls_b", "tau_o_ls"):
        pp[k] = np.zeros_like(pp[k])
    _, sigma = predict([pp], CFG, np.ones(10), np.linspace(2.1, 9, 8))
    assert np.max(np.abs(sigma - 1.0)) < 1e-14


def test_prob_sigma_analytic_value():
    # force the log-sigma channel to the constant -2 through tau_o_ls
    pp = init_prob(CFG, 12)
    for k in ("b_ls_w", "b_ls_b", "t_ls_w", "t_ls_b"):
        pp[k] = np.zeros_like(pp[k])
    pp["tau_o_ls"] = np.array([[-2.0]])
    _, sigma = predict([pp], CFG, np.ones(10), [3.0])
    assert abs(sigma[0] - np.exp(-2.0)) < 1e-14


def test_prob_mu_channel_equals_vanilla_on_mu_subparams():
    pp = init_prob(CFG, 13)
    rng = np.random.default_rng(14)
    u = rng.uniform(0.9, 1.1, 10)
    ys = rng.uniform(2.1, 9.0, 6)
    mu, _ = predict([pp], CFG, u, ys)
    vanilla = curve(mu_subparams(pp), u, ys)
    assert np.max(np.abs(mu - vanilla)) < 1e-12


def test_prob_sigma_strictly_positive_and_clamped():
    pp = init_prob(CFG, 15)
    pp["tau_o_ls"] = np.array([[500.0]])  # would overflow without the clamp
    _, sigma = predict([pp], CFG, np.ones(10), [2.5])
    assert sigma[0] == np.exp(3.0)
    pp["tau_o_ls"] = np.array([[-500.0]])
    _, sigma = predict([pp], CFG, np.ones(10), [2.5])
    assert sigma[0] == np.exp(-10.0)
    assert sigma[0] > 0


def test_prob_forward_batch_matches_predict():
    pp = init_prob(CFG, 16)
    rng = np.random.default_rng(17)
    U = rng.uniform(0.9, 1.1, (3, 10))
    Y = rng.uniform(2.1, 9.0, (3, 1))
    mu_t, ls_t = forward_batch(pp, CFG, T.Tensor(U), T.Tensor(Y))
    for i in range(3):
        mu, sigma = predict([pp], CFG, U[i], [Y[i, 0]])
        assert abs(mu_t.data[i, 0] - mu[0]) < 1e-12
        assert abs(np.exp(ls_t.data[i, 0]) - sigma[0]) < 1e-12


def test_ensemble_degenerate_and_two_point():
    p = init_vanilla(CFG, 18)
    u = np.ones(10)
    ys = np.linspace(2.1, 9.0, 4)
    mean, std = predict([p, p, p], CFG, u, ys)
    assert np.allclose(mean, curve(p, u, ys), rtol=1e-15)
    assert np.max(std) < 1e-13  # identical members up to mean-rounding
    assert mean.shape == std.shape == (4,)

    # two members predicting constants 1 and 3: mean 2, std sqrt(2)
    p1 = init_vanilla(CFG, 19)
    p2 = init_vanilla(CFG, 19)
    for pi in (p1, p2):
        pi["b_out_w"] = np.zeros_like(pi["b_out_w"])
        pi["b_out_b"] = np.zeros_like(pi["b_out_b"])
    p1["tau_o"] = np.array([[1.0]])
    p2["tau_o"] = np.array([[3.0]])
    mean, std = predict([p1, p2], CFG, u, ys)
    assert np.allclose(mean, 2.0) and np.allclose(std, np.sqrt(2.0))


def test_ensemble_recomputation_and_permutation_invariance():
    members = [init_vanilla(CFG, 20 + i) for i in range(16)]
    rng = np.random.default_rng(40)
    u = rng.uniform(0.9, 1.1, 10)
    ys = rng.uniform(2.1, 9.0, 5)
    mean, std = predict(members, CFG, u, ys)
    # spreadsheet-style recomputation from each member's own curve
    matrix = np.stack([curve(p, u, ys) for p in members])
    want_mean = matrix.sum(axis=0) / 16
    want_var = ((matrix - want_mean) ** 2).sum(axis=0) / 15
    assert np.max(np.abs(mean - want_mean)) < 1e-12
    assert np.max(np.abs(std - np.sqrt(want_var))) < 1e-12
    perm = rng.permutation(16)
    mean_p, std_p = predict([members[i] for i in perm], CFG, u, ys)
    assert np.allclose(mean, mean_p, atol=1e-12) and np.allclose(std, std_p, atol=1e-12)


def test_predict_rejects_empty_and_prob_ensembles():
    for members in ([], [init_prob(CFG, 0), init_prob(CFG, 1)],
                    [init_vanilla(CFG, 0), init_prob(CFG, 1)]):
        with pytest.raises(ValueError):
            predict(members, CFG, np.ones(10), [2.5])
