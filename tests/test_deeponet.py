"""Parameter layout and init, inner-product composition, probabilistic heads, ensembles."""

import hashlib

import numpy as np
import pytest

from gridonet import mlp
from gridonet.deeponet import DeepOnetConfig, NumericError, forward_batch, init, layout, predict

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


def init_digest(params):
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("cfg", [CFG, DeepOnetConfig(m=20, q=3, width=5, depth=4)])
@pytest.mark.parametrize("kind", ["vanilla", "prob"])
def test_layout_names_init_in_checkpoint_order(cfg, kind):
    shapes = layout(cfg, kind)
    for seed in (0, 7):
        assert {k: v.shape for k, v in init(cfg, kind, seed).items()} == shapes
        assert list(init(cfg, kind, seed)) == list(shapes)
    heads = ["out"] if kind == "vanilla" else ["mu", "ls"]
    taus = ["tau_o"] if kind == "vanilla" else ["tau_o_mu", "tau_o_ls"]
    body = ["u_w", "u_b", "v_w", "v_b",
            *(f"z{l}_{p}" for l in range(1, cfg.depth + 1) for p in "wb"),
            *(f"{h}_{p}" for h in heads for p in "wb")]
    assert list(shapes) == [f"b_{n}" for n in body] + [f"t_{n}" for n in body] + taus


def test_layout_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind must be one of"):
        layout(CFG, "bayes")


@pytest.mark.parametrize("kind, digest", [
    # recorded from the separate vanilla and prob inits this one replaced
    ("vanilla", "f33c96fdad711edbc29cfe75629414428139f6f123b4c56b13404fe87bf00415"),
    ("prob", "2ff4a4d09cdfbb326f89c20c5c692b012499ddfd624d8e3982490ada7038354b"),
])
def test_init_bytes_pinned(kind, digest):
    assert init_digest(init(DeepOnetConfig(m=20, q=8, width=8, depth=2), kind, 0)) == digest


def test_init_latent_dims_agree():
    p = init(CFG, "vanilla", 0)
    assert p["b_out_w"].shape == (8, 6)
    assert p["t_out_w"].shape == (8, 6)
    assert p["tau_o"].shape == (1, 1)
    pp = init(CFG, "prob", 0)
    for k in ("b_mu_w", "b_ls_w", "t_mu_w", "t_ls_w"):
        assert pp[k].shape == (8, 6), k


def test_zero_branch_gives_tau_o():
    p = init(CFG, "vanilla", 1)
    p["b_out_w"] = np.zeros_like(p["b_out_w"])
    p["b_out_b"] = np.zeros_like(p["b_out_b"])
    p["tau_o"] = np.array([[0.37]])
    ys = np.linspace(2.1, 9.0, 13)
    out, std = predict([p], CFG, np.ones(10), ys)
    assert std is None  # one vanilla net has no spread
    assert np.max(np.abs(out - 0.37)) < 1e-14


def features(p, x, cfg, prefix):
    """One sub-net's output features for the rows of `x`."""
    return mlp.head(p, mlp.hidden(p, x, cfg, prefix), prefix)


def test_basis_selection_case():
    # branch output forced to e_1 -> prediction equals trunk feature phi_1(y)
    p = init(CFG, "vanilla", 2)
    p["b_out_w"] = np.zeros_like(p["b_out_w"])
    b = np.zeros((1, CFG.q))
    b[0, 0] = 1.0
    p["b_out_b"] = b
    p["tau_o"] = np.zeros((1, 1))
    ys = np.array([2.5, 4.0, 7.3])
    tfeat = features(p, ys.reshape(-1, 1), CFG.trunk, "t_")
    out = curve(p, np.ones(10), ys)
    assert np.max(np.abs(out - tfeat[:, 0])) < 1e-14


def test_predict_matches_scalar_loop():
    p = init(CFG, "vanilla", 3)
    rng = np.random.default_rng(4)
    u = rng.uniform(0.8, 1.1, 10)
    ys = rng.uniform(2.0, 9.0, 7)
    out = curve(p, u, ys)
    bfeat = features(p, u.reshape(1, -1), CFG.branch, "b_")[0]
    tfeat = features(p, ys.reshape(-1, 1), CFG.trunk, "t_")
    for j, y in enumerate(ys):
        s = 0.0
        for i in range(CFG.q):
            s += bfeat[i] * tfeat[j, i]
        assert abs(out[j] - (s + p["tau_o"][0, 0])) < 1e-12


def test_predict_rejects_bad_sensor_count_and_nonfinite():
    p = init(CFG, "vanilla", 5)
    with pytest.raises(ValueError):
        predict([p], CFG, np.ones(9), [2.5])
    with pytest.raises(NumericError):
        predict([p], CFG, np.full(10, np.nan), [2.5])


def test_forward_batch_agrees_with_predict():
    p = init(CFG, "vanilla", 6)
    rng = np.random.default_rng(7)
    U = rng.uniform(0.9, 1.05, (4, 10))
    Y = rng.uniform(2.0, 9.0, (4, 1))
    mu, log_sigma = forward_batch(p, CFG, U, Y)
    assert log_sigma is None
    batch = mu.ravel()
    single = np.array([curve(p, U[i], [Y[i, 0]])[0] for i in range(4)])
    assert np.max(np.abs(batch - single)) < 1e-12
    # a batched predict: row i is the curve of input row i alone
    ys = np.linspace(2.1, 9.0, 7)
    rows = curve(p, U, ys)
    assert rows.shape == (4, 7)
    assert max(np.max(np.abs(rows[i] - curve(p, U[i], ys))) for i in range(4)) < 1e-12


def test_branch_evaluated_once_per_input(monkeypatch):
    calls = {"branch": 0, "trunk": 0}
    orig = mlp.hidden

    def counting(params, x, cfg, prefix="", ws=None):
        calls["branch" if prefix == "b_" else "trunk"] += 1
        return orig(params, x, cfg, prefix, ws)

    monkeypatch.setattr(mlp, "hidden", counting)
    monkeypatch.setattr("gridonet.deeponet.hidden", counting)
    p = init(CFG, "vanilla", 8)
    predict([p], CFG, np.ones(10), np.linspace(2.1, 9.0, 50))
    assert calls == {"branch": 1, "trunk": 1}
    predict([init(CFG, "prob", 8)], CFG, np.ones(10), np.linspace(2.1, 9.0, 50))
    assert calls == {"branch": 2, "trunk": 2}
    mean, _ = predict([p], CFG, np.ones((5, 10)), np.linspace(2.1, 9.0, 50))
    assert mean.shape == (5, 50)
    assert calls == {"branch": 3, "trunk": 3}  # once per net, not once per input row


def test_linear_in_branch_output():
    p = init(CFG, "vanilla", 9)
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
    pp = init(CFG, "prob", 11)
    for k in ("b_ls_w", "b_ls_b", "t_ls_w", "t_ls_b", "tau_o_ls"):
        pp[k] = np.zeros_like(pp[k])
    _, sigma = predict([pp], CFG, np.ones(10), np.linspace(2.1, 9, 8))
    assert np.max(np.abs(sigma - 1.0)) < 1e-14


def test_prob_sigma_analytic_value():
    # force the log-sigma channel to the constant -2 through tau_o_ls
    pp = init(CFG, "prob", 12)
    for k in ("b_ls_w", "b_ls_b", "t_ls_w", "t_ls_b"):
        pp[k] = np.zeros_like(pp[k])
    pp["tau_o_ls"] = np.array([[-2.0]])
    _, sigma = predict([pp], CFG, np.ones(10), [3.0])
    assert abs(sigma[0] - np.exp(-2.0)) < 1e-14


def test_prob_mu_channel_equals_vanilla_on_mu_subparams():
    pp = init(CFG, "prob", 13)
    rng = np.random.default_rng(14)
    u = rng.uniform(0.9, 1.1, 10)
    ys = rng.uniform(2.1, 9.0, 6)
    mu, _ = predict([pp], CFG, u, ys)
    vanilla = curve(mu_subparams(pp), u, ys)
    assert np.max(np.abs(mu - vanilla)) < 1e-12


def test_prob_sigma_strictly_positive_and_clamped():
    pp = init(CFG, "prob", 15)
    pp["tau_o_ls"] = np.array([[500.0]])  # would overflow without the clamp
    _, sigma = predict([pp], CFG, np.ones(10), [2.5])
    assert sigma[0] == np.exp(3.0)
    pp["tau_o_ls"] = np.array([[-500.0]])
    _, sigma = predict([pp], CFG, np.ones(10), [2.5])
    assert sigma[0] == np.exp(-10.0)
    assert sigma[0] > 0


def test_prob_forward_batch_matches_predict():
    pp = init(CFG, "prob", 16)
    rng = np.random.default_rng(17)
    U = rng.uniform(0.9, 1.1, (3, 10))
    Y = rng.uniform(2.1, 9.0, (3, 1))
    mu_t, ls_t = forward_batch(pp, CFG, U, Y)
    for i in range(3):
        mu, sigma = predict([pp], CFG, U[i], [Y[i, 0]])
        assert abs(mu_t[i, 0] - mu[0]) < 1e-12
        assert abs(np.exp(ls_t[i, 0]) - sigma[0]) < 1e-12
    ys = np.linspace(2.1, 9.0, 7)
    mu_rows, sigma_rows = predict([pp], CFG, U, ys)
    assert mu_rows.shape == sigma_rows.shape == (3, 7)
    for i in range(3):
        mu, sigma = predict([pp], CFG, U[i], ys)
        assert np.max(np.abs(mu_rows[i] - mu)) < 1e-12
        assert np.max(np.abs(sigma_rows[i] - sigma)) < 1e-12


def test_ensemble_degenerate_and_two_point():
    p = init(CFG, "vanilla", 18)
    u = np.ones(10)
    ys = np.linspace(2.1, 9.0, 4)
    mean, std = predict([p, p, p], CFG, u, ys)
    assert np.allclose(mean, curve(p, u, ys), rtol=1e-15)
    assert np.max(std) < 1e-13  # identical members up to mean-rounding
    assert mean.shape == std.shape == (4,)

    # two members predicting constants 1 and 3: mean 2, std sqrt(2)
    p1 = init(CFG, "vanilla", 19)
    p2 = init(CFG, "vanilla", 19)
    for pi in (p1, p2):
        pi["b_out_w"] = np.zeros_like(pi["b_out_w"])
        pi["b_out_b"] = np.zeros_like(pi["b_out_b"])
    p1["tau_o"] = np.array([[1.0]])
    p2["tau_o"] = np.array([[3.0]])
    mean, std = predict([p1, p2], CFG, u, ys)
    assert np.allclose(mean, 2.0) and np.allclose(std, np.sqrt(2.0))


def test_ensemble_recomputation_and_permutation_invariance():
    members = [init(CFG, "vanilla", 20 + i) for i in range(16)]
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
    U = np.stack([u, *rng.uniform(0.9, 1.1, (3, 10))])
    mean_rows, std_rows = predict(members, CFG, U, ys)
    assert mean_rows.shape == std_rows.shape == (4, 5)
    for i in range(4):
        mean_i, std_i = predict(members, CFG, U[i], ys)
        assert np.max(np.abs(mean_rows[i] - mean_i)) < 1e-12
        assert np.max(np.abs(std_rows[i] - std_i)) < 1e-12


def test_predict_rejects_empty_and_prob_ensembles():
    for members in ([], [init(CFG, "prob", 0), init(CFG, "prob", 1)],
                    [init(CFG, "vanilla", 0), init(CFG, "prob", 1)]):
        with pytest.raises(ValueError):
            predict(members, CFG, np.ones(10), [2.5])


def test_members_may_be_any_iterable():
    """A generator of members gives the bits of the same members in a list."""
    members = [init(CFG, "vanilla", s) for s in range(4)]
    rng = np.random.default_rng(21)
    U = rng.uniform(0.8, 1.1, (3, 10))
    ys = np.linspace(2.1, 9.0, 11)
    want = predict(members, CFG, U, ys)
    got = predict((p for p in members), CFG, U, ys)
    for w, g in zip(want, got):
        assert w.tobytes() == g.tobytes()
    one = predict(iter(members[:1]), CFG, U, ys)
    assert one[0].tobytes() == curve(members[0], U, ys).tobytes() and one[1] is None
