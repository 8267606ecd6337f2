"""Parameter layout and init, inner-product composition, probabilistic heads, ensembles."""

import functools
import hashlib
import sys
import threading
import time
import weakref
from collections.abc import Sequence

import numpy as np
import pytest

from gridonet import deeponet, mlp
from gridonet.deeponet import DeepOnetConfig, NumericError, forward_batch, init, layout, predict

CFG = DeepOnetConfig(m=10, q=6, width=8, depth=2)
# the fewest rows from which a pass at CFG's width uses the worker thread
ROWS = -(-deeponet._WORKER_SIZE // CFG.width ** 2)


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


class Lazy(Sequence):
    """n members, member i made by make(i) each time it is indexed, as a
    reader of checkpoints would; `reads` records each read's (index, thread).
    predict may not iterate it."""

    def __init__(self, make, n: int):
        self.make, self.n, self.reads = make, n, []

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        self.reads.append((i, threading.get_ident()))
        return self.make(i)

    def __iter__(self):
        raise AssertionError("predict iterated its members")


def lazy(members: list) -> Lazy:
    """A Lazy over the members of a list."""
    return Lazy(members.__getitem__, len(members))


def test_members_may_be_any_sequence_read_when_indexed():
    """A sequence that makes each member when indexed gives the bits of the
    same members in a list."""
    members = [init(CFG, "vanilla", s) for s in range(4)]
    rng = np.random.default_rng(21)
    U = rng.uniform(0.8, 1.1, (3, 10))
    ys = np.linspace(2.1, 9.0, 11)
    want = predict(members, CFG, U, ys)
    got = predict(Lazy(lambda i: init(CFG, "vanilla", i), 4), CFG, U, ys)
    for w, g in zip(want, got):
        assert w.tobytes() == g.tobytes()
    one = predict(lazy(members[:1]), CFG, U, ys)
    assert one[0].tobytes() == curve(members[0], U, ys).tobytes() and one[1] is None


@pytest.mark.parametrize("kind, name", [("prob", "tau_o_ls"), ("vanilla", "t_out_b")])
def test_predict_names_the_member_with_non_finite_curves(kind, name):
    """The check reads each member's raw curves: an inf log-sigma bias, which
    the clamp would turn into a finite sigma, fails; an inf in a trunk head,
    which makes inf - inf in the final product, fails without a warning."""
    members = [init(CFG, kind, s) for s in ((1,) if kind == "prob" else (1, 2, 3))]
    members[-1][name].flat[0] = np.inf
    with pytest.raises(NumericError, match=f"^member {len(members) - 1} gives non-finite values$"):
        predict(members, CFG, np.ones((2, 10)), [2.5, 3.0])


def record_lanes(monkeypatch, meet: bool) -> list:
    """Patch deeponet._curves to record the thread of each call. With meet,
    the first two calls wait for each other (10 s at most), so a predict on
    two lanes scores members on both, and one on one lane fails."""
    threads, barrier, curves = [], threading.Barrier(2, timeout=10.0), deeponet._curves

    def recording(*args):
        threads.append(threading.get_ident())
        if meet and len(threads) <= 2:
            barrier.wait()
        return curves(*args)

    monkeypatch.setattr(deeponet, "_curves", recording)
    return threads


def lane_case(n: int, k: int):
    """Seven vanilla members, n input rows and k query times."""
    U = np.random.default_rng(50).uniform(0.8, 1.1, (n, 10))
    return [init(CFG, "vanilla", s) for s in range(7)], U, np.linspace(2.1, 9.0, k)


def alone(members, U, ys):
    """The ensemble's (mean, std) bytes from each member scored by itself."""
    stack = np.stack([predict([p], CFG, U, ys)[0] for p in members])
    return [stack.mean(axis=0).tobytes(), stack.std(axis=0, ddof=1).tobytes()]


@pytest.mark.parametrize("n, k", [(1, ROWS), (ROWS, 1)], ids=["queries", "inputs"])
def test_members_are_scored_on_two_lanes_from_the_row_constant(monkeypatch, n, k):
    threads = record_lanes(monkeypatch, meet=True)
    members, U, ys = lane_case(n, k)
    predict(members, CFG, U, ys)
    assert len(threads) == 7 and len(set(threads)) == 2 and threading.get_ident() in threads


@pytest.mark.parametrize("n, k", [(1, ROWS - 1), (ROWS - 1, 1)], ids=["queries", "inputs"])
def test_a_pass_below_the_row_constant_stays_on_the_caller(monkeypatch, n, k):
    threads = record_lanes(monkeypatch, meet=False)
    members, U, ys = lane_case(n, k)
    predict(members, CFG, U, ys)
    assert threads == [threading.get_ident()] * 7


def test_lanes_give_the_bytes_of_each_member_scored_alone():
    members, U, ys = lane_case(3, ROWS)
    want = alone(members, U, ys)
    for given in (members, lazy(members)):
        assert [a.tobytes() for a in predict(given, CFG, U, ys)] == want


def test_an_error_reading_a_member_propagates_and_the_next_predict_works(monkeypatch):
    record_lanes(monkeypatch, meet=True)
    members, U, ys = lane_case(1, ROWS)

    def read(i):
        if i == 3:
            raise OSError("member 3 is unreadable")
        return members[i]

    with pytest.raises(OSError, match="^member 3 is unreadable$"):
        predict(Lazy(read, len(members)), CFG, U, ys)
    monkeypatch.undo()
    assert [a.tobytes() for a in predict(members, CFG, U, ys)] == alone(members, U, ys)


def test_no_lane_takes_an_index_after_an_error():
    """Below the worker size the two lanes run one after the other on the
    caller: the first stops at the failed read, and the second reads none."""
    members, U, ys = lane_case(1, ROWS - 1)

    def read(i):
        if i == 3:
            raise OSError("member 3 is unreadable")
        return members[i]

    given = Lazy(read, len(members))
    with pytest.raises(OSError, match="^member 3 is unreadable$"):
        predict(given, CFG, U, ys)
    assert given.reads == [(i, threading.get_ident()) for i in range(4)]


def test_predict_indexes_each_member_once_on_the_lane_that_scores_it(monkeypatch):
    """Seven members in a pass that uses the worker: each index is read once,
    on the thread that scores it, and both threads read; the sequence is
    never iterated. A lone net's one member is read on the caller."""
    threads = record_lanes(monkeypatch, meet=True)
    members, U, ys = lane_case(1, ROWS)
    given = lazy(members)
    predict(given, CFG, U, ys)
    assert sorted(i for i, _ in given.reads) == list(range(7))
    assert sorted(t for _, t in given.reads) == sorted(threads) and len(set(threads)) == 2
    monkeypatch.undo()
    lone = lazy(members[:1])
    predict(lone, CFG, U, ys)
    assert lone.reads == [(0, threading.get_ident())]


def test_a_read_error_on_the_worker_is_raised_in_index_order():
    """The worker's first read fails as a checkpoint of the wrong layout
    would, while the caller's first read waits for it; the caller's reads
    past that index fail too. Whichever lane took the lower index, the
    error raised is the worker's, the one a loop over the members meets
    first."""
    members, U, ys = lane_case(1, ROWS)
    caller, failed_at, worker_read = threading.get_ident(), [], threading.Event()

    def read(i):
        if threading.get_ident() != caller:
            failed_at.append(i)
            worker_read.set()
            raise ValueError(f"member {i} does not hold a vanilla net")
        assert worker_read.wait(10.0)
        if i > failed_at[0]:
            raise ValueError(f"member {i} does not hold a vanilla net")
        return members[i]

    with pytest.raises(ValueError) as err:
        predict(Lazy(read, len(members)), CFG, U, ys)
    assert failed_at and str(err.value) == f"member {failed_at[0]} does not hold a vanilla net"


def test_the_error_of_the_lowest_member_wins(monkeypatch):
    """Member 2 cannot be scored (it has no trunk head), and its lane fails
    only after the read of member 4 has failed on the other lane: the error
    raised is the one a loop over the members meets first."""
    members, U, ys = lane_case(1, ROWS)
    del members[2]["t_out_w"]
    raised, curves = threading.Event(), deeponet._curves

    def late(params, *args):
        if "t_out_w" not in params:
            assert raised.wait(10.0)
        return curves(params, *args)

    def read(i):
        if i == 4:
            raised.set()
            raise OSError("member 4 is unreadable")
        return members[i]

    monkeypatch.setattr(deeponet, "_curves", late)
    with pytest.raises(KeyError, match="t_out_w"):
        predict(Lazy(read, len(members)), CFG, U, ys)
    assert raised.is_set()


def test_a_bad_member_scored_on_the_worker_is_named(monkeypatch):
    record_lanes(monkeypatch, meet=True)
    members, U, ys = lane_case(1, ROWS)
    caller, bad = threading.get_ident(), []

    def read(i):
        if not bad and threading.get_ident() != caller:
            members[i]["t_out_b"] = np.full_like(members[i]["t_out_b"], np.inf)
            bad.append(i)
        return members[i]

    with pytest.raises(NumericError) as err:
        predict(Lazy(read, len(members)), CFG, U, ys)
    assert len(bad) == 1 and str(err.value) == f"member {bad[0]} gives non-finite values"


def test_an_overflow_on_the_worker_is_named_without_a_warning(monkeypatch):
    """A member whose trunk overflows on the worker's lane raises the
    NumericError that names it, not a RuntimeWarning (an error under
    pyproject's filters, on the worker too): the lane runs in a copy of the
    caller's context, which holds predict's error state."""
    record_lanes(monkeypatch, meet=True)
    members, U, ys = lane_case(1, ROWS)
    caller, bad = threading.get_ident(), []

    def read(i):
        if not bad and threading.get_ident() != caller:
            members[i]["t_u_w"] = members[i]["t_u_w"] * 1e308
            bad.append(i)
        return members[i]

    with pytest.raises(NumericError) as err:
        predict(Lazy(read, len(members)), CFG, U, ys)
    assert len(bad) == 1 and str(err.value) == f"member {bad[0]} gives non-finite values"


@pytest.mark.parametrize("kind", ["vanilla", "prob"])
def test_a_lone_net_is_scored_on_the_caller(monkeypatch, kind):
    """One net over 500 query rows, a pass that two members would share with
    the worker, runs on the caller alone and gives the bytes of its curve."""
    cfg = DeepOnetConfig()
    params = init(cfg, kind, 0)
    u, ys = np.linspace(0.8, 1.1, cfg.m), np.linspace(2.1, 9.0, 500)
    assert 500 * cfg.width ** 2 >= deeponet._WORKER_SIZE
    want = [None if a is None else a.tobytes() for a in predict(lazy([params]), cfg, u, ys)]

    class NoWorker:
        def submit(self, *args):
            raise AssertionError("a lone net was handed to the worker")

    monkeypatch.setattr(deeponet, "_worker", NoWorker())
    for given in ([params], lazy([params])):
        got = predict(given, cfg, u, ys)
        assert [None if a is None else a.tobytes() for a in got] == want


@pytest.mark.parametrize("kind, n", [("vanilla", 7), ("vanilla", 1), ("prob", 1)],
                         ids=["ensemble", "vanilla", "prob"])
def test_a_kept_trunk_basis_gives_the_bytes_of_the_trunk_pass(monkeypatch, kind, n):
    """Members that come with a function hand it their trunk's (heads, k, q)
    values; given back as arrays, the members run only their branches. Both
    give the bytes of the same members alone: an ensemble scored on both
    lanes, and a lone net of each kind on the caller. A basis of other query
    times or another head count is refused."""
    members = [init(CFG, kind, s) for s in range(n)]
    U, ys = np.random.default_rng(51).uniform(0.8, 1.1, (3, 10)), np.linspace(2.1, 9.0, ROWS)
    want = [None if a is None else a.tobytes() for a in predict(members, CFG, U, ys)]
    kept = {}
    cold = predict([(p, functools.partial(kept.__setitem__, i)) for i, p in enumerate(members)],
                   CFG, U, ys)
    bases = [kept[i] for i in range(n)]
    assert {b.shape for b in bases} == {(2 if kind == "prob" else 1, ROWS, CFG.q)}
    threads, trunk = record_lanes(monkeypatch, meet=n > 1), []
    half = deeponet._forward_half
    monkeypatch.setattr(deeponet, "_forward_half", lambda *a: trunk.append(a[3]) or half(*a))
    warm = predict(list(zip(members, bases)), CFG, U, ys)
    assert len(set(threads)) == min(n, 2) and set(trunk) == {"b_"}
    for got in (cold, warm):
        assert [None if a is None else a.tobytes() for a in got] == want
    for basis in (bases[0][:, :5], np.concatenate([bases[0]] * 2)[:1 if kind == "prob" else 2]):
        with pytest.raises(ValueError, match=r"^a basis of shape \(\d, \d+, 6\) does not fit"):
            predict([(members[0], basis)], CFG, U, ys)


def test_a_lane_holds_one_member_at_a_time(monkeypatch):
    """Members made as they are indexed: at most two (one per lane) are
    alive when the next is made."""
    record_lanes(monkeypatch, meet=True)
    refs, alive = [], []

    def tracked(i):
        params = init(CFG, "vanilla", i)
        refs.append([weakref.ref(a) for a in params.values()])
        alive.append(sum(any(r() is not None for r in member) for member in refs))
        return params

    _, U, ys = lane_case(1, ROWS)
    predict(Lazy(tracked, 8), CFG, U, ys)
    assert len(refs) == 8 and max(alive) <= 2, alive


def test_callers_on_four_threads_share_the_worker_and_get_the_bytes_of_one_lane():
    """More threads than cores, switching every microsecond, from a sequence
    that gives up the interpreter lock before each read: a member lost,
    scored twice or filed out of order would move the mean or the std."""
    members, U, ys = lane_case(2, ROWS)
    want, got = alone(members, U, ys), []

    def read(i):
        time.sleep(0)
        return members[i]

    def reads():
        for _ in range(5):
            got.append([a.tobytes() for a in predict(Lazy(read, len(members)), CFG, U, ys)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=reads) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 20
