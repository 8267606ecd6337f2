"""Sampler checks: potential arithmetic against hand values and loops, exact
minibatch unbiasedness by subset enumeration, the update order of the chain,
the chain against a serial loop with its draws on the caller, the draw
thread's lifetime on every way out of the chain, injected-noise statistics
recovered from positions alone, and a conjugate Gaussian posterior with a
closed form."""

import hashlib
import itertools
import math
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest

from gridonet import sghmc
from gridonet.deeponet import DeepOnetConfig, init
from gridonet.sghmc import (
    BayesConfig,
    SamplerError,
    gaussian_potential,
    grad_potential,
    potential_energy,
    sghmc_chain,
    sghmc_run,
)

CFG = DeepOnetConfig(m=4, q=2, width=3, depth=2)


def unit_bc(**kw):
    base = dict(sigma_l=1.0, prior_lambda=1.0, n_outer=10, burn_in=0,
                thinning=1, m_ensemble=1, m_inner=1)
    base.update(kw)
    return BayesConfig(**base)


def make_batch(rng, n, m=CFG.m):
    """n random (U, Y, G) rows."""
    return rng.uniform(0.8, 1.1, (n, m)), rng.uniform(2, 9, (n, 1)), rng.uniform(0.7, 1.0, (n, 1))


def test_potential_hand_values():
    bc = unit_bc()
    # one zero residual, one zero parameter: both normalizers contribute
    u = gaussian_potential(np.array([0.0]), np.array([0.0]), bc)
    assert abs(u - math.log(2.0 * math.pi)) < 1e-12
    u = gaussian_potential(np.array([1.0]), np.array([0.0]), bc)
    assert abs(u - (0.5 + math.log(2.0 * math.pi))) < 1e-12


def test_potential_lambda_doubling():
    theta = np.array([2.0])
    r = np.array([0.3, -0.4])
    a = gaussian_potential(r, theta, unit_bc())
    b = gaussian_potential(r, theta, unit_bc(prior_lambda=2.0))
    # quadratic term grows by theta^2/2, normalizer drops by (p/2) log 2
    expected = 0.5 * 4.0 - 0.5 * math.log(2.0)
    assert abs((b - a) - expected) < 1e-12


def test_potential_matches_scalar_loop():
    rng = np.random.default_rng(2)
    r = rng.standard_normal(50)
    theta = rng.standard_normal(20)
    bc = unit_bc(sigma_l=0.3, prior_lambda=2.5)
    acc = 0.0
    for ri in r:
        acc += ri * ri / (2 * 0.3**2) + 0.5 * math.log(2 * math.pi * 0.3**2)
    for ti in theta:
        acc += 2.5 * ti * ti / 2 + 0.5 * math.log(2 * math.pi / 2.5)
    assert abs(gaussian_potential(r, theta, bc) - acc) < 1e-10 * abs(acc)


def test_full_batch_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = init(CFG, "vanilla", seed=4)
    data = make_batch(rng, 6)
    bc = unit_bc(sigma_l=0.1, prior_lambda=0.7)
    grads = grad_potential(params, CFG, data, np.arange(6), bc)
    h = 1e-6
    for name in ("tau_o", "b_out_w", "t_u_w", "b_z1_b"):
        flat_idx = rng.integers(params[name].size)
        ij = np.unravel_index(flat_idx, params[name].shape)

        def u_at(v):
            p = {k: a.copy() for k, a in params.items()}
            p[name][ij] = v
            return potential_energy(p, CFG, data, bc)

        x = params[name][ij]
        fd = (u_at(x + h) - u_at(x - h)) / (2 * h)
        g = grads[name][ij]
        assert abs(g - fd) < 1e-5 * max(1.0, abs(fd)), name


def test_grad_zero_params_hand_value():
    # all-zero network predicts tau_o = 0, so the likelihood gradient in
    # tau_o is scale * sum(-G) / sigma^2 and the prior contributes nothing
    rng = np.random.default_rng(5)
    data = make_batch(rng, 5)
    params = {k: np.zeros_like(v) for k, v in init(CFG, "vanilla", seed=0).items()}
    bc = unit_bc(sigma_l=0.2)
    grads = grad_potential(params, CFG, data, np.arange(5), bc)
    expected = -data[2].sum() / 0.2**2
    assert abs(grads["tau_o"].item() - expected) < 1e-10 * abs(expected)


def test_returned_gradients_are_not_overwritten_by_the_next_call():
    rng = np.random.default_rng(8)
    params = init(CFG, "vanilla", seed=9)
    data = make_batch(rng, 6)
    bc = unit_bc(sigma_l=0.2)
    first = grad_potential(params, CFG, data, [0, 1, 2], bc)
    kept = {k: v.copy() for k, v in first.items()}
    second = grad_potential(params, CFG, data, [3, 4, 5], bc)
    for name in kept:
        assert np.array_equal(first[name], kept[name]), name
    assert any(not np.array_equal(first[k], second[k]) for k in kept)


@pytest.mark.parametrize("rows", [[0, 99], [-1, 0]], ids=["past-the-end", "negative"])
def test_rows_outside_the_data_raise(rows):
    """A row index outside the 3 data rows is not clamped to an edge row."""
    params = init(CFG, "vanilla", seed=9)
    data = make_batch(np.random.default_rng(8), 3)
    with pytest.raises(IndexError):
        grad_potential(params, CFG, data, rows, unit_bc())


def test_minibatch_gradient_is_unbiased():
    # averaging the rescaled estimator over every size-3 subset of 6 points
    # reproduces the full-batch likelihood gradient exactly
    rng = np.random.default_rng(6)
    params = init(CFG, "vanilla", seed=7)
    data = make_batch(rng, 6)
    bc = unit_bc(sigma_l=0.15, prior_lambda=0.9)
    full = grad_potential(params, CFG, data, np.arange(6), bc)
    subsets = list(itertools.combinations(range(6), 3))
    acc = {k: np.zeros_like(v) for k, v in full.items()}
    for s in subsets:
        g = grad_potential(params, CFG, data, np.array(s), bc)
        for k in acc:
            acc[k] += g[k] / len(subsets)
    # the prior term appears once per estimate, unscaled, so it averages out
    for k in full:
        assert np.allclose(acc[k], full[k], rtol=1e-10, atol=1e-12), k


def test_chain_update_order_and_drift():
    # with a zero gradient and zero friction the inner loop is pure drift:
    # theta_m = theta_0 + m * eps * r_0, and the gradient must be evaluated
    # at the freshly moved position
    bc = unit_bc(eps_t=0.01, c=0.0, b_hat=0.0, m_inner=3, n_outer=1, m_ensemble=1, seed=9)
    theta0 = np.array([1.0, -2.0, 0.5])
    seen = []

    def grad_fn(theta, batch):
        seen.append(theta.copy())
        return np.zeros_like(theta)

    members, _ = sghmc_chain(grad_fn, theta0, bc)
    r0 = np.random.default_rng([9, 3]).standard_normal(3)
    assert np.array_equal(seen[0], theta0 + 0.01 * r0)
    assert np.allclose(members[0], theta0 + 3 * 0.01 * r0, rtol=0, atol=1e-15)


def test_injected_noise_statistics():
    # positions alone determine the momenta when the gradient is zero:
    # r_i = (theta_{i+1} - theta_i) / eps, so the injected noise is
    # n = r_1 - (1 - eps C) r_0 and must have variance 2 (C - B_hat) eps
    eps, C = 0.01, 0.3
    p = 20000
    bc = unit_bc(eps_t=eps, c=C, b_hat=0.0, m_inner=4, n_outer=1, m_ensemble=1, seed=17)
    positions = [np.zeros(p)]  # theta_0; grad_fn sees theta_1 .. theta_{m-1}

    def grad_fn(theta, batch):
        positions.append(theta.copy())
        return np.zeros_like(theta)

    members, _ = sghmc_chain(grad_fn, positions[0], bc)
    positions.append(members[0])  # theta_m: the last step evaluates no gradient
    r_mom = [(b - a) / eps for a, b in zip(positions[:-1], positions[1:])]
    target = 2.0 * C * eps
    assert len(r_mom) == 4
    for r_prev, r_next in zip(r_mom[:-1], r_mom[1:]):
        noise = r_next - (1.0 - eps * C) * r_prev
        assert abs(noise.mean()) < 4.0 * noise.std() / math.sqrt(p)
        assert abs(noise.var() - target) < 4.0 * target * math.sqrt(2.0 / p)


def test_chain_retention_and_trace(monkeypatch):
    monkeypatch.setattr(sghmc, "TRACE_EVERY", 4)
    bc = unit_bc(n_outer=10, burn_in=4, thinning=2, m_ensemble=2, m_inner=1, seed=1)
    positions = []

    def grad_fn(theta, batch):
        return np.zeros_like(theta)

    members, trace = sghmc_chain(grad_fn, np.zeros(2), bc,
                                 diag_fn=lambda th: positions.append(th.copy()) or 0.0)
    # retained at outers 6, 8, 10; the last M=2 survive
    assert len(members) == 2
    assert sorted(trace) == [4, 8, 10]
    # diag_fn ran at outers 4, 8 and 10: the members are the positions at 8 and 10
    assert np.array_equal(members[0], positions[1]) and np.array_equal(members[1], positions[2])
    assert not np.array_equal(positions[1], positions[2])
    # keep runs at outers 8 and 10 only, in order: once after the trace at 4,
    # once after the one at 8, at the positions traced there; it returns its results
    traced, seen = [], []

    def keep(theta):
        seen.append((len(traced), theta.copy()))
        return len(seen)

    kept, _ = sghmc_chain(grad_fn, np.zeros(2), bc, keep=keep,
                          diag_fn=lambda th: traced.append(th.copy()) or 0.0)
    assert kept == [1, 2]
    assert [n for n, _ in seen] == [1, 2]
    assert all(np.array_equal(th, traced[n]) for n, th in seen)
    assert np.array_equal(seen[0][1], positions[1])


def test_chain_divergence_raises():
    bc = unit_bc(eps_t=1.0, c=0.0, m_inner=5, n_outer=10, m_ensemble=1, seed=2)

    def grad_fn(theta, batch):
        return -1e10 * theta  # runaway anti-restoring force

    with pytest.raises(SamplerError, match=r"^non-finite state at outer iteration \d+$"):
        sghmc_chain(grad_fn, np.ones(3), bc)


def serial_chain(grad_fn, theta0, bc, draw=lambda rng: None, diag_fn=None, keep=np.copy):
    """The chain as one loop, every draw made on the caller and a gradient
    evaluated at every inner step, that keeps the last M positions in a deque
    and hands them to keep at the end: the reference for `sghmc_chain`."""
    rng = np.random.default_rng([bc.seed, 3])
    theta = np.asarray(theta0, dtype=float).copy()
    r, step, drag = (np.empty_like(theta) for _ in range(3))
    eps = bc.eps_t
    noise_std = np.sqrt(2.0 * (bc.c - bc.b_hat) * eps)
    retained = deque(maxlen=bc.m_ensemble)
    trace = {}
    for k in range(1, bc.n_outer + 1):
        rng.standard_normal(out=r)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(bc.m_inner):
                theta += np.multiply(r, eps, out=step)
                g = grad_fn(theta, draw(rng))
                np.multiply(g, eps, out=step)
                np.multiply(r, eps * bc.c, out=drag)
                r -= step
                r -= drag
                if noise_std > 0.0:
                    r += np.multiply(rng.standard_normal(out=step), noise_std, out=step)
        if not np.all(np.isfinite(theta)):
            raise SamplerError(f"non-finite state at outer iteration {k}")
        if k > bc.burn_in and (k - bc.burn_in) % bc.thinning == 0:
            retained.append(theta.copy())
        if diag_fn is not None and (k % sghmc.TRACE_EVERY == 0 or k == bc.n_outer):
            trace[k] = diag_fn(theta)
    return [keep(th) for th in retained], trace


# a quadratic potential over 7 data rows of 6 values: its minibatch gradient
# depends on the batch, so a batch handed to the wrong step moves the members
ROWS = np.random.default_rng(30).standard_normal((7, 6))


def draw_rows(rng):
    return rng.permutation(len(ROWS))[:3]


def recording_grad(batches):
    def grad_fn(theta, batch):
        batches.append(batch.copy())
        return len(ROWS) / len(batch) * (len(batch) * theta - ROWS[batch].sum(0)) + theta
    return grad_fn


def run_both(bc):
    """(chain, oracle): each (members, trace, the batches grad_fn saw)."""
    runs = []
    for chain in (sghmc_chain, serial_chain):
        batches = []
        members, trace = chain(recording_grad(batches), np.linspace(-1, 1, 6), bc,
                               draw=draw_rows, diag_fn=lambda th: float(th @ th))
        runs.append((members, trace, batches))
    return runs


@pytest.mark.parametrize("kw", [
    dict(m_inner=1), dict(m_inner=2), dict(m_inner=4),
    dict(m_inner=3, c=2.0, b_hat=2.0),
    dict(m_inner=3, burn_in=3, thinning=2, m_ensemble=2),
], ids=["m1", "m2", "m4", "no-noise", "burn-in-thinning"])
def test_chain_matches_the_serial_loop(monkeypatch, kw):
    """Members and trace bit-equal the serial loop's; grad_fn gets the
    serial loop's batches, less each outer iteration's last, and runs
    n_outer x (m_inner - 1) times (never at m_inner = 1: a random walk)."""
    monkeypatch.setattr(sghmc, "TRACE_EVERY", 2)
    bc = unit_bc(**{**dict(eps_t=0.02, c=2.0, b_hat=0.5, n_outer=7, m_ensemble=3,
                           seed=11), **kw})
    (members, trace, batches), (want, want_trace, want_batches) = run_both(bc)
    assert len(members) == len(want) >= 2
    assert all(np.array_equal(a, b) for a, b in zip(members, want))
    assert trace == want_trace and sorted(trace) == [2, 4, 6, 7]
    live = [b for i, b in enumerate(want_batches) if i % bc.m_inner < bc.m_inner - 1]
    assert len(batches) == bc.n_outer * (bc.m_inner - 1) == len(live)
    assert all(np.array_equal(a, b) for a, b in zip(batches, live))


def test_chains_on_many_threads_with_a_short_switch_interval_match_the_serial_loop():
    """Three chains of 50,000 parameters at once (six threads on a two-core
    host), with the interpreter switching threads every microsecond: a draw
    written into a buffer that the chain still reads would move the members."""
    bc = unit_bc(eps_t=0.02, c=2.0, b_hat=0.5, n_outer=20, m_inner=3, m_ensemble=5, seed=12)

    def run(chain):
        return chain(lambda theta, batch: theta, np.zeros(50_000), bc, draw=draw_rows)[0]

    want, results = run(serial_chain), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(run(sghmc_chain)))
                   for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 3
    for members in results:
        assert len(members) == len(want) == 5
        assert all(np.array_equal(a, b) for a, b in zip(members, want))


def bounded(fn, timeout=60.0):
    """(result, error) of fn() run on a thread joined within timeout, so that
    a chain that deadlocks fails the test instead of hanging it."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as err:
            out["error"] = err

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "the chain did not return"
    return out.get("result"), out.get("error")


class Interrupt(BaseException):
    """An error that, like KeyboardInterrupt, is not an Exception."""


def numbered_draws(fail_at=None, error=None):
    """A draw that takes a permutation of the rows from rng but returns its
    own call number from 1, so a batch names its step: draw j is inner step
    (j - 1) % m_inner + 1 of outer iteration (j - 1) // m_inner + 1. Its
    call fail_at raises error instead."""
    calls = itertools.count(1)

    def draw(rng):
        rng.permutation(len(ROWS))
        time.sleep(0.002)  # the executor is most often mid-draw when the chain stops
        if (j := next(calls)) == fail_at:
            raise error(f"draw {j}")
        return j
    return draw


def grad_failing_at(fail_at, error=None):
    """A zero gradient, except that it raises error on the batch of draw
    fail_at, or is a runaway anti-restoring force if fail_at is "runaway"."""
    def grad_fn(theta, batch):
        if fail_at == "runaway":
            return -1e10 * theta
        if batch == fail_at:
            time.sleep(0.05)  # time for the executor to make the draws in flight
            raise error(f"gradient on draw {batch}")
        return np.zeros_like(theta)
    return grad_fn


def keep_failing_at(fail_at=None, error=None):
    """A sink that copies the position, except that its call fail_at raises
    error instead."""
    calls = itertools.count(1)

    def keep(theta):
        if (j := next(calls)) == fail_at:
            time.sleep(0.05)  # time for the executor to make the draws in flight
            raise error(f"keep {j}")
        return theta.copy()
    return keep


@pytest.mark.parametrize("m_inner, grad_at, draw_at, keep_at, exc", [
    (2, None, None, None, None), (5, "runaway", None, None, None),
    (2, 3, None, None, ValueError), (3, 5, None, None, ValueError),
    (3, None, 5, None, RuntimeError), (2, None, 2, None, RuntimeError),
    (2, 1, 2, None, ValueError), (3, 5, None, None, Interrupt), (3, None, 5, None, Interrupt),
    (2, None, 2, None, Interrupt), (2, None, None, 2, OSError), (2, None, None, 2, Interrupt),
], ids=["return", "sampler-error", "grad-raises-m2", "grad-raises-m3", "draw-raises",
        "last-step-draw-raises", "grad-raises-before-a-failing-draw", "grad-interrupts",
        "draw-interrupts", "last-step-draw-interrupts", "keep-raises", "keep-interrupts"])
def test_no_draw_thread_outlives_the_chain(m_inner, grad_at, draw_at, keep_at, exc):
    """On every way out, the chain returns or raises what the serial loop
    does, and no thread it started is left running. The failing gradient,
    draw or sink raises exc, an Exception or not; the failing gradients fail
    at a middle step (outer iteration 2), which both loops evaluate, and the
    failing sink at the second of the three members (outer iteration 9)."""
    bc = unit_bc(eps_t=1.0 if grad_at == "runaway" else 0.01, m_inner=m_inner, n_outer=10,
                 m_ensemble=3, seed=13)
    runs = []
    for chain in (serial_chain, sghmc_chain):
        baseline = threading.active_count()
        runs.append(bounded(lambda: chain(grad_failing_at(grad_at, exc), np.ones(3), bc,
                                          draw=numbered_draws(draw_at, exc),
                                          keep=keep_failing_at(keep_at, exc))))
        assert threading.active_count() == baseline
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("gridonet-sghmc-draws")]
    (want, want_error), (got, error) = runs
    assert (type(error), str(error)) == (type(want_error), str(want_error))
    assert (error is None) == (grad_at is None and draw_at is None and keep_at is None)
    if error is None:
        assert len(got[0]) == len(want[0]) == 3
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))


def test_config_validation():
    with pytest.raises(ValueError):
        unit_bc(c=1.0, b_hat=2.0)  # friction must dominate the noise estimate
    with pytest.raises(ValueError):
        unit_bc(burn_in=10, n_outer=10)
    with pytest.raises(ValueError):
        unit_bc(n_outer=10, burn_in=0, thinning=1, m_ensemble=11)
    for bad in (0.0, np.nan, np.inf):
        for name in ("eps_t", "sigma_l", "prior_lambda"):
            with pytest.raises(ValueError):
                unit_bc(**{name: bad})
    for C in (np.nan, np.inf):
        with pytest.raises(ValueError):
            unit_bc(c=C)


def test_potential_of_empty_data_raises():
    empty = (np.empty((0, CFG.m)), np.empty((0, 1)), np.empty((0, 1)))
    with pytest.raises(ValueError, match="data must be non-empty"):
        potential_energy(init(CFG, "vanilla", 0), CFG, empty, unit_bc())


@pytest.mark.parametrize("sigma_l", [1e-300, 1e300])
def test_sigma_l_whose_square_leaves_the_floats_is_rejected(sigma_l):
    """sigma_l**2 would underflow to 0 (a division by zero in the gradient's
    scale) or overflow (Python's float ** raises OverflowError)."""
    with pytest.raises(ValueError, match="sigma_l squared must be finite and > 0"):
        unit_bc(sigma_l=sigma_l)


@pytest.mark.parametrize("prior_lambda", [1e-310, 5e-324])
def test_prior_lambda_whose_normaliser_overflows_is_rejected(prior_lambda):
    """A subnormal rate passes `finite and > 0`, but 2 pi / prior_lambda
    overflows to inf, and so would the potential's prior term."""
    with pytest.raises(ValueError, match="2 pi / prior_lambda must be finite"):
        unit_bc(prior_lambda=prior_lambda)


def test_run_is_deterministic():
    rng = np.random.default_rng(21)
    batch = make_batch(rng, 6)
    params = init(CFG, "vanilla", seed=3)
    bc = unit_bc(eps_t=1e-4, c=10.0, n_outer=6, burn_in=2, thinning=2, m_ensemble=2,
                 m_inner=3, batch_size=4, seed=5)
    a, trace_a = sghmc_run(params, CFG, batch, bc)
    b, trace_b = sghmc_run(params, CFG, batch, bc)
    assert len(a) == 2
    for ma, mb in zip(a, b):
        for k in ma:
            assert np.array_equal(ma[k], mb[k])
    assert trace_a == trace_b
    assert all(np.isfinite(v) for v in trace_a.values())


def test_run_bytes_are_pinned(monkeypatch):
    # members and trace of a 3-outer-iteration chain on minibatches of 5 of
    # 7 rows, with noise: any change to the gradient's or the update's
    # arithmetic, or to the draw order, moves the digest
    batch = make_batch(np.random.default_rng(22), 7)
    monkeypatch.setattr(sghmc, "TRACE_EVERY", 1)
    bc = unit_bc(sigma_l=0.1, prior_lambda=0.5, eps_t=1e-4, c=10.0, b_hat=1.0, n_outer=3,
                 burn_in=0, thinning=1, m_ensemble=3, m_inner=4, batch_size=5, seed=6)
    members, trace = sghmc_run(init(CFG, "vanilla", seed=8), CFG, batch, bc)
    h = hashlib.sha256()
    for member in members:
        for name, a in member.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(np.array([list(trace), list(trace.values())], dtype="<f8").tobytes())
    assert (len(members), sorted(trace)) == (3, [1, 2, 3])
    assert h.hexdigest() == "6bdfb5fff45c0ccff63229785fe024fc9858a6eec99ad99c0aae7d6247d361b1"


# conjugate Gaussian benchmark: data z_i ~ N(theta, sigma_l^2) with prior
# N(0, 1/lambda) gives a posterior with a closed form, so the chain's
# ensemble moments can be scored exactly. test_acceptance reuses these.

CONJ_SIGMA = 1.0
CONJ_LAMBDA = 1.0


def conjugate_data(n=20, seed=100):
    rng = np.random.default_rng(seed)
    return 0.7 + CONJ_SIGMA * rng.standard_normal(n)


def conjugate_posterior(z):
    prec = z.size / CONJ_SIGMA**2 + CONJ_LAMBDA
    var = 1.0 / prec
    return var * z.sum() / CONJ_SIGMA**2, var


def run_conjugate_chain(z, seed):
    bc = BayesConfig(
        sigma_l=CONJ_SIGMA, prior_lambda=CONJ_LAMBDA,
        eps_t=0.02, c=2.5, b_hat=0.0,
        m_inner=20, n_outer=3000, burn_in=1000, thinning=10, m_ensemble=200,
        batch_size=len(z), seed=seed,
    )
    zs = z.sum()
    n = z.size

    def grad_fn(theta, batch):
        return (n * theta - zs) / CONJ_SIGMA**2 + CONJ_LAMBDA * theta

    members, _ = sghmc_chain(grad_fn, np.zeros(1), bc)
    return np.array([m[0] for m in members])


def test_conjugate_gaussian_moments():
    z = conjugate_data()
    mean, var = conjugate_posterior(z)
    draws = run_conjugate_chain(z, seed=0)
    se = math.sqrt(var / draws.size)
    assert abs(draws.mean() - mean) < 3.0 * se
    assert abs(draws.var(ddof=1) - var) < 0.2 * var
