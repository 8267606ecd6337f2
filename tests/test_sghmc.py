"""Sampler checks: potential arithmetic against hand values and loops, exact
minibatch unbiasedness by subset enumeration, the update order of the chain,
injected-noise statistics recovered from positions alone, and a conjugate
Gaussian posterior with a closed form."""

import hashlib
import itertools
import math

import numpy as np
import pytest

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
                thinning=1, M=1, m_inner=1)
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
    bc = unit_bc(eps_t=0.01, C=0.0, B_hat=0.0, m_inner=3, n_outer=1, M=1, seed=9)
    theta0 = np.array([1.0, -2.0, 0.5])
    seen = []

    def grad_fn(theta, rng):
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
    bc = unit_bc(eps_t=eps, C=C, B_hat=0.0, m_inner=4, n_outer=1, M=1, seed=17)
    positions = [np.zeros(p)]  # theta_0; grad_fn sees theta_1 .. theta_m

    def grad_fn(theta, rng):
        positions.append(theta.copy())
        return np.zeros_like(theta)

    sghmc_chain(grad_fn, positions[0], bc)
    r_mom = [(b - a) / eps for a, b in zip(positions[:-1], positions[1:])]
    target = 2.0 * C * eps
    assert len(r_mom) == 4
    for r_prev, r_next in zip(r_mom[:-1], r_mom[1:]):
        noise = r_next - (1.0 - eps * C) * r_prev
        assert abs(noise.mean()) < 4.0 * noise.std() / math.sqrt(p)
        assert abs(noise.var() - target) < 4.0 * target * math.sqrt(2.0 / p)


def test_chain_retention_and_trace():
    bc = unit_bc(n_outer=10, burn_in=4, thinning=2, M=2, m_inner=1,
                 trace_every=4, seed=1)
    positions = []

    def grad_fn(theta, rng):
        return np.zeros_like(theta)

    members, trace = sghmc_chain(grad_fn, np.zeros(2), bc,
                                 diag_fn=lambda th: positions.append(th.copy()) or 0.0)
    # retained at outers 6, 8, 10; the last M=2 survive
    assert len(members) == 2
    assert sorted(trace) == [4, 8, 10]
    # diag_fn ran at outers 4, 8 and 10: the members are the positions at 8 and 10
    assert np.array_equal(members[0], positions[1]) and np.array_equal(members[1], positions[2])
    assert not np.array_equal(positions[1], positions[2])


def test_chain_divergence_raises():
    bc = unit_bc(eps_t=1.0, C=0.0, m_inner=5, n_outer=10, M=1, seed=2)

    def grad_fn(theta, rng):
        return -1e10 * theta  # runaway anti-restoring force

    with pytest.raises(SamplerError) as exc:
        sghmc_chain(grad_fn, np.ones(3), bc)
    assert exc.value.iteration is not None


def test_config_validation():
    with pytest.raises(ValueError):
        unit_bc(C=1.0, B_hat=2.0)  # friction must dominate the noise estimate
    with pytest.raises(ValueError):
        unit_bc(burn_in=10, n_outer=10)
    with pytest.raises(ValueError):
        unit_bc(n_outer=10, burn_in=0, thinning=1, M=11)
    for bad in (0.0, np.nan, np.inf):
        for name in ("eps_t", "sigma_l", "prior_lambda"):
            with pytest.raises(ValueError):
                unit_bc(**{name: bad})
    for C in (np.nan, np.inf):
        with pytest.raises(ValueError):
            unit_bc(C=C)


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
    bc = unit_bc(eps_t=1e-4, C=10.0, n_outer=6, burn_in=2, thinning=2, M=2,
                 m_inner=3, batch_size=4, seed=5)
    a, trace_a = sghmc_run(params, CFG, batch, bc)
    b, trace_b = sghmc_run(params, CFG, batch, bc)
    assert len(a) == 2
    for ma, mb in zip(a, b):
        for k in ma:
            assert np.array_equal(ma[k], mb[k])
    assert trace_a == trace_b
    assert all(np.isfinite(v) for v in trace_a.values())


def test_run_bytes_are_pinned():
    # members and trace of a 3-outer-iteration chain on minibatches of 5 of
    # 7 rows, with noise: any change to the gradient's or the update's
    # arithmetic, or to the draw order, moves the digest
    batch = make_batch(np.random.default_rng(22), 7)
    bc = unit_bc(sigma_l=0.1, prior_lambda=0.5, eps_t=1e-4, C=10.0, B_hat=1.0, n_outer=3,
                 burn_in=0, thinning=1, M=3, m_inner=4, batch_size=5, trace_every=1, seed=6)
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
        eps_t=0.02, C=2.5, B_hat=0.0,
        m_inner=20, n_outer=3000, burn_in=1000, thinning=10, M=200,
        batch_size=len(z), seed=seed,
    )
    zs = z.sum()
    n = z.size

    def grad_fn(theta, rng):
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
