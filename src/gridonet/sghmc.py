"""Posterior sampling for operator-network weights by SGHMC.

The chain simulates friction-damped Hamiltonian dynamics with minibatch
gradients and no Metropolis correction. One outer iteration resamples the
momentum and runs m_inner inner steps:

    theta_i = theta_{i-1} + eps * r_{i-1}
    r_i     = r_{i-1} - eps * grad_U(theta_i) - eps * C * r_{i-1}
                       + N(0, 2 (C - B_hat) eps)

with the gradient evaluated at the freshly updated position. The target
potential is the Gaussian-likelihood negative log posterior

    U(theta) = sum_i r_i^2 / (2 sigma_l^2) + (N/2) log(2 pi sigma_l^2)
             + (lambda/2) ||theta||^2 + (p/2) log(2 pi / lambda)

and the minibatch estimate rescales the likelihood term by |D| / |batch|,
leaving the prior term unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import flatten, unflatten
from .deeponet import DeepOnetConfig, forward_batch
from .train import _mse_graph, _watch_all, batch_arrays

__all__ = [
    "SamplerError",
    "BayesConfig",
    "gaussian_potential",
    "potential_energy",
    "grad_potential",
    "noisy_grad",
    "sghmc_chain",
    "sghmc_run",
]


class SamplerError(RuntimeError):
    def __init__(self, msg, iteration=None):
        super().__init__(msg)
        self.iteration = iteration


@dataclass(frozen=True)
class BayesConfig:
    sigma_l: float = 0.01  # likelihood noise scale, pu
    prior_lambda: float = 1.0
    eps_t: float = 1e-5
    C: float = 10.0  # friction, times identity
    B_hat: float = 0.0
    m_inner: int = 50
    n_outer: int = 2000
    burn_in: int = 1000
    thinning: int = 5
    M: int = 100
    batch_size: int = 256
    seed: int = 0
    trace_every: int = 20  # cadence of the potential-energy diagnostic trace

    def __post_init__(self):
        if not (self.C >= self.B_hat >= 0.0):
            raise ValueError(f"need C >= B_hat >= 0, got C={self.C}, B_hat={self.B_hat}")
        if self.eps_t <= 0 or self.sigma_l <= 0 or self.prior_lambda <= 0:
            raise ValueError("eps_t, sigma_l, prior_lambda must be positive")
        if self.m_inner < 1 or self.n_outer < 1 or self.thinning < 1 or self.batch_size < 1:
            raise ValueError("m_inner, n_outer, thinning, batch_size must be >= 1")
        if not (0 <= self.burn_in < self.n_outer):
            raise ValueError(f"need 0 <= burn_in < n_outer, got {self.burn_in}, {self.n_outer}")
        retained = (self.n_outer - self.burn_in) // self.thinning
        if not (1 <= self.M <= retained):
            raise ValueError(
                f"M={self.M} but the chain retains only {retained} post-burn-in samples"
            )


def gaussian_potential(residuals: np.ndarray, theta: np.ndarray, bc: BayesConfig) -> float:
    """Negative log posterior density (all constants included)."""
    r = np.asarray(residuals, dtype=float)
    th = np.asarray(theta, dtype=float)
    s2 = bc.sigma_l**2
    like = float(np.sum(r * r)) / (2.0 * s2) + 0.5 * r.size * np.log(2.0 * np.pi * s2)
    prior = 0.5 * bc.prior_lambda * float(np.sum(th * th)) + 0.5 * th.size * np.log(
        2.0 * np.pi / bc.prior_lambda
    )
    return like + prior


def potential_energy(params: dict, cfg: DeepOnetConfig, data, bc: BayesConfig) -> float:
    """U(theta) for an operator network over the full dataset."""
    U, Y, G = data if isinstance(data, tuple) else batch_arrays(data)
    if len(G) == 0:
        raise ValueError("data must be non-empty")
    pred = forward_batch(params, cfg, U, Y)[0].data
    _, theta = flatten(params)
    return gaussian_potential(pred - G, theta, bc)


def grad_potential(params: dict, cfg: DeepOnetConfig, U, Y, G, scale: float, bc: BayesConfig):
    """Gradient of the scaled likelihood term plus the (unscaled) prior."""
    tape, tracked = _watch_all(params)
    grads = tape.backward(_mse_graph(tracked, cfg, U, Y, G, scale / (2.0 * bc.sigma_l**2)))
    for name in grads:
        grads[name] = grads[name] + bc.prior_lambda * np.asarray(params[name], dtype=float)
    return grads


def noisy_grad(params: dict, cfg: DeepOnetConfig, data, idx, bc: BayesConfig):
    """Minibatch gradient estimate: likelihood rescaled by |D| / |batch|."""
    U, Y, G = data if isinstance(data, tuple) else batch_arrays(data)
    idx = np.asarray(idx)
    return grad_potential(params, cfg, U[idx], Y[idx], G[idx], len(G) / idx.size, bc)


def sghmc_chain(grad_fn, theta0: np.ndarray, bc: BayesConfig, diag_fn=None):
    """Run the sampler on a flat parameter vector.

    grad_fn(theta, rng) must return the noisy potential gradient, drawing any
    minibatch indices from rng. Returns (members, diag) where members are the
    last M retained post-burn-in positions (chronological order) and diag
    maps outer iteration -> diag_fn(theta) evaluated at trace_every cadence.
    """
    rng = np.random.default_rng([bc.seed, 3])
    theta = np.asarray(theta0, dtype=float).copy()
    p = theta.size
    eps = bc.eps_t
    noise_std = np.sqrt(2.0 * (bc.C - bc.B_hat) * eps)
    retained = []
    trace = {}
    for k in range(1, bc.n_outer + 1):
        r = rng.standard_normal(p)
        # divergence surfaces through the finiteness check, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(bc.m_inner):
                theta = theta + eps * r
                g = grad_fn(theta, rng)
                r = r - eps * g - (eps * bc.C) * r
                if noise_std > 0.0:
                    r = r + noise_std * rng.standard_normal(p)
        if not np.all(np.isfinite(theta)):
            raise SamplerError(f"non-finite state at outer iteration {k}", iteration=k)
        if k > bc.burn_in and (k - bc.burn_in) % bc.thinning == 0:
            retained.append(theta.copy())
        if diag_fn is not None and (k % bc.trace_every == 0 or k == bc.n_outer):
            trace[k] = diag_fn(theta)
    return retained[-bc.M :], trace


def sghmc_run(init_params: dict, cfg: DeepOnetConfig, samples, bc: BayesConfig):
    """Sample operator-network weights starting from a trained checkpoint.

    Returns (members, trace): M parameter dicts and the potential-energy
    trace over the chain.
    """
    data = batch_arrays(samples)
    n = len(data[2])
    layout, theta0 = flatten(init_params)
    b = min(bc.batch_size, n)

    def grad_fn(theta, rng):
        grads = noisy_grad(unflatten(layout, theta), cfg, data, rng.permutation(n)[:b], bc)
        return np.concatenate([grads[name].ravel() for name, _ in layout])

    def diag_fn(theta):
        return potential_energy(unflatten(layout, theta), cfg, data, bc)

    members_flat, trace = sghmc_chain(grad_fn, theta0, bc, diag_fn=diag_fn)
    return [unflatten(layout, th) for th in members_flat], trace
