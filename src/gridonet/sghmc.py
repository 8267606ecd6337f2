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

`sghmc_run` moves theta and r in place as flat vectors in checkpoint order.
Each inner step is one `grad_potential` call: the minibatch is gathered into
one workspace, the likelihood gradient is written there by deeponet's
explicit forward and backward, which run the branch and the trunk sub-nets
concurrently on two threads with the bytes of a serial pass, and the prior
term is added on the flat vector. The noise is drawn into a reused buffer.
Every op keeps the order of the update above, so the members do not depend
on these buffers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .checkpoint import flatten, unflatten
from .deeponet import DeepOnetConfig, Workspace, forward_batch, loss_and_grad

__all__ = [
    "SamplerError",
    "BayesConfig",
    "gaussian_potential",
    "potential_energy",
    "grad_potential",
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
        if not (np.inf > self.C >= self.B_hat >= 0.0):
            raise ValueError(f"need finite C >= B_hat >= 0, got C={self.C}, B_hat={self.B_hat}")
        for name in ("eps_t", "sigma_l", "prior_lambda"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (0.0 < self.sigma_l * self.sigma_l < np.inf):  # the likelihood's variance
            raise ValueError(f"sigma_l squared must be finite and > 0, got sigma_l={self.sigma_l}")
        if not (2.0 * np.pi * self.sigma_l**2 < np.inf):  # the likelihood's normaliser
            raise ValueError(f"2 pi sigma_l squared must be finite, got sigma_l={self.sigma_l}")
        if not (2.0 * np.pi / self.prior_lambda < np.inf):  # the prior's normaliser
            raise ValueError(
                f"2 pi / prior_lambda must be finite, got prior_lambda={self.prior_lambda}"
            )
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
    """U(theta) for a vanilla operator network over the full (U, Y, G) data."""
    U, Y, G = data
    if len(G) == 0:
        raise ValueError("data must be non-empty")
    pred = forward_batch(params, cfg, U, Y)[0]
    _, theta = flatten(params)
    return gaussian_potential(pred - G, theta, bc)


def grad_potential(params: dict, cfg: DeepOnetConfig, data, idx, bc: BayesConfig,
                   ws: Workspace | None = None):
    """Minibatch estimate of grad U over rows idx of the (U, Y, G) data: the
    likelihood term rescaled by |D| / |batch| plus the (unscaled) prior, for
    a vanilla net (squared residuals). The rows are gathered into ws and the
    gradient is written there; returned by name as views of ws's flat
    gradient (a fresh workspace's if ws is None)."""
    idx = np.asarray(idx)
    ws = ws or Workspace(cfg, params, idx.size)
    U, Y, G = ws.take(data, idx)
    loss_and_grad(params, cfg, U, Y, G, len(data[2]) / idx.size / (2.0 * bc.sigma_l**2), ws)
    for name, g in ws.grads.items():
        g += np.multiply(params[name], bc.prior_lambda, out=ws.scratch[name])
    return ws.grads


def sghmc_chain(grad_fn, theta0: np.ndarray, bc: BayesConfig, diag_fn=None):
    """Run the sampler on a flat parameter vector.

    grad_fn(theta, rng) must return the noisy potential gradient, drawing any
    minibatch indices from rng. Returns (members, diag) where members are the
    last M retained post-burn-in positions (chronological order) and diag
    maps outer iteration -> diag_fn(theta) evaluated at trace_every cadence.
    """
    rng = np.random.default_rng([bc.seed, 3])
    theta = np.asarray(theta0, dtype=float).copy()
    r, step, drag = (np.empty_like(theta) for _ in range(3))
    eps = bc.eps_t
    noise_std = np.sqrt(2.0 * (bc.C - bc.B_hat) * eps)
    retained = deque(maxlen=bc.M)  # only the last M positions are ever returned
    trace = {}
    for k in range(1, bc.n_outer + 1):
        rng.standard_normal(out=r)
        # divergence surfaces through the finiteness check, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(bc.m_inner):
                theta += np.multiply(r, eps, out=step)
                g = grad_fn(theta, rng)
                # r - eps g - (eps C) r, in that order, into r
                np.multiply(g, eps, out=step)
                np.multiply(r, eps * bc.C, out=drag)
                r -= step
                r -= drag
                if noise_std > 0.0:
                    r += np.multiply(rng.standard_normal(out=step), noise_std, out=step)
        if not np.all(np.isfinite(theta)):
            raise SamplerError(f"non-finite state at outer iteration {k}", iteration=k)
        if k > bc.burn_in and (k - bc.burn_in) % bc.thinning == 0:
            retained.append(theta.copy())
        if diag_fn is not None and (k % bc.trace_every == 0 or k == bc.n_outer):
            trace[k] = diag_fn(theta)
    return list(retained), trace


def sghmc_run(init_params: dict, cfg: DeepOnetConfig, data, bc: BayesConfig):
    """Sample operator-network weights starting from a trained checkpoint,
    on the (U, Y, G) training rows.

    The chain moves one flat vector in place; each step gathers its
    minibatch into one workspace, whose flat gradient the step reads.

    Returns (members, trace): M parameter dicts and the potential-energy
    trace over the chain.
    """
    data = tuple(np.asarray(a, dtype=float) for a in data)
    n = len(data[2])
    layout, theta0 = flatten(init_params)
    b = min(bc.batch_size, n)
    ws = Workspace(cfg, init_params, b)

    def grad_fn(theta, rng):
        params = unflatten(layout, theta, copy=False)
        grad_potential(params, cfg, data, rng.permutation(n)[:b], bc, ws)
        return ws.grad

    def diag_fn(theta):
        return potential_energy(unflatten(layout, theta, copy=False), cfg, data, bc)

    members_flat, trace = sghmc_chain(grad_fn, theta0, bc, diag_fn=diag_fn)
    return [unflatten(layout, th, copy=False) for th in members_flat], trace
