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
Each gradient is one `grad_potential` call: the minibatch rows are indexed
from the data (a negative row is refused), the likelihood gradient is
written into one workspace by deeponet's explicit forward and backward, and
the prior term is added on the flat vector. Every op keeps the order of the
update above, so the members do not depend on these buffers.

Every random draw comes from one generator, in the order of a serial loop:
per outer iteration the momentum, then per inner step the minibatch
(`draw(rng)`) and, if the noise scale is > 0, the noise. A one-thread
executor advances it: the chain keeps `LOOKAHEAD + 1` futures of the next
items in flight, so a draw runs while a gradient does (numpy's normal fill
releases the interpreter lock). A future hands the chain its item or the
error that `draw` raised. Each p-sized draw is written into a ring of
buffers that the chain allocates: a thread that allocated its own would grow
a malloc arena of its own. The executor's `with` block joins its thread on
every way out of `sghmc_chain`, an error included.

The last inner step of an outer iteration moves theta and takes its
minibatch and noise, but evaluates no gradient: its only output would be a
momentum that the next resample, or the end of the chain, overwrites. Taking
its draws keeps the stream, so the members and the trace keep their bytes.
With m_inner = 1 no gradient is evaluated at all, and the chain is a random
walk: theta += eps * r for a fresh normal r per outer iteration.

The chain keeps no members itself. At each of the last M retained positions
(every thinning-th outer iteration after burn-in, counted back from the
last) it calls its `keep` sink with its own theta, which the next step
moves, and it returns what the sink returned. The default sink copies;
the CLI's writes the member's checkpoint at once, while the executor makes
the next draws. An error the sink raises ends the chain like any other.
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import Error
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

TRACE_EVERY = 20  # cadence, in outer iterations, of the potential-energy diagnostic trace
LOOKAHEAD = 1  # draws the executor may have ready beyond the one the chain is using


class SamplerError(Error):
    """The chain's state went non-finite; the message names the outer iteration."""


@dataclass(frozen=True)
class BayesConfig:
    sigma_l: float = 0.01  # likelihood noise scale, pu
    prior_lambda: float = 1.0
    eps_t: float = 1e-5
    c: float = 10.0  # C, the friction, times identity
    b_hat: float = 0.0  # B_hat, the gradient-noise estimate
    m_inner: int = 50
    n_outer: int = 2000
    burn_in: int = 1000
    thinning: int = 5
    m_ensemble: int = 100  # M, the retained ensemble size
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if not (np.inf > self.c >= self.b_hat >= 0.0):
            raise ValueError(f"need finite C >= B_hat >= 0, got C={self.c}, B_hat={self.b_hat}")
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
        if not (1 <= self.m_ensemble <= retained):
            raise ValueError(
                f"M={self.m_ensemble} but the chain retains only {retained} post-burn-in samples"
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
    a vanilla net (squared residuals). A row outside the data, a negative one
    too, raises IndexError. The gradient is written into ws and returned by
    name as views of its flat gradient (a fresh workspace's if ws is None)."""
    idx = np.asarray(idx)
    if idx.size and idx.min() < 0:  # indexing would count it from the end
        raise IndexError(f"negative row index {idx.min()}")
    ws = ws or Workspace(cfg, params, idx.size)
    U, Y, G = (a[idx] for a in data)
    loss_and_grad(params, cfg, U, Y, G, len(data[2]) / idx.size / (2.0 * bc.sigma_l**2), ws)
    for name, g in ws.grads.items():
        g += np.multiply(params[name], bc.prior_lambda, out=ws.scratch[name])
    return ws.grads


def _draws(bc: BayesConfig, draw, noise_std: float, ring: list):
    """The chain's random draws in the serial loop's order: per outer iteration
    the momentum, then per inner step draw(rng) and, if noise_std > 0, the
    noise times noise_std. The p-sized ones are written into ring's buffers in
    turn."""
    rng = np.random.default_rng([bc.seed, 3])
    slots = itertools.cycle(ring)
    for _ in range(bc.n_outer):
        yield rng.standard_normal(out=next(slots))
        for _ in range(bc.m_inner):
            yield draw(rng)
            if noise_std > 0.0:
                z = rng.standard_normal(out=next(slots))
                # divergence surfaces through the chain's finiteness check, not
                # warnings; no yield inside: a close on another thread could
                # not reset the error state
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(z, noise_std, out=z)
                yield z


def sghmc_chain(grad_fn, theta0: np.ndarray, bc: BayesConfig, draw=lambda rng: None,
                diag_fn=None, keep=np.copy):
    """Run the sampler on a flat parameter vector.

    draw(rng) returns one inner step's minibatch, and grad_fn(theta, batch)
    the noisy potential gradient on it. keep(theta) is called at each of the
    last M retained post-burn-in positions, in order, with the chain's own
    vector, which moves on once keep returns. Returns (kept, diag) where kept
    lists keep's results (by default copies of the M positions) and diag maps
    outer iteration -> diag_fn(theta) at every TRACE_EVERY-th and the last.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r, step, drag = (np.empty_like(theta) for _ in range(3))
    # the item the chain reads, LOOKAHEAD ready and the one being made are
    # LOOKAHEAD + 2 in a row, one of them a batch: p-sized draws come at most
    # two in a row (a noise, then the next momentum)
    ring = [np.empty_like(theta) for _ in range(LOOKAHEAD + 1)]
    eps = bc.eps_t
    noise_std = np.sqrt(2.0 * (bc.c - bc.b_hat) * eps)
    # the outer iteration of the first of the last M retained positions: the
    # chain retains every thinning-th after burn-in, (n_outer - burn_in) // thinning
    first_kept = bc.burn_in + bc.thinning * (
        (bc.n_outer - bc.burn_in) // bc.thinning - bc.m_ensemble + 1)
    kept, trace = [], {}
    items = _draws(bc, draw, noise_std, ring)
    with ThreadPoolExecutor(1, thread_name_prefix="gridonet-sghmc-draws") as pool:
        ahead = deque(pool.submit(next, items, None) for _ in range(LOOKAHEAD + 1))

        def take():
            """The next draw; done with the previous one, whose buffer it frees."""
            item = ahead.popleft()
            ahead.append(pool.submit(next, items, None))
            return item.result()

        for k in range(1, bc.n_outer + 1):
            np.copyto(r, take())
            # divergence surfaces through the finiteness check, not warnings
            with np.errstate(over="ignore", invalid="ignore"):
                theta += np.multiply(r, eps, out=step)
                for _ in range(bc.m_inner - 1):
                    g = grad_fn(theta, take())
                    # r - eps g - (eps C) r, in that order, into r
                    np.multiply(g, eps, out=step)
                    np.multiply(r, eps * bc.c, out=drag)
                    r -= step
                    r -= drag
                    if noise_std > 0.0:
                        r += take()
                    theta += np.multiply(r, eps, out=step)
            # the last step's batch and noise would feed only a momentum that
            # the resample, or the end of the chain, overwrites
            take()
            if noise_std > 0.0:
                take()
            if not np.all(np.isfinite(theta)):
                raise SamplerError(f"non-finite state at outer iteration {k}")
            if k >= first_kept and (k - first_kept) % bc.thinning == 0:
                kept.append(keep(theta))
            if diag_fn is not None and (k % TRACE_EVERY == 0 or k == bc.n_outer):
                trace[k] = diag_fn(theta)
    return kept, trace


def sghmc_run(init_params: dict, cfg: DeepOnetConfig, data, bc: BayesConfig,
              keep=lambda params: {name: a.copy() for name, a in params.items()}):
    """Sample operator-network weights starting from a trained checkpoint,
    on the (U, Y, G) training rows.

    The chain moves one flat vector in place; each step indexes its
    minibatch from the data, and reads the flat gradient of one workspace.
    keep(params) is the chain's sink: it gets each member as views of that
    vector, valid only until it returns. By default the member is copied.

    Returns (kept, trace): keep's M results (by default M parameter dicts)
    and the potential-energy trace over the chain.
    """
    data = tuple(np.asarray(a, dtype=float) for a in data)
    n = len(data[2])
    layout, theta0 = flatten(init_params)
    b = min(bc.batch_size, n)
    ws = Workspace(cfg, init_params, b)

    def grad_fn(theta, batch):
        params = unflatten(layout, theta, copy=False)
        grad_potential(params, cfg, data, batch, bc, ws)
        return ws.grad

    def diag_fn(theta):
        return potential_energy(unflatten(layout, theta, copy=False), cfg, data, bc)

    return sghmc_chain(grad_fn, theta0, bc, draw=lambda rng: rng.permutation(n)[:b],
                       diag_fn=diag_fn,
                       keep=lambda theta: keep(unflatten(layout, theta, copy=False)))
