"""State-space model types, finite-state models, and trajectory simulation.

The continuous model is

    X_k = f(X_{k-1}) + zeta_k,      Y_k = h(X_k) + eps_k,

with ``f`` Lipschitz (constant ``f_lip``) and ``h`` admitting the preimage
inequality |x1 - x2| <= h_b0 + h_b |y1 - y2| whenever h(x_i) = y_i. State
noise is either i.i.d. with density ``gamma`` or conditionally dependent,
q(x, u), sandwiched by mu_minus * psi(u) <= q(x, u) <= mu_plus * psi(u).
Observation noise has everywhere-positive density ``v``.

All model objects are immutable; every simulation call owns an RNG stream
derived from (seed, stream), so replays are byte-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ModelValidationError


@dataclass(frozen=True)
class IidNoise:
    """Independent additive state noise with density ``density``."""

    density: object

    kind = "iid"

    def logpdf(self, x, u):
        # conditional density does not depend on x
        return self.density.logpdf(u)

    def log_kernel(self, xs, u):
        return self.density.logpdf(u, out=u)

    def sample(self, rng, x):
        return self.density.sample(rng)

    def log_radial_min(self, r):
        return self.density.log_radial_min(r)

    def log_radial_max(self, r):
        return self.density.log_radial_max(r)

    def spec(self):
        return {"kind": "iid", "density": self.density.spec()}


@dataclass(frozen=True)
class DependentNoise:
    """State-dependent noise q(x, u) with envelope density ``psi``.

    ``log_q(x, u)`` must be vectorized in ``u``. ``log_kernel(xs, u)`` is its
    broadcast form for a grid kernel: ``u`` has one column per source node,
    and the call overwrites ``u[i, j]`` with ``log q(xs[j], u[i, j])`` and
    returns ``u``. Each entry must carry the same bits as ``log_q(xs[j],
    u[:, j])``, so per-node constants are computed with the same scalar calls
    that ``log_q`` makes. Both noise kinds share this method, so
    ``IidNoise.log_kernel`` ignores ``xs``.

    Sampling is rejection against ``psi`` with acceptance bound ``mu_plus``,
    so only the envelope pair needs to be exact; a direct ``sampler(rng, x)``
    can override it.
    """

    log_q: Callable
    log_kernel: Callable
    psi: object
    mu_minus: float
    mu_plus: float
    sampler: Optional[Callable] = None
    sampler_vec: Optional[Callable] = None

    kind = "dependent"

    def __post_init__(self):
        if not (0.0 < self.mu_minus <= self.mu_plus):
            raise ModelValidationError("need 0 < mu_minus <= mu_plus")

    def logpdf(self, x, u):
        return self.log_q(x, u)

    def sample(self, rng, x):
        if self.sampler is not None:
            return self.sampler(rng, x)
        log_mu = math.log(self.mu_plus)
        while True:
            u = self.psi.sample(rng)
            if math.log(rng.random()) <= float(self.log_q(x, u)) - self.psi.logpdf(u) - log_mu:
                return u

    def log_radial_min(self, r):
        return math.log(self.mu_minus) + self.psi.log_radial_min(r)

    def log_radial_max(self, r):
        return math.log(self.mu_plus) + self.psi.log_radial_max(r)

    def spec(self):
        return {
            "kind": "dependent",
            "psi": self.psi.spec(),
            "mu_minus": self.mu_minus,
            "mu_plus": self.mu_plus,
        }


@dataclass(frozen=True)
class StateSpaceModel:
    """Immutable nonlinear state-space model on R^1 (vector dims allowed)."""

    f: Callable
    f_lip: float
    h: Callable
    h_b0: float
    h_b: float
    state_noise: object
    obs_noise: object
    h_inverse: Optional[Callable] = None
    state_dim: int = 1
    obs_dim: int = 1
    spec_dict: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        if self.f_lip < 0 or self.h_b0 < 0 or self.h_b < 0:
            raise ModelValidationError("Lipschitz and preimage constants must be >= 0")
        if self.obs_dim > self.state_dim:
            raise ModelValidationError("observation dimension exceeds state dimension")

    def spec(self):
        if self.spec_dict is not None:
            return self.spec_dict
        return {
            "f_lip": self.f_lip,
            "h_b0": self.h_b0,
            "h_b": self.h_b,
            "state_noise": self.state_noise.spec(),
            "obs_noise": self.obs_noise.spec(),
            "dims": {"state": self.state_dim, "obs": self.obs_dim},
        }


@dataclass(frozen=True)
class MisspecifiedTruth:
    """Data-generating model plus its sup-norm gaps to the filtering model.

    ``kappa`` is the drift/observation gap constant entering the preimage
    distance bound for mis-specified data; it is derived at construction from
    the filtering model's preimage constants and the true Lipschitz constant.
    """

    model: StateSpaceModel
    f_gap: float
    h_gap: float
    kappa: float


def make_misspecified_truth(filter_model, true_model, f_gap, h_gap):
    if f_gap < 0 or h_gap < 0:
        raise ModelValidationError("sup-norm gaps must be >= 0")
    if not (math.isfinite(f_gap) and math.isfinite(h_gap)):
        raise ModelValidationError("sup-norm gaps must be finite")
    kappa = f_gap + (filter_model.h_b0 + filter_model.h_b * h_gap) * (1.0 + true_model.f_lip)
    return MisspecifiedTruth(model=true_model, f_gap=f_gap, h_gap=h_gap, kappa=kappa)


@dataclass(frozen=True)
class FiniteModel:
    """Finite-state reference model: row-stochastic Q plus emission densities."""

    Q: np.ndarray
    emit: Callable  # emit(y) -> vector of per-state densities
    emit_sample: Optional[Callable] = None  # emit_sample(rng, i) -> y
    label: str = "finite"

    @property
    def m(self):
        return self.Q.shape[0]

    def emission_vector(self, y):
        g = np.asarray(self.emit(y), dtype=float)
        if g.shape != (self.m,):
            raise ModelValidationError("emission table returned wrong shape")
        return g

    def spec(self):
        return {"kind": "finite", "m": int(self.m), "label": self.label}


def finite_model_make(Q, emission_pdfs, emission_samplers=None, label="finite"):
    """Validate and assemble a finite model.

    ``emission_pdfs`` is one callable per state, y -> density value.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ModelValidationError("Q must be square")
    if np.any(Q < 0):
        raise ModelValidationError("Q has negative entries")
    sums = Q.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > 1e-12)[0]
    if bad.size:
        raise ModelValidationError(f"row {int(bad[0])} of Q sums to {sums[bad[0]]!r}, not 1")
    pdfs = tuple(emission_pdfs)
    if len(pdfs) != Q.shape[0]:
        raise ModelValidationError("one emission density per state required")

    def emit(y):
        return np.array([p(y) for p in pdfs], dtype=float)

    sampler = None
    if emission_samplers is not None:
        samplers = tuple(emission_samplers)

        def sampler(rng, i):
            return samplers[i](rng)

    return FiniteModel(Q=Q, emit=emit, emit_sample=sampler, label=label)


def gaussian_finite_model(Q, means, stds, label="finite"):
    """Finite model with per-state Gaussian emissions (always positive)."""
    means = [float(v) for v in means]
    stds = [float(s) for s in stds]
    if any(s <= 0 for s in stds):
        raise ModelValidationError("emission stds must be positive")

    def make_pdf(mu, s):
        c = 1.0 / (math.sqrt(2.0 * math.pi) * s)
        return lambda y: c * math.exp(-0.5 * ((y - mu) / s) ** 2)

    def make_sampler(mu, s):
        return lambda rng: rng.normal(mu, s)

    pdfs = [make_pdf(mu, s) for mu, s in zip(means, stds)]
    samplers = [make_sampler(mu, s) for mu, s in zip(means, stds)]
    fm = finite_model_make(Q, pdfs, samplers, label=label)
    return fm


@dataclass(frozen=True)
class Trajectory:
    """A simulated path with every noise draw recorded for exact replay.

    ``state_noise[k-1]`` is zeta_k (k = 1..n); ``obs_noise[k]`` is eps_k
    (k = 0..n).
    """

    states: np.ndarray
    observations: np.ndarray
    state_noise: np.ndarray
    obs_noise: np.ndarray
    seed: int
    stream: int = 0

    @property
    def horizon(self):
        return len(self.observations) - 1


def _rng_for(seed, stream):
    return np.random.default_rng([int(seed), int(stream)])


def simulate_trajectory(model, init, n, seed, stream=0):
    """Simulate n transitions (n+1 observations) under ``model``.

    ``init`` is a prior distribution for X_0. Deterministic given
    (model, init, n, seed, stream).
    """
    rng = _rng_for(seed, stream)
    x = float(init.sample(rng))
    states = [x]
    zetas = []
    epss = []
    ys = []
    eps = float(model.obs_noise.sample(rng))
    epss.append(eps)
    ys.append(float(model.h(x)) + eps)
    for _ in range(n):
        zeta = float(model.state_noise.sample(rng, x))
        x = float(model.f(x)) + zeta
        eps = float(model.obs_noise.sample(rng))
        states.append(x)
        zetas.append(zeta)
        epss.append(eps)
        ys.append(float(model.h(x)) + eps)
    return Trajectory(
        states=np.array(states),
        observations=np.array(ys),
        state_noise=np.array(zetas),
        obs_noise=np.array(epss),
        seed=int(seed),
        stream=int(stream),
    )


def simulate_misspecified(truth, init, n, seed, stream=0):
    """Simulate observations under the data-generating model of ``truth``."""
    return simulate_trajectory(truth.model, init, n, seed, stream=stream)


def simulate_finite(fmodel, nu, n, seed, stream=0):
    """Simulate a finite-state chain and its emissions."""
    if fmodel.emit_sample is None:
        raise ModelValidationError("finite model has no emission samplers")
    rng = _rng_for(seed, stream)
    nu = np.asarray(nu, dtype=float)
    states = [int(rng.choice(fmodel.m, p=nu))]
    ys = [float(fmodel.emit_sample(rng, states[0]))]
    for _ in range(n):
        states.append(int(rng.choice(fmodel.m, p=fmodel.Q[states[-1]])))
        ys.append(float(fmodel.emit_sample(rng, states[-1])))
    return np.array(states), np.array(ys)


def transition_logpdf(model, x, x_next):
    """log q(x, x_next) of the state transition kernel."""
    u = np.asarray(x_next, dtype=float) - float(model.f(x))
    return model.state_noise.logpdf(x, u)


def transition_density(model, x, x_next):
    return np.exp(transition_logpdf(model, x, x_next))


def loglik(model, x, y):
    """log g(x, y) = log v(y - h(x)); vectorized in x."""
    x = np.asarray(x, dtype=float)
    return model.obs_noise.logpdf(y - model.h(x))


def likelihood(model, x, y):
    return np.exp(loglik(model, x, y))


def audit_lipschitz(model, rng, pairs=1000, box=(-10.0, 10.0)):
    """Largest violation of |f(x1)-f(x2)| <= f_lip |x1-x2| over random pairs."""
    x1 = rng.uniform(box[0], box[1], size=pairs)
    x2 = rng.uniform(box[0], box[1], size=pairs)
    f = np.vectorize(model.f)
    gap = np.abs(f(x1) - f(x2)) - model.f_lip * np.abs(x1 - x2)
    return float(np.max(gap))
