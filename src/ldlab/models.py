"""State-space model types, finite-state models, and trajectory simulation.

The continuous model is

    X_k = f(X_{k-1}) + zeta_k,      Y_k = h(X_k) + eps_k,

with ``f`` Lipschitz (constant ``f_lip``) and ``h`` invertible (``h_inverse``),
admitting the preimage inequality |x1 - x2| <= h_b |y1 - y2| whenever
h(x_i) = y_i. State noise has conditional density q(x, u), sandwiched by
mu_minus * psi(u) <= q(x, u) <= mu_plus * psi(u); i.i.d. noise with density
``gamma`` is the case psi = gamma, mu_minus = mu_plus = 1. Observation noise
has everywhere-positive density ``v``.

All model objects are immutable; every simulation call owns the RNG
``default_rng([seed, 0])``, so replays are byte-exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ModelValidationError


@dataclass(frozen=True)
class StateNoise:
    """State noise q(x, u) with envelope density ``psi``.

    ``log_kernel(xs, u)`` is the one definition of log q: ``u`` has one column
    per source node, and the call overwrites ``u[i, j]`` with
    ``log q(xs[j], u[i, j])`` and returns ``u``. ``logpdf(x, u)`` is its
    one-column case, so the grid kernel and the phi rule evaluate q the same
    way.

    Each family brings its own direct samplers: ``sampler(rng, x)`` draws
    one zeta given x, ``sampler_vec(rng, xs)`` one per entry of ``xs``.
    """

    log_kernel: Callable
    psi: object
    mu_minus: float
    mu_plus: float
    sampler: Callable
    sampler_vec: Callable

    def __post_init__(self):
        if not (0.0 < self.mu_minus <= self.mu_plus):
            raise ModelValidationError("need 0 < mu_minus <= mu_plus")

    def logpdf(self, x, u):
        # log_kernel overwrites its argument, so it gets a one-column copy of u
        return self.log_kernel([x], np.array(u, dtype=float)[..., None])[..., 0]

    def sample(self, rng, x):
        return self.sampler(rng, x)

    def log_radial_min(self, r):
        return math.log(self.mu_minus) + self.psi.log_radial_min(r)

    def log_radial_max(self, r):
        return math.log(self.mu_plus) + self.psi.log_radial_max(r)


def iid_noise(density):
    """I.i.d. state noise with density ``density``: the case psi = density,
    mu_minus = mu_plus = 1, whose kernel and draws ignore the state."""
    return StateNoise(
        log_kernel=lambda xs, u: density.logpdf(u, out=u),
        psi=density,
        mu_minus=1.0,
        mu_plus=1.0,
        sampler=lambda rng, x: density.sample(rng),
        sampler_vec=lambda rng, xs: density.sample(rng, size=len(xs)),
    )


@dataclass(frozen=True)
class StateSpaceModel:
    """Immutable nonlinear state-space model on R^1."""

    f: Callable
    f_lip: float
    h: Callable
    h_b: float
    state_noise: object
    obs_noise: object
    h_inverse: Callable

    def __post_init__(self):
        if self.f_lip < 0 or self.h_b < 0:
            raise ModelValidationError("Lipschitz and preimage constants must be >= 0")


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
    kappa = f_gap + filter_model.h_b * h_gap * (1.0 + true_model.f_lip)
    return MisspecifiedTruth(model=true_model, f_gap=f_gap, h_gap=h_gap, kappa=kappa)


@dataclass(frozen=True)
class FiniteModel:
    """Finite-state reference model: row-stochastic Q plus emission densities.

    ``emission_vector(y)`` is the one route to the per-state densities at y;
    the rows of ``finite_model_make`` are memoized and read-only. ``cdf[i]``
    is row i of Q as the cumulative table that ``Generator.choice(m, p=Q[i])``
    builds on every draw, tabulated once here for ``simulate_finite``.
    """

    Q: np.ndarray
    emit: Callable  # emit(y) -> vector of per-state densities
    emit_sample: Optional[Callable] = None  # emit_sample(rng, i) -> y
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cdf", _choice_cdf(self.Q))

    @property
    def m(self):
        return self.Q.shape[0]

    def emission_vector(self, y):
        g = np.asarray(self.emit(y), dtype=float)
        if g.shape != (self.m,):
            raise ModelValidationError("emission table returned wrong shape")
        return g


# rows of one stream: the memo of finite_model_make's emit holds this many
_EMIT_MEMO_ROWS = 64


def _choice_cdf(p):
    """Cumulative rows normalized to end at 1, as ``Generator.choice`` builds them."""
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


# Generator.choice's tolerance on the sum of p
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def finite_model_make(Q, emission_pdfs, emission_samplers=None):
    """Validate and assemble a finite model.

    ``emission_pdfs`` is one callable per state, y -> density value. The rows
    are memoized by ``float(y)``, the last 64 kept, and returned read-only.
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

    @functools.lru_cache(maxsize=_EMIT_MEMO_ROWS)
    def row(y):
        g = np.array([p(y) for p in pdfs], dtype=float)
        g.flags.writeable = False
        return g

    def emit(y):
        return row(float(y))

    sampler = None
    if emission_samplers is not None:
        samplers = tuple(emission_samplers)

        def sampler(rng, i):
            return samplers[i](rng)

    return FiniteModel(Q=Q, emit=emit, emit_sample=sampler)


def gaussian_finite_model(Q, means, stds):
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
    return finite_model_make(Q, pdfs, samplers)


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


def _rng_for(seed):
    # the key [seed, 0] fixes the draws that every recorded output was made from
    return np.random.default_rng([int(seed), 0])


def simulate_trajectory(model, init, n, seed):
    """Simulate n transitions (n+1 observations) under ``model``.

    ``init`` is a prior distribution for X_0. Deterministic given
    (model, init, n, seed).
    """
    rng = _rng_for(seed)
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
    )


def simulate_misspecified(truth, init, n, seed):
    """Simulate observations under the data-generating model of ``truth``."""
    return simulate_trajectory(truth.model, init, n, seed)


def simulate_finite(fmodel, nu, n, seed):
    """Simulate a finite-state chain and its emissions.

    Each state is one uniform looked up in a cumulative row, exactly as
    ``rng.choice(m, p=row)`` draws it, so the stream is the one that call
    gives; the rows of Q come tabulated with the model.
    """
    if fmodel.emit_sample is None:
        raise ModelValidationError("finite model has no emission samplers")
    nu = np.asarray(nu, dtype=float)
    # the check Generator.choice made of p before its lookup
    if nu.shape != (fmodel.m,) or not (np.all(nu >= 0) and abs(nu.sum() - 1.0) <= _CHOICE_ATOL):
        raise ModelValidationError("nu must be a length-m probability vector")
    rng = _rng_for(seed)
    cdf = fmodel.cdf
    states = [int(_choice_cdf(nu).searchsorted(rng.random(), side="right"))]
    ys = [float(fmodel.emit_sample(rng, states[0]))]
    for _ in range(n):
        states.append(int(cdf[states[-1]].searchsorted(rng.random(), side="right")))
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

