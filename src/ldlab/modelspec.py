"""JSON model specifications and the named-function registry.

A model spec looks like

    {"kind": "linear_gaussian" | "nonlinear" | "dependent_noise",
     "f": {"type": "identity"}, "h": {"type": "affine", "c0": 0, "c1": 2},
     "a": 1.0, "b0": 0.0, "b": 0.5,
     "state_noise": {...}, "obs_noise": {...},
     "dims": {"state": 1, "obs": 1}}

Drift/observation maps come from a registry of named families so that specs
stay serializable and hashes stay stable. The Lipschitz constant ``a`` and
preimage constants ``b0``/``b`` can be given explicitly; when omitted they
fall back to the registry's analytic values.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import GaussianDensity, StudentTDensity, density_from_spec, student_t_logpdf
from .errors import ConfigError, ModelValidationError
from .models import DependentNoise, IidNoise, StateSpaceModel


class _MapEntry:
    def __init__(self, fn, lip, inverse=None, b0=None, b=None):
        self.fn = fn
        self.lip = lip
        self.inverse = inverse
        self.b0 = b0
        self.b = b


def _map_from_spec(spec):
    """Resolve {"type": ..., params...} into a _MapEntry."""
    typ = spec.get("type")
    if typ == "identity":
        return _MapEntry(fn=lambda x: x, lip=1.0, inverse=lambda y: y, b0=0.0, b=1.0)
    if typ == "affine":
        c0 = float(spec.get("c0", 0.0))
        c1 = float(spec.get("c1", 1.0))
        if c1 == 0.0:
            raise ConfigError("affine map needs c1 != 0 to stay invertible")
        return _MapEntry(
            fn=lambda x: c0 + c1 * x,
            lip=abs(c1),
            inverse=lambda y: (y - c0) / c1,
            b0=0.0,
            b=1.0 / abs(c1),
        )
    if typ == "sine_perturbed_affine":
        c0 = float(spec.get("c0", 0.0))
        c1 = float(spec.get("c1", 1.0))
        amp = float(spec.get("amp", 1.0))
        freq = float(spec.get("freq", 1.0))
        lip = abs(c1) + abs(amp * freq)
        entry = _MapEntry(fn=lambda x: c0 + c1 * x + amp * np.sin(freq * x), lip=lip)
        if abs(c1) > abs(amp * freq) > 0 or (amp == 0.0):
            # strictly monotone: slope bounded below by |c1| - |amp*freq|
            slope_min = abs(c1) - abs(amp * freq)
            entry.b0 = 0.0
            entry.b = 1.0 / slope_min
            entry.inverse = _monotone_inverse(entry.fn, slope_min, c0, c1)
        return entry
    if typ == "cubic_saturating":
        scale = float(spec.get("scale", 1.0))
        # d/dx [x^3/(1+x^2)] peaks at 9/8
        return _MapEntry(fn=lambda x: scale * x**3 / (1.0 + x**2), lip=1.125 * abs(scale))
    raise ConfigError(f"unknown map type: {typ!r}")


def _monotone_inverse(fn, slope_min, c0, c1):
    """Numeric inverse of a strictly monotone scalar map via bisection."""

    def inverse(y):
        # bracket using the affine part, then bisect; slope_min bounds the error
        guess = (y - c0) / c1
        lo, hi = guess - 4.0 / slope_min, guess + 4.0 / slope_min
        flo, fhi = fn(lo) - y, fn(hi) - y
        increasing = c1 > 0
        for _ in range(200):
            if (flo < 0) == (fhi < 0):
                lo, hi = lo - 8.0, hi + 8.0
                flo, fhi = fn(lo) - y, fn(hi) - y
            else:
                break
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = fn(mid) - y
            if (fm < 0) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return inverse


def _sine_modulated_noise(spec):
    """q(x, u) = psi(u) (1 + c sin(x) sin(u)); exact envelopes 1 -/+ c."""
    c = float(spec.get("c", 0.1))
    if not 0.0 < c < 1.0:
        raise ConfigError("sine_modulated needs 0 < c < 1")
    psi = density_from_spec(spec.get("psi", {"family": "gaussian", "sigma": 1.0}))

    def log_q(x, u):
        u = np.asarray(u, dtype=float)
        return psi.logpdf(u) + np.log1p(c * math.sin(x) * np.sin(u))

    def log_kernel(xs, u):
        mod = np.sin(u)
        mod *= np.array([c * math.sin(x) for x in xs])
        np.log1p(mod, out=mod)
        return np.add(psi.logpdf(u, out=u), mod, out=u)

    return DependentNoise(log_q=log_q, log_kernel=log_kernel, psi=psi,
                          mu_minus=1.0 - c, mu_plus=1.0 + c)


def _scaled_t_noise(spec):
    """zeta_k = sigma(X_{k-1}) * t_df with sigma(x) = s0 + s1 sin(x).

    Student-t tails keep the density ratio against psi = t(df, s0) bounded;
    the ratio is monotone in u^2, so its extremes over u are attained at 0 and
    infinity and the envelope pair is exact:

        ratio(x, u=0) = s0 / sigma(x),  ratio(x, |u|->inf) = (sigma(x)/s0)^df.
    """
    df = float(spec.get("df", 3.0))
    s0 = float(spec.get("s0", 1.0))
    s1 = float(spec.get("s1", 0.2))
    if not (s0 > 0 and abs(s1) < s0):
        raise ConfigError("scaled_t needs s0 > 0 and |s1| < s0")
    psi = StudentTDensity(df=df, scale=s0)
    smin, smax = s0 - abs(s1), s0 + abs(s1)
    candidates = [s0 / smin, s0 / smax, (smin / s0) ** df, (smax / s0) ** df]
    mu_minus, mu_plus = min(candidates), max(candidates)

    def sigma(x):
        return s0 + s1 * math.sin(x)

    def log_q(x, u):
        s = sigma(x)
        return StudentTDensity(df=df, scale=s).logpdf(u)

    # StudentTDensity's normalizer less its final "- log(scale)" term
    log_norm_unit = StudentTDensity(df=df, scale=1.0)._log_norm()

    def log_kernel(xs, u):
        scales = np.array([sigma(x) for x in xs])
        log_norms = np.array([log_norm_unit - math.log(s) for s in scales])
        return student_t_logpdf(u, df, scales, log_norms, out=u)

    def sampler(rng, x):
        return sigma(x) * rng.standard_t(df)

    def sampler_vec(rng, xs):
        return (s0 + s1 * np.sin(xs)) * rng.standard_t(df, size=len(xs))

    return DependentNoise(log_q=log_q, log_kernel=log_kernel, psi=psi, mu_minus=mu_minus,
                          mu_plus=mu_plus, sampler=sampler, sampler_vec=sampler_vec)


def _state_noise_from_spec(spec):
    kind = spec.get("kind", "iid")
    if kind == "iid":
        return IidNoise(density=density_from_spec(spec["density"]))
    if kind == "sine_modulated":
        return _sine_modulated_noise(spec)
    if kind == "scaled_t":
        return _scaled_t_noise(spec)
    raise ConfigError(f"unknown state noise kind: {kind!r}")


def model_from_spec(spec):
    """Build an immutable StateSpaceModel from its JSON dict."""
    kind = spec.get("kind", "nonlinear")
    if kind not in ("linear_gaussian", "nonlinear", "dependent_noise"):
        raise ConfigError(f"unknown model kind: {kind!r}")
    fmap = _map_from_spec(spec.get("f", {"type": "identity"}))
    hmap = _map_from_spec(spec.get("h", {"type": "identity"}))
    a = float(spec.get("a", fmap.lip))
    b0 = spec.get("b0", hmap.b0)
    b = spec.get("b", hmap.b)
    if b0 is None or b is None:
        raise ConfigError("observation map needs preimage constants b0, b")
    state_noise = _state_noise_from_spec(spec.get("state_noise", {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}}))
    obs_noise = density_from_spec(spec.get("obs_noise", {"family": "gaussian", "sigma": 1.0}))
    if kind == "linear_gaussian":
        if not isinstance(state_noise, IidNoise) or not isinstance(state_noise.density, GaussianDensity):
            raise ConfigError("linear_gaussian requires iid gaussian state noise")
        if not isinstance(obs_noise, GaussianDensity):
            raise ConfigError("linear_gaussian requires gaussian observation noise")
    if kind == "dependent_noise" and isinstance(state_noise, IidNoise):
        raise ConfigError("dependent_noise model declared with iid state noise")
    dims = spec.get("dims", {"state": 1, "obs": 1})
    try:
        model = StateSpaceModel(
            f=fmap.fn,
            f_lip=a,
            h=hmap.fn,
            h_b0=float(b0),
            h_b=float(b),
            h_inverse=hmap.inverse,
            state_noise=state_noise,
            obs_noise=obs_noise,
            state_dim=int(dims.get("state", 1)),
            obs_dim=int(dims.get("obs", 1)),
            spec_dict=spec,
        )
    except ModelValidationError:
        raise
    return model
