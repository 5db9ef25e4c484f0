"""JSON model specifications and the named-function registry.

A model spec looks like

    {"kind": "linear_gaussian" | "nonlinear" | "dependent_noise",
     "f": {"type": "identity"}, "h": {"type": "affine", "c0": 0, "c1": 2},
     "state_noise": {...}, "obs_noise": {...}}

Drift/observation maps come from a registry of named families so that specs
stay serializable and hashes stay stable. The drift's Lipschitz constant is
its family's exact analytic value (identity 1, affine |c1|, the
sine-perturbed affine map |c1| + |amp*freq|), so a spec cannot set it. The
observation map is ``identity`` or ``affine``, whose exact inverse gives the
preimage constant b = 1/|c1|. Every object of a spec is checked
field by field: an unknown field is an error, not a setting silently ignored.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import GaussianDensity, StudentTDensity, density_from_spec, student_t_logpdf
from .errors import ConfigError, check_family, check_fields
from .models import DependentNoise, IidNoise, StateSpaceModel


# the fields of each map type, each state noise kind and the model itself
_MAP_FIELDS = {
    "identity": {"type"},
    "affine": {"type", "c0", "c1"},
    "sine_perturbed_affine": {"type", "c0", "c1", "amp", "freq"},
}
_NOISE_FIELDS = {"iid": {"kind", "density"}, "scaled_t": {"kind", "df", "s0", "s1"}}
_MODEL_FIELDS = {"kind", "f", "h", "state_noise", "obs_noise"}


def _map_from_spec(spec):
    """Resolve {"type": ..., params...} into (map, Lipschitz constant, inverse);
    ``sine_perturbed_affine`` is a drift only, whose inverse is None."""
    typ = check_family(spec, "type", _MAP_FIELDS, "map")
    if typ == "identity":
        return (lambda x: x), 1.0, (lambda y: y)
    c0 = float(spec.get("c0", 0.0))
    c1 = float(spec.get("c1", 1.0))
    if typ == "affine":
        if c1 == 0.0:
            raise ConfigError("affine map needs c1 != 0 to stay invertible")
        return (lambda x: c0 + c1 * x), abs(c1), (lambda y: (y - c0) / c1)
    amp = float(spec.get("amp", 1.0))
    freq = float(spec.get("freq", 1.0))
    return (lambda x: c0 + c1 * x + amp * np.sin(freq * x)), abs(c1) + abs(amp * freq), None


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

    # StudentTDensity's normalizer less its final "- log(scale)" term
    log_norm_unit = StudentTDensity(df=df, scale=1.0)._log_norm()

    def log_kernel(xs, u):
        scales = s0 + s1 * np.sin(xs)
        # math.log, not np.log: np.log differs from it in the last bit on
        # some scales, and the kernel keeps the bits of the scalar closed form
        log_norms = log_norm_unit - np.array(list(map(math.log, scales.tolist())))
        return student_t_logpdf(u, df, scales, log_norms, out=u)

    def sampler(rng, x):
        return sigma(x) * rng.standard_t(df)

    def sampler_vec(rng, xs):
        return (s0 + s1 * np.sin(xs)) * rng.standard_t(df, size=len(xs))

    return DependentNoise(log_kernel=log_kernel, psi=psi, mu_minus=mu_minus, mu_plus=mu_plus,
                          sampler=sampler, sampler_vec=sampler_vec)


def _state_noise_from_spec(spec):
    if check_family(spec, "kind", _NOISE_FIELDS, "state noise", default="iid") == "iid":
        return IidNoise(density=density_from_spec(spec["density"]))
    return _scaled_t_noise(spec)


def model_from_spec(spec):
    """Build an immutable StateSpaceModel from its JSON dict."""
    kind = check_fields(spec, _MODEL_FIELDS, "model").get("kind", "nonlinear")
    if kind not in ("linear_gaussian", "nonlinear", "dependent_noise"):
        raise ConfigError(f"unknown model kind: {kind!r}")
    f, f_lip, _ = _map_from_spec(spec.get("f", {"type": "identity"}))
    h, h_lip, h_inverse = _map_from_spec(spec.get("h", {"type": "identity"}))
    if h_inverse is None:
        raise ConfigError("the observation map must be invertible: 'identity' or 'affine'")
    state_noise = _state_noise_from_spec(spec.get("state_noise", {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}}))
    obs_noise = density_from_spec(spec.get("obs_noise", {"family": "gaussian", "sigma": 1.0}))
    if kind == "linear_gaussian":
        if not isinstance(state_noise, IidNoise) or not isinstance(state_noise.density, GaussianDensity):
            raise ConfigError("linear_gaussian requires iid gaussian state noise")
        if not isinstance(obs_noise, GaussianDensity):
            raise ConfigError("linear_gaussian requires gaussian observation noise")
    if kind == "dependent_noise" and isinstance(state_noise, IidNoise):
        raise ConfigError("dependent_noise model declared with iid state noise")
    # an affine h (identity included) has the exact preimage constant b = 1/|c1|
    return StateSpaceModel(
        f=f,
        f_lip=f_lip,
        h=h,
        h_b=1.0 / h_lip,
        h_inverse=h_inverse,
        state_noise=state_noise,
        obs_noise=obs_noise,
    )
