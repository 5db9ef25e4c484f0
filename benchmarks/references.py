"""Independent accuracy references for the benchmark's outputs.

Nothing here calls ldlab: each reference is a closed form for the
linear-Gaussian models the presets use, so a change inside ldlab cannot move
the reference along with the value it checks.

Model: X_k = c0 + a X_{k-1} + N(0, q),  Y_k = X_k + N(0, r),
priors N(m, s^2). The presets use identity or affine drift and identity
observations; ``gaussian_params`` reads (a, c0, q, r) from a preset model spec.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr


def gaussian_params(model_spec):
    """(a, c0, q, r) of a linear-Gaussian preset model spec with identity h."""
    f = model_spec["f"]
    if model_spec.get("kind") != "linear_gaussian" or model_spec["h"]["type"] != "identity":
        raise ValueError("closed forms need a linear-Gaussian model with identity h")
    if f["type"] == "identity":
        a, c0 = 1.0, 0.0
    elif f["type"] == "affine":
        a, c0 = float(f.get("c1", 1.0)), float(f.get("c0", 0.0))
    else:
        raise ValueError(f"no closed form for drift {f['type']!r}")
    q = float(model_spec["state_noise"]["density"]["sigma"]) ** 2
    r = float(model_spec["obs_noise"]["sigma"]) ** 2
    return a, c0, q, r


def _log_erf(x):
    # log erf keeps full precision both for tiny x and for erf(x) near 1
    return math.log(math.erf(x)) if x < 0.5 else math.log1p(-math.erfc(x))


def kalman_log_tv(a, q, r, m1, m2, s, horizon):
    """Exact log TV between two Kalman filters with priors N(m1, s^2), N(m2, s^2).

    Both filters share the covariance P_k, so their TV is
    erf(|dm_k| / (2 sqrt(2 P_k))) and is independent of the data. The mean gap
    is propagated directly, dm_k = (1 - K_k) a dm_{k-1}; subtracting two
    Kalman means would cancel to zero within a few dozen steps.
    """
    out = np.empty(horizon + 1)
    p_pred, dm = s * s, m2 - m1
    for k in range(horizon + 1):
        if k > 0:
            p_pred, dm = a * a * p + q, a * dm
        gain = p_pred / (p_pred + r)
        p = (1.0 - gain) * p_pred
        dm = (1.0 - gain) * dm
        out[k] = _log_erf(abs(dm) / (2.0 * math.sqrt(2.0 * p)))
    return out


def _log_normal_pdf(x, var):
    return -0.5 * math.log(2.0 * math.pi * var) - 0.5 * x * x / var


def _log_interval_mass(lo, hi):
    """log(Phi(hi) - Phi(lo)) for lo < hi, evaluated on the far side of 0."""
    if lo > 0.0:
        lo, hi = -hi, -lo
    big, small = log_ndtr(hi), log_ndtr(lo)
    return float(big + math.log1p(-math.exp(small - big)))


def log_phi(a, c0, q, r, m, s, y0, y1, delta):
    """Closed-form log two_step_prior_mass for a Gaussian prior and noises.

    phi = int prior(x) g(x, y0) int_{|x' - y1| <= delta} q(x, x') g(x', y1) dx' dx,
    a product of two Gaussian evidences and one interval mass.
    """
    s2 = s * s
    log_z0 = _log_normal_pdf(y0 - m, s2 + r)
    mu0 = (m * r + y0 * s2) / (s2 + r)
    p0 = s2 * r / (s2 + r)
    mu_p = c0 + a * mu0
    p_p = a * a * p0 + q
    log_z1 = _log_normal_pdf(y1 - mu_p, p_p + r)
    mu1 = (mu_p * r + y1 * p_p) / (p_p + r)
    sd1 = math.sqrt(p_p * r / (p_p + r))
    return log_z0 + log_z1 + _log_interval_mass((y1 - delta - mu1) / sd1,
                                                (y1 + delta - mu1) / sd1)


def log_psi(r, delta):
    """Closed-form log set_likelihood_mass: the N(0, r) mass of [-delta, delta]."""
    return _log_erf(delta / math.sqrt(2.0 * r))
