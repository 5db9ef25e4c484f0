"""Noise density families with radial envelope evaluations.

Every family exposes the same small surface:

- ``logpdf`` of the (centered) noise density; ``logpdf(u, out=)`` writes
  into ``out`` as a numpy ufunc does (``out=u`` evaluates in place), and
  without ``out`` it evaluates in place on a fresh copy of ``u``,
- ``sample`` draws from it,
- ``log_radial_min(r)`` / ``log_radial_max(r)``: log inf and log sup of the
  density over the closed ball of radius ``r`` around the origin,
- ``tail_sup(delta)``: sup of the density outside that ball,
- ``log_mass(delta)``: log of its mass on that ball, precise at any ``delta``,
- ``delta_for_tail_ratio(eta)``: smallest radius whose tail sup is at most
  ``eta`` times the global sup.

The radial quantities are what the local sandwich construction consumes; both
families are symmetric and unimodal, so they are available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import H2FailureError, ModelValidationError, check_family

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianDensity:
    """Centered scalar Gaussian with scale ``sigma``."""

    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ModelValidationError("gaussian scale must be positive")

    def logpdf(self, u, out=None):
        """log density; with ``out`` (as for numpy ufuncs) it is written there.

        Without ``out`` it is written to a fresh copy of ``u``, so ``u`` itself
        is never changed.
        """
        if out is None:
            out = np.array(u, dtype=float)
        const = 0.5 * (_LOG_2PI + 2.0 * math.log(self.sigma))
        np.multiply(u, u, out=out)
        np.multiply(out, -0.5, out=out)
        np.divide(out, self.sigma**2, out=out)
        return np.subtract(out, const, out=out)

    def sample(self, rng, size=None):
        return rng.normal(0.0, self.sigma, size=size)

    # density decreases with |u|, so ball extrema sit at the center and rim
    def log_radial_min(self, r):
        r = np.asarray(r, dtype=float)
        return -0.5 * (r / self.sigma) ** 2 + self._log_peak()

    def log_radial_max(self, r):
        return np.zeros_like(np.asarray(r, dtype=float)) + self._log_peak()

    def _log_peak(self):
        return -0.5 * (_LOG_2PI + 2.0 * math.log(self.sigma))

    def sup(self):
        return math.exp(self._log_peak())

    def tail_sup(self, delta):
        return math.exp(self.log_radial_min(delta))

    def delta_for_tail_ratio(self, eta):
        if eta >= 1.0:
            return 0.0
        if eta <= 0.0:
            raise H2FailureError("tail ratio must be positive")
        return self.sigma * math.sqrt(2.0 * math.log(1.0 / eta))

    def log_mass(self, delta):
        # log erf for a small mass, log1p(-erfc) for one near 1
        x = delta / (self.sigma * math.sqrt(2.0))
        return math.log(math.erf(x)) if x < 0.5 else math.log1p(-math.erfc(x))


def student_t_logpdf(u, df, scale, log_norm, out=None):
    """Student-t log density with normalizer ``log_norm`` at offsets ``u``.

    ``scale`` and ``log_norm`` may be arrays that broadcast against ``u``, one
    per column for a kernel whose scale varies with the source node. The
    steps run in place in ``out``, by default a fresh copy of ``u``.
    """
    if out is None:
        out = np.array(u, dtype=float)
    np.divide(u, scale, out=out)
    np.multiply(out, out, out=out)
    np.divide(out, df, out=out)
    np.log1p(out, out=out)
    np.multiply(out, 0.5 * (df + 1.0), out=out)
    return np.subtract(log_norm, out, out=out)


@dataclass(frozen=True)
class StudentTDensity:
    """Scalar Student-t with ``df`` degrees of freedom, scaled by ``scale``.

    Heavy tails keep density ratios bounded under moderate rescaling, which is
    what the state-dependent-noise construction needs.
    """

    df: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        if self.df <= 0 or self.scale <= 0:
            raise ModelValidationError("student-t parameters must be positive")

    def _log_norm(self):
        v = self.df
        return (
            math.lgamma((v + 1.0) / 2.0)
            - math.lgamma(v / 2.0)
            - 0.5 * math.log(v * math.pi)
            - math.log(self.scale)
        )

    def logpdf(self, u, out=None):
        """log density; ``out`` works as for GaussianDensity.logpdf."""
        return student_t_logpdf(u, self.df, self.scale, self._log_norm(), out)

    def sample(self, rng, size=None):
        return rng.standard_t(self.df, size=size) * self.scale

    def log_radial_min(self, r):
        # symmetric unimodal: the infimum over the ball sits on the rim
        return self.logpdf(r)

    def log_radial_max(self, r):
        return np.zeros_like(np.asarray(r, dtype=float)) + self._log_norm()

    def sup(self):
        return math.exp(self._log_norm())

    def tail_sup(self, delta):
        return math.exp(self.log_radial_min(delta))

    def delta_for_tail_ratio(self, eta):
        if eta >= 1.0:
            return 0.0
        if eta <= 0.0:
            raise H2FailureError("tail ratio must be positive")
        v = self.df
        return self.scale * math.sqrt(v * (eta ** (-2.0 / (v + 1.0)) - 1.0))

    def log_mass(self, delta):
        # P(|T| <= t) = I(t^2/(v + t^2); 1/2, v/2), its complement I(v/(v + t^2); v/2, 1/2)
        v, t2 = self.df, (delta / self.scale) ** 2
        if t2 < v:
            return math.log(betainc(0.5, 0.5 * v, t2 / (v + t2)))
        return math.log1p(-betainc(0.5 * v, 0.5, v / (v + t2)))


_FIELDS = {"gaussian": {"family", "sigma"}, "student_t": {"family", "df", "scale"}}


def density_from_spec(spec):
    """Build a density family from its JSON description."""
    if check_family(spec, "family", _FIELDS, "density") == "gaussian":
        return GaussianDensity(sigma=float(spec.get("sigma", 1.0)))
    return StudentTDensity(df=float(spec.get("df", 3.0)), scale=float(spec.get("scale", 1.0)))
