"""Noise density families with radial envelope evaluations.

Every family exposes the same small surface:

- ``pdf`` / ``logpdf`` of the (centered) noise density; ``logpdf(u, out=)``
  writes into ``out`` as a numpy ufunc does (``out=u`` evaluates in place),
- ``sample`` draws from it,
- ``radial_min(r)`` / ``radial_max(r)``: inf and sup of the density over the
  closed ball of radius ``r`` around the origin,
- ``tail_sup(delta)``: sup of the density outside that ball,
- ``delta_for_tail_ratio(eta)``: smallest radius whose tail sup is at most
  ``eta`` times the global sup.

The radial quantities are what the local sandwich construction consumes; for
symmetric unimodal families they are available in closed form, and a tabulated
fallback covers everything else at a documented grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import H2FailureError, ModelValidationError

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianDensity:
    """Centered isotropic Gaussian on R^dim with scale ``sigma``."""

    sigma: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.sigma <= 0:
            raise ModelValidationError("gaussian scale must be positive")

    def logpdf(self, u, out=None):
        """log density; with ``out`` (as for numpy ufuncs) it is written there.

        The ``out`` route keeps the plain expression's order of operations, so
        both routes give the same bits. Scalar callers such as ``quad`` take
        the plain route.
        """
        const = 0.5 * self.dim * (_LOG_2PI + 2.0 * math.log(self.sigma))
        if out is None:
            u = np.asarray(u, dtype=float)
            sq = u * u if self.dim == 1 else np.sum(u * u, axis=-1)
            return -0.5 * sq / self.sigma**2 - const
        if self.dim == 1:
            np.multiply(u, u, out=out)
        else:
            np.sum(u * u, axis=-1, out=out)
        np.multiply(out, -0.5, out=out)
        np.divide(out, self.sigma**2, out=out)
        return np.subtract(out, const, out=out)

    def pdf(self, u):
        return np.exp(self.logpdf(u))

    def sample(self, rng, size=None):
        if self.dim == 1:
            return rng.normal(0.0, self.sigma, size=size)
        shape = (self.dim,) if size is None else (size, self.dim)
        return rng.normal(0.0, self.sigma, size=shape)

    # density decreases with |u|, so ball extrema sit at the center and rim
    def log_radial_min(self, r):
        r = np.asarray(r, dtype=float)
        return -0.5 * (r / self.sigma) ** 2 + self._log_peak()

    def log_radial_max(self, r):
        return np.zeros_like(np.asarray(r, dtype=float)) + self._log_peak()

    def _log_peak(self):
        return -0.5 * self.dim * (_LOG_2PI + 2.0 * math.log(self.sigma))

    def radial_min(self, r):
        return np.exp(self.log_radial_min(r))

    def radial_max(self, r):
        return np.exp(self.log_radial_max(r))

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

    def spec(self):
        return {"family": "gaussian", "sigma": self.sigma, "dim": self.dim}


def student_t_logpdf(u, df, scale, log_norm, out=None):
    """Student-t log density with normalizer ``log_norm`` at offsets ``u``.

    ``scale`` and ``log_norm`` may be arrays that broadcast against ``u``, one
    per column for a kernel whose scale varies with the source node. With
    ``out`` the steps run in place in the order of the plain expression.
    """
    if out is None:
        z = np.asarray(u, dtype=float) / scale
        return log_norm - 0.5 * (df + 1.0) * np.log1p(z * z / df)
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

    def pdf(self, u):
        return np.exp(self.logpdf(u))

    def sample(self, rng, size=None):
        return rng.standard_t(self.df, size=size) * self.scale

    def log_radial_min(self, r):
        # symmetric unimodal: the infimum over the ball sits on the rim
        return self.logpdf(np.asarray(r, dtype=float))

    def log_radial_max(self, r):
        return np.zeros_like(np.asarray(r, dtype=float)) + self._log_norm()

    def radial_min(self, r):
        return np.exp(self.log_radial_min(r))

    def radial_max(self, r):
        return np.exp(self.log_radial_max(r))

    def sup(self):
        return math.exp(self._log_norm())

    def tail_sup(self, delta):
        return self.radial_min(delta)

    def delta_for_tail_ratio(self, eta):
        if eta >= 1.0:
            return 0.0
        if eta <= 0.0:
            raise H2FailureError("tail ratio must be positive")
        v = self.df
        return self.scale * math.sqrt(v * (eta ** (-2.0 / (v + 1.0)) - 1.0))

    def spec(self):
        return {"family": "student_t", "df": self.df, "scale": self.scale}


@dataclass(frozen=True)
class TabulatedDensity:
    """Generic scalar density with envelopes read off a symmetric radius grid.

    ``pdf_fn`` must be vectorized; the grid spans ``[-r_max, r_max]`` with
    ``n_grid`` points, which is the resolution at which all radial quantities
    are reported. No unimodality is assumed.
    """

    pdf_fn: object
    r_max: float = 40.0
    n_grid: int = 10_000
    name: str = "tabulated"
    sampler: object = None
    _radii: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _vals: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _vals_hi: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _suffix_max: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        radii = np.linspace(0.0, self.r_max, self.n_grid)
        pos = np.asarray(self.pdf_fn(radii), dtype=float)
        neg = np.asarray(self.pdf_fn(-radii), dtype=float)
        vals = np.minimum(pos, neg)
        vals_hi = np.maximum(pos, neg)
        if np.any(vals <= 0):
            raise ModelValidationError("tabulated density must be positive on the grid")
        object.__setattr__(self, "_radii", radii)
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_vals_hi", vals_hi)
        # prefix running extrema make radial_min/max a table lookup, so they
        # vectorize over radius arrays
        object.__setattr__(self, "_prefix_min", np.minimum.accumulate(vals))
        object.__setattr__(self, "_prefix_max", np.maximum.accumulate(vals_hi))
        # suffix running max gives tail sups for every grid radius at once
        object.__setattr__(self, "_suffix_max", np.maximum.accumulate(vals_hi[::-1])[::-1])

    def pdf(self, u):
        return np.asarray(self.pdf_fn(u), dtype=float)

    def logpdf(self, u, out=None):
        return np.log(self.pdf(u), out=out)

    def sample(self, rng, size=None):
        if self.sampler is None:
            raise ModelValidationError("tabulated density has no sampler")
        return self.sampler(rng, size)

    def _last_index(self, r):
        r = np.minimum(np.asarray(r, dtype=float), self.r_max)
        idx = np.searchsorted(self._radii, r + 1e-12, side="right") - 1
        return np.clip(idx, 0, self.n_grid - 1)

    def radial_min(self, r):
        return self._prefix_min[self._last_index(r)]

    def radial_max(self, r):
        return self._prefix_max[self._last_index(r)]

    def log_radial_min(self, r):
        return np.log(self.radial_min(r))

    def log_radial_max(self, r):
        return np.log(self.radial_max(r))

    def sup(self):
        return float(np.max(self._vals_hi))

    def tail_sup(self, delta):
        i = int(np.searchsorted(self._radii, delta - 1e-12))
        if i >= self.n_grid:
            return 0.0
        return float(self._suffix_max[i])

    def delta_for_tail_ratio(self, eta):
        if eta >= 1.0:
            return 0.0
        target = eta * self.sup()
        ok = self._suffix_max <= target
        if not np.any(ok):
            raise H2FailureError(
                f"no radius below {self.r_max} brings the tail sup under eta * sup"
            )
        return float(self._radii[int(np.argmax(ok))])

    def spec(self):
        return {"family": self.name, "r_max": self.r_max, "n_grid": self.n_grid}


def density_from_spec(spec):
    """Build a density family from its JSON description."""
    fam = spec.get("family")
    if fam == "gaussian":
        return GaussianDensity(sigma=float(spec.get("sigma", 1.0)), dim=int(spec.get("dim", 1)))
    if fam == "student_t":
        return StudentTDensity(df=float(spec.get("df", 3.0)), scale=float(spec.get("scale", 1.0)))
    raise ModelValidationError(f"unknown density family: {fam!r}")
