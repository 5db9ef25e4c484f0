"""Prior distributions usable by every filter representation.

A prior must be evaluable on a grid (logpdf), sampleable (particles), and able
to suggest an initial grid window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_family

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NormalPrior:
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ConfigError("normal prior needs std > 0")

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * ((x - self.mean) / self.std) ** 2 - 0.5 * _LOG_2PI - math.log(self.std)

    def sample(self, rng, size=None):
        return rng.normal(self.mean, self.std, size=size)

    def window(self, k):
        return (self.mean - k * self.std, self.mean + k * self.std)

    def quad_bounds(self):
        return (self.mean - 12.0 * self.std, self.mean + 12.0 * self.std)


@dataclass(frozen=True)
class UniformPrior:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ConfigError("uniform prior needs hi > lo")

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.full(np.shape(x), -np.inf)
        out = np.where(inside, -math.log(self.hi - self.lo), out)
        return out

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size=size)

    def window(self, k):
        return (self.lo, self.hi)

    def quad_bounds(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class PointMassPrior:
    """Degenerate prior; on a grid the atom lands on the nearest node."""

    x: float = 0.0

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x == self.x, 0.0, -np.inf)

    def sample(self, rng, size=None):
        if size is None:
            return self.x
        return np.full(size, self.x, dtype=float)

    def window(self, k):
        pad = max(1e-3, abs(self.x) * 1e-9)
        return (self.x - pad, self.x + pad)

    def quad_bounds(self):
        return self.window(0)


_FIELDS = {"normal": {"family", "mean", "std"}, "uniform": {"family", "lo", "hi"},
           "point": {"family", "x"}}


def prior_from_spec(spec):
    fam = check_family(spec, "family", _FIELDS, "prior")
    if fam == "normal":
        return NormalPrior(mean=float(spec["mean"]), std=float(spec["std"]))
    if fam == "uniform":
        return UniformPrior(lo=float(spec["lo"]), hi=float(spec["hi"]))
    return PointMassPrior(x=float(spec["x"]))
