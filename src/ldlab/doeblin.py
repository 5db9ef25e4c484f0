"""Local mixing-set machinery for additive-observation models.

Builds the observation-indexed state sets {x : |h(x) - y| <= delta}, the
lower/upper envelope pair that sandwiches the transition kernel on those sets,
the preimage-distance quantity the envelope radius depends on, the tail-ratio
radius, and the per-step contraction coefficient. Everything here is a pure
function of the model and observed data; the bound assembly lives in bounds.py.

Envelope values decay like the noise density at the radius, so all quantities
are available in log form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import (
    ConfigError,
    ConstructionError,
    EnvelopeOrderError,
    RepresentationError,
)
from .models import transition_density

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# state sets


@dataclass(frozen=True)
class StateSet:
    """A closed interval [lo, hi] of the state space."""

    lo: float
    hi: float

    def contains(self, x):
        return (self.lo <= x) & (x <= self.hi)


def ld_set(model, y, delta):
    """The state set {x : |h(x) - y| <= delta}, an interval since h is invertible."""
    if delta <= 0:
        raise ConfigError("delta must be positive")
    y = float(y)
    e1 = float(model.h_inverse(y - delta))
    e2 = float(model.h_inverse(y + delta))
    return StateSet(min(e1, e2), max(e1, e2))


# ---------------------------------------------------------------------------
# envelope radius; the envelopes are the state noise's log_radial_min/max


def envelope_radius(model, delta, d_value):
    """Radius fed to the envelopes: (a+1) b delta + D."""
    return (model.f_lip + 1.0) * model.h_b * delta + d_value


# ---------------------------------------------------------------------------
# preimage distance: the exact value, and the noise-record forms that bound it


def preimage_distance_recorded(model, eps_prev, zeta, eps):
    """Noise-record bound: a b |eps_prev| + |zeta| + b |eps|."""
    a, b = model.f_lip, model.h_b
    return a * b * np.abs(eps_prev) + np.abs(zeta) + b * np.abs(eps)


def misspec_distance(truth, eps_prev, zeta, eps):
    """Distance bound for mis-specified data: kappa + 2 a* b* + tail.

    The tail is a* b* |eps_prev| + b* |eps| + |zeta| with the data-generating
    model's constants. The proof's other form, kappa + (1 + a*) b0* + tail,
    never exceeds this one, since every observation map is affine (b0* = 0).
    """
    a, b = truth.model.f_lip, truth.model.h_b
    tail = a * b * np.abs(eps_prev) + b * np.abs(eps) + np.abs(zeta)
    return truth.kappa + 2.0 * a * b + tail


def distance_series(model, ys):
    """D_k = |f(h^-1(y_{k-1})) - h^-1(y_k)| for the pairs k = 1..n, vectorized.

    ``ys`` alone gives it, for any data. The noise-record forms above only
    bound it from above; the integrability diagnostics use them.
    """
    pre = np.asarray(model.h_inverse(np.asarray(ys, dtype=float)), dtype=float)
    return np.abs(np.asarray(model.f(pre[:-1]), dtype=float) - pre[1:])


# ---------------------------------------------------------------------------
# envelope pairs and the contraction coefficient


def envelope_pair(model, y, yp, delta):
    """(lower, upper) envelope values for the pair (y, y'); natural scale."""
    noise = model.state_noise
    r = envelope_radius(model, delta, distance_series(model, [y, yp])[0])
    return math.exp(noise.log_radial_min(r)), math.exp(noise.log_radial_max(r))


def log_contraction_from_logs(log_lower, log_upper):
    """log of the contraction coefficient from log envelope values, vectorized."""
    log_lower = np.asarray(log_lower, dtype=float)
    log_upper = np.asarray(log_upper, dtype=float)
    if np.any(log_lower > log_upper + 1e-9):
        raise EnvelopeOrderError("lower envelope exceeds upper envelope")
    x = 2.0 * np.minimum(log_lower - log_upper, 0.0)
    # log(1 - e^x) split at x = -ln 2 (Maechler 2012, "Accurately computing
    # log(1 - exp(-|a|))"): below it 1 - e^x lies near 1, so its log loses
    # relative precision (and is 0 once e^x < 2^-53); log1p(-exp(x)) keeps it
    with np.errstate(divide="ignore"):
        return np.where(x > -_LN2, np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


# ---------------------------------------------------------------------------
# the tail-ratio condition


def delta_for_eta(model, eta):
    """Smallest radius making the outside-set likelihood <= eta times the peak."""
    return model.obs_noise.delta_for_tail_ratio(eta)


def eta_for_delta(model, delta):
    """Achieved tail ratio for a given radius."""
    return model.obs_noise.tail_sup(delta) / model.obs_noise.sup()


# ---------------------------------------------------------------------------
# LD sets of a finite model


@dataclass(frozen=True)
class FiniteLdSetFunction:
    """Explicit per-bin subsets of a finite state space, uniform reference.

    ``set_table[b]`` is bin b's set, a sorted index array without repeats;
    ``obs_to_bin(y)`` is the bin of observation y. Both tables a stream reads
    are built once, with the set function: ``inside[b]`` is bin b's set as a
    boolean row over the m states, and ``envelopes[i, j]`` is the pair that
    ``envelopes_for_bins(i, j)`` returns, read along a stream by
    ``envelopes_along``.
    """

    fmodel: object
    set_table: tuple
    obs_to_bin: Callable
    inside: np.ndarray = field(init=False, repr=False, compare=False)
    envelopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bins = len(self.set_table)
        inside = np.zeros((bins, self.fmodel.m), dtype=bool)
        for b, states in enumerate(self.set_table):
            inside[b, states] = True
        # a pair with a zero transition is NaN here: it is an error only for a
        # stream that observes it, which envelopes_along raises
        envelopes = np.full((bins, bins, 2), np.nan)
        for i in range(bins):
            for j in range(bins):
                try:
                    envelopes[i, j] = self.envelopes_for_bins(i, j)
                except ConstructionError:
                    pass
        object.__setattr__(self, "inside", inside)
        object.__setattr__(self, "envelopes", envelopes)

    def envelopes_for_bins(self, i, j):
        """(lower, upper) from extreme transition values into the target set.

        With the uniform reference on the target set, the sandwich holds
        exactly with lower = |C'| min Q and upper = |C'| max Q over the
        source-target product.
        """
        src = self.set_table[i]
        dst = self.set_table[j]
        block = self.fmodel.Q[np.ix_(src, dst)]
        qmin = float(block.min())
        qmax = float(block.max())
        if qmin <= 0.0:
            raise ConstructionError(
                f"zero transition probability from bin {i} into bin {j}; lower envelope would vanish"
            )
        size = len(dst)
        return size * qmin, size * qmax

    def envelopes_along(self, bins):
        """(lower, upper) arrays of the consecutive pairs of ``bins``.

        The first pair with a zero transition raises its ``ConstructionError``.
        """
        bins = np.asarray(bins, dtype=int)
        env = self.envelopes[bins[:-1], bins[1:]]
        vanished = np.flatnonzero(np.isnan(env[:, 0]))
        if vanished.size:
            k = vanished[0]
            self.envelopes_for_bins(bins[k], bins[k + 1])  # raises for this pair
        return env[:, 0], env[:, 1]


def finite_ld_construct(fmodel, set_table, obs_to_bin=None):
    """Assemble the finite-model set function from an explicit subset table.

    Each subset must be non-empty, hold integer states inside the model and
    be free of repeats, which would count a state twice in |C'|; it is stored
    sorted. A bool or a fractional state is an error, never rounded.
    """
    table = []
    for i, subset in enumerate(set_table):
        states = list(subset)
        if not states:
            raise ConstructionError(f"bin {i} has an empty state subset")
        for s in states:
            if isinstance(s, bool) or not isinstance(s, numbers.Integral):
                raise ConstructionError(f"bin {i} lists a state that is not an integer: {s!r}")
        idx = np.asarray(states, dtype=int)
        if idx.min() < 0 or idx.max() >= fmodel.m:
            raise ConstructionError(f"bin {i} references states outside the model")
        if np.unique(idx).size != idx.size:
            raise ConstructionError(f"bin {i} lists a state more than once")
        table.append(np.sort(idx))
    if obs_to_bin is None:
        obs_to_bin = lambda y: int(round(float(y)))  # noqa: E731
    return FiniteLdSetFunction(fmodel=fmodel, set_table=tuple(table), obs_to_bin=obs_to_bin)


# ---------------------------------------------------------------------------
# numerical verification of the sandwich property


def verify_ld_property(model, delta, y, yp, budget=1000, seed=0, quad_tol=1e-8,
                       rel_slack=1e-6, envelope_override=None):
    """Sample the two-sided kernel sandwich and report worst margins.

    For ``budget`` random source points x in the LD set at y and random
    subintervals A of the LD set at y' (both of radius ``delta``), integrates
    the transition kernel over A by adaptive quadrature and checks

        lower * |A| <= Q(x, A) <= upper * |A|

    with relative slack. Violations become report entries, never exceptions.
    A draw whose subinterval is too short to integrate is skipped, so
    ``pairs_checked`` may fall below ``budget``.
    """
    rng = np.random.default_rng(seed)
    c_src = ld_set(model, y, delta)
    c_dst = ld_set(model, yp, delta)
    if envelope_override is not None:
        eps_lo, eps_hi = envelope_override
    else:
        eps_lo, eps_hi = envelope_pair(model, y, yp, delta)
    samples, measures = [], []
    for _ in range(budget):
        x = c_src.lo + (c_src.hi - c_src.lo) * rng.random()
        u1, u2 = np.sort(rng.random(2))
        a = c_dst.lo + (c_dst.hi - c_dst.lo) * u1
        b = c_dst.lo + (c_dst.hi - c_dst.lo) * u2
        if b - a < 1e-12 * max(1.0, abs(c_dst.hi - c_dst.lo)):
            continue
        mass, _ = quad(lambda s: transition_density(model, x, s), a, b,
                       epsabs=quad_tol, epsrel=quad_tol, limit=200)
        samples.append({"x": x, "a": a, "b": b, "mass": mass})
        measures.append(b - a)
    return _sandwich_report(samples, measures, eps_lo, eps_hi, rel_slack)


def verify_ld_property_finite(ld, bin_src, bin_dst, rel_slack=1e-12, envelope_override=None):
    """Exhaustive subset check of the sandwich on a finite model (|C'| <= 16)."""
    src = ld.set_table[bin_src]
    dst = ld.set_table[bin_dst]
    if len(dst) > 16:
        raise RepresentationError("exhaustive subset check capped at 16 target states")
    if envelope_override is not None:
        eps_lo, eps_hi = envelope_override
    else:
        eps_lo, eps_hi = ld.envelopes_for_bins(bin_src, bin_dst)
    samples, measures = [], []
    for x in src:
        row = ld.fmodel.Q[x, dst]
        for bits in range(1, 1 << len(dst)):
            mask = np.array([(bits >> t) & 1 for t in range(len(dst))], dtype=bool)
            samples.append({"x": int(x), "subset": bits, "mass": float(row[mask].sum())})
            measures.append(mask.sum() / len(dst))
    return _sandwich_report(samples, measures, eps_lo, eps_hi, rel_slack)


def _sandwich_report(samples, measures, eps_lo, eps_hi, rel_slack):
    """Both verifiers' report on lower |A| <= Q(x, A) <= upper |A|.

    ``samples`` holds one entry per checked (x, A), with its ``mass`` Q(x, A),
    and ``measures`` the |A| of each. Margins are relative; a violation is its
    sample's entry with the side and the bound it broke, the first 20 kept.
    """
    worst_lower = worst_upper = math.inf
    violations = []
    for sample, lam in zip(samples, measures):
        lower_margin = sample["mass"] / (eps_lo * lam) - 1.0
        upper_margin = 1.0 - sample["mass"] / (eps_hi * lam)
        worst_lower = min(worst_lower, lower_margin)
        worst_upper = min(worst_upper, upper_margin)
        for kind, margin, eps in (("lower", lower_margin, eps_lo),
                                  ("upper", upper_margin, eps_hi)):
            if margin < -rel_slack and len(violations) < 20:
                violations.append({"kind": kind, **sample, "bound": eps * lam})
    return {
        "pairs_checked": len(samples),
        "worst_lower_margin": worst_lower,
        "worst_upper_margin": worst_upper,
        "violations": violations,
        "passed": len(violations) == 0,
    }


# ---------------------------------------------------------------------------
# integrability diagnostics


def stability_diag_series(model, traj, delta):
    """Per-step log-envelope diagnostic for well-specified data.

    Equals minus the log lower envelope at the recorded-noise radius; its
    empirical mean is logged by the experiment runner as an integrability
    check, not certified.
    """
    eps = traj.obs_noise
    d = preimage_distance_recorded(model, eps[:-1], traj.state_noise, eps[1:])
    r = envelope_radius(model, delta, d)
    return -np.asarray(model.state_noise.log_radial_min(r), dtype=float)


def misspec_diag_series(filter_model, truth, traj, delta):
    """Per-step log-envelope diagnostic under mis-specification.

    Uses the mis-specified distance bound with the filtering model's
    envelope; positive sign convention follows the source quantity (log of
    the lower envelope, typically negative).
    """
    eps = traj.obs_noise
    d = misspec_distance(truth, eps[:-1], traj.state_noise, eps[1:])
    r = envelope_radius(filter_model, delta, d)
    return np.asarray(filter_model.state_noise.log_radial_min(r), dtype=float)
