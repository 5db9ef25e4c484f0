"""Local mixing-set machinery for additive-observation models.

Builds the observation-indexed state sets {x : |h(x) - y| <= delta}, the
lower/upper envelope pair that sandwiches the transition kernel on those sets,
the preimage-distance quantity the envelope radius depends on, likelihood
suprema, and the per-step contraction coefficient. Everything here is a pure
function of the model and observed data; the bound assembly lives in bounds.py.

Envelope values decay like the noise density at the radius, so all quantities
are available in log form; natural-scale accessors exist for the ranges where
they are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    ConfigError,
    ConstructionError,
    EnvelopeOrderError,
    RepresentationError,
    UnavailableModeError,
)
from .models import transition_density

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# state sets


@dataclass(frozen=True)
class StateSet:
    """A measurable subset of the state space, interval form when available."""

    predicate: Callable
    lo: Optional[float] = None
    hi: Optional[float] = None
    label: str = ""

    @property
    def is_interval(self):
        return self.lo is not None and self.hi is not None

    @property
    def measure(self):
        if not self.is_interval:
            raise RepresentationError("Lebesgue measure needs an interval representation")
        return self.hi - self.lo

    def contains(self, x):
        return self.predicate(x)


def ld_set(model, y, delta):
    """The state set {x : |h(x) - y| <= delta}.

    With an invertible monotone h the set is exactly an interval; otherwise a
    bracket is read off a fixed grid (8001 nodes over the window implied by
    the preimage constants) and the membership predicate stays exact.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    y = float(y)

    def pred(x):
        return np.abs(np.asarray(model.h(np.asarray(x, dtype=float))) - y) <= delta

    if model.h_inverse is not None:
        e1 = float(model.h_inverse(y - delta))
        e2 = float(model.h_inverse(y + delta))
        return StateSet(pred, min(e1, e2), max(e1, e2), label="interval")
    h0 = float(model.h(0.0))
    w = model.h_b0 + model.h_b * (abs(y - h0) + delta)
    xs = np.linspace(-w, w, 8001)
    mask = pred(xs)
    if not mask.any():
        return StateSet(pred, label="empty-on-grid")
    return StateSet(pred, float(xs[mask].min()), float(xs[mask].max()), label="grid(8001)")


# ---------------------------------------------------------------------------
# envelope functions of the radius


@dataclass(frozen=True)
class EnvelopeFns:
    """Radial lower/upper envelopes of the transition noise density."""

    log_lower: Callable
    log_upper: Callable
    kind: str

    def lower(self, r):
        return np.exp(self.log_lower(r))

    def upper(self, r):
        return np.exp(self.log_upper(r))

    def audit(self, r_max=20.0, n=10_000):
        """Check monotonicity and ordering on a radius grid."""
        rs = np.linspace(0.0, r_max, n)
        lo = np.asarray(self.log_lower(rs), dtype=float)
        hi = np.asarray(self.log_upper(rs), dtype=float)
        order_ok = bool(np.all(lo <= hi + 1e-12))
        lower_monotone = bool(np.all(np.diff(lo) <= 1e-12))
        peak = int(np.argmax(hi))
        upper_flat_beyond_peak = bool(np.all(np.diff(hi[peak:]) <= 1e-12))
        return {
            "order_ok": order_ok,
            "lower_nonincreasing": lower_monotone,
            "upper_nonincreasing_beyond_peak": upper_flat_beyond_peak,
            "r_max": r_max,
            "n": n,
        }


def envelope_fns(model):
    """Envelope pair for the model's state noise (iid or dependent)."""
    noise = model.state_noise
    return EnvelopeFns(
        log_lower=noise.log_radial_min,
        log_upper=noise.log_radial_max,
        kind=noise.kind,
    )


def envelope_radius(model, delta, d_value):
    """Radius fed to the envelopes: (a+1) b0 + (a+1) b delta + D."""
    a, b0, b = model.f_lip, model.h_b0, model.h_b
    return (a + 1.0) * b0 + (a + 1.0) * b * delta + d_value


# ---------------------------------------------------------------------------
# preimage distance (three modes)


def preimage_distance_exact(model, y, yp):
    """|f(h^-1(y)) - h^-1(y')| for invertible h."""
    if model.h_inverse is None:
        raise UnavailableModeError("exact mode needs an invertible observation map")
    return abs(float(model.f(model.h_inverse(float(y)))) - float(model.h_inverse(float(yp))))


def preimage_distance_recorded(model, eps_prev, zeta, eps):
    """Noise-record bound: (a+1) b0 + a b |eps_prev| + |zeta| + b |eps|."""
    a, b0, b = model.f_lip, model.h_b0, model.h_b
    return (a + 1.0) * b0 + a * b * np.abs(eps_prev) + np.abs(zeta) + b * np.abs(eps)


def misspec_distance_forms(truth, eps_prev, zeta, eps):
    """Both upper-bound forms for mis-specified data; either is valid.

    The shared tail is a* b* |eps_prev| + b* |eps| + |zeta| with the
    data-generating model's constants; the head is kappa plus either
    (1 + a*) b0* or 2 a* b*.
    """
    tm = truth.model
    a, b0, b = tm.f_lip, tm.h_b0, tm.h_b
    tail = a * b * np.abs(eps_prev) + b * np.abs(eps) + np.abs(zeta)
    return {
        "proof_form": truth.kappa + (1.0 + a) * b0 + tail,
        "statement_form": truth.kappa + 2.0 * a * b + tail,
    }


def preimage_distance_misspec(truth, eps_prev, zeta, eps):
    """Safe upper bound for mis-specified data: max of the two forms."""
    forms = misspec_distance_forms(truth, eps_prev, zeta, eps)
    return np.maximum(forms["proof_form"], forms["statement_form"])


def preimage_distance(model, y, yp, mode="auto", noises=None, truth=None):
    """Dispatch over the three modes.

    ``noises`` is (eps_prev, zeta, eps) for the step whose observation pair is
    (y, y'). ``auto`` prefers the exact preimage when the observation map is
    invertible, then the recorded-noise bound.
    """
    if mode == "auto":
        if model.h_inverse is not None:
            mode = "exact"
        elif noises is not None:
            mode = "recorded"
        else:
            raise UnavailableModeError("no invertible observation map and no noise record")
    if mode == "exact":
        return preimage_distance_exact(model, y, yp)
    if mode == "recorded":
        if noises is None:
            raise UnavailableModeError("recorded mode needs the step's noise triple")
        return float(preimage_distance_recorded(model, *noises))
    if mode == "misspec":
        if truth is None or noises is None:
            raise UnavailableModeError("misspec mode needs the truth description and noises")
        return float(preimage_distance_misspec(truth, *noises))
    raise ConfigError(f"unknown preimage-distance mode {mode!r}")


def recorded_distance_series(model, traj):
    """Recorded-noise distance for each observation pair (y_{k-1}, y_k), k = 1..n."""
    eps = traj.obs_noise
    zeta = traj.state_noise
    return preimage_distance_recorded(model, eps[:-1], zeta, eps[1:])


def exact_distance_series(model, traj):
    ys = traj.observations
    return np.array([preimage_distance_exact(model, ys[k - 1], ys[k]) for k in range(1, len(ys))])


def misspec_distance_series(truth, traj):
    """Per-step mis-specified distance bound plus which form dominated."""
    eps = traj.obs_noise
    zeta = traj.state_noise
    forms = misspec_distance_forms(truth, eps[:-1], zeta, eps[1:])
    d = np.maximum(forms["proof_form"], forms["statement_form"])
    info = {
        "proof_form_mean": float(np.mean(forms["proof_form"])),
        "statement_form_mean": float(np.mean(forms["statement_form"])),
        "statement_form_dominates_frac": float(np.mean(forms["statement_form"] >= forms["proof_form"])),
    }
    return d, info


def distance_series(model, ys, mode="auto", traj=None, truth=None):
    """Per-pair distance values for (y_{k-1}, y_k), k = 1..n, plus the mode used.

    ``auto`` prefers the exact preimage, then the recorded-noise bound when a
    trajectory with noise records is supplied.
    """
    ys = np.asarray(ys, dtype=float)
    if mode == "auto":
        if model.h_inverse is not None:
            mode = "exact"
        elif traj is not None:
            mode = "recorded"
        else:
            raise UnavailableModeError("no invertible observation map and no noise record")
    if mode == "exact":
        d = np.array([preimage_distance_exact(model, ys[k - 1], ys[k]) for k in range(1, len(ys))])
    elif mode == "recorded":
        if traj is None:
            raise UnavailableModeError("recorded mode needs a simulated trajectory")
        d = recorded_distance_series(model, traj)
    elif mode == "misspec":
        if truth is None or traj is None:
            raise UnavailableModeError("misspec mode needs the truth description and trajectory")
        d, _ = misspec_distance_series(truth, traj)
    else:
        raise ConfigError(f"unknown distance mode {mode!r}")
    if len(d) != len(ys) - 1:
        raise ConfigError("noise record length does not match the observation sequence")
    return d, mode


# ---------------------------------------------------------------------------
# envelope pairs


def log_envelope_pair(model, delta, d_value, env=None):
    env = env or envelope_fns(model)
    r = envelope_radius(model, delta, d_value)
    return env.log_lower(r), env.log_upper(r)


def envelope_pair(model, y, yp, delta, d_value=None, mode="auto", noises=None, truth=None):
    """(lower, upper) envelope values for the pair (y, y'); natural scale."""
    if d_value is None:
        d_value = preimage_distance(model, y, yp, mode=mode, noises=noises, truth=truth)
    lo, hi = log_envelope_pair(model, delta, d_value)
    return math.exp(lo), math.exp(hi)


def log_envelope_series(model, traj, delta, d_mode="recorded", truth=None):
    """log lower/upper envelopes for every pair (y_{k-1}, y_k), k = 1..n."""
    if d_mode == "recorded":
        d = recorded_distance_series(model, traj)
    elif d_mode == "exact":
        d = exact_distance_series(model, traj)
    elif d_mode == "misspec":
        if truth is None:
            raise UnavailableModeError("misspec mode needs the truth description")
        d, _ = misspec_distance_series(truth, traj)
    else:
        raise ConfigError(f"unknown distance mode {d_mode!r}")
    env = envelope_fns(model)
    r = envelope_radius(model, delta, d)
    return np.asarray(env.log_lower(r), dtype=float), np.asarray(env.log_upper(r), dtype=float)


# ---------------------------------------------------------------------------
# contraction coefficient


def contraction_coeff(eps_lower, eps_upper):
    """1 - (lower/upper)^2, in [0, 1)."""
    if eps_lower <= 0 or eps_upper <= 0:
        raise EnvelopeOrderError("envelope values must be positive")
    if eps_lower > eps_upper * (1.0 + 1e-12):
        raise EnvelopeOrderError("lower envelope exceeds upper envelope")
    ratio = min(eps_lower / eps_upper, 1.0)
    return 1.0 - ratio * ratio


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
# likelihood suprema and the tail-ratio condition


def likelihood_sup(model, y, region="all", grid_n=20_001):
    """sup of x -> v(y - h(x)) over a region.

    ``"all"`` uses that h is surjective, so the supremum is the density peak.
    A StateSet region is maximized on a grid over its interval at the stated
    resolution.
    """
    v = model.obs_noise
    if region == "all":
        return v.sup()
    if isinstance(region, StateSet):
        if not region.is_interval:
            raise RepresentationError("grid maximization needs an interval region")
        xs = np.linspace(region.lo, region.hi, grid_n)
        xs = xs[np.asarray(region.contains(xs), dtype=bool)]
        if xs.size == 0:
            return 0.0
        return float(np.max(np.exp(v.logpdf(y - np.asarray(model.h(xs))))))
    raise ConfigError("region must be 'all' or a StateSet")


def likelihood_sup_complement(model, y, delta):
    """sup of the likelihood outside the delta-set: the noise tail supremum."""
    return model.obs_noise.tail_sup(delta)


def log_likelihood_sup(model, y=None):
    return math.log(model.obs_noise.sup())


def delta_for_eta(model, eta):
    """Smallest radius making the outside-set likelihood <= eta times the peak."""
    return model.obs_noise.delta_for_tail_ratio(eta)


def eta_for_delta(model, delta):
    """Achieved tail ratio for a given radius."""
    return model.obs_noise.tail_sup(delta) / model.obs_noise.sup()


def psi_floor(model, yp, delta):
    """Lower bound on the set-restricted likelihood mass at observation y'.

    Lebesgue measure of the delta-set times the smallest density value inside
    the band; pre-staged here for the bound assembly's feasibility checks.
    """
    c = ld_set(model, yp, delta)
    return c.measure * model.obs_noise.radial_min(delta)


# ---------------------------------------------------------------------------
# LD set functions (continuous and finite)


@dataclass(frozen=True)
class LdSetFunction:
    """Observation-indexed sets with their envelope pair and reference measure.

    The reference measure is unrestricted Lebesgue; envelope values for a pair
    of observations use the exact preimage distance unless a distance value is
    supplied by the caller.
    """

    model: object
    delta: float

    def set_for(self, y):
        return ld_set(self.model, y, self.delta)

    def envelopes(self, y, yp, d_value=None):
        return envelope_pair(self.model, y, yp, self.delta, d_value=d_value)

    def measure_within(self, yp, lo, hi):
        """Lebesgue measure of [lo, hi] intersected with the set at y'."""
        c = self.set_for(yp)
        return max(0.0, min(hi, c.hi) - max(lo, c.lo))


def interval_ld_family(model, delta):
    if delta <= 0:
        raise ConfigError("delta must be positive")
    return LdSetFunction(model=model, delta=delta)


@dataclass(frozen=True)
class FiniteLdSetFunction:
    """Explicit per-bin subsets of a finite state space, uniform reference."""

    fmodel: object
    set_table: tuple  # tuple of index arrays
    obs_to_bin: Callable

    def set_for_bin(self, i):
        return self.set_table[i]

    def set_for(self, y):
        return self.set_table[int(self.obs_to_bin(y))]

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

    def envelopes(self, y, yp):
        return self.envelopes_for_bins(int(self.obs_to_bin(y)), int(self.obs_to_bin(yp)))


def finite_ld_construct(fmodel, set_table, obs_to_bin=None):
    """Assemble the finite-model set function from an explicit subset table."""
    table = []
    for i, subset in enumerate(set_table):
        idx = np.asarray(subset, dtype=int)
        if idx.size == 0:
            raise ConstructionError(f"bin {i} has an empty state subset")
        if idx.min() < 0 or idx.max() >= fmodel.m:
            raise ConstructionError(f"bin {i} references states outside the model")
        table.append(idx)
    if obs_to_bin is None:
        obs_to_bin = lambda y: int(round(float(y)))  # noqa: E731
    return FiniteLdSetFunction(fmodel=fmodel, set_table=tuple(table), obs_to_bin=obs_to_bin)


# ---------------------------------------------------------------------------
# numerical verification of the sandwich property


def verify_ld_property(model, ld, y, yp, budget=1000, seed=0, quad_tol=1e-8,
                       rel_slack=1e-6, envelope_override=None):
    """Sample the two-sided kernel sandwich and report worst margins.

    For ``budget`` random source points x in the set at y and random
    subintervals A of the set at y', integrates the transition kernel over A
    by adaptive quadrature and checks

        lower * |A| <= Q(x, A) <= upper * |A|

    with relative slack. Violations become report entries, never exceptions.
    """
    rng = np.random.default_rng(seed)
    c_src = ld.set_for(y)
    c_dst = ld.set_for(yp)
    if not (c_src.is_interval and c_dst.is_interval):
        raise RepresentationError("verification needs interval set representations")
    if envelope_override is not None:
        eps_lo, eps_hi = envelope_override
    else:
        eps_lo, eps_hi = ld.envelopes(y, yp)
    worst_lower = math.inf
    worst_upper = math.inf
    violations = []
    for _ in range(budget):
        x = c_src.lo + (c_src.hi - c_src.lo) * rng.random()
        u1, u2 = np.sort(rng.random(2))
        a = c_dst.lo + (c_dst.hi - c_dst.lo) * u1
        b = c_dst.lo + (c_dst.hi - c_dst.lo) * u2
        if b - a < 1e-12 * max(1.0, abs(c_dst.hi - c_dst.lo)):
            continue
        mass, _ = quad(lambda s: transition_density(model, x, s), a, b,
                       epsabs=quad_tol, epsrel=quad_tol, limit=200)
        lam = b - a
        lower_margin = mass / (eps_lo * lam) - 1.0
        upper_margin = 1.0 - mass / (eps_hi * lam)
        worst_lower = min(worst_lower, lower_margin)
        worst_upper = min(worst_upper, upper_margin)
        if lower_margin < -rel_slack and len(violations) < 20:
            violations.append({"kind": "lower", "x": x, "a": a, "b": b,
                               "mass": mass, "bound": eps_lo * lam})
        if upper_margin < -rel_slack and len(violations) < 20:
            violations.append({"kind": "upper", "x": x, "a": a, "b": b,
                               "mass": mass, "bound": eps_hi * lam})
    return {
        "pairs_checked": budget,
        "worst_lower_margin": worst_lower,
        "worst_upper_margin": worst_upper,
        "violations": violations,
        "passed": len(violations) == 0,
    }


def verify_ld_property_finite(ld, bin_src, bin_dst, rel_slack=1e-12, envelope_override=None):
    """Exhaustive subset check of the sandwich on a finite model (|C'| <= 16)."""
    src = ld.set_for_bin(bin_src)
    dst = ld.set_for_bin(bin_dst)
    if len(dst) > 16:
        raise RepresentationError("exhaustive subset check capped at 16 target states")
    if envelope_override is not None:
        eps_lo, eps_hi = envelope_override
    else:
        eps_lo, eps_hi = ld.envelopes_for_bins(bin_src, bin_dst)
    Q = ld.fmodel.Q
    worst_lower = math.inf
    worst_upper = math.inf
    violations = []
    checked = 0
    for x in src:
        row = Q[x, dst]
        for bits in range(1, 1 << len(dst)):
            sel = [(bits >> t) & 1 for t in range(len(dst))]
            mask = np.array(sel, dtype=bool)
            mass = float(row[mask].sum())
            lam = mask.sum() / len(dst)
            checked += 1
            lower_margin = mass / (eps_lo * lam) - 1.0
            upper_margin = 1.0 - mass / (eps_hi * lam)
            worst_lower = min(worst_lower, lower_margin)
            worst_upper = min(worst_upper, upper_margin)
            if lower_margin < -rel_slack and len(violations) < 20:
                violations.append({"kind": "lower", "x": int(x), "subset": int(bits), "mass": mass})
            if upper_margin < -rel_slack and len(violations) < 20:
                violations.append({"kind": "upper", "x": int(x), "subset": int(bits), "mass": mass})
    return {
        "pairs_checked": checked,
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
    log_lo, _ = log_envelope_series(model, traj, delta, d_mode="recorded")
    return -log_lo


def misspec_diag_series(filter_model, truth, traj, delta):
    """Per-step log-envelope diagnostic under mis-specification.

    Uses the statement-form distance head (kappa + 2 a* b*) with the filtering
    model's envelope; positive sign convention follows the source quantity
    (log of the lower envelope, typically negative).
    """
    tm = truth.model
    a, b = tm.f_lip, tm.h_b
    eps = traj.obs_noise
    zeta = traj.state_noise
    d = truth.kappa + 2.0 * a * b + a * b * np.abs(eps[:-1]) + b * np.abs(eps[1:]) + np.abs(zeta)
    env = envelope_fns(filter_model)
    r = envelope_radius(filter_model, delta, d)
    return np.asarray(env.log_lower(r), dtype=float)
