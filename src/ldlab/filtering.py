"""Filter representations: grid recursion, bootstrap particles, finite vectors.

Log-domain throughout: every representation stores log-weights and normalizes
by subtracting a log-sum-exp. The grid predict step exponentiates after
subtracting the max log-weight, applies the transition kernel with trapezoidal
quadrature in natural scale, and returns to logs, so no product of likelihoods
is ever formed in natural scale.

The paired grid runner propagates one filter plus the *difference* of the two
normalized filters in scaled form (direction vector plus separate log-scale).
The difference of two normalized filter recursions is exactly linear in the
difference vector, so total-variation values keep full relative precision long
after the two weight arrays would have collided in float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .dists import PointMassPrior
from .errors import (
    ConfigError,
    DegenerateInitError,
    FilterCollapseError,
    InsufficientDataError,
    LabError,
    OracleScaleError,
    RepresentationError,
)
from .models import loglik

LOG_FLOOR = -745.0  # below this, exp underflows float64


@dataclass(frozen=True)
class ReprConfig:
    """How a filter is represented and stepped."""

    kind: str = "grid"
    nodes: int = 512
    coverage_k: float = 8.0
    min_halfwidth: float = 1e-3
    particles: int = 10_000
    ess_fraction: float = 0.5
    smooth_cells: float = 2.5
    smooth_halfwidth: int = 6
    paired: bool = True

    def spec(self):
        d = {"kind": self.kind}
        if self.kind == "grid":
            d.update(nodes=self.nodes, coverage_k=self.coverage_k, paired=self.paired)
        elif self.kind == "particles":
            d.update(particles=self.particles, ess_fraction=self.ess_fraction)
        return d


@dataclass(frozen=True)
class FilterState:
    """One filtering distribution in one of three representations.

    grid: ``nodes`` are uniformly spaced, ``log_weights`` are log densities at
    the nodes, normalized against trapezoidal quadrature weights.
    particles: ``positions`` plus normalized ``log_weights``.
    finite: ``log_weights`` are log probabilities.
    """

    kind: str
    step: int
    log_weights: np.ndarray
    nodes: Optional[np.ndarray] = None
    positions: Optional[np.ndarray] = None
    ess: Optional[float] = None

    @property
    def probs(self):
        if self.kind != "finite":
            raise RepresentationError("probs is only defined for finite states")
        return np.exp(self.log_weights)


def trap_weights(nodes):
    """Trapezoidal quadrature weights for a uniform grid."""
    dx = nodes[1] - nodes[0]
    tau = np.full(nodes.shape, dx)
    tau[0] *= 0.5
    tau[-1] *= 0.5
    return tau


def _normalize_grid(log_w, tau, step):
    lse = logsumexp(log_w + np.log(tau))
    if not np.isfinite(lse):
        raise FilterCollapseError(step)
    return log_w - lse


def grid_moments(state):
    tau = trap_weights(state.nodes)
    w = np.exp(state.log_weights - state.log_weights.max())
    w /= (w * tau).sum()
    mean = float((w * state.nodes * tau).sum())
    var = float((w * (state.nodes - mean) ** 2 * tau).sum())
    return mean, math.sqrt(max(var, 0.0))


def _prior_log_on_grid(prior, nodes):
    if isinstance(prior, PointMassPrior):
        # atom lands on the nearest node
        lw = np.full(nodes.shape, -np.inf)
        lw[int(np.argmin(np.abs(nodes - prior.x)))] = 0.0
        return lw
    return np.asarray(prior.logpdf(nodes), dtype=float)


def filter_init(model, prior, y0, cfg, rng=None):
    """Initial filter: prior reweighted by the first likelihood."""
    if cfg.kind == "grid":
        lo, hi = prior.window(cfg.coverage_k)
        if hi - lo < 2.0 * cfg.min_halfwidth:
            c = 0.5 * (lo + hi)
            lo, hi = c - cfg.min_halfwidth, c + cfg.min_halfwidth
        nodes = np.linspace(lo, hi, cfg.nodes)
        log_w = _prior_log_on_grid(prior, nodes) + loglik(model, nodes, y0)
        if np.all(log_w <= LOG_FLOOR):
            raise DegenerateInitError("prior and first likelihood do not overlap on the grid")
        tau = trap_weights(nodes)
        return FilterState(kind="grid", step=0, log_weights=_normalize_grid(log_w, tau, 0), nodes=nodes)
    if cfg.kind == "particles":
        if rng is None:
            raise ConfigError("particle filters need an RNG")
        pos = np.asarray(prior.sample(rng, cfg.particles), dtype=float)
        log_w = np.asarray(loglik(model, pos, y0), dtype=float)
        if np.all(log_w <= LOG_FLOOR):
            raise DegenerateInitError("no particle received positive likelihood mass")
        log_w = log_w - logsumexp(log_w)
        state = FilterState(kind="particles", step=0, log_weights=log_w, positions=pos,
                            ess=_ess(log_w))
        return _maybe_resample(state, cfg, rng)
    raise ConfigError(f"filter_init does not handle kind {cfg.kind!r}")


def finite_filter_init(fmodel, nu, y0):
    nu = np.asarray(nu, dtype=float)
    w = nu * fmodel.emission_vector(y0)
    s = w.sum()
    if s <= 0:
        raise DegenerateInitError("prior carries no mass under the first emission")
    with np.errstate(divide="ignore"):
        return FilterState(kind="finite", step=0, log_weights=np.log(w / s))


def _ess(log_w):
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return float(1.0 / np.sum(w * w))


def systematic_resample(log_w, rng):
    """Systematic resampling indices from one uniform draw."""
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    n = len(w)
    u = (rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(w), u)
    return np.clip(idx, 0, n - 1)


def _maybe_resample(state, cfg, rng):
    if state.ess is not None and state.ess < cfg.ess_fraction * cfg.particles:
        idx = systematic_resample(state.log_weights, rng)
        m = len(idx)
        return replace(
            state,
            positions=state.positions[idx],
            log_weights=np.full(m, -math.log(m)),
            ess=float(m),
        )
    return state


def grid_kernel(model, nodes, tgt=None):
    """K[i, j] = q(x_j, t_i): transition density from source node j into
    target node t_i. With ``tgt`` omitted the kernel is square on ``nodes``.

    One N x M array holds the offsets t_i - f(x_j), their log density and the
    density in turn."""
    if tgt is None:
        tgt = nodes
    u = np.subtract.outer(tgt, np.asarray(model.f(nodes), dtype=float))
    return np.exp(model.state_noise.log_kernel(nodes, u), out=u)


def noise_tail_radius(noise, eta=1e-12):
    """Radius beyond which the state-noise density is below eta times its peak.

    For dependent noise the envelope sandwich turns the psi tail radius at
    eta * mu_minus / mu_plus into a uniform-in-x radius.
    """
    if noise.kind == "iid":
        return noise.density.delta_for_tail_ratio(eta)
    return noise.psi.delta_for_tail_ratio(eta * noise.mu_minus / noise.mu_plus)


def filter_step(model, state, y, cfg=None, rng=None, kernel=None):
    """Advance one observation: predict through the kernel, then reweight."""
    if state.kind == "grid":
        tau = trap_weights(state.nodes)
        K = grid_kernel(model, state.nodes) if kernel is None else kernel
        w = np.exp(state.log_weights - state.log_weights.max())
        pred = K @ (tau * w)
        with np.errstate(divide="ignore"):
            log_w = np.log(pred) + loglik(model, state.nodes, y)
        try:
            log_w = _normalize_grid(log_w, tau, state.step + 1)
        except FilterCollapseError:
            raise FilterCollapseError(state.step + 1)
        return replace(state, step=state.step + 1, log_weights=log_w)
    if state.kind == "particles":
        if rng is None or cfg is None:
            raise ConfigError("particle steps need cfg and an RNG")
        pos = _propagate_particles(model, state.positions, rng)
        log_w = state.log_weights + loglik(model, pos, y)
        lse = logsumexp(log_w)
        if not np.isfinite(lse):
            raise FilterCollapseError(state.step + 1)
        log_w = log_w - lse
        new = FilterState(kind="particles", step=state.step + 1, log_weights=log_w,
                          positions=pos, ess=_ess(log_w))
        return _maybe_resample(new, cfg, rng)
    raise RepresentationError(f"filter_step does not handle kind {state.kind!r}")


def finite_filter_step(fmodel, state, y):
    w = state.probs @ fmodel.Q
    w = w * fmodel.emission_vector(y)
    s = w.sum()
    if s <= 0 or not np.isfinite(s):
        raise FilterCollapseError(state.step + 1)
    with np.errstate(divide="ignore"):
        return FilterState(kind="finite", step=state.step + 1, log_weights=np.log(w / s))


def _propagate_particles(model, positions, rng):
    noise = model.state_noise
    f_vals = np.asarray(model.f(positions), dtype=float)
    if noise.kind == "iid":
        return f_vals + noise.density.sample(rng, size=len(positions))
    sampler_vec = getattr(noise, "sampler_vec", None)
    if sampler_vec is not None:
        return f_vals + sampler_vec(rng, positions)
    return f_vals + np.array([noise.sample(rng, x) for x in positions])


# ---------------------------------------------------------------------------
# window adaptation


@dataclass(frozen=True)
class AdaptPolicy:
    coverage_k: float = 8.0
    min_halfwidth: float = 1e-3
    keep_log_drop: float = 46.0  # nodes within this log range of the peak stay covered


def grid_adapt(state, policy=None):
    """Recenter the grid window at mean +/- k std, log-linear re-interpolation.

    Keeps any node whose log-weight is within ``keep_log_drop`` of the peak,
    so off-window mass loss stays below 1e-8. Returns the state unchanged when
    the window already matches the target.
    """
    policy = policy or AdaptPolicy()
    mean, std = grid_moments(state)
    half = max(policy.coverage_k * std, policy.min_halfwidth)
    lo, hi = mean - half, mean + half
    # never cut off nodes that still carry weight
    peak = state.log_weights.max()
    alive = state.nodes[state.log_weights > peak - policy.keep_log_drop]
    if alive.size:
        lo = min(lo, float(alive.min()))
        hi = max(hi, float(alive.max()))
    dx = state.nodes[1] - state.nodes[0]
    if abs(lo - state.nodes[0]) < 0.05 * dx and abs(hi - state.nodes[-1]) < 0.05 * dx:
        return state
    new_nodes = np.linspace(lo, hi, len(state.nodes))
    new_log_w = np.interp(new_nodes, state.nodes, state.log_weights,
                          left=-np.inf, right=-np.inf)
    tau_old = trap_weights(state.nodes)
    outside = (state.nodes < lo) | (state.nodes > hi)
    loss = float(np.sum(np.exp(state.log_weights[outside]) * tau_old[outside]))
    if loss > 1e-8:
        raise FilterCollapseError(state.step, f"window adaptation lost {loss:.3e} mass")
    tau = trap_weights(new_nodes)
    return replace(state, nodes=new_nodes, log_weights=_normalize_grid(new_log_w, tau, state.step))


# ---------------------------------------------------------------------------
# exact finite-state filtering


def exact_filter_finite(fmodel, nu, ys):
    """Forward recursion; returns all filter vectors and the log evidence."""
    nu = np.asarray(nu, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = fmodel.m
    out = np.empty((len(ys), m))
    w = nu * fmodel.emission_vector(ys[0])
    s = w.sum()
    if s <= 0:
        raise DegenerateInitError("prior carries no mass under the first emission")
    log_z = math.log(s)
    out[0] = w / s
    for k in range(1, len(ys)):
        w = (out[k - 1] @ fmodel.Q) * fmodel.emission_vector(ys[k])
        s = w.sum()
        if s <= 0 or not np.isfinite(s):
            raise FilterCollapseError(k)
        log_z += math.log(s)
        out[k] = w / s
    return out, log_z


def _path_digits(m, n_plus_1):
    total = m**n_plus_1
    idx = np.arange(total)
    return np.stack([(idx // m**j) % m for j in range(n_plus_1)], axis=1)


def exhaustive_terminal_sums(fmodel, nu, ys):
    """Unnormalized terminal-state sums over every path, in scaled form.

    Returns (scaled_sums, log_scale): the unnormalized filter numerator for
    terminal state j is exp(log_scale) * scaled_sums[j]. Independent oracle
    for the forward recursion; capped at 2^20 paths.
    """
    nu = np.asarray(nu, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = fmodel.m
    n = len(ys) - 1
    if m > 12 or n > 20 or m ** (n + 1) > 2**20:
        raise OracleScaleError("path enumeration capped at 2^20 paths, m <= 12, n <= 20")
    paths = _path_digits(m, n + 1)
    g = np.stack([fmodel.emission_vector(y) for y in ys], axis=0)  # (n+1, m)
    with np.errstate(divide="ignore"):
        log_w = np.log(nu)[paths[:, 0]]
        for k in range(1, n + 1):
            log_w = log_w + np.log(fmodel.Q)[paths[:, k - 1], paths[:, k]]
        for k in range(0, n + 1):
            log_w = log_w + np.log(g[k])[paths[:, k]]
    peak = np.max(log_w)
    if not np.isfinite(peak):
        raise FilterCollapseError(n, "all paths carry zero mass")
    w = np.exp(log_w - peak)
    sums = np.bincount(paths[:, n], weights=w, minlength=m)
    return sums, float(peak)


def exhaustive_filter_finite(fmodel, nu, ys):
    """Exhaustive-path variant of exact_filter_finite (final filter only)."""
    sums, log_scale = exhaustive_terminal_sums(fmodel, nu, ys)
    z = sums.sum()
    return sums / z, math.log(z) + log_scale


# ---------------------------------------------------------------------------
# total variation


def tv_half_l1(p, q):
    """Half the L1 distance between two probability vectors."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def _smooth_taps(halfwidth, sigma_cells):
    z = np.arange(-halfwidth, halfwidth + 1, dtype=float)
    t = np.exp(-0.5 * (z / sigma_cells) ** 2)
    return t / t.sum()


def project_particles_to_grid(state, grid_state, smooth_cells=2.5, smooth_halfwidth=6):
    """Deposit particle mass on the grid nodes and smooth it.

    Linear two-node deposition followed by a narrow Gaussian kernel; the same
    kernel is meant to be applied to the grid density before comparing, so
    both sides live at the projection's resolution.
    """
    nodes = grid_state.nodes
    n = len(nodes)
    dx = nodes[1] - nodes[0]
    w = np.exp(state.log_weights - logsumexp(state.log_weights))
    pos = np.clip((state.positions - nodes[0]) / dx, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    i1 = np.minimum(i0 + 1, n - 1)
    mass = np.bincount(i0, weights=w * (1.0 - frac), minlength=n)
    mass += np.bincount(i1, weights=w * frac, minlength=n)
    taps = _smooth_taps(smooth_halfwidth, smooth_cells)
    mass = np.convolve(mass, taps, mode="same")
    tau = trap_weights(nodes)
    dens = mass / tau
    return dens / (dens * tau).sum()


def tv_distance(a, b, smooth_cells=2.5, smooth_halfwidth=6):
    """Total variation distance, sup_A |a(A) - b(A)| = half L1 of densities.

    Grid states must share their grid; particle-vs-grid goes through the
    smoothed grid projection; particle-vs-particle is not defined.
    """
    if a.kind == "finite" and b.kind == "finite":
        if len(a.log_weights) != len(b.log_weights):
            raise RepresentationError("finite states of different sizes")
        return tv_half_l1(a.probs, b.probs)
    if a.kind == "grid" and b.kind == "grid":
        if len(a.nodes) != len(b.nodes) or not np.allclose(a.nodes, b.nodes, rtol=0, atol=1e-12):
            raise RepresentationError("grid states live on different windows")
        tau = trap_weights(a.nodes)
        wa = np.exp(a.log_weights)
        wb = np.exp(b.log_weights)
        return 0.5 * float(np.sum(np.abs(wa - wb) * tau))
    if {a.kind, b.kind} == {"particles", "grid"}:
        part, grid = (a, b) if a.kind == "particles" else (b, a)
        dens = project_particles_to_grid(part, grid, smooth_cells, smooth_halfwidth)
        tau = trap_weights(grid.nodes)
        taps = _smooth_taps(smooth_halfwidth, smooth_cells)
        gmass = np.convolve(np.exp(grid.log_weights) * tau, taps, mode="same")
        gdens = gmass / tau
        gdens = gdens / (gdens * tau).sum()
        return 0.5 * float(np.sum(np.abs(dens - gdens) * tau))
    raise RepresentationError(f"tv_distance undefined for {a.kind!r} vs {b.kind!r}")


# ---------------------------------------------------------------------------
# TV series and decay fits


@dataclass
class TvSeries:
    """Per-step TV values with exact log values and optional bound column."""

    n: np.ndarray
    tv: np.ndarray
    log_tv: np.ndarray
    bound_log: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        cols = "n,tv,log_tv" + (",bound_log" if self.bound_log is not None else "")
        lines = [cols]
        for i in range(len(self.n)):
            row = f"{int(self.n[i])},{self.tv[i]:.17g},{self.log_tv[i]:.17g}"
            if self.bound_log is not None:
                row += f",{self.bound_log[i]:.17g}"
            lines.append(row)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        meta_path = str(path)
        meta_path = meta_path[: meta_path.rfind(".")] + ".meta.json" if "." in meta_path else meta_path + ".meta.json"
        with open(meta_path, "w") as fh:
            json.dump(self.meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    n_clipped: int


def decay_rate(series, fit_lo=None, fit_hi=None):
    """Least-squares slope of log tv against n over [fit_lo, fit_hi].

    Non-positive tv values are clipped to the smallest positive value observed
    in the fit range and counted in ``n_clipped`` rather than dropped.
    """
    ns = np.asarray(series.n, dtype=float)
    log_tv = np.asarray(series.log_tv, dtype=float)
    lo = ns.min() if fit_lo is None else fit_lo
    hi = ns.max() if fit_hi is None else fit_hi
    m = (ns >= lo) & (ns <= hi)
    x = ns[m]
    y = log_tv[m].copy()
    finite = np.isfinite(y)
    if finite.sum() == 0:
        raise InsufficientDataError("no positive tv values in the fit range")
    n_clipped = int((~finite).sum())
    y[~finite] = y[finite].min()
    if len(x) < 3:
        raise InsufficientDataError("need at least 3 points for a decay fit")
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return DecayFit(slope=float(coef[0]), intercept=float(coef[1]), r_squared=r2,
                    n_points=len(x), n_clipped=n_clipped)


# ---------------------------------------------------------------------------
# paired grid propagation


@dataclass
class PairedGridResult:
    tv: np.ndarray
    log_tv: np.ndarray
    state1: FilterState
    state2: FilterState
    diagnostics: dict


def _pair_quotient_update(u, uD, s, tau, step):
    """Exact update of (phi, D, s) under a shared positive linear operator.

    phi' = L phi / <L phi>; the difference d = e^s D obeys
    d' = (L d <L phi> - L phi <L d>) / (<L phi> <L phi + L d>).
    """
    z = float((u * tau).sum())
    if z <= 0 or not np.isfinite(z):
        raise FilterCollapseError(step)
    zD = float((uD * tau).sum())
    es = 0.0 if s == -np.inf else math.exp(s)
    denom2 = z + es * zD
    phi = u / z
    Dt = (uD * z - u * zD) / (z * denom2)
    c = float(np.max(np.abs(Dt)))
    if c <= 0.0 or not np.isfinite(c):
        return phi, np.zeros_like(u), -np.inf
    return phi, Dt / c, s + math.log(c)


def _pair_tv(D, s, tau):
    if s == -np.inf:
        return 0.0, -np.inf
    log_tv = s + math.log(0.5 * float(np.sum(np.abs(D) * tau)))
    log_tv = min(log_tv, 0.0)  # tv can never exceed 1
    return math.exp(log_tv), log_tv


def run_grid_pair(model, prior1, prior2, ys, cfg):
    """Run two grid filters on a shared window, tracking their difference.

    Both filters see the same observations; the returned TV series is exact to
    float64 relative precision regardless of how small it gets.
    """
    ys = np.asarray(ys, dtype=float)
    k = cfg.coverage_k
    lo1, hi1 = prior1.window(k)
    lo2, hi2 = prior2.window(k)
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    nodes = np.linspace(lo, hi, cfg.nodes)
    tau = trap_weights(nodes)

    def init_density(prior):
        log_w = _prior_log_on_grid(prior, nodes) + loglik(model, nodes, ys[0])
        if np.all(log_w <= LOG_FLOOR):
            raise DegenerateInitError("prior and first likelihood do not overlap on the grid")
        log_w = _normalize_grid(log_w, tau, 0)
        return np.exp(log_w)

    phi = init_density(prior1)
    phi2 = init_density(prior2)
    Dt = phi2 - phi
    c = float(np.max(np.abs(Dt)))
    if c > 0:
        D, s = Dt / c, math.log(c)
    else:
        D, s = np.zeros_like(phi), -np.inf

    tvs = np.empty(len(ys))
    log_tvs = np.empty(len(ys))
    tvs[0], log_tvs[0] = _pair_tv(D, s, tau)
    adapt_count = 0
    r_noise = noise_tail_radius(model.state_noise)

    try:
        for step in range(1, len(ys)):
            # target window covering the predictive support of BOTH filters:
            # the image of mean +/- k std under f spreads at most f_lip * k * std,
            # plus the state-noise tail radius
            mean1, std1 = _density_moments(nodes, phi, tau)
            es = 0.0 if s == -np.inf else math.exp(s)
            phi_other = np.maximum(phi + es * D, 0.0)
            mass_other = float((phi_other * tau).sum())
            if mass_other > 0:
                mean2, std2 = _density_moments(nodes, phi_other / mass_other, tau)
            else:
                mean2, std2 = mean1, std1
            tgt_lo, tgt_hi = _predictive_window(model, [(mean1, std1), (mean2, std2)],
                                                k, r_noise, cfg.min_halfwidth)
            dx = nodes[1] - nodes[0]
            if abs(tgt_lo - nodes[0]) > 0.05 * dx or abs(tgt_hi - nodes[-1]) > 0.05 * dx:
                adapt_count += 1
            tgt = np.linspace(tgt_lo, tgt_hi, cfg.nodes)
            K = grid_kernel(model, nodes, tgt)
            g = np.exp(loglik(model, tgt, ys[step]))
            u = g * (K @ (tau * phi))
            uD = g * (K @ (tau * D))
            nodes = tgt
            tau = trap_weights(nodes)
            phi, D, s = _pair_quotient_update(u, uD, s, tau, step)
            tvs[step], log_tvs[step] = _pair_tv(D, s, tau)
    except LabError as exc:
        exc.tv_prefix = (tvs[:step], log_tvs[:step])
        raise

    es = 0.0 if s == -np.inf else math.exp(s)
    phi_other = np.maximum(phi + es * D, 0.0)
    phi_other /= (phi_other * tau).sum()
    with np.errstate(divide="ignore"):
        state1 = FilterState(kind="grid", step=len(ys) - 1, log_weights=np.log(phi), nodes=nodes)
        state2 = FilterState(kind="grid", step=len(ys) - 1, log_weights=np.log(phi_other), nodes=nodes)
    diag = {
        "adapt_count": adapt_count,
        "final_window": [float(nodes[0]), float(nodes[-1])],
        "final_posterior_mean_std": list(_density_moments(nodes, phi, tau)),
    }
    return PairedGridResult(tv=tvs, log_tv=log_tvs, state1=state1, state2=state2, diagnostics=diag)


def _predictive_window(model, moment_pairs, k, r_noise, min_halfwidth):
    """Window containing the one-step predictive mass of every listed filter."""
    lo = math.inf
    hi = -math.inf
    for mean, std in moment_pairs:
        center = float(model.f(mean))
        half = max(k * model.f_lip * std, min_halfwidth) + r_noise
        lo = min(lo, center - half)
        hi = max(hi, center + half)
    return lo, hi


def _density_moments(nodes, dens, tau):
    mean = float((dens * nodes * tau).sum())
    var = float((dens * (nodes - mean) ** 2 * tau).sum())
    return mean, math.sqrt(max(var, 0.0))
