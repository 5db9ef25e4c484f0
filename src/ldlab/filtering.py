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

Every grid filter steps by one of two routes, ``run_grid_pair`` (the pair
and its difference) or ``grid_filters`` (any number of filters, each stepped
on its own). Each step's window, the same in both, covers every filter's
predictive, clipped to the local Doeblin set {x : |h(x) - y| <= r} of the
step's observation y, off which the likelihood is below 1e-12 times its peak.
A step whose posterior mass off the set may exceed 1e-10, an observation far
out in a filter's predictive, is rerun on a wider set. The window then
follows the posterior, not the state noise's tail: on dep-noise's Student-t
noise that tail alone spans about 1650.

Every grid TV (paired, unpaired, particle projections) is half the L1 norm of
a difference D on uniform nodes, taken by one kink-aware rule, ``_half_l1``: D
is integrated between its sign changes, located on a four-node cubic, so the
kink of |D| costs no accuracy. On the Gaussian presets at their 256 nodes the
paired log TV is within 1e-8 of the closed-form Kalman value at every step; a
trapezoid sum of |D| is O(h^2) and was 4e-4 off at 512 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .dists import PointMassPrior
from .doeblin import delta_for_eta, ld_set
from .errors import (
    DegenerateInitError,
    FilterCollapseError,
    InsufficientDataError,
    LabError,
    OracleScaleError,
    RepresentationError,
)
from .models import loglik

LOG_FLOOR = -745.0  # below this, exp underflows float64
# Tail ratio of the LD set that clips each grid window (the same ratio as
# noise_tail_radius's default), and the bound on the posterior mass off that
# set above which a step is rerun on a wider one (see _ld_clipped_step).
LD_TAIL_RATIO = 1e-12
LD_MASS_TOL = 1e-10
# A grid window covers mean +/- COVERAGE_K std of a prior or, mapped through
# f, of a predictive, and is never narrower than +/- MIN_HALFWIDTH.
COVERAGE_K = 8.0
MIN_HALFWIDTH = 1e-3
# A particle filter resamples when its ESS falls below this share of its count.
ESS_FRACTION = 0.5
# Gaussian smoothing of particle-vs-grid projections: std in cells, half-width
# of the taps in cells.
SMOOTH_CELLS = 2.5
SMOOTH_HALFWIDTH = 6


@dataclass(frozen=True)
class ReprConfig:
    """Grid node count, and the particle count of a particle filter."""

    nodes: int = 512
    particles: int = 10_000


@dataclass(frozen=True)
class FilterState:
    """One filtering distribution in one of two representations.

    grid: ``nodes`` are uniformly spaced, ``log_weights`` are log densities at
    the nodes, normalized against trapezoidal quadrature weights.
    particles: ``positions`` plus normalized ``log_weights``.
    Finite-state filters are plain probability vectors (exact_filter_finite).
    """

    kind: str
    step: int
    log_weights: np.ndarray
    nodes: Optional[np.ndarray] = None
    positions: Optional[np.ndarray] = None
    ess: Optional[float] = None


def trap_weights(nodes):
    """Trapezoidal quadrature weights for a uniform grid."""
    dx = nodes[1] - nodes[0]
    tau = np.full(nodes.shape, dx)
    tau[0] *= 0.5
    tau[-1] *= 0.5
    return tau


def _normalize_grid(log_w, tau, step):
    """Normalized log weights, and the log of the trapezoid sum divided out."""
    lse = logsumexp(log_w + np.log(tau))
    if not np.isfinite(lse):
        raise FilterCollapseError(step)
    return log_w - lse, lse


def grid_moments(state):
    tau = trap_weights(state.nodes)
    w = np.exp(state.log_weights - state.log_weights.max())
    w /= (w * tau).sum()
    return _density_moments(state.nodes, w, tau)


def _prior_log_on_grid(prior, nodes):
    if isinstance(prior, PointMassPrior):
        # atom lands on the nearest node
        lw = np.full(nodes.shape, -np.inf)
        lw[int(np.argmin(np.abs(nodes - prior.x)))] = 0.0
        return lw
    return np.asarray(prior.logpdf(nodes), dtype=float)


def grid_init(model, prior, y0, nodes):
    """Initial grid filter on ``nodes``: prior reweighted by the first likelihood."""
    log_w = _prior_log_on_grid(prior, nodes) + loglik(model, nodes, y0)
    if np.all(log_w <= LOG_FLOOR):
        raise DegenerateInitError("prior and first likelihood do not overlap on the grid")
    return FilterState(kind="grid", step=0, nodes=nodes,
                       log_weights=_normalize_grid(log_w, trap_weights(nodes), 0)[0])


def prior_grid(priors, n):
    """``n`` uniform nodes over the union of the priors' windows."""
    lo, hi = zip(*(prior.window(COVERAGE_K) for prior in priors))
    return np.linspace(min(lo), max(hi), n)


def filter_init(model, prior, y0, cfg, rng):
    """Initial particle filter: prior draws reweighted by the first likelihood.

    Grid filters start in ``grid_init`` and step in ``grid_filters``.
    """
    pos = np.asarray(prior.sample(rng, cfg.particles), dtype=float)
    log_w = np.asarray(loglik(model, pos, y0), dtype=float)
    if np.all(log_w <= LOG_FLOOR):
        raise DegenerateInitError("no particle received positive likelihood mass")
    log_w = log_w - logsumexp(log_w)
    state = FilterState(kind="particles", step=0, log_weights=log_w, positions=pos,
                        ess=_ess(log_w))
    return _maybe_resample(state, cfg, rng)


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
    if state.ess is not None and state.ess < ESS_FRACTION * cfg.particles:
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


def grid_step(state, kernel, tgt, log_g):
    """One grid filter step, from the state's window into ``tgt``.

    ``kernel`` is ``grid_kernel(model, state.nodes, tgt)`` and ``log_g`` the
    log likelihood at ``tgt``; both are passed in so that filters sharing a
    window share them too. Returns the new state and the log evidence of the
    observation, the trapezoid sum on ``tgt`` of predictive times likelihood.
    """
    peak = state.log_weights.max()
    w = np.exp(state.log_weights - peak)
    pred = kernel @ (trap_weights(state.nodes) * w)
    with np.errstate(divide="ignore"):
        log_w = np.log(pred) + log_g
    log_w, log_z = _normalize_grid(log_w, trap_weights(tgt), state.step + 1)
    return replace(state, step=state.step + 1, nodes=tgt, log_weights=log_w), log_z + peak


def filter_step(model, state, y, cfg, rng):
    """Advance a particle filter one observation: propagate, then reweight."""
    if state.kind != "particles":
        raise RepresentationError(f"filter_step runs particle filters, not kind {state.kind!r}")
    pos = _propagate_particles(model, state.positions, rng)
    log_w = state.log_weights + loglik(model, pos, y)
    lse = logsumexp(log_w)
    if not np.isfinite(lse):
        raise FilterCollapseError(state.step + 1)
    log_w = log_w - lse
    new = FilterState(kind="particles", step=state.step + 1, log_weights=log_w,
                      positions=pos, ess=_ess(log_w))
    return _maybe_resample(new, cfg, rng)


def _propagate_particles(model, positions, rng):
    noise = model.state_noise
    f_vals = np.asarray(model.f(positions), dtype=float)
    if noise.kind == "iid":
        return f_vals + noise.density.sample(rng, size=len(positions))
    return f_vals + noise.sampler_vec(rng, positions)


# ---------------------------------------------------------------------------
# exact finite-state filtering


def exact_filter_finite(fmodel, nu, ys):
    """Forward recursion; returns all filter vectors and the log evidence."""
    nu = np.asarray(nu, dtype=float)
    ys = np.asarray(ys, dtype=float)
    g = [fmodel.emission_vector(y) for y in ys]
    out = np.empty((len(ys), fmodel.m))
    w = nu * g[0]
    s = w.sum()
    if s <= 0:
        raise DegenerateInitError("prior carries no mass under the first emission")
    log_z = math.log(s)
    out[0] = w / s
    for k in range(1, len(ys)):
        w = (out[k - 1] @ fmodel.Q) * g[k]
        s = w.sum()
        if s <= 0 or not np.isfinite(s):
            raise FilterCollapseError(k)
        log_z += math.log(s)
        out[k] = w / s
    return out, log_z


def _path_log_weights(fmodel, priors, ys, max_paths):
    """Every state path, one row per path, and its log weight under each prior.

    Row i of the weights belongs to ``priors[i]``: its prior, then each
    transition, then each emission, summed in that order. More than
    ``max_paths`` paths raise OracleScaleError.
    """
    m = fmodel.m
    n = len(ys) - 1
    if m ** (n + 1) > max_paths:
        raise OracleScaleError(f"path enumeration capped at {max_paths} paths")
    # row k holds every path's state at step k, digit k of its index in base m
    steps = np.empty((n + 1, m ** (n + 1)), dtype=int)
    for k in range(n + 1):
        steps[k].reshape(-1, m, m**k)[...] = np.arange(m)[:, None]
    with np.errstate(divide="ignore"):
        log_q = np.log(fmodel.Q).ravel()  # entry u*m + v is log Q[u, v]
        log_g = np.log([fmodel.emission_vector(y) for y in ys])
        log_w = np.log(priors)[:, steps[0]]
        for k in range(1, n + 1):
            log_w += log_q[steps[k - 1] * m + steps[k]]
        for k in range(0, n + 1):
            log_w += log_g[k][steps[k]]
    return steps.T, log_w


def exhaustive_terminal_sums(fmodel, nu, ys):
    """Unnormalized terminal-state sums over every path, in scaled form.

    Returns (scaled_sums, log_scale): the unnormalized filter numerator for
    terminal state j is exp(log_scale) * scaled_sums[j]. Independent oracle
    for the forward recursion; capped at 2^20 paths.
    """
    ys = np.asarray(ys, dtype=float)
    m = fmodel.m
    n = len(ys) - 1
    if m > 12 or n > 20:
        raise OracleScaleError("path enumeration capped at 2^20 paths, m <= 12, n <= 20")
    paths, (log_w,) = _path_log_weights(fmodel, [nu], ys, 2**20)
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


def _smoothed_density(mass, tau):
    """Node masses smoothed by a Gaussian of SMOOTH_CELLS cells, cut at
    SMOOTH_HALFWIDTH cells, as a density normalized against ``tau``."""
    z = np.arange(-SMOOTH_HALFWIDTH, SMOOTH_HALFWIDTH + 1, dtype=float)
    taps = np.exp(-0.5 * (z / SMOOTH_CELLS) ** 2)
    dens = np.convolve(mass, taps / taps.sum(), mode="same") / tau
    return dens / (dens * tau).sum()


def project_particles_to_grid(state, nodes):
    """Deposit particle mass on uniform ``nodes`` and smooth it.

    Linear two-node deposition followed by a narrow Gaussian kernel; the same
    kernel is meant to be applied to the grid density before comparing, so
    both sides live at the projection's resolution.
    """
    n = len(nodes)
    dx = nodes[1] - nodes[0]
    w = np.exp(state.log_weights - logsumexp(state.log_weights))
    pos = np.clip((state.positions - nodes[0]) / dx, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    i1 = np.minimum(i0 + 1, n - 1)
    mass = np.bincount(i0, weights=w * (1.0 - frac), minlength=n)
    mass += np.bincount(i1, weights=w * frac, minlength=n)
    return _smoothed_density(mass, trap_weights(nodes))


def tv_distance(a, b):
    """Total variation distance, sup_A |a(A) - b(A)| = half L1 of densities.

    Grid states must share their grid; particle-vs-grid goes through the
    smoothed grid projection; particle-vs-particle is not defined.
    """
    if a.kind == "grid" and b.kind == "grid":
        if len(a.nodes) != len(b.nodes) or not np.allclose(a.nodes, b.nodes, rtol=0, atol=1e-12):
            raise RepresentationError("grid states live on different windows")
        return _half_l1(np.exp(a.log_weights) - np.exp(b.log_weights), a.nodes[1] - a.nodes[0])
    if {a.kind, b.kind} == {"particles", "grid"}:
        part, grid = (a, b) if a.kind == "particles" else (b, a)
        tau = trap_weights(grid.nodes)
        gdens = _smoothed_density(np.exp(grid.log_weights) * tau, tau)
        return _half_l1(project_particles_to_grid(part, grid.nodes) - gdens,
                        grid.nodes[1] - grid.nodes[0])
    raise RepresentationError(f"tv_distance undefined for {a.kind!r} vs {b.kind!r}")


# Cubic through four equally spaced nodes as monomial coefficients in
# t = (x - x_i) / h about the node x_i, for a stencil whose first node lies
# k = 0..3 nodes left of x_i (k = 1 inside the grid, other k at its ends).
_CUBIC = np.stack([np.linalg.inv(np.vander(np.arange(4.0) - k, 4, increasing=True))
                   for k in range(4)])


def _cubic_at(D, i):
    """Coefficients (c0, c1, c2, c3) of the four-node cubic about node i."""
    j0 = min(max(i - 1, 0), len(D) - 4)
    return (_CUBIC[i - j0] @ D[j0:j0 + 4]).tolist()


def _half_l1(D, h):
    """Half the L1 norm of D, sampled on four or more uniform nodes of spacing h.

    |D| has a kink wherever D changes sign, which holds a trapezoid sum of |D|
    to O(h^2). This rule integrates D itself between its sign changes r_k and
    returns half of sum_k |G(r_{k+1}) - G(r_k)|, the end nodes included among
    the r_k. At a node, G is the cumulative trapezoid of D with the
    Euler-Maclaurin end corrections -(h^2/12) D' + (h^4/720) D^(3), both
    derivatives taken from the four-node cubic about the node (the left end's
    terms are one constant, which cancels). A root inside a cell [x_i, x_i+1]
    is found by Newton steps on the cubic about x_i, started from the linear
    root, and G is carried from x_i to it by the cubic's integral in closed
    form; a root on a node is that node. The error falls faster than h^4 for
    smooth D (about h^6 on Gaussian differences), and D == 0 gives exactly 0.
    """
    D = np.asarray(D, dtype=float)
    nz = np.flatnonzero(D)
    if nz.size == 0:
        return 0.0
    pos = D[nz] > 0.0
    change = np.flatnonzero(pos[:-1] != pos[1:])
    cum = np.cumsum(D)

    def node_g(i, c):  # G(x_i) / h, up to the constant of the left end
        return cum[i] - 0.5 * D[i] - c[1] / 12.0 + c[3] / 120.0

    total = 0.0
    prev = node_g(0, _cubic_at(D, 0))
    for i, nxt in zip(nz[change].tolist(), nz[change + 1].tolist()):
        if nxt > i + 1:  # D vanishes on node i + 1
            g = node_g(i + 1, _cubic_at(D, i + 1))
        else:
            c0, c1, c2, c3 = c = _cubic_at(D, i)
            t = c0 / (c0 - D[i + 1])
            for _ in range(3):
                slope = (3.0 * c3 * t + 2.0 * c2) * t + c1
                if slope == 0.0:
                    break
                t = min(max(t - (((c3 * t + c2) * t + c1) * t + c0) / slope, 0.0), 1.0)
            g = node_g(i, c) + t * (c0 + t * (c1 / 2.0 + t * (c2 / 3.0 + t * c3 / 4.0)))
        total += abs(g - prev)
        prev = g
    last = len(D) - 1
    return float(0.5 * h * (total + abs(node_g(last, _cubic_at(D, last)) - prev)))


# ---------------------------------------------------------------------------
# decay fits


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    n_clipped: int


def decay_rate(series, fit_lo=None, fit_hi=None):
    """Least-squares slope of ``series.log_tv`` against ``series.n`` over [fit_lo, fit_hi].

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
    diagnostics: dict


def _pair_quotient_update(u, uD, s, tau, step):
    """Exact update of (phi, D, s) under a shared positive linear operator.

    phi' = L phi / <L phi>; the difference d = e^s D obeys
    d' = (L d <L phi> - L phi <L d>) / (<L phi> <L phi + L d>).
    Returns (phi', D', s') and the log of the smaller of the two filters'
    masses <L phi> and <L phi + L d>, their evidence when L holds the likelihood.
    A D of 0 stays exactly 0, with s' = -inf. When the second filter's mass is
    not positive, or the rescaled difference is not finite, the step has lost
    the second filter: s' is NaN and the log mass -inf, so that
    ``_ld_clipped_step`` reruns the step on a wider window.
    """
    z = float((u * tau).sum())
    if z <= 0 or not np.isfinite(z):
        raise FilterCollapseError(step)
    zD = float((uD * tau).sum())
    es = 0.0 if s == -np.inf else math.exp(s)
    denom2 = z + es * zD
    phi = u / z
    if denom2 > 0:
        Dt = (uD * z - u * zD) / (z * denom2)
        c = float(np.max(np.abs(Dt)))
        if c == 0.0:
            return (phi, Dt, -np.inf), math.log(min(z, denom2))
        if math.isfinite(c):
            return (phi, Dt / c, s + math.log(c)), math.log(min(z, denom2))
    return (phi, None, math.nan), -math.inf


def _pair_tv(D, s, h):
    if s == -np.inf:
        return 0.0, -np.inf
    log_tv = s + math.log(_half_l1(D, h))
    log_tv = min(log_tv, 0.0)  # tv can never exceed 1
    return math.exp(log_tv), log_tv


def run_grid_pair(model, prior1, prior2, ys, cfg):
    """Run two grid filters on a shared window, tracking their difference.

    Both filters see the same observations; the returned TV series is exact to
    float64 relative precision regardless of how small it gets.
    """
    ys = np.asarray(ys, dtype=float)
    nodes = prior_grid([prior1, prior2], cfg.nodes)
    tau = trap_weights(nodes)
    phi = np.exp(grid_init(model, prior1, ys[0], nodes).log_weights)
    phi2 = np.exp(grid_init(model, prior2, ys[0], nodes).log_weights)
    Dt = phi2 - phi
    c = float(np.max(np.abs(Dt)))
    if c > 0:
        D, s = Dt / c, math.log(c)
    else:
        D, s = np.zeros_like(phi), -np.inf

    tvs = np.empty(len(ys))
    log_tvs = np.empty(len(ys))
    tvs[0], log_tvs[0] = _pair_tv(D, s, nodes[1] - nodes[0])
    min_cells = math.inf
    edge_max = 0.0
    r_noise = noise_tail_radius(model.state_noise)

    try:
        for step in range(1, len(ys)):
            # target window covering the predictive support of BOTH filters:
            # the image of mean +/- k std under f spreads at most f_lip * k * std,
            # plus the state-noise tail radius; clipped to the observation's LD set
            dens = _pair_densities(phi, D, s, tau)
            moments = [_density_moments(nodes, d, tau) for d in dens]
            min_cells = min(min_cells, min(std for _, std in moments) / (nodes[1] - nodes[0]))
            edge_max = max(edge_max, *map(_edge_ratio, dens))

            def advance(tgt):
                K = grid_kernel(model, nodes, tgt)
                g = np.exp(loglik(model, tgt, ys[step]))
                return _pair_quotient_update(g * (K @ (tau * phi)), g * (K @ (tau * D)), s,
                                             trap_weights(tgt), step)

            tgt, (phi, D, s) = _ld_clipped_step(model, moments, cfg.nodes, r_noise, ys[step],
                                                advance)
            if math.isnan(s):  # lost on the wider window too
                raise FilterCollapseError(step, f"the second filter lost its mass at step {step}")
            nodes = tgt
            tau = trap_weights(nodes)
            tvs[step], log_tvs[step] = _pair_tv(D, s, nodes[1] - nodes[0])
    except LabError as exc:
        exc.tv_prefix = (tvs[:step], log_tvs[:step])
        raise

    dens = _pair_densities(phi, D, s, tau)
    moments = [_density_moments(nodes, d, tau) for d in dens]
    min_cells = min(min_cells, min(std for _, std in moments) / (nodes[1] - nodes[0]))
    edge_max = max(edge_max, *map(_edge_ratio, dens))
    diag = {
        "final_window": [float(nodes[0]), float(nodes[-1])],
        "final_posterior_mean_std": list(moments[0]),
        # grid resolution of the narrowest posterior of either filter at any step
        "min_cells_per_std": float(min_cells),
        # window truncation: largest density at a window end node over its
        # peak, of either filter at any step
        "edge_density_max": float(edge_max),
    }
    return PairedGridResult(tv=tvs, log_tv=log_tvs, diagnostics=diag)


def grid_filters(model, priors, ys, cfg):
    """Grid filters started from ``priors``, stepped together through ``ys``.

    Yields the list of their states after each observation, y0 included. They
    start on the union of the prior windows; each later step's window covers
    every filter's predictive on the observation's LD set (``_ld_clipped_step``),
    and one kernel from the current window into it carries all of them.
    """
    ys = np.asarray(ys, dtype=float)
    nodes = prior_grid(priors, cfg.nodes)
    states = [grid_init(model, prior, ys[0], nodes) for prior in priors]
    yield states
    r_noise = noise_tail_radius(model.state_noise)
    for step in range(1, len(ys)):
        def advance(tgt):
            kern = grid_kernel(model, nodes, tgt)
            log_g = loglik(model, tgt, ys[step])
            stepped = [grid_step(state, kern, tgt, log_g) for state in states]
            return [new for new, _ in stepped], min(log_z for _, log_z in stepped)

        nodes, states = _ld_clipped_step(model, [grid_moments(s) for s in states], cfg.nodes,
                                         r_noise, ys[step], advance)
        yield states


def _ld_clipped_step(model, moment_pairs, n, r_noise, y, advance):
    """Take one grid step of every listed filter into an LD-clipped window.

    ``advance(tgt)`` steps the filters into the ``n`` nodes ``tgt`` and returns
    (result, log_z), log_z the smallest log evidence of y. The window is
    clipped at tail ratio LD_TAIL_RATIO; when the mass bound ratio * g_max / Z
    then exceeds LD_MASS_TOL, with the clipped run's Z (a lower bound), the
    step is rerun at the ratio that meets it. Returns (tgt, result).
    """
    def window(eta):
        return np.linspace(*_predictive_window(model, moment_pairs, r_noise, y, eta), n)

    tgt = window(LD_TAIL_RATIO)
    result, log_z = advance(tgt)
    eta = math.exp(math.log(LD_MASS_TOL) + log_z) / model.obs_noise.sup()
    if eta < LD_TAIL_RATIO:
        tgt = window(eta)
        result, _ = advance(tgt)
    return tgt, result


def _predictive_window(model, moment_pairs, r_noise, y, eta):
    """Window containing the one-step posterior mass of every listed filter.

    It covers each filter's predictive, clipped to the LD set C(y, r) of the
    observation y that reweights it, r the observation noise's radius at tail
    ratio ``eta``: off that set the likelihood is below eta times its peak.
    An empty intersection, or eta = 0, keeps the predictive window.
    """
    lo = math.inf
    hi = -math.inf
    for mean, std in moment_pairs:
        center = float(model.f(mean))
        half = max(COVERAGE_K * model.f_lip * std, MIN_HALFWIDTH) + r_noise
        lo = min(lo, center - half)
        hi = max(hi, center + half)
    if eta > 0.0:
        ld = ld_set(model, y, delta_for_eta(model, eta))
        if max(lo, ld.lo) < min(hi, ld.hi):
            return max(lo, ld.lo), min(hi, ld.hi)
    return lo, hi


def _pair_densities(phi, D, s, tau):
    """Both normalized filters of a pair; the second is phi + e^s D, clipped at 0.

    A second filter without mass is taken to be the first.
    """
    es = 0.0 if s == -np.inf else math.exp(s)
    other = np.maximum(phi + es * D, 0.0)
    mass = float((other * tau).sum())
    return [phi, other / mass if mass > 0 else phi]


def _edge_ratio(dens):
    """Larger end-node density of a window over the density's peak."""
    return float(max(dens[0], dens[-1]) / dens.max())


def _density_moments(nodes, dens, tau):
    mean = float((dens * nodes * tau).sum())
    var = float((dens * (nodes - mean) ** 2 * tau).sum())
    return mean, math.sqrt(max(var, 0.0))
