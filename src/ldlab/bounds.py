"""Forgetting-bound assembly and the finite-model inequality checks.

Everything accumulates in log domain; the only exponentiations are final and
guarded. The headline bound value is clamped to 1 (a total variation distance
never exceeds it) with the raw value preserved in the breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .dists import PointMassPrior
# quad is not called here; it stays importable for benchmarks/tracer.py
from .doeblin import quad  # noqa: F401
from .doeblin import (
    delta_for_eta,
    distance_series,
    envelope_radius,
    eta_for_delta,
    ld_set,
    log_contraction_from_logs,
)
from .errors import (
    ConfigError,
    ConstructionError,
    FilterCollapseError,
    H2FailureError,
    InfeasibleConstraintError,
    OracleScaleError,
)
from .filtering import _path_log_weights, _propagate_particles, _terminal_sums
# transition_density, likewise, stays importable for benchmarks/tracer.py
from .models import loglik, transition_density  # noqa: F401


# ---------------------------------------------------------------------------
# the quota maximization


def max_product_with_quota(log_factors, alpha):
    """Largest sum of at least ceil(alpha*n) of the given log factors.

    Every factor is a log contraction value (<= 0), so the optimum activates
    exactly the quota using the largest entries; sorting descending and
    summing the top ceil(alpha*n) is exact.
    """
    lf = np.asarray(log_factors, dtype=float)
    n = len(lf)
    if n < 1:
        raise ConfigError("need at least one factor")
    if not (0.0 < alpha < 1.0):
        raise ConfigError("alpha must lie in (0, 1)")
    if np.any(lf > 1e-9):
        raise ConfigError("log contraction values must be <= 0")
    return _quota_sum(np.minimum(lf, 0.0), alpha)


def _quota_sum(lf, alpha):
    """Sum of the ceil(alpha*n) largest of the n clipped log factors ``lf``."""
    return float(np.sort(lf)[::-1][:math.ceil(alpha * len(lf))].sum())


def max_product_with_quota_bruteforce(log_factors, alpha):
    """Literal maximization over all feasible activation vectors (n <= 20)."""
    lf = np.asarray(log_factors, dtype=float)
    n = len(lf)
    if n > 20:
        raise OracleScaleError("brute force capped at 20 factors")
    m = math.ceil(alpha * n)
    if m > n:
        raise InfeasibleConstraintError("quota exceeds the number of factors")
    best = -math.inf
    for bits in range(1 << n):
        if bin(bits).count("1") < m:
            continue
        total = sum(lf[i] for i in range(n) if (bits >> i) & 1)
        best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# the two prior-dependent masses


# phi comes from a composite Gauss-Legendre rule summed in log domain,
# _GL_POINTS nodes on each equal panel. It is evaluated again at twice the
# points; the change in its log is the rule's error estimate.
_GL_POINTS = 16
_PRIOR_PANELS, _SET_PANELS = 8, 4  # over prior.quad_bounds(), over an LD set
_GL_NODES = {p: np.polynomial.legendre.leggauss(p) for p in (_GL_POINTS, 2 * _GL_POINTS)}


def _gl_rule(lo, hi, panels, points):
    """Nodes and log weights of the composite rule on [lo, hi]."""
    t, w = _GL_NODES[points]
    half = (hi - lo) / (2.0 * panels)
    nodes = lo + half * (2.0 * np.arange(panels)[:, None] + 1.0 + t)
    return nodes.ravel(), np.broadcast_to(np.log(half * w), nodes.shape).ravel()


@dataclass(frozen=True)
class PhiValue:
    """Two-step prior mass restricted to the second-step set."""

    value: float
    log_value: float
    method: str
    stderr: Optional[float] = None
    underflow: bool = False
    rule_err: Optional[float] = None


def two_step_prior_mass(model, prior, y0, y1, delta, method="quad", budget=100_000, seed=0):
    """Prior mass of two likelihood-weighted steps landing in the y1-set.

    Integrates prior(dx) g(x, y0) q(x, x') g(x', y1) over x' in the set at y1.
    ``quad`` applies the Gauss-Legendre rule in log domain, with ``rule_err``
    the change in log phi at doubled order; ``mc`` averages over prior draws
    and reports a standard error. Values below 1e-300 flip the underflow flag
    and read 0.0; the quad route keeps their finite log value.
    """
    c1 = ld_set(model, y1, delta)
    if method == "quad":
        log_value = _log_phi(model, prior, y0, y1, c1, _GL_POINTS)
        rule_err = abs(_log_phi(model, prior, y0, y1, c1, 2 * _GL_POINTS) - log_value)
        underflow = log_value < math.log(1e-300)
        return PhiValue(value=0.0 if underflow else math.exp(log_value), log_value=log_value,
                        method="quad", underflow=underflow, rule_err=rule_err)
    if method == "mc":
        rng = np.random.default_rng(seed)
        xs = np.asarray(prior.sample(rng, budget), dtype=float)
        xps = _propagate_particles(model, xs, rng)
        vals = np.exp(loglik(model, xs, y0) + loglik(model, xps, y1))
        vals = vals * np.asarray(c1.contains(xps), dtype=float)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(budget))
        if mean > 1e-300:
            return PhiValue(value=mean, log_value=math.log(mean), method="mc", stderr=se)
        return PhiValue(value=0.0, log_value=-math.inf, method="mc", stderr=se, underflow=True)
    raise ConfigError(f"unknown method {method!r}")


def _log_phi(model, prior, y0, y1, c1, points):
    """log phi by the tensor rule; a point-mass prior is one node of weight 1."""
    if isinstance(prior, PointMassPrior):
        xs, log_w = np.array([prior.x]), np.zeros(1)
    else:
        xs, log_w = _gl_rule(*prior.quad_bounds(), _PRIOR_PANELS, points)
    xps, log_wp = _gl_rule(c1.lo, c1.hi, _SET_PANELS, points)
    # log q(x_i, x'_j) at [j, i], from the broadcast builder that grid_kernel uses
    log_q = model.state_noise.log_kernel(
        xs, np.subtract.outer(xps, np.asarray(model.f(xs), dtype=float)))
    log_q += log_w + prior.logpdf(xs) + loglik(model, xs, y0)
    log_q += (log_wp + loglik(model, xps, y1))[:, None]
    return float(logsumexp(log_q))


def set_likelihood_mass(model, y, yp, delta):
    """Likelihood mass of the y'-set: integral of v(y' - h(x)) over the set.

    h is affine, so it is b P(|V| <= delta) with V the observation noise, b = 1/|c1|.
    """
    return model.h_b * math.exp(model.obs_noise.log_mass(delta))


def _log(v):
    """math.log of a non-negative number, -inf at 0."""
    return math.log(v) if v > 0.0 else -math.inf


def _finite_stream(fmodel, ld, ys):
    """The finite model's terms on y_0..y_n, each evaluated once.

    Returns the emission rows ``g`` and set rows ``inside`` (n+1 x m), then
    the logs that the bound and both inequality checks read: log eps-minus,
    log eps-plus and log psi of the pairs (y_{k-1}, y_k), k = 1..n, and log
    upsilon of y_0..y_n. The set rows and envelopes are read from the tables
    of ``ld``. Over the uniform reference, psi at y_k is the mean of ``g[k]``
    on ``inside[k]`` and upsilon the max of ``g[k]``; a zero reads log -inf.
    An observation whose bin is not in the set table raises ConstructionError.
    """
    g = np.array([fmodel.emission_vector(y) for y in ys])
    bins = np.array([int(ld.obs_to_bin(y)) for y in ys], dtype=int)
    outside = np.flatnonzero((bins < 0) | (bins >= len(ld.set_table)))
    if outside.size:
        k = int(outside[0])
        raise ConstructionError(f"observation {ys[k]} at step {k} maps to bin {bins[k]}, "
                                f"outside the set table's bins 0..{len(ld.set_table) - 1}")
    lo, hi = ld.envelopes_along(bins)
    inside = ld.inside[bins]
    # one 2-D mean per bin: each row is summed as its own 1-D mean would sum
    # it, to the byte, whatever the size of the set
    psi = np.empty(len(ys) - 1)
    for b in np.unique(bins[1:]):
        rows = np.flatnonzero(bins[1:] == b)
        psi[rows] = g[np.ix_(rows + 1, ld.set_table[b])].mean(axis=1)
    return (g, inside, *(np.array([_log(v) for v in terms.tolist()])
                         for terms in (lo, hi, psi, g.max(axis=1))))


def _phi_finite(fmodel, nu, g, inside):
    """Exact two-step prior mass: sum of nu g_0 Q g_1 over targets in the y_1-set."""
    return float(np.asarray(nu, dtype=float) @ (g[0] * (fmodel.Q @ (g[1] * inside[1]))))


# ---------------------------------------------------------------------------
# the assembled forgetting bound


@dataclass
class BoundBreakdown:
    """Log-domain pieces of the assembled total-variation bound."""

    log_lambda: float
    log_remainder: float
    log_total: float
    headline: float
    components: dict
    parameters: dict
    per_step: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self):
        """Every field but the per-step arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_step"}


def _assemble(log_lambda, log_remainder):
    log_total = float(np.logaddexp(log_lambda, log_remainder))
    headline = 1.0 if log_total >= 0.0 else min(math.exp(log_total), 1.0)
    return log_total, headline


def _remainder(log_em, log_psi, log_ups, log_phi1, log_phi2, alpha, eta):
    """Log remainder over the n = len(log_em) pairs given, and its components.

    A zero prior mass (log phi = -inf) makes the remainder +inf, so the total
    is +inf and the headline 1.
    """
    c = {
        "a_n": math.floor((1.0 - alpha) * len(log_em) / 2.0),
        "sum_log_eps_minus": float(log_em[1:].sum()),  # pairs i = 2..n
        "sum_log_psi": float(log_psi[1:].sum()),
        "sum_log_upsilon": float(log_ups.sum()),
        "log_phi_nu": log_phi1,
        "log_phi_nu_prime": log_phi2,
    }
    log_remainder = (c["a_n"] * math.log(eta)
                     - 2.0 * (c["sum_log_eps_minus"] + c["sum_log_psi"])
                     + 2.0 * c["sum_log_upsilon"]
                     - log_phi1 - log_phi2)
    return log_remainder, c


def _breakdown(log_em, log_ep, log_psi, log_ups, log_phi1, log_phi2, alpha, eta,
               parameters, diagnostics):
    """Assemble the bound from per-step log terms; both model kinds end here.

    ``log_em``, ``log_ep`` and ``log_psi`` hold the pairs i = 1..n, ``log_ups``
    the observations 0..n.
    """
    log_rho = log_contraction_from_logs(log_em, log_ep)
    log_lambda = max_product_with_quota(log_rho, alpha)
    log_remainder, components = _remainder(log_em, log_psi, log_ups, log_phi1, log_phi2,
                                           alpha, eta)
    log_total, headline = _assemble(log_lambda, log_remainder)
    return BoundBreakdown(
        log_lambda=log_lambda,
        log_remainder=log_remainder,
        log_total=log_total,
        headline=headline,
        components=components,
        parameters={"eta": eta, "alpha": alpha, "n": len(log_em), **parameters},
        per_step={
            "log_eps_minus": log_em,
            "log_eps_plus": log_ep,
            "log_psi": log_psi,
            "log_rho": log_rho,
            "log_upsilon": log_ups,
        },
        diagnostics={**diagnostics, "vacuous": bool(log_total >= 0.0)},
    )


def forgetting_bound(model, prior1, prior2, ys, alpha, eta):
    """Assembled observation-path bound on the TV gap of two filters.

    The set radius is derived from ``eta`` through the tail-ratio condition;
    the envelope radii from the exact preimage distances of ``ys``, so the
    bound holds for any observation path, mis-specified data included. The
    remainder term is built from the per-pair envelope and mass values
    entirely in log domain and combined with the quota term by log-add-exp.
    ``mass_rule_err`` in the diagnostics is the larger change of the two log
    phi when the Gauss-Legendre rule doubles its points; psi is exact.
    """
    ys = np.asarray(ys, dtype=float)
    n = len(ys) - 1
    if n < 2:
        raise ConfigError("need at least two steps (n >= 2)")
    if not (0.0 < eta < 1.0):
        raise ConfigError("eta must lie in (0, 1)")
    delta = delta_for_eta(model, eta)
    noise = model.state_noise
    r = envelope_radius(model, delta, distance_series(model, ys))
    log_psi = np.full(n, math.log(set_likelihood_mass(model, ys[0], ys[1], delta)))
    phi1, phi2 = (two_step_prior_mass(model, p, ys[0], ys[1], delta) for p in (prior1, prior2))
    return _breakdown(
        np.asarray(noise.log_radial_min(r), dtype=float),
        np.asarray(noise.log_radial_max(r), dtype=float),
        log_psi, np.full(n + 1, math.log(model.obs_noise.sup())),
        phi1.log_value, phi2.log_value, alpha, eta,
        parameters={"delta": delta, "phi_method": "quad"},
        diagnostics={"phi_underflow": bool(phi1.underflow or phi2.underflow),
                     "achieved_eta": eta_for_delta(model, delta),
                     "mass_rule_err": max(phi1.rule_err, phi2.rule_err)},
    )


def forgetting_bound_finite(fmodel, ld, nu, nup, ys, alpha, eta):
    """Finite-model assembly with exact sums everywhere.

    The supplied ``eta`` must dominate the achieved tail ratio of every
    observed bin, otherwise the outside-set likelihood control fails and the
    bound does not apply.
    """
    ys = np.asarray(ys, dtype=float)
    n = len(ys) - 1
    if n < 2:
        raise ConfigError("need at least two steps (n >= 2)")
    g, inside, log_em, log_ep, log_psi, log_ups = _finite_stream(fmodel, ld, ys)
    required = _admissible_eta(g, inside)
    if eta < required - 1e-12:
        raise H2FailureError(
            f"eta {eta} is below the achieved outside-set ratio {required:.6g}")
    phis = [_phi_finite(fmodel, p, g, inside) for p in (nu, nup)]
    return _breakdown(
        log_em, log_ep, log_psi, log_ups, _log(phis[0]), _log(phis[1]), alpha, eta,
        parameters={"delta": None, "phi_method": "finite-exact"},
        diagnostics={"phi_underflow": min(phis) <= 0.0, "required_eta": required},
    )


def admissible_eta_finite(fmodel, ld, ys):
    """Largest achieved outside-set emission ratio over the observed bins."""
    return _admissible_eta(*_finite_stream(fmodel, ld, np.asarray(ys, dtype=float))[:2])


def _admissible_eta(g, inside):
    """Largest ratio of an outside-set emission to its row's peak; 0 with no outside state.

    An observation under which every state's emission is 0 has no ratio, and
    raises FilterCollapseError at its step.
    """
    peaks = g.max(axis=1)
    if not peaks.all():
        raise FilterCollapseError(int(np.argmin(peaks)), "every emission is 0 at this step")
    return float(np.max(np.where(inside, 0.0, g).max(axis=1) / peaks, initial=0.0))


def bound_series(model, prior1, prior2, ys, alpha, etas):
    """Assembled bound for every prefix y_{0:k}, k = 2..n, at the best of ``etas``.

    Like ``forgetting_bound``, it reads nothing of the data but ``ys``.

    One full-horizon breakdown per eta, in input order; the series comes from
    the first with the smallest ``log_total``, returned under ``"full"``, and
    every breakdown under ``"results"``. A fixed eta is the one-point list.
    Points run one after another: a thread pool over them was measured no
    faster (rw-gauss seed 101, 13 points, medians of 6 alternating runs on 2
    CPUs: 1.46 s pooled, 1.38 s serial, identical results).
    """
    results = [forgetting_bound(model, prior1, prior2, ys, alpha, float(eta)) for eta in etas]
    series = prefix_series(min(results, key=lambda b: b.log_total))
    series["results"] = results
    return series


def prefix_series(full):
    """The prefix bounds of ``bound_series`` from a full-horizon breakdown.

    Every prefix reuses the breakdown's per-step terms, its alpha and its eta,
    and goes through the same remainder as the breakdown, so the last prefix
    reproduces its ``log_total`` exactly. The breakdown's
    ``max_product_with_quota`` has validated log rho; it is clipped here once.
    """
    ps = full.per_step
    log_rho = np.minimum(ps["log_rho"], 0.0)
    alpha, eta = full.parameters["alpha"], full.parameters["eta"]
    log_phi1, log_phi2 = full.components["log_phi_nu"], full.components["log_phi_nu_prime"]
    out = {"n": [], "log_lambda": [], "log_remainder": [], "log_total": [], "headline": []}
    for k in range(2, full.parameters["n"] + 1):
        log_lam = _quota_sum(log_rho[:k], alpha)
        rem, _ = _remainder(ps["log_eps_minus"][:k], ps["log_psi"][:k],
                            ps["log_upsilon"][: k + 1], log_phi1, log_phi2, alpha, eta)
        tot, head = _assemble(log_lam, rem)
        out["n"].append(k)
        out["log_lambda"].append(log_lam)
        out["log_remainder"].append(rem)
        out["log_total"].append(tot)
        out["headline"].append(head)
    out = {k: np.asarray(v) for k, v in out.items()}
    out["parameters"] = full.parameters
    out["full"] = full
    return out


# ---------------------------------------------------------------------------
# finite-model inequality checks (exhaustive)


@dataclass(frozen=True)
class GapResult:
    lhs_log: float
    rhs_log: float
    holds: bool


_MAX_PATHS = 10**7  # path-table cap of the exhaustive checks below


def numerator_gap(fmodel, nu, nup, ys, ld):
    """Exhaustive check of the coupled-chain numerator inequality.

    lhs: the worst subset gap between the two unnormalized terminal expectations,
    sup over state sets A of |c(A)|, which is the larger of the sum of c's
    positive entries and minus the sum of its negative ones. rhs: the
    product-chain expectation with the contraction factor active on within-set
    transitions, computed by dynamic programming over pair states.
    """
    nu = np.asarray(nu, dtype=float)
    nup = np.asarray(nup, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(ys) < 2:
        raise ConfigError("need at least one step")
    log_ws = _path_log_weights(fmodel, [nu, nup], ys, _MAX_PATHS)
    (s1, ls1), (s2, ls2) = (_terminal_sums(log_w, fmodel.m) for log_w in log_ws)
    # common scale exp(ls1 + ls2) for the cross products
    c = s1 * s2.sum() - s2 * s1.sum()
    lhs_log = ls1 + ls2 + _log(max(c[c > 0].sum(), -c[c < 0].sum()))
    rhs_log = _pair_chain_rhs_log(fmodel, nu, nup, ys, ld)
    return GapResult(lhs_log=lhs_log, rhs_log=rhs_log, holds=lhs_log <= rhs_log + 1e-10)


def _pair_chain_rhs_log(fmodel, nu, nup, ys, ld):
    """DP over pair states for the contraction-weighted product-chain mass."""
    g, inside, log_em, log_ep, _, _ = _finite_stream(fmodel, ld, ys)
    rho = np.exp(log_contraction_from_logs(log_em, log_ep))  # the bound's own rho
    QQ = np.kron(fmodel.Q, fmodel.Q)  # pair index u*m + v
    w = np.outer(nu * g[0], nup * g[0]).reshape(-1)
    log_scale = 0.0
    for i in range(1, len(ys)):
        pair_in_prev = np.outer(inside[i - 1], inside[i - 1]).reshape(-1)
        pair_in_cur = np.outer(inside[i], inside[i]).reshape(-1)
        gg = np.outer(g[i], g[i]).reshape(-1)
        arrived_from_in = (w * pair_in_prev) @ QQ
        arrived_from_out = (w * ~pair_in_prev) @ QQ
        factor = np.where(pair_in_cur, rho[i - 1], 1.0)
        w = (arrived_from_in * factor + arrived_from_out) * gg
        total = w.sum()
        if total <= 0.0:
            return -math.inf
        w = w / total
        log_scale += math.log(total)
    return log_scale


def numerator_rhs_enumerated(fmodel, nu, nup, ys, ld):
    """Literal pair-path enumeration of the numerator rhs (small fixtures only).

    Cross-checks the DP: enumerates both chains' paths, applies the
    contraction factor whenever both chains sit inside consecutive sets.
    """
    nu = np.asarray(nu, dtype=float)
    nup = np.asarray(nup, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = fmodel.m
    n = len(ys) - 1
    if m ** (2 * (n + 1)) > 2**22:
        raise OracleScaleError("pair-path enumeration capped at 2^22 combinations")
    log_w, log_w2 = _path_log_weights(fmodel, [nu, nup], ys, _MAX_PATHS)
    _, inside, log_em, log_ep, _, _ = _finite_stream(fmodel, ld, ys)
    # the path-state table: path p's state at step k is digit k of p in base m,
    # step 0 the last digit, as _path_log_weights orders its paths
    states = np.indices((m,) * (n + 1)).reshape(n + 1, -1)[::-1]
    in_c = inside[np.arange(n + 1)[:, None], states].T  # (P, n+1): path p inside at step k
    rhos = np.exp(log_contraction_from_logs(log_em, log_ep))
    w1 = np.exp(log_w)
    w2 = np.exp(log_w2)
    total = 0.0
    for p in range(len(w1)):
        if w1[p] == 0.0:
            continue
        # delta_i couples the two paths through joint set membership
        factor = np.ones(len(w1))
        for i in range(1, n + 1):
            joint = in_c[p, i - 1] & in_c[p, i] & in_c[:, i - 1] & in_c[:, i]
            factor = np.where(joint, factor * rhos[i - 1], factor)
        total += w1[p] * float((w2 * factor).sum())
    return total


def denominator_gap(fmodel, nu, ys, ld):
    """Exhaustive check of the evidence lower bound.

    lhs: the full path sum of prior, transition and emission weights. rhs: the
    two-step prior mass times the lower envelopes and set likelihood masses of
    the pairs 2..n, in log domain from the bound's own table.
    """
    ys = np.asarray(ys, dtype=float)
    if len(ys) < 2:
        raise ConfigError("need at least one step")
    (log_w,) = _path_log_weights(fmodel, [nu], ys, _MAX_PATHS)
    sums, peak = _terminal_sums(log_w, fmodel.m)
    lhs_log = peak + _log(sums.sum())  # -inf when every path weighs zero
    g, inside, log_em, _, log_psi, _ = _finite_stream(fmodel, ld, ys)
    log_phi = _log(_phi_finite(fmodel, nu, g, inside))
    rhs_log = log_phi + float(log_em[1:].sum() + log_psi[1:].sum())
    return GapResult(lhs_log=lhs_log, rhs_log=rhs_log, holds=rhs_log <= lhs_log + 1e-10)
