"""Forgetting-bound assembly and the finite-model inequality checks.

Everything accumulates in log domain; the only exponentiations are final and
guarded. The headline bound value is clamped to 1 (a total variation distance
never exceeds it) with the raw value preserved in the breakdown.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .dists import PointMassPrior
from .doeblin import (
    delta_for_eta,
    distance_series,
    envelope_fns,
    envelope_radius,
    eta_for_delta,
    ld_set,
    log_contraction_from_logs,
)
from .errors import (
    ConfigError,
    H2FailureError,
    InfeasibleConstraintError,
    OracleScaleError,
)
from .filtering import _path_digits
from .models import loglik, transition_density


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
    lf = np.minimum(lf, 0.0)
    m = math.ceil(alpha * n)
    if m > n:
        raise InfeasibleConstraintError("quota exceeds the number of factors")
    return float(np.sort(lf)[::-1][:m].sum())


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


@dataclass(frozen=True)
class PhiValue:
    """Two-step prior mass restricted to the second-step set."""

    value: float
    log_value: float
    method: str
    stderr: Optional[float] = None
    underflow: bool = False


def two_step_prior_mass(model, prior, y0, y1, delta, method="quad", budget=100_000,
                        seed=0, quad_tol=1e-8):
    """Prior mass of two likelihood-weighted steps landing in the y1-set.

    Integrates prior(dx) g(x, y0) q(x, x') g(x', y1) over x' in the set at y1,
    by nested adaptive quadrature or by Monte Carlo with a reported standard
    error. Values below 1e-300 flip the underflow flag and the log value is
    recomputed on a fixed log-domain grid.
    """
    c1 = ld_set(model, y1, delta)
    v = model.obs_noise

    def g0(x):
        return math.exp(float(v.logpdf(y0 - float(model.h(x)))))

    def g1(xp):
        return math.exp(float(v.logpdf(y1 - float(model.h(xp)))))

    def inner(x):
        val, _ = quad(lambda xp: transition_density(model, x, xp) * g1(xp),
                      c1.lo, c1.hi, epsabs=quad_tol, epsrel=quad_tol, limit=200)
        return val

    if method == "quad":
        if isinstance(prior, PointMassPrior):
            value = g0(prior.x) * inner(prior.x)
        else:
            lo, hi = prior.quad_bounds()
            value, _ = quad(lambda x: math.exp(float(prior.logpdf(x))) * g0(x) * inner(x),
                            lo, hi, epsabs=quad_tol, epsrel=quad_tol, limit=200)
        if value > 1e-300:
            return PhiValue(value=value, log_value=math.log(value), method="quad")
        log_value = _log_phi_grid(model, prior, y0, y1, c1)
        return PhiValue(value=0.0, log_value=log_value, method="quad+log-grid", underflow=True)
    if method == "mc":
        rng = np.random.default_rng(seed)
        xs = np.asarray(prior.sample(rng, budget), dtype=float)
        xps = _propagate(model, xs, rng)
        vals = np.exp(loglik(model, xs, y0) + loglik(model, xps, y1))
        vals = vals * np.asarray(c1.contains(xps), dtype=float)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(budget))
        if mean > 1e-300:
            return PhiValue(value=mean, log_value=math.log(mean), method="mc", stderr=se)
        return PhiValue(value=0.0, log_value=-math.inf, method="mc", stderr=se, underflow=True)
    raise ConfigError(f"unknown method {method!r}")


def _propagate(model, xs, rng):
    noise = model.state_noise
    f_vals = np.asarray(model.f(xs), dtype=float)
    if noise.kind == "iid":
        return f_vals + noise.density.sample(rng, size=len(xs))
    sampler_vec = getattr(noise, "sampler_vec", None)
    if sampler_vec is not None:
        return f_vals + sampler_vec(rng, xs)
    return f_vals + np.array([noise.sample(rng, x) for x in xs])


def _log_phi_grid(model, prior, y0, y1, c1, n_grid=2001):
    """Fixed-grid log-domain fallback for severely underflowing masses."""
    lo, hi = prior.quad_bounds()
    xs = np.linspace(lo, hi, n_grid)
    xps = np.linspace(c1.lo, c1.hi, n_grid)
    log_tau_x = math.log((hi - lo) / (n_grid - 1))
    log_tau_xp = math.log((c1.hi - c1.lo) / (n_grid - 1))
    log_g1 = loglik(model, xps, y1)
    log_prior = np.asarray(prior.logpdf(xs), dtype=float)
    log_g0 = loglik(model, xs, y0)
    noise = model.state_noise
    rows = np.empty(n_grid)
    for i, x in enumerate(xs):
        log_q = noise.logpdf(x, xps - float(model.f(x)))
        rows[i] = _logsumexp(log_q + log_g1) + log_tau_xp
    return float(_logsumexp(log_prior + log_g0 + rows) + log_tau_x)


def _logsumexp(a):
    a = np.asarray(a, dtype=float)
    m = np.max(a)
    if not np.isfinite(m):
        return -math.inf
    return float(m + math.log(np.sum(np.exp(a - m))))


def two_step_prior_mass_finite(fmodel, nu, y0, y1, set_idx):
    """Exact finite-model version: sum over states with the set indicator."""
    nu = np.asarray(nu, dtype=float)
    g0 = fmodel.emission_vector(y0)
    g1 = fmodel.emission_vector(y1)
    mask = np.zeros(fmodel.m)
    mask[np.asarray(set_idx, dtype=int)] = 1.0
    return float(nu @ (g0 * (fmodel.Q @ (g1 * mask))))


def set_likelihood_mass(model, y, yp, delta, quad_tol=1e-8):
    """Likelihood mass of the y'-set: integral of v(y' - h(x)) over the set."""
    c = ld_set(model, yp, delta)
    val, _ = quad(lambda x: math.exp(float(model.obs_noise.logpdf(yp - float(model.h(x))))),
                  c.lo, c.hi, epsabs=quad_tol, epsrel=quad_tol, limit=200)
    return val


def set_likelihood_mass_finite(fmodel, ld, y, yp):
    """Uniform-reference version: average emission value over the y'-set."""
    dst = ld.set_for(yp)
    g = fmodel.emission_vector(yp)
    return float(g[dst].mean())


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
        return {
            "log_lambda": self.log_lambda,
            "log_remainder": self.log_remainder,
            "log_total": self.log_total,
            "headline": self.headline,
            "components": self.components,
            "parameters": self.parameters,
            "diagnostics": self.diagnostics,
        }


def _assemble(log_lambda, log_remainder):
    log_total = float(np.logaddexp(log_lambda, log_remainder))
    headline = 1.0 if log_total >= 0.0 else min(math.exp(log_total), 1.0)
    return log_total, headline


def forgetting_bound(model, prior1, prior2, ys, alpha, eta, d_mode="auto", traj=None,
                     truth=None, phi_method="quad", phi_budget=100_000, seed=0):
    """Assembled observation-path bound on the TV gap of two filters.

    The set radius is derived from ``eta`` through the tail-ratio condition;
    the remainder term is built from the per-pair envelope and mass values
    entirely in log domain and combined with the quota term by log-add-exp.
    """
    ys = np.asarray(ys, dtype=float)
    n = len(ys) - 1
    if n < 2:
        raise ConfigError("need at least two steps (n >= 2)")
    if not (0.0 < eta < 1.0):
        raise ConfigError("eta must lie in (0, 1)")
    delta = delta_for_eta(model, eta)
    d, mode_used = distance_series(model, ys, mode=d_mode, traj=traj, truth=truth)
    env = envelope_fns(model)
    r = envelope_radius(model, delta, d)
    log_em = np.asarray(env.log_lower(r), dtype=float)
    log_ep = np.asarray(env.log_upper(r), dtype=float)
    log_rho = log_contraction_from_logs(log_em, log_ep)
    log_lambda = max_product_with_quota(log_rho, alpha)

    log_psi = np.array([math.log(set_likelihood_mass(model, ys[k - 1], ys[k], delta))
                        for k in range(1, n + 1)])
    log_ups = np.full(n + 1, math.log(model.obs_noise.sup()))
    a_n = math.floor((1.0 - alpha) * n / 2.0)
    phi1 = two_step_prior_mass(model, prior1, ys[0], ys[1], delta,
                               method=phi_method, budget=phi_budget, seed=seed)
    phi2 = two_step_prior_mass(model, prior2, ys[0], ys[1], delta,
                               method=phi_method, budget=phi_budget, seed=seed + 1)

    sum_log_em = float(log_em[1:].sum())  # pairs i = 2..n
    sum_log_psi = float(log_psi[1:].sum())
    sum_log_ups = float(log_ups.sum())
    log_remainder = (a_n * math.log(eta)
                     - 2.0 * (sum_log_em + sum_log_psi)
                     + 2.0 * sum_log_ups
                     - phi1.log_value - phi2.log_value)
    log_total, headline = _assemble(log_lambda, log_remainder)
    return BoundBreakdown(
        log_lambda=log_lambda,
        log_remainder=log_remainder,
        log_total=log_total,
        headline=headline,
        components={
            "a_n": a_n,
            "sum_log_eps_minus": sum_log_em,
            "sum_log_psi": sum_log_psi,
            "sum_log_upsilon": sum_log_ups,
            "log_phi_nu": phi1.log_value,
            "log_phi_nu_prime": phi2.log_value,
        },
        parameters={"eta": eta, "alpha": alpha, "delta": delta, "n": n,
                    "d_mode": mode_used, "phi_method": phi_method},
        per_step={
            "log_eps_minus": log_em,
            "log_eps_plus": log_ep,
            "log_psi": log_psi,
            "log_rho": log_rho,
            "log_upsilon": log_ups,
        },
        diagnostics={
            "phi_underflow": bool(phi1.underflow or phi2.underflow),
            "vacuous": bool(log_total >= 0.0),
            "achieved_eta": eta_for_delta(model, delta),
        },
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
    required = admissible_eta_finite(fmodel, ld, ys)
    if eta < required - 1e-12:
        raise H2FailureError(
            f"eta {eta} is below the achieved outside-set ratio {required:.6g}")
    bins = [int(ld.obs_to_bin(y)) for y in ys]
    log_em = np.empty(n)
    log_ep = np.empty(n)
    log_psi = np.empty(n)
    for k in range(1, n + 1):
        lo, hi = ld.envelopes_for_bins(bins[k - 1], bins[k])
        log_em[k - 1] = math.log(lo)
        log_ep[k - 1] = math.log(hi)
        log_psi[k - 1] = math.log(set_likelihood_mass_finite(fmodel, ld, ys[k - 1], ys[k]))
    log_rho = log_contraction_from_logs(log_em, log_ep)
    log_lambda = max_product_with_quota(log_rho, alpha)
    log_ups = np.array([math.log(fmodel.emission_vector(y).max()) for y in ys])
    a_n = math.floor((1.0 - alpha) * n / 2.0)
    phi1 = two_step_prior_mass_finite(fmodel, nu, ys[0], ys[1], ld.set_for(ys[1]))
    phi2 = two_step_prior_mass_finite(fmodel, nup, ys[0], ys[1], ld.set_for(ys[1]))
    if phi1 <= 0.0 or phi2 <= 0.0:
        log_total, headline = math.inf, 1.0
        log_phi1 = -math.inf if phi1 <= 0 else math.log(phi1)
        log_phi2 = -math.inf if phi2 <= 0 else math.log(phi2)
        log_remainder = math.inf
    else:
        log_phi1, log_phi2 = math.log(phi1), math.log(phi2)
        log_remainder = (a_n * math.log(eta)
                         - 2.0 * float(log_em[1:].sum() + log_psi[1:].sum())
                         + 2.0 * float(log_ups.sum())
                         - log_phi1 - log_phi2)
        log_total, headline = _assemble(log_lambda, log_remainder)
    return BoundBreakdown(
        log_lambda=log_lambda,
        log_remainder=log_remainder,
        log_total=log_total,
        headline=headline,
        components={
            "a_n": a_n,
            "sum_log_eps_minus": float(log_em[1:].sum()),
            "sum_log_psi": float(log_psi[1:].sum()),
            "sum_log_upsilon": float(log_ups.sum()),
            "log_phi_nu": log_phi1,
            "log_phi_nu_prime": log_phi2,
        },
        parameters={"eta": eta, "alpha": alpha, "delta": None, "n": n,
                    "d_mode": "finite-exact", "phi_method": "finite-exact"},
        per_step={
            "log_eps_minus": log_em,
            "log_eps_plus": log_ep,
            "log_psi": log_psi,
            "log_rho": log_rho,
            "log_upsilon": log_ups,
        },
        diagnostics={
            "phi_underflow": bool(phi1 <= 0 or phi2 <= 0),
            "vacuous": bool(log_total >= 0.0),
            "required_eta": required,
        },
    )


def admissible_eta_finite(fmodel, ld, ys):
    """Largest achieved outside-set emission ratio over the observed bins."""
    worst = 0.0
    for y in np.asarray(ys, dtype=float):
        g = fmodel.emission_vector(y)
        inside = ld.set_for(y)
        outside = np.setdiff1d(np.arange(fmodel.m), inside)
        if outside.size == 0:
            continue
        worst = max(worst, float(g[outside].max() / g.max()))
    return worst


def write_bound_csv(breakdown, path):
    """Per-step CSV: i, log_eps_minus, log_psi, log_upsilon, log_rho.

    Pair-indexed columns are defined from i = 1 (the pair (y_{i-1}, y_i));
    row 0 carries only the likelihood supremum.
    """
    ps = breakdown.per_step
    n = breakdown.parameters["n"]
    lines = ["i,log_eps_minus,log_psi,log_upsilon,log_rho"]
    for i in range(n + 1):
        if i == 0:
            lines.append(f"0,,,{ps['log_upsilon'][0]:.17g},")
        else:
            lines.append(
                f"{i},{ps['log_eps_minus'][i - 1]:.17g},{ps['log_psi'][i - 1]:.17g},"
                f"{ps['log_upsilon'][i]:.17g},{ps['log_rho'][i - 1]:.17g}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def bound_series(model, prior1, prior2, ys, alpha, eta, d_mode="auto", traj=None,
                 truth=None, phi_method="quad", seed=0):
    """Assembled bound for every prefix y_{0:k}, k = 2..n, reusing shared terms.

    The full-horizon breakdown the series is built from is returned under
    ``"full"``."""
    full = forgetting_bound(model, prior1, prior2, ys, alpha, eta, d_mode=d_mode,
                            traj=traj, truth=truth, phi_method=phi_method, seed=seed)
    ps = full.per_step
    log_phi = full.components["log_phi_nu"] + full.components["log_phi_nu_prime"]
    out = {"n": [], "log_lambda": [], "log_remainder": [], "log_total": [], "headline": []}
    n = full.parameters["n"]
    for k in range(2, n + 1):
        log_rho_k = ps["log_rho"][:k]
        log_lam = max_product_with_quota(log_rho_k, alpha)
        a_k = math.floor((1.0 - alpha) * k / 2.0)
        rem = (a_k * math.log(eta)
               - 2.0 * float(ps["log_eps_minus"][1:k].sum() + ps["log_psi"][1:k].sum())
               + 2.0 * float(ps["log_upsilon"][: k + 1].sum())
               - log_phi)
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


def eta_sweep(model, prior1, prior2, ys, alpha, etas=None, **kwargs):
    """Evaluate the bound on a log-spaced eta grid; report the tightest total.

    Sweep points are independent, so they run on a thread pool; results come
    back in eta order regardless of completion order.
    """
    if etas is None:
        etas = np.exp(np.linspace(math.log(1e-4), math.log(0.5), 13))

    def eval_one(eta):
        return forgetting_bound(model, prior1, prior2, ys, alpha, float(eta), **kwargs)

    with ThreadPoolExecutor(max_workers=min(len(etas), 8)) as pool:
        results = list(pool.map(eval_one, etas))
    best = min(results, key=lambda b: b.log_total)
    return {"etas": np.asarray(etas, dtype=float), "results": results, "best": best}


# ---------------------------------------------------------------------------
# finite-model inequality checks (exhaustive)


@dataclass(frozen=True)
class GapResult:
    lhs: float
    rhs: float
    lhs_log: float
    rhs_log: float
    holds: bool


def _enumerate_paths(fmodel, nu, ys):
    """All state paths with their log weights (prior, transitions, emissions)."""
    nu = np.asarray(nu, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = fmodel.m
    n = len(ys) - 1
    if m ** (n + 1) > 10**7:
        raise OracleScaleError("path enumeration capped at 10^7 paths")
    paths = _path_digits(m, n + 1)
    g = np.stack([fmodel.emission_vector(y) for y in ys], axis=0)
    with np.errstate(divide="ignore"):
        log_w = np.log(nu)[paths[:, 0]]
        for k in range(1, n + 1):
            log_w = log_w + np.log(fmodel.Q)[paths[:, k - 1], paths[:, k]]
        for k in range(0, n + 1):
            log_w = log_w + np.log(g[k])[paths[:, k]]
    return paths, log_w


def _terminal_sums(fmodel, nu, ys):
    """Unnormalized terminal-state masses from the full path table, scaled."""
    paths, log_w = _enumerate_paths(fmodel, nu, ys)
    peak = float(np.max(log_w))
    if not np.isfinite(peak):
        return np.zeros(fmodel.m), -math.inf
    w = np.exp(log_w - peak)
    return np.bincount(paths[:, -1], weights=w, minlength=fmodel.m), peak


def numerator_gap(fmodel, nu, nup, ys, ld):
    """Exhaustive check of the coupled-chain numerator inequality.

    lhs: the worst subset gap between the two unnormalized terminal expectations,
    enumerated over all 2^m subsets. rhs: the product-chain expectation with the
    contraction factor active on within-set transitions, computed by dynamic
    programming over pair states.
    """
    nu = np.asarray(nu, dtype=float)
    nup = np.asarray(nup, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = fmodel.m
    if m > 20:
        raise OracleScaleError("subset enumeration capped at 2^20")
    s1, ls1 = _terminal_sums(fmodel, nu, ys)
    s2, ls2 = _terminal_sums(fmodel, nup, ys)
    # common scale exp(ls1 + ls2) for the cross products
    c = s1 * s2.sum() - s2 * s1.sum()
    best = 0.0
    for bits in range(1 << m):
        sel = [(bits >> t) & 1 for t in range(m)]
        val = abs(float(c[np.array(sel, dtype=bool)].sum()))
        best = max(best, val)
    lhs_log = (ls1 + ls2 + math.log(best)) if best > 0 else -math.inf
    rhs_log = _pair_chain_rhs_log(fmodel, nu, nup, ys, ld)
    lhs = math.exp(lhs_log) if lhs_log < 700 else math.inf
    rhs = math.exp(rhs_log) if rhs_log < 700 else math.inf
    holds = lhs_log <= rhs_log + 1e-10
    return GapResult(lhs=lhs, rhs=rhs, lhs_log=lhs_log, rhs_log=rhs_log, holds=holds)


def _ld_masks(fmodel, ld, ys):
    """Boolean set-membership masks per observation index."""
    masks = []
    for y in ys:
        mask = np.zeros(fmodel.m, dtype=bool)
        mask[ld.set_for(y)] = True
        masks.append(mask)
    return masks


def _pair_chain_rhs_log(fmodel, nu, nup, ys, ld):
    """DP over pair states for the contraction-weighted product-chain mass."""
    m = fmodel.m
    n = len(ys) - 1
    masks = _ld_masks(fmodel, ld, ys)
    g = [fmodel.emission_vector(y) for y in ys]
    QQ = np.kron(fmodel.Q, fmodel.Q)  # pair index u*m + v
    w = np.outer(nu * g[0], nup * g[0]).reshape(-1)
    log_scale = 0.0
    bins = [int(ld.obs_to_bin(y)) for y in ys]
    for i in range(1, n + 1):
        pair_in_prev = np.outer(masks[i - 1], masks[i - 1]).reshape(-1)
        pair_in_cur = np.outer(masks[i], masks[i]).reshape(-1)
        lo, hi = ld.envelopes_for_bins(bins[i - 1], bins[i])
        rho = 1.0 - (lo / hi) ** 2
        gg = np.outer(g[i], g[i]).reshape(-1)
        arrived_from_in = (w * pair_in_prev) @ QQ
        arrived_from_out = (w * ~pair_in_prev) @ QQ
        factor = np.where(pair_in_cur, rho, 1.0)
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
    paths, log_w = _enumerate_paths(fmodel, nu, ys)
    _, log_w2 = _enumerate_paths(fmodel, nup, ys)  # identical path table, new weights
    masks = _ld_masks(fmodel, ld, ys)
    in_c = np.stack([masks[k][paths[:, k]] for k in range(n + 1)], axis=1)  # (P, n+1)
    bins = [int(ld.obs_to_bin(y)) for y in ys]
    rhos = []
    for i in range(1, n + 1):
        lo, hi = ld.envelopes_for_bins(bins[i - 1], bins[i])
        rhos.append(1.0 - (lo / hi) ** 2)
    w1 = np.exp(log_w)
    w2 = np.exp(log_w2)
    total = 0.0
    for p in range(len(paths)):
        if w1[p] == 0.0:
            continue
        # delta_i couples the two paths through joint set membership
        factor = np.ones(len(paths))
        for i in range(1, n + 1):
            joint = in_c[p, i - 1] & in_c[p, i] & in_c[:, i - 1] & in_c[:, i]
            factor = np.where(joint, factor * rhos[i - 1], factor)
        total += w1[p] * float((w2 * factor).sum())
    return total


def denominator_gap(fmodel, nu, ys, ld):
    """Exhaustive check of the evidence lower bound.

    lhs: the full path sum of prior, transition and emission weights. rhs: the
    product of per-pair lower envelopes and set likelihood masses times the
    two-step prior mass.
    """
    ys = np.asarray(ys, dtype=float)
    n = len(ys) - 1
    if n < 1:
        raise ConfigError("need at least one step")
    _, log_w = _enumerate_paths(fmodel, nu, ys)
    lhs_log = _logsumexp(log_w)
    bins = [int(ld.obs_to_bin(y)) for y in ys]
    rhs_log = math.log(two_step_prior_mass_finite(fmodel, nu, ys[0], ys[1], ld.set_for(ys[1])))
    for i in range(2, n + 1):
        lo, _ = ld.envelopes_for_bins(bins[i - 1], bins[i])
        rhs_log += math.log(lo) + math.log(set_likelihood_mass_finite(fmodel, ld, ys[i - 1], ys[i]))
    lhs = math.exp(lhs_log) if lhs_log < 700 else math.inf
    rhs = math.exp(rhs_log) if rhs_log < 700 else math.inf
    holds = rhs_log <= lhs_log + 1e-10
    return GapResult(lhs=lhs, rhs=rhs, lhs_log=lhs_log, rhs_log=rhs_log, holds=holds)
