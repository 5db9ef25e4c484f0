"""Bound assembly: quota maximization, mass terms, gap checks, sweeps."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from ldlab.bounds import (
    BoundBreakdown,
    _finite_stream,
    admissible_eta_finite,
    bound_series,
    denominator_gap,
    forgetting_bound,
    forgetting_bound_finite,
    max_product_with_quota,
    max_product_with_quota_bruteforce,
    numerator_gap,
    numerator_rhs_enumerated,
    set_likelihood_mass,
    two_step_prior_mass,
)
from ldlab.dists import NormalPrior, PointMassPrior, prior_from_spec
from ldlab.doeblin import (
    delta_for_eta,
    distance_series,
    envelope_radius,
    finite_ld_construct,
    log_contraction_from_logs,
    misspec_distance,
)
from ldlab.errors import (
    ConfigError,
    ConstructionError,
    H2FailureError,
    InfeasibleConstraintError,
)
from ldlab.filtering import exact_filter_finite, tv_half_l1
from ldlab.models import (
    FiniteModel,
    gaussian_finite_model,
    simulate_finite,
    simulate_misspecified,
    simulate_trajectory,
)
from ldlab.modelspec import model_from_spec
from ldlab.scenarios import PRESETS, preset_config, scenario_from_dict, write_bound_csv

ERF_1_OVER_SQRT2 = 0.6826894921370859  # standard normal mass of [-1, 1]


def _rw_model():
    return model_from_spec({
        "kind": "linear_gaussian",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })


def _chain3():
    """Three-state chain, strictly positive transitions, overlapping bins."""
    fm = gaussian_finite_model(
        Q=np.array([[0.5, 0.3, 0.2],
                    [0.2, 0.5, 0.3],
                    [0.3, 0.2, 0.5]]),
        means=np.array([-2.0, 0.0, 2.0]),
        stds=np.array([1.5, 1.5, 1.5]))

    def obs_to_bin(y):
        if y < -1.0:
            return 0
        if y <= 1.0:
            return 1
        return 2

    ld = finite_ld_construct(fm, [[0, 1], [0, 1, 2], [1, 2]], obs_to_bin=obs_to_bin)
    return fm, ld


def test_quota_maximizer_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        log_rho = -rng.exponential(1.0, size=n)
        for alpha in (0.3, 0.5, 0.8):
            fast = max_product_with_quota(log_rho, alpha)
            slow = max_product_with_quota_bruteforce(log_rho, alpha)
            assert abs(fast - slow) < 1e-12


def test_quota_maximizer_input_validation():
    with pytest.raises(ConfigError):
        max_product_with_quota([], 0.5)
    with pytest.raises(ConfigError):
        max_product_with_quota([-1.0], 1.5)
    with pytest.raises(ConfigError):
        max_product_with_quota([0.5], 0.5)  # positive log factor


def test_quota_picks_largest_entries():
    lf = np.array([-3.0, -0.5, -1.0, -2.0])
    # ceil(0.5 * 4) = 2 activations: -0.5 and -1.0
    assert max_product_with_quota(lf, 0.5) == pytest.approx(-1.5)
    # ceil(0.8 * 4) = 4: everything
    assert max_product_with_quota(lf, 0.8) == pytest.approx(-6.5)


def test_set_likelihood_mass_unit_window():
    m = _rw_model()
    # integral of the observation density over one unit around its center
    for yp in (-2.0, 0.0, 3.7):
        val = set_likelihood_mass(m, y=0.0, yp=yp, delta=1.0)
        assert val == pytest.approx(ERF_1_OVER_SQRT2, rel=1e-9)


def test_two_step_prior_mass_against_dense_grid():
    m = _rw_model()
    prior = NormalPrior(0.0, 1.0)
    y0, y1, delta = 0.2, -0.4, 1.0
    phi = two_step_prior_mass(m, prior, y0, y1, delta, method="quad")

    # independent dense-grid double integral
    xs = np.linspace(-9.0, 9.0, 4001)
    xps = np.linspace(y1 - delta, y1 + delta, 2001)

    def npdf(u):
        return np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)

    inner = np.trapezoid(npdf(xps[None, :] - xs[:, None]) * npdf(y1 - xps)[None, :],
                         xps, axis=1)
    outer = np.trapezoid(npdf(xs) * npdf(y0 - xs) * inner, xs)
    assert phi.value == pytest.approx(outer, rel=1e-6)
    assert phi.method == "quad"
    assert not phi.underflow


def test_two_step_prior_mass_mc_agrees_with_quad():
    m = _rw_model()
    prior = NormalPrior(0.0, 1.0)
    q = two_step_prior_mass(m, prior, 0.0, 0.5, 1.0, method="quad")
    mc = two_step_prior_mass(m, prior, 0.0, 0.5, 1.0, method="mc",
                             budget=200_000, seed=5)
    assert mc.stderr is not None
    assert abs(mc.value - q.value) < 5.0 * mc.stderr + 1e-12


def test_two_step_prior_mass_underflow_fallback():
    m = _rw_model()
    prior = NormalPrior(60.0, 0.05)  # both likelihood factors vanish in floats
    phi = two_step_prior_mass(m, prior, 0.0, 0.0, 1.0, method="quad")
    assert phi.underflow
    assert np.isfinite(phi.log_value)
    assert phi.log_value < -700.0


@pytest.mark.parametrize("preset", ["rw-gauss", "ar-unstable"])
def test_masses_match_closed_forms_on_gaussian_presets(preset, references):
    raw = PRESETS[preset]
    model = model_from_spec(raw["model"])
    a, c0, q, r = references.gaussian_params(raw["model"])
    # (prior, mean, std); a point mass is the closed form's std = 0
    priors = [(prior_from_spec(p), p["mean"], p["std"]) for p in (raw["prior1"], raw["prior2"])]
    priors.append((PointMassPrior(-5.0), -5.0, 0.0))
    for seed in raw["seeds"]:
        ys = simulate_trajectory(model, priors[0][0], raw["horizon"], seed).observations
        for eta in (0.1, 1e-3):
            delta = delta_for_eta(model, eta)
            for prior, mean, std in priors:
                phi = two_step_prior_mass(model, prior, ys[0], ys[1], delta)
                exact = references.log_phi(a, c0, q, r, mean, std, ys[0], ys[1], delta)
                assert abs(phi.log_value - exact) <= 1e-10, (seed, eta, mean, std)
                assert phi.rule_err <= 1e-10
    # psi is one closed-form number, the same for every observation
    for eta in (0.1, 1e-3, 1e-20, 1e-300):
        delta = delta_for_eta(model, eta)
        psi = set_likelihood_mass(model, ys[0], ys[1], delta)
        assert abs(math.log(psi) - references.log_psi(r, delta)) <= 1e-14, eta


def test_set_likelihood_mass_matches_student_t_closed_form():
    # t(3) noise at scale 0.5 through h(x) = 0.3 + 2x, so b = 1/2
    model = model_from_spec({
        "h": {"type": "affine", "c0": 0.3, "c1": 2.0},
        "obs_noise": {"family": "student_t", "df": 3.0, "scale": 0.5},
    })
    for eta in (0.1, 1e-6, 1e-20, 1e-300):
        delta = delta_for_eta(model, eta)
        exact = math.log(0.5) + math.log1p(-2.0 * stats.t.sf(delta, 3.0, scale=0.5))
        psi = set_likelihood_mass(model, -1.0, 2.5, delta)
        assert abs(math.log(psi) - exact) <= 1e-12, eta


def _chain3_breakdown(nu):
    """The finite bound on _chain3 for y = (0, 1.5, -1.5): bins 1, 2, 0."""
    fm, ld = _chain3()
    ys = np.array([0.0, 1.5, -1.5])
    b = forgetting_bound_finite(fm, ld, nu, np.array([0.1, 0.1, 0.8]), ys, alpha=0.4, eta=0.5)
    return fm, ys, b


def test_two_step_prior_mass_finite_by_hand():
    nu = np.array([0.2, 0.5, 0.3])
    fm, ys, b = _chain3_breakdown(nu)
    g0 = fm.emission_vector(ys[0])
    g1 = fm.emission_vector(ys[1])
    expect = 0.0
    for i in range(3):
        for j in (1, 2):  # the set at y1 = 1.5
            expect += nu[i] * g0[i] * fm.Q[i, j] * g1[j]
    assert b.components["log_phi_nu"] == pytest.approx(math.log(expect), rel=1e-14)


def test_set_likelihood_mass_finite_by_hand():
    fm, ys, b = _chain3_breakdown(np.array([0.2, 0.5, 0.3]))
    g1 = fm.emission_vector(ys[1])  # set {1, 2}
    g2 = fm.emission_vector(ys[2])  # set {0, 1}
    # uniform normalized reference on the set: the average emission value
    assert np.exp(b.per_step["log_psi"]) == pytest.approx(
        [(g1[1] + g1[2]) / 2.0, (g2[0] + g2[1]) / 2.0], rel=1e-14)


def test_finite_stream_reads_what_each_observation_gives():
    # the set rows and pair envelopes are tabulated once with the set function;
    # along a stream they read what np.isin and envelopes_for_bins give per
    # observation, and a pair with a zero transition raises its error
    rng = np.random.default_rng(8)
    raised = 0
    for _ in range(80):
        m, n_bins = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        Q = rng.random((m, m)) * (rng.random((m, m)) < 0.7)
        Q[np.arange(m), rng.integers(0, m, size=m)] += 0.05
        fm = gaussian_finite_model(Q / Q.sum(axis=1, keepdims=True), rng.normal(0.0, 2.0, m),
                                   np.ones(m))
        table = [sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
                 for _ in range(n_bins)]
        ld = finite_ld_construct(fm, table)  # bin of y: round(y)
        ys = rng.integers(0, n_bins, size=int(rng.integers(2, 12))).astype(float)
        bins = [int(y) for y in ys]
        inside = np.array([np.isin(np.arange(m), ld.set_table[b]) for b in bins])
        try:
            pairs = [ld.envelopes_for_bins(i, j) for i, j in zip(bins[:-1], bins[1:])]
        except ConstructionError as exc:
            raised += 1
            with pytest.raises(ConstructionError, match=re.escape(str(exc))):
                _finite_stream(fm, ld, ys)
            continue
        g, got_inside, lo, hi = _finite_stream(fm, ld, ys)
        assert np.array_equal(got_inside, inside)
        assert lo.tobytes() == np.array([p[0] for p in pairs]).tobytes()
        assert hi.tobytes() == np.array([p[1] for p in pairs]).tobytes()
        assert g.tobytes() == np.array([fm.emission_vector(y) for y in ys]).tobytes()
    assert 0 < raised < 80


def test_zero_transition_pair_raises_only_when_a_stream_observes_it():
    # bin 0 = {0} never moves into bin 1 = {1, 2}; the set function is still built
    fm = gaussian_finite_model(
        Q=np.array([[1.0, 0.0, 0.0],
                    [0.3, 0.4, 0.3],
                    [0.2, 0.3, 0.5]]),
        means=np.array([-3.0, 0.0, 3.0]),
        stds=np.array([1.0, 1.0, 1.0]))
    ld = finite_ld_construct(fm, [[0], [1, 2]], obs_to_bin=lambda y: 0 if y < -1.5 else 1)
    nu, nup = np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.2, 0.2])
    checks = (lambda ys: forgetting_bound_finite(fm, ld, nu, nup, ys, alpha=0.4, eta=0.5),
              lambda ys: numerator_gap(fm, nu, nup, ys, ld),
              lambda ys: denominator_gap(fm, nu, ys, ld))
    for check in checks:
        check(np.array([0.5, 2.0, -3.0, -3.2]))  # bins 1, 1, 0, 0
        with pytest.raises(ConstructionError, match="from bin 0 into bin 1"):
            check(np.array([0.5, -3.0, 2.0]))  # bins 1, 0, 1


def test_finite_bound_reads_each_emission_row_once(monkeypatch):
    cfg = preset_config("finite-oracle")
    _, ys = simulate_finite(cfg.fmodel, cfg.nu1, cfg.horizon, 501)
    calls = []
    emission_vector = FiniteModel.emission_vector

    def counted(self, y):
        calls.append(y)
        return emission_vector(self, y)

    monkeypatch.setattr(FiniteModel, "emission_vector", counted)
    forgetting_bound_finite(cfg.fmodel, cfg.ld, cfg.nu1, cfg.nu2, ys, cfg.bound.alpha,
                            cfg.bound.eta)
    assert len(calls) == len(ys) == 41


def test_forgetting_bound_assembly_identity():
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=6, seed=2)
    b = forgetting_bound(m, NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0),
                         traj.observations, alpha=0.5, eta=0.3)
    assert isinstance(b, BoundBreakdown)
    n = b.parameters["n"]
    assert n == 6
    # remainder must recompose from the reported pieces
    c = b.components
    recomposed = (c["a_n"] * math.log(0.3)
                  - 2.0 * (c["sum_log_eps_minus"] + c["sum_log_psi"])
                  + 2.0 * c["sum_log_upsilon"]
                  - c["log_phi_nu"] - c["log_phi_nu_prime"])
    assert b.log_remainder == pytest.approx(recomposed, rel=1e-12)
    assert c["a_n"] == math.floor((1.0 - 0.5) * n / 2.0)
    # quota term recomposes from the per-step contraction values
    assert b.log_lambda == pytest.approx(
        max_product_with_quota(b.per_step["log_rho"], 0.5), rel=1e-12)
    # total: log-add-exp of the two parts, headline clamped at 1
    assert b.log_total == pytest.approx(
        np.logaddexp(b.log_lambda, b.log_remainder), rel=1e-12)
    assert b.headline == min(1.0, math.exp(min(b.log_total, 0.0)))
    # per-step arrays span pairs k = 1..n
    assert len(b.per_step["log_eps_minus"]) == n
    assert len(b.per_step["log_upsilon"]) == n + 1
    # the change of each log phi at doubled rule order
    assert 0.0 <= b.diagnostics["mass_rule_err"] <= 1e-10


def test_misspec_mode_flows_through_bound():
    # on data from a truth block the bound reads the exact preimage distance of
    # the data, which the misspec noise-record form bounds from above on every
    # seed; so its contraction factors are no worse than that form's would be
    cfg = preset_config("misspec")
    noise = cfg.model.state_noise
    delta = delta_for_eta(cfg.model, 0.3)
    for seed in cfg.seeds:
        traj = simulate_misspecified(cfg.truth, cfg.nu1, cfg.horizon, seed)
        eps = traj.obs_noise
        form = misspec_distance(cfg.truth, eps[:-1], traj.state_noise, eps[1:])
        d = distance_series(cfg.model, traj.observations)
        assert np.all(d <= form + 1e-12), seed
        b = forgetting_bound(cfg.model, cfg.nu1, cfg.nu2, traj.observations,
                             alpha=0.5, eta=0.3)
        assert "d_mode" not in b.parameters
        r = envelope_radius(cfg.model, delta, d)
        assert np.array_equal(b.per_step["log_eps_minus"], noise.log_radial_min(r))
        r_form = envelope_radius(cfg.model, delta, form)
        log_rho_form = log_contraction_from_logs(noise.log_radial_min(r_form),
                                                 noise.log_radial_max(r_form))
        assert np.all(b.per_step["log_rho"] <= log_rho_form + 1e-12), seed


def test_forgetting_bound_needs_two_steps():
    m = _rw_model()
    with pytest.raises(ConfigError):
        forgetting_bound(m, NormalPrior(0, 1), NormalPrior(0, 1),
                         [0.0, 1.0], alpha=0.5, eta=0.3)
    with pytest.raises(ConfigError):
        forgetting_bound(m, NormalPrior(0, 1), NormalPrior(0, 1),
                         [0.0, 1.0, 2.0], alpha=0.5, eta=1.5)


def test_finite_bound_validity_against_exact_tv():
    # the headline bound must dominate the exact filter gap, every seed
    fm, ld = _chain3()
    nu1 = np.array([0.8, 0.1, 0.1])
    nu2 = np.array([0.1, 0.1, 0.8])
    for seed in range(8):
        _, ys = simulate_finite(fm, np.array([1 / 3, 1 / 3, 1 / 3]), n=8, seed=seed)
        required = admissible_eta_finite(fm, ld, ys)
        eta = max(0.6, min(0.95, required + 0.05))
        b = forgetting_bound_finite(fm, ld, nu1, nu2, ys, alpha=0.4, eta=eta)
        f1, _ = exact_filter_finite(fm, nu1, ys)
        f2, _ = exact_filter_finite(fm, nu2, ys)
        tv = tv_half_l1(f1[-1], f2[-1])
        assert tv <= b.headline + 1e-12, f"seed {seed}: tv {tv} > bound {b.headline}"


def test_finite_bound_rejects_eta_below_achieved_ratio():
    fm, ld = _chain3()
    _, ys = simulate_finite(fm, np.array([1 / 3, 1 / 3, 1 / 3]), n=6, seed=1)
    required = admissible_eta_finite(fm, ld, ys)
    assert required > 0.0  # partial bins leave states outside some set
    with pytest.raises(H2FailureError):
        forgetting_bound_finite(fm, ld, np.array([0.8, 0.1, 0.1]),
                                np.array([0.1, 0.1, 0.8]), ys,
                                alpha=0.4, eta=required / 2.0)


def test_finite_bound_with_zero_prior_mass_is_vacuous():
    # prior 1 sits on state 0, which never moves into the set {1, 2}, so its
    # two-step mass is exactly zero and the remainder is +inf
    fm = gaussian_finite_model(
        Q=np.array([[1.0, 0.0, 0.0],
                    [0.0, 0.6, 0.4],
                    [0.0, 0.3, 0.7]]),
        means=np.array([-10.0, 0.0, 1.0]),
        stds=np.array([1.0, 1.0, 1.0]))
    ld = finite_ld_construct(fm, [[1, 2]], obs_to_bin=lambda y: 0)
    ys = np.array([0.0, 0.5, 1.0, 0.2])
    b = forgetting_bound_finite(fm, ld, np.array([1.0, 0.0, 0.0]),
                                np.array([0.0, 0.5, 0.5]), ys, alpha=0.4, eta=0.5)
    assert b.components["log_phi_nu"] == -math.inf
    assert np.isfinite(b.components["log_phi_nu_prime"])
    assert b.log_remainder == math.inf
    assert b.log_total == math.inf
    assert b.headline == 1.0
    assert b.diagnostics["phi_underflow"] is True
    assert b.diagnostics["vacuous"] is True


def test_numerator_gap_holds_and_routes_agree():
    fm, ld = _chain3()
    rng = np.random.default_rng(3)
    nu1 = np.array([0.8, 0.1, 0.1])
    nu2 = np.array([0.1, 0.1, 0.8])
    for seed in range(6):
        _, ys = simulate_finite(fm, np.array([1 / 3, 1 / 3, 1 / 3]),
                                n=int(rng.integers(2, 5)), seed=seed + 10)
        gap = numerator_gap(fm, nu1, nu2, ys, ld)
        assert gap.holds, f"seed {seed}: lhs {gap.lhs_log} rhs {gap.rhs_log}"
        # literal enumeration of the paired chain must reproduce the DP rhs
        lit = numerator_rhs_enumerated(fm, nu1, nu2, ys, ld)
        assert math.log(lit) == pytest.approx(gap.rhs_log, abs=1e-12)


def test_denominator_gap_holds():
    fm, ld = _chain3()
    nu = np.array([0.6, 0.3, 0.1])
    for seed in range(6):
        _, ys = simulate_finite(fm, np.array([1 / 3, 1 / 3, 1 / 3]), n=4,
                                seed=seed + 20)
        gap = denominator_gap(fm, nu, ys, ld)
        assert gap.holds, f"seed {seed}: rhs {gap.rhs_log} > lhs {gap.lhs_log}"
        assert gap.rhs_log <= gap.lhs_log + 1e-10


def test_denominator_gap_with_zero_evidence_is_minus_inf():
    # every emission underflows at y = 1e3, so every path weighs zero and
    # both sides are log 0, without a warning
    fm, ld = _chain3()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = denominator_gap(fm, np.array([0.6, 0.3, 0.1]), np.array([0.0, 0.5, 1e3]), ld)
    assert gap.lhs_log == -math.inf
    assert gap.rhs_log == -math.inf
    assert gap.holds


def test_bound_series_last_point_matches_full_bound():
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=8, seed=6)
    p1, p2 = NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0)
    series = bound_series(m, p1, p2, traj.observations, alpha=0.5, etas=[0.3])
    full = forgetting_bound(m, p1, p2, traj.observations, alpha=0.5, eta=0.3)
    assert series["n"][-1] == 8
    # the last prefix goes through the breakdown's own remainder, bit for bit
    assert series["log_total"][-1] == full.log_total
    assert series["headline"][-1] == full.headline
    # the breakdown behind the series is the full-horizon bound itself
    assert series["full"].to_json_dict() == full.to_json_dict()
    assert series["results"] == [series["full"]]
    # prefixes get monotonically more data, not monotonically better bounds;
    # just require finiteness and the clamp
    assert np.all(np.isfinite(series["log_lambda"]))
    assert np.all(series["headline"] <= 1.0)


def test_eta_sweep_best_minimizes_log_total():
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=6, seed=7)
    etas = [0.05, 0.1, 0.3, 0.6]

    def sweep(points):
        return bound_series(m, NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0),
                            traj.observations, alpha=0.5, etas=points)

    out = sweep(etas)
    # one breakdown per eta, in input order
    assert [r.parameters["eta"] for r in out["results"]] == etas
    totals = [r.log_total for r in out["results"]]
    best = totals.index(min(totals))
    assert out["full"] is out["results"][best]
    assert out["log_total"][-1] == min(totals)
    assert out["parameters"]["eta"] == etas[best]
    # a repeated grid ties every point with its copy: the first minimum is kept
    twice = sweep(etas + etas)
    assert [r.log_total for r in twice["results"]] == totals + totals
    assert twice["full"] is twice["results"][best]


def test_write_bound_csv_layout(tmp_path):
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=5, seed=8)
    b = forgetting_bound(m, NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0),
                         traj.observations, alpha=0.5, eta=0.3)
    path = tmp_path / "bound.csv"
    write_bound_csv(b, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,log_eps_minus,log_psi,log_upsilon,log_rho"
    assert len(lines) == 1 + 1 + 5  # header, upsilon-only row 0, pairs i=1..5
    # row 0 has no pair-indexed values
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[1] == "" and row0[4] == ""



@pytest.mark.parametrize("sigma, eta", [(0.1, 1e-30), (0.03, 1e-20)])
def test_continuous_bound_drops_below_one_and_stays_above_the_kalman_tv(sigma, eta,
                                                                       references):
    # a continuous gate that bites: with sharp observations and a tiny eta the
    # bound falls below 1 (log below 0) on many prefixes, where it must still
    # sit at or above the exact log TV of the two Kalman filters
    raw = json.loads(json.dumps(PRESETS["rw-gauss"]))
    raw["model"]["obs_noise"]["sigma"] = sigma
    raw.update(horizon=100, seeds=list(range(101, 111)), bound={"alpha": 0.5, "eta": eta})
    cfg = scenario_from_dict(raw)
    a, _, q, r = references.gaussian_params(raw["model"])
    p1, p2 = raw["prior1"], raw["prior2"]
    assert p1["std"] == p2["std"]
    exact = references.kalman_log_tv(a, q, r, p1["mean"], p2["mean"], p1["std"], cfg.horizon)
    below, prefixes, margin = 0, 0, math.inf
    for seed in cfg.seeds:
        ys = simulate_trajectory(cfg.model, cfg.nu1, cfg.horizon, seed).observations
        series = bound_series(cfg.model, cfg.nu1, cfg.nu2, ys, cfg.bound.alpha, [cfg.bound.eta])
        gap = series["log_total"] - exact[series["n"]]
        assert np.all(gap >= 0.0), (seed, float(gap.min()))
        below += int(np.sum(series["log_total"] < 0.0))
        prefixes += len(gap)
        margin = min(margin, float(gap.min()))
    print(f"\n[bound gate sigma={sigma}, eta={eta:g}] {below} of {prefixes} prefixes below 0, "
          f"smallest margin {margin:.3g}")
    assert below > 0
