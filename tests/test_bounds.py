"""Bound assembly: quota maximization, mass terms, gap checks, sweeps."""

import math

import numpy as np
import pytest

from ldlab.bounds import (
    BoundBreakdown,
    admissible_eta_finite,
    bound_series,
    denominator_gap,
    eta_sweep,
    forgetting_bound,
    forgetting_bound_finite,
    max_product_with_quota,
    max_product_with_quota_bruteforce,
    numerator_gap,
    numerator_rhs_enumerated,
    set_likelihood_mass,
    set_likelihood_mass_finite,
    two_step_prior_mass,
    two_step_prior_mass_finite,
    write_bound_csv,
)
from ldlab.dists import NormalPrior
from ldlab.doeblin import finite_ld_construct
from ldlab.errors import ConfigError, H2FailureError, InfeasibleConstraintError
from ldlab.filtering import exact_filter_finite, tv_half_l1
from ldlab.models import gaussian_finite_model, simulate_finite, simulate_trajectory
from ldlab.modelspec import model_from_spec

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


def test_two_step_prior_mass_finite_by_hand():
    fm, ld = _chain3()
    nu = np.array([0.2, 0.5, 0.3])
    y0, y1 = 0.0, 1.5  # bins 1 and 2; set at y1 is {1, 2}
    g0 = fm.emission_vector(y0)
    g1 = fm.emission_vector(y1)
    expect = 0.0
    for i in range(3):
        for j in (1, 2):
            expect += nu[i] * g0[i] * fm.Q[i, j] * g1[j]
    got = two_step_prior_mass_finite(fm, nu, y0, y1, ld.set_for(y1))
    assert got == pytest.approx(expect, rel=1e-14)


def test_set_likelihood_mass_finite_by_hand():
    fm, ld = _chain3()
    y, yp = 0.0, -1.5  # target bin 0, set {0, 1}
    g = fm.emission_vector(yp)
    # uniform normalized reference on the set: the average emission value
    assert set_likelihood_mass_finite(fm, ld, y, yp) == pytest.approx(
        (g[0] + g[1]) / 2.0, rel=1e-14)


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


def test_bound_series_last_point_matches_full_bound():
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=8, seed=6)
    p1, p2 = NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0)
    series = bound_series(m, p1, p2, traj.observations, alpha=0.5, eta=0.3)
    full = forgetting_bound(m, p1, p2, traj.observations, alpha=0.5, eta=0.3)
    assert series["n"][-1] == 8
    assert series["log_total"][-1] == pytest.approx(full.log_total, rel=1e-12)
    assert series["headline"][-1] == pytest.approx(full.headline, rel=1e-12)
    # the breakdown behind the series is the full-horizon bound itself
    assert series["full"].to_json_dict() == full.to_json_dict()
    # prefixes get monotonically more data, not monotonically better bounds;
    # just require finiteness and the clamp
    assert np.all(np.isfinite(series["log_lambda"]))
    assert np.all(series["headline"] <= 1.0)


def test_eta_sweep_best_minimizes_log_total():
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=6, seed=7)
    out = eta_sweep(m, NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0),
                    traj.observations, alpha=0.5, etas=[0.05, 0.1, 0.3, 0.6])
    totals = [r.log_total for r in out["results"]]
    assert out["best"].log_total == min(totals)
    assert list(out["etas"]) == [0.05, 0.1, 0.3, 0.6]
    # results arrive in input order regardless of the thread pool
    assert [r.parameters["eta"] for r in out["results"]] == [0.05, 0.1, 0.3, 0.6]


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


def test_misspec_mode_flows_through_bound():
    from ldlab.models import make_misspecified_truth, simulate_misspecified

    filt = _rw_model()
    truth_model = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "sine_perturbed_affine", "c0": 0.0, "c1": 1.0,
              "amp": 1.0, "freq": 1.0},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    mt = make_misspecified_truth(filt, truth_model, f_gap=1.0, h_gap=0.0)
    traj = simulate_misspecified(mt, NormalPrior(0.0, 1.0), n=5, seed=3)
    b = forgetting_bound(filt, NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0),
                         traj.observations, alpha=0.5, eta=0.3,
                         d_mode="misspec", traj=traj, truth=mt)
    assert b.parameters["d_mode"] == "misspec"
    # misspec distances are larger, so the contraction factors are worse than
    # the exact-mode ones on the same data
    b_exact = forgetting_bound(filt, NormalPrior(-1.0, 1.0), NormalPrior(1.0, 1.0),
                               traj.observations, alpha=0.5, eta=0.3)
    assert np.all(b.per_step["log_rho"] >= b_exact.per_step["log_rho"] - 1e-12)
