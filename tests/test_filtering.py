"""Filter recursions: finite exact, grid, particles, paired runner, fits."""

import math

import numpy as np
import pytest

from ldlab import filtering
from ldlab.dists import NormalPrior, PointMassPrior
from ldlab.errors import FilterCollapseError
from ldlab.filtering import (
    ReprConfig,
    _half_l1,
    decay_rate,
    exact_filter_finite,
    exhaustive_filter_finite,
    exhaustive_terminal_sums,
    filter_init,
    filter_step,
    grid_filters,
    grid_init,
    grid_kernel,
    grid_moments,
    noise_tail_radius,
    prior_grid,
    project_particles_to_grid,
    run_grid_pair,
    systematic_resample,
    trap_weights,
    tv_distance,
    tv_half_l1,
)
from ldlab.models import finite_model_make, gaussian_finite_model, simulate_trajectory
from ldlab.modelspec import model_from_spec
from ldlab.scenarios import PRESETS, TvSeries, preset_dict, run_scenario, scenario_from_dict

# hand-computed two-step fixture:
#   nu = (.5, .5), Q = [[.7, .3], [.4, .6]], g(y0) = (.8, .4), g(y1) = (.7, .9)
#   after y0: (.4, .2)/.6            = (2/3, 1/3)
#   predict:  (.7*2/3+.4/3, .3*2/3+.6/3) = (.6, .4)
#   after y1: (.42, .36)/.78         = (7/13, 6/13)
FIX_Q = np.array([[0.7, 0.3], [0.4, 0.6]])
FIX_PDFS = [lambda y: {0: 0.8, 1: 0.7}[y], lambda y: {0: 0.4, 1: 0.9}[y]]


def _toy_finite():
    return finite_model_make(FIX_Q, FIX_PDFS)


def _rw_model():
    return model_from_spec({
        "kind": "linear_gaussian",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })


def test_finite_filter_two_step_fixture():
    fm = _toy_finite()
    filters, log_z = exact_filter_finite(fm, np.array([0.5, 0.5]), [0, 1])
    assert filters.shape == (2, 2)
    assert np.allclose(filters[0], [2 / 3, 1 / 3], atol=1e-15)
    assert np.allclose(filters[1], [7 / 13, 6 / 13], atol=1e-15)
    # evidence: 0.6 from the first update, 0.78 from the second
    assert log_z == pytest.approx(math.log(0.6) + math.log(0.78), abs=1e-13)


def test_exhaustive_filter_agrees_with_recursion():
    fm = _toy_finite()
    rng = np.random.default_rng(8)
    ys = list(rng.integers(0, 2, size=7))
    nu = np.array([0.3, 0.7])
    rec, log_z = exact_filter_finite(fm, nu, ys)
    exh, exh_log_z = exhaustive_filter_finite(fm, nu, ys)
    assert np.max(np.abs(rec[-1] - exh)) < 1e-12
    assert exh_log_z == pytest.approx(log_z, abs=1e-12)


def test_exhaustive_terminal_sums_normalize_to_evidence():
    fm = _toy_finite()
    nu = np.array([0.5, 0.5])
    ys = [0, 1, 1, 0]
    sums, log_scale = exhaustive_terminal_sums(fm, nu, ys)
    _, log_z = exact_filter_finite(fm, nu, ys)
    assert math.log(sums.sum()) + log_scale == pytest.approx(log_z, abs=1e-12)


def test_tv_half_l1_reference():
    assert tv_half_l1(np.array([0.5, 0.5]), np.array([0.2, 0.8])) == pytest.approx(0.3)
    assert tv_half_l1(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    p = np.array([0.25, 0.25, 0.5])
    assert tv_half_l1(p, p) == 0.0


def _kalman_filter(ys, m0, p0):
    """Scalar Kalman recursion for the identity random walk, unit noises."""
    # initial update with y0
    k = p0 / (p0 + 1.0)
    m = m0 + k * (ys[0] - m0)
    p = (1.0 - k) * p0
    out = [(m, p)]
    for y in ys[1:]:
        pp = p + 1.0
        k = pp / (pp + 1.0)
        m = m + k * (y - m)
        p = (1.0 - k) * pp
        out.append((m, p))
    return out


def test_grid_filter_tracks_kalman_moments():
    # trapezoid moments of a Gaussian posterior on its LD-clipped window are
    # exact to rounding (worst 4.4e-15 here); re-interpolating the log
    # weights onto a recentred window cost 5.2e-7
    model = _rw_model()
    ys = simulate_trajectory(model, PointMassPrior(0.0), n=30, seed=5).observations
    kalman = _kalman_filter(ys, 0.0, 4.0)
    steps = grid_filters(model, [NormalPrior(0.0, 2.0)], ys, ReprConfig(nodes=512))
    for k, ((state,), (km, kp)) in enumerate(zip(steps, kalman, strict=True)):
        mean, std = grid_moments(state)
        assert state.step == k
        assert abs(mean - km) <= 1e-12 and abs(std - math.sqrt(kp)) <= 1e-12, k


def test_grid_kernel_source_target_shapes_and_mass():
    model = _rw_model()
    src = np.linspace(-3.0, 3.0, 101)
    tgt = np.linspace(-9.0, 9.0, 361)
    K = grid_kernel(model, src, tgt)
    assert K.shape == (361, 101)
    # each source column integrates to ~1: target window clears 6 sigma
    tau = trap_weights(tgt)
    col_mass = (K * tau[:, None]).sum(axis=0)
    assert np.all(np.abs(col_mass - 1.0) < 1e-6)


KERNEL_NOISES = {
    "iid-gaussian": {"kind": "iid", "density": {"family": "gaussian", "sigma": 0.7}},
    "iid-student-t": {"kind": "iid", "density": {"family": "student_t", "df": 3.5, "scale": 1.3}},
    "scaled-t": {"kind": "scaled_t", "df": 4.0, "s0": 1.0, "s1": 0.3},
}


@pytest.mark.parametrize("noise", sorted(KERNEL_NOISES))
def test_grid_kernel_is_bitwise_the_column_by_column_kernel(noise):
    model = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "sine_perturbed_affine", "c0": 0.1, "c1": 0.9, "amp": 0.3},
        "h": {"type": "identity"},
        "state_noise": KERNEL_NOISES[noise],
    })
    src = np.linspace(-7.3, 6.1, 512)
    f_vals = np.asarray(model.f(src), dtype=float)
    # square, fewer target than source nodes, more target than source nodes
    for tgt in (None, np.linspace(-9.0, 8.5, 151), np.linspace(-2.0, 3.0, 257)):
        t = src if tgt is None else tgt
        ref = np.stack([np.exp(model.state_noise.logpdf(x, t - fx))
                        for x, fx in zip(src, f_vals)], axis=1)
        K = grid_kernel(model, src, tgt)
        assert K.shape == (len(t), len(src))
        assert np.array_equal(K, ref)


def test_noise_tail_radius_gaussian():
    model = _rw_model()
    r = noise_tail_radius(model.state_noise, eta=1e-12)
    assert r == pytest.approx(math.sqrt(2.0 * 12.0 * math.log(10.0)), rel=1e-12)


def test_paired_runner_equal_priors_is_exact_zero():
    model = _rw_model()
    traj = simulate_trajectory(model, PointMassPrior(0.0), n=12, seed=3)
    cfg = ReprConfig(nodes=256)
    res = run_grid_pair(model, NormalPrior(0.0, 1.0), NormalPrior(0.0, 1.0),
                        traj.observations, cfg)
    assert np.all(res.tv == 0.0)


def test_paired_runner_fails_where_the_second_filter_loses_its_mass():
    # an explosive truth (drift slope 5) puts y1 far out of the second
    # filter's predictive: its mass z + e^s zD is 0 on the clipped window and
    # on the wider rerun. The run fails at that step, not one later after a
    # TV of 0.0, and every TV from it on is NaN
    d = preset_dict("misspec")
    d["truth"]["f"]["c1"] = 5.0
    d["horizon"] = 5
    rep = run_scenario(scenario_from_dict(d), seed=401)
    assert rep.failure["error"] == "FilterCollapseError"
    assert rep.failure["step"] == 1
    assert rep.tv.tv[0] == pytest.approx(0.99959, abs=1e-5)
    assert np.isnan(rep.tv.tv[1:]).all() and np.isnan(rep.tv.log_tv[1:]).all()
    # the update marks a lost mass, or a difference that is not finite, with
    # s = NaN and a log mass of -inf, which asks for the wider window
    u, tau = np.ones(8), np.full(8, 0.5)
    for uD, s in ((-u, 0.0), (np.full(8, 1e308), 700.0)):
        with np.errstate(over="ignore", invalid="ignore"):
            (_, _, s_new), log_z = filtering._pair_quotient_update(u, uD, s, tau, 3)
        assert math.isnan(s_new) and log_z == -math.inf
    # a difference of exactly 0 stays exactly 0
    (_, D, s_new), log_z = filtering._pair_quotient_update(u, 0 * u, -math.inf, tau, 3)
    assert s_new == -math.inf and not D.any() and log_z == math.log(4.0)


def test_paired_runner_matches_steady_state_contraction():
    # identity map, unit noises: the filter pair contracts at a fixed
    # data-independent rate; log rate = ln((3 - sqrt(5))/2)
    expected_slope = math.log((3.0 - math.sqrt(5.0)) / 2.0)
    model = _rw_model()
    traj = simulate_trajectory(model, NormalPrior(-5.0, 1.0), n=100, seed=101)
    cfg = ReprConfig(nodes=512)
    res = run_grid_pair(model, NormalPrior(-5.0, 1.0), NormalPrior(5.0, 1.0),
                        traj.observations, cfg)
    series = TvSeries(n=np.arange(101), tv=res.tv, log_tv=res.log_tv)
    fit = decay_rate(series, fit_lo=20, fit_hi=100)
    assert fit.slope == pytest.approx(expected_slope, abs=2e-3)
    assert fit.r_squared > 0.999


@pytest.mark.parametrize("preset", ["rw-gauss", "ar-unstable", "misspec"])
def test_paired_runner_matches_kalman_log_tv_at_every_step(preset, references):
    # each preset at its configured nodes (worst error 7.8e-9 at 256 nodes);
    # misspec's filter model is linear-Gaussian, so its Kalman log TV does
    # not depend on the data its misspecified truth produced
    raw = dict(PRESETS[preset], bound=None)
    rep = run_scenario(scenario_from_dict(raw))
    p1, p2 = raw["prior1"], raw["prior2"]
    a, _, q, r = references.gaussian_params(raw["model"])
    exact = references.kalman_log_tv(a, q, r, p1["mean"], p2["mean"], p1["std"], raw["horizon"])
    assert np.max(np.abs(rep.tv.log_tv - exact)) <= 1e-7
    assert rep.diagnostics["min_cells_per_std"] > 5.0
    assert 0.0 < rep.diagnostics["edge_density_max"] < 1e-6


def test_ld_clip_widens_when_an_observation_conflicts_with_a_predictive(references):
    # y1 = -10 lies 8 predictive std from the far filter, whose posterior
    # then reaches past the LD set at ratio 1e-12 (edge density 5e-5 of its
    # peak, log TV off by 5.5e-7); the mass bound reruns that step on a wider
    # set. The Kalman log TV does not depend on the data.
    raw = PRESETS["rw-gauss"]
    model = model_from_spec(raw["model"])
    ys = np.array([-5.0] + [-10.0] * 20)
    res = run_grid_pair(model, NormalPrior(-5.0, 1.0), NormalPrior(5.0, 1.0), ys,
                        ReprConfig(nodes=256))
    a, _, q, r = references.gaussian_params(raw["model"])
    exact = references.kalman_log_tv(a, q, r, -5.0, 5.0, 1.0, len(ys) - 1)
    assert np.max(np.abs(res.log_tv - exact)) <= 1e-7
    assert res.diagnostics["edge_density_max"] < 1e-6


@pytest.mark.parametrize("seed", PRESETS["dep-noise"]["seeds"][:2])
def test_dep_noise_log_tv_converges_on_ld_clipped_windows(seed, monkeypatch):
    # no closed form here: the preset's 256 nodes must match 1024 nodes (worst
    # 4.1e-7 over the 20 preset seeds), and widening the observation's LD set
    # from radius 7.4 to 16.6 at about the same cell size must not move log TV
    raw = dict(PRESETS["dep-noise"], bound=None)

    def run(nodes):
        cfg = scenario_from_dict(dict(raw, repr=dict(raw["repr"], nodes=nodes)))
        return run_scenario(cfg, seed=seed)

    base, fine = run(256), run(1024)
    assert raw["repr"]["nodes"] == 256
    assert np.max(np.abs(base.tv.log_tv - fine.tv.log_tv)) <= 1e-5
    assert base.diagnostics["min_cells_per_std"] > 5.0
    assert 0.0 < base.diagnostics["edge_density_max"] < 1e-6
    monkeypatch.setattr(filtering, "LD_TAIL_RATIO", 1e-60)
    wide = run(2048)
    assert np.max(np.abs(wide.tv.log_tv - fine.tv.log_tv)) <= 1e-8


def _gauss_difference(a, x):
    """N(-a, 1) - N(a, 1) at x; half its L1 norm is erf(a / sqrt(2))."""
    return (np.exp(-0.5 * (x + a) ** 2) - np.exp(-0.5 * (x - a) ** 2)) / math.sqrt(2.0 * math.pi)


def test_half_l1_error_falls_faster_than_h4():
    exact = math.erf(1.0 / math.sqrt(2.0))
    errors = []
    for n in (64, 128, 256):
        h = 20.0 / n
        x = -10.013 + h * np.arange(n)  # the root at 0 falls inside a cell
        errors.append(abs(_half_l1(_gauss_difference(1.0, x), h) - exact))
    # h halves at each refinement
    assert errors[1] <= errors[0] / 16.0
    assert errors[2] <= errors[1] / 16.0
    assert errors[2] <= 1e-8  # about h^6 here: 2.6e-10


def test_half_l1_roots_on_nodes_no_roots_and_three_roots():
    h = 20.0 / 256
    x = h * np.arange(-128, 129)
    D = _gauss_difference(1.0, x)
    assert D[128] == 0.0  # the root is a node
    assert _half_l1(D, h) == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-8)
    bump = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
    assert _half_l1(bump, h) == pytest.approx(0.5, abs=1e-12)
    assert _half_l1(-bump, h) == pytest.approx(0.5, abs=1e-12)
    assert _half_l1(np.zeros_like(x), h) == 0.0
    # (x^3 - x) e^{-x^2/2} changes sign at -1, 0 and 1; half its L1 norm is
    # 4 e^{-1/2} - 1
    x = np.linspace(-9.7, 10.3, 256)
    D = (x**3 - x) * np.exp(-0.5 * x**2)
    assert _half_l1(D, x[1] - x[0]) == pytest.approx(4.0 * math.exp(-0.5) - 1.0, abs=1e-6)
    # the rule is exact on a cubic, also with roots in the first and last cells
    roots = [0.5, 4.2, 6.7]
    x = np.arange(8.0)
    G = np.polyint(np.poly(roots))
    ends = np.polyval(G, [0.0, *roots, 7.0])
    exact = 0.5 * float(np.sum(np.abs(np.diff(ends))))
    assert _half_l1(np.polyval(np.poly(roots), x), 1.0) == pytest.approx(exact, rel=1e-13)


def test_half_l1_is_absolutely_homogeneous():
    x = np.linspace(-9.7, 10.3, 256)
    D = _gauss_difference(1.0, x)
    base = _half_l1(D, x[1] - x[0])
    for c in (3.7, -2.0, 1e-200, 1e250):
        assert _half_l1(c * D, x[1] - x[0]) == pytest.approx(abs(c) * base, rel=1e-14, abs=0.0)


def test_paired_runner_log_tv_reaches_deep_underflow_territory():
    # the quotient update keeps relative precision far below float floor on tv
    model = _rw_model()
    traj = simulate_trajectory(model, NormalPrior(-5.0, 1.0), n=100, seed=102)
    cfg = ReprConfig(nodes=512)
    res = run_grid_pair(model, NormalPrior(-5.0, 1.0), NormalPrior(5.0, 1.0),
                        traj.observations, cfg)
    assert res.log_tv[-1] < -60.0
    assert np.all(np.isfinite(res.log_tv))


def test_failed_pair_run_keeps_the_prefix_it_computed():
    model = _rw_model()
    p1, p2 = NormalPrior(-3.0, 1.0), NormalPrior(3.0, 1.0)
    ys = simulate_trajectory(model, p1, n=10, seed=5).observations.copy()
    ys[-1] = 1e6  # the likelihood underflows to 0 on every node of the last window
    cfg = ReprConfig(nodes=128)
    with pytest.raises(FilterCollapseError) as err:
        run_grid_pair(model, p1, p2, ys, cfg)
    assert err.value.step == 10
    tv, log_tv = err.value.tv_prefix
    short = run_grid_pair(model, p1, p2, ys[:-1], cfg)
    assert np.array_equal(tv, short.tv)
    assert np.array_equal(log_tv, short.log_tv)


def test_unstable_drift_does_not_collapse():
    model = model_from_spec({
        "kind": "linear_gaussian",
        "f": {"type": "affine", "c0": 0.0, "c1": 1.05},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    traj = simulate_trajectory(model, NormalPrior(-5.0, 1.0), n=100, seed=201)
    cfg = ReprConfig(nodes=512)
    res = run_grid_pair(model, NormalPrior(-5.0, 1.0), NormalPrior(5.0, 1.0),
                        traj.observations, cfg)
    assert np.isfinite(res.log_tv[-1])
    # the window follows the drift far outside the initial [-13, 13]
    lo, hi = res.diagnostics["final_window"]
    assert hi < -13.0 or lo > 13.0


def _lone_grid_state(model, prior, y0, nodes):
    return grid_init(model, prior, y0, prior_grid([prior], nodes))


def test_particle_filter_stays_near_grid_filter():
    model = _rw_model()
    traj = simulate_trajectory(model, PointMassPrior(0.0), n=40, seed=7)
    ys = traj.observations
    rng = np.random.default_rng(7)
    pcfg = ReprConfig(particles=20_000)
    p = filter_init(model, NormalPrior(0.0, 2.0), ys[0], pcfg, rng=rng)
    worst = 0.0
    for k, (g,) in enumerate(grid_filters(model, [NormalPrior(0.0, 2.0)], ys,
                                          ReprConfig(nodes=512))):
        if k:
            p = filter_step(model, p, ys[k], pcfg, rng=rng)
        worst = max(worst, tv_distance(g, p))
    assert k == 40
    assert worst < 0.06


def test_project_particles_normalizes_on_grid():
    model = _rw_model()
    rng = np.random.default_rng(11)
    pcfg = ReprConfig(particles=50_000)
    g = _lone_grid_state(model, NormalPrior(0.0, 1.0), 0.2, 256)
    p = filter_init(model, NormalPrior(0.0, 1.0), 0.2, pcfg, rng=rng)
    proj = project_particles_to_grid(p, g.nodes)
    tau = trap_weights(g.nodes)
    assert (proj * tau).sum() == pytest.approx(1.0, rel=1e-9)
    # both represent the same posterior; deposition noise stays small
    assert 0.5 * float(tau @ np.abs(proj - np.exp(g.log_weights))) < 0.02


def test_systematic_resample_uniform_and_degenerate():
    rng = np.random.default_rng(1)
    n = 1000
    idx = systematic_resample(np.zeros(n), rng)
    # uniform weights: every particle survives exactly once
    assert np.array_equal(np.sort(idx), np.arange(n))
    log_w = np.full(n, -np.inf)
    log_w[137] = 0.0
    idx = systematic_resample(log_w, rng)
    assert np.all(idx == 137)


def test_filter_state_grid_density_normalized():
    model = _rw_model()
    state = _lone_grid_state(model, NormalPrior(0.0, 1.0), 0.3, 128)
    tau = trap_weights(state.nodes)
    assert (np.exp(state.log_weights) * tau).sum() == pytest.approx(1.0, rel=1e-12)


def test_grid_filters_follow_the_posterior_after_drift():
    # posterior mass walks far out of the initial window; the window follows
    model = _rw_model()
    ys = np.linspace(0.0, 12.0, 25)
    for (state,) in grid_filters(model, [NormalPrior(0.0, 1.0)], ys, ReprConfig(nodes=256)):
        mean, std = grid_moments(state)
        assert state.nodes[0] + 5.0 * std < mean < state.nodes[-1] - 5.0 * std
    assert abs(mean - 12.0) < 2.0
    assert state.nodes[0] > 0.0  # the start window was [-8, 8]


def test_decay_rate_recovers_exact_geometric_sequence():
    n = np.arange(51)
    log_tv = -0.7 * n + 1.3
    series = TvSeries(n=n, tv=np.exp(log_tv), log_tv=log_tv)
    fit = decay_rate(series, fit_lo=10, fit_hi=50)
    assert fit.slope == pytest.approx(-0.7, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 41 and fit.n_clipped == 0


def test_decay_rate_clips_nonpositive_tv():
    n = np.arange(11)
    tv = np.exp(-0.5 * n)
    tv[7] = 0.0  # collided pair: clipped to the smallest finite value, counted
    log_tv = np.where(tv > 0, np.log(np.maximum(tv, 1e-300)), -np.inf)
    fit = decay_rate(TvSeries(n=n, tv=tv, log_tv=log_tv), fit_lo=0, fit_hi=10)
    assert fit.n_points == 11
    assert fit.n_clipped == 1
    assert -0.6 < fit.slope < -0.4


def test_tv_distance_identical_states_is_zero():
    model = _rw_model()
    state = _lone_grid_state(model, NormalPrior(0.0, 1.0), 0.1, 128)
    assert tv_distance(state, state) == 0.0


def test_tv_series_csv_roundtrip(tmp_path):
    n = np.arange(4)
    tv = np.array([0.5, 0.25, 0.125, 0.0625])
    series = TvSeries(n=n, tv=tv, log_tv=np.log(tv),
                      meta={"scenario": "unit", "seed": 1})
    path = tmp_path / "tv.csv"
    series.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0].startswith("n,")
    assert len(text) == 5
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(back[:, 1], tv, rtol=0, atol=0)


def test_tv_series_sidecar_stays_beside_the_csv_in_a_dotted_directory(tmp_path):
    series = TvSeries(n=np.arange(2), tv=np.ones(2), log_tv=np.zeros(2), meta={"seed": 1})
    run = tmp_path / "run.v2"
    run.mkdir()
    for name in ("tv", "tv.csv"):
        series.to_csv(run / name)
        assert (run / "tv.meta.json").read_text() == '{\n  "seed": 1\n}\n'
        (run / "tv.meta.json").unlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2"]


def test_filter_collapse_raises_cleanly():
    # an observation with zero density under every state kills the filter
    fm = finite_model_make(
        FIX_Q,
        [lambda y: {0: 0.8, 1: 0.7}.get(y, 0.0),
         lambda y: {0: 0.4, 1: 0.9}.get(y, 0.0)])
    with pytest.raises(FilterCollapseError) as err:
        exact_filter_finite(fm, np.array([0.5, 0.5]), [0, 1, 2])
    assert "2" in str(err.value)


def test_gaussian_finite_filter_matches_direct_computation():
    fm = gaussian_finite_model(
        Q=np.array([[0.9, 0.1], [0.2, 0.8]]),
        means=np.array([-1.0, 1.0]),
        stds=np.array([0.5, 0.5]))
    nu = np.array([0.5, 0.5])
    rng = np.random.default_rng(2)
    ys = rng.normal(size=6)
    filters, _ = exact_filter_finite(fm, nu, ys)
    # direct dense recomputation
    pi = nu * fm.emission_vector(ys[0])
    pi = pi / pi.sum()
    for y in ys[1:]:
        pi = fm.Q.T @ pi
        pi = pi * fm.emission_vector(y)
        pi = pi / pi.sum()
    assert np.allclose(filters[-1], pi, atol=1e-14)
