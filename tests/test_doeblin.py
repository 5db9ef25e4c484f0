"""Observation-indexed state sets, envelope sandwiches, preimage distances."""

import math

import numpy as np
import pytest

from ldlab.dists import NormalPrior
from ldlab.doeblin import (
    delta_for_eta,
    distance_series,
    envelope_pair,
    envelope_radius,
    eta_for_delta,
    finite_ld_construct,
    ld_set,
    log_contraction_from_logs,
    misspec_diag_series,
    misspec_distance,
    preimage_distance_recorded,
    stability_diag_series,
    verify_ld_property,
    verify_ld_property_finite,
)
from ldlab.errors import ConstructionError, EnvelopeOrderError
from ldlab.models import (
    gaussian_finite_model,
    make_misspecified_truth,
    simulate_misspecified,
    simulate_trajectory,
)
from ldlab.modelspec import model_from_spec
from ldlab.scenarios import preset_config

N01_AT_0 = 0.3989422804014327
N01_AT_3 = 0.0044318484119380075


def _rw_model():
    return model_from_spec({
        "kind": "linear_gaussian",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })


def test_ld_set_interval_for_identity_map():
    c = ld_set(_rw_model(), y=2.0, delta=0.5)
    assert (c.lo, c.hi) == (1.5, 2.5)
    assert c.hi - c.lo == 1.0
    assert c.contains(2.4) and not c.contains(2.6)


def test_envelope_radius_formula():
    m = _rw_model()
    # (a+1) b delta + D with a=1, b=1
    assert envelope_radius(m, delta=1.0, d_value=1.0) == pytest.approx(3.0)
    m2 = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "affine", "c1": 0.5},
        "h": {"type": "affine", "c0": 1.0, "c1": 2.0},
    })
    # a=0.5, b=0.5
    assert envelope_radius(m2, delta=2.0, d_value=0.3) == pytest.approx(
        1.5 * 0.5 * 2.0 + 0.3)


def test_envelope_pair_exact_mode_values():
    m = _rw_model()
    lo, hi = envelope_pair(m, y=0.0, yp=1.0, delta=1.0)
    # D = |y - y'| = 1 for double identity, radius 3
    assert lo == pytest.approx(N01_AT_3, rel=1e-12)
    assert hi == pytest.approx(N01_AT_0, rel=1e-12)


def test_contraction_coeff_and_log_form_agree():
    # rho = 1 - (lower/upper)^2 = 1 - 0.0625
    log_rho = log_contraction_from_logs(math.log(0.1), math.log(0.4))
    assert float(log_rho) == pytest.approx(math.log(1.0 - 0.0625), rel=1e-12)
    with pytest.raises(EnvelopeOrderError):
        log_contraction_from_logs(math.log(0.5), math.log(0.4))
    with pytest.raises(EnvelopeOrderError):
        log_contraction_from_logs(np.log([0.5]), np.log([0.4]))


def test_log_contraction_handles_tiny_ratio_without_underflow():
    # ratio^2 below float tiny: rho rounds to 1, log stays 0 (saturation is
    # the honest float answer, not an error)
    val = log_contraction_from_logs(-400.0, 0.0)
    assert float(val) == 0.0
    # moderate gap keeps full precision via expm1
    val = log_contraction_from_logs(-10.0, 0.0)
    assert float(val) == pytest.approx(math.log(-math.expm1(-20.0)), abs=1e-15)


def test_log_contraction_keeps_precision_below_minus_ln2():
    # 2d = -40: log(1 - e^-40) = -e^-40 to double precision, where the
    # expm1 route rounds it to 0
    val = log_contraction_from_logs(-20.0, 0.0)
    assert float(val) == pytest.approx(-math.exp(-40.0), rel=1e-15)
    # 2d = -800: e^-800 underflows, so the honest float answer is 0
    assert float(log_contraction_from_logs(-400.0, 0.0)) == 0.0
    # both sides of the split at 2d = -ln 2 match the scalar references
    ds = 0.5 * np.array([-0.6, -math.log(2.0) + 1e-12, -math.log(2.0) - 1e-12, -3.0])
    got = log_contraction_from_logs(ds, np.zeros_like(ds))
    want = [math.log(-math.expm1(2 * d)) if 2 * d > -math.log(2.0)
            else math.log1p(-math.exp(2 * d)) for d in ds]
    assert np.array_equal(got, want)


def _preset_runs(names):
    """(config, seed, trajectory) for every seed of each named continuous preset."""
    for name in names:
        cfg = preset_config(name)
        for seed in cfg.seeds:
            yield cfg, seed, simulate_trajectory(cfg.model, cfg.nu1, cfg.horizon, seed)


def test_recorded_distance_dominates_exact_for_identity_pair():
    # |f(h^-1(y_{k-1})) - h^-1(y_k)| <= a|eps_{k-1}| + |zeta_k| + |eps_k| pathwise,
    # on every seed of every well-specified continuous preset
    for cfg, seed, traj in _preset_runs(("rw-gauss", "ar-unstable", "dep-noise")):
        eps = traj.obs_noise
        form = preimage_distance_recorded(cfg.model, eps[:-1], traj.state_noise, eps[1:])
        d = distance_series(cfg.model, traj.observations)
        assert d.shape == form.shape == (cfg.horizon,)
        assert np.all(d <= form + 1e-12), (cfg.name, seed)
    # and on the identity pair the recorded form is not vacuously tight
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=200, seed=42)
    eps = traj.obs_noise
    d_rec = preimage_distance_recorded(m, eps[:-1], traj.state_noise, eps[1:])
    d_ex = distance_series(m, traj.observations)
    assert np.all(d_rec >= d_ex - 1e-12)
    assert np.any(d_rec > d_ex + 0.1)


def test_distance_series_auto_prefers_exact():
    # there is no mode to choose: the series is the exact preimage distance,
    # equal bit for bit to the pair-by-pair scalar form
    for cfg, _, traj in _preset_runs(("rw-gauss", "ar-unstable", "dep-noise")):
        d = distance_series(cfg.model, traj.observations)
        pre = [cfg.model.h_inverse(float(y)) for y in traj.observations]
        assert d.tolist() == [abs(cfg.model.f(p) - q) for p, q in zip(pre[:-1], pre[1:])]
    m = _rw_model()
    with pytest.raises(TypeError):
        distance_series(m, [1.0, 3.0], mode="recorded")


def test_preimage_distance_mode_dispatch():
    # the scalar cases: the identity pair's |y - y'|, and the recorded form's sum
    m = _rw_model()
    assert distance_series(m, [1.0, 3.0]).tolist() == [2.0]
    d = preimage_distance_recorded(m, 0.5, 1.0, 0.25)
    assert d == pytest.approx(1.0 * 0.5 + 1.0 + 0.25)


def test_misspec_distance_is_the_statement_form():
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
    traj = simulate_misspecified(mt, NormalPrior(0.0, 1.0), n=150, seed=17)
    eps, zeta = traj.obs_noise, traj.state_noise
    d = misspec_distance(mt, eps[:-1], zeta, eps[1:])
    assert d.shape == (150,)
    # kappa + 2 a* b* + a* b* |eps_prev| + b* |eps| + |zeta| with kappa = f_gap = 1,
    # a* = 2 (the sine-perturbed drift's slope bound) and b* = 1 (identity h)
    assert mt.kappa == 1.0
    tail = 2.0 * np.abs(eps[:-1]) + np.abs(eps[1:]) + np.abs(zeta)
    assert np.array_equal(d, 1.0 + 4.0 + tail)
    # it upper-bounds the exact preimage gap pathwise
    ys = traj.observations
    d_true = np.abs(ys[:-1] - ys[1:])  # identity filter maps
    assert np.array_equal(distance_series(filt, ys), d_true)
    assert np.all(d + 1e-12 >= d_true)


def test_delta_eta_roundtrip_frozen_value():
    m = _rw_model()
    delta = delta_for_eta(m, 0.1)
    assert delta == pytest.approx(2.145966026289347, rel=1e-14)
    assert eta_for_delta(m, delta) == pytest.approx(0.1, rel=1e-12)


def test_verify_ld_property_zero_violations():
    m = _rw_model()
    report = verify_ld_property(m, 1.0, y=0.0, yp=0.8, budget=200, seed=3)
    assert report["passed"]
    assert report["violations"] == []
    assert report["worst_lower_margin"] > -1e-6
    assert report["worst_upper_margin"] > -1e-6


def test_verify_ld_property_flags_inflated_lower_envelope():
    m = _rw_model()
    lo, hi = envelope_pair(m, 0.0, 0.8, 1.0)
    report = verify_ld_property(m, 1.0, y=0.0, yp=0.8, budget=200, seed=3,
                                envelope_override=(lo * 50.0, hi))
    assert not report["passed"]
    assert any(v["kind"] == "lower" for v in report["violations"])


def test_verify_ld_property_counts_the_samples_it_checks():
    m = _rw_model()
    # at radius 1e-14 every subinterval is too short to integrate, so none is checked
    report = verify_ld_property(m, 1e-14, y=0.0, yp=0.8, budget=50, seed=3)
    assert report["pairs_checked"] == 0
    assert report["violations"] == [] and report["worst_lower_margin"] == math.inf
    assert verify_ld_property(m, 1.0, y=0.0, yp=0.8, budget=50, seed=3)["pairs_checked"] == 50


def test_finite_ld_envelopes_and_verification():
    fm = gaussian_finite_model(
        Q=np.array([[0.85, 0.15], [0.15, 0.85]]),
        means=np.array([-1.0, 1.0]),
        stds=np.array([2.5, 2.5]))
    ld = finite_ld_construct(fm, [[0, 1], [0, 1]])
    lo, hi = ld.envelopes_for_bins(0, 1)
    assert lo == pytest.approx(2 * 0.15)
    assert hi == pytest.approx(2 * 0.85)
    report = verify_ld_property_finite(ld, 0, 1)
    assert report["passed"]
    # exhaustive: 2 sources x 3 nonempty subsets
    assert report["pairs_checked"] == 6
    bad = verify_ld_property_finite(ld, 0, 1, envelope_override=(0.9, 1.7))
    assert not bad["passed"]
    # both verifiers describe a violation alike: its sample, side and broken bound
    v = bad["violations"][0]
    assert v["kind"] == "lower" and v["bound"] == pytest.approx(0.9 * 0.5)
    assert set(v) == {"kind", "x", "subset", "mass", "bound"}


def test_finite_ld_construct_rejects_degenerate_bins():
    fm = gaussian_finite_model(
        Q=np.array([[1.0, 0.0], [0.5, 0.5]]),
        means=np.array([-1.0, 1.0]),
        stds=np.array([1.0, 1.0]))
    ld = finite_ld_construct(fm, [[0, 1], [0, 1]])
    with pytest.raises(ConstructionError):
        ld.envelopes_for_bins(0, 1)  # zero transition into state 1
    with pytest.raises(ConstructionError):
        finite_ld_construct(fm, [[], [0, 1]])
    with pytest.raises(ConstructionError):
        finite_ld_construct(fm, [[0, 2], [0, 1]])
    # a repeated state would count twice in |C'|: [0, 0, 1] read lower 3 min Q
    with pytest.raises(ConstructionError, match="bin 0 lists a state more than once"):
        finite_ld_construct(fm, [[0, 0, 1], [0, 1]])
    # each set is stored sorted, the order every finite sum runs in
    ld = finite_ld_construct(fm, [[1, 0], [1]])
    assert [list(row) for row in ld.set_table] == [[0, 1], [1]]


def test_stability_diag_matches_envelope_series():
    m = _rw_model()
    traj = simulate_trajectory(m, NormalPrior(0.0, 1.0), n=60, seed=9)
    delta = 1.3
    z = stability_diag_series(m, traj, delta)
    eps = traj.obs_noise
    d = preimage_distance_recorded(m, eps[:-1], traj.state_noise, eps[1:])
    log_lo = m.state_noise.log_radial_min(envelope_radius(m, delta, d))
    assert np.allclose(z, -log_lo, atol=0, rtol=0)
    assert np.all(z > 0)  # lower envelope below 1 at these radii


def test_misspec_diag_uses_statement_head():
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
    traj = simulate_misspecified(mt, NormalPrior(0.0, 1.0), n=40, seed=13)
    v = misspec_diag_series(filt, mt, traj, delta=1.0)
    assert v.shape == (40,)
    assert np.all(v < 0)  # log of a sub-unit envelope value
    # hand recompute for the first step
    a, b = mt.model.f_lip, mt.model.h_b
    d0 = mt.kappa + 2 * a * b + a * b * abs(traj.obs_noise[0]) \
        + b * abs(traj.obs_noise[1]) + abs(traj.state_noise[0])
    r0 = envelope_radius(filt, 1.0, d0)
    assert v[0] == pytest.approx(float(filt.state_noise.log_radial_min(r0)), rel=1e-12)
