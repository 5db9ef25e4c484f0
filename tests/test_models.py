"""State-space and finite models, state noise, trajectory simulation."""

import math

import numpy as np
import pytest

from ldlab.densities import GaussianDensity, StudentTDensity
from ldlab.dists import PointMassPrior
from ldlab.errors import ModelValidationError
from ldlab.filtering import noise_tail_radius
from ldlab.models import (
    FiniteModel,
    MisspecifiedTruth,
    Trajectory,
    finite_model_make,
    gaussian_finite_model,
    iid_noise,
    loglik,
    make_misspecified_truth,
    simulate_finite,
    simulate_misspecified,
    simulate_trajectory,
    transition_logpdf,
)
from ldlab.modelspec import model_from_spec


def _rw_model(sigma_state=1.0, sigma_obs=1.0):
    return model_from_spec({
        "kind": "linear_gaussian",
        "f": {"type": "identity"},
        "h": {"type": "affine", "c0": 1.0, "c1": 1.0},
        "state_noise": {"kind": "iid",
                        "density": {"family": "gaussian", "sigma": sigma_state}},
        "obs_noise": {"family": "gaussian", "sigma": sigma_obs},
    })


def test_iid_noise_wraps_density():
    # psi = density and mu_minus = mu_plus = 1: every value and draw is the density's
    us = np.linspace(-40.0, 40.0, 801)
    xs = np.linspace(-5.0, 5.0, 7)
    rs = np.linspace(0.0, 30.0, 301)
    for density in (GaussianDensity(sigma=2.0), StudentTDensity(df=3.5, scale=1.3)):
        noise = iid_noise(density)
        assert noise.psi is density and noise.mu_minus == noise.mu_plus == 1.0
        u = np.subtract.outer(us, xs)
        assert np.array_equal(noise.log_kernel(xs, u.copy()), density.logpdf(u))
        for x in (-3.0, 0.0, 99.0):
            assert np.array_equal(noise.logpdf(x, us), density.logpdf(us))
            assert noise.logpdf(x, 1.5) == density.logpdf(1.5)
        assert np.array_equal(noise.log_radial_min(rs), density.log_radial_min(rs))
        assert np.array_equal(noise.log_radial_max(rs), density.log_radial_max(rs))
        assert noise_tail_radius(noise, 1e-12) == density.delta_for_tail_ratio(1e-12)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert [noise.sample(a, x) for x in xs] == [density.sample(b) for _ in xs]
        assert np.array_equal(noise.sampler_vec(a, xs), density.sample(b, size=len(xs)))


def test_simulate_trajectory_is_reproducible_and_consistent():
    model = _rw_model()
    t1 = simulate_trajectory(model, init=PointMassPrior(0.0), n=50, seed=11)
    t2 = simulate_trajectory(model, init=PointMassPrior(0.0), n=50, seed=11)
    t3 = simulate_trajectory(model, init=PointMassPrior(0.0), n=50, seed=12)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.observations, t2.observations)
    assert not np.array_equal(t1.states, t3.states)
    # recorded noises must reproduce the recursion exactly
    for k in range(1, 51):
        assert t1.states[k] == pytest.approx(
            model.f(t1.states[k - 1]) + t1.state_noise[k - 1], abs=0.0)
    for k in range(51):
        assert t1.observations[k] == pytest.approx(
            model.h(t1.states[k]) + t1.obs_noise[k], abs=0.0)


def test_trajectory_shapes():
    model = _rw_model()
    t = simulate_trajectory(model, init=PointMassPrior(1.5), n=7, seed=0)
    assert t.states.shape == (8,)
    assert t.observations.shape == (8,)
    assert t.state_noise.shape == (7,)
    assert t.obs_noise.shape == (8,)
    assert t.states[0] == 1.5


def test_separate_seeds_decouple():
    model = _rw_model()
    a = simulate_trajectory(model, init=PointMassPrior(0.0), n=20, seed=5)
    b = simulate_trajectory(model, init=PointMassPrior(0.0), n=20, seed=6)
    assert not np.array_equal(a.states, b.states)
    # a seed's draws come from default_rng([seed, 0]), the first being eps_0
    first = model.obs_noise.sample(np.random.default_rng([5, 0]))
    assert a.obs_noise[0] == first


def test_transition_logpdf_matches_noise():
    model = _rw_model(sigma_state=0.5)
    x, xp = 1.0, 1.7
    expect = GaussianDensity(sigma=0.5).logpdf(xp - x)
    assert transition_logpdf(model, x, xp) == pytest.approx(float(expect))


def test_loglik_vectorizes_over_states():
    model = _rw_model(sigma_obs=2.0)
    xs = np.array([0.0, 1.0, -3.0])
    y = 0.5
    out = loglik(model, xs, y)
    expect = GaussianDensity(sigma=2.0).logpdf(y - (1.0 + xs))  # h(x) = 1 + x
    assert np.allclose(out, expect, rtol=1e-14)


def test_misspecified_truth_kappa():
    filt = _rw_model()
    truth = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "sine_perturbed_affine", "c0": 0.0, "c1": 1.0,
              "amp": 1.0, "freq": 1.0},
        "h": {"type": "affine", "c0": 1.0, "c1": 1.0},
        "state_noise": {"kind": "iid",
                        "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    mt = make_misspecified_truth(filt, truth, f_gap=1.0, h_gap=0.5)
    # kappa = f_gap + b * h_gap * (1 + a_true); the filter's identity h has b=1,
    # and the sine-perturbed map has slope bound 2
    assert mt.kappa == pytest.approx(1.0 + 1.0 * 0.5 * (1.0 + 2.0))
    tr = simulate_misspecified(mt, init=PointMassPrior(0.0), n=30, seed=9)
    assert tr.states.shape == (31,)
    for k in range(1, 31):
        assert tr.states[k] == pytest.approx(
            truth.f(tr.states[k - 1]) + tr.state_noise[k - 1], abs=0.0)


def test_finite_model_make_validates():
    Q = np.array([[0.7, 0.3], [0.4, 0.6]])
    pdfs = [lambda y: 0.8 if y == 0 else 0.7,
            lambda y: 0.4 if y == 0 else 0.9]
    fm = finite_model_make(Q, pdfs)
    assert fm.m == 2
    assert np.allclose(fm.emission_vector(0), [0.8, 0.4])
    assert np.allclose(fm.emission_vector(1), [0.7, 0.9])
    with pytest.raises(ModelValidationError):
        finite_model_make(np.array([[0.7, 0.2], [0.4, 0.6]]), pdfs)
    with pytest.raises(ModelValidationError):
        finite_model_make(Q, pdfs[:1])


def test_gaussian_finite_model_emissions():
    fm = gaussian_finite_model(
        Q=np.array([[0.9, 0.1], [0.2, 0.8]]),
        means=np.array([-1.0, 1.0]),
        stds=np.array([1.0, 1.0]))
    v = fm.emission_vector(0.0)
    expect = 0.24197072451914337  # both states sit one std away from y=0
    assert v[0] == pytest.approx(expect, rel=1e-14)
    assert v[1] == pytest.approx(expect, rel=1e-14)
    states, ys = simulate_finite(fm, nu=np.array([0.5, 0.5]), n=25, seed=4)
    assert states.shape == (26,) and ys.shape == (26,)
    assert set(np.unique(states)) <= {0, 1}


def _random_stochastic(rng, m):
    """A row-stochastic m x m matrix with structural zeros; each row keeps one entry."""
    Q = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
    Q[np.arange(m), rng.integers(0, m, size=m)] += 0.05
    return Q / Q.sum(axis=1, keepdims=True)


def _simulate_finite_by_choice(fm, nu, n, seed):
    """The reference stream: every state drawn by Generator.choice."""
    rng = np.random.default_rng([seed, 0])
    states = [int(rng.choice(fm.m, p=nu))]
    ys = [float(fm.emit_sample(rng, states[0]))]
    for _ in range(n):
        states.append(int(rng.choice(fm.m, p=fm.Q[states[-1]])))
        ys.append(float(fm.emit_sample(rng, states[-1])))
    return np.array(states), np.array(ys)


def test_simulate_finite_keeps_the_choice_stream():
    # the tabulated rows draw exactly what rng.choice(m, p=row) draws
    rng = np.random.default_rng(21)
    for seed in range(200):
        m = int(rng.integers(2, 13))
        fm = gaussian_finite_model(_random_stochastic(rng, m), rng.normal(0.0, 3.0, m),
                                   rng.uniform(0.5, 2.0, m))
        nu = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.7)
        nu = nu / nu.sum() if nu.sum() > 0 else np.full(m, 1.0 / m)
        states, ys = simulate_finite(fm, nu, 40, seed)
        ref_states, ref_ys = _simulate_finite_by_choice(fm, nu, 40, seed)
        assert np.array_equal(states, ref_states), f"seed {seed}"
        assert np.array_equal(ys, ref_ys), f"seed {seed}"
    # a prior rng.choice would refuse is refused
    fm = gaussian_finite_model([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], [1.0, 1.0])
    for nu in ([0.5, 0.4], [1.2, -0.2], [np.nan, 1.0], [1.0]):
        with pytest.raises(ModelValidationError):
            simulate_finite(fm, nu, 3, 0)


def test_emission_rows_are_memoized_read_only():
    pdfs = [lambda y: math.exp(-0.5 * (y - 1.0) ** 2) / 3.0,
            lambda y: 1.0 / (1.0 + y * y)]
    fm = finite_model_make([[0.7, 0.3], [0.4, 0.6]], pdfs)
    ys = np.random.default_rng(5).normal(size=150)
    for y in np.concatenate([ys, ys[::-1]]):  # past the memo's 64 rows and back
        row = fm.emission_vector(y)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0
        assert row.tobytes() == np.array([p(y) for p in pdfs]).tobytes()
    # one row per value of y, whatever its type
    assert fm.emission_vector(2) is fm.emission_vector(2.0)


def test_dependent_noise_sampler_matches_density():
    # scaled-t family: empirical CDF of draws at fixed x against the quadrature of its own q
    model = model_from_spec({
        "kind": "dependent_noise",
        "f": {"type": "affine", "c0": 0.0, "c1": 0.5},
        "h": {"type": "identity"},
        "state_noise": {"kind": "scaled_t", "df": 4.0, "s0": 1.0, "s1": 0.3},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    noise = model.state_noise
    x = 0.7
    rng = np.random.default_rng(21)
    draws = np.array([noise.sample(rng, x) for _ in range(20_000)])
    us = np.linspace(-200.0, 200.0, 400_001)
    q = np.exp(noise.logpdf(x, us))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(us))])
    assert cdf[-1] == pytest.approx(1.0, abs=1e-4)
    # DKW: a gap above 0.02 has probability below 1e-6 at 20000 draws; a
    # sampler that drops sigma(x) is 0.036 off at u = -1
    for u in (-3.0, -1.0, -0.25, 0.0, 0.5, 1.5, 4.0):
        assert np.mean(draws <= u) == pytest.approx(np.interp(u, us, cdf), abs=0.02)
    # the vectorised sampler draws from the same law
    vec = noise.sampler_vec(np.random.default_rng(22), np.full(20_000, x))
    for u in (-1.0, 0.0, 1.5):
        assert np.mean(vec <= u) == pytest.approx(np.interp(u, us, cdf), abs=0.02)
