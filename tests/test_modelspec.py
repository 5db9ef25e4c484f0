"""Model construction from JSON-style dicts."""

import math

import numpy as np
import pytest

from ldlab.densities import StudentTDensity
from ldlab.errors import ConfigError
from ldlab.modelspec import model_from_spec


def test_identity_and_affine_maps():
    m = model_from_spec({
        "kind": "linear_gaussian",
        "f": {"type": "affine", "c0": 2.0, "c1": -0.5},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    assert m.f(4.0) == 0.0
    assert m.f_lip == 0.5
    assert m.h_b0 == 0.0 and m.h_b == 1.0
    assert m.h_inverse(3.0) == 3.0


def test_affine_map_rejects_degenerate_slope():
    with pytest.raises(ConfigError):
        model_from_spec({
            "kind": "nonlinear",
            "f": {"type": "affine", "c0": 0.0, "c1": 0.0},
            "h": {"type": "identity"},
        })


def test_sine_perturbed_affine_lipschitz_and_inverse():
    m = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "identity"},
        "h": {"type": "sine_perturbed_affine", "c0": 0.0, "c1": 2.0,
              "amp": 0.5, "freq": 1.0},
    })
    # slope in [1.5, 2.5] so lip = 2.5, preimage slack b = 1/1.5
    assert m.h_b == pytest.approx(1.0 / 1.5)
    assert m.h_b0 == 0.0
    for y in (-3.0, 0.0, 1.7, 10.0):
        x = m.h_inverse(y)
        assert m.h(x) == pytest.approx(y, abs=1e-9)


def test_nonmonotone_observation_map_needs_explicit_constants():
    spec = {
        "kind": "nonlinear",
        "f": {"type": "identity"},
        "h": {"type": "sine_perturbed_affine", "c0": 0.0, "c1": 1.0,
              "amp": 1.0, "freq": 1.0},  # slope touches 0: no inverse derived
    }
    with pytest.raises(ConfigError):
        model_from_spec(spec)
    m = model_from_spec({**spec, "b0": 2.0, "b": 1.0})
    assert m.h_b0 == 2.0 and m.h_b == 1.0


def test_cubic_saturating_lipschitz_holds():
    m = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "cubic_saturating", "scale": 2.0},
        "h": {"type": "identity"},
    })
    xs = np.linspace(-20, 20, 2001)
    slopes = np.abs(np.diff(m.f(xs)) / np.diff(xs))
    assert slopes.max() <= m.f_lip + 1e-9
    assert m.f_lip == pytest.approx(2.25)


def test_explicit_a_overrides_map_lipschitz():
    m = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "affine", "c1": 0.5},
        "h": {"type": "identity"},
        "a": 0.9,
    })
    assert m.f_lip == 0.9


def test_kind_validation():
    with pytest.raises(ConfigError):
        model_from_spec({"kind": "mystery"})
    # linear_gaussian must have gaussian noises on both channels
    with pytest.raises(ConfigError):
        model_from_spec({
            "kind": "linear_gaussian",
            "f": {"type": "identity"},
            "h": {"type": "identity"},
            "state_noise": {"kind": "sine_modulated", "c": 0.1},
        })
    # dependent_noise must not declare iid state noise
    with pytest.raises(ConfigError):
        model_from_spec({
            "kind": "dependent_noise",
            "f": {"type": "identity"},
            "h": {"type": "identity"},
            "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        })


def test_sine_modulated_envelopes_are_tight():
    m = model_from_spec({
        "kind": "dependent_noise",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "sine_modulated", "c": 0.25},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    noise = m.state_noise
    assert noise.mu_minus == 0.75 and noise.mu_plus == 1.25
    # ratio q/psi must live inside [mu-, mu+] and approach both ends
    xs = np.linspace(-8, 8, 101)
    us = np.linspace(-6, 6, 401)
    ratios = []
    for x in xs:
        ratios.append(np.exp(noise.logpdf(x, us) - noise.psi.logpdf(us)))
    ratios = np.array(ratios)
    assert ratios.min() >= 0.75 - 1e-12
    assert ratios.max() <= 1.25 + 1e-12
    assert ratios.min() == pytest.approx(0.75, abs=1e-3)
    assert ratios.max() == pytest.approx(1.25, abs=1e-3)


def test_scaled_t_envelopes_cover_grid():
    m = model_from_spec({
        "kind": "dependent_noise",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "scaled_t", "df": 4.0, "s0": 1.0, "s1": 0.3},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    noise = m.state_noise
    # frozen from the closed-form candidates for s in [0.7, 1.3], df = 4
    assert noise.mu_minus == pytest.approx(0.2401, rel=1e-12)
    assert noise.mu_plus == pytest.approx(2.8561, rel=1e-12)
    xs = np.linspace(-8, 8, 81)
    us = np.linspace(-30, 30, 1201)
    worst_lo, worst_hi = np.inf, -np.inf
    for x in xs:
        ratio = np.exp(noise.logpdf(x, us) - noise.psi.logpdf(us))
        worst_lo = min(worst_lo, ratio.min())
        worst_hi = max(worst_hi, ratio.max())
    assert worst_lo >= noise.mu_minus - 1e-12
    assert worst_hi <= noise.mu_plus + 1e-12


def test_dependent_logpdf_is_bitwise_the_closed_forms():
    # log q(x, u) comes from log_kernel alone; these are its closed forms
    scaled = model_from_spec({
        "kind": "dependent_noise",
        "state_noise": {"kind": "scaled_t", "df": 4.0, "s0": 1.0, "s1": 0.3},
    }).state_noise
    sine = model_from_spec({
        "kind": "dependent_noise",
        "state_noise": {"kind": "sine_modulated", "c": 0.25},
    }).state_noise
    us = np.linspace(-12.0, 12.0, 257)
    before = us.copy()
    for x in np.linspace(-6.0, 6.0, 200):
        t = StudentTDensity(df=4.0, scale=1.0 + 0.3 * math.sin(x))
        assert np.array_equal(scaled.logpdf(x, us), t.logpdf(us))
        closed = sine.psi.logpdf(us) + np.log1p(0.25 * math.sin(x) * np.sin(us))
        assert np.array_equal(sine.logpdf(x, us), closed)
        for u in (-2.5, 0.0, 7.25):
            assert np.ndim(scaled.logpdf(x, u)) == 0
            assert scaled.logpdf(x, u) == t.logpdf(u)
            assert sine.logpdf(x, u) == sine.psi.logpdf(u) + np.log1p(
                0.25 * math.sin(x) * np.sin(u))
    assert np.array_equal(us, before)


def test_scaled_t_conditional_density_normalizes():
    m = model_from_spec({
        "kind": "dependent_noise",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "scaled_t", "df": 4.0, "s0": 1.0, "s1": 0.3},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    })
    us = np.linspace(-200, 200, 400_001)
    for x in (-1.3, 0.0, 2.0):
        mass = np.trapezoid(np.exp(m.state_noise.logpdf(x, us)), us)
        assert mass == pytest.approx(1.0, abs=1e-4)
