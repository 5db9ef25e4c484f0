"""Model construction from JSON-style dicts."""

import json
import math

import numpy as np
import pytest

from ldlab import cli
from ldlab.densities import StudentTDensity
from ldlab.errors import ConfigError
from ldlab.modelspec import model_from_spec
from ldlab.scenarios import preset_dict


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
    assert m.h_b == 1.0
    assert m.h_inverse(3.0) == 3.0


def test_affine_map_rejects_degenerate_slope():
    with pytest.raises(ConfigError):
        model_from_spec({
            "kind": "nonlinear",
            "f": {"type": "affine", "c0": 0.0, "c1": 0.0},
            "h": {"type": "identity"},
        })


def test_sine_perturbed_affine_lipschitz_and_inverse():
    # a drift only: its Lipschitz constant |c1| + |amp * freq| bounds every
    # secant slope on a grid, and is attained near the zeros of the sine
    m = model_from_spec({
        "kind": "nonlinear",
        "f": {"type": "sine_perturbed_affine", "c0": 0.3, "c1": 2.0,
              "amp": 0.5, "freq": 1.5},
        "h": {"type": "identity"},
    })
    assert m.f_lip == 2.75
    xs = np.linspace(-20.0, 20.0, 40_001)
    slopes = np.abs(np.diff(m.f(xs)) / np.diff(xs))
    assert slopes.max() <= m.f_lip + 1e-9
    assert slopes.max() == pytest.approx(m.f_lip, abs=1e-5)
    assert m.f(0.0) == 0.3


def test_nonmonotone_observation_map_needs_explicit_constants():
    # h must be invertible: identity or affine, whose exact inverse gives
    # b = 1/|c1|; preimage constants cannot be set in a spec
    spec = {"kind": "nonlinear", "f": {"type": "identity"}}
    for h in ({"type": "sine_perturbed_affine", "c0": 0.0, "c1": 2.0, "amp": 0.5},
              {"type": "sine_perturbed_affine", "c0": 0.0, "c1": 1.0, "amp": 1.0}):
        with pytest.raises(ConfigError, match="observation map must be invertible"):
            model_from_spec({**spec, "h": h})
    with pytest.raises(ConfigError, match="unknown map type: 'cubic_saturating'"):
        model_from_spec({**spec, "h": {"type": "cubic_saturating"}})
    for extra in ({"b0": 2.0, "b": 1.0}, {"b": 0.5}):
        with pytest.raises(ConfigError, match="unknown model fields"):
            model_from_spec({**spec, "h": {"type": "identity"}, **extra})
    m = model_from_spec({**spec, "h": {"type": "affine", "c0": 1.0, "c1": -4.0}})
    assert m.h_b == 0.25
    assert m.h_inverse(m.h(1.3)) == 1.3


def test_a_is_an_unknown_model_field(tmp_path, capsys):
    # the drift's Lipschitz constant is its family's exact value: a set 'a'
    # could only loosen the bound, or break it below that value
    spec = {"kind": "nonlinear", "f": {"type": "affine", "c1": 0.5}, "h": {"type": "identity"}}
    assert model_from_spec(spec).f_lip == 0.5
    with pytest.raises(ConfigError, match=r"unknown model fields: \['a'\]"):
        model_from_spec({**spec, "a": 0.9})
    config = preset_dict("ar-unstable")
    config["model"]["a"] = 0.5
    path = tmp_path / "ar-unstable-a.json"
    path.write_text(json.dumps(config))
    assert cli.main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown model fields: ['a']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kind_validation():
    with pytest.raises(ConfigError):
        model_from_spec({"kind": "mystery"})
    # linear_gaussian must have gaussian noises on both channels
    with pytest.raises(ConfigError, match="linear_gaussian requires iid gaussian state noise"):
        model_from_spec({
            "kind": "linear_gaussian",
            "f": {"type": "identity"},
            "h": {"type": "identity"},
            "state_noise": {"kind": "scaled_t", "df": 4.0, "s0": 1.0, "s1": 0.3},
        })
    # dependent_noise must not declare iid state noise
    with pytest.raises(ConfigError):
        model_from_spec({
            "kind": "dependent_noise",
            "f": {"type": "identity"},
            "h": {"type": "identity"},
            "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        })


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
    us = np.linspace(-12.0, 12.0, 257)
    before = us.copy()
    for x in np.linspace(-6.0, 6.0, 200):
        t = StudentTDensity(df=4.0, scale=1.0 + 0.3 * math.sin(x))
        assert np.array_equal(scaled.logpdf(x, us), t.logpdf(us))
        for u in (-2.5, 0.0, 7.25):
            assert np.ndim(scaled.logpdf(x, u)) == 0
            assert scaled.logpdf(x, u) == t.logpdf(u)
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
