"""Prior distributions and their spec round trips."""

import numpy as np
import pytest

from ldlab.dists import NormalPrior, PointMassPrior, UniformPrior, prior_from_spec
from ldlab.errors import ConfigError


def test_normal_prior_logpdf():
    p = NormalPrior(mean=1.0, std=2.0)
    # value checked against scipy.stats.norm.logpdf(0, 1, 2)
    assert float(p.logpdf(0.0)) == pytest.approx(-1.7370857137642826, abs=1e-12)
    assert p.window(3.0) == (-5.0, 7.0)


def test_normal_prior_rejects_bad_std():
    with pytest.raises(ConfigError):
        NormalPrior(mean=0.0, std=-1.0)


def test_uniform_prior_logpdf_and_support():
    p = UniformPrior(lo=-2.0, hi=2.0)
    vals = p.logpdf(np.array([-3.0, 0.0, 1.9, 2.1]))
    assert vals[0] == -np.inf and vals[3] == -np.inf
    assert vals[1] == pytest.approx(np.log(0.25))
    with pytest.raises(ConfigError):
        UniformPrior(lo=1.0, hi=1.0)


def test_point_mass_sampling():
    p = PointMassPrior(x=3.5)
    rng = np.random.default_rng(0)
    assert p.sample(rng) == 3.5
    assert np.all(p.sample(rng, size=4) == 3.5)


def test_prior_from_spec_roundtrip():
    assert prior_from_spec({"family": "normal", "mean": -5.0, "std": 1.0}) == NormalPrior(-5.0, 1.0)
    assert prior_from_spec({"family": "uniform", "lo": 0.0, "hi": 3.0}) == UniformPrior(0.0, 3.0)
    assert prior_from_spec({"family": "point", "x": 1.0}) == PointMassPrior(1.0)


def test_prior_from_spec_unknown_family():
    with pytest.raises(ConfigError):
        prior_from_spec({"family": "gamma", "shape": 2.0})


def test_sampling_statistics():
    rng = np.random.default_rng(12)
    xs = NormalPrior(mean=2.0, std=0.5).sample(rng, size=100_000)
    assert xs.mean() == pytest.approx(2.0, abs=0.01)
    xs = UniformPrior(lo=0.0, hi=4.0).sample(rng, size=100_000)
    assert xs.mean() == pytest.approx(2.0, abs=0.02)
