"""Noise density families: radial envelopes, tail radii, tabulated fallback."""

import math

import numpy as np
import pytest

from ldlab.densities import (
    GaussianDensity,
    StudentTDensity,
    TabulatedDensity,
    density_from_spec,
)
from ldlab.errors import H2FailureError, ModelValidationError

# standard normal pdf at 0, 1, 2; checked against scipy.stats.norm.pdf
N01_AT_0 = 0.3989422804014327
N01_AT_1 = 0.24197072451914337
N01_AT_2 = 0.05399096651318806


def test_gaussian_pdf_reference_values():
    g = GaussianDensity(sigma=1.0)
    assert g.pdf(0.0) == pytest.approx(N01_AT_0, abs=1e-15)
    assert g.pdf(1.0) == pytest.approx(N01_AT_1, abs=1e-15)
    assert g.pdf(-2.0) == pytest.approx(N01_AT_2, abs=1e-15)


@pytest.mark.parametrize("density", [GaussianDensity(sigma=0.7),
                                     StudentTDensity(df=3.5, scale=1.3)],
                         ids=["gaussian", "student-t"])
def test_logpdf_out_is_bitwise_the_plain_route(density):
    u = np.random.default_rng(3).normal(scale=5.0, size=(37, 23))
    plain = density.logpdf(u)
    buf = np.empty_like(u)
    assert density.logpdf(u, out=buf) is buf
    assert np.array_equal(buf, plain)
    inplace = u.copy()
    density.logpdf(inplace, out=inplace)
    assert np.array_equal(inplace, plain)
    # scalars and 0-d arrays, as quad passes them, give the same bits
    for x in (1.7, np.float64(-2.3), np.array(0.4)):
        val = density.logpdf(x)
        assert np.ndim(val) == 0
        assert val == density.logpdf(np.array([x]))[0]
        out0 = np.empty(())
        density.logpdf(np.array(x), out=out0)
        assert out0 == val


def test_gaussian_radial_envelopes():
    g = GaussianDensity(sigma=1.0)
    # unimodal symmetric: min over the ball sits on the rim, max at the center
    assert g.radial_min(1.0) == pytest.approx(N01_AT_1, rel=1e-14)
    assert g.radial_min(2.0) == pytest.approx(N01_AT_2, rel=1e-14)
    assert g.radial_max(2.0) == pytest.approx(N01_AT_0, rel=1e-14)
    assert g.sup() == pytest.approx(N01_AT_0, rel=1e-14)
    assert g.tail_sup(2.0) == pytest.approx(N01_AT_2, rel=1e-14)


def test_gaussian_radial_fns_vectorize():
    g = GaussianDensity(sigma=2.0)
    r = np.array([0.0, 1.0, 5.0])
    lo = g.log_radial_min(r)
    hi = g.log_radial_max(r)
    assert lo.shape == (3,) and hi.shape == (3,)
    assert np.all(lo <= hi + 1e-15)
    assert lo[0] == pytest.approx(hi[0])


def test_gaussian_delta_for_tail_ratio_closed_form():
    g = GaussianDensity(sigma=1.5)
    eta = 0.1
    delta = g.delta_for_tail_ratio(eta)
    assert delta == pytest.approx(1.5 * math.sqrt(2.0 * math.log(10.0)), rel=1e-14)
    # the radius achieves the ratio exactly
    assert g.tail_sup(delta) / g.sup() == pytest.approx(eta, rel=1e-12)
    assert g.delta_for_tail_ratio(1.0) == 0.0
    with pytest.raises(H2FailureError):
        g.delta_for_tail_ratio(0.0)


def test_gaussian_rejects_bad_scale():
    with pytest.raises(ModelValidationError):
        GaussianDensity(sigma=0.0)


def test_student_t_tail_ratio_roundtrip():
    t = StudentTDensity(df=4.0, scale=1.0)
    for eta in (0.5, 0.1, 0.01):
        delta = t.delta_for_tail_ratio(eta)
        assert t.tail_sup(delta) / t.sup() == pytest.approx(eta, rel=1e-12)


def test_student_t_radial_fns_vectorize():
    t = StudentTDensity(df=3.0, scale=0.7)
    r = np.linspace(0.0, 10.0, 11)
    lo = np.asarray(t.log_radial_min(r))
    assert lo.shape == r.shape
    assert np.all(np.diff(lo) < 0)  # strictly decaying tail
    assert float(t.radial_max(5.0)) == pytest.approx(t.sup(), rel=1e-14)


def test_student_t_heavier_than_gaussian_far_out():
    t = StudentTDensity(df=3.0, scale=1.0)
    g = GaussianDensity(sigma=1.0)
    assert t.pdf(8.0) > g.pdf(8.0)


def test_tabulated_matches_gaussian_envelopes():
    g = GaussianDensity(sigma=1.0)
    tab = TabulatedDensity(pdf_fn=g.pdf, r_max=12.0, n_grid=4001)
    cell = 12.0 / 4000  # quantities are reported at grid resolution
    for r in (0.5, 1.0, 2.0, 3.5):
        lo = float(tab.radial_min(r))
        # table reads the last node <= r, so its min can only overshoot,
        # and by at most one cell of pdf variation
        assert g.radial_min(r) <= lo <= g.radial_min(r - cell) + 1e-15
        assert tab.radial_max(r) == pytest.approx(g.radial_max(r), rel=1e-12)
    assert tab.sup() == pytest.approx(g.sup(), rel=1e-12)
    assert tab.delta_for_tail_ratio(0.1) == pytest.approx(
        g.delta_for_tail_ratio(0.1), abs=cell)


def test_tabulated_radial_fns_vectorize():
    tab = TabulatedDensity(pdf_fn=GaussianDensity(sigma=1.0).pdf, r_max=10.0, n_grid=1001)
    r = np.array([0.0, 1.0, 2.0, 50.0])  # beyond r_max clips to the table edge
    vals = tab.radial_min(r)
    assert vals.shape == (4,)
    assert vals[3] == pytest.approx(tab.radial_min(10.0))


def test_tabulated_asymmetric_density_uses_worse_side():
    # skewed bimodal-ish: value at -r differs from +r
    def pdf(u):
        u = np.asarray(u, dtype=float)
        return 0.6 * np.exp(-0.5 * (u - 0.5) ** 2) / math.sqrt(2 * math.pi) + \
            0.4 * np.exp(-0.5 * (u + 1.5) ** 2) / math.sqrt(2 * math.pi)

    tab = TabulatedDensity(pdf_fn=pdf, r_max=10.0, n_grid=20001)
    r = 1.0
    xs = np.linspace(-r, r, 40001)
    dense_min = pdf(xs).min()
    dense_max = pdf(xs).max()
    assert tab.radial_min(r) <= dense_min * (1 + 1e-6)
    assert tab.radial_max(r) >= dense_max * (1 - 1e-6)


def test_tabulated_requires_positive_values():
    with pytest.raises(ModelValidationError):
        TabulatedDensity(pdf_fn=lambda u: np.maximum(1.0 - np.abs(u), 0.0), r_max=5.0)


def test_density_from_spec_roundtrip():
    g = density_from_spec({"family": "gaussian", "sigma": 2.5})
    assert isinstance(g, GaussianDensity) and g.sigma == 2.5
    t = density_from_spec({"family": "student_t", "df": 5.0, "scale": 0.5})
    assert isinstance(t, StudentTDensity) and t.df == 5.0
    with pytest.raises(ModelValidationError):
        density_from_spec({"family": "cauchy"})


def test_sampling_moments_smoke():
    rng = np.random.default_rng(7)
    g = GaussianDensity(sigma=2.0)
    xs = g.sample(rng, size=200_000)
    assert abs(xs.mean()) < 0.02
    assert xs.std() == pytest.approx(2.0, abs=0.02)
