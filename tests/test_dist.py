import math

import numpy as np
import pytest

from jamgame import (
    Tabulated,
    check_symmetric_unimodal,
    expectation,
    gaussian,
    laplace,
)
from jamgame.dist import InadmissibleDistributionError
from jamgame.quadrature import PiecewiseIntegrand, integrate

from conftest import exp_power_table

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_gaussian_pdf_mode_and_symmetry():
    g = gaussian(1.0)
    assert g.pdf(0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-12)
    assert g.pdf(1.0) == pytest.approx(g.pdf(-1.0), abs=1e-15)
    assert abs(g.pdf(0.0) - 0.3989) < 1e-4


def test_laplace_pdf_mode():
    lap = laplace(scale=1.0)
    assert lap.pdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert lap.pdf(2.0) == pytest.approx(lap.pdf(-2.0), abs=1e-15)


def test_pdf_rejects_nonfinite():
    g = gaussian(1.0)
    with pytest.raises(ValueError):
        g.pdf(float("nan"))
    with pytest.raises(ValueError):
        g.pdf(float("inf"))


def test_tail_second_moment_reference_values():
    # Values quoted for the unit-cost example: M(1) = 0.8012 (var 1), 1.8378 (var 2).
    assert gaussian(1.0).tail_second_moment(1.0) == pytest.approx(0.8012, abs=1e-3)
    assert gaussian(2.0).tail_second_moment(1.0) == pytest.approx(1.8378, abs=1e-3)


@pytest.mark.parametrize("make", [lambda: gaussian(1.7), lambda: laplace(scale=0.8)])
def test_tail_second_moment_at_zero_is_variance(make):
    d = make()
    assert d.tail_second_moment(0.0) == pytest.approx(d.variance, abs=1e-8)


def test_tail_second_moment_rejects_negative_t():
    with pytest.raises(ValueError):
        gaussian(1.0).tail_second_moment(-0.1)


@pytest.mark.parametrize("sigma2", [1.0, 2.0])
def test_gaussian_tail_closed_form_matches_quadrature(sigma2):
    d = gaussian(sigma2)
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        quad = integrate(
            PiecewiseIntegrand(lambda x: x * x * d.pdf(x), (), (t, d.truncation_radius)),
            tol=1e-12,
        ).value
        assert d.tail_second_moment(t) == pytest.approx(2.0 * quad, abs=1e-9)


@pytest.mark.parametrize("make", [lambda: gaussian(2.0), lambda: laplace(sigma2=2.0)])
def test_tail_second_moment_monotone(make):
    d = make()
    ts = np.linspace(0.0, 5.0, 80)
    ms = [d.tail_second_moment(t) for t in ts]
    assert all(a >= b - 1e-10 for a, b in zip(ms, ms[1:]))


def test_sample_moments_and_determinism():
    g = gaussian(1.0)
    s = g.sample(seed=11, n=10**6)
    assert abs(s.mean()) < 4.0 / math.sqrt(10**6)

    g2 = gaussian(2.0)
    s2 = g2.sample(seed=12, n=10**6)
    assert abs(s2.var() - 2.0) < 0.02  # ~7 chi-square standard errors

    assert np.array_equal(g2.sample(seed=5, n=1000), g2.sample(seed=5, n=1000))
    assert not np.array_equal(g2.sample(seed=5, n=1000), g2.sample(seed=6, n=1000))


def test_sample_rejects_bad_n():
    with pytest.raises(ValueError):
        gaussian(1.0).sample(seed=0, n=0)


KS_CRIT_P001 = 1.9495  # asymptotic Kolmogorov critical value at alpha = 0.001


@pytest.mark.parametrize(
    "make",
    [lambda: gaussian(1.0), lambda: laplace(sigma2=1.0), lambda: exp_power_table(1.25, 1.5)],
    ids=["gaussian", "laplace", "tabulated"],
)
def test_sampling_ks(make):
    d = make()
    n = 10**5
    s = np.sort(d.sample(seed=101, n=n))
    cdf = d.cdf(s)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
    assert ks < KS_CRIT_P001 / math.sqrt(n)


def _philox_uniforms(seed, n):
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    return np.clip(u, 2.0**-53, 1.0 - 2.0**-53)


def test_laplace_ppf_matches_two_log_form():
    # the one-log inverse against the two-branch formula, bit for bit,
    # including the sign of the zero at the median
    d = laplace(sigma2=2.0)
    b = d.scale
    edges = np.array([2.0**-53, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
    for u in (_philox_uniforms(5, 10**6), edges):
        lo = b * np.log(np.maximum(2.0 * u, 1e-300))
        hi = -b * np.log(np.maximum(2.0 * (1.0 - u), 1e-300))
        ref = np.where(u < 0.5, lo, hi)
        got = d.ppf(u)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def _gaussian_table(x):
    return Tabulated(x, np.exp(-0.5 * x * x) / SQRT_2PI)


@pytest.mark.parametrize(
    "make",
    [lambda: exp_power_table(1.25, 1.5), lambda: exp_power_table(2.75, 2.2),
     lambda: exp_power_table(4.25, 1.8),
     lambda: _gaussian_table(np.linspace(-8.5, 8.5, 801)),
     lambda: _gaussian_table(np.where(np.arange(41) == 20, -0.0, np.linspace(-9.0, 9.0, 41)))],
    ids=["exp-power-1.5", "exp-power-2.2", "exp-power-1.8", "gaussian-grid", "negative-zero-knot"],
)
def test_tabulated_ppf_matches_interp(make):
    t = make()
    y = t._cdf_y
    # the CDF is flat over some tail cells, so some table values repeat
    assert np.any(np.diff(y) == 0)
    for u in (_philox_uniforms(6, 10**6), y, np.nextafter(y, 2.0), np.nextafter(y[1:], -1.0),
              np.array([0.0, 1.0]), np.array([[0.25, 0.5], [0.75, 1.0]])):
        ref = np.interp(u, t._cdf_y, t._cdf_x)
        got = t.ppf(u)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    # an exact hit on a knot returns the knot, a -0.0 one with its sign
    assert np.array_equal(np.signbit(t.ppf(y)), np.signbit(t._cdf_x))
    # past the last table value, the right end, as np.interp gives
    assert np.array_equal(t.ppf(np.array([1.0 + 2.0**-52, 2.0])), np.full(2, t._cdf_x[-1]))
    for u in (0.3, np.array(0.3)):
        assert np.ndim(t.ppf(u)) == 0
        assert t.ppf(u) == np.interp(u, t._cdf_y, t._cdf_x)


def test_admissibility_clean_families():
    # nothing checks the closed-form families at run time; their formulas
    # are admissible at every scale
    for sigma2 in (1e-6, 1e-2, 1.0, 1e2, 1e6):
        for d in (gaussian(sigma2), laplace(sigma2=sigma2)):
            report = check_symmetric_unimodal(d)
            assert report.ok, (d.family, sigma2, report.describe())


def test_admissibility_flags_bimodal(bimodal_table):
    # a table is checked once, when it is built, and refused there
    x, f = bimodal_table
    with pytest.raises(InadmissibleDistributionError) as refused:
        Tabulated(x, f)
    assert isinstance(refused.value, ValueError)
    report = refused.value.report
    assert not report.ok
    kinds = {kind for kind, _, _ in report.violations}
    assert "unimodality" in kinds
    # the violation is localized between the valley at 0 and the mode at 3
    locs = [loc for kind, loc, _ in report.violations if kind == "unimodality"]
    assert all(0.0 < loc < 3.0 for loc in locs)


def test_normalization_within_tolerance():
    for d in (gaussian(1.0), laplace(scale=1.0)):
        rep = check_symmetric_unimodal(d)
        assert 1.0 - 1e-8 <= rep.normalization <= 1.0 + 1e-12


def test_tabulated_from_gaussian_grid_matches_closed_form():
    x = np.linspace(-8.5, 8.5, 801)
    f = np.exp(-0.5 * x * x) / SQRT_2PI
    tab = Tabulated(x, f)
    assert tab.variance == pytest.approx(1.0, abs=1e-6)
    assert check_symmetric_unimodal(tab).ok
    assert tab.tail_second_moment(1.0) == pytest.approx(
        gaussian(1.0).tail_second_moment(1.0), abs=1e-6
    )
    v = expectation(tab, lambda z: z * z)
    assert v == pytest.approx(1.0, abs=1e-6)


def test_tabulated_csv_roundtrip(tmp_path):
    x = np.linspace(-9.0, 9.0, 241)
    f = np.exp(-0.5 * x * x) / SQRT_2PI
    rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, f))
    with_header = tmp_path / "density.csv"
    with_header.write_text("x,f\n" + rows + "\n")
    tab = Tabulated.from_csv(with_header)
    assert tab.pdf(0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-6)

    no_header = tmp_path / "bare.csv"
    no_header.write_text(rows + "\n")
    assert Tabulated.from_csv(no_header).variance == pytest.approx(tab.variance, rel=1e-9)


def test_tabulated_input_validation():
    x = np.linspace(-5, 5, 51)
    f = np.exp(-0.5 * x * x) / SQRT_2PI
    with pytest.raises(ValueError):
        Tabulated(x[::-1], f)  # decreasing grid
    with pytest.raises(ValueError):
        Tabulated(x, -f)  # nonpositive density
    shifted = np.exp(-0.5 * (x - 2.0) ** 2) / SQRT_2PI
    with pytest.raises(ValueError, match="mean"):
        Tabulated(x, shifted)


def test_truncation_defaults():
    assert gaussian(4.0).truncation_radius == pytest.approx(20.0)
    # Laplace tails are fat: 10 scales would leave ~5e-5 of mass out
    assert laplace(scale=1.0).truncation_radius == pytest.approx(40.0)


def test_tabulated_cdf_table_matches_adaptive_reference():
    # the table is built from one fixed Gauss-Legendre evaluation of every
    # grid cell; the reference integrates each cell adaptively
    x = np.linspace(-9.0, 9.0, 61)
    tab = Tabulated(x, np.exp(-np.abs(x) ** 1.5))
    grid = tab._cdf_x
    masses = [integrate(PiecewiseIntegrand(tab.pdf, (), (a, b)), tol=1e-13).value
              for a, b in zip(grid[:-1], grid[1:])]
    ref = np.concatenate([[0.0], np.cumsum(masses)])
    ref /= ref[-1]
    assert np.max(np.abs(tab._cdf_y - ref)) <= 1e-14
