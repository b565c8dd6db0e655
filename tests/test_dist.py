import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from jamgame import (
    Tabulated,
    gaussian,
    laplace,
)
from jamgame.dist import _GL_W, _GL_X, InadmissibleDistributionError, _pchip
from jamgame.quadrature import PiecewiseIntegrand, integrate

from conftest import (
    bad_first_row_csv,
    closed_form_violations,
    exp_power_knots,
    exp_power_table,
    expectation,
    gaussian_table_csv,
    support,
)

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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_families_refuse_non_finite_or_nonpositive_parameters(bad):
    for build in (gaussian, lambda v: laplace(scale=v), lambda v: laplace(sigma2=v)):
        with pytest.raises(ValueError, match="positive and finite"):
            build(bad)


def test_laplace_refuses_a_scale_whose_variance_overflows():
    # 2 b^2 passes the largest float near b = 9.5e153
    assert laplace(scale=1e150).variance == pytest.approx(2e300)
    for bad in (1e154, 1e200, 1e308):
        with pytest.raises(ValueError, match="finite variance"):
            laplace(scale=bad)


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
            PiecewiseIntegrand(lambda x: x * x * d.pdf(x), (), (t, support(d)[0])),
            tol=1e-12,
        ).value
        assert d.tail_second_moment(t) == pytest.approx(2.0 * quad, abs=1e-9)


@pytest.mark.parametrize("make", [lambda: gaussian(2.0), lambda: laplace(sigma2=2.0)])
def test_tail_second_moment_monotone(make):
    d = make()
    ts = np.linspace(0.0, 5.0, 80)
    ms = [d.tail_second_moment(t) for t in ts]
    assert all(a >= b - 1e-10 for a, b in zip(ms, ms[1:]))


@pytest.mark.parametrize(
    "make, tol",
    [
        (lambda: gaussian(1.0), 1e-14),
        (lambda: laplace(sigma2=1.0), 1e-14),
        # a table's ppf interpolates its CDF rows linearly; on cells h = 0.0152
        # wide with |f'| <= 0.261 that errs by up to |f'| h^2 / 8 = 7.5e-6
        (lambda: exp_power_table(1.25, 1.5), 1e-5),
    ],
    ids=["gaussian", "laplace", "tabulated"],
)
def test_ppf_inverts_mass_below(make, tol):
    # the mass below ppf(u), from the moment kernel, is u
    d = make()
    u = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 1001), [1e-12, 1e-9, 0.5, 1.0 - 1e-9]])
    mass = [d.partial_moments(-math.inf, x)[0] for x in d.ppf(u).tolist()]
    assert np.max(np.abs(np.array(mass) - u)) < tol


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


@pytest.mark.parametrize("sigma2", [1e-6, 0.3, 2.0, 1e6])
def test_gaussian_ppf_matches_scaled_ndtri(sigma2):
    # the in-place scaling against the product form, bit for bit, for an
    # array and for a scalar
    from scipy.special import ndtri

    d = gaussian(sigma2)
    edges = np.array([2.0**-53, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
    for u in (_philox_uniforms(6, 10**5), edges):
        ref = d.scale * ndtri(u)
        got = d.ppf(u)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert d.ppf(0.25) == d.scale * ndtri(0.25)
    assert np.ndim(d.ppf(0.25)) == 0


def _gaussian_knots(x):
    return x, np.exp(-0.5 * x * x) / SQRT_2PI


@pytest.mark.parametrize(
    "make",
    [lambda: exp_power_table(1.25, 1.5), lambda: exp_power_table(2.75, 2.2),
     lambda: exp_power_table(4.25, 1.8),
     lambda: Tabulated(*_gaussian_knots(np.linspace(-8.5, 8.5, 801))),
     lambda: Tabulated(*_gaussian_knots(
         np.where(np.arange(41) == 20, -0.0, np.linspace(-9.0, 9.0, 41))))],
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


def _numpy_cumulative(t, logf, ends):
    """The table's cumulative moments as a numpy kernel over scipy's
    interpolant ``logf`` computes them: one Gauss-Legendre rule per cell,
    each node in the knot interval scipy's search finds, and
    ``sum(axis=1)``, for an array of ends."""
    ends = np.asarray(ends, dtype=float)
    below = np.clip(np.searchsorted(t._cdf_x, ends, side="right") - 1, 0, t._cdf_x.size - 2)
    lo = t._cdf_x[below]
    half = 0.5 * (ends - lo)
    z = (0.5 * (ends + lo))[:, None] + half[:, None] * _GL_X
    wf = half[:, None] * _GL_W * t._norm * np.exp(logf(z))
    cells = np.stack([wf.sum(axis=1), (wf * z).sum(axis=1), (wf * z * z).sum(axis=1)], axis=1)
    return t._cum[below] + cells


def _numpy_partial_moments(t, logf, lo, hi):
    R = t.truncation_radius
    lo, hi = np.maximum(lo, -R), np.minimum(hi, R)
    empty = ~(lo < hi)
    m = _numpy_cumulative(t, logf, hi) - _numpy_cumulative(t, logf, lo)
    m[:, 0] = np.maximum(m[:, 0], 0.0)
    m[:, 2] = np.maximum(m[:, 2], 0.0)
    m[empty] = 0.0
    return m


def _numpy_tail_second_moment(t, logf, s):
    left = _numpy_cumulative(t, logf, -s)[:, 2]
    right = _numpy_cumulative(t, logf, s)[:, 2]
    tail = np.maximum(left, 0.0) + np.maximum(t.variance - right, 0.0)
    return np.where(s >= t.truncation_radius, 0.0, tail)


# (x, f) of the tables whose kernel is checked against scipy's interpolant
KERNEL_TABLES = {
    "exp-power-1.5": lambda: exp_power_knots(1.25, 1.5),
    "exp-power-2.2": lambda: exp_power_knots(2.75, 2.2),
    "exp-power-1.8": lambda: exp_power_knots(4.25, 1.8),
    "gaussian-grid": lambda: _gaussian_knots(np.linspace(-8.5, 8.5, 801)),
}


@pytest.mark.parametrize("make", list(KERNEL_TABLES.values()), ids=list(KERNEL_TABLES))
def test_tabulated_moments_match_numpy_kernel(make):
    # the float kernel gives every bit of a numpy kernel over scipy's
    # PchipInterpolator, the sign of a zero included
    x, f = make()
    t = Tabulated(x, f)
    logf = PchipInterpolator(x, np.log(f), extrapolate=False)
    R = t.truncation_radius
    rng = np.random.default_rng(17)
    ends = np.concatenate([t._cdf_x, t._knots, [R, -R, 1.5 * R, -1.5 * R, 0.0, -0.0]])
    pairs = np.sort(rng.uniform(-1.1 * R, 1.1 * R, (10**4, 2)), axis=1)
    # the last two blocks are empty intervals
    lo = np.concatenate([pairs[:, 0], ends, np.full(ends.size, -R), ends, ends + 1e-3])
    hi = np.concatenate([pairs[:, 1], np.full(ends.size, R), ends, ends, ends])
    got = np.array([t.partial_moments(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
    assert got.tobytes() == _numpy_partial_moments(t, logf, lo, hi).tobytes()

    s = np.concatenate([np.abs(rng.uniform(-1.1 * R, 1.1 * R, 10**4)), np.abs(ends),
                        [0.0, R, np.nextafter(R, 0.0), 2.0 * R]])
    got = np.array([t.tail_second_moment(v) for v in s.tolist()])
    assert got.tobytes() == _numpy_tail_second_moment(t, logf, s).tobytes()


def _longer_right_side():
    # an exp-power table with three more knots on the right: R ends the
    # left side and is a knot inside the right one, where pdf(R) reads the
    # knot interval right of R; the cubic of R's grid cell, left of it,
    # differs there in the last bit
    x, _ = exp_power_knots(1.7, 1.3)
    x = np.concatenate([x, x[-1] + (x[-1] - x[-2]) * np.arange(1.0, 4.0)])
    a = x[-4] / 40.0 ** (1.0 / 1.3)
    return x, np.exp(-((np.abs(x) / a) ** 1.3))


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("make", [*KERNEL_TABLES.values(), _longer_right_side],
                         ids=[*KERNEL_TABLES, "longer-right-side"])
def test_tabulated_end_densities_are_pdf_bits(make):
    # the moments pass reads pdf's own density at each end, bit for bit
    t = Tabulated(*make())
    R = t.truncation_radius
    rng = np.random.default_rng(29)
    points = np.concatenate([
        rng.uniform(-1.1 * R, 1.1 * R, 2000), t._knots, t._cdf_x,
        [R, -R, np.nextafter(R, 0.0), np.nextafter(-R, 0.0), np.nextafter(R, np.inf),
         np.nextafter(-R, -np.inf), 1.5 * R, -1.5 * R, 0.0, -0.0]])
    rng.shuffle(points)
    lo = points.tolist()
    # nonempty, inverted and empty intervals
    pairs = list(zip(lo, np.sort(points).tolist())) + [(v, v) for v in lo[:500]]
    got = [t._moments_and_ends(a, b) for a, b in pairs]
    assert _bits([m for m, _, _ in got]) == _bits([t.partial_moments(a, b) for a, b in pairs])
    assert _bits([ends for _, *ends in got]) == _bits([(t.pdf(a), t.pdf(b)) for a, b in pairs])
    assert any(a < b for a, b in pairs) and any(a > b for a, b in pairs)
    # beyond +-R, infinite ends included, the density is 0.0
    for a, b in ((-2.0 * R, 2.0 * R), (-math.inf, math.inf), (math.inf, -math.inf)):
        assert t._moments_and_ends(a, b)[1:] == (0.0, 0.0)
    assert t._moments_and_ends(-math.inf, math.inf)[0] == t.partial_moments(-R, R)
    # a nan end empties the interval, as in partial_moments, and reads 0.0
    assert t._moments_and_ends(math.nan, 0.5) == ((0.0, 0.0, 0.0), 0.0, t.pdf(0.5))
    assert t._moments_and_ends(-0.5, -math.nan) == ((0.0, 0.0, 0.0), t.pdf(-0.5), 0.0)


@pytest.mark.parametrize("dist", [gaussian(2.0), laplace(sigma2=2.0)], ids=["gaussian", "laplace"])
def test_closed_form_end_densities(dist):
    for lo, hi in ((-0.7, 1.3), (1.3, -0.7), (0.4, 0.4), (-math.inf, 0.5), (0.5, math.inf),
                   (-math.inf, math.inf)):
        moments, f_lo, f_hi = dist._moments_and_ends(lo, hi)
        assert moments == dist.partial_moments(lo, hi)
        assert f_lo == (dist._density(lo) if math.isfinite(lo) else 0.0)
        assert f_hi == (dist._density(hi) if math.isfinite(hi) else 0.0)
    assert dist._moments_and_ends(-math.inf, math.inf)[1:] == (0.0, 0.0)


def _nonmirrored_gaussian(sigma, negative=400, positive=433, reach=8.5):
    """Gaussian table on knots that are not mirrored about 0."""
    x = np.concatenate([np.linspace(-reach * sigma, 0.0, negative, endpoint=False),
                        np.linspace(0.0, reach * sigma, positive)])
    return x, np.exp(-0.5 * (x / sigma) ** 2) / (sigma * SQRT_2PI)


def _four_knots():
    x = np.array([-3.0, -1.0, 1.0, 3.0])
    return x, np.exp(-0.5 * x * x)


def _flat_top():
    # equal f on the knots of [-1.5, 1.5], so the secants there are 0
    x = np.linspace(-6.0, 6.0, 25)
    return x, np.exp(-np.maximum(np.abs(x) - 1.5, 0.0) ** 2)


ADMISSIBLE_TABLES = {
    **KERNEL_TABLES,
    "nonmirrored": lambda: _nonmirrored_gaussian(1.0),
    "four-knots": _four_knots,
    "flat-top": _flat_top,
}


@pytest.mark.parametrize("make", list(ADMISSIBLE_TABLES.values()), ids=list(ADMISSIBLE_TABLES))
def test_pchip_matches_scipy(make):
    x, f = make()
    assert _pchip(x, np.log(f)).tobytes() == PchipInterpolator(x, np.log(f)).c.tobytes()


def test_pchip_matches_scipy_on_random_wiggles():
    # random values on random knots: slopes of both signs, flat interior
    # slopes where the secants change sign, and both end-slope corrections
    rng = np.random.default_rng(29)
    zeroed = capped = 0
    for n in [4, 5, 7, 12, 50] * 20:
        x = np.sort(rng.uniform(-10.0, 10.0, n))
        y = rng.normal(size=n)
        c = _pchip(x, y)
        assert c.tobytes() == PchipInterpolator(x, y).c.tobytes()
        m0 = (y[1] - y[0]) / (x[1] - x[0])
        zeroed += c[2, 0] == 0.0
        capped += c[2, 0] == 3 * m0
    assert zeroed and capped


@pytest.mark.parametrize("make", list(ADMISSIBLE_TABLES.values()), ids=list(ADMISSIBLE_TABLES))
def test_tabulated_pdf_matches_scipy(make):
    # every knot, every grid point, both ends and random points, bit for bit
    x, f = make()
    t = Tabulated(x, f)
    R = t.truncation_radius
    pts = np.concatenate([x[np.abs(x) <= R], t._cdf_x, [-R, R, -0.0],
                          np.random.default_rng(31).uniform(-R, R, 10**4)])
    ref = t._norm * np.exp(PchipInterpolator(x, np.log(f), extrapolate=False)(pts))
    assert t.pdf(pts).tobytes() == ref.tobytes()


@pytest.mark.parametrize("knots_per_side", [20, 25, 40, 50])
@pytest.mark.parametrize("variance, shape", [(1.25, 1.5), (2.75, 2.2), (4.25, 1.8), (0.7, 1.35)])
def test_cum_table_matches_scipy_interval_search(variance, shape, knots_per_side):
    # every node of a grid cell reads the cubic of the cell's knot
    # interval; on these tables some knots lie an ulp or two from a grid
    # point, some nodes of those cells round onto a knot, and scipy's
    # per-node search places them in the next interval. The cumulative
    # table keeps every bit of the one built from scipy's values.
    x, f = exp_power_knots(variance, shape, knots_per_side)
    t = Tabulated(x, f)
    lo, hi = t._cdf_x[:-1], t._cdf_x[1:]
    assert np.min(hi - lo) < 1e-12
    half = 0.5 * (hi - lo)
    z = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_X
    searched = np.searchsorted(x, z, side="right")
    assert np.any(searched != np.searchsorted(x, lo, side="right")[:, None])
    wf = half[:, None] * _GL_W * np.exp(PchipInterpolator(x, np.log(f), extrapolate=False)(z))
    cells = np.stack([wf.sum(axis=1), (wf * z).sum(axis=1), (wf * z * z).sum(axis=1)], axis=1)
    ref = np.concatenate([np.zeros((1, 3)), np.cumsum(cells / float(cells[:, 0].sum()), axis=0)])
    assert t._cum.tobytes() == ref.tobytes()


@pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
def test_admissibility_accepts_nonmirrored_table(sigma):
    # the interpolant on these knots is symmetric only to the interpolation
    # error, |f(t) - f(-t)| ~ 6e-6 of the peak, with a mean of ~1e-9 sigma
    t = Tabulated(*_nonmirrored_gaussian(sigma))
    assert t.scale == pytest.approx(sigma, rel=1e-6)
    assert t.tail_second_moment(sigma) == pytest.approx(
        gaussian(sigma**2).tail_second_moment(sigma), rel=1e-6
    )


@pytest.mark.parametrize("knots", [801, 201, 61])
def test_admissibility_refuses_skewed_table(knots):
    # a two-piece normal (sigma 1 left of its mode, 1.2 right of it), shifted
    # so that its mean is 0, is refused by the symmetry test
    x = np.linspace(-9.0, 9.0, knots)
    z = x + math.sqrt(2.0 / math.pi) * 0.2
    f = np.exp(-0.5 * (z / np.where(z < 0, 1.0, 1.2)) ** 2)
    with pytest.raises(InadmissibleDistributionError) as refused:
        Tabulated(x, f)
    kinds = {kind for kind, _, _ in refused.value.violations}
    assert "symmetry" in kinds


def _two_piece(x, shift):
    # sigma 1 left of the mode and 1.2 right of it; the mode at -shift
    z = x + shift
    return np.exp(-0.5 * (z / np.where(z < 0, 1.0, 1.2)) ** 2)


@pytest.mark.parametrize("shift", [0.0, math.sqrt(2.0 / math.pi) * 0.2], ids=["mode-0", "mean-0"])
def test_admissibility_ignores_knots_beyond_radius(shift):
    # one far row beyond R = 9 is never interpolated, so its gap grants no
    # allowance: the mode-at-0 table fails the mean test (0.16 s), the
    # shifted one the symmetry test
    x = np.linspace(-9.0, 9.0, 801)
    with pytest.raises(ValueError, match="nonzero mean" if shift == 0.0 else "symmetry"):
        Tabulated(np.append(x, 60.0), np.append(_two_piece(x, shift), 1e-30))


def test_admissibility_lists_every_failed_test():
    # the mode-0 two-piece table fails the mean and the symmetry tests; one
    # error lists both
    x = np.linspace(-9.0, 9.0, 801)
    with pytest.raises(InadmissibleDistributionError) as refused:
        Tabulated(x, _two_piece(x, 0.0))
    kinds = [kind for kind, _, _ in refused.value.violations]
    assert kinds == ["mean", "symmetry"]
    message = str(refused.value)
    assert "nonzero mean" in message and "symmetry violation" in message


def test_admissibility_far_row_keeps_allowance():
    # nor does that gap take away the allowance of the gaps that are used:
    # this table's mean, about 6e-6 s, is inside it
    x, f = _nonmirrored_gaussian(1.0, 40, 47)
    Tabulated(np.append(x, 60.0), np.append(f, 1e-30))


@pytest.mark.parametrize("gap", [3.0, 0.8])
def test_admissibility_refuses_asymmetric_tail(gap):
    # a Gaussian whose right tail is 1.5 times its left one beyond 3 s: a
    # sparse tail (3 s) grants no allowance, so the mean test refuses it, and
    # a measured one (0.8 s) grants it relative to the tail's own density,
    # not the peak's, so the symmetry test does
    tail = np.arange(3.0 + gap, 9.0, gap)
    x = np.concatenate([-tail[::-1], np.linspace(-3.0, 3.0, 241), tail])
    f = np.exp(-0.5 * x * x) * np.where(x > 3.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="nonzero mean" if gap > 1.0 else "symmetry"):
        Tabulated(x, f)


@pytest.mark.parametrize("shift", [0.0, math.sqrt(2.0 / math.pi) * 0.2], ids=["mode-0", "mean-0"])
def test_admissibility_refuses_skewed_table_with_sparse_tails(shift):
    # tail gaps of 3 s lie beyond the measured range, so they grant no
    # allowance to either test
    x = np.concatenate([[-9.0, -6.0], np.linspace(-3.0, 3.0, 241), [6.0, 9.0]])
    with pytest.raises(ValueError):
        Tabulated(x, _two_piece(x, shift))


def test_admissibility_sparse_tails_need_mirrored_knots():
    # with no allowance the strict tests still accept mirrored
    # knots and refuse the same Gaussian on knots that are not mirrored
    x = np.concatenate([[-9.0, -6.0], np.linspace(-3.0, 3.0, 241), [6.0, 9.0]])
    Tabulated(x, np.exp(-0.5 * x * x))
    x = np.concatenate([[-9.0, -6.5], np.linspace(-3.0, 3.0, 241), [5.5, 9.0]])
    with pytest.raises(ValueError):
        Tabulated(x, np.exp(-0.5 * x * x))


def test_admissibility_clean_families():
    # nothing checks the closed-form families at run time; their formulas
    # are admissible at every scale
    for sigma2 in (1e-6, 1e-2, 1.0, 1e2, 1e6):
        for d in (gaussian(sigma2), laplace(sigma2=sigma2)):
            failed, _ = closed_form_violations(d)
            assert failed == [], (d.family, sigma2, failed)


def test_admissibility_flags_bimodal(bimodal_table):
    # a table is checked once, when it is built, and refused there
    x, f = bimodal_table
    with pytest.raises(InadmissibleDistributionError) as refused:
        Tabulated(x, f)
    assert isinstance(refused.value, ValueError)
    violations = refused.value.violations
    kinds = {kind for kind, _, _ in violations}
    assert "unimodality" in kinds
    # the violation is localized between the valley at 0 and the mode at 3
    locs = [loc for kind, loc, _ in violations if kind == "unimodality"]
    assert all(0.0 < loc < 3.0 for loc in locs)


def test_normalization_within_tolerance():
    for d in (gaussian(1.0), laplace(scale=1.0)):
        _, mass = closed_form_violations(d)
        assert 1.0 - 1e-8 <= mass <= 1.0 + 1e-12


def test_tabulated_from_gaussian_grid_matches_closed_form():
    x = np.linspace(-8.5, 8.5, 801)
    f = np.exp(-0.5 * x * x) / SQRT_2PI
    tab = Tabulated(x, f)  # admissible: construction ran every test
    assert tab.variance == pytest.approx(1.0, abs=1e-6)
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


@pytest.mark.parametrize("header", ["x,f\n", ""], ids=["header", "no-header"])
def test_tabulated_csv_byte_order_mark_keeps_every_knot(tmp_path, header):
    # the mark made the first cell "\ufeff-8.0", which does not parse, so a
    # headerless file's first data row was dropped as a header: 40 knots,
    # R = 7.6
    plain = Tabulated.from_csv(gaussian_table_csv(tmp_path / "plain.csv", header))
    marked = Tabulated.from_csv(
        gaussian_table_csv(tmp_path / "bom.csv", header, encoding="utf-8-sig"))
    assert len(marked._knots) == 41 and marked.truncation_radius == 8.0
    assert np.array_equal(marked._knots, plain._knots)
    assert np.array_equal(marked._coef, plain._coef)


@pytest.mark.parametrize("header", ["x,f\n", ""], ids=["header", "no-header"])
def test_tabulated_csv_refuses_bad_first_data_row(tmp_path, header):
    # the row is not taken for a header and dropped, which loaded a 40-knot
    # table with R = 7.6
    path = bad_first_row_csv(tmp_path / "density.csv", header)
    with pytest.raises(ValueError, match=r"malformed CSV row: \['-8\.0', '1\.26641655490941"):
        Tabulated.from_csv(path)


def test_tabulated_csv_takes_one_header_row(tmp_path):
    x = np.linspace(-9.0, 9.0, 241)
    rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, np.exp(-0.5 * x * x)))
    path = tmp_path / "density.csv"
    path.write_text("\n x,f\n\n" + rows + "\n")  # blank rows are skipped
    assert Tabulated.from_csv(path)._knots.tobytes() == x.tobytes()
    path.write_text("x,f\nx,f\n" + rows + "\n")
    with pytest.raises(ValueError, match=r"malformed CSV row: \['x', 'f'\]"):
        Tabulated.from_csv(path)


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


@pytest.mark.parametrize("s,mass_side", [(50, None), (100, 1), (300, -1)],
                         ids=["s50-accepted", "s100-above-1", "s300-below-1"])
def test_normalization_check_decisions(s, mass_side):
    # a peak at 0 whose neighbouring knots sit e^-s below it: the check
    # accepts the interpolated mass at s = 50 and refuses it at s = 100
    # (1.000000000029) and s = 300 (0.999999943748); s = 80, at 1 + 3e-12,
    # would sit next to the limit
    x = np.array([-100.0, -1.0, 0.0, 1.0, 100.0])
    f = np.exp(-np.array([s + 100.0, s, 0.0, s, s + 100.0]))
    if mass_side is None:
        Tabulated(x, f)
        return
    with pytest.raises(InadmissibleDistributionError) as err:
        Tabulated(x, f)
    [(kind, _, detail)] = err.value.violations
    mass = float(detail.rpartition("= ")[2])
    assert kind == "normalization" and (mass - 1.0) * mass_side > 1e-12


def test_truncation_defaults():
    # the oracle's domain: 10 sigma for the Gaussian, 40 b and the kink at 0
    # for the Laplace, whose fat tails would leave ~5e-5 of mass out of 10 b
    assert support(gaussian(4.0)) == (pytest.approx(20.0), ())
    assert support(laplace(scale=1.0)) == (pytest.approx(40.0), (0.0,))


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
