"""Source distributions: symmetric, unimodal, zero-mean densities.

Everything downstream (thresholds, equilibria, gradients) assumes the
measurement density f is symmetric and unimodal about its mean, which is
normalized to zero. This module supplies the density evaluations, moments,
tail second moments and the inverse CDF, and makes every density
admissible by construction: the Gaussian and Laplace families are
symmetric and unimodal by their formulas (the tests check them over many
variances), and a tabulated density is checked once, when it is built.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from functools import cached_property
from typing import Sequence

import numpy as np

from . import quadrature

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Gauss-Legendre rule applied to every cell of a tabulated density's grid
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_XS, _GL_WS = _GL_X.tolist(), _GL_W.tolist()  # the same rule as floats


def _sum8(w: list[float]) -> float:
    """Sum of 8 floats in numpy's pairwise order."""
    return ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7]))


def _pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, n - 1) coefficients of the monotone cubic through (x, y), n >= 3
    (PCHIP, Fritsch and Butland 1984): row j multiplies (t - x[k])^(3 - j)
    on knot interval k. Inner slopes are weighted harmonic means of the
    secants (0 where one vanishes or they change sign), end slopes one-sided
    three-point estimates. Every operation is scipy's, so the coefficients
    are its PCHIP interpolator's ``.c``, bit for bit."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    cap = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3 * np.abs(m0))
    d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(cap, 3 * m0, e))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _cubic(c, s):
    """c[0] s^3 + c[1] s^2 + c[2] s + c[3] in scipy PPoly's term order, for floats or arrays."""
    return c[3] + c[2] * s + c[1] * (s * s) + c[0] * ((s * s) * s)


# Tuning of a table's admissibility tests: points of their grid on [0, R],
# the largest |f(t) - f(-t)| tolerated as a share of the peak density (the
# interpolation allowance comes on top), the largest rise of f moving away
# from 0, and how far below 1 the mass over [-R, R] may fall.
CHECK_GRID_POINTS = 2001
SYMMETRY_TOL = 1e-12
UNIMODAL_TOL = 1e-12
NORMALIZATION_TOL = 1e-8


class SourceDistribution:
    """Base class for admissible source densities.

    Instances are immutable after construction and safe to share across
    threads.

    Attributes
    ----------
    family : str
        Distribution family tag: "gaussian", "laplace" or "tabulated".
    scale : float
        Scale parameter of the family (sigma for Gaussian, b for Laplace).
    variance : float
        Second moment about the (zero) mean.
    """

    family: str
    scale: float
    variance: float

    def pdf(self, x):
        """Density f(x). Accepts scalars or arrays; rejects non-finite input."""
        raise NotImplementedError

    def ppf(self, u):
        """Inverse CDF; maps uniforms in (0, 1) to samples."""
        raise NotImplementedError

    def _density(self, t: float) -> float:
        """f(t) as a float, for one finite point. The non-sensing threshold
        root reads it, and so does the base ``_moments_and_ends``, for the
        end densities of the Hessian (``reactive._second_order``) on the
        closed-form families; a table reads those from its moments pass.

        The closed-form families override this with a ``math`` twin of
        ``pdf``: the threshold Newton loop reads the density about 7 times a
        solve, and a scalar call into the numpy ``pdf`` costs about 12 us,
        which would take a Gaussian or Laplace solve from ~30 to ~45-55 us.
        A table keeps this scalar ``pdf`` call.
        """
        return float(self.pdf(t))

    def _upper_tail(self, t: float) -> tuple[float, float, float]:
        """Upper-tail moments integral_t^inf x^k f(x) dx, k = 0, 1, 2, for
        0 <= t <= inf (symmetric closed-form families)."""
        raise NotImplementedError

    def partial_moments(self, lo: float, hi: float) -> tuple[float, float, float]:
        """Truncated moments E[X^k; lo < X < hi] for k = 0, 1, 2.

        Either end may be infinite; an empty interval gives zeros. The
        symmetric families add the upper-tail moments of the part right of 0
        to the mirrored ones of the part left of it, so no difference of two
        values near 1 loses the tails.
        """
        if not lo < hi:
            return (0.0, 0.0, 0.0)
        r0, r1, r2 = self._upper_tail(max(lo, 0.0))
        s0, s1, s2 = self._upper_tail(max(hi, 0.0))
        l0, l1, l2 = self._upper_tail(max(-hi, 0.0))
        m0, m1, m2 = self._upper_tail(max(-lo, 0.0))
        return ((r0 - s0) + (l0 - m0), (r1 - s1) - (l1 - m1), (r2 - s2) + (l2 - m2))

    def _moments_and_ends(
        self, lo: float, hi: float
    ) -> tuple[tuple[float, float, float], float, float]:
        """``(partial_moments(lo, hi), f(lo), f(hi))``, an infinite end's
        density 0.0: the moments of a silent interval and the densities at
        its ends, which the exact Hessian weights its boundary terms by. A
        table takes all of them from one pass over its cumulative table."""
        return (self.partial_moments(lo, hi),
                self._density(lo) if math.isfinite(lo) else 0.0,
                self._density(hi) if math.isfinite(hi) else 0.0)

    @cached_property
    def full_moments(self) -> tuple[float, float, float]:
        """(E[1], E[X], E[X^2]) over the whole support."""
        return self.partial_moments(-math.inf, math.inf)

    def tail_second_moment(self, t: float) -> float:
        """Two-sided tail second moment M(t) = E[X^2; |X| > t].

        Non-increasing in t, with M(0) equal to the variance. This is the
        quantity whose comparison with the jamming cost decides whether the
        non-sensing jammer attacks at all.
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        return 2.0 * self._upper_tail(t)[2]

    def _check_finite(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("pdf argument must be finite")
        return x


class Gaussian(SourceDistribution):
    """Zero-mean normal density with variance sigma2."""

    family = "gaussian"

    def __init__(self, sigma2: float):
        if not 0 < sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        self.scale = math.sqrt(sigma2)
        self.variance = float(sigma2)

    def pdf(self, x):
        x = self._check_finite(x)
        z = x / self.scale
        return np.exp(-0.5 * z * z) / (self.scale * _SQRT_2PI)

    def ppf(self, u):
        # imported here, so that a command that draws no Gaussian never loads it
        from scipy.special import ndtri

        # scaled in place: the same product as scale * ndtri(u), without a
        # second array
        z = ndtri(np.asarray(u, dtype=float))
        z *= self.scale
        return z

    def _density(self, t: float) -> float:
        u = t / self.scale
        return math.exp(-0.5 * u * u) / (self.scale * _SQRT_2PI)

    def _upper_tail(self, t: float) -> tuple[float, float, float]:
        if t == math.inf:
            return (0.0, 0.0, 0.0)
        u = t / self.scale
        phi = math.exp(-0.5 * u * u) / _SQRT_2PI
        q = 0.5 * math.erfc(u / _SQRT_2)
        return (q, self.scale * phi, self.variance * (q + u * phi))


class Laplace(SourceDistribution):
    """Zero-mean Laplace density with scale b (variance 2 b^2)."""

    family = "laplace"

    def __init__(self, scale: float):
        # a finite scale above about 9.5e153 has a variance 2 b^2 that overflows
        if not (0 < scale and math.isfinite(2.0 * scale * scale)):
            raise ValueError("scale must be positive and finite, with a finite variance 2 b^2")
        self.scale = float(scale)
        self.variance = 2.0 * scale * scale

    def pdf(self, x):
        x = self._check_finite(x)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def ppf(self, u):
        """b log(2u) below the median and -b log(2(1 - u)) from it on, as one
        log of the nearer tail's mass: 1 - u is exact for u >= 0.5, so every
        bit, the -0.0 at u = 0.5 included, is that of the two-branch form."""
        u = np.asarray(u, dtype=float)
        tail = np.subtract(1.0, u, out=np.empty_like(u))
        np.minimum(tail, u, out=tail)
        tail *= 2.0
        np.maximum(tail, 1e-300, out=tail)
        np.log(tail, out=tail)
        tail *= np.array([-self.scale, self.scale]).take((u < 0.5).view(np.uint8))
        return tail

    def _density(self, t: float) -> float:
        return math.exp(-abs(t) / self.scale) / (2.0 * self.scale)

    def _upper_tail(self, t: float) -> tuple[float, float, float]:
        b = self.scale
        e = 0.5 * math.exp(-t / b)
        if e == 0.0:
            return (0.0, 0.0, 0.0)
        return (e, e * (t + b), e * (t * t + 2.0 * b * t + 2.0 * b * b))


class InadmissibleDistributionError(ValueError):
    """A table fails admissibility tests; ``violations`` lists each failure
    as a (kind, location, detail) triple."""

    def __init__(self, violations: list[tuple[str, float, str]]):
        self.violations = violations
        super().__init__("distribution is not admissible: " + "; ".join(
            f"{kind} violation at x={loc:.6g}: {detail}" for kind, loc, detail in violations))


class Tabulated(SourceDistribution):
    """Density interpolated from a (x, f(x)) table.

    The log-density is the monotone cubic ``_pchip`` through the knots,
    which keeps the density positive, renormalized to unit mass on the
    support [-R, R], R = ``truncation_radius`` the smaller of -x[0] and
    x[-1]; the density is 0 outside it. ``breakpoints`` are the knots
    inside (-R, R).
    Moments come from a cumulative table over a fine grid that contains
    every knot (the interpolant is only C^1 there), so each grid cell lies
    inside one knot interval and takes a fixed Gauss-Legendre rule.

    The table must have strictly increasing x spanning both signs and
    strictly positive f; otherwise construction raises ``ValueError``. The
    interpolated density must then pass the mean, symmetry, unimodality,
    positivity and normalization tests of ``_violations``; a table that
    fails any raises one ``InadmissibleDistributionError`` listing each.
    """

    family = "tabulated"

    def __init__(self, x: Sequence[float], f: Sequence[float]):
        x = np.asarray(x, dtype=float)
        f = np.asarray(f, dtype=float)
        if x.ndim != 1 or x.shape != f.shape or x.size < 4:
            raise ValueError("table needs matched 1-D x, f columns with >= 4 rows")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(f)):
            raise ValueError("table entries must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x column must be strictly increasing")
        if np.any(f <= 0):
            raise ValueError("tabulated density must be strictly positive")
        if x[0] >= 0 or x[-1] <= 0:
            raise ValueError("table must span negative and positive x")

        self.truncation_radius = float(min(-x[0], x[-1]))
        self._knots = x
        self._coef = _pchip(x, np.log(f))
        self.breakpoints = tuple(
            t for t in x if -self.truncation_radius < t < self.truncation_radius
        )

        self._build_cdf_table()
        self.variance = float(self._cum[-1, 2])
        self.scale = math.sqrt(self.variance)
        violations = self._violations()
        if violations:
            raise InadmissibleDistributionError(violations)

    def _violations(self) -> list[tuple[str, float, str]]:
        """Every admissibility test the interpolated density fails, as
        (kind, location, detail) triples; empty when it is admissible.

        The mean must be 0 to within 1e-6 s. Symmetry, unimodality and
        positivity are tested on a grid of [0, R] that includes the knots (a
        bimodal table fails exactly where the pdf re-increases past its
        inter-mode valley), symmetry relative to the peak density, and the
        mass over [-R, R] must be 1. The mean and symmetry tests also allow
        what interpolation explains: on Gaussian tables with gap/s from 0.02
        to 0.85 the interpolant strayed from the density it samples by at
        most (gap/s)^2 / 30 of it, so knots not mirrored about 0 leave an
        asymmetry of that order; the allowance is (gap/s)^2 / 8 of the
        density. Sparser knots lie outside what was measured and get none.
        """
        R, k, mean = self.truncation_radius, self._knots, float(self._cum[-1, 1])
        violations = []

        def allowance(gap):
            h = np.asarray(gap) / self.scale
            return np.where(h <= 0.85, h * h / 8.0, 0.0)[()]

        def gap(z):
            i = np.clip(np.searchsorted(k, z, side="right") - 1, 0, k.size - 2)
            return k[i + 1] - k[i]

        # the interpolant's mean strays by at most E|X| <= s times its
        # relative error, over the knot gaps it is used on
        used = np.diff(k)[(k[:-1] < R) & (k[1:] > -R)]
        if abs(mean) > (1e-6 + allowance(float(np.max(used)))) * self.scale:
            violations.append(("mean", mean, "nonzero mean; shift the table to 0 first"))

        t = np.unique(np.concatenate([np.linspace(0.0, R, CHECK_GRID_POINTS),
                                      np.abs(np.asarray(self.breakpoints, dtype=float))]))
        fp, fm = self.pdf(t), self.pdf(-t)
        asym = np.abs(fp - fm)
        allowed = np.max(fp) * SYMMETRY_TOL
        bad = asym > allowed
        if np.any(bad):
            # a table on knots mirrored about 0 passes without the allowance:
            # the larger of f(t) and f(-t) times that of the wider knot gap
            # holding t or -t
            tb = t[bad]
            bad[bad] = asym[bad] > allowed + np.maximum(fp, fm)[bad] * allowance(
                np.maximum(gap(tb), gap(-tb)))
        if np.any(bad):
            i = int(np.argmax(asym))
            violations.append(("symmetry", float(t[i]), f"|f(t)-f(-t)| = {asym[i]:.3e}"))

        rise = np.diff(fp)
        if np.any(rise > UNIMODAL_TOL):
            i = int(np.argmax(rise))
            violations.append(
                ("unimodality", float(t[i]), f"pdf increases by {rise[i]:.3e} moving away from 0"))

        if np.any(fp <= 0.0):
            i = int(np.argmin(fp))
            violations.append(("positivity", float(t[i]), f"pdf = {fp[i]:.3e}"))

        mass = quadrature.integrate(
            quadrature.PiecewiseIntegrand(self.pdf, self.breakpoints, (-R, R)),
            tol=min(1e-10, NORMALIZATION_TOL / 10),
        ).value
        if not (1.0 - NORMALIZATION_TOL <= mass <= 1.0 + 1e-12):
            violations.append(("normalization", 0.0, f"integral over [-R, R] = {mass:.12f}"))
        return violations

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load a two-column (x, f(x)) CSV, UTF-8 with or without a byte order
        mark. A first row whose x cell is not a number is a header and
        skipped; any other row that does not parse raises ``ValueError``."""
        xs: list[float] = []
        fs: list[float] = []
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for n, row in enumerate(r for r in csv.reader(fh) if r and r[0].strip()):
                try:
                    xs.append(float(row[0]))
                    fs.append(float(row[1]))
                except (ValueError, IndexError):
                    if n == 0 and not xs:
                        continue  # a header: the first row, its x cell no number
                    raise ValueError(f"malformed CSV row: {row!r}") from None
        if not xs:
            raise ValueError(f"no data rows in {path}")
        return cls(xs, fs)

    def pdf(self, x):
        x = self._check_finite(x)
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        inside = np.abs(x) <= self.truncation_radius
        if np.any(inside):
            z = x[inside]
            # the knot interval [x[k], x[k+1]) holding z, the last one closed
            k = np.searchsorted(self._knots[1:-1], z, side="right")
            out[inside] = self._norm * np.exp(_cubic(self._coef.take(k, axis=1), z - self._knots[k]))
        return float(out[0]) if scalar else out

    def _cell_moments(self, lo: np.ndarray, hi: np.ndarray, knot: np.ndarray) -> np.ndarray:
        """integral_lo^hi x^k f(x) dx, k = 0, 1, 2, per cell, from one
        Gauss-Legendre evaluation of all cells, each node on the cubic of its
        cell's knot interval knot[i]. A per-point search (``pdf``) moves a
        node that rounds onto the knot ending a cell a few ulps wide to the
        next interval, a last-bit change that the table's sums absorb."""
        half = 0.5 * (hi - lo)
        z = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_X
        logf = _cubic(self._coef.take(knot, axis=1)[:, :, None], z - self._knots[knot, None])
        wf = half[:, None] * _GL_W * self._norm * np.exp(logf)
        return np.stack([wf.sum(axis=1), (wf * z).sum(axis=1), (wf * z * z).sum(axis=1)], axis=1)

    def _build_cdf_table(self):
        """Cumulative moment table on a 2001-point grid plus the knots.

        Also normalizes the density: row i holds the moments of
        [-R, grid[i]], divided by the total mass. The CDF that ``ppf``
        inverts is its first column. ``_cumulative`` reads the grid, each
        cell's knot interval, the knots and the coefficients as Python
        numbers; the rows stay in numpy (converting them costs more).
        """
        R = self.truncation_radius
        grid = np.unique(np.concatenate([np.linspace(-R, R, 2001), np.asarray(self.breakpoints)]))
        # every knot in (-R, R) is a grid point: a cell's left end finds its interval
        knot = np.searchsorted(self._knots[1:-1], grid[:-1], side="right")
        self._norm = 1.0
        cells = self._cell_moments(grid[:-1], grid[1:], knot)
        mass = float(cells[:, 0].sum())
        if not (mass > 0):
            raise ValueError("tabulated density has nonpositive mass")
        self._norm = 1.0 / mass
        self._cum = np.concatenate([np.zeros((1, 3)), np.cumsum(cells / mass, axis=0)])
        self._cdf_x = grid
        self._cdf_y = self._cum[:, 0] / self._cum[-1, 0]
        self._floats = grid.tolist(), knot.tolist(), self._knots.tolist(), self._coef.T.tolist()

    @cached_property
    def _ppf_index(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Bucket index over u and per-row slopes for ``ppf``, built on its
        first call so that a table that is never sampled does not pay for it.

        ``bucket[k]`` is the last grid row with ``cdf_y <= k/K``; K is a
        power of two (so u K is exact) of about 16 buckets a row. The CDF
        rises by less than an ulp over some tail cells, which leaves runs of
        equal ``cdf_y`` and zero-width cells; their infinite slopes are
        never read, since the row found for u is always the last of its run.
        ``cdf_y`` gets an infinite sentinel and the slopes a 0 for the last
        row, where u >= 1 lands.
        """
        y, x = self._cdf_y, self._cdf_x
        K = 1 << (16 * y.size).bit_length()
        bucket = np.searchsorted(y, np.arange(K + 1) / K, side="right") - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.diff(x) / np.diff(y)
        return K, bucket, np.append(y, np.inf), np.append(slope, 0.0)

    def ppf(self, u):
        """Inverse CDF for u in [0, 1], bit for bit
        ``np.interp(u, cdf_y, cdf_x)`` (u > 1 gives the right end, as there).

        The row below u is read from its bucket; the few u that lie past
        the bucket's first row (about one in a hundred) take a binary
        search. The value is np.interp's ``slope (u - y) + x``, written as
        ``x - slope (y - u)``: it rounds the same, and on an exact hit of a
        -0.0 knot it keeps the sign that np.interp's equality branch
        returns. (The one difference: a cell narrower than about 1e-300 in
        ``cdf_y`` overflows its slope, and an exact hit on its left end
        gives nan where np.interp gives the knot.)
        """
        u = np.asarray(u, dtype=float)
        K, bucket, y, slope = self._ppf_index
        flat = u.ravel()
        row = bucket.take((flat * K).astype(np.intp), mode="clip")
        far = np.flatnonzero(y.take(row + 1) <= flat)
        row[far] = np.searchsorted(y, flat[far], side="right") - 1
        out = y.take(row)
        out -= flat
        out *= slope.take(row)
        np.subtract(self._cdf_x.take(row), out, out=out)
        return out.reshape(u.shape)[()]

    def _cumulative(self, t0: float, t1: float,
                    ends: bool = False) -> tuple[list[float], list[float], list[float]]:
        """Moments of [-R, t] for t = t0 and t1 (inside [-R, R]): the table
        row of the grid point below t plus the rest of its cell; with
        ``ends``, also the densities [f(t0), f(t1)] (else []).

        The rest of the cell is ``_cell_moments`` in floats, bit for bit:
        the cell's cubic at each node, the weights in the same order and
        each sum of 8 in numpy's pairwise order;
        ``test_tabulated_moments_match_numpy_kernel`` checks. Each density
        is ``pdf``'s, bit for bit: the norm times the exponential of the
        cubic of the knot interval that ``pdf``'s search finds (at t = R
        that is not the cell's when R is a knot inside the longer side).
        One ``np.exp`` takes the 16 node exponents and the two end ones
        (``math.exp`` differs in the last bit on a few calls in 10^4).
        """
        grid, knot, knots, cubic = self._floats
        cells, logs = [], []
        for t in (t0, t1):
            i = min(bisect_right(grid, t) - 1, len(grid) - 2)
            half, mid = 0.5 * (t - grid[i]), 0.5 * (t + grid[i])
            zs = [mid + half * x for x in _GL_XS]
            cells.append((i, half, zs))
            c, xk = cubic[knot[i]], knots[knot[i]]
            logs += [_cubic(c, z - xk) for z in zs]
        if ends:
            for t in (t0, t1):
                k = bisect_right(knots, t, 1, len(knots) - 1) - 1
                logs.append(_cubic(cubic[k], t - knots[k]))
        dens = np.exp(logs).tolist()
        rows = []
        for n, (i, half, zs) in enumerate(cells):
            wf = [half * w * self._norm * e for w, e in zip(_GL_WS, dens[8 * n:8 * n + 8])]
            wz = [a * z for a, z in zip(wf, zs)]
            wzz = [a * z for a, z in zip(wz, zs)]
            c0, c1, c2 = self._cum[i].tolist()
            rows.append([c0 + _sum8(wf), c1 + _sum8(wz), c2 + _sum8(wzz)])
        return rows[0], rows[1], [self._norm * dens[16], self._norm * dens[17]] if ends else []

    def _moments_and_ends(self, lo: float, hi: float, ends: bool = True):
        """One ``_cumulative`` pass. ``partial_moments`` passes ``ends=False``,
        which leaves out the two density lanes (about 0.5 us on every moment
        lookup of the solvers' kernel) and reads 0.0 for both."""
        R = self.truncation_radius
        # the pass reads points of [-R, R]: no mass lies beyond them, and an
        # end outside them has density 0.0, as in pdf (a nan end empties the
        # interval)
        t0 = lo if -R <= lo <= R else (-R if lo < 0.0 else R)
        t1 = hi if -R <= hi <= R else (R if hi > 0.0 else -R)
        (a0, a1, a2), (b0, b1, b2), dens = self._cumulative(t0, t1, ends)
        # rounding must not make a mass or a second moment negative
        moments = (max(b0 - a0, 0.0), b1 - a1, max(b2 - a2, 0.0)) if t0 < t1 else (0.0, 0.0, 0.0)
        if not ends:
            return moments, 0.0, 0.0
        return moments, dens[0] if t0 == lo else 0.0, dens[1] if t1 == hi else 0.0

    def partial_moments(self, lo: float, hi: float) -> tuple[float, float, float]:
        return self._moments_and_ends(lo, hi, ends=False)[0]

    def tail_second_moment(self, t: float) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t >= self.truncation_radius:
            return 0.0
        # both tails from one lookup of -t and t: [-R, -t] and [t, R]
        left, right, _ = self._cumulative(-t, t)
        return max(left[2], 0.0) + max(self.variance - right[2], 0.0)


def gaussian(sigma2: float) -> Gaussian:
    return Gaussian(sigma2)


def laplace(scale: float | None = None, sigma2: float | None = None) -> Laplace:
    if (scale is None) == (sigma2 is None):
        raise ValueError("give exactly one of scale, sigma2")
    if scale is not None:
        return Laplace(scale)
    if not 0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be positive and finite")
    return Laplace(math.sqrt(sigma2 / 2.0))
