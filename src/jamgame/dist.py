"""Source distributions: symmetric, unimodal, zero-mean densities.

Everything downstream (thresholds, equilibria, gradients) assumes the
measurement density f is symmetric and unimodal about its mean, which is
normalized to zero. This module supplies the density evaluations, moments,
tail second moments and inverse-CDF sampling, and makes every density
admissible by construction: the Gaussian and Laplace families are
symmetric and unimodal by their formulas (the tests check them over many
variances), and a tabulated density is checked once, when it is built.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtr, ndtri

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Gauss-Legendre rule applied to every cell of a tabulated density's grid
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)

# Tuning of check_symmetric_unimodal: points of its grid on [0, R], the
# largest |f(t) - f(-t)| and the largest rise of f moving away from 0 that
# it tolerates, and how far below 1 the mass over [-R, R] may fall.
CHECK_GRID_POINTS = 2001
SYMMETRY_TOL = 1e-12
UNIMODAL_TOL = 1e-12
NORMALIZATION_TOL = 1e-8


class Family(Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"
    TABULATED = "tabulated"


class SourceDistribution:
    """Base class for admissible source densities.

    Instances are immutable after construction and safe to share across
    threads. Sampling takes an explicit seed and owns its generator state.

    Attributes
    ----------
    family : Family
        Distribution family tag.
    scale : float
        Family scale parameter (sigma for Gaussian, b for Laplace).
    variance : float
        Second moment about the (zero) mean.
    truncation_radius : float
        Half-width of a table's support, which its admissibility check
        scans. For the Gaussian (10 sigma) and Laplace (40 b) families it is
        fixed and only bounds the domain of a quadrature reference: their
        closed-form moments integrate the whole line.
    breakpoints : tuple of float
        Interior points where the density is not smooth (quadrature splits
        there). Empty for Gaussian.
    """

    family: Family
    scale: float
    variance: float
    truncation_radius: float
    breakpoints: tuple[float, ...] = ()
    mean: float = 0.0

    def pdf(self, x):
        """Density f(x). Accepts scalars or arrays; rejects non-finite input."""
        raise NotImplementedError

    def cdf(self, x):
        """Cumulative distribution F(x)."""
        raise NotImplementedError

    def ppf(self, u):
        """Inverse CDF; maps uniforms in (0, 1) to samples."""
        raise NotImplementedError

    def _density(self, t: float) -> float:
        """f(t) as a float, for one finite point.

        The closed-form families override this with a ``math`` twin of
        ``pdf``: the threshold Newton loop reads the density about 7 times a
        solve, and a scalar call into the numpy ``pdf`` costs about 12 us,
        which would take a Gaussian or Laplace solve from ~30 to ~45-55 us.
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

    def sample(self, seed: int, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. samples, deterministically for a fixed seed.

        Uses a counter-based Philox stream through the inverse CDF, so the
        value of draw ``i`` depends only on ``(seed, i)``.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.Generator(np.random.Philox(key=seed))
        # random() can return exactly 0, which ppf would map to -inf
        u = np.clip(rng.random(n), 2.0**-53, 1.0 - 2.0**-53)
        return self.ppf(u)

    def _check_finite(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("pdf argument must be finite")
        return x


class Gaussian(SourceDistribution):
    """Zero-mean normal density with variance sigma2."""

    family = Family.GAUSSIAN

    def __init__(self, sigma2: float):
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        self.scale = math.sqrt(sigma2)
        self.variance = float(sigma2)
        self.truncation_radius = 10.0 * self.scale

    def pdf(self, x):
        x = self._check_finite(x)
        z = x / self.scale
        return np.exp(-0.5 * z * z) / (self.scale * _SQRT_2PI)

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.scale)

    def ppf(self, u):
        return self.scale * ndtri(np.asarray(u, dtype=float))

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
    """Zero-mean Laplace density with scale b (variance 2 b^2).

    The density has a kink at the origin, which is exposed through
    ``breakpoints`` so quadrature splits there. The truncation radius, the
    domain of a quadrature reference, is 40 b: Laplace tails are heavy
    enough that the 10-sigma rule used for the Gaussian would leave ~5e-5 of
    mass outside it.
    """

    family = Family.LAPLACE
    breakpoints = (0.0,)

    def __init__(self, scale: float):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        self.variance = 2.0 * scale * scale
        self.truncation_radius = 40.0 * self.scale

    @classmethod
    def from_variance(cls, sigma2: float) -> "Laplace":
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        return cls(math.sqrt(sigma2 / 2.0))

    def pdf(self, x):
        x = self._check_finite(x)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.5 * np.exp(x / self.scale), 1.0 - 0.5 * np.exp(-x / self.scale))

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


class Tabulated(SourceDistribution):
    """Density interpolated from a (x, f(x)) table.

    Monotone cubic (PCHIP) interpolation is applied to the log-density,
    which preserves positivity; the result is renormalized to unit mass on
    the truncated domain. Moments come from a cumulative table over a
    fine grid that contains every knot (the interpolant is only C^1 there),
    so each grid cell takes a fixed Gauss-Legendre rule.

    The table must have strictly increasing x spanning both signs, strictly
    positive f, and a numerically zero mean after normalization, and the
    interpolated density must pass ``check_symmetric_unimodal``; otherwise
    construction raises ``ValueError`` (``InadmissibleDistributionError``
    for a failed check, carrying its report).
    """

    family = Family.TABULATED

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
        self._logf = PchipInterpolator(x, np.log(f), extrapolate=False)
        self._knots = x
        self.breakpoints = tuple(
            t for t in x if -self.truncation_radius < t < self.truncation_radius
        )

        self._build_cdf_table()
        mass, mean, second = self._cum[-1]
        if abs(mean) > 1e-6:
            raise ValueError(f"tabulated density has nonzero mean {mean:.3e}; shift it to 0 first")
        self.mean = 0.0
        self.variance = float(second)
        self.scale = math.sqrt(self.variance)
        report = check_symmetric_unimodal(self)
        if not report.ok:
            raise InadmissibleDistributionError(report)

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load a two-column (x, f(x)) CSV; a non-numeric header row is skipped."""
        xs: list[float] = []
        fs: list[float] = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    xv, fv = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    if not xs:
                        continue  # header line
                    raise ValueError(f"malformed CSV row: {row!r}")
                xs.append(xv)
                fs.append(fv)
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
            out[inside] = self._norm * np.exp(self._logf(x[inside]))
        return float(out[0]) if scalar else out

    def _cell_moments(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """integral_lo^hi x^k f(x) dx, k = 0, 1, 2, per cell, from one
        Gauss-Legendre evaluation of all cells; each cell lies inside one
        knot interval, where the interpolant is smooth."""
        half = 0.5 * (hi - lo)
        z = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_X
        wf = half[:, None] * _GL_W * self._norm * np.exp(self._logf(z))
        return np.stack([wf.sum(axis=1), (wf * z).sum(axis=1), (wf * z * z).sum(axis=1)], axis=1)

    def _build_cdf_table(self):
        """Cumulative moment table on a 2001-point grid plus the knots.

        Also normalizes the density: row i holds the moments of
        [-R, grid[i]], divided by the total mass. The CDF used by ``cdf``
        and ``ppf`` is its first column.
        """
        R = self.truncation_radius
        grid = np.unique(np.concatenate([np.linspace(-R, R, 2001), np.asarray(self.breakpoints)]))
        self._norm = 1.0
        cells = self._cell_moments(grid[:-1], grid[1:])
        mass = float(cells[:, 0].sum())
        if not (mass > 0):
            raise ValueError("tabulated density has nonpositive mass")
        self._norm = 1.0 / mass
        self._cum = np.concatenate([np.zeros((1, 3)), np.cumsum(cells / mass, axis=0)])
        self._cdf_x = grid
        self._cdf_y = self._cum[:, 0] / self._cum[-1, 0]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self._cdf_x, self._cdf_y, left=0.0, right=1.0)

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

    def _cumulative(self, ends: np.ndarray) -> np.ndarray:
        """Moments of [-R, t] for each t in ``ends`` (inside [-R, R]): the
        table row of the grid point below t plus the rest of its cell."""
        below = np.clip(np.searchsorted(self._cdf_x, ends, side="right") - 1, 0, self._cdf_x.size - 2)
        return self._cum[below] + self._cell_moments(self._cdf_x[below], ends)

    def partial_moments(self, lo: float, hi: float) -> tuple[float, float, float]:
        R = self.truncation_radius
        lo, hi = max(lo, -R), min(hi, R)
        if not lo < hi:
            return (0.0, 0.0, 0.0)
        cum = self._cumulative(np.array([lo, hi]))
        m0, m1, m2 = (cum[1] - cum[0]).tolist()
        # rounding must not make a mass or a second moment negative
        return (max(m0, 0.0), m1, max(m2, 0.0))

    def tail_second_moment(self, t: float) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t >= self.truncation_radius:
            return 0.0
        # both tails from one lookup of -t and t: [-R, -t] and [t, R]
        left, right = self._cumulative(np.array([-t, t]))[:, 2].tolist()
        return max(left, 0.0) + max(self.variance - right, 0.0)


def gaussian(sigma2: float) -> Gaussian:
    return Gaussian(sigma2)


def laplace(scale: float | None = None, sigma2: float | None = None) -> Laplace:
    if (scale is None) == (sigma2 is None):
        raise ValueError("give exactly one of scale, sigma2")
    if scale is not None:
        return Laplace(scale)
    return Laplace.from_variance(sigma2)


@dataclass
class AdmissibilityReport:
    """Outcome of the symmetric/unimodal/normalized admissibility check.

    ``violations`` holds (kind, location, detail) triples; an empty list
    means the distribution is admissible for the equilibrium theory.
    """

    violations: list[tuple[str, float, str]] = field(default_factory=list)
    normalization: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "admissible (symmetric, unimodal, normalized)"
        lines = [f"{kind} violation at x={loc:.6g}: {detail}" for kind, loc, detail in self.violations]
        return "; ".join(lines)


class InadmissibleDistributionError(ValueError):
    """The density fails the symmetric/unimodal admissibility check."""

    def __init__(self, report: AdmissibilityReport):
        self.report = report
        super().__init__(f"distribution is not admissible: {report.describe()}")


def check_symmetric_unimodal(d: SourceDistribution) -> AdmissibilityReport:
    """Report symmetry, unimodality and normalization violations on a grid.

    The grid runs over [0, truncation_radius] and includes the density's own
    breakpoints (a bimodal table fails exactly where the pdf re-increases
    past its inter-mode valley). ``Tabulated`` runs it at construction.
    """
    R = d.truncation_radius
    t = np.unique(
        np.concatenate(
            [np.linspace(0.0, R, CHECK_GRID_POINTS), np.abs(np.asarray(d.breakpoints, dtype=float))]
        )
    )
    t = t[(t >= 0) & (t <= R)]
    report = AdmissibilityReport()

    fp = np.asarray(d.pdf(t), dtype=float)
    fm = np.asarray(d.pdf(-t), dtype=float)
    bad = np.abs(fp - fm) > SYMMETRY_TOL
    if np.any(bad):
        i = int(np.argmax(np.abs(fp - fm)))
        report.violations.append(
            ("symmetry", float(t[i]), f"|f(t)-f(-t)| = {abs(fp[i]-fm[i]):.3e}")
        )

    rises = np.diff(fp) > UNIMODAL_TOL
    if np.any(rises):
        i = int(np.argmax(np.diff(fp)))
        report.violations.append(
            ("unimodality", float(t[i]), f"pdf increases by {np.diff(fp)[i]:.3e} moving away from 0")
        )

    if np.any(fp <= 0.0):
        i = int(np.argmin(fp))
        report.violations.append(("positivity", float(t[i]), f"pdf = {fp[i]:.3e}"))

    from .quadrature import PiecewiseIntegrand, integrate

    mass = integrate(
        PiecewiseIntegrand(d.pdf, d.breakpoints, (-R, R)), tol=min(1e-10, NORMALIZATION_TOL / 10)
    ).value
    report.normalization = mass
    if not (1.0 - NORMALIZATION_TOL <= mass <= 1.0 + 1e-12):
        report.violations.append(("normalization", 0.0, f"integral over [-R, R] = {mass:.12f}"))
    return report
