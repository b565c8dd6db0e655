from __future__ import annotations

import math

import numpy as np
import pytest

from jamgame import (
    GameInstance,
    SolverOptions,
    Tabulated,
    default_init,
    evaluate,
    gaussian,
    laplace,
    simulate,
    solve_equilibrium,
    solve_gda,
    solve_pga_ccp,
)
from jamgame.cli import _event_trace
from jamgame.dist import CHECK_GRID_POINTS, NORMALIZATION_TOL, SYMMETRY_TOL, UNIMODAL_TOL
from jamgame.quadrature import DEFAULT_TOL, PiecewiseIntegrand, integrate

# Benchmark record: the published table of stationary points for the Gaussian
# game with c = d = 1 (sigma2 -> (alpha, beta, xhat0, xhat1), 4 decimals),
# kept verbatim. Only its sigma2 = 1 row is a first-order equilibrium (to the
# rounding scale of its digits). The sigma2 >= 2 rows are xhat-stationary but
# carry an O(1) theta-side ascent gap (pinned by
# test_reactive.py::test_reference_rows_above_sigma1_are_not_stationary), so
# they are not equilibria and solvers are not compared against them; tests
# use them only as arbitrary points of the game. The equilibrium reference is
# FNE_TABLE below.
TABLE1 = {
    1.0: (0.0760, 0.3172, 0.5169, -0.4831),
    2.0: (0.0350, 0.1572, 0.7030, -0.4338),
    3.0: (0.0136, 0.0937, 0.7618, -0.4204),
    4.0: (0.0040, 0.0634, 0.7894, -0.4148),
    5.0: (0.0000, 0.0475, 0.8082, -0.4039),
}

# Equilibrium reference: first-order Nash equilibria of the same game
# (sigma2 -> (alpha, beta, xhat0, xhat1), 6 decimals), derived without the
# package's quadrature or solvers. The expectations were written with
# closed-form truncated-normal moments (scipy.stats.norm) and the first-order
# conditions solved with scipy.optimize.fsolve: all four gradient components
# at sigma2 = 1 (interior theta; the row agrees with TABLE1[1.0] to 1e-4), and
# with beta = 1 for sigma2 >= 2 the three conditions xhat0 = E[X | silent],
# dJt/dxhat1 = 0 and dJt/dalpha = 0. There dJt/dbeta is 0.42, 0.93, 1.40 and
# 1.83, so beta = 1 is the box KKT point, and (xhat0 - xhat1)^2 = d holds.
# test_fne_reference.py re-checks every row with the same moment formulas.
FNE_TABLE = {
    1.0: (0.075990, 0.317126, 0.516857, -0.483143),
    2.0: (0.640807, 1.0, 0.758275, -0.241725),
    3.0: (0.726365, 1.0, 0.802156, -0.197844),
    4.0: (0.774490, 1.0, 0.829489, -0.170511),
    5.0: (0.805887, 1.0, 0.848578, -0.151422),
}


@pytest.fixture(scope="session")
def g1():
    return GameInstance(gaussian(1.0), 1.0, 1.0)


@pytest.fixture(scope="session")
def g2():
    return GameInstance(gaussian(2.0), 1.0, 1.0)


@pytest.fixture(scope="session")
def lap1():
    return GameInstance(laplace(sigma2=1.0), 1.0, 1.0)


@pytest.fixture(scope="session")
def eq_g1(g1):
    return solve_equilibrium(g1)


@pytest.fixture(scope="session")
def eq_g2(g2):
    return solve_equilibrium(g2)


@pytest.fixture(scope="session")
def pga_g1(g1):
    """PGA-CCP run on the sigma2 = 1 instance from the default init."""
    return solve_pga_ccp(g1, default_init(g1), SolverOptions())


@pytest.fixture(scope="session")
def gda_g1(g1):
    """GDA baseline on the same instance and init."""
    return solve_gda(g1, default_init(g1), SolverOptions())


@pytest.fixture(scope="session")
def bimodal_table():
    """Symmetric but bimodal density table: unit Gaussians at +-3."""
    x = np.linspace(-12.0, 12.0, 401)
    f = 0.5 * (np.exp(-0.5 * (x - 3) ** 2) + np.exp(-0.5 * (x + 3) ** 2)) / np.sqrt(2 * np.pi)
    return x, f


def support(d):
    """(R, breakpoints): the oracle integrates ``d`` over [-R, R], split at
    the points where the density is not smooth. A table gives its own
    support and inner knots; the Gaussian 10 sigma and none; the Laplace 40
    b and its kink at 0, since its tails would leave ~5e-5 of the mass
    outside 10 sigma."""
    if d.family == "tabulated":
        return d.truncation_radius, d.breakpoints
    return {"gaussian": (10.0 * d.scale, ()), "laplace": (40.0 * d.scale, (0.0,))}[d.family]


def expectation(d, g, kinks=(), tol=DEFAULT_TOL):
    """The quadrature oracle: E[g(X)] for X ~ d over [-R, R] of ``support``,
    by adaptive Gauss-Kronrod split at ``kinks`` (breakpoints of g) and at
    the density's own. ``g`` is vectorized and may return a row of values
    per point, each integrated over shared nodes."""
    R, breakpoints = support(d)

    def integrand(x):
        vals = np.asarray(g(x), dtype=float)
        w = d.pdf(x)
        return vals * (w[:, None] if vals.ndim == 2 else w)

    domain = PiecewiseIntegrand(integrand, tuple(kinks) + tuple(breakpoints), (-R, R))
    return integrate(domain, tol=tol).value


def closed_form_violations(d):
    """The admissibility tests a table passes at construction, run on a
    closed-form density, which nothing checks at run time: symmetry to
    SYMMETRY_TOL of the peak, unimodality to UNIMODAL_TOL and positivity on
    a CHECK_GRID_POINTS grid of [0, R] plus the breakpoints of ``support``,
    and the mass over [-R, R] within NORMALIZATION_TOL below 1 and 1e-12
    above it. Returns the names of the failed tests and that mass."""
    R, breakpoints = support(d)
    t = np.unique(np.concatenate([np.linspace(0.0, R, CHECK_GRID_POINTS),
                                  np.abs(np.asarray(breakpoints, dtype=float))]))
    fp, fm = d.pdf(t), d.pdf(-t)
    mass = integrate(PiecewiseIntegrand(d.pdf, breakpoints, (-R, R)),
                     tol=min(1e-10, NORMALIZATION_TOL / 10)).value
    failed = {
        "symmetry": np.any(np.abs(fp - fm) > np.max(fp) * SYMMETRY_TOL),
        "unimodality": np.any(np.diff(fp) > UNIMODAL_TOL),
        "positivity": np.any(fp <= 0.0),
        "normalization": not 1.0 - NORMALIZATION_TOL <= mass <= 1.0 + 1e-12,
    }
    return [name for name, bad in failed.items() if bad], mass


def exp_power_knots(variance, shape, knots_per_side=20):
    """Knots (x, f) of the symmetric unimodal density exp(-|x/a|^shape) with
    the given variance, out to where the density is exp(-40)."""
    a = math.sqrt(variance * math.gamma(1.0 / shape) / math.gamma(3.0 / shape))
    half = np.linspace(0.0, a * 40.0 ** (1.0 / shape), knots_per_side + 1)
    x = np.concatenate([-half[:0:-1], half])
    return x, np.exp(-((np.abs(x) / a) ** shape))


def gaussian_rows():
    """The rows "x,f" of a 41-knot unnormalized Gaussian table on [-8, 8]."""
    x = np.linspace(-8.0, 8.0, 41)
    return [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, np.exp(-0.5 * x * x))]


def gaussian_table_csv(path, header, encoding="utf-8"):
    """Write ``gaussian_rows`` to ``path`` after ``header``; the encoding
    "utf-8-sig" starts the file with a byte order mark."""
    path.write_text(header + "\n".join(gaussian_rows()) + "\n", encoding=encoding)
    return path


def bad_first_row_csv(path, header):
    """Write ``gaussian_rows`` to ``path`` after ``header``, with a first
    data row whose f cell does not parse:
    ``-8.0,1.2664165549094176e-14oops``."""
    rows = gaussian_rows()
    rows[0] += "oops"
    path.write_text(header + "\n".join(rows) + "\n")
    return path


def exp_power_table(variance, shape, knots_per_side=20):
    """The table of ``exp_power_knots``."""
    return Tabulated(*exp_power_knots(variance, shape, knots_per_side))


def jt_row(inst, p):
    """The kernel's row of Jt at a ReactivePoint:
    [value, d/dxhat0, d/dxhat1, d/dalpha, d/dbeta]."""
    return evaluate(inst, *p.xhat, *p.theta)[0]


def g_row(inst, p):
    """The kernel's row of G = E[max(A, B)], laid out as ``jt_row``."""
    return evaluate(inst, *p.xhat, *p.theta)[1]


def f_quadratic(inst, p):
    """F = E[A] + E[B] of the split Jt = F - G, in closed form for a
    zero-mean density, without the kernel."""
    (x0, x1), (a, b) = p.xhat, p.theta
    v = inst.dist.variance
    return (a + b) * (v + x1 * x1) + (1.0 - a) * (v + x0 * x0) + inst.c - inst.d * (a + b)


def traced_simulate(inst, policies, n, seed, path):
    """``simulate`` with the command line's event-trace sink, which writes
    the first draws to ``path`` (None: no trace)."""
    if path is None:
        return simulate(inst, policies, n, seed)
    with _event_trace(str(path), policies.xhat) as sink:
        return simulate(inst, policies, n, seed, sink)
