from __future__ import annotations

import math

import numpy as np
import pytest

from jamgame import (
    GameInstance,
    SolverOptions,
    Tabulated,
    default_init,
    gaussian,
    laplace,
    solve_equilibrium,
    solve_gda,
    solve_pga_ccp,
)

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


def exp_power_table(variance, shape, knots_per_side=20):
    """Table of the symmetric unimodal density exp(-|x/a|^shape) with the
    given variance, on knots out to where the density is exp(-40)."""
    a = math.sqrt(variance * math.gamma(1.0 / shape) / math.gamma(3.0 / shape))
    half = np.linspace(0.0, a * 40.0 ** (1.0 / shape), knots_per_side + 1)
    x = np.concatenate([-half[:0:-1], half])
    return Tabulated(x, np.exp(-((np.abs(x) / a) ** shape)))
