"""Saddle-point equilibria against a jammer that cannot sense the channel.

The jammer blocks with a fixed probability phi independent of the sensor's
action. Under a symmetric unimodal zero-mean density the sensor's best
response is a symmetric threshold rule, both representation symbols sit at
the mean, and the optimal phi is 0, the unique root of the tail second
moment condition M(sqrt(c/(1-phi))) = d, or 1 when that condition never
turns negative (free transmission, or free jamming). This module computes
that equilibrium in closed form plus root-finding on the threshold tau,
reports the root itself with phi* = 1 - c / tau^2, and checks the saddle
property: exactly for the jammer, on an xhat0 grid for the coordinator. Its
objectives are the reactive game's kernel on the diagonal alpha = beta = phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .reactive import GameInstance, ReactivePoint, evaluate

# The jammer always jams when the jamming marginal is still nonnegative at
# this phi (1 - phi = 2^-39, about 1.8e-12).
PHI_MAX = 1.0 - 2.0**-39

# The saddle check flags a deviation only when it beats the equilibrium
# value by more than its tolerance plus this many float epsilons times the
# instance's magnitude max(|value|, variance, c, d). Deviation and
# equilibrium values are sums of the same size over different silent
# intervals, so where they agree in exact arithmetic they still differ in
# the last bits (2.2e-16 at sigma2 = 2); a check at tolerance 0 must not
# call that a violation.
ROUNDING_ULPS = 64


class Regime(Enum):
    NO_JAM = "NoJam"
    INTERIOR_JAM = "InteriorJam"
    ALWAYS_JAM = "AlwaysJam"


def threshold_policy(c: float, phi: float, xhat0: float = 0.0) -> tuple[float, float]:
    """Best-response silent interval ``(lo, hi)`` for jamming probability phi.

    Transmit iff (1 - phi)(x - xhat0)^2 >= c, that is stay silent strictly
    inside the interval (ties transmit; they carry no probability mass
    under a continuous density). At phi = 1 this degenerates to
    never-transmit, (-inf, inf), when c > 0, and to always-transmit, the
    empty (xhat0, xhat0), when c = 0, where 0 >= 0 holds everywhere.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must lie in [0, 1]")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if phi == 1.0:
        return (-math.inf, math.inf) if c > 0 else (xhat0, xhat0)
    tau = math.sqrt(c / (1.0 - phi))
    return (xhat0 - tau, xhat0 + tau)


def objective(
    inst: GameInstance, phi: float, xhat: tuple[float, float] = (0.0, 0.0),
    silent: tuple[float, float] | None = None,
) -> float:
    """Game value E[min{(1-phi)(X-xhat0)^2, c}] + phi (E[(X-xhat1)^2] - d).

    This is the objective after the sensor best-responds to (phi, xhat)
    with the threshold rule: the reactive objective at alpha = beta = phi.
    A frozen rule passes its silent interval as ``silent``; the sensor then
    pays c plus, on a block, the error against xhat1 where it transmits,
    and mixes the idle symbol error with the blocked one where it is silent.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must lie in [0, 1]")
    p = ReactivePoint(xhat, (phi, phi))
    return evaluate(inst, *p.xhat, *p.theta, silent=silent)[0][0]


def jam_marginal(inst: GameInstance, phi: float) -> float:
    """Derivative of the reduced objective in phi: M(sqrt(c/(1-phi))) - d.

    Strictly decreasing in phi with limit -d as phi -> 1 when c > 0 (constant
    variance - d when c = 0); its sign at 0 and its root, or its staying
    nonnegative, decide the equilibrium regime.
    """
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must lie in [0, 1)")
    tau = math.sqrt(inst.c / (1.0 - phi))
    return inst.dist.tail_second_moment(tau) - inst.d


@dataclass(frozen=True)
class NonSensingEquilibrium:
    """Saddle point for the non-sensing jammer.

    ``threshold`` is tau, with phi_star = 1 - c / tau^2 (the root of
    M(tau) = d when jamming is interior); the sensor transmits iff
    |x| > tau. Both representation symbols are 0. In the always-jam
    regime (phi_star = 1) every transmission is blocked: the threshold is
    +inf when transmitting costs c > 0, and 0 when it is free.
    """

    phi_star: float
    xhat: tuple[float, float]
    threshold: float
    value: float
    regime: Regime


def _cbrt(v: float) -> float:
    """Cube root of v > 0 (math.cbrt needs Python 3.11)."""
    return v ** (1.0 / 3.0)


def _threshold_root(inst: GameInstance, g0: float, xtol: float) -> float:
    """The root tau of M(tau) = d, where the jamming marginal falls from
    g0 > 0 at tau = sqrt(c) to a negative value at sqrt(c / (1 - PHI_MAX)).

    Newton's method solves ln M = ln d in v = tau^3, with the closed-form
    slope dM/dv = -2 f(tau) / 3, that is M'(tau) = -2 tau^2 f(tau). Near the
    origin M is nearly linear in tau^3 (M ~ variance - 2 f(0) tau^3 / 3),
    and in the tails ln M bends slowly, so the steps seldom fall short or
    overshoot. A step that leaves the bracket (or a density or tail moment
    that underflows far out) bisects the bracket geometrically instead. The
    search stops when a step changes v by at most xtol relative, which moves
    phi = 1 - c / tau^2 by less than xtol.
    """
    c, d, dist = inst.c, inst.d, inst.dist
    lo, hi = c**1.5, (c / (1.0 - PHI_MAX)) ** 1.5  # the bracket in v: M > d at lo, M < d at hi
    v, m = lo, g0 + d
    while True:
        f = dist._density(_cbrt(v))
        newton = v + 1.5 * m * math.log(m / d) / f if f > 0.0 and m > 0.0 else math.inf
        if abs(newton - v) <= xtol * v:
            v = newton
            break
        if lo < newton < hi:
            v = newton
        else:
            v = math.sqrt(lo * hi)
            if hi - lo <= xtol * lo or not lo < v < hi:
                break
        m = dist.tail_second_moment(_cbrt(v))
        if m == d:
            break
        if m > d:
            lo = v
        else:
            hi = v
    return _cbrt(v)


def solve_equilibrium(inst: GameInstance, xtol: float = 1e-10) -> NonSensingEquilibrium:
    """Closed-form equilibrium: regime split plus a monotone root-find.

    The jamming marginal decides the regime from two values: negative at
    phi = 0 means no jamming; still nonnegative at phi = PHI_MAX means the
    jammer always jams (phi_star = 1, value variance - d). Otherwise phi*
    = 1 - c / tau^2 at the root tau of M(tau) = d, found by safeguarded
    Newton steps on the threshold with the closed-form slope
    M'(tau) = -2 tau^2 f(tau); ``xtol`` bounds the last step in phi units.
    The reported threshold is that root, and the value is the objective of
    the rule it reports: silent on (-tau, tau) against phi*.
    No admissibility check runs here: every ``SourceDistribution`` is
    symmetric and unimodal by construction (a table is checked when built).
    """
    g0 = jam_marginal(inst, 0.0)
    regime = Regime.NO_JAM if g0 < 0.0 else Regime.INTERIOR_JAM
    phi, tau = 0.0, math.sqrt(inst.c)
    if g0 > 0.0:
        if jam_marginal(inst, PHI_MAX) >= 0.0:
            regime, phi = Regime.ALWAYS_JAM, 1.0
            tau = math.inf if inst.c > 0.0 else 0.0
        else:
            tau = _threshold_root(inst, g0, xtol)
            phi = 1.0 - inst.c / tau**2
    return NonSensingEquilibrium(
        phi_star=phi,
        xhat=(0.0, 0.0),
        threshold=tau,
        value=objective(inst, phi, (0.0, 0.0), silent=(-tau, tau)),
        regime=regime,
    )


@dataclass
class SaddleReport:
    """Verification of the saddle inequalities.

    The worst values are the raw excess of the jammer's endpoints phi = 0
    and 1 over the equilibrium value and the raw shortfall of the
    coordinator's grid deviations under it, with no allowance. ``ok``
    holds when neither exceeds tol plus the rounding allowance.
    """

    tol: float
    value: float
    worst_jammer_excess: float
    worst_coordinator_shortfall: float
    ok: bool


def verify_saddle(
    inst: GameInstance,
    eq: NonSensingEquilibrium,
    xhat_points: int = 101,
    tol: float = 1e-6,
) -> SaddleReport:
    """Check both saddle inequalities, the jammer side exactly.

    Jammer side: with the coordinator frozen at the equilibrium rule, A and
    B are affine in theta, so the objective is affine in phi and its
    maximum over all of [0, 1] is at phi = 0 or 1. Coordinator side: for
    each xhat0 on an ``xhat_points`` grid over [-3 scale, 3 scale] (the
    induced best-response threshold rule at phi_star, xhat1 = 0), the
    objective may not drop below the value. A deviation is flagged when it
    beats the value by more than tol plus the rounding allowance of
    ROUNDING_ULPS.
    """
    if not 0.0 <= eq.phi_star <= 1.0:
        raise ValueError("phi must lie in [0, 1]")
    span = 3.0 * inst.dist.scale
    magnitude = max(abs(eq.value), inst.dist.variance, inst.c, inst.d)
    slack = tol + ROUNDING_ULPS * math.ulp(1.0) * magnitude
    silent = (-eq.threshold, eq.threshold)
    excess = max(evaluate(inst, *eq.xhat, phi, phi, silent=silent)[0][0] - eq.value
                 for phi in (0.0, 1.0))
    shortfall = max((eq.value - evaluate(inst, x0, 0.0, eq.phi_star, eq.phi_star)[0][0]
                     for x0 in np.linspace(-span, span, xhat_points).tolist()),
                    default=-math.inf)
    return SaddleReport(
        tol=tol,
        value=eq.value,
        worst_jammer_excess=excess,
        worst_coordinator_shortfall=shortfall,
        ok=not (excess > slack or shortfall > slack),
    )
