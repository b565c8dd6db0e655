"""Minimax machinery for the channel-sensing (reactive) jammer.

The jammer observes the sensor's action and blocks with probability alpha
when the channel is idle and beta when it is busy. After the sensor best
responds, the game reduces to min over the representation symbols xhat of
max over theta = (alpha, beta) in the unit box of

    Jt(xhat, theta) = E[min{A(X), B(X)}],
    A(x) = beta (x - xhat1)^2 + c - d beta            (transmit branch)
    B(x) = alpha (x - xhat1)^2 + (1 - alpha)(x - xhat0)^2 - d alpha,

which is concave in theta but nonconvex in xhat. Solvers target approximate
first-order Nash equilibria: small gradient norm on the xhat side and a
small box-LP ascent gap on the theta side. The primary solver alternates
projected gradient ascent on theta with a convex-concave step on xhat built
from the split Jt = F - G (F a closed-form quadratic, G a convex
expectation of a max of quadratics), and every POLISH_EVERY iterations
tries a Newton jump to a certified point of the current theta face; a
two-timescale gradient descent-ascent baseline shares the termination
contract. Every expectation is exact: the branch costs are quadratics in
x, so each one is a coefficient row dotted with the truncated moments of
the density over the whole line and over the one silent interval. One
public kernel, ``evaluate``, returns them all at a point: the value and
gradient rows of Jt and of G. The solvers, ``certify_fne``,
``nonsensing.objective`` and ``simulate.analytic_cost`` read their
numbers off those rows, and the Newton jump also reads Jt's exact
Hessian from the same moments (``_second_order``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dist import SourceDistribution

# PGA-CCP tries a jump every this many iterations, solving for it by
# projected Newton on the exact Hessian (``_newton_jump``)
POLISH_EVERY = 10
# the jump's Newton steps per face, largest theta step and halvings of a
# step that does not reduce the residual norm; it stops at a residual norm
# of NEWTON_RES_TOL epsilon or a step of NEWTON_XTOL (MINPACK's default)
# relative to the point
NEWTON_STEPS, NEWTON_THETA_STEP, NEWTON_HALVINGS = 20, 0.1, 8
NEWTON_RES_TOL, NEWTON_XTOL = 1e-3, 1.49012e-8
# a solve stalls after STALL_ITERS iterations in a row that each move the
# point (xhat, theta) by less than STALL_TOL
STALL_TOL = 1e-12
STALL_ITERS = 50


@dataclass(frozen=True)
class GameInstance:
    """Immutable problem statement: a source density plus the two costs.

    ``c`` is paid per transmission by the coordinator, ``d`` per blocking
    action by the jammer.
    """

    dist: SourceDistribution
    c: float
    d: float

    def __post_init__(self):
        if not (0.0 <= self.c < math.inf and 0.0 <= self.d < math.inf):
            raise ValueError("costs c and d must be finite and nonnegative")


@dataclass(frozen=True)
class ReactivePoint:
    """Candidate strategy pair: representation symbols and jamming probs."""

    xhat: tuple[float, float]
    theta: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "xhat", tuple(float(v) for v in self.xhat))
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        a, b = self.theta
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError("theta must lie in the unit box")
        if not all(math.isfinite(v) for v in self.xhat):
            raise ValueError("xhat must be finite")

    def mirrored(self) -> "ReactivePoint":
        return ReactivePoint((-self.xhat[0], -self.xhat[1]), self.theta)


def silent_interval(
    xhat: tuple[float, float], theta: tuple[float, float], c: float, d: float
) -> tuple[float, float]:
    """The open interval on which the best-responding sensor stays silent.

    The sensor transmits where D(x) = silent cost - transmit cost =
    a2 x^2 + a1 x + a0 is >= 0 (ties transmit, a measure-zero convention).
    The leading coefficient a2 = 1 - beta is >= 0, so for beta < 1 the
    silent set lies between the two real roots, if any; for beta = 1 D is a
    line and the silent set a half-line, or D is constant. An empty silent
    set is (0.0, 0.0) and an empty transmit set (-inf, inf).
    """
    x0, x1 = xhat
    a, b = theta
    a2 = 1.0 - b
    a1 = -2.0 * ((a - b) * x1 + (1.0 - a) * x0)
    a0 = (a - b) * x1 * x1 + (1.0 - a) * x0 * x0 - c + d * (b - a)

    if a2 > 0.0:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc > 0.0:
            # stable quadratic formula: avoid cancellation in the small root
            q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1 if a1 != 0 else 1.0))
            r1, r2 = q / a2, (a0 / q if q != 0.0 else -a1 / a2)
            return (r2, r1) if r2 < r1 else (r1, r2)  # as sorted() orders them
        return (0.0, 0.0)
    if a1 != 0.0:
        r = -a0 / a1
        return (-math.inf, r) if a1 > 0 else (r, math.inf)
    return (0.0, 0.0) if a0 >= 0.0 else (-math.inf, math.inf)


def _cost_rows(x0: float, x1: float, a: float, b: float, c: float, d: float):
    """Coefficient rows over (1, x, x^2) of the transmit cost A and the silent
    cost B and of their derivatives, laid out as ``evaluate``'s rows.

    Python floats overflow to inf without a warning, so this raises
    FloatingPointError first where a coefficient would: with theta in the
    unit box, every one is finite when x0^2 + x1^2 + c + d is."""
    if not math.isfinite(x0 * x0 + x1 * x1 + c + d):
        raise FloatingPointError(f"cost coefficients overflow at xhat={(x0, x1)!r}")
    q_a = (
        (b * x1 * x1 + c - d * b, -2.0 * b * x1, b),
        (0.0, 0.0, 0.0),
        (2.0 * b * x1, -2.0 * b, 0.0),
        (0.0, 0.0, 0.0),
        (x1 * x1 - d, -2.0 * x1, 1.0),
    )
    q_b = (
        (a * x1 * x1 + (1.0 - a) * x0 * x0 - d * a, -2.0 * (a * x1 + (1.0 - a) * x0), 1.0),
        (2.0 * (1.0 - a) * x0, -2.0 * (1.0 - a), 0.0),
        (2.0 * a * x1, -2.0 * a, 0.0),
        (x1 * x1 - x0 * x0 - d, 2.0 * (x0 - x1), 0.0),
        (0.0, 0.0, 0.0),
    )
    return q_a, q_b


def evaluate(
    inst: GameInstance, x0: float, x1: float, a: float, b: float,
    silent: tuple[float, float] | None = None,
) -> tuple[list[float], list[float]]:
    """Every expectation of the game at xhat = (x0, x1), theta = (a, b):
    the rows [value, d/dxhat0, d/dxhat1, d/dalpha, d/dbeta] of the reduced
    objective Jt = E[min(A, B)] and of G = E[max(A, B)], the convex part of
    the split Jt = F - G with F = E[A] + E[B] = jt_row[0] + g_row[0].

    The transmit cost A, the silent cost B and their derivatives are
    quadratics in x, held as coefficient rows over (1, x, x^2). On the
    silent interval S the sensor pays B, elsewhere A, so
    Jt = E[A] + E[B - A; S] and G = E[B] - E[B - A; S]. The derivatives
    split the same way (S moves only where A = B), so every entry is a
    coefficient row dotted with the full-line moments or the moments of S.
    S is ``silent_interval`` of the point unless ``silent`` replaces it with
    a frozen rule's ``(lo, hi)``. The caller passes floats with theta in the
    unit box (``ReactivePoint`` checks outside input). The finite checks
    (``_cost_rows``'s first) raise FloatingPointError before anything
    non-finite reaches numpy.
    """
    c, d = inst.c, inst.d
    q_a, q_b = _cost_rows(x0, x1, a, b, c, d)
    if silent is None:
        silent = silent_interval((x0, x1), (a, b), c, d)
    f0, f1, f2 = inst.dist.full_moments
    s0, s1, s2 = inst.dist.partial_moments(*silent)
    jt: list[float] = []
    g: list[float] = []
    for (a0, a1, a2), (b0, b1, b2) in zip(q_a, q_b):
        on_silent = (b0 - a0) * s0 + (b1 - a1) * s1 + (b2 - a2) * s2
        jt.append(a0 * f0 + a1 * f1 + a2 * f2 + on_silent)
        g.append(b0 * f0 + b1 * f1 + b2 * f2 - on_silent)
    if not all(map(math.isfinite, jt + g)):
        raise FloatingPointError(
            f"non-finite objective or gradient at xhat={(x0, x1)!r}, theta={(a, b)!r}"
        )
    return jt, g


def _second_order(inst: GameInstance, x0: float, x1: float, a: float,
                  b: float) -> tuple[list[float], list[list[float]]]:
    """Jt's row at (x0, x1, a, b), bit for bit ``evaluate``'s, and its
    Hessian in z = (x0, x1, alpha, beta), from the same moments.

    The costs' nonzero second derivatives are d2A/dx1^2 = 2 beta,
    d2A/dx1 dbeta = -2 (x - x1), d2B/dx0^2 = 2 (1 - alpha), d2B/dx0 dalpha =
    2 (x - x0), d2B/dx1^2 = 2 alpha and d2B/dx1 dalpha = -2 (x - x1). The
    silent interval S moves through its finite ends r, the roots of D = B - A
    (the rows of B - A at x = r are grad D(r)), at dr/dz = -grad D(r) / D'(r),
    so H = E[d2A] + E[d2D; S] - sum_r f(r) / |D'(r)| grad D(r) grad D(r)^T.
    The moments of S and the densities f(r) come from one
    ``_moments_and_ends`` call, on a table one pass over its moment table.
    """
    c, d = inst.c, inst.d
    q_a, q_b = _cost_rows(x0, x1, a, b, c, d)
    lo, hi = silent_interval((x0, x1), (a, b), c, d)
    f0, f1, f2 = inst.dist.full_moments
    (s0, s1, s2), f_lo, f_hi = inst.dist._moments_and_ends(lo, hi)
    q_d = [(b0 - a0, b1 - a1, b2 - a2) for (a0, a1, a2), (b0, b1, b2) in zip(q_a, q_b)]
    jt = [a0 * f0 + a1 * f1 + a2 * f2 + (e0 * s0 + e1 * s1 + e2 * s2)
          for (a0, a1, a2), (e0, e1, e2) in zip(q_a, q_d)]
    # E[d2D/dx0 dalpha; S], E[d2D/dx1 dalpha; S] and E[d2A/dx1 dbeta; not S]
    m0, m1 = 2.0 * (s1 - x0 * s0), -2.0 * (s1 - x1 * s0)
    m2 = -2.0 * (f1 - x1 * f0) - m1
    h = [[2.0 * (1.0 - a) * s0, 0.0, m0, 0.0],
         [0.0, 2.0 * b * f0 + 2.0 * (a - b) * s0, m1, m2],
         [m0, m1, 0.0, 0.0],
         [0.0, m2, 0.0, 0.0]]
    (_, e1, e2), *rows = q_d
    for r, f in ((lo, f_lo), (hi, f_hi)) if lo < hi else ():
        if math.isfinite(r):
            g0, g1, g2, g3 = [r0 + (r1 + r2 * r) * r for r0, r1, r2 in rows]
            w = f / abs(e1 + 2.0 * e2 * r)
            for row, wg in zip(h, (w * g0, w * g1, w * g2, w * g3)):
                row[:] = row[0] - wg * g0, row[1] - wg * g1, row[2] - wg * g2, row[3] - wg * g3
    if not math.isfinite(sum(jt) + sum(map(sum, h))):
        raise FloatingPointError(f"non-finite Hessian at xhat={(x0, x1)!r}, theta={(a, b)!r}")
    return jt, h


def _ascend(t: float, q: float, step: float) -> float:
    """One coordinate of the projected ascent step, rounded as ``np.clip``
    rounds it (a -0.0 and a nan pass through)."""
    return min(max(t + step * q, 0.0), 1.0)


def _ccp_xhat(g: list[float], a: float, b: float) -> tuple[float, float]:
    """The convex-concave update of xhat from the row of G at (xhat, theta).

    Minimizes F minus the linearization of G at the current xhat; F is a
    diagonal quadratic, so the minimizer is the pseudo-inverse solve
    xhat' = Adagger(theta) grad G, with the singular directions (alpha = 1,
    or alpha + beta = 0) pinned to 0.
    """
    new0 = g[1] / (2.0 * (1.0 - a)) if a < 1.0 else 0.0
    new1 = g[2] / (2.0 * (a + b)) if a + b > 0.0 else 0.0
    return new0, new1


@dataclass(frozen=True)
class FneCertificate:
    """First-order equilibrium residuals at a point.

    ``grad_norm`` is the Euclidean norm of the xhat-gradient; ``lp_gap`` is
    the exact maximum of <dJt/dtheta, theta' - theta> over the unit box
    (coordinate-separable, so solved at the box edges).
    """

    grad_norm: float
    lp_gap: float
    epsilon: float
    certified: bool


def certify_fne(inst: GameInstance, p: ReactivePoint, epsilon: float) -> FneCertificate:
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    jt = evaluate(inst, *p.xhat, *p.theta)[0]
    grad_norm, gap, certified = _residuals(jt, *p.theta, epsilon)
    return FneCertificate(grad_norm, gap, epsilon, certified)


def _residuals(jt: list[float], a: float, b: float, epsilon: float) -> tuple[float, float, bool]:
    """grad_norm, lp_gap and certified of an ``FneCertificate`` from Jt's row
    at theta = (a, b). The gap adds each coordinate's gain at its better box
    edge to 0.0, so a gap whose two terms are -0.0 reads 0.0."""
    grad_norm = math.hypot(jt[1], jt[2])
    qa, qb = jt[3], jt[4]
    gap = 0.0 + max(qa * (0.0 - a), qa * (1.0 - a)) + max(qb * (0.0 - b), qb * (1.0 - b))
    return grad_norm, gap, grad_norm <= epsilon and gap <= epsilon


class Termination(Enum):
    EPSILON_FNE = "EpsilonFNE"
    MAX_ITERS = "MaxIters"
    STALLED = "Stalled"


@dataclass(frozen=True)
class TraceRow:
    k: int
    xhat0: float
    xhat1: float
    alpha: float
    beta: float
    objective: float
    grad_xhat_norm: float
    lp_gap: float
    step_size: float
    ccp_descent: float  # Jt(x', th') - Jt(x, th'); NaN for GDA rows


@dataclass
class SolverTrace:
    """What a solve did: one row per iteration plus row 0 (when recorded),
    the iteration count, why it stopped, and the iteration after which it
    jumped to a Newton-polished point (None when it did not)."""

    rows: list[TraceRow] = field(default_factory=list)
    terminated_by: Termination = Termination.MAX_ITERS
    iterations: int = 0
    polished_at: int | None = None


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by both solvers.

    ``step_size`` drives the theta-ascent; ``descent_step`` is only used by
    the GDA baseline (its xhat gradient step, kept an order of magnitude
    smaller for two-timescale stability).
    """

    step_size: float = 0.1
    descent_step: float = 0.01
    epsilon: float = 1e-5
    max_iters: int = 100_000
    record_trace: bool = True

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not (0 < self.step_size < math.inf and 0 < self.descent_step < math.inf):
            raise ValueError("step sizes must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


def default_init(inst: GameInstance) -> ReactivePoint:
    """Asymmetric default start: the symmetric point xhat = (0, 0) is a
    stationary trap (both xhat gradients vanish by symmetry)."""
    s = inst.dist.scale
    return ReactivePoint((s, -s), (0.5, 0.5))


def _canonical(inst: GameInstance, p: ReactivePoint, cert: FneCertificate) -> tuple[ReactivePoint, FneCertificate]:
    # report the mirror representative with xhat0 > 0
    if p.xhat[0] < 0.0:
        mirrored = p.mirrored()
        return mirrored, certify_fne(inst, mirrored, cert.epsilon)
    return p, cert


def _newton_jump(inst: GameInstance, p: ReactivePoint, q: tuple[float, float],
                 epsilon: float) -> tuple[ReactivePoint, list[float]] | None:
    """Solve the first-order system of p's theta face, starting from p.

    The unknowns are xhat and the theta coordinates strictly inside (0, 1);
    coordinates at a bound stay there. If that does not give a certified
    point, each free coordinate in turn is fixed at the bound its gradient
    ``q`` points to. Each face takes projected Newton steps on the exact
    Hessian (``_second_order``): theta stays in the box, an unknown sits
    out a step while it is at a bound and its gradient points out of the
    box, a theta step is at most NEWTON_THETA_STEP, a singular system (x1
    drops out at alpha = beta = 0) takes the least-squares step, and the
    step is halved until the residual norm falls. Returns the first face
    point that certifies at ``epsilon``, with its row of Jt, or None.
    """
    free = [i for i in (0, 1) if 0.0 < p.theta[i] < 1.0]
    faces = [{}] + [{i: 1.0 if q[i] > 0.0 else 0.0} for i in free]

    def active(face: list[int], z: list[float], jt: list[float]) -> tuple[list[int], float]:
        # the face's unknowns less those at a bound whose gradient jt[1 + j]
        # points out of the box, and the norm of the residual over them
        unknown = [j for j in face if j < 2 or 0.0 < z[j] < 1.0
                   or (jt[1 + j] > 0.0) == (z[j] == 0.0)]
        return unknown, math.hypot(*[jt[1 + j] for j in unknown])

    for fixed in faces:
        z = [*p.xhat] + [fixed.get(i, p.theta[i]) for i in (0, 1)]
        face = [0, 1] + [2 + i for i in free if i not in fixed]
        try:
            jt, h = _second_order(inst, *z)
            unknown, norm = active(face, z, jt)
            for _ in range(NEWTON_STEPS):
                if norm <= NEWTON_RES_TOL * epsilon:
                    break
                sub = [[h[i][j] for j in unknown] for i in unknown]
                res = [-jt[1 + j] for j in unknown]
                try:
                    step = np.linalg.solve(sub, res).tolist()
                except np.linalg.LinAlgError:
                    step = np.linalg.lstsq(sub, res, rcond=None)[0].tolist()
                cap = max([abs(v) for j, v in zip(unknown, step) if j >= 2], default=0.0)
                t = min(1.0, NEWTON_THETA_STEP / cap) if cap > 0.0 else 1.0
                for _ in range(NEWTON_HALVINGS + 1):
                    trial = list(z)
                    for j, v in zip(unknown, step):
                        trial[j] = z[j] + t * v if j < 2 else min(max(z[j] + t * v, 0.0), 1.0)
                    jt_t, h_t = _second_order(inst, *trial)
                    unknown_t, norm_t = active(face, trial, jt_t)
                    if norm_t < norm:
                        break
                    t *= 0.5
                else:
                    break
                moved = math.dist(z, trial)
                z, jt, h, unknown, norm = trial, jt_t, h_t, unknown_t, norm_t
                if moved <= NEWTON_XTOL * math.hypot(*z):
                    break
            if _residuals(jt, z[2], z[3], epsilon)[2]:
                return ReactivePoint((z[0], z[1]), (z[2], z[3])), jt
        except (ValueError, ArithmeticError):  # the iterate left the finite domain
            continue
    return None


def _solve(inst: GameInstance, init: ReactivePoint | None, opts: SolverOptions | None,
           ccp: bool) -> tuple[ReactivePoint, SolverTrace, FneCertificate]:
    """The loop both solvers share: a projected ascent step on theta, then
    a CCP step (``ccp``) or a gradient descent step on xhat. Only PGA-CCP
    records the CCP descent and tries the Newton jump.

    The iterate is carried as the floats x0, x1, a, b and its residuals as
    the values of ``_residuals``, which ``certify_fne`` also reads; one
    ``FneCertificate`` is built at return. The evaluation at (xhat, theta')
    that gives the CCP step (or GDA's gradient) also gives Jt(xhat, theta'),
    the start of the recorded CCP descent. A ``ReactivePoint`` is made only
    for the jump start and the returned point; for a nan theta or an
    infinite xhat the loop raises the ValueError that one would.
    """
    opts = opts or SolverOptions()
    p = init or default_init(inst)
    (x0, x1), (a, b) = p.xhat, p.theta
    eps, step = opts.epsilon, opts.step_size
    trace = SolverTrace()
    jt = evaluate(inst, x0, x1, a, b)[0]
    grad_norm, gap, certified = _residuals(jt, a, b, eps)
    no_descent = 0.0 if ccp else math.nan
    if opts.record_trace:
        trace.rows.append(TraceRow(0, x0, x1, a, b, jt[0], grad_norm, gap, 0.0, no_descent))
    best = (max(grad_norm, gap), x0, x1, a, b, jt[3], jt[4])
    stall_count = 0
    k = 0
    while not certified and k < opts.max_iters:
        k += 1
        a_new, b_new = _ascend(a, jt[3], step), _ascend(b, jt[4], step)
        if a_new != a_new or b_new != b_new:
            raise ValueError("theta must lie in the unit box")
        jt_mid, g = evaluate(inst, x0, x1, a_new, b_new)
        if ccp:
            n0, n1 = _ccp_xhat(g, a_new, b_new)
        else:
            n0, n1 = x0 - opts.descent_step * jt_mid[1], x1 - opts.descent_step * jt_mid[2]
        if not (math.isfinite(n0) and math.isfinite(n1)):
            raise ValueError("xhat must be finite")
        jt = evaluate(inst, n0, n1, a_new, b_new)[0]
        grad_norm, gap, certified = _residuals(jt, a_new, b_new, eps)
        if opts.record_trace:
            descent = jt[0] - jt_mid[0] if ccp else math.nan
            trace.rows.append(TraceRow(k, n0, n1, a_new, b_new, jt[0], grad_norm, gap,
                                       step, descent))
        moved = math.dist((x0, x1, a, b), (n0, n1, a_new, b_new))
        x0, x1, a, b = n0, n1, a_new, b_new
        if certified:
            break
        stall_count = stall_count + 1 if moved < STALL_TOL else 0
        if stall_count >= STALL_ITERS:
            trace.terminated_by = Termination.STALLED
            break
        if not ccp:
            continue
        score = max(grad_norm, gap)
        if score < best[0]:
            best = (score, x0, x1, a, b, jt[3], jt[4])
        if k % POLISH_EVERY == 0 and k < opts.max_iters:
            jumped = _newton_jump(inst, ReactivePoint(best[1:3], best[3:5]), best[5:], eps)
            if jumped is not None:
                landed, jt = jumped
                (x0, x1), (a, b) = landed.xhat, landed.theta
                trace.polished_at = k

    trace.iterations = k
    p = ReactivePoint((x0, x1), (a, b))
    cert = FneCertificate(grad_norm, gap, eps, certified)
    if certified:
        trace.terminated_by = Termination.EPSILON_FNE
        p, cert = _canonical(inst, p, cert)
    return p, trace, cert


def solve_pga_ccp(
    inst: GameInstance,
    init: ReactivePoint | None = None,
    opts: SolverOptions | None = None,
) -> tuple[ReactivePoint, SolverTrace, FneCertificate]:
    """Alternate projected gradient ascent on theta with CCP steps on xhat.

    Every POLISH_EVERY iterations the solver solves the first-order system
    of the best iterate's theta face by projected Newton on the exact
    Hessian of Jt (``_newton_jump``), and jumps to the result when it
    certifies and an iteration remains; that next ordinary iteration then
    certifies it, and ``trace.polished_at`` records the jump. Runs until
    the epsilon-FNE conditions hold, the iteration budget is exhausted, or
    the iterates stall; non-certified termination is reported through the
    certificate, not an exception.
    When certified, the returned point is the xhat0 > 0 mirror
    representative (an equally certified equilibrium under a symmetric
    density); the trace keeps the raw trajectory.
    """
    return _solve(inst, init, opts, ccp=True)


def solve_gda(
    inst: GameInstance,
    init: ReactivePoint | None = None,
    opts: SolverOptions | None = None,
) -> tuple[ReactivePoint, SolverTrace, FneCertificate]:
    """Two-timescale gradient descent-ascent baseline.

    Projected ascent on theta with ``step_size``, plain descent on xhat with
    ``descent_step``; same termination contract as the primary solver, and
    no Newton jump. With equal step sizes the iterates can cycle, in which
    case termination is by stall detection or the iteration budget.
    """
    return _solve(inst, init, opts, ccp=False)
