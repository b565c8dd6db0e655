"""Monte Carlo simulation of the sensor -> channel -> jammer -> estimator loop.

Draws measurements, applies a deterministic threshold transmission rule, a
(possibly reactive) Bernoulli jamming policy and the symbol estimator, and
aggregates the realized cost (X - Xhat)^2 + c U - d J with its standard
error. Randomness comes from a counter-based Philox stream with a fixed
two-uniforms-per-draw layout, so draw i depends only on (seed, i), and a
rerun is byte for byte the same.

The draws are worked through in leaves of LEAF draws (the last one
shorter), in buffers allocated once per call, so memory does not grow with
``n``. Each leaf's cost sums come from ``np.sum`` and are added to the
totals in draw order; an in-order sum of n / LEAF pairwise-summed leaves
errs by about n / LEAF float epsilons relative, far below one standard
error. A different LEAF leaves the draws, the event counts and the traced
draws as they are and moves ``empirical_cost`` and ``std_error`` only in
their last bits. The module opens no file: the command line formats the
draws handed to a trace sink as its event-trace CSV.

The draws run one leaf ahead on a helper thread: while the calling thread
inverts, tallies and hands on leaf k, the helper fills leaf k + 1 from the
stream. NumPy and SciPy release the interpreter lock in the Philox fill and
in the array kernels of the inverse CDFs, so the two overlap on two cores.
The helper is the only user of the generator and draws the leaves in
order, and the sums are added on the calling thread in leaf order, so no
output depends on thread timing.

The package exports the function ``simulate`` under this module's name:
``import jamgame.simulate as m`` binds the function. Reach the module with
``importlib.import_module("jamgame.simulate")``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .nonsensing import NonSensingEquilibrium
from .reactive import GameInstance, ReactivePoint, evaluate, silent_interval

TRACE_LIMIT = 10_000
# draws worked on, and summed, at a time
LEAF = 1 << 14


@dataclass(frozen=True)
class PolicyBundle:
    """Complete strategy profile fed to the simulator.

    The transmission rule is the threshold form: silent strictly inside
    (silent_lo, silent_hi), transmit outside. The jammer blocks an idle
    channel with probability alpha and a busy one with probability beta;
    ``kind`` is "Reactive", or "NonSensing" for a jammer that cannot sense
    the channel and so has one probability, alpha == beta. The estimator
    replays the received value on clean reception and falls back to the
    idle/blocked representation symbols ``xhat`` otherwise.
    """

    silent_lo: float
    silent_hi: float
    alpha: float
    beta: float
    xhat: tuple[float, float]
    kind: str

    def __post_init__(self):
        if self.kind not in ("NonSensing", "Reactive"):
            raise ValueError(f"unknown jammer kind {self.kind!r}: "
                             "expected 'NonSensing' or 'Reactive'")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("jamming probabilities must lie in [0, 1]")
        if self.kind == "NonSensing" and self.alpha != self.beta:
            raise ValueError("a non-sensing jammer has one blocking probability: alpha == beta")
        if math.isnan(self.silent_lo) or math.isnan(self.silent_hi):
            raise ValueError("silent interval bounds must not be NaN")
        if not all(math.isfinite(v) for v in self.xhat):
            raise ValueError("estimator symbols must be finite")

    def transmit(self, x):
        x = np.asarray(x, dtype=float)
        return ~((x > self.silent_lo) & (x < self.silent_hi))


def bundle_from_nonsensing(eq: NonSensingEquilibrium) -> PolicyBundle:
    return PolicyBundle(-eq.threshold, eq.threshold, eq.phi_star, eq.phi_star, eq.xhat, "NonSensing")


def bundle_from_reactive(p: ReactivePoint, inst: GameInstance) -> PolicyBundle:
    lo, hi = silent_interval(p.xhat, p.theta, inst.c, inst.d)
    return PolicyBundle(lo, hi, *p.theta, p.xhat, "Reactive")


@dataclass(frozen=True)
class SimResult:
    n: int
    empirical_cost: float
    std_error: float
    p_transmit: float
    p_jam: float
    event_counts: dict[tuple[int, int], int]


def _fill(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """The next len(u) draws' two uniforms, written into u and kept off 0
    and 1 for the inverse CDF."""
    rng.random(out=u)
    np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
    return u


def _prefetched(helper: ThreadPoolExecutor, rng: np.random.Generator, sizes):
    """The uniforms of each leaf in turn, from a two-buffer ring: while the
    caller works on one buffer, the helper fills the other with the next
    leaf. A buffer is refilled only after the caller asked for the leaf
    after the one it held."""
    ring = np.empty((2, LEAF, 2))
    pending = helper.submit(_fill, rng, ring[0, :next(sizes)])
    for k, size in enumerate(sizes, 1):
        u = pending.result()
        pending = helper.submit(_fill, rng, ring[k % 2, :size])
        yield u
    yield pending.result()


def _leaf_sums(inst: GameInstance, policies: PolicyBundle, draws, counts: dict, trace):
    """(sum of cost, sum of squared cost) of each leaf of uniforms in
    ``draws``, adding its events to ``counts`` and calling ``trace(x, tx,
    jam, cost)`` with the leaf's share of the first TRACE_LIMIT draws
    (None: no trace).

    Every array but the inverse CDF's output and the transmit mask is a
    buffer of LEAF elements allocated once.
    """
    # picked by a 0/1 flag: the blocking probability by the transmit flag,
    # the symbol the receiver falls back to by the jam flag
    p_block = np.array([policies.alpha, policies.beta])
    symbol = np.array(policies.xhat, dtype=float)
    cost_buf, term_buf = np.empty(LEAF), np.empty(LEAF)
    jam_buf, mask_buf = np.empty(LEAF, dtype=bool), np.empty(LEAF, dtype=bool)
    done = 0
    for u in draws:
        m = len(u)
        cost, term, jam, mask = cost_buf[:m], term_buf[:m], jam_buf[:m], mask_buf[:m]
        x = np.asarray(inst.dist.ppf(u[:, 0]), dtype=float)
        tx = policies.transmit(x)
        np.less(u[:, 1], p_block.take(tx.view(np.uint8), out=term), out=jam)
        # x - xhat: the fallback symbol's error, times 0 on a clean
        # reception, where the receiver replays x; squared it is the same
        # +0.0 as x - x
        np.subtract(x, symbol.take(jam.view(np.uint8), out=cost), out=cost)
        cost *= np.logical_or(jam, np.logical_not(tx, out=mask), out=mask)
        np.square(cost, out=cost)
        cost += np.multiply(inst.c, tx, out=term)
        cost -= np.multiply(inst.d, jam, out=term)

        n_tx, n_jam = int(np.count_nonzero(tx)), int(np.count_nonzero(jam))
        n_both = int(np.count_nonzero(np.logical_and(tx, jam, out=mask)))
        counts[(1, 1)] += n_both
        counts[(1, 0)] += n_tx - n_both
        counts[(0, 1)] += n_jam - n_both
        counts[(0, 0)] += m - n_tx - n_jam + n_both

        if trace is not None and done < TRACE_LIMIT:
            take = min(TRACE_LIMIT - done, m)
            trace(x[:take], tx[:take], jam[:take], cost[:take])
        done += m
        yield float(np.sum(cost)), float(np.sum(np.multiply(cost, cost, out=term)))


def simulate(inst: GameInstance, policies: PolicyBundle, n: int, seed: int,
             trace=None) -> SimResult:
    """Run n independent rounds of the game and aggregate the realized cost.

    Per draw: draw X, transmit per the threshold rule, block with the
    action-conditional probability, estimate from the channel output, and
    account the quadratic error plus transmission/jamming costs.

    The draws are worked through in leaves of LEAF draws, so memory is
    bounded by the leaf size whatever ``n`` is. Each leaf is summed with
    ``np.sum`` and the leaf sums are added in draw order.

    The uniforms of the next leaf are drawn on one helper thread while
    this one works on the current leaf. ``inst.dist.ppf`` and the tally
    stay on the calling thread: a density need not be thread-safe, and one
    that is wrapped or instrumented (a profiler's span stack, say) sees
    every call on the caller's thread. Only the helper uses the generator,
    in leaf order, so the result does not depend on thread timing. The
    helper is joined, and a draw not yet started is cancelled, before this
    function returns or raises. A ``trace`` sink is called on this thread
    with the views ``(x, tx, jam, cost)`` of each leaf's share of the first
    TRACE_LIMIT draws, valid only during the call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    sizes = (min(LEAF, n - done) for done in range(0, n, LEAF))
    total = total_sq = 0.0
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    helper = ThreadPoolExecutor(1)
    try:
        draws = _prefetched(helper, rng, sizes)
        for s, sq in _leaf_sums(inst, policies, draws, counts, trace):
            total += s
            total_sq += sq
    finally:
        helper.shutdown(wait=True, cancel_futures=True)

    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    n_tx = counts[(1, 0)] + counts[(1, 1)]
    n_jam = counts[(0, 1)] + counts[(1, 1)]
    return SimResult(n=n, empirical_cost=mean, std_error=math.sqrt(var / n),
                     p_transmit=n_tx / n, p_jam=n_jam / n, event_counts=counts)


def analytic_cost(inst: GameInstance, bundle: PolicyBundle) -> float:
    """The game value of the bundle, E[A; transmit] + E[B; silent]: the
    kernel's Jt at its symbols and blocking probabilities, with the sensor
    silent on the bundle's own interval, best response or not."""
    x0, x1 = map(float, bundle.xhat)
    a, b = float(bundle.alpha), float(bundle.beta)
    silent = (float(bundle.silent_lo), float(bundle.silent_hi))
    return evaluate(inst, x0, x1, a, b, silent=silent)[0][0]
