"""Monte Carlo simulation of the sensor -> channel -> jammer -> estimator loop.

Draws measurements, applies a deterministic threshold transmission rule, a
(possibly reactive) Bernoulli jamming policy and the symbol estimator, and
aggregates the realized cost (X - Xhat)^2 + c U - d J with its standard
error. Randomness comes from a counter-based Philox stream with a fixed
two-uniforms-per-draw layout, so draw i depends only on (seed, i): the
draws, the event counts and the event trace are the same under any
chunking of the draw range, and a rerun is byte for byte the same. The
cost sums are taken chunk by chunk, so ``empirical_cost`` and ``std_error``
of two chunkings agree only to rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .nonsensing import GameInstance, NonSensingEquilibrium
from .reactive import ReactivePoint, objective_jtilde, transmit_region

TRACE_LIMIT = 10_000
# channel output of an event-trace row, by transmit + 2 * jam
_EVENT_TAGS = ("idle", "x", "B", "B")


class JamKind(Enum):
    NON_SENSING = "NonSensing"
    REACTIVE = "Reactive"


@dataclass(frozen=True)
class JamPolicy:
    """Blocking probabilities conditioned on the sensed action.

    A non-sensing jammer uses the same probability either way; the reactive
    jammer blocks an idle channel with probability alpha and a busy one
    with probability beta.
    """

    kind: JamKind
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("jamming probabilities must lie in [0, 1]")

    @classmethod
    def non_sensing(cls, phi: float) -> "JamPolicy":
        return cls(JamKind.NON_SENSING, phi, phi)

    @classmethod
    def reactive(cls, alpha: float, beta: float) -> "JamPolicy":
        return cls(JamKind.REACTIVE, alpha, beta)

    @property
    def phi(self) -> float:
        if self.kind is not JamKind.NON_SENSING:
            raise ValueError("phi is only defined for the non-sensing policy")
        return self.alpha


@dataclass(frozen=True)
class PolicyBundle:
    """Complete strategy profile fed to the simulator.

    The transmission rule is the threshold form: silent strictly inside
    (silent_lo, silent_hi), transmit outside; the estimator replays the
    received value on clean reception and falls back to the idle/blocked
    representation symbols otherwise.
    """

    silent_lo: float
    silent_hi: float
    jam: JamPolicy
    xhat: tuple[float, float]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.xhat):
            raise ValueError("estimator symbols must be finite")

    def transmit(self, x):
        x = np.asarray(x, dtype=float)
        return ~((x > self.silent_lo) & (x < self.silent_hi))

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "transmit": {"silent_lo": self.silent_lo, "silent_hi": self.silent_hi},
            "jam": {"kind": self.jam.kind.value, "alpha": self.jam.alpha, "beta": self.jam.beta},
            "estimator": {"xhat0": self.xhat[0], "xhat1": self.xhat[1]},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PolicyBundle":
        def pick(node, path, key, cast):
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"policy field missing or malformed: {path}.{key}")
            try:
                return cast(node[key])
            except (TypeError, ValueError):
                raise ValueError(f"policy field has wrong type: {path}.{key}")

        tr = payload.get("transmit")
        jam = payload.get("jam")
        est = payload.get("estimator")
        silent_lo = pick(tr, "transmit", "silent_lo", float)
        silent_hi = pick(tr, "transmit", "silent_hi", float)
        kind_raw = pick(jam, "jam", "kind", str)
        try:
            kind = JamKind(kind_raw)
        except ValueError:
            raise ValueError(f"policy field has wrong type: jam.kind ({kind_raw!r})")
        alpha = pick(jam, "jam", "alpha", float)
        beta = pick(jam, "jam", "beta", float)
        return cls(
            silent_lo=silent_lo,
            silent_hi=silent_hi,
            jam=JamPolicy(kind, alpha, beta),
            xhat=(pick(est, "estimator", "xhat0", float), pick(est, "estimator", "xhat1", float)),
        )


def bundle_from_nonsensing(eq: NonSensingEquilibrium) -> PolicyBundle:
    return PolicyBundle(
        silent_lo=-eq.threshold,
        silent_hi=eq.threshold,
        jam=JamPolicy.non_sensing(eq.phi_star),
        xhat=eq.xhat,
    )


def bundle_from_reactive(p: ReactivePoint, inst: GameInstance) -> PolicyBundle:
    lo, hi = transmit_region(p.xhat, p.theta, inst.c, inst.d).silent_interval()
    return PolicyBundle(
        silent_lo=lo,
        silent_hi=hi,
        jam=JamPolicy.reactive(*p.theta),
        xhat=p.xhat,
    )


@dataclass(frozen=True)
class SimResult:
    n: int
    empirical_cost: float
    std_error: float
    p_transmit: float
    p_jam: float
    event_counts: dict[tuple[int, int], int]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "empirical_cost": self.empirical_cost,
            "std_error": self.std_error,
            "p_transmit": self.p_transmit,
            "p_jam": self.p_jam,
            "event_counts": {f"u{u}_j{j}": c for (u, j), c in sorted(self.event_counts.items())},
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def simulate(
    inst: GameInstance,
    policies: PolicyBundle,
    n: int,
    seed: int,
    trace_path=None,
    chunk: int = 1 << 17,
) -> SimResult:
    """Run n independent rounds of the game and aggregate the realized cost.

    Per draw: sample X, transmit per the threshold rule, block with the
    action-conditional probability, estimate from the channel output, and
    account the quadratic error plus transmission/jamming costs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    x0, x1 = policies.xhat
    # picked by a 0/1 flag: the blocking probability by the transmit flag,
    # the symbol the receiver falls back to by the jam flag
    p_block = np.array([policies.jam.alpha, policies.jam.beta])
    symbol = np.array([x0, x1], dtype=float)
    total = 0.0
    total_sq = 0.0
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    trace_file = None
    traced = 0
    if trace_path is not None:
        trace_file = open(trace_path, "w", newline="")
        trace_file.write("x,u,j,y,xhat,cost\n")

    try:
        done = 0
        while done < n:
            m = min(chunk, n - done)
            u = rng.random((m, 2))
            np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
            x = np.asarray(inst.dist.ppf(u[:, 0]), dtype=float)
            tx = policies.transmit(x)
            jam = u[:, 1] < p_block.take(tx.view(np.uint8))
            # x - xhat: the fallback symbol's error, times 0 on a clean
            # reception, where the receiver replays x; squared it is the
            # same +0.0 as x - x
            cost = x - symbol.take(jam.view(np.uint8))
            cost *= jam | ~tx
            np.square(cost, out=cost)
            cost += inst.c * tx
            cost -= inst.d * jam

            total += float(np.sum(cost))
            total_sq += float(np.sum(cost * cost))
            n_tx, n_jam, n_both = (int(np.count_nonzero(b)) for b in (tx, jam, tx & jam))
            counts[(1, 1)] += n_both
            counts[(1, 0)] += n_tx - n_both
            counts[(0, 1)] += n_jam - n_both
            counts[(0, 0)] += m - n_tx - n_jam + n_both

            if trace_file is not None and traced < TRACE_LIMIT:
                take = min(TRACE_LIMIT - traced, m)
                t, j = tx[:take], jam[:take]
                xhat = np.where(j, x1, np.where(t, x[:take], x0))
                # str of a Python float is its repr
                trace_file.write("".join(
                    f"{xv!r},{tv},{jv},{_EVENT_TAGS[tv + 2 * jv]},{hv!r},{cv!r}\n"
                    for xv, tv, jv, hv, cv in zip(
                        x[:take].tolist(), t.view(np.uint8).tolist(), j.view(np.uint8).tolist(),
                        xhat.tolist(), cost[:take].tolist(),
                    )
                ))
                traced += take
            done += m
    finally:
        if trace_file is not None:
            trace_file.close()

    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    n_tx = counts[(1, 0)] + counts[(1, 1)]
    n_jam = counts[(0, 1)] + counts[(1, 1)]
    return SimResult(
        n=n,
        empirical_cost=mean,
        std_error=math.sqrt(var / n),
        p_transmit=n_tx / n,
        p_jam=n_jam / n,
        event_counts=counts,
    )


def analytic_cost(inst: GameInstance, bundle: PolicyBundle) -> float | None:
    """Analytic objective for a bundle when its structure admits one.

    Non-sensing bundles evaluate the fixed-rule objective; reactive bundles
    evaluate the reduced minimax objective at the matching point when the
    stored silent interval agrees with the best-response region (otherwise
    None: the bundle is off the reduced-form manifold).
    """
    from .nonsensing import TransmitRule, fixed_policy_objective

    if bundle.jam.kind is JamKind.NON_SENSING:
        rule = TransmitRule(bundle.silent_lo, bundle.silent_hi)
        return fixed_policy_objective(inst, rule, bundle.xhat, bundle.jam.phi)

    p = ReactivePoint(bundle.xhat, (bundle.jam.alpha, bundle.jam.beta))
    lo, hi = transmit_region(p.xhat, p.theta, inst.c, inst.d).silent_interval()
    stored = (bundle.silent_lo, bundle.silent_hi)
    if all(
        (math.isinf(a) and math.isinf(b) and a == b) or abs(a - b) <= 1e-9 * max(1.0, abs(a))
        for a, b in zip((lo, hi), stored)
    ):
        return objective_jtilde(inst, p)
    return None
