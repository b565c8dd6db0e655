"""Kink-aware adaptive Gauss-Kronrod quadrature.

The package integrates with it in one place: a tabulated density's
normalization check, which splits [-R, R] at the table's knots. The engine
splits the domain at an integrand's declared breakpoints and runs an
adaptive 15-point Kronrod / 7-point Gauss pair on each piece, bisecting
intervals until the summed error estimate meets the tolerance.

Evaluators must be numpy-vectorized; they may return one value per point or
a row of values per point (shape (n, m)), in which case all m components are
integrated over shared nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# 15-point Kronrod extension of 7-point Gauss-Legendre (QUADPACK dqk15).
_XGK = np.array([
    -0.99145537112081263921, -0.94910791234275852453, -0.86486442335976907279,
    -0.74153118559939443986, -0.58608723546769113029, -0.40584515137739716691,
    -0.20778495500789846760, 0.0,
    0.20778495500789846760, 0.40584515137739716691, 0.58608723546769113029,
    0.74153118559939443986, 0.86486442335976907279, 0.94910791234275852453,
    0.99145537112081263921,
])
_WGK = np.array([
    0.02293532201052922496, 0.06309209262997855329, 0.10479001032225018384,
    0.14065325971552591875, 0.16900472663926790283, 0.19035057806478540991,
    0.20443294007529889241, 0.20948214108472782801,
    0.20443294007529889241, 0.19035057806478540991, 0.16900472663926790283,
    0.14065325971552591875, 0.10479001032225018384, 0.06309209262997855329,
    0.02293532201052922496,
])
# Gauss nodes sit at the odd Kronrod positions.
_WG15 = np.zeros(15)
_WG15[[1, 3, 5, 9, 11, 13]] = [
    0.12948496616886969327, 0.27970539148927666790, 0.38183005050511894495,
    0.38183005050511894495, 0.27970539148927666790, 0.12948496616886969327,
]
_WG15[7] = 0.41795918367346938776

DEFAULT_TOL = 1e-10


class IntegrationError(ValueError):
    """Raised when the integrand returns a non-finite value."""


class AccuracyWarning(UserWarning):
    """Raised when the requested tolerance was not met within budget."""


class QuadResult(NamedTuple):
    value: float | np.ndarray
    error: float
    neval: int


@dataclass(frozen=True)
class PiecewiseIntegrand:
    """An integrand with known breakpoints on a finite domain.

    Parameters
    ----------
    evaluator : callable
        Vectorized map from abscissae (n,) to values (n,) or (n, m).
    kinks : sequence of float
        Breakpoints where the integrand switches branch. Points outside the
        domain are clipped away; duplicates are harmless.
    domain : (float, float)
        Integration interval.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    kinks: Sequence[float] = ()
    domain: tuple[float, float] = (-1.0, 1.0)

    def edges(self) -> np.ndarray:
        a, b = self.domain
        ks = np.asarray(sorted(set(float(k) for k in self.kinks)), dtype=float)
        ks = ks[(ks > a) & (ks < b)]
        return np.concatenate([[a], ks, [b]])


def _panel(evaluator, lo: np.ndarray, hi: np.ndarray):
    """Kronrod and Gauss estimates on a batch of intervals."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(evaluator(nodes.ravel()), dtype=float)
    if not np.all(np.isfinite(vals)):
        per_point = np.isfinite(vals.reshape(nodes.size, -1)).all(axis=1)
        x_bad = float(nodes.ravel()[np.flatnonzero(~per_point)[0]])
        raise IntegrationError(f"integrand returned a non-finite value at x = {x_bad!r}")
    ncomp = 1 if vals.ndim == 1 else vals.shape[-1]
    vals = vals.reshape(nodes.shape[0], nodes.shape[1], ncomp)
    kron = np.einsum("j,ijc->ic", _WGK, vals) * half[:, None]
    gauss = np.einsum("j,ijc->ic", _WG15, vals) * half[:, None]
    return kron, gauss, nodes.size * ncomp


def integrate(
    g: PiecewiseIntegrand,
    tol: float = DEFAULT_TOL,
    max_intervals: int = 4096,
    warn: bool = True,
) -> QuadResult:
    """Integrate ``g`` over its domain, splitting at the declared kinks.

    Adaptive bisection drives the summed |Kronrod - Gauss| discrepancy below
    ``tol``; if the interval budget runs out first an ``AccuracyWarning`` is
    issued and the best estimate is returned with its error bound.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    edges = g.edges()
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return QuadResult(0.0, 0.0, 0)

    kron, gauss, neval = _panel(g.evaluator, lo, hi)
    err = np.max(np.abs(kron - gauss), axis=1)
    scalar = kron.shape[1] == 1

    while float(np.sum(err)) > tol and lo.size < max_intervals:
        # Split every interval whose error matters at the current count;
        # everything else is already converged.
        split = err > max(tol / (2.0 * lo.size), 1e-300)
        if not np.any(split):
            break
        mids = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[~split], lo[split], mids])
        new_hi = np.concatenate([hi[~split], mids, hi[split]])
        k2, g2, ne = _panel(g.evaluator, np.concatenate([lo[split], mids]),
                            np.concatenate([mids, hi[split]]))
        neval += ne
        kron = np.concatenate([kron[~split], k2])
        gauss = np.concatenate([gauss[~split], g2])
        err = np.concatenate([err[~split], np.max(np.abs(k2 - g2), axis=1)])
        lo, hi = new_lo, new_hi

    total_err = float(np.sum(err))
    if total_err > tol and warn:
        warnings.warn(
            f"quadrature error estimate {total_err:.3e} exceeds tol {tol:.3e} "
            f"after {lo.size} intervals",
            AccuracyWarning,
            stacklevel=2,
        )
    value = np.sum(kron, axis=0)
    return QuadResult(float(value[0]) if scalar else value, total_err, neval)
