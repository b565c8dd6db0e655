"""Equilibria of a sensor-vs-jammer remote estimation game over a collision channel.

A coordinator jointly designs a threshold transmission rule and an
estimator against a jammer that may block the channel. For a jammer that
cannot sense the channel the saddle point is computed in closed form; for
a channel-sensing jammer, alternating projected gradient ascent and
convex-concave steps find certified approximate first-order Nash
equilibria. A Monte Carlo simulator validates analytic values empirically.
"""

from .dist import (
    Gaussian,
    Laplace,
    SourceDistribution,
    Tabulated,
    gaussian,
    laplace,
)
from .nonsensing import (
    NonSensingEquilibrium,
    Regime,
    jam_marginal,
    objective,
    solve_equilibrium,
    threshold_policy,
    verify_saddle,
)
from .reactive import (
    FneCertificate,
    GameInstance,
    ReactivePoint,
    SolverOptions,
    SolverTrace,
    Termination,
    certify_fne,
    default_init,
    evaluate,
    silent_interval,
    solve_gda,
    solve_pga_ccp,
)
from .simulate import (
    PolicyBundle,
    SimResult,
    analytic_cost,
    bundle_from_nonsensing,
    bundle_from_reactive,
    simulate,
)

__version__ = "0.1.0"
