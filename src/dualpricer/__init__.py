"""Option pricing and static hedging through the swapped (dual) problem.

A put on spot S struck at K prices identically to a call on "spot" K
struck at S with the rate and dividend yield exchanged.  This package
exposes that transform over closed-form and binomial-tree engines,
recovers Greeks from the swapped problem, and uses the matching machinery
to build and evaluate static hedges of calls with shorter-dated calls.
"""

from .analytic import (
    ExerciseStyle,
    MarketState,
    OptionRight,
    OptionSpec,
    bsm_valuation,
    call_price,
)
from .duality import (
    AnalyticEngine,
    Exactness,
    LatticeEngine,
    delta_via_dual,
    from_dual_valuation,
    gamma_via_dual,
    price_currency_put_approx,
    price_via_dual,
    to_dual,
    valuation_via_dual,
)
from .errors import PricingError
from .hedge import (
    HedgeConfig,
    HedgeReport,
    HedgeScheme,
    HedgeWeights,
    dual_coefficients,
    gross_error,
    net_cost,
    solve_weights,
    true_error,
    true_errors,
)
from .lattice import (
    BACKEND,
    LatticeParams,
    build_lattice,
    lattice_delta,
    lattice_gamma,
    lattice_price,
    lattice_prices,
    lattice_valuations,
)

__version__ = "0.1.0"

# The Monte-Carlo names are looked up in ``simulate`` on each access, so
# that ``import dualpricer`` loads neither it nor the scipy.special it
# imports.  Nothing is cached here: a function rebound in ``simulate``, as
# a tracer does, is what ``dualpricer`` hands out.
_SIMULATE = frozenset(
    {"SimConfig", "SimSummary", "gbm_terminal", "normal_draws", "run_hedge_sim", "run_hedge_sims"}
)


def __getattr__(name):
    if name in _SIMULATE:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
