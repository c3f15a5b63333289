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
    bsm_delta,
    bsm_gamma,
    bsm_price,
    bsm_valuation,
    call_price,
    d1_d2,
    put_price,
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
from .errors import (
    HedgeConstraintError,
    NoArbitrageError,
    PricingError,
    SingularHedgeSystem,
    UnsupportedStyleError,
)
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
    lattice_valuation,
)
from .simulate import (
    SimConfig,
    SimSummary,
    gbm_terminal,
    normal_draws,
    run_hedge_sim,
    run_hedge_sims,
)

__version__ = "0.1.0"
