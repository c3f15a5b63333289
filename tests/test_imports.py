"""What importing the package loads, and how its lazy names resolve."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dualpricer
from dualpricer import simulate

SRC = Path(dualpricer.__file__).resolve().parent.parent


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports the package from SRC."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=60,
    )


def test_trees_and_single_contracts_leave_scipy_unloaded():
    # the closed form of one contract uses the scalar normal CDF, trees use
    # none, and the Monte-Carlo names resolve on first use; asking for one
    # of them loads simulate, which imports scipy.special for its ndtri
    run_fresh(
        """
        import sys
        import dualpricer as dp
        from dualpricer import (
            ExerciseStyle, HedgeConfig, HedgeScheme, MarketState, OptionRight, OptionSpec,
        )

        def loaded():
            return "scipy.special" in sys.modules

        assert not loaded(), "import dualpricer"
        mkt = MarketState(36.0, 0.06, 0.01, 0.4)
        european = OptionSpec(OptionRight.PUT, ExerciseStyle.EUROPEAN, 40.0, 1.0)
        american = OptionSpec(OptionRight.PUT, ExerciseStyle.AMERICAN, 40.0, 1.0)
        dp.AnalyticEngine().valuation(european, mkt)
        dp.lattice_valuation(american, mkt, 100)
        dp.valuation_via_dual(american, mkt, dp.LatticeEngine(100))
        cfg = HedgeConfig(
            target_strike=50.0, target_maturity=0.5,
            strike_low=40.0, strike_mid=50.0, strike_high=60.0,
            wing_maturity=1 / 12, mid_maturity=2 / 12, horizon=1 / 24,
            vol=0.2, rate=0.05, dividend_yield=0.01,
        )
        weights = [dp.solve_weights(cfg, scheme) for scheme in HedgeScheme]
        dp.true_error(cfg, weights, 50.0, 48.0)
        assert not loaded(), "valuations"
        dp.SimConfig
        assert loaded(), "dualpricer.SimConfig"
        """
    )


def test_the_cli_still_loads_scipy():
    # cli imports simulate at the top for ``hedge --sim`` and t7.  The
    # benchmark's traced smoke run reads the scipy share of a fresh
    # ``import dualpricer.cli`` as a per-layer metric, which must be
    # non-zero on some workload; the CLI loads scipy until the benchmark
    # times the imports a command makes on first use
    run_fresh(
        """
        import sys
        import dualpricer.cli
        assert "scipy.special" in sys.modules
        """
    )


def test_lazy_names_are_looked_up_in_simulate_at_each_access(monkeypatch):
    # a tracer rebinds simulate's functions after the warm-up: the package
    # must hand out the rebound one, and hold no binding of its own
    def traced(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(simulate, "run_hedge_sim", traced)
    assert dualpricer.run_hedge_sim is traced
    assert "run_hedge_sim" not in vars(dualpricer)
    for name in dualpricer._SIMULATE:
        assert getattr(dualpricer, name) is getattr(simulate, name)
        assert name not in vars(dualpricer)
    with pytest.raises(AttributeError):
        dualpricer.run_hedge_simulation
