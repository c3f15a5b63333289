"""What importing the package loads, how its lazy names resolve, and what
reads each name it exports."""

import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dualpricer
from dualpricer import analytic, duality, errors, hedge, lattice, simulate

SRC = Path(dualpricer.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent


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
        dp.LatticeEngine(100).valuation(american, mkt)
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


# Every public name of the package, with the reader that justifies it: a
# file outside the name's own module that names it, or the public function
# whose argument or result it types.  Tests and the README are not readers.
# valuation_via_dual has neither; its reader is the public function built
# on it, which the benchmark reads.
READERS = {
    "AnalyticEngine": "src/dualpricer/cli.py",
    "BACKEND": "perfbench/worker.py",
    "ExerciseStyle": "src/dualpricer/cli.py",
    "Exactness": "price_currency_put_approx",
    "HedgeConfig": "src/dualpricer/cli.py",
    "HedgeReport": "true_error",
    "HedgeScheme": "src/dualpricer/cli.py",
    "HedgeWeights": "solve_weights",
    "LatticeEngine": "src/dualpricer/cli.py",
    "LatticeParams": "build_lattice",
    "MarketState": "src/dualpricer/cli.py",
    "OptionRight": "src/dualpricer/cli.py",
    "OptionSpec": "src/dualpricer/cli.py",
    "PricingError": "src/dualpricer/cli.py",
    "SimConfig": "src/dualpricer/cli.py",
    "SimSummary": "run_hedge_sim",
    "bsm_valuation": "src/dualpricer/duality.py",
    "build_lattice": "perfbench/tracer.py",
    "call_price": "src/dualpricer/tables.py",
    "delta_via_dual": "perfbench/worker.py",
    "dual_coefficients": "perfbench/worker.py",
    "from_dual_valuation": "src/dualpricer/cli.py",
    "gamma_via_dual": "perfbench/worker.py",
    "gbm_terminal": "perfbench/tracer.py",
    "gross_error": "src/dualpricer/cli.py",
    "lattice_delta": "perfbench/worker.py",
    "lattice_gamma": "perfbench/worker.py",
    "lattice_price": "perfbench/worker.py",
    "lattice_prices": "src/dualpricer/tables.py",
    "lattice_valuations": "src/dualpricer/tables.py",
    "net_cost": "src/dualpricer/cli.py",
    "normal_draws": "perfbench/tracer.py",
    "price_currency_put_approx": "src/dualpricer/tables.py",
    "price_via_dual": "perfbench/worker.py",
    "run_hedge_sim": "src/dualpricer/cli.py",
    "run_hedge_sims": "src/dualpricer/tables.py",
    "solve_weights": "src/dualpricer/cli.py",
    "to_dual": "src/dualpricer/cli.py",
    "true_error": "src/dualpricer/cli.py",
    "true_errors": "src/dualpricer/simulate.py",
    "valuation_via_dual": "delta_via_dual",
}


def public_names():
    return dualpricer._SIMULATE | {
        name
        for name, value in vars(dualpricer).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_export_list():
    assert sorted(public_names()) == sorted(READERS)
    modules = (analytic, duality, errors, hedge, lattice, simulate)
    for name, reader in READERS.items():
        value = getattr(dualpricer, name)
        owner = next(
            module
            for module in modules
            if getattr(value, "__module__", None) == module.__name__
            or name in getattr(module, "__all__", ())
        )
        word = re.compile(rf"\b{name}\b")
        if reader.endswith(".py"):
            assert (ROOT / reader).resolve() != Path(owner.__file__).resolve(), name
            assert word.search((ROOT / reader).read_text(encoding="utf-8")), name
            continue
        assert reader in READERS, name
        function = getattr(dualpricer, reader)
        if name == "valuation_via_dual":
            assert name in function.__code__.co_names
        else:
            assert any(map(word.search, function.__annotations__.values())), name


def caught_names(path):
    """The names in the ``except`` clauses of one file: ``E`` for both
    ``except E`` and ``except dp.E``, and each member of a tuple."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for part in ast.walk(node.type):
                if isinstance(part, ast.Name):
                    names.add(part.id)
                elif isinstance(part, ast.Attribute):
                    names.add(part.attr)
    return names


def test_every_exported_exception_is_caught():
    # a rejection is told apart by its message, so an exported exception
    # class is one that a program catches: an except clause outside its
    # own module, in src/ or perfbench/ (tests excluded), must name it
    files = [
        path
        for folder in (ROOT / "src", ROOT / "perfbench")
        for path in folder.rglob("*.py")
        if not path.name.startswith("test_")
    ]
    exceptions = [
        name
        for name in sorted(public_names())
        if isinstance(value := getattr(dualpricer, name), type)
        and issubclass(value, BaseException)
    ]
    assert "PricingError" in exceptions
    for name in exceptions:
        own = Path(sys.modules[getattr(dualpricer, name).__module__].__file__).resolve()
        catchers = [p for p in files if p.resolve() != own and name in caught_names(p)]
        assert catchers, f"{name} is exported but no except clause names it"
