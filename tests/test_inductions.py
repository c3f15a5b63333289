"""Guard on the number of tree inductions behind each report and command.

Every call of the kernel's ``induct`` is counted, so a change that values
the same tree twice shows up here before it shows up in a timing.
"""

import pytest

from dualpricer import (
    ExerciseStyle,
    LatticeEngine,
    MarketState,
    OptionRight,
    OptionSpec,
    delta_via_dual,
    lattice,
    lattice_delta,
    lattice_gamma,
    lattice_price,
    lattice_valuation,
    tables,
)
from dualpricer.cli import main


@pytest.fixture
def inductions(monkeypatch):
    calls = []
    induct = lattice._kernel.induct

    def counted(*args):
        calls.append(args)
        return induct(*args)

    monkeypatch.setattr(lattice._kernel, "induct", counted)
    return calls


def american_put():
    return OptionSpec(OptionRight.PUT, ExerciseStyle.AMERICAN, 40.0, 1.0)


def test_table2_values_each_tree_once(inductions):
    tables.table2()
    assert len(inductions) == 10


def test_table1_values_each_tree_once(inductions):
    tables.table1()
    assert len(inductions) == 10


def test_delta_via_dual_is_one_induction(inductions):
    delta_via_dual(american_put(), MarketState(36.0, 0.06, 0.0, 0.40), LatticeEngine(365))
    assert len(inductions) == 1


def test_price_greeks_via_dual_is_two_inductions(inductions, capsys):
    rc = main(
        [
            "price", "--style", "american", "--right", "put",
            "-S", "36", "-K", "40", "-r", "0.06", "--vol", "0.4", "-T", "1",
            "--dual", "--greeks",
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert len(inductions) == 2


@pytest.mark.parametrize(
    "spec,mkt",
    [
        (american_put(), MarketState(36.0, 0.06, 0.0, 0.40)),
        (
            OptionSpec(OptionRight.CALL, ExerciseStyle.EUROPEAN, 50.0, 0.5),
            MarketState(52.0, 0.05, 0.01, 0.20),
        ),
    ],
    ids=["american-put", "european-call"],
)
def test_valuation_equals_separate_calls(spec, mkt):
    steps = 127
    assert lattice_valuation(spec, mkt, steps) == (
        lattice_price(spec, mkt, steps),
        lattice_delta(spec, mkt, steps),
        lattice_gamma(spec, mkt, steps),
    )
