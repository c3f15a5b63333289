"""Guard on the number of tree inductions behind each report and command.

Every call of the kernel's ``induct`` is counted, so a change that values
the same tree twice shows up here before it shows up in a timing.  The
one-entry induction memo in ``lattice`` is cleared before counting, so a
count does not depend on which tree an earlier test induced last.
"""

import dataclasses

import pytest

from dualpricer import (
    ExerciseStyle,
    LatticeEngine,
    MarketState,
    OptionRight,
    OptionSpec,
    delta_via_dual,
    gamma_via_dual,
    lattice,
    lattice_delta,
    lattice_gamma,
    lattice_price,
    lattice_valuation,
    price_via_dual,
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
    lattice._nodes.cache_clear()
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

    def fresh(value):
        lattice._nodes.cache_clear()
        return value(spec, mkt, steps)

    assert fresh(lattice_valuation) == (
        fresh(lattice_price),
        fresh(lattice_delta),
        fresh(lattice_gamma),
    )


def test_direct_and_dual_greeks_are_two_inductions(inductions):
    """Price, delta and gamma, direct and via the dual: two trees."""
    spec, mkt, steps = american_put(), MarketState(36.0, 0.06, 0.0, 0.40), 365
    engine = LatticeEngine(steps)
    lattice_price(spec, mkt, steps)
    lattice_delta(spec, mkt, steps)
    lattice_gamma(spec, mkt, steps)
    price_via_dual(spec, mkt, engine)
    delta_via_dual(spec, mkt, engine)
    gamma_via_dual(spec, mkt, engine)
    assert len(inductions) == 2
    assert len(set(inductions)) == 2


@pytest.mark.parametrize(
    "change",
    [
        lambda spec, mkt, steps: (spec, mkt, steps + 1),
        lambda spec, mkt, steps: (
            dataclasses.replace(spec, right=OptionRight.CALL), mkt, steps
        ),
        lambda spec, mkt, steps: (
            dataclasses.replace(spec, style=ExerciseStyle.EUROPEAN), mkt, steps
        ),
        lambda spec, mkt, steps: (spec, dataclasses.replace(mkt, rate=0.05), steps),
        lambda spec, mkt, steps: (spec, dataclasses.replace(mkt, spot=37.0), steps),
    ],
    ids=["steps", "right", "style", "rate", "spot"],
)
def test_changed_input_induces_again(inductions, change):
    request = (american_put(), MarketState(36.0, 0.06, 0.0, 0.40), 100)
    first = lattice_price(*request)
    assert lattice_price(*request) == first
    assert len(inductions) == 1
    changed = change(*request)
    lattice_price(*changed)
    assert len(inductions) == 2
    assert lattice_price(*request) == first
    assert len(inductions) == 3
