"""Command-line behavior: output lines, exit codes, config precedence."""

import contextlib
import io
import math
import re
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpricer import PricingError, cli, lattice
from dualpricer.cli import main
from dualpricer.experiment import load_file


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, text):
    path = tmp_path / "run.exp"
    path.write_text(text, encoding="utf-8")
    return path


def test_price_european_put(capsys):
    rc, out, err = run(
        [
            "price", "--style", "european", "--right", "put",
            "-S", "36", "-K", "40", "-r", "0", "-q", "0.06",
            "--vol", "0.4", "-T", "1",
        ],
        capsys,
    )
    assert rc == 0
    assert err == ""
    assert out == "direct price: 9.391\n"


def test_price_american_put_with_dual(capsys):
    rc, out, err = run(
        [
            "price", "--style", "american", "--right", "put",
            "-S", "36", "-K", "40", "-r", "0.06",
            "--vol", "0.4", "-T", "1", "--dual",
        ],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "direct price: 7.107"
    assert lines[1] == "dual price:   7.107"
    discrepancy = float(lines[2].split(":")[1])
    assert discrepancy < 1e-9


def test_price_greeks_via_dual(capsys):
    rc, out, _ = run(
        [
            "price", "--style", "european", "--right", "call",
            "-S", "50", "-K", "50", "-r", "0.03", "--vol", "0.25",
            "-T", "1", "--dual", "--greeks",
        ],
        capsys,
    )
    assert rc == 0
    direct_delta = re.search(r"direct delta: (-?\d+\.\d{4})", out)
    dual_delta = re.search(r"dual delta:   (-?\d+\.\d{4})", out)
    assert direct_delta and dual_delta
    assert direct_delta.group(1) == dual_delta.group(1)


def test_price_infinite_maturity_fails(capsys):
    rc, out, err = run(
        [
            "price", "--style", "american", "--right", "put",
            "-S", "36", "-K", "40", "-r", "0.06", "--vol", "0.4", "-T", "inf",
        ],
        capsys,
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "maturity" in err


def test_price_too_many_steps_fails(capsys):
    rc, out, err = run(
        [
            "price", "--style", "american", "--right", "put",
            "-S", "36", "-K", "40", "-r", "0.06", "--vol", "0.4", "-T", "1",
            "--steps", "2000000",
        ],
        capsys,
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "steps" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--style", "american", "-r", "0.06", "--vol", "50", "-T", "1", "--greeks", "--dual"],
        ["--style", "american", "-r", "0.06", "--vol", "1e200", "-T", "1", "--greeks", "--dual"],
        ["--style", "american", "-r", "0.06", "--vol", "0.4", "-T", "1e300", "--steps", "10",
         "--greeks", "--dual"],
        ["--style", "european", "-r=-1e300", "--vol", "0.2", "-T", "1", "--greeks"],
        ["--style", "european", "--right", "call", "-r", "0.06", "-q=-1e300", "--vol", "0.2",
         "-T", "1", "--greeks", "--dual"],
        ["--style", "european", "-r", "0.06", "--vol", "1e200", "-T", "1"],
        ["--style", "european", "--right", "call", "-S", "1e-300", "-K", "1e300", "-r", "0.06",
         "--vol", "0.2", "-T", "1", "--greeks", "--dual"],
        ["--style", "american", "-r=-1000", "-q=-1000", "--vol", "0.4", "-T", "1"],
        ["--style", "american", "-r=-1e300", "-q=-1e300", "--vol", "0.4", "-T", "1"],
        ["--style", "european", "--right", "call", "-S", "1e-300", "-K", "1e-300", "-r", "0",
         "--vol", "1", "-T", "1", "--greeks", "--dual"],
        ["--style", "american", "-S", "5e-324", "-K", "100", "-r", "0.05", "--vol", "0.5",
         "-T", "1", "--greeks"],
        ["--style", "american", "--right", "call", "-S", "100", "-K", "5e-324", "-r", "0.05",
         "--vol", "0.5", "-T", "1", "--dual", "--greeks"],
        ["--style", "american", "-S", "1e-310", "-K", "100", "-r", "0.05", "--vol", "0.5",
         "-T", "1", "--greeks"],
    ],
    ids=[
        "tree-vol-50",
        "tree-huge-vol",
        "tree-huge-maturity",
        "huge-negative-rate",
        "huge-negative-yield",
        "huge-vol",
        "extreme-moneyness",
        "tree-discount",
        "tree-huge-discount",
        "dual-greeks-after-direct",
        "tree-greeks-subnormal-spot",
        "dual-greeks-subnormal-strike",
        "tree-greeks-spot-1e-310",
    ],
)
def test_price_beyond_float_range_fails(argv, capsys):
    # nothing is printed before the failure, not even a direct leg that
    # succeeded.  Later flags win: the put at S 36, K 40 unless the case
    # says otherwise
    rc, out, err = run(["price", "--right", "put", "-S", "36", "-K", "40", *argv], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "float range" in err
    assert not re.search(r"\b(nan|inf)\b", err)


def test_dual_tree_failure_names_its_right(capsys):
    # the dual of this call is a put on spot 5e-324 struck at 100, and
    # the message quotes that tree's spot and strike
    argv = ["--style", "american", "--right", "call", "-S", "100", "-K", "5e-324", "-r", "0.05",
            "--vol", "0.5", "-T", "1", "--greeks", "--dual"]
    rc, out, err = run(["price", *argv], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: put tree ") and "(spot 4.94066e-324, strike 100)" in err


EXTREMES = (
    0.0, 5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan
)


def extreme_or(low, high):
    return st.one_of(st.sampled_from(EXTREMES), st.floats(low, high))


@st.composite
def price_inputs(draw):
    rate = draw(extreme_or(-1000.0, 1000.0))
    # r = q gives a tree no drift, so only the discount bounds a large rate
    dividend_yield = draw(st.one_of(st.just(rate), extreme_or(-1000.0, 1000.0)))
    style = draw(st.sampled_from(["european", "american"]))
    # --steps only where the tree engine reads it: the closed form rejects it
    steps = {"steps": draw(st.integers(1, 200))} if style == "american" else {}
    return {
        "style": style,
        "right": draw(st.sampled_from(["call", "put"])),
        "spot": draw(extreme_or(1.0, 200.0)),
        "strike": draw(extreme_or(1.0, 200.0)),
        "rate": rate,
        "yield": dividend_yield,
        "vol": draw(extreme_or(0.01, 2.0)),
        "maturity": draw(extreme_or(0.01, 5.0)),
        **steps,
    }


@settings(max_examples=500, deadline=None)
@given(price_inputs())
def test_price_prices_or_fails_cleanly(inputs):
    # finite output and exit 0, or no output, "error: ..." and exit 1; any
    # other exception, a RuntimeWarning included, propagates out of main
    argv = ["price", *(f"--{flag}={value}" for flag, value in inputs.items())]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--greeks", "--dual"])
    assert not re.search(r"\b(nan|inf)\b", out.getvalue())
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 7
    else:
        assert rc == 1 and out.getvalue() == "" and err.getvalue().startswith("error:")


HEDGE_FLAGS = {
    # flag: range of valid values; the defaults keep the strikes and
    # maturities ordered, so most drawn configs are valid
    "K": (45.0, 55.0),
    "T": (0.3, 1.0),
    "Kd": (30.0, 45.0),
    "Kc": (45.0, 55.0),
    "Ku": (55.0, 90.0),
    "To": (0.06, 0.1),
    "Tc": (0.1, 0.25),
    "Th": (0.01, 0.06),
    "vol": (0.01, 2.0),
    "rate": (-1000.0, 1000.0),
    "yield": (-1000.0, 1000.0),
    "spot0": (1.0, 200.0),
    "spotTh": (1.0, 200.0),
    "mu": (-1.0, 1.0),
}


@st.composite
def hedge_argvs(draw):
    sim = draw(st.booleans())
    # --mu is read only with --sim, and --spotTh only without it
    unread = "spotTh" if sim else "mu"
    flags = draw(st.sets(st.sampled_from(sorted(set(HEDGE_FLAGS) - {unread}))))
    argv = [
        f"{'-' if len(flag) == 1 else '--'}{flag}={draw(extreme_or(*HEDGE_FLAGS[flag]))}"
        for flag in sorted(flags)
    ]
    argv.append(f"--scheme={draw(st.sampled_from(['bsm-dual', 'wu-zhu']))}")
    if sim:
        argv += ["--sim", f"--paths={draw(st.integers(1, 50))}"]
        if "spot0" not in flags:
            argv.append(f"--spot0={draw(extreme_or(1.0, 200.0))}")
    return argv


@settings(max_examples=500, deadline=None)
@given(hedge_argvs())
def test_hedge_prints_or_fails_cleanly(argv):
    # finite output and exit 0, or no output, "error: ..." and exit 1; any
    # other exception, a RuntimeWarning included, propagates out of main
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["hedge", *argv])
    assert not re.search(r"\b(nan|inf)\b", out.getvalue())
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc == 1 and out.getvalue() == "" and err.getvalue().startswith("error:")


def test_price_tiny_vol_greeks_are_finite(capsys):
    rc, out, err = run(
        [
            "price", "--style", "european", "--right", "put",
            "-S", "36", "-K", "40", "-r", "0.06", "--vol", "1e-300", "-T", "1",
            "--greeks",
        ],
        capsys,
    )
    assert rc == 0 and err == ""
    # no vol: the put is worth its discounted intrinsic value, with gamma 0
    assert out == (
        "direct price: 1.671\ndirect delta: -1.0000\ndirect gamma: 0.0000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "t7", "--paths", "10000001"],
        ["hedge", "--sim", "--spot0", "50", "--paths", "10000001"],
        ["table", "t7", "--paths", "-1"],
    ],
    ids=["t7", "hedge-sim", "t7-negative"],
)
def test_too_many_paths_fails(argv, capsys):
    rc, _, err = run(argv, capsys)
    assert rc == 1
    assert err.startswith("error:") and "paths" in err


def test_price_missing_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--style", "european", "--right", "call", "-S", "50"])
    assert exc.value.code == 2


def test_price_analytic_engine_rejects_american(capsys):
    rc, out, err = run(
        [
            "price", "--style", "american", "--right", "put",
            "-S", "36", "-K", "40", "-r", "0.06", "--vol", "0.4",
            "-T", "1", "--engine", "analytic",
        ],
        capsys,
    )
    assert rc == 1
    assert err.startswith("error:")


def test_table_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["table", "t9"])
    assert exc.value.code == 2


def test_table_text_to_stdout(capsys):
    rc, out, err = run(["table", "t1", "--steps", "30"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert "put_price" in lines[1]
    assert "call_price" in lines[1]


def test_table_csv_to_file(tmp_path, capsys):
    dest = tmp_path / "gross.csv"
    rc, out, _ = run(
        ["table", "t4", "--format", "csv", "--out", str(dest)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "spot_at_horizon,hedged_call,bsm_dual_gross,bsm_dual_gross_pct,"
        "wu_zhu_gross,wu_zhu_gross_pct"
    )
    assert len(lines) == 12


def test_table_out_path_unwritable(tmp_path, capsys):
    rc, _, err = run(
        ["table", "t1", "--steps", "30", "--out", str(tmp_path / "no" / "x.txt")],
        capsys,
    )
    assert rc == 1
    assert err.startswith("error:")


def test_hedge_default_weights(capsys):
    rc, out, err = run(["hedge"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "scheme: bsm-dual"
    assert lines[1] == "weights: low 0.2184  mid 0.6323  high 0.1456"
    assert lines[2] == "determinant: 6.486727"
    assert len(lines) == 3


def test_hedge_zero_rate_scheme_weights(capsys):
    rc, out, _ = run(["hedge", "--scheme", "wu-zhu"], capsys)
    assert rc == 0
    assert "weights: low 0.1818  mid 0.6364  high 0.1818" in out


def test_hedge_collapsed_strikes_fail(capsys):
    rc, out, err = run(
        ["hedge", "--Kd", "50", "--Kc", "50", "--Ku", "50"], capsys
    )
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["-T", "inf"],
        ["--rate", "nan", "--spot0", "50"],
        ["--vol", "1e-150", "--spot0", "50"],
        ["--spot0", "-5", "--spotTh", "45"],
        ["--spot0", "nan"],
        ["--spotTh", "0"],
        ["--sim", "--spot0", "inf", "--paths", "10"],
        ["--sim", "--spot0", "50", "--mu", "nan", "--paths", "10"],
        ["--sim", "--spot0", "50", "--mu", "1e300"],
        ["--sim", "--spot0", "50", "--mu=-1e300"],
        ["--vol", "1e-200"],
        ["--vol", "1e-105", "--scheme", "wu-zhu"],
        ["--spot0", "1e-300", "--spotTh", "1e-300"],
        ["--spotTh", "1e-300"],
        ["--spot0", "1e-300"],
        ["--sim", "--spot0", "1e-300", "--paths", "10"],
        ["--sim", "--spot0", "50", "--mu=-400", "--paths", "10"],
        ["--rate=1e300", "--sim", "--spot0", "50", "--paths", "50", "--scheme", "wu-zhu"],
        ["--rate=1e300", "--spot0", "50", "--spotTh", "50", "--scheme", "wu-zhu"],
        ["--scheme", "wu-zhu", "--yield=-1e300", "--spot0", "45", "--Kd", "33", "--Kc", "48.7",
         "--vol", "0.43"],
        ["-r=-1e300", "--spot0", "50", "--Ku", "90"],
        ["--sim", "--paths", "50", "--spot0=1e300"],
        ["--Ku=1e300", "--vol=1e300", "--spot0", "50", "--scheme", "wu-zhu"],
        ["--Ku=1e300", "--vol=1e300", "--spot0", "50", "--scheme", "wu-zhu", "--sim"],
        ["--Th=0.03", "--rate=785", "--yield=541", "--spot0=1e300", "--spotTh=104"],
        ["--spotTh", "1"],
        ["--sim", "--spot0", "5"],
    ],
    ids=[
        "infinite-maturity",
        "nan-rate",
        "nan-determinant",
        "negative-spot0",
        "nan-spot0",
        "zero-spotTh",
        "sim-infinite-spot0",
        "sim-nan-drift",
        "sim-huge-drift",
        "sim-huge-negative-drift",
        "tiny-vol-overflow",
        "tiny-vol-infinite-determinant",
        "worthless-call",
        "worthless-call-at-horizon",
        "worthless-call-at-setup",
        "sim-worthless-call",
        "sim-worthless-paths",
        "sim-carry-overflow",
        "carry-overflow",
        "huge-negative-yield",
        "huge-negative-rate",
        "sim-summary-overflow",
        "huge-vol",
        "sim-huge-vol",
        "huge-carry-below-worth-floor",
        "call-worth-less-than-strike-rounding",
        "sim-call-worth-less-than-strike-rounding",
    ],
)
def test_hedge_non_finite_result_fails(argv, capsys):
    # nothing is printed before the failure: not even the weights
    rc, out, err = run(["hedge", *argv], capsys)
    assert rc == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--vol", "1e-70"], "replication system overflows: "),
        (
            ["--vol", "2.480500378834676e-56", "--Kd", "45.011828025612",
             "--Kc", "45.39214139328809", "--Ku", "50.91601385657382"],
            "replication system overflows: ",
        ),
        (
            ["-K", "4e272", "--Kd", "3.2e272", "--Kc", "4e272", "--Ku", "4.8e272",
             "-r", "-7", "-q", "-8", "--spotTh", "4e305"],
            "hedged call is worth 1.25e+307: its percentages leave the float range",
        ),
    ],
    ids=[
        # the determinant is inf - inf: the system overflowed, it is not singular
        "nan-determinant",
        # the determinant is inf and every Cramer column a finite 0.0
        "infinite-determinant-zero-weights",
        "percentages-beyond-float-range",
    ],
)
def test_hedge_overflow_names_its_check(argv, message, capsys):
    rc, out, err = run(["hedge", *argv], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_hedge_point_report(capsys):
    rc, out, _ = run(["hedge", "--spot0", "55", "--spotTh", "45"], capsys)
    assert rc == 0
    assert "gross error at horizon (spot 45): 0.218 (23.69%)" in out
    assert "net cost at setup (spot 55): 0.007 (0.11%)" in out
    assert "true error: 0.210 (22.88%)" in out


def test_hedge_single_spot_reports(capsys):
    rc, out, _ = run(["hedge", "--spotTh", "50"], capsys)
    assert rc == 0
    assert "gross error at horizon (spot 50): 0.006 (0.19%)" in out
    assert "net cost" not in out

    rc, out, _ = run(["hedge", "--spot0", "50"], capsys)
    assert rc == 0
    assert "net cost at setup (spot 50): 0.047 (1.43%)" in out
    assert "gross error" not in out


def test_hedge_sim(capsys):
    rc, out, _ = run(
        ["hedge", "--sim", "--spot0", "50", "--paths", "500", "--seed", "7"],
        capsys,
    )
    assert rc == 0
    assert "simulated paths: 500 (seed 7, drift 0.04)" in out
    assert re.search(r"MHE: -?\d+\.\d{2}%  MAE: \d+\.\d{2}%  RMSE: \d+\.\d{3}", out)


def test_hedge_sim_needs_spot(capsys):
    rc, out, err = run(["hedge", "--sim"], capsys)
    assert rc == 2
    assert "--spot0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "t7", "--seed", "-1"],
        ["hedge", "--sim", "--spot0", "50", "--paths", "10", "--seed", "-1"],
    ],
    ids=["table", "hedge"],
)
def test_negative_seed_is_reported(argv, capsys):
    rc, _, err = run(argv, capsys)
    assert rc == 1
    assert err.startswith("error:") and "seed" in err


def test_experiment_round_trip(tmp_path):
    path = write_config(tmp_path, "command = hedge\nscheme = wu-zhu\nKd = 38\nspot0 = 52\n")
    assert load_file(path) == {
        "command": "hedge", "scheme": "wu-zhu", "Kd": "38", "spot0": "52"
    }


def test_experiment_parser_details(tmp_path):
    path = write_config(tmp_path, "# comment\n\ncommand = hedge\n scheme = wu-zhu \n")
    assert load_file(path) == {"command": "hedge", "scheme": "wu-zhu"}
    for text in (
        "command = hedge\njust-a-word\n",
        "scheme = wu-zhu\n",
        "command = hedge\nbad key = 1\n",
        "command = hedge\n = 1\n",
        "command = hedge\nKd = 40\nKd = 40\n",
    ):
        with pytest.raises(PricingError):
            load_file(write_config(tmp_path, text))


def test_hedge_config_file_supplies_defaults(tmp_path, capsys):
    path = write_config(tmp_path, "command = hedge\nscheme = wu-zhu\nspot0 = 50\n")
    rc, out, _ = run(["hedge", "--config", str(path)], capsys)
    assert rc == 0
    assert "scheme: wu-zhu" in out
    assert "net cost at setup (spot 50):" in out


def test_hedge_flag_overrides_config(tmp_path, capsys):
    path = write_config(tmp_path, "command = hedge\nscheme = wu-zhu\n")
    rc, out, _ = run(
        ["hedge", "--config", str(path), "--scheme", "bsm-dual"], capsys
    )
    assert rc == 0
    assert "scheme: bsm-dual" in out
    assert "weights: low 0.2184  mid 0.6323  high 0.1456" in out


def test_hedge_config_for_other_command_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "command = price\nspot0 = 50\n")
    rc, _, err = run(["hedge", "--config", str(path)], capsys)
    assert rc == 1
    assert "drives command" in err


def test_hedge_config_bad_number(tmp_path, capsys):
    # each file exits 1 with nothing on stdout, naming the key it is
    # rejected for
    for text, key in [
        ("Kd = forty\n", "Kd"),
        ("spotth = 48\n", "spotth"),
        ("Kx = 30\n", "Kx"),
        ("spot0 = 50\nsim = maybe\n", "sim"),
        ("spot0 = 50\nsim =\n", "sim"),
        ("spot0 = 50\nspot0 = 50\n", "spot0"),
        ("paths = 1e4\n", "paths"),
    ]:
        path = write_config(tmp_path, "command = hedge\n" + text)
        rc, out, err = run(["hedge", "--config", str(path)], capsys)
        assert (rc, out) == (1, ""), text
        assert err.startswith("error:") and repr(key) in err, text


EUROPEAN_CALL = [
    "price", "--style", "european", "--right", "call",
    "-S", "42", "-K", "40", "-r", "0.05", "--vol", "0.3", "-T", "0.5",
]


@pytest.mark.parametrize(
    "argv,unread",
    [
        (["hedge", "--mu", "0.08", "--paths", "5", "--seed", "3", "--spot0", "50"],
         ["--mu", "--paths", "--seed"]),
        (["hedge", "--sim", "--spot0", "50", "--spotTh", "48"], ["--spotTh"]),
        (["table", "t4", "--steps", "5", "--seed", "3", "--paths", "7"],
         ["--steps", "--seed", "--paths"]),
        (["table", "t1", "--seed", "3"], ["--seed"]),
        (["table", "t7", "--steps", "5", "--paths", "200"], ["--steps"]),
        ([*EUROPEAN_CALL, "--steps", "3"], ["--steps"]),
        ([*EUROPEAN_CALL, "--engine", "analytic", "--steps", "3", "--dual"], ["--steps"]),
    ],
    ids=["hedge-sim-only", "hedge-sim-spotTh", "t4", "t1-seed", "t7-steps",
         "price-closed-form", "price-analytic"],
)
def test_setting_the_path_never_reads_is_rejected(argv, unread, capsys):
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and all(name in err for name in unread), err


@pytest.mark.parametrize(
    "text,unread",
    [
        ("spot0 = 50\nmu = 0.08\n", "--mu"),
        ("spot0 = 50\nspotTh = 48\nseed = 3\n", "--seed"),
        ("sim = yes\nspot0 = 50\nspotTh = 48\npaths = 200\n", "--spotTh"),
    ],
    ids=["mu", "seed", "spotTh"],
)
def test_experiment_key_the_path_never_reads_is_rejected(text, unread, tmp_path, capsys):
    path = write_config(tmp_path, "command = hedge\n" + text)
    rc, out, err = run(["hedge", "--config", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and unread in err, err


def test_settings_the_path_reads_are_accepted(capsys):
    # the European tree reads --steps, and so does t3
    for argv in (
        [*EUROPEAN_CALL, "--engine", "lattice", "--steps", "30", "--dual"],
        ["table", "t3", "--steps", "30"],
    ):
        rc, out, err = run(argv, capsys)
        assert (rc, err) == (0, ""), argv
        assert out


def test_hedge_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "run.exp"
    path.write_bytes(b"command = hedge\n\xff\xfe\x00bad\n")
    rc, out, err = run(["hedge", "--config", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "UTF-8" in err


def test_hedge_config_with_byte_order_mark(tmp_path, capsys):
    # some editors start a UTF-8 file with a byte-order mark
    text = "command = hedge\nKd = 40\n"
    plain = run(["hedge", "--config", str(write_config(tmp_path, text))], capsys)
    marked = tmp_path / "marked.exp"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert plain[0] == 0
    assert run(["hedge", "--config", str(marked)], capsys) == plain


def test_experiment_file_over_64_kib_is_rejected(tmp_path, capsys):
    head = "command = hedge\n"
    at_limit = head + "#" * (2**16 - len(head) - 1) + "\n"
    assert load_file(write_config(tmp_path, at_limit)) == {"command": "hedge"}
    with pytest.raises(PricingError, match="over 65536 bytes"):
        load_file(write_config(tmp_path, "#" + at_limit))
    # an endless device is read no further than the bound
    rc, out, err = run(["hedge", "--config", "/dev/zero"], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "over 65536 bytes" in err


def test_hedge_config_bad_scheme(tmp_path, capsys):
    path = write_config(tmp_path, "command = hedge\nscheme = foo\n")
    rc, out, err = run(["hedge", "--config", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "scheme" in err


def test_hedge_sim_flag_via_config(tmp_path, capsys):
    path = write_config(
        tmp_path, "command = hedge\nsim = true\nspot0 = 50\npaths = 200\nseed = 3\n"
    )
    rc, out, _ = run(["hedge", "--config", str(path)], capsys)
    assert rc == 0
    assert "simulated paths: 200 (seed 3, drift 0.04)" in out


# every experiment key with a value off its default, and the rest of the
# command line it runs under; the last four run a short simulation
POINT = ["--spot0", "55", "--spotTh", "45"]
SIM = ["--sim", "--spot0", "50", "--paths", "300"]
EXPERIMENT_KEYS = [
    ("K", "52", POINT),
    ("T", "0.6", POINT),
    ("Kd", "42", POINT),
    ("Kc", "51", POINT),
    ("Ku", "58", POINT),
    ("To", "0.09", POINT),
    ("Tc", "0.2", POINT),
    ("Th", "0.05", POINT),
    ("vol", "0.25", POINT),
    ("rate", "0.03", POINT),
    ("yield", "0.02", POINT),
    ("scheme", "wu-zhu", POINT),
    ("spot0", "52", ["--spotTh", "45"]),
    ("spotTh", "48", ["--spot0", "55"]),
    ("sim", "true", ["--spot0", "50", "--paths", "300"]),
    ("paths", "200", ["--sim", "--spot0", "50"]),
    ("mu", "0.08", SIM),
    ("seed", "9", SIM),
]


@pytest.mark.parametrize(
    "key,value,rest", EXPERIMENT_KEYS, ids=[key for key, _, _ in EXPERIMENT_KEYS]
)
def test_experiment_key_stands_for_its_flag(key, value, rest, tmp_path, capsys):
    flag = f"-{key}" if len(key) == 1 else f"--{key}"
    flagged = [flag] if key == "sim" else [flag, value]
    path = write_config(tmp_path, f"command = hedge\n{key} = {value}\n")
    from_file = run(["hedge", "--config", str(path), *rest], capsys)
    from_flag = run(["hedge", *flagged, *rest], capsys)
    assert from_file == from_flag
    assert from_flag[0] == 0 and from_flag[2] == ""
    # the value is one the output shows, not the default
    assert from_flag[1] != run(["hedge", *rest], capsys)[1]


# --- one parser per process, commands looked up by name ------------------

EUROPEAN_PUT = [
    "price", "--style", "european", "--right", "put",
    "-S", "36", "-K", "40", "-r", "0", "-q", "0.06", "--vol", "0.4", "-T", "1",
]


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once_per_process(fresh_parser_cache, monkeypatch, capsys):
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    for argv in (["table", "t4"], EUROPEAN_PUT, ["hedge", "--spot0", "55", "--spotTh", "45"]):
        rc, _, err = run(argv, capsys)
        assert rc == 0 and err == ""
    assert len(builds) == 1


def test_commands_are_looked_up_at_call_time(fresh_parser_cache, monkeypatch, capsys):
    run(["table", "t4"], capsys)
    calls = []
    monkeypatch.setattr(cli, "cmd_table", lambda args: calls.append(args.name) or 7)
    assert main(["table", "t4"]) == 7
    assert calls == ["t4"]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
    return rc, out.getvalue(), err.getvalue()


def test_cached_parser_keeps_no_state_between_calls(fresh_parser_cache, tmp_path):
    sim = ["hedge", "--sim", "--spot0", "50"]
    steps = [
        ["table", "t9"],
        ["table", "t4", "--out", str(tmp_path / "t4.txt")],
        ["table", "t4"],
        ["price", "--style", "european", "--right", "call", "-S", "1e-300", "-K", "1e-300",
         "-r", "0", "--vol", "1", "-T", "1", "--greeks", "--dual"],
        EUROPEAN_PUT,
        [*sim, "--seed", "9"],
        sim,
        ["hedge", "--spot0", "55", "--spotTh", "45"],
    ]

    def outcomes(fresh):
        results = []
        for argv in steps:
            if fresh:
                cli._parser.cache_clear()
            results.append(_outcome(argv))
        return results

    cached = outcomes(fresh=False)
    assert cached == outcomes(fresh=True)
    assert cached[0][0] == ("exit", 2)
    written = (tmp_path / "t4.txt").read_text(encoding="utf-8")
    assert cached[1][1] == "" and "wu_zhu_gross" in written and "bsm_dual_gross" in written
    assert "wu_zhu_gross" in cached[2][1] and "bsm_dual_gross" in cached[2][1]
    rc, out, err = cached[3]
    assert rc == 1 and out == "" and err.startswith("error:")
    assert "(seed 9," in cached[5][1] and "(seed 42," in cached[6][1]


def _load_tracer():
    # executed from its source so that nothing is written beside it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    module = types.ModuleType("tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize(
    "argv,kernel_calls",
    [
        (["table", "t4"], {}),
        (EUROPEAN_PUT, {}),
        (["hedge", "--spot0", "55", "--spotTh", "45"], {}),
        (["table", "t7", "--paths", "2000"], {}),
        (["table", "t1"], {"kernel.calls.t1": 1}),
        (["table", "t3"], {"kernel.calls.t3": 1}),
    ],
    ids=["table", "price", "hedge", "t7", "t1", "t3"],
)
def test_tracer_sees_every_call_through_the_cached_parser(
    argv, kernel_calls, fresh_parser_cache
):
    # the benchmark warms up before it wraps the package; a parser built in
    # the warm-up must not hold the unwrapped commands.  cli.main is called
    # through the module, as the benchmark does, so that it is wrapped too
    cli.main(["table", "t4"])
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install("dualpricer")
        cli.main(argv)
        tracer.request = (0, "check")
        assert tracer.check_bindings(lambda: cli.main(argv)) == {}
        # one traced pass, whose spans the per-layer metrics must be able to
        # read: they hash the kernel's arguments, so a batch must be tuples.
        # A table's trees are one kernel call, which the memo would serve
        lattice._nodes.cache_clear()
        cli.main(argv)
    finally:
        tracer.disable()
    metrics = tracing.layer_metrics(tracer.spans, 1, 1)
    assert {name: metrics[name] for name in kernel_calls} == kernel_calls
