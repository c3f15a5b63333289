"""Command-line behavior: output lines, exit codes, config precedence."""

import contextlib
import io
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpricer import PricingError
from dualpricer.cli import main
from dualpricer.experiment import ExperimentConfig, load_file, loads


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("DUALPRICER_SEED", raising=False)


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
    ],
)
def test_price_beyond_float_range_fails(argv, capsys):
    # later flags win: the put at S 36, K 40 unless the case says otherwise
    rc, out, err = run(["price", "--right", "put", "-S", "36", "-K", "40", *argv], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "float range" in err
    assert not re.search(r"\b(nan|inf)\b", err)


EXTREMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan)


def extreme_or(low, high):
    return st.one_of(st.sampled_from(EXTREMES), st.floats(low, high))


@st.composite
def price_inputs(draw):
    rate = draw(extreme_or(-1000.0, 1000.0))
    # r = q gives a tree no drift, so only the discount bounds a large rate
    dividend_yield = draw(st.one_of(st.just(rate), extreme_or(-1000.0, 1000.0)))
    return {
        "style": draw(st.sampled_from(["european", "american"])),
        "right": draw(st.sampled_from(["call", "put"])),
        "spot": draw(extreme_or(1.0, 200.0)),
        "strike": draw(extreme_or(1.0, 200.0)),
        "rate": rate,
        "yield": dividend_yield,
        "vol": draw(extreme_or(0.01, 2.0)),
        "maturity": draw(extreme_or(0.01, 5.0)),
        "steps": draw(st.integers(1, 200)),
    }


@settings(max_examples=500, deadline=None)
@given(price_inputs())
def test_price_prices_or_fails_cleanly(inputs):
    # finite output and exit 0, or "error: ..." and exit 1; any other
    # exception, a RuntimeWarning included, propagates out of main
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
        assert rc == 1 and err.getvalue().startswith("error:")


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
    flags = draw(st.sets(st.sampled_from(sorted(HEDGE_FLAGS))))
    argv = [
        f"{'-' if len(flag) == 1 else '--'}{flag}={draw(extreme_or(*HEDGE_FLAGS[flag]))}"
        for flag in sorted(flags)
    ]
    argv.append(f"--scheme={draw(st.sampled_from(['bsm-dual', 'wu-zhu']))}")
    if draw(st.booleans()):
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
        ["table", "t4", "--scheme", "wu-zhu", "--format", "csv", "--out", str(dest)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "spot_at_horizon,hedged_call,wu_zhu_gross,wu_zhu_gross_pct"
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
        "percentage-overflow",
    ],
)
def test_hedge_non_finite_result_fails(argv, capsys):
    # nothing is printed before the failure: not even the weights
    rc, out, err = run(["hedge", *argv], capsys)
    assert rc == 1
    assert err.startswith("error:")
    assert out == ""


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


def test_seed_env_matches_flag(capsys, monkeypatch):
    args = ["hedge", "--sim", "--spot0", "50", "--paths", "400"]
    _, flagged, _ = run(args + ["--seed", "9"], capsys)
    monkeypatch.setenv("DUALPRICER_SEED", "9")
    _, from_env, _ = run(args, capsys)
    assert flagged == from_env


def test_bad_seed_env_is_reported(capsys, monkeypatch):
    monkeypatch.setenv("DUALPRICER_SEED", "not-a-number")
    rc, _, err = run(["hedge", "--sim", "--spot0", "50", "--paths", "10"], capsys)
    assert rc == 1
    assert "DUALPRICER_SEED" in err


@pytest.mark.parametrize(
    "argv,env_seed",
    [
        (["table", "t7"], "-1"),
        (["table", "t7", "--seed", "-1"], None),
        (["hedge", "--sim", "--spot0", "50", "--paths", "10", "--seed", "-1"], None),
    ],
    ids=["env", "table", "hedge"],
)
def test_negative_seed_is_reported(argv, env_seed, capsys, monkeypatch):
    if env_seed is not None:
        monkeypatch.setenv("DUALPRICER_SEED", env_seed)
    rc, _, err = run(argv, capsys)
    assert rc == 1
    assert err.startswith("error:") and "seed" in err


def test_experiment_round_trip(tmp_path):
    cfg = ExperimentConfig("hedge", {"scheme": "wu-zhu", "Kd": "38", "spot0": "52"})
    path = write_config(tmp_path, "command = hedge\nscheme = wu-zhu\nKd = 38\nspot0 = 52\n")
    assert load_file(path) == cfg


def test_experiment_parser_details():
    text = "# comment\n\ncommand = hedge\n scheme = wu-zhu \n"
    cfg = loads(text)
    assert cfg.command == "hedge"
    assert cfg.values == {"scheme": "wu-zhu"}
    with pytest.raises(PricingError):
        loads("command = hedge\njust-a-word\n")
    with pytest.raises(PricingError):
        loads("scheme = wu-zhu\n")
    with pytest.raises(PricingError):
        ExperimentConfig("hedge", {"bad key": "1"})
    with pytest.raises(PricingError):
        ExperimentConfig("hedge", {"k": "two\nlines"})


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
    path = write_config(tmp_path, "command = hedge\nKd = forty\n")
    rc, _, err = run(["hedge", "--config", str(path)], capsys)
    assert rc == 1
    assert "Kd" in err


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
