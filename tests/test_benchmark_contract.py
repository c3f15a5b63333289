"""What the benchmark in ``perfbench/`` needs of the package.

The benchmark's worker is read as text and parsed, never imported, so
no bytecode lands under ``perfbench/``.  The names it uses must exist,
and the reports it runs must print their stored texts byte for byte.
"""

import ast
import importlib
import types
from pathlib import Path

import dualpricer
from dualpricer import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = PERFBENCH / "expected"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def assigned(tree, name):
    """The expression assigned to a module-level ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(name)


def test_every_package_name_the_worker_reads_exists():
    tree = parse("worker.py")
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "dp"
    }
    assert "OptionSpec" in names
    assert [n for n in sorted(names) if not hasattr(dualpricer, n)] == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("dualpricer"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)


def test_every_engine_method_the_worker_calls_exists():
    calls = set()
    for func in ast.walk(parse("worker.py")):
        if not isinstance(func, ast.FunctionDef):
            continue
        engines = {}  # local name -> engine class, from ``x = dp.Engine(...)``
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("AnalyticEngine", "LatticeEngine")
            ):
                engines[node.targets[0].id] = node.value.func.attr
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) in engines
            ):
                calls.add((engines[node.func.value.id], node.func.attr))
    assert calls
    for cls_name, method in sorted(calls):
        assert callable(getattr(getattr(dualpricer, cls_name), method, None)), (
            cls_name,
            method,
        )


def stored_commands(tmp_path):
    """The worker's (label, argv) command list, its hedge config in tmp_path."""
    tree = parse("worker.py")
    consts = {
        name: ast.literal_eval(assigned(tree, name))
        for name in ("AMERICAN_PUT", "EUROPEAN_CALL", "HEDGE_CONFIG_TEXT")
    }
    config = tmp_path / "hedge.cfg"
    config.write_text(consts.pop("HEDGE_CONFIG_TEXT"), encoding="utf-8")
    expr = ast.Expression(assigned(tree, "COMMANDS"))
    scope = {"__builtins__": {"range": range, "str": str}, "HEDGE_CONFIG": config}
    return eval(compile(expr, "worker.py", "eval"), scope | consts)


def test_benchmark_commands_print_their_stored_texts(tmp_path, capsys):
    commands = stored_commands(tmp_path)
    assert sorted(label for label, _ in commands) == sorted(
        path.stem for path in EXPECTED.glob("*.txt")
    )
    differ = []
    for label, argv in commands:
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != 0 or out != (EXPECTED / f"{label}.txt").read_text(encoding="utf-8"):
            differ.append(label)
    assert differ == []



def load_tracer():
    """``perfbench/tracer.py``, executed from its source."""
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_traced_passes_see_a_kernel_call_in_each_tree_table(tmp_path, capsys):
    # the benchmark's smoke run needs every per-layer metric above 0 on some
    # workload, and only cli-reports builds t1-t3.  t1, t2 and t2-csv make
    # the same kernel call, which the one-entry memo serves when one follows
    # another; in the worker's order t2 follows t1, and t2-csv must not hit
    commands = stored_commands(tmp_path)
    for _, argv in commands:  # the worker's warm-up
        cli.main(argv)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install("dualpricer")
        for number in range(2):
            for label, argv in commands:
                tracer.request = (number, label)
                assert cli.main(argv) == 0, label
            tracer.request = None
    finally:
        tracer.disable()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans, 2, len(commands))
    calls = {name: metrics[f"kernel.calls.{name}"] for name in ("t1", "t2", "t3")}
    assert all(count > 0 for count in calls.values()), calls


def test_traced_pass_books_closed_form_work_in_the_valuation_that_asked(tmp_path, capsys):
    # the smoke run needs each analytic metric above 0 on some workload, and
    # a span nested in another analytic span would move its self time out of
    # the valuation that asked for it
    commands = stored_commands(tmp_path)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install("dualpricer")
        for label, argv in commands:
            tracer.request = (0, label)
            assert cli.main(argv) == 0, label
        tracer.request = None
    finally:
        tracer.disable()
    capsys.readouterr()
    spans = tracer.spans
    nested = {
        (spans[s.parent].name, s.name)
        for s in spans
        if s.name.startswith("analytic.")
        and s.parent >= 0
        and spans[s.parent].name.startswith("analytic.")
    }
    assert nested == set()
    metrics = tracing.layer_metrics(spans, 1, len(commands))
    names = ("scalar_calls", "scalar_self_s", "vector_elems", "vector_self_s")
    moved = {name: metrics.get(f"analytic.{name}", 0.0) for name in names}
    assert all(value > 0 for value in moved.values()), moved
