"""The traced benchmark run's contract with the package, checked in tier 1.

The traced run of ``splinebench/run.py`` fails when a function named in its
``REQUIRED_CALLS`` for the workload records no call, so a change that routes
work past a traced entry point would break it. These tests install the same
tracer around a few calls of each workload, and around one ``probe`` and one
``check-basis`` call on a small QQ[x,y] graph; they change nothing under
``splinebench/``.
"""

import ast
import contextlib
import importlib.util
import io
import json
import sys

import pytest

import graphsplines.polynomials as polynomials
import graphsplines.rings as rings
from graphsplines.cli import main
from conftest import GRAPHS_DIR, ROOT

XY = str(GRAPHS_DIR / "xy.json")
BENCH = ROOT / "splinebench"
SEED = 11
CALLS_PER_WORKLOAD = 4


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"splinebench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _bench_module("tracer").Tracer()


def _required_calls() -> dict:
    """``REQUIRED_CALLS`` of ``splinebench/run.py``, read without importing it."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "REQUIRED_CALLS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("splinebench/run.py defines no REQUIRED_CALLS")


REQUIRED_CALLS = _required_calls()


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", sorted(REQUIRED_CALLS))
def test_traced_workload_calls_meet_required_calls(workload, tmp_path):
    workloads = _bench_module("workloads")

    def flowup(graph_name, document):
        path = tmp_path / graph_name
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out = _run(["flowup", str(path), "--json"])
        assert code == 0, graph_name
        return json.loads(out)

    instance = workloads.build(workload, SEED, flowup)
    workloads.write_graphs(instance, tmp_path)
    calls = instance.calls[:CALLS_PER_WORKLOAD]
    tracer = _tracer()
    tracer.install()
    try:
        codes = [_run(call.argv(tmp_path))[0] for call in calls]
    finally:
        tracer.restore()
    assert codes == [call.expect_code for call in calls]
    missing = [key for key in REQUIRED_CALLS[workload] if not tracer.stats[key][0]]
    assert missing == [], f"{workload} recorded no call of {missing}"


def test_traced_cli_calls_reach_mul_and_exact_divide():
    mul = polynomials.Polynomial.__dict__["__mul__"]
    divide = polynomials.exact_divide
    tracer = _tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["probe", XY, "--trials", "3", "--json"]) == 0
            assert main(["check-basis", XY, "--json", "--spline", "1,1,1",
                         "--spline", "0,x,x+y", "--spline", "0,0,y*(x+y)"]) == 0
    finally:
        tracer.restore()
    assert tracer.stats["polynomials.mul"][0] > 0
    assert tracer.stats["polynomials.exact_divide"][0] > 0
    assert tracer.counters["polynomials.mul.terms_out"] > 0
    # restored: the package runs untraced again
    assert polynomials.Polynomial.__dict__["__mul__"] is mul
    assert polynomials.Polynomial.__dict__["__rmul__"] is mul
    assert polynomials.exact_divide is divide
    assert rings.exact_divide is divide
