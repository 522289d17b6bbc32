"""The traced benchmark run's contract with the package, checked in tier 1.

The traced run of ``splinebench/run.py`` fails when a function named in its
``REQUIRED_CALLS`` for the workload records no call, so a change that routes
work past a traced entry point would break it. These tests install the same
tracer around a few calls of each workload, and around one ``probe`` and one
``check-basis`` call on a small QQ[x,y] graph; they change nothing under
``splinebench/``. The tracer looks up every traced module in
``sys.modules``, so one case installs it in a fresh interpreter that has
made only integer calls, which run neither of the package's lazy modules.
"""

import ast
import contextlib
import importlib.util
import io
import json
import subprocess
import sys

import pytest

import graphsplines.polynomials as polynomials
import graphsplines.rings as rings
from graphsplines.cli import main
from conftest import GRAPHS_DIR, ROOT, source_env

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


INTEGER_CALLS_THEN_TRACER = """
import contextlib, importlib.util, io, json, sys, types
import graphsplines.cli as cli
import graphsplines.lattice as lattice

spec = importlib.util.spec_from_file_location("splinebench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)

def call():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["flowup", sys.argv[2]])

codes = [call()]
lazy = [name for name in ("graphsplines.polynomials", "graphsplines.search")
        if name in sys.modules and type(sys.modules[name]) is not types.ModuleType]
original = lattice.spline_lattice_generators
tracer = tracer_module.Tracer()
tracer.install()
try:
    codes.append(call())
finally:
    tracer.restore()
print(json.dumps({
    "codes": codes,
    "lazy": lazy,
    "calls": {key: stats[0] for key, stats in tracer.stats.items()},
    "restored": lattice.spline_lattice_generators is original,
}))
"""


def test_tracer_installs_after_only_integer_calls():
    env = {**source_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", INTEGER_CALLS_THEN_TRACER, str(BENCH / "tracer.py"),
         str(GRAPHS_DIR / "fig2.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    # the integer call left both lazy modules unrun, as a zz-lattice run does
    assert report["lazy"] == ["graphsplines.polynomials", "graphsplines.search"]
    assert [key for key in REQUIRED_CALLS["zz-lattice"] if not report["calls"][key]] == []
    assert report["calls"]["graphs.load_graph"] == 1
    assert report["restored"]
