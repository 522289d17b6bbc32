"""The traced benchmark run's contract with the package, checked in tier 1.

The traced ``poly-det`` run of ``splinebench/run.py`` wraps
``Polynomial.__mul__`` and the module-level ``exact_divide`` and fails when
either records no call, so a kernel change that bypassed those entry points
would break it. This test installs the same tracer around one ``probe`` and
one ``check-basis`` call on a small QQ[x,y] graph; it changes nothing under
``splinebench/``.
"""

import contextlib
import importlib.util
import io

import graphsplines.polynomials as polynomials
import graphsplines.rings as rings
from graphsplines.cli import main
from conftest import GRAPHS_DIR, ROOT

XY = str(GRAPHS_DIR / "xy.json")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "splinebench_tracer", ROOT / "splinebench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


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
