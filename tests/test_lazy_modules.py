"""Which package modules a call runs, each case in a fresh interpreter.

``graphsplines.polynomials`` and ``graphsplines.search`` are lazy: they run
at the first read of one of their attributes. A call on an integer graph
runs neither, a polynomial ``q`` runs ``polynomials`` only, and ``search``
runs both. ``type(sys.modules[name])`` tells a module that has run from one
that has not without running it. The children write no bytecode.
"""

import json
import subprocess
import sys

import pytest

from conftest import ROOT, source_env

LAZY = ("graphsplines.polynomials", "graphsplines.search")

CHILD = """
import contextlib, io, json, sys, types
import graphsplines.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
lazy = [name for name in {lazy!r} if type(sys.modules[name]) is not types.ModuleType]
print(json.dumps({{"code": code, "lazy": lazy}}))
""".format(lazy=LAZY)


def _child(source: str, *args: str) -> str:
    env = {**source_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", source, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("argv,lazy", [
    (["q", "graphs/fig2.json", "--json"], list(LAZY)),
    (["flowup", "graphs/fig2.json"], list(LAZY)),
    (["check-basis", "graphs/fig2.json", "--spline", "1,1,1", "--spline", "0,4,4",
      "--spline", "0,0,10"], list(LAZY)),
    (["q", "graphs/xy.json"], ["graphsplines.search"]),
    (["search", "graphs/xy.json", "--factors", "x;y;x+y"], []),
])
def test_a_call_runs_only_the_modules_it_needs(argv, lazy):
    report = json.loads(_child(CHILD, *argv))
    assert report == {"code": 0, "lazy": lazy}


NAMES = """
import json, sys
import graphsplines

# these constants carry no __module__; they are defined where named here
homes = {"INT": "polynomials", "RAT": "polynomials", "ZZ": "rings", "QQ": "rings"}
wrong = []
for name in graphsplines.__all__:
    value = getattr(graphsplines, name)
    home = sys.modules["graphsplines." + homes[name]] if name in homes else sys.modules[value.__module__]
    if not home.__name__.startswith("graphsplines.") or vars(home)[name] is not value:
        wrong.append(name)
import graphsplines.polynomials as polynomials
import graphsplines.rings as rings
namespace = {}
exec("from graphsplines import *", namespace)
print(json.dumps({
    "wrong": wrong,
    "undir": sorted(set(graphsplines.__all__) - set(dir(graphsplines))),
    "star": sorted(set(graphsplines.__all__) - set(namespace)),
    "aliases": [
        rings.PolynomialRing is graphsplines.PolynomialRing,
        rings.exact_divide is polynomials.exact_divide,
        rings.Polynomial is polynomials.Polynomial,
        polynomials.number_text is rings.number_text,
        polynomials.parse_int is rings.parse_int,
    ],
}))
"""


def test_every_public_name_resolves_to_its_home_definition():
    report = json.loads(_child(NAMES))
    assert report == {"wrong": [], "undir": [], "star": [], "aliases": [True] * 5}


UNKNOWN = """
import importlib.util, json, sys
import graphsplines

dir(graphsplines)  # lists __all__ without reading a lazy name
print(json.dumps({{
    "has": hasattr(graphsplines, "no_such_name"),
    "unrun": [type(sys.modules[name]) is importlib.util._LazyModule for name in {lazy!r}],
}}))
""".format(lazy=LAZY)


def test_an_unknown_name_runs_neither_lazy_module():
    report = json.loads(_child(UNKNOWN))
    assert report == {"has": False, "unrun": [True, True]}


def test_an_unknown_name_is_still_an_attribute_error():
    import graphsplines
    import graphsplines.rings as rings

    for module in (graphsplines, rings):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
