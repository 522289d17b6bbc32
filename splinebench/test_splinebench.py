"""Tests of the benchmark itself: generators, tracer and output checks.

    python3 -m pytest -q splinebench

Run from the root of a checkout; scratch files go under
``.splinebench-work/`` there and are removed afterwards.
"""

from __future__ import annotations

import importlib.util
import json
import shutil

import pytest

import checks
import reference
import run
import workloads
from tracer import Tracer

CLI = run.import_cli()
WORK = run.ROOT / ".splinebench-work" / "tests"


@pytest.fixture
def work():
    WORK.mkdir(parents=True, exist_ok=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


def _generate(name, seed, directory):
    workload = run.setup(CLI, name, seed, directory)
    files = {path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))}
    return files, [call.argv(directory) for call in workload.calls]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_instances(name, work):
    first, first_argv = _generate(name, 7, work / "a")
    second, second_argv = _generate(name, 7, work / "b")
    other, _ = _generate(name, 8, work / "c")
    assert first == second
    assert [a[2:] for a in first_argv] == [a[2:] for a in second_argv]
    assert first != other


def _demos():
    spec = importlib.util.spec_from_file_location(
        "run_demos", run.ROOT / "scripts" / "run_demos.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "expected,args",
    [row for row in _demos().DEMOS if row[1][1] in ("xy.json", "squares.json", "fig2.json")],
)
def test_bundled_graphs_reproduce_demo_verdicts(expected, args):
    argv = [args[0], str(run.ROOT / "graphs" / args[1]), "--json", *args[2:]]
    code, out = run.invoke(CLI.main, argv)
    assert code == expected
    assert json.loads(out)["verdict"] == ("yes" if expected == 0 else "no")


def test_tracer_wraps_every_binding_and_restores():
    import graphsplines.basis as basis
    import graphsplines.cli as cli
    import graphsplines.polynomials as polynomials
    import graphsplines.rings as rings

    originals = (cli.compute_q, rings.exact_divide, polynomials.Polynomial.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.compute_q is basis.compute_q is not originals[0]
        assert rings.exact_divide is polynomials.exact_divide is not originals[1]
        assert polynomials.Polynomial.__rmul__ is polynomials.Polynomial.__mul__
        assert polynomials.Polynomial.__rmul__ is not originals[2]
        code, _ = run.invoke(CLI.main, ["flowup", str(run.ROOT / "graphs" / "fig2.json")])
        code_q, _ = run.invoke(CLI.main, ["q", str(run.ROOT / "graphs" / "xy.json")])
    finally:
        tracer.restore()
    assert (code, code_q) == (0, 0)
    assert tracer.stats["lattice.hermite_normal_form"][0] > 0
    assert tracer.stats["polynomials.poly_gcd"][0] > 0
    assert tracer.stats["polynomials.mul"][0] > 0
    assert (cli.compute_q, rings.exact_divide, polynomials.Polynomial.__rmul__) == originals


def test_phase_scales_every_call_by_the_host_speed(work, monkeypatch):
    # a host at half the reference speed: every scaled time is half the wall time
    monkeypatch.setattr(reference, "gauge", lambda: 2 * reference.REFERENCE_S)
    workload = run.setup(CLI, "poly-gcd", 3, work)
    phase = run.Phase(CLI, workload, work, 0.0, {}, min_calls=len(workload.calls) + 1)
    assert phase.cycles == 2
    for wall, scaled in zip(phase.latencies, phase.scaled):
        assert scaled == pytest.approx([x / 2 for x in wall])


def _first_outputs(name, seed, directory):
    workload = run.setup(CLI, name, seed, directory)
    outputs = {
        index: run.invoke(CLI.main, call.argv(directory))
        for index, call in enumerate(workload.calls)
    }
    return workload, outputs


def test_checks_pass_on_real_outputs_and_catch_a_wrong_one(work):
    workload, outputs = _first_outputs("poly-det", 3, work)
    assert run.verify_outputs(workload, outputs) == set()
    index = next(i for i, c in enumerate(workload.calls) if c.check == "poly-check-basis")
    code, out = outputs[index]
    document = json.loads(out)
    document["determinant"] = f"x*({document['determinant']})"
    outputs[index] = (code, json.dumps(document))
    assert run.verify_outputs(workload, outputs) == {index}


def test_integer_checks_catch_a_wrong_flowup_basis(work):
    workload, outputs = _first_outputs("zz-lattice", 3, work)
    index = next(i for i, c in enumerate(workload.calls) if c.kind == "flowup")
    call = workload.calls[index]
    document = json.loads(outputs[index][1])
    assert checks.zz_flowup(call, document) == []
    last = document["columns"][-1]
    last[-1] *= 2
    document["diagonal"][-1] *= 2
    document["determinant"] *= 2
    assert checks.zz_flowup(call, document) != []


def test_distinct_leading_tuples_of_squares():
    # factors x, x, y, y, x+y, x+y on 3 positions: 3**6 assignments,
    # 6 multisets of size 2 per factor kind, so 6**3 distinct tuples
    assert checks.distinct_leading_tuples([0, 0, 1, 1, 2, 2], 3) == 216
