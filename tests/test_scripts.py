"""The comparison scripts: bench.py's aggregation and same_outputs.py's check.

Each ``test_same_outputs_*`` family test runs its calls a second time and
asserts the same results, the determinism that ``same_outputs.py`` relies
on; ``test_same_outputs_of_the_tree_with_itself`` covers ``compare``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import GRAPHS_DIR, ROOT


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(p90, calls_per_s, failed=0):
    """The last stdout line of one splinebench run, with two of its metrics."""
    return json.dumps({
        "correct": not failed, "attempted": 200, "failed": failed,
        "metrics": {"latency_s.p90": {"value": p90, "unit": "s"},
                    "calls_per_s": {"value": calls_per_s, "unit": "1/s"}},
    })


def test_bench_summary_of_canned_runs():
    bench = _script("bench")
    parent = [(0.020, 80.0), (0.022, 78.0), (0.021, 79.0), (0.023, 75.0), (0.019, 81.0)]
    change = [(0.016, 80.0), (0.017, 90.0), (0.021, 95.0), (0.015, 70.0), (0.016, 99.0)]
    pairs = [
        {"parent": json.loads(_result_line(*old)), "change": json.loads(_result_line(*new))}
        for old, new in zip(parent, change)
    ]
    pairs[4]["change"] = json.loads(_result_line(0.016, 99.0, failed=3))
    summary = bench.summarize(pairs, {"latency_s.p90": "lower", "calls_per_s": "higher"})
    assert summary["pairs"] == 5
    assert summary["failed"] == {"parent": 0, "change": 3}
    assert summary["attempted"] == {"parent": 1000, "change": 1000}
    p90 = summary["metrics"]["latency_s.p90"]
    assert p90["change_won"] == 4  # the tie at 0.021 counts for neither side
    assert p90["parent"]["median"] == 0.021 and p90["change"]["median"] == 0.016
    assert p90["parent"]["runs"] == [0.020, 0.022, 0.021, 0.023, 0.019]
    assert p90["parent"]["q1"] < p90["parent"]["median"] < p90["parent"]["q3"]
    calls = summary["metrics"]["calls_per_s"]
    assert calls["better"] == "higher"
    assert calls["change_won"] == 3  # higher is better: 90 > 78, 95 > 79, 99 > 81


def _one_metric_pairs(name, parent_runs, change_runs):
    """Pairs of result objects that carry only the metric ``name``."""
    def result(value):
        return {"attempted": 100, "failed": 0, "metrics": {name: {"value": value}}}

    return [{"parent": result(old), "change": result(new)}
            for old, new in zip(parent_runs, change_runs)]


def test_bench_closing_lines_mark_a_median_past_its_bound():
    bench = _script("bench")
    rss = {"name": "peak_rss_mib", "better": "lower", "bound": 0.1}
    calls = {"name": "calls_per_s", "better": "higher", "bound": 0.25}
    cases = [
        (rss, [20.0, 20.2, 19.8], [22.4, 22.5, 22.3], True),  # +12%
        (rss, [20.0, 20.2, 19.8], [21.8, 21.9, 21.7], False),  # +9%
        (rss, [20.0, 20.2, 19.8], [12.0, 12.1, 11.9], False),  # an improvement
        (calls, [400.0, 410.0, 390.0], [290.0, 300.0, 280.0], True),  # -27.5%
        (calls, [400.0, 410.0, 390.0], [310.0, 320.0, 300.0], False),  # -22.5%
        (calls, [400.0, 410.0, 390.0], [900.0, 910.0, 890.0], False),  # an improvement
    ]
    for metric, parent, change, marked in cases:
        pairs = _one_metric_pairs(metric["name"], parent, change)
        summary = bench.summarize(pairs, {metric["name"]: metric["better"]})
        (line,) = bench.closing_lines({"w": summary}, [metric])
        assert line.startswith(f"w {metric['name']}: parent {parent[0]:.4g}, "
                               f"change {change[0]:.4g} ("), line
        assert line.endswith("PAST BOUND") is marked, line
        won = 3 if (change[0] < parent[0]) == (metric["better"] == "lower") else 0
        assert f"change won {won} of 3" in line, line
    # an improvement is never past its bound, even a bound of zero
    assert not bench.past_bound(20.0, 1.0, "lower", 0.0)
    assert not bench.past_bound(20.0, 400.0, "higher", 0.0)
    assert bench.past_bound(20.0, 20.01, "lower", 0.0)


def test_bench_spread_of_one_run():
    assert _script("bench").spread([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_bench_run_once_reads_and_writes_no_bytecode(monkeypatch, tmp_path):
    # a checkout's __pycache__ left by a test run must not make its side start
    # faster, and the standard library keeps reading its own bytecode
    bench = _script("bench")
    checkout = tmp_path / "checkout"
    for name in ("splinebench/run.py", "src/graphsplines/cli.py",
                 "src/graphsplines/__pycache__/cli.cpython-311.pyc", ".git/HEAD"):
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text("")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    seen = {}

    def fake_run(command, cwd, env, **kwargs):
        files = sorted(str(path.relative_to(cwd)) for path in Path(cwd).rglob("*")
                       if path.is_file())
        seen.update(command=command, cwd=cwd, env=env, files=files)
        return subprocess.CompletedProcess(command, 0, "warm-up\n" + _result_line(0.02, 80.0), "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    result = bench.run_once(checkout, "poly-det", 11, 1.5)
    assert result["metrics"]["calls_per_s"]["value"] == 80.0
    assert seen["command"] == [sys.executable, "-B", "splinebench/run.py", "--workload",
                               "poly-det", "--seed", "11", "--seconds", "1.5"]
    # the run is made in a copy without the bytecode cache, removed afterwards
    assert seen["files"] == ["splinebench/run.py", "src/graphsplines/cli.py"]
    assert not Path(seen["cwd"]).exists()
    assert (checkout / "src/graphsplines/__pycache__/cli.cpython-311.pyc").is_file()
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in seen["env"]
    assert seen["env"]["PATH"] == os.environ["PATH"]


def test_run_demos_fails_a_demo_that_writes_to_stderr():
    run_demos = _script("run_demos")
    failed_import = subprocess.CompletedProcess([], 1, "", "No module named graphsplines\n")
    assert not run_demos.passed(1, failed_import)
    assert run_demos.passed(1, subprocess.CompletedProcess([], 1, "PROBE: no", ""))
    assert not run_demos.passed(0, subprocess.CompletedProcess([], 1, "PROBE: no", ""))
    assert run_demos.child_env()["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
    assert [1, ["probe", "fig2.json", "--q", "200"]] in map(list, run_demos.DEMOS)


def test_same_outputs_of_the_tree_with_itself():
    same_outputs = _script("same_outputs")
    xy = str(GRAPHS_DIR / "xy.json")
    calls = same_outputs.both_modes([
        ["q", xy], ["flowup", xy], ["verify", xy, "--spline", "0,x,x+y"],
        ["verify", xy, "--spline", "0,1,0"], ["q", str(GRAPHS_DIR / "missing.json")],
    ])
    assert len(calls) == 10
    results = same_outputs.run_calls(ROOT, calls)
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 0, 0, 1, 1, 2, 2]
    assert "Q = " in results[1][1] and "error" in results[9][2]
    assert same_outputs.compare(ROOT, ROOT, calls) == []


def test_same_outputs_error_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.error_calls(GRAPHS_DIR, tmp_path))
    results = same_outputs.run_calls(ROOT, calls)
    assert len(results) == 36
    for argv, (code, out, err) in zip(calls, results):
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
    errors = [err for _, _, err in results]
    assert any("--spline 1, entry 2, character 3: negative exponent" in e for e in errors)
    assert any("entry 2, character 3: unexpected character '\u00b2'" in e for e in errors)
    assert any("LABEL_PARSE" in e and "zero denominator" in e for e in errors)
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_probe_and_search_calls():
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.probe_search_calls(GRAPHS_DIR))
    results = same_outputs.run_calls(ROOT, calls)
    assert [code for code, _, _ in results] == [1] * 10 + [0] * 12
    outputs = [out for _, out, _ in results]
    refuted = [json.loads(out) for out in outputs[0:10:2]]
    assert [report["trials"] for report in refuted] == [50, 50, 500, 500, 500]
    assert all(len(report["counterexample"]) == 3 for report in refuted)
    assert all(json.loads(out)["verdict"] == "yes" for out in outputs[10:20:2])
    assert "PROBE: ok (q divides all 20 sampled determinants)" in outputs[13]
    assert "flow-up class basis found:" in outputs[21]
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_default_probe_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.default_probe_calls(GRAPHS_DIR, tmp_path))
    # each of 5 bundled and 2 x 21 poly-det graphs with its own Q and a --q
    # that divides the pool's determinant but not Q
    assert len(calls) == 2 * 2 * (5 + 2 * 21)
    assert all("--trials" not in argv for argv in calls)
    results = same_outputs.run_calls(ROOT, calls)
    dividing = ["--q" in argv for argv in calls]
    assert [code for code, _, _ in results] == [int(flag) for flag in dividing]
    for argv, (_, out, _) in zip(calls, results):
        if "--json" not in argv:
            assert ("PROBE: ok (q divides all 500 sampled determinants)" in out) != ("--q" in argv)
            continue
        report = json.loads(out)
        assert (report["verdict"], report["trials"]) == ("no" if "--q" in argv else "yes", 500)
        if "--q" in argv:  # the flow-up basis over ZZ, Q alone for coprime labels
            assert (report["counterexample"] is None) == (report["provenance"] == "coprime-product")
    assert json.loads(results[2][1])["q"] == "100"  # fig2-text: 4 * 5 * 1, times 5
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_rational_search_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.rational_search_calls(tmp_path))
    assert len(calls) == 24
    labels = [edge["label"] for path in sorted(tmp_path.glob("*.json"))
              for edge in json.loads(path.read_text())["edges"]]
    assert len(labels) == 20 and all("/" in label for label in labels)
    results = same_outputs.run_calls(ROOT, calls)
    # per image: the 3-cycle and the 4-cycle are found, the squares NONEXISTENT
    assert [code for code, _, _ in results] == ([0] * 8 + [1] * 4) * 2
    outputs = [out for _, out, _ in results]
    assert all(json.loads(out)["verdict"] == "yes" for out in outputs[0:8:2])
    assert "NONEXISTENT(3)" in outputs[11]
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_kernel_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.kernel_calls(tmp_path))
    assert len(calls) == 20
    results = same_outputs.run_calls(ROOT, calls)
    assert [code for code, _, _ in results] == [0] * 14 + [1] * 2 + [0] * 2 + [1] * 2
    outputs = [out for _, out, _ in results]
    assert "PROBE: ok (q divides all 3 sampled determinants)" in outputs[1]
    assert json.loads(outputs[2])["determinant"] == "x^2000000*y + x^1000000*y^2"
    assert json.loads(outputs[4]) == json.loads(outputs[2])  # the mixed candidate
    assert json.loads(outputs[6])["q"] == "x^20001 + x^10001 + x^10000 + 1"
    assert json.loads(outputs[8])["q"] == "x^40001 + x^20001 + x^20000 + 1"
    assert json.loads(outputs[10])["q"] == "2*x^30000 + x^20000 + 2*x^10000 + 1"
    report = json.loads(outputs[12])
    assert report["verdict"] == "yes" and report["determinant"].startswith("y^62 + y^61")
    assert json.loads(outputs[16]) == report
    assert "BASIS: no" in outputs[15] and outputs[19] == outputs[15]
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_triangular_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.triangular_calls(GRAPHS_DIR, tmp_path))
    assert len(calls) == 26
    results = same_outputs.run_calls(ROOT, calls)
    verdicts = "yes no no no yes yes no no yes no no no yes".split()
    assert [code for code, _, _ in results] == [
        {"yes": 0, "no": 1}[verdict] for verdict in verdicts for _ in range(2)
    ]
    reports = [json.loads(out) for _, out, _ in results[::2]]
    assert [report["verdict"] for report in reports] == verdicts
    assert [report["determinant"] for report in reports[:5]] == ["40", "120", "8000", "0", "-1"]
    assert reports[5]["determinant"] == "-x^2*y - x*y^2"
    assert reports[8]["determinant"] == reports[8]["q"] == "x^2*y + x*y^2"
    assert [reports[i]["determinant"] for i in (7, 11)] == ["0", "0"]
    assert reports[12]["determinant"] == "7/2"
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_search_shape_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.search_shape_calls(tmp_path))
    assert len(calls) == 32
    results = same_outputs.run_calls(ROOT, calls)
    # 0 where a flow-up basis is found, 1 where it is NONEXISTENT
    codes = [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]
    assert [code for code, _, _ in results] == [code for code in codes for _ in range(2)]
    reports = [json.loads(out) for _, out, _ in results[::2]]
    assert [report["verdict"] for report in reports] == ["no" if code else "yes" for code in codes]
    assert reports[2]["determinant"] == reports[1]["determinant"]  # c3 in another order
    assert reports[9]["determinant"] == reports[8]["determinant"]  # k4 in another order
    assert reports[14]["columns"] == reports[12]["columns"] == [
        ["1", "1"], ["0", "x*y + 2*y^2 - x - 2*y"]]  # m2, no interior class
    assert "4096 distinct leading-term systems" in results[23][1]
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_parser_calls():
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.parser_calls(GRAPHS_DIR))
    assert len(calls) == 28
    results = same_outputs.run_calls(ROOT, calls)
    codes = [0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1]
    assert [code for code, _, _ in results] == [code for code in codes for _ in range(2)]
    outputs = [out for _, out, _ in results]
    assert "candidate: (x^40001 + x^40000*y, 0, 0)" in outputs[1]
    assert "candidate: (x^2 + x*y, 0, 0)" in outputs[3]  # cancelled below the boundary
    reports = [json.loads(out) for out in outputs[18::2]]  # the check-basis calls
    assert [report["determinant"] for report in reports] == [
        "x^2*y + x*y^2", "x^2*y + x*y^2", "x^40002*y + x^40001*y^2", "x^2*y + x*y^2",
        "x^40002*y + x^40001*y^2"]
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_lattice_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.lattice_calls(ROOT, tmp_path))
    assert len(calls) == 48
    results = same_outputs.run_calls(ROOT, calls)
    # per graph: flowup, q, check-basis yes and no, verify yes and no, then
    # flowup and q in the reversed vertex order
    assert [code for code, _, _ in results] == ([0] * 6 + [1, 1, 0, 0, 1, 1] + [0] * 4) * 3
    reports = [json.loads(out) for _, out, _ in results[::2]]
    for flowup, q, basis, scaled, spline, off, flipped, flipped_q in zip(*[iter(reports)] * 8):
        determinant = int(flowup["determinant"])
        assert int(q["q"]) == determinant and q["provenance"] == "pid-diagonal"
        assert (basis["verdict"], int(basis["determinant"])) == ("yes", determinant)
        assert (scaled["verdict"], int(scaled["determinant"])) == ("no", 2 * determinant)
        assert (spline["verdict"], off["verdict"]) == ("yes", "no")
        # the index of the spline lattice does not depend on the vertex order
        assert int(flipped["determinant"]) == int(flipped_q["q"]) == determinant
        assert flipped["columns"] != flowup["columns"]
    assert len(reports[16]["columns"]) == 12
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_coprime_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.coprime_calls(tmp_path))
    assert len(calls) == 108
    results = same_outputs.run_calls(ROOT, calls)
    reports = [json.loads(out) for _, out, _ in results[::2]]
    # the triangles in COPRIME_TRIANGLES order, then the 4-cycle, over ZZ then QQ
    coprime = {"int": [False, True, False, False, True, True],
               "rat": [True, True, False, False, True, True]}
    expected = []
    for coefficients in ("int", "rat"):
        for is_coprime in coprime[coefficients][:-1]:
            # q, check-basis of the basis and of x times its last column, two probes
            if is_coprime:
                expected += ["yes", "yes", "no", "yes", "no"]
            else:
                expected += ["yes", "UNDECIDED", "UNDECIDED", "yes", "no"]
        expected += ["yes", "yes"]
    assert [report["verdict"] for report in reports] == expected
    provenances = [report["provenance"] for report in reports if report["command"] == "q"]
    assert provenances == [
        "coprime-product" if is_coprime else "lcm-lower-bound"
        for coefficients in ("int", "rat") for is_coprime in coprime[coefficients]
    ]
    assert [code for code, _, _ in results[::2]] == [
        {"yes": 0, "UNDECIDED": 0, "no": 1}[verdict] for verdict in expected
    ]
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_gcd_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.gcd_calls(tmp_path))
    assert len(calls) == 48
    results = same_outputs.run_calls(ROOT, calls)
    # per cycle: q, verify of a spline, verify of one that is not
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 1, 1] * 8
    reports = [json.loads(out) for _, out, _ in results[::2]]
    assert [report["verdict"] for report in reports] == ["yes", "yes", "no"] * 8
    assert {report["provenance"] for report in reports[::3]} == {"lcm-lower-bound"}
    # the lcm of the fallback cycle: (x^7000 + y)*(x + y)*(x - y)*(x*y + 1)
    assert reports[6]["q"] == ("x^7003*y - x^7001*y^3 + x^7002 - x^7000*y^2 + x^3*y^2"
                               " - x*y^4 + x^2*y - y^3")
    # (x + 1)^2*(y - 2), and 12*x*y from 2*x, 4*y and 6*x*y
    assert reports[15]["q"] == "x^2*y - 2*x^2 + 2*x*y - 4*x + y - 2"
    assert reports[18]["q"] == "12*x*y"
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_document_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.document_calls(GRAPHS_DIR, tmp_path))
    assert len(calls) == 56
    results = same_outputs.run_calls(ROOT, calls)
    for argv, (code, out, err) in zip(calls, results):
        assert (code, out) == (2, ""), argv
        assert "Traceback" not in err, argv
    # per document: q and verify, each in JSON and in text mode
    assert {err for _, _, err in results[-8:]} == {
        "error: LABEL_PARSE: edge 2 label 5 is not a string\n",
        "error: LABEL_PARSE: edge 3 label '2x': malformed integer literal '2x' (column 1)\n",
    }
    codes = [err.split(":")[1].strip() for _, _, err in results[::4]]
    assert codes == ["BAD_DOCUMENT"] * 3 + ["DUPLICATE_VERTEX"] + ["UNKNOWN_VERTEX"] * 2 + [
        "LABEL_PARSE"] * 2 + ["ZERO_LABEL", "SELF_LOOP", "DISCONNECTED", "BAD_RING"] + [
        "LABEL_PARSE"] * 2
    assert all(results[k][2] == results[k + 1][2] == results[k + 2][2] == results[k + 3][2]
               for k in range(0, len(results), 4))
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_entry_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.entry_calls(GRAPHS_DIR, tmp_path))
    assert len(calls) == 42
    results = same_outputs.run_calls(ROOT, calls)
    codes = [0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 2, 2, 2, 2] + [0] * 6
    assert [code for code, _, _ in results] == [code for code in codes for _ in range(2)]
    # a repeated entry that fails to parse is reported where it first occurs
    assert [err for _, _, err in results[22:30:2]] == [
        "error: --spline 2, entry 2, character 3: expected a natural-number exponent\n",
        "error: --spline 3, entry 3, character 1: malformed integer literal '1x'\n",
        "error: --spline 1, entry 1, character 3: expected a natural-number exponent\n",
        "error: --spline 1, entry 3, character 3: expected a natural-number exponent\n",
    ]
    reports = [json.loads(out) for _, out, _ in results[:22:2]]
    assert [report["verdict"] for report in reports] == [
        "yes", "no", "yes", "no", "yes", "no", "yes", "yes", "no", "yes", "yes"]
    assert reports[6]["unit"] == "3/8"
    flowups = [json.loads(out) for _, out, _ in results[30::2]]
    assert flowups[0]["columns"] == [[1, 1, 1], [0, 4, 4], [0, 0, 10]]
    assert flowups[1]["witnesses"] == [["1", "1", "1"], ["0", "x*y", "0"],
                                       ["0", "0", "x*y + y^2"]]
    assert flowups[3]["diagonal"] == [1] and "diagonal: (1,)" in results[37][1]
    assert flowups[4]["diagonal"] == [1, 12, 90]
    # the text report of a K6 prints the same numbers as the JSON report
    assert results[41][1].count("B") == 6
    assert str(flowups[5]["determinant"]) in results[41][1]
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_obstruct_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.obstruct_calls(GRAPHS_DIR, tmp_path))
    assert len(calls) == 32
    results = same_outputs.run_calls(ROOT, calls)
    # squares, xy, zx-obstruction, fig2 (not a polynomial ring), xy reordered,
    # then OBSTRUCT_TRIANGLES in order, then a member and a non-member at
    # each of OBSTRUCT_LATTICE_DEGREES
    codes = [0, 1, 0, 2, 1, 1, 0, 1, 1, 2, 1, 1] + [1, 0] * 2
    assert [code for code, _, _ in results] == [code for code in codes for _ in range(2)]
    reports = [json.loads(out) for code, out, _ in results[::2] if code != 2]
    assert [report["ideal_test"] for report in reports] == (
        ["graded-search"] * 2 + ["zz-lattice"] + ["graded-search"] * 3 + ["zz-lattice"] * 8)
    assert all(("columns" in report) == (report["verdict"] == "no") for report in reports)
    assert results[2 * 9][2].startswith("error: UNDECIDABLE: ")  # zx-no-monic
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_refusal_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.both_modes(same_outputs.refusal_calls(tmp_path))
    assert len(calls) == 6
    results = same_outputs.run_calls(ROOT, calls)
    # search and obstruct on the QQ[x,y] triangle refuse in the bounded
    # search, obstruct on the ZZ[x] one in the lattice test
    search = "error: the bounded search requires pairwise coprime edge labels\n"
    lattice = "error: the obstruction test needs pairwise coprime labels\n"
    assert results == [[2, "", search]] * 4 + [[2, "", lattice]] * 2
    assert same_outputs.run_calls(ROOT, calls) == results


def test_same_outputs_forced_degree_calls(tmp_path):
    same_outputs = _script("same_outputs")
    calls = same_outputs.forced_degree_calls(GRAPHS_DIR, tmp_path)
    assert len(calls) == 28
    results = same_outputs.run_calls(ROOT, same_outputs.both_modes(calls))
    reports = [json.loads(out) for _, out, _ in results[::2]]
    # each search without --degree, then the same search at the forced degree
    verdicts = []
    for forced, bounded in zip(reports[::2], reports[1::2]):
        assert bounded["degree_bound"] == forced["degree_bound"]
        assert "every_degree" not in bounded
        if forced["verdict"] == "no":  # homogeneous labels: NONEXISTENT at every degree
            assert forced.pop("every_degree") is True
        assert forced == bounded
        verdicts.append(forced["verdict"])
    assert verdicts[:2] == ["yes", "no"]  # xy.json, squares.json
    assert 3 <= verdicts.count("yes") and 3 <= verdicts.count("no"), verdicts
    assert [code for code, _, _ in results] == [
        0 if verdict == "yes" else 1 for verdict in verdicts for _ in range(4)]
    # text mode: the forced search prints the bounded report, plus the line of a "no"
    for (_, forced, _), (_, bounded, _), verdict in zip(results[1::4], results[3::4], verdicts):
        extra = ["  every degree: yes (every label is homogeneous, so no degree has a basis)"]
        assert forced.splitlines() == bounded.splitlines() + (extra if verdict == "no" else [])
    assert same_outputs.run_calls(ROOT, same_outputs.both_modes(calls)) == results
