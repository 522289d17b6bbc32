import argparse
import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from graphsplines import cli
import graphsplines.lattice as lattice_module
import graphsplines.search as search_module
from graphsplines.cli import main
from graphsplines.rings import IntegerRing, PolynomialRing
from conftest import GRAPHS_DIR, ROOT, source_env
from oracles import leading_entry_ideals, two_array_hermite_normal_form

FIG2 = str(GRAPHS_DIR / "fig2.json")
FIG2_TEXT = str(GRAPHS_DIR / "fig2-text.json")
XY = str(GRAPHS_DIR / "xy.json")
SQUARES = str(GRAPHS_DIR / "squares.json")
ZX = str(GRAPHS_DIR / "zx-obstruction.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "verify", FIG2, "--spline", "3,15,5")
        assert code == 0
        assert "SPLINE: yes" in out

    def test_yes_text_reading(self, capsys):
        code, out, _ = run(capsys, "verify", FIG2_TEXT, "--spline", "3,15,5")
        assert code == 0

    def test_no_with_violations(self, capsys):
        code, out, _ = run(capsys, "verify", FIG2, "--spline", "0,1,0")
        assert code == 1
        assert "SPLINE: no" in out
        assert "v1~v2" in out and "v2~v3" in out

    def test_polynomial_spline(self, capsys):
        code, out, _ = run(capsys, "verify", XY, "--spline", "0,x,x+y")
        assert code == 0

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", FIG2, "--spline", "0,1,0", "--json")
        report = json.loads(out)
        assert report["verdict"] == "no"
        assert len(report["violations"]) == 2

    def test_wrong_length(self, capsys):
        code, _, err = run(capsys, "verify", FIG2, "--spline", "1,2")
        assert code == 2
        assert "error" in err


class TestFlowup:
    def test_integer_graph(self, capsys):
        code, out, _ = run(capsys, "flowup", FIG2)
        assert code == 0
        assert "diagonal: (1, 4, 10)" in out
        assert "determinant: 40" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "flowup", FIG2, "--json")
        report = json.loads(out)
        assert report["diagonal"] == [1, 4, 10]
        assert report["columns"] == [[1, 1, 1], [0, 4, 4], [0, 0, 10]]

    def test_polynomial_graph_witness_table(self, capsys):
        code, out, _ = run(capsys, "flowup", XY)
        assert code == 0
        assert "witness" in out
        assert "class 2" in out


class TestQ:
    def test_integer(self, capsys):
        code, out, _ = run(capsys, "q", FIG2)
        assert code == 0
        assert "Q = 40" in out and "pid-diagonal" in out

    def test_coprime_product(self, capsys):
        code, out, _ = run(capsys, "q", XY)
        assert "coprime-product" in out

    def test_vertex_order_flag(self, capsys):
        code, out, _ = run(capsys, "q", FIG2, "--vertex-order", "v3,v2,v1")
        assert code == 0
        assert "Q = 40" in out


class TestCheckBasis:
    def test_accept(self, capsys):
        code, out, _ = run(
            capsys,
            "check-basis",
            FIG2,
            "--spline", "1,1,1",
            "--spline", "0,4,4",
            "--spline", "0,0,10",
        )
        assert code == 0
        assert "BASIS: yes" in out

    def test_reject(self, capsys):
        code, out, _ = run(
            capsys,
            "check-basis",
            FIG2,
            "--spline", "1,1,1",
            "--spline", "0,4,4",
            "--spline", "0,0,20",
        )
        assert code == 1
        assert "BASIS: no" in out

    def test_repeated_calls_do_not_share_columns(self, capsys):
        # the parser is built once per process; the append action must start
        # from an empty list on every call
        first = run(
            capsys, "check-basis", FIG2, "--json",
            "--spline", "1,1,1", "--spline", "0,4,4", "--spline", "0,0,10",
        )
        second = run(
            capsys, "check-basis", FIG2, "--json",
            "--spline", "1,1,1", "--spline", "0,4,4", "--spline", "0,0,20",
        )
        assert first[0] == 0 and json.loads(first[1])["determinant"] == "40"
        assert second[0] == 1 and json.loads(second[1])["determinant"] == "80"

    def test_polynomial_accept(self, capsys):
        code, out, _ = run(
            capsys,
            "check-basis",
            XY,
            "--spline", "1,1,1",
            "--spline", "0,x,x+y",
            "--spline", "0,0,y*(x+y)",
        )
        assert code == 0
        assert "BASIS: yes" in out


class TestEntryCache:
    """check-basis and verify parse each distinct stripped entry text once
    per call, and keep nothing between calls."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The texts the rings parse, labels included, in order."""
        texts = []
        for ring_class in (IntegerRing, PolynomialRing):
            def recording(ring, text, parse=ring_class.element_from_text):
                texts.append(text)
                return parse(ring, text)

            monkeypatch.setattr(ring_class, "element_from_text", recording)
        return texts

    @staticmethod
    def flags(columns):
        return [arg for column in columns for arg in ("--spline", column)]

    def test_integer_entries(self, capsys, parsed):
        columns = ["1, 1 ,1", " 0,4 , 4", " 0 ,0, 10 "]
        code, out, _ = run(capsys, "check-basis", FIG2, "--json", *self.flags(columns))
        assert (code, json.loads(out)["determinant"]) == (0, "40")
        assert parsed == ["4", "5", "2"] + ["1", "0", "4", "10"]

    @pytest.mark.parametrize("coefficients", ["int", "rat"])
    def test_polynomial_entries(self, capsys, tmp_path, parsed, coefficients):
        graph = tmp_path / "triangle.json"
        graph.write_text(json.dumps({
            "ring": {"kind": "poly", "coefficients": coefficients, "variables": ["x", "y"]},
            "vertices": ["v1", "v2", "v3"],
            "edges": [{"u": "v1", "v": "v2", "label": "x"},
                      {"u": "v2", "v": "v3", "label": "y"},
                      {"u": "v3", "v": "v1", "label": "x + y"}],
        }))
        labels = ["x", "y", "x + y"]
        columns = ["1, 1 ,1", "x, x ,x", "(x+1)*y,(x+1)*y , (x+1)*y "]
        code, out, _ = run(capsys, "check-basis", str(graph), "--json", *self.flags(columns))
        assert (code, json.loads(out)["determinant"]) == (1, "0")
        assert parsed == labels + ["1", "x", "(x+1)*y"]
        columns = ["1, 1 ,1", " 0 ,x,x + y", "0, 0 ,y*(x + y)"]
        code, out, _ = run(capsys, "check-basis", str(graph), *self.flags(columns))
        assert code == 0 and "BASIS: yes (unit 1)" in out
        assert parsed[6:] == labels + ["1", "0", "x", "x + y", "y*(x + y)"]
        # a second call parses its entries again
        del parsed[:]
        for _ in range(2):
            code, out, _ = run(capsys, "verify", str(graph), "--spline", " x ,x, x")
            assert code == 0 and "candidate: (x, x, x)" in out
        assert parsed == (labels + ["x"]) * 2

    def test_repeated_entry_that_fails_to_parse(self, capsys, parsed):
        code, out, err = run(capsys, "check-basis", XY, "--spline", "1,1,1",
                             "--spline", "0,x^, x^ ", "--spline", "0,0,y*(x + y)")
        assert (code, out) == (2, "")
        assert err == ("error: --spline 2, entry 2, character 3: "
                       "expected a natural-number exponent\n")
        code, out, err = run(capsys, "check-basis", FIG2, "--spline", "1,1,1",
                             "--spline", "0,4x,4", "--spline", "4x,0, 4x")
        assert (code, out) == (2, "")
        assert err == ("error: --spline 2, entry 2, character 1: "
                       "malformed integer literal '4x'\n")
        code, _, err = run(capsys, "verify", XY, "--spline", "x,y^,y^")
        assert code == 2 and err.startswith("error: --spline 1, entry 2, character 3: ")
        # the labels, then each entry up to the first that fails
        assert parsed[-5:] == ["x", "y", "x + y", "x", "y^"]


class TestSearch:
    def test_xy_found(self, capsys):
        code, out, _ = run(capsys, "search", XY, "--factors", "x;y;x+y", "--degree", "2")
        assert code == 0
        assert "flow-up class basis found" in out

    def test_squares_nonexistent(self, capsys):
        code, out, _ = run(
            capsys, "search", SQUARES, "--factors", "x;x;y;y;x+y;x+y", "--degree", "6"
        )
        assert code == 1
        assert "NONEXISTENT(6)" in out
        assert "729" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "search", XY, "--factors", "x;y;x+y", "--degree", "2", "--json"
        )
        report = json.loads(out)
        assert report["verdict"] == "yes"
        assert report["columns"][0] == ["1", "1", "1"]

    def test_xy_found_at_the_forced_degree(self, capsys):
        code, out, _ = run(capsys, "search", XY, "--factors", "x;y;x+y", "--json")
        assert code == 0
        assert json.loads(out) == {
            "command": "search", "verdict": "yes", "degree_bound": 2,
            "determinant": "x^2*y + x*y^2",
            "columns": [["1", "1", "1"], ["0", "x", "x + y"], ["0", "0", "x*y + y^2"]]}
        # the same report as at the explicit bound 2
        assert run(capsys, "search", XY, "--factors", "x;y;x+y")[:2] == run(
            capsys, "search", XY, "--factors", "x;y;x+y", "--degree", "2")[:2]

    def test_squares_nonexistent_at_every_degree(self, capsys):
        argv = ["search", SQUARES, "--factors", "x;x;y;y;x+y;x+y"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out) == {"command": "search", "verdict": "no", "degree_bound": 4,
                                   "assignments_total": 729, "systems_checked": 216,
                                   "every_degree": True}
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines()[1:] == [
            "NONEXISTENT(4): no flow-up class basis with entry degrees <= 4",
            "  covered 729 factor assignments (216 distinct leading-term systems, all infeasible)",
            "  every degree: yes (every label is homogeneous, so no degree has a basis)",
        ]

    def test_explicit_degree_reports_no_every_degree(self, capsys):
        argv = ["search", SQUARES, "--factors", "x;x;y;y;x+y;x+y", "--degree", "6"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1 and "every_degree" not in json.loads(out)
        code, out, _ = run(capsys, *argv)
        assert code == 1 and "every degree" not in out
        assert len(out.splitlines()) == 3

    def test_inhomogeneous_nonexistent_is_not_every_degree(self, capsys, tmp_path):
        # x + 1 is outside (y + 1, x - 1), but a label that is not homogeneous
        # leaves higher degrees open
        path = write_triangle(tmp_path, "affine", "rat", ["x", "y"], ["x + 1", "y + 1", "x - 1"])
        argv = ["search", path, "--factors", "x+1;y+1;x-1"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        report = json.loads(out)
        assert (report["degree_bound"], report["every_degree"]) == (2, False)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines()[1] == ("NONEXISTENT(2): no flow-up class basis with entry "
                                       "degrees <= 2")
        assert out.splitlines()[-1] == ("  every degree: no (a label is not homogeneous, so a "
                                        "higher degree may)")

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_forced_degree_past_the_table_cap_is_undecidable(self, capsys, tmp_path, mode):
        # D = 48 gives C(51, 3) = 20825 monomials per entry
        path = write_triangle(tmp_path, "big", "rat", ["x", "y", "z"], ["x^24", "y^24", "z^24"])
        code, out, err = run(capsys, "search", path, "--factors", "x^24;y^24;z^24", *mode)
        assert (code, out) == (2, "")
        assert err == ("error: UNDECIDABLE: the forced degree 48 gives more than 20000 "
                       "monomials per entry in 3 variables\n")
        # an explicit bound past the cap keeps its own message
        code, out, err = run(capsys, "search", path, "--factors", "x^24;y^24;z^24",
                             "--degree", "48", *mode)
        assert (code, out) == (2, "")
        assert err == "error: degree bound 48 gives more than 20000 monomials per entry in 3 variables\n"

    @pytest.mark.parametrize("degree", [[], ["--degree", "49"]])
    def test_shared_factor_is_reported_before_the_table_cap(self, capsys, tmp_path, degree):
        # y divides x^24*y and y^24, and D = 48 is past the cap: with or
        # without a bound, the labels' coprimality is checked first
        path = write_triangle(tmp_path, "shared", "rat", ["x", "y", "z"],
                              ["x^24*y", "y^24", "z^24"])
        code, out, err = run(capsys, "search", path, "--factors", "x^24*y;y^24;z^24", *degree)
        assert (code, out) == (2, "")
        assert err == "error: the bounded search requires pairwise coprime edge labels\n"

    def test_reducible_factor(self, capsys, tmp_path):
        # the factor x*y covers the forced leading terms x and y together
        document = {
            "ring": {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]},
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "label": "x"},
                {"u": "b", "v": "c", "label": "y"},
            ],
        }
        path = tmp_path / "path.json"
        path.write_text(json.dumps(document))
        code, out, _ = run(capsys, "search", str(path), "--factors", "x*y", "--degree", "2")
        assert code == 0
        assert "B1 = (1, 1, 1)" in out
        assert "B2 = (0, x, x)" in out
        assert "B3 = (0, 0, y)" in out

    @pytest.mark.parametrize("degree", ["100000", "99999999999999999999"])
    def test_huge_degree_is_rejected_before_any_table(self, capsys, monkeypatch, degree):
        def no_table(*args):
            raise AssertionError("a monomial table was built")

        monkeypatch.setattr(search_module, "monomials_up_to", no_table)
        code, out, err = run(capsys, "search", XY, "--factors", "x;y;x+y", "--degree", degree)
        assert (code, out) == (2, "")
        assert err == (f"error: degree bound {degree} gives more than 20000 monomials "
                       "per entry in 2 variables\n")

    def test_degree_at_the_table_cap(self, capsys):
        # 199 * 200 / 2 = 19900 monomials per entry in x, y; degree 199 gives 20100
        code, out, _ = run(capsys, "search", XY, "--factors", "x;y;x+y", "--degree", "198")
        assert code == 0 and "B3 = (0, 0, x*y + y^2)" in out
        assert run(capsys, "search", XY, "--factors", "x;y;x+y", "--degree", "199")[0] == 2

    def test_many_variables_under_the_table_cap(self, tmp_path):
        # 19448 monomials per entry in ten variables at degree 7: a table
        # filtered from all 8^10 exponent tuples took more than 20 s
        names = [f"x{k}" for k in range(1, 11)]
        document = {
            "ring": {"kind": "poly", "coefficients": "rat", "variables": names},
            "vertices": ["a", "b", "c"],
            "edges": [{"u": "a", "v": "b", "label": "x1"},
                      {"u": "b", "v": "c", "label": "x2"},
                      {"u": "c", "v": "a", "label": "x3"}],
        }
        path = tmp_path / "triangle10.json"
        path.write_text(json.dumps(document))
        result = subprocess.run(
            [sys.executable, "-m", "graphsplines", "search", str(path),
             "--factors", "x1;x2;x3", "--degree", "7"],
            capture_output=True, env=source_env(), text=True, timeout=5,
        )
        assert (result.returncode, result.stderr) == (1, "")
        assert "NONEXISTENT(7)" in result.stdout


def obstruct_report(capsys, path):
    """(exit code, JSON report or None, stderr) of obstruct; the columns of a
    "no" must pass check-basis."""
    code, out, err = run(capsys, "obstruct", path, "--json")
    report = json.loads(out) if out else None
    if code == 1:
        flags = [arg for column in report["columns"] for arg in ("--spline", ",".join(column))]
        checked, text, _ = run(capsys, "check-basis", path, *flags)
        assert checked == 0 and "BASIS: yes" in text, (path, report)
    return code, report, err


def write_triangle(tmp_path, name, coefficients, variables, labels):
    """Write the triangle v1 -a- v2 -b- v3 -c- v1 over the polynomial ring; returns its path."""
    names = ["v1", "v2", "v3"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "ring": {"kind": "poly", "coefficients": coefficients, "variables": variables},
        "vertices": names,
        "edges": [{"u": names[k], "v": names[(k + 1) % 3], "label": label}
                  for k, label in enumerate(labels)],
    }))
    return str(path)


class TestObstruct:
    def test_default_predicate(self, capsys):
        # zx-obstruction (x+1, 2, x): x is monic and x+1 = 1 mod x is not in 2*ZZ
        code, out, _ = run(capsys, "obstruct", ZX)
        assert code == 0
        assert "OBSTRUCTED: yes" in out
        assert "ideal test: zz-lattice" in out

    def test_explicit_predicate(self, capsys):
        # the membership predicate is no longer chosen, by ring kind or by flag
        code, out, err = run(capsys, "obstruct", ZX, "--ideal", "even-constant-term")
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and "unrecognized arguments: --ideal" in err

    def test_not_obstructed(self, capsys):
        # on the xy cycle (x, y, x+y), x = -y + (x + y) lies in (y, x + y), so a
        # flow-up basis exists and its columns are the certificate
        code, out, _ = run(capsys, "obstruct", XY, "--json")
        report = json.loads(out)
        assert code == 1
        assert report == {"command": "obstruct", "verdict": "no", "ideal_test": "graded-search",
                          "columns": [["1", "1", "1"], ["0", "x", "x + y"],
                                      ["0", "0", "x*y + y^2"]]}
        code, out, _ = run(capsys, "obstruct", XY)
        assert code == 1
        assert out.splitlines()[2:] == [
            "OBSTRUCTED: no (a is in the ideal generated by b and c)",
            "flow-up class basis:",
            "  B1 = (1, 1, 1)",
            "  B2 = (0, x, x + y)",
            "  B3 = (0, 0, x*y + y^2)",
        ]

    def test_squares_is_obstructed(self, capsys):
        # x^2 is outside (y^2, (x+y)^2): NONEXISTENT(4) with homogeneous labels
        code, out, _ = run(capsys, "obstruct", SQUARES, "--json")
        assert code == 0
        assert json.loads(out) == {"command": "obstruct", "verdict": "yes",
                                   "ideal_test": "graded-search"}

    @pytest.mark.parametrize("coefficients,variables,labels,code,method", [
        ("rat", ["x", "y"], ["x + y + 1", "y + 1", "x"], 1, "graded-search"),
        ("rat", ["x", "y", "z"], ["x", "y", "z"], 0, "graded-search"),
        ("int", ["x"], ["x + 3", "3", "x"], 1, "zz-lattice"),
        ("int", ["x"], ["x + 3", "x", "3"], 1, "zz-lattice"),
        ("int", ["x"], ["x + 1", "x", "2"], 0, "zz-lattice"),
        ("rat", ["x"], ["x^2 + 1", "x - 1", "x^3 + 2"], 1, "graded-search"),
    ])
    def test_state_triangles(self, capsys, tmp_path, coefficients, variables, labels, code,
                             method):
        path = write_triangle(tmp_path, "triangle", coefficients, variables, labels)
        got, report, err = obstruct_report(capsys, path)
        assert (got, err, report["ideal_test"]) == (code, "", method)
        assert report["verdict"] == ("yes" if code == 0 else "no")

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    def test_undecidable_without_a_monic_label(self, tmp_path, optimize):
        # (x+3, 2x, 3) has a flow-up basis, but neither 2x nor 3 is monic
        path = write_triangle(tmp_path, "no-monic", "int", ["x"], ["x + 3", "2*x", "3"])
        result = subprocess.run(
            [sys.executable, *optimize, "-m", "graphsplines", "obstruct", path],
            capture_output=True, env=source_env(), text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: UNDECIDABLE: ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("coefficients,variables,labels,needle", [
        # x + 1 is outside (y + 1, x - 1), whose members vanish at (1, -1), but
        # NONEXISTENT(2) on labels that are not homogeneous rules out no higher degree
        ("rat", ["x", "y"], ["x + 1", "y + 1", "x - 1"], "not homogeneous"),
        ("int", ["x", "y"], ["x + 1", "y", "x"], "only ZZ[x]"),
        ("int", ["x"], ["x + 1", "x^101 + 2", "2"], "degree 101"),
        # D = 48 gives C(51, 3) = 20825 monomials per entry
        ("rat", ["x", "y", "z"], ["x^24", "y^24", "z^24"], "monomials per entry"),
    ])
    def test_undecidable_cases(self, capsys, tmp_path, coefficients, variables, labels, needle):
        path = write_triangle(tmp_path, "undecidable", coefficients, variables, labels)
        code, out, err = run(capsys, "obstruct", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: UNDECIDABLE: ") and needle in err

    def test_shared_factor_rejected(self, capsys, tmp_path):
        path = write_triangle(tmp_path, "shared", "rat", ["x", "y"], ["x", "x*y", "y + 1"])
        code, _, err = run(capsys, "obstruct", path)
        assert code == 2 and "pairwise coprime" in err

    def test_shared_factor_is_reported_before_the_table_cap(self, capsys, tmp_path):
        # D = 48 is past the cap, but the labels share the factor y
        path = write_triangle(tmp_path, "shared", "rat", ["x", "y", "z"],
                              ["x^24*y", "y^24", "z^24"])
        code, out, err = run(capsys, "obstruct", path)
        assert (code, out) == (2, "")
        assert err == "error: the bounded search requires pairwise coprime edge labels\n"

    def test_non_triangle_rejected(self, capsys, tmp_path):
        document = {
            "ring": {"kind": "poly", "coefficients": "rat", "variables": ["x"]},
            "vertices": ["v1", "v2"],
            "edges": [{"u": "v1", "v": "v2", "label": "x"}],
        }
        path = tmp_path / "path.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "obstruct", str(path))
        assert code == 2
        assert "3-cycle" in err


def _signed(terms):
    """The sum of term texts, with each "+ -" written as "-" for the label parser."""
    return " + ".join(terms).replace("+ -", "- ") or "0"


def _random_form(rng, variables, degree):
    """A homogeneous form of ``degree`` with coefficients in -2..2, as text; may be 0."""
    monomials = [e for e in itertools.product(range(degree + 1), repeat=len(variables))
                 if sum(e) == degree]
    terms = []
    for exponents in monomials:
        coefficient = rng.randint(-2, 2)
        if coefficient:
            factors = [f"{v}^{e}" for v, e in zip(variables, exponents) if e]
            terms.append("*".join([str(coefficient)] + factors))
    return _signed(terms)


def _coefficients_text(coefficients):
    """A ZZ[x] polynomial given by its coefficients, lowest degree first, as text."""
    terms = [str(c) if i == 0 else f"{c}*x" if i == 1 else f"{c}*x^{i}"
             for i, c in enumerate(coefficients) if c]
    return _signed(terms[::-1])


def _times(p, q):
    product = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            product[i + j] += a * b
    return product


def _remainder(p, m):
    """p mod m for coefficient lists, m with leading coefficient 1 or -1."""
    p, d = list(p) + [0] * len(m), len(m) - 1
    for k in range(len(p) - 1, d - 1, -1):
        quotient = p[k] * m[d]
        p = [c - quotient * m[i - k + d] if k - d <= i <= k else c for i, c in enumerate(p)]
    return p[:d]


def hnf_member(a, other, m):
    """Whether a is in the ideal (other, m) of ZZ[x], for m of degree d >= 1 with
    leading coefficient 1 or -1: a mod m against the column HNF of the residues
    of x^i * other mod m, i < d, by reduction down the pivots."""
    d = len(m) - 1
    spans = [_remainder(_times([0] * i + [1], other), m) for i in range(d)]
    hnf, _ = two_array_hermite_normal_form([list(row) for row in zip(*spans)])
    rest = _remainder(a, m)
    for j in range(d):
        column = [row[j] for row in hnf]
        pivot = next((i for i, entry in enumerate(column) if entry), None)
        if pivot is None:
            continue
        quotient, remainder = divmod(rest[pivot], column[pivot])
        if remainder:
            return False
        rest = [r - quotient * c for r, c in zip(rest, column)]
    return not any(rest)


class TestObstructOracles:
    """``obstruct`` against independent membership tests on seeded triangles;
    every "no" certificate must pass ``check-basis``."""

    def test_homogeneous_triangles_match_groebner_membership(self, capsys, tmp_path):
        sympy = pytest.importorskip("sympy")
        rng = random.Random("obstruct-homogeneous")
        answers = {0: 0, 1: 0}
        while sum(answers.values()) < 96:
            variables = ["x", "y"] if sum(answers.values()) % 2 else ["x", "y", "z"]
            gens = sympy.symbols(variables)

            def label():
                """A product of one or two linear forms, and its degree."""
                degree = rng.randint(1, 2)
                return "*".join(f"({_random_form(rng, variables, 1)})"
                                for _ in range(degree)), degree

            (b, db), (c, dc) = label(), label()
            if rng.random() < 0.4:  # a member by construction
                degree = max(db + rng.randint(0, 1), dc)
                a = (f"({_random_form(rng, variables, degree - db)})*{b} + "
                     f"({_random_form(rng, variables, degree - dc)})*{c}")
            else:
                a, _ = label()
            polys = [sympy.Poly(sympy.sympify(text.replace("^", "**")), *gens) for text in (a, b, c)]
            if any(p.is_zero or p.is_ground for p in polys) or any(
                    sympy.gcd(p, q).total_degree() > 0 for p, q in itertools.combinations(polys, 2)):
                continue
            path = write_triangle(tmp_path, f"h{sum(answers.values())}", "rat", variables,
                                  [a, b, c])
            code, report, err = obstruct_report(capsys, path)
            member = sympy.groebner(polys[1:], *gens, order="grevlex", domain="QQ").contains(
                polys[0].as_expr())
            assert code == (1 if member else 0), (a, b, c, err)
            assert report["ideal_test"] == "graded-search"
            answers[code] += 1
        assert min(answers.values()) >= 15, answers

    def test_univariate_rational_triangles_all_have_a_basis(self, capsys, tmp_path):
        rng = random.Random("obstruct-qx")
        irreducible = [f"x + {k}" for k in range(-6, 7)] + [f"x^2 + {k}" for k in range(1, 7)]
        for k in range(40):
            pool = rng.sample(irreducible, 6)
            labels = []
            for count in (rng.randint(1, 2) for _ in range(3)):
                labels.append(f"{rng.choice([1, 2, -3])}*" + "*".join(
                    f"({pool.pop()})" for _ in range(count)))
            path = write_triangle(tmp_path, f"qx{k}", "rat", ["x"], [_signed([t]) for t in labels])
            code, report, err = obstruct_report(capsys, path)
            assert (code, report["verdict"]) == (1, "no"), (labels, err)

    def test_monic_integer_triangles_match_hnf_membership(self, capsys, tmp_path):
        # m of degree 1 to 3, then 8 to 40; other and a non-member a of degree
        # up to 2, then up to d + 2
        for seed, degrees, spread, count in (("obstruct-zx", (1, 3), lambda d: 2, 60),
                                             ("obstruct-zx-high", (8, 40), lambda d: d + 2, 30)):
            rng = random.Random(seed)
            answers = {0: 0, 1: 0}
            while sum(answers.values()) < count:
                d = rng.randint(*degrees)
                m = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([1, -1])]
                other = [rng.randint(-6, 6) for _ in range(rng.randint(1, spread(d) + 1))]
                if rng.random() < 0.5:  # a member by construction
                    s = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                    t = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                    a = [x + y for x, y in itertools.zip_longest(_times(s, other), _times(t, m),
                                                                 fillvalue=0)]
                else:
                    a = [rng.randint(-6, 6) for _ in range(rng.randint(1, spread(d) + 1))]
                texts = [_coefficients_text(p) for p in (a, other, m)]
                if "0" in texts:
                    continue
                a_text, other_text, m_text = texts  # m is c or b
                labels = ([a_text, other_text, m_text] if rng.random() < 0.5
                          else [a_text, m_text, other_text])
                path = write_triangle(tmp_path, f"{seed}-{sum(answers.values())}", "int", ["x"],
                                      labels)
                code, report, err = obstruct_report(capsys, path)
                if code == 2:
                    assert "pairwise coprime" in err, (labels, err)
                    continue
                assert report["ideal_test"] == "zz-lattice"
                assert code == (1 if hnf_member(a, other, m) else 0), labels
                answers[code] += 1
            assert min(answers.values()) >= 10, (seed, answers)


MODULE_GATE_SHAPES = {
    "triangle": [(0, 1), (1, 2), (2, 0)],
    "path": [(0, 1), (1, 2), (2, 3)],
    "4-cycle": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "4-cycle with a chord": [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
}


def _linear_forms(rng, count):
    """Texts of ``count`` affine linear forms over QQ[x,y], no two proportional."""
    keys = set()
    while len(keys) < count:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            c = rng.randint(-2, 2)
            g = math.gcd(a, b, c) * (1 if (a or b) > 0 else -1)
            keys.add((a // g, b // g, c // g))
    return [_signed([f"{a}*x", f"{b}*y", f"{c}"]) for a, b, c in sorted(keys)]


def _integer_text(poly):
    """A sympy Poly in x and y over QQ, times a rational unit with integer
    coefficients, as label text: sympy prints x**2/2, which the label
    grammar refuses."""
    terms = poly.terms()
    scale = math.lcm(*(c.q for _, c in terms))
    return _signed([f"{c.p * (scale // c.q)}*x^{i}*y^{j}" for (i, j), c in terms])


class TestQAndProbeAgainstTheModuleOracle:
    """``q`` and ``probe`` on seeded QQ[x,y] graphs against d_i = gcd(I_i), with
    I_i the ideal of entries at vertex i of splines vanishing before it, from
    ``oracles.leading_entry_ideals``: the gcd of all n x n minors of the
    spline module is prod d_i.

    Pairwise coprime labels: Q is prod d_i up to a unit. Labels sharing a
    factor: Q, the label lcm, divides prod d_i. For q in {Q, Q*label,
    prod d_i}, a probe "yes" needs q | prod d_i, and a "no" needs q not to
    divide it (a "no" with columns shows a determinant that q does not
    divide, and prod d_i divides every determinant).
    """

    def test_q_and_probe_match_the_leading_entry_ideals(self, capsys, tmp_path):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols("x y")

        def poly(text):
            return sympy.Poly(sympy.sympify(text.replace("^", "**")), *gens, domain="QQ")

        def divides(d, p):
            return p.rem(d).is_zero

        rng = random.Random("module-gate-qxy")
        verdicts = {"yes": 0, "no": 0, "UNDECIDED": 0}
        for k in range(48):
            shape = MODULE_GATE_SHAPES[list(MODULE_GATE_SHAPES)[k % 4]]
            n, shared = max(map(max, shape)) + 1, k % 8 >= 4
            counts = [rng.choice([1, 1, 2]) for _ in shape]  # products of one or two forms
            if shared:  # a pool too small for every label to get its own forms
                pool = _linear_forms(rng, max(2, sum(counts) - 2))
                labels = ["*".join(f"({form})" for form in rng.sample(pool, count))
                          for count in counts]
            else:
                forms = iter(_linear_forms(rng, sum(counts)))
                labels = ["*".join(f"({next(forms)})" for _ in range(count)) for count in counts]
            names = [f"v{i + 1}" for i in range(n)]
            path = tmp_path / f"g{k}.json"
            path.write_text(json.dumps({
                "ring": {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]},
                "vertices": names,
                "edges": [{"u": names[u], "v": names[v], "label": label}
                          for (u, v), label in zip(shape, labels)],
            }))
            polys = [poly(label) for label in labels]
            ideals = leading_entry_ideals(["x", "y"], n, [(u, v, p.as_expr())
                                                          for (u, v), p in zip(shape, polys)])
            product = math.prod((functools.reduce(sympy.Poly.gcd, (
                sympy.Poly(g, *gens, domain="QQ") for g in ideal)) for ideal in ideals),
                start=poly("1"))
            code, out, _ = run(capsys, "q", str(path), "--json")
            report = json.loads(out)
            q = poly(report["q"])
            coprime = all(p.gcd(r).is_ground for p, r in itertools.combinations(polys, 2))
            assert coprime is not shared, labels
            if coprime:
                assert report["provenance"] == "coprime-product", labels
                assert divides(q, product) and divides(product, q), (labels, product)
            else:
                assert report["provenance"] == "lcm-lower-bound", labels
                assert divides(q, product), (labels, product)
            for probe in (q, q * rng.choice(polys), product):
                text = _integer_text(probe)
                code, out, _ = run(capsys, "probe", str(path), "--q", text, "--json")
                verdict = json.loads(out)["verdict"]
                if verdict != "UNDECIDED":
                    assert (verdict == "yes") == divides(probe, product), (labels, text, verdict)
                verdicts[verdict] += 1
        assert verdicts["yes"] >= 48 and verdicts["no"] >= 24, verdicts


class TestProbe:
    def test_default_q(self, capsys):
        code, out, _ = run(capsys, "probe", FIG2, "--trials", "50")
        assert code == 0
        assert "PROBE: ok" in out

    def test_explicit_q_failure(self, capsys):
        code, out, _ = run(capsys, "probe", FIG2, "--q", "80", "--trials", "200")
        assert code == 1
        assert "counterexample" in out

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(
            capsys, "probe", FIG2, "--q", "80", "--trials", "100", "--seed", "5", "--json"
        )
        code2, out2, _ = run(
            capsys, "probe", FIG2, "--q", "80", "--trials", "100", "--seed", "5", "--json"
        )
        assert out1 == out2 and code1 == code2

    @pytest.mark.parametrize("argv,trials,seed", [
        (["--q", "200"], 500, 12345),
        (["--q", "7", "--trials", "1", "--seed", "5"], 1, 5),
    ])
    def test_fig2_q_not_dividing_40_says_no_with_the_flow_up_basis(
            self, capsys, argv, trials, seed):
        # the flow-up basis (1,1,1), (0,4,4), (0,0,10) has determinant 40
        code, out, _ = run(capsys, "probe", FIG2, *argv, "--json")
        report = json.loads(out)
        assert (code, report["verdict"], report["trials"], report["seed"]) == (
            1, "no", trials, seed)
        assert report["counterexample"] == [["1", "1", "1"], ["0", "4", "4"], ["0", "0", "10"]]
        assert (report["Q"], report["provenance"]) == ("40", "pid-diagonal")
        code, out, _ = run(capsys, "probe", FIG2, *argv)
        assert code == 1 and "  C3 = (0, 0, 10)" in out

    def test_squares_q_times_y_squared_says_no_from_q(self, capsys):
        # q = y^2 * Q divides the pool's determinant, but not Q, the gcd of all
        q = "x^4*y^4 + 2*x^3*y^5 + x^2*y^6"
        code, out, _ = run(capsys, "probe", SQUARES, "--q", q, "--json")
        report = json.loads(out)
        assert (code, report["verdict"], report["counterexample"]) == (1, "no", None)
        assert (report["Q"], report["provenance"]) == (
            "x^4*y^2 + 2*x^3*y^3 + x^2*y^4", "coprime-product")
        code, out, _ = run(capsys, "probe", SQUARES, "--q", q)
        assert code == 1 and "PROBE: no (q does not divide Q = x^4*y^2" in out

    def test_undecided_when_q_is_only_the_label_lcm(self, capsys, tmp_path):
        # the path v1 -xy- v2 -x- v3: Q = xy is the label lcm, and x^2*y
        # divides the pool's determinant x^3*y
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "ring": {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]},
            "vertices": ["v1", "v2", "v3"],
            "edges": [{"u": "v1", "v": "v2", "label": "x*y"},
                      {"u": "v2", "v": "v3", "label": "x"}],
        }))
        code, out, _ = run(capsys, "probe", str(path), "--q", "x^2*y", "--json")
        report = json.loads(out)
        assert (code, report["verdict"], report["counterexample"]) == (0, "UNDECIDED", None)
        assert (report["Q"], report["provenance"]) == ("x*y", "lcm-lower-bound")
        code, out, _ = run(capsys, "probe", str(path), "--q", "x^2*y")
        assert code == 0 and "PROBE: UNDECIDED" in out

    @pytest.mark.parametrize("argv", [[], ["--q", "3"]])
    def test_q_is_computed_once(self, capsys, monkeypatch, argv):
        calls = []
        compute_q = cli.compute_q

        def counted(graph):
            calls.append(graph)
            return compute_q(graph)

        monkeypatch.setattr(cli, "compute_q", counted)
        monkeypatch.setattr("graphsplines.basis.compute_q", counted)
        run(capsys, "probe", FIG2, *argv)
        assert len(calls) == 1

    def test_lattice_is_built_once_for_a_counterexample(self, capsys, monkeypatch):
        # the flow-up basis Q was read from is the counterexample
        calls = []
        generators = lattice_module.spline_lattice_generators

        def counted(graph):
            calls.append(graph)
            return generators(graph)

        monkeypatch.setattr(lattice_module, "spline_lattice_generators", counted)
        code, out, _ = run(capsys, "probe", FIG2, "--q", "200", "--json")
        assert (code, json.loads(out)["counterexample"]) == (1, [["1", "1", "1"], ["0", "4", "4"],
                                                             ["0", "0", "10"]])
        assert len(calls) == 1


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "q", "no-such-file.json")
        assert code == 2
        assert "error" in err

    def test_bad_label_text(self, capsys):
        code, _, err = run(capsys, "verify", FIG2, "--spline", "a,b,c")
        assert code == 2

    def test_bad_vertex_order(self, capsys):
        for order in ("v1,v2", "", " "):  # an empty order is refused, not ignored
            code, _, err = run(capsys, "q", FIG2, "--vertex-order", order)
            assert code == 2, repr(order)
            assert "BAD_DOCUMENT: vertex order must be a permutation" in err

    def test_json_number_label(self, capsys, tmp_path):
        document = json.loads((GRAPHS_DIR / "fig2.json").read_text())
        document["edges"][0]["label"] = 4
        path = tmp_path / "number-label.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "flowup", str(path))
        assert code == 2
        assert "LABEL_PARSE" in err

    def test_deeply_nested_label(self, capsys, tmp_path):
        document = json.loads((GRAPHS_DIR / "xy.json").read_text())
        document["edges"][0]["label"] = "(" * 3000 + "x" + ")" * 3000
        path = tmp_path / "nested-label.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "q", str(path))
        assert code == 2
        assert "LABEL_PARSE" in err

    def test_deeply_nested_spline(self, capsys):
        nested = "(" * 3000 + "x" + ")" * 3000
        code, _, err = run(capsys, "verify", XY, "--spline", f"{nested},0,0")
        assert code == 2
        assert "nested deeper" in err

    def test_long_label_is_not_echoed_in_full(self, capsys, tmp_path):
        document = json.loads((GRAPHS_DIR / "fig2.json").read_text())
        document["edges"][0]["label"] = "(" * 3000 + "x" + ")" * 3000
        path = tmp_path / "nested-integer-label.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "q", str(path))
        assert code == 2
        assert "LABEL_PARSE" in err
        assert "6001 characters" in err
        assert len(err) < 300

    def test_large_power_label(self, capsys, tmp_path):
        document = json.loads((GRAPHS_DIR / "xy.json").read_text())
        document["edges"][0]["label"] = "(x+y+1)^200"
        path = tmp_path / "power-label.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "q", str(path))
        assert code == 2
        assert "LABEL_PARSE" in err

    def test_large_power_spline(self, capsys):
        code, _, err = run(capsys, "verify", XY, "--spline", "(x+y+1)^200,0,0")
        assert code == 2
        assert "more than 1000 terms" in err

    def test_power_with_huge_coefficient_label(self, capsys, tmp_path):
        document = json.loads((GRAPHS_DIR / "xy.json").read_text())
        document["edges"][0]["label"] = "3^10000000"
        path = tmp_path / "coefficient-power-label.json"
        path.write_text(json.dumps(document))
        start = time.perf_counter()
        code, _, err = run(capsys, "q", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "LABEL_PARSE" in err

    def test_power_with_huge_coefficient_spline(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", XY, "--spline", "3^10000000,0,0")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "more than 8192 bits" in err

    def test_overlong_integer_label(self, capsys, tmp_path):
        document = json.loads((GRAPHS_DIR / "fig2.json").read_text())
        document["edges"][0]["label"] = "7" * 5000
        path = tmp_path / "long-integer-label.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "q", str(path))
        assert code == 2
        assert "LABEL_PARSE" in err
        assert "set_int_max_str_digits" not in err

    def test_overlong_exponent_spline(self, capsys):
        code, _, err = run(capsys, "verify", XY, "--spline", f"x^{'1' * 5000},0,0")
        assert code == 2
        assert "integer literal too long" in err
        assert "set_int_max_str_digits" not in err

    def test_spline_parse_error_names_argument_and_entry(self, capsys):
        code, out, err = run(capsys, "check-basis", XY, "--spline", "1,1,1",
                             "--spline", "0,x,x+y", "--spline", "0,0,x*y+y^")
        assert (code, out) == (2, "")
        assert err == ("error: --spline 3, entry 3, character 7: "
                       "expected a natural-number exponent\n")
        code, _, err = run(capsys, "verify", FIG2, "--spline", "3,1x,5")
        assert code == 2
        assert err == "error: --spline 1, entry 2, character 1: malformed integer literal '1x'\n"
        # '²' is a digit to str.isdigit, not to int()
        code, _, err = run(capsys, "verify", XY, "--spline", "x^²,0,0")
        assert code == 2
        assert err == "error: --spline 1, entry 1, character 3: unexpected character '²'\n"
        code, _, err = run(capsys, "verify", XY, "--spline", "0,1/²,0")
        assert code == 2
        assert err == "error: --spline 1, entry 2, character 1: malformed rational literal\n"

    def test_spline_length_error_names_argument(self, capsys):
        code, _, err = run(capsys, "check-basis", XY, "--spline", "1,1,1", "--spline", "0,x")
        assert code == 2
        assert err == "error: --spline 2: spline has 2 entries; the graph has 3 vertices\n"

    def test_factor_and_q_parse_errors_name_the_argument(self, capsys):
        code, _, err = run(capsys, "search", XY, "--factors", "x;y^;x+y", "--degree", "2")
        assert code == 2
        assert err == ("error: --factors, factor 2, character 3: "
                       "expected a natural-number exponent\n")
        code, _, err = run(capsys, "probe", XY, "--q", "x*(y", "--trials", "1")
        assert code == 2
        assert err == "error: --q, character 5: expected ')'\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command,document,message", [
        ("q", [], "BAD_DOCUMENT: graph document must be a JSON object"),
        ("q", {"ring": {"kind": "int"}, "vertices": ["v1"], "edges": {}},
         "BAD_DOCUMENT: 'edges' must be a list"),
        ("q", {"ring": {"kind": "poly", "coefficients": "rat", "variables": ["x", "x"]},
               "vertices": ["v1"], "edges": []},
         "BAD_RING: duplicate variable name"),
        ("q", {"ring": {"kind": "poly", "coefficients": "int", "variables": ["2x"]},
               "vertices": ["v1"], "edges": []},
         "BAD_RING: bad variable name '2x'"),
        # v1~v2 twice, so no v3~v1 edge: a 3-vertex, 3-edge graph that is no 3-cycle
        ("obstruct", {"ring": {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]},
                      "vertices": ["v1", "v2", "v3"],
                      "edges": [{"u": "v1", "v": "v2", "label": "x"},
                                {"u": "v2", "v": "v1", "label": "y"},
                                {"u": "v2", "v": "v3", "label": "x + 1"}]},
         "the obstruction test needs three distinct edges"),
    ], ids=["array", "edges-object", "repeated-variable", "bad-variable", "repeated-pair"])
    def test_input_check_is_one_error_line(self, capsys, tmp_path, command, document,
                                           message, mode):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(document))
        assert run(capsys, command, str(path), *mode) == (2, "", f"error: {message}\n")

    def test_usage_error_is_returned(self, capsys):
        assert run(capsys, "search", XY)[0] == 2
        assert run(capsys, "no-such-command")[0] == 2
        assert run(capsys, "q", "--help")[0] == 0

    def test_closed_stdout(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "graphsplines", "flowup", FIG2],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=source_env(),
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr



# calls whose option value starts with "-", the value at index 3
DASH_VALUE_CALLS = [
    ("check-basis", FIG2, "--spline", "-4,0,0", "--spline", "2,10,0", "--spline", "1,1,1"),
    ("verify", XY, "--spline", "-x,0,0"),
    ("search", XY, "--factors", "-x;y;x+y", "--degree", "2"),
    ("probe", XY, "--q", "-x*y", "--trials", "5"),
    ("q", XY, "--vertex-order", "-v1,v2,v3"),
    # abbreviations argparse resolves to one option of the subcommand
    pytest.param(("verify", XY, "--spl", "-x,0,0"), id="verify-spl"),
    pytest.param(("check-basis", FIG2, "--spl", "-4,0,0", "--s", "2,10,0", "--spline", "1,1,1"),
                 id="check-basis-spl"),
    pytest.param(("search", XY, "--fac", "-x;y;x+y", "--degree", "2"), id="search-fac"),
    pytest.param(("q", XY, "--vert", "-v1,v2,v3"), id="q-vert"),
]


class TestDashValues:
    @pytest.mark.parametrize("argv", DASH_VALUE_CALLS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_separate_value_reads_as_joined(self, capsys, argv, mode):
        joined = (*argv[:2], f"{argv[2]}={argv[3]}", *argv[4:], *mode)
        code, out, err = run(capsys, *argv, *mode)
        assert (code, out, err) == run(capsys, *joined)
        # a wrong vertex order is an error of the document, not of the usage
        assert code != 2 or "BAD_DOCUMENT" in err

    def test_option_after_option_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", XY, "--spline", "--json")
        assert (code, out) == (2, "")
        assert "argument --spline: expected one argument" in err

    def test_ambiguous_prefix_is_left_to_argparse(self, capsys):
        parser = argparse.ArgumentParser(prog="demo")
        sub = parser.add_subparsers(dest="command").add_parser("verify")
        sub.add_argument("--spline")
        sub.add_argument("--splice")
        argv = ["verify", "--spl", "-x,0,0"]
        assert cli._join_dash_values(argv, parser) == argv  # a prefix of both
        assert cli._join_dash_values(["verify", "--splin", "-x"], parser) == [
            "verify", "--splin=-x"]
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(argv)
        assert exit_.value.code == 2
        assert "ambiguous option: --spl could match --spline, --splice" in capsys.readouterr().err

    def test_prefix_of_another_option_is_not_joined(self):
        # in probe, --s abbreviates --seed, which takes a number, not a label
        argv = ["probe", XY, "--s", "-3", "--q", "-x*y"]
        assert cli._join_dash_values(argv, cli._parser()) == argv[:4] + ["--q=-x*y"]


def _digits_value(text: str) -> int:
    """int(text) for decimal text of any length, parsed 4000 digits at a time."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    assert digits.isdigit()
    value = 0
    for start in range(0, len(digits), 4000):
        piece = digits[start:start + 4000]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


def _json_value(item):
    return _digits_value(item) if isinstance(item, str) else item


class TestLongOutput:
    """Results with integers past the 4300 digits str() converts still print."""

    # pairwise coprime: odd and two apart
    LABELS = [10 ** 1999 + 1234567 + 2 * k for k in range(3)]

    @pytest.fixture
    def triangle(self, tmp_path):
        a, b, c = (str(label) for label in self.LABELS)
        document = {
            "ring": {"kind": "int"},
            "vertices": ["v1", "v2", "v3"],
            "edges": [{"u": "v1", "v": "v2", "label": a}, {"u": "v2", "v": "v3", "label": b},
                      {"u": "v3", "v": "v1", "label": c}],
        }
        path = tmp_path / "long-triangle.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_q(self, capsys, triangle):
        a, b, c = self.LABELS
        code, out, err = run(capsys, "q", triangle)
        assert code == 0, err
        line = next(line for line in out.splitlines() if line.startswith("Q = "))
        assert _digits_value(line.split()[2]) == a * b * c
        code, out, err = run(capsys, "q", triangle, "--json")
        assert code == 0, err
        assert _digits_value(json.loads(out)["q"]) == a * b * c

    def test_flowup(self, capsys, triangle):
        a, b, c = self.LABELS
        code, out, err = run(capsys, "flowup", triangle)
        assert code == 0, err
        lines = out.splitlines()
        diagonal = next(line for line in lines if line.startswith("diagonal: "))
        assert [_digits_value(x) for x in diagonal[11:-1].split(", ")] == [1, a, b * c]
        determinant = next(line for line in lines if line.startswith("determinant: "))
        assert _digits_value(determinant.split()[1]) == a * b * c
        code, out, err = run(capsys, "flowup", triangle, "--json")
        assert code == 0, err
        report = json.loads(out, parse_int=_digits_value)
        assert [_json_value(x) for x in report["diagonal"]] == [1, a, b * c]
        assert _json_value(report["determinant"]) == a * b * c
        assert report["columns"][0] == [1, 1, 1]  # short ints stay JSON numbers

    def test_polynomial_coefficients(self, capsys, tmp_path):
        roots = [10 ** 1499 + k for k in (3, 7, 11)]
        document = {
            "ring": {"kind": "poly", "coefficients": "int", "variables": ["x"]},
            "vertices": ["v1", "v2", "v3"],
            "edges": [{"u": f"v{i + 1}", "v": f"v{(i + 1) % 3 + 1}", "label": f"x - {root}"}
                      for i, root in enumerate(roots)],
        }
        path = tmp_path / "long-coefficients.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "q", str(path), "--json")
        assert code == 0, err
        q = json.loads(out)["q"]
        r1, r2, r3 = roots
        pieces = q.split(" ")
        assert pieces[:2] == ["x^3", "-"] and pieces[3] == "+"
        assert _digits_value(pieces[2].removesuffix("*x^2")) == r1 + r2 + r3
        assert _digits_value(pieces[4].removesuffix("*x")) == r1 * r2 + r1 * r3 + r2 * r3
        assert pieces[5] == "-" and _digits_value(pieces[6]) == r1 * r2 * r3
        assert len(pieces[6]) > 4300

class TestLongExponent:
    """An exponent of more than 4300 digits prints as a polynomial's text."""

    LABEL = "(x^" + "9" * 4300 + ")^10"
    EXPONENT = 10 * (10 ** 4300 - 1)

    def _exponent(self, text):
        assert text.startswith("x^")
        return _digits_value(text[2:])

    def test_text(self):
        from graphsplines.polynomials import parse_polynomial

        text = str(parse_polynomial(self.LABEL, ("x",), "int"))
        assert len(text) == 2 + 4301
        assert self._exponent(text) == self.EXPONENT

    @pytest.fixture
    def path(self, tmp_path):
        document = {
            "ring": {"kind": "poly", "coefficients": "int", "variables": ["x"]},
            "vertices": ["v1", "v2"],
            "edges": [{"u": "v1", "v": "v2", "label": self.LABEL}],
        }
        path = tmp_path / "long-exponent.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_q(self, capsys, path):
        code, out, err = run(capsys, "q", path)
        assert code == 0, err
        line = next(line for line in out.splitlines() if line.startswith("Q = "))
        assert line.endswith(" (provenance: coprime-product)")
        assert self._exponent(line.split()[2]) == self.EXPONENT
        code, out, err = run(capsys, "q", path, "--json")
        assert code == 0, err
        report = json.loads(out)
        assert report["provenance"] == "coprime-product"
        assert self._exponent(report["q"]) == self.EXPONENT

    def test_flowup(self, capsys, path):
        code, out, err = run(capsys, "flowup", path)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[2] == "  class 0: (1, 1) (constant spline)"
        assert lines[3].startswith("  class 1: (0, ") and lines[3].endswith(")")
        assert self._exponent(lines[3][len("  class 1: (0, "):-1]) == self.EXPONENT
        code, out, err = run(capsys, "flowup", path, "--json")
        assert code == 0, err
        witnesses = json.loads(out)["witnesses"]
        assert witnesses[0] == ["1", "1"] and witnesses[1][0] == "0"
        assert self._exponent(witnesses[1][1]) == self.EXPONENT

    def test_verify_rejects_at_the_least_monomial(self):
        # x + y cannot divide the entry's difference x^EXPONENT: its least
        # monomial y does not divide x^EXPONENT, which the division checks
        # before taking one step per degree of the quotient
        result = subprocess.run(
            [sys.executable, "-m", "graphsplines", "verify", XY, "--json",
             "--spline", f"{self.LABEL},0,0"],
            capture_output=True, env=source_env(), text=True, timeout=5,
        )
        assert (result.returncode, result.stderr) == (1, "")
        report = json.loads(result.stdout)
        assert report["verdict"] == "no"
        assert [v["label"] for v in report["violations"]] == ["x + y"]


class TestHugeDegree:
    """Labels of degree 10^6 keep the determinant on polynomial Bareiss.

    An integer image of these matrices would hold millions of bits; the
    expected text is what the polynomial elimination prints.
    """

    @pytest.fixture
    def triangle(self, tmp_path):
        document = {
            "ring": {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]},
            "vertices": ["v1", "v2", "v3"],
            "edges": [{"u": "v1", "v": "v2", "label": "x^1000000"},
                      {"u": "v2", "v": "v3", "label": "y"},
                      {"u": "v3", "v": "v1", "label": "x^1000000 + y"}],
        }
        path = tmp_path / "huge-degree.json"
        path.write_text(json.dumps(document))
        return str(path)

    @staticmethod
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "graphsplines", *argv],
                              capture_output=True, env=source_env(), text=True, timeout=60)

    def test_probe(self, triangle):
        result = self.cli("probe", triangle, "--trials", "3")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (
            "graph: 3 vertices, 3 edges over QQ[x,y]\n"
            "q = x^2000000*y + x^1000000*y^2, trials = 3, seed = 12345\n"
            "PROBE: ok (q divides all 3 sampled determinants)\n"
        )

    def test_check_basis(self, triangle):
        columns = ["1,1,1", "0,x^1000000,x^1000000+y"]
        result = self.cli("check-basis", triangle, *(f"--spline={c}" for c in columns),
                          "--spline=0,0,y*(x^1000000+y)")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (
            "graph: 3 vertices, 3 edges over QQ[x,y]\n"
            "determinant: x^2000000*y + x^1000000*y^2\n"
            "Q = x^2000000*y + x^1000000*y^2 (coprime-product)\n"
            "BASIS: yes (unit 1)\n"
        )
        result = self.cli("check-basis", triangle, *(f"--spline={c}" for c in columns),
                          "--spline=0,0,x*y*(x^1000000+y)")
        assert (result.returncode, result.stderr) == (1, "")
        assert result.stdout == (
            "graph: 3 vertices, 3 edges over QQ[x,y]\n"
            "determinant: x^2000001*y + x^1000001*y^2\n"
            "Q = x^2000000*y + x^1000000*y^2 (coprime-product)\n"
            "BASIS: no\n"
            "  reason: determinant is not a unit multiple of Q\n"
        )


def test_bundled_demos(tmp_path):
    # without PYTHONPATH the script still imports this checkout's package, and
    # -O strips every assert, so no demo's verdict may rest on one
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-O", str(ROOT / "scripts" / "run_demos.py")],
        capture_output=True,
        cwd=tmp_path,
        env=env,
        text=True,
        timeout=300,
    )
    assert (result.returncode, result.stderr) == (0, ""), result.stdout + result.stderr
    assert "all 22 demos behaved as expected" in result.stdout
