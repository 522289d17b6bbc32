#!/usr/bin/env python3
"""Check that two checkouts print the same thing for the same CLI calls.

    python3 scripts/same_outputs.py BASE CHANGE --workload poly-det --seed 11

Runs every call of the given splinebench workloads and seeds, plus the
bundled demo commands of ``scripts/run_demos.py``, further probes and a
search on the bundled graphs, probes at the default trials with their own Q
and with a ``--q`` that divides the pool's determinant but not Q on the
bundled and seeded poly-det graphs, searches on labels with rational
coefficients, on 3-variable cycles, K4s and a 2-vertex multigraph, calls
at the edges of the integer-image determinant and gcd kernels, basis
checks of triangular
candidates, verify and check-basis calls whose entries nest scaled groups or
cross a packed field boundary, integer-lattice calls on graphs whose
vertices have far apart label lcms, coprimality tests of linear labels,
label lcms of cycles whose labels share factors, calls whose input
fails to parse, graph documents with one fault per GraphError code the
loader raises, verify and check-basis calls whose entries repeat,
with flowup on integer and polynomial graphs, obstruct on triangles with
each of its verdicts (over ZZ[x] up to a monic label of degree 100),
searches without ``--degree`` and at the forced
degree on homogeneous graphs, and search and obstruct on triangles whose
labels share a factor, each in JSON and in text mode, through
``graphsplines.cli.main`` of each checkout (imported from its ``src/`` in a
child interpreter), and reports every call whose stdout, stderr or exit
code differs. The instances are generated once, by this
checkout's ``splinebench/workloads.py``, and both checkouts read the same
files. Exits 1 if any call differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def demo_calls(graphs: Path) -> list:
    """The argv of every bundled demo command, with its graph under ``graphs``."""
    sys.path.insert(0, str(ROOT / "scripts"))
    import run_demos

    return [[args[0], str(graphs / args[1]), *args[2:]] for _, args in run_demos.DEMOS]


def error_calls(graphs: Path, directory: Path) -> list:
    """The argv of calls whose input fails to parse, so their stderr is compared too.

    Malformed ``--spline`` entries, ``--factors`` and ``--q`` on the bundled
    graphs under ``graphs``, and graphs with a malformed label, written to
    ``directory``.
    """
    xy, fig2 = str(graphs / "xy.json"), str(graphs / "fig2.json")
    calls = [
        ["verify", xy, "--spline", "x,y^-1,0"],
        ["verify", xy, "--spline", "x,2y,0"],
        ["verify", xy, "--spline", "x,y^\u00b2,0"],
        ["verify", xy, "--spline", "1/,0,0"],
        ["verify", xy, "--spline", "(" * 101 + "x" + ")" * 101 + ",0,0"],
        ["check-basis", xy, "--spline", "1,1,1", "--spline", "0,x,x+y",
         "--spline", "0,0,y*(x+y"],
        ["check-basis", xy, "--spline", "1,1,1", "--spline", "0,x,3^10000000"],
        ["search", xy, "--factors", "x;y;x+\u00e9", "--degree", "2"],
        ["search", xy, "--factors", "x;(x+y+1)^44;y", "--degree", "2"],
        ["probe", xy, "--q", "x*y*(x+y)^-1", "--trials", "5"],
        ["probe", xy, "--q", "x^2^3", "--trials", "5"],
        ["probe", fig2, "--q", "8/0", "--trials", "5"],
    ]
    document = json.loads((graphs / "xy.json").read_text())
    for index, label in enumerate(("x + 2y", "x*(y + 1/0)", "_a + x")):
        document["edges"][0]["label"] = label
        path = directory / f"bad-label-{index}.json"
        path.write_text(json.dumps(document))
        calls += [["q", str(path)], ["flowup", str(path)]]
    return calls


def probe_search_calls(graphs: Path) -> list:
    """The argv of probes and a search on the bundled graphs under ``graphs``.

    The first five probes say no, each with its pool as the counterexample
    (its determinant is not a multiple of q), the other five say yes, and
    the search runs in a permuted vertex order.
    """
    xy, squares, zx, fig2 = (
        str(graphs / f"{name}.json") for name in ("xy", "squares", "zx-obstruction", "fig2")
    )
    return [
        ["probe", xy, "--q", "x^2*y", "--trials", "50"],
        ["probe", squares, "--q", "x^3*y^2", "--trials", "50"],
        ["probe", zx, "--q", "8*x^2+8*x"],
        ["probe", zx, "--q", "12*x^2+12*x"],
        ["probe", fig2, "--q", "7", "--seed", "3"],
        ["probe", xy, "--trials", "20"],
        ["probe", xy, "--vertex-order", "v3,v1,v2", "--trials", "20"],
        ["probe", squares, "--vertex-order", "v2,v3,v1", "--trials", "20"],
        ["probe", zx, "--trials", "20", "--seed", "5"],
        ["probe", fig2, "--vertex-order", "v3,v2,v1", "--q", "20", "--trials", "100"],
        ["search", xy, "--vertex-order", "v2,v3,v1", "--factors", "x;y;x+y", "--degree", "2"],
    ]


# the triangles (a, b, c) of obstruct_calls beside the bundled ones: a affine
# member over QQ[x,y], the triangle (x, y, z), whose a is not a member, a
# member over ZZ[x] with monic c and one with monic b, a triangle over ZZ[x]
# with a flow-up basis but neither b nor c monic, which is UNDECIDABLE, a
# member whose c has leading coefficient -1 (a = (x + 1)*3 - c), and a
# member beside the unit label c = 1, whose residues modulo c are empty
OBSTRUCT_TRIANGLES = {
    "affine": ("rat", ["x", "y"], ["x + y + 1", "y + 1", "x"]),
    "koszul": ("rat", ["x", "y", "z"], ["x", "y", "z"]),
    "zx-monic-c": ("int", ["x"], ["x + 3", "3", "x"]),
    "zx-monic-b": ("int", ["x"], ["x + 3", "x", "3"]),
    "zx-no-monic": ("int", ["x"], ["x + 3", "2*x", "3"]),
    "zx-lead-minus-one": ("int", ["x"], ["x^2 + 2*x + 2", "3", "-x^2 + x + 1"]),
    "zx-unit": ("int", ["x"], ["x + 1", "x", "1"]),
}
# the degrees d of obstruct_calls' seeded ZZ[x] triangles (a, b, m): m has
# degree d and leading coefficient 1, b has degree d // 2 and leading
# coefficient 2, both with the other coefficients in -9..9; a = b*(x + 2) + m
# is a member of (b, m) and a = x + 1 is not
OBSTRUCT_LATTICE_DEGREES = (30, 100)


def _zx_text(coefficients) -> str:
    """A ZZ[x] label with the given coefficients, lowest degree first."""
    terms = [f"{c}*x^{i}" for i, c in enumerate(coefficients) if c]
    return " + ".join(reversed(terms)).replace("+ -", "- ")


def obstruct_calls(graphs: Path, directory: Path) -> list:
    """The argv of ``obstruct`` on the bundled triangles under ``graphs``, one
    of them in a permuted vertex order, on OBSTRUCT_TRIANGLES and on the
    seeded triangles of OBSTRUCT_LATTICE_DEGREES, written to ``directory``."""
    calls = [["obstruct", str(graphs / f"{name}.json")]
             for name in ("squares", "xy", "zx-obstruction", "fig2")]
    calls.append(["obstruct", str(graphs / "xy.json"), "--vertex-order", "v2,v3,v1"])
    triangles = dict(OBSTRUCT_TRIANGLES)
    for d in OBSTRUCT_LATTICE_DEGREES:
        rng = random.Random(f"obstruct-zx-{d}")
        m = _zx_text([rng.randint(-9, 9) for _ in range(d)] + [1])
        b = _zx_text([rng.randint(-9, 9) for _ in range(d // 2)] + [2])
        triangles[f"zx-{d}-member"] = ("int", ["x"], [f"({b})*(x + 2) + {m}", b, m])
        triangles[f"zx-{d}-non-member"] = ("int", ["x"], ["x + 1", b, m])
    for name, (coefficients, variables, labels) in triangles.items():
        ring = {"kind": "poly", "coefficients": coefficients, "variables": variables}
        calls.append(["obstruct", write_graph(directory, f"obstruct-{name}", ring, labels)])
    return calls


# triangles whose labels share a factor, which the bounded search and the
# obstruction test refuse: over QQ[x,y] x divides x*y, over ZZ[x] also
REFUSED_TRIANGLES = {
    "qq": ("rat", ["x", "y"], ["x*y", "x", "y + 1"]),
    "zx": ("int", ["x"], ["x*(x + 1)", "x", "3"]),
}


def refusal_calls(directory: Path) -> list:
    """The argv of ``search`` and ``obstruct`` on the QQ[x,y] triangle of
    REFUSED_TRIANGLES and of ``obstruct`` on the ZZ[x] one, written to
    ``directory``; each call exits 2 with its refusal."""
    paths = {}
    for name, (coefficients, variables, labels) in REFUSED_TRIANGLES.items():
        ring = {"kind": "poly", "coefficients": coefficients, "variables": variables}
        paths[name] = write_graph(directory, f"refused-{name}", ring, labels)
    return [["search", paths["qq"], "--factors", "x;x;y;y + 1", "--degree", "2"],
            ["obstruct", paths["qq"]], ["obstruct", paths["zx"]]]


# the bundled graphs over QQ of forced_degree_calls, with factors and forced degree
FORCED_DEGREE_BUNDLED = (("xy", "x;y;x+y", 2), ("squares", "x;x;y;y;x+y;x+y", 4))
# the edges of its seeded graphs: a 4-cycle, and the 4-cycle with the chord
# v1v3 or v2v4
FORCED_DEGREE_SHAPES = (
    [(0, 1), (1, 2), (2, 3), (3, 0)],
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)],
)


def forced_degree_calls(graphs: Path, directory: Path) -> list:
    """The argv of searches without ``--degree`` and at the forced degree D.

    On FORCED_DEGREE_BUNDLED under ``graphs``, and on 12 seeded graphs of
    FORCED_DEGREE_SHAPES over QQ[x,y], written to ``directory``, whose labels
    are products of one or two of the forms y and x + k*y, each used once:
    homogeneous and pairwise coprime. D = max_i deg L_i, L_i the product of
    the labels joining vertex i to earlier ones. A checkout that requires
    ``--degree`` rejects the calls without it with a usage error.
    """
    cases = [(str(graphs / f"{name}.json"), factors, degree)
             for name, factors, degree in FORCED_DEGREE_BUNDLED]
    rng = random.Random("forced-degree")
    ring = {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]}
    for k in range(12):
        pairs = FORCED_DEGREE_SHAPES[k % len(FORCED_DEGREE_SHAPES)]
        pool = ["y"] + [f"x + {j}*y".replace("+ -", "- ") for j in range(-4, 5)]
        rng.shuffle(pool)
        counts = [rng.randint(1, 2) for _ in pairs]
        labels = ["*".join(f"({pool.pop()})" for _ in range(count)) for count in counts]
        names = ["v1", "v2", "v3", "v4"]
        edges = [{"u": names[u], "v": names[v], "label": label}
                 for (u, v), label in zip(pairs, labels)]
        path = directory / f"forced-degree-{k}.json"
        path.write_text(json.dumps({"ring": ring, "vertices": names, "edges": edges}))
        degree = max(sum(count for (u, v), count in zip(pairs, counts) if max(u, v) == i)
                     for i in range(len(names)))
        cases.append((str(path), ";".join(labels), degree))
    return [["search", path, "--factors", factors, *bound] for path, factors, degree in cases
            for bound in ([], ["--degree", str(degree)])]


# the seeds of the poly-det graphs that default_probe_calls probes
PROBE_SEEDS = (11, 23)


def default_probe_calls(graphs: Path, directory: Path) -> list:
    """The argv of probes at the default 500 trials and seed, on the bundled
    graphs under ``graphs`` and on the poly-det graphs of PROBE_SEEDS,
    written to ``directory``.

    Each graph is probed with its own Q and with ``--q`` the product of its
    labels times the label of an edge away from its first vertex. That edge
    joins two later vertices, so its label divides two witnesses of the
    pool, and the product divides the pool's determinant. It does not
    divide Q, so that probe says no: with the flow-up basis as the
    counterexample over ZZ, and from Q alone for pairwise coprime labels.
    """
    sys.path.insert(0, str(ROOT / "splinebench"))
    import workloads

    paths = sorted(graphs.glob("*.json"))
    for seed in PROBE_SEEDS:
        folder = directory / f"default-probe-{seed}"
        workloads.write_graphs(workloads.build("poly-det", seed), folder)
        paths += sorted(folder.glob("*.json"))
    calls = []
    for path in paths:
        document = json.loads(path.read_text())
        labels = [edge["label"] for edge in document["edges"]]
        first = document["vertices"][0]
        far = [edge["label"] for edge in document["edges"] if first not in (edge["u"], edge["v"])]
        calls.append(["probe", str(path)])
        if not far:
            continue
        factors = [*labels, far[0]]
        if document["ring"]["kind"] == "int":  # an integer --q is one literal
            q = str(math.prod(map(int, factors)))
        else:
            q = "*".join(f"({label})" for label in factors)
        calls.append(["probe", str(path), "--q", q])
    return calls


# X and Y of the affine images in rational_search_calls
RATIONAL_IMAGES = (("(1/2*x + 5/7)", "(2/3*y + 7/4)"), ("(3/5*y - 1/3)", "(-7/2*x + 1/6)"))


def rational_search_calls(directory: Path) -> list:
    """The argv of searches on labels with rational coefficients, their graphs
    written to ``directory``.

    Each of RATIONAL_IMAGES replaces x, y by X, Y in the 3-cycle
    ``(x, y, x + y)`` and the 4-cycle ``(x, y, x + y, x - y)``, which have a
    flow-up basis, and in the squares ``(x^2, y^2, (x + y)^2)``, which are
    NONEXISTENT; each graph is searched at degrees 2 and 3.
    """
    ring = {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]}
    calls = []
    for index, (X, Y) in enumerate(RATIONAL_IMAGES):
        total = f"{X} + {Y}"
        cases = {
            "xy": ([X, Y, total], [X, Y, total]),
            "c4": ([X, Y, total, f"{X} - {Y}"], [X, Y, total, f"{X} - {Y}"]),
            "sq": ([f"{X}^2", f"{Y}^2", f"({total})^2"], [X, X, Y, Y, total, total]),
        }
        for case, (labels, factors) in cases.items():
            names = [f"v{k + 1}" for k in range(len(labels))]
            edges = [
                {"u": names[k], "v": names[(k + 1) % len(names)], "label": label}
                for k, label in enumerate(labels)
            ]
            path = directory / f"rational-{case}-{index}.json"
            path.write_text(json.dumps({"ring": ring, "vertices": names, "edges": edges}))
            calls += [
                ["search", str(path), "--factors", ";".join(factors), "--degree", str(degree)]
                for degree in (2, 3)
            ]
    return calls


def write_graph(directory: Path, name: str, ring: dict, labels, cycle=True) -> str:
    """Write a cycle with one vertex per label, or a path with one vertex more,
    to ``directory``; returns its path."""
    names = [f"v{k + 1}" for k in range(len(labels) + (not cycle))]
    edges = [{"u": names[k], "v": names[(k + 1) % len(names)], "label": label}
             for k, label in enumerate(labels)]
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"ring": ring, "vertices": names, "edges": edges}))
    return str(path)


def kernel_calls(directory: Path) -> list:
    """The argv of calls at the edges of the integer-image kernels, their graphs
    written to ``directory``.

    A triangle with ``x^1000000`` labels over ZZ[x,y], past the image budget,
    so its determinants stay on polynomial Bareiss; ``q`` on two-edge paths
    whose coprimality test runs the heuristic gcd near its budget (degree
    10001 over QQ[x]) and the primitive remainder sequence fallback past it
    (degree 20001 over ZZ[x], and the sparse labels x^20000 + 1 and
    2*x^10000 + 1, whose leading coefficient is not 1); and ``check-basis``
    on a triangle over ZZ[x,y] whose determinant has degree 62 in y, so the
    images' coefficients are read back as more than 60 digits, once as a
    basis and once not. A triangular candidate's determinant is its diagonal
    product, so each ``check-basis`` candidate is also given mixed by the
    unimodular U with columns (B1, B1 + B2, B2 + B3), which keeps its
    determinant and takes it through the kernel.
    """

    def write(name, coefficients, variables, labels, cycle=True):
        ring = {"kind": "poly", "coefficients": coefficients, "variables": variables}
        return write_graph(directory, f"kernel-{name}", ring, labels, cycle)

    def mixed(b1, b2, b3):
        """The --spline flags of (B1, B1 + B2, B2 + B3) for columns given as entry lists."""
        columns = (b1, [f"{u}+{v}" for u, v in zip(b1, b2)],
                   [f"{u}+{v}" for u, v in zip(b2, b3)])
        return [arg for column in columns for arg in ("--spline", ",".join(column))]

    huge = write("huge-degree", "int", ["x", "y"], ["x^1000000", "y", "x^1000000 + y"])
    near = write("near-budget", "rat", ["x"], ["x^10000 + 1", "x^10001 + 1"], cycle=False)
    past = write("past-budget", "int", ["x"], ["x^20000 + 1", "x^20001 + 1"], cycle=False)
    sparse = write("sparse-past-budget", "int", ["x"], ["x^20000 + 1", "2*x^10000 + 1"],
                   cycle=False)
    a, b, c = "y^20 + x", "y^21 - x", "y^21 + y^20"  # pairwise coprime, a + b = c
    deep = write("deep-digits", "int", ["x", "y"], [a, b, c])
    return [
        ["probe", huge, "--trials", "3"],
        ["check-basis", huge, "--spline", "1,1,1", "--spline", "0,x^1000000,x^1000000+y",
         "--spline", "0,0,y*(x^1000000+y)"],
        ["check-basis", huge, *mixed(["1", "1", "1"], ["0", "x^1000000", "x^1000000+y"],
                                     ["0", "0", "y*(x^1000000+y)"])],
        ["q", near],
        ["q", past],
        ["q", sparse],
        ["check-basis", deep, "--spline", "1,1,1", "--spline", f"0,{a},{c}",
         "--spline", f"0,0,({b})*({c})"],
        ["check-basis", deep, "--spline", "1,1,1", "--spline", f"0,{a},{c}",
         "--spline", f"0,0,x*({b})*({c})"],
        ["check-basis", deep, *mixed(["1", "1", "1"], ["0", a, c], ["0", "0", f"({b})*({c})"])],
        ["check-basis", deep, *mixed(["1", "1", "1"], ["0", a, c],
                                     ["0", "0", f"x*({b})*({c})"])],
    ]


def triangular_calls(graphs: Path, directory: Path) -> list:
    """The argv of ``check-basis`` on candidates that are upper triangular,
    diagonal or have a zero on the diagonal, with further graphs written to
    ``directory``.

    Over ZZ (``fig2.json`` under ``graphs`` and a one-edge path labelled 1),
    ZZ[x,y] (the triangle x, y, x + y) and QQ[x,y] (``xy.json`` and a path
    labelled 2, 3, whose labels are units); the verdicts are yes and no.
    """
    fig2, xy = str(graphs / "fig2.json"), str(graphs / "xy.json")
    unit_zz = write_graph(directory, "triangular-unit-zz", {"kind": "int"}, ["1"], cycle=False)
    xy_zz = write_graph(directory, "triangular-xy-zz",
                        {"kind": "poly", "coefficients": "int", "variables": ["x", "y"]},
                        ["x", "y", "x + y"])
    unit_qq = write_graph(directory, "triangular-unit-qq",
                          {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]},
                          ["2", "3"], cycle=False)
    candidates = [
        (fig2, ["4,0,0", "2,10,0", "1,1,1"]),  # upper, a basis
        (fig2, ["12,0,0", "2,10,0", "1,1,1"]),  # upper, 3 times a basis
        (fig2, ["20,0,0", "0,20,0", "0,0,20"]),  # lcm * I
        (fig2, ["1,1,1", "0,0,10", "0,0,10"]),  # zero on the diagonal
        (unit_zz, ["1,0", "0,-1"]),  # diagonal, a basis
        (xy_zz, ["(-x)*(x+y),0,0", "x+y,y,0", "1,1,1"]),  # upper, a basis (unit -1)
        (xy_zz, ["x*(x+y),0,0", "0,x*y,0", "0,0,y*(x+y)"]),  # diagonal
        (xy_zz, ["1,1,1", "0,x,x+y", "0,0,0"]),  # a zero column
        (xy, ["x*(x+y),0,0", "x+y,y,0", "1,1,1"]),  # upper, a basis
        (xy, ["x^2+x*y,0,0", "0,x*y,0", "1,1,1"]),  # upper, the flow-up witnesses
        (xy, ["x*y*(x+y),0,0", "0,x*y*(x+y),0", "0,0,x*y*(x+y)"]),  # lcm * I
        (xy, ["1,1,1", "0,0,y*(x+y)", "0,0,y*(x+y)"]),  # zero on the diagonal
        (unit_qq, ["1,0,0", "0,1/2,0", "0,0,7"]),  # diagonal, a basis
    ]
    return [["check-basis", graph, *(arg for column in columns for arg in ("--spline", column))]
            for graph, columns in candidates]


# the labels of the graphs of search_shape_calls: cycles over QQ[x,y,z], and
# K4s over QQ[x,y] whose edges v1v2, v1v3, v1v4, v2v3, v2v4, v3v4 take the
# labels in turn (three of them chords of the 4-cycle v1, v2, v4, v3)
SEARCH_SHAPES = {
    "c3": ("x + z", "y", "x + y + z"),
    "c3-none": ("x", "y", "z"),
    "c4": ("x + z", "y", "x + y + z", "x - y + z"),
    "k4": ("x", "y", "x + y", "x - y", "x + 2*y", "2*x + y"),
    "k4-none": ("1/2*x", "y", "x + 1/3*y", "x - y", "x + 2*y", "2*x + y"),
    "m2": ("x + 2*y", "y - 1"),
}


def search_shape_calls(directory: Path) -> list:
    """The argv of searches on the SEARCH_SHAPES graphs, written to ``directory``.

    The 3-cycle ``c3``, the 4-cycle in cycle order and the K4 ``k4`` at
    degree 3 have a flow-up basis; ``c3`` at degree 1, ``c3-none``,
    ``k4-none``, ``k4`` at degree 2 and the 4-cycle in the order v1, v3, v2,
    v4 are NONEXISTENT. ``m2`` is two vertices joined by two edges, so it has
    no interior class: a basis at degree 2, NONEXISTENT at degree 1. Some
    calls take a permuted vertex order.
    """
    paths = {}
    for name, labels in SEARCH_SHAPES.items():
        if name.startswith(("c", "m")):
            variables = ["x", "y", "z"] if name.startswith("c") else ["x", "y"]
            ring = {"kind": "poly", "coefficients": "rat", "variables": variables}
            paths[name] = write_graph(directory, f"shape-{name}", ring, labels)
            continue
        ring = {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]}
        names = ["v1", "v2", "v3", "v4"]
        edges = [{"u": names[u], "v": names[v], "label": label}
                 for (u, v), label in zip(itertools.combinations(range(4), 2), labels)]
        paths[name] = str(directory / f"shape-{name}.json")
        Path(paths[name]).write_text(json.dumps({"ring": ring, "vertices": names, "edges": edges}))
    searches = [
        ("c3", 1, None), ("c3", 2, None), ("c3", 2, "v3,v2,v1"),
        ("c3-none", 3, None), ("c3-none", 2, "v2,v3,v1"),
        ("c4", 2, None), ("c4", 3, "v1,v3,v2,v4"), ("c4", 2, "v4,v3,v2,v1"),
        ("k4", 3, None), ("k4", 3, "v4,v2,v3,v1"), ("k4", 2, None),
        ("k4-none", 3, "v2,v4,v1,v3"),
        ("m2", 2, None), ("m2", 1, None), ("m2", 2, "v2,v1"), ("m2", 1, "v2,v1"),
    ]
    calls = []
    for name, degree, order in searches:
        argv = ["search", paths[name], "--factors", ";".join(SEARCH_SHAPES[name]),
                "--degree", str(degree)]
        calls.append(argv + (["--vertex-order", order] if order else []))
    return calls


def parser_calls(graphs: Path) -> list:
    """The argv of ``verify`` and ``check-basis`` on the bundled graphs under
    ``graphs``, with entries that nest scaled groups or whose degrees cross
    the 2^15 boundary of the narrowest packed field.

    The scaled groups take the shape of the seeded check-basis columns: the
    flow-up basis of ``xy.json`` mixed by a unit upper triangular matrix,
    each entry a sum of ``(u)*((t))``. The wide entries reach the boundary
    inside and outside groups, and some cancel back below it.
    """
    xy, squares, zx = (str(graphs / f"{name}.json") for name in ("xy", "squares", "zx-obstruction"))
    basis = (["1", "1", "1"], ["0", "x", "x + y"], ["0", "0", "y*(x + y)"])

    def mixed(columns, signs):
        """The --spline flags of (B1, B2 + s1*B1, B3 + s2*B2 + s3*B1) as sums of scaled groups."""
        s1, s2, s3 = signs
        units = ((1,), (s1, 1), (s3, s2, 1))
        flags = []
        for row in units:
            entries = [" + ".join(f"({u})*(({column[i]}))" for u, column in zip(row, columns))
                       for i in range(3)]
            flags += ["--spline", ",".join(entries)]
        return flags

    wide = [list(column) for column in basis]
    wide[2][2] = "x^40000*y*(x + y)"
    cancelled = [list(column) for column in basis]
    cancelled[2][2] = "(x^40000 + y*(x + y)) - x^40000"
    return [
        ["verify", xy, "--spline", "x^40000*(x + y),0,0"],
        ["verify", xy, "--spline", "x^40000 - x^40000 + x*(x + y),0,0"],
        ["verify", xy, "--spline", "(x^16384 + y)^2 - (x^16384 + y)^2,x,0"],
        ["verify", xy, "--spline", "0,(x*y)^16384,(x*y)^16384 + (x + y)*y^32768"],
        ["verify", xy, "--spline", "(x^16383*y + 1)*(x^16383 + 1)*x*(x + y),0,0"],
        ["verify", squares, "--spline",
         "(1)*(((x + y)^2)*((x^2))) + (-1)*((x^2)*((x + y)^2)),(3)*((x^2)*(((y^2)))),0"],
        ["verify", squares, "--spline", "(2)*(((x^2)*((y^2)))),0,(x^2)^16384*(x + y)^2"],
        ["verify", zx, "--spline", "2*x*(x + 1)*x^40000,0,0"],
        ["verify", zx, "--spline", "(x^20000 + 1)*(x^20000 - 1) - x^40000 + 1,x + 1,0"],
        ["check-basis", xy, *mixed(basis, (1, -1, 1))],
        ["check-basis", xy, *mixed(basis, (-1, 1, -1))],
        ["check-basis", xy, *mixed(wide, (1, 1, -1))],
        ["check-basis", xy, *mixed(cancelled, (-1, -1, 1))],
        ["check-basis", xy, *(arg for column in wide for arg in ("--spline", ",".join(column)))],
    ]


def spline_flags(columns) -> list:
    """The ``--spline`` flags of columns given as text."""
    return [arg for column in columns for arg in ("--spline", column)]


def lattice_calls(base: Path, directory: Path) -> list:
    """The argv of integer-lattice calls whose vertices have far apart label
    lcms, their graphs written to ``directory``.

    A hub with six 9-digit spokes and a pendant path with small labels, a
    multigraph whose parallel edges carry powers of 2 and 3, and a K12 with
    9-digit labels. Each graph gets ``flowup``, ``q``, ``check-basis`` of its
    flow-up basis (taken from ``base``) mixed by the unimodular matrix with
    columns (B1, B1 + B2, ..., B(n-1) + Bn), which is a basis, and of that
    candidate with its last column doubled, which is not, and ``verify`` of
    the sum of the basis columns, a spline, and of that sum plus the last
    unit vector, which is not; then ``flowup`` and ``q`` again in the
    reversed vertex order, so the canonical form is compared under other
    pivot orders than the document's.
    """
    rng = random.Random("same-outputs/lattice")

    def nine_digits():
        return str(rng.randrange(10**8, 10**9))

    hub = [("h", f"s{k}", nine_digits()) for k in range(1, 7)]
    hub += [("s1", "p1", "6"), ("p1", "p2", "4"), ("p2", "p3", "9"), ("p3", "p4", "2")]
    multi = [("a", "b", "8"), ("a", "b", "9"), ("b", "c", "4"), ("b", "c", "27"),
             ("c", "d", "2"), ("c", "d", "3"), ("d", "a", "16"), ("a", "c", "81")]
    k12 = [(f"v{u + 1}", f"v{v + 1}", nine_digits())
           for u, v in itertools.combinations(range(12), 2)]
    calls = []
    for name, edges in (("hub", hub), ("multi", multi), ("k12", k12)):
        names = list(dict.fromkeys(end for edge in edges for end in edge[:2]))
        path = directory / f"lattice-{name}.json"
        path.write_text(json.dumps({
            "ring": {"kind": "int"}, "vertices": names,
            "edges": [{"u": u, "v": v, "label": label} for u, v, label in edges],
        }))
        columns = json.loads(run_calls(base, [["flowup", str(path), "--json"]])[0][1])["columns"]
        n = len(columns)
        mixed = [columns[0]] + [[a + b for a, b in zip(columns[k - 1], columns[k])]
                                for k in range(1, n)]
        doubled = mixed[:-1] + [[2 * entry for entry in mixed[-1]]]
        spline = [sum(entries) for entries in zip(*columns)]
        off = spline[:-1] + [spline[-1] + 1]
        texts = [[",".join(map(str, column)) for column in candidate]
                 for candidate in (mixed, doubled, [spline], [off])]
        graph = str(path)
        calls += [["flowup", graph], ["q", graph]]
        calls += [[command, graph, *spline_flags(candidate)]
                  for command, candidate in zip(["check-basis"] * 2 + ["verify"] * 2, texts)]
        reversed_order = ["--vertex-order", ",".join(reversed(names))]
        calls += [["flowup", graph, *reversed_order], ["q", graph, *reversed_order]]
    return calls


# the triangles (a, b, a + b) of coprime_calls, whose second label is linear:
# a content shared with a nonlinear first label (coprime over QQ only), two
# contents that are coprime, a linear label dividing the quadratic first one,
# proportional linear labels and three coprime linear labels
COPRIME_TRIANGLES = {
    "content": ("2*x^2 + 2", "4*y + 6"),
    "content-coprime": ("3*x^2 + 3", "4*y + 6"),
    "divides": ("x^2 - y^2", "x + y"),
    "proportional": ("2*x + 4*y", "3*x + 6*y"),
    "linear": ("x + 1", "2*y - 3"),
}


def coprime_calls(directory: Path) -> list:
    """The argv of ``q``, ``check-basis`` and ``probe`` on cycles over ZZ[x,y]
    and QQ[x,y] whose labels exercise the coprimality test of linear labels,
    their graphs written to ``directory``.

    Each of COPRIME_TRIANGLES is the triangle (a, b, a + b), whose flow-up
    basis (1, 1, 1), (0, a, a + b), (0, 0, b*(a + b)) is checked as it is and
    with its last column times x, and probed with its own Q and with
    ``x*a*b*(a + b)``; the 4-cycle (x, y, x + y, x - y) of linear labels gets
    ``q`` and ``probe`` only. Over each ring some are pairwise coprime and
    some are not.
    """
    calls = []
    for coefficients in ("int", "rat"):
        ring = {"kind": "poly", "coefficients": coefficients, "variables": ["x", "y"]}
        for name, (a, b) in COPRIME_TRIANGLES.items():
            c = f"{a} + {b}"
            graph = write_graph(directory, f"coprime-{name}-{coefficients}", ring, [a, b, c])
            basis = ["1,1,1", f"0,{a},{c}", f"0,0,({b})*({c})"]
            calls += [
                ["q", graph],
                ["check-basis", graph, *spline_flags(basis)],
                ["check-basis", graph, *spline_flags(basis[:2] + [f"0,0,x*({b})*({c})"])],
                ["probe", graph, "--trials", "10"],
                ["probe", graph, "--q", f"x*({a})*({b})*({c})", "--trials", "10"],
            ]
        cycle = write_graph(directory, f"coprime-c4-{coefficients}", ring,
                            ["x", "y", "x + y", "x - y"])
        calls += [["q", cycle], ["probe", cycle, "--trials", "10"]]
    return calls


# cycles whose labels share factors, so q gives the label lcm: over ZZ[x,y]
# with negative leading coefficients, the integer contents 6 and -4, and the
# first label repeated; over QQ[x,y,z] with rational coefficients; and over
# ZZ[x,y] with two labels sharing x^7000 + y, whose images pass the image
# budget, so the primitive remainder sequence fallback gives their gcd and
# cofactors; then one cycle per way the label lcm starts from the
# coprimality scan: a shared factor met only at the last label, a later
# label that already divides the lcm, a squared factor, labels that share
# only their integer content, and over QQ[x,y] a repeated label
GCD_CYCLES = {
    "zz": ("int", ["x", "y"], [
        "(-3*x^2 + x*y - 2)*(x - 2*y + 1)", "6*(x - 2*y + 1)*(y^2 + 3)",
        "-4*(y^2 + 3)*(x*y + 5)", "(-3*x^2 + x*y - 2)*(x - 2*y + 1)",
    ]),
    "qq": ("rat", ["x", "y", "z"], [
        "(1/2*x*z - 2/3*y + 1)*(3/4*z^2 - x)", "(-5/3*y*z + x + 1/2)*(3/4*z^2 - x)",
        "(-5/3*y*z + x + 1/2)*(2/7*x - y*z)", "-(1/2*x*z - 2/3*y + 1)*(2/7*x - y*z)",
    ]),
    "fallback": ("int", ["x", "y"], [
        "(x^7000 + y)*(x + y)", "(x^7000 + y)*(x - y)", "x*y + 1",
    ]),
    "shared-last-only": ("int", ["x", "y"], [
        "x^2 + y + 1", "x*y - 3", "2*x + y^2", "-(x^2 + y + 1)*(x - y)",
    ]),
    "later-label-divides": ("int", ["x", "y"], [
        "(x + y)*(x - 2)", "(x + y)*(y + 3)", "x - 2", "x*y + 5",
    ]),
    "squared-factor": ("int", ["x", "y"], ["x + 1", "(x + 1)^2", "y - 2"]),
    "content-only": ("int", ["x", "y"], ["2*x", "4*y", "6*x*y"]),
    "qq-repeated-label": ("rat", ["x", "y"], [
        "1/2*x + y", "x*y - 2/3", "1/2*x + y", "3*y^2 + x",
    ]),
}


def gcd_calls(directory: Path) -> list:
    """The argv of ``q`` and ``verify`` on each of GCD_CYCLES, their graphs
    written to ``directory``.

    ``verify`` is given the spline (0, P, ..., P) for P the product of the
    labels, and that spline with 1 added to its last entry, which is not one.
    """
    calls = []
    for name, (coefficients, variables, labels) in GCD_CYCLES.items():
        ring = {"kind": "poly", "coefficients": coefficients, "variables": variables}
        graph = write_graph(directory, f"gcd-{name}", ring, labels)
        product = "*".join(f"({label})" for label in labels)
        spline = ["0"] + [product] * (len(labels) - 1)
        off = spline[:-1] + [f"{product} + 1"]
        calls += [["q", graph], ["verify", graph, "--spline", ",".join(spline)],
                  ["verify", graph, "--spline", ",".join(off)]]
    return calls


def document_calls(graphs: Path, directory: Path) -> list:
    """The argv of ``q`` and ``verify`` on graph documents the loader rejects,
    each ``fig2.json`` under ``graphs`` with one or two faults, written to
    ``directory``.

    One document per GraphError code the loader raises: an edge that is
    not an object, an edge without its label and edges that are not a list
    (BAD_DOCUMENT), a repeated vertex (DUPLICATE_VERTEX), an unknown name
    and a reference that is not a string (UNKNOWN_VERTEX), a label that is
    not a string and a malformed integer (LABEL_PARSE), a zero label
    (ZERO_LABEL), a self-loop (SELF_LOOP), an isolated vertex
    (DISCONNECTED) and a rational ring (BAD_RING). Two more carry faults of
    different phases: a zero label in edge 1 and a label that is not a
    string in edge 2, and a self-loop in edge 1 and an unparsable label in
    edge 3; the label checks run over every edge first, so both report
    LABEL_PARSE.
    """
    fig2 = json.loads((graphs / "fig2.json").read_text())
    first, second, third = fig2["edges"]

    def edited(edits=(), **top):
        """fig2 with the ``top`` keys replaced and each (edge, key, value) of
        ``edits`` set."""
        document = json.loads(json.dumps({**fig2, **top}))
        for index, key, value in edits:
            document["edges"][index][key] = value
        return document

    documents = {
        "edge-not-object": edited(edges=[first, ["v2", "v3", "5"], third]),
        "missing-key": edited(edges=[first, second, {"u": "v3", "v": "v1"}]),
        "edges-not-list": edited(edges={"v1~v2": "4"}),
        "duplicate-vertex": edited(vertices=["v1", "v2", "v1"]),
        "unknown-name": edited([(1, "v", "v4")]),
        "non-string-reference": edited([(0, "u", 1)]),
        "non-string-label": edited([(1, "label", 5)]),
        "malformed-integer": edited([(2, "label", "2_0")]),
        "zero-label": edited([(1, "label", "-0")]),
        "self-loop": edited([(2, "u", "v1")]),
        "disconnected": edited(vertices=["v1", "v2", "v3", "v4"]),
        "bad-ring": edited(ring={"kind": "rat"}),
        "zero-then-non-string": edited([(0, "label", "0"), (1, "label", 5)]),
        "self-loop-then-unparsable": edited([(0, "v", "v1"), (2, "label", "2x")]),
    }
    calls = []
    for name, document in documents.items():
        path = directory / f"document-{name}.json"
        path.write_text(json.dumps(document))
        calls += [["q", str(path)], ["verify", str(path), "--spline", "0,0,0"]]
    return calls


def entry_calls(graphs: Path, directory: Path) -> list:
    """The argv of calls that read an entry text more than once, and of
    ``flowup`` on integer and polynomial graphs.

    ``verify`` and ``check-basis`` on the bundled graphs under ``graphs``
    and on a ZZ[x,y] triangle written to ``directory`` repeat entries as
    written and with spaces around them, one with rational coefficients;
    four calls repeat an entry that fails to parse. ``flowup`` runs on
    ``fig2.json``, a one-vertex graph, a multigraph with negative labels and
    a seeded K6 with 9-digit labels, all over ZZ and written to
    ``directory``, and on ``xy.json`` and ``zx-obstruction.json``, whose
    witness tables are printed from the same entry texts in both modes.
    """
    fig2, xy, zx = (str(graphs / f"{name}.json") for name in ("fig2", "xy", "zx-obstruction"))
    zxy = write_graph(directory, "entries-zxy", {"kind": "poly", "coefficients": "int",
                                                 "variables": ["x", "y"]}, ["x", "y", "x + y"])
    rng = random.Random("same-outputs/entries")
    k6 = [{"u": f"v{u + 1}", "v": f"v{v + 1}",
           "label": str(rng.choice((-1, 1)) * rng.randrange(10**8, 10**9))}
          for u, v in itertools.combinations(range(6), 2)]
    integer_graphs = {
        "one-vertex": (["a"], []),
        "negative-multi": (["a", "b", "c"], [{"u": "a", "v": "b", "label": "-6"},
                                              {"u": "b", "v": "a", "label": "4"},
                                              {"u": "b", "v": "c", "label": "-9"},
                                              {"u": "c", "v": "a", "label": "-10"},
                                              {"u": "c", "v": "b", "label": "-6"}]),
        "k6": ([f"v{k}" for k in range(1, 7)], k6),
    }
    flowups = [fig2, xy, zx]
    for name, (vertices, edges) in integer_graphs.items():
        path = directory / f"entries-{name}.json"
        path.write_text(json.dumps({"ring": {"kind": "int"}, "vertices": vertices,
                                    "edges": edges}))
        flowups.append(str(path))
    return [
        ["check-basis", fig2, *spline_flags(["1, 1 ,1", " 0,4 , 4", "0,0, 10 "])],
        ["check-basis", fig2, *spline_flags(["1,1,1", "0,4,4", " 0, 4,4 "])],
        ["verify", fig2, "--spline", "5,5, 5"],
        ["verify", fig2, "--spline", "-4,-4 ,0"],
        ["check-basis", xy, *spline_flags(["1, 1 ,1", "0 ,x, x + y", "0, 0 ,y*(x + y)"])],
        ["check-basis", xy, *spline_flags(["1,1,1", "x,x, x ", "0,0,y*(x + y)"])],
        ["check-basis", xy, *spline_flags(["1/2,1/2, 1/2 ", "0,3/2*x,3/2*x + 3/2*y",
                                           "0, 0 ,1/2*y*(x + y)"])],
        ["verify", xy, "--spline", "1/2*x + 1/3, 1/2*x + 1/3 ,1/2*x + 1/3"],
        ["verify", xy, "--spline", "x,x ,y"],
        ["check-basis", zxy, *spline_flags(["1, 1 ,1", "0 ,x, x + y", "0, 0 ,y*(x + y)"])],
        ["verify", zx, "--spline", "2*x, 2*x ,0"],
        ["check-basis", xy, *spline_flags(["1,1,1", "0,x^, x^ ", "0,0,y*(x + y)"])],
        ["check-basis", fig2, *spline_flags(["1,1,1", "0,4,4", "0,0,1x", " 1x,0,0"])],
        ["verify", xy, "--spline", "y^,y^, y^"],
        ["verify", xy, "--spline", "x,x,x^"],
        *(["flowup", graph] for graph in flowups),
    ]


def workload_calls(base: Path, names, seeds, directory: Path) -> list:
    """The argv of every call of the seeded workloads, their graphs written to ``directory``.

    zz-lattice builds its check-basis candidates from ``flowup`` output,
    which is taken from ``base``.
    """
    sys.path.insert(0, str(ROOT / "splinebench"))
    import workloads

    calls = []
    for name in names:
        for seed in seeds:
            folder = directory / f"{name}-{seed}"
            folder.mkdir(parents=True)

            def flowup(graph_name, document, folder=folder):
                path = folder / graph_name
                path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
                return json.loads(run_calls(base, [["flowup", str(path), "--json"]])[0][1])

            workload = workloads.build(name, seed, flowup)
            workloads.write_graphs(workload, folder)
            calls += [call.argv(folder) for call in workload.calls]
    return calls


def both_modes(calls) -> list:
    """Each call in JSON mode and in text mode."""
    out = []
    for argv in calls:
        text = [arg for arg in argv if arg != "--json"]
        out += [text + ["--json"], text]
    return out


def run_calls(checkout: Path, calls) -> list:
    """[exit code, stdout, stderr] of each call, run in-process in a child of ``checkout``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout)],
        input=json.dumps(calls), capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def worker(checkout: str) -> None:
    sys.path.insert(0, str(Path(checkout) / "src"))
    from graphsplines import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def compare(base: Path, change: Path, calls) -> list:
    """(argv, base result, change result) of every call whose results differ."""
    pairs = zip(calls, run_calls(base, calls), run_calls(change, calls))
    return [(argv, old, new) for argv, old, new in pairs if old != new]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", action="append", type=int, default=[])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        calls = demo_calls(ROOT / "graphs") + error_calls(ROOT / "graphs", Path(scratch))
        calls += probe_search_calls(ROOT / "graphs")
        calls += default_probe_calls(ROOT / "graphs", Path(scratch))
        calls += rational_search_calls(Path(scratch))
        calls += kernel_calls(Path(scratch)) + triangular_calls(ROOT / "graphs", Path(scratch))
        calls += search_shape_calls(Path(scratch)) + parser_calls(ROOT / "graphs")
        calls += lattice_calls(args.base, Path(scratch)) + coprime_calls(Path(scratch))
        calls += gcd_calls(Path(scratch)) + document_calls(ROOT / "graphs", Path(scratch))
        calls += entry_calls(ROOT / "graphs", Path(scratch))
        calls += obstruct_calls(ROOT / "graphs", Path(scratch))
        calls += forced_degree_calls(ROOT / "graphs", Path(scratch))
        calls += refusal_calls(Path(scratch))
        calls += workload_calls(args.base, args.workload, args.seed, Path(scratch))
        calls = both_modes(calls)
        differences = compare(args.base, args.change, calls)
    for argv_, old, new in differences:
        print(f"DIFFERENT: {' '.join(argv_)}")
        for label, value_old, value_new in zip(("exit", "stdout", "stderr"), old, new):
            if value_old != value_new:
                print(f"  {label}: {str(value_old)[:200]!r} -> {str(value_new)[:200]!r}")
    print(f"{len(calls)} calls compared, {len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # a child started by run_calls
        worker(sys.argv[2])
    else:
        sys.exit(main())
