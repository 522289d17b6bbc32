"""Implications between subcommands that the paper's determinantal theory forces.

Each test runs ``cli.main --json`` in process on seeded graphs of 2-5
vertices over ZZ, QQ[x], QQ[x,y] and ZZ[x], and checks that one verdict
implies another:

- ``q`` is the same for every vertex order, up to a unit: the gcd of the
  n x n minors of the spline module does not depend on the order;
- over ZZ, the ``flowup`` determinant is the same for every vertex order,
  and it is ``q``;
- if ``check-basis`` says yes on C, it says yes on C*U for a unimodular
  integer U, and on C with its rows and the vertex order permuted together;
- if ``check-basis`` says yes on C, then ``probe --q d`` says no for every d
  that does not divide det C, since det C is one of the determinants;
- if ``search`` without ``--degree`` says NONEXISTENT at every degree, it
  says NONEXISTENT at every explicit bound from its forced degree on.

The bases checked are the ``flowup`` basis over ZZ, and over the polynomial
rings the tree basis: on a tree with pairwise coprime labels, the spline
that is the label of the edge into v on the subtree below v, and zero
elsewhere, for each v, with the constant spline.
"""

import contextlib
import io
import itertools
import json
import random

from graphsplines import load_graph, spline_combination
from graphsplines.cli import main
from conftest import GRAPHS_DIR
from oracles import random_unimodular

RINGS = {
    "zz": {"kind": "int"},
    "qx": {"kind": "poly", "coefficients": "rat", "variables": ["x"]},
    "qxy": {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]},
    "zx": {"kind": "poly", "coefficients": "int", "variables": ["x"]},
}


def cli_json(*argv):
    """The exit code and the JSON report of one CLI call; None for an error's report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*map(str, argv), "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _affine(rng, ring_name):
    """A random affine form of the ring that is not a constant."""
    a, c = rng.choice([-2, -1, 1, 2]), rng.randint(-4, 4)
    if ring_name == "qxy":
        return _signs(f"{a}*x + {rng.randint(-2, 2)}*y + {c}")
    return _signs(f"{a}*x + {c}" if ring_name == "qx" else f"x + {c}")


def _signs(text):
    """``text`` with each "+ -" written as "-", which the label parser needs."""
    return text.replace("+ -", "- ")


def _label(rng, ring_name):
    """An integer of 2-36, or a product of one or two affine forms."""
    if ring_name == "zz":
        return str(rng.choice([2, 3, 4, 5, 6, 9, 10, 12, 15, 18, 25, 36]))
    return "*".join(f"({_affine(rng, ring_name)})" for _ in range(rng.randint(1, 2)))


def _write(tmp_path, name, ring_name, n, edges):
    """Write a graph document of vertices v1..vn and ``edges`` (u, v, label), 0-based."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "ring": RINGS[ring_name],
        "vertices": [f"v{i + 1}" for i in range(n)],
        "edges": [{"u": f"v{u + 1}", "v": f"v{v + 1}", "label": label} for u, v, label in edges],
    }))
    return path


def seeded_graphs(tmp_path, seed):
    """Three connected graphs per ring, a spanning tree and up to three more edges."""
    rng = random.Random(seed)
    paths = []
    for ring_name in RINGS:
        for k in range(3):
            n = rng.randint(2, 5)
            pairs = [(rng.randrange(v), v) for v in range(1, n)]
            pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3) if n > 2 else 0)]
            edges = [(u, v, _label(rng, ring_name)) for u, v in pairs]
            paths.append(_write(tmp_path, f"{ring_name}-{k}", ring_name, n, edges))
    return paths


def orders(n, rng):
    """Every vertex order of v1..vn for n <= 4, else eight seeded ones."""
    names = [f"v{i + 1}" for i in range(n)]
    if n <= 4:
        return [list(order) for order in itertools.permutations(names)]
    return [rng.sample(names, n) for _ in range(8)]


def _same_up_to_unit(ring, a, b):
    a, b = ring.element_from_text(a), ring.element_from_text(b)
    return ring.divides(a, b) and ring.divides(b, a)


def test_q_is_the_same_for_every_vertex_order(tmp_path):
    rng = random.Random("consistency-q")
    for path in seeded_graphs(tmp_path, "consistency-q-graphs"):
        graph = load_graph(path.read_text())
        code, first = cli_json("q", path)
        assert code == 0
        for order in orders(graph.n, rng):
            code, report = cli_json("q", path, "--vertex-order", ",".join(order))
            assert code == 0 and report["provenance"] == first["provenance"]
            assert _same_up_to_unit(graph.ring, report["q"], first["q"]), (path.name, order)


def test_zz_flowup_determinant_is_q_in_every_vertex_order(tmp_path):
    rng = random.Random("consistency-flowup")
    paths = [path for path in seeded_graphs(tmp_path, "consistency-flowup-graphs")
             if path.name.startswith("zz-")] + [GRAPHS_DIR / "fig2.json"]
    for path in paths:
        graph = load_graph(path.read_text())
        determinants = set()
        for order in orders(graph.n, rng):
            argv = [path, "--vertex-order", ",".join(order)]
            (_, flowup), (_, q) = cli_json("flowup", *argv), cli_json("q", *argv)
            assert flowup["determinant"] == int(q["q"]), (path.name, order)
            determinants.add(flowup["determinant"])
        assert len(determinants) == 1, path.name


def tree_basis(tmp_path, name, ring_name, rng):
    """A seeded tree with pairwise coprime labels, and its tree basis as column texts."""
    n = rng.randint(2, 5)
    parents = [None] + [rng.randrange(v) for v in range(1, n)]
    if ring_name == "qxy":  # x + a*y + b for distinct (a, b): no two are proportional
        forms = [_signs(f"x + {a}*y + {b}") for a, b in rng.sample(list(itertools.product(
            range(-2, 3), range(-3, 4))), n - 1)]
    else:  # x + b for distinct b
        forms = [_signs(f"x + {b}") for b in rng.sample(range(-4, 5), n - 1)]
    labels = [None] + forms
    path = _write(tmp_path, name, ring_name, n, [(parents[v], v, labels[v]) for v in range(1, n)])
    below = [{v} for v in range(n)]  # each vertex's subtree; a parent comes before its children
    for v in reversed(range(1, n)):
        below[parents[v]] |= below[v]
    columns = [["1"] * n]
    columns += [[labels[v] if i in below[v] else "0" for i in range(n)] for v in range(1, n)]
    return path, columns


def accepted_bases(tmp_path):
    """(graph path, columns as entry texts, determinant text) that check-basis accepts."""
    rng = random.Random("consistency-bases")
    cases = [(GRAPHS_DIR / "xy.json", [["1", "1", "1"], ["0", "x", "x + y"],
                                       ["0", "0", "y*(x + y)"]])]
    for path in seeded_graphs(tmp_path, "consistency-basis-graphs"):
        if path.name.startswith("zz-"):
            _, flowup = cli_json("flowup", path)
            cases.append((path, [[str(entry) for entry in column]
                                 for column in flowup["columns"]]))
    cases.append((GRAPHS_DIR / "fig2.json", [["1", "1", "1"], ["0", "4", "4"], ["0", "0", "10"]]))
    for ring_name in ("qx", "qxy", "zx"):
        for k in range(2):
            cases.append(tree_basis(tmp_path, f"tree-{ring_name}-{k}", ring_name, rng))
    for path, columns in cases:
        code, report = cli_json("check-basis", path, *_spline_args(columns))
        assert (code, report["verdict"]) == (0, "yes"), (path.name, columns)
        yield path, columns, report["determinant"]


def _spline_args(columns):
    return [arg for column in columns for arg in ("--spline", ",".join(column))]


def test_check_basis_yes_survives_unimodular_change_and_relabeling(tmp_path):
    rng = random.Random("consistency-unimodular")
    for path, columns, _ in accepted_bases(tmp_path):
        graph = load_graph(path.read_text())
        ring, n = graph.ring, graph.n
        entries = [[ring.element_from_text(entry) for entry in column] for column in columns]
        u, _ = random_unimodular(rng, n)
        changed = [[ring.to_text(entry) for entry in spline_combination(
            ring, [ring.from_int(u[r][j]) for r in range(n)], entries)] for j in range(n)]
        code, report = cli_json("check-basis", path, *_spline_args(changed))
        assert (code, report["verdict"]) == (0, "yes"), (path.name, changed)
        order = rng.sample(range(n), n)
        names = [graph.vertices[i] for i in order]
        permuted = [[column[i] for i in order] for column in columns]
        code, report = cli_json("check-basis", path, "--vertex-order", ",".join(names),
                                *_spline_args(permuted))
        assert (code, report["verdict"]) == (0, "yes"), (path.name, names)


def test_check_basis_yes_then_probe_says_no_off_its_determinant(tmp_path):
    rng = random.Random("consistency-probe")
    checked = set()
    for path, _, determinant in accepted_bases(tmp_path):
        ring = load_graph(path.read_text()).ring
        if ring.kind == "int":
            divisors = [int(determinant) * rng.choice([2, 3, 5, 7]), 200]
        else:
            divisors = [f"({determinant})*x", "x^2*y" if "y" in determinant else "x^7"]
        for d in divisors:
            if ring.divides(ring.element_from_text(str(d)), ring.element_from_text(determinant)):
                continue
            code, report = cli_json("probe", path, "--q", d)
            assert (code, report["verdict"]) == (1, "no"), (path.name, d)
            checked.add((path.name, str(d)))
    assert {("fig2.json", "200"), ("xy.json", "x^2*y")} <= checked





def obstruct_cases(rng):
    """(ring, labels a, b, c, and y or None) of seeded triangles; with y, the
    sufficiency columns (1,1,1), (0, a, y*c), (0, 0, b*c) are a basis when the
    labels are pairwise coprime."""
    cases = [("qxy", ["x + y + 1", "y + 1", "x"], None), ("zx", ["x + 3", "3", "x"], "1")]
    for k in range(12):
        cases.append(("qx", [_label(rng, "qx") for _ in range(3)], None))
        b, c = _label(rng, "qxy"), _label(rng, "qxy")
        s, y = rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])
        cases.append(("qxy", [_signs(f"{s}*({b}) + {y}*({c})"), b, c], None))
        cases.append(("qxy", [_signs(f"{rng.choice([-2, -1, 1, 2])}*x + {rng.randint(-2, 2)}*y")
                              for _ in range(3)], None))
    for k in range(8):  # b and c = x + k - 4 are monic
        b, c = _label(rng, "zx"), _signs(f"x + {k - 4}")
        s, y = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3)
        cases.append(("zx", [_signs(f"{s}*({b}) + {y}*({c})"), b, c], str(y)))
    return cases


def test_a_flow_up_basis_on_a_triangle_makes_obstruct_say_no(tmp_path):
    # a basis puts a in (b, c), so obstruct never says yes there, and it says
    # no wherever it decides: over QQ[x], on homogeneous labels, and over ZZ[x]
    # with a monic b or c; a higher-degree basis on other labels over QQ[x,y]
    # may leave it UNDECIDABLE
    found = decided = 0
    for k, (ring_name, labels, y) in enumerate(obstruct_cases(random.Random("obstruct"))):
        a, b, c = labels
        path = _write(tmp_path, f"obstruct-{k}", ring_name, 3, [(0, 1, a), (1, 2, b), (2, 0, c)])
        graph = load_graph(path.read_text())
        if not graph.pairwise_coprime_labels():
            continue
        if y is None:  # search at twice the largest label degree, past the forced one
            degree = 2 * max(p.total_degree() for p in graph.labels())
            code, _ = cli_json("search", path, "--factors", ";".join(labels), "--degree", degree)
        else:
            columns = [["1", "1", "1"], ["0", a, f"({y})*({c})"], ["0", "0", f"({b})*({c})"]]
            code, _ = cli_json("check-basis", path, *_spline_args(columns))
        if code != 0:
            continue
        found += 1
        code, report = cli_json("obstruct", path)
        assert code != 0, labels
        homogeneous = all(len({sum(e) for e in p.terms}) == 1 for p in graph.labels())
        if ring_name != "qxy" or homogeneous:
            assert (code, report["verdict"]) == (1, "no"), labels
            decided += 1
    assert found >= 30 and decided >= 20, (found, decided)


def homogeneous_cycles(tmp_path, seed, count):
    """(path, labels) of seeded 3- and 4-cycles over QQ[x,y] whose labels are
    products of one or two of the pairwise non-proportional forms y and
    x + k*y, each form used once, so the labels are pairwise coprime."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.choice([3, 4])
        pool = ["y"] + [_signs(f"x + {j}*y") for j in range(-4, 5)]
        rng.shuffle(pool)
        labels = ["*".join(f"({pool.pop()})" for _ in range(rng.randint(1, 2))) for _ in range(n)]
        edges = [(i, (i + 1) % n, label) for i, label in enumerate(labels)]
        yield _write(tmp_path, f"homogeneous-{k}", "qxy", n, edges), labels


def test_nonexistent_at_every_degree_holds_at_every_bound_from_the_forced_degree(tmp_path):
    cases = [(GRAPHS_DIR / "squares.json", ["x", "x", "y", "y", "x + y", "x + y"])]
    cases += homogeneous_cycles(tmp_path, "consistency-every-degree", 24)
    checked = 0
    for path, factors in cases:
        factors = ";".join(factors)
        code, report = cli_json("search", path, "--factors", factors)
        if report["verdict"] == "yes":
            continue
        assert (code, report["every_degree"]) == (1, True), path.name
        for degree in range(report["degree_bound"], report["degree_bound"] + 3):
            code, bounded = cli_json("search", path, "--factors", factors, "--degree", degree)
            assert (code, bounded["verdict"]) == (1, "no"), (path.name, degree)
            assert "every_degree" not in bounded
        checked += 1
    assert checked >= 6, checked
