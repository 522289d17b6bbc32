import itertools
import math
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from graphsplines import (
    GraphError,
    LabeledGraph,
    PolynomialRing,
    RingMismatchError,
    check_basis,
    compute_q,
    flow_up_search_bounded,
    spline_determinant,
    triangle_flow_up_basis,
)
import graphsplines.search as search_module
import oracles
from graphsplines.graphs import Edge
from graphsplines.polynomials import Polynomial, pack_exponents
from graphsplines.search import monomials_up_to, solve_rational_system
from conftest import GRAPHS_DIR, bundled_graph, source_env
from oracles import (
    ColumnSystem,
    enumerating_flow_up_search,
    filtered_monomials_up_to,
    fraction_solve_rational_system,
)


class TestLinearSolver:
    def test_simple_consistent(self):
        rows = [
            ({0: Fraction(1), 1: Fraction(1)}, Fraction(3)),
            ({0: Fraction(1), 1: Fraction(-1)}, Fraction(1)),
        ]
        solution = solve_rational_system(rows)
        assert solution[0] == 2 and solution[1] == 1

    def test_inconsistent(self):
        rows = [
            ({0: Fraction(1)}, Fraction(1)),
            ({0: Fraction(2)}, Fraction(3)),
        ]
        assert solve_rational_system(rows) is None

    def test_underdetermined_picks_particular(self):
        rows = [({0: Fraction(1), 1: Fraction(1)}, Fraction(5))]
        solution = solve_rational_system(rows)
        values = [solution.get(0, Fraction(0)), solution.get(1, Fraction(0))]
        assert sum(values) == 5

    def test_degenerate_zero_rows(self):
        assert solve_rational_system([({}, Fraction(0))]) == {}
        assert solve_rational_system([({}, Fraction(1))]) is None

    def test_int_rows(self):
        rows = [({0: 2, 1: 3}, 7), ({1: 6}, 4), ({2: 5}, 0)]
        assert solve_rational_system(rows) == {0: Fraction(5, 2), 1: Fraction(2, 3), 2: 0}

    def test_monomials(self):
        assert monomials_up_to(2, 1) == [(0, 0), (0, 1), (1, 0)]
        assert len(monomials_up_to(2, 6)) == 28

    def test_monomials_match_the_filtered_table(self):
        for nvars in range(1, 5):
            for degree in range(8):
                assert monomials_up_to(nvars, degree) == filtered_monomials_up_to(nvars, degree)


class TestSearch:
    def test_xy_cycle_found(self, qxy):
        g = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        outcome = flow_up_search_bounded(g, [x, y, x + y], 2)
        assert outcome.found
        verdict = check_basis(outcome.basis, compute_q(g))
        assert verdict.is_basis is True
        det = spline_determinant(outcome.basis)
        unit = qxy.exact_div(det, x * y * (x + y))
        assert qxy.is_unit(unit)
        # lower triangular with the reported leading terms on the diagonal
        for k, column in enumerate(outcome.basis.columns):
            assert all(column[i].is_zero() for i in range(k))
            assert column[k] == outcome.leading_terms[k]

    def test_tree_case(self):
        qx = PolynomialRing("rat", ["x"])
        x = qx.variable("x")
        g = LabeledGraph.path(qx, [x ** 2])
        outcome = flow_up_search_bounded(g, [x, x], 2)
        assert outcome.found
        assert outcome.basis.columns == ((qx.one, qx.one), (qx.zero, x ** 2))

    def test_squares_nonexistent(self, qxy):
        g = bundled_graph("squares")
        x, y = qxy.variable("x"), qxy.variable("y")
        outcome = flow_up_search_bounded(g, [x, x, y, y, x + y, x + y], 6)
        assert not outcome.found
        assert outcome.assignments_total == 3 ** 6
        assert outcome.degree_bound == 6

    def test_deterministic(self, qxy):
        g = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        first = flow_up_search_bounded(g, [x, y, x + y], 2)
        second = flow_up_search_bounded(g, [x, y, x + y], 2)
        assert first.leading_terms == second.leading_terms
        assert first.basis.columns == second.basis.columns

    def test_requires_rational_coefficients(self):
        g = bundled_graph("zx-obstruction")
        labels = g.labels()
        with pytest.raises(RingMismatchError):
            flow_up_search_bounded(g, labels, 2)

    def test_requires_coprime_labels(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        g = LabeledGraph.cycle(qxy, [x * y, y, x + y])
        with pytest.raises(ValueError, match="coprime"):
            flow_up_search_bounded(g, [x, y, y, x + y], 3)

    def test_factor_product_checked(self, qxy):
        g = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        with pytest.raises(ValueError, match="factor product"):
            flow_up_search_bounded(g, [x, y], 2)

    def test_degree_bound_checked(self, qxy):
        g = bundled_graph("squares")
        x, y = qxy.variable("x"), qxy.variable("y")
        with pytest.raises(ValueError, match="degree bound"):
            flow_up_search_bounded(g, [x, x, y, y, x + y, x + y], 1)

    def test_unit_factors_rejected(self, qxy):
        g = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        with pytest.raises(ValueError, match="nonunits"):
            flow_up_search_bounded(g, [x, y, x + y, qxy.from_int(2)], 2)

    def test_found_verdict_guard_survives_optimize(self):
        # python -O strips assert statements; the check behind a found
        # verdict must still run there
        script = textwrap.dedent(
            """
            import sys
            import graphsplines.search as search
            from graphsplines import BasisVerdict, load_graph

            assert False, "assert statements are not stripped"
            search.check_basis = lambda matrix, q: BasisVerdict(
                False, None, "forced non-basis verdict", 0
            )
            graph = load_graph(open(sys.argv[1]).read())
            factors = [graph.ring.element_from_text(t) for t in ("x", "y", "x+y")]
            try:
                search.flow_up_search_bounded(graph, factors, 2)
            except AssertionError as exc:
                print("raised:", exc)
            else:
                print("found")
            """
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script, str(GRAPHS_DIR / "xy.json")],
            capture_output=True,
            env=source_env(),
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("raised: solved assignment"), result.stdout

    NON_SPLINE_COLUMN = textwrap.dedent(
        """
        import graphsplines.search as search

        solve = search._solve_column

        def solve_column(graph, position, *args):
            # a constant added to the last entry of column 2 breaks its congruences
            entries = solve(graph, position, *args)
            if position == 1:
                entries[-1] = entries[-1] + graph.ring.one
            return entries
        """
    )

    def test_non_spline_column_is_rejected(self, qxy, monkeypatch):
        namespace = {}
        exec(self.NON_SPLINE_COLUMN, namespace)
        monkeypatch.setattr(search_module, "_solve_column", namespace["solve_column"])
        x, y = qxy.variable("x"), qxy.variable("y")
        with pytest.raises(ValueError, match="^column 2 is not a spline: edge "):
            flow_up_search_bounded(bundled_graph("xy"), [x, y, x + y], 2)

    def test_non_spline_column_is_rejected_under_optimize(self):
        script = self.NON_SPLINE_COLUMN + textwrap.dedent(
            """
            import sys
            from graphsplines import flow_up_search_bounded, load_graph

            search._solve_column = solve_column
            assert False, "assert statements are not stripped"
            graph = load_graph(open(sys.argv[1]).read())
            factors = [graph.ring.element_from_text(t) for t in ("x", "y", "x+y")]
            try:
                flow_up_search_bounded(graph, factors, 2)
            except ValueError as exc:
                print("raised:", exc)
            else:
                print("found")
            """
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script, str(GRAPHS_DIR / "xy.json")],
            capture_output=True,
            env=source_env(),
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("raised: column 2 is not a spline: edge "), result.stdout

    def test_found_outcome_carries_its_determinant(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        outcome = flow_up_search_bounded(bundled_graph("xy"), [x, y, x + y], 2)
        assert outcome.determinant == spline_determinant(outcome.basis)
        assert outcome.determinant == x * y * (x + y)
        missing = flow_up_search_bounded(bundled_graph("squares"), [x, x, y, y, x + y, x + y], 2)
        assert not missing.found and missing.determinant is None

    def test_reducible_factor_finds_forced_basis(self, qxy):
        # x*y cannot be split into the forced leading terms x and y, so a
        # search over factor assignments would wrongly report NONEXISTENT(2)
        x, y = qxy.variable("x"), qxy.variable("y")
        g = LabeledGraph.path(qxy, [x, y])
        outcome = flow_up_search_bounded(g, [x * y], 2)
        assert outcome.found
        one, zero = qxy.one, qxy.zero
        assert outcome.basis.columns == ((one, one, one), (zero, x, x), (zero, zero, y))
        assert outcome.leading_terms == (one, x, y)
        assert (outcome.assignments_total, outcome.systems_checked) == (3, 3)

    def test_without_a_bound_the_search_runs_at_the_forced_degree(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        squares = bundled_graph("squares")
        factors = [x, x, y, y, x + y, x + y]
        outcome = flow_up_search_bounded(squares, factors)
        assert (outcome.found, outcome.degree_bound, outcome.every_degree) == (False, 4, True)
        # an explicit bound covers every degree from the forced degree 4 on
        assert [flow_up_search_bounded(squares, factors, bound).every_degree
                for bound in (2, 3, 4, 6)] == [False, False, True, True]
        found = flow_up_search_bounded(bundled_graph("xy"), [x, y, x + y])
        assert (found.found, found.degree_bound, found.every_degree) == (True, 2, False)
        # x is outside (y, z): the class-1 spline (0, x, 0) would need y | x
        ring = PolynomialRing("rat", ["x", "y", "z"])
        labels = [ring.variable(v) for v in ("x", "y", "z")]
        koszul = flow_up_search_bounded(LabeledGraph.cycle(ring, labels), labels)
        assert (koszul.found, koszul.degree_bound, koszul.every_degree) == (False, 2, True)

    def test_found_basis_reads_no_homogeneity(self, qxy, monkeypatch):
        def no_reading(self):
            raise AssertionError("homogeneity was read")

        monkeypatch.setattr(Polynomial, "is_homogeneous", no_reading)
        x, y = qxy.variable("x"), qxy.variable("y")
        assert flow_up_search_bounded(bundled_graph("xy"), [x, y, x + y]).found
        assert flow_up_search_bounded(bundled_graph("xy"), [x, y, x + y], 3).found

    def test_forced_degree_past_the_table_cap_is_undecidable(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a monomial table was built")

        monkeypatch.setattr(search_module, "monomials_up_to", no_table)
        ring = PolynomialRing("rat", ["x", "y", "z"])
        labels = [ring.element_from_text(f"{v}^24") for v in ("x", "y", "z")]
        with pytest.raises(GraphError) as raised:
            flow_up_search_bounded(LabeledGraph.cycle(ring, labels), labels)
        assert raised.value.code == "UNDECIDABLE"
        assert str(raised.value) == ("UNDECIDABLE: the forced degree 48 gives more than 20000 "
                                     "monomials per entry in 3 variables")

    def test_found_outcome_counts_every_leading_term_tuple(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        outcome = flow_up_search_bounded(bundled_graph("xy"), [x, y, x + y], 2)
        assert outcome.found and outcome.systems_checked == 3 ** 3


def _affine_image(rng):
    """Texts of X, Y: an invertible affine image of x, y."""
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if a * d - b * c:
            break
    e, f = rng.randint(-2, 2), rng.randint(-2, 2)
    return f"(({a})*x + ({b})*y + ({e}))", f"(({c})*x + ({d})*y + ({f}))"


def _oracle_case(ring, shape, X, Y):
    """(graph, factor texts) of a base case with x, y replaced by X, Y."""
    parse = ring.element_from_text
    if shape == "xy":
        texts = [X, Y, f"{X} + {Y}"]
        return LabeledGraph.cycle(ring, [parse(t) for t in texts]), texts
    if shape == "squares":
        sums = f"{X} + {Y}"
        graph = LabeledGraph.cycle(ring, [parse(f"({t})^2") for t in (X, Y, sums)])
        return graph, [X, X, Y, Y, sums, sums]
    if shape in ("c4", "c4n"):
        last = f"{X} - {Y}" if shape == "c4" else f"{X} + 1"
        texts = [X, Y, f"{X} + {Y}", last]
        return LabeledGraph.cycle(ring, [parse(t) for t in texts]), texts
    if shape == "path":
        texts = [X, Y, f"{X} + {Y}"]
        return LabeledGraph.path(ring, [parse(t) for t in texts]), texts
    if shape == "star":
        texts = [X, Y, f"{X} + {Y}"]
        edges = [Edge(0, k + 1, parse(t)) for k, t in enumerate(texts)]
        return LabeledGraph(ring, ["c", "l1", "l2", "l3"], edges), texts
    raise ValueError(shape)


def _forced_leading_terms(graph):
    """L_i for each vertex i: the monic product of the labels joining i to earlier vertices."""
    return [
        graph.ring.product(e.label for e in graph.edges if max(e.u, e.v) == i).normalized()
        for i in range(graph.n)
    ]


ORACLE_CASES = [
    (shape, degree, copy)
    for shape, degrees in (
        ("xy", (1, 2, 3)),
        ("squares", (2, 3)),
        ("c4", (1, 2, 3)),
        ("c4n", (1, 2, 3)),
        ("path", (1, 2, 3)),
        ("star", (1, 2, 3)),
    )
    for degree in degrees
    for copy in range(2)
]


@pytest.mark.parametrize("shape,degree,copy", ORACLE_CASES)
def test_matches_enumerating_search(qxy, shape, degree, copy):
    rng = random.Random(f"search-oracle/{shape}/{degree}/{copy}")
    graph, texts = _oracle_case(qxy, shape, *_affine_image(rng))
    order = list(graph.vertices)
    rng.shuffle(order)
    graph = graph.reorder(order)
    factors = [qxy.element_from_text(t).normalized() for t in texts]
    outcome = flow_up_search_bounded(graph, factors, degree)
    expected = enumerating_flow_up_search(graph, factors, degree)
    assert outcome.found == expected.found
    assert outcome.leading_terms == expected.leading_terms
    assert outcome.assignments_total == expected.assignments_total
    if expected.found:
        assert outcome.basis.columns == expected.basis.columns
    else:
        assert outcome.systems_checked == expected.systems_checked


def _random_coefficient(rng, fractions):
    """A nonzero int, or a Fraction (possibly integral) when ``fractions``."""
    value = rng.choice([-1, 1]) * rng.choice([1, 1, 2, 3, 5, 12, 10**20 + 7])
    if fractions:
        return Fraction(value, rng.choice([1, 2, 3, 7, 12]))
    return value


def _random_system(rng):
    """Seeded sparse rows with int or Fraction coefficients (never zero).

    Most right-hand sides come from a planted solution, so the system is
    consistent; otherwise some rows get a random right-hand side, which
    makes an overdetermined system inconsistent more often than not.
    """
    nvars = rng.randint(1, 9)
    fractions = rng.random() < 0.5
    planted = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nvars)]
    consistent = rng.random() < 0.6
    rows = []
    for _ in range(rng.randint(0, nvars + 3)):
        width = rng.choice([0, 1, 1, 2, 2, 3, 4])
        variables = rng.sample(range(nvars), min(width, nvars))
        coefficients = {v: _random_coefficient(rng, fractions) for v in variables}
        if rows and rng.random() < 0.2:
            # a combination of two earlier rows makes the system degenerate
            (c1, _), (c2, _) = rng.choice(rows), rng.choice(rows)
            s, t = _random_coefficient(rng, fractions), _random_coefficient(rng, fractions)
            coefficients = {v: s * c1.get(v, 0) + t * c2.get(v, 0) for v in c1.keys() | c2.keys()}
            coefficients = {v: c for v, c in coefficients.items() if c}
        rhs = sum(c * planted[v] for v, c in coefficients.items())
        if not consistent and rng.random() < 0.5:
            rhs += rng.randint(1, 5)
        if not fractions and rhs.denominator == 1:
            rhs = int(rhs)
        rows.append((coefficients, rhs))
    return rows


def _as_fractions(rows):
    """The rows with every coefficient and rhs a Fraction, as the oracle needs."""
    return [
        ({v: Fraction(c) for v, c in coefficients.items()}, Fraction(rhs))
        for coefficients, rhs in rows
    ]


def test_solver_matches_fraction_oracle():
    rng = random.Random("solver-oracle")
    outcomes = {"solved": 0, "inconsistent": 0, "free": 0, "zero-row": 0, "int": 0}
    for _ in range(600):
        rows = _random_system(rng)
        expected = fraction_solve_rational_system(_as_fractions(rows))
        solution = solve_rational_system(rows)
        assert solution == expected, rows
        if expected is None:
            outcomes["inconsistent"] += 1
            continue
        outcomes["solved"] += 1
        assert all(type(value) is Fraction for value in solution.values())
        variables = {v for coefficients, _ in rows for v in coefficients}
        outcomes["free"] += len(variables) > len(solution)
        outcomes["zero-row"] += any(not coefficients for coefficients, _ in rows)
        outcomes["int"] += all(type(c) is int for coefficients, _ in rows for c in coefficients.values())
        for coefficients, rhs in rows:
            assert sum(c * solution.get(v, 0) for v, c in coefficients.items()) == rhs
    assert min(outcomes.values()) >= 30, outcomes


def test_solver_matches_fraction_oracle_on_search_rows():
    # the rows of every column system of a found and a NONEXISTENT search
    for name in ("xy", "squares"):
        graph = bundled_graph(name)
        for position, leading in enumerate(_forced_leading_terms(graph)):
            system = ColumnSystem(graph, position, leading, 3)
            system.feasible()
            fraction_rows = _as_fractions(system.rows)
            expected = fraction_solve_rational_system(fraction_rows)
            assert solve_rational_system(system.rows) == expected
            assert solve_rational_system(fraction_rows) == expected


def _rational_affine_image(rng):
    """Texts of X, Y: an invertible affine image of x, y with rational coefficients."""
    def number():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    while True:
        a, b, c, d = (number() if rng.random() < 0.7 else Fraction(0) for _ in range(4))
        if a * d - b * c:
            break
    e, f = number(), number()
    return f"(({a})*x + ({b})*y + ({e}))", f"(({c})*x + ({d})*y + ({f}))"


RATIONAL_CASES = [
    (shape, degree, copy)
    for shape in ("xy", "c4", "squares")
    for degree in (2, 3)
    for copy in range(3)
]


@pytest.mark.parametrize("shape,degree,copy", RATIONAL_CASES)
def test_rational_labels_match_enumerating_search(qxy, shape, degree, copy):
    rng = random.Random(f"search-rational/{shape}/{degree}/{copy}")
    graph, texts = _oracle_case(qxy, shape, *_rational_affine_image(rng))
    assert any(
        coefficient.denominator != 1 for label in graph.labels()
        for coefficient in label.terms.values()
    )
    factors = [qxy.element_from_text(t).normalized() for t in texts]
    outcome = flow_up_search_bounded(graph, factors, degree)
    expected = enumerating_flow_up_search(graph, factors, degree)
    # in cycle order the 3-cycle and the 4-cycle have a flow-up basis at
    # these degrees, and the squares have none
    assert outcome.found == expected.found == (shape != "squares")
    assert outcome.leading_terms == expected.leading_terms
    assert outcome.assignments_total == expected.assignments_total
    if expected.found:
        assert outcome.basis.columns == expected.basis.columns
        assert check_basis(outcome.basis, compute_q(graph)).is_basis is True
    else:
        assert outcome.systems_checked == expected.systems_checked


# pairwise coprime labels of cycles over QQ[x,y,z] and of K4s over QQ[x,y];
# the first cycle of each length and the first K4 have a flow-up basis
XYZ_CYCLES = (
    ("x + z", "y", "x + y + z"),
    ("x", "y", "z"),
    ("x^2 + y", "y - z", "x*z + 1"),
    ("x + z", "y", "x + y + z", "x - y + z"),
    ("1/2*x + z", "y - 2/3", "x + y + z", "z^2 + x"),
)
K4_LABELS = (
    ("x", "y", "x + y", "x - y", "x + 2*y", "2*x + y"),
    ("x", "y", "x + y", "x - y", "x + 2*y + 1", "1/3*x - y + 2"),
)


def _column_graphs():
    """The graphs of the column differential test, each in its own and a shuffled order."""
    qxy = PolynomialRing("rat", ["x", "y"])
    qxyz = PolynomialRing("rat", ["x", "y", "z"])
    rng = random.Random("solve-column")
    graphs = [bundled_graph("xy"), bundled_graph("squares")]
    graphs += [_oracle_case(qxy, shape, *_rational_affine_image(rng))[0]
               for shape in ("xy", "c4", "squares")]
    graphs += [LabeledGraph.cycle(qxyz, [qxyz.element_from_text(t) for t in labels])
               for labels in XYZ_CYCLES]
    for labels in K4_LABELS:
        edges = [Edge(u, v, qxy.element_from_text(t))
                 for (u, v), t in zip(itertools.combinations(range(4), 2), labels)]
        graphs.append(LabeledGraph(qxy, ["a", "b", "c", "d"], edges))
    shuffled = []
    for graph in graphs:
        order = list(graph.vertices)
        rng.shuffle(order)
        shuffled.append(graph.reorder(order))
    return graphs + shuffled


def test_solve_column_matches_column_system(monkeypatch):
    # with the forced leading terms, each column gives the reference class's
    # entries and passes the solver the reference class's rows
    solved = []

    def recording_solve(rows):
        solved.append(rows)
        return solve_rational_system(rows)

    monkeypatch.setattr(search_module, "solve_rational_system", recording_solve)
    outcomes = {"found": 0, "infeasible": 0, "leading term above the bound": 0,
                "last class found": 0, "last class infeasible": 0}
    for graph in _column_graphs():
        assert graph.pairwise_coprime_labels()
        low = max(label.total_degree() for label in graph.labels())
        for degree in range(low, low + 3):
            monomials = monomials_up_to(len(graph.ring.variables), degree)
            keys = [pack_exponents(e, degree) for e in monomials]
            for position, leading in enumerate(_forced_leading_terms(graph)):
                solved.clear()
                entries = search_module._solve_column(
                    graph, position, leading, degree, monomials, keys
                )
                system = ColumnSystem(graph, position, leading, degree)
                assert entries == system.feasible(), (graph.vertices, degree, position)
                # the closed forms flow_up_search_bounded takes for the outer classes
                if position == 0:
                    assert entries == [graph.ring.one] * graph.n
                elif position == graph.n - 1:
                    last = [graph.ring.zero] * position + [leading]
                    if leading.total_degree() > degree:
                        last = None
                    assert entries == last
                    outcomes["last class " + ("infeasible" if last is None else "found")] += 1
                if leading.total_degree() > degree:
                    assert solved == [] and system.rows == []
                    outcomes["leading term above the bound"] += 1
                    continue
                assert solved == [system.rows]
                outcomes["found" if entries else "infeasible"] += 1
    assert min(outcomes.values()) >= 10, outcomes


# 4-vertex shapes of the leading-entry-ideal gate: a 4-cycle, the 4-cycle with
# the chord v1v3, and with the chord v2v4 (K4 less an edge in another vertex order)
IDEAL_GATE_SHAPES = (
    [(0, 1), (1, 2), (2, 3), (3, 0)],
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)],
)


def _homogeneous_labels(rng, variables, count):
    """Texts of ``count`` pairwise coprime labels, each a linear form (two in
    three) or a product of two, with coefficients in -3..3 and no two forms
    proportional."""
    forms = set()
    labels = []
    for _ in range(count):
        factors = []
        for _ in range(rng.choice([1, 1, 2])):
            while True:
                coefficients = [rng.randint(-3, 3) for _ in variables]
                g = math.gcd(*coefficients)
                if not g:
                    continue
                lead = next(c for c in coefficients if c)
                key = tuple(c // g * (1 if lead > 0 else -1) for c in coefficients)
                if key not in forms:
                    break
            forms.add(key)
            factors.append("(" + " + ".join(f"{c}*{v}" for c, v in zip(coefficients, variables)
                                          if c).replace("+ -", "- ") + ")")
        labels.append("*".join(factors))
    return labels


def _ideal_gate(variables, shapes, count, seed):
    """(found, not found) counts of ``count`` seeded 4-vertex graphs of
    ``shapes``, taken in turn, with homogeneous pairwise coprime labels, each
    searched without a bound and checked against the leading-entry ideals of
    ``oracles.leading_entry_ideals``: a flow-up basis exists iff L_i is in
    I_i at every vertex i."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(variables)
    ring = PolynomialRing("rat", variables)
    rng = random.Random(seed)
    answers = [0, 0]
    for k in range(count):
        pairs = shapes[k % len(shapes)]
        texts = _homogeneous_labels(rng, variables, len(pairs))
        labels = [sympy.sympify(text) for text in texts]
        edges = [(u, v, label) for (u, v), label in zip(pairs, labels)]
        leading = [sympy.prod([label for u, v, label in edges if max(u, v) == i])
                   for i in range(4)]
        ideals = oracles.leading_entry_ideals(variables, 4, edges)
        member = all(sympy.groebner(ideal, *gens, order="grevlex", domain="QQ").contains(term)
                     for ideal, term in zip(ideals[1:], leading[1:]))
        graph = LabeledGraph(ring, ["v1", "v2", "v3", "v4"],
                             [Edge(u, v, ring.element_from_text(text))
                              for (u, v), text in zip(pairs, texts)])
        outcome = flow_up_search_bounded(graph, graph.labels())
        forced = max(sympy.Poly(term, *gens).total_degree() for term in leading)
        assert (outcome.found, outcome.degree_bound) == (member, forced), texts
        if not member:
            assert outcome.every_degree, texts
            for bound in (forced + 1, forced + 2):
                assert not flow_up_search_bounded(graph, graph.labels(), bound).found, texts
        answers[not member] += 1
    return answers


def test_search_without_a_bound_matches_the_leading_entry_ideals():
    found, nonexistent = _ideal_gate(["x", "y"], IDEAL_GATE_SHAPES, 60, "ideal-gate-xy")
    assert found >= 15 and nonexistent >= 15, (found, nonexistent)


def test_search_without_a_bound_matches_the_leading_entry_ideals_in_three_variables():
    # 4-cycles only: the oracle takes about four times as long with a chord
    found, nonexistent = _ideal_gate(["x", "y", "z"], IDEAL_GATE_SHAPES[:1], 12,
                                     "ideal-gate-xyz")
    assert found + nonexistent == 12


class TestTriangleFlowUpBasis:
    """The triangle decision as a library call, with no CLI."""

    def test_xy_has_a_basis_by_the_graded_search(self):
        graph = bundled_graph("xy")
        labels, method, basis = triangle_flow_up_basis(graph)
        assert labels == tuple(edge.label for edge in graph.edges)
        assert method == "graded-search"
        assert basis.to_document()["columns"] == [["1", "1", "1"], ["0", "x", "x + y"],
                                                  ["0", "0", "x*y + y^2"]]

    def test_squares_has_none(self):
        _, method, basis = triangle_flow_up_basis(bundled_graph("squares"))
        assert (method, basis) == ("graded-search", None)

    def test_zx_obstruction_has_none_by_the_lattice(self):
        _, method, basis = triangle_flow_up_basis(bundled_graph("zx-obstruction"))
        assert (method, basis) == ("zz-lattice", None)

    def test_integer_triangle_basis_passes_the_determinant_criterion(self):
        # x + 3 = 1*3 + 1*x lies in (3, x) over ZZ[x]
        ring = PolynomialRing("int", ["x"])
        x = ring.variable("x")
        graph = LabeledGraph.cycle(ring, [x + 3, ring.from_int(3), x])
        labels, method, basis = triangle_flow_up_basis(graph)
        assert (labels, method) == ((x + 3, ring.from_int(3), x), "zz-lattice")
        assert check_basis(basis, compute_q(graph)).is_basis is True
        assert basis.columns[0] == (ring.one,) * 3
        assert [column[:k] for k, column in enumerate(basis.columns)] == [
            (), (ring.zero,), (ring.zero, ring.zero)]

    def test_other_rings_and_graphs_are_refused(self):
        with pytest.raises(ValueError, match="polynomial rings"):
            triangle_flow_up_basis(bundled_graph("fig2"))
        qx = PolynomialRing("rat", ["x"])
        x = qx.variable("x")
        with pytest.raises(ValueError, match="3-cycle"):
            triangle_flow_up_basis(LabeledGraph.path(qx, [x, x + 1]))

    def test_unit_label_gives_an_empty_system(self):
        # c = 1 is the monic label of least degree: d = 0, no unknowns, s = 0
        zx = PolynomialRing("int", ["x"])
        x = zx.variable("x")
        labels, method, basis = triangle_flow_up_basis(LabeledGraph.cycle(zx, [x + 1, x, zx.one]))
        assert (labels, method) == ((x + 1, x, zx.one), "zz-lattice")
        assert basis.to_document()["columns"] == [["1", "1", "1"], ["0", "x + 1", "x + 1"],
                                                  ["0", "0", "x"]]

    DEGREE_100_TRIANGLES = textwrap.dedent(
        """
        import random
        from graphsplines import LabeledGraph, PolynomialRing, triangle_flow_up_basis
        zx = PolynomialRing("int", ["x"])
        x = zx.variable("x")
        rng = random.Random(100)
        m = sum((c * x ** i for i, c in enumerate(
            [rng.randint(-9, 9) for _ in range(100)] + [1])), zx.zero)
        other = sum((c * x ** i for i, c in enumerate(
            [rng.randint(-9, 9) for _ in range(50)] + [2])), zx.zero)
        for a in (other * (x + 2) + m, x + 1):
            for labels in ([a, other, m], [a, m, other]):
                _, method, basis = triangle_flow_up_basis(LabeledGraph.cycle(zx, labels))
                print(method, basis is not None)
        """
    )

    def test_monic_label_at_the_degree_cap_is_decided_in_seconds(self):
        # m of degree 100 against other of degree 50, as c and as b, with a
        # member a and a non-member (test_cli's hnf_member agrees on both);
        # the timeout turns a method that takes seconds per call into a
        # failure, not a slow suite
        done = subprocess.run([sys.executable, "-c", self.DEGREE_100_TRIANGLES],
                              env=source_env(), capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["zz-lattice True"] * 2 + ["zz-lattice False"] * 2

    def test_no_monic_label_is_undecidable(self):
        zx = PolynomialRing("int", ["x"])
        x = zx.variable("x")
        graph = LabeledGraph.cycle(zx, [x + 3, 2 * x, zx.from_int(3)])
        with pytest.raises(GraphError, match="UNDECIDABLE"):
            triangle_flow_up_basis(graph)
