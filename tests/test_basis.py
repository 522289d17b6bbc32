import math
import random
from fractions import Fraction

import pytest

from graphsplines import (
    QQ,
    ZZ,
    Edge,
    IntegerRing,
    LabeledGraph,
    PolynomialRing,
    Provenance,
    SplineMatrix,
    c3_flowup_obstruction,
    check_basis,
    compute_q,
    cramer_membership,
    divides_all_dets_probe,
    even_constant_term,
    exact_determinant,
    flow_up_search_bounded,
    flow_up_witness,
    integer_flow_up_basis,
    is_spline,
    label_lcm,
    spline_combination,
    spline_determinant,
    zero_constant_term,
)
import graphsplines.basis as basis_module
import graphsplines.polynomials as polynomials
from conftest import bundled_graph
from oracles import (
    cofactor_determinant,
    folded_label_lcm,
    pairwise_coprime_by_pairs,
    random_unimodular,
    spans_integer_lattice,
    widest_path_diagonal,
)


def _random_entry(rng, ring, denominators, degree):
    """Up to three terms, each of degree at most ``degree`` in every variable."""
    entry = ring.zero
    for _ in range(rng.randint(1, 3)):
        coefficient = rng.randint(-9, 9)
        if ring.coeff_kind == "rat":
            coefficient = Fraction(coefficient, rng.choice(denominators))
        term = ring.constant(coefficient)
        for name in ring.variables:
            term = term * ring.variable(name) ** rng.randint(0, degree)
        entry = entry + term
    return entry


def _determinant_cases():
    """Seeded square polynomial matrices, as (ring, rows).

    INT and RAT coefficients in 1-3 variables, n from 1 to 6, each size in
    four shapes: dense, with zero entries, with a zero row, and with a
    repeated row. Over QQ each row draws its denominators from its own set,
    so the rows are scaled by different lcms. Entries of the matrices past
    3x3 have degree at most 1 in each variable, so every image stays within
    the bit budget.
    """
    rng = random.Random(12)
    cases = []
    for kind in ("int", "rat"):
        for names in (("x",), ("x", "y"), ("x", "y", "z")):
            ring = PolynomialRing(kind, names)
            for n in range(1, 7):
                degree = 2 if n <= 3 else 1
                for shape in ("dense", "zeros", "zero row", "repeated row"):
                    rows = [
                        [
                            ring.zero if shape == "zeros" and rng.random() < 0.4
                            else _random_entry(rng, ring, (1, i + 2, 2 * i + 3), degree)
                            for _ in range(n)
                        ]
                        for i in range(n)
                    ]
                    if shape == "zero row":
                        rows[rng.randrange(n)] = [ring.zero] * n
                    if shape == "repeated row" and n > 1:
                        i, j = rng.sample(range(n), 2)
                        rows[i] = list(rows[j])
                    cases.append((ring, rows))
    return cases


DETERMINANT_CASES = _determinant_cases()


@pytest.fixture(scope="module")
def fig2():
    return bundled_graph("fig2")


@pytest.fixture(scope="module")
def fig2_basis(fig2):
    return integer_flow_up_basis(fig2)


@pytest.fixture(scope="module")
def fig2_matrix(fig2, fig2_basis):
    return SplineMatrix(fig2, fig2_basis.columns)


@pytest.fixture(scope="module")
def xy_matrix(qxy):
    g = bundled_graph("xy")
    x, y = qxy.variable("x"), qxy.variable("y")
    columns = [
        (qxy.one, qxy.one, qxy.one),
        (qxy.zero, x, x + y),
        (qxy.zero, qxy.zero, y * (x + y)),
    ]
    return SplineMatrix(g, columns)


class TestSplineMatrix:
    def test_rejects_non_spline_column(self, fig2):
        with pytest.raises(ValueError, match="not a spline"):
            SplineMatrix(fig2, [(1, 1, 1), (0, 4, 4), (0, 1, 0)])

    def test_rejects_wrong_count(self, fig2):
        with pytest.raises(ValueError, match="columns"):
            SplineMatrix(fig2, [(1, 1, 1)])


class TestDeterminant:
    def test_triangular_integer(self, fig2_matrix):
        assert spline_determinant(fig2_matrix) == 40
        assert cofactor_determinant(fig2_matrix.rows()) == 40

    def test_polynomial_example(self, qxy, xy_matrix):
        x, y = qxy.variable("x"), qxy.variable("y")
        assert spline_determinant(xy_matrix) == x * y * (x + y)

    def test_repeated_column_vanishes(self, fig2):
        m = SplineMatrix(fig2, [(1, 1, 1), (1, 1, 1), (0, 0, 10)])
        assert spline_determinant(m) == 0

    def test_bareiss_matches_cofactor_randomly(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert exact_determinant(ZZ, rows) == cofactor_determinant(rows)

    @pytest.mark.parametrize("rows", [[], [[1, 2], [3]], [[1, 2]]],
                             ids=["empty", "ragged", "not-square"])
    def test_a_matrix_that_is_not_square_is_refused(self, rows):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            exact_determinant(ZZ, rows)

    def test_each_entry_is_checked_once(self, monkeypatch):
        # Bareiss divides by 1 or by a nonzero pivot built from checked
        # entries, so it checks nothing again
        rows = [[2, -1, 3, 0, 4], [1, 5, -2, 7, 1], [-3, 2, 4, 1, 0],
                [6, 0, -1, 2, 3], [1, 1, 1, -4, 5]]
        expected = cofactor_determinant(rows)
        checked = []
        check = IntegerRing.check
        monkeypatch.setattr(
            IntegerRing, "check", lambda ring, a: checked.append(a) or check(ring, a)
        )
        assert exact_determinant(ZZ, rows) == expected != 0
        assert checked == [entry for row in rows for entry in row]

    def test_bareiss_matches_cofactor_polynomials(self, qxy):
        rng = random.Random(4)
        x, y = qxy.variable("x"), qxy.variable("y")
        pool = [qxy.one, x, y, x + y, x * y, x - y, qxy.from_int(2)]
        for _ in range(25):
            rows = [[rng.choice(pool) for _ in range(3)] for _ in range(3)]
            assert exact_determinant(qxy, rows) == cofactor_determinant(rows)
        # the integer image against the cofactor oracle and against Bareiss
        # elimination over the polynomial ring itself
        for ring, rows in DETERMINANT_CASES:
            expected = cofactor_determinant(rows)
            assert exact_determinant(ring, rows) == expected
            assert basis_module._bareiss(ring, [list(row) for row in rows]) == expected


def _triangular_cases():
    """Seeded lower, upper and diagonal matrices, as (ring, rows, triangular).

    Over ZZ, ZZ[x,y] and QQ[x,y], n from 1 to 5; about one diagonal entry in
    four is zero. Each lower and upper matrix also comes with one nonzero
    entry added on the side that was zero, which makes it not triangular.
    """
    rng = random.Random(14)
    rings = (ZZ, PolynomialRing("int", ("x", "y")), PolynomialRing("rat", ("x", "y")))
    cases = []
    for ring in rings:
        def entry():
            if ring is ZZ:
                return rng.choice([k for k in range(-9, 10) if k])
            return _random_entry(rng, ring, (1, 2, 3, 5), 2)

        for n in range(1, 6):
            for shape in ("lower", "upper", "diagonal"):
                for _ in range(3):
                    rows = [[ring.zero] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(n):
                            keep = {"lower": j < i, "upper": j > i, "diagonal": False}[shape]
                            if keep or (i == j and rng.random() >= 0.25):
                                rows[i][j] = entry()
                    cases.append((ring, rows, True))
                    if n > 1 and shape != "diagonal":
                        i, j = rng.sample(range(n), 2)
                        if (shape == "lower") == (i > j):  # the side that is zero
                            i, j = j, i
                        near = [list(row) for row in rows]
                        while not near[i][j]:
                            near[i][j] = entry()
                        cases.append((ring, near, False))
    return cases


class TestTriangularDeterminant:
    def test_matches_cofactor_and_bareiss(self):
        cases = _triangular_cases()
        assert sum(triangular for _, _, triangular in cases) == 135
        for ring, rows, triangular in cases:
            assert basis_module._is_triangular(rows) is triangular
            expected = cofactor_determinant(rows)
            assert exact_determinant(ring, rows) == expected
            assert basis_module._bareiss(ring, [list(row) for row in rows]) == expected

    def test_flow_up_basis_takes_no_elimination(self, qxy, monkeypatch):
        rng = random.Random(7)
        fig2 = bundled_graph("fig2")
        k6 = LabeledGraph.complete(ZZ, [rng.randint(1, 10 ** 9) for _ in range(15)])
        q = compute_q(k6).value
        xy = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        candidates = [  # (graph, columns, is_basis)
            (fig2, integer_flow_up_basis(fig2).columns, True),
            (k6, integer_flow_up_basis(k6).columns, True),
            (k6, [tuple(q if i == j else 0 for i in range(6)) for j in range(6)], False),
            (xy, flow_up_search_bounded(xy, [x, y, x + y], 2).basis.columns, True),
        ]

        def unreachable(*args):
            raise AssertionError("a triangular determinant was eliminated")

        # basis reaches the integer image only through the polynomials module
        assert not hasattr(basis_module, "integer_image_determinant")
        monkeypatch.setattr(basis_module, "_bareiss", unreachable)
        monkeypatch.setattr(polynomials, "integer_image_determinant", unreachable)
        for graph, columns, is_basis in candidates:
            verdict = check_basis(SplineMatrix(graph, columns), compute_q(graph))
            assert verdict.is_basis is is_basis


def _sympy_entry(p, gens, sympy):
    total = sympy.Integer(0)
    for exponents, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for gen, e in zip(gens, exponents):
            term *= gen ** e
        total += term
    return total


class TestIntegerImage:
    """The polynomial determinant read back from one integer image."""

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for ring, rows in DETERMINANT_CASES:
            if len(rows) > 4:
                continue  # sympy's symbolic determinant is slow past 4x4
            gens = sympy.symbols(ring.variables)
            matrix = sympy.Matrix([[_sympy_entry(p, gens, sympy) for p in row] for row in rows])
            expected = sympy.Poly(matrix.det(method="berkowitz"), *gens).as_dict()
            determinant = exact_determinant(ring, rows)
            assert {
                e: sympy.Rational(c.numerator, c.denominator)
                for e, c in determinant.terms.items()
            } == {tuple(e): c for e, c in expected.items() if c}

    def test_every_case_stays_within_the_budget(self):
        for ring, rows in DETERMINANT_CASES:
            image = polynomials.integer_image_determinant(rows, basis_module._integer_bareiss)
            assert image is not None
            assert image.coeff_kind == ring.coeff_kind

    @pytest.mark.parametrize("kind, coefficient", [
        ("int", -7), ("int", 12), ("rat", Fraction(-5, 3)), ("rat", Fraction(9, 4)),
    ])
    def test_coefficients_at_the_bound(self, kind, coefficient):
        # one monomial: its coefficient is exactly H, the largest magnitude
        # the digits in (-xi/2, xi/2] must hold
        ring = PolynomialRing(kind, ("x", "y"))
        x, y = ring.variable("x"), ring.variable("y")
        entry = ring.constant(coefficient) * x ** 3 * y ** 2
        # a 1x1 matrix is triangular, so exact_determinant would not take the image
        image = polynomials.integer_image_determinant([[entry]], basis_module._integer_bareiss)
        assert image == entry
        # monomials on the antidiagonal: det = -(their product), again of magnitude H
        entries = [ring.constant(coefficient) * x, ring.from_int(-6) * y ** 2, ring.from_int(5)]
        rows = [[entries[i] if i + j == 2 else ring.zero for j in range(3)] for i in range(3)]
        assert exact_determinant(ring, rows) == -(entries[0] * entries[1] * entries[2])

    def test_over_budget_matrix_stays_on_polynomial_bareiss(self, qxy, monkeypatch):
        x, y = qxy.variable("x"), qxy.variable("y")
        # degree 10^6 in the last variable, which misses the budget at once,
        # and in the first one, which misses it one level down
        for big in (y ** 1000000, x ** 1000000):
            rows = [[qxy.one, big, y], [y, qxy.one, big + x], [big, x, qxy.one]]
            image = polynomials.integer_image_determinant(rows, basis_module._integer_bareiss)
            assert image is None
            expected = cofactor_determinant(rows)
            assert basis_module._bareiss(qxy, [list(row) for row in rows]) == expected
            assert exact_determinant(qxy, rows) == expected

        def unreachable(p, xi):
            raise AssertionError("evaluated past the budget")

        monkeypatch.setattr(polynomials, "_evaluate_last", unreachable)
        rows = [[qxy.one, y ** 1000000], [y, qxy.one]]
        assert exact_determinant(qxy, rows) == qxy.one - y ** 1000001


class TestComputeQ:
    def test_integer_ring_uses_diagonal(self, fig2):
        q = compute_q(fig2)
        assert q.value == 40 and q.provenance is Provenance.PID_DIAGONAL

    def test_coprime_polynomials_use_label_product(self, qxy):
        q = compute_q(bundled_graph("xy"))
        x, y = qxy.variable("x"), qxy.variable("y")
        assert q.value == x * y * (x + y)
        assert q.provenance is Provenance.COPRIME_PRODUCT

    def test_label_lcm_is_a_strict_lower_bound_on_fig2(self, fig2):
        assert label_lcm(fig2) == 20
        assert compute_q(fig2).value == 40  # the bound is not always sharp

    def test_non_coprime_polynomials_fall_back_to_lcm(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        g = LabeledGraph.cycle(qxy, [x * y, y, x + y])
        q = compute_q(g)
        assert q.provenance is Provenance.LCM_LOWER_BOUND
        assert q.value == (x * y * (x + y)).normalized()

    def test_rational_graph_has_no_invariant(self):
        with pytest.raises(ValueError, match="no Q invariant for ring QQ"):
            compute_q(LabeledGraph.path(QQ, [2]))


LCM_RINGS = [("int", ("x", "y")), ("rat", ("x", "y")), ("int", ("x", "y", "z"))]
# each label is the product of the pool factors at these indices; the scan
# stops at the given label (None: pairwise coprime)
LCM_SHAPES = {
    "coprime": ([(0,), (1,), (2,), (3,)], None),
    "shared-first": ([(0, 4), (1, 4), (2,), (3,)], 1),
    "shared-last-only": ([(0,), (1,), (2, 4), (3, 4)], 3),
    # the labels of a poly-gcd cycle: the last one divides the running lcm
    "cycle-of-pairs": ([(0, 1), (1, 2), (2, 3), (3, 0)], 1),
    "later-label-divides": ([(0, 1), (1, 2), (0,), (3,)], 1),
    "repeated-factor": ([(0,), (1,), (0,), (2,)], 2),
    "squared-factor": ([(0,), (0, 0), (1,), (0, 1)], 1),
}
# labels as text: the first shares x + 1; the second shares only integer
# content, so over QQ its labels are pairwise coprime
LCM_TEXTS = {
    "x-plus-one-squared": ["x + 1", "(x + 1)^2", "y - 2"],
    "content-only": ["2*x", "4*y", "6*x*y"],
}


def _lcm_pool(ring):
    """Six seeded factors of degree 1 or 2, pairwise coprime."""
    rng = random.Random(f"label-lcm/{ring.description}")
    x, rest = ring.variable(ring.variables[0]), ring.variables[1:]
    pool = []
    while len(pool) < 6:
        factor = x ** rng.randint(1, 2) + ring.constant(rng.choice((-3, -2, -1, 1, 2, 3)))
        for name in rest:
            coefficient = rng.randint(-4, 4)
            if ring.coeff_kind == "rat":
                coefficient = Fraction(coefficient, rng.choice((1, 2, 3)))
            factor = factor + ring.constant(coefficient) * ring.variable(name) ** rng.randint(1, 2)
        if all(ring.is_unit(ring.gcd(factor, other)) for other in pool):
            pool.append(factor)
    return pool


def _lcm_cases():
    """(id, graph, scan index or None when known) for every ring and shape."""
    cases = []
    for coefficients, variables in LCM_RINGS:
        ring = PolynomialRing(coefficients, variables)
        pool = _lcm_pool(ring)
        name = f"{coefficients}-{''.join(variables)}"
        for shape, (indices, stop) in LCM_SHAPES.items():
            labels = [ring.product(pool[i] for i in factors) for factors in indices]
            cases.append((f"{name}-{shape}", LabeledGraph.cycle(ring, labels), stop))
        for shape, texts in LCM_TEXTS.items():
            labels = [ring.element_from_text(text) for text in texts]
            cases.append((f"{name}-{shape}", LabeledGraph.cycle(ring, labels), None))
        cases.append((f"{name}-one-vertex", LabeledGraph(ring, ["v"], []), None))
    return cases


LCM_CASES = _lcm_cases()


def _new_graphs(shape):
    """New graphs with the labels of ``shape`` in LCM_CASES, one per ring; a
    graph keeps the scan it has taken, so counting tests build their own."""
    return [LabeledGraph.cycle(graph.ring, graph.labels())
            for name, graph, _ in LCM_CASES if name.endswith(shape)]


def _top_level_heuristic_gcds(monkeypatch):
    """The list that records every ``_heu_gcd`` call not made by another."""
    calls, depth = [], [0]
    heuristic = polynomials._heu_gcd

    def counting(a, b):
        if not depth[0]:
            calls.append((a, b))
        depth[0] += 1
        try:
            return heuristic(a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(polynomials, "_heu_gcd", counting)
    return calls


class TestLabelLcm:
    @pytest.mark.parametrize("graph, stop", [case[1:] for case in LCM_CASES],
                             ids=[case[0] for case in LCM_CASES])
    def test_matches_the_folded_lcm(self, graph, stop):
        scan = graph.label_scan
        assert (scan is None) is pairwise_coprime_by_pairs(graph)
        if stop is not None:
            assert scan[0] == stop
        if scan is not None:  # the first label that shares a factor with one before it
            ring, labels = graph.ring, graph.labels()
            k = scan[0]
            assert not pairwise_coprime_by_pairs(LabeledGraph.path(ring, labels[:k + 1]))
            assert pairwise_coprime_by_pairs(LabeledGraph.path(ring, labels[:k]))
        value = label_lcm(graph)
        expected = folded_label_lcm(graph)
        assert value == expected and str(value) == str(expected)

    @pytest.mark.parametrize("graph", [case[1] for case in LCM_CASES],
                             ids=[case[0] for case in LCM_CASES])
    def test_matches_sympy(self, graph):
        sympy = pytest.importorskip("sympy")
        ring = graph.ring
        gens = sympy.symbols(ring.variables)
        # over ZZ the lcm keeps the integer content, so take it in ZZ[vars]
        domain = "ZZ" if ring.coeff_kind == "int" else "QQ"

        def to_sympy(p):
            return sympy.Poly(_sympy_entry(p, gens, sympy), *gens, domain=domain)

        expected = to_sympy(ring.one)
        for label in graph.labels():
            expected = expected.lcm(to_sympy(label))
        quotient, remainder = to_sympy(label_lcm(graph)).div(expected)
        assert remainder.is_zero and quotient.is_ground
        units = (1, -1) if domain == "ZZ" else (quotient.LC(),)
        assert quotient.LC() != 0 and quotient.LC() in units

    def test_one_vertex_graph_has_the_unit_lcm(self, qxy):
        graph = LabeledGraph(qxy, ["v"], [])
        assert graph.label_scan is None
        assert label_lcm(graph) == qxy.one

    def test_cycle_of_pairs_takes_two_heuristic_gcds(self, monkeypatch):
        # a poly-gcd-shaped 4-cycle: labels f0*f1, f1*f2, f2*f3, f3*f0
        calls = _top_level_heuristic_gcds(monkeypatch)
        for graph in _new_graphs("cycle-of-pairs"):
            del calls[:]
            q = compute_q(graph)
            # the scan's gcd at label 1 and the lcm with label 2; label 3 divides
            assert len(calls) == 2, graph.ring
            fresh = LabeledGraph.cycle(graph.ring, graph.labels())
            del calls[:]
            assert not fresh.pairwise_coprime_labels()
            assert folded_label_lcm(fresh) == q.value
            assert len(calls) == 4, graph.ring  # the fold from 1 redoes the scan's gcd

    def test_a_label_that_divides_the_running_lcm_takes_no_gcd(self, monkeypatch):
        calls = _top_level_heuristic_gcds(monkeypatch)
        for graph in _new_graphs("later-label-divides"):
            # labels f0*f1, f1*f2, f0: the scan stops at label 1, and label 2
            # divides the lcm f0*f1*f2 so far
            prefix = LabeledGraph.path(graph.ring, graph.labels()[:3])
            expected = folded_label_lcm(prefix)
            assert not prefix.pairwise_coprime_labels()
            del calls[:]
            assert label_lcm(prefix) == expected
            assert calls == [], graph.ring


class TestCheckBasis:
    def test_accepts_canonical_basis(self, fig2, fig2_matrix):
        verdict = check_basis(fig2_matrix, compute_q(fig2))
        assert verdict.is_basis is True
        assert verdict.unit_factor == 1

    def test_rejects_scaled_column(self, fig2):
        scaled = SplineMatrix(fig2, [(1, 1, 1), (0, 4, 4), (0, 0, 20)])
        verdict = check_basis(scaled, compute_q(fig2))
        assert verdict.is_basis is False

    def test_accepts_handwritten_polynomial_basis(self, xy_matrix):
        verdict = check_basis(xy_matrix, compute_q(xy_matrix.graph))
        assert verdict.is_basis is True
        assert xy_matrix.graph.ring.is_unit(verdict.unit_factor)

    def test_zero_determinant_is_rejected_everywhere(self, fig2):
        degenerate = SplineMatrix(fig2, [(1, 1, 1), (1, 1, 1), (0, 0, 10)])
        verdict = check_basis(degenerate, compute_q(fig2))
        assert verdict.is_basis is False
        assert "zero" in verdict.reason

    def test_graph_mismatch_rejected(self, fig2_matrix):
        other_q = compute_q(bundled_graph("fig2-text"))
        with pytest.raises(ValueError, match="different graph"):
            check_basis(fig2_matrix, other_q)

    def test_unimodular_recombination_accepted(self, fig2, fig2_basis):
        rng = random.Random(31)
        q = compute_q(fig2)
        for _ in range(30):
            u, expected_unit = random_unimodular(rng, 3)
            columns = [
                spline_combination(ZZ, [u[r][j] for r in range(3)], list(fig2_basis.columns))
                for j in range(3)
            ]
            verdict = check_basis(SplineMatrix(fig2, columns), q)
            assert verdict.is_basis is True
            assert verdict.unit_factor == expected_unit
            assert spans_integer_lattice(columns, list(fig2_basis.columns))

    def test_lcm_provenance_accepts_sound_case(self, ):
        # parallel edges labeled x and x^2: lcm is x^2 and a candidate with
        # det == x^2 must be accepted even though Q is only a lower bound
        qx = PolynomialRing("rat", ["x"])
        x = qx.variable("x")
        g = LabeledGraph(qx, ["v1", "v2"], [Edge(0, 1, x), Edge(0, 1, x ** 2)])
        q = compute_q(g)
        assert q.provenance is Provenance.LCM_LOWER_BOUND
        matrix = SplineMatrix(g, [(qx.one, qx.one), (qx.zero, x ** 2)])
        verdict = check_basis(matrix, q)
        assert verdict.is_basis is True

    def test_lcm_provenance_undecided_case(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        g = LabeledGraph.cycle(qxy, [x * y, y, x + y])
        q = compute_q(g)
        columns = [
            (qxy.one, qxy.one, qxy.one),
            (qxy.zero, x * y, qxy.zero),
            (qxy.zero, qxy.zero, y * (x + y)),
        ]
        verdict = check_basis(SplineMatrix(g, columns), q)
        assert verdict.is_basis is None
        assert verdict.undecided


class TestCramer:
    def test_column_target(self, fig2_matrix, fig2_basis):
        coords = cramer_membership(fig2_matrix, fig2_basis.columns[0])
        assert coords == (40, 0, 0)

    def test_fig2_target(self, fig2_matrix):
        assert cramer_membership(fig2_matrix, (3, 15, 5)) == (120, 120, -40)

    def test_zero_target(self, fig2_matrix):
        assert cramer_membership(fig2_matrix, (0, 0, 0)) == (0, 0, 0)

    def test_polynomial_target(self, qxy, xy_matrix):
        x, y = qxy.variable("x"), qxy.variable("y")
        q = x * y * (x + y)
        target = (qxy.zero, qxy.zero, y * (x + y))
        coords = cramer_membership(xy_matrix, target)
        produced = spline_combination(qxy, list(coords), list(xy_matrix.columns))
        assert produced == tuple(q * entry for entry in target)

    def test_singular_matrix_rejected(self, fig2):
        degenerate = SplineMatrix(fig2, [(1, 1, 1), (1, 1, 1), (0, 0, 10)])
        with pytest.raises(ValueError, match="singular"):
            cramer_membership(degenerate, (1, 1, 1))

    def test_non_spline_target_rejected(self, fig2_matrix):
        with pytest.raises(ValueError, match="not a spline"):
            cramer_membership(fig2_matrix, (0, 1, 0))


class TestProbe:
    def test_lcm_divides(self, fig2):
        assert divides_all_dets_probe(fig2, 20, 500, 12345).ok

    def test_basis_determinant_divides(self, fig2):
        assert divides_all_dets_probe(fig2, 40, 500, 12345).ok

    def test_eighty_fails_with_witness(self, fig2):
        result = divides_all_dets_probe(fig2, 80, 500, 12345)
        assert not result.ok
        witness_det = exact_determinant(
            ZZ, [[result.counterexample[j][i] for j in range(3)] for i in range(3)]
        )
        assert witness_det % 80 != 0

    def test_input_validation(self, fig2):
        with pytest.raises(ValueError):
            divides_all_dets_probe(fig2, 20, 0, 1)
        with pytest.raises(ValueError):
            divides_all_dets_probe(fig2, 0, 10, 1)


def _probe_label(rng, ring):
    """A random nonzero label: an int over ZZ, an affine-linear form otherwise."""
    if ring.kind == "int":
        return rng.randint(2, 30)
    x, y = ring.variable("x"), ring.variable("y")
    while True:
        a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-4, 4)
        if a or b:
            return a * x + b * y + ring.from_int(c)


PROBE_RINGS = {
    "zz": ZZ,
    "zxy": PolynomialRing("int", ["x", "y"]),
    "qxy": PolynomialRing("rat", ["x", "y"]),
}


def _probe_graph(ring, shape, n, rng):
    """A seeded path, cycle or complete graph on n vertices, in a shuffled order."""
    edges = {"path": n - 1, "cycle": n, "complete": n * (n - 1) // 2}[shape]
    labels = [_probe_label(rng, ring) for _ in range(edges)]
    graph = getattr(LabeledGraph, shape)(ring, labels)
    order = list(graph.vertices)
    rng.shuffle(order)
    return graph.reorder(order)


PROBE_CASES = [
    (ring, shape, n)
    for ring in PROBE_RINGS
    for shape, sizes in (("path", range(1, 7)), ("cycle", range(3, 7)),
                         ("complete", range(1, 7)))
    for n in sizes
]


def _cofactor_determinant(ring, columns):
    """The oracle determinant of ``columns`` as an element of ``ring``."""
    determinant = cofactor_determinant([[c[i] for c in columns] for i in range(len(columns))])
    return ring.from_int(determinant) if isinstance(determinant, int) else determinant


@pytest.mark.parametrize("ring_name,shape,n", PROBE_CASES)
def test_probe_matches_combination_oracle(ring_name, shape, n):
    """The probe's verdict against splines built as combinations of its pool.

    No seeded integer combination of the constant spline and the flow-up
    witnesses, built entry by entry with its determinant by cofactor
    expansion, refutes a yes. A no's counterexample is n splines whose
    determinant q does not divide; a no without one needs pairwise coprime
    labels and q not dividing Q; UNDECIDED needs Q to be only the label lcm.
    The divisors are Q, the label lcm, Q times a non-unit and Q times the
    label of an edge away from the first vertex.
    """
    ring = PROBE_RINGS[ring_name]
    rng = random.Random(f"probe-oracle/{ring_name}/{shape}/{n}")
    graph = _probe_graph(ring, shape, n, rng)
    invariant = compute_q(graph)
    q = invariant.value
    non_unit = 3 if ring is ZZ else ring.variable("x")
    divisors = [q, label_lcm(graph), ring.mul(q, non_unit)]
    divisors += [ring.mul(q, edge.label) for edge in graph.edges if 0 not in (edge.u, edge.v)][:1]
    pool = [tuple(ring.one for _ in range(n))] + [flow_up_witness(graph, i) for i in range(1, n)]
    determinants = []
    for _ in range(4):
        columns = [spline_combination(ring, [ring.from_int(rng.randint(-3, 3)) for _ in pool], pool)
                   for _ in range(n)]
        determinants.append(_cofactor_determinant(ring, columns))
    for divisor in divisors:
        result = divides_all_dets_probe(graph, divisor, 500, rng.randrange(10 ** 6))
        assert (result.trials, result.invariant) == (500, invariant)
        if result.ok:
            assert all(ring.divides(divisor, d) for d in determinants)
            continue
        assert not ring.divides(divisor, q)
        if result.counterexample is not None:
            assert result.ok is False
            assert all(is_spline(graph, column).ok for column in result.counterexample)
            assert not ring.divides(divisor, _cofactor_determinant(ring, result.counterexample))
        elif result.ok is False:
            assert invariant.provenance is Provenance.COPRIME_PRODUCT
        else:
            assert invariant.provenance is Provenance.LCM_LOWER_BOUND


def _divisors(rng, value, count):
    """``count`` seeded positive divisors of the integer ``value``, 1 and |value| first."""
    from sympy import factorint

    factors = factorint(abs(value))
    divisors = [1, abs(value)]
    while len(divisors) < count:
        divisors.append(math.prod(p ** rng.randint(0, e) for p, e in factors.items()))
    return divisors


def test_probe_over_zz_is_q_divides_the_widest_path_product():
    """Over ZZ the verdict is yes iff q divides the product of the flow-up
    diagonal that widest paths give, for Q, its divisors, Q times a prime and
    seeded integers; every no carries n splines whose determinant, by
    cofactor expansion, q does not divide."""
    pytest.importorskip("sympy")
    rng = random.Random("probe-zz-gate")
    verdicts = set()
    for _ in range(60):
        shape = rng.choice(["path", "cycle", "complete"])
        graph = _probe_graph(ZZ, shape, rng.randint(3 if shape == "cycle" else 1, 5), rng)
        edges = [(e.u, e.v, e.label) for e in graph.edges]
        product = math.prod(widest_path_diagonal(graph.n, edges))
        q = compute_q(graph).value
        divisors = _divisors(rng, q, 4) + [q * rng.choice([2, 3, 5, 7, 11, 13])]
        divisors += [rng.choice([-1, 1]) * rng.randint(1, 10 ** 4) for _ in range(3)]
        for divisor in divisors:
            result = divides_all_dets_probe(graph, divisor, 1, rng.randrange(10 ** 6))
            assert result.ok is (product % divisor == 0), (graph.to_document(), divisor)
            verdicts.add(result.ok)
            if not result.ok:
                assert all(is_spline(graph, column).ok for column in result.counterexample)
                assert _cofactor_determinant(ZZ, result.counterexample) % divisor != 0
    assert verdicts == {True, False}


def test_probe_makes_no_random_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("the probe drew a random number")

    for name in ("random", "getrandbits", "randrange", "randint", "seed"):
        monkeypatch.setattr(random.Random, name, refuse)
    for name in ("fig2", "xy", "squares", "zx-obstruction"):
        graph = bundled_graph(name)
        q = compute_q(graph).value
        for divisor in (q, graph.ring.mul(q, graph.ring.from_int(7))):
            divides_all_dets_probe(graph, divisor, 500, 12345)


class TestObstruction:
    def test_zx_instance(self):
        zx = PolynomialRing("int", ["x"])
        x = zx.variable("x")
        assert c3_flowup_obstruction(zx, x + 1, zx.from_int(2), x, even_constant_term)

    def test_integer_style_no_obstruction(self):
        # over a PID the ideal test accepts and no obstruction appears;
        # modeled here with constant polynomials and an always-true predicate
        zx = PolynomialRing("int", ["x"])
        assert (
            c3_flowup_obstruction(
                zx, zx.from_int(3), zx.from_int(2), zx.from_int(5), lambda p: True
            )
            is False
        )

    def test_two_variable_instance(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        assert c3_flowup_obstruction(qxy, x + y + 1, x, y, zero_constant_term)

    def test_coprimality_enforced(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        with pytest.raises(ValueError, match="coprime"):
            c3_flowup_obstruction(qxy, x, x * y, y, zero_constant_term)

    def test_zero_label_rejected(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        with pytest.raises(ValueError, match="nonzero"):
            c3_flowup_obstruction(qxy, qxy.zero, x, y, zero_constant_term)

    def test_predicate_semantics(self, qxy):
        x, y = qxy.variable("x"), qxy.variable("y")
        zx = PolynomialRing("int", ["x"])
        assert even_constant_term(zx.from_int(2)) and not even_constant_term(
            zx.variable("x") + 1
        )
        assert zero_constant_term(x + y) and not zero_constant_term(x + 1)


class TestAcceptanceSoundness:
    def test_accepted_columns_absorb_scaled_units_and_enumerated_splines(
        self, fig2, fig2_basis
    ):
        # whenever the determinant check accepts over the integers, Q*e_i and
        # enumerated splines all have integer coordinates in the accepted set
        from oracles import enumerate_integer_splines, solve_exact

        rng = random.Random(55)
        u, _ = random_unimodular(rng, 3)
        columns = [
            spline_combination(ZZ, [u[r][j] for r in range(3)], list(fig2_basis.columns))
            for j in range(3)
        ]
        verdict = check_basis(SplineMatrix(fig2, columns), compute_q(fig2))
        assert verdict.is_basis
        targets = [tuple(40 if j == i else 0 for j in range(3)) for i in range(3)]
        edges = [(e.u, e.v, e.label) for e in fig2.edges]
        targets += rng.sample(enumerate_integer_splines(3, edges, 15), 50)
        rows = [[columns[j][i] for j in range(3)] for i in range(3)]
        for target in targets:
            coords = solve_exact(rows, list(target))
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)


class TestPartialConverse:
    def test_accepted_basis_determinant_divides_random_subsets(self, fig2, fig2_basis):
        # det of any accepted basis divides det of any n-subset
        rng = random.Random(77)
        pool = list(fig2_basis.columns)
        for _ in range(200):
            columns = []
            for _ in range(3):
                coeffs = [rng.randint(-3, 3) for _ in pool]
                columns.append(spline_combination(ZZ, coeffs, pool))
            det = exact_determinant(
                ZZ, [[columns[j][i] for j in range(3)] for i in range(3)]
            )
            assert det % 40 == 0
