"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report stream. All checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import functools
import random

from graphsplines import (
    ZZ,
    Polynomial,
    PolynomialRing,
    SplineMatrix,
    c3_flowup_obstruction,
    check_basis,
    compute_q,
    cramer_membership,
    divides_all_dets_probe,
    even_constant_term,
    flow_up_search_bounded,
    flow_up_witness,
    hermite_normal_form,
    integer_flow_up_basis,
    is_spline,
    label_lcm,
    lattice_membership,
    poly_gcd,
    spline_combination,
    spline_determinant,
)
from conftest import bundled_graph
from oracles import (
    cofactor_determinant,
    enumerate_integer_splines,
    matrix_multiply,
    minimal_positive_leading_term,
    random_unimodular,
    spans_integer_lattice,
)

QXY = PolynomialRing("rat", ["x", "y"])
X, Y = QXY.variable("x"), QXY.variable("y")

CORPUS_NAMES = ("fig2", "fig2-text", "xy", "squares", "zx-obstruction")


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:02d}: FAIL - {title}")
                raise
            print(f"criterion {number:02d}: PASS - {title}")

        return wrapper

    return decorate


def int_edges(graph):
    return [(e.u, e.v, e.label) for e in graph.edges]


@criterion(1, "(3,15,5) verifies on both bundled 3-cycles; (0,1,0) rejected with named edges")
def test_criterion_01_spline_verification():
    fig2 = bundled_graph("fig2")
    assert is_spline(fig2, (3, 15, 5)).ok
    assert is_spline(bundled_graph("fig2-text"), (3, 15, 5)).ok
    check = is_spline(fig2, (0, 1, 0))
    assert not check.ok
    violated = {(v.u, v.v) for v in check.violations}
    assert violated == {("v1", "v2"), ("v2", "v3")}


@criterion(2, "integer flow-up basis diag (1,4,10), det 40, brute-force confirmed")
def test_criterion_02_pid_flow_up_basis():
    graph = bundled_graph("fig2")
    basis = integer_flow_up_basis(graph)
    assert basis.diagonal == (1, 4, 10)
    assert basis.determinant == 40
    splines = enumerate_integer_splines(3, int_edges(graph), 40)
    assert splines  # the box is certainly inhabited
    for spline in splines:
        coords = lattice_membership(basis, spline)
        assert coords is not None
        assert spline_combination(ZZ, list(coords), list(basis.columns)) == spline
    assert minimal_positive_leading_term(splines, 1) == 4
    assert minimal_positive_leading_term(splines, 2) == 10


@criterion(3, "determinant criterion is an iff over the integers (200 instances)")
def test_criterion_03_determinant_iff():
    graph = bundled_graph("fig2")
    basis = integer_flow_up_basis(graph)
    generators = list(basis.columns)
    q = compute_q(graph)
    rng = random.Random(20260810)
    for _ in range(100):
        unimodular, expected_unit = random_unimodular(rng, 3)
        columns = [
            spline_combination(ZZ, [unimodular[r][j] for r in range(3)], generators)
            for j in range(3)
        ]
        verdict = check_basis(SplineMatrix(graph, columns), q)
        assert verdict.is_basis is True
        assert verdict.unit_factor == expected_unit
        assert expected_unit in (1, -1)
        assert spans_integer_lattice(columns, generators)
    for _ in range(100):
        scale = rng.choice([2, 3, 5])
        position = rng.randrange(3)
        columns = list(generators)
        columns[position] = tuple(scale * entry for entry in columns[position])
        verdict = check_basis(SplineMatrix(graph, columns), q)
        assert verdict.is_basis is False
        assert not spans_integer_lattice(columns, generators)


@criterion(4, "search finds a flow-up basis on the (x, y, x+y) cycle")
def test_criterion_04_xy_search():
    graph = bundled_graph("xy")
    outcome = flow_up_search_bounded(graph, [X, Y, X + Y], 2)
    assert outcome.found
    determinant = spline_determinant(outcome.basis)
    unit = QXY.exact_div(determinant, X * Y * (X + Y))
    assert unit is not None and unit.is_constant() and not unit.is_zero()
    verdict = check_basis(outcome.basis, compute_q(graph))
    assert verdict.is_basis is True


@criterion(5, "no flow-up basis on the squared-label cycle up to degree 6 (3^6 assignments)")
def test_criterion_05_squares_nonexistent():
    graph = bundled_graph("squares")
    outcome = flow_up_search_bounded(graph, [X, X, Y, Y, X + Y, X + Y], 6)
    assert not outcome.found
    assert outcome.assignments_total == 3 ** 6 == 729
    assert outcome.degree_bound == 6
    assert outcome.systems_checked == 216  # distinct leading-term tuples


@criterion(6, "3-cycle obstruction over ZZ[x] with labels (x+1, 2, x)")
def test_criterion_06_zx_obstruction():
    zx = PolynomialRing("int", ["x"])
    x = zx.variable("x")
    a, b, c = x + 1, zx.from_int(2), x
    for left, right in ((a, b), (a, c), (b, c)):
        assert poly_gcd(left, right).is_unit()
    assert not even_constant_term(a)
    assert c3_flowup_obstruction(zx, a, b, c, even_constant_term) is True
    graph = bundled_graph("zx-obstruction")
    assert graph.labels() == [a, b, c]


def _random_poly(ring, rng, max_degree=3, max_terms=3, max_coef=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        split = rng.randint(0, degree)
        exponents = (split, degree - split) if len(ring.variables) == 2 else (degree,)
        terms[exponents] = rng.randint(-max_coef, max_coef)
    return Polynomial(ring.variables, ring.coeff_kind, terms)


def _nonzero_poly(ring, rng, **kw):
    while True:
        p = _random_poly(ring, rng, **kw)
        if p:
            return p


def _int_sampler(rng):
    def nonzero(**kw):
        return rng.randint(1, 60) * rng.choice([-1, 1])

    return nonzero


def _poly_sampler(ring, rng):
    def nonzero(**kw):
        return _nonzero_poly(ring, rng, **kw)

    return nonzero


@criterion(7, "GCD-domain law suite, 500 instances each over ZZ and QQ[x,y]")
def test_criterion_07_gcd_domain_laws():
    jobs = [
        (ZZ, _int_sampler(random.Random(71))),
        (QXY, _poly_sampler(QXY, random.Random(72))),
    ]
    for ring, sample in jobs:
        normalize = ring.normalize
        for _ in range(500):  # gcd(ax, bx) equals x*gcd(a, b) up to a unit
            a, b, x = sample(), sample(), sample()
            lhs = ring.gcd(ring.mul(a, x), ring.mul(b, x))
            rhs = normalize(ring.mul(x, ring.gcd(a, b)))
            assert normalize(lhs) == rhs
        for _ in range(500):  # a | bc with gcd(a, b) a unit forces a | c
            a = sample()
            while True:
                b = sample()
                if ring.is_unit(ring.gcd(a, b)):
                    break
            c = ring.mul(a, sample())
            assert ring.divides(a, ring.mul(b, c))
            assert ring.divides(a, c)
        for _ in range(500):  # coprime pairs stay coprime under powers 2 and 3
            a = sample(max_degree=2)
            while True:
                b = sample(max_degree=2)
                if ring.is_unit(ring.gcd(a, b)):
                    break
            for m in (2, 3):
                am = ring.product([a] * m)
                bm = ring.product([b] * m)
                assert ring.is_unit(ring.gcd(am, bm))
        for _ in range(500):  # leave-one-out products of a coprime tuple are coprime
            while True:
                tup = [sample(max_degree=2) for _ in range(3)]
                if all(
                    ring.is_unit(ring.gcd(tup[i], tup[j]))
                    for i in range(3)
                    for j in range(i + 1, 3)
                ):
                    break
            hats = [
                ring.product([tup[j] for j in range(3) if j != i]) for i in range(3)
            ]
            assert ring.is_unit(ring.gcd(ring.gcd(hats[0], hats[1]), hats[2]))
    # the frozen hat example: (2, 3, 5) gives hat products 15, 10, 6
    assert ZZ.gcd(ZZ.gcd(15, 10), 6) == 1


@criterion(8, "lcm of the labels divides 500 random determinants per corpus graph")
def test_criterion_08_lcm_divides_determinants():
    for name in CORPUS_NAMES:
        graph = bundled_graph(name)
        result = divides_all_dets_probe(graph, label_lcm(graph), 500, 20260810)
        assert result.ok, f"lcm divisibility failed on {name}"
    fig2 = bundled_graph("fig2")
    assert label_lcm(fig2) == 20
    basis_det = integer_flow_up_basis(fig2).determinant
    assert basis_det == 40
    assert basis_det % 20 == 0 and basis_det != 20  # the bound is not sharp here


def _accepted_bases():
    for name in ("fig2", "fig2-text"):
        graph = bundled_graph(name)
        basis = integer_flow_up_basis(graph)
        yield graph, SplineMatrix(graph, basis.columns), basis
    graph = bundled_graph("xy")
    outcome = flow_up_search_bounded(graph, [X, Y, X + Y], 2)
    yield graph, outcome.basis, None


@criterion(9, "Cramer coordinates solve m*x = Q*target for 50 targets per basis")
def test_criterion_09_cramer_membership():
    rng = random.Random(909)
    for graph, matrix, hnf_basis in _accepted_bases():
        ring = graph.ring
        q = spline_determinant(matrix)
        pool = [tuple(ring.one for _ in range(graph.n))]
        pool += [flow_up_witness(graph, i) for i in range(1, graph.n)]
        for _ in range(50):
            coefficients = [ring.from_int(rng.randint(-4, 4)) for _ in pool]
            target = spline_combination(ring, coefficients, pool)
            coords = cramer_membership(matrix, target)
            produced = spline_combination(ring, list(coords), list(matrix.columns))
            assert produced == tuple(ring.mul(q, entry) for entry in target)
            if hnf_basis is not None:
                membership = lattice_membership(hnf_basis, target)
                assert membership is not None
                assert coords == tuple(q * m for m in membership)


@criterion(10, "HNF transform correctness (200 matrices) and Q*e_i lattice membership")
def test_criterion_10_hnf_kernel_correctness():
    rng = random.Random(1010)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        matrix = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        hnf, transform = hermite_normal_form(matrix)
        assert matrix_multiply(matrix, transform) == hnf
        assert abs(cofactor_determinant(transform)) == 1
    for name in CORPUS_NAMES:
        graph = bundled_graph(name)
        ring = graph.ring
        q = compute_q(graph).value
        for i in range(graph.n):
            scaled_unit = tuple(
                q if j == i else ring.zero for j in range(graph.n)
            )
            assert is_spline(graph, scaled_unit).ok
        if ring.kind == "int":
            basis = integer_flow_up_basis(graph)
            for i in range(graph.n):
                scaled_unit = tuple(q if j == i else 0 for j in range(graph.n))
                assert lattice_membership(basis, scaled_unit) is not None
