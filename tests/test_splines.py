import random
from fractions import Fraction

import pytest

from graphsplines import (
    ZZ,
    IntegerRing,
    LabeledGraph,
    PolynomialRing,
    RingMismatchError,
    flow_up_index,
    flow_up_witness,
    integer_flow_up_basis,
    is_spline,
    leading_term,
    spline_combination,
)
from conftest import bundled_graph


@pytest.fixture(scope="module")
def fig2():
    return bundled_graph("fig2")


# integer graphs with negative labels, whose quotients round toward -infinity
NEGATIVE_LABELS = {
    "k4-negative": LabeledGraph.complete(ZZ, [-2, 3, -4, 5, -6, -7]),
    "c5-negative": LabeledGraph.cycle(ZZ, [-6, -10, 15, -4, -9]),
}


class TestIsSpline:
    def test_fig2_example(self, fig2):
        assert is_spline(fig2, (3, 15, 5)).ok

    def test_fig2_text_reading(self):
        assert is_spline(bundled_graph("fig2-text"), (3, 15, 5)).ok

    def test_constant_spline(self, fig2):
        assert is_spline(fig2, (1, 1, 1)).ok

    def test_violations_are_all_reported(self, fig2):
        check = is_spline(fig2, (0, 1, 0))
        assert not check.ok
        names = {(v.u, v.v) for v in check.violations}
        assert names == {("v1", "v2"), ("v2", "v3")}

    def test_length_mismatch(self, fig2):
        with pytest.raises(ValueError):
            is_spline(fig2, (1, 2))

    def test_polynomial_spline(self, qxy):
        g = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        assert is_spline(g, (qxy.zero, x, x + y)).ok
        assert not is_spline(g, (qxy.one, x, qxy.zero)).ok

    @pytest.mark.parametrize(
        "name", ["fig2", "xy", "squares", "zx-obstruction", "k4", "k4-negative", "c5-negative"]
    )
    def test_violations_match_divides(self, corpus, name):
        # every edge whose label does not divide its endpoints' difference, by
        # the ring's own divides, on candidates built from labels and units
        graph = NEGATIVE_LABELS.get(name) or corpus[name]
        ring = graph.ring
        rng = random.Random(name)
        pool = [ring.zero, ring.one, ring.from_int(-2), *graph.labels()]
        pool += [ring.mul(a, b) for a in graph.labels() for b in graph.labels()]
        for _ in range(60):
            candidate = [rng.choice(pool) for _ in range(graph.n)]
            failed = [
                index for index, e in enumerate(graph.edges)
                if not ring.divides(e.label, ring.sub(candidate[e.u], candidate[e.v]))
            ]
            check = is_spline(graph, candidate)
            assert [v.edge_index for v in check.violations] == failed
            assert check.ok == (not failed)


    @pytest.mark.parametrize("name", ["fig2", "xy", "zx-obstruction"])
    def test_foreign_entry_raises(self, corpus, name):
        graph = corpus[name]
        other = PolynomialRing("int", ["z"]).variable("z")
        foreign = [1.0, True, other] + ([Fraction(1, 2)] if graph.ring is ZZ else [1])
        for entry in foreign:
            for position in range(graph.n):
                candidate = [graph.ring.one] * graph.n
                candidate[position] = entry
                with pytest.raises(RingMismatchError):
                    is_spline(graph, candidate)

    def test_each_entry_is_checked_once_and_no_label(self, corpus, monkeypatch):
        checked = []
        check = IntegerRing.check
        monkeypatch.setattr(
            IntegerRing, "check", lambda ring, a: checked.append(a) or check(ring, a)
        )
        # four entries and six labels; the labels were checked when the graph
        # was built, so a violated one is printed without a check
        for candidate, violated in [((-7, -7, -7, -7), 0), ((0, 2, 3, 4), 3)]:
            checked.clear()
            assert len(is_spline(corpus["k4"], candidate).violations) == violated
            assert checked == list(candidate)


class TestFlowUpClassification:
    def test_index_examples(self):
        assert flow_up_index((0, 4, 4)) == 1
        assert flow_up_index((1, 1, 1)) == 0
        assert flow_up_index((0, 0, 0)) == 3

    def test_index_polynomial(self, qxy):
        y = qxy.variable("y")
        assert flow_up_index((qxy.zero, qxy.zero, y)) == 2

    def test_leading_term(self, qxy):
        assert leading_term((0, 4, 4)) == 4
        assert leading_term((7, 0, 1)) == 7
        x, y = qxy.variable("x"), qxy.variable("y")
        assert leading_term((qxy.zero, qxy.zero, y * (x + y))) == y * (x + y)

    def test_leading_term_of_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_term((0, 0))


class TestWitness:
    def test_fig2_witness(self, fig2):
        assert flow_up_witness(fig2, 1) == (0, 20, 0)

    def test_xy_witness(self, qxy):
        g = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        assert flow_up_witness(g, 2) == (qxy.zero, qxy.zero, y * (x + y))

    def test_path_witness(self):
        g = LabeledGraph.path(ZZ, [13])
        assert flow_up_witness(g, 1) == (0, 13)

    def test_range_errors(self, fig2):
        with pytest.raises(ValueError):
            flow_up_witness(fig2, 0)
        with pytest.raises(ValueError):
            flow_up_witness(fig2, 3)

    def test_witness_validity_across_corpus(self, corpus):
        for graph in corpus.values():
            for index in range(1, graph.n):
                witness = flow_up_witness(graph, index)
                assert is_spline(graph, witness).ok
                assert flow_up_index(witness) == index


class TestModuleStructure:
    def test_combination_examples(self, fig2):
        ones = (1, 1, 1)
        assert spline_combination(ZZ, [1, 0], [ones, (0, 4, 4)]) == ones
        doubled = spline_combination(ZZ, [2], [(0, 4, 4)])
        assert doubled == (0, 8, 8)
        assert is_spline(fig2, doubled).ok
        reduced = spline_combination(ZZ, [1, -3], [(3, 15, 5), ones])
        assert reduced == (0, 12, 2)
        assert is_spline(fig2, reduced).ok
        assert flow_up_index(reduced) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spline_combination(ZZ, [1, 2], [(1, 1)])
        with pytest.raises(ValueError, match="at least one spline"):
            spline_combination(ZZ, [], [])
        with pytest.raises(ValueError, match="mismatched lengths"):
            spline_combination(ZZ, [1, 1], [(1, 2), (1, 2, 3)])

    def test_closure(self, corpus):
        rng = random.Random(5)
        for graph in corpus.values():
            ring = graph.ring
            pool = [tuple(ring.one for _ in range(graph.n))]
            pool += [flow_up_witness(graph, i) for i in range(1, graph.n)]
            for _ in range(20):
                coeffs_s = [ring.from_int(rng.randint(-4, 4)) for _ in pool]
                coeffs_t = [ring.from_int(rng.randint(-4, 4)) for _ in pool]
                s = spline_combination(ring, coeffs_s, pool)
                t = spline_combination(ring, coeffs_t, pool)
                c, d = ring.from_int(rng.randint(-3, 3)), ring.from_int(rng.randint(-3, 3))
                combo = spline_combination(ring, [c, d], [s, t])
                assert is_spline(graph, combo).ok

    def test_leading_term_ideal_closure(self, fig2):
        # sums of same-class leading terms are leading terms again (or zero),
        # and scalars slide through the leading term
        rng = random.Random(8)
        basis = integer_flow_up_basis(fig2)
        for index in (1, 2):
            column = basis.columns[index]
            for _ in range(50):
                a, b = rng.randint(-6, 6), rng.randint(-6, 6)
                s = spline_combination(ZZ, [a], [column])
                t = spline_combination(ZZ, [b], [column])
                total = spline_combination(ZZ, [1, 1], [s, t])
                if a + b == 0:
                    assert flow_up_index(total) > index
                else:
                    assert flow_up_index(total) >= index
                    assert leading_term(total) == (
                        leading_term(s) if b == 0 else leading_term(s) + leading_term(t)
                        if a != 0
                        else leading_term(t)
                    )
                if a and b:
                    assert leading_term(spline_combination(ZZ, [b], [s])) == b * leading_term(s)

    def test_reduction_against_minimal_element(self, fig2):
        # subtracting the right multiple of the minimal element strictly
        # increases the flow-up index
        basis = integer_flow_up_basis(fig2)
        rng = random.Random(21)
        for index in (0, 1, 2):
            minimal = basis.columns[index]
            for _ in range(50):
                coeffs = [rng.randint(-5, 5) for _ in range(index, 3)]
                if coeffs[0] == 0:
                    coeffs[0] = 3
                s = spline_combination(ZZ, coeffs, basis.columns[index:])
                assert flow_up_index(s) == index
                r, remainder = divmod(leading_term(s), basis.diagonal[index])
                assert remainder == 0
                reduced = spline_combination(ZZ, [1, -r], [s, minimal])
                assert flow_up_index(reduced) > index
