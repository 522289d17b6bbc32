import json
import random
import time
from fractions import Fraction

import pytest

from graphsplines import (
    QQ,
    ZZ,
    Edge,
    GraphError,
    LabeledGraph,
    Polynomial,
    PolynomialRing,
    is_connected,
    load_graph,
)
import graphsplines.polynomials as polynomials
from conftest import bundled_graph
from oracles import breadth_first_is_connected, pairwise_coprime_by_pairs


def doc(labels=("4", "5", "2"), ring=None):
    return {
        "ring": ring or {"kind": "int"},
        "vertices": ["v1", "v2", "v3"],
        "edges": [
            {"u": "v1", "v": "v2", "label": labels[0]},
            {"u": "v2", "v": "v3", "label": labels[1]},
            {"u": "v3", "v": "v1", "label": labels[2]},
        ],
    }


class TestLoading:
    def test_fig2(self):
        g = bundled_graph("fig2")
        assert g.n == 3
        assert len(g.edges) == 3
        assert g.labels() == [4, 5, 2]

    def test_single_edge_path(self):
        g = load_graph(
            json.dumps(
                {
                    "ring": {"kind": "poly", "coefficients": "rat", "variables": ["x"]},
                    "vertices": ["v1", "v2"],
                    "edges": [{"u": "v1", "v": "v2", "label": "x"}],
                }
            )
        )
        assert g.n == 2 and len(g.edges) == 1

    def test_zero_label(self):
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(labels=("4", "5", "0"))))
        assert err.value.code == "ZERO_LABEL"

    def test_self_loop(self):
        document = doc()
        document["edges"][0]["v"] = "v1"
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(document))
        assert err.value.code == "SELF_LOOP"

    def test_disconnected(self):
        document = doc()
        document["vertices"].append("v4")
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(document))
        assert err.value.code == "DISCONNECTED"

    def test_unknown_vertex(self):
        document = doc()
        document["edges"][1]["u"] = "w9"
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(document))
        assert err.value.code == "UNKNOWN_VERTEX"

    def test_label_parse_failure(self):
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(labels=("4", "5", "x"))))
        assert err.value.code == "LABEL_PARSE"

    def test_deeply_nested_label(self):
        ring = {"kind": "poly", "coefficients": "rat", "variables": ["x"]}
        nested = "(" * 3000 + "x" + ")" * 3000
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(labels=(nested, "x + 1", "x + 2"), ring=ring)))
        assert err.value.code == "LABEL_PARSE"

    def test_large_power_label(self):
        ring = {"kind": "poly", "coefficients": "int", "variables": ["x", "y"]}
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(labels=("(x+y+1)^200", "x", "y"), ring=ring)))
        assert err.value.code == "LABEL_PARSE"
        assert "more than 1000 terms" in str(err.value)

    def test_power_with_huge_coefficient_label(self):
        ring = {"kind": "poly", "coefficients": "int", "variables": ["x", "y"]}
        start = time.perf_counter()
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(labels=("3^10000000", "x", "y"), ring=ring)))
        assert time.perf_counter() - start < 1
        assert err.value.code == "LABEL_PARSE"
        assert "more than 8192 bits" in str(err.value)

    def test_superscript_exponent_label(self):
        ring = {"kind": "poly", "coefficients": "rat", "variables": ["x"]}
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(labels=("x^²", "x + 1", "x + 2"), ring=ring)))
        assert err.value.code == "LABEL_PARSE"
        assert "unexpected character '²'" in str(err.value)

    def test_overlong_integer_label(self):
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(labels=("7" * 5000, "5", "2"))))
        assert err.value.code == "LABEL_PARSE"
        assert "integer literal too long" in str(err.value)

    @pytest.mark.parametrize("label", [4, 4.5, None, ["4"]])
    @pytest.mark.parametrize(
        "ring",
        [{"kind": "int"}, {"kind": "poly", "coefficients": "int", "variables": ["x"]}],
    )
    def test_non_string_label(self, label, ring):
        document = doc(ring=ring)
        document["edges"][0]["label"] = label
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(document))
        assert err.value.code == "LABEL_PARSE"

    @pytest.mark.parametrize("reference", [1, None, ["v1"]])
    def test_non_string_vertex_reference(self, reference):
        document = doc()
        document["edges"][1]["v"] = reference
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(document))
        assert err.value.code == "UNKNOWN_VERTEX"

    def test_duplicate_vertex(self):
        document = doc()
        document["vertices"] = ["v1", "v1", "v3"]
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(document))
        assert err.value.code == "DUPLICATE_VERTEX"

    @pytest.mark.parametrize(
        "edits, expected",
        [
            # the label checks run over every edge before the endpoint, self-loop
            # and zero-label checks of any edge
            ({("edges", 0, "label"): "0", ("edges", 1, "label"): 5},
             "LABEL_PARSE: edge 2 label 5 is not a string"),
            ({("edges", 0, "v"): "v1", ("edges", 2, "label"): "2x"},
             "LABEL_PARSE: edge 3 label '2x': malformed integer literal '2x' (column 1)"),
            # the vertex names are checked before any edge
            ({("vertices",): ["v1", "v2", "v1"], ("edges", 1): ["v2", "v3", "5"]},
             "DUPLICATE_VERTEX: vertex names must be distinct"),
            # within an edge, its endpoints before its label
            ({("edges", 1, "v"): None, ("edges", 1, "label"): 5},
             "UNKNOWN_VERTEX: edge 2 references None"),
            # edges in order, within either phase
            ({("edges", 0, "label"): "x", ("edges", 1, "u"): "w9"},
             "LABEL_PARSE: edge 1 label 'x': malformed integer literal 'x' (column 1)"),
            ({("edges", 0, "label"): "0", ("edges", 1, "v"): "v2"},
             "ZERO_LABEL: edge 1 has label 0"),
        ],
    )
    def test_first_of_two_faults_is_reported(self, edits, expected):
        document = doc()
        for (*keys, last), value in edits.items():
            target = document
            for key in keys:
                target = target[key]
            target[last] = value
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(document))
        assert str(err.value) == expected
        assert err.value.code == expected.split(":")[0]

    def test_empty_graph(self):
        with pytest.raises(GraphError) as err:
            LabeledGraph(ZZ, [], [])
        assert err.value.code == "EMPTY_GRAPH"

    def test_bad_json(self):
        with pytest.raises(GraphError) as err:
            load_graph("{broken")
        assert err.value.code == "BAD_DOCUMENT"

    def test_deeply_nested_json(self):
        with pytest.raises(GraphError) as err:
            load_graph("[" * 100000)
        assert err.value.code == "BAD_DOCUMENT"

    @pytest.mark.parametrize("name", [None, ["x"], 1])
    def test_non_string_variable(self, name):
        ring = {"kind": "poly", "coefficients": "rat", "variables": [name, "y"]}
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(ring=ring)))
        assert err.value.code == "BAD_RING"

    def test_rat_ring_rejected_for_graphs(self):
        with pytest.raises(GraphError) as err:
            load_graph(json.dumps(doc(ring={"kind": "rat"})))
        assert err.value.code == "BAD_RING"

    def test_each_edge_is_built_once(self, monkeypatch):
        built = []
        init = Edge.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Edge, "__init__", counting)
        ring = {"kind": "poly", "coefficients": "rat", "variables": ["x"]}
        for document in (doc(), doc(labels=("x", "x + 1", "2*x"), ring=ring)):
            built.clear()
            g = load_graph(json.dumps(document))
            assert len(built) == len(g.edges) == 3

    def test_checked_edges_are_kept(self):
        edges = [Edge(0, 1, 4), Edge(1, 2, 5), Edge(2, 0, 2)]
        g = LabeledGraph(ZZ, ["a", "b", "c"], edges)
        assert all(kept is given for kept, given in zip(g.edges, edges))
        # a label that the check converts gives a new edge with the converted label
        h = LabeledGraph(QQ, ["a", "b", "c"], edges)
        assert all(type(e.label) is Fraction for e in h.edges)
        assert [(e.u, e.v, e.label) for e in h.edges] == [(0, 1, 4), (1, 2, 5), (2, 0, 2)]

    def test_multi_edge_allowed(self):
        ring = PolynomialRing("rat", ["x"])
        x = ring.variable("x")
        g = LabeledGraph(ring, ["v1", "v2"], [Edge(0, 1, x), Edge(0, 1, x**2)])
        assert len(g.edges) == 2

    @pytest.mark.parametrize("vertices, edge, code", [
        (["a", "a"], Edge(0, 1, 2), "DUPLICATE_VERTEX"),
        (["a", "b"], Edge(0, 2, 2), "UNKNOWN_VERTEX"),
        (["a", "b"], Edge(-1, 1, 2), "UNKNOWN_VERTEX"),
    ])
    def test_direct_construction_checks_the_vertices(self, vertices, edge, code):
        with pytest.raises(GraphError) as err:
            LabeledGraph(ZZ, vertices, [edge])
        assert err.value.code == code

    def test_convenience_constructors_check_the_label_count(self):
        with pytest.raises(ValueError, match="at least three edges"):
            LabeledGraph.cycle(ZZ, [2, 3])
        with pytest.raises(ValueError, match=r"C\(n, 2\)"):
            LabeledGraph.complete(ZZ, [2, 3])


class TestQueries:
    def test_incident_labels_fig2(self):
        g = bundled_graph("fig2")
        assert g.incident_labels(1) == [4, 5]

    def test_incident_labels_path(self):
        g = LabeledGraph.path(ZZ, [9])
        assert g.incident_labels(0) == [9]

    def test_incident_labels_xy(self, qxy):
        g = bundled_graph("xy")
        x, y = qxy.variable("x"), qxy.variable("y")
        assert g.incident_labels(2) == [y, x + y]

    def test_incident_labels_bad_index(self):
        with pytest.raises(IndexError):
            bundled_graph("fig2").incident_labels(3)

    def test_edge_name(self):
        g = bundled_graph("fig2")
        assert [g.edge_name(k) for k in range(3)] == ["v1~v2", "v2~v3", "v3~v1"]
        reordered = g.reorder(["v3", "v1", "v2"])
        assert [reordered.edge_name(k) for k in range(3)] == ["v1~v2", "v2~v3", "v3~v1"]
        with pytest.raises(IndexError):
            g.edge_name(3)

    def test_pairwise_coprime(self, qxy):
        assert bundled_graph("xy").pairwise_coprime_labels()
        assert bundled_graph("squares").pairwise_coprime_labels()
        assert not bundled_graph("fig2").pairwise_coprime_labels()
        single = LabeledGraph.path(ZZ, [6])
        assert single.pairwise_coprime_labels()

    @pytest.mark.parametrize("coefficients,texts,expected", [
        ("zz", ["7", "11", "13", "6", "10"], False),
        ("zz", ["1", "-1", "5", "1"], True),
        ("zz", ["-3", "4", "5", "-7"], True),
        ("int", ["x", "y", "x + y", "x*y + 1", "(x + 1)*(y - 1)", "(x + 1)*(x - y)"], False),
        ("rat", ["x", "y", "x + y", "x*y + 1", "(x + 1)*(y - 1)", "(x + 1)*(x - y)"], False),
        ("int", ["2", "3*x", "6*y"], False),
        ("rat", ["2", "3*x", "6*y"], True),
        ("int", ["2", "3*x", "5*y"], True),
        ("int", ["2*x + 2", "3*x + 3"], False),
        ("rat", ["2*x + 2", "3*x + 3"], False),
        ("int", ["1", "-1", "2", "x"], True),
        ("int", ["2", "4"], False),
        ("rat", ["2", "4", "1/3"], True),
        ("int", ["x^2 - 1", "x^2 + y^2", "x + 1"], False),
        ("int", ["x^2 + y^2", "x + y", "x - y"], True),
        # a linear label's content against a nonlinear earlier label's
        ("int", ["2*x^2 + 2", "4*y + 6"], False),
        ("rat", ["2*x^2 + 2", "4*y + 6"], True),
        ("int", ["3*x^2 + 3", "4*y + 6"], True),
        # a linear label that divides an earlier quadratic one
        ("int", ["x^2 - y^2", "x + y"], False),
        ("rat", ["x^2 - y^2", "x + y"], False),
        ("int", ["x^2 - y^2", "x + 2*y"], True),
        ("rat", ["x^2 - y^2", "x + 2*y"], True),
        # proportional linear labels
        ("int", ["2*x + 4*y", "3*x + 6*y"], False),
        ("rat", ["2*x + 4*y", "3*x + 6*y"], False),
        ("int", ["x - y", "-x + y"], False),
        ("rat", ["1/2*x - 1/3*y", "3*x - 2*y"], False),
        ("int", ["2*x + 4*y", "3*x + 5*y", "7"], True),
    ])
    def test_pairwise_coprime_matches_pairs(self, coefficients, texts, expected):
        if coefficients == "zz":
            ring = ZZ
        else:
            ring = PolynomialRing(coefficients, ["x", "y"])
        graph = LabeledGraph.path(ring, [ring.element_from_text(t) for t in texts])
        assert pairwise_coprime_by_pairs(graph) is expected
        assert graph.pairwise_coprime_labels() is expected

    @pytest.mark.parametrize("coefficients", ["int", "rat"])
    def test_pairwise_coprime_matches_pairs_randomly(self, coefficients):
        ring = PolynomialRing(coefficients, ["x", "y"])
        parse = ring.element_from_text
        factors = [parse(t) for t in ("2", "3", "x", "y", "x + 1", "x - y", "2*y + 3",
                                      "x*y + 1", "x^2 + y^2")]
        rng = random.Random(f"coprime-oracle/{coefficients}")
        seen = set()
        for _ in range(200):
            labels = [
                ring.product(rng.sample(factors, rng.randint(1, 2)))
                for _ in range(rng.randint(1, 5))
            ]
            graph = LabeledGraph.path(ring, labels)
            expected = pairwise_coprime_by_pairs(graph)
            seen.add(expected)
            assert graph.pairwise_coprime_labels() is expected
        assert seen == {True, False}

    @pytest.mark.parametrize("coefficients", ["int", "rat"])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_pairwise_coprime_takes_no_product_with_the_last_label(
        self, monkeypatch, coefficients, k
    ):
        ring = PolynomialRing(coefficients, ["x", "y"])
        texts = ["x", "y", "x + y + 1", "x^2 + y^2 + 3", "x*y - 2"][:k]
        graph = LabeledGraph.path(ring, [ring.element_from_text(t) for t in texts])
        products = []
        multiply = Polynomial.__mul__

        def counting(a, b):
            products.append((a, b))
            return multiply(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        assert graph.pairwise_coprime_labels() is True
        assert len(products) == k - 2

    @pytest.mark.parametrize("texts", [
        ["x", "y", "x + y + 1"],
        ["x*y", "y*(x + 1)", "x + 2"],
    ])
    def test_the_scan_is_taken_once_per_graph(self, monkeypatch, texts):
        ring = PolynomialRing("int", ["x", "y"])
        graph = LabeledGraph.path(ring, [ring.element_from_text(t) for t in texts])
        expected = pairwise_coprime_by_pairs(graph)
        gcds = []
        poly_gcd = polynomials.poly_gcd

        def counting(a, b):
            gcds.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(polynomials, "poly_gcd", counting)
        assert graph.pairwise_coprime_labels() is expected
        taken = len(gcds)
        assert taken
        assert graph.pairwise_coprime_labels() is expected
        assert len(gcds) == taken  # the second call reads the kept scan
        # a reordered graph is a new graph, with a scan of its own
        reordered = graph.reorder(reversed(graph.vertices))
        assert reordered.pairwise_coprime_labels() is expected
        assert len(gcds) == 2 * taken
        assert reordered.label_scan == graph.label_scan  # the label order is kept

    def test_round_trip(self):
        for name in ("fig2", "xy", "squares", "zx-obstruction"):
            g = bundled_graph(name)
            again = load_graph(json.dumps(g.to_document()))
            assert again == g and hash(again) == hash(g)

    def test_reorder(self):
        g = bundled_graph("fig2")
        flipped = g.reorder(["v3", "v2", "v1"])
        assert flipped.vertices == ("v3", "v2", "v1")
        # the v1~v2 edge now joins positions 2 and 1
        assert {flipped.edges[0].u, flipped.edges[0].v} == {1, 2}
        assert flipped.edges[0].label == 4
        with pytest.raises(GraphError):
            g.reorder(["v1", "v2"])


class TestConnectivity:
    def test_brute_force_agreement(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 6)
            pairs = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        pairs.append((u, v))
            # oracle: iterated reachability closure over the raw edge list
            reachable = {0}
            for _ in range(n):
                for u, v in pairs:
                    if u in reachable:
                        reachable.add(v)
                    if v in reachable:
                        reachable.add(u)
            assert is_connected(n, pairs) == (len(reachable) == n)

    def test_union_find_matches_breadth_first_search(self):
        # seeded multigraphs on 1..12 vertices: a random forest over some of
        # the vertices (the others isolated), each pair possibly repeated
        # and reversed, in a shuffled order
        rng = random.Random(2208)
        seen = {True: 0, False: 0}
        for _ in range(2000):
            n = rng.randint(1, 12)
            reached = rng.sample(range(n), rng.randint(1, n))
            pairs = []
            for k in range(1, len(reached)):
                if rng.random() < 0.9:
                    pairs.append((reached[rng.randrange(k)], reached[k]))
            pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3))] if pairs else []
            pairs += [(v, u) for u, v in pairs if rng.random() < 0.3]
            rng.shuffle(pairs)
            expected = breadth_first_is_connected(n, pairs)
            assert is_connected(n, pairs) == expected, (n, pairs)
            assert is_connected(n, iter(pairs)) == expected
            seen[expected] += 1
        assert min(seen.values()) > 300
        assert is_connected(1, []) and breadth_first_is_connected(1, [])
        assert not is_connected(2, [(0, 0), (1, 1)])
