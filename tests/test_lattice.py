import math
import random

import pytest

from graphsplines import (
    ZZ,
    Edge,
    LabeledGraph,
    RingMismatchError,
    flow_up_index,
    hermite_normal_form,
    integer_flow_up_basis,
    is_spline,
    kernel_basis,
    lattice_membership,
    spline_combination,
    spline_lattice_generators,
)
from conftest import bundled_graph
from oracles import (
    cofactor_determinant,
    enumerate_integer_splines,
    matrix_multiply,
    minimal_positive_leading_term,
    solve_exact,
    two_array_hermite_normal_form,
    two_array_kernel_basis,
    widest_path_diagonal,
)


def int_edges(graph):
    return [(e.u, e.v, e.label) for e in graph.edges]


def assert_column_echelon(hnf):
    rows, cols = len(hnf), len(hnf[0])
    pivot_rows = []
    for j in range(cols):
        column = [hnf[i][j] for i in range(rows)]
        nonzero = [i for i, x in enumerate(column) if x]
        if not nonzero:
            # zero columns must be trailing
            for j2 in range(j + 1, cols):
                assert all(hnf[i][j2] == 0 for i in range(rows))
            break
        pivot = nonzero[0]
        if pivot_rows:
            assert pivot > pivot_rows[-1]
        pivot_rows.append(pivot)
        assert hnf[pivot][j] > 0
        for left in range(j):
            assert 0 <= hnf[pivot][left] < hnf[pivot][j]


class TestHermiteNormalForm:
    def test_identity(self):
        identity = [[1, 0], [0, 1]]
        h, u = hermite_normal_form(identity)
        assert h == identity and u == identity

    def test_single_row_gcd(self):
        h, u = hermite_normal_form([[6, 4]])
        assert h == [[2, 0]]
        assert abs(cofactor_determinant(u)) == 1
        assert matrix_multiply([[6, 4]], u) == h

    def test_already_diagonal(self):
        h, _ = hermite_normal_form([[4, 0], [0, 5]])
        assert h == [[4, 0], [0, 5]]

    def test_negative_pivot_normalized(self):
        h, _ = hermite_normal_form([[-3]])
        assert h == [[3]]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            hermite_normal_form([])
        with pytest.raises(ValueError):
            hermite_normal_form([[1, 2], [3]])
        with pytest.raises(ValueError):
            hermite_normal_form([[1.5]])

    def test_random_matrices(self):
        rng = random.Random(42)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 8)
            m = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
            h, u = hermite_normal_form(m)
            assert matrix_multiply(m, u) == h
            assert abs(cofactor_determinant(u)) == 1
            assert_column_echelon(h)

    def test_kernel_basis(self):
        rng = random.Random(43)
        for _ in range(50):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            for vector in kernel_basis(m):
                assert all(
                    sum(m[i][j] * vector[j] for j in range(cols)) == 0
                    for i in range(rows)
                )

    def test_matches_the_two_array_reference(self):
        # a different valid U would pass test_random_matrices; no CLI call
        # prints U, so only this comparison sees a changed transform
        matrices = reference_matrices()
        assert len(matrices) >= 300
        for m in matrices:
            assert hermite_normal_form(m) == two_array_hermite_normal_form(m), m
            assert kernel_basis(m) == two_array_kernel_basis(m), m

    def test_matches_the_two_array_reference_on_lattice_bases(self, monkeypatch):
        bases = []

        def recording(matrix):
            bases.append(matrix)
            return hermite_normal_form(matrix)

        with monkeypatch.context() as patch:
            patch.setattr("graphsplines.lattice.hermite_normal_form", recording)
            for k in range(6, 13):
                spline_lattice_generators(complete_nine_digit(k, k))
        assert [len(matrix) for matrix in bases] == list(range(6, 13))
        for m in bases:
            assert hermite_normal_form(m) == two_array_hermite_normal_form(m)
            assert kernel_basis(m) == two_array_kernel_basis(m) == []


def reference_matrices():
    """Seeded matrices with 1-6 rows, 1-7 columns and entries in [-9, 9]:
    random ones, every zero shape, rank-deficient ones (a row and a column
    repeated) and lower-triangular ones."""
    rng = random.Random("hnf-reference")

    def random_matrix(rows, cols):
        return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]

    matrices = [random_matrix(rng.randint(1, 6), rng.randint(1, 7)) for _ in range(300)]
    matrices += [[[0] * cols for _ in range(rows)] for rows in range(1, 7) for cols in range(1, 8)]
    for _ in range(30):
        m = random_matrix(rng.randint(2, 6), rng.randint(2, 7))
        m[-1] = list(m[0])
        for row in m:
            row[-1] = row[0]
        matrices.append(m)
    for _ in range(30):
        m = random_matrix(rng.randint(1, 6), rng.randint(1, 7))
        for i, row in enumerate(m):
            row[i + 1:] = [0] * len(row[i + 1:])
        matrices.append(m)
    return matrices


def kernel_generators(graph):
    """Spline lattice generators from the kernel of [E | -D] (E*f == D*t).

    Independent of the congruence-by-congruence construction: the kernel
    comes from the unreduced HNF with its unimodular transform.
    """
    n, m = graph.n, len(graph.edges)
    if m == 0:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    block = []
    for k, edge in enumerate(graph.edges):
        row = [0] * (n + m)
        row[edge.u] += 1
        row[edge.v] -= 1
        row[n + k] = -edge.label
        block.append(row)
    kernel = kernel_basis(block)
    assert len(kernel) == n
    return [[vector[i] for vector in kernel] for i in range(n)]


def random_int_graph(rng):
    """Connected graph on 1-7 vertices with sparse and repeated edges."""
    n = rng.randint(1, 7)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    if n > 1:
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    rng.shuffle(pairs)

    def label():
        size = rng.random()
        if size < 0.15:
            value = 1
        elif size < 0.6:
            value = rng.randint(2, 30)
        elif size < 0.8:
            value = rng.choice([2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 36])
        else:
            value = rng.randint(2, 10**6)
        return -value if rng.random() < 0.3 else value

    edges = [Edge(u, v, label()) for u, v in pairs]
    return LabeledGraph(ZZ, [f"v{i + 1}" for i in range(n)], edges)


def complete_nine_digit(k, seed):
    rng = random.Random(seed)
    labels = [rng.randrange(10**8, 10**9) for _ in range(k * (k - 1) // 2)]
    return LabeledGraph.complete(ZZ, labels)


def sparse_mixed_graph(seed):
    """Connected graph on 10-14 vertices whose labels mix 9 digits and small values.

    Two hubs carry most of the 9-digit labels and the other edges mostly
    small ones, so a hub's vertex lcm is hundreds of bits above that of a
    vertex whose edges all carry small labels.
    """
    rng = random.Random(seed)
    n = rng.randint(10, 14)
    hubs = rng.sample(range(n), 2)

    def label(big):
        if big:
            value = rng.randrange(10**8, 10**9)
        else:
            value = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 30])
        return -value if rng.random() < 0.2 else value

    edges = [Edge(rng.randrange(v), v, label(rng.random() < 0.2)) for v in range(1, n)]
    for _ in range(rng.randint(n, 3 * n // 2)):
        hub = rng.choice(hubs)
        other = rng.choice([v for v in range(n) if v != hub])
        edges.append(Edge(hub, other, label(rng.random() < 0.9)))
    rng.shuffle(edges)
    return LabeledGraph(ZZ, [f"v{i + 1}" for i in range(n)], edges)


def differential_graphs():
    rng = random.Random(2022)
    graphs = [random_int_graph(rng) for _ in range(1000)]
    graphs += [sparse_mixed_graph(seed) for seed in range(20)]
    return graphs + [complete_nine_digit(k, k) for k in range(6, 10)]


def vertex_label_lcms(graph):
    """The lcm of the absolute labels at each vertex."""
    return [math.lcm(*(abs(label) for label in graph.incident_labels(v)))
            for v in range(graph.n)]


class TestSplineLatticeGenerators:
    def test_matches_kernel_construction(self):
        for graph in differential_graphs():
            expected, _ = hermite_normal_form(kernel_generators(graph))
            assert spline_lattice_generators(graph) == expected, graph.to_document()
            basis = integer_flow_up_basis(graph)
            n = graph.n
            assert basis.columns == tuple(
                tuple(expected[i][k] for i in range(n)) for k in range(n)
            )
            assert basis.diagonal == tuple(expected[k][k] for k in range(n))

    def test_entries_bounded_by_label_lcm(self):
        for graph in differential_graphs():
            lcm = math.lcm(*(abs(label) for label in graph.labels()))
            gens = spline_lattice_generators(graph)
            for i, (row, vertex_lcm) in enumerate(zip(gens, vertex_label_lcms(graph))):
                # L_i*e_i is a spline, so the pivot of row i divides L_i
                assert vertex_lcm % row[i] == 0
                assert lcm % vertex_lcm == 0
                assert all(0 <= entry < row[i] for entry in row[:i])
                assert not any(row[i + 1 :])

    def test_diagonal_matches_widest_paths(self):
        pytest.importorskip("sympy")
        rng = random.Random("widest-paths")
        for graph in differential_graphs():
            names = list(graph.vertices)
            rng.shuffle(names)
            for ordered in (graph, graph.reorder(names)):
                expected = widest_path_diagonal(ordered.n, int_edges(ordered))
                assert integer_flow_up_basis(ordered).diagonal == expected, ordered.to_document()

    def test_one_hermite_normal_form_per_basis(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(len(matrix))
            return hermite_normal_form(matrix)

        monkeypatch.setattr("graphsplines.lattice.hermite_normal_form", counting)
        for graph in (bundled_graph("fig2"), complete_nine_digit(6, 6)):
            del calls[:]
            integer_flow_up_basis(graph)
            assert calls == [graph.n]
            del calls[:]
            spline_lattice_generators(graph)
            assert calls == [graph.n]

    def test_sparse_graphs_have_far_apart_vertex_lcms(self):
        for seed in range(20):
            moduli = vertex_label_lcms(sparse_mixed_graph(seed))
            assert max(moduli).bit_length() - min(moduli).bit_length() >= 100

    def test_path_span(self):
        g = LabeledGraph.path(ZZ, [7])
        gens = spline_lattice_generators(g)
        # canonical form of the column span must match that of {(1,1),(0,7)}
        h, _ = hermite_normal_form(gens)
        h_expected, _ = hermite_normal_form([[1, 0], [1, 7]])
        assert h == h_expected

    def test_single_vertex(self):
        g = LabeledGraph(ZZ, ["v1"], [])
        assert spline_lattice_generators(g) == [[1]]

    def test_fig2_generators_match_brute_force(self):
        g = bundled_graph("fig2")
        gens = spline_lattice_generators(g)
        columns = [tuple(gens[i][j] for i in range(3)) for j in range(3)]
        # every generator is a spline
        for column in columns:
            assert is_spline(g, column).ok
        # saturation: every enumerated spline is an integer combination
        matrix = [[columns[j][i] for j in range(3)] for i in range(3)]
        for spline in enumerate_integer_splines(3, int_edges(g), 20):
            coords = solve_exact(matrix, list(spline))
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)

    def test_requires_integer_ring(self):
        with pytest.raises(RingMismatchError):
            spline_lattice_generators(bundled_graph("xy"))


class TestIntegerFlowUpBasis:
    def test_fig2(self):
        basis = integer_flow_up_basis(bundled_graph("fig2"))
        assert basis.columns == ((1, 1, 1), (0, 4, 4), (0, 0, 10))
        assert basis.diagonal == (1, 4, 10)
        assert basis.determinant == 40

    def test_rows(self):
        basis = integer_flow_up_basis(bundled_graph("fig2"))
        assert basis.rows() == [[1, 0, 0], [1, 4, 0], [1, 4, 10]]
        for graph in (bundled_graph("fig2-text"), complete_nine_digit(6, 6)):
            basis = integer_flow_up_basis(graph)
            assert basis.rows() == spline_lattice_generators(graph)

    def test_fig2_text(self):
        basis = integer_flow_up_basis(bundled_graph("fig2-text"))
        assert basis.diagonal == (1, 4, 5)
        assert basis.determinant == 20  # labels pairwise coprime: 4*5*1

    def test_path(self):
        basis = integer_flow_up_basis(LabeledGraph.path(ZZ, [7]))
        assert basis.columns == ((1, 1), (0, 7))

    def test_leading_one_everywhere(self, corpus):
        for graph in corpus.values():
            if graph.ring.kind != "int":
                continue
            basis = integer_flow_up_basis(graph)
            assert basis.diagonal[0] == 1

    def test_columns_are_classed_splines(self, corpus):
        for graph in corpus.values():
            if graph.ring.kind != "int":
                continue
            basis = integer_flow_up_basis(graph)
            for k, column in enumerate(basis.columns):
                assert is_spline(graph, column).ok
                assert flow_up_index(column) == k

    def test_minimality_against_enumeration(self):
        g = bundled_graph("fig2")
        basis = integer_flow_up_basis(g)
        splines = enumerate_integer_splines(3, int_edges(g), basis.determinant)
        for k in (1, 2):
            observed = minimal_positive_leading_term(splines, k)
            assert observed == basis.diagonal[k]
            # the pivots generate: every leading term in the class is a multiple
            for spline in splines:
                if flow_up_index(spline) == k:
                    assert spline[k] % basis.diagonal[k] == 0

    def test_determinant_is_multiple_of_label_lcm(self, corpus):
        import math

        for graph in corpus.values():
            if graph.ring.kind != "int":
                continue
            basis = integer_flow_up_basis(graph)
            lcm = math.lcm(*(abs(label) for label in graph.labels())) if graph.edges else 1
            assert basis.determinant % lcm == 0


class TestLatticeMembership:
    def test_basis_column_itself(self):
        basis = integer_flow_up_basis(bundled_graph("fig2"))
        assert lattice_membership(basis, basis.columns[1]) == (0, 1, 0)

    def test_fig2_example(self):
        basis = integer_flow_up_basis(bundled_graph("fig2"))
        coords = lattice_membership(basis, (3, 15, 5))
        assert coords == (3, 3, -1)
        recombined = spline_combination(ZZ, list(coords), list(basis.columns))
        assert recombined == (3, 15, 5)

    def test_float_and_bool_entries_are_rejected(self):
        # the same candidates that is_spline rejects
        graph = bundled_graph("fig2")
        basis = integer_flow_up_basis(graph)
        for candidate in ((3.0, 15.0, 5.0), (True, True, True)):
            with pytest.raises(RingMismatchError):
                is_spline(graph, candidate)
            with pytest.raises(RingMismatchError):
                lattice_membership(basis, candidate)

    def test_non_member(self):
        basis = integer_flow_up_basis(bundled_graph("fig2"))
        assert lattice_membership(basis, (0, 2, 0)) is None

    def test_dimension_mismatch(self):
        basis = integer_flow_up_basis(bundled_graph("fig2"))
        with pytest.raises(ValueError):
            lattice_membership(basis, (1, 2))

    def test_completeness_small_corpus(self, corpus):
        # every enumerated spline in a modest box has integer coordinates
        for name in ("fig2", "fig2-text", "path7"):
            graph = corpus[name]
            basis = integer_flow_up_basis(graph)
            bound = min(basis.determinant, 40)
            for spline in enumerate_integer_splines(graph.n, int_edges(graph), bound):
                coords = lattice_membership(basis, spline)
                assert coords is not None
                assert (
                    spline_combination(ZZ, list(coords), list(basis.columns)) == spline
                )
