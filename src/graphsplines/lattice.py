"""Integer-lattice engine: Hermite normal form and the canonical flow-up basis.

Over the integers the splines of a graph form a full-rank lattice in Z^n:
the vectors f with f[u] == f[v] (mod label) on every edge. For each vertex
v the lattice contains L_v*e_v, where L_v is the lcm of the absolute labels
of the edges at v, so the pivot of row v in its column Hermite normal form
divides L_v and no canonical entry of row v exceeds L_v.
``spline_lattice_generators`` starts from the identity basis of Z^n and
imposes the edge congruences one at a time, keeping every entry of row v
below the diagonal in [0, L_v) on the way: the modular HNF of Domich,
Kannan and Trotter (1987), with one modulus per row. ``hermite_normal_form``
of the lower-triangular basis it ends with is the column HNF of the
lattice, which is unique (Cohen, *A Course in Computational Algebraic
Number Theory*, GTM 138, section 2.4). Its columns are the canonical
flow-up basis, with the minimal positive leading terms on the diagonal.

``hermite_normal_form`` is the general column HNF, with its unimodular
transform U carried under H in each column, and ``kernel_basis`` the
integer kernel built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RingMismatchError
from .graphs import LabeledGraph
from .rings import ZZ


def _validated(matrix) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix dimensions must be positive")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix rows have unequal lengths")
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise ValueError(f"matrix entry {entry!r} is not an integer")
    return rows


def hermite_normal_form(matrix):
    """Column-style HNF: returns (H, U) with H == matrix @ U and det(U) = +-1.

    H is in column echelon form with strictly increasing pivot rows, positive
    pivots, entries left of each pivot reduced into [0, pivot), and zero
    columns trailing. Each column of the work array is a column of H with
    the same column of U below it, starting from the matrix over the
    identity, so every column operation acts on H and U together. Each row
    is cleared by Euclidean steps: every other active column is reduced by
    the one with the smallest nonzero entry in that row until a single
    nonzero entry remains. Nothing bounds the entries of H or U on the way.
    """
    rows = _validated(matrix)
    n_rows, n_cols = len(rows), len(rows[0])
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n_cols)]
            for j in range(n_cols)]

    def add_multiple(target: int, source: int, factor: int) -> None:
        cols[target] = [t + factor * s for t, s in zip(cols[target], cols[source])]

    pivot = 0
    for row in range(n_rows):
        if pivot >= n_cols:
            break
        while True:
            active = [j for j in range(pivot, n_cols) if cols[j][row]]
            if len(active) <= 1:
                break
            smallest = min(active, key=lambda j: abs(cols[j][row]))
            for j in active:
                if j == smallest:
                    continue
                quotient = cols[j][row] // cols[smallest][row]
                if quotient:
                    add_multiple(j, smallest, -quotient)
        if not active:
            continue
        cols[active[0]], cols[pivot] = cols[pivot], cols[active[0]]
        if cols[pivot][row] < 0:
            cols[pivot] = [-x for x in cols[pivot]]
        for j in range(pivot):
            quotient = cols[j][row] // cols[pivot][row]
            if quotient:
                add_multiple(j, pivot, -quotient)
        pivot += 1

    transposed = [list(row) for row in zip(*cols)]
    return transposed[:n_rows], transposed[n_rows:]


def kernel_basis(matrix) -> list[list[int]]:
    """Basis of the integer kernel lattice {v : matrix @ v == 0}.

    The transform columns sitting over zero columns of the HNF form a basis;
    the kernel of an integer matrix is automatically saturated.
    """
    hnf, transform = hermite_normal_form(matrix)
    n_rows = len(hnf)
    n_cols = len(hnf[0])
    basis = []
    for j in range(n_cols):
        if all(hnf[i][j] == 0 for i in range(n_rows)):
            basis.append([transform[i][j] for i in range(n_cols)])
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        quotient, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - quotient * s1
        t0, t1 = t1, t0 - quotient * t1
    return a, s0, t0


def _impose_congruence(columns, u: int, v: int, label: int, moduli) -> None:
    """Restrict a lower-triangular lattice basis to f[u] == f[v] (mod label).

    ``columns[j]`` has zeros above row j. A vector sum(c_j * b_j) satisfies
    the congruence iff sum(c_j * a_j) == 0 (mod label), a_j being the
    residue of b_j. The kernel of that map gets a lower-triangular basis
    from an xgcd chain run from the last coordinate up: with g_n = label and
    g_j = gcd(a_j, g_{j+1}), its column j is d_j*e_j plus a correction over
    the later coordinates, where d_j = g_{j+1} / g_j. The new column j is
    therefore d_j*b_j - (a_j/g_j)*w, where w is a combination of the later
    columns with residue g_{j+1}. Each row-i entry of a new column and of w
    below the diagonal is taken mod ``moduli[i]`` as it is formed; the
    diagonal entries are left as they are, and no entry is reduced by a
    pivot.
    """
    residues = [(column[u] - column[v]) % label for column in columns]
    n = len(columns)
    tail_gcd = label
    helper = [0] * n  # zero down to row j, residue tail_gcd
    for j in range(n - 1, -1, -1):
        residue = residues[j]
        if not residue:
            continue
        g, s, t = _xgcd(residue, tail_gcd)
        scale, shift = tail_gcd // g, -(residue // g)
        column = columns[j]
        new_column = [0] * n
        new_column[j] = scale * column[j]
        for i in range(j + 1, n):
            modulus, entry, carry = moduli[i], column[i], helper[i]
            new_column[i] = (scale * entry + shift * carry) % modulus
            helper[i] = (s * entry + t * carry) % modulus
        helper[j] = s * column[j] % moduli[j]
        columns[j] = new_column
        tail_gcd = g


def spline_lattice_generators(graph: LabeledGraph) -> list[list[int]]:
    """Canonical column HNF of the integer spline lattice, as an n x n matrix.

    The splines are the f in Z^n with f[u] == f[v] (mod label) on every
    edge. Starting from the identity basis of Z^n, each edge congruence is
    imposed, in document order, on the current lower-triangular basis with
    every entry of row v below the diagonal kept in [0, L_v), where L_v is
    the lcm of the absolute labels at vertex v: the modular Hermite normal
    form of Domich, Kannan and Trotter (1987), with one modulus per row.
    ``hermite_normal_form`` of the last basis gives the canonical form: the
    diagonal entry of row v divides L_v and the entries left of it are
    smaller. That form is unique; see Cohen, *A Course in Computational
    Algebraic Number Theory*, GTM 138, section 2.4.
    """
    if graph.ring.kind != "int":
        raise RingMismatchError("the spline lattice is defined over the integer ring")
    n = graph.n
    # L_v*e_v is a spline: its only nonzero differences are L_v, across the
    # edges at v, whose labels all divide L_v. So it lies in every lattice
    # met on the way, the pivot of row v divides L_v, and adding a multiple
    # of L_v*e_v to an entry below a pivot keeps the basis lower triangular
    # with the same diagonal inside that lattice: the same index, hence the
    # same span. The same multiple added to the helper w changes no residue
    # mod the label, and moves the new columns by such multiples only. The
    # column HNF of a lattice is unique, so hermite_normal_form of the last
    # basis does not depend on the moduli either.
    moduli = [1] * n
    for edge in graph.edges:
        label = abs(edge.label)
        moduli[edge.u] = math.lcm(moduli[edge.u], label)
        moduli[edge.v] = math.lcm(moduli[edge.v], label)
    columns = [[int(i == j) for i in range(n)] for j in range(n)]
    for edge in graph.edges:
        _impose_congruence(columns, edge.u, edge.v, abs(edge.label), moduli)
    hnf, _ = hermite_normal_form([[column[i] for column in columns] for i in range(n)])
    return hnf


@dataclass(frozen=True)
class HnfBasis:
    """Canonical flow-up basis over the integers.

    Column k (0-based) lies in flow-up class k: it has exactly k leading
    zeros, its diagonal entry is the minimal positive leading term of that
    class, and entries left of each pivot are reduced into [0, pivot).
    """

    columns: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]

    @property
    def determinant(self) -> int:
        return math.prod(self.diagonal)

    def rows(self) -> list[list[int]]:
        n = len(self.columns)
        return [[self.columns[j][i] for j in range(n)] for i in range(n)]

    def to_document(self) -> dict:
        return {
            "columns": [list(column) for column in self.columns],
            "diagonal": list(self.diagonal),
            "determinant": self.determinant,
        }


def integer_flow_up_basis(graph: LabeledGraph) -> HnfBasis:
    """Flow-up class basis with minimal positive leading terms (HNF diagonal).

    Column k is column k of ``spline_lattice_generators``; a column with a
    nonzero entry above row k or a nonpositive diagonal entry raises
    ``AssertionError``.
    """
    hnf = spline_lattice_generators(graph)
    n = graph.n
    columns = []
    for k in range(n):
        column = tuple(hnf[i][k] for i in range(n))
        if any(column[i] for i in range(k)) or column[k] <= 0:
            raise AssertionError("flow-up HNF lost its triangular pivot structure")
        columns.append(column)
    return HnfBasis(tuple(columns), tuple(column[k] for k, column in enumerate(columns)))


def lattice_membership(basis: HnfBasis, candidate):
    """Integer coordinates of ``candidate`` in the basis, or None.

    Back-substitution down the triangle; a non-divisible pivot step certifies
    that the candidate is outside the lattice. An entry that is not an
    integer, such as a float or a bool, raises ``RingMismatchError``.
    """
    n = len(basis.columns)
    candidate = [ZZ.check(entry) for entry in candidate]
    if len(candidate) != n:
        raise ValueError(f"candidate has {len(candidate)} entries, expected {n}")
    coordinates = []
    for k in range(n):
        quotient, remainder = divmod(candidate[k], basis.diagonal[k])
        if remainder:
            return None
        coordinates.append(quotient)
        if quotient:
            column = basis.columns[k]
            for i in range(k, n):
                candidate[i] -= quotient * column[i]
    if any(candidate):
        raise AssertionError("residual after back-substitution")
    return tuple(coordinates)
