"""Determinantal basis criteria: exact determinants, the Q invariant, verdicts.

Over the integers the Q invariant is the product of the minimal leading
terms (the HNF diagonal) and det(C) = unit * Q is an exact basis criterion
in both directions. Over polynomial rings with pairwise coprime labels the
label product plays the same role. Otherwise only the label lcm is
available; it divides every n-subset determinant, which makes acceptance
sound but rejection impossible, hence the UNDECIDED verdict.

``check_basis`` takes one n x n determinant. A flow-up class basis, the
candidate the criterion is about, is triangular, and so is ``lcm * I``: in
any ring the determinant of a triangular matrix is the product of its
diagonal entries, and it is taken as that product. Any other matrix over
ZZ[vars] and QQ[vars] goes through one integer image: each row is scaled to
integer numerators, the last variable is set to the least power of two
2^bits at or above 2H + 2, where H = prod_i sum_j |a_ij|_1 bounds every
coefficient of the determinant, and so on, one variable at a time, down to
a matrix of integers. Bareiss elimination over ZZ gives its determinant,
and the coefficients are read back level by level as symmetric
base-2^bits digits, the bits-wide fields of each coefficient's binary
text. A matrix whose images would pass a fixed bit budget (the one the
heuristic gcd uses) stays on Bareiss elimination over the polynomial ring.
The divisibility probe takes no determinant of a full matrix. Q divides the
determinant of every n splines, and with the HNF diagonal or pairwise
coprime labels it is their gcd, so ``q | Q`` decides whether q divides
them all; a triangular pool of splines supplies the counterexample when its
diagonal product is not a multiple of q.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import polynomials
from .graphs import LabeledGraph
from .lattice import HnfBasis, integer_flow_up_basis
from .rings import ZZ
from .splines import flow_up_witness, is_spline


def exact_determinant(ring, rows):
    """Exact determinant of a nonempty square matrix over ``ring``.

    A matrix with only zeros above its diagonal, or only zeros below it, has
    the product of its diagonal entries as determinant, in any ring. Any
    other matrix over ZZ[vars] and QQ[vars] is read back from the
    determinant of an integer image
    (``polynomials.integer_image_determinant``, see the module docstring); a
    matrix past that image's bit budget, such as one with entries of degree
    10^6, stays on Bareiss elimination over the ring itself. Either way the
    one elimination loop is ``_bareiss``.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    a = [[ring.check(entry) for entry in row] for row in rows]
    if _is_triangular(a):
        return math.prod((a[i][i] for i in range(1, n)), start=a[0][0])
    if ring.kind == "poly":
        determinant = polynomials.integer_image_determinant(a, _integer_bareiss)
        if determinant is not None:
            return determinant
    return _bareiss(ring, a)


def _is_triangular(a):
    """Whether every entry above the diagonal, or every entry below it, is zero."""
    n = len(a)
    return not any(a[i][j] for i in range(n) for j in range(i + 1, n)) or not any(
        a[j][i] for i in range(n) for j in range(i + 1, n)
    )


def _integer_bareiss(rows):
    return _bareiss(ZZ, rows)


def _bareiss(ring, a):
    """Determinant by fraction-free (Bareiss) elimination, in place on ``a``.

    Valid in any ring with exact division. The entries are checked elements
    of ``ring``, so their own operators do the arithmetic, and each division
    is the ring's unchecked ``_exact_quotient``: its divisor is ``ring.one``
    or a nonzero pivot built from checked entries.

    Every intermediate entry is a true subdeterminant, so the divisions are
    guaranteed exact and entries stay polynomial-sized.
    """
    n = len(a)
    sign = 1
    previous = ring.one
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return ring.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                quotient = ring._exact_quotient(numerator, previous)
                if quotient is None:
                    raise AssertionError("Bareiss division was not exact")
                a[i][j] = quotient
            a[i][k] = ring.zero
        previous = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


class SplineMatrix:
    """Ordered collection of n candidate columns, each a verified spline."""

    def __init__(self, graph: LabeledGraph, columns):
        columns = [tuple(column) for column in columns]
        if len(columns) != graph.n:
            raise ValueError(f"need exactly {graph.n} columns, got {len(columns)}")
        for index, column in enumerate(columns):
            check = is_spline(graph, column)
            if not check.ok:
                failed = ", ".join(str(v) for v in check.violations)
                raise ValueError(f"column {index + 1} is not a spline: {failed}")
        self.graph = graph
        self.columns = tuple(columns)

    def rows(self) -> list[list]:
        n = self.graph.n
        return [[self.columns[j][i] for j in range(n)] for i in range(n)]

    def to_document(self) -> dict:
        ring = self.graph.ring
        return {
            "columns": [[ring.to_text(e) for e in column] for column in self.columns]
        }


def spline_determinant(matrix: SplineMatrix):
    return exact_determinant(matrix.graph.ring, matrix.rows())


class Provenance(enum.Enum):
    PID_DIAGONAL = "pid-diagonal"
    COPRIME_PRODUCT = "coprime-product"
    LCM_LOWER_BOUND = "lcm-lower-bound"


@dataclass(frozen=True)
class QInvariant:
    """The reference determinant value together with how it was obtained.

    PID_DIAGONAL and COPRIME_PRODUCT support an exact iff criterion;
    LCM_LOWER_BOUND only guarantees that the value divides every n-subset
    determinant, so basis checks against it are one-directional. A
    PID_DIAGONAL value comes with ``basis``, the flow-up class basis whose
    diagonal it is the product of.
    """

    graph: LabeledGraph
    value: object
    provenance: Provenance
    basis: HnfBasis | None = None


def label_lcm(graph: LabeledGraph):
    """Normalized lcm of all edge labels; divides every n-subset determinant.

    Built from the graph's ``label_scan``, which ``pairwise_coprime_labels``
    has usually taken already, so no gcd of it is taken again. With pairwise
    coprime labels the lcm is their normalized product. Otherwise the labels
    before the first shared factor are pairwise coprime, so with ``P`` their
    product and ``g`` its gcd with label ``k``, the lcm up to ``k`` is
    ``P * (label_k / g)``; each later label is folded in with a gcd only if
    it does not already divide the running lcm.
    """
    ring = graph.ring
    labels = graph.labels()
    scan = graph.label_scan
    if scan is None:
        return ring.normalize(ring.product(labels))
    k, product, common = scan
    value = ring.normalize(product * ring._exact_quotient(labels[k], common))
    for label in labels[k + 1:]:
        if not ring.divides(label, value):
            value = ring.lcm(value, label)
    return value


def compute_q(graph: LabeledGraph) -> QInvariant:
    """Best available Q for the graph's ring, most decisive provenance first.

    Over a polynomial ring the coprimality test and the label lcm read one
    ``label_scan`` of the graph, so each label's gcd with the product before
    it is taken once.
    """
    ring = graph.ring
    if ring.kind == "int":
        basis = integer_flow_up_basis(graph)
        return QInvariant(graph, basis.determinant, Provenance.PID_DIAGONAL, basis)
    if ring.kind == "poly":
        if graph.pairwise_coprime_labels():
            return QInvariant(graph, ring.product(graph.labels()), Provenance.COPRIME_PRODUCT)
        return QInvariant(graph, label_lcm(graph), Provenance.LCM_LOWER_BOUND)
    raise ValueError(f"no Q invariant for ring {ring.description}")


@dataclass(frozen=True)
class BasisVerdict:
    """Outcome of a determinantal basis check.

    ``is_basis`` is True/False when the criterion is decisive and None for
    UNDECIDED (determinant not a unit multiple of a lower-bound Q).
    """

    is_basis: bool | None
    unit_factor: object | None
    reason: str
    determinant: object

    @property
    def undecided(self) -> bool:
        return self.is_basis is None


def check_basis(matrix: SplineMatrix, q: QInvariant) -> BasisVerdict:
    """Decide basis-hood of the columns by comparing det against Q."""
    if matrix.graph != q.graph:
        raise ValueError("Q invariant was computed for a different graph")
    ring = matrix.graph.ring
    determinant = spline_determinant(matrix)
    if not determinant:
        return BasisVerdict(False, None, "determinant is zero", determinant)
    unit = ring.exact_div(determinant, q.value)
    if unit is not None and ring.is_unit(unit):
        return BasisVerdict(
            True, unit, "determinant is a unit multiple of Q", determinant
        )
    if q.provenance is Provenance.LCM_LOWER_BOUND:
        return BasisVerdict(
            None,
            None,
            "Q is only a divisor bound here and the determinant is not a unit "
            "multiple of it; the criterion cannot decide",
            determinant,
        )
    return BasisVerdict(
        False, None, "determinant is not a unit multiple of Q", determinant
    )


def cramer_membership(matrix: SplineMatrix, target) -> tuple:
    """Coordinates x with matrix @ x == det(matrix) * target, entrywise exact.

    Each coordinate is the determinant of the matrix with one column replaced
    by the target, so the result always lives in the ring.
    """
    graph = matrix.graph
    ring = graph.ring
    target = tuple(target)
    check = is_spline(graph, target)
    if not check.ok:
        raise ValueError("target is not a spline on this graph")
    determinant = spline_determinant(matrix)
    if ring.is_zero(determinant):
        raise ValueError("matrix is singular")
    n = graph.n
    coordinates = []
    for i in range(n):
        columns = list(matrix.columns)
        columns[i] = target
        rows = [[columns[j][r] for j in range(n)] for r in range(n)]
        coordinates.append(exact_determinant(ring, rows))
    return tuple(coordinates)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of ``divides_all_dets_probe``.

    ``ok`` is True when q divides the determinant of every n splines, False
    when it does not, and None for UNDECIDED. ``counterexample`` holds n
    splines whose determinant q does not divide, when the probe has them.
    ``trials`` echoes the argument, and ``invariant`` is the Q the verdict
    was read from.
    """

    ok: bool | None
    counterexample: tuple | None
    trials: int
    invariant: QInvariant | None = None


def divides_all_dets_probe(
    graph: LabeledGraph, q, trials: int, seed: int, invariant: QInvariant | None = None
) -> ProbeResult:
    """Decide whether q divides the determinant of every n splines on ``graph``.

    ``invariant`` is ``compute_q(graph)``, computed here when not given. Q
    divides every such determinant in each provenance, so q | Q answers
    yes. Otherwise the pool is tried: over ZZ the flow-up class basis, whose
    determinant is Q, as ``invariant`` carries it; over a polynomial ring
    the constant spline and the flow-up witnesses. The pool is triangular,
    so its determinant is the
    product of its diagonal, and if q does not divide it the pool is the
    counterexample. Otherwise, with pairwise coprime labels Q is the gcd of
    all the determinants, so q | Q failing answers no without columns; with
    Q only the label lcm the answer is UNDECIDED. Nothing is drawn:
    ``trials`` must be positive and ``seed`` is not read, both kept for the
    caller's record.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ring = graph.ring
    if ring.is_zero(q):
        raise ValueError("q must be nonzero")
    invariant = invariant or compute_q(graph)
    if ring.divides(q, invariant.value):
        return ProbeResult(True, None, trials, invariant)
    if ring.kind == "int":
        pool = (invariant.basis or integer_flow_up_basis(graph)).columns
    else:
        pool = (tuple(ring.one for _ in range(graph.n)),)
        pool += tuple(flow_up_witness(graph, i) for i in range(1, graph.n))
    if not ring.divides(q, ring.product(pool[i][i] for i in range(graph.n))):
        return ProbeResult(False, pool, trials, invariant)
    undecided = invariant.provenance is Provenance.LCM_LOWER_BOUND
    return ProbeResult(None if undecided else False, None, trials, invariant)


def even_constant_term(p: polynomials.Polynomial) -> bool:
    """Membership test for the ideal generated by 2 and x in ZZ[x]."""
    return p.constant_term() % 2 == 0


def zero_constant_term(p: polynomials.Polynomial) -> bool:
    """Membership test for the ideal generated by all variables over a field."""
    return p.constant_term() == 0


def c3_flowup_obstruction(ring, a, b, c, in_ideal_bc) -> bool:
    """Decide the 3-cycle obstruction for labels (a, b, c) in edge order.

    For a triangle labeled a (v1~v2), b (v2~v3), c (v3~v1) with pairwise
    coprime labels, any flow-up class basis forces its middle column to be
    (0, a*x, c*y) with x a unit, which puts a inside the ideal generated by
    b and c. So if ``in_ideal_bc`` rejects a, no flow-up class basis exists
    and the cycle is obstructed.

    The package no longer calls it: a predicate that never reads b or c
    cannot decide that membership. ``search.triangle_flow_up_basis`` decides
    it from the labels, and ``obstruct`` reports that decision.
    """
    labels = (ring.check(a), ring.check(b), ring.check(c))
    for label in labels:
        if ring.is_zero(label):
            raise ValueError("labels must be nonzero")
    if not LabeledGraph.cycle(ring, labels).pairwise_coprime_labels():
        raise ValueError("labels must be pairwise coprime")
    return not in_ideal_bc(a)
