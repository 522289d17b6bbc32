"""Bounded search for flow-up class bases over rational-coefficient polynomial rings,
and the flow-up decision on a triangle.

With pairwise coprime labels, a candidate set is a basis exactly when its
determinant is a unit multiple of the label product Q. A flow-up basis is
lower triangular, so its determinant is the product of its leading terms.
A class-i flow-up spline vanishes before vertex i, so the product L_i of
the labels joining i to earlier vertices divides its leading entry; the L_i
multiply to Q, so each leading term is forced to be a unit times L_i.
Class 0 is then the constant spline (1, ..., 1) and the last class is
L_{n-1} at the last vertex, feasible exactly when deg L_{n-1} is within the
bound. Prescribing the monic L_i turns every edge divisibility constraint on
an interior column i into affine-linear conditions on the unknown
coefficients of the entries below it (capped at a total degree bound),
decided exactly: one linear system per interior vertex, built by one
function with integer coefficients and eliminated fraction-free. The table
of monomials up to the bound is built once per search. An edge whose
endpoints both come no later than vertex i gets no rows: it joins two zero
entries, or L_i and a zero entry across an edge whose label is a factor of
L_i. SplineMatrix still checks every edge of each column.

A NONEXISTENT outcome is a bounded-degree certificate: no flow-up class
basis exists whose entries all have total degree at most the bound. Without
a bound the search runs at the forced degree D = max_i deg L_i, which is at
least every label's degree, since a label divides the L_i of its later
endpoint. When every label is homogeneous, the spline module is graded: the
part of degree deg L_i of a class-i column with leading term L_i is again
such a column. So a flow-up basis exists iff one exists at D, and a
NONEXISTENT outcome at a bound of at least D holds at every degree.

``triangle_flow_up_basis`` decides the question on a 3-cycle with pairwise
coprime labels a (v1~v2), b (v2~v3) and c (v3~v1), where a basis exists iff
a lies in the ideal (b, c). Over QQ[vars] it is one search without a bound,
decisive when every label is homogeneous. Over ZZ[x] with b or c of leading
coefficient 1 or -1 it decides membership in ZZ[x]/(that label), a lattice,
with one square rational solve, member iff integral; both methods eliminate
with ``solve_rational_system``. Two caps leave a triangle UNDECIDABLE: a
forced degree past the table cap of the search, and a monic label of the
lattice path past degree _MAX_LATTICE_DEGREE.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .basis import Provenance, SplineMatrix, check_basis, compute_q
from .errors import GraphError, RingMismatchError
from .graphs import LabeledGraph
from .polynomials import RAT, Polynomial, pack_exponents, packed_numerators

# A degree bound that gives more than this many monomials per entry is
# rejected before any table is built: the monomial table and each interior
# system grow with it, and "--degree 100000" alone would exhaust memory.
# At the cap, a K4 over QQ[x,y] (degree 198) takes 4.5 s and 431 MiB with
# Python 3.11 on a 2-core host; twice the cap took a 4-cycle over QQ[x,y,z]
# to 1.4 GiB.
_MAX_TABLE_MONOMIALS = 20_000

# triangle_flow_up_basis over ZZ[x] leaves a triangle UNDECIDABLE when its
# monic label has a larger degree d: with 1-digit coefficients, the d-square
# rational solve took 0.07 s at d = 80, 0.21 s at d = 100, 2.7 s at d = 160
# and 2.5 minutes at d = 320, with Python 3.11 on a 2-core host.
_MAX_LATTICE_DEGREE = 100


def solve_rational_system(rows):
    """Particular solution of sparse affine equations over the rationals.

    ``rows`` is a list of (coefficients, rhs) pairs where coefficients maps
    variable index to an ``int`` or ``Fraction`` coefficient and rhs is an
    ``int`` or ``Fraction``. Returns a dict from each pivot variable to its
    ``Fraction`` value (free variables, absent, are 0) or None when the
    system is inconsistent.

    Elimination is fraction-free (Bareiss, 1968): each row is scaled to
    integers by the lcm of its denominators, reduced by a pivot row with
    leading coefficient p where it has coefficient f as a*row - b*pivot_row
    (a = p/g, b = f/g, g = gcd(p, f)), and divided by its content when it
    becomes a pivot row. A row's pivot is its smallest variable, and it is
    reduced at its smallest pivot variable first, so every stored row is a
    rational multiple of the row that elimination with monic pivots stores
    and the solution is the same. Fractions appear only in back-substitution.
    """
    # each pivot variable maps to (its coefficient, the row's other terms, rhs)
    pivots: dict[int, tuple[int, tuple[tuple[int, int], ...], int]] = {}
    for coefficients, rhs in rows:
        row, value = _integer_row(coefficients, rhs)
        # a pivot row holds only variables above its pivot, so the pivot
        # variables met while reducing a row come out of the heap in order
        known = [v for v in row if v in pivots]
        heapq.heapify(known)
        while known:
            variable = heapq.heappop(known)
            factor = row.pop(variable, 0)
            if not factor:  # cancelled since it was pushed
                continue
            lead, pivot_terms, pivot_value = pivots[variable]
            g = math.gcd(lead, factor)
            a, b = lead // g, factor // g
            if a != 1:
                for v in row:
                    row[v] *= a
                value *= a
            for pv, pc in pivot_terms:
                old = row.get(pv, 0)
                new = old - b * pc
                if not new:
                    del row[pv]
                    continue
                row[pv] = new
                if not old and pv in pivots:
                    heapq.heappush(known, pv)
            value -= b * pivot_value
        if not row:
            if value:
                return None
            continue
        content = math.gcd(value, *row.values())
        if content != 1:
            row = {v: c // content for v, c in row.items()}
            value //= content
        variable = min(row)
        lead = row.pop(variable)
        pivots[variable] = (lead, tuple(row.items()), value)
    solution: dict[int, Fraction] = {}
    for variable, (lead, terms, value) in reversed(pivots.items()):
        # value / den accumulates the rhs minus the known terms, over integers
        den = 1
        for pv, pc in terms:
            known_value = solution.get(pv)  # None for a free variable
            if known_value is None:
                continue
            d = known_value.denominator
            g = math.gcd(den, d)
            value = value * (d // g) - pc * known_value.numerator * (den // g)
            den *= d // g
        solution[variable] = Fraction(value, den * lead)
    return solution


def _integer_row(coefficients, rhs):
    """A row and its rhs scaled to integers by the lcm of their denominators,
    without its zero coefficients."""
    scale = rhs.denominator
    for c in coefficients.values():
        scale = math.lcm(scale, c.denominator)
    row = {v: c.numerator * (scale // c.denominator) for v, c in coefficients.items() if c}
    return row, rhs.numerator * (scale // rhs.denominator)


def monomials_up_to(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree at most ``max_degree``, grlex order.

    Each degree's tuples are built in ascending order, one variable more per
    pass, in time proportional to the size of the table.
    """
    of_degree = [[()]] + [[] for _ in range(max_degree)]
    for _ in range(nvars):
        of_degree = [[(first,) + rest for first in range(degree + 1)
                      for rest in of_degree[degree - first]]
                     for degree in range(max_degree + 1)]
    return [e for tuples in of_degree for e in tuples]


@dataclass(frozen=True)
class SearchOutcome:
    """Either a found flow-up basis or a bounded nonexistence certificate."""

    basis: SplineMatrix | None
    leading_terms: tuple[Polynomial, ...] | None
    degree_bound: int
    assignments_total: int
    """Factor-to-position assignments the outcome covers: n ** len(factors)."""
    systems_checked: int
    """Distinct leading-term tuples among those assignments: prod comb(m + n - 1,
    n - 1) over the multiplicities m of the distinct monic factors. Only the
    forced tuple (L_1, ..., L_n) is solved."""
    determinant: Polynomial | None = None  # of the found basis
    every_degree: bool = False
    """NONEXISTENT at a bound of at least the forced degree, with every label
    homogeneous: no flow-up class basis exists at any degree."""

    @property
    def found(self) -> bool:
        return self.basis is not None


def _solve_column(graph: LabeledGraph, position: int, leading: Polynomial, bound: int,
                  monomials, keys) -> list[Polynomial] | None:
    """Entries of the flow-up column with the forced leading term ``leading``
    at ``position`` and unknown entries below it, or None if there are none
    of total degree at most ``bound``.

    ``monomials`` are ``monomials_up_to(nvars, bound)`` and ``keys`` their
    ``pack_exponents`` keys, so the key order is grlex, a prefix of the keys
    is every monomial up to a lower degree, and adding two keys multiplies
    their monomials. The unknowns are the coefficients of the entries in row
    order, then those of one quotient per edge with rows, in edge order.
    """
    if leading.total_degree() > bound:
        return None
    nvars = len(graph.ring.variables)
    size = len(keys)
    entry_variables = (graph.n - position - 1) * size
    leading_numerators, leading_den = packed_numerators(leading, bound)
    rows: list[tuple[dict[int, int], int]] = []
    next_variable = entry_variables
    for edge in graph.edges:
        if max(edge.u, edge.v) <= position:
            continue  # 0 against 0, or L_i against 0 across a label dividing L_i
        # label | (entry(u) - entry(v)), as entry(u) - entry(v) - label*quotient == 0
        # scaled by the denominator of the prescribed entries; writing
        # label*quotient with the label's numerators only rescales the quotient
        scale = leading_den if position in (edge.u, edge.v) else 1
        equations: dict[int, dict[int, int]] = {}
        constants: dict[int, int] = {}
        for row, sign in ((edge.u, 1), (edge.v, -1)):
            if row == position:
                constants = {key: sign * c for key, c in leading_numerators.items()}
            elif row > position:
                base = (row - position - 1) * size
                for k, key in enumerate(keys):
                    equations.setdefault(key, {})[base + k] = sign * scale
        label_numerators = packed_numerators(edge.label, bound)[0].items()
        # bound is at least the label's degree, so the quotient has a monomial
        count = math.comb(bound - edge.label.total_degree() + nvars, nvars)
        for q_key in keys[:count]:
            for l_key, numerator in label_numerators:
                equations.setdefault(q_key + l_key, {})[next_variable] = -numerator
            next_variable += 1
        for key in sorted(equations.keys() | constants.keys()):
            rows.append((equations.get(key, {}), -constants.get(key, 0)))
    solution = solve_rational_system(rows)
    if solution is None:
        return None
    entries = [graph.ring.zero] * position + [leading]
    for base in range(0, entry_variables, size):
        # free variables are absent from the solution, and 0
        values = (solution.get(variable) for variable in range(base, base + size))
        terms = {e: c for e, c in zip(monomials, values) if c}
        entries.append(Polynomial(graph.ring.variables, RAT, terms))
    return entries


def flow_up_search_bounded(
    graph: LabeledGraph, q_factors, degree_bound: int | None = None
) -> SearchOutcome:
    """Search for a flow-up class basis with entry degrees at most the bound.

    A bound of None means the forced degree D = max_i deg L_i, which the
    outcome reports as its ``degree_bound``; if D gives more monomials per
    entry than the table cap, ``GraphError`` with code UNDECIDABLE is raised.
    An explicit bound past the cap, or below a label's degree, raises
    ``ValueError``. Labels that are not pairwise coprime, and factors that do
    not multiply to the label product, raise ``ValueError`` before either
    bound is checked. A NONEXISTENT outcome sets ``every_degree`` when its bound
    is at least D and every label is homogeneous (the module docstring gives
    the graded argument); homogeneity is read only on that path.

    Column i gets the forced leading term L_i, so a column whose L_i exceeds
    the bound certifies NONEXISTENT, and so does the first infeasible
    interior column. Two classes take no system. Class 0 is the constant
    spline (1, ..., 1): its system is solved by every entry 1 and every
    quotient 0, so every stored row with a quotient pivot has rhs 0, back
    substitution with the free variables at 0 sets every quotient to 0, and
    across the edges of a connected graph every entry is then 1. The last
    class is (0, ..., 0, L_{n-1}), whose system has no unknowns. ``q_factors``
    must multiply to the label product up to a unit; they set only the
    counts reported in the outcome.
    """
    ring = graph.ring
    if ring.kind != "poly" or ring.coeff_kind != RAT:
        raise RingMismatchError(
            "the bounded search needs a polynomial ring with rational coefficients"
        )
    nvars = len(ring.variables)
    leading = [
        ring.product(e.label for e in graph.edges if max(e.u, e.v) == i).normalized()
        for i in range(graph.n)
    ]
    forced = max(term.total_degree() for term in leading)
    q = compute_q(graph)
    if q.provenance is not Provenance.COPRIME_PRODUCT:
        raise ValueError("the bounded search requires pairwise coprime edge labels")
    factors = []
    for factor in q_factors:
        factor = ring.check(factor)
        if ring.is_zero(factor) or ring.is_unit(factor):
            raise ValueError("factors must be nonzero nonunits")
        factors.append(factor.normalized())
    unit = ring.exact_div(ring.product(factors), q.value)
    if unit is None or not ring.is_unit(unit):
        raise ValueError("factor product is not a unit multiple of the label product")
    if degree_bound is None:
        if math.comb(forced + nvars, nvars) > _MAX_TABLE_MONOMIALS:
            raise GraphError("UNDECIDABLE", f"the forced degree {forced} gives more than "
                             f"{_MAX_TABLE_MONOMIALS} monomials per entry in {nvars} variables")
        degree_bound = forced
    else:
        max_label_degree = max(
            (label.total_degree() for label in graph.labels()), default=0
        )
        if degree_bound < max_label_degree:
            raise ValueError(
                f"degree bound {degree_bound} is below the largest label degree "
                f"{max_label_degree}"
            )
        if math.comb(degree_bound + nvars, nvars) > _MAX_TABLE_MONOMIALS:
            raise ValueError(
                f"degree bound {degree_bound} gives more than {_MAX_TABLE_MONOMIALS} "
                f"monomials per entry in {nvars} variables"
            )

    n = graph.n
    assignments_total = n ** len(factors)
    systems_checked = math.prod(
        math.comb(m + n - 1, n - 1) for m in Counter(factors).values()
    )

    def nonexistent() -> SearchOutcome:
        every_degree = degree_bound >= forced and all(
            label.is_homogeneous() for label in graph.labels())
        return SearchOutcome(None, None, degree_bound, assignments_total, systems_checked,
                             every_degree=every_degree)

    if forced > degree_bound:
        return nonexistent()
    monomials = monomials_up_to(nvars, degree_bound)
    keys = [pack_exponents(e, degree_bound) for e in monomials]
    columns = [(ring.one,) * n]
    for position in range(1, n - 1):
        entries = _solve_column(graph, position, leading[position], degree_bound,
                                monomials, keys)
        if entries is None:
            return nonexistent()
        columns.append(tuple(entries))
    if n > 1:
        columns.append((ring.zero,) * (n - 1) + (leading[-1],))
    matrix = SplineMatrix(graph, columns)  # checks every column is a spline
    verdict = check_basis(matrix, q)
    if not verdict.is_basis:
        raise AssertionError("solved assignment must pass the determinant criterion")
    return SearchOutcome(matrix, tuple(leading), degree_bound, assignments_total,
                         systems_checked, verdict.determinant)


def _triangle_labels(graph: LabeledGraph):
    """Labels of a 3-cycle in role order: (v1~v2, v2~v3, v3~v1)."""
    if graph.n != 3 or len(graph.edges) != 3:
        raise ValueError("the obstruction test needs a 3-cycle graph")
    roles = {}
    for edge in graph.edges:
        key = frozenset((edge.u, edge.v))
        if key in roles:
            raise ValueError("the obstruction test needs three distinct edges")
        roles[key] = edge.label
    # three distinct pairs of three vertices, none a self-loop: {0,1}, {1,2}, {2,0}
    return roles[frozenset((0, 1))], roles[frozenset((1, 2))], roles[frozenset((2, 0))]


def _residues(p: Polynomial, m: Polynomial) -> list[int]:
    """Coefficients of x^0, ..., x^(d-1) in p mod m, for p and m in ZZ[x] and
    m of degree d with leading coefficient 1 or -1."""
    d = m.total_degree()
    size = max(p.total_degree(), d) + 1
    keys = [pack_exponents((e,), size) for e in range(size)]  # x^e in the packed maps
    numerators = packed_numerators(p, size)[0]
    rest = [numerators.get(key, 0) for key in keys]
    numerators = packed_numerators(m, size)[0]
    divisor = [(e, numerators[key]) for e, key in enumerate(keys) if key in numerators]
    lead = m.leading_coefficient()  # its own inverse
    for k in range(size - 1, d - 1, -1):
        quotient = rest[k] * lead
        if quotient:
            for e, coefficient in divisor:
                rest[k - d + e] -= quotient * coefficient
    return rest[:d]


def _zz_lattice_basis(graph: LabeledGraph, labels) -> SplineMatrix | None:
    """The columns (1,1,1), (0, a, y*c), (0, 0, b*c) when a is in (b, c) over
    ZZ[x], or None when it is not.

    One of b and c, m of degree d, must have leading coefficient 1 or -1:
    then ZZ[x]/(m) is ZZ^d, and a is in (b, c) iff a mod m is in the
    ZZ-span of x^i * (the other label) mod m for i < d. Those spans are the
    d columns of M. The other label is coprime to m, so it is a unit in
    QQ[x]/(m) and M is nonsingular: one square rational solve gives the
    unique s with M*s = a mod m, and a is a member iff s is integral, with
    a = s*(the other label) + t*m. Labels that are not pairwise coprime
    raise ``ValueError``; any other ring or pair of labels, or d above
    _MAX_LATTICE_DEGREE, raises ``GraphError`` with code UNDECIDABLE.
    """
    ring = graph.ring
    invariant = compute_q(graph)
    if invariant.provenance is not Provenance.COPRIME_PRODUCT:
        raise ValueError("the obstruction test needs pairwise coprime labels")
    a, b, c = labels
    monic = [(m, other) for m, other in ((b, c), (c, b)) if m.leading_coefficient() in (1, -1)]
    if len(ring.variables) != 1 or not monic:
        raise GraphError("UNDECIDABLE", "over integer coefficients only ZZ[x] with b or c of "
                         "leading coefficient 1 or -1 is decided")
    m, other = min(monic, key=lambda pair: pair[0].total_degree())
    d = m.total_degree()
    if d > _MAX_LATTICE_DEGREE:
        raise GraphError("UNDECIDABLE", f"the monic label has degree {d}, above "
                         f"{_MAX_LATTICE_DEGREE}")
    x = ring.variable(ring.variables[0])
    # row j of M*s = a mod m, where column i of M is x^i * other mod m
    rows = zip(zip(*(_residues(other * x ** i, m) for i in range(d))), _residues(a, m))
    solution = solve_rational_system([(dict(enumerate(row)), value) for row, value in rows])
    if solution is None or len(solution) != d:
        raise AssertionError("coprime labels must give a nonsingular system")
    if any(value.denominator != 1 for value in solution.values()):
        return None
    # a = s*other + t*m; the column's third entry is y*c, divisible by c, with b | a - y*c
    s = Polynomial(ring.variables, ring.coeff_kind, {(i,): int(v) for i, v in solution.items()})
    third = a - s * b if m is c else s * c
    matrix = SplineMatrix(graph, [(ring.one,) * 3, (ring.zero, a, third),
                                  (ring.zero, ring.zero, b * c)])
    if not check_basis(matrix, invariant).is_basis:
        raise AssertionError("the sufficiency columns must pass the determinant criterion")
    return matrix


def triangle_flow_up_basis(graph: LabeledGraph) -> tuple[tuple, str, SplineMatrix | None]:
    """Decide whether a 3-cycle over a polynomial ring has a flow-up class basis.

    Returns the labels in role order, a (v1~v2), b (v2~v3) and c (v3~v1),
    the name of the method that decided, and a flow-up class basis, or None
    when none exists. With pairwise coprime labels a basis exists iff a lies
    in the ideal (b, c) (``c3_flowup_obstruction`` gives the necessity; if
    a = s*b + y*c, the columns (1,1,1), (0, a, y*c), (0, 0, b*c) have
    determinant Q). Over QQ[vars] the method is "graded-search": one
    ``flow_up_search_bounded`` call at the forced degree, whose NONEXISTENT
    is an answer only when it holds at every degree. Over ZZ[x] it is
    "zz-lattice": membership in ZZ[x]/(m) for a label m of b and c with
    leading coefficient 1 or -1, decided by one square rational solve,
    member iff integral (``_zz_lattice_basis``). A ring that is not a
    polynomial ring, a graph that is not a 3-cycle, or labels that are not
    pairwise coprime raise ``ValueError``; a case that neither method
    decides raises ``GraphError`` with code UNDECIDABLE.
    """
    ring = graph.ring
    if ring.kind != "poly":
        raise ValueError("the obstruction test is for polynomial rings")
    labels = _triangle_labels(graph)
    if ring.coeff_kind == RAT:
        # at the forced degree; a NONEXISTENT that holds at every degree is "yes"
        outcome = flow_up_search_bounded(graph, [label for label in labels
                                                 if not ring.is_unit(label)])
        if not (outcome.found or outcome.every_degree):
            raise GraphError("UNDECIDABLE", f"NONEXISTENT({outcome.degree_bound}) rules out "
                             "no higher degree when a label is not homogeneous")
        return labels, "graded-search", outcome.basis
    return labels, "zz-lattice", _zz_lattice_basis(graph, labels)
