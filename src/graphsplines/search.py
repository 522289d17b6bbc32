"""Bounded search for flow-up class bases over rational-coefficient polynomial rings.

With pairwise coprime labels, a candidate set is a basis exactly when its
determinant is a unit multiple of the label product Q. A flow-up basis is
lower triangular, so its determinant is the product of its leading terms.
A class-i flow-up spline vanishes before vertex i, so the product L_i of
the labels joining i to earlier vertices divides its leading entry; the L_i
multiply to Q, so each leading term is forced to be a unit times L_i.
Prescribing the monic L_i turns every edge divisibility constraint on column
i into affine-linear conditions on the unknown coefficients of the entries
below it (capped at a total degree bound), decided exactly: one linear
system per vertex, built with integer coefficients and eliminated
fraction-free.

A NONEXISTENT outcome is a bounded-degree certificate: no flow-up class
basis exists whose entries all have total degree at most the bound.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .basis import Provenance, SplineMatrix, check_basis, compute_q
from .errors import RingMismatchError
from .graphs import LabeledGraph
from .polynomials import RAT, Polynomial, pack_exponents, packed_numerators


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
    """All exponent tuples of total degree at most ``max_degree``, grlex order."""
    out = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=nvars)
        if sum(e) <= max_degree
    ]
    out.sort(key=lambda e: (sum(e), e))
    return out


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

    @property
    def found(self) -> bool:
        return self.basis is not None


class _ColumnSystem:
    """Affine constraints for one candidate column of a flow-up basis.

    Monomials are keyed as ``packed_numerators`` keys them for the degree
    bound, so their integer order is grlex and adding two keys multiplies
    their monomials.
    """

    def __init__(self, graph: LabeledGraph, position: int, leading: Polynomial, bound: int):
        self.graph = graph
        self.ring = graph.ring
        self.position = position
        self.leading = leading
        self.bound = bound
        self.entry_monomials = monomials_up_to(len(self.ring.variables), bound)
        # grlex order lists every monomial of degree d before any of degree
        # d + 1, so a prefix of these keys is every monomial up to a lower degree
        self.entry_keys = [pack_exponents(e, bound) for e in self.entry_monomials]
        self.rows: list[tuple[dict[int, int], int]] = []
        self.next_variable = 0
        # unknown entries sit strictly below the prescribed leading entry
        self.entry_slots = {
            row: self._new_slot(self.entry_keys)
            for row in range(position + 1, graph.n)
        }

    def _new_slot(self, keys) -> dict[int, int]:
        slot = {}
        for key in keys:
            slot[key] = self.next_variable
            self.next_variable += 1
        return slot

    def _entry(self, row: int):
        """Constant Polynomial or an unknown slot for the column entry at ``row``."""
        if row < self.position:
            return self.ring.zero
        if row == self.position:
            return self.leading
        return self.entry_slots[row]

    def feasible(self) -> list[Polynomial] | None:
        """Solve the column's constraints; returns its entries or None."""
        if self.leading.total_degree() > self.bound:
            return None
        for edge in self.graph.edges:
            lhs = self._entry(edge.u)
            rhs = self._entry(edge.v)
            if isinstance(lhs, Polynomial) and isinstance(rhs, Polynomial):
                if not self.ring.divides(edge.label, lhs - rhs):
                    return None
                continue
            self._add_divisibility_rows(lhs, rhs, edge.label)
        solution = solve_rational_system(self.rows)
        if solution is None:
            return None
        entries = []
        for row in range(self.graph.n):
            piece = self._entry(row)
            if isinstance(piece, Polynomial):
                entries.append(piece)
            else:
                # free variables are absent from the solution, and 0
                values = [solution.get(variable) for variable in piece.values()]
                terms = {e: c for e, c in zip(self.entry_monomials, values) if c}
                entries.append(Polynomial(self.ring.variables, RAT, terms))
        return entries

    def _add_divisibility_rows(self, lhs, rhs, label: Polynomial) -> None:
        """Encode label | (lhs - rhs) as lhs - rhs - label*quotient == 0.

        The equations are scaled by the lcm D of the denominators of lhs and
        rhs, and label*quotient is written with the label's numerators: that
        only rescales the quotient unknowns (by D over the label's
        denominator), so the entry values do not change.
        """
        nvars = len(self.ring.variables)
        quotient_degree = self.bound - label.total_degree()
        # the monomials of degree at most quotient_degree; none if it is negative
        count = math.comb(quotient_degree + nvars, nvars) if quotient_degree >= 0 else 0
        quotient = self._new_slot(self.entry_keys[:count])
        equations: dict[int, dict[int, int]] = {}
        constants: dict[int, int] = {}
        sides = [(lhs, 1), (rhs, -1)]
        prescribed = [
            (packed_numerators(piece, self.bound), sign)
            for piece, sign in sides if isinstance(piece, Polynomial)
        ]
        scale = math.lcm(*(den for (_, den), _ in prescribed))
        for (numerators, den), sign in prescribed:
            factor = sign * (scale // den)
            for key, numerator in numerators.items():
                constants[key] = constants.get(key, 0) + factor * numerator
        for piece, sign in sides:
            if not isinstance(piece, Polynomial):
                for key, variable in piece.items():
                    equations.setdefault(key, {})[variable] = sign * scale
        if quotient:  # else the label's degree is above the bound its keys need
            label_numerators = packed_numerators(label, self.bound)[0].items()
            for q_key, variable in quotient.items():
                for l_key, numerator in label_numerators:
                    equations.setdefault(q_key + l_key, {})[variable] = -numerator
        for key in sorted(equations.keys() | constants.keys()):
            self.rows.append((equations.get(key, {}), -constants.get(key, 0)))


def flow_up_search_bounded(
    graph: LabeledGraph, q_factors, degree_bound: int
) -> SearchOutcome:
    """Search for a flow-up class basis with entry degrees at most the bound.

    Column i gets the forced leading term L_i; the first infeasible column
    certifies NONEXISTENT. ``q_factors`` must multiply to the label product
    up to a unit; they set only the counts reported in the outcome.
    """
    ring = graph.ring
    if ring.kind != "poly" or ring.coeff_kind != RAT:
        raise RingMismatchError(
            "the bounded search needs a polynomial ring with rational coefficients"
        )
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
    max_label_degree = max(
        (label.total_degree() for label in graph.labels()), default=0
    )
    if degree_bound < max_label_degree:
        raise ValueError(
            f"degree bound {degree_bound} is below the largest label degree "
            f"{max_label_degree}"
        )

    n = graph.n
    assignments_total = n ** len(factors)
    systems_checked = math.prod(
        math.comb(m + n - 1, n - 1) for m in Counter(factors).values()
    )
    leading = [
        ring.product(e.label for e in graph.edges if max(e.u, e.v) == i).normalized()
        for i in range(n)
    ]
    columns = []
    for position in range(n):
        entries = _ColumnSystem(graph, position, leading[position], degree_bound).feasible()
        if entries is None:
            return SearchOutcome(None, None, degree_bound, assignments_total, systems_checked)
        columns.append(tuple(entries))
    matrix = SplineMatrix(graph, columns)  # checks every column is a spline
    verdict = check_basis(matrix, q)
    if not verdict.is_basis:
        raise AssertionError("solved assignment must pass the determinant criterion")
    return SearchOutcome(matrix, tuple(leading), degree_bound, assignments_total,
                         systems_checked, verdict.determinant)
