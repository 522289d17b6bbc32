"""Bounded search for flow-up class bases over rational-coefficient polynomial rings.

With pairwise coprime labels, a candidate set is a basis exactly when its
determinant is a unit multiple of the label product Q. A flow-up basis is
lower triangular, so its determinant is the product of its leading terms.
A class-i flow-up spline vanishes before vertex i, so the product L_i of
the labels joining i to earlier vertices divides its leading entry; the L_i
multiply to Q, so each leading term is forced to be a unit times L_i.
Prescribing the monic L_i turns every edge divisibility constraint on column
i into affine-linear conditions on the unknown coefficients of the entries
below it (capped at a total degree bound), decided exactly over the
rationals: one linear system per vertex.

A NONEXISTENT outcome is a bounded-degree certificate: no flow-up class
basis exists whose entries all have total degree at most the bound.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .basis import Provenance, SplineMatrix, check_basis, compute_q
from .errors import RingMismatchError
from .graphs import LabeledGraph
from .polynomials import RAT, Polynomial


def solve_rational_system(rows):
    """Particular solution of sparse affine equations over the rationals.

    ``rows`` is a list of (coefficients, rhs) pairs where coefficients maps
    variable index to Fraction. Returns a dict of variable values (free
    variables are 0) or None when the system is inconsistent.
    """
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    for coefficients, rhs in rows:
        row = dict(coefficients)
        value = Fraction(rhs)
        while True:
            known = [v for v in row if v in pivots]
            if not known:
                break
            variable = min(known)
            factor = row.pop(variable)
            pivot_row, pivot_rhs = pivots[variable]
            for pv, pc in pivot_row.items():
                if pv == variable:
                    continue
                s = row.get(pv, Fraction(0)) - factor * pc
                if s:
                    row[pv] = s
                else:
                    row.pop(pv, None)
            value -= factor * pivot_rhs
        if not row:
            if value:
                return None
            continue
        variable = min(row)
        scale = row[variable]
        normalized = {v: c / scale for v, c in row.items()}
        pivots[variable] = (normalized, value / scale)
    solution: dict[int, Fraction] = {}
    for variable, (row, rhs) in reversed(list(pivots.items())):
        total = rhs
        for pv, pc in row.items():
            if pv != variable:
                total -= pc * solution.get(pv, Fraction(0))
        solution[variable] = total
    return solution


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
    """Affine constraints for one candidate column of a flow-up basis."""

    def __init__(self, graph: LabeledGraph, position: int, leading: Polynomial, bound: int):
        self.graph = graph
        self.ring = graph.ring
        self.position = position
        self.leading = leading
        self.bound = bound
        self.entry_monomials = monomials_up_to(len(self.ring.variables), bound)
        self.rows: list[tuple[dict[int, Fraction], Fraction]] = []
        self.next_variable = 0
        # unknown entries sit strictly below the prescribed leading entry
        self.entry_slots = {
            row: self._new_slot(self.entry_monomials)
            for row in range(position + 1, graph.n)
        }

    def _new_slot(self, monomials) -> dict[tuple[int, ...], int]:
        slot = {}
        for exponent in monomials:
            slot[exponent] = self.next_variable
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
                terms = {
                    exponent: solution.get(variable, Fraction(0))
                    for exponent, variable in piece.items()
                }
                entries.append(Polynomial(self.ring.variables, RAT, terms))
        return entries

    def _add_divisibility_rows(self, lhs, rhs, label: Polynomial) -> None:
        """Encode label | (lhs - rhs) as lhs - rhs - label*quotient == 0."""
        quotient = self._new_slot(
            monomials_up_to(len(self.ring.variables), self.bound - label.total_degree())
        )
        equations: dict[tuple[int, ...], dict[int, Fraction]] = {}
        constants: dict[tuple[int, ...], Fraction] = {}

        def contribute(piece, sign: int) -> None:
            if isinstance(piece, Polynomial):
                for exponent, coefficient in piece.terms.items():
                    constants[exponent] = (
                        constants.get(exponent, Fraction(0)) + sign * coefficient
                    )
            else:
                for exponent, variable in piece.items():
                    equations.setdefault(exponent, {})[variable] = Fraction(sign)

        contribute(lhs, 1)
        contribute(rhs, -1)
        label_terms = label.terms.items()  # built anew on every read of .terms
        for q_exponent, variable in quotient.items():
            for l_exponent, coefficient in label_terms:
                exponent = tuple(a + b for a, b in zip(q_exponent, l_exponent))
                row = equations.setdefault(exponent, {})
                row[variable] = row.get(variable, Fraction(0)) - coefficient
        for exponent in sorted(set(equations) | set(constants), key=lambda e: (sum(e), e)):
            self.rows.append(
                (
                    equations.get(exponent, {}),
                    -constants.get(exponent, Fraction(0)),
                )
            )


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
