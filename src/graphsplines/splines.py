"""Splines as vertex labelings: verification, flow-up classification, witnesses.

A spline on a graph with n vertices is a plain n-tuple of ring elements such
that every edge label divides the difference of its endpoint entries. The
flow-up index of a spline is its number of leading zeros under the graph's
vertex order; the zero spline has index n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import LabeledGraph


@dataclass(frozen=True)
class EdgeViolation:
    """One failed edge congruence: label does not divide entry difference."""

    edge_index: int
    u: str
    v: str
    label_text: str

    def __str__(self):
        return f"edge {self.u}~{self.v} (label {self.label_text}) fails"


@dataclass(frozen=True)
class SplineCheck:
    ok: bool
    violations: tuple[EdgeViolation, ...]


def is_spline(graph: LabeledGraph, candidate) -> SplineCheck:
    """Check every edge congruence; reports all violated edges, not just the first.

    Each entry is checked once, on entry, so a foreign one raises
    RingMismatchError. The graph checked its labels when it was built: they
    are elements of its ring and nonzero, so the ring's unchecked
    ``_exact_quotient`` divides each difference by its label (None when the
    label does not divide it), and ``_text`` prints a violated label.
    """
    candidate = tuple(candidate)
    if len(candidate) != graph.n:
        raise ValueError(
            f"candidate has {len(candidate)} entries; the graph has {graph.n} vertices"
        )
    ring = graph.ring
    candidate = [ring.check(entry) for entry in candidate]
    violations = []
    quotient = ring._exact_quotient
    for index, edge in enumerate(graph.edges):
        if quotient(candidate[edge.u] - candidate[edge.v], edge.label) is None:
            violations.append(
                EdgeViolation(
                    index,
                    graph.vertices[edge.u],
                    graph.vertices[edge.v],
                    ring._text(edge.label),
                )
            )
    return SplineCheck(not violations, tuple(violations))


def flow_up_index(spline) -> int:
    """Number of leading zeros; equals the tuple length for the zero spline."""
    count = 0
    for entry in spline:
        if entry:
            break
        count += 1
    return count


def leading_term(spline):
    """First nonzero entry of a nonzero spline."""
    for entry in spline:
        if entry:
            return entry
    raise ValueError("the zero spline has no leading term")


def flow_up_witness(graph: LabeledGraph, index: int) -> tuple:
    """Explicit member of flow-up class ``index`` for 0 < index < n.

    The single nonzero entry sits at position ``index`` (0-based) and equals
    the product of the labels incident to that vertex, so every incident edge
    congruence is satisfied by divisibility and every other edge compares
    zero with zero.
    """
    if not 0 < index < graph.n:
        raise ValueError(f"flow-up witness index must satisfy 0 < i < {graph.n}")
    ring = graph.ring
    value = ring.product(graph.incident_labels(index))
    return tuple(
        value if position == index else ring.zero for position in range(graph.n)
    )


def spline_combination(ring, coefficients, splines) -> tuple:
    """Componentwise sum of coefficient * spline; splines are closed under this."""
    coefficients = list(coefficients)
    splines = [tuple(s) for s in splines]
    if len(coefficients) != len(splines):
        raise ValueError("need exactly one coefficient per spline")
    if not splines:
        raise ValueError("need at least one spline")
    length = len(splines[0])
    if any(len(s) != length for s in splines):
        raise ValueError("splines have mismatched lengths")
    out = [ring.zero] * length
    for coefficient, spline in zip(coefficients, splines):
        for position in range(length):
            out[position] = ring.add(
                out[position], ring.mul(coefficient, spline[position])
            )
    return tuple(out)
