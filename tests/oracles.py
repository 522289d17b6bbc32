"""Independent oracles used by the test suite.

Everything here is deliberately implemented with different algorithms than
the library under test: brute-force enumeration for spline lattices,
widest paths, prime by prime, for the flow-up diagonal over the integers,
subset-DP cofactor expansion for determinants, dense rational Gaussian
elimination for span questions, enumeration of every factor assignment
for the bounded flow-up search, and the schoolbook tuple-keyed polynomial
product, max-scan division, evaluation and interpolation in the last
variable, and splitting off and joining back the last variable that the
packed integer kernel replaced; the digit-at-a-time symmetric xi-adic
expansion, against which the fixed-width bit fields read at xi = 2^bits
are checked; and the token-by-token
recursive-descent parser that builds a polynomial for every token, which
the run-folding parser replaced; the coprimality test that
takes the gcd of every pair of labels, which the running-product test
replaced; the label lcm folded with ``ring.lcm`` from 1 over every label,
which the lcm seeded from the coprimality scan replaced; and the printer that formats each term from its ``Fraction``
coefficient, which the one-gcd-per-term printer replaced, and that
printer, which unpacked each exponent tuple and built each term in a helper,
as the reference for the one-pass printer that replaced it; the
``Fraction`` Gaussian elimination with monic pivots that the fraction-free
solver of ``search`` replaced; the column-system class, which takes
any prescribed leading term, that ``search._solve_column`` replaced; the
regex check of integer literals that ``str.isdecimal`` replaced; the
column HNF that kept its transform in a second array, which the HNF that
carries the transform under each column replaced; the breadth-first
connectivity test over adjacency lists that union-find replaced; and the
monomial table that filters and sorts every exponent tuple up to the bound
in each variable, which the table built degree by degree replaced; and the
ideals of leading entries of the spline module from sympy's module Groebner
bases (syzygies and intersections in ``sympy.polys.agca``), which decide
whether a flow-up basis exists without any degree bound.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from graphsplines.basis import SplineMatrix
from graphsplines.errors import ParseError, excerpt
from graphsplines.graphs import LabeledGraph
from graphsplines.polynomials import (
    _MAX_NESTING,
    INT,
    RAT,
    Polynomial,
    _power_too_large,
    _unpacker,
    number_text,
    pack_exponents,
    packed_numerators,
    parse_int,
)
from graphsplines.search import SearchOutcome, monomials_up_to, solve_rational_system


def enumerate_integer_splines(vertex_count, int_edges, bound):
    """All splines with entries in [-bound, bound], by raw backtracking.

    ``int_edges`` is a list of (u, v, label) integer triples. Uses nothing
    from the library: congruences are checked with plain % arithmetic.
    """
    by_vertex = [[] for _ in range(vertex_count)]
    for u, v, label in int_edges:
        far = max(u, v)
        by_vertex[far].append((min(u, v), abs(label)))

    out = []
    values = [0] * vertex_count

    def extend(position):
        if position == vertex_count:
            out.append(tuple(values))
            return
        for candidate in range(-bound, bound + 1):
            ok = True
            for earlier, label in by_vertex[position]:
                if (candidate - values[earlier]) % label:
                    ok = False
                    break
            if ok:
                values[position] = candidate
                extend(position + 1)
        values[position] = 0

    extend(0)
    return out


def cofactor_determinant(rows):
    """Determinant by subset-DP Laplace expansion (no fraction-free tricks).

    Works for any entries supporting +, *, and int coercion on the identity,
    so both integers and library polynomials can be fed in.
    """
    n = len(rows)
    memo = {}

    def minor(row, mask):
        if row == n:
            return 1
        if mask in memo:
            return memo[mask]
        total = 0
        sign = 1
        for j in range(n):
            if mask & (1 << j):
                continue
            entry = rows[row][j]
            if entry:
                total = total + sign * entry * minor(row + 1, mask | (1 << j))
            sign = -sign
        memo[mask] = total
        return total

    return minor(0, 0)


def solve_exact(matrix_rows, rhs):
    """Solve a square rational system exactly; None if singular."""
    n = len(matrix_rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix_rows)]
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k]), None)
        if pivot_row is None:
            return None
        a[k], a[pivot_row] = a[pivot_row], a[k]
        pivot = a[k][k]
        a[k] = [x / pivot for x in a[k]]
        for r in range(n):
            if r != k and a[r][k]:
                factor = a[r][k]
                a[r] = [x - factor * y for x, y in zip(a[r], a[k])]
    return [a[i][n] for i in range(n)]


def spans_integer_lattice(candidate_columns, generator_columns):
    """True iff every generator is an integer combination of the candidates.

    Both arguments are lists of integer column tuples of equal length. The
    candidates are assumed to lie inside the lattice spanned by the
    generators, so spanning all generators with integer coordinates is
    equivalent to being a basis of that lattice.
    """
    n = len(candidate_columns[0])
    matrix = [[candidate_columns[j][i] for j in range(len(candidate_columns))] for i in range(n)]
    for generator in generator_columns:
        coords = solve_exact(matrix, list(generator))
        if coords is None or any(c.denominator != 1 for c in coords):
            return False
    return True


def matrix_multiply(a_rows, b_rows):
    rows, inner, cols = len(a_rows), len(b_rows), len(b_rows[0])
    assert len(a_rows[0]) == inner
    return [
        [sum(a_rows[i][k] * b_rows[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def random_unimodular(rng, n, operations=12):
    """Random product of elementary column operations; returns (rows, det)."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    det = 1
    for _ in range(operations):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            factor = rng.choice([-3, -2, -1, 1, 2, 3])
            for r in range(n):
                rows[r][i] += factor * rows[r][j]
        elif kind == 1 and i != j:
            for r in range(n):
                rows[r][i], rows[r][j] = rows[r][j], rows[r][i]
            det = -det
        else:
            for r in range(n):
                rows[r][i] = -rows[r][i]
            det = -det
    return rows, det


def minimal_positive_leading_term(splines, leading_zeros):
    """Smallest positive leading term among enumerated splines in one class."""
    best = None
    for spline in splines:
        prefix = spline[:leading_zeros]
        if any(prefix):
            continue
        if leading_zeros == len(spline):
            continue
        lead = spline[leading_zeros]
        if lead > 0 and (best is None or lead < best):
            best = lead
    return best


def widest_path_diagonal(vertex_count, int_edges):
    """The flow-up diagonal of an integer graph from widest paths, prime by prime.

    ``int_edges`` is a list of (u, v, label) integer triples. For each prime
    p of the labels (from ``sympy.factorint``), v_p(d_i) is the largest t
    such that some path from vertex i to an earlier vertex uses only edges
    whose label has v_p >= t, and 0 if no path reaches one; so d_1 = 1. Each
    t is read off a union-find of the edges with v_p >= t: vertex i meets an
    earlier vertex iff the least vertex of its component is below i. Uses
    no lattice reduction at all.
    """
    from sympy import factorint

    valuations = {}  # prime -> [(v_p(label), u, v)] over the edges
    for u, v, label in int_edges:
        for prime, exponent in factorint(abs(label)).items():
            valuations.setdefault(prime, []).append((exponent, u, v))
    diagonal = [1] * vertex_count
    for prime, edges in valuations.items():
        exponents = [0] * vertex_count
        for threshold in sorted({exponent for exponent, _, _ in edges}):
            parent = list(range(vertex_count))

            def root(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for exponent, u, v in edges:
                if exponent >= threshold:
                    a, b = root(u), root(v)
                    parent[max(a, b)] = min(a, b)  # a root is its component's least vertex
            for i in range(vertex_count):
                if root(i) < i:
                    exponents[i] = threshold
        for i, exponent in enumerate(exponents):
            diagonal[i] *= prime**exponent
    return tuple(diagonal)


class ColumnSystem:
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


def enumerating_flow_up_search(graph, factors, degree_bound):
    """Bounded flow-up search over every factor-to-position assignment.

    ``factors`` are the monic irreducible factors of the label product. Each
    assignment prescribes leading terms (the product of the factors sent to
    each position); assignments are taken in ``itertools.product`` order,
    deduplicated by the leading-term tuple they induce, and the first tuple
    whose column systems are all feasible is returned. Input validation and
    the basis check are left to the search under test.
    """
    ring = graph.ring
    n = graph.n
    assignments_total = n ** len(factors)
    seen = set()
    for assignment in itertools.product(range(n), repeat=len(factors)):
        leading = [ring.one] * n
        for factor, position in zip(factors, assignment):
            leading[position] = leading[position] * factor
        key = tuple(str(term) for term in leading)
        if key in seen:
            continue
        seen.add(key)
        columns = []
        for position in range(n):
            entries = ColumnSystem(graph, position, leading[position], degree_bound).feasible()
            if entries is None:
                break
            columns.append(tuple(entries))
        else:
            return SearchOutcome(
                SplineMatrix(graph, columns), tuple(leading), degree_bound,
                assignments_total, len(seen),
            )
    return SearchOutcome(None, None, degree_bound, assignments_total, len(seen))


def fraction_solve_rational_system(rows):
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


def pairwise_coprime_by_pairs(graph):
    """``pairwise_coprime_labels`` by one gcd per pair of labels."""
    ring = graph.ring
    labels = graph.labels()
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if not ring.is_unit(ring.gcd(labels[i], labels[j])):
                return False
    return True


def folded_label_lcm(graph):
    """``label_lcm`` by one ``ring.lcm`` per label, folded from ``ring.one``."""
    ring = graph.ring
    value = ring.one
    for label in graph.labels():
        value = ring.lcm(value, label)
    return value


def _grlex_key(exponents):
    return (sum(exponents), exponents)


def fraction_text(p):
    """A polynomial's text, each term formatted from its ``.terms`` coefficient."""
    pieces = []
    for exponents, coefficient in sorted(
        p.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True
    ):
        monomial = "*".join(
            name if power == 1 else f"{name}^{power}"
            for name, power in zip(p.variables, exponents)
            if power
        )
        magnitude = abs(coefficient)
        if not monomial:
            body = str(magnitude)
        elif magnitude == 1:
            body = monomial
        else:
            body = f"{magnitude}*{monomial}"
        if not pieces:
            pieces.append(f"-{body}" if coefficient < 0 else body)
        else:
            pieces.append(f"- {body}" if coefficient < 0 else f"+ {body}")
    return " ".join(pieces) or "0"


def reference_text(p):
    """A polynomial's text, built term by term from each unpacked exponent tuple."""
    if not p._packed:
        return "0"
    unpack = _unpacker(len(p.variables), p._width)
    den = p._den
    pieces = []
    for m in sorted(p._packed, reverse=True):  # descending grlex
        numerator = p._packed[m]
        g = math.gcd(numerator, den)  # numerator/den in lowest terms
        magnitude = number_text(abs(numerator) // g)
        if g != den:
            magnitude = f"{magnitude}/{number_text(den // g)}"
        body = _term_text(p.variables, unpack(m), magnitude)
        if not pieces:
            pieces.append(f"-{body}" if numerator < 0 else body)
        else:
            pieces.append(f"- {body}" if numerator < 0 else f"+ {body}")
    return " ".join(pieces)


def _term_text(variables, exponents, magnitude: str) -> str:
    monomial = "*".join(
        name if power == 1 else f"{name}^{number_text(power)}"
        for name, power in zip(variables, exponents)
        if power
    )
    if not monomial:
        return magnitude
    if magnitude == "1":
        return monomial
    return f"{magnitude}*{monomial}"


def schoolbook_multiply(a, b):
    """Product of two polynomials of one ring, term by term on exponent tuples.

    Coefficients are multiplied as they are (``int`` or ``Fraction``) and
    summed in a dict keyed by the exponent tuple of each product.
    """
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Polynomial(a.variables, a.coeff_kind, out)


def scanning_divide(numerator, denominator):
    """Exact quotient by repeated leading-term division, or None.

    Each step finds the remainder's leading monomial by a full ``max`` scan
    under grlex and divides it by the divisor's leading term, over INT with
    an exact integer division and over RAT with Fraction division.
    """
    lead = max(denominator.terms, key=_grlex_key)
    lead_coefficient = denominator.terms[lead]
    remainder = dict(numerator.terms)
    quotient = {}
    while remainder:
        exponents = max(remainder, key=_grlex_key)
        coefficient = remainder[exponents]
        shift = tuple(x - y for x, y in zip(exponents, lead))
        if any(d < 0 for d in shift):
            return None
        if numerator.coeff_kind == INT:
            if coefficient % lead_coefficient:
                return None
            q = coefficient // lead_coefficient
        else:
            q = coefficient / lead_coefficient
        quotient[shift] = q
        for e, c in denominator.terms.items():
            key = tuple(x + y for x, y in zip(shift, e))
            s = remainder.get(key, 0) - q * c
            if s:
                remainder[key] = s
            else:
                remainder.pop(key, None)
    return Polynomial(numerator.variables, numerator.coeff_kind, quotient)


def tuple_evaluate_last(p, xi):
    """An INT polynomial with its last variable set to ``xi``, on exponent tuples."""
    image = {}
    for e, c in p.terms.items():
        image[e[:-1]] = image.get(e[:-1], 0) + c * xi ** e[-1]
    return Polynomial(p.variables[:-1], INT, image)


def tuple_interpolate_last(image, xi, variables):
    """The polynomial whose coefficients are the symmetric xi-adic digits of ``image``'s.

    Each coefficient is written as sum d_k xi^k with every digit d_k in
    (-xi/2, xi/2], and d_k becomes the coefficient of the last variable's
    k-th power.
    """
    terms = {}
    for e, c in image.terms.items():
        power = 0
        while c:
            digit = c % xi
            if digit > xi // 2:
                digit -= xi
            if digit:
                terms[e + (power,)] = digit
            c = (c - digit) // xi
            power += 1
    return Polynomial(variables, INT, terms)


def peeled_digits(c, xi):
    """The symmetric xi-adic digits of ``c`` (each in (-xi/2, xi/2]), lowest first.

    One ``divmod`` of the whole remaining coefficient per digit, up to the
    top nonzero digit.
    """
    half = xi // 2
    digits = []
    while c:
        c, digit = divmod(c, xi)
        if digit > half:
            digit -= xi
            c += 1
        digits.append(digit)
    return digits


def tuple_split_last(p):
    """An INT polynomial as univariate in its last variable, on exponent tuples.

    Maps each power of the last variable to its coefficient, an INT
    polynomial in the other variables.
    """
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[-1], {})[e[:-1]] = c
    return {d: Polynomial(p.variables[:-1], INT, t) for d, t in buckets.items()}


def tuple_join_last(variables, univariate):
    """The INT polynomial sum of ``coefficient * last^degree``, on exponent tuples."""
    terms = {}
    for degree, coefficient in univariate.items():
        for e, c in coefficient.terms.items():
            terms[e + (degree,)] = c
    return Polynomial(variables, INT, terms)


def token_parse_polynomial(text, variables, coeff_kind):
    """``parse_polynomial`` by the token-by-token parser.

    Every literal and variable becomes a Polynomial, every ``*`` a
    ``__mul__`` and every ``+``/``-`` a sum; the checks, their messages and
    their positions are the package's.
    """
    return _Parser(_tokenize(text), variables, coeff_kind).parse()


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # the digits int() accepts; isdigit() also takes '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j + 1:
                    raise ParseError("malformed rational literal", i)
                tokens.append(("number", text[i:k], i))
                i = k
            else:
                tokens.append(("number", text[i:j], i))
                i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, coeff_kind):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)
        self.coeff_kind = coeff_kind

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        if self.current[0] == "end":
            raise ParseError("empty input", 0)
        value = self.expr()
        kind, text, position = self.current
        if kind != "end":
            raise ParseError(f"unexpected trailing input {excerpt(text)}", position)
        return value

    def expr(self) -> Polynomial:
        negate = False
        if self.current[0] in ("+", "-"):
            negate = self.advance()[0] == "-"
        value = self.term()
        if negate:
            value = -value
        while self.current[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.current[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        base = self.base()
        if self.current[0] == "^":
            self.advance()
            kind, text, position = self.current
            if kind == "-":
                raise ParseError("negative exponent", position)
            if kind != "number" or "/" in text:
                raise ParseError("expected a natural-number exponent", position)
            self.advance()
            exponent = parse_int(text, position)
            reason = _power_too_large(base, exponent)
            if reason:
                raise ParseError(reason, position)
            return base ** exponent
        return base

    def base(self) -> Polynomial:
        kind, text, position = self.advance()
        if kind == "number":
            if "/" in text:
                if self.coeff_kind == INT:
                    raise ParseError(
                        "rational literal not allowed over integer coefficients",
                        position,
                    )
                numerator, denominator = text.split("/")
                denominator = parse_int(denominator, position)
                if denominator == 0:
                    raise ParseError("zero denominator", position)
                value: int | Fraction = Fraction(parse_int(numerator, position), denominator)
            else:
                value = parse_int(text, position)
            return Polynomial.constant(value, self.variables, self.coeff_kind)
        if kind == "name":
            if text not in self.variables:
                raise ParseError(f"unknown variable {excerpt(text)}", position)
            return Polynomial.variable(text, self.variables, self.coeff_kind)
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING} levels", position
                )
            value = self.expr()
            kind, _, position = self.current
            if kind != ")":
                raise ParseError("expected ')'", position)
            self.advance()
            self.depth -= 1
            return value
        raise ParseError(
            "expected a literal, variable, or parenthesized expression", position
        )


_INT_LITERAL = re.compile(r"[+-]?\d+\Z")


def regex_integer_from_text(text: str) -> int:
    """``ZZ.element_from_text`` as it was: the stripped text must match
    ``[+-]?\\d+\\Z`` before ``parse_int`` reads it."""
    if not _INT_LITERAL.match(text.strip()):
        raise ParseError(f"malformed integer literal {excerpt(text)}", 0)
    return parse_int(text)


def two_array_hermite_normal_form(matrix):
    """``lattice.hermite_normal_form`` as it was, for a valid integer matrix:
    the columns of H and of the transform U are kept in two arrays, and every
    column operation updates both through its own closure."""
    rows = [list(row) for row in matrix]
    n_rows, n_cols = len(rows), len(rows[0])
    cols = [[rows[i][j] for i in range(n_rows)] for j in range(n_cols)]
    transform = [
        [1 if i == j else 0 for i in range(n_cols)] for j in range(n_cols)
    ]

    def add_multiple(target: int, source: int, factor: int) -> None:
        tc, sc = cols[target], cols[source]
        for i in range(n_rows):
            tc[i] += factor * sc[i]
        tu, su = transform[target], transform[source]
        for i in range(n_cols):
            tu[i] += factor * su[i]

    def swap(a: int, b: int) -> None:
        cols[a], cols[b] = cols[b], cols[a]
        transform[a], transform[b] = transform[b], transform[a]

    def negate(target: int) -> None:
        cols[target] = [-x for x in cols[target]]
        transform[target] = [-x for x in transform[target]]

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
        active = [j for j in range(pivot, n_cols) if cols[j][row]]
        if not active:
            continue
        if active[0] != pivot:
            swap(active[0], pivot)
        if cols[pivot][row] < 0:
            negate(pivot)
        for j in range(pivot):
            quotient = cols[j][row] // cols[pivot][row]
            if quotient:
                add_multiple(j, pivot, -quotient)
        pivot += 1

    hnf = [[cols[j][i] for j in range(n_cols)] for i in range(n_rows)]
    unimodular = [[transform[j][i] for j in range(n_cols)] for i in range(n_cols)]
    return hnf, unimodular


def two_array_kernel_basis(matrix):
    """``lattice.kernel_basis`` on ``two_array_hermite_normal_form``: the
    transform columns over zero columns of H."""
    hnf, transform = two_array_hermite_normal_form(matrix)
    n_cols = len(hnf[0])
    return [[transform[i][j] for i in range(n_cols)] for j in range(n_cols)
            if all(row[j] == 0 for row in hnf)]


def breadth_first_is_connected(vertex_count, pairs):
    """``graphs.is_connected`` as it was: adjacency lists built from every
    pair, then a search from vertex 0."""
    if vertex_count <= 1:
        return True
    adjacency: dict[int, list[int]] = {i: [] for i in range(vertex_count)}
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    queue = [0]
    while queue:
        node = queue.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == vertex_count


def filtered_monomials_up_to(nvars, max_degree):
    """Every exponent tuple of total degree at most ``max_degree``, grlex order,
    from all ``(max_degree + 1) ** nvars`` tuples, filtered and sorted."""
    out = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=nvars)
        if sum(e) <= max_degree
    ]
    out.sort(key=lambda e: (sum(e), e))
    return out


def leading_entry_ideals(variables, n, edges):
    """Generators of each I_i, as sympy expressions, for the graph on vertices
    0..n-1 with ``edges`` (u, v, label) over QQ[variables], each label a sympy
    expression. Needs sympy, which the caller skips on.

    I_i is the ideal of entries at vertex i of splines that are zero at every
    vertex before i. The splines are the vertex coordinates of the syzygies
    of the columns of [d | -diag(labels)], d the signed E x n incidence
    matrix: f_u - f_v = label * q_e on each edge e. Those in the span of
    e_i, ..., e_{n-1} are the syzygies of the columns of vertices i..n-1 and
    of the labels, which is how they are computed here: intersecting the
    whole module with that span gives the same ideals, in about three times
    the time. Their coordinates at vertex i generate I_i.

    I_0 is the whole ring, generated by 1: the constant spline has entry 1
    at vertex 0. Its syzygy module, the largest of them, is not built.
    """
    from sympy import QQ, symbols

    ring = QQ.old_poly_ring(*symbols(variables))
    incidence = [[1 if u == i else -1 if v == i else 0 for u, v, _ in edges] for i in range(n)]
    scaled = [[-label if j == k else 0 for j in range(len(edges))]
              for k, (_, _, label) in enumerate(edges)]
    module = ring.free_module(len(edges))
    ideals = [[ring.to_sympy(ring.one)]]
    for i in range(1, n):
        syzygies = module.submodule(*incidence[i:], *scaled).syzygy_module()
        ideals.append([ring.to_sympy(g[0]) for g in syzygies.gens if g[0]])
    return ideals
