"""Sparse multivariate polynomials with exact integer or rational coefficients.

Polynomials live in a fixed ordered variable set and carry their coefficient
kind (``"int"`` for arbitrary-precision integers, ``"rat"`` for rationals).
Terms are kept in a map from exponent tuples to nonzero coefficients, and the
term order everywhere is graded lexicographic in the declared variable order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError, RingMismatchError

INT = "int"
RAT = "rat"


def _grlex_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exponents), exponents)


class Polynomial:
    """Immutable sparse polynomial.

    The zero polynomial has an empty term map; no zero coefficient is ever
    stored. Instances compare equal iff they have the same variables, the
    same coefficient kind, and identical term maps.
    """

    __slots__ = ("variables", "coeff_kind", "terms")

    def __init__(self, variables, coeff_kind, terms):
        variables = tuple(variables)
        if coeff_kind not in (INT, RAT):
            raise ValueError(f"unknown coefficient kind {coeff_kind!r}")
        nvars = len(variables)
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exponents, coefficient in terms.items():
            exponents = tuple(exponents)
            if len(exponents) != nvars or any(
                e < 0 or not isinstance(e, int) for e in exponents
            ):
                raise ValueError(f"bad exponent vector {exponents!r}")
            coefficient = _coerce_coefficient(coefficient, coeff_kind)
            if coefficient:
                clean[exponents] = clean.get(exponents, _zero_of(coeff_kind)) + coefficient
                if not clean[exponents]:
                    del clean[exponents]
        self.variables = variables
        self.coeff_kind = coeff_kind
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, coeff_kind) -> "Polynomial":
        return cls(variables, coeff_kind, {})

    @classmethod
    def constant(cls, value, variables, coeff_kind) -> "Polynomial":
        zero_exp = (0,) * len(tuple(variables))
        return cls(variables, coeff_kind, {zero_exp: value})

    @classmethod
    def variable(cls, name, variables, coeff_kind) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, coeff_kind, {exp: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self):
        value = self.terms.get((0,) * len(self.variables))
        if value is None:
            return _zero_of(self.coeff_kind)
        return value

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_exponent(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_exponent()]

    def is_unit(self) -> bool:
        """Invertible element test: +-1 over INT, any nonzero constant over RAT."""
        if not self.is_constant() or self.is_zero():
            return False
        value = self.constant_term()
        if self.coeff_kind == INT:
            return value in (1, -1)
        return bool(value)

    def normalized(self) -> "Polynomial":
        """Canonical associate: positive leading coefficient over INT, monic over RAT."""
        if self.is_zero():
            return self
        lc = self.leading_coefficient()
        if self.coeff_kind == INT:
            return -self if lc < 0 else self
        if lc == 1:
            return self
        return Polynomial(
            self.variables,
            self.coeff_kind,
            {e: c / lc for e, c in self.terms.items()},
        )

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.variables != other.variables or self.coeff_kind != other.coeff_kind:
            raise RingMismatchError(
                f"polynomials live in different rings: "
                f"{self.coeff_kind}[{','.join(self.variables)}] vs "
                f"{other.coeff_kind}[{','.join(other.variables)}]"
            )

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return other
        return Polynomial.constant(other, self.variables, self.coeff_kind)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _zero_of(self.coeff_kind)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _raw(self.variables, self.coeff_kind, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(
            self.variables, self.coeff_kind, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _zero_of(self.coeff_kind)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _raw(self.variables, self.coeff_kind, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial.constant(1, self.variables, self.coeff_kind)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
                try:
                    constant = Polynomial.constant(
                        other, self.variables, self.coeff_kind
                    )
                except RingMismatchError:
                    return False
                return self == constant
            return NotImplemented
        return (
            self.variables == other.variables
            and self.coeff_kind == other.coeff_kind
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, self.coeff_kind, frozenset(self.terms.items())))

    # -- evaluation --------------------------------------------------------

    def substitute(self, assignments):
        """Exact evaluation at the given variable assignments.

        Every variable of the ring must be assigned an int or Fraction.
        """
        missing = [v for v in self.variables if v not in assignments]
        if missing:
            raise ValueError(f"missing assignment for {missing[0]!r}")
        for name in self.variables:
            value = assignments[name]
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ValueError(f"assignment for {name!r} must be an int or Fraction")
        total = _zero_of(self.coeff_kind)
        for exponents, coefficient in self.terms.items():
            term = coefficient
            for name, power in zip(self.variables, exponents):
                if power:
                    term *= assignments[name] ** power
            total += term
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exponents in sorted(self.terms, key=_grlex_key, reverse=True):
            coefficient = self.terms[exponents]
            body = _term_text(self.variables, exponents, abs(coefficient))
            if not pieces:
                pieces.append(f"-{body}" if coefficient < 0 else body)
            else:
                pieces.append(f"- {body}" if coefficient < 0 else f"+ {body}")
        return " ".join(pieces)

    __repr__ = __str__


def _zero_of(coeff_kind):
    return 0 if coeff_kind == INT else Fraction(0)


def _coerce_coefficient(value, coeff_kind):
    if isinstance(value, bool):
        raise RingMismatchError("bool is not a valid coefficient")
    if coeff_kind == INT:
        if not isinstance(value, int):
            raise RingMismatchError(f"{value!r} is not an integer coefficient")
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise RingMismatchError(f"{value!r} is not a rational coefficient")


def _raw(variables, coeff_kind, terms) -> Polynomial:
    """Build from an already-clean term map, skipping validation."""
    p = Polynomial.__new__(Polynomial)
    p.variables = variables
    p.coeff_kind = coeff_kind
    p.terms = terms
    return p


def _term_text(variables, exponents, magnitude) -> str:
    monomial = "*".join(
        name if power == 1 else f"{name}^{power}"
        for name, power in zip(variables, exponents)
        if power
    )
    if not monomial:
        return str(magnitude)
    if magnitude == 1:
        return monomial
    return f"{magnitude}*{monomial}"


# ---------------------------------------------------------------------------
# Parsing
#
# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' natural)?
# base   := literal | variable | '(' expr ')'
#
# Literals are decimal integers or rationals "p/q"; juxtaposition is not
# multiplication ("2x" is rejected). The optional leading sign on an
# expression is a strict extension of the base grammar so that printed
# polynomials such as "-x" round-trip.
# ---------------------------------------------------------------------------

# Each parenthesis level costs four Python frames of recursion; deeper input
# is rejected as a ParseError long before it could exhaust the interpreter's
# recursion limit.
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
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
            raise ParseError(f"unexpected trailing input {text!r}", position)
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
            return base ** int(text)
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
                if int(denominator) == 0:
                    raise ParseError("zero denominator", position)
                value: int | Fraction = Fraction(int(numerator), int(denominator))
            else:
                value = int(text)
            return Polynomial.constant(value, self.variables, self.coeff_kind)
        if kind == "name":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", position)
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


def parse_polynomial(text: str, variables, coeff_kind: str) -> Polynomial:
    """Parse an edge-label expression into canonical sparse form."""
    return _Parser(_tokenize(text), variables, coeff_kind).parse()


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def exact_divide(numerator: Polynomial, denominator: Polynomial) -> Polynomial | None:
    """Quotient q with denominator*q == numerator, or None if no such q exists.

    Multivariate division by the single divisor under graded-lex leading
    terms; any step whose leading monomial or (over INT) leading coefficient
    fails to divide certifies non-divisibility.
    """
    numerator._check_compatible(denominator)
    if denominator.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    kind = numerator.coeff_kind
    if numerator.is_zero():
        return numerator
    lt_exp = denominator.leading_exponent()
    lt_coef = denominator.leading_coefficient()
    remainder = dict(numerator.terms)
    quotient: dict[tuple[int, ...], int | Fraction] = {}
    while remainder:
        exp = max(remainder, key=_grlex_key)
        coef = remainder[exp]
        diff = tuple(a - b for a, b in zip(exp, lt_exp))
        if any(d < 0 for d in diff):
            return None
        if kind == INT:
            if coef % lt_coef:
                return None
            qc = coef // lt_coef
        else:
            qc = coef / lt_coef
        quotient[diff] = qc
        for de, dc in denominator.terms.items():
            me = tuple(a + b for a, b in zip(diff, de))
            s = remainder.get(me, _zero_of(kind)) - qc * dc
            if s:
                remainder[me] = s
            else:
                remainder.pop(me, None)
    return _raw(numerator.variables, kind, quotient)


# ---------------------------------------------------------------------------
# GCD
#
# Recursive on the number of variables: view the polynomial as univariate in
# the last declared variable with coefficients in the smaller polynomial
# ring, split off contents, and run Brown's subresultant remainder sequence
# on the primitive parts. Rational-coefficient inputs are scaled to integer
# coefficients first and the result is returned monic.
# ---------------------------------------------------------------------------


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Normalized greatest common divisor (monic over RAT, positive over INT)."""
    a._check_compatible(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.coeff_kind == INT:
        return _gcd_int(a, b)
    g = _gcd_int(_integer_scaled(a), _integer_scaled(b))
    return Polynomial(
        a.variables, RAT, {e: Fraction(c) for e, c in g.terms.items()}
    ).normalized()


def _integer_scaled(p: Polynomial) -> Polynomial:
    """Unit-rescale of a RAT polynomial with integer coefficients."""
    denominator = math.lcm(*(c.denominator for c in p.terms.values())) if p.terms else 1
    return _raw(
        p.variables,
        INT,
        {e: int(c * denominator) for e, c in p.terms.items()},
    )


def _int_content(p: Polynomial) -> int:
    g = 0
    for c in p.terms.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _gcd_int(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    if a.is_constant() or b.is_constant():
        return Polynomial.constant(
            math.gcd(_int_content(a), _int_content(b)), a.variables, INT
        )
    if a.terms == b.terms:
        return a.normalized()

    uni_a = _split_last(a)
    uni_b = _split_last(b)
    sub_vars = a.variables[:-1]
    content_a = _coef_content(uni_a, sub_vars)
    content_b = _coef_content(uni_b, sub_vars)
    content = _gcd_int(content_a, content_b)
    prim_a = {d: exact_divide(c, content_a) for d, c in uni_a.items()}
    prim_b = {d: exact_divide(c, content_b) for d, c in uni_b.items()}
    prim_gcd = _subresultant_gcd(prim_a, prim_b, sub_vars)
    scaled = {d: c * content for d, c in prim_gcd.items()}
    return _join_last(a.variables, scaled).normalized()


def _split_last(p: Polynomial) -> dict[int, Polynomial]:
    """View as univariate in the last variable; coefficients drop that variable."""
    sub_vars = p.variables[:-1]
    buckets: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[-1], {})[e[:-1]] = c
    return {d: _raw(sub_vars, p.coeff_kind, t) for d, t in buckets.items()}


def _join_last(variables, univariate: dict[int, Polynomial]) -> Polynomial:
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for degree, coefficient in univariate.items():
        for e, c in coefficient.terms.items():
            terms[e + (degree,)] = c
    return _raw(tuple(variables), INT, terms)


def _coef_content(univariate: dict[int, Polynomial], sub_vars) -> Polynomial:
    content = Polynomial.zero(sub_vars, INT)
    one = Polynomial.constant(1, sub_vars, INT)
    for degree in sorted(univariate):
        content = _gcd_int(content, univariate[degree])
        if content == one:
            break
    return content


def _uni_degree(f: dict[int, Polynomial]) -> int:
    return max(f) if f else -1


def _uni_prem(f: dict[int, Polynomial], g: dict[int, Polynomial]):
    """Pseudo-remainder of univariate polynomials with polynomial coefficients."""
    df, dg = _uni_degree(f), _uni_degree(g)
    remainder = dict(f)
    if df < dg:
        return remainder
    lc_g = g[dg]
    steps = df - dg + 1
    while remainder:
        dr = max(remainder)
        if dr < dg:
            break
        lc_r = remainder[dr]
        shift = dr - dg
        updated: dict[int, Polynomial] = {}
        for d, c in remainder.items():
            updated[d] = c * lc_g
        for d, c in g.items():
            t = d + shift
            s = updated.get(t)
            s = -(lc_r * c) if s is None else s - lc_r * c
            if s:
                updated[t] = s
            else:
                updated.pop(t, None)
        remainder = updated
        steps -= 1
    if steps > 0 and remainder:
        factor = lc_g ** steps
        remainder = {d: c * factor for d, c in remainder.items()}
    return remainder


def _exact_coef_div(value: Polynomial, divisor: Polynomial) -> Polynomial:
    q = exact_divide(value, divisor)
    if q is None:
        raise ArithmeticError("subresultant scaling division was not exact")
    return q


def _subresultant_gcd(f, g, sub_vars) -> dict[int, Polynomial]:
    """Primitive gcd of two primitive univariate polynomials (Brown's PRS)."""
    if _uni_degree(f) < _uni_degree(g):
        f, g = g, f
    n, m = _uni_degree(f), _uni_degree(g)
    one = Polynomial.constant(1, sub_vars, INT)

    d = n - m
    h = _uni_prem(f, g)
    if (d + 1) % 2 == 1:  # scale by (-1)^(d+1)
        h = {deg: -c for deg, c in h.items()}
    lc = g[m]
    c = -(lc ** d)
    last = g
    while h:
        k = _uni_degree(h)
        last = h
        f, g, m, d = g, h, k, m - k
        b = (-lc) * (c ** d)
        h = _uni_prem(f, g)
        h = {deg: _exact_coef_div(coef, b) for deg, coef in h.items()}
        lc = g[_uni_degree(g)]
        if d > 1:
            c = _exact_coef_div((-lc) ** d, c ** (d - 1))
        else:
            c = -lc

    if _uni_degree(last) == 0:
        return {0: one}
    content = _coef_content(last, sub_vars)
    return {deg: exact_divide(coef, content) for deg, coef in last.items()}
