"""Sparse multivariate polynomials with exact integer or rational coefficients.

Polynomials live in a fixed ordered variable set and carry their coefficient
kind (``"int"`` for arbitrary-precision integers, ``"rat"`` for rationals).
Terms are kept in a map from exponent tuples to nonzero coefficients, and the
term order everywhere is graded lexicographic in the declared variable order.
Multiplication and exact division of both kinds run on one integer kernel
with packed exponents and a heap-ordered remainder; rational operands are
scaled to integers at its boundary.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import ParseError, RingMismatchError, excerpt

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
                clean[exponents] = clean.get(exponents, 0) + coefficient
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

    # A missing term counts as the int 0, which the coefficient kind absorbs:
    # 0 + Fraction is a Fraction.

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _raw(self.variables, self.coeff_kind, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(
            self.variables, self.coeff_kind, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _raw(self.variables, self.coeff_kind, out)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        a, a_denominator = _integer_scaled(self)
        b, b_denominator = _integer_scaled(other)
        product = _mul_int(a.terms, b.terms, len(self.variables))
        return _from_int(self, product, 1, a_denominator * b_denominator)

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
# polynomials such as "-x" round-trip. Nesting depth and the size of a power
# are capped (below), so a short label cannot make the parser run away.
# ---------------------------------------------------------------------------

# Each parenthesis level costs four Python frames of recursion; deeper input
# is rejected as a ParseError long before it could exhaust the interpreter's
# recursion limit.
_MAX_NESTING = 100
# A power whose term count could exceed this is rejected as a ParseError
# before it is expanded: "(x+y+1)^200" is 12 characters, but expanding it
# would take minutes.
_MAX_POWER_TERMS = 1000
# So is a power whose coefficients could grow past about this many bits:
# "3^10000000" would take seconds to build. The cap stays below the 4300
# digits Python converts to and from text, so every accepted power prints.
_MAX_POWER_BITS = 1 << 13


def _power_too_large(base: Polynomial, exponent: int) -> str | None:
    """Why ``base ** exponent`` is too large to expand, or None if it is not.

    Its term count is at most the smaller of the number of monomials of
    degree at most ``exponent * deg(base)`` in k variables and the number of
    multisets of ``exponent`` of the base's terms. Its coefficients grow by
    about ``exponent`` times the bits of the base's largest numerator or
    denominator; a coefficient of magnitude 1 counts as 0 bits, so powers of
    monomials such as ``x^1000000`` stay legal.
    """
    bits = max(
        ((max(abs(c.numerator), c.denominator) - 1).bit_length() for c in base.terms.values()),
        default=0,
    )
    if exponent * bits > _MAX_POWER_BITS:
        return f"power could have coefficients of more than {_MAX_POWER_BITS} bits"
    count = len(base.terms)
    if count <= 1 or exponent <= 1:
        return None
    terms = f"power could expand to more than {_MAX_POWER_TERMS} terms"
    if exponent > _MAX_POWER_TERMS:
        return terms  # both counts exceed the exponent; skip the huge binomials
    k = len(base.variables)
    bound = min(
        math.comb(exponent * base.total_degree() + k, k),
        math.comb(exponent + count - 1, count - 1),
    )
    return terms if bound > _MAX_POWER_TERMS else None


def parse_int(digits: str, position: int = 0) -> int:
    """``int(digits)``, with a literal too long for Python to convert as a ParseError.

    Python refuses to convert more than ``sys.get_int_max_str_digits()``
    digits (4300 by default); that limit is kept, not raised.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal too long: {excerpt(digits)}", position) from None


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


def parse_polynomial(text: str, variables, coeff_kind: str) -> Polynomial:
    """Parse an edge-label expression into canonical sparse form."""
    return _Parser(_tokenize(text), variables, coeff_kind).parse()


# ---------------------------------------------------------------------------
# Integer kernel: multiplication and exact division
#
# Both coefficient kinds share one kernel on int coefficients. A RAT operand
# is scaled to integers at the boundary (``_integer_scaled``), and the
# result's Fractions are built once per output term (``_from_int``).
#
# Following Monagan and Pearce (2007, "Polynomial division using dynamic
# arrays, heaps, and packed exponent vectors"), an exponent tuple is packed
# into one int: the total degree in the top field, then the exponents in
# variable order. Every field is one guard bit wider than the largest degree
# the operation can reach, so integer order on packed monomials is grlex, a
# monomial product is one addition, and a monomial quotient is one
# subtraction that leaves every guard bit clear exactly when it divides (the
# lowest field that borrows sets its own guard bit). Division keeps the
# remainder in a dict and its monomials in a max-heap: each step pops the
# largest one instead of scanning the whole remainder. A term that cancels
# stays in the dict as 0 until its heap entry is popped and skipped, so every
# monomial enters the heap once.
# ---------------------------------------------------------------------------


def _packing(nvars: int, degree: int):
    """(pack, unpack, guard bits) for monomials of total degree at most ``degree``."""
    width = degree.bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(width * (nvars - 1), -1, -width)
    guard = sum(1 << (width * field + width - 1) for field in range(nvars + 1))

    def pack(exponents):
        packed = sum(exponents)
        for e in exponents:
            packed = (packed << width) | e
        return packed

    def unpack(packed):
        return tuple([(packed >> shift) & mask for shift in shifts])

    return pack, unpack, guard


def _mul_int(a: dict, b: dict, nvars: int) -> dict:
    """Product of two integer term maps."""
    if not a or not b:
        return {}
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        # a one-term factor (often a constant) only shifts the exponents
        ((shift, d),) = b.items()
        if not any(shift):
            return {e: c * d for e, c in a.items()}
        return {tuple([x + y for x, y in zip(e, shift)]): c * d for e, c in a.items()}
    pack, unpack, _ = _packing(nvars, max(map(sum, a)) + max(map(sum, b)))
    packed_b = [(pack(e), c) for e, c in b.items()]
    out: dict[int, int] = {}
    get = out.get
    for e, c in a.items():
        m = pack(e)
        for p, d in packed_b:
            key = m + p
            out[key] = get(key, 0) + c * d
    return {unpack(m): c for m, c in out.items() if c}


def _divide_int(numerator: dict, denominator: dict, nvars: int) -> dict | None:
    """Quotient of two nonzero integer term maps, or None if it is not exact."""
    degree = max(map(sum, numerator))
    if max(map(sum, denominator)) > degree:
        return None
    pack, unpack, guard = _packing(nvars, degree)
    divisor = sorted(((pack(e), c) for e, c in denominator.items()), reverse=True)
    (lead, lead_coefficient), rest = divisor[0], divisor[1:]
    remainder = {pack(e): c for e, c in numerator.items()}
    heap = [-m for m in remainder]
    heapq.heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        m = -heapq.heappop(heap)
        c = remainder.pop(m)
        if not c:
            continue
        shift = m - lead
        if shift & guard:
            return None  # the leading monomial does not divide
        q, r = divmod(c, lead_coefficient)
        if r:
            return None  # the leading coefficient does not divide
        quotient[shift] = q
        for p, d in rest:
            key = shift + p  # below m in grlex, so never a popped monomial
            s = remainder.get(key)
            if s is None:
                remainder[key] = -q * d
                heapq.heappush(heap, -key)
            else:
                remainder[key] = s - q * d
    return {unpack(m): c for m, c in quotient.items()}


def _from_int(like: Polynomial, terms: dict, numerator: int, denominator: int) -> Polynomial:
    """An integer term map times numerator/denominator, in the ring of ``like``.

    Over INT the scale is always 1 and the map is taken as is.
    """
    if like.coeff_kind == INT:
        return _raw(like.variables, INT, terms)
    return _raw(
        like.variables,
        RAT,
        {e: Fraction(c * numerator, denominator) for e, c in terms.items()},
    )


def exact_divide(numerator: Polynomial, denominator: Polynomial) -> Polynomial | None:
    """Quotient q with denominator*q == numerator, or None if no such q exists.

    Multivariate division by the single divisor under graded-lex leading
    terms; any step whose leading monomial or (over INT) leading coefficient
    fails to divide certifies non-divisibility.

    Over RAT both operands are scaled to integer coefficients and the
    divisor is made primitive. By Gauss's lemma a primitive integer divisor
    that divides an integer numerator over QQ leaves an integer quotient, so
    the integer division succeeds exactly when the rational one does, and a
    failed leading-coefficient step certifies non-divisibility over QQ too.
    """
    numerator._check_compatible(denominator)
    if denominator.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if numerator.is_zero():
        return numerator
    n, n_denominator = _integer_scaled(numerator)
    d, d_denominator = _integer_scaled(denominator)
    if numerator.coeff_kind == RAT:
        # numerator / denominator = (n / d) * d_denominator / (n_denominator * content)
        content = _int_content(d)
        d = _ground_quotient(d, content)
        n_denominator *= content
    quotient = _divide_int(n.terms, d.terms, len(numerator.variables))
    if quotient is None:
        return None
    return _from_int(numerator, quotient, d_denominator, n_denominator)


# ---------------------------------------------------------------------------
# GCD
#
# Rational-coefficient inputs are scaled to integer coefficients first and
# the result is returned monic. Over the integers the heuristic gcd GCDHEU
# (Char, Geddes and Gonnet 1989) runs first: evaluate the last variable at a
# large integer xi, take the gcd of the images (recursively, down to integer
# gcds), rebuild a candidate from the xi-adic digits of that image gcd, and
# accept its primitive part only if it divides both inputs. With xi at least
# 2*min(|a|, |b|) + 2 in the max norm of the primitive inputs, passing that
# check proves the candidate is the gcd (Geddes, Czapor and Labahn,
# *Algorithms for Computer Algebra*, Thm 7.7). When the heuristic gives up,
# the fallback views the polynomials as univariate in the last variable with
# coefficients in the smaller ring, splits off contents, and runs Brown's
# subresultant remainder sequence on the primitive parts.
# ---------------------------------------------------------------------------

# Evaluation points the heuristic tries before it gives up.
_HEU_GCD_TRIES = 6
# The heuristic also gives up when an evaluated image could need more bits
# than this (bits of xi times the degree in the evaluated variable), so a
# label like x^1000000 never turns into a million-digit integer.
_HEU_GCD_MAX_BITS = 1 << 16


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Normalized greatest common divisor (monic over RAT, positive over INT).

    Computed by the heuristic gcd with the subresultant PRS as its fallback;
    both give the same normalized gcd.
    """
    a._check_compatible(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.coeff_kind == INT:
        return _gcd_int(a, b)
    g = _gcd_int(_integer_scaled(a)[0], _integer_scaled(b)[0])
    return Polynomial(
        a.variables, RAT, {e: Fraction(c) for e, c in g.terms.items()}
    ).normalized()


def _integer_scaled(p: Polynomial) -> tuple[Polynomial, int]:
    """``p`` times the lcm of its denominators, as an INT polynomial, and that lcm.

    An INT polynomial comes back as itself with lcm 1.
    """
    if p.coeff_kind == INT:
        return p, 1
    # pairwise, not math.lcm(*generator): unpacking a generator grows a
    # tuple by resizing and frees it onto the free list of its final
    # length, which left about 1 MiB of idle tuples in a long process
    denominator = 1
    for c in p.terms.values():
        denominator = math.lcm(denominator, c.denominator)
    scaled = {e: c.numerator * (denominator // c.denominator) for e, c in p.terms.items()}
    return _raw(p.variables, INT, scaled), denominator


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
    heuristic = _heu_gcd(a, b)
    if heuristic is not None:
        return heuristic

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


def _heu_gcd(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """Normalized gcd of nonzero INT polynomials by GCDHEU, or None if it gives up."""
    content_a, content_b = _int_content(a), _int_content(b)
    content = math.gcd(content_a, content_b)
    if not a.variables:
        return _raw((), INT, {(): content})
    a, b = _ground_quotient(a, content_a), _ground_quotient(b, content_b)
    degree = max(e[-1] for p in (a, b) for e in p.terms)
    # sympy's dmp_zz_heu_gcd may start below this bound, at min(B, 99*sqrt(B))
    # with B = 2*min(|a|, |b|) + 29; below it the divisibility check proves
    # nothing, so every xi here is at least B
    xi = 2 * min(_max_norm(a), _max_norm(b)) + 29
    for _ in range(_HEU_GCD_TRIES):
        if xi.bit_length() * degree > _HEU_GCD_MAX_BITS:
            return None
        image_a, image_b = _evaluate_last(a, xi), _evaluate_last(b, xi)
        if image_a and image_b:
            image_gcd = _heu_gcd(image_a, image_b)
            if image_gcd is None:
                return None
            candidate = _interpolate_last(image_gcd, xi, a.variables)
            candidate = _ground_quotient(candidate, _int_content(candidate))
            if all(exact_divide(p, candidate) is not None for p in (a, b)):
                return (candidate * content).normalized()
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _ground_quotient(p: Polynomial, divisor: int) -> Polynomial:
    """Divide every coefficient by an integer that divides them all."""
    return _raw(p.variables, INT, {e: c // divisor for e, c in p.terms.items()})


def _max_norm(p: Polynomial) -> int:
    return max(abs(c) for c in p.terms.values())


def _evaluate_last(p: Polynomial, xi: int) -> Polynomial:
    """Set the last variable to xi; the image lives in the ring without it."""
    powers: dict[int, int] = {}
    image: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        if e[-1] not in powers:
            powers[e[-1]] = xi ** e[-1]
        image[e[:-1]] = image.get(e[:-1], 0) + c * powers[e[-1]]
    return _raw(p.variables[:-1], INT, {e: c for e, c in image.items() if c})


def _interpolate_last(image: Polynomial, xi: int, variables) -> Polynomial:
    """Inverse of evaluation at xi for coefficients smaller than xi/2.

    The symmetric xi-adic digits of each coefficient (each in (-xi/2, xi/2])
    become the coefficients of the powers of the last variable.
    """
    terms: dict[tuple[int, ...], int] = {}
    for e, c in image.terms.items():
        power = 0
        while c:
            c, digit = divmod(c, xi)
            if digit > xi // 2:
                digit -= xi
                c += 1
            if digit:
                terms[e + (power,)] = digit
            power += 1
    return _raw(tuple(variables), INT, terms)


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
