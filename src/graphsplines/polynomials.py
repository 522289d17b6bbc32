"""Sparse multivariate polynomials with exact integer or rational coefficients.

Polynomials live in a fixed ordered variable set and carry their coefficient
kind (``"int"`` for arbitrary-precision integers, ``"rat"`` for rationals),
and the term order everywhere is graded lexicographic in the declared
variable order.

A polynomial is stored packed: a map from packed monomials (one int per
exponent vector, see "Packed storage" below) to integer numerators, plus one
positive common denominator, which is always 1 over the integers. Addition,
multiplication and exact division work on these maps directly and build
their results in packed form. The packed map is the only stored form: the
public view ``terms``, a map from exponent tuples to ``int`` or ``Fraction``
coefficients, is built from it anew on every read.

The package loads this module lazily: it runs when a polynomial ring is
built or a polynomial name is first read, never on an integer graph. The
decimal text of numbers (``number_text``) and the reading of integer
literals (``parse_int``) belong to the integer rings, in ``rings``; they are
imported from there.
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction

from .errors import ParseError, RingMismatchError, excerpt
from .rings import number_text, parse_int

INT = "int"
RAT = "rat"


# ---------------------------------------------------------------------------
# Packed storage
#
# Following Monagan and Pearce (2007, "Polynomial division using dynamic
# arrays, heaps, and packed exponent vectors"), an exponent tuple is packed
# into one int: the total degree in the top field, then the exponents in
# variable order. Each polynomial has one field width, at least _MIN_WIDTH
# bits, and the top bit of every field is a guard bit that is clear in every
# stored monomial. So integer order on packed monomials is grlex, a monomial
# product is one addition, and a monomial quotient is one subtraction that
# leaves every guard bit clear exactly when it divides (the lowest field
# that borrows sets its own guard bit; a smaller total degree makes the
# difference negative).
#
# The coefficients are integer numerators over one positive denominator.
# Over RAT the denominator and the numerators have no common factor, so a
# rational polynomial has exactly one stored form at a given width: it is
# the lcm of the coefficients' reduced denominators. Every polynomial that
# Polynomial.__init__ does not build is built by _make, which makes that
# form: it divides once by math.gcd(denominator, *numerators), and over INT,
# where the denominator is always 1, it takes no gcd.
#
# A result is repacked at a wider field only when its total degree would
# reach its guard bit: below 2**(_MIN_WIDTH - 1) that never happens, and a
# label like x^1000000 simply lives at a wider field. A result whose degree
# drops keeps its width, so two equal polynomials can be stored at different
# widths: __eq__ and __hash__ both read _key, which is a constant's value
# and, for any other polynomial, its numerators repacked at the width its
# total degree alone calls for.
#
# ``terms`` unpacks the whole map and builds every Fraction, so no code in
# the package reads it (tests/test_source.py checks this); the linear
# systems and the triangle's residues in search.py read the packed numerators
# through ``packed_numerators``. Only callers outside the package use
# ``terms``.
# ---------------------------------------------------------------------------

# Bits per packed field, guard bit included.
_MIN_WIDTH = 16


def _width_for(degree: int) -> int:
    """Field width that holds total degree ``degree`` below its guard bit."""
    return max(_MIN_WIDTH, degree.bit_length() + 1)


def _pack(exponents, width: int) -> int:
    packed = sum(exponents)
    for e in exponents:
        packed = (packed << width) | e
    return packed


def _unpacker(nvars: int, width: int):
    """The function mapping a packed monomial to its exponent tuple."""
    mask = (1 << width) - 1
    shifts = range(width * (nvars - 1), -1, -width)
    return lambda packed: tuple([(packed >> shift) & mask for shift in shifts])


def _guard_bits(nvars: int, width: int) -> int:
    """The guard bit of every field, the total-degree field included."""
    fields = (1 << (width * (nvars + 1))) - 1
    return fields // ((1 << width) - 1) << (width - 1)


class Polynomial:
    """Immutable sparse polynomial.

    The zero polynomial has no terms; no zero coefficient is ever stored.
    A constant polynomial equals, and hashes as, its value: every constant,
    ``int`` or ``Fraction`` (not a ``bool``) of that value, over any
    variables and either coefficient kind. Other instances compare equal
    iff they have the same variables, the same coefficient kind, and the
    same coefficients on the same monomials. So ``==`` is an equivalence
    relation and equal instances hash alike.
    """

    __slots__ = ("variables", "coeff_kind", "_packed", "_den", "_width")

    def __init__(self, variables, coeff_kind, terms):
        variables = tuple(variables)
        _check_kind(coeff_kind)
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
        width = _width_for(max(map(sum, clean), default=0))
        packed, den = _numerators({_pack(e, width): c for e, c in clean.items()}, coeff_kind)
        self.variables = variables
        self.coeff_kind = coeff_kind
        self._packed = packed
        self._den = den
        self._width = width

    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """Map from exponent tuples to nonzero ``int`` or ``Fraction`` coefficients.

        A new dict on every read: changing it does not change the polynomial.
        """
        unpack = _unpacker(len(self.variables), self._width)
        if self.coeff_kind == INT:
            return {unpack(m): c for m, c in self._packed.items()}
        den = self._den
        return {unpack(m): Fraction(c, den) for m, c in self._packed.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, coeff_kind) -> "Polynomial":
        _check_kind(coeff_kind)
        return _make(tuple(variables), coeff_kind, {}, 1, _MIN_WIDTH)

    @classmethod
    def constant(cls, value, variables, coeff_kind) -> "Polynomial":
        _check_kind(coeff_kind)
        value = _coerce_coefficient(value, coeff_kind)
        packed = {0: value.numerator} if value else {}
        return _make(tuple(variables), coeff_kind, packed, value.denominator, _MIN_WIDTH)

    @classmethod
    def variable(cls, name, variables, coeff_kind) -> "Polynomial":
        _check_kind(coeff_kind)
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        nvars = len(variables)
        packed = 1 << (_MIN_WIDTH * nvars) | 1 << (
            _MIN_WIDTH * (nvars - 1 - variables.index(name))
        )
        return _make(variables, coeff_kind, {packed: 1}, 1, _MIN_WIDTH)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self) -> bool:
        return bool(self._packed)

    def is_constant(self) -> bool:
        packed = self._packed
        return not packed or (len(packed) == 1 and 0 in packed)

    def constant_term(self):
        return self._coefficient(self._packed.get(0, 0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._packed:
            return -1
        return max(self._packed) >> (self._width * len(self.variables))

    def is_homogeneous(self) -> bool:
        """Whether every term has the same total degree; true for zero."""
        shift = self._width * len(self.variables)
        return len({m >> shift for m in self._packed}) <= 1

    def leading_exponent(self) -> tuple[int, ...]:
        if not self._packed:
            raise ValueError("the zero polynomial has no leading term")
        return _unpacker(len(self.variables), self._width)(max(self._packed))

    def leading_coefficient(self):
        if not self._packed:
            raise ValueError("the zero polynomial has no leading term")
        return self._coefficient(self._packed[max(self._packed)])

    def _coefficient(self, numerator: int):
        """The coefficient whose stored numerator is ``numerator``."""
        if self.coeff_kind == INT:
            return numerator
        return Fraction(numerator, self._den)

    def is_unit(self) -> bool:
        """Invertible element test: +-1 over INT, any nonzero constant over RAT."""
        if not self.is_constant() or self.is_zero():
            return False
        if self.coeff_kind == INT:
            return self._packed[0] in (1, -1)
        return True

    def normalized(self) -> "Polynomial":
        """Canonical associate: positive leading coefficient over INT, monic over RAT."""
        if self.is_zero():
            return self
        lead = self._packed[max(self._packed)]
        if self.coeff_kind == INT:
            return -self if lead < 0 else self
        if lead == self._den:
            return self
        # dividing by lead/den leaves the numerators over the denominator lead
        if lead < 0:
            packed = {m: -c for m, c in self._packed.items()}
        else:
            packed = self._packed
        return _make(self.variables, RAT, packed, abs(lead), self._width)

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
        return _sum(self, self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make(
            self.variables,
            self.coeff_kind,
            {m: -c for m, c in self._packed.items()},
            self._den,
            self._width,
        )

    def __sub__(self, other) -> "Polynomial":
        return _sum(self, self._coerce(other), -1)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        a, b = self._packed, other._packed
        variables, kind = self.variables, self.coeff_kind
        if not a or not b:
            return _make(variables, kind, {}, 1, _MIN_WIDTH)
        nvars = len(variables)
        degree = (max(a) >> (self._width * nvars)) + (max(b) >> (other._width * nvars))
        width = max(self._width, other._width)
        if degree >> (width - 1):  # the product's degree would reach the guard bit
            width = _width_for(degree)
        out = _product(_repacked(self, width), _repacked(other, width))
        return _make(variables, kind, out, self._den * other._den, width)

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

    def _key(self):
        """What ``==`` compares and ``hash`` hashes: a constant's value, or the
        ring, denominator and numerators at the width the total degree calls for."""
        if self.is_constant():
            return self.constant_term()
        # equal polynomials have one total degree, so they share this width
        packed = _repacked(self, _width_for(self.total_degree()))
        return (self.variables, self.coeff_kind, self._den, frozenset(packed.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._key() == other
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

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
        values = [assignments[name] for name in self.variables]
        unpack = _unpacker(len(values), self._width)
        total = 0
        for m, term in self._packed.items():
            for value, power in zip(values, unpack(m)):
                if power:
                    term *= value ** power
            total += term
        return total if self.coeff_kind == INT else Fraction(total, self._den)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        packed = self._packed
        if not packed:
            return "0"
        width, den = self._width, self._den
        mask = (1 << width) - 1
        # each variable with the shift of its exponent field, first one highest
        last = len(self.variables) - 1
        fields = [(name, width * (last - k)) for k, name in enumerate(self.variables)]
        pieces = []
        for m in sorted(packed, reverse=True):  # descending grlex
            numerator = packed[m]
            size = abs(numerator)
            factors = []
            for name, shift in fields:
                power = (m >> shift) & mask
                if power:
                    factors.append(name if power == 1 else f"{name}^{number_text(power)}")
            if factors and size == den:  # a coefficient of magnitude 1
                body = "*".join(factors)
            else:
                if den == 1:
                    body = number_text(size)
                else:
                    g = math.gcd(size, den)  # size/den in lowest terms
                    body = number_text(size // g)
                    if g != den:
                        body = f"{body}/{number_text(den // g)}"
                if factors:
                    body = f"{body}*{'*'.join(factors)}"
            if not pieces:
                pieces.append(f"-{body}" if numerator < 0 else body)
            else:
                pieces.append(f"- {body}" if numerator < 0 else f"+ {body}")
        return " ".join(pieces)

    __repr__ = __str__


def _check_kind(coeff_kind) -> None:
    if coeff_kind not in (INT, RAT):
        raise ValueError(f"unknown coefficient kind {coeff_kind!r}")


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


def _numerators(coefficients, coeff_kind) -> tuple[dict, int]:
    """(numerators, denominator) of a map to nonzero coefficients: ints, or
    over RAT ints and Fractions. Over INT the map itself is the numerators."""
    if coeff_kind == INT:
        return coefficients, 1
    # pairwise, not math.lcm(*generator): unpacking a generator grows a tuple
    # by resizing and frees it onto the free list of its final length, which
    # leaves idle tuples in a long process
    den = 1
    for c in coefficients.values():
        den = math.lcm(den, c.denominator)
    return {m: c.numerator * (den // c.denominator) for m, c in coefficients.items()}, den


def _product(a: dict, b: dict) -> dict:
    """The product of two nonzero maps from packed monomials at one width to
    coefficients (ints, or ints and Fractions), zero coefficients dropped."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        # a one-term factor (often a constant) cannot cancel anything
        ((shift, d),) = b.items()
        return {m + shift: c * d for m, c in a.items()}
    out = {}
    get = out.get
    items = list(b.items())
    for m, c in a.items():
        for p, d in items:
            key = m + p
            out[key] = get(key, 0) + c * d
    return {m: c for m, c in out.items() if c}


def _make(variables, coeff_kind, packed, den, width) -> Polynomial:
    """The polynomial with numerators ``packed`` over ``den``, common factor removed.

    ``packed`` maps packed monomials at ``width`` to nonzero ints and ``den``
    is positive; they are not validated. Every polynomial that
    ``Polynomial.__init__`` does not build is built here. A denominator of
    1, which every INT polynomial has, takes no gcd.
    """
    if den != 1:
        g = math.gcd(den, *packed.values())
        if g != 1:
            packed = {m: c // g for m, c in packed.items()}
            den //= g
    p = Polynomial.__new__(Polynomial)
    p.variables = variables
    p.coeff_kind = coeff_kind
    p._packed = packed
    p._den = den
    p._width = width
    return p


def _repacked(p: Polynomial, width: int) -> dict[int, int]:
    """The numerator map of ``p`` with every field ``width`` bits wide."""
    if p._width == width:
        return p._packed
    unpack = _unpacker(len(p.variables), p._width)
    return {_pack(unpack(m), width): c for m, c in p._packed.items()}


def packed_numerators(p: Polynomial, degree: int) -> tuple[dict[int, int], int]:
    """The numerators of ``p`` keyed by packed monomial, and their denominator.

    Every monomial is packed as ``pack_exponents`` packs it for ``degree``,
    which must be at least the total degree of ``p``. Integer order on the
    keys is then grlex, and the sum of two keys is the key of the product of
    their monomials while its degree is at most ``degree``. No ``Fraction``
    is built. The map is ``p``'s own when ``p`` is stored at that width, so
    it must not be changed.
    """
    return _repacked(p, _width_for(degree)), p._den


def pack_exponents(exponents, degree: int) -> int:
    """The key of the monomial ``exponents`` in ``packed_numerators(p, degree)``."""
    return _pack(exponents, _width_for(degree))


def _sum(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """``a + sign*b`` for sign 1 or -1."""
    width = max(a._width, b._width)
    if a._den == b._den:
        den = a._den
        out = dict(_repacked(a, width))
        scale = sign
    else:
        den = math.lcm(a._den, b._den)
        scale_a = den // a._den
        out = {m: c * scale_a for m, c in _repacked(a, width).items()}
        scale = sign * (den // b._den)
    for m, c in _repacked(b, width).items():
        s = out.get(m, 0) + c * scale
        if s:
            out[m] = s
        else:
            del out[m]
    return _make(a.variables, a.coeff_kind, out, den, width)


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
#
# Every value the parser builds is one map from packed monomials, at the
# parser's field width, to nonzero int or Fraction coefficients, and the
# map of the whole text becomes a Polynomial once, when the parse ends. A
# term is read as a coefficient, a packed monomial (the sum of per-variable
# keys, each times its exponent; a parenthesised monomial folds in the same
# way) and, if it has any, the product map of its parenthesised factors that
# are not monomials; the term then enters its expression's map as one
# scaled add. Two such factors are multiplied by Polynomial.__mul__'s loop
# (_product), and a power of one is expanded by Polynomial.__pow__ and read
# back. A monomial whose total degree would reach the guard bit stops the
# parse (_Widen), and the parse starts again at a width that holds that
# degree and is at least twice the last one.
# ---------------------------------------------------------------------------

# Each parenthesis level costs two Python frames of recursion (expr and
# term); deeper input is rejected as a ParseError long before it could
# exhaust the interpreter's recursion limit.
_MAX_NESTING = 100
# A power whose term count could exceed this is rejected as a ParseError
# before it is expanded: "(x+y+1)^200" is 12 characters, but expanding it
# would take minutes.
_MAX_POWER_TERMS = 1000
# So is a power whose coefficients could grow past about this many bits:
# "3^10000000" would take seconds to build. The cap stays below the 4300
# digits Python converts to and from text, so every accepted power prints.
_MAX_POWER_BITS = 1 << 13
_TOO_MANY_BITS = f"power could have coefficients of more than {_MAX_POWER_BITS} bits"


def _coefficient_bits(c: int | Fraction) -> int:
    """Bits of the larger of a coefficient's numerator and denominator, less one.

    A coefficient of magnitude 1 counts as 0 bits, so powers of monomials
    such as ``x^1000000`` stay legal.
    """
    return (max(abs(c.numerator), c.denominator) - 1).bit_length()


def _power_too_large(base: Polynomial, exponent: int) -> str | None:
    """Why ``base ** exponent`` is too large to expand, or None if it is not.

    Its term count is at most the smaller of the number of monomials of
    degree at most ``exponent * deg(base)`` in k variables and the number of
    multisets of ``exponent`` of the base's terms. Its coefficients grow by
    about ``exponent`` times the ``_coefficient_bits`` of the base's largest
    coefficient.
    """
    den = base._den  # c/den in lowest terms is (c/g)/(den/g) with g = gcd(c, den)
    lowest = (max(abs(c), den) // math.gcd(c, den) for c in base._packed.values())
    bits = max(((m - 1).bit_length() for m in lowest), default=0)
    if exponent * bits > _MAX_POWER_BITS:
        return _TOO_MANY_BITS
    count = len(base._packed)
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


# One token after optional whitespace: a literal, a name, an operator, or
# any other single character. In str patterns \d, \s and \w test exactly
# str.isdecimal (the digits int() accepts; isdigit() also takes '²'),
# str.isspace and str.isalnum or "_". Every character but whitespace lands
# in a token, so a text's tokens are exactly what findall returns.
_TOKEN = re.compile(r"\s*(\d+(?:/\d*)?|\w+|[-+*^()]|\S)")
_OPERATORS = frozenset("+-*^()")
_END = ""  # the token after the last one


def _token_positions(text: str) -> list[int]:
    """The offset of each token of ``text``, then ``len(text)``.

    Raises the ParseError of the first malformed token: a literal with a
    "/" but no denominator digits, or an unexpected character (anything
    else that is not a name starting with a letter or "_", or an operator).
    """
    positions = []
    for match in _TOKEN.finditer(text):
        token, position = match.group(1), match.start(1)
        first = token[0]
        if first.isdecimal():
            if token[-1] == "/":
                raise ParseError("malformed rational literal", position)
        elif not (first.isalpha() or first == "_" or first in _OPERATORS):
            raise ParseError(f"unexpected character {first!r}", position)
        positions.append(position)
    positions.append(len(text))
    return positions


class _Widen(Exception):
    """A parsed monomial of total degree ``args[0]`` would reach the guard bit."""


class _Parser:
    """Recursive descent over the token strings, building maps at one field width.

    Its ParseErrors carry the index of the offending token, not its offset
    in the text; ``parse_polynomial`` translates them. Only the tokens a
    parse accepts are checked here (a name must be a variable, a literal
    must have a denominator after its "/"), so every malformed token makes
    the parse fail, and ``parse_polynomial`` then reports the first one.
    """

    def __init__(self, tokens, variables, coeff_kind, width):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.variables = variables
        self.coeff_kind = coeff_kind
        self.width = width
        nvars = len(variables)
        self.top = width * nvars  # the shift of the total-degree field
        # a monomial's total degree reaches the guard bit exactly when this
        # shift of it is nonzero, even where its exponent fields overflow
        self.guard = self.top + width - 1
        self.keys: dict[str, int] = {}
        for k, name in enumerate(variables):
            # a name token starts with a letter or "_", so no other variable
            # can be read; of equal names the first counts
            if name[:1].isalpha() or name[:1] == "_":
                self.keys.setdefault(name, 1 << self.top | 1 << (width * (nvars - 1 - k)))

    def parse(self) -> Polynomial:
        terms = self.expr()
        token = self.tokens[self.pos]
        if token != _END:
            raise ParseError(f"unexpected trailing input {excerpt(token)}", self.pos)
        return self.polynomial(terms)

    def polynomial(self, terms: dict) -> Polynomial:
        """The map ``terms`` as a Polynomial at the parser's width."""
        return _make(self.variables, self.coeff_kind, *_numerators(terms, self.coeff_kind),
                     self.width)

    def expr(self) -> dict:
        """An expression as one map, each term added in as it is read."""
        tokens, top, guard = self.tokens, self.top, self.guard
        out: dict = {}
        sign = tokens[self.pos]
        if sign == "+" or sign == "-":
            self.pos += 1
        while True:
            coefficient, monomial, product = self.term()
            if sign == "-":
                coefficient = -coefficient
            if product is None:  # a monomial
                total = out.get(monomial, 0) + coefficient
                if total:
                    out[monomial] = total
                else:
                    out.pop(monomial, None)
            elif coefficient:
                if monomial:
                    lead = max(product)
                    if (monomial + lead) >> guard:
                        raise _Widen((monomial >> top) + (lead >> top))
                if not out:
                    # the product map is the term's own, so it can be taken over
                    out = product if coefficient == 1 and not monomial else {
                        monomial + p: coefficient * d for p, d in product.items()
                    }
                else:
                    get = out.get
                    for p, d in product.items():
                        key = monomial + p
                        total = get(key, 0) + coefficient * d
                        if total:
                            out[key] = total
                        else:
                            del out[key]
            sign = tokens[self.pos]
            if sign != "+" and sign != "-":
                return out
            self.pos += 1

    def term(self):
        """A term as (coefficient, packed monomial, product map of its
        factors that are not monomials, or None)."""
        tokens, keys, top, guard = self.tokens, self.keys, self.top, self.guard
        coefficient: int | Fraction = 1
        monomial = 0
        product = None
        while True:
            start = self.pos
            token = tokens[start]
            self.pos += 1
            key = keys.get(token)
            if key is not None:
                power = self.exponent(1)
                grown = monomial + key * power
                if grown >> guard:
                    raise _Widen((monomial >> top) + power)
                monomial = grown
            elif token[:1].isdecimal():
                value = self.literal(token, start)
                coefficient *= value ** self.exponent(value)
            elif token == "(":
                self.depth += 1
                if self.depth > _MAX_NESTING:
                    raise ParseError(
                        f"parentheses nested deeper than {_MAX_NESTING} levels", start
                    )
                group = self.expr()
                if tokens[self.pos] != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
                self.depth -= 1
                if len(group) <= 1:  # a monomial, or zero
                    inner, c = next(iter(group.items()), (0, 0))
                    power = self.exponent(c)
                    coefficient *= c ** power
                    grown = monomial + inner * power
                    if grown >> guard:
                        raise _Widen((monomial >> top) + (inner >> top) * power)
                    monomial = grown
                else:
                    if tokens[self.pos] == "^":
                        group = self.power(group)
                    product = group if product is None else self.product(product, group)
            elif token[:1].isalpha() or token[:1] == "_":
                raise ParseError(f"unknown variable {excerpt(token)}", start)
            else:
                raise ParseError(
                    "expected a literal, variable, or parenthesized expression", start
                )
            if tokens[self.pos] != "*":
                return coefficient, monomial, product
            self.pos += 1

    def product(self, a: dict, b: dict) -> dict:
        lead_a, lead_b = max(a), max(b)
        if (lead_a + lead_b) >> self.guard:
            raise _Widen((lead_a >> self.top) + (lead_b >> self.top))
        return _product(a, b)

    def power(self, group: dict) -> dict:
        """The map of a group that is not a monomial raised to the exponent
        that follows it."""
        base = self.polynomial(group)
        exponent = self.exponent(base)
        if exponent == 1:
            return group
        result = base ** exponent
        if result._width > self.width:
            raise _Widen(result.total_degree())
        packed, den = _repacked(result, self.width), result._den  # base ** 0 is narrower
        if den == 1:
            return packed
        return {m: Fraction(c, den) for m, c in packed.items()}

    def exponent(self, base) -> int:
        """The exponent on ``base`` (1 if no '^' follows), checked against the
        power caps; ``base`` is a Polynomial or a monomial's coefficient."""
        tokens = self.tokens
        if tokens[self.pos] != "^":
            return 1
        at = self.pos + 1
        token = tokens[at]
        if token == "-":
            raise ParseError("negative exponent", at)
        if not token[:1].isdecimal() or "/" in token:
            raise ParseError("expected a natural-number exponent", at)
        self.pos += 2
        exponent = parse_int(token, at)
        if isinstance(base, Polynomial):
            reason = _power_too_large(base, exponent)
        else:
            reason = _TOO_MANY_BITS if exponent * _coefficient_bits(base) > _MAX_POWER_BITS else None
        if reason:
            raise ParseError(reason, at)
        return exponent

    def literal(self, token: str, at: int) -> int | Fraction:
        if "/" not in token:
            return parse_int(token, at)
        numerator, denominator = token.split("/")
        if not denominator:
            raise ParseError("malformed rational literal", at)
        if self.coeff_kind == INT:
            raise ParseError("rational literal not allowed over integer coefficients", at)
        denominator = parse_int(denominator, at)
        if denominator == 0:
            raise ParseError("zero denominator", at)
        return Fraction(parse_int(numerator, at), denominator)


def parse_polynomial(text: str, variables, coeff_kind: str) -> Polynomial:
    """Parse an edge-label expression into canonical sparse form."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append(_END)
    variables = tuple(variables)
    width = _MIN_WIDTH
    while True:
        try:
            return _Parser(tokens, variables, coeff_kind, width).parse()
        except _Widen as widen:
            # at least doubling the width: a label whose degree grows by one
            # bit after another restarts a few times, not once per bit
            width = max(_width_for(widen.args[0]), 2 * width)
        except ParseError as exc:
            # a malformed token is reported first, as the token-by-token
            # reading of the text would meet it before any parse error
            position = _token_positions(text)[exc.position]
            raise ParseError(exc.reason, position) from None


# ---------------------------------------------------------------------------
# Exact division
#
# Both coefficient kinds divide their integer numerator maps with one loop
# on packed monomials. The remainder is kept in a dict and its monomials in
# a max-heap: each step pops the largest one instead of scanning the whole
# remainder. A term that cancels stays in the dict as 0 until its heap entry
# is popped and skipped, so every monomial enters the heap once. Every
# monomial the loop forms has total degree at most the numerator's, so the
# wider of the two operands' widths holds them all.
# ---------------------------------------------------------------------------


def exact_divide(numerator: Polynomial, denominator: Polynomial) -> Polynomial | None:
    """Quotient q with denominator*q == numerator, or None if no such q exists.

    Multivariate division by the single divisor under graded-lex leading
    terms; any step whose leading monomial or (over INT) leading coefficient
    fails to divide certifies non-divisibility, and so does a divisor whose
    least monomial does not divide the numerator's, before any step.

    Over RAT the integer numerators of both operands are divided, after the
    divisor's numerators are made primitive. By Gauss's lemma a primitive
    integer divisor that divides an integer numerator over QQ leaves an
    integer quotient, so the integer division succeeds exactly when the
    rational one does, and a failed leading-coefficient step certifies
    non-divisibility over QQ too.
    """
    numerator._check_compatible(denominator)
    if denominator.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if numerator.is_zero():
        return numerator
    width = max(numerator._width, denominator._width)
    divisor = _repacked(denominator, width)
    content = 1
    if numerator.coeff_kind == RAT:
        content = _int_content(denominator)
        if content != 1:
            divisor = {m: c // content for m, c in divisor.items()}
    (lead, lead_coefficient), *rest = sorted(divisor.items(), reverse=True)
    guard = _guard_bits(len(numerator.variables), width)
    remainder = dict(_repacked(numerator, width))
    # the least monomial of a product is the product of the least monomials
    if (min(remainder) - min(divisor)) & guard:
        return None
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
    # (N / n_den) / (D / d_den) = (N / (D / content)) * d_den / (n_den * content),
    # where over INT both denominators and the content are 1
    d_den = denominator._den
    if d_den != 1:
        quotient = {m: c * d_den for m, c in quotient.items()}
    return _make(numerator.variables, numerator.coeff_kind, quotient,
                 numerator._den * content, width)


# ---------------------------------------------------------------------------
# GCD, and determinants by evaluation and interpolation
#
# Rational-coefficient inputs are scaled to integer coefficients first and
# the result is returned monic. Over the integers the heuristic gcd GCDHEU
# (Char, Geddes and Gonnet 1989) runs first: evaluate the last variable at a
# large power of two 2^bits, take the gcd of the images (recursively, down
# to integer gcds), rebuild a candidate from the base-2^bits digits of that
# image gcd, and accept its primitive part only if it divides both inputs
# (a constant primitive part is +-1 and needs no trial division). With
# 2^bits at least 2*min(|a|, |b|) + 2 in the max norm of the primitive
# inputs, passing that check proves the candidate is the gcd (Geddes, Czapor
# and Labahn, *Algorithms for Computer Algebra*, Thm 7.7). When the
# heuristic gives up, the fallback views the polynomials as univariate in
# the last variable with coefficients in the smaller ring, splits off
# contents, and runs the primitive remainder sequence on the primitive
# parts (Knuth, TAOCP vol. 2, 4.6.1): replace (f, g) by g and the primitive
# part of the pseudo-remainder of f by g until that is zero. The
# pseudo-remainder is sparse, lc(g)^k * f - q * g for the k steps the
# division takes, since taking the primitive part absorbs any power of
# lc(g); so the gcd of x^20000 + 1 and 2*x^10000 + 1 takes four division
# steps, and no power of lc(g) grows with the degree gap.
#
# The gcd functions return the gcd alone; a cofactor is one exact division
# where it is read (poly_lcm divides b's numerators, gcd_cofactors both inputs).
#
# The same evaluation and interpolation pair (_evaluate_last,
# _interpolate_last; they read and build the packed maps, where the last
# variable is the lowest field) turns a polynomial determinant into one
# integer determinant (integer_image_determinant, the Kronecker-substitution
# form of the idea in the same book, ch. 7). There no check is needed: 2^bits
# is chosen above twice a proven bound on the determinant's coefficients, so
# the digits are exact. Any point above the bound would do; at a power of
# two, evaluation is a shift and the digits are fixed-width bit fields, the
# bit-packing form of Kronecker substitution (Harvey 2009), so each
# coefficient is read back in one linear pass over its binary text.
# ---------------------------------------------------------------------------

# Evaluation points the heuristic tries before it gives up.
_HEU_GCD_TRIES = 6
# The heuristic gcd gives up, and the determinant stays on polynomial
# Bareiss, when an evaluated image could need more bits than this (the bits
# of the point 2^bits times the degree in the evaluated variable), so a label
# like x^1000000 never turns into a million-digit integer.
_MAX_IMAGE_BITS = 1 << 16


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Normalized greatest common divisor (monic over RAT, positive over INT).

    Computed by the heuristic gcd with the primitive remainder sequence as
    its fallback; both give the same normalized gcd.
    """
    a._check_compatible(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    g = _gcd_int(_integer_scaled(a), _integer_scaled(b))
    return _make(a.variables, a.coeff_kind, g._packed, 1, g._width).normalized()


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Normalized least common multiple of nonzero polynomials.

    The integer numerators of ``a`` times those of ``b`` divided exactly by
    the numerators' gcd, normalized once: over RAT that product is an
    associate of the lcm, so no rational gcd or cofactor is built.
    """
    a._check_compatible(b)
    if a.is_zero() or b.is_zero():
        raise ValueError("lcm requires nonzero arguments")
    numerators_a, numerators_b = _integer_scaled(a), _integer_scaled(b)
    product = numerators_a * exact_divide(numerators_b, _gcd_int(numerators_a, numerators_b))
    return _make(a.variables, a.coeff_kind, product._packed, 1, product._width).normalized()


def gcd_cofactors(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """``(g, a/g, b/g)`` with ``g = poly_gcd(a, b)``, each cofactor one exact division."""
    g = poly_gcd(a, b)
    return g, exact_divide(a, g), exact_divide(b, g)


def _integer_scaled(p: Polynomial) -> Polynomial:
    """``p`` times its common denominator: an INT view sharing its numerators."""
    if p.coeff_kind == INT:
        return p
    return _make(p.variables, INT, p._packed, 1, p._width)


def _int_content(p: Polynomial) -> int:
    """The gcd of the stored numerators."""
    g = 0
    for c in p._packed.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _gcd_int(a: Polynomial, b: Polynomial) -> Polynomial:
    """The normalized gcd of INT polynomials not both zero."""
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    if a.is_constant() or b.is_constant():
        return Polynomial.constant(math.gcd(_int_content(a), _int_content(b)), a.variables, INT)
    heuristic = _heu_gcd(a, b)
    if heuristic is not None:
        return heuristic

    sub_vars = a.variables[:-1]
    content_a, prim_a = _primitive(_split_last(a), sub_vars)
    content_b, prim_b = _primitive(_split_last(b), sub_vars)
    content = _gcd_int(content_a, content_b)
    prim_gcd = _primitive_prs_gcd(prim_a, prim_b, sub_vars)
    scaled = {d: c * content for d, c in prim_gcd.items()}
    g = _join_last(a.variables, scaled).normalized()
    if exact_divide(a, g) is None or exact_divide(b, g) is None:
        raise ArithmeticError("the primitive remainder sequence gcd does not divide its inputs")
    return g


def _heu_gcd(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """The normalized gcd by GCDHEU, or None if the heuristic gives up.

    ``a`` and ``b`` are nonzero INT polynomials in at least one variable;
    the gcd of their images, in one variable fewer, comes from a call of
    this function unless the images are integers. The gcd is the gcd of the
    inputs' contents times the primitive candidate, once both trial
    divisions prove that it divides the inputs' primitive parts.
    """
    content_a, content_b = _int_content(a), _int_content(b)
    content = math.gcd(content_a, content_b)
    prim_a, prim_b = _ground_quotient(a, content_a), _ground_quotient(b, content_b)
    integer_images = len(a.variables) == 1
    # the last variable's exponent is the lowest packed field
    degree = max(m & ((1 << p._width) - 1) for p in (a, b) for m in p._packed)
    # sympy's dmp_zz_heu_gcd may start below B = 2*min(|a|, |b|) + 29, at
    # min(B, 99*sqrt(B)), where the divisibility check proves nothing; here
    # the first point is the least power of two at or above B, and each
    # later one has about a quarter more bits
    bits = (2 * min(_max_norm(prim_a), _max_norm(prim_b)) + 28).bit_length()
    for _ in range(_HEU_GCD_TRIES):
        if bits * degree > _MAX_IMAGE_BITS:
            return None
        image_a, image_b = _evaluate_last(prim_a, bits), _evaluate_last(prim_b, bits)
        if image_a and image_b:
            if integer_images:
                image_gcd = _make((), INT, {0: math.gcd(image_a._packed[0], image_b._packed[0])},
                                  1, _MIN_WIDTH)
            else:
                image_gcd = _heu_gcd(image_a, image_b)
                if image_gcd is None:
                    return None
            candidate = _interpolate_last(image_gcd, bits, a.variables)
            if candidate.is_constant():  # its primitive part is +-1
                return Polynomial.constant(content, a.variables, INT)
            candidate = _ground_quotient(candidate, _int_content(candidate))
            if all(exact_divide(p, candidate) is not None for p in (prim_a, prim_b)):
                return _ground_product(candidate.normalized(), content)
        bits += bits // 4 + 1
    return None


def _ground_quotient(p: Polynomial, divisor: int) -> Polynomial:
    """Divide every coefficient by an integer that divides them all."""
    if divisor == 1:
        return p
    return _make(p.variables, INT, {m: c // divisor for m, c in p._packed.items()}, 1, p._width)


def _ground_product(p: Polynomial, factor: int) -> Polynomial:
    """Multiply every coefficient of an INT polynomial by a nonzero integer."""
    if factor == 1:
        return p
    return _make(p.variables, INT, {m: c * factor for m, c in p._packed.items()}, 1, p._width)


def _max_norm(p: Polynomial) -> int:
    return max(abs(c) for c in p._packed.values())


def _evaluate_last(p: Polynomial, bits: int) -> Polynomial:
    """Set the last variable of an INT polynomial to 2^bits; the image drops that variable.

    The last variable's exponent is the lowest packed field, so shifting it
    out leaves the other exponents in their fields with the total degree on
    top; subtracting the dropped exponent from the total gives the image's
    monomial at the same width.
    """
    width = p._width
    mask = (1 << width) - 1
    top = width * (len(p.variables) - 1)
    image: dict[int, int] = {}
    get = image.get
    for m, c in p._packed.items():
        e = m & mask
        key = (m >> width) - (e << top)
        image[key] = get(key, 0) + (c << (bits * e))
    return _make(p.variables[:-1], INT, {m: c for m, c in image.items() if c}, 1, width)


def _interpolate_last(image: Polynomial, bits: int, variables: tuple) -> Polynomial:
    """Inverse of evaluation at 2^bits, bits >= 2, for coefficients of magnitude below 2^(bits-1).

    The symmetric base-2^bits digits of each coefficient (each in
    (-2^(bits-1), 2^(bits-1)]) become the coefficients of the powers of the
    last variable, which is the lowest packed field of the result. Adding
    ``offset = 2^(bits-1) - 1`` at every digit position makes every digit
    non-negative, so the digits are the ``bits``-wide fields of the sum's
    binary text, each less ``offset``. A coefficient in [-offset, offset + 1]
    is its own one digit; if every coefficient is, the result is the image
    with the last variable's field added at exponent 0, built in place.
    """
    width = image._width
    packed = image._packed
    offset = (1 << (bits - 1)) - 1
    for c in packed.values():
        if not -offset <= c <= offset + 1:
            break
    else:  # every coefficient is its own one digit
        return _make(variables, INT, {m << width: c for m, c in packed.items()}, 1, width)
    top = width * (len(variables) - 1)
    offset_field = format(offset, f"0{bits}b")
    triples: list[tuple[int, int, int]] = []  # image monomial, power, digit
    degree = 0
    for m, c in packed.items():
        if -offset <= c <= offset + 1:  # c is its own one digit
            triples.append((m, 0, c))
            end = 0
        else:
            count = abs(c).bit_length() // bits + 2  # |c| < 2^(bits*(count-1))
            text = format(c + int(offset_field * count, 2), f"0{bits * count}b")
            for power, start in enumerate(range(bits * (count - 1), -1, -bits)):
                digit = int(text[start:start + bits], 2) - offset
                if digit:
                    triples.append((m, power, digit))
                    end = power
        degree = max(degree, (m >> top) + end)  # c != 0 has a nonzero digit
    return _with_last(variables, triples, width, degree)


def _with_last(variables, triples, width: int, degree: int) -> Polynomial:
    """The INT polynomial summing ``c * m * last^power`` over (m, power, c) triples.

    Each ``m`` is a monomial in the other variables packed at ``width``;
    ``degree`` is the result's total degree. The last variable becomes the
    lowest packed field, and the field is widened only if ``degree`` would
    reach its guard bit.
    """
    nvars = len(variables)
    if degree >> (width - 1):
        unpack = _unpacker(nvars - 1, width)
        width = _width_for(degree)
        triples = [(_pack(unpack(m), width), power, c) for m, power, c in triples]
    shift = width * nvars
    packed = {(m << width) + (power << shift) + power: c for m, power, c in triples}
    return _make(variables, INT, packed, 1, width)


def integer_image_determinant(rows, integer_determinant) -> Polynomial | None:
    """Determinant of a square matrix of polynomials from one integer determinant.

    Each row is scaled to integer numerators by the lcm of its entries'
    denominators. With H the product over rows of the sums of the entries'
    coefficient 1-norms, no coefficient of the determinant exceeds H, so
    evaluating the last variable at the least power of two 2^bits at or
    above 2H + 2 and reading the symmetric base-2^bits digits of the image's
    determinant back is exact. That repeats
    down to a matrix of plain ints, whose determinant
    ``integer_determinant(int_rows)`` computes; over RAT the result is
    divided by the product of the row scales. Returns None when some level's
    image could need more than _MAX_IMAGE_BITS bits per coefficient.
    """
    variables, kind = rows[0][0].variables, rows[0][0].coeff_kind
    scaled, scale = [], 1
    for row in rows:
        den = 1
        for p in row:
            den = math.lcm(den, p._den)
        scale *= den
        entries = []
        for p in row:
            factor = den // p._den
            packed = p._packed if factor == 1 else {m: c * factor for m, c in p._packed.items()}
            entries.append(_make(variables, INT, packed, 1, p._width))
        scaled.append(entries)
    determinant = _image_determinant(scaled, variables, integer_determinant)
    if determinant is None:
        return None
    return _make(variables, kind, determinant._packed, scale, determinant._width)


def _image_determinant(rows, variables, integer_determinant) -> Polynomial | None:
    if not variables:
        value = integer_determinant([[p._packed.get(0, 0) for p in row] for row in rows])
        return _make((), INT, {0: value} if value else {}, 1, _MIN_WIDTH)
    bound, degree = 1, 0
    for row in rows:
        bound *= sum(abs(c) for p in row for c in p._packed.values())
        # the determinant's degree in the last variable, the lowest packed field
        degree += max((m & ((1 << p._width) - 1) for p in row for m in p._packed), default=0)
    if not bound:  # a zero row
        return _make(variables, INT, {}, 1, _MIN_WIDTH)
    bits = (2 * bound + 1).bit_length()  # the least with 2^bits >= 2 * bound + 2
    if bits * degree > _MAX_IMAGE_BITS:
        return None
    image = [[_evaluate_last(p, bits) for p in row] for row in rows]
    determinant = _image_determinant(image, variables[:-1], integer_determinant)
    if determinant is None:
        return None
    return _interpolate_last(determinant, bits, variables)


def _split_last(p: Polynomial) -> dict[int, Polynomial]:
    """View as univariate in the last variable, split off as in _evaluate_last."""
    width = p._width
    mask = (1 << width) - 1
    top = width * (len(p.variables) - 1)
    buckets: dict[int, dict[int, int]] = {}
    for m, c in p._packed.items():
        e = m & mask
        buckets.setdefault(e, {})[(m >> width) - (e << top)] = c
    return {e: _make(p.variables[:-1], INT, b, 1, width) for e, b in buckets.items()}


def _join_last(variables, univariate: dict[int, Polynomial]) -> Polynomial:
    """Inverse of _split_last: the sum of each coefficient times last^degree."""
    width = max(c._width for c in univariate.values())
    triples = [(m, d, c) for d, coefficient in univariate.items()
               for m, c in _repacked(coefficient, width).items()]
    degree = max(c.total_degree() + d for d, c in univariate.items())
    return _with_last(tuple(variables), triples, width, degree)


def _coef_content(univariate: dict[int, Polynomial], sub_vars) -> Polynomial:
    content = Polynomial.zero(sub_vars, INT)
    for degree in sorted(univariate):
        content = _gcd_int(content, univariate[degree])
        if content.is_unit():  # normalized, so 1
            break
    return content


def _uni_degree(f: dict[int, Polynomial]) -> int:
    return max(f) if f else -1


def _primitive(univariate: dict[int, Polynomial], sub_vars):
    """``(content, primitive part)`` of a univariate polynomial over the smaller ring."""
    content = _coef_content(univariate, sub_vars)
    return content, {d: exact_divide(c, content) for d, c in univariate.items()}


def _uni_prem(f: dict[int, Polynomial], g: dict[int, Polynomial]):
    """Sparse pseudo-remainder ``lc(g)^k * f - q * g`` of univariate polynomials
    with polynomial coefficients, ``k`` the number of division steps taken
    rather than ``deg f - deg g + 1``."""
    dg = _uni_degree(g)
    remainder = dict(f)
    lc_g = g[dg]
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
    return remainder


def _primitive_prs_gcd(f, g, sub_vars) -> dict[int, Polynomial]:
    """Primitive gcd of two primitive univariate polynomials: the primitive
    remainder sequence (Knuth, TAOCP vol. 2, 4.6.1). Taking each remainder's
    primitive part absorbs every power of ``lc(g)`` the pseudo-division made."""
    if _uni_degree(f) < _uni_degree(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_uni_prem(f, g), sub_vars)[1]
    return f
