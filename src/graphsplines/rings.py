"""Coefficient rings: arbitrary-precision integers, rationals, and polynomial rings.

A ring object is the descriptor every other module programs against. Elements
are plain values (``int``, ``Fraction``, or :class:`Polynomial`) whose own
operators do the arithmetic. :class:`Ring` defines ``add``, ``neg``, ``sub``,
``mul``, ``is_zero`` and ``product`` once, as those operators applied after
one ``check`` per element; ``exact_div`` and ``divides`` once, as ``check``
and a zero test before the subclass's unchecked ``_exact_quotient``; ``lcm``
once, as ``check`` and a zero test before the unchecked ``_lcm``; and
``to_text`` once, as ``check`` before the unchecked ``_text``, which prints
numbers. Each subclass holds only what differs between rings: the element
``check``, ``from_int``, the exact quotient, the lcm (``math.lcm`` over ZZ,
1 over QQ, and over polynomials ``poly_lcm``, taken from the cofactor the
numerators' integer gcd returns), gcd, the unit test, canonical unit
normalization and parsing; :class:`PolynomialRing` also its own ``_text``,
document and equality. All operations are exact and pure.

The integer and rational rings need nothing of ``polynomials``: the decimal
printer ``number_text`` and the literal reader ``parse_int`` are defined
here, and ``polynomials`` imports them. :class:`PolynomialRing` reads
``polynomials`` through the module object when one of its methods runs, so
that a call on an integer graph never runs that lazy module (see the
package docstring). A few names of ``polynomials`` are also served as
attributes of this module, read from it when asked for:
``splinebench/test_splinebench.py`` and ``tests/test_bench_contract.py``
read ``rings.exact_divide``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import polynomials
from .errors import GraphError, ParseError, RingMismatchError, excerpt

_RAT_LITERAL = re.compile(r"[+-]?\d+(/\d+)?\Z")

# names of ``polynomials`` served as attributes of this module, read from it
# when asked for (``__getattr__``), so that reading them runs it only then;
# the benchmark's tests read ``rings.exact_divide``
_POLYNOMIAL_NAMES = frozenset(
    ("INT", "RAT", "Polynomial", "exact_divide", "parse_polynomial", "poly_gcd", "poly_lcm")
)


def __getattr__(name: str):
    if name in _POLYNOMIAL_NAMES:
        return getattr(polynomials, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_int(digits: str, position: int = 0) -> int:
    """``int(digits)``, with a literal too long for Python to convert as a ParseError.

    Python refuses to convert more than ``sys.get_int_max_str_digits()``
    digits (4300 by default); that limit is kept, not raised.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal too long: {excerpt(digits)}", position) from None


def number_text(value: int | Fraction) -> str:
    """Decimal text of an int or Fraction, as ``str`` writes it, at any size.

    ``str`` refuses ints of more than ``sys.get_int_max_str_digits()`` digits
    (4300 by default); that limit is kept, not raised. A longer int is split
    at a power of ten into a high and a zero-padded low half until every
    piece is short enough for ``str``.
    """
    if not isinstance(value, int):
        if value.denominator == 1:
            return number_text(value.numerator)
        return f"{number_text(value.numerator)}/{number_text(value.denominator)}"
    try:
        return str(value)
    except ValueError:  # too many digits for str
        pass
    if value < 0:
        return "-" + number_text(-value)
    digits = value.bit_length() * 30103 // 200000  # about half its digits
    high, low = divmod(value, 10 ** digits)
    return number_text(high) + number_text(low).zfill(digits)


class Ring:
    """Shared behaviour; concrete rings fill in ``check`` and the ring-specific questions.

    The arithmetic methods check their arguments, so a foreign element
    raises RingMismatchError. Code that holds only checked elements may
    apply the Python operators to them directly, divide them by a nonzero
    checked element with ``_exact_quotient``, and print them with ``_text``.
    """

    def add(self, a, b):
        return self.check(a) + self.check(b)

    def neg(self, a):
        return -self.check(a)

    def sub(self, a, b):
        return self.check(a) - self.check(b)

    def mul(self, a, b):
        return self.check(a) * self.check(b)

    def is_zero(self, a) -> bool:
        return not self.check(a)

    def exact_div(self, a, b):
        """The q with b*q == a, or None if there is none; b must be nonzero."""
        a, b = self.check(a), self.check(b)
        if not b:  # a checked element is falsy exactly when it is zero
            raise ZeroDivisionError("division by zero")
        return self._exact_quotient(a, b)

    def divides(self, a, b) -> bool:
        """True iff a*q == b for some ring element q; divides(0, 0) is True."""
        a, b = self.check(a), self.check(b)
        if not a:
            if not b:
                return True
            raise ZeroDivisionError("only 0 is divisible by 0")
        return self._exact_quotient(b, a) is not None

    def lcm(self, a, b):
        """Normalized least common multiple; requires nonzero arguments."""
        a, b = self.check(a), self.check(b)
        if not a or not b:
            raise ValueError("lcm requires nonzero arguments")
        return self._lcm(a, b)

    def product(self, items):
        return math.prod(map(self.check, items), start=self.one)

    def to_text(self, a) -> str:
        return self._text(self.check(a))

    def _text(self, a) -> str:
        return number_text(a)

    def to_document(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self):
        return f"{type(self).__name__}()"

    def __eq__(self, other):
        return isinstance(other, type(self))

    def __hash__(self):
        return hash(type(self).__name__)


class IntegerRing(Ring):
    """The integers with Euclidean gcd and nonnegative normalization."""

    kind = "int"
    zero = 0
    one = 1
    description = "ZZ"

    def check(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise RingMismatchError(f"{a!r} is not an integer ring element")
        return a

    def from_int(self, k: int) -> int:
        return int(k)

    def is_unit(self, a) -> bool:
        return self.check(a) in (1, -1)

    def _exact_quotient(self, a, b):
        q, r = divmod(a, b)
        return q if r == 0 else None

    def _lcm(self, a, b):
        return math.lcm(a, b)

    def gcd(self, a, b):
        if self.check(a) == 0 and self.check(b) == 0:
            raise ValueError("gcd(0, 0) is undefined")
        return math.gcd(a, b)

    def normalize(self, a):
        return abs(self.check(a))

    def element_from_text(self, text: str):
        # one optional sign, then decimal digits: str.isdecimal tests exactly
        # what \d matches in a str pattern and what int() reads as a digit
        digits = text.strip()
        if digits[:1] in ("+", "-"):
            digits = digits[1:]
        if not digits.isdecimal():
            raise ParseError(f"malformed integer literal {excerpt(text)}", 0)
        return parse_int(text)


class RationalRing(Ring):
    """The rationals; a field, so every nonzero element is a unit."""

    kind = "rat"
    zero = Fraction(0)
    one = Fraction(1)
    description = "QQ"

    def check(self, a):
        if isinstance(a, bool):
            raise RingMismatchError("bool is not a rational ring element")
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, Fraction):
            return a
        raise RingMismatchError(f"{a!r} is not a rational ring element")

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def is_unit(self, a) -> bool:
        return self.check(a) != 0

    def _exact_quotient(self, a, b):
        return a / b

    def _lcm(self, a, b):
        return Fraction(1)

    def gcd(self, a, b):
        if self.check(a) == 0 and self.check(b) == 0:
            raise ValueError("gcd(0, 0) is undefined")
        return Fraction(1)

    def normalize(self, a):
        return Fraction(0) if self.is_zero(a) else Fraction(1)

    def element_from_text(self, text: str):
        if not _RAT_LITERAL.match(text.strip()):
            raise ParseError(f"malformed rational literal {excerpt(text)}", 0)
        head, _, tail = text.strip().partition("/")
        if tail:
            denominator = parse_int(tail)
            if denominator == 0:
                raise ParseError("zero denominator", 0)
            return Fraction(parse_int(head), denominator)
        return Fraction(parse_int(head))


class PolynomialRing(Ring):
    """Multivariate polynomials over ZZ or QQ in a fixed ordered variable set."""

    kind = "poly"

    def __init__(self, coeff_kind: str, variables):
        if coeff_kind not in (polynomials.INT, polynomials.RAT):
            raise ValueError(f"unknown coefficient kind {coeff_kind!r}")
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable name")
        for name in variables:
            if not re.match(r"[A-Za-z_][A-Za-z_0-9]*\Z", name):
                raise ValueError(f"bad variable name {name!r}")
        self.coeff_kind = coeff_kind
        self.variables = variables
        self.zero = polynomials.Polynomial.zero(variables, coeff_kind)
        self.one = polynomials.Polynomial.constant(1, variables, coeff_kind)

    @property
    def description(self) -> str:
        base = "ZZ" if self.coeff_kind == polynomials.INT else "QQ"
        return f"{base}[{','.join(self.variables)}]"

    def check(self, a):
        if (
            not isinstance(a, polynomials.Polynomial)
            or a.variables != self.variables
            or a.coeff_kind != self.coeff_kind
        ):
            raise RingMismatchError(f"{a!r} is not an element of {self.description}")
        return a

    def from_int(self, k: int) -> polynomials.Polynomial:
        return polynomials.Polynomial.constant(int(k), self.variables, self.coeff_kind)

    def constant(self, value) -> polynomials.Polynomial:
        return polynomials.Polynomial.constant(value, self.variables, self.coeff_kind)

    def variable(self, name: str) -> polynomials.Polynomial:
        return polynomials.Polynomial.variable(name, self.variables, self.coeff_kind)

    def is_unit(self, a) -> bool:
        return self.check(a).is_unit()

    def _exact_quotient(self, a, b):
        return polynomials.exact_divide(a, b)

    def gcd(self, a, b):
        return polynomials.poly_gcd(self.check(a), self.check(b))

    def _lcm(self, a, b):
        """``poly_lcm``: the numerators of ``a`` times the cofactor that their
        integer gcd with ``b``'s comes with, normalized once, so no division
        is made here."""
        return polynomials.poly_lcm(a, b)

    def normalize(self, a):
        return self.check(a).normalized()

    def element_from_text(self, text: str):
        return polynomials.parse_polynomial(text, self.variables, self.coeff_kind)

    def _text(self, a) -> str:
        return str(a)

    def to_document(self) -> dict:
        return {
            "kind": "poly",
            "coefficients": self.coeff_kind,
            "variables": list(self.variables),
        }

    def __repr__(self):
        return f"PolynomialRing({self.coeff_kind!r}, {self.variables!r})"

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.coeff_kind == self.coeff_kind
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash(("PolynomialRing", self.coeff_kind, self.variables))


ZZ = IntegerRing()
QQ = RationalRing()


def ring_from_document(document: dict) -> Ring:
    """Build a ring from its JSON descriptor, e.g. {"kind": "poly", ...}."""
    if not isinstance(document, dict) or "kind" not in document:
        raise GraphError("BAD_RING", "ring descriptor must be an object with a 'kind'")
    kind = document["kind"]
    if kind == "int":
        return ZZ
    if kind == "rat":
        return QQ
    if kind == "poly":
        coefficients = document.get("coefficients")
        variables = document.get("variables")
        if coefficients not in (polynomials.INT, polynomials.RAT):
            raise GraphError(
                "BAD_RING", "polynomial ring needs 'coefficients': 'int' or 'rat'"
            )
        if (
            not isinstance(variables, list)
            or not variables
            or not all(isinstance(name, str) for name in variables)
        ):
            raise GraphError(
                "BAD_RING", "polynomial ring needs a nonempty 'variables' list of names"
            )
        try:
            return PolynomialRing(coefficients, variables)
        except ValueError as exc:
            raise GraphError("BAD_RING", str(exc)) from exc
    raise GraphError("BAD_RING", f"unknown ring kind {kind!r}")
