import ast
import functools
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphsplines import (
    INT,
    RAT,
    ParseError,
    Polynomial,
    PolynomialRing,
    RingMismatchError,
    exact_divide,
    gcd_cofactors,
    parse_polynomial,
    poly_gcd,
    poly_lcm,
)
import graphsplines.polynomials as module
from graphsplines.polynomials import number_text
from conftest import source_env
import oracles

VARS = ("x", "y")


def poly(text, kind=RAT):
    return parse_polynomial(text, VARS, kind)


@st.composite
def polynomials(draw, kind=RAT, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        degree = draw(st.integers(0, max_degree))
        a = draw(st.integers(0, degree))
        terms[(a, degree - a)] = draw(st.integers(-9, 9))
    return Polynomial(VARS, kind, terms)


nonzero_polynomials = polynomials().filter(bool)
nonzero_int_polynomials = polynomials(kind=INT).filter(bool)


class TestParser:
    def test_binomial_square(self):
        assert poly("(x+y)^2") == poly("x^2 + 2*x*y + y^2")

    def test_zero_literal(self):
        assert poly("0").is_zero()

    def test_cancellation(self):
        assert poly("x^2 - x^2").is_zero()

    def test_rational_coefficients(self):
        p = poly("1/2*x + 3/4")
        assert p.terms[(1, 0)] == Fraction(1, 2)
        assert p.constant_term() == Fraction(3, 4)

    def test_unary_minus(self):
        assert poly("-x") == -poly("x")
        assert poly("-(x + y)") == -(poly("x") + poly("y"))

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            poly("x + z")
        assert "unknown variable" in str(err.value)
        assert err.value.position == 4

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            poly("x^-2")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty input"):
            poly("   ")

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError, match="trailing input"):
            poly("2x")

    def test_rational_literal_needs_rat_ring(self):
        with pytest.raises(ParseError, match="rational literal"):
            poly("1/2", kind=INT)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError, match="expected '\\)'"):
            poly("(x + y")

    def test_deep_nesting_is_a_parse_error(self):
        # recursion this deep would raise RecursionError, not ParseError
        assert poly("(" * 100 + "x" + ")" * 100) == poly("x")
        with pytest.raises(ParseError, match="nested deeper"):
            poly("(" * 3000 + "x" + ")" * 3000)

    @pytest.mark.parametrize("inner", ["x", "x + 1", "2*x^3*y - 1/2"])
    def test_nesting_cap_boundary(self, inner):
        cap = module._MAX_NESTING
        assert poly("(" * cap + inner + ")" * cap) == poly(inner)
        with pytest.raises(ParseError) as err:
            poly("y + " + "(" * (cap + 1) + inner + ")" * (cap + 1))
        assert err.value.reason == f"parentheses nested deeper than {cap} levels"
        assert err.value.position == 4 + cap  # the (cap + 1)-th "("

    @pytest.mark.parametrize("kind", [INT, RAT])
    @pytest.mark.parametrize(
        "text, reason, position",
        [("x^²", "unexpected character '²'", 2), ("1/²", "malformed rational literal", 0),
         ("²", "unexpected character '²'", 0), ("x + 2²", "unexpected character '²'", 5)],
    )
    def test_only_decimal_digits_make_a_literal(self, kind, text, reason, position):
        # '²' is a digit to str.isdigit but not to int()
        with pytest.raises(ParseError) as err:
            poly(text, kind)
        assert (err.value.reason, err.value.position) == (reason, position)

    def test_other_decimal_digits_are_literals(self):
        # int() reads any Unicode decimal digit, like the Arabic-Indic three
        assert poly("x^\u0663 + \u0663") == poly("x^3 + 3")

    @given(polynomials())
    def test_print_parse_round_trip(self, p):
        assert parse_polynomial(str(p), VARS, RAT) == p

    @given(polynomials(kind=INT))
    def test_print_parse_round_trip_int(self, p):
        assert parse_polynomial(str(p), VARS, INT) == p


# Malformed or capped pieces spliced into the generated labels.
MALFORMED_PIECES = (
    "\u00b2", "\u00e9", "_a", "1/", "1/0", "^-", "x^2^3", "(" * 101 + "x" + ")" * 101,
    "(x+y+1)^44", "3^10000000", "x^40000", "z", "2x", "/", "$", "()", "x^1/2", "+-",
    "9" * 4301,
)


def _random_label(rng, depth=2):
    """A label of the grammar: literals, variables, powers and nested sums."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            draw = rng.random()
            if depth and draw < 0.3:
                factor = f"({_random_label(rng, depth - 1)})"
            elif draw < 0.65:
                factor = rng.choice(("x", "y", "x", "y"))
            else:
                factor = rng.choice(("0", "1", "2", "3", "17", "3/4", "12/8", "1000"))
            if rng.random() < 0.25:
                factor += f"^{rng.randint(0, 4)}"
            factors.append(factor)
        terms.append(rng.choice(("*", " * ")).join(factors))
    out = rng.choice(("", "", "-", "+ ")) + terms[0]
    for term in terms[1:]:
        out += rng.choice((" + ", " - ", "+", "-")) + term
    return out


def _mutated(rng, text):
    """``text``, or ``text`` with a malformed piece, character or deletion at one place."""
    draw = rng.random()
    at = rng.randint(0, len(text))
    if draw < 0.35:
        return text
    if draw < 0.7:
        return text[:at] + rng.choice(MALFORMED_PIECES) + text[at:]
    if draw < 0.85:
        return text[:at] + rng.choice("+-*^()/ 9xy\u00b2") + text[at:]
    return text[:at] + text[at + 1:]


def _literal(rng, kind):
    choices = ("1", "-1", "2", "-3", "17", "0")
    return rng.choice(choices + (("3/4", "-5/2") if kind == RAT else ()))


def _nested(rng, kind, depth):
    """A sum that is not a monomial, with groups nested ``depth`` deep."""
    if not depth:
        return rng.choice(("x + y - 1", "2*x - 3*y", "x*y + 1", "x^2 - y", "-x + 4"))
    inner = _nested(rng, kind, depth - 1)
    return rng.choice((
        f"({inner})",
        f"({_literal(rng, kind)})*({inner}) + {rng.choice(('x', 'y', '1', 'x*y'))}",
        f"x*({inner}) - y",
    ))


def _wide(rng):
    """A monomial or group whose degree is at or near 2^15."""
    e = rng.choice((16383, 16384, 32767, 32768, 40000))
    return rng.choice((f"x^{e}", f"x^{e}*y", f"(x^{e} + y)", f"(x*y)^{e // 2}",
                       f"(x^{e // 2} - 1)^2", f"(x^{e // 2} + y)*(y^{e // 2} - x)"))


# Label shapes the parser folds in its own way, each drawn by (rng, kind).
SHAPES = {
    # sums of (u)*(t), t nested two or three groups deep
    "scaled-sums": lambda rng, kind: " + ".join(
        f"({_literal(rng, kind)})*({_nested(rng, kind, rng.randint(2, 3))})"
        for _ in range(rng.randint(1, 4))),
    # products of two or three groups that are not monomials
    "products": lambda rng, kind: rng.choice(("", "3*", "x*", "-y*")) + "*".join(
        f"({_nested(rng, kind, rng.randint(0, 2))})" for _ in range(rng.randint(2, 3))),
    "powers": lambda rng, kind: rng.choice(("", "2*", "(x + 1)*")) + (
        f"({_nested(rng, kind, rng.randint(0, 2))})^{rng.choice((0, 1, 2, 3, 4, 44))}"
        f" - (y - ({_nested(rng, kind, 0)})^{rng.randint(0, 3)})^2"),
    # degrees across the 2^15 field boundary, inside and outside groups
    "wide": lambda rng, kind: f"{_wide(rng)}*({_wide(rng)}) + {_nested(rng, kind, 1)}",
    # the same, cancelled back below the boundary
    "cancelled": lambda rng, kind: "{0} + ({1}) - {0}".format(_wide(rng), _nested(rng, kind, 2)),
}


def _parsed(parse, text, kind, variables=VARS):
    try:
        value = parse(text, variables, kind)
    except ParseError as exc:
        return "error", exc.reason, exc.position
    return "value", value, str(value)


class TestParserAgainstTokenOracle:
    """The package's parser against the token-by-token one in oracles.py."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_same_value_text_or_error(self, kind, seed):
        rng = random.Random(f"parse/{kind}/{seed}")
        outcomes = set()
        for _ in range(250):
            text = _mutated(rng, _random_label(rng))
            expected = _parsed(oracles.token_parse_polynomial, text, kind)
            assert _parsed(parse_polynomial, text, kind) == expected, text
            outcomes.add(expected[1] if expected[0] == "error" else "value")
        assert "value" in outcomes and len(outcomes) > 5  # both sides are exercised

    @pytest.mark.parametrize("kind", [INT, RAT])
    @pytest.mark.parametrize("text", MALFORMED_PIECES + ("", "  ", "x + ", "(x", "x)", "1/2/3"))
    def test_each_piece_alone(self, kind, text):
        expected = _parsed(oracles.token_parse_polynomial, text, kind)
        assert _parsed(parse_polynomial, text, kind) == expected

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_shaped_labels(self, kind, shape):
        rng = random.Random(f"parse-shape/{kind}/{shape}")
        for _ in range(40):
            text = SHAPES[shape](rng, kind)
            expected = _parsed(oracles.token_parse_polynomial, text, kind)
            assert _parsed(parse_polynomial, text, kind) == expected, text

    @pytest.mark.parametrize("kind", [INT, RAT])
    @pytest.mark.parametrize("text", [
        "x^40000 - x^40000 + 1", "(x^16383*y + 1)*(x^16383 + 1)", "(x*y)^16384",
        "(x^16384 + y)^2 - (x^16384 + y)^2 + x", "((x^32768))*(y + 1) - x^32768*y - x^32768",
        "0*x^40000 + y", "(x^40000 + y)^0", "(x^20000 - y)*(x^20000 + y) - x^40000 + y^2",
        "(x^" + "9" * 40 + ")^3 - x^" + "9" * 40 + "*x^" + "9" * 40 + "*x^" + "9" * 40,
    ])
    def test_widening(self, kind, text):
        expected = _parsed(oracles.token_parse_polynomial, text, kind)
        assert _parsed(parse_polynomial, text, kind) == expected

    def test_variables_that_no_token_can_name(self):
        # operators, digits and duplicates among the variables: only the
        # first of equal names counts, and only names can be read
        variables = ("x", "+", "2", "x", "\u00b2")
        for text in ("x + 2", "x^2 + 2*x", "\u00b2", "+", "x*\u00b2"):
            expected = _parsed(oracles.token_parse_polynomial, text, INT, variables)
            assert _parsed(parse_polynomial, text, INT, variables) == expected


class TestPrinting:
    def test_graded_lex_descending(self):
        assert str(poly("y + x^2 + x*y + 1")) == "x^2 + x*y + y + 1"

    def test_explicit_operators(self):
        assert str(poly("2*x*y^3")) == "2*x*y^3"

    def test_zero(self):
        assert str(poly("0")) == "0"

    def test_each_coefficient_in_lowest_terms(self):
        # stored as (3*x + 2)/6: each term reduces by a different gcd
        assert str(poly("1/2*x + 1/3")) == "1/2*x + 1/3"
        assert str(poly("-4/6*x*y + 3/9*y - 2/2")) == "-2/3*x*y + 1/3*y - 1"

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_matches_fraction_printing(self, kind):
        rng = random.Random(f"print-{kind}")
        for nvars in range(4):
            for bits in (3, 3, 70):
                p = _random_polynomial(rng, NAMES[:nvars], kind, 5, 4, bits)
                assert str(p) == oracles.fraction_text(p)

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_matches_the_reference_printer(self, kind):
        rng = random.Random(f"reference-printer-{kind}")
        cases = [Polynomial.constant(c, VARS, kind) for c in (0, 1, -1, 7, -12)]
        for nvars in range(4):
            names = NAMES[:nvars]
            for bits in (3, 3, 70):
                p = _random_polynomial(rng, names, kind, 6, 4, bits)
                cases += [p, -p]
        x, y = (Polynomial.variable(name, VARS, kind) for name in VARS)
        cases += [x ** 40000 * y - 3 * y ** 2 + 1, -(x ** 70000) + x * y ** 2 - x]
        long = 10 ** 4400 + 7
        cases += [x * long - y, -long * x ** 2 + y * 3, Polynomial.constant(-long, VARS, kind)]
        if kind == RAT:
            # (3*x + 2)/6 and its kin: each term reduces by its own gcd with the
            # denominator, or not at all
            cases += [poly("1/2*x + 1/3"), poly("-4/6*x*y + 3/9*y - 2/2"),
                      poly("5/7*x^2 - 1/7"), poly("-1/3*x - 1/3"),
                      x * Fraction(long, 3) + Fraction(1, long)]
        assert any(p._width > 16 for p in cases)
        for p in cases:
            text = str(p)
            assert text == oracles.reference_text(p)
            if max(map(_coefficient_digits, p.terms.values()), default=0) <= 4300:
                assert parse_polynomial(text, p.variables, kind) == p

    def test_matches_the_reference_printer_on_a_long_exponent(self):
        p = parse_polynomial("(x^" + "9" * 4300 + ")^10 - 2", ("x",), INT)
        assert str(p) == oracles.reference_text(p)


def _coefficient_digits(c):
    return max(len(number_text(abs(c.numerator))), len(number_text(c.denominator)))


class TestArithmetic:
    def test_ring_mismatch(self):
        other = parse_polynomial("x", ("x",), RAT)
        with pytest.raises(RingMismatchError):
            poly("x") + other

    def test_int_ring_rejects_fractions(self):
        with pytest.raises(RingMismatchError):
            Polynomial(VARS, INT, {(0, 0): Fraction(1, 2)})

    @given(polynomials(), polynomials())
    def test_mul_degree(self, a, b):
        assume(a and b)
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()

    @given(polynomials(), polynomials())
    def test_product_nonzero(self, a, b):
        # integral domain: no zero divisors
        assume(a and b)
        assert a * b

    @given(polynomials(), st.integers(-20, 20), st.integers(-20, 20))
    def test_evaluation_is_a_homomorphism(self, p, px, py):
        q = poly("x*y - 3")
        at = {"x": Fraction(px, 7), "y": Fraction(py, 5)}
        assert (p * q).substitute(at) == p.substitute(at) * q.substitute(at)
        assert (p + q).substitute(at) == p.substitute(at) + q.substitute(at)

    def test_substitute_examples(self):
        assert poly("(x+y)^2").substitute({"x": 1, "y": 2}) == 9
        assert poly("0").substitute({"x": 5, "y": 5}) == 0
        assert poly("x*y").substitute({"x": 3, "y": -3}) == -9

    def test_substitute_missing_assignment(self):
        with pytest.raises(ValueError, match="missing assignment"):
            poly("x").substitute({"y": 1})

    def test_substitute_rejects_a_float(self):
        with pytest.raises(ValueError, match="must be an int or Fraction"):
            poly("x").substitute({"x": 1.5, "y": 1})

    def test_reflected_subtraction(self):
        assert 1 - poly("x") == poly("1 - x")
        assert 1 - poly("x", INT) == poly("-x + 1", INT)

    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            poly("x") ** -1

    def test_comparison_with_other_types(self):
        x = poly("x", INT)
        assert (poly("1", INT) == Fraction(1, 2)) is False  # no INT constant is 1/2
        assert x.__eq__("x") is NotImplemented and (x == "x") is False

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_a_constant_equals_and_hashes_as_its_value(self, kind):
        one = poly("1", kind)
        assert one in {1} and 1 in {one} and len({one, 1}) == 1
        assert one == Fraction(1) and one in {Fraction(1)}  # also over INT
        zero = poly("0", kind)
        assert zero == 0 and hash(zero) == hash(0) and zero in {0}
        assert poly("-7", kind) == -7 and hash(poly("-7", kind)) == hash(-7)
        x = poly("x", kind)
        for number in (0, 1, Fraction(1, 2)):
            assert x != number and number != x and x not in {number}
        # a bool is not a coefficient, so no polynomial equals one
        assert one.__eq__(True) is NotImplemented and (one == True) is False  # noqa: E712

    def test_a_rational_constant_equals_its_fraction(self):
        two_thirds = poly("2/3", RAT)
        assert two_thirds == Fraction(2, 3) and hash(two_thirds) == hash(Fraction(2, 3))
        assert Fraction(2, 3) in {two_thirds} and len({two_thirds, Fraction(2, 3)}) == 1
        assert two_thirds != 1 and two_thirds != Fraction(1, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([INT, RAT]), st.integers(-30, 30), st.integers(1, 6),
           st.booleans(), st.integers(16, 18))
    def test_equal_polynomials_hash_alike(self, kind, numerator, denominator, linear, bits):
        value = numerator if kind == INT else Fraction(numerator, denominator)
        x = Polynomial.variable("x", VARS, kind)
        a = Polynomial.constant(value, VARS, kind)
        if linear:
            a = a + x
        # the same polynomial stored at a wider field: a sum keeps the wider
        # field of its operands, and x^(2^bits) needs one
        wide = x ** (1 << bits)
        b = (a + wide) - wide
        assert b._width > a._width
        assert a == b and hash(a) == hash(b)
        if not linear:
            assert a == value and hash(a) == hash(value)
            assert b == value and hash(b) == hash(value)

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_normalized_zero_is_zero(self, kind):
        zero = poly("0", kind)
        assert zero.normalized() == zero and zero.normalized().is_zero()


class TestLeadingTerm:
    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_zero_has_none(self, kind):
        zero = Polynomial.zero(VARS, kind)
        with pytest.raises(ValueError, match="no leading term"):
            zero.leading_exponent()
        with pytest.raises(ValueError, match="no leading term"):
            zero.leading_coefficient()

    def test_an_int_over_int(self):
        # grlex: x^3 and x*y^2 have degree 3, and x^3 is lex first
        p = poly("-3*x*y^2 + 5*x^3 - 7", INT)
        assert p.leading_exponent() == (3, 0)
        assert p.leading_coefficient() == 5 and type(p.leading_coefficient()) is int
        assert poly("-7", INT).leading_exponent() == (0, 0)
        assert poly("-7", INT).leading_coefficient() == -7

    def test_a_fraction_over_rat(self):
        p = poly("-1/2*y^3 + 2/3*x*y^2 + x", RAT)
        assert p.leading_exponent() == (1, 2)
        assert p.leading_coefficient() == Fraction(2, 3)
        whole = poly("4*x - 1", RAT).leading_coefficient()
        assert whole == 4 and type(whole) is Fraction

    @pytest.mark.parametrize("kind, text, coefficient", [
        (INT, "y - 3*x^40000", -3), (RAT, "y - 5/2*x^40000", Fraction(-5, 2)),
    ])
    def test_at_a_widened_field(self, kind, text, coefficient):
        p = poly(text, kind)
        assert p._width > module._MIN_WIDTH
        assert p.leading_exponent() == (40000, 0)
        assert p.leading_coefficient() == coefficient
        assert type(p.leading_coefficient()) is type(coefficient)
        assert (p * poly("y", kind)).leading_exponent() == (40000, 1)


class TestExactDivide:
    def test_binomial(self):
        assert exact_divide(poly("(x+y)^2"), poly("x+y")) == poly("x+y")

    def test_not_divisible(self):
        assert exact_divide(poly("x"), poly("y")) is None

    def test_zero_numerator(self):
        assert exact_divide(poly("0"), poly("x+y")).is_zero()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(poly("x"), poly("0"))

    def test_integer_coefficients_matter(self):
        two_x = parse_polynomial("2*x", VARS, INT)
        three = parse_polynomial("3", VARS, INT)
        assert exact_divide(two_x, three) is None
        assert exact_divide(poly("2*x"), poly("3")) == poly("2/3*x")

    @settings(max_examples=200, deadline=None)
    @given(polynomials(), nonzero_polynomials)
    def test_product_division_round_trip(self, a, b):
        assert exact_divide(a * b, b) == a

    @settings(max_examples=200, deadline=None)
    @given(polynomials(kind=INT), nonzero_int_polynomials)
    def test_product_division_round_trip_int(self, a, b):
        assert exact_divide(a * b, b) == a


class TestGcd:
    def test_monomials(self):
        assert poly_gcd(poly("x^2*y"), poly("x*y^2")) == poly("x*y")

    def test_coprime_sum_difference(self):
        # brute-force reasoning: any common divisor has degree <= 1 and must
        # divide the sum 2x and the difference 2y, so it is a constant
        assert poly_gcd(poly("x+y"), poly("x-y")) == poly("1")

    def test_powers(self):
        assert poly_gcd(poly("(x+y)^2"), poly("(x+y)^3")) == poly("(x+y)^2")

    def test_gcd_with_zero_normalizes(self):
        assert poly_gcd(poly("0"), poly("3*x")) == poly("x")
        two_x = parse_polynomial("-2*x", VARS, INT)
        zero = parse_polynomial("0", VARS, INT)
        assert poly_gcd(two_x, zero) == parse_polynomial("2*x", VARS, INT)

    def test_gcd_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(poly("0"), poly("0"))

    def test_int_content_preserved(self):
        a = parse_polynomial("2*x", VARS, INT)
        b = parse_polynomial("4*x", VARS, INT)
        assert poly_gcd(a, b) == parse_polynomial("2*x", VARS, INT)

    def test_monic_over_rat(self):
        g = poly_gcd(poly("2*x + 2*y"), poly("4*x + 4*y"))
        assert g == poly("x + y")

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polynomials, nonzero_polynomials)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert exact_divide(a, g) is not None
        assert exact_divide(b, g) is not None

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polynomials, nonzero_polynomials, nonzero_polynomials)
    def test_common_divisor_divides_gcd(self, a, b, c):
        g = poly_gcd(a * c, b * c)
        assert exact_divide(g, c) is not None

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polynomials, nonzero_polynomials, nonzero_polynomials)
    def test_gcd_scaling(self, a, b, c):
        lhs = poly_gcd(a * c, b * c)
        rhs = (poly_gcd(a, b) * c).normalized()
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(nonzero_int_polynomials, nonzero_int_polynomials, nonzero_int_polynomials)
    def test_gcd_scaling_int(self, a, b, c):
        lhs = poly_gcd(a * c, b * c)
        rhs = (poly_gcd(a, b) * c).normalized()
        assert lhs == rhs


class TestNormalization:
    def test_int_sign(self):
        p = parse_polynomial("-3*x + 1", VARS, INT)
        assert p.normalized() == parse_polynomial("3*x - 1", VARS, INT)

    def test_rat_monic(self):
        assert poly("2*x + 4").normalized() == poly("x + 2")

    def test_units(self):
        assert parse_polynomial("-1", VARS, INT).is_unit()
        assert not parse_polynomial("2", VARS, INT).is_unit()
        assert poly("2/3").is_unit()
        assert not poly("x + 1").is_unit()


class TestPowerCap:
    def test_large_power_of_a_sum_is_a_parse_error(self):
        with pytest.raises(ParseError, match="more than 1000 terms") as err:
            poly("(x+y+1)^200")
        assert err.value.position == 8

    def test_huge_exponent_is_rejected_without_expanding(self):
        with pytest.raises(ParseError, match="more than 1000 terms"):
            poly("(x+1)^" + "9" * 50)

    def test_powers_within_the_cap_still_expand(self):
        # (x+y+1)^43 has comb(45, 2) = 990 terms, the largest power under the cap
        assert len(poly("(x+y+1)^43").terms) == 990
        # a monomial or a constant expands to one term, whatever the exponent
        assert poly("(2*x*y)^300") == poly("2^300*x^300*y^300")
        assert poly("(x+y)^0") == poly("1")

    def test_huge_coefficient_power_is_a_parse_error(self):
        with pytest.raises(ParseError, match="more than 8192 bits") as err:
            parse_polynomial("3^10000000", ("x",), INT)
        assert err.value.position == 2
        with pytest.raises(ParseError, match="more than 8192 bits"):
            poly("(1/3*x)^8000")  # the denominator counts too
        with pytest.raises(ParseError, match="more than 8192 bits"):
            poly("(1000*x + 1)^999")

    def test_coefficient_powers_within_the_cap_still_expand(self):
        assert poly("2^8192") == Polynomial.constant(2 ** 8192, VARS, RAT)
        assert str(poly("2^8192"))  # printable: below the int-to-text digit limit
        assert poly("x^1000000") == Polynomial(VARS, RAT, {(1000000, 0): 1})
        assert poly("(-x*y)^1001") == Polynomial(VARS, RAT, {(1001, 1001): -1})

    @pytest.mark.parametrize(
        "text, kind",
        [("1/2*x + 1/3", RAT), ("2/3*x + 5/6", RAT), ("1/2*x - 1/3*y + 7/12", RAT),
         ("2/3*x", RAT), ("-5/6*x*y^2", RAT), ("3*x + 2", INT), ("-9*y", INT), ("x + y", RAT)],
    )
    def test_cap_matches_the_terms_formula(self, text, kind):
        # over RAT the stored numerators share one denominator, so a coefficient
        # in lowest terms can have fewer bits than its numerator and that
        # denominator: 1/2*x + 1/3 is stored as (3*x + 2)/6
        base = poly(text, kind)
        bits = max((max(abs(c.numerator), c.denominator) - 1).bit_length()
                   for c in base.terms.values())
        cap = module._MAX_POWER_BITS // max(bits, 1)
        for exponent in (1, 2, 3, 43, 999, 1000, 1001, cap - 1, cap, cap + 1, 9000):
            expected = _terms_power_too_large(base, exponent)
            assert module._power_too_large(base, exponent) == expected
        if len(base.terms) == 1 and bits:  # only the bits decide a one-term power
            assert module._power_too_large(base, cap) is None
            assert "8192 bits" in module._power_too_large(base, cap + 1)


def _terms_power_too_large(base, exponent):
    """The power cap computed from ``.terms``, as the parser did before packed storage."""
    bits = max(
        ((max(abs(c.numerator), c.denominator) - 1).bit_length() for c in base.terms.values()),
        default=0,
    )
    if exponent * bits > module._MAX_POWER_BITS:
        return f"power could have coefficients of more than {module._MAX_POWER_BITS} bits"
    count = len(base.terms)
    if count <= 1 or exponent <= 1:
        return None
    terms = f"power could expand to more than {module._MAX_POWER_TERMS} terms"
    if exponent > module._MAX_POWER_TERMS:
        return terms
    k = len(base.variables)
    bound = min(
        math.comb(exponent * base.total_degree() + k, k),
        math.comb(exponent + count - 1, count - 1),
    )
    return terms if bound > module._MAX_POWER_TERMS else None


class TestLongLiterals:
    @pytest.mark.parametrize(
        "text, position",
        [("7" * 5000, 0), ("x^" + "1" * 5000, 2),
         ("1/" + "7" * 5000 + "*x", 0), ("7" * 5000 + "/3*x", 0)],
    )
    def test_overlong_literal_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError, match="integer literal too long") as err:
            poly(text)
        assert err.value.position == position
        assert "set_int_max_str_digits" not in str(err.value)
        assert len(str(err.value)) < 200


# ---------------------------------------------------------------------------
# The heuristic gcd against its own fallback and against sympy
# ---------------------------------------------------------------------------

NAMES = ("x", "y", "z")


def _dense(rng, names, kind, degree):
    """Every monomial of total degree <= degree, coefficients in +-1..3."""
    terms = {}
    for exponents in itertools.product(range(degree + 1), repeat=len(names)):
        if sum(exponents) <= degree:
            terms[exponents] = rng.choice((-3, -2, -1, 1, 2, 3))
    return Polynomial(names, kind, terms)


def _gcd_cases():
    """Seeded (a, b) pairs over INT and RAT in 1-3 variables."""
    rng = random.Random("gcd-differential")
    cases = []
    for kind in (INT, RAT):
        for nvars in (1, 2, 3):
            names = NAMES[:nvars]
            dense = functools.partial(_dense, rng, names, kind)
            top = 3 if nvars < 3 else 2
            for _ in range(2):
                f, g, h = dense(rng.randint(1, top)), dense(rng.randint(1, top)), dense(1)
                cases.append((f * g, f * h))  # shared dense factor
                cases.append((f * g * -6, f * h * 4))  # integer content, signs
                cases.append((dense(2), dense(2)))  # coprime, almost surely
                cases.append((f, f * g))  # one divides the other
            constant = Polynomial.constant(rng.choice((-12, 5, 18)), names, kind)
            cases.append((constant, dense(2) * 6))
        x = Polynomial.variable("x", ("x",), kind)
        cases.append((x ** 60 - 1, x ** 45 - 1))  # sparse, gcd x^15 - 1
        xy = ("x", "y")
        x, y = Polynomial.variable("x", xy, kind), Polynomial.variable("y", xy, kind)
        cases.append((x ** 40 * y - y, x ** 24 * y ** 2 - y ** 2))  # y*(x^8 - 1)
        # equal inputs, constant and not
        half = "1/2" if kind == RAT else "2"
        for names, text in [(("x",), "-6"), (xy, half), (("x",), f"{half}*x^3 - 4*x + 6"),
                            (xy, f"-(x - y^2)*({half}*x*y + 1)")]:
            p = parse_polynomial(text, names, kind)
            cases.append((p, p))
    return cases


GCD_CASES = _gcd_cases()


def _to_sympy(p, sympy):
    domain = sympy.ZZ if p.coeff_kind == INT else sympy.QQ
    terms = {e: sympy.Rational(c.numerator, c.denominator) if p.coeff_kind == RAT else c
             for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, sympy.symbols(p.variables), domain=domain)


def _from_sympy(q, variables, kind):
    coefficient = int if kind == INT else (lambda c: Fraction(int(c.p), int(c.q)))
    terms = {tuple(e): coefficient(c) for e, c in q.terms()}
    return Polynomial(variables, kind, terms)


def _fallback_gcd(monkeypatch, a, b):
    with monkeypatch.context() as patch:
        patch.setattr(module, "_heu_gcd", lambda a, b: None)
        return poly_gcd(a, b)


def _check_cofactors(monkeypatch, path, a, b):
    """``gcd_cofactors(a, b)`` on the heuristic or the fallback path, checked
    against ``poly_gcd`` and the two products."""
    expected = poly_gcd(a, b)
    with monkeypatch.context() as patch:
        if path == "fallback":
            patch.setattr(module, "_heu_gcd", lambda a, b: None)
        g, cofactor_a, cofactor_b = gcd_cofactors(a, b)
    assert g * cofactor_a == a
    assert g * cofactor_b == b
    assert g == expected
    return g, cofactor_a, cofactor_b


SPARSE_GCDS = """
from graphsplines import INT, parse_polynomial, poly_gcd
for a, b in [("x^20000 + 1", "2*x^10000 + 1"), ("3*x^30000 + x + 1", "2*x^15000 + 3")]:
    print(poly_gcd(parse_polynomial(a, ("x",), INT), parse_polynomial(b, ("x",), INT)))
"""


class TestHeuristicGcd:
    @pytest.mark.parametrize("a, b", GCD_CASES)
    def test_matches_the_subresultant_fallback(self, monkeypatch, a, b):
        # the fallback is the primitive remainder sequence
        assert poly_gcd(a, b) == _fallback_gcd(monkeypatch, a, b)

    @pytest.mark.parametrize("a, b", GCD_CASES)
    def test_matches_sympy(self, a, b):
        sympy = pytest.importorskip("sympy")
        expected = _to_sympy(a, sympy).gcd(_to_sympy(b, sympy))
        assert poly_gcd(a, b) == _from_sympy(expected, a.variables, a.coeff_kind).normalized()

    @pytest.mark.parametrize("a, b", GCD_CASES)
    def test_lcm_through_the_cofactor(self, a, b):
        ring = PolynomialRing(a.coeff_kind, a.variables)
        old = ring.normalize(ring.exact_div(ring.mul(a, b), ring.gcd(a, b)))
        assert ring.lcm(a, b) == old

    @pytest.mark.parametrize("path", ["heuristic", "fallback"])
    @pytest.mark.parametrize("a, b", GCD_CASES)
    def test_poly_lcm(self, monkeypatch, path, a, b):
        expected = exact_divide(a * b, poly_gcd(a, b)).normalized()
        with monkeypatch.context() as patch:
            if path == "fallback":
                patch.setattr(module, "_heu_gcd", lambda a, b: None)
            assert poly_lcm(a, b) == poly_lcm(b, a) == expected

    @pytest.mark.parametrize("a, b", [("0", "x + y"), ("x*y - 3", "0"), ("0", "0")])
    def test_poly_lcm_of_zero_is_rejected(self, a, b):
        with pytest.raises(ValueError, match="lcm requires nonzero arguments"):
            poly_lcm(poly(a, RAT), poly(b, RAT))

    def test_poly_lcm_builds_no_rational_cofactor(self, monkeypatch):
        # over QQ the only rational polynomials built are the integer lcm of
        # the numerators, viewed over QQ, and its normalized form; the
        # integer products and quotients are built by _make too
        built = []
        build = module._make

        def counting(variables, coeff_kind, *args):
            if coeff_kind == RAT:
                built.append(args)
            return build(variables, coeff_kind, *args)

        a = poly("(1/2*x*y - 2/3*y + 1)*(3/4*y^2 - x)", RAT)
        b = poly("(-5/3*y + x + 1/2)*(3/4*y^2 - x)", RAT)
        expected = exact_divide(a * b, poly_gcd(a, b)).normalized()
        monkeypatch.setattr(module, "_make", counting)
        assert poly_lcm(a, b) == expected
        assert len(built) == 2

    @pytest.mark.parametrize("path", ["heuristic", "fallback"])
    @pytest.mark.parametrize("a, b", GCD_CASES)
    def test_cofactors(self, monkeypatch, path, a, b):
        _check_cofactors(monkeypatch, path, a, b)

    @pytest.mark.parametrize("path", ["heuristic", "fallback"])
    @pytest.mark.parametrize("kind", [INT, RAT])
    @pytest.mark.parametrize("a, b", [
        ("0", "-2*x*y + 4"), ("-3*x + y", "0"), ("6", "4*x^2 - 2*y"), ("-5", "7"),
        ("2*x^2 - y", "-4"), ("x*y - 3", "x*y - 3"), ("-2*x + 4*y", "-2*x + 4*y"),
        ("x^2 + y", "-x^2 - y"), ("2*x + 2", "4*x + 4"), ("-6*x*y - 6", "4*x*y + 4"),
        ("(x - y)*(3*x + 1)", "(y - x)*(2*y + 5)"),
        # the candidate interpolated from the images is x - y^2, whose
        # leading coefficient is negative
        ("(x - y^2)*(x + 1)", "-2*(x - y^2)*(x + 2)"),
    ])
    def test_cofactors_of_special_inputs(self, monkeypatch, path, kind, a, b):
        for p in _check_cofactors(monkeypatch, path, poly(a, kind), poly(b, kind)):
            assert (p.variables, p.coeff_kind) == (VARS, kind)

    def test_a_fallback_gcd_that_does_not_divide_raises(self, monkeypatch):
        # a wrong primitive remainder sequence result is caught by the
        # cofactor divisions, with an explicit raise that python -O keeps
        monkeypatch.setattr(module, "_heu_gcd", lambda a, b: None)
        monkeypatch.setattr(module, "_primitive_prs_gcd",
                            lambda f, g, sub_vars: {1: Polynomial.constant(1, sub_vars, INT)})
        with pytest.raises(ArithmeticError):
            gcd_cofactors(poly("x + 1", INT), poly("x + 2", INT))

    def test_cofactors_of_zero_and_zero_are_rejected(self):
        with pytest.raises(ValueError):
            gcd_cofactors(poly("0", INT), poly("0", INT))

    def test_every_xi_meets_the_soundness_bound(self, monkeypatch):
        # xi = 2^bits >= 2*min(|a|, |b|) + 2 for the primitive inputs of each
        # level is what makes the divisibility check a proof
        evaluations = []
        evaluate = module._evaluate_last

        def recording(p, bits):
            evaluations.append((p, bits))
            return evaluate(p, bits)

        monkeypatch.setattr(module, "_evaluate_last", recording)
        for a, b in GCD_CASES:
            poly_gcd(a, b)
        assert evaluations
        for (a, bits), (b, same_bits) in zip(evaluations[::2], evaluations[1::2]):
            assert bits == same_bits
            norm = min(max(map(abs, p.terms.values())) for p in (a, b))
            assert 2 ** bits >= 2 * norm + 2

    def test_the_bound_is_needed(self, monkeypatch):
        # why the bound above is asserted: with the norm taken as 0 the points
        # are 2^5, 2^7 and 2^9; the first two candidates, 8x + 12 and x + 44,
        # divide neither input, but at 2^9 the images of (x-300)(x+1) and
        # (x-300)(x+2) have the gcd 212, a single digit, so the candidate 1
        # divides both inputs and the gcd x - 300 is missed
        a = parse_polynomial("(x-300)*(x+1)", ("x",), INT)
        b = parse_polynomial("(x-300)*(x+2)", ("x",), INT)
        assert poly_gcd(a, b) == parse_polynomial("x-300", ("x",), INT)
        monkeypatch.setattr(module, "_max_norm", lambda p: 0)
        assert poly_gcd(a, b) == parse_polynomial("1", ("x",), INT)

    def test_unit_candidate_takes_no_trial_division(self, monkeypatch):
        divisors = []
        divide = module.exact_divide

        def recording(numerator, denominator):
            divisors.append(denominator)
            return divide(numerator, denominator)

        monkeypatch.setattr(module, "exact_divide", recording)
        for a, b in [("x + 1", "x + 2"), ("2*x + 3*y + 1", "x - y"), ("x*y + 5", "x^2 - y")]:
            a, b = (parse_polynomial(p, ("x", "y"), INT) for p in (a, b))
            assert poly_gcd(a, b) == parse_polynomial("1", ("x", "y"), INT)
        assert divisors == []
        a = parse_polynomial("(x - 3)*(x + y)", ("x", "y"), INT)
        b = parse_polynomial("(x - 3)*(x - y)", ("x", "y"), INT)
        assert poly_gcd(a, b) == parse_polynomial("x - 3", ("x", "y"), INT)
        assert divisors  # a candidate that is not constant is still checked

    @pytest.mark.parametrize("a, b", [c for c in GCD_CASES if len(c[0].variables) == 1])
    def test_wrong_candidates_fall_back_after_six_tries(self, monkeypatch, a, b):
        expected = _fallback_gcd(monkeypatch, a, b)
        tries, fallbacks = [], []
        primitive_prs = module._primitive_prs_gcd

        def wrong_candidate(image, bits, variables):
            # never divides a nonzero input of lower degree
            tries.append(bits)
            return Polynomial.variable(variables[-1], variables, INT) ** 100 + 1

        def counting(*args):
            fallbacks.append(args)
            return primitive_prs(*args)

        monkeypatch.setattr(module, "_interpolate_last", wrong_candidate)
        monkeypatch.setattr(module, "_primitive_prs_gcd", counting)
        assert poly_gcd(a, b) == expected
        if not (a.is_constant() or b.is_constant()):
            assert len(tries) == module._HEU_GCD_TRIES == 6
            assert tries == sorted(set(tries))  # the point grows between tries
            assert len(fallbacks) == 1

    def test_dense_trivariate_inputs_need_no_fallback(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("primitive PRS reached")

        monkeypatch.setattr(module, "_primitive_prs_gcd", unreachable)
        for a, b in GCD_CASES:
            if a.coeff_kind == INT and len(a.variables) == 3:
                poly_gcd(a, b)

    def test_huge_degree_gives_up_before_evaluating(self):
        x = Polynomial.variable("x", ("x",), INT)
        a, b = x ** 100000 - 1, x ** 75000 - 1
        assert module._heu_gcd(a, b) is None
        g, _, _ = module._heu_gcd(x ** 6000 - 1, x ** 4500 - 1)
        assert g == x ** 1500 - 1

    def test_sparse_labels_past_the_budget_fall_back_in_a_few_steps(self):
        # both pairs pass the image budget; a pseudo-remainder scaled by a
        # power of lc(g) as large as the degree gap took seconds on the first
        # and minutes on the second, so they run in a child process whose
        # timeout turns such a regression into a failure, not a hang
        x = Polynomial.variable("x", ("x",), INT)
        pairs = [(x ** 20000 + 1, 2 * x ** 10000 + 1), (3 * x ** 30000 + x + 1, 2 * x ** 15000 + 3)]
        assert [module._heu_gcd(a, b) for a, b in pairs] == [None, None]
        done = subprocess.run([sys.executable, "-c", SPARSE_GCDS], env=source_env(),
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "1"]

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_degree_near_the_budget_needs_no_fallback(self, monkeypatch, kind):
        # 2^5 is the first point, and 5 bits times degree 13001 is just
        # within the image budget
        def unreachable(*args):
            raise AssertionError("primitive PRS reached")

        monkeypatch.setattr(module, "_primitive_prs_gcd", unreachable)
        x = Polynomial.variable("x", ("x",), kind)
        assert poly_gcd(x ** 13000 + 1, x ** 13001 + 1) == Polynomial.constant(1, ("x",), kind)


# ---------------------------------------------------------------------------
# The packed integer kernel against the schoolbook oracles and sympy
# ---------------------------------------------------------------------------


def _random_polynomial(rng, names, kind, terms, degree, bits):
    """Up to ``terms`` random terms of total degree <= degree, never zero."""
    out = {}
    while not out:
        for _ in range(rng.randint(1, terms)):
            exponents = [0] * len(names)
            for _ in range(rng.randint(0, degree) if names else 0):
                exponents[rng.randrange(len(names))] += 1
            numerator = rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
            value = numerator if kind == INT else Fraction(numerator, rng.randint(1, 12))
            out[tuple(exponents)] = value
        out = Polynomial(names, kind, out).terms
    return Polynomial(names, kind, out)


def _kernel_cases():
    """Seeded (a, b) pairs over INT and RAT in 0-3 variables."""
    rng = random.Random("integer-kernel")
    cases = []
    for kind in (INT, RAT):
        for nvars in range(4):
            names = NAMES[:nvars]
            for bits in (3, 3, 3, 70):  # small and large (multi-digit) coefficients
                a = _random_polynomial(rng, names, kind, 8, 4, bits)
                b = _random_polynomial(rng, names, kind, 5, 3, bits)
                cases.append((a, b))
    return cases


KERNEL_CASES = _kernel_cases()


def _least_monomial(p):
    return min(p.terms, key=lambda e: (sum(e), e))


def _least_monomial_cases():
    """Seeded (numerator, divisor) pairs over INT and RAT in 1-3 variables.

    Each divisor is a multiple of one variable u. Its product with a
    cofactor passes the least-monomial check; the product plus 1 fails it
    with a smaller least monomial; a multiple of w^3 for another variable w
    mostly fails it with a larger one; the product plus a random term may
    do either.
    """
    rng = random.Random("least-monomial")
    cases = []
    for kind in (INT, RAT):
        for nvars in range(1, 4):
            names = NAMES[:nvars]
            for _ in range(6):
                a = _random_polynomial(rng, names, kind, 5, 3, 8)
                b = _random_polynomial(rng, names, kind, 4, 3, 8)
                u, w = rng.sample(names, 2) if nvars > 1 else names * 2
                b = b * Polynomial.variable(u, names, kind)
                term = _random_polynomial(rng, names, kind, 1, 5, 8)
                cases += [(a * b, b), (a * b + 1, b), (a * b + term, b)]
                if u != w:
                    cases.append((a * Polynomial.variable(w, names, kind) ** 3, b))
    return cases


LEAST_MONOMIAL_CASES = _least_monomial_cases()


class TestIntegerKernel:
    @pytest.mark.parametrize("a, b", KERNEL_CASES)
    def test_product_matches_schoolbook(self, a, b):
        expected = oracles.schoolbook_multiply(a, b)
        assert a * b == expected
        assert b * a == expected
        assert all(type(c) is (int if a.coeff_kind == INT else Fraction)
                   for c in (a * b).terms.values())

    @pytest.mark.parametrize("a, b", KERNEL_CASES)
    def test_quotient_of_a_product(self, a, b):
        assert exact_divide(a * b, b) == a
        assert oracles.scanning_divide(a * b, b) == a

    @pytest.mark.parametrize("a, b", KERNEL_CASES)
    def test_perturbed_numerator_matches_scanning_division(self, a, b):
        rng = random.Random(str(a) + str(b))
        for _ in range(3):
            term = _random_polynomial(rng, a.variables, a.coeff_kind, 1, 4, 3)
            numerator = a * b + term
            assert exact_divide(numerator, b) == oracles.scanning_divide(numerator, b)

    def test_zero_variables(self):
        for kind in (INT, RAT):
            six, minus_four = (Polynomial.constant(c, (), kind) for c in (6, -4))
            assert (six * minus_four).terms == {(): -24}
            assert exact_divide(six * minus_four, six) == minus_four
        six, four = (Polynomial.constant(c, (), INT) for c in (6, 4))
        assert exact_divide(six, four) is None
        six, four = (Polynomial.constant(c, (), RAT) for c in (6, 4))
        assert exact_divide(six, four) == Polynomial.constant(Fraction(3, 2), (), RAT)

    def test_denominators_that_do_not_cancel(self):
        assert exact_divide(poly("1/2*x + 1/3"), poly("3*x + 2")) == poly("1/6")
        # a divisor with integer content: dividing by it over QQ is fine
        assert exact_divide(poly("x + 2"), poly("2*x + 4")) == poly("1/2")
        assert exact_divide(poly("2/3*x^2 - 2/3*y^2"), poly("4/5*x + 4/5*y")) == \
            poly("5/6*x - 5/6*y")

    def test_products_that_cancel(self):
        for kind in (INT, RAT):
            product = poly("x + y", kind) * poly("x - y", kind)
            assert product == poly("x^2 - y^2", kind)
            assert (product * poly("0", kind)).is_zero()
            assert (poly("x^2 - y^2", kind) - product).is_zero()

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_leading_monomial_failure(self, kind):
        assert exact_divide(poly("x^2 + 1", kind), poly("y", kind)) is None
        assert exact_divide(poly("x", kind), poly("x^2", kind)) is None

    def test_leading_coefficient_failure_over_int(self):
        assert exact_divide(poly("x + 1", INT), poly("2*x + 2", INT)) is None
        assert exact_divide(poly("3*x*y + 6", INT), poly("2*x*y + 4", INT)) is None

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_late_term_failure(self, kind):
        # the first two steps divide; the constant left over does not
        numerator = poly("(x + 1)*(x + 2) + 1", kind)
        assert exact_divide(numerator, poly("x + 1", kind)) is None
        numerator = poly("(x + y)*(x^2 + x*y + y^2) + y", kind)
        assert exact_divide(numerator, poly("x + y", kind)) is None

    def test_late_coefficient_failure_over_int(self):
        numerator = poly("(x + 1)*(2*x + 3) + 2", INT)
        assert exact_divide(numerator, poly("2*x + 3", INT)) is None

    def test_high_degree_fields(self):
        # exponents that fill every bit of their packed field below the guard,
        # and products and quotients whose degree outgrows the field
        for degree in (3, 7, 8, 15, 16, 31, 2 ** 14, 2 ** 15 - 1, 2 ** 15, 2 ** 16):
            a = poly(f"x^{degree} + x*y^{degree - 1} + y", INT)
            b = poly(f"y^{degree} - x", INT)
            assert a * b == oracles.schoolbook_multiply(a, b)
            assert exact_divide(a * b, b) == a
            assert exact_divide(a * b, a) == b

    def test_least_monomial_check_matches_scanning_division(self):
        fired = {"smaller": 0, "not dividing": 0}
        for numerator, b in LEAST_MONOMIAL_CASES:
            ours = exact_divide(numerator, b)
            assert ours == oracles.scanning_divide(numerator, b)
            least_n, least_b = _least_monomial(numerator), _least_monomial(b)
            if not all(x >= y for x, y in zip(least_n, least_b)):
                assert ours is None
                smaller = (sum(least_n), least_n) < (sum(least_b), least_b)
                fired["smaller" if smaller else "not dividing"] += 1
        # the check fires on both kinds of least monomial, and not on the rest
        assert all(fired.values()) and sum(fired.values()) < len(LEAST_MONOMIAL_CASES)

    def test_least_monomial_check_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for numerator, b in LEAST_MONOMIAL_CASES:
            rational = [_to_sympy(p, sympy).set_domain(sympy.QQ) for p in (numerator, b)]
            quotient, remainder = sympy.div(*rational)
            divisible = remainder.is_zero and (
                b.coeff_kind == RAT or all(c.q == 1 for c in quotient.coeffs())
            )
            expected = _from_sympy(quotient, b.variables, b.coeff_kind) if divisible else None
            assert exact_divide(numerator, b) == expected

    @pytest.mark.parametrize("a, b", KERNEL_CASES)
    def test_matches_sympy(self, a, b):
        sympy = pytest.importorskip("sympy")
        if not a.variables:
            return  # sympy polynomials need a generator
        product = a * b
        expected = sympy.expand(_to_sympy(a, sympy).as_expr() * _to_sympy(b, sympy).as_expr())
        assert product == _from_sympy(
            sympy.Poly(expected, *sympy.symbols(a.variables)), a.variables, a.coeff_kind
        )
        term = _random_polynomial(random.Random(str(a)), a.variables, a.coeff_kind, 1, 4, 3)
        for numerator in (product, product + term):
            rational = [_to_sympy(p, sympy).set_domain(sympy.QQ) for p in (numerator, b)]
            quotient, remainder = sympy.div(*rational)
            ours = exact_divide(numerator, b)
            divisible = remainder.is_zero and (
                a.coeff_kind == RAT or all(c.q == 1 for c in quotient.coeffs())
            )
            if divisible:
                assert ours == _from_sympy(quotient, a.variables, a.coeff_kind)
            else:
                assert ours is None


# ---------------------------------------------------------------------------
# Packed storage: field widths, the common denominator and the terms view
# ---------------------------------------------------------------------------

# total degrees on both sides of the first field boundaries: a field of the
# minimum width holds degrees up to 2^15 - 1 below its guard bit
BOUNDARY_DEGREES = (2 ** 15 - 2, 2 ** 15 - 1, 2 ** 15, 2 ** 16 - 1, 2 ** 16)


def _term_difference(a, b):
    """a - b by exponent tuples, built through the validating constructor."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) - c
    return Polynomial(a.variables, a.coeff_kind, out)


def _boundary_cases():
    """(a, b) pairs whose product, or one operand, reaches a field boundary."""
    cases = []
    for kind in (INT, RAT):
        half = "1/2" if kind == RAT else "1"
        for degree in BOUNDARY_DEGREES:
            one = ("x",)
            a = parse_polynomial(f"3*x^{degree - 3} - {half}*x + 5", one, kind)
            b = parse_polynomial(f"x^3 + 2*x^2 - 7", one, kind)
            cases.append((a, b))  # only the product reaches the degree
            c = parse_polynomial(f"x^{degree} - {half}", one, kind)
            cases.append((c, b))  # operands stored at different widths
            a = poly(f"x^{degree - 2}*y - 2*y^{degree // 2} + {half}*x", kind)
            b = poly("x*y + 3*y - 1", kind)
            cases.append((a, b))
            cases.append((poly(f"y^{degree} + x*y^{degree - 1} - {half}", kind), b))
    return cases


BOUNDARY_CASES = _boundary_cases()


def _reduced_form(p):
    """The common denominator is the lcm of the coefficients' reduced denominators."""
    if p.coeff_kind == INT:
        return p._den == 1
    denominators = [c.denominator for c in p.terms.values()]
    return p._den == math.lcm(1, *denominators) and math.gcd(p._den, *p._packed.values()) == 1


class TestPackedStorage:
    @settings(max_examples=200, deadline=None)
    @given(polynomials(max_degree=4))
    def test_is_homogeneous_matches_the_terms(self, p):
        assert p.is_homogeneous() == (len({sum(e) for e in p.terms}) <= 1)

    @pytest.mark.parametrize("text, homogeneous", [
        ("0", True), ("3", True), ("x^2 - 3*x*y", True), ("x^2 - y", False),
        ("x^40000*y + y^40001", True), ("x^40000*y + y^40000", False),
        ("(x + y)^3 - x^3", True), ("(x + y + 1)^2 - 2*x - 2*y - 1", True),
    ])
    def test_is_homogeneous(self, text, homogeneous):
        # the last one is x^2 + 2*x*y + y^2 once its lower-degree terms cancel
        assert poly(text).is_homogeneous() is homogeneous

    @pytest.mark.parametrize("a, b", BOUNDARY_CASES)
    def test_products_across_field_boundaries(self, a, b):
        expected = oracles.schoolbook_multiply(a, b)
        assert a * b == expected
        assert b * a == expected
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()
        assert (a * b).terms == expected.terms

    @pytest.mark.parametrize("a, b", BOUNDARY_CASES)
    def test_quotients_across_field_boundaries(self, a, b):
        product = a * b
        assert exact_divide(product, b) == a
        assert exact_divide(product, a) == b
        assert oracles.scanning_divide(product, b) == a
        numerator = product + Polynomial.variable("x", a.variables, a.coeff_kind)
        assert exact_divide(numerator, b) == oracles.scanning_divide(numerator, b)
        assert exact_divide(b, product) is None  # the divisor has the higher degree

    @pytest.mark.parametrize("a, b", BOUNDARY_CASES)
    def test_differences_across_field_boundaries(self, a, b):
        product = a * b
        for left, right in ((product, a), (a, product), (product, b * 2), (a, b)):
            assert left - right == _term_difference(left, right)
            assert (left - right) + right == left
            assert -(right - left) == left - right

    def test_equal_polynomials_at_different_widths_hash_equal(self):
        for kind in (INT, RAT):
            high = poly("x^40000", kind)
            one = Polynomial.constant(1, VARS, kind)
            cancelled = high - high + 1
            assert cancelled._width != one._width  # the two really differ in width
            assert cancelled == one and one == cancelled
            assert hash(cancelled) == hash(one)
            assert {cancelled: "found"}[one] == "found"
            y = poly("1/3*y" if kind == RAT else "3*y", kind)
            rest = (high + y) - high
            assert rest == y and hash(rest) == hash(y)
            assert rest != y + 1

    @pytest.mark.parametrize("a, b", [c for c in KERNEL_CASES if c[0].coeff_kind == RAT]
                             + [c for c in BOUNDARY_CASES if c[0].coeff_kind == RAT])
    def test_rational_results_keep_a_reduced_denominator(self, a, b):
        product = a * b
        results = [product, a - b, a + b, -a, a.normalized(), product.normalized(),
                   exact_divide(product, b), exact_divide(product * 6, b * 4),
                   a * Fraction(6, 35), (a * 3) - (a * 2)]
        for result in results:
            assert _reduced_form(result)
        assert (a * 3) - (a * 2) == a

    def test_denominators_cancel_to_one(self):
        assert poly("2/3*x") * poly("3/2") == poly("x")
        assert (poly("2/3*x") * poly("3/2"))._den == 1
        difference = poly("1/6*x + 1/2") - poly("1/6*x")
        assert difference == poly("1/2") and difference._den == 2
        assert exact_divide(poly("1/4*x^2 - 1/4"), poly("1/2*x + 1/2"))._den == 2

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_terms_is_a_stable_dict(self, kind):
        p = poly("(1/2*x - y + 3)^3" if kind == RAT else "(2*x - y + 3)^3", kind)
        for q in (p, p * p, exact_divide(p * p, p), p - p, Polynomial.variable("y", VARS, kind)):
            terms = q.terms
            assert type(terms) is dict
            assert all(type(c) is (int if kind == INT else Fraction) for c in terms.values())
            assert all(c for c in terms.values())
            snapshot = dict(terms)
            assert q.terms == snapshot
            assert Polynomial(VARS, kind, snapshot) == q

    @pytest.mark.parametrize(
        "kind, terms, error, message",
        [
            (INT, {(1,): 1}, ValueError, "bad exponent vector"),
            (INT, {(1, 0, 0): 1}, ValueError, "bad exponent vector"),
            (RAT, {(-1, 0): 1}, ValueError, "bad exponent vector"),
            (RAT, {(1.0, 0): 1}, ValueError, "bad exponent vector"),
            (INT, {(0, 0): Fraction(1, 2)}, RingMismatchError, "not an integer coefficient"),
            (INT, {(0, 0): 1.0}, RingMismatchError, "not an integer coefficient"),
            (RAT, {(0, 0): 0.5}, RingMismatchError, "not a rational coefficient"),
            (RAT, {(0, 0): True}, RingMismatchError, "bool is not a valid coefficient"),
            ("real", {(0, 0): 1}, ValueError, "unknown coefficient kind"),
        ],
    )
    def test_constructor_still_validates(self, kind, terms, error, message):
        with pytest.raises(error, match=message):
            Polynomial(VARS, kind, terms)

    @pytest.mark.parametrize("kind", [INT, RAT])
    def test_packed_numerators(self, kind):
        p = poly("(1/2*x - 2/3*y + 3)^3" if kind == RAT else "(2*x - y + 3)^3", kind)
        high = poly("x^40000 - 1", kind) - poly("x^40000", kind)  # degree 0 at a wide field
        for q, degree in ((p, 3), (p, 5), (p, 2 ** 16), (high, 2)):
            numerators, den = module.packed_numerators(q, degree)
            expected = {
                module.pack_exponents(e, degree): c * den for e, c in q.terms.items()
            }
            assert numerators == expected
            assert all(type(c) is int for c in numerators.values())
            assert den == (1 if kind == INT else math.lcm(*(Fraction(c).denominator
                                                            for c in q.terms.values())))
            # integer order on the keys is grlex
            ordered = sorted(q.terms, key=lambda e: (sum(e), e))
            assert sorted(numerators) == [module.pack_exponents(e, degree) for e in ordered]

    def test_cheap_constructors_validate(self):
        with pytest.raises(ValueError, match="unknown coefficient kind"):
            Polynomial.constant(1, VARS, "real")
        with pytest.raises(ValueError, match="unknown coefficient kind"):
            Polynomial.zero(VARS, "real")
        with pytest.raises(RingMismatchError, match="bool is not a valid coefficient"):
            Polynomial.constant(True, VARS, INT)
        with pytest.raises(ValueError, match="unknown variable"):
            Polynomial.variable("z", VARS, RAT)
        for kind in (INT, RAT):
            assert Polynomial.constant(0, VARS, kind) == Polynomial.zero(VARS, kind)
            assert Polynomial.constant(-4, VARS, kind) == Polynomial(VARS, kind, {(0, 0): -4})
            assert Polynomial.variable("y", VARS, kind) == Polynomial(VARS, kind, {(0, 1): 1})
        assert Polynomial.constant(Fraction(6, 4), VARS, RAT).terms == {(0, 0): Fraction(3, 2)}


# ---------------------------------------------------------------------------
# Evaluation and interpolation in the last variable on the packed maps
# ---------------------------------------------------------------------------


def _evaluation_cases():
    """Seeded INT polynomials in 1-3 variables, plus total degrees at field boundaries."""
    rng = random.Random("evaluate-last")
    cases = []
    for nvars in range(1, 4):
        for bits in (3, 3, 70):
            cases.append(_random_polynomial(rng, NAMES[:nvars], INT, 8, 5, bits))
    for degree in BOUNDARY_DEGREES:
        # the high degree sits in x: a high power of the evaluated y would
        # make an image of millions of bits
        cases.append(poly(f"x^{degree - 2}*y - 2*x^{degree // 2}*y^3 + 3*x", INT))
        cases.append(poly(f"x^{degree} + x^{degree - 1}*y^2 - 5", INT))
    return cases


EVALUATION_CASES = _evaluation_cases()


class TestEvaluateInterpolate:
    @pytest.mark.parametrize("p", EVALUATION_CASES)
    def test_matches_the_tuple_oracles(self, p):
        # the least point the determinant would use for p's norm, and a wide one
        for bits in ((2 * _max_norm(p) + 1).bit_length(), 80):
            xi = 2 ** bits
            image = module._evaluate_last(p, bits)
            assert image == oracles.tuple_evaluate_last(p, xi)
            assert image.terms == oracles.tuple_evaluate_last(p, xi).terms
            assert module._interpolate_last(image, bits, p.variables) == p
            assert module._interpolate_last(image, bits, p.variables) == (
                oracles.tuple_interpolate_last(image, xi, p.variables)
            )

    @pytest.mark.parametrize("p", EVALUATION_CASES)
    def test_one_digit_images_match_the_tuple_oracle(self, p):
        # the terms of p free of the last variable are their own image, and
        # each of its coefficients is one digit at a point above twice the norm
        free = Polynomial(p.variables, INT, {e: c for e, c in p.terms.items() if not e[-1]})
        image = Polynomial(p.variables[:-1], INT, {e[:-1]: c for e, c in free.terms.items()})
        bits = (2 * _max_norm(p) + 1).bit_length()
        result = module._interpolate_last(image, bits, p.variables)
        assert result == free == oracles.tuple_interpolate_last(image, 2 ** bits, p.variables)

    def test_digits_match_the_peeling_loop(self):
        rng = random.Random("symmetric-digits")
        for bits in range(2, 321):
            B = 2 ** bits
            k = rng.randrange(1, 40)
            # powers of the base, their neighbours and halves, and the largest
            # value k digits hold, B/2 in every digit: its negative has no
            # digit -B/2 and carries through every position
            largest = B // 2 * (B ** k - 1) // (B - 1)
            values = [B ** k + 1, B ** k - 1, B ** k // 2, largest, largest + 1]
            # the ends of the one-digit range [-offset, offset + 1], and past them
            offset = B // 2 - 1
            values += [offset, offset + 1, offset + 2]
            for _ in range(2):
                values.append(rng.randrange(10 ** rng.randrange(0, 2000) + 1))
            for c in values:
                for signed in (c, -c):
                    assert _digits(signed, bits) == oracles.peeled_digits(signed, B)

    def test_interpolation_widens_past_the_guard_bit(self):
        # the digits of 4^32768 at 2^2 put x^32768 on a 16-bit field's guard bit
        power = 2 ** 15
        x = Polynomial.variable("x", ("x",), INT)
        result = module._interpolate_last(Polynomial.constant(4 ** power, (), INT), 2, ("x",))
        assert result == x ** power and result._width > module._MIN_WIDTH
        yx = ("y", "x")
        y = Polynomial.variable("y", ("y",), INT)
        image = Polynomial.constant(-(4 ** power), ("y",), INT) * y ** 5
        result = module._interpolate_last(image, 2, yx)
        y, x = (Polynomial.variable(name, yx, INT) for name in yx)
        expected = -(y ** 5 * x ** power)
        assert result == expected and result._width > module._MIN_WIDTH


def _max_norm(p):
    return max(abs(c) for c in p.terms.values())


def _digits(c, bits):
    """The base-2^bits digits ``_interpolate_last`` reads from ``c``, lowest first,
    up to the top nonzero one."""
    terms = module._interpolate_last(Polynomial.constant(c, (), INT), bits, ("x",)).terms
    digits = [0] * (max(terms, default=(-1,))[0] + 1)
    for (power,), digit in terms.items():
        digits[power] = digit
    return digits


# ---------------------------------------------------------------------------
# Splitting off and joining back the last variable on the packed maps
# ---------------------------------------------------------------------------


def _split_cases():
    """Seeded INT polynomials in 1-3 variables, and last-variable degrees at field boundaries."""
    rng = random.Random("split-last")
    cases = []
    for nvars in range(1, 4):
        names = NAMES[:nvars]
        for bits in (3, 70):
            cases.append(_random_polynomial(rng, names, INT, 8, 5, bits))
        first, last = names[0], names[-1]
        for degree in (2 ** 15 - 1, 2 ** 15, 2 ** 16):
            text = f"{last}^{degree} - 3*{last}^{degree - 1} + 5"
            if nvars > 1:
                text += f" + 2*{first}*{last}^{degree // 2} - {first}^3*{last}"
            cases.append(parse_polynomial(text, names, INT))
    return cases


SPLIT_CASES = _split_cases()


class TestSplitJoin:
    @pytest.mark.parametrize("p", SPLIT_CASES)
    def test_matches_the_tuple_oracles(self, p):
        split = module._split_last(p)
        expected = oracles.tuple_split_last(p)
        assert split == expected
        assert {d: c.terms for d, c in split.items()} == {d: c.terms for d, c in expected.items()}
        joined = module._join_last(p.variables, split)
        assert joined == p == oracles.tuple_join_last(p.variables, split)
        assert joined.terms == p.terms

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_join_widens_past_the_guard_bit(self, nvars):
        # every coefficient sits at the minimum width, but the joined total
        # degree reaches that width's guard bit
        names = NAMES[:nvars]
        sub_vars = names[:-1]
        one = Polynomial.constant(1, sub_vars, INT)
        coefficient = one * 3
        for name in sub_vars:
            coefficient = coefficient * Polynomial.variable(name, sub_vars, INT)
        univariate = {2 ** 15 - len(sub_vars): coefficient, 2: one * -4, 0: one + one}
        assert all(c._width == module._MIN_WIDTH for c in univariate.values())
        joined = module._join_last(names, univariate)
        assert joined._width > module._MIN_WIDTH
        assert joined.total_degree() == 2 ** 15
        assert joined == oracles.tuple_join_last(names, univariate)
        assert module._split_last(joined) == univariate

    def test_join_of_coefficients_at_different_widths(self):
        sub_vars = ("x", "y")
        high = Polynomial.variable("x", sub_vars, INT) ** 40000
        wide = (high + Polynomial.variable("y", sub_vars, INT)) - high
        narrow = Polynomial.constant(5, sub_vars, INT)
        assert wide._width > narrow._width
        univariate = {3: wide, 0: narrow}
        joined = module._join_last(NAMES, univariate)
        assert joined == oracles.tuple_join_last(NAMES, univariate)
        assert str(joined) == "y*z^3 + 5"

    @pytest.mark.parametrize("f,g", [("0", "x*z + y"), ("x*z + 3", "y*z^2 - x"),
                                     ("x*y^4 + 2", "3*z - x"), ("y + 1", "x*z^3 - 1")])
    def test_pseudo_remainder_of_a_lower_degree_is_the_dividend(self, f, g):
        # the loop stops before its first step, so no power of lc(g) is applied
        f, g = (module._split_last(parse_polynomial(t, NAMES, INT)) for t in (f, g))
        assert module._uni_prem(f, g) == f

    @pytest.mark.parametrize("f,g,steps", [
        ("z^20000 + 1", "2*z^10000 + 1", 2), ("3*z^30000 + z + 1", "2*z^15000 + 3", 2),
        ("x*z^3 + y*z + 1", "y*z^2 - x", 1), ("y*z^40 + x*z^7 + 1", "(x + y)*z^20 - 1", 2),
        ("z^5 + 1", "x*z + y", 5),
    ])
    def test_pseudo_remainder_is_scaled_once_per_step_taken(self, f, g, steps):
        # r = lc(g)^k * f - q * g for the k steps the division takes, not for
        # deg f - deg g + 1, so g divides lc(g)^k * f - r and deg r < deg g
        f, g = (parse_polynomial(t, NAMES, INT) for t in (f, g))
        uni_g = module._split_last(g)
        r = module._uni_prem(module._split_last(f), uni_g)
        assert module._uni_degree(r) < module._uni_degree(uni_g)
        lc = module._join_last(NAMES, {0: uni_g[max(uni_g)]})
        assert exact_divide(lc ** steps * f - module._join_last(NAMES, r), g) is not None


# ---------------------------------------------------------------------------
# One stored form: the packed map, with ``terms`` a fresh view of it
# ---------------------------------------------------------------------------


class TestOneStoredForm:
    @pytest.mark.parametrize("kind", [INT, RAT])
    @pytest.mark.parametrize("text", ["x + 1", "3*x^2*y - 2*y + 7", "x^40000*y - x^40000*y + x"])
    def test_changing_terms_leaves_the_polynomial_alone(self, monkeypatch, kind, text):
        if kind == RAT:
            text = text.replace("3*", "3/4*")
        p, q = poly(text, kind), poly(text, kind)
        other = p * poly("x - y + 2", kind)
        assignment = {"x": 2, "y": Fraction(-1, 3)}
        before = (str(p), hash(p), p.substitute(assignment), poly_gcd(p, other),
                  _fallback_gcd(monkeypatch, p, other), p.terms)
        terms = p.terms
        terms[(0, 0)] = 7
        terms[(5, 5)] = 3
        del terms[next(iter(p.terms))]
        after = (str(p), hash(p), p.substitute(assignment), poly_gcd(p, other),
                 _fallback_gcd(monkeypatch, p, other), p.terms)
        assert after == before
        assert p == q and hash(p) == hash(q)
        assert p.terms is not p.terms
        p.terms.clear()
        assert p and p == q and str(p) == str(q)

    def test_equal_polynomials_hash_equal(self):
        bases = [a for a, _ in KERNEL_CASES if a.variables == NAMES[:2]]
        bases += [poly("0"), poly("1"), poly("0", INT), poly("x", INT), poly("-x + 1/2")]
        pool = []
        for p in bases:
            high_p = Polynomial(VARS, p.coeff_kind, {(40000, 1): 1})
            wide = (p + high_p) - high_p  # equal to p, stored at a wider field
            assert wide._width > p._width or p._width > module._MIN_WIDTH
            pool += [p, wide, Polynomial(VARS, p.coeff_kind, p.terms), -(-p), p * 1]
        for p, q in itertools.product(pool, repeat=2):
            if p == q:
                assert hash(p) == hash(q), (p, q)

    def test_only_the_terms_property_reads_terms(self):
        """Inside polynomials.py nothing but the ``terms`` property reads ``.terms``."""
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "terms":
                assert [ast.unparse(d) for d in node.decorator_list] == ["property"]
                allowed |= {id(inner) for inner in ast.walk(node)}
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "terms"
                 and id(node) not in allowed]
        assert reads == [], f"polynomials.py reads .terms on lines {reads}"
        for name in ("_int_polynomial", "_grlex_key", "_zero_of"):
            assert not hasattr(module, name)
        assert "_terms" not in Polynomial.__slots__
