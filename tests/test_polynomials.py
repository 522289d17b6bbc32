from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphsplines import (
    INT,
    RAT,
    ParseError,
    Polynomial,
    RingMismatchError,
    exact_divide,
    parse_polynomial,
    poly_gcd,
)

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

    @given(polynomials())
    def test_print_parse_round_trip(self, p):
        assert parse_polynomial(str(p), VARS, RAT) == p

    @given(polynomials(kind=INT))
    def test_print_parse_round_trip_int(self, p):
        assert parse_polynomial(str(p), VARS, INT) == p


class TestPrinting:
    def test_graded_lex_descending(self):
        assert str(poly("y + x^2 + x*y + 1")) == "x^2 + x*y + y + 1"

    def test_explicit_operators(self):
        assert str(poly("2*x*y^3")) == "2*x*y^3"

    def test_zero(self):
        assert str(poly("0")) == "0"


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
