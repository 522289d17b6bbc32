import functools
import itertools
import random
from fractions import Fraction

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
    parse_polynomial,
    poly_gcd,
)
import graphsplines.polynomials as module

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


class TestHeuristicGcd:
    @pytest.mark.parametrize("a, b", GCD_CASES)
    def test_matches_the_subresultant_fallback(self, monkeypatch, a, b):
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

    def test_every_xi_meets_the_soundness_bound(self, monkeypatch):
        # xi >= 2*min(|a|, |b|) + 2 for the primitive inputs of each level is
        # what makes the divisibility check a proof
        evaluations = []
        evaluate = module._evaluate_last

        def recording(p, xi):
            evaluations.append((p, xi))
            return evaluate(p, xi)

        monkeypatch.setattr(module, "_evaluate_last", recording)
        for a, b in GCD_CASES:
            poly_gcd(a, b)
        assert evaluations
        for (a, xi), (b, same_xi) in zip(evaluations[::2], evaluations[1::2]):
            assert xi == same_xi
            norm = min(max(map(abs, p.terms.values())) for p in (a, b))
            assert xi >= 2 * norm + 2

    def test_the_bound_is_needed(self, monkeypatch):
        # why the bound above is asserted: at xi = 29 both images of
        # (x-28)(x+1) and (x-28)(x+2) are coprime (30 and 31), so the
        # candidate 1 divides both inputs and the gcd x - 28 is missed
        a = parse_polynomial("(x-28)*(x+1)", ("x",), INT)
        b = parse_polynomial("(x-28)*(x+2)", ("x",), INT)
        assert poly_gcd(a, b) == parse_polynomial("x-28", ("x",), INT)
        monkeypatch.setattr(module, "_max_norm", lambda p: 0)
        assert poly_gcd(a, b) == parse_polynomial("1", ("x",), INT)

    @pytest.mark.parametrize("a, b", [c for c in GCD_CASES if len(c[0].variables) == 1])
    def test_wrong_candidates_fall_back_after_six_tries(self, monkeypatch, a, b):
        expected = _fallback_gcd(monkeypatch, a, b)
        tries, fallbacks = [], []
        subresultant = module._subresultant_gcd

        def wrong_candidate(image, xi, variables):
            # never divides a nonzero input of lower degree
            tries.append(xi)
            return Polynomial.variable(variables[-1], variables, INT) ** 100 + 1

        def counting(*args):
            fallbacks.append(args)
            return subresultant(*args)

        monkeypatch.setattr(module, "_interpolate_last", wrong_candidate)
        monkeypatch.setattr(module, "_subresultant_gcd", counting)
        assert poly_gcd(a, b) == expected
        if not (a.is_constant() or b.is_constant()):
            assert len(tries) == module._HEU_GCD_TRIES == 6
            assert tries == sorted(set(tries))  # xi grows between tries
            assert len(fallbacks) == 1

    def test_dense_trivariate_inputs_need_no_fallback(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("subresultant PRS reached")

        monkeypatch.setattr(module, "_subresultant_gcd", unreachable)
        for a, b in GCD_CASES:
            if a.coeff_kind == INT and len(a.variables) == 3:
                poly_gcd(a, b)

    def test_huge_degree_gives_up_before_evaluating(self):
        x = Polynomial.variable("x", ("x",), INT)
        a, b = x ** 100000 - 1, x ** 75000 - 1
        assert module._heu_gcd(a, b) is None
        assert module._heu_gcd(x ** 6000 - 1, x ** 4500 - 1) == x ** 1500 - 1
