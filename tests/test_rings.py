import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphsplines import (
    QQ,
    ZZ,
    IntegerRing,
    ParseError,
    PolynomialRing,
    RationalRing,
    RingMismatchError,
    ring_from_document,
)
from oracles import regex_integer_from_text


class TestIntegerRing:
    def test_add_mul(self):
        assert ZZ.add(2, 3) == 5
        assert ZZ.add(-7, 7) == 0
        assert ZZ.mul(4, 5) == 20
        assert ZZ.mul(9, 0) == 0

    def test_divides(self):
        assert ZZ.divides(4, -12)
        assert not ZZ.divides(5, 12)
        assert ZZ.divides(7, 0)
        assert ZZ.divides(0, 0)
        with pytest.raises(ZeroDivisionError):
            ZZ.divides(0, 3)
        assert ZZ.divides(-3, 12) and not ZZ.divides(-5, 12)
        for a, b in ((True, 4), (2, True), (0, False), (2, 4.0), ("2", 4), (2, Fraction(4))):
            with pytest.raises(RingMismatchError):
                ZZ.divides(a, b)

    def test_gcd(self):
        assert ZZ.gcd(4, 10) == 2
        assert ZZ.gcd(15, 10) == 5
        assert ZZ.gcd(-6, 0) == 6
        with pytest.raises(ValueError):
            ZZ.gcd(0, 0)

    def test_lcm(self):
        assert ZZ.lcm(4, 10) == 20
        assert ZZ.lcm(-7, 1) == 7
        assert ZZ.lcm(4, 5) == 20
        with pytest.raises(ValueError):
            ZZ.lcm(4, 0)

    def test_units(self):
        assert ZZ.is_unit(-1)
        assert ZZ.is_unit(1)
        assert not ZZ.is_unit(2)
        assert not ZZ.is_unit(0)

    def test_normalization(self):
        assert ZZ.normalize(-9) == 9

    def test_text(self):
        assert ZZ.element_from_text("-12") == -12
        with pytest.raises(ParseError):
            ZZ.element_from_text("1.5")
        with pytest.raises(ParseError):
            ZZ.element_from_text("1/2")

    def test_overlong_literal_is_a_parse_error(self):
        with pytest.raises(ParseError, match="integer literal too long"):
            ZZ.element_from_text("7" * 5000)

    def test_mismatch(self):
        with pytest.raises(RingMismatchError):
            ZZ.add(1, Fraction(1, 2))
        with pytest.raises(RingMismatchError):
            ZZ.check(True)

    def test_product_checks_each_item_once(self, monkeypatch):
        checked = []
        check = IntegerRing.check
        monkeypatch.setattr(
            IntegerRing, "check", lambda ring, a: checked.append(a) or check(ring, a)
        )
        assert ZZ.product([2, 3, 5]) == 30
        assert checked == [2, 3, 5]
        assert ZZ.product([]) == 1
        with pytest.raises(RingMismatchError):
            ZZ.product([2, Fraction(1, 2)])


def _read(parse, text):
    """The value ``parse`` reads from ``text``, or the message of its ParseError."""
    try:
        return "value", parse(text)
    except ParseError as exc:
        return "error", str(exc)


# ASCII, Arabic-Indic, extended Arabic-Indic, Devanagari, fullwidth and
# mathematical double-struck digits (all category Nd); superscripts, a
# subscript, a vulgar fraction and a Roman numeral (numeric, not Nd); "_",
# which int() takes between digits and the literal check must not, and
# other punctuation; signs and whitespace, ASCII and not
LITERAL_CHARACTERS = (
    "0123456789" "\u0660\u0663\u0669" "\u06f0\u06f7" "\u0966\u096f" "\uff10\uff19"
    "\U0001d7d8\U0001d7e1" "\u00b2\u00b3\u00b9\u2070" "\u2082" "\u00bd" "\u2167"
    "_.,/eE" "+-\u2212" " \t\n\u00a0\u2003\u3000"
)
literal_bodies = st.text(alphabet=LITERAL_CHARACTERS, max_size=12)
whitespace = st.text(alphabet=" \t\n\r\x0b\x0c\u00a0\u2003\u3000", max_size=3)
signs = st.sampled_from(["", "+", "-", "++", "--", "+-", "-+", "\u2212"])
digit_runs = st.text(alphabet="07\u0663\u0969\uff15\U0001d7dc", min_size=1, max_size=8)


class TestIntegerLiteralCheck:
    """``ZZ.element_from_text`` against the regex check it replaced."""

    @given(st.one_of(
        literal_bodies,
        st.builds(lambda *parts: "".join(parts), whitespace, signs, literal_bodies, whitespace),
        st.builds(lambda *parts: "".join(parts), whitespace, signs, digit_runs,
                  st.sampled_from(["", "_", " ", "\u00b2", "+", "\u0660"]), digit_runs,
                  whitespace),
    ))
    def test_matches_the_regex_check(self, text):
        assert _read(ZZ.element_from_text, text) == _read(regex_integer_from_text, text)

    @pytest.mark.parametrize("text", [
        "", " ", "+", "-", "+-5", "--5", "- 5", "5-", "+\u0663\u0664", "-\uff17",
        "\u00b2", "1\u00b2", "1_000", "_1", "1_", " \t-12\n", "1 2", "\u00a012\u3000",
        "7" * 4300, "7" * 4301, "-" + "7" * 5000, " +" + "\u0663" * 4400 + " ", "7" * 4400 + "x",
    ])
    def test_matches_the_regex_check_on(self, text):
        assert _read(ZZ.element_from_text, text) == _read(regex_integer_from_text, text)


class TestRationalRing:
    def test_field_units(self):
        assert QQ.is_unit(Fraction(2, 3))
        assert not QQ.is_unit(Fraction(0))

    def test_gcd_is_trivial(self):
        assert QQ.gcd(Fraction(3, 4), Fraction(5)) == 1
        assert QQ.gcd(Fraction(0), Fraction(5)) == 1
        with pytest.raises(ValueError):
            QQ.gcd(Fraction(0), Fraction(0))

    def test_exact_division(self):
        assert QQ.exact_div(Fraction(1), Fraction(3)) == Fraction(1, 3)

    def test_text(self):
        assert QQ.element_from_text("3/4") == Fraction(3, 4)
        assert QQ.element_from_text("-5") == Fraction(-5)
        with pytest.raises(ParseError):
            QQ.element_from_text("3/0")
        with pytest.raises(ParseError, match="malformed rational literal"):
            QQ.element_from_text("1/")

    def test_normalization(self):
        # every nonzero rational is a unit, with 1 as its associate
        assert QQ.normalize(Fraction(-3, 4)) == 1 and QQ.normalize(Fraction(0)) == 0

    @pytest.mark.parametrize("text", ["7" * 5000, "1/" + "7" * 5000, "7" * 5000 + "/3"])
    def test_overlong_literal_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="integer literal too long"):
            QQ.element_from_text(text)


class TestPolynomialRingInterface:
    def test_descriptor_round_trip(self):
        ring = PolynomialRing("rat", ["x", "y"])
        assert ring_from_document(ring.to_document()) == ring
        assert ring_from_document(ZZ.to_document()) == ZZ

    @pytest.mark.parametrize("kind, variables, reason", [
        ("real", ["x"], "unknown coefficient kind 'real'"),
        ("int", [], "at least one variable"),
    ])
    def test_constructor_checks(self, kind, variables, reason):
        with pytest.raises(ValueError, match=reason):
            PolynomialRing(kind, variables)

    def test_equal_rings_hash_alike(self):
        ring, again = PolynomialRing("rat", ["x", "y"]), PolynomialRing("rat", ("x", "y"))
        assert ring == again and hash(ring) == hash(again)
        assert repr(ring) == "PolynomialRing('rat', ('x', 'y'))"

    def test_unit_rules(self):
        zx = PolynomialRing("int", ["x"])
        assert zx.is_unit(zx.from_int(-1))
        assert not zx.is_unit(zx.from_int(2))
        qx = PolynomialRing("rat", ["x"])
        assert qx.is_unit(qx.from_int(2))
        assert not qx.is_unit(qx.variable("x") + 1)

    def test_mismatch(self):
        zx = PolynomialRing("int", ["x"])
        qx = PolynomialRing("rat", ["x"])
        with pytest.raises(RingMismatchError):
            zx.add(zx.one, qx.one)

    def test_bad_descriptor(self):
        from graphsplines import GraphError

        with pytest.raises(GraphError):
            ring_from_document({"kind": "poly", "coefficients": "real", "variables": ["x"]})
        with pytest.raises(GraphError):
            ring_from_document({"kind": "poly", "coefficients": "rat", "variables": []})
        with pytest.raises(GraphError):
            ring_from_document({"kind": "galois"})


ZX = PolynomialRing("int", ["x"])
QXY = PolynomialRing("rat", ["x", "y"])
SHARED_RINGS = [ZZ, QQ, ZX, QXY]


class TestSharedRingMethods:
    """The arithmetic and identity methods every ring takes from ``Ring``."""

    @pytest.mark.parametrize("ring", SHARED_RINGS, ids=lambda ring: ring.description)
    @pytest.mark.parametrize(
        "method",
        ["add", "neg", "sub", "mul", "is_zero", "exact_div", "divides", "lcm", "to_text"],
    )
    def test_foreign_elements_raise(self, ring, method):
        other_polynomial = ZX.variable("x") if ring == QXY else QXY.variable("y")
        operate = getattr(ring, method)
        for foreign in (True, "1", other_polynomial):
            args = (foreign,) if method in ("neg", "is_zero", "to_text") else (foreign, ring.one)
            with pytest.raises(RingMismatchError):
                operate(*args)
            if len(args) == 2:
                with pytest.raises(RingMismatchError):
                    operate(ring.one, foreign)

    @pytest.mark.parametrize("ring", SHARED_RINGS, ids=lambda ring: ring.description)
    def test_exact_div_is_checks_then_the_unchecked_quotient(self, ring):
        values = [ring.from_int(k) for k in (-6, -2, -1, 1, 3, 4, 12)]
        if ring.kind == "poly":
            x = ring.variable("x")
            values += [x, x * x - ring.one, ring.from_int(-2) * x + ring.one]
        for a in values + [ring.zero]:
            for b in values:
                product = ring.mul(a, b)
                assert ring.exact_div(product, b) == ring._exact_quotient(product, b) == a
                assert ring.exact_div(a, b) == ring._exact_quotient(a, b)
            with pytest.raises(ZeroDivisionError):
                ring.exact_div(a, ring.zero)
        # ZZ and ZZ[x] have non-divisible pairs; QQ and QQ[x,y] divide by constants
        assert (ring.exact_div(ring.from_int(3), ring.from_int(2)) is None) == (
            ring in (ZZ, ZX))

    @pytest.mark.parametrize("ring", SHARED_RINGS, ids=lambda ring: ring.description)
    def test_divides_and_lcm_check_each_argument_once(self, ring, monkeypatch):
        four, six, twelve = (ring.from_int(k) for k in (4, 6, 12))
        lcm = twelve if ring in (ZZ, ZX) else ring.one  # QQ's nonzero elements are units
        checked = []
        check = type(ring).check
        monkeypatch.setattr(
            type(ring), "check", lambda self, a: checked.append(a) or check(self, a)
        )
        assert ring.divides(four, twelve)
        assert ring.lcm(four, six) == lcm
        assert checked == [four, twelve, four, six]

    @pytest.mark.parametrize("ring", SHARED_RINGS, ids=lambda ring: ring.description)
    def test_arithmetic(self, ring):
        two, three = ring.from_int(2), ring.from_int(3)
        assert ring.add(two, three) == ring.from_int(5)
        assert ring.sub(two, three) == ring.neg(ring.one)
        assert ring.mul(two, three) == ring.from_int(6)
        assert ring.is_zero(ring.zero) and not ring.is_zero(two)

    def test_rational_results_are_fractions(self):
        total = QQ.add(1, 2)
        assert total == Fraction(3) and isinstance(total, Fraction)

    def test_identity_and_text(self):
        assert IntegerRing() == ZZ and RationalRing() == QQ
        assert hash(IntegerRing()) == hash(ZZ)
        assert ZZ != QQ and QQ != ZZ
        assert repr(ZZ) == "IntegerRing()"
        assert repr(QQ) == "RationalRing()"
        assert ring_from_document(QQ.to_document()) == QQ
        assert ZZ.to_text(-7) == "-7" and QQ.to_text(Fraction(-3, 4)) == "-3/4"


def random_poly(ring, rng, max_degree=3, max_terms=3):
    nvars = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        split = rng.randint(0, degree)
        exponents = (split, degree - split) if nvars == 2 else (degree,)
        terms[exponents] = rng.randint(-6, 6)
    from graphsplines import Polynomial

    return Polynomial(ring.variables, ring.coeff_kind, terms)


def nonzero_random_poly(ring, rng, **kw):
    while True:
        p = random_poly(ring, rng, **kw)
        if p and not p.is_unit():
            return p


QXY = PolynomialRing("rat", ["x", "y"])


class TestGcdDomainProperties:
    """The gcd/lcm laws every supported ring must satisfy (moderate counts here;
    the acceptance suite re-runs them at 500 instances)."""

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_gcd_divides_both_int(self, a, b):
        if a == 0 and b == 0:
            return
        g = ZZ.gcd(a, b)
        assert ZZ.divides(g, a) and ZZ.divides(g, b)

    def test_common_divisor_divides_gcd(self):
        rng = random.Random(2024)
        for _ in range(200):
            c = rng.randint(1, 30)
            a = c * rng.randint(-20, 20)
            b = c * rng.randint(-20, 20)
            if a == 0 and b == 0:
                continue
            assert ZZ.divides(c, ZZ.gcd(a, b))

    def test_gcd_scaling_up_to_unit(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b = rng.randint(1, 50), rng.randint(1, 50)
            x = rng.randint(1, 20)
            assert ZZ.gcd(a * x, b * x) == x * ZZ.gcd(a, b)

    def test_euclid_variant(self):
        # constructed triples satisfying the hypothesis
        rng = random.Random(11)
        for _ in range(100):
            a = rng.randint(2, 60)
            while True:
                b = rng.randint(1, 60)
                if ZZ.is_unit(ZZ.gcd(a, b)):
                    break
            c = a * rng.randint(-10, 10)
            assert ZZ.divides(a, b * c)
            assert ZZ.divides(a, c)

    def test_coprime_powers(self):
        rng = random.Random(13)
        for _ in range(100):
            a = rng.randint(2, 40)
            while True:
                b = rng.randint(2, 40)
                if ZZ.gcd(a, b) == 1:
                    break
            for m in (2, 3):
                assert ZZ.is_unit(ZZ.gcd(a**m, b**m))

    def test_hat_identity_example(self):
        # (2, 3, 5): hat products are 15, 10, 6 and their iterated gcd is 1
        assert ZZ.gcd(ZZ.gcd(15, 10), 6) == 1

    def test_gcd_lcm_product(self):
        rng = random.Random(17)
        for _ in range(100):
            a = rng.randint(1, 60) * rng.choice([-1, 1])
            b = rng.randint(1, 60) * rng.choice([-1, 1])
            assert ZZ.gcd(a, b) * ZZ.lcm(a, b) == abs(a * b)

    def test_gcd_lcm_product_poly(self):
        rng = random.Random(19)
        for _ in range(25):
            a = nonzero_random_poly(QXY, rng, max_degree=2)
            b = nonzero_random_poly(QXY, rng, max_degree=2)
            lhs = (QXY.gcd(a, b) * QXY.lcm(a, b)).normalized()
            rhs = (a * b).normalized()
            assert lhs == rhs


def _chunked_int(text: str) -> int:
    """int(text) for decimal text of any length, parsed 4000 digits at a time."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for start in range(0, len(digits), 4000):
        piece = digits[start:start + 4000]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


LONG = 10 ** 5000 + 10 ** 2600 + 7  # zeros inside both halves of the split


class TestTextPastTheDigitLimit:
    @pytest.mark.parametrize(
        "value", [0, -5, 10 ** 4299, LONG, -LONG, LONG ** 3],
        ids=["zero", "negative", "4300-digits", "long", "negative-long", "long-cubed"],
    )
    def test_integers(self, value):
        text = ZZ.to_text(value)
        assert _chunked_int(text) == value
        assert text.lstrip("-")[0] != "0" or value == 0
        if abs(value) < 10 ** 4000:
            assert text == str(value)

    @pytest.mark.parametrize(
        "value", [Fraction(-3, 4), Fraction(LONG, 3), Fraction(-1, LONG), Fraction(LONG ** 2)],
        ids=["short", "long-numerator", "long-denominator", "long-integer"],
    )
    def test_rationals(self, value):
        text = QQ.to_text(value)
        numerator, _, denominator = text.partition("/")
        assert _chunked_int(numerator) == value.numerator
        assert _chunked_int(denominator or "1") == value.denominator
        assert ("/" in text) == (value.denominator != 1)

    def test_polynomial_coefficients(self):
        ring = PolynomialRing("rat", ["x"])
        p = ring.variable("x") * Fraction(LONG, 7) - LONG
        first, sign, last = ring.to_text(p).split(" ")
        assert sign == "-" and _chunked_int(last) == LONG
        assert first.endswith("/7*x") and _chunked_int(first[:-4]) == LONG
