"""Exact coordinate-ring and function-field arithmetic."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2soliton.curvering import (
    CurveParams,
    Fld,
    Poly,
    PoleAtPoint,
    Rat,
    _times_den,
    probe_digits,
    random_probe_point,
    rat_to_mp,
)
from g2soliton.flows import flow_derivative
from g2soliton.identities import G2Functions, verify_all

from flow_reference import den, den_poly, f_of, flow_poly_numerator, partial, quotient

GENERIC = CurveParams((1, 2, 1, 3, 1, 4, 5))
QUINTIC_X5 = CurveParams((0, 0, 0, 0, 0, 1, 0))  # f(x) = x^5


def poly_var(params, name):
    return Poly.variable(params, name)


def fld_var(params, name):
    return Fld(Poly.variable(params, name))


# -- CurveParams ---------------------------------------------------------------


def test_curve_params_parse_text():
    p = CurveParams.from_text("lambda = [1, 1/2, -3, 0, 2/7, 4, 5]")
    assert p.lambdas == (Rat(1), Rat(1, 2), Rat(-3), Rat(0), Rat(2, 7), Rat(4), Rat(5))
    assert CurveParams.from_text("1,2,1,3,1,4,5").lambdas == GENERIC.lambdas


def test_curve_params_validation():
    with pytest.raises(ValueError):
        CurveParams((0,) * 7)
    with pytest.raises(ValueError):
        CurveParams.from_text("lambda = [1,2,3]")
    with pytest.raises(ValueError):
        CurveParams.from_text("1,2,3,4,5,6,1/0")
    with pytest.raises(ValueError):
        CurveParams.from_text("1,2,3,4,5,6,x")


def test_usability_flags():
    # every family is built on every curve; the Weierstrass triple carries l5
    # and the Jacobi triple l1, so each vanishes with its coefficient
    generic = G2Functions(GENERIC)
    assert not generic.p22.is_zero() and not generic.hp11.is_zero()
    assert G2Functions(CurveParams((1, 2, 1, 3, 1, 0, 5))).p22.is_zero()
    assert G2Functions(CurveParams((1, 0, 1, 3, 1, 4, 5))).hp11.is_zero()


# -- y-reduction ------------------------------------------------------------------


def test_reduce_y_square_becomes_sextic():
    p = Poly(GENERIC, {(0, 0, 2, 0): Rat(1)})
    assert p == f_of(GENERIC, 1)


def test_reduce_y_identity_on_reduced():
    p = Poly(GENERIC, {(0, 0, 1, 1): Rat(1)})
    assert p.terms == {(0, 0, 1, 1): Rat(1)}


def test_reduce_y_cube_on_x5_curve():
    # y^2 = x^5, so y^3 = x^5 * y by hand expansion
    p = Poly(QUINTIC_X5, {(0, 0, 3, 0): Rat(1)})
    assert p.terms == {(5, 0, 1, 0): Rat(1)}


@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)
        ),
        st.integers(-9, 9).map(Rat),
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_reduce_y_idempotent(raw):
    once = Poly(GENERIC, raw)
    assert all(m[2] <= 1 and m[3] <= 1 for m in once.terms)
    again = Poly(GENERIC, {m: c * once.scale for m, c in once.terms.items()})
    assert once == again


# -- ring axioms ----------------------------------------------------------------


def _random_poly(rng, params, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 1), rng.randint(0, 1))
        terms[mono] = Rat(rng.randint(-8, 8), rng.randint(1, 4))
    return Poly(params, terms)


def test_ring_axioms_bulk():
    rng = random.Random(2024)
    for _ in range(1000):
        a = _random_poly(rng, GENERIC)
        b = _random_poly(rng, GENERIC)
        c = _random_poly(rng, GENERIC)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_mul_associative_sampled():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (_random_poly(rng, GENERIC, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_monomials_stay_y_reduced_after_products():
    y1 = poly_var(GENERIC, "y1")
    y2 = poly_var(GENERIC, "y2")
    p = (y1 + y2) ** 4
    assert all(m[2] <= 1 and m[3] <= 1 for m in p.terms)


# -- field arithmetic -------------------------------------------------------------


def test_y_squared_collapses_to_sextic():
    a = fld_var(GENERIC, "y1")
    assert a * a == Fld(f_of(GENERIC, 1))


def test_is_zero_examples():
    y1 = fld_var(GENERIC, "y1")
    assert (y1 * y1 - Fld(f_of(GENERIC, 1))).is_zero()
    x1 = fld_var(GENERIC, "x1")
    x2 = fld_var(GENERIC, "x2")
    assert not (x1 - x2).is_zero()
    assert ((x1 + x2) ** 2 - x1**2 - 2 * x1 * x2 - x2**2).is_zero()


def test_denominators_never_carry_y():
    # y enters numerators only, where y1^2 reduces: y1/(x1 - x2) * y1/x1 = f(x1) / (x1 (x1 - x2))
    y1 = poly_var(GENERIC, "y1")
    e = Fld(y1, 0, 0, 1) * Fld(y1, 1, 0, 0)
    assert e.struct == (1, 0, 1) and e.num == f_of(GENERIC, 1)
    assert (e * e).struct == (2, 0, 2) and (e + Fld(y1, 0, 2, 0)).struct == (1, 2, 1)


def test_normal_form_den_primitive_positive():
    # the denominator is monic by construction: every constant stays in the numerator
    x1 = poly_var(GENERIC, "x1")
    a = Fld(x1 * Rat(-5, 14), 2, 0, 0)
    assert a.struct == (1, 0, 0) and a.num == Poly.const(GENERIC, Rat(-5, 14))


def test_cross_multiplication_equality():
    x1, x2 = poly_var(GENERIC, "x1"), poly_var(GENERIC, "x2")
    a = Fld(x1**2 - x2**2, 0, 0, 1)
    assert a == Fld(x1 + x2) and a.struct == (0, 0, 0)


# -- structured denominators x1^a * x2^b * (x1 - x2)^k ------------------------------

GII_LOCUS = CurveParams((0, 4, -2, 5, 7, 4, 0))  # l0 = l6 = 0, l1 = l5 = 4


def _x1_minus_x2(params):
    return poly_var(params, "x1") - poly_var(params, "x2")


def _random_structured(rng, params):
    """An element with denominator c * x1^a * x2^b * (x1-x2)^k, a, b, k <= 3,
    whose numerator sometimes shares factors with it."""
    x1, x2, binom = poly_var(params, "x1"), poly_var(params, "x2"), _x1_minus_x2(params)
    a, b, k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    num = _random_poly(rng, params, 3) * x1 ** rng.randint(0, 2) * binom ** rng.randint(0, 2)
    c = Rat(rng.choice((-3, 1, 2)), rng.randint(1, 3))
    return quotient(num, x1**a * x2**b * binom**k * c)


def _same_form(got, want):
    assert got.num == want.num and got.struct == want.struct
    # and the form is reduced: num shares no x1, x2 or x1 - x2 with den
    a, b, k = got.struct
    gn = got.num.common_monomial()
    assert not (a and gn[0]) and not (b and gn[1])
    assert not k or got.num.try_divide() is None


@pytest.mark.parametrize("params", [GENERIC, GII_LOCUS], ids=["sextic", "l0=l6=0"])
def test_structured_arithmetic_matches_general_constructor(params):
    rng = random.Random(4242)
    binom = _x1_minus_x2(params)
    for _ in range(25):
        f, g = _random_structured(rng, params), _random_structured(rng, params)
        fd, gd = den(f), den(g)
        _same_form(f * g, quotient(f.num * g.num, fd * gd))
        _same_form(f + g, quotient(f.num * gd + g.num * fd, fd * gd))
        _same_form(f - g, quotient(f.num * gd - g.num * fd, fd * gd))
        _same_form(-f, quotient(-f.num, fd))
        _same_form(f * Rat(-5, 7), quotient(f.num * Rat(-5, 7), fd))
        _same_form(f**2, quotient(f.num**2, fd**2))
        for direction in (1, 2):
            # quotient rule over (x1 - x2) * den^2
            dn = flow_poly_numerator(f.num, direction)
            dd = flow_poly_numerator(fd, direction)
            _same_form(flow_derivative(f, direction), quotient(dn * fd - f.num * dd, binom * fd * fd))


@pytest.mark.parametrize("params", [GENERIC, GII_LOCUS], ids=["sextic", "l0=l6=0"])
def test_chains_of_pending_operands_read_the_general_form(params):
    # no operand of a chain is read before the chain's result is
    rng = random.Random(3535)
    for _ in range(15):
        f, g = _random_structured(rng, params), _random_structured(rng, params)
        fn, gn, fd, gd = f.num, g.num, den(f), den(g)
        _same_form((f + g) * (f - g), quotient((fn * gd + gn * fd) * (fn * gd - gn * fd), (fd * gd) ** 2))
        _same_form(((f * g) + f) ** 2, quotient((fn * gn + fn * gd) ** 2, (fd * gd) ** 2))
        _same_form(-(f * g) * Rat(-5, 7), quotient(fn * gn * Rat(5, 7), fd * gd))
        _same_form((f * g - g * f) + f, f)


def _count_calls(monkeypatch, owner, name) -> list:
    """Count the calls of owner.name from here on; the count is the list's one entry."""
    calls, original = [0], getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_pending_element_settles_once(monkeypatch):
    x1, x2 = fld_var(GENERIC, "x1"), fld_var(GENERIC, "x2")
    # (x1 + x2) / (x1 * (x1 - x2)) times x1 * (x1 - x2) / x2
    e = Fld(x1.num + x2.num, 1, 0, 1) * Fld(x1.num * (x1.num - x2.num), 0, 1, 0)
    inits = _count_calls(monkeypatch, Fld, "__init__")
    first = (e.num, e.struct)
    assert inits == [1]
    assert (e.num, e.struct) == first and inits == [1]
    assert first == ((x1 + x2).num, (0, 1, 0))


def test_verify_all_normalises_only_what_it_reads(monkeypatch):
    # the families, the settle of r11 = q + ... and 30 flow derivatives; normalising
    # the result of every operation would take 264
    inits = _count_calls(monkeypatch, Fld, "__init__")
    report = verify_all(GENERIC)
    assert [r.status for r in report.results].count("zero") == 18
    assert inits[0] == 40


@pytest.mark.parametrize("n", range(7))
def test_power_takes_the_binary_product_count(monkeypatch, n):
    rng = random.Random(n)
    p = _random_poly(rng, GENERIC, 3) + poly_var(GENERIC, "y1")
    want = Poly.const(GENERIC, 1)
    for _ in range(n):
        want = want * p
    products = _count_calls(monkeypatch, Poly, "__mul__")
    assert p**n == want
    assert products[0] == (n.bit_count() + n.bit_length() - 2 if n else 0)


def test_const_builds_the_normal_form_directly():
    for value in (0, 1, Rat(-3, 4)):
        got, want = Fld.const(GENERIC, value), Fld(Poly.const(GENERIC, value))
        assert got.num == want.num and got.struct == want.struct == (0, 0, 0)


def test_try_divide_by_x1_minus_x2():
    x1, x2, y1 = (poly_var(GENERIC, n) for n in ("x1", "x2", "y1"))
    binom = x1 - x2
    q = x1**3 * y1 - Rat(2, 3) * x2**2 + x1 * x2 + 5
    assert (q * binom).try_divide() == q
    assert (q * binom * Rat(-3, 2)).try_divide() == q * Rat(-3, 2)
    # a gappy row fills in: x1^5 - x2^5 = (x1 - x2)(x1^4 + ... + x2^4)
    assert (x1**5 - x2**5).try_divide() == sum((x1**i * x2 ** (4 - i) for i in range(5)), Poly.zero(GENERIC))
    assert (x1**2 + x2**2).try_divide() is None
    assert (q * binom + y1).try_divide() is None
    assert Poly.zero(GENERIC).try_divide() == Poly.zero(GENERIC)


# -- fraction-free Poly against a dict-of-Fraction reference ----------------------

FRACTION_CURVES = [
    CurveParams(("3/2", "-7/3", "5", "1/4", "-2/5", "9/7", "5/6")),  # general sextic
    CurveParams(("0", "7/3", "-2", "5/4", "1/7", "-9/2", "0")),  # l0 = l6 = 0
    CurveParams(("1/3", "4", "-2/3", "5/4", "7/9", "4", "-1/2")),  # l1 = l5 = 4
]


def _ref_reduce(params, raw):
    """y-reduce {monomial: Fraction} by y_i^2 -> sum_j l_j x_i^j, in Fractions."""
    out = {}
    stack = list(raw.items())
    while stack:
        (e1, e2, a1, a2), c = stack.pop()
        if a1 >= 2:
            stack += [((e1 + j, e2, a1 - 2, a2), c * l) for j, l in enumerate(params.lambdas)]
        elif a2 >= 2:
            stack += [((e1, e2 + j, a1, a2 - 2), c * l) for j, l in enumerate(params.lambdas)]
        else:
            out[(e1, e2, a1, a2)] = out.get((e1, e2, a1, a2), Rat(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def _ref_mul(params, p, q):
    raw = {}
    for m, c in p.items():
        for n, d in q.items():
            key = tuple(u + v for u, v in zip(m, n))
            raw[key] = raw.get(key, Rat(0)) + c * d
    return _ref_reduce(params, raw)


def _ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Rat(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def _ref_scale(p, c):
    return {m: v * c for m, v in p.items() if v * c != 0}


def _value(p):
    """The rational coefficients of a Poly."""
    return {m: c * p.scale for m, c in p.terms.items()}


def _assert_canonical(p):
    if not p.terms:
        assert p.scale == 1
        return
    assert all(isinstance(c, int) and c != 0 for c in p.terms.values())
    assert math.gcd(*p.terms.values()) == 1
    assert p.terms[max(p.terms)] > 0
    assert isinstance(p.scale, Rat) and p.scale != 0


def _check(p, want):
    _assert_canonical(p)
    assert _value(p) == want
    rebuilt = Poly(p.params, want)
    assert rebuilt == p and hash(rebuilt) == hash(p)


@pytest.mark.parametrize("params", FRACTION_CURVES, ids=["sextic", "l0=l6=0", "l1=l5=4"])
def test_fraction_free_poly_matches_fraction_reference(params):
    rng = random.Random(515)
    binom = Poly.variable(params, "x1") - Poly.variable(params, "x2")
    for _ in range(40):
        a, b = _random_poly(rng, params, 5), _random_poly(rng, params, 5)
        va, vb = _value(a), _value(b)
        c = Rat(rng.randint(-9, 9) or 1, rng.randint(1, 6))
        _check(a * b, _ref_mul(params, va, vb))
        _check(a + b, _ref_add(va, vb))
        _check(a - b, _ref_add(va, _ref_scale(vb, Rat(-1))))
        _check(a - a, {})
        _check(-a, _ref_scale(va, Rat(-1)))
        _check(a * c, _ref_scale(va, c))
        _check(c * a + b * 0, _ref_scale(va, c))
        for var in range(4):
            want = {}
            for m, v in va.items():
                if m[var]:
                    want[tuple(e - (i == var) for i, e in enumerate(m))] = v * m[var]
            _check(partial(a, var), want)
        low = a.common_monomial()
        _check(a.shift_down(low), {tuple(e - s for e, s in zip(m, low)): v for m, v in va.items()})
        _check(a.shift_down((-2, -1, 0, 0)), {(m[0] + 2, m[1] + 1, m[2], m[3]): v for m, v in va.items()})
        # y-reduction of raw monomials with y exponents up to 4
        raw = {
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 4)): Rat(
                rng.randint(-9, 9), rng.randint(1, 5)
            )
            for _ in range(4)
        }
        _check(Poly(params, raw), _ref_reduce(params, raw))
        # exact division by x1 - x2, and None where the quotient is not a polynomial
        prod = a * binom * c
        q = prod.try_divide()
        _check(q, _ref_scale(va, c))
        for dividend in (a, prod + b * binom ** rng.randint(0, 1)):
            # x1 - x2 divides iff every y-sector vanishes on the diagonal x2 = x1
            on_diagonal = {}
            for (e1, e2, a1, a2), v in _value(dividend).items():
                on_diagonal[(e1 + e2, a1, a2)] = on_diagonal.get((e1 + e2, a1, a2), 0) + v
            q = dividend.try_divide()
            assert (q is not None) == all(v == 0 for v in on_diagonal.values())
            if q is not None:
                _assert_canonical(q)
                assert _ref_mul(params, _value(q), _value(binom)) == _value(dividend)
        # equal values built along different routes are equal and hash equal
        left, right = (a + b) * (a - b), a * a - b * b
        assert left == right and hash(left) == hash(right)


def test_canonical_form_moves_content_and_sign_into_scale():
    p = Poly.scaled(GENERIC, {(1, 0, 0, 0): -6, (0, 1, 1, 0): 4, (0, 0, 0, 0): 10}, Rat(1, 3))
    assert p.terms == {(1, 0, 0, 0): 3, (0, 1, 1, 0): -2, (0, 0, 0, 0): -5}
    assert p.scale == Rat(-2, 3)
    assert math.gcd(*p.terms.values()) == 1
    same = Poly(GENERIC, {(1, 0, 0, 0): -2, (0, 1, 1, 0): Rat(4, 3), (0, 0, 0, 0): Rat(10, 3)})
    assert same == p and hash(same) == hash(p)
    assert Poly.scaled(GENERIC, {}, 7) == Poly.zero(GENERIC)
    assert Poly.const(GENERIC, 0).scale == 1 and (p - p).scale == 1


# -- integer scales and the direct binomial shift -----------------------------------

HALF_CURVE = CurveParams(("1/2", 2, 1, "3/5", 1, 4, 5))  # lambda_den = 10


def _assert_general(p):
    """p is canonical, its scale a Rat in lowest terms over a positive
    denominator, and it equals the general constructor's form of its value."""
    _assert_canonical(p)
    s = p.scale
    assert isinstance(s, Rat) and (s.numerator, s.denominator) == (p._sn, p._sd) and p._sd > 0
    general = Poly(p.params, {m: c * s for m, c in p.terms.items()})
    assert general.terms == p.terms and general.scale == s
    assert general == p and hash(general) == hash(p)


def test_random_chains_keep_the_general_constructors_form():
    params = HALF_CURVE
    assert params.lambda_den == 10
    rng = random.Random(3737)
    binom = _x1_minus_x2(params)
    p = _random_poly(rng, params, 4)
    for step in range(400):
        q = _random_poly(rng, params, 4)
        op = rng.randrange(8)
        if op == 0:
            p = p + q
        elif op == 1:
            p = p - q
        elif op == 2:
            p = p * q
        elif op == 3:
            p = p * rng.choice((-6, -1, 2, 15))
        elif op == 4:
            p = Rat(rng.randint(-9, 9) or 1, rng.randint(1, 25)) * p
        elif op == 5:
            p = q ** rng.randint(0, 3)
        elif op == 6:
            p = (p * binom * q).try_divide()
            assert p is not None
        else:
            p = p.shift_down(p.common_monomial())
        _assert_general(p)
        if len(p) > 40 or not p:
            p = _random_poly(rng, params, 4)
    zero = p - p
    assert zero.scale == 1 and (zero._sn, zero._sd) == (1, 1) and zero == Poly.zero(params)


def test_equal_values_built_two_ways_are_equal_and_hash_equal():
    rng = random.Random(38)
    for _ in range(40):
        a, b, c = (_random_poly(rng, HALF_CURVE, 4) for _ in range(3))
        r = Rat(rng.randint(-9, 9) or 1, rng.randint(1, 12))
        for left, right in (((a + b) * c, a * c + b * c), ((a * r) * b, a * (b * r)), (a * 3 - a, a * 2)):
            _assert_general(left)
            assert left == right and hash(left) == hash(right)


@pytest.mark.parametrize("k", range(7))
def test_times_den_is_the_product_by_the_reference_binomial(k):
    rng = random.Random(100 + k)
    for params in (HALF_CURVE, GENERIC):
        for _ in range(20):
            p = _random_poly(rng, params, 6) * poly_var(params, "y1") + _random_poly(rng, params, 3)
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            got = _times_den(p, a, b, k)
            _assert_general(got)
            assert got == p * den_poly(params, a, b, k)
    if k == 1:
        # x1 - x2 times x1 + x2 cancels the x1 * x2 terms
        x1, x2 = poly_var(GENERIC, "x1"), poly_var(GENERIC, "x2")
        assert _times_den(x1 + x2, 0, 0, 1).terms == {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1}


def test_ring_operations_construct_no_fraction(monkeypatch):
    rng = random.Random(39)
    pairs = [(_random_poly(rng, HALF_CURVE, 5), _random_poly(rng, HALF_CURVE, 5)) for _ in range(20)]
    y1 = poly_var(HALF_CURVE, "y1")
    pairs += [(a * y1, b * y1) for a, b in pairs]  # products that y-reduce and divide by lambda_den
    assert all(not (a.is_constant() or b.is_constant()) for a, b in pairs)
    fractions = _count_calls(monkeypatch, Rat, "__new__")
    for a, b in pairs:
        a + b, a - b, a * b, _times_den(a, 1, 2, 3), _times_den(b, 2, 0, 0)
    assert fractions == [0]


# -- probes ------------------------------------------------------------------------


def test_probe_quotient_relation_is_one():
    # y1 * y1 reduces to f(x1), and the probe's y1 is a square root of f(x1)
    y1 = fld_var(GENERIC, "y1")
    with mp.workdps(probe_digits()):
        point = _point_above(GENERIC, mp.mpf("1.5"), mp.mpf("2.5"))
        f_value = GENERIC.f_value_mp(mp.mpf("1.5"))
        assert abs((y1 * y1).eval_mp(*point) / f_value - 1) < 1e-25
        assert abs(y1.eval_mp(*point) ** 2 / f_value - 1) < 1e-25


def test_probe_pole_detection():
    a = Fld(Poly.const(GENERIC, 1), 1, 0, 0)
    with mp.workdps(probe_digits()), pytest.raises(PoleAtPoint):
        a.eval_mp(*_point_above(GENERIC, mp.mpf(0), mp.mpf(3)))


def test_probe_additivity():
    rng = random.Random(11)
    a = _random_structured(rng, GENERIC)
    b = _random_structured(rng, GENERIC)
    with mp.workdps(probe_digits()):
        for _ in range(5):
            x1, x2, y1, y2 = random_probe_point(GENERIC, rng)
            lhs = (a + b).eval_mp(x1, x2, y1, y2)
            rhs = a.eval_mp(x1, x2, y1, y2) + b.eval_mp(x1, x2, y1, y2)
            assert abs(lhs - rhs) <= mp.mpf("1e-12") * (1 + abs(lhs))


def _per_term_reference(p, x1, x2, y1, y2):
    """Value and magnitude sum term by term, each coefficient formed as c * scale."""
    value, magnitude = mp.mpc(0), mp.mpf(0)
    for (e1, e2, a1, a2), c in p.terms.items():
        term = rat_to_mp(c * p.scale) * x1**e1 * x2**e2 * y1**a1 * y2**a2
        value += term
        magnitude += abs(term)
    return value, magnitude


def _point_above(params, x1, x2):
    return x1, x2, mp.sqrt(mp.mpc(params.f_value_mp(x1))), -mp.sqrt(mp.mpc(params.f_value_mp(x2)))


@pytest.mark.parametrize("params", [GENERIC, GII_LOCUS], ids=["sextic", "l0=l6=0"])
def test_eval_mp_pair_matches_per_term_reference(params):
    rng = random.Random(808)
    polys = [Poly.zero(params), Poly.const(params, Rat(-7, 3))]
    # products of random polynomials carry y-reduced terms of high degree
    polys += [_random_poly(rng, params, 6) * _random_poly(rng, params, 3) for _ in range(20)]
    with mp.workdps(50):
        points = [random_probe_point(params, rng, dps=50) for _ in range(3)]
        points.append(_point_above(params, mp.mpf("-1.3"), mp.mpf("0.4")))
        # complex x, as on a flow integrated through complex values
        points.append(_point_above(params, mp.mpc("0.7", "0.2"), mp.mpc("-1.1", "0.5")))
        tol = mp.mpf("1e-40")
        for p in polys:
            for point in points:
                value, magnitude = p.eval_mp_pair(*point)
                want_value, want_magnitude = _per_term_reference(p, *point)
                assert abs(value - want_value) <= tol * want_magnitude
                assert abs(magnitude - want_magnitude) <= tol * want_magnitude
                assert p.eval_mp(*point) == value
    assert Poly.zero(params).eval_mp_pair(1, 2, 3, 4) == (0, 0)


def test_eval_mp_poles_use_the_denominator_pair():
    one = Poly.const(GENERIC, 1)
    inv_x1, inv_x2, inv_binom = Fld(one, 1, 0, 0), Fld(one, 0, 1, 0), Fld(one, 0, 0, 1)
    with mp.workdps(probe_digits()):
        y = mp.sqrt(mp.mpc(GENERIC.f_value_mp(mp.mpf("1.5"))))
        with pytest.raises(PoleAtPoint):
            inv_binom.eval_mp(mp.mpf("1.5"), mp.mpf("1.5"), y, -y)
        y2 = mp.sqrt(mp.mpc(GENERIC.f_value_mp(mp.mpf(2))))
        with pytest.raises(PoleAtPoint):
            inv_x1.eval_mp(mp.mpf(0), mp.mpf(2), mp.sqrt(mp.mpc(GENERIC.f_value_mp(0))), y2)
        with pytest.raises(PoleAtPoint):
            inv_x2.eval_mp(mp.mpf(2), mp.mpf(0), y2, mp.sqrt(mp.mpc(GENERIC.f_value_mp(0))))
        assert abs(inv_x1.eval_mp(mp.mpf(4), mp.mpf(2), y, y2) - mp.mpf("0.25")) < mp.mpf("1e-25")
    # the denominator is evaluated from its exponents; its expansion is the reference
    rng = random.Random(909)
    with mp.workdps(50):
        points = [random_probe_point(GENERIC, rng, dps=50) for _ in range(3)]
        points.append(_point_above(GENERIC, mp.mpf("-1.3"), mp.mpf("0.4")))
        points.append(_point_above(GENERIC, mp.mpc("0.7", "0.2"), mp.mpc("-1.1", "0.5")))
        for _ in range(20):
            f = _random_structured(rng, GENERIC)
            for point in points:
                want = f.num.eval_mp(*point) / den(f).eval_mp(*point)
                assert abs(f.eval_mp(*point) - want) <= mp.mpf("1e-40") * abs(want)


def test_exact_zero_implies_probe_zero():
    y1 = fld_var(GENERIC, "y1")
    z = y1 * y1 - Fld(f_of(GENERIC, 1))
    assert z.is_zero()
    rng = random.Random(3)
    with mp.workdps(probe_digits()):
        for _ in range(10):
            pt = random_probe_point(GENERIC, rng)
            assert abs(z.eval_mp(*pt)) == 0


@given(st.integers(-40, 40), st.integers(1, 12), st.integers(-40, 40), st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_fld_scalar_field_axioms(an, ad, bn, bd):
    a = Fld.const(GENERIC, Rat(an, ad))
    b = Fld.const(GENERIC, Rat(bn, bd))
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
