"""Jets and the four profile-map factorization identities."""

import math
import random

import mpmath as mp
import pytest

from g2soliton.elliptic import SingularDenominator
from g2soliton.jets import Jet, sn_jet_triple, trig_jet
from g2soliton.transforms import (
    _MIN_ORDER,
    SQRT2,
    TRANSFORMATIONS,
    kdv_profile_operator,
    paired_profile_jet,
    sn_pair_check,
    sn_profile_jet,
    source_residual_jet,
    static_transformation_residuals,
    transformed_profile,
)


# -- jets ------------------------------------------------------------------------


def test_jet_of_sine_against_taylor_oracle():
    x0 = 0.7
    jet = trig_jet(x0, 5, [(1.0, 1.0, 0.0)])
    with mp.workdps(25):
        coeffs = mp.taylor(mp.sin, x0, 5)
    for n in range(6):
        assert abs(jet.coef[n] - complex(coeffs[n])) < 1e-14


def test_jet_reciprocal_against_taylor_oracle():
    x0 = 0.7
    jet = trig_jet(x0, 5, [(1.0, 1.0, 0.0)]).reciprocal()
    with mp.workdps(25):
        coeffs = mp.taylor(lambda t: 1 / mp.sin(t), x0, 5)
    for n in range(6):
        assert abs(jet.coef[n] - complex(coeffs[n])) < 1e-12


def test_jet_arithmetic_basics():
    x = Jet((2.0, 1.0, 0.0, 0.0, 0.0))  # the variable x at x0 = 2
    p = x * x + 3 * x - 1
    assert p.value(0) == pytest.approx(9.0)
    assert p.value(1) == pytest.approx(7.0)
    assert p.value(2) == pytest.approx(2.0)
    assert p.deriv().value(0) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        p.value(5)


def test_jet_reciprocal_guard():
    with pytest.raises(SingularDenominator):
        Jet.constant(0.0, 3).reciprocal()


def test_sn_jet_against_mpmath_taylor():
    x0, k = 0.8, 0.6
    s_jet, c_jet, d_jet = sn_jet_triple(x0, k, 4)
    with mp.workdps(25):
        s_ref = mp.taylor(lambda t: mp.ellipfun("sn", t, k=mp.mpf(k)), x0, 4)
        c_ref = mp.taylor(lambda t: mp.ellipfun("cn", t, k=mp.mpf(k)), x0, 4)
    for n in range(5):
        assert abs(s_jet.coef[n] - complex(s_ref[n])) < 1e-12
        assert abs(c_jet.coef[n] - complex(c_ref[n])) < 1e-12


def test_sn_jet_scale_chain_rule():
    # d/dx sn(x/2) = cn dn / 2
    x0, k = 1.1, 0.7
    s, c, d = sn_jet_triple(x0, k, 1, scale=0.5)
    assert abs(s.value(1) - 0.5 * c.value(0) * d.value(0)) < 1e-14


class _ReferenceJet:
    """The jet arithmetic in the form it had before jets built one tuple per
    operation: every coefficient re-converted, scalars wrapped in constant
    jets, subtraction as addition of the negation.  The reference for `Jet`.
    `truncate` keeps the full order, as the transforms ran at the caller's order."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = tuple(complex(c) for c in coef)

    @property
    def order(self):
        return len(self.coef) - 1

    def value(self, n=0):
        if n > self.order:
            raise ValueError(f"jet of order {self.order} cannot give derivative {n}")
        return self.coef[n] * math.factorial(n)

    def truncate(self, order):
        return self

    @classmethod
    def constant(cls, value, order):
        return cls((complex(value),) + (0j,) * order)

    def _wrap(self, other):
        if isinstance(other, _ReferenceJet):
            return other
        if isinstance(other, (int, float, complex)):
            return _ReferenceJet.constant(other, self.order)
        return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return _ReferenceJet(tuple(self.coef[i] + other.coef[i] for i in range(n + 1)))

    __radd__ = __add__

    def __neg__(self):
        return _ReferenceJet(tuple(-c for c in self.coef))

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return _ReferenceJet(tuple(c * other for c in self.coef))
        if not isinstance(other, _ReferenceJet):
            return NotImplemented
        n = min(self.order, other.order)
        out = []
        for m in range(n + 1):
            out.append(sum(self.coef[i] * other.coef[m - i] for i in range(m + 1)))
        return _ReferenceJet(out)

    __rmul__ = __mul__

    def reciprocal(self):
        inv0 = 1 / self.coef[0]
        out = [inv0]
        for m in range(1, self.order + 1):
            acc = sum(self.coef[i] * out[m - i] for i in range(1, m + 1))
            out.append(-inv0 * acc)
        return _ReferenceJet(out)

    def __pow__(self, n):
        result = _ReferenceJet.constant(1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def deriv(self, times=1):
        jet = self
        for _ in range(times):
            if jet.order == 0:
                raise ValueError("jet too short to differentiate")
            jet = _ReferenceJet(tuple((i + 1) * jet.coef[i + 1] for i in range(jet.order)))
        return jet


def _seeded_trig_jet(rng, order):
    x0 = rng.uniform(-2.0, 2.0)
    terms = []
    for _ in range(3):
        amp = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
        terms.append((amp, rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi)))
    return trig_jet(x0, order, terms) + Jet.constant(rng.uniform(0.8, 1.6), order)


@pytest.mark.parametrize("order", range(3, 9))
def test_jet_operations_match_reference_bit_for_bit(order):
    rng = random.Random(100 + order)
    for _ in range(10):
        v, w = _seeded_trig_jet(rng, order), _seeded_trig_jet(rng, order - 1)
        rv, rw = _ReferenceJet(v.coef), _ReferenceJet(w.coef)
        s = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        pairs = [
            (v + w, rv + rw), (v - w, rv - rw), (v * w, rv * rw),
            (v + s, rv + s), (s + v, s + rv), (v - s, rv - s),
            (v * s, rv * s), (3 * v, 3 * rv),
            (v.reciprocal(), rv.reciprocal()),
            (v.deriv(), rv.deriv()), (v.deriv(3), rv.deriv(3)),
        ]
        for got, want in pairs:
            assert got.coef == want.coef
        assert [v.value(n) for n in range(order + 1)] == [rv.value(n) for n in range(order + 1)]


@pytest.mark.parametrize("order", range(3, 9))
def test_static_transforms_match_reference_on_trig_jets(order):
    rng = random.Random(200 + order)
    for _ in range(10):
        v = _seeded_trig_jet(rng, order)
        for which in TRANSFORMATIONS:
            if order < _MIN_ORDER[which]:
                continue
            got = static_transformation_residuals(v, which, 1.3)
            assert got == static_transformation_residuals(_ReferenceJet(v.coef), which, 1.3)


def test_static_transforms_match_reference_on_sn_profiles():
    for x in (0.7, 1.1 + 0.2j, 2.3, 0.9 - 0.3j):
        for order in (5, 6):
            sn = sn_profile_jet(x, order)
            paired = paired_profile_jet(x, order)
            ref_paired = (SQRT2 * _ReferenceJet(sn.coef)).reciprocal()
            assert paired.coef == ref_paired.coef
            for v, ref_v in ((sn, _ReferenceJet(sn.coef)), (paired, ref_paired)):
                for which in TRANSFORMATIONS:
                    assert static_transformation_residuals(v, which, 1.5) == static_transformation_residuals(
                        ref_v, which, 1.5
                    )


# both jets in their long form: every product at the full order of v, and the
# sums cut to their shortest term, which gives the order each jet must have
_LONG_U = {
    "miura": lambda v, a: v * v + v.deriv() - a / 6,
    "square": lambda v, a: 2 * v * v - 2 * a / 3,
    "inv_square": lambda v, a: (v * v).reciprocal() - 2 * a / 3,
    "inv_power": lambda v, a: v.reciprocal() - a / 6,
}
_LONG_RESIDUAL = {
    "miura": lambda v, v1, a: v.deriv(3) - 6 * v * v * v1 + a * v1,
    "square": lambda v, v1, a: v.deriv(2) - 2 * v**3 + a * v,
    "inv_square": lambda v, v1, a: v1 * v1 - v**4 + a * v * v - 0.5,
    "inv_power": lambda v, v1, a: v1 * v1 - v**4 + a * v * v - 2 * v,
}


def _assert_close_to_long_form(v, a):
    rv = _ReferenceJet(v.coef)
    for which in TRANSFORMATIONS:
        pairs = (
            (transformed_profile(v, which, a), _LONG_U[which](rv, a)),
            (source_residual_jet(v, which, a), _LONG_RESIDUAL[which](rv, rv.deriv(), a)),
        )
        for got, want in pairs:
            assert len(got.coef) == len(want.coef), (which, got.order, want.order)
            for g, w in zip(got.coef, want.coef):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (which, g, w)


@pytest.mark.parametrize("order", range(3, 9))
def test_residual_jets_match_long_form_on_trig_jets(order):
    rng = random.Random(300 + order)
    for _ in range(10):
        _assert_close_to_long_form(_seeded_trig_jet(rng, order), 1.3)


def test_residual_jets_match_long_form_on_sn_profiles():
    for x in (0.7, 1.1 + 0.2j, 2.3, 0.9 - 0.3j):
        for order in (3, 5, 6):
            _assert_close_to_long_form(sn_profile_jet(x, order), 1.5)
            _assert_close_to_long_form(paired_profile_jet(x, order), 1.5)


def test_static_transforms_read_only_the_minimum_order():
    rng = random.Random(7)
    for _ in range(10):
        v = _seeded_trig_jet(rng, 6)
        for which in TRANSFORMATIONS:
            trimmed = v.truncate(_MIN_ORDER[which])
            assert trimmed.order == _MIN_ORDER[which] and trimmed.coef == v.coef[: _MIN_ORDER[which] + 1]
            assert static_transformation_residuals(v, which, 1.3) == static_transformation_residuals(
                trimmed, which, 1.3
            )
    with pytest.raises(ValueError):
        v.truncate(7)


# -- the jets the four maps share, through a one-entry memo -----------------------


def _exact(results):
    """The results as text, so that equal means equal in every bit, signed zeros included."""
    return repr(results)


def _checked(v, a, maps=TRANSFORMATIONS):
    return _exact([static_transformation_residuals(v, which, a) for which in maps])


class _CountingJet(_ReferenceJet):
    """A reference jet that counts the products taken with it."""

    __slots__ = ("products",)

    def __init__(self, coef):
        super().__init__(coef)
        self.products = 0

    def __mul__(self, other):
        self.products += 1
        return _ReferenceJet.__mul__(self, other)

    __rmul__ = __mul__


def test_a_new_jet_object_gets_its_own_results():
    v = sn_profile_jet(0.9 + 0.2j, 6)
    want = _checked(_ReferenceJet(v.coef), 1.5)
    assert _checked(v, 1.5) == want
    assert _checked(Jet(v.coef), 1.5) == want
    # equal coefficients but for the sign of one zero, which reaches the square map's rhs
    maps = ("miura", "square")
    plus, minus = Jet((-1.0, 0.0, 0.0, 0.0, 0.0)), Jet((-1.0, -0.0, 0.0, 0.0, 0.0))
    assert plus.coef == minus.coef and _checked(_ReferenceJet(plus.coef), 1.5, maps) != _checked(
        _ReferenceJet(minus.coef), 1.5, maps
    )
    for jet in (plus, minus, plus):
        assert _checked(jet, 1.5, maps) == _checked(_ReferenceJet(jet.coef), 1.5, maps)


@pytest.mark.parametrize("maps", [TRANSFORMATIONS, TRANSFORMATIONS[::-1]])
def test_the_four_maps_in_a_row_match_the_reference(maps):
    # the later maps read jets the earlier ones formed, some cut from a longer cut
    rng = random.Random(13)
    jets = [_seeded_trig_jet(rng, order) for order in range(4, 9) for _ in range(4)]
    jets += [sn_profile_jet(x, 6) for x in (0.7, 1.1 + 0.2j)] + [paired_profile_jet(x, 6) for x in (0.7, 2.3)]
    want = [_checked(_ReferenceJet(v.coef), 1.3, maps) for v in jets]
    assert [_checked(v, 1.3, maps) for v in jets] == want


def test_two_jets_interleaved_across_the_maps_get_their_own_results():
    rng = random.Random(11)
    jets = [_seeded_trig_jet(rng, 6) for _ in range(2)]
    want = [[_checked(_ReferenceJet(v.coef), 1.3, (which,)) for which in TRANSFORMATIONS] for v in jets]
    got = [[], []]
    for which in TRANSFORMATIONS:
        for i, v in enumerate(jets):
            got[i].append(_checked(v, 1.3, (which,)))
    assert got == want


def test_fresh_jets_at_reused_addresses_get_their_own_results():
    # each jet is dropped after one map, so CPython hands its address to a later jet
    rng = random.Random(12)
    coefs = [_seeded_trig_jet(rng, 6).coef for _ in range(40)]
    maps = [TRANSFORMATIONS[i % len(TRANSFORMATIONS)] for i in range(len(coefs))]
    want = [_checked(_ReferenceJet(c), 1.3, (which,)) for c, which in zip(coefs, maps)]
    addresses, got = [], []
    for c, which in zip(coefs, maps):
        v = Jet(c)
        addresses.append(id(v))
        got.append(_checked(v, 1.3, (which,)))
        del v
    assert len(set(addresses)) < len(addresses)
    assert got == want


def test_a_reference_jet_after_an_equal_jet_runs_its_own_products():
    v = sn_profile_jet(0.9 + 0.2j, 6)
    for which in TRANSFORMATIONS:
        static_transformation_residuals(v, which, 1.5)
        counting = _CountingJet(v.coef)
        got = _checked(counting, 1.5, (which,))
        assert counting.products > 0, which
        assert got == _checked(_ReferenceJet(v.coef), 1.5, (which,))


# -- factorization identities -------------------------------------------------------


def _smooth_profile(rng, order=6):
    """Random trig profile kept away from zero so inverse maps stay conditioned."""
    while True:
        x0 = rng.uniform(-2.0, 2.0)
        terms = [
            (rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
            for _ in range(3)
        ]
        v = trig_jet(x0, order, terms) + Jet.constant(rng.uniform(0.8, 1.6), order)
        if abs(v.value(0)) > 0.3 and abs(v.value(1)) > 0.05:
            return v


@pytest.mark.parametrize("which", TRANSFORMATIONS)
def test_factorization_identity_random_profiles(which):
    rng = random.Random(sum(map(ord, which)))
    for _ in range(20):
        v = _smooth_profile(rng)
        lhs, rhs = static_transformation_residuals(v, which, a=1.3)
        assert abs(lhs - rhs) < 1e-8


def test_square_map_constant_profile():
    # v = c with a = 2c^2 sends both sides to zero
    c = 0.9
    v = Jet.constant(c, 4)
    lhs, rhs = static_transformation_residuals(v, "square", a=2 * c * c)
    assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14


def test_miura_map_on_trig_profile():
    rng = random.Random(4)
    v = _smooth_profile(rng)
    lhs, rhs = static_transformation_residuals(v, "miura", a=0.7)
    assert abs(lhs - rhs) < 1e-10


def test_transformed_profile_formulas():
    v = Jet.constant(2.0, 3)
    assert transformed_profile(v, "miura", 6.0).value(0) == pytest.approx(4.0 - 1.0)
    assert transformed_profile(v, "square", 3.0).value(0) == pytest.approx(8.0 - 2.0)
    assert transformed_profile(v, "inv_square", 3.0).value(0) == pytest.approx(0.25 - 2.0)
    assert transformed_profile(v, "inv_power", 6.0).value(0) == pytest.approx(0.5 - 1.0)
    with pytest.raises(ValueError):
        transformed_profile(v, "cube", 1.0)


def test_order_requirements():
    v = Jet.constant(1.0, 3)
    with pytest.raises(ValueError):
        static_transformation_residuals(v, "miura", 1.0)


def test_singular_denominator_guard():
    v = Jet((1e-12, 1.0, 0.0, 0.0, 0.0))  # x near x0 = 1e-12
    with pytest.raises(SingularDenominator):
        static_transformation_residuals(v, "inv_square", 1.0)


# -- the paired sn profiles ------------------------------------------------------


def test_sn_profile_satisfies_square_source():
    for x in (0.7, 1.1, 2.3):
        v1 = sn_profile_jet(x)
        assert abs(source_residual_jet(v1, "square", 1.5).value(0)) < 1e-12


def test_sn_profile_satisfies_inverse_square_source():
    # v = sn(x/sqrt2) at modulus sqrt2 satisfies v_x^2 - v^4 + (3/2)v^2 = 1/2
    for x in (0.7, 1.1, 2.3):
        v1 = sn_profile_jet(x)
        assert abs(source_residual_jet(v1, "inv_square", 1.5).value(0)) < 1e-12
        lhs, _ = static_transformation_residuals(v1, "inv_square", 1.5)
        assert abs(lhs) < 1e-8


def test_paired_profile_product():
    for x in (0.7, 1.1, 2.3):
        v1 = sn_profile_jet(x)
        v2 = paired_profile_jet(x)
        assert abs(SQRT2 * v1.value(0) * v2.value(0) - 1) < 1e-13


def test_square_and_inverse_square_give_same_u():
    # 2 v1^2 - 2a/3 == 1/v2^2 - 2a/3 with a = 3/2
    for x in (0.7, 1.1, 2.3):
        v1 = sn_profile_jet(x).value(0)
        v2 = paired_profile_jet(x).value(0)
        assert abs(2 * v1 * v1 - 1 / (v2 * v2)) < 1e-10


def test_pair_satisfies_same_profile_equation():
    for x in (0.7, 1.1, 2.3):
        assert abs(sn_pair_check(x)) < 1e-8


def test_pair_check_guard_at_sn_zero():
    with pytest.raises(SingularDenominator):
        sn_pair_check(0.0)


def test_kdv_profile_operator():
    x = Jet((1.0, 1.0, 0.0, 0.0, 0.0))
    u = x * x  # u = x^2 at x0 = 1: u_xxx = 0, u u_x = 2x^3
    assert kdv_profile_operator(u) == pytest.approx(-12.0)
