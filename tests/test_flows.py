"""Flow derivations: chain rule, commutativity, and an ODE-integration oracle."""

import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2soliton.curvering import CurveParams, Fld, Poly, Rat, rat_to_mp
from g2soliton.flows import flow_derivative
from g2soliton.identities import IDENTITY_SETS, G2Functions
from g2soliton.sweep import SweepConfig, locus_groups, sample_curves

import flow_reference
from flow_reference import fprime_of, flow_poly_numerator

GENERIC = CurveParams((1, 2, 1, 3, 1, 4, 5))


def pvar(name):
    return Poly.variable(GENERIC, name)


def fvar(name):
    return Fld(pvar(name))


def test_flow_of_coordinates_matches_inversion():
    x1, x2, y1, y2 = (fvar(n) for n in ("x1", "x2", "y1", "y2"))
    px1, px2, py1, py2 = (pvar(n) for n in ("x1", "x2", "y1", "y2"))
    # over dx = x1 - x2
    assert flow_derivative(x1, 2) == Fld(py1, 0, 0, 1)
    assert flow_derivative(x2, 2) == Fld(-py2, 0, 0, 1)
    assert flow_derivative(x1, 1) == Fld(-px2 * py1, 0, 0, 1)
    assert flow_derivative(x2, 1) == Fld(px1 * py2, 0, 0, 1)


def test_flow_of_constant_is_zero():
    c = Fld.const(GENERIC, Rat(7, 3))
    assert flow_derivative(c, 1).is_zero()
    assert flow_derivative(c, 2).is_zero()


def test_flow_of_y_consistent_with_curve():
    # 2 y1 D y1 = f'(x1) D x1 exactly
    y1 = fvar("y1")
    fp = Fld(fprime_of(GENERIC, 1))
    lhs = 2 * y1 * flow_derivative(y1, 2)
    rhs = fp * flow_derivative(fvar("x1"), 2)
    assert (lhs - rhs).is_zero()


def test_invalid_direction():
    with pytest.raises(ValueError):
        flow_derivative(fvar("x1"), 3)


def _random_fld(rng):
    # small numerators over random denominators c * x1^a * x2^b * (x1 - x2)^k,
    # so the 100-pair sweep runs in seconds
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1))
        terms[mono] = Rat(rng.randint(-5, 5), rng.randint(1, 3))
    a, b, k = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
    c = Rat(rng.choice((-2, 1, 3)), rng.randint(1, 3))
    return Fld(Poly(GENERIC, terms) * (1 / c), a, b, k)


def test_derivation_laws_random_pairs():
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        g = _random_fld(rng)
        h = _random_fld(rng)
        if g.is_zero() or h.is_zero():
            continue
        direction = rng.choice((1, 2))
        product_rule = flow_derivative(g * h, direction) - (
            g * flow_derivative(h, direction) + flow_derivative(g, direction) * h
        )
        assert product_rule.is_zero()
        linearity = flow_derivative(g + h, direction) - (
            flow_derivative(g, direction) + flow_derivative(h, direction)
        )
        assert linearity.is_zero()
        checked += 1


def _same(got, want):
    assert (got.num.terms, got.num.scale, got.struct) == (want.num.terms, want.num.scale, want.struct)


_BASE_NAMES = ("p22", "p21", "q", "r22", "r21", "r11", "hp11", "hp21", "hq")
# one curve from every catalog locus, then zero, sparse and non-integer coefficients
_REFERENCE_CURVES = [
    *(sample_curves(group)[0] for group, _ in locus_groups(SweepConfig(count=1, seed=5), IDENTITY_SETS["all"])[0]),
    CurveParams((1, 0, 0, 0, 0, 0, 1)),
    CurveParams((0, 1, 0, 0, 0, 0, 0)),
    CurveParams((0, 0, 0, 0, 0, 1, 0)),
    CurveParams(("-23/2", "2/3", "2/7", 42, 14, "-32/3", "51/2")),
    CurveParams(("1/3", 0, "5/7", 0, "-1/6", "-2/9", 0)),
]


@pytest.mark.parametrize("params", _REFERENCE_CURVES, ids=lambda p: ",".join(p.as_strings()))
def test_flow_derivative_matches_ring_reference(params):
    # every base function to order 3: the one-pass kernel against the ring products
    fns = G2Functions(params)
    for name in _BASE_NAMES:
        for dirs in ("", "1", "2", "11", "12", "22"):
            inner = fns.deriv(name, dirs)
            for direction in (1, 2):
                _same(flow_derivative(inner, direction), flow_reference.flow_derivative(inner, direction))
    for value in (0, Rat(-7, 3)):
        const = Fld.const(params, value)
        for direction in (1, 2):
            _same(flow_derivative(const, direction), flow_reference.flow_derivative(const, direction))


_MONOMIALS = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1), st.integers(0, 1))
_COEFFS = st.builds(Rat, st.integers(-30, 30), st.integers(1, 6))


@given(
    st.dictionaries(_MONOMIALS, _COEFFS, max_size=6),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from(_REFERENCE_CURVES),
)
@settings(max_examples=80, deadline=None)
def test_flow_derivative_matches_ring_reference_on_random_elements(terms, a, b, k, params):
    g = Fld(Poly(params, terms), a, b, k)
    for direction in (1, 2):
        _same(flow_derivative(g, direction), flow_reference.flow_derivative(g, direction))


def test_flows_commute_on_core_functions():
    fns = G2Functions(GENERIC)
    x1, x2 = fvar("x1"), fvar("x2")
    for g in (fns.p22, fns.p21, fns.q, x1 + x2, x1 * x2):
        d12 = flow_derivative(flow_derivative(g, 1), 2)
        d21 = flow_derivative(flow_derivative(g, 2), 1)
        assert (d12 - d21).is_zero()


def test_quotient_rule_against_poly_route():
    # D(p/1) computed from a field element equals the Poly numerator over x1 - x2
    fns = G2Functions(GENERIC)
    p = fns.f_poly
    via_fld = flow_derivative(Fld(p), 2)
    via_poly = Fld(flow_poly_numerator(p, 2), 0, 0, 1)
    assert (via_fld - via_poly).is_zero()


def _flow_rhs(params, direction):
    def fprime(x):
        acc = mp.mpf(0)
        for j in range(6, 0, -1):
            acc = acc * x + j * rat_to_mp(params.lambdas[j])
        return acc

    def rhs(state):
        x1v, x2v, y1v, y2v = state
        if direction == 2:
            dx1 = y1v / (x1v - x2v)
            dx2 = -y2v / (x1v - x2v)
        else:
            dx1 = -x2v * y1v / (x1v - x2v)
            dx2 = x1v * y2v / (x1v - x2v)
        return [dx1, dx2, fprime(x1v) / (2 * y1v) * dx1, fprime(x2v) / (2 * y2v) * dx2]

    return rhs


def _rk4_flow(rhs, state, t, steps=24):
    h = t / steps
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs([s + h / 2 * k for s, k in zip(state, k1)])
        k3 = rhs([s + h / 2 * k for s, k in zip(state, k2)])
        k4 = rhs([s + h * k for s, k in zip(state, k3)])
        state = [s + h / 6 * (a + 2 * b + 2 * c + d) for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    return state


@pytest.mark.parametrize("direction", [1, 2])
def test_flow_derivative_matches_ode_integration_oracle(direction):
    """Independent check: differentiate g along a numerically integrated flow.

    The flow field is integrated with a 40-digit RK4 and d/dt g(flow(t)) is
    taken with a fourth-order centered stencil, with no polynomial algebra
    involved; this pins the chain rule, the velocity fields, and the signs.
    """
    params = GENERIC
    fns = G2Functions(params)
    g = fns.q * fns.p22 + fns.p21
    sym = flow_derivative(g, direction)

    with mp.workdps(40):
        start = [mp.mpf("1.3"), mp.mpf("2.1")]
        start.append(mp.sqrt(params.f_value_mp(start[0])))
        start.append(mp.sqrt(params.f_value_mp(start[1])))
        # h small enough that the stencil stays far from the x1 = x2 locus
        # even though the direction-1 velocities are ~40 per unit time here
        rhs = _flow_rhs(params, direction)
        h = mp.mpf("1e-4")
        samples = {m: g.eval_mp(*_rk4_flow(rhs, start, m * h, steps=16)) for m in (-2, -1, 1, 2)}
        numeric = (-samples[2] + 8 * samples[1] - 8 * samples[-1] + samples[-2]) / (12 * h)
        symbolic = sym.eval_mp(*start)
        assert abs(numeric - symbolic) < mp.mpf("1e-7") * (1 + abs(symbolic))
