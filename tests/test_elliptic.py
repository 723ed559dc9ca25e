"""Jacobi/Weierstrass layer: oracles by quadrature, mpmath, and defining ODEs."""

import cmath
import math
import random

import mpmath as mp
import pytest

from g2soliton.elliptic import (
    DegenerateRoots,
    PoleArgument,
    WeierstrassRoots,
    agm,
    halfperiod_residual_g1,
    quarter_period,
    sn,
    sn_ode_residual,
    sn_second_derivative_residual,
    sncndn,
    weierstrass_ode_residual,
    weierstrass_p,
    weierstrass_p_prime,
)
from g2soliton.jets import sn_jet


def test_sn_degenerates_to_sine():
    # sin(0.7) = 0.6442176872376911
    assert abs(sn(0.7, 0) - 0.6442176872376911) < 1e-15
    assert sn(0, 0.6) == 0


def test_quarter_period_from_quadrature_inversion():
    """K(k) must invert the defining integral, computed by quadrature."""
    k = 0.6
    with mp.workdps(30):
        integral = mp.quad(
            lambda t: 1 / mp.sqrt((1 - t**2) * (1 - k**2 * t**2)), [0, 1]
        )
    big_k = quarter_period(k)
    assert abs(big_k - complex(integral)) < 1e-13
    assert abs(sn(big_k, k) - 1) < 1e-12


def test_quarter_period_agm_invariant():
    for k in (0.1, 0.35, 0.6, 0.85):
        kp = math.sqrt(1 - k * k)
        reference = math.pi / (2 * agm(1, kp).real)
        assert abs(quarter_period(k) - reference) < 1e-12 * reference


@pytest.mark.parametrize(
    "z,k",
    [
        (0.7, 0.6),
        (0.3 + 0.2j, 0.7),
        (1.1 - 0.4j, 0.35),
        (0.9, 0.99),
        (1.5 + 0.3j, 0.95),
        (0.8 + 0.1j, 0.6 + 0.3j),
        (0.7, math.sqrt(2)),
        (0.4 + 0.3j, math.sqrt(2)),
        (2.28, 0.9),
    ],
)
def test_triple_against_mpmath(z, k):
    """Cross-check against an independent implementation (mpmath.ellipfun)."""
    s, c, d = sncndn(z, k)
    with mp.workdps(25):
        assert abs(s - complex(mp.ellipfun("sn", mp.mpc(z), k=mp.mpc(k)))) < 1e-12
        assert abs(c - complex(mp.ellipfun("cn", mp.mpc(z), k=mp.mpc(k)))) < 1e-12
        assert abs(d - complex(mp.ellipfun("dn", mp.mpc(z), k=mp.mpc(k)))) < 1e-12


@pytest.mark.parametrize("k", [0.99, 0.999])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_near_one_modulus_at_odd_quarter_periods(k, m):
    """z = mK, where cn = 0 and sn = +-1: an imaginary-argument transform at k'
    would meet a pole there; the Landen ladder does not."""
    z = m * quarter_period(k).real
    s, c, d = sncndn(z, k)
    with mp.workdps(25):
        assert abs(s - complex(mp.ellipfun("sn", z, k=k))) < 1e-12
        assert abs(c - complex(mp.ellipfun("cn", z, k=k))) < 1e-12
        assert abs(d - complex(mp.ellipfun("dn", z, k=k))) < 1e-12


@pytest.mark.parametrize(
    "k", [0.99, 0.999, 0.98 + 0.01j, -0.995, 1.01, 0.999 + 0.001j, 1 - 1e-8, 1 - 1e-12]
)
def test_near_one_modulus_along_fifteen_quarter_periods(k):
    """z = jK/4 + i y for j < 60: z is reduced by the period 4K, and k' is carried
    down the Landen ladder rather than recomputed from a rung near 1.  An
    imaginary-argument transform at k' was off by 0.55 at k = 1 - 1e-8."""
    big_k = quarter_period(k)
    worst = 0.0
    with mp.workdps(25):
        q = mp.qfrom(k=mp.mpc(k))
        for j in range(60):
            for y in (0, 0.3, -0.7):
                z = j * big_k / 4 + 1j * y
                for name, got in zip(("sn", "cn", "dn"), sncndn(z, k)):
                    want = complex(mp.ellipfun(name, mp.mpc(z), q=q))
                    worst = max(worst, abs(got - want) / max(abs(want), 1))
    assert worst < 1e-12


@pytest.mark.parametrize("k", [0.999, 0.9999, -0.995])
def test_quarter_period_near_one_against_mpmath(k):
    """k' is formed as sqrt((1 - k)(1 + k)); sqrt(1 - k^2) cancelled near
    k = +-1, and K(0.9999) was off by 2.2e-14 relative."""
    with mp.workdps(30):
        want = complex(mp.ellipk(mp.mpf(k) ** 2))
    assert abs(quarter_period(k) - want) <= 2e-16 * abs(want)


@pytest.mark.parametrize("k", [0.999, -0.995])
def test_near_one_sn_keeps_the_period_reduction_exact(k):
    """The 4K reduction multiplies any error of K by the periods it removes:
    with the cancelling k', sn at k = 0.999 was off by 1.75e-13 over this grid."""
    big_k = quarter_period(k)
    worst = 0.0
    with mp.workdps(25):
        q = mp.qfrom(k=mp.mpf(k))
        for j in range(60):
            for y in (0, 0.3, -0.7):
                z = j * big_k / 4 + 1j * y
                want = complex(mp.ellipfun("sn", mp.mpc(z), q=q))
                worst = max(worst, abs(sn(z, k) - want) / max(abs(want), 1))
    assert worst < 2e-14


def test_pythagorean_identities_on_grid():
    k = 0.7
    worst_sq = worst_dn = 0.0
    for re in [0.1 + 0.17 * i for i in range(20)]:
        for im in [-0.8 + 0.08 * j for j in range(20)]:
            z = complex(re, im)
            try:
                s, c, d = sncndn(z, k)
            except PoleArgument:
                continue
            worst_sq = max(worst_sq, abs(s * s + c * c - 1))
            worst_dn = max(worst_dn, abs(d * d + k * k * s * s - 1))
    assert worst_sq < 1e-10 and worst_dn < 1e-10


def test_periodicity():
    k = 0.6
    big_k = quarter_period(k).real
    for z in (0.3, 0.9 + 0.2j, 1.7 - 0.1j):
        assert abs(sn(z + 4 * big_k, k) - sn(z, k)) < 1e-9


def test_first_order_ode_residual():
    for z, k in ((0.7, 0.6), (0.4 + 0.5j, 0.8), (1.3, math.sqrt(2))):
        assert abs(sn_ode_residual(z, k)) < 1e-10


def test_second_order_ode_residual():
    for z, k in ((0.7, 0.6), (0.4 + 0.5j, 0.8), (1.1, 0.95)):
        assert abs(sn_second_derivative_residual(z, k)) < 1e-10


def test_derivative_matches_finite_differences():
    k, h = 0.6, 1e-5
    for z in (0.5, 1.2 + 0.3j):
        _, c, d = sncndn(z, k)
        analytic = c * d
        fd = (-sn(z + 2 * h, k) + 8 * sn(z + h, k) - 8 * sn(z - h, k) + sn(z - 2 * h, k)) / (12 * h)
        assert abs(analytic - fd) < 1e-7


def test_pole_argument_raised_close_to_lattice():
    k = 0.7
    pole = 1j * quarter_period(math.sqrt(1 - k * k)).real
    with pytest.raises(PoleArgument):
        sn(pole + 1e-14, k)


@pytest.mark.parametrize("k", [0.5, 0.99, 1.5])
def test_infinite_argument_is_a_pole_argument(k):
    # the 4K reduction would round an infinite quotient
    with pytest.raises(PoleArgument):
        sncndn(complex(math.inf, 0.5), k)


def test_near_pole_returns_large_value():
    k = 0.7
    pole = 1j * quarter_period(math.sqrt(1 - k * k)).real
    value = sn(pole + 1e-6, k)
    assert 1e5 < abs(value) < 1e8


# -- half-period relation ---------------------------------------------------------


def test_halfperiod_relation_complex_point():
    assert abs(halfperiod_residual_g1(0.3 + 0.2j, 0.7)) < 1e-9


def test_halfperiod_relation_half_quarter_period():
    z = quarter_period(0.5).real / 2
    assert abs(halfperiod_residual_g1(z, 0.5)) < 1e-9


def test_halfperiod_zero_is_guarded():
    with pytest.raises(PoleArgument):
        halfperiod_residual_g1(0.0, 0.7)


def test_both_odd_shifts_satisfy_relation():
    # 2iK' is a period, so the single and triple imaginary shifts agree
    for m in (1, 3):
        assert abs(halfperiod_residual_g1(0.4 + 0.1j, 0.6, shift_multiple=m)) < 1e-9


# -- Weierstrass function -----------------------------------------------------------


def test_roots_validation():
    with pytest.raises(ValueError):
        WeierstrassRoots(1.0, 0.5, -1.0)  # sum != 0
    with pytest.raises(ValueError):
        WeierstrassRoots(-1.5, 0.3, 1.2)  # real triple out of order
    with pytest.raises(DegenerateRoots):
        weierstrass_p(0.5, WeierstrassRoots(0.0, 0.0, 0.0))


def test_laurent_leading_term():
    roots = WeierstrassRoots(1.2, 0.3, -1.5)
    u = 1e-5
    assert abs(u * u * weierstrass_p(u, roots) - 1) < 1e-8


def test_degenerate_root_closed_form():
    """e = (2,-1,-1) collapses to the trigonometric closed form."""
    roots = WeierstrassRoots(2.0, -1.0, -1.0)
    for u in (0.2, 0.45 + 0.1j, 0.8):
        closed = -1 + 3 / cmath.sin(math.sqrt(3) * u) ** 2
        assert abs(weierstrass_p(u, roots) - closed) < 1e-9


def test_cubic_ode_residual_generic_roots():
    """Independent route: the bridge construction must satisfy the cubic ODE."""
    roots = WeierstrassRoots(1.2, 0.3, -1.5)
    rng = random.Random(17)
    for _ in range(20):
        u = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.6, 0.6))
        assert abs(weierstrass_ode_residual(u, roots)) < 1e-9


def test_p_prime_matches_finite_difference():
    roots = WeierstrassRoots(1.2, 0.3, -1.5)
    u, h = 0.7 + 0.2j, 1e-5
    fd = (
        -weierstrass_p(u + 2 * h, roots)
        + 8 * weierstrass_p(u + h, roots)
        - 8 * weierstrass_p(u - h, roots)
        + weierstrass_p(u - 2 * h, roots)
    ) / (12 * h)
    assert abs(fd - weierstrass_p_prime(u, roots)) < 1e-6


def test_pole_guard_on_lattice():
    roots = WeierstrassRoots(1.2, 0.3, -1.5)
    with pytest.raises(PoleArgument):
        weierstrass_p(0.0, roots)


def test_standard_sn_coefficient():
    # a = (1+k^2)/2 makes v = sn(x/sqrt(2), k) a static solution of
    # v_xx + a v - k^2 v^3 = 0; at k = sqrt(2) this is a = 3/2
    for k in (math.sqrt(2), 0.6):
        a = (1 + k * k) / 2
        for x in (0.3, 0.7 + 0.2j):
            v = sn_jet(x, k, 2, scale=1 / math.sqrt(2))
            assert abs(v.value(2) + a * v.value(0) - k * k * v.value(0) ** 3) < 1e-12
