"""Jacobi elliptic functions and the Weierstrass function for complex arguments.

sn/cn/dn are computed by a descending Landen ladder: the modulus is driven
below 1e-8 (where trigonometric closed forms with a first-order correction
are exact to ~1e-16), then the triple is lifted back up the ladder with the
Gauss ascending formulas, which preserve sn^2+cn^2 = 1 and dn^2+k^2 sn^2 = 1
identically.  Moduli with |k| > 1 (the verification suite needs k^2 = 2) go
through the reciprocal-modulus transformation first, so the ladder always
contracts; far arguments are first reduced by the period 4K.

Quarter periods come from the arithmetic-geometric mean; all arithmetic is
double-precision complex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_LANDEN_BASE = 1e-8
_LANDEN_MAX_STEPS = 64
_POLE_SN_MAGNITUDE = 1e12
_REDUCE_BEYOND = 5.76  # below |2K| wherever |1 - k^2| < 0.05; nearer z skip the quarter_period call
_AGM_TOL = 1e-15


class EllipticError(Exception):
    pass


class PoleArgument(EllipticError):
    """Argument within roundoff reach of a pole (or forbidden zero) lattice point."""


class DegenerateRoots(EllipticError):
    """Weierstrass root triple with e1 == e3; the sn bridge has no modulus."""


class SingularDenominator(EllipticError):
    """A transformation denominator (v or v_x) is too close to zero."""


def agm(a, b) -> complex:
    """Arithmetic-geometric mean with the branch |a-b| <= |a+b| at every step."""
    a, b = complex(a), complex(b)
    for _ in range(64):
        if abs(a - b) <= _AGM_TOL * abs(a):
            return (a + b) / 2
        an = (a + b) / 2
        bn = cmath.sqrt(a * b)
        if abs(an - bn) > abs(an + bn):
            bn = -bn
        a, b = an, bn
    return (a + b) / 2


def _complementary_modulus(k: complex) -> complex:
    """k' = sqrt(1 - k^2), factored so that it does not cancel near k = +-1."""
    return cmath.sqrt((1 - k) * (1 + k))


def quarter_period(k) -> complex:
    """Complete elliptic integral K(k) via pi / (2 agm(1, k'))."""
    k = complex(k)
    kp = _complementary_modulus(k)
    if abs(kp) == 0:
        return complex(math.inf)
    return math.pi / (2 * agm(1, kp))


def _sncndn_base(z: complex, k: complex):
    # |k| < 1e-8: trig closed form with first-order correction, error O(k^4)
    s, c = cmath.sin(z), cmath.cos(z)
    corr = (k * k / 4) * (z - s * c)
    return s - corr * c, c + corr * s, 1 - (k * k / 2) * s * s


def _sncndn_ladder(z: complex, k: complex):
    # k' is carried down the ladder: recomputed from a k1 near 1 it would cancel
    kp = _complementary_modulus(k)
    ladder = []
    for _ in range(_LANDEN_MAX_STEPS):
        if abs(k) < _LANDEN_BASE:
            break
        k1 = k * k / (1 + kp) ** 2
        kp = 2 * cmath.sqrt(kp) / (1 + kp)
        ladder.append(k1)
        z = z / (1 + k1)
        k = k1
    else:
        raise EllipticError(f"Landen ladder failed to contract for modulus {k}")
    s, c, d = _sncndn_base(z, k)
    for k1 in reversed(ladder):
        den = 1 + k1 * s * s
        if den == 0:
            raise PoleArgument("argument lies on the pole lattice")
        s, c, d = (1 + k1) * s / den, c * d / den, (1 - k1 * s * s) / den
    return s, c, d


def _sncndn_core(z: complex, k: complex):
    if k == 0:
        return cmath.sin(z), cmath.cos(z), complex(1)
    if k == 1 or k == -1:
        ch = cmath.cosh(z)
        return cmath.tanh(z), 1 / ch, 1 / ch
    if abs(k) > 1:
        # reciprocal modulus: sn(z,k) = sn(kz,1/k)/k, cn <-> dn swap
        s, c, d = _sncndn_core(k * z, 1 / k)
        return s / k, d, c
    if _REDUCE_BEYOND < abs(z) < math.inf:
        # 4K is a period of sn, cn and dn for every modulus; an infinite z is
        # left to the ladder, whose non-finite triple sncndn reports as a pole
        period = 4 * quarter_period(k)
        z -= round((z / period).real) * period
    return _sncndn_ladder(z, k)


def sncndn(z, k):
    """The Jacobi triple (sn, cn, dn) at complex argument and modulus."""
    z, k = complex(z), complex(k)
    try:
        triple = _sncndn_core(z, k)
    except ZeroDivisionError:
        raise PoleArgument("argument lies on the pole lattice") from None
    s = triple[0]
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in triple):
        raise PoleArgument("argument lies on the pole lattice")
    if abs(s) * max(abs(k), 1e-2) > _POLE_SN_MAGNITUDE:
        # |sn| ~ 1/(|k| dist); this magnitude means dist ~ 1e-13 or closer
        raise PoleArgument("argument within ~1e-13 of a pole lattice point")
    return triple


def sn(z, k):
    return sncndn(z, k)[0]


def sn_ode_residual(z, k) -> complex:
    """(d sn/dz)^2 - (1-sn^2)(1-k^2 sn^2) from the computed triple."""
    s, c, d = sncndn(z, k)
    return (c * d) ** 2 - (1 - s * s) * (1 - k * k * s * s)


def sn_second_derivative_residual(z, k) -> complex:
    """sn_zz + (1+k^2) sn - 2 k^2 sn^3 with sn_zz = -(s d^2 + k^2 s c^2)."""
    s, c, d = sncndn(z, k)
    k2 = complex(k) ** 2
    szz = -s * d * d - k2 * s * c * c
    return szz + (1 + k2) * s - 2 * k2 * s**3


def halfperiod_residual_g1(z, k, shift_multiple: int = 3) -> complex:
    """Residual of sn(z + m*i*K') * k * sn(z) - 1 for odd m (default 3).

    Any odd multiple works since 2iK' is a period of sn.
    """
    k = complex(k)
    kq_prime = quarter_period(_complementary_modulus(k))
    sz = sn(z, k)
    if abs(sz) < 1e-6 or abs(sz) > 1e6:
        raise PoleArgument("z is within 1e-6 of a zero or pole of sn")
    shifted = sn(complex(z) + shift_multiple * 1j * kq_prime, k)
    return shifted * k * sz - 1


@dataclass(frozen=True)
class WeierstrassRoots:
    """Roots of 4(t-e1)(t-e2)(t-e3) with e1+e2+e3 = 0 (depressed cubic)."""

    e1: complex
    e2: complex
    e3: complex

    def __post_init__(self):
        e1, e2, e3 = complex(self.e1), complex(self.e2), complex(self.e3)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "e3", e3)
        scale = max(abs(e1), abs(e2), abs(e3), 1.0)
        if abs(e1 + e2 + e3) > 1e-12 * scale:
            raise ValueError("root triple must sum to zero")
        if all(abs(e.imag) < 1e-14 for e in (e1, e2, e3)):
            if not (e1.real >= e2.real >= e3.real):
                raise ValueError("real root triples must be ordered e1 >= e2 >= e3")

    @property
    def modulus_sq(self) -> complex:
        return (self.e2 - self.e3) / (self.e1 - self.e3)


def _p_pair(u, roots: WeierstrassRoots) -> tuple:
    """(P(u), P'(u)) through the inverse-square bridge to sn.

    P(u) = e3 + (e1-e3)/sn^2(w, k) and P'(u) = -2 (e1-e3)^(3/2) cn dn / sn^3
    at w = u*sqrt(e1-e3), with k^2 = (e2-e3)/(e1-e3).
    """
    delta = roots.e1 - roots.e3
    scale = max(abs(roots.e1), abs(roots.e3), 1.0)
    if abs(delta) < 1e-12 * scale:
        raise DegenerateRoots("e1 == e3 leaves the modulus undefined")
    root_delta = cmath.sqrt(delta)
    s, c, d = sncndn(complex(u) * root_delta, cmath.sqrt(roots.modulus_sq))
    if abs(s) < 1e-10:
        raise PoleArgument("u lies on the pole lattice of P")
    return roots.e3 + delta / (s * s), -2 * delta * root_delta * c * d / s**3


def weierstrass_p(u, roots: WeierstrassRoots) -> complex:
    """P(u) through the inverse-square bridge to sn (see `_p_pair`)."""
    return _p_pair(u, roots)[0]


def weierstrass_p_prime(u, roots: WeierstrassRoots) -> complex:
    """dP/du from the same bridge: -2 (e1-e3)^(3/2) cn dn / sn^3."""
    return _p_pair(u, roots)[1]


def weierstrass_ode_residual(u, roots: WeierstrassRoots) -> complex:
    """(P')^2 - 4 (P-e1)(P-e2)(P-e3): the defining cubic, used as the oracle."""
    p, dp = _p_pair(u, roots)
    return dp * dp - 4 * (p - roots.e1) * (p - roots.e2) * (p - roots.e3)
