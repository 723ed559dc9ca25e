"""Jacobi elliptic functions and the Weierstrass function for complex arguments.

sn/cn/dn are computed by a descending Landen ladder: the modulus is driven
below 1e-8 (where trigonometric closed forms with a first-order correction
are exact to ~1e-16), then the triple is lifted back up the ladder with the
Gauss ascending formulas, which preserve sn^2+cn^2 = 1 and dn^2+k^2 sn^2 = 1
identically.  Moduli with |k| > 1 (the verification suite needs k^2 = 2) go
through the reciprocal-modulus transformation first, so the ladder always
contracts.  Far arguments are first reduced over the period lattice
{4K, 2iK'}: the imaginary coordinate to within half a period 2iK' (sn keeps
its value, cn and dn change sign), then the real one by 4K, since the ladder's
trigonometric base case breaks down far off the real axis.  Arguments more
than 10,000 periods out in either direction are rejected, since the reduction
in double precision would lose their accuracy.

Quarter periods come from the arithmetic-geometric mean: K = pi/(2 agm(1, k'))
and K' = pi/(2 agm(1, sqrt(k^2))), which keeps the digits of a small k.  Every
caller evaluates many points at one modulus, so the rung moduli of the ladder
and both quarter periods are remembered per modulus, for the last 64 moduli.
All arithmetic is double-precision complex.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

_LANDEN_BASE = 1e-8
_LANDEN_MAX_STEPS = 64
_POLE_SN_MAGNITUDE = 1e12
_REDUCE_BEYOND = 5.76  # below |2K| wherever |1 - k^2| < 0.05; nearer z skip the reduction
# the reduction by n periods 4K costs about 5e-15 * n of accuracy: within this
# many, sn/cn/dn were within 1.6e-11 of 60-digit mpmath at k = 0.7, 0.99, 0.999,
# sqrt(2) and 1.5, and within 1.7e-10 at up to 1e5 periods; n periods 2iK'
# cost about as much (3.1e-11 within this many at k = 0.7, 1e-4, 1e-6,
# 0.6+0.3i and 1.5, and 1.3e-10 within 3e4)
_MAX_PERIODS = 10_000
_AGM_TOL = 1e-15
# moduli whose Landen ladder and quarter periods are remembered
_MEMO_MODULI = 64


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


def _signs(k: complex) -> tuple:
    # 0.7+0j and 0.7-0j compare and hash equal, but their triples can differ
    # in a signed zero, so each memo below takes the signs of k into its key
    return math.copysign(1.0, k.real), math.copysign(1.0, k.imag)


@functools.lru_cache(maxsize=_MEMO_MODULI)
def _agm_quarter_period(k: complex, signs: tuple) -> complex:
    kp = _complementary_modulus(k)
    if abs(kp) == 0:
        return complex(math.inf)
    return math.pi / (2 * agm(1, kp))


def quarter_period(k) -> complex:
    """Complete elliptic integral K(k) via pi / (2 agm(1, k'))."""
    k = complex(k)
    return _agm_quarter_period(k, _signs(k))


@functools.lru_cache(maxsize=_MEMO_MODULI)
def _imaginary_quarter_period(k: complex, signs: tuple) -> complex:
    # K' = K(k') = pi / (2 agm(1, sqrt(k^2))); through k' it would lose
    # half the digits of a small k, 1e-8 of K' at k = 1e-4
    root = cmath.sqrt(k * k)
    if root == 0:
        return complex(math.inf)
    return math.pi / (2 * agm(1, root))


@functools.lru_cache(maxsize=_MEMO_MODULI)
def _landen_descent(k: complex, signs: tuple) -> tuple:
    """The descending ladder from k: 1 + k1 for each rung on the way down,
    (k1, 1 + k1) for each rung on the way up, and the base modulus."""
    # k' is carried down the ladder: recomputed from a k1 near 1 it would cancel
    kp = _complementary_modulus(k)
    rungs = []
    for _ in range(_LANDEN_MAX_STEPS):
        # one rung at least: the base case's error grows as (k^2 e^(2 |Im z|))^2,
        # O(1) near Im z = K' for the k itself, but k1 ~ k^2/4 has twice its K'
        if rungs and abs(k) < _LANDEN_BASE:
            return tuple(1 + k1 for k1 in rungs), tuple((k1, 1 + k1) for k1 in reversed(rungs)), k
        k1 = k * k / (1 + kp) ** 2
        kp = 2 * cmath.sqrt(kp) / (1 + kp)
        rungs.append(k1)
        k = k1
    raise EllipticError(f"Landen ladder failed to contract for modulus {k}")


def _sncndn_base(z: complex, k: complex):
    # |k| < 1e-8: trig closed form with first-order correction, error O(k^4)
    s, c = cmath.sin(z), cmath.cos(z)
    corr = (k * k / 4) * (z - s * c)
    return s - corr * c, c + corr * s, 1 - (k * k / 2) * s * s


def _sncndn_ladder(z: complex, k: complex):
    down, up, base = _landen_descent(k, _signs(k))
    for one_k1 in down:
        z = z / one_k1
    s, c, d = _sncndn_base(z, base)
    for k1, one_k1 in up:
        t = k1 * s * s
        den = 1 + t
        if den == 0:
            raise PoleArgument("argument lies on the pole lattice")
        s, c, d = one_k1 * s / den, c * d / den, (1 - t) / den
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
    if not _REDUCE_BEYOND < abs(z) < math.inf:
        # an infinite z is left to the ladder, whose non-finite triple
        # sncndn reports as a pole
        return _sncndn_ladder(z, k)
    # reduce z over the lattice {4K, 2iK'}: 4K is a period of sn, cn and dn,
    # and 2iK' one of sn, under which cn and dn change sign
    signs = _signs(k)
    period = 4 * _agm_quarter_period(k, signs)
    iperiod = 2j * _imaginary_quarter_period(k, signs)
    # z = a * period + b * iperiod with real a, b
    det = period.real * iperiod.imag - period.imag * iperiod.real
    iperiods = (period.real * z.imag - period.imag * z.real) / det
    flip = False
    # the ladder holds to 1.1 K' off the real axis even at k = 1e-4 (about 20 K'
    # at k = 0.7), so only points beyond half a period 2iK' are moved
    if abs(iperiods) > 0.5:
        if abs(iperiods) > _MAX_PERIODS:
            # not a pole: a caller that skips poles must not skip this point
            raise EllipticError(f"sn/cn/dn argument lies more than {_MAX_PERIODS} periods 2iK' out, too far to reduce")
        n = round(iperiods)
        z -= n * iperiod
        flip = n % 2 == 1
    periods = (z / period).real
    if abs(periods) > _MAX_PERIODS:
        raise EllipticError(f"sn/cn/dn argument lies more than {_MAX_PERIODS} periods 4K out, too far to reduce")
    z -= round(periods) * period
    s, c, d = _sncndn_ladder(z, k)
    return (s, -c, -d) if flip else (s, c, d)


def sncndn(z, k):
    """The Jacobi triple (sn, cn, dn) at complex argument and modulus."""
    z, k = complex(z), complex(k)
    try:
        s, c, d = _sncndn_core(z, k)
    except ZeroDivisionError:
        raise PoleArgument("argument lies on the pole lattice") from None
    except OverflowError:
        # not a pole: a caller that skips poles must not skip this point
        raise EllipticError(f"sn/cn/dn overflow at z = {z}, k = {k}") from None
    if not (cmath.isfinite(s) and cmath.isfinite(c) and cmath.isfinite(d)):
        raise PoleArgument("argument lies on the pole lattice")
    if abs(s) * max(abs(k), 1e-2) > _POLE_SN_MAGNITUDE:
        # |sn| ~ 1/(|k| dist); this magnitude means dist ~ 1e-13 or closer
        raise PoleArgument("argument within ~1e-13 of a pole lattice point")
    return s, c, d


def sn(z, k):
    return sncndn(z, k)[0]


def sn_ode_residual(z, k, triple=None) -> complex:
    """(d sn/dz)^2 - (1-sn^2)(1-k^2 sn^2) from the triple sncndn(z, k),
    computed here unless the caller has it in hand."""
    s, c, d = sncndn(z, k) if triple is None else triple
    return (c * d) ** 2 - (1 - s * s) * (1 - k * k * s * s)


def sn_second_derivative_residual(z, k) -> complex:
    """sn_zz + (1+k^2) sn - 2 k^2 sn^3 with sn_zz = -(s d^2 + k^2 s c^2)."""
    s, c, d = sncndn(z, k)
    k2 = complex(k) ** 2
    szz = -s * d * d - k2 * s * c * c
    return szz + (1 + k2) * s - 2 * k2 * s**3


def halfperiod_residual_g1(z, k) -> complex:
    """Residual of sn(z + 3iK') * k * sn(z) - 1.

    Any odd multiple of iK' would do, since 2iK' is a period of sn.
    """
    k = complex(k)
    kq_prime = _imaginary_quarter_period(k, _signs(k))
    sz = sn(z, k)
    if abs(sz) < 1e-6 or abs(sz) > 1e6:
        raise PoleArgument("z is within 1e-6 of a zero or pole of sn")
    shifted = sn(complex(z) + 3j * kq_prime, k)
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
