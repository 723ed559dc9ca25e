"""Static transformations between the KdV and modified-flow profile equations.

Each transformation maps a profile v(x) to u(x) so that the cubic KdV profile
operator u_xxx - 6 u u_x factors through a differential operator applied to
the v-side profile residual.  The four maps:

    miura       u = v^2 + v_x - a/6
    square      u = 2 v^2 - 2a/3
    inv_square  u = 1/v^2 - 2a/3
    inv_power   u = 1/v  - a/6

All evaluation is jet-based, so both sides use analytic derivatives of v.
Each side forms only the orders it reads, and the v-side residual forms v^2
once, for v^3, v^4 and a v^2.
"""

from __future__ import annotations

import math

from .elliptic import SingularDenominator
from .jets import Jet, sn_jet, sn_jet_triple

TRANSFORMATIONS = ("miura", "square", "inv_square", "inv_power")

_DENOM_FLOOR = 1e-8

_MIN_ORDER = {"miura": 4, "square": 3, "inv_square": 3, "inv_power": 3}
# the highest derivative of v in each map's v-side profile expression
_RESIDUAL_DERIV = {"miura": 3, "square": 2, "inv_square": 1, "inv_power": 1}


def kdv_profile_operator(u: Jet) -> complex:
    """u_xxx - 6 u u_x at the expansion point."""
    return u.value(3) - 6 * u.value(0) * u.value(1)


def transformed_profile(v: Jet, which: str, a) -> Jet:
    """The u-jet induced by the chosen transformation."""
    a = complex(a)
    if which == "miura":
        w = v.truncate(v.order - 1)  # the order of v_x
        return w * w + v.deriv() - a / 6
    if which == "square":
        return 2 * v * v - 2 * a / 3
    if which == "inv_square":
        return (v * v).reciprocal() - 2 * a / 3
    if which == "inv_power":
        return v.reciprocal() - a / 6
    raise ValueError(f"unknown transformation {which!r}")


def source_residual_jet(v: Jet, which: str, a) -> Jet:
    """Jet of the v-side profile expression annihilated by the transformation,
    to the order of its highest derivative of v: all the factorization reads."""
    if which not in _RESIDUAL_DERIV:
        raise ValueError(f"unknown transformation {which!r}")
    a = complex(a)
    top = v.deriv(_RESIDUAL_DERIV[which])
    w = v.truncate(top.order)
    if which == "miura":
        v1 = v.deriv().truncate(top.order)
        return top - 6 * w * w * v1 + a * v1
    w2 = w * w
    if which == "square":
        return top - 2 * (w2 * w) + a * w
    g = top * top - w2 * w2 + a * w2  # the inverse maps: top is v'
    return g - 0.5 if which == "inv_square" else g - 2 * w


def static_transformation_residuals(v: Jet, which: str, a) -> tuple:
    """(lhs, rhs) of the factorization identity at the jet's base point.

    lhs is the KdV profile operator applied to the transformed u; rhs is the
    displayed differential operator applied to the v-side residual.  The two
    agree for any smooth v; lhs additionally vanishes when v solves its own
    profile equation.
    """
    if which not in TRANSFORMATIONS:
        raise ValueError(f"unknown transformation {which!r}")
    if v.order < _MIN_ORDER[which]:
        raise ValueError(f"{which} needs a jet of order >= {_MIN_ORDER[which]}")
    a = complex(a)
    # both sides read v only to this order, and coefficient m of a product needs only those <= m
    v = v.truncate(_MIN_ORDER[which])
    v0, vx = v.value(0), v.value(1)
    if which in ("inv_square", "inv_power"):
        if abs(v0) < _DENOM_FLOOR or abs(vx) < _DENOM_FLOOR:
            raise SingularDenominator("v or v_x too close to zero for this map")

    u = transformed_profile(v, which, a)
    lhs = kdv_profile_operator(u)
    g = source_residual_jet(v, which, a)

    if which == "miura":
        rhs = g.value(1) + 2 * v0 * g.value(0)
    elif which == "square":
        rhs = 4 * v0 * g.value(1) + 12 * vx * g.value(0)
    elif which == "inv_square":
        vxx = v.value(2)
        rhs = (
            -g.value(2) / (v0**3 * vx)
            + (vxx / (v0**3 * vx**2) + 9 / v0**4) * g.value(1)
            - 24 * vx * g.value(0) / v0**5
        )
    else:  # inv_power
        vxx = v.value(2)
        rhs = (
            -g.value(2) / (2 * v0**2 * vx)
            + (vxx / (2 * v0**2 * vx**2) + 3 / v0**3) * g.value(1)
            - 6 * vx * g.value(0) / v0**4
        )
    return lhs, rhs


# -- the paired sn profiles --------------------------------------------------

SQRT2 = math.sqrt(2)


def sn_profile_jet(x, order: int = 5) -> Jet:
    """v1(x) = sn(x/sqrt(2)) at modulus sqrt(2): the square-map profile."""
    return sn_jet(x, SQRT2, order, scale=1 / SQRT2)


def paired_profile_jet(x, order: int = 5) -> Jet:
    """v2(x) = 1/(sqrt(2) sn(x/sqrt(2))): the inverse-square-map profile."""
    return (SQRT2 * sn_profile_jet(x, order)).reciprocal()


def sn_pair_check(x) -> complex:
    """Residual of the reciprocal profile against the sn profile equation.

    shat(z) = 1/(k sn(z)) with k = sqrt(2) satisfies
    shat_zz + (1+k^2) shat - 2 k^2 shat^3 = 0; evaluated at z = x/sqrt(2).
    """
    z = complex(x) / SQRT2
    s, _, _ = sn_jet_triple(z, SQRT2, 2)
    if abs(s.value(0)) < 1e-6:
        raise SingularDenominator("x too close to a zero of sn(x/sqrt(2))")
    shat = (SQRT2 * s).reciprocal()
    k2 = 2.0
    return shat.value(2) + (1 + k2) * shat.value(0) - 2 * k2 * shat.value(0) ** 3
