"""Static transformations between the KdV and modified-flow profile equations.

Each transformation maps a profile v(x) to u(x) so that the cubic KdV profile
operator u_xxx - 6 u u_x factors through a differential operator applied to
the v-side profile residual.  The four maps:

    miura       u = v^2 + v_x - a/6
    square      u = 2 v^2 - 2a/3
    inv_square  u = 1/v^2 - 2a/3
    inv_power   u = 1/v  - a/6

All evaluation is jet-based, so both sides use analytic derivatives of v.
Each side forms only the orders it reads.  The maps share v^2, v', v'' and
v''' (the inverse maps also v'^2 - v^4).  `static_transformation_residuals`
cuts v to the order each map reads and keeps the shared jets of the last cut
in a one-entry memo, with the jet they came from, so a caller checking
several maps on one jet object in a row forms them once per cut order, and
cuts a shorter set from a longer one.  Any other jet object forms its own,
and so does a direct call of `transformed_profile` or `source_residual_jet`.
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


class _Shared:
    """A profile jet v with the jets of it that the maps share: v^2 at the
    order of v, v', v'', v''' as far as that order allows, and, on first
    read, the inverse maps' v'^2 - v^4."""

    __slots__ = ("v", "vv", "d", "_q")

    def __init__(self, v, vv, d: tuple):
        self.v, self.vv, self.d, self._q = v, vv, d, None

    @classmethod
    def of(cls, v) -> "_Shared":
        d = [v]
        for _ in range(min(3, v.order)):
            d.append(d[-1].deriv())  # one order at a time, as Jet.deriv(times) runs
        return cls(v, v * v, tuple(d[1:]))

    def cut(self, order: int) -> "_Shared":
        """The shared jets of v.truncate(order): coefficient m of each reads v
        only up to m plus its number of derivatives, so cutting them is enough."""
        d = tuple([d.truncate(order - n) for n, d in enumerate(self.d[:order], 1)])
        return _Shared(self.v.truncate(order), self.vv.truncate(order), d)

    def quartic(self):
        """v'^2 - v^4 at the order of v', which the inverse maps' residual reads."""
        if self._q is None:
            top = self.d[0]
            w2 = self.vv.truncate(top.order)
            self._q = top * top - w2 * w2
        return self._q


# The last jet the static check read, and the shared jets of the cut of it
# that the last map read.  Holding the jet keeps its id from passing to
# another object, so any other jet, even one with the same coefficients,
# starts afresh and runs its own arithmetic.
_memo = (None, _Shared(None, None, ()))


def _shared_cut(v, order: int) -> _Shared:
    """The shared jets of v cut to `order`: the memo's, or cut from the memo's
    longer cut of v, or formed from v."""
    global _memo
    held, shared = _memo
    if held is not v or shared.v.order < order:
        shared = _Shared.of(v.truncate(order))
    elif shared.v.order > order:
        shared = shared.cut(order)
    else:
        return shared
    _memo = (v, shared)
    return shared


def _shared(v) -> _Shared:
    """The shared jets of v: the memo's when v is the cut it holds."""
    shared = _memo[1]
    return shared if shared.v is v else _Shared.of(v)


def transformed_profile(v: Jet, which: str, a) -> Jet:
    """The u-jet induced by the chosen transformation."""
    a = complex(a)
    if which == "inv_power":
        return v.reciprocal() - a / 6
    s = _shared(v)
    if which == "miura":
        if not s.d:
            raise ValueError("jet too short to differentiate")
        return s.vv + s.d[0] - a / 6  # the sum is cut to the order of v_x
    if which == "square":
        return 2 * s.vv - 2 * a / 3
    if which == "inv_square":
        return s.vv.reciprocal() - 2 * a / 3
    raise ValueError(f"unknown transformation {which!r}")


def source_residual_jet(v: Jet, which: str, a) -> Jet:
    """Jet of the v-side profile expression annihilated by the transformation,
    to the order of its highest derivative of v: all the factorization reads."""
    times = _RESIDUAL_DERIV.get(which)
    if times is None:
        raise ValueError(f"unknown transformation {which!r}")
    a = complex(a)
    s = _shared(v)
    if times > len(s.d):
        raise ValueError("jet too short to differentiate")
    top = s.d[times - 1]
    n = top.order
    w = v.truncate(n)
    if which == "miura":
        v1 = s.d[0].truncate(n)
        return top - 6 * w * w * v1 + a * v1
    w2 = s.vv.truncate(n)
    if which == "square":
        return top - 2 * (w2 * w) + a * w
    g = s.quartic() + a * w2  # the inverse maps: top is v'
    return g - 0.5 if which == "inv_square" else g - 2 * w


def static_transformation_residuals(v: Jet, which: str, a) -> tuple:
    """(lhs, rhs) of the factorization identity at the jet's base point.

    lhs is the KdV profile operator applied to the transformed u; rhs is the
    displayed differential operator applied to the v-side residual.  The two
    agree for any smooth v; lhs additionally vanishes when v solves its own
    profile equation.
    """
    order = _MIN_ORDER.get(which)
    if order is None:
        raise ValueError(f"unknown transformation {which!r}")
    if v.order < order:
        raise ValueError(f"{which} needs a jet of order >= {order}")
    a = complex(a)
    # both sides read v only to this order, and coefficient m of a product needs only those <= m
    v = _shared_cut(v, order).v
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
