"""Derivations of the function field along the two Jacobi-inversion flows.

The Abelian differentials du1 = dx1/y1 + dx2/y2 and du2 = x1 dx1/y1 +
x2 dx2/y2 invert to the vector fields

    d x1/d u2 =  y1/(x1-x2)        d x1/d u1 = -x2*y1/(x1-x2)
    d x2/d u2 = -y2/(x1-x2)        d x2/d u1 =  x1*y2/(x1-x2)

with d y_i = f'(x_i)/(2 y_i) * d x_i on the curve.  Both derivations map the
coordinate ring into (1/(x1-x2)) * ring, so a flow derivative of a Poly is an
Fld with denominator (x1 - x2), and flow derivatives of Fld elements stay in
rationalized normal form with no extra work.
"""

from __future__ import annotations

from .curvering import Fld, Poly, Rat, _x1_minus_x2

FLOW_U1 = 1
FLOW_U2 = 2

_HALF = Rat(1, 2)


def _check_direction(direction: int) -> int:
    if direction not in (1, 2):
        raise ValueError("flow direction must be 1 (u1) or 2 (u2)")
    return direction


def flow_poly_numerator(p: Poly, direction: int) -> Poly:
    """Numerator of D_dir p over the common denominator (x1 - x2)."""
    _check_direction(direction)
    params = p.params
    p_x1 = p.partial(0)
    p_x2 = p.partial(1)
    p_y1 = p.partial(2)
    p_y2 = p.partial(3)
    y1 = Poly.variable(params, "y1")
    y2 = Poly.variable(params, "y2")
    fp1 = Poly.fprime_of(params, 1)
    fp2 = Poly.fprime_of(params, 2)
    if direction == 2:
        num = p_x1 * y1 - p_x2 * y2
        if p_y1:
            num = num + p_y1 * fp1 * _HALF
        if p_y2:
            num = num - p_y2 * fp2 * _HALF
    else:
        x1 = Poly.variable(params, "x1")
        x2 = Poly.variable(params, "x2")
        num = p_x2 * x1 * y2 - p_x1 * x2 * y1
        if p_y1:
            num = num - p_y1 * x2 * fp1 * _HALF
        if p_y2:
            num = num + p_y2 * x1 * fp2 * _HALF
    return num


def flow_derivative(g: Fld | Poly, direction: int) -> Fld:
    """Exact derivative of a function-field element along u1 or u2."""
    _check_direction(direction)
    if isinstance(g, Poly):
        return Fld(flow_poly_numerator(g, direction), _x1_minus_x2(g.params))
    binom = _x1_minus_x2(g.params)
    dn = flow_poly_numerator(g.num, direction)
    dd = flow_poly_numerator(g.den, direction)
    if dd.is_zero():
        return Fld(dn, binom * g.den)
    num = dn * g.den - g.num * dd
    return Fld(num, binom * g.den * g.den)
