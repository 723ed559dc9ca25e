"""Derivations of the function field along the two Jacobi-inversion flows.

The Abelian differentials du1 = dx1/y1 + dx2/y2 and du2 = x1 dx1/y1 +
x2 dx2/y2 invert to the vector fields

    d x1/d u2 =  y1/(x1-x2)        d x1/d u1 = -x2*y1/(x1-x2)
    d x2/d u2 = -y2/(x1-x2)        d x2/d u1 =  x1*y2/(x1-x2)

with d y_i = f'(x_i)/(2 y_i) * d x_i on the curve.  Both derivations map the
coordinate ring into (1/(x1-x2)) * ring, so a flow derivative of a Poly is an
Fld with denominator (x1 - x2).

Every field element is g = N / (x1^a * x2^b * B^k) with B = x1 - x2 (see
`Fld`).  The log derivative of the denominator is a*Dx1/x1 + b*Dx2/x2 +
k*DB/B, which gives the closed form

    D g = (N' * x1*x2*B - N * L) / (x1^(a+1) * x2^(b+1) * B^(k+2)),

with N' the numerator of D N over B and, along u2 and u1,

    L2 = a*y1*x2*B - b*y2*x1*B + k*(y1 + y2)*x1*x2,
    L1 = -a*y1*x2^2*B + b*y2*x1^2*B - k*(x2*y1 + x1*y2)*x1*x2.

The result is normalised like any product.
"""

from __future__ import annotations

from .curvering import Fld, Poly, Rat, _den_poly

_HALF = Rat(1, 2)


def flow_poly_numerator(p: Poly, direction: int) -> Poly:
    """Numerator of D_dir p over the common denominator (x1 - x2)."""
    if direction not in (1, 2):
        raise ValueError("flow direction must be 1 (u1) or 2 (u2)")
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


def _log_den_numerator(params, a: int, b: int, k: int, direction: int) -> Poly:
    """L with D(x1^a x2^b B^k) / (x1^a x2^b B^k) = L / (x1 x2 B^2), B = x1 - x2."""
    if direction == 2:
        terms = {(1, 1, 1, 0): a + k, (0, 2, 1, 0): -a, (2, 0, 0, 1): -b, (1, 1, 0, 1): b + k}
    else:
        terms = {(1, 2, 1, 0): -a - k, (0, 3, 1, 0): a, (3, 0, 0, 1): b, (2, 1, 0, 1): -b - k}
    return Poly.scaled(params, {m: c for m, c in terms.items() if c})


def flow_derivative(g: Fld, direction: int) -> Fld:
    """Exact derivative of a function-field element along u1 or u2."""
    params = g.params
    dn = flow_poly_numerator(g.num, direction)
    a, b, k = g.struct
    if not (a or b or k):
        return Fld.structured(dn, 0, 0, 1)
    num = dn * _den_poly(params, 1, 1, 1) - g.num * _log_den_numerator(params, a, b, k, direction)
    return Fld.structured(num, a + 1, b + 1, k + 2)
