"""The long forms of the exact layer's operations, the tests' reference.

`flows.flow_derivative` writes a derivative's terms in one pass over the
numerator.  This module builds the same element the long way: partial
derivatives, f'(x_i) and `Poly` products with the y-reduction they imply,
then the closed form of the `flows` docstring as a ring expression.  Since
`Poly` and `Fld` have a canonical form, both routes must give the same
numerator, scale and denominator exponents.

`Fld` takes its denominator as exponents.  `quotient` takes it as a `Poly`
c * x1^a * x2^b * (x1 - x2)^k and factors it, so that field arithmetic can
be checked against the cross-multiplied fraction, and `swap_points`
exchanges the two curve points of an element through that route.
"""

import math

from g2soliton.curvering import Fld, Poly, Rat

_HALF = Rat(1, 2)


def den_poly(params, a: int, b: int, k: int) -> Poly:
    """x1^a * x2^b * (x1 - x2)^k, expanded by the binomial theorem."""
    return Poly(params, {(a + i, b + k - i, 0, 0): (-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)})


def den(f: Fld) -> Poly:
    """The expanded denominator x1^a * x2^b * (x1 - x2)^k of f."""
    return den_poly(f.params, *f.struct)


def quotient(num: Poly, d: Poly) -> Fld:
    """num / d for d = c * x1^a * x2^b * (x1 - x2)^k, c a nonzero rational."""
    a, b, _, _ = d.common_monomial()
    rest, k = d.shift_down((a, b, 0, 0)), 0
    while not rest.is_constant():
        rest, k = rest.try_divide(), k + 1
        assert rest is not None, "denominator is not c * x1^a * x2^b * (x1 - x2)^k"
    assert rest, "zero denominator"
    return Fld(num * (1 / rest.scale), a, b, k)


def _swap(p: Poly) -> Poly:
    return Poly(p.params, {(m[1], m[0], m[3], m[2]): c * p.scale for m, c in p.terms.items()})


def swap_points(f: Fld) -> Fld:
    """f with x1 <-> x2 and y1 <-> y2 exchanged."""
    return quotient(_swap(f.num), _swap(den(f)))


def partial(p: Poly, var: int) -> Poly:
    """Formal partial derivative treating x1,x2,y1,y2 as independent (var 0..3)."""
    out = {}
    for m, c in p.terms.items():
        if m[var]:
            out[tuple(v - 1 if i == var else v for i, v in enumerate(m))] = c * m[var]
    return Poly.scaled(p.params, out, p.scale)


def f_of(params, which: int) -> Poly:
    """The sextic f(x1) (which=1) or f(x2) (which=2) as a polynomial."""
    terms = {(j, 0, 0, 0) if which == 1 else (0, j, 0, 0): lam for j, lam in enumerate(params.int_lambdas) if lam}
    return Poly.scaled(params, terms, Rat(1, params.lambda_den))


def fprime_of(params, which: int) -> Poly:
    """d f / d x evaluated in x1 or x2."""
    terms = {
        (j - 1, 0, 0, 0) if which == 1 else (0, j - 1, 0, 0): j * lam
        for j, lam in enumerate(params.int_lambdas)
        if j and lam
    }
    return Poly.scaled(params, terms, Rat(1, params.lambda_den))


def flow_poly_numerator(p: Poly, direction: int) -> Poly:
    """Numerator of D_dir p over the common denominator (x1 - x2)."""
    if direction not in (1, 2):
        raise ValueError("flow direction must be 1 (u1) or 2 (u2)")
    params = p.params
    p_x1, p_x2, p_y1, p_y2 = (partial(p, var) for var in range(4))
    y1 = Poly.variable(params, "y1")
    y2 = Poly.variable(params, "y2")
    fp1 = fprime_of(params, 1)
    fp2 = fprime_of(params, 2)
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
    """D g by the closed form, as products in the coordinate ring."""
    params = g.params
    dn = flow_poly_numerator(g.num, direction)
    a, b, k = g.struct
    if not (a or b or k):
        return Fld(dn, 0, 0, 1)
    num = dn * den_poly(params, 1, 1, 1) - g.num * _log_den_numerator(params, a, b, k, direction)
    return Fld(num, a + 1, b + 1, k + 2)
