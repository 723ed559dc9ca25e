"""Derivations of the function field along the two Jacobi-inversion flows.

The Abelian differentials du1 = dx1/y1 + dx2/y2 and du2 = x1 dx1/y1 +
x2 dx2/y2 invert to the vector fields

    d x1/d u2 =  y1/(x1-x2)        d x1/d u1 = -x2*y1/(x1-x2)
    d x2/d u2 = -y2/(x1-x2)        d x2/d u1 =  x1*y2/(x1-x2)

with d y_i = f'(x_i)/(2 y_i) * d x_i on the curve.  With B = x1 - x2 and the
point-i part P_i = dp/dx_i * y_i + f'(x_i)/2 * dp/dy_i of a polynomial p,

    B * D2 p = P1 - P2,        B * D1 p = -x2*P1 + x1*P2,

so a flow derivative of a Poly is an Fld with denominator B.  With f =
sum L_j x^j / D over the integers L_j = `int_lambdas` and D = `lambda_den`,
a y-reduced monomial x1^e1 * x2^e2 * y1^c1 * y2^c2 has

    P_i = e_i * x_i^(e_i-1) * y_i * rest                        (c_i = 0),
    P_i = sum_j (2e_i + j) * L_j * x_i^(e_i+j-1) * rest / (2D)  (c_i = 1),

rest being the term's factors of the other point, so no y^2 is left to
reduce.  For a term c times it, each branch is c*w*E/(2D) * m/x_i, w = D or L_j,
m = x_i^e_i*y_i*rest or x_i^(e_i+j)*rest and E = 2e_i or 2e_i + j.

Every field element is g = N / (x1^a * x2^b * B^k) (see `Fld`).  The log
derivative of the denominator is a*Dx1/x1 + b*Dx2/x2 + k*DB/B, which gives
the closed form

    D g = (N' * x1*x2*B - N * L) / (x1^(a+1) * x2^(b+1) * B^(k+2)),

with N' = B * D N and, along u2 and u1,

    L2 = a*y1*x2*B - b*y2*x1*B + k*(y1 + y2)*x1*x2,
    L1 = -a*y1*x2^2*B + b*y2*x1^2*B - k*(x2*y1 + x1*y2)*x1*x2.

Per branch of P_i, the point-i part of that numerator is c*w/(2D) * m
times x2*((E - 2a - 2k)*x1 - (E - 2a)*x2) for i = 1 and x1*((E - 2b)*x1 -
(E - 2b - 2k)*x2) for i = 2, then the flow's coefficient of P_i.  Both
numerators are written term by term in one pass, with no ring product,
and normalised like any product.  For a polynomial (a = b = k = 0) the
numerator is x1*x2*B times B * D p, which the normalisation cancels.
"""

from __future__ import annotations

from .curvering import Fld, Poly

# the flow's coefficient of P_1 and P_2 as (x1 shift, x2 shift, sign)
_VELOCITY = {2: ((0, 0, 1), (0, 0, -1)), 1: ((0, 1, -1), (1, 0, 1))}


def flow_derivative(g: Fld, direction: int) -> Fld:
    """Exact derivative of a function-field element along u1 or u2."""
    if direction not in (1, 2):
        raise ValueError("flow direction must be 1 (u1) or 2 (u2)")
    params = g.params
    a, b, k = g.struct
    # per point, the monomials a branch adds to the closed form's numerator,
    # each c*w*sign*(E + offset) times m shifted by x1^s1 * x2^s2
    parts = (((1, 1, 1, -2 * a - 2 * k), (0, 2, -1, -2 * a)), ((2, 0, 1, -2 * b), (1, 1, -1, -2 * b - 2 * k)))
    rules = [  # times the flow's coefficient of P_i
        [(s1 + v1, s2 + v2, sign * vs, off) for s1, s2, sign, off in part]
        for part, (v1, v2, vs) in zip(parts, _VELOCITY[direction])
    ]
    lams = [(j, lam) for j, lam in enumerate(params.int_lambdas) if lam]
    den = params.lambda_den
    out: dict = {}
    for (e1, e2, c1, c2), c in g.num.terms.items():
        for i, rule in enumerate(rules):
            e = e2 if i else e1
            if not (c2 if i else c1):
                branches = [((e1, e2, c1, 1) if i else (e1, e2, 1, c2), c * den, 2 * e)]
            elif i:
                branches = [((e1, e2 + j, c1, 0), c * lam, 2 * e + j) for j, lam in lams]
            else:
                branches = [((e1 + j, e2, 0, c2), c * lam, 2 * e + j) for j, lam in lams]
            for (m1, m2, n1, n2), cw, big_e in branches:
                for s1, s2, mult, off in rule:
                    coef = mult * (big_e + off)
                    if coef:
                        key = (m1 + s1, m2 + s2, n1, n2)
                        out[key] = out.get(key, 0) + cw * coef
    num = Poly.scaled(params, {m: c for m, c in out.items() if c}, g.num.scale / (2 * den))
    return Fld(num, a + 1, b + 1, k + 2)
