"""The genus-one kernels in their long form, the tests' reference.

`elliptic` remembers each modulus's Landen rungs and quarter periods, and
`jets` runs its convolutions as index loops.  This module keeps the form
they replaced: the ladder rebuilt on every call, K from a fresh AGM, and
every convolution coefficient a `sum` over a generator.  Both routes do the
same floating-point operations in the same order, so wherever the imaginary
period reduction of `elliptic` does not apply (|z| <= 5.76, or |Im z| below
K' for a real modulus), their outputs must agree bit for bit, signed zeros
included.
"""

import cmath
import math

_LANDEN_BASE = 1e-8
_REDUCE_BEYOND = 5.76
_AGM_TOL = 1e-15


def agm(a, b):
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


def quarter_period(k):
    k = complex(k)
    kp = cmath.sqrt((1 - k) * (1 + k))
    if abs(kp) == 0:
        return complex(math.inf)
    return math.pi / (2 * agm(1, kp))


def _ladder(z, k):
    kp = cmath.sqrt((1 - k) * (1 + k))
    ladder = []
    for _ in range(64):
        if ladder and abs(k) < _LANDEN_BASE:
            break
        k1 = k * k / (1 + kp) ** 2
        kp = 2 * cmath.sqrt(kp) / (1 + kp)
        ladder.append(k1)
        z = z / (1 + k1)
        k = k1
    else:
        raise ValueError(f"Landen ladder failed to contract for modulus {k}")
    s, c = cmath.sin(z), cmath.cos(z)
    corr = (k * k / 4) * (z - s * c)
    s, c, d = s - corr * c, c + corr * s, 1 - (k * k / 2) * s * s
    for k1 in reversed(ladder):
        den = 1 + k1 * s * s
        s, c, d = (1 + k1) * s / den, c * d / den, (1 - k1 * s * s) / den
    return s, c, d


def sncndn(z, k):
    """sn, cn, dn with z reduced by the period 4K only."""
    z, k = complex(z), complex(k)
    if k == 0:
        return cmath.sin(z), cmath.cos(z), complex(1)
    if k == 1 or k == -1:
        ch = cmath.cosh(z)
        return cmath.tanh(z), 1 / ch, 1 / ch
    if abs(k) > 1:
        s, c, d = sncndn(k * z, 1 / k)
        return s / k, d, c
    if _REDUCE_BEYOND < abs(z) < math.inf:
        period = 4 * quarter_period(k)
        z -= round((z / period).real) * period
    return _ladder(z, k)


def jet_product(a, b):
    """Coefficients of the truncated product of two coefficient tuples."""
    return tuple(sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(min(len(a), len(b))))


def sn_jet_triple(x0, k, order, scale=1.0):
    """Coefficient tuples of the sn, cn and dn jets of scale*x around x0."""
    s0, c0, d0 = sncndn(complex(scale) * complex(x0), k)
    k2 = complex(k) ** 2
    sc = complex(scale)
    s, c, d = [s0], [c0], [d0]
    for n in range(order):
        conv_cd = sum(c[i] * d[n - i] for i in range(n + 1))
        conv_sd = sum(s[i] * d[n - i] for i in range(n + 1))
        conv_sc = sum(s[i] * c[n - i] for i in range(n + 1))
        s.append(sc * conv_cd / (n + 1))
        c.append(-sc * conv_sd / (n + 1))
        d.append(-k2 * sc * conv_sc / (n + 1))
    return tuple(s), tuple(c), tuple(d)
