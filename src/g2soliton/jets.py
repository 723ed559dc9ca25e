"""Truncated Taylor jets: exact-through-order derivatives of analytic profiles.

A Jet stores series coefficients c[n] = f^(n)(x0)/n! around one point, so the
pointwise transformation identities can be evaluated from genuinely analytic
derivatives (no finite differencing).  Jets of the Jacobi triple are grown
from the coupled first-order system sn' = cn dn, cn' = -sn dn,
dn' = -k^2 sn cn, which needs only the point values to seed it.

The convolutions (products, the reciprocal and the sn recursion) are plain
index loops.  Each coefficient is accumulated from the integer 0 in the order
of `sum`, and the loops convert nothing to `complex`, so they would run the
same on exact coefficients.
"""

from __future__ import annotations

import cmath
import math
import operator

from .elliptic import SingularDenominator, sncndn

_RECIPROCAL_FLOOR = 1e-12
# n! for every n whose n! is a float; value(n) with 171! would overflow anyway
_FACTORIALS = tuple(float(math.factorial(n)) for n in range(171))


class Jet:
    """Truncated power series around a point; index n holds f^(n)/n!."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = tuple(complex(c) for c in coef)
        if not self.coef:
            raise ValueError("a jet needs at least the value coefficient")

    @classmethod
    def _of(cls, coef: tuple) -> "Jet":
        """A jet on a nonempty tuple of complex coefficients, taken as is."""
        jet = object.__new__(cls)
        jet.coef = coef
        return jet

    @property
    def order(self) -> int:
        return len(self.coef) - 1

    def value(self, n: int = 0) -> complex:
        """The n-th derivative at the expansion point."""
        if not 0 <= n < len(self.coef):
            raise ValueError(f"jet of order {self.order} cannot give derivative {n}")
        return self.coef[n] * _FACTORIALS[n]

    def truncate(self, order: int) -> "Jet":
        """The same jet, keeping coefficients up to `order`."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate a jet of order {self.order} to order {order}")
        return Jet._of(self.coef[: order + 1])

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        return cls((complex(value),) + (0j,) * order)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet._of(tuple(map(operator.add, self.coef, other.coef)))
        if isinstance(other, (int, float, complex)):
            return Jet._of((self.coef[0] + complex(other),) + self.coef[1:])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet._of(tuple(map(operator.sub, self.coef, other.coef)))
        if isinstance(other, (int, float, complex)):
            return Jet._of((self.coef[0] - complex(other),) + self.coef[1:])
        return NotImplemented

    def __mul__(self, other):
        if type(other) is Jet:
            a, b = self.coef, other.coef
            out = []
            for m in range(min(len(a), len(b))):
                acc = 0
                for i in range(m + 1):
                    acc += a[i] * b[m - i]
                out.append(acc)
            return Jet._of(tuple(out))
        if isinstance(other, (int, float, complex)):
            other = complex(other)
            return Jet._of(tuple(c * other for c in self.coef))
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        coef = self.coef
        if abs(coef[0]) < _RECIPROCAL_FLOOR:
            raise SingularDenominator("jet value too close to zero to invert")
        inv0 = 1 / coef[0]
        out = [inv0]
        for m in range(1, len(coef)):
            acc = 0
            for i in range(1, m + 1):
                acc += coef[i] * out[m - i]
            out.append(-inv0 * acc)
        return Jet._of(tuple(out))

    def deriv(self, times: int = 1) -> "Jet":
        """Jet of f^(times), `times` orders shorter."""
        if times > self.order:
            raise ValueError("jet too short to differentiate")
        coef = self.coef
        for _ in range(times):
            coef = tuple(map(operator.mul, range(1, len(coef)), coef[1:]))
        return Jet._of(coef)


def sn_jet_triple(x0, k, order: int, scale=1.0):
    """Jets of sn, cn, dn of scale*x around x = x0."""
    z0 = complex(scale) * complex(x0)
    s0, c0, d0 = sncndn(z0, k)
    k2 = complex(k) ** 2
    sc = complex(scale)
    s, c, d = [s0], [c0], [d0]
    for n in range(order):
        conv_cd = conv_sd = conv_sc = 0
        for i in range(n + 1):
            j = n - i
            conv_cd += c[i] * d[j]
            conv_sd += s[i] * d[j]
            conv_sc += s[i] * c[j]
        s.append(sc * conv_cd / (n + 1))
        c.append(-sc * conv_sd / (n + 1))
        d.append(-k2 * sc * conv_sc / (n + 1))
    return Jet._of(tuple(s)), Jet._of(tuple(c)), Jet._of(tuple(d))


def sn_jet(x0, k, order: int, scale=1.0) -> Jet:
    return sn_jet_triple(x0, k, order, scale=scale)[0]


def trig_jet(x0, order: int, terms) -> Jet:
    """Jet of sum(amp * sin(omega*x + phase)) around x0; terms may be complex."""
    coef = []
    for n in range(order + 1):
        total = 0j
        for amp, omega, phase in terms:
            total += (
                complex(amp)
                * complex(omega) ** n
                * cmath.sin(complex(omega) * complex(x0) + complex(phase) + n * math.pi / 2)
            )
        coef.append(total / math.factorial(n))
    return Jet(coef)
