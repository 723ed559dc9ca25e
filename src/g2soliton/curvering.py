"""Exact arithmetic in the coordinate ring of a genus-two hyperelliptic curve.

The curve is y_i^2 = f(x_i) = l6*x_i^6 + ... + l1*x_i + l0 for two independent
points (x1, y1), (x2, y2).  Polynomials live in the quotient ring
Q[x1, x2, y1, y2] / (y1^2 - f(x1), y2^2 - f(x2)), kept in y-reduced canonical
form (every y exponent is 0 or 1).  A field element `Fld(num, a, b, k)` is
such a polynomial over x1^a * x2^b * (x1 - x2)^k, stored as the numerator
and the exponents (a, b, k).  The function families have such denominators,
and sums, products and flow derivatives keep them, which is all the catalog
computes; there is no division and no other denominator.  The normal form
(no x1, x2 or x1 - x2 shared by numerator and denominator) is taken by the
constructor and on read: arithmetic leaves its result pending, and reading
its `num` or `struct` normalises it once, in place.  Equality-to-zero
of a numerator term map is therefore an exact decision procedure for
identities between hyperelliptic functions.

Coefficients are fraction-free: a `Poly` is one rational scale times a
polynomial with integer coefficients of gcd 1.  The scale is kept as two
coprime ints, a signed numerator and a positive denominator, and read as a
`Rat` (fractions.Fraction); ring operations are integer gcd arithmetic on
them and construct no `Fraction`.  The curve coefficients are held as
integers l_j * D over their least common denominator D, and each
y_i^2 -> f(x_i) substitution moves a factor 1/D into the scale.  A sum of
field elements brings its operands to a common denominator by multiplying
each numerator by x1^a * x2^b * (x1 - x2)^k in one pass over a cached
binomial row.

Numeric probes draw points with x_i = n_i / PROBE_GRID on a grid of step
1/100 and y_i = +-sqrt(f(x_i)) at the fixed precision PROBE_DIGITS = 30
digits.  One loop sums a polynomial's integer terms per y-sector in
homogeneous coordinates (x1, x2, h): `Poly.eval_mp` runs it on mpmath
values with h = 1, and a `GridPoint` on the integers (n1, n2, PROBE_GRID),
which with its fixed-point y-weights gives a numerator's value exactly.
mpmath is imported by the functions that use it, so exact work alone never
loads it.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction as Rat
from functools import cache
from itertools import accumulate
from operator import mul
from typing import Mapping

PROBE_DIGITS = 30
# probe points have x_i = n_i / PROBE_GRID
PROBE_GRID = 100
# candidate draws rejected in a row before random_probe_point gives up
PROBE_REJECTIONS = 1000


class CurveRingError(Exception):
    pass


class PoleAtPoint(CurveRingError):
    """The denominator of a field element vanishes at the probe point."""


class NoProbePoint(CurveRingError):
    """No admissible probe point in PROBE_REJECTIONS draws in a row, as when |y| < 1e-6 on the whole grid."""


def probe_digits() -> int:
    """PROBE_DIGITS, as perfbench's run manifest records it."""
    return PROBE_DIGITS


def _to_rat(value) -> Rat:
    """An exact rational from an integer, a rational or text such as '-3/4'."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, str):
        try:
            return Rat(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, numbers.Rational):
        return Rat(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_to_mp(r):
    """Exact rational -> mpmath float at the current working precision."""
    import mpmath as mp

    return mp.mpf(r.numerator) / mp.mpf(r.denominator)


@dataclass(frozen=True)
class CurveParams:
    """The seven rational coefficients l0..l6 of the sextic f(x)."""

    lambdas: tuple
    # l_j = int_lambdas[j] / lambda_den over the least common denominator
    int_lambdas: tuple = field(init=False, repr=False, compare=False)
    lambda_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lams = tuple(_to_rat(v) for v in self.lambdas)
        if len(lams) != 7:
            raise ValueError("expected exactly 7 coefficients l0..l6")
        if all(v == 0 for v in lams):
            raise ValueError("f(x) must not be identically zero")
        den = math.lcm(*(v.denominator for v in lams))
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "int_lambdas", tuple(v.numerator * (den // v.denominator) for v in lams))
        object.__setattr__(self, "lambda_den", den)

    @classmethod
    def from_text(cls, text: str) -> "CurveParams":
        """Parse `lambda = [l0,l1,l2,l3,l4,l5,l6]`; entries are `p/q` or ints.

        A bare comma-separated list (with or without brackets) is accepted too.
        """
        body = text.strip()
        m = re.match(r"^\s*lambda\s*=\s*(.*)$", body)
        if m:
            body = m.group(1).strip()
        body = body.strip("[]")
        entries = [e.strip() for e in body.split(",") if e.strip()]
        if len(entries) != 7:
            raise ValueError(f"expected 7 lambda entries, got {len(entries)}")
        return cls(tuple(entries))

    def f_value_mp(self, x):
        import mpmath as mp

        acc = mp.mpf(0)
        for c in reversed(self.lambdas):
            acc = acc * x + rat_to_mp(c)
        return acc

    def as_strings(self) -> list[str]:
        return [str(v) for v in self.lambdas]

    def __str__(self) -> str:
        return "lambda = [" + ",".join(self.as_strings()) + "]"


def _reduce_terms(params: CurveParams, items) -> tuple:
    """Substitute y_i^2 -> f(x_i) until every y exponent is 0 or 1.

    `items` are (monomial, integer) pairs.  With f = (1/D) * sum L_j x^j, each
    substitution multiplies a term by L_j and its value by 1/D, so a term
    that needs t fewer substitutions than the r of the most reduced one is
    first multiplied by D^t.  Returns (terms, r): integer terms whose value
    is D^r times that of the input.
    """
    lams = [(j, c) for j, c in enumerate(params.int_lambdas) if c]
    den = params.lambda_den
    r = max((m[2] // 2 + m[3] // 2 for m, _ in items), default=0)
    if den != 1 and r:
        powers = [den**t for t in range(r + 1)]
        stack = [(m, c * powers[r - m[2] // 2 - m[3] // 2]) for m, c in items]
    else:
        stack = list(items)
    out: dict = {}
    while stack:
        mono, coef = stack.pop()
        if not coef:
            continue
        e1, e2, a1, a2 = mono
        if a1 >= 2:
            for j, lam in lams:
                stack.append(((e1 + j, e2, a1 - 2, a2), coef * lam))
        elif a2 >= 2:
            for j, lam in lams:
                stack.append(((e1, e2 + j, a1, a2 - 2), coef * lam))
        else:
            prev = out.get(mono)
            if prev is None:
                out[mono] = coef
            else:
                coef += prev
                if coef:
                    out[mono] = coef
                else:
                    del out[mono]
    return out, r


def _rat_mul(an: int, ad: int, bn: int, bd: int) -> tuple:
    """(an/ad) * (bn/bd) for coprime pairs, in lowest terms by cross-cancelling."""
    g, h = math.gcd(an, bd), math.gcd(bn, ad)
    if g != 1:
        an, bd = an // g, bd // g
    if h != 1:
        bn, ad = bn // h, ad // h
    return an * bn, ad * bd


def _canonical(terms: dict, sn: int, sd: int) -> tuple:
    """(terms, sn, sd) with the content and sign of integer `terms` moved into the scale sn/sd."""
    if not terms:
        return terms, 1, 1
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
        h = math.gcd(g, sd)
        if h != 1:
            g, sd = g // h, sd // h
        sn *= g
    return terms, sn, sd


def _poly(params: CurveParams, terms: dict, sn: int, sd: int) -> "Poly":
    """A Poly from terms and scale sn/sd already in canonical form."""
    out = Poly.__new__(Poly)
    out.params, out.terms, out._sn, out._sd = params, terms, sn, sd
    return out


def _y_sectors(terms) -> int:
    """Bit 0 set if some term has y1, bit 1 if some term has y2."""
    bits = 0
    for m in terms:
        bits |= m[2] | m[3] << 1
    return bits


class Poly:
    """Sparse y-reduced polynomial over the curve's coefficient field.

    The value is scale * sum(terms[m] * m).  `terms` maps exponent tuples
    (x1, x2, y1, y2) to integers with gcd 1, the lexicographically largest
    monomial has a positive coefficient, and `scale` is a nonzero rational;
    the zero polynomial has no terms and scale 1.  The scale is stored as two
    coprime ints, a signed numerator `_sn` and a positive denominator `_sd`,
    and read as a `Rat`; ring operations update them by integer gcds and
    construct no `Fraction`.  The form is canonical, so equal values compare
    and hash equal.  Immutable by convention: operations return new
    instances and never touch `terms` after construction, so values are safe
    to share across workers.
    """

    __slots__ = ("params", "terms", "_sn", "_sd")

    def __init__(self, params: CurveParams, terms: Mapping | None = None):
        """y-reduce a map from exponent tuples to rational coefficients."""
        items = [(tuple(m), _to_rat(c)) for m, c in (terms or {}).items()]
        den = math.lcm(*(c.denominator for _, c in items))
        ints, r = _reduce_terms(params, [(m, c.numerator * (den // c.denominator)) for m, c in items])
        self.params = params
        self.terms, self._sn, self._sd = _canonical(ints, 1, den * params.lambda_den**r)

    @property
    def scale(self) -> Rat:
        """The rational scale, in lowest terms."""
        return Rat(self._sn, self._sd)

    # -- constructors ------------------------------------------------------

    @classmethod
    def scaled(cls, params, terms: dict, scale=1) -> "Poly":
        """scale * sum(terms[m] * m) for nonzero integer terms, already y-reduced.

        The new value owns `terms`.
        """
        v = scale if isinstance(scale, int) else _to_rat(scale)
        return _poly(params, *_canonical(terms, v.numerator, v.denominator))

    @classmethod
    def zero(cls, params) -> "Poly":
        return _poly(params, {}, 1, 1)

    @classmethod
    def const(cls, params, value) -> "Poly":
        v = value if isinstance(value, int) else _to_rat(value)
        return _poly(params, {(0, 0, 0, 0): 1}, v.numerator, v.denominator) if v != 0 else cls.zero(params)

    @classmethod
    def variable(cls, params, name: str) -> "Poly":
        idx = {"x1": 0, "x2": 1, "y1": 2, "y2": 3}[name]
        mono = tuple(1 if i == idx else 0 for i in range(4))
        return _poly(params, {mono: 1}, 1, 1)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0, 0, 0) in self.terms)

    def _same_ring(self, other: "Poly") -> None:
        if self.params is not other.params and self.params.lambdas != other.params.lambdas:
            raise ValueError("polynomials live over different curves")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self._sn == other._sn
            and self._sd == other._sd
            and self.terms == other.terms
            and self.params.lambdas == other.params.lambdas
        )

    def __hash__(self):
        return hash((self.params.lambdas, frozenset(self.terms.items()), self._sn, self._sd))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Rat)):
            other = Poly.const(self.params, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        # common scale g/l, in lowest terms since each scale is: the
        # operands' terms get integer multipliers u, v
        sn, sd, tn, td = self._sn, self._sd, other._sn, other._sd
        g = math.gcd(sn, tn)
        l = sd if sd == td else math.lcm(sd, td)
        u = sn // g * (l // sd)
        v = tn // g * (l // td)
        out = dict(self.terms) if u == 1 else {m: c * u for m, c in self.terms.items()}
        for m, c in other.terms.items():
            c *= v
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                c += prev
                if c:
                    out[m] = c
                else:
                    del out[m]
        return _poly(self.params, *_canonical(out, g, l))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.params, self.terms, -self._sn, self._sd) if self.terms else self

    def __sub__(self, other):
        if not isinstance(other, (int, Rat, Poly)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            if other == 0:
                return Poly.zero(self.params)
            if not self.terms:
                return self
            return _poly(self.params, self.terms, *_rat_mul(self._sn, self._sd, other.numerator, other.denominator))
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_ring(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.params)
        raw: dict = {}
        for (a1, a2, b1, b2), c1 in self.terms.items():
            for (d1, d2, e1, e2), c2 in other.terms.items():
                key = (a1 + d1, a2 + d2, b1 + e1, b2 + e2)
                prev = raw.get(key)
                if prev is None:
                    raw[key] = c1 * c2
                else:
                    raw[key] = prev + c1 * c2
        sn, sd = _rat_mul(self._sn, self._sd, other._sn, other._sd)
        if _y_sectors(self.terms) & _y_sectors(other.terms):
            terms, r = _reduce_terms(self.params, list(raw.items()))
            if r and self.params.lambda_den != 1:
                sn, sd = _rat_mul(sn, sd, 1, self.params.lambda_den**r)
            return _poly(self.params, *_canonical(terms, sn, sd))
        # without a y-substitution this is a product in Z[x1, x2, y1, y2]:
        # primitive by Gauss's lemma, its leading term the product of theirs
        return _poly(self.params, {m: c for m, c in raw.items() if c}, sn, sd)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if not n:
            return Poly.const(self.params, 1)
        # binary powering from the low bit; the first factor is taken as is
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- substitutions ------------------------------------------------------

    def common_monomial(self) -> tuple:
        """Componentwise minimum exponent vector over all terms."""
        return tuple(map(min, zip(*self.terms))) if self.terms else (0, 0, 0, 0)

    def shift_down(self, mono: tuple) -> "Poly":
        """Divide by a monomial known to divide every term (negative exponents multiply)."""
        if mono == (0, 0, 0, 0):
            return self
        if self.terms and any(u < v for u, v in zip(self.common_monomial(), mono)):
            raise ValueError("monomial does not divide all terms")
        s1, s2, t1, t2 = mono
        out = {(e1 - s1, e2 - s2, a1 - t1, a2 - t2): c for (e1, e2, a1, a2), c in self.terms.items()}
        # a monomial factor keeps the lexicographic order, hence the sign
        return _poly(self.params, out, self._sn, self._sd)

    def try_divide(self):
        """Exact quotient by x1 - x2; None if it does not divide.

        Multiplying by (x1 - x2) keeps the total degree d and the y-sector, so
        division acts on each row c_0..c_d of coefficients of x1^i * x2^(d-i)
        by itself: the quotient row is the prefix sum q_i = -(c_0 + ... + c_i),
        and the row divides exactly when its sum is zero.
        """
        if not self.terms:
            return self
        rows: dict = {}
        for (e1, e2, a1, a2), v in self.terms.items():
            rows.setdefault((e1 + e2, a1, a2), {})[e1] = v
        quo: dict = {}
        for (d, a1, a2), row in rows.items():
            top = max(row)
            q = 0
            for i in range(min(row), top):
                v = row.get(i)
                if v is not None:
                    q -= v
                if q:
                    quo[(i, d - 1 - i, a1, a2)] = q
            if q != row[top]:
                return None
        # the quotient of a primitive polynomial by x1 - x2 is primitive, and
        # its leading coefficient is the dividend's
        return _poly(self.params, quo, self._sn, self._sd)

    # -- evaluation ---------------------------------------------------------

    def eval_mp(self, x1, x2, y1, y2):
        """The value at one point, in mpmath arithmetic.

        Each y-sector's integer terms are summed against power tables of x1
        and x2 (real sums when x is real), the sum multiplied by its
        y-monomial once and the total by the scale once.
        """
        import mpmath as mp

        x1, x2, y1, y2 = (mp.mpmathify(v) for v in (x1, x2, y1, y2))
        value = mp.mpc(0)
        for (a1, a2), (v, _) in _sector_sums(self.terms, x1, x2, 1)[1].items():
            value += v * ((1, y1)[a1] * (1, y2)[a2])
        return value * (mp.mpf(self._sn) / mp.mpf(self._sd))


def _sector_sums(terms: dict, x1, x2, h) -> tuple:
    """(d, sums): `terms` summed per y-sector in homogeneous coordinates.

    d is the top total x-degree, and sums maps each y-exponent pair (a1, a2)
    to (sum, sum of moduli) of its terms c * x1^e1 * x2^e2 * h^(d - e1 - e2).
    With h = 1 that is the polynomial's x-part; with integers x_i = n_i and
    h = PROBE_GRID it is h^d times its value at x_i = n_i / h, exactly.
    """
    d = max((m[0] + m[1] for m in terms), default=0)
    p1 = list(accumulate([x1] * max((m[0] for m in terms), default=0), mul, initial=1))
    p2 = list(accumulate([x2] * max((m[1] for m in terms), default=0), mul, initial=1))
    ph = list(accumulate([h] * d, mul, initial=1))
    sums: dict = {}
    for (e1, e2, a1, a2), c in terms.items():
        t = c * (p1[e1] * p2[e2] * ph[d - e1 - e2])
        acc = sums.get((a1, a2))
        sums[(a1, a2)] = (t, abs(t)) if acc is None else (acc[0] + t, acc[1] + abs(t))
    return d, sums


def _divide_binom(p: Poly, limit) -> tuple:
    """(p / (x1 - x2)^j, j) for the largest j <= limit that divides p."""
    j = 0
    while j < limit and not p.is_constant():
        q = p.try_divide()
        if q is None:
            break
        p, j = q, j + 1
    return p, j


@cache
def _binomial_row(k: int) -> tuple:
    """The terms (i, c) of (x1 - x2)^k = sum c * x1^i * x2^(k - i), i rising."""
    return tuple((i, (-1) ** (k - i) * math.comb(k, i)) for i in range(k + 1))


def _times_den(p: Poly, a: int, b: int, k: int) -> Poly:
    """p * x1^a * x2^b * (x1 - x2)^k, in one pass over p's terms.

    The scale stays: by Gauss's lemma a primitive polynomial times the
    primitive (x1 - x2)^k is primitive, and its leading coefficient is p's
    times the +1 of x1^k.  No y-reduction can arise.
    """
    if not (a or b or k) or not p.terms:
        return p
    row = _binomial_row(k)
    out: dict = {}
    for (e1, e2, y1, y2), c in p.terms.items():
        e1, e2 = e1 + a, e2 + b + k
        for i, w in row:
            key = (e1 + i, e2 - i, y1, y2)
            prev = out.get(key)
            if prev is None:
                out[key] = c * w
            else:
                out[key] = prev + c * w
    if k:
        out = {m: c for m, c in out.items() if c}
    return _poly(p.params, out, p._sn, p._sd)


class Fld:
    """Element of the curve's function field: num / (x1^a * x2^b * (x1-x2)^k).

    An element is its numerator `num` and the exponents `struct` = (a, b, k)
    of its denominator; `Fld(num, a, b, k)` is the one constructor, and the
    one place the normal form is taken: numerator and denominator share no
    x1, x2 or (x1 - x2).  A sum, difference, product or nonnegative power is
    left pending: it keeps its exact numerator over the maximal or summed
    exponents, and reading its `num` or `struct` runs the constructor on it
    once, in place.  Arithmetic and the zero test read the pending form as
    it is (its numerator is zero exactly when the element is), so a chain of
    operations normalises only what is read; negation and rational multiples
    keep the form and the flag they find.  The catalog never divides, so
    there is no division.  Two elements are equal iff their difference has
    the zero numerator.
    """

    __slots__ = ("_num", "_struct", "_pending")

    def __init__(self, num: Poly, a: int = 0, b: int = 0, k: int = 0):
        self._num, self._struct = _normalise(num, a, b, k)
        self._pending = False

    @classmethod
    def _make(cls, num: Poly, struct, pending: bool = False) -> "Fld":
        """An element taken as is: in normal form, or pending."""
        out = cls.__new__(cls)
        out._num, out._struct, out._pending = num, struct, pending
        return out

    @classmethod
    def const(cls, params, value) -> "Fld":
        return cls._make(Poly.const(params, value), (0, 0, 0))

    def _settle(self) -> None:
        if self._pending:
            self.__init__(self._num, *self._struct)

    @property
    def num(self) -> Poly:
        """The numerator in normal form."""
        self._settle()
        return self._num

    @property
    def struct(self) -> tuple:
        """The denominator's exponents (a, b, k) in normal form."""
        self._settle()
        return self._struct

    @property
    def params(self) -> CurveParams:
        return self._num.params

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Rat)):
            return Fld.const(self.params, other)
        if isinstance(other, Fld):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        sa, sb = self._struct, other._struct
        a = sa[0] if sa[0] > sb[0] else sb[0]
        b = sa[1] if sa[1] > sb[1] else sb[1]
        k = sa[2] if sa[2] > sb[2] else sb[2]
        num = _times_den(self._num, a - sa[0], b - sa[1], k - sa[2])
        num = num + _times_den(other._num, a - sb[0], b - sb[1], k - sb[2])
        return Fld._make(num, (a, b, k), True)

    __radd__ = __add__

    def __neg__(self):
        return Fld._make(-self._num, self._struct, self._pending)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            if other == 0:
                return Fld.const(self.params, 0)
            return Fld._make(self._num * other, self._struct, self._pending)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        sa, sb = self._struct, other._struct
        return Fld._make(self._num * other._num, (sa[0] + sb[0], sa[1] + sb[1], sa[2] + sb[2]), True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        a, b, k = self._struct
        return Fld._make(self._num**n, (n * a, n * b, n * k), True)

    # -- evaluation ----------------------------------------------------------

    def den_mp(self, x1, x2):
        """The denominator x1^a * x2^b * (x1 - x2)^k at one point.

        Raises PoleAtPoint where its modulus is within the working precision
        of |x1|^a * |x2|^b * (|x1| + |x2|)^k, the sum of the term magnitudes
        of its expansion.
        """
        import mpmath as mp

        a, b, k = self.struct
        x1, x2 = mp.mpmathify(x1), mp.mpmathify(x2)
        value = x1**a * x2**b * (x1 - x2) ** k
        magnitude = abs(x1) ** a * abs(x2) ** b * (abs(x1) + abs(x2)) ** k
        if abs(value) <= mp.mpf(10) ** (-(mp.mp.dps - 5)) * (magnitude + 1):
            raise PoleAtPoint("denominator vanishes at the probe point")
        return value

    def eval_mp(self, x1, x2, y1, y2):
        return self.num.eval_mp(x1, x2, y1, y2) / self.den_mp(x1, x2)


def _normalise(num: Poly, a: int, b: int, k: int) -> tuple:
    """(num, (a, b, k)) in normal form for num / (x1^a * x2^b * (x1-x2)^k).

    Shared monomials and powers of (x1 - x2) are cancelled.
    """
    if num.is_zero():
        return num, (0, 0, 0)
    gn = num.common_monomial()
    shift = (min(gn[0], a), min(gn[1], b), 0, 0)
    num = num.shift_down(shift)
    a, b = a - shift[0], b - shift[1]
    num, j = _divide_binom(num, k)
    return num, (a, b, k - j)


def random_probe_point(params: CurveParams, rng, dps: int = PROBE_DIGITS):
    """A random admissible float-mode curve point (x1, x2, y1, y2).

    Raises NoProbePoint after PROBE_REJECTIONS rejected candidates in a row.
    """
    import mpmath as mp

    with mp.workdps(dps):
        for _ in range(PROBE_REJECTIONS):
            x1 = mp.mpf(rng.randint(20, 400)) / PROBE_GRID
            x2 = mp.mpf(rng.randint(20, 400)) / PROBE_GRID
            if abs(x1 - x2) < mp.mpf("0.05"):
                continue
            y1 = mp.sqrt(mp.mpc(params.f_value_mp(x1)))
            y2 = mp.sqrt(mp.mpc(params.f_value_mp(x2)))
            if abs(y1) < mp.mpf("1e-6") or abs(y2) < mp.mpf("1e-6"):
                continue
            if rng.random() < 0.5:
                y1 = -y1
            if rng.random() < 0.5:
                y2 = -y2
            return x1, x2, y1, y2
    raise NoProbePoint(f"no admissible probe point in {PROBE_REJECTIONS} draws on {params}")


class GridPoint:
    """A probe point of random_probe_point in integers: x_i = n_i / PROBE_GRID.

    `weights` maps each y-sector (a1, a2) to its monomial 1, y1, y2 or
    y1 * y2 as a Gaussian integer (re, im) over 2^shift, and `moduli` to its
    modulus as an int over 2^shift.  They are read exactly from the mpmath
    mantissas of y1, y2 and their moduli, with a shift that drops no bit.
    `point` is the point as reported: (x1, x2, y1, y2) as float, float,
    complex, complex.
    """

    __slots__ = ("n1", "n2", "shift", "weights", "moduli", "point")

    def __init__(self, point):
        import mpmath as mp

        x1, x2, y1, y2 = point
        self.n1, self.n2 = round(float(x1) * PROBE_GRID), round(float(x2) * PROBE_GRID)
        # (re, im, modulus) of y1 and y2 as mpmath's (sign, mantissa, exponent,
        # bits), each brought to ints over 2^s with the least s >= 0 that drops no bit
        ints, shifts = [], []
        for y in (y1, y2):
            with mp.workdps(PROBE_DIGITS):
                parts = [v._mpf_[:3] for v in (y.real, y.imag, abs(y))]
            s = max(0, *(-e for _, _, e in parts))
            ints.append([(-m if sign else m) << (e + s) for sign, m, e in parts])
            shifts.append(s)
        (r1, i1, m1), (r2, i2, m2) = ints
        u1, u2 = 1 << shifts[0], 1 << shifts[1]
        self.shift = shifts[0] + shifts[1]
        self.weights = {
            (0, 0): (u1 * u2, 0),
            (1, 0): (r1 * u2, i1 * u2),
            (0, 1): (r2 * u1, i2 * u1),
            (1, 1): (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2),
        }
        self.moduli = {(0, 0): u1 * u2, (1, 0): m1 * u2, (0, 1): m2 * u1, (1, 1): m1 * m2}
        self.point = (float(x1), float(x2), complex(y1), complex(y2))

    def numerator(self, f: "Fld") -> tuple:
        """f's numerator as it stands, pending or not, here: (real, imag, magnitude, unit).

        Its value is (real + i * imag) / unit and the sum of its terms' moduli
        magnitude / unit, exactly.
        """
        p = f._num
        d, sums = _sector_sums(p.terms, self.n1, self.n2, PROBE_GRID)
        real = imag = magnitude = 0
        for sector, (v, m) in sums.items():
            wr, wi = self.weights[sector]
            real += v * wr
            imag += v * wi
            magnitude += m * self.moduli[sector]
        sn = p._sn
        return sn * real, sn * imag, abs(sn) * magnitude, p._sd * PROBE_GRID**d << self.shift

    def denominator(self, f: "Fld") -> tuple:
        """f's denominator x1^a * x2^b * (x1 - x2)^k as it stands, here: (den, unit).

        Its value is den / unit, exactly; den is 0 at a pole.
        """
        a, b, k = f._struct
        n1, n2 = self.n1, self.n2
        return n1**a * n2**b * (n1 - n2) ** k, PROBE_GRID ** (a + b + k)
