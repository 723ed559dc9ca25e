"""Genus-two hyperelliptic function identities as exact zero tests.

The symmetric two-point functions of the curve come in three families:

* the Weierstrass-type triple  p22 = (l5/4)(x1+x2),  p21 = -(l5/4)x1x2,
  q = (F - 2 y1 y2) / (4 (x1-x2)^2)  with F the symmetric pairing polynomial;
* the r-family (r22, r21, r11), which absorbs the sextic top coefficient so
  that both integrability relations close for every curve;
* the Jacobi-type triple (hp11, hp21, hq) obtained from the Weierstrass one
  by the dual involution x -> 1/x with reversed coefficients.

Every catalogued identity is a rational-function combination of these
functions and their flow derivatives that must reduce to the exact zero
field element.  Each identity is stored once as a builder over one context
class, `_Context`, which gives two independent evaluation routes: exact
reduction in the function field, and high-precision numeric evaluation at
random curve points (the Schwartz-Zippel style probe used both as a
development oracle and to certify nonzero witnesses).  As in the paper, the
derived identities are not written out: each is a route, one of the
written-out builders run on a context with curve coefficients pinned to zero
(the quintic entries pin l6, and l0) and, for a Jacobi-type entry, the dual
view, on its root's locus transformed.  Exact residuals are memoized per
curve by route, with the pins the curve already meets dropped: on
l0 = l6 = 0, where the two systems coincide, WS1-WS5, KUM1 and JS1-JS5 are
their partners' residuals, assembled once.  Every function is a numerator
over x1^a * x2^b * (x1-x2)^k.
"""

from __future__ import annotations

import functools
import random
import re
import time
from dataclasses import dataclass, field, replace

import mpmath as mp

from .curvering import (
    PROBE_DIGITS,
    CurveParams,
    CurveRingError,
    Fld,
    PoleAtPoint,
    Poly,
    Rat,
    random_probe_point,
    rat_to_mp,
    _to_rat,
)
from .flows import flow_derivative


class MissingConstraint(CurveRingError):
    """An identity was requested on a curve violating its lambda constraints."""


# -- constraint vocabulary ----------------------------------------------------

_CONSTRAINT_TEXT = re.compile(r"\s*l(\d)\s*(!=|=)\s*(\S+)\s*")


@dataclass(frozen=True)
class Constraint:
    """One condition on a curve coefficient: l<index> = value, or l<index> != 0."""

    index: int
    kind: str  # "=" or "!="
    value: Rat

    @classmethod
    def parse(cls, text: str) -> "Constraint":
        """Read 'l<i>=<rational>' or 'l<i>!=0' with i in 0..6."""
        m = _CONSTRAINT_TEXT.fullmatch(text)
        if m is None or int(m.group(1)) > 6:
            raise ValueError(f"constraint must read l<i>=<rational> or l<i>!=0 with i in 0..6, got {text!r}")
        value = _to_rat(m.group(3))
        if m.group(2) == "!=" and value != 0:
            raise ValueError(f"only l<i>!=0 is supported, got {text!r}")
        return cls(int(m.group(1)), m.group(2), value)

    def holds(self, params: CurveParams) -> bool:
        v = params.lambdas[self.index]
        return v == self.value if self.kind == "=" else v != self.value

    def __str__(self) -> str:
        return f"l{self.index}{self.kind}{self.value}"


def merge_constraints(constraints) -> tuple:
    """Fold constraints (or their text) into at most one per coefficient.

    An equation absorbs a compatible 'l<i>!=0' ('l5=4' with 'l5!=0' gives
    'l5=4'); two values for one coefficient, or 'l<i>=0' with 'l<i>!=0',
    raise ValueError.  The result is ordered by coefficient index and does
    not depend on the order of the input.
    """
    parsed = [c if isinstance(c, Constraint) else Constraint.parse(c) for c in constraints]
    merged: dict = {}
    for c in sorted(parsed, key=str):
        prev = merged.get(c.index)
        if prev is None or prev == c:
            merged[c.index] = c
            continue
        eq, other = (prev, c) if prev.kind == "=" else (c, prev)
        if other.kind == "=" or eq.value == 0:
            raise ValueError(f"contradictory constraints {prev} and {c}")
        merged[c.index] = eq
    return tuple(merged[i] for i in sorted(merged))


@dataclass(frozen=True)
class IdentityId:
    """Catalog tag plus the lambda constraints the identity needs."""

    tag: str
    constraints: tuple  # merged Constraint values

    @property
    def required_constraints(self) -> frozenset:
        """The constraints as canonical text such as 'l5!=0'."""
        return frozenset(map(str, self.constraints))

    def violated(self, params: CurveParams) -> list[str]:
        """The constraints the curve fails, as sorted canonical text."""
        return sorted(str(c) for c in self.constraints if not c.holds(params))


# -- the function families ----------------------------------------------------


def symmetric_pairing(params: CurveParams) -> Poly:
    """F(x1,x2): the polarized form of f whose square section is (y1 y2)^2."""
    l = params.int_lambdas
    terms = {
        (3, 3, 0, 0): 2 * l[6],
        (3, 2, 0, 0): l[5],
        (2, 3, 0, 0): l[5],
        (2, 2, 0, 0): 2 * l[4],
        (2, 1, 0, 0): l[3],
        (1, 2, 0, 0): l[3],
        (1, 1, 0, 0): 2 * l[2],
        (1, 0, 0, 0): l[1],
        (0, 1, 0, 0): l[1],
        (0, 0, 0, 0): 2 * l[0],
    }
    return Poly.scaled(params, {m: c for m, c in terms.items() if c}, Rat(1, params.lambda_den))


class G2Functions:
    """The exact function families over one curve, with memoized derivatives.

    Every family is built on every curve: p22 and p21 vanish when l5 = 0,
    hp11 and hp21 when l1 = 0, and the catalog loci keep the identities
    that divide by those coefficients off such curves.  The derivative and
    residual tables memoize lazily under single-assignment semantics (entries
    are pure values, recomputation is harmless), and curve sweeps parallelize
    across processes, one instance per worker.
    """

    def __init__(self, params: CurveParams):
        self.params = params
        l = params.lambdas
        x1 = Poly.variable(params, "x1")
        x2 = Poly.variable(params, "x2")
        y1y2 = Poly(params, {(0, 0, 1, 1): 1})
        self.f_poly = symmetric_pairing(params)
        # (F - 2 y1 y2) / 4, the numerator of q and hq
        q_num = (self.f_poly - 2 * y1y2) * Rat(1, 4)

        quarter5 = l[5] / 4
        self.q = Fld(q_num, 0, 0, 2)
        self.p22 = Fld((x1 + x2) * quarter5)
        self.p21 = Fld(x1 * x2 * (-quarter5))

        half6 = l[6] / 2
        self.r22 = Fld((x1 + x2) * quarter5 + (x1 * x1 + x1 * x2 + x2 * x2) * half6)
        self.r21 = Fld(x1 * x2 * (-quarter5) + (x1 * x1 * x2 + x1 * x2 * x2) * (-half6))
        self.r11 = self.q + Fld((x1 * x2) ** 2 * half6)

        quarter1 = l[1] / 4
        self.hp11 = Fld((x1 + x2) * quarter1, 1, 1)
        self.hp21 = Fld(Poly.const(params, -quarter1), 1, 1)
        self.hq = Fld(q_num, 1, 1, 2)

        self._derivs: dict = {}
        # residual tuples by route, filled by residuals_unchecked
        self._residuals: dict = {}
        self._probe_points: list = []
        self._probe_rng = random.Random(0)

    def probe_point(self, index: int):
        """Point `index` of the probe stream: the draws of random_probe_point(params,
        Random(0)) at PROBE_DIGITS, made once and extended lazily."""
        points = self._probe_points
        while len(points) <= index:
            points.append(random_probe_point(self.params, self._probe_rng))
        return points[index]

    def deriv(self, name: str, dirs: str = "") -> Fld:
        """Flow derivative of a named base function; dirs like '1', '22', '12'.

        Directions commute, so the key is order-normalized.
        """
        dirs = "".join(sorted(dirs))
        key = (name, dirs)
        cached = self._derivs.get(key)
        if cached is not None:
            return cached
        if not dirs:
            value = getattr(self, name)
        else:
            inner = self.deriv(name, dirs[:-1])
            value = flow_derivative(inner, int(dirs[-1]))
        self._derivs[key] = value
        return value


# -- the builder context ----------------------------------------------------------

_DUAL_NAMES = {"p22": "hp11", "p21": "hp21", "q": "hq"}
_DUAL_FLOWS = str.maketrans("12", "21")


class _Context:
    """What a builder reads: the curve coefficients l0..l6, `one`, the
    families by name and their flow derivatives d(name, dirs) = value(name, dirs).

    The exact route reads Fld elements, the numeric one their mpmath values
    at a probe point.  Each l<j>, j in `pins`, reads as 0 * l<j>, a zero of
    its own type, so a sextic builder assembles its l6 = 0 or l0 = l6 = 0
    form.  Pins name the curve's own coefficients, so they apply before the
    dual view.  A `dual` context shows the curve through the dual involution:
    x_i -> 1/x_i, y_i -> y_i/x_i^3 maps the curve with reversed coefficients
    onto this one, its Weierstrass triple (p22, p21, q) onto (hp11, hp21, hq)
    and its flow u1 onto -u2.  The catalog's residuals are linear in second
    flow derivatives or in first ones, so that sign flips at most the sign of
    the residual: a Weierstrass builder run here assembles the image of its
    identity on the reversed curve, the matching Jacobi identity.
    """

    def __init__(self, lams, one, value, dual=False, pins=()):
        lams = [0 * l if j in pins else l for j, l in enumerate(lams)]
        for j, l in enumerate(reversed(lams) if dual else lams):
            setattr(self, f"l{j}", l)
        self.one = one
        self._value = value
        self._dual = dual

    def __getattr__(self, name):
        return self.d(name, "")

    def d(self, name: str, dirs: str):
        if self._dual:
            if name not in _DUAL_NAMES:
                raise AttributeError(f"{name} has no image under the dual involution")
            name, dirs = _DUAL_NAMES[name], dirs.translate(_DUAL_FLOWS)
        return self._value(name, dirs)


# -- identity builders ---------------------------------------------------------


def _det2(a, b, c, d):
    return a * d - b * c


def _det3(m):
    return (
        m[0][0] * _det2(m[1][1], m[1][2], m[2][1], m[2][2])
        - m[0][1] * _det2(m[1][0], m[1][2], m[2][0], m[2][2])
        + m[0][2] * _det2(m[1][0], m[1][1], m[2][0], m[2][1])
    )


def _det4(m):
    """Exact cofactor expansion along the first row; no pivoting."""
    total = None
    for j in range(4):
        if m[0][j] == 0:
            continue
        minor = [[m[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        term = m[0][j] * _det3(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def _kummer_quartic(c):
    """The 4x4 symmetric-kernel determinant in X=p22, Y=p21, Z=q."""
    X, Y, Z = c.p22, c.p21, c.q
    m = [
        [-c.l0, c.l1 / 2, 2 * Z, -2 * Y],
        [c.l1 / 2, -c.l2 - 4 * Z, c.l3 / 2 + 2 * Y, 2 * X],
        [2 * Z, c.l3 / 2 + 2 * Y, -c.l4 - 4 * X, c.l5 / 2],
        [-2 * Y, 2 * X, c.l5 / 2, 0 * c.one],
    ]
    return _det4(m)


def _kummer_correction(c):
    if c.l6 == 0:
        return 0 * c.one
    # the Y^2 term carries l0*l5^2: derived by expanding
    # (F/2 - 2(x1-x2)^2 Z)^2 = f(x1) f(x2) in symmetric coordinates and
    # subtracting the quartic kernel determinant; confirmed by exact sweeps
    X, Y, Z = c.p22, c.p21, c.q
    inner = (
        -c.l0 * c.l5**2 * Y**2
        - 8 * c.l0 * c.l5 * X**2 * Y
        + 4 * c.l1 * c.l5 * X * Y**2
        + 16
        * (
            -c.l0 * X**4
            + c.l1 * X**3 * Y
            - c.l2 * X**2 * Y**2
            + c.l3 * X * Y**3
            - c.l4 * Y**4
            + c.l5 * Y**3 * Z
        )
    )
    return 4 * c.l6 / c.l5**2 * inner


_BUILDERS = {}
_IDENTITY_IDS: dict = {}


def _identity(tag, *constraints):
    def register(fn):
        _BUILDERS[tag] = fn
        _IDENTITY_IDS[tag] = IdentityId(tag, merge_constraints(constraints))
        return fn

    return register


# W1-W5 build their l6 terms only when l6 != 0: WS1-WS5 run them with l6 pinned to 0
@_identity("W1", "l5!=0")  # fourth u2-derivative closure for p22
def _w1(c):
    r = c.d("p22", "22")
    if c.l6:
        r = r - 32 * c.l6 / c.l5**2 * c.p22**3 - 12 * c.l6 / c.l5 * c.p22 * c.p21
    return (
        r
        - 6 * c.p22**2
        - c.l4 * c.p22
        - c.l5 * c.p21
        - c.l3 * c.l5 / 8
    )


@_identity("W2", "l5!=0")  # mixed (u2^3 u1) closure for p22
def _w2(c):
    r = c.d("p22", "12")
    if c.l6:
        r = r - 32 * c.l6 / c.l5**2 * c.p22**2 * c.p21 - 4 * c.l6 / c.l5 * c.p21**2
    return (
        r
        - 6 * c.p22 * c.p21
        - c.l4 * c.p21
        + c.l5 / 2 * c.q
    )


@_identity("W3", "l5!=0")  # mixed (u2^2 u1^2) closure for p22
def _w3(c):
    r = c.d("p22", "11")
    if c.l6:
        r = r - 32 * c.l6 / c.l5**2 * c.p22 * c.p21**2
    return (
        r
        - 2 * c.p22 * c.q
        - 4 * c.p21**2
        - c.l3 / 2 * c.p21
    )


@_identity("W4", "l5!=0")  # mixed (u2 u1^3) closure for p21
def _w4(c):
    r = c.d("p21", "11")
    if c.l6:
        r = r - 32 * c.l6 / c.l5**2 * c.p21**3
    return (
        r
        - 6 * c.p21 * c.q
        + c.l1 / 2 * c.p22
        - c.l2 * c.p21
        + c.l0 * c.l5 / 4
    )


@_identity("W5", "l5!=0")  # u1^2 closure for q
def _w5(c):
    r = c.d("q", "11")
    if c.l6:
        r = (
            r
            - 32 * c.l6 / c.l5**2 * c.p21**2 * c.q
            + 16 * c.l0 * c.l6 / c.l5**2 * c.p22**2
            - 8 * c.l1 * c.l6 / c.l5**2 * c.p22 * c.p21
        )
    return (
        r
        - 6 * c.q**2
        + 3 * c.l0 * c.p22
        - (c.l1 - 2 * c.l0 * c.l6 / c.l5) * c.p21
        - c.l2 * c.q
        + c.l0 * c.l4 / 2
        - c.l1 * c.l3 / 8
    )


@_identity("W6", "l5!=0")  # mixed u2 u1 closure for q
def _w6(c):
    return (
        c.d("q", "12")
        - 32 * c.l6 / c.l5**2 * c.p22 * c.p21 * c.q
        + 4 * c.l1 * c.l6 / c.l5**2 * c.p22**2
        - 8 * c.l2 * c.l6 / c.l5**2 * c.p22 * c.p21
        + 4 * c.l3 * c.l6 / c.l5**2 * c.p21**2
        - 6 * c.p21 * c.q
        + (2 * c.l0 * c.l6 / c.l5 + c.l1 / 2) * c.p22
        - c.l2 * c.p21
        + c.l0 * c.l5 / 4
    )


@_identity("W7", "l5!=0")  # u2^2 closure for q
def _w7(c):
    return (
        c.d("q", "22")
        - 32 * c.l6 / c.l5**2 * c.p22**2 * c.q
        + (16 * c.l4 * c.l6 / c.l5**2 - 4) * c.p21**2
        - 8 * c.l3 * c.l6 / c.l5**2 * c.p22 * c.p21
        - 2 * c.p22 * c.q
        - 20 * c.l6 / c.l5 * c.p21 * c.q
        + c.l1 * c.l6 / c.l5 * c.p22
        + (-2 * c.l2 * c.l6 / c.l5 - c.l3 / 2) * c.p21
        + c.l0 * c.l6 / 2
    )


@_identity("INT-R")  # both integrability relations of the r-family
def _int_r(c):
    return (
        c.d("r22", "1") - c.d("r21", "2"),
        c.d("r21", "1") - c.d("r11", "2"),
    )


@_identity("INT-W", "l5!=0")  # first integrability relation of the Weierstrass triple
def _int_w(c):
    return c.d("p22", "1") - c.d("p21", "2")


@_identity("INT-W2", "l5!=0", "l6=0")  # second integrability relation; closes only for l6=0
def _int_w2(c):
    return c.d("p21", "1") - c.d("q", "2")


@_identity("KUM2", "l5!=0")  # generalized quartic relation (sextic curves)
def _kum2(c):
    return _kummer_quartic(c) + _kummer_correction(c)


# Derived entries are routes: (root builder, dual view or not, curve
# coefficients pinned to zero).  The pins apply before the dual view, so they
# name the curve's own coefficients.  A derived locus is computed from its
# route, so no formula or locus is stated twice.
_ROUTES = {tag: (tag, False, ()) for tag in _BUILDERS}
for _tag, _root, _dual, _pins in (
    # quintic entries: the sextic partner with l6 (and l0) pinned to zero
    ("WS1", "W1", False, (6,)),  # quintic-curve u2^4 closure for p22
    ("WS2", "W2", False, (6,)),  # quintic-curve mixed closure with q as p11
    ("WS3", "W3", False, (6,)),  # quintic-curve (u2 u1)^2 closure
    ("WS4", "W4", False, (0, 6)),  # quintic-curve u1^3 u2 closure
    ("WS5", "W5", False, (0, 6)),  # quintic-curve u1^4 closure
    ("KUM1", "KUM2", False, (6,)),  # quartic kernel determinant (quintic curves)
    # Jacobi-type entries: the Weierstrass partner read through the dual involution
    ("J1", "W4", True, ()),  # dual-triple u2^3 u1 closure
    ("J2", "W3", True, ()),  # dual-triple u2^2 u1^2 closure
    ("J3", "W2", True, ()),  # dual-triple u2 u1^3 closure
    ("J4", "W1", True, ()),  # dual-triple u1^4 closure
    ("J5", "W7", True, ()),  # dual-triple u1^2 closure for hq
    ("J6", "W6", True, ()),  # dual-triple mixed u2 u1 closure for hq
    ("J7", "W5", True, ()),  # dual-triple u2^2 closure for hq
    ("INT-J", "INT-W", True, ()),  # second integrability relation of the dual triple
    ("INT-J2", "INT-W2", True, ()),  # first dual integrability relation; closes only for l0=0
    # JS1-JS5 are the dual images of WS5-WS1: their pins, reflected into curve coordinates
    ("JS1", "W5", True, (0, 6)),  # dual triple satisfies the quintic u2^4 closure
    ("JS2", "W4", True, (0, 6)),  # dual triple, mixed u2^3 u1 closure
    ("JS3", "W3", True, (0,)),  # dual triple, (u2 u1)^2 closure
    ("JS4", "W2", True, (0,)),  # dual triple, u1^3 u2 closure
    ("JS5", "W1", True, (0,)),  # dual triple, u1^4 closure
):
    _ROUTES[_tag] = (_root, _dual, _pins)
    _locus = _IDENTITY_IDS[_root].constraints
    if _dual:  # the dual view reads l_j as l_(6-j)
        _locus = tuple(replace(c, index=6 - c.index) for c in _locus)
    _IDENTITY_IDS[_tag] = IdentityId(_tag, merge_constraints(_locus + tuple(Constraint(j, "=", Rat(0)) for j in _pins)))

for _tag in ("KUM1", "KUM2"):  # the catalog closes with the Kummer pair
    _IDENTITY_IDS[_tag] = _IDENTITY_IDS.pop(_tag)


def identity_ids() -> dict:
    return dict(_IDENTITY_IDS)


IDENTITY_SETS = {
    "weierstrass": ["W1", "W2", "W3", "W4", "W5", "W6", "W7"],
    "jacobi": ["J1", "J2", "J3", "J4", "J5", "J6", "J7"],
    "weierstrass-special": ["WS1", "WS2", "WS3", "WS4", "WS5", "INT-W2"],
    "jacobi-special": ["JS1", "JS2", "JS3", "JS4", "JS5", "INT-J2"],
    "kummer": ["KUM2", "KUM1"],
    "integrability": ["INT-R", "INT-W", "INT-J"],
}
IDENTITY_SETS["all"] = list(_IDENTITY_IDS)


def _as_tuple(value):
    return value if isinstance(value, tuple) else (value,)


def _assemble(lams, one, value, root, dual, pins) -> tuple:
    """The residual components of `root`'s builder on one `_Context`."""
    return _as_tuple(_BUILDERS[root](_Context(lams, one, value, dual, pins)))


def residuals(tag: str, fns: G2Functions) -> tuple:
    """All residual components of one identity, as exact field elements."""
    bad = _IDENTITY_IDS[tag].violated(fns.params)
    if bad:
        raise MissingConstraint(f"{tag} needs {', '.join(bad)} on curve {fns.params}")
    return residuals_unchecked(tag, fns)


def residuals_unchecked(tag: str, fns: G2Functions) -> tuple:
    """Assemble residuals without the constraint guard (for witness studies).

    Memoized on `fns` by route, keeping only the pins whose coefficient is
    nonzero on the curve: an entry whose pins the curve already meets
    returns its partner's tuple, assembled once.
    """
    root, dual, pins = _ROUTES[tag]
    key = (root, dual, tuple(j for j in pins if fns.params.lambdas[j]))
    found = fns._residuals.get(key)
    if found is None:
        found = fns._residuals[key] = _assemble(fns.params.lambdas, Fld.const(fns.params, 1), fns.deriv, *key)
    return found


def probe_identity(tag: str, fns: G2Functions, point) -> tuple:
    """Numeric values of the residual components at one probe point.

    Every sum and product is evaluated in mpmath arithmetic; the only shared
    machinery with the exact route is the symbolic flow-derivative table.
    """
    value = functools.cache(lambda name, dirs: fns.deriv(name, dirs).eval_mp(*point))
    return _assemble([rat_to_mp(v) for v in fns.params.lambdas], mp.mpf(1), value, *_ROUTES[tag])


# -- verification driver --------------------------------------------------------

WITNESS_TRIES = 25
# the statuses that fail a check: an unresolved residual is exactly nonzero,
# only its witness is missing
FAILING_STATUSES = frozenset({"nonzero", "unresolved"})


@dataclass
class IdentityResult:
    tag: str
    status: str  # "zero" | "nonzero" | "unresolved" (nonzero, no witness found) | "skipped"
    millis: float = 0.0
    witness_point: list | None = None
    witness_value: str | None = None
    reason: str | None = None

    def to_json(self, curve: CurveParams) -> dict:
        return {
            "curve": curve.as_strings(),
            "identity": self.tag,
            "status": self.status,
            "witness_point": self.witness_point,
            "millis": round(self.millis, 3),
            "reason": self.reason,
        }


@dataclass
class VerifyReport:
    curve: CurveParams
    results: list = field(default_factory=list)

    def to_json_entries(self) -> list:
        return [r.to_json(self.curve) for r in self.results]

    def table(self) -> str:
        lines = [f"curve {self.curve}"]
        for r in self.results:
            extra = ""
            if r.status == "nonzero" and r.witness_point:
                extra = f"  witness x=({r.witness_point[0]:.4g},{r.witness_point[1]:.4g}) |res|={r.witness_value}"
            elif r.reason:
                extra = f"  ({r.reason})"
            lines.append(f"  {r.tag:<8} {r.status:<8} {r.millis:9.2f} ms{extra}")
        return "\n".join(lines)


def find_witness(comps, fns: G2Functions):
    """A probe point where some residual component is numerically nonzero.

    The points are the first WITNESS_TRIES of `fns`'s probe stream, so every
    identity witnessed on one curve walks the same draws, made once.
    """
    with mp.workdps(PROBE_DIGITS):
        threshold = mp.mpf(10) ** (-(PROBE_DIGITS // 2))
        for i in range(WITNESS_TRIES):
            point = fns.probe_point(i)
            for comp in comps:
                if comp.is_zero():
                    continue
                try:
                    den_val = comp.den_mp(point[0], point[1])
                except PoleAtPoint:
                    continue
                num_val, scale = comp.num.eval_mp_pair(*point)
                if not mp.isfinite(num_val):
                    continue
                if abs(num_val) / (scale + 1) > threshold:
                    value = abs(num_val / den_val)
                    return (
                        [float(point[0]), float(point[1]), complex(point[2]), complex(point[3])],
                        mp.nstr(value, 6),
                    )
    return None, None


def verify_identity(tag: str, fns: G2Functions) -> IdentityResult:
    """Reduce one identity exactly and witness a nonzero residual.

    "unresolved" is a nonzero residual without a witness point; `millis`
    covers assembly, the zero test and the witness search.
    """
    bad = _IDENTITY_IDS[tag].violated(fns.params)
    if bad:
        return IdentityResult(tag, "skipped", reason=" and ".join(bad) + " required")
    start = time.perf_counter()
    comps = residuals_unchecked(tag, fns)
    if all(comp.is_zero() for comp in comps):
        return IdentityResult(tag, "zero", millis=(time.perf_counter() - start) * 1000)
    point, value = find_witness(comps, fns)
    millis = (time.perf_counter() - start) * 1000
    if point is None:
        return IdentityResult(tag, "unresolved", millis=millis, reason="no witness point found")
    wp = [point[0], point[1], [point[2].real, point[2].imag], [point[3].real, point[3].imag]]
    return IdentityResult(tag, "nonzero", millis=millis, witness_point=wp, witness_value=value)


def verify_all(params: CurveParams, tags=None) -> VerifyReport:
    """Reduce every requested identity on one curve; failures are data."""
    if tags is None:
        tags = IDENTITY_SETS["all"]
    fns = G2Functions(params)
    report = VerifyReport(params)
    for tag in tags:
        report.results.append(verify_identity(tag, fns))
    return report
