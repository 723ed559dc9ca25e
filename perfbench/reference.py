"""Computations made apart from the program, used to check its outputs.

Nothing here calls into g2soliton except where a check is defined as a
re-evaluation of a program result (the numeric derivative of the program's
first flow derivative, and `probe_identity` at a probe point).  Closed forms,
constraint predicates and reference values are written out from the paper's
formulas with mpmath and numpy.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np

# -- curves and their loci ------------------------------------------------------

_CONSTRAINT = re.compile(r"^l([0-6])(!=|=)(-?\d+)$")


def constraint_holds(text: str, lambdas) -> bool:
    """Evaluate one constraint string such as 'l5!=0' or 'l1=4'."""
    m = _CONSTRAINT.match(text)
    if m is None:
        raise ValueError(f"unknown constraint {text!r}")
    value = lambdas[int(m.group(1))]
    target = int(m.group(3))
    return value != target if m.group(2) == "!=" else value == target


def flip_x(lambdas) -> tuple:
    """Coefficients of f(-x): l_j -> (-1)^j l_j."""
    return tuple(v if j % 2 == 0 else -v for j, v in enumerate(lambdas))


def flip_f(lambdas) -> tuple:
    """Coefficients of -f(x)."""
    return tuple(-v for v in lambdas)


def reverse(lambdas) -> tuple:
    """Coefficients of x^6 f(1/x): l_j -> l_{6-j}."""
    return tuple(reversed(tuple(lambdas)))


# -- the base functions, written out from their closed forms -----------------------


def pairing(l, x1, x2):
    """F(x1, x2), the polarised sextic with F(x, x) = 2 f(x)."""
    s, p = x1 + x2, x1 * x2
    return (
        2 * l[6] * p**3 + l[5] * p * p * s + 2 * l[4] * p * p
        + l[3] * p * s + 2 * l[2] * p + l[1] * s + 2 * l[0]
    )


def base_value(name: str, l, x1, x2, y1, y2):
    """The Weierstrass, r- and Jacobi-type functions at one curve point."""
    s, p = x1 + x2, x1 * x2
    q = (pairing(l, x1, x2) - 2 * y1 * y2) / (4 * (x1 - x2) ** 2)
    half6 = l[6] / 2
    values = {
        "p22": l[5] / 4 * s,
        "p21": -l[5] / 4 * p,
        "q": q,
        "r22": l[5] / 4 * s + half6 * (x1 * x1 + p + x2 * x2),
        "r21": -l[5] / 4 * p - half6 * p * s,
        "r11": q + half6 * p * p,
        "hp11": l[1] / 4 * s / p,
        "hp21": -l[1] / 4 / p,
        "hq": q / p,
    }
    return values[name]


def f_mp(l, x):
    return sum(l[j] * x**j for j in range(7))


def nearest_root(value, previous):
    """The square root of `value` on the branch closest to `previous`."""
    r = mp.sqrt(mp.mpc(value))
    return r if abs(r - previous) <= abs(r + previous) else -r


def probe_point(lambdas, rng, dps: int):
    """A curve point (x1, x2, y1, y2) with x_i rational, away from x1 = x2 and y_i = 0.

    Returns the exact x_i as Fractions plus the branch signs, so callers can
    rebuild the point at any precision with `point_at`.
    """
    while True:
        x1 = Fraction(rng.randint(20, 400), 100)
        x2 = Fraction(rng.randint(20, 400), 100)
        if abs(x1 - x2) < Fraction(1, 20):
            continue
        signs = (rng.choice((1, -1)), rng.choice((1, -1)))
        point = point_at(lambdas, (x1, x2), signs, dps)
        if abs(point[2]) > 1e-3 and abs(point[3]) > 1e-3:
            return (x1, x2), signs


def point_at(lambdas, xs, signs, dps: int):
    """The curve point above exact (x1, x2) with the given y signs, at `dps` digits."""
    with mp.workdps(dps):
        l = [mp.mpf(v.numerator) / v.denominator for v in lambdas]
        x1, x2 = (mp.mpf(x.numerator) / x.denominator for x in xs)
        y1 = signs[0] * mp.sqrt(mp.mpc(f_mp(l, x1)))
        y2 = signs[1] * mp.sqrt(mp.mpc(f_mp(l, x2)))
        return x1, x2, y1, y2


def flow_velocity(direction: int, x1, x2, y1, y2):
    """(dx1/du, dx2/du) of the Jacobi inversion flows u1 and u2."""
    if direction == 2:
        return y1 / (x1 - x2), -y2 / (x1 - x2)
    return -x2 * y1 / (x1 - x2), x1 * y2 / (x1 - x2)


def along_flow(fn, lambdas, point, direction: int, dps: int):
    """Derivative of fn(x1, x2, y1, y2) along a flow, by a central difference.

    The step moves x_i along dx_i/du and keeps y_i on the curve, on the branch
    of the starting point.  With h = 10^(-dps/3) the truncation and rounding
    errors are both near 10^(-2 dps/3) relative.
    """
    with mp.workdps(dps):
        l = [mp.mpf(v.numerator) / v.denominator for v in lambdas]
        x1, x2, y1, y2 = point
        v1, v2 = flow_velocity(direction, x1, x2, y1, y2)
        h = mp.mpf(10) ** (-(dps // 3))

        def at(t):
            a1, a2 = x1 + t * v1, x2 + t * v2
            b1 = nearest_root(f_mp(l, a1), y1)
            b2 = nearest_root(f_mp(l, a2), y2)
            return fn(a1, a2, b1, b2)

        return (at(h) - at(-h)) / (2 * h)


def close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(1, abs(a), abs(b))


# -- genus one ----------------------------------------------------------------------


def jacobi_reference(z: complex, k: complex) -> tuple:
    """(sn, cn, dn) at parameter m = k^2 from mpmath's theta-function route."""
    m = mp.mpc(k) ** 2
    return tuple(complex(mp.ellipfun(kind, z, m=m)) for kind in ("sn", "cn", "dn"))


def quarter_period_reference(k: complex) -> complex:
    return complex(mp.ellipk(mp.mpc(k) ** 2))


def sn_profile_derivatives(z: complex) -> tuple:
    """v, v', v'' of v(x) = sn(x/sqrt2, sqrt2) at x = z, from mpmath sn, cn, dn."""
    w = z / math.sqrt(2)
    s, c, d = jacobi_reference(w, math.sqrt(2))
    k2 = 2.0
    v1 = c * d / math.sqrt(2)
    v2 = -s * (d * d + k2 * c * c) / 2
    return s, v1, v2


def signed_mkdv(v, vx, vxx, vxxx, vt, eta, b) -> complex:
    """D = v_t + v_xxx + 6 v^2 v_x + 4 eta^2 (b - 1) v_x."""
    return vt + vxxx + 6 * v * v * vx + 4 * eta * eta * (b - 1) * vx


# -- solitons -------------------------------------------------------------------------


def kdv_soliton(x: np.ndarray, length: float, c: float, x0: float, t: float) -> np.ndarray:
    """u = -(c/2) sech^2(sqrt(c) (x - x0 - c t) / 2), wrapped onto [0, length)."""
    d = np.mod(x - x0 - c * t + length / 2, length) - length / 2
    return -(c / 2) / np.cosh(math.sqrt(c) * d / 2) ** 2


def trough_position(values: np.ndarray, length: float) -> float:
    """Position of the minimum of a periodic sample set, refined by a parabola."""
    n = len(values)
    i = int(np.argmin(values))
    y0, y1, y2 = values[(i - 1) % n], values[i], values[(i + 1) % n]
    frac = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
    return (i + frac) * length / n


def spectral_derivative(values: np.ndarray, length: float, order: int) -> np.ndarray:
    n = len(values)
    k = 2 * np.pi * np.fft.fftfreq(n, d=length / n)
    sym = (1j * k) ** order
    if order % 2:
        sym[n // 2] = 0
    return np.fft.ifft(sym * np.fft.fft(values))


def miura(v: np.ndarray, length: float, a: float) -> np.ndarray:
    """u = v^2 + v_x - a/6, without dealiasing."""
    return v * v + spectral_derivative(v, length, 1) - a / 6


def kdv_residual_at(snapshots, i: int, dt: float, length: float) -> float:
    """max |u_t + u_xxx - 6 u u_x| at snapshot i, fourth-order centred u_t."""
    s = snapshots
    u_t = (-s[i + 2] + 8 * s[i + 1] - 8 * s[i - 1] + s[i - 2]) / (12 * dt)
    u = s[i]
    res = u_t + spectral_derivative(u, length, 3) - 6 * u * spectral_derivative(u, length, 1)
    return float(np.max(np.abs(res)))
