"""Periodic pseudo-spectral evolution of the KdV and generalized modified flows.

Equations (right-moving soliton convention):

    u_t + u_xxx - 6 u u_x           = 0      (kdv)
    v_t + v_xxx - 6 v^2 v_x + a v_x = 0      (gmkdv)

The stiff linear symbol i k^3 (and -i a k) is integrated exactly inside an
exponential time-differencing RK4 step (Cox-Matthews coefficients evaluated
by contour averaging); nonlinear products are 2/3-rule dealiased.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .elliptic import quarter_period, sncndn


class PdeError(Exception):
    pass


class BlowUp(PdeError):
    """Field norm exceeded 1e8; the run is divergent."""


class UnstableStep(PdeError):
    """Non-finite values appeared during time stepping."""


class InsufficientSnapshots(PdeError):
    """The centered time stencil needs at least five consecutive snapshots."""


BLOWUP_NORM = 1e8
# contour points of the phi-coefficient averages, ETDRK4 micro-steps per dt
_N_CONTOUR = 32
_SUBSTEPS = 2


# numpy.fft.rfft/irfft end in these pocketfft gufuncs; calling them directly
# gives the same bits without the wrappers' per-call argument handling, which
# costs more than the transform itself at n = 256.  n is even on every Grid1D.


def _rfft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The n/2 + 1 rfft modes of n (even) real samples, as np.fft.rfft."""
    if out is None:
        out = np.empty(len(values) // 2 + 1, dtype=complex)
    return _pocketfft.rfft_n_even(values, 1.0, out=out)


def _irfft(hat: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The n real samples of the rfft modes `hat`, as np.fft.irfft(hat, n)."""
    if out is None:
        out = np.empty(n)
    return _pocketfft.irfft(hat, 1.0 / n, out=out)


@dataclass
class Grid1D:
    """Periodic grid of n (power of two, >= 32) points on [0, length); spectra are the n/2 + 1 rfft modes."""

    n: int
    length: float
    x: np.ndarray = field(init=False, repr=False)
    wavenumbers: np.ndarray = field(init=False, repr=False)
    dealias_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 32 or self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two, at least 32")
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        self.x = np.arange(self.n) * (self.length / self.n)
        self.wavenumbers = 2 * np.pi * np.fft.rfftfreq(self.n, d=self.length / self.n)
        self.dealias_mask = np.fft.rfftfreq(self.n, d=1.0 / self.n) <= self.n / 3


@dataclass
class Field1D:
    """Real samples on a periodic grid."""

    grid: Grid1D
    values: np.ndarray
    role: str = "u"

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("field samples must be real")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError("sample count does not match the grid")

    def spectrum(self) -> np.ndarray:
        return _rfft(self.values)

    def deriv(self, order: int = 1) -> np.ndarray:
        """Spectral x-derivative samples; irfft keeps only the real part of the
        Nyquist bin, so odd orders (imaginary symbol there) drop that mode."""
        return _irfft((1j * self.grid.wavenumbers) ** order * self.spectrum(), self.grid.n)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _dealias(grid: Grid1D, hat: np.ndarray) -> np.ndarray:
    return np.where(grid.dealias_mask, hat, 0.0)


def _linear_symbol(grid: Grid1D, eq: str, a: float) -> np.ndarray:
    k = grid.wavenumbers
    sym = 1j * k**3  # from -u_xxx
    if eq == "gmkdv":
        sym = sym - 1j * a * k
    return sym


@functools.lru_cache(maxsize=16)
def _etdrk4_coefficients(n: int, length: float, eq: str, a: float, dt: float) -> tuple:
    """Read-only (exp_full, exp_half, q, f1, 2 f2, f3) with the nonlinear symbol
    folded into the last four, shared by every stepper with these parameters."""
    grid = Grid1D(n, length)
    # the nonlinear terms 3 (u^2)_x (kdv) and 2 (v^3)_x (gmkdv) act in
    # Fourier space as this symbol, with the 2/3-rule mask folded in
    nl_symbol = _dealias(grid, (3j if eq == "kdv" else 2j) * grid.wavenumbers)
    lin = _linear_symbol(grid, eq, a)
    # full-circle contour: the symbol is imaginary, so the half-circle
    # plus-real-part shortcut for real operators does not apply
    roots = np.exp(2j * np.pi * (np.arange(_N_CONTOUR) + 0.5) / _N_CONTOUR)
    # a huge a * dt overflows here; the finiteness check below reports it once
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lr = dt * lin[:, None] + roots[None, :]
        elr = np.exp(lr)
        q = dt * np.mean((np.exp(lr / 2) - 1) / lr, axis=1)
        f1 = dt * np.mean((-4 - lr + elr * (4 - 3 * lr + lr**2)) / lr**3, axis=1)
        f2_twice = 2 * (dt * np.mean((2 + lr + elr * (lr - 2)) / lr**3, axis=1))
        f3 = dt * np.mean((-4 - 3 * lr - lr**2 + elr * (4 - lr)) / lr**3, axis=1)
        coefficients = (np.exp(dt * lin), np.exp(0.5 * dt * lin), q * nl_symbol,
                        f1 * nl_symbol, f2_twice * nl_symbol, f3 * nl_symbol)
    for array in coefficients:
        if not np.all(np.isfinite(array)):
            raise UnstableStep("non-finite ETDRK4 coefficients")
        array.flags.writeable = False
    return coefficients


class _Etdrk4:
    """Cox-Matthews ETDRK4 with contour-averaged phi coefficients.

    The coefficients are shared; the work buffers are this stepper's own.
    """

    def __init__(self, grid: Grid1D, eq: str, a: float, dt: float):
        self.cube = eq == "gmkdv"
        self.coefficients = _etdrk4_coefficients(grid.n, grid.length, eq, a, dt)
        self.u = np.empty(grid.n)
        self.power = np.empty(grid.n)
        spectrum = grid.wavenumbers.shape
        self.half, self.a1, self.b1, self.n0, self.n1, self.n2, self.n3 = (
            np.empty(spectrum, dtype=complex) for _ in range(7)
        )

    def step(self, hat: np.ndarray) -> np.ndarray:
        """One step from `hat`, which is left unchanged; the four nonlinear stages
        are inlined, each the raw rfft of u^2 (kdv) or u^3 (gmkdv) at u = irfft(stage)."""
        exp_full, exp_half, q, f1, f2_twice, f3 = self.coefficients
        half, a1, b1, n0, n1, n2, n3 = self.half, self.a1, self.b1, self.n0, self.n1, self.n2, self.n3
        u, power, n, cube = self.u, self.power, len(self.u), self.cube
        irfft, rfft, multiply = _irfft, _rfft, np.multiply
        multiply(exp_half, hat, out=half)
        irfft(hat, n, out=u)
        multiply(u, u, out=power)
        if cube:
            power *= u
        rfft(power, out=n0)
        multiply(q, n0, out=a1)
        a1 += half
        irfft(a1, n, out=u)
        multiply(u, u, out=power)
        if cube:
            power *= u
        rfft(power, out=n1)
        multiply(q, n1, out=b1)
        b1 += half
        irfft(b1, n, out=u)
        multiply(u, u, out=power)
        if cube:
            power *= u
        rfft(power, out=n2)
        c1 = a1
        c1 *= exp_half
        multiply(n2, 2, out=b1)
        b1 -= n0
        b1 *= q
        c1 += b1
        irfft(c1, n, out=u)
        multiply(u, u, out=power)
        if cube:
            power *= u
        rfft(power, out=n3)
        new = exp_full * hat
        n0 *= f1
        new += n0
        n1 += n2
        n1 *= f2_twice
        new += n1
        n3 *= f3
        new += n3
        return new


def _check_state(u: np.ndarray) -> None:
    if not np.all(np.isfinite(u)):
        raise UnstableStep("non-finite values in the evolved field")
    if np.max(np.abs(u)) > BLOWUP_NORM:
        raise BlowUp("field norm exceeded 1e8")


def evolve_trajectory(eq: str, u0: Field1D, t_end: float, dt: float, a: float = 0.0, save_every: int = 1) -> list:
    """Integrate and return snapshots every `save_every * dt` (t=0 included).

    `dt` is the snapshot cadence; each dt is advanced with two ETDRK4
    micro-steps, which keeps the per-snapshot integration noise well below
    the fourth-order time-stencil truncation of residual measurements.
    """
    if eq not in ("kdv", "gmkdv"):
        raise ValueError("eq must be 'kdv' or 'gmkdv'")
    steps = int(round(t_end / dt))
    stepper = _Etdrk4(u0.grid, eq, a, dt / _SUBSTEPS)
    hat = _dealias(u0.grid, u0.spectrum())
    snapshots = [Field1D(u0.grid, _irfft(hat, u0.grid.n), u0.role)]
    for i in range(1, steps + 1):
        for _ in range(_SUBSTEPS):
            hat = stepper.step(hat)
        if i % save_every == 0 or i == steps:
            u = _irfft(hat, u0.grid.n)
            _check_state(u)
            snapshots.append(Field1D(u0.grid, u, u0.role))
    return snapshots


def miura_map(v: Field1D, a: float) -> Field1D:
    """u = v^2 + v_x - a/6 with spectral v_x; the product is dealiased."""
    grid = v.grid
    rhs = _dealias(grid, _rfft(v.values * v.values))
    rhs += 1j * grid.wavenumbers * v.spectrum()
    u = _irfft(rhs, grid.n)
    u -= a / 6
    return Field1D(grid, u, "u")


def _flow_residual(traj, dt: float, cubic: bool, a: float = 0.0) -> float:
    """Max norm of w_t + w_xxx - 6 w^p w_x + a w_x (p = 1, or 2 when cubic) over
    the interior of a snapshot sequence.

    w_t uses the fourth-order centered stencil, so at least five consecutive
    snapshots (spacing dt) are required.  Each snapshot costs 4 FFTs: its
    spectrum, w_x, the dealiased product and one inverse transform of the sum.
    """
    traj = list(traj)
    if len(traj) < 5:
        raise InsufficientSnapshots("need at least 5 consecutive snapshots")
    grid = traj[0].grid
    ik = 1j * grid.wavenumbers
    linear = ik**3 + a * ik
    nonlinear = np.where(grid.dealias_mask, -6.0, 0.0)
    worst = 0.0
    for i in range(2, len(traj) - 2):
        w = traj[i]
        hat = w.spectrum()
        w_x = _irfft(ik * hat, grid.n)
        rhs = linear * hat
        rhs += nonlinear * _rfft(w.values * w.values * w_x if cubic else w.values * w_x)
        w_t = (
            -traj[i + 2].values + 8 * traj[i + 1].values - 8 * traj[i - 1].values + traj[i - 2].values
        ) / (12 * dt)
        worst = max(worst, float(np.max(np.abs(w_t + _irfft(rhs, grid.n)))))
    return worst


def kdv_residual(u_traj, dt: float) -> float:
    """Max norm of u_t + u_xxx - 6 u u_x along a snapshot sequence.

    x-derivatives are spectral and the nonlinear product carries the same
    2/3 dealiasing as the evolution.
    """
    return _flow_residual(u_traj, dt, cubic=False)


def gmkdv_residual(v_traj, dt: float, a: float) -> float:
    """Max norm of v_t + v_xxx - 6 v^2 v_x + a v_x along a snapshot sequence."""
    return _flow_residual(v_traj, dt, cubic=True, a=a)


def conserved_quantities(u: Field1D, eq: str = "kdv") -> tuple:
    """(int u, int u^2, int (u_x^2/2 + u^3)) dx, with u^4/2 for u^3 in the gmkdv energy."""
    dx = u.grid.length / u.grid.n
    ux = u.deriv(1)
    mass = float(np.sum(u.values) * dx)
    momentum = float(np.sum(u.values**2) * dx)
    potential = u.values**3 if eq == "kdv" else 0.5 * u.values**4
    energy = float(np.sum(0.5 * ux**2 + potential) * dx)
    return mass, momentum, energy


# -- reference profiles --------------------------------------------------------


def one_soliton(grid: Grid1D, c: float, x0: float) -> Field1D:
    """u = -(c/2) sech^2(sqrt(c)(x - x0)/2): the depth-c/2 traveling trough."""
    return Field1D(grid, exact_soliton(grid, c, x0, 0.0), "u")


def exact_soliton(grid: Grid1D, c: float, x0: float, t: float) -> np.ndarray:
    """Closed-form soliton samples at time t with periodic wrapping."""
    half_l = grid.length / 2
    dxs = np.mod(grid.x - x0 - c * t + half_l, grid.length) - half_l
    return -(c / 2) / np.cosh(math.sqrt(c) * dxs / 2) ** 2


def cnoidal_wave(grid: Grid1D, k: float, n_periods: int = 1) -> tuple:
    """A periodic traveling-wave profile built on sn^2, and its speed.

    u(x, t) = 2 beta^2 k^2 sn^2(beta (x - ct), k) with beta chosen so that
    n_periods sn^2-periods fit in the domain; the speed is
    c = -4 beta^2 (1 + k^2).
    """
    big_k = quarter_period(k).real
    beta = 2 * big_k * n_periods / grid.length
    vals = np.empty(grid.n)
    for i, xv in enumerate(grid.x):
        s, _, _ = sncndn(beta * xv, k)
        vals[i] = (2 * beta**2 * k**2 * s * s).real
    speed = -4 * beta**2 * (1 + k**2)
    return Field1D(grid, vals, "u"), speed


def soliton_peak_travel(u: Field1D, x0: float) -> float:
    """Distance traveled by the soliton trough, with parabolic refinement."""
    vals = u.values
    i = int(np.argmin(vals))
    n = u.grid.n
    y0, y1, y2 = vals[(i - 1) % n], vals[i], vals[(i + 1) % n]
    denom = y0 - 2 * y1 + y2
    frac = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    dx = u.grid.length / n
    pos = (i + frac) * dx
    return float(np.mod(pos - x0, u.grid.length))
