"""Zero-curvature (AKNS) compatibility check for the generalized modified flow.

The 2x2 linear problem psi_x = L psi, psi_t = M psi with

    L = [[eta, v], [-v, -eta]]
    M = [[A, B], [C, -A]],  A = -2 eta v^2 - 4 eta^3 b,
    B = -v_xx - 2 eta v_x - 2 v^3 - 4 eta^2 b v,
    C =  v_xx - 2 eta v_x + 2 v^3 + 4 eta^2 b v,

is compatible exactly when dL/dt - dM/dx + [L, M] vanishes.  The commutator
collapses to an off-diagonal matrix [[0, D], [-D, 0]] with

    D = v_t + v_xxx + 6 v^2 v_x + 4 eta^2 (b - 1) v_x,

and the substitution v -> i v turns D = 0 into the generalized modified flow
with the opposite cubic sign, which is how the two residual conventions here
are bridged.

The entries of L, M and dM/dx are scalars, and the 2x2 products are formed in
scalar arithmetic; only the commutator residual is returned as a numpy array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AKNSParams:
    """Spectral parameter and the constant b; a = 4 eta^2 (b-1) is derived."""

    eta: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "b", complex(self.b))

    @property
    def a(self) -> complex:
        return 4 * self.eta**2 * (self.b - 1)


@dataclass(frozen=True)
class JetPoint:
    """Values of v and the derivatives entering L, M at one space-time point."""

    v: complex
    v_x: complex
    v_xx: complex
    v_xxx: complex
    v_t: complex


def lax_l(jet: JetPoint, params: AKNSParams) -> tuple:
    """The entries (L00, L01, L10, L11)."""
    eta, v = params.eta, jet.v
    return eta, v, -v, -eta


def lax_m(jet: JetPoint, params: AKNSParams) -> tuple:
    """The entries (M00, M01, M10, M11)."""
    eta, b = params.eta, params.b
    v, vx, vxx = jet.v, jet.v_x, jet.v_xx
    a_entry = -2 * eta * v**2 - 4 * eta**3 * b
    b_entry = -vxx - 2 * eta * vx - 2 * v**3 - 4 * eta**2 * b * v
    c_entry = vxx - 2 * eta * vx + 2 * v**3 + 4 * eta**2 * b * v
    return a_entry, b_entry, c_entry, -a_entry


def lax_m_x(jet: JetPoint, params: AKNSParams) -> tuple:
    """The entries of dM/dx, expanded analytically through the jet."""
    eta, b = params.eta, params.b
    v, vx, vxx, vxxx = jet.v, jet.v_x, jet.v_xx, jet.v_xxx
    a_x = -4 * eta * v * vx
    b_x = -vxxx - 2 * eta * vxx - 6 * v**2 * vx - 4 * eta**2 * b * vx
    c_x = vxxx - 2 * eta * vxx + 6 * v**2 * vx + 4 * eta**2 * b * vx
    return a_x, b_x, c_x, -a_x


def akns_commutator_residual(jet: JetPoint, params: AKNSParams) -> np.ndarray:
    """dL/dt - dM/dx + [L, M] at the jet; diagonal must vanish identically."""
    l00, l01, l10, l11 = lax_l(jet, params)
    m00, m01, m10, m11 = lax_m(jet, params)
    x00, x01, x10, x11 = lax_m_x(jet, params)
    vt = jet.v_t
    return np.array(
        [
            [-x00 + ((l00 * m00 + l01 * m10) - (m00 * l00 + m01 * l10)),
             vt - x01 + ((l00 * m01 + l01 * m11) - (m00 * l01 + m01 * l11))],
            [-vt - x10 + ((l10 * m00 + l11 * m10) - (m10 * l00 + m11 * l10)),
             -x11 + ((l10 * m01 + l11 * m11) - (m10 * l01 + m11 * l11))],
        ],
        dtype=complex,
    )


def signed_mkdv_residual(jet: JetPoint, params: AKNSParams) -> complex:
    """D = v_t + v_xxx + 6 v^2 v_x + a v_x, a = 4 eta^2 (b-1) (the +cubic convention)."""
    return jet.v_t + jet.v_xxx + 6 * jet.v**2 * jet.v_x + params.a * jet.v_x


def gmkdv_jet_residual(jet: JetPoint, a: complex) -> complex:
    """v_t + v_xxx - 6 v^2 v_x + a v_x (the -cubic convention of the flow)."""
    return jet.v_t + jet.v_xxx - 6 * jet.v**2 * jet.v_x + complex(a) * jet.v_x
