"""Zero-curvature compatibility: the commutator collapses to the flow residual."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from g2soliton.akns import (
    AKNSParams,
    JetPoint,
    akns_commutator_residual,
    gmkdv_jet_residual,
    lax_l,
    lax_m,
    signed_mkdv_residual,
)

finite = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
cnum = st.builds(complex, finite, finite)


def test_derived_coefficient():
    p = AKNSParams(eta=0.7, b=2.0)
    assert p.a == 4 * 0.7**2 * (2.0 - 1.0)
    assert AKNSParams(eta=0.7, b=1.0).a == 0  # b = 1 gives a = 0 exactly


def test_matrix_shapes():
    jet = JetPoint(0.3, -0.2, 0.11, 0.45, -0.7)
    p = AKNSParams(eta=0.7, b=2.0)
    l00, l01, l10, l11 = lax_l(jet, p)
    m00, _, _, m11 = lax_m(jet, p)
    assert l00 == -l11 and l01 == -l10
    assert m00 == -m11


def test_commutator_structure_fixed_example():
    rng = np.random.default_rng(0)
    p = AKNSParams(eta=0.7, b=2.0)
    for _ in range(50):
        jet = JetPoint(*(rng.uniform(-1, 1, size=5) + 1j * rng.uniform(-1, 1, size=5)))
        res = akns_commutator_residual(jet, p)
        d_val = signed_mkdv_residual(jet, p)
        scale = max(1.0, abs(d_val))
        assert abs(res[0, 0]) < 1e-14 and abs(res[1, 1]) < 1e-14
        assert abs(res[0, 1] - d_val) / scale < 1e-12
        assert abs(res[1, 0] + d_val) / scale < 1e-12


def test_commutator_bulk_random():
    rng = np.random.default_rng(42)
    worst_diag = worst_off = worst_asym = 0.0
    for _ in range(20):
        p = AKNSParams(
            eta=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            b=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        for _ in range(50):
            jet = JetPoint(*(rng.uniform(-1, 1, size=5) + 1j * rng.uniform(-1, 1, size=5)))
            res = akns_commutator_residual(jet, p)
            d_val = signed_mkdv_residual(jet, p)
            scale = max(1.0, abs(d_val))
            worst_diag = max(worst_diag, abs(res[0, 0]), abs(res[1, 1]))
            worst_off = max(worst_off, abs(res[0, 1] - d_val) / scale)
            worst_asym = max(worst_asym, abs(res[0, 1] + res[1, 0]) / scale)
    assert worst_diag < 1e-13
    assert worst_off < 1e-12
    assert worst_asym < 1e-13


@given(cnum, cnum, cnum, cnum, cnum, cnum, cnum)
@settings(max_examples=150, deadline=None)
def test_commutator_property(v, vx, vxx, vxxx, vt, eta, b):
    jet = JetPoint(v, vx, vxx, vxxx, vt)
    p = AKNSParams(eta=eta, b=b)
    res = akns_commutator_residual(jet, p)
    d_val = signed_mkdv_residual(jet, p)
    scale = max(1.0, abs(d_val))
    assert abs(res[0, 0]) < 1e-13
    assert abs(res[1, 1]) < 1e-13
    assert abs(res[0, 1] - d_val) / scale < 1e-12
    assert abs(res[1, 0] + d_val) / scale < 1e-12


def test_b_one_reduces_to_plain_cubic_flow():
    jet = JetPoint(0.3, -0.2, 0.11, 0.45, -0.7)
    p = AKNSParams(eta=0.9, b=1.0)
    expect = jet.v_t + jet.v_xxx + 6 * jet.v**2 * jet.v_x
    assert abs(signed_mkdv_residual(jet, p) - expect) < 1e-15


def test_imaginary_substitution_bridges_conventions():
    # v -> iv factors the imaginary unit out of D and flips the cubic sign
    jet = JetPoint(0.3, -0.2, 0.11, 0.45, -0.7)
    p = AKNSParams(eta=0.7, b=2.0)
    lhs = signed_mkdv_residual(JetPoint(*(1j * c for c in dataclasses.astuple(jet))), p)
    rhs = 1j * gmkdv_jet_residual(jet, p.a)
    assert abs(lhs - rhs) < 1e-14
