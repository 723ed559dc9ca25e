"""Pseudo-spectral evolution: soliton, cnoidal, Miura pipeline, diagnostics."""

import numpy as np
import pytest

from g2soliton.pde import (
    Field1D,
    Grid1D,
    InsufficientSnapshots,
    PdeError,
    cnoidal_wave,
    conserved_quantities,
    evolve_trajectory,
    exact_soliton,
    gmkdv_residual,
    kdv_residual,
    miura_map,
    one_soliton,
    soliton_peak_travel,
)


@pytest.fixture(scope="module")
def grid():
    return Grid1D(256, 40.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(100, 40.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid1D(16, 40.0)  # too small
    with pytest.raises(ValueError):
        Grid1D(64, -1.0)


def test_spectral_derivative_exact_for_resolved_modes(grid):
    for m in (1, 5, 40, 80):  # m < n/3 = 85
        u = Field1D(grid, np.sin(2 * np.pi * m * grid.x / grid.length))
        expect = (2 * np.pi * m / grid.length) * np.cos(2 * np.pi * m * grid.x / grid.length)
        assert np.max(np.abs(u.deriv(1) - expect)) < 1e-12 * (2 * np.pi * m / grid.length)


def test_field_shape_guard(grid):
    with pytest.raises(ValueError):
        Field1D(grid, np.zeros(128))


def test_soliton_travel_and_shape(grid):
    u0 = one_soliton(grid, 4.0, 10.0)
    u1 = evolve_trajectory("kdv", u0, 0.5, 1e-3, save_every=500)[-1]
    assert abs(soliton_peak_travel(u1, 10.0) - 2.0) < 0.05
    assert np.max(np.abs(u1.values - exact_soliton(grid, 4.0, 10.0, 0.5))) < 1e-3


def test_soliton_trajectory_residual(grid):
    u0 = one_soliton(grid, 4.0, 10.0)
    traj = evolve_trajectory("kdv", u0, 0.02, 1e-3, save_every=1)
    assert kdv_residual(traj, 1e-3) < 1e-6


def test_gmkdv_constant_is_fixed_point(grid):
    v0 = Field1D(grid, 0.37 * np.ones(grid.n), "v")
    v1 = evolve_trajectory("gmkdv", v0, 0.5, 1e-3, a=1.5, save_every=500)[-1]
    assert np.max(np.abs(v1.values - 0.37)) < 1e-13


def test_cnoidal_wave_solves_kdv(grid):
    u0, speed = cnoidal_wave(grid, 0.9, n_periods=2)
    assert speed < 0  # travels leftward in this convention
    traj = evolve_trajectory("kdv", u0, 8e-3, 1e-3, save_every=1)
    assert kdv_residual(traj, 1e-3) < 1e-6


def test_kdv_residual_constant_trajectory(grid):
    c = Field1D(grid, 0.5 * np.ones(grid.n))
    assert kdv_residual([c] * 6, 1e-3) < 1e-12


def test_kdv_residual_detects_corruption(grid):
    u0 = one_soliton(grid, 4.0, 10.0)
    traj = evolve_trajectory("kdv", u0, 8e-3, 1e-3, save_every=1)
    traj[4] = Field1D(grid, np.zeros(grid.n))
    assert kdv_residual(traj, 1e-3) > 1e-1


def test_kdv_residual_needs_five_snapshots(grid):
    u = one_soliton(grid, 4.0, 10.0)
    with pytest.raises(InsufficientSnapshots):
        kdv_residual([u] * 4, 1e-3)


def test_conserved_quantities_constant_field(grid):
    c = 0.7
    mass, momentum, energy = conserved_quantities(Field1D(grid, c * np.ones(grid.n)))
    assert abs(mass - c * grid.length) < 1e-12
    assert abs(momentum - c * c * grid.length) < 1e-12
    assert abs(energy - c**3 * grid.length) < 1e-12


def test_conserved_quantities_translation_invariant(grid):
    u = one_soliton(grid, 4.0, 10.0)
    shifted = Field1D(grid, np.roll(u.values, 17))
    for a, b in zip(conserved_quantities(u), conserved_quantities(shifted)):
        assert abs(a - b) < 1e-12


def test_invariant_drift_along_soliton_run(grid):
    u0 = one_soliton(grid, 4.0, 10.0)
    traj = evolve_trajectory("kdv", u0, 1.0, 1e-3, save_every=1000)
    q0, q1 = conserved_quantities(traj[0]), conserved_quantities(traj[-1])
    for a, b in zip(q0, q1):
        assert abs(b - a) / abs(a) < 1e-7


def test_miura_map_of_zero(grid):
    v = Field1D(grid, np.zeros(grid.n), "v")
    u = miura_map(v, 1.5)
    assert np.max(np.abs(u.values + 0.25)) < 1e-14


def test_miura_map_matches_direct_formula(grid):
    # a = 0 reduces to the classical map u = v^2 + v_x; compare against an
    # analytic derivative of a periodic kink-like profile
    g = 2 * np.sin(2 * np.pi * grid.x / grid.length)
    gp = (4 * np.pi / grid.length) * np.cos(2 * np.pi * grid.x / grid.length)
    v = Field1D(grid, np.tanh(g), "v")
    direct = np.tanh(g) ** 2 + gp / np.cosh(g) ** 2
    u = miura_map(v, 0.0)
    assert np.max(np.abs(u.values - direct)) < 1e-8


def test_miura_pipeline_yields_kdv_solution(grid):
    a = 1.5
    v0 = Field1D(
        grid,
        0.4 * np.sin(2 * np.pi * grid.x / grid.length)
        + 0.1 * np.cos(4 * np.pi * grid.x / grid.length),
        "v",
    )
    vtraj = evolve_trajectory("gmkdv", v0, 8e-3, 1e-3, a=a, save_every=1)
    assert gmkdv_residual(vtraj, 1e-3, a) < 1e-8
    utraj = [miura_map(v, a) for v in vtraj]
    assert kdv_residual(utraj, 1e-3) < 1e-6


def test_static_miura_factorization_spectral_route(grid):
    # u_xxx - 6 u u_x == (d/dx + 2v)(v_xxx - 6 v^2 v_x + a v_x) pointwise,
    # with every derivative spectral; independent of the jet-based route
    rng = np.random.default_rng(8)
    a = 1.3
    for _ in range(20):
        coeffs = rng.uniform(-0.5, 0.5, size=3)
        modes = rng.integers(1, 6, size=3)
        vals = sum(
            c * np.sin(2 * np.pi * m * grid.x / grid.length + p)
            for c, m, p in zip(coeffs, modes, rng.uniform(0, 2 * np.pi, size=3))
        )
        v = Field1D(grid, vals, "v")
        vx, vxx, vxxx = v.deriv(1), v.deriv(2), v.deriv(3)
        u = Field1D(grid, v.values**2 + vx - a / 6)
        lhs = u.deriv(3) - 6 * u.values * u.deriv(1)
        g = Field1D(grid, vxxx - 6 * v.values**2 * vx + a * vx)
        rhs = g.deriv(1) + 2 * v.values * g.values
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_dealias_band_stays_empty(grid):
    # the integrator state is exactly zero above the cutoff; the snapshot
    # round-trips through ifft/fft, which injects only ~1e-16 noise
    u0 = one_soliton(grid, 4.0, 10.0)
    u1 = evolve_trajectory("kdv", u0, 0.05, 1e-3, save_every=50)[-1]
    hat = u1.spectrum()
    assert np.max(np.abs(hat[~grid.dealias_mask])) < 1e-12


def test_time_step_convergence_at_least_third_order(grid):
    u0 = one_soliton(grid, 4.0, 10.0)
    reference = evolve_trajectory("kdv", u0, 0.5, 1e-4, save_every=5000, substeps=1)[-1]
    errors = []
    for dt in (4e-3, 2e-3):
        u1 = evolve_trajectory("kdv", u0, 0.5, dt, save_every=round(0.5 / dt), substeps=1)[-1]
        errors.append(np.max(np.abs(u1.values - reference.values)))
    assert errors[0] / errors[1] >= 8.0


def test_blowup_detection(grid):
    u0 = Field1D(grid, 1e9 * np.ones(grid.n))
    with pytest.raises(PdeError):
        evolve_trajectory("kdv", u0, 0.01, 1e-3, save_every=10)


def test_unknown_equation(grid):
    with pytest.raises(ValueError):
        evolve_trajectory("burgers", one_soliton(grid, 4.0, 10.0), 0.01, 1e-3)
