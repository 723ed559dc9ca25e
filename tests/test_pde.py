"""Pseudo-spectral evolution: soliton, cnoidal, Miura pipeline, diagnostics."""

from functools import partial

import numpy as np
import pytest

from g2soliton.pde import (
    BlowUp,
    Field1D,
    Grid1D,
    InsufficientSnapshots,
    UnstableStep,
    cnoidal_wave,
    conserved_quantities,
    evolve_trajectory,
    exact_soliton,
    gmkdv_residual,
    kdv_residual,
    miura_map,
    one_soliton,
    _RESIDUAL_BLOCK,
    _Etdrk4,
    _check_state,
    _etdrk4_coefficients,
    _irfft,
    _rfft,
)


class _ComplexEtdrk4:
    """The ETDRK4 stepper on the full complex spectrum (fft/ifft), the form it
    had while fields were complex: the reference for the half-spectrum stepper."""

    def __init__(self, grid, eq, a, dt, n_contour=32):
        k = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.length / grid.n)
        self.mask = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n)) <= grid.n / 3
        self.eq = eq
        self.nl_symbol = np.where(self.mask, (3j if eq == "kdv" else 2j) * k, 0.0)
        lin = 1j * k**3
        if eq == "gmkdv":
            lin = lin - 1j * complex(a) * k
        self.exp_full = np.exp(dt * lin)
        self.exp_half = np.exp(0.5 * dt * lin)
        roots = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
        lr = dt * lin[:, None] + roots[None, :]
        elr = np.exp(lr)
        self.q = dt * np.mean((np.exp(lr / 2) - 1) / lr, axis=1)
        self.f1 = dt * np.mean((-4 - lr + elr * (4 - 3 * lr + lr**2)) / lr**3, axis=1)
        self.f2_twice = 2 * (dt * np.mean((2 + lr + elr * (lr - 2)) / lr**3, axis=1))
        self.f3 = dt * np.mean((-4 - 3 * lr - lr**2 + elr * (4 - lr)) / lr**3, axis=1)

    def _nonlinear(self, hat):
        u = np.fft.ifft(hat)
        return self.nl_symbol * np.fft.fft(u * u if self.eq == "kdv" else u * u * u)

    def step(self, hat):
        half = self.exp_half * hat
        n0 = self._nonlinear(hat)
        a1 = half + self.q * n0
        n1 = self._nonlinear(a1)
        b1 = half + self.q * n1
        n2 = self._nonlinear(b1)
        c1 = self.exp_half * a1 + self.q * (2 * n2 - n0)
        n3 = self._nonlinear(c1)
        return self.exp_full * hat + self.f1 * n0 + self.f2_twice * (n1 + n2) + self.f3 * n3


def _dealiased(grid, hat):
    return np.where(grid.dealias_mask, hat, 0.0)


def _reference_stencil(traj, dt, residual):
    worst = 0.0
    for i in range(2, len(traj) - 2):
        w_t = (
            -traj[i + 2].values + 8 * traj[i + 1].values - 8 * traj[i - 1].values + traj[i - 2].values
        ) / (12 * dt)
        worst = max(worst, float(np.max(np.abs(residual(w_t, traj[i])))))
    return worst


def _reference_kdv_residual(u_traj, dt):
    """The residual as it was computed with one spectrum per derivative: 6 FFTs."""

    def residual(u_t, u):
        prod = np.fft.irfft(_dealiased(u.grid, np.fft.rfft(u.values * u.deriv(1))))
        return u_t + u.deriv(3) - 6 * prod

    return _reference_stencil(u_traj, dt, residual)


def _reference_gmkdv_residual(v_traj, dt, a):
    """The gmKdV residual with v_x computed twice: 8 FFTs."""

    def residual(v_t, v):
        prod = np.fft.irfft(_dealiased(v.grid, np.fft.rfft(v.values**2 * v.deriv(1))))
        return v_t + v.deriv(3) - 6 * prod + a * v.deriv(1)

    return _reference_stencil(v_traj, dt, residual)


def _reference_miura_map(v, a):
    """The Miura map with separate transforms for v^2 and v_x: 4 FFTs."""
    sq_hat = _dealiased(v.grid, np.fft.rfft(v.values * v.values))
    return np.fft.irfft(sq_hat) + v.deriv(1) - a / 6


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


def test_odd_derivatives_drop_the_nyquist_mode(grid):
    nyquist = Field1D(grid, (-1.0) ** np.arange(grid.n))
    k = grid.wavenumbers[-1]
    assert np.array_equal(nyquist.deriv(1), np.zeros(grid.n))
    assert np.array_equal(nyquist.deriv(3), np.zeros(grid.n))
    assert np.max(np.abs(nyquist.deriv(2) + k**2 * nyquist.values)) < 1e-12 * k**2


def test_field_shape_guard(grid):
    with pytest.raises(ValueError):
        Field1D(grid, np.zeros(128))


def test_field_rejects_complex_samples(grid):
    with pytest.raises(ValueError):
        Field1D(grid, np.exp(1j * grid.x))
    with pytest.raises(ValueError):
        Field1D(grid, np.zeros(grid.n, dtype=complex))


@pytest.mark.parametrize("n", [32, 256, 1024, 4096])
def test_pocketfft_helpers_equal_numpy_fft_bit_for_bit(n):
    """_rfft/_irfft call numpy's private pocketfft kernels; a numpy release that
    moves or changes them fails here instead of shifting the solver's output."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n)
    hat = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    assert np.array_equal(_rfft(values), np.fft.rfft(values))
    assert np.array_equal(_irfft(hat, n), np.fft.irfft(hat, n))
    spectrum, samples = np.empty(n // 2 + 1, dtype=complex), np.empty(n)
    assert _rfft(values, out=spectrum) is spectrum
    assert np.array_equal(spectrum, np.fft.rfft(values))
    assert _irfft(hat, n, out=samples) is samples
    assert np.array_equal(samples, np.fft.irfft(hat, n))
    # a stack of rows is one call, and each of its rows is the per-row call
    rows = rng.standard_normal((5, n))
    hats = rng.standard_normal((5, n // 2 + 1)) + 1j * rng.standard_normal((5, n // 2 + 1))
    stacked_spectra, stacked_samples = _rfft(rows), _irfft(hats, n)
    assert np.array_equal(stacked_spectra, np.fft.rfft(rows, axis=-1))
    assert np.array_equal(stacked_samples, np.fft.irfft(hats, n, axis=-1))
    for i in range(5):
        assert np.array_equal(stacked_spectra[i], _rfft(rows[i]))
        assert np.array_equal(stacked_samples[i], _irfft(hats[i], n))


def test_dealias_mask_is_the_two_thirds_band_of_the_half_spectrum(grid):
    n = grid.n
    assert grid.dealias_mask.shape == grid.wavenumbers.shape == (n // 2 + 1,)
    assert not grid.dealias_mask[n // 2]
    assert np.array_equal(np.flatnonzero(grid.dealias_mask), np.arange(n // 3 + 1))


@pytest.mark.parametrize("eq, n, a", [("kdv", 256, 0.0), ("gmkdv", 1024, 1.5)])
def test_half_spectrum_stepper_matches_complex_reference(eq, n, a):
    grid = Grid1D(n, 40.0)
    if eq == "kdv":
        u0 = one_soliton(grid, 4.0, 10.0).values
    else:
        phase = 2 * np.pi * grid.x / grid.length
        u0 = 0.4 * np.sin(phase) + 0.1 * np.cos(2 * phase)
    dt = 5e-4  # one substep at the pde-run settings
    real, ref = _Etdrk4(grid, eq, a, dt), _ComplexEtdrk4(grid, eq, a, dt)
    hat = np.where(grid.dealias_mask, np.fft.rfft(u0), 0.0)
    ref_hat = np.where(ref.mask, np.fft.fft(u0), 0.0)
    for _ in range(400):
        hat, ref_hat = real.step(hat), ref.step(ref_hat)
    u, u_ref = np.fft.irfft(hat), np.fft.ifft(ref_hat)
    assert np.max(np.abs(u - u_ref)) < 1e-13 * np.max(np.abs(u_ref))


def _gmkdv_trajectory(grid, a):
    phase = 2 * np.pi * grid.x / grid.length
    v0 = Field1D(grid, 0.4 * np.sin(phase) + 0.1 * np.cos(2 * phase), "v")
    return evolve_trajectory("gmkdv", v0, 8e-3, 1e-3, a=a, save_every=1)


def test_single_spectrum_residuals_match_the_former_forms(grid):
    # "relative" is against the size of the spatial terms: along a trajectory
    # the residual itself is ~1e-7 or less, a near-total cancellation, so both
    # forms agree there only to rounding in those terms
    a = 1.5
    soliton = evolve_trajectory("kdv", one_soliton(grid, 4.0, 10.0), 8e-3, 1e-3, save_every=1)
    vtraj = _gmkdv_trajectory(grid, a)
    utraj = [miura_map(v, a) for v in vtraj]
    cases = [(kdv_residual, _reference_kdv_residual, traj) for traj in (soliton, utraj)]
    cases.append((partial(gmkdv_residual, a=a), partial(_reference_gmkdv_residual, a=a), vtraj))
    for new, reference, traj in cases:
        frozen = [traj[4]] * 5  # w_t = 0: the residual is the max norm of the spatial terms
        scale = reference(frozen, 1e-3)
        assert scale > 1e-2
        assert abs(new(frozen, 1e-3) - scale) <= 1e-12 * scale
        assert abs(new(traj, 1e-3) - reference(traj, 1e-3)) <= 1e-12 * scale
        corrupted = traj[:4] + [Field1D(grid, 0.9 * traj[4].values, traj[4].role)] + traj[5:]
        assert abs(new(corrupted, 1e-3) - reference(corrupted, 1e-3)) <= 1e-12 * reference(corrupted, 1e-3)


def _per_snapshot_residual(traj, dt, cubic, a=0.0):
    """The residual one snapshot at a time, four transform calls each: the
    reference for the stacked blocks."""
    grid = traj[0].grid
    ik = 1j * grid.wavenumbers
    linear = ik**3 + a * ik
    nonlinear = np.where(grid.dealias_mask, -6.0, 0.0)
    worst = 0.0
    for i in range(2, len(traj) - 2):
        w = traj[i]
        hat = _rfft(w.values)
        w_x = _irfft(ik * hat, grid.n)
        rhs = linear * hat
        rhs += nonlinear * _rfft(w.values * w.values * w_x if cubic else w.values * w_x)
        w_t = (
            -traj[i + 2].values + 8 * traj[i + 1].values - 8 * traj[i - 1].values + traj[i - 2].values
        ) / (12 * dt)
        worst = max(worst, float(np.max(np.abs(w_t + _irfft(rhs, grid.n)))))
    return worst


@pytest.mark.parametrize("length", [5, _RESIDUAL_BLOCK + 4, 2 * _RESIDUAL_BLOCK + 5])
def test_blocked_residuals_equal_the_per_snapshot_form(grid, length):
    # one block with one interior snapshot, one full block, and two full
    # blocks plus a block of one; corrupting the final snapshot enters only the
    # time stencil of the last interior one, so the worst residual is in the last block
    a, dt = 1.5, 1e-3
    phase = 2 * np.pi * grid.x / grid.length
    v0 = Field1D(grid, 0.4 * np.sin(phase) + 0.1 * np.cos(2 * phase), "v")
    vtraj = evolve_trajectory("gmkdv", v0, (length - 1) * dt, dt, a=a, save_every=1)
    assert len(vtraj) == length
    utraj = [miura_map(v, a) for v in vtraj]
    for traj, cubic, residual in ((utraj, False, kdv_residual), (vtraj, True, partial(gmkdv_residual, a=a))):
        corrupted = traj[:-1] + [Field1D(grid, 0.9 * traj[-1].values, traj[-1].role)]
        for case in (traj, corrupted):
            assert residual(case, dt) == _per_snapshot_residual(case, dt, cubic, a if cubic else 0.0)
        assert residual(corrupted, dt) > 1e-1


def test_three_transform_miura_map_matches_the_former_form(grid):
    a = 1.5
    rough = Field1D(grid, np.random.default_rng(3).standard_normal(grid.n), "v")  # v^2 aliases
    for v in _gmkdv_trajectory(grid, a) + [rough]:
        reference = _reference_miura_map(v, a)
        assert np.max(np.abs(miura_map(v, a).values - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_steppers_with_one_coefficient_set_do_not_interfere():
    grid = Grid1D(256, 40.0)
    hat0 = np.where(grid.dealias_mask, np.fft.rfft(one_soliton(grid, 4.0, 10.0).values), 0.0)
    pristine = hat0.copy()
    alone = _Etdrk4(grid, "kdv", 0.0, 5e-4)
    expected = [hat0]
    for _ in range(20):
        expected.append(alone.step(expected[-1]).copy())
    first, second = _Etdrk4(grid, "kdv", 0.0, 5e-4), _Etdrk4(grid, "kdv", 0.0, 5e-4)
    assert first.coefficients is second.coefficients is alone.coefficients
    hat_first = hat_second = hat0
    for i in range(1, 21):
        hat_first = first.step(hat_first)
        hat_second = second.step(hat_second)
        assert np.array_equal(hat_first, expected[i]) and np.array_equal(hat_second, expected[i])
    assert np.array_equal(hat0, pristine)  # step leaves its input alone


def test_shared_coefficients_are_read_only(grid):
    coefficients = _etdrk4_coefficients(grid.n, grid.length, "gmkdv", 1.5, 5e-4)
    assert len(coefficients) == 6
    for array in coefficients:
        with pytest.raises(ValueError):
            array[0] = 0.0
        with pytest.raises(ValueError):
            array *= 2


def test_soliton_travel_and_shape(grid):
    # the closed form at t = 0.5 is the initial trough moved by c * t = 2
    u0 = one_soliton(grid, 4.0, 10.0)
    u1 = evolve_trajectory("kdv", u0, 0.5, 1e-3, save_every=500)[-1]
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
    energy = conserved_quantities(Field1D(grid, c * np.ones(grid.n)), "gmkdv")[2]
    assert abs(energy - c**4 / 2 * grid.length) < 1e-12


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
    # round-trips through irfft/rfft, which injects only ~1e-16 noise
    u0 = one_soliton(grid, 4.0, 10.0)
    u1 = evolve_trajectory("kdv", u0, 0.05, 1e-3, save_every=50)[-1]
    hat = u1.spectrum()
    assert np.max(np.abs(hat[~grid.dealias_mask])) < 1e-12


def test_time_step_convergence_at_least_third_order(grid):
    u0 = one_soliton(grid, 4.0, 10.0)
    reference = evolve_trajectory("kdv", u0, 0.5, 1e-4, save_every=5000)[-1]
    errors = []
    for dt in (4e-3, 2e-3):
        u1 = evolve_trajectory("kdv", u0, 0.5, dt, save_every=round(0.5 / dt))[-1]
        errors.append(np.max(np.abs(u1.values - reference.values)))
    assert errors[0] / errors[1] >= 8.0


def test_blowup_detection(grid):
    # a constant field is a fixed point, so it stays above the norm bound
    u0 = Field1D(grid, 1e9 * np.ones(grid.n))
    with pytest.raises(BlowUp):
        evolve_trajectory("kdv", u0, 0.01, 1e-3, save_every=10)


@pytest.mark.parametrize(
    "bad, error",
    [(np.nan, UnstableStep), (np.inf, UnstableStep), (-np.inf, UnstableStep), (1.5e8, BlowUp), (-1.5e8, BlowUp)],
)
def test_state_check_outcomes(grid, bad, error):
    u = np.linspace(-1.0, 1.0, grid.n)
    _check_state(u)
    u[17] = bad
    with pytest.raises(error):
        _check_state(u)
    u[3] = 2e8 if error is UnstableStep else np.nan  # a non-finite entry wins over a large one
    with pytest.raises(UnstableStep):
        _check_state(u)


def test_unknown_equation(grid):
    with pytest.raises(ValueError):
        evolve_trajectory("burgers", one_soliton(grid, 4.0, 10.0), 0.01, 1e-3)
