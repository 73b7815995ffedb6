"""Exact propagators: twisting, junction dynamics, spin mixing, pair
interferometer."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm

from spinlab.dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    _spectrum,
    _su11,
    evolve,
    oat_evolve,
    su11_scan,
)
from spinlab.metrology import squeezing
from spinlab.reference import ProtocolFormulas, oat_closed_forms
from spinlab.spinspace import (
    HermitianOperator,
    collective_operator,
    expectation,
    jx,
    jy,
    jz,
    make_space,
    variance,
)
from spinlab.states import (
    ThreeModeState,
    bjj_hamiltonian_bands,
    coherent,
    pair_hamiltonian_bands,
)


def pair_propagator(n, q, lam_sign=-1):
    diag, off = pair_hamiltonian_bands(n, q, float(lam_sign))
    return SpectralPropagator.from_tridiagonal(diag, off)


class TestSpectralPropagator:
    def test_matches_diagonal_phases(self):
        space = make_space(8)
        prop = SpectralPropagator.from_dense(jz(space).matrix)
        amps = coherent(space, 1.0, 0.2).amplitudes
        t = 0.7
        expected = np.exp(-1j * space.m_labels * t) * amps
        np.testing.assert_allclose(prop.apply(amps, t), expected, atol=1e-12)

    def test_tridiagonal_and_dense_routes_agree(self):
        rng = np.random.default_rng(3)
        diag = rng.normal(size=12)
        off = rng.normal(size=11)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        amps /= np.linalg.norm(amps)
        a = SpectralPropagator.from_tridiagonal(diag, off).apply(amps, 1.3)
        b = SpectralPropagator.from_dense(dense).apply(amps, 1.3)
        np.testing.assert_allclose(a, b, atol=1e-11)


class TestEvolutionSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            EvolutionSpec(kind="kicked_top", t=1.0)

    def test_requires_parameters_per_kind(self):
        with pytest.raises(ValueError):
            EvolutionSpec(kind="oat")
        with pytest.raises(ValueError):
            EvolutionSpec(kind="bjj", lam=1.0)
        with pytest.raises(ValueError):
            EvolutionSpec(kind="spin_mixing", q=1.0)
        with pytest.raises(ValueError):
            EvolutionSpec(kind="custom", t=1.0)

    def test_rejects_bad_lam_sign(self):
        with pytest.raises(ValueError):
            EvolutionSpec(kind="spin_mixing", q=1.0, t=0.1, lam_sign=2)

    def test_state_type_mismatch(self):
        space = make_space(4)
        state = coherent(space, 1.0)
        with pytest.raises(ValueError):
            evolve(state, EvolutionSpec(kind="spin_mixing", q=1.0, t=0.1))
        with pytest.raises(ValueError):
            evolve(ThreeModeState(4, [1, 0, 0]), EvolutionSpec(kind="oat", chi_t=0.1))


class TestOneAxisTwisting:
    def test_zero_angle_is_identity(self):
        space = make_space(20)
        state = coherent(space, math.pi / 2, 0.0)
        out = oat_evolve(state, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_even_atom_number_half_revival_is_the_pi_rotated_state(self):
        # at chi t = pi the integer-m phases reduce to (-1)^m, a z rotation
        # by pi: the +x coherent state reappears pointing along -x, and the
        # overlap with the unrotated initial state vanishes
        space = make_space(100)
        state = coherent(space, math.pi / 2, 0.0)
        out = oat_evolve(state, math.pi)
        flipped = coherent(space, math.pi / 2, math.pi)
        assert abs(np.vdot(flipped.amplitudes, out.amplitudes)) > 1 - 1e-10
        assert abs(np.vdot(state.amplitudes, out.amplitudes)) < 1e-10

    def test_even_atom_number_full_revival(self):
        space = make_space(100)
        state = coherent(space, math.pi / 2, 0.0)
        out = oat_evolve(state, 2 * math.pi)
        assert abs(np.vdot(state.amplitudes, out.amplitudes)) > 1 - 1e-12

    def test_odd_atom_number_revives_at_half_the_even_period(self):
        # half-integer m: chi t = pi multiplies every amplitude by the same
        # e^{-i pi/4} global phase
        space = make_space(101)
        state = coherent(space, math.pi / 2, 0.0)
        out = oat_evolve(state, math.pi)
        assert abs(np.vdot(state.amplitudes, out.amplitudes)) > 1 - 1e-12

    def test_quarter_period_creates_an_x_axis_cat(self):
        n = 40
        space = make_space(n)
        state = coherent(space, math.pi / 2, 0.0)
        out = oat_evolve(state, math.pi / 2)
        plus = coherent(space, math.pi / 2, 0.0)
        minus = coherent(space, math.pi / 2, math.pi)
        a = np.vdot(plus.amplitudes, out.amplitudes)
        b = np.vdot(minus.amplitudes, out.amplitudes)
        # equal-weight superposition of the two opposite coherent states,
        # i.e. a rotated two-pole superposition
        assert (abs(a) + abs(b)) / math.sqrt(2) > 1 - 1e-8
        assert variance(out, jx(space)) == pytest.approx(n**2 / 4, rel=1e-8)

    def test_squeezing_matches_the_closed_form(self):
        n, chi_t = 100, 0.01 * math.pi
        space = make_space(n)
        out = oat_evolve(coherent(space, math.pi / 2, 0.0), chi_t)
        ref = oat_closed_forms(n, chi_t)
        report = squeezing(out)
        assert report.xi_r2 == pytest.approx(ref.xi_r2, rel=1e-9)
        assert report.contrast == pytest.approx(ref.contrast, rel=1e-9)

    def test_evolve_dispatch_matches_direct_call(self):
        space = make_space(12)
        state = coherent(space, math.pi / 2, 0.0)
        via_spec = evolve(state, EvolutionSpec(kind="oat", chi_t=0.3))
        np.testing.assert_allclose(
            via_spec.amplitudes, oat_evolve(state, 0.3).amplitudes
        )


class TestJunctionDynamics:
    def test_norm_and_energy_conservation(self):
        space = make_space(50)
        state = coherent(space, math.pi / 2, 0.7)
        diag, off = bjj_hamiltonian_bands(space, 0.8, 0.1)
        h = HermitianOperator(space, np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        e0 = expectation(state, h)
        for t in (0.3, 1.7, 6.0):
            out = evolve(state, EvolutionSpec(kind="bjj", lam=0.8, delta_e=0.1, t=t))
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)
            assert expectation(out, h) == pytest.approx(e0, rel=1e-9)

    def test_transverse_variance_follows_the_frozen_spin_law(self):
        # weak twist from the harmonic pole: Var(J_z) oscillates between the
        # projection-noise level and its squeezed value at 2 w
        n, lam = 1000, 0.1
        space = make_space(n)
        start = coherent(space, math.pi / 2, math.pi)
        for wt in np.linspace(0.25, math.pi, 8):
            out = evolve(state=start, spec=EvolutionSpec(kind="bjj", lam=lam, t=wt))
            vz_num = variance(out, jz(space))
            vz, _ = ProtocolFormulas.frozen_spin_variances(n, 1.0, lam, wt, start="-x")
            assert vz_num == pytest.approx(vz, rel=0.02)

    def test_zero_hamiltonian_is_the_identity(self):
        space = make_space(10)
        state = coherent(space, 1.1, -0.4)
        h = HermitianOperator(space, np.zeros((11, 11)))
        out = evolve(state, EvolutionSpec(kind="custom", t=5.0, hamiltonian=h))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_custom_evolution_matches_collective_rotation(self):
        space = make_space(8)
        state = coherent(space, 0.9, 0.1)
        h = collective_operator(space, (0.0, 1.0, 0.0))
        out = evolve(state, EvolutionSpec(kind="custom", t=0.6, hamiltonian=h))
        from spinlab.spinspace import rotate_state

        expected = rotate_state(state, (0.0, 1.0, 0.0), 0.6)
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-11)


class TestSpinMixingDynamics:
    def test_norm_and_magnetization_are_conserved(self):
        n = 200
        state = ThreeModeState(n, np.eye(n // 2 + 1)[0])
        out = evolve(state, EvolutionSpec(kind="spin_mixing", q=5.0, t=0.01))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)
        # the paired basis carries zero magnetization by construction
        assert isinstance(out, ThreeModeState)

    def test_low_depletion_growth_matches_the_undepleted_pump_law(self):
        n = 1000
        q = 2.0 * n - 1.0  # resonance: alpha = q - (2N - 1) = 0
        alpha, beta = 0.0, -2.0 * n
        state = ThreeModeState(n, np.eye(n // 2 + 1)[0])
        for t in np.linspace(1e-4, 8.5e-4, 6):
            out = evolve(state, EvolutionSpec(kind="spin_mixing", q=q, t=t))
            _, n_side = out.mode_populations()
            assert 2 * n_side < 0.02 * n, "depletion left the validity regime"
            predicted = ProtocolFormulas.bogoliubov_pair_population(alpha, beta, t)
            assert n_side == pytest.approx(predicted, rel=0.05)


class TestPairInterferometer:
    def test_zero_phase_equals_uninterrupted_mixing(self):
        n = 100
        q, tmix = 2.0 * n - 1.0, 0.002
        scan = su11_scan(n, -1, q, tmix, np.array([0.0]))
        prop = pair_propagator(n, q)
        amp0 = np.zeros(n // 2 + 1, dtype=complex)
        amp0[0] = 1.0
        straight = prop.apply(amp0, 2 * tmix)
        npair = 2.0 * np.arange(n // 2 + 1)
        mean = float((np.abs(straight) ** 2) @ npair)
        assert scan[0, 1] == pytest.approx(mean, rel=1e-10)

    def test_dark_fringe_is_dark_in_the_weak_mixing_regime(self):
        n = 400
        scan = su11_scan(n, -1, 2.0 * n - 1.0, 0.0005, np.array([math.pi]))
        assert scan[0, 1] < 1e-6 * n

    def test_moment_sensitivity_tracks_the_undepleted_pump_formula(self):
        n, tmix = 400, 0.0013
        q = 2.0 * n - 1.0
        theta = np.linspace(math.pi - 0.45, math.pi + 0.05, 201)
        scan = su11_scan(n, -1, q, tmix, theta)
        opened = su11_scan(n, -1, q, tmix, np.array([0.0]))
        prop = pair_propagator(n, q)
        amp0 = np.zeros(n // 2 + 1, dtype=complex)
        amp0[0] = 1.0
        after_open = prop.apply(amp0, tmix)
        scattered = float(
            (np.abs(after_open) ** 2) @ (2.0 * np.arange(n // 2 + 1))
        )
        assert scattered == pytest.approx(3.0, abs=0.2)
        mean, var = scan[:, 1], scan[:, 2]
        slope = np.gradient(mean, theta)
        i_dark = int(np.argmin(mean))
        for offset in (0.1, 0.2, 0.3):
            i = int(np.argmin(np.abs(theta - (theta[i_dark] - offset))))
            numeric = math.sqrt(var[i]) / abs(slope[i])
            closed = ProtocolFormulas.su11_sensitivity(scattered, theta[i])
            assert numeric == pytest.approx(closed, rel=0.10)

    def test_fringe_columns_are_well_formed(self):
        out = su11_scan(40, -1, 79.0, 0.002, np.linspace(0, 2 * math.pi, 9))
        assert out.shape == (9, 3)
        assert np.all(out[:, 2] >= 0.0)
        np.testing.assert_allclose(out[:, 0], np.linspace(0, 2 * math.pi, 9))

    def test_rejects_odd_atom_numbers_and_bad_times(self):
        with pytest.raises(ValueError):
            su11_scan(41, -1, 10.0, 0.1, [0.0])
        with pytest.raises(ValueError):
            su11_scan(40, -1, 10.0, 0.0, [0.0])

    @pytest.mark.parametrize(
        "lam_sign, q, theta",
        [
            (0, 79.0, [0.0]),
            (5, 79.0, [0.0]),
            (-1.5, 79.0, [0.0]),
            (-1, math.nan, [0.0]),
            (-1, math.inf, [0.0]),
            (-1, 79.0, [0.0, math.nan]),
            (1, 79.0, [-math.inf]),
        ],
    )
    def test_rejects_bad_sign_coupling_and_phases_before_any_eigensolve(self, lam_sign, q, theta):
        before = _spectrum.cache_info()
        with pytest.raises(ValueError):
            su11_scan(40, lam_sign, q, 0.002, theta)
        after = _spectrum.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_both_signs_are_accepted(self):
        for lam_sign in (-1, 1, -1.0, 1.0):
            assert np.all(np.isfinite(su11_scan(40, lam_sign, 79.0, 0.002, [0.0, 1.0])))


class TestSpectrumCache:
    """One tridiagonal eigensolve per spin-mixing Hamiltonian: cached spectra give
    the bits of a fresh eigensolve, later times hit the cache, and the cache is
    read-only."""

    def test_spin_mixing_evolve_matches_a_fresh_eigensolve(self):
        n, q = 2000, 3999.0
        fresh = SpectralPropagator.from_tridiagonal(*pair_hamiltonian_bands(n, q, -1.0))
        state = ThreeModeState(n, np.eye(n // 2 + 1)[0])
        for t in (2e-4, 5e-4):
            out = evolve(state, EvolutionSpec(kind="spin_mixing", q=q, lam_sign=-1, t=t))
            assert np.array_equal(out.amplitudes, fresh.apply(state.amplitudes, t))

    def test_scan_matches_a_fresh_eigensolve(self):
        n, q, t_mix = 1000, 1999.0, 5e-4
        theta = np.linspace(0.0, 2.0 * math.pi, 7)
        fresh = SpectralPropagator.from_tridiagonal(*pair_hamiltonian_bands(n, q, -1.0))
        k = np.arange(n // 2 + 1)
        opened = fresh.apply(k == 0, t_mix)
        p = np.abs(fresh.apply(np.exp(-1j * np.outer(k, theta)) * opened[:, None], t_mix)) ** 2
        mean = 2.0 * k @ p
        var = np.maximum((2.0 * k) ** 2 @ p - mean**2, 0.0)
        for _ in range(2):  # cold, then from the cache
            assert np.array_equal(su11_scan(n, -1, q, t_mix, theta), np.column_stack((theta, mean, var)))

    def test_a_new_time_is_a_cache_hit(self):
        assert _spectrum.cache_info().maxsize == 2
        n = 200
        state = ThreeModeState(n, np.eye(n // 2 + 1)[0])
        _spectrum.cache_clear()
        evolve(state, EvolutionSpec(kind="spin_mixing", q=399.0, t=1e-3))
        first = _spectrum.cache_info()
        assert (first.hits, first.misses) == (0, 1)
        evolve(state, EvolutionSpec(kind="spin_mixing", q=399, lam_sign=-1, t=2e-3))
        su11_scan(n, -1, 399.0, 1e-3, [0.0])
        second = _spectrum.cache_info()
        assert (second.hits, second.misses) == (2, 1)

    def test_holds_at_most_two_spectra(self):
        _spectrum.cache_clear()
        for q in (1.0, 2.0, 3.0, 1.0):
            su11_scan(40, -1, q, 0.002, [0.0])
        info = _spectrum.cache_info()
        assert (info.currsize, info.hits, info.misses) == (2, 0, 4)

    def test_cached_spectrum_is_read_only(self):
        prop = _spectrum(40, 79.0, -1.0)
        with pytest.raises(ValueError):
            prop.vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            prop.energies[0] = 1.0


class TestBlockPropagation:
    """apply on (K, T) blocks and the batched fringe, against per-column,
    per-phase and matrix-exponential references."""

    def test_block_apply_matches_column_applies(self):
        rng = np.random.default_rng(11)
        diag, off = pair_hamiltonian_bands(60, 59.0, -1.0)
        prop = SpectralPropagator.from_tridiagonal(diag, off)
        assert not np.iscomplexobj(prop.vectors)
        t = 2e-4
        block = rng.normal(size=(31, 6)) + 1j * rng.normal(size=(31, 6))
        for amps in (block, block[:, ::2]):  # contiguous and strided columns
            got = prop.apply(amps, t)
            assert got.shape == amps.shape
            for j in range(amps.shape[1]):
                np.testing.assert_allclose(got[:, j], prop.apply(amps[:, j], t), rtol=0, atol=1e-13)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        exact = expm(-1j * t * dense)
        np.testing.assert_allclose(prop.apply(block, t), exact @ block, rtol=0, atol=1e-11)
        # real amplitudes are propagated as complex ones
        np.testing.assert_allclose(prop.apply(np.eye(31)[:, :3], t), exact[:, :3], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dense", [False, True])
    def test_time_grid_columns_match_per_time_applies(self, dense):
        rng = np.random.default_rng(17)
        if dense:
            space = make_space(30)
            prop = SpectralPropagator.from_dense(jy(space).matrix + 0.3 * jz(space).matrix)
        else:
            prop = SpectralPropagator.from_tridiagonal(*pair_hamiltonian_bands(60, 3.0, -1.0))
        assert np.iscomplexobj(prop.vectors) == dense
        amps = rng.normal(size=31) + 1j * rng.normal(size=31)
        times = np.array([0.0, 0.3, -1.2, 0.05, 4.0])
        got = prop.apply(amps, times)
        assert got.shape == (31, times.size)
        for j, t in enumerate(times):
            np.testing.assert_allclose(got[:, j], prop.apply(amps, t), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [0.1, math.nan]])
    def test_non_finite_time_is_rejected(self, t):
        prop = SpectralPropagator.from_tridiagonal(*pair_hamiltonian_bands(20, 1.0, -1.0))
        with pytest.raises(ValueError, match="t must be finite"):
            prop.apply(np.eye(11)[0], t)

    def test_time_grid_needs_a_single_vector(self):
        prop = SpectralPropagator.from_tridiagonal(*pair_hamiltonian_bands(20, 1.0, -1.0))
        with pytest.raises(ValueError, match="t must be one time"):
            prop.apply(np.eye(11)[:, :2], [0.1, 0.2])
        with pytest.raises(ValueError, match="t must be one time"):
            prop.apply(np.eye(11)[0], [[0.1, 0.2]])

    def test_complex_eigenbasis_takes_the_plain_product(self):
        space = make_space(12)
        h = jy(space).matrix + 0.3 * jz(space).matrix
        prop = SpectralPropagator.from_dense(h)
        assert np.iscomplexobj(prop.vectors)
        rng = np.random.default_rng(5)
        block = rng.normal(size=(13, 4)) + 1j * rng.normal(size=(13, 4))
        got = prop.apply(block, 0.9)
        for j in range(4):
            np.testing.assert_allclose(got[:, j], prop.apply(block[:, j], 0.9), rtol=0, atol=1e-13)
        np.testing.assert_allclose(got, expm(-0.9j * h) @ block, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 40, 400])
    def test_scan_matches_per_phase_evolution(self, n):
        q, t_mix = 2.0 * n - 1.0, 1.0 / (2.0 * n)
        spec = EvolutionSpec(kind="spin_mixing", q=q, lam_sign=-1, t=t_mix)
        opened = evolve(ThreeModeState(n, np.eye(n // 2 + 1)[0]), spec)
        theta = np.linspace(0.0, 2.0 * math.pi, 25)
        k = np.arange(n // 2 + 1)
        want = np.array([
            evolve(ThreeModeState(n, np.exp(-1j * th * k) * opened.amplitudes), spec).pair_population()
            for th in theta
        ])
        table, scattered = _su11(n, -1, q, t_mix, theta)
        np.testing.assert_array_equal(table, su11_scan(n, -1, q, t_mix, theta))
        np.testing.assert_array_equal(table[:, 0], theta)
        np.testing.assert_allclose(table[:, 1], want[:, 0], rtol=1e-11, atol=0)
        assert np.max(np.abs(table[:, 2] - want[:, 1])) <= 1e-11 * np.max(want[:, 1])
        assert scattered == pytest.approx(opened.pair_population()[0], rel=1e-12)

    def test_scalar_single_and_empty_grids(self):
        args = (40, -1, 79.0, 0.002)
        one = su11_scan(*args, 0.7)
        assert one.shape == (1, 3)
        np.testing.assert_array_equal(one, su11_scan(*args, [0.7]))
        three = su11_scan(*args, np.array([0.2, 0.7, 1.1]))
        np.testing.assert_allclose(three[1], one[0], rtol=1e-13, atol=0)
        assert su11_scan(*args, []).shape == (0, 3)
        assert su11_scan(*args, np.array([])).shape == (0, 3)


class TestPairInterferometerAtLargeN:
    def test_fringe_sensitivity_at_4000_atoms(self):
        """Acceptance gate 7's fringe check at N=4000 with 201 phases, to 10%.

        The scan's traced peak stays within 16 MB of the tridiagonal
        eigensolve's own: a complex copy of the 2001 x 2001 eigenbasis
        alone would take 64 MB.
        """
        n = 4000
        q, t_mix = 2.0 * n - 1.0, 1.04 / (2.0 * n)
        grid = np.linspace(math.pi - 0.45, math.pi + 0.05, 201)
        diag, off = pair_hamiltonian_bands(n, q, -1.0)
        tracemalloc.start()
        try:
            eigh_tridiagonal(diag, off)
            solve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            scan = su11_scan(n, -1, q, t_mix, grid)
            scan_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan_peak <= solve_peak + 16 * 2**20
        opened = evolve(
            ThreeModeState(n, np.eye(n // 2 + 1)[0]),
            EvolutionSpec(kind="spin_mixing", q=q, lam_sign=-1, t=t_mix),
        )
        scattered = opened.pair_population()[0]
        assert scattered / n < 0.02
        theta, mean, var = scan[:, 0], scan[:, 1], scan[:, 2]
        slope = np.gradient(mean, theta)
        dark = int(np.argmin(mean))
        for offset in (0.1, 0.2, 0.3):
            i = int(np.argmin(np.abs(theta - (theta[dark] - offset))))
            closed = ProtocolFormulas.su11_sensitivity(scattered, math.pi - (theta[dark] - theta[i]))
            assert math.sqrt(var[i]) / abs(slope[i]) == pytest.approx(closed, rel=0.10)
