"""State factories: coherent/Dicke/NOON families, two-mode and three-mode
ground states, squeezed vacuum.

The pair-basis Hamiltonian bands are validated against a dense three-mode
Fock-space construction built independently here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from spinlab.dynamics import _spectrum, su11_scan
from spinlab.metrology import collective_dephasing, squeezing
from spinlab.spinspace import (
    KetState,
    MixedState,
    expectation,
    jx,
    jz,
    make_space,
    rotate_state,
    variance,
)
from spinlab.states import (
    PairBasisState,
    ThreeModeState,
    bjj_ground_state,
    bjj_hamiltonian_bands,
    coherent,
    dicke,
    noon,
    pair_hamiltonian_bands,
    pair_sx2_bands,
    spin_mixing_ground_state,
    twin_fock,
    two_mode_squeezed_vacuum,
    w_state,
)
from spinlab.tomography import _strip_table, decompose


def dense_three_mode(n):
    """Dense operators on the full three-mode Fock space with n atoms.

    Returns (basis index of |n_+ = k, n_0 = n - 2k, n_- = k>, number ops,
    pair-creation a_-^dag a_+^dag a_0 a_0, single-particle S_x).
    """
    basis = [
        (p, z, n - p - z) for p in range(n + 1) for z in range(n + 1 - p)
    ]
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)

    # number-conserving composites built per matrix element (single ladders
    # leave the fixed-N space)
    number = [np.diag([float(occ[m]) for occ in basis]) for m in range(3)]
    pair_create = np.zeros((dim, dim))
    hop_up = np.zeros((dim, dim))  # a_+^dag a_0
    hop_down = np.zeros((dim, dim))  # a_-^dag a_0
    for i, (p, z, m) in enumerate(basis):
        if z >= 2:
            j = index[(p + 1, z - 2, m + 1)]
            pair_create[j, i] = math.sqrt((p + 1) * (m + 1) * z * (z - 1))
        if z >= 1:
            hop_up[index[(p + 1, z - 1, m)], i] = math.sqrt((p + 1) * z)
            hop_down[index[(p, z - 1, m + 1)], i] = math.sqrt((m + 1) * z)
    # pseudo-spin-1/2 of the symmetric side mode against the condensate:
    # S_x = (a_s^dag a_0 + a_0^dag a_s)/2 with a_s = (a_+ + a_-)/sqrt(2)
    sx = (hop_up + hop_up.T + hop_down + hop_down.T) / (2 * math.sqrt(2))
    sector = [index[(k, n - 2 * k, k)] for k in range(n // 2 + 1)]
    return sector, number, pair_create, sx


def bands_to_dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestCoherent:
    def test_pole(self):
        space = make_space(6)
        state = coherent(space, 0.0)
        amps = np.zeros(7)
        amps[-1] = 1.0
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-14)

    def test_equatorial_binomial_amplitude(self):
        space = make_space(4)
        state = coherent(space, math.pi / 2, 0.0)
        # m = 0 holds sqrt(binom(4, 2))/2^2
        m0 = state.amplitudes[2]
        assert m0 == pytest.approx(math.sqrt(6) / 4, rel=1e-13)
        assert np.all(state.amplitudes.real > 0)

    @settings(max_examples=25, deadline=None)
    @given(
        theta=st.floats(0.05, math.pi - 0.05),
        phi=st.floats(-math.pi, math.pi),
    )
    def test_points_along_requested_direction(self, theta, phi):
        n = 9
        space = make_space(n)
        state = coherent(space, theta, phi)
        from spinlab.spinspace import jy

        mean = np.array(
            [expectation(state, op) for op in (jx(space), jy(space), jz(space))]
        )
        direction = np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        np.testing.assert_allclose(mean, n / 2 * direction, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi),
        phi=st.floats(-math.pi, math.pi),
    )
    def test_unit_norm(self, theta, phi):
        state = coherent(make_space(11), theta, phi)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_rotation_returns_to_the_pole(self):
        space = make_space(10)
        theta, phi = 1.1, 0.6
        state = coherent(space, theta, phi)
        # undo the (theta, phi) orientation: rotate by -theta about the
        # azimuthal tangent axis
        axis = (-math.sin(phi), math.cos(phi), 0.0)
        back = rotate_state(state, axis, -theta)
        assert abs(back.amplitudes[-1]) > 1 - 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 401, 4000])
    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 2.9])
    def test_amplitudes_equal_the_lgamma_formula_bitwise(self, n, theta):
        # the log-factorials come from spinspace._logfact; the binomial amplitudes must
        # keep every bit of the per-label math.lgamma formula
        space, phi = make_space(n), 0.7
        j, m = space.total_spin, space.m_labels
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
        lbinom = math.lgamma(n + 1) - np.array(
            [math.lgamma(j + mm + 1) + math.lgamma(j - mm + 1) for mm in m]
        )
        logmag = 0.5 * lbinom + (j + m) * math.log(c) + (j - m) * math.log(s)
        amp = np.exp(logmag) * np.exp(-1j * (m + j) * phi)
        want = amp / np.linalg.norm(amp)
        np.testing.assert_array_equal(coherent(space, theta, phi).amplitudes, want)


class TestBasisStates:
    def test_twin_fock_of_two_atoms_is_the_central_dicke_state(self):
        space = make_space(2)
        np.testing.assert_allclose(
            twin_fock(space).amplitudes, dicke(space, 0).amplitudes
        )

    def test_dicke_is_a_basis_vector(self):
        space = make_space(8)
        state = dicke(space, -3)
        assert state.amplitudes[1] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_noon_variance_and_phase_convention(self):
        n = 10
        space = make_space(n)
        state = noon(space, 0.35)
        assert variance(state, jz(space)) == pytest.approx(n**2 / 4, rel=1e-12)
        # amplitude on the upper pole is real positive, the phase rides on
        # the lower pole
        assert state.amplitudes[-1] == pytest.approx(1 / math.sqrt(2))
        assert np.angle(state.amplitudes[0]) == pytest.approx(0.35, rel=1e-12)

    def test_w_state_is_the_one_hole_dicke_state(self):
        space = make_space(6)
        np.testing.assert_allclose(
            w_state(space).amplitudes, dicke(space, 2).amplitudes
        )


class TestBjjGroundState:
    def test_uncoupled_limit_is_the_x_coherent_state(self):
        space = make_space(30)
        gs = bjj_ground_state(space, 0.0)
        css = coherent(space, math.pi / 2, 0.0)
        assert abs(np.vdot(css.amplitudes, gs.amplitudes)) > 1 - 1e-10

    def test_strong_repulsion_reaches_twin_fock(self):
        space = make_space(20)
        gs = bjj_ground_state(space, 1e6)
        assert abs(np.vdot(twin_fock(space).amplitudes, gs.amplitudes)) > 0.999

    def test_attractive_side_number_antisqueezes(self):
        space = make_space(1000)
        gs = bjj_ground_state(space, -0.5)
        report = squeezing(gs)
        assert report.xi_r2 == pytest.approx(math.sqrt(0.5), rel=0.05)

    def test_is_an_eigenvector_of_the_band_matrix(self):
        space = make_space(60)
        lam = 2.5
        gs = bjj_ground_state(space, lam)
        h = bands_to_dense(*bjj_hamiltonian_bands(space, lam))
        hv = h @ gs.amplitudes
        energy = np.real(np.vdot(gs.amplitudes, hv))
        assert np.linalg.norm(hv - energy * gs.amplitudes) < 1e-8

    @pytest.mark.parametrize("lam", [-0.7, 0.0, 3.0])
    def test_balanced_junction_ground_state_has_definite_parity(self, lam):
        space = make_space(24)
        amps = bjj_ground_state(space, lam).amplitudes
        flipped = amps[::-1]
        same = np.max(np.abs(amps - flipped))
        opposite = np.max(np.abs(amps + flipped))
        assert min(same, opposite) < 1e-9

    def test_imbalance_tilts_the_population(self):
        space = make_space(12)
        gs = bjj_ground_state(space, 0.5, delta_e=-0.4)
        assert expectation(gs, jz(space)) > 0.1


class TestPairBasisAgainstDenseFock:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_hamiltonian_bands(self, n):
        q, lam = 0.37, -1.0
        sector, number, pair_create, _ = dense_three_mode(n)
        n_side = number[0] + number[2]
        n_zero = number[1]
        h_full = (
            q * n_side
            + lam * (2 * n_zero - np.eye(len(n_zero))) @ n_side
            + 2 * lam * (pair_create + pair_create.T)
        )
        h_sector = h_full[np.ix_(sector, sector)]
        diag, off = pair_hamiltonian_bands(n, q, lam)
        np.testing.assert_allclose(h_sector, bands_to_dense(diag, off), atol=1e-12)
        # the sector is closed: no coupling out of it
        mask = np.ones(len(h_full), bool)
        mask[sector] = False
        assert np.max(np.abs(h_full[np.ix_(mask, sector)])) < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_sx_squared_bands(self, n):
        sector, _, _, sx = dense_three_mode(n)
        sx2_sector = (sx @ sx)[np.ix_(sector, sector)]
        diag, off = pair_sx2_bands(n)
        np.testing.assert_allclose(sx2_sector, bands_to_dense(diag, off), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8])
    def test_ground_state_matches_dense_diagonalization(self, n):
        q = -0.8
        gs = spin_mixing_ground_state(n, q, lam_sign=-1)
        sector, number, pair_create, _ = dense_three_mode(n)
        n_side = number[0] + number[2]
        h_full = (
            q * n_side
            - (2 * number[1] - np.eye(len(n_side))) @ n_side
            - 2 * (pair_create + pair_create.T)
        )
        h_sector = h_full[np.ix_(sector, sector)]
        vals, vecs = np.linalg.eigh(h_sector)
        overlap = abs(np.vdot(vecs[:, 0], gs.amplitudes))
        assert overlap > 1 - 1e-10


class TestSpinMixingGroundState:
    def test_large_positive_quadratic_shift_keeps_the_condensate(self):
        n = 40
        gs = spin_mixing_ground_state(n, q=10 * 4 * n, lam_sign=-1)
        assert abs(gs.amplitudes[0]) > 0.999

    def test_large_negative_shift_fills_the_side_modes(self):
        n = 40
        gs = spin_mixing_ground_state(n, q=-10 * 4 * n, lam_sign=-1)
        assert abs(gs.amplitudes[-1]) > 0.999

    def test_zero_shift_fisher_density(self):
        n = 100
        gs = spin_mixing_ground_state(n, 0.0, lam_sign=-1)
        diag, off = pair_sx2_bands(n)
        amps = gs.amplitudes.real
        sx2 = float(
            amps @ (diag * amps) + 2.0 * amps[:-1] @ (off * amps[1:])
        )
        assert np.max(np.abs(gs.amplitudes.imag)) < 1e-12
        # 4 <S_x^2> on the macroscopic-superposition ground state
        assert 4 * sx2 == pytest.approx(n * (n + 1) / 2, rel=1e-6)

    def test_mode_populations_sum_to_the_atom_number(self):
        n = 12
        gs = spin_mixing_ground_state(n, -3.0)
        n0, nside = gs.mode_populations()
        assert n0 + 2 * nside == pytest.approx(n, rel=1e-12)


class TestThreeModeState:
    def test_pair_population_moments(self):
        amps = np.zeros(4)
        amps[[0, 2]] = [3.0, 4.0]
        state = ThreeModeState(6, amps / 5.0)
        mean, var = state.pair_population()
        # 2k = 0 with weight 9/25 and 4 with weight 16/25
        assert mean == pytest.approx(64 / 25, rel=1e-13)
        assert var == pytest.approx(16 * 9 / 625 * 16, rel=1e-12)
        np.testing.assert_array_equal(state.k_values, [0, 1, 2, 3])


class TestTwoModeSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        state = two_mode_squeezed_vacuum(0.0, n_max=5)
        assert state.amplitudes[0] == pytest.approx(1.0)
        assert np.max(np.abs(state.amplitudes[1:])) == 0.0

    def test_amplitude_law_and_occupation(self):
        r = 1.0
        state = two_mode_squeezed_vacuum(r, n_max=80)
        n = np.arange(81)
        expected = (-1j * math.tanh(r)) ** n / math.cosh(r)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-10)
        mean, _ = state.occupation_moments()
        # each side mode holds sinh^2 r on average; the |n, n> structure of
        # the basis makes the occupation difference identically zero
        assert mean == pytest.approx(math.sinh(1.0) ** 2, abs=1e-4)
        assert mean == pytest.approx(1.3811, abs=1e-4)

    def test_norm_is_preserved_under_truncation(self):
        state = two_mode_squeezed_vacuum(0.8, n_max=60)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)


class TestPairStateChecks:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ThreeModeState(4, [math.nan, 0.0, 0.0]),
            lambda: PairBasisState(r=0.0, n_max=1, amplitudes=[math.nan, 0.0]),
            lambda: PairBasisState(r=0.0, n_max=1, amplitudes=[math.inf, 0.0]),
        ],
        ids=["three-mode-nan", "pair-nan", "pair-inf"],
    )
    def test_nonfinite_amplitudes_are_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_pair_state_rejects_a_norm_above_one(self):
        with pytest.raises(ValueError):
            PairBasisState(r=0.0, n_max=1, amplitudes=[1.0, 0.5])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ThreeModeState(200.0, np.eye(101)[0]),
            lambda: pair_hamiltonian_bands(200.0, 1.0, -1.0),
            lambda: pair_sx2_bands(200.0),
        ],
        ids=["three-mode", "hamiltonian-bands", "sx2-bands"],
    )
    def test_pair_basis_rejects_a_float_particle_number(self, build):
        with pytest.raises(ValueError, match="positive even particle number"):
            build()


def _hermitian_part(a):
    return (a + a.conj().T) / 2.0


def _sign_fixed_unit(vec):
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return vec / np.linalg.norm(vec)


def _count_formula(p, values):
    mean = float(p @ values)
    return mean, max(float(p @ values**2) - mean**2, 0.0)


class TestPairAndDensityPathsArePinned:
    """Count moments, signed ground states and ket densities against the
    direct formulas, written out here, bit for bit."""

    @pytest.mark.parametrize("n", [2, 8, 40, 400, 1000])
    def test_pair_population(self, n):
        for q in (-3.0, 0.0, 2.0 * n):
            state = spin_mixing_ground_state(n, q)
            got = state.pair_population()
            assert got == _count_formula(np.abs(state.amplitudes) ** 2, 2.0 * np.arange(n // 2 + 1))
            assert [type(x) for x in got] == [float, float]

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0])
    def test_occupation_moments(self, r):
        for state in (two_mode_squeezed_vacuum(r), two_mode_squeezed_vacuum(r, n_max=30)):
            got = state.occupation_moments()
            assert got == _count_formula(np.abs(state.amplitudes) ** 2, np.arange(state.n_max + 1.0))
            assert [type(x) for x in got] == [float, float]

    @pytest.mark.parametrize("n", [2, 40, 400])
    @pytest.mark.parametrize("lam_sign", [-1, 1])
    def test_su11_scan(self, n, lam_sign):
        q, t_mix, theta = 2.0 * n - 1.0, 0.05, np.linspace(0.0, 2.0 * math.pi, 31)
        prop = _spectrum(n, q, float(lam_sign))
        k = np.arange(n // 2 + 1)
        opened = prop.apply(k == 0, t_mix)
        closed = prop.apply(np.exp(-1j * np.outer(k, theta)) * opened[:, None], t_mix)
        p, npair = np.abs(closed) ** 2, 2.0 * k
        mean = npair @ p
        var = np.maximum(npair**2 @ p - mean**2, 0.0)
        expected = np.column_stack((theta, mean, var))
        assert np.array_equal(su11_scan(n, lam_sign, q, t_mix, theta), expected)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 400])
    def test_bjj_ground_state(self, n):
        space = make_space(n)
        for lam in (-5.0, -1.0, 0.0, 0.5, 10.0):
            for delta_e in (0.0, 0.3):
                diag, off = bjj_hamiltonian_bands(space, lam, delta_e)
                if delta_e == 0.0 and space.dim >= 2:
                    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
                    even = vecs + vecs[::-1, :]
                    vec = even[:, int(np.argmax(np.linalg.norm(even, axis=0)))]
                else:
                    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
                    vec = vecs[:, 0]
                expected = _sign_fixed_unit(vec).astype(complex)
                assert np.array_equal(bjj_ground_state(space, lam, delta_e).amplitudes, expected)

    @pytest.mark.parametrize("n", [2, 4, 40, 1000])
    def test_spin_mixing_ground_state(self, n):
        for q in (-3.0, 0.0, 2.0 * n, 5.0 * n):
            for lam_sign in (-1, 1):
                diag, off = pair_hamiltonian_bands(n, q, float(lam_sign))
                _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
                expected = _sign_fixed_unit(vecs[:, 0]).astype(complex)
                assert np.array_equal(spin_mixing_ground_state(n, q, lam_sign).amplitudes, expected)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_collective_dephasing_of_kets_and_mixed_states(self, n):
        rng = np.random.default_rng(n)
        space = make_space(n)
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        ket = KetState(space, z / np.linalg.norm(z))
        rho = _hermitian_part(np.outer(ket.amplitudes, ket.amplitudes.conj()))
        assert np.array_equal(ket.density_matrix().matrix, rho)
        assert np.array_equal(rho, rho.conj().T)
        mixed = collective_dephasing(coherent(space, 1.1, 0.3), 0.2)
        dm = space.m_labels[:, None] - space.m_labels[None, :]
        for sigma, theta in ((0.0, None), (0.1, None), (0.7, 0.4)):
            kernel = np.exp(-0.5 * sigma**2 * dm**2)
            if theta is not None:
                kernel = kernel * np.exp(-1j * theta * dm)
            got = collective_dephasing(ket, sigma, theta).matrix
            assert np.array_equal(got, _hermitian_part(rho * kernel))
            got = collective_dephasing(mixed, sigma, theta).matrix
            assert np.array_equal(got, _hermitian_part(mixed.matrix * kernel))

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_decompose(self, n):
        rng = np.random.default_rng(10 + n)
        space = make_space(n)
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        ket = KetState(space, z / np.linalg.norm(z))
        g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        mixed = MixedState(space, g @ g.conj().T / np.trace(g @ g.conj().T).real)
        ket_rho = _hermitian_part(np.outer(ket.amplitudes, ket.amplitudes.conj()))
        for state, rho in ((ket, ket_rho), (mixed, mixed.matrix)):
            expected = np.zeros((n + 1, 2 * n + 1), dtype=complex)
            for q in range(n + 1):
                table = _strip_table(n, q)
                expected[q:, n + q] = table @ np.diagonal(rho, -q)
                expected[q:, n - q] = (-1) ** q * table @ np.diagonal(rho, q)
            assert np.array_equal(decompose(state).coefficients, expected)
