"""Collective spin space: operators, rotations, moments."""

import importlib.machinery
import importlib.util
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from spinlab.spinspace import (
    HermitianOperator,
    KetState,
    MixedState,
    apply_unitary,
    collective_operator,
    expectation,
    jminus,
    jplus,
    jx,
    jy,
    jz,
    make_space,
    moments,
    n_effective,
    rotate_state,
    rotation,
    variance,
)
from spinlab import spinspace
from spinlab.dynamics import oat_evolve
from spinlab.metrology import qfi, squeezing
from spinlab.spinspace import _spin_moments, _wigner_d
from spinlab.states import bjj_hamiltonian_bands, coherent, dicke, pair_hamiltonian_bands, twin_fock


class TestSpace:
    def test_single_particle(self):
        space = make_space(1)
        assert space.dim == 2
        np.testing.assert_array_equal(space.m_labels, [-0.5, 0.5])
        assert space.total_spin == 0.5

    def test_two_particles(self):
        space = make_space(2)
        np.testing.assert_array_equal(space.m_labels, [-1.0, 0.0, 1.0])

    def test_hundred_particles(self):
        space = make_space(100)
        assert space.dim == 101
        assert space.m_labels[0] == -50 and space.m_labels[-1] == 50

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_space(0)


class TestOperators:
    def test_jz_is_diagonal_in_the_occupation_basis(self):
        space = make_space(2)
        np.testing.assert_allclose(jz(space).matrix, np.diag([-1.0, 0.0, 1.0]))

    def test_raising_amplitude(self):
        space = make_space(2)
        # |m=0> -> sqrt(2) |m=1>
        assert jplus(space)[2, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert jminus(space)[1, 2] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64])
    def test_commutation_relations(self, n):
        space = make_space(n)
        x, y, z = jx(space).matrix, jy(space).matrix, jz(space).matrix
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_casimir_identity(self, n):
        space = make_space(n)
        x, y, z = jx(space).matrix, jy(space).matrix, jz(space).matrix
        j = n / 2
        total = x @ x + y @ y + z @ z
        assert np.max(np.abs(total - j * (j + 1) * np.eye(n + 1))) < 1e-10

    def test_collective_operator_combines_components(self):
        space = make_space(5)
        op = collective_operator(space, (0.0, 0.6, 0.8))
        expected = 0.6 * jy(space).matrix + 0.8 * jz(space).matrix
        np.testing.assert_allclose(op.matrix, expected, atol=1e-12)

    def test_collective_operator_normalizes_a_near_unit_axis(self):
        # |n| = 1 + 5e-10 passes the unit check; J_n must still be J_x, not |n| J_x
        space = make_space(4000)
        op = collective_operator(space, (1.0 + 5e-10, 0.0, 0.0)).matrix
        expected = jx(space).matrix
        assert np.max(np.abs(op - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_hermitian_operator_symmetrizes_small_drift(self):
        space = make_space(2)
        base = jx(space).matrix
        drift = 1e-14 * np.triu(np.ones((3, 3)))
        op = HermitianOperator(space, base + drift)
        np.testing.assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-16)

    def test_hermitian_operator_rejects_non_hermitian_input(self):
        space = make_space(2)
        with pytest.raises(ValueError):
            HermitianOperator(space, np.arange(9.0).reshape(3, 3))


NAN_AXIS = (math.nan, 0.0, 0.0)


class TestBoundaryChecks:
    """NaN compares False with everything, so every check is written to fail on it."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda space: collective_operator(space, NAN_AXIS),
            lambda space: rotation(space, NAN_AXIS, 0.3),
            lambda space: rotate_state(coherent(space, 0.4), NAN_AXIS, 0.3),
            lambda space: KetState(space, np.full(space.dim, math.nan)),
            lambda space: HermitianOperator(space, np.full((space.dim, space.dim), math.nan)),
            lambda space: MixedState(space, np.full((space.dim, space.dim), math.nan)),
            lambda space: MixedState(space, np.diag([math.nan, 1.0, 0.0, 0.0])),
        ],
        ids=["collective_operator", "rotation", "rotate_state", "ket", "operator", "mixed", "mixed-diag"],
    )
    def test_nan_inputs_are_rejected(self, build):
        with pytest.raises(ValueError) as err:
            build(make_space(3))
        # the boundary check fires, not a LAPACK failure further in
        assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_mixed_state_rejects_a_non_hermitian_unit_trace_matrix(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            MixedState(make_space(1), [[0.5, 1.0], [0.0, 0.5]])

    def test_a_ket_holds_a_copy_of_its_amplitudes(self):
        space = make_space(2)
        amp = np.array([0.0, 0.0, 1.0], dtype=complex)
        view = amp[:]
        state = KetState(space, amp)
        assert amp.flags.writeable and not state.amplitudes.flags.writeable
        assert expectation(state, jz(space)) == 1.0
        view[:] = [5.0, 0.0, 0.0]
        assert state.amplitudes.tolist() == [0.0, 0.0, 1.0]
        assert expectation(KetState(space, state.amplitudes), jz(space)) == 1.0


def _ladder_axis_sum(space, axis):
    """n_x J_x + n_y J_y + n_z J_z as a weighted sum of J_+ +- J_-, with n = axis / |axis|."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    jp = jplus(space)
    mat = np.diag(space.m_labels.astype(complex)) * n[2]
    mat += (n[0] / 2.0) * (jp + jp.conj().T)
    mat += (n[1] / 2.0j) * (jp - jp.conj().T)
    return mat


class TestBandBuildersArePinned:
    """The band-filled J_n and the moment readers against the J_+ constructions, bit for bit."""

    @pytest.mark.parametrize("n", [*range(1, 13), 301])
    def test_j_builders_equal_the_ladder_sums(self, n):
        space = make_space(n)
        jp = jplus(space)
        assert np.array_equal(jx(space).matrix, (jp + jp.conj().T) / 2.0)
        assert np.array_equal(jy(space).matrix, (jp - jp.conj().T) / 2.0j)
        assert np.array_equal(jz(space).matrix, np.diag(space.m_labels).astype(complex))
        axes = np.random.default_rng(n).normal(size=(4, 3))
        for axis in axes / np.linalg.norm(axes, axis=1)[:, None]:
            assert np.array_equal(collective_operator(space, axis).matrix, _ladder_axis_sum(space, axis))

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 301])
    def test_expectation_and_variance_equal_the_direct_formulas(self, n):
        rng = np.random.default_rng(100 + n)
        space = make_space(n)
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi = z / np.linalg.norm(z)
        g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        mixed = MixedState(space, g @ g.conj().T / np.trace(g @ g.conj().T).real)
        axis = rng.normal(size=3)
        for band_op in (jx(space), jy(space), jz(space), collective_operator(space, axis / np.linalg.norm(axis))):
            # the plain wrapper keeps the readers on their dense route; the band
            # route is held to it by TestCollectiveReadersMatchDense
            op = HermitianOperator(space, band_op.matrix)
            a, rho = op.matrix, mixed.matrix
            apsi = a @ psi
            m1 = float(np.real(np.vdot(psi, apsi)))
            assert expectation(KetState(space, psi), op) == m1
            assert variance(KetState(space, psi), op) == max(float(np.real(np.vdot(apsi, apsi))) - m1 * m1, 0.0)
            r1 = float(np.real(np.trace(rho @ a)))
            assert expectation(mixed, op) == r1
            assert variance(mixed, op) == max(float(np.real(np.trace(rho @ a @ a))) - r1 * r1, 0.0)


class TestRotations:
    def test_zero_angle_is_identity(self):
        space = make_space(6)
        np.testing.assert_allclose(
            rotation(space, (0.0, 1.0, 0.0), 0.0), np.eye(7), atol=1e-14
        )

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-6.0, 6.0, allow_nan=False),
        b=st.floats(-6.0, 6.0, allow_nan=False),
    )
    def test_z_rotations_compose(self, a, b):
        space = make_space(4)
        axis = (0.0, 0.0, 1.0)
        combined = rotation(space, axis, a) @ rotation(space, axis, b)
        np.testing.assert_allclose(
            combined, rotation(space, axis, a + b), atol=1e-10
        )

    @pytest.mark.parametrize("n", [3, 4, 9, 10])
    def test_full_turn_sign_tracks_spinor_parity(self, n):
        space = make_space(n)
        u = rotation(space, (1.0, 0.0, 0.0), 2 * math.pi)
        sign = -1.0 if n % 2 else 1.0
        np.testing.assert_allclose(u, sign * np.eye(n + 1), atol=1e-10)

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0), (0.6, 0.0, 0.8)])
    def test_unitarity(self, axis):
        space = make_space(7)
        u = rotation(space, axis, 1.234)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)

    def test_quarter_turn_maps_pole_to_equatorial_coherent_state(self):
        space = make_space(10)
        pole = dicke(space, 5)
        rotated = rotate_state(pole, (0.0, 1.0, 0.0), math.pi / 2)
        target = coherent(space, math.pi / 2, 0.0)
        overlap = abs(np.vdot(target.amplitudes, rotated.amplitudes))
        assert overlap > 1 - 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("beta", [0.0, 0.3, math.pi / 2, 2.9, math.pi])
    def test_signed_wigner_d_is_the_y_rotation(self, n, beta):
        space = make_space(n)
        u = rotation(space, (0.0, 1.0, 0.0), beta)
        np.testing.assert_allclose(u.imag, 0.0, atol=1e-13)
        np.testing.assert_allclose(_wigner_d(space, beta), u.real, rtol=0.0, atol=1e-13)

    def test_apply_unitary_matches_rotate_state(self):
        space = make_space(5)
        state = coherent(space, 0.7, 0.3)
        u = rotation(space, (0.0, 1.0, 0.0), 0.9)
        np.testing.assert_allclose(
            apply_unitary(state, u).amplitudes,
            rotate_state(state, (0.0, 1.0, 0.0), 0.9).amplitudes,
            atol=1e-13,
        )


class TestMoments:
    def test_coherent_state_transverse_isotropy(self):
        space = make_space(40)
        state = coherent(space, math.pi / 2, 0.0)
        assert expectation(state, jx(space)) == pytest.approx(20.0, rel=1e-12)
        assert variance(state, jy(space)) == pytest.approx(10.0, rel=1e-12)
        assert variance(state, jz(space)) == pytest.approx(10.0, rel=1e-12)

    def test_dicke_state_is_a_number_eigenstate(self):
        space = make_space(8)
        state = dicke(space, 0)
        assert expectation(state, jz(space)) == pytest.approx(0.0, abs=1e-14)
        assert variance(state, jz(space)) == pytest.approx(0.0, abs=1e-14)

    def test_twin_fock_transverse_casimir_share(self):
        space = make_space(12)
        state = twin_fock(space)
        x2 = state.amplitudes.conj() @ (jx(space).matrix @ jx(space).matrix) @ state.amplitudes
        y2 = state.amplitudes.conj() @ (jy(space).matrix @ jy(space).matrix) @ state.amplitudes
        assert (x2 + y2).real == pytest.approx(6 * 7, rel=1e-12)

    def test_moment_data_and_covariance_symmetry(self):
        space = make_space(6)
        state = coherent(space, 1.1, 0.4)
        data = moments(state, (jx(space), jy(space), jz(space)))
        assert data.means.shape == (3,)
        np.testing.assert_allclose(data.covariance, data.covariance.T, atol=1e-13)
        # diagonal entries are the plain variances
        assert data.covariance[2, 2] == pytest.approx(
            variance(state, jz(space)), rel=1e-12
        )

    @settings(max_examples=15, deadline=None)
    @given(
        angle=st.floats(-3.0, 3.0, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_covariance_equivariance_under_rotation(self, angle, seed):
        # rotating the state or counter-rotating the operators must give the
        # same moments
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        space = make_space(8)
        state = coherent(space, 0.9, -0.5)
        u = rotation(space, axis, angle)
        ops = (jx(space), jy(space), jz(space))
        rotated_state = apply_unitary(state, u)
        direct = moments(rotated_state, ops)
        conjugated = tuple(
            HermitianOperator(space, u.conj().T @ op.matrix @ u) for op in ops
        )
        pulled_back = moments(state, conjugated)
        np.testing.assert_allclose(direct.means, pulled_back.means, atol=1e-9)
        np.testing.assert_allclose(
            direct.covariance, pulled_back.covariance, atol=1e-9
        )

    def test_mixed_state_moments(self):
        space = make_space(4)
        rho = MixedState(space, np.eye(5) / 5.0)
        assert expectation(rho, jz(space)) == pytest.approx(0.0, abs=1e-14)
        # fully mixed: Var(J_z) = mean of m^2 = (4+1+0+1+4)/5
        assert variance(rho, jz(space)) == pytest.approx(2.0, rel=1e-13)


class TestBandedEqualsDense:
    """The banded moments and tridiagonal rotations against dense references."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1), mixed=st.booleans())
    def test_spin_moments_match_dense_moments(self, n, seed, mixed):
        rng = np.random.default_rng(seed)
        space = make_space(n)
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        if mixed:
            g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
            rho = g @ g.conj().T
            state = MixedState(space, rho / np.trace(rho).real)
        else:
            state = KetState(space, z / np.linalg.norm(z))
        # plain HermitianOperator wrappers keep the dense route
        dense = moments(state, [HermitianOperator(space, op(space).matrix) for op in (jx, jy, jz)])
        banded = _spin_moments(state)
        np.testing.assert_allclose(banded.means, dense.means, rtol=0, atol=1e-12 * n**2)
        np.testing.assert_allclose(banded.covariance, dense.covariance, rtol=0, atol=1e-12 * n**2)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        axis_index=st.integers(0, 6),
        seed=st.integers(0, 2**31 - 1),
        angle=st.one_of(st.just(0.0), st.floats(-7.0, 7.0, allow_nan=False)),
    )
    def test_rotations_match_the_matrix_exponential(self, n, axis_index, seed, angle):
        # the six signed coordinate axes have no transverse part, so the
        # gauge phase is undefined there; index 6 draws a random unit axis
        rng = np.random.default_rng(seed)
        if axis_index < 6:
            axis = np.zeros(3)
            axis[axis_index % 3] = 1.0 if axis_index < 3 else -1.0
        else:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
        space = make_space(n)
        exact = scipy.linalg.expm(-1j * angle * collective_operator(space, axis).matrix)
        np.testing.assert_allclose(rotation(space, axis, angle), exact, rtol=0, atol=1e-12)
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        state = KetState(space, z / np.linalg.norm(z))
        np.testing.assert_allclose(
            rotate_state(state, axis, angle).amplitudes, exact @ state.amplitudes, rtol=0, atol=1e-12
        )


def _random_state(space, rng, mixed):
    """A random ket, or a random mixed state of random rank."""
    if not mixed:
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        return KetState(space, z / np.linalg.norm(z))
    shape = (space.dim, int(rng.integers(1, space.dim + 1)))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return MixedState(space, rho / np.trace(rho).real)


class TestCollectiveReadersMatchDense:
    """The band route of the J_n readers against the same operators wrapped as plain
    HermitianOperator, which keeps them on the dense route."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 12), st.just(301)),
        seed=st.integers(0, 2**31 - 1),
        mixed=st.booleans(),
    )
    @example(n=301, seed=0, mixed=False)
    @example(n=301, seed=1, mixed=True)
    def test_band_and_dense_readers_agree(self, n, seed, mixed):
        rng = np.random.default_rng(seed)
        space = make_space(n)
        state = _random_state(space, rng, mixed)
        axes = rng.normal(size=(3, 3))
        band = [collective_operator(space, a / np.linalg.norm(a)) for a in axes]
        dense = [HermitianOperator(space, op.matrix) for op in band]
        # natural scales: N/2 for means, N^2/4 for second moments, N^2 for the QFI
        mean_tol, var_tol = 1e-12 * n / 2.0, 1e-12 * n * n / 4.0
        for b, d in zip(band, dense):
            assert abs(expectation(state, b) - expectation(state, d)) <= mean_tol
            assert abs(variance(state, b) - variance(state, d)) <= var_tol
            assert abs(qfi(state, b) - qfi(state, d)) <= 1e-12 * n * n
        got, want = moments(state, band), moments(state, dense)
        np.testing.assert_allclose(got.means, want.means, rtol=0, atol=mean_tol)
        np.testing.assert_allclose(got.covariance, want.covariance, rtol=0, atol=var_tol)
        assert np.array_equal(got.covariance, got.covariance.T)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_custom_operator_keeps_the_list_on_the_dense_route(self, mixed):
        space = make_space(7)
        state = _random_state(space, np.random.default_rng(5), mixed)
        g = np.random.default_rng(6).normal(size=(space.dim, space.dim))
        custom = HermitianOperator(space, g + g.T)
        got = moments(state, [jz(space), custom])
        want = moments(state, [HermitianOperator(space, jz(space).matrix), custom])
        assert np.array_equal(got.means, want.means)
        assert np.array_equal(got.covariance, want.covariance)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_an_empty_operator_list_has_empty_moments(self, mixed):
        space = make_space(4)
        md = moments(_random_state(space, np.random.default_rng(2), mixed), [])
        assert md.means.shape == (0,) and md.covariance.shape == (0, 0)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_state_runs_the_band_pass_once(self, mixed, moment_passes):
        space = make_space(9)
        state = _random_state(space, np.random.default_rng(3), mixed)
        ops = [jx(space), collective_operator(space, (0.48, 0.6, 0.64))]
        first = moments(state, ops)
        assert expectation(state, ops[0]) == first.means[0] and variance(state, ops[1]) >= 0.0
        assert moment_passes == [state]
        assert not state._moments.means.flags.writeable
        assert not state._moments.covariance.flags.writeable

    def test_matrix_is_built_once_and_read_only(self):
        op = collective_operator(make_space(5), (0.48, 0.6, 0.64))
        assert isinstance(op, HermitianOperator)
        first = op.matrix
        assert op.matrix is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0


def _axis_to_z(v):
    """Rotation axis and angle that carry the unit vector v (or -v) onto z."""
    v = v if v[2] >= 0.0 else -v
    cross = np.cross(v, [0.0, 0.0, 1.0])
    s = float(np.linalg.norm(cross))
    if s < 1e-12:
        return (1.0, 0.0, 0.0), 0.0
    return cross / s, math.atan2(s, float(v[2]))


def _random_ket(space, seed):
    z = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, space.dim))
    return KetState(space, z / np.linalg.norm(z))


@pytest.fixture
def cold_delta():
    spinspace._delta.cache_clear()
    yield
    spinspace._delta.cache_clear()


class TestDeltaRoute:
    """Rotations through Euler angles and the cached Delta = d^j(pi/2)."""

    # B = 0 on the z axes, B = pi for half turns about x and y, the identity,
    # whole turns, and axes off unit length by 5e-10, which must be normalized
    EDGES = [
        ((0.0, 0.0, 1.0), 0.7),
        ((0.0, 0.0, -1.0), -2.5),
        ((1.0, 0.0, 0.0), math.pi),
        ((0.0, 1.0, 0.0), math.pi),
        ((0.0, -1.0, 0.0), math.pi),
        ((0.6, 0.0, 0.8), 0.0),
        ((1.0, 0.0, 0.0), 2.0 * math.pi),
        ((0.48, 0.6, 0.64), 2.0 * math.pi),
        ((0.48, 0.6, 0.64), 4.0 * math.pi + 0.1),
        ((1.0 + 5e-10, 0.0, 0.0), 1.3),
        ((0.0, 0.6 * (1.0 + 5e-10), 0.8 * (1.0 + 5e-10)), -0.4),
    ]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("axis, angle", EDGES)
    def test_euler_edges_match_the_matrix_exponential(self, n, axis, angle):
        space = make_space(n)
        unit = np.asarray(axis) / np.linalg.norm(axis)
        exact = scipy.linalg.expm(-1j * angle * collective_operator(space, unit).matrix)
        np.testing.assert_allclose(rotation(space, axis, angle), exact, rtol=0, atol=1e-12)
        state = _random_ket(space, n)
        np.testing.assert_allclose(
            rotate_state(state, axis, angle).amplitudes, exact @ state.amplitudes, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("beta", [0.0, 0.3, math.pi / 2, 2.9, math.pi])
    def test_large_n_y_rotation_is_the_signed_wigner_matrix(self, beta):
        space = make_space(2000)
        state = _random_ket(space, 2000)
        np.testing.assert_allclose(
            rotate_state(state, (0.0, 1.0, 0.0), beta).amplitudes,
            _wigner_d(space, beta) @ state.amplitudes,
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [400, 4000])
    def test_squeezed_quadrature_rotated_onto_z_has_the_minimal_variance(self, n, cold_delta):
        state = oat_evolve(coherent(make_space(n), math.pi / 2, 0.0), 0.8 * n ** (-2.0 / 3.0))
        report = squeezing(state)
        axis, angle = _axis_to_z(report.squeezing_axis)
        var_z = _spin_moments(rotate_state(state, axis, angle)).covariance[2, 2]
        assert var_z == pytest.approx(n * report.xi_n2 / 4.0, rel=1e-8)

    def test_delta_is_solved_once_per_n_read_only_and_bounded(self, monkeypatch, cold_delta):
        solves = []
        solve = spinspace._wigner_d

        def counted(space, beta):
            solves.append((space.n_particles, beta))
            return solve(space, beta)

        monkeypatch.setattr(spinspace, "_wigner_d", counted)
        state = coherent(make_space(30), 0.7, 0.2)
        for k in range(10):
            state = rotate_state(state, (0.48, 0.6, 0.64), 0.1 * k + 0.05)
        assert solves == [(30, 0.5 * math.pi)]
        for n in (5, 6, 7):
            rotation(make_space(n), (1.0, 0.0, 0.0), 0.3)
        assert spinspace._delta.cache_info().currsize <= 2
        for half in spinspace._delta(7):
            assert not half.flags.writeable
            with pytest.raises(ValueError):
                half[0, 0] = 1.0


def _dense_rotation(space, axis, angle):
    """exp(-i angle J_n) by the dense route: Risbo's two products with the eigensolved Delta."""
    big_a, big_b, big_g = spinspace._euler(spinspace._su2(axis, angle))
    m, delta = space.m_labels[:, None], _wigner_d(space, 0.5 * math.pi)
    y = delta @ (np.exp(1j * (0.5 * math.pi - big_g) * m) * np.eye(space.dim))
    y = delta.T @ (np.exp(1j * big_b * m) * y)
    return np.exp(-1j * (big_a + 0.5 * math.pi) * m) * y


class TestDeltaHalves:
    """Delta = d^j(pi/2) held as its parity halves E = Delta[0::2, m >= 0] and O = Delta[1::2, m > 0]."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 401, 1000])
    def test_eigensolved_delta_obeys_both_parity_identities(self, n):
        delta = _wigner_d(make_space(n), 0.5 * math.pi)
        s = (-1.0) ** np.arange(n + 1)
        # d_{m'm} = (-1)^{j+m'} d_{m',-m}, with row r = j + m'
        assert np.max(np.abs(delta - s[:, None] * delta[:, ::-1])) <= 1e-13
        # Delta^T = S Delta S
        assert np.max(np.abs(delta.T - s[:, None] * delta * s[None, :])) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 401])
    def test_halves_are_sliced_from_the_solve_and_assemble_by_parity(self, n, cold_delta):
        space = make_space(n)
        delta, m = _wigner_d(space, 0.5 * math.pi), space.m_labels
        even, odd = spinspace._delta(n)
        assert np.array_equal(even, delta[0::2][:, m >= 0])
        assert np.array_equal(odd[:, ::-1], delta[1::2][:, m > 0])
        full = spinspace._d_matrix(space, 0.5 * math.pi)
        assert np.array_equal(full[0::2][:, m >= 0], even)
        assert np.array_equal(full[1::2][:, m > 0], odd[:, ::-1])
        s = (-1.0) ** np.arange(n + 1)
        assert np.array_equal(full, s[:, None] * full[:, ::-1])
        assert np.max(np.abs(full - delta)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 401])
    @pytest.mark.parametrize("shape", ["vector", "block", "f-ordered block"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_products_equal_dense_products(self, n, shape, dtype):
        space = make_space(n)
        dense = spinspace._d_matrix(space, 0.5 * math.pi)
        s = (-1.0) ** np.arange(n + 1)
        rng = np.random.default_rng(n)
        size = (n + 1,) if shape == "vector" else (n + 1, 5)
        x = rng.normal(size=size) + (1j * rng.normal(size=size) if dtype is complex else 0.0)
        x = np.asfortranarray(x) if shape == "f-ordered block" else x
        # a few eps of the column norm, the scale of a dense product's own rounding
        tol = 4.0 * np.finfo(float).eps * np.max(np.linalg.norm(x, axis=0))
        got = spinspace._delta_times(x.copy())
        assert got.dtype == x.dtype and got.shape == x.shape
        assert np.max(np.abs(got - dense @ x)) <= tol
        # Delta^T as S Delta S, the identity the eigensolve obeys to 1e-13
        got = spinspace._delta_times(x.copy(), transpose=True)
        assert np.max(np.abs(got - (s[:, None] * dense * s[None, :]) @ x)) <= tol

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 41, 400])
    def test_rotations_agree_with_the_dense_route(self, n):
        space = make_space(n)
        state = _random_ket(space, n)
        for axis, angle in [((0.48, 0.6, 0.64), 0.3), ((0.0, 1.0, 0.0), 1.1), ((1.0, 0.0, 0.0), math.pi)]:
            dense = _dense_rotation(space, axis, angle)
            np.testing.assert_allclose(rotation(space, axis, angle), dense, rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                rotate_state(state, axis, angle).amplitudes, dense @ state.amplitudes, rtol=0, atol=1e-13
            )

    def test_cached_delta_at_n_4000_holds_half_the_dense_bytes(self):
        n = 4000
        halves = spinspace._delta(n)
        assert all(half.base is None for half in halves)  # copies, not views of the dense solve
        held = sum(half.nbytes for half in halves)
        assert held == 8 * ((n // 2 + 1) ** 2 + ((n + 1) // 2) ** 2)
        assert 0.49 < held / (8 * (n + 1) ** 2) < 0.51


class TestEffectiveAtomNumber:
    def test_uniform_coupling_recovers_the_atom_count(self):
        assert n_effective(np.ones(50)) == pytest.approx(50.0, rel=1e-14)

    def test_general_couplings(self):
        c = np.array([1.0, 2.0, 3.0])
        assert n_effective(c) == pytest.approx(c.sum() ** 2 / (c**2).sum(), rel=1e-14)


def _junction_bands():
    for n in (1, 2, 7, 400):
        for lam, tilt in ((1.0, 0.0), (-5.0, 0.0), (2.0, 0.3), (-1.5, -0.7)):
            yield f"bjj-{n}-{lam}-{tilt}", bjj_hamiltonian_bands(make_space(n), lam, tilt)


def _pair_bands():
    for n in (2, 40, 2000, 4000):
        for q, lam in ((-3.0, -1.0), (0.5, 1.0), (2.0 * n - 1.0, -1.0)):
            yield f"pair-{n}-{q}-{lam}", pair_hamiltonian_bands(n, q, lam)


def _wigner_bands():
    for n in (1, 2, 7, 40, 401):
        space = make_space(n)
        for beta in (0.0, 0.3, 0.5 * math.pi, 2.9, math.pi):
            d, e = math.cos(beta) * space.m_labels, 0.5 * math.sin(beta) * spinspace._ladder_coeffs(space)
            yield f"wigner-{n}-{beta:.3f}", (d, e)


def _strip_bands(n=7):
    # the Jacobi matrices of tomography._strip_table; q = N is the 1x1 case
    for q in range(n + 1):
        k = np.arange(q + 1, n + 1, dtype=float)
        alpha = np.sqrt((k * k - q * q) * ((n + 1.0) ** 2 - k * k) / ((2 * k - 1) * (2 * k + 1)))
        yield f"strip-{n}-{q}", (np.zeros(n + 1 - q), alpha)


SOLVED_BANDS = dict([*_junction_bands(), *_pair_bands(), *_wigner_bands(), *_strip_bands()])


@pytest.fixture
def fresh_flapack():
    """Clear the once-per-process LAPACK module handle before and after the test."""
    spinspace._flapack.cache_clear()
    yield
    spinspace._flapack.cache_clear()


class TestTridiagonalSolver:
    """spinspace.eigh_tridiagonal against scipy.linalg with the LAPACK driver named, so a
    change to scipy's "auto" choice cannot hide a difference."""

    @staticmethod
    def assert_bitwise(got, ref):
        for a, b in zip(got, ref, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", SOLVED_BANDS)
    def test_whole_spectrum_is_scipy_stevd_bitwise(self, name):
        d, e = SOLVED_BANDS[name]
        ref = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stevd")
        self.assert_bitwise(spinspace.eigh_tridiagonal(d, e), ref)

    @pytest.mark.parametrize("name", [k for k in SOLVED_BANDS if k.startswith(("bjj", "pair"))])
    @pytest.mark.parametrize("select_range", [(0, 0), (0, 1)])
    def test_index_range_is_scipy_stebz_bitwise(self, name, select_range):
        d, e = SOLVED_BANDS[name]
        kw = dict(select="i", select_range=select_range)
        ref = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stebz", **kw)
        self.assert_bitwise(spinspace.eigh_tridiagonal(d, e, **kw), ref)

    def test_a_one_by_one_band_is_its_own_eigenpair(self):
        w, v = spinspace.eigh_tridiagonal(np.array([2.5]), np.empty(0))
        assert w.tolist() == [2.5] and v.tolist() == [[1.0]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["d", "e"])
    @pytest.mark.parametrize("select", ["a", "i"])
    def test_a_non_finite_band_is_rejected(self, bad, where, select):
        d, e = np.linspace(-1.0, 1.0, 6), np.full(5, 0.5)
        (d if where == "d" else e)[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            spinspace.eigh_tridiagonal(d, e, select=select, select_range=(0, 0))

    def test_the_module_loads_once_per_process(self):
        assert spinspace._flapack() is spinspace._flapack()
        assert spinspace._flapack().__name__ == "scipy.linalg._flapack"

    def test_the_extension_file_loads_without_the_package(self, monkeypatch, fresh_flapack):
        name = "scipy.linalg._flapack"
        loaded = sys.modules[name]
        monkeypatch.delitem(sys.modules, name)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # importing the package now fails
        module = spinspace._flapack()
        assert module.__spec__.origin == loaded.__file__
        d, e = SOLVED_BANDS["wigner-40-0.300"]
        self.assert_bitwise(spinspace.eigh_tridiagonal(d, e), loaded.dstevd(d, e, compute_v=1)[:2])

    def test_a_hidden_extension_file_falls_back_to_the_package_import(self, monkeypatch, fresh_flapack):
        name = "scipy.linalg._flapack"
        monkeypatch.setattr(scipy.linalg, "_flapack", sys.modules[name])
        monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])

        def no_file_load(spec):
            raise AssertionError("the extension file should not be found")

        monkeypatch.setattr(importlib.util, "module_from_spec", no_file_load)
        assert spinspace._flapack() is sys.modules[name]
        for key in ("pair-2000-0.5-1.0", "bjj-400--1.5--0.7", "strip-7-3"):
            d, e = SOLVED_BANDS[key]
            self.assert_bitwise(spinspace.eigh_tridiagonal(d, e), scipy.linalg.eigh_tridiagonal(d, e))
            kw = dict(select="i", select_range=(0, 1))
            self.assert_bitwise(
                spinspace.eigh_tridiagonal(d, e, **kw), scipy.linalg.eigh_tridiagonal(d, e, **kw)
            )


def test_log_factorial_is_lgamma_bitwise():
    x = np.arange(0.0, 4001.5, 0.5)  # integers and half-integers 0 ... 4001
    got = spinspace._logfact(x)
    assert got.shape == x.shape
    np.testing.assert_array_equal(got, [math.lgamma(v + 1) for v in x.tolist()])
    assert spinspace._logfact(x[:-1].reshape(2, -1)).shape == (2, x.size // 2)
    assert spinspace._logfact(7).shape == () and spinspace._logfact(7) == math.lgamma(8)
