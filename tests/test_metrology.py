"""Fisher information, squeezing parameters, witnesses, noise channels."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import spinlab.metrology as metrology
from spinlab.dynamics import oat_evolve
from spinlab.estimation import bures, quantum_fidelity
from spinlab.metrology import (
    _gamma_matrix,
    collective_dephasing,
    entanglement_depth_bound,
    epr_criteria,
    optimal_generator_direction,
    pair_qfi_sx,
    pair_quadrature_variances,
    perpendicular_qfi,
    qfi,
    sensitivity_floors,
    squeezing,
    witnesses,
)
from spinlab.reference import ProtocolFormulas, oat_closed_forms, state_benchmarks
from spinlab.spinspace import (
    KetState,
    MixedState,
    _raise,
    _spin_moments,
    _unit_axis,
    collective_operator,
    jx,
    jy,
    jz,
    make_space,
    rotate_state,
    variance,
)
from spinlab.states import (
    PairBasisState,
    ThreeModeState,
    coherent,
    dicke,
    noon,
    spin_mixing_ground_state,
    twin_fock,
    two_mode_squeezed_vacuum,
    w_state,
)


def random_ket(space, rng):
    z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return KetState(space, z / np.linalg.norm(z))


class TestQfi:
    @pytest.mark.parametrize("n", [4, 20, 100])
    def test_benchmark_states(self, n):
        space = make_space(n)
        bench = state_benchmarks(n)
        assert qfi(coherent(space, math.pi / 2), jy(space)) == pytest.approx(n, rel=1e-10)
        assert qfi(noon(space), jz(space)) == pytest.approx(bench.noon_qfi, rel=1e-10)
        assert qfi(twin_fock(make_space(n)), jx(space)) == pytest.approx(
            n**2 / 2 + n, rel=1e-10
        )
        assert qfi(w_state(space), jx(space)) == pytest.approx(bench.w_qfi, rel=1e-10)

    @pytest.mark.parametrize("m", [-8, 0, 5])
    def test_dicke_states(self, m):
        n = 20
        space = make_space(n)
        expected = state_benchmarks(n).dicke_qfi(m)
        assert qfi(dicke(space, m), jx(space)) == pytest.approx(expected, rel=1e-10)

    def test_pure_state_equals_four_variances(self):
        rng = np.random.default_rng(11)
        space = make_space(9)
        for _ in range(5):
            state = random_ket(space, rng)
            v = rng.normal(size=3)
            g = collective_operator(space, v / np.linalg.norm(v))
            assert qfi(state, g) == pytest.approx(4 * variance(state, g), rel=1e-9)

    def test_mixed_branch_reduces_to_pure_on_rank_one(self):
        rng = np.random.default_rng(5)
        space = make_space(7)
        state = random_ket(space, rng)
        rho = MixedState(space, state.density_matrix().matrix)
        g = jy(space)
        assert qfi(rho, g) == pytest.approx(qfi(state, g), rel=1e-8)

    def test_maximally_mixed_state_carries_none(self):
        space = make_space(6)
        rho = MixedState(space, np.eye(7) / 7.0)
        assert qfi(rho, jz(space)) == pytest.approx(0.0, abs=1e-12)

    def test_dephased_cat_closed_form(self):
        # the 2x2 coherence block gives F = N^2 exp(-sigma^2 N^2)
        n, sigma = 10, 0.05
        space = make_space(n)
        rho = collective_dephasing(noon(space), sigma)
        expected = n**2 * math.exp(-(sigma**2) * n**2)
        assert qfi(rho, jz(space)) == pytest.approx(expected, rel=1e-8)

    def test_mixing_never_helps(self):
        rng = np.random.default_rng(23)
        space = make_space(8)
        g = jz(space)
        for _ in range(6):
            s1, s2 = random_ket(space, rng), random_ket(space, rng)
            lam = rng.uniform(0.1, 0.9)
            mix = MixedState(
                space,
                lam * s1.density_matrix().matrix + (1 - lam) * s2.density_matrix().matrix,
            )
            bound = lam * qfi(s1, g) + (1 - lam) * qfi(s2, g)
            assert qfi(mix, g) <= bound + 1e-9

    def test_additive_on_product_states(self):
        rng = np.random.default_rng(71)
        sa, sb = make_space(5), make_space(7)
        psi_a, psi_b = random_ket(sa, rng), random_ket(sb, rng)
        ga = jz(sa).matrix
        gb = jz(sb).matrix
        big = make_space(sa.dim * sb.dim - 1)
        joint = KetState(big, np.kron(psi_a.amplitudes, psi_b.amplitudes))
        g_joint = np.kron(ga, np.eye(sb.dim)) + np.kron(np.eye(sa.dim), gb)
        from spinlab.spinspace import HermitianOperator

        total = qfi(joint, HermitianOperator(big, g_joint))
        parts = qfi(psi_a, jz(sa)) + qfi(psi_b, jz(sb))
        assert total == pytest.approx(parts, rel=1e-9)

    def test_mixed_bounded_by_four_variances(self):
        rng = np.random.default_rng(42)
        space = make_space(6)
        g = jx(space)
        for _ in range(5):
            s1, s2 = random_ket(space, rng), random_ket(space, rng)
            rho = MixedState(
                space, 0.5 * s1.density_matrix().matrix + 0.5 * s2.density_matrix().matrix
            )
            m = rho.matrix
            var = np.trace(m @ g.matrix @ g.matrix).real - np.trace(m @ g.matrix).real ** 2
            assert qfi(rho, g) <= 4 * var + 1e-9


class TestGeneratorOptimization:
    def test_coherent_state_prefers_a_perpendicular_axis(self):
        space = make_space(30)
        axis, value = optimal_generator_direction(coherent(space, math.pi / 2))
        assert value == pytest.approx(30.0, rel=1e-9)
        assert abs(axis @ np.array([1.0, 0.0, 0.0])) < 1e-6

    def test_cat_state_prefers_the_pole_axis(self):
        space = make_space(14)
        axis, value = optimal_generator_direction(noon(space))
        assert value == pytest.approx(14.0**2, rel=1e-10)
        assert abs(abs(axis[2]) - 1.0) < 1e-8

    def test_single_excitation_state_value(self):
        space = make_space(12)
        _, value = optimal_generator_direction(w_state(space))
        assert value == pytest.approx(3 * 12 - 2, rel=1e-10)

    def test_perpendicular_qfi_of_coherent_state(self):
        space = make_space(24)
        assert perpendicular_qfi(coherent(space, math.pi / 2)) == pytest.approx(
            24.0, rel=1e-10
        )

    def test_perpendicular_qfi_needs_an_axis_when_the_mean_vanishes(self):
        state = twin_fock(make_space(10))
        with pytest.raises(ValueError):
            perpendicular_qfi(state)
        value = perpendicular_qfi(state, mean_axis=(0.0, 0.0, 1.0))
        assert value == pytest.approx(10**2 / 2 + 10, rel=1e-10)

    def test_beats_every_sampled_direction(self):
        rng = np.random.default_rng(9)
        space = make_space(8)
        state = random_ket(space, rng)
        _, value = optimal_generator_direction(state)
        for _ in range(25):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert qfi(state, collective_operator(space, v)) <= value + 1e-9


class TestSqueezing:
    def test_coherent_state_sits_at_unity(self):
        space = make_space(40)
        report = squeezing(coherent(space, math.pi / 2))
        assert report.xi_r2 == pytest.approx(1.0, rel=1e-12)
        assert report.xi_s2 == pytest.approx(1.0, rel=1e-12)
        assert report.contrast == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(report.mean_spin_axis, [1.0, 0.0, 0.0], atol=1e-9)
        assert abs(report.squeezing_axis @ report.mean_spin_axis) < 1e-9

    def test_two_atom_superposition_dual_route(self):
        alpha = 0.2
        space = make_space(2)
        plus = coherent(space, math.pi / 2, 0.0).amplitudes
        minus = coherent(space, math.pi / 2, math.pi).amplitudes
        state = KetState(space, math.cos(alpha) * plus + math.sin(alpha) * minus)
        report = squeezing(state)
        closed = ProtocolFormulas.two_atom_xi_r2(alpha)
        assert report.xi_r2 == pytest.approx(closed, rel=1e-10)
        assert report.xi_r2 == pytest.approx(0.719725, abs=1e-4)

    def test_twisting_improves_then_reports_consistent_numbers(self):
        space = make_space(60)
        report = squeezing(oat_evolve(coherent(space, math.pi / 2), 0.03))
        assert report.xi_r2 < 1.0
        assert report.xi_r2 == pytest.approx(
            report.xi_s2 / report.contrast**2, rel=1e-12
        )

    def test_number_squeezing_along_a_custom_axis(self):
        space = make_space(16)
        state = coherent(space, math.pi / 2)
        report = squeezing(state, number_axis=(0.0, 0.0, 1.0))
        assert report.xi_n2_custom == pytest.approx(1.0, rel=1e-12)

    def test_dicke_squeezing_vanishes_on_twin_fock(self):
        report = squeezing(twin_fock(make_space(12)))
        assert report.xi_r2 is None
        assert report.xi_d2 == pytest.approx(0.0, abs=1e-12)

    def test_mean_axis_override_matches_automatic(self):
        space = make_space(10)
        state = coherent(space, 1.1, 0.3)
        auto = squeezing(state)
        forced = squeezing(state, mean_axis=auto.mean_spin_axis)
        assert forced.xi_r2 == pytest.approx(auto.xi_r2, rel=1e-12)


class TestTwistingAtLargeN:
    def test_closed_forms_at_4000_atoms_without_dense_operators(self):
        n = 4000
        css = coherent(make_space(n), math.pi / 2)
        # one dense (N+1)^2 complex operator would take 256 MB
        budget = 16 * 2**20
        for scale in (0.1, 0.5, 1.0, 2.0):
            chi_t = scale * n ** (-2.0 / 3.0)
            state = oat_evolve(css, chi_t)
            closed = oat_closed_forms(n, chi_t)
            tracemalloc.start()
            try:
                report = squeezing(state)
                f_perp = perpendicular_qfi(state, mean_axis=(1.0, 0.0, 0.0))
                optimal_generator_direction(state)
                n1, n2 = report.squeezing_axis, report.mean_spin_axis
                witnesses(state, n1, n2, np.cross(n1, n2))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.xi_r2 == pytest.approx(closed.xi_r2, rel=1e-8)
            assert f_perp == pytest.approx(n * closed.fq_over_n, rel=1e-8)
            assert peak < budget


class TestWitnesses:
    X, Y, Z = np.eye(3)

    def test_coherent_state_saturates_all_boundaries(self):
        n = 100
        state = coherent(make_space(n), math.pi / 2)
        rep = witnesses(state, self.Z, self.X, self.Y)
        floor = -1e-9 * n**2
        assert rep.residual_a >= floor and abs(rep.residual_a) < 1e-7
        assert rep.residual_b >= floor and abs(rep.residual_b) < 1e-7
        assert rep.residual_c >= floor and abs(rep.residual_c) < 1e-7
        assert rep.residual_d >= floor and abs(rep.residual_d) < 1e-7
        assert abs(rep.bell_w) <= 1e-12
        assert not rep.bell_correlated
        assert rep.bell_perp_value >= -1e-12
        assert rep.bell_tanh_value >= -1e-12
        assert not rep.pairwise_entangled

    def test_twisted_state_fires_the_variance_and_bell_criteria(self):
        n = 100
        state = oat_evolve(coherent(make_space(n), math.pi / 2), 0.01 * math.pi)
        report = squeezing(state)
        n1 = report.squeezing_axis
        n2 = report.mean_spin_axis
        n3 = np.cross(n1, n2)
        rep = witnesses(state, n1, n2, n3)
        assert rep.violated_a
        assert rep.bell_w < 0.0 and rep.bell_correlated

    def test_separable_mixture_passes_everything(self):
        n = 20
        space = make_space(n)
        rho = MixedState(
            space,
            0.3 * coherent(space, 0.9, 0.4).density_matrix().matrix
            + 0.7 * coherent(space, 1.3, -0.2).density_matrix().matrix,
        )
        rep_sq = squeezing(rho)
        n2 = rep_sq.mean_spin_axis
        n1 = rep_sq.squeezing_axis
        n3 = np.cross(n1, n2)
        rep = witnesses(rho, n1, n2, n3)
        floor = -1e-9 * n**2
        assert rep.residual_a >= floor
        assert rep.residual_b >= floor
        assert rep.residual_c >= floor
        assert rep.residual_d >= floor
        assert rep.bell_w >= -1e-9
        assert not rep.pairwise_entangled

    def test_twin_fock_is_pairwise_entangled(self):
        rep = witnesses(twin_fock(make_space(12)), self.Z, self.X, self.Y)
        assert rep.pairwise_value > 0.0 and rep.pairwise_entangled

    def test_rejects_non_orthogonal_axes(self):
        state = coherent(make_space(4), 0.5)
        with pytest.raises(ValueError):
            witnesses(state, self.Z, self.Z, self.Y)


class TestAxisRule:
    """Every axis argument is checked by spinspace's one rule: finite, |n| = 1 within 1e-9."""

    X, Y, Z = np.eye(3)
    STATE = oat_evolve(coherent(make_space(20), math.pi / 2), 0.05)

    @pytest.mark.parametrize("name", ["mean_axis", "number_axis", "dicke_axis"])
    @pytest.mark.parametrize("scale", [0.5, 2.0, 1.0 + 1e-6])
    def test_squeezing_rejects_non_unit_axes(self, name, scale):
        with pytest.raises(ValueError, match="unit vector"):
            squeezing(self.STATE, **{name: scale * self.Z})

    def test_perpendicular_qfi_rejects_a_non_unit_mean_axis(self):
        with pytest.raises(ValueError, match="unit vector"):
            perpendicular_qfi(self.STATE, mean_axis=2.0 * self.X)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_witnesses_reject_non_unit_axes(self, slot):
        axes = [self.Z, self.X, self.Y]
        axes[slot] = 3.0 * axes[slot]
        with pytest.raises(ValueError, match="unit vector"):
            witnesses(self.STATE, *axes)

    def test_axes_within_the_tolerance_are_accepted(self):
        near = (1.0 + 1e-12) * self.Z
        assert squeezing(self.STATE, number_axis=near, dicke_axis=near).xi_n2_custom is not None
        witnesses(self.STATE, near, self.X, self.Y)


def _old_sign(vec):
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    return vec


def _old_plane(axis):
    seed = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(axis, seed)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1)


def _old_squeezing(state, mean_axis=None, number_axis=None, dicke_axis=None):
    n = state.space.n_particles
    md = _spin_moments(state)
    mean, cov = md.means, md.covariance
    length = float(np.linalg.norm(mean))
    if mean_axis is not None:
        s_axis = _unit_axis(mean_axis)
    elif length > 1e-10 * n:
        s_axis = mean / length
    else:
        s_axis = None
    xi_r2 = xi_s2 = None
    if s_axis is None:
        vals, vecs = np.linalg.eigh(cov)
        var_min, sq_axis, contrast = float(vals[0]), vecs[:, 0], 0.0
    else:
        e1, e2 = _old_plane(s_axis)
        p = np.vstack([e1, e2])
        block = p @ cov @ p.T
        vals, vecs = np.linalg.eigh(0.5 * (block + block.T))
        var_min = float(vals[0])
        sq_axis = vecs[0, 0] * e1 + vecs[1, 0] * e2
        js = float(mean @ s_axis)
        contrast = 2.0 * abs(js) / n
        if abs(js) > 1e-10 * n:
            xi_s2 = 4.0 * var_min / n
            xi_r2 = n * var_min / js**2
    xi_n2_custom = None
    if number_axis is not None:
        a = _unit_axis(number_axis)
        xi_n2_custom = 4.0 * float(a @ cov @ a) / n
    d = np.array([0.0, 0.0, 1.0]) if dicke_axis is None else _unit_axis(dicke_axis)
    j = state.space.total_spin
    denom = j * (j + 1.0) - n / 2.0 - float(mean @ d) ** 2
    return {
        "mean_spin_axis": s_axis,
        "squeezing_axis": _old_sign(sq_axis),
        "contrast": contrast,
        "xi_r2": xi_r2,
        "xi_s2": xi_s2,
        "xi_n2": 4.0 * var_min / n,
        "xi_n2_custom": xi_n2_custom,
        "xi_d2": n * float(d @ cov @ d) / denom if denom > 1e-10 * n else None,
    }


def _old_perpendicular_qfi(state, mean_axis=None):
    if mean_axis is None:
        vec = _spin_moments(state).means
        axis = vec / float(np.linalg.norm(vec))
    else:
        axis = _unit_axis(mean_axis)
    basis = np.stack(_old_plane(axis))
    block = basis @ _gamma_matrix(state) @ basis.T
    return float(np.linalg.eigvalsh(0.5 * (block + block.T))[-1])


def _same(got, expected):
    if expected is None or isinstance(expected, float):
        return got == expected and type(got) is type(expected)
    return got.dtype == expected.dtype and np.array_equal(got, expected)


class TestReportFramesArePinned:
    """Sign rule, mean-axis rule and transverse-plane eigenproblem against the
    direct formulas, written out here, bit for bit."""

    # |n_z| on both sides of the 0.9 seed switch of the plane basis
    AXES = [
        None,
        (1.0, 0.0, 0.0),
        tuple(np.array([0.3, 0.2, 0.85]) / np.linalg.norm([0.3, 0.2, 0.85])),
        tuple(np.array([0.1, -0.2, 0.95]) / np.linalg.norm([0.1, -0.2, 0.95])),
        (0.0, 0.0, -1.0),
    ]

    @staticmethod
    def states(n):
        space = make_space(n)
        rng = np.random.default_rng(200 + n)
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        twisted = oat_evolve(coherent(space, math.pi / 2, 0.3), 0.1)
        kets = [
            coherent(space, 1.1, 0.4),
            coherent(space, 0.0),
            twisted,
            KetState(space, z / np.linalg.norm(z)),
            *([twin_fock(space)] if n % 2 == 0 else []),
        ]
        return [*kets, collective_dephasing(twisted, 0.2), collective_dephasing(kets[3], 0.5, 0.3)]

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 301])
    def test_squeezing_report_fields(self, n):
        general = self.AXES[2]
        for state in self.states(n):
            calls = [{"mean_axis": a} for a in self.AXES]
            calls += [{"number_axis": general, "dicke_axis": self.AXES[3]}]
            calls += [{"mean_axis": self.AXES[3], "number_axis": self.AXES[1], "dicke_axis": general}]
            for kw in calls:
                got, expected = squeezing(state, **kw), _old_squeezing(state, **kw)
                for field, value in expected.items():
                    assert _same(getattr(got, field), value), (field, kw)

    @pytest.mark.parametrize("n", [2, 40, 300])
    def test_zero_mean_twin_fock(self, n):
        state = twin_fock(make_space(n))
        got = squeezing(state)
        assert got.mean_spin_axis is None and got.contrast == 0.0 and got.xi_r2 is None
        for field, value in _old_squeezing(state).items():
            assert _same(getattr(got, field), value), field
        with pytest.raises(ValueError, match="mean spin vanishes"):
            perpendicular_qfi(state)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 301])
    def test_perpendicular_qfi_and_optimal_direction(self, n):
        for state in self.states(n):
            for axis in self.AXES:
                if axis is None and np.linalg.norm(_spin_moments(state).means) <= 1e-10 * n:
                    continue
                assert perpendicular_qfi(state, mean_axis=axis) == _old_perpendicular_qfi(state, axis)
            vals, vecs = np.linalg.eigh(_gamma_matrix(state))
            axis, value = optimal_generator_direction(state)
            assert _same(axis, _old_sign(vecs[:, -1])) and value == float(vals[-1])

    def test_cross_is_np_cross_bit_for_bit(self):
        rng = np.random.default_rng(17)
        signed = [(0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (1.0, -0.0, 0.0), (-1.0, 0.0, -0.0)]
        vectors = signed + [(0.0, -1.0, 0.0)] + [tuple(v) for v in rng.normal(size=(20, 3))]
        for a in vectors:
            for b in vectors:
                assert metrology._cross(a, b).tobytes() == np.cross(a, b).tobytes(), (a, b)

    def test_perpendicular_qfi_skips_the_moments_when_given_the_axis(self, moment_passes):
        mixed = collective_dephasing(oat_evolve(coherent(make_space(20), math.pi / 2), 0.1), 0.2)
        perpendicular_qfi(mixed, mean_axis=(1.0, 0.0, 0.0))
        assert moment_passes == []
        perpendicular_qfi(mixed)
        assert len(moment_passes) == 1

    @pytest.mark.parametrize("n", [1, 7, 40, 800])
    def test_perpendicular_qfi_on_a_ket_runs_the_moments_once(self, n, moment_passes):
        rng = np.random.default_rng(500 + n)
        space = make_space(n)
        kets = []
        for _ in range(4):
            z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            kets.append(KetState(space, z / np.linalg.norm(z)))
        kets.append(oat_evolve(coherent(space, math.pi / 2, 0.3), 0.1))
        # the mean axis from one moment pass and the QFI matrix from another
        expected = []
        for ket in kets:
            means = _spin_moments(ket).means
            axis = means / float(np.linalg.norm(means))
            expected.append(metrology._transverse_eigh(_gamma_matrix(ket), axis)[0][-1])
        # fresh state objects and a cleared count (the expected values above ran passes
        # on kets), so that the count is of passes and not of cache hits
        fresh = [KetState(space, ket.amplitudes) for ket in kets]
        del moment_passes[:]
        got = [perpendicular_qfi(ket) for ket in fresh]
        assert len(moment_passes) == len(kets)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        perpendicular_qfi(fresh[0], mean_axis=(1.0, 0.0, 0.0))
        assert len(moment_passes) == len(kets)

    @pytest.mark.parametrize("n", [1, 40, 400])
    def test_a_witness_row_runs_the_moments_once(self, n, moment_passes):
        ket = oat_evolve(coherent(make_space(n), math.pi / 2), 0.1)
        report = squeezing(ket)
        optimal_generator_direction(ket)
        perpendicular_qfi(ket, mean_axis=report.mean_spin_axis)
        n1, n2 = report.squeezing_axis, report.mean_spin_axis
        witnesses(ket, n1, n2, np.cross(n1, n2) / np.linalg.norm(np.cross(n1, n2)))
        assert moment_passes == [ket]


def _fresh_qfi_frame(state):
    """Eigenvectors and QFI weights from a fresh eigh of rho, as the readers formed them
    before the spectrum was cached on the state."""
    q, v = np.linalg.eigh(state.matrix)
    q = np.clip(q, 0.0, None)
    qs = q[:, None] + q[None, :]
    mask = qs > 1e-12 * float(q.sum())
    w = np.zeros_like(qs)
    w[mask] = 2.0 * ((q[:, None] - q[None, :]) ** 2)[mask] / qs[mask]
    return v, w


def _fresh_gamma(state):
    v, w = _fresh_qfi_frame(state)
    vh = v.conj().T
    up = vh @ _raise(state.space, v)
    rot = [(up + up.conj().T) / 2.0, (up - up.conj().T) / 2.0j, (vh * state.space.m_labels) @ v]
    return metrology._weighted_overlaps(w, rot)


class TestOneSpectrumPerMixedState:
    """Every QFI and fidelity reader of a mixed state takes the spectrum the state holds."""

    @pytest.mark.parametrize("n", [7, 40])
    def test_the_readers_solve_one_eigh_per_state(self, n, monkeypatch):
        ket = oat_evolve(coherent(make_space(n), math.pi / 2), 0.1)
        rho, sigma = collective_dephasing(ket, 0.1), collective_dephasing(ket, 0.12)
        solved = []

        def counted(solver):
            def wrapper(a, *args, **kwargs):
                if np.shape(a) == (n + 1, n + 1):  # not the 3x3 and 2x2 frame solves
                    solved.append((solver.__name__, a))
                return solver(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        qfi(rho, jz(rho.space))
        optimal_generator_direction(rho)
        perpendicular_qfi(rho)
        quantum_fidelity(rho, sigma)
        bures(rho, sigma)
        qfi(sigma, jz(sigma.space))
        assert [name for name, _ in solved] == ["eigh", "eigh"]
        assert solved[0][1] is rho.matrix and solved[1][1] is sigma.matrix

    def test_the_cached_spectrum_is_read_only(self):
        rho = collective_dephasing(oat_evolve(coherent(make_space(12), math.pi / 2), 0.1), 0.2)
        q, v = rho._eigen
        assert rho._eigen[0] is q and rho._eigen[1] is v
        assert not q.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            q[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 301])
    def test_readers_equal_a_fresh_eigh_route_bitwise(self, n):
        for state in TestReportFramesArePinned.states(n):
            if not isinstance(state, MixedState):
                continue
            for op in (jz(state.space), collective_operator(state.space, (0.48, 0.6, 0.64))):
                v, w = _fresh_qfi_frame(state)
                expected = float(metrology._weighted_overlaps(w, [v.conj().T @ op.matrix @ v])[0, 0])
                assert _same(qfi(state, op), expected)
            gamma = _fresh_gamma(state)
            vals, vecs = np.linalg.eigh(gamma)
            axis, value = optimal_generator_direction(state)
            assert _same(axis, _old_sign(vecs[:, -1])) and _same(value, float(vals[-1]))
            for mean_axis in TestReportFramesArePinned.AXES[1:]:
                basis = np.stack(_old_plane(_unit_axis(mean_axis)))
                block = basis @ gamma @ basis.T
                expected = float(np.linalg.eigvalsh(0.5 * (block + block.T))[-1])
                assert _same(perpendicular_qfi(state, mean_axis=mean_axis), expected)


class TestEntanglementDepth:
    def test_published_working_point(self):
        assert entanglement_depth_bound(25.9, 6) == 5

    def test_extremes(self):
        assert entanglement_depth_bound(6.0, 6) == 1
        assert entanglement_depth_bound(36.0, 6) == 6
        assert entanglement_depth_bound(0.0, 6) == 1

    def test_rejects_out_of_range_fisher(self):
        with pytest.raises(ValueError):
            entanglement_depth_bound(-1.0, 6)
        with pytest.raises(ValueError):
            entanglement_depth_bound(40.0, 6)

    @pytest.mark.parametrize("n", [7, 24, 50])
    def test_matches_direct_enumeration_at_every_boundary(self, n):
        bounds = [ProtocolFormulas.producibility_bound(n, k) for k in range(1, n + 1)]
        for k in range(1, n + 1):
            for fisher in (bounds[k - 1] - 0.5, min(bounds[k - 1] + 0.5, n**2)):
                expected = 1
                for kk in range(1, n + 1):
                    if fisher > bounds[kk - 1]:
                        expected = kk + 1
                assert entanglement_depth_bound(fisher, n) == expected


def _depth_by_loop(fisher, n):
    """The loop over k that entanglement_depth_bound ran before one numpy comparison."""
    depth = 1
    for k in range(1, n + 1):
        s, r = divmod(n, k)
        if fisher > s * k**2 + r**2:
            depth = k + 1
    return depth


@pytest.mark.parametrize("n", [*range(1, 51), 400, 4000])
def test_depth_bound_equals_the_loop_over_k(n):
    rng = np.random.default_rng(n)
    k = np.arange(1, n + 1)
    bounds = ((n // k) * k**2 + (n % k) ** 2).astype(float)
    if n > 50:  # the loop costs O(N) per call: 60 boundaries, not all of them
        bounds = rng.choice(bounds, 60, replace=False)
    fishers = np.concatenate(
        (bounds, bounds - 0.5, bounds + 0.5, np.nextafter(bounds, np.inf), rng.uniform(0.0, n * n, 40))
    )
    for fisher in [0.0, float(n), float(n * n), *fishers[(fishers >= 0.0) & (fishers <= n * n)]]:
        assert entanglement_depth_bound(fisher, n) == _depth_by_loop(fisher, n), fisher


@pytest.mark.parametrize("bad", [2.7, 3.0, None, "3", 0])
def test_depth_bound_refuses_a_bad_particle_number(bad):
    with pytest.raises(ValueError, match=f"need a positive particle number, got {re.escape(repr(bad))}"):
        entanglement_depth_bound(3.0, bad)


@pytest.mark.parametrize("bad", [None, "3", -1.0, math.nan])
def test_depth_bound_refuses_a_bad_fisher_information(bad):
    with pytest.raises(ValueError, match=f"Fisher information must lie in .*, got {re.escape(repr(bad))}"):
        entanglement_depth_bound(bad, 6)


@pytest.mark.parametrize("bad", [2.7, 3.0, None, "3", 0])
def test_sensitivity_floors_refuse_a_bad_particle_number(bad):
    with pytest.raises(ValueError, match=f"need a positive particle number, got {re.escape(repr(bad))}"):
        sensitivity_floors(bad, 1.0, 0.0)


class TestEprCriteria:
    def test_vacuum_sits_on_the_boundary(self):
        rep = epr_criteria(*ProtocolFormulas.tmsv_quadrature_variances(0.0, -math.pi / 4))
        assert rep.sum_plus == pytest.approx(2.0, rel=1e-12)
        assert not rep.mode_entangled and not rep.epr

    def test_weak_squeezing_entangles_without_steering(self):
        rep = epr_criteria(*ProtocolFormulas.tmsv_quadrature_variances(0.1, -math.pi / 4))
        assert rep.mode_entangled and not rep.epr

    def test_strong_squeezing_steers(self):
        rep = epr_criteria(*ProtocolFormulas.tmsv_quadrature_variances(0.5, -math.pi / 4))
        assert rep.epr
        assert rep.product == pytest.approx(math.exp(-2.0), rel=1e-10)

    def test_direct_numbers(self):
        rep = epr_criteria(2.0, 0.3, 0.6, 1.9)
        assert rep.sum_minus == pytest.approx(0.9)
        assert rep.product == pytest.approx(0.18)
        assert rep.mode_entangled and rep.epr

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            epr_criteria(1.0, -0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            epr_criteria(1.0, math.inf, 1.0, 1.0)


class TestCollectiveDephasing:
    def test_zero_width_is_the_identity_channel(self):
        space = make_space(8)
        state = coherent(space, 1.0, 0.5)
        rho = collective_dephasing(state, 0.0)
        np.testing.assert_allclose(rho.matrix, state.density_matrix().matrix, atol=1e-14)

    def test_cat_coherences_decay_at_the_collective_rate(self):
        n, sigma = 12, 0.3
        space = make_space(n)
        pure = noon(space).density_matrix().matrix
        rho = collective_dephasing(noon(space), sigma).matrix
        factor = math.exp(-(sigma**2) * n**2 / 2)
        assert rho[-1, 0] == pytest.approx(pure[-1, 0] * factor, rel=1e-12)
        assert rho[0, -1] == pytest.approx(pure[0, -1] * factor, rel=1e-12)
        np.testing.assert_allclose(np.diag(rho), np.diag(pure), atol=1e-14)

    def test_trace_and_positivity_survive(self):
        rng = np.random.default_rng(3)
        space = make_space(9)
        state = random_ket(space, rng)
        rho = collective_dephasing(state, 0.7)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_mean_rotation_matches_a_z_rotation(self):
        space = make_space(6)
        state = coherent(space, 1.2, 0.1)
        rotated = rotate_state(state, (0.0, 0.0, 1.0), 0.45)
        rho = collective_dephasing(state, 0.0, theta=0.45)
        np.testing.assert_allclose(
            rho.matrix, rotated.density_matrix().matrix, atol=1e-12
        )

    def test_rejects_negative_width(self):
        state = coherent(make_space(4), 0.5)
        with pytest.raises(ValueError):
            collective_dephasing(state, -0.1)

    @pytest.mark.parametrize("sigma_pn", [None, "0.1", 0.1j, math.nan, math.inf])
    def test_rejects_a_non_real_or_non_finite_width_by_name(self, sigma_pn):
        with pytest.raises(ValueError, match="sigma_pn must be finite"):
            collective_dephasing(coherent(make_space(4), 0.5), sigma_pn)

    @pytest.mark.parametrize("theta", ["0.3", 0.3j, math.nan, math.inf, -math.inf])
    def test_rejects_a_non_real_or_non_finite_mean_rotation_by_name(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the kernel, without a RuntimeWarning
            with pytest.raises(ValueError, match="theta must be finite"):
                collective_dephasing(coherent(make_space(4), 0.5), 0.1, theta)

    def test_a_ket_is_validated_once(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        collective_dephasing(coherent(make_space(40), 1.0, 0.2), 0.1)
        assert calls == [(41, 41)]


class TestSensitivityFloors:
    def test_lossless_reaches_the_heisenberg_limit(self):
        floors = sensitivity_floors(100, 1.0, 0.0, nu=4.0)
        assert floors.loss_bound == pytest.approx(floors.hl, rel=1e-12)
        assert floors.phase_noise_bound == pytest.approx(floors.hl, rel=1e-12)
        assert floors.sql == pytest.approx(1.0 / math.sqrt(400.0), rel=1e-12)

    def test_loss_floor_scales_like_the_standard_quantum_limit(self):
        n, eta = 10**6, 0.5
        floors = sensitivity_floors(n, eta, 0.0)
        asymptote = math.sqrt((1.0 - eta) / eta) / math.sqrt(n)
        assert floors.loss_bound == pytest.approx(asymptote, rel=0.01)

    def test_phase_noise_floor_saturates_with_atom_number(self):
        small = sensitivity_floors(100, 1.0, 0.01).phase_noise_bound
        large = sensitivity_floors(10**6, 1.0, 0.01).phase_noise_bound
        assert large == pytest.approx(0.01, rel=1e-4)
        assert small > large

    def test_validation(self):
        with pytest.raises(ValueError):
            sensitivity_floors(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            sensitivity_floors(10, 0.0, 0.0)
        with pytest.raises(ValueError):
            sensitivity_floors(10, 1.0, -0.1)
        with pytest.raises(ValueError):
            sensitivity_floors(10, 1.0, 0.0, nu=0.5)


@pytest.mark.parametrize("sigma_pn, nu", [(math.nan, 1.0), (0.0, math.nan)])
def test_sensitivity_floors_reject_nan(sigma_pn, nu):
    with pytest.raises(ValueError):
        sensitivity_floors(10, 1.0, sigma_pn, nu=nu)


@pytest.mark.parametrize("sigma_pn, nu", [(math.inf, 1.0), (0.0, math.inf)])
def test_sensitivity_floors_reject_infinite_noise_and_repetitions(sigma_pn, nu):
    # an infinite width would report an infinite floor, infinite repetitions all-zero floors
    with pytest.raises(ValueError, match="must be finite"):
        sensitivity_floors(10, 1.0, sigma_pn, nu=nu)


@pytest.mark.parametrize(
    "field, message",
    [("eta", "transmission must lie in"), ("sigma_pn", "sigma_pn must be"), ("nu", "nu must be")],
)
@pytest.mark.parametrize("bad", [None, "1"])
def test_sensitivity_floors_name_a_non_number(field, message, bad):
    args = {"eta": 1.0, "sigma_pn": 0.0, "nu": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"{message}.*, got {bad!r}"):
        sensitivity_floors(10, **args)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_mixed_qfi_is_the_weighted_squared_modulus(n):
    # the shared contraction sum w Re(h h^*) equals sum w |h|^2 up to rounding
    rng = np.random.default_rng(n)
    space = make_space(n)
    g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    op = collective_operator(space, (0.48, 0.6, 0.64))
    q, v = np.linalg.eigh(rho)
    q = np.clip(q, 0.0, None)
    qs = q[:, None] + q[None, :]
    w = np.where(qs > 1e-12, 2.0 * (q[:, None] - q[None, :]) ** 2 / np.where(qs > 0.0, qs, 1.0), 0.0)
    direct = float(np.sum(w * np.abs(v.conj().T @ op.matrix @ v) ** 2))
    assert qfi(MixedState(space, rho), op) == pytest.approx(direct, rel=1e-14)


def dense_pair_sx2(n):
    """<k'|S_x^2|k> on the zero-magnetization pair sector, from scratch.

    Works in the full three-mode Fock basis with fixed total N, builds
    S_x = (a_s^dag a_0 + h.c.)/2 for the symmetric side mode
    a_s = (a_+ + a_-)/sqrt(2), squares it, and cuts out the
    |k, N-2k, k> block.
    """
    basis = [
        (p, z, n - p - z)
        for p in range(n + 1)
        for z in range(n + 1 - p)
        if n - p - z >= 0
    ]
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)
    hop_up = np.zeros((dim, dim))
    hop_down = np.zeros((dim, dim))
    for i, (p, z, m) in enumerate(basis):
        if z >= 1:
            j = index[(p + 1, z - 1, m)]
            hop_up[j, i] = math.sqrt((p + 1) * z)
            j = index[(p, z - 1, m + 1)]
            hop_down[j, i] = math.sqrt((m + 1) * z)
    sx = (hop_up + hop_up.T + hop_down + hop_down.T) / (2.0 * math.sqrt(2.0))
    sx2 = sx @ sx
    sector = [index[(k, n - 2 * k, k)] for k in range(n // 2 + 1)]
    return sx2[np.ix_(sector, sector)]


class TestPairObservables:
    @pytest.mark.parametrize("n", [4, 8])
    def test_pair_qfi_matches_a_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
        amps /= np.linalg.norm(amps)
        state = ThreeModeState(n, amps)
        block = dense_pair_sx2(n)
        expected = 4.0 * float(np.real(amps.conj() @ block @ amps))
        assert pair_qfi_sx(state) == pytest.approx(expected, rel=1e-10)

    def test_ground_state_reaches_the_quadratic_plateau(self):
        n = 40
        gs = spin_mixing_ground_state(n, 0.0)
        assert pair_qfi_sx(gs) == pytest.approx(n * (n + 1) / 2.0, rel=1e-6)

    @pytest.mark.parametrize("phi", [-math.pi / 4, 0.3])
    def test_squeezed_vacuum_quadratures_match_the_closed_form(self, phi):
        r = 0.6
        state = two_mode_squeezed_vacuum(r, n_max=60)
        got = pair_quadrature_variances(state, phi)
        expected = ProtocolFormulas.tmsv_quadrature_variances(r, phi)
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_vacuum_quadratures_are_isotropic(self):
        state = PairBasisState(0.0, 5, np.eye(6)[0])
        got = pair_quadrature_variances(state, 0.7)
        np.testing.assert_allclose(got, (1.0, 1.0, 1.0, 1.0), rtol=1e-12)


class TestSqueezingFisherInterplay:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_random_states_respect_the_chain_of_bounds(self, n):
        rng = np.random.default_rng(n + 1)
        space = make_space(n)
        for _ in range(40):
            state = random_ket(space, rng)
            report = squeezing(state)
            if report.xi_r2 is None:
                continue
            f_perp = perpendicular_qfi(state)
            assert report.xi_r2 >= n / f_perp * (1.0 - 1e-9)
            assert report.xi_r2 >= 2.0 / (n + 2.0) * (1.0 - 1e-12)
