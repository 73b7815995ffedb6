"""Multipole decomposition, sphere maps, spin-noise curves, export."""

import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from spinlab import tomography
from spinlab.cli import run
from spinlab.dynamics import oat_evolve
from spinlab.metrology import collective_dephasing
from spinlab.spinspace import KetState, MixedState, _d_matrix, _density, _real_times, make_space
from spinlab.states import coherent, dicke, twin_fock
from spinlab.tomography import (
    TensorDecomposition,
    clebsch_gordan,
    decompose,
    export_map,
    quasiprobability,
    reconstruct,
    render_map,
    spin_noise_moments,
)
from spinlab.tomography import _f_coefficients, _legendre_ranks, _strip_table


def angular_momentum_ops(j):
    dim = int(round(2 * j)) + 1
    m = -j + np.arange(dim)
    raise_elems = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.diag(raise_elems, -1) if False else np.diag(raise_elems, 1).T
    # jp[i+1, i] connects m -> m+1 with the labels ascending
    jp = np.zeros((dim, dim))
    jp[np.arange(1, dim), np.arange(dim - 1)] = raise_elems
    return m, jp


def coupled_basis_cg(j1, j2):
    """All <j1 m1; j2 m2 | j3 m3> by explicit ladder construction.

    Two coupled spins carry each total spin exactly once, so the stretched
    state |j3 j3> is the unique J_+ null vector in its magnetization block
    (sign fixed by the m1 = j1 component); J_- then walks out the whole
    multiplet.  Independent of any closed-form series.
    """
    m1v, jp1 = angular_momentum_ops(j1)
    m2v, jp2 = angular_momentum_ops(j2)
    d1, d2 = m1v.size, m2v.size
    jp = np.kron(jp1, np.eye(d2)) + np.kron(np.eye(d1), jp2)
    jm = jp.T
    mtot = (m1v[:, None] + m2v[None, :]).ravel()
    out = {}
    j3 = j1 + j2
    while j3 >= abs(j1 - j2) - 1e-9:
        block = np.flatnonzero(np.abs(mtot - j3) < 1e-9)
        _, s, vh = np.linalg.svd(jp[:, block], full_matrices=False)
        null_rows = vh[s < 1e-9]
        assert null_rows.shape[0] == 1
        full = np.zeros(d1 * d2)
        full[block] = null_rows[0]
        anchor = full.reshape(d1, d2)[-1, int(round(j3 - j1 + j2))]
        if anchor < 0:
            full = -full
        states = {j3: full}
        m3 = j3
        while m3 > -j3 + 1e-9:
            nxt = jm @ states[m3] / math.sqrt(j3 * (j3 + 1) - m3 * (m3 - 1))
            m3 -= 1.0
            states[m3] = nxt
        out[j3] = states
        j3 -= 1.0
    return out


class TestClebschGordan:
    def test_known_values(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )
        assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(
            1 / math.sqrt(3), rel=1e-12
        )
        assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(
            math.sqrt(2.0 / 3.0), rel=1e-12
        )
        assert clebsch_gordan(3, 3, 3, 3, 6, 6) == pytest.approx(1.0, rel=1e-14)

    def test_selection_rules(self):
        assert clebsch_gordan(1, 1, 1, 1, 2, 1) == 0.0
        assert clebsch_gordan(1, 2, 1, 0, 2, 2) == 0.0
        assert clebsch_gordan(1, 0, 1, 0, 5, 0) == 0.0
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0.3, 1, 0, 1, 0.3)

    @pytest.mark.parametrize("j1,j2", [(1.5, 1.5), (2.0, 1.5), (2.5, 2.5)])
    def test_matches_ladder_construction(self, j1, j2):
        states = coupled_basis_cg(j1, j2)
        m1v = -j1 + np.arange(int(round(2 * j1)) + 1)
        m2v = -j2 + np.arange(int(round(2 * j2)) + 1)
        for j3, by_m in states.items():
            for m3, vec in by_m.items():
                grid = vec.reshape(m1v.size, m2v.size)
                for i1, m1 in enumerate(m1v):
                    for i2, m2 in enumerate(m2v):
                        expected = grid[i1, i2]
                        got = clebsch_gordan(j1, m1, j2, m2, j3, m3)
                        assert got == pytest.approx(expected, abs=1e-10)

    def test_orthogonality_sums(self):
        j1 = j2 = 1.5
        j3_list = [0, 1, 2, 3]
        for j3 in j3_list:
            for j3p in j3_list:
                total = sum(
                    clebsch_gordan(j1, m1, j2, m2, j3, 1)
                    * clebsch_gordan(j1, m1, j2, m2, j3p, 1)
                    for m1 in (-1.5, -0.5, 0.5, 1.5)
                    for m2 in (-1.5, -0.5, 0.5, 1.5)
                )
                want = 1.0 if (j3 == j3p and j3 >= 1) else 0.0
                assert total == pytest.approx(want, abs=1e-12)

    def test_large_spin_completeness(self):
        # N = 100 regime the decomposition relies on
        j = 50.0
        total = sum(
            clebsch_gordan(j, 3.0, 3.0, 1.0, j3, 4.0) ** 2
            for j3 in np.arange(47.0, 54.0)
        )
        assert total == pytest.approx(1.0, rel=1e-10)


def random_mixed(space, rng, rank=2):
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    for _ in range(rank):
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        rho += np.outer(z, z.conj())
    rho /= np.trace(rho).real
    return MixedState(space, rho)


class TestDecomposition:
    def test_maximally_mixed_is_pure_monopole(self):
        n = 8
        space = make_space(n)
        dec = decompose(MixedState(space, np.eye(n + 1) / (n + 1)))
        assert dec.coefficient(0, 0) == pytest.approx(1 / math.sqrt(n + 1), rel=1e-12)
        c = dec.coefficients.copy()
        c[0, n] = 0.0
        assert np.max(np.abs(c)) < 1e-14

    def test_pole_state_is_axially_symmetric(self):
        n = 10
        space = make_space(n)
        dec = decompose(dicke(space, n // 2))
        for k in range(n + 1):
            for q in range(-k, k + 1):
                if q != 0:
                    assert abs(dec.coefficient(k, q)) < 1e-14
        assert dec.coefficient(0, 0) == pytest.approx(1 / math.sqrt(n + 1), rel=1e-12)

    def test_hermiticity_relation(self):
        rng = np.random.default_rng(4)
        n = 10
        dec = decompose(random_mixed(make_space(n), rng))
        for k in range(n + 1):
            for q in range(1, k + 1):
                lhs = dec.coefficient(k, -q)
                rhs = (-1) ** q * np.conj(dec.coefficient(k, q))
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_parseval_for_purity(self):
        rng = np.random.default_rng(12)
        space = make_space(9)
        rho = random_mixed(space, rng, rank=3)
        dec = decompose(rho)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert np.sum(np.abs(dec.coefficients) ** 2) == pytest.approx(purity, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 12])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        space = make_space(n)
        rho = random_mixed(space, rng)
        back = reconstruct(decompose(rho))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    @pytest.mark.parametrize(
        "n, coefficients, field",
        [
            (2, np.full((3, 5), np.nan), "coefficients"),
            (2, np.where(np.eye(3, 5) > 0, np.inf, 0.0), "coefficients"),
            (0, np.zeros((1, 1)), "n_particles"),
            (-1, np.zeros((0, 0)), "n_particles"),
            (2.0, np.zeros((3, 5)), "n_particles"),
        ],
    )
    def test_rejects_non_finite_coefficients_and_empty_spaces(self, n, coefficients, field):
        with pytest.raises(ValueError, match=field):
            TensorDecomposition(n_particles=n, coefficients=coefficients)

    def test_coefficient_index_validation(self):
        dec = decompose(coherent(make_space(4), 0.3))
        with pytest.raises(ValueError):
            dec.coefficient(5, 0)
        with pytest.raises(ValueError):
            dec.coefficient(2, 3)


def coherent_overlap_q(state, theta, phi):
    """(N+1)/4pi times the coherent-state overlap, the Q value at (theta, phi)."""
    n = state.space.n_particles
    probe = coherent(state.space, theta, phi)
    return (n + 1) / (4 * math.pi) * abs(np.vdot(probe.amplitudes, state.amplitudes)) ** 2


class TestQuasiProbabilityMaps:
    def test_coherent_q_map_closed_form(self):
        n = 20
        space = make_space(n)
        for th0, ph0 in ((0.0, 0.0), (0.7, 1.1)):
            state = coherent(space, th0, ph0)
            qmap = quasiprobability(state, "q")
            cos_gamma = np.cos(qmap.theta[:, None]) * math.cos(th0) + np.sin(
                qmap.theta[:, None]
            ) * math.sin(th0) * np.cos(qmap.phi[None, :] - ph0)
            closed = (n + 1) / (4 * math.pi) * ((1 + cos_gamma) / 2) ** n
            scale = float(np.max(np.abs(closed)))
            assert np.max(np.abs(qmap.values - closed)) < 1e-8 * scale

    def test_q_map_matches_direct_overlaps_on_a_random_state(self):
        rng = np.random.default_rng(6)
        n = 12
        space = make_space(n)
        z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = KetState(space, z / np.linalg.norm(z))
        qmap = quasiprobability(state, "q")
        direct = np.array(
            [
                [coherent_overlap_q(state, th, ph) for ph in qmap.phi]
                for th in qmap.theta
            ]
        )
        scale = float(np.max(np.abs(direct)))
        assert np.max(np.abs(qmap.values - direct)) < 1e-8 * scale

    @pytest.mark.parametrize("kind", ["p", "w", "q"])
    def test_sphere_integrals_are_unity(self, kind):
        rng = np.random.default_rng(10)
        state = random_mixed(make_space(10), rng)
        qmap = quasiprobability(state, kind)
        assert qmap.sphere_integral() == pytest.approx(1.0, abs=1e-6)

    def test_rendering_is_linear(self):
        rng = np.random.default_rng(2)
        space = make_space(6)
        r1, r2 = random_mixed(space, rng), random_mixed(space, rng)
        mix = MixedState(space, 0.3 * r1.matrix + 0.7 * r2.matrix)
        vals = quasiprobability(mix, "w").values
        parts = 0.3 * quasiprobability(r1, "w").values + 0.7 * quasiprobability(r2, "w").values
        np.testing.assert_allclose(vals, parts, atol=1e-10)

    def test_coherent_w_map_stays_positive(self):
        n = 20
        qmap = quasiprobability(coherent(make_space(n), 0.9, -0.5), "w")
        assert qmap.values.min() > -1e-3 * qmap.values.max()

    def test_rank_weights_connect_the_kinds(self):
        # scaling the multipoles by the Q weights and rendering flat must
        # reproduce the Q map itself
        n = 10
        state = coherent(make_space(n), 1.2, 0.4)
        dec = decompose(state)
        k = np.arange(n + 1, dtype=float)
        log_f = 0.5 * (
            math.lgamma(n + 1.0)
            + math.lgamma(n + 2.0)
            - np.array([math.lgamma(n - kk + 1.0) for kk in k])
            - np.array([math.lgamma(n + kk + 2.0) for kk in k])
        )
        scaled = type(dec)(
            n_particles=n, coefficients=np.exp(log_f)[:, None] * dec.coefficients
        )
        as_w = render_map(scaled, "w")
        direct_q = render_map(dec, "q")
        np.testing.assert_allclose(as_w.values, direct_q.values, atol=1e-10)

    def test_grid_validation(self):
        dec = decompose(coherent(make_space(6), 0.4))
        with pytest.raises(ValueError):
            render_map(dec, "husimi")
        with pytest.raises(ValueError):
            render_map(dec, "q", n_theta=10)
        with pytest.raises(ValueError):
            render_map(dec, "q", n_phi=5)

    @pytest.mark.parametrize(
        "arg, value",
        [("n_theta", 14.0), ("n_theta", 14.5), ("n_phi", 8.0), ("n_phi", True), ("kind", 3)],
    )
    def test_bad_argument_types_name_the_argument(self, arg, value):
        dec = decompose(coherent(make_space(6), 0.4))
        call = {"kind": "q", arg: value}
        with pytest.raises(ValueError, match=arg):
            render_map(dec, **call)

    def test_p_maps_refuse_rank_weights_that_overflow(self, monkeypatch):
        n = 1027
        coefficients = np.zeros((n + 1, 2 * n + 1), dtype=complex)
        coefficients[0, n] = 1.0 / math.sqrt(n + 1)  # the maximally mixed state, no decompose
        dec = TensorDecomposition(n, coefficients)

        def no_synthesis(n_theta):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(tomography, "_gauss_legendre", no_synthesis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by name, not by an overflow warning
            with pytest.raises(ValueError, match="above N = 1026, got N = 1027"):
                render_map(dec, "P")
        assert np.all(np.isfinite(_f_coefficients(1026, "p")))

    @pytest.mark.parametrize(
        "n, kind, message",
        [
            (1027, "p", "P rank weights overflow float64 above N = 1026, got N = 1027"),
            (1027, "P", "P rank weights overflow float64 above N = 1026, got N = 1027"),
            (6, "x", "kind must be one of ('p', 'w', 'q'), got 'x'"),
            (6, None, "kind must be one of ('p', 'w', 'q'), got None"),
        ],
    )
    def test_a_refused_map_decomposes_nothing(self, monkeypatch, n, kind, message):
        def no_decompose(state):
            raise AssertionError("decompose called")

        monkeypatch.setattr(tomography, "decompose", no_decompose)
        state = coherent(make_space(n), 0.5)
        with pytest.raises(ValueError) as refused:
            quasiprobability(state, kind)
        assert str(refused.value) == message

    def test_numpy_integer_grid_sizes_render_the_same_map(self):
        dec = decompose(coherent(make_space(6), 0.4))
        as_int = render_map(dec, "w", 15, 9).values
        np.testing.assert_array_equal(render_map(dec, "W", np.int64(15), np.int32(9)).values, as_int)

    def test_threading_does_not_change_values(self):
        rng = np.random.default_rng(8)
        state = random_mixed(make_space(12), rng)
        dec = decompose(state)
        one = render_map(dec, "w", threads=1)
        four = render_map(dec, "w", threads=4)
        np.testing.assert_allclose(four.values, one.values, atol=1e-14)

    def test_thread_count_is_bitwise_irrelevant_for_every_kind(self):
        rng = np.random.default_rng(9)
        dec = decompose(random_mixed(make_space(11), rng))
        for kind in ("p", "w", "q"):
            one = render_map(dec, kind, threads=1).values
            for threads in (2, 4):
                np.testing.assert_array_equal(render_map(dec, kind, threads=threads).values, one)


def per_q_legendre_table(n_max, x):
    """Reference: the three-term recursion in k run separately for each order q."""
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    tab = np.zeros((n_max + 1, n_max + 1, x.size))
    cur = np.full(x.size, 1.0 / math.sqrt(2.0))
    for q in range(n_max + 1):
        if q > 0:
            cur = -math.sqrt((2 * q + 1) / (2.0 * q)) * s * cur
        tab[q, q] = cur
        if q + 1 <= n_max:
            tab[q + 1, q] = math.sqrt(2 * q + 3) * x * cur
        for k in range(q + 2, n_max + 1):
            a = math.sqrt((2 * k + 1) * (2 * k - 1) / ((k - q) * (k + q)))
            b = math.sqrt(
                (2 * k + 1) * (k - 1 - q) * (k - 1 + q) / ((2 * k - 3) * (k - q) * (k + q))
            )
            tab[k, q] = a * x * tab[k - 1, q] - b * tab[k - 2, q]
    return tab


def stacked_ranks(n, x):
    """The slices of _legendre_ranks stacked into a zero-padded (n+1, n+1, x.size) table."""
    tab = np.zeros((n + 1, n + 1, x.size))
    for k, ranks in enumerate(_legendre_ranks(n, x)):
        assert ranks.shape == (k + 1, x.size)
        tab[k, : k + 1] = ranks
    assert k == n
    return tab


def per_rank_coefficient_ranks(n, x):
    """The rank recursion with a(k, q) and b(k, q) rebuilt for every rank, as it once ran."""
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    prev, cur = None, np.full((1, x.size), 1.0 / math.sqrt(2.0))
    yield cur
    for k in range(1, n + 1):
        nxt = np.empty((k + 1, x.size))
        if k >= 2:
            q = np.arange(k - 1)[:, None]
            a = np.sqrt((2 * k + 1) * (2 * k - 1) / ((k - q) * (k + q)))
            b = np.sqrt((2 * k + 1) * (k - 1 - q) * (k - 1 + q) / ((2 * k - 3) * (k - q) * (k + q)))
            nxt[: k - 1] = a * x * cur[: k - 1] - b * prev[: k - 1]
        nxt[k - 1] = math.sqrt(2 * k + 1) * x * cur[k - 1]
        nxt[k] = -math.sqrt((2 * k + 1) / (2.0 * k)) * s * cur[k - 1]
        prev, cur = cur, nxt
        yield cur


def table_route_values(dec, kind, n_theta=None, n_phi=None):
    """Map values from the whole Legendre table, contracted over k in one einsum."""
    n, rho = dec.n_particles, dec.coefficients
    n_theta, n_phi = n_theta or 2 * n + 2, n_phi or 2 * n + 2
    x = np.polynomial.legendre.leggauss(n_theta)[0][::-1].copy()
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    fk = _f_coefficients(n, kind)
    amp = np.einsum("kq,kqi->qi", fk[:, None] * rho[:, n:], per_q_legendre_table(n, x))
    pref = math.sqrt((n + 1) / (4.0 * math.pi)) / math.sqrt(2.0 * math.pi)
    phase = np.exp(1j * np.arange(1, n + 1)[:, None] * phi[None, :])
    return pref * (np.real(amp[0])[:, None] + 2.0 * np.real(amp[1:].T @ phase))


class TestRankWeights:
    @pytest.mark.parametrize("n", [1, 2, 64, 1000, 1026])
    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_match_the_gammaln_route(self, n, kind):
        from scipy.special import gammaln

        k = np.arange(n + 1, dtype=float)
        log_g = 0.5 * (
            gammaln(n + 1.0) + gammaln(n + 2.0) - gammaln(n - k + 1.0) - gammaln(n + k + 2.0)
        )
        want = np.exp(log_g) if kind == "q" else np.exp(-log_g)
        np.testing.assert_allclose(_f_coefficients(n, kind), want, rtol=1e-11, atol=0.0)

    def test_w_maps_read_no_log_factorial(self, monkeypatch):
        state = oat_evolve(coherent(make_space(12), math.pi / 2, 0.0), 0.1)
        want = quasiprobability(state, "w").values

        def refuse(x):
            raise AssertionError("a W map read a log-factorial")

        monkeypatch.setattr(tomography, "_logfact", refuse)
        np.testing.assert_array_equal(quasiprobability(state, "w").values, want)
        assert _f_coefficients(12, "w").tolist() == [1.0] * 13


class TestLegendreTable:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_equals_the_per_order_recursion(self, n):
        x = np.polynomial.legendre.leggauss(2 * n + 2)[0]
        x = np.concatenate(([-1.0], x, [1.0]))
        np.testing.assert_array_equal(stacked_ranks(n, x), per_q_legendre_table(n, x))

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_matches_scipy_normalized_legendre(self, n):
        from scipy.special import assoc_legendre_p  # includes the Condon-Shortley sign

        x = np.polynomial.legendre.leggauss(2 * n + 2)[0]
        tab = stacked_ranks(n, x)
        for k in range(n + 1):
            for q in range(k + 1):
                ref = assoc_legendre_p(k, q, x, norm=True)[0]
                np.testing.assert_allclose(tab[k, q], ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 12, 33])
    @pytest.mark.parametrize("grid", [(None, None), "custom"])
    def test_rank_loop_maps_equal_the_table_route_bitwise(self, n, grid):
        rng = np.random.default_rng(n)
        ket = oat_evolve(coherent(make_space(n), math.pi / 2, 0.3), 0.7 / n)
        if grid == "custom":
            grid = (2 * n + 5, n + 3)
        for state in (ket, random_mixed(make_space(n), rng)):
            dec = decompose(state)
            for kind in ("p", "w", "q"):
                np.testing.assert_array_equal(
                    render_map(dec, kind, *grid).values, table_route_values(dec, kind, *grid)
                )


    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64, 200])
    def test_maps_equal_the_per_rank_coefficient_recursion_bitwise(self, n, monkeypatch):
        rng = np.random.default_rng(300 + n)
        ket = oat_evolve(coherent(make_space(n), math.pi / 2, 0.3), 0.7 / n)
        decs = [decompose(state) for state in (ket, random_mixed(make_space(n), rng))]
        tabled = [[render_map(dec, kind).values for kind in "pwq"] for dec in decs]
        monkeypatch.setattr(tomography, "_legendre_ranks", per_rank_coefficient_ranks)
        for dec, maps in zip(decs, tabled):
            for kind, values in zip("pwq", maps):
                np.testing.assert_array_equal(values, render_map(dec, kind).values)

    def test_each_grid_size_in_use_solves_one_rule(self, monkeypatch):
        solved = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(n_theta):
            solved.append(n_theta)
            return leggauss(n_theta)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        tomography._gauss_legendre.cache_clear()
        dec = decompose(oat_evolve(coherent(make_space(6), math.pi / 2), 0.2))
        for _ in range(2):
            for n_theta in (14, 20, 26):
                for kind in "pwq":
                    render_map(dec, kind, n_theta)
        assert solved == [14, 20, 26]


def band_route_moments(state, theta, order):
    """The curve by the routes spin_noise_moments used before it read a MeasurementModel
    table: Delta products for a ket, a bandwidth-k band sum in the J_x basis for rho."""
    space = state.space
    vecs = _d_matrix(space, 0.5 * np.pi)  # Delta, assembled dense from its halves
    mz = space.m_labels.astype(float) ** order
    if isinstance(state, KetState):
        phases = np.exp(-1j * np.outer(space.m_labels, theta))
        rot = _real_times(vecs, phases * _real_times(vecs.T, state.amplitudes)[:, None])
        return mz @ np.abs(rot) ** 2
    rho_e = _real_times(vecs.T, _real_times(vecs.T, _density(state)).conj().T)
    op = (vecs.T * mz) @ vecs
    shifts = np.arange(-order, order + 1)
    band = np.array([np.diagonal(op, d) @ np.diagonal(rho_e, -d) for d in shifts])
    return np.real(np.exp(-1j * np.outer(theta, shifts)) @ band)


class TestSpinNoiseMoments:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
    def test_model_table_matches_the_band_routes(self, n):
        rng = np.random.default_rng(n)
        space = make_space(n)
        z = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        coh = coherent(space, 0.8, 0.3)
        states = (
            coh,
            KetState(space, z / np.linalg.norm(z)),
            random_mixed(space, rng),
            collective_dephasing(coh, 0.4),
        )
        theta = rng.uniform(-4.0, 4.0, 23)  # unsorted, beyond one period
        for state in states:
            for order in (1, 2, 3, 4):
                got = spin_noise_moments(state, theta, order).moments
                np.testing.assert_allclose(
                    got, band_route_moments(state, theta, order),
                    rtol=0, atol=1e-13 * max(1.0, (n / 2) ** order),
                )

    def test_pole_state_second_moment_curve(self):
        n = 16
        space = make_space(n)
        grid = np.linspace(0.0, 2 * math.pi, 41)
        out = spin_noise_moments(dicke(space, n // 2), grid, order=2)
        expected = (n**2 / 4) * np.cos(grid) ** 2 + (n / 4) * np.sin(grid) ** 2
        np.testing.assert_allclose(out.moments, expected, atol=1e-10 * n**2)
        np.testing.assert_array_equal(out.harmonics, [0, 2])

    def test_pole_state_first_moment_curve(self):
        n = 12
        space = make_space(n)
        grid = np.linspace(0.0, 2 * math.pi, 31)
        out = spin_noise_moments(dicke(space, n // 2), grid, order=1)
        np.testing.assert_allclose(out.moments, (n / 2) * np.cos(grid), atol=1e-10 * n)
        assert out.moments[0] == pytest.approx(n / 2, rel=1e-12)

    def test_twin_fock_quadrature_swing(self):
        n = 12
        out = spin_noise_moments(
            twin_fock(make_space(n)), np.linspace(0, math.pi, 21), order=2
        )
        assert out.moments[0] == pytest.approx(0.0, abs=1e-12)
        mid = out.moments[10]  # theta = pi/2 rotates z into y
        assert mid == pytest.approx(n * (n + 2) / 8, rel=1e-12)

    def test_fit_reproduces_the_exact_curve(self):
        n = 10
        space = make_space(n)
        grid = np.linspace(0.0, 2 * math.pi, 61)
        for order in (1, 2, 3, 4):
            out = spin_noise_moments(coherent(space, 0.8, 0.3), grid, order=order)
            np.testing.assert_allclose(out.fitted(grid), out.moments, atol=1e-9)

    def test_mixed_branch_matches_pure_branch(self):
        space = make_space(8)
        state = coherent(space, 1.0, 0.2)
        grid = np.linspace(0.0, math.pi, 11)
        pure = spin_noise_moments(state, grid, order=3).moments
        mixed = spin_noise_moments(
            MixedState(space, state.density_matrix().matrix), grid, order=3
        ).moments
        np.testing.assert_allclose(mixed, pure, atol=1e-12)

    def test_validation(self):
        state = coherent(make_space(4), 0.5)
        with pytest.raises(ValueError):
            spin_noise_moments(state, np.linspace(0, 1, 5), order=0)
        with pytest.raises(ValueError):
            spin_noise_moments(state, np.array([0.3]), order=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_non_finite_angles_are_rejected(self, bad, mixed):
        state = coherent(make_space(4), 0.5)
        state = state.density_matrix() if mixed else state
        with pytest.raises(ValueError, match="theta_grid must be finite") as err:
            spin_noise_moments(state, np.array([0.0, bad, 1.0]), order=2)
        # the boundary check fires, not a LAPACK failure further in
        assert not isinstance(err.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("order", [2.5, 0.5, -1, math.nan, math.inf, "2", True])
    def test_an_order_that_is_not_a_whole_number_is_rejected(self, order):
        with pytest.raises(ValueError, match="whole number"):
            spin_noise_moments(coherent(make_space(4), 0.5), np.linspace(0, 1, 5), order=order)

    def test_a_state_that_is_not_a_spin_state_is_rejected_by_name(self):
        from spinlab.states import ThreeModeState

        state = ThreeModeState(4, np.eye(3)[0])
        with pytest.raises(ValueError, match="^state must be a KetState or MixedState, got ThreeModeState"):
            spin_noise_moments(state, np.linspace(0, 1, 5), order=2)

    def test_the_result_holds_a_copy_of_its_grid(self):
        grid = np.linspace(0.0, 1.0, 5)
        out = spin_noise_moments(coherent(make_space(4), 0.5), grid, order=2)
        grid[:] = 9.0
        assert out.theta.tolist() == np.linspace(0.0, 1.0, 5).tolist()

    def test_a_whole_float_order_is_the_integer_order(self):
        state, grid = coherent(make_space(6), 0.8, 0.3), np.linspace(0, 1, 7)
        got = spin_noise_moments(state, grid, order=2.0).moments
        assert got.tobytes() == spin_noise_moments(state, grid, order=2).moments.tobytes()


def per_cell_template_csv(qmap):
    """The map CSV as the writer once built it: one f-string per cell of each row's template."""
    fh = io.StringIO()
    fh.write("theta,phi,value\n")
    phis = [f"{ph:.17g}" for ph in qmap.phi]
    for th, row in zip(qmap.theta, qmap.values):
        head = f"{th:.17g},"
        template = "".join(f"{head}{ph},%.17g\n" for ph in phis)
        fh.write(template % tuple(row.tolist()))
    return fh.getvalue()


def sidecar_json(qmap):
    meta = {
        "kind": qmap.kind,
        "n_theta": int(qmap.theta.size),
        "n_phi": int(qmap.phi.size),
        "theta": [float(t) for t in qmap.theta],
        "phi": [float(p) for p in qmap.phi],
        "quadrature_weights": [float(w) for w in qmap.weights],
    }
    return json.dumps(meta, indent=1) + "\n"


class TestExport:
    def test_csv_round_trip_and_sidecar(self, tmp_path):
        qmap = quasiprobability(coherent(make_space(6), 0.7, 0.2), "q")
        csv_path = tmp_path / "map.csv"
        json_path = tmp_path / "map.json"
        export_map(qmap, csv_path, json_path)

        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "phi", "value"]
        body = rows[1:]
        assert len(body) == qmap.theta.size * qmap.phi.size
        k = 0
        for i in range(qmap.theta.size):
            for j in range(qmap.phi.size):
                th, ph, val = (float(x) for x in body[k])
                assert th == qmap.theta[i] and ph == qmap.phi[j]
                assert val == qmap.values[i, j]
                k += 1

        meta = json.loads(json_path.read_text())
        assert meta["kind"] == "q"
        assert meta["n_theta"] == qmap.theta.size
        np.testing.assert_allclose(meta["quadrature_weights"], qmap.weights)

    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_csv_bytes_equal_a_per_cell_writer(self, tmp_path, n):
        state = oat_evolve(coherent(make_space(n), 0.5 * math.pi, 0.3), 0.2)
        dec = decompose(state)
        for kind in ("p", "w", "q"):
            qmap = render_map(dec, kind)
            values = qmap.values.copy()
            values[0, :4] = (0.0, -0.0, -3.5e-300, 1.25e-17)
            qmap = dataclasses.replace(qmap, values=values)
            path = tmp_path / f"{kind}.csv"
            export_map(qmap, path)
            want = "theta,phi,value\n" + "".join(
                f"{th:.17g},{ph:.17g},{qmap.values[i, j]:.17g}\n"
                for i, th in enumerate(qmap.theta)
                for j, ph in enumerate(qmap.phi)
            )
            got = path.read_text()
            assert ",0\n" in got and ",-0\n" in got and "e-300\n" in got
            assert got == want

    @pytest.mark.parametrize("n", [1, 7, 33])
    def test_export_and_cli_bytes_equal_the_per_cell_template_writer(self, tmp_path, n):
        state = oat_evolve(coherent(make_space(n), 0.5 * math.pi, 0.0), 0.2)
        for kind in ("p", "w", "q"):
            qmap = quasiprobability(state, kind)
            export_map(qmap, tmp_path / "map.csv", tmp_path / "map.json")
            assert (tmp_path / "map.csv").read_text() == per_cell_template_csv(qmap)
            assert (tmp_path / "map.json").read_text() == sidecar_json(qmap)
            out = tmp_path / "cli.csv"
            args = ["tomography", "--n", str(n), "--state", "oat", "--chit", "0.2", "--kind", kind]
            assert run([*args, "--output", str(out)]) == 0
            assert out.read_text() == per_cell_template_csv(qmap)

    def test_csv_only(self, tmp_path):
        qmap = quasiprobability(coherent(make_space(4), 0.2), "w")
        path = tmp_path / "only.csv"
        export_map(qmap, path)
        assert path.exists()
        assert not (tmp_path / "only.json").exists()


class TestStripTable:
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_matches_clebsch_gordan(self, n):
        j = 0.5 * n
        for q in range(-n, n + 1):
            table = _strip_table(n, q)
            m_lo = -j if q >= 0 else -j - q
            ms = m_lo + np.arange(n + 1 - abs(q))
            assert table.shape == (ms.size, ms.size)
            for row, k in enumerate(range(abs(q), n + 1)):
                scale = math.sqrt((2 * k + 1) / (n + 1))
                want = [scale * clebsch_gordan(j, m, k, q, j, m + q) for m in ms]
                np.testing.assert_allclose(table[row], want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [7, 64])
    def test_negative_q_table_is_the_signed_positive_one(self, n):
        for q in range(1, n + 1):
            np.testing.assert_array_equal(_strip_table(n, -q), (-1) ** q * _strip_table(n, q))

    @pytest.mark.parametrize("q", [0, 1, -1, 300, -300, 600, -600])
    def test_orthonormal_at_large_n(self, q):
        table = _strip_table(600, q)
        defect = np.max(np.abs(table @ table.T - np.eye(table.shape[0])))
        assert defect <= 1e-10


class TestDecompositionAtLargeN:
    @pytest.mark.parametrize("n", [64, 200])
    def test_round_trip_and_parseval(self, n):
        rng = np.random.default_rng(n)
        rho = random_mixed(make_space(n), rng)
        dec = decompose(rho)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert np.sum(np.abs(dec.coefficients) ** 2) == pytest.approx(purity, rel=1e-12)
        back = reconstruct(dec)
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12

    def test_twisted_state_maps(self):
        """Q against direct coherent overlaps, and unit W and Q integrals, at N=200.

        P is left out: its rank weights 1/f_k(Q) reach C(2N+1, N)^(1/2),
        about 1.6e14 at N=48, so rounding in exact multipoles already moves
        the P integral off 1 from N of about 48.
        """
        n = 200
        state = oat_evolve(coherent(make_space(n), math.pi / 2, 0.3), n ** (-2.0 / 3.0))
        dec = decompose(state)
        assert render_map(dec, "w").sphere_integral() == pytest.approx(1.0, abs=1e-12)
        qmap = render_map(dec, "q")
        assert qmap.sphere_integral() == pytest.approx(1.0, abs=1e-12)
        rows, cols = np.arange(0, qmap.theta.size, 6), np.arange(0, qmap.phi.size, 6)
        direct = np.array(
            [[coherent_overlap_q(state, qmap.theta[i], qmap.phi[k]) for k in cols] for i in rows]
        )
        assert np.max(np.abs(qmap.values[np.ix_(rows, cols)] - direct)) < 1e-8
