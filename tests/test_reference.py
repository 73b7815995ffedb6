"""Closed-form reference values, checked against independent recomputation.

Each formula in spinlab.reference is re-derived here with mpmath or plain
math so the library expressions are never compared against themselves.
"""

import math

import mpmath
import numpy as np
import pytest

from spinlab.reference import (
    bjj_regime_predictions,
    oat_closed_forms,
    state_benchmarks,
    ProtocolFormulas,
)
from spinlab.states import two_mode_squeezed_vacuum


def oat_oracle(n, chi_t, dps=60):
    """High-precision twisting predictions from the printed expressions."""
    with mpmath.workdps(dps):
        ct = mpmath.mpf(chi_t)
        a = 1 - mpmath.cos(2 * ct) ** (n - 2)
        b = 4 * mpmath.sin(ct) * mpmath.cos(ct) ** (n - 2)
        root = mpmath.sqrt(a * a + b * b)
        xi = (1 + (n - 1) * (a - root) / 4) / mpmath.cos(ct) ** (2 * n - 2)
        fq = 1 + (n - 1) * (a + root) / 4
        contrast = mpmath.cos(ct) ** (n - 1)
        return float(xi), float(fq), float(contrast)


class TestOatClosedForms:
    def test_zero_twisting_is_the_uncorrelated_benchmark(self):
        ref = oat_closed_forms(100, 0.0)
        assert ref.xi_r2 == pytest.approx(1.0, abs=1e-14)
        assert ref.fq_over_n == pytest.approx(1.0, abs=1e-14)
        assert ref.contrast == 1.0

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("chi_t", [0.01, 0.05, 0.3, 0.7, 1.0, 1.4])
    def test_matches_high_precision_recomputation(self, n, chi_t):
        xi, fq, contrast = oat_oracle(n, chi_t)
        ref = oat_closed_forms(n, chi_t)
        assert ref.xi_r2 == pytest.approx(xi, rel=1e-10)
        assert ref.fq_over_n == pytest.approx(fq, rel=1e-10)
        assert ref.contrast == pytest.approx(contrast, rel=1e-12)

    def test_plateau_value(self):
        # deep inside the twisting window the Fisher density saturates at
        # (N+1)/2, i.e. F_Q = N(N+1)/2
        ref = oat_closed_forms(100, 0.5)
        assert ref.fq_over_n * 100 == pytest.approx(100 * 101 / 2, rel=1e-9)

    def test_intermediate_quantities_are_consistent(self):
        n, chi_t = 30, 0.2
        ref = oat_closed_forms(n, chi_t)
        assert ref.delta == pytest.approx(0.5 * math.atan2(ref.b, ref.a), rel=1e-13)
        assert ref.contrast == pytest.approx(math.cos(chi_t) ** (n - 1), rel=1e-13)
        root = math.hypot(ref.a, ref.b)
        assert ref.xi_r2 == pytest.approx(
            (1 + (n - 1) * (ref.a - root) / 4) / math.cos(chi_t) ** (2 * n - 2),
            rel=1e-12,
        )
        assert ref.fq_over_n == pytest.approx(
            1 + (n - 1) * (ref.a + root) / 4, rel=1e-12
        )


class TestBjjRegimes:
    def test_rabi_regime(self):
        reg = bjj_regime_predictions(1000, 0.05)
        assert reg.regime == "rabi"
        assert reg.xi_r2 == pytest.approx(1 / math.sqrt(1.05), rel=1e-12)

    def test_lambda_zero_branches_agree(self):
        plus = bjj_regime_predictions(1000, 1e-9)
        minus = bjj_regime_predictions(1000, -1e-9)
        assert plus.xi_r2 == pytest.approx(1.0, abs=1e-9)
        assert minus.xi_r2 == pytest.approx(1.0, abs=1e-9)

    def test_josephson_regime(self):
        reg = bjj_regime_predictions(10_000, 100.0)
        assert reg.regime == "josephson"
        assert reg.fq_over_n == pytest.approx(10.0, rel=1e-12)
        assert reg.xi_r2 == pytest.approx(0.1, rel=1e-12)

    def test_fock_regime(self):
        even = bjj_regime_predictions(100, 10.0 * 100**2)
        assert even.regime == "fock"
        assert even.xi_r2 == pytest.approx(2 / 102, rel=1e-12)
        assert even.fq_over_n == pytest.approx(51.0, rel=1e-12)
        odd = bjj_regime_predictions(101, 10.0 * 101**2)
        assert odd.fq_over_n is None or odd.fq_over_n != even.fq_over_n

    def test_ordered_attractive_regime(self):
        reg = bjj_regime_predictions(100, -5.0)
        assert reg.fq_over_n == pytest.approx(100 * (1 - 1 / 25), rel=1e-12)
        assert reg.fq_over_n == pytest.approx(96.0, rel=1e-12)

    def test_attractive_squeezing_branch(self):
        reg = bjj_regime_predictions(1000, -0.5)
        assert reg.xi_r2 == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_crossover_has_no_closed_form(self):
        reg = bjj_regime_predictions(100, 5000.0)
        assert reg.regime == "crossover"
        assert reg.xi_r2 is None and reg.fq_over_n is None


class TestStateBenchmarks:
    @pytest.mark.parametrize("n", [4, 20, 100])
    def test_benchmark_table(self, n):
        bench = state_benchmarks(n)
        assert bench.noon_qfi == n**2
        assert bench.w_qfi == 3 * n - 2
        assert bench.dicke_qfi(0) == pytest.approx(n**2 / 2 + n, rel=1e-14)
        # the one-hole Dicke state and the W benchmark are the same number
        assert bench.dicke_qfi(n / 2 - 1) == pytest.approx(3 * n - 2, rel=1e-12)
        assert bench.fock_input_qfi(n / 2) == pytest.approx(
            n * n / 2 + n / 2 + n / 2, rel=1e-14
        )

    def test_squeezing_floor(self):
        assert state_benchmarks(2).xi_r2_floor == pytest.approx(0.5, rel=1e-14)
        assert state_benchmarks(50).xi_r2_floor == pytest.approx(2 / 52, rel=1e-14)

    def test_twin_fock_phase_variance(self):
        bench = state_benchmarks(10)
        assert bench.twin_fock_phase_var(0.0, nu=1.0) == pytest.approx(
            2 / (100 + 20), rel=1e-14
        )
        assert bench.twin_fock_phase_var(0.0, nu=400.0) == pytest.approx(
            2 / (400 * 120), rel=1e-14
        )

    def test_css_overlap_is_cosine_power(self):
        bench = state_benchmarks(30)
        assert bench.css_overlap(0.1) == pytest.approx(
            math.cos(0.05) ** 30, rel=1e-13
        )


class TestProtocolFormulas:
    def test_qnd_coupling_and_conditional_moments(self):
        assert ProtocolFormulas.qnd_kappa_squared(100, 400, 0.1) == pytest.approx(
            400 * 100 * 0.01 / 4, rel=1e-14
        )
        # kappa = 0 leaves the projection-noise variance untouched
        assert ProtocolFormulas.qnd_conditional_var(0.0, 100) == pytest.approx(25.0)
        kappa = 0.8
        assert ProtocolFormulas.qnd_conditional_var(kappa, 100) == pytest.approx(
            100 / (4 * (1 + kappa**2)), rel=1e-14
        )
        assert ProtocolFormulas.qnd_conditional_mean(0.0, kappa, 100, 400) == 0.0

    def test_heralded_state_limits(self):
        n = 100
        # one heralded photon at vanishing rotation leaves a single
        # collective excitation, whose Fisher density is (3N-2)/N
        assert ProtocolFormulas.heralded_qfi_over_n(n, 1e-4, "h") == pytest.approx(
            (3 * n - 2) / n, rel=1e-5
        )
        # when the rotation fully scrambles the photon polarization the two
        # heralding branches coincide
        h = ProtocolFormulas.heralded_qfi_over_n(n, math.pi / 2, "h")
        v = ProtocolFormulas.heralded_qfi_over_n(n, math.pi / 2, "v")
        assert h == pytest.approx(v, rel=1e-12)
        assert h == pytest.approx(1 + (n - 1), rel=1e-12)

    def test_parity_fringe_fisher(self):
        n = 40
        theta = math.pi / (2 * n)
        assert ProtocolFormulas.ghz_parity_fisher(n, 1.0, theta) == pytest.approx(
            n**2, rel=1e-12
        )
        # direct recomputation at generic arguments
        v, th = 0.8, 0.013
        expected = (
            v**2 * n**2 * math.sin(n * th) ** 2 / (1 - v**2 * math.cos(n * th) ** 2)
        )
        assert ProtocolFormulas.ghz_parity_fisher(n, v, th) == pytest.approx(
            expected, rel=1e-12
        )

    def test_pair_interferometer_sensitivity(self):
        p = 2.8
        # best sensitivity sits at the dark fringe
        best = ProtocolFormulas.su11_sensitivity(p, math.pi)
        assert best == pytest.approx(1 / math.sqrt(p * (p + 2)), rel=1e-12)
        theta = 2.5
        expected = math.sqrt(
            (p * (p + 2) * math.cos(theta / 2) ** 2 + 1)
            / (p * (p + 2) * math.sin(theta / 2) ** 2)
        )
        assert ProtocolFormulas.su11_sensitivity(p, theta) == pytest.approx(
            expected, rel=1e-12
        )
        assert math.isinf(ProtocolFormulas.su11_sensitivity(p, 0.0))

    def test_tmsv_quadrature_variances(self):
        r = 0.5
        vxp, vxm, vpp, vpm = ProtocolFormulas.tmsv_quadrature_variances(r, -math.pi / 4)
        assert vxp == pytest.approx(math.exp(2 * r), rel=1e-12)
        assert vxm == pytest.approx(math.exp(-2 * r), rel=1e-12)
        assert vpp == pytest.approx(math.exp(-2 * r), rel=1e-12)
        assert vpm == pytest.approx(math.exp(2 * r), rel=1e-12)
        # generic angle: oscillation sin(2 phi) sinh(2 r) around cosh(2 r)
        phi = 0.3
        got = ProtocolFormulas.tmsv_quadrature_variances(r, phi)
        osc = math.sin(2 * phi) * math.sinh(2 * r)
        assert got[0] == pytest.approx(math.cosh(2 * r) - osc, rel=1e-12)
        assert got[1] == pytest.approx(math.cosh(2 * r) + osc, rel=1e-12)

    def test_quadrature_to_spin_squeezing_map(self):
        assert ProtocolFormulas.xi_r2_from_quadrature(0.25) == pytest.approx(0.5)

    def test_frozen_spin_variances(self):
        n, omega, lam = 1000, 1.0, 0.1
        vz0, vy0 = ProtocolFormulas.frozen_spin_variances(n, omega, lam, 0.0)
        assert vz0 == pytest.approx(n / 4) and vy0 == pytest.approx(n / 4)
        # lam = 0 keeps an isotropic transverse distribution at all times
        vz, vy = ProtocolFormulas.frozen_spin_variances(n, omega, 0.0, 0.77)
        assert vz == pytest.approx(n / 4, rel=1e-12)
        assert vy == pytest.approx(n / 4, rel=1e-12)
        w = omega * math.sqrt(1 + lam)
        t = 0.9
        vz, vy = ProtocolFormulas.frozen_spin_variances(n, omega, lam, t, start="+x")
        assert vz == pytest.approx(
            n / 4 * (math.cos(w * t) ** 2 + (omega / w) ** 2 * math.sin(w * t) ** 2),
            rel=1e-12,
        )
        assert vy == pytest.approx(
            n / 4 * (math.cos(w * t) ** 2 + (w / omega) ** 2 * math.sin(w * t) ** 2),
            rel=1e-12,
        )

    def test_bogoliubov_population_branches(self):
        t = 0.37
        # unstable branch
        alpha, beta = 1.0, 2.0
        om = math.sqrt(beta**2 - alpha**2)
        expected = beta**2 / om**2 * math.sinh(om * t) ** 2
        assert ProtocolFormulas.bogoliubov_pair_population(
            alpha, beta, t
        ) == pytest.approx(expected, rel=1e-12)
        # stable branch
        alpha, beta = 2.0, 1.0
        om = math.sqrt(alpha**2 - beta**2)
        expected = beta**2 / om**2 * math.sin(om * t) ** 2
        assert ProtocolFormulas.bogoliubov_pair_population(
            alpha, beta, t
        ) == pytest.approx(expected, rel=1e-12)
        # the two branches meet the (beta t)^2 boundary value continuously
        boundary = ProtocolFormulas.bogoliubov_pair_population(1.0, 1.0, t)
        assert boundary == pytest.approx(t**2, rel=1e-12)
        near = ProtocolFormulas.bogoliubov_pair_population(1.0, 1.0 + 1e-7, t)
        assert near == pytest.approx(boundary, rel=1e-5)

    def test_pair_amplitudes_reduce_to_squeezed_vacuum_on_resonance(self):
        beta, t = 1.0, 0.8
        amps = ProtocolFormulas.pair_amplitudes(0.0, beta, t, n_max=40)
        tmsv = two_mode_squeezed_vacuum(beta * t, n_max=40)
        np.testing.assert_allclose(amps, tmsv.amplitudes, atol=1e-12)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)

    def test_pair_amplitudes_off_resonance_are_normalized(self):
        amps = ProtocolFormulas.pair_amplitudes(2.0, 1.0, 1.3, n_max=60)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
        # stable regime: occupation stays bounded by beta^2/(alpha^2-beta^2)
        occ = float(np.arange(61) @ (np.abs(amps) ** 2))
        assert occ <= 1.0 / 3.0 + 1e-9

    def test_two_atom_squeezing_value(self):
        alpha = 0.2
        expected = (1 - math.sin(2 * alpha)) / math.cos(2 * alpha) ** 2
        assert ProtocolFormulas.two_atom_xi_r2(alpha) == pytest.approx(
            expected, rel=1e-12
        )
        assert ProtocolFormulas.two_atom_xi_r2(alpha) == pytest.approx(
            0.719725, abs=1e-5
        )
        # algebraic identity of the printed form
        assert expected == pytest.approx(1 / (1 + math.sin(2 * alpha)), rel=1e-12)

    def test_producibility_bound_table(self):
        got = [ProtocolFormulas.producibility_bound(6, k) for k in range(1, 7)]
        assert got == [6, 12, 18, 20, 26, 36]
        for n in (5, 17, 100):
            assert ProtocolFormulas.producibility_bound(n, 1) == n
            assert ProtocolFormulas.producibility_bound(n, n) == n**2


class TestNanRejection:
    """Range checks written as `not x >= 0` reject NaN instead of passing it on."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: state_benchmarks(10).twin_fock_phase_var(0.0, math.nan),
            lambda: state_benchmarks(10).fock_input_qfi(math.nan),
            lambda: ProtocolFormulas.qnd_kappa_squared(math.nan, 10.0, 0.1),
            lambda: ProtocolFormulas.qnd_kappa_squared(10.0, math.nan, 0.1),
            lambda: ProtocolFormulas.qnd_conditional_mean(0.1, 0.2, math.nan, 10.0),
            lambda: ProtocolFormulas.qnd_conditional_mean(0.1, 0.2, 10.0, math.nan),
            lambda: ProtocolFormulas.qnd_conditional_var(0.2, math.nan),
            lambda: ProtocolFormulas.su11_sensitivity(math.nan, 1.0),
            lambda: ProtocolFormulas.tmsv_quadrature_variances(math.nan, 0.2),
            lambda: ProtocolFormulas.xi_r2_from_quadrature(math.nan),
            lambda: ProtocolFormulas.frozen_spin_variances(math.nan, 1.0, 0.5, 0.3),
            lambda: ProtocolFormulas.frozen_spin_variances(100.0, math.nan, 0.5, 0.3),
            lambda: ProtocolFormulas.frozen_spin_variances(100.0, 1.0, math.nan, 0.3),
        ],
        ids=[
            "twin-fock-nu",
            "fock-input-n_a",
            "qnd-kappa-atoms",
            "qnd-kappa-photons",
            "qnd-mean-atoms",
            "qnd-mean-photons",
            "qnd-var-atoms",
            "su11-scattered",
            "tmsv-r",
            "xi-r2-var",
            "frozen-atoms",
            "frozen-omega",
            "frozen-lambda",
        ],
    )
    def test_nan_is_rejected(self, call):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["alpha", "beta", "t", "phi0"])
def test_pair_closed_forms_reject_non_finite_inputs(slot, bad):
    args = {"alpha": 1.0, "beta": 1.5, "t": 0.5, "phi0": 0.2}
    args[slot] = bad
    if slot != "phi0":
        with pytest.raises(ValueError, match="finite"):
            ProtocolFormulas.bogoliubov_pair_population(args["alpha"], args["beta"], args["t"])
    with pytest.raises(ValueError, match="finite"):
        ProtocolFormulas.pair_amplitudes(n_max=3, **args)
