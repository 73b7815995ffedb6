"""Outcome distributions, Fisher information routes, distances, estimators."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.stats import binom

from spinlab.dynamics import oat_evolve
from spinlab.estimation import (
    DegenerateEstimateError,
    MeasurementModel,
    SampleSet,
    bures,
    estimate,
    fisher_from_hellinger,
    fisher_information,
    hellinger,
    outcome_distribution,
    quantum_fidelity,
    sample,
)
from spinlab.metrology import collective_dephasing, qfi
from spinlab.spinspace import KetState, MixedState, collective_operator, make_space, rotation
from spinlab.spinspace import _ladder_coeffs, _rotate, _unit_axis, _wigner_d
from spinlab.states import coherent, dicke, noon

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)


def ramsey_model(n, span=0.5, points=201, sigma=0.0, eta=1.0):
    """Equatorial probe, z phase, y readout: binomial fringes with F = N."""
    space = make_space(n)
    return MeasurementModel(
        probe=coherent(space, math.pi / 2, 0.0),
        generator_axis=Z,
        pipeline=(),
        measurement_axis=Y,
        theta_grid=np.linspace(-span, span, points),
        detection_sigma=sigma,
        detection_eta=eta,
    )


def random_model(rng, n=20, sigma=0.0, eta=1.0):
    z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    space = make_space(n)
    axes = rng.normal(size=(3, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return MeasurementModel(
        probe=KetState(space, z / np.linalg.norm(z)),
        generator_axis=tuple(axes[0]),
        pipeline=((tuple(axes[1]), rng.uniform(-1.0, 1.0)),),
        measurement_axis=tuple(axes[2]),
        theta_grid=np.linspace(-1.5, 1.5, 11),
        detection_sigma=sigma,
        detection_eta=eta,
    )


class TestOutcomeDistributions:
    def test_aligned_probe_is_deterministic(self):
        space = make_space(10)
        model = MeasurementModel(
            probe=coherent(space, math.pi / 2, 0.0),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=X,
            theta_grid=np.linspace(-1.0, 1.0, 51),
        )
        dist = outcome_distribution(model, 0.0)
        assert dist.probabilities[-1] == pytest.approx(1.0, abs=1e-12)
        assert dist.values[-1] == pytest.approx(5.0)

    @pytest.mark.parametrize("n", [4, 8])
    def test_cat_state_parity_support(self, n):
        # (|j> + |-j>)/sqrt(2) read along x populates every other rung only
        space = make_space(n)
        model = MeasurementModel(
            probe=noon(space),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=X,
            theta_grid=np.linspace(-1.0, 1.0, 21),
        )
        probs = model.probabilities(0.0)[0]
        m = space.m_labels
        odd = (np.round(space.total_spin - m).astype(int) % 2) == 1
        assert np.all(probs[odd] < 1e-12)
        assert probs[~odd].sum() == pytest.approx(1.0, abs=1e-12)

    def test_cat_state_fringe_period(self):
        n = 8
        space = make_space(n)
        model = MeasurementModel(
            probe=noon(space),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=X,
            theta_grid=np.linspace(-2.0, 2.0, 21),
        )
        p0, p_shift, p_half = model.probabilities([0.13, 0.13 + 2 * math.pi / n, math.pi / n])
        np.testing.assert_allclose(p0, p_shift, atol=1e-12)
        assert np.max(np.abs(model.probabilities(0.0)[0] - p_half)) > 0.1

    def test_rows_are_normalized_with_and_without_noise(self):
        rng = np.random.default_rng(17)
        for sigma, eta in ((0.0, 1.0), (1.3, 0.9), (0.4, 1.0)):
            model = random_model(rng, sigma=sigma, eta=eta)
            probs = model.probabilities(np.linspace(-1.0, 1.0, 7))
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(probs >= 0.0)

    def test_noise_extends_the_outcome_lattice(self):
        clean = ramsey_model(6)
        noisy = ramsey_model(6, sigma=1.0)
        assert noisy.outcome_values.size == clean.outcome_values.size + 2 * 5
        assert noisy.outcome_values[0] == pytest.approx(clean.outcome_values[0] - 5)

    def test_model_validation(self):
        space = make_space(4)
        probe = coherent(space, 1.0)
        with pytest.raises(ValueError):
            MeasurementModel(probe, Z, (), Y, np.array([0.3, 0.1]))
        with pytest.raises(ValueError):
            MeasurementModel(probe, Z, (), Y, np.linspace(0, 1, 9), detection_sigma=-1.0)
        with pytest.raises(ValueError):
            MeasurementModel(probe, Z, (), Y, np.linspace(0, 1, 9), detection_eta=0.0)

    @pytest.mark.parametrize("field", ["detection_sigma", "detection_eta"])
    @pytest.mark.parametrize("value", [None, "1.0", 1j])
    def test_non_real_detection_parameters_are_named(self, field, value):
        probe = coherent(make_space(4), 1.0)
        with pytest.raises(ValueError, match=field):
            MeasurementModel(probe, Z, (), Y, np.linspace(0, 1, 9), **{field: value})


class TestFisherInformation:
    def test_ramsey_fringe_carries_the_projection_noise_information(self):
        model = ramsey_model(50)
        assert fisher_information(model, 0.0) == pytest.approx(50.0, rel=1e-3)
        # binomial fringes keep F = N at every phase
        assert fisher_information(model, 0.3) == pytest.approx(50.0, rel=1e-3)

    def test_bounded_by_the_quantum_value_and_above_the_moment_value(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            model = random_model(rng)
            theta = rng.uniform(-1.0, 1.0)
            f = fisher_information(model, theta)
            gen = collective_operator(model.probe.space, model.generator_axis)
            assert f <= qfi(model.probe, gen) * 1.005 + 1e-9
            d = 1e-4
            values = model.outcome_values
            pm, pp = model.probabilities([theta - d, theta + d])
            slope = ((pp - pm) @ values) / (2 * d)
            p0 = model.probabilities(theta)[0]
            var = float(p0 @ values**2 - (p0 @ values) ** 2)
            if var > 1e-12:
                assert f >= slope**2 / var * (1.0 - 1e-4) - 1e-9

    def test_detection_noise_never_helps(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            seed_model = random_model(rng)
            sigma = rng.uniform(0.3, 1.5)
            eta = rng.uniform(0.85, 1.0)
            noisy = MeasurementModel(
                probe=seed_model.probe,
                generator_axis=seed_model.generator_axis,
                pipeline=seed_model.pipeline,
                measurement_axis=seed_model.measurement_axis,
                theta_grid=seed_model.theta_grid,
                detection_sigma=sigma,
                detection_eta=eta,
            )
            theta = rng.uniform(-0.8, 0.8)
            f_clean = fisher_information(seed_model, theta)
            f_noisy = fisher_information(noisy, theta)
            assert f_noisy <= f_clean * (1.0 + 1e-7) + 1e-9

    def test_rejects_phases_off_the_grid_span(self):
        model = ramsey_model(10, span=0.2)
        with pytest.raises(ValueError):
            fisher_information(model, 0.5)


class TestHellingerRoute:
    def test_distance_properties(self):
        model = ramsey_model(20)
        assert hellinger(model, 0.1, 0.1) == pytest.approx(0.0, abs=1e-14)
        assert hellinger(model, 0.05, 0.21) == pytest.approx(
            hellinger(model, 0.21, 0.05), abs=1e-14
        )
        assert hellinger(model, 0.0, 0.4) > 0.0

    def test_statistical_speed_matches_direct_fisher(self):
        n = 100
        model = ramsey_model(n, span=0.15, points=61)
        window = 0.3 / math.sqrt(n)
        f_h = fisher_from_hellinger(model, 0.0, window)
        f_d = fisher_information(model, 0.0)
        assert f_h == pytest.approx(f_d, rel=0.02)

    def test_window_validation(self):
        model = ramsey_model(10, span=0.15, points=61)
        with pytest.raises(ValueError):
            fisher_from_hellinger(model, 0.0, 0.004)  # fewer than 7 points
        with pytest.raises(ValueError):
            fisher_from_hellinger(model, 0.001, 0.03)  # asymmetric selection
        with pytest.raises(ValueError):
            fisher_from_hellinger(model, 0.0, -0.1)


class TestStateDistances:
    def test_identical_states(self):
        space = make_space(12)
        state = coherent(space, 0.8, 0.3)
        assert quantum_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)
        assert bures(state, state) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_coherent_state_overlap(self):
        from spinlab.spinspace import rotate_state

        n, theta = 30, 0.1
        space = make_space(n)
        a = coherent(space, math.pi / 2, 0.0)
        b = rotate_state(a, Z, theta)
        expected = 1.0 - math.cos(theta / 2.0) ** n
        assert bures(a, b) == pytest.approx(expected, rel=1e-12)
        assert bures(a, b) == pytest.approx(0.0368204, abs=2e-6)

    def test_rotated_cat_overlap(self):
        from spinlab.spinspace import rotate_state

        n, theta = 8, 0.07
        space = make_space(n)
        a = noon(space)
        b = rotate_state(a, Z, theta)
        assert bures(a, b) == pytest.approx(1.0 - abs(math.cos(n * theta / 2)), rel=1e-12)

    def test_mixed_state_routes_are_consistent(self):
        rng = np.random.default_rng(7)
        space = make_space(6)
        z = rng.normal(size=7) + 1j * rng.normal(size=7)
        ket = KetState(space, z / np.linalg.norm(z))
        rho = MixedState(space, ket.density_matrix().matrix)
        other = coherent(space, 1.1, -0.2)
        assert quantum_fidelity(rho, other) == pytest.approx(
            quantum_fidelity(ket, other), abs=1e-10
        )
        assert quantum_fidelity(MixedState(space, np.eye(7) / 7.0), other) == pytest.approx(
            1.0 / math.sqrt(7.0), rel=1e-10
        )

    def test_rejects_mismatched_spaces(self):
        with pytest.raises(ValueError):
            quantum_fidelity(coherent(make_space(4), 0.5), coherent(make_space(6), 0.5))

    @pytest.mark.parametrize("n", [10, 48, 200])
    def test_a_rank_deficient_state_has_unit_self_fidelity(self, n):
        # sqrt(rho) sigma sqrt(rho) of a dephased ket has many rounding-level eigenvalues,
        # whose square roots summed to 1e-8..2e-7 above 1
        rho = collective_dephasing(oat_evolve(coherent(make_space(n), math.pi / 2), 0.1), 0.1)
        assert quantum_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
        assert bures(rho, rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_full_rank_pairs_match_the_square_root_route(self, n):
        rng = np.random.default_rng(900 + n)
        pair = []
        for _ in range(2):
            g = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
            pair.append(MixedState(make_space(n), g @ g.conj().T / np.trace(g @ g.conj().T).real))
        a, b = pair
        # tr sqrt(sqrt(rho) sigma sqrt(rho)) through the square root of rho
        q, v = np.linalg.eigh(a.matrix)
        root = (v * np.sqrt(np.clip(q, 0.0, None))) @ v.conj().T
        inner = root @ b.matrix @ root
        w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
        expected = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
        assert quantum_fidelity(a, b) == pytest.approx(expected, abs=1e-12)
        assert quantum_fidelity(b, a) == pytest.approx(expected, abs=1e-12)


class TestSampling:
    def test_deterministic_distribution_gives_constant_draws(self):
        space = make_space(10)
        model = MeasurementModel(
            probe=coherent(space, math.pi / 2, 0.0),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=X,
            theta_grid=np.linspace(-1.0, 1.0, 51),
        )
        draws = sample(model, 0.0, 100, seed=5)
        assert draws.nu == 100
        assert np.all(draws.outcomes == model.outcome_values.size - 1)

    def test_seed_controls_reproducibility(self):
        model = ramsey_model(12)
        a = sample(model, 0.2, 500, seed=42)
        b = sample(model, 0.2, 500, seed=42)
        c = sample(model, 0.2, 500, seed=43)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
        assert np.any(a.outcomes != c.outcomes)

    def test_histogram_matches_the_distribution(self):
        model = ramsey_model(10)
        nu = 100_000
        draws = sample(model, 0.3, nu, seed=11)
        probs = model.probabilities(0.3)[0]
        counts = np.bincount(draws.outcomes, minlength=probs.size)
        for c, p in zip(counts, probs):
            if p > 1e-3:
                assert abs(c - nu * p) <= 4.0 * math.sqrt(nu * p * (1 - p)) + 1.0

    def test_rejects_empty_runs(self):
        with pytest.raises(ValueError):
            sample(ramsey_model(4), 0.0, 0, seed=1)


class TestPhaseChecks:
    """Phases reach the model through probabilities(), which rejects non-finite ones."""

    MODELS = (
        ramsey_model(6),
        MeasurementModel(
            probe=collective_dephasing(coherent(make_space(6), math.pi / 2, 0.0), 0.1),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=Y,
            theta_grid=np.linspace(-0.5, 0.5, 21),
            detection_sigma=0.5,
        ),
    )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda model, t: model.probabilities([0.0, t]),
            lambda model, t: sample(model, t, 10, seed=1),
            lambda model, t: hellinger(model, 0.0, t),
            lambda model, t: hellinger(model, t, 0.0),
            lambda model, t: outcome_distribution(model, t),
            lambda model, t: fisher_information(model, t),
        ],
        ids=["probabilities", "sample", "hellinger-theta", "hellinger-theta0", "outcome", "fisher"],
    )
    def test_non_finite_phases_raise(self, call, bad):
        for model in self.MODELS:
            with pytest.raises(ValueError):
                call(model, bad)

    def test_the_model_holds_a_copy_of_its_grid(self):
        grid = np.linspace(-0.5, 0.5, 21)
        view = grid[:]
        model = MeasurementModel(
            probe=coherent(make_space(6), math.pi / 2, 0.0),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=Y,
            theta_grid=grid,
        )
        assert grid.flags.writeable and not model.theta_grid.flags.writeable
        view[:] = 0.0
        assert model.theta_grid[0] == -0.5 and model.theta_grid[-1] == 0.5

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("probe", "coherent", "probe must be a KetState or MixedState"),
            ("generator_axis", (0.0, 0.0, 0.0), "generator_axis: axis has zero length"),
            ("measurement_axis", (0.0, 2.0, 0.0), "measurement_axis: axis must be a finite unit"),
            ("pipeline", ((X, math.nan),), r"pipeline\[0\] .*angle must be finite"),
            ("pipeline", ((X, 0.3), (Y,)), r"pipeline\[1\] must be an \(axis, finite angle\) pair"),
            ("pipeline", ((X, "a quarter turn"),), r"pipeline\[0\]"),
        ],
        ids=["str-probe", "zero-generator", "long-measurement", "nan-angle", "one-element", "str-angle"],
    )
    def test_a_bad_model_fails_at_construction(self, field, value, match):
        fields = dict(
            probe=coherent(make_space(6), math.pi / 2, 0.0),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=Y,
            theta_grid=np.linspace(-0.5, 0.5, 21),
        )
        fields[field] = value
        with pytest.raises(ValueError, match=match):
            MeasurementModel(**fields)

    def test_a_pipeline_iterator_is_held_as_a_tuple(self):
        model = MeasurementModel(
            probe=coherent(make_space(6), math.pi / 2, 0.0),
            generator_axis=Z,
            pipeline=iter([(X, 0.3)]),
            measurement_axis=Y,
            theta_grid=np.linspace(-0.5, 0.5, 21),
        )
        assert model.pipeline == ((X, 0.3),)
        rotated = MeasurementModel(model.probe, Z, ((X, 0.3),), Y, model.theta_grid)
        np.testing.assert_array_equal(model.probabilities([0.1]), rotated.probabilities([0.1]))

    def test_an_infinite_step_reaches_the_phase_check(self):
        with pytest.raises(ValueError, match="theta must be finite"):
            fisher_information(self.MODELS[0], 0.0, dtheta=math.inf)

    @pytest.mark.parametrize("dtheta", [0.0, -1e-4, math.nan])
    def test_fisher_information_rejects_a_non_positive_step(self, dtheta):
        with pytest.raises(ValueError, match="dtheta must be positive"):
            fisher_information(self.MODELS[0], 0.0, dtheta)


class TestEstimators:
    def test_moment_inversion_reaches_projection_noise(self):
        n, nu = 50, 100_000
        model = ramsey_model(n)
        draws = sample(model, 0.02, nu, seed=3)
        result = estimate(draws, model, "moments", window=(-0.3, 0.3))
        target = 1.0 / math.sqrt(nu * n)
        assert result.uncertainty == pytest.approx(target, rel=0.05)
        assert abs(result.theta_hat - 0.02) < 5.0 * target
        assert result.method == "moments" and result.nu == nu

    def test_moments_rejects_non_monotonic_windows(self):
        model = ramsey_model(10, span=3.0, points=301)
        draws = sample(model, 0.1, 50, seed=9)
        with pytest.raises(ValueError):
            estimate(draws, model, "moments", window=(-3.0, 3.0))

    def test_mle_tracks_the_cramer_rao_bound(self):
        n, nu, reps = 50, 10_000, 200
        model = ramsey_model(n)
        theta_true = 0.05
        hats = []
        for r in range(reps):
            draws = sample(model, theta_true, nu, seed=1000 + r)
            res = estimate(draws, model, "mle", window=(-0.3, 0.4))
            hats.append(res.theta_hat)
        hats = np.asarray(hats)
        crb_var = 1.0 / (nu * n)
        assert np.var(hats) == pytest.approx(crb_var, rel=0.25)
        assert abs(np.mean(hats) - theta_true) < 4.0 * math.sqrt(crb_var / reps)

    def test_mle_reports_the_cramer_rao_uncertainty(self):
        model = ramsey_model(20)
        draws = sample(model, 0.1, 5000, seed=21)
        res = estimate(draws, model, "mle", window=(-0.3, 0.3))
        assert res.uncertainty == pytest.approx(1.0 / math.sqrt(5000 * 20.0), rel=1e-3)

    def test_bayes_posterior_is_asymptotically_gaussian(self):
        n, nu = 50, 10_000
        model = ramsey_model(n)
        theta_true = 0.0
        draws = sample(model, theta_true, nu, seed=8)
        window = (-0.05, 0.05)
        res = estimate(draws, model, "bayes", window=window, grid_points=2001)
        sigma = 1.0 / math.sqrt(nu * n)
        assert res.uncertainty == pytest.approx(sigma, rel=0.10)
        assert res.interval[0] < res.theta_hat < res.interval[1]

        # independent posterior rebuild, then a CDF comparison against the
        # matched normal
        grid = np.linspace(window[0], window[1], 2001)
        probs = model.probabilities(grid)
        counts = np.bincount(draws.outcomes, minlength=model.outcome_values.size)
        with np.errstate(divide="ignore"):
            loglik = np.log(probs) @ counts
        post = np.exp(loglik - loglik.max())
        post /= post.sum()
        cdf = np.cumsum(post)
        normal = 0.5 * (1.0 + np.vectorize(math.erf)((grid - res.theta_hat) / (sigma * math.sqrt(2.0))))
        assert np.max(np.abs(cdf - normal)) < 0.05

    def test_degenerate_likelihood_raises(self):
        space = make_space(6)
        model = MeasurementModel(
            probe=dicke(space, 3),
            generator_axis=Z,
            pipeline=(),
            measurement_axis=Z,
            theta_grid=np.linspace(-1.0, 1.0, 21),
        )
        impossible = SampleSet(theta_true=0.0, seed=0, outcomes=np.zeros(5, dtype=np.int64))
        with pytest.raises(DegenerateEstimateError):
            estimate(impossible, model, "mle")

    def test_circular_point_estimate(self):
        model = ramsey_model(16)
        draws = sample(model, 0.0, 2000, seed=13)
        res = estimate(draws, model, "bayes", window=(-0.4, 0.4), circular=True)
        assert abs(res.theta_hat) < 0.05

    def test_estimate_validation(self):
        model = ramsey_model(6)
        draws = sample(model, 0.0, 10, seed=2)
        with pytest.raises(ValueError):
            estimate(draws, model, "maximum")
        with pytest.raises(ValueError):
            estimate(draws, model, "mle", window=(0.4, -0.4))
        with pytest.raises(ValueError):
            estimate(draws, model, "mle", grid_points=3)


def blur(probs, model):
    """Test-local detection noise: a discretized Gaussian per ideal outcome."""
    values = model.probe.space.m_labels
    diff = model.outcome_values[:, None] - model.detection_eta * values[None, :]
    kernel = np.exp(-0.5 * (diff / model.detection_sigma) ** 2)
    return probs @ (kernel / kernel.sum(axis=0, keepdims=True)).T


def _eigenbasis(space, axis):
    """Eigenvectors of J_n as columns, for the eigenvalues m = -j..j in order.

    With phi = arg(n_x - i n_y) and D = diag(e^{i k phi}), D^dag J_n D is
    real tridiagonal (diagonal n_z m, off-diagonal |n_perp| c_k / 2), so one
    real tridiagonal eigensolve gives the basis D W.  The spectrum of a
    rotated J_z is exactly m = -j..j with unit gaps, so the columns are
    well conditioned and the labels need not be computed.
    """
    n = _unit_axis(axis)
    n = n / np.linalg.norm(n)
    side = complex(n[0], -n[1])
    _, w = eigh_tridiagonal(n[2] * space.m_labels, 0.5 * abs(side) * _ladder_coeffs(space))
    gauge = np.exp(1j * np.angle(side) * np.arange(space.dim))
    return gauge[:, None] * w


def dense_ket_table(model, thetas):
    """|m_vecs^dag R_pipe g_vecs (e^{-i theta m} g_vecs^dag psi)|^2 from dense matrices."""
    space = model.probe.space
    g_vecs = _eigenbasis(space, model.generator_axis)
    r_pipe = np.eye(space.dim, dtype=complex)
    for axis, angle in model.pipeline:
        r_pipe = rotation(space, axis, angle) @ r_pipe
    w = _eigenbasis(space, model.measurement_axis).conj().T @ r_pipe @ g_vecs
    coeff = g_vecs.conj().T @ model.probe.amplitudes
    probs = np.abs((np.exp(-1j * np.outer(thetas, space.m_labels)) * coeff) @ w.T) ** 2
    return blur(probs, model) if model.detection_sigma > 0.0 else probs


def einsum_mixed_table(model, thetas):
    """The (phase, outcome, basis) einsum over rho in the generator eigenbasis."""
    space = model.probe.space
    g_vecs = _eigenbasis(space, model.generator_axis)
    piped = g_vecs
    for axis, angle in model.pipeline:
        piped = _rotate(space, axis, angle, piped)
    w = _eigenbasis(space, model.measurement_axis).conj().T @ piped
    rho_g = g_vecs.conj().T @ model.probe.matrix @ g_vecs
    a = w[None, :, :] * np.exp(-1j * np.outer(thetas, space.m_labels))[:, None, :]
    probs = np.clip(np.real(np.einsum("tmk,kl,tml->tm", a, rho_g, a.conj())), 0.0, None)
    return blur(probs, model) if model.detection_sigma > 0.0 else probs


def unit(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


MINUS_Z = (0.0, 0.0, -1.0)
# (generator axis, pipeline length, measurement axis, detection sigma); None draws an axis
KET_CASES = [
    (Z, 0, Z, 0.0),  # B = 0
    (Z, 0, MINUS_Z, 1.3),  # B = pi
    (MINUS_Z, 1, Z, 0.0),
    (None, 2, MINUS_Z, 0.0),
    (None, 3, None, 1.3),
    (MINUS_Z, 3, MINUS_Z, 0.7),
]


class TestWignerRoutes:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_ket_tables_match_the_dense_product(self, n):
        rng = np.random.default_rng(100 + n)
        space = make_space(n)
        thetas = np.linspace(-2.5, 2.5, 9)
        for gen, length, meas, sigma in KET_CASES:
            z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            model = MeasurementModel(
                probe=KetState(space, z / np.linalg.norm(z)),
                generator_axis=gen or unit(rng),
                pipeline=tuple((unit(rng), rng.uniform(-3.0, 3.0)) for _ in range(length)),
                measurement_axis=meas or unit(rng),
                theta_grid=np.linspace(-1.0, 1.0, 5),
                detection_sigma=sigma,
            )
            np.testing.assert_allclose(
                model.probabilities(thetas), dense_ket_table(model, thetas), rtol=0.0, atol=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 7, 48])
    def test_mixed_tables_match_the_einsum_route(self, n):
        rng = np.random.default_rng(200 + n)
        space = make_space(n)
        thetas = np.linspace(-2.5, 2.5, 9)
        for trial, (gen, meas) in enumerate([(None, None), (Z, MINUS_Z), (MINUS_Z, None)]):
            a = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
            rho = a @ a.conj().T
            model = MeasurementModel(
                probe=MixedState(space, rho / np.trace(rho).real),
                generator_axis=gen or unit(rng),
                pipeline=((unit(rng), rng.uniform(-3.0, 3.0)),),
                measurement_axis=meas or unit(rng),
                theta_grid=np.linspace(-1.0, 1.0, 5),
                detection_sigma=1.3 * (trial % 2),
            )
            np.testing.assert_allclose(
                model.probabilities(thetas), einsum_mixed_table(model, thetas), rtol=0.0, atol=1e-13
            )

    def test_coherent_ramsey_at_n_4000_is_binomial(self):
        n = 4000
        model = ramsey_model(n, span=0.05, points=11)
        thetas = np.array([-0.03, 0.0, 0.02])
        probs = model.probabilities(thetas)
        # each atom of the equatorial probe at azimuth theta reads +1/2 along y
        # with probability (1 + sin theta)/2, and mu + N/2 counts those atoms
        for theta, row in zip(thetas, probs):
            ref = binom.pmf(np.arange(n + 1), n, 0.5 * (1.0 + math.sin(theta)))
            np.testing.assert_allclose(row, ref, rtol=0.0, atol=1e-6 * ref.max())
        for theta in (0.0, 0.02):
            assert fisher_information(model, theta) == pytest.approx(n, rel=1e-6)

    def test_cli_estimate_model_solves_one_wigner_matrix(self, monkeypatch):
        import spinlab.spinspace as spinspace

        betas = []
        solve = spinspace._wigner_d

        def counted(space, beta):
            betas.append(beta)
            return solve(space, beta)

        # every d^j solve, whether the model asks for it or the shared Delta cache does
        monkeypatch.setattr(spinspace, "_wigner_d", counted)
        probe = coherent(make_space(30), 0.5 * math.pi, 0.0)
        grid = np.linspace(-0.3, 0.3, 5)
        spinspace._delta.cache_clear()
        MeasurementModel(probe, Y, (), Z, grid).probabilities([0.1])
        assert betas == [0.5 * math.pi]
        MeasurementModel(probe, Y, (), Z, grid).probabilities([0.1])
        assert betas == [0.5 * math.pi]
        # Ramsey: B = pi/2 reads Delta, and the generator's d^j(0) is the identity: nothing solved
        MeasurementModel(probe, Z, (), Y, grid).probabilities([0.1])
        assert betas == [0.5 * math.pi]

    @pytest.mark.parametrize("n", [1, 2, 7, 400])
    def test_delta_backed_tables_equal_fresh_wigner_tables(self, n, monkeypatch):
        import spinlab.estimation as estimation
        import spinlab.spinspace as spinspace

        space = make_space(n)
        thetas = np.linspace(-0.4, 0.4, 41)
        models = [
            ramsey_model(n),
            ramsey_model(n, sigma=1.5),
            MeasurementModel(coherent(space, 0.5 * math.pi, 0.0), Y, (), Z, thetas),
        ]
        delta_backed = [model.probabilities(thetas) for model in models]
        # fresh: the halves of a Delta solved again, past the cache
        monkeypatch.setattr(estimation, "_delta", spinspace._delta.__wrapped__)
        for model, table in zip(models, delta_backed):
            fresh = MeasurementModel(
                model.probe, model.generator_axis, model.pipeline, model.measurement_axis,
                model.theta_grid, model.detection_sigma, model.detection_eta,
            )
            assert np.array_equal(table, fresh.probabilities(thetas))


class TestDeltaHalvesInModels:
    """A ket model reads d^j(pi/2) as the parity halves of Delta; the dense route is the same
    model given the eigensolved Delta as one matrix."""

    SPECS = {
        "ramsey": (Z, (), Y, 0.0),
        "ramsey-detection-noise": (Z, (), Y, 1.5),
        "y-generator": (Y, (), Z, 0.0),
        "y-generator-piped": (Y, ((X, 0.4),), Z, 0.0),  # a general B: only the lift takes halves
        "x-generator": (X, (), Z, 1.5),
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 41, 400])
    @pytest.mark.parametrize("name", SPECS)
    def test_tables_and_lifts_agree_with_the_dense_route(self, n, name, monkeypatch):
        import spinlab.estimation as estimation

        gen, pipeline, meas, sigma = self.SPECS[name]
        probe = oat_evolve(coherent(make_space(n), 0.5 * math.pi, 0.0), 0.3 * n ** (-2.0 / 3.0))
        thetas = np.linspace(-0.4, 0.4, 41)
        args = (probe, gen, pipeline, meas, thetas, sigma)
        halves = MeasurementModel(*args)
        assert isinstance(halves._machinery[0], tuple) == (name != "y-generator-piped")
        probs, coeff = halves.probabilities(thetas), halves._machinery[1]
        monkeypatch.setattr(estimation, "_delta", lambda size: _wigner_d(make_space(size), 0.5 * math.pi))
        dense = MeasurementModel(*args)
        assert isinstance(dense._machinery[0], np.ndarray)
        np.testing.assert_allclose(probs, dense.probabilities(thetas), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(coeff, dense._machinery[1], rtol=0.0, atol=1e-13)

    def test_delta_is_solved_once_per_n(self, monkeypatch):
        import spinlab.spinspace as spinspace

        solves, solve = [], spinspace._wigner_d

        def counted(space, beta):
            solves.append((space.n_particles, beta))
            return solve(space, beta)

        monkeypatch.setattr(spinspace, "_wigner_d", counted)
        spinspace._delta.cache_clear()
        space = make_space(30)
        probe = coherent(space, 0.7, 0.2)
        thetas = np.linspace(-0.3, 0.3, 5)
        for gen, meas in ((Z, Y), (Y, Z), (X, Z)):
            for state in (probe, probe.density_matrix()):
                MeasurementModel(state, gen, (), meas, thetas).probabilities(thetas)
        rotation(space, (0.48, 0.6, 0.64), 0.3)
        _rotate(space, X, 0.3, probe.amplitudes[:, None])
        assert solves == [(30, 0.5 * math.pi)]


class TestBatchedHellingerFit:
    @pytest.mark.parametrize("mixed", [False, True])
    def test_equals_the_per_point_loop(self, mixed):
        n, theta0 = 60, 0.01
        model = ramsey_model(n, span=0.15, points=61)
        if mixed:
            probe = collective_dephasing(model.probe, 0.1)
            model = MeasurementModel(probe, Z, (), Y, model.theta_grid)
        window = 0.3 / math.sqrt(n)
        grid = model.theta_grid
        sel = grid[np.abs(grid - theta0) <= window * (1.0 + 1e-12)]
        d2 = [hellinger(model, theta0, t) for t in sel]
        coeffs = np.polynomial.polynomial.polyfit(sel - theta0, d2, deg=4)
        assert fisher_from_hellinger(model, theta0, window) == pytest.approx(
            8.0 * coeffs[2], rel=1e-12
        )


class TestTableKernels:
    @pytest.mark.parametrize("n", [1, 2, 7, 400, 4000])
    def test_phase_table_matches_direct_exp(self, n):
        from spinlab.estimation import _phase_table

        thetas = np.linspace(-math.pi, math.pi, 101)
        # the ket labels -j..j and the mixed DFT labels 0..N
        for m in (make_space(n).m_labels, np.arange(n + 1, dtype=float)):
            table = _phase_table(m, thetas)
            direct = np.exp(-1j * np.outer(m, thetas))
            bound = 4.0 * (1.0 + np.max(np.abs(m)) * np.abs(thetas)) * np.finfo(float).eps
            assert table.shape == direct.shape
            assert np.all(np.abs(table - direct) <= bound[None, :])

    def test_scaled_kernel_equals_the_unscaled_product(self):
        thetas = np.linspace(-0.5, 0.5, 401)
        noisy = ramsey_model(400, sigma=1.5)
        ref = blur(ramsey_model(400).probabilities(thetas), noisy)
        probs = noisy.probabilities(thetas)
        normal = ref >= 2.0**-1022
        assert np.array_equal(probs[normal], ref[normal])

    def test_wide_kernel_at_n_4000_keeps_rows_stochastic(self):
        model = ramsey_model(4000, span=0.05, points=11, sigma=20.0)
        probs = model.probabilities([-0.03, 0.0, 0.02])
        assert np.all(np.isfinite(probs))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_moments_on_a_warm_window_match_a_fresh_model(self, sigma):
        warm = ramsey_model(40, sigma=sigma)
        draws = sample(warm, 0.05, 500, seed=3)
        first = estimate(draws, warm, "moments", window=(-0.3, 0.3))
        estimate(sample(warm, -0.1, 500, seed=4), warm, "moments", window=(-0.3, 0.3))
        again = estimate(draws, warm, "moments", window=(-0.3, 0.3))
        fresh = estimate(draws, ramsey_model(40, sigma=sigma), "moments", window=(-0.3, 0.3))
        assert first == again == fresh


def dephased_model(n, span=0.5, points=201):
    probe = collective_dephasing(coherent(make_space(n), math.pi / 2, 0.0), 0.1)
    return MeasurementModel(probe, Z, (), Y, np.linspace(-span, span, points))


class TestRepetitionCaches:
    """One sampling CDF per model, and the outcome-major log table of a window."""

    @pytest.mark.parametrize("make", [ramsey_model, dephased_model])
    def test_reused_model_samples_equal_fresh_models(self, make):
        reused = make(30)
        for theta, seed in [(0.1, 5), (-0.2, 6), (0.1, 7), (0.1, 5)]:
            draws = sample(reused, theta, 400, seed)
            np.testing.assert_array_equal(draws.outcomes, sample(make(30), theta, 400, seed).outcomes)
            # one slot, holding the CDF of the last phase
            assert list(reused._cache) == ["cdf"] and reused._cache["cdf"][0] == theta

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_theta_still_raises_and_caches_nothing(self, bad):
        model = ramsey_model(6)
        with pytest.raises(ValueError, match="theta must be finite"):
            sample(model, bad, 10, seed=1)
        assert model._cache == {}
        sample(model, 0.2, 10, seed=1)
        with pytest.raises(ValueError, match="theta must be finite"):
            sample(model, bad, 10, seed=1)
        assert model._cache["cdf"][0] == 0.2

    @pytest.mark.parametrize(
        "make",
        [lambda: ramsey_model(60), lambda: ramsey_model(60, sigma=1.5), lambda: dephased_model(40)],
    )
    def test_row_gather_equals_the_column_gather(self, make):
        from spinlab.estimation import _log_likelihood, _window_table

        model = make()
        grid, logp_t, _ = _window_table(model, -0.3, 0.3, 301)
        probs = model.probabilities(grid)
        with np.errstate(divide="ignore"):
            assert np.array_equal(logp_t, np.log(probs).T)
        assert logp_t.flags.c_contiguous and logp_t.shape == (probs.shape[1], grid.size)
        for theta, nu, seed in [(0.05, 60, 1), (-0.2, 500, 2), (0.0, 5000, 3)]:
            draws = sample(model, theta, nu, seed)
            counts = np.bincount(draws.outcomes, minlength=probs.shape[1]).astype(float)
            used = counts > 0
            expected = logp_t.T[:, used] @ counts[used]
            assert np.array_equal(_log_likelihood(logp_t, model, draws), expected)

    def test_zero_probability_outcome_gives_minus_infinity(self):
        from spinlab.estimation import _log_likelihood, _window_table

        model = MeasurementModel(dicke(make_space(2), 0), Z, (), Z, np.linspace(-1.0, 1.0, 21))
        _, logp_t, _ = _window_table(model, -1.0, 1.0, 21)
        # the probe sits on the readout eigenstate m = 0 at every phase: exact zeros elsewhere
        assert np.all(model.probabilities(np.linspace(-1.0, 1.0, 21))[:, [0, 2]] == 0.0)
        assert np.all(logp_t[[0, 2]] == -np.inf) and np.all(np.abs(logp_t[1]) < 1e-15)
        for outcome in (0, 2):
            impossible = SampleSet(0.0, 0, np.array([1, outcome, 1], dtype=np.int64))
            assert np.all(_log_likelihood(logp_t, model, impossible) == -np.inf)
            for method in ("mle", "bayes"):
                with pytest.raises(DegenerateEstimateError):
                    estimate(impossible, model, method, window=(-1.0, 1.0), grid_points=21)


class TestCountChecks:
    @pytest.mark.parametrize(
        "grid", [[-math.inf, 0.0, math.inf], [0.0, 0.5, math.inf], [math.nan, 0.0, 1.0]]
    )
    def test_non_finite_theta_grid_raises(self, grid):
        with pytest.raises(ValueError, match="theta_grid must be finite"):
            MeasurementModel(coherent(make_space(4), math.pi / 2, 0.0), Z, (), Y, np.array(grid))

    @pytest.mark.parametrize("nu", [2.5, 1000.1, math.inf, math.nan])
    def test_non_integral_nu_raises(self, nu):
        with pytest.raises(ValueError, match="nu must be"):
            sample(ramsey_model(4), 0.0, nu, seed=1)

    @pytest.mark.parametrize("points", [7.9, 2001.5, math.inf, math.nan])
    def test_non_integral_grid_points_raise(self, points):
        model = ramsey_model(4)
        draws = sample(model, 0.0, 10, seed=2)
        with pytest.raises(ValueError, match="grid_points must be"):
            estimate(draws, model, "mle", grid_points=points)

    def test_integral_floats_are_counts(self):
        model = ramsey_model(4)
        draws = sample(model, 0.0, 30.0, seed=2)
        np.testing.assert_array_equal(draws.outcomes, sample(model, 0.0, 30, seed=2).outcomes)
        from_float = estimate(draws, model, "bayes", grid_points=101.0)
        assert from_float == estimate(draws, model, "bayes", grid_points=101)


def unblocked_table(model, thetas):
    """Every phase in one product: one GEMM of the ket amplitudes, or one DFT product of the
    mixed bands, then one kernel product."""
    from spinlab.estimation import _phase_table
    from spinlab.spinspace import _delta_times, _real_times

    w, coeff, bands, _, kernel = model._machinery
    m = model.probe.space.m_labels
    if coeff is not None:
        amps = _phase_table(m, thetas) * coeff[:, None]
        y = _delta_times(amps, False, w) if isinstance(w, tuple) else _real_times(w, amps)
        probs = np.abs(y).T ** 2
    else:
        dft = _phase_table(np.arange(m.size, dtype=float), thetas).T
        probs = np.clip(np.ascontiguousarray(np.hstack((dft.real, -dft.imag))) @ bands, 0.0, None)
    if kernel is not None:
        probs = probs @ kernel.T * 2.0**-600
    return probs


BLOCK_MODELS = {
    "ket": lambda: ramsey_model(60),
    "detection-noise": lambda: ramsey_model(60, sigma=1.5),
    "dephased": lambda: dephased_model(40),
}


class TestPhaseBlocks:
    """Tables are built in fixed blocks of phases, starting at the first phase."""

    @staticmethod
    def grid():
        from spinlab.estimation import _BLOCK

        # three whole blocks and a remainder
        return np.linspace(-0.3, 0.3, 3 * _BLOCK + 37)

    @pytest.mark.parametrize("name", BLOCK_MODELS)
    def test_table_equals_the_stacked_block_calls(self, name):
        from spinlab.estimation import _BLOCK

        model, grid = BLOCK_MODELS[name](), self.grid()
        stacked = np.vstack([model.probabilities(grid[s : s + _BLOCK]) for s in range(0, grid.size, _BLOCK)])
        assert np.array_equal(model.probabilities(grid), stacked)

    @pytest.mark.parametrize("name", BLOCK_MODELS)
    def test_table_agrees_with_the_unblocked_product(self, name):
        model, grid = BLOCK_MODELS[name](), self.grid()
        ref = unblocked_table(model, grid)
        probs = model.probabilities(grid)
        assert probs.shape == ref.shape
        assert np.max(np.abs(probs - ref)) <= 8.0 * np.finfo(float).eps * np.max(ref)

    @pytest.mark.parametrize("name", BLOCK_MODELS)
    def test_window_table_is_the_log_of_the_table(self, name):
        from spinlab.estimation import _window_table

        model, grid = BLOCK_MODELS[name](), self.grid()
        window, logp_t, curve = _window_table(model, float(grid[0]), float(grid[-1]), grid.size)
        probs = model.probabilities(window)
        with np.errstate(divide="ignore"):
            assert np.array_equal(logp_t, np.log(probs).T)
        values = model.outcome_values
        assert np.allclose(curve, probs @ values, rtol=0.0, atol=1e-13 * np.max(np.abs(values)))

    @pytest.mark.parametrize("name", BLOCK_MODELS)
    def test_empty_phase_list_keeps_the_outcome_axis(self, name):
        model = BLOCK_MODELS[name]()
        assert model.probabilities([]).shape == (0, model.outcome_values.size)


def _flush_probes(n):
    space = make_space(n)
    rng = np.random.default_rng(n)
    z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return {
        "coherent": coherent(space, 0.5 * math.pi, 0.0),
        "twisted": oat_evolve(coherent(space, 0.5 * math.pi, 0.0), 0.3 * n ** (-2.0 / 3.0)),
        "dicke": dicke(space, n // 4),
        "random": KetState(space, z / np.linalg.norm(z)),
    }


class TestKetTableFlush:
    """Ket inputs below 2^-511 are zeroed so that no table product is subnormal; against
    the same table unflushed, only probabilities below 1e-250 may move, by less than that."""

    @pytest.mark.parametrize("n", [40, 400, 1000, 2000])
    def test_only_negligible_probabilities_move(self, n, monkeypatch):
        import spinlab.estimation as estimation

        # every model here reads the same few Wigner matrices: solve each once
        solved, solve = {}, estimation._d_matrix

        def once(space, beta):
            if beta not in solved:
                solved[beta] = solve(space, beta)
            return solved[beta]

        monkeypatch.setattr(estimation, "_d_matrix", once)
        thetas = np.linspace(-math.pi, math.pi, 37)
        flushed = 0
        for name, probe in _flush_probes(n).items():
            for pipeline in ((), ((X, 0.4),)):
                args = (probe, Z, pipeline, Y, np.linspace(-1.0, 1.0, 5))
                fresh = MeasurementModel(*args)
                got = fresh.probabilities(thetas)
                with monkeypatch.context() as m:
                    m.setattr(estimation, "_FLUSH", 0.0)
                    plain = MeasurementModel(*args)
                    ref = plain.probabilities(thetas)
                flushed += np.count_nonzero(fresh._machinery[1] != plain._machinery[1])
                big = ref > 1e-250
                assert np.array_equal(got[big], ref[big]), (name, pipeline)
                assert np.all(np.abs(got[~big] - ref[~big]) < 1e-250), (name, pipeline)
        # the equatorial probes reach below 2^-511 from N of about 1000 on
        assert (flushed > 0) == (n >= 1000)

    def test_flushed_inputs_are_zero_or_at_least_the_threshold(self):
        from spinlab.estimation import _FLUSH

        coeff = ramsey_model(2000)._machinery[1].view(float)
        assert np.any(coeff == 0.0)
        assert np.all((coeff == 0.0) | (np.abs(coeff) >= _FLUSH))
