"""Measurement models, classical Fisher information, and phase estimators.

A MeasurementModel bundles probe state, phase generator, analysis
rotations and measurement basis into the outcome distribution P(mu|theta).
On top of it live the classical Fisher information (finite differences),
the Hellinger and Bures distances, inverse-CDF Monte-Carlo sampling, and
the maximum-likelihood / method-of-moments / Bayesian estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spinspace import KetState, MixedState, _count, _d_matrix, _delta, _delta_times, _euler, _real
from .spinspace import _real_times, _size, _su2, _unit_axis
from .states import _count_moments

__all__ = [
    "MeasurementModel",
    "OutcomeDistribution",
    "SampleSet",
    "EstimateResult",
    "DegenerateEstimateError",
    "outcome_distribution",
    "fisher_information",
    "hellinger",
    "fisher_from_hellinger",
    "quantum_fidelity",
    "bures",
    "sample",
    "estimate",
]

_P_FLOOR = 1e-14  # outcomes below this probability are dropped from Fisher sums
_BLOCK = 128  # phases per block of a probability table, from the first phase on
_FLUSH = 2.0**-511  # smaller ket table inputs are zeroed, so no product is subnormal (a stall)


def _phase_table(m: np.ndarray, th: np.ndarray) -> np.ndarray:
    """e^{-i m theta} as an (m.size, theta.size) table for labels m rising in unit steps, by
    angle addition m_{kB+l} = (m_0 + kB) + l from one exp table of about 2 sqrt(m.size) rows."""
    b = math.isqrt(m.size - 1) + 1
    a = -(-m.size // b)
    z = np.exp(-1j * np.outer(np.concatenate((m[0] + b * np.arange(a), np.arange(b))), th))
    return (z[:a, None, :] * z[None, a:, :]).reshape(a * b, th.size)[: m.size]


class DegenerateEstimateError(RuntimeError):
    """The observed sample has zero likelihood everywhere on the window."""


@dataclass(frozen=True)
class MeasurementModel:
    """Interferometer model P(mu|theta) = |<mu| R_pipeline e^{-i theta J_g} |psi>|^2.

    The pipeline rotations are applied in listed order after the phase
    imprint; outcomes label the eigenbasis of the collective spin along
    measurement_axis.  A positive detection_sigma convolves the ideal
    distribution with a discretized Gaussian of that rms width (and gain
    detection_eta), extending the outcome lattice by ceil(5 sigma) steps
    on each side.

    U_meas^dag R_pipeline U_gen is one rotation e^{-iA J_z} e^{-iB J_y} e^{-iG J_z}; A
    drops out of |amp|^2 and G moves onto the probe, so a ket needs two real Wigner matrices
    d^j from tridiagonal eigensolves (one for a z generator), and a table of T phases O(T N^2).
    Construction checks the axes and pipeline once and keeps the angles it composes them into;
    the build reads those.  A mixed probe's table is a DFT over the bands d of rho,
    Re sum_d e^{-i theta d} H[mu, d] (the generator spectrum is exactly m): O(N^3) once per
    model, then O(T N^2).  Phase
    factors take about 2 sqrt(N) T exponentials (angle addition); ket inputs below 2^-511
    are zeroed and the detection kernel is stored times 2^600, so that no product is
    subnormal: real GEMMs set a table's cost.  A ket holds d^j(pi/2) as the parity halves of
    spinspace's shared Delta, so a Ramsey ket table (B = pi/2) costs half a dense one; a mixed
    probe or a general B takes a dense d^j.  Per model, each estimator window caches its
    outcome-major log P and mean-outcome curve, and `sample` the CDF of its last phase.
    Tables run in blocks of _BLOCK phases from the first phase, into one output; a window
    fills its log table by the same blocks, so a cold table peaks at about 1.45x its log P
    (N=4000, 2001 phases: 88.5 MiB for 61 MiB, about 1.5 s on one BLAS thread)."""

    probe: KetState | MixedState
    generator_axis: tuple[float, float, float]
    pipeline: tuple[tuple[tuple[float, float, float], float], ...]
    measurement_axis: tuple[float, float, float]
    theta_grid: np.ndarray
    detection_sigma: float = 0.0
    detection_eta: float = 1.0

    def __post_init__(self):
        if not isinstance(self.probe, (KetState, MixedState)):
            raise ValueError(f"probe must be a KetState or MixedState, got {type(self.probe).__name__}")
        # e^{-i alpha J_z} e^{-i beta J_y} takes z onto the axis of azimuth alpha, polar angle beta
        tilts = []
        for name in ("generator_axis", "measurement_axis"):
            try:
                n = _unit_axis(getattr(self, name))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None
            tilts.append((math.atan2(n[1], n[0]), math.atan2(math.hypot(n[0], n[1]), n[2])))
        (alpha_g, beta_g), (alpha_m, beta_m) = tilts
        # U_g must be exact; the column phases of the measurement basis only phase outcomes
        r = _su2((0.0, 0.0, 1.0), alpha_g) @ _su2((0.0, 1.0, 0.0), beta_g)
        object.__setattr__(self, "pipeline", tuple(self.pipeline))
        for i, entry in enumerate(self.pipeline):
            try:
                r = _su2(*entry) @ r
            except (TypeError, ValueError) as exc:
                raise ValueError(f"pipeline[{i}] must be an (axis, finite angle) pair: {exc}") from None
        r = _su2((0.0, 1.0, 0.0), -beta_m) @ _su2((0.0, 0.0, 1.0), -alpha_m) @ r
        # r ~ e^{-iA J_z} e^{-iB J_y} e^{-iG J_z}; A only phases the outcomes
        object.__setattr__(self, "_angles", (alpha_g, beta_g, *_euler(r)[1:]))
        grid = np.array(self.theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("theta_grid must hold at least two points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("theta_grid must be finite")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("theta_grid must be strictly ascending")
        grid.flags.writeable = False
        object.__setattr__(self, "theta_grid", grid)
        _real(self.detection_sigma, "detection_sigma", low=0.0)
        _real(self.detection_eta, "detection_eta", positive=True)

    @cached_property
    def _cache(self) -> dict:
        # estimator windows and repeated sampling phases recur across repetitions
        return {}

    @cached_property
    def _machinery(self):
        m, (alpha_g, beta_g, big_b, big_g) = self.probe.space.m_labels, self._angles
        space, ket = self.probe.space, isinstance(self.probe, KetState)

        def d_of(beta):  # a ket reads d^j(pi/2) as the parity halves of the shared Delta
            return _delta(space.n_particles) if ket and beta == 0.5 * math.pi else _d_matrix(space, beta)

        w = d_of(big_b)
        d_g = None if beta_g == 0.0 else w if big_b == beta_g else d_of(beta_g)

        def lift(x):  # d(beta_g)^T x; d^j(0) is exactly the identity, so a z generator solves none
            if isinstance(d_g, tuple):
                return _delta_times(x, True, d_g)
            return x if d_g is None else _real_times(d_g.T, x)

        tilt = np.exp(1j * alpha_g * m)  # U_g^dag = d(beta_g)^T e^{i alpha_g J_z}
        coeff = bands = None
        if ket:
            coeff = np.exp(-1j * big_g * m) * lift(tilt * self.probe.amplitudes)
            coeff.view(float)[np.abs(coeff.view(float)) < _FLUSH] = 0.0
        else:
            rho_e = tilt[:, None] * self.probe.matrix * tilt.conj()[None, :]
            rho_g = lift(lift(rho_e).conj().T)
            # H[mu, d] = sum_l w[mu, l+d] rho_g[l+d, l] w[mu, l], doubled for d >= 1
            h = np.empty((m.size, m.size), dtype=complex)
            for d in range(m.size):
                h[:, d] = _real_times(w[:, d:] * w[:, : m.size - d], np.diagonal(rho_g, -d))
            h[:, 1:] *= 2.0 * np.exp(-1j * big_g * np.arange(1, m.size))
            bands = np.concatenate((h.real.T, h.imag.T))
        values = m
        kernel = None
        if self.detection_sigma > 0.0:
            ext = math.ceil(5.0 * self.detection_sigma)
            lattice = np.concatenate(
                [values[0] - np.arange(ext, 0, -1), values, values[-1] + np.arange(1, ext + 1)]
            )
            diff = lattice[:, None] - self.detection_eta * values[None, :]
            kernel = np.exp(-0.5 * (diff / self.detection_sigma) ** 2)
            # stored times 2^600 so that no product of the table GEMM is subnormal (a stall);
            # rows of P sum to 1 and entries are <= 1, so sums stay <= 2^600 (any s <~ 1000)
            kernel /= kernel.sum(axis=0, keepdims=True)
            kernel *= 2.0**600
            values = lattice
        return w, coeff, bands, values, kernel

    @property
    def outcome_values(self) -> np.ndarray:
        """Measured labels: spin projections, extended when detection noise is on."""
        return self._machinery[3]

    def probabilities(self, thetas) -> np.ndarray:
        """Row-stochastic matrix P[i, mu] for each requested phase; phases must be finite."""
        th = np.atleast_1d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(th)):
            raise ValueError("theta must be finite")
        w, coeff, bands, _, kernel = self._machinery
        m = self.probe.space.m_labels
        # a ket's |amp|^2 arrives transposed: F order keeps each block's passes contiguous
        probs = np.empty((th.size, m.size), order="F" if coeff is not None else "C")
        for start in range(0, th.size, _BLOCK):
            block, rows = th[start : start + _BLOCK], probs[start : start + _BLOCK]
            if coeff is not None:
                amps = _phase_table(m, block)
                amps *= coeff[:, None]
                amps = _delta_times(amps, False, w) if isinstance(w, tuple) else _real_times(w, amps)
                np.square(np.abs(amps).T, out=rows)
            else:
                # cos - i sin of theta d; C-ordered rows, since an F-ordered GEMM rounds differently
                dft = _phase_table(np.arange(m.size, dtype=float), block).T
                trig = np.ascontiguousarray(np.hstack((dft.real, -dft.imag)))
                np.clip(trig @ bands, 0.0, None, out=rows)
        if kernel is not None:
            probs = probs @ kernel.T
            probs *= 2.0**-600
        return probs


@dataclass(frozen=True)
class OutcomeDistribution:
    """P(mu|theta) at one phase, with the outcome labels."""

    theta: float
    values: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class SampleSet:
    """Outcome indices (into the model's outcome_values) from one run."""

    theta_true: float
    seed: int
    outcomes: np.ndarray = field(repr=False)

    @property
    def nu(self) -> int:
        return int(self.outcomes.size)


def outcome_distribution(model: MeasurementModel, theta: float) -> OutcomeDistribution:
    """Exact outcome distribution at one phase."""
    probs = model.probabilities(_real(theta, "theta"))[0]
    return OutcomeDistribution(float(theta), model.outcome_values, probs)


def fisher_information(model: MeasurementModel, theta: float, dtheta: float | None = None) -> float:
    """Classical Fisher information by central differences.

    F = sum over outcomes of (dP/dtheta)^2 / P, dropping outcomes with
    P < 1e-14; the default step is 1e-4/sqrt(N).
    """
    grid = model.theta_grid
    _real(theta, "theta", low=grid[0] - 1e-12, high=grid[-1] + 1e-12)
    if dtheta is None:
        dtheta = 1e-4 / math.sqrt(model.probe.space.n_particles)
    _real(dtheta, "dtheta", positive=True)
    p0, pp, pm = model.probabilities([theta, theta + dtheta, theta - dtheta])
    mask = p0 >= _P_FLOOR
    deriv = (pp[mask] - pm[mask]) / (2.0 * dtheta)
    return float(np.sum(deriv**2 / p0[mask]))


def hellinger(model: MeasurementModel, theta0: float, theta: float) -> float:
    """Squared Hellinger distance 1 - sum sqrt(P(mu|theta0) P(mu|theta))."""
    p, q = model.probabilities([_real(theta0, "theta0"), _real(theta, "theta")])
    return float(max(0.0, 1.0 - np.sum(np.sqrt(p * q))))


def fisher_from_hellinger(
    model: MeasurementModel, theta0: float, window: float, fit_degree: int = 4
) -> float:
    """Fisher information as a statistical speed: 8x the quadratic growth
    of the squared Hellinger distance around theta0.

    Uses the model grid points within +-window of theta0; at least 7 of
    them, symmetric about theta0, are required.
    """
    theta0, window = _real(theta0, "theta0"), _real(window, "window", positive=True)
    fit_degree = _count(fit_degree, "fit_degree", low=2)
    grid = model.theta_grid
    sel = grid[np.abs(grid - theta0) <= window * (1.0 + 1e-12)]
    if sel.size < 7:
        raise ValueError("window must contain at least 7 grid points")
    delta = sel - theta0
    if np.max(np.abs(np.sort(delta) + np.sort(delta)[::-1])) > 1e-9 * max(window, 1.0):
        raise ValueError("window grid points must be symmetric about theta0")
    probs = model.probabilities(np.concatenate(([theta0], sel)))
    d2 = np.maximum(0.0, 1.0 - np.sum(np.sqrt(probs[0] * probs[1:]), axis=1))
    coeffs = np.polynomial.polynomial.polyfit(delta, d2, deg=fit_degree)
    return float(8.0 * coeffs[2])


def quantum_fidelity(state_a, state_b) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)); |<psi|phi>| on kets.

    Two mixed states read it as ||sqrt(rho) sqrt(sigma)||_1 (Jozsa 1994), the sum of the
    singular values of diag(sqrt q) v^dag u diag(sqrt p) from their cached spectra (q, v) and
    (p, u): no square root of a rounding-level eigenvalue of sqrt(rho) sigma sqrt(rho) enters."""
    if state_a.space.dim != state_b.space.dim:
        raise ValueError("states live on different spaces")
    if isinstance(state_a, KetState) and isinstance(state_b, KetState):
        return float(abs(np.vdot(state_a.amplitudes, state_b.amplitudes)))
    if isinstance(state_a, KetState):
        state_a, state_b = state_b, state_a
    if isinstance(state_b, KetState):
        val = np.real(np.vdot(state_b.amplitudes, state_a.matrix @ state_b.amplitudes))
        return float(math.sqrt(max(0.0, val)))
    (q, v), (p, u) = state_a._eigen, state_b._eigen
    cross = np.sqrt(np.clip(q, 0.0, None))[:, None] * (v.conj().T @ u) * np.sqrt(np.clip(p, 0.0, None))
    return float(np.sum(np.linalg.svd(cross, compute_uv=False)))


def bures(state_a, state_b) -> float:
    """Squared Bures distance 1 - fidelity."""
    return max(0.0, 1.0 - quantum_fidelity(state_a, state_b))


def sample(model: MeasurementModel, theta_true: float, nu: int, seed: int) -> SampleSet:
    """nu independent inverse-CDF draws from P(mu|theta_true); the model keeps this CDF."""
    theta, slot = float(_real(theta_true, "theta")), model._cache.get("cdf")
    nu, seed = _count(nu, "nu"), _size(seed, "seed", low=0)
    if slot is None or slot[0] != theta:
        slot = model._cache["cdf"] = (theta, np.cumsum(model.probabilities(theta)[0]))
    cdf = slot[1]
    rng = np.random.default_rng(seed)
    draws = rng.random(nu) * cdf[-1]
    idx = np.minimum(np.searchsorted(cdf, draws, side="right"), cdf.size - 1)
    return SampleSet(theta_true=theta, seed=seed, outcomes=idx.astype(np.int64))


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with its reported one-sigma uncertainty."""

    theta_hat: float
    uncertainty: float
    method: str
    nu: int
    interval: tuple[float, float] | None = None


def _window_table(model: MeasurementModel, lo: float, hi: float, count: int):
    """Grid, outcome-major table log P[mu, theta] and mean-outcome curve for one window."""
    key = (lo, hi, count)
    table = model._cache.get(key)
    if table is None:
        grid, values = np.linspace(lo, hi, count), model.outcome_values
        # contiguous rows per outcome, filled in the blocks of `probabilities`; log 0 = -inf
        logp_t, curve = np.empty((values.size, count)), np.empty(count)
        for start in range(0, count, _BLOCK):
            cols = slice(start, start + _BLOCK)
            probs = model.probabilities(grid[cols])
            with np.errstate(divide="ignore"):
                np.log(probs.T, out=logp_t[:, cols])
            np.matmul(probs, values, out=curve[cols])
        table = model._cache[key] = (grid, logp_t, curve)
    return table


def _log_likelihood(logp_t: np.ndarray, model: MeasurementModel, samples: SampleSet) -> np.ndarray:
    counts = np.bincount(samples.outcomes, minlength=model.outcome_values.size).astype(float)
    used = counts > 0
    return counts[used] @ logp_t[used]


def estimate(
    samples: SampleSet,
    model: MeasurementModel,
    method: str,
    window: tuple[float, float] | None = None,
    grid_points: int = 2001,
    circular: bool = False,
) -> EstimateResult:
    """Phase estimate from a sample set.

    method = "mle":     grid argmax of the log likelihood over the window
                        (2001 points by default) with quadratic refinement
                        through the best three points, ties toward smaller
                        theta; the uncertainty is the Cramer-Rao value
                        1/sqrt(nu F(theta_hat)).
    method = "moments": inverts the monotonic mean-outcome curve at the
                        sample mean; uncertainty by error propagation,
                        Delta mu / (sqrt(nu) |d<mu>/dtheta|).
    method = "bayes":   flat prior on the window; returns the posterior
                        mean and the central 68.27% credible interval
                        (equal tails); circular=True averages e^{i theta}
                        instead when forming the point estimate.
    """
    if method not in ("mle", "moments", "bayes"):
        raise ValueError(f"unknown estimation method {method!r}")
    if window is None:
        window = (float(model.theta_grid[0]), float(model.theta_grid[-1]))
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("window must be a finite ascending pair")
    grid, logp_t, curve = _window_table(model, lo, hi, _count(grid_points, "grid_points", low=5))
    nu = samples.nu

    if method == "moments":
        values = model.outcome_values
        dcurve = np.diff(curve)
        if not (np.all(dcurve > 0.0) or np.all(dcurve < 0.0)):
            raise ValueError("mean outcome is not monotonic on the window")
        sample_mean = float(np.mean(values[samples.outcomes]))
        if dcurve[0] > 0.0:
            theta_hat = float(np.interp(sample_mean, curve, grid))
        else:
            theta_hat = float(np.interp(sample_mean, curve[::-1], grid[::-1]))
        i = int(np.clip(np.searchsorted(grid, theta_hat), 1, grid.size - 2))
        slope = (curve[i + 1] - curve[i - 1]) / (grid[i + 1] - grid[i - 1])
        var_mu = _count_moments(model.probabilities(theta_hat)[0], values)[1]
        if slope == 0.0:
            raise DegenerateEstimateError("flat mean-outcome curve at the estimate")
        unc = math.sqrt(var_mu) / (math.sqrt(nu) * abs(slope))
        return EstimateResult(theta_hat, unc, "moments", nu)

    loglik = _log_likelihood(logp_t, model, samples)
    peak = float(np.max(loglik))
    if not math.isfinite(peak):
        raise DegenerateEstimateError("sample has zero likelihood on the whole window")

    if method == "mle":
        i = int(np.argmax(loglik))  # first maximum: ties go to smaller theta
        theta_hat = float(grid[i])
        if 0 < i < grid.size - 1:
            lm, l0, lp = loglik[i - 1], loglik[i], loglik[i + 1]
            if math.isfinite(lm) and math.isfinite(lp):
                denom = lm - 2.0 * l0 + lp
                if denom < 0.0:
                    step = 0.5 * (lm - lp) / denom
                    theta_hat = float(grid[i] + step * (grid[1] - grid[0]))
                    theta_hat = min(max(theta_hat, float(grid[i - 1])), float(grid[i + 1]))
        span = model.theta_grid
        t_f = min(max(theta_hat, float(span[0])), float(span[-1]))
        fisher = fisher_information(model, t_f)
        unc = 1.0 / math.sqrt(nu * fisher) if fisher > 0.0 else math.inf
        return EstimateResult(theta_hat, unc, "mle", nu)

    # bayes
    post = np.exp(loglik - peak)
    total = float(np.sum(post))
    if total <= 0.0:
        raise DegenerateEstimateError("posterior vanishes on the whole window")
    post /= total
    if circular:
        mean_phase = complex(np.sum(post * np.exp(1j * grid)))
        theta_hat = float(np.angle(mean_phase))
    else:
        theta_hat = float(np.sum(post * grid))
    cdf = np.cumsum(post)
    cdf /= cdf[-1]
    lo_q = float(np.interp(0.5 - 0.682689 / 2.0, cdf, grid))
    hi_q = float(np.interp(0.5 + 0.682689 / 2.0, cdf, grid))
    return EstimateResult(theta_hat, 0.5 * (hi_q - lo_q), "bayes", nu, interval=(lo_q, hi_q))
