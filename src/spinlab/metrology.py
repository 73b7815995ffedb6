"""Entanglement quantifiers and noise bounds for collective spins.

Quantum Fisher information (pure and mixed), the metrological / minimal /
number / Dicke squeezing parameters, the collective-variance entanglement
witnesses, the Bell-correlation witness, EPR quadrature criteria, the
collective-dephasing channel and the standard sensitivity floors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .spinspace import (
    HermitianOperator,
    KetState,
    MixedState,
    _density,
    _fix_sign,
    _raise,
    _require_same_space,
    _unit_axis,
    variance,
)
from .states import PairBasisState, ThreeModeState, pair_sx2_bands

__all__ = [
    "SqueezingReport",
    "WitnessReport",
    "EprReport",
    "SensitivityFloors",
    "qfi",
    "optimal_generator_direction",
    "perpendicular_qfi",
    "squeezing",
    "witnesses",
    "entanglement_depth_bound",
    "epr_criteria",
    "collective_dephasing",
    "sensitivity_floors",
    "pair_qfi_sx",
    "pair_quadrature_variances",
]

_PAIR_CUTOFF = 1e-12  # relative floor for q_k + q_l in the mixed-state QFI
_ORTHO_TOL = 1e-9
_MEAN_TOL = 1e-10


def _qfi_weights(state: MixedState) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors v of rho, from the state's cached spectrum, and the weights
    2 (q_k - q_l)^2/(q_k + q_l), so that F_Q[H] = sum w |(v^dag H v)_kl|^2; couples
    whose combined weight falls below 1e-12 of the trace get weight 0."""
    q, v = state._eigen
    q = np.clip(q, 0.0, None)
    qs = q[:, None] + q[None, :]
    mask = qs > _PAIR_CUTOFF * float(q.sum())
    diff2 = (q[:, None] - q[None, :]) ** 2
    w = np.zeros_like(qs)
    w[mask] = 2.0 * diff2[mask] / qs[mask]
    return v, w


def _weighted_overlaps(w: np.ndarray, hs) -> np.ndarray:
    """Matrix M_ab = sum_kl w_kl Re(h_a[k, l] h_b[k, l]^*) of generators h_a projected
    onto the eigenbasis of rho, so the mixed-state QFI of sum_a x_a H_a is x^T M x."""
    out = np.empty((len(hs), len(hs)))
    for a in range(len(hs)):
        for b in range(a, len(hs)):
            out[a, b] = out[b, a] = float(np.sum(w * np.real(hs[a] * hs[b].conj())))
    return out


def qfi(state, generator: HermitianOperator) -> float:
    """Quantum Fisher information for the phase of exp(-i theta H).

    Pure states: 4 Var(H).  Mixed states: 2 sum over eigenpair couples of
    (q_k - q_l)^2/(q_k + q_l) |<k|H|l>|^2, dropping couples whose combined weight falls
    below 1e-12 of the trace.
    """
    if not isinstance(generator, HermitianOperator):
        raise ValueError("generator must be a HermitianOperator")
    _require_same_space(state, generator)
    if isinstance(state, KetState):
        return 4.0 * variance(state, generator)
    v, w = _qfi_weights(state)
    return float(_weighted_overlaps(w, [v.conj().T @ generator.matrix @ v])[0, 0])


def _gamma_matrix(state) -> np.ndarray:
    """3x3 matrix whose quadratic form gives the QFI of n . J rotations.

    Pure states: 4 Cov(J_a, J_b) from the state's banded moments.  Mixed
    states: the QFI weights against v^dag J_a v, where J_+ v is applied from
    the band and J_x, J_y follow from v^dag J_+ v and its adjoint.
    """
    if isinstance(state, KetState):
        return 4.0 * state._moments.covariance
    v, w = _qfi_weights(state)
    vh = v.conj().T
    up = vh @ _raise(state.space, v)
    rot = [(up + up.conj().T) / 2.0, (up - up.conj().T) / 2.0j, (vh * state.space.m_labels) @ v]
    return _weighted_overlaps(w, rot)


def optimal_generator_direction(state) -> tuple[np.ndarray, float]:
    """Rotation axis maximizing the QFI, with the attained value.

    Top eigenpair of the 3x3 moment matrix; the axis sign is fixed by
    making its largest-magnitude component positive.
    """
    vals, vecs = np.linalg.eigh(_gamma_matrix(state))
    return _fix_sign(vecs[:, -1]), float(vals[-1])


def _mean_axis(state, mean_axis) -> np.ndarray | None:
    """mean_axis as a unit vector when given, else <J>/|<J>|, or None when |<J>| <= 1e-10 N."""
    if mean_axis is not None:
        return _unit_axis(mean_axis)
    means = state._moments.means
    length = float(np.linalg.norm(means))
    return means / length if length > _MEAN_TOL * state.space.n_particles else None


def _cross(a, b) -> np.ndarray:
    """a x b for two 3-sequences of floats, term for term as np.cross forms it."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _transverse_eigh(matrix: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of a symmetric 3x3 matrix projected onto the plane
    orthogonal to the unit axis, and the 3-vector of the smallest."""
    a = axis.tolist()
    seed = (0.0, 0.0, 1.0) if abs(a[2]) < 0.9 else (1.0, 0.0, 0.0)
    e1 = _cross(a, seed)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(a, e1.tolist())
    p = np.vstack([e1, e2])
    block = p @ matrix @ p.T
    vals, vecs = np.linalg.eigh(0.5 * (block + block.T))
    return vals, vecs[0, 0] * e1 + vecs[1, 0] * e2


def perpendicular_qfi(state, mean_axis=None) -> float:
    """QFI maximized over rotation axes orthogonal to the mean spin.

    This is the quantity the twisting closed forms describe.  mean_axis
    defaults to the direction of <J> and must be supplied when the mean
    spin vanishes.
    """
    axis = _mean_axis(state, mean_axis)
    if axis is None:
        raise ValueError("mean spin vanishes; pass mean_axis explicitly")
    return float(_transverse_eigh(_gamma_matrix(state), axis)[0][-1])


@dataclass(frozen=True)
class SqueezingReport:
    """Squeezing parameters of one state.

    Entries that are undefined for the state at hand (metrological and
    minimal squeezing need a nonzero mean spin; Dicke squeezing needs a
    positive denominator) are None rather than infinities, so sweeps stay
    well behaved.
    """

    mean_spin_axis: np.ndarray | None
    squeezing_axis: np.ndarray
    contrast: float
    xi_r2: float | None
    xi_s2: float | None
    xi_n2: float
    xi_n2_custom: float | None
    xi_d2: float | None


def squeezing(state, mean_axis=None, number_axis=None, dicke_axis=None) -> SqueezingReport:
    """Spin-squeezing parameters from exact first and second moments.

    The mean-spin axis s is taken from <J> unless overridden.  xi_S^2 is
    4/N times the smallest covariance eigenvalue in the plane orthogonal
    to s, xi_R^2 = (N/2|<J_s>|)^2 xi_S^2, and the reported squeezing axis
    is the minimizing direction.  xi_N^2 = 4 Var(J_n)/N is quoted at that
    same axis (at the global covariance minimum when the mean spin
    vanishes) and additionally at number_axis when given.  xi_D^2 uses
    n1 = dicke_axis (default z) with denominator <J^2> - N/2 - <J_n1>^2.
    """
    space = state.space
    n = space.n_particles
    mean, cov = state._moments.means, state._moments.covariance
    s_axis = _mean_axis(state, mean_axis)

    if s_axis is None:
        vals, vecs = np.linalg.eigh(cov)
        sq_axis, js = vecs[:, 0], 0.0
    else:
        vals, sq_axis = _transverse_eigh(cov, s_axis)
        js = float(mean @ s_axis)
    var_min = float(vals[0])
    sq_axis = _fix_sign(sq_axis)
    contrast = 2.0 * abs(js) / n
    xi_r2 = xi_s2 = None
    if abs(js) > _MEAN_TOL * n:
        xi_s2 = 4.0 * var_min / n
        xi_r2 = n * var_min / js**2

    xi_n2 = 4.0 * var_min / n
    xi_n2_custom = None
    if number_axis is not None:
        n_axis = _unit_axis(number_axis)
        xi_n2_custom = 4.0 * float(n_axis @ cov @ n_axis) / n

    d_axis = np.array([0.0, 0.0, 1.0]) if dicke_axis is None else _unit_axis(dicke_axis)
    var_d = float(d_axis @ cov @ d_axis)
    mean_d = float(mean @ d_axis)
    j = space.total_spin
    denom = j * (j + 1.0) - n / 2.0 - mean_d**2
    xi_d2 = n * var_d / denom if denom > _MEAN_TOL * n else None

    return SqueezingReport(
        mean_spin_axis=s_axis,
        squeezing_axis=sq_axis,
        contrast=contrast,
        xi_r2=xi_r2,
        xi_s2=xi_s2,
        xi_n2=xi_n2,
        xi_n2_custom=xi_n2_custom,
        xi_d2=xi_d2,
    )


@dataclass(frozen=True)
class WitnessReport:
    """Residuals and flags of the collective-variance and Bell witnesses.

    The residuals of the four variance inequalities are lhs - rhs, so a
    negative residual means the corresponding inequality (satisfied by
    every separable state) is violated.  The pairwise value is positive
    exactly when the pairwise-entanglement criterion fires.  bell_w is the
    Bell witness minimized over the tilt of the readout axis from the
    mean-spin axis toward the low-variance one; the perpendicular and
    monotone threshold criteria are quoted as lhs - rhs with their
    violation flags.
    """

    residual_a: float
    residual_b: float
    residual_c: float
    residual_d: float
    violated_a: bool
    violated_b: bool
    violated_c: bool
    violated_d: bool
    pairwise_value: float
    pairwise_entangled: bool
    bell_w: float
    bell_tilt: float
    bell_correlated: bool
    bell_perp_value: float
    bell_perp_violated: bool
    bell_tanh_value: float
    bell_tanh_violated: bool


def _bell_threshold_tanh(b: float) -> float:
    # 1 - b/artanh(b), limits 0 at b = 0 and 1 at |b| = 1
    mag = abs(b)
    if mag >= 1.0:
        return 1.0
    if mag < 1e-8:
        return mag**2 / 3.0  # series of 1 - b/artanh(b)
    return 1.0 - mag / math.atanh(mag)


def witnesses(state, n1, n2, n3) -> WitnessReport:
    """Evaluate the spin witnesses on an orthonormal axis triple.

    n1 plays the low-variance role in all inequalities and n2 should carry
    the mean spin.  The Bell witness keeps its second moment along n1 and
    is minimized over the tilt of the readout axis from n2 toward n1,
    keeping tau = 0 on the grid so the coherent-state boundary comes out
    exact.
    """
    axes = [_unit_axis(v) for v in (n1, n2, n3)]
    for i in range(3):
        for k in range(i + 1, 3):
            if abs(float(axes[i] @ axes[k])) > _ORTHO_TOL:
                raise ValueError("witness axes must be orthonormal")
    n = state.space.n_particles
    # J_n moments are linear in n: <J_a> = a . <J>, Cov(J_a, J_b) = a^T C b
    frame = np.stack(axes)
    m1, m2, m3 = (float(x) for x in frame @ state._moments.means)
    v1, v2, v3 = (float(frame[i] @ state._moments.covariance @ frame[i]) for i in range(3))
    s1, s2, s3 = v1 + m1**2, v2 + m2**2, v3 + m3**2

    residual_a = n * v1 - (m2**2 + m3**2)
    residual_b = (v1 + v2 + v3) - n / 2.0
    residual_c = (n - 1.0) * v1 - (s2 + s3 - n / 2.0)
    residual_d = (n - 1.0) * (v1 + v2) - (s3 + n * (n - 2.0) / 4.0)

    pairwise_value = (s2 + s3 - n / 2.0) ** 2 + (n - 1.0) ** 2 * m1**2 - (
        s1 + n * (n - 2.0) / 4.0
    ) ** 2

    # Bell witness with the second moment pinned to n1 and the readout axis
    # tilted toward n1 by tau, so the axis overlap is sin(tau):
    #   W(tau) = -|<J_r(tau)>|/(N/2) + sin^2(tau) <J_n1^2>/(N/4) + 1 - sin^2(tau)
    # with r(tau) = n2 cos(tau) + n1 sin(tau); nonnegative without Bell
    # correlations at every tau.
    def bell_w_of(tau: np.ndarray) -> np.ndarray:
        st, ct = np.sin(tau), np.cos(tau)
        readout_mean = ct * m2 + st * m1
        return -np.abs(readout_mean) / (n / 2.0) + st**2 * s1 / (n / 4.0) + 1.0 - st**2

    coarse = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181)
    w_coarse = bell_w_of(coarse)
    i0 = int(np.argmin(w_coarse))
    span = coarse[1] - coarse[0]
    fine = np.linspace(coarse[i0] - span, coarse[i0] + span, 181)
    w_fine = bell_w_of(fine)
    i1 = int(np.argmin(w_fine))
    if w_fine[i1] < w_coarse[i0]:
        bell_w, bell_tilt = float(w_fine[i1]), float(fine[i1])
    else:
        bell_w, bell_tilt = float(w_coarse[i0]), float(coarse[i0])

    bell_perp_value = s1 / (n / 4.0) - 0.5 * (
        1.0 - math.sqrt(max(0.0, 1.0 - (m2 / (n / 2.0)) ** 2))
    )
    bell_tanh_value = s1 / (n / 4.0) - _bell_threshold_tanh(m2 / (n / 2.0))

    return WitnessReport(
        residual_a=residual_a,
        residual_b=residual_b,
        residual_c=residual_c,
        residual_d=residual_d,
        violated_a=residual_a < 0.0,
        violated_b=residual_b < 0.0,
        violated_c=residual_c < 0.0,
        violated_d=residual_d < 0.0,
        pairwise_value=pairwise_value,
        pairwise_entangled=pairwise_value > 0.0,
        bell_w=bell_w,
        bell_tilt=bell_tilt,
        bell_correlated=bell_w < 0.0,
        bell_perp_value=bell_perp_value,
        bell_perp_violated=bell_perp_value < 0.0,
        bell_tanh_value=bell_tanh_value,
        bell_tanh_violated=bell_tanh_value < 0.0,
    )


def _particle_number(n_particles) -> int:
    """n_particles by make_space's integer check: a fraction or None is refused, not truncated."""
    if not isinstance(n_particles, (int, np.integer)) or n_particles < 1:
        raise ValueError(f"need a positive particle number, got {n_particles!r}")
    return int(n_particles)


def entanglement_depth_bound(fisher: float, n_particles: int) -> int:
    """Smallest entanglement depth compatible with a Fisher information.

    k-producible states satisfy F_Q <= s k^2 + r^2 (s = floor(N/k),
    r = N - s k); the returned depth is one more than the largest k whose
    bound is exceeded, from one comparison over k.  F <= N gives 1, F = N^2 gives N.
    """
    n = _particle_number(n_particles)
    if not (isinstance(fisher, numbers.Real) and 0.0 <= fisher <= n**2 * (1.0 + 1e-12)):
        raise ValueError(f"Fisher information must lie in [0, N^2], got {fisher!r}")
    k = np.arange(1, n + 1)
    s, r = np.divmod(n, k)
    return int(k[fisher > s * k**2 + r**2].max(initial=0)) + 1


@dataclass(frozen=True)
class EprReport:
    """Sums, product and flags of the quadrature entanglement criteria."""

    sum_plus: float
    sum_minus: float
    product: float
    mode_entangled: bool
    epr: bool


def epr_criteria(
    v_x_plus: float, v_x_minus: float, v_p_plus: float, v_p_minus: float
) -> EprReport:
    """Two-mode entanglement and EPR flags from four quadrature variances.

    Mode-separable states satisfy V_X^+- + V_P^-+ >= 2 in both pairings;
    non-steerable states satisfy V_X^- V_P^+ >= 1/4.
    """
    vs = (v_x_plus, v_x_minus, v_p_plus, v_p_minus)
    if any(not math.isfinite(v) or v < 0.0 for v in vs):
        raise ValueError("variances must be finite and nonnegative")
    sum_plus = v_x_plus + v_p_minus
    sum_minus = v_x_minus + v_p_plus
    product = v_x_minus * v_p_plus
    return EprReport(
        sum_plus=sum_plus,
        sum_minus=sum_minus,
        product=product,
        mode_entangled=(sum_plus < 2.0) or (sum_minus < 2.0),
        epr=product < 0.25,
    )


def collective_dephasing(state, sigma_pn: float, theta: float | None = None) -> MixedState:
    """Collective phase noise of spread sigma_pn (optionally with mean theta).

    Matrix element (m, m') is multiplied by exp(-sigma^2 (m-m')^2/2), and
    by the rotation phase exp(-i theta (m-m')) when theta is given.  The
    map is diagonal in the Dicke basis, hence trace preserving, and it is
    completely positive (Gaussian-averaged rotations).
    """
    if not (isinstance(sigma_pn, numbers.Real) and math.isfinite(sigma_pn) and sigma_pn >= 0.0):
        raise ValueError(f"sigma_pn must be finite and nonnegative, got {sigma_pn!r}")
    if theta is not None and not (isinstance(theta, numbers.Real) and math.isfinite(theta)):
        raise ValueError(f"theta must be finite or None, got {theta!r}")
    rho, m = _density(state), state.space.m_labels
    dm = m[:, None] - m[None, :]
    kernel = np.exp(-0.5 * sigma_pn**2 * dm**2)
    if theta is not None:
        kernel = kernel * np.exp(-1j * theta * dm)
    return MixedState(state.space, rho * kernel)


@dataclass(frozen=True)
class SensitivityFloors:
    """Lower bounds on the phase uncertainty for N particles and nu shots."""

    loss_bound: float
    phase_noise_bound: float
    sql: float
    hl: float


def sensitivity_floors(
    n_particles: int, eta: float, sigma_pn: float, nu: float = 1.0
) -> SensitivityFloors:
    """Sensitivity floors: particle loss, collective dephasing, SQL and HL.

    Loss with transmission eta bounds Delta theta by
    (1/(sqrt(nu) N)) sqrt(1 + N(1-eta)/eta); collective dephasing of width
    sigma gives sqrt((sigma^2 + 1/N^2)/nu), which does not vanish with N.
    """
    n = _particle_number(n_particles)
    if not (isinstance(eta, numbers.Real) and 0.0 < eta <= 1.0):
        raise ValueError(f"transmission must lie in (0, 1], got {eta!r}")
    if not (isinstance(sigma_pn, numbers.Real) and math.isfinite(sigma_pn) and sigma_pn >= 0.0):
        raise ValueError(f"sigma_pn must be finite and nonnegative, got {sigma_pn!r}")
    if not (isinstance(nu, numbers.Real) and math.isfinite(nu) and nu >= 1.0):
        raise ValueError(f"nu must be finite and at least 1, got {nu!r}")
    root_nu = math.sqrt(nu)
    return SensitivityFloors(
        loss_bound=math.sqrt(1.0 + n * (1.0 - eta) / eta) / (root_nu * n),
        phase_noise_bound=math.sqrt((sigma_pn**2 + 1.0 / n**2) / nu),
        sql=1.0 / math.sqrt(n * nu),
        hl=1.0 / (n * root_nu),
    )


def pair_qfi_sx(state: ThreeModeState) -> float:
    """QFI of a zero-magnetization three-mode state for rotations by S_x.

    S_x changes N_0 by one, so its mean vanishes on the pair basis and
    F_Q = 4 <S_x^2>, evaluated from the magnetization-conserving
    tridiagonal block of S_x^2.
    """
    diag, off = pair_sx2_bands(state.n_particles)
    a = state.amplitudes
    p = np.abs(a) ** 2
    second = float(p @ diag) + 2.0 * float(np.real(np.sum(a[:-1].conj() * off * a[1:])))
    return 4.0 * second


def pair_quadrature_variances(state: PairBasisState, phi: float) -> tuple[float, float, float, float]:
    """(V_X^+, V_X^-, V_P^+, V_P^-) of a pair-correlated two-mode state.

    X_m(phi) = (a_m e^{-i phi} + a_m^dag e^{i phi})/sqrt(2) for the side
    modes m = +-1, P_m = X_m(phi + pi/2), and V^+- are the variances of
    the sum/difference combinations.  On the |n, n> basis every first
    moment vanishes and only <a_+ a_-> = sum_n n c_{n-1}^* c_n survives
    among the cross terms, giving V_X^+- = 1 + 2<n> +- 2 Re(g e^{-2i phi}).
    """
    a = state.amplitudes
    n = np.arange(a.size)
    mean_n = float(np.abs(a) ** 2 @ n)
    g = complex(np.sum(n[1:] * a[:-1].conj() * a[1:]))
    osc = 2.0 * float(np.real(g * np.exp(-2j * phi)))
    base = 1.0 + 2.0 * mean_n
    return base + osc, base - osc, base - osc, base + osc
