"""Probe-state factories.

Collective-spin states (coherent, Dicke, NOON, W) are returned as
KetState vectors over a SpinSpace.  Interacting ground states are
obtained by exact diagonalization of the corresponding tridiagonal
Hamiltonians: the two-mode Josephson model in the Dicke basis and the
three-mode spin-mixing model in the zero-magnetization pair basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinspace import (
    _NORM_TOL, KetState, SpinSpace, _fix_sign, _ladder_coeffs, _logfact, _real, _size,
    eigh_tridiagonal,
)

__all__ = [
    "ThreeModeState",
    "PairBasisState",
    "coherent",
    "dicke",
    "twin_fock",
    "noon",
    "w_state",
    "bjj_hamiltonian_bands",
    "bjj_ground_state",
    "pair_hamiltonian_bands",
    "pair_sx2_bands",
    "spin_mixing_ground_state",
    "two_mode_squeezed_vacuum",
]

_TRUNC_TOL = 1e-8


def _pair_dim(n_particles) -> int:
    """Pair-basis dimension N/2 + 1, for a positive even integer N."""
    return _size(n_particles, "n_particles", even=True) // 2 + 1


def _count_moments(p: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance (clipped at 0) of a count taking values[k] with
    probability p[k]; p may carry further columns after axis 0."""
    mean = values @ p
    return mean, np.maximum(values**2 @ p - mean**2, 0.0)


@dataclass(frozen=True)
class ThreeModeState:
    """Zero-magnetization state of three bosonic modes m_F = 0, +1, -1.

    Amplitudes live on the pair basis |k> = |k>_{-1} |N-2k>_0 |k>_{+1},
    k = 0 ... N/2, which spans the sector with N_{+1} = N_{-1}.
    """

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = _pair_dim(self.n_particles)
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (dim,):
            raise ValueError("amplitudes must cover k = 0 ... N/2")
        nrm = float(np.linalg.norm(amp))
        if not abs(nrm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {nrm:.3e} deviates from 1")
        amp.flags.writeable = False
        object.__setattr__(self, "n_particles", int(self.n_particles))
        object.__setattr__(self, "amplitudes", amp)

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(self.n_particles // 2 + 1)

    def mode_populations(self) -> tuple[float, float]:
        """Mean occupations (<N_0>, <N_{+1}> = <N_{-1}>)."""
        p = np.abs(self.amplitudes) ** 2
        k = self.k_values
        n_side = float(p @ k)
        return self.n_particles - 2.0 * n_side, n_side

    def pair_population(self) -> tuple[float, float]:
        """Mean and variance of the transferred population N_{+1} + N_{-1}."""
        mean, var = _count_moments(np.abs(self.amplitudes) ** 2, 2.0 * self.k_values)
        return float(mean), float(var)


@dataclass(frozen=True)
class PairBasisState:
    """Two-mode state with pairwise-equal occupations |n>_{+1}|n>_{-1}.

    The amplitude vector holds c_0 ... c_{n_max}; the truncation is
    accepted when the missing norm 1 - sum |c_n|^2 lies in [-1e-10, 1e-8].
    """

    r: float
    n_max: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _real(self.r, "r", low=0.0)
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] != _size(self.n_max, "n_max", low=0) + 1:
            raise ValueError("amplitudes must cover n = 0 ... n_max")
        deficit = 1.0 - float(np.sum(np.abs(amp) ** 2))
        if not -_NORM_TOL <= deficit <= _TRUNC_TOL:
            raise ValueError(f"truncated norm deficit {deficit:.3e} outside [-1e-10, 1e-8]")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def occupation_moments(self) -> tuple[float, float]:
        """Mean and variance of the single-side occupation N_{+1}."""
        n = np.arange(self.n_max + 1, dtype=float)
        mean, var = _count_moments(np.abs(self.amplitudes) ** 2, n)
        return float(mean), float(var)


def coherent(space: SpinSpace, theta: float, phi: float = 0.0) -> KetState:
    """Coherent spin state with mean spin along (sin t cos p, sin t sin p, cos t).

    Dicke amplitudes are binomial,
    c_m = sqrt(C(N, N/2+m)) cos^{N/2+m}(t/2) sin^{N/2-m}(t/2) e^{-i(m+N/2)p},
    evaluated in log space to stay stable at large N.
    """
    _real(theta, "theta", low=0.0, high=math.pi)
    _real(phi, "phi")
    n = space.n_particles
    j = space.total_spin
    m = space.m_labels
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    if s == 0.0:  # exact pole, log form would produce 0*inf
        amp = np.zeros(space.dim, dtype=complex)
        amp[-1] = 1.0
    elif c == 0.0:
        amp = np.zeros(space.dim, dtype=complex)
        amp[0] = 1.0
    else:
        lbinom = _logfact(n) - (_logfact(j + m) + _logfact(j - m))
        logmag = 0.5 * lbinom + (j + m) * math.log(c) + (j - m) * math.log(s)
        amp = np.exp(logmag) * np.exp(-1j * (m + j) * phi)
    amp = amp / np.linalg.norm(amp)
    return KetState(space, amp)


def dicke(space: SpinSpace, m: float) -> KetState:
    """Dicke basis state |j, m> with j = N/2."""
    x = float(_real(m, "m")) + space.total_spin
    k = round(x)
    if abs(x - k) > 1e-9 or not (0 <= k <= space.n_particles):
        raise ValueError(f"m = {m} is not a Dicke label of this space")
    amp = np.zeros(space.dim, dtype=complex)
    amp[k] = 1.0
    return KetState(space, amp)


def twin_fock(space: SpinSpace) -> KetState:
    """Twin-Fock state |m = 0>, defined for even N."""
    if space.n_particles % 2:
        raise ValueError("twin-Fock state requires an even particle number")
    return dicke(space, 0.0)


def noon(space: SpinSpace, phi: float = 0.0) -> KetState:
    """(|m=N/2> + e^{i phi} |m=-N/2>)/sqrt(2), top amplitude real positive."""
    _real(phi, "phi")
    amp = np.zeros(space.dim, dtype=complex)
    amp[-1] = 1.0 / math.sqrt(2.0)
    amp[0] = np.exp(1j * phi) / math.sqrt(2.0)
    return KetState(space, amp)


def w_state(space: SpinSpace) -> KetState:
    """Symmetric one-flip state |m = N/2 - 1>."""
    return dicke(space, space.total_spin - 1.0)


def bjj_hamiltonian_bands(
    space: SpinSpace, lam: float, delta_e: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal bands of H = -J_x + (lam/N) J_z^2 + delta_e J_z."""
    lam, delta_e = _real(lam, "lam"), _real(delta_e, "delta_e")
    m = space.m_labels
    diag = (lam / space.n_particles) * m**2 + delta_e * m
    return diag, -0.5 * _ladder_coeffs(space)


def bjj_ground_state(space: SpinSpace, lam: float, delta_e: float = 0.0) -> KetState:
    """Ground state of the two-mode Josephson Hamiltonian.

    H = -J_x + (lam/N) J_z^2 + delta_e J_z with the linear coupling as the
    unit of energy.  At delta_e = 0 the Hamiltonian commutes with the m -> -m
    reflection; deep in the attractive regime the lowest doublet is split by
    an exponentially small gap that can fall below the eigensolver's
    resolution, so the even-parity member is selected by explicit projection.
    """
    diag, off = bjj_hamiltonian_bands(space, lam, delta_e)
    if delta_e == 0.0:
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
        even = vecs + vecs[::-1, :]
        norms = np.linalg.norm(even, axis=0)
        vec = even[:, int(np.argmax(norms))]
    else:
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        vec = vecs[:, 0]
    vec = _fix_sign(vec)
    return KetState(space, (vec / np.linalg.norm(vec)).astype(complex))


def pair_hamiltonian_bands(
    n_particles: int, q: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal bands of the spin-mixing Hamiltonian in the pair basis.

    H = [q + lam (2 N_0 - 1)](N_{+1} + N_{-1})
        + 2 lam (a+_{-1} a+_{+1} a_0 a_0 + h.c.)
    restricted to |k> = |k, N-2k, k>; diagonal [q + lam(2(N-2k)-1)] 2k and
    coupling <k+1|H|k> = 2 lam (k+1) sqrt((N-2k)(N-2k-1)).
    """
    k = np.arange(_pair_dim(n_particles), dtype=float)
    q, lam = _real(q, "q"), _real(lam, "lam")
    n0 = n_particles - 2.0 * k
    diag = (q + lam * (2.0 * n0 - 1.0)) * (2.0 * k)
    kk = k[:-1]
    off = 2.0 * lam * (kk + 1.0) * np.sqrt((n_particles - 2.0 * kk) * (n_particles - 2.0 * kk - 1.0))
    return diag, off


def pair_sx2_bands(n_particles: int) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal bands of S_x^2 compressed to the pair basis.

    S_x = (a0+ s + a0 s+)/2 with s = (a_{+1} + a_{-1})/sqrt(2) changes N_0 by
    one, so <S_x> vanishes on any pair-basis state and the variance reduces
    to this magnetization-conserving block of S_x^2.
    """
    k = np.arange(_pair_dim(n_particles), dtype=float)
    n0 = n_particles - 2.0 * k
    diag = 0.25 * ((k + 1.0) * n0 + k * (n0 + 1.0))
    kk = k[1:]
    off = 0.25 * kk * np.sqrt((n_particles - 2.0 * kk + 1.0) * (n_particles - 2.0 * kk + 2.0))
    return diag, off


def spin_mixing_ground_state(n_particles: int, q: float, lam_sign: int = -1) -> ThreeModeState:
    """Ground state of the spin-mixing Hamiltonian at zero magnetization.

    The interaction strength is the unit of energy, lam = sign(lam_sign),
    and q is quoted in units of |lam|.  The phase diagram depends on
    q/(4 N |lam|) only.
    """
    if lam_sign not in (-1, 1):
        raise ValueError("lam_sign must be +1 or -1")
    diag, off = pair_hamiltonian_bands(n_particles, q, float(lam_sign))
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    vec = _fix_sign(vecs[:, 0])
    return ThreeModeState(n_particles, (vec / np.linalg.norm(vec)).astype(complex))


def two_mode_squeezed_vacuum(r: float, n_max: int | None = None) -> PairBasisState:
    """Two-mode squeezed vacuum c_n = (-i tanh r)^n / cosh r over |n, n>.

    The truncation is grown until the missing norm tanh(r)^{2(n_max+1)}
    drops below 1e-8; an explicit n_max only ever enlarges it.
    """
    th = math.tanh(_real(r, "r", low=0.0))
    if th > 0.0:
        needed = math.ceil(math.log(_TRUNC_TOL) / (2.0 * math.log(th))) - 1
        needed = max(needed, 0)
    else:
        needed = 0
    m = needed if n_max is None else max(_size(n_max, "n_max", low=0), needed)
    n = np.arange(m + 1)
    amp = (-1j * th) ** n / math.cosh(r)
    return PairBasisState(r=float(r), n_max=m, amplitudes=amp)
