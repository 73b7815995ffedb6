"""Exact time evolution under the entangling Hamiltonians.

Propagators apply exp(-i H t) in the eigenbasis of H, so states reach any time
without stepping error.  The spin-mixing spectrum comes from one cached
tridiagonal eigensolve per Hamiltonian; junction and custom Hamiltonians are
diagonalized per call, and one-axis twisting is a diagonal phase in the Dicke
basis.  hbar = 1, times are quoted in units of the relevant coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spinspace import HermitianOperator, KetState, _real, _real_times, _size, eigh_tridiagonal
from .states import ThreeModeState, _count_moments, bjj_hamiltonian_bands, pair_hamiltonian_bands

__all__ = [
    "EvolutionSpec",
    "SpectralPropagator",
    "oat_evolve",
    "evolve",
    "su11_scan",
]

_KINDS = ("oat", "bjj", "spin_mixing", "custom")


@dataclass(frozen=True)
class EvolutionSpec:
    """Parameter bundle selecting one of the supported Hamiltonians.

    kind = "oat":         chi_t (dimensionless twisting angle chi*t)
    kind = "bjj":         lam, t, optional omega (Rabi coupling, default 1)
                          and delta_e (energy imbalance, default 0);
                          H = omega * (-J_x + (lam/N) J_z^2 + delta_e J_z)
    kind = "spin_mixing": q, lam_sign, t on the zero-magnetization pair
                          basis, |lam| = 1 fixing the units
    kind = "custom":      hamiltonian (HermitianOperator), t
    """

    kind: str
    chi_t: float | None = None
    omega: float = 1.0
    lam: float | None = None
    delta_e: float = 0.0
    q: float | None = None
    lam_sign: int = -1
    t: float | None = None
    hamiltonian: HermitianOperator | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown evolution kind {self.kind!r}")
        need = {
            "oat": ("chi_t",),
            "bjj": ("lam", "t", "omega", "delta_e"),
            "spin_mixing": ("q", "t"),
            "custom": ("t",),
        }[self.kind]
        for name in need:
            try:
                _real(getattr(self, name), name)
            except ValueError as exc:
                raise ValueError(f"{self.kind} evolution needs finite {name}: {exc}") from None
        if self.kind == "spin_mixing" and self.lam_sign not in (-1, 1):
            raise ValueError("lam_sign must be +1 or -1")
        if self.kind == "custom" and self.hamiltonian is None:
            raise ValueError("custom evolution needs a hamiltonian")


class SpectralPropagator:
    """exp(-i H t) applied through the eigenbasis of H."""

    def __init__(self, energies: np.ndarray, vectors: np.ndarray):
        self.energies = np.asarray(energies, dtype=float)
        self.vectors = np.asarray(vectors)

    @classmethod
    def from_tridiagonal(cls, diag: np.ndarray, off: np.ndarray) -> "SpectralPropagator":
        return cls(*eigh_tridiagonal(diag, off))

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "SpectralPropagator":
        w, v = np.linalg.eigh(matrix)
        return cls(w, v)

    def apply(self, amplitudes: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """exp(-i H t) on a (K,) vector or on each column of a (K, T) block; a 1-D grid
        of T times takes a (K,) vector to the (K, T) block of its states at those times.

        A real eigenbasis multiplies the interleaved float view of complex
        amplitudes in real products, never a complex copy of the K x K vectors.
        """
        x = np.asarray(amplitudes, dtype=complex)
        times = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError("t must be finite")
        if times.ndim > 1 or (times.ndim == 1 and x.ndim != 1):
            raise ValueError("t must be one time, or a 1-D time grid for a (K,) vector")
        block = x[:, None] if x.ndim == 1 else x
        if times.ndim:
            phase, shape = np.exp(-1j * np.outer(self.energies, times)), (x.size, times.size)
        else:
            phase, shape = np.exp(-1j * self.energies * t)[:, None], x.shape
        v = self.vectors
        if np.iscomplexobj(v):
            return (v @ (phase * (v.conj().T @ block))).reshape(shape)
        coeff = _real_times(v.T, block)
        coeff = np.multiply(coeff, phase, out=None if times.ndim else coeff)  # a grid widens coeff
        return _real_times(v, coeff).reshape(shape)


@lru_cache(maxsize=2)
def _spectrum(n_particles: int, q: float, lam_sign: float) -> SpectralPropagator:
    """Read-only spin-mixing propagator on the pair basis, cached per (N, q, lam_sign)."""
    prop = SpectralPropagator.from_tridiagonal(*pair_hamiltonian_bands(n_particles, q, lam_sign))
    prop.energies.setflags(write=False)
    prop.vectors.setflags(write=False)
    return prop


def oat_evolve(state: KetState, chi_t: float) -> KetState:
    """One-axis twisting exp(-i chi_t J_z^2): amplitude of |m> gains e^{-i chi_t m^2}."""
    phase = np.exp(-1j * _real(chi_t, "chi_t") * state.space.m_labels**2)
    return KetState(state.space, phase * state.amplitudes)


def evolve(state, spec: EvolutionSpec):
    """Propagate a state by exp(-i H t) for the Hamiltonian named in spec.

    KetState inputs pair with "oat", "bjj" and "custom"; ThreeModeState
    inputs pair with "spin_mixing".  Mismatches raise ValueError.
    """
    if spec.kind == "spin_mixing":
        if not isinstance(state, ThreeModeState):
            raise ValueError("spin-mixing evolution acts on a ThreeModeState")
        prop = _spectrum(state.n_particles, float(spec.q), float(spec.lam_sign))
        return ThreeModeState(state.n_particles, prop.apply(state.amplitudes, spec.t))
    if not isinstance(state, KetState):
        raise ValueError(f"{spec.kind} evolution acts on a KetState")
    if spec.kind == "oat":
        return oat_evolve(state, spec.chi_t)
    if spec.kind == "bjj":
        diag, off = bjj_hamiltonian_bands(state.space, spec.lam, spec.delta_e)
        prop = SpectralPropagator.from_tridiagonal(diag, off)
        return KetState(state.space, prop.apply(state.amplitudes, spec.omega * spec.t))
    # custom
    if spec.hamiltonian.space.dim != state.space.dim:
        raise ValueError("hamiltonian space does not match state space")
    prop = SpectralPropagator.from_dense(spec.hamiltonian.matrix)
    return KetState(state.space, prop.apply(state.amplitudes, spec.t))


def su11_scan(
    n_particles: int,
    lam_sign: int,
    q: float,
    t_mix: float,
    theta_grid,
) -> np.ndarray:
    """Pair-population fringe of the mix / phase / mix interferometer.

    Starting from all atoms in m_F = 0, evolve under spin mixing for t_mix,
    imprint the pair-relative phase theta = 2 phi_0 - phi_{+1} - phi_{-1}
    (diagonal exp(-i theta k) on the pair basis, so theta is the phase a
    created pair accumulates against the condensate; the fringe is even and
    2 pi periodic in theta, dark near theta = pi), then mix again for t_mix.
    Returns an (n, 3) array with columns (theta, mean pair population,
    variance of the pair population) for the method-of-moments sensitivity;
    all n phases close as one (N/2+1, n) block through two real GEMMs.
    """
    return _su11(n_particles, lam_sign, q, t_mix, theta_grid)[0]


def _su11(n_particles, lam_sign, q, t_mix, theta_grid) -> tuple[np.ndarray, float]:
    """su11_scan's table and the mean pair number after the first mixing."""
    n_particles = _size(n_particles, "n_particles", even=True)
    _real(t_mix, "t_mix", positive=True)
    EvolutionSpec(kind="spin_mixing", q=q, lam_sign=lam_sign, t=t_mix)  # validates q and lam_sign
    theta = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    prop = _spectrum(n_particles, float(q), float(lam_sign))
    k = np.arange(prop.energies.size)
    opened = ThreeModeState(n_particles, prop.apply(k == 0, t_mix))  # from the k = 0 vacuum
    closed = prop.apply(np.exp(-1j * np.outer(k, theta)) * opened.amplitudes[:, None], t_mix)
    mean, var = _count_moments(np.abs(closed) ** 2, 2.0 * k)
    return np.column_stack((theta, mean, var)), opened.pair_population()[0]
