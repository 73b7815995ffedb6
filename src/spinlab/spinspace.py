"""Symmetric collective-spin Hilbert space: Dicke basis, collective operators,
rotations, and moment evaluation.

The space of N spin-1/2 particles restricted to the fully symmetric sector has dimension N+1
and is spanned by the joint eigenstates |m> of J^2 and J_z with m = -N/2 ... N/2, ordered by
ascending m.  The collective spin is held as the band of J_+ alone (every J_n is
tridiagonal): `collective_operator` returns J_n held as its axis n, its dense matrix is
filled from the band only when read, every moment reader and the QFI of J_n on a ket cost
O(N), and `rotation` and `rotate_state` go through one cached d^j(pi/2) eigensolve per N
(Delta), held as its parity halves at half the flops and bytes of a dense product
(`_delta_times`).  A `MeasurementModel` solves d^j(B) at a general B itself: built from
Delta it costs two dense products, 2-4x the tridiagonal eigensolve (one BLAS thread: 15
against 8 ms at N=400, 150 against 55 ms at N=1000, 1.15 against 0.27 s at N=2000), and the
two routes agree to 1e-13, so both stay.  States are immutable, so each state object runs the
band pass of `_spin_moments` once, on the first read of its `_moments`, and each `MixedState`
its `eigh` once, on the first read of its `_eigen`: (q, v) is then held with the state,
(N+1)^2 complex (16 MB at N=1000), for every QFI and fidelity reader.  Validation at
construction is a separate `eigvalsh`, so a state that is only built pays no `eigh`.  Every
tridiagonal eigensolve in spinlab goes through `eigh_tridiagonal` here, which calls scipy's
compiled LAPACK module alone, loaded on the first solve without scipy.linalg; that is
spinlab's only use of scipy.  Every log-factorial (coherent amplitudes, multipole rank
weights, Clebsch-Gordan terms) is `_logfact` here, from math.lgamma.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SpinSpace",
    "HermitianOperator",
    "KetState",
    "MixedState",
    "MomentData",
    "make_space",
    "collective_operator",
    "jx",
    "jy",
    "jz",
    "jplus",
    "jminus",
    "rotation",
    "rotate_state",
    "apply_unitary",
    "expectation",
    "variance",
    "moments",
    "n_effective",
]

_HERM_TOL = 1e-12
_NORM_TOL = 1e-10


@lru_cache(maxsize=1)
def _flapack():
    """scipy.linalg._flapack from its extension file; the package would add 17 MB and 0.2 s."""
    import scipy

    name, stem = "scipy.linalg._flapack", os.path.join(scipy.__path__[0], "linalg", "_flapack")
    paths = [stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)]
    if name in sys.modules or not paths:  # already loaded, or through the package
        return importlib.import_module(name)
    spec = importlib.util.spec_from_file_location(name, paths[0])
    module = importlib.util.module_from_spec(spec)  # a single-phase extension joins sys.modules
    spec.loader.exec_module(module)
    return module


def _logfact(x) -> np.ndarray:
    """log(x!) elementwise for x >= 0, integral or half-integral, as math.lgamma(x + 1)."""
    x = np.asarray(x, dtype=float)
    return np.reshape([math.lgamma(v + 1.0) for v in x.ravel().tolist()], x.shape)


def eigh_tridiagonal(d, e, select="a", select_range=None):
    """Ascending eigenpairs of the real tridiagonal (d, e), all or select_range=(il, iu) for
    select="i": bitwise scipy.linalg's, from its auto drivers (dstevd; dstebz, dstein)."""
    d, e = np.asarray_chkfinite(d, dtype=float), np.asarray_chkfinite(e, dtype=float)
    if d.size == 1:
        return d[:1].copy(), np.ones((1, 1))
    if select == "a":
        w, v, info = _flapack().dstevd(d, e, compute_v=1)
    else:
        il, iu = select_range
        m, w, block, split, info = _flapack().dstebz(d, e, 2, 0.0, 1.0, il + 1, iu + 1, 0.0, "B")
        if info == 0:
            v, info = _flapack().dstein(d, e, w[:m], block, split)
            order = np.argsort(w[:m])
            w, v = w[order], v[:, order]
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed (LAPACK info={info})")
    return w, v


@dataclass(frozen=True)
class SpinSpace:
    """Symmetric subspace of N qubits with the canonical ascending-m Dicke basis."""

    n_particles: int
    dim: int
    m_labels: np.ndarray = field(repr=False)

    @property
    def total_spin(self) -> float:
        return self.n_particles / 2.0


def make_space(n_particles: int) -> SpinSpace:
    """Construct the collective-spin space for ``n_particles`` >= 1 qubits."""
    if not isinstance(n_particles, (int, np.integer)) or n_particles < 1:
        raise ValueError(f"n_particles must be a positive integer, got {n_particles!r}")
    n = int(n_particles)
    labels = np.arange(n + 1, dtype=float) - n / 2.0
    labels.setflags(write=False)
    return SpinSpace(n_particles=n, dim=n + 1, m_labels=labels)


def _hermitian(space: SpinSpace, matrix) -> np.ndarray:
    """(A + A^dag)/2 as a read-only matrix, for a finite dim x dim matrix A whose
    distance from Hermitian is at most 1e-12 of its largest element (or of 1)."""
    a = np.asarray(matrix, dtype=complex)
    if a.shape != (space.dim, space.dim):
        raise ValueError(f"matrix shape {a.shape} does not match dim {space.dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = np.max(np.abs(a))
    defect = np.max(np.abs(a - a.conj().T))
    if defect > _HERM_TOL * max(scale, 1.0):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e}, scale {scale:.3e})")
    sym = (a + a.conj().T) / 2.0
    sym.setflags(write=False)
    return sym


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix tagged with its space.

    Hermiticity is enforced by symmetrization (A + A^dag)/2 at construction to contain
    floating-point drift; inputs further than 1e-12 of the largest element from Hermitian,
    or with non-finite entries, are rejected.  J_n from `collective_operator` is a private
    subclass held as its axis n, which the readers take through the O(N) band route.
    """

    space: SpinSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _hermitian(self.space, self.matrix))


@dataclass(frozen=True)
class KetState:
    """Pure state: complex amplitude vector over the basis of its space (a copy, read-only)."""

    space: SpinSpace
    amplitudes: np.ndarray = field(repr=False)
    _moments = cached_property(lambda self: _spin_moments(self))  # one band pass per state

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.shape != (self.space.dim,):
            raise ValueError(f"amplitude shape {a.shape} does not match dim {self.space.dim}")
        norm2 = float(np.real(np.vdot(a, a)))
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2!r}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def density_matrix(self) -> MixedState:
        return MixedState(self.space, _density(self))


@dataclass(frozen=True)
class MixedState:
    """Density operator: Hermitian (as HermitianOperator checks it), unit trace,
    positive semidefinite.

    The spectrum `_eigen` = (q, v) of `eigh(matrix)` is solved on its first read and held
    with the state, read-only: (N+1)^2 complex, 16 MB at N=1000.  The QFI readers and the
    fidelity take it there.  Validation is a separate `eigvalsh` at construction."""

    space: SpinSpace
    matrix: np.ndarray = field(repr=False)
    _moments = cached_property(lambda self: _spin_moments(self))  # one band pass per state
    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:  # (q, v) of eigh, read-only, one per state
        q, v = np.linalg.eigh(self.matrix)
        q.flags.writeable = v.flags.writeable = False
        return q, v

    def __post_init__(self):
        a = _hermitian(self.space, self.matrix)
        tr = float(np.real(np.trace(a)))
        if not abs(tr - 1.0) <= _NORM_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        w = np.linalg.eigvalsh(a)
        if w[0] < -_NORM_TOL:
            raise ValueError(f"negative eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "matrix", a)


def _density(state) -> np.ndarray:
    """rho of a ket or mixed state; a ket's |psi><psi| is symmetrized, since the bare
    outer product is Hermitian only to rounding."""
    if isinstance(state, KetState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        return (rho + rho.conj().T) / 2.0
    if isinstance(state, MixedState):
        return state.matrix
    raise ValueError("state must be a KetState or MixedState")


def _ladder_coeffs(space: SpinSpace) -> np.ndarray:
    # <m+1| J_+ |m> = sqrt(j(j+1) - m(m+1)) for the lower N bonds, j = N/2
    j = space.total_spin
    m = space.m_labels[:-1]
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def _raise(space: SpinSpace, x: np.ndarray) -> np.ndarray:
    """J_+ x from the band, for x indexed by the Dicke basis along axis 0."""
    out = np.zeros_like(x, dtype=complex)
    out[1:] = _ladder_coeffs(space).reshape(-1, *([1] * (x.ndim - 1))) * x[:-1]
    return out


def jplus(space: SpinSpace) -> np.ndarray:
    """Raising operator J_+ (not Hermitian, returned as a plain matrix)."""
    return _raise(space, np.eye(space.dim))


def jminus(space: SpinSpace) -> np.ndarray:
    """Lowering operator J_- = (J_+)^dag."""
    return jplus(space).conj().T


def jx(space: SpinSpace) -> HermitianOperator:
    return collective_operator(space, (1.0, 0.0, 0.0))


def jy(space: SpinSpace) -> HermitianOperator:
    return collective_operator(space, (0.0, 1.0, 0.0))


def jz(space: SpinSpace) -> HermitianOperator:
    return collective_operator(space, (0.0, 0.0, 1.0))


def _unit_axis(axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise ValueError("axis has zero length")
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"axis must be a finite unit vector, |n| = {norm!r}")
    return n / norm


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """vec, negated when its largest-magnitude entry is negative."""
    return -vec if vec[int(np.argmax(np.abs(vec)))] < 0 else vec


class _CollectiveOperator(HermitianOperator):
    """J_n held as its unit axis n; `matrix` is filled from the band on first read, read-only:
    n_z m on the diagonal, c (n_x - i n_y)/2 below it and the conjugate above."""

    def __init__(self, space: SpinSpace, axis: np.ndarray):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_axis", axis)

    @cached_property
    def matrix(self) -> np.ndarray:
        n, c, space = self._axis, _ladder_coeffs(self.space), self.space
        mat = np.diag((n[2] * space.m_labels).astype(complex))
        k = np.arange(space.n_particles)
        mat[k + 1, k] = c * (0.5 * complex(n[0], -n[1]))
        mat[k, k + 1] = c * (0.5 * complex(n[0], n[1]))
        mat += 0.0  # -0 to +0, the zeros that (A + A^dag)/2 leaves
        mat.setflags(write=False)
        return mat


def collective_operator(space: SpinSpace, axis) -> HermitianOperator:
    """J_n = n . J for a unit 3-vector n, held as n; its dense `.matrix` is filled on first read."""
    return _CollectiveOperator(space, _unit_axis(axis))


def _real_times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Real matrix a times complex x (vector or columns), as real products on the float view."""
    x = np.ascontiguousarray(x, dtype=complex)
    flat = x.view(float).reshape(x.shape[0], -1)
    return (a @ flat).view(complex).reshape(a.shape[0], *x.shape[1:])


def _wigner_d(space: SpinSpace, beta: float) -> np.ndarray:
    """Real Wigner matrix d^j(beta) = exp(-i beta J_y), beta in [0, pi]: the eigenbasis
    of cos(beta) J_z + sin(beta) J_x, with column signs fixed in O(N^2) because the real
    tridiagonal J_+' = cos(beta) J_x - sin(beta) J_z + i J_y maps column k to c_k > 0
    times column k+1, and column +j is nonnegative."""
    m, c = space.m_labels, _ladder_coeffs(space)
    cb, sb = np.cos(beta), np.sin(beta)
    _, d = eigh_tridiagonal(cb * m, 0.5 * sb * c)
    links = 0.5 * (1.0 + cb) * np.einsum("i,ik,ik->k", c, d[:-1, :-1], d[1:, 1:])
    links -= 0.5 * (1.0 - cb) * np.einsum("i,ik,ik->k", c, d[1:, :-1], d[:-1, 1:])
    links -= sb * np.einsum("i,ik,ik->k", m, d[:, :-1], d[:, 1:])
    signs = np.concatenate((np.sign(links), [np.sign(d[:, -1].sum())]))
    return np.multiply(d, np.cumprod(signs[::-1])[::-1], out=d)


def _su2(axis, angle: float) -> np.ndarray:
    """exp(-i angle n.sigma/2) in the ascending-m basis (m = -1/2, +1/2), n normalized."""
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    n = _unit_axis(axis) * np.sin(0.5 * angle)
    c = np.cos(0.5 * angle)
    return np.array([[c + 1j * n[2], n[1] - 1j * n[0]], [-n[1] - 1j * n[0], c - 1j * n[2]]])


def _euler(r: np.ndarray) -> tuple[float, float, float]:
    """(A, B, G) with r = e^{-iA J_z} e^{-iB J_y} e^{-iG J_z} for SU(2) r, B in [0, pi]."""
    a00, a01 = float(np.angle(r[0, 0])), float(np.angle(r[0, 1]))
    return a00 + a01, 2.0 * float(np.arctan2(abs(r[0, 1]), abs(r[0, 0]))), a00 - a01


@lru_cache(maxsize=2)
def _delta(n_particles: int) -> tuple[np.ndarray, np.ndarray]:
    """Delta = d^j(pi/2), the real J_x eigenbasis, as its parity halves: row r has parity (-1)^r
    under m -> -m, so E = Delta[0::2, m >= 0] and O = Delta[1::2, m > 0] (held in descending m)
    hold it all, read-only and cached per N in 4 (N+1)^2 bytes, where dense took 8 (N+1)^2."""
    delta, k = _wigner_d(make_space(n_particles), 0.5 * np.pi), (n_particles + 1) // 2
    even, odd = delta[0::2, k:].copy(), delta[1::2, : -k - 1 : -1].copy()
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


def _delta_times(x: np.ndarray, transpose: bool = False, halves=None) -> np.ndarray:
    """Delta x, or Delta^T x = S Delta (S x) with S = diag((-1)^r), for real or complex columns
    or a vector x, at half a dense product's flops: the even rows are E (x_m + x_{-m}) and the
    odd rows O (x_m - x_{-m}), both formed in place (a C-ordered x is overwritten)."""
    even, odd = _delta(x.shape[0] - 1) if halves is None else halves
    x, k = np.ascontiguousarray(x), odd.shape[1]
    if transpose:
        x[1::2] *= -1.0
    upper, lower = x[-k:], x[k - 1 :: -1]
    upper += lower  # x_m + x_{-m} for m > 0
    lower *= -2.0
    lower += upper  # x_m - x_{-m}, at the index of -m
    out = np.empty_like(x)
    flat, rows = (a.view(float).reshape(a.shape[0], -1) for a in (x, out))
    np.matmul(even, flat[k:], out=rows[0::2])
    np.matmul(odd, flat[:k], out=rows[1::2])
    if transpose:
        out[1::2] *= -1.0
    return out


def _d_matrix(space: SpinSpace, beta: float) -> np.ndarray:
    """d^j(beta); exactly pi/2 is assembled by index from the halves of the shared Delta, O(N^2)."""
    if beta != 0.5 * np.pi:
        return _wigner_d(space, beta)
    (even, odd), n = _delta(space.n_particles), space.n_particles
    full, k = np.zeros((n + 1, n + 1)), odd.shape[1]
    full[0::2, k:], full[0::2, : n + 1 - k] = even, even[:, ::-1]
    full[1::2, :k], full[1::2, n + 1 - k :] = -odd, odd[:, ::-1]
    return full


def _rotate(space: SpinSpace, axis, angle: float, x: np.ndarray) -> np.ndarray:
    """exp(-i angle J_n) x = e^{-iA J_z} d^j(B) e^{-iG J_z} x for the Euler angles of the
    SU(2) element, with d^j(B) = P^dag Delta^T e^{iB J_z} Delta P and P = e^{i pi J_z / 2}
    (Risbo 1996): three diagonal phases around two real products with the cached Delta."""
    big_a, big_b, big_g = _euler(_su2(axis, angle))
    m = space.m_labels[:, None]
    y = _delta_times(np.exp(1j * (0.5 * np.pi - big_g) * m) * x)
    y = _delta_times(np.exp(1j * big_b * m) * y, transpose=True)
    return np.exp(-1j * (big_a + 0.5 * np.pi) * m) * y


def rotation(space: SpinSpace, axis, angle: float) -> np.ndarray:
    """Unitary exp(-i angle J_n), through the one rotation route of `_rotate`."""
    return _rotate(space, axis, angle, np.eye(space.dim))


def apply_unitary(state: KetState, u: np.ndarray) -> KetState:
    return KetState(state.space, u @ state.amplitudes)


def rotate_state(state: KetState, axis, angle: float) -> KetState:
    """exp(-i angle J_n) |psi> in O(N^2) once d^j(pi/2) is cached for this N."""
    psi = state.amplitudes[:, None]
    return KetState(state.space, _rotate(state.space, axis, angle, psi)[:, 0])


def _require_same_space(state, op: HermitianOperator):
    if op.space.dim != state.space.dim:
        raise ValueError("operator space does not match state space")


def expectation(state, op: HermitianOperator) -> float:
    """<A> for a ket or density matrix; real by Hermiticity."""
    return float(moments(state, [op]).means[0])


def variance(state, op: HermitianOperator) -> float:
    return max(float(moments(state, [op]).covariance[0, 0]), 0.0)


@dataclass(frozen=True)
class MomentData:
    """First moments and symmetrized covariances of a list of observables."""

    means: np.ndarray
    covariance: np.ndarray


def moments(state, ops) -> MomentData:
    """Means <A_i> and symmetrized covariances <{A_i,A_j}>/2 - <A_i><A_j>.

    The covariance matrix is real symmetric and positive semidefinite up to rounding for any
    valid state.  For J_n alone, one O(N) band pass gives A <J> and A C A^T (axes A as rows).
    """
    ops = list(ops)
    for op in ops:
        _require_same_space(state, op)
    if ops and all(isinstance(op, _CollectiveOperator) for op in ops):
        axes, md = np.array([op._axis for op in ops]), state._moments
        cov = axes @ md.covariance @ axes.T
        return MomentData(means=axes @ md.means, covariance=(cov + cov.T) / 2.0)
    k = len(ops)
    means = np.zeros(k)
    cov = np.zeros((k, k))
    if isinstance(state, KetState):
        applied = [op.matrix @ state.amplitudes for op in ops]
        for i in range(k):
            means[i] = float(np.real(np.vdot(state.amplitudes, applied[i])))
        for i in range(k):
            for j in range(i, k):
                # Re<A_i psi|A_j psi> = <{A_i,A_j}>/2 for Hermitian A
                cov[i, j] = cov[j, i] = float(np.real(np.vdot(applied[i], applied[j])))
    else:
        for i in range(k):
            rho_a = state.matrix @ ops[i].matrix
            means[i] = float(np.real(np.trace(rho_a)))
            for j in range(i, k):
                # Re tr(rho A_i A_j) = <{A_i,A_j}>/2 for Hermitian A and rho
                cov[i, j] = cov[j, i] = float(np.real(np.trace(rho_a @ ops[j].matrix)))
    cov -= np.outer(means, means)
    return MomentData(means=means, covariance=cov)


def _spin_moments(state) -> MomentData:
    """Means and symmetrized covariance of (J_x, J_y, J_z) in O(N).

    Every second moment of the collective spin lives on the five central
    diagonals of rho, so only the band sums sum_k w_k rho_{k,k+d}, d <= 2,
    are taken (for a ket, shifted products of the amplitudes).  With c the
    J_+ band: <J_+> = c . rho_1, <J_+^2> = (c_k c_{k+1}) . rho_2,
    <{J_+, J_z}> = (c_k (m_k + m_{k+1})) . rho_1 and
    J_+J_- + J_-J_+ = 2 (j(j+1) - J_z^2) on the diagonal.
    """
    space = state.space
    if isinstance(state, KetState):
        psi = state.amplitudes

        def band(weights, d):
            return np.vdot(psi[d:], weights * psi[: space.dim - d])
    else:

        def band(weights, d):
            return weights @ np.diagonal(state.matrix, d)

    m = space.m_labels
    c = _ladder_coeffs(space)
    jp = complex(band(c, 1))
    jp2 = complex(band(c[:-1] * c[1:], 2))
    jpz = complex(band(c * (m[:-1] + m[1:]), 1))
    jz1, jz2 = float(np.real(band(m, 0))), float(np.real(band(m * m, 0)))
    j = space.total_spin
    # <J_x^2 + J_y^2>/2, with exact nonnegative weights j(j+1) - m^2
    transverse = 0.5 * float(np.real(band(j * (j + 1.0) - m * m, 0)))
    means = np.array([jp.real, jp.imag, jz1])
    second = np.array(
        [
            [transverse + 0.5 * jp2.real, 0.5 * jp2.imag, 0.5 * jpz.real],
            [0.5 * jp2.imag, transverse - 0.5 * jp2.real, 0.5 * jpz.imag],
            [0.5 * jpz.real, 0.5 * jpz.imag, jz2],
        ]
    )
    md = MomentData(means=means, covariance=second - np.outer(means, means))
    md.means.setflags(write=False)
    md.covariance.setflags(write=False)
    return md


def n_effective(couplings) -> float:
    """Effective atom number (sum g_i)^2 / (sum g_i^2) for inhomogeneous coupling."""
    g = np.asarray(couplings, dtype=float)
    if g.size == 0:
        raise ValueError("couplings must be non-empty")
    denom = float(np.sum(g * g))
    if denom == 0.0:
        raise ValueError("all couplings vanish")
    return float(np.sum(g)) ** 2 / denom
