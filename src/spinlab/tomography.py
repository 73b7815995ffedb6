"""Multipole decomposition and quasi-probability maps on the sphere.

A collective-spin density matrix is expanded in the orthonormal spherical
tensor basis T_kq; weighting the multipoles rho_kq with rank-dependent
coefficients f_k and summing them against spherical harmonics, one rank at a
time, yields the P, W and Q distributions on the Bloch sphere.  Also provides
rotate-and-measure spin-noise moment curves with their trigonometric fits,
plus CSV/JSON map export.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .estimation import MeasurementModel
from .spinspace import KetState, MixedState, _density, _logfact, eigh_tridiagonal, make_space

__all__ = [
    "TensorDecomposition",
    "QuasiProbMap",
    "SpinNoiseMoments",
    "clebsch_gordan",
    "decompose",
    "reconstruct",
    "render_map",
    "quasiprobability",
    "spin_noise_moments",
    "export_map",
]

_KINDS = ("p", "w", "q")
_STRIP_CACHE_BYTES = 8 << 20  # one N's strip tables up to N = 145; four cached sets hold <= 32 MiB
_P_MAX_N = 1026  # above it the largest P rank weight, sqrt(C(2N+1, N)), overflows float64


def _strip_table(n: int, q: int) -> np.ndarray:
    """Scaled strips sqrt((2k+1)/(N+1)) <j m; k q | j m+q>, rows k = |q|..N.

    Columns run over m ascending, in the order of np.diagonal(rho, -q).  For
    fixed q the rows form an orthogonal matrix that diagonalises the Jacobi
    matrix with zero diagonal and off-diagonal
    alpha_k = sqrt((k^2 - q^2)((N+1)^2 - k^2) / ((2k-1)(2k+1))), k = |q|+1..N
    (the three-term recursion in k with j1 = j3 = j), whose exact spectrum
    2m+q has gaps of 2.  So one real tridiagonal eigensolve gives the whole
    table.  Each column's sign is that of the single-term Racah value at
    k = |q|: (-1)^q for q > 0 and +1 otherwise.  The table is read-only.
    """
    k = np.arange(abs(q) + 1, n + 1, dtype=float)
    alpha = np.sqrt((k * k - q * q) * ((n + 1.0) ** 2 - k * k) / ((2 * k - 1) * (2 * k + 1)))
    _, w = eigh_tridiagonal(np.zeros(n + 1 - abs(q)), alpha)
    sign = -1.0 if q > 0 and q % 2 else 1.0
    table = w * np.where(w[0] < 0, -sign, sign)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def _cached_strips(n: int) -> tuple[np.ndarray, ...]:
    """The read-only strip tables q = 0..N of one N, 8(N+1)(N+2)(2N+3)/6 bytes."""
    return tuple(_strip_table(n, q) for q in range(n + 1))


def _strip_tables(n: int):
    """Strip tables q = 0..N: solved once per N while the set fits the cap, else on every call."""
    fits = 8 * (n + 1) * (n + 2) * (2 * n + 3) // 6 <= _STRIP_CACHE_BYTES
    return _cached_strips(n) if fits else (_strip_table(n, q) for q in range(n + 1))


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, j3: float, m3: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j3 m3>.

    General Racah closed form in log space.  Angular momenta may be
    half-integral; violated selection rules return 0.
    """
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if abs(2 * j - round(2 * j)) > 1e-9 or abs(2 * m - round(2 * m)) > 1e-9:
            raise ValueError("angular momenta must be integer or half-integer")
        if abs(m) > j + 1e-9 or abs((j - m) - round(j - m)) > 1e-9:
            return 0.0
    if abs(m1 + m2 - m3) > 1e-9:
        return 0.0
    if j3 < abs(j1 - j2) - 1e-9 or j3 > j1 + j2 + 1e-9:
        return 0.0
    pref = _logfact([j1 + m1, j1 - m1, j2 + m2, j2 - m2, j3 + m3, j3 - m3]).sum()
    delta = _logfact([j1 + j2 - j3, j1 - j2 + j3, -j1 + j2 + j3]).sum() - _logfact(j1 + j2 + j3 + 1)
    base = 0.5 * (math.log(2 * j3 + 1) + float(delta) + float(pref))
    t_lo = round(max(0.0, j2 - j3 - m1, j1 + m2 - j3))
    t = np.arange(t_lo, round(min(j1 + j2 - j3, j1 - m1, j2 + m2)) + 1)
    logs = _logfact(
        [t, j1 + j2 - j3 - t, j1 - m1 - t, j2 + m2 - t, j3 - j2 + m1 + t, j3 - j1 - m2 + t]
    ).sum(axis=0)
    return float(np.sum((-1.0) ** t * np.exp(base - logs)))


@dataclass(frozen=True)
class TensorDecomposition:
    """Multipole coefficients rho_kq = tr[rho T_kq^dag].

    coefficients[k, q + n_particles] holds rho_kq for k = 0..N and
    |q| <= k; entries outside that triangle are zero.
    """

    n_particles: int
    coefficients: np.ndarray

    def __post_init__(self):
        n = make_space(self.n_particles).n_particles  # n_particles must be a positive integer
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (n + 1, 2 * n + 1) or not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be a finite array of shape (N+1, 2N+1)")
        object.__setattr__(self, "coefficients", c)

    def coefficient(self, k: int, q: int) -> complex:
        if not (0 <= k <= self.n_particles and abs(q) <= k):
            raise ValueError("multipole indices out of range")
        return complex(self.coefficients[k, q + self.n_particles])


def decompose(state) -> TensorDecomposition:
    """Expand a state in the orthonormal spherical tensor basis.

    T_kq = sqrt((2k+1)/(N+1)) sum_m <j m; k q | j m+q> |m+q><m|, so each
    rho_kq is a weighted sum along one diagonal strip of the density
    matrix.  One eigensolve per |q| serves +-q, once per N up to N = 145; each strip
    is still read from rho, which keeps the Hermiticity relation an honest check.
    """
    rho = _density(state)
    n = state.space.n_particles
    out = np.zeros((n + 1, 2 * n + 1), dtype=complex)
    for q, table in enumerate(_strip_tables(n)):
        out[q:, n + q] = table @ np.diagonal(rho, -q)
        out[q:, n - q] = (-1) ** q * table @ np.diagonal(rho, q)
    return TensorDecomposition(n_particles=n, coefficients=out)


def reconstruct(decomposition: TensorDecomposition) -> MixedState:
    """Rebuild the density matrix sum_kq rho_kq T_kq."""
    n, c = decomposition.n_particles, decomposition.coefficients
    rho = np.zeros((n + 1, n + 1), dtype=complex)
    for q, table in enumerate(_strip_tables(n)):
        m = np.arange(n + 1 - q)
        rho[m + q, m] = table.T @ c[q:, n + q]  # rho[m+q, m] along the q-th subdiagonal
        rho[m, m + q] = (-1) ** q * table.T @ c[q:, n - q]  # the table of -q is (-1)^q times it
    return MixedState(make_space(n), rho)


def _f_coefficients(n: int, kind: str) -> np.ndarray:
    """Rank weights f_k: 1 for W; the coherent-overlap weights for Q; 1/Q for P."""
    k = np.arange(n + 1, dtype=float)
    if kind == "w":
        return np.ones(n + 1)
    log_g = 0.5 * (
        _logfact(n) + _logfact(n + 1.0) - _logfact(n - k) - _logfact(n + k + 1.0)
    )
    return np.exp(log_g) if kind == "q" else np.exp(-log_g)


def _legendre_ranks(n: int, x: np.ndarray):
    """Yield N_kq(x) for q = 0..k as a (k+1, x.size) slice, k = 0..n: the fully normalized
    associated Legendre values (unit L2 norm on [-1, 1], Condon-Shortley sign), so that
    Y_kq(theta, phi) = N_kq(cos theta) e^{i q phi} / sqrt(2 pi).  Orders q <= k-2 follow the
    three-term recursion in k; q = k-1 and the diagonal seed q = k step up from N_{k-1,k-1}.
    Two ranks are held at a time.
    """
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    # recursion coefficients of every (k, q <= k-2), rank k's rows at (k-2)(k-1)/2, once per call
    k, q = (i[:, None] for i in np.tril_indices(n + 1, -2))
    a = np.sqrt((2 * k + 1) * (2 * k - 1) / ((k - q) * (k + q)))
    b = np.sqrt((2 * k + 1) * (k - 1 - q) * (k - 1 + q) / ((2 * k - 3) * (k - q) * (k + q)))
    prev, cur = None, np.full((1, x.size), 1.0 / math.sqrt(2.0))
    yield cur
    for k in range(1, n + 1):
        nxt = np.empty((k + 1, x.size))
        if k >= 2:
            rows = slice((k - 2) * (k - 1) // 2, k * (k - 1) // 2)
            nxt[: k - 1] = a[rows] * x * cur[: k - 1] - b[rows] * prev[: k - 1]
        nxt[k - 1] = math.sqrt(2 * k + 1) * x * cur[k - 1]
        nxt[k] = -math.sqrt((2 * k + 1) / (2.0 * k)) * s * cur[k - 1]
        prev, cur = cur, nxt
        yield cur


@lru_cache(maxsize=8)
def _gauss_legendre(n_theta: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes x = cos(theta) and weights, ascending theta, read-only; 8 sizes kept."""
    rule = tuple(a[::-1].copy() for a in np.polynomial.legendre.leggauss(n_theta))
    for a in rule:
        a.setflags(write=False)
    return rule


@dataclass(frozen=True)
class QuasiProbMap:
    """One quasi-probability distribution sampled on a product grid.

    theta runs over Gauss-Legendre nodes in cos(theta) (ascending theta),
    phi over a uniform grid; values[i, j] = f(theta_i, phi_j).  weights
    are the Gauss-Legendre weights for the cos(theta) integral, read-only and
    shared by the maps of one n_theta.
    """

    kind: str
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def sphere_integral(self) -> float:
        """Quadrature of the map over the full sphere."""
        dphi = 2.0 * math.pi / self.phi.size
        return float(self.weights @ self.values.sum(axis=1) * dphi)


def _map_kind(kind, n: int) -> str:
    """kind in lower case, when it names a map whose rank weights float64 holds at N."""
    if not isinstance(kind, str) or kind.lower() not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind.lower() == "p" and n > _P_MAX_N:
        raise ValueError(f"P rank weights overflow float64 above N = {_P_MAX_N}, got N = {n}")
    return kind.lower()


def render_map(
    decomposition: TensorDecomposition,
    kind: str,
    n_theta: int | None = None,
    n_phi: int | None = None,
    threads: int = 1,
) -> QuasiProbMap:
    """Synthesize a P/W/Q map from multipole coefficients.

    f(theta, phi) = sqrt((N+1)/4pi) sum_k f_k sum_q rho_kq Y_kq; the P
    weights diverge fastest, so all kinds share the k <= N truncation.
    Requires n_theta >= 2N+2 and n_phi >= N+1 so no surviving harmonic
    aliases through the quadrature.

    The P rank weights grow to C(2N+1, N)^(1/2), about 1.6e14 at N=48, so
    they amplify rounding in the multipoles: from N of about 48 a P map
    misses its unit sphere integral even with multipoles exact to rounding
    (a twisted coherent state gives 1.0002 at N=48 and 5.9 at N=64); above
    N = 1026 they overflow float64 and P is refused.  W and Q are not affected.

    The ranks are summed one at a time in ascending k, so besides the map
    the synthesis holds O(N n_theta) (two Legendre ranks, the amplitudes
    A[q, i]) and about N^2 recursion coefficients, freed before the complex
    azimuth product; the traced peak is 5.5x the map's values (W and Q,
    N = 64 and 300).  threads is kept for compatibility and is ignored.
    """
    n = decomposition.n_particles
    kind = _map_kind(kind, n)
    for name, size in (("n_theta", n_theta), ("n_phi", n_phi)):
        if size is not None and (isinstance(size, bool) or not isinstance(size, (int, np.integer))):
            raise ValueError(f"{name} must be an integer or None, got {size!r}")
    n_theta, n_phi = (2 * n + 2 if size is None else int(size) for size in (n_theta, n_phi))
    if n_theta < 2 * n + 2:
        raise ValueError("n_theta must be at least 2N+2 to resolve rank-N harmonics")
    if n_phi < n + 1:
        raise ValueError("n_phi must be at least N+1 to resolve order-N harmonics")
    x, w = _gauss_legendre(n_theta)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)

    fk = _f_coefficients(n, kind)
    rho = decomposition.coefficients
    # A[q, i] = sum_k f_k rho_kq N_kq(x_i), in ascending k; e^{i q phi_j} restores phi
    amp = np.zeros((n + 1, n_theta), dtype=complex)
    for k, ranks in enumerate(_legendre_ranks(n, x)):
        amp[: k + 1] += (fk[k] * rho[k, n : n + k + 1])[:, None] * ranks
    pref = math.sqrt((n + 1) / (4.0 * math.pi)) / math.sqrt(2.0 * math.pi)
    phase = np.exp(1j * np.arange(1, n + 1)[:, None] * phi[None, :])

    values = pref * (np.real(amp[0])[:, None] + 2.0 * np.real(amp[1:].T @ phase))
    return QuasiProbMap(kind=kind, theta=theta, phi=phi, weights=w, values=values)


def quasiprobability(
    state, kind: str, n_theta: int | None = None, n_phi: int | None = None, threads: int = 1
) -> QuasiProbMap:
    """P, W or Q distribution of a state on the Bloch sphere; an unknown kind, or P above
    N = 1026, is refused before the O(N^3) decomposition."""
    if isinstance(state, (KetState, MixedState)):
        _map_kind(kind, state.space.n_particles)
    return render_map(decompose(state), kind, n_theta, n_phi, threads)


@dataclass(frozen=True)
class SpinNoiseMoments:
    """<J_z^k> after rotation about x, with its trigonometric fit.

    The fit expands the curve over cos(n theta), sin(n theta) for
    n = k, k-2, ..., the harmonic content any k-th moment can carry.
    """

    order: int
    theta: np.ndarray
    moments: np.ndarray
    harmonics: np.ndarray
    cos_coefficients: np.ndarray
    sin_coefficients: np.ndarray

    def fitted(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        out = np.zeros_like(th)
        for n, c, s in zip(self.harmonics, self.cos_coefficients, self.sin_coefficients):
            out = out + c * np.cos(n * th) + s * np.sin(n * th)
        return out


def spin_noise_moments(state, theta_grid, order: int) -> SpinNoiseMoments:
    """Rotate by exp(-i theta J_x), then take the k-th moment of J_z.

    The curve is the J_z outcome table of a MeasurementModel with generator x
    and readout z, which reads the cached Delta = d^j(pi/2); returns it on the
    grid together with least-squares trigonometric fit coefficients.
    """
    if not isinstance(state, (KetState, MixedState)):
        raise ValueError(f"state must be a KetState or MixedState, got {type(state).__name__}")
    whole = isinstance(order, (int, float, np.integer, np.floating)) and float(order).is_integer()
    if isinstance(order, bool) or not (whole and order >= 1):
        raise ValueError(f"moment order must be a whole number >= 1, got {order!r}")
    theta = np.array(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size < 2:
        raise ValueError("theta_grid must hold at least two angles")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta_grid must be finite")
    # probabilities() reads no model grid, so a fixed two-point one stands in
    model = MeasurementModel(state, (1.0, 0.0, 0.0), (), (0.0, 0.0, 1.0), theta_grid=(0.0, 1.0))
    moments = model.probabilities(theta) @ model.outcome_values.astype(float) ** order
    harmonics = np.arange(order, -1, -2)[::-1]
    cols = [np.cos(n * theta) for n in harmonics]
    cols += [np.sin(n * theta) for n in harmonics if n > 0]
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, moments, rcond=None)
    n_h = harmonics.size
    sin_c = np.zeros(n_h)
    sin_c[harmonics > 0] = coef[n_h:]
    return SpinNoiseMoments(
        order=order,
        theta=theta,
        moments=moments,
        harmonics=harmonics,
        cos_coefficients=coef[:n_h],
        sin_coefficients=sin_c,
    )


def export_map(qmap: QuasiProbMap, csv_path, json_path=None) -> None:
    """Write a map as dense CSV rows (theta, phi, value) plus a JSON sidecar.

    The sidecar carries only grid metadata, never binary payloads.
    """
    with open(csv_path, "w") as fh:
        _write_map_csv(fh, qmap)
    if json_path is not None:
        meta = {
            "kind": qmap.kind,
            "n_theta": int(qmap.theta.size),
            "n_phi": int(qmap.phi.size),
            "theta": [float(t) for t in qmap.theta],
            "phi": [float(p) for p in qmap.phi],
            "quadrature_weights": [float(w) for w in qmap.weights],
        }
        with open(json_path, "w") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")


def _write_map_csv(fh, qmap: QuasiProbMap) -> None:
    """CSV rows theta,phi,value at %.17g, one template per theta row joined from per-map cells."""
    fh.write("theta,phi,value\n")
    cells = [f"{ph:.17g},%.17g\n" for ph in qmap.phi]
    for th, row in zip(qmap.theta, qmap.values):
        head = f"{th:.17g},"
        fh.write((head + head.join(cells)) % tuple(row.tolist()))
