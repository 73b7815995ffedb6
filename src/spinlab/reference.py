"""Closed-form benchmarks for squeezing, Fisher information and protocols.

Scalar formulas only; no matrices live here.  Everything in this module is
cross-checked in the test suite against exact matrix numerics from the
other modules.  Sensitivities that depend on the number of repetitions
take nu explicitly, defaulting to a single shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinspace import _real, _size

__all__ = [
    "OatClosedForms",
    "BjjRegime",
    "StateBenchmarks",
    "ProtocolFormulas",
    "oat_closed_forms",
    "bjj_regime_predictions",
    "state_benchmarks",
    "protocol_formulas",
]


@dataclass(frozen=True)
class OatClosedForms:
    """Squeezing and Fisher data of the twisted state at one instant."""

    xi_r2: float
    fq_over_n: float
    contrast: float
    a: float
    b: float
    delta: float


def oat_closed_forms(n_particles: int, chi_t: float) -> OatClosedForms:
    """One-axis twisting of a +x coherent state, evaluated analytically.

    With A = 1 - cos^{N-2}(2 chi t) and B = 4 sin(chi t) cos^{N-2}(chi t):
    xi_R^2 = [1 + (N-1)(A - sqrt(A^2+B^2))/4] / cos^{2N-2}(chi t),
    F_Q/N  =  1 + (N-1)(A + sqrt(A^2+B^2))/4,
    contrast = cos^{N-1}(chi t) so that <J_x> = (N/2) contrast, and
    delta = arctan(B/A)/2 is the squeezing angle in the y-z plane.
    xi_R^2 is reported as inf where the contrast underflows to zero.
    """
    n = _size(n_particles, "n_particles", low=2)
    c = math.cos(_real(chi_t, "chi_t"))
    a = 1.0 - math.cos(2.0 * chi_t) ** (n - 2)
    b = 4.0 * math.sin(chi_t) * c ** (n - 2)
    root = math.hypot(a, b)
    contrast = c ** (n - 1)
    fq_over_n = 1.0 + (n - 1) * (a + root) / 4.0
    numer = 1.0 + (n - 1) * (a - root) / 4.0
    xi_r2 = numer / contrast**2 if contrast != 0.0 else math.inf
    return OatClosedForms(
        xi_r2=xi_r2,
        fq_over_n=fq_over_n,
        contrast=contrast,
        a=a,
        b=b,
        delta=0.5 * math.atan2(b, a),
    )


@dataclass(frozen=True)
class BjjRegime:
    """Asymptotic ground-state predictions with a coarse regime tag."""

    regime: str
    xi_r2: float | None
    fq_over_n: float | None


def bjj_regime_predictions(n_particles: int, lam: float) -> BjjRegime:
    """Ground-state squeezing and Fisher asymptotics of the Josephson model.

    The verbal regimes (Lambda << 1, 1 << Lambda << N^2, Lambda >> N^2) are
    mapped to the concrete cutoffs Lambda < 0.1, 0.1 <= Lambda < N^2/10 and
    Lambda >= 10 N^2; the gap in between is tagged "crossover" with no
    closed form.  Negative couplings split at the Lambda = -1 transition
    into "disordered" (-1 < Lambda < 0) and "ordered" (Lambda <= -1), the
    latter quoting only the asymptotic F_Q/N = N(1 - 1/Lambda^2).
    Symmetric junction (zero energy imbalance) throughout.
    """
    n, lam = _size(n_particles, "n_particles", low=2), _real(lam, "lam")
    if lam <= -1.0:
        return BjjRegime("ordered", None, n * (1.0 - 1.0 / lam**2))
    if lam < 0.0:
        return BjjRegime("disordered", math.sqrt(1.0 + lam), 1.0 / math.sqrt(1.0 + lam))
    if lam < 0.1:
        return BjjRegime("rabi", 1.0 / math.sqrt(1.0 + lam), math.sqrt(1.0 + lam))
    if lam < n**2 / 10.0:
        return BjjRegime("josephson", 1.0 / math.sqrt(lam), math.sqrt(lam))
    if lam < 10.0 * n**2:
        return BjjRegime("crossover", None, None)
    if n % 2 == 0:
        return BjjRegime("fock", 2.0 / (n + 2.0), (n + 2.0) / 2.0)
    return BjjRegime("fock", 4.0 * n / (n * (n + 2.0) + 1.0), (n**2 - 1.0) / (2.0 * n) + 1.0)


@dataclass(frozen=True)
class StateBenchmarks:
    """Closed-form metrological figures of the standard probe states."""

    n_particles: int
    noon_qfi: float
    w_qfi: float
    xi_r2_floor: float

    def dicke_qfi(self, m: float) -> float:
        """F_Q of |j, m> under any rotation orthogonal to z: N^2/2 - 2m^2 + N."""
        n = self.n_particles
        if abs(_real(m, "m")) > n / 2.0 or abs(m + n / 2.0 - round(m + n / 2.0)) > 1e-9:
            raise ValueError(f"m = {m} is not a Dicke label for N = {n}")
        return n**2 / 2.0 - 2.0 * m**2 + n

    def twin_fock_phase_var(self, theta: float = 0.0, nu: float = 1.0) -> float:
        """Method-of-moments (Delta theta)^2 = 2/(nu (N^2+2N)) + O(theta^2).

        Leading term of the population-variance readout near zero rotation;
        the expansion stays below shot noise for |theta| up to about
        1/sqrt(N).  A factor two above the Heisenberg limit at theta = 0.
        """
        _real(theta, "theta")  # checked, though only the leading order is kept
        _real(nu, "nu", low=1.0)
        n = self.n_particles
        if n % 2:
            raise ValueError("the twin-Fock state needs an even particle number")
        return 2.0 / (nu * (n**2 + 2.0 * n))

    def css_overlap(self, theta: float) -> float:
        """Fidelity |cos(theta/2)|^N between a coherent state and its rotation.

        The squared Bures distance is 1 minus this overlap.
        """
        return abs(math.cos(0.5 * _real(theta, "theta"))) ** self.n_particles

    def fock_input_qfi(self, n_a: float) -> float:
        """F_Q = N N_a + N/2 + N_a for any mode-a state of mean occupation N_a
        paired with an N/2 Fock state in mode b."""
        _real(n_a, "n_a", low=0.0)
        n = self.n_particles
        return n * n_a + n / 2.0 + n_a


def state_benchmarks(n_particles: int) -> StateBenchmarks:
    """Bundle of closed-form benchmarks for N particles."""
    n = _size(n_particles, "n_particles", low=2)
    return StateBenchmarks(
        n_particles=n,
        noon_qfi=float(n**2),
        w_qfi=3.0 * n - 2.0,
        xi_r2_floor=2.0 / (n + 2.0),
    )


class ProtocolFormulas:
    """Closed forms for the measurement-based preparation and readout protocols."""

    @staticmethod
    def qnd_kappa_squared(n_atoms: float, n_photons: float, k: float) -> float:
        """Coupling strength kappa^2 = n N k^2 / 4 of the dispersive probe."""
        _real(n_atoms, "n_atoms", positive=True)
        _real(n_photons, "n_photons", positive=True)
        return n_photons * n_atoms * _real(k, "k") ** 2 / 4.0

    @staticmethod
    def qnd_conditional_mean(m_y: float, kappa: float, n_atoms: float, n_photons: float) -> float:
        """<J_z> after detecting the light quadrature value m_y."""
        _real(n_atoms, "n_atoms", positive=True)
        _real(n_photons, "n_photons", positive=True)
        m_y, kappa = _real(m_y, "m_y"), _real(kappa, "kappa")
        return kappa / (1.0 + kappa**2) * math.sqrt(n_atoms / n_photons) * m_y

    @staticmethod
    def qnd_conditional_var(kappa: float, n_atoms: float) -> float:
        """Conditional variance N/(4(1+kappa^2)), independent of the outcome."""
        n_atoms, kappa = _real(n_atoms, "n_atoms", positive=True), _real(kappa, "kappa")
        return n_atoms / (4.0 * (1.0 + kappa**2))

    @staticmethod
    def heralded_qfi_over_n(n_atoms: int, phi: float, polarization: str = "h") -> float:
        """F_Q/N of the atomic state heralded by one detected photon.

        F_Q/N = (1 + (N-1) sin^2 phi +/- cos^N phi)/(1 +/- cos^N phi), with
        + for a vertically and - for a horizontally polarized detection.
        The h branch is evaluated through expm1 so the phi -> 0 limit
        (3 - 2/N, the one-excitation Dicke value) comes out cleanly.
        """
        n, phi = _size(n_atoms, "n_atoms", low=2), _real(phi, "phi")
        if polarization not in ("h", "v"):
            raise ValueError("polarization must be 'h' or 'v'")
        c = math.cos(phi)
        s2 = math.sin(phi) ** 2
        if polarization == "v":
            cn = c**n
            return (1.0 + (n - 1) * s2 + cn) / (1.0 + cn)
        if phi == 0.0:
            return 3.0 - 2.0 / n
        if c > 0.0:
            one_minus_cn = -math.expm1(n * math.log(c))
        else:
            one_minus_cn = 1.0 - c**n
        return (one_minus_cn + (n - 1) * s2) / one_minus_cn

    @staticmethod
    def ghz_parity_fisher(n_atoms: float, visibility: float, theta: float) -> float:
        """Fisher information of parity fringes, V^2 N^2 sin^2(N theta)/(1 - V^2 cos^2(N theta))."""
        n_atoms, theta = _real(n_atoms, "n_atoms"), _real(theta, "theta")
        _real(visibility, "visibility", low=0.0, high=1.0)
        if visibility == 1.0:
            # 1 - cos^2 = sin^2 cancels exactly; F = N^2 at every phase
            return float(n_atoms) ** 2
        n = float(n_atoms)
        v2 = visibility**2
        return v2 * n**2 * math.sin(n * theta) ** 2 / (1.0 - v2 * math.cos(n * theta) ** 2)

    @staticmethod
    def su11_sensitivity(n_scattered: float, theta: float) -> float:
        """Undepleted-pump phase sensitivity of the pair interferometer.

        Delta theta = sqrt[(P(P+2) cos^2(theta/2) + 1)/(P(P+2) sin^2(theta/2))]
        with P the mean number of atoms transferred in pairs; the optimum
        1/sqrt(P(P+2)) sits on the dark fringe theta = pi.
        """
        n_scattered, theta = _real(n_scattered, "n_scattered", positive=True), _real(theta, "theta")
        p = n_scattered * (n_scattered + 2.0)
        s2 = math.sin(0.5 * theta) ** 2
        if s2 == 0.0:
            return math.inf
        return math.sqrt((p * (1.0 - s2) + 1.0) / (p * s2))

    @staticmethod
    def tmsv_quadrature_variances(r: float, phi: float) -> tuple[float, float, float, float]:
        """(V_X^+, V_X^-, V_P^+, V_P^-) of the two-mode squeezed vacuum.

        V_X^+- = cosh 2r -+ sin 2phi sinh 2r for the sum/difference of the
        two X(phi) quadratures; the P variances swap the sign of the
        oscillating term.
        """
        r, phi = _real(r, "r", low=0.0), _real(phi, "phi")
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
        osc = math.sin(2.0 * phi) * sh
        return ch - osc, ch + osc, ch + osc, ch - osc

    @staticmethod
    def xi_r2_from_quadrature(var_q: float) -> float:
        """Holstein-Primakoff mapping xi_R^2 = 2 (Delta Q)^2."""
        return 2.0 * _real(var_q, "var_q", low=0.0)

    @staticmethod
    def frozen_spin_variances(
        n_atoms: float, omega: float, lam: float, t: float, start: str = "+x"
    ) -> tuple[float, float]:
        """(Var J_z, Var J_y) of twist-and-turn with the mean spin frozen.

        Var J_z = (N/4)[cos^2(w t) + (Omega/w)^2 sin^2(w t)] and Var J_y
        swaps the frequency ratio, with w = Omega sqrt(1 + Lambda) from the
        +x pole and w = Omega sqrt(1 - Lambda) from the -x pole (the latter
        harmonic only for Lambda < 1).
        """
        _real(n_atoms, "n_atoms", positive=True)
        _real(omega, "omega", positive=True)
        lam, t = _real(lam, "lam"), _real(t, "t")
        if start == "+x":
            w2 = omega**2 * (1.0 + lam)
        elif start == "-x":
            w2 = omega**2 * (1.0 - lam)
        else:
            raise ValueError("start must be '+x' or '-x'")
        if not w2 > 0.0:
            raise ValueError("frozen-spin motion is not harmonic for this coupling")
        w = math.sqrt(w2)
        c2 = math.cos(w * t) ** 2
        s2 = math.sin(w * t) ** 2
        quarter = n_atoms / 4.0
        return (
            quarter * (c2 + (omega**2 / w2) * s2),
            quarter * (c2 + (w2 / omega**2) * s2),
        )

    @staticmethod
    def bogoliubov_pair_population(alpha: float, beta: float, t: float) -> float:
        """Undepleted-pump occupation of each side mode.

        beta^2/(beta^2-alpha^2) sinh^2(t sqrt(beta^2-alpha^2)) in the
        unstable regime |beta| > |alpha|, analytically continued to
        beta^2/(alpha^2-beta^2) sin^2(t sqrt(alpha^2-beta^2)) in the stable
        one; (beta t)^2 at the boundary.
        """
        alpha, beta, t = _real(alpha, "alpha"), _real(beta, "beta"), _real(t, "t")
        d = beta**2 - alpha**2
        if d > 0.0:
            rate = math.sqrt(d)
            return beta**2 / d * math.sinh(rate * t) ** 2
        if d < 0.0:
            freq = math.sqrt(-d)
            return -(beta**2) / d * math.sin(freq * t) ** 2
        return (beta * t) ** 2

    @staticmethod
    def pair_amplitudes(
        alpha: float, beta: float, t: float, n_max: int, phi0: float = 0.0
    ) -> np.ndarray:
        """Amplitudes c_n of |n, n> pairs from the undepleted-pump dynamics.

        c_n = [-i beta e^{-2i phi0} tau sin(t/tau)]^n /
              [cos(t/tau) + i alpha tau sin(t/tau)]^{n+1}
        with tau = 1/sqrt(alpha^2 - beta^2).  For |beta| > |alpha| the
        sin/cos pair continues to sinh/cosh with tau = 1/sqrt(beta^2 -
        alpha^2); at |alpha| = |beta| the tau -> inf limit gives
        c_n = (-i beta e^{-2i phi0} t)^n / (1 + i alpha t)^{n+1}.
        The full sequence is normalized; truncation keeps n <= n_max.
        """
        n_max, phi0 = _size(n_max, "n_max", low=0), _real(phi0, "phi0")
        alpha, beta, t = _real(alpha, "alpha"), _real(beta, "beta"), _real(t, "t")
        d = alpha**2 - beta**2
        if d > 0.0:
            tau = 1.0 / math.sqrt(d)
            grow = tau * math.sin(t / tau)
            hold = math.cos(t / tau)
        elif d < 0.0:
            tau = 1.0 / math.sqrt(-d)
            grow = tau * math.sinh(t / tau)
            hold = math.cosh(t / tau)
        else:
            grow = t
            hold = 1.0
        num = -1j * beta * np.exp(-2j * phi0) * grow
        den = hold + 1j * alpha * grow
        n = np.arange(n_max + 1)
        return num**n / den ** (n + 1)

    @staticmethod
    def two_atom_xi_r2(alpha: float) -> float:
        """xi_R^2 = (1 - sin 2a)/cos^2 2a = 1/(1 + sin 2a) for
        cos(a)|+x,+x> + sin(a)|-x,-x>."""
        s = math.sin(2.0 * _real(alpha, "alpha"))
        if s == -1.0:
            return math.inf
        return 1.0 / (1.0 + s)

    @staticmethod
    def producibility_bound(n_particles: int, k: int) -> float:
        """Largest F_Q compatible with k-producibility: s k^2 + r^2 with
        s = floor(N/k) and r = N - s k."""
        n, k = _size(n_particles, "n_particles"), _size(k, "k")
        s, r = divmod(n, k)
        return float(s * k**2 + r**2)


def protocol_formulas() -> ProtocolFormulas:
    """Handle to the protocol closed forms."""
    return ProtocolFormulas()
