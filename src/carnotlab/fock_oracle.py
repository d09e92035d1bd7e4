"""Brute-force reference dynamics in a truncated number basis.

This module exists to validate the moment propagators against a full
density-matrix integration and is never used in cycle sweeps.  Each stroke
integrates only what its master equation couples:

* Open strokes (a bath).  The thermal dissipator acts in the interaction
  picture with the dressed jump operator frozen at its stroke-initial form
  b(0), so rho_int is one solve that never involves the system propagator
  U(t) = T-exp(-(i/hbar) int H dt').  U is a second solve, in the frame of
  H(omega_ref), where only the change of frequency is left to integrate: on
  a static stroke U is exact.  Moments are tr(U rho_int U^dag X(t)).
* Dephasing strokes (no bath).  The Schrodinger-picture density matrix obeys
  -(i/hbar)[H, rho] - gamma_d [H, [H, rho]], the dephasing double commutator
  of the interaction picture moved back by U, and is integrated directly
  with no propagator; gamma_d = 0 is the closed system.  On a static stroke
  (omega constant, omega_dot = 0) the equation is diagonal in the energy
  eigenbasis and is solved there exactly, with no solve at all.

Every solve is DOP853 with its step bounded by the method's stability region.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass

import numpy as np

from .core import (HBAR, BathSpec, FrequencyProtocol, ObservableVector,
                   dressed_rates, thermal_population)
from .dynamics import solve_ivp
from .errors import DomainError, NumericalError, TruncationError, UnphysicalState

DEFAULT_DIMENSION = 60
#: Tolerances of every DOP853 solve.
ORACLE_RTOL = 1e-8
ORACLE_ATOL = 1e-10
#: Step bounds of the explicit solves.  DOP853 is the explicit Runge-Kutta
#: pair of order 8 of Hairer, Norsett & Wanner, "Solving Ordinary
#: Differential Equations I", 2nd ed. (Springer, 1993), Sec. II.10.  Its
#: stability function R(z) = 1 + z b^T (I - z A)^-1 1, evaluated from scipy's
#: coefficients, keeps |R(z)| <= 1 on the left half-disc |z| <= 5.75 (the
#: region reaches -6.39 on the real axis and +-5.96 on the imaginary one).  A
#: solve steps at most C / r, where r bounds the spectral radius of its
#: right-hand side, so that modes which have decayed below the error estimate
#: cannot grow again.  Without the bound a long static open stroke drifts by
#: 1e-5 of max <H> (T = 2.26), and a static dephasing stroke, when it was
#: still integrated, drifted by 1e-3 (a thermal state, gamma_d = 0.02, T = 1).
#:
#: C for the dissipator of rho_int, with r = 2 |b|^2 max(k_down + k_up).  It
#: stays well inside the region because a short stroke then takes one or two
#: steps whose error the embedded estimate misjudges: at 5 a driven stroke of
#: T = 0.09 deviated by 2e-10 of max <H> from the joint reference, at 3 by 6e-12.
OPEN_STEP_RADIUS = 3.0
#: C for commutator generators: -(i/hbar)[H, .] - gamma_d [H, [H, .]] on
#: rho_s, with r = |H|/hbar + gamma_d |H|^2, and the generator of W.
COHERENT_STEP_RADIUS = 5.0


def ladder(dimension: int) -> np.ndarray:
    """Annihilation operator in the truncated number basis."""
    return np.diag(np.sqrt(np.arange(1, dimension)), k=1).astype(complex)


def position_momentum(dimension: int, omega: float):
    """Q and P matrices for the oscillator basis at reference frequency omega."""
    a = ladder(dimension)
    q = math.sqrt(HBAR / (2.0 * omega)) * (a + a.conj().T)
    p = 1j * math.sqrt(HBAR * omega / 2.0) * (a.conj().T - a)
    return q, p


def _quadratures(dimension: int, omega_ref: float):
    """P^2, Q^2 and QP + PQ on the basis of reference frequency omega_ref."""
    q, p = position_momentum(dimension, omega_ref)
    return p @ p, q @ q, q @ p + p @ q


def basis_operators(dimension: int, omega_ref: float):
    """Callables H(w), L(w), C(w) built on a fixed reference basis."""
    p2, q2, qp = _quadratures(dimension, omega_ref)

    def ham(w):
        return p2 / 2.0 + 0.5 * w**2 * q2

    def lag(w):
        return p2 / 2.0 - 0.5 * w**2 * q2

    def corr(w):
        return 0.5 * w * qp

    return ham, lag, corr


def build_jump_operator(omega0: float, mu: float, dimension: int) -> np.ndarray:
    """Dressed-mode annihilation operator at the stroke-initial parameters.

    b = sqrt(w0 / kappa hbar) (kappa + i mu)/2 (Q + (mu + i kappa)/(2 w0) P);
    reduces to the bare ladder operator at mu = 0.
    """
    if dimension < 4:
        raise DomainError("dimension must be at least 4")
    if abs(mu) >= 2.0:
        raise DomainError("|mu| must be below 2")
    kappa = math.sqrt(4.0 - mu * mu)
    q, p = position_momentum(dimension, omega0)
    z = (mu + 1j * kappa) / (2.0 * omega0)
    return math.sqrt(omega0 / (kappa * HBAR)) * ((kappa + 1j * mu) / 2.0) \
        * (q + z * p)


@dataclass
class FockState:
    """Truncated density matrix with its validity checks."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DomainError("density matrix must be square")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def validate(self, herm_tol=1e-12, trace_tol=1e-10, psd_tol=1e-10,
                 leakage_tol=1e-6) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > herm_tol * max(1.0, np.max(np.abs(m))):
            raise UnphysicalState("density matrix is not Hermitian")
        tr = np.real(np.trace(m))
        if abs(tr - 1.0) > trace_tol:
            raise UnphysicalState(f"trace {tr} deviates from 1")
        evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if evals.min() < -psd_tol:
            raise UnphysicalState(f"negative eigenvalue {evals.min():.3e}")
        if self.leakage() > leakage_tol:
            raise TruncationError(
                f"population {self.leakage():.3e} in the top levels; "
                "increase the truncation dimension")

    def leakage(self) -> float:
        pops = np.real(np.diag(self.matrix))
        top = max(1, self.dimension // 10)
        return float(np.sum(pops[-top:]))


def thermal_fock_state(omega: float, temperature: float,
                       dimension: int = DEFAULT_DIMENSION) -> FockState:
    n = thermal_population(omega, temperature)
    x = n / (1.0 + n)
    pops = (1.0 - x) * x ** np.arange(dimension)
    return FockState(np.diag(pops).astype(complex))


def gaussian_fock_state(v: ObservableVector, omega: float,
                        dimension: int = DEFAULT_DIMENSION) -> FockState:
    """Squeezed thermal state realizing a physical moment vector."""
    from scipy.linalg import expm

    v.check_physical(omega)
    x = math.sqrt(max(v.casimir(), 0.0)) / (HBAR * omega)
    n_eff = x - 0.5
    if n_eff < 1e-14:
        n_eff = 0.0
    if n_eff == 0.0:
        base = np.zeros((dimension, dimension), dtype=complex)
        base[0, 0] = 1.0
    else:
        base = thermal_fock_state(
            omega, HBAR * omega / math.log1p(1.0 / n_eff), dimension).matrix
    coh = math.hypot(v.l, v.c)
    if coh < 1e-14 * max(abs(v.h), 1.0):
        return FockState(base)
    r = 0.5 * math.atanh(coh / v.h)
    phase = complex(v.l, -v.c) / coh
    xi = r * phase
    a = ladder(dimension)
    squeeze = expm(0.5 * (np.conj(xi) * a @ a - xi * a.conj().T @ a.conj().T))
    return FockState(squeeze @ base @ squeeze.conj().T)


def _max_step(radius: float, rate: float) -> float:
    """Largest step that keeps spectral radius ``rate`` within ``radius``."""
    return radius / rate if rate > 0.0 else np.inf


def _solve(rhs, duration: float, y0: np.ndarray, times: np.ndarray,
           max_step: float) -> np.ndarray:
    """DOP853 solution of y' = rhs(t, y) at ``times``, shape (len(y0), n).

    solve_ivp leaves its OdeSolver in a reference cycle (the solver's ``fun``
    closes over the solver), and the solver holds the DOP853 stages of the
    whole state.  The cyclic collector is held off during the solve, so that
    it cannot promote the cycle to the oldest generation; a collection of the
    young generations then frees it without walking the whole heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        sol = solve_ivp(rhs, (0.0, duration), y0, method="DOP853",
                        rtol=ORACLE_RTOL, atol=ORACLE_ATOL, t_eval=times,
                        max_step=max_step)
    finally:
        if collecting:
            gc.enable()
    gc.collect(1)
    if not sol.success:
        raise NumericalError(f"density-matrix integration failed: {sol.message}")
    return sol.y


def _open_states(rho0: np.ndarray, protocol: FrequencyProtocol, bath: BathSpec,
                 ham, times: np.ndarray):
    """Schrodinger-picture density matrices U rho_int U^dag at ``times``.

    rho_int obeys the dissipator of the jump operator b frozen at the stroke
    start, which does not involve U.  U = P exp(-i E t / hbar) W P^dag in the
    eigenbasis (E, P) of H0 = H(omega_ref); with H(w) = H0 + (w^2 - omega_ref^2)
    Q^2 / 2, W' = -(i/hbar)(w^2 - omega_ref^2)(Phi(t) o P^dag (Q^2/2) P) W,
    Phi_nm = exp(i (E_n - E_m) t / hbar) and W(0) = I.  On a static stroke W'
    vanishes, so U is exact.
    """
    dim = rho0.shape[0]
    omega_ref = float(protocol.omega(0.0))
    b = build_jump_operator(omega_ref, float(protocol.mu(0.0)), dim)
    bd = b.conj().T
    bdb = bd @ b
    bbd = b @ bd

    def rho_rhs(t, y):
        rho = y.reshape(dim, dim)
        w = float(protocol.omega(t))
        k_down, k_up, _ = dressed_rates(w, float(protocol.omega_dot(t)) / w**2,
                                        bath)
        # rho B = (B rho)^dag for Hermitian rho and B; the jump terms are made
        # Hermitian to the last bit, so that rho_int stays Hermitian and no
        # anti-Hermitian rounding is amplified by this form
        anti = k_down * (bdb @ rho) + k_up * (bbd @ rho)
        jump = k_down * (b @ rho @ bd) + k_up * (bd @ rho @ b)
        return (0.5 * (jump + jump.conj().T - anti - anti.conj().T)).ravel()

    energies, basis = np.linalg.eigh(ham(omega_ref))
    q, _ = position_momentum(dim, omega_ref)
    x = basis.conj().T @ (0.5 * (q @ q)) @ basis

    def w_rhs(t, y):
        w = float(protocol.omega(t))
        phase = np.exp(1j * energies * t / HBAR)
        coupling = phase[:, None] * x * phase.conj()  # Phi(t) o x
        return ((-1j / HBAR) * (w * w - omega_ref * omega_ref)
                * (coupling @ y.reshape(dim, dim))).ravel()

    # spectral-radius bounds: |L rho| <= 2 |b|^2 (k_down + k_up) |rho| for the
    # dissipator, and |Phi o X| = |X| since Phi o X = D X D^dag, D unitary
    _, w, _, mu = protocol.sample()
    k_down, k_up, _ = dressed_rates(w, mu, bath)
    rho_rate = 2.0 * np.linalg.norm(b, 2) ** 2 * float(np.max(k_down + k_up))
    w_rate = float(np.max(np.abs(w * w - omega_ref * omega_ref))) \
        * float(np.linalg.eigvalsh(x)[-1]) / HBAR

    rho_int = _solve(rho_rhs, protocol.duration, rho0.ravel(), times,
                     _max_step(OPEN_STEP_RADIUS, rho_rate))
    w_mats = _solve(w_rhs, protocol.duration, np.eye(dim, dtype=complex).ravel(),
                    times, _max_step(COHERENT_STEP_RADIUS, w_rate))
    for i, t in enumerate(times):
        u = (basis * np.exp(-1j * energies * t / HBAR)) \
            @ w_mats[:, i].reshape(dim, dim) @ basis.conj().T
        yield u @ rho_int[:, i].reshape(dim, dim) @ u.conj().T


def _dephasing_states(rho0: np.ndarray, protocol: FrequencyProtocol,
                      gamma_d: float, ham, times: np.ndarray):
    """Density matrices at ``times`` under -(i/hbar)[H, rho] - gamma_d [H, [H, rho]].

    This is the Schrodinger picture of rho_int' = -gamma_d [H_int, [H_int,
    rho_int]] with H_int = U^dag H U, so no propagator is needed.  When the
    stroke's samples show omega constant and omega_dot = 0, the equation is
    diagonal in the eigenbasis (E, P) of H: rho_nm(t) = exp(-(i/hbar)(E_n -
    E_m) t - gamma_d (E_n - E_m)^2 t) rho_nm(0), with no solve.
    """
    dim = rho0.shape[0]
    _, w, w_dot, _ = protocol.sample()
    if np.all(w == w[0]) and not np.any(w_dot):
        energies, basis = np.linalg.eigh(ham(float(w[0])))
        gap = energies[:, None] - energies
        rate = (1j / HBAR) * gap + gamma_d * gap * gap
        rho_e = basis.conj().T @ rho0 @ basis
        return [basis @ (np.exp(-rate * t) * rho_e) @ basis.conj().T
                for t in times]

    def rhs(t, y):
        h = ham(float(protocol.omega(t)))
        hr = h @ y.reshape(dim, dim)
        comm = hr - hr.conj().T  # [H, rho] for Hermitian rho
        drho = (-1j / HBAR) * comm
        if gamma_d:
            hc = h @ comm
            drho = drho - gamma_d * (hc + hc.conj().T)  # comm is anti-Hermitian
        return drho.ravel()

    # H(w) is positive semidefinite and grows with w^2 in the Loewner order, so
    # the commutator's eigenvalues E_n - E_m are bounded by |H(w_max)|
    h_norm = float(np.linalg.eigvalsh(ham(float(np.max(w))))[-1])
    rate = h_norm / HBAR + gamma_d * h_norm * h_norm
    rho_s = _solve(rhs, protocol.duration, rho0.ravel(), times,
                   _max_step(COHERENT_STEP_RADIUS, rate))
    return rho_s.T.reshape(len(times), dim, dim)


def integrate_lindblad(rho0: FockState, protocol: FrequencyProtocol,
                       bath: BathSpec = None, gamma_d: float = None,
                       n_samples: int = 201):
    """Integrate the full master equation and return moment trajectories.

    Returns ``(times, h, l, c)`` at ``n_samples`` uniform times, or the
    initial moments at the single time 0 for a zero-duration stroke.  A
    stroke is open (a bath; the thermal dissipator uses the jump operator
    frozen at the stroke start) or dephasing (no bath; the pure-dephasing
    double commutator uses the instantaneous Hamiltonian, and ``gamma_d``
    None or 0 is the closed system).  Raises DomainError for fewer than 2
    samples, for a negative or non-finite ``gamma_d`` or for a bath together
    with dephasing, and TruncationError if population leaks into the top
    tenth of the basis.
    """
    if gamma_d is not None and not 0.0 <= gamma_d < math.inf:
        raise DomainError(
            f"dephasing strength must be finite and non-negative, got {gamma_d}")
    if bath is not None and gamma_d:
        raise DomainError("the oracle integrates a bath or dephasing, not both")
    if n_samples < 2:
        raise DomainError(f"a stroke needs at least 2 samples, got {n_samples}")
    p2, q2, qp = _quadratures(rho0.dimension, float(protocol.omega(0.0)))

    def ham(w):
        return p2 / 2.0 + 0.5 * w**2 * q2

    rho = rho0.matrix.astype(complex)
    times = np.linspace(0.0, protocol.duration,
                        n_samples if protocol.duration > 0.0 else 1)
    if protocol.duration == 0.0:
        states = [rho]
    elif bath is not None:
        states = _open_states(rho, protocol, bath, ham, times)
    else:
        states = _dephasing_states(rho, protocol, gamma_d or 0.0, ham, times)

    # tr(rho X) = sum_ij rho_ij X_ji for X = P^2, Q^2 and QP + PQ, one row each
    quad = np.stack([p2.T, q2.T, qp.T]).reshape(3, -1)
    traces = np.empty((3, len(times)))
    for i, rho_s in enumerate(states):
        traces[:, i] = np.real(quad @ rho_s.ravel())
    FockState(rho_s).validate(herm_tol=1e-8, trace_tol=1e-7, psd_tol=1e-7,
                              leakage_tol=1e-6)
    p2_m, q2_m, qp_m = traces
    w = np.asarray(protocol.omega(times), dtype=float)
    kinetic, potential = p2_m / 2.0, 0.5 * w**2 * q2_m
    return times, kinetic + potential, kinetic - potential, 0.5 * w * qp_m
