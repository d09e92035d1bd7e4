"""Brute-force reference dynamics in a truncated number basis.

This module exists to validate the 4x4 moment propagators against a full
density-matrix integration and is never used in cycle sweeps.  The density
matrix is integrated in the interaction picture: the dressed jump operator is
frozen at its stroke-initial form b(0) while the system propagator
U(t) = T-exp(-i int H dt') is integrated alongside and used both to dress the
dephasing double commutator and to extract Schrodinger-picture moments
tr(U rho U^dag X(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .core import HBAR, BathSpec, FrequencyProtocol, ObservableVector, thermal_population
from .dynamics import name_rates
from .errors import DomainError, NumericalError, TruncationError, UnphysicalState

DEFAULT_DIMENSION = 60


def ladder(dimension: int) -> np.ndarray:
    """Annihilation operator in the truncated number basis."""
    return np.diag(np.sqrt(np.arange(1, dimension)), k=1).astype(complex)


def position_momentum(dimension: int, omega: float, mass: float = 1.0):
    """Q and P matrices for the oscillator basis at reference frequency omega."""
    a = ladder(dimension)
    q = math.sqrt(HBAR / (2.0 * mass * omega)) * (a + a.conj().T)
    p = 1j * math.sqrt(HBAR * mass * omega / 2.0) * (a.conj().T - a)
    return q, p


def basis_operators(dimension: int, omega_ref: float, mass: float = 1.0):
    """Callables H(w), L(w), C(w) built on a fixed reference basis."""
    q, p = position_momentum(dimension, omega_ref, mass)
    q2 = q @ q
    p2 = p @ p
    qp = q @ p + p @ q

    def ham(w):
        return p2 / (2.0 * mass) + 0.5 * mass * w**2 * q2

    def lag(w):
        return p2 / (2.0 * mass) - 0.5 * mass * w**2 * q2

    def corr(w):
        return 0.5 * w * qp

    return ham, lag, corr


def build_jump_operator(omega0: float, mu: float, dimension: int,
                        mass: float = 1.0) -> np.ndarray:
    """Dressed-mode annihilation operator at the stroke-initial parameters.

    b = sqrt(m w0 / kappa hbar) (kappa + i mu)/2 (Q + (mu + i kappa)/(2 m w0) P);
    reduces to the bare ladder operator at mu = 0.
    """
    if dimension < 4:
        raise DomainError("dimension must be at least 4")
    if abs(mu) >= 2.0:
        raise DomainError("|mu| must be below 2")
    kappa = math.sqrt(4.0 - mu * mu)
    q, p = position_momentum(dimension, omega0, mass)
    z = (mu + 1j * kappa) / (2.0 * mass * omega0)
    return math.sqrt(mass * omega0 / (kappa * HBAR)) * ((kappa + 1j * mu) / 2.0) \
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
                        dimension: int = DEFAULT_DIMENSION,
                        mass: float = 1.0) -> FockState:
    """Squeezed thermal state realizing a physical moment vector."""
    v.check_physical(omega)
    x = math.sqrt(max(v.casimir(), 0.0)) / (HBAR * omega)
    n_eff = x - 0.5
    if n_eff < 1e-14:
        n_eff = 0.0
    coh = math.hypot(v.l, v.c)
    if coh < 1e-14 * max(abs(v.h), 1.0):
        if n_eff == 0.0:
            m = np.zeros((dimension, dimension), dtype=complex)
            m[0, 0] = 1.0
            return FockState(m)
        return thermal_fock_state(omega, HBAR * omega / math.log1p(1.0 / n_eff),
                                  dimension)
    r = 0.5 * math.atanh(coh / v.h)
    phase = complex(v.l, -v.c) / coh
    xi = r * phase
    a = ladder(dimension)
    squeeze = expm(0.5 * (np.conj(xi) * a @ a - xi * a.conj().T @ a.conj().T))
    if n_eff == 0.0:
        base = np.zeros((dimension, dimension), dtype=complex)
        base[0, 0] = 1.0
    else:
        base = thermal_fock_state(
            omega, HBAR * omega / math.log1p(1.0 / n_eff), dimension).matrix
    return FockState(squeeze @ base @ squeeze.conj().T)


def integrate_lindblad(rho0: FockState, protocol: FrequencyProtocol,
                       bath: BathSpec = None, gamma_d: float = None,
                       mass: float = 1.0, n_samples: int = 201,
                       rtol: float = 1e-8, atol: float = 1e-10):
    """Integrate the full master equation and return moment trajectories.

    Returns ``(times, h, l, c)``.  The thermal dissipator uses the jump
    operator frozen at the stroke start; the pure-dephasing double commutator
    uses the dressed Hamiltonian.  Raises TruncationError if population leaks
    into the top tenth of the basis.
    """
    dim = rho0.dimension
    omega_ref = float(protocol.omega(0.0))
    mu0 = float(protocol.mu(0.0)) if protocol.duration > 0 else 0.0
    ham, lag, corr = basis_operators(dim, omega_ref, mass)

    have_bath = bath is not None
    have_deph = gamma_d is not None and gamma_d > 0
    if gamma_d is not None and gamma_d < 0:
        raise DomainError("dephasing strength must be non-negative")

    if have_bath:
        b = build_jump_operator(omega_ref, mu0, dim, mass)
        bd = b.conj().T
        bdb = bd @ b
        bbd = b @ bd

    nmat = dim * dim

    def rhs(t, y):
        u = y[:nmat].reshape(dim, dim)
        rho = y[nmat:].reshape(dim, dim)
        w = float(protocol.omega(t))
        h_t = ham(w)
        du = (-1j / HBAR) * (h_t @ u)
        drho = np.zeros_like(rho)
        if have_bath:
            r = name_rates(w, float(protocol.omega_dot(t)), bath)
            drho = drho + r.k_down * (b @ rho @ bd - 0.5 * (bdb @ rho + rho @ bdb))
            drho = drho + r.k_up * (bd @ rho @ b - 0.5 * (bbd @ rho + rho @ bbd))
        if have_deph:
            h_int = u.conj().T @ h_t @ u
            comm = h_int @ rho - rho @ h_int
            drho = drho - gamma_d * (h_int @ comm - comm @ h_int)
        return np.concatenate([du.ravel(), drho.ravel()])

    y0 = np.concatenate([np.eye(dim, dtype=complex).ravel(),
                         rho0.matrix.astype(complex).ravel()])
    times = np.linspace(0.0, protocol.duration, n_samples)
    sol = solve_ivp(rhs, (0.0, protocol.duration), y0, method="DOP853",
                    rtol=rtol, atol=atol, t_eval=times)
    if not sol.success:
        raise NumericalError(f"density-matrix integration failed: {sol.message}")

    hs = np.empty(n_samples)
    ls = np.empty(n_samples)
    cs = np.empty(n_samples)
    for i, t in enumerate(times):
        y = sol.y[:, i]
        u = y[:nmat].reshape(dim, dim)
        rho_int = y[nmat:].reshape(dim, dim)
        rho_s = u @ rho_int @ u.conj().T
        w = float(protocol.omega(t))
        hs[i] = np.real(np.trace(rho_s @ ham(w)))
        ls[i] = np.real(np.trace(rho_s @ lag(w)))
        cs[i] = np.real(np.trace(rho_s @ corr(w)))
        if i == n_samples - 1:
            FockState(rho_s).validate(herm_tol=1e-8, trace_tol=1e-7,
                                      psd_tol=1e-7, leakage_tol=1e-6)
    return times, hs, ls, cs
