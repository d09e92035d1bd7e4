"""Brute-force reference dynamics in a truncated number basis.

This module exists to validate the moment propagators against a full
density-matrix integration and is never used in cycle sweeps.  Each stroke
integrates only what its master equation couples:

* Open strokes (a bath).  The thermal dissipator acts in the interaction
  picture with the dressed jump operator frozen at its stroke-initial form
  b(0), so rho_int never involves the system propagator U(t) = T-exp(-(i/hbar)
  int H dt').  Moments are tr(U rho_int U^dag X(t)).  On a static stroke
  (omega constant, omega_dot = 0) b(0) is the ladder operator, the
  dissipator keeps each coherence order apart, and both rho_int and U are
  exact, with no solve.  On a driven stroke rho_int is one solve and U a
  second, in the frame of H(omega_ref) with omega_ref^2 the middle of the
  stroke's range of omega^2, where only the change of frequency is left to
  integrate.
* Dephasing strokes (no bath).  The Schrodinger-picture density matrix obeys
  -(i/hbar)[H, rho] - gamma_d [H, [H, rho]], the dephasing double commutator
  of the interaction picture moved back by U, and is integrated directly
  with no propagator; gamma_d = 0 is the closed system.  On a static stroke
  (omega constant, omega_dot = 0) the equation is diagonal in the energy
  eigenbasis and is solved there exactly, with no solve at all.

Every solve is DOP853 with its step bounded by the method's stability region.
H(w), P^2 and Q^2 are kept real, and a product of one with a complex matrix
is one real product on that matrix's float view.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass

import numpy as np

from .core import (HBAR, BathSpec, FrequencyProtocol, ObservableVector,
                   dressed_rates, thermal_population)
from .dynamics import _check_gamma_d, solve_ivp
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
#: cannot grow again.
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
    """P^2, Q^2 and QP + PQ on the basis of reference frequency omega_ref.

    P^2 and Q^2 are real (their imaginary parts are exactly 0), and are kept
    real so that H(w) and the products with it are real.
    """
    q, p = position_momentum(dimension, omega_ref)
    return (p @ p).real, (q @ q).real, q @ p + p @ q


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


def _real_product(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for a real matrix ``a`` and a complex matrix ``z``.

    One real product on the (n, 2n) float view of z: numpy would otherwise
    cast a to complex and multiply its zero imaginary part as well.
    """
    z = np.ascontiguousarray(z)
    return (a @ z.view(float)).view(complex)


def _congruence(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``a @ rho @ a.T`` for a real ``a`` and a Hermitian ``rho``.

    rho a^T = (a rho)^dag, so both factors are left real products.
    """
    return _real_product(a, _real_product(a, rho).conj().T)


def _is_static(protocol: FrequencyProtocol) -> bool:
    """Whether the stroke's samples show omega constant and omega_dot = 0."""
    _, w, w_dot, _ = protocol.sample()
    return bool(np.all(w == w[0])) and not np.any(w_dot)


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


def _static_open_int(rho0: np.ndarray, k_down: float, k_up: float, step: float,
                     n_times: int) -> np.ndarray:
    """rho_int at ``n_times`` times ``step`` apart on a static open stroke.

    At mu = 0 the jump operator is the ladder operator a (the a^dag part of
    b is rounding), and the dissipator keeps the coherence order k = m - n of
    each entry rho_nm (Breuer & Petruccione, "The Theory of Open Quantum
    Systems", 2002, Sec. 3.4.6).  With r_n = sqrt((n+1)(n+k+1)) and N_j =
    (a a^dag)_jj, which is j + 1 below the top level of the truncated basis
    and 0 on it, order k is the real tridiagonal system

        rho_n' = k_down (r_n rho_{n+1} - (n + k/2) rho_n)
               + k_up (r_{n-1} rho_{n-1} - (N_n + N_{n+k}) rho_n / 2)

    for rho_n = rho_{n,n+k}, n < dim - k.  Its rates are constant, so each
    order takes one exponential over the step and then repeated products.
    """
    from scipy.linalg import expm

    dim = rho0.shape[0]
    levels = np.arange(dim)
    root = np.sqrt(levels[1:].astype(float))  # a_{n,n+1}
    raised = np.append(levels[1:], 0).astype(float)  # N_j, diagonal of a a^dag
    # exp(G_k step) in the top-left (dim - k)^2 corner of slice k, 0 elsewhere
    steps = np.zeros((dim, dim, dim))
    for k in range(dim):
        size = dim - k
        n = levels[:size]
        gen = np.diag(-0.5 * (k_down * (2 * n + k)
                              + k_up * (raised[:size] + raised[k:])))
        hop = root[:size - 1] * root[k:]
        gen[n[:-1], n[1:]] = k_down * hop
        gen[n[1:], n[:-1]] = k_up * hop
        steps[k, :size, :size] = expm(step * gen)
    order, n = np.nonzero(levels < dim - levels[:, None])
    rows, cols = n, n + order
    # coherences by order: coh[k, n] = rho_{n,n+k}
    coh = np.zeros((dim, dim), dtype=complex)
    coh[order, n] = rho0[rows, cols]
    out = np.empty((n_times, dim, dim), dtype=complex)
    for i in range(n_times):
        if i:
            coh = (steps @ coh.view(float).reshape(dim, dim, 2)) \
                .view(complex).reshape(dim, dim)
        vals = coh[order, n]
        out[i, cols, rows] = vals.conj()
        out[i, rows, cols] = vals
    return out


def _open_states(rho0: np.ndarray, protocol: FrequencyProtocol, bath: BathSpec,
                 ham, q2: np.ndarray, times: np.ndarray):
    """Schrodinger-picture density matrices U rho_int U^dag at ``times``.

    rho_int obeys the dissipator of the jump operator b frozen at the stroke
    start, which does not involve U.  On a static stroke (omega constant,
    omega_dot = 0) rho_int is exact (``_static_open_int``) and so is U = P
    exp(-i E t / hbar) P^T in the eigenbasis (E, P) of H, with no solve at all.
    On a driven stroke rho_int is one solve, and U = P exp(-i E t / hbar) W
    P^T in the eigenbasis of H0 = H(omega_ref), where omega_ref^2 is the middle
    of the stroke's range of omega^2.  With H(w) = H0 + (w^2 - omega_ref^2)
    Q^2 / 2, W' = -(i/hbar)(w^2 - omega_ref^2)(Phi(t) o P^T (Q^2/2) P) W,
    Phi_nm = exp(i (E_n - E_m) t / hbar) and W(0) = I.  The middle frame halves
    max |w^2 - omega_ref^2| against omega_ref = omega(0), and H0 is then no
    longer the nearly diagonal H(omega(0)) of the basis, whose eigenvectors
    hold entries far below 1e-100, some of them subnormal, that slow every
    product with them.
    """
    dim = rho0.shape[0]
    if _is_static(protocol):
        omega = float(protocol.omega(0.0))
        k_down, k_up, _ = dressed_rates(omega, 0.0, bath)
        rho_int = _static_open_int(rho0, float(k_down), float(k_up),
                                   protocol.duration / (len(times) - 1),
                                   len(times))
        energies, basis = np.linalg.eigh(ham(omega))
        for t, rho in zip(times, rho_int):
            phase = np.exp(-1j * energies * t / HBAR)
            rho_e = _congruence(basis.T, rho)
            yield _congruence(basis, phase[:, None] * rho_e * phase.conj())
        return

    b = build_jump_operator(float(protocol.omega(0.0)), float(protocol.mu(0.0)),
                            dim)
    bd = b.conj().T
    bdb = bd @ b
    bbd = b @ bd

    def rho_rhs(t, y):
        rho = y.reshape(dim, dim)
        w, w_dot = (float(x) for x in protocol.frequency(t))
        k_down, k_up, _ = dressed_rates(w, w_dot / w**2, bath)
        # rho B = (B rho)^dag for Hermitian rho and B; the jump terms are made
        # Hermitian to the last bit, so that rho_int stays Hermitian and no
        # anti-Hermitian rounding is amplified by this form
        anti = (k_down * bdb + k_up * bbd) @ rho
        jump = k_down * (b @ rho @ bd) + k_up * (bd @ rho @ b)
        return (0.5 * (jump + jump.conj().T - anti - anti.conj().T)).ravel()

    _, w, _, mu = protocol.sample()
    omega_ref = math.sqrt(0.5 * (np.min(w * w) + np.max(w * w)))
    energies, basis = np.linalg.eigh(ham(omega_ref))
    x = basis.T @ (0.5 * q2) @ basis

    def w_rhs(t, y):
        w = float(protocol.omega(t))
        phase = np.exp(1j * energies * t / HBAR)
        # (Phi(t) o x) W = D x D^dag W with D = diag(phase)
        xw = _real_product(x, phase.conj()[:, None] * y.reshape(dim, dim))
        scale = (-1j / HBAR) * (w * w - omega_ref * omega_ref)
        return ((scale * phase)[:, None] * xw).ravel()

    # spectral-radius bounds: |L rho| <= 2 |b|^2 (k_down + k_up) |rho| for the
    # dissipator, and |Phi o X| = |X| since Phi o X = D X D^dag, D unitary
    k_down, k_up, _ = dressed_rates(w, mu, bath)
    rho_rate = 2.0 * np.linalg.norm(b, 2) ** 2 * float(np.max(k_down + k_up))
    w_rate = float(np.max(np.abs(w * w - omega_ref * omega_ref))) \
        * float(np.linalg.eigvalsh(x)[-1]) / HBAR

    rho_int = _solve(rho_rhs, protocol.duration, rho0.ravel(), times,
                     _max_step(OPEN_STEP_RADIUS, rho_rate))
    w_mats = _solve(w_rhs, protocol.duration, np.eye(dim, dtype=complex).ravel(),
                    times, _max_step(COHERENT_STEP_RADIUS, w_rate))
    for i, t in enumerate(times):
        # U = P X P^T with X = exp(-i E t / hbar) W, and X P^T = (P X^T)^T
        x_t = np.exp(-1j * energies * t / HBAR)[:, None] \
            * w_mats[:, i].reshape(dim, dim)
        u = _real_product(basis, _real_product(basis, x_t.T).T)
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
    if _is_static(protocol):
        energies, basis = np.linalg.eigh(ham(float(protocol.omega(0.0))))
        gap = energies[:, None] - energies
        rate = (1j / HBAR) * gap + gamma_d * gap * gap
        rho_e = _congruence(basis.T, rho0)
        return [_congruence(basis, np.exp(-rate * t) * rho_e) for t in times]

    def rhs(t, y):
        h = ham(float(protocol.omega(t)))
        hr = _real_product(h, y.reshape(dim, dim))
        comm = hr - hr.conj().T  # [H, rho] for Hermitian rho
        drho = (-1j / HBAR) * comm
        if gamma_d:
            hc = _real_product(h, comm)
            drho = drho - gamma_d * (hc + hc.conj().T)  # comm is anti-Hermitian
        return drho.ravel()

    # H(w) is positive semidefinite and grows with w^2 in the Loewner order, so
    # the commutator's eigenvalues E_n - E_m are bounded by |H(w_max)|
    _, w, _, _ = protocol.sample()
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
    if gamma_d is not None:
        _check_gamma_d(gamma_d)
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
        states = _open_states(rho, protocol, bath, ham, q2, times)
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
