"""Moment-space propagation of the oscillator through unitary, open, and
dephasing strokes.

The basis (H, L, C, I) closes under every generator used here, so all
dynamics reduce to 4x4 linear ODEs.  The unitary part is

    dh/dt = w mu (h - l)
    dl/dt = w (-mu h + mu l - 2 c)
    dc/dt = w (2 l + mu c)

with mu = w_dot / w^2; at constant mu the stroke map has the closed form
implemented by :func:`free_propagator`.  The thermal-contact part is the
adjoint of the dressed-mode jump dissipator expressed in the same basis:
both quadratures damp at Gamma = k_down - k_up while the energy relaxes to
hbar w (k_down + k_up) / (Gamma kappa), which at mu = 0 is the Gibbs energy.
Pure dephasing in the instantaneous energy basis damps l and c at
4 gamma_d w^2 and leaves h untouched.  One :func:`generator` holds all three
parts; the bath and the dephasing strength select which are present.

Every propagator also accumulates the stroke work
W = integral (w_dot / w) (h - l) dt as an auxiliary ODE component, so work
values inherit the integrator tolerance rather than a sampling grid.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .core import (HBAR, BathSpec, FrequencyProtocol, ObservableVector,
                   dressed_rates)
from .errors import DomainError, NumericalError
from .protocols import SteSolution

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_SAMPLES = 801


@dataclass(frozen=True)
class NameRates:
    """Instantaneous downward/upward rates and the modified frequency."""

    k_down: float
    k_up: float
    alpha: float

    @property
    def gamma(self) -> float:
        return self.k_down - self.k_up


def name_rates(omega: float, omega_dot: float, bath: BathSpec) -> NameRates:
    """Rates of the dressed-mode master equation at one instant.

    alpha = w sqrt(1 - (w_dot / 2 w^2)^2) and
    k_down = (alpha g / kappa)(1 + N(alpha)) with kappa = sqrt(4 - mu^2);
    detailed balance fixes k_up = k_down exp(-hbar alpha / k_B T).
    """
    if omega <= 0:
        raise DomainError("omega must be positive")
    k_down, k_up, kappa = dressed_rates(omega, omega_dot / omega**2, bath)
    return NameRates(k_down=k_down, k_up=k_up, alpha=0.5 * omega * kappa)


def generator(omega: float, omega_dot: float, bath: Optional[BathSpec] = None,
              gamma_d: float = 0.0, out: Optional[np.ndarray] = None) -> np.ndarray:
    """5x5 generator of (h, l, c, 1, accumulated work) at one instant.

    The unitary part carries the w factor of the module equations.  A bath
    adds the dissipative closure: all three moments damp at
    Gamma = k_down - k_up while h (and, off the adiabatic limit, c) is pumped
    toward the dressed-mode stationary state.  Pure dephasing adds
    -4 gamma_d w^2 on l and c only.  The identity row stays zero, so the
    trace component is preserved exactly; the last row is the work integrand
    (w_dot / w)(h - l).  ``out`` is filled in place when given (every entry
    the generator can set is overwritten; the rest must be zero).
    """
    if gamma_d < 0:
        raise DomainError("dephasing strength must be non-negative")
    g = np.zeros((5, 5)) if out is None else out
    mu = omega_dot / (omega * omega)
    wmu = omega * mu
    gam = d03 = d23 = 0.0
    if bath is not None:
        k_down, k_up, kappa = dressed_rates(omega, mu, bath)
        gam = k_down - k_up
        sig = k_down + k_up
        d03 = HBAR * omega * sig / kappa
        d23 = -HBAR * omega * mu * sig / (2.0 * kappa)
    d11 = -gam - 4.0 * gamma_d * omega * omega
    g[0, 0] = wmu - gam
    g[0, 1] = -wmu
    g[0, 3] = d03
    g[1, 0] = -wmu
    g[1, 1] = wmu + d11
    g[1, 2] = -2.0 * omega
    g[2, 1] = 2.0 * omega
    g[2, 2] = wmu + d11
    g[2, 3] = d23
    g[4, 0] = omega_dot / omega
    g[4, 1] = -omega_dot / omega
    return g


def free_propagator(omega_initial: float, mu: float, t: float) -> np.ndarray:
    """Closed-form stroke map of the constant-mu drive at elapsed time t.

    The 3x3 moment block is (w/w0)/kappa^2 times a kappa*theta rotation
    structure with theta = int_0^t w dt'; the identity row/column is exact.
    """
    if abs(mu) >= 2.0:
        raise DomainError("|mu| must be below 2")
    x = mu * omega_initial * t
    if x >= 1.0:
        raise DomainError("constant-mu drive evaluated past its pole")
    kappa = math.sqrt(4.0 - mu * mu)
    theta = omega_initial * t if mu == 0.0 else -math.log1p(-x) / mu
    ratio = 1.0 / (1.0 - x)  # w(t) / w(0)
    c = math.cos(kappa * theta)
    s = math.sin(kappa * theta)
    k2 = kappa * kappa
    u = np.zeros((4, 4))
    u[:3, :3] = (ratio / k2) * np.array([
        [4.0 - mu * mu * c, -mu * kappa * s, -2.0 * mu * (c - 1.0)],
        [-mu * kappa * s, k2 * c, -2.0 * kappa * s],
        [2.0 * mu * (c - 1.0), 2.0 * kappa * s, 4.0 * c - mu * mu],
    ])
    u[3, 3] = 1.0
    return u


# ---------------------------------------------------------------------------
# stroke generators along a protocol (shared by trajectory and transfer-matrix
# integration)
# ---------------------------------------------------------------------------

class _SplinePair:
    """Scalar Horner evaluation of the omega / omega_dot cubic splines.

    Grid splines are evaluated on Python floats, read through memoryviews of
    the spline's own coefficient arrays: numpy scalars would make every
    generator evaluation several microseconds slower, and a Python copy of
    the coefficients would cost memory per stroke.
    """

    def __init__(self, protocol):
        self.t_max = protocol.duration
        if protocol.grid_times is not None:
            # coefficient k of interval i sits at k * m + i
            cw = np.ascontiguousarray(protocol._omega_fn.c)
            cd = np.ascontiguousarray(protocol._omega_dot_fn.c)
            self.m = cw.shape[1]
            self.x = memoryview(np.ascontiguousarray(protocol._omega_fn.x))
            self.cw = memoryview(cw.reshape(-1))
            self.cd = memoryview(cd.reshape(-1))
            self.fallback = None
        else:
            self.fallback = (protocol._omega_fn, protocol._omega_dot_fn)

    def __call__(self, t):
        if t < 0.0:
            t = 0.0
        elif t > self.t_max:
            t = self.t_max
        if self.fallback is not None:
            wf, wdf = self.fallback
            return float(wf(t)), float(wdf(t))
        t = float(t)
        x, c, d, m = self.x, self.cw, self.cd, self.m
        i = bisect_right(x, t) - 1
        if i < 0:
            i = 0
        elif i >= m:
            i = m - 1
        dt = t - x[i]
        return (((c[i] * dt + c[i + m]) * dt + c[i + 2 * m]) * dt + c[i + 3 * m],
                ((d[i] * dt + d[i + m]) * dt + d[i + 2 * m]) * dt + d[i + 3 * m])


def gen5_factory(protocol: FrequencyProtocol, bath: Optional[BathSpec] = None,
                 gamma_d: float = 0.0):
    """Build t -> :func:`generator` along the protocol.

    The returned callable reuses one buffer; callers must not hold on to the
    returned array across calls.
    """
    pair = _SplinePair(protocol)
    buf = np.zeros((5, 5))

    def gen5(t):
        w, wd = pair(t)
        try:
            return generator(w, wd, bath, gamma_d, out=buf)
        except DomainError as err:
            raise DomainError(f"{err} at t = {t:.6g}") from None

    return gen5


@dataclass
class Trajectory:
    """Moment vectors along one stroke plus the work/heat bookkeeping."""

    times: np.ndarray
    vectors: np.ndarray          # (n, 4)
    omegas: np.ndarray
    omega_dots: np.ndarray
    provenance: str
    work: float
    heat: float
    work_trace: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.times) < 0):
            raise DomainError("trajectory times must be non-decreasing")

    @property
    def initial_vector(self) -> ObservableVector:
        return ObservableVector.from_array(self.vectors[0])

    @property
    def final_vector(self) -> ObservableVector:
        return ObservableVector.from_array(self.vectors[-1])

    @property
    def energy_change(self) -> float:
        return float(self.vectors[-1, 0] - self.vectors[0, 0])

    def coherences(self) -> np.ndarray:
        return np.hypot(self.vectors[:, 1], self.vectors[:, 2]) / (HBAR * self.omegas)

    def casimirs(self) -> np.ndarray:
        v = self.vectors
        return (v[:, 0] ** 2 - v[:, 1] ** 2 - v[:, 2] ** 2) / self.omegas**2

    def to_csv(self, path) -> None:
        """Deterministic CSV export: t, omega, h, l, c, coherence."""
        coh = self.coherences()
        lines = ["t,omega,h,l,c,coherence"]
        for i in range(len(self.times)):
            row = (self.times[i], self.omegas[i], self.vectors[i, 0],
                   self.vectors[i, 1], self.vectors[i, 2], coh[i])
            lines.append(",".join(f"{x:.17g}" for x in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _point_trajectory(v0, protocol, provenance):
    w0 = float(np.atleast_1d(protocol.omega(0.0))[0])
    v = v0.as_array()
    return Trajectory(times=np.array([0.0]), vectors=v[None, :],
                      omegas=np.array([w0]), omega_dots=np.array([0.0]),
                      provenance=provenance, work=0.0, heat=0.0,
                      work_trace=np.zeros(1))


def _integrate_stroke(v0: ObservableVector, protocol: FrequencyProtocol,
                      provenance: str, n_samples: int,
                      rtol: float, atol: float, bath=None,
                      gamma_d: float = 0.0) -> Trajectory:
    if protocol.duration == 0.0:
        return _point_trajectory(v0, protocol, provenance)

    gen5 = gen5_factory(protocol, bath=bath, gamma_d=gamma_d)

    def rhs(t, y):
        return gen5(t) @ y

    y0 = np.append(v0.as_array(), 0.0)
    sol = solve_ivp(rhs, (0.0, protocol.duration), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise NumericalError(f"stroke integration failed: {sol.message}",
                             diagnostics={"provenance": provenance,
                                          "duration": protocol.duration})
    times = np.linspace(0.0, protocol.duration, n_samples)
    ys = sol.sol(times).T
    work = float(ys[-1, 4])
    heat = float(ys[-1, 0] - ys[0, 0]) - work
    return Trajectory(times=times, vectors=ys[:, :4],
                      omegas=np.atleast_1d(protocol.omega(times)),
                      omega_dots=np.atleast_1d(protocol.omega_dot(times)),
                      provenance=provenance, work=work, heat=heat,
                      work_trace=ys[:, 4])


def propagate_unitary(v0: ObservableVector, protocol: FrequencyProtocol,
                      n_samples: int = DEFAULT_SAMPLES,
                      rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL) -> Trajectory:
    """Closed-system stroke.  Constant-mu drives use the closed-form map;
    anything else integrates the moment equations."""
    if protocol.meta.get("family") == "constant_mu" and protocol.duration > 0.0:
        mu = protocol.meta["mu"]
        w0 = protocol.meta["omega_initial"]
        times = np.linspace(0.0, protocol.duration, n_samples)
        vecs = np.array([free_propagator(w0, mu, t) @ v0.as_array() for t in times])
        omegas = np.atleast_1d(protocol.omega(times))
        v0a = v0.as_array()

        def wrhs(t, y):
            v = free_propagator(w0, mu, t) @ v0a
            w = float(protocol.omega(t))
            return [(float(protocol.omega_dot(t)) / w) * (v[0] - v[1])]

        sol = solve_ivp(wrhs, (0.0, protocol.duration), [0.0], method="RK45",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        if not sol.success:
            raise NumericalError(f"work quadrature failed: {sol.message}")
        work_trace = sol.sol(times)[0]
        work = float(work_trace[-1])
        heat = float(vecs[-1, 0] - vecs[0, 0]) - work
        return Trajectory(times=times, vectors=vecs, omegas=omegas,
                          omega_dots=np.atleast_1d(protocol.omega_dot(times)),
                          provenance="unitary", work=work, heat=heat,
                          work_trace=work_trace)
    return _integrate_stroke(v0, protocol, "unitary", n_samples, rtol, atol)


def propagate_open(v0: ObservableVector, protocol: FrequencyProtocol,
                   bath: BathSpec, n_samples: int = DEFAULT_SAMPLES,
                   rtol: float = DEFAULT_RTOL,
                   atol: float = DEFAULT_ATOL) -> Trajectory:
    """Thermal-contact stroke along an arbitrary protocol."""
    return _integrate_stroke(v0, protocol, "open", n_samples, rtol, atol,
                             bath=bath)


def propagate_dephasing(v0: ObservableVector, protocol: FrequencyProtocol,
                        gamma_d: float, bath: Optional[BathSpec] = None,
                        n_samples: int = DEFAULT_SAMPLES,
                        rtol: float = DEFAULT_RTOL,
                        atol: float = DEFAULT_ATOL) -> Trajectory:
    """Stroke with pure energy-basis dephasing (optionally plus a bath)."""
    if gamma_d < 0:
        raise DomainError("dephasing strength must be non-negative")
    return _integrate_stroke(v0, protocol, "dephasing", n_samples, rtol, atol,
                             bath=bath, gamma_d=gamma_d)


def propagate_ste_beta(beta0: float, ste: SteSolution, bath: BathSpec,
                       n_samples: int = DEFAULT_SAMPLES,
                       rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL):
    """Reduced exponential-state dynamics along an open stroke.

    Integrates beta_dot = k_down (e^beta - 1) + k_up (e^-beta - 1) with the
    instantaneous rates of the stroke protocol; for a designed stroke this
    reproduces ln y(t).  Returns (times, beta_values).
    """
    protocol = ste.protocol

    def rhs(t, y):
        r = name_rates(float(protocol.omega(t)), float(protocol.omega_dot(t)), bath)
        return [r.k_down * math.expm1(y[0]) + r.k_up * math.expm1(-y[0])]

    sol = solve_ivp(rhs, (0.0, protocol.duration), [beta0], method="RK45",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise NumericalError(f"beta integration failed: {sol.message}")
    times = np.linspace(0.0, protocol.duration, n_samples)
    return times, sol.sol(times)[0]
