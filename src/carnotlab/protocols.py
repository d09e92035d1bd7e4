"""Frequency-protocol synthesis for all stroke types.

Four families are built here:

* transitionless unitary ramps from the oscillator scaling-function equation
  (``build_sta_protocol``),
* open-stroke ramps that steer the exponential-state parameter between two
  Gibbs states by inverting the rate equation for the drive frequency
  (``build_ste_protocol`` and its non-stationary-endpoint variant),
* constant adiabatic-speed drives with the closed form
  w(t) = w_i / (1 - mu w_i t) (``build_constant_mu_protocol``).

The open-stroke inversion works on a dense uniform grid: at each instant the
target (beta, beta_dot) pair fixes the required dressed-mode occupation,
hence the modified frequency alpha; the relation alpha = w*sqrt(1 - mu^2/4)
then pins |w_dot|.  We solve the resulting implicit system by fixed-point
iteration on the mu profile with a vectorized Newton root-find per grid
point, which lands the endpoint frequency to machine precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (HBAR, KB, BathSpec, ConstantMuFrequency, FrequencyProtocol,
                   ObservableVector, dressed_rates, spline_slopes, write_csv,
                   write_json)
from .errors import (DomainError, InfeasibleStroke, InvalidProtocol,
                     ProtocolInversionFailure)

DEFAULT_GRID_POINTS = 4001
#: Iteration budget of the open-stroke frequency inversion, and the change of
#: the drive, relative to the larger endpoint frequency, below which it stops.
INVERSION_MAX_ITER = 80
INVERSION_TOL = 1e-12


def _check_arguments(omega_initial, omega_final, t_f=None, mu=None,
                     internal_temperature=None) -> None:
    """The argument check of every builder: raise DomainError naming the
    first argument that is NaN or infinite, then for a non-positive
    frequency, duration or internal temperature.  None is an argument that
    the builder does not take."""
    for name, value in (("omega_initial", omega_initial),
                        ("omega_final", omega_final), ("t_f", t_f),
                        ("mu", mu),
                        ("internal_temperature", internal_temperature)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if omega_initial <= 0 or omega_final <= 0:
        raise DomainError("frequencies must be positive")
    if t_f is not None and t_f <= 0:
        raise DomainError("stroke duration must be positive")
    if internal_temperature is not None and internal_temperature <= 0:
        raise DomainError("internal temperature must be positive")


# ---------------------------------------------------------------------------
# polynomial boundary-value helpers (in scaled time s = t / t_f)
# ---------------------------------------------------------------------------

def _quintic(y0, y1, dy0, dy1, d2y0, d2y1):
    """Coefficients, lowest degree first, of the fifth-degree polynomial in s
    with the given values/derivatives at s = 0, 1."""
    a = np.zeros(6)
    a[0], a[1], a[2] = y0, dy0, 0.5 * d2y0
    rhs = np.array([
        y1 - (a[0] + a[1] + a[2]),
        dy1 - (a[1] + 2 * a[2]),
        d2y1 - 2 * a[2],
    ])
    m = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    a[3:] = np.linalg.solve(m, rhs)
    return a


def _deriv(c):
    """Coefficients j c[j] of the derivative of the polynomial ``c``."""
    return np.arange(1, len(c)) * c[1:]


def _polyval(c, s):
    """The polynomial ``c`` at ``s`` by Horner's rule, in the order of
    operations of ``numpy.polynomial.polynomial.polyval``."""
    value = c[-1] + s * 0
    for coef in c[-2::-1]:
        value = coef + value * s
    return value


class _PolyEval:
    """d^order/dt^order of a polynomial in s = t/t_f, as a function of t."""

    def __init__(self, poly, t_f, order=0):
        for _ in range(order):
            poly = _deriv(poly)
        self.poly = poly
        self.t_f = t_f
        with np.errstate(over="ignore"):
            # inf for a t_f so short that the ramp is refused anyway
            self.scale = np.float64(t_f) ** -order if order else 1.0

    def __call__(self, t):
        return _polyval(self.poly, np.asarray(t, dtype=float) / self.t_f) \
            * self.scale


# ---------------------------------------------------------------------------
# shortcut-to-adiabaticity (unitary) strokes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErmakovSolution:
    """Scaling function rho(t) and derivatives for a transitionless ramp."""

    rho: Callable
    rho_dot: Callable
    t_f: float
    omega: Callable = field(default=None, repr=False)


class _StaFrequency:
    """omega(t) = sqrt(1/rho^4 - rho''/rho) of a transitionless ramp and
    omega_dot(t) = d(omega^2)/dt / (2 omega), from the scaling function rho,
    a polynomial in s = t/t_f, and its first three derivatives ``rho[k]``;
    ``curves=1`` evaluates rho and rho'' alone and gives (omega(t),)."""

    def __init__(self, poly, t_f):
        self.rho = [_PolyEval(poly, t_f, k) for k in range(4)]

    def omega(self, t):
        return self(t, 1)[0]

    def __call__(self, t, curves=2):
        r, r2 = self.rho[0](t), self.rho[2](t)
        w = np.sqrt(1.0 / r**4 - r2 / r)
        if curves == 1:
            return (w,)
        r1, r3 = self.rho[1](t), self.rho[3](t)
        dw2 = -4.0 * r1 / r**5 - (r3 * r - r2 * r1) / r**2
        return w, dw2 / (2.0 * w)


def build_sta_protocol(omega_initial: float, omega_final: float, t_f: float):
    """Transitionless ramp between two trap frequencies.

    Returns ``(FrequencyProtocol, ErmakovSolution)``.  The scaling function is
    the unique quintic satisfying the six stationarity conditions at the
    endpoints; the control frequency follows from
    w^2 = 1/rho^4 - rho_ddot/rho.  If the required w^2 turns negative
    anywhere (the trap would have to become repulsive) the ramp is refused
    with ``InvalidProtocol`` carrying the first violating time.
    """
    _check_arguments(omega_initial, omega_final, t_f=t_f)

    rho0 = 1.0 / math.sqrt(omega_initial)
    rho1 = rho0 * math.sqrt(omega_initial / omega_final)
    poly = _quintic(rho0, rho1, 0.0, 0.0, 0.0, 0.0)

    frequency = _StaFrequency(poly, t_f)

    t_dense = np.linspace(0.0, t_f, DEFAULT_GRID_POINTS)
    with np.errstate(invalid="ignore", over="ignore"):
        # omega is NaN where omega^2 < 0 and 0 where it is 0
        held = frequency.omega(t_dense) > 0
    if not np.all(held):
        t_bad = float(t_dense[np.argmin(held)])
        raise InvalidProtocol(
            f"trap frequency squared turns negative at t={t_bad:.6g}; "
            "retry with a longer stroke", time=t_bad)

    protocol = FrequencyProtocol.from_frequency(
        t_f, frequency, meta={"family": "sta", "omega_initial": omega_initial,
                              "omega_final": omega_final, "t_f": t_f})
    ermakov = ErmakovSolution(rho=frequency.rho[0], rho_dot=frequency.rho[1],
                              t_f=t_f, omega=frequency.omega)
    return protocol, ermakov


def sta_expectation_values(ermakov: ErmakovSolution, omega_start: float,
                           temperature: float, t):
    """Closed-form moment vector along a transitionless ramp started thermal.

    Valid for 0 <= t <= t_f; returns an ObservableVector (scalar t) or the
    stacked (n, 4) array for array input.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -1e-12) or np.any(t_arr > ermakov.t_f * (1 + 1e-12)):
        raise DomainError("t outside the stroke")
    r = ermakov.rho(t_arr)
    rd = ermakov.rho_dot(t_arr)
    w = ermakov.omega(t_arr)
    cfac = 0.5 / math.tanh(HBAR * omega_start / (2.0 * KB * temperature))
    h = 0.5 * HBAR * (rd**2 + 1.0 / r**2 + w**2 * r**2) * cfac
    l = 0.5 * HBAR * (rd**2 + 1.0 / r**2 - w**2 * r**2) * cfac
    c = HBAR * w * rd * r * cfac
    if t_arr.ndim == 0:
        return ObservableVector(h=float(h), l=float(l), c=float(c))
    return np.stack([h, l, c, np.ones_like(h)], axis=1)


# ---------------------------------------------------------------------------
# constant adiabatic-speed strokes
# ---------------------------------------------------------------------------

def constant_mu_duration(omega_initial: float, omega_final: float, mu: float) -> float:
    """Stroke duration (w_f - w_i) / (mu w_f w_i) of a constant-mu drive."""
    return (omega_final - omega_initial) / (mu * omega_final * omega_initial)


def build_constant_mu_protocol(omega_initial: float, omega_final: float,
                               mu: float) -> FrequencyProtocol:
    """Closed-form drive w(t) = w_i/(1 - mu w_i t) ending exactly at w_f."""
    _check_arguments(omega_initial, omega_final, mu=mu)
    if abs(mu) >= 2:
        raise DomainError("|mu| must be below 2")
    meta = {"family": "constant_mu", "mu": mu, "omega_initial": omega_initial,
            "omega_final": omega_final}
    if omega_initial == omega_final:
        return FrequencyProtocol.constant(omega_initial, 0.0, meta=meta)
    if mu == 0:
        raise DomainError("mu must be nonzero for a frequency-changing stroke")
    t_f = constant_mu_duration(omega_initial, omega_final, mu)
    if t_f <= 0:
        raise DomainError(
            f"mu={mu} has the wrong sign for {omega_initial} -> {omega_final}: "
            "the drive runs into its pole")
    return FrequencyProtocol.from_frequency(
        t_f, ConstantMuFrequency(omega_initial, mu), meta=meta)


# ---------------------------------------------------------------------------
# shortcut-to-equilibration (open) strokes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteSolution:
    """Designed open-stroke solution: y = exp(beta) polynomial, the matching
    modified frequency, and the synthesized protocol."""

    y: Callable
    beta_dot: Callable
    alpha_grid: np.ndarray
    times: np.ndarray
    protocol: FrequencyProtocol
    target_initial: float  # beta(0)
    target_final: float    # beta(t_f)


def _static_beta_dot(omega: float, beta: float, bath: BathSpec,
                     time: float) -> float:
    """Rate-equation slope at a frozen drive (w_dot = 0, alpha = w) at the
    stroke endpoint ``time``.  Where e^-beta overflows (a cold internal
    temperature), k_up (e^-beta - 1) = k_down (e^(-x-beta) - e^-x)."""
    k_down, k_up, _ = dressed_rates(omega, 0.0, bath)
    try:
        up = k_up * math.expm1(-beta)
    except OverflowError:
        x = HBAR * omega / (KB * bath.temperature)
        with np.errstate(over="ignore"):
            up = k_down * (np.exp(-x - beta) - np.exp(-x))
    slope = k_down * math.expm1(beta) + up
    if not np.isfinite(slope):
        raise InfeasibleStroke(f"rate-equation slope at the endpoint t={time:g}"
                               f" (omega={omega:g}) is not finite", time=time)
    return slope


def _invert_frequency(times, beta, beta_dot, bath, omega_initial, omega_final):
    """Solve for the drive w(t) whose rate equation reproduces (beta, beta_dot).

    Fixed-point iteration on the adiabatic-speed profile: given mu(t) from the
    previous iterate, each grid instant needs
        w * sqrt(1 - mu^2/4) = alpha*(w, t),
    where alpha* follows from the occupation the rate equation demands.  The
    per-point root is found with a vectorized, safeguarded Newton iteration.
    Returns (omega, omega_dot, alpha) grids.
    """
    temp = bath.temperature
    g = bath.coupling
    exp_b = np.exp(beta)
    with np.errstate(over="ignore"):
        # past hbar w / kT ~ 710 these are inf and n_eq is 0, as they must be
        phi = exp_b + np.exp(-beta) - 2.0
        n_eq = 1.0 / np.expm1(-beta)
    # occupation demanded at drive w:  N*(w) = n_eq + dcoef / w
    dcoef = 2.0 * beta_dot / (g * phi)

    def alpha_star(w):
        nstar = n_eq + dcoef / w
        # 1/nstar overflows to inf where nstar is subnormal (a very cold
        # bath); alpha is then inf and refused as not finite
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = KB * temp / HBAR * np.log1p(1.0 / nstar)
        a[nstar <= 0] = np.nan
        return a, nstar

    def newton(ck, w):
        w = w.copy()
        for _ in range(60):
            a, nstar = alpha_star(w)
            bad = ~np.isfinite(a)
            if np.any(bad):
                # cooling instants require w above the zero-occupation point
                w_floor = -dcoef / np.maximum(n_eq, 1e-300)
                w[bad] = 1.5 * np.abs(w_floor[bad]) + 1e-9
                continue
            f = w * ck - a
            dalpha = (KB * temp / HBAR) * dcoef / (w**2 * nstar * (nstar + 1.0))
            fp = ck - dalpha
            step = f / np.where(np.abs(fp) > 1e-14, fp, 1e-14)
            step = np.clip(step, -0.5 * w, 0.5 * w)
            w_new = w - step
            if np.max(np.abs(w_new - w) / w) < 1e-14:
                return w_new
            w = w_new
        return w

    scale = max(omega_initial, omega_final)
    h = (times[-1] - times[0]) / (len(times) - 1)
    omega = -beta * KB * temp / HBAR  # quasi-static initial guess
    omega = np.clip(omega, 1e-3 * scale, 50.0 * scale)
    mu = np.zeros_like(omega)

    for it in range(INVERSION_MAX_ITER):
        ck = np.sqrt(np.maximum(1.0 - 0.25 * mu**2, 0.0))
        if np.any(ck == 0.0):
            t_bad = float(times[np.argmax(ck == 0.0)])
            raise InfeasibleStroke(
                f"|mu| reached 2 at t={t_bad:.6g}; stroke too fast", time=t_bad)
        omega_new = newton(ck, omega)
        a, nstar = alpha_star(omega_new)
        resid = np.abs(omega_new * ck - a)
        bad = ~np.isfinite(resid) | (resid > 1e-8 * scale)
        for i in np.flatnonzero(bad):
            omega_new[i] = _scalar_root(ck[i], n_eq[i], dcoef[i], temp, omega[i],
                                        scale, times[i])
        change = np.max(np.abs(omega_new - omega) / scale)
        omega = omega_new if it < 10 else 0.5 * (omega + omega_new)
        omega_dot = spline_slopes(omega, h)
        mu = omega_dot / omega**2
        # the construction imposes stationary drive endpoints
        mu[0] = 0.0
        mu[-1] = 0.0
        if change < INVERSION_TOL:
            break
    else:
        raise ProtocolInversionFailure(
            f"frequency inversion did not converge (last change {change:.3e})")

    alpha, _ = alpha_star(omega)
    if not np.all(np.isfinite(alpha)):
        t_bad = float(times[np.argmax(~np.isfinite(alpha))])
        raise InfeasibleStroke(
            f"required emission rate is negative at t={t_bad:.6g}", time=t_bad)
    if abs(omega[-1] - omega_final) / omega_final > 1e-3:
        raise ProtocolInversionFailure(
            f"endpoint mismatch: w(t_f)={omega[-1]:.6g} vs target {omega_final:.6g}")
    return omega, omega_dot, alpha


def _scalar_root(ck, n_eq, dcoef, temp, w_prev, scale, t):
    """Bracketed fallback for grid points where Newton stalls: a bisection
    of the sign change nearest ``w_prev`` on a geometric grid, to within
    1e-14 + 1e-15 |w|."""

    def f(w):
        nstar = n_eq + dcoef / w
        if nstar <= 0:
            return np.inf
        return w * ck - KB * temp / HBAR * math.log1p(1.0 / nstar)

    lo_limit = -dcoef / n_eq if dcoef < 0 else 1e-6 * scale
    lo_limit = max(lo_limit * (1 + 1e-12), 1e-9)
    grid = np.geomspace(max(lo_limit, 1e-6 * scale), 50.0 * scale, 400)
    # f on the whole grid at once, in f's order of operations
    nstar = n_eq + dcoef / grid
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.where(nstar > 0, grid * ck - KB * temp / HBAR
                        * np.log1p(1.0 / nstar), np.inf)
    finite = np.isfinite(vals)
    sign_change = np.flatnonzero(np.diff(np.sign(vals[finite])) != 0)
    if len(sign_change) == 0:
        raise InfeasibleStroke(
            f"no drive frequency satisfies the rate equation at t={t:.6g}", time=t)
    gf = grid[finite]
    # prefer the branch nearest the previous iterate (continuity)
    idx = sign_change[np.argmin(np.abs(gf[sign_change] - w_prev))]
    lo, hi = gf[idx], gf[idx + 1]
    lo_positive = f(lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14 + 1e-15 * abs(mid):
            return mid
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == lo_positive:
            lo = mid
        else:
            hi = mid


def _build_ste(omega_initial, omega_final, t_f, bath, internal_temperature=None):
    """The open stroke between Gibbs states at ``internal_temperature``, or
    at the bath's temperature when it is None."""
    _check_arguments(omega_initial, omega_final, t_f=t_f,
                     internal_temperature=internal_temperature)

    temp = bath.temperature if internal_temperature is None \
        else internal_temperature
    beta0 = -HBAR * omega_initial / (KB * temp)
    beta1 = -HBAR * omega_final / (KB * temp)
    meta = {"family": "ste", "omega_initial": omega_initial,
            "omega_final": omega_final, "t_f": t_f,
            "bath_temperature": bath.temperature, "coupling": bath.coupling}
    dy0 = dy1 = 0.0
    if internal_temperature is not None:
        # non-stationary endpoints: the static rate equation against the bath
        dy0 = _static_beta_dot(omega_initial, beta0, bath, 0.0) * math.exp(beta0)
        dy1 = _static_beta_dot(omega_final, beta1, bath, t_f) * math.exp(beta1)
        meta.update(family="ste-nonthermal",
                    internal_temperature=internal_temperature)

    y0, y1 = math.exp(beta0), math.exp(beta1)
    poly = _quintic(y0, y1, dy0 * t_f, dy1 * t_f, 0.0, 0.0)

    times = np.linspace(0.0, t_f, DEFAULT_GRID_POINTS)
    s = times / t_f
    y = _polyval(poly, s)
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        t_bad = float(times[np.argmax((y <= 0.0) | (y >= 1.0))])
        raise InfeasibleStroke(
            f"designed state parameter leaves (0, 1) at t={t_bad:.6g}; "
            "the endpoint disequilibrium cannot be held this long", time=t_bad)
    ydot = _polyval(_deriv(poly), s) / t_f
    beta = np.log(y)
    beta_dot = ydot / y

    omega, omega_dot, alpha = _invert_frequency(
        times, beta, beta_dot, bath, omega_initial, omega_final)

    protocol = FrequencyProtocol.from_grid(times, omega, omega_dot, meta=meta)
    solution = SteSolution(
        y=_PolyEval(poly, t_f), beta_dot=_BetaDot(poly, t_f),
        alpha_grid=alpha, times=times, protocol=protocol,
        target_initial=beta0, target_final=beta1)
    return protocol, solution


class _BetaDot:
    def __init__(self, poly, t_f):
        self.y = _PolyEval(poly, t_f)
        self.yd = _PolyEval(poly, t_f, order=1)

    def __call__(self, t):
        return self.yd(t) / self.y(t)


def build_ste_protocol(omega_initial: float, omega_final: float, t_f: float,
                       bath: BathSpec):
    """Open-stroke drive between Gibbs states at the bath temperature.

    The state parameter y = exp(beta) follows the quintic fixed by stationary
    endpoints; the drive frequency is recovered by inverting the rate
    equation.  Returns ``(FrequencyProtocol, SteSolution)``.
    """
    return _build_ste(omega_initial, omega_final, t_f, bath)


def build_ste_nonthermal_protocol(omega_initial: float, omega_final: float,
                                  t_f: float, internal_temperature: float,
                                  bath: BathSpec):
    """Open-stroke drive between Gibbs states at an internal temperature that
    may differ from the bath's.

    The endpoints are then non-stationary: the boundary slopes of
    y = exp(beta) are fixed by the static rate equation evaluated at the
    endpoint frequencies against the actual bath.
    """
    return _build_ste(omega_initial, omega_final, t_f, bath,
                      internal_temperature)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_protocol(protocol: FrequencyProtocol, csv_path, json_path=None) -> None:
    """Write the protocol as a CSV table (t, omega, omega_dot, mu) plus a JSON
    header with the builder metadata.  Doubles round-trip bit-exactly; a
    closed-form protocol is sampled at ``DEFAULT_GRID_POINTS``."""
    if protocol.grid_times is not None:
        t, w, wd = protocol.grid_times, protocol.grid_omega, protocol.grid_omega_dot
    elif protocol.duration == 0.0:
        t = np.array([0.0])
        w = np.atleast_1d(protocol.omega(0.0))
        wd = np.atleast_1d(protocol.omega_dot(0.0))
    else:
        t, w, wd, _ = protocol.sample(DEFAULT_GRID_POINTS)
    mu = np.where(w > 0, wd / w**2, 0.0)
    write_csv(csv_path, ("t", "omega", "omega_dot", "mu"),
              np.column_stack((t, w, wd, mu)).tolist())
    if json_path is not None:
        write_json(json_path, {"kind": protocol.kind,
                               "duration": protocol.duration,
                               "meta": dict(protocol.meta), "samples": len(t)})


def load_protocol(csv_path, json_path=None) -> FrequencyProtocol:
    """Reload a serialized protocol as a grid protocol over the stored samples."""
    data = np.genfromtxt(csv_path, delimiter=",", names=True)
    meta = {}
    if json_path is not None:
        with open(json_path) as fh:
            meta = json.load(fh).get("meta", {})
    t = np.atleast_1d(data["t"])
    w = np.atleast_1d(data["omega"])
    wd = np.atleast_1d(data["omega_dot"])
    if len(t) == 1:
        return FrequencyProtocol.constant(float(w[0]), 0.0, meta=meta)
    return FrequencyProtocol.from_grid(t, w, wd, meta=meta)
