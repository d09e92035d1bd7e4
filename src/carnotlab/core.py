"""Units, domain types, thermal-state helpers and the output format.

Everything in the package works in atomic-style units with hbar = k_B = 1
and unit mass.  The Gaussian state of the oscillator is carried around as
the four-component moment vector

    v = (<H>, <L>, <C>, <I>)

where H is the instantaneous Hamiltonian, L the Lagrangian
(P^2/2 - w^2 Q^2 / 2), C the frequency-scaled position-momentum
correlation (w/2)(QP + PQ) and I the identity.  All stroke generators are
linear on this vector, so states are plain 4-vectors; a stroke map is a 5x5
matrix that also accumulates the stroke work in a fifth component.

Every file the package writes goes through :func:`write_csv` and
:func:`write_json`, every record is turned into JSON by :func:`record_dict`,
and every configuration hash is :func:`content_hash`, so the output format is
set here alone: numbers to 17 significant digits (they read back
bit-exactly), text cells with ``,`` as ``;`` and newlines as spaces, sorted
two-space JSON ending in a newline, and a 16-hex-digit SHA-256 of the
sorted-key JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigError, DomainError, InvalidProtocol, UnphysicalState

HBAR = 1.0
KB = 1.0

#: Reporting frequency floor: cycle times are quoted in units of 2*pi/OMEGA_MIN.
OMEGA_MIN = 5.0
TIME_UNIT = 2.0 * math.pi / OMEGA_MIN

#: Relative slack of :meth:`ObservableVector.check_physical`.
PHYSICAL_RTOL = 1e-9
#: Largest |l| / max(|h|, 1) of a state diagonal in the dressed basis.
DRESSED_DIAGONAL_ATOL = 1e-9
#: Relative tolerance of :meth:`CycleSpec.geometry_warnings` on corner ratios.
GEOMETRY_RTOL = 1e-12
#: Largest deviation of a grid protocol's time step from the uniform one,
#: relative to it.
GRID_RTOL = 1e-9


def cycle_time_to_atomic(tau_units: float) -> float:
    """Convert a cycle time in 2*pi/omega_min units to atomic time."""
    return tau_units * TIME_UNIT


def cycle_time_from_atomic(tau_atomic: float) -> float:
    """Convert an atomic-unit duration to 2*pi/omega_min units."""
    return tau_atomic / TIME_UNIT


def thermal_population(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar*omega/kT) - 1).

    Raises DomainError for non-positive frequency or temperature.
    """
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    if temperature <= 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    x = HBAR * omega / (KB * temperature)
    if x > 45.0:  # expm1 overflows near 710; the tail is exp(-x) anyway
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def dressed_rates(omega, mu, bath: "BathSpec") -> tuple:
    """Downward/upward rates of the dressed-mode master equation.

    With kappa = sqrt(4 - mu^2) and the modified frequency alpha = w kappa / 2,
    k_down = (alpha g / kappa)(1 + N(alpha)) and detailed balance gives
    k_up = k_down exp(-hbar alpha / k_B T).  The form 1 + N = 1/(1 - e^-x)
    stays finite for arbitrarily cold baths.  ``omega`` and ``mu`` are
    scalars or broadcastable arrays, and so are the returned
    ``(k_down, k_up, kappa)``.  Raises DomainError unless |mu| < 2
    everywhere, naming the first offending value.
    """
    mu = np.asarray(mu, dtype=float)
    bad = mu * mu >= 4.0
    if np.any(bad):
        raise DomainError(f"|mu| = {abs(mu[bad].flat[0]):.4g} >= 2: "
                          "outside the inertial family")
    kappa = np.sqrt(4.0 - mu * mu)
    alpha = 0.5 * omega * kappa
    x = HBAR * alpha / (KB * bath.temperature)
    k_down = (alpha * bath.coupling / kappa) / -np.expm1(-x)
    return k_down, k_down * np.exp(-x), kappa


@dataclass(frozen=True)
class ObservableVector:
    """Moment vector (<H>, <L>, <C>, <I>) of a Gaussian oscillator state."""

    h: float
    l: float
    c: float
    id: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.h, self.l, self.c, self.id], dtype=float)

    @classmethod
    def from_array(cls, v) -> "ObservableVector":
        v = np.asarray(v, dtype=float)
        return cls(h=float(v[0]), l=float(v[1]), c=float(v[2]), id=float(v[3]))

    def coherence(self, omega: float) -> float:
        """Off-diagonality in the instantaneous energy basis, sqrt(l^2+c^2)/(hbar*w)."""
        return math.hypot(self.l, self.c) / (HBAR * omega)

    def casimir(self) -> float:
        """h^2 - l^2 - c^2; conserved (after /w^2 scaling) by unitary strokes."""
        return self.h**2 - self.l**2 - self.c**2

    def check_physical(self, omega: Optional[float] = None) -> None:
        """Raise UnphysicalState unless h >= sqrt(l^2+c^2) and, when a
        frequency is given, h^2 - l^2 - c^2 >= (hbar*w/2)^2, each to within
        ``PHYSICAL_RTOL``."""
        if abs(self.id - 1.0) > PHYSICAL_RTOL:
            raise UnphysicalState(f"identity component must be 1, got {self.id}")
        slack = PHYSICAL_RTOL * max(abs(self.h), 1.0)
        if self.h + slack < math.hypot(self.l, self.c):
            raise UnphysicalState(
                f"h={self.h} below coherence magnitude {math.hypot(self.l, self.c)}"
            )
        if omega is not None:
            bound = (HBAR * omega / 2.0) ** 2
            if self.casimir() < bound * (1.0 - 1e-9) - slack:
                raise UnphysicalState(
                    f"Casimir {self.casimir()} below ground-state bound {bound}"
                )


def thermal_observable_vector(omega: float, temperature: float) -> ObservableVector:
    """Moment vector of the Gibbs state at (omega, temperature)."""
    n = thermal_population(omega, temperature)
    return ObservableVector(h=HBAR * omega * (n + 0.5), l=0.0, c=0.0)


@dataclass(frozen=True)
class BathSpec:
    """Thermal bath: temperature and the dimensionless dipole coupling constant."""

    temperature: float
    coupling: float = 0.05

    def __post_init__(self):
        for key, value in record_dict(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"bath {key} must be finite, got {value}")
        if self.temperature <= 0:
            raise DomainError(f"bath temperature must be positive, got {self.temperature}")
        if self.coupling <= 0:
            raise DomainError(f"bath coupling must be positive, got {self.coupling}")


#: Pole of the (1, 4, 1) rows of a cubic spline on a uniform grid, its powers
#: up to the first below the unit roundoff, and the taps rho^|k| / sqrt(12)
#: of the rows' inverse filter (Unser, Aldroubi & Eden, IEEE Trans. Signal
#: Process. 41, 821 (1993)).
_SPLINE_POLE = math.sqrt(3.0) - 2.0
_SPLINE_POWERS = _SPLINE_POLE ** np.arange(33)
_SPLINE_TAPS = np.concatenate((_SPLINE_POWERS[:0:-1], _SPLINE_POWERS)) \
    / math.sqrt(12.0)


def spline_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through ``y`` on a uniform
    grid of spacing ``h`` (at least 4 knots).

    The interior rows s[i-1] + 4 s[i] + s[i+1] = 3 (y[i+1] - y[i-1]) / h are
    met by the inverse filter of the zero-padded right-hand side, plus
    a rho^i + b rho^(n-1-i), which leaves them unchanged; the two end rows,
    s[0] + 2 s[1] = (5 d[0] + d[1]) / 2 and its mirror image with d the
    divided differences, fix a and b.  Powers of rho below the unit roundoff
    are left out.
    """
    n = len(y)
    d = np.diff(y) / h
    rhs = np.zeros(n)
    rhs[1:-1] = 3.0 * (d[:-1] + d[1:])
    m = len(_SPLINE_POWERS)
    s = np.convolve(rhs, _SPLINE_TAPS)[m - 1:m - 1 + n]
    # the end rows applied to rho^i and to rho^(n-1-i)
    near = 1.0 + 2.0 * _SPLINE_POLE
    far = _SPLINE_POLE ** (n - 2) * (_SPLINE_POLE + 2.0)
    r0 = 0.5 * (5.0 * d[0] + d[1]) - s[0] - 2.0 * s[1]
    r1 = 0.5 * (d[-2] + 5.0 * d[-1]) - 2.0 * s[-2] - s[-1]
    det = near * near - far * far
    edge = _SPLINE_POWERS[:n]
    s[:len(edge)] += (near * r0 - far * r1) / det * edge
    s[n - len(edge):] += (near * r1 - far * r0) / det * edge[::-1]
    return s


class _GridSpline:
    """The not-a-knot cubic splines through the rows of ``ys`` on a uniform
    grid starting at ``t0`` with spacing ``h``: each t is placed on its
    interval by index arithmetic once for all rows, and each row's cubic is
    summed by Horner's rule.  Returns the first ``curves`` rows at t, shape
    (curves,) + t.shape; a float time takes a scalar path with the same
    arithmetic, returning a list of floats, so both paths agree to the
    bit."""

    def __init__(self, t0: float, h: float, ys: np.ndarray):
        s = np.array([spline_slopes(y, h) for y in ys])
        d = np.diff(ys, axis=1) / h
        self.t0, self.h = float(t0), float(h)
        # (rows, 4, intervals): the coefficients of x^0 ... x^3
        self.coef = np.stack((ys[:, :-1], s[:, :-1],
                              (3.0 * d - 2.0 * s[:, :-1] - s[:, 1:]) / h,
                              (s[:, :-1] + s[:, 1:] - 2.0 * d) / (h * h)),
                             axis=1)

    def __call__(self, t, curves: int = 2):
        last = self.coef.shape[-1] - 1
        if isinstance(t, float):
            x = (t - self.t0) / self.h
            # a NaN time fails both tests, takes interval 0 and gives NaN
            i = last if x >= last else math.floor(x) if x >= 0.0 else 0
            x = (x - i) * self.h
            return [c0 + x * (c1 + x * (c2 + x * c3))
                    for c0, c1, c2, c3 in self.coef[:curves, :, i].tolist()]
        x = (np.asarray(t, dtype=float) - self.t0) / self.h
        # fmin and fmax drop a NaN, so a NaN time takes the last interval and
        # evaluates to NaN
        i = np.fmax(np.fmin(np.floor(x), last), 0.0).astype(np.intp)
        x = (x - i) * self.h
        c = self.coef[:curves].reshape(-1, last + 1).take(i, axis=1) \
            .reshape((curves, 4) + i.shape)
        return c[:, 0] + x * (c[:, 1] + x * (c[:, 2] + x * c[:, 3]))


class _CurvePair:
    """omega(t) and omega_dot(t) of two closed-form callables, or omega(t)
    alone."""

    def __init__(self, omega_fn: Callable, omega_dot_fn: Callable):
        self.omega_fn, self.omega_dot_fn = omega_fn, omega_dot_fn

    def __call__(self, t, curves: int = 2):
        w = self.omega_fn(t)
        return (w, self.omega_dot_fn(t)) if curves == 2 else (w,)


class ConstantMuFrequency:
    """omega(t) = w_i / (1 - mu w_i t) and omega_dot(t) = mu omega(t)^2 of the
    drive at constant adiabatic speed mu, or omega(t) alone; at mu = 0 it is
    the constant drive, w_i with omega_dot = 0.  ``t`` is a float or a float
    array, as :meth:`FrequencyProtocol.frequency` passes it.  w_i is a numpy
    float, so that a float time takes the arithmetic of a 0-d array: numpy's
    scalar power, which overflows to inf where a float's raises."""

    def __init__(self, omega_i: float, mu: float):
        self.omega_i, self.mu = np.float64(omega_i), mu

    def __call__(self, t, curves: int = 2):
        w = self.omega_i / (1.0 - self.mu * self.omega_i * t)
        return (w, self.mu * w**2) if curves == 2 else (w,)


@dataclass(frozen=True, eq=False)
class FrequencyProtocol:
    """The control omega(t) and its derivative over one stroke.

    Holds the one evaluator of its protocol family, which gives omega and
    omega_dot together, by :meth:`frequency`: a closed form, such as a
    transitionless ramp or the constant adiabatic-speed drive (the constant
    drive is its mu = 0 case), or a dense uniform grid, with omega and
    omega_dot each interpolated by a not-a-knot cubic spline.  Instances are
    immutable and compare by identity; evaluators and callables must be
    pure.
    """

    duration: float
    kind: str  # "closed-form" or "grid"
    meta: Mapping = field(default_factory=dict)
    #: (t, curves) -> the first ``curves`` of (omega(t), omega_dot(t)) at
    #: times inside [0, duration]
    _frequency_fn: Callable = field(default=None, repr=False)
    grid_times: Optional[np.ndarray] = field(default=None, repr=False)
    grid_omega: Optional[np.ndarray] = field(default=None, repr=False)
    grid_omega_dot: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def from_frequency(cls, duration, frequency_fn, meta=None):
        """A closed-form protocol from its family's evaluator ``frequency_fn``:
        (t, curves) -> the first ``curves`` of (omega(t), omega_dot(t))."""
        if duration < 0:
            raise DomainError("protocol duration must be non-negative")
        return cls(duration=float(duration), kind="closed-form",
                   meta=dict(meta or {}), _frequency_fn=frequency_fn)

    @classmethod
    def from_callables(cls, duration, omega_fn, omega_dot_fn, meta=None):
        return cls.from_frequency(duration, _CurvePair(omega_fn, omega_dot_fn),
                                  meta)

    @classmethod
    def from_grid(cls, times, omega, omega_dot, meta=None):
        times = np.asarray(times, dtype=float)
        omega = np.asarray(omega, dtype=float)
        omega_dot = np.asarray(omega_dot, dtype=float)
        if times.ndim != 1 or len(times) < 4:
            raise DomainError("grid protocol needs at least 4 samples")
        h = (times[-1] - times[0]) / (len(times) - 1)
        if not h > 0 or np.any(np.abs(np.diff(times) - h) > GRID_RTOL * h):
            raise DomainError("grid times must be increasing and uniformly spaced")
        if np.any(omega <= 0):
            raise DomainError("omega must stay positive along the protocol")
        return cls(duration=float(times[-1] - times[0]), kind="grid",
                   meta=dict(meta or {}),
                   _frequency_fn=_GridSpline(times[0], h,
                                             np.stack((omega, omega_dot))),
                   grid_times=times, grid_omega=omega, grid_omega_dot=omega_dot)

    @classmethod
    def constant(cls, omega, duration, meta=None):
        return cls.from_frequency(duration, ConstantMuFrequency(omega, 0.0),
                                  meta={"family": "constant", **(meta or {})})

    def _clamp(self, t):
        if isinstance(t, float):
            # max and min keep their first argument when it is NaN, as np.clip
            return min(max(t, 0.0), self.duration)
        return np.clip(np.asarray(t, dtype=float), 0.0, self.duration)

    def frequency(self, t, curves: int = 2):
        """(omega(t), omega_dot(t)) at times clamped to [0, duration], from
        one clamp and, on a grid, one spline interval per time for both;
        ``curves=1`` gives (omega(t),) alone."""
        return self._frequency_fn(self._clamp(t), curves)

    def omega(self, t):
        return self.frequency(t, 1)[0]

    def omega_dot(self, t):
        return self.frequency(t)[1]

    def mu(self, t):
        """Adiabatic parameter omega_dot / omega^2."""
        w, wd = self.frequency(t)
        return wd / w**2

    def sample(self, n: int = 2001):
        t = np.linspace(0.0, self.duration, n)
        w, wd = (np.atleast_1d(x) for x in self.frequency(t))
        return t, w, wd, wd / w**2

    def check_consistency(self, rtol: float = 1e-6, n: int = 8001) -> float:
        """Verify central differences of omega match omega_dot.

        Returns the worst mismatch relative to the derivative scale; raises
        InvalidProtocol beyond ``rtol``.  Grid protocols are checked on their
        native grid, closed forms on ``n`` uniform samples.
        """
        if self.duration == 0.0:
            return 0.0
        if self.grid_times is not None:
            t, w, wd = self.grid_times, self.grid_omega, self.grid_omega_dot
        else:
            t, w, wd, _ = self.sample(n)
        if np.any(w <= 0):
            raise InvalidProtocol("omega must stay positive along the protocol")
        cd = (w[2:] - w[:-2]) / (t[2:] - t[:-2])
        scale = max(np.max(np.abs(wd)), 1e-12 * np.max(w) / max(self.duration, 1e-300))
        err = float(np.max(np.abs(cd - wd[1:-1])) / scale)
        # central differences are themselves O(dt^2) approximations
        dt = np.max(np.diff(t))
        wscale = np.max(np.abs(w))
        fd_floor = (dt**2 / 6.0) * wscale * (2.0 / max(self.duration, dt)) ** 3
        if err > rtol and err * scale > 100.0 * fd_floor:
            raise InvalidProtocol(f"omega_dot inconsistent with omega: rel error {err:.3e}")
        return err


@dataclass(frozen=True)
class GeneralizedGibbsState:
    """Exponential (generalized Gibbs) state exp(beta * b^dag b) in the
    dressed-mode basis labelled by the adiabatic parameter mu."""

    beta: float
    mu: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if not self.beta < 0:
            raise DomainError("beta must be negative for a bounded state")
        if not abs(self.mu) < 2.0:
            raise DomainError("|mu| must be below 2")
        if not self.omega > 0:
            raise DomainError("omega must be positive")

    @property
    def occupation(self) -> float:
        return 1.0 / math.expm1(-self.beta)

    def to_observable_vector(self) -> ObservableVector:
        kappa = math.sqrt(4.0 - self.mu**2)
        amp = HBAR * self.omega * (2.0 * self.occupation + 1.0) / kappa
        return ObservableVector(h=amp, l=0.0, c=-0.5 * self.mu * amp)

    @classmethod
    def from_observable_vector(cls, v: ObservableVector,
                               omega: float) -> "GeneralizedGibbsState":
        if abs(v.l) > DRESSED_DIAGONAL_ATOL * max(abs(v.h), 1.0):
            raise DomainError("state is not diagonal in the dressed basis (l != 0)")
        mu = -2.0 * v.c / v.h
        kappa = math.sqrt(4.0 - mu**2)
        n = 0.5 * (kappa * v.h / (HBAR * omega) - 1.0)
        if n <= 0:
            raise DomainError("state is at or below the ground state; beta undefined")
        beta = -math.log1p(1.0 / n)
        return cls(beta=beta, mu=mu, omega=omega)


class CycleKind(str, Enum):
    CARNOT_SHORTCUT = "carnot-shortcut"
    ENDO_SHORTCUT = "endo-shortcut"
    ENDO_GLOBAL = "endo-global"


@dataclass(frozen=True)
class CycleSpec:
    """Corner frequencies, bath temperatures, and timing: one engine.

    Shortcut kinds carry ``open_stroke_duration`` and ``adiabat_duration``;
    the global kind carries ``mu_magnitude`` instead.  The endo-shortcut kind
    additionally carries the internal corner temperatures.
    """

    kind: CycleKind
    omega1: float
    omega2: float
    omega3: float
    omega4: float
    t_hot_bath: float
    t_cold_bath: float
    coupling: float = 0.05
    open_stroke_duration: Optional[float] = None
    adiabat_duration: Optional[float] = None
    mu_magnitude: Optional[float] = None
    t_hot_internal: Optional[float] = None
    t_cold_internal: Optional[float] = None
    gamma_dephasing: float = 0.0
    name: str = ""

    def __post_init__(self):
        for key, value in self.to_dict().items():
            if key not in ("kind", "name") and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        for label, w in (("omega1", self.omega1), ("omega2", self.omega2),
                         ("omega3", self.omega3), ("omega4", self.omega4)):
            if w <= 0:
                raise ConfigError(f"{label} must be positive, got {w}")
        if not (self.omega1 > self.omega2 > self.omega3):
            raise ConfigError("need omega1 > omega2 > omega3 (expansion ordering)")
        if not (self.omega1 > self.omega4 > self.omega3):
            raise ConfigError("need omega1 > omega4 > omega3 (compression ordering)")
        if self.t_hot_bath <= 0 or self.t_cold_bath <= 0:
            raise ConfigError("bath temperatures must be positive")
        if self.t_hot_bath <= self.t_cold_bath:
            raise ConfigError("hot bath must be hotter than cold bath")
        if self.coupling <= 0:
            raise ConfigError("coupling must be positive")
        if self.gamma_dephasing < 0:
            raise ConfigError("dephasing strength must be non-negative")
        if self.kind is CycleKind.ENDO_GLOBAL:
            if self.mu_magnitude is None or self.mu_magnitude <= 0:
                raise ConfigError("endo-global cycles need mu_magnitude > 0")
            if self.mu_magnitude >= 2:
                raise ConfigError("|mu| must be below 2")
        else:
            if self.open_stroke_duration is None or self.open_stroke_duration <= 0:
                raise ConfigError(f"{self.kind.value} cycles need open_stroke_duration > 0")
            if self.adiabat_duration is None or self.adiabat_duration <= 0:
                raise ConfigError(f"{self.kind.value} cycles need adiabat_duration > 0")
        if self.kind is CycleKind.ENDO_SHORTCUT:
            if self.t_hot_internal is None or self.t_cold_internal is None:
                raise ConfigError("endo-shortcut cycles need internal temperatures")
            if self.t_hot_internal <= 0 or self.t_cold_internal <= 0:
                raise ConfigError("internal temperatures must be positive")

    # -- timing ------------------------------------------------------------

    @property
    def inv_frequency_span(self) -> float:
        """Sum of |1/w_i - 1/w_f| over the four strokes; fixes the
        mu <-> cycle-time map for the global kind."""
        ws = [self.omega1, self.omega2, self.omega3, self.omega4, self.omega1]
        return float(sum(abs(1.0 / a - 1.0 / b) for a, b in zip(ws[:-1], ws[1:])))

    @property
    def cycle_time_atomic(self) -> float:
        if self.kind is CycleKind.ENDO_GLOBAL:
            return self.inv_frequency_span / self.mu_magnitude
        return 2.0 * self.open_stroke_duration + 2.0 * self.adiabat_duration

    @property
    def cycle_time_units(self) -> float:
        return cycle_time_from_atomic(self.cycle_time_atomic)

    def with_cycle_time(self, tau_units: float) -> "CycleSpec":
        """Return a copy retimed to the given total cycle time (2*pi/w_min units)."""
        if not math.isfinite(tau_units):
            raise ConfigError(f"cycle_time must be finite, got {tau_units}")
        tau = cycle_time_to_atomic(tau_units)
        if self.kind is CycleKind.ENDO_GLOBAL:
            if tau <= 0:
                raise ConfigError("cycle time must be positive")
            return replace(self, mu_magnitude=self.inv_frequency_span / tau)
        open_dur = 0.5 * (tau - 2.0 * self.adiabat_duration)
        if open_dur <= 0:
            raise ConfigError(
                f"cycle time {tau_units} (= {tau:.4g} atomic) does not exceed the "
                f"fixed adiabat budget {2 * self.adiabat_duration:.4g}"
            )
        return replace(self, open_stroke_duration=open_dur)

    # -- geometry ----------------------------------------------------------

    def geometry_warnings(self) -> list[str]:
        """Consistency report for the corner construction (used by `validate`)."""
        out = []
        tc, th = self.t_cold_bath, self.t_hot_bath
        if self.kind is CycleKind.ENDO_SHORTCUT:
            tc, th = self.t_cold_internal, self.t_hot_internal
        r = tc / th
        if abs(self.omega3 / self.omega2 - r) > GEOMETRY_RTOL * max(1.0, r):
            out.append(
                f"omega3/omega2 = {self.omega3 / self.omega2:.6g} differs from "
                f"T_cold/T_hot = {r:.6g}: adiabats will not match populations"
            )
        if abs(self.omega4 / self.omega1 - r) > GEOMETRY_RTOL * max(1.0, r):
            out.append(
                f"omega4/omega1 = {self.omega4 / self.omega1:.6g} differs from "
                f"T_cold/T_hot = {r:.6g}: adiabats will not match populations"
            )
        if self.omega1 / self.omega3 <= th / tc:
            out.append(
                f"compression ratio {self.omega1 / self.omega3:.6g} does not exceed "
                f"T_hot/T_cold = {th / tc:.6g}: zero-work geometry"
            )
        return out

    def to_dict(self) -> dict:
        return record_dict(self)

    def config_hash(self) -> str:
        return content_hash(self.to_dict())


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def record_dict(record) -> dict:
    """The fields of a dataclass record by name, ready for JSON: an enum as
    its value, a tuple as a list, and a field that is None left out."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[f.name] = value
    return out


def write_csv(path, header, rows) -> None:
    """Write a CSV table: one line of column names, then one line per row.

    A str cell is text, with ``,`` written as ``;`` and a newline as a space
    so that it stays one cell on one line; any other cell is a number,
    written as ``"%.17g" % x`` so that ``float()`` reads it back bit-exactly.
    Each row holds one cell per column.
    """
    rows = list(rows)
    numbers = ",".join(["%.17g"] * len(header)) + "\n"
    try:
        # one format for a table of numbers; a str cell raises TypeError
        body = (numbers * len(rows)) % tuple([x for row in rows for x in row])
    except TypeError:
        body = "".join(",".join([
            x.replace(",", ";").replace("\n", " ") if isinstance(x, str)
            else "%.17g" % x for x in row]) + "\n" for row in rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + body)


def write_json(path, obj) -> None:
    """Write ``obj`` as sorted two-space-indented JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def content_hash(obj) -> str:
    """First 16 hex digits of the SHA-256 of ``obj`` as sorted-key JSON."""
    import hashlib  # OpenSSL's, several MB: loaded by the commands that hash

    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]
