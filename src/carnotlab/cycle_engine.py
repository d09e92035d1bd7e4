"""Cycle assembly and limit-cycle iteration.

A cycle is four stroke descriptors; every stroke map is affine on the moment
vector (the identity component carries the affine part), so each stroke is
summarized by a 5x5 transfer matrix that also accumulates the stroke work.
Each stroke is integrated once, as a sampled propagator: its last sample is
the transfer matrix, on which the limit-cycle iteration runs as cheap matrix
application, and the same samples applied to the converged corner state give
the trajectories used for analysis and export.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import (BathSpec, CycleKind, CycleSpec, FrequencyProtocol,
                   ObservableVector, thermal_observable_vector)
from .dynamics import (DEFAULT_SAMPLES, Trajectory, stroke_propagators,
                       trajectory)
from .errors import CarnotLabError, ConfigError, NonConvergence
from .protocols import (build_constant_mu_protocol, build_sta_protocol,
                        build_ste_nonthermal_protocol, build_ste_protocol)

# Unused here, but bench/tracing.py patches these names on this module.
from scipy.integrate import solve_ivp  # noqa: F401
from .dynamics import (propagate_dephasing, propagate_open,  # noqa: F401
                       propagate_unitary)


@dataclass(frozen=True)
class CornerGeometry:
    """The four corner frequencies of a cycle."""

    omega1: float
    omega2: float
    omega3: float
    omega4: float

    @property
    def compression_ratio(self) -> float:
        return self.omega1 / self.omega3

    def as_tuple(self):
        return (self.omega1, self.omega2, self.omega3, self.omega4)


def carnot_corner_frequencies(omega3: float, compression_ratio: float,
                              t_cold: float, t_hot: float) -> CornerGeometry:
    """Corner frequencies from (w_min, compression ratio, bath temperatures).

    The two adiabats must connect equal-population corners, which fixes
    w2 = w3 T_h/T_c and w4 = w1 T_c/T_h; a working geometry additionally
    needs the compression ratio to exceed T_h/T_c strictly.
    """
    if omega3 <= 0 or t_cold <= 0 or t_hot <= 0:
        raise ConfigError("frequencies and temperatures must be positive")
    if compression_ratio <= t_hot / t_cold:
        raise ConfigError(
            f"compression ratio {compression_ratio} must strictly exceed "
            f"T_hot/T_cold = {t_hot / t_cold}: the cycle would extract no work")
    omega1 = compression_ratio * omega3
    omega2 = omega3 * t_hot / t_cold
    omega4 = omega1 * t_cold / t_hot
    return CornerGeometry(omega1, omega2, omega3, omega4)


def endo_global_corner_frequencies(base: CornerGeometry, t_cold_g: float,
                                   t_hot_g: float, t_cold: float,
                                   t_hot: float) -> CornerGeometry:
    """Rescale a corner geometry onto internal design temperatures."""
    if min(t_cold_g, t_hot_g, t_cold, t_hot) <= 0:
        raise ConfigError("temperatures must be positive")
    omega1 = t_hot_g * base.omega1 / t_hot
    omega3 = t_cold_g * base.omega3 / t_cold
    omega2 = omega3 * t_hot_g / t_cold_g
    omega4 = omega1 * t_cold_g / t_hot_g
    return CornerGeometry(omega1, omega2, omega3, omega4)


# ---------------------------------------------------------------------------
# stroke descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrokeDescriptor:
    label: str
    kind: str  # "open" | "unitary" | "dephasing"
    protocol: FrequencyProtocol
    bath: Optional[BathSpec] = None
    gamma_d: float = 0.0

    @property
    def omega_start(self) -> float:
        return float(self.protocol.omega(0.0))

    @property
    def omega_end(self) -> float:
        return float(self.protocol.omega(self.protocol.duration))


def _rewrap(err: CarnotLabError, label: str) -> CarnotLabError:
    new = type(err)(f"{label}: {err}", *(
        [getattr(err, "time")] if hasattr(err, "time") else []))
    return new


def assemble_cycle(spec: CycleSpec) -> List[StrokeDescriptor]:
    """Build the four stroke descriptors of a cycle specification.

    Shortcut kinds pair two open equilibration ramps with two transitionless
    adiabats; the global kind drives all four strokes at constant |mu| with
    signs following the frequency ordering.  Builder failures are re-raised
    with the stroke identity attached.
    """
    hot = BathSpec(spec.t_hot_bath, spec.coupling)
    cold = BathSpec(spec.t_cold_bath, spec.coupling)
    strokes: List[StrokeDescriptor] = []

    if spec.kind is CycleKind.ENDO_GLOBAL:
        mu = spec.mu_magnitude
        legs = [("open-expansion", spec.omega1, spec.omega2, "open", hot),
                ("adiabatic-expansion", spec.omega2, spec.omega3, "unitary", None),
                ("open-compression", spec.omega3, spec.omega4, "open", cold),
                ("adiabatic-compression", spec.omega4, spec.omega1, "unitary", None)]
        for label, wi, wf, kind, bath in legs:
            sign = 1.0 if wf > wi else -1.0
            try:
                protocol = build_constant_mu_protocol(wi, wf, sign * mu)
            except CarnotLabError as err:
                raise _rewrap(err, label) from err
            if kind == "unitary" and spec.gamma_dephasing > 0:
                strokes.append(StrokeDescriptor(label, "dephasing", protocol,
                                                None, spec.gamma_dephasing))
            else:
                strokes.append(StrokeDescriptor(label, kind, protocol, bath))
        return strokes

    t_open = spec.open_stroke_duration
    t_adia = spec.adiabat_duration
    if spec.kind is CycleKind.ENDO_SHORTCUT:
        builders = [
            ("open-expansion", lambda: build_ste_nonthermal_protocol(
                spec.omega1, spec.omega2, t_open, spec.t_hot_internal, hot)[0], hot),
            ("open-compression", lambda: build_ste_nonthermal_protocol(
                spec.omega3, spec.omega4, t_open, spec.t_cold_internal, cold)[0], cold),
        ]
    else:
        builders = [
            ("open-expansion", lambda: build_ste_protocol(
                spec.omega1, spec.omega2, t_open, hot)[0], hot),
            ("open-compression", lambda: build_ste_protocol(
                spec.omega3, spec.omega4, t_open, cold)[0], cold),
        ]
    open_strokes = {}
    for label, make, bath in builders:
        try:
            open_strokes[label] = StrokeDescriptor(label, "open", make(), bath)
        except CarnotLabError as err:
            raise _rewrap(err, label) from err
    try:
        sta_expand = build_sta_protocol(spec.omega2, spec.omega3, t_adia)[0]
        sta_compress = build_sta_protocol(spec.omega4, spec.omega1, t_adia)[0]
    except CarnotLabError as err:
        raise _rewrap(err, "adiabat") from err

    def unitary(label, protocol):
        if spec.gamma_dephasing > 0:
            return StrokeDescriptor(label, "dephasing", protocol, None,
                                    spec.gamma_dephasing)
        return StrokeDescriptor(label, "unitary", protocol)

    return [open_strokes["open-expansion"],
            unitary("adiabatic-expansion", sta_expand),
            open_strokes["open-compression"],
            unitary("adiabatic-compression", sta_compress)]


# ---------------------------------------------------------------------------
# transfer matrices and the limit cycle
# ---------------------------------------------------------------------------

def stroke_transfer_matrix(stroke: StrokeDescriptor) -> np.ndarray:
    """5x5 map (v, w) -> (v', w + stroke work) of one stroke."""
    return stroke_propagators(stroke.protocol, stroke.bath, stroke.gamma_d,
                              n_samples=2)[1][-1]


def _corner_diff(v_new: np.ndarray, v_old: np.ndarray) -> float:
    h_scale = max(abs(v_old[0]), 1e-300)
    denom = np.maximum(np.abs(v_old[:3]), h_scale)
    return float(np.max(np.abs(v_new[:3] - v_old[:3]) / denom))


@dataclass
class CycleResult:
    """Converged limit cycle: trajectories, corner states, and diagnostics."""

    spec: CycleSpec
    strokes: List[StrokeDescriptor]
    trajectories: List[Trajectory]
    corner_vectors: List[ObservableVector]
    corner_omegas: List[float]
    iterations: int
    converged: bool
    residuals: List[float] = field(default_factory=list)

    @property
    def cycle_time_atomic(self) -> float:
        return float(sum(t.times[-1] for t in self.trajectories))

    def corner_coherences(self) -> np.ndarray:
        return np.array([v.coherence(w) for v, w in
                         zip(self.corner_vectors, self.corner_omegas)])

    def periodicity_residual(self) -> float:
        start = self.trajectories[0].vectors[0]
        end = self.trajectories[-1].vectors[-1]
        return _corner_diff(end, start)


def initial_corner_vector(spec: CycleSpec) -> ObservableVector:
    """Designed corner-1 state: thermal at (omega1, hot temperature)."""
    t_hot = spec.t_hot_internal if spec.kind is CycleKind.ENDO_SHORTCUT \
        else spec.t_hot_bath
    return thermal_observable_vector(spec.omega1, t_hot)


def run_to_limit_cycle(spec: CycleSpec, v0: Optional[ObservableVector] = None,
                       tol: float = 1e-9, max_cycles: int = 500,
                       n_samples: int = DEFAULT_SAMPLES) -> CycleResult:
    """Iterate the four-stroke map to its fixed point.

    Convergence is declared when the corner-1 vector changes by less than
    ``tol`` between successive cycles (component-wise, with an h-scaled floor
    for the two coherence components).  Raises NonConvergence with the
    residual history if ``max_cycles`` is exhausted.
    """
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    strokes = assemble_cycle(spec)
    propagators = [stroke_propagators(s.protocol, s.bath, s.gamma_d, n_samples)
                   for s in strokes]

    v = (v0 or initial_corner_vector(spec)).as_array()
    y = np.append(v, 0.0)
    residuals: List[float] = []
    iterations = 0
    converged = False
    for _ in range(max_cycles):
        y_new = y.copy()
        y_new[4] = 0.0
        for _, maps in propagators:
            y_new = maps[-1] @ y_new
        iterations += 1
        resid = _corner_diff(y_new[:4], y[:4])
        residuals.append(resid)
        y = y_new
        if resid < tol:
            converged = True
            break
    if not converged:
        raise NonConvergence(
            f"corner state still moving by {residuals[-1]:.3e} after "
            f"{iterations} cycles (tol {tol})", residuals=residuals)

    trajectories: List[Trajectory] = []
    corner_vectors: List[ObservableVector] = []
    corner_omegas: List[float] = []
    vec = ObservableVector.from_array(y[:4])
    for stroke, (times, maps) in zip(strokes, propagators):
        corner_vectors.append(vec)
        corner_omegas.append(stroke.omega_start)
        traj = trajectory(vec, stroke.protocol, times, maps, stroke.kind)
        trajectories.append(traj)
        vec = traj.final_vector

    return CycleResult(spec=spec, strokes=strokes, trajectories=trajectories,
                       corner_vectors=corner_vectors, corner_omegas=corner_omegas,
                       iterations=iterations, converged=converged,
                       residuals=residuals)


def export_cycle_result(result: CycleResult, outdir,
                        manifest_extra: Optional[dict] = None) -> None:
    """Write per-stroke trajectory CSVs plus a JSON summary into a directory."""
    os.makedirs(outdir, exist_ok=True)
    for i, (stroke, traj) in enumerate(zip(result.strokes, result.trajectories)):
        traj.to_csv(os.path.join(outdir, f"stroke{i + 1}_{stroke.label}.csv"))
    summary = {
        "spec": result.spec.to_dict(),
        "iterations": result.iterations,
        "converged": result.converged,
        "corner_omegas": result.corner_omegas,
        "corners": [[v.h, v.l, v.c, v.id] for v in result.corner_vectors],
        "periodicity_residual": result.periodicity_residual(),
    }
    if manifest_extra:
        summary.update(manifest_extra)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
