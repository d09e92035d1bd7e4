"""Cycle assembly and the limit cycle.

Every cycle kind is one table of four legs in cycle order (hot open stroke,
adiabat, cold open stroke, adiabat), each from one corner frequency to the
next; the kind picks the protocol builder of each leg, and a failure names
its leg.  Every stroke map is affine on the moment vector (the identity
component carries the affine part), so each stroke is summarized by a 5x5
transfer matrix that also accumulates the stroke work.  Each stroke is
integrated once, as a sampled propagator: its last sample is the transfer
matrix, and the same samples applied to the limit-cycle corner state give
the trajectories used for analysis and export.  The limit cycle is the
fixed point of the composed map, reached by iteration at the rate rho(A),
the spectral radius of the map's (h, l, c) block A.

A leg is fixed by its inputs (label, kind, corners, builder parameter,
bath, internal temperature, dephasing strength, sample count), so a sweep
hands ``run_to_limit_cycle`` a leg memo keyed by those inputs: a leg of the
last completed cycle reuses its stroke and propagators instead of building
and propagating them again.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (BathSpec, CycleKind, CycleSpec, FrequencyProtocol,
                   ObservableVector, thermal_observable_vector, write_json)
from .dynamics import (DEFAULT_SAMPLES, Propagators, Trajectory,
                       stroke_propagators, trajectory)
from .errors import CarnotLabError, ConfigError, NonConvergence
from .protocols import (build_constant_mu_protocol, build_sta_protocol,
                        build_ste_nonthermal_protocol, build_ste_protocol)

# Unused here, but bench/tracing.py patches these names on this module.
from .dynamics import (propagate_dephasing, propagate_open,  # noqa: F401
                       propagate_unitary, solve_ivp)


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
    if not math.isfinite(compression_ratio):
        raise ConfigError(
            f"compression ratio must be finite, got {compression_ratio}")
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
    protocol: FrequencyProtocol
    bath: Optional[BathSpec] = None
    gamma_d: float = 0.0

    @property
    def kind(self) -> str:
        """"open" with a bath, otherwise "dephasing" or "unitary"."""
        if self.bath is not None:
            return "open"
        return "dephasing" if self.gamma_d > 0 else "unitary"

    @property
    def omega_start(self) -> float:
        return float(self.protocol.omega(0.0))

    @property
    def omega_end(self) -> float:
        return float(self.protocol.omega(self.protocol.duration))


def _rewrap(err: CarnotLabError, label: str) -> CarnotLabError:
    """A copy of ``err``, attributes included, whose message names the stroke."""
    new = copy.copy(err)
    new.args = (f"{label}: {err}",)
    return new


class _Leg(NamedTuple):
    """Every input of one leg: its label, the cycle kind (which with the bath
    picks the protocol builder), its corners, the builder's own parameter
    (mu, ``adiabat_duration`` or ``open_stroke_duration``), the bath, the
    internal temperature, the dephasing strength and the number of samples
    of its propagators."""

    label: str
    kind: CycleKind
    omega_initial: float
    omega_final: float
    parameter: float
    bath: Optional[BathSpec]
    t_internal: Optional[float]
    gamma_d: float
    n_samples: int


#: Label of the leg that meets the hot bath, the first in every kind.
HOT_LEG = "open-expansion"


def _cycle_legs(spec: CycleSpec,
                n_samples: int = DEFAULT_SAMPLES) -> List[_Leg]:
    """The four legs of a cycle in cycle order, leg i from corner i to i + 1."""
    hot = BathSpec(spec.t_hot_bath, spec.coupling)
    cold = BathSpec(spec.t_cold_bath, spec.coupling)
    corners = (spec.omega1, spec.omega2, spec.omega3, spec.omega4, spec.omega1)
    table = ((HOT_LEG, hot, spec.t_hot_internal),
             ("adiabatic-expansion", None, None),
             ("open-compression", cold, spec.t_cold_internal),
             ("adiabatic-compression", None, None))
    legs = []
    for (label, bath, t_internal), wi, wf in zip(table, corners, corners[1:]):
        if spec.kind is CycleKind.ENDO_GLOBAL:
            parameter = spec.mu_magnitude if wf > wi else -spec.mu_magnitude
        elif bath is None:
            parameter = spec.adiabat_duration
        else:
            parameter = spec.open_stroke_duration
        gamma_d = spec.gamma_dephasing if bath is None else 0.0
        legs.append(_Leg(label, spec.kind, wi, wf, parameter, bath, t_internal,
                         gamma_d, n_samples))
    return legs


def _build(leg: _Leg) -> StrokeDescriptor:
    """The stroke of one leg; a builder failure is re-raised naming the leg."""
    label, kind, wi, wf, parameter, bath, t_internal, gamma_d, _ = leg
    try:
        if kind is CycleKind.ENDO_GLOBAL:
            protocol = build_constant_mu_protocol(wi, wf, parameter)
        elif bath is None:
            protocol = build_sta_protocol(wi, wf, parameter)[0]
        elif kind is CycleKind.ENDO_SHORTCUT:
            protocol = build_ste_nonthermal_protocol(
                wi, wf, parameter, t_internal, bath)[0]
        else:
            protocol = build_ste_protocol(wi, wf, parameter, bath)[0]
    except CarnotLabError as err:
        raise _rewrap(err, label) from err
    return StrokeDescriptor(label, protocol, bath, gamma_d)


def assemble_cycle(spec: CycleSpec) -> List[StrokeDescriptor]:
    """Build the four stroke descriptors of a cycle specification.

    Every kind runs the same four legs in cycle order, leg i from corner i to
    corner i + 1: hot open stroke, adiabat, cold open stroke, adiabat.  The
    global kind drives each leg at constant |mu| with the sign of its
    frequency change; the shortcut kinds run equilibration ramps on the open
    legs (between internal-temperature Gibbs states for endo-shortcut) and
    transitionless ramps on the adiabats.  Every leg without a bath dephases
    at ``gamma_dephasing``.  A builder failure is re-raised naming its leg.
    """
    return [_build(leg) for leg in _cycle_legs(spec)]


# ---------------------------------------------------------------------------
# transfer matrices and the limit cycle
# ---------------------------------------------------------------------------

def _propagate(stroke: StrokeDescriptor, n_samples: int):
    """``stroke_propagators`` of one stroke; a failure names the stroke."""
    try:
        return stroke_propagators(stroke.protocol, stroke.bath, stroke.gamma_d,
                                  n_samples)
    except CarnotLabError as err:
        raise _rewrap(err, stroke.label) from err


def stroke_transfer_matrix(stroke: StrokeDescriptor) -> np.ndarray:
    """5x5 map (v, w) -> (v', w + stroke work) of one stroke."""
    return _propagate(stroke, 2).maps[-1]


def _corner_diff(v_new: np.ndarray, v_old: np.ndarray) -> float:
    h_scale = max(abs(v_old[0]), 1e-300)
    denom = np.maximum(np.abs(v_old[:3]), h_scale)
    return float(np.max(np.abs(v_new[:3] - v_old[:3]) / denom))


@dataclass
class CycleResult:
    """Limit cycle: trajectories, corner states, and diagnostics.

    ``contraction`` is rho(A), the factor by which one cycle shrinks a
    deviation from the limit cycle.  ``magnus_steps`` and ``magnus_errors``
    give, per stroke, the Magnus step count of its propagator and the
    estimated error of its transfer matrix relative to the largest entry.
    """

    spec: CycleSpec
    strokes: List[StrokeDescriptor]
    trajectories: List[Trajectory]
    iterations: int
    contraction: float
    magnus_steps: List[int]
    magnus_errors: List[float]

    @property
    def corner_vectors(self) -> List[ObservableVector]:
        """Corner states, the first vector of each stroke's trajectory."""
        return [t.initial_vector for t in self.trajectories]

    @property
    def corner_omegas(self) -> List[float]:
        return [s.omega_start for s in self.strokes]

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


MAX_CYCLES = 500  # budget of the limit-cycle iteration
#: Default tolerance of the limit-cycle stopping rule.
LIMIT_CYCLE_TOL = 1e-9


def initial_corner_vector(spec: CycleSpec) -> ObservableVector:
    """Designed corner-1 state: thermal at (omega1, hot temperature)."""
    t_hot = spec.t_hot_internal if spec.kind is CycleKind.ENDO_SHORTCUT \
        else spec.t_hot_bath
    return thermal_observable_vector(spec.omega1, t_hot)


#: The four legs of the last cycle whose legs all succeeded, keyed by their
#: inputs, with their strokes and propagators.
LegMemo = Dict[_Leg, Tuple[StrokeDescriptor, Propagators]]


def _strokes_and_propagators(spec: CycleSpec, memo: LegMemo, *,
                             n_samples: int = DEFAULT_SAMPLES):
    """The four strokes of a cycle and their propagators at ``n_samples``.

    A leg that ``memo`` holds reuses its stroke and propagators; every other
    leg is built (all builds first, in cycle order) and then propagated.
    Once all four legs have succeeded, they replace the memo's contents; a
    failure leaves the memo as it was.
    """
    legs = _cycle_legs(spec, n_samples)
    strokes = [memo[leg][0] if leg in memo else _build(leg) for leg in legs]
    propagators = [memo[leg][1] if leg in memo else _propagate(s, n_samples)
                   for leg, s in zip(legs, strokes)]
    memo.clear()
    memo.update(zip(legs, zip(strokes, propagators)))
    return strokes, propagators


def run_to_limit_cycle(spec: CycleSpec, tol: float = LIMIT_CYCLE_TOL, *,
                       leg_memo: Optional[LegMemo] = None,
                       n_samples: int = DEFAULT_SAMPLES) -> CycleResult:
    """Iterate the four-stroke map from the designed corner-1 state to its
    fixed point.

    Corner-1 state y_k is returned once both its change from y_(k-1) and
    its periodicity residual |M y_k - y_k| (the change to y_(k+1)) are below
    ``tol``, component-wise with an h-scaled floor for the two coherence
    components; so the returned cycle closes within ``tol`` by construction.
    ``iterations`` is k.  Raises NonConvergence, naming the contraction
    rho(A), if ``MAX_CYCLES`` cycles do not get there.

    ``leg_memo`` carries legs from one call to the next, keyed by their
    inputs: a leg it holds reuses that leg's stroke and propagators, which
    are the ones it would compute again.  It holds the four legs of the last
    call whose legs all succeeded; a call that fails while building or
    propagating a leg leaves it unchanged.

    ``n_samples`` is the number of trajectory samples per stroke.  At 2 the
    trajectories hold only the corner states, which is all a ledger reads,
    and each stroke's Magnus steps come from the two-sample rule of
    ``stroke_propagators``.
    """
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    strokes, propagators = _strokes_and_propagators(
        spec, {} if leg_memo is None else leg_memo, n_samples=n_samples)
    cycle_map = np.eye(5)
    for p in propagators:
        cycle_map = p.maps[-1] @ cycle_map
    contraction = float(np.max(np.abs(np.linalg.eigvals(cycle_map[:3, :3]))))

    y = np.append(initial_corner_vector(spec).as_array(), 0.0)
    moved = np.inf
    for iterations in range(MAX_CYCLES + 1):
        y_next = y.copy()
        y_next[4] = 0.0
        for p in propagators:
            y_next = p.maps[-1] @ y_next
        resid = _corner_diff(y_next[:4], y[:4])
        if moved < tol and resid < tol:
            break
        y, moved = y_next, resid
    else:
        raise NonConvergence(
            f"corner state still moving by {resid:.3e} after {MAX_CYCLES} "
            f"cycles (tol {tol}); contraction rho(A) = {contraction:.6g}")

    trajectories: List[Trajectory] = []
    vec = ObservableVector.from_array(y[:4])
    for stroke, p in zip(strokes, propagators):
        trajectories.append(trajectory(vec, stroke.protocol, p))
        vec = trajectories[-1].final_vector

    return CycleResult(spec=spec, strokes=strokes, trajectories=trajectories,
                       iterations=iterations, contraction=contraction,
                       magnus_steps=[p.steps for p in propagators],
                       magnus_errors=[p.error for p in propagators])


def export_cycle_result(result: CycleResult, outdir, ledger=None) -> None:
    """Write per-stroke trajectory CSVs plus a JSON summary into a directory;
    the summary holds ``ledger`` (a ``thermo.CycleLedger``) when one is given."""
    os.makedirs(outdir, exist_ok=True)
    for i, (stroke, traj) in enumerate(zip(result.strokes, result.trajectories)):
        traj.to_csv(os.path.join(outdir, f"stroke{i + 1}_{stroke.label}.csv"))
    summary = {
        "spec": result.spec.to_dict(),
        "iterations": result.iterations,
        "contraction": result.contraction,
        "magnus_steps": result.magnus_steps,
        "magnus_errors": result.magnus_errors,
        "corner_omegas": result.corner_omegas,
        "corners": [[v.h, v.l, v.c, v.id] for v in result.corner_vectors],
        "periodicity_residual": result.periodicity_residual(),
    }
    if ledger is not None:
        summary["ledger"] = ledger.as_dict()
    write_json(os.path.join(outdir, "summary.json"), summary)
