"""Work, heat, power, efficiency, coherence, entropy, and sweep analyses.

Sign convention: work and heat are positive when they flow *into* the
working medium, so an engine has total_work < 0 and q_hot > 0, the power
-W/tau is then positive, and the efficiency is -W/q_hot.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .core import (HBAR, KB, CycleKind, CycleSpec, ObservableVector,
                   content_hash, cycle_time_from_atomic, record_dict,
                   thermal_population, write_csv, write_json)
from .cycle_engine import (HOT_LEG, LIMIT_CYCLE_TOL, CornerGeometry,
                           CycleResult, LegMemo, carnot_corner_frequencies,
                           run_to_limit_cycle)
from .errors import CarnotLabError, ConfigError, DomainError, UnphysicalState


def carnot_efficiency(t_cold: float, t_hot: float) -> float:
    return 1.0 - t_cold / t_hot


def curzon_ahlborn_efficiency(t_cold: float, t_hot: float) -> float:
    return 1.0 - math.sqrt(t_cold / t_hot)


def coherence(v: ObservableVector, omega: float) -> float:
    """sqrt(l^2 + c^2) / (hbar w)."""
    if not omega > 0:
        raise DomainError("omega must be positive")
    return v.coherence(omega)


def von_neumann_entropy(v: ObservableVector, omega: float) -> float:
    """Entropy of the Gaussian state through its symplectic invariant.

    The effective excitation is x = sqrt(h^2 - l^2 - c^2)/(hbar w) = n + 1/2;
    S = (n+1) ln(n+1) - n ln n, zero for the ground state.
    """
    if not omega > 0:
        raise DomainError("omega must be positive")
    cas = v.casimir()
    x = math.sqrt(max(cas, 0.0)) / (HBAR * omega)
    if x < 0.5 - 1e-9:
        raise UnphysicalState(f"effective excitation {x} below the ground-state floor")
    n = max(x - 0.5, 0.0)
    if n <= 0.0:
        return 0.0
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n)


def ideal_carnot_work(geometry: CornerGeometry, t_cold: float, t_hot: float) -> float:
    """Reversible-limit work of the four-corner cycle (negative for an engine)."""
    if t_hot == t_cold:
        warnings.warn("degenerate geometry: equal bath temperatures give zero work")
    n1 = thermal_population(geometry.omega1, t_hot)
    n2 = thermal_population(geometry.omega2, t_hot)
    return (HBAR * (geometry.omega3 - geometry.omega2) * (n2 + 1.0)
            + HBAR * (geometry.omega1 - geometry.omega4) * (n1 + 1.0)
            + KB * (t_hot - t_cold) * math.log(n1 / n2))


def friction_action_fit(samples: Sequence[tuple]) -> tuple:
    """Least-squares fit of W(tau) = W_inf + F / tau.

    ``samples`` holds (cycle_time, total_work) pairs; at least three are
    required, all finite, and they must span a factor of four in cycle time.
    Returns (w_infinity, friction_action, rms_residual).
    """
    pts = [(float(t), float(w)) for t, w in samples]
    if len(pts) < 3:
        raise DomainError("need at least 3 samples")
    if not np.all(np.isfinite(pts)):
        raise DomainError("cycle times and works must be finite")
    taus = np.array([p[0] for p in pts])
    works = np.array([p[1] for p in pts])
    if taus.min() <= 0:
        raise DomainError("cycle times must be positive")
    if taus.max() / taus.min() < 4.0:
        raise DomainError("samples must span at least a factor 4 in cycle time")
    a = np.column_stack([np.ones_like(taus), 1.0 / taus])
    coef, *_ = np.linalg.lstsq(a, works, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise DomainError("rank-deficient sample set")
    resid = float(np.sqrt(np.mean((a @ coef - works) ** 2)))
    return float(coef[0]), float(coef[1]), resid


# ---------------------------------------------------------------------------
# cycle ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleLedger:
    """Per-stroke and whole-cycle energy bookkeeping at the limit cycle."""

    work_per_stroke: tuple
    heat_per_stroke: tuple
    total_work: float
    q_hot: float
    q_cold: float
    power: float
    efficiency: float
    cycle_time: float          # atomic units
    cycle_time_units: float    # units of 2*pi/omega_min
    operational_mode: str      # "Engine" | "Dissipator" | "Other"
    eta_carnot: float
    bath_entropy_production: float
    energy_closure: float      # |sum of stroke energy changes| over the cycle
    unitary_heat_residual: float
    corner_coherences: tuple

    def as_dict(self) -> dict:
        return record_dict(self)

    @property
    def max_corner_coherence(self) -> float:
        return max(self.corner_coherences)


#: Largest bath entropy decrease a ledger may show, relative to the entropy
#: the heat flows carry: far above the error of the stroke maps.
SECOND_LAW_RTOL = 1e-9


def analyze_cycle(result: CycleResult, spec: Optional[CycleSpec] = None) -> CycleLedger:
    """Fill the thermodynamic ledger for a limit cycle.

    Raises UnphysicalState, naming the corner, when a corner state breaks
    :meth:`ObservableVector.check_physical` at that corner's frequency (its
    Casimir below the ground-state floor (hbar w / 2)^2), and when the bath
    entropy production is below -``SECOND_LAW_RTOL`` times
    |q_hot| / T_hot + |q_cold| / T_cold: no periodic cycle between two baths
    can lower their entropy.
    """
    spec = spec or result.spec
    for i, (stroke, v, omega) in enumerate(zip(
            result.strokes, result.corner_vectors, result.corner_omegas)):
        try:
            v.check_physical(omega)
        except UnphysicalState as err:
            raise UnphysicalState(
                f"corner {i + 1} (start of {stroke.label}): {err}") from None
    works = tuple(t.work for t in result.trajectories)
    heats = tuple(t.heat for t in result.trajectories)
    total_work = float(sum(works))

    q_hot = q_cold = 0.0
    unitary_heat = 0.0
    for stroke, traj in zip(result.strokes, result.trajectories):
        if stroke.bath is not None:
            if stroke.label == HOT_LEG:
                q_hot += traj.heat
            else:
                q_cold += traj.heat
        elif stroke.kind == "unitary":
            unitary_heat = max(unitary_heat, abs(traj.heat))

    tau = result.cycle_time_atomic
    power = -total_work / tau
    efficiency = float("nan") if q_hot == 0.0 else -total_work / q_hot
    if total_work < 0 and q_hot > 0:
        mode = "Engine"
    elif total_work > 0 and q_cold < 0:
        mode = "Dissipator"
    else:
        mode = "Other"
    sigma = -(q_hot / spec.t_hot_bath + q_cold / spec.t_cold_bath)
    scale = abs(q_hot) / spec.t_hot_bath + abs(q_cold) / spec.t_cold_bath
    if sigma < -SECOND_LAW_RTOL * scale:
        raise UnphysicalState(
            f"bath entropy production {sigma:.6g} is negative: the ledger "
            f"breaks the second law")
    closure = abs(sum(t.energy_change for t in result.trajectories))
    return CycleLedger(
        work_per_stroke=works, heat_per_stroke=heats, total_work=total_work,
        q_hot=q_hot, q_cold=q_cold, power=power, efficiency=efficiency,
        cycle_time=tau, cycle_time_units=cycle_time_from_atomic(tau),
        operational_mode=mode,
        eta_carnot=carnot_efficiency(spec.t_cold_bath, spec.t_hot_bath),
        bath_entropy_production=sigma, energy_closure=closure,
        unitary_heat_residual=unitary_heat,
        corner_coherences=tuple(result.corner_coherences()))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("cycle_time", "dephasing", "compression_ratio")


def check_axis(axis: str, template: Optional[CycleSpec] = None) -> None:
    """Raise ConfigError unless ``axis`` is one of ``SWEEP_AXES`` and, given
    a ``template``, applies to its kind."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    if (axis == "compression_ratio" and template is not None
            and template.kind is not CycleKind.CARNOT_SHORTCUT):
        raise ConfigError("compression-ratio sweeps apply to the carnot-shortcut kind")


def spec_for_sweep_value(template: CycleSpec, axis: str, value: float) -> CycleSpec:
    """Instantiate the template at one sweep-axis value."""
    check_axis(axis, template)
    if axis == "cycle_time":
        return template.with_cycle_time(value)
    if axis == "dephasing":
        return replace(template, gamma_dephasing=value)
    # compression_ratio
    geom = carnot_corner_frequencies(template.omega3, value,
                                     template.t_cold_bath, template.t_hot_bath)
    return replace(template, omega1=geom.omega1, omega2=geom.omega2,
                   omega4=geom.omega4)


@dataclass
class SweepRow:
    value: float
    ledger: Optional[CycleLedger] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.ledger is not None

    def cells(self, columns: Sequence[str]) -> list:
        """CSV cells ``status``, the ledger attribute of each of ``columns``
        (blank on an error row) and ``error`` (blank when ok)."""
        if self.ok:
            return ["ok", *(getattr(self.ledger, c) for c in columns), ""]
        return ["error", *[""] * len(columns), self.error]


#: Ledger columns of ``sweep.csv``, between ``value, status`` and ``error``.
SWEEP_COLUMNS = ("cycle_time", "cycle_time_units", "total_work", "q_hot",
                 "q_cold", "power", "efficiency", "operational_mode",
                 "bath_entropy_production", "max_corner_coherence")


@dataclass
class SweepTable:
    axis: str
    rows: List[SweepRow]
    template: CycleSpec

    def to_csv(self, path) -> None:
        write_csv(path, ("value", "status", *SWEEP_COLUMNS, "error"),
                  [[r.value, *r.cells(SWEEP_COLUMNS)] for r in self.rows])

    def metadata(self) -> dict:
        meta = {"axis": self.axis, "values": [r.value for r in self.rows],
                "template": self.template.to_dict()}
        return {**meta, "config_hash": content_hash(meta)}


#: Samples per stroke of a sweep row: its ledger reads only the corner
#: states and the stroke totals, so each stroke needs its transfer matrix
#: alone.
SWEEP_SAMPLES = 2


def _sweep_point(template, axis, value, tol, leg_memo) -> SweepRow:
    try:
        spec = spec_for_sweep_value(template, axis, value)
        result = run_to_limit_cycle(spec, tol=tol, leg_memo=leg_memo,
                                    n_samples=SWEEP_SAMPLES)
        return SweepRow(value=value, ledger=analyze_cycle(result, spec))
    except CarnotLabError as err:
        return SweepRow(value=value, error=f"{type(err).__name__}: {err}")


#: The legs of a pool worker's last point whose legs all succeeded, keyed by
#: their inputs and kept for its next one; filled only in the worker
#: processes of one ``sweep`` call.  A leg that the axis leaves unchanged is
#: the same at every point, so a worker reuses it whichever points it is
#: handed.
_WORKER_LEGS: LegMemo = {}


def _pool_point(args) -> SweepRow:
    return _sweep_point(*args, _WORKER_LEGS)


def sweep(spec_template: CycleSpec, axis: str, values: Iterable[float],
          tol: float = LIMIT_CYCLE_TOL, jobs: int = 1) -> SweepTable:
    """Run one limit cycle per axis value.

    An axis that does not apply to the template's kind raises ConfigError
    before any point runs.  A point that fails is recorded as an error row
    without aborting the sweep; rows come back in input order regardless of
    execution order.  Each row comes from
    the two-sample transfer matrices of its strokes (``SWEEP_SAMPLES``), so
    it agrees with a ``run_to_limit_cycle`` at the default samples of the
    same spec to within the stroke maps' error, below 1e-10 of the heat flows.
    A leg that an axis leaves unchanged from one point to the next (both STA
    adiabats along ``cycle_time`` on the shortcut kinds, both open legs along
    ``dephasing``, ``adiabatic-expansion`` along ``compression_ratio``) is
    built and propagated once and reused, so each row is bit-identical to a
    fresh cycle at ``SWEEP_SAMPLES``.  Only the legs of the last cycle whose
    legs all succeeded are kept, keyed by their inputs, and only for this
    call.  With ``jobs`` > 1 each point goes to the next free worker
    process, which keeps the legs of its own last such point.
    """
    check_axis(axis, spec_template)
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one value")
    workers = min(max(jobs, 1), len(values))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_pool_point, [(spec_template, axis, v, tol)
                                             for v in values]))
    else:
        leg_memo: LegMemo = {}
        rows = [_sweep_point(spec_template, axis, v, tol, leg_memo)
                for v in values]
    return SweepTable(axis=axis, rows=rows, template=spec_template)


def export_sweep(table: SweepTable, csv_path, meta_path=None) -> None:
    table.to_csv(csv_path)
    if meta_path is None:
        meta_path = os.path.splitext(csv_path)[0] + ".meta.json"
    write_json(meta_path, table.metadata())
