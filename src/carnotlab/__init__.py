"""carnotlab: finite-time Carnot-analog cycles for a driven harmonic oscillator.

The package synthesizes shortcut driving protocols for a parametric
oscillator working medium, propagates open and closed strokes in a closed
four-operator moment basis, iterates composed cycles to their limit cycle,
and extracts the thermodynamics (work, heat, power, efficiency, coherence,
entropy).  A truncated number-basis integrator serves as the brute-force
reference for the moment dynamics.
"""

__version__ = "0.1.0"

from .core import (BathSpec, CycleKind, CycleSpec, FrequencyProtocol,
                   GeneralizedGibbsState, ObservableVector, dressed_rates,
                   thermal_observable_vector, thermal_population)
from .cycle_engine import (CornerGeometry, CycleResult, assemble_cycle,
                           carnot_corner_frequencies,
                           endo_global_corner_frequencies, run_to_limit_cycle)
from .dynamics import (Trajectory, free_propagator, generator,
                       propagate_dephasing, propagate_open, propagate_unitary)
from .errors import (CarnotLabError, ConfigError, DomainError, InfeasibleStroke,
                     InvalidProtocol, NonConvergence, ProtocolInversionFailure,
                     TruncationError, UnphysicalState)
from .presets import PRESET_NAMES, get_preset
from .protocols import (ErmakovSolution, SteSolution, build_constant_mu_protocol,
                        build_sta_protocol, build_ste_nonthermal_protocol,
                        build_ste_protocol, sta_expectation_values)
from .thermo import (CycleLedger, analyze_cycle, carnot_efficiency, coherence,
                     curzon_ahlborn_efficiency, friction_action_fit,
                     ideal_carnot_work, sweep, von_neumann_entropy)
