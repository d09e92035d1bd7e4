"""Run the matched-corner shortcut engine to its limit cycle and read the
thermodynamic ledger.

At a long cycle time the four corner states sit on the two isotherms, the
efficiency approaches the Carnot bound 1 - T_c/T_h = 0.375, and the corner
coherences vanish: coherence lives only inside the strokes.
"""

from carnotlab import analyze_cycle, get_preset, run_to_limit_cycle
from carnotlab.cycle_engine import export_cycle_result

spec = get_preset("carnot-shortcut", cycle_time=250.0)
result = run_to_limit_cycle(spec)
ledger = analyze_cycle(result)

print(f"converged in {result.iterations} cycle(s); contraction rho(A) = "
      f"{result.contraction:.3e}")
print(f"cycle time     : {ledger.cycle_time_units:.1f} (2*pi/w_min units)"
      f" = {ledger.cycle_time:.2f} atomic")
print(f"mode           : {ledger.operational_mode}")
print(f"total work     : {ledger.total_work:+.6f}  (negative = extracted)")
print(f"heat from hot  : {ledger.q_hot:+.6f}")
print(f"heat to cold   : {ledger.q_cold:+.6f}")
print(f"power          : {ledger.power:.4e}")
print(f"efficiency     : {ledger.efficiency:.5f}  "
      f"({ledger.efficiency / ledger.eta_carnot:.4f} of Carnot)")
print(f"bath entropy   : {ledger.bath_entropy_production:+.3e} (second law >= 0)")

print("\nper-stroke work / heat:")
for stroke, w, q in zip(result.strokes, ledger.work_per_stroke,
                        ledger.heat_per_stroke):
    print(f"  {stroke.label:22s} W = {w:+.5f}   Q = {q:+.5f}")

print("\ncorner states (omega, energy, coherence):")
for omega, v in zip(result.corner_omegas, result.corner_vectors):
    print(f"  w = {omega:7.4f}   h = {v.h:8.5f}   Coh = {v.coherence(omega):.2e}")

export_cycle_result(result, "carnot_shortcut_250")
print("\nwrote per-stroke trajectories into carnot_shortcut_250/")
