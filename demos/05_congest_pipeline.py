"""The full CONGEST drivers.

With the default step size the outer schedule first clears its stop
predicate at n = 2^22 for p = 4 to 6 (2^15 for the K_4 variant), so at test
scale the driver goes straight to the terminal broadcast; forced-depth mode
runs the decomposition / import / reshuffle / in-cluster listing machinery
anyway, with a scaled schedule step, and the output stays oracle-exact
either way.
"""

from fractions import Fraction

from congestlist.graphs import brute_force_list_kp, gnp
from congestlist.pipeline import congest_list_k4, congest_list_kp, iteration_schedule

g = gnp(64, 0.3, seed=5)
oracle = brute_force_list_kp(g, 4)

# Default schedule: stops immediately at this n (delta_0 <= 3/4).
print("schedule steps at n=64 (default step size):",
      len(iteration_schedule(64, 4)))
print("schedule steps at n=2^64:", len(iteration_schedule(2 ** 64, 4)))

report = congest_list_kp(g, p=4, seed=5)
print(f"\ndefault run: {len(report.cliques)} cliques, "
      f"exact: {report.clique_set() == oracle}, "
      f"total rounds: {report.total_rounds}")

# Forced depth: two outer steps with a half-unit schedule step.
forced = congest_list_kp(g, p=4, seed=5, forced_depth=2,
                         eps0_fraction=Fraction(1, 2))
print(f"\nforced-depth run: exact: {forced.clique_set() == oracle}")
for step in forced.schedule:
    print(f"  outer {step['k']}: d={step['d']:.3f} delta={step['delta']:.3f} "
          f"remainder trace {step['er_trace']}")
print("phases (first 12):")
for phase, rounds in list(forced.rounds_by_phase.items())[:12]:
    print(f"  {phase:40s} {rounds}")

# The K_4 variant: no bad edges, light nodes list their own instances.
k4 = congest_list_k4(g, seed=5, forced_depth=1, eps0_fraction=Fraction(1, 2))
print(f"\nK_4 variant: exact: {k4.clique_set() == oracle}, "
      f"clusters: {len(k4.cluster_reports)}")
