"""Sweep the dimerization parameter and map out the entanglement phases.

The SSH chain carries exactly two kinds of entangled pairs: partners inside
a unit cell (concurrence C1) and partners across neighboring cells (C2).
Sweeping lambda from -1 to +1 walks through four phases:

    P0  (lambda < lambda_-)   only intra-cell pairs entangled
    Q0  (lambda_- .. 0)       both, intra-cell dominant
    Q1  (0 .. lambda_+)       both, inter-cell dominant
    P1  (lambda > lambda_+)   only inter-cell pairs entangled

with lambda_+/- ~ +/-0.138 where entanglement dies suddenly rather than
fading out.
"""

import numpy as np

from chainent import analysis, entangled_graph, ModelSpec

# Thermodynamic sweep.  An odd grid size would hit lambda = 0, which is
# fine in the thermodynamic limit (the closed forms stay finite).
lams = np.linspace(-0.95, 0.95, 39)
result = analysis.sweep(lams, N=None)

print(f"{'lambda':>8} {'eta1':>8} {'eta2':>8} {'C1':>8} {'C2':>8}")
for i, lam in enumerate(result.lambdas):
    print(f"{lam:8.3f} {result.eta1[i]:8.4f} {result.eta2[i]:8.4f} "
          f"{result.c1[i]:8.4f} {result.c2[i]:8.4f}")

# The transition points: Newton's method on the closed forms, started at the
# tabulated N = infinity root; lambda_- = -lambda_+ by sublattice symmetry.
report = analysis.critical_report()
lp, lm = report.lambda_plus, report.lambda_minus
print(f"\nentanglement sudden death at lambda_- = {lm:.6f}, "
      f"lambda_+ = {lp:.6f}")

# The entangled graph makes the phase visible as connectivity: deep in P1
# the chain is a perfect matching of inter-cell bonds.
for lam in (-0.5, -0.05, 0.05, 0.5):
    g = entangled_graph(ModelSpec.ssh(16, lam))
    print(f"lambda = {lam:+.2f}: phase {g.phase.value:8s} "
          f"C1 = {g.c1:.4f}  C2 = {g.c2:.4f}  edges = {len(g.edges)}")
