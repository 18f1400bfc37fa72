"""The same parity mechanism in a different model: the Kitaev chain.

In the Kitaev chain the band touching sits at chemical potential mu = 2t
(momentum k = pi), exactly the momentum that only even-N grids contain.
The local density n(mu) therefore jumps by 1/N on even chains as mu crosses
2t, while odd chains stay continuous -- the Kitaev analog of the SSH
eta1 jump, with n playing the role of eta1 and mu the role of lambda.
Near the touching the thermodynamic local compressibility dn/dmu diverges
logarithmically, like deta1/dlambda does in the SSH chain.
"""

import numpy as np

from chainent import analysis

print("density jump across mu = 2t (even N); N * jump = 1")
for N in (4, 10, 40, 100):
    below, above = analysis.kitaev_density([2.0 - 1e-9, 2.0 + 1e-9], N=N).density
    jump = above - below
    print(f"N = {N:4d}: n(2 + 1e-9) - n(2 - 1e-9) = {jump:.9f}, N * jump = {N * jump:.6f}")

eps = 1e-6
print("\nodd N: continuous")
for N in (5, 21, 99):
    below, above = analysis.kitaev_density([2.0 - eps, 2.0 + eps], N=N).density
    print(f"N = {N:3d}: |n(2+) - n(2-)| = {abs(above - below):.2e}")

# Thermodynamic density profile across the touching.
table = analysis.kitaev_density(np.linspace(0.0, 4.0, 9))
print(f"\n{'mu':>7} {'n(mu)':>10}")
for mu, n in zip(table.mus, table.density):
    print(f"{mu:7.2f} {n:10.6f}")

# The compressibility grows logarithmically as mu -> 2t.  Note the measured
# prefactor: in this parametrization the exact asymptotic slope against
# ln|mu - 2t| is 1/(4 pi) ~ 0.0796 (the Bloch vector responds to mu four
# times more weakly than the SSH vector responds to lambda, and n carries
# a further factor 1/2 relative to eta_z).
fit = analysis.kitaev_compressibility_logfit(window=(1e-5, 1e-3))
print(f"\ncompressibility log-fit slope = {abs(fit.slope):.6f}"
      f"   1/(4 pi) = {1.0 / (4.0 * np.pi):.6f}")
print(f"asymptotic window: {fit.asymptotic}")
