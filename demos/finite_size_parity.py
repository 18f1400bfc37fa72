"""Even and odd chains disagree about lambda = 0, and the disagreement is 2/N.

The momentum grid k_j = 2 pi j / N contains the band-touching point k = pi
only when N is even.  That single momentum flips its contribution abruptly
as lambda crosses 0, so eta1 jumps by exactly delta(N) = 2/N on even chains
while odd chains sail through smoothly.  The jump survives at any finite
size and disappears only in the thermodynamic limit.
"""

import numpy as np

from chainent import analysis

print("even N: jump delta(N) versus 2/N")
print(f"{'N':>5} {'delta(N)':>22} {'N*delta/2':>12}")
for N in (4, 8, 16, 32, 64, 128, 200):
    d = analysis.jump_at_zero(N)
    print(f"{N:5d} {d:22.16f} {N * d / 2:12.9f}")

print("\nodd N: eta1 is continuous through 0")
eps = 1e-6
for N in (5, 15, 51, 199):
    step = abs(analysis.eta1(eps, N) - analysis.eta1(-eps, N))
    print(f"N = {N:3d}: |eta1(+1e-6) - eta1(-1e-6)| = {step:.2e}")

# The same parity mechanism moves the critical point: lambda_+(N) approaches
# the thermodynamic 0.1383 from below as N grows (even N shown; the smallest
# chains have no transition at all because the jump overshoots it).
print("\nlambda_+(N) marching toward the thermodynamic value")
for N in (8, 16, 32, 64, 128):
    print(f"N = {N:4d}: lambda_+ = {analysis.critical_report(N).lambda_plus:.6f}")
print(f"N = inf : lambda_+ = {analysis.critical_report().lambda_plus:.6f}")

# A direct consequence for observables: sweeping across 0 at N = 16 shows
# C2 switching on discontinuously, while N = 15 interpolates.
grid = np.linspace(-0.04, 0.04, 8)
even = analysis.sweep(grid, N=16)
odd = analysis.sweep(grid, N=15)
print(f"\n{'lambda':>9} {'C2 (N=16)':>10} {'C2 (N=15)':>10}")
for i, lam in enumerate(grid):
    print(f"{lam:9.4f} {even.c2[i]:10.5f} {odd.c2[i]:10.5f}")
