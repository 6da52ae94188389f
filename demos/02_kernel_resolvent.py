"""Relaxation-kernel calculus: the resolvent and the transform constants.

Every Volterra equation v + N'*v = F in the pipeline is inverted by the
resolvent R of N' (v = F - R*F).  The exponential substitution that turns the
memory model into a perturbed wave equation only needs two numbers and one
function derived from R, and ``resolvent`` returns just these:

    gamma = R(0)/2,  alpha = R'(0) + R(0)^2/4,  K(t) = exp(-gamma t) R''(t).

R itself solves the Volterra equation R + N'*R = N', so ``solve_volterra``
with kernel and right-hand side N' gives it.

For N(t) = exp(-a t) the resolvent is the constant -a, so K vanishes: the
whole memory reduces to the exponential tilt.  A kernel outside that family
keeps a genuinely time-dependent memory term.
"""

import numpy as np

from viscostring import Sampled1D, TimeGrid, build_kernel, resolvent, solve_volterra
from viscostring.kernels import resolvent_residual

grid = TimeGrid(1e-3, 2000)
t = grid.nodes()

print("exponential kernel N = exp(-0.5 t):")
ker = build_kernel(grid, "exp", rate=0.5)
res = resolvent(ker)
R = solve_volterra(ker.N1, ker.N1)
print(f"  max |R - (-0.5)| = {np.max(np.abs(R.values + 0.5)):.2e}")
print(f"  gamma = {res.gamma}, alpha = {res.alpha}, max|K| = {np.max(np.abs(res.K.values))}")
print(f"  identity residual |R + N'*R - N'| = {resolvent_residual(ker, R):.2e}")

print("\ntwo-mode kernel N = (1 + exp(-2t))/2:")
e = np.exp(-2.0 * t)
ker2 = build_kernel(
    grid, "tabulated", samples={"N": 0.5 * (1 + e), "N1": -e, "N2": 2 * e, "N3": -4 * e}
)
res2 = resolvent(ker2)
R2 = solve_volterra(ker2.N1, ker2.N1)
print(f"  gamma = {res2.gamma:.6f}, alpha = {res2.alpha:.6f}")
print(f"  max|K| = {np.max(np.abs(res2.K.values)):.4f}  (memory survives the transform)")
print(f"  identity residual = {resolvent_residual(ker2, R2):.2e}")

# the resolvent relationship is an involution: the resolvent of -R is -N'
back = solve_volterra(Sampled1D(grid, -R2.values), R2)
print(f"  involution check |solve(-R; R) - N'| = {np.max(np.abs(back.values - ker2.N1.values)):.2e}")

# second-kind solve vs the closed form for a constant kernel
v = solve_volterra(Sampled1D(grid, np.full(grid.n + 1, 0.5)), Sampled1D(grid, np.ones(grid.n + 1)))
print(f"\nv + 0.5 int v = 1  ->  max|v - exp(-t/2)| = {np.max(np.abs(v.values - np.exp(-0.5 * t))):.2e}")
