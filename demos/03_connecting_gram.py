"""The connecting operator from boundary data alone.

The Gram matrix <C_T e_i, e_j> of the connecting operator C_T (inner products
of the states reachable by the basis controls) is computable WITHOUT knowing
the coefficient q: the product moment H^{f,g}(s,t) of two solutions obeys a
wave identity in the two time variables whose source term involves only the
controls and their measured responses.  This script builds the Gram both
ways -- from data and from forward snapshots that do know q -- and shows they
agree, including the memoryless sanity case where the Gram must equal the
plain L2 mass matrix of the basis.
"""

import numpy as np

from viscostring import (
    StringProblem,
    TimeGrid,
    build_kernel,
    gram_from_data,
    gram_oracle,
    hat_basis,
    synthesize_table,
)

T_max, L, n, m = 0.5, 1.0, 12, 192
dt = T_max / m
grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
basis = hat_basis(grid, n)

print("memoryless case (N = 1, q = 0): Gram -> hat mass matrix")
tab = synthesize_table(basis, build_kernel(grid2, "const"), lambda x: np.zeros_like(x), L)
gram = gram_from_data(tab)
mass = basis.mass_matrix
gap = np.linalg.norm(gram.at(T_max) - mass) / np.linalg.norm(mass)
print(f"  relative Frobenius gap to the mass matrix: {gap:.3e}")
print(f"  worst pre-symmetrization asymmetry over the knots: {np.max(gram.asymmetry):.2e}")

print("\nmemory case (N = exp(-t), q = 1 + 0.5 sin(pi x / L)):")
qf = lambda x: 1.0 + 0.5 * np.sin(np.pi * x / L)
tab = synthesize_table(basis, build_kernel(grid2, "exp", rate=1.0), qf, L)
gram = gram_from_data(tab)
p = StringProblem(L, qf, build_kernel(grid, "exp", rate=1.0), T_max)
oracle = gram_oracle(p, basis)
for j in range(4, n + 2, 3):  # C[j] is the Gram at the knot basis.knots[j]
    T = basis.knots[j]
    gap = np.linalg.norm(gram.C[j] - oracle.C[j]) / np.linalg.norm(oracle.C[j])
    print(f"  T = {T:.3f}: data vs forward-oracle Gram gap {gap:.3e}")

ev = np.linalg.eigvalsh(gram.at(T_max))
print(f"\n  eigenvalue range at T_max: [{ev[0]:.3e}, {ev[-1]:.3e}] (positive: controllable)")
