"""End-to-end coefficient identification from boundary data.

The inverse problem: the observer applies boundary deformations, measures the
resulting boundary tractions/derivative traces, and must recover q(x) on the
reachable segment.  The algorithm:

  1. assemble the connecting Gram <C_T e_i, e_j> from the response table,
  2. for each horizon T solve C_T f = M(T - .) for the control steering to
     the target profile xi solving xi'' + q xi = 0, xi(0) = 0, xi'(0) = 1,
  3. read the target trace xi(T) = exp(gamma T) f(0+) off the control,
  4. reconstruct q(T) = -xi''(T)/xi(T) by local fits over the horizons.

Only the responses enter; the true q below is used solely to score the
result (and to manufacture the synthetic data in the first place).
"""

import numpy as np

from viscostring import TimeGrid, build_kernel, hat_basis, pipeline, synthesize_table

T_max, L, n, m = 1.0, 2.0, 32, 256
dt = T_max / m
grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
basis = hat_basis(grid, n)

kernel2 = build_kernel(grid2, "exp", rate=1.0)
q_true = lambda x: 1.0 + 0.25 * np.sin(np.pi * x / L)

print("synthesizing boundary responses (the only data the inverse step sees)...")
tab = synthesize_table(basis, kernel2, q_true, L)

print("running the reconstruction pipeline...")
result = pipeline(tab)

print(f"\n{'T':>8} {'xi(T)':>10} {'q_hat(T)':>10} {'q_true(T)':>10} {'error':>9}")
for i, T in enumerate(result.horizons):
    qt = q_true(np.array([T]))[0]
    print(
        f"{T:8.4f} {result.xi[i]:10.5f} {result.q_hat[i]:10.5f} {qt:10.5f}"
        f" {result.q_hat[i] - qt:+9.5f}"
    )

qt = q_true(result.horizons)
rel = np.linalg.norm(result.q_hat - qt) / np.linalg.norm(qt)
print(f"\nrelative L2 error of the reconstruction: {rel:.3e}")
print(f"guard activations: {int(np.sum(result.guarded))}")
cond = result.condition
print(f"condition numbers of the steering systems: [{cond.min():.2f}, {cond.max():.2f}]")
