"""Forward simulation of the memory string, checked against the independent
leapfrog oracle.

The model is w_t = int_0^t N(t-s) [w_xx + q w](s) ds with w(0,t) = f(t): a
wave equation whose restoring force remembers the whole deformation history.
Waves still travel at speed N(0) = 1, but the memory kernel reshapes them as
they go.  We drive the string with a smooth pulse, solve with the
characteristic (transformed) solver, and compare the field and the boundary
derivative trace against a plain finite-difference discretization that knows
nothing about the transform.
"""

import numpy as np

from viscostring import (
    Sampled1D,
    StringProblem,
    TimeGrid,
    build_kernel,
    fd_oracle,
    solve_mild,
)

T, L, m = 0.5, 1.0, 400
dt = T / m
grid = TimeGrid(dt, m)

kernel = build_kernel(grid, "exp", rate=1.0)          # N(t) = exp(-t)
q = lambda x: 1.0 + 0.5 * np.sin(np.pi * x / L)       # the unknown, here known
problem = StringProblem(L, q, kernel, T)

f = Sampled1D.from_callable(grid, lambda t: np.sin(np.pi * t / T) ** 2)

field = solve_mild(problem, f)
oracle = fd_oracle(problem, f)

keep = field.xgrid.n + 1
gap = np.linalg.norm(field.w.values - oracle.w.values[:keep]) / np.linalg.norm(
    oracle.w.values[:keep]
)
y_gap = np.linalg.norm(field.y.values - oracle.y.values) / np.linalg.norm(oracle.y.values)

print(f"grid: dt = {dt:.5f}, {m} steps, horizon T = {T}")
print(f"field   relative L2 gap vs leapfrog oracle: {gap:.3e}")
print(f"response relative L2 gap vs oracle trace:   {y_gap:.3e}")

w_T = field.w.values[:, -1]  # the last column of the field, on x in [0, T]
x = field.xgrid.nodes()
print("\nfinal state w(x, T) (the state the control steered to):")
for i in range(0, len(x), len(x) // 10):
    bar = "#" * int(40 * abs(w_T[i]) / (np.max(np.abs(w_T)) + 1e-30))
    print(f"  x = {x[i]:.3f}  w = {w_T[i]:+.4f}  {bar}")

print("\nboundary data seen by the observer (t, f, y, traction):")
for k in range(0, m + 1, m // 8):
    t = k * dt
    print(
        f"  t = {t:.3f}  f = {f.values[k]:+.4f}  y = {field.y.values[k]:+.4f}"
        f"  sigma = {field.sigma.values[k]:+.4f}"
    )
