"""Relaxation kernel N(t), its resolvent and the derived transform constants.

The memory model repeatedly produces Volterra equations of the second kind
with kernel N1 = N',

    v(t) + int_0^t N1(t-s) v(s) ds = F(t),

whose solution is v = F - R*F where R is the resolvent of N1:

    R(t) + int_0^t N1(t-s) R(s) ds = N1(t).

From R the exponential substitution that turns the memory model into a
perturbed wave equation uses

    gamma = R(0)/2,   alpha = R'(0) + R(0)^2/4,   K(t) = exp(-gamma t) R''(t).

R' and R'' are obtained by differentiating the resolvent identity (two more
Volterra solves with the same kernel), never by differencing R: the downstream
chain needs R'' at full second-order accuracy.

Sign note: the perturbed-wave coefficient alpha is fixed to R'(0) + R(0)^2/4.
Substituting w = exp(gamma t) W with gamma = R(0)/2 into the differentiated
model gives W'' = W_xx + (q + alpha) W + K * W with exactly this alpha; the
finite-difference cross-check in the acceptance suite pins the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import KernelValidationError, NumericalFailure
from .grid import (
    Sampled1D,
    TimeGrid,
    causal_convolve,
    centered_difference,
    convolve_values,
    cumulative_integral,
)

__all__ = [
    "MemoryKernel",
    "ResolventData",
    "build_kernel",
    "solve_volterra",
    "resolvent",
    "response_to_traction",
    "traction_to_response",
]


@dataclass(frozen=True)
class MemoryKernel:
    """Sampled relaxation kernel with its first three derivatives and
    M(t) = int_0^t N."""

    grid: TimeGrid
    N: Sampled1D
    N1: Sampled1D
    N2: Sampled1D
    N3: Sampled1D
    M: Sampled1D = field(repr=False)
    kind: str = "tabulated"
    rate: float | None = None

    def consistency_residual(self) -> float:
        """Max mismatch between numerically differentiated samples and the
        supplied derivative samples (should be O(dt^2))."""
        dt = self.grid.dt
        gaps = [
            np.max(np.abs(centered_difference(self.N.values, dt) - self.N1.values)),
            np.max(np.abs(centered_difference(self.N1.values, dt) - self.N2.values)),
            np.max(np.abs(centered_difference(self.N2.values, dt) - self.N3.values)),
        ]
        return float(max(gaps))


def build_kernel(
    grid: TimeGrid,
    kind: str = "const",
    rate: float = 1.0,
    samples: dict | None = None,
) -> MemoryKernel:
    """Build a relaxation kernel on a grid.

    kind:
      "const"     -- N == 1 (memoryless string; integrated wave equation)
      "exp"       -- N(t) = exp(-rate * t), rate > 0
      "tabulated" -- samples dict with keys N, N1, N2, N3 on the grid nodes

    N(0) must be 1: the propagation speed is sqrt(N(0)) and the characteristic
    solvers step space and time alike.
    """
    t = grid.nodes()
    if kind == "const":
        one = np.ones_like(t)
        zero = np.zeros_like(t)
        n, n1, n2, n3 = one, zero, zero.copy(), zero.copy()
    elif kind == "exp":
        if not 0 < rate < np.inf:
            raise KernelValidationError(f"exponential kernel needs a finite rate > 0, got {rate}")
        e = np.exp(-rate * t)
        n, n1, n2, n3 = e, -rate * e, rate**2 * e, -(rate**3) * e
    elif kind == "tabulated":
        if samples is None or any(key not in samples for key in ("N", "N1", "N2", "N3")):
            raise KernelValidationError(
                "tabulated kernel needs sample arrays N, N1, N2, N3 "
                "(derivatives are never manufactured from values alone)"
            )
        rows = [np.asarray(samples[key], dtype=float) for key in ("N", "N1", "N2", "N3")]
        for r in rows:
            if r.shape != t.shape:
                raise KernelValidationError(
                    f"tabulated samples must have {t.shape[0]} nodes, got {r.shape}"
                )
            if not np.all(np.isfinite(r)):
                raise KernelValidationError("tabulated kernel samples must be finite")
        if abs(rows[0][0] - 1.0) > 1e-9:
            raise KernelValidationError(f"N(0) = {rows[0][0]} != 1")
        n, n1, n2, n3 = rows
    else:
        raise KernelValidationError(f"unknown kernel kind {kind!r}")

    kernel = MemoryKernel(
        grid=grid,
        N=Sampled1D(grid, n),
        N1=Sampled1D(grid, n1),
        N2=Sampled1D(grid, n2),
        N3=Sampled1D(grid, n3),
        M=cumulative_integral(Sampled1D(grid, n)),
        kind=kind,
        rate=rate if kind == "exp" else None,
    )
    scale = np.max(np.abs(kernel.N2.values)) + np.max(np.abs(kernel.N3.values)) + 1.0
    if kernel.consistency_residual() > 100.0 * grid.dt**2 * scale + 1e-9:
        raise KernelValidationError(
            "kernel samples and derivative samples are mutually inconsistent"
        )
    return kernel


def solve_volterra(kernel: Sampled1D, rhs: Sampled1D) -> Sampled1D:
    """Solve v + kernel * v = rhs (causal convolution) by forward substitution
    of the trapezoidal discretization.  The node-0 diagonal term is 1, so
    v[0] = rhs[0]; each later node divides by 1 + dt*kernel[0]/2."""
    kernel.require_same_grid(rhs, "Volterra kernel and right-hand side")
    k = kernel.values
    f = rhs.values
    dt = kernel.grid.dt
    diag = 1.0 + 0.5 * dt * k[0]
    if abs(diag) < 1e-12:
        raise NumericalFailure(
            f"Volterra diagonal 1 + dt*kernel(0)/2 = {diag} is numerically singular"
        )
    n = kernel.grid.n
    v = np.empty(n + 1)
    v[0] = f[0]
    for j in range(1, n + 1):
        acc = 0.5 * k[j] * v[0]
        if j > 1:
            acc += np.dot(k[j - 1 : 0 : -1], v[1:j])
        v[j] = (f[j] - dt * acc) / diag
    return Sampled1D(kernel.grid, v)


@dataclass(frozen=True)
class ResolventData:
    """Resolvent of N1 with derivatives and the transform constants."""

    grid: TimeGrid
    R: Sampled1D
    R1: Sampled1D
    R2deriv: Sampled1D
    gamma: float
    alpha: float
    K: Sampled1D

    def residual(self, kernel: MemoryKernel) -> float:
        """sup-norm residual of R + N1*R - N1 at the discrete level."""
        conv = convolve_values(kernel.N1.values, self.R.values, self.grid.dt)
        return float(np.max(np.abs(self.R.values + conv - kernel.N1.values)))


def resolvent(k: MemoryKernel) -> ResolventData:
    """Resolvent R of N1 plus R', R'', gamma, alpha and K = exp(-gamma t) R''.

    R'/R'' come from differentiating the resolvent identity:
        R'  + N1*R'  = N1'  - R(0) N1
        R'' + N1*R'' = N1'' - R(0) N1' - R'(0) N1
    (each again a Volterra solve with kernel N1).
    """
    grid = k.grid
    n1 = k.N1
    r = solve_volterra(n1, n1)
    r0 = r.values[0]
    rhs1 = Sampled1D(grid, k.N2.values - r0 * n1.values)
    r1 = solve_volterra(n1, rhs1)
    r1_0 = r1.values[0]
    rhs2 = Sampled1D(grid, k.N3.values - r0 * k.N2.values - r1_0 * n1.values)
    r2d = solve_volterra(n1, rhs2)

    gamma = 0.5 * r0
    alpha = r1_0 + 0.25 * r0 * r0
    kk = Sampled1D(grid, np.exp(-gamma * grid.nodes()) * r2d.values)
    return ResolventData(grid=grid, R=r, R1=r1, R2deriv=r2d, gamma=gamma, alpha=alpha, K=kk)


def response_to_traction(y: Sampled1D, k: MemoryKernel) -> Sampled1D:
    """Traction exerted on the support: sigma(t) = -int_0^t N(t-s) y(s) ds."""
    y.require_same_grid(k.N, "response and kernel")
    conv = causal_convolve(k.N, y)
    return Sampled1D(y.grid, -conv.values)


def traction_to_response(sigma: Sampled1D, k: MemoryKernel) -> Sampled1D:
    """Invert the traction relation: y + N'*y = -sigma'.

    sigma(0) must vanish (measurement starts from rest); sigma' is taken by
    centered differences (one-sided at the ends)."""
    sigma.require_same_grid(k.N, "traction and kernel")
    scale = np.max(np.abs(sigma.values))
    if abs(sigma.values[0]) > 1e-9 * max(scale, 1.0):
        raise KernelValidationError(
            f"traction must start at 0, got sigma(0) = {sigma.values[0]}"
        )
    dsigma = centered_difference(sigma.values, sigma.grid.dt)
    return solve_volterra(k.N1, Sampled1D(sigma.grid, -dsigma))
