"""Relaxation kernel N(t), its resolvent and the derived transform constants.

The grid, M(t) = int_0^t N and gamma = R(0)/2 are not stored: they are reads
of N and R.

The memory model repeatedly produces Volterra equations of the second kind
with kernel N1 = N',

    v(t) + int_0^t N1(t-s) v(s) ds = F(t),

whose solution is v = F - R*F where R is the resolvent of N1:

    R(t) + int_0^t N1(t-s) R(s) ds = N1(t).

From R the exponential substitution that turns the memory model into a
perturbed wave equation uses

    gamma = R(0)/2,   alpha = R'(0) + R(0)^2/4,   K(t) = exp(-gamma t) R''(t).

R'' is obtained by differentiating the resolvent identity twice (one more
Volterra right-hand side with the same kernel), never by differencing R: the
downstream chain needs R'' at full second-order accuracy.  R' enters only
through R'(0), which the differentiated identity gives with no solve.  Every
Volterra system here is lower-triangular Toeplitz: ``_volterra_values`` builds
its inverse once by causal doubling (``grid._lower_toeplitz_inverse``) and
applies it by one causal convolution per right-hand side.

Sign note: the perturbed-wave coefficient alpha is fixed to R'(0) + R(0)^2/4.
Substituting w = exp(gamma t) W with gamma = R(0)/2 into the differentiated
model gives W'' = W_xx + (q + alpha) W + K * W with exactly this alpha; the
finite-difference cross-check in the acceptance suite pins the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, KernelValidationError, NumericalFailure
from .grid import (
    Sampled1D,
    TimeGrid,
    _lower_toeplitz_inverse,
    centered_difference,
    convolve_values,
    cumulative_values,
)

__all__ = [
    "MemoryKernel",
    "ResolventData",
    "build_kernel",
    "solve_volterra",
    "resolvent",
    "response_to_traction",
]


@dataclass(frozen=True)
class MemoryKernel:
    """Sampled relaxation kernel with its first three derivatives; grid and M
    read N."""

    N: Sampled1D
    N1: Sampled1D
    N2: Sampled1D
    N3: Sampled1D
    kind: str = "tabulated"
    rate: float | None = None

    @property
    def grid(self) -> TimeGrid:
        return self.N.grid

    @cached_property
    def M(self) -> Sampled1D:
        return Sampled1D(self.grid, cumulative_values(self.N.values, self.grid.dt))

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

    @cached_property
    def _resolvent(self) -> ResolventData:
        """The resolvent on the whole grid, solved on first use (``resolvent``)."""
        grid = self.grid
        n1 = self.N1.values
        r0 = n1[0]  # R(0) = rhs(0) of the first solve
        if self.kind in ("const", "exp"):
            zero = Sampled1D(grid, np.zeros(grid.n + 1))
            r = Sampled1D(grid, _volterra_values(n1, n1, grid.dt))
            return ResolventData(R=r, alpha=0.25 * r0 * r0, K=zero)
        n2 = self.N2.values
        r1_0 = n2[0] - r0 * n1[0]  # R'(0)
        alpha = r1_0 + 0.25 * r0 * r0
        rhs2 = self.N3.values - r0 * n2 - r1_0 * n1
        r, r2d = _volterra_values(n1, np.column_stack([n1, rhs2]), grid.dt).T
        kk = Sampled1D(grid, np.exp(-0.5 * r0 * grid.nodes()) * r2d)
        return ResolventData(R=Sampled1D(grid, r), alpha=alpha, K=kk)


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

    # near the float limit the difference check overflows to inf or nan and fails below
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = MemoryKernel(
            N=Sampled1D(grid, n),
            N1=Sampled1D(grid, n1),
            N2=Sampled1D(grid, n2),
            N3=Sampled1D(grid, n3),
            kind=kind,
            rate=rate if kind == "exp" else None,
        )
        scale = np.max(np.abs(kernel.N2.values)) + np.max(np.abs(kernel.N3.values)) + 1.0
        bound = 100.0 * grid.dt**2 * scale + 1e-9
        consistent = kernel.consistency_residual() <= bound < np.inf
    if not consistent:
        raise KernelValidationError(
            "kernel samples and derivative samples are mutually inconsistent"
        )
    return kernel


def _volterra_values(k: np.ndarray, f: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoidal solution of v + k*v = f for one right-hand side f, or one
    per column of f.  Node 0 has diagonal 1, so v[0] = f[0]; nodes 1..n form a
    lower-triangular Toeplitz system L with first column (1 + dt k[0]/2, dt k[1],
    ..., dt k[n-1]) and right-hand side f[1:] - (dt/2) k[1:] v[0].

    The first column b of L^-1 is built once by causal doubling (about
    2 log2 n numpy calls) and applied by one causal convolution per column:
    O(n^2) flops with no Python loop over the n rows.  Column j of a 2-D
    solve equals the 1-D solve of f[:, j] bit for bit, and a prefix of k and
    f gives a prefix of v bit for bit when it holds 12 or more rows (np.convolve
    sums the last entry of a shorter system in another order).
    """
    diag = 1.0 + 0.5 * dt * k[0]
    if abs(diag) < 1e-12:
        raise NumericalFailure(
            f"Volterra diagonal 1 + dt*kernel(0)/2 = {diag} is numerically singular"
        )
    col = dt * k[:-1]
    col[0] = diag
    b = _lower_toeplitz_inverse(col)
    f2 = f.reshape(len(f), -1)  # a 1-D f is one column
    v = np.empty(f2.shape)
    v[0] = f2[0]
    v[1:] = f2[1:] - (0.5 * dt) * k[1:, None] * f2[0]
    for j in range(v.shape[1]):
        v[1:, j] = np.convolve(b, v[1:, j])[: len(b)]
    return v.reshape(f.shape)


def solve_volterra(kernel: Sampled1D, rhs: Sampled1D) -> Sampled1D:
    """Solve v + kernel * v = rhs (causal convolution) in the trapezoidal
    discretization of ``convolve_values``, exactly up to round-off.

    The discrete system is lower-triangular Toeplitz and ``_volterra_values``
    solves it in O(n^2) flops and about 2 log2 n numpy calls.  It is causal:
    a prefix of kernel and rhs gives a prefix of v (bit for bit from 12 rows).
    Raises NumericalFailure when the diagonal 1 + dt*kernel(0)/2 is ~0.
    """
    kernel.require_same_grid(rhs, "Volterra kernel and right-hand side")
    v = _volterra_values(kernel.values, rhs.values, kernel.grid.dt)
    return Sampled1D(kernel.grid, v)


@dataclass(frozen=True)
class ResolventData:
    """Resolvent R of N1 and what the transform reads of it: gamma = R(0)/2,
    a read of R, alpha = R'(0) + R(0)^2/4 and K = exp(-gamma t) R''.  K is an
    exact zero for const and exp kernels at any rate."""

    R: Sampled1D
    alpha: float
    K: Sampled1D

    @property
    def gamma(self) -> float:
        return 0.5 * self.R.values[0]

    def residual(self, kernel: MemoryKernel) -> float:
        """sup-norm residual of R + N1*R - N1 at the discrete level."""
        conv = convolve_values(kernel.N1.values, self.R.values, self.R.grid.dt)
        return float(np.max(np.abs(self.R.values + conv - kernel.N1.values)))


def resolvent(k: MemoryKernel) -> ResolventData:
    """Resolvent R of N1 plus gamma, alpha and K = exp(-gamma t) R''.

    Solved once per kernel, on its whole grid, and kept on it: every later
    call returns the same object.  The Volterra solves are causal, so on a
    prefix window [0, T] the values are those of the kernel built on [0, T],
    bit for bit from 12 steps on.

    R'' comes from differentiating the resolvent identity twice:
        R'  + N1*R'  = N1'  - R(0) N1
        R'' + N1*R'' = N1'' - R(0) N1' - R'(0) N1
    Every solve returns v(0) = rhs(0), so R(0) = N1(0) and
    R'(0) = N1'(0) - R(0) N1(0) are known before any solve, and R' is never
    solved for: the two right-hand sides of R and R'' share one Volterra
    call with kernel N1 (one inverse, one convolution per column).  For const
    and exp kernels N1' = -rate N1 and R(0) = -rate, so the R'' right-hand
    side vanishes and K is an exact zero (a solve would leave round-off), and
    alpha is R(0)^2/4 (the sampled N1'(0) = rate**2 may miss rate*rate by an
    ulp); only R is solved there.  Tabulated kernels solve both.
    """
    return k._resolvent


def response_to_traction(y: Sampled1D, k: MemoryKernel) -> Sampled1D:
    """Traction exerted on the support: sigma(t) = -int_0^t N(t-s) y(s) ds.

    y may live on a prefix window of the kernel grid (same step, no more
    steps); sigma is returned on the window of y.  Raises NumericalFailure
    when the traction is not finite."""
    if not (y.grid.compatible_step(k.grid) and y.grid.n <= k.grid.n):
        raise GridMismatchError("response must live on a prefix window of the kernel grid")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in NumericalFailure
        sigma = -convolve_values(k.N.values[: y.grid.n + 1], y.values, k.grid.dt)
    if not np.all(np.isfinite(sigma)):
        raise NumericalFailure("traction is not finite (the response overflows the convolution)")
    return Sampled1D(y.grid, sigma)

