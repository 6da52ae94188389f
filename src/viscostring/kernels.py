"""Relaxation kernel N(t), its resolvent and the derived transform constants.

The grid and M(t) = int_0^t N are not stored: they are reads of N, and so is
an exp kernel's rate, -N1(0).

The memory model repeatedly produces Volterra equations of the second kind
with kernel N1 = N',

    v(t) + int_0^t N1(t-s) v(s) ds = F(t),

whose solution is v = F - R*F where R is the resolvent of N1:

    R(t) + int_0^t N1(t-s) R(s) ds = N1(t),

itself the Volterra equation with right-hand side N1, so R is
``solve_volterra(N1, N1)``.  The exponential substitution that turns the
memory model into a perturbed wave equation reads three things of R,

    gamma = R(0)/2,   alpha = R'(0) + R(0)^2/4,   K(t) = exp(-gamma t) R''(t),

and ``resolvent`` keeps these, not R: R(0) = N1(0) and R'(0) need no solve,
and R'' solves one more Volterra right-hand side with kernel N1 (never a
difference of R: the downstream chain needs R'' at full second-order
accuracy), which vanishes for const and exp kernels.  Every Volterra system
here is lower-triangular Toeplitz: ``_volterra_values`` builds its inverse by
causal doubling (``grid._lower_toeplitz_inverse``) and applies it by one
causal convolution.

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
    "resolvent_residual",
    "response_to_traction",
]


@dataclass(frozen=True)
class MemoryKernel:
    """Sampled relaxation kernel with its first three derivatives; grid, M
    and rate read N and N1."""

    N: Sampled1D
    N1: Sampled1D
    N2: Sampled1D
    N3: Sampled1D
    kind: str = "tabulated"

    @property
    def grid(self) -> TimeGrid:
        return self.N.grid

    @property
    def rate(self) -> float | None:
        """An exp kernel's rate, -N1(0) (exact: N1(0) = -rate exp(-0.0));
        None for const and tabulated kernels."""
        return float(-self.N1.values[0]) if self.kind == "exp" else None

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
        """gamma, alpha and K on the whole grid, made on first use (``resolvent``)."""
        grid = self.grid
        n1 = self.N1.values
        r0 = n1[0]  # R(0) = rhs(0) of the resolvent identity
        if self.kind in ("const", "exp"):
            zero = Sampled1D(grid, np.zeros(grid.n + 1))
            return ResolventData(gamma=0.5 * r0, alpha=0.25 * r0 * r0, K=zero)
        n2 = self.N2.values
        r1_0 = n2[0] - r0 * n1[0]  # R'(0)
        rhs2 = self.N3.values - r0 * n2 - r1_0 * n1
        kk = np.exp(-0.5 * r0 * grid.nodes()) * _volterra_values(n1, rhs2, grid.dt)
        return ResolventData(gamma=0.5 * r0, alpha=r1_0 + 0.25 * r0 * r0, K=Sampled1D(grid, kk))


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
    """Trapezoidal solution of v + k*v = f for one right-hand side f.  Node 0
    has diagonal 1, so v[0] = f[0]; nodes 1..n form a lower-triangular
    Toeplitz system L with first column (1 + dt k[0]/2, dt k[1], ...,
    dt k[n-1]) and right-hand side f[1:] - (dt/2) k[1:] v[0].

    The first column b of L^-1 is built by causal doubling (about 2 log2 n
    numpy calls) and applied by one causal convolution: O(n^2) flops with no
    Python loop over the n rows.  A prefix of k and f gives a prefix of v bit
    for bit when it holds 12 or more rows (np.convolve sums the last entry of
    a shorter system in another order).
    """
    diag = 1.0 + 0.5 * dt * k[0]
    if abs(diag) < 1e-12:
        raise NumericalFailure(
            f"Volterra diagonal 1 + dt*kernel(0)/2 = {diag} is numerically singular"
        )
    col = dt * k[:-1]
    col[0] = diag
    b = _lower_toeplitz_inverse(col)
    v = np.empty(f.shape)
    v[0] = f[0]
    v[1:] = np.convolve(b, f[1:] - (0.5 * dt) * k[1:] * f[0])[: len(b)]
    return v


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
    """What the transform reads of the resolvent R of N1: gamma = R(0)/2,
    alpha = R'(0) + R(0)^2/4 and K = exp(-gamma t) R''.  K is an exact zero
    for const and exp kernels at any rate.  R itself is
    ``solve_volterra(N1, N1)``."""

    gamma: float
    alpha: float
    K: Sampled1D


def resolvent(k: MemoryKernel) -> ResolventData:
    """gamma, alpha and K = exp(-gamma t) R'' of the resolvent R of N1.

    Made once per kernel, on its whole grid, and kept on it: every later
    call returns the same object.  The Volterra solve is causal, so on a
    prefix window [0, T] a tabulated kernel's K is that of the kernel built
    on [0, T], bit for bit from 12 steps on; const and exp kernels solve
    nothing, so theirs is at every length.

    R'' comes from differentiating the resolvent identity twice:
        R'  + N1*R'  = N1'  - R(0) N1
        R'' + N1*R'' = N1'' - R(0) N1' - R'(0) N1
    Every solve returns v(0) = rhs(0), so R(0) = N1(0) and
    R'(0) = N1'(0) - R(0) N1(0) are known with no solve; a tabulated kernel
    solves the one R'' right-hand side.  For const and exp kernels
    N1' = -rate N1 and R(0) = -rate, so that right-hand side vanishes and K
    is an exact zero (a solve would leave round-off), and alpha is R(0)^2/4
    (the sampled N1'(0) = rate**2 may miss rate*rate by an ulp): nothing is
    solved there.
    """
    return k._resolvent


def resolvent_residual(k: MemoryKernel, R: Sampled1D) -> float:
    """sup-norm residual of R + N1*R - N1 at the discrete level."""
    conv = convolve_values(k.N1.values, R.values, R.grid.dt)
    return float(np.max(np.abs(R.values + conv - k.N1.values)))


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

