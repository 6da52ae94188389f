"""Forward simulation of the string with persistent memory.

Model:  w_t(x,t) = int_0^t N(t-s) [w_xx + q(x) w](x,s) ds  on (0,L),
        w(x,0) = 0,  w(0,t) = f(t),  w(L,t) = 0,
observed through the boundary derivative y(t) = w_x(0,t).

``solve_mild`` integrates the transformed field W = exp(-gamma t) w, which for
T <= L (no reflection from x = L, as ``StringProblem`` checks) satisfies the
characteristic integral equation

    W(x,t) = exp(-gamma(t-x)) f(t-x) + (1/2) int_{D(x,t)} F,
    F(x,t) = (q(x) + alpha) W(x,t) + int_0^t K(t-s) W(x,s) ds,

with D(x,t) the backward characteristic triangle.  gamma, alpha and K come
from ``kernels.resolvent``, solved once per kernel on its whole grid; the
march reads K on [0,T] only, where the causal Volterra solves give the
values of the kernel cut to [0,T] (bit for bit from 12 steps on).  Marching
in time, the triangle integral telescopes into the lozenge update

    W[i,k+1] = W[i+1,k] + W[i-1,k] - W[i,k-1] + dt^2 F[i,k]

(midpoint rule on the lozenge between levels, fourth-order locally).  Waves
travel at speed one and the update keeps W[i,k] = 0 for x_i > t_k exactly, so
the march stores W time-major and level k touches only its light cone, the
rows i <= k+1.  The memory trapezoid of F is split by levels: per block of
``_BLOCK`` levels one product of a Toeplitz slice of dt*K with the field of
all earlier levels sums the history before the block, and one small product
per level adds the levels k0..k inside it, with the weights dt*[K_{k-k0}, ...,
K_1, K_0/2] whose last entry is the l = k end of the trapezoid (the near/far
split of Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985)
532-541, without FFTs).

The boundary response needs no difference quotient.  Differentiating the
triangle integral in x at x = 0+ (the interior and reflected characteristic
families give one copy each, and with W = g + u/2 the factor two and the
half cancel) gives

    y(t) = gamma f(t) - f'(t) + exp(gamma t) int_0^t F(xi, t-xi) dxi,

which the march sums as it goes.  It folds dt^2 into its weights,
dt^2 (q+alpha) and dt^3 K, so a level's F row is the dt^2 F term of its
update.  The rows of a block of ``_BLOCK`` levels are written into one small
buffer, each shifted by its level so that a column is an anti-diagonal, and
one sum over the buffer's rows per block, in level order, adds them to the
integral.  y reads dt times the integral, the folded sums divided by dt once
at the end.  Per level that leaves 4 numpy calls without memory and 7 with
it.

y(t_n) reads the cells x_i + t_k <= t_n only, so the march (``_mild_march``)
takes the last anti-diagonal its caller needs: ``solve_mild`` asks for the
whole cone, while the response table (``connecting.synthesize_table``) reads
only the trace on [0,T] and asks for x_i + t_k <= T, where level k touches
the rows i <= min(k+1, m-k), half of the cone, and builds no physical
field.

``fd_oracle`` is an independent check: a leapfrog discretization of the
differentiated model w_tt = Lw + int_0^t N'(t-s) Lw(s) ds on the full domain
[0,L] with Dirichlet ends.  It never sees gamma/alpha/K, so agreement with
``solve_mild`` validates the whole transform chain.  Both return a
``WaveField`` of the field and its boundary response; the traction
sigma = -N*y is a read of y and the kernel, computed by the caller that
writes it (``kernels.response_to_traction``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import GridMismatchError, KernelValidationError, NumericalFailure
from .grid import Sampled1D, Sampled2D, TimeGrid, centered_difference
from .kernels import MemoryKernel, resolvent

__all__ = [
    "StringProblem",
    "WaveField",
    "solve_mild",
    "fd_oracle",
]


@dataclass(frozen=True)
class StringProblem:
    """Geometry, coefficient and kernel of one simulation instance, checked once.

    q may be a callable of x or an array sampled at the x-nodes of [0,L]
    (spacing = kernel grid step, shared so characteristics hit nodes).  L and
    T lie on that lattice, T <= L (no reflection from x = L) and the kernel
    grid reaches T; the solvers trust these checks and read p.tgrid.
    """

    L: float
    q: object
    kernel: MemoryKernel
    T: float

    def __post_init__(self):
        dt = self.kernel.grid.dt
        for name, value in (("L", self.L), ("T", self.T)):
            steps = round(value / dt)
            if steps < 1 or abs(steps * dt - value) > 1e-9 * max(1.0, value):
                raise GridMismatchError(f"{name}={value} is not on the lattice of step {dt}")
        if self.tgrid.n > self.n_x:
            raise GridMismatchError(
                f"horizon T={self.T} exceeds L={self.L}: the representation is only "
                "valid before a reflection from the far end"
            )
        if self.kernel.grid.n < self.tgrid.n:
            raise GridMismatchError("kernel grid does not cover the horizon")
        x = np.arange(self.n_x + 1) * dt
        qv = np.asarray(self.q(x), dtype=float) if callable(self.q) else np.array(self.q, dtype=float)
        if qv.shape != x.shape:
            raise GridMismatchError(f"q needs {x.shape[0]} samples on [0,L], got {qv.shape}")
        object.__setattr__(self, "q", qv)

    @property
    def dt(self) -> float:
        return self.kernel.grid.dt

    @property
    def n_x(self) -> int:
        return round(self.L / self.dt)

    @property
    def tgrid(self) -> TimeGrid:
        return TimeGrid(self.dt, round(self.T / self.dt))


@dataclass(frozen=True)
class WaveField:
    """Solved field with its boundary response.

    w is the physical field, sampled on the space grid of the solver (x in
    [0,T] for the mild solver, [0,L] for the finite-difference oracle); y is
    the boundary derivative w_x(0,.).  The control stays with the caller, the
    traction sigma = -N*y with ``kernels.response_to_traction``, the
    transform constants with the kernel's resolvent, which the oracle never
    forms.
    """

    w: Sampled2D
    y: Sampled1D

    @property
    def xgrid(self) -> TimeGrid:
        return self.w.sgrid

    @property
    def tgrid(self) -> TimeGrid:
        return self.w.tgrid


def _check_control(p: StringProblem, f: Sampled1D):
    """The one check of a control: it lives on p.tgrid and starts at rest."""
    if not f.grid.same_as(p.tgrid):
        raise GridMismatchError(f"control must be sampled on [0,T] with step {p.dt}")
    scale = max(np.max(np.abs(f.values)), 1e-30)
    if abs(f.values[0]) > 1e-10 * scale:
        raise KernelValidationError(
            f"boundary control must start at rest, got f(0) = {f.values[0]}"
        )


def _memory_row(K: np.ndarray, W: np.ndarray, k: int, dt: float) -> np.ndarray:
    """Trapezoid of int_0^{t_k} K(t_k - s) W(x, s) ds for every x at once."""
    acc = 0.5 * K[k] * W[:, 0] + 0.5 * K[0] * W[:, k]
    acc += W[:, 1:k] @ K[k - 1:0:-1]  # an exact zero at k = 1
    return dt * acc


_BLOCK = 32  # levels whose memory history before the block is one matrix product


_OVERFLOW = "forward solution is not finite (the control or q overflows the solver)"


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in NumericalFailure
def _mild_march(p: StringProblem, f: Sampled1D, last: int) -> tuple[np.ndarray, np.ndarray]:
    """March the transformed field on the cells x_i + t_k <= t_last of the cone.

    Returns W, time-major (W[k, i] = W(x_i, t_k), zero off those cells) on
    the rows some level touches (all m+1 for the whole cone, about m/2 + 2
    for last = m), and the boundary trace y on [0, T]; y(t_n) reads the
    anti-diagonal x_i + t_k = t_n only, so any last >= m gives all of it.
    Raises NumericalFailure when y is not finite.  f must already be checked
    against p, as ``solve_mild`` checks it.

    dt^2 is folded into the weights, qa = dt^2 (q+alpha) and dK = dt^3 K, so
    a level's F row is the dt^2 F term of its W update.  It is formed in row
    j+1 of the block buffer Z, shifted by j = k-k0 (column n-k0 of Z is
    anti-diagonal t_n), from (q+alpha) W, the block's far-history row and
    one near product of the levels k0..k whose last weight is dK[0]/2; the W
    update, written in place into W[k+1], reads F[1:-1] only.  Row 0 of Z
    carries the anti-diagonal sums of the earlier blocks, so after the block
    the trapezoid ends F[0] are halved and one sum over the rows, which adds
    them in level order, gives the new sums.
    """
    dt, m = p.dt, p.tgrid.n
    dt2 = dt * dt
    res = resolvent(p.kernel)
    gamma = res.gamma
    dK = np.concatenate([(dt2 * dt) * res.K.values[: m + 1], np.zeros(_BLOCK)])  # zero past lag m
    has_memory = bool(np.any(dK))
    # row j of the window view is dK[j : j + _BLOCK]
    windows = sliding_window_view(dK, _BLOCK)
    # near weights by reversed lag, [dK[_BLOCK-1], ..., dK[1], dK[0]/2]: level k
    # of a block at k0 reads the last k-k0+1 of them against levels k0..k
    near = dK[_BLOCK - 1 :: -1].copy()
    near[-1] *= 0.5  # the l = k end of the trapezoid

    t = p.tgrid.nodes()
    qa = dt2 * (p.q[: m + 1] + res.alpha)

    # level k touches the rows i <= k+1 (its light cone and one beyond) with
    # x_i + t_k <= t_last
    level = np.arange(m + 1)
    rows = np.minimum(np.minimum(level + 2, m + 1), last + 1 - level).tolist()
    R = max(rows)

    W = np.zeros((m + 1, R))
    W[:, 0] = np.exp(-gamma * t) * f.values
    # Z is 1-D reshaped; Fb[j, i] = Z[j+1, j+i] is F of level k0+j at row i.
    # Cells a level leaves as an earlier block wrote them lie past anti-diagonal
    # t_last >= t_m (rows shrink only at the cut), so they need no clearing
    width = _BLOCK + R - 1
    Z = np.zeros((_BLOCK + 1) * width).reshape(_BLOCK + 1, width)
    Fb = as_strided(Z[1:], shape=(_BLOCK, R), strides=(Z.strides[0] + Z.itemsize, Z.itemsize))
    # dt^2 times the trapezoid sums of F along x_i + t_k = t_n; those past t_m are unread
    integral = np.zeros(m + 1 + width)
    # F(.,0) = (q+alpha) W(.,0) = 0 since f(0) = 0, so level 0 adds nothing
    for k0 in range(1, m + 1, _BLOCK):
        k1 = min(k0 + _BLOCK, m + 1)
        Z[0] = integral[k0 : k0 + width]
        if has_memory:
            # memory of levels l = 1..k0-1 for the whole block, Toeplitz(dK)[k0:k1, 1:k0];
            # level l lives on rows i < l, and the block reads rows i <= last - k0
            c = min(k0, last - k0 + 1)
            history = windows[k0 - 1 : 0 : -1, : k1 - k0].T @ W[1:k0, :c]
            history[:, 0] += 0.5 * dK[k0:k1] * W[0, 0]  # the l = 0 end
        for k in range(k0, k1):
            r = rows[k]
            Wk = W[k, :r]
            F = np.multiply(qa[:r], Wk, out=Fb[k - k0, :r])
            if has_memory:
                F[:c] += history[k - k0, :r]
                F += near[_BLOCK - 1 - (k - k0) :] @ W[k0 : k + 1, :r]
            if k < m:
                nxt = W[k + 1, 1 : r - 1]
                np.add(Wk[2:], Wk[:-2], out=nxt)
                nxt -= W[k - 1, 1 : r - 1]
                nxt += F[1:-1]
        Fb[:, 0] *= 0.5  # the trapezoid end of anti-diagonals t_k0 .. t_k1-1
        Z.sum(axis=0, out=integral[k0 : k0 + width])  # row by row, in level order

    fp = centered_difference(f.values, dt)
    y = gamma * f.values - fp + np.exp(gamma * t) * (integral[: m + 1] / dt)
    if not np.all(np.isfinite(y)):
        raise NumericalFailure(_OVERFLOW)
    return W, y


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in NumericalFailure below
def solve_mild(p: StringProblem, f: Sampled1D) -> WaveField:
    """March the characteristic integral equation of the transformed field.

    Returns the WaveField (field and boundary response), or raises
    NumericalFailure when either is not finite.  StringProblem has checked
    the horizon; the control must start at rest on p.tgrid.  The march's
    field is scaled in place, frozen and handed to the WaveField as its
    transposed view, uncopied.
    """
    _check_control(p, f)
    tgrid = p.tgrid
    W, y = _mild_march(p, f, 2 * tgrid.n)  # the whole cone: x_i <= t_k <= T
    W *= np.exp(resolvent(p.kernel).gamma * tgrid.nodes())[:, None]
    if not np.all(np.isfinite(W)):
        raise NumericalFailure(_OVERFLOW)
    W.flags.writeable = False  # W is private, so the field takes it uncopied
    # the field vanishes for x > t, so x in [0,T] suffices
    return WaveField(w=Sampled2D(tgrid, tgrid, W.T), y=Sampled1D(tgrid, y))


def fd_oracle(p: StringProblem, f: Sampled1D) -> WaveField:
    """Independent leapfrog solution of w_tt = Lw + int_0^t N'(t-s) Lw(s) ds
    on the full interval [0,L], Dirichlet at both ends, zero initial data.

    Runs at the characteristic step dx = dt (CFL number one, admissible since
    the propagation speed is N(0) = 1).  Trusts the horizon and the control
    as ``solve_mild`` does.
    """
    _check_control(p, f)
    dt, tgrid = p.dt, p.tgrid
    m = tgrid.n
    dx = dt  # equality is the validity edge of the CFL condition

    n_x = p.n_x
    q = p.q
    n1 = p.kernel.N1.values
    has_memory = bool(np.any(n1[: m + 1]))

    w = np.zeros((n_x + 1, m + 1))
    Lw = np.zeros((n_x + 1, m + 1))
    w[0, :] = f.values
    inv_dx2 = 1.0 / (dx * dx)
    for k in range(1, m):
        Lw[1:n_x, k] = (
            (w[2:, k] - 2.0 * w[1:n_x, k] + w[: n_x - 1, k]) * inv_dx2 + q[1:n_x] * w[1:n_x, k]
        )
        rhs = Lw[1:n_x, k].copy()
        if has_memory:
            rhs += _memory_row(n1, Lw[1:n_x, :], k, dt)
        w[1:n_x, k + 1] = 2.0 * w[1:n_x, k] - w[1:n_x, k - 1] + dt * dt * rhs
        w[0, k + 1] = f.values[k + 1]
        w[n_x, k + 1] = 0.0

    xg = TimeGrid(dt, n_x)
    y = Sampled1D(tgrid, centered_difference(w[:3].T, dx)[:, 0])
    return WaveField(w=Sampled2D(xg, tgrid, w), y=y)
