"""Coefficient reconstruction from the connecting Gram.

For each horizon T the control steering the string to the target profile
xi(x) -- the solution of xi'' + q(x) xi = 0, xi(0) = 0, xi'(0) = 1 -- is
characterized by

    <C_T f, g> = int_0^T M(T-r) g(r) dr   for every test control g,
    M(t) = int_0^t N(r) dr,

so its basis coefficients solve the Gram system C c = b with the moment
vector b on the right.  The sign in the target equation pairs with the
operator w_xx + q w of the model: integrating H(T,T) by parts leaves a
volume term (xi'' + q xi) w^g that must vanish for every test control, and
boundary terms that reduce to the moment integral exactly when xi(0) = 0
and xi'(0) = 1.  With 2T <= L the string is exactly controllable, so C_T is
boundedly invertible and each horizon takes one plain solve, behind a guard
that rejects a Gram whose least eigenvalue is not clearly positive.

Reading the control's boundary value needs care: every basis element vanishes
at t = 0 while the steering control does not (its value f(0+) there, times the
wavefront factor exp(gamma T) of the transform, is the target trace xi(T)).
Raw coefficients near the boundary carry an alternating Galerkin edge ripple,
but the dual averages

    v_j = <f_h, e_j> / <1, e_j> = (M_mass c)_j / m_j

are ripple-free samples of the control at the element abscissae; M_mass, m_j
and the abscissae are basis arrays, sliced to the active prefix.  The
interpolating polynomial through the first few duals (Lagrange form) gives
f(0+) (exactly so for affine controls, which is the memoryless case).
Finally q(T) = -xi''(T)/xi(T) with xi'' from local quadratic fits over the
horizon lattice and the zero guard |xi| > 5 dt on the denominator
(continuity extension across guarded points; for positive q the target
genuinely oscillates and crosses zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, GridMismatchError, NumericalFailure
from .grid import Sampled1D, TimeGrid, trap_weights
from .kernels import MemoryKernel
from .connecting import ConnectingGram, ControlBasis, ResponseTable, gram_from_data

__all__ = [
    "IdentifyConfig",
    "SteeringControl",
    "ReconstructionResult",
    "steering_rhs",
    "steering_control",
    "reconstruct_q",
    "default_horizons",
    "pipeline",
]


@dataclass(frozen=True)
class IdentifyConfig:
    """The fixed readout of the reconstruction: readout_points leading dual
    samples are extrapolated to t = 0, and xi'' comes from local fits over
    2*smoothing_halfwidth + 1 horizon samples.  It has no settings."""

    readout_points: ClassVar[int] = 3
    smoothing_halfwidth: ClassVar[int] = 3


def steering_rhs(k: MemoryKernel, basis: ControlBasis, T: float) -> np.ndarray:
    """Moment vector b_j = int_0^T M(T-r) e_j(r) dr (trapezoid)."""
    dt = basis.grid.dt
    idx = basis.grid.index_of(T)
    if k.grid.n < idx:
        raise GridMismatchError("kernel grid does not cover the horizon")
    m_rev = k.M.values[idx::-1]
    w = trap_weights(idx + 1, dt)
    return basis.samples[:, : idx + 1] @ (w * m_rev)


@dataclass(frozen=True)
class SteeringControl:
    """Steering solve output at one horizon.

    The active set is the prefix 0..k-1 of the basis, k = len(duals); the
    dual abscissae are basis.dual_abscissae[:k].
    """

    coefficients: np.ndarray        # the k active basis coefficients
    duals: np.ndarray               # <f_h, e_j>/<1, e_j>, j < k
    control: Sampled1D              # stabilized readout on [0, T]
    xi: float
    residual: float
    diagnostics: dict = field(default_factory=dict)  # condition


def _extrapolate(times: np.ndarray, values: np.ndarray, t0: float) -> float:
    """Evaluate the interpolating polynomial through up to 3 points at t0 (Lagrange form)."""
    ts = times.tolist()
    total = 0.0
    for i, (ti, vi) in enumerate(zip(ts, values.tolist())):
        for j, tj in enumerate(ts):
            if j != i:
                vi *= (t0 - tj) / (ti - tj)
        total += vi
    return total


def _steer(gram: ConnectingGram, T: float, b: np.ndarray) -> tuple:
    """The guarded steering solve at the knot horizon T on the hats 0..k-1 that
    end by T: k counts knot_nodes[2:] at or below T's node, an integer rule.

    Returns (coefficients, duals, f0, xi, residual, condition): the active
    coefficients, their dual averages, f(0+) extrapolated from the leading
    duals, the target trace xi(T) = exp(gamma T) f(0+), the relative residual
    and the condition number of the active Gram.  A Gram whose least
    eigenvalue is not above 1e-8 times its norm (taken on C over its largest
    |entry|, whose squares cannot overflow) raises NumericalFailure.
    """
    basis = gram.basis
    k = int(basis.knot_nodes[2:].searchsorted(basis.grid.index_of(T), side="right"))
    if k == 0:
        raise GridMismatchError(f"horizon T={T} is below the first basis support")
    C = gram.at(T)[:k, :k]
    b_a = np.asarray(b, dtype=float)[:k]

    ev = np.linalg.eigvalsh(C)
    ev_min = float(ev[0])
    c_max = float(np.abs(C).max())
    c_norm = float(np.linalg.norm(C / c_max)) if c_max > 0 else 0.0  # at most k
    if ev_min <= 1e-8 * c_max * c_norm:
        raise NumericalFailure(
            f"Gram at T={T} is not positive definite beyond tolerance "
            f"(min eigenvalue {ev_min:.3e}, norm {c_max * c_norm:.3e})"
        )

    c_a = np.linalg.solve(C, b_a)
    nb = float(np.linalg.norm(b_a))
    residual = float(np.linalg.norm(C @ c_a - b_a)) / nb if nb > 0 else 0.0

    duals = (basis.mass_matrix[:k, :k] @ c_a) / basis.element_masses[:k]
    pts = min(IdentifyConfig.readout_points, k)
    f0 = _extrapolate(basis.dual_abscissae[:pts], duals[:pts], 0.0)
    # target trace: the wavefront of the transformed field carries f(0+),
    # the physical one exp(gamma T) f(0+)
    xi = float(np.exp(gram.gamma * T)) * f0
    # C is symmetric positive definite: its singular values are its eigenvalues
    return c_a, duals, f0, xi, residual, float(ev[-1]) / ev_min


def steering_control(
    gram: ConnectingGram,
    T: float,
    b: np.ndarray,
    cfg: IdentifyConfig | None = None,
) -> SteeringControl:
    """Solve the steering system at the knot horizon T and assemble the control.

    The returned Sampled1D is the stabilized readout: the piecewise-linear
    interpolant of the dual averages, its endpoint values f(0+) and f(T-)
    extrapolated from the nearest duals (the zero-at-ends basis cannot
    represent them).  The readout depth is the constant
    IdentifyConfig.readout_points, so cfg changes nothing.  A Gram whose least
    eigenvalue is not above 1e-8 times its norm raises NumericalFailure.
    """
    c_a, duals, f0, xi, residual, condition = _steer(gram, T, b)
    basis = gram.basis
    tbars = basis.dual_abscissae[: len(duals)]

    # stabilized control: pw-linear through (0, f0), (tbar_j, v_j), (T, tail)
    pts = min(IdentifyConfig.readout_points, len(duals))
    tail = _extrapolate(tbars[-pts:], duals[-pts:], T)
    tgrid = TimeGrid(basis.grid.dt, basis.grid.index_of(T))
    knots_t = np.concatenate(([0.0], tbars, [T]))
    knots_v = np.concatenate(([f0], duals, [tail]))
    samples = np.interp(tgrid.nodes(), knots_t, knots_v)
    return SteeringControl(
        coefficients=c_a,
        duals=duals,
        control=Sampled1D(tgrid, samples),
        xi=xi,
        residual=residual,
        diagnostics={"condition": condition},
    )


def reconstruct_q(
    horizons: np.ndarray,
    xi: np.ndarray,
    cfg: IdentifyConfig,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """q(T) = -xi''(T)/xi(T) with xi'' from local least-squares fits
    (the target trace solves xi'' + q xi = 0).

    Windows are 2*halfwidth+1 samples; interior windows are centered and
    fitted with a quadratic.  The cubic error term would cancel by symmetry
    only on equally spaced horizons; on the knot lattice of ``hat_basis``,
    whose knots are rounded to grid nodes (spacings of 7 and 8 steps at
    n_basis = 32, m = 256), a centered window is not symmetric in T and that
    term is left in xi''.  At the ends the window shifts one-sided, where a
    quadratic would estimate xi'' at the window center instead of the
    evaluation point, so shifted windows use a cubic.

    The fits are Savitzky-Golay filters (Anal. Chem. 36 (1964) 1627-1639):
    their weights depend on the horizons only.  Each degree takes one batched
    QR factorization V = Q R of its windows' Vandermonde matrices, columns
    scaled to unit norm as ``np.polyfit`` scales them; the weights are
    R^-1 Q^T, and one batched product applies them to xi minus its value at
    the evaluation point.  Householder QR is as stable for least squares as
    the SVD behind a pseudo-inverse (Bjorck, Numerical Methods for Least
    Squares Problems, SIAM 1996), and needs a smaller LAPACK driver; the
    normal equations square the window's condition and lose digits against
    exact least squares.  The fits reproduce constants, so that shift changes
    only round-off, and lowers it: on smooth targets q lies closer to exact
    least squares than per-window ``np.polyfit`` does.

    Where |xi| falls under the zero guard 5*dt, q is linearly interpolated across
    from the nearest guarded-clear neighbors (continuity extension).  A
    non-finite horizon or xi raises NumericalFailure naming the first one.
    Returns (q, guard_flags).
    """
    h = np.asarray(horizons, dtype=float)
    v = np.asarray(xi, dtype=float)
    w = cfg.smoothing_halfwidth
    n = len(h)
    if n < 2 * w + 1:
        raise GridMismatchError(
            f"need at least {2 * w + 1} horizon samples for halfwidth {w}, got {n}"
        )
    bad = np.flatnonzero(~(np.isfinite(h) & np.isfinite(v)))
    if bad.size:
        i = bad[0]
        raise NumericalFailure(
            f"non-finite input to the q readout at sample {i}: T = {h[i]}, xi = {v[i]}"
        )
    eps = 5.0 * dt
    lo = np.clip(np.arange(n) - w, 0, n - (2 * w + 1))
    window = lo[:, None] + np.arange(2 * w + 1)
    centered = lo == np.arange(n) - w
    xi_c, xi_dd = np.empty(n), np.empty(n)
    for rows, degree in ((centered, 2), (~centered, 3)):
        # Vandermonde of each window about its evaluation point, increasing powers
        V = (h[window[rows]] - h[rows, None])[:, :, None] ** np.arange(degree + 1)
        scale = np.sqrt(np.einsum("kjp,kjp->kp", V, V))
        Q, R = np.linalg.qr(V / scale[:, None, :])
        weights = np.linalg.solve(R, Q.transpose(0, 2, 1)) / scale[:, :, None]
        coef = np.einsum("kpj,kj->kp", weights[:, [0, 2]], v[window[rows]] - v[rows, None])
        xi_c[rows], xi_dd[rows] = v[rows] + coef[:, 0], 2.0 * coef[:, 1]
    clear = np.abs(xi_c) > eps
    if not np.any(clear):
        raise NumericalFailure("target identically degenerate: |xi| under guard everywhere")
    q = np.empty(n)
    q[clear] = -xi_dd[clear] / xi_c[clear]
    q[~clear] = np.interp(h[~clear], h[clear], q[clear])
    return q, ~clear


def default_horizons(basis: ControlBasis, min_active: int = 3) -> np.ndarray:
    """Horizon lattice synchronized with basis activation: the knot times at
    which at least min_active elements are fully supported.  Keeping horizons
    on this lattice makes the active set change exactly at (not between)
    sample points, and min_active matching the readout depth keeps the
    extrapolation mode identical across horizons -- both matter because
    xi(T) is differentiated twice afterwards."""
    return basis.knots[min_active + 1 :].copy()


@dataclass(frozen=True)
class ReconstructionResult:
    """Per horizon: the target trace, the reconstructed coefficient, the zero
    guard flag and the steering solve's relative residual and condition."""

    horizons: np.ndarray
    xi: np.ndarray
    q_hat: np.ndarray
    guarded: np.ndarray
    residual: np.ndarray
    condition: np.ndarray


def pipeline(tab: ResponseTable) -> ReconstructionResult:
    """Full data-driven reconstruction on the knot lattice: one Gram build
    serves every horizon.  It reads the bundle's table only."""
    cfg = IdentifyConfig()
    basis = tab.basis
    horizons = default_horizons(basis, min_active=cfg.readout_points)
    window = 2 * cfg.smoothing_halfwidth + 1
    if len(horizons) < window:
        raise ConfigError(
            f"identify reads q on the knot lattice and needs n_basis >= "
            f"{window + cfg.readout_points - 1}, got n_basis = {basis.n}"
        )
    gram = gram_from_data(tab)

    xi, residual, condition = np.empty((3, len(horizons)))
    for i, T in enumerate(horizons):
        b = steering_rhs(tab.kernel, basis, float(T))
        *_, xi[i], residual[i], condition[i] = _steer(gram, float(T), b)
    q, guarded = reconstruct_q(horizons, xi, cfg, basis.grid.dt)
    return ReconstructionResult(horizons, xi, q, guarded, residual, condition)
