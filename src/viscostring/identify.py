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
horizon lattice and a zero guard on the denominator (continuity extension
across guarded points; for positive q the target genuinely oscillates and
crosses zero).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, NumericalFailure
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
    """Settings of the reconstruction.

    xi_zero_guard: |xi| threshold below which q = xi''/xi is not evaluated
        but interpolated from neighbors; None = 5*dt.

    The readout is fixed: readout_points leading dual samples are
    extrapolated to t = 0, and xi'' comes from local fits over
    2*smoothing_halfwidth + 1 horizon samples.
    """

    readout_points: ClassVar[int] = 3
    smoothing_halfwidth: ClassVar[int] = 3

    xi_zero_guard: float | None = None

    def __post_init__(self):
        guard = self.xi_zero_guard
        real = isinstance(guard, numbers.Real) and not isinstance(guard, bool)
        if guard is not None and not (real and 0 < guard < np.inf):
            raise ConfigError("xi_zero_guard must be positive and finite")


def steering_rhs(k: MemoryKernel, basis: ControlBasis, T: float) -> np.ndarray:
    """Moment vector b_j = int_0^T M(T-r) e_j(r) dr (trapezoid)."""
    dt = basis.grid.dt
    idx = basis.grid.index_of(T)
    if k.grid.n < idx:
        raise ConfigError("kernel grid does not cover the horizon")
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
    represent them).  cfg supplies only the readout depth.  A Gram whose least
    eigenvalue is not above 1e-8 times its norm raises NumericalFailure.
    """
    cfg = cfg or IdentifyConfig()
    basis = gram.basis
    idx = basis.grid.index_of(T)
    k = len(basis.active(T))  # the active set is the prefix 0..k-1
    if k == 0:
        raise ConfigError(f"horizon T={T} is below the first basis support")
    C = gram.at(T)[:k, :k]
    b_a = np.asarray(b, dtype=float)[:k]

    ev = np.linalg.eigvalsh(C)
    ev_min = float(ev[0])
    c_norm = float(np.linalg.norm(C))
    if ev_min <= 1e-8 * c_norm:
        raise NumericalFailure(
            f"Gram at T={T} is not positive definite beyond tolerance "
            f"(min eigenvalue {ev_min:.3e}, norm {c_norm:.3e})"
        )

    c_a = np.linalg.solve(C, b_a)
    nb = float(np.linalg.norm(b_a))
    residual = float(np.linalg.norm(C @ c_a - b_a)) / nb if nb > 0 else 0.0

    duals = (basis.mass_matrix[:k, :k] @ c_a) / basis.element_masses[:k]
    tbars = basis.dual_abscissae[:k]

    pts = min(cfg.readout_points, k)
    f0 = _extrapolate(tbars[:pts], duals[:pts], 0.0)
    # target trace: the wavefront of the transformed field carries f(0+),
    # the physical one exp(gamma T) f(0+)
    xi = float(np.exp(gram.gamma * T)) * f0

    # stabilized control: pw-linear through (0, f0), (tbar_j, v_j), (T, tail)
    tail = _extrapolate(tbars[-pts:], duals[-pts:], T)
    tgrid = TimeGrid(basis.grid.dt, idx)
    knots_t = np.concatenate(([0.0], tbars, [T]))
    knots_v = np.concatenate(([f0], duals, [tail]))
    samples = np.interp(tgrid.nodes(), knots_t, knots_v)

    # C is symmetric positive definite: its singular values are its eigenvalues
    diag = {"condition": float(ev[-1]) / ev_min}
    return SteeringControl(
        coefficients=c_a,
        duals=duals,
        control=Sampled1D(tgrid, samples),
        xi=xi,
        residual=residual,
        diagnostics=diag,
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
    evaluation point, so shifted windows use a cubic.  Where |xi| falls under
    the zero guard, q is linearly interpolated across from the nearest
    guarded-clear neighbors (continuity extension).  Returns (q, guard_flags).
    """
    h = np.asarray(horizons, dtype=float)
    v = np.asarray(xi, dtype=float)
    w = cfg.smoothing_halfwidth
    n = len(h)
    if n < 2 * w + 1:
        raise ConfigError(
            f"need at least {2 * w + 1} horizon samples for halfwidth {w}, got {n}"
        )
    eps = cfg.xi_zero_guard if cfg.xi_zero_guard is not None else 5.0 * dt
    q = np.empty(n)
    guarded = np.zeros(n, dtype=bool)
    for i in range(n):
        lo = min(max(0, i - w), n - (2 * w + 1))
        window = slice(lo, lo + 2 * w + 1)
        degree = 2 if lo == i - w else 3
        coef = np.polyfit(h[window] - h[i], v[window], degree)
        xi_dd = 2.0 * coef[degree - 2]
        xi_c = coef[-1]
        if abs(xi_c) > eps:
            q[i] = -xi_dd / xi_c
        else:
            q[i] = np.nan
            guarded[i] = True
    if np.all(guarded):
        raise NumericalFailure("target identically degenerate: |xi| under guard everywhere")
    if np.any(guarded):
        ok = ~guarded
        q[guarded] = np.interp(h[guarded], h[ok], q[ok])
    return q, guarded


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
    """Per-horizon target trace, reconstructed coefficient and diagnostics."""

    horizons: np.ndarray
    xi: np.ndarray
    q_hat: np.ndarray
    guarded: np.ndarray
    diagnostics: list

    def rows(self):
        """(T, xi, q_hat, residual, guard_flag) per horizon."""
        for i, T in enumerate(self.horizons):
            d = self.diagnostics[i]
            yield (
                float(T),
                float(self.xi[i]),
                float(self.q_hat[i]),
                d["residual"],
                int(self.guarded[i]),
            )


def pipeline(tab: ResponseTable, cfg: IdentifyConfig | None = None) -> ReconstructionResult:
    """Full data-driven reconstruction on the knot lattice: one Gram build
    serves every horizon."""
    cfg = cfg or IdentifyConfig()
    basis = tab.basis
    horizons = default_horizons(basis, min_active=cfg.readout_points)
    window = 2 * cfg.smoothing_halfwidth + 1
    if len(horizons) < window:
        raise ConfigError(
            f"identify reads q on the knot lattice and needs n_basis >= "
            f"{window + cfg.readout_points - 1}, got n_basis = {basis.n}"
        )
    gram = gram_from_data(tab)

    xi = np.empty(len(horizons))
    diags = []
    for i, T in enumerate(horizons):
        b = steering_rhs(tab.kernel, basis, float(T))
        sc = steering_control(gram, float(T), b, cfg)
        xi[i] = sc.xi
        diags.append({"residual": sc.residual, **sc.diagnostics})
    q, guarded = reconstruct_q(horizons, xi, cfg, basis.grid.dt)
    return ReconstructionResult(
        horizons=horizons,
        xi=xi,
        q_hat=q,
        guarded=guarded,
        diagnostics=diags,
    )
