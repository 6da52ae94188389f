import numpy as np
import pytest

from viscostring import connecting
from viscostring.grid import Sampled2D, TimeGrid
from viscostring.kernels import build_kernel


def bump(t, a, b):
    """Smooth sin^2 bump supported on (a, b); vanishes with its derivative."""
    out = np.zeros_like(t)
    mask = (t > a) & (t < b)
    out[mask] = np.sin(np.pi * (t[mask] - a) / (b - a)) ** 2
    return out


def general_kernel(grid: TimeGrid):
    """C^3 kernel with a genuinely nonzero R'' (not in the exponential family):
    N(t) = (1 + exp(-2t))/2."""
    t = grid.nodes()
    e = np.exp(-2.0 * t)
    return build_kernel(
        grid,
        "tabulated",
        samples={"N": 0.5 * (1.0 + e), "N1": -e, "N2": 2.0 * e, "N3": -4.0 * e},
    )


def _spy_green(monkeypatch):
    """Record every call of connecting._green (kmem, m, dt) and its result."""
    calls, real = [], connecting._green

    def spy(kmem, m, dt):
        G = real(kmem, m, dt)
        calls.append(((kmem, m, dt), G))
        return G

    monkeypatch.setattr(connecting, "_green", spy)
    return calls


def _row_term(prefix: np.ndarray, row: np.ndarray, a: int, b: int, dt: float) -> float:
    """Trapezoid of one row between node indices a <= b using its prefix sum."""
    if b <= a:
        return 0.0
    base = prefix[b] - (prefix[a - 1] if a > 0 else 0.0)
    return dt * (base - 0.5 * row[a] - 0.5 * row[b])


def triangle_quadrature(F: Sampled2D, s_idx: int, t_idx: int) -> float:
    """The half integral (1/2) int_{D(s,t)} F over the backward characteristic
    triangle D(s,t) = {(xi,tau): 0<tau<t, |s-t+tau|<xi<s+t-tau} at the apex
    (s_idx, t_idx), as an iterated composite trapezoid evaluated directly.

    The row at tau = t has zero width, so only rows 0..t_idx-1 contribute.
    When K == 0 the two-variable wave identity of ``connecting`` is solved
    by this quadrature of its source; the tests use it as the reference."""
    vals = F.values
    dt = F.tgrid.dt
    total = 0.0
    for j in range(t_idx):
        a = abs(s_idx - t_idx + j)
        b = s_idx + t_idx - j
        row = vals[:, j]
        prefix = np.cumsum(row[: b + 1])
        w = 0.5 * dt if j == 0 else dt
        total += w * _row_term(prefix, row, a, b, dt)
    return 0.5 * total


def frob_rel(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
