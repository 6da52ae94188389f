import numpy as np
import pytest

from viscostring import connecting
from viscostring.grid import TimeGrid
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


def _spy_march(monkeypatch):
    """Record every call of connecting._march (src, kmem, n_t, dt) and its result."""
    calls, real = [], connecting._march

    def spy(src, kmem, n_t, dt):
        W = real(src, kmem, n_t, dt)
        calls.append(((src, kmem, n_t, dt), W))
        return W

    monkeypatch.setattr(connecting, "_march", spy)
    return calls


def frob_rel(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
