"""The library surface the benchmark harness reads, exercised at a tiny size.

perfbench/bench.py calls the layers one by one (gram.at on the knot
horizons, gram.asymmetry, sc.xi, sc.residual, sc.diagnostics, ...).  A
rename there, or a Gram lattice that misses one of its horizons, would make
every benchmark operation fail; this test makes it fail here first.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bench  # noqa: E402
from spans import NullTracer  # noqa: E402

from conftest import _spy_green  # noqa: E402
from viscostring import IdentifyConfig, default_horizons, load_bundle, pipeline  # noqa: E402
from viscostring.connecting import gram_from_data, hat_basis, synthesize_table  # noqa: E402
from viscostring.kernels import resolvent  # noqa: E402


def test_benchmark_operations_on_a_tiny_instance(tmp_path):
    inst = bench.Instance("general", n_basis=10, steps=32)
    bundle = str(tmp_path / "bundle")
    table = bench.synthesize_op(inst, 3, bundle, NullTracer())
    assert np.all(np.isfinite(table.Y))

    q_hat, gram, controls = bench.identify_traced(bundle, NullTracer())
    assert np.array_equal(q_hat, pipeline(load_bundle(bundle)[0]).q_hat)

    health = bench.identify_health(gram, controls, inst.T_max)
    assert health["identify.horizons"] == len(controls) > 0
    assert all(np.isfinite(v) for v in health.values())

    # the Gram reads of the harness land on the knot lattice: T_max, every
    # identify horizon, and the asymmetry over all knots
    basis = gram.basis
    assert np.array_equal(gram.at(inst.T_max), gram.C[-1])
    horizons = default_horizons(basis, min_active=IdentifyConfig.readout_points)
    assert len(horizons) == len(controls)
    for T in horizons:
        j = int(np.flatnonzero(basis.knots == T)[0])
        assert np.array_equal(gram.at(float(T)), gram.C[j])
    assert gram.asymmetry.shape == (basis.n + 2,)
    assert health["connecting.asymmetry_max"] == float(np.max(gram.asymmetry))
    assert np.isfinite(bench.gram_gap(inst, load_bundle(bundle)[0]))

    assert bench.roundtrip(bundle, str(tmp_path / "resaved")) == ([], [])


@pytest.mark.parametrize("inst, marches", [(bench.EXP_A7, 0), (bench.GENERAL_HALF, 1)])
def test_benchmark_workloads_sit_on_both_sides_of_the_memory_branch(monkeypatch, inst, marches):
    # exp-identify must keep the K == 0 closed-form Gram and general-identify
    # the genuine-memory march; a workload that silently crossed the branch
    # would show only as a different timing
    tiny = dataclasses.replace(inst, n_basis=4, steps=16)
    kernel = tiny.build_kernel(tiny.doubled_grid())
    assert bool(np.any(resolvent(kernel).K.values)) == (marches > 0)
    table = synthesize_table(hat_basis(tiny.grid(), tiny.n_basis), kernel, tiny.q(), tiny.L)
    calls = _spy_green(monkeypatch)
    gram_from_data(table)
    assert len(calls) == marches
