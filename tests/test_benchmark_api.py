"""The library surface the benchmark harness reads, exercised at a tiny size.

perfbench/bench.py calls the layers one by one (gram.at, gram.asymmetry,
sc.xi, sc.residual, sc.diagnostics, ...).  A rename there would make every
benchmark operation fail; this test makes it fail here first.
"""

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bench  # noqa: E402
from spans import NullTracer  # noqa: E402

from viscostring import load_bundle, pipeline  # noqa: E402


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

    assert bench.roundtrip(bundle, str(tmp_path / "resaved")) == ([], [])
