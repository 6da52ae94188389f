"""Smoke test of the benchmark harness at a tiny size (seconds, not minutes).

    python3 -m pytest -q perfbench

Runs all three workloads untraced and traced on tiny instances, and checks
that each run reports exactly the metrics BENCHMARK.json declares, that no
operation fails and that the span file is written.  The tiny grids are too
coarse for the accuracy limits of the real instances, so those are opened.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
from spans import Tracer  # noqa: E402

LOOSE = {"q_rel_max": 1.0, "gram_gap_max": 1.0, "forward_gap_max": 1.0}
TINY_EXP = bench.Instance("exp", n_basis=10, steps=32, **LOOSE)
TINY_GENERAL = bench.Instance("general", n_basis=10, steps=32, **LOOSE)
TINY_GENERAL_SYNTH = bench.Instance("general", n_basis=12, steps=48, **LOOSE)
TINY = {
    "exp-identify": bench.Workload(synth=TINY_EXP, ident=TINY_EXP),
    "general-identify": bench.Workload(synth=TINY_GENERAL, ident=TINY_GENERAL),
    "general-synthesize": bench.Workload(synth=TINY_GENERAL_SYNTH, ident=TINY_GENERAL),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_declared_metric(name, trace, tmp_path, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv, time.perf_counter(), workloads=TINY, setup_children=0, root=str(tmp_path)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    stem = tmp_path / ".perfbench_out" / f"{name}-seed3-trace{trace}"
    record = json.loads((stem.parent / (stem.name + ".json")).read_text())
    assert record["environment"]["nproc"] >= 1 and record["instances"]["ident"]["n_basis"] == 10
    assert not (tmp_path / ".perfbench_work" / str(os.getpid())).exists()
    if trace:
        spans = json.loads((stem.parent / (stem.name + "-spans.json")).read_text())
        assert {"timing", "memory"} == set(spans)
        roots = {s["id"]: s["name"] for s in spans["timing"] if s["parent"] is None}
        grams = [s for s in spans["timing"] if s["name"] == "connecting.gram_from_data"]
        assert grams and all(roots[s["op"]] == "identify" for s in grams)
        assert all("peak_bytes" in s for s in spans["memory"])


def test_same_seed_repeats_accuracy_exactly(tmp_path, capsys):
    argv = ["--workload", "general-identify", "--seed", "5", "--seconds", "0", "--trace", "0"]
    values = []
    for _ in range(2):
        bench.main(argv, time.perf_counter(), workloads=TINY, setup_children=0, root=str(tmp_path))
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
        values.append([metrics[k]["value"] for k in ("q_rel_l2", "gram_gap", "forward_gap")])
    assert values[0] == values[1]


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exp-identify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_excludes_children_and_peaks_nest():
    tracer = Tracer(memory=True)
    try:
        with tracer.span("op"):
            with tracer.span("child"):
                block = bytearray(4_000_000)
                time.sleep(0.02)
                del block
            time.sleep(0.01)
    finally:
        tracer.close()
    op, child = tracer.spans
    selfs = tracer.self_times()
    assert child["parent"] == op["id"] and child["op"] == op["id"]
    assert selfs[op["id"]] == pytest.approx(op["end"] - op["start"] - (child["end"] - child["start"]))
    assert child["peak_bytes"] >= 4_000_000 and op["peak_bytes"] >= child["peak_bytes"]
