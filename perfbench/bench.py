"""Layered benchmark of viscostring: synthesize, forward and identify.

One invocation runs one workload in one process with one compute thread.
A run interleaves the three user-facing operations until ``--seconds`` have
passed:

  synthesize  config -> bundle on disk: build_kernel, synthesize_table,
              save_bundle (the compute and I/O of ``viscostring synthesize``)
  forward     one full-field solve_mild with the sin2 control on [0, T_max]
              (``viscostring forward``)
  identify    bundle on disk -> q_hat: load_bundle + pipeline with the default
              IdentifyConfig (``viscostring identify`` without argparse/CSV)

Each operation has a share of the run's time, and the next operation is
always the one furthest below its share (see Run.loop).  Short operations
therefore run between the long ones all through the run, so their times
sample the shared host at many moments rather than in a few bursts.  An
operation's end-to-end time is its mean over the run: the host's speed
drifts, and a per-run median of a two-mode spread jumps between the modes.

Synthesize and forward run on the workload's ``synth`` instance; identify
reads the fixture bundle of its ``ident`` instance, written during set-up.
Every operation's output is checked (finite, bit-identical on repeat, bundle
round trip); failed checks count as failed operations.  The accuracy metrics
(q error, Gram gap, forward gap) are computed outside the timed region and
depend only on the seed, which changes only the response noise.

With ``--trace 1`` every operation also runs traced, on half of its share.
A traced operation calls the layers one by one and records a span around
each call (see spans.py); its identify decomposition must reproduce
pipeline's q_hat bit for bit.  End-to-end numbers always come from untraced operations.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from viscostring import (
    IdentifyConfig,
    Sampled1D,
    StringProblem,
    TimeGrid,
    build_kernel,
    default_horizons,
    fd_oracle,
    gram_from_data,
    gram_oracle,
    hat_basis,
    load_bundle,
    pipeline,
    reconstruct_q,
    resolvent,
    save_bundle,
    solve_mild,
    steering_control,
    steering_rhs,
    synthesize_table,
)
from viscostring.dataio import parse_q_spec

import spans
from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

Q_SPEC = "const:1 + sin:0.25,1"
# 1e-5 moves q_rel_l2 only in its 4th digit, so the seed barely moves accuracy
NOISE_SIGMA = 1e-5
Q_WINDOW = (0.1, 0.9)  # share of T_max over which q_rel_l2 is taken
BUNDLE_CSVS = ("kernel.csv", "basis.csv", "response.csv", "q_true.csv")
# load_bundle does not carry these manifest keys into the table, so a re-save
# writes the defaults; counted as dataio.roundtrip_lost_keys, not hidden
PROVENANCE_KEYS = ("noise_sigma", "seed")

END_TO_END = {
    "identify_s": "s",
    "synthesize_s": "s",
    "forward_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "q_rel_l2": "1",
    "gram_gap": "1",
    "forward_gap": "1",
}

# per-layer metric -> (operation, spans summed within one operation)
LAYER_SPANS = {
    "dataio.load_bundle_s": ("identify", ("dataio.load_bundle",)),
    "dataio.save_bundle_s": ("synthesize", ("dataio.save_bundle",)),
    "kernels.build_kernel_s": ("synthesize", ("kernels.build_kernel",)),
    "kernels.resolvent_s": ("identify", ("kernels.resolvent",)),
    "forward.synthesize_table_s": ("synthesize", ("forward.synthesize_table",)),
    "forward.solve_mild_s": ("forward", ("forward.solve_mild",)),
    "connecting.gram_from_data_s": ("identify", ("connecting.gram_from_data",)),
    "identify.steering_s": ("identify", ("identify.steering_rhs", "identify.steering_control")),
    "identify.reconstruct_q_s": ("identify", ("identify.reconstruct_q",)),
}
LAYER_PEAKS = {
    "forward.synthesize_table_peak_mb": "forward.synthesize_table",
    "connecting.gram_from_data_peak_mb": "connecting.gram_from_data",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "MB" for name in LAYER_PEAKS},
    "dataio.bundle_bytes": "B",
    "dataio.roundtrip_lost_keys": "count",
    "connecting.asymmetry_max": "1",
    "connecting.psd_margin_min": "1",
    "identify.horizons": "count",
    "identify.lambda_warnings": "count",
    "identify.condition_max": "1",
    "identify.residual_max": "1",
    "trace.overhead_s": "s",
}

# which end-to-end metric each layer metric should move (written to every record)
LAYER_MOVES = {
    "dataio.load_bundle_s": "identify_s",
    "dataio.save_bundle_s": "synthesize_s",
    "dataio.bundle_bytes": "synthesize_s",
    "dataio.roundtrip_lost_keys": "none (bundle fidelity)",
    "kernels.build_kernel_s": "setup_s, synthesize_s",
    "kernels.resolvent_s": "setup_s, identify_s",
    "forward.synthesize_table_s": "synthesize_s; setup_s on the identify workloads",
    "forward.synthesize_table_peak_mb": "peak_rss_mb",
    "forward.solve_mild_s": "forward_s",
    "connecting.gram_from_data_s": "identify_s",
    "connecting.gram_from_data_peak_mb": "peak_rss_mb",
    "connecting.asymmetry_max": "gram_gap",
    "connecting.psd_margin_min": "gram_gap",
    "identify.steering_s": "identify_s",
    "identify.reconstruct_q_s": "identify_s",
    "identify.horizons": "q_rel_l2",
    "identify.lambda_warnings": "q_rel_l2",
    "identify.condition_max": "q_rel_l2",
    "identify.residual_max": "q_rel_l2",
    "trace.overhead_s": "none (traced minus untraced identify_s)",
}

@dataclass(frozen=True)
class Instance:
    """One problem instance: L = 2, T_max = 1, q = Q_SPEC, seeded noise.

    kernel: "exp" (N = e^{-t}, R'' = 0) or "general" (N = (1 + e^{-2t})/2,
    R'' != 0, built from its closed form).  The *_max fields are sanity
    limits on the accuracy outputs; they catch a broken pipeline, not drift.
    """

    kernel: str
    n_basis: int
    steps: int  # time steps on [0, T_max]
    L: float = 2.0
    T_max: float = 1.0
    q_rel_max: float = 0.15
    gram_gap_max: float = 5e-2
    forward_gap_max: float = 1e-2

    @property
    def dt(self) -> float:
        return self.T_max / self.steps

    def grid(self) -> TimeGrid:
        return TimeGrid(self.dt, self.steps)

    def doubled_grid(self) -> TimeGrid:
        return TimeGrid(self.dt, 2 * self.steps)

    def build_kernel(self, grid: TimeGrid):
        if self.kernel == "exp":
            return build_kernel(grid, "exp", rate=1.0)
        e = np.exp(-2.0 * grid.nodes())
        return build_kernel(
            grid, "tabulated", samples={"N": 0.5 * (1.0 + e), "N1": -e, "N2": 2.0 * e, "N3": -4.0 * e}
        )

    def q(self) -> np.ndarray:
        """q sampled on the x-nodes of [0, L]."""
        return parse_q_spec(Q_SPEC, np.arange(round(self.L / self.dt) + 1) * self.dt, self.L)

    def describe(self) -> dict:
        return {**asdict(self), "dt": self.dt, "q": Q_SPEC, "noise_sigma": NOISE_SIGMA}


@dataclass(frozen=True)
class Workload:
    synth: Instance  # synthesize and forward run here
    ident: Instance  # identify reads this instance's fixture bundle
    # (operation, share of the timed loop); on ties the earlier one runs first
    shares: tuple = (("forward", 0.2), ("synthesize", 0.3), ("identify", 0.5))


EXP_A7 = Instance("exp", n_basis=32, steps=256)
GENERAL_A7 = Instance("general", n_basis=32, steps=256)
GENERAL_HALF = Instance("general", n_basis=16, steps=128)

WORKLOADS = {
    # Gram on the R'' = 0 single-quadrature path, 1024 pair solves: the layer
    # a prefix-sum Gram formula replaces
    "exp-identify": Workload(synth=EXP_A7, ident=EXP_A7),
    # genuine-memory march (R'' != 0) at half resolution, same 8 steps per
    # hat spacing; A7-size general identify (~41 s/op) is deferred
    "general-identify": Workload(
        synth=GENERAL_HALF,
        ident=GENERAL_HALF,
        shares=(("forward", 0.1), ("synthesize", 0.25), ("identify", 0.65)),
    ),
    # forward layer and bundle writes at A7 size; its identify reads the
    # general-identify instance, since every workload reports every metric
    "general-synthesize": Workload(
        synth=GENERAL_A7,
        ident=GENERAL_HALF,
        shares=(("forward", 0.2), ("synthesize", 0.5), ("identify", 0.3)),
    ),
}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def synthesize_op(inst: Instance, seed: int, directory: str, tracer):
    """config -> bundle on disk; returns the in-memory response table."""
    with tracer.span("synthesize"):
        with tracer.span("kernels.build_kernel"):
            kernel = inst.build_kernel(inst.doubled_grid())
        if tracer.enabled:
            # synthesize_table computes the resolvent again internally
            with tracer.span("kernels.resolvent"):
                resolvent(kernel)
        basis = hat_basis(inst.grid(), inst.n_basis)
        q = inst.q()
        with tracer.span("forward.synthesize_table"):
            table = synthesize_table(
                basis, kernel, q, inst.L, noise_sigma=NOISE_SIGMA, seed=seed, meta={"seed": seed}
            )
        with tracer.span("dataio.save_bundle"):
            save_bundle(directory, table, q_true=q, L=inst.L, q_spec=Q_SPEC)
    return table


def forward_op(problem: StringProblem, control: Sampled1D, tracer):
    with tracer.span("forward"):
        with tracer.span("forward.solve_mild"):
            return solve_mild(problem, control)


def identify_op(directory: str) -> np.ndarray:
    table, _, _ = load_bundle(directory)
    return pipeline(table).q_hat


def identify_traced(directory: str, tracer):
    """pipeline's steps in pipeline's order, one span per layer call."""
    cfg = IdentifyConfig()
    with tracer.span("identify"):
        with tracer.span("dataio.load_bundle"):
            table, _, _ = load_bundle(directory)
        with tracer.span("kernels.resolvent"):
            resolvent(table.kernel)  # gram_from_data computes it again internally
        with tracer.span("connecting.gram_from_data"):
            gram = gram_from_data(table)
        basis = table.basis
        horizons = default_horizons(basis, min_active=cfg.readout_points)
        xi = np.empty(len(horizons))
        controls = []
        for i, T in enumerate(horizons):
            with tracer.span("identify.steering_rhs"):
                b = steering_rhs(table.kernel, basis, float(T))
            with tracer.span("identify.steering_control"):
                sc = steering_control(gram, float(T), b, cfg)
            xi[i] = sc.xi
            controls.append(sc)
        with tracer.span("identify.reconstruct_q"):
            q_hat, _ = reconstruct_q(np.asarray(horizons, float), xi, cfg, basis.grid.dt)
    return q_hat, gram, controls


# ---------------------------------------------------------------------------
# Checks and accuracy
# ---------------------------------------------------------------------------


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _manifest(directory: str) -> dict:
    with open(os.path.join(directory, "manifest.txt")) as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines() if line)


def roundtrip(directory: str, copy: str) -> tuple[list, list]:
    """save -> load -> save; returns (files that differ, provenance keys lost)."""
    table, q_true, manifest = load_bundle(directory)
    save_bundle(copy, table, q_true=q_true, L=float(manifest["L"]), q_spec=manifest.get("q_spec"))
    bad = [n for n in BUNDLE_CSVS if not filecmp.cmp(os.path.join(directory, n), os.path.join(copy, n), shallow=False)]
    a, b = _manifest(directory), _manifest(copy)
    changed = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    lost = [k for k in changed if k in PROVENANCE_KEYS]
    if len(lost) < len(changed):
        bad.append("manifest.txt")
    return bad, lost


def q_rel_l2(inst: Instance, horizons: np.ndarray, q_hat: np.ndarray) -> float:
    keep = (horizons >= Q_WINDOW[0] * inst.T_max) & (horizons <= Q_WINDOW[1] * inst.T_max)
    q_true = parse_q_spec(Q_SPEC, horizons[keep], inst.L)
    return float(np.linalg.norm(q_hat[keep] - q_true) / np.linalg.norm(q_true))


def gram_gap(inst: Instance, table) -> float:
    """Relative Frobenius gap of the data Gram vs the forward oracle at T_max."""
    data = gram_from_data(table).at(inst.T_max)
    grid = inst.grid()
    problem = StringProblem(inst.L, inst.q(), inst.build_kernel(grid), inst.T_max)
    oracle = gram_oracle(problem, hat_basis(grid, inst.n_basis)).at(inst.T_max)
    return float(np.linalg.norm(data - oracle) / np.linalg.norm(oracle))


def forward_gap(problem: StringProblem, control: Sampled1D, field) -> float:
    """relL2 of the solve_mild field vs the leapfrog oracle on [0, T_max]."""
    oracle = fd_oracle(problem, control).w.values[: field.w.values.shape[0], :]
    return float(np.linalg.norm(field.w.values - oracle) / np.linalg.norm(oracle))


def identify_health(gram, controls, T_max: float) -> dict:
    C = gram.at(T_max)
    return {
        "connecting.asymmetry_max": float(np.max(gram.asymmetry)),
        "connecting.psd_margin_min": float(np.linalg.eigvalsh(C)[0] / np.linalg.norm(C)),
        "identify.horizons": len(controls),
        "identify.lambda_warnings": sum("lambda_warning" in sc.diagnostics for sc in controls),
        "identify.condition_max": max(sc.diagnostics["condition"] for sc in controls),
        "identify.residual_max": max(sc.residual for sc in controls),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run: fixtures, samples, references, failures.

    Operation kinds are "synthesize", "forward" and "identify", suffixed
    with "@traced" or "@memory" when run under a tracer.
    """

    def __init__(self, workload: Workload, seed: int, work: str):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []  # failed operations
        self.check_failures: list[str] = []  # run-level checks
        self.samples: dict[str, list] = {}
        self.ref_Y: dict = {}
        self.ref_w = None
        self.ref_q = None
        self.lost_keys: list = []
        self.bundle_bytes = 0
        self.health: dict = {}
        self.timing = Tracer()
        self.memory = None
        self._count = 0

    def setup(self):
        """Kernel builds and the fixture bundle identify reads."""
        wl = self.wl
        self.fixture = os.path.join(self.work, "fixture")
        table = synthesize_op(wl.ident, self.seed, self.fixture, NullTracer())
        self.ref_Y[wl.ident] = table.Y
        self.horizons = default_horizons(table.basis, min_active=IdentifyConfig().readout_points)
        grid = wl.synth.grid()
        self.problem = StringProblem(
            wl.synth.L, wl.synth.q(), wl.synth.build_kernel(wl.synth.doubled_grid()), wl.synth.T_max
        )
        self.control = Sampled1D(grid, np.sin(np.pi * grid.nodes() / wl.synth.T_max) ** 2)

    def _attempt(self, kind: str, fn, check):
        """Time fn(); a raise or a failed check counts the operation failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
            seconds = time.perf_counter() - t0
            problem = check(out)
        except Exception:  # an operation that raises is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            problem = "raised"
        if problem:
            self.failures.append(f"{kind}: {problem}")
            return None
        self.samples.setdefault(kind, []).append(seconds)
        return out

    def _check_synth(self, table, directory) -> str | None:
        if not _finite(table.Y):
            return "non-finite responses"
        ref = self.ref_Y.setdefault(self.wl.synth, table.Y)
        if not np.array_equal(ref, table.Y):
            return "synthesize_table not bit-identical on repeat"
        self.bundle_bytes = sum(os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory))
        bad, self.lost_keys = roundtrip(directory, directory + "-resaved")
        return f"save -> load -> save differs in {bad}" if bad else None

    def _check_forward(self, field) -> str | None:
        if not _finite(field.w.values, field.y.values):
            return "non-finite field"
        if self.ref_w is None:
            self.ref_w = field.w.values
        return None if np.array_equal(self.ref_w, field.w.values) else "field not bit-identical on repeat"

    def _check_identify(self, q_hat) -> str | None:
        if not _finite(q_hat):
            return "non-finite q_hat"
        if self.ref_q is None:
            inst = self.wl.ident
            err = q_rel_l2(inst, self.horizons, q_hat)
            if not err <= inst.q_rel_max:
                return f"q_rel_l2 {err:.3e} above {inst.q_rel_max}"
            self.ref_q, self.q_err = q_hat, err
        return None if np.array_equal(self.ref_q, q_hat) else "q_hat differs from pipeline's"

    def op(self, kind: str, tracer=None):
        """One operation of `kind` ("synthesize", "forward" or "identify").

        Untraced, identify is pipeline itself; traced, it is the layer-by-layer
        decomposition, checked against the untraced q_hat.
        """
        label = "" if tracer is None else "@memory" if tracer.memory else "@traced"
        tracer = tracer or NullTracer()
        if kind == "synthesize":
            self._count += 1
            directory = os.path.join(self.work, f"synth-{self._count}")
            self._attempt(
                kind + label,
                lambda: synthesize_op(self.wl.synth, self.seed, directory, tracer),
                lambda table: self._check_synth(table, directory),
            )
            shutil.rmtree(directory, ignore_errors=True)
            shutil.rmtree(directory + "-resaved", ignore_errors=True)
        elif kind == "forward":
            self._attempt(kind + label, lambda: forward_op(self.problem, self.control, tracer), self._check_forward)
        elif not tracer.enabled:
            self._attempt(kind, lambda: identify_op(self.fixture), self._check_identify)
        else:
            out = self._attempt(
                kind + label,
                lambda: identify_traced(self.fixture, tracer),
                lambda res: self._check_identify(res[0]) if self.ref_q is not None else "no untraced q_hat",
            )
            if out is not None:
                self.health = identify_health(out[1], out[2], self.wl.ident.T_max)

    def loop(self, seconds: float, trace: bool):
        """Operations until `seconds` have passed, each kind at least once.

        The next operation is the kind whose share of time spent would be
        lowest half-way through it, among those whose expected duration (the
        median so far; before that, the whole share) still fits in the time
        left.  A long operation thus lands mid-run with short ones on both
        sides.  With trace, each kind also runs traced (untraced first, on
        half the share each), and one tracemalloc synthesize and identify end
        the run.
        """
        kinds = []
        for name, share in self.wl.shares:
            if trace:
                kinds += [(name, share / 2, None), (name + "@traced", share / 2, self.timing)]
            else:
                kinds.append((name, share, None))
        spent = {label: 0.0 for label, _, _ in kinds}
        attempts = dict.fromkeys(spent, 0)

        def expected(label, share):
            done = self.samples.get(label)
            return statistics.median(done) if done else seconds * share

        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds and all(attempts.values()):
                break
            fits = [
                k
                for k in kinds
                if not attempts[k[0]] or (self.samples.get(k[0]) and elapsed + expected(*k[:2]) <= seconds)
            ]
            if not fits:
                break
            label, _, tracer = min(fits, key=lambda k: (spent[k[0]] + expected(*k[:2]) / 2) / k[1])
            start = time.perf_counter()
            self.op(label.split("@")[0], tracer)
            spent[label] += time.perf_counter() - start
            attempts[label] += 1
        if trace:
            self.memory = Tracer(memory=True)
            try:
                self.op("synthesize", self.memory)
                self.op("identify", self.memory)
            finally:
                self.memory.close()

    def summary(self) -> dict:
        """Per operation kind: count, mean, median and 90th percentile (s)."""
        out = {}
        for kind, xs in self.samples.items():
            row = {"count": len(xs), "mean": statistics.fmean(xs), "median": statistics.median(xs)}
            if len(xs) >= 2:
                row["p90"] = statistics.quantiles(xs, n=10, method="inclusive")[-1]
            out[kind] = row
        return out

    def end_to_end(self, setup_s: list) -> dict:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        table, _, _ = load_bundle(self.fixture)
        gap = gram_gap(self.wl.ident, table)
        if not gap <= self.wl.ident.gram_gap_max:
            self.check_failures.append(f"gram_gap {gap:.3e} above {self.wl.ident.gram_gap_max}")
        fgap = forward_gap(self.problem, self.control, solve_mild(self.problem, self.control))
        if not fgap <= self.wl.synth.forward_gap_max:
            self.check_failures.append(f"forward_gap {fgap:.3e} above {self.wl.synth.forward_gap_max}")
        return {
            "identify_s": statistics.fmean(self.samples["identify"]),
            "synthesize_s": statistics.fmean(self.samples["synthesize"]),
            "forward_s": statistics.fmean(self.samples["forward"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "q_rel_l2": self.q_err,
            "gram_gap": gap,
            "forward_gap": fgap,
        }

    def per_layer(self) -> dict:
        spans = self.timing.spans
        selfs = self.timing.self_times()
        roots = {s["id"]: s["name"] for s in spans if s["parent"] is None}
        out = {}
        for metric, (op, names) in LAYER_SPANS.items():
            per_op = {}
            for s in spans:
                if s["name"] in names and roots[s["op"]] == op:
                    per_op[s["op"]] = per_op.get(s["op"], 0.0) + selfs[s["id"]]
            out[metric] = statistics.median(per_op.values())
        for metric, name in LAYER_PEAKS.items():
            out[metric] = max(s["peak_bytes"] for s in self.memory.spans if s["name"] == name) / 1e6
        out["dataio.bundle_bytes"] = self.bundle_bytes
        out["dataio.roundtrip_lost_keys"] = len(self.lost_keys)
        out.update(self.health)
        out["trace.overhead_s"] = statistics.fmean(self.samples["identify@traced"]) - statistics.fmean(
            self.samples["identify"]
        )
        return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        blas = {}
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        info = {}
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(base, index, key)) as fh:
                    info[key] = fh.read().strip()
            except OSError:
                break
        else:
            caches[f"L{info['level']} {info['type']}"] = info["size"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "caches": caches,
        "machine": platform.machine(),
    }


def _setup_children(name: str, seed: int, count: int, root: str) -> list:
    """Set-up times of fresh processes (import, kernels, fixture synthesis)."""
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description="viscostring layered benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv, t_start: float, workloads=WORKLOADS, setup_children: int = 4, root: str | None = None) -> int:
    """Run one workload; prints the result object as the last stdout line.

    t_start is the perf_counter reading at process start, before imports.
    """
    args = parse_args(argv, workloads)
    root = root or os.path.dirname(HERE)
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        run = Run(workloads[args.workload], args.seed, work)
        run.setup()
        setup_s = [time.perf_counter() - t_start]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s[0]}))
            return 0
        run.loop(args.seconds, bool(args.trace))
        if args.trace:
            metrics, units = run.per_layer(), PER_LAYER
        else:
            setup_s += _setup_children(args.workload, args.seed, setup_children, root)
            metrics, units = run.end_to_end(setup_s), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        spans.write(stem + "-spans.json", timing=run.timing, memory=run.memory)
    failed = len(run.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": {"synth": run.wl.synth.describe(), "ident": run.wl.ident.describe()},
        "environment": environment(),
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / max(run.attempted, 1),
        "failures": run.failures + run.check_failures,
        "roundtrip_lost_keys": run.lost_keys,
        "ops": run.summary(),
        "samples_s": run.samples,
        "setup_samples_s": None if args.trace else setup_s,
        "metrics": metrics,
        "layer_moves": LAYER_MOVES if args.trace else None,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    print("instances " + json.dumps(record["instances"]))
    for problem in record["failures"]:
        print(f"FAILED {problem}")
    if run.lost_keys:
        print(f"known defect: bundle round trip loses manifest keys {run.lost_keys}")
    print(f"error_rate {record['error_rate']} ({failed}/{run.attempted})")
    for kind, row in record["ops"].items():
        print(f"op {kind} " + " ".join(f"{k} {v:.6g}" for k, v in row.items()))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"record written to {stem}.json")
    result = {
        "correct": not record["failures"],
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
