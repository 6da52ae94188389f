"""Run configuration, dataset bundles and CSV serialization.

A dataset bundle is a directory:

    manifest.txt    key=value text (format_version, L, T_max, dt, n_basis,
                    kernel_kind, created_by, ...)
    kernel.csv      t, N, N1, N2, N3 on the doubled window [0, 2*T_max]
    basis.csv       t, e1..en   (controls, zero beyond T_max)
    response.csv    t, y1..yn   (boundary responses on [0, 2*T_max])
    q_true.csv      x, q        (optional; synthetic ground truth on the dt
                                lattice of [0, L])

All CSV files are RFC-4180 (comma separated, CRLF), floats in '%.17g' with a
'.' decimal separator, so a save/load/save round trip is byte-identical.

Outside input enters through two stages, and each failure is classified once
at its entry point: config text raises ConfigError (CLI exit 2), file
contents -- bundles, ``kernel = file:`` and ``q = file:`` -- raise
DataFormatError (exit 4).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataFormatError, GridMismatchError
from .grid import TimeGrid
from .kernels import MemoryKernel, build_kernel
from .connecting import ControlBasis, ResponseTable, hat_basis, synthesize_table
from .identify import IdentifyConfig, default_horizons

__all__ = [
    "RunConfig",
    "parse_config",
    "parse_q_spec",
    "parse_control_spec",
    "save_bundle",
    "load_bundle",
    "synthesize",
]

FORMAT_VERSION = "1"
CREATED_BY = "viscostring-0.1.0"

_CONFIG_KEYS = {
    "kernel",
    "L",
    "T_max",
    "dt",
    "n_basis",
    "q",
    "out",
    "threads",  # accepted and ignored, so that older config files still parse
    "noise_sigma",
    "seed",
    "tikhonov_lambda",
    "smoothing_halfwidth",
    "xi_zero_guard",
    "readout_points",
    "horizons",
    "control",
}

_MANIFEST_KEYS = {
    "format_version",
    "L",
    "T_max",
    "dt",
    "n_basis",
    "kernel_kind",
    "kernel_rate",
    "created_by",
    "basis_knot_indices",
    "noise_sigma",
    "seed",
    "q_spec",
}

_KERNEL_HEADER = ["t", "N", "N1", "N2", "N3"]


@contextlib.contextmanager
def _input_stage(error: type, what: str):
    """Classify failures of code that turns outside input into objects.

    A ValueError (GridMismatchError, KernelValidationError, numpy's own), an
    OverflowError from a float-to-int conversion or a malformed CSV file is
    re-raised as `error`: ConfigError for config text, DataFormatError for
    file contents.  A ConfigError or DataFormatError passes unchanged, so a
    file named by a config keeps its file class.  Solver calls stay outside,
    so that a NumericalFailure or a solver bug is never relabelled.
    Usable as a decorator or a with-block.
    """
    try:
        yield
    except (ConfigError, DataFormatError):
        raise
    except (ValueError, OverflowError, csv.Error) as exc:
        raise error(f"{what}: {exc}") from exc


def _finite_float(text: str, name: str) -> float:
    """float(text), rejecting nan and inf with a ValueError that names the value."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


@dataclass
class RunConfig:
    """Parsed key=value run configuration."""

    kernel: str = "const"
    L: float = 1.0
    T_max: float = 0.5
    dt: float = 1.0 / 256
    n_basis: int = 16
    q: str = "const:0"
    out: str = "out"
    noise_sigma: float = 0.0
    seed: int = 0
    tikhonov_lambda: str = "auto"
    smoothing_halfwidth: int = 3
    xi_zero_guard: str = "auto"
    readout_points: int = 3
    horizons: str = "lattice"
    control: str = "sin2"

    def __post_init__(self):
        for name in ("L", "T_max", "dt", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.L <= 0 or self.T_max <= 0:
            raise ConfigError("dt, L and T_max must be positive")
        if 2.0 * self.T_max > self.L + 1e-12:
            raise ConfigError(
                f"2*T_max = {2 * self.T_max} must not exceed L = {self.L} "
                "(responses need the reflection-free doubled window)"
            )
        for name, value in (("T_max", self.T_max), ("L", self.L)):
            steps = round(value / self.dt)
            if steps < 1 or abs(steps * self.dt - value) > 1e-9 * max(1.0, value):
                raise ConfigError(f"dt = {self.dt} does not divide {name} = {value}")
        if self.n_basis < 1:
            raise ConfigError(f"n_basis must be >= 1, got {self.n_basis}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def m(self) -> int:
        return round(self.T_max / self.dt)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.dt, self.m)

    def doubled_grid(self) -> TimeGrid:
        return TimeGrid(self.dt, 2 * self.m)

    @_input_stage(ConfigError, "bad n_basis")
    def control_basis(self) -> ControlBasis:
        return hat_basis(self.time_grid(), self.n_basis)

    @_input_stage(ConfigError, "bad kernel spec")
    def build_kernel2(self) -> MemoryKernel:
        spec, grid = self.kernel, self.doubled_grid()
        if spec == "const":
            return build_kernel(grid, "const")
        if spec.startswith("exp:"):
            return build_kernel(grid, "exp", rate=float(spec[4:]))
        if spec.startswith("file:"):
            return _read_kernel_csv(spec[5:], grid)
        raise ConfigError(f"unknown kernel spec {spec!r} (const | exp:RATE | file:PATH)")

    def q_values(self) -> np.ndarray:
        x = np.arange(round(self.L / self.dt) + 1) * self.dt
        return parse_q_spec(self.q, x, self.L)

    @_input_stage(ConfigError, "bad identify setting")
    def identify_config(self, basis: ControlBasis) -> IdentifyConfig:
        """The identify settings of this config for a bundle's control basis."""
        icfg = IdentifyConfig(
            tikhonov_lambda=(
                "auto" if self.tikhonov_lambda == "auto"
                else _finite_float(self.tikhonov_lambda, "tikhonov_lambda")
            ),
            smoothing_halfwidth=self.smoothing_halfwidth,
            xi_zero_guard=(
                None if self.xi_zero_guard == "auto"
                else _finite_float(self.xi_zero_guard, "xi_zero_guard")
            ),
            readout_points=self.readout_points,
        )
        if self.horizons.startswith("every:"):
            k = int(self.horizons[6:])
            if k < 1:
                raise ConfigError("horizons=every:K needs K >= 1")
            nodes = basis.grid.nodes()[k::k]
            lo = np.min(default_horizons(basis, min_active=self.readout_points), initial=np.inf)
            return replace(icfg, horizons=nodes[nodes >= lo - 1e-12])
        if self.horizons != "lattice":
            horizons = np.array([_finite_float(s, "horizon") for s in self.horizons.split(",")])
            for T in horizons:
                basis.grid.index_of(T)
            return replace(icfg, horizons=horizons)
        return icfg


def _parse_kv_text(text: str, what: str, error: type) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{what} line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in out:
            raise error(f"{what} line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@_input_stage(ConfigError, "bad config value")
def parse_config(text: str) -> RunConfig:
    """Parse key=value configuration text; unknown keys are rejected."""
    kv = _parse_kv_text(text, "config", ConfigError)
    unknown = set(kv) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in kv.items():
        if key in ("L", "T_max", "dt", "noise_sigma"):
            kwargs[key] = float(value)
        elif key in ("n_basis", "seed", "smoothing_halfwidth", "readout_points"):
            kwargs[key] = int(value)
        elif key != "threads":
            kwargs[key] = value
    return RunConfig(**kwargs)


@_input_stage(ConfigError, "bad q spec")
def parse_q_spec(spec: str, x: np.ndarray, L: float) -> np.ndarray:
    """Coefficient combinators: terms joined by '+' (exponent signs excluded), each one of
    const:C | sin:AMP,K (AMP*sin(K*pi*x/L)) | poly:C0,C1,... | file:PATH.

    Returns finite samples at x; a malformed spec raises ConfigError, a bad
    file DataFormatError."""
    total = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for term in re.split(r"(?<![\d.][eE])\+", spec):
            term = term.strip()
            if not term:
                raise ConfigError(f"empty term in q spec {spec!r}")
            if term.startswith("const:"):
                total = total + float(term[6:])
            elif term.startswith("sin:"):
                parts = term[4:].split(",")
                if len(parts) != 2:
                    raise ConfigError(f"sin term needs AMP,K: {term!r}")
                amp, freq = float(parts[0]), float(parts[1])
                total = total + amp * np.sin(freq * np.pi * x / L)
            elif term.startswith("poly:"):
                coeffs = [float(c) for c in term[5:].split(",")]
                total = total + sum(c * x**j for j, c in enumerate(coeffs))
            elif term.startswith("file:"):
                xs, qs = _read_csv(term[5:], ["x", "q"])
                if np.any(np.diff(xs) <= 0):
                    raise DataFormatError(f"q file {term[5:]}: abscissae must be strictly increasing")
                total = total + np.interp(x, xs, qs)
            else:
                total = total + float(term)
    if not np.all(np.isfinite(total)):
        raise ConfigError(f"q spec {spec!r} is not finite on [0, {L}]")
    return total


@_input_stage(ConfigError, "bad control spec")
def parse_control_spec(spec: str, grid: TimeGrid, basis: ControlBasis | None = None) -> np.ndarray:
    """Boundary control for single forward runs: sin2 | hat:I | poly:... .

    Returns finite samples on the grid that start at rest (f(0) = 0); every
    malformed spec raises ConfigError.
    """
    t = grid.nodes()
    T = grid.t_max
    if spec == "sin2":
        return np.sin(np.pi * t / T) ** 2
    if spec.startswith("hat:"):
        if basis is None:
            raise ConfigError("hat control needs a basis")
        i = int(spec[4:])
        if not (1 <= i <= basis.n):
            raise ConfigError(f"hat index {i} outside 1..{basis.n}")
        return basis.sampled_on(grid)[i - 1]
    if spec.startswith("poly:"):
        coeffs = [float(c) for c in spec[5:].split(",")]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(sum(c * t**j for j, c in enumerate(coeffs)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"control spec {spec!r} is not finite on [0, {T}]")
        if vals[0] != 0.0:
            raise ConfigError(f"control spec {spec!r} does not start at rest: f(0) = {vals[0]}")
        return vals
    raise ConfigError(f"unknown control spec {spec!r}")


# ---------------------------------------------------------------------------
# CSV + bundle I/O
# ---------------------------------------------------------------------------


def _format(x: float) -> str:
    return "%.17g" % x


def _write_csv(path: str, header: list, columns: list):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    rows = np.column_stack(columns)
    for row in rows:
        writer.writerow([_format(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _read_csv(path: str, header: list, grid: TimeGrid | None = None) -> list:
    """Columns of a numeric CSV file with exactly this header.

    Every cell must be a finite number; with a grid, the first column must be
    its nodes.  Any failure raises DataFormatError.
    """
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file {path}")
    with _input_stage(DataFormatError, path), open(path, newline="") as fh:
        rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            raise DataFormatError(f"{path} must have the columns {','.join(header)}")
        if len(rows) == 1:
            raise DataFormatError(f"{path} has no data rows")
        data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.shape[1] != len(header):
        raise DataFormatError(f"{path}: rows do not match the header")
    if not np.all(np.isfinite(data)):
        raise DataFormatError(f"{path}: non-finite cell")
    if grid is not None and (
        len(data) != grid.n + 1 or np.max(np.abs(data[:, 0] - grid.nodes())) > 1e-9
    ):
        raise DataFormatError(
            f"{path} is not sampled on the grid of {grid.n + 1} nodes of step {grid.dt}"
        )
    return list(data.T)


def _read_kernel_csv(path: str, grid: TimeGrid) -> MemoryKernel:
    """Tabulated kernel from a t,N,N1,N2,N3 file sampled on the grid."""
    _, n, n1, n2, n3 = _read_csv(path, _KERNEL_HEADER, grid)
    with _input_stage(DataFormatError, f"kernel file {path}"):
        return build_kernel(grid, "tabulated", samples={"N": n, "N1": n1, "N2": n2, "N3": n3})


def save_bundle(
    directory: str,
    table: ResponseTable,
    q_true: np.ndarray | None = None,
    L: float | None = None,
    q_spec: str | None = None,
) -> str:
    """Write a dataset bundle; returns the directory path."""
    os.makedirs(directory, exist_ok=True)
    basis = table.basis
    grid2 = table.grid2
    kernel = table.kernel
    L_val = L if L is not None else table.meta.get("L", 2 * basis.grid.t_max)
    if q_true is not None and len(q_true) != round(L_val / basis.grid.dt) + 1:
        raise GridMismatchError("q_true must be sampled on the dt lattice of [0, L]")

    knot_idx = np.round(basis.knots / basis.grid.dt).astype(int)
    manifest = {
        "format_version": FORMAT_VERSION,
        "L": _format(L_val),
        "T_max": _format(basis.grid.t_max),
        "dt": _format(basis.grid.dt),
        "n_basis": str(basis.n),
        "kernel_kind": kernel.kind,
        "created_by": CREATED_BY,
        "basis_knot_indices": " ".join(str(i) for i in knot_idx),
        "noise_sigma": _format(table.meta.get("noise_sigma", 0.0)),
        "seed": str(table.meta.get("seed", 0)),
    }
    if kernel.rate is not None:
        manifest["kernel_rate"] = _format(kernel.rate)
    if q_spec is not None:
        manifest["q_spec"] = q_spec
    lines = [f"{k}={manifest[k]}" for k in sorted(manifest)]
    with open(os.path.join(directory, "manifest.txt"), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    t2 = grid2.nodes()
    _write_csv(
        os.path.join(directory, "kernel.csv"),
        _KERNEL_HEADER,
        [t2, kernel.N.values, kernel.N1.values, kernel.N2.values, kernel.N3.values],
    )
    ext = basis.sampled_on(grid2)
    _write_csv(
        os.path.join(directory, "basis.csv"),
        ["t"] + [f"e{i + 1}" for i in range(basis.n)],
        [t2] + [ext[i] for i in range(basis.n)],
    )
    _write_csv(
        os.path.join(directory, "response.csv"),
        ["t"] + [f"y{i + 1}" for i in range(basis.n)],
        [t2] + [table.Y[i] for i in range(basis.n)],
    )
    if q_true is not None:
        x = np.arange(len(q_true)) * basis.grid.dt
        _write_csv(os.path.join(directory, "q_true.csv"), ["x", "q"], [x, q_true])
    return directory


@_input_stage(DataFormatError, "bad bundle")
def load_bundle(directory: str) -> tuple:
    """Load a bundle; returns (ResponseTable, q_true-or-None, manifest dict).

    Files that do not describe one consistent bundle raise DataFormatError.
    """
    man_path = os.path.join(directory, "manifest.txt")
    if not os.path.isfile(man_path):
        raise DataFormatError(f"missing manifest {man_path}")
    with open(man_path) as fh:
        kv = _parse_kv_text(fh.read(), "manifest", DataFormatError)
    unknown = set(kv) - _MANIFEST_KEYS
    if unknown:
        raise DataFormatError(f"unknown manifest keys: {sorted(unknown)}")
    missing = {"format_version", "L", "T_max", "dt", "n_basis", "kernel_kind"} - set(kv)
    if missing:
        raise DataFormatError(f"manifest lacks keys: {sorted(missing)}")
    if kv["format_version"] != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format_version {kv['format_version']!r}")
    L, t_max, dt = (_finite_float(kv[k], k) for k in ("L", "T_max", "dt"))
    n_basis = int(kv["n_basis"])
    # carried into the table so that a re-save writes them back unchanged
    noise = {}
    if "noise_sigma" in kv:
        noise["noise_sigma"] = _finite_float(kv["noise_sigma"], "noise_sigma")
    if "seed" in kv:
        noise["seed"] = int(kv["seed"])

    m = round(t_max / dt)
    if m < 1 or abs(m * dt - t_max) > 1e-9:
        raise DataFormatError("manifest dt does not divide T_max")
    if 2.0 * t_max > L + 1e-12:
        raise DataFormatError(f"manifest L = {L} is shorter than the data window 2*T_max")
    grid = TimeGrid(dt, m)
    grid2 = TimeGrid(dt, 2 * m)

    tabulated = _read_kernel_csv(os.path.join(directory, "kernel.csv"), grid2)
    kind = kv["kernel_kind"]
    if kind == "tabulated":
        kernel = tabulated
    elif kind in ("const", "exp"):
        kernel = build_kernel(grid2, kind, rate=float(kv.get("kernel_rate", "1.0")))
        # rebuilt analytically: the file must still agree with what it describes
        stored, built = (
            np.vstack([k.N.values, k.N1.values, k.N2.values, k.N3.values]) for k in (tabulated, kernel)
        )
        if not np.all(np.abs(stored - built) <= 1e-12 * np.max(np.abs(built))):
            raise DataFormatError(f"kernel.csv does not match the {kind} kernel of the manifest")
    else:
        raise DataFormatError(f"unknown kernel_kind {kind!r}")

    bcols = _read_csv(
        os.path.join(directory, "basis.csv"), ["t"] + [f"e{i + 1}" for i in range(n_basis)], grid2
    )
    samples = np.vstack([c[: grid.n + 1] for c in bcols[1:]])
    if "basis_knot_indices" in kv:
        knot_idx = np.array([int(s) for s in kv["basis_knot_indices"].split()])
        if len(knot_idx) != n_basis + 2:
            raise DataFormatError("basis_knot_indices length must be n_basis + 2")
        knots = knot_idx * dt
    else:
        knots = hat_basis(grid, n_basis).knots
    basis = ControlBasis(grid=grid, knots=knots, samples=samples)

    rcols = _read_csv(
        os.path.join(directory, "response.csv"), ["t"] + [f"y{i + 1}" for i in range(n_basis)], grid2
    )
    meta = {"provenance": "loaded", "L": L, "directory": directory, **noise}
    table = ResponseTable(basis=basis, kernel=kernel, Y=np.vstack(rcols[1:]), meta=meta)

    q_true = None
    q_path = os.path.join(directory, "q_true.csv")
    if os.path.isfile(q_path):
        # save_bundle writes q_true on the dt lattice of [0, L]
        _, q_true = _read_csv(q_path, ["x", "q"], TimeGrid(dt, round(L / dt)))
    return table, q_true, kv


def synthesize(cfg: RunConfig, directory: str | None = None) -> str:
    """Generate the synthetic bundle described by a config; returns the path."""
    kernel2 = cfg.build_kernel2()
    basis = cfg.control_basis()
    q = cfg.q_values()
    table = synthesize_table(
        basis,
        kernel2,
        q,
        cfg.L,
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed,
        meta={"seed": cfg.seed},
    )
    out = directory if directory is not None else cfg.out
    return save_bundle(out, table, q_true=q, L=cfg.L, q_spec=cfg.q)
