"""Run configuration, dataset bundles and CSV serialization.

A dataset bundle is a directory; it stores each value once:

    manifest.txt    key=value text: format_version, L, dt, kernel_kind,
                    kernel_rate (exp only), created_by, noise_sigma, seed, q_spec
    basis.csv       node        (the n+2 knot nodes; the last is T_max/dt)
    kernel.csv      t, N, N1, N2, N3 on [0, 2*T_max] if tabulated; the header
                    line only for const and exp, which the manifest rebuilds
    response.csv    t, y1..yn   (boundary responses on [0, 2*T_max])
    q_true.csv      x, q        (optional; synthetic ground truth on the dt
                                lattice of [0, L])

The t and x columns stay: they are the one check that the rows of the
responses and of hand-made kernel files sit on the manifest's lattice.
The manifest's noise_sigma and seed define the responses' noise: each cell
after t = 0 carries noise_sigma times a standard normal read, by its
row-major flat index, from the SplitMix64 counter stream of the seed
(0 <= seed < 2**64) through Box-Muller (``connecting.synthesize_table``).
Noisy bundles written while the noise came from numpy.random.default_rng
do not regenerate bit for bit from their manifest seed.
All CSV files are RFC-4180 (comma separated, CRLF), numbers in '%.17g' with
a '.' decimal separator, so a save/load/save round trip is byte-identical.
The reader parses each file in one C pass: ``csv`` takes the header line and
one ``np.loadtxt`` call the body, whose parser rounds every cell as Python's
``float`` does, so a load returns the written bits.  An exp A7-size bundle
(n_basis = 32, dt = 1/256, T_max = 1, L = 2: ~18 000 cells) loads in ~6 ms
and saves in ~10 ms on a quiet 2-core Xeon (KVM) host.  The writer formats
a table in blocks of about 4096 cells, in the time of one format of the
whole table, so the Python floats and text it holds at once are one
block's: ~0.4 MB traced for that bundle's response table (~1.2 MB as one
string), and ~9 MB rather than ~73 MB for a 1025 x 1025 field.

Outside input enters through two stages, and each failure is classified once
at its entry point: config text raises ConfigError (CLI exit 2), file
contents -- bundles, ``kernel = file:`` and ``q = file:`` -- raise
DataFormatError (exit 4).
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataFormatError, GridMismatchError
from .grid import TimeGrid
from .kernels import MemoryKernel, build_kernel
from .connecting import ControlBasis, ResponseTable, hat_basis, synthesize_table

__all__ = [
    "RunConfig",
    "parse_config",
    "parse_q_spec",
    "parse_control_spec",
    "save_bundle",
    "load_bundle",
    "synthesize",
]

FORMAT_VERSION = "2"
CREATED_BY = "viscostring-0.1.0"

_MANIFEST_KEYS = {
    "format_version",
    "L",
    "dt",
    "kernel_kind",
    "kernel_rate",
    "created_by",
    "noise_sigma",
    "seed",
    "q_spec",
}

_KERNEL_HEADER = ["t", "N", "N1", "N2", "N3"]


@contextlib.contextmanager
def _input_stage(error: type, what: str):
    """Classify failures of code that turns outside input into objects.

    A ValueError (GridMismatchError, KernelValidationError, numpy's own), an
    OverflowError from a float-to-int conversion, a MemoryError (numpy
    refusing an array whose size the input sets) or a malformed CSV file is
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
    except (ValueError, OverflowError, MemoryError, csv.Error) as exc:
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
    noise_sigma: float = 0.0
    seed: int = 0
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
        if self.seed >= 2**64:  # the noise stream is keyed by a 64-bit word
            raise ConfigError(f"seed must be < 2**64, got {self.seed}")

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
        try:
            if spec == "const":
                return build_kernel(grid, "const")
            if spec.startswith("exp:"):
                return build_kernel(grid, "exp", rate=float(spec[4:]))
        except MemoryError as exc:  # the spec sizes nothing; 2 T_max/dt sizes the doubled grid
            raise ConfigError(f"bad T_max: {exc}") from exc
        if spec.startswith("file:"):
            return _read_kernel_csv(spec[5:], grid)
        raise ConfigError(f"unknown kernel spec {spec!r} (const | exp:RATE | file:PATH)")

    @_input_stage(ConfigError, "bad L")
    def q_values(self) -> np.ndarray:
        x = np.arange(round(self.L / self.dt) + 1) * self.dt
        return parse_q_spec(self.q, x, self.L)


# every RunConfig field is a config key, parsed by the type of its default
_CONFIG_KEYS = {f.name: type(f.default) for f in fields(RunConfig)}


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
    unknown = kv.keys() - _CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**{key: _CONFIG_KEYS[key](value) for key, value in kv.items()})


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
def parse_control_spec(spec: str, grid: TimeGrid, n_basis: int) -> np.ndarray:
    """Boundary control for single forward runs: sin2 | hat:I | poly:... .

    hat:I is the I-th of the n_basis hats on the grid, which only a hat
    control builds.  Returns finite samples on the grid that start at rest
    (f(0) = 0); every malformed spec raises ConfigError.
    """
    t = grid.nodes()
    T = grid.t_max
    if spec == "sin2":
        return np.sin(np.pi * t / T) ** 2
    if spec.startswith("hat:"):
        basis = hat_basis(grid, n_basis)
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


_BLOCK_CELLS = 4096  # cells per formatted write: ~0.4 MB of Python floats and text


def _write_csv(path: str, header: list, columns: list):
    """CSV with CRLF lines: the header, then one '%.17g' row per sample.

    Rows are formatted and written a block of about _BLOCK_CELLS cells at a
    time, so the Python floats and text in flight are one block's, not the
    table's; the bytes are those of one format of the whole table.  No cell
    needs quoting: neither numbers nor the headers hold a comma."""
    rows = np.column_stack(columns)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    step = max(1, _BLOCK_CELLS // rows.shape[1])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, rows.shape[0], step):
            block = rows[i : i + step]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _read_body(path: str, header: list) -> list:
    """The lines after the header line of a CSV file whose header is exactly
    this one (read by ``csv``); DataFormatError otherwise."""
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file {path}")
    with _input_stage(DataFormatError, path), open(path, newline="") as fh:
        lines = list(fh)
        if not lines or next(csv.reader(lines[:1])) != header:
            raise DataFormatError(f"{path} must have the columns {','.join(header)}")
    return lines[1:]


def _read_csv(path: str, header: list, grid: TimeGrid | None = None) -> list:
    """Columns of a numeric CSV file with exactly this header.

    The body is parsed by one ``np.loadtxt`` call, whose C parser rounds
    each cell as Python's ``float`` does.  Every line after the header must
    be one row: loadtxt skips a blank line, so a row count short of the line
    count is rejected.  Every cell must be a finite number; with a grid, the
    first column must be its nodes.  Any failure raises DataFormatError.
    """
    body = _read_body(path, header)
    if not any(line.rstrip("\r\n") for line in body):
        raise DataFormatError(f"{path} has no data rows")
    with _input_stage(DataFormatError, path):
        data = np.loadtxt(body, delimiter=",", comments=None, quotechar='"', ndmin=2)
    if len(data) != len(body):
        raise DataFormatError(f"{path}: blank line among the data rows")
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
    L: float,
    q_true: np.ndarray | None = None,
    q_spec: str | None = None,
) -> str:
    """Write a dataset bundle for a string of length L; returns the directory path."""
    os.makedirs(directory, exist_ok=True)
    basis = table.basis
    grid2 = table.grid2
    kernel = table.kernel
    if q_true is not None and len(q_true) != round(L / basis.grid.dt) + 1:
        raise GridMismatchError("q_true must be sampled on the dt lattice of [0, L]")

    manifest = {
        "format_version": FORMAT_VERSION,
        "L": _format(L),
        "dt": _format(basis.grid.dt),
        "kernel_kind": kernel.kind,
        "created_by": CREATED_BY,
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
    kernel_columns = [t2, kernel.N.values, kernel.N1.values, kernel.N2.values, kernel.N3.values]
    if kernel.kind != "tabulated":  # load_bundle rebuilds it from the manifest: no rows
        kernel_columns = [c[:0] for c in kernel_columns]
    _write_csv(os.path.join(directory, "kernel.csv"), _KERNEL_HEADER, kernel_columns)
    _write_csv(os.path.join(directory, "basis.csv"), ["node"], [basis.knot_nodes])
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
    # checked first, so that a bundle of another format names its version, not its keys
    if kv.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported format_version {kv['format_version']!r}: synthesize the bundle again"
        )
    unknown = set(kv) - _MANIFEST_KEYS
    if unknown:
        raise DataFormatError(f"unknown manifest keys: {sorted(unknown)}")
    missing = {"format_version", "L", "dt", "kernel_kind"} - set(kv)
    if missing:
        raise DataFormatError(f"manifest lacks keys: {sorted(missing)}")
    L, dt = (_finite_float(kv[k], k) for k in ("L", "dt"))
    if dt <= 0:
        raise DataFormatError(f"manifest dt must be positive, got {kv['dt']}")
    kind = kv["kernel_kind"]
    if ("kernel_rate" in kv) != (kind == "exp"):  # never a default rate, never an ignored one
        state = "lacks" if kind == "exp" else "must not hold"
        raise DataFormatError(f"manifest of a {kind} kernel {state} kernel_rate")
    # carried into the table so that a re-save writes them back unchanged
    meta = {}
    if "noise_sigma" in kv:
        meta["noise_sigma"] = _finite_float(kv["noise_sigma"], "noise_sigma")
    if "seed" in kv:
        meta["seed"] = int(kv["seed"])
    for key, value in meta.items():
        if value < 0:
            raise DataFormatError(f"manifest {key} must be >= 0, got {kv[key]}")
    if meta.get("seed", 0) >= 2**64:
        raise DataFormatError(f"manifest seed must be < 2**64, got {kv['seed']}")

    (column,) = _read_csv(os.path.join(directory, "basis.csv"), ["node"])
    nodes = np.array([int(v) for v in column])  # exact for any finite cell
    if np.any(nodes != column):
        raise DataFormatError("basis.csv nodes must be integers")
    basis = ControlBasis(TimeGrid(dt, int(nodes[-1])), nodes)
    if 2.0 * basis.grid.t_max > L + 1e-12:
        raise DataFormatError(f"manifest L = {L} is shorter than the data window 2*T_max")
    grid2 = TimeGrid(dt, 2 * basis.grid.n)
    # read before the kernel is built: its row count checks grid2 before any
    # array of grid2's size is formed
    rcols = _read_csv(
        os.path.join(directory, "response.csv"), ["t"] + [f"y{i + 1}" for i in range(basis.n)], grid2
    )

    kernel_path = os.path.join(directory, "kernel.csv")
    if kind == "tabulated":
        kernel = _read_kernel_csv(kernel_path, grid2)
    elif kind in ("const", "exp"):
        if _read_body(kernel_path, _KERNEL_HEADER):  # the manifest rebuilds it
            raise DataFormatError(f"{kernel_path} of a {kind} kernel holds its header only")
        kernel = build_kernel(grid2, kind, rate=float(kv.get("kernel_rate", 1.0)))
    else:
        raise DataFormatError(f"unknown kernel_kind {kind!r}")
    table = ResponseTable(basis=basis, kernel=kernel, Y=np.vstack(rcols[1:]), meta=meta)

    q_true = None
    q_path = os.path.join(directory, "q_true.csv")
    if os.path.isfile(q_path):
        # save_bundle writes q_true on the dt lattice of [0, L]
        _, q_true = _read_csv(q_path, ["x", "q"], TimeGrid(dt, round(L / dt)))
    return table, q_true, kv


def synthesize(cfg: RunConfig, directory: str) -> str:
    """Generate the synthetic bundle described by a config; returns the path.

    cfg.noise_sigma and cfg.seed set the noise (module docstring), and the
    manifest records both."""
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
    )
    return save_bundle(directory, table, q_true=q, L=cfg.L, q_spec=cfg.q)
