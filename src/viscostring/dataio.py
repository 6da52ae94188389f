"""Run configuration, dataset bundles and CSV serialization.

A dataset bundle is a directory:

    manifest.txt    key=value text (format_version, L, T_max, dt, n_basis,
                    kernel_kind, created_by, ...)
    kernel.csv      t, N, N1, N2, N3 on the doubled window [0, 2*T_max]
    basis.csv       t, e1..en   (controls, zero beyond T_max)
    response.csv    t, y1..yn   (boundary responses on [0, 2*T_max])
    q_true.csv      x, q        (optional; synthetic ground truth)

All CSV files are RFC-4180 (comma separated, CRLF), floats in '%.17g' with a
'.' decimal separator, so a save/load/save round trip is byte-identical.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, GridMismatchError, KernelValidationError
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

    @property
    def m(self) -> int:
        return round(self.T_max / self.dt)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.dt, self.m)

    def doubled_grid(self) -> TimeGrid:
        return TimeGrid(self.dt, 2 * self.m)

    def control_basis(self) -> ControlBasis:
        try:
            return hat_basis(self.time_grid(), self.n_basis)
        except GridMismatchError as exc:
            raise ConfigError(f"bad n_basis: {exc}") from exc

    def build_kernel2(self) -> MemoryKernel:
        return _kernel_from_spec(self.kernel, self.doubled_grid())

    def q_values(self) -> np.ndarray:
        x = np.arange(round(self.L / self.dt) + 1) * self.dt
        return parse_q_spec(self.q, x, self.L)


def _parse_kv_text(text: str, what: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{what} line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in out:
            raise ConfigError(f"{what} line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config(text: str) -> RunConfig:
    """Parse key=value configuration text; unknown keys are rejected."""
    kv = _parse_kv_text(text, "config")
    unknown = set(kv) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    try:
        for key, value in kv.items():
            if key == "threads":
                continue
            if key in ("L", "T_max", "dt", "noise_sigma"):
                kwargs[key] = float(value)
            elif key in ("n_basis", "seed", "smoothing_halfwidth", "readout_points"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = value
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return RunConfig(**kwargs)


def _kernel_from_spec(spec: str, grid: TimeGrid) -> MemoryKernel:
    if spec == "const":
        return build_kernel(grid, "const")
    if spec.startswith("exp:"):
        try:
            rate = float(spec[4:])
        except ValueError as exc:
            raise ConfigError(f"bad exponential kernel rate in {spec!r}") from exc
        try:
            return build_kernel(grid, "exp", rate=rate)
        except KernelValidationError as exc:
            raise ConfigError(f"bad kernel spec {spec!r}: {exc}") from exc
    if spec.startswith("file:"):
        path = spec[5:]
        header, cols = _read_csv(path)
        if header != ["t", "N", "N1", "N2", "N3"]:
            raise DataFormatError(f"kernel file {path} must have columns t,N,N1,N2,N3")
        t, n, n1, n2, n3 = cols
        if len(t) != grid.n + 1 or np.max(np.abs(t - grid.nodes())) > 1e-9:
            raise DataFormatError(
                f"kernel file {path} is not sampled on the run grid "
                f"(need {grid.n + 1} nodes of step {grid.dt})"
            )
        try:
            return build_kernel(grid, "tabulated", samples={"N": n, "N1": n1, "N2": n2, "N3": n3})
        except KernelValidationError as exc:
            raise DataFormatError(f"kernel file {path}: {exc}") from exc
    raise ConfigError(f"unknown kernel spec {spec!r} (const | exp:RATE | file:PATH)")


def parse_q_spec(spec: str, x: np.ndarray, L: float) -> np.ndarray:
    """Coefficient combinators: terms joined by '+', each one of
    const:C | sin:AMP,K (AMP*sin(K*pi*x/L)) | poly:C0,C1,... | file:PATH."""
    total = np.zeros_like(x)
    for term in spec.split("+"):
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
            header, cols = _read_csv(term[5:])
            if header != ["x", "q"]:
                raise DataFormatError(f"q file {term[5:]} must have columns x,q")
            xs, qs = cols
            if np.any(np.diff(xs) <= 0):
                raise DataFormatError("q file abscissae must be strictly increasing")
            total = total + np.interp(x, xs, qs)
        else:
            try:
                total = total + float(term)
            except ValueError as exc:
                raise ConfigError(f"unknown q term {term!r}") from exc
    return total


def parse_control_spec(spec: str, grid: TimeGrid, basis: ControlBasis | None = None) -> np.ndarray:
    """Boundary control for single forward runs: sin2 | hat:I | poly:... .

    Returns finite samples on the grid; every malformed spec raises ConfigError.
    """
    t = grid.nodes()
    T = grid.t_max
    if spec == "sin2":
        return np.sin(np.pi * t / T) ** 2
    if spec.startswith("hat:"):
        if basis is None:
            raise ConfigError("hat control needs a basis")
        try:
            i = int(spec[4:])
        except ValueError as exc:
            raise ConfigError(f"bad hat index in control spec {spec!r}") from exc
        if not (1 <= i <= basis.n):
            raise ConfigError(f"hat index {i} outside 1..{basis.n}")
        return basis.sampled_on(grid)[i - 1]
    if spec.startswith("poly:"):
        try:
            coeffs = [float(c) for c in spec[5:].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad coefficient in control spec {spec!r}") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(sum(c * t**j for j, c in enumerate(coeffs)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"control spec {spec!r} is not finite on [0, {T}]")
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


def _read_csv(path: str):
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file {path}")
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path} is empty") from None
        rows = list(reader)
    if not rows:
        raise DataFormatError(f"{path} has no data rows")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise DataFormatError(f"{path}: non-numeric cell ({exc})") from exc
    if data.shape[1] != len(header):
        raise DataFormatError(f"{path}: ragged rows")
    return header, [data[:, j] for j in range(data.shape[1])]


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
        ["t", "N", "N1", "N2", "N3"],
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


def load_bundle(directory: str) -> tuple:
    """Load a bundle; returns (ResponseTable, q_true-or-None, manifest dict)."""
    man_path = os.path.join(directory, "manifest.txt")
    if not os.path.isfile(man_path):
        raise DataFormatError(f"missing manifest {man_path}")
    with open(man_path) as fh:
        try:
            kv = _parse_kv_text(fh.read(), "manifest")
        except ConfigError as exc:
            raise DataFormatError(str(exc)) from exc
    unknown = set(kv) - _MANIFEST_KEYS
    if unknown:
        raise DataFormatError(f"unknown manifest keys: {sorted(unknown)}")
    missing = {"format_version", "L", "T_max", "dt", "n_basis", "kernel_kind"} - set(kv)
    if missing:
        raise DataFormatError(f"manifest lacks keys: {sorted(missing)}")
    if kv["format_version"] != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format_version {kv['format_version']!r}")
    try:
        L = float(kv["L"])
        t_max = float(kv["T_max"])
        dt = float(kv["dt"])
        n_basis = int(kv["n_basis"])
        # carried into the table so that a re-save writes them back unchanged
        noise = {k: cast(kv[k]) for k, cast in (("noise_sigma", float), ("seed", int)) if k in kv}
    except ValueError as exc:
        raise DataFormatError(f"bad manifest value: {exc}") from exc

    m = round(t_max / dt)
    if m < 1 or abs(m * dt - t_max) > 1e-9:
        raise DataFormatError("manifest dt does not divide T_max")
    grid = TimeGrid(dt, m)
    grid2 = TimeGrid(dt, 2 * m)

    header, cols = _read_csv(os.path.join(directory, "kernel.csv"))
    if header != ["t", "N", "N1", "N2", "N3"] or len(cols[0]) != grid2.n + 1:
        raise DataFormatError("kernel.csv does not match the manifest grid")
    kind = kv["kernel_kind"]
    try:
        if kind == "const":
            kernel = build_kernel(grid2, "const")
        elif kind == "exp":
            kernel = build_kernel(grid2, "exp", rate=float(kv.get("kernel_rate", "1.0")))
        else:
            kernel = build_kernel(
                grid2,
                "tabulated",
                samples={"N": cols[1], "N1": cols[2], "N2": cols[3], "N3": cols[4]},
            )
    except KernelValidationError as exc:
        raise DataFormatError(f"invalid kernel data: {exc}") from exc
    if kind in ("const", "exp"):
        # rebuilt analytically: the file must still agree with what it describes
        stored = np.vstack(cols[1:])
        built = np.vstack([kernel.N.values, kernel.N1.values, kernel.N2.values, kernel.N3.values])
        if not np.all(np.abs(stored - built) <= 1e-12 * np.max(np.abs(built))):
            raise DataFormatError(f"kernel.csv does not match the {kind} kernel of the manifest")

    header, bcols = _read_csv(os.path.join(directory, "basis.csv"))
    if len(bcols) != n_basis + 1 or len(bcols[0]) != grid2.n + 1:
        raise DataFormatError("basis.csv does not match the manifest dimensions")
    samples = np.vstack([c[: grid.n + 1] for c in bcols[1:]])
    if "basis_knot_indices" in kv:
        try:
            knot_idx = np.array([int(s) for s in kv["basis_knot_indices"].split()])
        except ValueError as exc:
            raise DataFormatError(f"bad basis_knot_indices: {exc}") from exc
        if len(knot_idx) != n_basis + 2:
            raise DataFormatError("basis_knot_indices length must be n_basis + 2")
        knots = knot_idx * dt
    else:
        knots = hat_basis(grid, n_basis).knots
    try:
        basis = ControlBasis(grid=grid, knots=knots, samples=samples)
    except Exception as exc:
        raise DataFormatError(f"invalid basis data: {exc}") from exc

    header, rcols = _read_csv(os.path.join(directory, "response.csv"))
    if len(rcols) != n_basis + 1 or len(rcols[0]) != grid2.n + 1:
        raise DataFormatError("response.csv does not match the manifest dimensions")
    Y = np.vstack(rcols[1:])
    meta = {"provenance": "loaded", "L": L, "directory": directory, **noise}
    try:
        table = ResponseTable(basis=basis, kernel=kernel, Y=Y, meta=meta)
    except Exception as exc:
        raise DataFormatError(f"invalid response data: {exc}") from exc

    q_true = None
    q_path = os.path.join(directory, "q_true.csv")
    if os.path.isfile(q_path):
        header, qcols = _read_csv(q_path)
        if header != ["x", "q"]:
            raise DataFormatError("q_true.csv must have columns x,q")
        q_true = qcols[1]
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
