import csv
import filecmp
import io
import operator
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viscostring
from viscostring.cli import main
from viscostring.errors import ConfigError, DataFormatError
from viscostring.grid import TimeGrid
from viscostring import dataio
from viscostring.connecting import hat_basis, synthesize_table
from viscostring.kernels import build_kernel
from viscostring.dataio import (
    RunConfig,
    load_bundle,
    parse_config,
    parse_control_spec,
    parse_q_spec,
    save_bundle,
    synthesize,
)


def _small_cfg(**overrides):
    base = dict(
        kernel="exp:1.0",
        L=1.0,
        T_max=0.25,
        dt=0.25 / 32,
        n_basis=3,
        q="const:0.5",
    )
    base.update(overrides)
    return RunConfig(**base)


def test_parse_config_happy_path():
    text = """
        # comment line
        kernel = exp:2.0
        L = 2.0
        T_max = 1.0
        dt = 0.0078125
        n_basis = 8
        q = const:1 + sin:0.5,1
        """
    cfg = parse_config(text)
    assert cfg.kernel == "exp:2.0"
    assert cfg.n_basis == 8
    assert cfg.m == 128
    # the retired threads key had no effect; it is rejected like any unknown key
    with pytest.raises(ConfigError, match="threads"):
        parse_config(text + "threads = 2\n")


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("kernel = const\nn_basiss = 4\n")


def test_parse_config_rejects_bad_syntax_and_duplicates():
    with pytest.raises(ConfigError):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("L = 1\nL = 2\n")


def test_config_keys_are_the_run_config_fields():
    # each key is one RunConfig field, read by the type of its default
    kinds = {key: parse.__name__ for key, parse in dataio._CONFIG_KEYS.items()}
    assert kinds == {
        "kernel": "str", "L": "float", "T_max": "float", "dt": "float", "n_basis": "int",
        "q": "str", "noise_sigma": "float", "seed": "int", "control": "str",
    }
    # the output directory is --out alone
    with pytest.raises(ConfigError) as exc:
        parse_config("out = elsewhere\n")
    assert str(exc.value) == "unknown config keys: ['out']"
    for text, message in (
        ("dt = abc", "bad config value: could not convert string to float: 'abc'"),
        ("noise_sigma = x", "bad config value: could not convert string to float: 'x'"),
        ("n_basis = 1.5", "bad config value: invalid literal for int() with base 10: '1.5'"),
        ("seed = 1e3", "bad config value: invalid literal for int() with base 10: '1e3'"),
        ("L = inf", "L must be finite, got inf"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("seed = 18446744073709551616", "seed must be < 2**64, got 18446744073709551616"),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config(text + "\n")
        assert str(exc.value) == message


def test_config_window_and_lattice_validation():
    with pytest.raises(ConfigError):
        _small_cfg(T_max=0.6)  # 2*T_max > L
    with pytest.raises(ConfigError):
        _small_cfg(dt=0.013)  # does not divide T_max
    with pytest.raises(ConfigError):
        _small_cfg(n_basis=0)


def test_q_spec_combinators():
    x = np.linspace(0.0, 2.0, 9)
    q = parse_q_spec("const:1 + sin:0.5,1 + poly:0,0,0.25", x, 2.0)
    expected = 1.0 + 0.5 * np.sin(np.pi * x / 2.0) + 0.25 * x**2
    assert np.allclose(q, expected, atol=1e-14)
    assert np.allclose(parse_q_spec("0.75", x, 2.0), 0.75, atol=1e-15)
    with pytest.raises(ConfigError):
        parse_q_spec("wiggle:1", x, 2.0)


def test_q_spec_from_file(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("x,q\r\n0,1\r\n1,2\r\n2,1\r\n")
    x = np.linspace(0.0, 2.0, 5)
    q = parse_q_spec(f"file:{path}", x, 2.0)
    assert np.allclose(q, [1.0, 1.5, 2.0, 1.5, 1.0])


def test_control_spec():
    g = TimeGrid(0.01, 100)
    f = parse_control_spec("sin2", g, 16)
    assert f[0] == 0.0 and abs(f[50] - 1.0) <= 1e-12
    f2 = parse_control_spec("poly:0,1", g, 16)
    assert np.allclose(f2, g.nodes())
    with pytest.raises(ConfigError):
        parse_control_spec("nope", g, 16)


_FUZZ_GRID = TimeGrid(1.0 / 32, 64)  # T_max = 2, so polynomial terms can overflow
_numbers = st.one_of(st.floats(), st.integers(-(10**6), 10**6), st.text(max_size=6))
_control_specs = st.one_of(
    st.text(),
    st.builds(operator.add, st.sampled_from(["hat:", "poly:", "sin2", "sin"]), st.text()),
    _numbers.map(lambda v: f"hat:{v}"),
    st.lists(_numbers, max_size=8).map(lambda cs: "poly:" + ",".join(map(str, cs))),
)


@settings(max_examples=300, deadline=None)
@given(spec=_control_specs)
def test_control_spec_fuzz_finite_or_config_error(spec):
    # with a basis size the grid holds and one it cannot: a finite control
    # on the grid, or ConfigError
    for n_basis in (5, _FUZZ_GRID.n):
        try:
            f = parse_control_spec(spec, _FUZZ_GRID, n_basis)
        except ConfigError:
            continue
        assert f.shape == (_FUZZ_GRID.n + 1,) and np.all(np.isfinite(f))


_signed_exponents = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["1", "-2.5", "3.", ".5"]),
    st.sampled_from("eE"),
    st.sampled_from("+-"),
    st.integers(0, 400),
)
_q_numbers = st.one_of(_numbers, _signed_exponents)
_q_terms = st.one_of(
    st.text(),
    st.builds(operator.add, st.sampled_from(["const:", "sin:", "poly:", "file:"]), st.text()),
    _q_numbers.map(lambda v: f"const:{v}"),
    st.lists(_q_numbers, max_size=3).map(lambda vs: "sin:" + ",".join(map(str, vs))),
    st.lists(_q_numbers, max_size=8).map(lambda cs: "poly:" + ",".join(map(str, cs))),
)


@settings(max_examples=300, deadline=None)
@given(spec=st.lists(_q_terms, min_size=1, max_size=3).map(" + ".join))
def test_q_spec_fuzz_finite_or_input_error(spec):
    # a finite q on the x-nodes, ConfigError for the text, DataFormatError for a file
    x = _FUZZ_GRID.nodes()
    try:
        q = parse_q_spec(spec, x, _FUZZ_GRID.t_max)
    except (ConfigError, DataFormatError):
        return
    assert q.shape == x.shape and np.all(np.isfinite(q))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_signed_exponents, min_size=1, max_size=3))
def test_q_spec_signed_exponents_are_numbers(values):
    # an exponent sign never splits a term: the sum of the constants, or a
    # ConfigError when it is not finite
    x = _FUZZ_GRID.nodes()
    spec = "+".join(f"const:{v}" for v in values)
    total = sum(float(v) for v in values)
    if not np.isfinite(total):
        with pytest.raises(ConfigError):
            parse_q_spec(spec, x, _FUZZ_GRID.t_max)
        return
    assert np.array_equal(parse_q_spec(spec, x, _FUZZ_GRID.t_max), np.full_like(x, total))


def test_corrupt_cell_fuzz_loads_or_data_format_error(tmp_path):
    bundle = tmp_path / "bundle"
    synthesize(_small_cfg(q="const:1 + sin:0.25,1"), str(bundle))
    names = ["kernel.csv", "basis.csv", "response.csv", "q_true.csv"]
    originals = {name: (bundle / name).read_bytes() for name in names}
    cells = st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",))),
        _numbers.map(str),
        st.sampled_from(["nan", "inf", "-1e400", "", '"', "1,2", "0x1p-3", " 0 "]),
    )

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(names), data=st.data())
    def corrupt_one_cell(name, data):
        rows = originals[name].decode().split("\r\n")[:-1]  # the file ends in CRLF
        r = data.draw(st.integers(0, len(rows) - 1), label="row")
        row = rows[r].split(",")
        row[data.draw(st.integers(0, len(row) - 1), label="col")] = data.draw(cells, label="cell")
        rows[r] = ",".join(row)
        (bundle / name).write_bytes(("\r\n".join(rows) + "\r\n").encode())
        try:
            table, q_true, _ = load_bundle(str(bundle))
        except DataFormatError:
            return
        finally:
            (bundle / name).write_bytes(originals[name])
        kernel = table.kernel
        for values in (kernel.N.values, kernel.N3.values, table.basis.samples, table.Y, q_true):
            assert np.all(np.isfinite(values))

    corrupt_one_cell()


def test_manifest_fuzz_loads_or_data_format_error(tmp_path):
    bundle = tmp_path / "bundle"
    synthesize(_small_cfg(q="const:1 + sin:0.25,1", noise_sigma=1e-4, seed=7), str(bundle))
    man = bundle / "manifest.txt"
    original = man.read_text()
    lines = original.splitlines()
    drawn = st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",))),
        st.integers(-(10**4), 10**4).map(str),
        st.floats().map(repr),
        st.sampled_from(["0", "-0", "1e-320", "nan", "-1", "-3"]),
    )

    @settings(max_examples=200, deadline=None)
    @given(edit=st.sampled_from(["drop", "duplicate", "value", "kernel_kind"]), data=st.data())
    def corrupt_manifest(edit, data):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        new = list(lines)
        if edit == "drop":
            del new[i]
        elif edit == "duplicate":
            new.insert(i, lines[i])
        elif edit == "value":
            new[i] = lines[i].split("=")[0] + "=" + data.draw(drawn, label="value")
        else:
            kind = data.draw(st.text(), label="kernel_kind")
            new = [f"kernel_kind={kind}" if l.startswith("kernel_kind=") else l for l in lines]
        man.write_text("\n".join(new) + "\n")
        try:
            table, q_true, _ = load_bundle(str(bundle))
        except DataFormatError:
            return
        finally:
            man.write_text(original)
        kernel = table.kernel
        for values in (kernel.N.values, kernel.N3.values, table.basis.samples, table.Y, q_true):
            assert np.all(np.isfinite(values))

    corrupt_manifest()


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A configuration is key=value text")[1].split("```")[1]
    keys = {line.split("=")[0].strip() for line in block.splitlines() if line.strip()}
    assert keys == dataio._CONFIG_KEYS.keys()


def test_bundle_round_trip(tmp_path):
    cfg = _small_cfg(q="const:1 + sin:0.25,1", noise_sigma=1e-4, seed=7)
    out = str(tmp_path / "bundle")
    synthesize(cfg, out)
    table, q_true, manifest = load_bundle(out)
    assert table.basis.n == cfg.n_basis
    assert q_true is not None and len(q_true) == round(cfg.L / cfg.dt) + 1
    assert manifest["kernel_kind"] == "exp"

    # save -> load -> save is byte identical
    out2 = str(tmp_path / "bundle2")
    save_bundle(out2, table, q_true=q_true, L=cfg.L, q_spec=manifest.get("q_spec"))
    for name in ("manifest.txt", "kernel.csv", "basis.csv", "response.csv", "q_true.csv"):
        assert filecmp.cmp(os.path.join(out, name), os.path.join(out2, name), shallow=False), name


_BUNDLE_FILES = ("manifest.txt", "kernel.csv", "basis.csv", "response.csv", "q_true.csv")


@pytest.mark.parametrize("rate", [0.3, 7.30728627489739])
def test_exp_bundle_rate_round_trips(tmp_path, rate):
    # kernel_rate is the kernel's -N1(0), exactly the rate it was built with,
    # so save -> load -> save keeps every file byte for byte
    cfg = _small_cfg(kernel=f"exp:{rate!r}")
    out, out2 = str(tmp_path / "bundle"), str(tmp_path / "bundle2")
    synthesize(cfg, out)
    table, q_true, manifest = load_bundle(out)
    assert table.kernel.rate == rate and manifest["kernel_rate"] == "%.17g" % rate
    save_bundle(out2, table, q_true=q_true, L=cfg.L, q_spec=manifest.get("q_spec"))
    for name in _BUNDLE_FILES:
        assert filecmp.cmp(os.path.join(out, name), os.path.join(out2, name), shallow=False), name


@pytest.mark.parametrize("kernel", ["const", "exp:1.0", "file"])
def test_bundle_format_2_stores_each_value_once(tmp_path, kernel):
    if kernel == "file":  # the exp kernel as a table: a tabulated bundle
        grid2 = _small_cfg().doubled_grid()
        k = build_kernel(grid2, "exp", rate=1.0)
        kfile = str(tmp_path / "exp.csv")
        columns = [grid2.nodes(), k.N.values, k.N1.values, k.N2.values, k.N3.values]
        dataio._write_csv(kfile, dataio._KERNEL_HEADER, columns)
        kernel = f"file:{kfile}"
    cfg = _small_cfg(kernel=kernel, q="const:1 + sin:0.25,1", noise_sigma=1e-4, seed=7)
    out = str(tmp_path / "bundle")
    synthesize(cfg, out)
    table, q_true, manifest = load_bundle(out)
    kind = table.kernel.kind

    # nine manifest keys at most: no T_max, n_basis or basis_knot_indices,
    # and kernel_rate exactly for an exp kernel
    assert len(dataio._MANIFEST_KEYS) == 9
    assert set(manifest) == dataio._MANIFEST_KEYS - ({"kernel_rate"} if kind != "exp" else set())
    # basis.csv is the basis: its n+2 knot nodes, T_max/dt the last
    nodes = Path(out, "basis.csv").read_text().splitlines()
    assert nodes == ["node"] + [str(i) for i in hat_basis(cfg.time_grid(), cfg.n_basis).knot_nodes]
    assert len(nodes) - 1 == cfg.n_basis + 2 and table.basis.grid.same_as(cfg.time_grid())
    # an analytic kernel.csv is its header line only; a tabulated one is the file it came from
    kernel_csv = Path(out, "kernel.csv").read_bytes()
    if kind == "tabulated":
        assert kernel_csv == Path(kfile).read_bytes()
    else:
        assert kernel_csv == b"t,N,N1,N2,N3\r\n"

    out2 = str(tmp_path / "bundle2")
    save_bundle(out2, table, q_true=q_true, L=cfg.L, q_spec=manifest.get("q_spec"))
    for name in _BUNDLE_FILES:
        assert filecmp.cmp(os.path.join(out, name), os.path.join(out2, name), shallow=False), name
_coefficients = st.floats(-2.0, 2.0, allow_nan=False).map(repr)
_round_trip_q_terms = st.one_of(
    _coefficients.map(lambda c: f"const:{c}"),
    st.builds("sin:{},{}".format, _coefficients, st.integers(0, 4)),
    st.lists(_coefficients, min_size=1, max_size=3).map(lambda cs: "poly:" + ",".join(cs)),
)


@st.composite
def _round_trip_configs(draw):
    """Config text of a small valid run: m <= 32 steps of 1/64, L >= 2 T_max."""
    m = draw(st.integers(2, 32), label="m")
    kernel = draw(
        st.one_of(st.just("const"), st.floats(0.05, 5.0).map(lambda r: f"exp:{r!r}")), label="kernel"
    )
    lines = {
        "kernel": kernel,
        "dt": "0.015625",
        "T_max": repr(m / 64),
        "L": repr((2 * m + draw(st.integers(0, 8), label="L extra")) / 64),
        "n_basis": str(draw(st.integers(1, m - 1), label="n_basis")),
        "q": " + ".join(draw(st.lists(_round_trip_q_terms, min_size=1, max_size=3), label="q")),
        "noise_sigma": repr(draw(st.one_of(st.just(0.0), st.floats(1e-8, 1e-2)), label="noise")),
        "seed": str(draw(st.integers(0, 2**32 - 1), label="seed")),
    }
    return "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"


def test_config_bundle_load_round_trip_fuzz(tmp_path):
    # config -> bundle -> load -> save: the five files come back byte for
    # byte, and the loaded responses are the synthesized ones
    @settings(max_examples=40, deadline=None)
    @given(text=_round_trip_configs())
    def round_trip(text):
        cfg = parse_config(text)
        with tempfile.TemporaryDirectory(dir=tmp_path) as d:
            first, second = os.path.join(d, "first"), os.path.join(d, "second")
            synthesize(cfg, first)
            table, q_true, manifest = load_bundle(first)
            save_bundle(second, table, q_true=q_true, L=float(manifest["L"]), q_spec=manifest.get("q_spec"))
            for name in _BUNDLE_FILES:
                assert filecmp.cmp(os.path.join(first, name), os.path.join(second, name), shallow=False), name
        expected = synthesize_table(
            cfg.control_basis(), cfg.build_kernel2(), cfg.q_values(), cfg.L,
            noise_sigma=cfg.noise_sigma, seed=cfg.seed,
        )
        assert np.array_equal(table.Y, expected.Y)
        assert np.array_equal(q_true, cfg.q_values())

    round_trip()


def test_synthesize_deterministic(tmp_path):
    cfg = _small_cfg()
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    synthesize(cfg, a)
    synthesize(cfg, b)
    for name in ("manifest.txt", "kernel.csv", "basis.csv", "response.csv", "q_true.csv"):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False), name


def test_synthesize_with_noise_is_seeded(tmp_path):
    cfg_a = _small_cfg(noise_sigma=1e-3, seed=5)
    cfg_b = _small_cfg(noise_sigma=1e-3, seed=5)
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    synthesize(cfg_a, a)
    synthesize(cfg_b, b)
    assert filecmp.cmp(os.path.join(a, "response.csv"), os.path.join(b, "response.csv"), shallow=False)
    ta, _, _ = load_bundle(a)
    clean = str(tmp_path / "clean")
    synthesize(_small_cfg(), clean)
    tc, _, _ = load_bundle(clean)
    diff = np.max(np.abs(ta.Y - tc.Y))
    assert 1e-5 <= diff <= 1e-2


def _last_line_of_fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this viscostring; its last stdout line."""
    src = str(Path(viscostring.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_noisy_synthesize_does_not_import_numpy_random(tmp_path):
    # the noise stream is plain numpy: a fresh process that synthesizes a
    # noisy bundle through the CLI, and runs the battery's invariants (A8
    # draws its test vectors from the same stream), never loads numpy.random
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T_max = 0.25\ndt = 0.0625\nn_basis = 2\nnoise_sigma = 1e-3\nseed = 3\n")
    code = (
        "import sys\n"
        "from viscostring.cli import main\n"
        f"assert main(['synthesize', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'b')!r}]) == 0\n"
        "assert main(['verify', '--filter', 'A8']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _last_line_of_fresh_python(code) == "False"


def test_cli_import_leaves_the_acceptance_battery_unloaded():
    # only verify runs the battery, so only verify imports it
    code = "import sys\nimport viscostring.cli\nprint('viscostring.verification' in sys.modules)\n"
    assert _last_line_of_fresh_python(code) == "False"


def test_load_rejects_missing_and_corrupt(tmp_path):
    with pytest.raises(DataFormatError):
        load_bundle(str(tmp_path / "nothing"))

    out = str(tmp_path / "bundle")
    synthesize(_small_cfg(), out)

    # corrupt manifest: unknown key
    man = os.path.join(out, "manifest.txt")
    original = Path(man).read_text()
    with open(man, "w") as fh:
        fh.write(original + "mystery=1\n")
    with pytest.raises(DataFormatError):
        load_bundle(out)

    # missing required key
    with open(man, "w") as fh:
        fh.write("\n".join(l for l in original.splitlines() if not l.startswith("dt=")) + "\n")
    with pytest.raises(DataFormatError):
        load_bundle(out)
    with open(man, "w") as fh:
        fh.write(original)

    # response shape mismatch
    resp = os.path.join(out, "response.csv")
    lines = Path(resp).read_text().splitlines()
    with open(resp, "w", newline="") as fh:
        fh.write("\r\n".join(lines[:-3]) + "\r\n")
    with pytest.raises(DataFormatError):
        load_bundle(out)


def test_load_without_q_true(tmp_path):
    out = str(tmp_path / "bundle")
    synthesize(_small_cfg(), out)
    os.remove(os.path.join(out, "q_true.csv"))
    table, q_true, _ = load_bundle(out)
    assert q_true is None
    assert table.basis.n == 3


def test_csv_precision_round_trip(tmp_path):
    # 17 significant digits survive the text round trip bit-exactly
    cfg = _small_cfg(kernel="const", q="poly:0.1234567890123456,1e-7")
    out = str(tmp_path / "bundle")
    synthesize(cfg, out)
    table, q_true, _ = load_bundle(out)
    x = np.arange(len(q_true)) * cfg.dt
    assert np.array_equal(q_true, 0.1234567890123456 + 1e-7 * x)


def _csv_writer_reference(path, header, columns):
    """Reference writer: csv.writer with one '%.17g' call per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in np.column_stack(columns):
        writer.writerow(["%.17g" % v for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


@pytest.mark.parametrize("n_rows", [3, 257])
def test_write_csv_matches_csv_writer_bytes(tmp_path, rng, n_rows):
    special = [-0.0, 0.0, 1e-300, -1e-300, 1e300, 0.1, 1.0, -7.0, 2.0**53, 1.0 / 3.0, 5e-324]
    scale = 10.0 ** rng.integers(-20, 20, 4 * n_rows)
    cells = np.resize(np.concatenate([special, rng.standard_normal(4 * n_rows) * scale]), (n_rows, 4))
    assert np.array_equal(cells.ravel()[: len(special)], special)  # every special value is written
    cols = [np.arange(n_rows, dtype=float)] + list(cells.T)
    header = ["t", "y1", "y2", "T=0.5", "e4"]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    dataio._write_csv(str(new), header, cols)
    _csv_writer_reference(str(ref), header, cols)
    assert new.read_bytes() == ref.read_bytes()


def _single_string_reference(path, header, columns):
    """The writer before blocked formatting: one '%' of the whole table."""
    rows = np.column_stack(columns)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write((row * rows.shape[0]) % tuple(rows.ravel().tolist()))


@pytest.mark.parametrize("n_cols", [1, 5, 33])
@pytest.mark.parametrize("extra", [None, -1, 0, 1])
def test_blocked_writer_matches_the_single_string_bytes(tmp_path, rng, n_cols, extra):
    # around one block boundary (rows step - 1, step, step + 1) and with no
    # rows at all, which writes the header line alone (an exp kernel.csv)
    step = max(1, dataio._BLOCK_CELLS // n_cols)
    n_rows = 0 if extra is None else step + extra
    cols = list(rng.standard_normal((n_cols, n_rows)) * 10.0 ** rng.integers(-20, 20, (n_cols, n_rows)))
    header = [f"c{j}" for j in range(n_cols)]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    dataio._write_csv(str(new), header, cols)
    _single_string_reference(str(ref), header, cols)
    assert new.read_bytes() == ref.read_bytes()
    if n_rows == 0:
        assert new.read_bytes() == (",".join(header) + "\r\n").encode()


def test_writer_transient_stays_one_block(tmp_path, rng):
    # an exp A7 response table is 513 x 33 cells: the single-string writer
    # peaked at ~1.27 MB of Python floats and text, one block at ~0.4 MB
    cols = list(rng.standard_normal((33, 513)))
    header = ["t"] + [f"y{j}" for j in range(1, 33)]
    tracemalloc.start()
    try:
        dataio._write_csv(str(tmp_path / "response.csv"), header, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6, peak


# ---------------------------------------------------------------------------
# The reader against the csv.reader + np.array reader it replaced
# ---------------------------------------------------------------------------


def _reference_read_csv(path, header, grid=None):
    """The csv.reader + np.array reader that one np.loadtxt call replaced:
    the yardstick for the bits and the failures of dataio._read_csv."""
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file {path}")
    with dataio._input_stage(DataFormatError, path), open(path, newline="") as fh:
        rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            raise DataFormatError(f"{path} must have the columns {','.join(header)}")
        if len(rows) == 1:
            raise DataFormatError(f"{path} has no data rows")
        data = np.array(rows[1:], dtype=float)
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


def _bits(columns):
    return np.array(columns).view(np.int64)


def _read_both(path, header, grid=None):
    """The reader's columns, or None if it raised DataFormatError; whatever
    it loads, the reference reader loads too, bit for bit."""
    try:
        new = dataio._read_csv(str(path), header, grid)
    except DataFormatError:
        return None
    ref = _reference_read_csv(str(path), header, grid)  # raises if it would not load
    assert np.array_equal(_bits(new), _bits(ref))
    return new


_EDGE_DOUBLES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7e308, -1.7e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 600),
    n_cols=st.integers(1, 40),
    drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
)
def test_reader_is_bit_exact_against_csv_reader(seed, n_rows, n_cols, drawn):
    # random bit patterns span every exponent, subnormals included; the edge
    # values and hypothesis's own floats are scattered over the table
    rng = np.random.default_rng(seed)
    bits = rng.integers(-(2**63), 2**63 - 1, (n_rows, n_cols), dtype=np.int64, endpoint=True)
    cells = bits.view(np.float64)
    bits[~np.isfinite(cells)] ^= np.int64(1 << 62)  # clear the top exponent bit: finite
    extra = np.array(_EDGE_DOUBLES + drawn)
    cells.ravel()[rng.integers(0, cells.size, len(extra))] = extra
    header = [f"c{j}" for j in range(n_cols)]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "table.csv")
        dataio._write_csv(path, header, list(cells.T))
        new = dataio._read_csv(path, header)
        assert np.array_equal(_bits(new), _bits(_reference_read_csv(path, header)))
    assert np.array_equal(_bits(new), cells.T.view(np.int64))


def test_a7_bundle_loads_identically_through_both_readers(tmp_path, monkeypatch):
    # exp:1 at A7 size (n_basis = 32, dt = 1/256 on T_max = 1, L = 2), noisy
    cfg = RunConfig(
        kernel="exp:1", L=2.0, T_max=1.0, dt=1.0 / 256, n_basis=32,
        q="const:1 + sin:0.25,1", noise_sigma=1e-5, seed=3,
    )
    bundle = str(tmp_path / "a7")
    synthesize(cfg, bundle)
    grid2, x_grid = cfg.doubled_grid(), TimeGrid(cfg.dt, round(cfg.L / cfg.dt))
    files = {  # kernel.csv of an exp kernel is its header line only
        "basis.csv": (["node"], None),
        "response.csv": (["t"] + [f"y{i + 1}" for i in range(32)], grid2),
        "q_true.csv": (["x", "q"], x_grid),
    }
    for name, (header, grid) in files.items():
        assert _read_both(os.path.join(bundle, name), header, grid) is not None, name
    table, q_true, manifest = load_bundle(bundle)
    monkeypatch.setattr(dataio, "_read_csv", _reference_read_csv)
    ref_table, ref_q_true, ref_manifest = load_bundle(bundle)
    assert manifest == ref_manifest
    for a, b in (
        (table.Y, ref_table.Y),
        (table.basis.knot_nodes, ref_table.basis.knot_nodes),
        (q_true, ref_q_true),
    ):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _small_response(tmp_path):
    """A small bundle's response.csv: its path, header, grid and CRLF lines."""
    bundle = tmp_path / "bundle"
    cfg = _small_cfg(q="const:1 + sin:0.25,1")
    synthesize(cfg, str(bundle))
    path = bundle / "response.csv"
    header = ["t"] + [f"y{i + 1}" for i in range(cfg.n_basis)]
    return path, header, cfg.doubled_grid(), path.read_bytes().decode().split("\r\n")[:-1]


def _crlf(lines):
    return "\r\n".join(lines) + "\r\n"


def _whole_line_edits(lines):
    """Edited file texts: name -> (text, whether the reader must load it)."""
    mid = len(lines) // 2
    row = lines[mid].split(",")
    quoted_header = ",".join(f'"{cell}"' for cell in lines[0].split(","))
    return {
        "blank line inserted": (_crlf(lines[:mid] + [""] + lines[mid:]), False),
        "blank line for a row": (_crlf(lines[:mid] + [""] + lines[mid + 1 :]), False),
        "trailing blank line": (_crlf(lines + [""]), False),
        "header only": (_crlf(lines[:1]), False),
        "header and blank lines": (_crlf(lines[:1] + ["", ""]), False),
        "empty file": ("", False),
        "short row": (_crlf(lines[:mid] + [",".join(row[:-1])] + lines[mid + 1 :]), False),
        "long row": (_crlf(lines[:mid] + [lines[mid] + ",0"] + lines[mid + 1 :]), False),
        "row split in two": (
            _crlf(lines[:mid] + [",".join(row[:2]), ",".join(row[2:])] + lines[mid + 1 :]), False
        ),
        "# in a cell": (_crlf(lines[:mid] + [lines[mid] + "#1"] + lines[mid + 1 :]), False),
        "# for a cell": (_crlf(lines[:mid] + [",".join(row[:-1] + ["#"])] + lines[mid + 1 :]), False),
        "# comment line": (_crlf(lines[:mid] + ["# note"] + lines[mid:]), False),
        "quoted header": (_crlf([quoted_header] + lines[1:]), True),
        "quoted cell": (_crlf(lines[:mid] + [",".join([f'"{row[0]}"'] + row[1:])] + lines[mid + 1 :]), True),
        "quoted cell with a line end": (
            _crlf(lines[:mid] + [",".join(row[:-1] + [f'"{row[-1]}\r\n"'])] + lines[mid + 1 :]), False
        ),
        "no final CRLF": (_crlf(lines)[:-2], True),
        "bare LF": ("\n".join(lines) + "\n", True),
        "bare LF, no final LF": ("\n".join(lines), True),
    }


def test_whole_line_edits_load_the_reference_values_or_raise(tmp_path):
    path, header, grid, lines = _small_response(tmp_path)
    for name, (text, loads) in _whole_line_edits(lines).items():
        path.write_bytes(text.encode())
        for g in (grid, None):
            new = _read_both(path, header, g)
            assert (new is not None) == loads, (name, g)
        if not loads:
            with pytest.raises(DataFormatError):
                load_bundle(str(path.parent))


def test_whole_line_edit_exits_4(tmp_path):
    path, _, _, lines = _small_response(tmp_path)
    path.write_bytes(_whole_line_edits(lines)["blank line inserted"][0].encode())
    assert main(["identify", str(path.parent)]) == 4


def test_line_and_cell_edit_fuzz_against_reference_reader(tmp_path):
    path, header, grid, lines = _small_response(tmp_path)
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    cells = st.one_of(
        text,
        _numbers.map(str),
        st.sampled_from(['"1"', '"1"2', '1"2"', '""', '"', '"1,2"', "1_0", "١", "\xa01 ", "#", "0x1p-3", "\r", "\n"]),
    )

    @settings(max_examples=300, deadline=None)
    @given(edit=st.sampled_from(["cell", "insert", "replace", "delete"]), data=st.data())
    def edit_one(edit, data):
        new = list(lines)
        r = data.draw(st.integers(0, len(lines) - 1), label="line")
        if edit == "cell":
            row = new[r].split(",")
            row[data.draw(st.integers(0, len(row) - 1), label="col")] = data.draw(cells, label="cell")
            new[r] = ",".join(row)
        elif edit == "delete":
            del new[r]
        else:
            drawn = data.draw(st.one_of(text, st.lists(cells, max_size=6).map(",".join)), label="text")
            new[r : r + (edit == "replace")] = [drawn]
        path.write_bytes(_crlf(new).encode())
        _read_both(path, header, grid)
        _read_both(path, header)

    edit_one()
