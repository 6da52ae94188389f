import filecmp
import operator
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscostring.errors import ConfigError, DataFormatError
from viscostring.grid import TimeGrid
from viscostring.connecting import hat_basis
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
    # the legacy threads key is accepted and has no effect
    assert parse_config(text + "threads = 2\n") == cfg


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("kernel = const\nn_basiss = 4\n")


def test_parse_config_rejects_bad_syntax_and_duplicates():
    with pytest.raises(ConfigError):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("L = 1\nL = 2\n")


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
    f = parse_control_spec("sin2", g)
    assert f[0] == 0.0 and abs(f[50] - 1.0) <= 1e-12
    f2 = parse_control_spec("poly:0,1", g)
    assert np.allclose(f2, g.nodes())
    with pytest.raises(ConfigError):
        parse_control_spec("nope", g)


_FUZZ_GRID = TimeGrid(1.0 / 32, 64)  # T_max = 2, so polynomial terms can overflow
_FUZZ_BASIS = hat_basis(_FUZZ_GRID, 5)
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
    # with or without a basis: a finite control on the grid, or ConfigError
    for basis in (None, _FUZZ_BASIS):
        try:
            f = parse_control_spec(spec, _FUZZ_GRID, basis)
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
