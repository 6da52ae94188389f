import filecmp
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from viscostring.cli import main
from viscostring.connecting import hat_basis
from viscostring.dataio import load_bundle, save_bundle
from viscostring.grid import TimeGrid
from viscostring.kernels import build_kernel
import viscostring.forward
import viscostring.kernels
import viscostring.verification as verification


CFG = """
kernel = exp:1.0
L = 1.0
T_max = 0.25
dt = 0.0078125
n_basis = 12
q = const:1
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(CFG)
    return str(p)


def test_synthesize_connect_identify_happy_path(tmp_path, cfg_path, capsys):
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", cfg_path, "--out", bundle]) == 0
    for name in ("manifest.txt", "kernel.csv", "basis.csv", "response.csv", "q_true.csv"):
        assert os.path.isfile(os.path.join(bundle, name))

    out = str(tmp_path / "run")
    assert main(["connect", bundle, "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "gram.csv"))

    assert main(["identify", bundle, "--out", out]) == 0
    with open(os.path.join(out, "results.csv")) as fh:
        assert fh.readline().strip() == "T,xi,q_hat,residual,guard_flag"
    report = Path(out, "report.txt").read_text()
    assert "rel_l2_error=" in report


def test_identify_without_q_true_omits_error_norms(tmp_path, cfg_path):
    bundle = str(tmp_path / "bundle")
    main(["synthesize", "--config", cfg_path, "--out", bundle])
    os.remove(os.path.join(bundle, "q_true.csv"))
    out = str(tmp_path / "run")
    assert main(["identify", bundle, "--out", out]) == 0
    report = Path(out, "report.txt").read_text()
    assert "error" not in report or "omitted" in report


def test_corrupted_manifest_exit_code_4(tmp_path, cfg_path):
    bundle = str(tmp_path / "bundle")
    main(["synthesize", "--config", cfg_path, "--out", bundle])
    with open(os.path.join(bundle, "manifest.txt"), "a") as fh:
        fh.write("garbage_key=1\n")
    assert main(["identify", bundle]) == 4


def test_config_error_exit_code_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kernel = const\nT_max = 0.6\nL = 1.0\ndt = 0.01\n")
    assert main(["synthesize", "--config", str(bad)]) == 2
    missing = str(tmp_path / "nope.cfg")
    assert main(["synthesize", "--config", missing]) == 2
    # structural errors of a config value: no traceback, exit 2
    for line, wrong in (("kernel = exp:1.0", "kernel = exp:-1"), ("n_basis = 12", "n_basis = 40")):
        cfg = tmp_path / "structural.cfg"
        cfg.write_text(CFG.replace(line, wrong))  # 40 hats do not fit on the 32-step grid
        assert main(["synthesize", "--config", str(cfg)]) == 2
    # values that only fail inside a solver are still config errors
    fwd = tmp_path / "fwd.cfg"
    for control in (
        "poly:1",  # f(0) = 1: not at rest
        "poly:0,a",
        "poly:0,nan",
        "poly:1e308,1e308",  # overflows on [0, T_max]
        "hat:x",
        "hat:13",  # the config has 12 hats
    ):
        fwd.write_text(CFG + f"control = {control}\n")
        assert main(["forward", "--config", str(fwd), "--out", str(tmp_path / "fw")]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("horizons", "lattice"),
        ("readout_points", 3),
        ("smoothing_halfwidth", 3),
        ("tikhonov_lambda", "auto"),
        ("xi_zero_guard", "auto"),
    ],
)
def test_retired_identify_key_exits_2(tmp_path, capsys, key, value):
    # identify reads q on the knot lattice only, solves each horizon plainly
    # and guards |xi| > 5*dt; a retired setting is an unknown key, never
    # silently ignored
    bad = tmp_path / "retired.cfg"
    bad.write_text(_config(**{key: value}))
    assert main(["synthesize", "--config", str(bad), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and key in err, err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("command", ["connect", "identify"])
def test_bundle_command_takes_no_config(tmp_path, cfg_path, capsys, command):
    # connect and identify read their bundle only: --config is an argparse error
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", cfg_path, "--out", bundle]) == 0
    capsys.readouterr()
    assert main([command, bundle, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_identify_needs_nine_hats(tmp_path, capsys):
    # the knot lattice of 8 hats is too short; test_identify shows no Gram is built
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_config(n_basis=8))
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
    capsys.readouterr()
    assert main(["identify", bundle, "--out", str(tmp_path / "id")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "n_basis >= 9, got n_basis = 8" in err, err


def _config(**values):
    """CFG with these keys set, replaced or appended."""
    lines = [l for l in CFG.strip().splitlines() if l.split("=")[0].strip() not in values]
    return "\n".join(lines + [f"{k} = {v}" for k, v in values.items()]) + "\n"


# a tamper is a list of (bundle file, text edit) pairs; lists concatenate
def _manifest(key, value):
    return [("manifest.txt", lambda text: re.sub(rf"(?m)^{key}=.*$", f"{key}={value}", text))]


def _drop_key(key):
    return [("manifest.txt", lambda text: re.sub(rf"(?m)^{key}=.*\n", "", text))]


def _knots(edit):
    """Rewrite the knot nodes of basis.csv (its data rows, as strings) with edit."""
    def rewrite(text):
        header, *rows = text.split("\r\n")[:-1]  # the file ends in CRLF
        return "\r\n".join([header] + edit(rows)) + "\r\n"

    return [("basis.csv", rewrite)]


def _cell(name, row, col, value):
    def edit(text):
        rows = text.split("\r\n")
        cells = rows[row].split(",")
        cells[col] = value
        rows[row] = ",".join(cells)
        return "\r\n".join(rows)

    return [(name, edit)]


def _drop_row(name, row):
    return [(name, lambda text: "\r\n".join(r for i, r in enumerate(text.split("\r\n")) if i != row))]


def _exp_kernel_csv():
    """kernel.csv text of CFG's exp:1.0 kernel tabulated on its doubled grid."""
    grid2 = TimeGrid(0.0078125, 64)
    k = build_kernel(grid2, "exp", rate=1.0)
    rows = np.column_stack([grid2.nodes(), k.N.values, k.N1.values, k.N2.values, k.N3.values])
    return "t,N,N1,N2,N3\r\n" + "".join(",".join("%.17g" % v for v in row) + "\r\n" for row in rows)


# the CFG bundle turned into a tabulated one: kernel.csv becomes the kernel
_TABULATED = (
    _drop_key("kernel_rate")
    + _manifest("kernel_kind", "tabulated")
    + [("kernel.csv", lambda text: _exp_kernel_csv())]
)


BAD_INPUTS = [
    # config text: exit 2
    pytest.param("synthesize", _config(q="const:abc"), None, 2, id="q-const-abc"),
    pytest.param("synthesize", _config(q="sin:1,x"), None, 2, id="q-sin-x"),
    pytest.param("synthesize", _config(q="poly:0,a"), None, 2, id="q-poly-a"),
    pytest.param("synthesize", _config(dt="nan"), None, 2, id="dt-nan"),
    pytest.param("synthesize", _config(seed=-1, noise_sigma=1e-3), None, 2, id="seed-negative"),
    pytest.param("synthesize", _config(noise_sigma="nan"), None, 2, id="noise-sigma-nan"),
    pytest.param("synthesize", _config(out="elsewhere"), None, 2, id="retired-out-key"),
    # bundle contents: exit 4
    pytest.param("identify", CFG, _manifest("kernel_rate", "abc"), 4, id="manifest-kernel-rate-abc"),
    pytest.param("identify", CFG, _manifest("dt", "nan"), 4, id="manifest-dt-nan"),
    pytest.param("identify", CFG, _manifest("L", "nan"), 4, id="manifest-L-nan"),
    pytest.param("identify", CFG, _manifest("L", "-5"), 4, id="manifest-L-below-window"),
    # manifest values get the checks of their config twins
    pytest.param("identify", CFG, _manifest("dt", "0"), 4, id="manifest-dt-zero"),
    pytest.param("identify", CFG, _manifest("noise_sigma", "-1"), 4, id="manifest-noise-sigma-negative"),
    pytest.param("identify", CFG, _manifest("seed", "-3"), 4, id="manifest-seed-negative"),
    # kernel_rate goes with an exp kernel, and only with one
    pytest.param("identify", CFG, _drop_key("kernel_rate"), 4, id="manifest-exp-without-rate"),
    pytest.param("identify", CFG, _manifest("kernel_kind", "const"), 4, id="manifest-const-with-rate"),
    # a const or exp kernel.csv is its header line only
    pytest.param(
        "identify", CFG, [("kernel.csv", lambda text: text + "0,1,-1,1,-1\r\n")], 4,
        id="analytic-kernel-csv-with-row",
    ),
    # basis.csv is the basis: the knot nodes 0 2 5 ... 30 32 for CFG, the
    # last one T_max/dt; response.csv must then sit on its doubled grid
    pytest.param("identify", CFG, _cell("basis.csv", 5, 0, "nan"), 4, id="basis-nan-cell"),
    pytest.param("identify", CFG, _knots(lambda k: []), 4, id="knots-missing"),
    pytest.param("identify", CFG, _knots(lambda k: k[:1] + k[-1:]), 4, id="knots-fewer-than-3"),
    pytest.param("identify", CFG, _knots(lambda k: ["1"] + k[1:]), 4, id="knots-first-not-0"),
    pytest.param("identify", CFG, _knots(lambda k: k[:-1] + ["31"]), 4, id="knots-last-not-m"),
    pytest.param("identify", CFG, _knots(lambda k: k[:-1] + ["65"]), 4, id="knots-last-beyond-L"),
    pytest.param("identify", CFG, _knots(lambda k: k[:2] + k[1:-2] + k[-1:]), 4, id="knots-repeated"),
    pytest.param("identify", CFG, _knots(lambda k: k[:1] + k[2:]), 4, id="knots-n-basis-plus-1"),
    pytest.param("identify", CFG, _knots(lambda k: k[:1] + ["1.5"] + k[2:]), 4, id="knots-non-integer"),
    pytest.param("identify", CFG, _cell("q_true.csv", 5, 1, "nan"), 4, id="q-true-nan-cell"),
    pytest.param("identify", CFG, _drop_row("q_true.csv", 7), 4, id="q-true-row-deleted"),
    # kernel.csv ends in CRLF, so row -2 is its last sample; the overflow
    # makes the consistency residual nan (two cells) or inf (one cell)
    pytest.param(
        "identify", CFG,
        _TABULATED + _cell("kernel.csv", -3, 1, "1e308") + _cell("kernel.csv", -2, 1, "1e308"),
        4, id="tabulated-kernel-N-1e308-twice",
    ),
    pytest.param(
        "identify", CFG, _TABULATED + _cell("kernel.csv", -2, 1, "1.7e308"), 4,
        id="tabulated-kernel-N-1.7e308",
    ),
    # a finite control whose solution overflows: exit 3
    pytest.param("forward", _config(control="poly:0,1e308,1e308"), None, 3, id="forward-overflow"),
]


def _run_bad_input(tmp_path, capsys, command, config, tamper):
    """Exit code and stderr of a command on a config, or on the bundle it
    synthesizes with the tamper applied."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    args = [command, "--out", str(tmp_path / "out")]
    if tamper is None:
        args[1:1] = ["--config", str(cfg)]
    else:  # a bundle command reads the bundle alone; the config synthesizes it
        bundle = str(tmp_path / "bundle")
        assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
        for name, edit in tamper:
            path = tmp_path / "bundle" / name
            path.write_bytes(edit(path.read_bytes().decode()).encode())
        args.insert(1, bundle)
        capsys.readouterr()
    return main(args), capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # a stray numpy warning would reach stderr too
@pytest.mark.parametrize("command, config, tamper, code", BAD_INPUTS)
def test_bad_input_fails_at_the_boundary(tmp_path, capsys, command, config, tamper, code):
    got, err = _run_bad_input(tmp_path, capsys, command, config, tamper)
    assert got == code
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert not os.path.exists(tmp_path / "out")  # nothing is written on failure


OVERSIZED_INPUTS = [
    # sizes numpy refuses outright: the arrays would outgrow any address space
    pytest.param(
        "identify", CFG, _knots(lambda k: k[:-1] + ["100000000000000000"]) + _manifest("L", "1e300"),
        4, "response.csv is not sampled on the grid of 200000000000000001 nodes", id="bundle-knot",
    ),
    pytest.param(
        "synthesize", _config(n_basis=10**17), None, 2, "bad n_basis: basis size", id="n-basis"
    ),
    pytest.param(
        "synthesize", _config(L="1e15", dt=1.0 / 256), None, 2, "bad L: Unable to allocate",
        id="synthesize-L",
    ),
    pytest.param(
        "forward", _config(L="1e15", dt=1.0 / 256), None, 2, "bad L: Unable to allocate",
        id="forward-L",
    ),
    # the doubled grid of the kernel has 2 T_max/dt + 1 nodes; the spec is valid
    *(
        pytest.param(
            command, _config(T_max="1e15", L="2e15", dt=1.0 / 256), None, 2,
            "bad T_max: Unable to allocate", id=f"{command}-T_max",
        )
        for command in ("resolvent", "synthesize", "forward")
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, config, tamper, code, message", OVERSIZED_INPUTS)
def test_oversized_input_is_an_input_error(tmp_path, capsys, command, config, tamper, code, message):
    # an input that sizes an array numpy cannot allocate exits with its
    # input class, not with a MemoryError traceback and exit 1
    got, err = _run_bad_input(tmp_path, capsys, command, config, tamper)
    assert got == code and len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert message in err, err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("q, code", [("const:1e+16", 3), ("sin:1e+2,1", 0)])
def test_q_spec_with_signed_exponent(tmp_path, capsys, q, code):
    # an exponent sign joins no terms: const:1e+16 is a valid q that the
    # solver cannot march (exit 3, not a config error), sin:1e+2,1 is 100 sin
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG.replace("q = const:1", f"q = {q}"))
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == code
    if code:
        assert "overflows the solver" in capsys.readouterr().err
        return
    table, q_true, manifest = load_bundle(bundle)
    x = np.arange(len(q_true)) * table.grid2.dt
    assert manifest["q_spec"] == q
    assert np.allclose(q_true, 100.0 * np.sin(np.pi * x), rtol=0.0, atol=1e-12)


def test_bad_tabulated_kernel_exit_code_4(tmp_path):
    # a kernel = file: run writes a tabulated bundle whose kernel.csv is that file
    kfile = tmp_path / "exp.csv"
    kfile.write_bytes(_exp_kernel_csv().encode())
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(CFG.replace("exp:1.0", f"file:{kfile}"))
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
    assert load_bundle(bundle)[2]["kernel_kind"] == "tabulated"
    kpath = os.path.join(bundle, "kernel.csv")
    original = Path(kpath).read_bytes()
    assert original == kfile.read_bytes()
    assert main(["identify", bundle, "--out", str(tmp_path / "ok")]) == 0

    rows = original.decode().split("\r\n")
    for bad in ("0.5", "nan"):  # an inconsistent N1 sample, a non-finite one
        cells = rows[5].split(",")
        cells[2] = bad
        with open(kpath, "w", newline="") as fh:
            fh.write("\r\n".join(rows[:5] + [",".join(cells)] + rows[6:]))
        assert main(["identify", bundle]) == 4
        kcfg = tmp_path / "kfile.cfg"
        kcfg.write_text(CFG.replace("exp:1.0", f"file:{kpath}"))
        assert main(["synthesize", "--config", str(kcfg), "--out", str(tmp_path / "k")]) == 4


@pytest.mark.parametrize("kernel", ["const", "exp:1.0"])
def test_tampered_analytic_kernel_csv_exit_code_4(tmp_path, kernel):
    # const/exp kernels are rebuilt from the manifest; kernel.csv is its header only
    cfg = tmp_path / "k.cfg"
    cfg.write_text(CFG.replace("exp:1.0", kernel))
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
    table, q_true, manifest = load_bundle(bundle)
    copy = str(tmp_path / "copy")
    save_bundle(copy, table, q_true=q_true, L=float(manifest["L"]), q_spec=manifest.get("q_spec"))
    for name in ("manifest.txt", "kernel.csv", "basis.csv", "response.csv", "q_true.csv"):
        assert filecmp.cmp(os.path.join(bundle, name), os.path.join(copy, name), shallow=False), name

    # even the kernel's own t = 0 sample is one row too many
    kpath = Path(bundle, "kernel.csv")
    kpath.write_bytes(kpath.read_bytes() + b"0,1,0,0,0\r\n")
    assert main(["identify", bundle, "--out", str(tmp_path / "run")]) == 4


def test_format_1_bundle_exits_4_naming_its_version(tmp_path, cfg_path, capsys):
    # a format-1 manifest also held T_max, n_basis and basis_knot_indices; the
    # version is checked first, so the error names it and not those keys
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", cfg_path, "--out", bundle]) == 0
    man = Path(bundle, "manifest.txt")
    v1 = man.read_text().replace("format_version=2", "format_version=1")
    knots = " ".join(str(i) for i in hat_basis(TimeGrid(0.0078125, 32), 12).knot_nodes)
    man.write_text(v1 + f"T_max=0.25\nn_basis=12\nbasis_knot_indices={knots}\n")
    capsys.readouterr()
    assert main(["identify", bundle, "--out", str(tmp_path / "id")]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unsupported format_version '1'" in err, err
    assert "T_max" not in err and not (tmp_path / "id").exists()


def test_identify_report_with_zero_q_true(tmp_path):
    reports = {}
    for q in ("const:1", "const:0"):
        cfg = tmp_path / f"{q[-1]}.cfg"
        cfg.write_text(CFG.replace("q = const:1", f"q = {q}"))
        bundle, out = str(tmp_path / f"bundle{q[-1]}"), str(tmp_path / f"run{q[-1]}")
        assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
        assert main(["identify", bundle, "--out", out]) == 0
        reports[q] = Path(out, "report.txt").read_text().splitlines()
    keys = lambda lines: [line.split("=")[0] for line in lines]
    assert keys(reports["const:1"]) == ["horizons", "n_basis", "max_abs_error", "rel_l2_error"]
    # q_true == 0: an absolute norm stands in for the relative one, which is nan
    assert keys(reports["const:0"]) == ["horizons", "n_basis", "max_abs_error", "l2_error"]
    assert "nan" not in "".join(reports["const:0"])
    assert float(reports["const:0"][3].split("=")[1]) >= float(reports["const:0"][2].split("=")[1])


def test_retired_threads_key_exits_2(tmp_path, capsys):
    # threads had no effect on any computation; like any unknown key it now
    # stops every config-reading command with one line naming it
    retired = tmp_path / "retired.cfg"
    retired.write_text(CFG + "threads = 4\n")
    for command in ("synthesize", "resolvent", "forward"):
        assert main([command, "--config", str(retired), "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "threads" in err, err
        assert not (tmp_path / command).exists()


def test_forward_and_resolvent_dumps(tmp_path, cfg_path):
    out = str(tmp_path / "fw")
    assert main(["forward", "--config", cfg_path, "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "field.csv"))
    assert os.path.isfile(os.path.join(out, "boundary.csv"))
    out2 = str(tmp_path / "kr")
    assert main(["resolvent", "--config", cfg_path, "--out", out2]) == 0
    text = Path(out2, "resolvent.txt").read_text()
    assert "gamma=-0.5" in text

    # a non-dyadic exp rate: K is an exact zero, written as "0"
    cfg = tmp_path / "exp03.cfg"
    cfg.write_text(CFG.replace("kernel = exp:1.0", "kernel = exp:0.3"))
    out3 = str(tmp_path / "kr03")
    assert main(["resolvent", "--config", str(cfg), "--out", out3]) == 0
    lines = Path(out3, "resolvent.csv").read_text().splitlines()
    assert lines[0].split(",") == ["t", "N", "N1", "R", "K"]
    assert all(line.split(",")[4] == "0" for line in lines[1:])


def test_forward_hat_control(tmp_path):
    cfg = tmp_path / "hat.cfg"
    cfg.write_text(CFG + "control = hat:2\n")
    out = str(tmp_path / "fw")
    assert main(["forward", "--config", str(cfg), "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "field.csv"))
    t, f, y, sigma = np.loadtxt(os.path.join(out, "boundary.csv"), delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(f, hat_basis(TimeGrid(0.0078125, 32), 12).samples[1])
    assert np.all(np.isfinite(y)) and np.max(np.abs(y)) > 0.0


def test_verify_filter_runs_single_criterion(tmp_path, capsys):
    assert main(["verify", "--filter", "resolvent", "--out", str(tmp_path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 and lines[0].startswith("A1 pass")
    saved = (tmp_path / "verify.txt").read_text()
    assert saved.startswith("A1 pass")


def test_verify_line_ends_with_the_runtime():
    # id, status, measured, threshold, then the seconds the criterion took
    (res,) = verification.run_all("A1")
    cid, status, measured, threshold, secs = res.line().split(" ")
    assert (cid, status) == ("A1", "pass")
    assert (measured, threshold) == (f"{res.measured:.6e}", f"{res.threshold:.6e}")
    assert secs == f"{res.seconds:.3f}s" and res.seconds > 0.0


def test_verify_unknown_filter_is_config_error():
    assert main(["verify", "--filter", "no-such-criterion"]) == 2


def test_verify_reports_failure_exit_code(monkeypatch, capsys):
    # mutation smoke test: flipping the sign of alpha in the transform must
    # make the forward-oracle criterion fail, the report localize it, and the
    # CLI signal it through exit code 1
    true_resolvent = viscostring.kernels.resolvent

    def flipped(kernel):
        res = true_resolvent(kernel)
        return replace(res, alpha=-res.alpha)

    monkeypatch.setattr(viscostring.forward, "resolvent", flipped)
    results = verification.run_all("A3")
    assert len(results) == 1
    assert not results[0].passed
    assert results[0].line().startswith("A3 FAIL")
    assert main(["verify", "--filter", "A3"]) == 1
    out = capsys.readouterr().out
    assert "A3 FAIL" in out


def test_numerical_failure_exit_code_3(tmp_path, cfg_path, capsys):
    # negated responses negate every Gram: the first horizon's is not
    # positive definite, so identify stops at its guard
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", cfg_path, "--out", bundle]) == 0
    table, q_true, manifest = load_bundle(bundle)
    negated = replace(table, Y=-table.Y)
    save_bundle(bundle, negated, q_true=q_true, L=float(manifest["L"]), q_spec=manifest["q_spec"])
    capsys.readouterr()
    assert main(["identify", bundle, "--out", str(tmp_path / "id")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "T=0.078125 is not positive definite" in err, err
    assert not (tmp_path / "id").exists()
