import filecmp
import os
import re
from pathlib import Path

import numpy as np
import pytest

from viscostring.cli import main
from viscostring.connecting import hat_basis
from viscostring.dataio import load_bundle, save_bundle
from viscostring.grid import TimeGrid
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

    assert main(["identify", bundle, "--config", cfg_path, "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "results.csv"))
    report = Path(out, "report.txt").read_text()
    assert "rel_l2_error=" in report


def test_identify_without_q_true_omits_error_norms(tmp_path, cfg_path):
    bundle = str(tmp_path / "bundle")
    main(["synthesize", "--config", cfg_path, "--out", bundle])
    os.remove(os.path.join(bundle, "q_true.csv"))
    out = str(tmp_path / "run")
    assert main(["identify", bundle, "--config", cfg_path, "--out", out]) == 0
    report = Path(out, "report.txt").read_text()
    assert "error" not in report or "omitted" in report


def test_corrupted_manifest_exit_code_4(tmp_path, cfg_path):
    bundle = str(tmp_path / "bundle")
    main(["synthesize", "--config", cfg_path, "--out", bundle])
    with open(os.path.join(bundle, "manifest.txt"), "a") as fh:
        fh.write("garbage_key=1\n")
    assert main(["identify", bundle, "--config", cfg_path]) == 4


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
    base = tmp_path / "base.cfg"
    base.write_text(CFG)
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", str(base), "--out", bundle]) == 0
    for line in (
        "horizons = 0.15,0.2",  # 0.15 is 19.2 steps of 1/128
        "horizons = every:x",
        "tikhonov_lambda = abc",
        "xi_zero_guard = abc",
    ):
        bad = tmp_path / "identify.cfg"
        bad.write_text(CFG + line + "\n")
        assert main(["identify", bundle, "--config", str(bad), "--out", str(tmp_path / "id")]) == 2


def _config(**values):
    """CFG with these keys set, replaced or appended."""
    lines = [l for l in CFG.strip().splitlines() if l.split("=")[0].strip() not in values]
    return "\n".join(lines + [f"{k} = {v}" for k, v in values.items()]) + "\n"


def _manifest(key, value):
    return "manifest.txt", lambda text: re.sub(rf"(?m)^{key}=.*$", f"{key}={value}", text)


def _cell(name, row, col, value):
    def edit(text):
        rows = text.split("\r\n")
        cells = rows[row].split(",")
        cells[col] = value
        rows[row] = ",".join(cells)
        return "\r\n".join(rows)

    return name, edit


def _drop_row(name, row):
    return name, lambda text: "\r\n".join(r for i, r in enumerate(text.split("\r\n")) if i != row)


BAD_INPUTS = [
    # config text: exit 2
    pytest.param("synthesize", _config(q="const:abc"), None, 2, id="q-const-abc"),
    pytest.param("synthesize", _config(q="sin:1,x"), None, 2, id="q-sin-x"),
    pytest.param("synthesize", _config(q="poly:0,a"), None, 2, id="q-poly-a"),
    pytest.param("synthesize", _config(dt="nan"), None, 2, id="dt-nan"),
    pytest.param("synthesize", _config(seed=-1, noise_sigma=1e-3), None, 2, id="seed-negative"),
    pytest.param("synthesize", _config(noise_sigma="nan"), None, 2, id="noise-sigma-nan"),
    # bundle contents: exit 4
    pytest.param("identify", CFG, _manifest("kernel_rate", "abc"), 4, id="manifest-kernel-rate-abc"),
    pytest.param("identify", CFG, _manifest("dt", "nan"), 4, id="manifest-dt-nan"),
    pytest.param("identify", CFG, _manifest("L", "nan"), 4, id="manifest-L-nan"),
    pytest.param("identify", CFG, _manifest("L", "-5"), 4, id="manifest-L-below-window"),
    pytest.param("identify", CFG, _cell("basis.csv", 5, 1, "nan"), 4, id="basis-nan-cell"),
    pytest.param("identify", CFG, _cell("q_true.csv", 5, 1, "nan"), 4, id="q-true-nan-cell"),
    pytest.param("identify", CFG, _drop_row("q_true.csv", 7), 4, id="q-true-row-deleted"),
    # a finite control whose solution overflows: exit 3
    pytest.param("forward", _config(control="poly:0,1e308,1e308"), None, 3, id="forward-overflow"),
]


@pytest.mark.filterwarnings("error")  # a stray numpy warning would reach stderr too
@pytest.mark.parametrize("command, config, tamper, code", BAD_INPUTS)
def test_bad_input_fails_at_the_boundary(tmp_path, capsys, command, config, tamper, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if tamper is not None:
        base = tmp_path / "base.cfg"
        base.write_text(CFG)
        bundle = str(tmp_path / "bundle")
        assert main(["synthesize", "--config", str(base), "--out", bundle]) == 0
        name, edit = tamper
        path = tmp_path / "bundle" / name
        path.write_bytes(edit(path.read_bytes().decode()).encode())
        args.insert(1, bundle)
        capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert not os.path.exists(tmp_path / "out")  # nothing is written on failure


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


def test_bad_tabulated_kernel_exit_code_4(tmp_path, cfg_path):
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", cfg_path, "--out", bundle]) == 0
    man = os.path.join(bundle, "manifest.txt")
    with open(man) as fh:
        text = fh.read().replace("kernel_kind=exp", "kernel_kind=tabulated")
    with open(man, "w") as fh:
        fh.write(text)
    kpath = os.path.join(bundle, "kernel.csv")
    original = Path(kpath).read_bytes().decode()
    assert main(["identify", bundle, "--config", cfg_path, "--out", str(tmp_path / "ok")]) == 0

    rows = original.split("\r\n")
    for bad in ("0.5", "nan"):  # an inconsistent N1 sample, a non-finite one
        cells = rows[5].split(",")
        cells[2] = bad
        with open(kpath, "w", newline="") as fh:
            fh.write("\r\n".join(rows[:5] + [",".join(cells)] + rows[6:]))
        assert main(["identify", bundle, "--config", cfg_path]) == 4
        kcfg = tmp_path / "kfile.cfg"
        kcfg.write_text(CFG.replace("exp:1.0", f"file:{kpath}"))
        assert main(["synthesize", "--config", str(kcfg), "--out", str(tmp_path / "k")]) == 4


@pytest.mark.parametrize("kernel", ["const", "exp:1.0"])
def test_tampered_analytic_kernel_csv_exit_code_4(tmp_path, kernel):
    # const/exp kernels are rebuilt from the manifest; kernel.csv must agree
    cfg = tmp_path / "k.cfg"
    cfg.write_text(CFG.replace("exp:1.0", kernel))
    bundle = str(tmp_path / "bundle")
    assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
    table, q_true, manifest = load_bundle(bundle)
    copy = str(tmp_path / "copy")
    save_bundle(copy, table, q_true=q_true, L=table.meta["L"], q_spec=manifest.get("q_spec"))
    for name in ("manifest.txt", "kernel.csv", "basis.csv", "response.csv", "q_true.csv"):
        assert filecmp.cmp(os.path.join(bundle, name), os.path.join(copy, name), shallow=False), name

    kpath = os.path.join(bundle, "kernel.csv")
    rows = Path(kpath).read_bytes().decode().split("\r\n")
    rows[2] = rows[2].split(",")[0] + ",5,5,5,5"
    with open(kpath, "w", newline="") as fh:
        fh.write("\r\n".join(rows))
    assert main(["identify", bundle, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4


def test_identify_report_with_zero_q_true(tmp_path):
    reports = {}
    for q in ("const:1", "const:0"):
        cfg = tmp_path / f"{q[-1]}.cfg"
        cfg.write_text(CFG.replace("q = const:1", f"q = {q}"))
        bundle, out = str(tmp_path / f"bundle{q[-1]}"), str(tmp_path / f"run{q[-1]}")
        assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
        assert main(["identify", bundle, "--config", str(cfg), "--out", out]) == 0
        reports[q] = Path(out, "report.txt").read_text().splitlines()
    keys = lambda lines: [line.split("=")[0] for line in lines]
    assert keys(reports["const:1"]) == ["horizons", "n_basis", "max_abs_error", "rel_l2_error"]
    # q_true == 0: an absolute norm stands in for the relative one, which is nan
    assert keys(reports["const:0"]) == ["horizons", "n_basis", "max_abs_error", "l2_error"]
    assert "nan" not in "".join(reports["const:0"])
    assert float(reports["const:0"][3].split("=")[1]) >= float(reports["const:0"][2].split("=")[1])


def test_legacy_threads_key_is_ignored(tmp_path, cfg_path):
    legacy = tmp_path / "legacy.cfg"
    legacy.write_text(CFG + "threads = 4\n")
    outputs = []
    for cfg in (cfg_path, str(legacy)):
        bundle = str(tmp_path / f"bundle-{len(outputs)}")
        out = str(tmp_path / f"run-{len(outputs)}")
        assert main(["synthesize", "--config", cfg, "--out", bundle]) == 0
        assert main(["identify", bundle, "--config", cfg, "--out", out]) == 0
        outputs.append((bundle, out))
    (b0, r0), (b1, r1) = outputs
    for name in ("manifest.txt", "kernel.csv", "basis.csv", "response.csv", "q_true.csv"):
        assert filecmp.cmp(os.path.join(b0, name), os.path.join(b1, name), shallow=False), name
    assert filecmp.cmp(os.path.join(r0, "results.csv"), os.path.join(r1, "results.csv"), shallow=False)


def test_forward_and_resolvent_dumps(tmp_path, cfg_path):
    out = str(tmp_path / "fw")
    assert main(["forward", "--config", cfg_path, "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "field.csv"))
    assert os.path.isfile(os.path.join(out, "boundary.csv"))
    out2 = str(tmp_path / "kr")
    assert main(["resolvent", "--config", cfg_path, "--out", out2]) == 0
    text = Path(out2, "resolvent.txt").read_text()
    assert "gamma=-0.5" in text


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


def test_verify_unknown_filter_is_config_error():
    assert main(["verify", "--filter", "no-such-criterion"]) == 2


def test_verify_reports_failure_exit_code(monkeypatch, capsys):
    # mutation smoke test: flipping the sign of alpha in the transform must
    # make the forward-oracle criterion fail, the report localize it, and the
    # CLI signal it through exit code 1
    from dataclasses import replace

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


def test_numerical_failure_exit_code_3(tmp_path, cfg_path):
    bundle = str(tmp_path / "bundle")
    main(["synthesize", "--config", cfg_path, "--out", bundle])
    bad = tmp_path / "guard.cfg"
    bad.write_text(CFG + "xi_zero_guard = 1e9\n")  # everything under guard
    assert main(["identify", bundle, "--config", str(bad)]) == 3
