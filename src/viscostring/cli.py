"""Command-line front end.

Subcommands: synthesize, connect, identify, verify, resolvent, forward.
Exit codes: 0 success, 1 verification failures, 2 configuration error,
3 numerical failure, 4 data-format error.  Input is classified where it is
parsed (dataio); this module dispatches and writes files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, DataFormatError, NumericalFailure
from .grid import Sampled1D
from .kernels import resolvent as _resolvent
from .forward import StringProblem, solve_mild
from .connecting import gram_from_data
from .identify import default_horizons, pipeline
from .dataio import (
    RunConfig,
    _format,
    _write_csv,
    load_bundle,
    parse_config,
    parse_control_spec,
    synthesize,
)
from .verification import format_report, run_all


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config(fh.read())


def cmd_synthesize(args) -> int:
    cfg = _load_config(args.config)
    out = args.out or cfg.out
    path = synthesize(cfg, out)
    print(f"bundle written to {path}")
    return 0


def cmd_connect(args) -> int:
    table, _, _ = load_bundle(args.bundle)
    gram = gram_from_data(table)
    out = args.out or args.bundle
    os.makedirs(out, exist_ok=True)
    horizons = default_horizons(table.basis, min_active=1)
    idx = [gram.index_of(T) for T in horizons]
    n = table.basis.n
    ii, jj = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    cols = [ii.ravel(), jj.ravel()] + [gram.C[k].ravel() for k in idx]
    header = ["i", "j"] + [f"T={_format(gram.horizons[k])}" for k in idx]
    path = os.path.join(out, "gram.csv")
    _write_csv(path, header, cols)
    print(f"gram matrices ({len(idx)} horizons) written to {path}")
    return 0


def cmd_identify(args) -> int:
    table, q_true, _ = load_bundle(args.bundle)
    cfg = _load_config(args.config)
    icfg = cfg.identify_config(table.basis)
    result = pipeline(table, icfg)
    out = args.out or args.bundle
    os.makedirs(out, exist_ok=True)

    rows = list(result.rows())
    _write_csv(
        os.path.join(out, "results.csv"),
        ["T", "xi", "q_hat", "residual", "lambda", "guard_flag"],
        [np.array([r[k] for r in rows]) for k in range(6)],
    )
    lines = [f"horizons={len(result.horizons)}", f"n_basis={result.meta['n_basis']}"]
    if q_true is not None:
        dt = table.basis.grid.dt
        x = np.arange(len(q_true)) * dt
        q_ref = np.interp(result.horizons, x, q_true)
        err = result.q_hat - q_ref
        lines.append(f"max_abs_error={_format(float(np.max(np.abs(err))))}")
        denom = float(np.linalg.norm(q_ref))
        err_l2 = float(np.linalg.norm(err))
        if denom > 0:
            lines.append(f"rel_l2_error={_format(err_l2 / denom)}")
        else:  # q_true == 0: a relative norm has nothing to divide by
            lines.append(f"l2_error={_format(err_l2)}")
    else:
        lines.append("q_true=absent (error norms omitted)")
    report = os.path.join(out, "report.txt")
    with open(report, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"results written to {out}")
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.filter)
    if not results:
        raise ConfigError(f"filter {args.filter!r} matches no criterion")
    report = format_report(results)
    print(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "verify.txt"), "w") as fh:
            fh.write(report + "\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_resolvent(args) -> int:
    cfg = _load_config(args.config)
    kernel = cfg.build_kernel2()
    res = _resolvent(kernel)
    out = args.out or cfg.out
    os.makedirs(out, exist_ok=True)
    t = kernel.grid.nodes()
    _write_csv(
        os.path.join(out, "resolvent.csv"),
        ["t", "N", "N1", "R", "R1", "R2deriv", "K"],
        [t, kernel.N.values, kernel.N1.values, res.R.values, res.R1.values,
         res.R2deriv.values, res.K.values],
    )
    summary = (
        f"gamma={_format(res.gamma)}\nalpha={_format(res.alpha)}\n"
        f"residual={_format(res.residual(kernel))}\n"
    )
    with open(os.path.join(out, "resolvent.txt"), "w") as fh:
        fh.write(summary)
    print(summary.strip())
    print(f"kernel diagnostics written to {out}")
    return 0


def cmd_forward(args) -> int:
    cfg = _load_config(args.config)
    kernel2 = cfg.build_kernel2()
    grid = cfg.time_grid()
    f_vals = parse_control_spec(cfg.control, grid, cfg.control_basis())
    p = StringProblem(cfg.L, cfg.q_values(), kernel2, cfg.T_max)
    field = solve_mild(p, Sampled1D(grid, f_vals))
    out = args.out or cfg.out
    os.makedirs(out, exist_ok=True)
    x = field.xgrid.nodes()
    t = field.tgrid.nodes()
    _write_csv(
        os.path.join(out, "field.csv"),
        ["x"] + [f"t={_format(tk)}" for tk in t],
        [x] + [field.w.values[:, k] for k in range(len(t))],
    )
    _write_csv(
        os.path.join(out, "boundary.csv"),
        ["t", "f", "y", "sigma"],
        [t, field.f.values, field.y.values, field.sigma.values],
    )
    print(f"forward run written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscostring",
        description="Viscoelastic string simulation and coefficient identification "
        "from boundary data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bundle=False):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", help="output directory")
        if bundle:
            p.add_argument("bundle", help="dataset bundle directory")

    common(sub.add_parser("synthesize", help="generate a synthetic dataset bundle"))
    common(sub.add_parser("connect", help="connecting Gram matrices from a bundle"), bundle=True)
    common(sub.add_parser("identify", help="reconstruct q from a bundle"), bundle=True)
    pv = sub.add_parser("verify", help="run the acceptance battery")
    pv.add_argument("--filter", help="criterion id or name substring")
    pv.add_argument("--out", help="output directory")
    common(sub.add_parser("resolvent", help="kernel and resolvent diagnostics"))
    common(sub.add_parser("forward", help="single forward simulation dump"))
    return parser


_HANDLERS = {
    "synthesize": cmd_synthesize,
    "connect": cmd_connect,
    "identify": cmd_identify,
    "verify": cmd_verify,
    "resolvent": cmd_resolvent,
    "forward": cmd_forward,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
