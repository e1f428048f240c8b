"""Command-line front end.

One subcommand per capability: `solve` runs a splitting variant and writes
the residual trace, `analyze` certifies the averaged-update spectrum,
`compare-bcd` tabulates block-order rates, `rp-expect` follows the expected
trajectory of the randomly permuted scheme (optionally with sampled trials),
and `witness` searches for a non-uniqueness direction.

Every command writes its artifacts into the --out directory with the run
configuration echoed in the file headers, so identical invocations produce
byte-identical output. Exit codes: 0 success, 2 invalid input,
3 divergence guard tripped, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import CoupledSplittingError, UsageError
from .model import load_instance
from .rp import run_expected_iteration, run_rp_solver
from .solvers import _fmt, _write_artifact, SolverConfig, VARIANTS, check_integer, run_solver
from .spectral import analyze_instance, bcd_rate_matrices, divergence_witness, save_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_USAGE = 64

class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_seed(value) -> int:
    if value is None:
        raw = os.environ.get("COUPLED_SPLITTING_SEED", "0")
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"COUPLED_SPLITTING_SEED={raw!r} is not an integer")
    return check_integer(value, "seed", 0)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_header(cfg: SolverConfig) -> list:
    return [
        f"variant={cfg.variant}",
        f"beta={_fmt(cfg.beta)}",
        f"gamma={_fmt(cfg.gamma)}",
        f"tol={_fmt(cfg.tol)}",
        f"max_iter={cfg.max_iter}",
        f"seed={cfg.seed}",
    ]


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = SolverConfig(
        variant=args.variant,
        beta=args.beta,
        gamma=args.gamma,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=_resolve_seed(args.seed),
    )
    trace = run_solver(inst, cfg)
    path = _out_dir(args) / "trace.csv"
    trace.to_csv(path, header_lines=["command=solve", f"instance={Path(args.instance).name}"] + _config_header(cfg))
    last = len(trace) - 1
    print(f"wrote {path}")
    print(f"status={trace.status} iterations={trace.ks[last]} max_residual={_fmt(trace.max_residual(last))}")
    return EXIT_DIVERGENCE if trace.status == "diverged" else EXIT_OK


def _cmd_analyze(args) -> int:
    inst = load_instance(args.instance)
    report = analyze_instance(inst, args.beta)
    path = _out_dir(args) / "report.json"
    save_report(report, path)
    print(f"wrote {path}")
    for key in sorted(report.verdicts):
        print(f"{key}={report.verdicts[key]}")
    print(f"rho_M={_fmt(report.rho_M)} am_one={report.am_one} gm_one={report.gm_one}")
    return EXIT_OK


def _cmd_compare_bcd(args) -> int:
    inst = load_instance(args.instance)
    inst.require_two_blocks("compare-bcd")
    inst.require_zero_terms("compare-bcd")
    cmp = bcd_rate_matrices(inst.H, inst.blocks.dims[0])
    path = _out_dir(args) / "compare_bcd.csv"
    cells = [_fmt(cmp.rho1), _fmt(cmp.rho2), _fmt(cmp.rho3), _fmt(cmp.sigma1), _fmt(cmp.rho3_closed_form)]
    _write_artifact(
        path,
        f"# command=compare-bcd instance={Path(args.instance).name}\n"
        f"rho1,rho2,rho3,sigma1,rho3_closed_form\n{','.join(cells)}\n",
    )
    print(f"wrote {path}")
    print(f"rho1={_fmt(cmp.rho1)} rho2={_fmt(cmp.rho2)} rho3={_fmt(cmp.rho3)}")
    return EXIT_OK


def _cmd_rp_expect(args) -> int:
    check_integer(args.trials, "trials", 0)
    inst = load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    header = [
        "command=rp-expect",
        f"instance={Path(args.instance).name}",
        f"beta={_fmt(args.beta)}",
        f"tol={_fmt(args.tol)}",
        f"max_iter={args.max_iter}",
        f"seed={seed}",
        f"trials={args.trials}",
    ]
    expect = run_expected_iteration(inst, args.beta, k_max=args.max_iter, tol=args.tol)
    out = _out_dir(args)
    path = out / "expectation.csv"
    expect.to_csv(path, header_lines=header)
    print(f"wrote {path}")
    print(f"expected_status={expect.status} steps={expect.ks[-1]}")
    if args.trials > 0:
        cfg = SolverConfig(
            variant="admm_cyclic_n",
            beta=args.beta,
            gamma=1.0,
            tol=args.tol,
            max_iter=args.max_iter,
            seed=seed,
        )
        traces, mean_trace = run_rp_solver(inst, cfg, trials=args.trials)
        mean_path = out / "expectation_sampled.csv"
        mean_trace.to_csv(mean_path, header_lines=header)
        trials_path = out / "trials.csv"
        parts = [f"# {line}\n" for line in header]
        parts.append(traces[0].csv_columns())
        for trace in traces:
            parts += (trace.csv_rows(), f"# trial={trace.trial} status={trace.status}\n")
        _write_artifact(trials_path, "".join(parts))
        print(f"wrote {mean_path}")
        print(f"wrote {trials_path}")
    else:
        # a run without trials leaves no sampled files of an earlier run
        (out / "expectation_sampled.csv").unlink(missing_ok=True)
        (out / "trials.csv").unlink(missing_ok=True)
    return EXIT_DIVERGENCE if expect.status == "diverged" else EXIT_OK


def _cmd_witness(args) -> int:
    inst = load_instance(args.instance)
    cert = divergence_witness(inst, args.beta)
    path = _out_dir(args) / "witness.json"
    doc = {"found": cert is not None}
    if cert is not None:
        doc.update(cert.to_dict())
    _write_artifact(path, json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    if cert is None:
        print("witness: none (subproblem curvature is positive definite)")
    else:
        print(f"witness: found, min_eigenvalue={_fmt(cert.min_eigenvalue)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coupled-splitting",
        description="Splitting solvers and spectral certification for block-separable "
        "convex programs with quadratic coupling and linear constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--out", default=".", help="output directory (default: current directory)")

    p_solve = sub.add_parser("solve", help="run a splitting variant and write the residual trace")
    add_common(p_solve)
    p_solve.add_argument("--variant", default="admm2", choices=VARIANTS)
    p_solve.add_argument("--beta", type=float, default=1.0, help="augmented penalty (default 1)")
    p_solve.add_argument("--gamma", type=float, default=1.0, help="dual stepsize (default 1)")
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-iter", type=int, default=100_000)
    p_solve.add_argument("--seed", type=int, default=None, help="default: $COUPLED_SPLITTING_SEED or 0")

    p_analyze = sub.add_parser("analyze", help="certify the averaged-update spectrum")
    add_common(p_analyze)
    p_analyze.add_argument("--beta", type=float, default=1.0)

    p_cmp = sub.add_parser("compare-bcd", help="block-order rate comparison for coordinate descent")
    add_common(p_cmp)

    p_rp = sub.add_parser("rp-expect", help="expected trajectory of the randomly permuted scheme")
    add_common(p_rp)
    p_rp.add_argument("--beta", type=float, default=1.0)
    p_rp.add_argument("--tol", type=float, default=1e-10)
    p_rp.add_argument("--max-iter", type=int, default=100_000)
    p_rp.add_argument("--trials", type=int, default=0, help="also run this many sampled trials")
    p_rp.add_argument("--seed", type=int, default=None, help="default: $COUPLED_SPLITTING_SEED or 0")

    p_wit = sub.add_parser("witness", help="search for a non-uniqueness direction")
    add_common(p_wit)
    p_wit.add_argument("--beta", type=float, default=1.0)

    parser.set_defaults(func=None)
    p_solve.set_defaults(func=_cmd_solve)
    p_analyze.set_defaults(func=_cmd_analyze)
    p_cmp.set_defaults(func=_cmd_compare_bcd)
    p_rp.set_defaults(func=_cmd_rp_expect)
    p_wit.set_defaults(func=_cmd_witness)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parse_args keeps no state
    # between calls, and building the tree costs far more than a parse
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CoupledSplittingError, OSError) as exc:
        # invalid input; OSError is a missing or unreadable instance file, or
        # an --out path that is a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
