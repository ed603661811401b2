"""Command-line front end.

Exit codes: 0 success, 1 configuration error (bad file, bad --set override,
unknown verification suite), 2 time integration diverged, 3 verification
suite reported failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .study import ConfigError, _resolve_out_dir, dump_field, dump_mesh, load_config, run_study
from .timestepping import IntegrationDivergedError
from .verify import run_checks, run_suite


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to a study config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (repeatable), e.g. --set space.degree=4",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgcentral",
        description="Convergence studies for a central-flux discontinuous Galerkin advection solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the refinement ladder of a config and write CSV/Markdown tables")
    _add_config_args(run_p)
    run_p.add_argument(
        "--paper-scale",
        action="store_true",
        help="lift the desk-scale resolution caps (expect hours of runtime at full table sizes)",
    )

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("suite", help="energy | projection | superconvergence | all")
    verify_p.add_argument("--json", action="store_true", help="print a JSON list of {suite, name, passed, detail}")

    for name, what in (
        ("dump-mesh", "write the node coordinates of every ladder level"),
        ("dump-field", "project the initial data at the coarsest level and dump coefficients"),
    ):
        dump_p = sub.add_parser(name, help=what)
        _add_config_args(dump_p)
        dump_p.add_argument("--out", default=None, help="output directory (defaults to the config's output.dir)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            try:
                if args.json:
                    checks = [
                        {"suite": suite, "name": res.name, "passed": res.passed, "detail": res.detail}
                        for suite, results in run_checks(args.suite).items()
                        for res in results
                    ]
                    report, ok = json.dumps(checks, indent=2) + "\n", all(check["passed"] for check in checks)
                else:
                    report, ok = run_suite(args.suite)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 1
            print(report, end="")
            return 0 if ok else 3
        cfg = load_config(args.config, tuple(args.overrides))  # run, dump-mesh and dump-field
        if args.command == "run":
            table = run_study(cfg, paper_scale=args.paper_scale, log=print)
            print()
            print(table.to_markdown_text(), end="")
            if cfg.out_dir is not None:
                print(f"(tables written under {_resolve_out_dir(cfg)})")
        elif args.command == "dump-mesh":
            for path in dump_mesh(cfg, args.out):
                print(path)
        else:
            print(dump_field(cfg, args.out))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
