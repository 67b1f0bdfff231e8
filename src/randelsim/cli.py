"""Command line interface.

    randelsim run --scenario <file> [--design <name>] [--seed <n>] --out <csv>
    randelsim compare --scenario <file> --out <dir>
    randelsim presets list

Exit codes: 0 success, 1 run failure, 2 validation error. A scenario argument
that is not an existing file is resolved against the bundled presets.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import compare_designs, run_scenario
from .scenario import (ScenarioConfig, ScenarioError, load_scenario,
                       preset_names, preset_path)


def _resolve_scenario(arg: str) -> ScenarioConfig:
    path = Path(arg)
    if not path.exists():
        path = preset_path(arg)
    return load_scenario(path)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_scenario(args.scenario)
    config = config.with_overrides(design=args.design, seed=args.seed)
    report = run_scenario(config)
    Path(args.out).write_text(report.to_csv())
    agg = report.aggregates
    print(f"{config.name} design={config.design} seed={report.seed}: "
          f"{agg['attempts']} attempts, "
          f"success={report.success_rate():.3f}, "
          f"backhaul_bytes={agg['total_backhaul_bytes']}, "
          f"audit={';'.join(report.audit_flags) or 'none'}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _resolve_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = compare_designs(config)
    for design, report in comparison.reports.items():
        (out_dir / f"{config.name}-{design}.csv").write_text(report.to_csv())
    table = comparison.to_csv()
    (out_dir / f"{config.name}-comparison.csv").write_text(table)
    print(table, end="")
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in preset_names():
            print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randelsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario under one design")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--design", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run all four designs side by side")
    cmp_p.add_argument("--scenario", required=True)
    cmp_p.add_argument("--out", required=True)
    cmp_p.set_defaults(func=_cmd_compare)

    pre_p = sub.add_parser("presets", help="bundled scenario presets")
    pre_p.add_argument("action", choices=["list"])
    pre_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - run failures map to exit code 1
        print(f"run failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
