"""Command-line entry point.

Commands: ingest, fit, backtest, attack (sweep | targeted), report.
Any pipeline error is reported with its module name and a nonzero exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import pipeline
from .errors import EpsimError


def _add_config_args(parser):
    parser.add_argument("--config", required=True, help="run configuration (JSON)")
    parser.add_argument("--out", help="output directory (default: config output_dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsim",
        description="Deterministic daily backtester with a single-day "
        "data-feed perturbation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_args(sub.add_parser("ingest", help="validate, align, and report the split"))
    _add_config_args(sub.add_parser("fit", help="fit baseline predictors, emit fit reports"))
    _add_config_args(sub.add_parser("backtest", help="run the baseline simulation"))

    atk = sub.add_parser("attack", help="run perturbation experiments")
    atk.add_argument("submode", choices=sorted(set(pipeline.ATTACK_SUBMODES.values())))
    _add_config_args(atk)
    atk.add_argument("--ticker", help="override the attacked ticker")
    atk.add_argument(
        "--omega",
        type=int,
        action="append",
        help="sigma window for sweep mode (repeatable)",
    )
    atk.add_argument(
        "--mode", choices=tuple(pipeline.ATTACK_SUBMODES), help="override attack mode"
    )

    rep = sub.add_parser("report", help="summarize result files")
    rep.add_argument("files", nargs="+", help="result.json / *_summary.json / *_cells.csv")
    rep.add_argument("--out", default=".", help="where to write the quantile table")

    return parser


def _out_dir(args, config) -> str:
    return args.out if args.out else config.resolve(config.output_dir)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            for line in pipeline.cmd_report(args.files, args.out):
                print(line)
            return 0

        config = pipeline.RunConfig.from_file(args.config)

        if args.command == "attack":
            overrides = {} if config.attack is None else dataclasses.asdict(config.attack)
            flags = {"ticker": args.ticker, "omegas": args.omega, "mode": args.mode}
            overrides.update({k: v for k, v in flags.items() if v})
            modes = [m for m, s in pipeline.ATTACK_SUBMODES.items() if s == args.submode]
            if len(modes) == 1:  # a submode with one mode needs no attack.mode
                overrides.setdefault("mode", modes[0])
            config = dataclasses.replace(
                config, attack=pipeline.AttackConfig.from_dict(overrides)
            )
            paths = pipeline.cmd_attack(config, _out_dir(args, config), args.submode)
            for name in sorted(paths):
                print(f"{name}: {paths[name]}")
            return 0

        out_dir = _out_dir(args, config)
        if args.command == "ingest":
            report = pipeline.cmd_ingest(config, out_dir)
            print(
                f"{len(report['tickers'])} tickers, "
                f"{report['calendar']['n_days']} aligned days "
                f"({report['calendar']['start']} .. {report['calendar']['end']}), "
                f"train={report['n_train']} test={report['n_test']}"
            )
        elif args.command == "fit":
            reports = pipeline.cmd_fit(config, out_dir)
            for r in reports:
                print(f"{r.ticker}: rmse_test={r.rmse_test:.4f} (n_test={r.n_test})")
        elif args.command == "backtest":
            result = pipeline.cmd_backtest(config, out_dir)
            print(
                f"sharpe={result.sharpe_ratio:.4f} "
                f"final_cr={result.final_cumulative_return():.4%} "
                f"final_value={result.final_value:.2f} "
                f"trades={len(result.trade_ledger)}"
            )
        return 0
    except EpsimError as exc:
        print(f"error [{exc.module}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
