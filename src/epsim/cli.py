"""Command-line entry point.

Commands: ingest, fit, backtest, attack (sweep | targeted), report.
Any pipeline error is reported with its module name and a nonzero exit, and
each distinct warning as one line with its module name, or as the error if
the warning filters make it one; an option that takes one value, given
twice, is a config error.

Each command imports only the code it runs: ``ingest`` and ``report`` need
the config and the file formats, and only ``fit``, ``backtest`` and
``attack`` import ``pipeline`` and with it the engine and numpy.

``python -m epsim.cli`` and the ``epsim`` script run :func:`entry`, which
runs :func:`main` as a one-shot process; ``main(argv)`` itself changes no
process state, so tests and the benchmark's in-process passes call it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from typing import NoReturn

from . import files
from .config import ATTACK_SUBMODES, AttackConfig, RunConfig
from .errors import ConfigurationError, EpsimError


class _Once(argparse.Action):
    """Store an option that takes one value: given twice, it fails as a
    config error rather than keep its last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", {})
        if self.dest in given:
            raise ConfigurationError(
                f"{self.option_strings[0]} given twice ({given[self.dest]!r}, "
                f"then {values!r}); it takes one value"
            )
        given[self.dest] = values
        setattr(namespace, self.dest, values)


def _add_config_args(parser):
    parser.add_argument("--config", action=_Once, required=True, help="run configuration (JSON)")
    parser.add_argument(
        "--out", action=_Once, help="output directory (default: config output_dir)"
    )


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
    atk.add_argument("submode", choices=sorted(set(ATTACK_SUBMODES.values())))
    _add_config_args(atk)
    atk.add_argument("--ticker", action=_Once, help="override the attacked ticker")
    atk.add_argument(
        "--omega", type=int, action="append", help="sigma window for sweep mode (repeatable)"
    )
    atk.add_argument(
        "--mode", action=_Once, choices=tuple(ATTACK_SUBMODES), help="override attack mode"
    )

    rep = sub.add_parser("report", help="summarize result files")
    rep.add_argument("files", nargs="+", help="result.json / *_summary.json / *_cells.csv")
    rep.add_argument(
        "--out", action=_Once, default=".", help="where to write the quantile table"
    )

    return parser


def _out_dir(args, config=None) -> str:
    """Where the command writes: ``--out``, else the config's output_dir.
    A path that is, or lies under, an existing non-directory fails before
    any compute, and so does an empty ``--out``."""
    if args.out == "":
        raise ConfigurationError("--out must name a directory, got ''")
    if args.out or config is None:
        out, option = args.out, "--out"
    else:
        out, option = config.resolve(config.output_dir), "output_dir"
    existing = out
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        under = "" if existing == out else f" ({existing} is not one)"
        raise ConfigurationError(f"{option} {out} is not a directory{under}")
    return out


def _tag(category: type) -> str:
    """The module an error or warning line names: an epsim class's
    ``module``, else the class name."""
    return getattr(category, "module", category.__name__)


def main(argv=None) -> int:
    """Run one command and return its exit code. On stderr, each distinct
    warning it raised is one ``warning [module]:`` line, and a failure ends
    with one ``error [module]:`` line; so does a warning that the warning
    filters (``python -W error``) turn into an exception."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, error = _run(build_parser().parse_args(argv)), ""
        except (EpsimError, Warning) as exc:
            code, error = 1, f"error [{_tag(type(exc))}]: {exc}\n"
    notes = dict.fromkeys(f"warning [{_tag(w.category)}]: {w.message}\n" for w in caught)
    sys.stderr.write("".join(notes) + error)
    return code


def _run(args) -> int:
    if args.command == "report":
        for line in files.cmd_report(args.files, _out_dir(args)):
            print(line)
        return 0

    config = RunConfig.from_file(args.config)

    if args.command == "attack":
        if args.submode == "targeted" and args.omega is not None:
            raise ConfigurationError(
                "attack targeted takes no --omega: it sets attack sweep's windows"
            )
        overrides = {} if config.attack is None else config.attack._asdict()
        flags = {"ticker": args.ticker, "omegas": args.omega, "mode": args.mode}
        overrides.update({k: v for k, v in flags.items() if v is not None})
        modes = [m for m, s in ATTACK_SUBMODES.items() if s == args.submode]
        if len(modes) == 1:  # a submode with one mode needs no attack.mode
            overrides.setdefault("mode", modes[0])
        # the constructor checks the attacked ticker against the config's
        config = RunConfig(**{**config._asdict(), "attack": AttackConfig.from_dict(overrides)})
        if config.attack.mode not in modes:
            raise ConfigurationError(
                f"attack {args.submode} runs attack.mode {' or '.join(modes)}, "
                f"not {config.attack.mode!r}"
            )

    out_dir = _out_dir(args, config)
    if args.command == "ingest":
        report = files.cmd_ingest(config, out_dir)
        print(
            f"{len(report['tickers'])} tickers, "
            f"{report['calendar']['n_days']} aligned days "
            f"({report['calendar']['start']} .. {report['calendar']['end']}), "
            f"train={report['n_train']} test={report['n_test']}"
        )
        return 0

    from . import pipeline

    if args.command == "attack":
        paths = pipeline.cmd_attack(config, out_dir)
        for name in sorted(paths):
            print(f"{name}: {paths[name]}")
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


def entry() -> NoReturn:
    """Run one command as this process and exit with its code."""
    # A command leaves a few hundred objects in reference cycles, however many
    # cells, days or tickers it runs (TestProcessLifecycle in
    # tests/test_pipeline.py checks this), so memory stays bounded with the
    # collector off. Its passes during the run would traverse live objects to
    # find them, and freezing what is left spares the full collections at
    # shutdown over objects that are about to be freed anyway.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
