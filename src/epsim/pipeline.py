"""Pipeline orchestration: the commands that fit a model (``fit``,
``backtest``, ``attack``) and the writers of their result files.

The run configuration lives in :mod:`epsim.config`, the file formats and the
``ingest`` and ``report`` commands in :mod:`epsim.files`; both load none of
the engine. ``attack`` is imported only by the code that runs an attack, so
``fit`` and ``backtest`` do not load it.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING

from .config import AttackConfig, CostModel, RunConfig, _plain
from .errors import AttackSetupError, ConfigurationError
from .files import (
    ATTACK_SUMMARY_SCHEMA,
    CELL_COLUMNS,
    CELLS_SCHEMA,
    FIT_SCHEMA,
    LEDGER_SCHEMA,
    METRICS_SCHEMA,
    RESULT_SCHEMA,
    _fmt,
    _write_csv,
    _write_json,
    cmd_ingest,  # noqa: F401  (looked up here by perfbench/tracing.py)
    cmd_report,  # noqa: F401  (looked up here by perfbench/tracing.py)
)
from .market_data import Dataset, align_calendar, load_csv, parse_date, split
from .predictor import (
    FitReport,
    fit_baseline,
    fit_report,
    import_predictions,
    predict_test_series,
)
from .trade_engine import SimulationResult, run_simulation

if TYPE_CHECKING:
    from .attack import AttackResult


# ---------------------------------------------------------------------------
# pipeline assembly


def load_dataset(config: RunConfig) -> tuple[Dataset, int]:
    """Ingest, align, and locate the train/test cut (returns test start)."""
    series = [load_csv(config.csv_path(tk), tk) for tk in config.tickers]
    dataset = align_calendar(series)
    train, _ = split(dataset, config.split)
    return dataset, train.n_days()


def build_predictions(config: RunConfig, dataset: Dataset, test_start: int):
    """Per-ticker prediction series for the test window, plus predictors.

    Returns (predictions, predictors); predictors is None in import mode.
    """
    test_calendar = dataset.calendar[test_start:]
    if config.predictor_kind == "import":
        predictions = {
            tk: import_predictions(
                config.resolve(config.import_files[tk]), test_calendar, tk
            )
            for tk in sorted(config.tickers)
        }
        return predictions, None
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)
    predictions = {
        tk: predict_test_series(predictors[tk], dataset.series[tk], test_start)
        for tk in sorted(config.tickers)
    }
    return predictions, predictors


# ---------------------------------------------------------------------------
# result writers


def write_result_files(
    result: SimulationResult, cost_model: CostModel, out_dir
) -> dict[str, str]:
    """result.json + ledger.csv + metrics.csv for one simulation."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "result": os.path.join(out_dir, "result.json"),
        "ledger": os.path.join(out_dir, "ledger.csv"),
        "metrics": os.path.join(out_dir, "metrics.csv"),
    }
    columns = ("day", "ticker", "side", "shares", "price", "commission", "slippage")
    trades = [
        (t.day, t.ticker, t.side.value, t.shares, t.execution_price, t.commission_paid,
         t.slippage_paid)
        for t in result.trade_ledger
    ]
    _write_json(
        paths["result"],
        {
            "schema": RESULT_SCHEMA,
            "daily_returns": list(result.daily_returns),
            "cumulative_returns": list(result.cumulative_returns),
            "sharpe_ratio": result.sharpe_ratio,
            "final_value": result.final_value,
            "trades": [dict(zip(columns, trade)) for trade in trades],
        },
    )
    _write_csv(
        paths["ledger"], LEDGER_SCHEMA, columns, [tuple(map(_fmt, t)) for t in trades]
    )
    initial = cost_model.initial_capital
    _write_csv(
        paths["metrics"],
        METRICS_SCHEMA,
        ("day", "portfolio_value", "daily_return", "cumulative_return"),
        [
            (
                t,
                _fmt(initial * (1.0 + result.cumulative_returns[t])),
                _fmt(result.daily_returns[t]),
                _fmt(result.cumulative_returns[t]),
            )
            for t in range(len(result.daily_returns))
        ],
    )
    return paths


def _degradation_fractions(outcomes) -> tuple[float, float]:
    if not outcomes:
        return 0.0, 0.0
    sr = sum(1 for o in outcomes if o.sharpe_attacked < o.sharpe_baseline)
    cr = sum(1 for o in outcomes if o.cr_attacked < o.cr_baseline)
    return sr / len(outcomes), cr / len(outcomes)


def write_sweep_files(result: AttackResult, out_dir) -> dict[str, str]:
    """The cells CSV and summary JSON of one attack run, sweep or targeted.

    A sweep writes ``sweep_cells.csv`` and ``sweep_summary.json``; a
    targeted run writes ``targeted_*`` files whose cells and summary also
    carry each outcome's ``cr_change_pct``. The writer keeps the sweep's
    name because the benchmark's tracer (``perfbench/tracing.py``) looks it
    up under that name; renaming it waits for a change to the benchmark.
    """
    targeted = result.kind != "sweep"
    prefix = "targeted" if targeted else "sweep"
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cells": os.path.join(out_dir, f"{prefix}_cells.csv"),
        "summary": os.path.join(out_dir, f"{prefix}_summary.json"),
    }
    columns = CELL_COLUMNS + (("cr_change_pct",) if targeted else ())
    rows = [
        (o.ep.day, o.ep.mode.label)
        + tuple(_fmt(getattr(o, c)) for c in columns[2:])
        for o in result.outcomes
    ]
    _write_csv(paths["cells"], CELLS_SCHEMA, columns, rows)
    frac_sr, frac_cr = _degradation_fractions(result.outcomes)
    summary = {
        "schema": ATTACK_SUMMARY_SCHEMA,
        "mode": result.kind,
        "n_outcomes": len(result.outcomes),
        "n_errors": len(result.errors),
        "errors": [dataclasses.asdict(e) for e in result.errors],
        "baseline": {
            "sharpe_ratio": result.baseline.sharpe_ratio,
            "cumulative_return": result.baseline.final_cumulative_return(),
            "final_value": result.baseline.final_value,
        },
        "fraction_sharpe_degraded": frac_sr,
        "fraction_cr_degraded": frac_cr,
    }
    if targeted:
        summary["per_day"] = [
            {"day": o.ep.day, "cr_change_pct": o.cr_change_pct} for o in result.outcomes
        ]
    _write_json(paths["summary"], summary)
    return paths


# ---------------------------------------------------------------------------
# commands


def cmd_fit(config: RunConfig, out_dir) -> list[FitReport]:
    if config.predictor_kind != "baseline":
        raise ConfigurationError("fit requires predictor.kind = baseline")
    dataset, test_start = load_dataset(config)
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)
    reports = [
        fit_report(predictors[tk], dataset.series[tk], test_start)
        for tk in sorted(predictors)
    ]
    os.makedirs(out_dir, exist_ok=True)
    _write_json(
        os.path.join(out_dir, "fit_reports.json"),
        {
            "schema": FIT_SCHEMA,
            **_plain(config.predictor),
            "reports": [dataclasses.asdict(r) for r in reports],
        },
    )
    return reports


def cmd_backtest(config: RunConfig, out_dir) -> SimulationResult:
    dataset, test_start = load_dataset(config)
    predictions, _ = build_predictions(config, dataset, test_start)
    test = dataset.slice(test_start)
    result = run_simulation(test, predictions, config.strategy, config.costs)
    write_result_files(result, config.costs, out_dir)
    return result


def _attack_days(attack: AttackConfig, dataset: Dataset, test_start: int) -> list[int]:
    """The test-day indices ``attack.days`` names, each once, in increasing order."""
    n = dataset.n_days() - test_start
    if attack.days == "all":
        return list(range(n))
    test_calendar = dataset.calendar[test_start:]
    cal_index = {d: i for i, d in enumerate(test_calendar)}
    days: list[int] = []
    for entry in attack.days:
        if isinstance(entry, int):
            if not 0 <= entry < n:
                raise ConfigurationError(
                    f"attack.days: day {entry} outside the {n}-day test window"
                )
            days.append(entry)
        else:
            try:
                date = parse_date(str(entry))
            except ValueError as exc:
                raise ConfigurationError(
                    f"attack.days: {entry!r} is neither an index nor an ISO date"
                ) from exc
            if date not in cal_index:
                raise ConfigurationError(
                    f"attack.days: {date.isoformat()} not in the test calendar"
                )
            days.append(cal_index[date])
    return sorted(set(days))


def cmd_attack(config: RunConfig, out_dir) -> dict:
    """Run the attack ``attack.mode`` names: a sweep for ``stddev``, else a
    targeted run."""
    from . import attack as attack_mod

    if config.attack is None:
        raise ConfigurationError("config has no attack block")
    if config.predictor_kind != "baseline":
        raise ConfigurationError(
            "attack requires predictor.kind = baseline (a fitted model is "
            "needed to recompute the perturbed forecast)"
        )
    atk = config.attack
    dataset, test_start = load_dataset(config)
    days = _attack_days(atk, dataset, test_start)
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)
    world = (dataset, test_start, predictors, config.strategy, config.costs)
    if atk.mode == "stddev":
        result = attack_mod.sweep_indiscriminate(
            *world, ticker=atk.ticker, omegas=atk.omegas, ddof=atk.ddof, days=days
        )
    else:
        result = attack_mod.run_targeted(
            *world, ticker=atk.ticker, days=days, scenario=atk.mode,
            drop_fraction=atk.drop_fraction,
        )
    _require_outcomes(result)
    return write_sweep_files(result, out_dir)


def _require_outcomes(result) -> None:
    """An attack in which no cell produced an outcome has nothing to report."""
    if result.outcomes:
        return
    detail = f"{len(result.errors)} cell errors"
    if result.errors:
        e = result.errors[0]
        detail += f"; first: day {e.day} {e.label}: {e.message}"
    raise AttackSetupError(f"no attack cell produced an outcome ({detail})")
