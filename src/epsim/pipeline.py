"""Pipeline orchestration: the commands that fit a model (``fit``,
``backtest``, ``attack``). Each loads the data, fits or imports the
forecasts, builds what it runs and hands the result to a writer in
:mod:`epsim.files`.

The run configuration lives in :mod:`epsim.config`, the file formats, their
writers and the ``ingest`` and ``report`` commands in :mod:`epsim.files`;
both load none of the engine. ``attack`` is imported only by the code that
runs an attack, so ``fit`` and ``backtest`` do not load it.
"""

from __future__ import annotations

from .config import AttackConfig, RunConfig
from .errors import AttackSetupError, ConfigurationError
from .files import (
    cmd_ingest,  # noqa: F401  (looked up here by perfbench/tracing.py)
    cmd_report,  # noqa: F401  (looked up here by perfbench/tracing.py)
    write_fit_reports,
    write_result_files,
    write_sweep_files,
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


# ---------------------------------------------------------------------------
# pipeline assembly


def load_dataset(config: RunConfig) -> tuple[Dataset, int]:
    """Ingest, align, and locate the train/test cut (returns test start)."""
    series = [load_csv(config.csv_path(tk), tk) for tk in config.tickers]
    dataset = align_calendar(series)
    train, _ = split(dataset, config.split)
    return dataset, train.n_days()


def build_predictions(config: RunConfig, dataset: Dataset, test_start: int):
    """Per-ticker prediction series for the test window: imported, or
    forecast by baseline predictors fitted on the train window."""
    test_calendar = dataset.calendar[test_start:]
    if config.predictor_kind == "import":
        return {
            tk: import_predictions(
                config.resolve(config.import_files[tk]), test_calendar, tk
            )
            for tk in sorted(config.tickers)
        }
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)
    return {
        tk: predict_test_series(predictors[tk], dataset.series[tk], test_start)
        for tk in sorted(config.tickers)
    }


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
    write_fit_reports(reports, config.predictor, out_dir)
    return reports


def cmd_backtest(config: RunConfig, out_dir) -> SimulationResult:
    dataset, test_start = load_dataset(config)
    predictions = build_predictions(config, dataset, test_start)
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
    context = attack_mod.AttackContext(
        dataset, test_start, predictors, config.strategy, config.costs
    )
    if atk.mode == "stddev":
        result = attack_mod.sweep_indiscriminate(
            context, atk.ticker, atk.omegas, ddof=atk.ddof, days=days
        )
    else:
        result = attack_mod.run_targeted(
            context, atk.ticker, days, atk.mode, drop_fraction=atk.drop_fraction
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
