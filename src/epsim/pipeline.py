"""Pipeline orchestration: the commands that fit a model (``fit``,
``backtest``, ``attack``). Each loads the data and checks it against the
config with :func:`epsim.files.plan`, fits or imports the forecasts, builds
what it runs and hands the result to a writer in :mod:`epsim.files`.

The run configuration lives in :mod:`epsim.config`; the file formats, the
input plan, the writers and the ``ingest`` and ``report`` commands in
:mod:`epsim.files`. Both load none of the engine. This module reads no file
and resolves no day itself. ``attack`` is imported only by the code that
runs an attack, so ``fit`` and ``backtest`` do not load it.
"""

from __future__ import annotations

from . import files
from .config import RunConfig
from .errors import ConfigurationError
from .files import (
    Plan,
    cmd_ingest,  # noqa: F401  (looked up here by perfbench/tracing.py)
    cmd_report,  # noqa: F401  (looked up here by perfbench/tracing.py)
    write_fit_reports,
    write_result_files,
    write_sweep_files,
)
from .market_data import align_calendar, load_csv
from .predictor import FitReport, fit_baseline, fit_report, predict_test_series
from .trade_engine import SimulationResult, run_simulation


# ---------------------------------------------------------------------------
# pipeline assembly


def load_dataset(config: RunConfig) -> Plan:
    """Load and align the CSVs and check them against ``config``
    (:func:`epsim.files.plan`)."""
    series = [load_csv(config.csv_path(tk), tk) for tk in config.tickers]
    return files.plan(config, align_calendar(series))


def build_predictions(config: RunConfig, plan: Plan):
    """Per-ticker forecast columns over the test calendar (NaN on a day
    without a forecast): the plan's imported forecasts, or those of baseline
    predictors fitted on the train window."""
    if config.predictor_kind == "import":
        import numpy as np

        n = plan.dataset.n_days() - plan.test_start
        columns = {}
        for tk, forecasts in plan.forecasts.items():
            columns[tk] = np.full(n, np.nan)
            columns[tk][list(forecasts)] = list(forecasts.values())
        return columns
    predictors = fit_baseline(plan.dataset, config.predictor, plan.test_start)
    return {
        tk: predict_test_series(predictors[tk], plan.dataset.series[tk], plan.test_start)
        for tk in sorted(config.tickers)
    }


# ---------------------------------------------------------------------------
# commands


def cmd_fit(config: RunConfig, out_dir) -> list[FitReport]:
    if config.predictor_kind != "baseline":
        raise ConfigurationError("fit requires predictor.kind = baseline")
    plan = load_dataset(config)
    predictors = fit_baseline(plan.dataset, config.predictor, plan.test_start)
    reports = [
        fit_report(predictors[tk], plan.dataset.series[tk], plan.test_start)
        for tk in sorted(predictors)
    ]
    write_fit_reports(reports, config.predictor, out_dir)
    return reports


def cmd_backtest(config: RunConfig, out_dir) -> SimulationResult:
    plan = load_dataset(config)
    predictions = build_predictions(config, plan)
    test = plan.dataset.slice(plan.test_start)
    result = run_simulation(test, predictions, config.strategy, config.costs)
    write_result_files(result, config.costs, out_dir)
    return result


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
    plan = load_dataset(config)
    days = plan.attack_days
    predictors = fit_baseline(plan.dataset, config.predictor, plan.test_start)
    context = attack_mod.AttackContext(
        plan.dataset, plan.test_start, predictors, config.strategy, config.costs
    )
    if atk.mode == "stddev":
        result = attack_mod.sweep_indiscriminate(context, atk.ticker, atk.omegas, days=days)
    else:
        result = attack_mod.run_targeted(
            context, atk.ticker, days, atk.mode, drop_fraction=atk.drop_fraction
        )
    return write_sweep_files(result, out_dir)

