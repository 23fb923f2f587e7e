"""Deterministic daily backtesting engine with a single-day data-feed
perturbation harness.

Pipeline: ingest OHLCV CSVs -> align calendars -> temporal split -> fit (or
import) next-day close forecasts -> generate buy/sell/hold signals -> execute
with costs -> measure Sharpe ratio and cumulative returns. The attack harness
perturbs one stock's reported close on one day, re-runs the simulation, and
measures the system-wide impact against the untouched baseline.

Importing epsim loads none of its modules: each exported name is imported
from its module on first use (PEP 562). numpy is imported inside the
functions that compute with it, never at module level. So each CLI command
loads only the code it runs, and ``ingest`` and ``report`` load no numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the names epsim exports from it: those the demos and README use.
# The engine's building blocks are imported from their modules.
_EXPORTS = {
    "attack": (
        "AttackContext",
        "AttackOutcome",
        "AttackResult",
        "EpSpec",
        "apply_ep",
        "clean_run",
        "run_targeted",
        "sweep_indiscriminate",
    ),
    "config": (
        "AttackConfig",
        "ConcealMode",
        "CostModel",
        "OverestimateMode",
        "PredictorConfig",
        "RunConfig",
        "StdDevMode",
        "StrategyConfig",
    ),
    "errors": ("EpsimError", "ZeroVolatilityWarning"),
    "market_data": (
        "Bar",
        "Dataset",
        "SplitSpec",
        "StockSeries",
        "align_calendar",
        "load_csv",
        "save_csv",
        "split",
    ),
    "predictor": (
        "FitReport",
        "RidgePredictor",
        "fit_baseline",
        "fit_report",
        "predict_test_series",
    ),
    "strategy": ("Signal",),
    "trade_engine": (
        "SimulationResult",
        "TradeRecord",
        "cumulative_returns",
        "run_simulation",
        "sharpe_ratio",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
