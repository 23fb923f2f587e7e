"""Deterministic daily backtesting engine with a single-day data-feed
perturbation harness.

Pipeline: ingest OHLCV CSVs -> align calendars -> temporal split -> fit (or
import) next-day close forecasts -> generate buy/sell/hold signals -> execute
with costs -> measure Sharpe ratio and cumulative returns. The attack harness
perturbs one stock's reported close on one day, re-runs the simulation, and
measures the system-wide impact against the untouched baseline.

numpy is imported inside the functions that compute with it, never at
module level: importing epsim, and the ``ingest`` command, do not load it.
"""

from .attack import (
    AttackContext,
    AttackOutcome,
    AttackResult,
    ConcealMode,
    CustomMode,
    EpSpec,
    OverestimateMode,
    StdDevMode,
    apply_ep,
    clean_run,
    run_targeted,
    sweep_indiscriminate,
)
from .errors import EpsimError, ZeroVolatilityWarning
from .market_data import (
    Bar,
    Dataset,
    SplitSpec,
    StockSeries,
    align_calendar,
    load_csv,
    save_csv,
    split,
)
from .pipeline import AttackConfig, RunConfig
from .predictor import (
    FitReport,
    PredictionSeries,
    PredictorConfig,
    RidgePredictor,
    evaluate_rmse,
    fit_baseline,
    fit_report,
    import_predictions,
    predict_test_series,
)
from .strategy import (
    Signal,
    StrategyConfig,
    bollinger_signals,
    generate_signals,
    ma_crossover_signals,
    roc_signals,
    shift_signals,
)
from .trade_engine import (
    CostModel,
    PortfolioState,
    SimulationResult,
    TradeRecord,
    cumulative_returns,
    execute_signal,
    run_signals,
    run_simulation,
    sharpe_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackContext",
    "AttackOutcome",
    "AttackResult",
    "Bar",
    "ConcealMode",
    "CostModel",
    "CustomMode",
    "Dataset",
    "EpSpec",
    "EpsimError",
    "FitReport",
    "OverestimateMode",
    "PortfolioState",
    "PredictionSeries",
    "PredictorConfig",
    "RidgePredictor",
    "RunConfig",
    "Signal",
    "SimulationResult",
    "SplitSpec",
    "StdDevMode",
    "StockSeries",
    "StrategyConfig",
    "TradeRecord",
    "ZeroVolatilityWarning",
    "align_calendar",
    "apply_ep",
    "bollinger_signals",
    "clean_run",
    "cumulative_returns",
    "evaluate_rmse",
    "execute_signal",
    "fit_baseline",
    "fit_report",
    "generate_signals",
    "import_predictions",
    "load_csv",
    "ma_crossover_signals",
    "predict_test_series",
    "roc_signals",
    "run_signals",
    "run_simulation",
    "run_targeted",
    "save_csv",
    "sharpe_ratio",
    "shift_signals",
    "split",
    "sweep_indiscriminate",
]
