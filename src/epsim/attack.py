"""Single-day perturbation crafting, injection, and system-wide impact.

A perturbation replaces one stock's reported close on one test day and is
overwritten by the next day's clean data. Strict single-day visibility:
exactly one forecast (the one for day t+1, whose window ends on day t) sees
the perturbed value; every later window spanning day t sees the clean close
again. Portfolio marking and trade execution always use clean market prices,
so any divergence from the baseline is caused solely by that one forecast.

That locality is what makes a cell cheap. :class:`AttackContext` computes,
once per run, each ticker's scaled features, clean forecasts and executed
signals, and the baseline run with its portfolio state before each day. A
cell then recomputes the one forecast the perturbation reaches, regenerates
the attacked ticker's signals, and returns the baseline unchanged when those
signals match it, or otherwise resumes the baseline from the first day whose
executed signal differs.

Magnitude modes:

* ``StdDevMode(omega)``   - clean close + 2 * std of the trailing omega closes
                            (an attacker guessing the model's window length);
* ``ConcealMode``         - report the previous day's close (hide a drop);
* ``OverestimateMode``    - report a fixed-fraction drop vs the previous day;
* ``CustomMode(value)``   - report an explicit value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AttackSetupError
from .market_data import Dataset, StockSeries
from .predictor import (
    PredictionSeries,
    RidgePredictor,
    evaluate_rmse,
    predict_test_series,
)
from .strategy import StrategyConfig
from .trade_engine import (
    CostModel,
    SignalRun,
    SimulationResult,
    executed_signals,
    resume_signals,
    run_simulation,  # noqa: F401  (looked up here by perfbench/tracing.py)
    ticker_signals,
)


@dataclass(frozen=True)
class StdDevMode:
    omega: int
    ddof: int = 1  # sample std; set 0 for population std

    def __post_init__(self):
        if self.omega < 2:
            raise AttackSetupError(f"omega must be >= 2, got {self.omega}")
        if self.ddof not in (0, 1):
            raise AttackSetupError(f"ddof must be 0 or 1, got {self.ddof}")


@dataclass(frozen=True)
class ConcealMode:
    pass


@dataclass(frozen=True)
class OverestimateMode:
    drop_fraction: float = 0.10

    def __post_init__(self):
        if not 0.0 < self.drop_fraction < 1.0:
            raise AttackSetupError(
                f"drop_fraction must be in (0,1), got {self.drop_fraction}"
            )


@dataclass(frozen=True)
class CustomMode:
    value: float


EpMode = StdDevMode | ConcealMode | OverestimateMode | CustomMode


@dataclass(frozen=True)
class EpSpec:
    """A fully described perturbation: which stock, which test day, how big."""

    ticker: str
    day: int  # test-window index
    mode: EpMode


@dataclass(frozen=True)
class AttackOutcome:
    ep: EpSpec
    perturbed_value: float
    clean_value: float
    rmse_clean: float
    rmse_attacked: float
    sharpe_baseline: float
    sharpe_attacked: float
    cr_baseline: float
    cr_attacked: float
    cr_ratio: float
    first_divergence_day: int | None

    @property
    def delta_sharpe(self) -> float:
        return self.sharpe_attacked - self.sharpe_baseline

    @property
    def cr_change_pct(self) -> float:
        """Cumulative-return change vs baseline, in percentage points."""
        return (self.cr_attacked - self.cr_baseline) * 100.0


@dataclass(frozen=True)
class CellError:
    day: int
    label: str
    message: str


@dataclass(frozen=True)
class SweepResult:
    outcomes: tuple[AttackOutcome, ...]
    baseline: SimulationResult
    errors: tuple[CellError, ...]


@dataclass(frozen=True)
class TargetedResult:
    outcomes: tuple[AttackOutcome, ...]
    baseline: SimulationResult
    errors: tuple[CellError, ...]


def apply_ep(series: StockSeries, ep: EpSpec, at: int | None = None) -> float:
    """The perturbed close for the attacked day; only that value changes.

    ``at`` is the bar index within ``series``; it defaults to ``ep.day``,
    which is correct when the series' own indexing already matches the
    test-window day numbering the EpSpec uses.
    """
    t = ep.day if at is None else at
    if not 0 <= t < len(series.bars):
        raise AttackSetupError(
            f"{series.ticker}: day index {t} outside the series"
        )
    clean = series.bars[t].close
    mode = ep.mode
    if isinstance(mode, StdDevMode):
        if t < mode.omega - 1:
            raise AttackSetupError(
                f"{series.ticker}: need {mode.omega} days of history ending "
                f"at index {t}"
            )
        closes = np.array(
            [b.close for b in series.bars[t - mode.omega + 1 : t + 1]],
            dtype=np.float64,
        )
        if closes.min() == closes.max():
            return clean  # constant window: sigma is exactly 0
        sigma = float(np.std(closes, ddof=mode.ddof))
        return clean + 2.0 * sigma
    if isinstance(mode, ConcealMode):
        if t < 1:
            raise AttackSetupError(f"{series.ticker}: no previous day before index {t}")
        return series.bars[t - 1].close
    if isinstance(mode, OverestimateMode):
        if t < 1:
            raise AttackSetupError(f"{series.ticker}: no previous day before index {t}")
        return series.bars[t - 1].close * (1.0 - mode.drop_fraction)
    if isinstance(mode, CustomMode):
        return mode.value
    raise AttackSetupError(f"unknown perturbation mode {mode!r}")


def perturbed_prediction_entry(
    predictor: RidgePredictor,
    full_series: StockSeries,
    test_start: int,
    ep: EpSpec,
    scaled: np.ndarray | None = None,
) -> tuple[int, float, float, float] | None:
    """Recompute the single forecast whose window ends on the attacked day.

    Returns (entry_day, perturbed_entry, perturbed_close, clean_close), or
    None when the attacked day is the last one (nothing downstream sees it).
    ``scaled`` is ``predictor.scale(full_series.bars)`` when the caller
    already has it. The forecast equals ``predict_window`` over the window
    with the attacked bar's close replaced.
    """
    w = predictor.config.window
    a = test_start + ep.day
    perturbed_close = apply_ep(full_series, ep, at=a)
    clean_close = full_series.bars[a].close
    if a + 1 >= len(full_series.bars):
        return None
    if a < w - 1:
        raise AttackSetupError(
            f"{full_series.ticker}: no {w}-day model window ends at index {a}"
        )
    if scaled is None:
        scaled = predictor.scale(full_series.bars)
    window = scaled[a - w + 1 : a + 1].copy()
    for j, f in enumerate(predictor.config.features):
        if f == "close":
            window[-1, j] = predictor.feature_scalers[f].transform(perturbed_close)
    entry = predictor.forecast(window.reshape(-1))
    return ep.day + 1, entry, perturbed_close, clean_close


def _trades_by_day(result: SimulationResult) -> dict[int, list]:
    grouped: dict[int, list] = {}
    for trade in result.trade_ledger:
        grouped.setdefault(trade.day, []).append(trade)
    return grouped


def _first_divergence(base: SimulationResult, attacked: SimulationResult) -> int | None:
    base_trades = _trades_by_day(base)
    attacked_trades = _trades_by_day(attacked)
    for t in range(len(base.daily_returns)):
        if base_trades.get(t, []) != attacked_trades.get(t, []):
            return t
        if base.daily_returns[t] != attacked.daily_returns[t]:
            return t
    return None


def _cr_ratio(cr_attacked: float, cr_baseline: float) -> float:
    if cr_attacked == cr_baseline:
        return 1.0
    if cr_baseline == 0.0:
        return math.nan
    return cr_attacked / cr_baseline


class AttackContext:
    """What every attack cell of one run shares, computed once.

    Holds each ticker's min-max-scaled features (full series), clean test
    forecasts, their RMSE and the executed baseline signals, and the
    baseline run with the portfolio state before each of its days.
    """

    def __init__(
        self,
        dataset: Dataset,
        test_start: int,
        predictors: dict[str, RidgePredictor],
        strategy_config: StrategyConfig,
        cost_model: CostModel,
    ):
        self.dataset = dataset
        self.test_start = test_start
        self.predictors = predictors
        self.strategy_config = strategy_config
        self.cost_model = cost_model
        self.test = dataset.slice(test_start)
        self.scaled = {
            tk: predictors[tk].scale(dataset.series[tk].bars) for tk in sorted(predictors)
        }
        self.predictions = {
            tk: predict_test_series(
                predictors[tk], dataset.series[tk], test_start, self.scaled[tk]
            )
            for tk in sorted(predictors)
        }
        signals = executed_signals(self.test, self.predictions, strategy_config)
        self.baseline_run: SignalRun = resume_signals(self.test, signals, cost_model)
        self.baseline = self.baseline_run.result
        self.rmse_clean = {
            tk: evaluate_rmse(preds, self.test.series[tk], sorted(preds.entries))
            for tk, preds in self.predictions.items()
        }

    def outcome(self, ep: EpSpec) -> tuple[SimulationResult, AttackOutcome]:
        """The attacked run and its impact record for one perturbation."""
        if ep.ticker not in self.predictors:
            raise AttackSetupError(f"no predictor for attacked ticker {ep.ticker!r}")
        n = self.test.n_days()
        if not 0 <= ep.day < n:
            raise AttackSetupError(
                f"attacked day {ep.day} outside the {n}-day test window"
            )

        full_series = self.dataset.series[ep.ticker]
        test_series = self.test.series[ep.ticker]
        clean = self.predictions[ep.ticker]
        swap = perturbed_prediction_entry(
            self.predictors[ep.ticker],
            full_series,
            self.test_start,
            ep,
            self.scaled[ep.ticker],
        )
        run = self.baseline_run
        if swap is None:
            perturbed_close = apply_ep(full_series, ep, at=self.test_start + ep.day)
            clean_close = full_series.bars[self.test_start + ep.day].close
            attacked_predictions = clean
        else:
            entry_day, entry, perturbed_close, clean_close = swap
            attacked_predictions = clean.with_entry(entry_day, entry)
            signals = dict(run.signals)
            signals[ep.ticker] = ticker_signals(
                test_series, attacked_predictions, self.strategy_config, n
            )
            run = resume_signals(self.test, signals, self.cost_model, run)
        attacked = run.result

        rmse_clean = self.rmse_clean[ep.ticker]
        rmse_attacked = (
            rmse_clean
            if attacked_predictions is clean
            else evaluate_rmse(attacked_predictions, test_series, sorted(clean.entries))
        )

        baseline = self.baseline
        cr_base = baseline.final_cumulative_return()
        cr_att = attacked.final_cumulative_return()
        outcome = AttackOutcome(
            ep=ep,
            perturbed_value=perturbed_close,
            clean_value=clean_close,
            rmse_clean=rmse_clean,
            rmse_attacked=rmse_attacked,
            sharpe_baseline=baseline.sharpe_ratio,
            sharpe_attacked=attacked.sharpe_ratio,
            cr_baseline=cr_base,
            cr_attacked=cr_att,
            cr_ratio=_cr_ratio(cr_att, cr_base),
            first_divergence_day=(
                None if attacked is baseline else _first_divergence(baseline, attacked)
            ),
        )
        return attacked, outcome


def clean_run(
    dataset: Dataset,
    test_start: int,
    predictors: dict[str, RidgePredictor],
    strategy_config: StrategyConfig,
    cost_model: CostModel,
) -> tuple[dict[str, PredictionSeries], SimulationResult]:
    """Baseline forecasts and simulation over the test window."""
    context = AttackContext(dataset, test_start, predictors, strategy_config, cost_model)
    return context.predictions, context.baseline


def run_attacked_simulation(
    dataset: Dataset,
    test_start: int,
    predictors: dict[str, RidgePredictor],
    strategy_config: StrategyConfig,
    cost_model: CostModel,
    ep: EpSpec,
) -> tuple[SimulationResult, AttackOutcome]:
    """One attacked run plus its impact record against a fresh baseline."""
    context = AttackContext(dataset, test_start, predictors, strategy_config, cost_model)
    return context.outcome(ep)


def sweep_indiscriminate(
    dataset: Dataset,
    test_start: int,
    predictors: dict[str, RidgePredictor],
    strategy_config: StrategyConfig,
    cost_model: CostModel,
    ticker: str,
    omegas,
    ddof: int = 1,
    days=None,
) -> SweepResult:
    """Attack each test day once per omega (day-major, omega-minor).

    ``days`` lists the test days to attack, in order; every test day when
    None. Infeasible cells (not enough history for the sigma window) are
    recorded and skipped.
    """
    omegas = list(omegas)
    if not omegas:
        raise AttackSetupError("need at least one omega")
    context = AttackContext(dataset, test_start, predictors, strategy_config, cost_model)
    if days is None:
        days = range(context.test.n_days())
    outcomes: list[AttackOutcome] = []
    errors: list[CellError] = []
    for day in days:
        for omega in omegas:
            ep = EpSpec(ticker=ticker, day=day, mode=StdDevMode(omega=omega, ddof=ddof))
            try:
                outcomes.append(context.outcome(ep)[1])
            except AttackSetupError as exc:
                errors.append(CellError(day=day, label=f"omega={omega}", message=str(exc)))
    return SweepResult(
        outcomes=tuple(outcomes), baseline=context.baseline, errors=tuple(errors)
    )


def run_targeted(
    dataset: Dataset,
    test_start: int,
    predictors: dict[str, RidgePredictor],
    strategy_config: StrategyConfig,
    cost_model: CostModel,
    ticker: str,
    days,
    scenario: str,
    drop_fraction: float = 0.10,
) -> TargetedResult:
    """Conceal or overestimate the close on chosen event days, one run each."""
    if scenario == "conceal":
        mode: EpMode = ConcealMode()
    elif scenario == "overestimate":
        mode = OverestimateMode(drop_fraction=drop_fraction)
    else:
        raise AttackSetupError(
            f"scenario must be conceal or overestimate, got {scenario!r}"
        )
    context = AttackContext(dataset, test_start, predictors, strategy_config, cost_model)
    outcomes: list[AttackOutcome] = []
    errors: list[CellError] = []
    for day in days:
        try:
            outcomes.append(context.outcome(EpSpec(ticker=ticker, day=day, mode=mode))[1])
        except AttackSetupError as exc:
            errors.append(CellError(day=day, label=scenario, message=str(exc)))
    return TargetedResult(
        outcomes=tuple(outcomes), baseline=context.baseline, errors=tuple(errors)
    )
