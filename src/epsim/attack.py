"""Single-day perturbation crafting, injection, and system-wide impact.

A perturbation replaces one stock's reported close on one test day and is
overwritten by the next day's clean data. Strict single-day visibility:
exactly one forecast (the one for day t+1, whose window ends on day t) sees
the perturbed value; every later window spanning day t sees the clean close
again. Portfolio marking and trade execution always use clean market prices,
so any divergence from the baseline is caused solely by that one forecast.

That locality is what makes a cell cheap. :class:`AttackContext` computes,
once per run, each ticker's scaled features, clean forecasts, forecast
errors and unshifted signals, and the baseline run with its portfolio state
before each day. A cell then recomputes the one forecast the perturbation
reaches and regenerates only the attacked ticker's signal days that forecast
can move (:func:`epsim.strategy.reach`). When they match the baseline's, the
cell returns the baseline unchanged; otherwise it resumes the baseline from
the first day whose executed signal differs and rejoins it once the
portfolio is back in the baseline's exact state
(:func:`epsim.trade_engine.resume_signals`).

Magnitude modes:

* ``StdDevMode(omega)``   - clean close + 2 * std of the trailing omega closes
                            (an attacker guessing the model's window length);
* ``ConcealMode``         - report the previous day's close (hide a drop);
* ``OverestimateMode``    - report a fixed-fraction drop vs the previous day;
* ``CustomMode(value)``   - report an explicit value.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import AttackSetupError
from .market_data import Dataset, StockSeries
from .predictor import (
    PredictionSeries,
    RidgePredictor,
    evaluate_rmse,  # noqa: F401  (looked up here by perfbench/tracing.py)
    predict_test_series,
    prediction_errors,
    rmse,
)
from .strategy import StrategyConfig, generate_signals, reach, shift_signals
from .trade_engine import (
    CostModel,
    SignalRun,
    SimulationResult,
    resume_signals,
    run_simulation,  # noqa: F401  (looked up here by perfbench/tracing.py)
    strategy_signals,
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
class AttackResult:
    """Every cell of one attack run and the one baseline they are measured
    against. ``kind`` is ``"sweep"``, ``"conceal"`` or ``"overestimate"``."""

    kind: str
    outcomes: tuple[AttackOutcome, ...]
    baseline: SimulationResult
    errors: tuple[CellError, ...]


_MODE_NAMES = {ConcealMode: "conceal", OverestimateMode: "overestimate", CustomMode: "custom"}


def mode_label(mode: EpMode) -> str:
    """A mode's name in cell errors and in the ``omega_or_mode`` column."""
    if isinstance(mode, StdDevMode):
        return f"omega={mode.omega}"
    return _MODE_NAMES[type(mode)]


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


def _first_divergence(base: SignalRun, attacked: SignalRun) -> int | None:
    """First day whose trades or return differ. Only the days ``attacked``
    executed itself can: the rest were copied from ``base``."""
    for t in range(attacked.start, attacked.stop):
        if attacked.trades_on(t) != base.trades_on(t):
            return t
        if attacked.result.daily_returns[t] != base.result.daily_returns[t]:
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
    forecasts, their error vector and RMSE and the unshifted baseline
    signals, and the baseline run with the portfolio state before each of
    its days.
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
        self.raw_signals = strategy_signals(self.test, self.predictions, strategy_config)
        self.baseline_run: SignalRun = resume_signals(
            self.test,
            {tk: shift_signals(raw) for tk, raw in self.raw_signals.items()},
            cost_model,
        )
        self.baseline = self.baseline_run.result
        # per ticker: the forecast days in order and their errors vs the close
        self.errors = {}
        for tk, preds in self.predictions.items():
            days = sorted(preds.entries)
            self.errors[tk] = (days, prediction_errors(preds, self.test.series[tk], days))
        self.rmse_clean = {tk: rmse(errs) for tk, (_, errs) in self.errors.items()}

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
        rmse_clean = rmse_attacked = self.rmse_clean[ep.ticker]
        if swap is None:
            perturbed_close = apply_ep(full_series, ep, at=self.test_start + ep.day)
            clean_close = full_series.bars[self.test_start + ep.day].close
        else:
            entry_day, entry, perturbed_close, clean_close = swap
            days = reach(self.strategy_config, entry_day, n)
            raw = self.raw_signals[ep.ticker]
            patch = generate_signals(
                test_series,
                clean.with_entry(entry_day, entry),
                self.strategy_config,
                n,
                days,
            )
            if patch != raw[days.start : days.stop]:
                signals = dict(run.signals)
                signals[ep.ticker] = shift_signals(
                    raw[: days.start] + patch + raw[days.stop :]
                )
                run = resume_signals(self.test, signals, self.cost_model, run)
            forecast_days, errs = self.errors[ep.ticker]
            errs = errs.copy()
            errs[bisect.bisect_left(forecast_days, entry_day)] = (
                entry - test_series.bars[entry_day].close
            )
            rmse_attacked = rmse(errs)
        attacked = run.result

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
                None
                if run is self.baseline_run
                else _first_divergence(self.baseline_run, run)
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


def _run_cells(context: AttackContext, kind: str, ticker: str, days, modes) -> AttackResult:
    """Attack ``ticker`` on each day with each mode (day-major, mode-minor).

    A cell that cannot be crafted is recorded as a :class:`CellError` and
    skipped."""
    outcomes: list[AttackOutcome] = []
    errors: list[CellError] = []
    for day in days:
        for mode in modes:
            try:
                outcomes.append(context.outcome(EpSpec(ticker, day, mode))[1])
            except AttackSetupError as exc:
                errors.append(CellError(day=day, label=mode_label(mode), message=str(exc)))
    return AttackResult(kind, tuple(outcomes), context.baseline, tuple(errors))


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
) -> AttackResult:
    """Attack each test day once per omega (day-major, omega-minor).

    ``days`` lists the test days to attack, in order; every test day when
    None. Infeasible cells (not enough history for the sigma window) are
    recorded and skipped.
    """
    modes = [StdDevMode(omega=omega, ddof=ddof) for omega in omegas]
    if not modes:
        raise AttackSetupError("need at least one omega")
    context = AttackContext(dataset, test_start, predictors, strategy_config, cost_model)
    if days is None:
        days = range(context.test.n_days())
    return _run_cells(context, "sweep", ticker, days, modes)


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
) -> AttackResult:
    """Conceal or overestimate the close on chosen event days, one run each,
    in the order given."""
    if scenario == "conceal":
        mode: EpMode = ConcealMode()
    elif scenario == "overestimate":
        mode = OverestimateMode(drop_fraction=drop_fraction)
    else:
        raise AttackSetupError(
            f"scenario must be conceal or overestimate, got {scenario!r}"
        )
    context = AttackContext(dataset, test_start, predictors, strategy_config, cost_model)
    return _run_cells(context, scenario, ticker, days, [mode])
