"""Single-day perturbation crafting, injection, and system-wide impact.

A perturbation replaces one stock's reported close on one test day and is
overwritten by the next day's clean data. Strict single-day visibility:
exactly one forecast (the one for day t+1, whose window ends on day t) sees
the perturbed value; every later window spanning day t sees the clean close
again. Portfolio marking and trade execution always use clean market prices,
so any divergence from the baseline is caused solely by that one forecast.

That locality is what makes a cell cheap. :class:`AttackContext` computes,
once per run, each ticker's clean forecast column, its forecast errors and
unshifted signals, and the baseline run with its portfolio state before each
day; for an attacked ticker it also builds, on first use, its scaled
features, each mode's reported close of every day and a decision screen.
A cell recomputes the one forecast the perturbation reaches, as the exact
dot product, so the attacked forecasts are the clean column with that one
entry changed, and then takes one of three routes:

* **screened**: the forecast lies inside the interval of values that keeps
  every signal of the entry's reach (:func:`epsim.strategy.reach`), by more
  than a relative margin (:func:`epsim.strategy.stable_intervals`); the
  cell returns the baseline without regenerating a signal;
* **memo hit**: otherwise the reach's signal days are regenerated; when
  they match the baseline's, the cell returns the baseline; when they
  differ, a protocol call's memo, keyed by the ticker, the first changed
  day and the new signals up to the last changed day, may already hold the
  attacked run of that same change;
* **resumed**: else the baseline resumes from the first day whose executed
  signal differs (:func:`epsim.trade_engine.resume_signals`). Each day's
  end state is compared with the baseline's: the first miss is the first
  divergence day, and on or after the last changed day a match rejoins the
  baseline. A resume that never misses returns the baseline itself.

Every route gives the bits a full rerun gives, so the result files are the
ones a cell computed from scratch would write.

Magnitude modes (:mod:`epsim.config`), each building its reported closes:

* ``StdDevMode(omega)``   - clean close + 2 * std of the trailing omega closes
                            (an attacker guessing the model's window length);
* ``ConcealMode``         - report the previous day's close (hide a drop);
* ``OverestimateMode``    - report a fixed-fraction drop vs the previous day.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .config import ConcealMode, OverestimateMode, StdDevMode
from .errors import AttackSetupError
from .market_data import Dataset, Record, StockSeries
from .predictor import (
    RidgePredictor,
    evaluate_rmse,
    predict_test_series,
    prediction_errors,
    rmse,
)
from .strategy import generate_signals, reach, shift_signals, stable_intervals
from .trade_engine import (
    SignalRun,
    SimulationResult,
    record_signals,
    resume_signals,
    run_simulation,  # noqa: F401  (looked up here by perfbench/tracing.py)
    strategy_signals,
)

if TYPE_CHECKING:  # annotations only: numpy is imported where it computes
    import numpy as np

    from .config import CostModel, StrategyConfig


EpMode = StdDevMode | ConcealMode | OverestimateMode


class EpSpec(Record):
    """A fully described perturbation: which stock, which test day
    (test-window index), how big."""

    __slots__ = _fields = ("ticker", "day", "mode")

    def __init__(self, ticker: str, day: int, mode: EpMode):
        self._set(locals())


class AttackOutcome(NamedTuple):
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


class CellError(NamedTuple):
    day: int
    label: str
    message: str


class AttackResult(NamedTuple):
    """Every cell of one attack run and the one baseline they are measured
    against. ``kind`` is ``"sweep"``, ``"conceal"`` or ``"overestimate"``."""

    kind: str
    outcomes: tuple[AttackOutcome, ...]
    baseline: SimulationResult
    errors: tuple[CellError, ...]


def apply_ep(series: StockSeries, mode: EpMode, at: int) -> float:
    """The perturbed close for the bar at index ``at`` of ``series``, read
    from ``mode.reported_closes``; only that value changes."""
    return _reported_close(series, mode, at, mode.reported_closes(series.closes()))


def _reported_close(series: StockSeries, mode: EpMode, at: int, reported: list) -> float:
    """``reported[at]``, ``mode``'s reported closes of ``series``, or the
    error for an index outside the series or a day without history."""
    if not 0 <= at < len(series):
        raise AttackSetupError(
            f"{series.ticker}: day index {at} outside the series"
        )
    if reported[at] is None:
        raise AttackSetupError(mode.missing_history(series.ticker, at))
    return reported[at]


def perturbed_prediction_entry(
    predictor: RidgePredictor,
    full_series: StockSeries,
    test_start: int,
    ep: EpSpec,
    scaled: np.ndarray | None = None,
    perturbed_close: float | None = None,
) -> tuple[int | None, float | None, float, float]:
    """Recompute the single forecast whose window ends on the attacked day.

    Returns (entry_day, perturbed_entry, perturbed_close, clean_close). On
    the last day no forecast reads the attacked close, and entry_day and
    perturbed_entry are None. ``scaled`` is
    ``predictor.scale(full_series)`` and ``perturbed_close`` is
    :func:`apply_ep`'s value when the caller already has them. The forecast
    equals ``predict_window`` over the window with the attacked bar's close
    replaced.
    """
    w = predictor.config.window
    a = test_start + ep.day
    if perturbed_close is None:
        perturbed_close = apply_ep(full_series, ep.mode, a)
    clean_close = float(full_series.closes()[a])
    if a + 1 >= len(full_series):
        return None, None, perturbed_close, clean_close
    if a < w - 1:
        raise AttackSetupError(
            f"{full_series.ticker}: no {w}-day model window ends at index {a}"
        )
    if scaled is None:
        scaled = predictor.scale(full_series)
    window = scaled[a - w + 1 : a + 1].copy()
    for j, f in enumerate(predictor.config.features):
        if f == "close":
            window[-1, j] = predictor.feature_scalers[f].transform(perturbed_close)
    entry = predictor.forecast(window.reshape(-1))
    return ep.day + 1, entry, perturbed_close, clean_close


def _cr_ratio(cr_attacked: float, cr_baseline: float) -> float:
    if cr_attacked == cr_baseline:
        return 1.0
    if cr_baseline == 0.0:
        return math.nan
    return cr_attacked / cr_baseline


class AttackContext:
    """What every attack cell of one run shares, computed once.

    Holds each ticker's clean forecast column, its error column (NaN on a
    day without a forecast) and RMSE and the unshifted baseline signals,
    and the baseline run with the portfolio state before each of its days.
    An attacked ticker's scaled features (full series) and decision screen
    (:func:`epsim.strategy.stable_intervals`) and each attacked (ticker,
    mode)'s reported close of every day are built on first use. One
    context serves any number of cells and protocol calls: what a cell
    returns never depends on the cells before it.
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
        self.predictions = {
            tk: predict_test_series(predictors[tk], dataset.series[tk], test_start)
            for tk in sorted(predictors)
        }
        self.raw_signals = strategy_signals(self.test, self.predictions, strategy_config)
        self.baseline_run: SignalRun = record_signals(
            self.test,
            {tk: shift_signals(raw) for tk, raw in self.raw_signals.items()},
            cost_model,
        )
        self.baseline = self.baseline_run.result
        self.errors: dict[str, np.ndarray] = {}
        self.rmse_clean: dict[str, float] = {}
        for tk, entries in self.predictions.items():
            closes = self.test.series[tk].closes()
            self.errors[tk] = prediction_errors(entries, closes)
            self.rmse_clean[tk] = evaluate_rmse(entries, closes)
        self._scaled: dict[str, np.ndarray] = {}
        self._intervals: dict[str, tuple[list[float], list[float]]] = {}
        self._reported: dict[tuple[str, EpMode], list] = {}

    def scaled(self, ticker: str) -> np.ndarray:
        """``ticker``'s min-max-scaled features over the full series, as
        ``predictors[ticker].scale`` gives them, built on first use."""
        if ticker not in self._scaled:
            self._scaled[ticker] = self.predictors[ticker].scale(self.dataset.series[ticker])
        return self._scaled[ticker]

    def perturbed_close(self, ep: EpSpec) -> float:
        """:func:`apply_ep`'s value, read from the (ticker, mode)'s column."""
        series = self.dataset.series[ep.ticker]
        key = (ep.ticker, ep.mode)
        if key not in self._reported:
            self._reported[key] = ep.mode.reported_closes(series.closes())
        return _reported_close(series, ep.mode, self.test_start + ep.day, self._reported[key])

    def require_cells(self, ticker: str, days) -> None:
        """Fail unless the context has a predictor for ``ticker`` and each of
        ``days`` is an integer day of the test window."""
        if ticker not in self.predictors:
            raise AttackSetupError(f"no predictor for attacked ticker {ticker!r}")
        n = self.test.n_days()
        for day in days:
            # an int, numpy's included, and not a bool
            if isinstance(day, bool) or not hasattr(day, "__index__"):
                raise AttackSetupError(f"attacked day {day!r} is not an integer")
            if not 0 <= day < n:
                raise AttackSetupError(
                    f"attacked day {day} outside the {n}-day test window"
                )

    def keeps_signals(self, ticker: str, entry_day: int, entry: float) -> bool:
        """Whether the decision screen shows that forecast entry
        ``entry_day`` set to ``entry`` leaves every signal of ``ticker`` as
        the baseline has it. False means the screen cannot tell."""
        if ticker not in self._intervals:
            self._intervals[ticker] = stable_intervals(
                self.test.series[ticker], self.predictions[ticker], self.strategy_config
            )
        lo, hi = self._intervals[ticker]
        return lo[entry_day] < entry < hi[entry_day]

    def _changed_run(
        self, ticker: str, entry_day: int, entry: float, memo: dict | None
    ) -> tuple[SimulationResult, int | None]:
        """The attacked run and its first divergence day when forecast entry
        ``entry_day`` is ``entry``: the reach's signals regenerated, and the
        baseline resumed from the first changed day unless ``memo`` already
        holds what that resume returned for the same signal change."""
        days = reach(self.strategy_config, entry_day, self.test.n_days())
        raw = self.raw_signals[ticker]
        entries = self.predictions[ticker].copy()
        entries[entry_day] = entry
        patch = generate_signals(self.test.series[ticker], entries, self.strategy_config, days)
        changed = [
            i for i, (new, old) in enumerate(zip(patch, raw[days.start : days.stop]))
            if new is not old
        ]
        if not changed:
            return self.baseline, None
        # the attacked signals are the baseline's with this span replaced
        key = (ticker, days.start + changed[0], tuple(patch[changed[0] : changed[-1] + 1]))
        if memo is not None and key in memo:
            return memo[key]
        signals = dict(self.baseline_run.signals)
        signals[ticker] = shift_signals(raw[: days.start] + patch + raw[days.stop :])
        found = resume_signals(self.test, signals, self.cost_model, self.baseline_run)
        if memo is not None:
            memo[key] = found
        return found

    def outcome(
        self, ep: EpSpec, memo: dict | None = None
    ) -> tuple[SimulationResult, AttackOutcome]:
        """The attacked run and its impact record for one perturbation.

        ``memo``, a dict shared by the cells of one protocol call, keeps the
        attacked run of each signal change already simulated."""
        self.require_cells(ep.ticker, [ep.day])

        entry_day, entry, perturbed_close, clean_close = perturbed_prediction_entry(
            self.predictors[ep.ticker],
            self.dataset.series[ep.ticker],
            self.test_start,
            ep,
            self.scaled(ep.ticker),
            self.perturbed_close(ep),
        )
        attacked, first_divergence = self.baseline, None
        rmse_clean = rmse_attacked = self.rmse_clean[ep.ticker]
        if entry_day is not None:
            if not self.keeps_signals(ep.ticker, entry_day, entry):
                attacked, first_divergence = self._changed_run(
                    ep.ticker, entry_day, entry, memo
                )
            errs = self.errors[ep.ticker].copy()
            errs[entry_day] = entry - float(self.test.series[ep.ticker].closes()[entry_day])
            rmse_attacked = rmse(errs)

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
            first_divergence_day=first_divergence,
        )
        return attacked, outcome


def clean_run(
    dataset: Dataset,
    test_start: int,
    predictors: dict[str, RidgePredictor],
    strategy_config: StrategyConfig,
    cost_model: CostModel,
) -> tuple[dict[str, np.ndarray], SimulationResult]:
    """Baseline forecast columns and simulation over the test window."""
    context = AttackContext(dataset, test_start, predictors, strategy_config, cost_model)
    return context.predictions, context.baseline


def _run_cells(context: AttackContext, kind: str, ticker: str, days, modes) -> AttackResult:
    """Attack ``ticker`` on each day with each mode (day-major, mode-minor).

    A ticker the context has no predictor for, a day outside the test
    window, or a day or mode given twice (its cells would weigh twice in any
    fraction taken over them), fails before any cell; a cell that cannot be
    crafted is recorded as a :class:`CellError` and skipped."""
    days = list(days)
    context.require_cells(ticker, days)
    for what, values in (("day", days), ("mode", [mode.label for mode in modes])):
        if len(set(values)) < len(values):
            repeated = sorted({v for v in values if values.count(v) > 1})
            raise AttackSetupError(f"{what}s: each {what} once, {repeated} repeated")
    outcomes: list[AttackOutcome] = []
    errors: list[CellError] = []
    memo: dict = {}  # one protocol call's signal changes and their runs
    for day in days:
        for mode in modes:
            try:
                outcomes.append(context.outcome(EpSpec(ticker, day, mode), memo)[1])
            except AttackSetupError as exc:
                errors.append(CellError(day=day, label=mode.label, message=str(exc)))
    return AttackResult(kind, tuple(outcomes), context.baseline, tuple(errors))


def sweep_indiscriminate(
    context: AttackContext, ticker: str, omegas, ddof: int = 1, days=None
) -> AttackResult:
    """Attack each test day once per omega (day-major, omega-minor).

    ``days`` lists the test days to attack, in order; every test day when
    None. Infeasible cells (not enough history for the sigma window) are
    recorded and skipped.
    """
    modes = [StdDevMode(omega=omega, ddof=ddof) for omega in omegas]
    if not modes:
        raise AttackSetupError("need at least one omega")
    if days is None:
        days = range(context.test.n_days())
    return _run_cells(context, "sweep", ticker, days, modes)


def run_targeted(
    context: AttackContext,
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
    return _run_cells(context, scenario, ticker, days, [mode])
