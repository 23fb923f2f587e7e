"""Day-by-day execution of shifted signals against portfolio state.

Accounting rules:

* a Buy targets a fixed fraction of the current total portfolio value,
  buys whole shares at (close + slippage), pays per-share commission, and
  degrades to a no-op when that would overdraw cash or round to zero shares;
* a Sell mirrors the sizing (capped by holdings), executes at
  (close - slippage) minus commission, and is a no-op with no holdings;
* no shorting, no leverage: cash and holdings never go negative;
* tickers execute in lexicographic order so capital contention resolves
  deterministically.

A single run is strictly sequential. Because a day's trades depend only on
the portfolio state before it and that day's signals, a run whose signals
match a recorded run's (:func:`record_signals`) up to some day resumes from
that run's state on that day instead of replaying the shared prefix. One
comparison per day then does the rest (:func:`resume_signals`): the first
day that does not end in the recorded run's state is the first divergence,
and once the signals match again and a day ends in that state, the rest of
the recorded run is the rest of this one.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .config import CostModel, StrategyConfig
from .errors import TradeEngineError, ZeroVolatilityWarning
from .market_data import Dataset
from .strategy import Signal, generate_signals, shift_signals

if TYPE_CHECKING:  # annotations only: numpy is imported where it computes
    import numpy as np


class TradeRecord(NamedTuple):
    day: int
    ticker: str
    side: Signal
    shares: int
    execution_price: float
    commission_paid: float
    slippage_paid: float


class PortfolioState:
    """Cash, whole-share holdings, and the running valuation ledger."""

    def __init__(self, cash: float):
        self.cash = cash
        self.holdings: dict[str, int] = {}
        self.day = 0
        self.marks: dict[str, float] = {}

    def total_value(self) -> float:
        return self.cash + sum(
            shares * self.marks[tk] for tk, shares in self.holdings.items() if shares
        )


def execute_signal(
    state: PortfolioState,
    ticker: str,
    signal: Signal,
    day_close: float,
    cost_model: CostModel,
) -> TradeRecord | None:
    """Apply one signal to the portfolio; infeasible signals are no-ops.

    Mutates ``state`` and returns the trade record, or None when nothing
    executed. ``state.marks`` must already reflect the day's closes.
    """
    if signal is Signal.HOLD:
        return None
    if day_close <= 0:
        raise TradeEngineError(f"{ticker}: non-positive close {day_close}")

    budget = cost_model.position_fraction * state.total_value()

    if signal is Signal.BUY:
        price = cost_model.buy_price(day_close)
        if price <= 0:
            return None
        shares = math.floor(budget / price)
        if shares < 1:
            return None
        commission = shares * cost_model.commission_per_share
        cost = shares * price + commission
        if state.cash - cost < 0:
            return None
        state.cash -= cost
        state.holdings[ticker] = state.holdings.get(ticker, 0) + shares
        return TradeRecord(
            day=state.day,
            ticker=ticker,
            side=Signal.BUY,
            shares=shares,
            execution_price=price,
            commission_paid=commission,
            slippage_paid=shares * (price - day_close),
        )

    held = state.holdings.get(ticker, 0)
    if held < 1:
        return None
    price = cost_model.sell_price(day_close)
    if price <= 0:
        return None
    shares = min(held, math.floor(budget / day_close))
    if shares < 1:
        return None
    commission = shares * cost_model.commission_per_share
    state.cash += shares * price - commission
    state.holdings[ticker] = held - shares
    return TradeRecord(
        day=state.day,
        ticker=ticker,
        side=Signal.SELL,
        shares=shares,
        execution_price=price,
        commission_paid=commission,
        slippage_paid=shares * (day_close - price),
    )


class SimulationResult(NamedTuple):
    daily_returns: tuple[float, ...]
    cumulative_returns: tuple[float, ...]
    sharpe_ratio: float
    trade_ledger: tuple[TradeRecord, ...]
    final_value: float

    def final_cumulative_return(self) -> float:
        return self.cumulative_returns[-1] if self.cumulative_returns else 0.0


def cumulative_returns(daily_returns) -> list[float]:
    """c_t = prod_{d<=t} (1 + r_d) - 1."""
    import numpy as np

    returns = np.asarray(list(daily_returns), dtype=np.float64)
    if returns.size == 0:
        raise TradeEngineError("cumulative_returns needs at least one return")
    return [float(v) for v in np.cumprod(1.0 + returns) - 1.0]


def sharpe_ratio(daily_returns, cost_model: CostModel) -> float:
    """Annualized mean excess daily return over its sample (n-1) std.

    Zero volatility is flagged with ZeroVolatilityWarning and reported as 0
    instead of dividing by zero.
    """
    import numpy as np

    returns = np.asarray(list(daily_returns), dtype=np.float64)
    if returns.size < 2:
        raise TradeEngineError("sharpe_ratio needs at least 2 returns")
    excess = returns - cost_model.risk_free_daily()
    std = float(np.std(excess, ddof=1))
    if std == 0.0:
        warnings.warn(
            "zero-volatility return stream; Sharpe ratio reported as 0",
            ZeroVolatilityWarning,
            stacklevel=2,
        )
        return 0.0
    annualizer = math.sqrt(cost_model.trading_days_per_year)
    return float(np.mean(excess)) / std * annualizer


class DayStart(NamedTuple):
    """Portfolio state before a day's trades, and the ledger length then."""

    cash: float
    holdings: dict[str, int]
    prev_value: float
    n_trades: int

    def matches(self, cash: float, holdings: dict[str, int], prev_value: float) -> bool:
        """Whether a portfolio is exactly this state, so that running the
        same signals from it gives the same trades and returns bit for bit.

        Holdings are compared as ordered item lists, zero-share keys
        included: :meth:`PortfolioState.total_value` sums in dict order and
        a zero-share key fixes where that ticker sits once bought again, so
        holdings equal as unordered dicts can still value differently.
        """
        return (
            cash == self.cash
            and prev_value == self.prev_value
            and list(holdings.items()) == list(self.holdings.items())
        )


class SignalRun(NamedTuple):
    """A recorded run, the base that later runs resume from: the signals it
    executed, its result, the state before each of its days and after its
    last (``n + 1`` day starts), and each day's marks."""

    signals: dict[str, list[Signal]]
    result: SimulationResult
    day_starts: tuple[DayStart, ...]
    marks: tuple[dict[str, float], ...]


def run_signals(
    test: Dataset,
    signals: dict[str, list[Signal]],
    cost_model: CostModel,
) -> SimulationResult:
    """Execute pre-shifted per-ticker signal sequences over the test calendar.

    This is the scripted-signal entry point; :func:`run_simulation` layers
    strategy generation and the anti-lookahead shift on top of it.
    """
    return record_signals(test, signals, cost_model).result


def _tickers(test: Dataset, signals: dict[str, list[Signal]]) -> list[str]:
    """The calendar's tickers, once each has a signal for every day."""
    n = test.n_days()
    tickers = test.tickers()
    for tk in tickers:
        if tk not in signals:
            raise TradeEngineError(f"no signal sequence for {tk}")
        if len(signals[tk]) != n:
            raise TradeEngineError(
                f"{tk}: {len(signals[tk])} signals for a {n}-day calendar"
            )
    return tickers


def _trade_day(state, tickers, signals, t, marks, cost_model, ledger) -> float:
    """Execute day ``t``'s signals on ``state`` at the day's ``marks``,
    appending each trade to ``ledger``; returns the portfolio value after."""
    state.day = t
    state.marks = marks
    for tk in tickers:
        record = execute_signal(state, tk, signals[tk][t], marks[tk], cost_model)
        if record is not None:
            ledger.append(record)
    return state.total_value()


def _result(daily, ledger, final_value: float, cost_model: CostModel) -> SimulationResult:
    return SimulationResult(
        daily_returns=tuple(daily),
        cumulative_returns=tuple(cumulative_returns(daily)) if daily else (),
        sharpe_ratio=sharpe_ratio(daily, cost_model) if len(daily) >= 2 else 0.0,
        trade_ledger=tuple(ledger),
        final_value=final_value,
    )


def record_signals(
    test: Dataset,
    signals: dict[str, list[Signal]],
    cost_model: CostModel,
) -> SignalRun:
    """Execute pre-shifted signals from the initial capital on day 0 and
    record the run: the state after each day, and each day's marks (the
    closes), which every run resumed from it reuses."""
    tickers = _tickers(test, signals)
    closes = {tk: test.series[tk].closes() for tk in tickers}
    marks = tuple(
        {tk: float(closes[tk][t]) for tk in tickers} for t in range(test.n_days())
    )
    state = PortfolioState(cash=cost_model.initial_capital)
    prev_value = state.cash
    ledger: list[TradeRecord] = []
    daily: list[float] = []
    day_starts = [DayStart(state.cash, {}, prev_value, 0)]
    for t, day_marks in enumerate(marks):
        value = _trade_day(state, tickers, signals, t, day_marks, cost_model, ledger)
        daily.append(value / prev_value - 1.0)
        prev_value = value
        day_starts.append(DayStart(state.cash, dict(state.holdings), value, len(ledger)))
    return SignalRun(
        signals=signals,
        result=_result(daily, ledger, prev_value, cost_model),
        day_starts=tuple(day_starts),
        marks=marks,
    )


def _changed_span(base: dict, signals: dict, tickers, n: int) -> tuple[int, int]:
    """First and last day on which any ticker's executed signal differs
    ((n, -1) if none)."""
    first, last = n, -1
    for tk in tickers:
        old, new = base[tk], signals[tk]
        if old is not new:
            changed = [t for t in range(n) if old[t] != new[t]]
            if changed:
                first, last = min(first, changed[0]), max(last, changed[-1])
    return first, last


def resume_signals(
    test: Dataset,
    signals: dict[str, list[Signal]],
    cost_model: CostModel,
    base: SignalRun,
) -> tuple[SimulationResult, int | None]:
    """Execute pre-shifted signals, reusing ``base`` wherever they agree.

    Returns the result, bit-identical to executing ``signals`` from day 0,
    and the first day whose trades or return differ from ``base``'s (None
    if none). The loop starts from ``base``'s state on the first day whose
    signals differ. From an equal state, a day trades and returns as
    ``base``'s did exactly when it ends in ``base``'s state
    (:meth:`DayStart.matches`): each ticker trades at most once a day, by
    whole shares, so different trades leave different holdings. So the
    first miss is the first divergence, and a match on or after the last
    changed day rejoins ``base``: its ledger tail and returns are spliced
    in, or with no miss its result is returned itself.
    """
    tickers = _tickers(test, signals)
    n = test.n_days()
    start, last = _changed_span(base.signals, signals, tickers, n)
    if start == n:
        return base.result, None
    resume = base.day_starts[start]
    state = PortfolioState(cash=resume.cash)
    state.holdings = dict(resume.holdings)
    prev_value = resume.prev_value
    ledger = list(base.result.trade_ledger[: resume.n_trades])
    daily = list(base.result.daily_returns[:start])
    diverged = None
    for t in range(start, n):
        value = _trade_day(state, tickers, signals, t, base.marks[t], cost_model, ledger)
        daily.append(value / prev_value - 1.0)
        prev_value = value
        joined = base.day_starts[t + 1]
        if not joined.matches(state.cash, state.holdings, value):
            if diverged is None:
                diverged = t
        elif t >= last:
            if diverged is None:
                return base.result, None
            ledger.extend(base.result.trade_ledger[joined.n_trades :])
            daily.extend(base.result.daily_returns[t + 1 :])
            prev_value = base.result.final_value
            break
    return _result(daily, ledger, prev_value, cost_model), diverged


def strategy_signals(
    test: Dataset,
    predictions: dict[str, np.ndarray],
    strategy_config: StrategyConfig,
) -> dict[str, list[Signal]]:
    """Every ticker's unshifted signals over the test calendar, generated
    from its forecast column, which must be as long as the calendar."""
    n = test.n_days()
    if n == 0:
        raise TradeEngineError("empty test calendar")
    signals: dict[str, list[Signal]] = {}
    for tk in test.tickers():
        if tk not in predictions:
            raise TradeEngineError(f"no predictions for {tk}")
        if len(predictions[tk]) != n:
            raise TradeEngineError(
                f"{tk}: {len(predictions[tk])} forecasts for a {n}-day test calendar"
            )
        signals[tk] = generate_signals(test.series[tk], predictions[tk], strategy_config)
    return signals


def run_simulation(
    test: Dataset,
    predictions: dict[str, np.ndarray],
    strategy_config: StrategyConfig,
    cost_model: CostModel,
) -> SimulationResult:
    """Generate signals per ticker from its forecast column (one float64
    entry per test day, NaN without a forecast), shift them by one day, and
    execute.

    Deterministic: identical inputs yield bit-identical results.
    """
    raw = strategy_signals(test, predictions, strategy_config)
    return run_signals(test, {tk: shift_signals(s) for tk, s in raw.items()}, cost_model)
