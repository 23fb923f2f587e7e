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
match an earlier run's up to some day can resume from that run's state on
that day instead of replaying the shared prefix, and once its signals match
again and its state equals the earlier run's on some day, the rest of the
earlier run is its rest too (:func:`resume_signals`).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, MetricError, SimulationSetupError, ZeroVolatilityWarning
from .market_data import Dataset
from .predictor import PredictionSeries
from .strategy import Signal, StrategyConfig, generate_signals, shift_signals

RESULT_SCHEMA = "epsim/result/v1"


@dataclass(frozen=True)
class CostModel:
    commission_per_share: float = 0.005
    slippage_per_share: float = 0.02
    position_fraction: float = 0.10
    initial_capital: float = 100_000.0
    risk_free_annual: float = 0.0505
    trading_days_per_year: int = 252
    # "per_share": execution price = close +/- slippage_per_share (currency).
    # "proportional": execution price = close * (1 +/- slippage_per_share).
    slippage_mode: str = "per_share"

    def __post_init__(self):
        for name in (
            "commission_per_share",
            "slippage_per_share",
            "initial_capital",
            "risk_free_annual",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if not 0 < self.position_fraction <= 1:
            raise ConfigurationError("position_fraction must be in (0,1]")
        if self.trading_days_per_year < 1:
            raise ConfigurationError("trading_days_per_year must be >= 1")
        if self.slippage_mode not in ("per_share", "proportional"):
            raise ConfigurationError(
                f"slippage_mode must be per_share or proportional, "
                f"got {self.slippage_mode!r}"
            )

    def buy_price(self, close: float) -> float:
        if self.slippage_mode == "proportional":
            return close * (1.0 + self.slippage_per_share)
        return close + self.slippage_per_share

    def sell_price(self, close: float) -> float:
        if self.slippage_mode == "proportional":
            return close * (1.0 - self.slippage_per_share)
        return close - self.slippage_per_share

    def risk_free_daily(self) -> float:
        return (1.0 + self.risk_free_annual) ** (1.0 / self.trading_days_per_year) - 1.0


@dataclass(frozen=True)
class TradeRecord:
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
        raise SimulationSetupError(f"{ticker}: non-positive close {day_close}")

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


@dataclass(frozen=True)
class SimulationResult:
    daily_returns: tuple[float, ...]
    cumulative_returns: tuple[float, ...]
    sharpe_ratio: float
    trade_ledger: tuple[TradeRecord, ...]
    final_value: float

    def final_cumulative_return(self) -> float:
        return self.cumulative_returns[-1] if self.cumulative_returns else 0.0

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "daily_returns": list(self.daily_returns),
            "cumulative_returns": list(self.cumulative_returns),
            "sharpe_ratio": self.sharpe_ratio,
            "final_value": self.final_value,
            "trades": [
                {
                    "day": t.day,
                    "ticker": t.ticker,
                    "side": t.side.value,
                    "shares": t.shares,
                    "price": t.execution_price,
                    "commission": t.commission_paid,
                    "slippage": t.slippage_paid,
                }
                for t in self.trade_ledger
            ],
        }

    def serialize(self) -> str:
        """Canonical JSON; identical inputs give byte-identical output."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def cumulative_returns(daily_returns) -> list[float]:
    """c_t = prod_{d<=t} (1 + r_d) - 1."""
    returns = np.asarray(list(daily_returns), dtype=np.float64)
    if returns.size == 0:
        raise MetricError("cumulative_returns needs at least one return")
    return [float(v) for v in np.cumprod(1.0 + returns) - 1.0]


def sharpe_ratio(daily_returns, cost_model: CostModel) -> float:
    """Annualized mean excess daily return over its sample (n-1) std.

    Zero volatility is flagged with ZeroVolatilityWarning and reported as 0
    instead of dividing by zero.
    """
    returns = np.asarray(list(daily_returns), dtype=np.float64)
    if returns.size < 2:
        raise MetricError("sharpe_ratio needs at least 2 returns")
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


@dataclass(frozen=True)
class DayStart:
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


@dataclass(frozen=True)
class SignalRun:
    """A finished run: the signals it executed, its result, the state before
    each of its days (what a later run resumes from) and each day's marks.

    The run executed days [start, stop) itself; the days before ``start``
    were copied from the run it resumed, and from ``stop`` on it rejoined
    that run, whose ledger tail and returns it shares.
    """

    signals: dict[str, list[Signal]]
    result: SimulationResult
    day_starts: tuple[DayStart, ...]
    marks: tuple[dict[str, float], ...]
    start: int
    stop: int

    def trades_on(self, day: int) -> tuple[TradeRecord, ...]:
        """The day's trades, located through ``day_starts``."""
        ledger = self.result.trade_ledger
        end = (
            self.day_starts[day + 1].n_trades
            if day + 1 < len(self.day_starts)
            else len(ledger)
        )
        return ledger[self.day_starts[day].n_trades : end]


def run_signals(
    test: Dataset,
    signals: dict[str, list[Signal]],
    cost_model: CostModel,
) -> SimulationResult:
    """Execute pre-shifted per-ticker signal sequences over the test calendar.

    This is the scripted-signal entry point; :func:`run_simulation` layers
    strategy generation and the anti-lookahead shift on top of it.
    """
    return resume_signals(test, signals, cost_model).result


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
    base: SignalRun | None = None,
) -> SignalRun:
    """Execute pre-shifted signals, reusing ``base`` wherever they agree.

    Up to the first day on which some ticker's signal differs from
    ``base.signals``, both runs trade identically, so that prefix (state,
    ledger, returns) is taken from ``base`` and the day loop starts there;
    when no day differs, ``base`` itself is returned. Past the last differing
    day, the loop stops at the first day t whose portfolio state
    :meth:`DayStart.matches` ``base.day_starts[t]``: from an identical state
    the same signals trade identically, so ``base``'s ledger tail, daily
    returns and day starts (each ``n_trades`` shifted by the difference in
    ledger length) are spliced in. Without ``base`` the loop runs from the
    initial capital on day 0 to the end. Either way the result is
    bit-identical to executing ``signals`` from day 0. Day marks (the
    closes) are computed once per run from day 0 and reused by every run
    resumed from it.
    """
    n = test.n_days()
    tickers = test.tickers()
    for tk in tickers:
        if tk not in signals:
            raise SimulationSetupError(f"no signal sequence for {tk}")
        if len(signals[tk]) != n:
            raise SimulationSetupError(
                f"{tk}: {len(signals[tk])} signals for a {n}-day calendar"
            )

    if base is None:
        start, last = 0, n
        capital = cost_model.initial_capital
        resume = DayStart(cash=capital, holdings={}, prev_value=capital, n_trades=0)
        closes = {tk: test.series[tk].closes() for tk in tickers}
        marks = tuple({tk: float(closes[tk][t]) for tk in tickers} for t in range(n))
        ledger: list[TradeRecord] = []
        daily: list[float] = []
        day_starts: list[DayStart] = []
    else:
        start, last = _changed_span(base.signals, signals, tickers, n)
        if start == n:
            return base
        resume = base.day_starts[start]
        marks = base.marks
        ledger = list(base.result.trade_ledger[: resume.n_trades])
        daily = list(base.result.daily_returns[:start])
        day_starts = list(base.day_starts[:start])
    state = PortfolioState(cash=resume.cash)
    state.holdings = dict(resume.holdings)
    prev_value = resume.prev_value

    stop = n
    for t in range(start, n):
        if t > last and base.day_starts[t].matches(state.cash, state.holdings, prev_value):
            stop = t
            joined = base.day_starts[t]
            offset = len(ledger) - joined.n_trades
            ledger.extend(base.result.trade_ledger[joined.n_trades :])
            daily.extend(base.result.daily_returns[t:])
            day_starts.extend(
                ds if offset == 0 else replace(ds, n_trades=ds.n_trades + offset)
                for ds in base.day_starts[t:]
            )
            prev_value = base.result.final_value
            break
        day_starts.append(
            DayStart(state.cash, dict(state.holdings), prev_value, len(ledger))
        )
        state.day = t
        state.marks = marks[t]
        for tk in tickers:
            record = execute_signal(state, tk, signals[tk][t], state.marks[tk], cost_model)
            if record is not None:
                ledger.append(record)
        value = state.total_value()
        daily.append(value / prev_value - 1.0)
        prev_value = value

    result = SimulationResult(
        daily_returns=tuple(daily),
        cumulative_returns=tuple(cumulative_returns(daily)) if daily else (),
        sharpe_ratio=sharpe_ratio(daily, cost_model) if len(daily) >= 2 else 0.0,
        trade_ledger=tuple(ledger),
        final_value=prev_value,
    )
    return SignalRun(
        signals=signals,
        result=result,
        day_starts=tuple(day_starts),
        marks=marks,
        start=start,
        stop=stop,
    )


def strategy_signals(
    test: Dataset,
    predictions: dict[str, PredictionSeries],
    strategy_config: StrategyConfig,
) -> dict[str, list[Signal]]:
    """Every ticker's unshifted signals over the test calendar, generated
    from its forecasts, which must all fall inside the calendar."""
    n = test.n_days()
    if n == 0:
        raise SimulationSetupError("empty test calendar")
    signals: dict[str, list[Signal]] = {}
    for tk in test.tickers():
        if tk not in predictions:
            raise SimulationSetupError(f"no predictions for {tk}")
        bad = [d for d in predictions[tk].entries if not 0 <= d < n]
        if bad:
            raise SimulationSetupError(
                f"{tk}: prediction days {sorted(bad)[:5]} outside the "
                f"{n}-day test calendar"
            )
        signals[tk] = generate_signals(test.series[tk], predictions[tk], strategy_config, n)
    return signals


def run_simulation(
    test: Dataset,
    predictions: dict[str, PredictionSeries],
    strategy_config: StrategyConfig,
    cost_model: CostModel,
) -> SimulationResult:
    """Generate signals per ticker, shift them by one day, and execute.

    Deterministic: identical inputs yield bit-identical results.
    """
    raw = strategy_signals(test, predictions, strategy_config)
    return run_signals(test, {tk: shift_signals(s) for tk, s in raw.items()}, cost_model)
