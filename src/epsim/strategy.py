"""Buy/sell/hold signal generation from prediction streams.

Three strategies are provided, all driven by the day's forecast:

* moving-average crossover over the prediction stream (short vs long mean),
* rate of change (ROC) of the day's forecast vs the close a fixed lookback ago,
* Bollinger bands built from trailing actual closes, exited by the forecast.

Signal timing: the signal for day t may use prediction entries up to day t
(entry t is computed from data through day t-1) and actual closes up to day
t-1. :func:`shift_signals` then delays execution by one further day, so the
executed decision never touches data from its own trading day.

Reach: every rule above reads a bounded stretch of forecasts, so a change to
one forecast entry can move only a few signal days (:func:`reach`), and
:func:`generate_signals` can regenerate just those days (``days``) with the
same per-day arithmetic a full pass uses.

All functions here are pure over immutable inputs.
"""

from __future__ import annotations

import enum
import math

from .config import STRATEGY_KINDS, StrategyConfig  # noqa: F401  (re-exported from their old home)
from .errors import ConfigurationError
from .market_data import StockSeries
from .predictor import PredictionSeries


class Signal(enum.Enum):
    BUY = "buy"
    SELL = "sell"
    HOLD = "hold"


def _prediction_mean(entries: dict[int, float], end: int, length: int):
    """Mean of entries for days end-length+1 .. end, or None if any missing."""
    total = 0.0
    for d in range(end - length + 1, end + 1):
        v = entries.get(d)
        if v is None:
            return None
        total += v
    return total / length


def _short_above_long(entries: dict[int, float], t: int, config: StrategyConfig):
    """Whether day t's short mean exceeds its long mean (None if either is
    undefined)."""
    short = _prediction_mean(entries, t, config.ma_short)
    long = _prediction_mean(entries, t, config.ma_long)
    if short is None or long is None:
        return None
    return short > long


def ma_crossover_signals(
    predictions: PredictionSeries,
    config: StrategyConfig,
    n_days: int,
    days: range | None = None,
) -> list[Signal]:
    """Buy when the short mean of predictions crosses above the long mean.

    Edge-triggered: a signal fires only on the day the (short > long)
    comparison flips, with exact ties counting as "not above", so buys and
    sells always alternate. Days where either mean is undefined are Hold.
    With ``days``, the edge state is seeded from day ``days.start - 1``.
    """
    days = range(n_days) if days is None else days
    entries = predictions.entries
    signals = [Signal.HOLD] * len(days)
    prev_above = (
        _short_above_long(entries, days.start - 1, config) if days.start > 0 else None
    )
    for i, t in enumerate(days):
        above = _short_above_long(entries, t, config)
        if above is not None and prev_above is not None and above != prev_above:
            signals[i] = Signal.BUY if above else Signal.SELL
        prev_above = above
    return signals


def roc_signals(
    prices: StockSeries,
    predictions: PredictionSeries,
    config: StrategyConfig,
    n_days: int,
    days: range | None = None,
) -> list[Signal]:
    """Threshold the rate of change of the day's decision value.

    ROC_t = (v_t - close_{t-lookback}) / close_{t-lookback} * 100, where v_t
    is the day's prediction (or the raw close when roc_use_predictions is
    off). Strictly above the buy threshold is Buy, strictly below the sell
    threshold is Sell, anything else (including boundary values) is Hold.
    """
    days = range(n_days) if days is None else days
    closes = prices.closes()
    signals = [Signal.HOLD] * len(days)
    for i, t in enumerate(days):
        ref_day = t - config.roc_lookback
        if ref_day < 0 or ref_day >= len(closes):
            continue
        if config.roc_use_predictions:
            value = predictions.entries.get(t)
            if value is None:
                continue
        else:
            if t >= len(closes):
                continue
            value = closes[t]
        roc = (value - closes[ref_day]) / closes[ref_day] * 100.0
        if roc > config.roc_buy_threshold:
            signals[i] = Signal.BUY
        elif roc < config.roc_sell_threshold:
            signals[i] = Signal.SELL
    return signals


def bollinger_signals(
    prices: StockSeries,
    predictions: PredictionSeries,
    config: StrategyConfig,
    n_days: int,
    days: range | None = None,
) -> list[Signal]:
    """Buy/sell when the day's forecast exits the trailing close band.

    The band is mean +/- width * sample std of the bb_period closes ending
    the day before the decision day, so it contains only realized prices.
    Band edges are non-strict: a forecast exactly on an edge is Hold.
    """
    days = range(n_days) if days is None else days
    closes = prices.closes()
    signals = [Signal.HOLD] * len(days)
    p = config.bb_period
    for i, t in enumerate(days):
        if t - p < 0 or t > len(closes):
            continue
        value = predictions.entries.get(t)
        if value is None:
            continue
        window = closes[t - p : t]
        mean = float(window.mean())
        var = float(((window - mean) ** 2).sum()) / (p - 1)
        half = config.bb_width * math.sqrt(var)
        if value > mean + half:
            signals[i] = Signal.BUY
        elif value < mean - half:
            signals[i] = Signal.SELL
    return signals


def shift_signals(signals: list[Signal]) -> list[Signal]:
    """Delay by one day: day t executes day t-1's signal, day 0 holds."""
    if not signals:
        raise ConfigurationError("cannot shift an empty signal sequence")
    return [Signal.HOLD] + list(signals[:-1])


def generate_signals(
    prices: StockSeries,
    predictions: PredictionSeries,
    config: StrategyConfig,
    n_days: int,
    days: range | None = None,
) -> list[Signal]:
    """Dispatch to the configured strategy (unshifted signals).

    ``days``, a step-1 range within the n-day calendar, restricts the output
    to those days: the result equals ``generate_signals(...)[days.start :
    days.stop]``, computed with the same per-day arithmetic.
    """
    if config.kind == "ma_crossover":
        return ma_crossover_signals(predictions, config, n_days, days)
    if config.kind == "rate_of_change":
        return roc_signals(prices, predictions, config, n_days, days)
    return bollinger_signals(prices, predictions, config, n_days, days)


def reach(config: StrategyConfig, entry_day: int, n: int) -> range:
    """The unshifted signal days, within an n-day calendar, that a change to
    forecast entry ``entry_day`` can move.

    The entry must exist both before and after the change (only its value
    moves). MA crossover: the entry is in the long mean (and the shorter
    short mean) on days entry_day .. entry_day + ma_long - 1, and each of
    those days' comparison also sets the next day's edge, so [entry_day,
    entry_day + ma_long]. Bollinger
    bands and ROC on forecasts read only the day's own forecast:
    [entry_day]. ROC on closes reads no forecast: no day. Every signal day
    outside the range equals its value before the change.
    """
    if config.kind == "ma_crossover":
        last = entry_day + config.ma_long
    elif config.kind == "rate_of_change" and not config.roc_use_predictions:
        return range(0)
    else:
        last = entry_day
    stop = min(last + 1, n)
    return range(min(entry_day, stop), stop)
