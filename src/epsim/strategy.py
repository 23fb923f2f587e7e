"""Buy/sell/hold signal generation from forecast columns.

Three strategies are provided, all driven by the day's forecast:

* moving-average crossover over the prediction stream (short vs long mean),
* rate of change (ROC) of the day's forecast vs the close a fixed lookback ago,
* Bollinger bands built from trailing actual closes, exited by the forecast.

Forecasts: each rule reads one ticker's forecast column, a float64 array
over the test calendar whose entry t forecasts day t's close and is NaN on a
day without a forecast; its length is the calendar's.

Signal timing: the signal for day t may use forecast entries up to day t
(entry t is computed from data through day t-1) and actual closes up to day
t-1. :func:`shift_signals` then delays execution by one further day, so the
executed decision never touches data from its own trading day.

Reach: every rule above reads a bounded stretch of forecasts, so a change to
one forecast entry can move only a few signal days (:func:`reach`), and
:func:`generate_signals` can regenerate just those days (``days``) with the
same per-day arithmetic a full pass uses. Each reach day compares a linear
function of that entry with a threshold, so :func:`stable_intervals` can
give every entry day the interval of values that moves no signal at all.

All functions here are pure over immutable inputs.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

from .errors import ConfigurationError
from .market_data import StockSeries, sliding_windows

if TYPE_CHECKING:  # annotations only: numpy is imported where it computes
    import numpy as np

    from .config import StrategyConfig


class Signal(enum.Enum):
    BUY = "buy"
    SELL = "sell"
    HOLD = "hold"


def _prediction_mean(values: list, end: int, length: int):
    """Mean of values[end-length+1 .. end], or None if any is missing (NaN)."""
    total = 0.0
    for v in values[end - length + 1 : end + 1]:
        if v != v:
            return None
        total += v
    return total / length


def _short_above_long(values: list, t: int, config: StrategyConfig):
    """Whether the short mean ending at values[t] exceeds the long one (None
    if either is undefined)."""
    short = _prediction_mean(values, t, config.ma_short)
    long = _prediction_mean(values, t, config.ma_long)
    if short is None or long is None:
        return None
    return short > long


def ma_crossover_signals(
    entries: np.ndarray,
    config: StrategyConfig,
    days: range | None = None,
) -> list[Signal]:
    """Buy when the short mean of the forecasts crosses above the long mean.

    Edge-triggered: a signal fires only on the day the (short > long)
    comparison flips, with exact ties counting as "not above", so buys and
    sells always alternate. Days where either mean is undefined (a missing
    forecast in it) are Hold. With ``days``, the edge state is seeded from
    day ``days.start - 1``.
    """
    days = range(len(entries)) if days is None else days
    # every entry a mean reads, from the long mean of day days.start - 1 on:
    # values[i] is day first + i's (NaN if missing or before day 0)
    first = days.start - config.ma_long
    values = [math.nan] * -first + entries[max(first, 0) : days.stop].tolist()
    signals = [Signal.HOLD] * len(days)
    prev_above = (
        _short_above_long(values, days.start - 1 - first, config)
        if days.start > 0
        else None
    )
    for i, t in enumerate(days):
        above = _short_above_long(values, t - first, config)
        if above is not None and prev_above is not None and above != prev_above:
            signals[i] = Signal.BUY if above else Signal.SELL
        prev_above = above
    return signals


def roc_signals(
    prices: StockSeries,
    entries: np.ndarray,
    config: StrategyConfig,
    days: range | None = None,
) -> list[Signal]:
    """Threshold the rate of change of the day's forecast.

    ROC_t = (v_t - close_{t-lookback}) / close_{t-lookback} * 100, where v_t
    is the day's forecast. Strictly above the buy threshold is Buy,
    strictly below the sell threshold is Sell, anything else (including
    boundary values) is Hold, and so is a day without a forecast: its NaN
    ROC compares false with both thresholds.
    """
    days = range(len(entries)) if days is None else days
    closes = prices.closes()
    values = entries[days.start : days.stop].tolist()
    signals = [Signal.HOLD] * len(days)
    for i, t in enumerate(days):
        ref_day = t - config.roc_lookback
        if ref_day < 0 or ref_day >= len(closes):
            continue
        roc = (values[i] - closes[ref_day]) / closes[ref_day] * 100.0
        if roc > config.roc_buy_threshold:
            signals[i] = Signal.BUY
        elif roc < config.roc_sell_threshold:
            signals[i] = Signal.SELL
    return signals


def bollinger_band(closes: np.ndarray, config: StrategyConfig, days: range):
    """The band of each day of ``days``, as two arrays (lower, upper).

    Day t's band is mean +/- bb_width * sample std of ``closes[t - bb_period
    : t]``, the closes ending the day before; it is NaN where that window
    does not exist. The windows' means and variances are taken in one pass,
    each with the arithmetic of ``window.mean()`` and ``((window - mean) **
    2).sum() / (bb_period - 1)``, so every edge has the bits a per-day
    computation gives (``tests/oracles.py`` keeps that form).
    """
    import numpy as np

    p = config.bb_period
    lower = np.full(len(days), np.nan)
    upper = lower.copy()
    first, last = max(days.start, p), min(days.stop - 1, len(closes))
    if first <= last:
        windows = sliding_windows(closes[first - p : last], p)  # row i: day first + i
        mean = np.add.reduce(windows, axis=1) / p  # what mean(axis=1) computes
        var = np.add.reduce((windows - mean[:, None]) ** 2, axis=1) / (p - 1)
        half = config.bb_width * np.sqrt(var)
        lower[first - days.start : last - days.start + 1] = mean - half
        upper[first - days.start : last - days.start + 1] = mean + half
    return lower, upper


def bollinger_signals(
    prices: StockSeries,
    entries: np.ndarray,
    config: StrategyConfig,
    days: range | None = None,
) -> list[Signal]:
    """Buy/sell when the day's forecast exits the trailing close band.

    The band (:func:`bollinger_band`) is built from the bb_period closes
    ending the day before the decision day, so it contains only realized
    prices. Band edges are non-strict: a forecast exactly on an edge is Hold,
    and so is a forecast on a day without a band (NaN edges) and a day
    without a forecast (a NaN entry).
    """
    days = range(len(entries)) if days is None else days
    lower, upper = (edge.tolist() for edge in bollinger_band(prices.closes(), config, days))
    values = entries[days.start : days.stop].tolist()
    signals = [Signal.HOLD] * len(days)
    for i, value in enumerate(values):
        if value > upper[i]:
            signals[i] = Signal.BUY
        elif value < lower[i]:
            signals[i] = Signal.SELL
    return signals


def shift_signals(signals: list[Signal]) -> list[Signal]:
    """Delay by one day: day t executes day t-1's signal, day 0 holds."""
    if not signals:
        raise ConfigurationError("cannot shift an empty signal sequence")
    return [Signal.HOLD] + list(signals[:-1])


def generate_signals(
    prices: StockSeries,
    entries: np.ndarray,
    config: StrategyConfig,
    days: range | None = None,
) -> list[Signal]:
    """Dispatch to the configured strategy (unshifted signals), one per day
    of the forecast column ``entries``.

    ``days``, a step-1 range within the column, restricts the output to
    those days: the result equals ``generate_signals(...)[days.start :
    days.stop]``, computed with the same per-day arithmetic.
    """
    if config.kind == "ma_crossover":
        return ma_crossover_signals(entries, config, days)
    if config.kind == "rate_of_change":
        return roc_signals(prices, entries, config, days)
    return bollinger_signals(prices, entries, config, days)


def reach(config: StrategyConfig, entry_day: int, n: int) -> range:
    """The unshifted signal days, within an n-day calendar, that a change to
    forecast entry ``entry_day`` can move.

    The entry must exist both before and after the change (only its value
    moves). MA crossover: the entry is in the long mean (and the shorter
    short mean) on days entry_day .. entry_day + ma_long - 1, and each of
    those days' comparison also sets the next day's edge, so [entry_day,
    entry_day + ma_long]. Bollinger bands and ROC read only the day's own
    forecast: [entry_day]. Every signal day outside the range equals its
    value before the change.
    """
    last = entry_day + config.ma_long if config.kind == "ma_crossover" else entry_day
    stop = min(last + 1, n)
    return range(min(entry_day, stop), stop)


# Relative margin of the decision screen; see :func:`stable_intervals`.
SCREEN_MARGIN = 1e-9


def _breakpoints(
    prices: StockSeries, entries: np.ndarray, config: StrategyConfig
) -> np.ndarray:
    """Row e: the values of forecast entry e at which a day of ``reach(config,
    e, n)`` can change its signal, NaN where a day has none.

    Each rule compares a linear function of the entry with a threshold, so a
    reach day's decision can change at one value of the entry:

    * MA crossover: day t in [e, e + ma_long - 1] tests short - long > 0,
      which is D_t + b (x - x_e) for the clean difference D_t and b =
      1/ma_short - 1/ma_long while e is in the short mean, -1/ma_long after;
      day e + ma_long only reads day e + ma_long - 1's test;
    * Bollinger bands: the band edges of day e;
    * ROC: the two entries whose ROC equals a threshold.
    """
    import numpy as np

    n = len(entries)
    if config.kind == "ma_crossover":
        short_n, long_n = config.ma_short, config.ma_long
        diff = np.full(n + long_n, np.nan)  # NaN past day n - 1: no such day
        if n >= long_n:
            short = sliding_windows(entries, short_n).mean(axis=1)
            long = sliding_windows(entries, long_n).mean(axis=1)
            diff[long_n - 1 : n] = short[long_n - short_n :] - long
        k = np.arange(long_n)
        slope = np.where(k < short_n, 1.0 / short_n, 0.0) - 1.0 / long_n
        return entries[:, None] - diff[np.arange(n)[:, None] + k] / slope
    if config.kind == "bollinger_bands":
        return np.column_stack(bollinger_band(prices.closes(), config, range(n)))
    closes = prices.closes()
    ref = np.arange(n) - config.roc_lookback
    base = np.full(n, np.nan)
    has_ref = (ref >= 0) & (ref < len(closes))
    base[has_ref] = closes[ref[has_ref]]
    return np.column_stack(
        [base + base * (threshold / 100.0)
         for threshold in (config.roc_buy_threshold, config.roc_sell_threshold)]
    )


def stable_intervals(
    prices: StockSeries,
    entries: np.ndarray,
    config: StrategyConfig,
) -> tuple[list[float], list[float]]:
    """Per day e, bounds (lo[e], hi[e]) such that forecast entry e set to
    any value strictly between them leaves every signal generated from the
    forecast column ``entries`` as it is.

    Between two neighbouring breakpoints every reach day's decision is
    constant, so the interval is the gap around the clean entry. Breakpoints
    are computed in floating point and can sit a rounding error away from
    where the per-day arithmetic of :func:`generate_signals` flips, so the
    gap is narrowed on each side by ``SCREEN_MARGIN`` times the largest
    magnitude among the forecasts and closes, far more than that error; a
    day whose clean entry is not inside the narrowed gap, or that has no
    entry, gets an empty interval (inf, -inf). This is the margin of an
    affine classifier (DeepFool, arXiv:1511.04599), used only to screen.
    """
    import numpy as np

    points = _breakpoints(prices, entries, config)
    clean = entries[:, None]
    below = np.where(points <= clean, points, -np.inf).max(axis=1, initial=-np.inf)
    above = np.where(points > clean, points, np.inf).min(axis=1, initial=np.inf)
    scale = max(np.nanmax(np.abs(entries), initial=0.0), np.abs(prices.closes()).max(initial=0.0))
    lo = below + SCREEN_MARGIN * scale
    hi = above - SCREEN_MARGIN * scale
    empty = ~((lo < entries) & (entries < hi))
    lo[empty] = np.inf
    hi[empty] = -np.inf
    return lo.tolist(), hi.tolist()
