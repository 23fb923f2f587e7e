"""Independent brute-force oracles, pure Python on purpose.

These re-derive expected values with plain loops and ``math`` so the numpy
code paths under test are checked against a second implementation. The
resume oracle keeps the resume that recorded every day, as the reference
for the one that compares each day's end state instead. The attack oracle
at the end recomputes a whole cell the plain way, from the library's
per-window and per-run functions, as the reference for the incremental
attack engine.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def sample_std(values, ddof: int = 1) -> float:
    n = len(values)
    mean = sum(values) / n
    if n - ddof <= 0:
        return 0.0
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - ddof))


def cumulative_returns_oracle(returns) -> list[float]:
    out = []
    acc = 1.0
    for r in returns:
        acc *= 1.0 + r
        out.append(acc - 1.0)
    return out


def sharpe_oracle(returns, rf_annual: float, days_per_year: int) -> float:
    rf_daily = (1.0 + rf_annual) ** (1.0 / days_per_year) - 1.0
    excess = [r - rf_daily for r in returns]
    mean = sum(excess) / len(excess)
    std = sample_std(excess)
    if std == 0.0:
        return 0.0
    return mean / std * math.sqrt(days_per_year)


def quantile_oracle(values, q: float) -> float:
    """Linear interpolation between order statistics at position (n-1)*q."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ma_crossover_oracle(entries: dict, short: int, long: int, n: int) -> list[str]:
    def mean_ending(end, length):
        acc = 0.0
        for d in range(end - length + 1, end + 1):
            if d not in entries:
                return None
            acc += entries[d]
        return acc / length

    out = ["hold"] * n
    prev = None
    for t in range(n):
        s, l = mean_ending(t, short), mean_ending(t, long)
        if s is None or l is None:
            prev = None
            continue
        above = s > l
        if prev is not None and above != prev:
            out[t] = "buy" if above else "sell"
        prev = above
    return out


def roc_oracle(closes, entries: dict, lookback, buy_thr, sell_thr, n) -> list[str]:
    out = ["hold"] * n
    for t in range(n):
        ref_day = t - lookback
        if ref_day < 0 or ref_day >= len(closes) or t not in entries:
            continue
        roc = (entries[t] - closes[ref_day]) / closes[ref_day] * 100.0
        if roc > buy_thr:
            out[t] = "buy"
        elif roc < sell_thr:
            out[t] = "sell"
    return out


def bollinger_oracle(closes, entries: dict, period, width, n) -> list[str]:
    out = ["hold"] * n
    for t in range(n):
        if t - period < 0 or t > len(closes) or t not in entries:
            continue
        window = list(closes[t - period : t])
        mean = sum(window) / period
        half = width * sample_std(window)
        if entries[t] > mean + half:
            out[t] = "buy"
        elif entries[t] < mean - half:
            out[t] = "sell"
    return out


def bollinger_band_per_day(closes, period: int, width: float, t: int):
    """Day t's band (lower, upper) from its own window, with the numpy
    arithmetic ``bollinger_signals`` once ran day by day; None on a day
    without a full window. The reference for ``strategy.bollinger_band``'s
    one-pass table, which must have these bits."""
    if t - period < 0 or t > len(closes):
        return None
    window = closes[t - period : t]
    mean = float(window.mean())
    var = float(((window - mean) ** 2).sum()) / (period - 1)
    half = width * math.sqrt(var)
    return mean - half, mean + half


def accounting_oracle(closes_by_ticker: dict, signals_by_ticker: dict, cost) -> dict:
    """Hand-stepped portfolio accounting for pre-shifted signal streams.

    Follows the documented execution rules: buys/sells target a fixed value
    fraction, whole shares, per-share commission and adverse slippage, no-op
    when infeasible, tickers in lexicographic order.
    """
    tickers = sorted(closes_by_ticker)
    n = len(next(iter(closes_by_ticker.values())))
    cash = cost.initial_capital
    holdings = {tk: 0 for tk in tickers}
    values = []
    trades = []
    for t in range(n):
        closes_t = {tk: closes_by_ticker[tk][t] for tk in tickers}
        for tk in tickers:
            sig = signals_by_ticker[tk][t]
            close = closes_t[tk]
            total = cash + sum(holdings[k] * closes_t[k] for k in tickers)
            budget = cost.position_fraction * total
            if sig == "buy":
                price = close + cost.slippage_per_share
                shares = math.floor(budget / price)
                if shares < 1:
                    continue
                outlay = shares * price + shares * cost.commission_per_share
                if cash - outlay < 0:
                    continue
                cash -= outlay
                holdings[tk] += shares
                trades.append((t, tk, "buy", shares))
            elif sig == "sell":
                if holdings[tk] < 1:
                    continue
                shares = min(holdings[tk], math.floor(budget / close))
                if shares < 1:
                    continue
                price = close - cost.slippage_per_share
                cash += shares * price - shares * cost.commission_per_share
                holdings[tk] -= shares
                trades.append((t, tk, "sell", shares))
        values.append(cash + sum(holdings[k] * closes_t[k] for k in tickers))
    return {"values": values, "trades": trades, "cash": cash, "holdings": holdings}


def load_csv_oracle(path):
    """The bars of one OHLCV CSV as ``load_csv`` read them when a series
    held a ``Bar`` per day: its row loop verbatim, returning the sorted bars
    instead of a series. The reference for the columnar loader, which must
    give the same bars or raise the same message."""
    import csv

    from epsim.errors import MarketDataError
    from epsim.market_data import CSV_COLUMNS, Bar, _diagnose_row, open_csv, parse_date

    with open_csv(path, MarketDataError) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MarketDataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise MarketDataError(f"{path}: header missing columns {missing}")
        n_fields = len(header)
        i_date = header.index("Date")
        columns = [(c, header.index(c)) for c in CSV_COLUMNS[1:]]
        i_open, i_high, i_low, i_close, i_volume = (i for _, i in columns)

        bars = []
        for line_no, raw in enumerate(reader, start=2):
            # One pass for a well-formed row (float() ignores surrounding
            # spaces); any other row is parsed again by _diagnose_row, which
            # skips it, returns its bar or raises the error that names it.
            try:
                date = parse_date(raw[i_date].strip())
                o = float(raw[i_open])
                h = float(raw[i_high])
                lo = float(raw[i_low])
                c = float(raw[i_close])
                v = float(raw[i_volume])
            except (ValueError, IndexError):
                ok = False
            else:
                ok = (
                    len(raw) >= n_fields
                    and math.isfinite(o + h + lo + c + v)
                    and 0.0 < lo <= o <= h
                    and lo <= c <= h
                    and v >= 0.0
                )
            if ok:
                bars.append(Bar(date, o, h, lo, c, v))
            else:
                bar = _diagnose_row(path, raw, line_no, n_fields, i_date, columns)
                if bar is not None:
                    bars.append(bar)

    if not bars:
        raise MarketDataError(f"{path}: no data rows")
    bars.sort(key=lambda b: b.date)
    for prev, cur in zip(bars, bars[1:]):
        if cur.date == prev.date:
            raise MarketDataError(f"{path}: duplicate date {cur.date.isoformat()}")
    return tuple(bars)


def ridge_coef_oracle(predictor, series):
    """The coefficients of ``predictor`` refitted on ``series`` (its train
    partition) with the design matrix built row by row: row i is the scaled
    window of days i .. i+w-1 flattened bar by bar, and its target the next
    day's scaled close. Same normal equations and solve as the library."""
    import numpy as np

    config = predictor.config
    w = config.window
    scaled = predictor.scale(series)
    y_scaled = predictor.target_scaler.transform(series.closes())
    n_samples = len(series) - w
    X = np.empty((n_samples, w * len(config.features)), dtype=np.float64)
    y = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        X[i] = scaled[i : i + w].reshape(-1)
        y[i] = y_scaled[i + w]
    gram = X.T @ X + config.ridge_lambda * np.eye(X.shape[1])
    return np.linalg.solve(gram, X.T @ y)


class ResumedRun(NamedTuple):
    """A run as ``resume_oracle`` records it: ``trade_engine.SignalRun``
    with the days [start, stop) it executed itself, the days before
    ``start`` copied from the run it resumed and the days from ``stop`` on
    shared with it."""

    signals: dict
    result: object
    day_starts: tuple
    marks: tuple
    start: int
    stop: int

    def trades_on(self, day: int) -> tuple:
        """The day's trades, located through ``day_starts``."""
        ledger = self.result.trade_ledger
        end = (
            self.day_starts[day + 1].n_trades
            if day + 1 < len(self.day_starts)
            else len(ledger)
        )
        return ledger[self.day_starts[day].n_trades : end]


def _changed_span(base: dict, signals: dict, tickers, n: int) -> tuple[int, int]:
    first, last = n, -1
    for tk in tickers:
        old, new = base[tk], signals[tk]
        if old is not new:
            changed = [t for t in range(n) if old[t] != new[t]]
            if changed:
                first, last = min(first, changed[0]), max(last, changed[-1])
    return first, last


def _resume(test, signals, cost_model, base=None) -> ResumedRun:
    """The resume that recorded a ``DayStart`` for every day it executed,
    spliced in ``base``'s day starts (each ``n_trades`` shifted) on a
    rejoin, and returned ``base`` when no signal changed."""
    from epsim.errors import TradeEngineError
    from epsim.trade_engine import (
        DayStart,
        PortfolioState,
        SimulationResult,
        TradeRecord,
        cumulative_returns,
        execute_signal,
        sharpe_ratio,
    )

    n = test.n_days()
    tickers = test.tickers()
    for tk in tickers:
        if tk not in signals:
            raise TradeEngineError(f"no signal sequence for {tk}")
        if len(signals[tk]) != n:
            raise TradeEngineError(
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
                ds if offset == 0 else ds._replace(n_trades=ds.n_trades + offset)
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
    return ResumedRun(
        signals=signals,
        result=result,
        day_starts=tuple(day_starts),
        marks=marks,
        start=start,
        stop=stop,
    )


def _first_divergence(base: ResumedRun, attacked: ResumedRun) -> int | None:
    """First day whose trades or return differ. Only the days ``attacked``
    executed itself can: the rest were copied from ``base``."""
    for t in range(attacked.start, attacked.stop):
        if attacked.trades_on(t) != base.trades_on(t):
            return t
        if attacked.result.daily_returns[t] != base.result.daily_returns[t]:
            return t
    return None


def resume_oracle(test, signals, cost_model, base_signals):
    """(result, first divergence day) of ``signals`` resumed from the run of
    ``base_signals``, the way the engine found them when every resumed day
    recorded its state and the divergence was rescanned from that record:
    ``trade_engine.resume_signals`` and ``attack._first_divergence`` as they
    were, verbatim. The reference for the resume that compares each day's
    end state with the base's instead."""
    base = _resume(test, base_signals, cost_model)
    run = _resume(test, signals, cost_model, base)
    return run.result, None if run is base else _first_divergence(base, run)


class FixedClose(NamedTuple):
    """An attack mode that reports ``value`` on every day: the shape every
    mode has (a ``label``, ``reported_closes`` and ``missing_history``),
    with no rule of its own. Reporting the clean close makes a null
    perturbation."""

    value: float
    label = "custom"

    def reported_closes(self, closes) -> list:
        return [self.value] * len(closes)

    def missing_history(self, ticker: str, at: int) -> str:
        raise AssertionError("a fixed close needs no history")


def attack_oracle(dataset, test_start, predictors, strategy_config, cost_model, ep):
    """One attack cell by full rerun: (baseline, attacked, outcome).

    Every clean forecast comes from ``predict_window`` over its own window of
    bars, kept as a {day: value} dict, the attacked forecast from the window
    whose last bar carries the perturbed close, and both runs simulate every
    ticker from day 0. Each RMSE reduces the errors of the forecast days in
    order, a vector built here.
    """
    import numpy as np

    from conftest import forecast_column
    from epsim.attack import AttackOutcome, apply_ep
    from epsim.errors import AttackSetupError
    from epsim.predictor import rmse
    from epsim.trade_engine import run_simulation

    test = dataset.slice(test_start)
    n = test.n_days()
    if ep.ticker not in predictors:
        raise AttackSetupError(f"no predictor for {ep.ticker}")
    if not 0 <= ep.day < n:
        raise AttackSetupError(f"day {ep.day} outside the test window")

    clean = {}
    for tk in sorted(predictors):
        predictor = predictors[tk]
        w = predictor.config.window
        bars = dataset.series[tk].bars
        clean[tk] = {
            a - test_start: predictor.predict_window(bars[a - w : a])
            for a in range(test_start, len(bars))
            if a >= w
        }

    def simulate(entries):
        columns = {tk: forecast_column(days, n) for tk, days in entries.items()}
        return run_simulation(test, columns, strategy_config, cost_model)

    baseline = simulate(clean)

    full = dataset.series[ep.ticker]
    a = test_start + ep.day
    perturbed = apply_ep(full, ep.mode, at=a)
    attacked_predictions = dict(clean)
    if a + 1 < len(full):
        predictor = predictors[ep.ticker]
        w = predictor.config.window
        if a < w - 1:
            raise AttackSetupError(f"no window ends at index {a}")
        window = list(full.bars[a - w + 1 : a + 1])
        window[-1] = window[-1]._replace(close=perturbed)
        attacked_predictions[ep.ticker] = {
            **clean[ep.ticker], ep.day + 1: predictor.predict_window(window)
        }
    attacked = simulate(attacked_predictions)

    def trades_on(result, t):
        return [trade for trade in result.trade_ledger if trade.day == t]

    first_divergence = next(
        (
            t
            for t in range(n)
            if trades_on(baseline, t) != trades_on(attacked, t)
            or baseline.daily_returns[t] != attacked.daily_returns[t]
        ),
        None,
    )
    cr_base = baseline.final_cumulative_return()
    cr_att = attacked.final_cumulative_return()
    if cr_att == cr_base:
        cr_ratio = 1.0
    elif cr_base == 0.0:
        cr_ratio = math.nan
    else:
        cr_ratio = cr_att / cr_base
    closes = test.series[ep.ticker].closes()

    def forecast_rmse(entries):
        return rmse(np.array([entries[d] - closes[d] for d in sorted(entries)]))

    outcome = AttackOutcome(
        ep=ep,
        perturbed_value=perturbed,
        clean_value=float(full.closes()[a]),
        rmse_clean=forecast_rmse(clean[ep.ticker]),
        rmse_attacked=forecast_rmse(attacked_predictions[ep.ticker]),
        sharpe_baseline=baseline.sharpe_ratio,
        sharpe_attacked=attacked.sharpe_ratio,
        cr_baseline=cr_base,
        cr_attacked=cr_att,
        cr_ratio=cr_ratio,
        first_divergence_day=first_divergence,
    )
    return baseline, attacked, outcome
