"""Walkthrough: ingest OHLCV files, fit forecasters, run a clean backtest.

Generates a small synthetic universe on disk so the full CSV -> dataset ->
predictor -> signals -> portfolio pipeline is exercised exactly as it would
be with broker exports. Run with:  python demos/01_backtest_basics.py
"""

import datetime as dt
import tempfile
from pathlib import Path

import numpy as np

import epsim

rng = np.random.default_rng(42)

# ---------------------------------------------------------------------------
# 1. Write three years of daily bars for a 3-stock portfolio in the
#    ingestion format (Date,Open,High,Low,Close,Volume).
print("== 1. synthetic broker exports ==")
tickers = ["BLU", "GRN", "RED"]
# The exports live in a temporary directory, removed once they are loaded.
with tempfile.TemporaryDirectory(prefix="epsim-demo-") as tmp:
    workdir = Path(tmp)
    for i, ticker in enumerate(tickers):
        steps = rng.normal(0.08, 1.6, 749)
        closes = np.maximum(90.0 + 35.0 * i + np.concatenate([[0.0], steps]).cumsum(), 5.0)
        date = dt.date(2021, 1, 4)
        rows = []
        for close in closes:
            while date.weekday() >= 5:
                date += dt.timedelta(days=1)
            spread = abs(rng.normal(0, 0.4)) + 0.05
            rows.append(
                epsim.Bar(
                    date=date,
                    open=close - rng.uniform(-spread, spread) / 2,
                    high=close + spread,
                    low=min(close - spread, close),
                    close=close,
                    volume=float(rng.integers(1_000, 50_000)),
                )
            )
            date += dt.timedelta(days=1)
        epsim.save_csv(epsim.StockSeries.from_bars(ticker, rows), workdir / f"{ticker}.csv")
        print(f"  wrote {ticker}.csv with {len(rows)} bars")

    # -------------------------------------------------------------------------
    # 2. Load, align to the common calendar, and make the temporal 80:20 cut.
    print("\n== 2. ingest, align, split ==")
    series = [epsim.load_csv(workdir / f"{tk}.csv", tk) for tk in tickers]
dataset = epsim.align_calendar(series)
train, test = epsim.split(dataset, epsim.SplitSpec(train_fraction=0.8, window=50))
test_start = train.n_days()
print(f"  calendar: {dataset.n_days()} shared days")
print(f"  train: {train.n_days()} days, test: {test.n_days()} days")

# ---------------------------------------------------------------------------
# 3. Fit one ridge autoregression per ticker on the train partition only and
#    check out-of-sample error. Windows for early test days reach back into
#    the train tail, so every test day gets a forecast.
print("\n== 3. per-ticker forecasters ==")
config = epsim.PredictorConfig(window=50)  # all five features
predictors = epsim.fit_baseline(train, config)
predictions = {}
for tk in sorted(tickers):
    report = epsim.fit_report(predictors[tk], dataset.series[tk], test_start)
    predictions[tk] = epsim.predict_test_series(
        predictors[tk], dataset.series[tk], test_start
    )
    print(f"  {tk}: test RMSE {report.rmse_test:6.3f}  ({report.n_test} forecasts)")

# ---------------------------------------------------------------------------
# 4. Trade the forecasts: moving-average crossover signals, shifted by one
#    day against lookahead, executed with commission + slippage.
print("\n== 4. backtest ==")
strategy = epsim.StrategyConfig(kind="ma_crossover", ma_short=5, ma_long=20)
costs = epsim.CostModel()  # 100k capital, 0.005 commission, 0.02 slippage, 10%
result = epsim.run_simulation(test, predictions, strategy, costs)

print(f"  trades executed : {len(result.trade_ledger)}")
print(f"  final value     : {result.final_value:,.2f}")
print(f"  cumulative ret. : {result.final_cumulative_return():+.2%}")
print(f"  Sharpe ratio    : {result.sharpe_ratio:+.3f}")

buys = sum(1 for t in result.trade_ledger if t.side is epsim.Signal.BUY)
print(f"  buys/sells      : {buys}/{len(result.trade_ledger) - buys}")
print("\nfirst five ledger rows:")
for trade in result.trade_ledger[:5]:
    print(
        f"  day {trade.day:3d}  {trade.ticker}  {trade.side.value:4s} "
        f"{trade.shares:4d} @ {trade.execution_price:8.2f} "
        f"(commission {trade.commission_paid:.3f})"
    )

