"""Walkthrough: one single-day perturbation, model impact vs system impact.

The attacked feed differs from the clean feed on exactly one day; the next
broker refresh overwrites it. Exactly one forecast is computed from the bad
value, yet the trading consequences can persist for the rest of the window.
Run with:  python demos/02_single_perturbation.py
"""

import datetime as dt

import numpy as np

import epsim
from epsim.attack import EpSpec, StdDevMode

rng = np.random.default_rng(47)


def make_series(ticker, level, drift, vol):
    closes = np.maximum(level + rng.normal(drift, vol, 500).cumsum(), 5.0)
    bars, date = [], dt.date(2021, 1, 4)
    for c in closes:
        while date.weekday() >= 5:
            date += dt.timedelta(days=1)
        bars.append(epsim.Bar(date, float(c * 0.999), float(c * 1.012),
                              float(c * 0.988), float(c), 1500.0))
        date += dt.timedelta(days=1)
    return epsim.StockSeries.from_bars(ticker, bars)


# A 2-stock universe: 500 aligned days, 50:50 split, 10-day model window.
dataset = epsim.align_calendar(
    [make_series("BLU", 120.0, 0.05, 2.8), make_series("GRN", 60.0, 0.03, 1.6)]
)
train, test = epsim.split(dataset, epsim.SplitSpec(train_fraction=0.5, window=10))
test_start = train.n_days()
predictors = epsim.fit_baseline(train, epsim.PredictorConfig(window=10))
strategy = epsim.StrategyConfig(kind="ma_crossover")
costs = epsim.CostModel()

# ---------------------------------------------------------------------------
# Craft the perturbation for test day 103: reported close = clean + 2 sigma,
# where sigma is the std of the trailing 50 closes (the attacker's guess at
# the model's window length; here the guess is wrong, which does not matter
# much, only the rough size of the nudge does).
DAY = 103
ep = EpSpec(ticker="BLU", day=DAY, mode=StdDevMode(omega=50))

clean_close = float(dataset.series["BLU"].closes()[test_start + DAY])
reported = epsim.apply_ep(dataset.series["BLU"], ep.mode, at=test_start + DAY)
print("== the perturbation ==")
print(f"  attacked day        : test day {DAY}")
print(f"  clean close         : {clean_close:9.3f}")
print(f"  reported close      : {reported:9.3f}  (+{reported - clean_close:.3f})")

# One attack context computes the clean forecasts and the baseline run once;
# every perturbation below is measured against it.
context = epsim.AttackContext(dataset, test_start, predictors, strategy, costs)
attacked_result, outcome = context.outcome(ep)
predictions, baseline = context.predictions, context.baseline

# ---------------------------------------------------------------------------
# Model-level view: the error metric barely moves, because only the forecast
# for day 104 was computed from the bad close; every later window sees the
# clean value again.
print("\n== model-level impact ==")
print(f"  forecast stream RMSE, clean    : {outcome.rmse_clean:.4f}")
print(f"  forecast stream RMSE, attacked : {outcome.rmse_attacked:.4f}")
entry_day, poisoned_forecast, _, _ = epsim.attack.perturbed_prediction_entry(
    predictors["BLU"], dataset.series["BLU"], test_start, ep, context.scaled("BLU")
)
print(
    f"  forecast for day {entry_day}: "
    f"{predictions['BLU'][entry_day]:.3f} -> {poisoned_forecast:.3f} "
    f"(the only entry that changed)"
)

# ---------------------------------------------------------------------------
# System-level view: the one bad forecast sits inside the moving averages for
# the next 20 days, flips a marginal crossing, and the ledgers part ways.
print("\n== system-level impact ==")
print(f"  baseline Sharpe : {outcome.sharpe_baseline:+.3f}")
print(f"  attacked Sharpe : {outcome.sharpe_attacked:+.3f}  "
      f"(dSharpe {outcome.delta_sharpe:+.4f})")
print(f"  baseline CR     : {outcome.cr_baseline:+.2%}")
print(f"  attacked CR     : {outcome.cr_attacked:+.2%}")
print(f"  CR ratio        : {outcome.cr_ratio:.4f} (below 1 = attacker wins)")
if outcome.first_divergence_day is None:
    print("  ledgers never diverged: a zero-impact day.")
else:
    print(f"  ledgers diverge from day {outcome.first_divergence_day} "
          f"(never before day {DAY + 1})")
    print("\n  day  baseline-cum  attacked-cum")
    d0 = outcome.first_divergence_day
    for t in range(d0 - 2, min(d0 + 5, len(baseline.cumulative_returns))):
        print(
            f"  {t:3d}  {baseline.cumulative_returns[t]:+11.4%}  "
            f"{attacked_result.cumulative_returns[t]:+11.4%}"
        )

# ---------------------------------------------------------------------------
# Not every day is exploitable: on most days the wrong forecast does not flip
# any executed decision. Hunt one such zero-impact day for contrast.
print("\n== a zero-impact day for contrast ==")
for day in range(40, test.n_days() - 1):
    _, o = context.outcome(EpSpec("BLU", day, StdDevMode(omega=50)))
    if o.first_divergence_day is None:
        print(f"  test day {day}: the forecast stream changed "
              f"(RMSE {o.rmse_clean:.4f} -> {o.rmse_attacked:.4f}) "
              f"but no trade, return, or Sharpe moved at all.")
        print("  judging this attack by model error alone would call it a")
        print("  success; the portfolio never noticed.")
        break
else:
    print("  every scanned day had some system impact in this universe")
