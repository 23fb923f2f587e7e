"""Walkthrough: attack every test day once per magnitude window.

The indiscriminate protocol crafts a +2-sigma reported close for each test
day separately (three attacker guesses of the model window: 30, 40, 50 days)
and measures, for every cell, how the final Sharpe ratio and cumulative
returns moved against the untouched baseline.
Run with:  python demos/03_indiscriminate_sweep.py
"""

import datetime as dt

import numpy as np

import epsim

rng = np.random.default_rng(29)


def make_series(ticker, level, drift, vol):
    closes = np.maximum(level + rng.normal(drift, vol, 500).cumsum(), 5.0)
    bars, date = [], dt.date(2021, 6, 1)
    for c in closes:
        while date.weekday() >= 5:
            date += dt.timedelta(days=1)
        bars.append(epsim.Bar(date, float(c * 0.999), float(c * 1.01),
                              float(c * 0.99), float(c), 900.0))
        date += dt.timedelta(days=1)
    return epsim.StockSeries.from_bars(ticker, bars)


dataset = epsim.align_calendar(
    [
        make_series("BLU", 100.0, 0.06, 2.8),
        make_series("GRN", 75.0, 0.04, 2.2),
        make_series("RED", 140.0, 0.08, 3.0),
    ]
)
train, test = epsim.split(dataset, epsim.SplitSpec(train_fraction=0.7, window=50))
test_start = train.n_days()
predictors = epsim.fit_baseline(train, epsim.PredictorConfig(window=50))
strategy = epsim.StrategyConfig(kind="ma_crossover")
costs = epsim.CostModel()

print(f"universe: {len(dataset.series)} tickers, test window {test.n_days()} days")

# ---------------------------------------------------------------------------
# Full sweep: one attacked simulation per (day, omega) cell, day-major order,
# each measured against the context's clean forecasts and baseline run.
context = epsim.AttackContext(dataset, test_start, predictors, strategy, costs)
sweep = epsim.sweep_indiscriminate(context, ticker="BLU", omegas=[30, 40, 50])
print(f"cells simulated: {len(sweep.outcomes)} "
      f"({test.n_days()} days x 3 magnitude windows), "
      f"{len(sweep.errors)} infeasible")
print(f"baseline: Sharpe {sweep.baseline.sharpe_ratio:+.3f}, "
      f"CR {sweep.baseline.final_cumulative_return():+.2%}, "
      f"{len(sweep.baseline.trade_ledger)} trades")

# ---------------------------------------------------------------------------
# Aggregate: how often does a blind, single-day nudge move the portfolio?
print("\nper-omega picture")
for omega in (30, 40, 50):
    cells = [o for o in sweep.outcomes if o.ep.mode.omega == omega]
    touched = [o for o in cells if o.first_divergence_day is not None]
    worse_sr = sum(1 for o in cells if o.delta_sharpe < 0)
    worse_cr = sum(1 for o in cells if o.cr_attacked < o.cr_baseline)
    print(
        f"  omega={omega}: ledger touched on {len(touched)}/{len(cells)} days; "
        f"Sharpe degraded on {worse_sr}, CR degraded on {worse_cr}, "
        f"zero-impact on {len(cells) - len(touched)}"
    )

# ---------------------------------------------------------------------------
# Distribution table (what the report command writes as quantiles.csv).
print("\ndelta-Sharpe distribution per omega (min / q1 / median / q3 / max)")
for omega in (30, 40, 50):
    values = np.array(
        [o.delta_sharpe for o in sweep.outcomes if o.ep.mode.omega == omega]
    )
    q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    print(f"  omega={omega}: " + "  ".join(f"{v:+.4f}" for v in q))

worst = min(sweep.outcomes, key=lambda o: o.delta_sharpe)
best = max(sweep.outcomes, key=lambda o: o.delta_sharpe)
print(
    f"\nworst cell for the defender: day {worst.ep.day} "
    f"(omega={worst.ep.mode.omega}) with dSharpe {worst.delta_sharpe:+.4f}, "
    f"CR ratio {worst.cr_ratio:.3f}"
)
print(
    f"a blind attack can also backfire: day {best.ep.day} "
    f"(omega={best.ep.mode.omega}) improved the portfolio by "
    f"dSharpe {best.delta_sharpe:+.4f}"
)
print(
    "\nmany cells are zero-impact: the poisoned forecast changed but no"
    "\nexecuted decision flipped. Those are exactly the cases a model-only"
    "\nevaluation would miscount as successful attacks."
)
