"""Walkthrough: the same perturbations against different trading strategies.

The attacker is strategy-agnostic: identical perturbed feeds are replayed
against three systems that share the same forecasters but trade differently
(moving-average crossover, rate-of-change thresholds, Bollinger bands).
Vulnerability is a property of the whole system, not of the model.
Run with:  python demos/05_alternative_strategies.py
"""

import datetime as dt

import numpy as np

import epsim

rng = np.random.default_rng(31)


def make_series(ticker, level, drift, vol):
    closes = np.maximum(level + rng.normal(drift, vol, 460).cumsum(), 5.0)
    bars, date = [], dt.date(2022, 1, 3)
    for c in closes:
        while date.weekday() >= 5:
            date += dt.timedelta(days=1)
        bars.append(epsim.Bar(date, c * 0.999, c * 1.011, c * 0.989, float(c), 700.0))
        date += dt.timedelta(days=1)
    return epsim.StockSeries.from_bars(ticker, bars)


dataset = epsim.align_calendar(
    [
        make_series("BLU", 110.0, 0.10, 2.4),
        make_series("GRN", 65.0, 0.06, 1.8),
        make_series("RED", 150.0, 0.12, 2.9),
    ]
)
train, test = epsim.split(dataset, epsim.SplitSpec(train_fraction=0.8, window=50))
test_start = train.n_days()
predictors = epsim.fit_baseline(train, epsim.PredictorConfig(window=50))
costs = epsim.CostModel()

STRATEGIES = {
    "ma_crossover": epsim.StrategyConfig(kind="ma_crossover"),
    "rate_of_change": epsim.StrategyConfig(kind="rate_of_change"),
    "bollinger_bands": epsim.StrategyConfig(kind="bollinger_bands"),
}
# one trading system per strategy: its clean forecasts and baseline run
contexts = {
    name: epsim.AttackContext(dataset, test_start, predictors, strat, costs)
    for name, strat in STRATEGIES.items()
}

# ---------------------------------------------------------------------------
# Clean baselines first: the three systems trade the same forecasts very
# differently, so their risk/return profiles already diverge unattacked.
print("clean baselines (same forecasters, different trading rules)")
for name, context in contexts.items():
    baseline = context.baseline
    print(
        f"  {name:<16s} Sharpe {baseline.sharpe_ratio:+7.3f}   "
        f"CR {baseline.final_cumulative_return():+8.2%}   "
        f"trades {len(baseline.trade_ledger):3d}"
    )

# ---------------------------------------------------------------------------
# Identical sweep against each system.
print("\nidentical +2-sigma sweeps against each system (ticker BLU)")
print("  strategy          SR degraded   CR degraded   zero-impact cells")
for name, context in contexts.items():
    sweep = epsim.sweep_indiscriminate(context, ticker="BLU", omegas=[30, 40, 50])
    n = len(sweep.outcomes)
    sr_down = sum(1 for o in sweep.outcomes if o.delta_sharpe < 0)
    cr_down = sum(1 for o in sweep.outcomes if o.cr_attacked < o.cr_baseline)
    silent = sum(1 for o in sweep.outcomes if o.first_divergence_day is None)
    print(
        f"  {name:<16s} {sr_down:5d}/{n:<6d} {cr_down:6d}/{n:<6d} {silent:8d}/{n}"
    )

print(
    "\na conservative band-based system can shrug off feeds that badly hurt"
    "\na crossover system, and vice versa; judging the attack by forecast"
    "\nerror alone would miss all of this."
)
