"""Walkthrough: event-timed perturbations (conceal vs overestimate a drop).

A patient attacker does not strike blindly: they wait for an opportune day,
then either hide that day's move (reporting yesterday's close) or exaggerate
it (reporting a fixed 10% drop vs yesterday). This script maps the entire
opportunity landscape of both scenarios over the test window, so the handful
of days worth waiting for stands out.
Run with:  python demos/04_targeted_events.py
"""

import datetime as dt

import numpy as np

import epsim

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


dataset = epsim.align_calendar(
    [make_series("BLU", 120.0, 0.05, 2.8), make_series("GRN", 60.0, 0.03, 1.6)]
)
train, test = epsim.split(dataset, epsim.SplitSpec(train_fraction=0.5, window=10))
test_start = train.n_days()
predictors = epsim.fit_baseline(train, epsim.PredictorConfig(window=10))
strategy = epsim.StrategyConfig(kind="ma_crossover")
costs = epsim.CostModel()

# Every day except the first (conceal needs a previous close) and the last
# (a perturbation there has no following forecast to poison).
all_days = list(range(1, test.n_days() - 1))
# both scenarios attack the same system: one context serves them
context = epsim.AttackContext(dataset, test_start, predictors, strategy, costs)
results = {
    scenario: epsim.run_targeted(
        context, ticker="BLU", days=all_days, scenario=scenario, drop_fraction=0.10
    )
    for scenario in ("conceal", "overestimate")
}
baseline = results["conceal"].baseline
closes = dataset.series["BLU"].closes()
print(f"baseline: Sharpe {baseline.sharpe_ratio:+.3f}, "
      f"CR {baseline.final_cumulative_return():+.2%} over {test.n_days()} days")

# ---------------------------------------------------------------------------
# The opportunity landscape: how many days even matter, and how asymmetric
# the two scenarios are (a fabricated 10% crash is a much louder lie than
# repeating yesterday's price).
print("\nopportunity landscape (cumulative-return change vs baseline)")
for scenario in ("conceal", "overestimate"):
    outcomes = results[scenario].outcomes
    touched = [o for o in outcomes if o.first_divergence_day is not None]
    harmful = [o for o in outcomes if o.cr_change_pct < 0]
    print(
        f"  {scenario:<12s}: ledger touched on {len(touched)}/{len(outcomes)} days, "
        f"CR hurt on {len(harmful)}, "
        f"worst {min(o.cr_change_pct for o in outcomes):+.2f}pt, "
        f"best {max(o.cr_change_pct for o in outcomes):+.2f}pt"
    )

print("\nfive most damaging strike days per scenario")
for scenario in ("conceal", "overestimate"):
    ranked = sorted(results[scenario].outcomes, key=lambda o: o.cr_change_pct)[:5]
    ranked = [o for o in ranked if o.cr_change_pct < 0]
    print(f"  {scenario}:")
    if not ranked:
        print("    no day hurt the portfolio under this scenario")
        continue
    for o in ranked:
        move = o.clean_value / closes[test_start + o.ep.day - 1] - 1.0
        print(
            f"    day {o.ep.day:3d} (real move {move:+.2%}, reported "
            f"{o.perturbed_value:8.2f} vs clean {o.clean_value:8.2f}): "
            f"dCR {o.cr_change_pct:+.2f}pt, dSharpe {o.delta_sharpe:+.4f}"
        )

# ---------------------------------------------------------------------------
# The days worth waiting for are the ones near a decision boundary, not
# necessarily the days with dramatic real moves.
over = results["overestimate"].outcomes
by_day = {o.ep.day: o for o in over}
biggest_drop_day = min(
    all_days,
    key=lambda d: closes[test_start + d] / closes[test_start + d - 1],
)
o = by_day[biggest_drop_day]
print(
    f"\nthe sharpest real drop of the window (day {biggest_drop_day}) moved the "
    f"attacked portfolio by only {o.cr_change_pct:+.2f}pt when exaggerated;"
)
print("timing beats drama: the profitable strikes sit where the trading rule")
print("was already close to flipping, which an attacker cannot see from the")
print("public feed alone. Waiting for volatile news days is a heuristic, not")
print("a guarantee.")
