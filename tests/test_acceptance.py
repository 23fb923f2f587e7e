"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts. Tolerances are pinned here and are not
meant to be tuned.
"""

import contextlib
import json
import time
import warnings

import numpy as np
import pytest

import epsim
from epsim.attack import AttackContext, EpSpec
from epsim.config import CostModel, RunConfig, StdDevMode, StrategyConfig
from epsim.errors import ZeroVolatilityWarning
from epsim.files import cmd_report
from epsim.market_data import save_csv
from epsim.pipeline import cmd_attack, cmd_backtest
from epsim.strategy import (
    Signal,
    bollinger_signals,
    generate_signals,
    ma_crossover_signals,
    roc_signals,
)
from epsim.trade_engine import cumulative_returns, run_signals, sharpe_ratio

from conftest import (
    forecast_column,
    make_world,
    random_series,
    read_schema_csv,
    series_from_closes,
)
from oracles import (
    FixedClose,
    bollinger_oracle,
    cumulative_returns_oracle,
    ma_crossover_oracle,
    roc_oracle,
    sample_std,
    sharpe_oracle,
)

pytestmark = pytest.mark.filterwarnings("ignore::epsim.errors.ZeroVolatilityWarning")

COSTS = CostModel()


@contextlib.contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"\n[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s)")


def test_ep_crafting_oracle():
    # 1,000 random windows: stddev-mode perturbation equals
    # clean + 2 * sample std within 1e-9; constant windows are exact no-ops.
    with criterion("EP crafting oracle (1000 windows, 1e-9)"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        closes = [float(v) for v in np.maximum(rng.normal(120, 25, 400), 1.0)]
        series = series_from_closes("T", closes)
        for _ in range(1000):
            omega = int(rng.integers(2, 60))
            t = int(rng.integers(omega - 1, len(closes)))
            got = epsim.apply_ep(series, StdDevMode(omega=omega), t)
            want = closes[t] + 2.0 * sample_std(closes[t - omega + 1 : t + 1])
            assert abs(got - want) <= 1e-9
        flat = series_from_closes("T", [77.7] * 60)
        for t in range(9, 60):
            assert epsim.apply_ep(flat, StdDevMode(omega=10), t) == 77.7
        assert time.perf_counter() - start < 5.0


def test_single_prediction_locality():
    # 200 random (series, t, omega) triples: the attacked and clean forecast
    # streams differ at exactly the entry for day t+1, and any ledger
    # divergence starts at or after day t+1.
    with criterion("single-prediction locality (200 triples)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2002)
        worlds = [
            make_world(rng, tickers=("AAA",), n=150, window=10, vol=2.5)
            for _ in range(8)
        ]
        contexts = [AttackContext(*world, StrategyConfig(), COSTS) for world in worlds]
        checked = 0
        divergences = 0
        while checked < 200:
            dataset, test_start, predictors = worlds[checked % len(worlds)]
            n_test = dataset.n_days() - test_start
            day = int(rng.integers(0, n_test - 1))
            omega = int(rng.integers(3, 12))
            ep = EpSpec("AAA", day, StdDevMode(omega=omega))

            full = dataset.series["AAA"]
            clean = epsim.predict_test_series(predictors["AAA"], full, test_start)
            entry_day, entry, _, _ = epsim.attack.perturbed_prediction_entry(
                predictors["AAA"], full, test_start, ep
            )
            attacked_stream = clean.copy()
            attacked_stream[entry_day] = entry
            diffs = np.flatnonzero(attacked_stream != clean).tolist()
            assert diffs == [day + 1]

            _, outcome = contexts[checked % len(worlds)].outcome(ep)
            if outcome.first_divergence_day is not None:
                divergences += 1
                assert outcome.first_divergence_day >= day + 1
            checked += 1
        assert divergences > 0
        assert time.perf_counter() - start < 30.0


def test_null_perturbation_equivalence():
    # A custom perturbation equal to the clean close reproduces the baseline
    # byte-for-byte across 20 random configurations.
    with criterion("null-perturbation equivalence (20 configs)"):
        rng = np.random.default_rng(3003)
        kinds = ("ma_crossover", "rate_of_change", "bollinger_bands")
        for i in range(20):
            dataset, test_start, predictors = make_world(
                rng,
                tickers=("AAA", "BBB"),
                n=int(rng.integers(120, 200)),
                window=int(rng.integers(5, 15)),
                vol=float(rng.uniform(1.0, 4.0)),
            )
            strategy = StrategyConfig(kind=kinds[i % 3])
            costs = CostModel(
                commission_per_share=float(rng.uniform(0.0, 0.01)),
                slippage_per_share=float(rng.uniform(0.0, 0.05)),
                position_fraction=float(rng.uniform(0.05, 0.3)),
            )
            n_test = dataset.n_days() - test_start
            day = int(rng.integers(0, n_test))
            clean_close = dataset.series["AAA"].bars[test_start + day].close
            ep = EpSpec("AAA", day, FixedClose(value=clean_close))

            attacked, outcome = AttackContext(
                dataset, test_start, predictors, strategy, costs
            ).outcome(ep)
            _, baseline = epsim.clean_run(
                dataset, test_start, predictors, strategy, costs
            )
            assert repr(attacked) == repr(baseline)
            assert outcome.first_divergence_day is None
            assert outcome.cr_ratio == 1.0
            assert outcome.delta_sharpe == 0.0


def test_metric_oracles():
    # Sharpe and cumulative returns against direct-formula oracles within
    # 1e-9 on 1,000 random vectors; degenerate all-zero case is flagged.
    with criterion("metric oracles (1000 vectors, 1e-9)"):
        rng = np.random.default_rng(4004)
        for _ in range(1000):
            n = int(rng.integers(2, 120))
            returns = [float(r) for r in rng.normal(0.0005, 0.02, n)]
            got_cr = cumulative_returns(returns)
            want_cr = cumulative_returns_oracle(returns)
            assert max(abs(a - b) for a, b in zip(got_cr, want_cr)) <= 1e-9
            got_sr = sharpe_ratio(returns, COSTS)
            want_sr = sharpe_oracle(returns, COSTS.risk_free_annual, 252)
            assert abs(got_sr - want_sr) <= 1e-9

        zeros = [0.0] * 50
        assert cumulative_returns(zeros) == zeros
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVolatilityWarning):
                sharpe_ratio(zeros, COSTS)


def test_accounting_conservation():
    # 10,000 fuzzed ticker-day steps: the day-over-day value identity holds
    # within 1e-6, cash and holdings never go negative, and the all-Hold
    # portfolio ends exactly at the initial capital.
    with criterion("accounting conservation (10000 steps, 1e-6)"):
        rng = np.random.default_rng(5005)
        steps = 0
        episodes = 0
        while steps < 10_000:
            episodes += 1
            n = 500
            tickers = ("AAA", "BBB")
            closes = {}
            signals = {}
            for tk in tickers:
                walk = np.maximum(
                    rng.normal(0, 3, n).cumsum() + rng.uniform(20, 200), 1.0
                )
                closes[tk] = [float(c) for c in walk]
                letters = rng.choice(
                    [Signal.BUY, Signal.SELL, Signal.HOLD], size=n, p=[0.25, 0.25, 0.5]
                )
                signals[tk] = list(letters)
            test = epsim.align_calendar(
                [series_from_closes(tk, closes[tk]) for tk in tickers]
            )
            aligned = {tk: [b.close for b in test.series[tk].bars] for tk in tickers}
            result = run_signals(test, signals, COSTS)

            cash = COSTS.initial_capital
            holdings = {tk: 0 for tk in tickers}
            ledger = list(result.trade_ledger)
            for t in range(n):
                pre = cash + sum(holdings[tk] * aligned[tk][t] for tk in tickers)
                costs_paid = 0.0
                for tr in (x for x in ledger if x.day == t):
                    if tr.side is Signal.BUY:
                        cash -= tr.shares * tr.execution_price + tr.commission_paid
                        holdings[tr.ticker] += tr.shares
                    else:
                        cash += tr.shares * tr.execution_price - tr.commission_paid
                        holdings[tr.ticker] -= tr.shares
                    costs_paid += tr.commission_paid + tr.slippage_paid
                    assert cash >= 0.0
                    assert holdings[tr.ticker] >= 0
                value = cash + sum(holdings[tk] * aligned[tk][t] for tk in tickers)
                assert abs(value - (pre - costs_paid)) <= 1e-6
                steps += len(tickers)

        hold_test = epsim.align_calendar(
            [series_from_closes("AAA", [float(v) for v in rng.uniform(10, 300, 100)])]
        )
        hold_result = run_signals(hold_test, {"AAA": [Signal.HOLD] * 100}, COSTS)
        assert hold_result.final_value == COSTS.initial_capital
        assert set(hold_result.daily_returns) == {0.0}


def test_strategy_oracles():
    # Fire days and threshold classifications against brute-force indicator
    # recomputation on 100 random series per strategy, plus the lookahead
    # check: mutating future days never changes past signals.
    with criterion("strategy oracles (3 x 100 series)"):
        rng = np.random.default_rng(6006)
        cfg = StrategyConfig()
        for _ in range(100):
            n = int(rng.integers(40, 120))
            series = random_series(rng, "T", n, vol=float(rng.uniform(0.5, 4.0)))
            closes = series.closes()
            entries = {
                i: float(closes[i] * rng.uniform(0.93, 1.07)) for i in range(n)
            }
            preds = forecast_column(entries, n)

            got = ma_crossover_signals(preds, cfg)
            assert [s.value for s in got] == ma_crossover_oracle(entries, 5, 20, n)

            got = roc_signals(series, preds, cfg)
            assert [s.value for s in got] == roc_oracle(closes, entries, 14, 1.0, -1.0, n)

            got = bollinger_signals(series, preds, cfg)
            assert [s.value for s in got] == bollinger_oracle(closes, entries, 20, 2.0, n)

        for kind in ("ma_crossover", "rate_of_change", "bollinger_bands"):
            k_cfg = StrategyConfig(kind=kind)
            n, cut = 80, 45
            series = random_series(rng, "T", n, vol=2.0)
            closes = [b.close for b in series.bars]
            entries = np.array(closes) * 1.02
            base = generate_signals(series, entries, k_cfg)
            mut_closes = closes[:cut] + [c * 4.0 for c in closes[cut:]]
            mut_entries = entries.copy()
            mut_entries[cut:] *= 0.2
            mutated = generate_signals(series_from_closes("T", mut_closes), mut_entries, k_cfg)
            assert base[:cut] == mutated[:cut]


def test_desk_scale_end_to_end(tmp_path):
    # 3 tickers, 400-day calendar, 80:20 split: baseline backtest plus a full
    # indiscriminate sweep (80 test days x omega in {30,40,50}) in under 60s,
    # schema-valid outputs, and byte-identical repeat runs.
    with criterion("desk-scale end-to-end (<60s, byte-identical)"):
        start = time.perf_counter()
        rng = np.random.default_rng(7007)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for i, tk in enumerate(("AAA", "BBB", "CCC")):
            save_csv(
                random_series(rng, tk, 400, start=70.0 + 40 * i, drift=0.1, vol=2.0),
                data_dir / f"{tk}.csv",
            )
        config = {
            "data_dir": "data",
            "tickers": ["AAA", "BBB", "CCC"],
            "split": {"train_fraction": 0.8, "window": 50},
            "predictor": {"kind": "baseline", "window": 50},
            "strategy": {"kind": "ma_crossover"},
            "costs": {},
            "attack": {
                "ticker": "AAA",
                "mode": "stddev",
                "omegas": [30, 40, 50],
                "days": "all",
            },
            "output_dir": "out",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        cfg = RunConfig.from_file(cfg_path)

        outputs = {}
        for label in ("run1", "run2"):
            out = tmp_path / label
            result = cmd_backtest(cfg, out)
            assert len(result.daily_returns) == 80
            paths = cmd_attack(cfg, out)
            rows = read_schema_csv(paths["cells"], "epsim/attack-cells/v1")
            assert len(rows) == 80 * 3
            summary = json.loads(open(paths["summary"]).read())
            assert summary["schema"] == "epsim/attack-summary/v1"
            assert summary["n_errors"] == 0
            outputs[label] = {
                name: (out / name).read_bytes()
                for name in (
                    "result.json",
                    "ledger.csv",
                    "metrics.csv",
                    "sweep_cells.csv",
                    "sweep_summary.json",
                )
            }

        assert outputs["run1"] == outputs["run2"]

        lines = cmd_report(
            [
                str(tmp_path / "run1" / "result.json"),
                str(tmp_path / "run1" / "sweep_summary.json"),
                str(tmp_path / "run1" / "sweep_cells.csv"),
            ],
            tmp_path / "run1",
        )
        assert any("sharpe=" in line for line in lines)
        assert (tmp_path / "run1" / "quantiles.csv").exists()

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_replay_fidelity_targeted_table():
    # Replaying externally trained forecast streams against the six
    # documented event days needs those streams on disk; they are not part
    # of this repository, so the replication-grade comparison cannot run.
    # The import and targeted machinery it relies on is exercised in
    # test_pipeline.py and test_attack.py.
    pytest.skip(
        "replication-grade replay needs externally generated prediction "
        "files (predictor.kind='import'); none ship with this repository"
    )
