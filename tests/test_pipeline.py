import ast
import gc
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epsim
from epsim.attack import (
    AttackOutcome,
    AttackResult,
    CellError,
    EpSpec,
)
from epsim.cli import main
from epsim.config import AttackConfig, ConcealMode, CostModel, RunConfig, StdDevMode
from epsim.errors import ConfigurationError, ReportError, ZeroVolatilityWarning
from epsim.files import (
    cmd_ingest,
    cmd_report,
    quantile_table,
    write_result_files,
    write_sweep_files,
)
from epsim.market_data import save_csv
from epsim.pipeline import cmd_attack, cmd_backtest, cmd_fit
from epsim.strategy import Signal
from epsim.trade_engine import SimulationResult, TradeRecord

from conftest import random_series, read_schema_csv, trading_dates
from oracles import quantile_oracle

pytestmark = pytest.mark.filterwarnings(
    "ignore::epsim.errors.ZeroVolatilityWarning"
)

TICKERS = ("AAA", "BBB", "CCC")
# a test day of ``write_universe(n=150)``, in the two date forms Python 3.11+
# date.fromisoformat reads besides YYYY-MM-DD
TEST_DAY = trading_dates(150)[127]
TEST_DAY_COMPACT = TEST_DAY.strftime("%Y%m%d")
TEST_DAY_WEEK = "{}-W{:02d}-{}".format(*TEST_DAY.isocalendar())

# One bad input per case, in a 100-day world of 80 train and 20 test days:
# (config changes, the last row of AAA's imported forecasts or None for a
# baseline predictor, the error line every command that reads it prints).
# A bad row is formatted with the test days' dates; the error with {preds},
# the path of AAA's forecasts. A ``files`` change maps more tickers to a
# forecast file holding the one row given.
_TRAIN_DAY = trading_dates(100)[5].isoformat()
_FIRST_TEST_DAY = trading_dates(100)[80].isoformat()
BAD_INPUTS = {
    "short-train": (
        {"predictor": {"kind": "baseline", "window": 80}}, None,
        "error [predictor]: AAA: need at least window+1 = 81 train days, got 80",
    ),
    "short-train-and-attack-day": (
        {"predictor": {"kind": "baseline", "window": 80}, "attack": {"days": [9999]}},
        None,
        "error [predictor]: AAA: need at least window+1 = 81 train days, got 80",
    ),
    "attack-day-index": (
        {"attack": {"days": [9999]}}, None,
        "error [config]: attack.days: day 9999 outside the 20-day test window",
    ),
    "attack-date-outside-calendar": (
        {"attack": {"days": ["2131-12-31"]}}, None,
        "error [config]: attack.days: 2131-12-31 not in the test calendar",
    ),
    "attack-date-in-train": (
        {"attack": {"days": [_TRAIN_DAY]}}, None,
        f"error [config]: attack.days: {_TRAIN_DAY} not in the test calendar",
    ),
    "import-date-outside-calendar": (
        {}, "2131-12-31,100",
        "error [predictor]: {preds}: date 2131-12-31 outside the calendar",
    ),
    "import-date-in-train": (
        {}, f"{_TRAIN_DAY},100",
        f"error [predictor]: {{preds}}: date {_TRAIN_DAY} outside the calendar",
    ),
    "import-non-finite": (
        {}, "{19},nan",
        "error [predictor]: {preds}: line 21: non-finite prediction 'nan'",
    ),
    "import-duplicate-date": (
        {}, "{0},100",
        f"error [predictor]: {{preds}}: duplicate date {_FIRST_TEST_DAY}",
    ),
    "import-unknown-ticker": (
        {"files": {"ZZZ": "2131-12-31,100"}}, "{19},119",
        "error [config]: predictor.files: unrecognized keys ['ZZZ']",
    ),
    "zero-capital": (
        {"costs": {"initial_capital": 0.0}}, None,
        "error [config]: initial_capital must be > 0",
    ),
    "infeasible-omega": (
        {"attack": {"omegas": [5, 101]}}, None,
        "error [config]: attack.omegas: omega=101 needs 101 closes ending on an "
        "attacked day; the last, test day 19, has 100",
    ),
    "empty-data-dir": (
        {"data_dir": ""}, None, "error [config]: data_dir must name a directory, got ''",
    ),
    "empty-output-dir": (
        {"output_dir": ""}, None, "error [config]: output_dir must name a directory, got ''",
    ),
}


def _python(script: str, *args: str, env=None) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this epsim."""
    src = os.path.dirname(os.path.dirname(epsim.__file__))
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )


def write_universe(tmp_path, rng, n=200, tickers=TICKERS, attack=None, **extra):
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    for i, tk in enumerate(tickers):
        series = random_series(rng, tk, n, start=60.0 + 25 * i, drift=0.15, vol=2.0)
        save_csv(series, data_dir / f"{tk}.csv")
    config = {
        "data_dir": "data",
        "tickers": list(tickers),
        "split": {"train_fraction": 0.8, "window": 20},
        "predictor": {"kind": "baseline", "window": 20},
        "strategy": {"kind": "ma_crossover"},
        "costs": {},
        "output_dir": "out",
    }
    if attack is not None:
        config["attack"] = attack
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def write_never_trading(tmp_path, rng):
    """A world whose rule never trades: no forecast reaches a rate-of-change
    threshold of 1000%, so every run's daily returns are all 0 and its Sharpe
    ratio warns."""
    never = {"kind": "rate_of_change", "roc_buy_threshold": 1000, "roc_sell_threshold": -1000}
    return write_universe(
        tmp_path, rng, n=150, strategy=never,
        attack={"ticker": "AAA", "mode": "stddev", "days": "all", "omegas": [5]},
    )


ZERO_VOLATILITY = (
    "warning [trade_engine]: zero-volatility return stream; Sharpe ratio reported as 0\n"
)


def forbid_commands(monkeypatch, reason: str) -> None:
    """Make every command's work fail the test: the CLI must stop first."""
    from epsim import files, pipeline

    def no_run(*args, **kwargs):
        raise AssertionError(f"ran despite {reason}")

    for module, name in ((files, "cmd_ingest"), (files, "cmd_report"),
                         (pipeline, "cmd_fit"), (pipeline, "cmd_backtest"),
                         (pipeline, "cmd_attack")):
        monkeypatch.setattr(module, name, no_run)


class TestRunConfig:
    def test_round_trip_is_lossless_and_idempotent(self, tmp_path, rng):
        path = write_universe(
            tmp_path,
            rng,
            attack={"ticker": "AAA", "mode": "stddev", "days": "all"},
        )
        raw = json.loads(path.read_text())
        cfg = RunConfig.from_file(path)
        dumped = cfg.to_dict()
        for key, value in raw.items():
            if key in ("split", "predictor", "strategy", "costs", "attack"):
                for k2, v2 in value.items():
                    assert dumped[key][k2] == v2
            else:
                assert dumped[key] == value
        again = RunConfig.from_dict(dumped, base_dir=cfg.base_dir)
        assert again.to_dict() == dumped

    def test_unknown_top_level_key_rejected(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=60, slipage=0.5)
        with pytest.raises(ConfigurationError, match="slipage"):
            RunConfig.from_file(path)

    def test_unknown_nested_key_rejected(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=60, strategy={"knd": "ma_crossover"})
        with pytest.raises(ConfigurationError, match="knd"):
            RunConfig.from_file(path)

    def test_missing_data_file_rejected(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=60, tickers=("AAA",))
        cfg = json.loads(path.read_text())
        cfg["tickers"] = ["AAA", "MISSING"]
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigurationError, match="MISSING"):
            RunConfig.from_file(path)

    def test_empty_tickers_rejected(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=60, tickers=("AAA",))
        cfg = json.loads(path.read_text())
        cfg["tickers"] = []
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigurationError):
            RunConfig.from_file(path)

    def test_attack_block_validation(self):
        with pytest.raises(ConfigurationError):
            AttackConfig.from_dict({"mode": "stddev"})  # no ticker
        with pytest.raises(ConfigurationError):
            AttackConfig.from_dict({"ticker": "A", "mode": "melt"})
        with pytest.raises(ConfigurationError):
            AttackConfig.from_dict({"ticker": "A", "mode": "custom", "value": 1.0})
        with pytest.raises(ConfigurationError):
            AttackConfig.from_dict({"ticker": "A", "mode": "stddev", "days": 3})
        # the std is the sample std (n-1), with no setting for it
        with pytest.raises(ConfigurationError, match=r"^attack: unrecognized keys \['ddof'\]$"):
            AttackConfig.from_dict({"ticker": "A", "mode": "stddev", "ddof": 1})


class TestCommands:
    def test_ingest_report(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=100)
        cfg = RunConfig.from_file(path)
        report = cmd_ingest(cfg, tmp_path / "out")
        assert report["n_train"] == 80
        assert report["n_test"] == 20
        payload = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert payload["schema"] == "epsim/ingest/v1"

    def test_fit_reports(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=150)
        cfg = RunConfig.from_file(path)
        reports = cmd_fit(cfg, tmp_path / "out")
        assert [r.ticker for r in reports] == sorted(TICKERS)
        assert all(r.rmse_test >= 0 for r in reports)
        payload = json.loads((tmp_path / "out" / "fit_reports.json").read_text())
        assert payload["schema"] == "epsim/fit/v1"
        assert len(payload["reports"]) == 3

    def test_backtest_outputs_and_row_counts(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=150, tickers=("AAA",))
        cfg = RunConfig.from_file(path)
        result = cmd_backtest(cfg, tmp_path / "out")
        n_test = 150 - 120
        assert len(result.daily_returns) == n_test

        metrics = read_schema_csv(tmp_path / "out" / "metrics.csv", "epsim/metrics/v1")
        assert len(metrics) == n_test
        ledger = read_schema_csv(tmp_path / "out" / "ledger.csv", "epsim/ledger/v1")
        assert len(ledger) == len(result.trade_ledger)
        payload = json.loads((tmp_path / "out" / "result.json").read_text())
        assert payload["schema"] == "epsim/result/v1"
        assert payload["final_value"] == result.final_value

    def test_backtest_is_byte_deterministic(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=140)
        cfg = RunConfig.from_file(path)
        cmd_backtest(cfg, tmp_path / "out1")
        cmd_backtest(cfg, tmp_path / "out2")
        for name in ("result.json", "ledger.csv", "metrics.csv"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b

    def test_backtest_with_imported_predictions(self, tmp_path, rng):
        path = write_universe(tmp_path, rng, n=100, tickers=("AAA",))
        cfg = RunConfig.from_file(path)
        dataset_days = trading_dates(100)
        test_days = dataset_days[80:]
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text(
            "Date,Prediction\n"
            + "\n".join(f"{d.isoformat()},{100 + i * 0.5}" for i, d in enumerate(test_days))
            + "\n"
        )
        raw = json.loads(path.read_text())
        raw["predictor"] = {"kind": "import", "files": {"AAA": "preds.csv"}}
        path.write_text(json.dumps(raw))
        cfg = RunConfig.from_file(path)
        assert cfg.predictor is None  # no model to configure
        assert cfg.to_dict()["predictor"] == raw["predictor"]
        result = cmd_backtest(cfg, tmp_path / "out")
        assert len(result.daily_returns) == 20

    def test_imported_forecasts_are_nan_exactly_where_the_file_has_no_row(self, tmp_path, rng):
        from epsim.pipeline import build_predictions, load_dataset

        path = write_universe(tmp_path, rng, n=100, tickers=("AAA", "BBB"))
        test_days = trading_dates(100)[80:]
        omitted = {"AAA": {0, 1, 2, 9, 17}, "BBB": set(range(1, 20))}
        raw = json.loads(path.read_text())
        raw["predictor"] = {"kind": "import", "files": {}}
        for tk, gaps in omitted.items():
            # rows newest first: a column is placed by date, not by row
            rows = [f"{d.isoformat()},{100 + 0.25 * i!r}" for i, d in enumerate(test_days)]
            (tmp_path / f"{tk}.csv").write_text(
                "Date,Prediction\n"
                + "\n".join(row for i, row in reversed(list(enumerate(rows))) if i not in gaps)
            )
            raw["predictor"]["files"][tk] = f"{tk}.csv"
        path.write_text(json.dumps(raw))
        cfg = RunConfig.from_file(path)
        columns = build_predictions(cfg, load_dataset(cfg))
        assert sorted(columns) == ["AAA", "BBB"]
        for tk, gaps in omitted.items():
            column = columns[tk]
            assert column.dtype == np.float64 and len(column) == 20
            assert set(np.flatnonzero(np.isnan(column)).tolist()) == gaps
            for day in set(range(20)) - gaps:
                assert column[day] == 100 + 0.25 * day

    def test_attack_sweep_files(self, tmp_path, rng):
        path = write_universe(
            tmp_path,
            rng,
            n=150,
            attack={"ticker": "AAA", "mode": "stddev", "omegas": [5, 10], "days": "all"},
        )
        cfg = RunConfig.from_file(path)
        paths = cmd_attack(cfg, tmp_path / "out")
        rows = read_schema_csv(paths["cells"], "epsim/attack-cells/v1")
        assert len(rows) == 2 * 30  # 30 test days x 2 omegas
        summary = json.loads(open(paths["summary"]).read())
        assert summary["schema"] == "epsim/attack-summary/v1"
        assert 0.0 <= summary["fraction_sharpe_degraded"] <= 1.0
        assert summary["n_outcomes"] == 60

    def test_attack_targeted_files(self, tmp_path, rng):
        path = write_universe(
            tmp_path,
            rng,
            n=150,
            attack={
                "ticker": "BBB",
                "mode": "overestimate",
                "drop_fraction": 0.1,
                "days": [5, 12, 20],
            },
        )
        cfg = RunConfig.from_file(path)
        paths = cmd_attack(cfg, tmp_path / "out")
        rows = read_schema_csv(paths["cells"], "epsim/attack-cells/v1")
        assert [int(r["day"]) for r in rows] == [5, 12, 20]
        assert all(r["omega_or_mode"] == "overestimate" for r in rows)
        summary = json.loads(open(paths["summary"]).read())
        assert [d["day"] for d in summary["per_day"]] == [5, 12, 20]

    @staticmethod
    def _targeted_files(tmp_path, rng, day_lists) -> dict:
        """The bytes ``attack targeted`` writes for each list of conceal days."""
        path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "conceal"}
        )
        raw = json.loads(path.read_text())
        written = {}
        for days in day_lists:
            raw["attack"]["days"] = days
            path.write_text(json.dumps(raw))
            out = tmp_path / "out" / "-".join(map(str, days))
            paths = cmd_attack(RunConfig.from_file(path), out)
            written[tuple(days)] = {k: Path(p).read_bytes() for k, p in paths.items()}
        return written

    def test_targeted_repeated_day_runs_once(self, tmp_path, rng):
        self._targeted_files(tmp_path, rng, [[5, 5]])
        out = tmp_path / "out" / "5-5"
        rows = read_schema_csv(out / "targeted_cells.csv", "epsim/attack-cells/v1")
        assert [int(r["day"]) for r in rows] == [5]
        summary = json.loads((out / "targeted_summary.json").read_text())
        assert summary["n_outcomes"] == 1
        assert [d["day"] for d in summary["per_day"]] == [5]

    def test_targeted_days_run_in_day_order(self, tmp_path, rng):
        written = self._targeted_files(tmp_path, rng, [[9, 5], [5, 9]])
        assert written[(9, 5)] == written[(5, 9)]

    def test_attack_days_as_dates(self, tmp_path, rng):
        dates = trading_dates(150)
        target = dates[120 + 7]
        path = write_universe(
            tmp_path,
            rng,
            n=150,
            attack={"ticker": "AAA", "mode": "conceal", "days": [target.isoformat()]},
        )
        cfg = RunConfig.from_file(path)
        paths = cmd_attack(cfg, tmp_path / "out")
        rows = read_schema_csv(paths["cells"], "epsim/attack-cells/v1")
        assert [int(r["day"]) for r in rows] == [7]

    def test_attack_requires_baseline_predictor(self, tmp_path, rng):
        # and so does fit: neither reads predictor on an imported-forecast run
        path = write_universe(
            tmp_path,
            rng,
            n=100,
            tickers=("AAA",),
            attack={"ticker": "AAA", "mode": "stddev", "days": "all"},
        )
        raw = json.loads(path.read_text())
        pred_path = tmp_path / "preds.csv"
        d = trading_dates(100)[85]
        pred_path.write_text(f"Date,Prediction\n{d.isoformat()},100\n")
        raw["predictor"] = {"kind": "import", "files": {"AAA": "preds.csv"}}
        path.write_text(json.dumps(raw))
        cfg = RunConfig.from_file(path)
        for cmd in (cmd_fit, cmd_attack):
            with pytest.raises(ConfigurationError, match="baseline"):
                cmd(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_sweep_days_compute_only_those_cells(self, tmp_path, rng, monkeypatch):
        from epsim import attack

        attack_block = {"ticker": "AAA", "mode": "stddev", "omegas": [5, 10]}
        path = write_universe(
            tmp_path, rng, n=150, attack={**attack_block, "days": "all"}
        )
        full = read_schema_csv(
            cmd_attack(RunConfig.from_file(path), tmp_path / "all")["cells"],
            "epsim/attack-cells/v1",
        )
        raw = json.loads(path.read_text())
        raw["attack"]["days"] = [7, 3]
        path.write_text(json.dumps(raw))
        computed = []
        original = attack.perturbed_prediction_entry

        def counting(predictor, series, test_start, ep, *cached):
            computed.append((ep.day, ep.mode.omega))
            return original(predictor, series, test_start, ep, *cached)

        monkeypatch.setattr(attack, "perturbed_prediction_entry", counting)
        cells = cmd_attack(RunConfig.from_file(path), tmp_path / "some")
        rows = read_schema_csv(cells["cells"], "epsim/attack-cells/v1")
        assert computed == [(3, 5), (3, 10), (7, 5), (7, 10)]
        assert rows == [r for r in full if int(r["day"]) in (3, 7)]


BASELINE = SimulationResult(
    daily_returns=(0.0, 0.0125, -0.004),
    cumulative_returns=(0.0, 0.0125, 0.00845),
    sharpe_ratio=1.75,
    trade_ledger=(),
    final_value=100845.0,
)


def hand_made_outcomes(cells) -> tuple[AttackOutcome, ...]:
    """Three outcomes from literal floats, one per (day, mode): no impact, a
    loss, and a NaN cr_ratio. The writer only formats the values, so they
    need not come from one consistent run."""
    impacts = (
        (1.75, 0.00845, 1.0, None),
        (0.5, -0.0031, -0.0031 / 0.00845, 3),
        (2.125, 0.0, math.nan, 4),
    )
    return tuple(
        AttackOutcome(
            ep=EpSpec("AAA", day, mode),
            perturbed_value=103.5,
            clean_value=101.25,
            rmse_clean=0.8125,
            rmse_attacked=0.8203125,
            sharpe_baseline=1.75,
            sharpe_attacked=sharpe,
            cr_baseline=0.00845,
            cr_attacked=cr,
            cr_ratio=ratio,
            first_divergence_day=first,
        )
        for (day, mode), (sharpe, cr, ratio, first) in zip(cells, impacts)
    )


def cell_error(label: str) -> tuple[CellError, ...]:
    return (CellError(0, label, "AAA: need 30 days of history ending at index 3"),)


# The exact bytes the separate sweep and targeted writers wrote before they
# were merged into one.
SWEEP_CELLS = (
    "# schema: epsim/attack-cells/v1\n"
    "day,omega_or_mode,delta_sharpe,cr_ratio,first_divergence_day,rmse_clean,rmse_attacked\r\n"
    "1,omega=5,0.0,1.0,,0.8125,0.8203125\r\n"
    "1,omega=30,-1.25,-0.36686390532544383,3,0.8125,0.8203125\r\n"
    "2,omega=5,0.375,nan,4,0.8125,0.8203125\r\n"
)

SWEEP_SUMMARY = """\
{
  "baseline": {
    "cumulative_return": 0.00845,
    "final_value": 100845.0,
    "sharpe_ratio": 1.75
  },
  "errors": [
    {
      "day": 0,
      "label": "omega=30",
      "message": "AAA: need 30 days of history ending at index 3"
    }
  ],
  "fraction_cr_degraded": 0.6666666666666666,
  "fraction_sharpe_degraded": 0.3333333333333333,
  "mode": "sweep",
  "n_errors": 1,
  "n_outcomes": 3,
  "schema": "epsim/attack-summary/v1"
}
"""

TARGETED_CELLS = (
    "# schema: epsim/attack-cells/v1\n"
    "day,omega_or_mode,delta_sharpe,cr_ratio,first_divergence_day,rmse_clean,rmse_attacked,cr_change_pct\r\n"
    "1,conceal,0.0,1.0,,0.8125,0.8203125,0.0\r\n"
    "2,conceal,-1.25,-0.36686390532544383,3,0.8125,0.8203125,-1.155\r\n"
    "3,conceal,0.375,nan,4,0.8125,0.8203125,-0.845\r\n"
)

TARGETED_SUMMARY = """\
{
  "baseline": {
    "cumulative_return": 0.00845,
    "final_value": 100845.0,
    "sharpe_ratio": 1.75
  },
  "errors": [
    {
      "day": 0,
      "label": "conceal",
      "message": "AAA: need 30 days of history ending at index 3"
    }
  ],
  "fraction_cr_degraded": 0.6666666666666666,
  "fraction_sharpe_degraded": 0.3333333333333333,
  "mode": "conceal",
  "n_errors": 1,
  "n_outcomes": 3,
  "per_day": [
    {
      "cr_change_pct": 0.0,
      "day": 1
    },
    {
      "cr_change_pct": -1.155,
      "day": 2
    },
    {
      "cr_change_pct": -0.845,
      "day": 3
    }
  ],
  "schema": "epsim/attack-summary/v1"
}
"""


RESULT_JSON = """\
{
  "cumulative_returns": [
    0.0,
    0.0125,
    0.00845
  ],
  "daily_returns": [
    0.0,
    0.0125,
    -0.004
  ],
  "final_value": 100845.0,
  "schema": "epsim/result/v1",
  "sharpe_ratio": 1.75,
  "trades": [
    {
      "commission": 0.49,
      "day": 1,
      "price": 101.27,
      "shares": 98,
      "side": "buy",
      "slippage": 1.96,
      "ticker": "AAA"
    },
    {
      "commission": 0.2,
      "day": 2,
      "price": 49.98,
      "shares": 40,
      "side": "sell",
      "slippage": 0.8000000000000114,
      "ticker": "BBB"
    }
  ]
}
"""

LEDGER_CSV = (
    "# schema: epsim/ledger/v1\n"
    "day,ticker,side,shares,price,commission,slippage\r\n"
    "1,AAA,buy,98,101.27,0.49,1.96\r\n"
    "2,BBB,sell,40,49.98,0.2,0.8000000000000114\r\n"
)

METRICS_CSV = (
    "# schema: epsim/metrics/v1\n"
    "day,portfolio_value,daily_return,cumulative_return\r\n"
    "0,100000.0,0.0,0.0\r\n"
    "1,101250.0,0.0125,0.0125\r\n"
    "2,100845.0,-0.004,0.00845\r\n"
)


class TestResultWriter:
    def test_result_files_are_byte_exact(self, tmp_path):
        # bytes, not parsed values: key order, float reprs and CRLF rows are
        # part of the format that reruns must reproduce
        trades = (
            TradeRecord(1, "AAA", Signal.BUY, 98, 101.27, 0.49, 1.96),
            TradeRecord(2, "BBB", Signal.SELL, 40, 49.98, 0.2, 0.8000000000000114),
        )
        result = BASELINE._replace(trade_ledger=trades)
        paths = write_result_files(result, CostModel(), tmp_path)
        assert paths == {
            "result": str(tmp_path / "result.json"),
            "ledger": str(tmp_path / "ledger.csv"),
            "metrics": str(tmp_path / "metrics.csv"),
        }
        assert json.loads(RESULT_JSON)["schema"] == "epsim/result/v1"
        assert (tmp_path / "result.json").read_bytes() == RESULT_JSON.encode()
        assert (tmp_path / "ledger.csv").read_bytes() == LEDGER_CSV.encode()
        assert (tmp_path / "metrics.csv").read_bytes() == METRICS_CSV.encode()

    def test_schema_csv_is_read_as_utf8(self, tmp_path):
        # like every other reader: a byte that is not UTF-8, even before the
        # schema line, is a report error naming the file, whatever the
        # locale's encoding
        path = tmp_path / "sweep_cells.csv"
        path.write_bytes(b"\xff# schema: epsim/attack-cells/v1\nday\n0\n")
        with pytest.raises(ReportError) as caught:
            cmd_report([str(path)], str(tmp_path / "out"))
        assert str(caught.value).startswith(f"{path}: not UTF-8 text: ")


class TestAttackWriter:
    def test_sweep_files_are_byte_exact(self, tmp_path):
        cells = [(1, StdDevMode(5)), (1, StdDevMode(30)), (2, StdDevMode(5))]
        result = AttackResult(
            "sweep", hand_made_outcomes(cells), BASELINE, cell_error("omega=30")
        )
        paths = write_sweep_files(result, tmp_path)
        assert paths == {
            "cells": str(tmp_path / "sweep_cells.csv"),
            "summary": str(tmp_path / "sweep_summary.json"),
        }
        assert (tmp_path / "sweep_cells.csv").read_bytes() == SWEEP_CELLS.encode()
        assert (tmp_path / "sweep_summary.json").read_bytes() == SWEEP_SUMMARY.encode()

    def test_targeted_files_are_byte_exact(self, tmp_path):
        cells = [(1, ConcealMode()), (2, ConcealMode()), (3, ConcealMode())]
        result = AttackResult(
            "conceal", hand_made_outcomes(cells), BASELINE, cell_error("conceal")
        )
        paths = write_sweep_files(result, tmp_path)
        assert paths == {
            "cells": str(tmp_path / "targeted_cells.csv"),
            "summary": str(tmp_path / "targeted_summary.json"),
        }
        assert (tmp_path / "targeted_cells.csv").read_bytes() == TARGETED_CELLS.encode()
        assert (
            tmp_path / "targeted_summary.json"
        ).read_bytes() == TARGETED_SUMMARY.encode()


GOOD_RESULT = {
    "schema": "epsim/result/v1",
    "sharpe_ratio": 0.5,
    "cumulative_returns": [0.0, 0.01],
    "final_value": 101.0,
    "trades": [],
}
GOOD_SUMMARY = {
    "schema": "epsim/attack-summary/v1",
    "mode": "sweep",
    "n_outcomes": 1,
    "baseline": {"sharpe_ratio": 0.5, "cumulative_return": 0.01},
    "fraction_sharpe_degraded": 0.0,
    "fraction_cr_degraded": 0.0,
}
CELLS_HEAD = (
    "# schema: epsim/attack-cells/v1\n"
    "day,omega_or_mode,delta_sharpe,cr_ratio,first_divergence_day,rmse_clean,rmse_attacked\n"
)


class TestReport:
    def make_cells(self, path, rows):
        path.write_text(
            CELLS_HEAD
            + "".join(f"{i},{label},{ds},{cr},,1.0,1.0\n" for i, (label, ds, cr) in enumerate(rows))
        )

    def test_quantiles_match_sort_oracle(self, tmp_path, rng):
        values = [float(v) for v in rng.normal(0, 1, 37)]
        ratios = [float(v) for v in rng.uniform(0.5, 1.5, 37)]
        cells = tmp_path / "cells.csv"
        self.make_cells(
            cells, [("omega=5", v, r) for v, r in zip(values, ratios)]
        )
        lines = cmd_report([str(cells)], tmp_path)
        table = quantile_table(read_schema_csv(cells, "epsim/attack-cells/v1"))
        by_metric = {row["metric"]: row for row in table}
        for metric, data in (("delta_sharpe", values), ("cr_ratio", ratios)):
            row = by_metric[metric]
            assert row["min"] == min(data)
            assert row["max"] == max(data)
            assert row["q1"] == pytest.approx(quantile_oracle(data, 0.25), abs=1e-12)
            assert row["median"] == pytest.approx(quantile_oracle(data, 0.5), abs=1e-12)
            assert row["q3"] == pytest.approx(quantile_oracle(data, 0.75), abs=1e-12)
            assert row["mean"] == pytest.approx(sum(data) / len(data), abs=1e-12)
        assert (tmp_path / "quantiles.csv").exists()
        assert any("quantiles.csv" in line for line in lines)

    def test_non_finite_values_left_out_of_quantiles(self, tmp_path):
        rows = [("omega=5", 0.5, "nan"), ("omega=5", -0.25, 0.75), ("omega=5", 0.0, 1.25)]
        rows += [("omega=9", 0.125, "nan")]
        cells = tmp_path / "cells.csv"
        self.make_cells(cells, rows)
        table = quantile_table(read_schema_csv(cells, "epsim/attack-cells/v1"))
        assert [(r["group"], r["metric"]) for r in table] == [
            ("omega=5", "delta_sharpe"),
            ("omega=5", "cr_ratio"),
            ("omega=9", "delta_sharpe"),
        ]
        ratio = table[1]
        assert (ratio["min"], ratio["median"], ratio["max"], ratio["mean"]) == (
            0.75, 1.0, 1.25, 1.0
        )
        assert all(math.isfinite(v) for r in table for v in list(r.values())[2:])

        lines = cmd_report([str(cells)], tmp_path)
        assert "2 undefined values left out of the quantile table" in lines
        written = read_schema_csv(tmp_path / "quantiles.csv", "epsim/quantiles/v1")
        assert len(written) == 3
        assert "nan" not in (tmp_path / "quantiles.csv").read_text()

    def test_all_values_undefined_is_error(self, tmp_path):
        cells = tmp_path / "cells.csv"
        self.make_cells(cells, [("omega=5", "nan", "nan")])
        with pytest.raises(ReportError, match="finite"):
            cmd_report([str(cells)], tmp_path)

    def test_single_outcome_degenerate_quantiles(self, tmp_path):
        cells = tmp_path / "cells.csv"
        self.make_cells(cells, [("omega=5", 0.25, 1.1)])
        table = quantile_table(read_schema_csv(cells, "epsim/attack-cells/v1"))
        row = [r for r in table if r["metric"] == "delta_sharpe"][0]
        assert (
            row["min"] == row["q1"] == row["median"] == row["q3"] == row["max"] == 0.25
        )

    def test_empty_outcome_file_is_error(self, tmp_path):
        cells = tmp_path / "cells.csv"
        self.make_cells(cells, [])
        with pytest.raises(ReportError):
            cmd_report([str(cells)], tmp_path)

    def test_schema_mismatch_refused(self, tmp_path):
        bogus = tmp_path / "result.json"
        bogus.write_text(json.dumps({"schema": "epsim/result/v999", "x": 1}))
        with pytest.raises(ReportError, match="schema"):
            cmd_report([str(bogus)], tmp_path)
        missing = tmp_path / "other.json"
        missing.write_text(json.dumps({"x": 1}))
        with pytest.raises(ReportError, match="schema"):
            cmd_report([str(missing)], tmp_path)

    def test_csv_without_schema_line_refused(self, tmp_path):
        cells = tmp_path / "cells.csv"
        cells.write_text("day,omega_or_mode\n1,omega=5\n")
        with pytest.raises(ReportError, match="schema"):
            cmd_report([str(cells)], tmp_path)

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("result.json", '{"schema": "epsim/result/v1",', "invalid JSON: "),
            ("result.json", "[1, 2]", "a list, not a JSON object"),
            ("result.json", "\udcff", "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
            ("result.json", json.dumps({**GOOD_RESULT, "cumulative_returns": []}),
             "field 'cumulative_returns' is empty"),
            ("result.json", json.dumps({k: v for k, v in GOOD_RESULT.items() if k != "trades"}),
             "missing field 'trades'"),
            ("result.json", json.dumps({**GOOD_RESULT, "final_value": "12"}),
             "field 'final_value' is a str, not a number"),
            ("sweep_summary.json",
             json.dumps({**GOOD_SUMMARY, "baseline": {"sharpe_ratio": 0.5}}),
             "missing field 'baseline.cumulative_return'"),
            ("sweep_cells.csv", CELLS_HEAD + "3,omega=5,0.5,1.0,,1.0,1.0\n4,omega=5,abc,1.0,,1.0,1.0\n",
             "line 4: delta_sharpe 'abc' is not a number"),
            ("sweep_cells.csv", CELLS_HEAD + "3,omega=5,0.5\n", "line 3: missing field 'cr_ratio'"),
            ("sweep_cells.csv",
             "# schema: epsim/attack-cells/v1\nday,omega_or_mode,delta_sharpe\n3,omega=5,0.5\n",
             "line 3: missing field 'cr_ratio'"),
            ("sweep_cells.csv", CELLS_HEAD + "\udcff\n", "not UTF-8 text: "),
        ],
        ids=[
            "invalid-json", "not-an-object", "json-not-utf8", "empty-cumulative-returns",
            "missing-key", "mistyped-key", "missing-nested-key", "cell-not-a-number",
            "short-cell-row", "missing-cell-column", "cells-not-utf8",
        ],
    )
    def test_malformed_input_fails_cleanly(self, tmp_path, capsys, name, content, message):
        # each fails naming the file, after a good cells file that would
        # otherwise make a quantile table
        good = tmp_path / "good_cells.csv"
        self.make_cells(good, [("omega=5", 0.25, 1.1)])
        bad = tmp_path / name
        bad.write_bytes(content.encode("utf-8", "surrogateescape"))  # \udcff: byte 0xff
        out = tmp_path / "out"
        assert main(["report", str(good), str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [report]: {bad}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_well_formed_inputs_of_the_malformed_cases_report(self, tmp_path, capsys):
        result, summary = tmp_path / "result.json", tmp_path / "sweep_summary.json"
        result.write_text(json.dumps(GOOD_RESULT))
        summary.write_text(json.dumps(GOOD_SUMMARY))
        cells = tmp_path / "sweep_cells.csv"
        cells.write_text(CELLS_HEAD + "3,omega=5,0.5,1.0,,1.0,1.0\n")
        assert main(["report", str(result), str(summary), str(cells), "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "result.json: sharpe=0.5000 final_cr=1.0000% final_value=101.00 trades=0" in printed
        assert "cells=1 baseline_sharpe=0.5000 baseline_cr=1.0000%" in printed
        assert (tmp_path / "quantiles.csv").exists()

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_file_given_twice_fails_before_any_read(self, tmp_path, capsys, spelling):
        # its cells would count twice in the table; the bad JSON after it
        # must not be reached, and nothing is written
        cells = tmp_path / "sweep_cells.csv"
        self.make_cells(cells, [("omega=5", 0.25, 1.1), ("omega=5", -0.5, 0.9)])
        again = {
            "same": cells,
            "dotted": tmp_path / "." / "sweep_cells.csv",
            "symlink": tmp_path / "link.csv",
        }[spelling]
        if spelling == "symlink":
            again.symlink_to(cells)
        bad = tmp_path / "result.json"
        bad.write_text("[")
        out = tmp_path / "out"
        assert main(["report", str(cells), str(again), str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [report]: {again}: given twice\n"
        assert not out.exists()


@st.composite
def metric_groups(draw):
    """One group's values: sizes at numpy's pairwise-sum boundaries, drawn
    from a pool of finite floats of any magnitude up to 1e300, optionally
    with each value's negation (cancellation) and mixed-scale noise."""
    n = draw(st.sampled_from((1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 720)))
    pool = draw(
        st.lists(
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    if draw(st.booleans()):
        pool += [-v for v in pool]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    noisy = draw(st.booleans())
    return [
        rng.choice(pool) + (rng.gauss(0, 1) * 10.0 ** rng.randint(-3, 17) if noisy else 0.0)
        for _ in range(n)
    ]


class TestQuantileDifferential:
    @given(values=metric_groups())
    @example(values=[-0.0])
    @example(values=[-0.0] * 9)
    @example(values=[0.0, -0.0, 0.0, -0.0, 1.0])
    @example(values=[1e16, 1.0, -1e16, 1.0, 0.5, 3.0, -2.0, 1e-3, 7.0])
    @settings(max_examples=300, deadline=None)
    def test_quantile_table_has_numpys_bits(self, values):
        """``quantile_table`` gives the bits of ``np.quantile(values, (0.25,
        0.5, 0.75))``, ``np.mean``, ``min`` and ``max``, compared with
        ``float.hex``. Signed zeros are the one exception: where numpy's
        value is a zero, the two are compared by value, because which zero
        numpy returns follows its partition order and ours Python's stable
        ``sorted``."""
        rows = [
            {"omega_or_mode": "g", "delta_sharpe": repr(v), "cr_ratio": repr(-v)}
            for v in values
        ]
        table = quantile_table(rows)
        for sign, row in zip((1.0, -1.0), table):
            arr = np.asarray([sign * v for v in values], dtype=np.float64)
            q1, q2, q3 = (float(v) for v in np.quantile(arr, (0.25, 0.5, 0.75)))
            expected = {
                "min": float(arr.min()), "q1": q1, "median": q2, "q3": q3,
                "max": float(arr.max()), "mean": float(arr.mean()),
            }
            for key, want in expected.items():
                got = row[key]
                if want == 0:
                    assert got == want, (key, got, want)
                else:
                    assert got.hex() == want.hex(), (key, got, want)


class TestCli:
    def test_full_cli_session(self, tmp_path, rng, capsys):
        cfg_path = write_universe(
            tmp_path,
            rng,
            n=150,
            attack={"ticker": "AAA", "mode": "stddev", "omegas": [5, 10], "days": "all"},
        )
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["backtest", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["attack", "sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (
            main(
                [
                    "report",
                    "--out",
                    str(out),
                    str(out / "result.json"),
                    str(out / "sweep_summary.json"),
                    str(out / "sweep_cells.csv"),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "sharpe=" in printed
        assert "sr_degraded=" in printed
        assert (out / "quantiles.csv").exists()

    def test_cli_flag_overrides(self, tmp_path, rng, capsys):
        cfg_path = write_universe(tmp_path, rng, n=130)
        out = tmp_path / "out"
        code = main(
            [
                "attack",
                "sweep",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--ticker",
                "BBB",
                "--omega",
                "5",
            ]
        )
        assert code == 0
        rows = read_schema_csv(out / "sweep_cells.csv", "epsim/attack-cells/v1")
        assert {r["omega_or_mode"] for r in rows} == {"omega=5"}

    def test_cli_attack_without_attack_block_or_ticker(self, tmp_path, rng, capsys):
        cfg_path = write_universe(tmp_path, rng, n=130)
        out = tmp_path / "out"
        code = main(["attack", "sweep", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [config]: attack.ticker is required")
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, argv, message",
        [
            ("conceal", ["sweep"], "attack sweep runs attack.mode stddev, not 'conceal'"),
            ("stddev", ["targeted", "--mode", "stddev"],
             "attack targeted runs attack.mode conceal or overestimate, not 'stddev'"),
            ("conceal", ["targeted", "--omega", "2"],
             "attack targeted takes no --omega: it sets attack sweep's windows"),
        ],
        ids=["sweep-conceal", "targeted-stddev", "targeted-omega"],
    )
    def test_submode_that_does_not_run_attack_mode_fails_before_compute(
        self, tmp_path, rng, capsys, monkeypatch, mode, argv, message
    ):
        from epsim import pipeline

        def no_attack(*args, **kwargs):
            raise AssertionError("attacked despite a mismatched submode")

        monkeypatch.setattr(pipeline, "cmd_attack", no_attack)
        cfg_path = write_universe(
            tmp_path, rng, n=100, attack={"ticker": "AAA", "mode": mode, "days": "all"}
        )
        out = tmp_path / "out"
        code = main(["attack", *argv, "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error [config]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["config", "market_data", "predictor"])
    def test_non_utf8_input_fails_cleanly(self, tmp_path, rng, capsys, reader):
        cfg_path = write_universe(tmp_path, rng, n=100, tickers=("AAA",))
        test_days = trading_dates(100)[80:]
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "Date,Prediction\n" + "".join(f"{d.isoformat()},100\n" for d in test_days)
        )
        raw = json.loads(cfg_path.read_text())
        raw["predictor"] = {"kind": "import", "files": {"AAA": "preds.csv"}}
        cfg_path.write_text(json.dumps(raw))
        bad = {
            "config": cfg_path, "market_data": tmp_path / "data" / "AAA.csv",
            "predictor": preds,
        }[reader]
        lines = bad.read_bytes().split(b"\n")
        at = 0 if reader == "config" else 5
        lines[at] = b"\xff" + lines[at]
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        code = main(["backtest", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error [{reader}]: {bad}: not UTF-8 text: "
            "'utf-8' codec can't decode byte 0xff in position "
        )
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"kind": "ma_crossover"', '"kind": "ma_crossover", "kind": "bollinger_bands"', "kind"),
            ('"costs": {}', '"costs": {}, "costs": {"initial_capital": 5.0}', "costs"),
        ],
        ids=["in-a-section", "a-section"],
    )
    def test_repeated_config_key_fails_before_any_load(
        self, tmp_path, rng, capsys, monkeypatch, old, new, key
    ):
        # json keeps the last value of a repeated key: the config ran as the
        # last one said, whatever the first one said
        from epsim import files, pipeline

        def no_load(*args, **kwargs):
            raise AssertionError("loaded despite a repeated key")

        monkeypatch.setattr(files, "load_csv", no_load)
        monkeypatch.setattr(pipeline, "load_csv", no_load)
        cfg_path = write_universe(tmp_path, rng, n=100)
        text = json.dumps(json.loads(cfg_path.read_text()))
        assert old in text
        cfg_path.write_text(text.replace(old, new))
        for command in (["ingest"], ["backtest"]):
            out = tmp_path / "out"
            assert main([*command, "--config", str(cfg_path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error [config]: {cfg_path}: key {key!r} given twice\n"
            )
            assert not out.exists()

    def test_utf8_input_reads_under_an_ascii_locale(self, tmp_path, rng):
        # inputs are UTF-8 whatever the locale's encoding, so a UTF-8 config
        # is not refused as "not UTF-8 text" where that encoding is ASCII
        cfg_path = write_universe(tmp_path, rng, n=120, output_dir="sortie_\u00e9")
        cfg_path.write_text(
            json.dumps(json.loads(cfg_path.read_text()), ensure_ascii=False),
            encoding="utf-8",
        )
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = _python(
            "import locale, sys\n"
            "assert 'utf' not in locale.getpreferredencoding(False).lower()\n"
            "from epsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n",
            "ingest", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_error_reports_module_and_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"data_dir": "nope", "tickers": ["X"]}))
        code = main(["backtest", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [config]")

    def test_zero_volatility_is_one_warning_line(self, tmp_path, rng):
        # not Python's form of a warning, which names the source file's
        # absolute path and line and quotes the source line
        cfg_path = write_never_trading(tmp_path, rng)
        script = "import runpy\nrunpy.run_module('epsim.cli', run_name='__main__')\n"
        for command in (["backtest"], ["attack", "sweep"]):
            proc = _python(script, *command, "--config", str(cfg_path), "--out", str(tmp_path))
            assert (command, proc.returncode, proc.stderr) == (command, 0, ZERO_VOLATILITY)

    def test_main_reports_warnings_as_the_filters_say_and_leaves_them(
        self, tmp_path, rng, capsys
    ):
        cfg_path = write_never_trading(tmp_path, rng)
        argv = ["backtest", "--config", str(cfg_path), "--out", str(tmp_path)]
        for action, err in (("ignore", ""), ("default", ZERO_VOLATILITY)):
            with warnings.catch_warnings():
                warnings.simplefilter(action, ZeroVolatilityWarning)
                before = list(warnings.filters)
                assert main(argv) == 0
                assert warnings.filters == before
            assert (action, capsys.readouterr().err) == (action, err)

    def test_a_warning_the_filters_make_an_error_is_one_error_line(self, tmp_path, rng):
        # under python -W error the Sharpe warning is an exception: the
        # command ends in its error line, not a traceback
        cfg_path = write_never_trading(tmp_path, rng)
        script = "import runpy\nrunpy.run_module('epsim.cli', run_name='__main__')\n"
        env = {**os.environ, "PYTHONWARNINGS": "error"}
        want = ZERO_VOLATILITY.replace("warning [", "error [")
        for command in (["backtest"], ["attack", "sweep"]):
            out = str(tmp_path / command[-1])
            proc = _python(script, *command, "--config", str(cfg_path), "--out", out, env=env)
            assert (command, proc.returncode, proc.stderr) == (command, 1, want)

    def test_each_distinct_warning_is_one_line_before_the_error(
        self, tmp_path, capsys, monkeypatch
    ):
        from epsim import files

        def cmd_report(paths, out_dir):
            warnings.warn("flat", ZeroVolatilityWarning)
            warnings.warn("flat", ZeroVolatilityWarning)
            warnings.warn("not one of epsim's", UserWarning)
            raise ReportError("failed after warning")

        monkeypatch.setattr(files, "cmd_report", cmd_report)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["report", "result.json", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "warning [trade_engine]: flat\n"
            "warning [UserWarning]: not one of epsim's\n"
            "error [report]: failed after warning\n"
        )

    @pytest.mark.parametrize(
        "attack, argv",
        [
            ({"ticker": "ZZZ", "mode": "stddev", "days": "all"}, []),
            ({"ticker": "AAA", "mode": "stddev", "days": "all"}, ["--ticker", "ZZZ"]),
            ({"ticker": "AAA", "mode": "stddev", "days": "all"}, ["--ticker", ""]),
            ({"ticker": "AAA", "mode": "stddev", "days": [3, True]}, []),
            ({"ticker": "AAA", "mode": "stddev", "days": [3, 30]}, []),
            ({"ticker": "AAA", "mode": "conceal", "days": [-1]}, ["--mode", "conceal"]),
            ({"ticker": "AAA", "mode": "conceal", "days": [TEST_DAY_COMPACT]}, []),
            ({"ticker": "AAA", "mode": "conceal", "days": [TEST_DAY_WEEK]}, []),
            (
                {"ticker": "AAA", "mode": "stddev", "days": "all"},
                ["--ticker", "AAA", "--ticker", "BBB"],
            ),
            (
                {"ticker": "AAA", "mode": "conceal", "days": [3]},
                ["--mode", "conceal", "--mode", "overestimate"],
            ),
        ],
        ids=[
            "ticker", "ticker-flag", "empty-ticker-flag", "bool-day", "day-past-window",
            "negative-day", "compact-date", "week-date", "ticker-flag-twice",
            "mode-flag-twice",
        ],
    )
    def test_bad_attack_target_fails_before_compute(
        self, tmp_path, rng, capsys, monkeypatch, attack, argv
    ):
        from epsim import pipeline

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted despite a bad attack target")

        monkeypatch.setattr(pipeline, "fit_baseline", no_fit)
        cfg_path = write_universe(tmp_path, rng, n=150, attack=attack)
        submode = "targeted" if attack["mode"] == "conceal" else "sweep"
        out = tmp_path / "out"
        code = main(
            ["attack", submode, "--config", str(cfg_path), "--out", str(out), *argv]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error [config]: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, argv",
        [
            (("attack", "omegas"), ["a"], []),
            (("attack", "omegas"), [30.5], []),
            (("attack", "omegas"), 5, []),
            (("attack", "ddof"), 1, []),
            (("attack", "drop_fraction"), "x", []),
            (("attack", "value"), "x", []),
            (("attack", "ticker"), 5, []),
            (("strategy", "ma_short"), "5", []),
            (("strategy", "ma_short"), 5.5, []),
            (("strategy", "bb_width"), True, []),
            (("costs", "initial_capital"), "x", []),
            (("split", "window"), "x", []),
            (("predictor", "features"), ["close", 1], []),
            (("predictor", "window"), 0, []),
            (("predictor", "features"), [], []),
            (("predictor", "ridge_lambda"), -1, []),
            (("split",), [1], []),
            (("costs",), None, []),
            (("tickers",), "AAA", []),
            (("data_dir",), 7, []),
            (("attack", "omegas"), [], []),
            (("attack", "omegas"), [1], []),
            (("attack", "drop_fraction"), 0, []),
            (("attack", "drop_fraction"), 1.5, []),
            (("attack", "omegas"), [30], ["--omega", "1"]),
            (("attack", "omegas"), [30, 40, 30], []),
            (("attack", "omegas"), [30], ["--omega", "30", "--omega", "30"]),
            (("attack", "days"), [], []),
        ],
        ids=[
            "omegas-str", "omegas-float", "omegas-scalar", "ddof", "drop-str",
            "value-str", "attack-ticker-int", "ma_short-str", "ma_short-float",
            "bb_width-bool", "capital-str", "window-str", "features-int",
            "predictor-window-0", "features-empty", "ridge-negative",
            "split-list", "costs-null", "tickers-str", "data_dir-int",
            "omegas-empty", "omega-1", "drop-0", "drop-1.5",
            "omega-flag-1", "omegas-repeated", "omega-flag-repeated", "days-empty",
        ],
    )
    def test_bad_config_value_fails_before_compute(
        self, tmp_path, rng, capsys, monkeypatch, path, value, argv
    ):
        from epsim import pipeline

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted despite a bad config value")

        monkeypatch.setattr(pipeline, "fit_baseline", no_fit)
        cfg_path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        raw = json.loads(cfg_path.read_text())
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["attack", "sweep", "--config", str(cfg_path), "--out", str(out), *argv])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [config]: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("strategy", "bb_width"), math.nan),
            (("costs", "risk_free_annual"), math.nan),
            (("costs", "commission_per_share"), math.nan),
            (("costs", "initial_capital"), math.inf),
            (("costs", "slippage_per_share"), -math.inf),
            (("costs", "initial_capital"), 10**400),
            (("costs", "trading_days_per_year"), 10**400),
            (("split", "train_fraction"), math.nan),
            (("predictor", "ridge_lambda"), math.inf),
            (("attack", "drop_fraction"), math.nan),
        ],
        ids=[
            "bb_width-nan", "risk_free-nan", "commission-nan", "capital-inf",
            "slippage-minus-inf", "capital-huge-int", "trading-days-huge-int",
            "train_fraction-nan", "ridge-inf", "drop-nan",
        ],
    )
    def test_non_finite_config_number_fails_before_compute(
        self, tmp_path, rng, capsys, path, value
    ):
        # json reads NaN and Infinity (and 1e400 as inf) into float fields
        cfg_path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        raw = json.loads(cfg_path.read_text())
        raw[path[0]][path[1]] = value
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["backtest", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error [config]: {'.'.join(path)} must be a finite number, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["ingest"], ["fit"], ["backtest"], ["attack", "sweep"], ["attack", "targeted"]],
        ids=" ".join,
    )
    def test_custom_attack_mode_rejected_by_every_command(
        self, tmp_path, rng, capsys, command
    ):
        cfg_path = write_universe(
            tmp_path, rng, n=150,
            attack={"ticker": "AAA", "mode": "custom", "value": 100.0, "days": "all"},
        )
        out = tmp_path / "out"
        code = main([*command, "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [config]: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["ingest"], ["fit"], ["backtest"], ["attack", "sweep"],
         ["attack", "targeted", "--mode", "conceal"], ["report"]],
        ids=lambda c: " ".join(c[:2]),
    )
    def test_out_naming_a_file_fails_before_compute(
        self, tmp_path, rng, capsys, monkeypatch, command
    ):
        forbid_commands(monkeypatch, "an --out that is a file")
        cfg_path = write_universe(
            tmp_path, rng, n=130, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        cells = tmp_path / "cells.csv"
        cells.write_text(CELLS_HEAD + "3,omega=5,0.5,1.0,,1.0,1.0\n")
        out = tmp_path / "out.txt"
        out.write_text("not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        inputs = [str(cells)] if command == ["report"] else ["--config", str(cfg_path)]
        assert main([*command, *inputs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [config]: --out {out} is not a directory\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "command, bad",
        [
            (command, bad)
            for command in (
                ["ingest"], ["fit"], ["backtest"], ["attack", "sweep"],
                ["attack", "targeted", "--mode", "conceal"], ["report"],
            )
            for bad in ("config-twice", "out-twice", "out-empty")
            if not (command == ["report"] and bad == "config-twice")
        ],
        ids=lambda p: p if isinstance(p, str) else " ".join(p[:2]),
    )
    def test_option_given_twice_or_empty_out_fails_before_compute(
        self, tmp_path, rng, capsys, monkeypatch, command, bad
    ):
        # an option that takes one value does not keep its last value, and an
        # empty --out does not fall back to output_dir (or, for report, crash)
        forbid_commands(monkeypatch, "a repeated option or an empty --out")
        cfg_path = write_universe(
            tmp_path, rng, n=130, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        cells = tmp_path / "cells.csv"
        cells.write_text(CELLS_HEAD + "3,omega=5,0.5,1.0,,1.0,1.0\n")
        inputs = [str(cells)] if command == ["report"] else ["--config", str(cfg_path)]
        missing, out, other = (str(tmp_path / name) for name in ("missing.json", "a", "b"))
        if bad == "config-twice":
            argv = [*command, "--config", missing, *inputs, "--out", out]
            want = f"--config given twice ({missing!r}, then {str(cfg_path)!r})"
        elif bad == "out-twice":
            argv = [*command, *inputs, "--out", out, "--out", other]
            want = f"--out given twice ({out!r}, then {other!r})"
        else:
            argv = [*command, *inputs, "--out", ""]
            want = "--out must name a directory, got ''"
        if bad != "out-empty":
            want += "; it takes one value"
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error [config]: {want}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_out_under_a_file_fails_before_compute(self, tmp_path, rng, capsys):
        cfg_path = write_universe(tmp_path, rng, n=130)
        (tmp_path / "out.txt").write_text("")
        out = tmp_path / "out.txt" / "run"
        assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error [config]: --out {out} is not a directory ({tmp_path / 'out.txt'} is not one)\n"
        )

    def test_output_dir_naming_a_file_fails_before_compute(self, tmp_path, rng, capsys):
        cfg_path = write_universe(tmp_path, rng, n=130, output_dir="out.txt")
        (tmp_path / "out.txt").write_text("")
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error [config]: output_dir {tmp_path / 'out.txt'} is not a directory\n"
        )

    @pytest.mark.parametrize("key", ["data_dir", "output_dir"])
    def test_empty_config_directory_fails_before_any_load(
        self, tmp_path, rng, capsys, monkeypatch, key
    ):
        # "" would name the config's own directory: an empty output_dir wrote
        # ingest_report.json beside the config, an empty data_dir read it
        forbid_commands(monkeypatch, f"an empty {key}")
        cfg_path = write_universe(tmp_path, rng, n=130, **{key: ""})
        before = sorted(tmp_path.rglob("*"))
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error [config]: {key} must name a directory, got ''\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_cli_backtest_rejects_non_finite_imported_forecast(self, tmp_path, rng, capsys):
        path = write_universe(tmp_path, rng, n=100, tickers=("AAA",))
        test_days = trading_dates(100)[80:]
        rows = [f"{d.isoformat()},{100 + i}" for i, d in enumerate(test_days)]
        rows[5] = f"{test_days[5].isoformat()},inf"
        (tmp_path / "preds.csv").write_text("Date,Prediction\n" + "\n".join(rows) + "\n")
        raw = json.loads(path.read_text())
        raw["predictor"] = {"kind": "import", "files": {"AAA": "preds.csv"}}
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["backtest", "--config", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [predictor]: ")
        assert "line 7: non-finite prediction 'inf'" in err
        assert not out.exists()

    def test_cli_attack_with_no_outcome_fails(self, tmp_path, rng, capsys):
        # an omega longer than the history up to the last attacked day would
        # give no cell an outcome: the plan rejects it before any fit
        cfg_path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        out = tmp_path / "out"
        code = main(
            ["attack", "sweep", "--config", str(cfg_path), "--out", str(out),
             "--omega", "5", "--omega", "151"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error [config]: attack.omegas: omega=151 needs 151 closes ending on an "
            "attacked day; the last, test day 29, has 150\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "omegas, n_errors",
        [
            ((5, 125), 4),  # omega=125 needs 125 closes: days 0-3 lack them
            ((150,), 29),  # 150 closes end on the last test day only
        ],
        ids=["some-days-short", "last-day-only"],
    )
    def test_cli_attack_with_some_cell_errors_succeeds(
        self, tmp_path, rng, capsys, omegas, n_errors
    ):
        cfg_path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        out = tmp_path / "out"
        flags = [arg for omega in omegas for arg in ("--omega", str(omega))]
        code = main(
            ["attack", "sweep", "--config", str(cfg_path), "--out", str(out), *flags]
        )
        assert code == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_errors"] == n_errors
        assert summary["n_outcomes"] == len(omegas) * 30 - n_errors

    def test_cli_duplicate_tickers_rejected(self, tmp_path, rng, capsys):
        cfg_path = write_universe(tmp_path, rng, n=100, tickers=("AAA", "BBB"))
        raw = json.loads(cfg_path.read_text())
        raw["tickers"] = ["AAA", "AAA", "BBB"]
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["ingest", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error [config]: tickers: each ticker once, ['AAA'] repeated\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind", ["malformed-field", "inconsistent-bar", "duplicate-date"]
    )
    def test_bad_data_row_names_its_file(self, tmp_path, rng, capsys, kind):
        # with many tickers, only the path says which data file is bad
        cfg_path = write_universe(tmp_path, rng, n=100)
        csv_path = tmp_path / "data" / "BBB.csv"
        lines = csv_path.read_text().splitlines()
        day, previous = lines[5].split(",")[0], lines[4].split(",")[0]
        if kind == "malformed-field":
            fields = lines[5].split(",")
            fields[1] = "x" + fields[1]
            lines[5] = ",".join(fields)
            want = f"line 6: bad Open value {fields[1]!r}"
        elif kind == "inconsistent-bar":
            lines[5] = f"{day},10,12,11.5,11,1000"
            want = f"low 11.5 above open/close on {day}"
        else:
            lines[5] = previous + lines[5][len(day):]
            want = f"duplicate date {previous}"
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [market_data]: {csv_path}: {want}\n"
        assert not out.exists()

    def test_ingest_runs_without_numpy(self, tmp_path, rng):
        # numpy is imported only by the commands that compute with it: with
        # the import made to fail, ``python -m epsim.cli ingest`` still works
        cfg_path = write_universe(tmp_path, rng, n=120)
        assert main(["ingest", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        script = (
            "import runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "runpy.run_module('epsim.cli', run_name='__main__')\n"
        )
        proc = _python(script, "ingest", "--config", str(cfg_path), "--out", str(tmp_path / "b"))
        assert proc.returncode == 0, proc.stderr
        report = "ingest_report.json"
        assert (tmp_path / "b" / report).read_bytes() == (tmp_path / "a" / report).read_bytes()

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_fails_alike_in_every_command(self, tmp_path, rng, capsys, case):
        # every command that reads the input fails with ingest's line and
        # writes nothing, and ingest makes the check without numpy
        changes, bad_row, want = BAD_INPUTS[case]
        attack = {"ticker": "AAA", "mode": "stddev", "days": "all", "omegas": [5]}
        cfg_path = write_universe(
            tmp_path, rng, n=100, attack={**attack, **changes.get("attack", {})},
            predictor=changes.get("predictor", {"kind": "baseline", "window": 20}),
            costs=changes.get("costs", {}),
            **{k: v for k, v in changes.items() if k in ("data_dir", "output_dir")},
        )
        commands = [["ingest"], ["fit"], ["backtest"], ["attack", "sweep"]]
        if "omegas" not in changes.get("attack", {}):
            commands.append(["attack", "targeted", "--mode", "conceal"])
        if bad_row is not None:  # AAA's forecasts end with the bad row
            test_days = [d.isoformat() for d in trading_dates(100)[80:]]
            for tk in TICKERS:
                rows = [f"{d},{100 + i}" for i, d in enumerate(test_days)]
                if tk == "AAA":
                    rows[-1] = bad_row.format(*test_days)
                (tmp_path / f"{tk}.preds.csv").write_text(
                    "Date,Prediction\n" + "\n".join(rows) + "\n"
                )
            raw = json.loads(cfg_path.read_text())
            raw["predictor"] = {
                "kind": "import", "files": {tk: f"{tk}.preds.csv" for tk in TICKERS}
            }
            for tk, row in changes.get("files", {}).items():
                (tmp_path / f"{tk}.preds.csv").write_text(f"Date,Prediction\n{row}\n")
                raw["predictor"]["files"][tk] = f"{tk}.preds.csv"
            cfg_path.write_text(json.dumps(raw))
            commands = [["ingest"], ["backtest"]]  # fit and attack need a baseline
            want = want.format(preds=tmp_path / "AAA.preds.csv")
        want = f"{want}\n"
        for i, command in enumerate(commands):
            out = tmp_path / f"out{i}"
            assert main([*command, "--config", str(cfg_path), "--out", str(out)]) == 1
            assert (command, capsys.readouterr().err) == (command, want)
            assert not out.exists()
        script = (
            "import runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "runpy.run_module('epsim.cli', run_name='__main__')\n"
        )
        out = tmp_path / "no_numpy"
        proc = _python(script, "ingest", "--config", str(cfg_path), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (1, want)
        assert not out.exists()

    def test_report_runs_without_numpy(self, tmp_path, rng):
        # report's quantiles are computed without numpy: with the import made
        # to fail, it writes the bytes an in-process report writes
        cfg_path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        run = tmp_path / "run"
        for command in (["backtest"], ["attack", "sweep"]):
            assert main([*command, "--config", str(cfg_path), "--out", str(run)]) == 0
        files = [str(run / f) for f in ("result.json", "sweep_summary.json", "sweep_cells.csv")]
        assert main(["report", *files, "--out", str(tmp_path / "a")]) == 0
        script = (
            "import runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "runpy.run_module('epsim.cli', run_name='__main__')\n"
        )
        proc = _python(script, "report", *files, "--out", str(tmp_path / "b"))
        assert proc.returncode == 0, proc.stderr
        table = "quantiles.csv"
        assert (tmp_path / "b" / table).read_bytes() == (tmp_path / "a" / table).read_bytes()

    def test_import_epsim_leaves_numpy_unloaded(self):
        proc = _python("import sys, epsim, epsim.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_cli_missing_config_file_is_clean_error(self, tmp_path, capsys):
        code = main(["backtest", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [config]")



class TestWhatEachCommandLoads:
    """Each command imports only the code it runs; see the README."""

    @staticmethod
    def loaded(*argv: str) -> set[str]:
        """The modules one command adds to ``sys.modules`` when it runs
        through ``runpy`` in a fresh interpreter. Those loaded before, by the
        interpreter, ``runpy`` or an environment's site hooks, do not count."""
        script = (
            "import runpy, sys\n"
            "before = set(sys.modules)\n"
            "try:\n"
            "    runpy.run_module('epsim.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        proc = _python(script, *argv)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("loads")
        cfg_path = write_universe(
            tmp_path, np.random.default_rng(7), n=150,
            attack={"ticker": "AAA", "mode": "stddev", "days": [3], "omegas": [5]},
        )
        out = tmp_path / "out"
        for command in (["backtest"], ["attack", "sweep"]):
            assert main([*command, "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, out

    @staticmethod
    def argv(run, command: str, out) -> list[str]:
        """``command``'s arguments: report reads the fixture's result files."""
        cfg_path, results = run
        if command == "report":
            files = ("result.json", "sweep_summary.json", "sweep_cells.csv")
            return ["report", *(str(results / f) for f in files), "--out", str(out)]
        return [*command.split(), "--config", str(cfg_path), "--out", str(out)]

    def test_ingest_loads_config_files_and_market_data_only(self, run, tmp_path):
        mods = self.loaded(*self.argv(run, "ingest", tmp_path))
        assert "epsim.files" in mods
        assert {m for m in mods if m.split(".")[0] in ("epsim", "numpy")} <= {
            "epsim", "epsim.cli", "epsim.config", "epsim.errors", "epsim.market_data",
            "epsim.files",
        }

    def test_report_loads_no_numpy_and_no_engine(self, run, tmp_path):
        mods = self.loaded(*self.argv(run, "report", tmp_path))
        assert "epsim.files" in mods
        assert "numpy" not in mods
        engine = {"predictor", "strategy", "trade_engine", "attack", "pipeline"}
        assert not mods & {f"epsim.{m}" for m in engine}

    @pytest.mark.parametrize("command", ["fit", "backtest"])
    def test_fit_and_backtest_do_not_load_attack(self, run, tmp_path, command):
        mods = self.loaded(*self.argv(run, command, tmp_path))
        assert {"epsim.pipeline", "numpy"} <= mods
        assert "epsim.attack" not in mods

    @pytest.mark.parametrize(
        "command",
        ["ingest", "fit", "backtest", "attack sweep", "attack targeted --mode conceal", "report"],
    )
    def test_no_command_loads_dataclasses(self, run, tmp_path, command):
        # epsim's records generate no code at import; ingest and report,
        # which load no numpy, load none of inspect's imports either
        mods = self.loaded(*self.argv(run, command, tmp_path))
        assert "dataclasses" not in mods
        if command in ("ingest", "report"):
            assert "inspect" not in mods

    def test_engine_loads_no_file_format_module(self):
        # the engine computes results; files writes them
        proc = _python("import sys, epsim.attack; print('epsim.files' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_import_epsim_loads_no_submodule(self):
        proc = _python("import sys, epsim; print(sorted(m for m in sys.modules if 'epsim' in m))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['epsim']\n"


class TestProcessLifecycle:
    """``python -m epsim.cli`` and the ``epsim`` script run ``cli.entry``:
    the collector off, survivors frozen at exit. ``main`` itself leaves the
    collector alone; see the README."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("lifecycle")
        cfg_path = write_universe(
            tmp_path, np.random.default_rng(7), n=150,
            attack={"ticker": "AAA", "mode": "stddev", "days": "all", "omegas": [5, 10]},
        )
        return tmp_path, cfg_path

    def test_main_leaves_the_collector_as_it_was(self, world, tmp_path):
        _, cfg_path = world
        out = str(tmp_path / "out")
        config = ["--config", str(cfg_path), "--out", out]
        commands = [
            ["ingest", *config], ["fit", *config], ["backtest", *config],
            ["attack", "sweep", *config], ["attack", "targeted", "--mode", "conceal", *config],
            ["report", f"{out}/result.json", f"{out}/sweep_cells.csv", "--out", out],
        ]
        for argv in commands:
            before = gc.isenabled(), gc.get_freeze_count()
            assert main(argv) == 0, argv
            assert (gc.isenabled(), gc.get_freeze_count()) == before, argv

    @pytest.mark.parametrize("command", [["ingest"], ["attack", "sweep"]], ids=" ".join)
    def test_python_m_runs_without_the_collector_and_freezes_at_exit(
        self, world, tmp_path, command
    ):
        _, cfg_path = world
        script = (
            "import atexit, gc, runpy\n"
            "atexit.register(lambda: print('at exit:', gc.isenabled(), gc.get_freeze_count() > 0))\n"
            "runpy.run_module('epsim.cli', run_name='__main__')\n"
        )
        proc = _python(script, *command, "--config", str(cfg_path), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "at exit: False True"

    def test_script_and_python_m_call_one_entry(self):
        import epsim.cli

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        script = tomllib.loads(pyproject.read_text())["project"]["scripts"]["epsim"]
        tree = ast.parse(Path(epsim.cli.__file__).read_text())
        (guard,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        module, function = script.split(":")
        assert module == "epsim.cli"
        assert [ast.unparse(stmt) for stmt in guard.body] == [f"{function}()"]

    def test_cyclic_garbage_does_not_grow_with_cells(self, world):
        # the premise of running without the collector: what one command
        # leaves for it is the same for 1 day's cells as for every day's
        tmp_path, cfg_path = world
        script = (
            "import gc, sys\n"
            "gc.disable()\n"
            "from epsim.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(gc.collect())\n"
        )
        raw = json.loads(cfg_path.read_text())
        garbage = {}
        for days in ([3], "all"):
            raw["attack"]["days"] = days
            one = tmp_path / f"config-{len(garbage)}.json"
            one.write_text(json.dumps(raw))
            out = tmp_path / f"out-{len(garbage)}"
            proc = _python(script, "attack", "sweep", "--config", str(one), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            cells = len(read_schema_csv(out / "sweep_cells.csv", "epsim/attack-cells/v1"))
            garbage[cells] = int(proc.stdout.splitlines()[-1])
        assert sorted(garbage)[0] == 2 and sorted(garbage)[1] >= 50
        assert max(garbage.values()) - min(garbage.values()) <= 20, garbage


class TestLazyInit:
    def test_every_exported_name_is_its_modules_object(self):
        import importlib

        for name in epsim.__all__:
            module = importlib.import_module(f"epsim.{epsim._MODULE_OF[name]}")
            assert getattr(epsim, name) is getattr(module, name), name

    def test_dir_lists_every_exported_name(self):
        # in a fresh interpreter, before any name is looked up and cached
        proc = _python("import epsim; print(sorted(set(epsim.__all__) - set(dir(epsim))))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            epsim.no_such_name  # noqa: B018
        assert not hasattr(epsim, "no_such_name")

    def test_config_sections_keep_their_old_homes(self):
        # attack builds the modes, and demo 02 imports StdDevMode from it
        from epsim import attack, config

        for mode in ("StdDevMode", "ConcealMode", "OverestimateMode"):
            assert getattr(attack, mode) is getattr(config, mode)


class TestErrorTags:
    def test_one_error_class_per_cli_tag(self):
        # the CLI prints ``error [<module>]``: each tag is exactly one class,
        # and every class lives in epsim.errors
        import importlib
        import inspect
        import pkgutil

        from epsim.errors import EpsimError

        for info in pkgutil.iter_modules(epsim.__path__):
            module = importlib.import_module(f"epsim.{info.name}")
            defined = [
                name for name, value in vars(module).items()
                if inspect.isclass(value) and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ]
            assert info.name == "errors" or not defined, (info.name, defined)
        classes, todo = [], [EpsimError]
        while todo:
            for cls in todo.pop().__subclasses__():
                classes.append(cls)
                todo.append(cls)
        assert all(cls.__module__ == "epsim.errors" for cls in classes), classes
        assert sorted(cls.module for cls in classes) == sorted(
            ["market_data", "config", "predictor", "trade_engine", "attack", "report"]
        )
