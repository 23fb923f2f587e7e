import json
import math
from pathlib import Path

import pytest

from epsim.attack import (
    AttackOutcome,
    AttackResult,
    CellError,
    ConcealMode,
    EpSpec,
    StdDevMode,
)
from epsim.cli import main
from epsim.errors import ConfigurationError, ReportError
from epsim.market_data import save_csv
from epsim.pipeline import (
    AttackConfig,
    RunConfig,
    cmd_attack,
    cmd_backtest,
    cmd_fit,
    cmd_ingest,
    cmd_report,
    quantile_table,
    read_schema_csv,
    write_sweep_files,
)
from epsim.trade_engine import SimulationResult

from conftest import random_series, trading_dates
from oracles import quantile_oracle

pytestmark = pytest.mark.filterwarnings(
    "ignore::epsim.errors.ZeroVolatilityWarning"
)

TICKERS = ("AAA", "BBB", "CCC")


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
        result = cmd_backtest(cfg, tmp_path / "out")
        assert len(result.daily_returns) == 20

    def test_attack_sweep_files(self, tmp_path, rng):
        path = write_universe(
            tmp_path,
            rng,
            n=150,
            attack={"ticker": "AAA", "mode": "stddev", "omegas": [5, 10], "days": "all"},
        )
        cfg = RunConfig.from_file(path)
        paths = cmd_attack(cfg, tmp_path / "out", "sweep")
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
        paths = cmd_attack(cfg, tmp_path / "out", "targeted")
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
            paths = cmd_attack(RunConfig.from_file(path), out, "targeted")
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
        paths = cmd_attack(cfg, tmp_path / "out", "targeted")
        rows = read_schema_csv(paths["cells"], "epsim/attack-cells/v1")
        assert [int(r["day"]) for r in rows] == [7]

    def test_attack_requires_baseline_predictor(self, tmp_path, rng):
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
        with pytest.raises(ConfigurationError, match="baseline"):
            cmd_attack(cfg, tmp_path / "out", "sweep")

    def test_sweep_days_compute_only_those_cells(self, tmp_path, rng, monkeypatch):
        from epsim import attack

        attack_block = {"ticker": "AAA", "mode": "stddev", "omegas": [5, 10]}
        path = write_universe(
            tmp_path, rng, n=150, attack={**attack_block, "days": "all"}
        )
        full = read_schema_csv(
            cmd_attack(RunConfig.from_file(path), tmp_path / "all", "sweep")["cells"],
            "epsim/attack-cells/v1",
        )
        raw = json.loads(path.read_text())
        raw["attack"]["days"] = [7, 3]
        path.write_text(json.dumps(raw))
        computed = []
        original = attack.perturbed_prediction_entry

        def counting(predictor, series, test_start, ep, scaled=None):
            computed.append((ep.day, ep.mode.omega))
            return original(predictor, series, test_start, ep, scaled)

        monkeypatch.setattr(attack, "perturbed_prediction_entry", counting)
        cells = cmd_attack(RunConfig.from_file(path), tmp_path / "some", "sweep")
        rows = read_schema_csv(cells["cells"], "epsim/attack-cells/v1")
        assert computed == [(3, 5), (3, 10), (7, 5), (7, 10)]
        assert rows == [r for r in full if int(r["day"]) in (3, 7)]

    def test_sweep_mismatched_mode_rejected(self, tmp_path, rng):
        path = write_universe(
            tmp_path, rng, n=100,
            attack={"ticker": "AAA", "mode": "conceal", "days": "all"},
        )
        cfg = RunConfig.from_file(path)
        with pytest.raises(ConfigurationError):
            cmd_attack(cfg, tmp_path / "out", "sweep")


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


class TestReport:
    def make_cells(self, path, rows):
        lines = ["# schema: epsim/attack-cells/v1"]
        lines.append(
            "day,omega_or_mode,delta_sharpe,cr_ratio,first_divergence_day,"
            "rmse_clean,rmse_attacked"
        )
        for i, (label, ds, cr) in enumerate(rows):
            lines.append(f"{i},{label},{ds},{cr},,1.0,1.0")
        path.write_text("\n".join(lines) + "\n")

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

    def test_cli_error_reports_module_and_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"data_dir": "nope", "tickers": ["X"]}))
        code = main(["backtest", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [config]")

    @pytest.mark.parametrize(
        "attack, argv",
        [
            ({"ticker": "ZZZ", "mode": "stddev", "days": "all"}, []),
            ({"ticker": "AAA", "mode": "stddev", "days": "all"}, ["--ticker", "ZZZ"]),
            ({"ticker": "AAA", "mode": "stddev", "days": [3, True]}, []),
            ({"ticker": "AAA", "mode": "stddev", "days": [3, 30]}, []),
            ({"ticker": "AAA", "mode": "conceal", "days": [-1]}, ["--mode", "conceal"]),
        ],
        ids=["ticker", "ticker-flag", "bool-day", "day-past-window", "negative-day"],
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
            (("attack", "ddof"), "x", []),
            (("attack", "drop_fraction"), "x", []),
            (("attack", "value"), "x", []),
            (("attack", "ticker"), 5, []),
            (("strategy", "ma_short"), "5", []),
            (("strategy", "ma_short"), 5.5, []),
            (("strategy", "roc_use_predictions"), "no", []),
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
            (("attack", "ddof"), 2, []),
            (("attack", "ddof"), True, []),
            (("attack", "drop_fraction"), 0, []),
            (("attack", "drop_fraction"), 1.5, []),
            (("attack", "omegas"), [30], ["--omega", "1"]),
        ],
        ids=[
            "omegas-str", "omegas-float", "omegas-scalar", "ddof-str", "drop-str",
            "value-str", "attack-ticker-int", "ma_short-str", "ma_short-float",
            "roc-flag-str", "capital-str", "window-str", "features-int",
            "predictor-window-0", "features-empty", "ridge-negative",
            "split-list", "costs-null", "tickers-str", "data_dir-int",
            "omegas-empty", "omega-1", "ddof-2", "ddof-bool", "drop-0", "drop-1.5",
            "omega-flag-1",
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
        cfg_path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        out = tmp_path / "out"
        code = main(
            ["attack", "sweep", "--config", str(cfg_path), "--out", str(out),
             "--omega", "100000"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [attack]: no attack cell produced an outcome (30 cell errors")
        assert not (out / "sweep_cells.csv").exists()
        assert not (out / "sweep_summary.json").exists()

    def test_cli_attack_with_some_cell_errors_succeeds(self, tmp_path, rng, capsys):
        cfg_path = write_universe(
            tmp_path, rng, n=150, attack={"ticker": "AAA", "mode": "stddev", "days": "all"}
        )
        out = tmp_path / "out"
        code = main(
            ["attack", "sweep", "--config", str(cfg_path), "--out", str(out),
             "--omega", "5", "--omega", "125"]
        )
        assert code == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_errors"] == 4  # omega=125 needs 125 closes: days 0-3 lack them
        assert summary["n_outcomes"] == 2 * 30 - 4

    def test_cli_missing_config_file_is_clean_error(self, tmp_path, capsys):
        code = main(["backtest", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [config]")
