"""Run configuration, pipeline orchestration, and result file emission.

Configuration is strict JSON: unknown keys are rejected loudly, because the
attack experiments are parameter-sensitive and a typo silently falling back
to a default would corrupt baseline/attacked comparisons.

Every output file declares a schema version (a ``schema`` field in JSON, a
leading ``# schema: ...`` comment line in CSV); the report command refuses
files whose version it does not recognize. No output embeds timestamps, so
repeated runs of the same configuration are byte-identical.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import os
from dataclasses import dataclass

import numpy as np

from . import attack as attack_mod
from .errors import ConfigurationError, ReportError
from .market_data import Dataset, SplitSpec, align_calendar, load_csv, split
from .predictor import (
    FitReport,
    PredictorConfig,
    fit_baseline,
    fit_report,
    import_predictions,
    predict_test_series,
)
from .strategy import StrategyConfig
from .trade_engine import RESULT_SCHEMA, CostModel, SimulationResult, run_simulation

INGEST_SCHEMA = "epsim/ingest/v1"
FIT_SCHEMA = "epsim/fit/v1"
LEDGER_SCHEMA = "epsim/ledger/v1"
METRICS_SCHEMA = "epsim/metrics/v1"
CELLS_SCHEMA = "epsim/attack-cells/v1"
ATTACK_SUMMARY_SCHEMA = "epsim/attack-summary/v1"
QUANTILES_SCHEMA = "epsim/quantiles/v1"

CELL_COLUMNS = (
    "day",
    "omega_or_mode",
    "delta_sharpe",
    "cr_ratio",
    "first_divergence_day",
    "rmse_clean",
    "rmse_attacked",
)


def _reject_unknown(section: str, given: dict, known) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigurationError(f"{section}: unrecognized keys {unknown}")


@dataclass(frozen=True)
class AttackConfig:
    ticker: str
    mode: str  # stddev | conceal | overestimate | custom
    days: str | list  # "all" or a list of day indices / ISO dates
    omegas: tuple[int, ...] = (30, 40, 50)
    ddof: int = 1
    drop_fraction: float = 0.10
    value: float | None = None

    _KEYS = ("ticker", "mode", "days", "omegas", "ddof", "drop_fraction", "value")

    @classmethod
    def from_dict(cls, d: dict) -> "AttackConfig":
        _reject_unknown("attack", d, cls._KEYS)
        mode = d.get("mode")
        if mode not in ("stddev", "conceal", "overestimate", "custom"):
            raise ConfigurationError(f"attack.mode: unknown mode {mode!r}")
        if "ticker" not in d:
            raise ConfigurationError("attack.ticker is required")
        days = d.get("days", "all")
        if days != "all" and not isinstance(days, list):
            raise ConfigurationError('attack.days must be "all" or a list')
        for entry in days if days != "all" else ():
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ConfigurationError(
                    f"attack.days: {entry!r} is neither a day index nor an ISO date"
                )
        if mode == "custom" and d.get("value") is None:
            raise ConfigurationError("attack.value is required for custom mode")
        return cls(
            ticker=d["ticker"],
            mode=mode,
            days=days,
            omegas=tuple(d.get("omegas", (30, 40, 50))),
            ddof=int(d.get("ddof", 1)),
            drop_fraction=float(d.get("drop_fraction", 0.10)),
            value=d.get("value"),
        )

    def to_dict(self) -> dict:
        out = {
            "ticker": self.ticker,
            "mode": self.mode,
            "days": self.days,
            "omegas": list(self.omegas),
            "ddof": self.ddof,
            "drop_fraction": self.drop_fraction,
        }
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass(frozen=True)
class RunConfig:
    data_dir: str
    tickers: tuple[str, ...]
    split: SplitSpec
    predictor_kind: str  # baseline | import
    predictor: PredictorConfig
    import_files: dict[str, str]
    strategy: StrategyConfig
    costs: CostModel
    attack: AttackConfig | None
    output_dir: str
    base_dir: str = "."

    _KEYS = (
        "data_dir",
        "tickers",
        "split",
        "predictor",
        "strategy",
        "costs",
        "attack",
        "output_dir",
    )

    def __post_init__(self):
        if self.attack is not None and self.attack.ticker not in self.tickers:
            raise ConfigurationError(
                f"attack.ticker {self.attack.ticker!r} is not one of the "
                f"tickers {list(self.tickers)}"
            )

    @classmethod
    def from_dict(cls, d: dict, base_dir: str = ".") -> "RunConfig":
        _reject_unknown("config", d, cls._KEYS)
        if not d.get("tickers"):
            raise ConfigurationError("tickers must be a nonempty list")
        if "data_dir" not in d:
            raise ConfigurationError("data_dir is required")

        split_d = dict(d.get("split", {}))
        _reject_unknown("split", split_d, ("train_fraction", "window"))
        split_spec = SplitSpec(
            train_fraction=float(split_d.get("train_fraction", 0.8)),
            window=int(split_d.get("window", 50)),
        )

        pred_d = dict(d.get("predictor", {}))
        kind = pred_d.pop("kind", "baseline")
        import_files: dict[str, str] = {}
        if kind == "baseline":
            _reject_unknown(
                "predictor", pred_d, ("window", "features", "ridge_lambda")
            )
            predictor = PredictorConfig(
                window=int(pred_d.get("window", split_spec.window)),
                features=tuple(
                    pred_d.get("features", ("open", "high", "low", "close", "volume"))
                ),
                ridge_lambda=float(pred_d.get("ridge_lambda", 1e-3)),
            )
        elif kind == "import":
            _reject_unknown("predictor", pred_d, ("files",))
            import_files = dict(pred_d.get("files", {}))
            missing = [tk for tk in d["tickers"] if tk not in import_files]
            if missing:
                raise ConfigurationError(
                    f"predictor.files: no prediction file for {missing}"
                )
            predictor = PredictorConfig(window=split_spec.window)
        else:
            raise ConfigurationError(
                f"predictor.kind must be baseline or import, got {kind!r}"
            )

        strat_d = dict(d.get("strategy", {}))
        _reject_unknown(
            "strategy",
            strat_d,
            (
                "kind",
                "ma_short",
                "ma_long",
                "roc_lookback",
                "roc_buy_threshold",
                "roc_sell_threshold",
                "bb_period",
                "bb_width",
                "roc_use_predictions",
            ),
        )
        strategy = StrategyConfig(**strat_d)

        costs_d = dict(d.get("costs", {}))
        _reject_unknown(
            "costs",
            costs_d,
            (
                "commission_per_share",
                "slippage_per_share",
                "position_fraction",
                "initial_capital",
                "risk_free_annual",
                "trading_days_per_year",
                "slippage_mode",
            ),
        )
        costs = CostModel(**costs_d)

        attack_cfg = None
        if d.get("attack") is not None:
            attack_cfg = AttackConfig.from_dict(dict(d["attack"]))

        cfg = cls(
            data_dir=d["data_dir"],
            tickers=tuple(d["tickers"]),
            split=split_spec,
            predictor_kind=kind,
            predictor=predictor,
            import_files=import_files,
            strategy=strategy,
            costs=costs,
            attack=attack_cfg,
            output_dir=d.get("output_dir", "out"),
            base_dir=base_dir,
        )
        cfg.validate_paths()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    def csv_path(self, ticker: str) -> str:
        return os.path.join(self.resolve(self.data_dir), f"{ticker}.csv")

    def validate_paths(self) -> None:
        for tk in self.tickers:
            if not os.path.isfile(self.csv_path(tk)):
                raise ConfigurationError(f"no data file for {tk}: {self.csv_path(tk)}")
        for tk, path in self.import_files.items():
            if not os.path.isfile(self.resolve(path)):
                raise ConfigurationError(
                    f"prediction file for {tk} not found: {self.resolve(path)}"
                )

    def to_dict(self) -> dict:
        predictor: dict = {"kind": self.predictor_kind}
        if self.predictor_kind == "baseline":
            predictor.update(
                window=self.predictor.window,
                features=list(self.predictor.features),
                ridge_lambda=self.predictor.ridge_lambda,
            )
        else:
            predictor["files"] = dict(self.import_files)
        out = {
            "data_dir": self.data_dir,
            "tickers": list(self.tickers),
            "split": {
                "train_fraction": self.split.train_fraction,
                "window": self.split.window,
            },
            "predictor": predictor,
            "strategy": {
                "kind": self.strategy.kind,
                "ma_short": self.strategy.ma_short,
                "ma_long": self.strategy.ma_long,
                "roc_lookback": self.strategy.roc_lookback,
                "roc_buy_threshold": self.strategy.roc_buy_threshold,
                "roc_sell_threshold": self.strategy.roc_sell_threshold,
                "bb_period": self.strategy.bb_period,
                "bb_width": self.strategy.bb_width,
                "roc_use_predictions": self.strategy.roc_use_predictions,
            },
            "costs": {
                "commission_per_share": self.costs.commission_per_share,
                "slippage_per_share": self.costs.slippage_per_share,
                "position_fraction": self.costs.position_fraction,
                "initial_capital": self.costs.initial_capital,
                "risk_free_annual": self.costs.risk_free_annual,
                "trading_days_per_year": self.costs.trading_days_per_year,
                "slippage_mode": self.costs.slippage_mode,
            },
            "output_dir": self.output_dir,
        }
        if self.attack is not None:
            out["attack"] = self.attack.to_dict()
        return out


# ---------------------------------------------------------------------------
# pipeline assembly


def load_dataset(config: RunConfig) -> tuple[Dataset, int]:
    """Ingest, align, and locate the train/test cut (returns test start)."""
    series = [load_csv(config.csv_path(tk), tk) for tk in config.tickers]
    dataset = align_calendar(series)
    train, _ = split(dataset, config.split)
    return dataset, train.n_days()


def build_predictions(config: RunConfig, dataset: Dataset, test_start: int):
    """Per-ticker prediction series for the test window, plus predictors.

    Returns (predictions, predictors); predictors is None in import mode.
    """
    test_calendar = dataset.calendar[test_start:]
    if config.predictor_kind == "import":
        predictions = {
            tk: import_predictions(
                config.resolve(config.import_files[tk]), test_calendar, tk
            )
            for tk in sorted(config.tickers)
        }
        return predictions, None
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)
    predictions = {
        tk: predict_test_series(predictors[tk], dataset.series[tk], test_start)
        for tk in sorted(config.tickers)
    }
    return predictions, predictors


# ---------------------------------------------------------------------------
# file writers


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, schema: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_schema_csv(path, expected_schema: str) -> list[dict]:
    """Read a schema-tagged CSV; refuses missing or mismatched versions."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# schema: "):
            raise ReportError(f"{path}: missing schema line")
        found = first[len("# schema: ") :]
        if found != expected_schema:
            raise ReportError(
                f"{path}: schema mismatch: expected {expected_schema}, found {found}"
            )
        rows = list(csv.DictReader(fh))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # coerce so numpy scalars do not leak reprs
    return str(value)


def write_result_files(
    result: SimulationResult, cost_model: CostModel, out_dir
) -> dict[str, str]:
    """result.json + ledger.csv + metrics.csv for one simulation."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "result": os.path.join(out_dir, "result.json"),
        "ledger": os.path.join(out_dir, "ledger.csv"),
        "metrics": os.path.join(out_dir, "metrics.csv"),
    }
    _write_json(paths["result"], result.to_dict())
    _write_csv(
        paths["ledger"],
        LEDGER_SCHEMA,
        ("day", "ticker", "side", "shares", "price", "commission", "slippage"),
        [
            (
                t.day,
                t.ticker,
                t.side.value,
                t.shares,
                _fmt(t.execution_price),
                _fmt(t.commission_paid),
                _fmt(t.slippage_paid),
            )
            for t in result.trade_ledger
        ],
    )
    initial = cost_model.initial_capital
    _write_csv(
        paths["metrics"],
        METRICS_SCHEMA,
        ("day", "portfolio_value", "daily_return", "cumulative_return"),
        [
            (
                t,
                _fmt(initial * (1.0 + result.cumulative_returns[t])),
                _fmt(result.daily_returns[t]),
                _fmt(result.cumulative_returns[t]),
            )
            for t in range(len(result.daily_returns))
        ],
    )
    return paths


def _outcome_row(outcome, label: str):
    return (
        outcome.ep.day,
        label,
        _fmt(outcome.delta_sharpe),
        _fmt(outcome.cr_ratio),
        _fmt(outcome.first_divergence_day),
        _fmt(outcome.rmse_clean),
        _fmt(outcome.rmse_attacked),
    )


def _degradation_fractions(outcomes) -> tuple[float, float]:
    if not outcomes:
        return 0.0, 0.0
    sr = sum(1 for o in outcomes if o.sharpe_attacked < o.sharpe_baseline)
    cr = sum(1 for o in outcomes if o.cr_attacked < o.cr_baseline)
    return sr / len(outcomes), cr / len(outcomes)


def write_sweep_files(result: attack_mod.SweepResult, out_dir) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cells": os.path.join(out_dir, "sweep_cells.csv"),
        "summary": os.path.join(out_dir, "sweep_summary.json"),
    }
    rows = [
        _outcome_row(o, f"omega={o.ep.mode.omega}")
        for o in result.outcomes
    ]
    _write_csv(paths["cells"], CELLS_SCHEMA, CELL_COLUMNS, rows)
    frac_sr, frac_cr = _degradation_fractions(result.outcomes)
    _write_json(
        paths["summary"],
        {
            "schema": ATTACK_SUMMARY_SCHEMA,
            "mode": "sweep",
            "n_outcomes": len(result.outcomes),
            "n_errors": len(result.errors),
            "errors": [
                {"day": e.day, "label": e.label, "message": e.message}
                for e in result.errors
            ],
            "baseline": {
                "sharpe_ratio": result.baseline.sharpe_ratio,
                "cumulative_return": result.baseline.final_cumulative_return(),
                "final_value": result.baseline.final_value,
            },
            "fraction_sharpe_degraded": frac_sr,
            "fraction_cr_degraded": frac_cr,
        },
    )
    return paths


def write_targeted_files(
    result: attack_mod.TargetedResult, scenario: str, out_dir
) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cells": os.path.join(out_dir, "targeted_cells.csv"),
        "summary": os.path.join(out_dir, "targeted_summary.json"),
    }
    _write_csv(
        paths["cells"],
        CELLS_SCHEMA,
        CELL_COLUMNS + ("cr_change_pct",),
        [
            _outcome_row(o, scenario) + (_fmt(o.cr_change_pct),)
            for o in result.outcomes
        ],
    )
    frac_sr, frac_cr = _degradation_fractions(result.outcomes)
    _write_json(
        paths["summary"],
        {
            "schema": ATTACK_SUMMARY_SCHEMA,
            "mode": scenario,
            "n_outcomes": len(result.outcomes),
            "n_errors": len(result.errors),
            "errors": [
                {"day": e.day, "label": e.label, "message": e.message}
                for e in result.errors
            ],
            "baseline": {
                "sharpe_ratio": result.baseline.sharpe_ratio,
                "cumulative_return": result.baseline.final_cumulative_return(),
                "final_value": result.baseline.final_value,
            },
            "fraction_sharpe_degraded": frac_sr,
            "fraction_cr_degraded": frac_cr,
            "per_day": [
                {"day": o.ep.day, "cr_change_pct": o.cr_change_pct}
                for o in result.outcomes
            ],
        },
    )
    return paths


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(config: RunConfig, out_dir) -> dict:
    dataset, test_start = load_dataset(config)
    report = {
        "schema": INGEST_SCHEMA,
        "tickers": list(config.tickers),
        "calendar": {
            "start": dataset.calendar[0].isoformat(),
            "end": dataset.calendar[-1].isoformat(),
            "n_days": dataset.n_days(),
        },
        "n_train": test_start,
        "n_test": dataset.n_days() - test_start,
        "window": config.split.window,
    }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "ingest_report.json"), report)
    return report


def cmd_fit(config: RunConfig, out_dir) -> list[FitReport]:
    if config.predictor_kind != "baseline":
        raise ConfigurationError("fit requires predictor.kind = baseline")
    dataset, test_start = load_dataset(config)
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)
    reports = [
        fit_report(predictors[tk], dataset.series[tk], test_start)
        for tk in sorted(predictors)
    ]
    os.makedirs(out_dir, exist_ok=True)
    _write_json(
        os.path.join(out_dir, "fit_reports.json"),
        {
            "schema": FIT_SCHEMA,
            "window": config.predictor.window,
            "features": list(config.predictor.features),
            "ridge_lambda": config.predictor.ridge_lambda,
            "reports": [
                {
                    "ticker": r.ticker,
                    "rmse_test": r.rmse_test,
                    "n_train": r.n_train,
                    "n_test": r.n_test,
                }
                for r in reports
            ],
        },
    )
    return reports


def cmd_backtest(config: RunConfig, out_dir) -> SimulationResult:
    dataset, test_start = load_dataset(config)
    predictions, _ = build_predictions(config, dataset, test_start)
    test = dataset.slice(test_start)
    result = run_simulation(test, predictions, config.strategy, config.costs)
    write_result_files(result, config.costs, out_dir)
    return result


def _attack_days(attack: AttackConfig, dataset: Dataset, test_start: int) -> list[int]:
    n = dataset.n_days() - test_start
    if attack.days == "all":
        return list(range(n))
    test_calendar = dataset.calendar[test_start:]
    cal_index = {d: i for i, d in enumerate(test_calendar)}
    days: list[int] = []
    for entry in attack.days:
        if isinstance(entry, int):
            if not 0 <= entry < n:
                raise ConfigurationError(
                    f"attack.days: day {entry} outside the {n}-day test window"
                )
            days.append(entry)
        else:
            try:
                date = dt.date.fromisoformat(str(entry))
            except ValueError as exc:
                raise ConfigurationError(
                    f"attack.days: {entry!r} is neither an index nor an ISO date"
                ) from exc
            if date not in cal_index:
                raise ConfigurationError(
                    f"attack.days: {date.isoformat()} not in the test calendar"
                )
            days.append(cal_index[date])
    return days


def cmd_attack(config: RunConfig, out_dir, submode: str) -> dict:
    if config.attack is None:
        raise ConfigurationError("config has no attack block")
    if config.predictor_kind != "baseline":
        raise ConfigurationError(
            "attack requires predictor.kind = baseline (a fitted model is "
            "needed to recompute the perturbed forecast)"
        )
    atk = config.attack
    if submode not in ("sweep", "targeted"):
        raise ConfigurationError(
            f"attack submode must be sweep or targeted, got {submode!r}"
        )
    if submode == "sweep" and atk.mode != "stddev":
        raise ConfigurationError("sweep requires attack.mode = stddev")
    if submode == "targeted" and atk.mode not in ("conceal", "overestimate"):
        raise ConfigurationError(
            "targeted requires attack.mode = conceal or overestimate"
        )
    dataset, test_start = load_dataset(config)
    days = _attack_days(atk, dataset, test_start)
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)

    if submode == "sweep":
        result = attack_mod.sweep_indiscriminate(
            dataset,
            test_start,
            predictors,
            config.strategy,
            config.costs,
            ticker=atk.ticker,
            omegas=atk.omegas,
            ddof=atk.ddof,
            days=sorted(set(days)),
        )
        return write_sweep_files(result, out_dir)

    result = attack_mod.run_targeted(
        dataset,
        test_start,
        predictors,
        config.strategy,
        config.costs,
        ticker=atk.ticker,
        days=days,
        scenario=atk.mode,
        drop_fraction=atk.drop_fraction,
    )
    return write_targeted_files(result, atk.mode, out_dir)


# ---------------------------------------------------------------------------
# reporting


def quantile_table(rows: list[dict]) -> list[dict]:
    """min/q1/median/q3/max/mean of delta_sharpe and cr_ratio per group."""
    if not rows:
        raise ReportError("no outcome rows to summarize")
    groups: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        g = groups.setdefault(row["omega_or_mode"], {"delta_sharpe": [], "cr_ratio": []})
        for metric in ("delta_sharpe", "cr_ratio"):
            g[metric].append(float(row[metric]))
    table = []
    for label in sorted(groups):
        for metric in ("delta_sharpe", "cr_ratio"):
            values = np.asarray(groups[label][metric], dtype=np.float64)
            q1, q2, q3 = (float(v) for v in np.quantile(values, (0.25, 0.5, 0.75)))
            table.append(
                {
                    "group": label,
                    "metric": metric,
                    "min": float(values.min()),
                    "q1": q1,
                    "median": q2,
                    "q3": q3,
                    "max": float(values.max()),
                    "mean": float(values.mean()),
                }
            )
    return table


def _check_json_schema(path, payload: dict, expected: str) -> None:
    if "schema" not in payload:
        raise ReportError(f"{path}: missing field 'schema'")
    if payload["schema"] != expected:
        raise ReportError(
            f"{path}: schema mismatch in field 'schema': expected {expected}, "
            f"found {payload['schema']}"
        )


def cmd_report(paths, out_dir) -> list[str]:
    """Summarize result/attack files; returns the printed lines."""
    lines: list[str] = []
    cell_rows: list[dict] = []
    for path in paths:
        if not os.path.isfile(path):
            raise ReportError(f"{path}: no such file")
        name = os.path.basename(path)
        if path.endswith(".json"):
            with open(path) as fh:
                payload = json.load(fh)
            schema = payload.get("schema")
            if schema == RESULT_SCHEMA:
                lines.append(
                    f"{name}: sharpe={payload['sharpe_ratio']:.4f} "
                    f"final_cr={payload['cumulative_returns'][-1]:.4%} "
                    f"final_value={payload['final_value']:.2f} "
                    f"trades={len(payload['trades'])}"
                )
            elif schema == ATTACK_SUMMARY_SCHEMA:
                base = payload["baseline"]
                lines.append(
                    f"{name}: mode={payload['mode']} cells={payload['n_outcomes']} "
                    f"baseline_sharpe={base['sharpe_ratio']:.4f} "
                    f"baseline_cr={base['cumulative_return']:.4%} "
                    f"sr_degraded={payload['fraction_sharpe_degraded']:.1%} "
                    f"cr_degraded={payload['fraction_cr_degraded']:.1%}"
                )
            else:
                _check_json_schema(path, payload, RESULT_SCHEMA)
        elif path.endswith(".csv"):
            rows = read_schema_csv(path, CELLS_SCHEMA)
            if not rows:
                raise ReportError(f"{path}: no outcome rows")
            cell_rows.extend(rows)
        else:
            raise ReportError(f"{path}: unrecognized result file type")

    if cell_rows:
        table = quantile_table(cell_rows)
        os.makedirs(out_dir, exist_ok=True)
        out_path = os.path.join(out_dir, "quantiles.csv")
        _write_csv(
            out_path,
            QUANTILES_SCHEMA,
            ("group", "metric", "min", "q1", "median", "q3", "max", "mean"),
            [
                (
                    r["group"],
                    r["metric"],
                    _fmt(r["min"]),
                    _fmt(r["q1"]),
                    _fmt(r["median"]),
                    _fmt(r["q3"]),
                    _fmt(r["max"]),
                    _fmt(r["mean"]),
                )
                for r in table
            ],
        )
        for r in table:
            lines.append(
                f"{r['group']} {r['metric']}: min={r['min']:.6g} q1={r['q1']:.6g} "
                f"median={r['median']:.6g} q3={r['q3']:.6g} max={r['max']:.6g} "
                f"mean={r['mean']:.6g}"
            )
        lines.append(f"quantile table written to {out_path}")
    return lines
