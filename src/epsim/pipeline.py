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
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from . import attack as attack_mod
from .errors import AttackSetupError, ConfigurationError, FitError, ReportError
from .market_data import Dataset, SplitSpec, align_calendar, load_csv, parse_date, split
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
IMPACT_METRICS = ("delta_sharpe", "cr_ratio")

# attack.mode -> the ``epsim attack`` submode that runs it
ATTACK_SUBMODES = {"stddev": "sweep", "conceal": "targeted", "overestimate": "targeted"}


def _reject_unknown(section: str, given: dict, known) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigurationError(f"{section}: unrecognized keys {unknown}")


def _object(section: str, given) -> dict:
    if not isinstance(given, dict):
        raise ConfigurationError(f"{section} must be an object, got {given!r}")
    return given


def _check_value(where: str, value, default) -> None:
    """Reject ``value`` unless it has the type of ``default``: a bool must be
    a bool, an int an int (not a bool), a float any finite number and a str
    a str. A tuple default asks for a list of values of its first item's
    type."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list, got {value!r}")
        for item in value:
            _check_value(where, item, default[0])
        return
    kinds = (int, float) if type(default) is float else type(default)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, kinds):
        raise ConfigurationError(
            f"{where} must be of type {type(default).__name__}, got {value!r}"
        )
    # json reads NaN and Infinity; an int past the float range is not finite
    # either once it is used as a float
    if type(default) is float and not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")


def _section(section: str, cls, given) -> dict:
    """``given`` checked against the fields of the dataclass ``cls``: no
    unknown key, and each value of its field's default type. Fields without
    a default are left to the caller."""
    _object(section, given)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    _reject_unknown(section, given, defaults)
    for key, value in given.items():
        if isinstance(defaults[key], (bool, int, float, str, tuple)):
            _check_value(f"{section}.{key}", value, defaults[key])
    return given


def _plain(section) -> dict:
    """A config dataclass as its JSON section, tuples as lists."""
    return {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in dataclasses.asdict(section).items()
    }


@dataclass(frozen=True)
class AttackConfig:
    ticker: str
    mode: str  # a key of ATTACK_SUBMODES
    days: str | list  # "all" or a list of day indices / ISO dates
    omegas: tuple[int, ...] = (30, 40, 50)
    ddof: int = 1
    drop_fraction: float = 0.10

    @classmethod
    def from_dict(cls, d: dict) -> "AttackConfig":
        _section("attack", cls, d)
        mode = d.get("mode")
        if mode not in ATTACK_SUBMODES:
            raise ConfigurationError(
                f"attack.mode must be one of {list(ATTACK_SUBMODES)}, got {mode!r}"
            )
        if "ticker" not in d:
            raise ConfigurationError("attack.ticker is required")
        _check_value("attack.ticker", d["ticker"], "")
        days = d.get("days", "all")
        if days != "all" and not isinstance(days, list):
            raise ConfigurationError('attack.days must be "all" or a list')
        for entry in days if days != "all" else ():
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ConfigurationError(
                    f"attack.days: {entry!r} is neither a day index nor an ISO date"
                )
        cfg = cls(**{**d, "days": days, "omegas": tuple(d.get("omegas", cls.omegas))})
        if not cfg.omegas:
            raise ConfigurationError("attack.omegas must name at least one window")
        try:
            for omega in cfg.omegas:
                attack_mod.StdDevMode(omega=omega, ddof=cfg.ddof)
            attack_mod.OverestimateMode(drop_fraction=cfg.drop_fraction)
        except AttackSetupError as exc:
            raise ConfigurationError(f"attack: {exc}") from exc
        return cfg


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
        _reject_unknown("config", _object("config", d), cls._KEYS)
        tickers = d.get("tickers")
        if not tickers:
            raise ConfigurationError("tickers must be a nonempty list")
        _check_value("tickers", tickers, ("",))
        repeated = sorted({tk for tk in tickers if tickers.count(tk) > 1})
        if repeated:
            raise ConfigurationError(f"tickers: each ticker once, {repeated} repeated")
        if "data_dir" not in d:
            raise ConfigurationError("data_dir is required")
        _check_value("data_dir", d["data_dir"], "")
        output_dir = d.get("output_dir", "out")
        _check_value("output_dir", output_dir, "")

        split_spec = SplitSpec(**_section("split", SplitSpec, d.get("split", {})))

        pred_d = dict(_object("predictor", d.get("predictor", {})))
        kind = pred_d.pop("kind", "baseline")
        import_files: dict[str, str] = {}
        if kind == "baseline":
            _section("predictor", PredictorConfig, pred_d)
            try:
                predictor = PredictorConfig(
                    window=pred_d.get("window", split_spec.window),
                    features=tuple(pred_d.get("features", PredictorConfig.features)),
                    ridge_lambda=float(pred_d.get("ridge_lambda", PredictorConfig.ridge_lambda)),
                )
            except FitError as exc:
                raise ConfigurationError(f"predictor: {exc}") from exc
        elif kind == "import":
            _reject_unknown("predictor", pred_d, ("files",))
            import_files = _object("predictor.files", pred_d.get("files", {}))
            for path in import_files.values():
                _check_value("predictor.files", path, "")
            missing = [tk for tk in tickers if tk not in import_files]
            if missing:
                raise ConfigurationError(
                    f"predictor.files: no prediction file for {missing}"
                )
            predictor = PredictorConfig(window=split_spec.window)
        else:
            raise ConfigurationError(
                f"predictor.kind must be baseline or import, got {kind!r}"
            )

        attack_cfg = None
        if d.get("attack") is not None:
            attack_cfg = AttackConfig.from_dict(d["attack"])

        cfg = cls(
            data_dir=d["data_dir"],
            tickers=tuple(tickers),
            split=split_spec,
            predictor_kind=kind,
            predictor=predictor,
            import_files=dict(import_files),
            strategy=StrategyConfig(
                **_section("strategy", StrategyConfig, d.get("strategy", {}))
            ),
            costs=CostModel(**_section("costs", CostModel, d.get("costs", {}))),
            attack=attack_cfg,
            output_dir=output_dir,
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
            predictor.update(_plain(self.predictor))
        else:
            predictor["files"] = dict(self.import_files)
        out = {
            "data_dir": self.data_dir,
            "tickers": list(self.tickers),
            "split": _plain(self.split),
            "predictor": predictor,
            "strategy": _plain(self.strategy),
            "costs": _plain(self.costs),
            "output_dir": self.output_dir,
        }
        if self.attack is not None:
            out["attack"] = _plain(self.attack)
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
    payload = result.to_dict()
    _write_json(paths["result"], payload)
    columns = ("day", "ticker", "side", "shares", "price", "commission", "slippage")
    _write_csv(
        paths["ledger"],
        LEDGER_SCHEMA,
        columns,
        [tuple(_fmt(trade[c]) for c in columns) for trade in payload["trades"]],
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


def _degradation_fractions(outcomes) -> tuple[float, float]:
    if not outcomes:
        return 0.0, 0.0
    sr = sum(1 for o in outcomes if o.sharpe_attacked < o.sharpe_baseline)
    cr = sum(1 for o in outcomes if o.cr_attacked < o.cr_baseline)
    return sr / len(outcomes), cr / len(outcomes)


def write_sweep_files(result: attack_mod.AttackResult, out_dir) -> dict[str, str]:
    """The cells CSV and summary JSON of one attack run, sweep or targeted.

    A sweep writes ``sweep_cells.csv`` and ``sweep_summary.json``; a
    targeted run writes ``targeted_*`` files whose cells and summary also
    carry each outcome's ``cr_change_pct``. The writer keeps the sweep's
    name because the benchmark's tracer (``perfbench/tracing.py``) looks it
    up under that name; renaming it waits for a change to the benchmark.
    """
    targeted = result.kind != "sweep"
    prefix = "targeted" if targeted else "sweep"
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cells": os.path.join(out_dir, f"{prefix}_cells.csv"),
        "summary": os.path.join(out_dir, f"{prefix}_summary.json"),
    }
    columns = CELL_COLUMNS + (("cr_change_pct",) if targeted else ())
    rows = [
        (o.ep.day, attack_mod.mode_label(o.ep.mode))
        + tuple(_fmt(getattr(o, c)) for c in columns[2:])
        for o in result.outcomes
    ]
    _write_csv(paths["cells"], CELLS_SCHEMA, columns, rows)
    frac_sr, frac_cr = _degradation_fractions(result.outcomes)
    summary = {
        "schema": ATTACK_SUMMARY_SCHEMA,
        "mode": result.kind,
        "n_outcomes": len(result.outcomes),
        "n_errors": len(result.errors),
        "errors": [dataclasses.asdict(e) for e in result.errors],
        "baseline": {
            "sharpe_ratio": result.baseline.sharpe_ratio,
            "cumulative_return": result.baseline.final_cumulative_return(),
            "final_value": result.baseline.final_value,
        },
        "fraction_sharpe_degraded": frac_sr,
        "fraction_cr_degraded": frac_cr,
    }
    if targeted:
        summary["per_day"] = [
            {"day": o.ep.day, "cr_change_pct": o.cr_change_pct} for o in result.outcomes
        ]
    _write_json(paths["summary"], summary)
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
            **_plain(config.predictor),
            "reports": [dataclasses.asdict(r) for r in reports],
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
    """The test-day indices ``attack.days`` names, each once, in increasing order."""
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
                date = parse_date(str(entry))
            except ValueError as exc:
                raise ConfigurationError(
                    f"attack.days: {entry!r} is neither an index nor an ISO date"
                ) from exc
            if date not in cal_index:
                raise ConfigurationError(
                    f"attack.days: {date.isoformat()} not in the test calendar"
                )
            days.append(cal_index[date])
    return sorted(set(days))


def cmd_attack(config: RunConfig, out_dir, submode: str) -> dict:
    if config.attack is None:
        raise ConfigurationError("config has no attack block")
    if config.predictor_kind != "baseline":
        raise ConfigurationError(
            "attack requires predictor.kind = baseline (a fitted model is "
            "needed to recompute the perturbed forecast)"
        )
    atk = config.attack
    modes = [m for m, s in ATTACK_SUBMODES.items() if s == submode]
    if atk.mode not in modes:
        raise ConfigurationError(
            f"attack {submode} runs attack.mode {' or '.join(modes) or 'none'}, "
            f"not {atk.mode!r}"
        )
    dataset, test_start = load_dataset(config)
    days = _attack_days(atk, dataset, test_start)
    train = dataset.slice(0, test_start)
    predictors = fit_baseline(train, config.predictor)
    world = (dataset, test_start, predictors, config.strategy, config.costs)
    if submode == "sweep":
        result = attack_mod.sweep_indiscriminate(
            *world, ticker=atk.ticker, omegas=atk.omegas, ddof=atk.ddof, days=days
        )
    else:
        result = attack_mod.run_targeted(
            *world, ticker=atk.ticker, days=days, scenario=atk.mode,
            drop_fraction=atk.drop_fraction,
        )
    _require_outcomes(result)
    return write_sweep_files(result, out_dir)


def _require_outcomes(result) -> None:
    """An attack in which no cell produced an outcome has nothing to report."""
    if result.outcomes:
        return
    detail = f"{len(result.errors)} cell errors"
    if result.errors:
        e = result.errors[0]
        detail += f"; first: day {e.day} {e.label}: {e.message}"
    raise AttackSetupError(f"no attack cell produced an outcome ({detail})")


# ---------------------------------------------------------------------------
# reporting


def quantile_table(rows: list[dict]) -> list[dict]:
    """min/q1/median/q3/max/mean of delta_sharpe and cr_ratio per group.

    Each is taken over the group's finite values only (``cr_ratio`` is NaN
    when the baseline cumulative return is 0); a group and metric with no
    finite value has no row.
    """
    import numpy as np

    if not rows:
        raise ReportError("no outcome rows to summarize")
    groups: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        g = groups.setdefault(row["omega_or_mode"], {m: [] for m in IMPACT_METRICS})
        for metric in IMPACT_METRICS:
            g[metric].append(float(row[metric]))
    table = []
    for label in sorted(groups):
        for metric in IMPACT_METRICS:
            values = np.asarray(groups[label][metric], dtype=np.float64)
            values = values[np.isfinite(values)]
            if not values.size:
                continue
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
    if not table:
        raise ReportError("no finite delta_sharpe or cr_ratio value to summarize")
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
            tuple(table[0]),
            [tuple(_fmt(v) for v in r.values()) for r in table],
        )
        for r in table:
            stats = " ".join(f"{k}={v:.6g}" for k, v in list(r.items())[2:])
            lines.append(f"{r['group']} {r['metric']}: {stats}")
        skipped = sum(
            not math.isfinite(float(row[m])) for row in cell_rows for m in IMPACT_METRICS
        )
        if skipped:
            lines.append(f"{skipped} undefined values left out of the quantile table")
        lines.append(f"quantile table written to {out_path}")
    return lines
