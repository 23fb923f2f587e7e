"""epsim's file formats: the reader of imported forecasts, :func:`plan`,
which checks a run's inputs for every command, the writer of every result
file, and the two commands that fit no model, ``ingest`` and ``report``.

Every output file declares a schema version (a ``schema`` field in JSON, a
leading ``# schema: ...`` comment line in CSV); the report command refuses
files whose version it does not recognize. No output embeds timestamps, so
repeated runs of the same configuration are byte-identical.

This module loads neither numpy nor the engine (``predictor``,
``strategy``, ``trade_engine``, ``attack``), so ``ingest`` and ``report``
start without them; the writers take the engine's result types but only
read their fields.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigurationError, PredictorError, ReportError
from .market_data import (
    Dataset,
    align_calendar,
    load_csv,
    open_csv,
    parse_date,
    reject_repeated_columns,
)

if TYPE_CHECKING:
    from .attack import AttackResult
    from .config import AttackConfig, CostModel, PredictorConfig, RunConfig
    from .predictor import FitReport
    from .trade_engine import SimulationResult

INGEST_SCHEMA = "epsim/ingest/v1"
FIT_SCHEMA = "epsim/fit/v1"
RESULT_SCHEMA = "epsim/result/v1"
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


# ---------------------------------------------------------------------------
# writing and reading


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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # coerce so numpy scalars do not leak reprs
    return str(value)


def _check_schema_line(path, fh, expected_schema: str) -> None:
    first = fh.readline().strip()
    if not first.startswith("# schema: "):
        raise ReportError(f"{path}: missing schema line")
    found = first[len("# schema: ") :]
    if found != expected_schema:
        raise ReportError(
            f"{path}: schema mismatch: expected {expected_schema}, found {found}"
        )


def _read_cells(path) -> list[dict]:
    """Read an attack cells CSV whose every row has a group label and a
    number (possibly NaN) for each impact metric; a bad row fails with its
    line number."""
    rows = []
    with open_csv(path, ReportError) as fh:
        _check_schema_line(path, fh, CELLS_SCHEMA)
        reader = csv.DictReader(fh)
        for row in reader:
            line = reader.line_num + 1  # the schema line came before the reader
            for column in ("omega_or_mode", *IMPACT_METRICS):
                if row.get(column) is None:
                    raise ReportError(f"{path}: line {line}: missing field '{column}'")
            for metric in IMPACT_METRICS:
                try:
                    float(row[metric])
                except ValueError:
                    raise ReportError(
                        f"{path}: line {line}: {metric} {row[metric]!r} is not a number"
                    ) from None
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# result writers


def write_fit_reports(
    reports: list[FitReport], predictor_config: PredictorConfig, out_dir
) -> None:
    """fit_reports.json: the predictor config and each ticker's fit report."""
    os.makedirs(out_dir, exist_ok=True)
    _write_json(
        os.path.join(out_dir, "fit_reports.json"),
        {
            "schema": FIT_SCHEMA,
            **predictor_config._asdict(),
            "reports": [r._asdict() for r in reports],
        },
    )


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
    columns = ("day", "ticker", "side", "shares", "price", "commission", "slippage")
    trades = [
        (t.day, t.ticker, t.side.value, t.shares, t.execution_price, t.commission_paid,
         t.slippage_paid)
        for t in result.trade_ledger
    ]
    _write_json(
        paths["result"],
        {
            "schema": RESULT_SCHEMA,
            "daily_returns": list(result.daily_returns),
            "cumulative_returns": list(result.cumulative_returns),
            "sharpe_ratio": result.sharpe_ratio,
            "final_value": result.final_value,
            "trades": [dict(zip(columns, trade)) for trade in trades],
        },
    )
    _write_csv(
        paths["ledger"], LEDGER_SCHEMA, columns, [tuple(map(_fmt, t)) for t in trades]
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


def write_sweep_files(result: AttackResult, out_dir) -> dict[str, str]:
    """The cells CSV and summary JSON of one attack run, sweep or targeted.

    A sweep writes ``sweep_cells.csv`` and ``sweep_summary.json``; a
    targeted run writes ``targeted_*`` files whose cells and summary also
    carry each outcome's ``cr_change_pct``. The writer keeps the sweep's
    name because the benchmark's tracer (``perfbench/tracing.py``) looks it
    up in ``epsim.pipeline`` under that name; renaming it waits for a change
    to the benchmark.
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
        (o.ep.day, o.ep.mode.label)
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
        "errors": [e._asdict() for e in result.errors],
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
# the input plan and ingest


def read_forecasts(path, calendar) -> dict[int, float]:
    """Externally generated forecasts (CSV header ``Date,Prediction``),
    keyed by each date's index in ``calendar``.

    The header names each of the two columns once, and every date must
    belong to the calendar; duplicates and non-finite values (``nan``,
    ``inf``) are rejected, naming the line.
    """
    cal_index = {d: i for i, d in enumerate(calendar)}
    entries: dict[int, float] = {}
    with open_csv(path, PredictorError) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise PredictorError(f"{path}: empty file") from None
        if "Date" not in header or "Prediction" not in header:
            raise PredictorError(
                f"{path}: header must name Date and Prediction, got {header}"
            )
        reject_repeated_columns(path, header, ("Date", "Prediction"), PredictorError)
        d_idx, p_idx = header.index("Date"), header.index("Prediction")
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            try:
                date = parse_date(raw[d_idx].strip())
                value = float(raw[p_idx].strip())
            except (ValueError, IndexError) as exc:
                raise PredictorError(f"{path}: line {line_no}: {exc}") from exc
            if not math.isfinite(value):
                raise PredictorError(
                    f"{path}: line {line_no}: non-finite prediction "
                    f"{raw[p_idx].strip()!r}"
                )
            if date not in cal_index:
                raise PredictorError(
                    f"{path}: date {date.isoformat()} outside the calendar"
                )
            day = cal_index[date]
            if day in entries:
                raise PredictorError(f"{path}: duplicate date {date.isoformat()}")
            entries[day] = value
    if not entries:
        raise PredictorError(f"{path}: no prediction rows")
    return entries


def _attack_days(attack: AttackConfig, test_calendar) -> list[int]:
    """The test-day indices ``attack.days`` names, each once, in increasing order."""
    n = len(test_calendar)
    if attack.days == "all":
        return list(range(n))
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


class Plan(NamedTuple):
    """A run's inputs, checked against its config by :func:`plan`."""

    dataset: Dataset
    test_start: int
    # imported ticker -> {test day: forecast}; empty for a baseline predictor
    forecasts: dict[str, dict[int, float]]
    # the test days ``attack.days`` names, sorted; None without an attack block
    attack_days: list[int] | None


def plan(config: RunConfig, dataset: Dataset) -> Plan:
    """Check ``config`` against its aligned ``dataset``: every data-dependent
    check of any command, in one order, so each command that reads a bad
    input fails with the same first error, before any fit:

    1. the train partition against ``split.window`` (:meth:`SplitSpec.cut`);
    2. for a baseline predictor, each ticker's train days against
       ``predictor.window + 1``;
    3. each imported forecast file, read against the test calendar;
    4. ``attack.days``, resolved to test-day indices, and for a ``stddev``
       attack each omega against the history up to the last attacked day.
    """
    test_start = config.split.cut(dataset.n_days())
    if config.predictor_kind == "baseline":  # the check fit makes
        for tk in dataset.tickers():
            config.predictor.require_train_days(tk, test_start)
    test_calendar = dataset.calendar[test_start:]
    forecasts = {}
    if config.predictor_kind == "import":
        forecasts = {
            tk: read_forecasts(config.resolve(config.import_files[tk]), test_calendar)
            for tk in sorted(config.tickers)
        }
    days = None
    if config.attack is not None:
        days = _attack_days(config.attack, test_calendar)
        history = test_start + days[-1] + 1  # closes up to the last attacked day
        for omega in config.attack.omegas if config.attack.mode == "stddev" else ():
            if omega > history:
                raise ConfigurationError(
                    f"attack.omegas: omega={omega} needs {omega} closes ending on an "
                    f"attacked day; the last, test day {days[-1]}, has {history}"
                )
    return Plan(dataset, test_start, forecasts, days)


def cmd_ingest(config: RunConfig, out_dir) -> dict:
    """Load and plan the run (:func:`plan`), then write ``ingest_report.json``."""
    # The same load as pipeline.load_dataset, which the benchmark's tracer
    # counts through pipeline.load_csv; this copy goes when ROADMAP item 1
    # drops the tracer's name pins.
    series = [load_csv(config.csv_path(tk), tk) for tk in config.tickers]
    dataset = align_calendar(series)
    test_start = plan(config, dataset).test_start
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


# ---------------------------------------------------------------------------
# reporting


def _pairwise_sum(values: list[float]) -> float:
    """numpy's pairwise float64 sum, in its order of additions: fewer than 8
    values add one by one, up to 128 go through 8 accumulators, and a longer
    run splits at half its length rounded down to a multiple of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        body = n - n % 8
        r = []
        for j in range(8):
            acc = values[j]
            for v in values[j + 8 : body : 8]:
                acc += v
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[body:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _quantile(ordered: list[float], q: float) -> float:
    """``np.quantile(ordered, q)`` (method ``linear``) of sorted values, bit
    for bit, including its lerp that counts back from the upper neighbour
    when the weight is 0.5 or more."""
    n = len(ordered)
    vi = (n - 1) * q
    if vi >= n - 1:  # numpy takes the last value as it is
        return ordered[-1]
    prev = math.floor(vi)
    a, b = ordered[prev], ordered[prev + 1]
    g = vi - prev
    diff = b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def quantile_table(rows: list[dict]) -> list[dict]:
    """min/q1/median/q3/max/mean of delta_sharpe and cr_ratio per group.

    Each is taken over the group's finite values only (``cr_ratio`` is NaN
    when the baseline cumulative return is 0); a group and metric with no
    finite value has no row. The numbers have the bits numpy's
    ``quantile`` and ``mean`` give, computed without numpy.
    """
    if not rows:
        raise ReportError("no outcome rows to summarize")
    groups: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        g = groups.setdefault(row["omega_or_mode"], {m: [] for m in IMPACT_METRICS})
        for metric in IMPACT_METRICS:
            value = float(row[metric])
            if math.isfinite(value):
                g[metric].append(value)
    table = []
    for label in sorted(groups):
        for metric in IMPACT_METRICS:
            values = groups[label][metric]
            if not values:
                continue
            ordered = sorted(values)
            table.append(
                {
                    "group": label,
                    "metric": metric,
                    "min": ordered[0],
                    "q1": _quantile(ordered, 0.25),
                    "median": _quantile(ordered, 0.5),
                    "q3": _quantile(ordered, 0.75),
                    "max": ordered[-1],
                    # np.mean's bits: its sum starts from 0.0
                    "mean": (0.0 + _pairwise_sum(values)) / len(values),
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


_NUMBER = (int, float)


def _typed(path, name: str, value, kind=_NUMBER):
    if not isinstance(value, kind) or (kind is _NUMBER and isinstance(value, bool)):
        expected = "number" if kind is _NUMBER else kind.__name__
        raise ReportError(
            f"{path}: field '{name}' is a {type(value).__name__}, not a {expected}"
        )
    return value


def _field(path, payload: dict, *keys: str, kind=_NUMBER):
    """``payload[keys[0]][keys[1]]...`` of a JSON result file, checked to be
    a ``kind``; a missing or mistyped field fails naming it."""
    value = payload
    for i, key in enumerate(keys):
        if not isinstance(value, dict) or key not in value:
            raise ReportError(f"{path}: missing field '{'.'.join(keys[: i + 1])}'")
        value = value[key]
    return _typed(path, ".".join(keys), value, kind)


def _summary_line(path, payload: dict) -> str:
    """The printed line of a ``result.json`` or an attack summary."""
    name = os.path.basename(path)
    if payload.get("schema") == ATTACK_SUMMARY_SCHEMA:
        return (
            f"{name}: mode={_field(path, payload, 'mode', kind=object)} "
            f"cells={_field(path, payload, 'n_outcomes', kind=object)} "
            f"baseline_sharpe={_field(path, payload, 'baseline', 'sharpe_ratio'):.4f} "
            f"baseline_cr={_field(path, payload, 'baseline', 'cumulative_return'):.4%} "
            f"sr_degraded={_field(path, payload, 'fraction_sharpe_degraded'):.1%} "
            f"cr_degraded={_field(path, payload, 'fraction_cr_degraded'):.1%}"
        )
    _check_json_schema(path, payload, RESULT_SCHEMA)
    curve = _field(path, payload, "cumulative_returns", kind=list)
    if not curve:
        raise ReportError(f"{path}: field 'cumulative_returns' is empty")
    return (
        f"{name}: sharpe={_field(path, payload, 'sharpe_ratio'):.4f} "
        f"final_cr={_typed(path, 'cumulative_returns[-1]', curve[-1]):.4%} "
        f"final_value={_field(path, payload, 'final_value'):.2f} "
        f"trades={len(_field(path, payload, 'trades', kind=list))}"
    )


def cmd_report(paths, out_dir) -> list[str]:
    """Summarize result/attack files; returns the printed lines.

    Every file is read and checked before ``quantiles.csv`` is written, so a
    malformed input fails naming its path and writes nothing. A file given
    twice, under any path, fails before any is read: its cells would count
    twice in the table.
    """
    seen = set()
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ReportError(f"{path}: given twice")
        seen.add(real)
    lines: list[str] = []
    cell_rows: list[dict] = []
    for path in paths:
        if not os.path.isfile(path):
            raise ReportError(f"{path}: no such file")
        if path.endswith(".json"):
            try:
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ReportError(f"{path}: invalid JSON: {exc}") from None
            if not isinstance(payload, dict):
                raise ReportError(
                    f"{path}: a {type(payload).__name__}, not a JSON object"
                )
            lines.append(_summary_line(path, payload))
        elif path.endswith(".csv"):
            rows = _read_cells(path)
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
