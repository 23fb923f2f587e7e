"""Result file formats, and the two commands that fit no model: ``ingest``
and ``report``.

Every output file declares a schema version (a ``schema`` field in JSON, a
leading ``# schema: ...`` comment line in CSV); the report command refuses
files whose version it does not recognize. No output embeds timestamps, so
repeated runs of the same configuration are byte-identical.

This module loads neither numpy nor the engine (``predictor``,
``strategy``, ``trade_engine``, ``attack``), so ``ingest`` and ``report``
start without them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import TYPE_CHECKING

from .errors import ReportError
from .market_data import align_calendar, load_csv, split

if TYPE_CHECKING:
    from .config import RunConfig

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


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(config: RunConfig, out_dir) -> dict:
    # The same load as pipeline.load_dataset, which the benchmark's tracer
    # counts through pipeline.load_csv; this copy goes when ROADMAP item 1
    # drops the tracer's name pins.
    series = [load_csv(config.csv_path(tk), tk) for tk in config.tickers]
    dataset = align_calendar(series)
    train, _ = split(dataset, config.split)
    test_start = train.n_days()
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
