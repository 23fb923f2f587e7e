"""Output checks for one pass of a workload, and the values pinned at seed 0.

Every check yields ``(name, ok, detail)``. A pass is correct when its files
carry the expected schemas and sizes, the attack summaries report zero cell
errors and agree with the backtest's baseline, and - for the pinned seed -
the ledger hash, the diverged-cell count, the baseline and every cell's
``delta_sharpe``/``cr_ratio`` equal the reference recorded at the commit that
introduced the benchmark (floats within 1e-9, so a numeric rewrite that moves
the last bit still passes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import Workload, attack_dir

PINNED_SEED = 0
TOLERANCE = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

CELL_COLUMNS = ["day", "omega_or_mode", "delta_sharpe", "cr_ratio",
                "first_divergence_day", "rmse_clean", "rmse_attacked"]


def file_hashes(root: str) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _schema_csv(path: str, schema: str) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# schema: {schema}":
            raise ValueError(f"{path}: schema line {first!r}")
        return list(csv.DictReader(fh))


def _json(path: str, schema: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != schema:
        raise ValueError(f"{path}: schema {payload.get('schema')!r}")
    return payload


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def observe(w: Workload, out: str) -> dict:
    """The values the pinned reference holds, read from one pass's files."""
    with open(os.path.join(out, "ledger.csv"), "rb") as fh:
        ledger_sha = hashlib.sha256(fh.read()).hexdigest()
    result = _json(os.path.join(out, "result.json"), "epsim/result/v1")
    cells = {}
    diverged = 0
    for a in w.attacks:
        rows = _schema_csv(os.path.join(attack_dir(out, a), "sweep_cells.csv"),
                           "epsim/attack-cells/v1")
        cells[a.ticker] = [[int(r["day"]), r["omega_or_mode"], float(r["delta_sharpe"]),
                            float(r["cr_ratio"])] for r in rows]
        diverged += sum(1 for r in rows if r["first_divergence_day"] != "")
    return {
        "ledger_sha256": ledger_sha,
        "cells_diverged": diverged,
        "baseline": {"sharpe_ratio": result["sharpe_ratio"],
                     "final_value": result["final_value"]},
        "cells": cells,
    }


def reference_path(w: Workload) -> str:
    return os.path.join(REFERENCE_DIR, f"{w.name}-seed{PINNED_SEED}.json")


def _check_pinned(w: Workload, out: str):
    with open(reference_path(w)) as fh:
        ref = json.load(fh)
    seen = observe(w, out)
    yield "pinned.ledger_sha256", seen["ledger_sha256"] == ref["ledger_sha256"], ""
    yield ("pinned.cells_diverged", seen["cells_diverged"] == ref["cells_diverged"],
           f"{seen['cells_diverged']} vs {ref['cells_diverged']}")
    for key in ("sharpe_ratio", "final_value"):
        yield (f"pinned.baseline.{key}",
               close(seen["baseline"][key], ref["baseline"][key]),
               f"{seen['baseline'][key]!r} vs {ref['baseline'][key]!r}")
    for tk, ref_cells in ref["cells"].items():
        got = seen["cells"].get(tk, [])
        bad = [r[:2] for r, g in zip(ref_cells, got)
               if r[:2] != g[:2] or not (close(r[2], g[2]) and close(r[3], g[3]))]
        ok = len(got) == len(ref_cells) and not bad
        yield f"pinned.cells.{tk}", ok, f"{len(got)} cells, mismatched {bad[:3]}"


def _check_pass(w: Workload, out: str):
    n_test = w.n_test
    ingest = _json(os.path.join(out, "ingest_report.json"), "epsim/ingest/v1")
    yield ("ingest_report", ingest["n_test"] == n_test and
           ingest["calendar"]["n_days"] == w.n_days and
           ingest["tickers"] == list(w.tickers), f"n_test={ingest['n_test']}")

    fit = _json(os.path.join(out, "fit_reports.json"), "epsim/fit/v1")
    reports = fit["reports"]
    yield ("fit_reports", [r["ticker"] for r in reports] == sorted(w.tickers) and
           all(r["n_test"] == n_test and math.isfinite(r["rmse_test"]) for r in reports),
           f"{len(reports)} reports")

    result = _json(os.path.join(out, "result.json"), "epsim/result/v1")
    yield ("result", len(result["daily_returns"]) == n_test and
           math.isfinite(result["sharpe_ratio"]) and math.isfinite(result["final_value"]),
           f"{len(result['daily_returns'])} days")
    metrics = _schema_csv(os.path.join(out, "metrics.csv"), "epsim/metrics/v1")
    yield "metrics_csv", len(metrics) == n_test, f"{len(metrics)} rows"
    ledger = _schema_csv(os.path.join(out, "ledger.csv"), "epsim/ledger/v1")
    yield "ledger_csv", len(ledger) == len(result["trades"]), f"{len(ledger)} rows"

    for a in w.attacks:
        adir = attack_dir(out, a)
        summary = _json(os.path.join(adir, "sweep_summary.json"),
                        "epsim/attack-summary/v1")
        base = summary["baseline"]
        yield (f"sweep_summary.{a.ticker}",
               summary["n_outcomes"] == a.cells and summary["n_errors"] == 0 and
               close(base["sharpe_ratio"], result["sharpe_ratio"]) and
               close(base["final_value"], result["final_value"]),
               f"outcomes={summary['n_outcomes']} errors={summary['n_errors']}")
        rows = _schema_csv(os.path.join(adir, "sweep_cells.csv"),
                           "epsim/attack-cells/v1")
        yield (f"sweep_cells.{a.ticker}",
               len(rows) == a.cells and bool(rows) and
               list(rows[0])[: len(CELL_COLUMNS)] == CELL_COLUMNS,
               f"{len(rows)} rows")

    quantiles = _schema_csv(os.path.join(out, "quantiles.csv"), "epsim/quantiles/v1")
    yield "quantiles_csv", len(quantiles) > 0, f"{len(quantiles)} rows"


def check_pass(w: Workload, out: str, seed: int) -> list[tuple[str, bool, str]]:
    """All checks on one pass's output directory; a file that cannot be read
    or parsed fails the check that reads it."""
    results = []
    groups = [_check_pass(w, out)]
    if seed == PINNED_SEED:
        groups.append(_check_pinned(w, out))
    for group in groups:
        try:
            for item in group:
                results.append(item)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            results.append(("unreadable", False, f"{type(exc).__name__}: {exc}"))
    return results


def cell_errors(w: Workload, out: str) -> int:
    total = 0
    for a in w.attacks:
        try:
            with open(os.path.join(attack_dir(out, a), "sweep_summary.json")) as fh:
                total += int(json.load(fh)["n_errors"])
        except (OSError, ValueError, KeyError):
            total += a.cells  # no summary: every requested cell counts as lost
    return total
