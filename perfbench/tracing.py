"""In-memory spans around epsim's public functions, and what they add up to.

The traced run replaces each public function under the name its caller looks
up (``epsim.pipeline.load_csv``, ``epsim.attack.run_simulation``, ...) with a
wrapper that records a span: name, start, end, parent span and run id (one
run per CLI command). Nothing in ``src/`` changes; ``uninstall`` puts every
original back. Functions called ~10^5 times per run (``execute_signal``,
``AffineScaler.transform``) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction

NAME, START, END, PARENT, RUN = range(5)

SWEEP = "attack.sweep_indiscriminate"
PERCENTILE_LADDER = ("50", "90", "95", "99", "99.9")


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_index, run_id]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _traced(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


def _count_rows(tracer, args, series):
    tracer.count("market_data.rows_parsed", len(series.bars))


def _count_signal_days(tracer, args, signals):
    tracer.count("strategy.signal_days", len(signals))


def _count_days_simulated(tracer, args, result):
    tracer.count("trade_engine.days_simulated", len(result.daily_returns) * len(args[1]))


def _count_cells(tracer, args, result):
    tracer.count("attack.cells", len(result.outcomes) + len(result.errors))
    tracer.count("attack.cell_errors", len(result.errors))
    diverged = sum(1 for o in result.outcomes if o.first_divergence_day is not None)
    tracer.count("attack.cells_diverged", diverged)


def _targets():
    """(span name, owner object, attribute, kind, result hook) per lookup site."""
    from epsim import attack, market_data, pipeline, predictor, trade_engine

    return [
        ("market_data.load_csv", pipeline, "load_csv", None, _count_rows),
        ("market_data.align_calendar", pipeline, "align_calendar", None, None),
        ("market_data.Dataset.slice", market_data.Dataset, "slice", None, None),
        ("predictor.fit_baseline", pipeline, "fit_baseline", None, None),
        ("predictor.predict_test_series", pipeline, "predict_test_series", None, None),
        ("predictor.predict_test_series", attack, "predict_test_series", None, None),
        ("predictor.predict_test_series", predictor, "predict_test_series", None, None),
        ("predictor.predict_window", predictor.RidgePredictor, "predict_window", None, None),
        ("predictor.evaluate_rmse", attack, "evaluate_rmse", None, None),
        ("predictor.evaluate_rmse", predictor, "evaluate_rmse", None, None),
        ("strategy.generate_signals", trade_engine, "generate_signals", None, _count_signal_days),
        ("trade_engine.run_simulation", pipeline, "run_simulation", None, None),
        ("trade_engine.run_simulation", attack, "run_simulation", None, None),
        ("trade_engine.run_signals", trade_engine, "run_signals", None, _count_days_simulated),
        ("attack.clean_run", attack, "clean_run", None, None),
        ("attack.sweep_indiscriminate", attack, "sweep_indiscriminate", None, _count_cells),
        ("attack.perturbed_prediction_entry", attack, "perturbed_prediction_entry", None, None),
        ("pipeline.RunConfig.from_file", pipeline.RunConfig, "from_file", "classmethod", None),
        ("pipeline.cmd_ingest", pipeline, "cmd_ingest", None, None),
        ("pipeline.cmd_fit", pipeline, "cmd_fit", None, None),
        ("pipeline.cmd_backtest", pipeline, "cmd_backtest", None, None),
        ("pipeline.cmd_attack", pipeline, "cmd_attack", None, None),
        ("pipeline.cmd_report", pipeline, "cmd_report", None, None),
        ("pipeline.write_result_files", pipeline, "write_result_files", None, None),
        ("pipeline.write_sweep_files", pipeline, "write_sweep_files", None, None),
    ]


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for name, owner, attr, kind, hook in _targets():
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            wrapped = classmethod(_traced(tracer, name, original.__func__, hook))
        else:
            wrapped = _traced(tracer, name, original, hook)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# aggregation


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its child spans.

    Spans come from one single-threaded stack, so children are nested in
    their parent and never overlap one another.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile with at least ten of n samples beyond it.

    A sample is beyond percentile p when it ranks above the nearest-rank
    position ceil(p * n / 100). Returns None when even the median has fewer
    than ten samples beyond it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        rank = math.ceil(Fraction(p) * n / 100)
        if n - rank >= 10:
            best = p
    return best


def percentile(values, p: str) -> float:
    """Nearest-rank percentile of a nonempty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(p) * len(ordered) / 100))
    return ordered[rank - 1]


def _in_cell(spans) -> list[bool]:
    """Per span: whether it runs inside a sweep span but outside that
    sweep's clean baseline run."""
    flags: list[bool] = []
    for s in spans:
        inside = flags[s[PARENT]] if s[PARENT] >= 0 else False
        if s[NAME] == SWEEP:
            inside = True
        elif s[NAME] == "attack.clean_run":
            inside = False
        flags.append(inside)
    return flags


def cell_times_ms(spans) -> list[float]:
    """Cell durations, delimited by successive perturbed_prediction_entry
    calls inside each sweep span (the last cell ends with the span)."""
    starts: dict[int, list[int]] = {}
    sweep_of: dict[int, int] = {}
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if s[NAME] == SWEEP:
            sweep_of[i] = i
        elif parent >= 0 and parent in sweep_of:
            sweep_of[i] = sweep_of[parent]
        if s[NAME] == "attack.perturbed_prediction_entry" and i in sweep_of:
            starts.setdefault(sweep_of[i], []).append(s[START])
    cells = []
    for sweep, marks in starts.items():
        bounds = marks + [spans[sweep][END]]
        cells.extend((b - a) / 1e6 for a, b in zip(bounds, bounds[1:]))
    return cells


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    selfs = self_times_ns(spans)
    in_cell = _in_cell(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    in_cells: dict[str, int] = {}
    for s, t, cell in zip(spans, selfs, in_cell):
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + t / 1e9
        calls[name] = calls.get(name, 0) + 1
        if cell:
            in_cells[name] = in_cells.get(name, 0) + 1

    cells = counts.get("attack.cells", 0)

    def per_cell(name):
        return in_cells.get(name, 0) / cells if cells else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "market_data.load_csv",
        "market_data.Dataset.slice",
        "predictor.predict_test_series",
        "predictor.predict_window",
        "predictor.evaluate_rmse",
        "strategy.generate_signals",
        "trade_engine.run_simulation",
        "trade_engine.run_signals",
    ):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in (
        "market_data.align_calendar",
        "predictor.fit_baseline",
        "attack.clean_run",
        SWEEP,
        "pipeline.RunConfig.from_file",
        "pipeline.write_result_files",
        "pipeline.write_sweep_files",
        "pipeline.cmd_report",
    ):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in (
        "market_data.rows_parsed",
        "strategy.signal_days",
        "trade_engine.days_simulated",
        "attack.cells",
        "attack.cell_errors",
        "attack.cells_diverged",
    ):
        out[name] = (counts.get(name, 0), "count")
    out["attack.perturbed_prediction_entry.calls"] = (
        calls.get("attack.perturbed_prediction_entry", 0),
        "count",
    )
    out["attack.simulations_per_cell"] = (per_cell("trade_engine.run_simulation"), "count")
    out["attack.signals_per_cell"] = (per_cell("strategy.generate_signals"), "count")
    out.update(cell_percentiles(cell_times_ms(spans)))
    return out


def cell_percentiles(cell_ms) -> dict[str, tuple[float, str]]:
    """Median and p95 of cell times. With fewer than 200 cells, p95 has under
    ten samples beyond it, so the highest percentile that has them is
    reported instead, or the slowest cell when not even the median has."""
    if not cell_ms:
        return {"attack.cell_ms.p50": (0.0, "ms"), "attack.cell_ms.p95": (0.0, "ms")}
    tail = tail_percentile(len(cell_ms))
    high = min(tail, "95", key=float) if tail else "100"
    return {
        "attack.cell_ms.p50": (percentile(cell_ms, "50"), "ms"),
        "attack.cell_ms.p95": (percentile(cell_ms, high), "ms"),
    }
