import pytest

import tracing


def span(name, start, end, parent=-1, run=0):
    return [name, start, end, parent, run]


def test_self_time_on_hand_built_tree():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0),
        span("a.child", 15, 25, parent=1),
        span("b", 50, 70, parent=0),
        span("c", 75, 80, parent=0),
        span("other_run", 200, 230, run=1),
    ]
    assert tracing.self_times_ns(spans) == [100 - 30 - 20 - 5, 30 - 10, 10, 20, 5, 30]


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"),
     (200, "95"), (300, "95"), (720, "95"), (999, "95"), (1000, "99"), (10000, "99.9")],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert tracing.percentile(values, "50") == 100
    assert tracing.percentile(values, "95") == 190
    assert tracing.percentile([5.0], "95") == 5.0


def test_cells_are_delimited_by_perturbed_prediction_calls():
    spans = [
        span("attack.sweep_indiscriminate", 0, 100),
        span("attack.clean_run", 0, 40, parent=0),
        span("trade_engine.run_simulation", 5, 35, parent=1),
        span("attack.perturbed_prediction_entry", 40, 45, parent=0),
        span("trade_engine.run_simulation", 45, 60, parent=0),
        span("attack.perturbed_prediction_entry", 60, 65, parent=0),
        span("trade_engine.run_simulation", 65, 95, parent=0),
    ]
    assert tracing.cell_times_ms(spans) == [20 / 1e6, 40 / 1e6]
    metrics = tracing.layer_metrics(spans, {"attack.cells": 2})
    assert metrics["attack.simulations_per_cell"] == (1.0, "count")
    assert metrics["attack.perturbed_prediction_entry.calls"] == (2, "count")
    assert metrics["attack.cell_ms.p50"] == (20 / 1e6, "ms")
    assert metrics["attack.cell_ms.p95"] == (40 / 1e6, "ms")  # too few cells: the slowest
