"""Tracing must never change results: a traced pass writes the same bytes."""

import os

import checks
import gen
import run
import tracing
from workloads import Attack, Workload, write_config

import epsim.cli
import epsim.pipeline

TINY = Workload(
    name="tiny",
    tickers=("AAA", "BBB"),
    n_days=200,
    n_test=40,
    strategy="ma_crossover",
    attack_block={"ticker": "AAA", "mode": "stddev", "days": "all", "omegas": [30]},
    attacks=(Attack("AAA", ("--omega", "30"), 40),),
)


def test_traced_pass_hashes_equal_untraced(tmp_path):
    data = str(tmp_path / "data")
    gen.write_inputs(data, 5, TINY.tickers, TINY.n_days)
    config = str(tmp_path / "run.json")
    write_config(TINY, config, data)
    original_load_csv = epsim.pipeline.load_csv

    plain_out, traced_out = str(tmp_path / "plain"), str(tmp_path / "traced")
    plain = run.inproc_pass(epsim.cli, TINY, config, plain_out)
    tracer = tracing.Tracer()
    traced = run.inproc_pass(epsim.cli, TINY, config, traced_out, tracer)

    assert plain["failed_commands"] == traced["failed_commands"] == 0
    assert epsim.pipeline.load_csv is original_load_csv  # wrappers removed
    assert checks.file_hashes(plain_out) == checks.file_hashes(traced_out)
    assert all(ok for _, ok, _ in checks.check_pass(TINY, traced_out, seed=None))

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["attack.cells"] == (40, "count")
    assert metrics["attack.cell_errors"] == (0, "count")
    assert metrics["attack.simulations_per_cell"] == (1.0, "count")
    assert metrics["attack.signals_per_cell"] == (2.0, "count")
    assert metrics["market_data.load_csv.calls"][0] == 2 * 4  # ingest, fit, backtest, attack
    with open(os.path.join(traced_out, "ledger.csv")) as fh:
        assert len(fh.readlines()) > 2  # the baseline trades, so cells can diverge
