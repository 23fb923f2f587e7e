"""The benchmark's workloads: their inputs, run configuration and commands.

Every workload runs the same user sequence through the epsim CLI:
``ingest``, ``fit``, ``backtest``, its attack commands, then ``report``.
What differs is the universe size, the strategy and the attack, chosen so
that each workload loads a different layer:

* ``desk_sweep``: the paper's desk-scale experiment, 3 tickers x 400 days,
  720 cells. The attack commands take most of the time; per cell, MA signal
  regeneration, the perturbed forecast window and ``run_signals`` share it.
* ``universe_sweep``: 20 tickers x 400 days with Bollinger bands, 80 cells.
  Forecasts for 20 tickers x 80 test days dominate ``fit`` and
  ``backtest``; per cell, regenerating 20 tickers' signals outweighs the
  perturbed forecast.

Both use an 80/20 train/test split and a 50-day model window. The universe
has 400 days rather than ROADMAP's 1500 so that a run holds several passes
of every workload. There is no separate forecast-only workload: its
``fit`` and ``backtest`` would repeat ``universe_sweep``'s, and the time
limit on all runs leaves room for long runs of two workloads, not three.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Attack:
    """One ``attack sweep`` command."""

    ticker: str
    extra_args: tuple[str, ...]
    cells: int


@dataclass(frozen=True)
class Workload:
    name: str
    tickers: tuple[str, ...]
    n_days: int
    n_test: int
    strategy: str
    attack_block: dict
    attacks: tuple[Attack, ...]

    @property
    def cells(self) -> int:
        return sum(a.cells for a in self.attacks)


DESK = ("AAA", "BBB", "CCC")
UNIVERSE = tuple(f"U{i:02d}" for i in range(20))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_sweep",
            tickers=DESK,
            n_days=400,
            n_test=80,
            strategy="ma_crossover",
            attack_block={"ticker": DESK[0], "mode": "stddev", "days": "all",
                          "omegas": [30, 40, 50]},
            attacks=tuple(Attack(tk, (), 240) for tk in DESK),
        ),
        Workload(
            name="universe_sweep",
            tickers=UNIVERSE,
            n_days=400,
            n_test=80,
            strategy="bollinger_bands",
            attack_block={"ticker": UNIVERSE[0], "mode": "stddev", "days": "all",
                          "omegas": [50]},
            attacks=(Attack(UNIVERSE[0], ("--omega", "50"), 80),),
        ),
    )
}


def write_config(w: Workload, path: str, data_dir: str) -> None:
    config = {
        "data_dir": data_dir,
        "tickers": list(w.tickers),
        "split": {"train_fraction": 0.8, "window": 50},
        "predictor": {"kind": "baseline", "window": 50},
        "strategy": {"kind": w.strategy},
        "attack": w.attack_block,
        "output_dir": "out",
    }
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)


def attack_dir(out: str, attack: Attack) -> str:
    return os.path.join(out, f"attack_{attack.ticker}")


def commands(w: Workload, config: str, out: str) -> list[tuple[str, list[str]]]:
    """(kind, argv) for each CLI command of one pass over the workload."""
    seq = [
        ("ingest", ["ingest", "--config", config, "--out", out]),
        ("fit", ["fit", "--config", config, "--out", out]),
        ("backtest", ["backtest", "--config", config, "--out", out]),
    ]
    report = [os.path.join(out, "result.json")]
    for a in w.attacks:
        adir = attack_dir(out, a)
        seq.append(
            ("attack", ["attack", "sweep", "--config", config, "--out", adir,
                        "--ticker", a.ticker, *a.extra_args])
        )
        report += [os.path.join(adir, "sweep_summary.json"),
                   os.path.join(adir, "sweep_cells.csv")]
    seq.append(("report", ["report", *report, "--out", out]))
    return seq
