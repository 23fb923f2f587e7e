"""Run a fixed corpus of epsim commands and fingerprint everything they do.

Each command runs as ``python -m epsim.cli`` in a fresh process, from the
tree's own ``src``, with ``OPENBLAS_NUM_THREADS=1`` (result files still
depend on the BLAS thread count), inside a temporary directory that holds
the inputs: the benchmark's seed-0 worlds from ``perfbench/gen.py`` and
configs derived from ``perfbench/workloads.py``. For each command it prints
one line: the scenario, the argv, the exit code, the SHA-256 of stdout and
of stderr (with the work directory cut from the paths they name), and the
SHA-256 of each file the command wrote.

Passing scenarios: both benchmark workloads' command lists; in each world,
a ``backtest`` and ``attack sweep`` under each strategy other than its
workload's, under proportional slippage, and under each such strategy with
proportional slippage; in each world, ``attack targeted`` with each mode,
then ``report``; ``ingest`` and ``backtest`` on imported forecasts
(each day's forecast is the previous close); a ``backtest`` in each world
under each strategy on such forecasts with gaps (no row for the first three
test days, test day 45 and the third-to-last); ``ingest`` and ``backtest``
on the desk data written as other tools write CSV (rows newest first with a
blank line, extra columns, padded cells), and a ``backtest`` on the desk
data with a byte-order mark in front of one file. The ``rejected`` scenario
holds CI's rejected inputs, each command once, and a ``report`` given one
file twice; then an ``ingest`` and a ``backtest`` each on a config with a
repeated key, on zero starting capital, on a forecast file naming
``Prediction`` twice, on too few train days for the model's window and on a
forecast file whose last row is bad (a date outside the calendar, a train
date, a non-finite value, a repeated date); and an ``ingest`` and an
``attack sweep`` each on an attack date outside the calendar, on a train
date and on an omega longer than the history. ``rejected_csv`` holds one
``ingest`` per data-file error the loader names.

    python tools/corpus.py                      # this tree's lines
    python tools/corpus.py --against ../other   # only the lines that differ

With ``--against``, both trees run the same corpus and each differing pair
is printed as ``- <other tree's line>`` and ``+ <this tree's line>``; the
exit status is 1 if any line differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from gen import write_inputs  # noqa: E402
from workloads import WORKLOADS, commands, write_config  # noqa: E402

SEED = 0
DESK = WORKLOADS["desk_sweep"]
UNIVERSE = WORKLOADS["universe_sweep"]
STRATEGIES = ("ma_crossover", "rate_of_change", "bollinger_bands")
# per world, the strategies other than its workload's
OTHER_STRATEGIES = {
    "desk": ("bollinger_bands", "rate_of_change"),
    "universe": ("ma_crossover", "rate_of_change"),
}
# the test days a gapped forecast file has no row for: the first three, day
# 45 and the third-to-last
GAPS = (0, 1, 2, 45, -3)
BAD_CSV = (
    "empty_file", "missing_column", "no_rows", "not_utf8", "short_row", "bad_date",
    "bad_number", "non_finite", "non_positive", "negative_volume", "low_above",
    "high_below", "duplicate_date", "repeated_column",
)


class Run(NamedTuple):
    """One command's argv, exit code and output streams, and the files it
    wrote or changed, each path relative to the work directory mapped to
    its SHA-256."""

    scenario: str
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str
    files: dict[str, str]

    def line(self) -> str:
        written = " ".join(f"{path} {digest}" for path, digest in sorted(self.files.items()))
        return (
            f"{self.scenario}: epsim {shlex.join(self.argv)} | exit {self.code} "
            f"| stdout {_sha(self.stdout.encode())} | stderr {_sha(self.stderr.encode())} "
            f"| {written or 'no files'}"
        )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: str, config: dict) -> None:
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)


def prepare(work: str) -> None:
    """Write every input of the corpus under ``work``."""
    write_inputs(os.path.join(work, "data_desk"), SEED, DESK.tickers, DESK.n_days)
    write_inputs(os.path.join(work, "data_universe"), SEED, UNIVERSE.tickers, UNIVERSE.n_days)
    write_config(DESK, os.path.join(work, "desk.json"), "data_desk")
    write_config(UNIVERSE, os.path.join(work, "universe.json"), "data_universe")
    worlds = {}
    for world in ("desk", "universe"):
        with open(os.path.join(work, f"{world}.json")) as fh:
            worlds[world] = json.load(fh)
    desk = worlds["desk"]

    def variant(name: str, world: str = "desk", **sections) -> None:
        _write_json(os.path.join(work, f"{world}_{name}.json"), {**worlds[world], **sections})

    proportional = {"slippage_mode": "proportional", "slippage_per_share": 0.001}
    for world, kinds in OTHER_STRATEGIES.items():
        for kind in kinds:
            variant(kind, world, strategy={"kind": kind})
            variant(f"{kind}_proportional", world, strategy={"kind": kind}, costs=proportional)
        variant("proportional", world, costs=proportional)
    variant("bad_day", attack={**desk["attack"], "days": [9999]})
    with open(os.path.join(work, "data_desk", "AAA.csv")) as fh:
        train_date = fh.read().splitlines()[6].split(",")[0]  # the sixth day
    variant("attack_date_outside", attack={**desk["attack"], "days": ["2131-12-31"]})
    variant("attack_date_in_train", attack={**desk["attack"], "days": [train_date]})
    variant("infeasible_omega", attack={**desk["attack"], "omegas": [30, DESK.n_days + 1]})
    n_train = DESK.n_days - DESK.n_test
    variant("short_train", predictor={"kind": "baseline", "window": n_train})
    # a forecast file for a ticker the config does not list: the config is
    # rejected before any file is opened, so none is written
    variant(
        "unknown_files",
        predictor={"kind": "import", "files": {tk: f"{tk}.preds.csv" for tk in (*DESK.tickers, "ZZZ")}},
    )

    # imported forecasts: each test day's forecast is the previous close
    files = _write_forecasts(work, desk, "forecasts")
    variant("import", predictor={"kind": "import", "files": files})
    # the same with gaps, in both worlds under each strategy
    for world, config in worlds.items():
        gapped = _write_forecasts(work, config, f"forecasts_gapped_{world}", GAPS)
        for kind in STRATEGIES:
            variant(f"gapped_{kind}", world, strategy={"kind": kind},
                    predictor={"kind": "import", "files": gapped})
    # AAA's forecasts with the last row replaced by one bad row per case
    with open(os.path.join(work, files["AAA"])) as fh:
        lines = fh.read().splitlines()
    bad_rows = {
        "date_outside": "2131-12-31,100",
        "date_in_train": f"{train_date},100",
        "non_finite": f"{lines[-1].split(',')[0]},nan",
        "duplicate_date": f"{lines[1].split(',')[0]},100",
    }
    for case, row in bad_rows.items():
        bad = {**files, "AAA": os.path.join("forecasts_bad", case, "AAA.csv")}
        os.makedirs(os.path.join(work, "forecasts_bad", case))
        with open(os.path.join(work, bad["AAA"]), "w") as fh:
            fh.write("".join(f"{line}\n" for line in [*lines[:-1], row]))
        variant(f"import_{case}", predictor={"kind": "import", "files": bad})
    # the same forecasts, with AAA's Prediction column given twice
    os.makedirs(os.path.join(work, "forecasts_repeated"))
    repeated = {**files, "AAA": os.path.join("forecasts_repeated", "AAA.csv")}
    with open(os.path.join(work, files["AAA"])) as fh:
        rows = fh.read().splitlines()
    with open(os.path.join(work, repeated["AAA"]), "w") as fh:
        fh.write("".join(f"{row},{row.split(',')[1]}\n" for row in rows))
    variant("import_repeated", predictor={"kind": "import", "files": repeated})
    variant("zero_capital", costs={"initial_capital": 0.0})
    # json keeps the last of a repeated key: this config would run Bollinger bands
    kind = '"kind": "ma_crossover"'
    with open(os.path.join(work, "desk_repeated_key.json"), "w") as fh:
        fh.write(json.dumps(desk, indent=2).replace(kind, f'{kind}, "kind": "bollinger_bands"'))

    # the desk data as other tools write it: the same days, so the same results
    texts = {}
    for tk in DESK.tickers:
        with open(os.path.join(work, "data_desk", f"{tk}.csv")) as fh:
            texts[tk] = fh.read()
    header, *rows = texts["AAA"].splitlines()
    newest_first = [header, *rows[:0:-1], "", rows[0]]
    header, *rows = texts["BBB"].splitlines()
    extra = [f"Note,{header},Adj Close"] + [f"x, {row.replace(',', ' , ')} ,1" for row in rows]
    _write_data(work, "data_desk_csv", {
        "AAA": "\n".join(newest_first), "BBB": "\n".join(extra), "CCC": texts["CCC"],
    })
    variant("csv", data_dir="data_desk_csv")
    _write_data(work, "data_desk_bom", {**texts, "AAA": "\ufeff" + texts["AAA"]})
    variant("bom", data_dir="data_desk_bom")

    # one broken copy of AAA.csv per error the loader names
    header, *rows = texts["AAA"].splitlines()
    date, o, h, lo, c, v = rows[4].split(",")

    def row5(*cells) -> str:
        return "\n".join([header, *rows[:4], ",".join(cells), *rows[5:]])

    broken = {
        "empty_file": "",
        "missing_column": "\n".join(line.rsplit(",", 1)[0] for line in [header, *rows]),
        "no_rows": header,
        "not_utf8": row5(date, o, h, lo, c, v + "\udcff"),  # the byte 0xff
        "short_row": row5(date, o, h, lo, c),
        "bad_date": row5(date.replace("-", ""), o, h, lo, c, v),
        "bad_number": row5(date, o, h, lo, "x", v),
        "non_finite": row5(date, o, h, lo, c, "nan"),
        "non_positive": row5(date, o, h, "0", c, v),
        "negative_volume": row5(date, o, h, lo, c, "-1"),
        "low_above": row5(date, o, h, h, c, v),
        "high_below": row5(date, o, lo, lo, c, v),
        "duplicate_date": "\n".join([header, *rows[:5], *rows[4:]]),
        "repeated_column": "\n".join(
            [f"{header},Close", *(f"{row},{2 * float(row.split(',')[4])!r}" for row in rows)]
        ),
    }
    for case in BAD_CSV:
        _write_data(work, f"data_bad/{case}", {"AAA": broken[case]})
        variant(f"bad_{case}", data_dir=f"data_bad/{case}", tickers=["AAA"])


def _write_forecasts(work: str, config: dict, dirname: str, omit=()) -> dict[str, str]:
    """Write ``<dirname>/<TICKER>.csv`` for each ticker ``config`` lists:
    each test day's forecast is the previous close, and the test days
    ``omit`` names (a negative one counts back from the last) have no row.
    Returns each ticker's path."""
    os.makedirs(os.path.join(work, dirname))
    files = {}
    for tk in config["tickers"]:
        with open(os.path.join(work, config["data_dir"], f"{tk}.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        test_days = range(math.floor(config["split"]["train_fraction"] * len(rows)), len(rows))
        omitted = {test_days[t] for t in omit}
        files[tk] = os.path.join(dirname, f"{tk}.csv")
        with open(os.path.join(work, files[tk]), "w") as fh:
            fh.write("Date,Prediction\n")
            for a in test_days:
                if a not in omitted:
                    fh.write(f"{rows[a][0]},{rows[a - 1][4]}\n")
    return files


def _write_data(work: str, data_dir: str, texts: dict[str, str]) -> None:
    """Write ``<data_dir>/<TICKER>.csv`` for each text, as UTF-8 except
    where a lone surrogate stands for a byte that is not."""
    os.makedirs(os.path.join(work, data_dir))
    for tk, text in texts.items():
        with open(os.path.join(work, data_dir, f"{tk}.csv"), "wb") as fh:
            fh.write(text.encode("utf-8", "surrogateescape"))


def scenarios() -> list[tuple[str, list[list[str]]]]:
    """(name, argv of each command) in run order; every path is relative
    to the work directory."""
    listed = [
        ("desk_sweep", [argv for _, argv in commands(DESK, "desk.json", "desk")]),
        ("universe_sweep", [argv for _, argv in commands(UNIVERSE, "universe.json", "universe")]),
    ]
    for world, kinds in OTHER_STRATEGIES.items():
        for name in (*kinds, "proportional", *(f"{kind}_proportional" for kind in kinds)):
            config, out = f"{world}_{name}.json", f"{world}_{name}"
            listed.append((f"{world}_{name}", [
                ["backtest", "--config", config, "--out", out],
                ["attack", "sweep", "--config", config, "--out", out],
            ]))
    for world in OTHER_STRATEGIES:
        targeted = []
        for mode in ("conceal", "overestimate"):
            out = f"{world}_{mode}"
            targeted += [
                ["attack", "targeted", "--mode", mode, "--config", f"{world}.json", "--out", out],
                ["report", f"{out}/targeted_summary.json", f"{out}/targeted_cells.csv",
                 "--out", out],
            ]
        listed.append((f"{world}_targeted", targeted))
    listed.append(("desk_import", [
        [cmd, "--config", "desk_import.json", "--out", "desk_import"]
        for cmd in ("ingest", "backtest")
    ]))
    listed.append(("gapped_import", [
        ["backtest", "--config", f"{world}_gapped_{kind}.json", "--out", f"{world}_gapped_{kind}"]
        for world in OTHER_STRATEGIES for kind in STRATEGIES
    ]))
    cells = "desk/attack_AAA/sweep_cells.csv"
    listed.append(("rejected", [
        ["attack", "sweep", "--config", "desk.json", "--out", "bad", "--omega", "1"],
        ["ingest", "--config", "desk_bad_day.json", "--out", "bad"],
        ["attack", "sweep", "--config", "desk_bad_day.json", "--out", "bad"],
        ["ingest", "--config", "desk_unknown_files.json", "--out", "bad"],
        ["backtest", "--config", "desk_unknown_files.json", "--out", "bad"],
        ["report", cells, cells, "--out", "bad"],
        *(
            [cmd, "--config", f"desk_{name}.json", "--out", "bad"]
            for name in ("repeated_key", "zero_capital", "import_repeated", "short_train",
                         "import_date_outside", "import_date_in_train", "import_non_finite",
                         "import_duplicate_date")
            for cmd in ("ingest", "backtest")
        ),
        *(
            [*cmd, "--config", f"desk_{name}.json", "--out", "bad"]
            for name in ("attack_date_outside", "attack_date_in_train", "infeasible_omega")
            for cmd in (["ingest"], ["attack", "sweep"])
        ),
    ]))
    listed.append(("desk_csv", [
        ["ingest", "--config", "desk_csv.json", "--out", "desk_csv"],
        ["backtest", "--config", "desk_csv.json", "--out", "desk_csv"],
        ["backtest", "--config", "desk_bom.json", "--out", "desk_bom"],
    ]))
    listed.append(("rejected_csv", [
        ["ingest", "--config", f"desk_bad_{case}.json", "--out", "bad"] for case in BAD_CSV
    ]))
    return listed


def _snapshot(work: str) -> dict[str, str]:
    hashes = {}
    for parent, _, names in os.walk(work):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, work)] = _sha(fh.read())
    return hashes


def run_corpus(tree: str, work: str, names=None) -> list[Run]:
    """Prepare ``work`` and run the corpus's commands against ``tree``'s
    ``src``: every scenario, or those ``names`` lists, in corpus order."""
    prepare(work)
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(os.path.abspath(tree), "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",  # leave the tree as it is
    }
    runs = []
    before = _snapshot(work)
    # an input's path in a message is absolute; name it as the command did
    prefix = os.path.join(os.path.realpath(work), "")
    for scenario, argvs in scenarios():
        if names is not None and scenario not in names:
            continue
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "epsim.cli", *argv],
                cwd=work, env=env, capture_output=True, text=True,
            )
            after = _snapshot(work)
            written = {p: h for p, h in after.items() if before.get(p) != h}
            before = after
            runs.append(Run(
                scenario, tuple(argv), proc.returncode,
                proc.stdout.replace(prefix, ""), proc.stderr.replace(prefix, ""), written,
            ))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="CHECKOUT", help="another epsim tree to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="epsim-corpus-") as tmp:
        lines = [run.line() for run in run_corpus(ROOT, os.path.join(tmp, "this"))]
        if args.against is None:
            print("\n".join(lines))
            return 0
        other = [run.line() for run in run_corpus(args.against, os.path.join(tmp, "other"))]
    differ = [(a, b) for a, b in zip(other, lines) if a != b]
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
