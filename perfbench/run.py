#!/usr/bin/env python3
"""Benchmark the epsim CLI the way a user drives it.

    python3 perfbench/run.py --workload desk_sweep --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from anywhere inside a checkout; it measures the checkout's ``src/``.
Inputs are generated from ``--seed`` before any timing starts.

``--trace 0``: each CLI command runs as its own ``python -m epsim.cli``
child, one at a time (a closed loop with one client, CLI defaults), timed
from outside; peak RSS comes from ``os.wait4``. After one untimed warm-up,
``ingest`` runs three times as set-up, then whole passes of the workload
repeat until ``--seconds`` would be exceeded (at least one pass).
``setup_s`` is the median of every ingest and ``peak_rss_mb`` the highest
peak of any command. The time metrics take the mean of the run's two
slowest passes (``attack_cells_per_s`` divides the cells by it). On a
shared host a command's time depends on how busy the neighbours are while
it runs: the contended speed changes less from run to run than the share
of passes that get it, so the slowest passes are steadier across runs than
the median pass, and the two slowest rather than one keep a single stray
pass from setting the value. On a 2-core VM (Intel Xeon, Python 3.11),
over ten sets of ten runs of 40-60 seconds, the quartile spread of the
per-run median pass reached 0.20-0.46 of its value in six sets; that of
the two slowest passes averaged 0.09 and reached 0.26 once.

``--trace 1``: the same commands run in this process through
``epsim.cli.main(argv)``, alternating untraced and traced passes, with the
public functions of each module wrapped (see ``tracing.py``). Reports the
per-layer metrics and ``trace.overhead_frac``; every traced pass must write
files byte-identical to the untraced pass.

Both modes check every pass's outputs (``checks.py``), compare each file's
SHA-256 across passes and with the last fully correct run of the same seed,
and write a record (environment, input and output hashes, samples) under
``.perfbench_work/results/``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
any check, command or attack cell failed. Without ``--workload`` the last
line sums every workload's counts and prefixes each metric with
``<workload>.``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen
import tracing
from workloads import WORKLOADS, commands, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
DEFAULT_SECONDS = 60  # BENCHMARK.json run_seconds

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "backtest_s": "s",
    "attack_cells_per_s": "cells/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics measured around the traced passes rather than from spans.
TRACE_EXTRA_UNITS = {
    "cli.import_s": "s",
    "pipeline.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}

# ROADMAP "Recent" baseline on a 2-core box (Python 3.11.7, numpy 2.4.6), kept
# beside each result so the trajectory's starting point can be compared.
ROADMAP_RECENT = {
    "desk_one_ticker_sweep_command_s": "0.85-1.0 (240 cells, CLI)",
    "desk_backtest_s": "0.25",
    "universe_clean_run_ms_per_forecast": "0.68 (clean_run 4.1 s for 20 x 300 forecasts)",
    "universe_cell_ms": "33 (ma_crossover, 20 x 1500 days)",
}


def run_child(argv: list[str], log_path: str) -> tuple[float, int, int]:
    """Run one CLI command; returns (wall seconds, exit code, peak RSS in KiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "epsim.cli", *argv],
            stdout=log, stderr=subprocess.STDOUT, env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def cli_pass(w, config: str, out: str) -> dict:
    """One pass of the workload's commands, each a child process."""
    logs = out + "_logs"
    os.makedirs(logs, exist_ok=True)
    sample = {"fit_s": 0.0, "backtest_s": 0.0, "attack_s": 0.0, "peak_rss_kb": 0,
              "failed_commands": 0, "commands": 0}
    start = time.perf_counter()
    for i, (kind, argv) in enumerate(commands(w, config, out)):
        wall, rc, rss = run_child(argv, os.path.join(logs, f"{i:02d}-{kind}.log"))
        sample["commands"] += 1
        sample["failed_commands"] += rc != 0
        sample["peak_rss_kb"] = max(sample["peak_rss_kb"], rss)
        if kind == "ingest":
            sample["ingest_s"] = wall
        elif kind in ("fit", "backtest"):
            sample[f"{kind}_s"] = wall
        elif kind == "attack":
            sample["attack_s"] += wall
    sample["wall_s"] = time.perf_counter() - start
    return sample


def inproc_pass(cli, w, config: str, out: str, tracer=None) -> dict:
    """One pass through ``epsim.cli.main`` in this process, traced or not."""
    uninstall = tracing.install(tracer) if tracer is not None else None
    sample = {"failed_commands": 0, "commands": 0}
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        for i, (kind, argv) in enumerate(commands(w, config, out)):
            if tracer is not None:
                tracer.run_id = i
                span = tracer.open(f"cli.{kind}")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            if tracer is not None:
                tracer.close(span)
            sample["commands"] += 1
            sample["failed_commands"] += rc != 0
    finally:
        if uninstall is not None:
            uninstall()
    sample["wall_s"] = time.perf_counter() - start
    return sample


def verify(w, out: str, seed: int, reference: dict | None):
    """Checks for one pass plus byte identity against a reference
    ``{"source": ..., "hashes": ...}``."""
    results = checks.check_pass(w, out, seed)
    hashes = checks.file_hashes(out)
    if reference is not None:
        ref = reference["hashes"]
        diff = sorted(k for k in set(hashes) | set(ref) if hashes.get(k) != ref.get(k))
        results.append(("byte_identical", not diff,
                        f"differs from {reference['source']}: {diff[:5]}"))
    return results, hashes


def seed_hashes_path(w, seed: int) -> str:
    return os.path.join(WORK, "hashes", f"{w.name}-seed{seed}.json")


def load_seed_hashes(w, seed: int) -> dict | None:
    """Output hashes of the last fully correct run of this seed, if any."""
    try:
        with open(seed_hashes_path(w, seed)) as fh:
            stored = json.load(fh)
        commit = stored["git_commit"] or "unknown"
        return {"source": f"an earlier run of seed {seed} at commit {commit}",
                "hashes": stored["hashes"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store_seed_hashes(w, seed: int, hashes: dict) -> None:
    os.makedirs(os.path.dirname(seed_hashes_path(w, seed)), exist_ok=True)
    with open(seed_hashes_path(w, seed), "w") as fh:
        json.dump({"git_commit": git_commit(), "hashes": hashes}, fh, indent=1, sort_keys=True)


def repeat_for(seconds: float, one_pass) -> list:
    """Call one_pass(i) until another pass would end after ``seconds``."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(one_pass(len(samples)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) > seconds:
            return samples


def slowest_two(values) -> float:
    """Mean of the two largest values (the only one, if there is one)."""
    top = sorted(values)[-2:]
    return sum(top) / len(top)


def measure(w, args, work: str, config: str, seed_ref: dict | None) -> dict:
    """Untraced CLI run: set-up samples, then timed passes."""
    rec = {"commands": 0, "failed_commands": 0, "checks": [], "cells": 0, "cell_errors": 0}
    setup = []
    for i in range(SETUP_REPS + 1):
        argv = ["ingest", "--config", config, "--out", os.path.join(work, "setup")]
        wall, rc, _ = run_child(argv, os.path.join(work, f"setup-{i}.log"))
        rec["commands"] += 1
        rec["failed_commands"] += rc != 0
        if i:  # the first ingest warms the page cache and bytecode cache
            setup.append(wall)

    first = {}

    def one_pass(i):
        out = os.path.join(work, f"pass{i}")
        sample = cli_pass(w, config, out)
        results, hashes = verify(w, out, args.seed, first.get("ref", seed_ref))
        first.setdefault("ref", {"source": "pass0 of this run", "hashes": hashes})
        rec["checks"] += [(f"pass{i}.{n}", ok, d) for n, ok, d in results]
        rec["cells"] += w.cells
        rec["cell_errors"] += checks.cell_errors(w, out)
        return sample

    samples = repeat_for(args.seconds, one_pass)
    for s in samples:
        rec["commands"] += s["commands"]
        rec["failed_commands"] += s["failed_commands"]

    med = statistics.median
    rec["metrics"] = {
        "setup_s": med(setup + [s["ingest_s"] for s in samples]),
        "fit_s": slowest_two(s["fit_s"] for s in samples),
        "backtest_s": slowest_two(s["backtest_s"] for s in samples),
        "attack_cells_per_s": w.cells / slowest_two(s["attack_s"] for s in samples),
        "wall_s": slowest_two(s["wall_s"] for s in samples),
        "peak_rss_mb": max(s["peak_rss_kb"] for s in samples) / 1024,
    }
    rec["units"] = END_TO_END_UNITS
    rec["samples"] = {"setup_s": setup, "passes": samples}
    rec["passes"] = len(samples)
    rec["output_hashes"] = first["ref"]["hashes"]
    rec["roadmap_recent"] = {
        "roadmap": ROADMAP_RECENT,
        "measured": {
            "one_attack_command_s": med(s["attack_s"] / len(w.attacks) for s in samples),
            "backtest_s": rec["metrics"]["backtest_s"],
            "note": "CLI child processes, including interpreter and numpy start-up",
        },
    }
    return rec


def measure_traced(w, args, work: str, config: str, seed_ref: dict | None) -> dict:
    """In-process run: alternating untraced and traced passes."""
    rec = {"commands": 0, "failed_commands": 0, "checks": [], "cells": 0, "cell_errors": 0}
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import epsim.cli as cli  # first import of epsim and numpy in this process

    import_s = time.perf_counter() - start
    tracers = []

    def one_pair(i):
        walls = []
        for traced in (False, True):
            label = f"pass{i}-{'traced' if traced else 'plain'}"
            out = os.path.join(work, label)
            tracer = tracing.Tracer() if traced else None
            sample = inproc_pass(cli, w, config, out, tracer)
            results, hashes = verify(w, out, args.seed, rec.get("plain_ref", seed_ref))
            if not traced:
                rec.setdefault("plain_ref", {"source": "pass0-plain of this run",
                                             "hashes": hashes})
            rec["checks"] += [(f"{label}.{n}", ok, d) for n, ok, d in results]
            rec["commands"] += sample["commands"]
            rec["failed_commands"] += sample["failed_commands"]
            rec["cells"] += w.cells
            rec["cell_errors"] += checks.cell_errors(w, out)
            walls.append(sample["wall_s"])
            if traced:
                tracers.append(tracer)
            if traced and "bytes_written" not in rec:
                rec["bytes_written"] = sum(os.path.getsize(os.path.join(d, f))
                                           for d, _, files in os.walk(out) for f in files)
        return walls

    pairs = repeat_for(args.seconds, one_pair)

    layers = tracing.layer_metrics(tracers[0].spans, tracers[0].counts)
    # Cells of every traced pass, so the tail percentile has enough samples.
    layers.update(tracing.cell_percentiles(
        [ms for t in tracers for ms in tracing.cell_times_ms(t.spans)]))
    plain = statistics.median(p[0] for p in pairs)
    traced = statistics.median(p[1] for p in pairs)
    extra = {"cli.import_s": import_s, "pipeline.bytes_written": rec["bytes_written"],
             "trace.overhead_frac": traced / plain - 1.0}
    layers.update((k, (v, TRACE_EXTRA_UNITS[k])) for k, v in extra.items())
    rec["metrics"] = {k: v for k, (v, _) in layers.items()}
    rec["units"] = {k: u for k, (_, u) in layers.items()}
    rec["samples"] = {"pairs_plain_traced_s": pairs}
    rec["passes"] = len(pairs)
    rec["output_hashes"] = rec.pop("plain_ref")["hashes"]
    rec["spans"] = tracers[0].spans
    clean_runs = [(s[tracing.END] - s[tracing.START]) / 1e9
                  for s in tracers[0].spans if s[tracing.NAME] == "attack.clean_run"]
    rec["roadmap_recent"] = {
        "roadmap": ROADMAP_RECENT,
        "measured": {
            "clean_run_ms_per_forecast": (
                1e3 * statistics.median(clean_runs) / (len(w.tickers) * w.n_test)
                if clean_runs else None),
            "cell_ms_p50": rec["metrics"]["attack.cell_ms.p50"],
            "note": f"in-process traced pass, {len(w.tickers)} tickers x {w.n_days} days",
        },
    }
    return rec


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, passes: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "passes": passes,
    }


def run_workload(args) -> int:
    w = WORKLOADS[args.workload]
    work = os.path.join(WORK, w.name)
    shutil.rmtree(work, ignore_errors=True)
    data_dir = os.path.join(work, "data")
    input_hashes = gen.write_inputs(data_dir, args.seed, w.tickers, w.n_days)
    config = os.path.join(work, "run.json")
    write_config(w, config, data_dir)

    seed_ref = load_seed_hashes(w, args.seed)
    rec = (measure_traced if args.trace else measure)(w, args, work, config, seed_ref)

    failed_checks = [c for c in rec["checks"] if not c[1]]
    attempted = rec["commands"] + rec["cells"] + len(rec["checks"])
    failed = rec["failed_commands"] + rec["cell_errors"] + len(failed_checks)
    if failed == 0 and seed_ref is None:
        store_seed_hashes(w, args.seed, rec["output_hashes"])
    record = {
        "environment": environment(args, rec.pop("passes")),
        "input_sha256": input_hashes,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        **{k: v for k, v in rec.items() if k not in ("checks", "spans")},
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{w.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if "spans" in rec:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run"],
                       "spans": rec["spans"]}, fh)

    for name, ok, detail in failed_checks:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    for name, value in rec["metrics"].items():
        print(f"{w.name} {name} = {value:.6g} {rec['units'][name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": rec["units"][k]} for k, v in rec["metrics"].items()},
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; the
    last line sums their results. A child that exits nonzero or prints no
    result counts as one more failed operation."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"attempted": 0, "failed": 0, "metrics": {}}
            else:
                lines.pop()
            if lines:
                print("\n".join(lines))
            total["attempted"] += result["attempted"] + (proc.returncode != 0)
            total["failed"] += result["failed"] + (proc.returncode != 0)
            total["metrics"].update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 1 if total["failed"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=checks.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "epsim", "cli.py")):
        print(f"error: no epsim sources under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
