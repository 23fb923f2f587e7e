"""Seeded synthetic OHLCV inputs for the benchmark workloads.

Each ticker is a random walk of Gaussian close-to-close steps with a small
drift, floored at 1.0, on a weekday calendar, with integer volumes. Open,
high and low bracket the close so every bar passes epsim's ingest checks.
The same (seed, ticker, n_days) always gives the same bytes; only the
standard library is used, so the generator never depends on numpy's RNG.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import os
import random

START_DATE = dt.date(2015, 1, 5)


def weekdays(n: int, start: dt.date = START_DATE) -> list[dt.date]:
    days = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def ticker_csv(seed: int, ticker: str, n_days: int) -> str:
    """The ingestion CSV text for one ticker."""
    rng = random.Random(f"epsim-bench:{seed}:{ticker}")
    close = rng.uniform(40.0, 160.0)
    drift = rng.uniform(-0.02, 0.05)
    vol = rng.uniform(0.8, 2.5)
    lines = ["Date,Open,High,Low,Close,Volume"]
    for i, day in enumerate(weekdays(n_days)):
        if i:
            close = max(close + rng.gauss(drift, vol), 1.0)
        c = round(close, 4)
        o = round(max(c + rng.gauss(0.0, vol / 4), 1.0), 4)
        h = round(max(o, c) * (1.0 + rng.uniform(0.0, 0.02)), 4)
        lo = round(min(o, c) * (1.0 - rng.uniform(0.0, 0.02)), 4)
        volume = rng.randint(50_000, 5_000_000)
        lines.append(f"{day.isoformat()},{o:.4f},{h:.4f},{lo:.4f},{c:.4f},{volume}")
    return "\n".join(lines) + "\n"


def write_inputs(data_dir: str, seed: int, tickers, n_days: int) -> dict[str, str]:
    """Write <data_dir>/<TICKER>.csv for each ticker; returns SHA-256 per file."""
    os.makedirs(data_dir, exist_ok=True)
    hashes = {}
    for tk in tickers:
        text = ticker_csv(seed, tk, n_days).encode()
        with open(os.path.join(data_dir, f"{tk}.csv"), "wb") as fh:
            fh.write(text)
        hashes[f"{tk}.csv"] = hashlib.sha256(text).hexdigest()
    return hashes
