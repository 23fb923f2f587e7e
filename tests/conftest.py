"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import csv
import datetime as dt

import numpy as np
import pytest

from epsim.market_data import Bar, Dataset, StockSeries, align_calendar

BASE_DATE = dt.date(2020, 1, 1)


def trading_dates(n: int, start: dt.date = BASE_DATE) -> list[dt.date]:
    """n consecutive weekdays starting at (or after) start."""
    dates = []
    d = start
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return dates


def make_bar(date: dt.date, close: float, volume: float = 1000.0) -> Bar:
    """A consistent bar whose OHLC brackets the close."""
    return Bar(
        date=date,
        open=close * 0.999,
        high=close * 1.01,
        low=close * 0.99,
        close=close,
        volume=volume,
    )


def series_from_closes(
    ticker: str, closes, start: dt.date = BASE_DATE, volumes=None
) -> StockSeries:
    closes = list(closes)
    dates = trading_dates(len(closes), start)
    if volumes is None:
        volumes = [1000.0] * len(closes)
    return StockSeries.from_bars(
        ticker, (make_bar(d, float(c), float(v)) for d, c, v in zip(dates, closes, volumes))
    )


def forecast_column(entries: dict[int, float], n: int) -> np.ndarray:
    """The forecast column of an n-day calendar holding ``entries`` ({day:
    value}), NaN on every other day."""
    column = np.full(n, np.nan)
    for day, value in entries.items():
        column[day] = value
    return column


def read_schema_csv(path, expected_schema: str) -> list[dict]:
    """The rows of a result CSV, after checking its ``# schema:`` line."""
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline() == f"# schema: {expected_schema}\n"
        return list(csv.DictReader(fh))


def random_walk_closes(rng: np.random.Generator, n: int, start=100.0, drift=0.0, vol=1.0):
    steps = rng.normal(drift, vol, size=n - 1)
    closes = start + np.concatenate([[0.0], np.cumsum(steps)])
    return np.maximum(closes, 1.0)


def random_series(
    rng: np.random.Generator, ticker: str, n: int, start=100.0, drift=0.0, vol=1.0
) -> StockSeries:
    closes = random_walk_closes(rng, n, start=start, drift=drift, vol=vol)
    volumes = rng.integers(500, 5000, size=n).astype(float)
    return series_from_closes(ticker, closes, volumes=volumes)


def dataset_from_closes(closes_by_ticker: dict[str, list[float]]) -> Dataset:
    return align_calendar(
        [series_from_closes(tk, closes) for tk, closes in closes_by_ticker.items()]
    )


def make_world(
    rng: np.random.Generator,
    tickers=("AAA", "BBB"),
    n: int = 160,
    window: int = 10,
    train_fraction: float = 0.5,
    vol: float = 2.0,
    drift: float = 0.1,
):
    """A fitted multi-ticker universe: (dataset, test_start, predictors)."""
    from epsim.config import PredictorConfig
    from epsim.market_data import SplitSpec, split
    from epsim.predictor import fit_baseline

    dataset = align_calendar(
        [
            random_series(rng, tk, n, start=80.0 + 30 * i, drift=drift, vol=vol)
            for i, tk in enumerate(tickers)
        ]
    )
    train, _ = split(dataset, SplitSpec(train_fraction=train_fraction, window=window))
    predictors = fit_baseline(train, PredictorConfig(window=window))
    return dataset, train.n_days(), predictors


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
