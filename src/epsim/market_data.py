"""OHLCV ingestion, validation, calendar alignment, and temporal splitting.

Ingestion format: CSV with a header naming at least
``Date,Open,High,Low,Close,Volume`` (an ``Adj Close`` column, if present, is
skipped; unrecognized extra columns are ignored). Dates are ISO-8601
(YYYY-MM-DD); anything else is rejected rather than guessed.

Series are immutable after construction and safe to share across parallel
simulation runs.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    ConfigurationError,
    CsvParseError,
    EmptyInputError,
    ValidationError,
    WindowError,
)

FEATURE_NAMES = ("open", "high", "low", "close", "volume")

CSV_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Volume")


@dataclass(frozen=True)
class Bar:
    """One trading day of a single stock.

    Invariants (low <= min(open, close), high >= max(open, close), prices > 0,
    volume >= 0) are enforced at ingestion via :func:`validate_bar`, not in the
    constructor: the attack harness deliberately builds bars whose close has
    been pushed outside the clean high/low range.
    """

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def feature(self, name: str) -> float:
        if name not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {name!r}")
        return getattr(self, name)


def feature_matrix(bars, features: tuple[str, ...]) -> np.ndarray:
    """Rows are the given bars, columns follow the requested feature order."""
    columns = [FEATURE_NAMES.index(f) for f in features]
    every = np.array(
        [(b.open, b.high, b.low, b.close, b.volume) for b in bars],
        dtype=np.float64,
    ).reshape(-1, len(FEATURE_NAMES))
    return every[:, columns]


def validate_bar(bar: Bar) -> None:
    """Raise ValidationError (naming the date) if the bar is inconsistent."""
    if not (bar.open > 0 and bar.high > 0 and bar.low > 0 and bar.close > 0):
        raise ValidationError(f"non-positive price on {bar.date.isoformat()}")
    if bar.volume < 0:
        raise ValidationError(f"negative volume on {bar.date.isoformat()}")
    if bar.low > min(bar.open, bar.close):
        raise ValidationError(
            f"low {bar.low} above open/close on {bar.date.isoformat()}"
        )
    if bar.high < max(bar.open, bar.close):
        raise ValidationError(
            f"high {bar.high} below open/close on {bar.date.isoformat()}"
        )


@dataclass(frozen=True)
class StockSeries:
    """Date-ordered OHLCV history for one ticker."""

    ticker: str
    bars: tuple[Bar, ...]

    def __post_init__(self):
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date <= prev.date:
                raise ValidationError(
                    f"{self.ticker}: dates not strictly increasing at "
                    f"{cur.date.isoformat()}"
                )

    def __len__(self) -> int:
        return len(self.bars)

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(b.date for b in self.bars)

    def closes(self) -> np.ndarray:
        return np.array([b.close for b in self.bars], dtype=np.float64)

    def restrict(self, dates: set[dt.date]) -> "StockSeries":
        return StockSeries(
            self.ticker, tuple(b for b in self.bars if b.date in dates)
        )


@dataclass(frozen=True)
class Dataset:
    """A set of per-ticker series sharing one trading calendar."""

    series: dict[str, StockSeries]
    calendar: tuple[dt.date, ...]

    def tickers(self) -> list[str]:
        return sorted(self.series)

    def n_days(self) -> int:
        return len(self.calendar)

    def slice(self, start: int, stop: int | None = None) -> "Dataset":
        stop = len(self.calendar) if stop is None else stop
        return Dataset(
            series={
                tk: StockSeries(tk, s.bars[start:stop])
                for tk, s in self.series.items()
            },
            calendar=self.calendar[start:stop],
        )


@dataclass(frozen=True)
class SplitSpec:
    """Temporal train/test cut: first floor(train_fraction * N) days train."""

    train_fraction: float = 0.8
    window: int = 50

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError(
                f"train_fraction must be in (0,1), got {self.train_fraction}"
            )
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")


def _finite(raw: str, col: str, line_no: int) -> float:
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError as exc:
        raise CsvParseError(f"line {line_no}: bad {col} value {raw!r}") from exc
    if not math.isfinite(value):
        raise CsvParseError(f"line {line_no}: non-finite {col} value {raw!r}")
    return value


def load_csv(path, ticker: str) -> StockSeries:
    """Load and validate one ticker's OHLCV history.

    Returns a date-sorted series. Raises:
      CsvParseError    - malformed row, with its line number
      ValidationError  - OHLC inconsistency, naming the date
      EmptyInputError  - file with no data rows
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise CsvParseError(f"{path}: header missing columns {missing}")
        i_date = header.index("Date")
        columns = [(c, header.index(c)) for c in CSV_COLUMNS[1:]]

        bars = []
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) < len(header):
                raise CsvParseError(
                    f"line {line_no}: expected {len(header)} fields, got {len(raw)}"
                )
            try:
                date = dt.date.fromisoformat(raw[i_date].strip())
            except ValueError as exc:
                raise CsvParseError(
                    f"line {line_no}: bad date {raw[i_date]!r}: {exc}"
                ) from exc
            bar = Bar(date, *(_finite(raw[i], c, line_no) for c, i in columns))
            validate_bar(bar)
            bars.append(bar)

    if not bars:
        raise EmptyInputError(f"{path}: no data rows")
    bars.sort(key=lambda b: b.date)
    for prev, cur in zip(bars, bars[1:]):
        if cur.date == prev.date:
            raise ValidationError(f"duplicate date {cur.date.isoformat()}")
    return StockSeries(ticker=ticker, bars=tuple(bars))


def save_csv(series: StockSeries, path) -> None:
    """Re-serialize a series in the ingestion format (lossless for all fields)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for b in series.bars:
            # repr of a builtin float is the shortest round-tripping form;
            # coerce first so numpy scalars do not leak their own repr.
            writer.writerow(
                [
                    b.date.isoformat(),
                    repr(float(b.open)),
                    repr(float(b.high)),
                    repr(float(b.low)),
                    repr(float(b.close)),
                    repr(float(b.volume)),
                ]
            )


def align_calendar(series_set) -> Dataset:
    """Restrict every series to the intersection of all trading calendars.

    Missing days are dropped, never imputed, so all series stay synchronous.
    """
    series_list = list(series_set)
    if not series_list:
        raise AlignmentError("no series to align")
    for s in series_list:
        if not s.bars:
            raise AlignmentError(f"{s.ticker}: empty series")

    common = set(series_list[0].dates())
    for s in series_list[1:]:
        common &= set(s.dates())
    if not common:
        raise AlignmentError(
            "empty calendar intersection across tickers "
            + ", ".join(sorted(s.ticker for s in series_list))
        )

    calendar = tuple(sorted(common))
    return Dataset(
        series={s.ticker: s.restrict(common) for s in series_list},
        calendar=calendar,
    )


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Temporal cut, no shuffling: train is the first floor(fraction*N) days."""
    n = dataset.n_days()
    n_train = int(math.floor(spec.train_fraction * n))
    if n_train < spec.window:
        raise ConfigurationError(
            f"train partition of {n_train} days is shorter than the "
            f"{spec.window}-day window"
        )
    return dataset.slice(0, n_train), dataset.slice(n_train, n)


def window(series: StockSeries, t: int, w: int) -> tuple[Bar, ...]:
    """The w bars for days t-w+1 .. t inclusive. Never reaches past day t."""
    if w < 1:
        raise WindowError(f"window length must be >= 1, got {w}")
    if t < w - 1 or t >= len(series.bars):
        raise WindowError(
            f"{series.ticker}: no {w}-day window ending at index {t} "
            f"(series has {len(series.bars)} bars)"
        )
    return series.bars[t - w + 1 : t + 1]
