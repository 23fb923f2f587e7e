"""OHLCV ingestion, validation, calendar alignment, and temporal splitting.

Ingestion format: CSV with a header naming at least
``Date,Open,High,Low,Close,Volume`` (an ``Adj Close`` column, if present, is
skipped; unrecognized extra columns are ignored). Dates are ISO-8601
(YYYY-MM-DD); anything else is rejected rather than guessed.

A series stores its days as columns: a tuple of dates and one immutable
``bytes`` block of n x 5 float64 values, row-major in ``FEATURE_NAMES``
order, which ``numpy.frombuffer`` reads without a copy. Series are
immutable after construction and safe to share across parallel simulation
runs. :class:`Record` is the base of epsim's immutable types that are not
named tuples.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import math
import re
import struct
from array import array
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigurationError, EpsimError, MarketDataError

if TYPE_CHECKING:  # annotations only: numpy is imported where it computes
    import numpy as np

FEATURE_NAMES = ("open", "high", "low", "close", "volume")
_CLOSE = FEATURE_NAMES.index("close")
ROW_BYTES = 8 * len(FEATURE_NAMES)  # one day of the OHLCV block
_ROW = struct.Struct(f"{len(FEATURE_NAMES)}d")

CSV_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Volume")


class Bar(NamedTuple):
    """One trading day of a single stock, as :attr:`StockSeries.bars` and
    :meth:`StockSeries.from_bars` give and take it. A series stores no bar.

    Invariants (low <= min(open, close), high >= max(open, close), prices > 0,
    volume >= 0) are enforced at ingestion via :func:`validate_bar`, not in the
    constructor: the full-rerun attack oracle in the tests builds bars whose
    close has been pushed outside the clean high/low range. The attack engine
    builds no bar; it perturbs the close in the scaled window.
    """

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float


def sliding_windows(values: np.ndarray, length: int) -> np.ndarray:
    """A read-only view whose row i is ``values[i : i + length]`` (a 1-D
    float64 array at least ``length`` long), each row reducing to the bits
    of that slice. (``as_strided``: ``sliding_window_view``'s checks cost
    more than a short band, and its first call adds about 0.2 MB of RSS.)"""
    from numpy.lib.stride_tricks import as_strided

    step = values.strides[0]
    return as_strided(values, (len(values) - length + 1, length), (step, step), writeable=False)


def validate_bar(bar: Bar, path) -> None:
    """Raise MarketDataError, naming ``path`` and the date, if the bar is
    inconsistent."""
    day = bar.date.isoformat()
    if not (bar.open > 0 and bar.high > 0 and bar.low > 0 and bar.close > 0):
        raise MarketDataError(f"{path}: non-positive price on {day}")
    if bar.volume < 0:
        raise MarketDataError(f"{path}: negative volume on {day}")
    if bar.low > min(bar.open, bar.close):
        raise MarketDataError(f"{path}: low {bar.low} above open/close on {day}")
    if bar.high < max(bar.open, bar.close):
        raise MarketDataError(f"{path}: high {bar.high} below open/close on {day}")


class Record:
    """An immutable value with named fields, built without generated code:
    the base of epsim's types that check their values, cache a result or
    must never equal a tuple. The others are named tuples, whose
    ``_fields`` and ``_asdict`` a record shares.

    A subclass names its fields in ``_fields``, lists them (and any cache)
    in ``__slots__`` and stores its arguments in ``__init__`` with
    ``self._set(locals())``, before it checks them. Two
    records are equal, and hash alike, when they have one type and equal
    fields; a record never equals a tuple. The repr is
    ``Name(field=value, ...)``, and setting or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, values: dict) -> None:
        """Store each field's value from ``values``, a mapping by name."""
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return type(self), self._values()


class StockSeries(Record):
    """Date-ordered OHLCV history for one ticker: ``dates``, a tuple of
    strictly increasing dates, and ``ohlcv``, a ``bytes`` block of
    ``len(dates)`` rows of five float64 values (native byte order) in
    ``FEATURE_NAMES`` order."""

    _fields = ("ticker", "dates", "ohlcv")
    __slots__ = _fields + ("_closes",)

    def __init__(self, ticker: str, dates: tuple[dt.date, ...], ohlcv: bytes):
        self._set(locals())
        if len(ohlcv) != ROW_BYTES * len(dates):
            raise MarketDataError(
                f"{ticker}: {len(ohlcv)} bytes of OHLCV for {len(dates)} days"
            )
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise MarketDataError(
                    f"{ticker}: dates not strictly increasing at {cur.isoformat()}"
                )

    @classmethod
    def from_bars(cls, ticker: str, bars) -> "StockSeries":
        """The series of ``bars``, each a :class:`Bar`."""
        bars = tuple(bars)
        values = array("d", [x for bar in bars for x in bar[1:]])
        return cls(ticker, tuple(bar[0] for bar in bars), values.tobytes())

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def bars(self) -> tuple[Bar, ...]:
        """Each day as a :class:`Bar`, built on each access."""
        return tuple(
            Bar(date, *row) for date, row in zip(self.dates, _ROW.iter_unpack(self.ohlcv))
        )

    def features(self, names) -> np.ndarray:
        """One row per day and one column per name of ``names`` (each of
        ``FEATURE_NAMES``), in that order: a new float64 array."""
        import numpy as np

        block = np.frombuffer(self.ohlcv, dtype=np.float64).reshape(-1, len(FEATURE_NAMES))
        return block[:, [FEATURE_NAMES.index(f) for f in names]]

    def closes(self) -> np.ndarray:
        """The closes as a contiguous read-only float64 array, built on
        first use."""
        try:
            return self._closes
        except AttributeError:
            import numpy as np

            every = np.frombuffer(self.ohlcv, dtype=np.float64)
            closes = every[_CLOSE :: len(FEATURE_NAMES)].copy()
            closes.flags.writeable = False
            object.__setattr__(self, "_closes", closes)
            return closes

    def _rows(self, start: int | None, stop: int | None) -> bytes:
        days = range(len(self.dates))[start:stop]
        return self.ohlcv[days.start * ROW_BYTES : days.stop * ROW_BYTES]

    def slice(self, start: int, stop: int | None = None) -> "StockSeries":
        """Days ``start`` up to ``stop``, counted as a tuple slice counts them."""
        return StockSeries(self.ticker, self.dates[start:stop], self._rows(start, stop))

    def restrict(self, dates: set[dt.date]) -> "StockSeries":
        """The days whose date is in ``dates``."""
        keep = [i for i, d in enumerate(self.dates) if d in dates]
        return StockSeries(
            self.ticker, tuple(self.dates[i] for i in keep), _take(self.ohlcv, keep)
        )


def _take(block: bytes, days) -> bytes:
    """The rows ``days`` of an OHLCV block, in that order."""
    rows = memoryview(block)
    return b"".join(rows[i * ROW_BYTES : (i + 1) * ROW_BYTES] for i in days)


class Dataset(NamedTuple):
    """A set of per-ticker series sharing one trading calendar."""

    series: dict[str, StockSeries]
    calendar: tuple[dt.date, ...]

    def tickers(self) -> list[str]:
        return sorted(self.series)

    def n_days(self) -> int:
        return len(self.calendar)

    def slice(self, start: int, stop: int | None = None) -> "Dataset":
        """Days ``start`` up to ``stop`` of every series. A series on the
        dataset's calendar shares the sliced calendar's tuple of dates."""
        calendar = self.calendar[start:stop]
        return Dataset(
            series={
                tk: StockSeries(tk, calendar, s._rows(start, stop))
                if s.dates == self.calendar
                else s.slice(start, stop)
                for tk, s in self.series.items()
            },
            calendar=calendar,
        )


class SplitSpec(Record):
    """Temporal train/test cut: first floor(train_fraction * N) days train."""

    __slots__ = _fields = ("train_fraction", "window")

    def __init__(self, train_fraction: float = 0.8, window: int = 50):
        self._set(locals())
        if not 0.0 < train_fraction < 1.0:
            raise ConfigurationError(
                f"train_fraction must be in (0,1), got {train_fraction}"
            )
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")

    def cut(self, n_days: int) -> int:
        """The number of train days of an ``n_days`` calendar, checked to
        hold the window."""
        n_train = int(math.floor(self.train_fraction * n_days))
        if n_train < self.window:
            raise ConfigurationError(
                f"train partition of {n_train} days is shorter than the "
                f"{self.window}-day window"
            )
        return n_train


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> dt.date:
    """A YYYY-MM-DD date. Python 3.11+ ``date.fromisoformat`` also accepts
    forms such as ``20200102`` and ``2020-W01-3``; those raise ValueError
    here, as every other malformed date does."""
    if _ISO_DATE.fullmatch(text) is None:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


@contextlib.contextmanager
def open_csv(path, error: type[EpsimError]):
    """``path`` opened for ``csv.reader``, without the UTF-8 byte-order mark
    an Excel export starts with. A byte that is not UTF-8, wherever it is
    read, raises ``error`` naming the path."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def reject_repeated_columns(path, header, columns, error: type[EpsimError]) -> None:
    """Raise ``error`` naming ``path`` when ``header`` names one of the
    required ``columns`` twice: a reader takes the first copy, and the other
    would be dropped without a word."""
    for column in columns:
        if header.count(column) > 1:
            raise error(f"{path}: header names {column!r} twice")


def _finite(raw: str, col: str, where: str) -> float:
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError as exc:
        raise MarketDataError(f"{where}: bad {col} value {raw!r}") from exc
    if not math.isfinite(value):
        raise MarketDataError(f"{where}: non-finite {col} value {raw!r}")
    return value


def _diagnose_row(
    path, raw, line_no: int, n_fields: int, i_date: int, columns
) -> Bar | None:
    """Parse one row field by field: the bar, None for a blank row, or the
    error naming the path and the line (or, for an inconsistent bar, the
    date)."""
    if not raw or all(not cell.strip() for cell in raw):
        return None
    where = f"{path}: line {line_no}"
    if len(raw) < n_fields:
        raise MarketDataError(f"{where}: expected {n_fields} fields, got {len(raw)}")
    try:
        date = parse_date(raw[i_date].strip())
    except ValueError as exc:
        raise MarketDataError(f"{where}: bad date {raw[i_date]!r}: {exc}") from exc
    bar = Bar(date, *(_finite(raw[i], c, where) for c, i in columns))
    validate_bar(bar, path)
    return bar


def load_csv(path, ticker: str) -> StockSeries:
    """Load and validate one ticker's OHLCV history.

    Returns a date-sorted series. Raises MarketDataError naming ``path``
    and, for a required column missing or named twice, the column; for a
    malformed row, its line number; for an inconsistent bar or a duplicate
    date, the date; or that the file has no data rows.
    """
    with open_csv(path, MarketDataError) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MarketDataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise MarketDataError(f"{path}: header missing columns {missing}")
        reject_repeated_columns(path, header, CSV_COLUMNS, MarketDataError)
        n_fields = len(header)
        i_date = header.index("Date")
        columns = [(c, header.index(c)) for c in CSV_COLUMNS[1:]]
        i_open, i_high, i_low, i_close, i_volume = (i for _, i in columns)

        dates = []
        values = array("d")
        for line_no, raw in enumerate(reader, start=2):
            # One pass for a well-formed row (float() ignores surrounding
            # spaces); any other row is parsed again by _diagnose_row, which
            # skips it, returns its bar or raises the error that names it.
            try:
                date = parse_date(raw[i_date].strip())
                o = float(raw[i_open])
                h = float(raw[i_high])
                lo = float(raw[i_low])
                c = float(raw[i_close])
                v = float(raw[i_volume])
            except (ValueError, IndexError):
                ok = False
            else:
                ok = (
                    len(raw) >= n_fields
                    and math.isfinite(o + h + lo + c + v)
                    and 0.0 < lo <= o <= h
                    and lo <= c <= h
                    and v >= 0.0
                )
            if ok:
                dates.append(date)
                values.extend((o, h, lo, c, v))
            else:
                bar = _diagnose_row(path, raw, line_no, n_fields, i_date, columns)
                if bar is not None:
                    dates.append(bar.date)
                    values.extend(bar[1:])

    if not dates:
        raise MarketDataError(f"{path}: no data rows")
    block = values.tobytes()
    if any(cur <= prev for prev, cur in zip(dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = [dates[i] for i in order]
        for prev, cur in zip(dates, dates[1:]):
            if cur == prev:
                raise MarketDataError(f"{path}: duplicate date {cur.isoformat()}")
        block = _take(block, order)
    return StockSeries(ticker, tuple(dates), block)


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
        raise MarketDataError("no series to align")
    for s in series_list:
        if not s.dates:
            raise MarketDataError(f"{s.ticker}: empty series")

    common = set(series_list[0].dates)
    for s in series_list[1:]:
        common &= set(s.dates)
    if not common:
        raise MarketDataError(
            "empty calendar intersection across tickers "
            + ", ".join(sorted(s.ticker for s in series_list))
        )

    # every series shares the calendar's tuple of dates
    calendar = tuple(sorted(common))
    return Dataset(
        series={
            s.ticker: StockSeries(
                s.ticker,
                calendar,
                s.ohlcv if s.dates == calendar else s.restrict(common).ohlcv,
            )
            for s in series_list
        },
        calendar=calendar,
    )


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Temporal cut, no shuffling: train is the first floor(fraction*N) days."""
    n_train = spec.cut(dataset.n_days())
    return dataset.slice(0, n_train), dataset.slice(n_train)
