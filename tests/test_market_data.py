import csv
import datetime as dt
import importlib.util
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsim.config import CostModel, PredictorConfig, RunConfig, StrategyConfig
from epsim.errors import ConfigurationError, MarketDataError, PredictorError
from epsim.files import plan, read_forecasts
from epsim.market_data import (
    CSV_COLUMNS,
    ROW_BYTES,
    Bar,
    Dataset,
    SplitSpec,
    StockSeries,
    _diagnose_row,
    align_calendar,
    load_csv,
    save_csv,
    split,
)
from epsim.predictor import fit_baseline, predict_test_series

from conftest import dataset_from_closes, random_series, series_from_closes, trading_dates
from oracles import load_csv_oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("gen", os.path.join(ROOT, "perfbench", "gen.py"))
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


HEADER = "Date,Open,High,Low,Close,Volume"

# The two kinds of row fault: a malformed row, named by its line, and an
# inconsistent bar, named by its date. Both raise MarketDataError; the
# parametrized ids keep the names the two kinds' classes had before the data
# errors were merged into that one class.
PARSE, INCONSISTENT = "CsvParseError", "ValidationError"


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(
            path,
            [
                HEADER,
                "2020-01-02,10,12,9,11,1000",
                "2020-01-03,11,11,11,11,0",
            ],
        )
        series = load_csv(path, "T")
        assert len(series) == 2
        assert [b.close for b in series.bars] == [11.0, 11.0]
        assert series.bars[0].date == dt.date(2020, 1, 2)
        assert series.bars[1].volume == 0.0

    def test_low_above_open_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [HEADER, "2020-01-02,10,14,13,11,1000"])
        with pytest.raises(MarketDataError, match="2020-01-02"):
            load_csv(path, "T")

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(
            path,
            [HEADER, "2020-01-02,10,12,9,11,1000", "2020-01-03,10,12,9,oops,1000"],
        )
        with pytest.raises(MarketDataError, match="line 3"):
            load_csv(path, "T")

    def test_bad_date_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [HEADER, "01/02/2020,10,12,9,11,1000"])
        with pytest.raises(MarketDataError, match="line 2"):
            load_csv(path, "T")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(MarketDataError, match="empty file"):
            load_csv(path, "T")

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [HEADER])
        with pytest.raises(MarketDataError, match="no data rows"):
            load_csv(path, "T")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["Date,Open,High,Low,Close", "2020-01-02,10,12,9,11"])
        with pytest.raises(MarketDataError, match="Volume"):
            load_csv(path, "T")

    @pytest.mark.parametrize("column", ["Close", "Date"])
    def test_required_column_named_twice(self, tmp_path, column):
        # csv readers take the first copy; the second was dropped without a word
        path = tmp_path / "t.csv"
        write_lines(path, [f"{HEADER},{column}", "2020-01-02,10,12,9,11,1000,22"])
        with pytest.raises(MarketDataError) as info:
            load_csv(path, "T")
        assert str(info.value) == f"{path}: header names {column!r} twice"

    def test_ignored_column_named_twice_stays_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [f"{HEADER},Adj Close,Adj Close", "2020-01-02,10,12,9,11,1000,1,2"])
        assert load_csv(path, "T").bars[0].close == 11.0

    def test_adj_close_skipped_and_rows_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(
            path,
            [
                "Date,Open,High,Low,Close,Adj Close,Volume",
                "2020-01-03,11,12,10,11.5,99,2000",
                "2020-01-02,10,12,9,11,98,1000",
            ],
        )
        series = load_csv(path, "T")
        assert [b.date.day for b in series.bars] == [2, 3]
        assert [b.close for b in series.bars] == [11.0, 11.5]

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(
            path,
            [HEADER, "2020-01-02,10,12,9,11,1000", "2020-01-02,10,12,9,11,1000"],
        )
        with pytest.raises(MarketDataError, match="duplicate"):
            load_csv(path, "T")

    @pytest.mark.parametrize(
        "row, kind, message",
        [
            ("2020-01-03,x,12,9,11,1000", PARSE, "line 5: bad Open value 'x'"),
            ("2020-01-03,10,x,9,11,1000", PARSE, "line 5: bad High value 'x'"),
            ("2020-01-03,10,12,x,11,1000", PARSE, "line 5: bad Low value 'x'"),
            ("2020-01-03,10,12,9, x ,1000", PARSE, "line 5: bad Close value 'x'"),
            ("2020-01-03,10,12,9,11,", PARSE, "line 5: bad Volume value ''"),
            (
                "2020-01-03,10,12,9, nan ,1000",
                PARSE,
                "line 5: non-finite Close value 'nan'",
            ),
            ("2020-01-03,10,inf,9,11,1000", PARSE, "line 5: non-finite High value 'inf'"),
            (
                "2020-01-03,10,12,9,11,-inf",
                PARSE,
                "line 5: non-finite Volume value '-inf'",
            ),
            ("2020-01-03,10,12,9,11", PARSE, "line 5: expected 6 fields, got 5"),
            (
                "01/03/2020,10,12,9,11,1000",
                PARSE,
                "line 5: bad date '01/03/2020': Invalid isoformat string: '01/03/2020'",
            ),
            # the first fault in the order length, date, Open .. Volume is named
            ("2020-01-03,x,12,9,y,1000", PARSE, "line 5: bad Open value 'x'"),
            (
                "nope,x,12,9,11,1000",
                PARSE,
                "line 5: bad date 'nope': Invalid isoformat string: 'nope'",
            ),
            # forms Python 3.11+ date.fromisoformat reads but YYYY-MM-DD is not
            (
                "20200103,10,12,9,11,1000",
                PARSE,
                "line 5: bad date '20200103': Invalid isoformat string: '20200103'",
            ),
            (
                "2020-W01-5,10,12,9,11,1000",
                PARSE,
                "line 5: bad date '2020-W01-5': Invalid isoformat string: '2020-W01-5'",
            ),
            ("nope,x", PARSE, "line 5: expected 6 fields, got 2"),
            ("2020-01-03,0,12,9,11,1000", INCONSISTENT, "non-positive price on 2020-01-03"),
            ("2020-01-03,10,12,9,11,-1", INCONSISTENT, "negative volume on 2020-01-03"),
            (
                "2020-01-03,10,14,13,11,1000",
                INCONSISTENT,
                "low 13.0 above open/close on 2020-01-03",
            ),
            (
                "2020-01-03,10,12,10,9.5,1000",
                INCONSISTENT,
                "low 10.0 above open/close on 2020-01-03",
            ),
            (
                "2020-01-03,10,10.5,9,11,1000",
                INCONSISTENT,
                "high 10.5 below open/close on 2020-01-03",
            ),
            (
                "2020-01-03,12,11.5,9,11,1000",
                INCONSISTENT,
                "high 11.5 below open/close on 2020-01-03",
            ),
        ],
    )
    def test_rejected_row_message(self, tmp_path, row, kind, message):
        # the blank and whitespace-only rows are skipped but still counted
        path = tmp_path / "t.csv"
        write_lines(path, [HEADER, "2020-01-02,10,12,9,11,1000", "", " , ,", row])
        with pytest.raises(MarketDataError) as excinfo:
            load_csv(path, "T")
        assert str(excinfo.value) == f"{path}: {message}"
        assert message.startswith("line 5: ") == (kind == PARSE)

    def test_row_shorter_than_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(
            path,
            ["Date,Open,High,Low,Close,Volume,Adj Close", "2020-01-02,10,12,9,11,1000"],
        )
        with pytest.raises(MarketDataError) as excinfo:
            load_csv(path, "T")
        assert str(excinfo.value) == f"{path}: line 2: expected 7 fields, got 6"

    def test_padded_values_and_extra_columns_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(
            path,
            [
                " Volume ,Adj Close,Close,Date,Note,Low,High,Open",
                " 1000 , 98 , 11 , 2020-01-02 ,x, 9 , 12 , 10 ",
                "",
                "   ",
                ",,,,,,,",
                "0,99,11.5,2020-01-03,, 11.5,11.5,11.5",
                "1e308,1,1.5e308,2020-01-06,,1e308,1.7e308,1.5e308",
            ],
        )
        series = load_csv(path, "T")
        assert series.bars == (
            Bar(dt.date(2020, 1, 2), 10.0, 12.0, 9.0, 11.0, 1000.0),
            Bar(dt.date(2020, 1, 3), 11.5, 11.5, 11.5, 11.5, 0.0),
            Bar(dt.date(2020, 1, 6), 1.5e308, 1.7e308, 1e308, 1.5e308, 1e308),
        )

    def test_round_trip_is_field_exact(self, tmp_path, rng):
        closes = 50.0 + np.cumsum(rng.normal(0, 1.7, size=60))
        original = series_from_closes("RT", np.maximum(closes, 1.0))
        out = tmp_path / "rt.csv"
        save_csv(original, out)
        reloaded = load_csv(out, "RT")
        assert reloaded == original


PAD = st.sampled_from(["", " ", "  "])
BAD_DATES = st.sampled_from(
    ["", "nope", "20200102", "2020-W01-3", "2020W013", "2020-02-30", "2020-1-2"]
)
BAD_NUMBERS = st.sampled_from(["", "x", "-1", "0", "nan", "inf", "-inf", "1e400"])


@st.composite
def csv_files(draw):
    """A header and one CSV line: a blank line, or a row of a date and
    prices (which may overflow a sum, or be out of OHLC order) with at most
    one field replaced by a bad value, perhaps cut short or followed by an
    extra cell."""
    header = draw(st.sampled_from([HEADER, HEADER + ",Adj Close"]))
    if draw(st.integers(0, 9)) == 0:
        return header, draw(st.sampled_from(["", " ", ",,,,,", " , ,"]))
    date = draw(st.dates(dt.date(1990, 1, 1), dt.date(2040, 12, 31))).isoformat()
    prices = st.sampled_from(["9", "10", "11", "12.5", "1_0", "1e308", "1.5e308", "1.7e308"])
    low, a, b, high = sorted(draw(st.lists(prices, min_size=4, max_size=4)), key=float)
    if draw(st.booleans()):
        a, b = b, a
    volume = draw(st.sampled_from(["1000", "0", "-0", "1e308"]))
    fields = [date, a, high, low, b, volume]
    if draw(st.integers(0, 3)) == 0:  # OHLC out of order
        fields[1:5] = draw(st.permutations(fields[1:5]))
    if draw(st.booleans()):
        k = draw(st.integers(0, 5))
        fields[k] = draw(BAD_DATES if k == 0 else BAD_NUMBERS)
    fields = [draw(PAD) + f + draw(PAD) for f in fields]
    if header != HEADER or draw(st.booleans()):
        fields.append(draw(st.sampled_from(["", "7", " x "])))
    if draw(st.integers(0, 4)) == 0:
        fields = fields[: draw(st.integers(1, len(fields) - 1))]
    return header, ",".join(fields)


class TestLoadCsvDifferential:
    @given(file=csv_files())
    @example(file=(HEADER, "2020-01-02,10,12,9,11,inf"))
    @example(file=(HEADER, "2020-01-02,10,12,0,11,1000"))
    @example(file=(HEADER, "20200102,10,12,9,11,1000"))
    @example(file=(HEADER, "2020-01-02,1e308,1.7e308,1e308,1.5e308,1e308"))
    @settings(max_examples=600, deadline=None)
    def test_one_row_load_equals_the_field_by_field_parse(self, tmp_path_factory, file):
        # load_csv parses a row in one pass and hands any row that fails it to
        # _diagnose_row; either way the result must be _diagnose_row's
        header, line = file
        path = tmp_path_factory.mktemp("diff") / "t.csv"
        write_lines(path, [header, line])
        names = header.split(",")
        raw = next(csv.reader([line]), [])
        columns = [(c, names.index(c)) for c in CSV_COLUMNS[1:]]
        try:
            want = _diagnose_row(path, raw, 2, len(names), names.index("Date"), columns)
        except MarketDataError as exc:
            with pytest.raises(type(exc)) as excinfo:
                load_csv(path, "T")
            assert str(excinfo.value) == str(exc)
            return
        if want is None:
            with pytest.raises(MarketDataError, match="no data rows"):
                load_csv(path, "T")
            return
        assert [repr(b) for b in load_csv(path, "T").bars] == [repr(want)]


CELL_TEXT = st.sampled_from(["9", "10", "11", "12.5", "1e308", "1.5e308", "1.7e308"])


@st.composite
def csv_texts(draw):
    """A whole OHLCV CSV text: rarely empty or missing a header column;
    the required columns, an ``Adj Close`` and unknown extra columns in any
    order, every cell perhaps padded; rows in any order, some blank, some
    dates repeated, a few rows with a bad date or number or an inconsistent
    bar."""
    if draw(st.integers(0, 24)) == 0:
        return ""
    columns = [*CSV_COLUMNS, *draw(st.lists(st.sampled_from(["Adj Close", "Note", "X"]),
                                             max_size=2, unique=True))]
    columns = draw(st.permutations(columns))
    if draw(st.integers(0, 14)) == 0:
        columns.remove(draw(st.sampled_from(CSV_COLUMNS)))
    lines = [",".join(draw(PAD) + c + draw(PAD) for c in columns)]
    days = draw(st.lists(st.dates(dt.date(2020, 1, 1), dt.date(2020, 3, 31)),
                         min_size=1, max_size=8, unique=True))
    if days and draw(st.integers(0, 5)) == 0:
        days.append(draw(st.sampled_from(days)))
    days = sorted(days) if draw(st.booleans()) else draw(st.permutations(days))
    for day in days:
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ",,,", " , ,"])))
        low, a, b, high = sorted(draw(st.lists(CELL_TEXT, min_size=4, max_size=4)), key=float)
        cells = {"Date": day.isoformat(), "Open": a, "High": high, "Low": low, "Close": b,
                 "Volume": draw(st.sampled_from(["1000", "0", "-0", "1e308"]))}
        if draw(st.integers(0, 39)) == 0:  # OHLC out of order
            shuffled = draw(st.permutations([a, high, low, b]))
            cells.update(zip(("Open", "High", "Low", "Close"), shuffled))
        if draw(st.integers(0, 39)) == 0:
            column = draw(st.sampled_from(CSV_COLUMNS))
            cells[column] = draw(BAD_DATES if column == "Date" else BAD_NUMBERS)
        row = [draw(PAD) + cells.get(c, draw(st.sampled_from(["", "7", "x"]))) + draw(PAD)
               for c in columns]
        if draw(st.integers(0, 39)) == 0:
            row = row[: draw(st.integers(1, len(row)))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestLoadCsvAgainstTheBarLoader:
    @given(text=csv_texts())
    @example(text="")
    @example(text=HEADER + "\n\n")
    @example(text=HEADER + "\n2020-01-03,10,12,9,11,1000\n2020-01-02,10,12,9,11,1000\n")
    @example(text=HEADER + "\n2020-01-03,9,9,9,9,1\n\n2020-01-02,9,9,9,9,0\n2020-01-03,9,9,9,9,0")
    @settings(max_examples=400, deadline=None)
    def test_same_bars_or_same_message(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("loader") / "t.csv"
        path.write_text(text)
        try:
            want = load_csv_oracle(path)
        except MarketDataError as exc:
            with pytest.raises(MarketDataError) as excinfo:
                load_csv(path, "T")
            assert str(excinfo.value) == str(exc)
            return
        assert repr(load_csv(path, "T").bars) == repr(want)


class TestColumns:
    """A series stores a tuple of dates and one packed float64 block, and
    gives back the same bars it was built from."""

    BARS = (
        Bar(dt.date(2020, 1, 2), 10.0, 12.0, 9.0, 11.0, 1000.0),
        Bar(dt.date(2020, 1, 3), 11.5, 11.5, 11.5, 11.5, -0.0),
        Bar(dt.date(2020, 1, 6), 1.5e308, 1.7e308, 1e308, 1.5e308, 1e308),
    )

    def test_layout_and_bars_round_trip(self):
        series = StockSeries.from_bars("T", self.BARS)
        assert series.dates == tuple(b.date for b in self.BARS)
        assert type(series.ohlcv) is bytes and len(series.ohlcv) == 3 * ROW_BYTES
        block = np.frombuffer(series.ohlcv, dtype=np.float64).reshape(3, 5)
        assert block.tolist() == [list(b[1:]) for b in self.BARS]
        assert repr(series.bars) == repr(self.BARS)
        assert series.bars is not series.bars  # built on each access
        assert series.closes().flags.c_contiguous
        assert series.closes().tolist() == [11.0, 11.5, 1.5e308]
        assert pickle.loads(pickle.dumps(series)) == series

    def test_block_must_hold_one_row_per_date(self):
        series = StockSeries.from_bars("T", self.BARS)
        with pytest.raises(MarketDataError) as excinfo:
            StockSeries("T", series.dates[:2], series.ohlcv)
        assert str(excinfo.value) == "T: 120 bytes of OHLCV for 2 days"

    @pytest.mark.parametrize("start, stop", [(0, None), (1, None), (0, 2), (-2, None), (2, 1)])
    def test_slices_cut_dates_and_block_alike(self, start, stop):
        series = StockSeries.from_bars("T", self.BARS)
        ds = Dataset({"T": series}, series.dates)
        for cut in (series.slice(start, stop), ds.slice(start, stop).series["T"]):
            assert repr(cut.bars) == repr(self.BARS[start:stop])

    def test_aligned_series_share_the_calendar(self):
        a = series_from_closes("A", [1, 2, 3, 4])
        b = series_from_closes("B", [5, 6, 7, 8, 9])
        ds = align_calendar([a, b])
        assert ds.series["A"].dates is ds.series["B"].dates is ds.calendar
        assert ds.series["A"].ohlcv is a.ohlcv  # already on the calendar: no copy
        assert repr(ds.series["B"].bars) == repr(b.bars[:4])
        test = ds.slice(2)
        assert test.series["A"].dates is test.series["B"].dates is test.calendar
        assert repr(test.series["B"].bars) == repr(b.bars[2:4])

    def test_a_loaded_day_keeps_at_most_96_bytes(self, tmp_path, rng):
        # a Bar per day (a 6-tuple of five floats and a date) kept 250.5
        path = tmp_path / "t.csv"
        save_csv(random_series(rng, "T", 400), path)
        load_csv(path, "T")  # what a first load leaves cached stays out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            series = load_csv(path, "T")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(series) == 400
        assert kept / len(series) <= 96


class TestByteOrderMark:
    """An Excel-style UTF-8 export starts with a byte-order mark; it is not
    part of the first column's name."""

    def test_a_data_file_with_a_bom_loads_to_the_same_series(self, tmp_path):
        text = gen.ticker_csv(0, "AAA", 400).encode()
        plain, marked = tmp_path / "AAA.csv", tmp_path / "AAA_bom.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_csv(marked, "AAA") == load_csv(plain, "AAA")

    def test_a_forecast_file_with_a_bom_reads_the_same(self, tmp_path):
        calendar = tuple(trading_dates(3))
        rows = [f"{d.isoformat()},{i}.5\n" for i, d in enumerate(calendar)]
        text = "Date,Prediction\n" + "".join(rows)
        plain, marked = tmp_path / "p.csv", tmp_path / "p_bom.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_forecasts(marked, calendar) == read_forecasts(plain, calendar) == {
            0: 0.5, 1: 1.5, 2: 2.5
        }


class TestAlignCalendar:
    def test_identical_dates_unchanged(self):
        a = series_from_closes("A", [1, 2, 3])
        b = series_from_closes("B", [4, 5, 6])
        ds = align_calendar([a, b])
        assert ds.series["A"] == a
        assert ds.series["B"] == b
        assert ds.calendar == a.dates

    def test_intersection_trims(self):
        dates = trading_dates(5)
        a = series_from_closes("A", [1, 2, 3, 4, 5])
        b = StockSeries.from_bars("B", a.bars[1:4])
        ds = align_calendar([a, b])
        assert ds.calendar == tuple(dates[1:4])
        assert [bar.close for bar in ds.series["A"].bars] == [2, 3, 4]

    def test_disjoint_ranges_error_lists_tickers(self):
        a = series_from_closes("AAA", [1, 2], start=dt.date(2020, 1, 1))
        b = series_from_closes("BBB", [1, 2], start=dt.date(2021, 1, 1))
        with pytest.raises(MarketDataError, match="AAA, BBB"):
            align_calendar([a, b])

    def test_empty_series_rejected(self):
        with pytest.raises(MarketDataError, match="A: empty series"):
            align_calendar([StockSeries("A", (), b"")])


class TestSplit:
    def test_ten_day_eighty_twenty(self):
        ds = dataset_from_closes({"A": list(range(1, 11))})
        train, test = split(ds, SplitSpec(train_fraction=0.8, window=2))
        assert train.n_days() == 8
        assert test.n_days() == 2
        assert [b.close for b in test.series["A"].bars] == [9, 10]

    def test_partition_property(self):
        ds = dataset_from_closes({"A": list(range(1, 42))})
        train, test = split(ds, SplitSpec(train_fraction=0.37, window=3))
        assert train.calendar + test.calendar == ds.calendar
        assert not set(train.calendar) & set(test.calendar)

    def test_full_scale_span_gives_666_test_days(self):
        # 3330 aligned days under an 80:20 cut leave a 666-day test window.
        ds = dataset_from_closes({"A": [100.0] * 3330})
        train, test = split(ds, SplitSpec(train_fraction=0.8, window=50))
        assert train.n_days() == 2664
        assert test.n_days() == 666

    def test_train_shorter_than_window_rejected(self):
        ds = dataset_from_closes({"A": list(range(1, 11))})
        with pytest.raises(ConfigurationError):
            split(ds, SplitSpec(train_fraction=0.5, window=6))

    def test_plan_cuts_as_split_does_and_builds_no_partition(self, monkeypatch):
        ds = dataset_from_closes({"A": list(range(1, 11))})

        def config(spec):
            return RunConfig(
                "data", ("A",), spec, "baseline", PredictorConfig(window=2), {},
                StrategyConfig(), CostModel(), None, "out",
            )

        with pytest.raises(ConfigurationError) as by_split:
            split(ds, SplitSpec(train_fraction=0.5, window=6))

        def no_slice(*args):
            raise AssertionError("plan built a partition")

        monkeypatch.setattr(Dataset, "slice", no_slice)
        with pytest.raises(ConfigurationError) as by_plan:
            plan(config(SplitSpec(train_fraction=0.5, window=6)), ds)
        assert str(by_plan.value) == str(by_split.value) == (
            "train partition of 5 days is shorter than the 6-day window"
        )
        assert plan(config(SplitSpec(train_fraction=0.5, window=3)), ds).test_start == 5

    @given(
        n=st.integers(min_value=2, max_value=400),
        fraction=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_partition_for_any_fraction(self, n, fraction):
        ds = dataset_from_closes({"A": [10.0 + i for i in range(n)]})
        try:
            train, test = split(ds, SplitSpec(train_fraction=fraction, window=1))
        except ConfigurationError:
            return
        assert train.calendar + test.calendar == ds.calendar


class TestWindow:
    """The forecast for day t+1 reads the w bars ending on day t, and no
    later bar."""

    @staticmethod
    def fitted(closes, w):
        ds = dataset_from_closes({"A": [float(c) for c in closes]})
        predictor = fit_baseline(ds, PredictorConfig(window=w, features=("close",)))["A"]
        return predictor, ds.series["A"], predict_test_series(predictor, ds.series["A"], 0)

    def test_degenerate_single_bar(self):
        # days 1 and 3 close at 2: with w = 1 the forecasts they feed agree
        predictor, s, preds = self.fitted([1, 2, 3, 2, 1], 1)
        assert preds[2] == preds[4] != preds[3]
        assert preds[3] == predictor.predict_window(s.bars[2:3])

    def test_slice_contents(self):
        predictor, s, preds = self.fitted([1, 2, 3, 4, 5, 9], 3)
        assert [b.close for b in s.bars[2:5]] == [3, 4, 5]
        assert preds[5] == predictor.predict_window(s.bars[2:5])

    def test_first_full_fifty_day_window(self):
        predictor, s, preds = self.fitted(range(1, 61), 50)
        assert np.isnan(preds[:50]).all()
        assert preds[50] == predictor.predict_window(s.bars[:50])

    def test_insufficient_history(self):
        predictor, s, _ = self.fitted([1, 2, 3, 4, 5], 3)
        with pytest.raises(PredictorError, match="expected 3 bars, got 2"):
            predictor.predict_window(s.bars[:2])

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_never_reaches_past_day_t(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60))
        w = data.draw(st.integers(min_value=1, max_value=n - 1))
        t = data.draw(st.integers(min_value=0, max_value=n - 1))
        closes = [1.0 + i for i in range(n)]
        predictor, s, preds = self.fitted(closes, w)
        mutated = series_from_closes("A", closes[: t + 1] + [999.0] * (n - t - 1))
        after = predict_test_series(predictor, mutated, 0)
        assert np.isnan(preds[:w]).all() and np.isfinite(preds[w:]).all()
        assert after[: t + 2].tobytes() == preds[: t + 2].tobytes()
        if w <= t + 1 < n:
            window = s.bars[t - w + 1 : t + 1]
            assert preds[t + 1] == predictor.predict_window(window)


class TestInvariants:
    def test_series_rejects_unsorted_dates(self):
        bars = series_from_closes("A", [1, 2]).bars
        with pytest.raises(MarketDataError, match="dates not strictly increasing"):
            StockSeries.from_bars("A", (bars[1], bars[0]))
        with pytest.raises(MarketDataError, match="dates not strictly increasing"):
            StockSeries.from_bars(ticker="A", bars=(bars[0], bars[0]))

    def test_strictly_positive_prices_enforced_at_load(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [HEADER, "2020-01-02,0,12,0,11,1000"])
        with pytest.raises(MarketDataError, match="non-positive price on 2020-01-02"):
            load_csv(path, "T")

    def test_split_spec_bounds(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(train_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ConfigurationError):
            SplitSpec(window=0)

    def test_closes_are_read_only_and_built_once(self):
        s = series_from_closes("A", [1.0, 2.5])
        closes = s.closes()
        assert closes.dtype == np.float64
        assert closes.tolist() == [1.0, 2.5]
        assert s.closes() is closes
        with pytest.raises(ValueError):
            closes[0] = 5.0

    def test_bar_feature_access(self):
        bar = Bar(dt.date(2020, 1, 2), 1.0, 2.0, 0.5, 1.5, 10.0)
        later = bar._replace(date=dt.date(2020, 1, 3), volume=20.0)
        got = StockSeries.from_bars("A", [bar, later]).features(("volume", "close", "open"))
        assert got.tolist() == [[10.0, 1.5, 1.0], [20.0, 1.5, 1.0]]
