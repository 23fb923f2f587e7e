import csv
import io

import gen


def test_same_seed_same_bytes(tmp_path):
    a = gen.write_inputs(str(tmp_path / "a"), 7, ("AAA", "BBB"), 300)
    b = gen.write_inputs(str(tmp_path / "b"), 7, ("AAA", "BBB"), 300)
    assert a == b
    for name in a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_and_ticker_change_the_walk():
    base = gen.ticker_csv(1, "AAA", 50)
    assert gen.ticker_csv(2, "AAA", 50) != base
    assert gen.ticker_csv(1, "BBB", 50) != base


def test_bars_are_consistent_weekday_ohlcv():
    rows = list(csv.DictReader(io.StringIO(gen.ticker_csv(3, "AAA", 1500))))
    assert len(rows) == 1500
    dates = [r["Date"] for r in rows]
    assert dates == sorted(set(dates))
    for r in rows:
        o, h, lo, c = (float(r[k]) for k in ("Open", "High", "Low", "Close"))
        assert c >= 1.0 and lo > 0
        assert lo <= min(o, c) and h >= max(o, c)
        assert int(r["Volume"]) > 0
    assert all(d.weekday() < 5 for d in gen.weekdays(20))
