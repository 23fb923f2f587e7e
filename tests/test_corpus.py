"""``tools/corpus.py``, the runner of the "same results" check: a slice of
its corpus, run twice, prints the same lines; its rejected inputs fail with
exact error lines and write nothing, not even the output directory; and a
run whose Sharpe ratio has no volatility passes with one warning line."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("corpus", os.path.join(ROOT, "tools", "corpus.py"))
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

REJECTED = [
    "error [config]: attack: omega must be >= 2, got 1\n",
    "error [config]: attack.days: day 9999 outside the 80-day test window\n",
    "error [config]: attack.days: day 9999 outside the 80-day test window\n",
    "error [config]: predictor.files: unrecognized keys ['ZZZ']\n",
    "error [config]: predictor.files: unrecognized keys ['ZZZ']\n",
    "error [report]: desk/attack_AAA/sweep_cells.csv: given twice\n",
    *["error [config]: desk_repeated_key.json: key 'kind' given twice\n"] * 2,
    *["error [config]: initial_capital must be > 0\n"] * 2,
    *["error [predictor]: forecasts_repeated/AAA.csv: header names 'Prediction' twice\n"] * 2,
    *["error [predictor]: AAA: need at least window+1 = 321 train days, got 320\n"] * 2,
    *[
        "error [predictor]: forecasts_bad/date_outside/AAA.csv: date 2131-12-31 outside "
        "the calendar\n"
    ] * 2,
    *[
        "error [predictor]: forecasts_bad/date_in_train/AAA.csv: date 2015-01-12 outside "
        "the calendar\n"
    ] * 2,
    *[
        "error [predictor]: forecasts_bad/non_finite/AAA.csv: line 81: non-finite "
        "prediction 'nan'\n"
    ] * 2,
    *["error [predictor]: forecasts_bad/duplicate_date/AAA.csv: duplicate date 2016-03-28\n"] * 2,
    *["error [config]: attack.days: 2131-12-31 not in the test calendar\n"] * 2,
    *["error [config]: attack.days: 2015-01-12 not in the test calendar\n"] * 2,
    *[
        "error [config]: attack.omegas: omega=401 needs 401 closes ending on an attacked "
        "day; the last, test day 79, has 400\n"
    ] * 2,
    *["error [config]: data_dir must name a directory, got ''\n"] * 2,
    *["error [config]: output_dir must name a directory, got ''\n"] * 2,
]


ZERO_VOLATILITY = (
    "warning [trade_engine]: zero-volatility return stream; Sharpe ratio reported as 0\n"
)


def test_a_slice_reruns_to_the_same_lines(tmp_path):
    names = ("desk_targeted", "desk_import", "rejected", "zero_volatility")
    first = corpus.run_corpus(ROOT, str(tmp_path / "a"), names)
    second = corpus.run_corpus(ROOT, str(tmp_path / "b"), names)
    assert [r.line() for r in first] == [r.line() for r in second]

    passing = [r for r in first if r.scenario in ("desk_targeted", "desk_import")]
    assert len(passing) == 6
    assert all(r.code == 0 and r.stderr == "" and r.files for r in passing)
    rejected = [r for r in first if r.scenario == "rejected"]
    assert [r.stderr for r in rejected] == REJECTED
    assert all(r.code == 1 and r.stdout == "" and not r.files for r in rejected)
    assert not (tmp_path / "a" / "bad").exists()
    warned = [r for r in first if r.scenario == "zero_volatility"]
    assert [(r.argv[0], r.code, r.stderr) for r in warned] == [
        ("backtest", 0, ZERO_VOLATILITY), ("attack", 0, ZERO_VOLATILITY)
    ]
    assert all(r.files for r in warned)
