import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim.config import PredictorConfig
from epsim.errors import ConfigurationError, PredictorError
from epsim.files import read_forecasts
from epsim.market_data import FEATURE_NAMES, ROW_BYTES, SplitSpec, align_calendar, split
from epsim.predictor import evaluate_rmse, fit_baseline, fit_report, predict_test_series

from conftest import (
    dataset_from_closes,
    random_series,
    series_from_closes,
    trading_dates,
)
from oracles import ridge_coef_oracle


def fit_single(closes, **config_kwargs):
    ds = dataset_from_closes({"T": list(closes)})
    return fit_baseline(ds, PredictorConfig(**config_kwargs))["T"], ds.series["T"]


class TestFitBaseline:
    def test_constant_series_predicts_the_constant(self):
        for w in (1, 3, 10):
            predictor, series = fit_single([42.5] * 30, window=w, features=("close",))
            preds = predict_test_series(predictor, series, 0)
            assert np.isnan(preds[:w]).all() and len(preds) == len(series)
            assert preds[w:] == pytest.approx(42.5, abs=1e-9)

    def test_linear_trend_extrapolates_exactly(self):
        # closes 2, 4, 6, ...; lambda=0 gives the unique 2-coefficient
        # least-squares solution. Oracle: solve the raw normal equations for
        # pred = b1*c[t-1] + b2*c[t] by Cramer's rule.
        closes = [2.0 * (i + 1) for i in range(30)]
        predictor, series = fit_single(
            closes, window=2, features=("close",), ridge_lambda=0.0
        )

        x1 = np.array(closes[:-2])
        x2 = np.array(closes[1:-1])
        y = np.array(closes[2:])
        a11, a12, a22 = (x1 @ x1), (x1 @ x2), (x2 @ x2)
        b1v, b2v = (x1 @ y), (x2 @ y)
        det = a11 * a22 - a12 * a12
        beta1 = (b1v * a22 - b2v * a12) / det
        beta2 = (a11 * b2v - a12 * b1v) / det
        assert beta1 == pytest.approx(-1.0, abs=1e-9)
        assert beta2 == pytest.approx(2.0, abs=1e-9)

        preds = predict_test_series(predictor, series, 0)
        assert np.isnan(preds[:2]).all() and np.isfinite(preds[2:]).all()
        for t in range(1, len(series) - 1):
            oracle = beta1 * closes[t - 1] + beta2 * closes[t]
            got = preds[t + 1]
            assert got == pytest.approx(oracle, abs=1e-6)
            assert got == pytest.approx(closes[t] + 2.0, abs=1e-6)

    def test_beats_naive_last_value_on_drifting_walk(self, rng):
        # A drifting random walk: the last-value predictor is blind to the
        # drift while the windowed fit can recover it from in-window steps.
        series = random_series(rng, "T", 700, start=100.0, drift=1.0, vol=0.5)
        ds = dataset_from_closes({"T": [b.close for b in series.bars]})
        train, test = split(ds, SplitSpec(train_fraction=0.8, window=50))
        predictor = fit_baseline(train, PredictorConfig(window=50))["T"]

        full = ds.series["T"]
        test_start = train.n_days()
        preds = predict_test_series(predictor, full, test_start)
        closes = full.closes()
        rmse_fit = evaluate_rmse(preds, closes[test_start:])

        naive_sq = [
            (closes[test_start + t - 1] - closes[test_start + t]) ** 2
            for t in range(len(preds))
        ]
        rmse_naive = math.sqrt(sum(naive_sq) / len(naive_sq))

        assert math.isfinite(rmse_fit)
        assert rmse_fit < rmse_naive

    def test_singular_at_zero_lambda_advises_regularization(self):
        with pytest.raises(PredictorError, match="nonzero ridge_lambda"):
            fit_single([10.0] * 20, window=3, features=("close",), ridge_lambda=0.0)

    def test_too_short_train_rejected(self):
        with pytest.raises(PredictorError, match="window\\+1"):
            fit_single([10.0, 11.0, 12.0], window=3, features=("close",))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="predictor: features must be nonempty"):
            PredictorConfig(features=())
        with pytest.raises(ConfigurationError, match=r"predictor: unknown features \['vwap'\]"):
            PredictorConfig(features=("close", "vwap"))
        with pytest.raises(ConfigurationError, match="predictor: ridge_lambda must be >= 0"):
            PredictorConfig(ridge_lambda=-1.0)
        with pytest.raises(ConfigurationError, match="predictor: window must be >= 1, got 0"):
            PredictorConfig(window=0)


class TestFitMemory:
    def test_design_matrix_is_freed_before_the_solve(self, rng, monkeypatch):
        # the benchmark's fit: 320 train days of a 400-day series, a 50-day
        # window of 5 features. The 270 x 250 design matrix is 540 kB and the
        # Gram matrix 500 kB; with X alive at the solve, 1,072 kB were traced
        train, _ = split(
            align_calendar([random_series(rng, "T", 400)]),
            SplitSpec(train_fraction=0.8, window=50),
        )
        config = PredictorConfig(window=50)
        fit_baseline(train, config)  # what a first fit leaves cached stays out
        solve = np.linalg.solve
        at_solve = []

        def spy(a, b):
            at_solve.append(tracemalloc.get_traced_memory()[0] - before)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fitted = fit_baseline(train, config)
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert len(at_solve) == 1
        assert at_solve[0] <= 600_000
        assert np.array_equal(fitted["T"].coef, fit_baseline(train, config)["T"].coef)

    def test_a_universe_fit_holds_one_tickers_training_rows(self, rng, monkeypatch):
        # the benchmark's universe fit: 320 train days of each 400-day series.
        # A whole-universe train copy held every ticker's rows at the first
        # solve; sliced per ticker, the memory traced then is what a fit of
        # the first ticker alone holds, less than one ticker's rows apart
        tickers = [f"U{i:02d}" for i in range(8)]
        dataset = align_calendar([random_series(rng, tk, 400) for tk in tickers])
        first = align_calendar([dataset.series["U00"]])
        config = PredictorConfig(window=50)
        fit_baseline(dataset, config, 320)  # what a first fit leaves cached stays out
        solve = np.linalg.solve

        def traced_at_solves(ds):
            at_solve = []

            def spy(a, b):
                at_solve.append(tracemalloc.get_traced_memory()[0] - before)
                return solve(a, b)

            monkeypatch.setattr(np.linalg, "solve", spy)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                fitted = fit_baseline(ds, config, 320)
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            return at_solve, fitted

        alone, _ = traced_at_solves(first)
        universe, fitted = traced_at_solves(dataset)
        assert len(universe) == len(tickers)
        assert universe[0] - alone[0] < 320 * ROW_BYTES
        train = dataset.slice(0, 320)
        for tk in tickers:  # the same bytes in, the same coefficients out
            assert np.array_equal(fitted[tk].coef, fit_baseline(train, config)[tk].coef)


class TestPredictNext:
    def test_purity_identical_windows_identical_outputs(self):
        # The 3-day close windows ending at t=2 and t=6 are identical, so the
        # predictions for t=3 and t=7 must be bit-equal (dates never enter).
        closes = [10.0, 11.0, 12.0, 5.0, 10.0, 11.0, 12.0, 9.0, 8.0, 7.0, 6.0]
        predictor, series = fit_single(closes, window=3)
        first, second = series.bars[0:3], series.bars[4:7]
        assert predictor.predict_window(first) == predictor.predict_window(second)
        # Repeated calls are bit-stable too.
        assert predictor.predict_window(first) == predictor.predict_window(first)
        preds = predict_test_series(predictor, series, 0)
        assert preds[3] == preds[7]

    def test_window_locality_future_bars_irrelevant(self, rng):
        closes = [float(c) for c in random_series(rng, "T", 80).closes()]
        predictor, series = fit_single(closes, window=10)
        before = predict_test_series(predictor, series, 0)
        mutated = series_from_closes("T", closes[:41] + [999.0] * 39)
        after = predict_test_series(predictor, mutated, 0)
        # the forecast for day 41 is the last whose window ends before day 41
        assert [before[d] for d in range(10, 42)] == [after[d] for d in range(10, 42)]
        assert before[42] != after[42]

    def test_prediction_series_warmup_boundary(self, rng):
        closes = [float(c) for c in random_series(rng, "T", 40).closes()]
        predictor, series = fit_single(closes, window=10)
        # Window must end at t-1 >= w-1, so the first entry is day w - start.
        preds = predict_test_series(predictor, series, test_start=3)
        assert len(preds) == len(series) - 3
        assert np.flatnonzero(~np.isnan(preds)).tolist() == list(range(10 - 3, len(preds)))


class TestDeterminismAndScaling:
    def test_fit_is_bit_reproducible(self, rng):
        closes = [float(c) for c in random_series(rng, "T", 120).closes()]
        p1, _ = fit_single(closes, window=7)
        p2, _ = fit_single(closes, window=7)
        assert np.array_equal(p1.coef, p2.coef)
        assert p1.feature_scalers == p2.feature_scalers

    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 12),
        features=st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, unique=True),
        n_samples=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coefficients_equal_the_row_by_row_fit(self, window, features, n_samples, seed):
        # the design matrix built from a sliding window view has the loop's
        # values and layout, so the same BLAS and LAPACK calls give the same bits
        series = random_series(np.random.default_rng(seed), "T", window + n_samples)
        config = PredictorConfig(window=window, features=tuple(features))
        predictor = fit_baseline(align_calendar([series]), config)["T"]
        assert predictor.coef.tobytes() == ridge_coef_oracle(predictor, series).tobytes()

    @pytest.mark.parametrize("ridge_lambda", [1e-3, 0.5])
    def test_in_place_diagonal_has_the_identity_forms_bits(self, rng, ridge_lambda):
        # the fit adds ridge_lambda to the Gram matrix's diagonal in place;
        # the oracle adds ridge_lambda * np.eye(d). At the benchmark's size
        # (a 50-day window of 5 features, d = 250) both give the same bits.
        config = PredictorConfig(window=50, ridge_lambda=ridge_lambda)
        for i in range(4):
            series = random_series(rng, "T", 320, start=40.0 + 30 * i, vol=0.8 + 0.5 * i)
            predictor = fit_baseline(align_calendar([series]), config)["T"]
            assert predictor.coef.tobytes() == ridge_coef_oracle(predictor, series).tobytes()

    def test_scalers_come_from_train_only(self, rng):
        series = random_series(rng, "T", 200)
        ds = dataset_from_closes({"T": [b.close for b in series.bars]})
        train, _ = split(ds, SplitSpec(train_fraction=0.5, window=10))
        predictor = fit_baseline(train, PredictorConfig(window=10))["T"]
        train_closes = train.series["T"].closes()
        scaler = predictor.feature_scalers["close"]
        assert scaler.lo == train_closes.min()
        assert scaler.hi == train_closes.max()
        # A shifted test distribution cannot alter parameters learned on train.
        assert predictor.target_scaler.lo == train_closes.min()
        assert predictor.target_scaler.hi == train_closes.max()


class TestImportPredictions:
    """Imported forecasts, read by ``epsim.files.read_forecasts``."""

    def write(self, path, rows):
        path.write_text("Date,Prediction\n" + "\n".join(rows) + "\n")

    def test_full_calendar_import(self, tmp_path):
        calendar = trading_dates(5)
        path = tmp_path / "p.csv"
        self.write(path, [f"{d.isoformat()},{100 + i}" for i, d in enumerate(calendar)])
        entries = read_forecasts(path, calendar)
        assert entries == {i: 100.0 + i for i in range(5)}

    def test_unknown_date_named_in_error(self, tmp_path):
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        self.write(path, ["2031-12-31,100"])
        with pytest.raises(PredictorError, match="2031-12-31"):
            read_forecasts(path, calendar)

    def test_duplicate_date_rejected(self, tmp_path):
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        d = calendar[0].isoformat()
        self.write(path, [f"{d},100", f"{d},101"])
        with pytest.raises(PredictorError, match="duplicate"):
            read_forecasts(path, calendar)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        self.write(path, [f"{calendar[0].isoformat()},100", f"{calendar[1].isoformat()},{value}"])
        with pytest.raises(PredictorError, match=f"line 3: non-finite prediction '{value}'"):
            read_forecasts(path, calendar)

    @pytest.mark.parametrize("form", ["%Y%m%d", "%G-W%V-%u"], ids=["compact", "week"])
    def test_non_iso_date_names_the_line(self, tmp_path, form):
        # Python 3.11+ date.fromisoformat reads these forms; only YYYY-MM-DD is accepted
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        date = calendar[1].strftime(form)
        self.write(path, [f"{calendar[0].isoformat()},100", f"{date},101"])
        with pytest.raises(
            PredictorError, match=f"line 3: Invalid isoformat string: '{date}'"
        ):
            read_forecasts(path, calendar)

    def test_prediction_column_named_twice(self, tmp_path):
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        path.write_text(f"Date,Prediction,Prediction\n{calendar[0].isoformat()},100,200\n")
        with pytest.raises(PredictorError) as info:
            read_forecasts(path, calendar)
        assert str(info.value) == f"{path}: header names 'Prediction' twice"
        path.write_text(f"Date,Prediction,Note,Note\n{calendar[0].isoformat()},100,a,b\n")
        assert read_forecasts(path, calendar) == {0: 100.0}

    def test_partial_coverage_is_allowed(self, tmp_path):
        calendar = trading_dates(10)
        path = tmp_path / "p.csv"
        self.write(path, [f"{calendar[4].isoformat()},50"])
        entries = read_forecasts(path, calendar)
        assert entries == {4: 50.0}


class TestEvaluateRmse:
    CLOSES = np.array([10.0, 11.0, 12.0])

    def test_identical_predictions_zero(self):
        assert evaluate_rmse(np.array([10.0, 11.0, 12.0]), self.CLOSES) == 0.0

    def test_constant_offset_one(self):
        preds = np.array([11.0, 12.0, 13.0])
        assert evaluate_rmse(preds, self.CLOSES) == pytest.approx(1.0, abs=1e-12)

    def test_empty_range_rejected(self):
        for preds, closes in ((np.array([]), np.array([])), (np.full(3, np.nan), self.CLOSES)):
            with pytest.raises(PredictorError, match="^no forecast to evaluate$"):
                evaluate_rmse(preds, closes)

    def test_uncovered_day_rejected(self):
        # a forecast column covers the closes' days one for one
        with pytest.raises(PredictorError, match="^2 forecasts for 3 closes$"):
            evaluate_rmse(np.array([10.0, 11.0]), self.CLOSES)

    def test_day_without_forecast_is_left_out(self):
        preds = np.array([13.0, np.nan, 12.0])
        assert evaluate_rmse(preds, self.CLOSES) == math.sqrt((9.0 + 0.0) / 2)

    def test_fit_report_without_test_days_rejected(self, rng):
        predictor, series = fit_single(random_series(rng, "T", 40).closes(), window=5)
        for test_start in (len(series), len(series) + 3):
            assert len(predict_test_series(predictor, series, test_start)) == 0
            with pytest.raises(PredictorError, match="^T: empty test partition$"):
                fit_report(predictor, series, test_start)

    def test_fit_report_shape(self, rng):
        series = random_series(rng, "T", 120)
        ds = dataset_from_closes({"T": [b.close for b in series.bars]})
        train, test = split(ds, SplitSpec(train_fraction=0.75, window=10))
        predictor = fit_baseline(train, PredictorConfig(window=10))["T"]
        report = fit_report(predictor, ds.series["T"], train.n_days())
        assert report.ticker == "T"
        assert report.rmse_test >= 0.0
        assert report.n_test == test.n_days()
        assert report.n_train == train.n_days() - 10
