import math

import numpy as np
import pytest

from epsim.errors import (
    EvaluationError,
    FitError,
    PredictionImportError,
    WindowError,
)
from epsim.market_data import SplitSpec, split
from epsim.predictor import (
    PredictionSeries,
    PredictorConfig,
    evaluate_rmse,
    fit_baseline,
    fit_report,
    import_predictions,
    predict_next,
    predict_test_series,
)

from conftest import (
    dataset_from_closes,
    random_series,
    series_from_closes,
    trading_dates,
)


def fit_single(closes, **config_kwargs):
    ds = dataset_from_closes({"T": list(closes)})
    return fit_baseline(ds, PredictorConfig(**config_kwargs))["T"], ds.series["T"]


class TestFitBaseline:
    def test_constant_series_predicts_the_constant(self):
        for w in (1, 3, 10):
            predictor, series = fit_single([42.5] * 30, window=w, features=("close",))
            for t in range(w - 1, len(series) - 1):
                assert predict_next(predictor, series, t) == pytest.approx(
                    42.5, abs=1e-9
                )

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

        for t in range(1, len(series) - 1):
            oracle = beta1 * closes[t - 1] + beta2 * closes[t]
            got = predict_next(predictor, series, t)
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
        rmse_fit = evaluate_rmse(preds, ds.slice(test_start).series["T"], sorted(preds.entries))

        closes = full.closes()
        naive_sq = [
            (closes[test_start + t - 1] - closes[test_start + t]) ** 2
            for t in preds.entries
        ]
        rmse_naive = math.sqrt(sum(naive_sq) / len(naive_sq))

        assert math.isfinite(rmse_fit)
        assert rmse_fit < rmse_naive

    def test_singular_at_zero_lambda_advises_regularization(self):
        with pytest.raises(FitError, match="nonzero ridge_lambda"):
            fit_single([10.0] * 20, window=3, features=("close",), ridge_lambda=0.0)

    def test_too_short_train_rejected(self):
        with pytest.raises(FitError, match="window\\+1"):
            fit_single([10.0, 11.0, 12.0], window=3, features=("close",))

    def test_config_validation(self):
        with pytest.raises(FitError):
            PredictorConfig(features=())
        with pytest.raises(FitError):
            PredictorConfig(features=("close", "vwap"))
        with pytest.raises(FitError):
            PredictorConfig(ridge_lambda=-1.0)
        with pytest.raises(FitError):
            PredictorConfig(window=0)


class TestPredictNext:
    def test_purity_identical_windows_identical_outputs(self):
        # The 3-day close windows ending at t=2 and t=6 are identical, so the
        # predictions for t=3 and t=7 must be bit-equal (dates never enter).
        closes = [10.0, 11.0, 12.0, 5.0, 10.0, 11.0, 12.0, 9.0, 8.0, 7.0, 6.0]
        predictor, series = fit_single(closes, window=3)
        assert predict_next(predictor, series, 2) == predict_next(predictor, series, 6)
        # Repeated calls are bit-stable too.
        assert predict_next(predictor, series, 2) == predict_next(predictor, series, 2)

    def test_insufficient_history(self):
        predictor, series = fit_single([10.0 + i for i in range(20)], window=5)
        with pytest.raises(WindowError):
            predict_next(predictor, series, 3)
        with pytest.raises(WindowError):
            predict_next(predictor, series, 99)

    def test_window_locality_future_bars_irrelevant(self, rng):
        closes = [float(c) for c in random_series(rng, "T", 80).closes()]
        predictor, series = fit_single(closes, window=10)
        before = [predict_next(predictor, series, t) for t in range(9, 40)]
        mutated = series_from_closes("T", closes[:41] + [999.0] * 39)
        after = [predict_next(predictor, mutated, t) for t in range(9, 40)]
        assert before == after

    def test_prediction_series_warmup_boundary(self, rng):
        closes = [float(c) for c in random_series(rng, "T", 40).closes()]
        predictor, series = fit_single(closes, window=10)
        # Window must end at t-1 >= w-1, so the first entry is day w - start.
        preds = predict_test_series(predictor, series, test_start=3)
        assert min(preds.entries) == 10 - 3
        assert max(preds.entries) == len(series) - 1 - 3


class TestDeterminismAndScaling:
    def test_fit_is_bit_reproducible(self, rng):
        closes = [float(c) for c in random_series(rng, "T", 120).closes()]
        p1, _ = fit_single(closes, window=7)
        p2, _ = fit_single(closes, window=7)
        assert np.array_equal(p1.coef, p2.coef)
        assert p1.feature_scalers == p2.feature_scalers

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
    def write(self, path, rows):
        path.write_text("Date,Prediction\n" + "\n".join(rows) + "\n")

    def test_full_calendar_import(self, tmp_path):
        calendar = trading_dates(5)
        path = tmp_path / "p.csv"
        self.write(path, [f"{d.isoformat()},{100 + i}" for i, d in enumerate(calendar)])
        preds = import_predictions(path, calendar, "T")
        assert preds.entries == {i: 100.0 + i for i in range(5)}

    def test_unknown_date_named_in_error(self, tmp_path):
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        self.write(path, ["2031-12-31,100"])
        with pytest.raises(PredictionImportError, match="2031-12-31"):
            import_predictions(path, calendar, "T")

    def test_duplicate_date_rejected(self, tmp_path):
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        d = calendar[0].isoformat()
        self.write(path, [f"{d},100", f"{d},101"])
        with pytest.raises(PredictionImportError, match="duplicate"):
            import_predictions(path, calendar, "T")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        calendar = trading_dates(3)
        path = tmp_path / "p.csv"
        self.write(path, [f"{calendar[0].isoformat()},100", f"{calendar[1].isoformat()},{value}"])
        with pytest.raises(PredictionImportError, match=f"line 3: non-finite prediction '{value}'"):
            import_predictions(path, calendar, "T")

    def test_partial_coverage_is_allowed(self, tmp_path):
        calendar = trading_dates(10)
        path = tmp_path / "p.csv"
        self.write(path, [f"{calendar[4].isoformat()},50"])
        preds = import_predictions(path, calendar, "T")
        assert preds.entries == {4: 50.0}


class TestEvaluateRmse:
    def test_identical_predictions_zero(self):
        series = series_from_closes("T", [10.0, 11.0, 12.0])
        preds = PredictionSeries("T", {0: 10.0, 1: 11.0, 2: 12.0})
        assert evaluate_rmse(preds, series, range(3)) == 0.0

    def test_constant_offset_one(self):
        series = series_from_closes("T", [10.0, 11.0, 12.0])
        preds = PredictionSeries("T", {0: 11.0, 1: 12.0, 2: 13.0})
        assert evaluate_rmse(preds, series, range(3)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_range_rejected(self):
        series = series_from_closes("T", [10.0])
        with pytest.raises(EvaluationError):
            evaluate_rmse(PredictionSeries("T", {0: 10.0}), series, [])

    def test_uncovered_day_rejected(self):
        series = series_from_closes("T", [10.0, 11.0])
        with pytest.raises(EvaluationError):
            evaluate_rmse(PredictionSeries("T", {0: 10.0}), series, range(2))

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
