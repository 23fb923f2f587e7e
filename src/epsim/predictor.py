"""Next-day close forecasting from sliding multivariate windows.

The built-in baseline is a ridge-regularized linear autoregression solved in
closed form (normal equations), so fitting and prediction are deterministic
and reproducible bit-for-bit. Externally generated forecasts are read from CSV
(header ``Date,Prediction``) by :func:`epsim.files.read_forecasts` instead,
honoring a model-agnostic predictor contract; this module reads no file.

Forecast format: a ticker's forecasts are one float64 array over the test
calendar, entry t the predicted close of test day t and NaN on a day
without a forecast.

Scaling discipline: per-feature min-max parameters are learned on the train
partition only and shared across window positions; the regression target (the
next close) is scaled with the close feature's parameters. The model carries
exactly window * n_features coefficients and no intercept.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import PredictorError
from .market_data import Dataset, StockSeries, sliding_windows

if TYPE_CHECKING:  # annotations only: numpy is imported where it computes
    import numpy as np

    from .config import PredictorConfig


class AffineScaler(NamedTuple):
    """Min-max scaler. A degenerate range (hi == lo) maps everything to 0
    and inverts back to lo, so constant features never produce NaNs."""

    lo: float
    hi: float

    @classmethod
    def fit(cls, values: np.ndarray) -> "AffineScaler":
        return cls(lo=float(values.min()), hi=float(values.max()))

    def transform(self, x):
        import numpy as np

        span = self.hi - self.lo
        if span == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        return (np.asarray(x, dtype=np.float64) - self.lo) / span

    def inverse(self, y: float) -> float:
        span = self.hi - self.lo
        if span == 0.0:
            return self.lo
        return self.lo + float(y) * span


class FitReport(NamedTuple):
    ticker: str
    rmse_test: float
    n_train: int
    n_test: int


class RidgePredictor:
    """Fitted linear autoregression for one ticker. Immutable and shareable."""

    def __init__(self, ticker, config, coef, feature_scalers, target_scaler):
        import numpy as np

        self.ticker = ticker
        self.config = config
        self.coef = np.asarray(coef, dtype=np.float64)
        self.coef.flags.writeable = False
        self.feature_scalers = dict(feature_scalers)
        self.target_scaler = target_scaler

    def scale(self, series: StockSeries) -> np.ndarray:
        """Min-max-scaled features of ``series``: one row per day, columns
        in ``config.features`` order."""
        return _scale(
            series.features(self.config.features),
            self.feature_scalers,
            self.config.features,
        )

    def forecast(self, window_row: np.ndarray) -> float:
        """The close following a window, given as its scaled rows flattened
        bar by bar (``scale(series).reshape(-1)``)."""
        return self.target_scaler.inverse(float(window_row @ self.coef))

    def predict_window(self, bars) -> float:
        """Forecast the close following the given window of bars.

        Pure function of the window: identical bars give identical output.
        """
        if len(bars) != self.config.window:
            raise PredictorError(
                f"{self.ticker}: expected {self.config.window} bars, "
                f"got {len(bars)}"
            )
        return self.forecast(
            self.scale(StockSeries.from_bars(self.ticker, bars)).reshape(-1)
        )


def _scale(raw: np.ndarray, scalers: dict, features) -> np.ndarray:
    import numpy as np

    return np.column_stack(
        [scalers[f].transform(raw[:, j]) for j, f in enumerate(features)]
    )


def _normal_equations(
    scaled: np.ndarray, y_scaled: np.ndarray, config: PredictorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The ridge normal equations ``(X'X + ridge_lambda * I, X'y)`` of a
    series' scaled features and scaled closes.

    Row i of the design matrix X is the window of days i .. i+w-1 flattened
    bar by bar, and its target the next day's close; tests/oracles.py keeps
    the row-by-row loop. X lives only in this call, so it is freed before
    the solve copies the Gram matrix.
    """
    import numpy as np

    n_features = len(config.features)
    w = config.window
    d = w * n_features
    # every F-th window of the flattened features starts on a bar
    windows = sliding_windows(scaled.reshape(-1), d)
    X = np.ascontiguousarray(windows[: (len(scaled) - w) * n_features : n_features])
    gram = X.T @ X
    gram.flat[:: d + 1] += config.ridge_lambda  # the diagonal, with no d x d identity
    return gram, X.T @ y_scaled[w:]


def _fit_one(series: StockSeries, config: PredictorConfig) -> RidgePredictor:
    import numpy as np

    config.require_train_days(series.ticker, len(series))

    raw = series.features(config.features)  # (n, F)
    scalers = {
        f: AffineScaler.fit(raw[:, j]) for j, f in enumerate(config.features)
    }
    target_scaler = AffineScaler.fit(series.closes())

    gram, rhs = _normal_equations(
        _scale(raw, scalers, config.features),
        target_scaler.transform(series.closes()),
        config,
    )
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise PredictorError(
            f"{series.ticker}: singular normal matrix with "
            f"ridge_lambda={config.ridge_lambda}; use a nonzero ridge_lambda"
        ) from exc
    if not np.all(np.isfinite(coef)):
        raise PredictorError(
            f"{series.ticker}: non-finite coefficients with "
            f"ridge_lambda={config.ridge_lambda}; use a nonzero ridge_lambda"
        )

    return RidgePredictor(series.ticker, config, coef, scalers, target_scaler)


def fit_baseline(
    dataset: Dataset, config: PredictorConfig, train_days: int | None = None
) -> dict[str, RidgePredictor]:
    """Fit one predictor per ticker on its first ``train_days`` days, every
    day when None (deterministic). Each ticker's training rows are sliced
    as it is fitted, so one ticker's copy is alive at a time."""
    series = dataset.series
    return {
        tk: _fit_one(series[tk] if train_days is None else series[tk].slice(0, train_days), config)
        for tk in dataset.tickers()
    }


def predict_test_series(
    predictor: RidgePredictor,
    full_series: StockSeries,
    test_start: int,
) -> np.ndarray:
    """The forecast column of the test days: entry t is the forecast for
    test day t, NaN where no full window ends the day before.

    The window for test day t ends at absolute day test_start+t-1, reaching
    back into the train partition for early test days. Each forecast is the
    same dot product ``predict_window`` takes.
    """
    import numpy as np

    w = predictor.config.window
    scaled = predictor.scale(full_series)
    entries = np.full(max(len(full_series) - test_start, 0), np.nan)
    for a in range(max(test_start, w), len(full_series)):
        entries[a - test_start] = predictor.forecast(scaled[a - w : a].reshape(-1))
    return entries


def prediction_errors(entries: np.ndarray, closes: np.ndarray) -> np.ndarray:
    """pred_t - close_t for each day of a forecast column and the closes of
    the same days, NaN on a day without a forecast."""
    if len(entries) != len(closes):
        raise PredictorError(f"{len(entries)} forecasts for {len(closes)} closes")
    return entries - closes


def rmse(errors: np.ndarray) -> float:
    """sqrt(mean(e^2)) over the finite entries of a vector of prediction
    errors (NaN marks a day without a forecast)."""
    import numpy as np

    errors = errors[np.isfinite(errors)]
    if not len(errors):
        raise PredictorError("no forecast to evaluate")
    return float(math.sqrt(float(np.mean(errors * errors))))


def evaluate_rmse(entries: np.ndarray, closes: np.ndarray) -> float:
    """sqrt(mean((pred_t - close_t)^2)) over the days with a forecast."""
    return rmse(prediction_errors(entries, closes))


def fit_report(
    predictor: RidgePredictor, full_series: StockSeries, test_start: int
) -> FitReport:
    """Out-of-sample RMSE of a fitted predictor over the test partition."""
    import numpy as np

    errors = prediction_errors(
        predict_test_series(predictor, full_series, test_start),
        full_series.closes()[test_start:],
    )
    n_test = int(np.isfinite(errors).sum())
    if not n_test:
        raise PredictorError(f"{predictor.ticker}: empty test partition")
    return FitReport(
        ticker=predictor.ticker,
        rmse_test=rmse(errors),
        n_train=test_start - predictor.config.window,
        n_test=n_test,
    )
