"""Next-day close forecasting from sliding multivariate windows.

The built-in baseline is a ridge-regularized linear autoregression solved in
closed form (normal equations), so fitting and prediction are deterministic
and reproducible bit-for-bit. Externally generated forecasts can be imported
from CSV (header ``Date,Prediction``) instead, honoring a model-agnostic
predictor contract.

Scaling discipline: per-feature min-max parameters are learned on the train
partition only and shared across window positions; the regression target (the
next close) is scaled with the close feature's parameters. The model carries
exactly window * n_features coefficients and no intercept.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationError,
    FitError,
    PredictionImportError,
    WindowError,
)
from .market_data import FEATURE_NAMES, Dataset, StockSeries, feature_matrix

DEFAULT_FEATURES = ("open", "high", "low", "close", "volume")


@dataclass(frozen=True)
class PredictorConfig:
    window: int = 50
    features: tuple[str, ...] = DEFAULT_FEATURES
    ridge_lambda: float = 1e-3

    def __post_init__(self):
        if self.window < 1:
            raise FitError(f"window must be >= 1, got {self.window}")
        if not self.features:
            raise FitError("features must be nonempty")
        unknown = [f for f in self.features if f not in FEATURE_NAMES]
        if unknown:
            raise FitError(f"unknown features {unknown}")
        if self.ridge_lambda < 0:
            raise FitError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")


@dataclass(frozen=True)
class AffineScaler:
    """Min-max scaler. A degenerate range (hi == lo) maps everything to 0
    and inverts back to lo, so constant features never produce NaNs."""

    lo: float
    hi: float

    @classmethod
    def fit(cls, values: np.ndarray) -> "AffineScaler":
        return cls(lo=float(values.min()), hi=float(values.max()))

    def transform(self, x):
        span = self.hi - self.lo
        if span == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        return (np.asarray(x, dtype=np.float64) - self.lo) / span

    def inverse(self, y: float) -> float:
        span = self.hi - self.lo
        if span == 0.0:
            return self.lo
        return self.lo + float(y) * span


@dataclass(frozen=True)
class PredictionSeries:
    """Per-stock next-day close forecasts.

    ``entries[t]`` is the predicted close for day t, computed from the window
    ending at day t-1, so an entry for day t exists only once t-1 has a full
    window of history behind it.
    """

    ticker: str
    entries: dict[int, float]

    def with_entry(self, day: int, value: float) -> "PredictionSeries":
        updated = dict(self.entries)
        updated[day] = value
        return PredictionSeries(self.ticker, updated)


@dataclass(frozen=True)
class FitReport:
    ticker: str
    rmse_test: float
    n_train: int
    n_test: int


class RidgePredictor:
    """Fitted linear autoregression for one ticker. Immutable and shareable."""

    def __init__(self, ticker, config, coef, feature_scalers, target_scaler):
        self.ticker = ticker
        self.config = config
        self.coef = np.asarray(coef, dtype=np.float64)
        self.coef.flags.writeable = False
        self.feature_scalers = dict(feature_scalers)
        self.target_scaler = target_scaler

    def scale(self, bars) -> np.ndarray:
        """Min-max-scaled features of ``bars``: one row per bar, columns in
        ``config.features`` order."""
        return _scale(
            feature_matrix(bars, self.config.features),
            self.feature_scalers,
            self.config.features,
        )

    def forecast(self, window_row: np.ndarray) -> float:
        """The close following a window, given as its scaled rows flattened
        bar by bar (``scale(bars).reshape(-1)``)."""
        return self.target_scaler.inverse(float(window_row @ self.coef))

    def predict_window(self, bars) -> float:
        """Forecast the close following the given window of bars.

        Pure function of the window: identical bars give identical output.
        """
        if len(bars) != self.config.window:
            raise WindowError(
                f"{self.ticker}: expected {self.config.window} bars, "
                f"got {len(bars)}"
            )
        return self.forecast(self.scale(bars).reshape(-1))


def _scale(raw: np.ndarray, scalers: dict, features) -> np.ndarray:
    return np.column_stack(
        [scalers[f].transform(raw[:, j]) for j, f in enumerate(features)]
    )


def _fit_one(series: StockSeries, config: PredictorConfig) -> RidgePredictor:
    n = len(series.bars)
    w = config.window
    if n < w + 1:
        raise FitError(
            f"{series.ticker}: need at least window+1 = {w + 1} train days, "
            f"got {n}"
        )

    raw = feature_matrix(series.bars, config.features)  # (n, F)
    scalers = {
        f: AffineScaler.fit(raw[:, j]) for j, f in enumerate(config.features)
    }
    target_scaler = AffineScaler.fit(series.closes())

    scaled = _scale(raw, scalers, config.features)
    y_scaled = target_scaler.transform(series.closes())

    n_samples = n - w
    d = w * len(config.features)
    X = np.empty((n_samples, d), dtype=np.float64)
    y = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        X[i] = scaled[i : i + w].reshape(-1)
        y[i] = y_scaled[i + w]

    gram = X.T @ X + config.ridge_lambda * np.eye(d)
    rhs = X.T @ y
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            f"{series.ticker}: singular normal matrix with "
            f"ridge_lambda={config.ridge_lambda}; use a nonzero ridge_lambda"
        ) from exc
    if not np.all(np.isfinite(coef)):
        raise FitError(
            f"{series.ticker}: non-finite coefficients with "
            f"ridge_lambda={config.ridge_lambda}; use a nonzero ridge_lambda"
        )

    return RidgePredictor(series.ticker, config, coef, scalers, target_scaler)


def fit_baseline(train: Dataset, config: PredictorConfig) -> dict[str, RidgePredictor]:
    """Fit one predictor per ticker on the train partition (deterministic)."""
    return {tk: _fit_one(train.series[tk], config) for tk in train.tickers()}


def predict_next(predictor: RidgePredictor, series: StockSeries, t: int) -> float:
    """Predicted close for day t+1, from the window ending at day t."""
    w = predictor.config.window
    if t < w - 1 or t >= len(series.bars):
        raise WindowError(
            f"{series.ticker}: no {w}-day window ending at index {t}"
        )
    return predictor.predict_window(series.bars[t - w + 1 : t + 1])


def predict_test_series(
    predictor: RidgePredictor,
    full_series: StockSeries,
    test_start: int,
    scaled: np.ndarray | None = None,
) -> PredictionSeries:
    """Forecasts for every test day, keyed by test-relative day index.

    The window for test day t ends at absolute day test_start+t-1, reaching
    back into the train partition for early test days. ``scaled`` is
    ``predictor.scale(full_series.bars)`` when the caller already has it;
    each forecast is the same dot product ``predict_window`` takes.
    """
    w = predictor.config.window
    if scaled is None:
        scaled = predictor.scale(full_series.bars)
    entries = {
        a - test_start: predictor.forecast(scaled[a - w : a].reshape(-1))
        for a in range(max(test_start, w), len(full_series.bars))
    }
    return PredictionSeries(ticker=full_series.ticker, entries=entries)


def import_predictions(path, calendar, ticker: str) -> PredictionSeries:
    """Load externally generated forecasts (CSV header ``Date,Prediction``).

    Every date must belong to the calendar; duplicates and non-finite
    values (``nan``, ``inf``) are rejected, naming the line. Entries are
    keyed by the date's index in the calendar.
    """
    cal_index = {d: i for i, d in enumerate(calendar)}
    entries: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise PredictionImportError(f"{path}: empty file") from None
        if "Date" not in header or "Prediction" not in header:
            raise PredictionImportError(
                f"{path}: header must name Date and Prediction, got {header}"
            )
        d_idx, p_idx = header.index("Date"), header.index("Prediction")
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            try:
                date = dt.date.fromisoformat(raw[d_idx].strip())
                value = float(raw[p_idx].strip())
            except (ValueError, IndexError) as exc:
                raise PredictionImportError(
                    f"{path}: line {line_no}: {exc}"
                ) from exc
            if not math.isfinite(value):
                raise PredictionImportError(
                    f"{path}: line {line_no}: non-finite prediction "
                    f"{raw[p_idx].strip()!r}"
                )
            if date not in cal_index:
                raise PredictionImportError(
                    f"{path}: date {date.isoformat()} outside the calendar"
                )
            day = cal_index[date]
            if day in entries:
                raise PredictionImportError(
                    f"{path}: duplicate date {date.isoformat()}"
                )
            entries[day] = value
    if not entries:
        raise PredictionImportError(f"{path}: no prediction rows")
    return PredictionSeries(ticker=ticker, entries=entries)


def prediction_errors(
    predictions: PredictionSeries, actual: StockSeries, day_range
) -> np.ndarray:
    """pred_t - close_t for each of the given day indices, in order."""
    days = list(day_range)
    if not days:
        raise EvaluationError("empty evaluation range")
    closes = actual.closes()
    errs = np.empty(len(days), dtype=np.float64)
    for i, t in enumerate(days):
        if t not in predictions.entries:
            raise EvaluationError(f"no prediction for day {t}")
        if not 0 <= t < len(closes):
            raise EvaluationError(f"day {t} outside the series")
        errs[i] = predictions.entries[t] - closes[t]
    return errs


def rmse(errors: np.ndarray) -> float:
    """sqrt(mean(e^2)) of a vector of prediction errors."""
    return float(math.sqrt(float(np.mean(errors * errors))))


def evaluate_rmse(predictions: PredictionSeries, actual: StockSeries, day_range) -> float:
    """sqrt(mean((pred_t - close_t)^2)) over the given day indices."""
    return rmse(prediction_errors(predictions, actual, day_range))


def fit_report(
    predictor: RidgePredictor, full_series: StockSeries, test_start: int
) -> FitReport:
    """Out-of-sample RMSE of a fitted predictor over the test partition."""
    preds = predict_test_series(predictor, full_series, test_start)
    if not preds.entries:
        raise EvaluationError(f"{predictor.ticker}: empty test partition")
    test_series = StockSeries(full_series.ticker, full_series.bars[test_start:])
    rmse = evaluate_rmse(preds, test_series, sorted(preds.entries))
    return FitReport(
        ticker=predictor.ticker,
        rmse_test=rmse,
        n_train=test_start - predictor.config.window,
        n_test=len(preds.entries),
    )
