"""Run configuration: the strict JSON config and the records it builds.

Configuration is strict JSON: unknown keys are rejected loudly, because the
attack experiments are parameter-sensitive and a typo silently falling back
to a default would corrupt baseline/attacked comparisons.

Each config section is an immutable record
(:class:`epsim.market_data.Record`) that checks its own values and raises
:class:`ConfigurationError` for a bad one: the predictor's, the strategy's,
the cost model and the attack modes. Each attack mode also carries the
``label`` its cells are written under and owns its rule: it builds every
day's reported close from the clean closes (``reported_closes``), says how
many closes before a day that close reads (``history``) and names the error
for a day without them (``missing_history``). The attack block, checked by
:meth:`AttackConfig.from_dict`, is a named tuple. They live here, not beside
the code that uses them, so that reading and checking a config loads none of
the engine.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigurationError, PredictorError
from .market_data import FEATURE_NAMES, Record, SplitSpec, sliding_windows

if TYPE_CHECKING:  # annotations only: numpy is imported where it computes
    import numpy as np

# attack.mode -> the ``epsim attack`` submode that runs it
ATTACK_SUBMODES = {"stddev": "sweep", "conceal": "targeted", "overestimate": "targeted"}

DEFAULT_FEATURES = ("open", "high", "low", "close", "volume")

STRATEGY_KINDS = ("ma_crossover", "rate_of_change", "bollinger_bands")


class PredictorConfig(Record):
    __slots__ = _fields = ("window", "features", "ridge_lambda")

    def __init__(
        self,
        window: int = 50,
        features: tuple[str, ...] = DEFAULT_FEATURES,
        ridge_lambda: float = 1e-3,
    ):
        self._set(locals())
        if window < 1:
            raise ConfigurationError(f"predictor: window must be >= 1, got {window}")
        if not features:
            raise ConfigurationError("predictor: features must be nonempty")
        unknown = [f for f in features if f not in FEATURE_NAMES]
        if unknown:
            raise ConfigurationError(f"predictor: unknown features {unknown}")
        if ridge_lambda < 0:
            raise ConfigurationError(
                f"predictor: ridge_lambda must be >= 0, got {ridge_lambda}"
            )

    def require_train_days(self, ticker: str, n_train: int) -> None:
        """Fail unless ``n_train`` train days hold one window and its next
        close, the least a fit needs. :func:`epsim.files.plan` checks this
        for every command, before any fit."""
        if n_train < self.window + 1:
            raise PredictorError(
                f"{ticker}: need at least window+1 = {self.window + 1} train days, "
                f"got {n_train}"
            )


class StrategyConfig(Record):
    __slots__ = _fields = (
        "kind",
        "ma_short",
        "ma_long",
        "roc_lookback",
        "roc_buy_threshold",
        "roc_sell_threshold",
        "bb_period",
        "bb_width",
    )

    def __init__(
        self,
        kind: str = "ma_crossover",
        ma_short: int = 5,
        ma_long: int = 20,
        roc_lookback: int = 14,
        roc_buy_threshold: float = 1.0,
        roc_sell_threshold: float = -1.0,
        bb_period: int = 20,
        bb_width: float = 2.0,
    ):
        self._set(locals())
        if kind not in STRATEGY_KINDS:
            raise ConfigurationError(
                f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}"
            )
        if not 0 < ma_short < ma_long:
            raise ConfigurationError(
                f"need 0 < ma_short < ma_long, got {ma_short}/{ma_long}"
            )
        if roc_lookback < 1:
            raise ConfigurationError("roc_lookback must be >= 1")
        if bb_period < 2:
            raise ConfigurationError("bb_period must be >= 2")
        if bb_width <= 0:
            raise ConfigurationError("bb_width must be > 0")


class CostModel(Record):
    __slots__ = _fields = (
        "commission_per_share",
        "slippage_per_share",
        "position_fraction",
        "initial_capital",
        "risk_free_annual",
        "trading_days_per_year",
        "slippage_mode",
    )

    def __init__(
        self,
        commission_per_share: float = 0.005,
        slippage_per_share: float = 0.02,
        position_fraction: float = 0.10,
        initial_capital: float = 100_000.0,
        risk_free_annual: float = 0.0505,
        trading_days_per_year: int = 252,
        # "per_share": execution price = close +/- slippage_per_share (currency).
        # "proportional": execution price = close * (1 +/- slippage_per_share).
        slippage_mode: str = "per_share",
    ):
        self._set(locals())
        for name in ("commission_per_share", "slippage_per_share", "risk_free_annual"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if not initial_capital > 0:  # every daily return divides by the value
            raise ConfigurationError("initial_capital must be > 0")
        if not 0 < position_fraction <= 1:
            raise ConfigurationError("position_fraction must be in (0,1]")
        if trading_days_per_year < 1:
            raise ConfigurationError("trading_days_per_year must be >= 1")
        if slippage_mode not in ("per_share", "proportional"):
            raise ConfigurationError(
                f"slippage_mode must be per_share or proportional, "
                f"got {slippage_mode!r}"
            )

    def buy_price(self, close: float) -> float:
        if self.slippage_mode == "proportional":
            return close * (1.0 + self.slippage_per_share)
        return close + self.slippage_per_share

    def sell_price(self, close: float) -> float:
        if self.slippage_mode == "proportional":
            return close * (1.0 - self.slippage_per_share)
        return close - self.slippage_per_share

    def risk_free_daily(self) -> float:
        return (1.0 + self.risk_free_annual) ** (1.0 / self.trading_days_per_year) - 1.0


class StdDevMode(Record):
    __slots__ = _fields = ("omega",)

    def __init__(self, omega: int):
        self._set(locals())
        if not hasattr(omega, "__index__"):  # an int, numpy's included
            raise ConfigurationError(f"attack: omega must be an integer, got {omega!r}")
        if omega < 2:
            raise ConfigurationError(f"attack: omega must be >= 2, got {omega}")

    @property
    def label(self) -> str:
        """A mode's name in cell errors and in the ``omega_or_mode`` column."""
        return f"omega={self.omega}"

    @property
    def history(self) -> int:
        """The closes before a day that its reported close reads."""
        return self.omega - 1

    def reported_closes(self, closes: np.ndarray) -> list[float | None]:
        """Each day's clean close plus twice the sample std of the omega closes
        ending that day, or exactly the clean close where those are all equal
        (their std need not be 0); None for a day with fewer closes."""
        if len(closes) < self.omega:
            return [None] * len(closes)
        windows = sliding_windows(closes, self.omega)  # row i: day i + omega - 1
        clean = closes[self.omega - 1 :]
        reported = clean + 2.0 * windows.std(axis=1, ddof=1)
        flat = windows.min(axis=1) == windows.max(axis=1)
        reported[flat] = clean[flat]
        return [None] * (self.omega - 1) + reported.tolist()

    def missing_history(self, ticker: str, at: int) -> str:  # the error for a None day
        return f"{ticker}: need {self.omega} days of history ending at index {at}"


class _PreviousCloseMode(Record):
    """A mode that reports the previous day's close less ``drop_fraction``
    of it; None on the first day."""

    __slots__ = ()
    history = 1

    def reported_closes(self, closes: np.ndarray) -> list[float | None]:
        return [None] + (closes[:-1] * (1.0 - self.drop_fraction)).tolist()

    def missing_history(self, ticker: str, at: int) -> str:
        return f"{ticker}: no previous day before index {at}"


class ConcealMode(_PreviousCloseMode):
    __slots__ = ()
    label = "conceal"
    drop_fraction = 0.0  # the previous close as it is: a drop hidden


class OverestimateMode(_PreviousCloseMode):
    __slots__ = _fields = ("drop_fraction",)
    label = "overestimate"

    def __init__(self, drop_fraction: float = 0.10):
        self._set(locals())
        if not 0.0 < drop_fraction < 1.0:
            raise ConfigurationError(
                f"attack: drop_fraction must be in (0,1), got {drop_fraction}"
            )


# ---------------------------------------------------------------------------
# section checks


def _reject_unknown(section: str, given: dict, known) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigurationError(f"{section}: unrecognized keys {unknown}")


def _object(section: str, given) -> dict:
    if not isinstance(given, dict):
        raise ConfigurationError(f"{section} must be an object, got {given!r}")
    return given


def _check_value(where: str, value, default) -> None:
    """Reject ``value`` unless it has the type of ``default``: an int must be
    an int (not a bool) inside the float range, a float any finite number
    (not a bool) and a str a str. A tuple default asks for a list of values
    of its first item's type."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list, got {value!r}")
        for item in value:
            _check_value(where, item, default[0])
        return
    kinds = (int, float) if type(default) is float else type(default)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigurationError(
            f"{where} must be of type {type(default).__name__}, got {value!r}"
        )
    # json reads NaN and Infinity; an int past the float range is not finite
    # either once it is used as a float, in a float or an int field
    if type(default) in (int, float) and not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")


def _section(section: str, defaults: dict, given) -> dict:
    """``given`` checked against a section's fields, each mapped to its
    default: no unknown key, and each value of its field's default type. A
    field whose default is None is left to the caller."""
    _object(section, given)
    _reject_unknown(section, given, defaults)
    for key, value in given.items():
        if isinstance(defaults[key], (int, float, str, tuple)):
            _check_value(f"{section}.{key}", value, defaults[key])
    return given


def _plain(section) -> dict:
    """A config record as its JSON section, tuples as lists."""
    return {
        k: list(v) if isinstance(v, tuple) else v for k, v in section._asdict().items()
    }


# ---------------------------------------------------------------------------
# the run configuration


class AttackConfig(NamedTuple):
    ticker: str
    mode: str  # a key of ATTACK_SUBMODES
    days: str | list  # "all" or a list of day indices / ISO dates
    omegas: tuple[int, ...] = (30, 40, 50)
    drop_fraction: float = 0.10

    @classmethod
    def from_dict(cls, d: dict) -> "AttackConfig":
        _section("attack", {**dict.fromkeys(cls._fields), **cls._field_defaults}, d)
        mode = d.get("mode")
        if mode not in ATTACK_SUBMODES:
            raise ConfigurationError(
                f"attack.mode must be one of {list(ATTACK_SUBMODES)}, got {mode!r}"
            )
        if "ticker" not in d:
            raise ConfigurationError("attack.ticker is required")
        _check_value("attack.ticker", d["ticker"], "")
        days = d.get("days", "all")
        if days != "all" and not isinstance(days, list):
            raise ConfigurationError('attack.days must be "all" or a list')
        if not days:
            raise ConfigurationError("attack.days must name at least one day")
        for entry in days if days != "all" else ():
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ConfigurationError(
                    f"attack.days: {entry!r} is neither a day index nor an ISO date"
                )
        omegas = tuple(d.get("omegas", cls._field_defaults["omegas"]))
        cfg = cls(**{**d, "days": days, "omegas": omegas})
        if not cfg.omegas:
            raise ConfigurationError("attack.omegas must name at least one window")
        repeated = sorted({w for w in cfg.omegas if cfg.omegas.count(w) > 1})
        if repeated:
            raise ConfigurationError(
                f"attack.omegas: each window once, {repeated} repeated"
            )
        for omega in cfg.omegas:
            StdDevMode(omega=omega)
        OverestimateMode(drop_fraction=cfg.drop_fraction)
        return cfg


class RunConfig(Record):
    __slots__ = _fields = (
        "data_dir",
        "tickers",
        "split",
        "predictor_kind",
        "predictor",
        "import_files",
        "strategy",
        "costs",
        "attack",
        "output_dir",
        "base_dir",
    )

    _KEYS = (
        "data_dir",
        "tickers",
        "split",
        "predictor",
        "strategy",
        "costs",
        "attack",
        "output_dir",
    )

    def __init__(
        self,
        data_dir: str,
        tickers: tuple[str, ...],
        split: SplitSpec,
        predictor_kind: str,  # baseline | import
        predictor: PredictorConfig | None,  # None for import
        import_files: dict[str, str],
        strategy: StrategyConfig,
        costs: CostModel,
        attack: AttackConfig | None,
        output_dir: str,
        base_dir: str = ".",
    ):
        self._set(locals())
        if attack is not None and attack.ticker not in tickers:
            raise ConfigurationError(
                f"attack.ticker {attack.ticker!r} is not one of the "
                f"tickers {list(tickers)}"
            )

    @classmethod
    def from_dict(cls, d: dict, base_dir: str = ".") -> "RunConfig":
        _reject_unknown("config", _object("config", d), cls._KEYS)
        tickers = d.get("tickers")
        if not tickers:
            raise ConfigurationError("tickers must be a nonempty list")
        _check_value("tickers", tickers, ("",))
        repeated = sorted({tk for tk in tickers if tickers.count(tk) > 1})
        if repeated:
            raise ConfigurationError(f"tickers: each ticker once, {repeated} repeated")
        if "data_dir" not in d:
            raise ConfigurationError("data_dir is required")
        output_dir = d.get("output_dir", "out")
        for key, path in (("data_dir", d["data_dir"]), ("output_dir", output_dir)):
            _check_value(key, path, "")
            if not path:  # "" would name the config's own directory
                raise ConfigurationError(f"{key} must name a directory, got ''")

        split_spec = SplitSpec(**_section("split", SplitSpec()._asdict(), d.get("split", {})))

        pred_d = dict(_object("predictor", d.get("predictor", {})))
        kind = pred_d.pop("kind", "baseline")
        import_files: dict[str, str] = {}
        if kind == "baseline":
            default = PredictorConfig()
            _section("predictor", default._asdict(), pred_d)
            predictor = PredictorConfig(
                window=pred_d.get("window", split_spec.window),
                features=tuple(pred_d.get("features", default.features)),
                ridge_lambda=float(pred_d.get("ridge_lambda", default.ridge_lambda)),
            )
        elif kind == "import":
            _reject_unknown("predictor", pred_d, ("files",))
            import_files = _object("predictor.files", pred_d.get("files", {}))
            _reject_unknown("predictor.files", import_files, tickers)
            for path in import_files.values():
                _check_value("predictor.files", path, "")
            missing = [tk for tk in tickers if tk not in import_files]
            if missing:
                raise ConfigurationError(
                    f"predictor.files: no prediction file for {missing}"
                )
            predictor = None  # imported forecasts: no model to configure
        else:
            raise ConfigurationError(
                f"predictor.kind must be baseline or import, got {kind!r}"
            )

        attack_cfg = None
        if d.get("attack") is not None:
            attack_cfg = AttackConfig.from_dict(d["attack"])

        cfg = cls(
            data_dir=d["data_dir"],
            tickers=tuple(tickers),
            split=split_spec,
            predictor_kind=kind,
            predictor=predictor,
            import_files=dict(import_files),
            strategy=StrategyConfig(
                **_section("strategy", StrategyConfig()._asdict(), d.get("strategy", {}))
            ),
            costs=CostModel(**_section("costs", CostModel()._asdict(), d.get("costs", {}))),
            attack=attack_cfg,
            output_dir=output_dir,
            base_dir=base_dir,
        )
        cfg.validate_paths()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        def unique_keys(pairs):
            # json keeps the last of a repeated key without a word
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ConfigurationError(f"{path}: key {key!r} given twice")
                seen.add(key)
            return dict(pairs)

        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=unique_keys)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from None
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    def csv_path(self, ticker: str) -> str:
        return os.path.join(self.resolve(self.data_dir), f"{ticker}.csv")

    def validate_paths(self) -> None:
        for tk in self.tickers:
            if not os.path.isfile(self.csv_path(tk)):
                raise ConfigurationError(f"no data file for {tk}: {self.csv_path(tk)}")
        for tk, path in self.import_files.items():
            if not os.path.isfile(self.resolve(path)):
                raise ConfigurationError(
                    f"prediction file for {tk} not found: {self.resolve(path)}"
                )

    def to_dict(self) -> dict:
        predictor: dict = {"kind": self.predictor_kind}
        if self.predictor_kind == "baseline":
            predictor.update(_plain(self.predictor))
        else:
            predictor["files"] = dict(self.import_files)
        out = {
            "data_dir": self.data_dir,
            "tickers": list(self.tickers),
            "split": _plain(self.split),
            "predictor": predictor,
            "strategy": _plain(self.strategy),
            "costs": _plain(self.costs),
            "output_dir": self.output_dir,
        }
        if self.attack is not None:
            out["attack"] = _plain(self.attack)
        return out
