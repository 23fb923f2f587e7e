"""Exception hierarchy: one class per pipeline stage.

The CLI reports an error as ``error [<module>]: <message>``. The tag is the
class: each stage raises its own subclass of :class:`EpsimError`, whose
``module`` names the stage, and the message names the input that was wrong
(a path and line, a date, a config key).
"""


class EpsimError(Exception):
    """Base class for all errors raised by this package."""

    module = "epsim"


class MarketDataError(EpsimError):
    """A data CSV is malformed, empty or inconsistent, or calendars do not
    align."""

    module = "market_data"


class ConfigurationError(EpsimError):
    """A configuration value or a command-line option is invalid."""

    module = "config"


class PredictorError(EpsimError):
    """A predictor cannot be fitted, applied or evaluated, or an imported
    forecast does not match the trading calendar."""

    module = "predictor"


class TradeEngineError(EpsimError):
    """Forecasts and the test calendar do not line up, or a metric was asked
    of degenerate input."""

    module = "trade_engine"


class AttackSetupError(EpsimError):
    """A perturbation cannot be crafted for the requested ticker or day."""

    module = "attack"


class ReportError(EpsimError):
    """A result file is missing, empty, or has a mismatched schema."""

    module = "report"


class ZeroVolatilityWarning(RuntimeWarning):
    """Sharpe ratio was requested on a zero-volatility return stream. The
    CLI prints it as ``warning [trade_engine]: <message>``."""

    module = "trade_engine"
