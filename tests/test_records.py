"""The contract every epsim record type keeps, named tuple or
:class:`epsim.market_data.Record`: immutable fields, equality and hashing by
value within one type, the ``Name(field=value, ...)`` repr, and copies that
equal their original. The attack modes and ``EpSpec`` never equal another
type or a bare tuple.
"""

import copy
import datetime as dt
import pickle
import types

import pytest

from epsim.attack import AttackOutcome, AttackResult, CellError, EpSpec
from epsim.config import (
    AttackConfig,
    ConcealMode,
    CostModel,
    OverestimateMode,
    PredictorConfig,
    RunConfig,
    StdDevMode,
    StrategyConfig,
)
from epsim.files import Plan
from epsim.market_data import Dataset, SplitSpec, StockSeries
from epsim.predictor import AffineScaler, FitReport
from epsim.strategy import Signal
from epsim.trade_engine import DayStart, SignalRun, SimulationResult, TradeRecord

from conftest import make_bar

SERIES = StockSeries.from_bars("AAA", (make_bar(dt.date(2020, 1, d), 8.0 + d) for d in (2, 3)))
DATASET = Dataset({"AAA": SERIES}, SERIES.dates)
TRADE = TradeRecord(1, "AAA", Signal.BUY, 98, 101.27, 0.49, 1.96)
RESULT = SimulationResult((0.0, 0.01), (0.0, 0.01), 1.5, (TRADE,), 101_000.0)
DAY_START = DayStart(100_000.0, {"AAA": 3}, 100_000.0, 0)
EP = EpSpec("AAA", 1, StdDevMode(omega=30))
OUTCOME = AttackOutcome(EP, 12.0, 11.0, 0.5, 0.6, 1.5, 1.4, 0.01, 0.02, 2.0, 1)
MODES = [StdDevMode(omega=30), ConcealMode(), OverestimateMode()]

RECORDS = [
    PredictorConfig(),
    StrategyConfig(kind="bollinger_bands"),
    CostModel(slippage_mode="proportional"),
    *MODES,
    AttackConfig(ticker="AAA", mode="stddev", days="all"),
    RunConfig(
        "data", ("AAA",), SplitSpec(), "baseline", PredictorConfig(), {}, StrategyConfig(),
        CostModel(), AttackConfig(ticker="AAA", mode="conceal", days=(3,)), "out",
    ),
    SERIES,
    DATASET,
    SplitSpec(train_fraction=0.5, window=1),
    AffineScaler(1.0, 2.0),
    FitReport("AAA", 0.25, 10, 5),
    TRADE,
    RESULT,
    DAY_START,
    SignalRun({"AAA": [Signal.HOLD, Signal.BUY]}, RESULT, (DAY_START,), ({"AAA": 10.0},)),
    EP,
    OUTCOME,
    CellError(3, "conceal", "no previous day before index 0"),
    AttackResult("sweep", (OUTCOME,), RESULT, ()),
    Plan(DATASET, 1, {}, None),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.fixture(params=RECORDS, ids=lambda r: type(r).__name__)
def record(request):
    return request.param


def test_every_record_type_is_listed():
    # one example per record type of every module that defines one
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 22


def test_fields_cannot_be_assigned_or_deleted(record):
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in record._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_equal_fields_make_equal_records(record):
    rebuilt = type(record)(**record._asdict())
    assert rebuilt is not record
    assert rebuilt == record and not rebuilt != record
    if _hashable(record):
        assert hash(rebuilt) == hash(record)


def test_copies_equal_the_original(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_repr_names_each_field(record):
    fields = ", ".join(f"{name}={value!r}" for name, value in record._asdict().items())
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("value", [*MODES, EP], ids=lambda v: type(v).__name__)
def test_modes_and_ep_spec_equal_no_other_type_and_no_tuple(value):
    for other in [*MODES, EP]:
        assert (value == other) == (other is value)
    assert value != tuple(value._asdict().values())
    assert value != ()
    assert value != types.SimpleNamespace(**value._asdict())


def test_a_changed_field_makes_an_unequal_record():
    assert StdDevMode(omega=30) != StdDevMode(omega=30, ddof=0)
    assert EpSpec("AAA", 1, ConcealMode()) != EpSpec("AAA", 2, ConcealMode())
    assert CostModel() != CostModel(initial_capital=1.0)


def test_what_the_benchmark_tracer_wraps_is_defined_on_its_class():
    # perfbench/tracing.py replaces these two attributes on the class itself
    assert isinstance(Dataset.__dict__["slice"], types.FunctionType)
    assert isinstance(RunConfig.__dict__["from_file"], classmethod)
