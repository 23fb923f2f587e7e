"""The incremental attack engine against the full-rerun oracle.

Every cell of :class:`epsim.attack.AttackContext` must equal, bit for bit,
what a full rerun gives: the same outcome (``cr_ratio`` compared NaN-aware),
the same attacked ledger and returns, the same first divergence day.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim.attack import (
    AttackContext,
    AttackOutcome,
    ConcealMode,
    CustomMode,
    EpSpec,
    OverestimateMode,
    StdDevMode,
    perturbed_prediction_entry,
    run_attacked_simulation,
    run_targeted,
    sweep_indiscriminate,
)
from epsim.errors import AttackSetupError
from epsim.market_data import Dataset
from epsim.predictor import PredictorConfig, fit_baseline
from epsim.strategy import STRATEGY_KINDS, Signal, StrategyConfig
from epsim.trade_engine import CostModel, DayStart, resume_signals, run_signals

from conftest import dataset_from_closes, make_world, random_series
from oracles import attack_oracle

pytestmark = pytest.mark.filterwarnings(
    "ignore::epsim.errors.ZeroVolatilityWarning"
)

TICKERS = ("AAA", "BBB", "CCC", "DDD")


def assert_same_outcome(got: AttackOutcome, want: AttackOutcome):
    for field in dataclasses.fields(AttackOutcome):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, float) or isinstance(b, float):
            # repr is bit-exact for floats, tells -0.0 from 0.0, and equates NaNs
            assert repr(float(a)) == repr(float(b)), field.name
        else:
            assert a == b, field.name


def assert_cell_matches_oracle(context, world, strategy, costs, ep):
    dataset, test_start, predictors = world
    try:
        want = attack_oracle(dataset, test_start, predictors, strategy, costs, ep)
    except AttackSetupError:
        with pytest.raises(AttackSetupError):
            context.outcome(ep)
        return
    baseline, attacked_want, outcome_want = want
    attacked, outcome = context.outcome(ep)
    assert context.baseline.serialize() == baseline.serialize()
    assert attacked.serialize() == attacked_want.serialize()
    assert_same_outcome(outcome, outcome_want)


@st.composite
def worlds(draw):
    n_tickers = draw(st.integers(2, 4))
    window = draw(st.integers(3, 12))
    n = draw(st.integers(80, 140))
    seed = draw(st.integers(0, 2**32 - 1))
    world = make_world(
        np.random.default_rng(seed),
        tickers=TICKERS[:n_tickers],
        n=n,
        window=window,
        train_fraction=draw(st.sampled_from([0.5, 0.6, 0.7])),
        vol=draw(st.sampled_from([1.0, 2.5, 4.0])),
        drift=draw(st.sampled_from([-0.1, 0.0, 0.1])),
    )
    kind = draw(st.sampled_from(STRATEGY_KINDS))
    strategy = StrategyConfig(
        kind=kind,
        ma_short=draw(st.integers(2, 4)),
        ma_long=draw(st.integers(5, 10)),
        roc_lookback=draw(st.integers(1, 6)),
        roc_buy_threshold=0.5,
        roc_sell_threshold=-0.5,
        bb_period=draw(st.integers(3, 8)),
        bb_width=draw(st.sampled_from([0.5, 1.0, 2.0])),
    )
    mode = draw(st.sampled_from(["per_share", "proportional"]))
    costs = CostModel(
        slippage_mode=mode,
        slippage_per_share=0.02 if mode == "per_share" else 0.001,
        position_fraction=draw(st.sampled_from([0.1, 0.35, 0.8])),
    )
    return world, strategy, costs


@st.composite
def perturbations(draw, world):
    dataset, test_start, _ = world
    n_test = dataset.n_days() - test_start
    ticker = draw(st.sampled_from(sorted(dataset.series)))
    day = draw(st.one_of(st.integers(0, n_test - 1), st.just(n_test - 1)))
    clean_close = dataset.series[ticker].bars[test_start + day].close
    mode = draw(
        st.one_of(
            st.builds(
                StdDevMode, omega=st.integers(2, 20), ddof=st.sampled_from([0, 1])
            ),
            st.just(ConcealMode()),
            st.builds(
                OverestimateMode,
                drop_fraction=st.floats(0.01, 0.5, allow_nan=False),
            ),
            st.just(CustomMode(value=clean_close)),
            st.builds(CustomMode, value=st.floats(1.0, 400.0, allow_nan=False)),
        )
    )
    return EpSpec(ticker, day, mode)


class TestDifferential:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cells_equal_full_rerun(self, data):
        world, strategy, costs = data.draw(worlds())
        context = AttackContext(*world, strategy, costs)
        for _ in range(6):
            ep = data.draw(perturbations(world))
            assert_cell_matches_oracle(context, world, strategy, costs, ep)

    def test_null_perturbation_and_last_day_skip_the_simulation(self, rng):
        world = make_world(rng, tickers=("AAA", "BBB", "CCC"), vol=3.0)
        dataset, test_start, _ = world
        strategy, costs = StrategyConfig(), CostModel()
        context = AttackContext(*world, strategy, costs)
        last = dataset.n_days() - test_start - 1
        clean_close = dataset.series["BBB"].bars[test_start + 5].close
        for ep in (
            EpSpec("BBB", 5, CustomMode(value=clean_close)),
            EpSpec("BBB", last, StdDevMode(omega=5)),
        ):
            attacked, outcome = context.outcome(ep)
            assert attacked is context.baseline
            assert outcome.first_divergence_day is None
            assert_cell_matches_oracle(context, world, strategy, costs, ep)

    def test_sweep_and_targeted_cells_equal_full_rerun(self, rng):
        world = make_world(rng, tickers=("AAA", "BBB"), n=120, vol=3.0)
        strategy, costs = StrategyConfig(ma_long=8), CostModel(position_fraction=0.5)
        sweep = sweep_indiscriminate(
            *world, strategy, costs, ticker="AAA", omegas=[4, 9]
        )
        assert any(o.first_divergence_day is not None for o in sweep.outcomes)
        for outcome in sweep.outcomes:
            _, _, want = attack_oracle(*world, strategy, costs, outcome.ep)
            assert_same_outcome(outcome, want)
        targeted = run_targeted(
            *world, strategy, costs, ticker="BBB", days=[3, 17, 29], scenario="conceal"
        )
        for outcome in targeted.outcomes:
            _, _, want = attack_oracle(*world, strategy, costs, outcome.ep)
            assert_same_outcome(outcome, want)
        ep = EpSpec("AAA", 12, StdDevMode(omega=6))
        attacked, outcome = run_attacked_simulation(*world, strategy, costs, ep)
        _, attacked_want, want = attack_oracle(*world, strategy, costs, ep)
        assert attacked.serialize() == attacked_want.serialize()
        assert_same_outcome(outcome, want)


def scalar_forecast(predictor, bars) -> float:
    """A forecast computed one scaled value at a time."""
    x = np.empty(len(bars) * len(predictor.config.features), dtype=np.float64)
    k = 0
    for bar in bars:
        for f in predictor.config.features:
            x[k] = predictor.feature_scalers[f].transform(getattr(bar, f))
            k += 1
    return predictor.target_scaler.inverse(float(x @ predictor.coef))


class TestCachedForecasts:
    @pytest.mark.parametrize(
        "features", [("open", "high", "low", "close", "volume"), ("volume", "close")]
    )
    def test_clean_and_attacked_forecasts_equal_predict_window(self, rng, features):
        dataset, test_start, _ = make_world(rng, tickers=("AAA", "BBB"), n=150)
        predictors = fit_baseline(
            dataset.slice(0, test_start), PredictorConfig(window=10, features=features)
        )
        context = AttackContext(
            dataset, test_start, predictors, StrategyConfig(), CostModel()
        )
        n_test = dataset.n_days() - test_start
        for tk, predictor in predictors.items():
            bars = dataset.series[tk].bars
            for t, value in context.predictions[tk].entries.items():
                a = test_start + t
                window = bars[a - 10 : a]
                assert value == predictor.predict_window(window)
                assert value == scalar_forecast(predictor, window)
            for day in range(n_test - 1):
                for mode in (StdDevMode(omega=7), ConcealMode(), CustomMode(3.0)):
                    ep = EpSpec(tk, day, mode)
                    entry_day, entry, perturbed, _ = perturbed_prediction_entry(
                        predictor, dataset.series[tk], test_start, ep, context.scaled[tk]
                    )
                    a = test_start + day
                    window = list(bars[a - 9 : a + 1])
                    window[-1] = replace(window[-1], close=perturbed)
                    assert entry_day == day + 1
                    assert entry == predictor.predict_window(window)
                    assert entry == scalar_forecast(predictor, window)

    def test_forecast_without_close_feature_ignores_the_perturbation(self, rng):
        dataset, test_start, _ = make_world(rng, tickers=("AAA",), n=120)
        predictors = fit_baseline(
            dataset.slice(0, test_start), PredictorConfig(window=8, features=("open",))
        )
        context = AttackContext(
            dataset, test_start, predictors, StrategyConfig(), CostModel()
        )
        _, outcome = context.outcome(EpSpec("AAA", 10, CustomMode(value=999.0)))
        assert outcome.rmse_attacked == outcome.rmse_clean
        assert outcome.first_divergence_day is None


SIGNALS = [Signal.BUY, Signal.SELL, Signal.HOLD]


class TestResume:
    @given(
        seed=st.integers(0, 2**32 - 1),
        edits=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 39), st.sampled_from(SIGNALS)),
            max_size=4,
        ),
        fraction=st.sampled_from([0.1, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_resume_equals_run_from_day_zero(self, seed, edits, fraction):
        rng = np.random.default_rng(seed)
        series = {tk: random_series(rng, tk, 40) for tk in "ABC"}
        test = Dataset(series=series, calendar=series["A"].dates())
        costs = CostModel(position_fraction=fraction)
        signals = {
            tk: [SIGNALS[i] for i in rng.integers(0, 3, size=40)] for tk in "ABC"
        }
        base = resume_signals(test, signals, costs)
        assert base.result == run_signals(test, signals, costs)
        edited = {tk: list(s) for tk, s in signals.items()}
        for ticker, day, signal in edits:
            edited["ABC"[ticker]][day] = signal
        resumed = resume_signals(test, edited, costs, base)
        fresh = resume_signals(test, edited, costs)
        assert resumed.result.serialize() == fresh.result.serialize()
        assert resumed.result == fresh.result
        assert resumed.day_starts == fresh.day_starts
        if edited == signals:
            assert resumed is base

    # Flat prices and no costs: a buy and a sell of the same shares leave
    # cash exactly where it was, so runs whose ledgers differ in length can
    # reach the same portfolio state and rejoin.
    FREE = CostModel(commission_per_share=0.0, slippage_per_share=0.0, position_fraction=0.5)

    def flat_run(self, trades):
        """Signals for tickers A (close 10) and B (close 20) over 14 days,
        with the given {(ticker, day): signal}."""
        test = dataset_from_closes({"A": [10.0] * 14, "B": [20.0] * 14})
        signals = {tk: [Signal.HOLD] * 14 for tk in "AB"}
        for (tk, day), signal in trades.items():
            signals[tk][day] = signal
        return test, signals

    @pytest.mark.parametrize(
        "base_trades, edited_trades",
        [
            # the edit adds a round trip in A: the ledger grows by two
            ({("A", 1): Signal.BUY, ("A", 2): Signal.SELL},
             {("A", 1): Signal.BUY, ("A", 2): Signal.SELL,
              ("A", 4): Signal.BUY, ("A", 5): Signal.SELL}),
            # the edit drops a round trip in A: the ledger shrinks by two
            ({("A", 1): Signal.BUY, ("A", 2): Signal.SELL,
              ("A", 4): Signal.BUY, ("A", 5): Signal.SELL},
             {("A", 1): Signal.BUY, ("A", 2): Signal.SELL}),
        ],
        ids=["longer-ledger", "shorter-ledger"],
    )
    def test_rejoin_with_a_different_ledger_length(self, base_trades, edited_trades):
        later = {("B", 8): Signal.BUY, ("A", 9): Signal.BUY, ("B", 11): Signal.SELL}
        test, signals = self.flat_run({**base_trades, **later})
        _, edited = self.flat_run({**edited_trades, **later})
        base = resume_signals(test, signals, self.FREE)
        resumed = resume_signals(test, edited, self.FREE, base)
        fresh = resume_signals(test, edited, self.FREE)
        assert (resumed.start, resumed.stop) == (4, 6)
        assert len(resumed.result.trade_ledger) != len(base.result.trade_ledger)
        assert resumed.result.serialize() == fresh.result.serialize()
        assert resumed.day_starts == fresh.day_starts
        assert resumed.result.trade_ledger[-3:] == base.result.trade_ledger[-3:]

    def test_no_rejoin_while_holdings_differ_by_a_zero_share_key(self):
        test, signals = self.flat_run(
            {("A", 1): Signal.BUY, ("A", 2): Signal.SELL, ("B", 8): Signal.BUY}
        )
        _, edited = self.flat_run({("B", 8): Signal.BUY})
        base = resume_signals(test, signals, self.FREE)
        resumed = resume_signals(test, edited, self.FREE, base)
        fresh = resume_signals(test, edited, self.FREE)
        assert resumed.stop == 14  # {"A": 0} never matches {}
        assert resumed.result.serialize() == fresh.result.serialize()
        assert resumed.day_starts == fresh.day_starts

    def test_state_match_compares_holdings_in_order_with_zero_keys(self):
        start = DayStart(cash=5.0, holdings={"A": 1, "B": 2}, prev_value=9.0, n_trades=3)
        assert start.matches(5.0, {"A": 1, "B": 2}, 9.0)
        assert not start.matches(5.0, {"B": 2, "A": 1}, 9.0)
        assert not start.matches(5.0, {"A": 1, "B": 2, "C": 0}, 9.0)
        assert not start.matches(5.0, {"A": 1}, 9.0)
        assert not start.matches(5.5, {"A": 1, "B": 2}, 9.0)
        assert not start.matches(5.0, {"A": 1, "B": 2}, 9.5)
        with_zero = DayStart(cash=5.0, holdings={"A": 0, "B": 2}, prev_value=9.0, n_trades=0)
        assert not with_zero.matches(5.0, {"B": 2}, 9.0)
