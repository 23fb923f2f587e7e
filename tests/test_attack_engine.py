"""The incremental attack engine against the full-rerun oracle.

Every cell of :class:`epsim.attack.AttackContext` must equal, bit for bit,
what a full rerun gives: the same outcome (``cr_ratio`` compared NaN-aware),
the same attacked ledger and returns, the same first divergence day. Each
table a cell reads instead of computing (the sigma table, the decision
screen, the memo of signal changes) and the resume are also checked against
the plain path they replace.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim import attack, strategy
from epsim.attack import (
    AttackContext,
    AttackOutcome,
    EpSpec,
    perturbed_prediction_entry,
    run_targeted,
    sweep_indiscriminate,
)
from epsim.config import (
    STRATEGY_KINDS,
    ConcealMode,
    CostModel,
    OverestimateMode,
    PredictorConfig,
    StdDevMode,
    StrategyConfig,
)
from epsim.errors import AttackSetupError
from epsim.market_data import Dataset
from epsim.predictor import RidgePredictor, fit_baseline
from epsim.strategy import Signal, generate_signals, stable_intervals
from epsim.trade_engine import DayStart, record_signals, resume_signals, run_signals

from conftest import (
    dataset_from_closes,
    make_world,
    random_series,
    random_walk_closes,
    series_from_closes,
)
from oracles import FixedClose, attack_oracle, resume_oracle

pytestmark = pytest.mark.filterwarnings(
    "ignore::epsim.errors.ZeroVolatilityWarning"
)

TICKERS = tuple(c * 3 for c in "ABCDEFGHIJKLMNOPQRST")  # AAA .. TTT


def assert_same_outcome(got: AttackOutcome, want: AttackOutcome):
    assert type(got) is type(want) is AttackOutcome
    for name in AttackOutcome._fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, float) or isinstance(b, float):
            # repr is bit-exact for floats, tells -0.0 from 0.0, and equates NaNs
            assert repr(float(a)) == repr(float(b)), name
        else:
            assert a == b, name


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
    assert repr(context.baseline) == repr(baseline)
    assert repr(attacked) == repr(attacked_want)
    assert_same_outcome(outcome, outcome_want)


@st.composite
def worlds(draw):
    n_tickers = draw(st.integers(2, len(TICKERS)))  # contention at universe scale
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
            st.builds(StdDevMode, omega=st.integers(2, 20)),
            st.just(ConcealMode()),
            st.builds(
                OverestimateMode,
                drop_fraction=st.floats(0.01, 0.5, allow_nan=False),
            ),
            st.just(FixedClose(value=clean_close)),
            st.builds(FixedClose, value=st.floats(1.0, 400.0, allow_nan=False)),
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
            EpSpec("BBB", 5, FixedClose(value=clean_close)),
            EpSpec("BBB", last, StdDevMode(omega=5)),
        ):
            attacked, outcome = context.outcome(ep)
            assert attacked is context.baseline
            assert outcome.first_divergence_day is None
            assert_cell_matches_oracle(context, world, strategy, costs, ep)

    def test_sweep_and_targeted_cells_equal_full_rerun(self, rng):
        world = make_world(rng, tickers=("AAA", "BBB"), n=120, vol=3.0)
        strategy, costs = StrategyConfig(ma_long=8), CostModel(position_fraction=0.5)
        context = AttackContext(*world, strategy, costs)
        sweep = sweep_indiscriminate(context, ticker="AAA", omegas=[4, 9])
        assert any(o.first_divergence_day is not None for o in sweep.outcomes)
        for outcome in sweep.outcomes:
            _, _, want = attack_oracle(*world, strategy, costs, outcome.ep)
            assert_same_outcome(outcome, want)
        targeted = run_targeted(
            context, ticker="BBB", days=[3, 17, 29], scenario="conceal"
        )
        for outcome in targeted.outcomes:
            _, _, want = attack_oracle(*world, strategy, costs, outcome.ep)
            assert_same_outcome(outcome, want)
        ep = EpSpec("AAA", 12, StdDevMode(omega=6))
        attacked, outcome = context.outcome(ep)
        _, attacked_want, want = attack_oracle(*world, strategy, costs, ep)
        assert repr(attacked) == repr(attacked_want)
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
            for t in forecast_days(context.predictions[tk]):
                value = context.predictions[tk][t]
                a = test_start + t
                window = bars[a - 10 : a]
                assert value == predictor.predict_window(window)
                assert value == scalar_forecast(predictor, window)
            for day in range(n_test - 1):
                for mode in (StdDevMode(omega=7), ConcealMode(), FixedClose(3.0)):
                    ep = EpSpec(tk, day, mode)
                    entry_day, entry, perturbed, _ = perturbed_prediction_entry(
                        predictor, dataset.series[tk], test_start, ep, context.scaled(tk)
                    )
                    a = test_start + day
                    window = list(bars[a - 9 : a + 1])
                    window[-1] = window[-1]._replace(close=perturbed)
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
        _, outcome = context.outcome(EpSpec("AAA", 10, FixedClose(value=999.0)))
        assert outcome.rmse_attacked == outcome.rmse_clean
        assert outcome.first_divergence_day is None


class TestContextMemory:
    def test_scaled_features_are_built_per_attacked_ticker(self, monkeypatch):
        # the universe workload's world: 20 tickers x 400 days, 50-day window.
        # Keeping every ticker's scaled features made a context hold 658 kB
        tickers = tuple(f"U{i:02d}" for i in range(20))
        dataset, test_start, predictors = make_world(
            np.random.default_rng(0), tickers=tickers, n=400, window=50, train_fraction=0.8
        )
        strategy_config = StrategyConfig(kind="bollinger_bands")
        AttackContext(dataset, test_start, predictors, strategy_config, CostModel())
        scaled = []
        scale = RidgePredictor.scale

        def spy(self, series):
            scaled.append(series.ticker)
            return scale(self, series)

        monkeypatch.setattr(RidgePredictor, "scale", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            context = AttackContext(
                dataset, test_start, predictors, strategy_config, CostModel()
            )
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 450_000
        assert sorted(scaled) == list(tickers)  # one scale per clean forecast series
        del scaled[:]
        for day in (10, 11):
            context.outcome(EpSpec("U03", day, StdDevMode(omega=50)))
        assert scaled == ["U03"]
        assert context.scaled("U03") is context.scaled("U03")
        assert np.array_equal(
            context.scaled("U03"), scale(predictors["U03"], dataset.series["U03"])
        )
        assert scaled == ["U03"]


SIGNALS = [Signal.BUY, Signal.SELL, Signal.HOLD]


@st.composite
def signal_worlds(draw):
    """(test calendar, cost model, executed signals) of 2-20 tickers over
    1-40 days, each day's signal drawn with a drawn share of HOLDs. Some
    worlds have flat whole-dollar closes and no costs, so a round trip
    leaves cash exactly where it was and a resumed run can rejoin."""
    n_tickers = draw(st.integers(2, len(TICKERS)))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fraction = draw(st.sampled_from([0.05, 0.3, 0.8, 1.0]))
    if draw(st.booleans()):
        series = {
            tk: series_from_closes(tk, [float(rng.integers(5, 50))] * n)
            for tk in TICKERS[:n_tickers]
        }
        costs = CostModel(
            commission_per_share=0.0, slippage_per_share=0.0, position_fraction=fraction
        )
    else:
        series = {tk: random_series(rng, tk, n, vol=2.0) for tk in TICKERS[:n_tickers]}
        costs = CostModel(position_fraction=fraction)
    test = Dataset(series=series, calendar=series[TICKERS[0]].dates)
    hold = draw(st.sampled_from([0.0, 0.6, 0.9]))
    signals = {
        tk: [
            Signal.HOLD if u < hold else SIGNALS[i]
            for u, i in zip(rng.random(n), rng.integers(0, 2, size=n))
        ]
        for tk in series
    }
    return test, costs, signals


@st.composite
def signal_edits(draw, base):
    """Up to four edits of ``base``'s signals, the first day and the last
    among the days drawn; maybe a BUY and a SELL on the next day of a
    ticker held, a round trip that in a flat world without costs ends in
    the base's state; and maybe a SELL with nothing held in place of a
    HOLD, an edit that changes no trade."""
    tickers = sorted(base.signals)
    n = len(base.marks)
    edited = {tk: list(s) for tk, s in base.signals.items()}
    day = st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 4))):
        tk = draw(st.sampled_from(tickers))
        edited[tk][draw(day)] = draw(st.sampled_from(SIGNALS))
    held = [
        (tk, t) for t in range(n - 1) for tk in base.day_starts[t].holdings
        if base.signals[tk][t] is base.signals[tk][t + 1] is Signal.HOLD
    ]
    if held and draw(st.booleans()):
        tk, t = draw(st.sampled_from(held))
        edited[tk][t : t + 2] = [Signal.BUY, Signal.SELL]
    if draw(st.booleans()):
        idle = [
            (tk, t) for t in range(n) for tk in tickers
            if base.signals[tk][t] is Signal.HOLD and not base.day_starts[t].holdings.get(tk)
        ]
        if idle:
            tk, t = draw(st.sampled_from(idle))
            edited[tk][t] = Signal.SELL
    return edited


class TestResume:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_resume_equals_the_oracle(self, data):
        # the resume that compares each day's end state with the base's
        # against the one that recorded every day and rescanned it
        test, costs, signals = data.draw(signal_worlds())
        base = record_signals(test, signals, costs)
        edited = data.draw(signal_edits(base))
        result, first = resume_signals(test, edited, costs, base)
        want, want_first = resume_oracle(test, edited, costs, signals)
        assert repr(result) == repr(want)
        assert first == want_first
        assert (result is base.result) == (first is None)

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
        test = Dataset(series=series, calendar=series["A"].dates)
        costs = CostModel(position_fraction=fraction)
        signals = {
            tk: [SIGNALS[i] for i in rng.integers(0, 3, size=40)] for tk in "ABC"
        }
        base = record_signals(test, signals, costs)
        assert base.result == run_signals(test, signals, costs)
        assert len(base.day_starts) == 41
        edited = {tk: list(s) for tk, s in signals.items()}
        for ticker, day, signal in edits:
            edited["ABC"[ticker]][day] = signal
        resumed, first = resume_signals(test, edited, costs, base)
        fresh = record_signals(test, edited, costs).result
        assert repr(resumed) == repr(fresh)
        assert resumed == fresh
        if edited == signals:
            assert resumed is base.result and first is None

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
        base = record_signals(test, signals, self.FREE)
        resumed, first = resume_signals(test, edited, self.FREE, base)
        fresh = record_signals(test, edited, self.FREE).result
        assert first == 4
        assert len(resumed.trade_ledger) != len(base.result.trade_ledger)
        assert repr(resumed) == repr(fresh)
        # rejoined on day 6: the later trades are the base's own records
        tail = base.result.trade_ledger[-3:]
        assert all(got is want for got, want in zip(resumed.trade_ledger[-3:], tail))
        assert not any(got is want for got, want in zip(fresh.trade_ledger[-3:], tail))

    def test_no_rejoin_while_holdings_differ_by_a_zero_share_key(self):
        test, signals = self.flat_run(
            {("A", 1): Signal.BUY, ("A", 2): Signal.SELL, ("B", 8): Signal.BUY}
        )
        _, edited = self.flat_run({("B", 8): Signal.BUY})
        base = record_signals(test, signals, self.FREE)
        resumed, first = resume_signals(test, edited, self.FREE, base)
        fresh = record_signals(test, edited, self.FREE).result
        assert first == 1
        assert repr(resumed) == repr(fresh)
        # {"A": 0} never matches {}: B's buy is executed again, not spliced in
        assert resumed.trade_ledger[-1] == base.result.trade_ledger[-1]
        assert resumed.trade_ledger[-1] is not base.result.trade_ledger[-1]

    def test_an_edit_that_changes_no_trade_returns_the_base(self):
        # a SELL with nothing held in place of a HOLD trades nothing, so the
        # resume ends in the base's state the day it starts
        test, signals = self.flat_run({("A", 1): Signal.BUY, ("B", 8): Signal.BUY})
        _, edited = self.flat_run(
            {("A", 1): Signal.BUY, ("B", 8): Signal.BUY, ("B", 3): Signal.SELL}
        )
        base = record_signals(test, signals, self.FREE)
        resumed, first = resume_signals(test, edited, self.FREE, base)
        assert resumed is base.result
        assert first is None

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


def forecast_days(column):
    """The days of a forecast column that have a forecast."""
    return np.flatnonzero(~np.isnan(column)).tolist()


def regenerated(context, ticker, entry_day, entry):
    """The ticker's unshifted signals regenerated over the whole calendar
    with one forecast entry changed: the plain path the screen replaces."""
    entries = context.predictions[ticker].copy()
    entries[entry_day] = entry
    return generate_signals(context.test.series[ticker], entries, context.strategy_config)


def probe_entries(context, ticker, entry_day, bounds):
    """Values for one forecast entry: the clean one, relative steps away from
    it, and values a few ulps and about a margin either side of each finite
    edge of the day's screen interval."""
    clean = float(context.predictions[ticker][entry_day])
    values = [clean]
    for step in (1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 5e-2, 0.2):
        values += [clean * (1 + step), clean * (1 - step)]
    for edge in bounds:
        if math.isfinite(edge):
            for direction in (math.inf, -math.inf):
                x = edge
                for _ in range(3):
                    x = math.nextafter(x, direction)
                    values.append(x)
            values += [edge * (1 + 1e-9), edge * (1 - 1e-9)]
    return values


SCREENED_STRATEGIES = {
    "ma_crossover": StrategyConfig(kind="ma_crossover", ma_short=3, ma_long=8),
    "bollinger_bands": StrategyConfig(kind="bollinger_bands", bb_period=6, bb_width=1.0),
    "roc_forecasts": StrategyConfig(
        kind="rate_of_change", roc_lookback=3, roc_buy_threshold=0.5, roc_sell_threshold=-0.5
    ),
}


class TestDecisionScreen:
    @pytest.mark.parametrize("name", sorted(SCREENED_STRATEGIES))
    def test_screen_agrees_with_regeneration_on_both_branches(self, rng, name):
        # a screened entry must regenerate the baseline's signals; the
        # probes must reach both branches, and entries the screen passes on
        # that do change a signal
        config = SCREENED_STRATEGIES[name]
        world = make_world(rng, tickers=("AAA", "BBB"), n=160, vol=3.0)
        context = AttackContext(*world, config, CostModel())
        counts = {"screened": 0, "exact": 0, "exact_changed": 0}
        for tk in ("AAA", "BBB"):
            lo, hi = stable_intervals(context.test.series[tk], context.predictions[tk], config)
            raw = context.raw_signals[tk]
            for day in forecast_days(context.predictions[tk]):
                for x in probe_entries(context, tk, day, (lo[day], hi[day])):
                    same = regenerated(context, tk, day, x) == raw
                    if context.keeps_signals(tk, day, x):
                        counts["screened"] += 1
                        assert same, (tk, day, x)
                    else:
                        counts["exact"] += 1
                        counts["exact_changed"] += not same
        assert counts["screened"] > 0
        assert counts["exact_changed"] > 0

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_screened_entries_keep_every_signal(self, data):
        world, config, costs = data.draw(worlds())
        context = AttackContext(*world, config, costs)
        for tk in sorted(context.predictions):
            lo, hi = stable_intervals(context.test.series[tk], context.predictions[tk], config)
            days = forecast_days(context.predictions[tk])
            for day in data.draw(st.lists(st.sampled_from(days), min_size=1, max_size=4)):
                for x in probe_entries(context, tk, day, (lo[day], hi[day])):
                    if context.keeps_signals(tk, day, x):
                        assert regenerated(context, tk, day, x) == context.raw_signals[tk]

    def test_entries_within_the_margin_of_an_edge_take_the_exact_path(self, rng):
        # MA breakpoints come from window means summed pairwise, while the
        # signals sum each window in order, so a breakpoint can sit a few
        # ulps from where the signal flips. Entries just inside an interval
        # left unnarrowed that do change a signal exist in this world; the
        # margin must send every one of them to the exact path.
        config = SCREENED_STRATEGIES["ma_crossover"]
        world = make_world(rng, tickers=("AAA", "BBB"), n=160, vol=2.0)
        context = AttackContext(*world, config, CostModel())
        witnesses = []
        for tk in ("AAA", "BBB"):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(strategy, "SCREEN_MARGIN", 0.0)
                lo, hi = stable_intervals(context.test.series[tk], context.predictions[tk], config)
            for day in forecast_days(context.predictions[tk]):
                for edge, inward in ((lo[day], math.inf), (hi[day], -math.inf)):
                    x = edge
                    for _ in range(16 if math.isfinite(edge) else 0):
                        x = math.nextafter(x, inward)
                        if regenerated(context, tk, day, x) != context.raw_signals[tk]:
                            witnesses.append((tk, day, x))
        assert witnesses
        for tk, day, x in witnesses:
            assert not context.keeps_signals(tk, day, x), (tk, day, x)


class TestSigmaTable:
    def test_sigma_table_has_the_per_slice_bits(self):
        # StdDevMode cells read their perturbed close from a column of every
        # day's reported close built in one pass; the reference here takes
        # np.std of a fresh array of each window's closes. A flat stretch
        # gives constant windows, whose np.std is not always 0 (for three
        # closes of 100.1 it is 1.7e-14) but whose perturbation is none;
        # omegas past the history give infeasible days, which must fail
        # naming the omega and the index.
        rng = np.random.default_rng(7)
        closes = random_walk_closes(rng, 160, vol=2.0)
        closes[100:115] = 100.1
        assert np.std(closes[100:103], ddof=1) != 0.0
        dataset = dataset_from_closes(
            {"AAA": closes, "BBB": random_walk_closes(rng, 160, start=50.0, vol=0.3)}
        )
        predictors = fit_baseline(dataset.slice(0, 60), PredictorConfig(window=10))
        context = AttackContext(dataset, 60, predictors, StrategyConfig(), CostModel())
        seen = {"flat": 0, "infeasible": 0, "checked": 0}
        for tk in ("AAA", "BBB"):
            bars = dataset.series[tk].bars
            for omega in (2, 3, 5, 13, 61, 70):
                for day in range(context.test.n_days()):
                    ep = EpSpec(tk, day, StdDevMode(omega=omega))
                    at = 60 + day
                    if at < omega - 1:
                        seen["infeasible"] += 1
                        message = f"{tk}: need {omega} days of history ending at index {at}"
                        with pytest.raises(AttackSetupError, match=re.escape(message)):
                            context.perturbed_close(ep)
                        continue
                    fresh = np.array([b.close for b in bars[at - omega + 1 : at + 1]])
                    want = bars[at].close
                    if fresh.min() != fresh.max():
                        want += 2.0 * float(np.std(fresh, ddof=1))
                    seen["checked"] += 1
                    seen["flat"] += want == bars[at].close
                    assert context.perturbed_close(ep).hex() == want.hex()
        assert seen["flat"] > 0 and seen["infeasible"] > 0

    @settings(max_examples=80, deadline=None)
    @given(
        ticker=st.sampled_from(("AAA", "BBB", "CCC")),
        test_start=st.integers(12, 159),
        mode=st.one_of(
            st.builds(StdDevMode, omega=st.integers(2, 170)),
            st.just(ConcealMode()),
            st.builds(OverestimateMode, drop_fraction=st.floats(0.01, 0.99)),
        ),
    )
    def test_reported_table_is_the_full_tables_test_rows(self, ticker, test_start, mode):
        # the context builds a table over the test window and the history its
        # mode reads, not over every day: row for row, and bit for bit, it
        # must be the full series' table from test_start on, None rows too
        dataset, predictors = TABLE_WORLD
        context = AttackContext(dataset, test_start, predictors, StrategyConfig(), CostModel())
        full = mode.reported_closes(dataset.series[ticker].closes())[test_start:]
        got = context.reported(ticker, mode)

        def hexes(rows):
            return [None if v is None else v.hex() for v in rows]

        assert hexes(got) == hexes(full)
        assert context.reported(ticker, mode) is got
        for day in (-1, len(got)):
            with pytest.raises(AttackSetupError, match="outside the .*-day test window"):
                context.perturbed_close(EpSpec(ticker, day, mode))


def _table_world():
    """A 160-day world with a flat stretch (constant windows) in AAA, and
    predictors fitted on its first 12 days."""
    rng = np.random.default_rng(11)
    closes = {tk: random_walk_closes(rng, 160, start=60.0 + 30 * i, vol=2.0)
              for i, tk in enumerate(("AAA", "BBB", "CCC"))}
    closes["AAA"][100:115] = 100.1
    dataset = dataset_from_closes(closes)
    return dataset, fit_baseline(dataset, PredictorConfig(window=5), 12)


TABLE_WORLD = _table_world()


class TestMemo:
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_memo_on_equals_memo_off_cell_by_cell(self, rng, kind, monkeypatch):
        # a sweep shares one memo across its cells; each cell alone runs
        # without one. Every outcome must match and the sweep must resume
        # fewer runs than its cells alone do. With MA and ROC, some day has
        # omegas whose runs differ, so a memo keyed on (ticker, day) would
        # hand one omega's run to another. (A Bollinger cell changes one
        # day's signal, and a larger close only moves it one way, so two
        # omegas of a day rarely differ.)
        world = make_world(rng, tickers=("AAA", "BBB", "CCC"), n=160, window=5, vol=3.0)
        config = StrategyConfig(
            kind=kind,
            ma_short=2,
            ma_long=6,
            roc_lookback=2,
            roc_buy_threshold=0.3,
            roc_sell_threshold=-0.3,
            bb_period=5,
            bb_width=0.5,
        )
        context = AttackContext(*world, config, CostModel(position_fraction=0.5))
        resumes = {"memo": 0, "alone": 0}
        phase = "memo"
        resume = attack.resume_signals

        def counting(*args, **kwargs):
            resumes[phase] += 1
            return resume(*args, **kwargs)

        monkeypatch.setattr(attack, "resume_signals", counting)
        sweep = sweep_indiscriminate(context, "AAA", [2, 4, 8, 16, 32, 64])
        phase = "alone"
        runs_by_day: dict[int, set] = {}
        for outcome in sweep.outcomes:
            assert_same_outcome(outcome, context.outcome(outcome.ep)[1])
            if outcome.first_divergence_day is not None:
                runs_by_day.setdefault(outcome.ep.day, set()).add(
                    (outcome.sharpe_attacked, outcome.cr_attacked, outcome.first_divergence_day)
                )
        assert 0 < resumes["memo"] < resumes["alone"]
        if kind != "bollinger_bands":
            assert any(len(runs) > 1 for runs in runs_by_day.values())
