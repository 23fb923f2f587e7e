import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim.config import STRATEGY_KINDS, StrategyConfig
from epsim.errors import ConfigurationError
from epsim.strategy import (
    Signal,
    bollinger_band,
    bollinger_signals,
    generate_signals,
    ma_crossover_signals,
    reach,
    roc_signals,
    shift_signals,
)

from conftest import forecast_column, random_series, series_from_closes
from oracles import bollinger_band_per_day, bollinger_oracle, ma_crossover_oracle, roc_oracle

DEFAULTS = StrategyConfig()


def preds(values, start=0):
    """The forecast column of ``values`` from day ``start`` on, NaN before."""
    return forecast_column({start + i: float(v) for i, v in enumerate(values)}, start + len(values))


def gapped(values, missing):
    """``values`` without the days in ``missing``: as a forecast column (NaN
    there) and as the oracles' {day: value} dict (absent there)."""
    entries = {t: float(v) for t, v in enumerate(values) if t not in missing}
    return forecast_column(entries, len(values)), entries


def as_strings(signals):
    return [s.value for s in signals]


class TestMaCrossover:
    def test_constant_stream_all_hold(self):
        signals = ma_crossover_signals(preds([10.0] * 40), DEFAULTS)
        assert all(s is Signal.HOLD for s in signals)

    def test_step_fires_exactly_one_buy(self):
        # 20 flat days at 10, then 20 at 20: the 5-day mean first exceeds the
        # 20-day mean on day 20 (oracle-confirmed below).
        stream = [10.0] * 20 + [20.0] * 20
        signals = ma_crossover_signals(preds(stream), DEFAULTS)
        oracle = ma_crossover_oracle(dict(enumerate(stream)), 5, 20, 40)
        assert as_strings(signals) == oracle
        assert signals.count(Signal.BUY) == 1
        assert signals[20] is Signal.BUY
        # Once the long mean fully catches up (day 39) the averages tie, and a
        # tie counts as "not above", so the position is signalled closed there.
        assert signals.count(Signal.SELL) == 1
        assert signals[39] is Signal.SELL

    def test_warmup_days_hold(self):
        signals = ma_crossover_signals(preds(list(range(40))), DEFAULTS)
        assert all(s is Signal.HOLD for s in signals[:20])

    def test_exact_tie_counts_as_not_above(self):
        # Short mean rises to exactly equal the long mean, then falls back:
        # equality must not fire a buy on the way up or a sell on the way back.
        cfg = StrategyConfig(ma_short=1, ma_long=2)
        stream = [10.0, 10.0, 12.0, 10.0, 10.0]
        # short=[10,10,12,10,10], long=[-,10,11,11,10]; above=[F,T,F,F]
        signals = ma_crossover_signals(preds(stream), cfg)
        assert as_strings(signals) == ["hold", "hold", "buy", "sell", "hold"]

    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
            min_size=25,
            max_size=120,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_buys_and_sells_alternate(self, values):
        signals = ma_crossover_signals(preds(values), DEFAULTS)
        fired = [s for s in signals if s is not Signal.HOLD]
        for a, b in zip(fired, fired[1:]):
            assert a != b

    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
            min_size=25,
            max_size=90,
        ),
        st.sets(st.integers(min_value=0, max_value=89), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_random_streams(self, values, missing):
        # days without a forecast: NaN in the column, absent from the oracle's dict
        column, entries = gapped(values, missing)
        signals = ma_crossover_signals(column, DEFAULTS)
        assert as_strings(signals) == ma_crossover_oracle(entries, 5, 20, len(values))


class TestRoc:
    def test_constant_series_holds(self):
        series = series_from_closes("T", [100.0] * 30)
        signals = roc_signals(series, preds([100.0] * 30), DEFAULTS)
        assert all(s is Signal.HOLD for s in signals)

    def test_threshold_crossings(self):
        # Day 14 decision value vs the day-0 close of 100:
        # 101.5 -> ROC +1.5 -> buy; 98.9 -> ROC -1.1 -> sell.
        series = series_from_closes("T", [100.0] * 15)
        up = roc_signals(series, preds([100.0] * 14 + [101.5]), DEFAULTS)
        assert up[14] is Signal.BUY
        down = roc_signals(series, preds([100.0] * 14 + [98.9]), DEFAULTS)
        assert down[14] is Signal.SELL

    def test_boundary_is_hold(self):
        series = series_from_closes("T", [100.0] * 15)
        flat = roc_signals(series, preds([100.0] * 14 + [101.0]), DEFAULTS)
        assert flat[14] is Signal.HOLD

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, scale):
        gen = np.random.default_rng(7)
        closes = [float(c) for c in 100.0 + np.cumsum(gen.normal(0, 2, 40))]
        closes = [max(c, 1.0) for c in closes]
        values = [c * (1 + 0.001 * i) for i, c in enumerate(closes)]
        base = roc_signals(series_from_closes("T", closes), preds(values), DEFAULTS)
        scaled = roc_signals(
            series_from_closes("T", [c * scale for c in closes]),
            preds([v * scale for v in values]),
            DEFAULTS,
        )
        assert base == scaled

    def test_oracle_agreement(self, rng):
        for _ in range(20):
            series = random_series(rng, "T", 60, vol=3.0)
            closes = series.closes()
            values = [float(v) for v in closes * rng.uniform(0.95, 1.05, 60)]
            column, entries = gapped(values, set(rng.integers(0, 60, rng.integers(0, 6))))
            signals = roc_signals(series, column, DEFAULTS)
            oracle = roc_oracle(closes, entries, 14, 1.0, -1.0, 60)
            assert as_strings(signals) == oracle


class TestBollinger:
    def test_degenerate_band_holds(self):
        series = series_from_closes("T", [50.0] * 30)
        signals = bollinger_signals(series, preds([50.0] * 30), DEFAULTS)
        assert all(s is Signal.HOLD for s in signals)

    def test_alternating_band_exits(self):
        # 20 closes alternating 9/11: mean 10, sample std sqrt(20/19).
        closes = [9.0, 11.0] * 10
        series = series_from_closes("T", closes)
        high = bollinger_signals(series, preds([20.0], start=20), DEFAULTS)
        assert high[20] is Signal.BUY
        low = bollinger_signals(series, preds([1.0], start=20), DEFAULTS)
        assert low[20] is Signal.SELL
        inside = bollinger_signals(series, preds([10.5], start=20), DEFAULTS)
        assert inside[20] is Signal.HOLD

    def test_monotone_in_prediction(self, rng):
        series = random_series(rng, "T", 40, vol=2.0)
        order = {Signal.SELL: 0, Signal.HOLD: 1, Signal.BUY: 2}
        prev_rank = 0
        for value in np.linspace(1.0, 400.0, 60):
            signals = bollinger_signals(series, preds([float(value)], start=25), DEFAULTS)
            rank = order[signals[25]]
            assert rank >= prev_rank
            prev_rank = rank

    def test_oracle_agreement(self, rng):
        for _ in range(20):
            series = random_series(rng, "T", 50, vol=2.0)
            closes = series.closes()
            values = [float(v) for v in closes * rng.uniform(0.9, 1.1, 50)]
            column, entries = gapped(values, set(rng.integers(0, 50, rng.integers(0, 6))))
            signals = bollinger_signals(series, column, DEFAULTS)
            oracle = bollinger_oracle(closes, entries, 20, 2.0, 50)
            assert as_strings(signals) == oracle

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_closes=st.integers(2, 400),
        extra_days=st.integers(0, 3),
        period=st.one_of(st.integers(2, 12), st.integers(2, 300)),
        width=st.sampled_from([0.5, 1.0, 2.0, 2.7]),
        step=st.sampled_from([0.01, 1.0, 5.0]),
    )
    def test_band_table_has_the_per_day_bits(
        self, seed, n_closes, extra_days, period, width, step
    ):
        # the one-pass table against each day's own window: every edge
        # equal bit for bit, NaN exactly where a day has no window, and a
        # table over part of the calendar equal to that part of the whole.
        # Periods reach past 128, where numpy's pairwise sum splits.
        rng = np.random.default_rng(seed)
        closes = np.round(np.maximum(100 + np.cumsum(rng.normal(0, step, n_closes)), 1.0), 4)
        closes.flags.writeable = False
        config = StrategyConfig(kind="bollinger_bands", bb_period=period, bb_width=width)
        n_days = n_closes + extra_days
        lower, upper = bollinger_band(closes, config, range(n_days))
        for t in range(n_days):
            want = bollinger_band_per_day(closes, period, width, t)
            if want is None:
                assert np.isnan(lower[t]) and np.isnan(upper[t])
            else:
                assert (lower[t].hex(), upper[t].hex()) == (want[0].hex(), want[1].hex())
        start = int(rng.integers(0, n_days))
        days = range(start, int(rng.integers(start, n_days)) + 1)
        part = bollinger_band(closes, config, days)
        for edge, whole in zip(part, (lower, upper)):
            assert edge.tobytes() == whole[days.start : days.stop].tobytes()


class TestShift:
    def test_basic_shift(self):
        assert shift_signals([Signal.BUY, Signal.SELL, Signal.HOLD]) == [
            Signal.HOLD,
            Signal.BUY,
            Signal.SELL,
        ]

    def test_all_hold_identity(self):
        holds = [Signal.HOLD] * 5
        assert shift_signals(holds) == holds

    def test_single_day(self):
        assert shift_signals([Signal.BUY]) == [Signal.HOLD]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            shift_signals([])


class TestLookahead:
    @pytest.mark.parametrize("kind", ["ma_crossover", "rate_of_change", "bollinger_bands"])
    def test_future_mutation_leaves_past_signals_alone(self, kind, rng):
        cfg = StrategyConfig(kind=kind)
        n, cut = 60, 35
        series = random_series(rng, "T", n, vol=2.0)
        closes = [b.close for b in series.bars]
        values = np.array(closes) * 1.01

        base = generate_signals(series, values, cfg)

        mutated_closes = closes[:cut] + [c * 3.0 for c in closes[cut:]]
        mutated_values = values.copy()
        mutated_values[cut:] *= 5.0
        mutated = generate_signals(
            series_from_closes("T", mutated_closes), mutated_values, cfg
        )
        assert base[:cut] == mutated[:cut]


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            StrategyConfig(kind="momentum")

    def test_ma_order(self):
        with pytest.raises(ConfigurationError):
            StrategyConfig(ma_short=20, ma_long=5)

    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            StrategyConfig(roc_lookback=0)
        with pytest.raises(ConfigurationError):
            StrategyConfig(bb_period=1)
        with pytest.raises(ConfigurationError):
            StrategyConfig(bb_width=0.0)


@st.composite
def signal_worlds(draw):
    """(series, forecasts, config, n): a random close path, a forecast column
    near it with a few days missing (NaN), and a random configuration of any
    strategy."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = random_series(rng, "T", n, vol=draw(st.sampled_from([0.5, 2.0])))
    noise = rng.normal(0.0, 0.02, size=n)
    missing = draw(st.sets(st.integers(0, n - 1), max_size=4))
    entries = {
        t: float(b.close * (1.0 + noise[t]))
        for t, b in enumerate(series.bars)
        if t not in missing
    }
    config = StrategyConfig(
        kind=draw(st.sampled_from(STRATEGY_KINDS)),
        ma_short=draw(st.integers(1, 4)),
        ma_long=draw(st.integers(5, 12)),
        roc_lookback=draw(st.integers(1, 6)),
        roc_buy_threshold=0.5,
        roc_sell_threshold=-0.5,
        bb_period=draw(st.integers(2, 8)),
        bb_width=draw(st.sampled_from([0.5, 1.0, 2.0])),
    )
    return series, forecast_column(entries, n), config, n


class TestReach:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_days_equal_full_generation_on_that_range(self, data):
        series, predictions, config, n = data.draw(signal_worlds())
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        full = generate_signals(series, predictions, config)
        part = generate_signals(series, predictions, config, days=range(start, stop))
        assert part == full[start:stop]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_changed_entry_moves_signals_only_inside_reach(self, data):
        series, predictions, config, n = data.draw(signal_worlds())
        forecast_days = np.flatnonzero(~np.isnan(predictions)).tolist()
        if not forecast_days:
            return
        day = data.draw(st.sampled_from(forecast_days))
        factor = data.draw(st.sampled_from([0.5, 0.97, 0.999, 1.001, 1.03, 2.0]))
        changed = predictions.copy()
        changed[day] *= factor
        before = generate_signals(series, predictions, config)
        after = generate_signals(series, changed, config)
        moved = {t for t in range(n) if before[t] != after[t]}
        assert moved <= set(reach(config, day, n))

    def test_reach_per_strategy(self):
        ma = StrategyConfig(ma_short=2, ma_long=5)
        assert reach(ma, 10, 40) == range(10, 16)
        assert reach(ma, 37, 40) == range(37, 40)
        for kind in ("rate_of_change", "bollinger_bands"):
            assert reach(StrategyConfig(kind=kind), 10, 40) == range(10, 11)
        assert len(reach(ma, 40, 40)) == 0
