import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim.config import CostModel, StrategyConfig
from epsim.errors import ConfigurationError, TradeEngineError, ZeroVolatilityWarning
from epsim.strategy import Signal
from epsim.trade_engine import (
    PortfolioState,
    cumulative_returns,
    execute_signal,
    run_signals,
    run_simulation,
    sharpe_ratio,
)

from conftest import dataset_from_closes
from oracles import accounting_oracle, cumulative_returns_oracle, sharpe_oracle

COSTS = CostModel()


def sig(letters):
    table = {"b": Signal.BUY, "s": Signal.SELL, "h": Signal.HOLD}
    return [table[c] for c in letters]


class TestExecuteSignal:
    def state(self, cash=100_000.0, marks=None, holdings=None):
        st_ = PortfolioState(cash=cash)
        st_.marks = marks or {"A": 100.0}
        if holdings:
            st_.holdings.update(holdings)
        return st_

    def test_hold_is_identity(self):
        state = self.state()
        record = execute_signal(state, "A", Signal.HOLD, 100.0, COSTS)
        assert record is None
        assert state.cash == 100_000.0
        assert state.holdings == {}

    def test_buy_arithmetic(self):
        # close 99.98 + slippage 0.02 = 100.00; 10% of 100k buys 100 shares;
        # cash = 100000 - 100*100 - 100*0.005 = 89999.50.
        state = self.state(marks={"A": 99.98})
        record = execute_signal(state, "A", Signal.BUY, 99.98, COSTS)
        assert record is not None
        assert record.shares == 100
        assert record.execution_price == 100.0
        assert record.commission_paid == 0.5
        assert state.cash == 89_999.5
        assert state.holdings == {"A": 100}

    def test_sell_with_no_holdings_is_noop(self):
        state = self.state()
        assert execute_signal(state, "A", Signal.SELL, 100.0, COSTS) is None
        assert state.cash == 100_000.0

    def test_sell_is_capped_by_budget_then_holdings(self):
        # 10% of value sells at most floor(budget/close) shares.
        state = self.state(cash=0.0, marks={"A": 100.0}, holdings={"A": 500})
        record = execute_signal(state, "A", Signal.SELL, 100.0, COSTS)
        assert record.shares == 50  # 10% of 50_000 -> 5_000 / 100
        # Fewer holdings than the target: sell everything that is left.
        state2 = self.state(cash=100_000.0, marks={"A": 100.0}, holdings={"A": 3})
        record2 = execute_signal(state2, "A", Signal.SELL, 100.0, COSTS)
        assert record2.shares == 3
        assert state2.holdings["A"] == 0

    def test_buy_without_cash_is_noop(self):
        # Portfolio value is dominated by stock; 10% of it exceeds cash.
        state = self.state(cash=10.0, marks={"A": 100.0}, holdings={"A": 1000})
        assert execute_signal(state, "A", Signal.BUY, 100.0, COSTS) is None
        assert state.cash == 10.0

    def test_buy_rounding_to_zero_shares_is_noop(self):
        state = self.state(cash=50.0, marks={"A": 100.0})
        assert execute_signal(state, "A", Signal.BUY, 100.0, COSTS) is None

    def test_proportional_slippage_mode(self):
        costs = CostModel(slippage_mode="proportional", slippage_per_share=0.01)
        state = self.state(marks={"A": 100.0})
        record = execute_signal(state, "A", Signal.BUY, 100.0, costs)
        assert record.execution_price == pytest.approx(101.0)

    def test_cost_model_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel(position_fraction=0.0)
        with pytest.raises(ConfigurationError):
            CostModel(position_fraction=1.5)
        with pytest.raises(ConfigurationError):
            CostModel(commission_per_share=-0.1)
        with pytest.raises(ConfigurationError):
            CostModel(slippage_mode="percent")


class TestRunSignals:
    def test_matches_hand_stepped_oracle_two_stocks(self):
        closes = {
            "A": [100.0, 102.0, 101.0, 103.0, 104.0],
            "B": [50.0, 49.0, 51.0, 52.0, 50.0],
        }
        signals = {"A": sig("bhhsh"), "B": sig("hbhhs")}
        test = dataset_from_closes(closes)
        result = run_signals(
            test, signals, COSTS
        )
        oracle = accounting_oracle(
            closes, {tk: [s.value for s in signals[tk]] for tk in signals}, COSTS
        )
        got_values = [
            COSTS.initial_capital * (1.0 + c) for c in result.cumulative_returns
        ]
        assert got_values == pytest.approx(oracle["values"], rel=1e-12)
        assert [
            (t.day, t.ticker, t.side.value, t.shares) for t in result.trade_ledger
        ] == oracle["trades"]
        assert result.final_value == pytest.approx(oracle["values"][-1], rel=1e-12)

    def test_all_hold_is_inert(self):
        closes = {"A": [100.0, 90.0, 120.0, 80.0], "B": [10.0, 20.0, 5.0, 15.0]}
        test = dataset_from_closes(closes)
        signals = {"A": sig("hhhh"), "B": sig("hhhh")}
        with pytest.warns(ZeroVolatilityWarning):
            result = run_signals(test, signals, COSTS)
        assert result.final_value == COSTS.initial_capital
        assert all(r == 0.0 for r in result.daily_returns)
        assert result.sharpe_ratio == 0.0
        assert result.trade_ledger == ()

    def test_signal_length_mismatch_rejected(self):
        test = dataset_from_closes({"A": [100.0, 101.0]})
        with pytest.raises(TradeEngineError, match="A: 1 signals for a 2-day calendar"):
            run_signals(test, {"A": sig("b")}, COSTS)

    def test_missing_ticker_rejected(self):
        test = dataset_from_closes({"A": [100.0, 101.0]})
        with pytest.raises(TradeEngineError, match="no signal sequence for A"):
            run_signals(test, {}, COSTS)

    @given(
        data=st.data(),
        n=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_no_shorting(self, data, n):
        letters = st.sampled_from("bsh")
        closes = {
            tk: data.draw(
                st.lists(
                    st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
            for tk in ("A", "B")
        }
        signals = {
            tk: sig(data.draw(st.lists(letters, min_size=n, max_size=n)))
            for tk in ("A", "B")
        }
        test = dataset_from_closes(closes)
        closes_aligned = {tk: [b.close for b in test.series[tk].bars] for tk in test.tickers()}

        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", ZeroVolatilityWarning)
            result = run_signals(test, signals, COSTS)

        cash = COSTS.initial_capital
        holdings = {tk: 0 for tk in test.tickers()}
        prev_value = COSTS.initial_capital
        ledger = list(result.trade_ledger)
        for t in range(n):
            day_trades = [tr for tr in ledger if tr.day == t]
            costs_paid = sum(tr.commission_paid + tr.slippage_paid for tr in day_trades)
            pre_trade = cash + sum(
                holdings[tk] * closes_aligned[tk][t] for tk in holdings
            )
            for tr in day_trades:
                if tr.side is Signal.BUY:
                    cash -= tr.shares * tr.execution_price + tr.commission_paid
                    holdings[tr.ticker] += tr.shares
                else:
                    cash += tr.shares * tr.execution_price - tr.commission_paid
                    holdings[tr.ticker] -= tr.shares
                assert cash >= -1e-9
                assert holdings[tr.ticker] >= 0
            value = cash + sum(holdings[tk] * closes_aligned[tk][t] for tk in holdings)
            # Day-over-day conservation: nothing appears or disappears except
            # through prices and explicit costs. The relative term covers the
            # extreme portfolios hypothesis builds (overnight 1 -> 500
            # repricings compound past 1e10, where 1e-6 is below ulp noise).
            assert value == pytest.approx(pre_trade - costs_paid, rel=1e-12, abs=1e-6)
            assert value == pytest.approx(
                prev_value * (1.0 + result.daily_returns[t]), rel=1e-12
            )
            prev_value = value

    def test_determinism_bit_identical(self, rng):
        closes = {
            "A": [float(v) for v in 100 + np.cumsum(rng.normal(0, 2, 30))],
            "B": [float(v) for v in 50 + np.cumsum(rng.normal(0, 1, 30))],
        }
        closes = {tk: [max(c, 1.0) for c in cs] for tk, cs in closes.items()}
        letters = rng.choice(list("bsh"), size=(2, 30))
        signals = {
            "A": sig("".join(letters[0])),
            "B": sig("".join(letters[1])),
        }
        test = dataset_from_closes(closes)
        r1 = run_signals(test, signals, COSTS)
        r2 = run_signals(test, signals, COSTS)
        assert repr(r1) == repr(r2)


class TestRunSimulation:
    def test_all_hold_portfolio(self):
        closes = {"A": [100.0] * 30}
        test = dataset_from_closes(closes)
        preds = {"A": np.full(30, 100.0)}
        with pytest.warns(ZeroVolatilityWarning):
            result = run_simulation(test, preds, StrategyConfig(), COSTS)
        assert result.final_value == COSTS.initial_capital
        assert set(result.daily_returns) == {0.0}
        assert result.sharpe_ratio == 0.0

    def test_missing_predictions_rejected(self):
        test = dataset_from_closes({"A": [100.0] * 5})
        with pytest.raises(TradeEngineError, match="no predictions for A"):
            run_simulation(test, {}, StrategyConfig(), COSTS)

    def test_out_of_range_prediction_day_rejected(self):
        # a forecast column is as long as the calendar: a longer one forecasts
        # a day outside it, a shorter one leaves calendar days out
        test = dataset_from_closes({"A": [100.0] * 5})
        for length in (0, 4, 8):
            preds = {"A": np.full(length, 100.0)}
            with pytest.raises(
                TradeEngineError, match=rf"^A: {length} forecasts for a 5-day test calendar$"
            ):
                run_simulation(test, preds, StrategyConfig(), COSTS)

    def test_shift_means_day_zero_never_trades(self, rng):
        n = 40
        closes = [float(c) for c in 100 + np.cumsum(rng.normal(0, 3, n))]
        closes = [max(c, 1.0) for c in closes]
        test = dataset_from_closes({"A": closes})
        entries = np.array(closes) * rng.uniform(0.9, 1.1, n)
        cfg = StrategyConfig(kind="rate_of_change")
        result = run_simulation(test, {"A": entries}, cfg, COSTS)
        assert all(t.day > 0 for t in result.trade_ledger)


class TestMetrics:
    def test_cumulative_trivial_cases(self):
        assert cumulative_returns([0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]
        got = cumulative_returns([0.10, 0.10])
        assert got[0] == pytest.approx(0.10, abs=1e-12)
        assert got[1] == pytest.approx(0.21, abs=1e-12)
        with pytest.raises(TradeEngineError, match="needs at least one return"):
            cumulative_returns([])

    def test_cumulative_matches_oracle(self, rng):
        for _ in range(50):
            returns = rng.normal(0, 0.02, size=rng.integers(1, 200)).tolist()
            assert cumulative_returns(returns) == pytest.approx(
                cumulative_returns_oracle(returns), abs=1e-12
            )

    def test_sharpe_zero_excess_return(self):
        rf_daily = COSTS.risk_free_daily()
        with pytest.warns(ZeroVolatilityWarning):
            assert sharpe_ratio([rf_daily] * 10, COSTS) == 0.0

    def test_sharpe_symmetric_returns_zero_mean(self):
        costs = CostModel(risk_free_annual=0.0)
        got = sharpe_ratio([0.01, -0.01, 0.01, -0.01], costs)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_sharpe_matches_oracle(self, rng):
        for _ in range(50):
            returns = rng.normal(0.001, 0.02, size=rng.integers(2, 150)).tolist()
            got = sharpe_ratio(returns, COSTS)
            want = sharpe_oracle(returns, COSTS.risk_free_annual, 252)
            assert got == pytest.approx(want, abs=1e-9)

    def test_sharpe_needs_two_returns(self):
        with pytest.raises(TradeEngineError, match="needs at least 2 returns"):
            sharpe_ratio([0.01], COSTS)

    def test_risk_free_conversion_is_geometric(self):
        daily = COSTS.risk_free_daily()
        assert (1 + daily) ** 252 == pytest.approx(1.0505, rel=1e-12)
