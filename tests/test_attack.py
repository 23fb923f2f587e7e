import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim.attack import (
    AttackContext,
    EpSpec,
    apply_ep,
    clean_run,
    perturbed_prediction_entry,
    run_targeted,
    sweep_indiscriminate,
)
from epsim.errors import AttackSetupError, ConfigurationError
from epsim.config import (
    ConcealMode,
    CostModel,
    OverestimateMode,
    PredictorConfig,
    StdDevMode,
    StrategyConfig,
)
from epsim.predictor import fit_baseline, predict_test_series

from conftest import make_world, series_from_closes
from oracles import FixedClose, sample_std

pytestmark = pytest.mark.filterwarnings(
    "ignore::epsim.errors.ZeroVolatilityWarning"
)

STRAT = StrategyConfig()


COSTS = CostModel()


class TestApplyEp:
    def test_constant_window_is_noop(self):
        series = series_from_closes("T", [50.0] * 10)
        got = apply_ep(series, StdDevMode(omega=5), 7)
        assert got == 50.0

    def test_sample_std_magnitude(self):
        # closes [10, 12, 14]: sample std = 2, so the reported close is 14+4.
        series = series_from_closes("T", [10.0, 12.0, 14.0])
        got = apply_ep(series, StdDevMode(omega=3), 2)
        assert got == pytest.approx(18.0, abs=1e-12)
        assert sample_std([10.0, 12.0, 14.0]) == 2.0

    def test_stddev_matches_oracle_on_random_windows(self, rng):
        closes = [float(c) for c in np.maximum(rng.normal(100, 10, 200), 1.0)]
        series = series_from_closes("T", closes)
        for _ in range(50):
            omega = int(rng.integers(2, 30))
            t = int(rng.integers(omega - 1, 200))
            got = apply_ep(series, StdDevMode(omega=omega), t)
            want = closes[t] + 2.0 * sample_std(closes[t - omega + 1 : t + 1])
            assert got == pytest.approx(want, abs=1e-9)

    def test_conceal_reports_previous_close(self):
        series = series_from_closes("T", [100.0, 95.0, 90.0])
        assert apply_ep(series, ConcealMode(), 2) == 95.0

    def test_overestimate_fixed_drop(self):
        series = series_from_closes("T", [100.0, 100.0])
        got = apply_ep(series, OverestimateMode(drop_fraction=0.10), 1)
        assert got == pytest.approx(90.0, abs=1e-12)

    def test_any_mode_reads_its_own_column(self):
        series = series_from_closes("T", [100.0])
        assert apply_ep(series, FixedClose(value=123.5), 0) == 123.5

    def test_insufficient_history_errors(self):
        series = series_from_closes("T", [100.0, 101.0, 102.0])
        with pytest.raises(AttackSetupError):
            apply_ep(series, StdDevMode(omega=3), 1)
        with pytest.raises(AttackSetupError):
            apply_ep(series, ConcealMode(), 0)
        with pytest.raises(AttackSetupError):
            apply_ep(series, ConcealMode(), 9)

    @given(
        closes=st.lists(
            st.one_of(st.floats(min_value=1.0, max_value=1e6), st.sampled_from([50.0, 77.7])),
            min_size=2,
            max_size=300,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_stddev_over_a_closes_slice_is_bit_identical(self, closes, data):
        # sigma over a slice of the whole series' closes (built once per
        # series) has the bits of sigma over a fresh array of the window's
        # closes, at any offset and omega
        omega = data.draw(st.integers(min_value=2, max_value=len(closes)))
        t = data.draw(st.integers(min_value=omega - 1, max_value=len(closes) - 1))
        fresh = np.array(closes[t - omega + 1 : t + 1], dtype=np.float64)
        want = closes[t]
        if fresh.min() != fresh.max():
            want += 2.0 * float(np.std(fresh, ddof=1))
        series = series_from_closes("T", closes)
        assert apply_ep(series, StdDevMode(omega=omega), t) == want

    def test_mode_validation(self):
        with pytest.raises(ConfigurationError, match="attack: omega must be >= 2, got 1"):
            StdDevMode(omega=1)
        with pytest.raises(ConfigurationError, match=r"attack: drop_fraction must be in \(0,1\)"):
            OverestimateMode(drop_fraction=0.0)
        with pytest.raises(ConfigurationError, match=r"attack: drop_fraction must be in \(0,1\)"):
            OverestimateMode(drop_fraction=1.0)


class TestSinglePredictionLocality:
    def test_exactly_one_entry_differs(self, rng):
        dataset, test_start, predictors = make_world(rng)
        ticker = "AAA"
        full = dataset.series[ticker]
        clean = predict_test_series(predictors[ticker], full, test_start)
        n_test = dataset.n_days() - test_start

        for _ in range(25):
            day = int(rng.integers(0, n_test - 1))
            omega = int(rng.choice([5, 8, 10]))
            ep = EpSpec(ticker, day, StdDevMode(omega=omega))
            entry_day, entry, perturbed, clean_close = perturbed_prediction_entry(
                predictors[ticker], full, test_start, ep
            )
            assert entry_day == day + 1
            assert perturbed != clean_close  # random walk: sigma > 0
            attacked = clean.copy()
            attacked[entry_day] = entry
            assert np.flatnonzero(attacked != clean).tolist() == [day + 1]

    def test_last_day_has_no_downstream_prediction(self, rng):
        dataset, test_start, predictors = make_world(rng)
        n_test = dataset.n_days() - test_start
        ep = EpSpec("AAA", n_test - 1, StdDevMode(omega=5))
        full = dataset.series["AAA"]
        entry_day, entry, perturbed, clean_close = perturbed_prediction_entry(
            predictors["AAA"], full, test_start, ep
        )
        assert entry_day is None and entry is None
        assert perturbed == apply_ep(full, ep.mode, test_start + n_test - 1)
        assert clean_close == full.bars[-1].close

    def test_other_tickers_untouched(self, rng):
        dataset, test_start, predictors = make_world(rng)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        context.outcome(EpSpec("AAA", 20, StdDevMode(omega=10)))
        # Re-derive the untouched ticker's stream and confirm the attack left
        # the clean pipeline's values for it bit-identical.
        again = predict_test_series(predictors["BBB"], dataset.series["BBB"], test_start)
        assert context.predictions["BBB"].tobytes() == again.tobytes()


class TestAttackedSimulation:
    def test_null_perturbation_is_byte_identical(self, rng):
        dataset, test_start, predictors = make_world(rng)
        day = 15
        clean_close = dataset.series["AAA"].bars[test_start + day].close
        attacked, outcome = AttackContext(
            dataset, test_start, predictors, STRAT, COSTS
        ).outcome(EpSpec("AAA", day, FixedClose(value=clean_close)))
        _, baseline = clean_run(dataset, test_start, predictors, STRAT, COSTS)
        assert repr(attacked) == repr(baseline)
        assert outcome.first_divergence_day is None
        assert outcome.delta_sharpe == 0.0
        assert outcome.cr_ratio == 1.0
        assert outcome.rmse_attacked == outcome.rmse_clean

    def test_divergence_causality(self, rng):
        dataset, test_start, predictors = make_world(rng, vol=3.0)
        n_test = dataset.n_days() - test_start
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        seen_divergence = False
        for day in range(5, n_test - 1, 7):
            attacked, outcome = context.outcome(EpSpec("AAA", day, StdDevMode(omega=10)))
            if outcome.first_divergence_day is not None:
                seen_divergence = True
                assert outcome.first_divergence_day >= day + 1
        assert seen_divergence  # at least one perturbation must bite

    def test_outcome_carries_model_and_system_metrics(self, rng):
        dataset, test_start, predictors = make_world(rng, vol=3.0)
        _, outcome = AttackContext(
            dataset, test_start, predictors, STRAT, COSTS
        ).outcome(EpSpec("AAA", 30, StdDevMode(omega=10)))
        assert outcome.perturbed_value > outcome.clean_value
        assert outcome.rmse_clean > 0 and outcome.rmse_attacked > 0
        assert outcome.rmse_attacked != outcome.rmse_clean
        assert math.isfinite(outcome.delta_sharpe)
        assert math.isfinite(outcome.cr_ratio)

    def test_day_outside_test_window_rejected(self, rng):
        dataset, test_start, predictors = make_world(rng)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        with pytest.raises(AttackSetupError):
            context.outcome(EpSpec("AAA", 10_000, StdDevMode(omega=5)))

    def test_unknown_ticker_rejected(self, rng):
        dataset, test_start, predictors = make_world(rng)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        with pytest.raises(AttackSetupError):
            context.outcome(EpSpec("ZZZ", 5, ConcealMode()))


class TestSweep:
    def test_cell_count_and_order(self, rng):
        dataset, test_start, predictors = make_world(rng, n=120)
        n_test = dataset.n_days() - test_start
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        result = sweep_indiscriminate(context, ticker="AAA", omegas=[5, 8, 10])
        assert len(result.outcomes) + len(result.errors) == 3 * n_test
        assert not result.errors  # plenty of pre-test history for every cell
        # day-major, omega-minor ordering
        labels = [(o.ep.day, o.ep.mode.omega) for o in result.outcomes]
        assert labels == [(d, w) for d in range(n_test) for w in (5, 8, 10)]

    def test_constant_prices_give_null_sweep(self):
        # sigma = 0 on a constant series, so every cell is a no-op twin of
        # the baseline.
        from epsim.market_data import SplitSpec, align_calendar, split

        dataset = align_calendar(
            [series_from_closes("AAA", [100.0] * 60)]
        )
        train, _ = split(dataset, SplitSpec(train_fraction=0.5, window=5))
        predictors = fit_baseline(train, PredictorConfig(window=5, features=("close",)))
        context = AttackContext(dataset, train.n_days(), predictors, STRAT, COSTS)
        result = sweep_indiscriminate(context, ticker="AAA", omegas=[3, 5])
        assert result.outcomes
        assert all(o.delta_sharpe == 0.0 for o in result.outcomes)
        assert all(o.cr_ratio == 1.0 for o in result.outcomes)
        assert all(o.first_divergence_day is None for o in result.outcomes)

    def test_infeasible_cells_recorded_and_skipped(self, rng):
        # test_start of 6 leaves days 0..., with omega=10 needing absolute
        # index >= 9: days 0..2 are infeasible and must be recorded.
        dataset, test_start, predictors = make_world(
            rng, n=60, window=5, train_fraction=0.1
        )
        assert test_start == 6
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        result = sweep_indiscriminate(context, ticker="AAA", omegas=[10])
        infeasible_days = [e.day for e in result.errors]
        assert infeasible_days == [0, 1, 2]
        assert all(o.ep.day >= 3 for o in result.outcomes)

    @pytest.mark.parametrize("omega", [math.nan, 2.5, 30.0, "30"], ids=repr)
    def test_non_integer_omega_fails_when_its_mode_is_built(self, rng, omega):
        message = f"attack: omega must be an integer, got {omega!r}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            StdDevMode(omega=omega)
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            sweep_indiscriminate(context, ticker="AAA", omegas=[5, omega])

    def test_numpy_integer_omega_is_an_omega(self):
        assert StdDevMode(omega=np.int64(30)) == StdDevMode(omega=30)
        assert StdDevMode(omega=np.int32(7)).label == "omega=7"

    def test_empty_omegas_rejected(self, rng):
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        with pytest.raises(AttackSetupError):
            sweep_indiscriminate(context, ticker="AAA", omegas=[])
        with pytest.raises(ConfigurationError, match="omega must be >= 2"):
            sweep_indiscriminate(context, ticker="AAA", omegas=[5, 1])

    def test_unknown_ticker_fails_before_any_cell(self, rng):
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        with pytest.raises(AttackSetupError, match="no predictor for attacked ticker 'ZZZ'"):
            sweep_indiscriminate(context, ticker="ZZZ", omegas=[5])

    @pytest.mark.parametrize(
        "omegas, days, message",
        [
            ([5, 8, 5], None, r"modes: each mode once, \['omega=5'\] repeated"),
            ([5], [3, 4, 3, 4, 6], r"days: each day once, \[3, 4\] repeated"),
        ],
        ids=["omega", "day"],
    )
    def test_repeated_omega_or_day_fails_before_any_cell(
        self, rng, monkeypatch, omegas, days, message
    ):
        # a repeated cell would weigh twice in any fraction taken over the cells
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)

        def no_cell(ep):
            raise AssertionError("ran a cell despite a repeated omega or day")

        monkeypatch.setattr(context, "outcome", no_cell)
        with pytest.raises(AttackSetupError, match=message):
            sweep_indiscriminate(context, ticker="AAA", omegas=omegas, days=days)


class TestTargeted:
    def test_conceal_of_flat_day_matches_baseline(self):
        from epsim.market_data import SplitSpec, align_calendar, split

        closes = [100.0 + (i % 7) for i in range(80)]
        closes[45] = closes[44]  # the attacked day repeats the previous close
        dataset = align_calendar([series_from_closes("AAA", closes)])
        train, _ = split(dataset, SplitSpec(train_fraction=0.5, window=5))
        predictors = fit_baseline(train, PredictorConfig(window=5, features=("close",)))
        context = AttackContext(dataset, train.n_days(), predictors, STRAT, COSTS)
        result = run_targeted(context, ticker="AAA", days=[5], scenario="conceal")
        outcome = result.outcomes[0]
        assert outcome.perturbed_value == outcome.clean_value
        assert outcome.first_divergence_day is None
        assert outcome.cr_ratio == 1.0

    def test_overestimate_and_conceal_run_per_day(self, rng):
        dataset, test_start, predictors = make_world(rng, vol=3.0)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        days = [10, 20, 30]
        for scenario in ("conceal", "overestimate"):
            result = run_targeted(context, ticker="AAA", days=days, scenario=scenario)
            assert [o.ep.day for o in result.outcomes] == days
            for o in result.outcomes:
                assert math.isfinite(o.cr_change_pct)
        # overestimate reports a 10% drop vs the previous day's close
        over = run_targeted(
            context, ticker="AAA", days=[25], scenario="overestimate"
        ).outcomes[0]
        prev_close = dataset.series["AAA"].bars[test_start + 24].close
        assert over.perturbed_value == pytest.approx(prev_close * 0.9, rel=1e-12)

    def test_unknown_scenario_rejected(self, rng):
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        with pytest.raises(AttackSetupError):
            run_targeted(context, ticker="AAA", days=[5], scenario="inflate")

    def test_unknown_ticker_fails_before_any_cell(self, rng):
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        with pytest.raises(AttackSetupError, match="no predictor for attacked ticker 'ZZZ'"):
            run_targeted(context, ticker="ZZZ", days=[5], scenario="conceal")

    def test_repeated_day_fails_before_any_cell(self, rng, monkeypatch):
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)

        def no_cell(ep):
            raise AssertionError("ran a cell despite a repeated day")

        monkeypatch.setattr(context, "outcome", no_cell)
        with pytest.raises(AttackSetupError, match=r"days: each day once, \[7\] repeated"):
            run_targeted(context, ticker="AAA", days=[7, 7, 7], scenario="conceal")

    @pytest.mark.parametrize(
        "days, message",
        [
            ([5, 9999, -1], "attacked day 9999 outside the 30-day test window"),
            ([-5, 10], "attacked day -5 outside the 30-day test window"),
            ([5, 2.5], "attacked day 2.5 is not an integer"),
            ([5, "7"], "attacked day '7' is not an integer"),
            ([5, True], "attacked day True is not an integer"),
        ],
        ids=["past-end", "negative", "fraction", "text", "bool"],
    )
    def test_bad_day_fails_before_any_cell(self, rng, monkeypatch, days, message):
        # a day that is not in the test window fails a sweep or a targeted
        # run as an unknown ticker does, not as a result of error cells
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        assert context.test.n_days() == 30

        def no_cell(ep, memo=None):
            raise AssertionError("ran a cell despite a bad day")

        monkeypatch.setattr(context, "outcome", no_cell)
        with pytest.raises(AttackSetupError, match=re.escape(message)):
            sweep_indiscriminate(context, ticker="AAA", omegas=[30], days=days)
        with pytest.raises(AttackSetupError, match=re.escape(message)):
            run_targeted(context, ticker="AAA", days=days, scenario="conceal")

    def test_numpy_integer_days_are_days(self, rng):
        dataset, test_start, predictors = make_world(rng, n=60)
        context = AttackContext(dataset, test_start, predictors, STRAT, COSTS)
        result = run_targeted(context, ticker="AAA", days=np.array([3, 29]), scenario="conceal")
        assert [o.ep.day for o in result.outcomes] == [3, 29]
        assert result.errors == ()


class TestSharedContext:
    def test_one_context_serves_any_number_of_protocol_calls(self, rng):
        # ``outcome`` must leave the context's caches as it found them, so a
        # protocol call gives the same result on a shared context as on a
        # fresh one, whatever ran on it before
        world = (*make_world(rng, vol=3.0), STRAT, COSTS)
        calls = {
            "sweep": lambda c: sweep_indiscriminate(c, "AAA", [5, 10]),
            "conceal": lambda c: run_targeted(
                c, "AAA", range(1, c.test.n_days()), "conceal"
            ),
            "overestimate": lambda c: run_targeted(
                c, "BBB", range(1, c.test.n_days()), "overestimate"
            ),
        }
        fresh = {name: call(AttackContext(*world)) for name, call in calls.items()}
        assert all(
            any(o.first_divergence_day is not None for o in result.outcomes)
            for result in fresh.values()
        )
        for order in (list(calls), list(reversed(calls))):
            context = AttackContext(*world)
            for name in order:
                assert repr(calls[name](context)) == repr(fresh[name]), (order, name)
