import math
import random

import pytest
from hypothesis import given, strategies as st

from harvestsim.forecast import (
    DivisionDegenerate,
    EmptyInput,
    EwmaState,
    FitResult,
    HistoryTooShort,
    HwState,
    PredictorSettings,
    Warmup,
    default_grid,
    ewma_init,
    ewma_step,
    fit_lmse,
    hw_init,
    hw_step,
    lmse,
    predict_horizon,
    step,
)


class TestEwma:
    def test_half_weight_midpoint(self):
        pred, _ = ewma_step(EwmaState(prediction=10.0, epsilon=0.5), 20.0)
        assert pred == pytest.approx(15.0)

    def test_constant_series_fixed_point(self):
        state = ewma_init(7.0, epsilon=0.3)
        for _ in range(50):
            pred, state = ewma_step(state, 7.0)
            assert pred == pytest.approx(7.0)

    def test_default_weight_is_half(self):
        assert EwmaState(prediction=1.0).epsilon == 0.5

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            EwmaState(prediction=1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            EwmaState(prediction=1.0, epsilon=0.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=60),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_prediction_stays_within_series_range(self, series, eps):
        state = ewma_init(series[0], eps)
        lo, hi = min(series), max(series)
        for y in series[1:]:
            pred, state = ewma_step(state, y)
            assert lo - 1e-9 <= pred <= hi + 1e-9


class TestHwStep:
    def test_fixed_point(self):
        state = HwState(level=10.0, trend=0.0, seasonal=(1.0, 1.0),
                        epsilon=0.5, beta=0.1, gamma=0.1)
        pred, new = hw_step(state, 10.0)
        assert pred == pytest.approx(10.0)
        assert new.level == pytest.approx(10.0)
        assert new.trend == pytest.approx(0.0)
        assert new.seasonal == pytest.approx((1.0, 1.0))

    def test_frozen_trend_prediction(self):
        # gamma = beta ~ 0 freeze trend and seasonals; feeding the value that
        # keeps the level at 10 yields the (level + trend) prediction of 11.
        eps = 0.5
        state = HwState(level=10.0, trend=1.0, seasonal=(1.0, 1.0),
                        epsilon=eps, beta=1e-12, gamma=1e-12)
        y = (10.0 - (1.0 - eps) * 11.0) / eps
        pred, new = hw_step(state, y)
        assert new.level == pytest.approx(10.0)
        assert new.trend == pytest.approx(1.0)
        assert pred == pytest.approx(11.0)

    def test_zero_measurement_freezes_state(self):
        state = HwState(level=40.0, trend=2.0, seasonal=(1.5, 0.5, 1.0),
                        epsilon=0.9, beta=0.2, gamma=0.3, position=1)
        pred, new = hw_step(state, 0.0)
        assert new.level == state.level
        assert new.trend == state.trend
        assert new.seasonal == state.seasonal
        assert new.position == 2
        assert pred == pytest.approx((40.0 + 2.0) * 1.0)

    def test_division_degenerate_on_tiny_index(self):
        state = HwState(level=10.0, trend=0.0, seasonal=(1e-10, 1.0),
                        epsilon=0.5, beta=0.1, gamma=0.1)
        with pytest.raises(DivisionDegenerate):
            hw_step(state, 5.0)


class TestHwInit:
    def test_flat_history(self):
        state = hw_init([3.0] * 8, 4)
        assert state.level == pytest.approx(3.0)
        assert state.trend == pytest.approx(0.0)
        assert state.seasonal == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_two_period_alternation(self):
        state = hw_init([2.0, 4.0, 2.0, 4.0], 2)
        assert state.seasonal == pytest.approx((2 / 3, 4 / 3))
        assert state.trend == pytest.approx(0.0)
        assert state.level == pytest.approx(3.0)

    def test_history_too_short(self):
        with pytest.raises(HistoryTooShort):
            hw_init([1.0, 2.0, 3.0], 2)

    def test_position_continues_after_history(self):
        state = hw_init([1.0, 2.0] * 3, 2)
        assert state.position == 0  # whole periods consumed


class TestPredictHorizon:
    def test_single_step_matches_definition(self):
        state = HwState(level=10.0, trend=1.0, seasonal=(1.0, 1.0, 1.0),
                        epsilon=0.5, beta=0.1, gamma=0.1)
        assert predict_horizon(state, 1) == [pytest.approx(11.0)]

    def test_trend_extrapolation(self):
        state = HwState(level=10.0, trend=1.0, seasonal=(1.0, 1.0, 1.0),
                        epsilon=0.5, beta=0.1, gamma=0.1)
        assert predict_horizon(state, 3) == pytest.approx([11.0, 12.0, 13.0])

    def test_ewma_repeats(self):
        assert predict_horizon(EwmaState(prediction=15.0), 2) == [15.0, 15.0]

    def test_seasonal_wraps(self):
        state = HwState(level=10.0, trend=0.0, seasonal=(2.0, 0.5),
                        epsilon=0.5, beta=0.1, gamma=0.1, position=0)
        assert predict_horizon(state, 4) == pytest.approx([20.0, 5.0, 20.0, 5.0])

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            predict_horizon(EwmaState(prediction=1.0), 0)


class TestStep:
    SEASONAL = PredictorSettings(kind="hw", epsilon=0.5, beta=0.2, gamma=0.3, period=3)

    def test_ewma_seeds_on_first_sample_then_smooths(self):
        settings = PredictorSettings(kind="ewma", epsilon=0.3)
        pred, state = step(settings, None, 7.0)
        assert pred == 7.0 and state == ewma_init(7.0, 0.3)
        assert step(settings, state, 17.0) == ewma_step(state, 17.0)

    def test_seasonal_warmup_predicts_mean_then_bootstraps(self):
        series = [4.0, 8.0, 6.0, 5.0, 9.0, 7.0, 6.0]
        state = None
        for t, y in enumerate(series[:5]):
            pred, state = step(self.SEASONAL, state, y)
            assert state == Warmup(tuple(series[: t + 1]))
            assert pred == sum(series[: t + 1]) / (t + 1)
            assert predict_horizon(state, 2) == [pred, pred]
        pred, state = step(self.SEASONAL, state, series[5])
        expected = hw_init(series[:6], 3, epsilon=0.5, beta=0.2, gamma=0.3)
        assert state == expected
        assert pred == predict_horizon(expected, 1)[0]
        assert step(self.SEASONAL, state, series[6]) == hw_step(expected, series[6])

    def test_dark_warmup_raises(self):
        state = None
        for _ in range(5):
            _, state = step(self.SEASONAL, state, 0.0)
        with pytest.raises(DivisionDegenerate):
            step(self.SEASONAL, state, 0.0)


class TestLmse:
    def test_seasonal_matches_two_period_warm_start(self):
        # Independent form: bootstrap from the first two periods, then score
        # hw_step's one-step predictions over the rest.
        rng = random.Random(5)
        l = 4
        series = [rng.uniform(0.0, 10.0) for _ in range(7 * l)]
        state = hw_init(series[: 2 * l], l, 0.6, 0.2, 0.4)
        pred = predict_horizon(state, 1)[0]
        total = 0.0
        for y in series[2 * l :]:
            total += (pred - y) * (pred - y)
            pred, state = hw_step(state, y)
        got = lmse(PredictorSettings("hw", 0.6, 0.2, 0.4, l), series)
        assert got == total / (len(series) - 2 * l)

    def test_too_short_series_rejected(self):
        with pytest.raises(EmptyInput):
            lmse(PredictorSettings(kind="ewma"), [1.0])
        with pytest.raises(EmptyInput):
            lmse(PredictorSettings(kind="hw", period=3), [1.0] * 6)

    def test_degenerate_parameters_score_infinite(self):
        assert lmse(PredictorSettings(kind="hw", period=3), [0.0] * 8) == math.inf


class TestReductionToEwma:
    def test_hw_equals_ewma_when_trend_and_season_off(self):
        # gamma = beta = 0 with unit seasonals and zero trend reduces the
        # triple smoother to plain exponential smoothing.
        rng = random.Random(42)
        eps = 0.37
        series = [rng.uniform(1.0, 100.0) for _ in range(10_000)]
        hw = HwState(level=series[0], trend=0.0, seasonal=(1.0, 1.0),
                     epsilon=eps, beta=0.0, gamma=0.0)
        ew = ewma_init(series[0], eps)
        for y in series[1:]:
            p_hw, hw = hw_step(hw, y)
            p_ew, ew = ewma_step(ew, y)
            assert abs(p_hw - p_ew) <= 1e-12 * max(1.0, abs(p_ew))

    def test_hw_converges_on_trend_seasonal_series_where_ewma_does_not(self):
        # Noiseless (a + b*t) * s(t mod l): the seasonal model's one-step
        # relative error drops below 1% within three periods, plain
        # smoothing never gets there.
        l = 8
        a, b = 50.0, 0.7
        s = [1.0 + 0.5 * math.sin(2 * math.pi * k / l) for k in range(l)]
        series = [(a + b * t) * s[t % l] for t in range(8 * l)]
        # Each seasonal slot refreshes once per period, so convergence needs
        # a strong index weight; these settings reach <1% in three periods.
        hw = hw_init(series[: 2 * l], l, epsilon=0.3, beta=0.5, gamma=0.3)
        ew = ewma_init(series[2 * l - 1], 0.5)
        hw_errs, ew_errs = [], []
        p_hw = predict_horizon(hw, 1)[0]
        p_ew = predict_horizon(ew, 1)[0]
        for t in range(2 * l, len(series)):
            y = series[t]
            hw_errs.append(abs(p_hw - y) / y)
            ew_errs.append(abs(p_ew - y) / y)
            p_hw, hw = hw_step(hw, y)
            p_ew, ew = ewma_step(ew, y)
        settled = 3 * l
        assert max(hw_errs[settled:]) < 0.01
        assert max(ew_errs[settled:]) > 0.01


class TestFit:
    def test_constant_series_ties_break_low(self):
        res = fit_lmse("ewma", [5.0] * 12, [(0.9,), (0.5,), (0.1,)])
        assert res.parameters == (0.1,)
        assert res.lmse == 0.0

    def test_alternating_series_brute_force(self):
        series = [10.0, 20.0] * 8
        grid = [(0.1,), (0.5,), (0.9,)]
        res = fit_lmse("ewma", series, grid)
        # independent re-evaluation of each candidate
        scores = {}
        for (eps,) in grid:
            pred = series[0]
            total = 0.0
            for y in series[1:]:
                total += (pred - y) ** 2
                pred = eps * y + (1 - eps) * pred
            scores[eps] = total / (len(series) - 1)
        best = min(scores, key=lambda e: (scores[e], e))
        assert res.parameters == (best,)
        assert res.lmse == pytest.approx(scores[best])

    def test_fit_matches_oracle_on_every_grid_point(self):
        rng = random.Random(3)
        series = [rng.uniform(5, 50) for _ in range(40)]
        grid = default_grid("ewma", step=0.1)
        res = fit_lmse("ewma", series, grid)
        oracle = min(
            ((lmse(PredictorSettings(kind="ewma", epsilon=g[0]), series), g) for g in grid),
            key=lambda t: (t[0], t[1]),
        )
        assert res.parameters == oracle[1]
        assert res.lmse == pytest.approx(oracle[0])

    def test_hw_fit_runs_and_beats_worst_candidate(self):
        l = 6
        s = [1.0 + 0.8 * math.sin(2 * math.pi * k / l) for k in range(l)]
        series = [(30 + 0.5 * t) * s[t % l] for t in range(6 * l)]
        grid = [(e, b, g) for e in (0.2, 0.8) for b in (0.2, 0.8) for g in (0.2, 0.8)]
        res = fit_lmse("hw", series, grid, period=l)
        worst = max(lmse(PredictorSettings("hw", *g, l), series) for g in grid)
        assert res.lmse <= worst

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            fit_lmse("ewma", [], [(0.5,)])
        with pytest.raises(EmptyInput):
            fit_lmse("ewma", [1.0, 2.0], [])

    def test_result_type(self):
        res = fit_lmse("ewma", [1.0, 2.0, 3.0], [(0.5,)])
        assert isinstance(res, FitResult)
        assert res.lmse >= 0.0
