import math

import pytest
from hypothesis import given, settings, strategies as st

from harvestsim.optimizer import (
    DimensionMismatch,
    Infeasible,
    NonPositiveCost,
    OutOfDomain,
    build_opt,
    default_duty_weight,
    evaluate_curve,
    parametric_sweep,
    solve_for_v,
)
from simplex_oracle import simplex_solve


@pytest.fixture
def fixture_lp():
    # Ratios: alpha_1 0.2 > alpha_2 0.1 > delta 0.05.
    return build_opt((6.0, 2.0), (30.0, 20.0), 10.0, 0.5, 40.0)


class TestBuild:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_opt((1.0, 2.0), (10.0,), 5.0, 0.1, 20.0)

    def test_nonpositive_cost(self):
        with pytest.raises(NonPositiveCost):
            build_opt((1.0,), (0.0,), 5.0, 0.1, 20.0)
        with pytest.raises(NonPositiveCost):
            build_opt((1.0,), (10.0,), -1.0, 0.1, 20.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", ["weight", "cost", "duty_energy", "w_delta", "budget"])
    def test_non_finite_inputs_rejected(self, position, bad):
        args = {"weight": 1.0, "cost": 10.0, "duty_energy": 5.0, "w_delta": 0.1, "budget": 20.0}
        args[position] = bad
        with pytest.raises((NonPositiveCost, ValueError)):
            build_opt(
                (args["weight"],), (args["cost"],), args["duty_energy"], args["w_delta"],
                args["budget"],
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget base must be >= 0"):
            build_opt((1.0,), (10.0,), 5.0, 0.1, -1.0)

    def test_single_policy_closed_form(self):
        lp = build_opt((1.0,), (10.0,), 5.0, 0.0, 10.0)
        res = solve_for_v(lp, 0.0)
        assert res.alphas == (1.0,)
        assert res.utility == pytest.approx(1.0)

    def test_empty_policy_set_delta_only(self):
        lp = build_opt((), (), 10.0, None, 8.0)
        res = solve_for_v(lp, 0.0)
        assert res.delta == pytest.approx(0.8)
        res = solve_for_v(lp, 5.0)
        assert res.delta == pytest.approx(0.3)

    def test_default_duty_weight_sorts_last(self):
        w = default_duty_weight((6.0, 2.0), (30.0, 20.0), 10.0)
        # delta's utility rate must stay below every policy's
        assert w / 10.0 < min(6.0 / 30.0, 2.0 / 20.0)


class TestSolveForV:
    def test_zero_budget(self, fixture_lp):
        res = solve_for_v(fixture_lp, 40.0)
        assert res.alphas == (0.0, 0.0)
        assert res.delta == 0.0
        assert res.utility == 0.0

    def test_full_budget(self, fixture_lp):
        res = solve_for_v(fixture_lp, 0.0)
        assert res.alphas == pytest.approx((1.0, 0.5))
        assert res.delta == 0.0
        assert res.utility == pytest.approx(7.0)

    def test_partial_budget(self, fixture_lp):
        res = solve_for_v(fixture_lp, 10.0)
        assert res.alphas == pytest.approx((1.0, 0.0))
        assert res.utility == pytest.approx(6.0)

    def test_energy_balance(self, fixture_lp):
        for v in (0.0, 3.7, 10.0, 22.2, 40.0):
            res = solve_for_v(fixture_lp, v)
            spend = sum(
                a * c for a, c in zip(res.alphas, fixture_lp.costs)
            ) + res.delta * fixture_lp.duty_energy
            assert spend == pytest.approx(40.0 - v, rel=1e-9, abs=1e-9)

    def test_infeasible_reported_not_clamped(self):
        lp = build_opt((1.0,), (10.0,), 5.0, 0.1, 100.0)
        with pytest.raises(Infeasible):
            solve_for_v(lp, 0.0)  # budget 100 > max spend 15

    def test_v_outside_range_rejected(self, fixture_lp):
        with pytest.raises(ValueError):
            solve_for_v(fixture_lp, -1.0)
        with pytest.raises(ValueError):
            solve_for_v(fixture_lp, 41.0)

    def test_bounds_exact(self, fixture_lp):
        for v in [40.0 * k / 40 for k in range(41)]:
            res = solve_for_v(fixture_lp, v)
            for x in res.alphas + (res.delta,):
                assert 0.0 <= x <= 1.0

    def test_alpha_1_basic_past_first_breakpoint(self, fixture_lp):
        # At V=12 (budget 28) alpha_2 and delta sit at 0 and alpha_1 absorbs
        # the spend; any solution using alpha_2 or delta instead scores lower.
        res = solve_for_v(fixture_lp, 12.0)
        assert res.alphas == pytest.approx((28.0 / 30.0, 0.0))
        assert res.delta == 0.0
        assert res.utility == pytest.approx(5.6)

    def test_ratio_tie_funds_lower_index_first(self):
        # Both alphas have ratio 0.2 and the budget covers only one of them:
        # the lower index is filled, the higher one left at zero.
        lp = build_opt((2.0, 2.0), (10.0, 10.0), 5.0, 0.0, 25.0)
        res = solve_for_v(lp, 15.0)
        assert res.alphas == (1.0, 0.0)
        assert res.delta == 0.0
        res = solve_for_v(lp, 20.0)
        assert res.alphas == (0.5, 0.0)


class TestParametricSweep:
    def test_fixture_breakpoints(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        vs = [v for v, _ in curve.breakpoints]
        us = [u for _, u in curve.breakpoints]
        assert vs == pytest.approx([0.0, 10.0, 40.0])
        assert us == pytest.approx([7.0, 6.0, 0.0])

    def test_fixture_segment_slopes(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        (v0, u0), (v1, u1), (v2, u2) = curve.breakpoints
        assert (u1 - u0) / (v1 - v0) == pytest.approx(-0.1)
        assert (u2 - u1) / (v2 - v1) == pytest.approx(-0.2)

    def test_fixture_controls(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        assert curve.controls[0][0] == pytest.approx((1.0, 0.5))
        assert curve.controls[1][0] == pytest.approx((1.0, 0.0))
        assert curve.controls[2][0] == pytest.approx((0.0, 0.0))

    def test_single_policy_linear(self):
        lp = build_opt((1.0,), (10.0,), 5.0, 0.0, 10.0)
        curve = parametric_sweep(lp, 0.0, 10.0)
        assert len(curve.breakpoints) == 2
        for v in (0.0, 2.5, 5.0, 7.5, 10.0):
            assert evaluate_curve(curve, v) == pytest.approx(1.0 - v / 10.0)

    def test_point_sweep(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 7.0, 7.0)
        assert len(curve.breakpoints) == 1
        assert evaluate_curve(curve, 7.0) == pytest.approx(6.3)

    def test_range_narrower_than_tolerance_keeps_both_ends(self):
        # Spending the whole 6.3e-11 uJ budget is worth 1.0e-9 of utility,
        # so a curve that kept only its lower end was off by that at the top.
        x = 3.934775993059803e-12 * 16.0
        lp = build_opt((1.0, 16.0), (1.0, 1.0), 14.0, None, x)
        curve = parametric_sweep(lp, 0.0, x)
        assert [v for v, _ in curve.breakpoints] == [0.0, x]
        assert evaluate_curve(curve, x) == solve_for_v(lp, x).utility == 0.0

    def test_monotone_spend_along_sweep(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        spends = [
            sum(a * c for a, c in zip(alphas, fixture_lp.costs))
            + d * fixture_lp.duty_energy
            for alphas, d in curve.controls
        ]
        assert all(s0 >= s1 - 1e-9 for s0, s1 in zip(spends, spends[1:]))

    def test_csv_rows_header(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        rows = curve.csv_rows()
        assert rows[0] == ["v_microjoules", "u", "alpha_1", "alpha_2", "delta"]
        assert len(rows) == 1 + len(curve.breakpoints)


class TestEvaluateCurve:
    def test_breakpoint_exact(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        for (v, u) in curve.breakpoints:
            assert evaluate_curve(curve, v) == u

    def test_interior_interpolation(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        assert evaluate_curve(curve, 5.0) == pytest.approx(6.5)
        assert evaluate_curve(curve, 25.0) == pytest.approx(3.0)

    def test_out_of_domain(self, fixture_lp):
        curve = parametric_sweep(fixture_lp, 0.0, 40.0)
        with pytest.raises(OutOfDomain):
            evaluate_curve(curve, 41.0)
        with pytest.raises(OutOfDomain):
            evaluate_curve(curve, -0.5)


class TestSimplexOracle:
    def test_zero_budget_zeros(self, fixture_lp):
        res = simplex_solve(fixture_lp, 40.0)
        assert res.alphas == (0.0, 0.0) and res.delta == 0.0

    def test_full_budget(self, fixture_lp):
        assert simplex_solve(fixture_lp, 0.0).utility == pytest.approx(7.0)

    def test_ratio_tie_same_utility(self):
        lp = build_opt((3.0, 6.0), (10.0, 20.0), 5.0, 0.0, 20.0)
        # both orderings of the tied items spend the same budget for the
        # same utility; assert U only
        res = simplex_solve(lp, 0.0)
        alt = solve_for_v(lp, 0.0)
        assert res.utility == pytest.approx(alt.utility)


instances = st.builds(
    lambda m, ws, cs, edc, x_frac, wd: (
        tuple(ws[:m]),
        tuple(cs[:m]),
        edc,
        wd,
        x_frac,
    ),
    m=st.integers(min_value=0, max_value=6),
    ws=st.lists(st.floats(min_value=1, max_value=100), min_size=6, max_size=6),
    cs=st.lists(st.floats(min_value=1, max_value=100), min_size=6, max_size=6),
    edc=st.floats(min_value=1, max_value=100),
    x_frac=st.floats(min_value=0, max_value=1),
    wd=st.one_of(st.none(), st.floats(min_value=0, max_value=10)),
)


class TestSlotFill:
    """A slot plan fills the LP built at a zero budget directly at its spend;
    that gives bit for bit the controls ``solve_for_v`` gives on the LP
    built at the slot's budget, for any residual the plan's clamp admits."""

    @given(
        inst=instances,
        over=st.floats(min_value=0, max_value=3),
        v_frac=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=150, deadline=None)
    def test_fill_equals_solve_at_the_budget(self, inst, over, v_frac):
        ws, cs, edc, wd, _ = inst
        terms = build_opt(ws, cs, edc, wd, 0.0)
        budget = over * terms.max_spend
        # plan_slot's clamp: the residual leaves no more than the LP absorbs.
        v = min(max(v_frac * budget, budget - terms.max_spend), budget)
        solved = solve_for_v(build_opt(ws, cs, edc, wd, budget), v)
        filled = terms.fill(budget - v)
        assert [x.hex() for x in filled] == [x.hex() for x in solved.alphas + (solved.delta,)]


class TestOracleEquivalence:
    @given(
        inst=instances,
        v_frac=st.floats(min_value=0, max_value=1),
        tie=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_simplex_matches_greedy(self, inst, v_frac, tie):
        ws, cs, edc, wd, x_frac = inst
        if tie and len(ws) >= 2:
            # Doubling both is exact, so policy 1 ties policy 0's ratio.
            ws = (ws[0], 2 * ws[0]) + ws[2:]
            cs = (cs[0], 2 * cs[0]) + cs[2:]
        max_spend = sum(cs) + edc
        x = x_frac * max_spend
        lp = build_opt(ws, cs, edc, wd, x)
        v = v_frac * x
        a = solve_for_v(lp, v)
        b = simplex_solve(lp, v)
        ratios = [w / c for w, c in zip(lp.objective, lp.row)]
        if len(set(ratios)) == len(ratios):
            assert (a.alphas, a.delta, a.utility) == (b.alphas, b.delta, b.utility)
        else:
            # On a tie the simplex may stop at another optimal vertex.
            assert abs(a.utility - b.utility) <= 1e-9 * max(1.0, abs(b.utility))
        spend = sum(al * c for al, c in zip(a.alphas, cs)) + a.delta * edc
        assert spend == pytest.approx(x - v, rel=1e-9, abs=1e-6)
        for val in a.alphas + (a.delta,):
            assert 0.0 <= val <= 1.0

    @given(inst=instances)
    @settings(max_examples=150, deadline=None)
    def test_curve_shape(self, inst):
        ws, cs, edc, wd, x_frac = inst
        x = x_frac * (sum(cs) + edc)
        lp = build_opt(ws, cs, edc, wd, x)
        curve = parametric_sweep(lp, 0.0, x)
        bps = curve.breakpoints
        assert len(bps) <= lp.n_vars + 2
        assert all(b0[0] < b1[0] for b0, b1 in zip(bps, bps[1:]))
        assert all(b0[1] >= b1[1] - 1e-9 for b0, b1 in zip(bps, bps[1:]))
        slopes = [
            (b1[1] - b0[1]) / (b1[0] - b0[0]) for b0, b1 in zip(bps, bps[1:])
        ]
        assert all(s0 >= s1 - 1e-9 for s0, s1 in zip(slopes, slopes[1:]))

    @given(inst=instances, v_frac=st.floats(min_value=0, max_value=1))
    @settings(max_examples=150, deadline=None)
    def test_perturbation_consistency(self, inst, v_frac):
        ws, cs, edc, wd, x_frac = inst
        x = x_frac * (sum(cs) + edc)
        lp = build_opt(ws, cs, edc, wd, x)
        curve = parametric_sweep(lp, 0.0, x)
        v = v_frac * x
        direct = solve_for_v(lp, v).utility
        interp = evaluate_curve(curve, v)
        assert abs(direct - interp) <= 1e-9 * max(1.0, abs(direct))
