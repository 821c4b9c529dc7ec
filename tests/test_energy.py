import inspect
import math

import pytest
from hypothesis import example, given, strategies as st

from harvestsim.app import EnergyContext, ExecutionPlan, execute_plan
from harvestsim.scenario import EnergySettings
from harvestsim.energy import (
    DEFAULT_OP_COSTS,
    DEFAULT_THRESHOLDS,
    DEFAULT_TX_COSTS,
    OP_KINDS,
    EnergyLevel,
    EnergyStore,
    HarvestTrace,
    InsufficientEnergy,
    SlotOutOfRange,
    check_amount,
    classify_level,
    deposit,
    harvest_in_slot,
    price_tables,
    withdraw,
)
from harvestsim.routing import TX_POWER_BY_LEVEL


def make_store(stored, capacity=100.0):
    return EnergyStore(stored=stored, capacity=capacity)


def withdraw_prefix(store, amounts, floor):
    """Spend ``amounts`` in order, in place, up to the first one that would
    breach the survivability floor; returns how many were paid.

    The oracle for the floor rule: each draw subtracts from what the
    previous ones left and is paid when what it leaves is not below the
    floor. An invalid amount or floor raises and leaves the store untouched.
    """
    check_amount(floor, "floor")
    stored = store.stored
    paid = 0
    for e in amounts:
        if not 0.0 <= e < math.inf:
            check_amount(e, "withdrawal")  # raises, naming the fault
        remaining = stored - e
        if remaining < floor:
            break
        stored = remaining
        paid += 1
    store.stored = stored
    return paid


class TestHarvest:
    def test_zero_power_zero_harvest(self):
        trace = HarvestTrace(powers=(0.0, 0.0))
        assert harvest_in_slot(trace, 0, 60.0) == 0.0

    def test_one_milliwatt_minute(self):
        trace = HarvestTrace(powers=(0.001,))
        assert harvest_in_slot(trace, 0, 60.0) == pytest.approx(60_000.0)

    def test_scale_factor(self):
        trace = HarvestTrace(powers=(0.002,), scale=0.5)
        assert harvest_in_slot(trace, 0, 60.0) == pytest.approx(60_000.0)

    def test_slot_out_of_range(self):
        trace = HarvestTrace(powers=(0.001, 0.002))
        assert trace.power_at(1) == 0.002
        with pytest.raises(SlotOutOfRange):
            harvest_in_slot(trace, 2, 60.0)
        with pytest.raises(SlotOutOfRange):
            harvest_in_slot(trace, -1, 60.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            HarvestTrace(powers=(-0.001,))


class TestDeposit:
    def test_identity_on_zero(self):
        store, wasted = deposit(make_store(0.0), 0.0)
        assert store.stored == 0.0 and wasted == 0.0

    def test_clamp_reports_waste(self):
        store, wasted = deposit(make_store(90.0), 25.0)
        assert store.stored == 100.0
        assert wasted == pytest.approx(15.0)

    def test_store_clamped_full_holds_a_float(self):
        # A scenario may give an integer capacity; the ledger's stored
        # columns are floats, so a store clamped full must hold one too.
        store, wasted = deposit(EnergyStore(stored=500, capacity=1000), 600.0)
        assert (store.stored, wasted) == (1000.0, 100.0)
        assert type(store.stored) is float and type(store.capacity) is float

    def test_plain_addition(self):
        store, wasted = deposit(make_store(10.0), 25.0)
        assert store.stored == pytest.approx(35.0)
        assert wasted == 0.0


class TestWithdraw:
    def test_zero_withdrawal(self):
        assert withdraw(make_store(50.0), 0.0, 0.0).stored == 50.0

    def test_floor_refusal(self):
        with pytest.raises(InsufficientEnergy):
            withdraw(make_store(50.0), 45.0, 10.0)

    def test_refusal_carries_its_numbers_and_formats_the_message_on_reading(self):
        with pytest.raises(InsufficientEnergy) as refused:
            withdraw(make_store(50.0), 45.3, 10.1)
        assert refused.value.args == (45.3, 50.0, 10.1)
        assert str(refused.value) == (
            f"withdraw {45.3} from {50.0} would leave {50.0 - 45.3} < floor {10.1}"
        )

    def test_subtraction_above_floor(self):
        assert withdraw(make_store(50.0), 30.0, 10.0).stored == pytest.approx(20.0)


class TestInPlace:
    def test_draw_updates_the_same_store(self):
        store = make_store(50.0)
        assert withdraw(store, 30.0, 10.0) is store
        assert store.stored == pytest.approx(20.0)

    def test_refused_draw_changes_nothing(self):
        store = make_store(50.0)
        with pytest.raises(InsufficientEnergy):
            withdraw(store, 45.0, 10.0)
        assert store.stored == 50.0

    @pytest.mark.parametrize(
        "amount, floor", [(math.nan, 10.0), (-1.0, 10.0), (math.inf, 10.0), (1.0, math.nan)]
    )
    def test_invalid_draw_changes_nothing(self, amount, floor):
        store = make_store(50.0)
        with pytest.raises(ValueError):
            withdraw(store, amount, floor)
        assert store.stored == 50.0

    @pytest.mark.parametrize("amount", [math.nan, -1.0])
    def test_invalid_deposit_changes_nothing(self, amount):
        store = make_store(50.0)
        with pytest.raises(ValueError):
            deposit(store, amount)
        assert store.stored == 50.0

    def test_deposit_clamp_fills_the_same_store(self):
        store = make_store(90.0)
        after, wasted = deposit(store, 25.0)
        assert after is store and store.stored == store.capacity
        assert wasted == pytest.approx(15.0)


class TestClassify:
    def test_empty_is_lowest(self):
        assert classify_level(0.0, 100_000.0) is EnergyLevel.E0

    def test_75_percent_is_high(self):
        assert classify_level(75_000.0, 100_000.0) is EnergyLevel.E3

    def test_25_percent_is_minimum(self):
        assert classify_level(25_000.0, 100_000.0) is EnergyLevel.E1

    def test_boundaries_belong_above(self):
        t = (0.10, 0.40, 0.70)
        assert classify_level(10.0, 100.0, t) is EnergyLevel.E1
        assert classify_level(40.0, 100.0, t) is EnergyLevel.E2
        assert classify_level(70.0, 100.0, t) is EnergyLevel.E3

    def test_reads_the_settings_thresholds(self):
        t = (0.20, 0.50, 0.90)
        levels = [classify_level(e, 100.0, t) for e in (19.0, 20.0, 49.0, 50.0, 89.0, 90.0)]
        assert levels == [EnergyLevel.E0, EnergyLevel.E1, EnergyLevel.E1,
                          EnergyLevel.E2, EnergyLevel.E2, EnergyLevel.E3]

    def test_one_default(self):
        assert EnergySettings().thresholds is DEFAULT_THRESHOLDS
        default = inspect.signature(classify_level).parameters["thresholds"].default
        assert default is DEFAULT_THRESHOLDS

    @given(
        e1=st.floats(min_value=0, max_value=100),
        e2=st.floats(min_value=0, max_value=100),
    )
    def test_monotone(self, e1, e2):
        lo, hi = sorted((e1, e2))
        assert classify_level(lo, 100.0) <= classify_level(hi, 100.0)

    @pytest.mark.parametrize("t", [(0.4, 0.4, 0.7), (0.1, 0.7, 0.4), (0.7, 0.4, 0.1)])
    def test_thresholds_must_ascend(self, t):
        with pytest.raises(ValueError, match="EnergySettings.thresholds: must be strictly ascending"):
            EnergySettings(thresholds=t)

    @pytest.mark.parametrize("t", [(0.0, 0.4, 0.7), (0.1, 0.4, 1.0)])
    def test_thresholds_lie_inside_the_store(self, t):
        with pytest.raises(ValueError, match="EnergySettings.thresholds/"):
            EnergySettings(thresholds=t)


class TestPriceTables:
    PUBLISHED = {
        "sense": 20.30, "average50": 7.056, "peak50": 7.392, "flash_write": 1.23,
        "flash_read": 0.30, "rx128": 400.0,
    }

    def test_published_value_of_every_kind(self):
        prices = price_tables({})
        assert prices[None] == self.PUBLISHED
        for power, tx in {0: 341.0, -5: 304.0, -10: 271.0}.items():
            assert prices[power] == {**self.PUBLISHED, "tx128": tx}
        assert prices.keys() == {None, 0, -5, -10}

    def test_configured_costs_override_entry_by_entry(self):
        prices = price_tables({"sense": 25.0, "tx128": {0: 300.0, 3: 380.0}})
        assert prices[None] == {**DEFAULT_OP_COSTS, "sense": 25.0}
        assert prices[0] == {**DEFAULT_OP_COSTS, "sense": 25.0, "tx128": 300.0}
        assert prices[3] == {**DEFAULT_OP_COSTS, "sense": 25.0, "tx128": 380.0}
        # The partial tx128 table leaves the other powers at their published cost.
        assert prices[-5]["tx128"] == DEFAULT_TX_COSTS[-5]
        assert prices[-10]["tx128"] == DEFAULT_TX_COSTS[-10]

    @pytest.mark.parametrize("costs", [{}, {"tx128": {0: 300.0}}], ids=["published", "partial"])
    def test_every_level_power_priced_and_the_dormant_radio_has_no_transmit(self, costs):
        prices = price_tables(costs)
        for level, power in TX_POWER_BY_LEVEL.items():
            assert prices[power].keys() == OP_KINDS.keys(), level
        assert EnergyLevel.E0 not in TX_POWER_BY_LEVEL  # E0 is dormant: no power
        assert prices[None].keys() == OP_KINDS.keys() - {"tx128"}

    def test_the_published_tables_are_left_alone(self):
        before = (dict(DEFAULT_OP_COSTS), dict(DEFAULT_TX_COSTS))
        costs = {"sense": 1.0, "tx128": {0: 2.0}}
        price_tables(costs)
        assert (DEFAULT_OP_COSTS, DEFAULT_TX_COSTS) == before
        assert costs == {"sense": 1.0, "tx128": {0: 2.0}}


# Any float, with the ones a draw must reject (NaN, infinities, negatives)
# common, and the range a 100 uJ store spends in.
DRAW_ARGS = st.one_of(
    st.floats(),
    st.floats(min_value=-200.0, max_value=200.0),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0]),
)


class TestWithdrawEqualsOneDrawPrefix:
    """``withdraw`` pays one draw itself; it must behave exactly as a
    one-draw ``withdraw_prefix``."""

    @given(stored=st.floats(min_value=0.0, max_value=100.0), e=DRAW_ARGS, floor=DRAW_ARGS)
    def test_same_balance_refusal_and_error(self, stored, e, floor):
        one, prefix = make_store(stored), make_store(stored)
        try:
            paid = withdraw_prefix(prefix, (e,), floor)
        except ValueError as expected:
            with pytest.raises(ValueError) as got:
                withdraw(one, e, floor)
            assert str(got.value) == str(expected)
            assert one.stored == prefix.stored == stored
            return
        if paid:
            assert withdraw(one, e, floor) is one
        else:
            with pytest.raises(InsufficientEnergy) as got:
                withdraw(one, e, floor)
            assert got.value.args == (e, stored, floor)
            assert one.stored == prefix.stored == stored
        assert one.stored == prefix.stored


class TestExecutePlanEqualsPrefix:
    """``app.execute_plan`` pays a plan draw by draw, each by the floor
    comparison ``withdraw`` makes, and stops at the first refusal; over any
    sequence of valid draws it pays what the one-pass ``withdraw_prefix``
    pays, to the same balance."""

    @given(
        stored=st.floats(min_value=0.0, max_value=100.0),
        floor=st.floats(min_value=0.0, max_value=100.0),
        prices=st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=len(OP_KINDS),
                        max_size=len(OP_KINDS)),
        picks=st.lists(st.integers(0, len(OP_KINDS) - 1), max_size=30),
    )
    # Leaves exactly the floor: paid.
    @example(stored=10.0, floor=4.0, prices=[6.0] * len(OP_KINDS), picks=[0])
    # One ulp more: refused.
    @example(stored=10.0, floor=4.0, prices=[6.000000000000001] * len(OP_KINDS), picks=[0])
    def test_same_paid_count_balance_and_refusal(self, stored, floor, prices, picks):
        price = dict(zip(OP_KINDS, prices))
        kinds = [list(OP_KINDS)[i] for i in picks]
        run_ops = [(f"p{i % 3}", kind) for i, kind in enumerate(kinds)]
        context = EnergyContext(EnergyLevel.E1, EnergyLevel.E1, EnergyLevel.E1)
        plan = ExecutionPlan(context, run_ops, [], {}, 0.0, [], price)
        store, oracle = make_store(stored), make_store(stored)
        report, got, skipped = execute_plan(plan, store, floor)
        paid = withdraw_prefix(oracle, [price[kind] for kind in kinds], floor)
        assert got is store and store.stored == oracle.stored
        assert report.ops_node + report.ops_network == paid
        assert skipped == run_ops[paid:]
        assert report.aborted == (paid < len(kinds))
        assert plan.steps == run_ops
        assert report.consumed_uj == sum(price[kind] for kind in kinds[:paid])


class TestLedgerProperties:
    @given(
        stored=st.floats(min_value=0, max_value=100),
        amount=st.floats(min_value=0, max_value=100),
    )
    def test_deposit_withdraw_roundtrip(self, stored, amount):
        store = make_store(stored)
        after, wasted = deposit(store, amount)
        if wasted == 0.0 and after.stored - amount >= 0.0:
            back = withdraw(after, amount, 0.0)
            assert back.stored == pytest.approx(stored, abs=1e-9)

    @given(
        stored=st.floats(min_value=0, max_value=100),
        draw=st.floats(min_value=0, max_value=200),
        floor=st.floats(min_value=0, max_value=50),
    )
    def test_floor_never_breached(self, stored, draw, floor):
        store = make_store(stored)
        try:
            after = withdraw(store, draw, floor)
        except InsufficientEnergy:
            return
        assert after.stored >= floor - 1e-12

    @given(st.lists(st.floats(min_value=0, max_value=30), min_size=1, max_size=40))
    def test_conservation_over_run(self, harvests):
        store = make_store(20.0)
        charge = 3.0
        for h in harvests:
            before = store.stored
            store, wasted = deposit(store, h)
            consumed = 0.0
            try:
                store = withdraw(store, charge, 10.0)
                consumed = charge
            except InsufficientEnergy:
                pass
            expected = min(before + h, store.capacity) - consumed
            assert store.stored == pytest.approx(expected, rel=1e-9)

    def test_stored_cannot_exceed_capacity(self):
        with pytest.raises(ValueError):
            EnergyStore(stored=101.0, capacity=100.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            make_store(math.nan)


class TestCheckAmount:
    @pytest.mark.parametrize("value", [0, 0.0, -0.0, 1, 2.5, 1e300])
    def test_finite_non_negative_returned_as_float(self, value):
        out = check_amount(value)
        assert type(out) is float and out == value

    @pytest.mark.parametrize(
        "value, message",
        [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"), (-1e-12, ">= 0"), (-3, ">= 0")],
    )
    def test_rejected_with_reason(self, value, message):
        with pytest.raises(ValueError, match=f"withdrawal must be {message}"):
            check_amount(value, "withdrawal")
