import pytest
from hypothesis import given, settings, strategies as st

from harvestsim.app import (
    Backlog,
    BacklogEntry,
    EnergyContext,
    Policy,
    aborted_tail,
    assess_slot,
    compute_budget,
    deferrals,
    execute_plan,
    plan_slot,
    plan_terms,
    _plan_shape,
    _prefix_counts,
    _rank,
)
from harvestsim.energy import (
    DEFAULT_THRESHOLDS,
    DEFAULT_TX_COSTS,
    EnergyLevel,
    EnergyStore,
    price_tables,
)

CAP = 100_000.0  # 100 mJ
FLOOR = 10_000.0  # E0/E1 boundary


def prefix_steps(policies, alphas):
    """The prefix rule ``plan_slot`` runs, over ``policies`` in priority order."""
    ranked = sorted(policies, key=_rank)
    return _plan_shape(ranked, policies, _prefix_counts(ranked, alphas)).run_ops


def store_at(stored):
    return EnergyStore(stored=stored, capacity=CAP)


def assess(store, forecasts, neighbor_levels, thresholds=DEFAULT_THRESHOLDS):
    return assess_slot(store, forecasts, neighbor_levels, thresholds)


# The published price of every kind at each transmit power, and dormant.
PRICES = price_tables({})


def cost_of(policy, price):
    """A policy's LP cost: the sum of its steps' prices, in step order."""
    return sum(price[kind] for kind in policy.steps)


SENSE = "sense"
AVG = "average50"
WRITE = "flash_write"
TX = "tx128"
RX = "rx128"


class TestAssess:
    def test_all_high(self):
        ctx = assess(
            store_at(CAP), [90_000.0, 95_000.0], [EnergyLevel.E3, EnergyLevel.E3]
        )
        assert (ctx.own, ctx.virtual, ctx.network) == (
            EnergyLevel.E3,
            EnergyLevel.E3,
            EnergyLevel.E3,
        )

    def test_mixed_levels(self):
        ctx = assess(
            store_at(25_000.0),
            [5_000.0, 30_000.0],
            [EnergyLevel.E2, EnergyLevel.E1],
        )
        assert (ctx.own, ctx.virtual, ctx.network) == (
            EnergyLevel.E1,
            EnergyLevel.E0,
            EnergyLevel.E1,
        )

    def test_no_neighbors_defaults_e1(self):
        ctx = assess(store_at(CAP), [CAP, CAP], [])
        assert ctx.network is EnergyLevel.E1

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            assess(store_at(CAP), [CAP], [])

    def test_virtual_uses_worst_forecast(self):
        ctx = assess(store_at(CAP), [80_000.0, 5_000.0], [])
        assert ctx.virtual is EnergyLevel.E0

    def test_both_levels_read_the_given_thresholds(self):
        # At the defaults 45% of the store is E2; at (0.2, 0.5, 0.9) it is E1.
        store = store_at(45_000.0)
        ctx = assess(store, [45_000.0, 95_000.0], [])
        assert (ctx.own, ctx.virtual) == (EnergyLevel.E2, EnergyLevel.E2)
        ctx = assess(store, [45_000.0, 95_000.0], [], (0.2, 0.5, 0.9))
        assert (ctx.own, ctx.virtual) == (EnergyLevel.E1, EnergyLevel.E1)


class TestBudget:
    def test_zero_reserve_at_high_virtual(self):
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        assert compute_budget(ctx, store_at(50_000.0), FLOOR) == pytest.approx(40_000.0)

    def test_forty_percent_reserve_at_low_virtual(self):
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E0, EnergyLevel.E3)
        assert compute_budget(ctx, store_at(50_000.0), FLOOR) == pytest.approx(20_000.0)

    def test_nothing_spendable_at_floor(self):
        ctx = EnergyContext(EnergyLevel.E1, EnergyLevel.E3, EnergyLevel.E3)
        assert compute_budget(ctx, store_at(FLOOR), FLOOR) == 0.0

    def test_network_level_does_not_change_budget(self):
        hi = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        lo = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E0)
        s = store_at(50_000.0)
        assert compute_budget(hi, s, FLOOR) == compute_budget(lo, s, FLOOR)


class TestPolicy:
    def test_repeat_expands_in_order_and_scales_utility(self):
        pol = Policy("p", (SENSE, TX), repeat=3, weight=2.0)
        assert pol.steps == (SENSE, TX, SENSE, TX, SENSE, TX)
        assert pol.utility == 12.0
        assert [kind for _, kind in prefix_steps([pol], {"p": 0.5})] == [SENSE, TX, SENSE]

    def test_repeat_zero_rejected(self):
        with pytest.raises(ValueError):
            Policy("p", (SENSE,), repeat=0)


class TestSelectSubset:
    def test_full_alpha_runs_all(self):
        pol = Policy("p", (SENSE, AVG, WRITE))
        assert len(prefix_steps([pol], {"p": 1.0})) == 3

    def test_half_alpha_floors(self):
        pol = Policy("p", (SENSE, AVG, WRITE))
        assert len(prefix_steps([pol], {"p": 0.5})) == 1

    def test_zero_alpha_runs_none(self):
        pol = Policy("p", (SENSE, AVG, WRITE))
        assert prefix_steps([pol], {"p": 0.0}) == []

    def test_priority_order(self):
        low = Policy("low", (AVG,), priority=2)
        high = Policy("high", (SENSE,), priority=1)
        chosen = prefix_steps([low, high], {"low": 1.0, "high": 1.0})
        assert [name for name, _ in chosen] == ["high", "low"]

    def test_alpha_out_of_bounds_rejected(self):
        pol = Policy("p", (SENSE,))
        with pytest.raises(ValueError):
            prefix_steps([pol], {"p": 1.2})


def make_policies():
    # ~2.2 mJ and ~0.43 mJ per execution
    report = Policy("report", (SENSE, TX, SENSE, TX, SENSE, TX), priority=1)
    log = Policy("log", (SENSE, AVG, WRITE), priority=2)
    return [report, log]


SLOT = 7


def plan(ctx, policies=None, budget=None, backlog=None, prices=PRICES, tx_power_dbm=0, cache=None):
    policies = policies or make_policies()
    if budget is None:
        budget = 50_000.0
    return plan_slot(
        ctx,
        policies,
        backlog if backlog is not None else Backlog(),
        budget,
        prices[tx_power_dbm],
        slot=SLOT,
        tx_power_dbm=tx_power_dbm,
        duty_energy=10_000.0,
        cache={} if cache is None else cache,
    )


class TestPlanSlot:
    def test_abundant_runs_everything(self):
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        p = plan(ctx)
        assert all(a == pytest.approx(1.0) for a in p.alphas.values())
        assert len(p.run_ops) == 9
        assert p.deferred == []

    def test_backlog_drained_when_both_levels_high(self):
        backlog = Backlog()
        backlog.push(BacklogEntry(SENSE, "report", 1, enqueued_slot=0))
        backlog.push(BacklogEntry(AVG, "log", 2, enqueued_slot=1))
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        p = plan(ctx, backlog=backlog)
        assert len(p.backlog_run) == 2
        assert len(backlog) == 0

    def test_backlog_not_drained_when_virtual_low(self):
        backlog = Backlog()
        backlog.push(BacklogEntry(SENSE, "report", 1, enqueued_slot=0))
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E1, EnergyLevel.E3)
        p = plan(ctx, backlog=backlog)
        assert p.backlog_run == []
        assert len(backlog) == 1

    def test_low_virtual_strictly_reduces_ops(self):
        # Reserve bite: same store, virtual E0 vs E3. The full policy set
        # costs ~1112 uJ; the scaled budgets straddle that threshold.
        store = store_at(CAP)
        hi = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        lo = EnergyContext(EnergyLevel.E3, EnergyLevel.E0, EnergyLevel.E3)
        p_hi = plan(hi, budget=compute_budget(hi, store, FLOOR) / 60.0)
        p_lo = plan(lo, budget=compute_budget(lo, store, FLOOR) / 60.0)
        assert len(p_hi.run_ops) == 9
        assert len(p_lo.run_ops) < len(p_hi.run_ops)

    def test_zero_budget_defers_everything(self):
        # Everything that can wait: the node-class policy's steps, at its
        # priority. The network policy's packets are the engine's to keep.
        ctx = EnergyContext(EnergyLevel.E0, EnergyLevel.E0, EnergyLevel.E1)
        p = plan(ctx, budget=0.0)
        assert p.run_ops == []
        assert p.deferred == [
            BacklogEntry(kind, "log", 2, SLOT) for kind in (SENSE, AVG, WRITE)
        ]

    def test_network_e0_gates_network_policies(self):
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E0)
        p = plan(ctx)
        assert all(name == "log" for name, _ in p.run_ops)
        assert p.run_ops
        assert not any(e.policy == "report" for e in p.deferred)

    def test_morphing_monotone_in_virtual_level(self):
        store = store_at(60_000.0)
        counts = []
        for virt in (EnergyLevel.E3, EnergyLevel.E2, EnergyLevel.E1, EnergyLevel.E0):
            ctx = EnergyContext(EnergyLevel.E3, virt, EnergyLevel.E3)
            budget = compute_budget(ctx, store, FLOOR)
            counts.append(len(plan(ctx, budget=budget / 20.0).run_ops))
        assert counts == sorted(counts, reverse=True)


class TestPlanTermsCache:
    """Plans from the per-node store of planning terms equal plans computed
    afresh, at every (tx power, radio-dark) pair a node can plan at."""

    # Own level E0 darkens the radio and leaves no power; otherwise the
    # power follows the own level, and a network at E0 darkens the radio.
    PAIRS = [
        (EnergyLevel.E3, EnergyLevel.E3, 0),
        (EnergyLevel.E2, EnergyLevel.E3, -5),
        (EnergyLevel.E1, EnergyLevel.E3, -10),
        (EnergyLevel.E3, EnergyLevel.E0, 0),
        (EnergyLevel.E2, EnergyLevel.E0, -5),
        (EnergyLevel.E1, EnergyLevel.E0, -10),
        (EnergyLevel.E0, EnergyLevel.E3, None),
    ]

    @staticmethod
    def policies():
        return [
            Policy("forward", (RX, TX), priority=1, repeat=4, weight=30.0),
            Policy("log", (SENSE, AVG, WRITE), priority=2, repeat=2),
            Policy("house", ("flash_read", AVG), priority=2),
        ]

    def test_cached_plan_equals_uncached_at_every_pair(self):
        prices = price_tables({"tx128": {0: 341.0, -5: 304.0, -10: 271.0}})
        policies = self.policies()
        cache = {}
        for budget in (0.0, 150.0, 900.0, 2_500.0, 50_000.0):
            for own, network, power in self.PAIRS:
                ctx = EnergyContext(own, EnergyLevel.E3, network)
                runs = []
                # The kept store twice, the second plan a hit in its shape
                # memo, then a fresh store.
                for store in (cache, cache, {}):
                    backlog = Backlog()
                    backlog.push(BacklogEntry(SENSE, "log", 2, enqueued_slot=0))
                    backlog.push(BacklogEntry(TX, "deferred-tx", 1, 1, packet_id="D-1-0"))
                    runs.append((plan(ctx, policies, budget, backlog, prices, power, store), backlog))
                *kept, (fresh, fresh_left) = runs
                assert kept[1][0].shape is kept[0][0].shape
                for cached, left in kept:
                    assert cached == fresh
                    assert left.entries == fresh_left.entries
                    assert cached.kinds == fresh.kinds
                    assert (cached.shape.tx_quota, cached.shape.rx_quota) == (
                        fresh.shape.tx_quota, fresh.shape.rx_quota
                    )
                dark = EnergyLevel.E0 in (own, network)
                assert cache[power, dark] == plan_terms(
                    policies, prices[power], dark, duty_energy=10_000.0
                )
        assert len(cache) == len(self.PAIRS)

    def test_terms_drop_network_policies_when_dark(self):
        policies = self.policies()
        lit = plan_terms(policies, PRICES[-5], False, duty_energy=10_000.0)
        assert [p.name for p in lit.eligible] == ["forward", "log", "house"]
        assert [p.name for p in lit.ranked] == ["forward", "house", "log"]
        assert lit.lp.weights == (240.0, 6.0, 2.0)
        assert lit.lp.costs == tuple(cost_of(p, PRICES[-5]) for p in policies)
        dark = plan_terms(policies, PRICES[None], True, duty_energy=10_000.0)
        assert [p.name for p in dark.eligible] == ["log", "house"]


class TestDeferrals:
    def test_node_class_steps_at_their_policy_priority(self):
        report, log = make_policies()
        steps = [("report", SENSE), ("log", AVG), ("report", TX), ("log", WRITE)]
        assert deferrals([report, log], steps, 4) == [
            BacklogEntry(AVG, "log", 2, 4),
            BacklogEntry(WRITE, "log", 2, 4),
        ]

    def test_partial_morph_defers_the_unrun_suffix(self):
        # A quarter of the policy's cost runs a prefix of its six steps;
        # the rest wait.
        log = Policy("log", (SENSE, AVG, WRITE), priority=3, repeat=2)
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        cost = cost_of(log, PRICES[0])
        p = plan(ctx, policies=[log], budget=cost / 4)
        ran = len(p.run_ops)
        assert 0 < ran < 6
        assert p.deferred == [BacklogEntry(k, "log", 3, SLOT) for k in log.steps[ran:]]

    def test_aborted_tail_requeues_node_steps_and_counts_lost_network_ops(self):
        backlog = Backlog()
        backlog.push(BacklogEntry(TX, "deferred-tx", 1, enqueued_slot=0, packet_id="D-0-0"))
        backlog.push(BacklogEntry(AVG, "log", 2, enqueued_slot=1))
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        policies = make_policies()
        p = plan(ctx, policies=policies, backlog=backlog)
        assert len(p.backlog_run) == 2
        # The store covers nothing above the floor: the whole plan aborts.
        _, _, skipped = execute_plan(
            p, store_at(FLOOR), FLOOR
        )
        assert len(skipped) == 2 + 9
        requeued, lost = aborted_tail(policies, skipped, 9)
        assert requeued == [
            BacklogEntry(kind, "log", 2, 9) for kind in (AVG, SENSE, AVG, WRITE)
        ]
        assert lost == 1 + 3  # the drained packet and the report's transmissions


class TestBacklog:
    def test_eviction_order_lowest_priority_oldest_first(self):
        b = Backlog(capacity=2)
        assert b.push(BacklogEntry(SENSE, "a", 1, enqueued_slot=0)) is None
        assert b.push(BacklogEntry(AVG, "b", 3, enqueued_slot=1)) is None
        victim = b.push(BacklogEntry(WRITE, "c", 3, enqueued_slot=2))
        assert victim is not None
        assert victim.policy == "b"  # same low priority, older goes first

    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4)),
            max_size=30,
        ),
    )
    @settings(max_examples=200)
    def test_eviction_equals_max_key_oracle(self, capacity, pushes):
        # Push by push, the victim is the one max() picks by the key
        # (priority, -enqueued_slot, -index); small ranges make ties common.
        b, oracle = Backlog(capacity=capacity), []
        for i, (priority, slot) in enumerate(pushes):
            entry = BacklogEntry(SENSE, f"p{i}", priority, enqueued_slot=slot)
            oracle.append(entry)
            expected = None
            if len(oracle) > capacity:
                victim = max(
                    range(len(oracle)),
                    key=lambda j: (oracle[j].priority, -oracle[j].enqueued_slot, -j),
                )
                expected = oracle.pop(victim)
            assert b.push(entry) == expected
            assert b.entries == oracle

    def test_drain_orders_by_priority_then_age(self):
        b = Backlog()
        b.push(BacklogEntry(SENSE, "late", 2, enqueued_slot=5))
        b.push(BacklogEntry(AVG, "old", 1, enqueued_slot=1))
        b.push(BacklogEntry(WRITE, "new", 1, enqueued_slot=3))
        assert [e.policy for e in b.drain()] == ["old", "new", "late"]
        assert len(b) == 0

    def test_nothing_vanishes(self):
        b = Backlog(capacity=4)
        evicted = []
        for i in range(10):
            victim = b.push(BacklogEntry(SENSE, f"p{i}", 1, enqueued_slot=i))
            if victim:
                evicted.append(victim)
        assert len(b) + len(evicted) == 10


class _ScanBacklog:
    """The backlog as it was before it kept eviction keys: each push past
    the capacity scans every entry once for its victim."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []

    def push(self, entry):
        entries = self.entries
        entries.append(entry)
        if len(entries) <= self.capacity:
            return None
        victim, worst = 0, entries[0]
        for i, e in enumerate(entries):
            if e.priority > worst.priority or (
                e.priority == worst.priority and e.enqueued_slot < worst.enqueued_slot
            ):
                victim, worst = i, e
        return entries.pop(victim)

    def drain(self):
        out = sorted(self.entries, key=lambda e: (e.priority, e.enqueued_slot))
        self.entries.clear()
        return out


# A push of (priority, enqueued slot), or a drain that keeps the entries its
# mask marks and assigns them back in drain order, as plan_slot does.
BACKLOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=1, max_value=3), st.integers(0, 4)),
        st.tuples(st.just("drain"), st.lists(st.booleans(), min_size=1, max_size=8)),
    ),
    max_size=80,
)


class TestBacklogEqualsScan:
    @given(st.integers(min_value=1, max_value=6), BACKLOG_OPS)
    @settings(max_examples=300)
    def test_same_victims_and_entries(self, capacity, ops):
        b, scan = Backlog(capacity=capacity), _ScanBacklog(capacity)
        for i, op in enumerate(ops):
            if op[0] == "push":
                entry = BacklogEntry(SENSE, f"p{i}", op[1], enqueued_slot=op[2])
                victim, expected = b.push(entry), scan.push(entry)
                assert victim is expected
            else:
                mask = op[1]
                for queue in (b, scan):
                    drained = queue.drain()
                    queue.entries = [e for j, e in enumerate(drained) if mask[j % len(mask)]]
            assert len(b) == len(scan.entries)
            assert all(x is y for x, y in zip(b.entries, scan.entries))

    def test_plan_slot_reassignment_keeps_the_victim_rule(self):
        # A drain too dear to run whole keeps its tail; pushes after it
        # still evict as the scan does.
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        backlog, scan = Backlog(capacity=4), _ScanBacklog(4)
        for i, priority in enumerate((2, 1, 2, 1)):
            entry = BacklogEntry(TX, f"p{i}", priority, enqueued_slot=i, packet_id=f"D-{i}")
            backlog.push(entry)
            scan.push(entry)
        p = plan(ctx, budget=900.0, backlog=backlog)
        assert 0 < len(p.backlog_run) < 4 and len(backlog) == 4 - len(p.backlog_run)
        scan.entries = [e for e in scan.drain() if e not in p.backlog_run]
        assert backlog.entries == scan.entries
        for i in range(4, 10):
            entry = BacklogEntry(SENSE, f"p{i}", 1 + i % 2, enqueued_slot=i % 3)
            assert backlog.push(entry) is scan.push(entry)
            assert backlog.entries == scan.entries


class TestExecutePlan:
    def test_empty_plan_all_zero(self):
        ctx = EnergyContext(EnergyLevel.E1, EnergyLevel.E1, EnergyLevel.E1)
        p = plan(ctx, budget=0.0)
        report, store, skipped = execute_plan(
            p, store_at(50_000.0), FLOOR
        )
        assert report.consumed_uj == 0.0
        assert report.ops_node == report.ops_network == 0
        assert skipped == []

    def test_sense_plus_transmit_charge(self):
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        pol = Policy("one", (SENSE, TX))
        p = plan(ctx, policies=[pol], budget=50_000.0)
        report, store, _ = execute_plan(
            p, store_at(50_000.0), FLOOR
        )
        assert report.consumed_uj == pytest.approx(361.30)
        assert report.ops_node == 1 and report.ops_network == 1
        assert store.stored == pytest.approx(50_000.0 - 361.30)

    def test_fresh_transmit_charged_at_plan_power(self):
        ctx = EnergyContext(EnergyLevel.E1, EnergyLevel.E3, EnergyLevel.E3)
        p = plan(ctx, policies=[Policy("one", (TX,))], tx_power_dbm=-10)
        report, _, _ = execute_plan(p, store_at(50_000.0), FLOOR)
        assert p.price[TX] == 271.0
        assert report.ops_network == 1 and report.consumed_uj == 271.0

    @pytest.mark.parametrize("power", [0, -5, -10])
    def test_drained_backlog_transmit_charged_at_slot_power(self, power):
        # A packet deferred while the node sent at another power is sent,
        # once drained, at the draining slot's power. The only policy lists
        # neither drained kind, so the slot's map alone prices them.
        backlog = Backlog()
        backlog.push(BacklogEntry(TX, "deferred-tx", 1, enqueued_slot=0, packet_id="D-0-0"))
        backlog.push(BacklogEntry(WRITE, "log", 2, enqueued_slot=1))
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        house = Policy("house", ("flash_read",))
        p = plan(ctx, policies=[house], backlog=backlog, tx_power_dbm=power)
        assert [e.packet_id for e in p.backlog_run] == ["D-0-0", None]
        assert p.steps == [("deferred-tx", TX), ("log", WRITE), ("house", "flash_read")]
        assert (p.price[TX], p.price[WRITE]) == (DEFAULT_TX_COSTS[power], 1.23)
        report, _, skipped = execute_plan(p, store_at(50_000.0), FLOOR)
        assert skipped == []
        assert report.consumed_uj == DEFAULT_TX_COSTS[power] + 1.23 + 0.30

    def test_mid_slot_abort_backlogs_rest(self):
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        pol = Policy("one", (TX, TX, TX))
        p = plan(ctx, policies=[pol], budget=50_000.0)
        # Store only covers one transmission above the floor.
        tight = EnergyStore(stored=FLOOR + 500.0, capacity=CAP)
        report, store, skipped = execute_plan(p, tight, FLOOR)
        assert report.aborted
        assert report.ops_network == 1
        assert len(skipped) == 2
        assert store.stored >= FLOOR

    def test_budget_safety(self):
        # Consumed never exceeds the granted budget plus one op cost.
        for budget in (0.0, 500.0, 2_000.0, 10_000.0, 50_000.0):
            ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
            p = plan(ctx, budget=budget)
            report, _, _ = execute_plan(p, store_at(CAP), FLOOR)
            assert report.consumed_uj <= budget + 400.0 + 1e-9

    def test_charge_log_matches_table(self):
        ctx = EnergyContext(EnergyLevel.E3, EnergyLevel.E3, EnergyLevel.E3)
        p = plan(ctx, budget=50_000.0)
        report, _, skipped = execute_plan(p, store_at(CAP), FLOOR, slot=3, node="D")
        assert p.steps and skipped == []
        assert (report.slot, report.node) == (3, "D")
        assert p.price == PRICES[0]  # exact, no tolerance
        # Paid draw by draw, in step order, at those prices.
        assert report.consumed_uj == sum(p.price[kind] for _, kind in p.steps)


class TestPolicyCost:
    def test_lp_cost_is_the_sum_of_step_prices(self):
        pol = Policy("p", (SENSE, TX, AVG), repeat=2)
        terms = plan_terms([pol], PRICES[0], False, duty_energy=10_000.0)
        assert terms.lp.costs == pytest.approx((2 * (20.30 + 341.0 + 7.056),))
        assert terms.lp.costs == (cost_of(pol, PRICES[0]),)

    def test_network_flag(self):
        assert Policy("p", (SENSE, TX)).is_network
        assert not Policy("p", (SENSE, AVG)).is_network
