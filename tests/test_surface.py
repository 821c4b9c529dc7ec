"""The program's public surface is what it uses: every public top-level
function and class in ``src/harvestsim`` is referenced by the program's own
code, not only by the tests. A name an acceptance gate alone calls is kept in
``test_reach.KEPT``, with its reason."""

import ast
import inspect
import itertools
import struct
from pathlib import Path

import harvestsim
from harvestsim import app, scenario, simcore
from harvestsim.channel import Channel
from harvestsim.routing import REFERENCE_TX_POWER_DBM, TX_POWER_BY_LEVEL
from harvestsim.scenario import parse_scenario
from harvestsim.simcore import World
from test_reach import KEPT
from test_simcore import SHIPPED_TREE, lattice_yaml

PACKAGE = Path(harvestsim.__file__).parent


def _is_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """A function registered as a CLI command (``@cli.command(...)``)."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command"
        and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "cli"
        for d in node.decorator_list
    )


def _referenced(node: ast.AST) -> set[str]:
    """The names that code under ``node`` reads, as a name or an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unused_public_definitions() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    # Each top-level statement with the names its code reads, so that a
    # definition's references to itself are told apart from everyone else's.
    statements = [(stmt, _referenced(stmt)) for tree in modules.values() for stmt in tree.body]
    unused = []
    for module, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_") or _is_command(stmt) or f"{module}.{name}" in KEPT:
                continue
            if not any(name in refs for other, refs in statements if other is not stmt):
                unused.append(f"{module}.{name}")
    return unused


class TestPublicSurface:
    def test_every_public_definition_is_used_by_the_program(self):
        assert _unused_public_definitions() == []


def _functions_where(match) -> list[str]:
    """``module.Qualified.name`` of each function in ``src/harvestsim``, once
    per node of its own body that ``match`` accepts."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if match(child):
                found.append(scope)
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _callers_of(name: str) -> list[str]:
    """Each function whose own body calls ``name``, as a plain name or an
    attribute, once per call."""

    def calls(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name

    return _functions_where(calls)


def _readers_of(name: str) -> list[str]:
    """Each function whose own body reads the plain name ``name``, once."""
    return sorted(set(_functions_where(
        lambda node: isinstance(node, ast.Name) and node.id == name
        and isinstance(node.ctx, ast.Load)
    )))


class TestOneChargePath:
    def test_withdraw_is_called_only_by_the_engine_payer(self):
        # World._charge pays every single draw through withdraw; execute_plan
        # pays a plan's operations by withdraw's comparison alone. Another
        # caller would be another charge rule.
        assert _callers_of("withdraw") == ["simcore.World._charge"]


class TestOneLevelBelief:
    def test_frames_tell_levels_where_the_engine_receives_them(self):
        # A frame tells its sender's level where the engine receives it:
        # a flood copy and a unicast exchange's delivered frame. A caller
        # elsewhere would be a second belief rule.
        assert _callers_of("hear_frame") == ["simcore.World._unicast", "simcore.World._on_rreq_rx"]


class TestOneEngineRule:
    def test_floods_are_numbered_only_where_they_are_scheduled(self):
        # A flood is built, with its sequence number, as planning schedules
        # it; a second numbering site would be a second flood start.
        assert _callers_of("next_seq") == ["simcore.World._schedule_traffic"]

    def test_one_function_applies_the_pending_queue_cap(self):
        # World._hold is the one queue-or-drop rule for blocked packets; any
        # other function that reads the cap would be a second overflow rule.
        assert _readers_of("PENDING_QUEUE_CAP") == ["simcore.World._hold"]

    def test_a_source_s_sends_are_pushed_by_one_rule(self):
        # World._send_in_slot pushes a source's own sends, a slot's planned
        # traffic and the packets a route install releases, and holds what
        # would fall past the slot's end; a relay's forward in _on_arrive is
        # the one other send. Every push names its kind as a literal, so no
        # push of a send hides behind a variable.
        def is_push(node):
            return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_push"

        kinds = [call.args[1] for path in PACKAGE.glob("*.py")
                 for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if is_push(call)]
        assert kinds and all(isinstance(kind, ast.Constant) for kind in kinds)
        assert _functions_where(lambda node: is_push(node) and node.args[1].value == "send") == [
            "simcore.World._send_in_slot", "simcore.World._on_arrive"
        ]
        # The second slot-end rule is gone.
        assert not hasattr(World, "_flush_pending") and _callers_of("_flush_pending") == []

    def test_one_function_counts_drops(self):
        # Metrics.dropped is the one drop rule and the only writer of the drop
        # counts; Metrics.summary only totals them. Any other function that
        # touches them would be a second drop rule.
        touching = sorted(set(_functions_where(
            lambda node: isinstance(node, ast.Attribute) and node.attr == "drops"
        )))
        assert touching == ["simcore.Metrics.dropped", "simcore.Metrics.summary"]


class TestOneOutputSeam:
    # The tables and counters a world reports into through a Metrics method.
    TABLES = {"slot_reports", "ledger", "forecast_rows", "book", "mac_trace", "charges",
              "route_log", "evictions", "generated", "duty_sum", "slots_run", "drops",
              "delivered"}

    def test_the_engine_writes_no_metrics_table(self):
        # A world, and run as it returns, hand each record to their metrics,
        # which alone write their tables and counters. Neither names one, so
        # no append, extend or += of theirs reaches them, directly or through
        # a local name.
        source = (PACKAGE / "simcore.py").read_text(encoding="utf-8")
        writers = [node for node in ast.parse(source).body
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                   and node.name in ("World", "run")]
        assert len(writers) == 2
        named = sorted({node.attr for writer in writers for node in ast.walk(writer)
                        if isinstance(node, ast.Attribute) and node.attr in self.TABLES})
        assert named == []

    def test_metrics_are_handed_in_not_switched_on(self):
        # The metrics a world is handed ask for the opt-in rows; no flag does.
        assert list(inspect.signature(World.__init__).parameters) == [
            "self", "cfg", "traces", "metrics"
        ]
        assert (simcore.Metrics.mac, simcore.Metrics.draw) == (None, None)
        assert not hasattr(simcore.Metrics(), "mac_trace")
        assert not hasattr(simcore.ChargeBook(None), "rows")


class TestOneConfigCheck:
    def test_the_world_refuses_a_config_by_the_parser_s_rule_set(self):
        # scenario.config_violations is the one set of rules across fields,
        # for the parser and the world alike; a rule the world called on its
        # own, or a refusal it raised itself, would be a second rule.
        source = (PACKAGE / "simcore.py").read_text(encoding="utf-8")
        world = next(node for node in ast.parse(source).body
                     if isinstance(node, ast.ClassDef) and node.name == "World")
        init = next(node for node in world.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__")
        names = _referenced(init)
        assert "config_violations" in names
        rules = {"dbm_key_violations", "node_id_violations", "duplicate_id_violations"}
        assert names & rules == set()
        raised = [node.exc for node in ast.walk(init) if isinstance(node, ast.Raise)]
        assert [exc for exc in raised if "ValueError" in _referenced(exc)] == []
        assert not hasattr(scenario, "_semantic_violations")
        assert not hasattr(scenario, "_setting")


class TestOneSettingsReading:
    def test_prices_are_built_once_per_world(self):
        # Each world builds every power's prices from its settings once;
        # another caller would be a second price table.
        assert _callers_of("price_tables") == ["simcore.World.__init__"]

    def test_levels_are_classified_only_where_a_slot_is_assessed(self):
        # Own and virtual level both go through classify_level in
        # assess_slot; a caller elsewhere would be a second level rule.
        assert set(_callers_of("classify_level")) == {"app.assess_slot"}


class TestOneHomePerRule:
    def test_only_the_duty_schedule_reads_its_period(self):
        # DutySchedule.wait_ms is the one wake test, for beacon reception and
        # unicast rendezvous alike; another reader of the period would be a
        # second wake rule.
        readers = sorted(set(_functions_where(
            lambda node: isinstance(node, ast.Attribute) and node.attr == "period_ms"
            and isinstance(node.ctx, ast.Load)
        )))
        assert readers == ["mac.DutySchedule.duty_fraction", "mac.DutySchedule.wait_ms"]

    def test_only_the_harvest_integral_converts_watt_seconds(self):
        # harvest_in_slot is the one watts-to-uJ integral, for the engine and
        # forecast-compare's series alike.
        holders = _functions_where(lambda node: isinstance(node, ast.Constant) and node.value == 1e6)
        assert holders == ["energy.harvest_in_slot"]

    def test_flood_copies_are_built_where_they_are_heard_or_started(self):
        # Rreq.heard_by extends the path record for the relay's forward and
        # the sink's candidate alike; the flood start is the only other build.
        assert _callers_of("Rreq") == ["routing.Rreq.heard_by", "simcore.World._schedule_traffic"]

    def test_an_exchange_builds_its_result_once(self):
        # csma_send returns its one result on delivery and raises it otherwise.
        assert _callers_of("SendResult") == ["mac.csma_send"]


class TestOneHomePerQuantity:
    def test_links_are_computed_only_where_an_entry_is_built(self):
        # Channel.link builds each link's one entry, its mean and its loss;
        # a call elsewhere would compute a link a second time.
        callers = {name: _callers_of(name) for name in ("rssi_at", "loss_probability")}
        assert callers == {
            "rssi_at": ["channel.Channel.link"],
            "loss_probability": ["channel.Channel.link"],
        }

    def test_one_function_spells_the_seasonal_forecast(self):
        # forecast._ahead multiplies by a seasonal index for hw_step, the
        # warm-up's end and predict_horizon alike; another product with an
        # index would be a second forecast formula.
        def index(node: ast.AST) -> bool:
            holder = getattr(node, "value", None)
            name = getattr(holder, "attr", None) or getattr(holder, "id", None)
            return isinstance(node, ast.Subscript) and name == "seasonal"

        holders = _functions_where(
            lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (index(node.left) or index(node.right))
        )
        assert holders == ["forecast._ahead"]

    def test_a_link_is_one_entry_bit_equal_both_ways(self):
        # Built from either end, a link's mean is the same bits at every
        # power, so one entry per unordered link and power serves both.
        cfg = parse_scenario(lattice_yaml(sigma_db=4.0, predictor="hw", slots=10))
        nodes = World(cfg).nodes
        powers = sorted(set(TX_POWER_BY_LEVEL.values()) | {REFERENCE_TX_POWER_DBM})
        forward, backward = (Channel(cfg.channel, nodes, cfg.seed) for _ in range(2))
        bits = struct.Struct("d").pack
        for a, b in itertools.combinations(nodes.values(), 2):
            for tx in powers:
                assert bits(forward.link(a, b, tx)[0]) == bits(backward.link(b, a, tx)[0])
                assert forward.link(b, a, tx) is forward.link(a, b, tx)
        assert len(forward._links) == len(nodes) * (len(nodes) - 1) // 2 * len(powers)


class TestOnePlanShapeBuild:
    def test_prefix_rule_is_spelled_once(self):
        # _prefix_counts alone applies floor(alpha * len + 1e-12), and only
        # plan_slot calls it and builds shapes; another site would be a
        # second prefix rule.
        holders = _functions_where(
            lambda node: isinstance(node, ast.Constant) and node.value == 1e-12
        )
        assert holders == ["app._prefix_counts"]
        assert _callers_of("_prefix_counts") == ["app.plan_slot"]
        assert _callers_of("_plan_shape") == ["app.plan_slot"]

    def test_shapes_are_built_only_on_a_memo_miss(self, monkeypatch):
        # Every build is kept, so over a run the builds equal what is retained.
        builds = []
        build = app._plan_shape

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(app, "_plan_shape", counting)
        world = World(parse_scenario(SHIPPED_TREE))
        simcore.run(world, 300)
        retained = sum(
            len(terms.shapes) for rt in world.nodes.values() for terms in rt.plan_terms.values()
        )
        assert retained > 0
        assert len(builds) == retained
