import gc
import json
import math
import random
import struct
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
import yaml

import synth_oracle
from test_simcore import lattice_yaml
from harvestsim import bounds, scenario, simcore
from harvestsim.energy import SlotOutOfRange
from harvestsim.scenario import (
    SCENARIO_SCHEMA,
    NegativePower,
    ParseError,
    ProfileSpec,
    SchemaError,
    build_profile_trace,
    config_hash,
    load_trace,
    parse_scenario,
    serialize_scenario,
    synth_trace,
    trace_to_csv,
)

MINIMAL = """
name: two-node
profiles:
  sun: {kind: constant, power_w: 0.001}
nodes:
  - {id: A, role: sink, position: [0.0, 0.0]}
  - {id: D, role: source, position: [10.0, 0.0], profile: sun}
policies:
  source:
    - {name: report, ops: [sense, tx128]}
"""


class TestParse:
    def test_minimal_parses_with_defaults(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.slot_duration_s == 60.0
        assert cfg.energy.capacity_uj == 100_000.0
        assert cfg.routing.mode == "modified"
        assert cfg.predictor.kind == "hw"
        assert len(cfg.nodes) == 2

    def test_two_sinks_rejected_with_names(self):
        text = MINIMAL.replace("id: D, role: source", "id: D, role: sink")
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert any("sink" in v for v in err.value.violations)
        assert any("A" in v and "D" in v for v in err.value.violations)

    def test_all_violations_reported_at_once(self):
        text = """
name: broken
energy: {capacity_uj: -5}
routing: {mode: sideways}
nodes:
  - {id: A, role: sink}
  - {id: A, role: sink}
  - {id: D, role: source, profile: missing}
"""
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        v = "\n".join(err.value.violations)
        assert "capacity_uj" in v
        assert "mode" in v
        assert "duplicate" in v
        assert "missing" in v
        assert len(err.value.violations) >= 4

    def test_co_located_nodes_rejected_with_both_ids(self):
        # Path loss is undefined at distance zero; a missing position means
        # (0, 0), the sink's spot here.
        text = MINIMAL.replace(", position: [10.0, 0.0]", "")
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert [v for v in err.value.violations if "position" in v] == [
            "nodes: ['A', 'D'] share position [0.0, 0.0]"
        ]

    def test_threshold_order_reported_with_other_violations(self):
        text = MINIMAL + "energy: {thresholds: [0.70, 0.40, 0.10]}\nrouting: {mode: sideways}\n"
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        v = err.value.violations
        assert "energy/thresholds: must be strictly ascending" in v
        assert any(x.startswith("routing/mode:") for x in v)

    @pytest.mark.parametrize("thresholds", ["[0.7, 0.4]", "[0.7, x, 0.1]", "{a: 1}"])
    def test_malformed_thresholds_left_to_the_schema(self, thresholds):
        with pytest.raises(SchemaError) as err:
            parse_scenario(MINIMAL + f"energy: {{thresholds: {thresholds}}}\n")
        v = err.value.violations
        assert v and all(x.startswith("energy/thresholds") for x in v)
        assert "energy/thresholds: must be strictly ascending" not in v

    def test_tx_cost_power_must_be_an_integer(self):
        text = MINIMAL + "costs: {tx128: {high: 300, -5: 304.0, '0': 341.0}}\n"
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert err.value.violations == ["costs/tx128: power 'high' is not an integer dBm"]
        cfg = parse_scenario(text.replace("high: 300, ", ""))
        assert cfg.costs == {"tx128": {-5: 304.0, 0: 341.0}}

    SUN_PROFILES = "profiles:\n  sun: {kind: constant, power_w: 0.001}"

    @pytest.mark.parametrize(
        "text, section",
        [
            ("name: x\nnodes: [1]\n", "nodes"),
            ("name: x\nnodes: 5\n", "nodes"),
            (MINIMAL.replace(SUN_PROFILES, "profiles: 3"), "profiles"),
            (MINIMAL.replace(SUN_PROFILES, "profiles: {sun: 3}"), "profiles"),
        ],
        ids=["node-not-a-mapping", "nodes-not-a-list", "profiles-not-a-mapping",
             "profile-not-a-mapping"],
    )
    def test_sections_the_schema_rejects_are_not_checked_again(self, text, section):
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        v = err.value.violations
        assert v and all(x.startswith(section) for x in v)

    @pytest.mark.parametrize(
        "profile", ["period_slots: 2", "period_slots: 24, day_fraction: 0.04"]
    )
    def test_synthetic_day_without_daylight_rejected(self, profile):
        text = MINIMAL.replace(
            self.SUN_PROFILES, f"profiles:\n  sun: {{kind: synthetic, {profile}}}"
        )
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert [v.split(":")[0] for v in err.value.violations] == ["profiles[sun]"]
        # Just past the bound, the profile parses.
        parse_scenario(text.replace("period_slots: 2", "period_slots: 3").replace(
            "day_fraction: 0.04", "day_fraction: 0.05"))

    def test_frozen_seasonal_weights_parse(self):
        # PredictorSettings takes beta = gamma = 0 (a frozen ring and trend).
        cfg = parse_scenario(MINIMAL + "predictor: {beta: 0, gamma: 0}\n")
        assert (cfg.predictor.beta, cfg.predictor.gamma) == (0, 0)
        with pytest.raises(SchemaError) as err:
            parse_scenario(MINIMAL + "predictor: {beta: 1, gamma: 1}\n")
        assert [v.split(":")[0] for v in err.value.violations] == [
            "predictor/beta", "predictor/gamma"
        ]

    def test_whole_day_of_daylight_parses_and_runs(self):
        # day_fraction 1: the half-sine spans the whole period, from sunrise to sunrise.
        text = MINIMAL.replace(
            "sun: {kind: constant, power_w: 0.001}",
            "sun: {kind: synthetic, amplitude_w: 0.004, period_slots: 4, day_fraction: 1.0}",
        )
        cfg = parse_scenario(text)
        assert cfg.profiles["sun"].day_fraction == 1.0
        powers = build_profile_trace(cfg.profiles["sun"], 8, "sun").powers
        assert powers[0] == powers[4] == 0.0
        assert all(p > 0.0 for p in powers[1:4] + powers[5:8])
        metrics = simcore.run(simcore.World(cfg), 8)
        assert metrics.slots_run == 8
        assert metrics.generated > 0

    def test_non_finite_numbers_reported_with_their_paths(self):
        # Lists are walked too; the sections holding one are not checked again.
        text = MINIMAL.replace("position: [10.0, 0.0]", "position: [.inf, 0.0]").replace(
            "power_w: 0.001", "power_w: .nan"
        )
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert err.value.violations == [
            "profiles/sun/power_w: nan is not a finite number",
            "nodes/1/position/0: inf is not a finite number",
        ]

    def test_unknown_keys_rejected(self):
        text = MINIMAL + "\ntypo_key: 1\n"
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert any("typo_key" in v for v in err.value.violations)

    def test_nested_unknown_keys_rejected(self):
        text = MINIMAL.replace(
            "slot_duration_s", "slot_duration_s"
        ) + "\nmac: {warp_speed: 9}\n"
        with pytest.raises(SchemaError):
            parse_scenario(text)

    def test_non_sink_needs_profile(self):
        text = """
name: x
nodes:
  - {id: A, role: sink}
  - {id: D, role: source}
"""
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert any("profile" in v for v in err.value.violations)

    def test_per_slot_work_cap_is_inclusive(self):
        cap = bounds.MAX_EVENTS_PER_NODE_SLOT
        at_cap = MINIMAL + f"slot_duration_s: {float(cap)}\ntraffic: {{packet_period_s: 1.0}}\n"
        assert parse_scenario(at_cap).slot_duration_s == cap
        with pytest.raises(SchemaError) as err:
            parse_scenario(at_cap.replace("packet_period_s: 1.0", "packet_period_s: 0.999"))
        assert err.value.violations == [
            f"slot_duration_s / traffic/packet_period_s: 10010 per node-slot exceeds {cap}"
        ]

    @pytest.mark.parametrize(
        "extra, section",
        [("slot_duration_s: 0.0\n", "slot_duration_s"),
         ("routing: {beacon_period_s: 0.0}\n", "routing"),
         ("traffic: {packet_period_s: .nan}\n", "traffic")],
        ids=["slot-duration-zero", "beacon-period-zero", "packet-period-nan"],
    )
    def test_per_slot_work_cap_skips_rejected_fields(self, extra, section):
        with pytest.raises(SchemaError) as err:
            parse_scenario(MINIMAL + extra)
        assert [v.split("/")[0].split(":")[0] for v in err.value.violations] == [section]

    @pytest.mark.parametrize(
        "old, new, violation",
        [
            ("slots: 2000", "slots: 10.0", "slots: 10.0 is not of type 'integer'"),
            ("seed: 11", "seed: 7.0", "seed: 7.0 is not of type 'integer'"),
            ("repeat: 6,", "repeat: 6.0,", "policies/source/0/repeat: 6.0 is not of type 'integer'"),
        ],
        ids=["slots", "seed", "repeat"],
    )
    def test_integer_fields_take_integers_only(self, old, new, violation):
        # JSON Schema's integer admits 6.0; a float slot count fails in
        # synth_trace and a float seed keys every stream "7.0:...".
        assert TREE.count(old) == 1
        with pytest.raises(SchemaError) as err:
            parse_scenario(TREE.replace(old, new))
        assert err.value.violations == [violation]

    def test_int_key_beside_str_key_sorts(self):
        # Violations sort by path; 0 and 'high' are not comparable themselves.
        with pytest.raises(SchemaError) as err:
            parse_scenario(MINIMAL + "costs: {tx128: {0: -1.0, high: -2.0}}\n")
        assert err.value.violations == [
            "costs/tx128/0: -1.0 is less than or equal to the minimum of 0",
            "costs/tx128/high: -2.0 is less than or equal to the minimum of 0",
            "costs/tx128: power 'high' is not an integer dBm",
        ]
        text = MINIMAL.replace(self.SUN_PROFILES, "profiles:\n  sun: {kind: x}\n  7: {kind: y}")
        with pytest.raises(SchemaError) as err:
            parse_scenario(text)
        assert [v.split(":")[0] for v in err.value.violations] == ["profiles/7/kind",
                                                                   "profiles/sun/kind"]

    def test_not_yaml(self):
        # Unclosed flows, a tab-indented key and a control character.
        for text in ["{{{{", "nodes: [", "a:\n\tb: 1\n", "a: \x07"]:
            with pytest.raises(SchemaError) as exc:
                parse_scenario(text)
            assert exc.value.violations[0].startswith("not valid YAML: "), text


TREE = resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()

# YAML 1.1 scalars whose resolution a different parser could change.
SCALARS = """\
octal_1_2: 0o17
octal_1_1: 017
underscored: 1_000
leading_dot: .5
no_dot_exponent: 1e3
dot_exponent: 1.0e+3
hex: 0x1F
sexagesimal: 1:30
bools: [yes, No, on, OFF, true]
nulls: [~, null, ]
date: 2002-12-14
timestamp: 2001-12-14t21:59:43.10-05:00
infinities: [.inf, -.Inf]
nan: .nan
unicode: café
quoted: "caf\\xE9 \\u2026"
"""


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestLoader:
    """The production loader (libyaml) builds the pure-Python loader's document."""

    @staticmethod
    def both(text):
        return yaml.load(text, Loader=scenario._LOADER), yaml.load(text, Loader=yaml.SafeLoader)

    def test_loader_is_libyaml(self):
        assert scenario._LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("sigma_db", [0.0, 4.0])
    @pytest.mark.parametrize("predictor", ["ewma", "hw"])
    def test_lattice_documents_match(self, sigma_db, predictor):
        fast, ref = self.both(lattice_yaml(sigma_db=sigma_db, predictor=predictor, slots=60))
        assert fast == ref
        assert repr(fast) == repr(ref)

    def test_tree_document_matches(self):
        fast, ref = self.both(TREE)
        assert fast == ref
        assert repr(fast) == repr(ref)

    def test_yaml11_scalars_match(self):
        fast, ref = self.both(SCALARS)
        # repr tells 1 from 1.0 from True from "1", and prints NaN, which no
        # NaN equals; the rest compare equal as well.
        assert repr(fast) == repr(ref)
        assert math.isnan(fast.pop("nan")) and math.isnan(ref.pop("nan"))
        assert fast == ref


class TestSchema:
    def test_generated_schema_is_pinned_and_valid(self):
        # Built from the settings dataclasses' field metadata; the frozen copy
        # is the hand-written schema it replaced.
        frozen = json.loads((Path(__file__).parent / "scenario_schema.json").read_text())
        assert SCENARIO_SCHEMA == frozen
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        cfg = parse_scenario(MINIMAL)
        again = parse_scenario(serialize_scenario(cfg))
        assert again == cfg

    def test_full_scenario_round_trip(self, tmp_path):
        from importlib import resources

        text = (
            resources.files("harvestsim")
            .joinpath("scenarios/four_node_tree.yaml")
            .read_text()
        )
        cfg = parse_scenario(text)
        again = parse_scenario(serialize_scenario(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_hash_changes_with_content(self):
        a = parse_scenario(MINIMAL)
        b = parse_scenario(MINIMAL.replace("two-node", "other"))
        assert config_hash(a) != config_hash(b)


class TestLoadTrace:
    def test_empty_data_section(self):
        with pytest.raises(ParseError):
            load_trace("slot,power_watts\n")

    def test_three_rows(self):
        trace = load_trace("slot,power_watts\n0,0.001\n1,0.002\n2,0.0\n")
        assert len(trace) == 3
        assert trace.power_at(1) == 0.002

    def test_negative_power_names_line(self):
        with pytest.raises(NegativePower) as err:
            load_trace("slot,power_watts\n0,0.001\n1,-1\n")
        assert "line 3" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_trace("time,watts\n0,1\n")

    def test_out_of_order_slots(self):
        with pytest.raises(ParseError) as err:
            load_trace("slot,power_watts\n0,0.1\n2,0.1\n")
        assert "line 3" in str(err.value)

    def test_scale_applied_lazily(self):
        from harvestsim.energy import harvest_in_slot

        trace = load_trace("slot,power_watts\n0,0.002\n", scale=0.5)
        assert trace.powers[0] == 0.002
        assert harvest_in_slot(trace, 0, 60.0) == pytest.approx(60_000.0)

    def test_round_trip_csv(self):
        trace = load_trace("slot,power_watts\n5,0.001\n6,0.25\n")
        again = load_trace(trace_to_csv(trace))
        assert again.powers == trace.powers
        assert again.start_slot == 5


class TestBuildProfileTrace:
    def test_unreadable_csv_names_profile_and_path(self, tmp_path):
        path = tmp_path / "does_not_exist.csv"
        with pytest.raises(ParseError) as err:
            build_profile_trace(ProfileSpec(kind="csv", path=str(path)), 2, "sun")
        assert str(err.value).startswith(f"profile sun: cannot read {str(path)!r}")

    def test_csv_profile_leaves_no_file_open(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("slot,power_watts\n0,0.001\n1,0.002\n", encoding="utf-8")
        spec = ProfileSpec(kind="csv", path=str(path), scale=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            trace = build_profile_trace(spec, 2, "sun")
            gc.collect()
        assert (trace.powers, trace.scale) == ((0.001, 0.002), 0.5)
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestSynthTrace:
    def test_zero_amplitude_all_zero(self):
        spec = ProfileSpec(amplitude_w=0.0)
        trace = synth_trace(spec, 100)
        assert all(p == 0.0 for p in trace.powers)

    def test_exact_periodicity_without_switching(self):
        spec = ProfileSpec(
            amplitude_w=0.001, period_slots=24, switch_probability=0.0, trend_per_day=0.0
        )
        trace = synth_trace(spec, 24 * 5)
        for t in range(24, len(trace)):
            assert trace.powers[t] == pytest.approx(trace.powers[t - 24])

    def test_deterministic_per_seed(self):
        spec = ProfileSpec(switch_probability=0.5, seed=9)
        assert synth_trace(spec, 200).powers == synth_trace(spec, 200).powers

    def test_cloudy_fraction_matches_probability(self):
        # mean cloudy-day fraction over 100 seeds ~ switch probability
        fractions = []
        for seed in range(100):
            spec = ProfileSpec(
                amplitude_w=0.001, period_slots=24, switch_probability=0.3, seed=seed
            )
            trace = synth_trace(spec, 24 * 30)
            cloudy_days = 0
            for day in range(30):
                peak = max(trace.powers[day * 24 : (day + 1) * 24])
                if peak < 0.001 * 0.9:
                    cloudy_days += 1
            fractions.append(cloudy_days / 30)
        mean = sum(fractions) / len(fractions)
        assert abs(mean - 0.3) <= 0.05

    def test_nights_are_dark(self):
        spec = ProfileSpec(amplitude_w=0.001, period_slots=24, day_fraction=0.5)
        trace = synth_trace(spec, 48)
        assert all(p == 0.0 for p in trace.powers[12:24])

    def test_powers_never_negative_with_negative_trend(self):
        spec = ProfileSpec(
            amplitude_w=0.001, period_slots=24, trend_per_day=-0.2, switch_probability=0.0
        )
        trace = synth_trace(spec, 24 * 10)
        assert all(p >= 0.0 for p in trace.powers)

    @pytest.mark.parametrize("period, fraction", [(2, 0.5), (24, 0.04), (10, 0.1)])
    def test_at_most_one_daylight_slot_rejected(self, period, fraction):
        # The half-sine would be sampled only at sunrise: an all-zero trace.
        spec = ProfileSpec(amplitude_w=0.001, period_slots=period, day_fraction=fraction)
        with pytest.raises(ValueError):
            synth_trace(spec, 4 * period)

    def test_three_slot_day_has_daylight(self):
        spec = ProfileSpec(amplitude_w=0.001, period_slots=3, switch_probability=0.0)
        assert synth_trace(spec, 3).powers[1] > 0.0

    def test_slot_bound(self):
        spec = ProfileSpec()
        trace = synth_trace(spec, 10)
        with pytest.raises(SlotOutOfRange):
            trace.power_at(10)
        with pytest.raises(ValueError):
            synth_trace(spec, 0)


def _synth_specs(n: int):
    """Seeded profiles around the edges of the day shape: short and odd
    periods, daylight just over one slot, falling trends that cross zero,
    and runs shorter than a period or not a whole number of them."""
    rng = random.Random(2014)
    for k in range(n):
        period = rng.randint(3, 50)
        edge = (1 + rng.choice([1e-9, 1e-3, 0.5, 1.0])) / period
        day_fraction = min(1.0, rng.choice([edge, rng.uniform(edge, 1.0), 1.0]))
        spec = ProfileSpec(
            amplitude_w=rng.choice([0.0, 1e-4, rng.uniform(0.0, 0.01)]),
            period_slots=period,
            day_fraction=day_fraction,
            cloudy_attenuation=rng.choice([0.0, 0.35, rng.random()]),
            switch_probability=rng.choice([0.0, 0.3, 1.0, rng.random()]),
            trend_per_day=rng.choice([0.0, -0.5, -rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.3)]),
            seed=k,
        )
        n_slots = rng.choice([rng.randint(1, period - 1), rng.randint(period + 1, 6 * period)])
        yield spec, n_slots


class TestSynthTraceOracle:
    """``synth_trace`` against the slot-by-slot loop, bit for bit."""

    @staticmethod
    def bits(powers):
        return [struct.pack("d", p) for p in powers]

    def test_samples_match_bit_for_bit(self):
        negative_zeros = 0
        for spec, n_slots in _synth_specs(300):
            expected = synth_oracle.synth_powers(spec, n_slots)
            got = synth_trace(spec, n_slots).powers
            assert self.bits(got) == self.bits(expected), (spec, n_slots)
            negative_zeros += sum(math.copysign(1.0, p) < 0 for p in expected)
        # The corpus reaches the clip, where -0.0 and 0.0 differ only in bits.
        assert negative_zeros > 0
