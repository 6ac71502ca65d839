import json
import math
import os
import stat
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botguard import (
    BOT_CLASSES, ConfigurationError, FlowRecord, OrderingError,
    ScenarioConfig, TraceParseError, default_mixture, extract_feature,
    generate, read_trace, to_stream, write_trace,
)
from botguard import simulate
from botguard.simulate import (
    _CLASS_PROTOCOL, FEATURE_EPSILON, MAX_LINE_CHARS, TOPOLOGIES, TRACE_FIELDS,
    read_json_lines,
)


def replace(record, **changes):
    """A new record of ``record``'s type, built from its fields with
    ``changes`` made; an unknown field name raises ``TypeError``."""
    names = getattr(record, "_fields", None) or record.__slots__
    return type(record)(**{**{name: getattr(record, name) for name in names},
                           **changes})


def make_flow(**kw):
    base = dict(flow_id=0, timestamp=1.0, source_ref="host-000",
                dest_ref="svc-0", protocol_tag="HTTP", bytes_total=1000.0,
                duration=2.0, ground_truth="legit")
    base.update(kw)
    return FlowRecord(**base)


class TestConfig:
    def test_default_mixture_sums_to_one(self):
        assert abs(sum(default_mixture().values()) - 1.0) < 1e-12

    def test_bad_mixture_sum_rejected(self):
        config = ScenarioConfig(bot_mixture={
            "irc_bot": 0.5, "http_bot": 0.5, "p2p_bot": 0.3, "random_bot": 0.2,
        })
        with pytest.raises(ConfigurationError):
            config.validate()

    @pytest.mark.parametrize("mixture", [
        {"irc_bot": 0.5, "http_bot": 0.5},
        {"irc_bot": 0.4, "http_bot": 0.3, "p2p_bot": 0.1, "random_bot": 0.1,
         "smtp_bot": 0.1},
        {"irc_bot": 0.4, "http_bot": 0.3, "p2p_bot": 0.1, "smtp_bot": 0.2},
    ])
    def test_mixture_of_other_classes_rejected(self, mixture):
        with pytest.raises(ConfigurationError, match="must weigh exactly"):
            ScenarioConfig(bot_mixture=mixture).validate()

    def test_negative_weight_rejected(self):
        config = ScenarioConfig(bot_mixture={
            "irc_bot": -0.1, "http_bot": 0.6, "p2p_bot": 0.3, "random_bot": 0.2,
        })
        with pytest.raises(ConfigurationError):
            config.validate()

    # math.isfinite raises OverflowError on an int beyond the float range
    @pytest.mark.parametrize("weight", [
        math.nan, math.inf, pytest.param(10 ** 400, id="int-beyond-floats")])
    def test_non_finite_weight_rejected(self, weight):
        config = ScenarioConfig(bot_mixture={
            "irc_bot": weight, "http_bot": 0.5, "p2p_bot": 0.3, "random_bot": 0.2,
        })
        with pytest.raises(ConfigurationError, match="finite"):
            config.validate()

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(topology="mesh").validate()

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(arrival_rate=0.0).validate()

    def test_missing_bot_feature_distribution_rejected(self):
        config = ScenarioConfig()
        del config.bot_feature_dist["p2p_bot"]
        with pytest.raises(ConfigurationError,
                           match="missing bot_feature_dist for p2p_bot"):
            config.validate()

    @pytest.mark.parametrize("cls", ["legit", "p2p_bot"])
    @pytest.mark.parametrize("mean, sd", [
        (math.nan, 0.2), (math.inf, 0.2), (-math.inf, 0.2),
        (2.0, -1.0), (2.0, -0.0), (2.0, math.nan), (2.0, math.inf),
        pytest.param(10 ** 400, 0.2, id="int-beyond-floats-mean"),
        pytest.param(2.0, 10 ** 400, id="int-beyond-floats-sd"),
    ])
    def test_bad_feature_distribution_rejected(self, cls, mean, sd):
        config = ScenarioConfig()
        if cls == "legit":
            config.legit_feature_dist = (mean, sd)
        else:
            config.bot_feature_dist[cls] = (mean, sd)
        with pytest.raises(ConfigurationError, match="mean|sd"):
            config.validate()

    @pytest.mark.parametrize("cls", ["legit", "p2p_bot"])
    @pytest.mark.parametrize("dist", [2.0, (2.0,), (2.0, 0.2, 1), None])
    def test_feature_distribution_that_is_no_pair_rejected(self, cls, dist):
        config = ScenarioConfig()
        if cls == "legit":
            config.legit_feature_dist = dist
        else:
            config.bot_feature_dist[cls] = dist
        key = "legit_feature" if cls == "legit" else f"bot_feature.{cls}"
        with pytest.raises(ConfigurationError, match=f"scenario.{key} must be a"):
            config.validate()

    def test_mixture_that_is_no_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario.mixture must weigh"):
            ScenarioConfig(bot_mixture=list(BOT_CLASSES)).validate()

    def test_feature_distributions_that_are_no_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario.bot_feature must be"):
            ScenarioConfig(bot_feature_dist=list(BOT_CLASSES)).validate()

    def test_rate_beyond_the_float_range_rejected(self):
        # generate's 1.0 / arrival_rate raises OverflowError on such an int
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            generate(ScenarioConfig(arrival_rate=10 ** 400))

    def test_infinite_rate_still_generates(self):
        # a float's outcome is unchanged: every flow arrives at time 0
        flows = list(generate(ScenarioConfig(n_flows=5, arrival_rate=math.inf)))
        assert [flow.timestamp for flow in flows] == [0.0] * 5


class TestGenerate:
    def test_flow_count(self):
        assert len(list(generate(ScenarioConfig(seed=1, n_flows=500)))) == 500

    def test_same_seed_identical(self):
        config = ScenarioConfig(seed=42, n_flows=300)
        assert list(generate(config)) == list(generate(config))

    def test_different_seeds_differ(self):
        a = list(generate(ScenarioConfig(seed=1, n_flows=300)))
        b = list(generate(ScenarioConfig(seed=2, n_flows=300)))
        assert a != b

    def test_no_bots_when_fraction_zero(self):
        flows = generate(ScenarioConfig(seed=1, n_flows=400, bot_fraction=0.0))
        assert all(flow.ground_truth == "legit" for flow in flows)

    def test_all_bots_when_fraction_one(self):
        flows = generate(ScenarioConfig(seed=1, n_flows=400, bot_fraction=1.0))
        assert all(flow.ground_truth in BOT_CLASSES for flow in flows)

    def test_timestamps_nondecreasing(self):
        flows = generate(ScenarioConfig(seed=3, n_flows=500))
        times = [flow.timestamp for flow in flows]
        assert times == sorted(times)

    def test_mixture_proportions_converge(self):
        flows = list(generate(ScenarioConfig(seed=5, n_flows=20_000, bot_fraction=1.0)))
        counts = Counter(flow.ground_truth for flow in flows)
        mixture = default_mixture()
        for cls in BOT_CLASSES:
            assert counts[cls] / len(flows) == pytest.approx(mixture[cls], abs=0.02)

    def test_flow_invariants(self):
        for flow in generate(ScenarioConfig(seed=7, n_flows=500, bot_fraction=0.5)):
            assert flow.bytes_total >= 0
            assert flow.duration >= 0

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_field_types_are_plain(self, topology):
        # numpy scalars would encode the same but slow every later layer
        types = {"flow_id": int, "timestamp": float, "source_ref": str,
                 "dest_ref": str, "protocol_tag": str, "bytes_total": float,
                 "duration": float, "ground_truth": str}
        config = ScenarioConfig(seed=8, n_flows=400, bot_fraction=0.5,
                                topology=topology)
        for flow in generate(config):
            for name, kind in types.items():
                assert type(getattr(flow, name)) is kind, name

    # source pools past 2**31 make 32-bit draws that are often rejected, so a
    # chunk that ended inside a buffered word would show
    @pytest.mark.parametrize("config, chunk", [
        pytest.param(ScenarioConfig(seed=21, n_flows=600, bot_fraction=0.3),
                     None, id="centralized"),
        pytest.param(ScenarioConfig(seed=22, n_flows=600, bot_fraction=0.6,
                                    topology="decentralized", n_bot_sources=9),
                     None, id="decentralized"),
        pytest.param(ScenarioConfig(seed=23, n_flows=600, bot_fraction=0.5,
                                    topology="hybrid",
                                    legit_feature_dist=(-1.0, 2.0)),
                     None, id="hybrid"),
        pytest.param(ScenarioConfig(seed=24, n_flows=300, bot_fraction=1.0,
                                    topology="hybrid",
                                    bot_feature_dist={
                                        cls: (3.0 + i, 0.5 * i)
                                        for i, cls in enumerate(BOT_CLASSES)}),
                     None, id="hybrid-all-bots"),
        pytest.param(ScenarioConfig(seed=25, n_flows=1, bot_fraction=0.0),
                     None, id="one"),
        pytest.param(ScenarioConfig(seed=29, n_flows=0), None, id="none"),
        pytest.param(ScenarioConfig(seed=26, n_flows=10_005,
                                    bot_fraction=0.4, topology="hybrid"),
                     None, id="several-chunks"),
        pytest.param(ScenarioConfig(seed=27, n_flows=600, bot_fraction=0.5,
                                    topology="decentralized",
                                    n_legit_sources=2 ** 31 + 1,
                                    n_bot_sources=2 ** 40 + 3),
                     7, id="wide-pools-chunk-7"),
        pytest.param(ScenarioConfig(seed=28, n_flows=200, bot_fraction=0.5,
                                    topology="hybrid",
                                    n_legit_sources=2 ** 31 + 1),
                     1, id="wide-pools-chunk-1"),
    ])
    def test_matches_per_flow_scalar_draws(self, monkeypatch, config, chunk):
        if chunk is not None:
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
        assert list(generate(config)) == scalar_reference(config)

    @pytest.mark.parametrize("config", [
        pytest.param(ScenarioConfig(n_flows=50, legit_feature_dist=dist),
                     id=f"dist{i}")
        for i, dist in enumerate([(400.0, 0.2), (307.9, 0.0), (2.0, 1e308)])
    ] + [
        # one bot flow, the 7142nd, and only bots overflow
        pytest.param(ScenarioConfig(seed=13, n_flows=12_288,
                                    bot_fraction=0.0002,
                                    bot_feature_dist={cls: (400.0, 0.2)
                                                      for cls in BOT_CLASSES}),
                     id="past-the-first-chunk"),
    ])
    def test_overflowing_feature_rejected(self, config):
        with pytest.raises(ConfigurationError, match="overflows"):
            generate(config)

    def test_overflowing_timestamps_rejected(self):
        with pytest.raises(ConfigurationError, match="overflows"):
            generate(ScenarioConfig(n_flows=5, arrival_rate=1e-320))


def scalar_reference(config):
    """``generate`` as it was written before its draws were vectorized: one
    scalar ``rng.normal`` call per flow, from numpy scalars."""
    rng = np.random.default_rng(config.seed)
    n = config.n_flows
    timestamps = np.cumsum(rng.exponential(1.0 / config.arrival_rate, n))
    is_bot = rng.random(n) < config.bot_fraction
    weights = [config.bot_mixture[cls] for cls in BOT_CLASSES]
    class_idx = rng.choice(len(BOT_CLASSES), size=n, p=weights)
    durations = rng.uniform(0.5, 4.0, n)
    legit_protocols = rng.choice(["HTTP", "OTHER", "IRC"], size=n,
                                 p=[0.7, 0.2, 0.1])
    legit_sources = rng.integers(config.n_legit_sources, size=n)
    bot_sources = rng.integers(config.n_bot_sources, size=n)
    legit_dests = rng.integers(5, size=n)
    peer_dests = rng.integers(max(8, 2 * config.n_bot_sources), size=n)
    relay_forward = rng.random(n) < 0.2
    flows = []
    for i in range(n):
        if is_bot[i]:
            cls = BOT_CLASSES[class_idx[i]]
            mean, sd = config.bot_feature_dist[cls]
            source = f"bot-{bot_sources[i]:03d}"
            protocol = _CLASS_PROTOCOL[cls]
            if config.topology == "centralized":
                dest = "c2-entry"
            elif config.topology == "decentralized":
                dest = f"peer-{peer_dests[i]:03d}"
            else:
                relay = f"relay-{bot_sources[i] % 3}"
                if relay_forward[i]:
                    source, dest = relay, "c2-entry"
                else:
                    dest = relay
        else:
            cls = "legit"
            mean, sd = config.legit_feature_dist
            source = f"host-{legit_sources[i]:03d}"
            dest = f"svc-{legit_dests[i]}"
            protocol = str(legit_protocols[i])
        feature = max(0.0, rng.normal(mean, sd))
        duration = durations[i]
        bytes_total = (10.0 ** feature - 1.0) * max(duration, FEATURE_EPSILON)
        flows.append(FlowRecord(i, float(timestamps[i]), source, dest, protocol,
                                float(bytes_total), float(duration), cls))
    return flows


class TestTopology:
    def bot_flows(self, topology, seed=0):
        config = ScenarioConfig(
            seed=seed, n_flows=400, bot_fraction=1.0, topology=topology,
        )
        return list(generate(config))

    def test_centralized_single_entry(self):
        dests = {flow.dest_ref for flow in self.bot_flows("centralized")}
        assert len(dests) == 1

    def test_decentralized_spreads_destinations(self):
        dests = {flow.dest_ref for flow in self.bot_flows("decentralized")}
        assert len(dests) > 1

    def test_hybrid_two_tiers(self):
        flows = self.bot_flows("hybrid")
        relays = {f.dest_ref for f in flows if f.dest_ref.startswith("relay-")}
        forwards = [f for f in flows if f.dest_ref == "c2-entry"]
        assert relays and forwards
        assert all(f.source_ref.startswith("relay-") for f in forwards)


class TestExtractFeature:
    def test_formula(self):
        flow = make_flow(bytes_total=1000.0, duration=2.0)
        assert extract_feature(flow) == pytest.approx(math.log10(501), abs=1e-9)

    def test_zero_bytes(self):
        assert extract_feature(make_flow(bytes_total=0.0)) == 0.0

    def test_zero_duration_epsilon_guard(self):
        flow = make_flow(bytes_total=1.0, duration=0.0)
        assert extract_feature(flow) == pytest.approx(math.log10(1 + 1e6), abs=1e-9)

    def test_monotone_in_bytes(self):
        values = [extract_feature(make_flow(bytes_total=float(b)))
                  for b in (0, 10, 1000, 10**6)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_generation_inverts_feature(self):
        config = ScenarioConfig(seed=11, n_flows=200, bot_fraction=0.5)
        for flow in generate(config):
            # drawn feature values round-trip through (bytes, duration)
            assert extract_feature(flow) >= 0.0


class TestFeatureSeparation:
    def test_separable_scenario_has_radius_gap(self):
        config = ScenarioConfig(seed=13, n_flows=5000, bot_fraction=0.1)
        flows = list(generate(config))
        legit = [extract_feature(f) for f in flows if f.ground_truth == "legit"]
        bots = [extract_feature(f) for f in flows if f.ground_truth != "legit"]
        assert max(legit) + 1.0 < min(bots)


class TestToStream:
    def test_empty(self):
        assert list(to_stream([])) == []

    def test_ordered_flows_keep_their_flow_ids(self):
        # the flow id is the object id, not the flow's position
        flows = [make_flow(flow_id=i, timestamp=float(t))
                 for t, i in enumerate((5, 9, 40))]
        objects = list(to_stream(flows))
        assert [o.object_id for o in objects] == [5, 9, 40]
        assert [o.arrival_time for o in objects] == [0.0, 1.0, 2.0]
        assert all(o.source_ref == "host-000" for o in objects)

    def test_unordered_rejected(self):
        flows = [make_flow(flow_id=0, timestamp=5.0),
                 make_flow(flow_id=1, timestamp=4.0)]
        with pytest.raises(OrderingError):
            list(to_stream(flows))

    def test_non_finite_timestamp_rejected(self):
        # a NaN between ordered timestamps slips past the order comparison
        # math.isfinite raises OverflowError on an int beyond the float range
        for bad in (math.nan, math.inf, 10 ** 400):
            flows = [make_flow(flow_id=0, timestamp=1.0),
                     make_flow(flow_id=1, timestamp=bad),
                     make_flow(flow_id=2, timestamp=2.0)]
            with pytest.raises(OrderingError, match="non-finite"):
                list(to_stream(flows))

    def test_huge_int_flow_id_and_timestamp_in_the_message(self):
        # more digits than an int's repr may write: named by its size
        flows = [make_flow(flow_id=10 ** 5000, timestamp=10 ** 5000)]
        with pytest.raises(OrderingError,
                           match="flow an int of 16610 bits has non-finite timestamp"):
            list(to_stream(flows))

    def test_feature_values_match_extraction(self):
        flows = list(generate(ScenarioConfig(seed=17, n_flows=100)))
        for obj, flow in zip(to_stream(flows), flows):
            assert obj.feature_value == extract_feature(flow)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        flows = list(generate(ScenarioConfig(seed=19, n_flows=150, bot_fraction=0.3)))
        path = tmp_path / "trace.jsonl"
        write_trace(flows, path)
        assert list(read_trace(path)) == flows

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        flows = generate(ScenarioConfig(seed=19, n_flows=2))
        write_trace(flows, path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(TraceParseError, match="line 3"):
            list(read_trace(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"flow_id": 0, "timestamp": 1.0}\n')
        with pytest.raises(TraceParseError, match="missing fields"):
            list(read_trace(path))

    def test_unknown_ground_truth_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        flow = make_flow()
        line = flow.to_json().replace("legit", "mystery")
        path.write_text(line + "\n")
        with pytest.raises(TraceParseError):
            list(read_trace(path))

    @pytest.mark.parametrize("line", ["5", "null", "[]", '"x"', "true", "1.5"])
    def test_line_that_is_not_an_object_rejected(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_text(make_flow().to_json() + "\n" + line + "\n")
        with pytest.raises(TraceParseError, match="line 2: expected a JSON object"):
            list(read_trace(path))

    @pytest.mark.parametrize("field, text", [
        ("flow_id", "Infinity"), ("flow_id", "1e400"), ("flow_id", "1" * 5000),
        ("bytes_total", "1" * 400), ("timestamp", "[" * 5000),
        ("flow_id", "1.9"), ("flow_id", "true"), ("flow_id", '"3"'),
    ], ids=["inf-id", "overflowing-id", "long-id", "long-bytes", "deep-nesting",
            "float-id", "bool-id", "string-id"])
    def test_hostile_number_rejected(self, tmp_path, field, text):
        line = make_flow().to_json()
        start = line.index(f'"{field}": ') + len(field) + 4
        end = line.index(",", start)
        path = tmp_path / "trace.jsonl"
        path.write_text(line[:start] + text + line[end:] + "\n")
        with pytest.raises(TraceParseError, match="line 1"):
            list(read_trace(path))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_unencodable_flow_leaves_file_unchanged(self, tmp_path, value):
        flows = list(generate(ScenarioConfig(seed=19, n_flows=20)))
        flows[7] = replace(flows[7], bytes_total=value)
        path = tmp_path / "trace.jsonl"
        path.write_text("old\n")
        with pytest.raises(ValueError):
            write_trace(flows, path)
        assert path.read_text() == "old\n"
        with pytest.raises(ValueError):
            write_trace(flows, tmp_path / "new.jsonl")
        assert not (tmp_path / "new.jsonl").exists()

    def test_interrupted_write_leaves_no_temporary_file(self, tmp_path):
        flows = list(generate(ScenarioConfig(seed=19, n_flows=20)))

        def interrupted():
            yield from flows[:5]
            raise KeyboardInterrupt

        path = tmp_path / "trace.jsonl"
        with pytest.raises(KeyboardInterrupt):
            write_trace(interrupted(), path)
        assert list(tmp_path.iterdir()) == []
        path.write_text("old\n")
        with pytest.raises(KeyboardInterrupt):
            write_trace(interrupted(), path)
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_write_through_symlink(self, tmp_path):
        flows = list(generate(ScenarioConfig(seed=19, n_flows=20)))
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n")
        link.symlink_to(target)
        write_trace(flows, link)
        assert link.is_symlink()
        assert list(read_trace(target)) == flows
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "link.jsonl", "target.jsonl"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_written_in_place(self, tmp_path):
        # a pipe cannot be replaced by a finished file: its reader gets the
        # lines as they are written
        flows = list(generate(ScenarioConfig(seed=19, n_flows=20)))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        write_trace(flows, pipe)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ["".join(flow.to_json() + "\n" for flow in flows)]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert list(tmp_path.iterdir()) == [pipe]


# -- the fixed-schema trace encoder and the line reader against json --

# any text: ASCII and control characters, non-ASCII and lone surrogates
any_text = st.text(st.characters(exclude_categories=())
                   | st.characters(categories=["Cs"])
                   | st.characters(max_codepoint=0x7f))
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308])
big_ints = st.integers() | st.sampled_from([2 ** 64, -(2 ** 63) - 1, 10 ** 40])
flows = st.builds(
    FlowRecord, flow_id=big_ints, timestamp=finite_floats, source_ref=any_text,
    dest_ref=any_text, protocol_tag=any_text, bytes_total=finite_floats,
    duration=finite_floats, ground_truth=any_text,
)


class TestTraceLineEncoding:
    @settings(max_examples=300)
    @given(flow=flows)
    def test_same_bytes_as_json_encoder(self, flow):
        fields = {name: getattr(flow, name) for name in TRACE_FIELDS}
        assert flow.to_json() == json.JSONEncoder(allow_nan=False).encode(fields)

    @pytest.mark.parametrize("field", ["timestamp", "bytes_total", "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_raises(self, field, value):
        with pytest.raises(ValueError):
            make_flow(**{field: value}).to_json()

    @pytest.mark.parametrize("field", ["timestamp", "bytes_total", "duration"])
    def test_float_subclass_written_as_the_float_it_holds(self, field):
        # json writes any float by float.__repr__, not by the subclass's repr
        class Tagged(float):
            def __repr__(self):
                return "tagged"

        flow = make_flow(**{field: Tagged(getattr(make_flow(), field))})
        fields = {name: getattr(flow, name) for name in TRACE_FIELDS}
        assert flow.to_json() == json.JSONEncoder(allow_nan=False).encode(fields)
        assert flow.to_json() == make_flow().to_json()

    @pytest.mark.parametrize("field", ["timestamp", "bytes_total", "duration"])
    # an int beyond the float range too, not by math.isfinite's OverflowError
    @pytest.mark.parametrize("value", [
        2, True, pytest.param(10 ** 400, id="int-beyond-floats")])
    def test_number_that_is_no_float_raises(self, field, value):
        with pytest.raises(TypeError):
            make_flow(**{field: value}).to_json()

    def test_int_numbers_read_as_floats(self, tmp_path):
        # a JSON integer is a number; read_trace converts it as before
        fields = {name: getattr(make_flow(), name) for name in TRACE_FIELDS}
        fields.update(timestamp=1, bytes_total=1000, duration=2)
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(fields) + "\n")
        [flow] = read_trace(path)
        assert flow == make_flow()
        assert flow.to_json() == make_flow().to_json()


json_scalars = (st.none() | st.booleans() | big_ints | st.floats() | any_text)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(any_text, inner, max_size=3),
    max_leaves=8,
)
json_objects = st.dictionaries(any_text, json_values, max_size=4)
padding = st.sampled_from(["", " ", "\t", "\xa0", "\u2028", "\x1f"])
# a line as the file reader hands it out: no line break, and no lone
# surrogate, which UTF-8 cannot hold
line_text = st.text(st.characters(exclude_categories=("Cs",),
                                  exclude_characters="\r\n"))
lines = st.tuples(padding, st.one_of(
    json_objects.map(json.dumps),
    json_values.map(json.dumps),
    st.tuples(json_objects.map(json.dumps), line_text).map("".join),
    json_objects.map(lambda value: "\ufeff" + json.dumps(value)),
    st.sampled_from(["NaN", "-Infinity", '{"a": NaN}', '{"a": 1} {"b": 2}',
                     "[" * 5000, '{"a": ' * 3000, "1" * 5000, "{", "", "5",
                     '"\\ud800"', '{"a": "\\ud800"}', "[1, 2]"]),
    line_text,
), padding).map("".join)


def json_loads_result(line):
    """What reading ``line`` gave when every line went through json.loads:
    the list of read items, or the message of the error raised.  A line of
    JSON whitespace alone is blank."""
    line = line.strip(" \t\r\n")
    if not line:
        return []
    try:
        value = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return f"line 1: invalid JSON: {exc}"
    if type(value) is not dict:
        return f"line 1: expected a JSON object, got {type(value).__name__}"
    return [(1, value)]


class TestJsonLineReader:
    @settings(max_examples=300, deadline=None)
    @given(line=lines)
    def test_reads_what_json_loads_reads(self, tmp_path_factory, line):
        path = tmp_path_factory.getbasetemp() / "lines.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            result = list(read_json_lines(path))
        except TraceParseError as exc:
            result = str(exc)
        # repr, since a NaN is not equal to itself
        assert repr(result) == repr(json_loads_result(line))

    # every character str.strip takes, but the two that end a line
    @pytest.mark.parametrize("space", [
        c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\r\n"
    ], ids=lambda c: f"U+{ord(c):04X}")
    def test_only_json_whitespace_surrounds_a_line(self, tmp_path, space):
        # json.loads skips space, tab, CR and LF around a value and refuses
        # the rest; a line of JSON whitespace alone is blank
        path = tmp_path / "lines.jsonl"
        for line in (space + '{"a": 1}' + space, space):
            path.write_text(line + "\n", encoding="utf-8")
            try:
                expected = [(1, json.loads(line))]
            except ValueError as exc:
                expected = [] if line in " \t" else f"line 1: invalid JSON: {exc}"
            try:
                result = list(read_json_lines(path))
            except TraceParseError as exc:
                result = str(exc)
            assert result == expected

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_length_cap_excludes_the_line_ending(self, tmp_path, ending):
        # a line of exactly MAX_LINE_CHARS is read, and one more character
        # is refused, whatever ends the line and at the end of the file too
        full = '{"a": 1}'.ljust(MAX_LINE_CHARS)
        path = tmp_path / "lines.jsonl"
        path.write_bytes((full + ending + full).encode())
        assert [line_no for line_no, _ in read_json_lines(path)] == [1, 2]
        for last_ending in (ending, ""):
            path.write_bytes((full + ending + full + " " + last_ending).encode())
            lines = read_json_lines(path)
            assert next(lines) == (1, {"a": 1})
            with pytest.raises(TraceParseError, match="line 2: longer than"):
                next(lines)
