import contextlib
import hashlib
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from botguard import cli, pipeline, simulate
from botguard import config as config_module
from botguard.cli import main
from botguard.config import RunConfig, build_run_config, parse_flat_config
from botguard.errors import ConfigurationError, GateError
from botguard.pipeline import CAPTCHA_ALPHABET
from botguard.simulate import (
    BOT_CLASSES, MAX_FLOW_ID_DIGITS, MAX_LINE_CHARS, MAX_SOURCE_REF_CHARS,
    TRACE_FIELDS, FlowRecord, ScenarioConfig,
)
from botguard.stream import DetectorParams

SEPARABLE_CONFIG = """
# separable end-to-end scenario
detector.radius = 1.0
detector.neighbor_threshold = 3
detector.window_span = 16.0
scenario.seed = 42
scenario.n_flows = 600
scenario.bot_fraction = 0.1
scenario.arrival_rate = 5.0
scenario.n_bot_sources = 1
scenario.n_legit_sources = 20
scenario.topology = centralized
pipeline.verify_delay = 2.0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(SEPARABLE_CONFIG)
    return str(path)


# each numeric setting is tried with these values, by name
TRIAL_VALUES = {
    "True": True, "None": None, "'2'": "2", "1j": 1j, "np.int64(2)": np.int64(2),
    "np.float64(2.0)": np.float64(2.0), "2": 2, "2.5": 2.5, "0": 0, "-0.0": -0.0,
    "-1": -1, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "10**400": 10 ** 400, "10**5000": 10 ** 5000,
}
# the names of the values each rule accepts: a count is exactly an int, a
# number an int or a float but no bool, and finite
COUNT_FROM_0 = {"2", "0", "10**400", "10**5000"}
POSITIVE = {"np.float64(2.0)", "2", "2.5"}
NONNEGATIVE = POSITIVE | {"0", "-0.0"}
RULES = {
    "detector.radius": POSITIVE,
    "detector.neighbor_threshold": COUNT_FROM_0 - {"0"},
    "detector.window_span": POSITIVE,
    "scenario.seed": COUNT_FROM_0,
    "scenario.n_flows": COUNT_FROM_0,
    "scenario.bot_fraction": {"0", "-0.0"},
    "scenario.arrival_rate": POSITIVE | {"inf"},  # inf: every flow at time 0
    "scenario.n_legit_sources": {"2"},  # at most 2**63
    "scenario.n_bot_sources": {"2"},  # at most 2**62
    "scenario.legit_feature.mean": NONNEGATIVE | {"-1"},
    "scenario.legit_feature.sd": NONNEGATIVE - {"-0.0"},
    "pipeline.verify_delay": NONNEGATIVE,
    "pipeline.captcha_ttl": POSITIVE,
}
for _cls in BOT_CLASSES:
    RULES[f"scenario.mixture.{_cls}"] = NONNEGATIVE
    RULES[f"scenario.bot_feature.{_cls}.mean"] = NONNEGATIVE | {"-1"}
    RULES[f"scenario.bot_feature.{_cls}.sd"] = NONNEGATIVE - {"-0.0"}


def check_through_record(key, value, mixture):
    """Build and check the record that holds ``key``, set to ``value``, with
    the flat ``mixture`` weights around it."""
    section, _, field = key.partition(".")
    if section == "detector":
        DetectorParams(**{field: value})
        return
    if section == "pipeline":
        RunConfig(DetectorParams(), ScenarioConfig(), **{field: value}).validate()
        return
    scenario = ScenarioConfig()
    name, _, item = field.partition(".")
    if name == "mixture":
        scenario.bot_mixture = {cls: mixture[f"scenario.mixture.{cls}"]
                                for cls in BOT_CLASSES}
        scenario.bot_mixture[item] = value
    elif name == "legit_feature":
        scenario.legit_feature_dist = (value, 0.2) if item == "mean" else (2.0, value)
    elif name == "bot_feature":
        cls, _, item = item.partition(".")
        scenario.bot_feature_dist[cls] = (value, 0.2) if item == "mean" else (6.0, value)
    else:
        setattr(scenario, field, value)
    scenario.validate()


class TestConfigParsing:
    def test_flat_keys_parse(self):
        values = parse_flat_config("detector.radius = 2.5\nscenario.seed = 7\n")
        assert values == {"detector.radius": 2.5, "scenario.seed": 7}

    def test_comments_and_blanks_ignored(self):
        values = parse_flat_config("# comment\n\ndetector.radius = 1.0  # tail\n")
        assert values == {"detector.radius": 1.0}

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="config line 2: expected 'key = value'"):
            parse_flat_config("detector.radius = 1.0\ndetector.radius 2.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_flat_config("detector.radiuss = 1.0\n")
        with pytest.raises(ConfigurationError, match="detector.radiuss"):
            build_run_config({"detector.radiuss": 1.0})

    def test_every_key_sets_its_field(self):
        # each of the 26 keys at a valid value that is not its default
        values = parse_flat_config("""
            detector.radius = 0.5
            detector.neighbor_threshold = 5
            detector.window_span = 8.0
            scenario.seed = 7
            scenario.n_flows = 250
            scenario.bot_fraction = 0.3
            scenario.topology = hybrid
            scenario.arrival_rate = 12.5
            scenario.n_legit_sources = 9
            scenario.n_bot_sources = 2
            scenario.legit_feature.mean = 2.5
            scenario.legit_feature.sd = 0.3
            scenario.mixture.irc_bot = 0.25
            scenario.mixture.http_bot = 0.25
            scenario.mixture.p2p_bot = 0.25
            scenario.mixture.random_bot = 0.25
            scenario.bot_feature.irc_bot.mean = 5.0
            scenario.bot_feature.irc_bot.sd = 0.1
            scenario.bot_feature.http_bot.mean = 5.5
            scenario.bot_feature.http_bot.sd = 0.15
            scenario.bot_feature.p2p_bot.mean = 6.5
            scenario.bot_feature.p2p_bot.sd = 0.25
            scenario.bot_feature.random_bot.mean = 7.0
            scenario.bot_feature.random_bot.sd = 0.35
            pipeline.verify_delay = 3.0
            pipeline.captcha_ttl = 60.0
        """)
        assert len(values) == 26
        assert build_run_config(values) == RunConfig(
            DetectorParams(radius=0.5, neighbor_threshold=5, window_span=8.0),
            ScenarioConfig(
                seed=7, n_flows=250, bot_fraction=0.3, topology="hybrid",
                arrival_rate=12.5, n_legit_sources=9, n_bot_sources=2,
                legit_feature_dist=(2.5, 0.3),
                bot_mixture={"irc_bot": 0.25, "http_bot": 0.25,
                             "p2p_bot": 0.25, "random_bot": 0.25},
                bot_feature_dist={"irc_bot": (5.0, 0.1), "http_bot": (5.5, 0.15),
                                  "p2p_bot": (6.5, 0.25),
                                  "random_bot": (7.0, 0.35)},
            ),
            verify_delay=3.0, captcha_ttl=60.0,
        )

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_flat_config("scenario.seed = 1\nscenario.seed = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_flat_config("scenario.seed = banana\n")

    def test_seed_override(self):
        config = build_run_config({"scenario.seed": 1}, seed_override=99)
        assert config.scenario.seed == 99

    def test_mixture_override_must_still_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            build_run_config({"scenario.mixture.irc_bot": 0.9})

    @pytest.mark.parametrize("key, name, value", [
        pytest.param("scenario.seed", "'7'", "7", id="scenario.seed-7"),
        pytest.param("detector.radius", "'1'", "1", id="detector.radius-1"),
        pytest.param("scenario.n_flows", "2.5", 2.5, id="scenario.n_flows-2.5"),
        pytest.param("scenario.n_flows", "True", True, id="scenario.n_flows-True"),
        # an int a float cannot hold
        pytest.param("scenario.arrival_rate", "10**400", 10 ** 400,
                     id=f"scenario.arrival_rate-{10 ** 400}"),
    ] + [
        pytest.param(key, name, value, id=f"{key}-{name}")
        for key in sorted(RULES) for name, value in TRIAL_VALUES.items()
        if (key, name) not in {("scenario.n_flows", "2.5"), ("scenario.n_flows", "True"),
                               ("scenario.arrival_rate", "10**400")}
    ])
    def test_value_of_the_wrong_type_rejected(self, key, name, value):
        # through the record that holds the setting and through
        # build_run_config, which casts only an int where a float goes: a
        # value its rule accepts is accepted, any other is refused by name
        mixture = {}
        if key.startswith("scenario.mixture."):
            # the other weights hold 1/3 each, so 0 sums to 1 and 2 does not
            mixture = {f"scenario.mixture.{cls}": 1 / 3 for cls in BOT_CLASSES}
        if name not in RULES[key]:
            outcome = pytest.raises(ConfigurationError, match=re.escape(key))
        elif mixture and value != 0:
            outcome = pytest.raises(ConfigurationError, match="must sum to 1")
        else:
            outcome = contextlib.nullcontext()
        with outcome:
            check_through_record(key, value, mixture)
        with outcome:
            build_run_config({**mixture, key: value})

    @pytest.mark.parametrize("name", ["verify_delay", "captcha_ttl"])
    def test_run_config_int_beyond_the_float_range_rejected(self, name):
        # build_run_config casts first; a RunConfig built in Python does not
        config = RunConfig(DetectorParams(), ScenarioConfig(), **{name: 10 ** 400})
        with pytest.raises(ConfigurationError, match=f"pipeline.{name}"):
            config.validate()

    def test_int_accepted_where_a_float_goes(self):
        # cast as a config file's value is, so the report reads 2.0, not 2
        config = build_run_config({"detector.radius": 2, "pipeline.verify_delay": 3})
        assert config.detector.radius == 2 and type(config.detector.radius) is float
        assert config.verify_delay == 3 and type(config.verify_delay) is float


class TestSimulateCommand:
    def test_writes_trace(self, tmp_path, config_file, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main(["simulate", "--config", config_file, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 600
        assert "wrote 600 flows" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path, config_file):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        main(["simulate", "--config", config_file, "--out", out1])
        main(["simulate", "--config", config_file, "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_invalid_mixture_exits_nonzero(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text(
            "scenario.mixture.irc_bot = 0.9\nscenario.mixture.http_bot = 0.6\n"
        )
        out = str(tmp_path / "trace.jsonl")
        assert main(["simulate", "--config", str(conf), "--out", out]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_path_exits_two(self, config_file, capsys):
        code = main(["simulate", "--config", config_file,
                     "--out", "/nonexistent-dir/trace.jsonl"])
        assert code == 2

    @pytest.mark.parametrize("line", [
        "scenario.legit_feature.sd = -1",
        "scenario.legit_feature.mean = 400",
        "scenario.legit_feature.mean = nan",
        "scenario.bot_feature.irc_bot.sd = inf",
        "detector.radius = inf",
        "detector.window_span = inf",
        "pipeline.verify_delay = nan",
        "pipeline.verify_delay = inf",
        # nan passed the sign and sum checks of the weights
        "scenario.mixture.irc_bot = nan",
        # numpy draws sources as int64, and peers below twice the bot pool
        f"scenario.n_legit_sources = {2 ** 63 + 1}",
        f"scenario.n_bot_sources = {2 ** 62 + 1}",
        b"scenario.seed = \xff",
    ])
    def test_bad_numeric_config_exits_one(self, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        if isinstance(line, bytes):  # not valid UTF-8
            conf.write_bytes(line + b"\n")
        else:
            conf.write_text(line + "\n")
        out = tmp_path / "trace.jsonl"
        assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()


# a JSON value of the wrong type for each text and number field of a trace line
WRONG_TYPES = [
    ("source_ref", 5), ("source_ref", None), ("dest_ref", None),
    ("dest_ref", 1.5), ("protocol_tag", ["x"]), ("protocol_tag", True),
    ("timestamp", True), ("timestamp", "1.0"), ("bytes_total", False),
    ("bytes_total", None), ("duration", True), ("duration", {"s": 1}),
]

# the first trace line's flow_id and source_ref at read_trace's bounds: each
# "é" is escaped to six characters, and the quotes take two
AT_THE_BOUNDS = {"flow_id": -(10 ** MAX_FLOW_ID_DIGITS - 1),
                 "source_ref": "é" * ((MAX_SOURCE_REF_CHARS - 2) // 6)}
# one past a bound; "é" * 12_000 is a 12 000-character field, far inside the
# line cap, whose verdict line would be 72 126 characters long
PAST_A_BOUND = [
    pytest.param("flow_id", -10 ** MAX_FLOW_ID_DIGITS, id="flow_id-negative"),
    pytest.param("flow_id", 10 ** MAX_FLOW_ID_DIGITS, id="flow_id-positive"),
    pytest.param("source_ref", AT_THE_BOUNDS["source_ref"] + "x",
                 id="source_ref-one-over"),
    pytest.param("source_ref",
                 "\U0001F600" * ((MAX_SOURCE_REF_CHARS - 2) // 12 + 1),
                 id="source_ref-surrogate-pairs"),
    pytest.param("source_ref", "é" * 12_000, id="source_ref-12000"),
]


def edit_first_trace_line(trace, values):
    """Set fields of the first line of the trace at ``trace``, written as
    UTF-8 text, as a trace from outside botguard may be."""
    lines = trace.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **values}, ensure_ascii=False)
    assert len(lines[0]) <= MAX_LINE_CHARS
    trace.write_text("".join(line + "\n" for line in lines))


class TestDetectCommand:
    def test_separable_scenario_blocks_every_bot(self, tmp_path, config_file,
                                                 capsys):
        trace = str(tmp_path / "trace.jsonl")
        verdicts = str(tmp_path / "verdicts.jsonl")
        main(["simulate", "--config", config_file, "--out", trace])
        capsys.readouterr()
        assert main(["detect", "--config", config_file,
                     "--trace", trace, "--out", verdicts]) == 0
        flows = [json.loads(line) for line in open(trace)]
        records = [json.loads(line) for line in open(verdicts)]
        # the printed counts are the log's block and fight_back lines
        out = capsys.readouterr().out
        kinds = Counter(r["verdict"] for r in records)
        assert kinds["block"] and kinds["fight_back"]
        assert f"  blocked flows: {kinds['block']}\n" in out
        assert f"  counter-probe events: {kinds['fight_back']}\n" in out
        by_link = {r["link_id"]: r["verdict"] for r in records
                   if r["verdict"] in ("allow", "block")}
        for flow in flows:
            expected = "block" if flow["ground_truth"] != "legit" else "allow"
            assert by_link[flow["flow_id"]] == expected

    def test_pure_legit_trace_has_zero_blocks(self, tmp_path):
        conf = tmp_path / "legit.conf"
        conf.write_text(
            "scenario.seed = 8\nscenario.n_flows = 500\n"
            "scenario.bot_fraction = 0.0\nscenario.arrival_rate = 5.0\n"
        )
        trace = str(tmp_path / "trace.jsonl")
        verdicts = str(tmp_path / "verdicts.jsonl")
        main(["simulate", "--config", str(conf), "--out", trace])
        main(["detect", "--config", str(conf), "--trace", trace, "--out", verdicts])
        records = [json.loads(line) for line in open(verdicts)]
        assert all(r["verdict"] == "allow" for r in records)

    def test_empty_trace(self, tmp_path, config_file):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        verdicts = str(tmp_path / "verdicts.jsonl")
        assert main(["detect", "--config", config_file,
                     "--trace", str(trace), "--out", verdicts]) == 0
        assert open(verdicts).read() == ""

    def test_negative_timestamps_run_detect_and_evaluate(self, tmp_path,
                                                        config_file):
        # the detector's window has no start time, so a trace may begin
        # before 0 like any other finite time
        trace = tmp_path / "trace.jsonl"
        simulate.write_trace((FlowRecord(i, t, "host-0", "svc-0", "HTTP", 1000.0,
                                         1.0, "legit")
                              for i, t in enumerate((-5.0, -4.0, -3.0))), str(trace))
        verdicts, report = tmp_path / "verdicts.jsonl", tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["detect", "--config", config_file,
                         "--trace", str(trace), "--out", str(verdicts)]) == 0
            assert main(["evaluate", "--config", config_file, "--trace", str(trace),
                         "--verdicts", str(verdicts), "--out", str(report)]) == 0
        records = [json.loads(line) for line in verdicts.read_text().splitlines()]
        assert {r["link_id"] for r in records} == {0, 1, 2}
        assert all(r["decided_at"] < 0 for r in records)

    def test_malformed_trace_line_exits_two(self, tmp_path, config_file, capsys):
        trace = tmp_path / "bad.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        # the first bad line in file order is named, however far ahead of it
        # the reader decodes; \r and \r\n end lines as the text reader ends them
        filler = b"        \n" * 2000  # longer than one decode chunk
        for content, line_no in ((b"{broken\n", 1), (b"\xff\xfe\n", 1),
                                 (b"{broken\r{broken\r\n\xff\n", 1),
                                 (b" \r \r\n\xff\n", 3),
                                 (b"{broken\n\xff\n", 1),
                                 (b"{broken\n" + filler + b"\xff\n", 1)):
            trace.write_bytes(content)
            assert main(["detect", "--config", config_file,
                         "--trace", str(trace), "--out", str(verdicts)]) == 2
            err = capsys.readouterr().err
            assert f"line {line_no}:" in err and "Traceback" not in err
            assert not verdicts.exists()

    def corrupt_and_detect(self, tmp_path, config_file, capsys, edit):
        """Simulate a trace, apply ``edit`` to its parsed lines, run detect
        on it and return the exit code and stderr."""
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        edit(lines)
        trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
        capsys.readouterr()
        verdicts = tmp_path / "verdicts.jsonl"
        code = main(["detect", "--config", config_file,
                     "--trace", str(trace), "--out", str(verdicts)])
        assert not verdicts.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("bytes_total", -5e6), ("bytes_total", float("inf")),
        ("duration", 0.0), ("duration", -1.0), ("duration", float("nan")),
    ])
    def test_bad_flow_measure_exits_two(self, tmp_path, config_file, capsys,
                                        field, value):
        def edit(lines):
            lines[0][field] = value

        code, err = self.corrupt_and_detect(tmp_path, config_file, capsys, edit)
        assert code == 2
        assert "line 1" in err and field in err and "Traceback" not in err

    def test_duplicate_flow_id_exits_two(self, tmp_path, config_file, capsys):
        def edit(lines):
            lines[1]["flow_id"] = lines[0]["flow_id"]

        code, err = self.corrupt_and_detect(tmp_path, config_file, capsys, edit)
        assert code == 2
        assert "line 2" in err and "flow_id" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_timestamp_exits_two(self, tmp_path, config_file, capsys,
                                            value):
        def edit(lines):
            lines[1]["timestamp"] = value

        code, err = self.corrupt_and_detect(tmp_path, config_file, capsys, edit)
        assert code == 2
        assert "line 2" in err and "timestamp" in err and "Traceback" not in err

    def test_decreasing_timestamp_exits_two(self, tmp_path, config_file, capsys):
        def edit(lines):
            lines[2]["timestamp"] = lines[1]["timestamp"] - 0.5

        code, err = self.corrupt_and_detect(tmp_path, config_file, capsys, edit)
        assert code == 2
        assert "line 3" in err and "timestamp" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", WRONG_TYPES)
    def test_wrong_field_type_exits_two(self, tmp_path, config_file, capsys,
                                        field, value):
        def edit(lines):
            lines[1][field] = value

        code, err = self.corrupt_and_detect(tmp_path, config_file, capsys, edit)
        assert code == 2
        assert "line 2" in err and field in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [5, None, [], "x"])
    def test_line_that_is_not_an_object_exits_two(self, tmp_path, config_file,
                                                   capsys, value):
        def edit(lines):
            lines[2] = value

        code, err = self.corrupt_and_detect(tmp_path, config_file, capsys, edit)
        assert code == 2
        assert "line 3" in err and "JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_trace_line_over_the_length_cap_exits_two(self, tmp_path, config_file,
                                                      capsys, extra, code):
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        lines = trace.read_text().splitlines()
        lines[1] = lines[1].ljust(MAX_LINE_CHARS + extra)
        trace.write_text("\r\n".join(lines) + "\r\n")
        capsys.readouterr()
        verdicts = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--config", config_file,
                     "--trace", str(trace), "--out", str(verdicts)]) == code
        err = capsys.readouterr().err
        if code:
            assert "line 2: longer than" in err and "Traceback" not in err
            assert not verdicts.exists()

    def test_unencodable_record_leaves_no_log(self, tmp_path, config_file,
                                              monkeypatch):
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        replay = cli.replay_flows

        def replay_with_nan(flows, pipeline):
            # the sixth record turns bad after five lines were written
            for index, record in enumerate(replay(flows, pipeline)):
                if index == 5:
                    record["decided_at"] = math.nan
                yield record

        monkeypatch.setattr(cli, "replay_flows", replay_with_nan)
        verdicts = tmp_path / "verdicts.jsonl"
        with pytest.raises(ValueError):
            main(["detect", "--config", config_file,
                  "--trace", str(trace), "--out", str(verdicts)])
        assert not verdicts.exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "run.conf", "trace.jsonl"]
        # an existing log keeps its bytes
        verdicts.write_bytes(b"old log\n")
        with pytest.raises(ValueError):
            main(["detect", "--config", config_file,
                  "--trace", str(trace), "--out", str(verdicts)])
        assert verdicts.read_bytes() == b"old log\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "run.conf", "trace.jsonl", "verdicts.jsonl"]

    def test_trace_at_the_bounds_gives_a_log_evaluate_reads(self, tmp_path,
                                                           config_file):
        assert len(encode_basestring_ascii(AT_THE_BOUNDS["source_ref"])) == \
            MAX_SOURCE_REF_CHARS
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        edit_first_trace_line(trace, AT_THE_BOUNDS)
        verdicts, report = tmp_path / "verdicts.jsonl", tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["detect", "--config", config_file,
                         "--trace", str(trace), "--out", str(verdicts)]) == 0
            assert main(["evaluate", "--config", config_file, "--trace", str(trace),
                         "--verdicts", str(verdicts), "--out", str(report)]) == 0
        records = [json.loads(line) for line in verdicts.read_text().splitlines()]
        first = [r["source_ref"] for r in records
                 if r["link_id"] == AT_THE_BOUNDS["flow_id"]]
        assert first and set(first) == {AT_THE_BOUNDS["source_ref"]}

    @pytest.mark.parametrize("field, value", PAST_A_BOUND)
    def test_trace_field_past_its_bound_exits_two(self, tmp_path, config_file,
                                                  capsys, field, value):
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        edit_first_trace_line(trace, {field: value})
        capsys.readouterr()
        verdicts = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--config", config_file,
                     "--trace", str(trace), "--out", str(verdicts)]) == 2
        err = capsys.readouterr().err
        assert f"line 1: {field}" in err and "Traceback" not in err
        assert not verdicts.exists()

    def test_source_ref_with_colon(self, tmp_path, config_file):
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {}
        for line in lines:
            line["source_ref"] = names.setdefault(
                line["source_ref"], f"10.0.0.{len(names) + 1}:443")
        assert "10.0.0.1:443" in names.values()
        trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
        verdicts = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--config", config_file,
                     "--trace", str(trace), "--out", str(verdicts)]) == 0
        records = [json.loads(line) for line in verdicts.read_text().splitlines()]
        assert {r["source_ref"] for r in records} <= set(names.values())
        assert any(r["verdict"] == "block" for r in records)

    def test_nan_feature_exits_two(self, tmp_path, config_file, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        lines = trace.read_text().splitlines()
        first = json.loads(lines[0])
        first["bytes_total"] = float("nan")
        lines[0] = json.dumps(first)
        assert '"bytes_total": NaN' in lines[0]
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        verdicts = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--config", config_file,
                     "--trace", str(trace), "--out", str(verdicts)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert not verdicts.exists()


class TestEvaluateCommand:
    def run_pipeline(self, tmp_path, config_file):
        trace = str(tmp_path / "trace.jsonl")
        verdicts = str(tmp_path / "verdicts.jsonl")
        report = str(tmp_path / "report.json")
        main(["simulate", "--config", config_file, "--out", trace])
        main(["detect", "--config", config_file, "--trace", trace, "--out", verdicts])
        code = main(["evaluate", "--config", config_file, "--trace", trace,
                     "--verdicts", verdicts, "--out", report])
        return code, trace, verdicts, report

    def evaluate_edited(self, tmp_path, config_file, capsys, edit):
        """Run the chain, let ``edit`` change the parsed verdict records and
        return the index of the record it broke, then evaluate the edited
        log.  Checks that evaluate exits 2 naming that line, with no
        traceback and no report, and returns stderr."""
        _, trace, verdicts, _ = self.run_pipeline(tmp_path, config_file)
        records = [json.loads(line) for line in
                   Path(verdicts).read_text().splitlines()]
        index = edit(records)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(record) + "\n" for record in records))
        out = tmp_path / "bad-report.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", config_file, "--trace", trace,
                     "--verdicts", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line {index + 1}:" in err and "Traceback" not in err
        assert not out.exists()
        return err

    def test_perfect_run_scores_one(self, tmp_path, config_file, capsys):
        code, _, _, report_path = self.run_pipeline(tmp_path, config_file)
        assert code == 0
        report = json.loads(open(report_path).read())
        assert report["detection_rate"] == 1.0
        assert report["false_positive_rate"] <= 0.01
        assert report["seed"] == 42
        assert "detection_rate: 1.0" in capsys.readouterr().out

    def test_mismatched_files_exit_three(self, tmp_path, config_file, capsys):
        code, trace, verdicts, _ = self.run_pipeline(tmp_path, config_file)
        assert code == 0
        short = tmp_path / "short.jsonl"
        lines = open(trace).read().splitlines()
        short.write_text("\n".join(lines[:100]) + "\n")
        out = str(tmp_path / "report2.json")
        assert main(["evaluate", "--config", config_file, "--trace", str(short),
                     "--verdicts", verdicts, "--out", out]) == 3
        assert "incomplete run" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("verdict", "maybe"), ("verdict", None),
        ("link_id", True), ("link_id", 1.0), ("link_id", "1"), ("link_id", None),
        ("evidence_ids", "not-a-list"), ("evidence_ids", None),
        ("evidence_ids", {"0": 1}), ("evidence_ids", [True]),
        ("evidence_ids", [1.5]), ("evidence_ids", ["3"]),
        ("session_id", 5), ("session_id", True), ("session_id", ["s-0000"]),
        ("decided_at", True), ("decided_at", "1.0"), ("decided_at", None),
        ("decided_at", math.nan), ("decided_at", math.inf),
    ])
    def test_bad_verdict_record_exits_two(self, tmp_path, config_file, capsys,
                                          field, value):
        def edit(records):
            # the record of flow 1, so a link_id equal to 1 would join it
            index = next(i for i, r in enumerate(records) if r["link_id"] == 1)
            records[index][field] = value
            return index
        assert field in self.evaluate_edited(tmp_path, config_file, capsys, edit)

    @pytest.mark.parametrize("field", ["decided_at", "session_id", "evidence_ids"])
    def test_missing_verdict_field_exits_two(self, tmp_path, config_file,
                                             capsys, field):
        def edit(records):
            del records[2][field]
            return 2
        assert field in self.evaluate_edited(tmp_path, config_file, capsys, edit)

    def test_block_with_empty_evidence_exits_two(self, tmp_path, config_file,
                                                 capsys):
        def edit(records):
            index = next(i for i, r in enumerate(records) if r["verdict"] == "block")
            records[index]["evidence_ids"] = []
            return index
        err = self.evaluate_edited(tmp_path, config_file, capsys, edit)
        assert "block" in err and "evidence_ids" in err

    @pytest.mark.parametrize("case", [
        "after-allow", "other-link", "before-block", "block-removed",
    ])
    def test_fight_back_not_after_its_block_exits_two(
            self, tmp_path, config_file, capsys, case):
        def edit(records):
            if case == "after-allow":
                # the first record: an allow, with nothing before it
                records[0]["verdict"] = "fight_back"
                return 0
            index = next(i for i, r in enumerate(records)
                         if r["verdict"] == "fight_back")
            if case == "other-link":
                records[index]["link_id"] += 1
                return index
            if case == "before-block":
                records[index - 1], records[index] = \
                    records[index], records[index - 1]
            else:
                # also an incomplete run: the parse error comes first
                del records[index - 1]
            return index - 1
        err = self.evaluate_edited(tmp_path, config_file, capsys, edit)
        assert "fight_back" in err

    @pytest.mark.parametrize("field, value", WRONG_TYPES)
    def test_wrong_trace_field_type_exits_two(self, tmp_path, config_file,
                                              capsys, field, value):
        _, trace, verdicts, _ = self.run_pipeline(tmp_path, config_file)
        lines = [json.loads(line) for line in Path(trace).read_text().splitlines()]
        lines[1][field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = tmp_path / "bad-report.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", config_file, "--trace", str(bad),
                     "--verdicts", verdicts, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and field in err and "Traceback" not in err
        assert not out.exists()

    # bytes are written as they are: b"\xff" is not valid UTF-8
    @pytest.mark.parametrize("value", [5, None, [], "x", b"\xff"])
    def test_verdict_line_that_is_not_an_object_exits_two(
            self, tmp_path, config_file, capsys, value):
        _, trace, verdicts, _ = self.run_pipeline(tmp_path, config_file)
        lines = Path(verdicts).read_bytes().splitlines()
        lines[3] = value if isinstance(value, bytes) else json.dumps(value).encode()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "bad-report.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", config_file, "--trace", trace,
                     "--verdicts", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        expected = "not valid UTF-8" if isinstance(value, bytes) else "JSON object"
        assert "line 4" in err and expected in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", PAST_A_BOUND)
    def test_trace_field_past_its_bound_exits_two(self, tmp_path, config_file,
                                                  capsys, field, value):
        _, trace, verdicts, _ = self.run_pipeline(tmp_path, config_file)
        edit_first_trace_line(Path(trace), {field: value})
        out = tmp_path / "bad-report.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", config_file, "--trace", trace,
                     "--verdicts", verdicts, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line 1: {field}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_verdict_line_over_the_length_cap_exits_two(
            self, tmp_path, config_file, capsys, extra, code):
        _, trace, verdicts, _ = self.run_pipeline(tmp_path, config_file)
        lines = Path(verdicts).read_text().splitlines()
        lines[3] = lines[3].ljust(MAX_LINE_CHARS + extra)
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n".join(lines) + "\n")
        out = tmp_path / "padded-report.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", config_file, "--trace", trace,
                     "--verdicts", str(padded), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert "line 4: longer than" in err and "Traceback" not in err
            assert not out.exists()

    def test_round_trip_byte_identical(self, tmp_path, config_file):
        _, trace1, verdicts1, report1 = self.run_pipeline(tmp_path, config_file)
        sub = tmp_path / "second"
        sub.mkdir()
        _, trace2, verdicts2, report2 = self.run_pipeline(sub, config_file)
        for a, b in ((trace1, trace2), (verdicts1, verdicts2), (report1, report2)):
            assert open(a, "rb").read() == open(b, "rb").read()


def listing(directory):
    return sorted(path.name for path in directory.iterdir())


class TestNegativeSeed:
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, route):
        conf = tmp_path / "run.conf"
        conf.write_text("scenario.seed = -5\n" if route == "config" else "")
        flag = ["--seed", "-1"] if route == "flag" else []
        out = tmp_path / "trace.jsonl"
        assert main(["simulate", "--config", str(conf), *flag,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "seed" in err
        assert "Traceback" not in err
        assert listing(tmp_path) == ["run.conf"]


class TestNoPartialOutput:
    """A command that fails leaves no output file and no temporary file,
    and an output file that was there keeps its bytes."""

    def test_malformed_last_trace_line(self, tmp_path, config_file, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_file, "--out", str(trace)])
        with open(trace, "a") as fh:
            fh.write("{broken\n")
        verdicts = tmp_path / "verdicts.jsonl"
        argv = ["detect", "--config", config_file, "--trace", str(trace),
                "--out", str(verdicts)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 601" in err and "Traceback" not in err
        assert listing(tmp_path) == ["run.conf", "trace.jsonl"]
        verdicts.write_bytes(b"old log\n")
        assert main(argv) == 2
        assert verdicts.read_bytes() == b"old log\n"
        assert listing(tmp_path) == ["run.conf", "trace.jsonl", "verdicts.jsonl"]

    def test_malformed_trace_line_after_the_first_block(self, tmp_path,
                                                       capsys):
        # replay reads the trace as it writes the log, so this error comes
        # after many verdict lines were written
        conf = tmp_path / "run.conf"
        conf.write_text(SEPARABLE_CONFIG.replace("n_flows = 600", "n_flows = 3000"))
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--config", str(conf), "--out", str(trace)])
        lines = trace.read_text().splitlines()
        lines[2499] = "{broken"
        trace.write_text("".join(line + "\n" for line in lines))
        verdicts = tmp_path / "verdicts.jsonl"
        argv = ["detect", "--config", str(conf), "--trace", str(trace),
                "--out", str(verdicts)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 2500" in err and "Traceback" not in err
        assert listing(tmp_path) == ["run.conf", "trace.jsonl"]
        verdicts.write_bytes(b"old log\n")
        assert main(argv) == 2
        assert verdicts.read_bytes() == b"old log\n"
        assert listing(tmp_path) == ["run.conf", "trace.jsonl", "verdicts.jsonl"]

    def test_overflowing_verification_deadline(self, tmp_path, capsys):
        # flow 1 is a candidate at 8e307, so its verification is due past
        # the float range
        conf = tmp_path / "run.conf"
        conf.write_text("pipeline.verify_delay = 1e308\n"
                        "detector.window_span = 1.5e308\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(flow.to_json() + "\n" for flow in (
            FlowRecord(0, 0.0, "bot-000", "c2-entry", "IRC", 1e6, 1.0, "irc_bot"),
            FlowRecord(1, 8e307, "bot-000", "c2-entry", "IRC", 1e6, 1.0, "irc_bot"),
            FlowRecord(2, 1e308, "host-000", "svc-0", "HTTP", 10.0, 1.0, "legit"),
        )))
        verdicts = tmp_path / "verdicts.jsonl"
        argv = ["detect", "--config", str(conf), "--trace", str(trace),
                "--out", str(verdicts)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "flow 1" in err and "not finite" in err and "Traceback" not in err
        assert listing(tmp_path) == ["run.conf", "trace.jsonl"]
        verdicts.write_bytes(b"old log\n")
        assert main(argv) == 2
        assert verdicts.read_bytes() == b"old log\n"
        assert listing(tmp_path) == ["run.conf", "trace.jsonl", "verdicts.jsonl"]

    @pytest.mark.parametrize("line", [
        "scenario.legit_feature.mean = 400",
        "scenario.arrival_rate = 1e-320",
    ], ids=["bytes", "timestamps"])
    def test_overflowing_simulate_config(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "trace.jsonl"
        argv = ["simulate", "--config", str(conf), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err
        assert listing(tmp_path) == ["run.conf"]
        out.write_bytes(b"old trace\n")
        assert main(argv) == 1
        assert out.read_bytes() == b"old trace\n"
        assert listing(tmp_path) == ["run.conf", "trace.jsonl"]

    @pytest.mark.parametrize("command", ["simulate", "detect", "evaluate"])
    def test_out_naming_a_directory_exits_two(self, tmp_path, config_file,
                                              capsys, command):
        trace, verdicts = tmp_path / "trace.jsonl", tmp_path / "verdicts.jsonl"
        common = ["--config", config_file]
        main(["simulate", *common, "--out", str(trace)])
        main(["detect", *common, "--trace", str(trace), "--out", str(verdicts)])
        inputs = {"simulate": [], "detect": ["--trace", str(trace)],
                  "evaluate": ["--trace", str(trace), "--verdicts", str(verdicts)]}
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept").write_text("kept\n")
        capsys.readouterr()
        assert main([command, *common, *inputs[command], "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert listing(tmp_path) == ["out", "run.conf", "trace.jsonl",
                                     "verdicts.jsonl"]
        assert listing(out) == ["kept"]


class TestErrorPrecedence:
    def run_pipeline(self, tmp_path, config_file):
        paths = [str(tmp_path / name) for name in ("trace.jsonl", "verdicts.jsonl")]
        main(["simulate", "--config", config_file, "--out", paths[0]])
        main(["detect", "--config", config_file, "--trace", paths[0],
              "--out", paths[1]])
        return [Path(path).read_text().splitlines() for path in paths]

    def evaluate(self, tmp_path, config_file, capsys, trace_lines, verdict_lines):
        trace, verdicts = tmp_path / "edited-trace.jsonl", tmp_path / "edited.jsonl"
        trace.write_text("\n".join(trace_lines) + "\n")
        verdicts.write_text("\n".join(verdict_lines) + "\n")
        out = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["evaluate", "--config", config_file, "--trace", str(trace),
                     "--verdicts", str(verdicts), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        return code, err

    def test_parse_error_beats_an_earlier_duplicate(self, tmp_path, config_file,
                                                    capsys):
        trace_lines, verdict_lines = self.run_pipeline(tmp_path, config_file)
        assert json.loads(verdict_lines[0])["verdict"] in ("allow", "block")
        verdict_lines[1] = verdict_lines[0]
        verdict_lines[9] = "{broken"
        code, err = self.evaluate(tmp_path, config_file, capsys,
                                  trace_lines, verdict_lines)
        assert code == 2 and "line 10" in err

    def test_bad_trace_reported_before_bad_log(self, tmp_path, config_file,
                                               capsys):
        trace_lines, verdict_lines = self.run_pipeline(tmp_path, config_file)
        trace_lines[2] = "{broken"
        verdict_lines[6] = "[]"
        code, err = self.evaluate(tmp_path, config_file, capsys,
                                  trace_lines, verdict_lines)
        assert code == 2 and "line 3" in err and "line 7" not in err

    def test_unknown_flow_reported_before_missing_verdict(self, tmp_path,
                                                          config_file, capsys):
        trace_lines, verdict_lines = self.run_pipeline(tmp_path, config_file)
        index = next(i for i, line in enumerate(verdict_lines)
                     if json.loads(line)["verdict"] == "allow")
        record = json.loads(verdict_lines[index])
        record["link_id"] = 10 ** 6
        verdict_lines[index] = json.dumps(record)
        code, err = self.evaluate(tmp_path, config_file, capsys,
                                  trace_lines, verdict_lines)
        assert code == 3 and "unknown flows: [1000000]" in err
        assert "no verdict" not in err


def test_detect_and_evaluate_memory_follows_the_window(tmp_path, monkeypatch):
    """The separable scenario keeps about 80 objects live however long the
    trace, so 8k flows may cost simulate, detect and evaluate little more
    traced memory than 1k: simulate holds a chunk of flows, detect the
    window, and evaluate about 10 bytes per flow, never a Python object per
    flow.  Both lengths are several of simulate's chunks long, so the size
    of a chunk does not count."""
    monkeypatch.setattr(simulate, "_CHUNK", 256)
    argvs = {}
    for n in (1000, 8000):
        conf = tmp_path / f"{n}.conf"
        conf.write_text(SEPARABLE_CONFIG.replace("n_flows = 600", f"n_flows = {n}"))
        common = ["--config", str(conf)]
        trace, verdicts, report = (str(tmp_path / f"{n}.{name}") for name in
                                   ("trace.jsonl", "verdicts.jsonl", "report.json"))
        argvs[n] = {
            "simulate": ["simulate", *common, "--out", trace],
            "detect": ["detect", *common, "--trace", trace, "--out", verdicts],
            "evaluate": ["evaluate", *common, "--trace", trace,
                         "--verdicts", verdicts, "--out", report],
        }
    # untraced first: lazy imports and first-call caches are not per flow
    for argv in argvs[1000].values():
        assert run_quietly(argv) == 0
    peaks = {}
    for n, commands in argvs.items():
        for command, argv in commands.items():
            tracemalloc.start()
            try:
                assert run_quietly(argv) == 0
                peaks[command, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    bounds = {"simulate": 64 * 2 ** 10, "detect": 2 * 2 ** 20,
              "evaluate": 256 * 2 ** 10}
    for command, bound in bounds.items():
        growth = peaks[command, 8000] - peaks[command, 1000]
        assert growth < bound, (command, peaks)


def test_detect_state_per_source_is_bounded(tmp_path, monkeypatch):
    """Each flow from a source of its own: per added source, ``detect`` keeps
    the source's credential entry, its admitted-set entry and its session id
    while replay runs, and no verdict text.  The KDF is stubbed, so only the
    state is measured; ``test_two_full_derivations_per_source`` pins the
    PBKDF2 work."""
    monkeypatch.setattr(pipeline, "_derive_keys",
                        lambda jobs, iterations: [bytes(32) for _ in jobs])
    argvs = {}
    for n in (5000, 10_000):
        trace = tmp_path / f"{n}.trace.jsonl"
        # a flow a second, all with one feature value: about 16 objects are
        # live, each an inlier once its neighbors arrive, so none is blocked
        simulate.write_trace((FlowRecord(i, float(i), f"host-{i:06d}", "svc-0",
                                         "HTTP", 1000.0, 1.0, "legit")
                              for i in range(n)), str(trace))
        argvs[n] = ["detect", "--trace", str(trace),
                    "--out", str(tmp_path / f"{n}.verdicts.jsonl")]
    # untraced first: lazy imports and first-call caches are not per source
    for argv in argvs.values():
        assert run_quietly(argv) == 0
    peaks = {}
    for n, argv in argvs.items():
        tracemalloc.start()
        try:
            assert run_quietly(argv) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[10_000] - peaks[5000]) / 5000 < 340, peaks


# sha256 of each output file: a change to any output byte fails here
PINNED_OUTPUTS = {
    "default": {
        "trace": "108109d8065cc0dee4f3ba1102ef12b3dd89584b0104b374bb3d07781e2e77c3",
        "verdicts": "f7e1c12c3e4c3cde8668084a38fadb12055f67b2e0a283851d99215d7a0c3197",
        "report": "d689d3f9d1256beec7e22d41c5eff6412131cfc79dd157107c60c903dc73d52f",
    },
    "separable": {
        "trace": "fdc4df01c22537649ed4952836bf4d9f230268bf89ff87a4c98ce81003f87cd5",
        "verdicts": "6369ceaa50f4765e247269a56793eb89810240178da6b0496c0cfa2cea3d4bd3",
        "report": "0b0dd70dc49949402a7d680784a9655d7bf01def271c7201eb85ac0c81cf47e1",
    },
}


# (pipeline._BLOCK, simulate.LINES_PER_WRITE): the sizes in use, then sizes
# that put a block join at every line or every few lines
BLOCK_SIZES = [(pipeline._BLOCK, simulate.LINES_PER_WRITE), (1, 1), (2, 3), (7, 1),
               (7, 3)]


@pytest.mark.parametrize("scenario, block, lines_per_write", [
    pytest.param(scenario, block, lines_per_write,
                 id=scenario if (block, lines_per_write) == BLOCK_SIZES[0]
                 else f"{scenario}-{block}-{lines_per_write}")
    for scenario in sorted(PINNED_OUTPUTS) for block, lines_per_write in BLOCK_SIZES])
def test_outputs_match_pinned_digests(tmp_path, config_file, monkeypatch, scenario,
                                      block, lines_per_write):
    """The default scenario (seed 0) and the separable one (seed 42), with
    replay's block of flows and the writers' block of lines at each size."""
    monkeypatch.setattr(pipeline, "_BLOCK", block)
    monkeypatch.setattr(simulate, "LINES_PER_WRITE", lines_per_write)
    common = ["--config", config_file] if scenario == "separable" else []
    paths = {part: str(tmp_path / part) for part in ("trace", "verdicts", "report")}
    assert main(["simulate", *common, "--out", paths["trace"]]) == 0
    assert main(["detect", *common, "--trace", paths["trace"],
                 "--out", paths["verdicts"]]) == 0
    assert main(["evaluate", *common, "--trace", paths["trace"],
                 "--verdicts", paths["verdicts"], "--out", paths["report"]]) == 0
    digests = {part: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for part, path in paths.items()}
    assert digests == PINNED_OUTPUTS[scenario]


# -- fuzzing: malformed lines end in a documented exit code, never a raise --

FUZZ_CONFIG = """
scenario.seed = 5
scenario.n_flows = 40
scenario.bot_fraction = 0.2
scenario.n_legit_sources = 3
scenario.n_bot_sources = 1
"""
FUZZ_FLOWS = 40

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["\ud800", 10 ** 400, -1e308]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
raw_lines = st.text(max_size=20) | st.sampled_from([
    "", "{", "}", "[]", "null", "5", '"x"', "NaN", "Infinity", "1" * 5000,
    "[" * 5000, '{"flow_id": 1e400}', '"\\ud800"',
])


def line_edits(fields):
    """Edits of one line, by index: set or drop a field, or replace or cut
    the line."""
    edit = st.one_of(
        st.tuples(st.just("set"), st.sampled_from(fields + ("extra",)), json_values),
        st.tuples(st.just("drop"), st.sampled_from(fields)),
        st.tuples(st.just("line"), raw_lines | json_values.map(json.dumps)),
        st.tuples(st.just("cut"), st.integers(0, 200)),
    )
    return st.lists(st.tuples(st.integers(0, FUZZ_FLOWS - 1), edit),
                    min_size=1, max_size=3)


def apply_edits(text, edits):
    lines = text.splitlines()
    for index, (kind, *args) in edits:
        if kind in ("set", "drop"):
            try:
                record = json.loads(lines[index])
            except (ValueError, RecursionError):  # an earlier edit broke it
                continue
            if not isinstance(record, dict):
                continue
            if kind == "set":
                record[args[0]] = args[1]
            else:
                record.pop(args[0], None)
            lines[index] = json.dumps(record)
        elif kind == "line":
            lines[index] = args[0]
        else:
            lines[index] = lines[index][:args[0]]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """Config, trace text and verdict-log text of one small clean run."""
    work = tmp_path_factory.mktemp("fuzz")
    conf, trace, verdicts = (str(work / name) for name in
                             ("run.conf", "trace.jsonl", "verdicts.jsonl"))
    Path(conf).write_text(FUZZ_CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", conf, "--out", trace]) == 0
        assert main(["detect", "--config", conf, "--trace", trace,
                     "--out", verdicts]) == 0
    return conf, Path(trace).read_text(), Path(verdicts).read_text()


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=line_edits(TRACE_FIELDS))
def test_detect_on_mutated_trace_exits_zero_or_two(fuzz_run, edits):
    conf, trace_text, _ = fuzz_run
    with tempfile.TemporaryDirectory() as work:
        trace, out = Path(work, "trace.jsonl"), Path(work, "verdicts.jsonl")
        trace.write_text(apply_edits(trace_text, edits))
        code = run_quietly(["detect", "--config", conf, "--trace", str(trace),
                            "--out", str(out)])
        assert code in (0, 2)
        assert out.exists() == (code == 0)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=line_edits(("verdict", "link_id", "decided_at", "evidence_ids")))
def test_evaluate_on_mutated_verdicts_exits_zero_two_or_three(fuzz_run, edits):
    conf, trace_text, verdict_text = fuzz_run
    with tempfile.TemporaryDirectory() as work:
        trace, verdicts, out = (Path(work, name) for name in
                                ("trace.jsonl", "verdicts.jsonl", "report.json"))
        trace.write_text(trace_text)
        verdicts.write_text(apply_edits(verdict_text, edits))
        code = run_quietly(["evaluate", "--config", conf, "--trace", str(trace),
                            "--verdicts", str(verdicts), "--out", str(out)])
        # 3: the log parses but does not give each flow one final verdict
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)


SRC = str(Path(cli.__file__).resolve().parents[1])


def fresh_process(*args):
    """Run a fresh interpreter with ``args``, this checkout's package first
    on its path, and return the finished process."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


class TestProcessExitCodes:
    """``python -m botguard.cli`` exits with the code ``main`` returns, one
    run per documented code."""

    def run_cli(self, *args):
        done = fresh_process("-m", "botguard.cli", *args)
        assert "Traceback" not in done.stderr
        return done

    @pytest.mark.parametrize("argv, code, err", [
        (["demo-gate"], 0, ""),
        (["simulate", "--seed", "-1", "--out", "trace.jsonl"], 1,
         "configuration error: "),
        (["detect", "--trace", "missing.jsonl", "--out", "verdicts.jsonl"], 2,
         "error: "),
    ])
    def test_exit_code(self, tmp_path, argv, code, err):
        done = self.run_cli(*(str(tmp_path / arg) if arg.endswith(".jsonl")
                              else arg for arg in argv))
        assert done.returncode == code and done.stderr.startswith(err), done.stderr

    def test_incomplete_run_exits_three(self, tmp_path):
        # one flow, and a log that names id 9, which no flow holds, twice
        trace, verdicts = tmp_path / "trace.jsonl", tmp_path / "verdicts.jsonl"
        simulate.write_trace([FlowRecord(0, 0.0, "host-000", "svc-0", "HTTP",
                                         1000.0, 1.0, "legit")], str(trace))
        verdicts.write_text("".join(
            json.dumps({"decided_at": 0.0, "session_id": None,
                        "source_ref": "host-000", "verdict": kind,
                        "evidence_ids": [0] if kind == "block" else [],
                        "link_id": link_id}) + "\n"
            for link_id, kind in [(0, "allow"), (9, "allow"), (9, "block")]))
        done = self.run_cli("evaluate", "--trace", str(trace),
                            "--verdicts", str(verdicts),
                            "--out", str(tmp_path / "report.json"))
        assert done.returncode == 3
        assert "unknown flows: [9]" in done.stderr


class TestNumpyStaysUnloaded:
    """detect, evaluate, demo-gate and the detector never call numpy, so a
    fresh process that runs one of them never loads it: numpy is most of the
    package's start-up time and memory."""

    def run_fresh(self, code, *args):
        """Run ``code`` in a fresh interpreter with ``args`` as its argv and
        return the last line it prints."""
        done = fresh_process("-c", code, *args)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_bare_import_leaves_numpy_unloaded(self):
        assert self.run_fresh(
            "import sys, botguard; print('numpy' in sys.modules)") == "False"

    def test_detector_leaves_numpy_unloaded(self):
        assert self.run_fresh(
            "import sys\n"
            "from botguard import Detector, DetectorParams, StreamObject\n"
            "d = Detector(DetectorParams(radius=1.0, neighbor_threshold=2))\n"
            "for i, v in enumerate([1.0, 1.5, 9.0, 1.2]):\n"
            "    d.insert(StreamObject(i + 1, float(i), v))\n"
            "print(d.classify(3).value, d.query_outliers(), 'numpy' in sys.modules)"
        ) == "outlier {3} False"

    @pytest.mark.parametrize("command", ["detect", "evaluate", "demo-gate"])
    def test_command_leaves_numpy_unloaded(self, tmp_path, config_file, command):
        trace, verdicts, report = (str(tmp_path / name) for name in
                                   ("trace.jsonl", "verdicts.jsonl", "report.json"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", config_file, "--out", trace]) == 0
            if command == "evaluate":
                assert main(["detect", "--config", config_file,
                             "--trace", trace, "--out", verdicts]) == 0
        argv = {
            "detect": ["--trace", trace, "--out", verdicts],
            "evaluate": ["--trace", trace, "--verdicts", verdicts, "--out", report],
            "demo-gate": [],
        }[command]
        printed = self.run_fresh(
            "import sys\n"
            "from botguard.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules)\n",
            command, "--config", config_file, *argv)
        assert printed == "0 False"



class TestCliImportStartsNoPool:
    """The KDF's thread pool is imported only when a batch needs it, since
    concurrent.futures pulls in logging; a reader or writer that imported
    either at module level would add it to every command's start-up."""

    def test_bare_cli_import_loads_no_pool_or_logging(self):
        printed = TestNumpyStaysUnloaded().run_fresh(
            "import sys, botguard.cli\n"
            "print(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()))")
        assert printed == "[]"


class TestImportsLoadOnlyWhatTheyRun:
    """The package imports a re-exported name's module on first use, and a
    module imports what only one of its paths needs on that path, so a fresh
    process compiles and runs only the layers it drives."""

    def loaded(self, code, names):
        """The ``names`` that a fresh process has loaded after ``code``."""
        return TestNumpyStaysUnloaded().run_fresh(
            f"import sys\n{code}\nprint(sorted({set(names)!r} & sys.modules.keys()))")

    def test_detector_import_loads_no_other_layer(self):
        assert self.loaded(
            "from botguard import Detector, DetectorParams, StreamObject",
            ["botguard.simulate", "botguard.pipeline", "botguard.metrics",
             "botguard.config", "hashlib", "json", "argparse"]) == "[]"

    def test_bare_cli_import_loads_no_metrics_kdf_or_parser(self):
        assert self.loaded(
            "import botguard.cli",
            ["botguard.metrics", "hashlib", "hmac", "argparse"]) == "[]"

    @pytest.mark.parametrize("code", [
        "import botguard.cli, botguard.metrics",
        "from botguard import Detector, DetectorParams, StreamObject",
    ])
    def test_records_load_no_dataclasses_or_inspect(self, code):
        # the records are slots classes and namedtuples: dataclasses would
        # bring inspect, ast and dis into every command's start-up
        assert self.loaded(code, ["dataclasses", "inspect"]) == "[]"

    def test_captcha_alphabet_is_upper_case_letters_then_digits(self):
        # written out so that pipeline need not import string; the order is
        # part of the seeded captcha codes
        assert CAPTCHA_ALPHABET == string.ascii_uppercase + string.digits


# -- every config key through a table of edge values, simulate to evaluate --

# one legit and one bot source: each detect derives about four keys
SWEEP_BASE = {"scenario.n_flows": "200", "scenario.n_legit_sources": "1",
              "scenario.n_bot_sources": "1"}
FLOAT_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1e308,
               1.0, -1.0]
INT_EDGES = [2 ** 63 - 1, -(2 ** 63), 2 ** 64, 0, 1, -1]
TEXT_EDGES = ["centralized", "decentralized", "hybrid", "ring"]


def config_edges():
    for key, caster in sorted(config_module._KEYS.items()):
        edges = {float: FLOAT_EDGES, int: INT_EDGES, str: TEXT_EDGES}[caster]
        for value in edges:
            # a trace of 2**63 flows is a size, not an edge of the parser
            if key == "scenario.n_flows" and value > 2 ** 32:
                continue
            yield key, repr(value) if caster is float else str(value)


def test_config_edges_exit_cleanly_and_write_only_finite_numbers(tmp_path):
    """Each command of the chain exits 0, or 1 with the configuration error
    message and no output file, and no output holds a NaN or an Infinity."""
    failures = []
    for case, (key, text) in enumerate(config_edges()):
        work = tmp_path / str(case)
        work.mkdir()
        conf = work / "run.conf"
        values = {**SWEEP_BASE, key: text}
        conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        common = ["--config", str(conf)]
        trace, verdicts, report = (str(work / name) for name in
                                   ("trace.jsonl", "verdicts.jsonl", "report.json"))
        chain = [
            ["simulate", *common, "--out", trace],
            ["detect", *common, "--trace", trace, "--out", verdicts],
            ["evaluate", *common, "--trace", trace, "--verdicts", verdicts,
             "--out", report],
        ]
        for argv in chain:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            out = Path(argv[-1])
            if code == 1 and err.getvalue().startswith("configuration error: ") \
                    and not out.exists():
                break
            if code != 0:
                failures.append((key, text, argv[0], code, err.getvalue()))
                break
        written = sorted(path.name for path in work.iterdir())
        if any(name.startswith(".") for name in written):
            failures.append((key, text, "left a temporary file", written))
        for name in written:
            content = (work / name).read_text()
            if "NaN" in content or "Infinity" in content:
                failures.append((key, text, name, "holds NaN or Infinity"))
    assert case > 200
    assert failures == []


# -- the same bytes from a fresh process, whatever its hash seed and pool --

CHAIN_IN_A_FRESH_PROCESS = """
import sys
from botguard import pipeline
from botguard.cli import main
workers, conf, work = int(sys.argv[1]), sys.argv[2], sys.argv[3]
# the KDF pool's size, set without touching the machine's CPU affinity
pipeline._usable_cpus = lambda: workers
common = ["--config", conf]
trace, verdicts, report = (f"{work}/{name}" for name in
                           ("trace.jsonl", "verdicts.jsonl", "report.json"))
for argv in (["simulate", *common, "--out", trace],
             ["detect", *common, "--trace", trace, "--out", verdicts],
             ["evaluate", *common, "--trace", trace, "--verdicts", verdicts,
              "--out", report]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_outputs_are_the_same_in_every_process(tmp_path, config_file):
    """The separable chain run in two fresh processes, under two hash seeds
    and with the KDF on one thread and on two, gives the pinned bytes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for hash_seed, workers in (("0", 1), ("4242", 2)):
        work = tmp_path / f"{hash_seed}-{workers}"
        work.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", CHAIN_IN_A_FRESH_PROCESS, str(workers),
             config_file, str(work)],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests = {part: hashlib.sha256((work / name).read_bytes()).hexdigest()
                   for part, name in (("trace", "trace.jsonl"),
                                      ("verdicts", "verdicts.jsonl"),
                                      ("report", "report.json"))}
        assert digests == PINNED_OUTPUTS["separable"], (hash_seed, workers)


class TestDemoGate:
    def test_transcript_order_and_outcomes(self, capsys):
        assert main(["demo-gate"]) == 0
        out = capsys.readouterr().out
        assert "wrong captcha, valid credentials: rejected_captcha" in out
        assert "valid captcha, wrong password: rejected_credentials" in out
        assert "valid captcha, unknown user: rejected_credentials" in out
        assert "valid session: admitted" in out
        assert "expired captcha accepted: False" in out
        assert "reused captcha accepted: False" in out
        assert "retry after block: rejected_blocked" in out
        # captcha rejection is printed before any credential outcome
        assert out.index("rejected_captcha") < out.index("rejected_credentials")

    def test_admitted_blocked_source_raises(self, monkeypatch):
        class IgnoresSetitem(dict):
            def __setitem__(self, source, evidence):
                pass

        build = cli.build_pipeline

        def build_with_a_blocklist_that_ignores_setitem(config):
            pipeline = build(config)
            pipeline.blocklist = IgnoresSetitem()
            return pipeline

        monkeypatch.setattr(cli, "build_pipeline",
                            build_with_a_blocklist_that_ignores_setitem)
        with pytest.raises(GateError, match="host-a"):
            main(["demo-gate"])

    @pytest.mark.parametrize("ttl", [1.0, 1e15, 1e308, sys.float_info.max])
    def test_expired_captcha_refused_at_any_finite_ttl(self, tmp_path, capsys, ttl):
        # 5.0 + ttl + 1 rounds back to ttl once ttl is large, so the stale
        # answer must come at a time whose float age is past the ttl
        conf = tmp_path / "ttl.conf"
        conf.write_text(f"pipeline.captcha_ttl = {ttl!r}\n")
        assert main(["demo-gate", "--config", str(conf)]) == 0
        assert "expired captcha accepted: False" in capsys.readouterr().out

    def test_infinite_captcha_ttl_is_a_configuration_error(self, tmp_path, capsys):
        conf = tmp_path / "ttl.conf"
        conf.write_text("pipeline.captcha_ttl = inf\n")
        assert main(["demo-gate", "--config", str(conf)]) == cli.EXIT_CONFIG
        assert "captcha_ttl must be finite" in capsys.readouterr().err


# -- the fixed-schema verdict encoder against json --

# any text: ASCII and control characters, non-ASCII and lone surrogates
any_text = st.text(st.characters(exclude_categories=())
                   | st.characters(categories=["Cs"])
                   | st.characters(max_codepoint=0x7f))
big_ints = st.integers() | st.sampled_from([2 ** 64, -(2 ** 63) - 1, 10 ** 40])
verdict_records = st.builds(
    lambda *values: dict(zip(("decided_at", "session_id", "source_ref",
                              "verdict", "evidence_ids", "link_id"), values)),
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308]),
    st.none() | any_text, any_text, any_text, st.lists(big_ints), big_ints,
)


@settings(max_examples=300)
@given(record=verdict_records)
def test_verdict_line_same_bytes_as_json_encoder(record):
    assert cli.verdict_line(record) == json.JSONEncoder(allow_nan=False).encode(record)


@pytest.mark.parametrize("source_ref", [
    AT_THE_BOUNDS["source_ref"], "\U0001F600" * ((MAX_SOURCE_REF_CHARS - 2) // 12),
    "\x00" * ((MAX_SOURCE_REF_CHARS - 2) // 6), "x" * (MAX_SOURCE_REF_CHARS - 2),
], ids=["bmp", "surrogate-pairs", "control", "ascii"])
def test_verdict_line_at_the_trace_bounds_fits_the_line_cap(source_ref):
    # the longest verdict line a trace within read_trace's bounds can give:
    # the longest float repr, a session id for 10**20 sources, and flow ids
    # of MAX_FLOW_ID_DIGITS digits and a sign
    assert len(encode_basestring_ascii(source_ref)) <= MAX_SOURCE_REF_CHARS
    flow_id = -(10 ** MAX_FLOW_ID_DIGITS - 1)
    record = {"decided_at": -1.7976931348623157e308, "session_id": "s-" + "9" * 20,
              "source_ref": source_ref, "verdict": "fight_back",
              "evidence_ids": [flow_id], "link_id": flow_id}
    assert len(cli.verdict_line(record)) <= MAX_LINE_CHARS


def test_verdict_line_writes_a_float_subclass_as_the_float_it_holds():
    class Tagged(float):
        def __repr__(self):
            return "tagged"

    record = {"decided_at": Tagged(2.5), "session_id": "s-0000",
              "source_ref": "host-000", "verdict": "allow", "evidence_ids": [],
              "link_id": 0}
    assert cli.verdict_line(record) == json.JSONEncoder(allow_nan=False).encode(record)
    assert '"decided_at": 2.5,' in cli.verdict_line(record)
    with pytest.raises(TypeError):
        cli.verdict_line({**record, "decided_at": 2})


def test_verdict_line_refuses_an_int_beyond_the_float_range():
    # as it refuses any other int, not by math.isfinite's OverflowError
    record = {"decided_at": 10 ** 400, "session_id": "s-0000",
              "source_ref": "host-000", "verdict": "allow", "evidence_ids": [],
              "link_id": 0}
    with pytest.raises(TypeError):
        cli.verdict_line(record)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_verdict_line_refuses_non_finite_time(value):
    record = {"decided_at": value, "session_id": "s-0000", "source_ref": "host-000",
              "verdict": "allow", "evidence_ids": [], "link_id": 0}
    with pytest.raises(ValueError):
        cli.verdict_line(record)
