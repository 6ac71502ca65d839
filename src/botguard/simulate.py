"""Deterministic generator of labeled legitimate and bot traffic flows.

Each flow carries ground truth (legit or a bot family), a command-and-control
topology shapes the bot destinations, and a scalar feature reduces the flow
to the one-dimensional stream the detector consumes.  Generation is a pure
function of the scenario config: the same seed always yields the same trace.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OrderingError, TraceParseError
from .stream import StreamObject

BOT_CLASSES = ("irc_bot", "http_bot", "p2p_bot", "random_bot")
GROUND_TRUTH_VALUES = ("legit",) + BOT_CLASSES
PROTOCOL_TAGS = ("IRC", "HTTP", "P2P", "OTHER")
TOPOLOGIES = ("centralized", "decentralized", "hybrid")

# Published command-and-control channel shares: IRC 38.2%, HTTP 29.1%,
# P2P 2.3%, others 30.5%.  They sum to 100.1% as rounded, so we renormalize.
_RAW_MIXTURE = {
    "irc_bot": 0.382,
    "http_bot": 0.291,
    "p2p_bot": 0.023,
    "random_bot": 0.305,
}

_CLASS_PROTOCOL = {
    "irc_bot": "IRC",
    "http_bot": "HTTP",
    "p2p_bot": "P2P",
    "random_bot": "OTHER",
}

FEATURE_EPSILON = 1e-6

TRACE_FIELDS = (
    "flow_id", "timestamp", "source_ref", "dest_ref",
    "protocol_tag", "bytes_total", "duration", "ground_truth",
)


def default_mixture():
    total = sum(_RAW_MIXTURE.values())
    return {cls: w / total for cls, w in _RAW_MIXTURE.items()}


@dataclass(frozen=True)
class FlowRecord:
    """One simulated network flow with its ground-truth class."""

    flow_id: int
    timestamp: float
    source_ref: str
    dest_ref: str
    protocol_tag: str
    bytes_total: float
    duration: float
    ground_truth: str

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in TRACE_FIELDS})


@dataclass
class ScenarioConfig:
    seed: int = 0
    n_flows: int = 1000
    bot_fraction: float = 0.1
    bot_mixture: dict = field(default_factory=default_mixture)
    topology: str = "centralized"
    legit_feature_dist: tuple = (2.0, 0.2)
    bot_feature_dist: dict = field(
        default_factory=lambda: {cls: (6.0, 0.2) for cls in BOT_CLASSES}
    )
    arrival_rate: float = 5.0
    n_legit_sources: int = 40
    n_bot_sources: int = 4

    def validate(self):
        if self.n_flows < 0:
            raise ConfigurationError(f"n_flows must be >= 0, got {self.n_flows}")
        if not 0.0 <= self.bot_fraction <= 1.0:
            raise ConfigurationError(
                f"bot_fraction must be in [0, 1], got {self.bot_fraction}"
            )
        if set(self.bot_mixture) != set(BOT_CLASSES):
            raise ConfigurationError(
                f"bot_mixture must weigh exactly {BOT_CLASSES}"
            )
        if any(w < 0 for w in self.bot_mixture.values()):
            raise ConfigurationError("bot_mixture weights must be nonnegative")
        total = sum(self.bot_mixture.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"bot_mixture weights must sum to 1, got {total}"
            )
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if not self.arrival_rate > 0:
            raise ConfigurationError(
                f"arrival_rate must be > 0, got {self.arrival_rate}"
            )
        if self.n_legit_sources < 1 or self.n_bot_sources < 1:
            raise ConfigurationError("source pool sizes must be >= 1")
        for cls in BOT_CLASSES:
            if cls not in self.bot_feature_dist:
                raise ConfigurationError(f"missing bot_feature_dist for {cls}")


def generate(config: ScenarioConfig) -> list:
    """Produce ``config.n_flows`` flows, reproducible from the seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n_flows
    if n == 0:
        return []

    timestamps = np.cumsum(rng.exponential(1.0 / config.arrival_rate, n))
    is_bot = rng.random(n) < config.bot_fraction
    weights = [config.bot_mixture[cls] for cls in BOT_CLASSES]
    class_idx = rng.choice(len(BOT_CLASSES), size=n, p=weights)
    durations = rng.uniform(0.5, 4.0, n)
    legit_protocols = rng.choice(
        ["HTTP", "OTHER", "IRC"], size=n, p=[0.7, 0.2, 0.1]
    )
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
            else:  # hybrid: bots talk to relays, relays forward to command
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
            protocol = legit_protocols[i]

        feature = max(0.0, rng.normal(mean, sd))
        duration = durations[i]
        # invert the drawn feature so extract_feature reproduces it
        bytes_total = (10.0 ** feature - 1.0) * max(duration, FEATURE_EPSILON)
        flows.append(FlowRecord(
            flow_id=i,
            timestamp=float(timestamps[i]),
            source_ref=source,
            dest_ref=dest,
            protocol_tag=protocol,
            bytes_total=float(bytes_total),
            duration=float(duration),
            ground_truth=cls,
        ))
    return flows


def extract_feature(flow: FlowRecord) -> float:
    """Log throughput: log10(1 + bytes / max(duration, epsilon))."""
    return math.log10(1.0 + flow.bytes_total / max(flow.duration, FEATURE_EPSILON))


def to_stream(flows) -> list:
    """Map timestamp-ordered flows to detector stream objects."""
    objects = []
    last_t = None
    for index, flow in enumerate(flows):
        # a NaN compares false with everything, so it would pass the order check
        if not math.isfinite(flow.timestamp):
            raise OrderingError(
                f"flow {flow.flow_id} has non-finite timestamp {flow.timestamp}"
            )
        if last_t is not None and flow.timestamp < last_t:
            raise OrderingError(
                f"flow {flow.flow_id} timestamp {flow.timestamp} precedes {last_t}"
            )
        last_t = flow.timestamp
        objects.append(StreamObject(
            object_id=index,
            arrival_time=flow.timestamp,
            feature_value=extract_feature(flow),
            source_ref=flow.source_ref,
        ))
    return objects


def write_trace(flows, path):
    with open(path, "w") as fh:
        for flow in flows:
            fh.write(flow.to_json() + "\n")


def read_trace(path) -> list:
    flows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(line_no, f"invalid JSON: {exc}") from exc
            missing = [name for name in TRACE_FIELDS if name not in raw]
            if missing:
                raise TraceParseError(line_no, f"missing fields {missing}")
            if raw["ground_truth"] not in GROUND_TRUTH_VALUES:
                raise TraceParseError(
                    line_no, f"unknown ground_truth {raw['ground_truth']!r}"
                )
            try:
                flow = FlowRecord(
                    flow_id=int(raw["flow_id"]),
                    timestamp=float(raw["timestamp"]),
                    source_ref=str(raw["source_ref"]),
                    dest_ref=str(raw["dest_ref"]),
                    protocol_tag=str(raw["protocol_tag"]),
                    bytes_total=float(raw["bytes_total"]),
                    duration=float(raw["duration"]),
                    ground_truth=str(raw["ground_truth"]),
                )
            except (TypeError, ValueError) as exc:
                raise TraceParseError(line_no, str(exc)) from exc
            # extract_feature takes log10(1 + bytes_total / duration)
            if not (math.isfinite(flow.bytes_total) and flow.bytes_total >= 0):
                raise TraceParseError(
                    line_no, f"non-finite or negative bytes_total {flow.bytes_total}"
                )
            if not (math.isfinite(flow.duration) and flow.duration > 0):
                raise TraceParseError(
                    line_no, f"non-finite or non-positive duration {flow.duration}"
                )
            # replay and the detector need a finite, non-decreasing clock
            if not math.isfinite(flow.timestamp):
                raise TraceParseError(
                    line_no, f"non-finite timestamp {flow.timestamp}"
                )
            if flows and flow.timestamp < flows[-1].timestamp:
                raise TraceParseError(
                    line_no, f"timestamp {flow.timestamp} precedes "
                    f"previous timestamp {flows[-1].timestamp}"
                )
            # verdicts are joined on flow_id, so ids must be unique
            if flows and flow.flow_id <= flows[-1].flow_id:
                raise TraceParseError(
                    line_no, f"flow_id {flow.flow_id} not greater than "
                    f"previous flow_id {flows[-1].flow_id}"
                )
            flows.append(flow)
    return flows
