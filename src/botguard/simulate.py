"""Deterministic generator of labeled legitimate and bot traffic flows.

Each flow carries ground truth (legit or a bot family), a command-and-control
topology shapes the bot destinations, and a scalar feature reduces the flow
to the one-dimensional stream the detector consumes.  Generation is a pure
function of the scenario config: the same seed always yields the same trace.

Flows stream: ``generate``, ``to_stream`` and ``read_trace`` hand out one
record at a time and ``write_trace`` writes each as it arrives, so no layer
holds a Python object per flow.
"""

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii

from .errors import ConfigurationError, OrderingError, TraceParseError
from .stream import StreamObject

BOT_CLASSES = ("irc_bot", "http_bot", "p2p_bot", "random_bot")
GROUND_TRUTH_VALUES = ("legit",) + BOT_CLASSES
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

# generate turns its numpy columns into records this many flows at a time
_CHUNK = 4096

TRACE_FIELDS = (
    "flow_id", "timestamp", "source_ref", "dest_ref",
    "protocol_tag", "bytes_total", "duration", "ground_truth",
)

# The longest trace or verdict log line that is read, in characters, its line
# ending not counted.  The lines botguard writes are about 130 to 230
# characters long; a longer line is refused before it is read whole.
MAX_LINE_CHARS = 65_536

# read_trace's bounds on the two trace fields a verdict line repeats: the
# JSON text of source_ref, quotes included, as the ASCII-escaping encoders
# write it, and the decimal digits of flow_id.  A verdict line at both bounds
# is about half of MAX_LINE_CHARS, so every log detect writes can be read.
MAX_SOURCE_REF_CHARS = 32_768
MAX_FLOW_ID_DIGITS = 100


def default_mixture():
    total = sum(_RAW_MIXTURE.values())
    return {cls: w / total for cls, w in _RAW_MIXTURE.items()}


_TRACE_KEYS = frozenset(TRACE_FIELDS)
# a JSON number in the trace is an int or a float; json reads true as a bool
_NUMBER_TYPES = (int, float)
# json.loads runs this scanner on the line once it has checked for a BOM and
# skipped surrounding whitespace
_scan_json = json.JSONDecoder().scan_once
# the calls json's C encoder writes a str, a float and an int with
_json_str = encode_basestring_ascii
_json_float = float.__repr__
_json_int = int.__repr__
_FLOW_ID_LIMIT = 10 ** MAX_FLOW_ID_DIGITS
# the escape of one character is at most 12 characters long (a surrogate
# pair), so a source_ref this short is within its bound unescaped
_SHORT_SOURCE_REF = (MAX_SOURCE_REF_CHARS - 2) // 12


@dataclass(slots=True)
class FlowRecord:
    """One simulated network flow with its ground-truth class.

    A plain record: its fields can be assigned and it is unhashable.  Not
    frozen, as a chain builds three of them per flow and a frozen one costs
    several times as much to build."""

    flow_id: int
    timestamp: float
    source_ref: str
    dest_ref: str
    protocol_tag: str
    bytes_total: float
    duration: float
    ground_truth: str

    def to_json(self) -> str:
        """The flow's trace line: the bytes ``json.dumps`` gives for a dict of
        the fields in ``TRACE_FIELDS`` order, with NaN and infinity refused
        as ``allow_nan=False`` refuses them."""
        timestamp, bytes_total, duration = (
            self.timestamp, self.bytes_total, self.duration)
        if not (math.isfinite(timestamp) and math.isfinite(bytes_total)
                and math.isfinite(duration)):
            raise ValueError(f"flow {self.flow_id}: out of range float values "
                             f"are not JSON compliant")
        return (f'{{"flow_id": {_json_int(self.flow_id)}, '
                f'"timestamp": {_json_float(timestamp)}, '
                f'"source_ref": {_json_str(self.source_ref)}, '
                f'"dest_ref": {_json_str(self.dest_ref)}, '
                f'"protocol_tag": {_json_str(self.protocol_tag)}, '
                f'"bytes_total": {_json_float(bytes_total)}, '
                f'"duration": {_json_float(duration)}, '
                f'"ground_truth": {_json_str(self.ground_truth)}}}')


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
        # numpy's generator refuses a negative seed with a bare ValueError
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
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
        # nan would pass a "< 0" test and the sum check below, and then fail
        # in numpy's draw
        if not all(math.isfinite(w) and w >= 0 for w in self.bot_mixture.values()):
            raise ConfigurationError(
                "bot_mixture weights must be finite and nonnegative, got "
                f"{self.bot_mixture}"
            )
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
        # numpy draws a source below the pool size as an int64, and a
        # decentralized peer below twice the bot pool
        if self.n_legit_sources > 2 ** 63 or self.n_bot_sources > 2 ** 62:
            raise ConfigurationError(
                "source pool sizes must be <= 2**63 (legit) and <= 2**62 (bot)"
            )
        for cls in BOT_CLASSES:
            if cls not in self.bot_feature_dist:
                raise ConfigurationError(f"missing bot_feature_dist for {cls}")
        dists = [("scenario.legit_feature", self.legit_feature_dist)]
        dists += [(f"scenario.bot_feature.{cls}", self.bot_feature_dist[cls])
                  for cls in BOT_CLASSES]
        for key, (mean, sd) in dists:
            if not math.isfinite(mean):
                raise ConfigurationError(f"{key}.mean must be finite, got {mean}")
            if not (math.isfinite(sd) and sd >= 0):
                raise ConfigurationError(
                    f"{key}.sd must be finite and >= 0, got {sd}"
                )


def generate(config: ScenarioConfig):
    """An iterator over ``config.n_flows`` flows, reproducible from the seed.

    Every random quantity is drawn as one array over all flows, in a fixed
    order, and a config that cannot give a valid trace raises here, before
    any flow is handed out.  The records are built from the arrays a chunk
    at a time as the iterator is consumed.
    """
    config.validate()
    # imported here: detect and evaluate need not pay numpy's start-up and memory
    import numpy as np
    rng = np.random.default_rng(config.seed)
    n = config.n_flows
    if n == 0:
        return iter(())

    timestamps = np.cumsum(rng.exponential(1.0 / config.arrival_rate, n))
    if not math.isfinite(timestamps[-1]):
        raise ConfigurationError(
            f"arrival_rate {config.arrival_rate} overflows the flow timestamps"
        )
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
    # one array call draws the same stream as one scalar draw per flow
    bot_dists = np.array([config.bot_feature_dist[cls] for cls in BOT_CLASSES],
                         dtype=float)
    legit_mean, legit_sd = config.legit_feature_dist
    draws = rng.normal(np.where(is_bot, bot_dists[class_idx, 0], legit_mean),
                       np.where(is_bot, bot_dists[class_idx, 1], legit_sd))

    bytes_totals = np.empty(n)
    for lo in range(0, n, _CHUNK):
        chunk = zip(draws[lo:lo + _CHUNK].tolist(),
                    durations[lo:lo + _CHUNK].tolist())
        try:
            # invert the drawn feature so extract_feature reproduces it.  This
            # is Python's float power on purpose: numpy.power differs from it
            # in the last bit on some values, which would change the trace
            # bytes.  A float64 array holds the results exactly.
            values = [(10.0 ** max(0.0, f) - 1.0) * max(d, FEATURE_EPSILON)
                      for f, d in chunk]
        except OverflowError:  # 10.0 ** f beyond the float range raises
            values = [math.inf]
        # an infinite draw, or a product beyond the float range, gives inf quietly
        if not math.isfinite(max(values)):
            raise ConfigurationError(
                "bytes_total overflows: a feature mean or sd is too large"
            )
        bytes_totals[lo:lo + _CHUNK] = values

    columns = (timestamps, is_bot, class_idx, durations, legit_protocols,
               legit_sources, bot_sources, legit_dests, peer_dests,
               relay_forward, bytes_totals)
    return _records(columns, n, config.topology)


def _records(columns, n, topology):
    """The flows of ``generate``, from its columns."""
    for lo in range(0, n, _CHUNK):
        # plain Python values from here on: numpy scalars in the records
        # would slow every later layer
        rows = zip(range(lo, min(lo + _CHUNK, n)),
                   *(column[lo:lo + _CHUNK].tolist() for column in columns))
        for (i, timestamp, is_bot, class_idx, duration, legit_protocol,
             legit_source, bot_source, legit_dest, peer_dest, relay_forward,
             bytes_total) in rows:
            if is_bot:
                cls = BOT_CLASSES[class_idx]
                source = f"bot-{bot_source:03d}"
                protocol = _CLASS_PROTOCOL[cls]
                if topology == "centralized":
                    dest = "c2-entry"
                elif topology == "decentralized":
                    dest = f"peer-{peer_dest:03d}"
                else:  # hybrid: bots talk to relays, relays forward to command
                    relay = f"relay-{bot_source % 3}"
                    if relay_forward:
                        source, dest = relay, "c2-entry"
                    else:
                        dest = relay
            else:
                cls = "legit"
                source = f"host-{legit_source:03d}"
                dest = f"svc-{legit_dest}"
                protocol = legit_protocol
            yield FlowRecord(i, timestamp, source, dest, protocol,
                             bytes_total, duration, cls)


def extract_feature(flow: FlowRecord) -> float:
    """Log throughput: log10(1 + bytes / max(duration, epsilon))."""
    return math.log10(1.0 + flow.bytes_total / max(flow.duration, FEATURE_EPSILON))


def to_stream(flows):
    """Map timestamp-ordered flows to detector stream objects, one at a time
    as the iterator is consumed.  A flow's ``flow_id`` is its object's id, so
    the detector, which takes strictly increasing ids, refuses a repeat."""
    last_t = -math.inf
    for flow in flows:
        t = flow.timestamp
        # a NaN compares false with everything, so it would pass the order check
        if not math.isfinite(t):
            raise OrderingError(f"flow {flow.flow_id} has non-finite timestamp {t}")
        if t < last_t:
            raise OrderingError(f"flow {flow.flow_id} timestamp {t} precedes {last_t}")
        last_t = t
        yield StreamObject(flow.flow_id, t, extract_feature(flow), flow.source_ref)


@contextlib.contextmanager
def atomic_output(path):
    """A text file whose content becomes the file at ``path`` when the block
    ends without an error.  It is a temporary file in ``path``'s directory
    that replaces ``path`` at the end; on any error, interrupts included, it
    is removed, so ``path`` is left as it was and never holds a partial
    line.  A symlink is written through; a device or a pipe, which cannot be
    replaced, is written in place."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        # a directory raises here
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(temporary, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def write_trace(flows, path):
    """Write one JSON line per flow, each as it is consumed from ``flows``.
    The lines go through ``atomic_output``, so a flow that cannot be encoded
    leaves the file at ``path`` as it was."""
    with atomic_output(path) as fh:
        fh.writelines(flow.to_json() + "\n" for flow in flows)


def read_json_lines(path):
    """``(line_no, object)`` for each nonblank line of the UTF-8 JSON Lines
    file at ``path``.  A line that is not UTF-8, not JSON or not a JSON object,
    or that is longer than ``MAX_LINE_CHARS``, raises ``TraceParseError``
    naming it."""
    # a byte that is not UTF-8 reads as a lone surrogate, which UTF-8 cannot
    # encode, so the line that holds it is named as it is read
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        # a line too long is refused after MAX_LINE_CHARS + 1 characters, so
        # it is never held whole
        lines = iter(partial(fh.readline, MAX_LINE_CHARS + 1), "")
        for line_no, line in enumerate(lines, start=1):
            if len(line) > MAX_LINE_CHARS and line[-1] != "\n":
                raise TraceParseError(
                    line_no, f"longer than {MAX_LINE_CHARS} characters")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise TraceParseError(line_no, "not valid UTF-8") from None
            line = line.strip()
            if not line:
                continue
            try:
                value, end = _scan_json(line, 0)
            # StopIteration, which must not leave a generator, among them
            except Exception:
                end = None
            if end != len(line):
                # not one JSON value: json.loads raises what it met
                try:
                    value = json.loads(line)
                # ValueError: an integer too long to convert; RecursionError: nesting
                except (ValueError, RecursionError) as exc:
                    raise TraceParseError(line_no, f"invalid JSON: {exc}") from exc
            if type(value) is not dict:
                raise TraceParseError(
                    line_no, f"expected a JSON object, got {type(value).__name__}"
                )
            yield line_no, value


def read_trace(path):
    """The flows of the trace at ``path``, one ``FlowRecord`` per line, read
    as the iterator is consumed.  A line that breaks the trace format, or
    whose ``source_ref`` or ``flow_id`` is over its bound, raises
    ``TraceParseError`` naming it."""
    last_t = -math.inf
    last_id = None
    for line_no, raw in read_json_lines(path):
        if not _TRACE_KEYS <= raw.keys():
            missing = [name for name in TRACE_FIELDS if name not in raw]
            raise TraceParseError(line_no, f"missing fields {missing}")
        ground_truth = raw["ground_truth"]
        if ground_truth not in GROUND_TRUTH_VALUES:
            raise TraceParseError(line_no, f"unknown ground_truth {ground_truth!r}")
        flow_id = raw["flow_id"]
        # verdicts are joined on flow_id; a bool, float or string would be
        # read as some other int id
        if type(flow_id) is not int:
            raise TraceParseError(line_no, f"flow_id {flow_id!r} is not an int")
        if not -_FLOW_ID_LIMIT < flow_id < _FLOW_ID_LIMIT:
            raise TraceParseError(
                line_no, f"flow_id has more than {MAX_FLOW_ID_DIGITS} digits")
        t, bytes_total, duration = (
            raw["timestamp"], raw["bytes_total"], raw["duration"])
        source_ref, dest_ref, protocol_tag = (
            raw["source_ref"], raw["dest_ref"], raw["protocol_tag"])
        if not (type(source_ref) is str and type(dest_ref) is str
                and type(protocol_tag) is str and type(t) in _NUMBER_TYPES
                and type(bytes_total) in _NUMBER_TYPES
                and type(duration) in _NUMBER_TYPES):
            raise TraceParseError(line_no, _type_error(raw))
        if (len(source_ref) > _SHORT_SOURCE_REF
                and len(_json_str(source_ref)) > MAX_SOURCE_REF_CHARS):
            raise TraceParseError(
                line_no, f"source_ref is longer than {MAX_SOURCE_REF_CHARS} "
                         f"characters as JSON text")
        try:
            t, bytes_total, duration = float(t), float(bytes_total), float(duration)
        # an int too large for a float
        except OverflowError as exc:
            raise TraceParseError(line_no, str(exc)) from exc
        # extract_feature takes log10(1 + bytes_total / duration)
        if not (math.isfinite(bytes_total) and bytes_total >= 0):
            raise TraceParseError(
                line_no, f"non-finite or negative bytes_total {bytes_total}"
            )
        if not (math.isfinite(duration) and duration > 0):
            raise TraceParseError(
                line_no, f"non-finite or non-positive duration {duration}"
            )
        # replay and the detector need a finite, non-decreasing clock
        if not math.isfinite(t):
            raise TraceParseError(line_no, f"non-finite timestamp {t}")
        if t < last_t:
            raise TraceParseError(
                line_no, f"timestamp {t} precedes previous timestamp {last_t}"
            )
        # verdicts are joined on flow_id, so ids must be unique
        if last_id is not None and flow_id <= last_id:
            raise TraceParseError(
                line_no, f"flow_id {flow_id} not greater than "
                f"previous flow_id {last_id}"
            )
        last_t, last_id = t, flow_id
        yield FlowRecord(flow_id, t, source_ref, dest_ref, protocol_tag,
                         bytes_total, duration, ground_truth)


def _type_error(raw):
    """What is wrong with the first number or text field of the trace line
    ``raw`` that holds a value of another JSON type."""
    for name in ("timestamp", "bytes_total", "duration"):
        if type(raw[name]) not in _NUMBER_TYPES:
            return f"{name} {raw[name]!r} is not a number"
    for name in ("source_ref", "dest_ref", "protocol_tag"):
        if type(raw[name]) is not str:
            return f"{name} {raw[name]!r} is not a string"
