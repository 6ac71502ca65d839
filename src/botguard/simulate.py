"""Deterministic generator of labeled legitimate and bot traffic flows.

Each flow carries ground truth (legit or a bot family), a command-and-control
topology shapes the bot destinations, and a scalar feature reduces the flow
to the one-dimensional stream the detector consumes.  Generation is a pure
function of the scenario config: the same seed always yields the same trace.

Flows stream: ``generate``, ``to_stream`` and ``read_trace`` hand out one
record at a time and ``write_lines`` writes a block of lines with each call,
so no layer holds a Python object per flow.
"""

import contextlib
import json
import math
import os
from collections import Counter
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .errors import ConfigurationError, OrderingError, TraceParseError
from .stream import (
    Record, StreamObject, check_count, check_number, is_finite, shown,
)

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

# the legit flows' destinations; a flow draws one by its index
_SERVICES = ("svc-0", "svc-1", "svc-2", "svc-3", "svc-4")

_CLASS_PROTOCOL = {
    "irc_bot": "IRC",
    "http_bot": "HTTP",
    "p2p_bot": "P2P",
    "random_bot": "OTHER",
}

FEATURE_EPSILON = 1e-6

# generate draws its numpy columns, and builds records from them, this many
# flows at a time
_CHUNK = 2048

# the trace and verdict log writers write this many lines with one call
LINES_PER_WRITE = 64

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


# a JSON number in the trace is an int or a float; json reads true as a bool
_NUMBER_TYPES = (int, float)
# json.loads runs this scanner on the line once it has checked for a BOM and
# skipped surrounding whitespace
_scan_json = json.JSONDecoder().scan_once
# the calls json's C encoder writes a str and an int with
_json_str = encode_basestring_ascii
_json_int = int.__repr__
# json writes a float by float.__repr__, which an f-string's !r conversion is
# on an exact float; a float subclass is first taken as the float it holds,
# and a value that is no float raises TypeError, as float.__repr__ does
_exact_float = float.__float__
_FLOW_ID_LIMIT = 10 ** MAX_FLOW_ID_DIGITS
# the escape of one character is at most 12 characters long (a surrogate
# pair), so a source_ref this short is within its bound unescaped
_SHORT_SOURCE_REF = (MAX_SOURCE_REF_CHARS - 2) // 12


class FlowRecord(Record):
    """One simulated network flow with its ground-truth class.

    A plain record: its fields can be assigned and it is unhashable."""

    __slots__ = ("flow_id", "timestamp", "source_ref", "dest_ref", "protocol_tag",
                 "bytes_total", "duration", "ground_truth")

    def __init__(self, flow_id, timestamp, source_ref, dest_ref, protocol_tag,
                 bytes_total, duration, ground_truth):
        self.flow_id = flow_id
        self.timestamp = timestamp
        self.source_ref = source_ref
        self.dest_ref = dest_ref
        self.protocol_tag = protocol_tag
        self.bytes_total = bytes_total
        self.duration = duration
        self.ground_truth = ground_truth

    def to_json(self) -> str:
        """The flow's trace line: the bytes ``json.dumps`` gives for a dict of
        the fields in ``TRACE_FIELDS`` order, with NaN and infinity refused
        as ``allow_nan=False`` refuses them."""
        timestamp, bytes_total, duration = (
            self.timestamp, self.bytes_total, self.duration)
        # first, so that an int beyond the float range raises TypeError as
        # any int does, not OverflowError from math.isfinite
        if not type(timestamp) is type(bytes_total) is type(duration) is float:
            timestamp, bytes_total, duration = (
                _exact_float(timestamp), _exact_float(bytes_total),
                _exact_float(duration))
        if not (math.isfinite(timestamp) and math.isfinite(bytes_total)
                and math.isfinite(duration)):
            raise ValueError(f"flow {self.flow_id}: out of range float values "
                             f"are not JSON compliant")
        return (f'{{"flow_id": {_json_int(self.flow_id)}, '
                f'"timestamp": {timestamp!r}, '
                f'"source_ref": {_json_str(self.source_ref)}, '
                f'"dest_ref": {_json_str(self.dest_ref)}, '
                f'"protocol_tag": {_json_str(self.protocol_tag)}, '
                f'"bytes_total": {bytes_total!r}, '
                f'"duration": {duration!r}, '
                f'"ground_truth": {_json_str(self.ground_truth)}}}')


# a trace line's fields, in the order to_json writes them
TRACE_FIELDS = FlowRecord.__slots__


class ScenarioConfig(Record):
    __slots__ = ("seed", "n_flows", "bot_fraction", "bot_mixture", "topology",
                 "legit_feature_dist", "bot_feature_dist", "arrival_rate",
                 "n_legit_sources", "n_bot_sources")

    def __init__(self, seed=0, n_flows=1000, bot_fraction=0.1, bot_mixture=None,
                 topology="centralized", legit_feature_dist=(2.0, 0.2),
                 bot_feature_dist=None, arrival_rate=5.0, n_legit_sources=40,
                 n_bot_sources=4):
        # each config gets dicts of its own
        if bot_mixture is None:
            bot_mixture = default_mixture()
        if bot_feature_dist is None:
            bot_feature_dist = {cls: (6.0, 0.2) for cls in BOT_CLASSES}
        self.seed, self.n_flows, self.bot_fraction = seed, n_flows, bot_fraction
        self.bot_mixture, self.topology = bot_mixture, topology
        self.legit_feature_dist = legit_feature_dist
        self.bot_feature_dist, self.arrival_rate = bot_feature_dist, arrival_rate
        self.n_legit_sources, self.n_bot_sources = n_legit_sources, n_bot_sources

    def validate(self):
        # numpy's generator refuses a negative seed with a bare ValueError
        check_count("scenario.seed", self.seed, 0)
        check_count("scenario.n_flows", self.n_flows, 0)
        check_number("scenario.bot_fraction", self.bot_fraction, 0, 1)
        if (not isinstance(self.bot_mixture, dict)
                or set(self.bot_mixture) != set(BOT_CLASSES)):
            raise ConfigurationError(
                f"scenario.mixture must weigh exactly {BOT_CLASSES}"
            )
        for cls, weight in self.bot_mixture.items():
            check_number(f"scenario.mixture.{cls}", weight, 0)
        total = sum(self.bot_mixture.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"scenario.mixture weights must sum to 1, got {total}"
            )
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(f"scenario.topology must be one of "
                                     f"{TOPOLOGIES}, got {shown(self.topology)}")
        # an infinite rate puts every flow at time 0, but an int beyond the
        # float range gives generate no float gap
        if self.arrival_rate != math.inf:
            check_number("scenario.arrival_rate", self.arrival_rate, 0, above=True)
        # numpy draws a source below the pool size as an int64, and a
        # decentralized peer below twice the bot pool
        check_count("scenario.n_legit_sources", self.n_legit_sources, 1, 2 ** 63)
        check_count("scenario.n_bot_sources", self.n_bot_sources, 1, 2 ** 62)
        if not isinstance(self.bot_feature_dist, dict):
            raise ConfigurationError("scenario.bot_feature must be a dict by bot class")
        for cls in BOT_CLASSES:
            if cls not in self.bot_feature_dist:
                raise ConfigurationError(f"missing bot_feature_dist for {cls}")
        dists = [("scenario.legit_feature", self.legit_feature_dist)]
        dists += [(f"scenario.bot_feature.{cls}", self.bot_feature_dist[cls])
                  for cls in BOT_CLASSES]
        for key, dist in dists:
            try:
                mean, sd = dist
            except (TypeError, ValueError):  # not an iterable of two
                raise ConfigurationError(f"{key} must be a (mean, sd) pair") from None
            check_number(f"{key}.mean", mean)
            check_number(f"{key}.sd", sd, 0)
            # -0.0 passes "sd >= 0", and numpy's normal refuses it as negative
            if math.copysign(1.0, sd) < 0:
                raise ConfigurationError(f"{key}.sd must be >= 0, got -0.0")


def generate(config: ScenarioConfig):
    """An iterator over ``config.n_flows`` flows, reproducible from the seed.

    Every random quantity comes from one generator, column by column in a
    fixed order, and each column holds the values one array over all flows
    would.  No draw is sized by the number of flows.  A first pass draws
    each column ``_CHUNK`` flows at a time, saves the generator's state
    where the column starts and runs the overflow checks, so a config that
    cannot give a valid trace raises here, before any flow is handed out.
    The iterator then restores one generator per column, draws the columns
    a chunk at a time in step and builds the records as it is consumed.
    """
    config.validate()
    # imported here: detect and evaluate need not pay numpy's start-up and memory
    import numpy as np
    n = config.n_flows
    scale = 1.0 / config.arrival_rate
    weights = [config.bot_mixture[cls] for cls in BOT_CLASSES]
    n_peers = max(8, 2 * config.n_bot_sources)
    # the columns in draw order, each drawing `size` flows from `rng`; the
    # features, drawn last, are a function of is_bot and class_idx too
    columns = (
        lambda rng, size: rng.exponential(scale, size),  # arrival gaps
        lambda rng, size: rng.random(size) < config.bot_fraction,  # is_bot
        lambda rng, size: rng.choice(len(BOT_CLASSES), size=size, p=weights),
        lambda rng, size: rng.uniform(0.5, 4.0, size),  # durations
        lambda rng, size: rng.choice(["HTTP", "OTHER", "IRC"], size=size,
                                     p=[0.7, 0.2, 0.1]),
        lambda rng, size: rng.integers(config.n_legit_sources, size=size),
        lambda rng, size: rng.integers(config.n_bot_sources, size=size),
        lambda rng, size: rng.integers(len(_SERVICES), size=size),
        lambda rng, size: rng.integers(n_peers, size=size),
        lambda rng, size: rng.random(size) < 0.2,  # relay_forward
    )
    bot_dists = np.array([config.bot_feature_dist[cls] for cls in BOT_CLASSES],
                         dtype=float)
    legit_mean, legit_sd = config.legit_feature_dist

    def features(rng, is_bot, class_idx):
        # one array call draws the same stream as one scalar draw per flow
        return rng.normal(np.where(is_bot, bot_dists[class_idx, 0], legit_mean),
                          np.where(is_bot, bot_dists[class_idx, 1], legit_sd))

    # first pass: each column in turn from the one generator; starts holds
    # the state where each column, and then the features, begins
    rng = np.random.default_rng(config.seed)
    starts = [rng.bit_generator.state]
    last = 0.0
    for size in _chunk_sizes(n):
        last = _timestamps(np, columns[0](rng, size), last)[-1]
    if not math.isfinite(last):
        raise ConfigurationError(
            f"arrival_rate {config.arrival_rate} overflows the flow timestamps"
        )
    for column in columns[1:]:
        starts.append(rng.bit_generator.state)
        for size in _chunk_sizes(n):
            column(rng, size)
    starts.append(rng.bit_generator.state)
    # the features' overflow check needs is_bot, class_idx and durations
    # drawn in step with them
    for is_bot, class_idx, durations in _in_step(np, starts[1:4], columns[1:4], n):
        draws = features(rng, is_bot, class_idx)
        # durations are below 4.0, so features below 307 give bytes_total
        # below 4e307 and need no exact check
        if draws.max() >= 307.0:
            _bytes_totals(draws.tolist(), durations.tolist())
    return _records(np, starts, columns, features, n, config.topology)


def _chunk_sizes(n):
    """The sizes of the chunks of at most ``_CHUNK`` flows that make ``n``."""
    return (min(_CHUNK, n - lo) for lo in range(0, n, _CHUNK))


def _in_step(np, states, columns, n):
    """Per chunk of ``n`` flows, one array from each of ``columns``, each
    drawn by its own generator restored to its column's start in ``states``."""
    rngs = [_restored(np, state) for state in states]
    for size in _chunk_sizes(n):
        yield [column(rng, size) for column, rng in zip(columns, rngs)]


def _restored(np, state):
    """A generator that goes on from ``state``, a saved bit generator state."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def _timestamps(np, gaps, carry):
    """The arrival times that follow ``carry`` by ``gaps``.  Each chunk's sum
    starts from the carried total, as one cumsum over all flows adds it;
    adding ``carry`` to the chunk's own cumsum would round differently."""
    return np.cumsum(np.concatenate(([carry], gaps)))[1:]


def _bytes_totals(features, durations):
    """Each flow's ``bytes_total``: its feature inverted so that
    ``extract_feature`` reproduces it.  Raises ``ConfigurationError`` when
    one is beyond the float range."""
    try:
        # Python's float power on purpose: numpy.power differs from it in the
        # last bit on some values, which would change the trace bytes
        values = [(10.0 ** max(0.0, f) - 1.0) * max(d, FEATURE_EPSILON)
                  for f, d in zip(features, durations)]
    except OverflowError:  # 10.0 ** f beyond the float range raises
        values = [math.inf]
    # an infinite draw, or a product beyond the float range, gives inf quietly
    if not math.isfinite(max(values)):
        raise ConfigurationError(
            "bytes_total overflows: a feature mean or sd is too large"
        )
    return values


def _records(np, starts, columns, features, n, topology):
    """The flows of ``generate``, drawn from the columns' saved start states."""
    feature_rng = _restored(np, starts[-1])
    last = 0.0
    lo = 0
    for gaps, bots, bot_classes, *rest in _in_step(np, starts[:-1], columns, n):
        timestamps = _timestamps(np, gaps, last)
        last = timestamps[-1]
        draws = features(feature_rng, bots, bot_classes).tolist()
        # plain Python values from here on: numpy scalars in the records
        # would slow every later layer
        durations, *rest = (column.tolist() for column in rest)
        rows = zip(range(lo, lo + len(gaps)), timestamps.tolist(),
                   bots.tolist(), bot_classes.tolist(), durations, *rest,
                   _bytes_totals(draws, durations))
        lo += len(gaps)
        # legit source -> its name, for this chunk only, so the map stays
        # within the chunk size however large the pool is
        hosts = {}
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
                source = hosts.get(legit_source)
                if source is None:
                    source = hosts[legit_source] = f"host-{legit_source:03d}"
                dest = _SERVICES[legit_dest]
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
        if not is_finite(t):
            raise OrderingError(
                f"flow {shown(flow.flow_id)} has non-finite timestamp {shown(t)}")
        if t < last_t:
            raise OrderingError(
                f"flow {shown(flow.flow_id)} timestamp {t} precedes {last_t}")
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
    """Write the trace line of each of ``flows`` through ``write_lines``, and
    return the ``Counter`` of their ground-truth classes."""
    return write_lines(flows, FlowRecord.to_json, path, attrgetter("ground_truth"))


def write_lines(items, encode, path, key):
    """Write the line ``encode(item)`` for each of ``items`` as they are
    consumed, ``LINES_PER_WRITE`` lines with each write, and return the
    ``Counter`` of ``key(item)``.  The lines go through ``atomic_output``, so
    an error in encoding or in ``items`` leaves the file at ``path`` as it was."""
    items, counts = iter(items), Counter()
    with atomic_output(path) as fh:
        while block := list(islice(items, LINES_PER_WRITE)):
            fh.write("\n".join(map(encode, block)) + "\n")
            counts.update(map(key, block))
    return counts


def read_json_lines(path):
    """``(line_no, object)`` for each line of the UTF-8 JSON Lines file at
    ``path`` that holds more than JSON whitespace.  A line that is not UTF-8,
    not JSON or not a JSON object, or that is longer than ``MAX_LINE_CHARS``,
    raises ``TraceParseError`` naming it."""
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
            # JSON's whitespace only: json.loads refuses the other spaces
            # str.strip takes, such as "\x0c" or "\xa0"
            line = line.strip(" \t\r\n")
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
    last_t = last_id = -math.inf
    for line_no, raw in read_json_lines(path):
        try:
            flow_id, t, source_ref, dest_ref, protocol_tag, bytes_total, \
                duration, ground_truth = (
                    raw["flow_id"], raw["timestamp"], raw["source_ref"],
                    raw["dest_ref"], raw["protocol_tag"], raw["bytes_total"],
                    raw["duration"], raw["ground_truth"])
        except KeyError:
            missing = [name for name in TRACE_FIELDS if name not in raw]
            raise TraceParseError(line_no, f"missing fields {missing}") from None
        if ground_truth not in GROUND_TRUTH_VALUES:
            raise TraceParseError(line_no, f"unknown ground_truth {ground_truth!r}")
        # verdicts are joined on flow_id; a bool, float or string would be
        # read as some other int id
        if type(flow_id) is not int:
            raise TraceParseError(line_no, f"flow_id {flow_id!r} is not an int")
        if not -_FLOW_ID_LIMIT < flow_id < _FLOW_ID_LIMIT:
            raise TraceParseError(
                line_no, f"flow_id has more than {MAX_FLOW_ID_DIGITS} digits")
        # the lines to_json writes hold floats and strings, which need no
        # conversion; any other line takes the checks of _numbers
        if not (type(t) is float and type(bytes_total) is float
                and type(duration) is float and type(source_ref) is str
                and type(dest_ref) is str and type(protocol_tag) is str):
            t, bytes_total, duration = _numbers(line_no, raw)
        elif len(source_ref) > _SHORT_SOURCE_REF:
            _check_source_ref(line_no, source_ref)
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
        if flow_id <= last_id:
            raise TraceParseError(
                line_no, f"flow_id {flow_id} not greater than "
                f"previous flow_id {last_id}"
            )
        last_t, last_id = t, flow_id
        yield FlowRecord(flow_id, t, source_ref, dest_ref, protocol_tag,
                         bytes_total, duration, ground_truth)


def _numbers(line_no, raw):
    """The timestamp, bytes_total and duration of the trace line ``raw`` as
    floats, from a line whose number fields are not all floats or whose text
    fields are not all strings.  Raises ``TraceParseError`` for the first
    field of the wrong JSON type, then for a ``source_ref`` over its bound,
    then for an int too large for a float."""
    for name in ("timestamp", "bytes_total", "duration"):
        if type(raw[name]) not in _NUMBER_TYPES:
            raise TraceParseError(line_no, f"{name} {raw[name]!r} is not a number")
    for name in ("source_ref", "dest_ref", "protocol_tag"):
        if type(raw[name]) is not str:
            raise TraceParseError(line_no, f"{name} {raw[name]!r} is not a string")
    _check_source_ref(line_no, raw["source_ref"])
    try:
        return (float(raw["timestamp"]), float(raw["bytes_total"]),
                float(raw["duration"]))
    except OverflowError as exc:
        raise TraceParseError(line_no, str(exc)) from exc


def _check_source_ref(line_no, source_ref):
    """Raises ``TraceParseError`` if ``source_ref`` is longer than
    ``MAX_SOURCE_REF_CHARS`` as JSON text."""
    if (len(source_ref) > _SHORT_SOURCE_REF
            and len(_json_str(source_ref)) > MAX_SOURCE_REF_CHARS):
        raise TraceParseError(
            line_no, f"source_ref is longer than {MAX_SOURCE_REF_CHARS} "
                     f"characters as JSON text")
