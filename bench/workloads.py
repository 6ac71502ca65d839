"""The benchmark's workloads: inputs from a seed, one timed repetition, and
the checks and descriptors computed from a repetition's inputs and outputs.

A repetition is a fixed amount of work, so every repetition of a run gets
the same inputs and must give byte-identical outputs.  The load is a closed
loop in one thread: the next flow is fed only after the previous call
returned, and trace timestamps are simulated time, never waited for.
"""

import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from botguard import cli, stream
from tracing import percentile

# The acceptance suite's separable scenario with 200 legit hosts instead of
# 40, so that the 402 PBKDF2 calls of admission show next to detection.
SEPARABLE = """\
detector.radius = 1.0
detector.neighbor_threshold = 3
detector.window_span = 16.0
scenario.n_flows = 25000
scenario.bot_fraction = 0.1
scenario.arrival_rate = 5.0
scenario.n_bot_sources = 1
scenario.n_legit_sources = 200
scenario.topology = centralized
pipeline.verify_delay = 2.0
"""

# The default scenario at 200 flows/s: the window fills after 3200 flows,
# and nearly every live object is a neighbor of every legit insert.
DENSE = """\
scenario.n_flows = 3400
scenario.arrival_rate = 200.0
"""


@dataclass
class Rep:
    """One repetition: how long it took, what it wrote, and whether it ran.

    ``timed`` and ``detect`` are the ``time.perf_counter()`` readings that
    bound the measured phase and its detect part."""

    flows: int
    wall_s: float
    detect_s: float = None
    timed: tuple = None
    detect: tuple = None
    scaled_s: float = None
    scaled_detect_s: float = None
    unscaled_s: float = None
    unscaled_detect_s: float = None
    digests: dict = field(default_factory=dict)
    error: str = None
    extra: dict = field(default_factory=dict)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def window_profile(points, radius, span):
    """Live-window size and neighbors per insert for ``(time, value)`` points
    in arrival order, by the benchmark's own sorted-list range count."""
    live = deque()
    values = []
    live_sizes, neighbors = [], []
    for t, v in points:
        while live and t - live[0][0] >= span:
            _, old = live.popleft()
            values.pop(bisect.bisect_left(values, old))
        neighbors.append(bisect.bisect_right(values, v + radius)
                         - bisect.bisect_left(values, v - radius))
        bisect.insort(values, v)
        live.append((t, v))
        live_sizes.append(len(live))
    return live_sizes, neighbors


def summarize_profile(live_sizes, neighbors, k):
    return {
        "live.mean": statistics.fmean(live_sizes),
        "live.max": max(live_sizes),
        "neighbors_per_insert.mean": statistics.fmean(neighbors),
        "neighbors_per_insert.p99": percentile(neighbors, 0.99),
        "outlier_at_insert_share": sum(1 for n in neighbors if n < k) / len(neighbors),
    }


class ChainWorkload:
    """simulate -> detect -> evaluate through ``botguard.cli.main``, in process."""

    def __init__(self, name, config_text):
        self.name = name
        self.config_text = config_text
        values = {key.strip(): value.strip() for key, _, value in
                  (line.partition("=") for line in config_text.splitlines())}
        self.n_flows = int(values["scenario.n_flows"])
        self.radius = float(values.get("detector.radius", 1.0))
        self.k = int(values.get("detector.neighbor_threshold", 3))
        self.span = float(values.get("detector.window_span", 16.0))

    def prepare(self, work, seed):
        conf = work / "run.conf"
        conf.write_text(self.config_text)
        return {
            "seed": seed,
            "config": str(conf),
            "trace": str(work / "trace.jsonl"),
            "verdicts": str(work / "verdicts.jsonl"),
            "report": str(work / "report.json"),
        }

    def setup_probe_args(self, state):
        return ["chain", state["config"], str(state["seed"])]

    def run(self, state, tracer=None):
        common = ["--config", state["config"], "--seed", str(state["seed"])]
        steps = (
            ["simulate", *common, "--out", state["trace"]],
            ["detect", *common, "--trace", state["trace"], "--out", state["verdicts"]],
            ["evaluate", *common, "--trace", state["trace"],
             "--verdicts", state["verdicts"], "--out", state["report"]],
        )
        sink = io.StringIO()
        marks = []
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is not None:
                tracer.install()
            try:
                marks.append(time.perf_counter())
                for argv in steps:
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # a crash fails every flow of the rep
                        error = f"{argv[0]} raised {exc!r}"
                        break
                    marks.append(time.perf_counter())
                    if code != 0:
                        error = f"{argv[0]} exited with {code}: {sink.getvalue()[-500:]}"
                        break
            finally:
                if tracer is not None:
                    tracer.remove()
        if error is not None:
            return Rep(self.n_flows, marks[-1] - marks[0], error=error)
        return Rep(
            flows=self.n_flows,
            wall_s=marks[3] - marks[0],
            detect_s=marks[2] - marks[1],
            timed=(marks[0], marks[3]),
            detect=(marks[1], marks[2]),
            digests={part: sha256_file(state[part])
                     for part in ("trace", "verdicts", "report")},
        )

    def check(self, state, rep):
        """Number of flows of ``rep`` whose verdicts break the log contract,
        and notes on what broke."""
        try:
            return self._check_outputs(state)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return self.n_flows, [f"outputs unreadable: {exc!r}"]

    def _check_outputs(self, state):
        flow_ids = []
        with open(state["trace"]) as fh:
            for line in fh:
                flow_ids.append(json.loads(line)["flow_id"])
        finals = Counter()
        blocked, bad, fight_back = set(), set(), []
        with open(state["verdicts"]) as fh:
            for line in fh:
                record = json.loads(line)
                kind, link = record.get("verdict"), record.get("link_id")
                if kind in ("allow", "block"):
                    finals[link] += 1
                if kind == "block":
                    blocked.add(link)
                    if not record.get("evidence_ids"):
                        bad.add(link)
                elif kind == "fight_back":
                    fight_back.append(link)
                elif kind != "allow":
                    bad.add(link)
        bad.update(link for link in fight_back if link not in blocked)
        known = set(flow_ids)
        failed = {fid for fid in flow_ids if finals[fid] != 1 or fid in bad}
        stray = {link for link in finals if link not in known}
        notes = []
        if len(flow_ids) != self.n_flows:
            notes.append(f"trace holds {len(flow_ids)} flows, expected {self.n_flows}")
        if stray:
            notes.append(f"{len(stray)} verdicts name flows not in the trace")
        with open(state["report"]) as fh:
            report = json.load(fh)
        if report["tp"] + report["fp"] + report["tn"] + report["fn"] != len(flow_ids):
            notes.append("report confusion counts do not cover the trace")
        if failed:
            notes.append(f"{len(failed)} flows break the verdict-log contract")
        failures = len(failed) + len(stray)
        if notes and not failures:
            failures = self.n_flows
        return failures, notes

    def layer_counts(self, state, rep, tracer):
        """Per-layer counts a traced repetition leaves outside its spans."""
        return {
            "pipeline.gate_drops": rep.flows - tracer.calls["pipeline.scan"],
            "simulate.trace_bytes": os.path.getsize(state["trace"]),
            "cli.verdict_bytes": os.path.getsize(state["verdicts"]),
        }

    def outcome(self, state):
        with open(state["report"]) as fh:
            report = json.load(fh)
        return {key: report[key] for key in
                ("tp", "fp", "tn", "fn", "detection_rate", "false_positive_rate")}

    def describe(self, state):
        points, sources, bots = [], Counter(), 0
        with open(state["trace"]) as fh:
            for line in fh:
                flow = json.loads(line)
                feature = math.log10(1.0 + flow["bytes_total"]
                                     / max(flow["duration"], 1e-6))
                points.append((flow["timestamp"], feature))
                sources[flow["source_ref"]] += 1
                bots += flow["ground_truth"] != "legit"
        live, neighbors = window_profile(points, self.radius, self.span)
        described = summarize_profile(live, neighbors, self.k)
        described.update({
            "flows": len(points),
            "sources": len(sources),
            "flows_per_source.mean": len(points) / len(sources),
            "flows_per_source.max": max(sources.values()),
            "bot_share": bots / len(points),
            # candidates get one classify each at verification time
            "reads_per_insert": described["outlier_at_insert_share"],
        })
        return described


class MixedWorkload:
    """Inserts with scheduled reads, driven straight into ``Detector``.

    The acceptance soft-target stream: uniform features on [0, 1000] at 1000
    objects per simulated second, R=0.5, k=3, span 10, so 10^4 objects are
    live and an insert has about 10 neighbors.  After each insert the object
    inserted half a window earlier is classified, and ``query_outliers()``
    runs once per simulated second.  A repetition first fills the window
    (untimed), then times half a window's worth of objects.
    """

    name = "detector-mixed"
    radius, k, span = 0.5, 3, 10.0
    rate = 1000
    warm = 10_000
    # five simulated seconds: five query instants for the oracle to check
    measured = 5_000
    read_lag = 5_000

    def prepare(self, work, seed):
        rng = random.Random(seed)
        total = self.warm + self.measured
        objects = [stream.StreamObject(i + 1, i / self.rate, rng.uniform(0.0, 1000.0))
                   for i in range(total)]
        return {"seed": seed, "objects": objects,
                "params": stream.DetectorParams(radius=self.radius,
                                                neighbor_threshold=self.k,
                                                window_span=self.span)}

    def setup_probe_args(self, state):
        return ["detector", str(self.radius), str(self.k), str(self.span)]

    def _feed(self, detector, objects, lo, hi, labels, instants):
        lag, rate = self.read_lag, self.rate
        for i in range(lo, hi):
            labels.append(detector.insert(objects[i]))
            if i >= lag:
                labels.append(detector.classify(objects[i - lag].object_id))
            if (i + 1) % rate == 0:
                instants.append((i, detector.query_outliers()))

    def run(self, state, tracer=None):
        objects = state["objects"]
        detector = stream.Detector(state["params"])
        labels, warm_instants, instants = [], [], []
        error = None
        wall = start = 0.0
        try:
            self._feed(detector, objects, 0, self.warm, labels, warm_instants)
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                self._feed(detector, objects, self.warm, len(objects), labels, instants)
                wall = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.remove()
        except Exception as exc:  # a crash fails every object of the rep
            error = f"detector raised {exc!r}"
        if error is not None:
            return Rep(self.measured, wall, error=error)
        label_bytes = "".join(label.value[0] for label in labels).encode()
        outliers = json.dumps([[i, sorted(found)] for i, found in instants]).encode()
        return Rep(
            flows=self.measured,
            wall_s=wall,
            detect_s=wall,
            timed=(start, start + wall),
            detect=(start, start + wall),
            digests={"labels": hashlib.sha256(label_bytes).hexdigest(),
                     "outliers": hashlib.sha256(outliers).hexdigest()},
            extra={"instants": instants},
        )

    def check(self, state, rep):
        """Compare every measured ``query_outliers()`` result with the
        brute-force oracle on the window rebuilt from the inputs; a
        disagreeing instant fails the objects inserted in its second."""
        objects, params = state["objects"], state["params"]
        times = [obj.arrival_time for obj in objects]
        failed, notes = 0, []
        for i, found in rep.extra["instants"]:
            now = times[i]
            # live means now - t < span, evaluated as the detector does
            lo = bisect.bisect_left(times, now - self.span)
            while lo > 0 and now - times[lo - 1] < self.span:
                lo -= 1
            while now - times[lo] >= self.span:
                lo += 1
            oracle = stream.brute_force_outliers(objects[lo:i + 1], params)
            if found != oracle:
                failed += self.rate
                notes.append(f"query at object {i} disagrees with the oracle "
                             f"on {len(set(found) ^ oracle)} objects")
        return failed, notes

    def layer_counts(self, state, rep, tracer):
        return {"pipeline.gate_drops": 0, "simulate.trace_bytes": 0,
                "cli.verdict_bytes": 0}

    def outcome(self, state):
        return {}

    def describe(self, state):
        objects = state["objects"]
        live, neighbors = window_profile(
            ((obj.arrival_time, obj.feature_value) for obj in objects),
            self.radius, self.span)
        # the timed phase only: the warm-up is not measured
        described = summarize_profile(live[self.warm:], neighbors[self.warm:], self.k)
        inserts = self.measured
        reads = inserts + inserts // self.rate
        described.update({
            "flows": inserts,
            "sources": 0,
            "flows_per_source.mean": None,
            "flows_per_source.max": None,
            "bot_share": 0.0,
            "reads_per_insert": reads / inserts,
        })
        return described


WORKLOADS = {
    "chain-separable": ChainWorkload("chain-separable", SEPARABLE),
    "chain-dense": ChainWorkload("chain-dense", DENSE),
    "detector-mixed": MixedWorkload(),
}
