"""Span tracing installed from outside the program.

``Tracer.install()`` replaces public functions and methods of the botguard
modules with timing wrappers and ``Tracer.remove()`` puts the originals back.
No program module is edited.  A span's self time is its duration minus the
durations of the spans it called; the run is single threaded, so spans nest.

Functions are patched on the module that *calls* them: ``cli`` binds
``load_run_config`` and ``replay_flows`` by name and ``pipeline`` binds
``to_stream``, so those names are replaced there as well as at home.
"""

import gc
import time
from collections import Counter, defaultdict

from botguard import cli, config, metrics, pipeline, simulate, stream
from botguard.errors import UnknownObjectError

# (owner, attribute, span name).  Every span name here has a
# ``<name>.self_s`` metric, so self times add up to the traced wall time.
TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "cmd_simulate", "cli.simulate"),
    (cli, "cmd_detect", "cli.detect"),
    (cli, "cmd_evaluate", "cli.evaluate"),
    (cli, "read_verdicts", "cli.read_verdicts"),
    (cli, "build_pipeline", "cli.build_pipeline"),
    (cli, "load_run_config", "config.load_run_config"),
    (config, "load_run_config", "config.load_run_config"),
    (simulate, "generate", "simulate.generate"),
    (simulate, "write_trace", "simulate.write_trace"),
    (simulate, "read_trace", "simulate.read_trace"),
    (simulate, "to_stream", "simulate.to_stream"),
    (pipeline, "to_stream", "simulate.to_stream"),
    (cli, "replay_flows", "pipeline.replay_flows"),
    (pipeline, "replay_flows", "pipeline.replay_flows"),
    (pipeline.DetectionPipeline, "admit", "pipeline.admit"),
    (pipeline.CredentialStore, "register", "pipeline.credentials"),
    (pipeline.CredentialStore, "authenticate", "pipeline.credentials"),
    (pipeline.CaptchaGate, "issue", "pipeline.captcha"),
    (pipeline.CaptchaGate, "verify", "pipeline.captcha"),
    (pipeline.DetectionPipeline, "scan", "pipeline.scan"),
    (pipeline.DetectionPipeline, "analyze_and_verify", "pipeline.verify"),
    (pipeline.DetectionPipeline, "mitigate", "pipeline.mitigate"),
    (metrics, "evaluate_run", "metrics.evaluate_run"),
    (metrics, "write_report", "metrics.write_report"),
    (stream.Detector, "insert", "stream.insert"),
    (stream.Detector, "classify", "stream.classify"),
    (stream.Detector, "query_outliers", "stream.query_outliers"),
    (stream.Detector, "advance_time", "stream.advance_time"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# spans whose per-call durations are kept for percentiles
_TIMED_CALLS = ("stream.insert", "stream.classify")


def percentile(values, q):
    """The ``q`` quantile (0..1) of ``values`` by rank; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """Collects spans, counters and GC pauses for one traced repetition."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self.live = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack = []
        self._saved = []
        self._gc_started = None
        self._verify_expired = False

    # -- install / remove ---------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def remove(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        keep = self.durations[name] if name in _TIMED_CALLS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            result = error = None
            token = before(args) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if keep is not None:
                    keep.append(duration)
                if observe is not None:
                    observe(args, result, error, token)

        return traced

    def root_seconds(self):
        """Summed self time of every span: the traced time spans account for."""
        return sum(self.self_s.values())

    # -- counters observed at span boundaries -------------------------------

    def _before_stream_insert(self, args):
        return len(args[0])

    def _observe_stream_insert(self, args, result, error, live_before):
        if error is None:
            live = len(args[0])
            self.live.append(live)
            # one object came in; any other change is expiry
            self.counts["stream.expired"] += live_before + 1 - live

    def _observe_stream_advance_time(self, args, result, error, token):
        if error is None:
            self.counts["stream.expired"] += len(result)

    def _observe_stream_classify(self, args, result, error, token):
        if isinstance(error, UnknownObjectError):
            self._verify_expired = True

    def _observe_pipeline_scan(self, args, result, error, token):
        if error is None and result is not None:
            self.counts["pipeline.scan.candidates"] += 1

    def _observe_pipeline_verify(self, args, result, error, token):
        if error is None:
            if self._verify_expired:
                self.counts["pipeline.verify.expired"] += 1
            elif result.kind is pipeline.VerdictKind.BLOCK:
                self.counts["pipeline.verify.confirmed"] += 1
            else:
                self.counts["pipeline.verify.reversed"] += 1
        self._verify_expired = False

    def _observe_pipeline_mitigate(self, args, result, error, token):
        if error is None and result:
            self.counts["pipeline.mitigate.blocks"] += 1

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- per-layer metrics ------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metric values for one traced repetition that took
        ``wall_s`` seconds."""
        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in ("stream.insert", "stream.classify", "stream.query_outliers",
                     "stream.advance_time", "pipeline.admit",
                     "pipeline.credentials", "pipeline.scan", "pipeline.verify"):
            values[f"{name}.calls"] = self.calls.get(name, 0)
        inserts = self.durations["stream.insert"]
        classifies = self.durations["stream.classify"]
        values["stream.insert.p50_us"] = percentile(inserts, 0.50) * 1e6
        values["stream.insert.p99_us"] = percentile(inserts, 0.99) * 1e6
        values["stream.classify.p99_us"] = percentile(classifies, 0.99) * 1e6
        values["stream.live.mean"] = (sum(self.live) / len(self.live)
                                      if self.live else 0.0)
        values["stream.live.max"] = max(self.live, default=0)
        for name in ("stream.expired", "pipeline.scan.candidates",
                     "pipeline.verify.confirmed", "pipeline.verify.reversed",
                     "pipeline.verify.expired", "pipeline.mitigate.blocks"):
            values[name] = self.counts.get(name, 0)
        values["runtime.gc_s"] = self.gc_s
        values["runtime.gc.collections"] = self.gc_collections
        values["trace.wall_s"] = wall_s
        values["trace.unattributed_s"] = wall_s - self.root_seconds()
        return values
