"""Streaming botnet detection toolkit.

A distance-based outlier detector over evolving one-dimensional stream
windows, wrapped in a captcha/credential/analyzer admission pipeline, fed by
a deterministic labeled-traffic simulator and scored with confusion-matrix
metrics.
"""

from .errors import (
    BotguardError, ConfigurationError, GateError, IncompleteRunError,
    OrderingError, TraceParseError, UnknownObjectError,
)
from .metrics import (
    ConfusionCounts, detection_rate, evaluate_run, false_positive_rate,
)
from .pipeline import (
    AdmissionResult, CaptchaChallenge, CaptchaGate, CredentialStore,
    DetectionPipeline, FightBackEvent, INERT_PAYLOAD_TAG, SessionRequest,
    Verdict, VerdictKind, replay_flows,
)
from .simulate import (
    BOT_CLASSES, FlowRecord, ScenarioConfig, default_mixture, extract_feature,
    generate, read_trace, to_stream, write_trace,
)
from .stream import (
    Detector, DetectorParams, Label, NeighborSummary, StreamObject,
    brute_force_outliers,
)

__version__ = "0.1.0"
