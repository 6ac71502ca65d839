"""Streaming botnet detection toolkit.

A distance-based outlier detector over evolving one-dimensional stream
windows, wrapped in a captcha/credential/analyzer admission pipeline, fed by
a deterministic labeled-traffic simulator and scored with confusion-matrix
metrics.

The names below are imported from their modules on first use (PEP 562), so
a process that only drives a ``Detector`` loads ``stream``, ``valueindex``
and ``errors``, not the simulator, the pipeline or the metrics.
"""

from importlib import import_module as _import_module

# each re-exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BotguardError", "ConfigurationError", "GateError", "IncompleteRunError",
        "OrderingError", "TraceParseError", "UnknownObjectError",
    ), "errors"),
    **dict.fromkeys((
        "ConfusionCounts", "detection_rate", "evaluate_run", "false_positive_rate",
    ), "metrics"),
    **dict.fromkeys((
        "AdmissionResult", "CaptchaChallenge", "CaptchaGate", "CredentialStore",
        "DetectionPipeline", "FightBackEvent", "INERT_PAYLOAD_TAG",
        "SessionRequest", "Verdict", "VerdictKind", "replay_flows",
    ), "pipeline"),
    **dict.fromkeys((
        "BOT_CLASSES", "FlowRecord", "ScenarioConfig", "default_mixture",
        "extract_feature", "generate", "read_trace", "to_stream", "write_trace",
    ), "simulate"),
    **dict.fromkeys((
        "Detector", "DetectorParams", "Label", "StreamObject",
        "brute_force_outliers",
    ), "stream"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        # also how ``from botguard import cli`` learns to import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
