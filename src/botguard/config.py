"""Run configuration: flat dotted-key config files merged over defaults.

The file format is line oriented: ``section.key = value`` with ``#`` comments
and blank lines ignored.  Unknown keys are errors so typos fail loudly.
"""

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError
from .pipeline import DEFAULT_CAPTCHA_TTL, DEFAULT_VERIFY_DELAY
from .simulate import BOT_CLASSES, ScenarioConfig
from .stream import DetectorParams


def _detector(name):
    def apply(config, value):
        config.detector = replace(config.detector, **{name: value})
    return apply


def _scenario(name):
    def apply(config, value):
        setattr(config.scenario, name, value)
    return apply


def _pipeline(name):
    def apply(config, value):
        setattr(config, name, value)
    return apply


def _with(pair, index, value):
    """``pair`` with the item at ``index`` replaced by ``value``."""
    return tuple(value if i == index else old for i, old in enumerate(pair))


def _legit_feature(index):
    def apply(config, value):
        scenario = config.scenario
        scenario.legit_feature_dist = _with(scenario.legit_feature_dist, index, value)
    return apply


def _bot_feature(cls, index):
    def apply(config, value):
        dists = config.scenario.bot_feature_dist
        dists[cls] = _with(dists[cls], index, value)
    return apply


def _mixture(cls):
    def apply(config, value):
        config.scenario.bot_mixture[cls] = value
    return apply


# every accepted key, once: key -> (caster of its text, setter on a RunConfig)
_KEYS = {
    "detector.radius": (float, _detector("radius")),
    "detector.neighbor_threshold": (int, _detector("neighbor_threshold")),
    "detector.window_span": (float, _detector("window_span")),
    "scenario.seed": (int, _scenario("seed")),
    "scenario.n_flows": (int, _scenario("n_flows")),
    "scenario.bot_fraction": (float, _scenario("bot_fraction")),
    "scenario.topology": (str, _scenario("topology")),
    "scenario.arrival_rate": (float, _scenario("arrival_rate")),
    "scenario.n_legit_sources": (int, _scenario("n_legit_sources")),
    "scenario.n_bot_sources": (int, _scenario("n_bot_sources")),
    "scenario.legit_feature.mean": (float, _legit_feature(0)),
    "scenario.legit_feature.sd": (float, _legit_feature(1)),
    "pipeline.verify_delay": (float, _pipeline("verify_delay")),
    "pipeline.captcha_ttl": (float, _pipeline("captcha_ttl")),
}

for _cls in BOT_CLASSES:
    _KEYS[f"scenario.mixture.{_cls}"] = (float, _mixture(_cls))
    _KEYS[f"scenario.bot_feature.{_cls}.mean"] = (float, _bot_feature(_cls, 0))
    _KEYS[f"scenario.bot_feature.{_cls}.sd"] = (float, _bot_feature(_cls, 1))


@dataclass
class RunConfig:
    detector: DetectorParams = field(default_factory=DetectorParams)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    verify_delay: float = DEFAULT_VERIFY_DELAY
    captcha_ttl: float = DEFAULT_CAPTCHA_TTL

    def validate(self):
        self.scenario.validate()
        # verify_delay lands in verdict times and in the report
        if not (self.verify_delay >= 0 and math.isfinite(self.verify_delay)):
            raise ConfigurationError(
                f"pipeline.verify_delay must be finite and >= 0, "
                f"got {self.verify_delay}"
            )
        if not self.captcha_ttl > 0:
            raise ConfigurationError(
                f"pipeline.captcha_ttl must be > 0, got {self.captcha_ttl}"
            )


def parse_flat_config(text) -> dict:
    """Parse ``key = value`` lines into a typed flat dict."""
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"config line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"config line {line_no}: duplicate key {key!r}")
        caster, _ = _KEYS[key]
        try:
            values[key] = caster(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"config line {line_no}: bad value for {key}: {exc}"
            ) from exc
    return values


def build_run_config(values: dict, seed_override=None) -> RunConfig:
    config = RunConfig()
    for key, (_, apply) in _KEYS.items():
        if key in values:
            apply(config, values[key])
    if seed_override is not None:
        config.scenario.seed = seed_override
    config.validate()
    return config


def load_run_config(path=None, seed_override=None) -> RunConfig:
    if path is None:
        return build_run_config({}, seed_override=seed_override)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file is not valid UTF-8: {exc}") from None
    return build_run_config(parse_flat_config(text), seed_override=seed_override)
