"""Run configuration: flat dotted-key config files merged over defaults.

The file format is line oriented: ``section.key = value`` with ``#`` comments
and blank lines ignored.  Unknown keys are errors so typos fail loudly.
"""

from .errors import ConfigurationError
from .pipeline import DEFAULT_CAPTCHA_TTL, DEFAULT_VERIFY_DELAY
from .simulate import BOT_CLASSES, ScenarioConfig
from .stream import DetectorParams, Record, check_number


# every accepted key, once: key -> caster of its text.  A key is a section and
# the field it sets; a per-class key adds the class, and the pair item if any.
_KEYS = {
    "detector.radius": float,
    "detector.neighbor_threshold": int,
    "detector.window_span": float,
    "scenario.seed": int,
    "scenario.n_flows": int,
    "scenario.bot_fraction": float,
    "scenario.topology": str,
    "scenario.arrival_rate": float,
    "scenario.n_legit_sources": int,
    "scenario.n_bot_sources": int,
    "scenario.legit_feature.mean": float,
    "scenario.legit_feature.sd": float,
    "pipeline.verify_delay": float,
    "pipeline.captcha_ttl": float,
}

for _cls in BOT_CLASSES:
    _KEYS[f"scenario.mixture.{_cls}"] = float
    _KEYS[f"scenario.bot_feature.{_cls}.mean"] = float
    _KEYS[f"scenario.bot_feature.{_cls}.sd"] = float


class RunConfig(Record):
    __slots__ = ("detector", "scenario", "verify_delay", "captcha_ttl")

    def __init__(self, detector, scenario, verify_delay=DEFAULT_VERIFY_DELAY,
                 captcha_ttl=DEFAULT_CAPTCHA_TTL):
        self.detector, self.scenario = detector, scenario
        self.verify_delay, self.captcha_ttl = verify_delay, captcha_ttl

    def validate(self):
        self.scenario.validate()
        # verify_delay lands in verdict times and in the report
        check_number("pipeline.verify_delay", self.verify_delay, 0)
        check_number("pipeline.captcha_ttl", self.captcha_ttl, 0, above=True)


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
        try:
            values[key] = _KEYS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"config line {line_no}: bad value for {key}: {exc}"
            ) from exc
    return values


def build_run_config(values: dict, seed_override=None) -> RunConfig:
    """The run configuration the flat dict ``values`` sets over the defaults."""
    if unknown := sorted(values.keys() - _KEYS.keys()):
        raise ConfigurationError(f"unknown config keys {unknown}")
    sections = {"detector": {}, "scenario": {}, "pipeline": {}}
    values = dict(values)
    for key, value in values.items():
        # an int where a float goes becomes the float a config file gives;
        # any other value is left for its record to refuse
        if _KEYS[key] is float and type(value) is int:
            try:
                values[key] = value = float(value)
            except OverflowError as exc:  # an int beyond the float range
                raise ConfigurationError(f"bad value for {key}: {exc}") from None
        section, _, name = key.partition(".")
        if "." not in name:  # not a per-class key
            sections[section][name] = value
    detector = DetectorParams(**sections["detector"])

    def pair(prefix, default):
        return (values.get(f"scenario.{prefix}.mean", default[0]),
                values.get(f"scenario.{prefix}.sd", default[1]))

    defaults = ScenarioConfig()
    scenario = ScenarioConfig(
        **sections["scenario"],
        legit_feature_dist=pair("legit_feature", defaults.legit_feature_dist),
        bot_feature_dist={cls: pair(f"bot_feature.{cls}", dist)
                          for cls, dist in defaults.bot_feature_dist.items()},
        bot_mixture={cls: values.get(f"scenario.mixture.{cls}", weight)
                     for cls, weight in defaults.bot_mixture.items()},
    )
    config = RunConfig(detector, scenario, **sections["pipeline"])
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
