import copy
import pickle

import pytest

from botguard import (
    INERT_PAYLOAD_TAG, CaptchaChallenge, ConfusionCounts, DetectorParams,
    FightBackEvent, FlowRecord, ScenarioConfig, SessionRequest, StreamObject,
    Verdict, VerdictKind,
)
from botguard.config import RunConfig
from botguard.stream import FrozenRecord, Record

# (record, a record of the same type that differs in one field)
RECORDS = [
    (DetectorParams(0.5, 2, 8.0), DetectorParams(0.5, 2, 9.0)),
    (StreamObject(3, 1.5, 2.0, "host-001"), StreamObject(3, 1.5, 2.0)),
    (FlowRecord(1, 0.5, "host-001", "svc-0", "HTTP", 1000.0, 2.0, "legit"),
     FlowRecord(1, 0.5, "host-001", "svc-0", "HTTP", 1000.0, 2.0, "irc_bot")),
    (ScenarioConfig(seed=3), ScenarioConfig(seed=4)),
    (RunConfig(DetectorParams(), ScenarioConfig()),
     RunConfig(DetectorParams(), ScenarioConfig(), captcha_ttl=60.0)),
    (CaptchaChallenge("ch-000001", "ABC123", 1.0),
     CaptchaChallenge("ch-000001", "ABC124", 1.0)),
    (SessionRequest("host-001", "ch-000001", "ABC123", "alice", "pw"),
     SessionRequest("host-001", "ch-000001", "ABC123", "alice", "pw2")),
    (Verdict(VerdictKind.BLOCK, "host-001", (3,), 3),
     Verdict(VerdictKind.ALLOW, "host-001", (), 3)),
    (FightBackEvent("host-001", 3), FightBackEvent("host-001", 4)),
    (ConfusionCounts(1, 2, 3, 4), ConfusionCounts(1, 2, 3, 5)),
]
FROZEN = {DetectorParams, StreamObject, CaptchaChallenge, SessionRequest,
          Verdict, FightBackEvent, ConfusionCounts}


def record_types(cls=Record):
    for sub in cls.__subclasses__():
        if sub is not FrozenRecord:
            yield sub
        yield from record_types(sub)


def test_every_record_class_is_pinned():
    assert set(record_types()) <= {type(record) for record, _ in RECORDS}


@pytest.mark.parametrize("record, other", RECORDS,
                         ids=[type(record).__name__ for record, _ in RECORDS])
def test_record_behaviour(record, other):
    cls = type(record)
    names = getattr(cls, "_fields", None) or cls.__slots__
    values = [getattr(record, name) for name in names]
    # equality and repr go by the field values, in field order
    assert cls(*values) == record and not cls(*values) != record
    assert other != record and not other == record
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    if issubclass(cls, Record):
        # as a dataclass's: no equality with another type's equal fields
        assert record.__eq__(tuple(values)) is NotImplemented
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record
    if cls in FROZEN:
        assert hash(cls(*values)) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, names[0], getattr(other, names[0]))
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert getattr(record, names[0]) == values[0]
    else:
        with pytest.raises(TypeError):
            hash(record)
        twin = cls(*values)
        setattr(twin, names[0], getattr(other, names[0]))
        assert getattr(twin, names[0]) == getattr(other, names[0])


def test_counter_probe_payload_is_a_class_constant():
    event = FightBackEvent("host-001", 3)
    with pytest.raises(AttributeError):
        event.payload_tag = "x"
    assert event.payload_tag == FightBackEvent.payload_tag == INERT_PAYLOAD_TAG


def test_scenario_configs_do_not_share_default_dicts():
    first, second = ScenarioConfig(), ScenarioConfig()
    first.bot_mixture["irc_bot"] = 1.0
    first.bot_feature_dist["irc_bot"] = (0.0, 1.0)
    assert second == ScenarioConfig() != first
    assert second.bot_mixture is not first.bot_mixture
