"""An independent reference model of the double check, compared with replay.

The model below shares no code with ``stream``, ``valueindex`` or
``replay_flows``: it keeps the window as a plain list, counts neighbors
pairwise and judges each candidate by the rules of the mechanism alone.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botguard import (
    CaptchaGate, CredentialStore, DetectionPipeline, Detector, DetectorParams,
    FlowRecord, extract_feature, replay_flows,
)
from botguard import pipeline as pipeline_module


def reference_log(flows, radius, k, span, verify_delay):
    """The verdict log of ``flows`` by the rules of the double check."""
    sessions = {}   # source -> session id, numbered by first appearance
    blocked = {}    # source -> the evidence ids of the block that stopped it
    window = []     # (flow_id, arrival, value) of every scanned flow
    pending = []    # (deadline, flow, value), in scan order
    log = []

    def record(at, source, verdict, evidence, link_id):
        log.append({"decided_at": round(at, 9), "session_id": sessions[source],
                    "source_ref": source, "verdict": verdict,
                    "evidence_ids": list(evidence), "link_id": link_id})

    def neighbors(now, flow_id, value):
        # other live values in [fl(v - R), fl(v + R)], counted pairwise
        lo, hi = value - radius, value + radius
        return sum(1 for other, arrival, u in window
                   if other != flow_id and now - arrival < span and lo <= u <= hi)

    def judge(until):
        while pending and pending[0][0] <= until:
            deadline, flow, value = pending.pop(0)
            source, flow_id = flow.source_ref, flow.flow_id
            if source in blocked:
                record(deadline, source, "block", blocked[source], flow_id)
            elif (deadline - flow.timestamp >= span
                  or neighbors(deadline, flow_id, value) >= k):
                record(deadline, source, "allow", (), flow_id)
            else:
                blocked[source] = (flow_id,)
                record(deadline, source, "block", (flow_id,), flow_id)
                record(deadline, source, "fight_back", (flow_id,), flow_id)

    for flow in flows:
        source, t = flow.source_ref, flow.timestamp
        sessions.setdefault(source, f"s-{len(sessions):04d}")
        # a candidate is judged before any flow at or after its deadline
        judge(t)
        if source in blocked:
            record(t, source, "block", blocked[source], flow.flow_id)
            continue
        value = extract_feature(flow)
        window.append((flow.flow_id, t, value))
        if neighbors(t, flow.flow_id, value) < k:
            pending.append((t + verify_delay, flow, value))
        else:
            record(t, source, "allow", (), flow.flow_id)
    judge(math.inf)
    return log


def stub_derive_keys(jobs, iterations):
    # a cheap stand-in for PBKDF2 that still tells the pairs apart
    return [hashlib.sha256(password.encode("utf-8", "surrogatepass") + salt).digest()
            for password, salt in jobs]


@st.composite
def scenarios(draw):
    span = draw(st.sampled_from([0.5, 1.0, 2.0]))
    # 0, under the span (where a source can be blocked while a candidate of
    # it waits), the span itself and beyond it
    delays = st.sampled_from([0.0, 0.25, span / 2, span, span + 0.25])
    # repeated values, so a window holds ties, and spread ones
    sizes = st.sampled_from([10.0, 12.0, 30.0]) | st.floats(0.0, 1e4)
    ticks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    n_sources = draw(st.integers(1, 4))
    flows, now = [], 0
    for flow_id, tick in enumerate(ticks):
        now += tick
        flows.append(FlowRecord(
            flow_id, now * 0.25, f"src-{draw(st.integers(0, n_sources - 1))}",
            "svc-0", "HTTP", draw(sizes), 1.0, "legit"))
    return dict(
        flows=flows, span=span, verify_delay=draw(delays),
        radius=draw(st.sampled_from([0.05, 0.25, 1.0])),
        k=draw(st.integers(1, 3)), block=draw(st.sampled_from([1, 3, 1024])))


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_replay_matches_the_reference_model(scenario):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "_derive_keys", stub_derive_keys)
        patch.setattr(pipeline_module, "_BLOCK", scenario["block"])
        pipeline = DetectionPipeline(
            Detector(DetectorParams(radius=scenario["radius"],
                                    neighbor_threshold=scenario["k"],
                                    window_span=scenario["span"])),
            CaptchaGate(seed=0), CredentialStore(salt_seed=0),
            verify_delay=scenario["verify_delay"])
        records = list(replay_flows(scenario["flows"], pipeline))
    assert records == reference_log(
        scenario["flows"], scenario["radius"], scenario["k"], scenario["span"],
        scenario["verify_delay"])
