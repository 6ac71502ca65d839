import dataclasses
import json
import string

import pytest

from botguard import (
    AdmissionResult, BlockList, CaptchaGate, CredentialStore, Detector,
    DetectorParams, DetectionPipeline, GateError, INERT_PAYLOAD_TAG, Label,
    ScenarioConfig, SessionRequest, StreamObject, VerdictKind, generate,
    replay_flows,
)


def make_pipeline(verify_delay=2.0, **detector_kw):
    params = dict(radius=1.0, neighbor_threshold=3, window_span=16.0)
    params.update(detector_kw)
    return DetectionPipeline(
        Detector(DetectorParams(**params)),
        CaptchaGate(seed=0),
        CredentialStore(salt_seed=0),
        BlockList(),
        verify_delay=verify_delay,
    )


def admit_source(pipeline, source, now=0.0):
    challenge = pipeline.captcha.issue(now)
    pipeline.credentials.register(f"user-{source}", "pw")
    session = SessionRequest(
        session_id=f"s-{source}",
        source_ref=source,
        challenge_id=challenge.challenge_id,
        captcha_answer=challenge.code,
        username=f"user-{source}",
        password="pw",
        timestamp=now,
    )
    result = pipeline.admit(session, now)
    assert result is AdmissionResult.ADMITTED
    return session


class TestCaptcha:
    def test_issue_shape(self):
        gate = CaptchaGate(seed=1)
        challenge = gate.issue(0.0)
        assert len(challenge.code) == 6
        assert set(challenge.code) <= set(string.ascii_uppercase + string.digits)
        assert challenge.ttl == 120.0

    def test_distinct_ids(self):
        gate = CaptchaGate(seed=1)
        assert gate.issue(0.0).challenge_id != gate.issue(0.0).challenge_id

    def test_seeded_runs_repeat_codes(self):
        gate1, gate2 = CaptchaGate(seed=7), CaptchaGate(seed=7)
        assert [gate1.issue(0.0).code for _ in range(5)] == \
               [gate2.issue(0.0).code for _ in range(5)]

    def test_correct_answer_within_ttl(self):
        gate = CaptchaGate(seed=2)
        ch = gate.issue(10.0)
        assert gate.verify(ch.challenge_id, ch.code, 20.0)

    def test_expired_challenge_fails(self):
        gate = CaptchaGate(seed=2)
        ch = gate.issue(0.0)
        assert not gate.verify(ch.challenge_id, ch.code, 121.0)

    def test_single_use(self):
        gate = CaptchaGate(seed=2)
        ch = gate.issue(0.0)
        assert gate.verify(ch.challenge_id, ch.code, 1.0)
        assert not gate.verify(ch.challenge_id, ch.code, 2.0)

    def test_consumed_even_on_wrong_answer(self):
        gate = CaptchaGate(seed=2)
        ch = gate.issue(0.0)
        assert not gate.verify(ch.challenge_id, "NOPE99", 1.0)
        assert not gate.verify(ch.challenge_id, ch.code, 2.0)

    def test_unknown_id_is_just_false(self):
        assert not CaptchaGate(seed=0).verify("ch-999999", "ABCDEF", 0.0)

    def test_case_sensitive(self):
        gate = CaptchaGate(seed=3)
        ch = gate.issue(0.0)
        if ch.code.lower() != ch.code:
            assert not gate.verify(ch.challenge_id, ch.code.lower(), 1.0)


class TestCredentials:
    def test_registered_pair(self):
        store = CredentialStore()
        store.register("alice", "secret")
        assert store.authenticate("alice", "secret")

    def test_wrong_password(self):
        store = CredentialStore()
        store.register("alice", "secret")
        assert not store.authenticate("alice", "wrong")

    def test_unknown_user(self):
        store = CredentialStore()
        assert not store.authenticate("nobody", "whatever")

    def test_no_plaintext_stored(self):
        store = CredentialStore()
        store.register("alice", "hunter2-plaintext")
        blob = repr(store.__dict__)
        assert "hunter2-plaintext" not in blob

    def test_save_load_roundtrip(self, tmp_path):
        store = CredentialStore(salt_seed=5)
        store.register("alice", "a")
        store.register("bob", "b")
        path = tmp_path / "creds.txt"
        store.save(path)
        text = path.read_text()
        assert all(len(line.split(":")) == 3 for line in text.strip().splitlines())
        loaded = CredentialStore.load(path)
        assert loaded.authenticate("alice", "a")
        assert loaded.authenticate("bob", "b")
        assert not loaded.authenticate("alice", "b")


class TestAdmission:
    def test_gate_order_blocked_wins(self):
        pipeline = make_pipeline()
        pipeline.blocklist.block("src", 0.0)
        ch = pipeline.captcha.issue(0.0)
        pipeline.credentials.register("u", "p")
        session = SessionRequest("s1", "src", ch.challenge_id, ch.code, "u", "p", 0.0)
        assert pipeline.admit(session, 0.0) is AdmissionResult.REJECTED_BLOCKED
        # captcha was never consumed: the blocklist short-circuited
        assert pipeline.captcha.verify(ch.challenge_id, ch.code, 1.0)

    def test_captcha_failure_short_circuits_credentials(self):
        pipeline = make_pipeline()
        pipeline.credentials.register("u", "p")
        ch = pipeline.captcha.issue(0.0)
        session = SessionRequest("s1", "src", ch.challenge_id, "WRONG!", "u", "p", 0.0)
        calls = []
        original = pipeline.credentials.authenticate
        pipeline.credentials.authenticate = lambda *a: calls.append(a) or original(*a)
        assert pipeline.admit(session, 0.0) is AdmissionResult.REJECTED_CAPTCHA
        assert calls == []

    def test_bad_credentials(self):
        pipeline = make_pipeline()
        ch = pipeline.captcha.issue(0.0)
        session = SessionRequest("s1", "src", ch.challenge_id, ch.code, "u", "nope", 0.0)
        assert pipeline.admit(session, 0.0) is AdmissionResult.REJECTED_CREDENTIALS

    def test_all_gates_pass(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        assert pipeline.is_admitted("src")


class TestScan:
    def test_unadmitted_source_refused(self):
        pipeline = make_pipeline()
        with pytest.raises(GateError):
            pipeline.scan(StreamObject(1, 1.0, 5.0, "ghost"))
        assert pipeline.counters["scan_refused"] == 1
        assert pipeline.counters["scanned"] == 0

    def test_first_feature_is_candidate(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 5.0, "src"))
        assert candidate is not None
        assert candidate.label is Label.OUTLIER

    def test_dense_cluster_yields_no_candidate(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        for i in range(1, 5):
            last = pipeline.scan(StreamObject(i, float(i), 5.0, "src"))
        assert last is None

    def test_isolated_feature_is_candidate(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        for i in range(1, 5):
            pipeline.scan(StreamObject(i, float(i), 5.0, "src"))
        candidate = pipeline.scan(StreamObject(9, 5.0, 50.0, "src"))
        assert candidate is not None and candidate.object_id == 9


class TestAnalyzeAndVerify:
    def test_candidate_rescued_by_late_neighbors(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 5.0, "src"))
        for i in range(2, 5):  # the verification window fills with neighbors
            pipeline.scan(StreamObject(i, 1.5, 5.0, "src"))
        assert pipeline.detector.classify(1) is Label.SAFE_INLIER
        verdict = pipeline.analyze_and_verify(candidate, now=3.0)
        assert verdict.kind is VerdictKind.ALLOW
        assert verdict.evidence == ()

    def test_still_isolated_means_block(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 50.0, "src"))
        verdict = pipeline.analyze_and_verify(candidate, now=3.0)
        assert verdict.kind is VerdictKind.BLOCK
        assert verdict.evidence == ((1, Label.OUTLIER),)
        assert verdict.link_id == candidate.link_id

    def test_expired_candidate_allowed_with_cleared_evidence(self):
        pipeline = make_pipeline(window_span=2.0, verify_delay=5.0)
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 50.0, "src"))
        verdict = pipeline.analyze_and_verify(candidate, now=6.0)
        assert verdict.kind is VerdictKind.ALLOW
        assert verdict.evidence == ()


class TestMitigate:
    def block_verdict(self, pipeline):
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 50.0, "src"))
        return pipeline.analyze_and_verify(candidate, now=3.0)

    def test_allow_is_noop(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 5.0, "src"))
        for i in range(2, 6):
            pipeline.scan(StreamObject(i, 1.2, 5.0, "src"))
        verdict = pipeline.analyze_and_verify(candidate, now=3.0)
        assert pipeline.mitigate(verdict) == []
        assert len(pipeline.blocklist) == 0

    def test_block_updates_blocklist(self):
        pipeline = make_pipeline()
        verdict = self.block_verdict(pipeline)
        pipeline.mitigate(verdict)
        assert pipeline.blocklist.is_blocked("src")
        # subsequent admission attempts are rejected at the blocklist gate
        ch = pipeline.captcha.issue(4.0)
        session = SessionRequest("s2", "src", ch.challenge_id, ch.code,
                                 "user-src", "pw", 4.0)
        assert pipeline.admit(session, 4.0) is AdmissionResult.REJECTED_BLOCKED

    def test_block_emits_one_inert_counter_probe(self):
        pipeline = make_pipeline()
        verdict = self.block_verdict(pipeline)
        pipeline.mitigate(verdict)
        assert len(pipeline.fightback_events) == 1
        event = pipeline.fightback_events[0]
        assert event.target == "src"
        assert event.link_id == verdict.link_id
        assert event.payload_tag == INERT_PAYLOAD_TAG

    def test_block_without_evidence_raises(self):
        pipeline = make_pipeline()
        verdict = dataclasses.replace(self.block_verdict(pipeline), evidence=())
        with pytest.raises(ValueError, match="no evidence"):
            pipeline.mitigate(verdict)
        assert not pipeline.blocklist.is_blocked("src")
        assert pipeline.fightback_events == []


def separable_flows(seed=0, n_flows=800):
    config = ScenarioConfig(
        seed=seed, n_flows=n_flows, bot_fraction=0.1, arrival_rate=5.0,
        n_bot_sources=1, n_legit_sources=20, topology="centralized",
    )
    return generate(config)


class TestReplay:
    def test_every_flow_gets_exactly_one_final_verdict(self):
        flows = separable_flows()
        records = replay_flows(flows, make_pipeline())
        final = [r for r in records if r["verdict"] in ("allow", "block")]
        assert sorted(r["link_id"] for r in final) == [f.flow_id for f in flows]

    def test_block_records_carry_evidence(self):
        flows = separable_flows()
        records = replay_flows(flows, make_pipeline())
        blocks = [r for r in records if r["verdict"] == "block"]
        assert blocks
        assert all(r["evidence_ids"] for r in blocks)
        allows = [r for r in records if r["verdict"] == "allow"]
        assert all(r["evidence_ids"] == [] for r in allows)

    def test_fightback_records_pair_with_source_blocks(self):
        flows = separable_flows()
        pipeline = make_pipeline()
        records = replay_flows(flows, pipeline)
        fightbacks = [r for r in records if r["verdict"] == "fight_back"]
        assert len(fightbacks) == len(pipeline.fightback_events)
        assert len(fightbacks) == len(pipeline.blocklist)
        for event in pipeline.fightback_events:
            assert event.payload_tag == INERT_PAYLOAD_TAG

    def test_byte_identical_replay(self):
        flows = separable_flows()
        a = json.dumps(replay_flows(flows, make_pipeline()))
        b = json.dumps(replay_flows(flows, make_pipeline()))
        assert a == b

    def test_scanned_counter_covers_only_admitted_unblocked_flows(self):
        flows = separable_flows()
        pipeline = make_pipeline()
        records = replay_flows(flows, pipeline)
        dropped = sum(
            1 for r in records
            if r["verdict"] == "block" and not r["evidence_ids"] == [r["link_id"]]
        )
        assert pipeline.counters["scan_refused"] == 0
        blocked_drops = sum(
            1 for f in flows
            if pipeline.blocklist.is_blocked(f.source_ref)
            and f.timestamp > pipeline.blocklist.blocked_at(f.source_ref)
        )
        assert pipeline.counters["scanned"] == len(flows) - blocked_drops

    def test_record_fields_are_normative(self):
        flows = separable_flows(n_flows=50)
        records = replay_flows(flows, make_pipeline())
        for record in records:
            assert set(record) == {
                "decided_at", "session_id", "source_ref", "verdict",
                "evidence_ids", "link_id",
            }
