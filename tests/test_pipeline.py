import hashlib
import json
import math
import os
import random
import string
import tracemalloc

import pytest

from botguard import (
    AdmissionResult, CaptchaGate, ConfigurationError, CredentialStore, Detector,
    DetectorParams, DetectionPipeline, FightBackEvent, GateError,
    INERT_PAYLOAD_TAG, Label, FlowRecord, OrderingError, ScenarioConfig,
    SessionRequest, StreamObject, VerdictKind, generate, replay_flows,
)
from botguard import pipeline as pipeline_module


def replace(record, **changes):
    """A new record of ``record``'s type, built from its fields with
    ``changes`` made; an unknown field name raises ``TypeError``."""
    names = getattr(record, "_fields", None) or record.__slots__
    return type(record)(**{**{name: getattr(record, name) for name in names},
                           **changes})


def make_pipeline(verify_delay=2.0, **detector_kw):
    params = dict(radius=1.0, neighbor_threshold=3, window_span=16.0)
    params.update(detector_kw)
    return DetectionPipeline(
        Detector(DetectorParams(**params)),
        CaptchaGate(seed=0),
        CredentialStore(salt_seed=0),
        verify_delay=verify_delay,
    )


@pytest.fixture
def pbkdf2_calls(monkeypatch):
    """Iteration count of every ``hashlib.pbkdf2_hmac`` call made while the
    test runs, worker threads included."""
    calls = []
    original = hashlib.pbkdf2_hmac

    def counting(hash_name, password, salt, iterations, *rest):
        calls.append(iterations)
        return original(hash_name, password, salt, iterations, *rest)

    monkeypatch.setattr(hashlib, "pbkdf2_hmac", counting)
    return calls


def admit_source(pipeline, source, now=0.0):
    challenge = pipeline.captcha.issue(now)
    pipeline.credentials.register([(f"user-{source}", "pw")])
    session = SessionRequest(
        source_ref=source,
        challenge_id=challenge.challenge_id,
        captcha_answer=challenge.code,
        username=f"user-{source}",
        password="pw",
    )
    assert pipeline.admit([(session, now)]) == [AdmissionResult.ADMITTED]
    return session


class TestCaptcha:
    def test_issue_shape(self):
        gate = CaptchaGate(seed=1)
        challenge = gate.issue(0.0)
        assert len(challenge.code) == 6
        assert set(challenge.code) <= set(string.ascii_uppercase + string.digits)
        assert gate.ttl == 120.0

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

    def test_nan_time_or_ttl_never_passes_expiry(self):
        # every comparison with NaN is false, so the test must ask whether
        # the age is within the ttl, not whether it is past it
        gate = CaptchaGate(seed=2)
        ch = gate.issue(0.0)
        assert not gate.verify(ch.challenge_id, ch.code, float("nan"))
        gate = CaptchaGate(seed=2, ttl=float("nan"))
        ch = gate.issue(0.0)
        assert not gate.verify(ch.challenge_id, ch.code, 1e9)
        pipeline = make_pipeline()
        pipeline.credentials.register([("u", "p")])
        ch = pipeline.captcha.issue(0.0)
        session = SessionRequest("src", ch.challenge_id, ch.code, "u", "p")
        assert pipeline.admit([(session, float("nan"))]) == [
            AdmissionResult.REJECTED_CAPTCHA]

    @pytest.mark.parametrize("now", [1.0, 5.0 - 1e-9, float("-inf")])
    def test_answer_before_issue_fails(self, now):
        # the age must lie between 0 and the ttl
        gate = CaptchaGate(seed=2)
        ch = gate.issue(5.0)
        assert not gate.verify(ch.challenge_id, ch.code, now)
        # positive control: an answer at the issue time itself passes
        ch = gate.issue(5.0)
        assert gate.verify(ch.challenge_id, ch.code, 5.0)

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
        store.register([("alice", "secret")])
        assert store.authenticate([("alice", "secret")]) == [True]

    def test_wrong_password(self):
        store = CredentialStore()
        store.register([("alice", "secret")])
        assert store.authenticate([("alice", "wrong")]) == [False]

    def test_unknown_user(self):
        store = CredentialStore()
        assert store.authenticate([("nobody", "whatever")]) == [False]

    def test_no_plaintext_stored(self):
        store = CredentialStore()
        store.register([("alice", "hunter2-plaintext")])
        blob = repr(store.__dict__)
        assert "hunter2-plaintext" not in blob

    def test_register_batch_matches_one_pair_batches(self):
        pairs = [("carol", "c"), ("alice", "a"), ("bob", "b"), ("alice", "a2")]
        batch, sequential = CredentialStore(salt_seed=9), CredentialStore(salt_seed=9)
        batch.register(pairs)
        for pair in pairs:
            sequential.register([pair])
        rng = random.Random(9)
        expected = {}
        for username, password in pairs:
            salt = rng.randbytes(16)
            digest = hashlib.pbkdf2_hmac("sha256", password.encode(), salt, 10_000)
            expected[username] = (salt, digest)
        assert batch._users == expected
        assert sequential._users == expected

    def test_authenticate_batch_matches_one_pair_batches(self):
        store = CredentialStore(salt_seed=1)
        store.register([("alice", "a"), ("bob", "b")])
        attempts = [("alice", "a"), ("bob", "a"), ("mallory", "a"), ("bob", "b"),
                    ("alice", "")]
        expected = [match for pair in attempts for match in store.authenticate([pair])]
        assert expected == [True, False, False, True, False]
        assert store.authenticate(attempts) == expected
        assert store.authenticate([]) == []

    def test_unencodable_password_rejected(self):
        store = CredentialStore(salt_seed=4)
        with pytest.raises(ValueError, match="UTF-8"):
            store.register([("valid", "\ud800")])
        with pytest.raises(ValueError, match="UTF-8"):
            store.register([("valid", "pw"), ("other", "a\udfffb")])
        # nothing stored and no salt drawn: the store matches a fresh one
        fresh = CredentialStore(salt_seed=4)
        assert store._users == fresh._users == {}
        assert store._salt_rng.getstate() == fresh._salt_rng.getstate()
        store.register([("host-1.example", "pw")])
        fresh.register([("host-1.example", "pw")])
        assert store._users == fresh._users

    def test_any_username_registers(self):
        # a username is only a key: separators, line breaks, leading
        # whitespace and lone surrogates are all accepted
        names = ["a:b", "a\nb", " alice", "\ud800"]
        store = CredentialStore(salt_seed=6)
        store.register([(name, f"pw-{i}") for i, name in enumerate(names)])
        attempts = [(name, f"pw-{i}") for i, name in enumerate(names)]
        assert store.authenticate(attempts) == [True] * len(names)
        assert store.authenticate([("alice", "pw-2"), ("a", "pw-0")]) == \
            [False, False]

    def test_one_full_derivation_per_attempt(self, pbkdf2_calls):
        assert CredentialStore.ITERATIONS == 10_000
        store = CredentialStore()
        assert pbkdf2_calls == []
        assert store.authenticate([("nobody", "")]) == [False]
        assert pbkdf2_calls == [10_000]
        store.register([("alice", "a")])
        assert store.authenticate([("alice", "a")]) == [True]
        assert store.authenticate([("alice", "a"), ("alice", "a")]) == [True, True]
        assert pbkdf2_calls == [10_000] * 5
        # a password UTF-8 cannot encode is a failed attempt at the same cost
        assert store.authenticate([("alice", "\ud800")]) == [False]
        assert pbkdf2_calls == [10_000] * 6
        assert store.authenticate([("alice", "a\udfff"), ("alice", "a")]) == \
            [False, True]
        assert pbkdf2_calls == [10_000] * 8

    def test_pool_sized_by_usable_cpus(self, monkeypatch):
        import concurrent.futures
        pools = []
        original = concurrent.futures.ThreadPoolExecutor

        def spy(max_workers=None, **kw):
            pools.append(max_workers)
            return original(max_workers=max_workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        store = CredentialStore(salt_seed=2)
        store.register([("alice", "a")])
        assert store.authenticate([("alice", "a")]) == [True]
        assert pools == []  # a single derivation runs on the calling thread
        store.register([("bob", "b"), ("carol", "c"), ("dave", "d")])
        assert store.authenticate([("bob", "b"), ("carol", "x")]) == \
            [True, False]
        assert pools == [2, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert store.authenticate([("bob", "b"), ("dave", "d")]) == \
            [True, True]
        assert pools == [2, 2]

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        # a platform without sched_getaffinity counts every CPU of the host
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pipeline_module._usable_cpus() == 3
        # os.cpu_count() is None where the count cannot be read
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pipeline_module._usable_cpus() == 1


class TestSettings:
    @pytest.mark.parametrize("delay", [-5.0, math.nan, math.inf, 10 ** 400, True, "2"])
    def test_bad_verify_delay_refused_when_built(self, delay):
        # not at replay, where it would fail in the deadline arithmetic or
        # blame the stream's order
        with pytest.raises(ConfigurationError, match="pipeline.verify_delay"):
            make_pipeline(verify_delay=delay)

    @pytest.mark.parametrize("delay", [0, 2])
    def test_int_verify_delay_accepted(self, delay):
        assert make_pipeline(verify_delay=delay).verify_delay == delay


class TestAdmission:
    def test_gate_order_blocked_wins(self):
        pipeline = make_pipeline()
        pipeline.blocklist["src"] = ()
        ch = pipeline.captcha.issue(0.0)
        pipeline.credentials.register([("u", "p")])
        session = SessionRequest("src", ch.challenge_id, ch.code, "u", "p")
        assert pipeline.admit([(session, 0.0)]) == [AdmissionResult.REJECTED_BLOCKED]
        # captcha was never consumed: the blocklist short-circuited
        assert pipeline.captcha.verify(ch.challenge_id, ch.code, 1.0)

    def test_captcha_failure_short_circuits_credentials(self, pbkdf2_calls):
        pipeline = make_pipeline()
        pipeline.credentials.register([("u", "p")])
        pipeline.credentials.register([("v", "q")])
        ch = pipeline.captcha.issue(0.0)
        session = SessionRequest("src", ch.challenge_id, "WRONG!", "u", "p")
        calls = []
        original = pipeline.credentials.authenticate

        def spy(pairs):
            pairs = list(pairs)
            calls.extend(pairs)
            return original(pairs)

        pipeline.credentials.authenticate = spy
        pbkdf2_calls.clear()
        assert pipeline.admit([(session, 0.0)]) == [AdmissionResult.REJECTED_CAPTCHA]
        # no pair reached the credential gate, and no key was derived
        assert calls == [] and pbkdf2_calls == []
        # positive control: a session with a valid captcha reaches the spy
        ch = pipeline.captcha.issue(1.0)
        valid = SessionRequest("src2", ch.challenge_id, ch.code, "v", "q")
        assert pipeline.admit([(valid, 1.0)]) == [AdmissionResult.ADMITTED]
        assert calls == [("v", "q")] and pbkdf2_calls == [10_000]

    def test_bad_credentials(self):
        pipeline = make_pipeline()
        ch = pipeline.captcha.issue(0.0)
        session = SessionRequest("src", ch.challenge_id, ch.code, "u", "nope")
        assert pipeline.admit([(session, 0.0)]) == [AdmissionResult.REJECTED_CREDENTIALS]

    def test_all_gates_pass(self):
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        assert pipeline.is_admitted("src")

    def test_admit_batch_matches_one_request_batches(self):
        def mixed_batch(pipeline):
            pipeline.blocklist["blocked"] = ()
            pipeline.credentials.register([("u", "p"), ("w", "r")])
            cases = [  # (source, wrong captcha, username, password)
                ("blocked", False, "u", "p"),
                ("src-a", True, "u", "p"),
                ("src-b", False, "u", "nope"),
                ("src-c", False, "ghost", "p"),
                ("src-d", False, "u", "p"),
                ("src-e", False, "w", "r"),
            ]
            batch = []
            for i, (source, wrong, username, password) in enumerate(cases):
                ch = pipeline.captcha.issue(float(i))
                answer = "WRONG!" if wrong else ch.code
                session = SessionRequest(source, ch.challenge_id,
                                         answer, username, password)
                batch.append((session, float(i)))
            return batch

        single, batched = make_pipeline(), make_pipeline()
        one_by_one = [result for request in mixed_batch(single)
                      for result in single.admit([request])]
        requests = mixed_batch(batched)
        assert batched.admit(requests) == one_by_one == [
            AdmissionResult.REJECTED_BLOCKED,
            AdmissionResult.REJECTED_CAPTCHA,
            AdmissionResult.REJECTED_CREDENTIALS,
            AdmissionResult.REJECTED_CREDENTIALS,
            AdmissionResult.ADMITTED,
            AdmissionResult.ADMITTED,
        ]
        assert batched.counters == single.counters == {
            "admitted": 2, "rejected": 4, "scanned": 0, "scan_refused": 0,
        }
        for source in ("blocked", "src-a", "src-b", "src-c", "src-d", "src-e"):
            assert batched.is_admitted(source) == single.is_admitted(source)
        assert batched.is_admitted("src-e") and not batched.is_admitted("src-b")
        # the blocklist short-circuited, so the blocked session's challenge
        # was never consumed
        blocked = requests[0][0]
        assert batched.captcha.verify(blocked.challenge_id, blocked.captcha_answer, 1.0)


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
        assert pipeline.detector.classify(candidate.object_id) is Label.OUTLIER

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
        assert verdict.evidence == (1,)
        assert verdict.link_id == candidate.object_id

    def test_expired_candidate_allowed_with_cleared_evidence(self):
        pipeline = make_pipeline(window_span=2.0, verify_delay=5.0)
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 50.0, "src"))
        verdict = pipeline.analyze_and_verify(candidate, now=6.0)
        assert verdict.kind is VerdictKind.ALLOW
        assert verdict.evidence == ()

    @pytest.mark.parametrize("now, message", [
        (0.5, "time regression: 0.5 < current time 1.0"),
        (math.nan, "non-finite window time nan"),
    ], ids=["earlier", "nan"])
    def test_time_before_the_window_raises(self, now, message):
        # such a verdict would be decided at the window's time, 1.0
        pipeline = make_pipeline()
        admit_source(pipeline, "src")
        candidate = pipeline.scan(StreamObject(1, 1.0, 50.0, "src"))
        with pytest.raises(OrderingError, match=message):
            pipeline.analyze_and_verify(candidate, now=now)


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
        assert pipeline.mitigate(verdict) is None
        assert len(pipeline.blocklist) == 0

    def test_block_updates_blocklist(self):
        pipeline = make_pipeline()
        verdict = self.block_verdict(pipeline)
        pipeline.mitigate(verdict)
        assert "src" in pipeline.blocklist
        # subsequent admission attempts are rejected at the blocklist gate
        ch = pipeline.captcha.issue(4.0)
        session = SessionRequest("src", ch.challenge_id, ch.code,
                                 "user-src", "pw")
        assert pipeline.admit([(session, 4.0)]) == [AdmissionResult.REJECTED_BLOCKED]

    def test_block_emits_one_inert_counter_probe(self):
        pipeline = make_pipeline()
        verdict = self.block_verdict(pipeline)
        event = pipeline.mitigate(verdict)
        assert type(event) is FightBackEvent
        assert event.target == "src"
        assert event.link_id == verdict.link_id == 1
        assert event.payload_tag == INERT_PAYLOAD_TAG

    def test_counter_probe_takes_no_payload(self):
        with pytest.raises(TypeError):
            FightBackEvent("src", 1, payload_tag="x")

    def test_block_without_evidence_raises(self):
        pipeline = make_pipeline()
        verdict = replace(self.block_verdict(pipeline), evidence=())
        with pytest.raises(ValueError, match="no evidence"):
            pipeline.mitigate(verdict)
        assert "src" not in pipeline.blocklist
        assert len(pipeline.blocklist) == 0


def separable_flows(seed=0, n_flows=800):
    config = ScenarioConfig(
        seed=seed, n_flows=n_flows, bot_fraction=0.1, arrival_rate=5.0,
        n_bot_sources=1, n_legit_sources=20, topology="centralized",
    )
    return list(generate(config))


def late_source_flows():
    """3 000 separable flows in which source ``host-late`` first appears at
    flow 2002, long after every other source."""
    return [replace(f, source_ref="host-late")
            if i >= 2000 and i % 7 == 0 else f
            for i, f in enumerate(separable_flows(n_flows=3000))]


def steady_flows(n):
    """``n`` flows at 5 flows/s, made one at a time: 20 legit sources near
    one feature value and one far-off bot source."""
    for i in range(n):
        if i % 10 == 9:
            yield FlowRecord(i, i / 5.0, "bot-000", "c2-entry", "IRC",
                             1e6, 1.0, "irc_bot")
        else:
            yield FlowRecord(i, i / 5.0, f"host-{i % 20:03d}", "svc-0", "HTTP",
                             float(100 + i % 7), 1.0, "legit")


class TestReplay:
    def test_every_flow_gets_exactly_one_final_verdict(self):
        flows = separable_flows()
        records = list(replay_flows(flows, make_pipeline()))
        final = [r for r in records if r["verdict"] in ("allow", "block")]
        assert sorted(r["link_id"] for r in final) == [f.flow_id for f in flows]

    def test_block_records_carry_evidence(self):
        flows = separable_flows()
        records = list(replay_flows(flows, make_pipeline()))
        blocks = [r for r in records if r["verdict"] == "block"]
        assert blocks
        assert all(r["evidence_ids"] for r in blocks)
        allows = [r for r in records if r["verdict"] == "allow"]
        assert all(r["evidence_ids"] == [] for r in allows)

    def test_fightback_records_pair_with_source_blocks(self):
        flows = separable_flows()
        pipeline = make_pipeline()
        records = list(replay_flows(flows, pipeline))
        fightbacks = [r for r in records if r["verdict"] == "fight_back"]
        assert fightbacks and len(fightbacks) == len(pipeline.blocklist)
        assert all(r["source_ref"] in pipeline.blocklist for r in fightbacks)

    def test_fightback_records_are_the_events_mitigate_returns(self, monkeypatch):
        events = []
        mitigate = DetectionPipeline.mitigate

        def recording(pipeline, verdict):
            event = mitigate(pipeline, verdict)
            if event is not None:
                events.append(event)
            return event

        monkeypatch.setattr(DetectionPipeline, "mitigate", recording)
        for flows in (separable_flows(), late_source_flows()):
            events.clear()
            records = list(replay_flows(flows, make_pipeline()))
            probes = [(r["source_ref"], r["link_id"]) for r in records
                      if r["verdict"] == "fight_back"]
            assert probes and probes == [(e.target, e.link_id) for e in events]
            assert all(type(e) is FightBackEvent for e in events)

    def test_byte_identical_replay(self):
        flows = separable_flows()
        a = json.dumps(list(replay_flows(flows, make_pipeline())))
        b = json.dumps(list(replay_flows(flows, make_pipeline())))
        assert a == b

    def test_scanned_counter_covers_only_admitted_unblocked_flows(self):
        flows = separable_flows()
        pipeline = make_pipeline()
        records = list(replay_flows(flows, pipeline))
        assert pipeline.counters["scan_refused"] == 0
        # each blocked source has one fight_back record, logged when it was blocked
        block_time = {r["source_ref"]: r["decided_at"]
                      for r in records if r["verdict"] == "fight_back"}
        assert block_time and len(block_time) == len(pipeline.blocklist)
        assert all(s in pipeline.blocklist for s in block_time)
        blocked_drops = sum(
            1 for f in flows
            if f.source_ref in block_time and f.timestamp > block_time[f.source_ref]
        )
        assert pipeline.counters["scanned"] == len(flows) - blocked_drops
        # a block that cites other evidence is a flow dropped at the gate, at
        # its own time, or one dropped while pending, verify_delay after it
        timestamps = {f.flow_id: f.timestamp for f in flows}
        at_gate, while_pending = [], []
        for r in records:
            if r["verdict"] == "block" and r["evidence_ids"] != [r["link_id"]]:
                t = timestamps[r["link_id"]]
                if r["decided_at"] == round(t, 9):
                    at_gate.append(r)
                else:
                    assert r["decided_at"] == round(t + pipeline.verify_delay, 9)
                    while_pending.append(r)
        assert len(at_gate) == blocked_drops
        assert while_pending

    def test_source_blocked_before_replay_raises(self):
        # replay holds no evidence for a block it did not decide, and a
        # block record must carry evidence
        flows = separable_flows()
        pipeline = make_pipeline()
        source = flows[5].source_ref
        pipeline.blocklist[source] = ()
        records = replay_flows(flows, pipeline)
        with pytest.raises(ValueError, match=f"source '{source}' is blocked"):
            for record in records:
                assert record["source_ref"] != source
        assert pipeline.counters["scan_refused"] == 0

    def test_source_blocked_while_pending_raises(self):
        # bot-000's flow 9 awaits verification when the source is blocked
        # from outside replay; no verification gave evidence for its block
        pipeline = make_pipeline()
        links = []
        with pytest.raises(ValueError, match="source 'bot-000' is blocked"):
            for record in replay_flows(steady_flows(40), pipeline):
                links.append(record["link_id"])
                if record["link_id"] == 10:
                    pipeline.blocklist["bot-000"] = ()
        assert 10 in links and 9 not in links

    def test_nothing_is_read_or_derived_before_the_first_record(
            self, pbkdf2_calls):
        flows = late_source_flows()
        reads, issued = [], []

        def counted():
            for flow in flows:
                reads.append(flow.flow_id)
                yield flow

        pipeline = make_pipeline()
        issue = pipeline.captcha.issue
        pipeline.captcha.issue = lambda now: issued.append(now) or issue(now)
        records = replay_flows(counted(), pipeline)
        assert reads == [] and issued == [] and pbkdf2_calls == []
        assert pipeline.counters["admitted"] == 0
        next(records)
        block = flows[:pipeline_module._BLOCK]
        sources = {flow.source_ref for flow in block}
        assert reads == [flow.flow_id for flow in block]
        assert "host-late" not in sources
        assert pipeline.counters["admitted"] == len(sources)
        assert all(pipeline.is_admitted(source) for source in sources)
        assert not pipeline.is_admitted("host-late")
        assert len(issued) == len(sources)
        assert pbkdf2_calls == [10_000] * (2 * len(sources))

    def test_gates_run_only_for_blocks_with_a_new_source(self, monkeypatch):
        # four blocks of 5 flows; new sources appear in blocks 1 and 3 only
        flows = [FlowRecord(i, i / 5.0, "host-b" if i >= 10 and i % 2 else "host-a",
                            "svc-0", "HTTP", float(100 + i % 7), 1.0, "legit")
                 for i in range(20)]
        expected = list(replay_flows(flows, make_pipeline()))
        calls = []
        for cls, name in ((CredentialStore, "register"),
                          (DetectionPipeline, "admit")):
            def counted(self, batch, original=getattr(cls, name), name=name):
                batch = list(batch)
                calls.append((name, len(batch)))
                return original(self, batch)
            monkeypatch.setattr(cls, name, counted)
        monkeypatch.setattr(pipeline_module, "_BLOCK", 5)
        pipeline = make_pipeline()
        assert list(replay_flows(flows, pipeline)) == expected
        # one call each per new source's block, never an empty batch
        assert calls == [("register", 1), ("admit", 1), ("register", 1), ("admit", 1)]
        assert pipeline.counters["admitted"] == 2

    def test_decreasing_timestamp_raises_on_the_first_record(self):
        flows = separable_flows()
        flows[500] = replace(flows[500], timestamp=flows[499].timestamp - 1.0)
        pipeline = make_pipeline()
        records = replay_flows(flows, pipeline)
        with pytest.raises(OrderingError, match="flow 500 timestamp"):
            next(records)
        assert pipeline.counters["admitted"] == 0

    def test_records_and_counters_unchanged(self):
        # sha256 of the records and counters as the per-flow admission
        # replay produced them, before sessions were set up in one batch
        flows = separable_flows()
        pipeline = make_pipeline()
        records = list(replay_flows(flows, pipeline))
        blob = json.dumps(records) + json.dumps(pipeline.counters, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "7bca2fd3c5fba5034c2147d85f2a209c4e1ea16c39a42e229564a39370522a55"
        )

    def test_source_ref_with_colon(self):
        # a source_ref is any string; replay's usernames must not inherit ':'
        flows = separable_flows(n_flows=200)
        names = {}
        for flow in flows:
            names.setdefault(flow.source_ref, f"10.0.0.{len(names)}:443")
        names[flows[0].source_ref] = "::1"
        renamed = [replace(f, source_ref=names[f.source_ref])
                   for f in flows]
        expected = list(replay_flows(flows, make_pipeline()))
        records = list(replay_flows(renamed, make_pipeline()))
        for record in expected:
            record["source_ref"] = names[record["source_ref"]]
        assert records == expected

    def test_source_ref_not_encodable(self):
        # a lone surrogate is valid JSON text; replay's passwords must not
        # inherit it, or PBKDF2 cannot encode them
        flows = separable_flows(n_flows=200)
        names = {flows[0].source_ref: "\ud800", flows[1].source_ref: " x\n"}
        renamed = [replace(f, source_ref=names.get(f.source_ref, f.source_ref))
                   for f in flows]
        expected = list(replay_flows(flows, make_pipeline()))
        records = list(replay_flows(renamed, make_pipeline()))
        for record in expected:
            record["source_ref"] = names.get(record["source_ref"],
                                             record["source_ref"])
        assert records == expected

    def test_flow_ids_beyond_64_bits(self):
        # a trace's flow_id is any JSON integer that increases, and it is the
        # flow's link_id and its id in evidence
        def shift(flow_id):
            return flow_id + 2 ** 64 + 2 ** 65 * (flow_id >= 100)

        flows = separable_flows(n_flows=200)
        shifted = [replace(f, flow_id=shift(f.flow_id)) for f in flows]
        expected = list(replay_flows(flows, make_pipeline()))
        records = list(replay_flows(shifted, make_pipeline()))
        assert any(r["verdict"] == "fight_back" for r in expected)
        for record in expected:
            record["link_id"] = shift(record["link_id"])
            record["evidence_ids"] = [shift(i) for i in record["evidence_ids"]]
        assert records == expected

    def test_records_and_counters_unchanged_with_a_late_source(self):
        # sha256 of the records and counters as replay produced them when it
        # set up every session before the first flow
        flows = late_source_flows()
        pipeline = make_pipeline()
        records = list(replay_flows(flows, pipeline))
        blob = json.dumps(records) + json.dumps(pipeline.counters, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "910b786948dd475a66f4341974c5e81b4b4494f32ef0a712ee058d6866a3cc29"
        )

    def test_two_full_derivations_per_source(self, pbkdf2_calls):
        for flows in (separable_flows(), late_source_flows()):
            sources = {flow.source_ref for flow in flows}
            pbkdf2_calls.clear()
            list(replay_flows(flows, make_pipeline()))
            assert pbkdf2_calls == [10_000] * (2 * len(sources))

    def test_memory_follows_the_window(self):
        # about 80 objects stay live however long the trace, so 32k flows
        # may cost replay little more traced memory than 2k
        list(replay_flows(steady_flows(2000), make_pipeline()))  # warm-up
        peaks = {}
        for n in (2000, 32_000):
            tracemalloc.start()
            try:
                for _ in replay_flows(steady_flows(n), make_pipeline()):
                    pass
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[32_000] - peaks[2000] < 0.25 * 2 ** 20, peaks

    def test_record_fields_are_normative(self):
        flows = separable_flows(n_flows=50)
        records = list(replay_flows(flows, make_pipeline()))
        for record in records:
            assert set(record) == {
                "decided_at", "session_id", "source_ref", "verdict",
                "evidence_ids", "link_id",
            }
