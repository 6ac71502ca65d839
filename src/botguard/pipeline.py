"""Three-layer admission, analysis and mitigation pipeline.

Incoming sessions pass a blocklist check, a captcha gate and a credential
gate, strictly in that order; the blocklist is a plain set of source refs.
Admitted sources feed flow features into the stream detector; an outlier
candidate is re-classified after a verification delay (double check) and only
blocked if it is still an outlier.  Mitigation adds the source to the
blocklist and returns one inert counter-probe event on the link the offending
data arrived on; the verdict log's ``fight_back`` record is that event.  No
mitigation action ever carries an executable payload.

Replay reads the trace a block of flows at a time: it sets up the session of
each source first seen in a block, then scans the block's stream objects and
hands out the verdict log one record at a time, so it holds no state per flow
beyond the block and the detector's window.  The PBKDF2 work of a credential
batch runs on every CPU the process may use, at the unchanged iteration
count: one full derivation per registration and per authentication attempt.
"""

import hashlib
import hmac
import math
import os
import random
import string
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import ClassVar

from .errors import GateError, OrderingError, UnknownObjectError
from .simulate import to_stream
from .stream import Label

CAPTCHA_ALPHABET = string.ascii_uppercase + string.digits
CAPTCHA_LENGTH = 6
DEFAULT_CAPTCHA_TTL = 120.0
DEFAULT_VERIFY_DELAY = 2.0

# The only payload mitigation is ever allowed to reference: a constant,
# inert marker string.  The counter-probe is a log record, nothing more.
INERT_PAYLOAD_TAG = "inert-counter-probe"

# replay reads the trace, and sets up its new sessions, this many flows at a time
_BLOCK = 1024


class AdmissionResult(Enum):
    ADMITTED = "admitted"
    REJECTED_CAPTCHA = "rejected_captcha"
    REJECTED_CREDENTIALS = "rejected_credentials"
    REJECTED_BLOCKED = "rejected_blocked"


class VerdictKind(Enum):
    ALLOW = "allow"
    BLOCK = "block"
    FIGHT_BACK = "fight_back"


@dataclass(frozen=True)
class CaptchaChallenge:
    challenge_id: str
    code: str
    issued_at: float


@dataclass(frozen=True)
class SessionRequest:
    source_ref: str
    challenge_id: str
    captcha_answer: str
    username: str
    password: str


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    subject: str
    evidence: tuple  # object ids, nonempty for Block
    link_id: int


@dataclass(frozen=True)
class FightBackEvent:
    target: str
    link_id: int
    # a class constant, not a field, so no counter-probe can carry a payload
    payload_tag: ClassVar[str] = INERT_PAYLOAD_TAG


class CaptchaGate:
    """Single-use, time-limited alphanumeric challenges from a seeded RNG."""

    def __init__(self, seed=0, ttl=DEFAULT_CAPTCHA_TTL):
        self._rng = random.Random(seed)
        self.ttl = ttl
        self._pending = {}
        self._issued = 0

    def issue(self, now) -> CaptchaChallenge:
        self._issued += 1
        code = "".join(self._rng.choice(CAPTCHA_ALPHABET) for _ in range(CAPTCHA_LENGTH))
        challenge = CaptchaChallenge(f"ch-{self._issued:06d}", code, now)
        self._pending[challenge.challenge_id] = challenge
        return challenge

    def verify(self, challenge_id, answer, now) -> bool:
        # consumed on first attempt regardless of outcome; unknown ids are
        # indistinguishable from expired ones
        challenge = self._pending.pop(challenge_id, None)
        if challenge is None:
            return False
        if now - challenge.issued_at > self.ttl:
            return False
        return answer == challenge.code


class CredentialStore:
    """Salted PBKDF2 credential map; plaintext passwords are never stored.

    Every registration and every authentication attempt runs one full
    derivation at ``ITERATIONS``; no derived key is cached or reused.  The
    ``_many`` methods derive a batch's keys on every usable CPU.
    """

    ITERATIONS = 10_000

    def __init__(self, salt_seed=0):
        self._users = {}
        self._salt_rng = random.Random(salt_seed)
        # an unknown user still pays one full derivation against the dummy
        # salt; membership is checked as well, so the placeholder digest
        # never admits anyone
        self._dummy_salt = b"\x00" * 16
        self._dummy_hash = bytes(32)

    def register(self, username, password):
        self.register_many([(username, password)])

    def register_many(self, pairs):
        """Register ``(username, password)`` pairs in order.  A password that
        UTF-8 cannot encode raises ``ValueError`` before any salt is drawn, so
        a rejected batch changes neither the store nor the salt sequence."""
        pairs = list(pairs)
        for _, password in pairs:
            _check_password(password)
        salts = [self._salt_rng.randbytes(16) for _ in pairs]
        digests = _derive_keys(
            [(password, salt) for (_, password), salt in zip(pairs, salts)],
            self.ITERATIONS,
        )
        for (username, _), salt, digest in zip(pairs, salts, digests):
            self._users[username] = (salt, digest)

    def authenticate(self, username, password) -> bool:
        return self.authenticate_many([(username, password)])[0]

    def authenticate_many(self, pairs) -> list:
        """One bool per ``(username, password)`` attempt, in order.  A password
        that UTF-8 cannot encode is a failed attempt at the same cost."""
        pairs = list(pairs)
        # unknown users run the same hash work as wrong passwords
        stored = [self._users.get(username, (self._dummy_salt, self._dummy_hash))
                  for username, _ in pairs]
        digests = _derive_keys(
            [(password, salt) for (_, password), (salt, _) in zip(pairs, stored)],
            self.ITERATIONS,
        )
        return [hmac.compare_digest(digest, expected) and username in self._users
                for (username, _), (_, expected), digest in zip(pairs, stored, digests)]


def _check_password(password):
    try:
        password.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("password is not encodable as UTF-8") from None


def _derive_keys(jobs, iterations):
    """PBKDF2-SHA256 key of each ``(password, salt)`` job, in input order.

    ``hashlib.pbkdf2_hmac`` releases the GIL, so a batch runs on one thread
    per CPU this process may use; a single job runs on the calling thread.
    The worker threads run this derivation and nothing else.
    """
    def derive(job):
        password, salt = job
        # "surrogatepass" gives the UTF-8 bytes of every encodable password;
        # the bytes of a lone surrogate are not UTF-8, so they match no key
        # that register stored
        return hashlib.pbkdf2_hmac(
            "sha256", password.encode("utf-8", "surrogatepass"), salt, iterations
        )

    workers = min(len(jobs), _usable_cpus())
    if workers <= 1:
        return [derive(job) for job in jobs]
    # imported here, not at module level: it pulls in logging, which start-up
    # need not pay for
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(derive, jobs))


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class DetectionPipeline:
    """Admission gates in front of the scan / analyze-and-verify detector.
    ``blocklist`` is the plain set of blocked source refs; ``mitigate`` adds to it."""

    def __init__(self, detector, captcha: CaptchaGate, credentials: CredentialStore,
                 verify_delay=DEFAULT_VERIFY_DELAY):
        self.detector = detector
        self.captcha = captcha
        self.credentials = credentials
        self.blocklist = set()
        self.verify_delay = verify_delay
        self.counters = {
            "admitted": 0,
            "rejected": 0,
            "scanned": 0,
            "scan_refused": 0,
        }
        self._admitted_sources = set()

    def admit(self, session: SessionRequest, now) -> AdmissionResult:
        """Admit one session; see ``admit_many``."""
        return self.admit_many([(session, now)])[0]

    def admit_many(self, requests) -> list:
        """Admit ``(session, now)`` requests in order, one result each.

        Each session meets the gates strictly in order blocklist -> captcha
        -> credentials, and its first failure short-circuits.  The sessions
        that pass the first two gates share one credential batch.
        """
        requests = list(requests)
        results = []
        for session, now in requests:
            if session.source_ref in self.blocklist:
                results.append(AdmissionResult.REJECTED_BLOCKED)
            elif not self.captcha.verify(session.challenge_id,
                                         session.captcha_answer, now):
                results.append(AdmissionResult.REJECTED_CAPTCHA)
            else:
                results.append(None)  # decided by the credential gate
        matches = iter(self.credentials.authenticate_many(
            [(session.username, session.password)
             for (session, _), result in zip(requests, results) if result is None]))
        for i, (session, _) in enumerate(requests):
            if results[i] is None:
                results[i] = (AdmissionResult.ADMITTED if next(matches)
                              else AdmissionResult.REJECTED_CREDENTIALS)
            if results[i] is AdmissionResult.ADMITTED:
                self.counters["admitted"] += 1
                self._admitted_sources.add(session.source_ref)
            else:
                self.counters["rejected"] += 1
        return results

    def is_admitted(self, source_ref) -> bool:
        return (source_ref in self._admitted_sources
                and source_ref not in self.blocklist)

    def scan(self, obj):
        """Insert one flow feature; return ``obj`` iff it is an outlier, as a
        candidate that awaits verification, else ``None``."""
        if not self.is_admitted(obj.source_ref):
            self.counters["scan_refused"] += 1
            raise GateError(
                f"source {obj.source_ref!r} has no admitted session"
            )
        label = self.detector.insert(obj)
        self.counters["scanned"] += 1
        return obj if label is Label.OUTLIER else None

    def analyze_and_verify(self, candidate, now) -> Verdict:
        """Second-pass check: block only if the candidate stream object is
        still an outlier and still live once the verification delay has
        elapsed.  The verdict's link is the object's id, its flow id."""
        if now > self.detector.current_time:
            self.detector.advance_time(now)
        try:
            label = self.detector.classify(candidate.object_id)
        except UnknownObjectError:
            # expired before verification: no live evidence remains
            label = None
        object_id, source = candidate.object_id, candidate.source_ref
        if label is Label.OUTLIER:
            return Verdict(VerdictKind.BLOCK, source, (object_id,), object_id)
        return Verdict(VerdictKind.ALLOW, source, (), object_id)

    def mitigate(self, verdict: Verdict):
        """Apply a verdict: Allow is a no-op that returns ``None``; Block
        updates the blocklist and returns exactly one inert counter-probe on
        the offending link.  A Block without evidence raises ``ValueError``
        and changes nothing."""
        if verdict.kind is VerdictKind.ALLOW:
            return None
        if not verdict.evidence:
            raise ValueError(f"block verdict for {verdict.subject!r} carries no evidence")
        self.blocklist.add(verdict.subject)
        return FightBackEvent(target=verdict.subject, link_id=verdict.link_id)


def replay_flows(flows, pipeline: DetectionPipeline):
    """Drive a timestamp-ordered trace through the pipeline end to end.

    ``flows`` is read through ``to_stream`` ``_BLOCK`` flows at a time.
    Before a block is scanned, each source first seen in it, in order of
    first appearance, gets one synthetic session that is registered and
    admitted with a valid captcha issued at the source's first timestamp, so
    detection is exercised on the flow features.  A block's sessions share
    one credential batch on every usable CPU.  This call sets up the first
    block before it returns.
    Returns an iterator over the verdict log, which replays the flows as it
    is consumed: one Allow/Block record per flow plus one FightBack record
    per block, all JSON-ready.  A flow's ``flow_id`` is its stream object's
    id, so it is the record's ``link_id`` and, in a block's evidence, one of
    its ``evidence_ids``.  Flows whose ids do not increase raise
    ``OrderingError`` from the detector, and so does a candidate whose
    verification deadline is past the float range.
    """
    objects = to_stream(flows)
    sessions = {}          # source_ref -> session_id, in order of first appearance
    block = _next_block(objects, pipeline, sessions)
    return _verdict_log(pipeline, objects, block, sessions)


def _next_block(objects, pipeline, sessions):
    """The next ``_BLOCK`` stream objects, read once every source first seen
    among them is registered and admitted."""
    block = list(islice(objects, _BLOCK))
    requests = []          # (SessionRequest, now), one per new source
    for obj in block:
        source = obj.source_ref
        if source in sessions:
            continue
        session_id = sessions[source] = f"s-{len(sessions):04d}"
        challenge = pipeline.captcha.issue(obj.arrival_time)
        requests.append((SessionRequest(
            source_ref=source,
            challenge_id=challenge.challenge_id,
            captcha_answer=challenge.code,
            # from the session id: a source_ref may hold text that UTF-8
            # cannot encode, which register rejects in a password
            username=f"user-{session_id}",
            password=f"pw-{session_id}",
        ), obj.arrival_time))
    pipeline.credentials.register_many(
        [(session.username, session.password) for session, _ in requests]
    )
    pipeline.admit_many(requests)
    return block


def _verdict_log(pipeline, objects, block, sessions):
    """The records of ``replay_flows``, from ``block`` and then the blocks
    still to be read from ``objects``."""
    block_evidence = {}    # source_ref -> evidence ids from the blocking verdict
    # FIFO is deadline order: scan times never decrease and verify_delay is fixed
    pending = deque()      # (deadline, StreamObject) awaiting verification

    def log(decided_at, source_ref, verdict, evidence_ids, link_id):
        return {
            "decided_at": round(decided_at, 9),
            "session_id": sessions[source_ref],
            "source_ref": source_ref,
            "verdict": verdict,
            "evidence_ids": list(evidence_ids),
            "link_id": link_id,
        }

    def dropped(decided_at, source, link_id):
        """A block record with the evidence that blocked ``source``."""
        if source not in block_evidence:
            raise ValueError(f"source {source!r} is blocked with no evidence")
        return log(decided_at, source, "block", block_evidence[source], link_id)

    def resolve(until=None):
        while pending and (until is None or pending[0][0] <= until):
            deadline, obj = pending.popleft()
            source, flow_id = obj.source_ref, obj.object_id
            if source in pipeline.blocklist:
                # source went down while this flow was awaiting verification
                yield dropped(deadline, source, flow_id)
                continue
            verdict = pipeline.analyze_and_verify(obj, deadline)
            probe = pipeline.mitigate(verdict)
            if probe is None:
                yield log(deadline, source, "allow", [], flow_id)
                continue
            block_evidence[source] = verdict.evidence
            yield log(deadline, source, "block", verdict.evidence, flow_id)
            yield log(deadline, probe.target, "fight_back", verdict.evidence,
                      probe.link_id)

    while block:
        for obj in block:
            t = obj.arrival_time
            if pending and pending[0][0] <= t:
                yield from resolve(until=t)
            source = obj.source_ref
            if source in pipeline.blocklist:
                yield dropped(t, source, obj.object_id)
                continue
            if pipeline.scan(obj) is None:
                yield log(t, source, "allow", [], obj.object_id)
                continue
            deadline = t + pipeline.verify_delay
            # an infinite deadline could never be logged
            if not math.isfinite(deadline):
                raise OrderingError(
                    f"flow {obj.object_id}: verification deadline {t} + "
                    f"{pipeline.verify_delay} is not finite")
            pending.append((deadline, obj))
        block = _next_block(objects, pipeline, sessions)
    yield from resolve()
