"""Three-layer admission, analysis and mitigation pipeline.

Incoming sessions pass a blocklist check, a captcha gate and a credential
gate, strictly in that order; the blocklist maps each blocked source ref to
the evidence of the verdict that blocked it.  Admitted sources feed flow
features into the stream detector; an outlier candidate is re-classified
after a verification delay (double check) and only blocked if it is still an
outlier.  Mitigation enters the source and its evidence in the blocklist and
returns one inert counter-probe event on the link the offending data arrived
on; the verdict log's ``fight_back`` record is that event.  No mitigation
action ever carries an executable payload.

Replay is one generator that reads the trace a block of flows at a time, and
only once its first record is taken: when a block brings new sources it sets
up their sessions, then it scans the block's stream objects and hands out
the verdict log one record at a time, so it holds no state per flow beyond
the block and the detector's window.  The PBKDF2 work of a credential
batch runs on every CPU the process may use, at the unchanged iteration
count: one full derivation per registration and per authentication attempt.
"""

import math
import os
import random
from collections import deque, namedtuple
from enum import Enum
from itertools import islice

from .errors import GateError, OrderingError, UnknownObjectError
from .simulate import to_stream
from .stream import OUTLIER, check_number

CAPTCHA_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
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


CaptchaChallenge = namedtuple("CaptchaChallenge", "challenge_id code issued_at")
SessionRequest = namedtuple(
    "SessionRequest", "source_ref challenge_id captcha_answer username password")
# evidence: a tuple of object ids, nonempty for a block
Verdict = namedtuple("Verdict", "kind subject evidence link_id")
FightBackEvent = namedtuple("FightBackEvent", "target link_id")
# a class constant, not a field, so no counter-probe can carry a payload
FightBackEvent.payload_tag = INERT_PAYLOAD_TAG


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
        if not 0 <= now - challenge.issued_at <= self.ttl:
            return False
        return answer == challenge.code


class CredentialStore:
    """Salted PBKDF2 credential map; plaintext passwords are never stored.

    Every registration and every authentication attempt runs one full
    derivation at ``ITERATIONS``; no derived key is cached or reused.  Both
    methods take a batch of pairs and derive its keys on every usable CPU.
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

    def register(self, pairs):
        """Register ``(username, password)`` pairs in order.  A password that
        UTF-8 cannot encode raises ``ValueError`` before any salt is drawn, so
        a rejected batch changes neither the store nor the salt sequence."""
        pairs = list(pairs)
        for _, password in pairs:
            try:
                password.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError("password is not encodable as UTF-8") from None
        salts = [self._salt_rng.randbytes(16) for _ in pairs]
        digests = _derive_keys(
            [(password, salt) for (_, password), salt in zip(pairs, salts)],
            self.ITERATIONS,
        )
        for (username, _), salt, digest in zip(pairs, salts, digests):
            self._users[username] = (salt, digest)

    def authenticate(self, pairs) -> list:
        """One bool per ``(username, password)`` attempt, in order.  A password
        that UTF-8 cannot encode is a failed attempt at the same cost."""
        import hmac

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


def _derive_keys(jobs, iterations):
    """PBKDF2-SHA256 key of each ``(password, salt)`` job, in input order.

    ``hashlib.pbkdf2_hmac`` releases the GIL, so a batch runs on one thread
    per CPU this process may use; a batch of one runs on the calling thread.
    The worker threads run this derivation and nothing else.
    """
    # imported here, not at module level, as the pool is below: a process
    # that derives no key need not load OpenSSL
    import hashlib

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
    ``blocklist`` maps each blocked source ref to the evidence ids of the
    verdict that blocked it; ``mitigate`` adds to it."""

    def __init__(self, detector, captcha: CaptchaGate, credentials: CredentialStore,
                 verify_delay=DEFAULT_VERIFY_DELAY):
        self.detector = detector
        self.captcha = captcha
        self.credentials = credentials
        self.blocklist = {}
        check_number("pipeline.verify_delay", verify_delay, 0)
        self.verify_delay = verify_delay
        self.counters = {
            "admitted": 0,
            "rejected": 0,
            "scanned": 0,
            "scan_refused": 0,
        }
        self._admitted_sources = set()

    def admit(self, requests) -> list:
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
        matches = iter(self.credentials.authenticate(
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
        return obj if label is OUTLIER else None

    def analyze_and_verify(self, candidate, now) -> Verdict:
        """Second-pass check: block only if the candidate stream object is
        still an outlier and still live once the verification delay has
        elapsed.  The verdict's link is the object's id, its flow id.
        ``now`` must not precede the detector's window time: an earlier or
        non-finite ``now`` raises ``OrderingError``."""
        self.detector.advance_time(now)
        try:
            label = self.detector.classify(candidate.object_id)
        except UnknownObjectError:
            # expired before verification: no live evidence remains
            label = None
        object_id, source = candidate.object_id, candidate.source_ref
        if label is OUTLIER:
            return Verdict(VerdictKind.BLOCK, source, (object_id,), object_id)
        return Verdict(VerdictKind.ALLOW, source, (), object_id)

    def mitigate(self, verdict: Verdict):
        """Apply a verdict: Allow is a no-op that returns ``None``; Block
        enters the subject in the blocklist with the verdict's evidence and
        returns exactly one inert counter-probe on the offending link.  A
        Block without evidence raises ``ValueError`` and changes nothing."""
        if verdict.kind is VerdictKind.ALLOW:
            return None
        if not verdict.evidence:
            raise ValueError(f"block verdict for {verdict.subject!r} carries no evidence")
        self.blocklist[verdict.subject] = verdict.evidence
        return FightBackEvent(target=verdict.subject, link_id=verdict.link_id)


def replay_flows(flows, pipeline: DetectionPipeline):
    """Drive a timestamp-ordered trace through the pipeline end to end.

    ``flows`` is read through ``to_stream`` ``_BLOCK`` flows at a time.  A
    block that brings new sources first registers and admits one synthetic
    session per new source, in order of first appearance, with a valid
    captcha issued at the source's first timestamp, in one credential batch
    on every usable CPU; any other block leaves the gates alone.
    Yields the verdict log, replaying the flows as it is consumed: nothing
    is read, issued or derived until the first record is taken.  The log
    holds one Allow/Block record per flow plus one FightBack record per
    block, all JSON-ready.  A flow's ``flow_id`` is its stream object's id,
    so it is the record's ``link_id`` and, in a block's evidence, one of its
    ``evidence_ids``.  A flow of a blocked source is a block with the
    evidence the blocklist holds; if that is empty, ``ValueError`` is raised.
    Flows whose ids do not increase raise ``OrderingError`` from the
    detector, and so does a candidate whose verification deadline is past
    the float range.
    """
    objects = to_stream(flows)
    sessions = {}          # source_ref -> session_id, in order of first appearance
    # FIFO is deadline order: scan times never decrease and verify_delay is fixed
    pending = deque()      # (deadline, StreamObject) awaiting verification

    def log(decided_at, source_ref, verdict, evidence_ids, link_id):
        """One record; ``evidence_ids`` is a list it may keep."""
        return {
            "decided_at": round(decided_at, 9),
            "session_id": sessions[source_ref],
            "source_ref": source_ref,
            "verdict": verdict,
            "evidence_ids": evidence_ids,
            "link_id": link_id,
        }

    def dropped(decided_at, source, link_id):
        """A block record with the evidence that blocked ``source``."""
        evidence = pipeline.blocklist[source]
        if not evidence:
            raise ValueError(f"source {source!r} is blocked with no evidence")
        return log(decided_at, source, "block", list(evidence), link_id)

    def resolve(until):
        while pending and pending[0][0] <= until:
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
            yield log(deadline, source, "block", list(verdict.evidence), flow_id)
            yield log(deadline, probe.target, "fight_back", list(verdict.evidence),
                      probe.link_id)

    while block := list(islice(objects, _BLOCK)):
        requests = []      # (SessionRequest, now), one per source new in the block
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
                # the session map's string: a source_ref may hold text that
                # UTF-8 cannot encode, which register rejects in a password
                username=session_id,
                password=f"pw-{session_id}",
            ), obj.arrival_time))
        if requests:
            pipeline.credentials.register(
                [(session.username, session.password) for session, _ in requests])
            pipeline.admit(requests)
        for obj in block:
            t = obj.arrival_time
            if pending and pending[0][0] <= t:
                yield from resolve(t)
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
    # every deadline is finite, so this resolves every pending candidate
    yield from resolve(math.inf)
