"""Command-line entry point: simulate, detect, evaluate, demo-gate.

Exit codes: 0 success, 1 configuration error, 2 I/O or parse error,
3 incomplete run (trace and verdict log do not match).
"""

import math
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import simulate
from .config import load_run_config
from .errors import (
    ConfigurationError, GateError, IncompleteRunError, OrderingError,
    TraceParseError,
)
from .pipeline import (
    AdmissionResult, CaptchaGate, CredentialStore, DetectionPipeline,
    SessionRequest, VerdictKind, replay_flows,
)
from .stream import Detector

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_INCOMPLETE = 3

VERDICT_VALUES = tuple(kind.value for kind in VerdictKind)

_verdict = itemgetter("verdict")


def build_pipeline(config):
    detector = Detector(config.detector)
    captcha = CaptchaGate(seed=config.scenario.seed, ttl=config.captcha_ttl)
    credentials = CredentialStore(salt_seed=config.scenario.seed)
    return DetectionPipeline(detector, captcha, credentials,
                             verify_delay=config.verify_delay)


def verdict_line(record) -> str:
    """The verdict log line of ``record``, a dict from ``replay_flows``: the
    bytes ``json.dumps`` gives for it, with NaN and infinity refused as
    ``allow_nan=False`` refuses them."""
    decided_at = record["decided_at"]
    # json writes a float by float.__repr__, which !r below is on an
    # exact float; a value that is no float raises TypeError here, an int
    # beyond the float range included, before math.isfinite could overflow
    if type(decided_at) is not float:
        decided_at = float.__float__(decided_at)
    if not math.isfinite(decided_at):
        raise ValueError(f"decided_at {decided_at!r}: out of range float "
                         f"values are not JSON compliant")
    session_id, source_ref, verdict = (record["session_id"], record["source_ref"],
                                       record["verdict"])
    session = "null" if session_id is None else encode_basestring_ascii(session_id)
    head = (f'{{"decided_at": {decided_at!r}, "session_id": {session}, '
            f'"source_ref": {encode_basestring_ascii(source_ref)}, '
            f'"verdict": {encode_basestring_ascii(verdict)}, "evidence_ids": [')
    evidence = record["evidence_ids"]
    # not a truth test: a value that is no list, such as None, still
    # fails in the join
    evidence = "" if evidence == [] else ", ".join(map(int.__repr__, evidence))
    return f'{head}{evidence}], "link_id": {int.__repr__(record["link_id"])}}}'


def cmd_simulate(args, config) -> int:
    counts = simulate.write_trace(simulate.generate(config.scenario), args.out)
    print(f"wrote {sum(counts.values())} flows to {args.out}")
    for cls in simulate.GROUND_TRUTH_VALUES:
        if counts[cls]:
            print(f"  {cls}: {counts[cls]}")
    return EXIT_OK


def cmd_detect(args, config) -> int:
    pipeline = build_pipeline(config)
    # replay reads the trace as the log is written: a bad trace line raises
    # mid-write, and the partial log is discarded
    records = replay_flows(simulate.read_trace(args.trace), pipeline)
    counts = simulate.write_lines(records, verdict_line, args.out, _verdict)
    print(f"wrote {sum(counts.values())} verdict records to {args.out}")
    print(f"  blocked flows: {counts['block']}")
    print(f"  blocked sources: {len(pipeline.blocklist)}")
    print(f"  counter-probe events: {counts['fight_back']}")
    return EXIT_OK


def read_verdicts(path):
    """The records of the verdict log at ``path``, read as the iterator is
    consumed.  A line that breaks the log format, or a safety invariant of
    the log, raises ``TraceParseError`` naming it."""
    block_link = None  # the link_id of a block on the line before, if any
    for line_no, record in simulate.read_json_lines(path):
        try:
            verdict, link_id = record["verdict"], record["link_id"]
            evidence, decided_at = record["evidence_ids"], record["decided_at"]
            session_id = record["session_id"]
        except KeyError:
            # source_ref is not read back, so it may be absent
            missing = [f for f in ("decided_at", "session_id", "verdict",
                                   "evidence_ids", "link_id") if f not in record]
            raise TraceParseError(line_no, f"missing fields {missing}") from None
        if verdict not in VERDICT_VALUES:
            raise TraceParseError(line_no, f"unknown verdict {verdict!r}")
        # link_id joins a flow_id; a bool or float would compare equal to
        # an int id and be scored against the wrong flow
        if type(link_id) is not int:
            raise TraceParseError(line_no, f"link_id {link_id!r} is not an int")
        if type(evidence) is not list or (
                evidence and not all(type(i) is int for i in evidence)):
            raise TraceParseError(
                line_no, f"evidence_ids {evidence!r} is not a list of ints")
        if type(session_id) is not str and session_id is not None:
            raise TraceParseError(
                line_no, f"session_id {session_id!r} is not a string or null")
        # an int is finite; math.isfinite cannot take one beyond the float range
        if not (type(decided_at) is float and math.isfinite(decided_at)
                or type(decided_at) is int):
            raise TraceParseError(
                line_no, f"decided_at {decided_at!r} is not a finite number")
        # the log's safety invariants: a block carries its evidence, and a
        # counter-probe answers the block on the line before it
        if verdict == "allow":
            block_link = None
        elif verdict == "block":
            if not evidence:
                raise TraceParseError(line_no, "block has empty evidence_ids")
            block_link = link_id
        else:
            if block_link != link_id:
                raise TraceParseError(
                    line_no, f"fight_back on link_id {link_id} does not follow "
                             f"a block on the same link_id")
            block_link = None
        yield record


def cmd_evaluate(args, config) -> int:
    # imported here: of the commands, only evaluate scores a run
    from . import metrics

    # the detector has one mode; the key keeps the report format stable
    detector = config.detector
    params = {name: getattr(detector, name) for name in detector.__slots__}
    params.update(mode="exact", verify_delay=config.verify_delay)
    # the whole trace is read before the first verdict line
    report = metrics.evaluate_run(
        simulate.read_trace(args.trace), read_verdicts(args.verdicts),
        seed=config.scenario.seed, params=params,
    )
    metrics.write_report(report, args.out)
    rate = report["detection_rate"]
    print(f"detection_rate: {'undefined' if rate is None else rate}")
    fpr = report["false_positive_rate"]
    print(f"false_positive_rate: {'undefined' if fpr is None else fpr}")
    print(f"wrote report to {args.out}")
    return EXIT_OK


def cmd_demo_gate(args, config) -> int:
    """Scripted, interaction-free walk through the admission gates."""
    pipeline = build_pipeline(config)
    pipeline.credentials.register([("alice", "correct-horse")])
    captcha = pipeline.captcha

    def attempt(label, source, answer_of, username, password, now):
        challenge = captcha.issue(now)
        session = SessionRequest(
            source_ref=source,
            challenge_id=challenge.challenge_id,
            captcha_answer=answer_of(challenge),
            username=username,
            password=password,
        )
        result = pipeline.admit([(session, now)])[0]
        print(f"[{now:6.1f}] {label}: {result.value}")
        return result

    print("admission gate demo (order: blocklist -> captcha -> credentials)")
    attempt("wrong captcha, valid credentials", "host-a",
            lambda ch: "WRONG!", "alice", "correct-horse", 1.0)
    attempt("valid captcha, wrong password", "host-a",
            lambda ch: ch.code, "alice", "bad-password", 2.0)
    attempt("valid captcha, unknown user", "host-a",
            lambda ch: ch.code, "mallory", "whatever", 3.0)
    attempt("valid session", "host-a",
            lambda ch: ch.code, "alice", "correct-horse", 4.0)

    stale = captcha.issue(5.0)
    late = 5.0 + config.captcha_ttl + 1
    while late - 5.0 <= config.captcha_ttl:  # a large ttl absorbs the + 1
        late = math.nextafter(late, math.inf)
    ok = captcha.verify(stale.challenge_id, stale.code, late)
    print(f"[{late:6.1f}] expired captcha accepted: {ok}")
    reused = captcha.issue(6.0)
    captcha.verify(reused.challenge_id, reused.code, 6.0)
    ok = captcha.verify(reused.challenge_id, reused.code, 7.0)
    print(f"[   7.0] reused captcha accepted: {ok}")

    pipeline.blocklist["host-a"] = ()
    print("[   8.0] host-a added to blocklist")
    result = attempt("retry after block", "host-a",
                     lambda ch: ch.code, "alice", "correct-horse", 9.0)
    if result is not AdmissionResult.REJECTED_BLOCKED:
        raise GateError(f"blocked source host-a was not rejected: {result.value}")
    return EXIT_OK


def build_parser():
    """The command-line parser; ``argparse`` is imported only here, so a
    process that imports this module to call its functions does not load it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="botguard",
        description="Streaming botnet detection: simulate, detect, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat dotted-key config file")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("simulate", help="generate a labeled flow trace")
    common(p)
    p.add_argument("--out", required=True, help="output trace path (JSON Lines)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="replay a trace through the pipeline")
    common(p)
    p.add_argument("--trace", required=True, help="input trace path")
    p.add_argument("--out", required=True, help="output verdict log path")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score a verdict log against ground truth")
    common(p)
    p.add_argument("--trace", required=True, help="input trace path")
    p.add_argument("--verdicts", required=True, help="input verdict log path")
    p.add_argument("--out", required=True, help="output report path (JSON)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo-gate", help="scripted admission-gate transcript")
    common(p)
    p.set_defaults(func=cmd_demo_gate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_run_config(args.config, seed_override=args.seed))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceParseError, OrderingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except IncompleteRunError as exc:
        print(f"incomplete run: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
