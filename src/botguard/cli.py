"""Command-line entry point: simulate, detect, evaluate, demo-gate.

Exit codes: 0 success, 1 configuration error, 2 I/O or parse error,
3 incomplete run (trace and verdict log do not match).
"""

import argparse
import math
import sys
from collections import Counter
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

from . import metrics, simulate
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
    decided_at, session_id = record["decided_at"], record["session_id"]
    if not math.isfinite(decided_at):
        raise ValueError(f"decided_at {decided_at!r}: out of range float "
                         f"values are not JSON compliant")
    session = "null" if session_id is None else encode_basestring_ascii(session_id)
    evidence = ", ".join(map(int.__repr__, record["evidence_ids"]))
    return (f'{{"decided_at": {float.__repr__(decided_at)}, '
            f'"session_id": {session}, '
            f'"source_ref": {encode_basestring_ascii(record["source_ref"])}, '
            f'"verdict": {encode_basestring_ascii(record["verdict"])}, '
            f'"evidence_ids": [{evidence}], '
            f'"link_id": {int.__repr__(record["link_id"])}}}')


def cmd_simulate(args) -> int:
    config = load_run_config(args.config, seed_override=args.seed)
    counts = Counter()

    def counted(flows):
        for flow in flows:
            counts[flow.ground_truth] += 1
            yield flow

    simulate.write_trace(counted(simulate.generate(config.scenario)), args.out)
    print(f"wrote {sum(counts.values())} flows to {args.out}")
    for cls in simulate.GROUND_TRUTH_VALUES:
        if counts[cls]:
            print(f"  {cls}: {counts[cls]}")
    return EXIT_OK


def cmd_detect(args) -> int:
    config = load_run_config(args.config, seed_override=args.seed)
    pipeline = build_pipeline(config)
    # replay reads the trace as the log is written: a bad trace line raises
    # mid-write, and atomic_output then discards the partial log
    records = replay_flows(simulate.read_trace(args.trace), pipeline)
    counts = Counter()
    with simulate.atomic_output(args.out) as fh:
        for record in records:
            fh.write(verdict_line(record) + "\n")
            counts[record["verdict"]] += 1
    print(f"wrote {sum(counts.values())} verdict records to {args.out}")
    print(f"  blocked flows: {counts['block']}")
    print(f"  blocked sources: {len(pipeline.blocklist)}")
    print(f"  counter-probe events: {counts['fight_back']}")
    return EXIT_OK


def read_verdicts(path):
    """The records of the verdict log at ``path``, read as the iterator is
    consumed.  A line that breaks the log format, or a safety invariant of
    the log, raises ``TraceParseError`` naming it."""
    previous = None
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
        if session_id is not None and type(session_id) is not str:
            raise TraceParseError(
                line_no, f"session_id {session_id!r} is not a string or null")
        # an int is finite; math.isfinite cannot take one beyond the float range
        if not (type(decided_at) is int
                or type(decided_at) is float and math.isfinite(decided_at)):
            raise TraceParseError(
                line_no, f"decided_at {decided_at!r} is not a finite number")
        # the log's safety invariants: a block carries its evidence, and a
        # counter-probe answers the block on the line before it
        if verdict == "block" and not evidence:
            raise TraceParseError(line_no, "block has empty evidence_ids")
        if verdict == "fight_back" and previous != ("block", link_id):
            raise TraceParseError(
                line_no, f"fight_back on link_id {link_id} does not follow "
                         f"a block on the same link_id")
        previous = verdict, link_id
        yield record


def cmd_evaluate(args) -> int:
    config = load_run_config(args.config, seed_override=args.seed)
    # the detector has one mode; the key keeps the report format stable
    params = dict(asdict(config.detector), mode="exact",
                  verify_delay=config.verify_delay)
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


def cmd_demo_gate(args) -> int:
    """Scripted, interaction-free walk through the admission gates."""
    config = load_run_config(args.config, seed_override=args.seed)
    pipeline = build_pipeline(config)
    pipeline.credentials.register("alice", "correct-horse")
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
        result = pipeline.admit(session, now)
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
    ok = captcha.verify(stale.challenge_id, stale.code, 5.0 + config.captcha_ttl + 1)
    print(f"[{5.0 + config.captcha_ttl + 1:6.1f}] expired captcha accepted: {ok}")
    reused = captcha.issue(6.0)
    captcha.verify(reused.challenge_id, reused.code, 6.0)
    ok = captcha.verify(reused.challenge_id, reused.code, 7.0)
    print(f"[   7.0] reused captcha accepted: {ok}")

    pipeline.blocklist.add("host-a")
    print("[   8.0] host-a added to blocklist")
    result = attempt("retry after block", "host-a",
                     lambda ch: ch.code, "alice", "correct-horse", 9.0)
    if result is not AdmissionResult.REJECTED_BLOCKED:
        raise GateError(f"blocked source host-a was not rejected: {result.value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
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
