"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is budgeted to finish in well under two minutes.
"""

import itertools
import json
import random
import time
from collections import Counter

import pytest

from botguard import (
    ConfusionCounts, Detector, DetectorParams, GateError, Label,
    StreamObject, brute_force_outliers, default_mixture, detection_rate,
    generate, ScenarioConfig,
)
from botguard.cli import main
from tests.test_stream import NARRATIVE_PARAMS, brute_force_labels, \
    narrative_stream, pairwise_neighbor_sets

SEPARABLE_SCENARIO = """
detector.radius = 1.0
detector.neighbor_threshold = 3
detector.window_span = 16.0
scenario.seed = 42
scenario.n_flows = 10000
scenario.bot_fraction = 0.1
scenario.arrival_rate = 5.0
scenario.n_bot_sources = 1
scenario.n_legit_sources = 40
scenario.topology = centralized
pipeline.verify_delay = 2.0
"""


def report(name):
    print(f"\nACCEPTANCE PASS: {name}")


def random_stream(rng, n, dt=1.0):
    objects = []
    t = 0.0
    for i in range(n):
        t += rng.uniform(0.0, 2.0 * dt)
        objects.append(StreamObject(i + 1, t, rng.uniform(0.0, 100.0)))
    return objects


def oracle_cases():
    """>=100 (params, seed, n) cases across the required grid."""
    grid = list(itertools.product((0.1, 1.0, 10.0), (1, 3, 10), (16.0, 100.0, 1000.0)))
    cases = []
    for seed, (radius, k, span) in enumerate(grid * 4):
        cases.append((DetectorParams(radius=radius, neighbor_threshold=k,
                                     window_span=span), seed, 600))
    # a few full-size streams at the cheap end of the radius grid
    for seed, radius in enumerate((0.1, 0.1, 1.0), start=200):
        cases.append((DetectorParams(radius=radius, neighbor_threshold=3,
                                     window_span=100.0), seed, 10_000))
    assert len(cases) >= 100
    return cases


def run_case(params, seed, n):
    rng = random.Random(seed)
    detector = Detector(params)
    objects = random_stream(rng, n)
    by_id = {o.object_id: o for o in objects}
    checkpoints = []
    for index, obj in enumerate(objects):
        detector.insert(obj)
        if index in (n // 2, n - 1):
            live = [by_id[oid] for oid in detector.live_ids]
            checkpoints.append((detector.query_outliers(),
                                brute_force_outliers(live, params)))
    detector.advance_time(detector.current_time + params.window_span / 2)
    live = [by_id[oid] for oid in detector.live_ids]
    checkpoints.append((detector.query_outliers(), brute_force_outliers(live, params)))
    return detector, checkpoints


def test_exact_mode_equals_brute_force_oracle():
    started = time.monotonic()
    for params, seed, n in oracle_cases():
        for streamed, oracle in run_case(params, seed, n)[1]:
            assert streamed == oracle, (params, seed, n)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    report(f"exact-mode oracle equivalence ({elapsed:.1f}s for 111 streams)")


def test_window_narrative_reconstruction():
    sets = pairwise_neighbor_sets(narrative_stream(), NARRATIVE_PARAMS.radius)
    assert sets[9] == {5, 10, 14, 15}
    assert sets[11] == {3, 4, 6, 13}
    detector = Detector(NARRATIVE_PARAMS)
    for obj in narrative_stream():
        detector.insert(obj)
    assert detector.classify(9) is Label.SAFE_INLIER
    assert detector.classify(11) is Label.INLIER
    detector.advance_time(22.0)
    assert detector.classify(9) is Label.SAFE_INLIER
    assert 11 in detector.query_outliers()
    report("worked window narrative: object 9 safe, object 11 expires into outlier")


def test_safe_inlier_permanence():
    classifications = 0
    violations = 0
    for seed in range(4):
        rng = random.Random(seed)
        params = DetectorParams(radius=2.0, neighbor_threshold=3, window_span=12.0)
        detector = Detector(params)
        safe_seen = set()
        t = 0.0
        for i in range(3000):
            t += rng.uniform(0.0, 0.2)
            detector.insert(StreamObject(i + 1, t, rng.uniform(0.0, 25.0)))
            for oid in detector.live_ids:
                label = detector.classify(oid)
                classifications += 1
                if label is Label.SAFE_INLIER:
                    safe_seen.add(oid)
                elif oid in safe_seen:
                    violations += 1
    assert classifications >= 100_000
    assert violations == 0
    report(f"safe-inlier permanence ({classifications} classifications, 0 violations)")


def test_label_soundness_across_parameters():
    seen = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        params = DetectorParams(
            radius=rng.choice([0.5, 2.0, 10.0]),
            neighbor_threshold=rng.choice([1, 3, 10]),
            window_span=rng.choice([16.0, 100.0]),
        )
        detector = Detector(params)
        objects = random_stream(rng, 500)
        by_id = {o.object_id: o for o in objects}
        for obj in objects:
            detector.insert(obj)
        live = [by_id[oid] for oid in detector.live_ids]
        labels = {oid: detector.classify(oid) for oid in detector.live_ids}
        outliers = {oid for oid, label in labels.items() if label is Label.OUTLIER}
        assert outliers == brute_force_outliers(live, params), seed
        # a safe inlier has at least k neighbors with a later id, and an
        # inlier that is not safe has fewer
        assert labels == brute_force_labels(live, params), seed
        seen.update(label.value for label in labels.values())
    assert set(seen) == {label.value for label in Label}
    report(f"classify labels sound across R, k and span {dict(sorted(seen.items()))}")


def test_end_to_end_detection_rate(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(SEPARABLE_SCENARIO)
    trace = str(tmp_path / "trace.jsonl")
    verdicts = str(tmp_path / "verdicts.jsonl")
    out = str(tmp_path / "report.json")
    assert main(["simulate", "--config", str(conf), "--out", trace]) == 0
    assert main(["detect", "--config", str(conf), "--trace", trace,
                 "--out", verdicts]) == 0
    assert main(["evaluate", "--config", str(conf), "--trace", trace,
                 "--verdicts", verdicts, "--out", out]) == 0
    result = json.load(open(out))
    assert result["tp"] + result["fn"] > 0
    assert result["detection_rate"] == 1.0
    assert result["false_positive_rate"] <= 0.01
    report(f"end-to-end detection rate 1.0, false positive rate "
           f"{result['false_positive_rate']}")


def test_mixture_fidelity():
    flows = list(generate(ScenarioConfig(seed=0, n_flows=100_000, bot_fraction=1.0)))
    counts = Counter(flow.ground_truth for flow in flows)
    mixture = default_mixture()
    for cls, weight in mixture.items():
        observed = counts[cls] / len(flows)
        assert abs(observed - weight) <= 0.01, (cls, observed, weight)
    report("class mixture within 0.01 of configured channel shares")


def test_detection_rate_formula():
    assert detection_rate(ConfusionCounts(tp=9, fn=1)) == 0.9
    assert detection_rate(ConfusionCounts(tp=0, fn=0, tn=5, fp=5)) is None
    report("detection-rate formula exact; undefined case signaled distinctly")


def test_gate_contract():
    from tests.test_pipeline import admit_source, make_pipeline
    from botguard import AdmissionResult, SessionRequest, VerdictKind

    # captcha failure short-circuits the credential gate
    pipeline = make_pipeline()
    pipeline.credentials.register([("u", "p")])
    pipeline.credentials.register([("v", "q")])
    consulted = []
    original = pipeline.credentials.authenticate

    def spy(pairs):
        pairs = list(pairs)
        consulted.extend(pairs)
        return original(pairs)

    pipeline.credentials.authenticate = spy
    rejected, valid = pipeline.captcha.issue(0.0), pipeline.captcha.issue(0.0)
    results = pipeline.admit([
        (SessionRequest("src", rejected.challenge_id, "WRONG!",
                        "u", "p"), 0.0),
        (SessionRequest("src2", valid.challenge_id, valid.code,
                        "v", "q"), 0.0),
    ])
    assert results == [AdmissionResult.REJECTED_CAPTCHA, AdmissionResult.ADMITTED]
    # the rejected pair never reaches the credential gate; the valid one does
    assert consulted == [("v", "q")]

    # blocked sources never reach the analyzer
    pipeline = make_pipeline()
    pipeline.blocklist["bad"] = ()
    with pytest.raises(GateError):
        pipeline.scan(StreamObject(1, 1.0, 5.0, "bad"))
    assert pipeline.counters["scanned"] == 0

    # a block requires outlier status at both scan and verification passes
    pipeline = make_pipeline()
    admit_source(pipeline, "src")
    candidate = pipeline.scan(StreamObject(1, 1.0, 5.0, "src"))
    # first pass
    assert pipeline.detector.classify(candidate.object_id) is Label.OUTLIER
    for i in range(2, 5):
        pipeline.scan(StreamObject(i, 1.5, 5.0, "src"))
    verdict = pipeline.analyze_and_verify(candidate, now=3.0)
    assert verdict.kind is VerdictKind.ALLOW  # second pass reversed it
    pipeline2 = make_pipeline()
    admit_source(pipeline2, "iso")
    candidate2 = pipeline2.scan(StreamObject(1, 1.0, 50.0, "iso"))
    verdict2 = pipeline2.analyze_and_verify(candidate2, now=3.0)
    assert verdict2.kind is VerdictKind.BLOCK
    report("gate contract: short-circuit order, blocklist isolation, double check")


def test_round_trip_determinism(tmp_path):
    outputs = []
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        conf = base / "run.conf"
        conf.write_text(SEPARABLE_SCENARIO)
        trace = str(base / "trace.jsonl")
        verdicts = str(base / "verdicts.jsonl")
        out = str(base / "report.json")
        assert main(["simulate", "--config", str(conf), "--out", trace]) == 0
        assert main(["detect", "--config", str(conf), "--trace", trace,
                     "--out", verdicts]) == 0
        assert main(["evaluate", "--config", str(conf), "--trace", trace,
                     "--verdicts", verdicts, "--out", out]) == 0
        outputs.append(tuple(open(p, "rb").read() for p in (trace, verdicts, out)))
    assert outputs[0] == outputs[1]
    report("simulate -> detect -> evaluate round trip byte-identical across runs")


def test_throughput_soft_target():
    # soft target: >=1e5 exact-mode insertions/second with ~1e4 live objects;
    # tracked for regressions, never hard-failing
    params = DetectorParams(radius=0.5, neighbor_threshold=3, window_span=10.0)
    detector = Detector(params)
    rng = random.Random(0)
    n = 100_000
    objects = [StreamObject(i + 1, i * 1e-3, rng.uniform(0.0, 1000.0))
               for i in range(n)]
    started = time.monotonic()
    for obj in objects:
        detector.insert(obj)
    elapsed = time.monotonic() - started
    rate = n / elapsed
    met = "met" if rate >= 1e5 else "below target"
    assert len(detector) == pytest.approx(10_000, rel=0.01)
    report(f"throughput {rate:,.0f} insertions/s with {len(detector)} live ({met})")
