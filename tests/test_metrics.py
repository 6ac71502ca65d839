import json
import math
import random

import pytest

from botguard import ConfusionCounts, IncompleteRunError, detection_rate, \
    false_positive_rate
from botguard.metrics import evaluate_run, write_report
from botguard.simulate import FlowRecord


def make_flows(n_bots, n_legit):
    flows = []
    for i in range(n_bots + n_legit):
        truth = "irc_bot" if i < n_bots else "legit"
        flows.append(FlowRecord(
            flow_id=i, timestamp=float(i), source_ref=f"src-{i}",
            dest_ref="d", protocol_tag="IRC", bytes_total=1.0, duration=1.0,
            ground_truth=truth,
        ))
    return flows


def verdict(link_id, kind, **kw):
    record = {
        "decided_at": 0.0, "session_id": "s-0000", "source_ref": "src",
        "verdict": kind, "evidence_ids": [link_id] if kind == "block" else [],
        "link_id": link_id,
    }
    record.update(kw)
    return record


def confusion(flows, records):
    """The confusion counts of the report ``evaluate_run`` builds."""
    report = evaluate_run(flows, records)
    return ConfusionCounts(tp=report["tp"], fp=report["fp"],
                           tn=report["tn"], fn=report["fn"])


class TestTally:
    def test_perfect_run(self):
        flows = make_flows(10, 90)
        records = [verdict(f.flow_id, "block" if f.ground_truth != "legit" else "allow")
                   for f in flows]
        counts = confusion(flows, records)
        assert counts == ConfusionCounts(tp=10, fp=0, tn=90, fn=0)

    def test_all_allowed_with_bots_present(self):
        flows = make_flows(5, 10)
        records = [verdict(f.flow_id, "allow") for f in flows]
        counts = confusion(flows, records)
        assert (counts.tp, counts.fn) == (0, 5)

    def test_missing_verdict_raises(self):
        flows = make_flows(1, 2)
        records = [verdict(f.flow_id, "allow") for f in flows[:-1]]
        with pytest.raises(IncompleteRunError):
            confusion(flows, records)

    def test_duplicate_verdict_raises(self):
        flows = make_flows(0, 1)
        records = [verdict(0, "allow"), verdict(0, "block")]
        with pytest.raises(IncompleteRunError):
            confusion(flows, records)

    def test_verdict_for_unknown_flow_raises(self):
        flows = make_flows(0, 1)
        records = [verdict(0, "allow"), verdict(7, "allow")]
        with pytest.raises(IncompleteRunError):
            confusion(flows, records)

    def test_fightback_records_not_scored(self):
        flows = make_flows(1, 0)
        records = [verdict(0, "block"), verdict(0, "fight_back")]
        counts = confusion(flows, records)
        assert counts == ConfusionCounts(tp=1, fp=0, tn=0, fn=0)

    def test_permutation_invariant(self):
        flows = make_flows(20, 30)
        rng = random.Random(0)
        records = [
            verdict(f.flow_id, rng.choice(["allow", "block"])) for f in flows
        ]
        shuffled_flows = flows[:]
        rng.shuffle(shuffled_flows)
        shuffled_records = records[:]
        rng.shuffle(shuffled_records)
        assert confusion(flows, records) == confusion(shuffled_flows, shuffled_records)

    def test_sum_preservation(self):
        flows = make_flows(13, 37)
        records = [verdict(f.flow_id, "allow" if f.flow_id % 3 else "block")
                   for f in flows]
        counts = confusion(flows, records)
        assert counts.tp + counts.fp + counts.tn + counts.fn == len(flows)


class TestRates:
    def test_detection_rate_basic(self):
        assert detection_rate(ConfusionCounts(tp=9, fn=1)) == 0.9

    def test_detection_rate_zero(self):
        assert detection_rate(ConfusionCounts(tp=0, fn=5)) == 0.0

    def test_detection_rate_undefined(self):
        assert detection_rate(ConfusionCounts(tp=0, fn=0, tn=10)) is None

    def test_detection_rate_one_iff_no_misses(self):
        assert detection_rate(ConfusionCounts(tp=5, fn=0)) == 1.0
        assert detection_rate(ConfusionCounts(tp=5, fn=1)) < 1.0

    def test_fpr_basic(self):
        assert false_positive_rate(ConfusionCounts(fp=0, tn=100)) == 0.0
        assert false_positive_rate(ConfusionCounts(fp=1, tn=99)) == 0.01

    def test_fpr_undefined(self):
        assert false_positive_rate(ConfusionCounts(tp=3, fn=1)) is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)


class TestReport:
    def test_per_class_counts(self):
        flows = make_flows(4, 6)
        records = [verdict(f.flow_id, "block" if f.flow_id < 2 else "allow")
                   for f in flows]
        breakdown = evaluate_run(flows, records)["per_class"]
        assert breakdown["irc_bot"] == {"flows": 4, "blocked": 2, "allowed": 2}
        assert breakdown["legit"] == {"flows": 6, "blocked": 0, "allowed": 6}

    def test_report_fields_and_serialization(self, tmp_path):
        flows = make_flows(2, 3)
        records = [verdict(f.flow_id, "block" if f.ground_truth != "legit" else "allow")
                   for f in flows]
        report = evaluate_run(flows, records, seed=42, params={"radius": 1.0})
        assert set(report) == {
            "tp", "fp", "tn", "fn", "detection_rate", "false_positive_rate",
            "per_class", "seed", "params",
        }
        assert report["detection_rate"] == 1.0
        assert report["seed"] == 42
        path = tmp_path / "report.json"
        write_report(report, path)
        assert json.loads(path.read_text()) == report

    def test_undefined_rate_serializes_as_null(self, tmp_path):
        flows = make_flows(0, 3)
        records = [verdict(f.flow_id, "allow") for f in flows]
        report = evaluate_run(flows, records)
        assert report["detection_rate"] is None
        path = tmp_path / "report.json"
        write_report(report, path)
        assert json.loads(path.read_text())["detection_rate"] is None

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_leaves_no_report(self, tmp_path, value):
        flows = make_flows(1, 2)
        report = evaluate_run(flows, [verdict(f.flow_id, "allow") for f in flows],
                              params={"radius": value})
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_report(report, path)
        assert not path.exists()
