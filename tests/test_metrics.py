import json
import math
import random
import tracemalloc

import pytest

from botguard import ConfusionCounts, IncompleteRunError, OrderingError, \
    detection_rate, false_positive_rate
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

    def test_repeated_verdict_for_unknown_flow_raises(self):
        # an id that is no flow's is unknown however often it is logged, and
        # the first one in log order is named, not the smallest
        flows = make_flows(0, 1)
        records = [verdict(0, "allow"), verdict(9, "allow"), verdict(3, "allow"),
                   verdict(9, "block")]
        with pytest.raises(IncompleteRunError,
                           match=r"^verdicts for unknown flows: \[9\]$"):
            confusion(flows, records)
        # a flow of the trace with two final verdicts comes before an unknown id
        records = [verdict(0, "allow"), verdict(7, "allow"), verdict(0, "block")]
        with pytest.raises(IncompleteRunError,
                           match="^flow 0 has multiple final verdicts$"):
            confusion(flows, records)

    def test_unknown_ids_cost_no_memory(self):
        # an unknown id is remembered only if it is the first: a log of
        # 8e4 of them peaks as one of 2e4 does
        flows = make_flows(0, 1)

        def records(n_unknown):
            yield verdict(0, "allow")
            for link_id in range(1, n_unknown + 1):
                yield verdict(link_id, "allow")

        def peak(n_unknown):
            tracemalloc.start()
            try:
                with pytest.raises(IncompleteRunError, match="unknown flows"):
                    evaluate_run(flows, records(n_unknown))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(80_000) - peak(20_000) < 64 * 1024

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
        shuffled_records = records[:]
        rng.shuffle(shuffled_records)
        assert confusion(flows, records) == confusion(flows, shuffled_records)
        # the flows come in increasing id order, as read_trace gives them
        shuffled_flows = flows[:]
        rng.shuffle(shuffled_flows)
        with pytest.raises(OrderingError, match="not greater than previous flow_id"):
            confusion(shuffled_flows, records)

    def test_flow_ids_beyond_64_bits(self):
        flows = make_flows(2, 2)
        ids = [5, 2 ** 63 - 1, 2 ** 63, 2 ** 64]
        for flow, flow_id in zip(flows, ids):
            flow.flow_id = flow_id
        records = [verdict(ids[0], "block"), verdict(ids[1], "allow"),
                   verdict(ids[2], "allow"), verdict(ids[3], "block")]
        assert confusion(flows, records) == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
        with pytest.raises(IncompleteRunError, match=f"flow {2 ** 64} has no"):
            confusion(flows, records[:3])
        with pytest.raises(IncompleteRunError, match=rf"unknown flows: \[{2 ** 70}\]"):
            confusion(flows, records + [verdict(2 ** 70, "allow")])

    @pytest.mark.parametrize("case", ["order", "repeated", "unknown", "missing"])
    def test_huge_flow_id_in_the_message(self, case):
        # more digits than an int's repr may write: named by its size
        huge = 10 ** 5000
        flows = make_flows(0, 2)
        flows[1].flow_id = huge
        records = [verdict(0, "allow"), verdict(huge, "allow")]
        error, message = {
            "order": (OrderingError, "flow_id 0 not greater than previous "
                                     "flow_id an int of 16610 bits"),
            "repeated": (IncompleteRunError, "flow an int of 16610 bits has multiple"),
            "unknown": (IncompleteRunError, r"unknown flows: \[an int of 16610 bits\]"),
            "missing": (IncompleteRunError, "flow an int of 16610 bits has no verdict"),
        }[case]
        if case == "order":
            flows.reverse()
        elif case == "repeated":
            records.append(verdict(huge, "block"))
        elif case == "unknown":
            flows.pop()
        else:
            records.pop()
        with pytest.raises(error, match=message):
            evaluate_run(flows, records)

    def test_repeated_flow_id(self):
        """A repeated flow_id raises OrderingError, as read_trace refuses one."""
        flows = make_flows(1, 2) + make_flows(1, 0)  # ids 0, 1, 2, 0
        records = [verdict(i, "allow") for i in range(3)]
        with pytest.raises(OrderingError,
                           match="flow_id 0 not greater than previous flow_id 2"):
            evaluate_run(flows, records)

    def test_ordering_error_comes_before_any_record_is_read(self):
        flows = make_flows(0, 3)
        flows[1].flow_id = 5  # ids 0, 5, 2

        def records():
            pytest.fail("a verdict record was read")
            yield

        with pytest.raises(OrderingError,
                           match="flow_id 2 not greater than previous flow_id 5"):
            evaluate_run(flows, records())

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
