"""Confusion-matrix accounting and the detection-rate score.

The positive class is malicious: tp counts bot flows blocked, fn bot flows
allowed, fp legit flows blocked, tn legit flows allowed.  Detection rate is
tp / (tp + fn); it is undefined (None) when the run contains no malicious
flows, never 0/0.  Fight-back records accompany blocks and are not scored.
"""

import json
from collections import Counter
from dataclasses import dataclass

from .errors import IncompleteRunError

# NaN and infinity are refused: a rate is a number or null, never NaN
_REPORT_ENCODER = json.JSONEncoder(allow_nan=False, indent=2, sort_keys=True)

REPORT_FIELDS = (
    "tp", "fp", "tn", "fn",
    "detection_rate", "false_positive_rate", "per_class", "seed", "params",
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def _verdict_by_flow(records):
    verdicts = {}
    for record in records:
        kind = record["verdict"]
        if kind not in ("allow", "block"):
            continue  # fight_back companions are not scored
        link_id = record["link_id"]
        if link_id in verdicts:
            raise IncompleteRunError(f"flow {link_id} has multiple final verdicts")
        verdicts[link_id] = kind
    return verdicts


def tally(flows, records) -> ConfusionCounts:
    """Join simulator ground truth to the verdict log (on link_id = flow_id)."""
    return _tally(flows, _verdict_by_flow(records))


def _tally(flows, verdicts) -> ConfusionCounts:
    unknown = verdicts.keys() - {flow.flow_id for flow in flows}
    if unknown:
        raise IncompleteRunError(f"verdicts for unknown flows: {sorted(unknown)[:5]}")
    tp = fp = tn = fn = 0
    for flow in flows:
        verdict = verdicts.get(flow.flow_id)
        if verdict is None:
            raise IncompleteRunError(f"flow {flow.flow_id} has no verdict")
        malicious = flow.ground_truth != "legit"
        blocked = verdict == "block"
        if malicious and blocked:
            tp += 1
        elif malicious:
            fn += 1
        elif blocked:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def detection_rate(counts: ConfusionCounts):
    """tp / (tp + fn); None when the run has no malicious flows."""
    denominator = counts.tp + counts.fn
    if denominator == 0:
        return None
    return counts.tp / denominator


def false_positive_rate(counts: ConfusionCounts):
    """fp / (fp + tn); None when the run has no legitimate flows."""
    denominator = counts.fp + counts.tn
    if denominator == 0:
        return None
    return counts.fp / denominator


def per_class_breakdown(flows, records) -> dict:
    return _per_class(flows, _verdict_by_flow(records))


def _per_class(flows, verdicts) -> dict:
    counts = Counter(flow.ground_truth for flow in flows)
    blocked = Counter(flow.ground_truth for flow in flows
                      if verdicts.get(flow.flow_id) == "block")
    return {cls: {"flows": n, "blocked": blocked[cls], "allowed": n - blocked[cls]}
            for cls, n in counts.items()}


def evaluate_run(flows, records, seed=None, params=None) -> dict:
    """Full evaluation report as a JSON-ready dict."""
    verdicts = _verdict_by_flow(records)
    counts = _tally(flows, verdicts)
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "tn": counts.tn,
        "fn": counts.fn,
        "detection_rate": detection_rate(counts),
        "false_positive_rate": false_positive_rate(counts),
        "per_class": _per_class(flows, verdicts),
        "seed": seed,
        "params": params if params is not None else {},
    }


def write_report(report: dict, path):
    """Write the report as indented JSON.  It is encoded before the file is
    opened, so a report that cannot be encoded leaves no file behind."""
    text = _REPORT_ENCODER.encode(report) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
