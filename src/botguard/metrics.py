"""Confusion-matrix accounting and the detection-rate score.

The positive class is malicious: tp counts bot flows blocked, fn bot flows
allowed, fp legit flows blocked, tn legit flows allowed.  Detection rate is
tp / (tp + fn); it is undefined (None) when the run contains no malicious
flows, never 0/0.  Fight-back records accompany blocks and are not scored.
"""

import json
from dataclasses import dataclass

from .errors import IncompleteRunError
from .simulate import atomic_output

# NaN and infinity are refused: a rate is a number or null, never NaN
_REPORT_ENCODER = json.JSONEncoder(allow_nan=False, indent=2, sort_keys=True)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")


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


def evaluate_run(flows, records, seed=None, params=None) -> dict:
    """Join simulator ground truth to the verdict log (on link_id = flow_id)
    and return the full evaluation report as a JSON-ready dict.

    ``flows`` is read first, into a map from flow id to ground truth, and
    ``records`` is then consumed one record at a time.  A log that does not
    give every flow exactly one final verdict raises ``IncompleteRunError``
    only once the whole log has been read, so an error the log's reader
    raises further down comes first."""
    classes = {}  # ground_truth -> index into rows, in order of first flow
    rows = []     # per class: [flows, blocked]
    truth = {}    # flow_id -> class index; ~index once its verdict is read
    for flow in flows:
        cls = classes.get(flow.ground_truth)
        if cls is None:
            cls = classes[flow.ground_truth] = len(rows)
            rows.append([0, 0])
        rows[cls][0] += 1
        truth[flow.flow_id] = cls
    repeated = None
    unknown = set()
    for record in records:
        kind = record["verdict"]
        if kind not in ("allow", "block"):
            continue  # fight_back companions are not scored
        link_id = record["link_id"]
        cls = truth.get(link_id)
        if cls is None:
            if link_id in unknown and repeated is None:
                repeated = link_id
            unknown.add(link_id)
        elif cls < 0:
            if repeated is None:
                repeated = link_id
        else:
            truth[link_id] = ~cls
            if kind == "block":
                rows[cls][1] += 1
    if repeated is not None:
        raise IncompleteRunError(f"flow {repeated} has multiple final verdicts")
    if unknown:
        raise IncompleteRunError(f"verdicts for unknown flows: {sorted(unknown)[:5]}")
    for flow_id, cls in truth.items():
        if cls >= 0:
            raise IncompleteRunError(f"flow {flow_id} has no verdict")
    per_class = dict(zip(classes, rows))
    legit_flows, legit_blocked = per_class.get("legit", (0, 0))
    bots = [row for cls, row in per_class.items() if cls != "legit"]
    tp = sum(blocked for _, blocked in bots)
    counts = ConfusionCounts(
        tp=tp, fp=legit_blocked, tn=legit_flows - legit_blocked,
        fn=sum(n for n, _ in bots) - tp,
    )
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "tn": counts.tn,
        "fn": counts.fn,
        "detection_rate": detection_rate(counts),
        "false_positive_rate": false_positive_rate(counts),
        "per_class": {cls: {"flows": n, "blocked": blocked, "allowed": n - blocked}
                      for cls, (n, blocked) in per_class.items()},
        "seed": seed,
        "params": params if params is not None else {},
    }


def write_report(report: dict, path):
    """Write the report as indented JSON through ``atomic_output``, so a
    report that cannot be encoded leaves the file at ``path`` as it was."""
    text = _REPORT_ENCODER.encode(report) + "\n"
    with atomic_output(path) as fh:
        fh.write(text)
