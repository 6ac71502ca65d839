"""Confusion-matrix accounting and the detection-rate score.

The positive class is malicious: tp counts bot flows blocked, fn bot flows
allowed, fp legit flows blocked, tn legit flows allowed.  Detection rate is
tp / (tp + fn); it is undefined (None) when the run contains no malicious
flows, never 0/0.  Fight-back records accompany blocks and are not scored.
"""

import json
import math
from array import array
from bisect import bisect_left
from collections import namedtuple

from .errors import IncompleteRunError, OrderingError
from .simulate import atomic_output
from .stream import shown

# NaN and infinity are refused: a rate is a number or null, never NaN
_REPORT_ENCODER = json.JSONEncoder(allow_nan=False, indent=2, sort_keys=True)


class ConfusionCounts(namedtuple("ConfusionCounts", "tp fp tn fn")):
    __slots__ = ()

    def __new__(cls, tp=0, fp=0, tn=0, fn=0):
        if min(tp, fp, tn, fn) < 0:
            raise ValueError("confusion counts must be nonnegative")
        return super().__new__(cls, tp, fp, tn, fn)


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

    The ids of ``flows`` must increase, as ``read_trace`` makes them: a
    flow whose id is not greater than the one before it raises
    ``OrderingError`` before any record is read.  ``flows`` is read first,
    into compact columns: the flow ids, and a byte per flow for its class
    (so at most 256 classes) and one for whether its verdict was read.  Then
    ``records`` is consumed one record at a time, each verdict's flow found
    by bisection, keeping nothing per record.  The log must give every flow
    exactly one final verdict and name no other id.  If not, it raises
    ``IncompleteRunError`` naming the first flow with a second verdict, else
    the first id no flow holds (an unknown id, however often logged), else
    the first flow with none, and only once the whole log has been read, so
    an error the log's reader raises further down comes first."""
    classes = {}  # ground_truth -> class index, in order of first flow
    ids = array("q")  # a list once an id is beyond 64 bits
    truth = bytearray()  # per flow, its class index
    previous = -math.inf
    for flow in flows:
        cls = classes.get(flow.ground_truth)
        if cls is None:
            cls = classes[flow.ground_truth] = len(classes)
        flow_id = flow.flow_id
        if flow_id <= previous:
            raise OrderingError(f"flow_id {shown(flow_id)} not greater than "
                                f"previous flow_id {shown(previous)}")
        previous = flow_id
        try:
            ids.append(flow_id)
        except OverflowError:
            ids = list(ids)
            ids.append(flow_id)
        truth.append(cls)
    rows = [[truth.count(cls), 0] for cls in range(len(classes))]  # flows, blocked
    n = len(ids)
    seen = bytearray(n)
    repeated = unknown = None
    i = 0  # after the last flow found: the log nearly follows the trace
    for record in records:
        kind = record["verdict"]
        if kind not in ("allow", "block"):
            continue  # fight_back companions are not scored
        link_id = record["link_id"]
        if i == n or ids[i] != link_id:
            i = bisect_left(ids, link_id)
            if i == n or ids[i] != link_id:
                if unknown is None:
                    unknown = link_id
                continue
        if seen[i]:
            if repeated is None:
                repeated = link_id
        else:
            seen[i] = 1
            if kind == "block":
                rows[truth[i]][1] += 1
        i += 1
    if repeated is not None:
        raise IncompleteRunError(
            f"flow {shown(repeated)} has multiple final verdicts")
    if unknown is not None:
        raise IncompleteRunError(f"verdicts for unknown flows: [{shown(unknown)}]")
    if 0 in seen:
        raise IncompleteRunError(f"flow {shown(ids[seen.index(0)])} has no verdict")
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
