"""Distance-based outlier detection over an evolving one-dimensional stream window.

Objects carry a scalar feature and a timestamp.  An object is an outlier when
fewer than ``neighbor_threshold`` other live objects lie within ``radius`` of
its feature value; an inlier with at least ``neighbor_threshold`` neighbors
that arrived after it is a safe inlier and can never become an outlier before
it expires.  The window is time based: an object is live while
``now - arrival_time < window_span``.

The detector keeps no per-object evidence: in one dimension the live neighbor
count of an object is a range count on the sorted index of live values
(``valueindex``).  An insert stops counting at k + 1, so neither an insert nor
an expiry costs more with more neighbors; both grow slowly with the number of
live objects.  Labels are derived from the index when asked for.

Another live object u is a neighbor of v when ``v - radius <= u <= v +
radius`` with both ends computed in floats: u lies in [fl(v - R), fl(v + R)].
The brute-force oracle counts u when fl(|u - v|) <= R instead, so the two
agree except where a value sits on a rounded end of a range.  With k = 1,
{2.0, 2.1} and R = 0.1 hold no outlier for the detector and two for the
oracle; {0.05, 0.55} and R = 0.5 hold one for the detector and none for the
oracle.
"""

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError, OrderingError, UnknownObjectError
from .valueindex import ValueIndex


class Label(Enum):
    OUTLIER = "outlier"
    INLIER = "inlier"
    SAFE_INLIER = "safe_inlier"


# returned by the hot paths: a global reads in a quarter of a member's time
OUTLIER, INLIER, SAFE_INLIER = Label.OUTLIER, Label.INLIER, Label.SAFE_INLIER


@dataclass(frozen=True)
class DetectorParams:
    """Free parameters of the distance-based outlier model.

    radius: neighborhood half-width on the feature axis.  A live object u is
        a neighbor of v when ``v - radius <= u <= v + radius``, each end
        computed in floats, so a value on a rounded end counts.
    neighbor_threshold: minimum neighbor count for inlier status.
    window_span: time extent of the sliding window, half-open ``(now - span, now]``.
    """

    radius: float = 1.0
    neighbor_threshold: int = 3
    window_span: float = 16.0

    def __post_init__(self):
        # a non-finite radius or span could not be written to the report
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ConfigurationError(
                f"radius must be finite and > 0, got {self.radius}"
            )
        # bool is an int, but a count of neighbors is not a truth value
        if type(self.neighbor_threshold) is not int:
            raise ConfigurationError(
                f"neighbor_threshold must be an int, got {self.neighbor_threshold!r}"
            )
        if self.neighbor_threshold < 1:
            raise ConfigurationError(
                f"neighbor_threshold must be >= 1, got {self.neighbor_threshold}"
            )
        if not (self.window_span > 0 and math.isfinite(self.window_span)):
            raise ConfigurationError(
                f"window_span must be finite and > 0, got {self.window_span}"
            )


@dataclass(frozen=True, slots=True)
class StreamObject:
    """One timestamped scalar feature point flowing through the window."""

    object_id: int
    arrival_time: float
    feature_value: float
    source_ref: str = ""


@dataclass(frozen=True)
class NeighborSummary:
    """Neighbors of a live object at the current window time.

    ``preceding_neighbors`` lists live ``(object_id, arrival_time)`` pairs of
    neighbors that arrived before the object, ordered by arrival;
    ``succeeding_count`` counts neighbors that arrived after it and never
    decreases while the object is live.
    """

    object_id: int
    preceding_neighbors: tuple
    succeeding_count: int


class Detector:
    """Evolving-window outlier detector (single writer per instance)."""

    def __init__(self, params: DetectorParams):
        self.params = params
        self.current_time = 0.0
        self._records = {}        # object_id -> live StreamObject
        self._arrival = deque()   # live objects in arrival order
        self._index = ValueIndex()  # live (feature_value, object_id) pairs
        self._last_id = None

    def __len__(self):
        return len(self._records)

    @property
    def live_ids(self):
        return list(self._records)

    def insert(self, obj: StreamObject) -> Label:
        """Advance the window to the object's arrival time, expire stale
        objects, index the object and return its label."""
        if not (math.isfinite(obj.arrival_time) and math.isfinite(obj.feature_value)):
            raise OrderingError(
                f"object {obj.object_id} has non-finite arrival_time "
                f"{obj.arrival_time} or feature_value {obj.feature_value}"
            )
        if self._last_id is not None and obj.object_id <= self._last_id:
            raise OrderingError(
                f"object_id {obj.object_id} not greater than last id {self._last_id}"
            )
        if obj.arrival_time < self.current_time:
            raise OrderingError(
                f"arrival_time {obj.arrival_time} precedes window time {self.current_time}"
            )
        self._last_id = obj.object_id
        self._expire(obj.arrival_time)

        self._records[obj.object_id] = obj
        self._arrival.append(obj)
        # the count and the rule of classify: the newest object has no
        # succeeding neighbors yet, so it cannot be safe.  The label only
        # asks whether k others lie in range, so the count stops at k + 1
        value, radius = obj.feature_value, self.params.radius
        k = self.params.neighbor_threshold
        count = self._index.add(value, obj.object_id, value - radius,
                                value + radius, k + 1)
        if count - 1 < k:
            return OUTLIER
        return INLIER

    def advance_time(self, now: float) -> list:
        """Move the window to ``now`` and return the expired object ids."""
        if not math.isfinite(now):
            raise OrderingError(f"non-finite window time {now}")
        if now < self.current_time:
            raise OrderingError(
                f"time regression: {now} < current time {self.current_time}"
            )
        return self._expire(now)

    def classify(self, object_id: int) -> Label:
        """The label from the live values within the radius, the object's
        own value included."""
        radius, value = self.params.radius, self._live(object_id).feature_value
        k = self.params.neighbor_threshold
        ids = self._index.ids_within(value - radius, value + radius)
        if len(ids) - 1 < k:
            return OUTLIER
        # every later arrival outlives the object, so k succeeding neighbors
        # keep it an inlier until it expires
        later = 0
        for nid in ids:
            if nid > object_id:
                later += 1
                if later == k:
                    return SAFE_INLIER
        return INLIER

    def query_outliers(self) -> set:
        """The ids of the live objects that ``classify`` labels ``OUTLIER``."""
        # a safe inlier has at least k neighbors, so the range count alone
        # decides who is an outlier.  Knorr & Ng's pruning spares most
        # counts.  As they clear a cell that holds k + 1 objects, a run of
        # k + 1 values is cleared whole when its first value x reaches up to
        # its last y and y reaches down to x: rounding is monotone, so for
        # each v of the run fl(v + R) >= fl(x + R) >= y and
        # fl(v - R) <= fl(y - R) <= x.  The upward test does not imply the
        # downward one: 0.55 <= fl(0.05 + 0.5) but fl(0.55 - 0.5) > 0.05.
        # Short of a run, x has k neighbors when its k-th value after, or
        # before, lies within the radius
        values = self._index.values()
        radius, k = self.params.radius, self.params.neighbor_threshold
        n = len(values)
        outliers = []
        i = 0
        while i < n:
            x = values[i]
            j = i + k
            if j < n and values[j] <= x + radius:
                i = j + 1 if values[j] - radius <= x else i + 1
                continue
            # the count of classify, the object's own value included; the k-th
            # values after and before x, where they exist, lie outside its
            # range, so the two searches need not look past them
            if ((i < k or values[i - k] < x - radius)
                    and bisect_right(values, x + radius, i + 1, min(j, n))
                    - bisect_left(values, x - radius, max(i - k + 1, 0), i) <= k):
                outliers.append(i)
            i += 1
        return set(self._index.ids_at(outliers))

    def neighbor_summary(self, object_id: int) -> NeighborSummary:
        radius, value = self.params.radius, self._live(object_id).feature_value
        neighbors = [nid for nid in self._index.ids_within(value - radius, value + radius)
                     if nid != object_id]
        preceding = sorted((self._records[nid].arrival_time, nid)
                           for nid in neighbors if nid < object_id)
        return NeighborSummary(
            object_id=object_id,
            preceding_neighbors=tuple((nid, t) for t, nid in preceding),
            succeeding_count=len(neighbors) - len(preceding),
        )

    # -- internals ---------------------------------------------------------

    def _live(self, object_id):
        rec = self._records.get(object_id)
        if rec is None:
            raise UnknownObjectError(f"object {object_id} is not live")
        return rec

    def _expire(self, now):
        """Move the window time to ``now`` and return the ids it expires."""
        self.current_time = now
        span = self.params.window_span
        expired = []
        while self._arrival and now - self._arrival[0].arrival_time >= span:
            rec = self._arrival.popleft()
            del self._records[rec.object_id]
            self._index.remove(rec.feature_value, rec.object_id)
            expired.append(rec.object_id)
        return expired


def brute_force_outliers(objects, params: DetectorParams) -> set:
    """O(n^2) pairwise ground truth over an exact live-window content.

    An object is an outlier iff fewer than ``neighbor_threshold`` other
    objects u have ``abs(u - v) <= radius``, computed in floats.  Independent
    of the streaming engine; used as the oracle the detector is checked
    against.  Where a value sits on a rounded end of the detector's range
    the two predicates differ (see the module docstring).
    """
    # imported here: detect and evaluate need not pay numpy's start-up and memory
    import numpy as np
    objects = list(objects)
    if not objects:
        return set()
    values = np.array([o.feature_value for o in objects], dtype=float)
    ids = [o.object_id for o in objects]
    counts = np.zeros(len(values), dtype=np.int64)
    block = 512
    for start in range(0, len(values), block):
        chunk = values[start:start + block]
        within = np.abs(chunk[:, None] - values[None, :]) <= params.radius
        counts[start:start + block] = within.sum(axis=1) - 1  # exclude self
    k = params.neighbor_threshold
    return {oid for oid, c in zip(ids, counts) if c < k}
