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
live objects.  Labels are derived from the index when asked for; the
detector keeps each live object's value by id, in arrival order, to find it.

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
from enum import Enum

from .errors import ConfigurationError, OrderingError, UnknownObjectError
from .valueindex import ValueIndex


class Label(Enum):
    OUTLIER = "outlier"
    INLIER = "inlier"
    SAFE_INLIER = "safe_inlier"


# returned by the hot paths: a global reads in a quarter of a member's time
OUTLIER, INLIER, SAFE_INLIER = Label.OUTLIER, Label.INLIER, Label.SAFE_INLIER
# frozen records set fields by this global: quicker than object.__setattr__
_set_field = object.__setattr__


class Record:
    """A record whose fields are its class's ``__slots__``.  It equals a
    record of its own type with equal fields, prints as
    ``Name(field=value, ...)`` and is unhashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A ``Record`` that refuses to assign or delete a field and hashes by
    its fields; ``copy`` and ``pickle`` rebuild it from them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()


def is_finite(value):
    """``math.isfinite(value)``, but False for an int beyond the float range,
    on which ``math.isfinite`` raises ``OverflowError``."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def shown(value):
    """``repr(value)``, or the size of an int too long for ``repr``, or the
    type of a value that holds one."""
    try:
        return repr(value)
    except ValueError:  # more digits than int-to-text conversion allows
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__}"


def check_number(name, value, least=-math.inf, most=math.inf, above=False):
    """Refuse ``value``, naming the setting ``name``, unless it is an int or
    a float but no bool, finite and within [least, most], or within
    (least, most] when ``above``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be an int or a float, got {shown(value)}")
    if not (is_finite(value) and least <= value <= most
            and not (above and value == least)):
        low = f" and {'>' if above else '>='} {least}" if least > -math.inf else ""
        high = f" and <= {most}" if most < math.inf else ""
        raise ConfigurationError(f"{name} must be finite{low}{high}, got {shown(value)}")


def check_count(name, value, least, most=math.inf):
    """Refuse ``value``, naming the setting ``name``, unless it is exactly an
    int, so no bool and no numpy integer, within [least, most]."""
    if type(value) is not int:
        raise ConfigurationError(f"{name} must be an int, got {shown(value)}")
    if not least <= value <= most:
        high = f" and <= {most}" if most < math.inf else ""
        raise ConfigurationError(f"{name} must be >= {least}{high}, got {shown(value)}")


class DetectorParams(FrozenRecord):
    """Free parameters of the distance-based outlier model.

    radius: neighborhood half-width on the feature axis.  A live object u is
        a neighbor of v when ``v - radius <= u <= v + radius``, each end
        computed in floats, so a value on a rounded end counts.
    neighbor_threshold: minimum neighbor count for inlier status.
    window_span: time extent of the sliding window, half-open ``(now - span, now]``.
    """

    __slots__ = ("radius", "neighbor_threshold", "window_span")

    def __init__(self, radius=1.0, neighbor_threshold=3, window_span=16.0):
        check_number("detector.radius", radius, 0, above=True)
        check_count("detector.neighbor_threshold", neighbor_threshold, 1)
        check_number("detector.window_span", window_span, 0, above=True)
        _set_field(self, "radius", radius)
        _set_field(self, "neighbor_threshold", neighbor_threshold)
        _set_field(self, "window_span", window_span)


class StreamObject(FrozenRecord):
    """One timestamped scalar feature point flowing through the window."""

    __slots__ = ("object_id", "arrival_time", "feature_value", "source_ref")

    def __init__(self, object_id, arrival_time, feature_value, source_ref=""):
        _set_field(self, "object_id", object_id)
        _set_field(self, "arrival_time", arrival_time)
        _set_field(self, "feature_value", feature_value)
        _set_field(self, "source_ref", source_ref)


class Detector:
    """Evolving-window outlier detector (single writer per instance).

    ``_values`` maps each live id to its feature value, in arrival order:
    ``classify`` reads a value from it and ``live_ids`` lists its keys.  The
    window time and the last id start at -inf: any first object is in order.
    """

    def __init__(self, params: DetectorParams):
        self.params = params
        self.current_time = -math.inf
        self._values = {}         # object_id -> live feature value
        self._arrival = deque()   # live objects in arrival order
        self._index = ValueIndex()  # live (feature_value, object_id) pairs
        self._last_id = -math.inf

    def __len__(self):
        return len(self._values)

    @property
    def live_ids(self):
        return list(self._values)

    def insert(self, obj: StreamObject) -> Label:
        """Advance the window to the object's arrival time, expire stale
        objects, index the object and return its label."""
        # is_finite inlined: a call would cost every insert, and a try costs
        # nothing until it raises
        try:
            finite = (math.isfinite(obj.arrival_time)
                      and math.isfinite(obj.feature_value))
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise OrderingError(
                f"object {shown(obj.object_id)} has non-finite arrival_time "
                f"{shown(obj.arrival_time)} or feature_value "
                f"{shown(obj.feature_value)}"
            )
        if obj.object_id <= self._last_id:
            raise OrderingError(f"object_id {shown(obj.object_id)} not greater "
                                f"than last id {shown(self._last_id)}")
        if obj.arrival_time < self.current_time:
            raise OrderingError(
                f"arrival_time {obj.arrival_time} precedes window time {self.current_time}"
            )
        self._last_id = obj.object_id
        self._expire(obj.arrival_time)

        value, radius = obj.feature_value, self.params.radius
        self._values[obj.object_id] = value
        self._arrival.append(obj)
        # the count and the rule of classify: the newest object has no
        # succeeding neighbors yet, so it cannot be safe.  The label only
        # asks whether k others lie in range, so the count stops at k + 1
        k = self.params.neighbor_threshold
        count = self._index.add(value, obj.object_id, value - radius,
                                value + radius, k + 1)
        if count - 1 < k:
            return OUTLIER
        return INLIER

    def advance_time(self, now: float) -> list:
        """Move the window to ``now`` and return the expired object ids."""
        if not is_finite(now):
            raise OrderingError(f"non-finite window time {shown(now)}")
        if now < self.current_time:
            raise OrderingError(
                f"time regression: {now} < current time {self.current_time}"
            )
        return self._expire(now)

    def classify(self, object_id: int) -> Label:
        """The label from the live values within the radius, the object's
        own value included."""
        value = self._values.get(object_id)
        if value is None:
            raise UnknownObjectError(f"object {shown(object_id)} is not live")
        radius, k = self.params.radius, self.params.neighbor_threshold
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

    # -- internals ---------------------------------------------------------

    def _expire(self, now):
        """Move the window time to ``now`` and return the ids it expires."""
        self.current_time = now
        span = self.params.window_span
        expired = []
        while self._arrival and now - self._arrival[0].arrival_time >= span:
            rec = self._arrival.popleft()
            del self._values[rec.object_id]
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
