"""Sorted ``(value, id)`` pairs kept as a list of short sorted sublists.

The layout follows the SortedList of sortedcontainers: float values sit in
sorted sublists, ids in parallel lists and each sublist's maximum in its own
list.  A lookup bisects the maxima, then one sublist, comparing floats only;
an insert or removal shifts one sublist of at most ``2 * LOAD`` entries, not
the whole index.  Pairs are ordered by value, and equal values by id.

An insert places the value and counts its neighborhood in one pass: ``add``
counts the range in the new value's sublist with two bisects bounded by the
new value's offset, then, while the count is below its cap, walks outward one
neighboring sublist at a time.  Each sublist a walk counts holds a value in
range, so ``add`` counts at most ``cap`` sublists however many values the range
holds.  The detector passes k + 1, where Knorr & Ng's nested-loop count stops
too: its label asks only whether k others lie in range.

``ids_within`` reads the ids of the values in a range; no position leaves the
index.  It bisects the maxima, then the start sublist, and when the range ends
before that sublist's last value (95% of the detector benchmark's classifies)
bounds the ids with one more bisect; otherwise it walks on through the next
sublists without searching again.

``LOAD`` trades the shift against the search: an insert or a removal shifts
up to ``2 * LOAD`` values and as many ids, and a lookup bisects the maxima,
one per sublist.  128 was measured best for windows of 10^4 to 10^5 live
values.  One removal plus one uncapped ``add`` (uniform values, R = 0.5,
medians of 5 rounds, 2-CPU host) took, for LOAD 64, 128, 250, 500 and 1000:

    10^4 live   3.65  3.58  3.78  4.18  4.85 us
    10^5 live   4.69  4.69  4.78  5.07  5.43 us

The detector benchmark at 10^4 live (``bench/run.py --workload
detector-mixed``, medians of 5 runs) read 147k flows/s at LOAD 1000 and
163k to 165k at 64 to 500; 128 had the narrowest spread of these.

Sublists split but never merge.  They stay full enough without a merge rule:
after 300 000 such steps at 10^4 live, with the values moved to another range
halfway through, 65 sublists held 154 values on average and the smallest 85.
"""

from bisect import bisect_left, bisect_right
from itertools import chain

# A sublist splits in two once it holds more than 2 * LOAD entries.
LOAD = 128


class ValueIndex:
    def __init__(self):
        self._values = []   # sorted float sublists, in order
        self._ids = []      # the ids of each sublist, parallel to its values
        self._maxes = []    # the last value of each sublist

    def add(self, value, object_id, lo, hi, cap):
        """Index a pair whose id is greater than every id already indexed,
        so it goes after every equal value, and count the indexed values in
        ``[lo, hi]``, the new one included; ``lo <= value <= hi``.  The count
        is exact below ``cap`` and otherwise some number ``>= cap``."""
        maxes, sublists = self._maxes, self._values
        if not maxes:
            sublists.append([value])
            self._ids.append([object_id])
            maxes.append(value)
            return 1
        pos = bisect_right(maxes, value)
        last = len(maxes) - 1
        if pos > last:
            pos = last
        values, ids = sublists[pos], self._ids[pos]
        i = bisect_right(values, value)
        values.insert(i, value)
        ids.insert(i, object_id)
        maxes[pos] = values[-1]
        count = bisect_right(values, hi, i + 1) - bisect_left(values, lo, 0, i)
        # earlier sublists hold values <= maxes[p - 1] and later ones values
        # >= their first, so each sublist a walk counts adds a value in range
        p = pos
        while count < cap and p > 0 and lo <= maxes[p - 1]:
            p -= 1
            sub = sublists[p]
            count += len(sub) - bisect_left(sub, lo)
        p = pos
        while count < cap and p < last and hi >= sublists[p + 1][0]:
            p += 1
            count += bisect_right(sublists[p], hi)
        if len(values) > 2 * LOAD:
            sublists.insert(pos + 1, values[LOAD:])
            self._ids.insert(pos + 1, ids[LOAD:])
            maxes.insert(pos, values[LOAD - 1])
            del values[LOAD:], ids[LOAD:]
        return count

    def remove(self, value, object_id):
        """Drop an indexed pair; an emptied sublist goes with it."""
        pos = bisect_left(self._maxes, value)
        i = bisect_left(self._values[pos], value)
        # equal values hold older ids first and may run into the next sublist
        while self._ids[pos][i] != object_id:
            i += 1
            if i == len(self._ids[pos]):
                pos, i = pos + 1, 0
        values, ids = self._values[pos], self._ids[pos]
        del values[i], ids[i]
        if not values:
            del self._values[pos], self._ids[pos], self._maxes[pos]
        elif i == len(values):
            self._maxes[pos] = values[-1]

    def ids_within(self, lo, hi):
        """The ids of the values in ``[lo, hi]``, in index order; ``lo <= hi``."""
        pa = bisect_left(self._maxes, lo)
        if pa == len(self._maxes):
            return []
        values = self._values[pa]
        ia = bisect_left(values, lo)
        if hi < values[-1]:
            return self._ids[pa][ia:bisect_right(values, hi, ia)]
        # the range reaches this sublist's end: take sublists up to one past hi
        found = self._ids[pa][ia:]
        for p in range(pa + 1, len(self._maxes)):
            values = self._values[p]
            if hi < values[-1]:
                found += self._ids[p][:bisect_right(values, hi)]
                break
            found += self._ids[p]
        return found

    def values(self):
        """Every value, in index order, as one flat list."""
        return list(chain.from_iterable(self._values))

    def ids_at(self, offsets):
        """The ids at ascending offsets into ``values()``."""
        found, sublists = [], iter(self._ids)
        ids, start = [], 0
        for offset in offsets:
            while offset - start >= len(ids):
                start += len(ids)
                ids = next(sublists)
            found.append(ids[offset - start])
        return found
