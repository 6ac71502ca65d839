"""Sorted ``(value, id)`` pairs kept as a list of short sorted sublists.

The layout follows the SortedList of sortedcontainers: float values sit in
sorted sublists, ids in parallel lists and each sublist's maximum in its own
list.  A lookup bisects the maxima, then one sublist, comparing floats only;
an insert or removal shifts one sublist of at most ``2 * LOAD`` entries, not
the whole index.  Pairs are ordered by value, and equal values by id.

An insert places the value and counts its neighborhood in one pass: ``add``
takes the range to count and, when the range reaches into no other sublist,
counts it with two bisects of the sublist it has just searched, bounded by the
new value's offset.  Only a range that crosses into another sublist, or an
insert that splits its sublist, is counted by ``span`` from the maxima again.

A position is a ``(sublist, offset)`` pair; ``span`` returns two of them so
that ``ids`` can slice the run between them without searching again.

``LOAD`` trades the shift against the search: an insert or a removal shifts
up to ``2 * LOAD`` values and as many ids, and a lookup bisects the maxima,
one per sublist.  128 was measured best for windows of 10^4 to 10^5 live
values.  One removal plus one counting ``add`` (uniform values, R = 0.5,
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

    def add(self, value, object_id, lo, hi):
        """Index a pair whose id is greater than every id already indexed,
        so it goes after every equal value, and return the number of indexed
        values in ``[lo, hi]``, the new one included; ``lo <= value <= hi``."""
        maxes = self._maxes
        if not maxes:
            self._values.append([value])
            self._ids.append([object_id])
            maxes.append(value)
            return 1
        pos = bisect_right(maxes, value)
        last = len(maxes) - 1
        if pos > last:
            pos = last
        values, ids = self._values[pos], self._ids[pos]
        i = bisect_right(values, value)
        values.insert(i, value)
        ids.insert(i, object_id)
        maxes[pos] = values[-1]
        if len(values) > 2 * LOAD:
            self._values.insert(pos + 1, values[LOAD:])
            self._ids.insert(pos + 1, ids[LOAD:])
            maxes.insert(pos, values[LOAD - 1])
            del values[LOAD:], ids[LOAD:]
            return self.span(lo, hi)[2]
        # earlier sublists hold values <= maxes[pos - 1] and later ones values
        # >= the next sublist's first, so a range between the two lies here
        if ((pos == 0 or lo > maxes[pos - 1])
                and (pos == last or hi < self._values[pos + 1][0])):
            return bisect_right(values, hi, i + 1) - bisect_left(values, lo, 0, i)
        return self.span(lo, hi)[2]

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

    def span(self, lo, hi):
        """Positions of the first value ``>= lo`` and of the first value
        ``> hi``, and the number of values between them; ``lo <= hi``."""
        maxes, sublists = self._maxes, self._values
        pa = bisect_left(maxes, lo)
        if pa == len(maxes):
            end = (pa - 1, len(sublists[-1])) if maxes else (0, 0)
            return end, end, 0
        ia = bisect_left(sublists[pa], lo)
        pb = bisect_right(maxes, hi, pa)
        if pb == len(maxes):
            pb -= 1
            ib = len(sublists[pb])
        else:
            ib = bisect_right(sublists[pb], hi)
        count = ib - ia
        if pa != pb:
            count += sum(map(len, sublists[pa:pb]))
        return (pa, ia), (pb, ib), count

    def ids(self, start, end):
        """The ids from position ``start`` up to ``end``, in index order."""
        (pa, ia), (pb, ib) = start, end
        if pa == pb:
            return self._ids[pa][ia:ib] if ia < ib else []
        ids = self._ids[pa][ia:]
        for middle in self._ids[pa + 1:pb]:
            ids += middle
        ids += self._ids[pb][:ib]
        return ids

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
