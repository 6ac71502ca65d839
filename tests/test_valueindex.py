import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botguard import valueindex
from botguard.valueindex import ValueIndex

# few levels, so that runs of equal values straddle sublist boundaries
LEVELS = [0.0, 0.5, 1.0, 1.5, 2.0]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(LEVELS),
                  st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                  st.one_of(st.integers(1, 6), st.integers(1, 200))),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("range"),
                  st.sampled_from([-1.0, *LEVELS, 0.75, 3.0]),
                  st.sampled_from([-1.0, *LEVELS, 0.75, 3.0])),
    ),
    max_size=150,
)


def check_layout(index, reference, load):
    values = index.values()
    assert list(zip(values, index.ids_at(range(len(values))))) == reference
    assert all(0 < len(sub) <= 2 * load for sub in index._values)
    assert [len(sub) for sub in index._ids] == [len(sub) for sub in index._values]
    assert index._maxes == [sub[-1] for sub in index._values]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=4), operations)
def test_index_matches_sorted_pairs(load, ops):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(valueindex, "LOAD", load)
        index = ValueIndex()
        reference = []  # sorted (value, id)
        next_id = 0
        for op in ops:
            if op[0] == "add":
                # the returned count is that of [v - r, v + r] after the add,
                # exact below the cap and at least the cap otherwise
                value, radius, cap = op[1:]
                next_id += 1
                count = index.add(value, next_id, value - radius, value + radius, cap)
                bisect.insort(reference, (value, next_id))
                expected = sum(value - radius <= v <= value + radius
                               for v, _ in reference)
                assert min(expected, cap) <= count <= expected
            elif op[0] == "remove" and reference:
                value, object_id = reference.pop(op[1] % len(reference))
                index.remove(value, object_id)
            elif op[0] == "range":
                lo, hi = sorted(op[1:])
                expected = [oid for value, oid in reference if lo <= value <= hi]
                assert index.ids_within(lo, hi) == expected
                offsets = [i for i, (value, _) in enumerate(reference)
                           if lo <= value <= hi]
                assert index.ids_at(offsets) == expected
            check_layout(index, reference, load)


def test_sublists_split_and_empty_ones_go(monkeypatch):
    monkeypatch.setattr(valueindex, "LOAD", 2)
    index = ValueIndex()
    # each add counts the whole run of 1.0, back through sublists whose
    # maximum equals the range's low end
    for object_id in range(1, 11):
        assert index.add(1.0, object_id, 1.0, 1.0, 11) == object_id
    assert len(index._values) > 1
    # hi is the first sublist's last value, and the run of 1.0 goes on past it
    assert index.ids_within(0.5, 1.0) == list(range(1, 11))
    for object_id in range(1, 11):
        index.remove(1.0, object_id)
    assert index._values == index._ids == index._maxes == []
    assert index.ids_within(0.0, 2.0) == []


def test_remove_follows_an_equal_run_into_the_next_sublist(monkeypatch):
    monkeypatch.setattr(valueindex, "LOAD", 2)
    index = ValueIndex()
    for object_id in range(1, 6):
        index.add(1.0, object_id, 1.0, 1.0, 6)
    # the fifth add split the run of 1.0: ids 1, 2 | 3, 4, 5
    assert index._ids == [[1, 2], [3, 4, 5]]
    # each search starts at the first sublist's first 1.0 and walks on
    index.remove(1.0, 3)
    assert index._ids == [[1, 2], [4, 5]]
    index.remove(1.0, 5)
    assert index._ids == [[1, 2], [4]]
    assert index._maxes == [1.0, 1.0]
    assert index.ids_within(1.0, 1.0) == [1, 2, 4]


class RecordedSublists(list):
    """The index's value sublists, recording the position of each one read."""

    def __init__(self, sublists):
        super().__init__(sublists)
        self.read = set()

    def __getitem__(self, key):
        positions = range(len(self))[key]
        self.read.update(positions if isinstance(key, slice) else [positions])
        return super().__getitem__(key)


# the first value walks right only, the middle one left first
@pytest.mark.parametrize("value", [0.0005, 0.1005])
@pytest.mark.parametrize("cap", [4, 8])
def test_capped_add_reads_at_most_cap_sublists(monkeypatch, value, cap):
    monkeypatch.setattr(valueindex, "LOAD", 2)
    index = ValueIndex()
    for object_id in range(1, 201):
        index.add(object_id / 1000, object_id, -1.0, 1.0, 1)
    assert len(index._values) > 50
    # all 201 values lie in range, but the count stops past the cap
    index._values = RecordedSublists(index._values)
    assert index.add(value, 201, -1.0, 1.0, cap) >= cap
    assert 1 < len(index._values.read) <= cap
