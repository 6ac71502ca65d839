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
                  st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("span"),
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
                # the returned count is the span of [v - r, v + r] after the add
                value, radius = op[1:]
                next_id += 1
                count = index.add(value, next_id, value - radius, value + radius)
                bisect.insort(reference, (value, next_id))
                assert count == sum(value - radius <= v <= value + radius
                                    for v, _ in reference)
            elif op[0] == "remove" and reference:
                value, object_id = reference.pop(op[1] % len(reference))
                index.remove(value, object_id)
            elif op[0] == "span":
                lo, hi = sorted(op[1:])
                start, end, count = index.span(lo, hi)
                expected = [oid for value, oid in reference if lo <= value <= hi]
                assert count == len(expected)
                assert index.ids(start, end) == expected
                offsets = [i for i, (value, _) in enumerate(reference)
                           if lo <= value <= hi]
                assert index.ids_at(offsets) == expected
            check_layout(index, reference, load)


def test_sublists_split_and_empty_ones_go(monkeypatch):
    monkeypatch.setattr(valueindex, "LOAD", 2)
    index = ValueIndex()
    for object_id in range(1, 11):
        assert index.add(1.0, object_id, 0.5, 1.5) == object_id
    assert len(index._values) > 1
    for object_id in range(1, 11):
        index.remove(1.0, object_id)
    assert index._values == index._ids == index._maxes == []
    assert index.span(0.0, 2.0)[2] == 0
