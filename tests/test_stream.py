import bisect
import collections
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botguard import (
    ConfigurationError, Detector, DetectorParams, Label, OrderingError,
    StreamObject, UnknownObjectError, brute_force_outliers, valueindex,
)


def make_stream(values, start_id=1, dt=1.0):
    return [
        StreamObject(start_id + i, (i + 1) * dt, float(v))
        for i, v in enumerate(values)
    ]


def feed(detector, objects):
    return [detector.insert(obj) for obj in objects]


class TestParams:
    def test_defaults_give_empty_detector(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3, window_span=16.0))
        assert len(d) == 0
        assert d.current_time == 0.0
        assert d.query_outliers() == set()

    def test_zero_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectorParams(radius=0.0)

    def test_zero_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectorParams(neighbor_threshold=0)

    def test_zero_span_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectorParams(window_span=0.0)

    @pytest.mark.parametrize("threshold", [3.0, True, "3", None, np.int64(3)])
    def test_threshold_that_is_not_an_int_rejected(self, threshold):
        # 3.0 would pass insert and classify, then fail query_outliers' slice
        with pytest.raises(ConfigurationError, match="must be an int"):
            DetectorParams(neighbor_threshold=threshold)


class TestInsert:
    def test_lone_object_is_outlier(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3))
        assert d.insert(StreamObject(1, 1.0, 5.0)) is Label.OUTLIER

    def test_identical_values_become_mutual_neighbors(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3, window_span=16.0))
        labels = feed(d, make_stream([5.0, 5.0, 5.0, 5.0]))
        assert labels[-1] is Label.INLIER
        assert d.classify(1) is Label.SAFE_INLIER
        assert d.neighbor_summary(1).succeeding_count == 3

    def test_non_monotone_id_rejected(self):
        d = Detector(DetectorParams())
        d.insert(StreamObject(5, 1.0, 0.0))
        with pytest.raises(OrderingError):
            d.insert(StreamObject(5, 2.0, 0.0))

    def test_time_regression_rejected(self):
        d = Detector(DetectorParams())
        d.insert(StreamObject(1, 5.0, 0.0))
        with pytest.raises(OrderingError):
            d.insert(StreamObject(2, 4.0, 0.0))

    def test_tie_at_radius_counts_as_neighbor(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=1))
        d.insert(StreamObject(1, 1.0, 5.0))
        assert d.insert(StreamObject(2, 2.0, 6.0)) is Label.INLIER

    def test_simultaneous_arrivals_ordered_by_id(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=1))
        d.insert(StreamObject(1, 3.0, 5.0))
        d.insert(StreamObject(2, 3.0, 5.0))
        assert d.neighbor_summary(1).succeeding_count == 1
        assert d.neighbor_summary(2).preceding_neighbors == ((1, 3.0),)

    def assert_rejected_without_state_change(self, bad):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=1))
        d.insert(StreamObject(1, 1.0, 5.0))
        with pytest.raises(OrderingError, match="non-finite"):
            d.insert(bad)
        assert d.live_ids == [1]
        assert d.current_time == 1.0
        # the rejected id is still free and the value index still ordered
        assert d.insert(StreamObject(bad.object_id, 2.0, 5.5)) is Label.INLIER
        assert d.query_outliers() == set()

    def test_stream_object_is_frozen(self):
        # the detector keeps the caller's object and finds its index entry
        # again by feature_value at expiry, so a changed value would leave
        # ValueIndex.remove looking for a pair that is not there
        obj = StreamObject(1, 1.0, 5.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.feature_value = 6.0

    def test_insert_labels_match_pairwise_counts_across_sublists(self, monkeypatch):
        # short sublists, so that some ranges stay in the sublist the insert
        # searched and others reach into the sublists beside it
        monkeypatch.setattr(valueindex, "LOAD", 3)
        paths = collections.Counter()
        add = valueindex.ValueIndex.add

        def traced_add(index, value, object_id, lo, hi, cap):
            maxes, sublists = index._maxes, index._values
            if maxes:
                pos = min(bisect.bisect_right(maxes, value), len(maxes) - 1)
                across = ((pos > 0 and lo <= maxes[pos - 1])
                          or (pos + 1 < len(maxes) and hi >= sublists[pos + 1][0]))
                paths["across" if across else "local"] += 1
            return add(index, value, object_id, lo, hi, cap)

        monkeypatch.setattr(valueindex.ValueIndex, "add", traced_add)
        params = DetectorParams(radius=0.5, neighbor_threshold=3, window_span=20.0)
        d = Detector(params)
        rng = random.Random(9)
        values = [round(rng.gauss(2.0, 0.4), 1) if rng.random() < 0.5
                  else rng.uniform(0.0, 60.0) for _ in range(1500)]
        live = []
        for obj in make_stream(values, dt=0.1):
            live = [o for o in live if obj.arrival_time - o.arrival_time < params.window_span]
            live.append(obj)
            v, r = obj.feature_value, params.radius
            neighbors = sum(v - r <= o.feature_value <= v + r for o in live) - 1
            expected = Label.OUTLIER if neighbors < params.neighbor_threshold else Label.INLIER
            assert d.insert(obj) is expected, obj
        assert paths["local"] > 0 and paths["across"] > 0

    def test_nan_feature_rejected(self):
        self.assert_rejected_without_state_change(StreamObject(2, 2.0, math.nan))

    def test_nan_time_rejected(self):
        self.assert_rejected_without_state_change(StreamObject(2, math.nan, 5.0))

    def test_infinite_feature_rejected(self):
        self.assert_rejected_without_state_change(StreamObject(2, 2.0, math.inf))


# A two-cluster stream realizing the worked window narrative: object 9's
# neighbors are exactly {5, 10, 14, 15} and object 11's are {3, 4, 6, 13},
# with radius 1, threshold 3 and span 16 over arrival times 1..18.
NARRATIVE_VALUES = {
    1: 40.0, 2: 42.0, 3: 20.3, 4: 19.8, 5: 5.3, 6: 20.2,
    7: 44.0, 8: 46.0, 9: 5.0, 10: 4.8, 11: 20.0, 12: 48.0,
    13: 19.7, 14: 5.2, 15: 4.6, 16: 50.0, 17: 52.0, 18: 54.0,
}
NARRATIVE_PARAMS = DetectorParams(radius=1.0, neighbor_threshold=3, window_span=16.0)


def narrative_stream():
    return [StreamObject(i, float(i), NARRATIVE_VALUES[i]) for i in range(1, 19)]


def pairwise_neighbor_sets(objects, radius):
    """Independent O(n^2) check of the constructed neighbor geometry."""
    sets = {}
    for a in objects:
        sets[a.object_id] = {
            b.object_id for b in objects
            if b.object_id != a.object_id
            and abs(a.feature_value - b.feature_value) <= radius
        }
    return sets


class TestNarrativeWindow:
    def test_constructed_neighbor_sets(self):
        sets = pairwise_neighbor_sets(narrative_stream(), NARRATIVE_PARAMS.radius)
        assert sets[9] == {5, 10, 14, 15}
        assert sets[11] == {3, 4, 6, 13}

    def test_labels_at_time_18(self):
        d = Detector(NARRATIVE_PARAMS)
        feed(d, narrative_stream())
        assert d.classify(9) is Label.SAFE_INLIER
        assert d.classify(11) is Label.INLIER  # four neighbors, only one succeeding

    def test_expiry_turns_survivor_into_outlier(self):
        d = Detector(NARRATIVE_PARAMS)
        feed(d, narrative_stream())
        expired = d.advance_time(22.0)
        assert expired == [3, 4, 5, 6]  # ids 1, 2 already expired at t=18
        assert d.classify(11) is Label.OUTLIER
        assert 11 in d.query_outliers()
        assert d.classify(9) is Label.SAFE_INLIER


class TestAdvanceTime:
    def test_expiry_arithmetic(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3, window_span=16.0))
        objects = make_stream([float(i) * 3 for i in range(18)])
        expired_during_feed = []
        for obj in objects:
            d.insert(obj)
            # ids 1, 2 expire while feeding (t=17, 18)
        expired_during_feed = [oid for oid in (1, 2) if oid not in d.live_ids]
        expired = d.advance_time(22.0)
        gone = set(expired_during_feed) | set(expired)
        assert gone == {obj.object_id for obj in objects if obj.arrival_time <= 6.0}
        assert set(d.live_ids) == {o.object_id for o in objects if o.arrival_time > 6.0}

    def test_no_movement_is_empty(self):
        d = Detector(DetectorParams())
        d.insert(StreamObject(1, 1.0, 5.0))
        assert d.advance_time(d.current_time) == []

    def test_regression_rejected(self):
        d = Detector(DetectorParams())
        d.advance_time(10.0)
        with pytest.raises(OrderingError):
            d.advance_time(9.0)

    def test_nan_time_rejected(self):
        d = Detector(DetectorParams())
        d.advance_time(10.0)
        with pytest.raises(OrderingError, match="non-finite"):
            d.advance_time(math.nan)
        assert d.current_time == 10.0

    def test_expired_objects_leave_no_trace_in_queries(self):
        d = Detector(DetectorParams(window_span=2.0, neighbor_threshold=1))
        d.insert(StreamObject(1, 1.0, 5.0))
        d.advance_time(3.0)
        assert d.query_outliers() == set()
        with pytest.raises(UnknownObjectError):
            d.classify(1)


class TestClassify:
    def test_three_succeeding_is_safe(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3))
        feed(d, make_stream([5.0, 5.0, 5.0, 5.0]))
        summary = d.neighbor_summary(1)
        assert summary.succeeding_count == 3
        assert d.classify(1) is Label.SAFE_INLIER

    def test_no_neighbors_is_outlier(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3))
        d.insert(StreamObject(1, 1.0, 5.0))
        assert d.classify(1) is Label.OUTLIER

    def test_two_preceding_one_succeeding_is_plain_inlier(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3))
        feed(d, make_stream([5.0, 5.0, 5.0, 5.0]))
        # object 3: preceding {1, 2}, succeeding {4} -> 3 >= k total, 1 < k succ
        summary = d.neighbor_summary(3)
        assert len(summary.preceding_neighbors) == 2
        assert summary.succeeding_count == 1
        assert d.classify(3) is Label.INLIER
        assert d.classify(4) is Label.INLIER

    def test_unknown_id_raises(self):
        d = Detector(DetectorParams())
        with pytest.raises(UnknownObjectError):
            d.classify(99)

    def test_classify_matches_pairwise_labels_across_sublists(self, monkeypatch):
        # short sublists, so that a range often ends in the sublist where it
        # starts and often runs on into the next ones
        monkeypatch.setattr(valueindex, "LOAD", 3)
        paths = collections.Counter()
        ids_within = valueindex.ValueIndex.ids_within

        def traced_ids_within(index, lo, hi):
            start = bisect.bisect_left(index._maxes, lo)
            if start < len(index._maxes):
                last = index._maxes[start]
                paths["local" if hi < last else "across"] += 1
                paths["ends_on_last"] += hi == last
            return ids_within(index, lo, hi)

        monkeypatch.setattr(valueindex.ValueIndex, "ids_within", traced_ids_within)
        params = DetectorParams(radius=0.5, neighbor_threshold=3, window_span=10.0)
        r, k = params.radius, params.neighbor_threshold
        d = Detector(params)
        live = []

        def check():
            # a neighbor of v lies in [fl(v - R), fl(v + R)], as in the detector
            values = np.array([o.feature_value for o in live])
            ids = np.array([o.object_id for o in live])
            within = ((values[None, :] >= (values - r)[:, None])
                      & (values[None, :] <= (values + r)[:, None]))
            np.fill_diagonal(within, False)
            later = (within & (ids[None, :] > ids[:, None])).sum(axis=1)
            for oid, count, succ in zip(ids.tolist(), within.sum(axis=1), later):
                expected = (Label.OUTLIER if count < k else
                            Label.SAFE_INLIER if succ >= k else Label.INLIER)
                assert d.classify(oid) is expected, oid

        rng = random.Random(11)
        now = 0.0
        for i in range(1, 901):
            now += 0.1
            if i % 300 == 0:
                # a gap: advance_time alone expires half the window
                now += 5.0
                d.advance_time(now)
                live = [o for o in live if now - o.arrival_time < params.window_span]
                check()
            # quarter steps repeat values, so runs of one value straddle
            # sublists and ranges end exactly on a sublist's last value
            value = (round(rng.gauss(2.0, 0.4) * 4) / 4 if rng.random() < 0.5
                     else rng.uniform(0.0, 60.0))
            obj = StreamObject(i, now, value)
            d.insert(obj)
            live = [o for o in live if now - o.arrival_time < params.window_span]
            live.append(obj)
            check()
        assert sorted(d.live_ids) == [o.object_id for o in live]
        assert min(paths.values()) > 0, paths


class TestQueryOutliers:
    def test_identical_window_has_none(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3, window_span=100.0))
        feed(d, make_stream([5.0] * 10))
        assert d.query_outliers() == set()

    def test_far_point_flagged(self):
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3, window_span=100.0))
        objects = make_stream([5.0] * 9 + [50.0])
        feed(d, objects)
        assert d.query_outliers() == {10}
        assert d.query_outliers() == brute_force_outliers(objects, d.params)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0.05, 0.1, 1 / 3]),
        st.sampled_from([1.0, -1.0, 1e6, 1e-6]),
        st.lists(st.integers(min_value=-30, max_value=30), max_size=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
    )
    @example(0.1, 1.0, [], 1, 3)
    @example(0.1, -1.0, [4, 4, 4], 1, 3)
    @example(0.05, 1.0, [1, 11], 10, 1)
    @example(0.05, 1.0, [-3, 1], 4, 1)
    @example(0.1, 1.0, [20, 21], 1, 1)
    def test_query_agrees_with_classify_on_grid_windows(self, step, scale, grid,
                                                        reach, k):
        # values and radius on one decimal grid put values on the rounded
        # ends of a range, where a pruning rule could drift from the count
        params = DetectorParams(radius=reach * step * abs(scale),
                                neighbor_threshold=k, window_span=1000.0)
        d = Detector(params)
        feed(d, make_stream([m * step * scale for m in grid]))
        assert d.query_outliers() == {
            oid for oid in d.live_ids if d.classify(oid) is Label.OUTLIER}

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0.05, 0.1, 1 / 3]),
        st.lists(st.integers(min_value=-12, max_value=12), max_size=80),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=5, max_value=100),
    )
    def test_query_agrees_with_classify_across_sublists(self, step, grid, reach,
                                                        k, span):
        # sublists of at most 6 values, so that the flat walk, its runs of
        # k + 1 and ids_at cross sublist boundaries; expiry empties some
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(valueindex, "LOAD", 3)
            params = DetectorParams(radius=reach * step, neighbor_threshold=k,
                                    window_span=float(span))
            d = Detector(params)
            feed(d, make_stream([m * step for m in grid]))
            assert d.query_outliers() == {
                oid for oid in d.live_ids if d.classify(oid) is Label.OUTLIER}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_runs_of_k_are_outliers_and_runs_of_k_plus_one_are_not(self, k):
        # a run of k equal values gives each k - 1 neighbors, a run of k + 1
        # gives each k; the runs lie 10 apart, far outside the radius
        sizes = [k, k + 1, k, k + 1, k + 1, k, k]
        values = [10.0 * run for run, size in enumerate(sizes) for _ in range(size)]
        d = Detector(DetectorParams(radius=1.0, neighbor_threshold=k, window_span=1e3))
        objects = make_stream(values)
        feed(d, objects)
        expected = {obj.object_id for obj in objects
                    if sizes[int(obj.feature_value) // 10] == k}
        assert d.query_outliers() == expected
        assert expected == {oid for oid in d.live_ids
                            if d.classify(oid) is Label.OUTLIER}

    @pytest.mark.parametrize("spacing, expected", [(2.0, 10_000), (0.0, 0)])
    def test_large_window_matches_oracle(self, spacing, expected):
        # 10^4 live objects, all isolated (every one an outlier) or all equal
        params = DetectorParams(radius=0.5, neighbor_threshold=3, window_span=1e5)
        d = Detector(params)
        objects = make_stream([5.0 + i * spacing for i in range(10_000)])
        feed(d, objects)
        found = d.query_outliers()
        assert len(d) == 10_000 and len(found) == expected
        assert found == brute_force_outliers(objects, params)


class TestBruteForce:
    def test_empty(self):
        assert brute_force_outliers([], DetectorParams()) == set()

    def test_single_object_needs_one_neighbor(self):
        params = DetectorParams(neighbor_threshold=1)
        assert brute_force_outliers([StreamObject(1, 1.0, 5.0)], params) == {1}

    def test_matches_streaming_on_random_windows(self):
        for seed in range(30):
            rng = random.Random(seed)
            params = DetectorParams(
                radius=rng.choice([0.5, 1.0, 5.0]),
                neighbor_threshold=rng.choice([1, 2, 3, 5]),
                window_span=rng.choice([8.0, 32.0, 1000.0]),
            )
            d = Detector(params)
            objects = make_stream(
                [rng.uniform(0, 50) for _ in range(rng.randrange(0, 300))]
            )
            feed(d, objects)
            live = [o for o in objects if o.object_id in d.live_ids]
            assert d.query_outliers() == brute_force_outliers(live, params), seed


def dense_stream(seed, n, dt):
    """Simulator-shaped features: a legit cluster at 2.0 +- 0.2, a bot cluster
    at 6.0 +- 0.2 and a few isolated flows scattered over [0, 20]."""
    rng = random.Random(seed)
    values = []
    for _ in range(n):
        u = rng.random()
        if u < 0.6:
            values.append(rng.gauss(2.0, 0.2))
        elif u < 0.95:
            values.append(rng.gauss(6.0, 0.2))
        else:
            values.append(rng.uniform(0.0, 20.0))
    return make_stream(values, dt=dt)


def brute_force_labels(objects, params):
    """Three-way labels from pairwise counts of neighbors and of neighbors
    with a later id, independent of the streaming engine."""
    values = np.array([o.feature_value for o in objects])
    ids = np.array([o.object_id for o in objects])
    within = np.abs(values[:, None] - values[None, :]) <= params.radius
    np.fill_diagonal(within, False)
    counts = within.sum(axis=1)
    later = (within & (ids[None, :] > ids[:, None])).sum(axis=1)
    k = params.neighbor_threshold
    labels = {}
    for oid, count, succ in zip(ids.tolist(), counts, later):
        if succ >= k:
            labels[oid] = Label.SAFE_INLIER
        elif count < k:
            labels[oid] = Label.OUTLIER
        else:
            labels[oid] = Label.INLIER
    return labels


class TestDenseOracle:
    PARAMS = DetectorParams(radius=1.0, neighbor_threshold=3, window_span=16.0)

    def check_window(self, d, by_id):
        live = [by_id[oid] for oid in d.live_ids]
        assert d.query_outliers() == brute_force_outliers(live, self.PARAMS)
        expected = brute_force_labels(live, self.PARAMS)
        assert {oid: d.classify(oid) for oid in d.live_ids} == expected
        return set(expected.values())

    # dt 0.016 fills the window with 10^3 live objects, dt 0.16 with 10^2
    @pytest.mark.parametrize("seed, dt", [(0, 0.016), (1, 0.064), (2, 0.16)])
    def test_exact_mode_equals_oracle(self, seed, dt):
        d = Detector(self.PARAMS)
        objects = dense_stream(seed, 2000, dt)
        by_id = {o.object_id: o for o in objects}
        seen = set()
        for i, obj in enumerate(objects, start=1):
            d.insert(obj)
            if i % 400 == 0:
                seen |= self.check_window(d, by_id)
        assert len(d) <= 1000
        for step in (0.3, 0.5):
            d.advance_time(d.current_time + step * self.PARAMS.window_span)
            seen |= self.check_window(d, by_id)
        assert seen == set(Label)

    def test_quantized_window_of_5000(self):
        # 5 * 10^3 live objects on a 0.1 grid: several value-index sublists,
        # with runs of equal values across their boundaries
        rng = random.Random(4)
        values = [round(rng.gauss(2.0, 0.3) if rng.random() < 0.6
                        else rng.gauss(6.0, 0.3) if rng.random() < 0.9
                        else rng.uniform(0.0, 2000.0), 1)
                  for _ in range(6000)]
        objects = make_stream(values, dt=self.PARAMS.window_span / 5000)
        by_id = {o.object_id: o for o in objects}
        d = Detector(self.PARAMS)
        feed(d, objects[:5000])
        assert len(d) == 5000
        seen = self.check_window(d, by_id)
        feed(d, objects[5000:])
        seen |= self.check_window(d, by_id)
        d.advance_time(d.current_time + 0.5 * self.PARAMS.window_span)
        seen |= self.check_window(d, by_id)
        assert seen == set(Label)


class TestInvariants:
    def test_safe_inlier_permanence(self):
        rng = random.Random(7)
        params = DetectorParams(radius=2.0, neighbor_threshold=3, window_span=10.0)
        d = Detector(params)
        seen_safe = set()
        for obj in make_stream([rng.uniform(0, 20) for _ in range(2000)], dt=0.1):
            d.insert(obj)
            for oid in d.live_ids:
                label = d.classify(oid)
                if label is Label.SAFE_INLIER:
                    seen_safe.add(oid)
                elif oid in seen_safe:
                    pytest.fail(f"object {oid} lost safe status: {label}")

    def test_succeeding_count_monotone(self):
        rng = random.Random(3)
        d = Detector(DetectorParams(radius=2.0, neighbor_threshold=3, window_span=50.0))
        highest = {}
        for obj in make_stream([rng.uniform(0, 10) for _ in range(500)], dt=0.2):
            d.insert(obj)
            for oid in d.live_ids:
                succ = d.neighbor_summary(oid).succeeding_count
                assert succ >= highest.get(oid, 0)
                highest[oid] = succ

    def test_neighbor_symmetry(self):
        rng = random.Random(11)
        d = Detector(DetectorParams(radius=1.5, neighbor_threshold=2, window_span=30.0))
        objects = make_stream([rng.uniform(0, 10) for _ in range(200)], dt=0.3)
        feed(d, objects)
        values = {o.object_id: o.feature_value for o in objects}
        for oid in d.live_ids:
            for nid, _ in d.neighbor_summary(oid).preceding_neighbors:
                assert abs(values[oid] - values[nid]) <= d.params.radius
                assert d.neighbor_summary(nid).succeeding_count >= 1

    def test_expiry_soundness(self):
        rng = random.Random(5)
        params = DetectorParams(radius=1.0, neighbor_threshold=2, window_span=4.0)
        d = Detector(params)
        inserted = []
        for obj in make_stream([rng.uniform(0, 5) for _ in range(400)], dt=0.5):
            d.insert(obj)
            inserted.append(obj)
            # live: exactly the inserted objects inside the window, by arrival
            span = params.window_span
            assert d.live_ids == [o.object_id for o in inserted
                                  if d.current_time - o.arrival_time < span]

    def test_determinism(self):
        def run():
            d = Detector(DetectorParams(radius=1.0, neighbor_threshold=3, window_span=12.0))
            rng = random.Random(123)
            out = []
            for obj in make_stream([rng.uniform(0, 8) for _ in range(300)], dt=0.4):
                out.append(d.insert(obj))
            out.append(sorted(d.query_outliers()))
            return out

        assert run() == run()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=30, allow_nan=False), max_size=80),
        st.integers(min_value=1, max_value=5),
    )
    def test_streaming_equals_oracle_property(self, values, k):
        params = DetectorParams(radius=1.0, neighbor_threshold=k, window_span=25.0)
        d = Detector(params)
        objects = make_stream(values, dt=0.5)
        feed(d, objects)
        live = [o for o in objects if o.object_id in d.live_ids]
        assert d.query_outliers() == brute_force_outliers(live, params)
