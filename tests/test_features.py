"""Feature engineering: wind decomposition, labels, joins, scaling.

Wind oracle values are worked by hand from the meteorological convention
(direction reports where wind comes FROM; components describe where air
moves TO): a 5 m/s northerly (dir 0) moves air due south, so its east
component is 0 and its north component is -5.
"""

import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostcast import DataError, DomainError, GeoPoint, StationAttributes, StationSeries
from frostcast.features import (
    MAX_HORIZON,
    ScalerStats,
    StationFrame,
    _wind_component_arrays,
    apply_scaler,
    climate_matrix,
    fit_scaler_arrays,
    invert_label,
    join_pair_arrays,
    join_timestamps,
    label_arrays,
    pair_feature_arrays,
    scale_label,
    station_frame,
    station_frames,
)


def series_from_temps(temps, station_id="s", start=0, step=1):
    attrs = StationAttributes(GeoPoint(146.0, -33.0), 100.0, 0.2)
    temps = np.asarray(temps, dtype=np.float64)
    ts = start + np.arange(temps.size, dtype=np.int64) * step
    raw = np.column_stack([temps, temps - 2.0, np.full((temps.size, 3), (70.0, 1.0, 45.0))])
    return StationSeries(station_id, attrs, ts, raw)


def series_at(timestamps, temps, station_id="s"):
    """A series observed at the given minutes with the given temperatures."""
    ts = np.asarray(timestamps, dtype=np.int64)
    return replace(series_from_temps(temps, station_id), timestamps=ts)


def reference_labels(timestamps, temps, horizon):
    """The label rule, one timestamp at a time: [(t, label), ...].

    A label at t is the minimum over observations in (t, t + horizon]. It
    needs every step from t up to the window's last observation to be at
    most the median step, and that last observation later than
    t + horizon - the median step.
    """
    ts = [int(t) for t in timestamps]
    step = statistics.median(b - a for a, b in zip(ts, ts[1:]))
    out = []
    for i, t in enumerate(ts):
        window = [j for j in range(i + 1, len(ts)) if ts[j] <= t + horizon]
        if not window or ts[window[-1]] <= t + horizon - step:
            continue
        if max(ts[j] - ts[j - 1] for j in window) > step:
            continue
        out.append((t, min(float(temps[j]) for j in window)))
    return out


def labels_as_pairs(series, horizon):
    ts, labels = label_arrays(series, horizon)
    return list(zip(ts.tolist(), labels.tolist()))


def reference_reverse_direction(met_deg):
    """The scalar flip from the direction the wind blows from to its travel."""
    return met_deg + 180.0 if met_deg < 180.0 else met_deg - 180.0


def reference_wind_components(met_deg, speed):
    """The scalar (east, north) formula the array path must match bit for bit."""
    deg = np.radians(reference_reverse_direction(met_deg))
    return float(speed * np.sin(deg)), float(speed * np.cos(deg))


def wind(met_deg, speed):
    """(east, north) of one (direction, speed) pair through the array path."""
    e, n = _wind_component_arrays(np.array([met_deg]), np.array([speed]))
    return float(e[0]), float(n[0])


class TestWindComponents:
    def test_northerly_moves_air_south(self):
        e, n = wind(0.0, 5.0)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert n == pytest.approx(-5.0, abs=1e-12)

    def test_westerly_moves_air_east(self):
        e, n = wind(270.0, 4.0)
        assert e == pytest.approx(4.0, abs=1e-12)
        assert n == pytest.approx(0.0, abs=1e-12)

    def test_southerly_moves_air_north(self):
        e, n = wind(180.0, 3.0)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert n == pytest.approx(3.0, abs=1e-12)

    def test_direction_domain(self):
        with pytest.raises(DomainError):
            wind(360.0, 1.0)
        with pytest.raises(DomainError):
            wind(-1.0, 1.0)
        with pytest.raises(DomainError):
            wind(90.0, -1.0)

    def test_reverse_direction_oracle(self):
        # Wind from 0, 179, 180 and 270 degrees travels toward 180, 359, 0 and 90.
        for met_deg, travel_deg in [(0.0, 180.0), (179.0, 359.0), (180.0, 0.0), (270.0, 90.0)]:
            e, n = wind(met_deg, 1.0)
            assert e == pytest.approx(math.sin(math.radians(travel_deg)), abs=1e-12)
            assert n == pytest.approx(math.cos(math.radians(travel_deg)), abs=1e-12)

    @given(st.floats(0.0, 359.999), st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_magnitude_preserved(self, direction, speed):
        e, n = wind(direction, speed)
        assert math.hypot(e, n) == pytest.approx(speed, abs=1e-9)

    @given(st.floats(0.0, 359.999))
    @settings(max_examples=200, deadline=None)
    def test_reverse_is_involution(self, direction):
        twice = reference_reverse_direction(reference_reverse_direction(direction))
        assert twice == pytest.approx(direction, abs=1e-9)
        assert wind(twice, 1.0) == pytest.approx(wind(direction, 1.0), abs=1e-9)

    @given(st.floats(0.0, 359.999), st.floats(0.01, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_reversed_direction_negates_components(self, direction, speed):
        e, n = wind(direction, speed)
        re, rn = wind(reference_reverse_direction(direction), speed)
        assert re == pytest.approx(-e, abs=1e-9)
        assert rn == pytest.approx(-n, abs=1e-9)

    def test_array_path_matches_scalar_formula_bit_for_bit(self):
        # The raster snapshot converts one row, climate_matrix whole columns;
        # a SIMD sin/cos for arrays must not move either off the scalar formula.
        rng = np.random.default_rng(0)
        met = np.concatenate([[0.0, 90.0, 180.0, 270.0, 359.999], rng.uniform(0.0, 360.0, 20_000)])
        speed = np.concatenate([[1.0, 2.0, 3.0, 4.0, 5.0], rng.uniform(0.0, 50.0, 20_000)])
        expected = np.array([reference_wind_components(d, v) for d, v in zip(met.tolist(), speed.tolist())])
        e, n = _wind_component_arrays(met, speed)
        assert np.column_stack([e, n]).tobytes() == expected.tobytes()
        rows = np.array([wind(d, v) for d, v in zip(met[:2000].tolist(), speed[:2000].tolist())])
        assert rows.tobytes() == expected[:2000].tobytes()


class TestClimateMatrix:
    def test_column_order(self):
        s = series_from_temps([10.0])
        m = climate_matrix(s)
        e, n = reference_wind_components(45.0, 1.0)
        np.testing.assert_allclose(m.climate[0], [10.0, 8.0, 70.0, n, e])
        assert m.timestamps[0] == 0


class TestStationFrame:
    def test_is_the_climate_block_and_the_labels(self):
        ts = np.r_[0:100, 200:300]
        series = series_at(ts, np.sin(ts / 7.0))
        frame = station_frame(series, horizon=10)
        obs = climate_matrix(series)
        lab_ts, labels = label_arrays(series, horizon=10)
        assert (frame.id, frame.attributes) == (series.id, series.attributes)
        assert frame.timestamps.tobytes() == obs.timestamps.tobytes()
        assert frame.climate.tobytes() == obs.climate.tobytes()
        assert frame.label_timestamps.tobytes() == lab_ts.tobytes()
        assert frame.labels.tobytes() == labels.tobytes()

    def test_derives_only_its_roles(self):
        series = series_from_temps(np.arange(20.0))
        full = station_frame(series, horizon=2)
        source = station_frame(series, horizon=2, target=False)
        target = station_frame(series, horizon=2, source=False)
        assert source.label_timestamps is None and source.labels is None
        assert target.timestamps is None and target.climate is None
        assert source.climate.tobytes() == full.climate.tobytes()
        assert target.labels.tobytes() == full.labels.tobytes()

    def test_frames_by_role(self):
        by_id = {sid: series_from_temps(np.arange(20.0), station_id=sid) for sid in "abcd"}
        frames = station_frames(by_id, 2, sources=["b", "c", "b"], targets=["c", "a"])
        assert list(frames) == ["b", "c", "a"]
        assert frames["b"].labels is None and frames["a"].climate is None
        assert frames["c"].climate is not None and frames["c"].labels is not None

    @pytest.mark.parametrize("stride", [1, 3])
    def test_thinned_copies_every_stride_th_label(self, stride):
        frame = station_frame(series_from_temps(np.arange(20.0)), horizon=2)
        thin = frame.thinned(stride)
        np.testing.assert_array_equal(thin.label_timestamps, frame.label_timestamps[::stride])
        np.testing.assert_array_equal(thin.labels, frame.labels[::stride])
        assert not np.shares_memory(thin.labels, frame.labels)
        assert thin.climate is frame.climate


class TestLabels:
    def test_arrays_own_their_data(self):
        # A view would pin the buffer it was sliced from: labels are read from
        # every other slot of one twice their size.
        ts, labels = label_arrays(series_from_temps(np.arange(20.0)), horizon=2)
        assert ts.base is None and labels.base is None
        assert labels.flags.c_contiguous

    def test_window_minimum_oracle(self):
        # temps [5,4,3,6,7], horizon 2: label(t0)=min(4,3)=3, label(t1)=min(3,6)=3,
        # label(t2)=min(6,7)=6; only 3 labels fit.
        ts, labels = label_arrays(series_from_temps([5.0, 4.0, 3.0, 6.0, 7.0]), horizon=2)
        np.testing.assert_array_equal(ts, [0, 1, 2])
        np.testing.assert_allclose(labels, [3.0, 3.0, 6.0])

    def test_label_excludes_current_timestep(self):
        # The window starts at t+1: a cold now with warm later must not
        # leak the current reading into the label.
        ts, labels = label_arrays(series_from_temps([-5.0, 1.0, 2.0]), horizon=2)
        np.testing.assert_allclose(labels, [1.0])

    def test_too_short_series_yields_nothing(self):
        ts, labels = label_arrays(series_from_temps([1.0, 2.0, 3.0]), horizon=5)
        assert ts.size == 0 and labels.size == 0
        ts, labels = label_arrays(series_from_temps([1.0]), horizon=1)
        assert ts.size == 0 and labels.size == 0

    @given(
        st.lists(st.floats(-20.0, 30.0), min_size=4, max_size=40),
        st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_window_min(self, temps, horizon):
        ts, labels = label_arrays(series_from_temps(temps), horizon)
        expected = [
            min(temps[t + 1 : t + 1 + horizon])
            for t in range(len(temps) - horizon)
        ]
        np.testing.assert_allclose(labels, expected)
        assert ts.size == max(0, len(temps) - horizon)

    def test_horizon_domain(self):
        series = series_from_temps([1.0, 2.0, 3.0])
        for horizon in (0, MAX_HORIZON + 1, 10**30):
            with pytest.raises(DomainError):
                label_arrays(series, horizon=horizon)
        assert label_arrays(series, horizon=MAX_HORIZON)[0].size == 0

    def test_two_hour_hole_in_one_minute_series(self, rng):
        # Minutes 0..299, then nothing until 420..719. A window that reaches
        # into the hole is not covered, so minutes 240..299 get no label and
        # no label is taken from the far side of the hole.
        ts = np.r_[0:300, 420:720]
        temps = rng.normal(0.0, 5.0, ts.size)
        series = series_at(ts, temps)
        got = labels_as_pairs(series, 60)
        assert got == reference_labels(ts, temps, 60)
        assert [t for t, _ in got] == list(range(0, 240)) + list(range(420, 660))
        assert got[0] == (0, float(temps[1:61].min()))

    @pytest.mark.parametrize("step", [2, 5, 7, 10])
    def test_coarse_sampling_covers_sixty_minutes(self, rng, step):
        # At 7-minute sampling the window (t, t + 60] holds t + 7 .. t + 56.
        temps = rng.normal(0.0, 5.0, 200)
        series = series_from_temps(temps, step=step)
        per_window = 60 // step
        got = labels_as_pairs(series, 60)
        assert got == reference_labels(series.timestamps, temps, 60)
        assert got == [(i * step, float(temps[i + 1:i + 1 + per_window].min()))
                       for i in range(200 - per_window)]

    def test_ragged_spacing(self):
        # Median step 1: the step 2 -> 4 is too wide, and a window whose last
        # observation is not later than t + 1 ends short.
        ts = [0, 1, 2, 4, 5, 6, 7]
        temps = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]
        got = labels_as_pairs(series_at(ts, temps), 2)
        assert got == reference_labels(ts, temps, 2) == [(0, 7.0), (4, 4.0), (5, 3.0)]

    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=60),
        st.integers(1, 120),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_timestamp_rule(self, steps, horizon, seed):
        ts = np.concatenate([[0], np.cumsum(steps)])
        temps = np.random.default_rng(seed).normal(0.0, 5.0, ts.size)
        assert labels_as_pairs(series_at(ts, temps), horizon) == reference_labels(ts, temps, horizon)


class TestPairJoin:
    def test_exact_timestamp_intersection(self):
        # Source covers ts 0..3, target ts 1..4; target's horizon-1 labels
        # live at ts 1..3 so the join keeps exactly those three rows, with
        # source climate in columns 8: and labels [8, 7, 6].
        src = series_from_temps([1.0, 2.0, 3.0, 4.0], start=0)
        tgt = series_from_temps([9.0, 8.0, 7.0, 6.0], station_id="t", start=1)
        x, y, ts = pair_feature_arrays(src, tgt, horizon=1)
        np.testing.assert_array_equal(ts, [1, 2, 3])
        assert x.shape == (3, 13)
        np.testing.assert_allclose(x[:, 8], [2.0, 3.0, 4.0])
        np.testing.assert_allclose(y, [8.0, 7.0, 6.0])

    def test_stride_thins_labels(self):
        src = series_from_temps(np.arange(10.0), start=0)
        tgt = series_from_temps(np.arange(10.0)[::-1], station_id="t", start=0)
        x1, y1, ts1 = pair_feature_arrays(src, tgt, horizon=1, stride=1)
        x3, y3, ts3 = pair_feature_arrays(src, tgt, horizon=1, stride=3)
        assert ts3.size == math.ceil(ts1.size / 3)
        np.testing.assert_array_equal(ts3, ts1[::3])

    def test_disjoint_timestamps_empty(self):
        src = series_from_temps([1.0, 2.0], start=0)
        tgt = series_from_temps([1.0, 2.0, 3.0], station_id="t", start=100)
        x, y, ts = pair_feature_arrays(src, tgt, horizon=1)
        assert x.shape == (0, 13) and y.size == 0

    def test_entries_carry_station_ids(self):
        # Rows name their pair by attributes: columns 0-3 are the source's,
        # 4-7 the target's, and these two stations differ in every one.
        src = series_from_temps([1.0, 2.0, 3.0], station_id="a")
        tgt = StationSeries("b", StationAttributes(GeoPoint(147.0, -34.0), 200.0, 0.5),
                            src.timestamps, src.raw[::-1].copy())
        ids = {src.attributes.as_tuple(): "a", tgt.attributes.as_tuple(): "b"}
        x, _, _ = pair_feature_arrays(src, tgt, horizon=1)
        assert x.shape[0] == 2
        assert {(ids[tuple(r[0:4])], ids[tuple(r[4:8])]) for r in x} == {("a", "b")}

    def test_feature_layout(self):
        src = StationAttributes(GeoPoint(146.0, -33.0), 100.0, 0.1)
        tgt = StationAttributes(GeoPoint(147.0, -34.0), 200.0, 0.2)
        climate = (4.0, 2.0, 80.0, -1.0, 0.5)
        minute = np.array([7], dtype=np.int64)
        source = StationFrame("a", src, minute, np.array([climate]), minute[:0], np.empty(0))
        target = StationFrame("b", tgt, minute[:0], np.empty((0, 5)), minute, np.array([1.5]))
        x, y, ts = join_pair_arrays(source, target)
        assert x.shape == (1, 13)
        assert tuple(x[0, :4]) == (146.0, -33.0, 100.0, 0.1)
        assert tuple(x[0, 4:8]) == (147.0, -34.0, 200.0, 0.2)
        assert tuple(x[0, 8:]) == climate
        assert y.tolist() == [1.5] and ts.tolist() == [7]

    def test_baseline_arrays_alignment(self):
        frame = station_frame(series_from_temps([5.0, 4.0, 3.0, 2.0, 1.0]), horizon=2)
        x, y = frame.onsite_climate(), frame.labels
        assert x.shape == (3, 5)
        np.testing.assert_allclose(y, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(x[:, 0], [5.0, 4.0, 3.0])

    def test_baseline_rows_are_taken_at_label_timestamps(self):
        # Temperature equals the minute, so each row's column 0 names the
        # observation it was taken from; the hole withholds labels mid-series.
        ts = np.r_[0:100, 200:300]
        frame = station_frame(series_at(ts, ts.astype(np.float64)), horizon=10)
        x, y, lab_ts = frame.onsite_climate(), frame.labels, frame.label_timestamps
        assert lab_ts.tolist() == list(range(0, 90)) + list(range(200, 290))
        assert x[:, 0].tolist() == lab_ts.tolist()
        assert y.tolist() == (lab_ts + 1).tolist()


class TestJoinTimestamps:
    @staticmethod
    def increasing(rng, size, span):
        return np.sort(rng.choice(span, size=size, replace=False)).astype(np.int64)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_intersect1d(self, seed):
        rng = np.random.default_rng(seed)
        span = int(rng.integers(1, 400))
        left = self.increasing(rng, int(rng.integers(0, span + 1)), span)
        right = self.increasing(rng, int(rng.integers(0, span + 1)), span) + int(
            rng.choice([0, 0, 0, -span // 2, span])
        )
        got = join_timestamps(left, right)
        want = np.intersect1d(left, right, return_indices=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize(
        "left, right",
        [([], []), ([], [1, 2]), ([1, 2], []), ([0, 1, 2], [5, 6]), ([5, 6], [0, 1, 2])],
    )
    def test_empty_and_disjoint(self, left, right):
        left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        common, li, ri = join_timestamps(left, right)
        assert common.size == li.size == ri.size == 0
        assert common.dtype == np.int64 and li.dtype == ri.dtype == np.intp

    @pytest.mark.parametrize("bad", [[1, 1], [0, 2, 2, 3], [3, 2], [0, 5, 4, 6]])
    def test_rejects_non_increasing(self, bad):
        bad = np.array(bad, dtype=np.int64)
        good = np.arange(8, dtype=np.int64)
        with pytest.raises(DataError):
            join_timestamps(bad, good)
        with pytest.raises(DataError):
            join_timestamps(good, bad)


class TestScaler:
    def test_fit_is_population_zscore(self):
        x = np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
        y = np.array([1.0, 2.0, 3.0])
        stats = fit_scaler_arrays(x, y)
        np.testing.assert_allclose(stats.mean, [2.0, 10.0])
        # Constant columns keep sd 1 so scaling stays defined.
        np.testing.assert_allclose(stats.sd, [math.sqrt(8.0 / 3.0), 1.0])
        scaled = apply_scaler(stats, x)
        np.testing.assert_allclose(scaled.mean(axis=0), [0.0, 0.0], atol=1e-12)

    def test_label_round_trip(self):
        stats = ScalerStats((0.0,), (1.0,), label_mean=2.0, label_sd=4.0)
        z = scale_label(stats, np.array([10.0]))
        np.testing.assert_allclose(z, [2.0])
        np.testing.assert_allclose(invert_label(stats, z), [10.0])

    def test_empty_fit_rejected(self):
        with pytest.raises(DataError):
            fit_scaler_arrays(np.zeros((0, 3)), np.zeros(0))
