"""Value-object invariants: coordinates, series columns, folds; the atomic writer."""

from dataclasses import replace

import numpy as np
import pytest

from frostcast import (
    DataError,
    DomainError,
    FoldAssignment,
    GeoPoint,
    StationAttributes,
    StationSeries,
    validate_series,
)
from frostcast.core import Violation, index_series, write_atomically


def make_obs(ts=0, temp=5.0, dew=3.0, rh=80.0, speed=2.0, direction=90.0):
    """One reading as a (timestamp, temperature, dew, rh, speed, direction) row."""
    return (ts, temp, dew, rh, speed, direction)


def make_series(station_id="s1", rows=None, lon=146.5, lat=-33.5):
    attrs = StationAttributes(GeoPoint(lon, lat), 250.0, 0.4)
    if rows is None:
        rows = [make_obs(ts=i) for i in range(3)]
    ts = np.array([r[0] for r in rows], dtype=np.int64)
    raw = np.array([r[1:] for r in rows], dtype=np.float64).reshape(-1, 5)
    return StationSeries(station_id, attrs, ts, raw)


def observation_violations(obs):
    """Value-rule breaches of one reading, through the series validator."""
    return validate_series(make_series(rows=[obs]))


class TestGeoPoint:
    def test_valid_roundtrip(self):
        p = GeoPoint(146.5, -33.5)
        assert (p.lon, p.lat) == (146.5, -33.5)

    @pytest.mark.parametrize("lon,lat", [(181.0, 0.0), (-181.0, 0.0), (0.0, 91.0), (0.0, -91.0)])
    def test_out_of_range_rejected(self, lon, lat):
        with pytest.raises(DomainError):
            GeoPoint(lon, lat)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            GeoPoint(float("nan"), 0.0)


class TestStationAttributes:
    def test_ndvi_bounds(self):
        with pytest.raises(DomainError):
            StationAttributes(GeoPoint(0, 0), 10.0, 1.5)
        with pytest.raises(DomainError):
            StationAttributes(GeoPoint(0, 0), 10.0, -1.5)

    def test_as_tuple_order(self):
        a = StationAttributes(GeoPoint(146.0, -33.0), 120.0, 0.25)
        assert a.as_tuple() == (146.0, -33.0, 120.0, 0.25)


class TestObservationValidation:
    def test_clean_observation_has_no_violations(self):
        assert observation_violations(make_obs()) == []

    def test_rh_out_of_range(self):
        v = observation_violations(make_obs(rh=101.0))
        assert any(x.field == "rh" for x in v)

    def test_negative_wind_speed(self):
        v = observation_violations(make_obs(speed=-1.0))
        assert any(x.field == "wind_speed" for x in v)

    def test_wind_direction_domain(self):
        assert observation_violations(make_obs(direction=360.0))
        assert observation_violations(make_obs(direction=-0.001))
        assert not observation_violations(make_obs(direction=0.0))
        assert not observation_violations(make_obs(direction=359.999))

    def test_dew_point_tolerance(self):
        # Slight supersaturation is tolerated; more than 0.5 above is not.
        assert not observation_violations(make_obs(temp=5.0, dew=5.4))
        assert observation_violations(make_obs(temp=5.0, dew=5.6))

    def test_non_finite_fields(self):
        assert observation_violations(make_obs(temp=float("inf")))
        assert observation_violations(make_obs(dew=float("nan")))


class TestStationSeries:
    def test_empty_id_rejected(self):
        with pytest.raises(DomainError):
            make_series(station_id="")

    def test_columns_are_read_only_views(self):
        ts = np.arange(3, dtype=np.int64)
        raw = np.zeros((3, 5))
        s = StationSeries("s1", make_series().attributes, ts, raw)
        assert np.shares_memory(s.timestamps, ts) and np.shares_memory(s.raw, raw)
        with pytest.raises(ValueError):
            s.timestamps[0] = 7
        with pytest.raises(ValueError):
            s.raw[0, 0] = 7.0
        assert ts.flags.writeable and raw.flags.writeable
        assert len(s) == s.timestamps.size == 3

    @pytest.mark.parametrize("ts,raw", [
        (np.arange(3, dtype=np.float64), np.zeros((3, 5))),
        (np.arange(3, dtype=np.int32), np.zeros((3, 5))),
        (np.arange(3, dtype=np.int64).reshape(3, 1), np.zeros((3, 5))),
        (np.arange(3, dtype=np.int64), np.zeros((3, 5), dtype=np.float32)),
        (np.arange(3, dtype=np.int64), np.zeros((3, 4))),
        (np.arange(3, dtype=np.int64), np.zeros((2, 5))),
        ([0, 1, 2], np.zeros((3, 5))),
    ])
    def test_wrong_dtype_or_shape_rejected(self, ts, raw):
        with pytest.raises(DataError, match="s1"):
            StationSeries("s1", make_series().attributes, ts, raw)

    def test_replace_swaps_columns(self):
        s = make_series(rows=[make_obs(i, temp=float(i)) for i in range(5)])
        cut = replace(s, timestamps=s.timestamps[1:4], raw=s.raw[1:4])
        assert len(cut) == 3
        assert cut.timestamps.tolist() == [1, 2, 3]
        assert cut.raw[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert not cut.raw.flags.writeable

    def test_equality_compares_columns(self):
        a = make_series()
        assert a == make_series()
        assert a != make_series(station_id="s2")
        assert a != make_series(rows=[make_obs(ts=i, rh=81.0) for i in range(3)])
        assert a != make_series(rows=[make_obs(ts=2 * i) for i in range(3)])
        assert a != make_series(lon=146.0)

    def test_validate_series_reports_rows_in_rule_order(self):
        s = make_series(rows=[
            make_obs(5, rh=101.0, speed=-1.0),
            make_obs(5, dew=float("nan"), rh=-1.0),
            make_obs(7),
            make_obs(6, temp=1.0, dew=1.6, direction=360.0),
        ])
        assert validate_series(s) == [
            Violation("rh", 0, "range"),
            Violation("wind_speed", 0, "nonnegative"),
            Violation("dew_point", 1, "finite"),
            Violation("timestamp", 1, "strictly increasing"),
            Violation("wind_dir_met", 3, "range"),
            Violation("dew_point", 3, "exceeds temperature"),
            Violation("timestamp", 3, "strictly increasing"),
        ]

    def test_validate_series_flags_backwards_timestamps(self):
        s = make_series(rows=[make_obs(5), make_obs(4)])
        violations = validate_series(s)
        assert any(v.field == "timestamp" for v in violations)

    def test_validate_series_clean(self):
        assert validate_series(make_series()) == []

    def test_index_series_rejects_duplicates(self):
        a, b = make_series("x"), make_series("x")
        with pytest.raises(DataError):
            index_series([a, b])


class TestFoldAssignment:
    def test_basic_accessors(self):
        folds = FoldAssignment((frozenset({"a", "b"}), frozenset({"c"})))
        assert folds.n_folds == 2
        assert folds.test_stations(0) == frozenset({"a", "b"})
        assert folds.train_stations(0) == frozenset({"c"})
        assert folds.all_stations() == frozenset({"a", "b", "c"})

    def test_overlapping_folds_rejected(self):
        with pytest.raises(DataError):
            FoldAssignment((frozenset({"a"}), frozenset({"a", "b"})))

    def test_empty_fold_rejected(self):
        with pytest.raises(DataError):
            FoldAssignment((frozenset({"a"}), frozenset()))


class TestWriteAtomically:
    def test_replaces_the_file_and_leaves_nothing_else(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        write_atomically(path, lambda fh: fh.write("new\n"))
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("existing", [True, False])
    def test_serialiser_failing_partway_keeps_the_old_bytes(self, tmp_path, existing):
        path = tmp_path / "out.json"
        if existing:
            path.write_bytes(b'{"old": true}\n')

        def serialiser(fh):
            fh.write('{"new": ')
            fh.flush()  # the partial text is on disk, in the temporary file
            raise RuntimeError("serialiser failed")

        with pytest.raises(RuntimeError, match="serialiser failed"):
            write_atomically(path, serialiser)
        assert sorted(p.name for p in tmp_path.iterdir()) == (["out.json"] if existing else [])
        if existing:
            assert path.read_bytes() == b'{"old": true}\n'
