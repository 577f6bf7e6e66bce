"""Grid and station-file I/O: parsing, masking, resampling, bundles."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import zipfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import frostcast
from frostcast import (
    RAW_COLUMNS,
    DataError,
    DomainError,
    FormatError,
    GeoPoint,
    OutOfExtentError,
    StationAttributes,
    StationSeries,
    UnsupportedVersionError,
    ingest,
    load_dataset,
    validate_series,
)
from frostcast import cli
from frostcast.core import DEW_POINT_TOLERANCE, Violation, index_series
from frostcast.ingest import (
    CSV_HEADER,
    AttributeGrid,
    BoundaryPolygon,
    Dataset,
    _parse_timestamp,
    apply_boundary_mask,
    boundary_to_json,
    ingest_directory,
    lookup_attribute,
    parse_ascii_grid,
    parse_boundary_json,
    parse_station_csv,
    resample_grid,
    save_dataset,
    write_ascii_grid,
)
from frostcast.synth import spec_from_json

GRID_TEXT = """\
ncols 3
nrows 2
xllcorner 100.0
yllcorner -35.0
cellsize 1.0
NODATA_value -9999
1 2 3
4 -9999 6
"""


def square_grid(values, origin=(100.0, -35.0), cell=1.0, mask=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones_like(values, dtype=bool)
    return AttributeGrid(GeoPoint(*origin), cell, values, mask)


class TestParseAsciiGrid:
    def test_corner_header_shifts_to_cell_centers(self):
        grid = parse_ascii_grid(GRID_TEXT)
        assert grid.origin.lon == pytest.approx(100.5)
        assert grid.origin.lat == pytest.approx(-34.5)
        assert (grid.nrows, grid.ncols) == (2, 3)

    def test_rows_stored_south_up(self):
        grid = parse_ascii_grid(GRID_TEXT)
        # First body line is the northern row, so it lands in row index 1.
        npt.assert_array_equal(grid.values[1], [1.0, 2.0, 3.0])
        assert grid.values[0, 0] == 4.0

    def test_nodata_cells_masked(self):
        grid = parse_ascii_grid(GRID_TEXT)
        assert not grid.mask[0, 1]
        assert np.isnan(grid.values[0, 1])
        assert grid.mask.sum() == 5

    def test_header_keywords_case_insensitive(self):
        text = GRID_TEXT.replace("ncols", "NCOLS").replace("cellsize", "CELLSIZE")
        grid = parse_ascii_grid(text)
        assert grid.ncols == 3

    def test_body_may_wrap_lines(self):
        text = GRID_TEXT.replace("1 2 3\n4 -9999 6\n", "1 2\n3 4\n-9999 6\n")
        npt.assert_array_equal(parse_ascii_grid(text).values[1], [1.0, 2.0, 3.0])

    def test_missing_keyword_rejected(self):
        with pytest.raises(FormatError):
            parse_ascii_grid(GRID_TEXT.replace("cellsize 1.0\n", ""))

    def test_wrong_value_count_rejected(self):
        with pytest.raises(FormatError):
            parse_ascii_grid(GRID_TEXT + "7\n")

    def test_bad_token_rejected(self):
        with pytest.raises(FormatError):
            parse_ascii_grid(GRID_TEXT.replace(" 6", " six"))


class TestWriteAsciiGrid:
    def test_round_trip_example(self):
        grid = parse_ascii_grid(GRID_TEXT)
        back = parse_ascii_grid(write_ascii_grid(grid))
        npt.assert_array_equal(back.mask, grid.mask)
        npt.assert_array_equal(back.values[grid.mask], grid.values[grid.mask])

    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        data=st.data(),
        cell=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_values_exactly(self, shape, data, cell):
        values = data.draw(
            hnp.arrays(np.float64, shape, elements=st.floats(-1000, 1000, width=64))
        )
        mask = data.draw(hnp.arrays(bool, shape))
        grid = AttributeGrid(GeoPoint(10.0, 10.0), cell, values, mask)
        back = parse_ascii_grid(write_ascii_grid(grid))
        npt.assert_array_equal(back.mask, grid.mask)
        # repr round-trips doubles bit-exactly.
        npt.assert_array_equal(back.values[mask], grid.values[mask])
        assert back.origin.lon == pytest.approx(grid.origin.lon, abs=1e-9)
        assert back.cell_size == grid.cell_size


class TestGridGeometry:
    def test_index_of_cell_centers(self):
        grid = square_grid([[1.0, 2.0], [3.0, 4.0]])
        assert grid.index_of(GeoPoint(100.0, -35.0)) == (0, 0)
        assert grid.index_of(GeoPoint(101.2, -34.3)) == (1, 1)

    def test_index_outside_extent(self):
        grid = square_grid([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(OutOfExtentError):
            grid.index_of(GeoPoint(103.0, -35.0))

    def test_cell_size_must_be_positive(self):
        with pytest.raises(DomainError):
            AttributeGrid(GeoPoint(0, 0), 0.0, np.ones((1, 1)), np.ones((1, 1), bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            AttributeGrid(GeoPoint(0, 0), 1.0, np.ones((2, 2)), np.ones((2, 3), bool))


class TestResample:
    def test_block_mean(self):
        grid = square_grid([[1.0, 2.0], [3.0, 4.0]])
        coarse = resample_grid(grid, 2.0)
        assert (coarse.nrows, coarse.ncols) == (1, 1)
        assert coarse.values[0, 0] == pytest.approx(2.5)
        assert coarse.origin.lon == pytest.approx(100.5)
        assert coarse.origin.lat == pytest.approx(-34.5)

    def test_mean_preserved_when_fully_unmasked(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 4))
        grid = square_grid(values)
        coarse = resample_grid(grid, 2.0)
        assert coarse.values.mean() == pytest.approx(values.mean(), abs=1e-12)

    def test_same_cell_size_is_identity(self):
        grid = square_grid([[1.0, 2.0], [3.0, 4.0]])
        assert resample_grid(grid, 1.0) is grid

    def test_upsample_rejected(self):
        grid = square_grid([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DomainError):
            resample_grid(grid, 0.5)

    def test_empty_target_cell_masked_and_nan(self):
        values = np.arange(16.0).reshape(4, 4)
        mask = np.ones((4, 4), bool)
        mask[:2, :2] = False  # SW block entirely masked
        coarse = resample_grid(square_grid(values, mask=mask), 2.0)
        assert not coarse.mask[0, 0]
        assert coarse.mask.sum() == 3
        assert np.isnan(coarse.values[0, 0])
        npt.assert_array_equal(coarse.values[coarse.mask], [4.5, 10.5, 12.5])


class TestBoundary:
    OUTER = tuple(GeoPoint(lon, lat) for lon, lat in [(0, 0), (10, 0), (10, 10), (0, 10)])
    HOLE = tuple(GeoPoint(lon, lat) for lon, lat in [(4, 4), (6, 4), (6, 6), (4, 6)])

    @staticmethod
    def inside(poly, origin, cell, shape):
        return apply_boundary_mask(square_grid(np.zeros(shape), origin, cell), poly).mask

    def test_containment(self):
        # Cell centers (5, 5) and (11, 5).
        mask = self.inside(BoundaryPolygon((self.OUTER,)), (5.0, 5.0), 6.0, (1, 2))
        npt.assert_array_equal(mask, [[True, False]])

    def test_hole_ring_punches_out(self):
        # Cell centers (2, 2), (5, 2) / (2, 5), (5, 5); only (5, 5) is in the hole.
        mask = self.inside(BoundaryPolygon((self.OUTER, self.HOLE)), (2.0, 2.0), 3.0, (2, 2))
        npt.assert_array_equal(mask, [[True, True], [True, False]])

    def test_json_round_trip(self):
        poly = BoundaryPolygon((self.OUTER, self.HOLE))
        back = parse_boundary_json(boundary_to_json(poly))
        assert back == poly

    def test_ring_needs_three_vertices(self):
        with pytest.raises(DataError):
            BoundaryPolygon(((GeoPoint(0, 0), GeoPoint(1, 1)),))

    def test_malformed_json(self):
        with pytest.raises(FormatError):
            parse_boundary_json("{not json")
        with pytest.raises(FormatError):
            parse_boundary_json('{"no_rings": []}')

    @pytest.mark.parametrize("vertex", [["4", 0], [True, 0], [0, None], [0, 0, 0]])
    def test_vertex_must_be_two_json_numbers(self, vertex):
        ring = [[0, 0], [10, 0], vertex]
        with pytest.raises(FormatError, match="boundary vertex must be 2 finite numbers"):
            parse_boundary_json(json.dumps({"rings": [ring]}))

    def test_apply_mask_keeps_inside_cells(self):
        grid = square_grid(np.arange(9.0).reshape(3, 3), origin=(1.0, 1.0))
        ring = tuple(
            GeoPoint(lon, lat) for lon, lat in [(0.5, 0.5), (2.5, 0.5), (2.5, 2.5), (0.5, 2.5)]
        )
        masked = apply_boundary_mask(grid, BoundaryPolygon((ring,)))
        npt.assert_array_equal(
            masked.mask, [[True, True, False], [True, True, False], [False, False, False]]
        )
        assert np.isnan(masked.values[2, 2])


class TestLookupAttribute:
    def test_containing_cell(self):
        grid = square_grid([[1.0, 2.0], [3.0, 4.0]])
        assert lookup_attribute(grid, GeoPoint(101.1, -34.2)) == 4.0

    def test_masked_cell_falls_back_to_nearest(self):
        grid = square_grid(
            [[1.0, 2.0, 3.0]], mask=np.array([[True, False, True]])
        )
        assert lookup_attribute(grid, GeoPoint(100.9, -35.0)) == 1.0
        assert lookup_attribute(grid, GeoPoint(101.2, -35.0)) == 3.0

    def test_equally_near_cells_go_to_the_first_in_row_major_order(self):
        # The masked centre cell (101, -34) is 1.0 from four unmasked cells; the
        # south one, row 0, comes first.
        values = np.arange(9.0).reshape(3, 3)
        mask = np.array([[False, True, False], [True, False, True], [False, True, False]])
        grid = square_grid(values, mask=mask)
        assert lookup_attribute(grid, GeoPoint(101.0, -34.0)) == 1.0
        # Without the south cell, the west one in row 1 beats the east one and row 2.
        assert lookup_attribute(square_grid(values, mask=mask & (values != 1.0)),
                                GeoPoint(101.0, -34.0)) == 3.0

    def test_outside_extent_raises(self):
        grid = square_grid([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(OutOfExtentError):
            lookup_attribute(grid, GeoPoint(110.0, -35.0))

    def test_fully_masked_grid_rejected(self):
        grid = square_grid([[1.0]], mask=np.array([[False]]))
        with pytest.raises(DataError):
            lookup_attribute(grid, GeoPoint(100.0, -35.0))


SCIPY_BLOCKED_PROBE = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
from frostcast import GeoPoint, cli
from frostcast.ingest import AttributeGrid, lookup_attribute, resample_grid
row = AttributeGrid(GeoPoint(100.0, -35.0), 1.0, np.array([[1.0, 2.0, 3.0]]),
                    np.array([[True, False, True]]))
values = np.arange(16.0).reshape(4, 4)
mask = np.ones((4, 4), bool)
mask[:2, :2] = False
coarse = resample_grid(AttributeGrid(GeoPoint(100.0, -35.0), 1.0, values, mask), 2.0)
with open("spec.json", "w") as fh:
    json.dump(SPEC, fh)
codes = [cli.main(["synth", "--spec", "spec.json", "--out", "world"])]
with open("world/stations/stations.json") as fh:
    station = json.load(fh)["stations"][0]
with open("world/boundary.json") as fh:
    outer = json.load(fh)["rings"][0]
# A hole ring around the station: its coarse cell's center is inside, so masked.
lon, lat, r = station["lon"], station["lat"], CELL * 0.75
hole = [[lon - r, lat - r], [lon + r, lat - r], [lon + r, lat + r], [lon - r, lat + r]]
with open("boundary.json", "w") as fh:
    json.dump({"rings": [outer, hole]}, fh)
codes.append(cli.main(["ingest", "--stations", "world/stations", "--dem", "world/dem.asc",
                       "--ndvi", "world/ndvi.asc", "--cell", str(CELL),
                       "--boundary", "boundary.json", "--out", "data.zip"]))
print(json.dumps({
    "lookups": [lookup_attribute(row, GeoPoint(100.9, -35.0)),
                lookup_attribute(row, GeoPoint(101.2, -35.0))],
    "coarse_values": coarse.values.tolist(),
    "coarse_mask": coarse.mask.tolist(),
    "codes": codes,
    "station": station["id"],
    "scipy_modules": sorted(m for m in sys.modules if m.startswith("scipy")),
}))
"""


class TestScipyOffImportPath:
    SPEC = {"seed": 3, "n_stations": 5, "days": 1, "sample_interval": 60, "cell_size": 0.1}
    CELL = 0.2

    def test_fallbacks_and_cli_ingest_run_with_scipy_blocked(self, tmp_path):
        from scipy.spatial import cKDTree  # an independent nearest-cell oracle

        src = str(Path(frostcast.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = f"SPEC = {self.SPEC!r}\nCELL = {self.CELL!r}\n" + SCIPY_BLOCKED_PROBE
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["scipy_modules"] == ["scipy"]  # only the blocking None entry
        assert out["codes"] == [0, 0]
        assert out["lookups"] == [1.0, 3.0]
        assert out["coarse_mask"] == [[False, True], [True, True]]
        assert np.isnan(out["coarse_values"][0][0])

        data = load_dataset(tmp_path / "data.zip")
        station = index_series(data.stations)[out["station"]].attributes
        for grid, value in ((data.dem, station.dem), (data.ndvi, station.ndvi)):
            assert grid.cell_size == self.CELL
            assert not grid.mask[grid.index_of(station.location)]
            assert np.isnan(grid.values[~grid.mask]).all()
            lon, lat = grid.cell_centers()
            _, nearest = cKDTree(np.column_stack([lon[grid.mask], lat[grid.mask]])).query(
                [station.location.lon, station.location.lat])
            assert value == grid.values[grid.mask][nearest]


ATTRS = StationAttributes(GeoPoint(100.0, -35.0), 200.0, 0.4)
CSV_OK = "timestamp,temperature,dew_point,rh,wind_speed,wind_dir\n"


def series_of(rows, station_id="s1", attrs=ATTRS):
    """A series from (timestamp, temperature, dew, rh, speed, direction) rows."""
    ts = np.array([r[0] for r in rows], dtype=np.int64)
    raw = np.array([r[1:] for r in rows], dtype=np.float64).reshape(-1, 5)
    return StationSeries(station_id, attrs, ts, raw)


class TestStationCsv:
    def test_clean_rows_parse(self):
        text = CSV_OK + "0,10,5,50,2,90\n1,9,4,55,1,180\n"
        series, dropped = parse_station_csv(text, "s1", ATTRS)
        assert dropped == 0
        assert len(series) == 2
        assert series.timestamps[0] == 0
        assert series.raw[0].tolist() == [10.0, 5.0, 50.0, 2.0, 90.0]

    def test_bad_rows_dropped_and_counted(self):
        rows = [
            "0,10,5,50,2,90",      # kept
            "1,10,5,50,2",         # wrong arity
            "2,10,5,50,2,bad",     # unparsable float
            "3,10,5,150,2,90",     # rh out of range
            "3,10,5,50,2,90",      # kept (previous ts-3 row never registered)
            "3,10,5,50,2,90",      # duplicate timestamp
            "2,10,5,50,2,90",      # goes backwards
            "10,10,5,50,2,90",     # kept
        ]
        series, dropped = parse_station_csv(CSV_OK + "\n".join(rows), "s1", ATTRS)
        assert dropped == 5
        assert series.timestamps.tolist() == [0, 3, 10]

    def test_iso_timestamps(self):
        stamp = "2024-01-01T00:10:00Z"
        expected = int(datetime(2024, 1, 1, 0, 10, tzinfo=timezone.utc).timestamp() // 60)
        series, dropped = parse_station_csv(CSV_OK + f"{stamp},10,5,50,2,90\n", "s1", ATTRS)
        assert dropped == 0
        assert series.timestamps[0] == expected

    def test_timestamp_mode_pinned_by_first_row(self):
        text = CSV_OK + "0,10,5,50,2,90\n2024-01-01T00:10:00Z,10,5,50,2,90\n"
        _, dropped = parse_station_csv(text, "s1", ATTRS)
        assert dropped == 1
        text = CSV_OK + "2024-01-01T00:10:00Z,10,5,50,2,90\n5,10,5,50,2,90\n"
        _, dropped = parse_station_csv(text, "s1", ATTRS)
        assert dropped == 1

    def test_sub_minute_iso_dropped(self):
        _, dropped = parse_station_csv(
            CSV_OK + "2024-01-01T00:00:30Z,10,5,50,2,90\n", "s1", ATTRS
        )
        assert dropped == 1

    def test_integer_timestamp_outside_int64_dropped(self):
        text = CSV_OK + "0,10,5,50,2,90\n100000000000000000000,10,5,50,2,90\n" \
            "-9223372036854775809,10,5,50,2,90\n9223372036854775807,10,5,50,2,90\n"
        series, dropped = parse_station_csv(text, "s1", ATTRS)
        assert dropped == 2
        assert series.timestamps.tolist() == [0, 2**63 - 1]

    def test_blank_lines_skipped_silently(self):
        series, dropped = parse_station_csv(CSV_OK + "\n0,10,5,50,2,90\n\n", "s1", ATTRS)
        assert dropped == 0 and len(series) == 1

    def test_header_mismatch(self):
        with pytest.raises(FormatError):
            parse_station_csv("time,temp\n", "s1", ATTRS)

    def test_empty_file(self):
        with pytest.raises(FormatError):
            parse_station_csv("", "s1", ATTRS)


# --- per-row reference oracles --------------------------------------------------
# The rules as a row-at-a-time validator and parser applied them before series
# became columns. The vectorised code must agree with them exactly.


def reference_row_violations(row, index):
    _, *values = row
    for field, value in zip(RAW_COLUMNS, values):
        if not math.isfinite(value):
            return [Violation(field, index, "finite")]
    temperature, dew_point, rh, wind_speed, wind_dir = values
    out = []
    if not 0.0 <= rh <= 100.0:
        out.append(Violation("rh", index, "range"))
    if wind_speed < 0.0:
        out.append(Violation("wind_speed", index, "nonnegative"))
    if not 0.0 <= wind_dir < 360.0:
        out.append(Violation("wind_dir_met", index, "range"))
    if dew_point > temperature + DEW_POINT_TOLERANCE:
        out.append(Violation("dew_point", index, "exceeds temperature"))
    return out


def reference_validate(rows):
    out = []
    for i, row in enumerate(rows):
        out.extend(reference_row_violations(row, i))
        if i > 0 and row[0] <= rows[i - 1][0]:
            out.append(Violation("timestamp", i, "strictly increasing"))
    return out


def reference_parse(text):
    """(kept rows, dropped count), keeping a row only after the last kept one."""
    reader = csv.reader(io.StringIO(text))
    assert tuple(next(reader)) == CSV_HEADER
    kept, dropped, iso_mode = [], 0, None
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 6:
            dropped += 1
            continue
        ts, iso_mode = _parse_timestamp(row[0], iso_mode)
        if ts is None:
            dropped += 1
            continue
        try:
            parsed = (ts, *(float(c) for c in row[1:]))
        except ValueError:
            dropped += 1
            continue
        if reference_row_violations(parsed, 0) or (kept and ts <= kept[-1][0]):
            dropped += 1
            continue
        kept.append(parsed)
    return kept, dropped


EDGE_VALUES = st.sampled_from([
    0.0, -0.0, 100.0, 360.0, 359.99999999999994, -5e-324, 100.00000000000001,
    math.nan, math.inf, -math.inf, 5.0, 5.5,
])
VALUES = st.one_of(EDGE_VALUES, st.floats(-400.0, 400.0))


@st.composite
def raw_rows(draw):
    """Half plausible readings, half edge values (dew point sometimes on its bound)."""
    ts = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        temperature = draw(st.floats(-10.0, 30.0))
        values = [temperature, temperature - draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 100.0)),
                  draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 359.9))]
    else:
        values = [draw(VALUES) for _ in range(5)]
        if draw(st.booleans()):
            values[1] = values[0] + DEW_POINT_TOLERANCE
    return (ts, *values)


def iso_minute(minute, second=0):
    stamp = datetime(2024, 1, 1, tzinfo=timezone.utc) + timedelta(minutes=minute, seconds=second)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


@st.composite
def csv_lines(draw, iso):
    minute = draw(st.integers(0, 8))
    own = iso_minute(minute) if iso else str(minute)
    token = draw(st.sampled_from([
        *[own] * 8, iso_minute(minute, 30), str(minute) if iso else iso_minute(minute),
        "100000000000000000000", "-100000000000000000000", "x",
    ]))
    values = [repr(v) for v in draw(raw_rows())[1:]]
    kind = draw(st.sampled_from([*["row"] * 6, "arity", "float", "blank"]))
    if kind == "arity":
        values = values[:-1]
    elif kind == "float":
        values[draw(st.integers(0, 4))] = "bad"
    elif kind == "blank":
        return ""
    return ",".join([token, *values])


class TestVectorisedValidation:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(raw_rows(), max_size=12))
    def test_validate_series_matches_per_row_reference(self, rows):
        assert validate_series(series_of(rows)) == reference_validate(rows)

    def test_empty_series_is_valid(self):
        assert validate_series(series_of([])) == reference_validate([]) == []

    @pytest.mark.parametrize("iso", [False, True], ids=["integer", "iso"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_parse_matches_per_row_reference(self, iso, data):
        first = f"{iso_minute(0) if iso else 0},10.0,5.0,50.0,2.0,90.0"
        lines = [first, *data.draw(st.lists(csv_lines(iso), max_size=25))]
        text = CSV_OK + "\n".join(lines) + "\n"
        series, dropped = parse_station_csv(text, "s1", ATTRS)
        kept, want_dropped = reference_parse(text)
        assert dropped == want_dropped
        want = series_of(kept)
        assert series.timestamps.tolist() == want.timestamps.tolist()
        assert series.raw.tobytes() == want.raw.tobytes()


def tiny_dataset():
    rows = [(t, 10.0 - t, 5.0, 50.0, 2.0, 90.0) for t in range(3)]
    stations = (
        series_of(rows, "a1", StationAttributes(GeoPoint(100.2, -34.8), 150.0, 0.3)),
        series_of(rows, "b2", StationAttributes(GeoPoint(100.7, -34.2), 420.0, 0.6)),
    )
    dem = square_grid([[100.0, 200.0], [300.0, 400.0]])
    ndvi = square_grid([[0.1, 0.2], [0.3, 0.4]])
    return Dataset(stations, dem, ndvi)


def rewrite_entry(good, bad, entry, data):
    """Copy bundle ``good`` to ``bad`` with ``entry`` replaced by ``data``."""
    with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
        for name in src.namelist():
            dst.writestr(name, data if name == entry else src.read(name))


def npy_bytes(array):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array)
    return buf.getvalue()


class TestDatasetBundle:
    def test_round_trip(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "ds.zip"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.station_ids() == ["a1", "b2"]
        by_id, back_by_id = index_series(ds.stations), index_series(back.stations)
        assert back_by_id["a1"].attributes == by_id["a1"].attributes
        assert back_by_id["b2"] == by_id["b2"]
        npt.assert_array_equal(back.dem.values, ds.dem.values)
        npt.assert_array_equal(back.ndvi.mask, ds.ndvi.mask)
        assert back.dem.cell_size == ds.dem.cell_size

    def test_masked_cells_read_nan_when_built_and_after_a_round_trip(self, tmp_path):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        grid = square_grid(values, mask=mask)
        npt.assert_array_equal(grid.values, [[1.0, np.nan], [np.nan, 4.0]])
        assert values[0, 1] == 2.0  # the caller's arrays are left alone and writable
        values[0, 0], mask[0, 0] = 5.0, False
        assert grid.values[0, 0] == 1.0 and grid.mask[0, 0]
        mask[0, 0] = True
        save_dataset(Dataset(tiny_dataset().stations, grid, grid), tmp_path / "ds.zip")
        back = load_dataset(tmp_path / "ds.zip")
        for loaded in (back.dem, back.ndvi):
            npt.assert_array_equal(loaded.mask, mask)
            npt.assert_array_equal(loaded.values, grid.values)

    def test_every_entry_is_stored_uncompressed(self, tmp_path):
        path = tmp_path / "ds.zip"
        save_dataset(tiny_dataset(), path)
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
        assert len(infos) == 9  # two grids' values and masks, two stations' arrays, the manifest
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}

    def test_round_trip_is_bit_exact(self, tmp_path):
        rows = [
            (28_000_000, -3.25, -7.125, 91.5, 0.0, 247.5),
            (28_000_001, -2.9999999999999996, -7.0, 88.0, 1.3, 0.1),
            (28_000_003, 0.1, -0.5, 1e-3, 12.75, 359.99),
        ]
        ds = tiny_dataset()
        ds = Dataset(ds.stations + (
            series_of(rows, "c3", StationAttributes(GeoPoint(100.4, -34.6), 90.0, 0.2)),
        ), ds.dem, ds.ndvi)
        path = tmp_path / "ds.zip"
        save_dataset(ds, path)
        back = index_series(load_dataset(path).stations)
        for station in ds.stations:
            loaded = back[station.id]
            assert loaded == station
            assert loaded.timestamps.dtype == np.int64 and loaded.raw.dtype == np.float64
            assert loaded.timestamps.tobytes() == station.timestamps.tobytes()
            assert loaded.raw.tobytes() == station.raw.tobytes()
            assert not loaded.timestamps.flags.writeable and not loaded.raw.flags.writeable

    @pytest.mark.parametrize("entry,array", [
        ("station_a1_ts.npy", np.arange(3, dtype=np.float64)),
        ("station_a1_obs.npy", np.zeros((3, 5), dtype=np.float32)),
        ("station_a1_obs.npy", np.zeros((3, 4))),
        ("station_a1_ts.npy", np.arange(3, dtype=np.int64).reshape(3, 1)),
    ])
    def test_station_arrays_of_wrong_dtype_or_shape_rejected(self, tmp_path, entry, array):
        good, bad = tmp_path / "good.zip", tmp_path / "bad.zip"
        save_dataset(tiny_dataset(), good)
        rewrite_entry(good, bad, entry, npy_bytes(array))
        with pytest.raises(FormatError, match="a1"):
            load_dataset(bad)

    def test_manifest_row_count_must_match_arrays(self, tmp_path):
        good, bad = tmp_path / "good.zip", tmp_path / "bad.zip"
        save_dataset(tiny_dataset(), good)
        with zipfile.ZipFile(good) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        manifest["stations"][1]["n_obs"] = 4
        rewrite_entry(good, bad, "manifest.json", json.dumps(manifest))
        with pytest.raises(FormatError, match="b2 manifest n_obs is 4 but its arrays hold 3"):
            load_dataset(bad)

    @pytest.mark.parametrize("mutate", [
        *(lambda m, k=k: m["stations"][0].pop(k) for k in ("id", "lon", "lat", "dem", "ndvi")),
        lambda m: m["stations"][0].update(lon="east"),
        lambda m: m["grids"]["dem"].pop("cell_size"),
        lambda m: m["grids"]["dem"].update(origin_lat=[1.0]),
        lambda m: m.update(grids=[]),
        lambda m: m["stations"][0].update(lon=10**400),
        lambda m: m["grids"]["dem"].update(cell_size=math.nan),
        lambda m: m["stations"][0].update(dem=math.inf),
        lambda m: m["grids"].pop("dem"),
        lambda m: m["grids"].pop("ndvi"),
    ], ids=["no-id", "no-lon", "no-lat", "no-dem", "no-ndvi", "str-lon", "no-cell-size",
            "list-origin", "grids-list", "huge-lon", "nan-cell-size", "inf-dem", "no-dem-grid",
            "no-ndvi-grid"])
    def test_malformed_manifest_rejected(self, tmp_path, mutate):
        good, bad = tmp_path / "good.zip", tmp_path / "bad.zip"
        save_dataset(tiny_dataset(), good)
        with zipfile.ZipFile(good) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        mutate(manifest)
        rewrite_entry(good, bad, "manifest.json", json.dumps(manifest))
        with pytest.raises(FormatError, match="malformed manifest"):
            load_dataset(bad)

    @pytest.mark.parametrize("text", [b"[]", b"3", b"null", b'{"version": "\xff"}'])
    def test_manifest_not_an_object_or_not_text_rejected(self, tmp_path, text):
        good, bad = tmp_path / "good.zip", tmp_path / "bad.zip"
        save_dataset(tiny_dataset(), good)
        rewrite_entry(good, bad, "manifest.json", text)
        with pytest.raises(FormatError):
            load_dataset(bad)

    @pytest.mark.parametrize("entry,array,message", [
        ("station_a1_obs.npy",
         np.array([[10.0, 5, 50, 2, 90], [math.nan, 5, 50, 2, 90], [8, 5, 50, 2, 90]]),
         "a1 row 1: temperature breaks rule 'finite'"),
        ("station_b2_ts.npy", np.array([0, 2, 1], dtype=np.int64),
         "b2 row 2: timestamp breaks rule 'strictly increasing'"),
        ("station_b2_obs.npy",
         np.array([[10.0, 5, 50, 2, 90], [9, 5, 50, 2, 360], [8, 5, 50, 2, 90]]),
         "b2 row 1: wind_dir_met breaks rule 'range'"),
    ])
    def test_invalid_station_values_rejected(self, tmp_path, entry, array, message):
        good, bad = tmp_path / "good.zip", tmp_path / "bad.zip"
        save_dataset(tiny_dataset(), good)
        rewrite_entry(good, bad, entry, npy_bytes(array))
        with pytest.raises(FormatError, match=message):
            load_dataset(bad)

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = tmp_path / "one.zip", tmp_path / "two.zip"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_failing_partway_keeps_the_old_bundle(self, tmp_path, monkeypatch):
        path = tmp_path / "data.zip"
        save_dataset(tiny_dataset(), path)
        before = path.read_bytes()
        written = []
        write_npy = ingest._write_npy

        def fail_on_third(zf, name, arr):
            if len(written) == 2:
                raise OSError("disk full")
            write_npy(zf, name, arr)
            written.append(name)

        monkeypatch.setattr(ingest, "_write_npy", fail_on_third)
        ds = tiny_dataset()
        with pytest.raises(OSError, match="disk full"):
            save_dataset(Dataset(ds.stations[:1], ds.dem, ds.ndvi), path)
        assert len(written) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["data.zip"]
        assert path.read_bytes() == before

    def test_version_gate(self, tmp_path):
        path = tmp_path / "bad.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json", json.dumps({"version": 99, "stations": []}))
        with pytest.raises(UnsupportedVersionError):
            load_dataset(path)

    def test_not_a_bundle(self, tmp_path):
        path = tmp_path / "junk.zip"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_duplicate_station_ids_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(DataError):
            Dataset((ds.stations[0], ds.stations[0]), ds.dem, ds.ndvi)


class TestIngestDirectory:
    def write_inputs(self, base):
        listing = {
            "stations": [
                {"id": "s1", "lon": 100.2, "lat": -34.8},
                {"id": "s2", "lon": 101.1, "lat": -34.1},
            ]
        }
        (base / "stations.json").write_text(json.dumps(listing))
        (base / "s1.csv").write_text(CSV_OK + "0,10,5,50,2,90\n1,9,4,55,1,180\n")
        (base / "s2.csv").write_text(CSV_OK + "0,12,6,45,3,270\nbad,row,x,y,z,w\n")

    def test_end_to_end(self, tmp_path):
        self.write_inputs(tmp_path)
        dem = square_grid([[100.0, 200.0], [300.0, 400.0]])
        ndvi = square_grid([[0.1, 0.2], [0.3, 0.4]])
        dataset, drops = ingest_directory(tmp_path, dem, ndvi)
        assert drops == {"s1": 0, "s2": 1}
        by_id = index_series(dataset.stations)
        s1 = by_id["s1"]
        # (100.2, -34.8) falls in the SW cell of both grids.
        assert s1.attributes.dem == 100.0
        assert s1.attributes.ndvi == pytest.approx(0.1)
        s2 = by_id["s2"]
        assert s2.attributes.dem == 400.0
        assert len(s2) == 1

    def test_missing_listing(self, tmp_path):
        with pytest.raises(FormatError):
            ingest_directory(
                tmp_path, square_grid([[1.0]]), square_grid([[0.5]])
            )

    def test_missing_station_file(self, tmp_path):
        (tmp_path / "stations.json").write_text(
            json.dumps({"stations": [{"id": "ghost", "lon": 100.0, "lat": -35.0}]})
        )
        with pytest.raises(FormatError):
            ingest_directory(tmp_path, square_grid([[1.0]]), square_grid([[0.5]]))

    @pytest.mark.parametrize("edit", [{"lon": "100.2"}, {"lat": True}, {"lon": None}])
    def test_location_must_be_json_numbers(self, tmp_path, edit):
        self.write_inputs(tmp_path)
        listing = json.loads((tmp_path / "stations.json").read_text())
        listing["stations"][0].update(edit)
        (tmp_path / "stations.json").write_text(json.dumps(listing))
        with pytest.raises(FormatError, match="station s1 location must be 2 finite numbers"):
            ingest_directory(tmp_path, square_grid([[1.0]]), square_grid([[0.5]]))

    @pytest.mark.parametrize("sid", [10001, True, "", "../s2", "..\\s2"],
                             ids=["number", "boolean", "empty", "slash", "backslash"])
    def test_station_id_must_be_a_plain_string(self, tmp_path, monkeypatch, sid):
        self.write_inputs(tmp_path)
        listing = json.loads((tmp_path / "stations.json").read_text())
        listing["stations"][1]["id"] = sid
        (tmp_path / "stations.json").write_text(json.dumps(listing))
        reads = []
        monkeypatch.setattr(ingest, "parse_station_csv", lambda *args: reads.append(args))
        with pytest.raises(FormatError, match="station id must be a non-empty string") as info:
            ingest_directory(tmp_path, square_grid([[1.0]]), square_grid([[0.5]]))
        assert repr(sid) in str(info.value)  # the message names the entry
        assert reads == []  # refused before the first station's CSV is parsed

    def test_grid_geometry_must_agree(self, tmp_path):
        self.write_inputs(tmp_path)
        dem = square_grid([[100.0, 200.0], [300.0, 400.0]])
        ndvi = square_grid([[0.1]])
        with pytest.raises(DataError):
            ingest_directory(tmp_path, dem, ndvi)

    @pytest.mark.parametrize("name", ["stations.json", "s2.csv"])
    def test_file_that_is_not_utf8(self, tmp_path, name):
        self.write_inputs(tmp_path)
        with open(tmp_path / name, "ab") as fh:
            fh.write(b"\xff")
        dem = square_grid([[100.0, 200.0], [300.0, 400.0]])
        ndvi = square_grid([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(FormatError, match="is not UTF-8"):
            ingest_directory(tmp_path, dem, ndvi)


# --- corrupted-byte fuzz of the text parsers and the bundle loader -------------

CSV_BYTES = (CSV_OK + "".join(f"{t},{9.5 - t},4.0,60.0,1.5,{45.0 * t}\n" for t in range(6))
             + "2024-01-01T00:07:00Z,2.0,1.0,70.0,0.5,10.0\n").encode()
GRID_BYTES = GRID_TEXT.encode()
BOUNDARY_BYTES = b'{"rings": [[[100.0, -35.0], [102.0, -35.0], [101.0, -33.0]]]}'
# As `frostcast folds` and the README's world spec write them.
FOLDS_BYTES = (json.dumps({"folds": [["a1", "c3"], ["b2"]], "seed": 0, "version": 1},
                          sort_keys=True, indent=2) + "\n").encode()
SPEC_BYTES = b'{"seed": 7, "n_stations": 20, "days": 2, "cell_size": 0.1, "noise_sd": 0.4}\n'
# Tokens that reach parsers' edge cases more often than random bytes do.
TOKENS = st.sampled_from([b"nan", b"inf", b"-", b".5", b"e400", b"\xff", b",", b"\n", b" ",
                          b"[", b"]", b"{", b'"', b"0", b"9" * 30])
EDITS = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("set"), st.floats(0.0, 1.0), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.floats(0.0, 1.0), TOKENS | st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), st.floats(0.0, 1.0), st.integers(1, 8)),
), min_size=1, max_size=4)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def corrupt(data: bytes, edits) -> bytes:
    """``data`` after each (edit, relative position, argument) in turn."""
    buf = bytearray(data)
    for edit, where, *arg in edits:
        i = min(int(where * len(buf)), len(buf))
        if edit == "truncate":
            del buf[i:]
        elif edit == "set":
            buf[i:i + 1] = bytes(arg)
        elif edit == "insert":
            buf[i:i] = arg[0]
        else:
            del buf[i:i + arg[0]]
    return bytes(buf)


@pytest.fixture(scope="module")
def bundle_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "data.zip"
    save_dataset(tiny_dataset(), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.zip"


class TestCorruptedInputFuzz:
    """Whatever a corruption breaks, only a FrostcastError leaves the parser.

    Text reaches a parser decoded as Latin-1, which maps every byte to one
    character, so each corrupted byte arrives as it is.
    """

    @FUZZ
    @given(edits=EDITS)
    def test_station_csv(self, edits):
        try:
            parse_station_csv(corrupt(CSV_BYTES, edits).decode("latin-1"), "s1", ATTRS)
        except frostcast.FrostcastError:
            pass

    @FUZZ
    @given(edits=EDITS)
    def test_ascii_grid(self, edits):
        try:
            parse_ascii_grid(corrupt(GRID_BYTES, edits).decode("latin-1"))
        except frostcast.FrostcastError:
            pass

    @FUZZ
    @given(edits=EDITS)
    def test_boundary_json(self, edits):
        try:
            parse_boundary_json(corrupt(BOUNDARY_BYTES, edits).decode("latin-1"))
        except frostcast.FrostcastError:
            pass

    @FUZZ
    @given(edits=EDITS)
    def test_folds_json(self, fuzz_path, edits):
        path = fuzz_path.with_name("folds.json")
        path.write_bytes(corrupt(FOLDS_BYTES, edits))
        try:
            cli._load_folds(path)
        except frostcast.FrostcastError:
            pass

    @FUZZ
    @given(edits=EDITS)
    def test_spec_json(self, edits):
        try:
            spec_from_json(corrupt(SPEC_BYTES, edits).decode("latin-1"))
        except frostcast.FrostcastError:
            pass

    @FUZZ
    @given(edits=EDITS)
    def test_bundle(self, bundle_bytes, fuzz_path, edits):
        fuzz_path.write_bytes(corrupt(bundle_bytes, edits))
        try:
            load_dataset(fuzz_path)
        except frostcast.FrostcastError:
            pass

    @FUZZ
    @given(entry=st.sampled_from(["manifest.json", "grid_dem_values.npy", "grid_ndvi_mask.npy",
                                  "station_a1_ts.npy", "station_b2_obs.npy"]),
           edits=EDITS)
    def test_bundle_entry(self, bundle_bytes, fuzz_path, entry, edits):
        # Each entry's own bytes, past the zip's CRC check.
        with zipfile.ZipFile(io.BytesIO(bundle_bytes)) as src, zipfile.ZipFile(fuzz_path, "w") as dst:
            for name in src.namelist():
                data = src.read(name)
                dst.writestr(name, corrupt(data, edits) if name == entry else data)
        try:
            load_dataset(fuzz_path)
        except frostcast.FrostcastError:
            pass
