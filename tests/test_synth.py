"""Synthetic worlds: determinism, analytic truth, emitted file formats."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from frostcast import DomainError, FormatError, WorldSpec, generate_world, validate_series
from frostcast.core import index_series
from frostcast.ingest import (
    AttributeGrid,
    apply_boundary_mask,
    ingest_directory,
    parse_ascii_grid,
    parse_boundary_json,
)
from frostcast.synth import MAX_SAMPLES, spec_from_json, write_world

TINY = WorldSpec(
    seed=21,
    n_stations=5,
    lon_min=146.0,
    lon_max=147.0,
    lat_min=-34.0,
    lat_max=-33.0,
    cell_size=0.5,
    days=1,
    sample_interval=60,
    noise_sd=0.4,
)


@pytest.fixture(scope="module")
def tiny_world():
    return generate_world(TINY)


class TestWorldSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            replace(TINY, n_stations=4)
        with pytest.raises(DomainError):
            replace(TINY, days=0)
        with pytest.raises(DomainError):
            replace(TINY, noise_sd=-0.1)
        with pytest.raises(DomainError):
            replace(TINY, lon_min=147.0, lon_max=146.0)
        with pytest.raises(DomainError):
            replace(TINY, cell_size=0.0)

    def test_world_size_bounded(self):
        # Specs allocate nothing, so a spec near the bound is cheap to build.
        assert WorldSpec(n_stations=5_000, days=5).n_stations == 5_000  # 36,000,000 samples
        with pytest.raises(DomainError, match=f"57600000 station samples; at most {MAX_SAMPLES} fit"):
            WorldSpec(n_stations=10_000, days=4)
        with pytest.raises(DomainError, match="samples"):
            WorldSpec(days=100_000)

    def test_spec_json_round_trip(self):
        doc = asdict(TINY)
        doc["harmonic_amplitudes"] = list(TINY.harmonic_amplitudes)
        assert spec_from_json(json.dumps(doc)) == TINY

    def test_unknown_field_rejected(self):
        with pytest.raises(FormatError):
            spec_from_json('{"seed": 1, "gravity": 9.8}')

    def test_non_object_rejected(self):
        with pytest.raises(FormatError):
            spec_from_json("[1, 2]")

    def test_bad_value_rejected(self):
        with pytest.raises(FormatError):
            spec_from_json('{"n_stations": 2}')


class TestGeneratedWorld:
    def test_bit_identical_reruns(self, tiny_world):
        again = generate_world(TINY)
        assert again.stations == tiny_world.stations
        np.testing.assert_array_equal(again.dem.values, tiny_world.dem.values)
        np.testing.assert_array_equal(again.ndvi.values, tiny_world.ndvi.values)

    def test_station_count_and_sample_count(self, tiny_world):
        assert len(tiny_world.stations) == 5
        for s in tiny_world.stations:
            assert len(s) == s.timestamps.size == 24  # one day at hourly cadence

    def test_every_station_validates(self, tiny_world):
        for s in tiny_world.stations:
            assert validate_series(s) == []

    def test_stations_inside_boundary(self, tiny_world):
        for s in tiny_world.stations:
            # A one-cell grid centred on the station keeps its cell only inside.
            cell = AttributeGrid(s.attributes.location, 1.0, np.zeros((1, 1)), np.ones((1, 1), bool))
            assert apply_boundary_mask(cell, tiny_world.boundary).mask[0, 0]

    def test_physical_ranges(self, tiny_world):
        for s in tiny_world.stations:
            temperature, dew_point, rh, wind_speed, wind_dir_met = s.raw.T
            assert np.all((0.0 < rh) & (rh <= 100.0))
            assert np.all(dew_point < temperature)
            assert np.all(wind_speed >= 0.0)
            assert np.all((0.0 <= wind_dir_met) & (wind_dir_met < 360.0))

    def test_start_minute_offsets_timestamps(self):
        shifted = generate_world(replace(TINY, start_minute=500))
        assert shifted.stations[0].timestamps[0] == 500

    def test_seed_changes_world(self, tiny_world):
        other = generate_world(replace(TINY, seed=22))
        assert not np.array_equal(other.stations[0].raw, tiny_world.stations[0].raw)


class TestTruthField:
    def test_noiseless_stations_equal_truth(self):
        world = generate_world(replace(TINY, noise_sd=0.0))
        truth = world.truth
        for s in world.stations:
            loc = s.attributes.location
            expected = truth.temperature(loc.lon, loc.lat, s.timestamps)
            np.testing.assert_array_equal(s.raw[:, 0], expected)

    def test_station_attributes_come_from_truth(self, tiny_world):
        s = tiny_world.stations[0]
        loc = s.attributes.location
        assert s.attributes.dem == float(tiny_world.truth.dem(loc.lon, loc.lat))
        assert s.attributes.ndvi == float(tiny_world.truth.ndvi(loc.lon, loc.lat))

    def test_dem_nonnegative_ndvi_bounded(self, tiny_world):
        assert (tiny_world.dem.values >= 0.0).all()
        assert (np.abs(tiny_world.ndvi.values) < 1.0).all()

    def test_diurnal_cycle_peaks_afternoon(self, tiny_world):
        truth = tiny_world.truth
        minutes = np.arange(1440)
        temps = truth.temperature(146.5, -33.5, minutes)
        # Mid-afternoon should be warmer than pre-dawn regardless of the
        # traveling-wave phase, whose amplitude is below the diurnal swing.
        assert temps[14 * 60] > temps[4 * 60]


class TestWriteWorld:
    def test_emits_ingestible_layout(self, tiny_world, tmp_path):
        write_world(tiny_world, tmp_path)
        for name in ("dem.asc", "ndvi.asc", "boundary.json", "world.json"):
            assert (tmp_path / name).exists()
        listing = json.loads((tmp_path / "stations" / "stations.json").read_text())
        assert len(listing["stations"]) == 5
        for s in tiny_world.stations:
            assert (tmp_path / "stations" / f"{s.id}.csv").exists()

    def test_world_json_reproduces_spec(self, tiny_world, tmp_path):
        write_world(tiny_world, tmp_path)
        assert spec_from_json((tmp_path / "world.json").read_text()) == TINY

    def test_ingest_round_trip_preserves_observations(self, tiny_world, tmp_path):
        write_world(tiny_world, tmp_path)
        dem = parse_ascii_grid((tmp_path / "dem.asc").read_text())
        ndvi = parse_ascii_grid((tmp_path / "ndvi.asc").read_text())
        boundary = parse_boundary_json((tmp_path / "boundary.json").read_text())
        dataset, drops = ingest_directory(tmp_path / "stations", dem, ndvi, boundary)
        assert all(n == 0 for n in drops.values())
        by_id = index_series(dataset.stations)
        for s in tiny_world.stations:
            back = by_id[s.id]
            # repr-encoded floats survive the text round trip bit-exactly.
            assert back.timestamps.tobytes() == s.timestamps.tobytes()
            assert back.raw.tobytes() == s.raw.tobytes()
            assert back.attributes.location == s.attributes.location
            assert -1.0 <= back.attributes.ndvi <= 1.0
