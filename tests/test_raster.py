"""Region rasters: per-method semantics and pairwise significance tables."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats as sp_stats

from frostcast import DataError, DomainError, GeoPoint
from frostcast.core import index_series
from frostcast.ensemble import FOLD_COEFFICIENT_PRESETS, SubmodelBank
from frostcast.features import climate_matrix
from frostcast.ingest import AttributeGrid
from frostcast.raster import compare_rasters, generate_raster, matrix_to_csv, raster_matrix


def snapshot(world, ids, minute=30):
    """5-value climate reading per station at one shared timestamp."""
    by_id = index_series(world.stations)
    out = {}
    for sid in ids:
        cm = climate_matrix(by_id[sid])
        row = int(np.nonzero(cm.timestamps == minute)[0][0])
        out[sid] = cm.climate[row]
    return out


def single(bank, climate, world, sid):
    """One station's raster: the average over a snapshot that holds only that station,
    as ``raster --method single:<id>`` makes it."""
    return generate_raster(bank, {sid: climate[sid]}, world.dem, world.ndvi, "average")


@pytest.fixture(scope="module")
def climate(small_world, small_bank):
    return snapshot(small_world, small_bank.station_ids)


class TestGenerateRaster:
    def test_average_is_cellwise_mean_of_singles(self, small_world, small_bank, climate):
        avg = generate_raster(small_bank, climate, small_world.dem, small_world.ndvi, "average")
        singles = [single(small_bank, climate, small_world, sid)
                   for sid in small_bank.station_ids]
        stacked = np.stack([s.values for s in singles])
        npt.assert_allclose(avg.values[avg.mask], stacked.mean(axis=0)[avg.mask], atol=1e-9)

    def test_average_is_table_mean_bit_for_bit(self, small_world, small_bank, climate):
        # Each single raster holds one row of the prediction block the
        # average aggregates, so the table's mean must equal preds.mean(axis=0).
        avg = generate_raster(small_bank, climate, small_world.dem, small_world.ndvi, "average")
        preds = np.stack([single(small_bank, climate, small_world, sid).values[avg.mask]
                          for sid in small_bank.station_ids])
        npt.assert_array_equal(avg.values[avg.mask], preds.mean(axis=0))

    def test_weighted_matches_per_station_reference(self, small_world, small_bank, climate):
        # Per-station cell weights, normalized per cell before the weighted sum,
        # under coefficients that weigh all three distances.
        small_bank = replace(small_bank, coefficients=FOLD_COEFFICIENT_PRESETS[0])
        dem, ndvi = small_world.dem, small_world.ndvi
        wavg = generate_raster(small_bank, climate, dem, ndvi, "weighted_average")
        mask = wavg.mask
        lon_g, lat_g = dem.cell_centers()
        lon, lat, cell_dem, cell_ndvi = lon_g[mask], lat_g[mask], dem.values[mask], ndvi.values[mask]
        c = small_bank.coefficients
        ids = small_bank.station_ids
        weights, preds = [], []
        for sid in ids:
            a = small_bank.submodels[sid][0]
            raw = np.column_stack([np.hypot(a.location.lon - lon, a.location.lat - lat),
                                   np.abs(a.dem - cell_dem), np.abs(a.ndvi - cell_ndvi)])
            norm = small_bank.normalization.normalize(raw)
            denom = c.geo * norm[:, 0] + c.dem * norm[:, 1] + c.ndvi * norm[:, 2]
            weights.append(1.0 / np.maximum(denom, 1e-6))
            preds.append(single(small_bank, climate, small_world, sid).values[mask])
        weights = np.array(weights)
        weights /= weights.sum(axis=0)
        npt.assert_allclose(wavg.values[mask], (weights * np.array(preds)).sum(axis=0),
                            rtol=0, atol=1e-12)

    def test_mask_follows_grids(self, small_world, small_bank, climate):
        dem = small_world.dem
        mask = dem.mask.copy()
        mask[0, 0] = False
        holey = AttributeGrid(dem.origin, dem.cell_size, dem.values, mask)
        out = generate_raster(small_bank, climate, holey, small_world.ndvi, "average")
        npt.assert_array_equal(out.mask, mask & small_world.ndvi.mask)
        assert np.isnan(out.values[0, 0])
        assert np.isfinite(out.values[out.mask]).all()

    def test_weighted_differs_from_average(self, small_world, small_bank, climate):
        avg = generate_raster(small_bank, climate, small_world.dem, small_world.ndvi, "average")
        wavg = generate_raster(
            small_bank, climate, small_world.dem, small_world.ndvi, "weighted_average"
        )
        assert (avg.values[avg.mask] != wavg.values[wavg.mask]).any()

    def test_missing_stations_sit_out(self, small_world, small_bank, climate):
        ids = small_bank.station_ids
        partial = {sid: climate[sid] for sid in ids[:2]}
        out = generate_raster(small_bank, partial, small_world.dem, small_world.ndvi, "average")
        singles = [single(small_bank, partial, small_world, sid) for sid in ids[:2]]
        expected = np.stack([s.values for s in singles]).mean(axis=0)
        npt.assert_allclose(out.values[out.mask], expected[out.mask], atol=1e-9)

    def test_nan_predictions_sit_out_of_their_cells(self, small_world, small_bank, climate,
                                                    monkeypatch):
        # The first station predicts NaN at the first cell, and every station at the second.
        ids, predict = small_bank.station_ids, SubmodelBank.predict_batch

        def with_nan(bank, sid, block, targets):
            out = predict(bank, sid, block, targets)
            out[1] = np.nan
            if sid == ids[0]:
                out[0] = np.nan
            return out

        monkeypatch.setattr(SubmodelBank, "predict_batch", with_nan)
        grid = generate_raster(small_bank, climate, small_world.dem, small_world.ndvi, "average")
        rest = generate_raster(small_bank, {sid: climate[sid] for sid in ids[1:]},
                               small_world.dem, small_world.ndvi, "average")
        first, second = map(tuple, np.argwhere(grid.mask)[:2])
        assert grid.values[first] == pytest.approx(rest.values[first], rel=1e-12)
        assert grid.mask[second] and np.isnan(grid.values[second])

    def test_unknown_method(self, small_world, small_bank, climate):
        with pytest.raises(DomainError):
            generate_raster(small_bank, climate, small_world.dem, small_world.ndvi, "mystery")

    def test_unknown_station_in_climate(self, small_world, small_bank, climate):
        bad = dict(climate)
        bad["99999"] = np.zeros(5)
        with pytest.raises(DataError):
            generate_raster(small_bank, bad, small_world.dem, small_world.ndvi, "average")

    def test_bad_snapshot_arity(self, small_world, small_bank, climate):
        bad = dict(climate)
        bad[sorted(bad)[0]] = np.zeros(4)
        with pytest.raises(DataError):
            generate_raster(small_bank, bad, small_world.dem, small_world.ndvi, "average")

    def test_geometry_mismatch(self, small_world, small_bank, climate):
        ndvi = small_world.ndvi
        shifted = AttributeGrid(
            GeoPoint(ndvi.origin.lon + 1.0, ndvi.origin.lat), ndvi.cell_size,
            ndvi.values, ndvi.mask,
        )
        with pytest.raises(DataError):
            generate_raster(small_bank, climate, small_world.dem, shifted, "average")


def grid_of(values, mask=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones_like(values, dtype=bool)
    return AttributeGrid(GeoPoint(0.0, 0.0), 1.0, values, np.asarray(mask, dtype=bool))


class TestCompareRasters:
    def test_matches_reference_over_joint_cells(self):
        rng = np.random.default_rng(3)
        a_vals = rng.normal(0.0, 1.0, (3, 4))
        b_vals = a_vals + rng.normal(0.3, 0.2, (3, 4))
        mask_a = np.ones((3, 4), bool)
        mask_b = np.ones((3, 4), bool)
        mask_a[0, 1] = False
        mask_b[2, 2] = False
        t, p = compare_rasters(grid_of(a_vals, mask_a), grid_of(b_vals, mask_b))
        joint = mask_a & mask_b
        ref = sp_stats.ttest_rel(a_vals[joint], b_vals[joint])
        assert t == pytest.approx(float(ref.statistic), abs=1e-10)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_identical_rasters(self):
        g = grid_of([[1.0, 2.0], [3.0, 4.0]])
        assert compare_rasters(g, g) == (0.0, 1.0)

    def test_geometry_mismatch(self):
        with pytest.raises(DataError):
            compare_rasters(grid_of([[1.0, 2.0]]), grid_of([[1.0], [2.0]]))

    def test_too_few_joint_cells(self):
        a = grid_of([[1.0, 2.0]], mask=[[True, False]])
        b = grid_of([[1.0, 2.0]], mask=[[True, True]])
        with pytest.raises(DataError):
            compare_rasters(a, b)


class TestRasterMatrix:
    @pytest.fixture()
    def rasters(self):
        rng = np.random.default_rng(8)
        base = rng.normal(0.0, 1.0, (3, 3))
        return {
            "cold": grid_of(base),
            "warm": grid_of(base + rng.normal(0.5, 0.1, (3, 3))),
            "wild": grid_of(base + rng.normal(0.0, 2.0, (3, 3))),
        }

    def test_symmetric_with_nan_diagonal(self, rasters):
        labels, matrix = raster_matrix(rasters)
        assert labels == ["cold", "warm", "wild"]
        assert np.isnan(np.diag(matrix)).all()
        npt.assert_array_equal(matrix, matrix.T)
        i, j = labels.index("cold"), labels.index("warm")
        _, p = compare_rasters(rasters["cold"], rasters["warm"])
        assert matrix[i, j] == p

    def test_needs_two(self, rasters):
        with pytest.raises(DataError):
            raster_matrix({"only": rasters["cold"]})

    def test_csv_layout(self, rasters):
        labels, matrix = raster_matrix(rasters)
        text = matrix_to_csv(labels, matrix)
        lines = text.strip().splitlines()
        assert lines[0] == ",cold,warm,wild"
        assert lines[1].startswith("cold,N/A,")
        assert lines[2].split(",")[2] == "N/A"
        # Off-diagonal cells round-trip as floats.
        assert float(lines[1].split(",")[2]) == pytest.approx(matrix[0, 1])


class TestPng:
    def test_writes_image_and_sidecar(self, tmp_path):
        pytest.importorskip("matplotlib")
        from frostcast.raster import write_png

        grid = grid_of(np.arange(12.0).reshape(3, 4), mask=np.arange(12).reshape(3, 4) % 5 != 0)
        png = tmp_path / "out.png"
        meta = tmp_path / "out.json"
        write_png(grid, png, sidecar=meta)
        assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        import json

        doc = json.loads(meta.read_text())
        assert doc["min"] == 1.0 and doc["max"] == 11.0

    @pytest.mark.parametrize("fails", [False, True])
    def test_png_replaces_the_old_one_whole_or_not_at_all(self, tmp_path, stub_pyplot, fails):
        # The stub figure's savefig writes part of an image and then, if asked, fails.
        def savefig(fh, **kwargs):
            assert kwargs["format"] == "png"
            fh.write(b"\x89PNG\r\n\x1a\n")
            if fails:
                raise OSError("disk full")
            fh.write(b"rest")

        stub_pyplot.savefig = savefig
        from frostcast.raster import write_png

        png = tmp_path / "out.png"
        png.write_bytes(b"old image")
        grid = grid_of(np.arange(12.0).reshape(3, 4))
        if fails:
            with pytest.raises(OSError, match="disk full"):
                write_png(grid, png, sidecar=tmp_path / "out.json")
            assert png.read_bytes() == b"old image"
            assert [p.name for p in tmp_path.iterdir()] == ["out.png"]
        else:
            write_png(grid, png, sidecar=tmp_path / "out.json")
            assert png.read_bytes() == b"\x89PNG\r\n\x1a\nrest"
        # The figure is closed once, whether or not its save failed.
        assert stub_pyplot.closed == [stub_pyplot]
