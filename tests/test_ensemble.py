"""Attribute-weighted aggregation: weight oracle, aggregation table, bank IO.

The weight oracle is evaluated by hand: with per-dimension coefficients
(0.1629, 0.0132, 0.0290) and all three normalized distances equal to 1,
the unnormalized weight is 1 / (0.1629 + 0.0132 + 0.0290) = 1 / 0.2051
= 4.8757 to four decimals.
"""

import ctypes
import functools
import glob
import json
import math
import multiprocessing
import os
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostcast import (
    AGGREGATORS,
    DataError,
    DivergenceError,
    DomainError,
    FoldAssignment,
    FormatError,
    GeoPoint,
    StationAttributes,
    UnsupportedVersionError,
    WorldSpec,
    attribute_weights,
    generate_world,
    load_bank,
    save_bank,
    train_bank,
)
from frostcast import ensemble, features
from frostcast.core import index_series
from frostcast.ensemble import (
    FALLBACK_COEFFICIENTS,
    FOLD_COEFFICIENT_PRESETS,
    SUBMODEL_SPEC,
    DistanceNormalization,
    DistanceTriple,
    SubmodelBank,
    WeightCoefficients,
    _child_seed,
    calibrate_coefficients,
    fit_normalization,
    pearson,
    station_distances,
)
from frostcast.features import (
    apply_scaler,
    climate_matrix,
    fit_scaler_arrays,
    join_timestamps,
    label_arrays,
    pair_feature_arrays,
    scale_label,
)
from frostcast.neuralnet import ONSITE_SPEC, TrainConfig, init_network, train

FOLD0 = WeightCoefficients(0.1629, 0.0132, 0.0290)


def attrs(lon, lat, dem, ndvi):
    return StationAttributes(GeoPoint(lon, lat), dem, ndvi)


ORIGIN = attrs(0.0, 0.0, 0.0, 0.0)


def triple_bank(triples, coefficients):
    """A model-less bank whose stations sit at the given normalized distances from ORIGIN.

    Station i is at (lon g, lat 0, dem d, ndvi n) and every bound is (0, 1),
    so its normalized distance triple to ORIGIN is exactly (g, d, n).
    """
    ids = [f"s{i:02d}" for i in range(len(triples))]
    unit = (0.0, 1.0)
    return SubmodelBank(
        fold=0, horizon=60, models=dict.fromkeys(ids), scalers={},
        station_attrs={sid: attrs(g, 0.0, d, n) for sid, (g, d, n) in zip(ids, triples)},
        coefficients=coefficients, normalization=DistanceNormalization(unit, unit, unit),
    )


class TestWeightOracle:
    def test_hand_evaluated_weight(self):
        w = attribute_weights(np.array([1.0, 1.0, 1.0]), FOLD0)
        assert w == pytest.approx(4.8757, abs=1e-3)

    def test_each_coefficient_weighs_its_own_distance(self):
        w = attribute_weights(np.array([[0.2, 0.5, 0.9], [0.9, 0.2, 0.5]]), FOLD0)
        np.testing.assert_allclose(w, [1.0 / (0.1629 * 0.2 + 0.0132 * 0.5 + 0.0290 * 0.9),
                                       1.0 / (0.1629 * 0.9 + 0.0132 * 0.2 + 0.0290 * 0.5)])

    def test_presets_contain_hand_checked_fold(self):
        assert set(FOLD_COEFFICIENT_PRESETS) == {0, 1, 2, 3, 4}
        c0 = FOLD_COEFFICIENT_PRESETS[0]
        assert (c0.geo, c0.dem, c0.ndvi) == (0.1629, 0.0132, 0.0290)

    def test_fallback_is_pure_geographic(self):
        assert (FALLBACK_COEFFICIENTS.geo, FALLBACK_COEFFICIENTS.dem,
                FALLBACK_COEFFICIENTS.ndvi) == (1.0, 0.0, 0.0)

    def test_zero_distance_capped_not_infinite(self):
        w = attribute_weights(np.array([0.0, 0.0, 0.0]), FOLD0)
        assert np.isfinite(w) and w == pytest.approx(1e6)

    def test_coefficient_validation(self):
        with pytest.raises(DomainError):
            WeightCoefficients(-0.1, 0.2, 0.3)
        with pytest.raises(DomainError):
            WeightCoefficients(0.0, 0.0, 0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="coefficients must be finite"):
                WeightCoefficients(0.1, bad, 0.3)


class TestStationWeights:
    def test_equal_distances_give_equal_weights(self):
        w = triple_bank([(1.0, 1.0, 1.0)] * 3, FOLD0).weights_for_target(ORIGIN)
        np.testing.assert_allclose(list(w.values()), [1 / 3] * 3, atol=1e-12)

    def test_nearer_station_weighs_more(self):
        w = triple_bank([(0.1, 0.1, 0.1), (1.0, 1.0, 1.0)], FOLD0).weights_for_target(ORIGIN)
        assert w["s00"] > w["s01"]

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=12,
        ),
        st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.001, 2.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_sum_to_one(self, triples, coeff):
        w = triple_bank(triples, WeightCoefficients(*coeff)).weights_for_target(ORIGIN)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v > 0 for v in w.values())


class TestDistances:
    def test_raw_distance_components(self):
        a = attrs(146.0, -33.0, 100.0, 0.2)
        b = attrs(147.0, -34.0, 250.0, -0.1)
        t = station_distances(a, b)
        assert t.geo == pytest.approx(np.sqrt(2.0))
        assert t.dem == pytest.approx(150.0)
        assert t.ndvi == pytest.approx(0.3, abs=1e-12)

    def test_batch_normalization_spans_unit_interval(self):
        # Bounds taken over the batch itself map its extremes to 0 and 1.
        triples = np.array([DistanceTriple(1.0, 10.0, 0.1), DistanceTriple(3.0, 30.0, 0.5)])
        norm = DistanceNormalization(*zip(triples.min(axis=0), triples.max(axis=0)))
        normed = norm.normalize(triples)
        np.testing.assert_allclose(normed[0], (0.0, 0.0, 0.0), atol=1e-12)
        np.testing.assert_allclose(normed[1], (1.0, 1.0, 1.0), atol=1e-12)

    def test_fit_normalization_clamps_outsiders(self):
        # Three stations so the pairwise distances actually span a range
        # (two stations see one distance from both directions).
        stations = [
            attrs(146.0, -33.0, 0.0, 0.0),
            attrs(146.5, -33.0, 100.0, 0.5),
            attrs(146.1, -33.2, 30.0, -0.2),
        ]
        norm = fit_normalization(stations)
        far = np.array([[10.0, 1000.0, 2.0]])
        np.testing.assert_allclose(norm.normalize(far), [[1.0, 1.0, 1.0]])
        near = np.array([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(norm.normalize(near), [[0.0, 0.0, 0.0]])

    def test_degenerate_dimension_maps_to_zero(self):
        norm = DistanceNormalization((0.0, 1.0), (5.0, 5.0), (0.0, 1.0))
        out = norm.normalize(np.array([[0.5, 5.0, 0.25]]))
        np.testing.assert_allclose(out, [[0.5, 0.0, 0.25]])


def aggregate(method, values, weights=None, trigger=0.0, available=None):
    """One column of the aggregation table: (prediction, valid) over the given rows."""
    values = np.asarray(values, dtype=np.float64)[:, None]
    available = np.ones(values.shape, dtype=bool) if available is None else (
        np.asarray(available)[:, None])
    weights = None if weights is None else np.asarray(weights, dtype=np.float64)
    pred, valid = AGGREGATORS[method](values, available, weights, trigger)
    return pred[0], bool(valid[0])


class TestAggregation:
    PREDICTIONS = [1.0, 2.0, 6.0]

    def test_average(self):
        assert aggregate("average", self.PREDICTIONS)[0] == pytest.approx(3.0)

    def test_uniform_weights_match_average(self):
        weighted, _ = aggregate("weighted_average", self.PREDICTIONS, [1 / 3] * 3)
        assert weighted == pytest.approx(aggregate("average", self.PREDICTIONS)[0], abs=1e-12)

    def test_subset_renormalizes(self):
        out, valid = aggregate("weighted_average", [1.0, 2.0, np.nan], [0.5, 0.3, 0.2],
                               available=[True, True, False])
        assert valid and out == pytest.approx((0.5 * 1.0 + 0.3 * 2.0) / 0.8)

    def test_single_prediction_is_identity(self):
        assert aggregate("weighted_average", [4.2], [0.37])[0] == pytest.approx(4.2)

    def test_empty_rejected(self):
        for method in AGGREGATORS:
            _, valid = AGGREGATORS[method](np.empty((0, 3)), np.empty((0, 3), dtype=bool),
                                           np.empty(0), 0.0)
            assert not valid.any()


class TestVote:
    def test_unanimous_frost(self):
        assert aggregate("weighted_vote", [-2.0, -0.5], [0.6, 0.4]) == (True, True)

    def test_unanimous_warm(self):
        assert aggregate("weighted_vote", [2.0, 0.5], [0.6, 0.4]) == (False, True)

    def test_tie_resolves_to_frost(self):
        assert aggregate("weighted_vote", [-1.0, 1.0], [0.5, 0.5])[0]

    def test_prediction_at_trigger_votes_warm(self):
        assert not aggregate("weighted_vote", [0.0], [1.0], trigger=0.0)[0]

    def test_weight_majority_decides(self):
        assert aggregate("weighted_vote", [-1.0, 5.0], [0.7, 0.3])[0]
        assert not aggregate("weighted_vote", [-1.0, 5.0], [0.3, 0.7])[0]

    def test_trigger_shifts_votes(self):
        assert aggregate("weighted_vote", [1.5], [1.0], trigger=2.0)[0]
        assert not aggregate("weighted_vote", [1.5], [1.0], trigger=1.0)[0]

    def test_unavailable_rows_do_not_vote(self):
        frost, valid = aggregate("weighted_vote", [-1.0, np.nan], [0.1, 0.9],
                                 available=[True, False])
        assert frost and valid


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0])) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])) == pytest.approx(-1.0)

    def test_constant_input_is_zero(self):
        assert pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=50), rng.normal(size=50)
        xc, yc = x - x.mean(), y - y.mean()
        manual = float(np.sum(xc * yc) / np.sqrt(np.sum(xc**2) * np.sum(yc**2)))
        assert pearson(x, y) == pytest.approx(manual, abs=1e-12)

    def test_same_bits_whatever_the_blas_thread_count(self):
        # OpenBLAS splits a long dot product's sum across its threads.
        controls = ensemble._blas_thread_controls()
        if controls is None:
            pytest.skip("no OpenBLAS thread controls resolve")
        get_threads, set_threads = controls
        x, y = np.random.default_rng(5).normal(size=(2, 200_000))
        before = get_threads()
        try:
            values = []
            for n in (1, 2, 4):
                set_threads(n)
                values.append(pearson(x, y))
                assert get_threads() == n
        finally:
            set_threads(before)
        assert values[0] == values[1] == values[2]


class TestBank:
    def test_bank_contains_only_training_stations(self, small_bank, small_folds):
        assert set(small_bank.models) == small_folds.train_stations(0)
        assert set(small_bank.models).isdisjoint(small_folds.test_stations(0))

    def test_weights_subset_equivalence(self, small_bank, small_world):
        # Frozen bounds make subsetting then renormalizing identical to
        # weighting a bank of the subset directly.
        target = small_world.stations[0].attributes
        full = small_bank.weights_for_target(target)
        subset_ids = small_bank.station_ids[:3]
        subset_bank = replace(small_bank, models={k: small_bank.models[k] for k in subset_ids})
        direct = subset_bank.weights_for_target(target)
        assert sorted(direct) == subset_ids
        partial = {k: full[k] for k in subset_ids}
        total = sum(partial.values())
        for k in subset_ids:
            assert direct[k] == pytest.approx(partial[k] / total, abs=1e-12)

    def test_predict_batch_matches_single(self, small_bank, small_world):
        target = small_world.stations[0].attributes
        sid = small_bank.station_ids[0]
        climate = np.array([[2.0, 0.5, 80.0, -1.0, 0.3], [5.0, 3.0, 60.0, 1.0, -0.2]])
        batch = small_bank.predict_batch(sid, climate, target)
        singles = [small_bank.predict_batch(sid, row[None, :], target)[0] for row in climate]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_per_row_targets_match_one_call_per_site(self, small_bank, small_world):
        sites = [s.attributes for s in small_world.stations[:3]]
        climate = np.random.default_rng(8).normal([2.0, 0.5, 80.0, 0.0, 0.0], 1.0, (10, 5))
        pick = np.arange(10) % 3
        targets = np.array([sites[j].as_tuple() for j in pick])
        for sid in small_bank.station_ids:
            per_site = np.stack([small_bank.predict_batch(sid, climate, a) for a in sites])
            np.testing.assert_array_equal(small_bank.predict_batch(sid, climate, targets),
                                          per_site[pick, np.arange(10)])

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (3,), (3, 4, 1)])
    def test_misshapen_targets_rejected(self, small_bank, shape):
        with pytest.raises(DataError):
            small_bank.predict_batch(small_bank.station_ids[0], np.zeros((3, 5)), np.zeros(shape))

    def test_save_load_round_trip(self, small_bank, small_world, tmp_path):
        save_bank(small_bank, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        loaded = load_bank(tmp_path)
        assert loaded.station_ids == small_bank.station_ids
        assert loaded.fold == small_bank.fold
        assert loaded.coefficients == small_bank.coefficients
        assert loaded.normalization == small_bank.normalization
        assert loaded.station_attrs == small_bank.station_attrs
        assert loaded.scalers == small_bank.scalers
        assert loaded.baselines == {} and loaded.baseline_train_fraction == 0.8
        target = small_world.stations[0].attributes
        climate = np.array([[2.0, 0.5, 80.0, -1.0, 0.3]])
        for sid in small_bank.station_ids:
            np.testing.assert_array_equal(
                small_bank.predict_batch(sid, climate, target),
                loaded.predict_batch(sid, climate, target),
            )

    def test_baselines_round_trip_bit_for_bit(self, small_bank, tmp_path):
        rng = np.random.default_rng(5)
        baselines = {}
        for i, sid in enumerate(("b1", "b2")):
            x, y = rng.normal(2.0, 3.0, (40, 5)), rng.normal(1.0, 2.0, 40)
            baselines[sid] = ensemble._fit(ONSITE_SPEC, i, x, y, TrainConfig(seed=i, epochs=2))
        save_bank(replace(small_bank, baselines=baselines, baseline_train_fraction=0.65), tmp_path)
        loaded = load_bank(tmp_path)
        assert loaded.baseline_train_fraction == 0.65
        assert sorted(loaded.baselines) == ["b1", "b2"]
        for sid, (net, scaler) in baselines.items():
            got_net, got_scaler = loaded.baselines[sid]
            assert got_net.spec == net.spec == ONSITE_SPEC
            for want, got in zip(net.weights + net.biases, got_net.weights + got_net.biases):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for field in ("mean", "sd", "label_mean", "label_sd"):
                want, got = getattr(scaler, field), getattr(got_scaler, field)
                assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("text", [None, "[]", "3", "null", "{"])
    def test_manifest_missing_or_not_an_object(self, small_bank, tmp_path, text):
        save_bank(small_bank, tmp_path)
        if text is None:
            (tmp_path / "manifest.json").unlink()
        else:
            (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(FormatError):
            load_bank(tmp_path)

    def test_manifest_serialiser_failing_partway_keeps_the_old_manifest(self, small_bank,
                                                                        tmp_path, monkeypatch):
        onsite = init_network(ONSITE_SPEC, seed=2)
        baselines = {"b1": (onsite, fit_scaler_arrays(np.eye(5), np.arange(5.0)))}
        save_bank(replace(small_bank, baselines=baselines, baseline_train_fraction=0.7), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        models = {sid: init_network(SUBMODEL_SPEC, seed=9) for sid in small_bank.models}
        changed = replace(small_bank, coefficients=FOLD_COEFFICIENT_PRESETS[2], models=models)
        last = changed.station_ids[-1]
        to_dict = ensemble.network_to_dict
        # The encoder meets an unserialisable value in the last station's model, after
        # the new coefficients and every other model: the save fails partway.
        monkeypatch.setattr(ensemble, "network_to_dict", lambda net: (
            {"weights": object()} if net is changed.models[last] else to_dict(net)))
        with pytest.raises(TypeError):
            save_bank(changed, tmp_path)
        monkeypatch.undo()
        # The whole new document is written, and only the rename over the old one fails.
        def failing_replace(src, dst):
            raise OSError("disk detached")
        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_bank(changed, tmp_path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        bank = load_bank(tmp_path)
        assert bank.coefficients == small_bank.coefficients and bank.baseline_train_fraction == 0.7
        assert list(bank.baselines) == ["b1"]

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_save_refuses_a_fraction_load_would_refuse(self, small_bank, tmp_path, fraction):
        save_bank(small_bank, tmp_path)
        before = (tmp_path / "manifest.json").read_bytes()
        with pytest.raises(DomainError, match="baseline_train_fraction must be in"):
            save_bank(replace(small_bank, baseline_train_fraction=fraction), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        assert (tmp_path / "manifest.json").read_bytes() == before

    def test_manifest_version_gate(self, small_bank, tmp_path):
        save_bank(small_bank, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for version in (99, 2):  # 2: one file per model beside the manifest
            manifest["version"] = version
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(UnsupportedVersionError):
                load_bank(tmp_path)


def reference_calibrate(bank, stations, stride):
    """calibrate_coefficients as a per-(target, source) join-and-predict loop."""
    by_id = index_series(stations)
    dist_rows, err_blocks = [], []
    for target in stations:
        lab_ts, labels = label_arrays(target, bank.horizon)
        lab_ts, labels = lab_ts[::stride], labels[::stride]
        for source_id in bank.station_ids:
            if source_id not in by_id or source_id == target.id:
                continue
            obs = climate_matrix(by_id[source_id])
            _, src_idx, lab_idx = join_timestamps(obs.timestamps, lab_ts)
            if lab_idx.size == 0:
                continue
            preds = bank.predict_batch(source_id, obs.climate[src_idx], target.attributes)
            errors = np.abs(preds - labels[lab_idx])
            raw = np.asarray(station_distances(bank.station_attrs[source_id], target.attributes))
            norm = bank.normalization.normalize(raw[None, :])[0]
            dist_rows.append(np.broadcast_to(norm, (errors.size, 3)))
            err_blocks.append(errors)
    dists, errors = np.concatenate(dist_rows), np.concatenate(err_blocks)
    geo, dem, ndvi = (abs(pearson(dists[:, k], errors)) for k in range(3))
    if geo + dem + ndvi == 0.0:
        return FALLBACK_COEFFICIENTS
    return WeightCoefficients(geo, dem, ndvi)


def _drop_rows(series, lo, hi):
    """The series without rows lo..hi-1: a gap in its timestamps."""
    keep = np.r_[0:lo, hi:len(series)]
    return replace(series, timestamps=series.timestamps[keep], raw=series.raw[keep])


class TestCalibration:
    @pytest.mark.parametrize("gapped", [False, True])
    @pytest.mark.parametrize("stride", [1, 30, 60])
    def test_matches_reference_loop_at_one_and_two_workers(
        self, small_bank, small_world, small_folds, monkeypatch, stride, gapped
    ):
        train_ids = small_folds.train_stations(0)
        train_series = [s for s in small_world.stations if s.id in train_ids]
        if gapped:
            # One target loses two hours of labels, one source two hours of inputs.
            train_series[0] = _drop_rows(train_series[0], 300, 420)
            train_series[-1] = _drop_rows(train_series[-1], 600, 720)
        expected = reference_calibrate(small_bank, train_series, stride)
        for n in (1, 2):
            monkeypatch.setattr(ensemble, "_worker_count", lambda: n)
            assert calibrate_coefficients(small_bank, train_series, stride=stride) == expected

    def test_predicts_no_target_from_itself(self, small_bank, small_world, small_folds,
                                            monkeypatch):
        train_ids = small_folds.train_stations(0)
        train_series = [s for s in small_world.stations if s.id in train_ids]
        expected = Counter()
        for target in train_series:
            lab_ts = label_arrays(target, small_bank.horizon)[0][::30]
            for source in train_series:
                if source.id != target.id:
                    expected[source.id, target.attributes] += join_timestamps(
                        source.timestamps, lab_ts)[0].size
        rows = Counter()
        predict_batch = SubmodelBank.predict_batch

        def counted(bank, source_id, climate, target_attrs):
            rows[source_id, target_attrs] += len(climate)
            return predict_batch(bank, source_id, climate, target_attrs)

        monkeypatch.setattr(SubmodelBank, "predict_batch", counted)
        monkeypatch.setattr(ensemble, "_worker_count", lambda: 1)
        calibrate_coefficients(small_bank, train_series, stride=30)
        assert rows == expected

    def test_returns_valid_coefficients(self, small_bank, small_world, small_folds):
        train_ids = small_folds.train_stations(0)
        train_series = [s for s in small_world.stations if s.id in train_ids]
        coeff = calibrate_coefficients(small_bank, train_series, stride=30)
        assert coeff.geo >= 0 and coeff.dem >= 0 and coeff.ndvi >= 0
        assert coeff.geo + coeff.dem + coeff.ndvi > 0

    def test_deterministic(self, small_bank, small_world, small_folds):
        train_ids = small_folds.train_stations(0)
        train_series = [s for s in small_world.stations if s.id in train_ids]
        a = calibrate_coefficients(small_bank, train_series, stride=60)
        b = calibrate_coefficients(small_bank, train_series, stride=60)
        assert a == b

    def test_no_overlapping_stations_rejected(self, small_bank, small_world, small_folds):
        test_series = [
            s for s in small_world.stations if s.id in small_folds.test_stations(0)
        ]
        with pytest.raises(DataError):
            calibrate_coefficients(small_bank, test_series, stride=60)


def _reference_bank(stations, folds, fold, cfg, horizon, entry_stride, max_entries):
    """train_bank's pair loop written with one pair_feature_arrays call per pair."""
    by_id = index_series(stations)
    train_ids = sorted(folds.train_stations(fold) & set(by_id))
    models, scalers = {}, {}
    for idx, source_id in enumerate(train_ids):
        blocks = [
            pair_feature_arrays(by_id[source_id], by_id[t], horizon, stride=entry_stride)
            for t in train_ids
            if t != source_id
        ]
        x = np.concatenate([b[0] for b in blocks if b[0].shape[0]])
        y = np.concatenate([b[1] for b in blocks if b[0].shape[0]])
        if max_entries is not None and x.shape[0] > max_entries:
            keep = _child_seed(cfg.seed, idx).choice(x.shape[0], size=max_entries, replace=False)
            keep.sort()
            x, y = x[keep], y[keep]
        scaler = fit_scaler_arrays(x, y)
        net = init_network(SUBMODEL_SPEC, seed=int(cfg.seed * 100003 + idx))
        net, _ = train(net, apply_scaler(scaler, x), np.asarray(scale_label(scaler, y)), cfg)
        models[source_id], scalers[source_id] = net, scaler
    return SubmodelBank(
        fold=fold,
        horizon=horizon,
        models=models,
        scalers=scalers,
        station_attrs={i: by_id[i].attributes for i in train_ids},
        coefficients=FALLBACK_COEFFICIENTS,
        normalization=fit_normalization([by_id[i].attributes for i in train_ids]),
    )


class TestTrainBankColumns:
    HORIZON, STRIDE, MAX_ENTRIES = 30, 7, 300

    @pytest.fixture(scope="class")
    def gapped(self):
        """Six stations; one training station keeps only part of the day."""
        spec = WorldSpec(seed=9, n_stations=6, lon_min=146.0, lon_max=147.0,
                         lat_min=-34.0, lat_max=-33.0, cell_size=0.1, days=1)
        stations = list(generate_world(spec).stations)
        ids = sorted(s.id for s in stations)
        folds = FoldAssignment((frozenset(ids[:2]), frozenset(ids[2:])))
        short_id = ids[2]
        stations = [
            replace(s, timestamps=s.timestamps[200:1100], raw=s.raw[200:1100])
            if s.id == short_id else s
            for s in stations
        ]
        return stations, folds, short_id

    def test_bank_files_match_per_pair_reference(self, gapped, tmp_path):
        stations, folds, short_id = gapped
        by_id = index_series(stations)
        other_id = sorted(folds.train_stations(0) - {short_id})[0]
        # The partial station's join really drops rows, and the cap binds.
        x, _, _ = pair_feature_arrays(by_id[short_id], by_id[other_id], self.HORIZON, self.STRIDE)
        full_labels = len(by_id[other_id]) - self.HORIZON
        assert 0 < x.shape[0] < -(-full_labels // self.STRIDE)
        assert x.shape[0] * (len(folds.train_stations(0)) - 1) > self.MAX_ENTRIES

        cfg = TrainConfig(seed=4, epochs=2, batch_size=128)
        bank = train_bank(stations, folds, 0, cfg, horizon=self.HORIZON,
                          entry_stride=self.STRIDE, max_entries=self.MAX_ENTRIES)
        ref = _reference_bank(stations, folds, 0, cfg, self.HORIZON, self.STRIDE,
                              self.MAX_ENTRIES)
        save_bank(bank, tmp_path / "new")
        save_bank(ref, tmp_path / "ref")
        for directory in ("new", "ref"):
            assert [p.name for p in (tmp_path / directory).iterdir()] == ["manifest.json"]
        new = (tmp_path / "new" / "manifest.json").read_bytes()
        assert new == (tmp_path / "ref" / "manifest.json").read_bytes()
        assert len(json.loads(new)["stations"]) == len(folds.train_stations(0))

    def test_columns_extracted_once_per_station(self, gapped, derivations):
        stations, folds, _ = gapped
        train_bank(stations, folds, 0, TrainConfig(seed=4, epochs=1, batch_size=128),
                   horizon=self.HORIZON, entry_stride=self.STRIDE)
        train_ids = folds.train_stations(0)
        expected = {(name, sid): 1 for name in ("climate_matrix", "label_arrays")
                    for sid in train_ids}
        assert dict(derivations) == expected

    def test_bad_stride_rejected(self, gapped):
        stations, folds, _ = gapped
        with pytest.raises(DomainError):
            train_bank(stations, folds, 0, TrainConfig(epochs=1), entry_stride=0)

    @pytest.mark.parametrize("max_entries", [0, -1])
    def test_bad_max_entries_rejected_before_any_work(self, gapped, monkeypatch, max_entries):
        stations, folds, _ = gapped
        monkeypatch.setattr(features, "label_arrays", None)  # a label pass would be a TypeError
        with pytest.raises(DomainError, match="max_entries must be >= 1"):
            train_bank(stations, folds, 0, TrainConfig(epochs=1), max_entries=max_entries)


def _blas_thread_getter():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter
    return None


def _blas_threads():
    return _blas_thread_getter()()


def _pool_and_bank(stations, folds, cfg):
    """Run in a daemonic worker: whether map_in_workers stays in-process, and the bank."""
    pids = list(ensemble.map_in_workers(lambda _: os.getpid(), 2))
    return pids == [os.getpid()] * 2, train_bank(stations, folds, 0, cfg, entry_stride=7)


def _fail_from(first_bad, index):
    if index >= first_bad:
        raise DataError(f"task {index} failed")
    return index


def _bank_files(bank, directory):
    save_bank(bank, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestTrainBankPool:
    CFG = TrainConfig(seed=4, epochs=2, batch_size=128)

    @pytest.fixture(scope="class")
    def world(self):
        spec = WorldSpec(seed=9, n_stations=7, lon_min=146.0, lon_max=147.0,
                         lat_min=-34.0, lat_max=-33.0, cell_size=0.1, days=1)
        stations = list(generate_world(spec).stations)
        ids = sorted(s.id for s in stations)
        return stations, FoldAssignment((frozenset(ids[:2]), frozenset(ids[2:])))

    @pytest.fixture
    def workers(self, monkeypatch):
        def force(n):
            monkeypatch.setattr(ensemble, "_worker_count", lambda: n)
        return force

    def test_bank_files_identical_at_one_and_two_workers(self, world, workers, tmp_path):
        stations, folds = world
        files = []
        for n in (1, 2):
            workers(n)
            bank = train_bank(stations, folds, 0, self.CFG, entry_stride=7, max_entries=400)
            files.append(_bank_files(bank, tmp_path / str(n)))
        assert list(files[0]) == ["manifest.json"]
        assert len(json.loads(files[0]["manifest.json"])["stations"]) == len(folds.train_stations(0))
        assert files[0] == files[1]

    def test_progress_lines_in_station_order(self, world, workers, capsys):
        stations, folds = world
        workers(2)
        train_bank(stations, folds, 0, self.CFG, entry_stride=7, progress=True)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == [str(i) for i in sorted(folds.train_stations(0))]
        assert all(line.startswith("trained ") for line in lines)

    def test_worker_runs_one_blas_thread(self, workers):
        if _blas_thread_getter() is None:
            pytest.skip("no OpenBLAS thread getter resolves")
        workers(2)
        parent = os.getpid()
        before = _blas_threads()
        results = ensemble.map_in_workers(lambda _: (os.getpid() != parent, _blas_threads()), 2)
        assert next(results) == (True, 1)
        assert _blas_threads() == 1  # the parent holds the pin until the pool shuts down
        assert list(results) == [(True, 1)]
        assert _blas_threads() == before

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_error_in_index_order(self, workers, n):
        # Every task from index 3 on raises; index 3's error comes first, after
        # the results before it, whichever task a worker finishes first.
        workers(n)
        before = _blas_threads() if _blas_thread_getter() is not None else None
        got = []
        with pytest.raises(DataError, match="^task 3 failed$"):
            for result in ensemble.map_in_workers(functools.partial(_fail_from, 3), 8):
                got.append(result)
        assert got == [0, 1, 2]
        assert multiprocessing.active_children() == []
        if before is not None:
            assert _blas_threads() == before

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_early_stops_the_pool(self, workers, n):
        workers(n)
        before = _blas_threads() if _blas_thread_getter() is not None else None
        results = ensemble.map_in_workers(functools.partial(_fail_from, 8), 8)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []
        if before is not None:
            assert _blas_threads() == before

    def test_pooled_worker_starts_no_blas_thread(self, workers):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task")
        if _blas_thread_getter() is None:
            pytest.skip("no OpenBLAS thread getter resolves")
        workers(2)
        parent = os.getpid()
        before = _blas_threads()

        def task(_):
            a = np.ones((400, 400))
            a @ a
            return os.getpid() != parent, len(os.listdir("/proc/self/task")), _blas_threads()

        assert list(ensemble.map_in_workers(task, 4)) == [(True, 1, 1)] * 4
        assert _blas_threads() == before

    def test_daemonic_caller_trains_serially(self, world, workers, tmp_path):
        stations, folds = world
        workers(2)
        with multiprocessing.get_context("fork").Pool(1) as daemon:
            task = daemon.apply_async(_pool_and_bank, (stations, folds, self.CFG))
            serial, bank = task.get(timeout=120)
        assert serial
        ref = train_bank(stations, folds, 0, self.CFG, entry_stride=7)
        assert _bank_files(bank, tmp_path / "daemon") == _bank_files(ref, tmp_path / "ref")

    def test_divergence_pickles_with_epoch_and_message(self):
        err = pickle.loads(pickle.dumps(DivergenceError(3)))
        assert err.epoch == 3
        assert str(err) == str(DivergenceError(3)) == "training diverged at epoch 3"
        custom = pickle.loads(pickle.dumps(DivergenceError(5, "loss is nan")))
        assert (custom.epoch, str(custom)) == (5, "loss is nan")

    def test_divergence_same_pooled_and_serial(self, world, workers):
        stations, folds = world
        cfg = replace(self.CFG, learning_rate=1e50)
        raised = []
        for n in (1, 2):
            workers(n)
            with pytest.raises(DivergenceError) as exc_info:
                train_bank(stations, folds, 0, cfg, entry_stride=7)
            raised.append((type(exc_info.value), exc_info.value.epoch, str(exc_info.value)))
        assert raised[0] == raised[1]

    def test_earlier_divergence_wins_over_later_corpus_error(self, world, workers):
        # The second source shares no timestamps with any target. A serial run
        # trains (and loses) the first submodel before it builds that corpus.
        stations, folds = world
        second = sorted(folds.train_stations(0))[1]
        stations = [
            replace(s, timestamps=s.timestamps + 10**6) if s.id == second else s
            for s in stations
        ]
        cfg = replace(self.CFG, learning_rate=1e50)
        for n in (1, 2):
            workers(n)
            with pytest.raises(DivergenceError):
                train_bank(stations, folds, 0, cfg, entry_stride=7)
        with pytest.raises(DataError, match=f"station {second} shares no timestamps"):
            train_bank(stations, folds, 0, self.CFG, entry_stride=7)
