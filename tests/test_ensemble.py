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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    PredictionMatrix,
    SubmodelBank,
    WeightCoefficients,
    _child_seed,
    _masked_weighted_mean,
    _predictions_at_targets,
    attribute_distances,
    calibrate_coefficients,
    fit_normalization,
    pearson,
)
from frostcast.features import (
    apply_scaler,
    climate_matrix,
    fit_scaler_arrays,
    join_timestamps,
    label_arrays,
    pair_feature_arrays,
    scale_label,
    station_frame,
)
from frostcast.neuralnet import ONSITE_SPEC, TrainConfig, init_network, train

FOLD0 = WeightCoefficients(0.1629, 0.0132, 0.0290)


def attrs(lon, lat, dem, ndvi):
    return StationAttributes(GeoPoint(lon, lat), dem, ndvi)


ORIGIN = attrs(0.0, 0.0, 0.0, 0.0)


def station_bank(stations, coefficients, normalization):
    """A model-less bank of the given sites; ``station_ids`` keeps their order.

    Weights read only each submodel's attributes, so its network and scaler are None.
    """
    submodels = {f"s{i:03d}": (site, None, None) for i, site in enumerate(stations)}
    return SubmodelBank(fold=0, horizon=60, submodels=submodels, coefficients=coefficients,
                        normalization=normalization)


def triple_bank(triples, coefficients):
    """A model-less bank whose stations sit at the given normalized distances from ORIGIN.

    Station i is at (lon g, lat 0, dem d, ndvi n) and every bound is (0, 1),
    so its normalized distance triple to ORIGIN is exactly (g, d, n).
    """
    unit = (0.0, 1.0)
    return station_bank([attrs(g, 0.0, d, n) for g, d, n in triples], coefficients,
                        DistanceNormalization(unit, unit, unit))


def reference_distances(source, target):
    """The scalar (geographic, elevation, NDVI) rule, one station pair at a time.

    ``attribute_distances`` must keep its bits: ``math.hypot`` of source
    minus target, and the absolute differences in the same operand order.
    """
    return (math.hypot(source.location.lon - target.location.lon,
                       source.location.lat - target.location.lat),
            abs(source.dem - target.dem), abs(source.ndvi - target.ndvi))


def reference_normalization(stations):
    """Min-max bounds over every ordered pair (i, j), i != j, of the scalar rule."""
    triples = np.array([reference_distances(a, b) for i, a in enumerate(stations)
                        for j, b in enumerate(stations) if i != j])
    lo, hi = triples.min(axis=0), triples.max(axis=0)
    return DistanceNormalization(*((float(lo[k]), float(hi[k])) for k in range(3)))


def reference_weights(bank, target):
    """Normalised weights from one scalar distance triple per station, in station_ids order."""
    raw = np.array([reference_distances(bank.submodels[i][0], target) for i in bank.station_ids])
    w = attribute_weights(bank.normalization.normalize(raw), bank.coefficients)
    w /= w.sum()
    return w


def sites_and_scalers(bank):
    """Each submodel's (attributes, scaler); networks have no ==, so tests compare their outputs."""
    return {sid: (site, scaler) for sid, (site, _, scaler) in bank.submodels.items()}


def rows(stations):
    """The ``(k, 4)`` (lon, lat, dem, ndvi) rows ``attribute_distances`` takes."""
    return np.array([a.as_tuple() for a in stations]).reshape(-1, 4)


SITE = st.builds(attrs, st.floats(-180.0, 180.0), st.floats(-90.0, 90.0),
                 st.floats(-500.0, 9000.0), st.floats(-1.0, 1.0))


@st.composite
def stations_and_target(draw, min_size=1):
    """Sites, some repeated (coincident stations), and a target that may sit on one."""
    sites = draw(st.lists(SITE, min_size=min_size, max_size=10))
    sites += [sites[i] for i in draw(st.lists(st.integers(0, len(sites) - 1), max_size=3))]
    return sites, draw(st.one_of(SITE, st.sampled_from(sites)))


NEGATIVE_LONGITUDES = ([attrs(-120.5, 35.25, 100.0, 0.3), attrs(-0.1, -33.0, -5.0, -0.2),
                        attrs(-179.9, 89.0, 8000.0, 1.0)], attrs(-60.0, 0.0, 0.0, 0.0))
COINCIDENT = ([attrs(146.2, -33.7, 120.0, 0.4)] * 2 + [attrs(146.9, -33.1, 80.0, 0.1)],
              attrs(146.2, -33.7, 120.0, 0.4))
ONE_STATION = ([attrs(146.0, -33.0, 10.0, 0.1)], attrs(147.5, -34.5, 300.0, -0.3))
SWEEP = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestArrayDistancesMatchScalarRule:
    """attribute_distances, the normalisation bounds and the weights, bit for bit."""

    @given(stations_and_target())
    @example(NEGATIVE_LONGITUDES)
    @example(COINCIDENT)
    @example(ONE_STATION)
    @SWEEP
    def test_attribute_distances(self, case):
        stations, target = case
        got = attribute_distances(rows(stations), target)
        want = np.array([reference_distances(a, target) for a in stations])
        assert got.shape == (len(stations), 3) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @given(stations_and_target(min_size=2))
    @example(NEGATIVE_LONGITUDES)
    @example(COINCIDENT)
    @SWEEP
    def test_normalization_bounds(self, case):
        stations, _ = case
        got, want = fit_normalization(stations), reference_normalization(stations)
        assert np.array([got.geo, got.dem, got.ndvi]).tobytes() == (
            np.array([want.geo, want.dem, want.ndvi]).tobytes())

    @given(stations_and_target(), st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0),
                                            st.floats(0.001, 2.0)))
    @example(NEGATIVE_LONGITUDES, (0.1629, 0.0132, 0.0290))
    @example(COINCIDENT, (0.1629, 0.0132, 0.0290))
    @example(ONE_STATION, (1.0, 0.0, 0.0))
    @SWEEP
    def test_weights_for_target(self, case, coeff):
        stations, target = case
        # Bounds over the stations and the target, so a one-station bank has two sites.
        bank = station_bank(stations, WeightCoefficients(*coeff),
                            reference_normalization(stations + [target]))
        got = bank.weights_for_target(target)
        assert got.shape == (len(stations),)
        assert got.tobytes() == reference_weights(bank, target).tobytes()


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
        np.testing.assert_allclose(w, [1 / 3] * 3, atol=1e-12)

    def test_nearer_station_weighs_more(self):
        # Entry i is station_ids[i]: s000, then s001.
        w = triple_bank([(0.1, 0.1, 0.1), (1.0, 1.0, 1.0)], FOLD0).weights_for_target(ORIGIN)
        assert w[0] > w[1]

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
        assert w.shape == (len(triples),)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert (w > 0).all()


class TestDistances:
    def test_raw_distance_components(self):
        a = attrs(146.0, -33.0, 100.0, 0.2)
        b = attrs(147.0, -34.0, 250.0, -0.1)
        geo, dem, ndvi = attribute_distances(rows([a]), b)[0]
        assert geo == pytest.approx(np.sqrt(2.0))
        assert dem == pytest.approx(150.0)
        assert ndvi == pytest.approx(0.3, abs=1e-12)

    def test_batch_normalization_spans_unit_interval(self):
        # Bounds taken over the batch itself map its extremes to 0 and 1.
        triples = np.array([(1.0, 10.0, 0.1), (3.0, 30.0, 0.5)])
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


def aggregate(method, values, weights=None, trigger=0.0):
    """One column of the aggregation table: (prediction, valid) over the given rows."""
    values = np.asarray(values, dtype=np.float64)[:, None]
    weights = None if weights is None else np.asarray(weights, dtype=np.float64)
    pred, valid = AGGREGATORS[method](values, weights, trigger)
    return pred[0], bool(valid[0])


class TestAggregation:
    PREDICTIONS = [1.0, 2.0, 6.0]

    def test_average(self):
        assert aggregate("average", self.PREDICTIONS)[0] == pytest.approx(3.0)

    def test_uniform_weights_match_average(self):
        weighted, _ = aggregate("weighted_average", self.PREDICTIONS, [1 / 3] * 3)
        assert weighted == pytest.approx(aggregate("average", self.PREDICTIONS)[0], abs=1e-12)

    def test_subset_renormalizes(self):
        out, valid = aggregate("weighted_average", [1.0, 2.0, np.nan], [0.5, 0.3, 0.2])
        assert valid and out == pytest.approx((0.5 * 1.0 + 0.3 * 2.0) / 0.8)

    def test_single_prediction_is_identity(self):
        assert aggregate("weighted_average", [4.2], [0.37])[0] == pytest.approx(4.2)

    def test_empty_rejected(self):
        for method in AGGREGATORS:
            _, valid = AGGREGATORS[method](np.empty((0, 3)), np.empty(0), 0.0)
            assert not valid.any()


def reference_masked_weighted_mean(values, available, weights):
    """``_masked_weighted_mean`` with its three (k, n) temporaries, as first written."""
    weights = np.asarray(weights, dtype=np.float64)
    w = (weights[:, None] if weights.ndim == 1 else weights) * available
    total = w.sum(axis=0)
    valid = total > 0
    safe_total = np.where(valid, total, 1.0)
    mean = (w * np.where(available, values, 0.0)).sum(axis=0) / safe_total
    return mean, valid


@st.composite
def masked_blocks(draw):
    """(values, weights): NaN cells, an all-NaN column, zero weights."""
    k, n = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    values = draw(hnp.arrays(np.float64, (k, n),
                             elements=st.floats(-40.0, 40.0) | st.just(np.nan)))
    available = draw(hnp.arrays(np.bool_, (k, n)))
    available[:, draw(st.integers(0, n - 1))] = False
    values[~available] = np.nan  # NaN marks a missing prediction
    shape = draw(st.sampled_from([(k,), (k, n)]))
    weights = draw(hnp.arrays(np.float64, shape,
                              elements=st.just(0.0) | st.floats(1e-6, 1e6)))
    return values, weights


class TestMaskedWeightedMean:
    @given(masked_blocks())
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    def test_matches_three_temporary_formula_bit_for_bit(self, block):
        values, weights = block
        mean, valid = _masked_weighted_mean(values, weights)
        want_mean, want_valid = reference_masked_weighted_mean(values, ~np.isnan(values), weights)
        assert mean.tobytes() == want_mean.tobytes()
        assert valid.tobytes() == want_valid.tobytes()

    def test_leaves_its_inputs_alone(self):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        weights = np.array([[0.5, 0.0], [0.25, 2.0]])
        before = (values.copy(), weights.copy())
        _masked_weighted_mean(values, weights)
        assert values.tobytes() == before[0].tobytes()
        assert weights.tobytes() == before[1].tobytes()


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
        # A NaN row that voted warm would outweigh the frost row.
        frost, valid = aggregate("weighted_vote", [-1.0, np.nan], [1.0, 2.0])
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
        assert set(small_bank.submodels) == small_folds.train_stations(0)
        assert set(small_bank.submodels).isdisjoint(small_folds.test_stations(0))

    def test_weights_subset_equivalence(self, small_bank, small_world):
        # Frozen bounds make subsetting then renormalizing identical to
        # weighting a bank of the subset directly.
        target = small_world.stations[0].attributes
        full = small_bank.weights_for_target(target)
        subset_ids = small_bank.station_ids[:3]
        subset_bank = replace(small_bank,
                              submodels={k: small_bank.submodels[k] for k in subset_ids})
        direct = subset_bank.weights_for_target(target)
        assert subset_bank.station_ids == subset_ids and direct.shape == (3,)
        np.testing.assert_allclose(direct, full[:3] / full[:3].sum(), rtol=0, atol=1e-12)

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
        assert sites_and_scalers(loaded) == sites_and_scalers(small_bank)
        assert loaded.baselines == {}
        target = small_world.stations[0].attributes
        climate = np.array([[2.0, 0.5, 80.0, -1.0, 0.3]])
        for sid in small_bank.station_ids:
            np.testing.assert_array_equal(
                small_bank.predict_batch(sid, climate, target),
                loaded.predict_batch(sid, climate, target),
            )

    def test_narrowed_bank_round_trip(self, small_bank, small_world, tmp_path):
        # Narrowed as test_weights_subset_equivalence narrows it: only the kept
        # submodels are saved.
        subset_ids = small_bank.station_ids[:3]
        subset_bank = replace(small_bank,
                              submodels={k: small_bank.submodels[k] for k in subset_ids})
        save_bank(subset_bank, tmp_path)
        loaded = load_bank(tmp_path)
        assert loaded.station_ids == subset_ids
        assert sites_and_scalers(loaded) == sites_and_scalers(subset_bank)
        target = small_world.stations[0].attributes
        assert (loaded.weights_for_target(target).tobytes()
                == subset_bank.weights_for_target(target).tobytes())
        climate = np.array([[2.0, 0.5, 80.0, -1.0, 0.3]])
        for sid in subset_ids:
            np.testing.assert_array_equal(subset_bank.predict_batch(sid, climate, target),
                                          loaded.predict_batch(sid, climate, target))

    def test_baselines_round_trip_bit_for_bit(self, small_bank, tmp_path):
        rng = np.random.default_rng(5)
        baselines = {}
        for i, sid in enumerate(("b1", "b2")):
            x, y = rng.normal(2.0, 3.0, (40, 5)), rng.normal(1.0, 2.0, 40)
            baselines[sid] = ensemble._fit(ONSITE_SPEC, i, x, y, TrainConfig(seed=i, epochs=2))
        save_bank(replace(small_bank, baselines=baselines), tmp_path)
        loaded = load_bank(tmp_path)
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
        save_bank(replace(small_bank, baselines=baselines), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        submodels = {sid: (a, init_network(SUBMODEL_SPEC, seed=9), scaler)
                     for sid, (a, _, scaler) in small_bank.submodels.items()}
        changed = replace(small_bank, coefficients=FOLD_COEFFICIENT_PRESETS[2],
                          submodels=submodels)
        last = changed.station_ids[-1]
        to_dict = ensemble.network_to_dict
        # The encoder meets an unserialisable value in the last station's model, after
        # the new coefficients and every other model: the save fails partway.
        monkeypatch.setattr(ensemble, "network_to_dict", lambda net: (
            {"weights": object()} if net is changed.submodels[last][1] else to_dict(net)))
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
        assert bank.coefficients == small_bank.coefficients
        assert list(bank.baselines) == ["b1"]

    def test_manifest_version_gate(self, small_bank, tmp_path):
        save_bank(small_bank, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # 2: one file per model beside the manifest; 3: a stored baseline split.
        for version in (99, 3, 2):
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
            raw = np.asarray(reference_distances(bank.submodels[source_id][0], target.attributes))
            norm = bank.normalization.normalize(raw[None, :])[0]
            dist_rows.append(np.broadcast_to(norm, (errors.size, 3)))
            err_blocks.append(errors)
    dists, errors = np.concatenate(dist_rows), np.concatenate(err_blocks)
    geo, dem, ndvi = (abs(pearson(dists[:, k], errors)) for k in range(3))
    if geo + dem + ndvi == 0.0:
        return FALLBACK_COEFFICIENTS
    return WeightCoefficients(geo, dem, ndvi)


def reference_block_coefficients(bank, source_ids, targets, blocks):
    """calibrate_coefficients from given prediction blocks, one (target, source) row at a time.

    None where no block holds an observed cell.
    """
    sources = bank.attribute_rows(source_ids)
    dist_rows, err_blocks = [], []
    for target, block in zip(targets, blocks):
        norm = bank.normalization.normalize(attribute_distances(sources, target.attributes))
        for dist, preds in zip(norm, block):
            observed = ~np.isnan(preds)
            if not observed.any():
                continue
            errors = np.abs(preds[observed] - target.labels[observed])
            dist_rows.append(np.broadcast_to(dist, (errors.size, 3)))
            err_blocks.append(errors)
    if not err_blocks:
        return None
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

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), stride=st.sampled_from([7, 30]),
           row_nan=st.sampled_from([0.0, 0.3, 1.0]), cell_nan=st.sampled_from([0.0, 0.2, 0.9]))
    def test_masked_pass_matches_reference_loop_on_random_masks(
        self, small_bank, small_world, small_folds, seed, stride, row_nan, cell_nan
    ):
        # Random predictions with NaN rows and cells stand in for the bank's blocks.
        train_series = [s for s in small_world.stations if s.id in small_folds.train_stations(0)]
        seen = []

        def random_blocks(bank, series, targets):
            rng = np.random.default_rng(seed)
            source_ids = [sid for sid in bank.station_ids if sid in series]
            blocks = []
            for target in targets:
                block = target.labels + rng.normal(0.0, 2.0, (len(source_ids), target.labels.size))
                block[rng.random(len(source_ids)) < row_nan] = np.nan
                block[rng.random(block.shape) < cell_nan] = np.nan
                blocks.append(block)
            seen.append((source_ids, targets, blocks))
            return [PredictionMatrix(t.id, source_ids, t.label_timestamps, t.labels, block)
                    for t, block in zip(targets, blocks)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "_predictions_at_targets", random_blocks)
            try:
                got = calibrate_coefficients(small_bank, train_series, stride=stride)
            except DataError:
                got = None
        assert got == reference_block_coefficients(small_bank, *seen[0])

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

    def test_held_out_series_are_ignored(self, small_bank, small_world, small_folds):
        train_ids = small_folds.train_stations(0)
        train_series = [s for s in small_world.stations if s.id in train_ids]
        assert len(train_series) < len(small_world.stations)
        assert (calibrate_coefficients(small_bank, small_world.stations, stride=30)
                == calibrate_coefficients(small_bank, train_series, stride=30))

    def test_no_overlapping_stations_rejected(self, small_bank, small_world, small_folds):
        test_series = [
            s for s in small_world.stations if s.id in small_folds.test_stations(0)
        ]
        with pytest.raises(DataError):
            calibrate_coefficients(small_bank, test_series, stride=60)


def reference_prediction_block(bank, sources, target):
    """One target's block as the per-target task built it, from one ``predict_batch``
    call per (source, target) pair: NaN where the source is unobserved at a label
    minute, and across the row where the source is the target."""
    values = np.full((len(sources), target.labels.size), np.nan)
    for i, source in enumerate(sources):
        if source.id == target.id:
            continue
        obs = climate_matrix(source)
        _, src_idx, lab_idx = join_timestamps(obs.timestamps, target.label_timestamps)
        if lab_idx.size:
            values[i, lab_idx] = bank.predict_batch(source.id, obs.climate[src_idx],
                                                    target.attributes)
    return values


class TestPredictionsAtTargets:
    # 1 runs in-process; 4 starts more workers than a two-core runner has cores,
    # all writing rows of the same shared blocks.
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_blocks_match_per_pair_loop_bit_for_bit(self, small_bank, small_world,
                                                    small_test_ids, monkeypatch, n_workers):
        by_id = index_series(small_world.stations)
        first, cut = small_bank.station_ids[:2]
        half = len(by_id[cut]) // 2
        by_id[cut] = _drop_rows(by_id[cut], half, len(by_id[cut]))  # NaN cells
        # Two held-out targets and one bank source, whose own row is NaN (calibrate's case).
        targets = [station_frame(by_id[sid], small_bank.horizon, source=False).thinned(7)
                   for sid in [*small_test_ids, first]]
        monkeypatch.setattr(ensemble, "_worker_count", lambda: n_workers)
        matrices = _predictions_at_targets(small_bank, by_id, targets)
        source_ids, blocks = matrices[0].source_ids, [pm.values for pm in matrices]
        assert source_ids == small_bank.station_ids
        for target, pm in zip(targets, matrices):
            assert (pm.target_id, pm.source_ids) == (target.id, source_ids)
            assert pm.labels is target.labels and pm.timestamps is target.label_timestamps
        sources = [by_id[sid] for sid in source_ids]
        assert len(blocks) == len(targets)
        for target, block in zip(targets, blocks):
            want = reference_prediction_block(small_bank, sources, target)
            assert (block.dtype, block.shape) == (want.dtype, want.shape)
            assert block.tobytes() == want.tobytes()
        cut_row = blocks[0][1]
        assert np.isnan(cut_row).any() and np.isfinite(cut_row).any()
        assert np.isnan(blocks[-1][0]).all()
        assert np.isfinite(blocks[-1][2:]).all()

    def test_bank_sources_without_series_are_left_out(self, small_bank, small_world,
                                                      small_test_ids, monkeypatch):
        by_id = index_series(small_world.stations)
        dropped = small_bank.station_ids[2]
        del by_id[dropped]
        targets = [station_frame(by_id[sid], small_bank.horizon, source=False).thinned(30)
                   for sid in small_test_ids]
        monkeypatch.setattr(ensemble, "_worker_count", lambda: 1)
        matrices = _predictions_at_targets(small_bank, by_id, targets)
        source_ids, blocks = matrices[0].source_ids, [pm.values for pm in matrices]
        assert source_ids == [sid for sid in small_bank.station_ids if sid != dropped]
        for target, block in zip(targets, blocks):
            want = reference_prediction_block(small_bank, [by_id[s] for s in source_ids], target)
            assert block.tobytes() == want.tobytes()


def _reference_bank(stations, folds, fold, cfg, horizon, entry_stride, max_entries):
    """train_bank's pair loop written with one pair_feature_arrays call per pair."""
    by_id = index_series(stations)
    train_ids = sorted(folds.train_stations(fold) & set(by_id))
    submodels = {}
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
        submodels[source_id] = (by_id[source_id].attributes, net, scaler)
    return SubmodelBank(
        fold=fold,
        horizon=horizon,
        submodels=submodels,
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
