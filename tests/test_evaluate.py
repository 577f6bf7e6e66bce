"""Harness mathematics: folds, metrics, the t-test, ablation mechanics.

The t machinery is hand-rolled, so scipy serves as an independent
reference implementation here: betainc for the incomplete beta and
ttest_rel for the full paired test. The worked t example is
d = [-1, 0, 1, 2, 3]: mean 1, sd sqrt(2.5), t = 1/sqrt(0.5) = sqrt(2),
two-sided p = 0.230200 (reference CDF).
"""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

from frostcast import (
    DataError,
    DivergenceError,
    DomainError,
    TrainConfig,
    build_prediction_matrices,
    make_folds,
    run_fold_experiment,
)
from frostcast import ensemble
from frostcast.core import GeoPoint, index_series
from frostcast.ensemble import FOLD_COEFFICIENT_PRESETS
from frostcast.evaluate import (
    ConfusionCounts,
    _availability_groups,
    _ok_series,
    event_confusion,
    evaluate_baselines,
    paired_t_test,
    regularized_incomplete_beta,
    rmse,
    run_station_ablation,
    train_baselines,
)
from frostcast.features import climate_matrix, station_frame
from frostcast.geostats import (
    VariogramModel,
    empirical_semivariogram,
    ordinary_kriging,
    snapshot_variogram,
)
from test_geostats import reference_fit_variogram


class TestMakeFolds:
    def test_75_stations_split_into_five_fifteens(self):
        ids = [str(10001 + i) for i in range(75)]
        folds = make_folds(ids, seed=0, n_folds=5)
        assert folds.n_folds == 5
        assert [len(f) for f in folds.folds] == [15] * 5
        union = set().union(*folds.folds)
        assert union == set(ids)

    def test_uneven_split_sizes(self):
        folds = make_folds(list("abcdefg"), seed=3, n_folds=5)
        assert sorted(len(f) for f in folds.folds) == [1, 1, 1, 2, 2]

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(20)]
        a = make_folds(ids, seed=7)
        b = make_folds(ids, seed=7)
        assert a.folds == b.folds

    def test_seed_changes_assignment(self):
        ids = [f"s{i}" for i in range(20)]
        assert make_folds(ids, seed=0).folds != make_folds(ids, seed=1).folds

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            make_folds(["a", "a", "b", "c", "d"], seed=0, n_folds=2)

    def test_too_few_stations(self):
        with pytest.raises(DataError):
            make_folds(["a", "b"], seed=0, n_folds=5)


class TestRmse:
    def test_hand_value(self):
        # sqrt((9 + 16) / 2) = sqrt(12.5)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_zero_when_equal(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            rmse([], [])


class TestConfusion:
    def test_enumerated_example(self):
        # pred [-1, 1, -1] vs actual [-1, -1, 1], trigger 0:
        # t0 hit, t1 miss, t2 false alarm -> tp=1 fp=1 fn=1 tn=0.
        c = event_confusion([-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0], trigger=0.0)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 0)
        assert c.tpr == pytest.approx(0.5)
        assert c.fdr == pytest.approx(0.5)

    def test_rates_undefined_without_denominator(self):
        no_events = ConfusionCounts(0, 0, 0, 5)
        assert no_events.tpr is None and no_events.fdr is None

    def test_boolean_decisions_accepted(self):
        c = event_confusion(np.array([True, False]), np.array([-1.0, -1.0]))
        assert (c.tp, c.fn) == (1, 1)

    def test_event_is_strictly_below_trigger(self):
        c = event_confusion([0.0], [0.0], trigger=0.0)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 0, 1)

    def test_trigger_shifts_events(self):
        c = event_confusion([1.0], [1.0], trigger=2.0)
        assert c.tp == 1


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_half(self):
        # I_{1/2}(a, a) = 1/2 exactly by symmetry.
        assert regularized_incomplete_beta(4.0, 4.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    @given(
        st.floats(0.5, 20.0),
        st.floats(0.5, 20.0),
        st.floats(0.001, 0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, a, b, x):
        ours = regularized_incomplete_beta(a, b, x)
        ref = float(sp_special.betainc(a, b, x))
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)


class TestPairedTTest:
    def test_worked_example(self):
        d = [-1.0, 0.0, 1.0, 2.0, 3.0]
        t, p = paired_t_test(d, [0.0] * 5)
        assert t == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert p == pytest.approx(0.23019964108049873, abs=1e-4)

    def test_identical_inputs(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)

    def test_constant_nonzero_difference(self):
        t, p = paired_t_test([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert t == np.inf and p == 0.0
        t, p = paired_t_test([0.0, 0.0], [1.0, 1.0])
        assert t == -np.inf and p == 0.0

    def test_too_few_pairs(self):
        with pytest.raises(DataError):
            paired_t_test([1.0], [2.0])

    @given(st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        x = rng.normal(0.0, 1.0, n)
        y = x + rng.normal(0.1, 0.5, n)
        t, p = paired_t_test(x, y)
        ref = sp_stats.ttest_rel(x, y)
        assert t == pytest.approx(float(ref.statistic), abs=1e-10)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-10)


class TestPredictionMatrices:
    def test_shapes_and_coverage(self, small_world, small_bank, small_test_ids):
        matrices = build_prediction_matrices(small_world.stations, small_bank, small_test_ids)
        assert [m.target_id for m in matrices] == small_test_ids
        for m in matrices:
            assert m.values.shape == (len(small_bank), m.timestamps.size)
            assert m.labels.shape == m.timestamps.shape
            # The synthetic world observes every minute everywhere, so no
            # prediction cell is missing.
            assert np.isfinite(m.values).all()

    def test_derives_only_what_each_role_reads(self, small_world, small_bank, small_test_ids,
                                               derivations):
        build_prediction_matrices(small_world.stations, small_bank, small_test_ids)
        assert dict(derivations) == (
            {("climate_matrix", sid): 1 for sid in small_bank.station_ids}
            | {("label_arrays", sid): 1 for sid in small_test_ids})

    def test_rows_match_direct_predictions(self, small_world, small_bank, small_test_ids):
        matrices = build_prediction_matrices(small_world.stations, small_bank, small_test_ids)
        pm = matrices[0]
        by_id = index_series(small_world.stations)
        target_attrs = by_id[pm.target_id].attributes
        sid = pm.source_ids[0]
        obs = climate_matrix(by_id[sid])
        keep = np.isin(obs.timestamps, pm.timestamps)
        expected = small_bank.predict_batch(sid, obs.climate[keep], target_attrs)
        np.testing.assert_allclose(pm.values[0], expected, atol=1e-12)

    @pytest.fixture
    def workers(self, monkeypatch):
        def force(n):
            monkeypatch.setattr(ensemble, "_worker_count", lambda: n)
        return force

    def test_pooled_equal_in_process_bit_for_bit(self, small_world, small_bank, small_test_ids,
                                                 workers):
        # A gapped world: the first source stops before the first target's
        # series begins, so that row of the target's block stays NaN, and the
        # second source has a hole in its day.
        first, second = small_bank.station_ids[:2]
        target = small_test_ids[0]
        cut = {first: np.r_[0:600], second: np.r_[0:200, 500:1440], target: np.r_[700:1440]}
        stations = [replace(s, timestamps=s.timestamps[cut[s.id]], raw=s.raw[cut[s.id]])
                    if s.id in cut else s for s in small_world.stations]
        runs = []
        for n in (1, 2):
            workers(n)
            runs.append(build_prediction_matrices(stations, small_bank, small_test_ids))
        in_process, pooled = runs
        assert len(pooled) == len(small_test_ids) >= 2
        for a, b in zip(in_process, pooled):
            assert (a.target_id, a.source_ids) == (b.target_id, b.source_ids)
            for name in ("values", "labels", "timestamps"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert np.isnan(pooled[0].values[0]).all()
        assert np.isfinite(pooled[0].values[1:]).all()
        for row in pooled[1].values[:2]:
            assert np.isnan(row).any() and np.isfinite(row).any()

    def test_worker_error_reaches_caller(self, small_world, small_bank, small_test_ids, workers,
                                         monkeypatch):
        def refuse(self, source_id, climate, target_attrs):
            raise DataError(f"no prediction from {source_id}")

        monkeypatch.setattr(ensemble.SubmodelBank, "predict_batch", refuse)
        raised = []
        for n in (1, 2):
            workers(n)
            with pytest.raises(DataError) as exc_info:
                build_prediction_matrices(small_world.stations, small_bank, small_test_ids)
            raised.append((type(exc_info.value), str(exc_info.value)))
        first = small_bank.station_ids[0]
        assert raised[0] == raised[1] == (DataError, f"no prediction from {first}")


@pytest.fixture(scope="module")
def matrices(small_world, small_bank, small_test_ids):
    return build_prediction_matrices(small_world.stations, small_bank, small_test_ids)


class TestAvailabilityGroups:
    @pytest.mark.parametrize("n_stations", [1, 7, 8, 9, 60])
    @pytest.mark.parametrize("p_available", [0.05, 0.5, 0.95])
    def test_matches_row_unique(self, n_stations, p_available):
        rng = np.random.default_rng(n_stations * 100 + int(p_available * 100))
        avail = rng.random((n_stations, 40)) < p_available
        avail[:, 3] = True
        avail[:, 7] = False
        patterns, inverse = _availability_groups(avail)
        ref_patterns, ref_inverse = np.unique(avail.T, axis=0, return_inverse=True)
        assert patterns.dtype == ref_patterns.dtype
        np.testing.assert_array_equal(patterns, ref_patterns)
        assert inverse.shape == ref_inverse.shape
        np.testing.assert_array_equal(inverse, ref_inverse)

    @pytest.mark.parametrize("fill", [True, False])
    def test_single_pattern(self, fill):
        avail = np.full((9, 5), fill)
        patterns, inverse = _availability_groups(avail)
        np.testing.assert_array_equal(patterns, avail[:, :1].T)
        np.testing.assert_array_equal(inverse, np.zeros(5, dtype=inverse.dtype))


class TestAblation:
    def test_single_station_average_equals_weighted(
        self, small_world, small_folds, small_bank, matrices
    ):
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank,
            counts=[1], methods=("average", "weighted_average"), matrices=matrices,
        ).results
        by_method = {r.method: r for r in results}
        assert by_method["average"].rmse == pytest.approx(
            by_method["weighted_average"].rmse, abs=1e-12
        )
        assert by_method["average"].tpr == by_method["weighted_average"].tpr

    def test_same_subset_across_methods(self, small_world, small_folds, small_bank, matrices):
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank,
            counts=[2, 4], methods=("average", "idw"), matrices=matrices,
        ).results
        counts = sorted(set(r.station_count for r in results))
        assert counts == [2, 4]
        for r in results:
            assert r.n_predictions > 0

    def test_full_count_average_matches_manual_mean(
        self, small_world, small_folds, small_bank, matrices
    ):
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank,
            counts=[len(small_bank)], methods=("average",), matrices=matrices,
        ).results
        pooled_pred = np.concatenate([m.values.mean(axis=0) for m in matrices])
        pooled_labels = np.concatenate([m.labels for m in matrices])
        manual = float(np.sqrt(np.mean((pooled_pred - pooled_labels) ** 2)))
        assert results[0].rmse == pytest.approx(manual, abs=1e-9)

    def test_table_methods_match_per_timestep_reference(
        self, small_world, small_folds, small_bank, matrices
    ):
        # Each timestep aggregated on its own: the attribute-weighted mean and
        # vote from weights_for_target, and IDW with inverse squared distances.
        bank = replace(small_bank, coefficients=FOLD_COEFFICIENT_PRESETS[0])
        results = run_station_ablation(
            small_world.stations, small_folds, 0, bank, counts=[len(bank)],
            methods=("weighted_average", "weighted_vote", "idw"), matrices=matrices,
        ).results
        by_id = index_series(small_world.stations)
        xy = {sid: np.array([a.location.lon, a.location.lat])
              for sid, a in bank.station_attrs.items()}
        wavg, vote, idw, labels = [], [], [], []
        for pm in matrices:
            target = by_id[pm.target_id].attributes
            weights = bank.weights_for_target(target)
            for t in range(pm.labels.size):
                snap = {sid: pm.values[i, t] for i, sid in enumerate(pm.source_ids)
                        if not np.isnan(pm.values[i, t])}
                if not snap:
                    continue
                total = sum(weights[sid] for sid in snap)
                wavg.append(sum(weights[sid] * v for sid, v in snap.items()) / total)
                vote.append(sum(weights[sid] * (1.0 if v < 0.0 else -1.0)
                                for sid, v in snap.items()) >= 0.0)
                q = np.array([target.location.lon, target.location.lat])
                w = np.array([np.hypot(*(xy[sid] - q)) ** -2.0 for sid in snap])
                idw.append(float(w @ list(snap.values()) / w.sum()))
                labels.append(pm.labels[t])
        by_method = {r.method: r for r in results}
        assert by_method["weighted_average"].rmse == pytest.approx(rmse(wavg, labels), abs=1e-9)
        assert by_method["idw"].rmse == pytest.approx(rmse(idw, labels), abs=1e-9)
        conf = event_confusion(np.array(vote), labels)
        assert (by_method["weighted_vote"].tpr, by_method["weighted_vote"].fdr) == (conf.tpr, conf.fdr)
        assert by_method["weighted_vote"].n_predictions == len(vote)

    def test_vote_reports_no_rmse(self, small_world, small_folds, small_bank, matrices):
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank,
            counts=[3], methods=("weighted_vote",), matrices=matrices,
        ).results
        assert results[0].rmse is None
        assert results[0].tpr is None or 0.0 <= results[0].tpr <= 1.0

    def test_interpolation_methods_run(self, small_world, small_folds, small_bank, matrices):
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank,
            counts=[len(small_bank)], methods=("idw", "ok"), matrices=matrices,
        ).results
        for r in results:
            assert np.isfinite(r.rmse)

    def test_ok_refit_matches_per_timestep_reference(
        self, small_world, small_folds, small_bank, matrices
    ):
        # Each timestep kriged on its own, with a variogram fitted point by
        # point. The first 30 timesteps per target, with a fifth of the cells
        # missing, keep the reference search affordable.
        rng = np.random.default_rng(4)
        short = []
        for pm in matrices:
            values = pm.values[:, :30].copy()
            values[rng.random(values.shape) < 0.2] = np.nan
            short.append(replace(pm, timestamps=pm.timestamps[:30], labels=pm.labels[:30],
                                 values=values))
        counts = [2, 3, len(small_bank)]
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank, counts=counts,
            methods=("ok",), ok_refit=True, matrices=short,
        ).results
        by_id = index_series(small_world.stations)
        xy = {sid: (a.location.lon, a.location.lat) for sid, a in small_bank.station_attrs.items()}
        fits = fallbacks = 0
        for row, k in zip(results, counts):
            draw = np.random.default_rng(np.random.SeedSequence((0, k)))
            subset = [short[0].source_ids[i]
                      for i in np.sort(draw.choice(len(small_bank), size=k, replace=False))]
            preds, labels = [], []
            for pm in short:
                target = by_id[pm.target_id].attributes.location
                for t in range(pm.labels.size):
                    rows = [i for i, sid in enumerate(pm.source_ids)
                            if sid in subset and not np.isnan(pm.values[i, t])]
                    if len(rows) < 2:
                        continue
                    coords = [xy[pm.source_ids[i]] for i in rows]
                    values = pm.values[rows, t]
                    try:
                        model = reference_fit_variogram(*empirical_semivariogram(coords, values))
                        fits += 1
                    except DataError:
                        # Zero nugget, the sample variance as sill, the
                        # largest pair distance as range.
                        c = np.array(coords)
                        i, j = np.triu_indices(len(rows), k=1)
                        d_max = float(np.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1]).max())
                        model = VariogramModel(0.0, float(values.var()),
                                               d_max if d_max > 0 else 1.0)
                        fallbacks += 1
                    preds.append(ordinary_kriging(coords, values, target, model)[0])
                    labels.append(pm.labels[t])
            conf = event_confusion(np.array(preds), labels)
            assert (row.method, row.station_count) == ("ok", k)
            assert (row.rmse, row.tpr, row.fdr, row.n_predictions) == (
                rmse(preds, labels), conf.tpr, conf.fdr, len(preds))
        assert fits > 0 and fallbacks > 0

    def test_ok_refit_keeps_coincident_sources_apart(self):
        # Two sources share a site. The refit path solves all four samples, as
        # the frozen path does, where ordinary_kriging averages the pair first;
        # the jitter on the diagonal gives the pair equal weights, so the
        # estimates agree to the solve's precision.
        xy = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals = np.array([[3.0, 2.0, 7.0], [5.0, 2.5, 7.5], [4.0, 1.0, 6.0], [4.5, 3.0, 9.0]])
        target = GeoPoint(0.4, 0.3)
        pred, valid = _ok_series(vals, xy, target, None)
        assert valid.all()
        for col, snapshot in enumerate(vals.T):
            want = ordinary_kriging(xy, snapshot, target, snapshot_variogram(xy, snapshot))[0]
            assert pred[col] == pytest.approx(want, abs=1e-6)

    def test_ok_frozen_matches_per_timestep_reference(
        self, small_world, small_folds, small_bank, matrices
    ):
        # One variogram fitted on the first fully available snapshot, then
        # each timestep kriged on its own with it. A fifth of the cells are
        # missing, so the subsets fall into several availability groups. The
        # ablation applies one weight vector per group as a matrix product,
        # which may differ from a per-column dot in the last bit.
        rng = np.random.default_rng(5)
        short = []
        for pm in matrices:
            values = pm.values[:, :200].copy()
            values[rng.random(values.shape) < 0.2] = np.nan
            short.append(replace(pm, timestamps=pm.timestamps[:200], labels=pm.labels[:200],
                                 values=values))
        counts = [2, 3, len(small_bank)]
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank, counts=counts,
            methods=("ok",), matrices=short,
        ).results
        by_id = index_series(small_world.stations)
        xy = np.array([(a.location.lon, a.location.lat)
                       for a in map(small_bank.station_attrs.get, short[0].source_ids)])
        snapshot = next(pm.values[:, t] for pm in short for t in range(pm.labels.size)
                        if not np.isnan(pm.values[:, t]).any())
        model = reference_fit_variogram(*empirical_semivariogram(xy, snapshot))
        for row, k in zip(results, counts):
            draw = np.random.default_rng(np.random.SeedSequence((0, k)))
            subset = np.sort(draw.choice(len(small_bank), size=k, replace=False))
            preds, labels = [], []
            for pm in short:
                target = by_id[pm.target_id].attributes.location
                for t in range(pm.labels.size):
                    rows = [i for i in subset if not np.isnan(pm.values[i, t])]
                    if len(rows) < 2:
                        continue
                    preds.append(ordinary_kriging(xy[rows], pm.values[rows, t], target, model)[0])
                    labels.append(pm.labels[t])
            conf = event_confusion(np.array(preds), labels)
            assert (row.method, row.station_count) == ("ok", k)
            assert (row.rmse, row.tpr, row.fdr) == pytest.approx(
                (rmse(preds, labels), conf.tpr, conf.fdr), abs=1e-9)
            assert row.n_predictions == len(preds)

    def test_ok_below_two_stations_reports_an_empty_row(
        self, small_world, small_folds, small_bank, matrices
    ):
        results = run_station_ablation(
            small_world.stations, small_folds, 0, small_bank,
            counts=[1, 2], methods=("ok", "idw"), matrices=matrices,
        ).results
        rows = {(r.method, r.station_count): r for r in results}
        empty = asdict(rows["ok", 1])
        assert {key: empty[key] for key in ("rmse", "tpr", "fdr", "n_predictions", "n_events")} == {
            "rmse": None, "tpr": None, "fdr": None, "n_predictions": 0, "n_events": 0}
        assert rows["ok", 2].n_predictions > 0 and np.isfinite(rows["ok", 2].rmse)
        assert rows["idw", 1].n_predictions > 0

    @pytest.mark.parametrize("method, k", [("ok", 2), ("average", 1), ("idw", 1)])
    def test_other_empty_results_raise(self, small_world, small_folds, small_bank, matrices,
                                       method, k):
        unobserved = [replace(pm, values=np.full_like(pm.values, np.nan)) for pm in matrices]
        with pytest.raises(DataError, match=f"method {method} produced no valid predictions"):
            run_station_ablation(
                small_world.stations, small_folds, 0, small_bank,
                counts=[k], methods=(method,), matrices=unobserved,
            )

    def test_count_bounds_checked(self, small_world, small_folds, small_bank, matrices):
        with pytest.raises(DomainError):
            run_station_ablation(
                small_world.stations, small_folds, 0, small_bank,
                counts=[0], methods=("average",), matrices=matrices,
            )
        with pytest.raises(DomainError):
            run_station_ablation(
                small_world.stations, small_folds, 0, small_bank,
                counts=[len(small_bank) + 1], methods=("average",), matrices=matrices,
            )

    def test_unknown_method_rejected(self, small_world, small_folds, small_bank):
        with pytest.raises(DomainError):
            run_station_ablation(
                small_world.stations, small_folds, 0, small_bank,
                counts=[1], methods=("bogus",),
            )

    @pytest.mark.parametrize("trigger", [math.nan, math.inf, -math.inf])
    def test_non_finite_trigger_rejected(self, small_world, small_folds, small_bank, matrices,
                                         trigger):
        # A NaN trigger once scored no events at all and +inf every minute as frost.
        with pytest.raises(DomainError, match="trigger must be a finite temperature"):
            run_station_ablation(
                small_world.stations, small_folds, 0, small_bank,
                counts=[1], methods=("average",), trigger=trigger, matrices=matrices,
            )

    def test_baseline_needs_models(self, small_world, small_folds, small_bank, matrices):
        with pytest.raises(DataError):
            run_station_ablation(
                small_world.stations, small_folds, 0, small_bank,
                counts=[1], methods=("baseline",), matrices=matrices,
            )

    def test_targets_among_training_stations_rejected(self, small_world, small_folds,
                                                       small_bank):
        # Fold 1's stations trained the fold-0 bank: scoring them there is leakage.
        assert small_folds.test_stations(1) <= set(small_bank.models)
        with pytest.raises(DataError, match="training stations of the bank"):
            run_station_ablation(small_world.stations, small_folds, 1, small_bank, counts=[1])

    def test_rows_report_the_banks_fold(self, small_world, small_folds, small_bank, matrices):
        # The targets come from the given fold; every row and the report carry the bank's.
        bank = replace(small_bank, fold=3)
        report = run_station_ablation(small_world.stations, small_folds, 0, bank, [1, 2],
                                      ("average", "idw"), matrices=matrices)
        assert report.fold == 3
        assert [r.fold for r in report.results] == [3] * 4


class TestBaselines:
    def test_train_and_evaluate(self, small_world, small_test_ids, small_bank):
        cfg = TrainConfig(seed=1, epochs=4, patience=2)
        models = train_baselines(small_world.stations, small_test_ids, cfg)
        assert set(models) == set(small_test_ids)
        frames = {s.id: station_frame(s, small_bank.horizon) for s in small_world.stations}
        pred, labels = evaluate_baselines(replace(small_bank, baselines=models), frames)
        assert pred.shape == labels.shape and pred.size > 0
        assert np.isfinite(pred).all()

    def test_missing_station_rejected(self, small_world):
        with pytest.raises(DataError):
            train_baselines(small_world.stations, ["nope"], TrainConfig(epochs=1))

    @pytest.fixture
    def workers(self, monkeypatch):
        def force(n):
            monkeypatch.setattr(ensemble, "_worker_count", lambda: n)
        return force

    def test_identical_at_one_and_two_workers(self, small_world, small_test_ids, workers):
        cfg = TrainConfig(seed=1, epochs=4, patience=2)
        trained = []
        for n in (1, 2):
            workers(n)
            models = train_baselines(small_world.stations, small_test_ids, cfg)
            trained.append({
                sid: (b"".join(p.tobytes() for p in net.weights + net.biases), scaler)
                for sid, (net, scaler) in models.items()
            })
        assert len(trained[0]) == len(small_test_ids) >= 2
        assert trained[0] == trained[1]

    def test_divergence_same_pooled_and_serial(self, small_world, small_test_ids, workers):
        cfg = TrainConfig(seed=1, epochs=4, learning_rate=1e100)
        raised = []
        for n in (1, 2):
            workers(n)
            with pytest.raises(DivergenceError) as exc_info:
                train_baselines(small_world.stations, small_test_ids, cfg)
            raised.append((exc_info.value.epoch, str(exc_info.value)))
        assert raised[0] == raised[1]


class TestFoldExperiment:
    def test_report_structure(self, small_world, small_folds, small_bank):
        report = run_fold_experiment(
            small_world.stations, small_folds, 0, small_bank,
            methods=("average", "weighted_vote"), seed=2,
        )
        doc = report.to_dict()
        assert doc["version"] == 1
        assert doc["counts"] == [len(small_bank)]
        assert {r["method"] for r in doc["results"]} == {"average", "weighted_vote"}
        for r in doc["results"]:
            assert set(r) >= {"method", "station_count", "rmse", "tpr", "fdr"}

    def test_without_counts_scores_the_full_bank(self, small_world, small_folds, small_bank,
                                                 matrices):
        # Counts are sorted and deduplicated once, into the report and its rows.
        args = (small_world.stations, small_folds, 0, small_bank)
        full = run_station_ablation(*args, methods=("average", "idw"), matrices=matrices)
        swept = run_station_ablation(*args, [len(small_bank), 1, len(small_bank)],
                                     ("average", "idw"), matrices=matrices)
        assert full.counts == [len(small_bank)] and swept.counts == [1, len(small_bank)]
        assert full.results == [r for r in swept.results if r.station_count == len(small_bank)]
        assert (full.fold, full.horizon) == (small_bank.fold, small_bank.horizon)
