"""Acceptance suite: one printed pass/fail line per shipped guarantee.

Each test states its tolerance inline and prints a single summary line so a
full run reads as a checklist. The trend check (criterion 07) trains five
seeded 60-station banks and is the only slow test here (a few minutes); every
other criterion is an exact small-instance oracle.
"""

import json
import time

import numpy as np

from frostcast import (
    AGGREGATORS,
    GeoPoint,
    StationAttributes,
    WorldSpec,
    attribute_weights,
    build_prediction_matrices,
    generate_world,
    make_folds,
    train_bank,
)
from frostcast.cli import main
from frostcast.core import index_series
from frostcast.ensemble import (
    FOLD_COEFFICIENT_PRESETS,
    DistanceNormalization,
    SubmodelBank,
    WeightCoefficients,
)
from frostcast.evaluate import event_confusion, paired_t_test, rmse, run_station_ablation
from frostcast.features import climate_matrix, pair_feature_arrays
from frostcast.geostats import (
    VariogramModel,
    empirical_semivariogram,
    fit_variogram,
    idw_weights,
    kriging_weights,
    ordinary_kriging,
)
from frostcast.neuralnet import (
    ONSITE_SPEC,
    SUBMODEL_SPEC,
    TrainConfig,
    gradients,
    init_network,
    mse_loss,
)
from frostcast.raster import generate_raster


def report(n, label, ok, detail=""):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {label}{detail}")
    assert ok, f"criterion {n:02d} failed: {label}{detail}"


# --- 01: analytic gradients vs central finite differences ---------------------


def _fd_gradients(net, x, y, eps=1e-5):
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]
    for arrs, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, grad in zip(arrs, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = mse_loss(net, x, y)
                flat[k] = orig - eps
                lo = mse_loss(net, x, y)
                flat[k] = orig
                gflat[k] = (hi - lo) / (2.0 * eps)
    return grads_w, grads_b


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_criterion_01_gradient_oracle():
    t0 = time.monotonic()
    worst = 0.0
    checks = 0
    # Seed/batch pairs sit away from ReLU kinks, where central differences
    # stop approximating the one-sided derivative.
    for spec, seeds, n_rows in ((SUBMODEL_SPEC, range(5), 4),
                                (ONSITE_SPEC, range(5, 10), 6)):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            net = init_network(spec, seed=seed)
            x = rng.normal(0.0, 1.0, (n_rows, spec.input_dim))
            y = rng.normal(0.0, 1.0, n_rows)
            gw, gb = gradients(net, x, y)
            fw, fb = _fd_gradients(net, x, y)
            worst = max(worst, _max_rel_err(gw, fw), _max_rel_err(gb, fb))
            checks += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and checks >= 10 and elapsed < 10.0
    report(1, "analytic gradients match central differences", ok,
           f" (max rel err {worst:.2e} over {checks} nets, {elapsed:.1f}s)")


# --- 02: attribute-weight worked value and sum-to-one property -----------------


def test_criterion_02_attribute_weight_oracle():
    coeff = FOLD_COEFFICIENT_PRESETS[0]
    w = float(attribute_weights(np.array([1.0, 1.0, 1.0]), coeff))
    worked_ok = abs(w - 4.8757) <= 1e-3

    # A bank whose stations sit at (lon g, lat 0, dem d, ndvi n) with unit
    # bounds sees exactly the normalized triple (g, d, n) from the origin.
    origin = StationAttributes(GeoPoint(0.0, 0.0), 0.0, 0.0)
    unit = (0.0, 1.0)
    rng = np.random.default_rng(12)
    worst_dev = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 25))
        triples = rng.uniform(0.0, 1.0, (n, 3))
        c = WeightCoefficients(*rng.uniform(0.01, 1.0, 3))
        station_attrs = {f"s{i:02d}": StationAttributes(GeoPoint(g, 0.0), d, nd)
                         for i, (g, d, nd) in enumerate(triples)}
        bank = SubmodelBank(fold=0, horizon=60, models=dict.fromkeys(station_attrs), scalers={},
                            station_attrs=station_attrs, coefficients=c,
                            normalization=DistanceNormalization(unit, unit, unit))
        weights = bank.weights_for_target(origin)
        worst_dev = max(worst_dev, abs(sum(weights.values()) - 1.0))
    ok = worked_ok and worst_dev <= 1e-9
    report(2, "attribute weights: worked value and unit sums", ok,
           f" (W={w:.4f}, worst sum dev {worst_dev:.1e})")


# --- 03: interpolator exactness plus a hand-solved kriging system --------------

THREE_XY = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
THREE_VALUES = np.array([2.0, 4.0, 8.0])
SATURATING = VariogramModel(nugget=0.0, sill=1.0, range_=1.0)


def test_criterion_03_interpolator_exactness():
    rng = np.random.default_rng(4)
    xy = np.column_stack([rng.uniform(0, 10, 8), rng.uniform(0, 10, 8)])
    values = rng.normal(0, 3, 8)
    sites = [GeoPoint(float(lon), float(lat)) for lon, lat in xy]
    model = fit_variogram(*empirical_semivariogram(xy, values))
    nugget_free = VariogramModel(0.0, max(model.sill, 1e-6), model.range_)

    # IDW as eval runs it: idw_weights through the AGGREGATORS table.
    block = values[:, None]
    idw_dev = 0.0
    for site, value in zip(sites, values):
        pred, valid = AGGREGATORS["idw"](block, np.ones(block.shape, dtype=bool),
                                         idw_weights(xy, site), 0.0)
        idw_dev = max(idw_dev, abs(pred[0] - value) if valid[0] else np.inf)
    ok_dev = max(abs(ordinary_kriging(xy, values, site, nugget_free)[0] - value)
                 for site, value in zip(sites, values))
    sum_dev = 0.0
    for _ in range(20):
        q = GeoPoint(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        sum_dev = max(sum_dev, abs(kriging_weights(xy, q, nugget_free).sum() - 1.0))

    est, var = ordinary_kriging(THREE_XY, THREE_VALUES, GeoPoint(0.5, 0.0), SATURATING)
    hand_ok = abs(est - 23.0 / 6.0) <= 1e-9 and abs(var - 407.0 / 384.0) <= 1e-9

    ok = idw_dev <= 1e-6 and ok_dev <= 1e-6 and sum_dev <= 1e-9 and hand_ok
    report(3, "interpolators exact at samples; hand kriging system", ok,
           f" (idw dev {idw_dev:.1e}, ok dev {ok_dev:.1e}, "
           f"sum dev {sum_dev:.1e}, est {est:.12f})")


# --- 04: variogram parameter recovery ------------------------------------------


def _spherical_field(n, nugget, sill, range_, seed, extent=10.0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, extent, (n, 2))
    h = np.hypot(xy[:, 0, None] - xy[None, :, 0], xy[:, 1, None] - xy[None, :, 1])
    psill = sill - nugget
    hr = np.minimum(h / range_, 1.0)
    cov = psill * (1.0 - (1.5 * hr - 0.5 * hr**3))
    np.fill_diagonal(cov, psill + nugget)
    chol = np.linalg.cholesky(cov + 1e-9 * np.eye(n))
    return xy, chol @ rng.standard_normal(n)


def test_criterion_04_variogram_recovery():
    t0 = time.monotonic()
    true_sill, true_range = 1.0, 2.0
    xy, values = _spherical_field(200, 0.0, true_sill, true_range, seed=9)
    fit = fit_variogram(*empirical_semivariogram(xy, values))
    elapsed = time.monotonic() - t0
    sill_err = abs(fit.sill - true_sill) / true_sill
    range_err = abs(fit.range_ - true_range) / true_range
    # True nugget is zero, so its recovery is judged against the sill.
    nugget_err = fit.nugget / true_sill
    ok = max(sill_err, range_err, nugget_err) <= 0.25 and elapsed < 30.0
    report(4, "variogram recovery within 25% on seeded field", ok,
           f" (nugget {fit.nugget:.4f}, sill {fit.sill:.4f}, "
           f"range {fit.range_:.4f}, {elapsed:.1f}s)")


# --- 05: paired t-test oracle ---------------------------------------------------


def test_criterion_05_t_test_oracle():
    t, p = paired_t_test([-1.0, 0.0, 1.0, 2.0, 3.0], [0.0] * 5)
    worked = abs(t - np.sqrt(2.0)) <= 1e-9 and abs(p - 0.23019964108049873) <= 1e-4
    identical = paired_t_test([1.0, 2.0], [1.0, 2.0]) == (0.0, 1.0)
    constant = paired_t_test([3.0, 3.0], [1.0, 1.0]) == (np.inf, 0.0)
    ok = worked and identical and constant
    report(5, "paired t-test worked example and degenerate rules", ok,
           f" (t={t:.10f}, p={p:.10f})")


# --- 06: confusion counts and RMSE oracles --------------------------------------


def test_criterion_06_metric_oracles():
    c = event_confusion([-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0], trigger=0.0)
    conf_ok = (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 0) and c.tpr == 0.5 and c.fdr == 0.5
    r = rmse([0.0, 0.0], [3.0, 4.0])
    rmse_ok = abs(r - np.sqrt(12.5)) <= 1e-12
    report(6, "confusion rates and rmse hand values", conf_ok and rmse_ok,
           f" (tpr={c.tpr}, fdr={c.fdr}, rmse={r:.12f})")


# --- 07: qualitative trends on a seeded synthetic region ------------------------

TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_COUNTS = (1, 10, 20, 30, 40, 50, 60)
TREND_METHODS = ("average", "weighted_average", "weighted_vote")


def _trend_rows(seed):
    # Climate scalars put frost in the marginal band: cold snaps are driven
    # by traveling waves that off-site models can only partly explain, so a
    # lone noisy predictor over-warns while larger ensembles warn less.
    spec = WorldSpec(seed=seed, n_stations=75, days=7, sample_interval=1,
                     noise_sd=0.5, mean_temp=7.5,
                     harmonic_amplitudes=(2.2, 1.5, 1.0))
    world = generate_world(spec)
    ids = sorted(s.id for s in world.stations)
    folds = make_folds(ids, seed=0, n_folds=5)
    cfg = TrainConfig(seed=seed, epochs=12, batch_size=512, patience=3)
    bank = train_bank(world.stations, folds, 0, cfg, entry_stride=16,
                      max_entries=24000, coefficients=FOLD_COEFFICIENT_PRESETS[0])
    targets = sorted(folds.test_stations(0))
    matrices = build_prediction_matrices(world.stations, bank, targets)
    results = run_station_ablation(world.stations, folds, 0, bank,
                                   counts=list(TREND_COUNTS), methods=TREND_METHODS,
                                   seed=seed, matrices=matrices).results
    return {(r.method, r.station_count): (r.rmse, r.tpr, r.fdr) for r in results}


def test_criterion_07_station_count_trends():
    t0 = time.monotonic()
    per_seed = [_trend_rows(seed) for seed in TREND_SEEDS]

    def med(method, k, i):
        return float(np.median([rows[(method, k)][i] for rows in per_seed]))

    more_weight_never_worse = all(
        med("weighted_average", k, 0) <= med("average", k, 0)
        for k in TREND_COUNTS if k >= 10
    )
    more_stations_lower_rmse = all(
        med(m, 60, 0) < med(m, 10, 0) for m in ("average", "weighted_average")
    )
    rates_shrink = all(
        med(m, 60, i) < med(m, 1, i)
        for m in ("average", "weighted_average") for i in (1, 2)
    )
    vote_most_sensitive = all(
        med("weighted_vote", k, 1) >= med("weighted_average", k, 1)
        for k in TREND_COUNTS
    )
    elapsed = time.monotonic() - t0
    ok = (more_weight_never_worse and more_stations_lower_rmse
          and rates_shrink and vote_most_sensitive and elapsed < 900.0)
    report(7, "median station-count trends over 5 seeds", ok,
           f" (wavg<=avg {more_weight_never_worse}, rmse 60<10 "
           f"{more_stations_lower_rmse}, rates 60<1 {rates_shrink}, "
           f"vote tpr>=wavg {vote_most_sensitive}, {elapsed:.0f}s)")


# --- 08: aggregation identities --------------------------------------------------


def test_criterion_08_aggregation_identities(small_world, small_folds, small_bank,
                                             small_test_ids):
    rng = np.random.default_rng(3)
    uniform_dev = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 12))
        preds = rng.normal(size=(n, 1))
        avail = np.ones(preds.shape, dtype=bool)
        uniform = np.full(n, 1.0 / n)
        weighted, _ = AGGREGATORS["weighted_average"](preds, avail, uniform)
        average, _ = AGGREGATORS["average"](preds, avail, None)
        uniform_dev = max(uniform_dev, abs(float(weighted[0]) - float(average[0])))

    matrices = build_prediction_matrices(small_world.stations, small_bank, small_test_ids)
    rows = run_station_ablation(small_world.stations, small_folds, 0, small_bank,
                                counts=[1], methods=("average", "weighted_average"),
                                matrices=matrices).results
    by_method = {r.method: r for r in rows}
    k1_identical = (
        by_method["average"].rmse == by_method["weighted_average"].rmse
        and by_method["average"].tpr == by_method["weighted_average"].tpr
        and by_method["average"].fdr == by_method["weighted_average"].fdr
    )

    by_id = index_series(small_world.stations)
    snapshot = {}
    for sid in sorted(small_bank.models):
        cm = climate_matrix(by_id[sid])
        snapshot[sid] = cm.climate[10]
    avg = generate_raster(small_bank, snapshot, small_world.dem, small_world.ndvi,
                          "average")
    singles = np.stack([
        generate_raster(small_bank, snapshot, small_world.dem, small_world.ndvi,
                        "single", source_id=sid).values
        for sid in sorted(small_bank.models)
    ])
    raster_dev = float(np.max(np.abs(avg.values[avg.mask]
                                     - singles.mean(axis=0)[avg.mask])))

    ok = uniform_dev <= 1e-12 and k1_identical and raster_dev <= 1e-9
    report(8, "uniform weights = average; k=1 parity; raster mean", ok,
           f" (uniform dev {uniform_dev:.1e}, k1 identical {k1_identical}, "
           f"raster dev {raster_dev:.1e})")


# --- 09: byte-identical deterministic pipeline -----------------------------------

PIPELINE_SPEC = {
    "seed": 33, "n_stations": 6, "lon_min": 146.0, "lon_max": 147.0,
    "lat_min": -34.0, "lat_max": -33.0, "cell_size": 0.25, "days": 1,
    "sample_interval": 5, "noise_sd": 0.3,
}


def _run_pipeline(base):
    base.mkdir()
    spec = base / "spec.json"
    spec.write_text(json.dumps(PIPELINE_SPEC))
    world, data = base / "world", base / "data.zip"
    folds, bank = base / "folds.json", base / "bank"
    report_path, raster_path = base / "report.json", base / "raster.asc"
    assert main(["synth", "--spec", str(spec), "--out", str(world)]) == 0
    assert main(["ingest", "--stations", str(world / "stations"),
                 "--dem", str(world / "dem.asc"), "--ndvi", str(world / "ndvi.asc"),
                 "--out", str(data)]) == 0
    assert main(["folds", "--data", str(data), "--seed", "1", "--n-folds", "3",
                 "--deterministic", "--out", str(folds)]) == 0
    assert main(["train", "--data", str(data), "--folds", str(folds), "--fold", "0",
                 "--seed", "2", "--epochs", "3", "--entry-stride", "10",
                 "--out", str(bank)]) == 0
    assert main(["eval", "--data", str(data), "--bank", str(bank),
                 "--deterministic", "--out", str(report_path)]) == 0
    assert main(["raster", "--data", str(data), "--bank", str(bank),
                 "--method", "wavg", "--timestamp", "60", "--deterministic",
                 "--out", str(raster_path)]) == 0
    return report_path.read_bytes(), raster_path.read_bytes()


def test_criterion_09_pipeline_determinism(tmp_path):
    report_a, raster_a = _run_pipeline(tmp_path / "a")
    report_b, raster_b = _run_pipeline(tmp_path / "b")
    ok = report_a == report_b and raster_a == raster_b
    report(9, "two seeded pipeline runs byte-identical", ok,
           f" (report {len(report_a)}B, raster {len(raster_a)}B)")


# --- 10: fold partition and training isolation -----------------------------------


def test_criterion_10_fold_isolation():
    spec = WorldSpec(seed=6, n_stations=75, days=1, sample_interval=30, noise_sd=0.2)
    world = generate_world(spec)
    ids = sorted(s.id for s in world.stations)
    folds = make_folds(ids, seed=0, n_folds=5)
    sizes_ok = [len(f) for f in folds.folds] == [15] * 5
    disjoint_ok = sum(len(f) for f in folds.folds) == len(set().union(*folds.folds)) == 75

    by_id = index_series(world.stations)
    id_of = {s.attributes.as_tuple(): s.id for s in world.stations}
    unambiguous = len(id_of) == len(ids)
    exact_split = True
    leaked = False
    inspected = 0
    for fold in (0, 3):
        test_ids = folds.test_stations(fold)
        # 360 minutes: twelve 30-minute samples ahead.
        bank = train_bank(world.stations, folds, fold,
                          TrainConfig(seed=1, epochs=1, batch_size=256), horizon=360)
        if set(bank.models) != folds.train_stations(fold):
            exact_split = False
        # Re-derive the pairing from what the bank actually trained on, and map
        # each row's source (columns 0-3) and target (4-7) attributes back to
        # station ids, so a leaked test station would surface here.
        sources = sorted(bank.models)
        for src in sources[:2]:
            for tgt in sources:
                if tgt == src:
                    continue
                x, _, _ = pair_feature_arrays(by_id[src], by_id[tgt], horizon=360)
                inspected += x.shape[0]
                row_ids = {id_of.get(tuple(r[cols])) for r in x
                           for cols in (slice(0, 4), slice(4, 8))}
                if None in row_ids or row_ids & test_ids:
                    leaked = True
    ok = sizes_ok and disjoint_ok and exact_split and unambiguous and not leaked and inspected > 0
    report(10, "five disjoint 15-station folds; no test-station entries", ok,
           f" (sizes ok {sizes_ok}, disjoint {disjoint_ok}, "
           f"split exact {exact_split}, ids from attributes {unambiguous}, leaked {leaked}, "
           f"rows inspected {inspected})")
