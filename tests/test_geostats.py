"""Interpolation oracles: IDW hand values, a fraction-exact kriging system,
variogram recovery from a simulated field.

The 3-point kriging oracle was solved by Gaussian elimination on exact
fractions. With points (0,0)=2, (2,0)=4, (0,2)=8, a spherical variogram
(nugget 0, sill 1, range 1) saturates every inter-point distance, so the
system matrix is all ones off the diagonal; query (0.5, 0) has
gamma = (11/16, 1, 1) and the solution is weights (13/24, 11/48, 11/48),
multiplier 11/48, estimate 23/6, variance 407/384.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostcast import (
    AGGREGATORS,
    DataError,
    DomainError,
    GeoPoint,
    NumericalError,
    ensemble,
    geostats,
)
from frostcast.geostats import (
    DEFAULT_BINS,
    VariogramModel,
    empirical_semivariogram,
    fit_variogram,
    idw_weights,
    kriging_weights,
    pooled_variogram,
)

THREE_XY = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
THREE_VALUES = np.array([2.0, 4.0, 8.0])
UNIT_SPHERICAL = VariogramModel(0.0, 1.0, 1.0)


def idw_estimate(coords, values, query):
    """The IDW estimate ``eval`` makes: ``idw_weights`` through ``AGGREGATORS``."""
    block = np.asarray(values, dtype=np.float64)[:, None]
    weights = idw_weights(np.asarray(coords, dtype=np.float64), query)
    pred, valid = AGGREGATORS["idw"](block, weights, 0.0)
    assert valid[0]
    return float(pred[0])


class TestIdw:
    def test_hand_example(self):
        # d = (1.5, 0.5); weights (1/2.25, 1/0.25); estimate 16/4.444... = 3.6
        est = idw_estimate([[0.0, 0.0], [2.0, 0.0]], [0.0, 4.0], GeoPoint(1.5, 0.0))
        assert est == pytest.approx(3.6, abs=1e-12)

    def test_exact_at_samples(self):
        xy, values = [[0.0, 0.0], [1.0, 1.0]], [5.0, -3.0]
        assert idw_estimate(xy, values, GeoPoint(0.0, 0.0)) == 5.0
        assert idw_estimate(xy, values, GeoPoint(1.0, 1.0)) == -3.0

    def test_bounded_by_extremes(self):
        v = idw_estimate([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 7.0], GeoPoint(0.4, 0.4))
        assert 1.0 <= v <= 7.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            idw_weights(np.empty((0, 2)), GeoPoint(0.0, 0.0))

    def test_distances_are_math_hypot(self):
        # One math.hypot per sample, so eval's IDW figures keep their bits.
        # At these three sites np.hypot's last bit differs (numpy 2.4).
        xy = np.array([[146.4180541658839, -33.08518994341424],
                       [146.28531283347155, -33.5796486284887],
                       [146.35379201272224, -33.45813840415546]])
        q = GeoPoint(146.5123, -33.4)
        d = np.array([math.hypot(lon - q.lon, lat - q.lat) for lon, lat in xy.tolist()])
        assert idw_weights(xy, q).tobytes() == (d ** -2.0).tobytes()

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_translation_equivariance(self, qx, qy):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        values = [1.0, 4.0, -2.0]
        a = idw_estimate(xy, values, GeoPoint(qx, qy))
        b = idw_estimate(xy + [3.0, -2.0], values, GeoPoint(qx + 3.0, qy - 2.0))
        assert a == pytest.approx(b, abs=1e-9)


class TestVariogramModel:
    def test_zero_at_origin(self):
        m = VariogramModel(0.3, 1.0, 2.0)
        assert float(m(0.0)) == 0.0

    def test_spherical_saturates_at_range(self):
        m = VariogramModel(0.0, 2.0, 3.0)
        assert float(m(3.0)) == pytest.approx(2.0, abs=1e-12)
        assert float(m(30.0)) == pytest.approx(2.0, abs=1e-12)

    def test_spherical_hand_value(self):
        # 1.5*(0.5) - 0.5*(0.5)^3 = 0.75 - 0.0625 = 11/16
        assert float(UNIT_SPHERICAL(0.5)) == pytest.approx(11.0 / 16.0, abs=1e-15)

    def test_nugget_ordering_enforced(self):
        with pytest.raises(DomainError):
            VariogramModel(1.0, 0.5, 1.0)

    @pytest.mark.parametrize("params", [
        (np.nan, 1.0, 1.0), (0.0, np.nan, 1.0), (0.0, 1.0, np.nan),
        (0.0, np.inf, 1.0), (0.0, 1.0, np.inf), (np.inf, np.inf, 1.0),
    ])
    def test_non_finite_parameters_rejected(self, params):
        with pytest.raises(DomainError):
            VariogramModel(*params)


class TestEmpiricalSemivariogram:
    def test_two_point_oracle(self):
        # One pair at distance 1 with values 0 and 2: gamma = 0.5*(2)^2/1 = 2.
        lags, gammas, counts = empirical_semivariogram([[0, 0], [1, 0]], [0.0, 2.0])
        assert lags.tolist() == pytest.approx([1.0])
        assert gammas.tolist() == pytest.approx([2.0])
        assert counts.tolist() == [1]

    def test_counts_cover_all_pairs(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 1, (12, 3))
        lags, gammas, counts = empirical_semivariogram(pts[:, :2], pts[:, 2])
        assert lags.shape == gammas.shape == counts.shape
        assert counts.size <= DEFAULT_BINS and (counts > 0).all()
        assert int(counts.sum()) == 12 * 11 // 2

    def test_bins_are_per_bin_means(self):
        # Equal-width bins over (0, max distance], the last one closed; a
        # bin's lag and semivariance are 1-D means of its pairs.
        rng = np.random.default_rng(4)
        xy, values = rng.uniform(0, 5, (30, 2)), rng.normal(0, 1, 30)
        i, j = np.triu_indices(30, k=1)
        d = np.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1])
        gamma = 0.5 * (values[i] - values[j]) ** 2
        idx = np.minimum((d / (d.max() / DEFAULT_BINS)).astype(np.int64), DEFAULT_BINS - 1)
        full = [b for b in range(DEFAULT_BINS) if (idx == b).any()]
        lags, gammas, counts = empirical_semivariogram(xy, values)
        assert lags.tobytes() == np.array([d[idx == b].mean() for b in full]).tobytes()
        assert gammas.tobytes() == np.array([gamma[idx == b].mean() for b in full]).tobytes()
        assert counts.tolist() == [int((idx == b).sum()) for b in full]

    def test_colocated_points(self):
        lags, gammas, counts = empirical_semivariogram([[0, 0], [0, 0]], [1.0, 3.0])
        assert (lags.tolist(), gammas.tolist(), counts.tolist()) == ([0.0], [2.0], [1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DataError, match="sample value must be finite"):
            empirical_semivariogram(THREE_XY, [2.0, bad, 8.0])

    def test_coords_values_mismatch_rejected(self):
        # A value without a location, as a prediction from an unplaced station.
        with pytest.raises(DataError):
            empirical_semivariogram(THREE_XY, [2.0, 4.0, 8.0, 1.0])


def reference_ordinary_kriging(coords, values, query, model):
    """Ordinary-kriging estimate and variance at ``query``, solved on its own.

    Samples sharing a site are averaged first, in first-seen order. The
    bordered system (the model between sites, a row and column of ones for
    the unit-sum multiplier) goes to ``np.linalg.solve`` with no jitter.
    """
    sites = {}
    for site, value in zip(map(tuple, np.asarray(coords, dtype=np.float64).tolist()),
                           np.asarray(values, dtype=np.float64).tolist()):
        sites.setdefault(site, []).append(value)
    xy = np.array(list(sites))
    z = np.array([np.mean(v) for v in sites.values()])
    n = len(xy)
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = model(np.hypot(xy[:, 0, None] - xy[None, :, 0], xy[:, 1, None] - xy[None, :, 1]))
    a[n, n] = 0.0
    b = np.append(model(np.hypot(xy[:, 0] - query.lon, xy[:, 1] - query.lat)), 1.0)
    sol = np.linalg.solve(a, b)
    return float(sol[:n] @ z), float(sol @ b)


def estimation_variance(coords, query, model, w):
    """Variance of the error of the unit-sum weights ``w``: 2 w.g0 - w'Gw."""
    coords = np.asarray(coords, dtype=np.float64)
    g0 = model(np.hypot(coords[:, 0] - query.lon, coords[:, 1] - query.lat))
    g = model(np.hypot(coords[:, 0, None] - coords[None, :, 0],
                       coords[:, 1, None] - coords[None, :, 1]))
    return float(2.0 * w @ g0 - w @ g @ w)


class TestOrdinaryKriging:
    """`kriging_weights`, the one kriging solve, against hand values and the reference."""

    def test_hand_solved_system(self):
        q = GeoPoint(0.5, 0.0)
        est, var = reference_ordinary_kriging(THREE_XY, THREE_VALUES, q, UNIT_SPHERICAL)
        assert est == pytest.approx(23.0 / 6.0, abs=1e-9)
        assert var == pytest.approx(407.0 / 384.0, abs=1e-9)
        w = kriging_weights(THREE_XY, q, UNIT_SPHERICAL)
        assert float(w @ THREE_VALUES) == pytest.approx(23.0 / 6.0, abs=1e-9)
        assert estimation_variance(THREE_XY, q, UNIT_SPHERICAL, w) == pytest.approx(
            407.0 / 384.0, abs=1e-9)

    def test_hand_solved_weights(self):
        w = kriging_weights(THREE_XY, GeoPoint(0.5, 0.0), UNIT_SPHERICAL)
        np.testing.assert_allclose(w, [13.0 / 24.0, 11.0 / 48.0, 11.0 / 48.0], atol=1e-9)

    def test_exact_at_samples_nugget_free(self):
        model = VariogramModel(0.0, 2.0, 1.5)
        for s, (lon, lat) in enumerate(THREE_XY):
            w = kriging_weights(THREE_XY, GeoPoint(lon, lat), model)
            np.testing.assert_allclose(w, np.eye(3)[s], atol=1e-6)
            assert float(w @ THREE_VALUES) == pytest.approx(THREE_VALUES[s], abs=1e-6)

    @given(st.floats(-1.0, 3.0), st.floats(-1.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_to_one(self, qx, qy):
        w = kriging_weights(THREE_XY, GeoPoint(qx, qy), UNIT_SPHERICAL)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_locations_averaged(self):
        xy = np.vstack([THREE_XY, [[0.0, 0.0]]])  # duplicates (0,0): mean 3
        w = kriging_weights(xy, GeoPoint(0.0, 0.0), UNIT_SPHERICAL)
        assert float(w @ np.append(THREE_VALUES, 4.0)) == pytest.approx(3.0, abs=1e-6)

    def test_variance_non_negative(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 1, (10, 3))
        model = VariogramModel(0.1, 1.0, 1.0)
        for _ in range(20):
            q = GeoPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            var = estimation_variance(pts[:, :2], q, model, kriging_weights(pts[:, :2], q, model))
            assert var >= 0.0
            assert var == pytest.approx(
                reference_ordinary_kriging(pts[:, :2], pts[:, 2], q, model)[1], abs=1e-9)

    @pytest.mark.parametrize("nugget", [0.0, 0.2])
    def test_merged_weights_match_reference(self, nugget):
        # Six samples, three of them at one site, in random order.
        rng, model = np.random.default_rng(9), VariogramModel(nugget, 1.5, 1.2)
        for case in range(100):
            xy = rng.uniform(0.0, 2.0, (4, 2))[[0, 0, 0, 1, 2, 3]][rng.permutation(6)]
            values, q = rng.normal(0.0, 2.0, 6), GeoPoint(*rng.uniform(0.0, 2.0, 2))
            want = reference_ordinary_kriging(xy, values, q, model)[0]
            assert float(kriging_weights(xy, q, model) @ values) == pytest.approx(
                want, abs=1e-9), case

    def test_dedup_keeps_first_seen_order(self):
        # Sites (1,0), (0,0), (2,2) in first-seen order: the same system, bit for
        # bit, as the three distinct rows alone, and the means 3, 3, 7 are kriged.
        xy = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
        q, model = GeoPoint(0.6, 0.9), VariogramModel(0.1, 1.0, 2.5)
        sites = kriging_weights(xy[[0, 1, 4]], q, model)
        w = kriging_weights(xy, q, model)
        assert w.tobytes() == (sites[[0, 1, 0, 1, 2]] / [2, 2, 2, 2, 1]).tobytes()
        np.testing.assert_allclose([w[[0, 2]].sum(), w[[1, 3]].sum()], sites[:2], rtol=1e-12)
        assert float(w @ [1.0, 2.0, 5.0, 4.0, 7.0]) == pytest.approx(
            float(sites @ [3.0, 3.0, 7.0]), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_site_splits_evenly(self, k):
        w = kriging_weights(np.tile([[146.2, -33.1]], (k, 1)), GeoPoint(146.0, -33.0),
                            VariogramModel(0.1, 1.0, 0.5))
        np.testing.assert_allclose(w, np.full(k, 1.0 / k), rtol=1e-12)

    def test_singular_system_raises(self):
        # Two sites past the range with the jitter as sill: two equal rows.
        model = VariogramModel(0.0, geostats.KRIGING_JITTER, 1.0)
        with pytest.raises(NumericalError, match="singular kriging system"):
            kriging_weights([[0.0, 0.0], [5.0, 0.0]], GeoPoint(1.0, 1.0), model)

    def test_non_finite_solution_raises(self):
        # Semivariances near the largest double overflow in the elimination.
        xy = np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 3.0], [2.0, 3.0]])
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite weights"):
            kriging_weights(xy, GeoPoint(3.0, 0.0), VariogramModel(0.0, 1e308, 4.0))


def simulate_spherical_field(n, nugget, sill, range_, seed, extent=10.0):
    """Draw one realization of a Gaussian field with the given variogram.

    The covariance of the smooth part is psill * (1 - spherical(h)); the
    nugget enters as iid noise on the diagonal. Built directly from the
    textbook formulas so it shares nothing with the fitted code path.
    Returns (n, 2) coordinates and (n,) values.
    """
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, extent, (n, 2))
    d = np.hypot(coords[:, 0, None] - coords[None, :, 0], coords[:, 1, None] - coords[None, :, 1])
    psill = sill - nugget
    hr = np.minimum(d / range_, 1.0)
    cov = psill * (1.0 - (1.5 * hr - 0.5 * hr**3))
    cov[np.arange(n), np.arange(n)] = psill + nugget
    chol = np.linalg.cholesky(cov + 1e-9 * np.eye(n))
    values = chol @ rng.standard_normal(n)
    return coords, values


class TestVariogramFit:
    def test_recovers_known_spherical_model(self):
        # One seeded realization of a nugget-free spherical field
        # (sill 1, range 2). With a zero true nugget the nugget tolerance
        # is read against the sill. Recovery from a single realization is
        # subject to ergodic fluctuation, so the seed pins a typical draw.
        coords, values = simulate_spherical_field(200, nugget=0.0, sill=1.0, range_=2.0, seed=9)
        model = fit_variogram(*empirical_semivariogram(coords, values))
        assert model.nugget <= 0.25 * 1.0
        assert abs(model.sill - 1.0) / 1.0 <= 0.25
        assert abs(model.range_ - 2.0) / 2.0 <= 0.25

    def test_optimizer_precision_on_exact_curve(self):
        # Bins lying exactly on a spherical curve isolate the optimizer
        # from sampling noise; it should land almost on the generator.
        true_n, true_s, true_r = 0.4, 2.0, 3.0
        model = VariogramModel(true_n, true_s, true_r)
        lags = np.linspace(0.3, 9.0, 15)
        fit = fit_variogram(lags, model(lags), np.full(15, 100))
        assert abs(fit.nugget - true_n) / true_n <= 0.02
        assert abs(fit.sill - true_s) / true_s <= 0.02
        assert abs(fit.range_ - true_r) / true_r <= 0.02

    def test_fit_is_deterministic(self):
        bins = empirical_semivariogram(*simulate_spherical_field(80, 0.2, 1.0, 3.0, seed=1))
        a = fit_variogram(*bins)
        b = fit_variogram(*bins)
        assert (a.nugget, a.sill, a.range_) == (b.nugget, b.sill, b.range_)

    def test_constant_field_degenerates(self):
        model = fit_variogram([0.5, 1.0, 1.5], [0.0, 0.0, 0.0], [5, 5, 5])
        assert model.nugget == 0.0 and model.sill == 0.0

    def test_too_few_bins_rejected(self):
        with pytest.raises(DataError):
            fit_variogram([0.5, 1.0], [1.0, 2.0], [3, 3])
        # Empty bins do not count towards the three.
        with pytest.raises(DataError, match="got 2"):
            fit_variogram([0.5, 1.0, 1.5], [1.0, 2.0, 2.5], [3, 0, 3])

    def test_unequal_bin_arrays_rejected(self):
        with pytest.raises(DataError, match="equal-length 1-D bins"):
            fit_variogram([0.5, 1.0, 1.5], [1.0, 2.0], [3, 3, 3])

    @pytest.mark.parametrize("field, special", [
        ("semivariance", np.nan), ("semivariance", np.inf), ("lag", np.nan), ("lag", np.inf),
    ])
    def test_non_finite_bin_rejected(self, field, special):
        # A NaN semivariance once came back as a model with sill nan.
        bins = np.array([0.5, 1.0, 1.5]), np.array([1.0, 1.5, 2.0]), np.array([3, 3, 3])
        bins[1 if field == "semivariance" else 0][1] = special
        with pytest.raises(DataError, match="finite"):
            fit_variogram(*bins)
        assert fit_outcome(reference_fit_variogram, bins) == fit_outcome(fit_variogram, bins)


def reference_fit_variogram(lags, gammas, counts):
    """The point-by-point grid search that `fit_variogram` must reproduce exactly.

    Costs one (nugget, psill, range) point at a time, nugget outermost and
    range innermost, and keeps the first point that beats the incumbent.
    """
    keep = [k for k, c in enumerate(counts) if c > 0]
    if len(keep) < 3:
        raise DataError(f"variogram fit needs >= 3 non-empty bins, got {len(keep)}")
    lags = np.array([float(lags[k]) for k in keep])
    gammas = np.array([float(gammas[k]) for k in keep])
    counts = np.array([counts[k] for k in keep], dtype=np.float64)
    if not (np.isfinite(lags).all() and np.isfinite(gammas).all()):
        raise DataError("variogram bins must have finite lags and semivariances")
    g_max = float(gammas.max())
    l_max = float(lags.max())
    if l_max <= 0:
        raise DataError("variogram fit needs positive lags")
    if g_max == 0.0:
        return VariogramModel(0.0, 0.0, l_max)

    def cost(nugget, psill, rng):
        hr = np.minimum(lags / rng, 1.0)
        pred = nugget + psill * (1.5 * hr - 0.5 * hr * hr * hr)
        resid = pred - gammas
        return float(np.sum(counts * resid * resid))

    best = (0.0, g_max, l_max)
    best_cost = cost(*best)
    for nugget in np.linspace(0.0, g_max, 6):
        for psill in np.linspace(0.0, 1.5 * g_max, 8):
            for rng in np.linspace(l_max / 20.0, 1.5 * l_max, 12):
                c = cost(nugget, psill, rng)
                if c < best_cost:
                    best, best_cost = (float(nugget), float(psill), float(rng)), c
    spans = (g_max / 5.0, 1.5 * g_max / 7.0, 1.45 * l_max / 11.0)
    for _ in range(4):
        n0, p0, r0 = best
        for nugget in np.clip(np.linspace(n0 - spans[0], n0 + spans[0], 7), 0.0, None):
            for psill in np.clip(np.linspace(p0 - spans[1], p0 + spans[1], 7), 0.0, None):
                for rng in np.clip(np.linspace(r0 - spans[2], r0 + spans[2], 7), l_max * 1e-3, None):
                    c = cost(nugget, psill, rng)
                    if c < best_cost:
                        best, best_cost = (float(nugget), float(psill), float(rng)), c
        spans = tuple(s * 0.35 for s in spans)
    nugget, psill, rng = best
    return VariogramModel(nugget, nugget + psill, rng)


def fit_outcome(fit, bins):
    """The model's parameter bits, or the type and message of the error."""
    try:
        with np.errstate(all="ignore"):
            m = fit(*bins)
    except (DataError, DomainError) as exc:
        return type(exc), str(exc)
    return np.array([m.nugget, m.sill, m.range_]).tobytes()


def random_bins(rng, size):
    """Random ``(lags, semivariances, counts)`` arrays of ``size`` bins."""
    lags = np.sort(rng.uniform(0.0, 10.0 ** rng.uniform(-2, 2), size))
    gammas = rng.gamma(2.0, 10.0 ** rng.uniform(-3, 3), size)
    if rng.random() < 0.5:
        gammas = np.sort(gammas)  # a rising curve, closer to a real field's
    counts = rng.integers(1, 200, size)
    return lags, gammas, counts


class TestVariogramFitReference:
    """`fit_variogram` against the point-by-point search, exactly."""

    def test_random_bins(self):
        # Each case also runs with about a fifth of its bins emptied.
        rng, drop = np.random.default_rng(23), np.random.default_rng(24)
        for case in range(60):
            bins = random_bins(rng, int(rng.integers(3, 16)))
            emptied = bins[0], bins[1], np.where(drop.random(bins[2].size) < 0.2, 0, bins[2])
            for b in (bins, emptied):
                assert fit_outcome(fit_variogram, b) == fit_outcome(
                    reference_fit_variogram, b), case

    def test_constant_fields(self):
        for value in (0.0, 2.5):
            bins = [0.5, 1.0, 1.5, 2.0], [value] * 4, [4] * 4
            want = fit_outcome(reference_fit_variogram, bins)
            assert fit_outcome(fit_variogram, bins) == want

    def test_ties_keep_the_first_point(self):
        # A pure-nugget field: every range ties at psill 0 and zero cost, so
        # the shortest coarse range must win, as it does point by point.
        bins = [1.0, 2.0, 4.0, 8.0], [3.0] * 4, [7] * 4
        fit = fit_variogram(*bins)
        assert (fit.nugget, fit.sill, fit.range_) == (3.0, 3.0, 8.0 / 20.0)
        assert fit_outcome(fit_variogram, bins) == fit_outcome(reference_fit_variogram, bins)

    @pytest.mark.parametrize("field, special", [
        ("semivariance", np.inf), ("semivariance", np.nan), ("semivariance", 1e308),
        ("semivariance", 1.7e308), ("lag", 0.0), ("lag", np.inf), ("lag", 1.7e308),
    ])
    def test_non_finite_costs(self, field, special):
        # One bin with an infinite or NaN semivariance or lag is rejected
        # before the search; a huge one turns some or all costs into NaN or
        # inf. At 1.7e308, 1.5 times the largest value overflows and the
        # coarse axis reads [nan, inf, ...]: NaN costs come first, finite
        # ones after them.
        rng = np.random.default_rng(31)
        for case in range(10):
            bins = random_bins(rng, int(rng.integers(3, 10)))
            bins[0 if field == "lag" else 1][int(rng.integers(bins[0].size))] = special
            assert fit_outcome(fit_variogram, bins) == fit_outcome(
                reference_fit_variogram, bins), case


def reference_pair_sums(blocks, k):
    """Per-pair sums of half squared differences and their counts, one minute at a time."""
    sums, counts = np.zeros((k, k)), np.zeros((k, k), dtype=np.int64)
    for block in blocks:
        for t in range(block.shape[1]):
            for i in range(k):
                for j in range(i + 1, k):
                    a, b = block[i, t], block[j, t]
                    if not (np.isnan(a) or np.isnan(b)):
                        sums[i, j] += 0.5 * (a - b) ** 2
                        counts[i, j] += 1
    return sums, counts


def reference_pooled_bins(coords, blocks):
    """Pooled ``(lags, semivariances, counts)``: every co-observed pair-minute is one pair.

    Equal-width bins over (0, largest co-observed pair distance], the last
    one closed; a bin's lag and semivariance are means over its pair-minutes.
    """
    coords = np.asarray(coords, dtype=np.float64)
    sums, counts = reference_pair_sums(blocks, len(coords))
    pairs = list(zip(*np.nonzero(counts)))
    d = {p: float(np.hypot(*(coords[p[0]] - coords[p[1]]))) for p in pairs}
    width = max(d.values()) / DEFAULT_BINS
    lag, gamma, n = np.zeros(DEFAULT_BINS), np.zeros(DEFAULT_BINS), np.zeros(DEFAULT_BINS, int)
    for p in pairs:
        b = min(int(d[p] / width), DEFAULT_BINS - 1) if width else 0
        lag[b] += counts[p] * d[p]
        gamma[b] += sums[p]
        n[b] += counts[p]
    full = n > 0
    return lag[full] / n[full], gamma[full] / n[full], n[full]


def gappy_blocks(rng, coords, n_cols, n_blocks, p_missing):
    """``(k, n_cols)`` blocks of a field rising to the east plus noise, ``p_missing`` NaN.

    Source 0 holds values only in the first half of every block and source 1
    only in the second, so that pair is never co-observed; column 3 is empty.
    """
    blocks = []
    for _ in range(n_blocks):
        block = 5.0 + 2.0 * coords[:, :1] + rng.normal(0.0, 1.0, (len(coords), n_cols))
        block[rng.random(block.shape) < p_missing] = np.nan
        block[0, n_cols // 2:] = np.nan
        block[1, :n_cols // 2] = np.nan
        block[:, 3] = np.nan
        blocks.append(block)
    return blocks


def pooled_with_pairs(monkeypatch, coords, blocks):
    """``pooled_variogram``'s model and the ``(i, j, counts, sums)`` of the pairs it bins."""
    binned, bins = [], geostats._bins

    def spy(coords, i, j, counts, sums):
        binned.append((i, j, counts, sums))
        return bins(coords, i, j, counts, sums)

    with monkeypatch.context() as patch:
        patch.setattr(geostats, "_bins", spy)
        model = pooled_variogram(coords, blocks)
    [pairs] = binned
    return model, pairs


class TestPooledVariogram:
    """`pooled_variogram` against a per-pair loop over the minutes."""

    def test_pair_sums_match_per_pair_loop(self, monkeypatch):
        rng = np.random.default_rng(41)
        coords = rng.uniform(0.0, 3.0, (9, 2))
        blocks = gappy_blocks(rng, coords, 120, 3, 0.7)
        _, (i, j, counts, sums) = pooled_with_pairs(monkeypatch, coords, blocks)
        want_sums, want_counts = reference_pair_sums(blocks, 9)
        want_i, want_j = np.nonzero(want_counts)
        assert (i.tolist(), j.tolist()) == (want_i.tolist(), want_j.tolist())
        assert (0, 1) not in zip(i.tolist(), j.tolist()) and i.size == 9 * 8 // 2 - 1
        assert counts.tolist() == want_counts[i, j].tolist()
        np.testing.assert_allclose(sums, want_sums[i, j], rtol=1e-12, atol=0.0)

    def test_model_is_the_reference_fit_of_the_pooled_bins(self):
        rng = np.random.default_rng(42)
        coords = rng.uniform(0.0, 3.0, (9, 2))
        blocks = gappy_blocks(rng, coords, 120, 3, 0.7)
        bins = reference_pooled_bins(coords, blocks)
        assert bins[0].size >= 3
        got, want = pooled_variogram(coords, blocks), reference_fit_variogram(*bins)
        assert (got.nugget, got.sill, got.range_) == pytest.approx(
            (want.nugget, want.sill, want.range_), rel=1e-9, abs=1e-12)

    def test_under_three_bins_falls_back(self):
        # Pair distances 1, 1 and 2 fill two bins: a zero nugget, the pooled
        # mean semivariance as sill and the largest pair distance as range.
        rng = np.random.default_rng(43)
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        blocks = [rng.normal(0.0, 1.0, (3, 40)) for _ in range(2)]
        blocks[0][rng.random((3, 40)) < 0.5] = np.nan
        sums, counts = reference_pair_sums(blocks, 3)
        assert len(reference_pooled_bins(coords, blocks)[0]) == 2
        model = pooled_variogram(coords, blocks)
        assert (model.nugget, model.range_) == (0.0, 2.0)
        assert model.sill == pytest.approx(sums.sum() / counts.sum(), rel=1e-12)

    def test_no_co_observed_pair_gives_no_model(self):
        block = np.full((3, 10), np.nan)
        block[0, :5], block[1, 5:] = 1.0, 2.0
        assert pooled_variogram(THREE_XY, [block, np.full((3, 4), np.nan)]) is None

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_value_rejected(self, bad):
        block = np.array([[1.0, 2.0], [3.0, bad], [np.nan, 5.0]])
        with pytest.raises(DataError, match=f"sample value must be finite: {bad!r}"):
            pooled_variogram(THREE_XY, [block])

    def test_same_bits_at_one_and_two_blas_threads(self, monkeypatch):
        # Threaded matrix products sum in an order set by the thread count; a
        # trend-sized block (60 sources by 1,380 minutes) shows it.
        controls = ensemble._blas_thread_controls()
        if controls is None:
            pytest.skip("numpy's OpenBLAS thread controls were not found")
        get_threads, set_threads = controls
        rng = np.random.default_rng(44)
        coords = rng.uniform(0.0, 3.0, (60, 2))
        blocks = gappy_blocks(rng, coords, 1380, 3, 0.1)
        before, runs = get_threads(), []
        try:
            for threads in (2, 1):
                set_threads(threads)
                model, (_, _, counts, sums) = pooled_with_pairs(monkeypatch, coords, blocks)
                runs.append((sums.tobytes(), counts.tobytes(), model))
        finally:
            set_threads(before)
        assert runs[0] == runs[1]
