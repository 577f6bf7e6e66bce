"""Classical spatial interpolation: inverse-square IDW and ordinary kriging.

Every routine takes sample locations as a ``(k, 2)`` array of (lon, lat)
rows and, where it needs them, sample values as a ``(k,)`` array; the
query is a ``GeoPoint``. Both interpolators return weights, which ``eval``
applies to whole blocks of values: :func:`idw_weights`, and
:func:`kriging_weights`, the one kriging solve, which merges samples that
share a site. Distances are plain Euclidean in degree space; at
the regional scale used here the anisotropy that introduces is small
against station spacing, and it keeps every routine translation-equivariant.
IDW measures with ``core.geo_distances``, the stations' one distance routine;
kriging and the variogram bins take ``np.hypot`` over whole pair arrays.
The one variogram model, spherical, is fit to DEFAULT_BINS lag bins by
pair-count-weighted least squares: a coarse grid search, then shrinking
local refinement, so fits are deterministic. ``eval`` fits it once, with
:func:`pooled_variogram` over the co-observed pair-minutes of its predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GeoPoint, geo_distances
from .ensemble import _one_blas_thread
from .errors import DataError, DomainError, NumericalError

#: Queries closer than this to a sample collapse to that sample's value.
EXACT_DISTANCE = 1e-9

#: Diagonal regularization applied to the kriging system.
KRIGING_JITTER = 1e-10

DEFAULT_BINS = 15


def idw_weights(coords, query: GeoPoint) -> np.ndarray:
    """Unnormalised inverse-squared-distance weights of ``(k, 2)`` sample ``coords``.

    A query within EXACT_DISTANCE of a sample gives every such sample
    weight 1 and the rest 0, so the weighted mean is exact there.
    Distances come from ``core.geo_distances``, as the attribute weights' do.
    """
    if len(coords) == 0:
        raise DataError("idw needs at least one sample")
    d = geo_distances(coords, query)
    exact = d < EXACT_DISTANCE
    if exact.any():
        return exact.astype(np.float64)
    return d ** -2.0


def _bins(coords: np.ndarray, i: np.ndarray, j: np.ndarray, counts: np.ndarray,
          sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lags, semivariances, counts)`` of pairs ``(i, j)`` of ``coords`` rows over the non-empty
    ones of DEFAULT_BINS equal-width bins spanning (0, max pair distance], the last one closed.
    Pair p holds ``counts[p]`` half squared differences summing to ``sums[p]``, and weighs
    ``counts[p]`` in its bin's mean lag."""
    d = np.hypot(coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1])
    idx = np.minimum((d / (d.max() / DEFAULT_BINS or 1.0)).astype(np.int64), DEFAULT_BINS - 1)
    masks = idx == np.arange(DEFAULT_BINS)[:, None]
    masks = masks[masks.any(axis=1)]
    n = np.array([counts[m].sum() for m in masks])
    return (np.array([(counts * d)[m].sum() for m in masks]) / n,
            np.array([sums[m].sum() for m in masks]) / n, n)


def empirical_semivariogram(coords, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binned Matheron estimator: gamma(h) = mean of half squared differences.

    Pairs are grouped into DEFAULT_BINS equal-width distance bins spanning
    (0, max pair distance]. Returns ``(lags, semivariances, counts)`` over
    the non-empty bins, where a bin's lag is the mean pair distance in it.
    """
    coords = np.asarray(coords, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or coords.shape != (values.size, 2):
        raise DataError(f"need (k, 2) coords and (k,) values, got {coords.shape} / {values.shape}")
    bad = ~np.isfinite(values)
    if bad.any():
        raise DataError(f"sample value must be finite: {float(values[bad][0])!r}")
    if values.size < 2:
        raise DataError("semivariogram needs at least two samples")
    i, j = np.triu_indices(values.size, k=1)
    return _bins(coords, i, j, np.ones(i.size, dtype=np.int64), 0.5 * (values[i] - values[j]) ** 2)


@dataclass(frozen=True)
class VariogramModel:
    """Isotropic spherical variogram; ``sill`` is the total (nugget included) plateau."""

    nugget: float
    sill: float
    range_: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.nugget, self.sill, self.range_))):
            raise DomainError(f"variogram parameters must be finite, got "
                              f"{self.nugget!r}, {self.sill!r}, {self.range_!r}")
        if self.nugget < 0 or self.sill < self.nugget:
            raise DomainError(f"need 0 <= nugget <= sill, got {self.nugget!r}, {self.sill!r}")
        if self.range_ <= 0:
            raise DomainError(f"range must be > 0: {self.range_!r}")

    def __call__(self, h: np.ndarray | float) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        hr = np.minimum(h / self.range_, 1.0)
        g = self.nugget + (self.sill - self.nugget) * (1.5 * hr - 0.5 * hr**3)
        return np.where(h == 0.0, 0.0, g)


def fit_variogram(lags, semivariances, counts) -> VariogramModel:
    """Spherical (nugget, sill, range) fit to :func:`empirical_semivariogram`'s arrays.

    Bins without pairs are dropped, and the rest weighted by pair count. The
    search is a coarse grid over the three parameters refined by repeatedly
    shrinking the grid around the incumbent, deterministic for identical inputs.
    """
    lags, gammas, counts = (np.asarray(a, dtype=np.float64) for a in (lags, semivariances, counts))
    if lags.ndim != 1 or not lags.shape == gammas.shape == counts.shape:
        raise DataError(f"need equal-length 1-D bins: {lags.shape}, {gammas.shape}, {counts.shape}")
    full = counts > 0
    if int(full.sum()) < 3:
        raise DataError(f"variogram fit needs >= 3 non-empty bins, got {int(full.sum())}")
    lags, gammas, counts = lags[full], gammas[full], counts[full]
    if not (np.isfinite(lags).all() and np.isfinite(gammas).all()):
        raise DataError("variogram bins must have finite lags and semivariances")
    g_max, l_max = float(gammas.max()), float(lags.max())
    if l_max <= 0:
        raise DataError("variogram fit needs positive lags")
    if g_max == 0.0:
        # Constant field: degenerate but legal model.
        return VariogramModel(0.0, 0.0, l_max)

    def costs(nuggets, psills, rngs) -> tuple[list[np.ndarray], np.ndarray]:
        # One row per point; each contiguous row sums its lags as a 1-D sum does.
        nugget, psill, rng = grid = [
            g.reshape(-1, 1) for g in np.meshgrid(nuggets, psills, rngs, indexing="ij")]
        hr = np.minimum(lags / rng, 1.0)
        resid = nugget + psill * (1.5 * hr - 0.5 * hr * hr * hr) - gammas
        return grid, np.sum(counts * resid * resid, axis=1)

    best = (0.0, g_max, l_max)
    best_cost = costs([0.0], [g_max], [l_max])[1][0]
    axes = (np.linspace(0.0, g_max, 6), np.linspace(0.0, 1.5 * g_max, 8),
            np.linspace(l_max / 20.0, 1.5 * l_max, 12))
    spans = (g_max / 5.0, 1.5 * g_max / 7.0, 1.45 * l_max / 11.0)
    floors = (0.0, 0.0, l_max * 1e-3)
    for stage in range(5):
        if stage:
            axes = tuple(np.clip(np.linspace(c - s, c + s, 7), f, None)
                         for c, s, f in zip(best, spans, floors))
            spans = tuple(s * 0.35 for s in spans)
        grid, cost = costs(*axes)
        # A NaN cost never wins the strict <, but argmin would pick it. The
        # first minimum is the winner of a point-by-point scan in this order.
        cost[np.isnan(cost)] = np.inf
        k = int(np.argmin(cost))
        if cost[k] < best_cost:
            best, best_cost = tuple(float(g[k, 0]) for g in grid), cost[k]
    nugget, psill, rng = best
    return VariogramModel(nugget, nugget + psill, rng)


def kriging_weights(coords, query: GeoPoint, model: VariogramModel) -> np.ndarray:
    """Ordinary-kriging weights at ``query`` of ``(k, 2)`` sample ``coords``, summing to 1.

    The package's one kriging solve: the bordered (sites + 1) system, a Lagrange
    multiplier enforcing the unit sum, over the distinct sites in first-seen order.
    Samples sharing a site split its weight equally, so their mean is kriged. The
    weights depend on the locations alone, so ``eval`` solves them once per set of
    sources available at a timestep. A singular system or a non-finite solution
    raises NumericalError.
    """
    coords = np.asarray(coords, dtype=np.float64)
    # Sites in first-seen order, so without coincident samples the system keeps its bits;
    # sample i sits at site[inverse[i]] and shares it with counts[inverse[i]] samples.
    _, first, inverse, counts = np.unique(
        coords, axis=0, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    site = np.argsort(order)
    xy = coords[first[order]]
    n = xy.shape[0]
    a = np.ones((n + 1, n + 1), dtype=np.float64)
    a[:n, :n] = model(np.hypot(xy[:, 0][:, None] - xy[:, 0], xy[:, 1][:, None] - xy[:, 1]))
    a[np.arange(n), np.arange(n)] += KRIGING_JITTER
    a[n, n] = 0.0
    b = np.ones(n + 1, dtype=np.float64)
    b[:n] = model(np.hypot(xy[:, 0] - query.lon, xy[:, 1] - query.lat))
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular kriging system: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("kriging solve produced non-finite weights")
    inverse = inverse.ravel()
    return sol[site[inverse]] / counts[inverse]


def pooled_variogram(coords, blocks) -> VariogramModel | None:
    """Spherical variogram fitted once to every co-observed pair-minute of ``blocks``.

    ``blocks`` are ``(k, n)`` arrays in the row order of ``(k, 2)`` ``coords``, NaN where
    missing; each column in which two rows both hold a value is one pair in the bins of
    :func:`empirical_semivariogram`. Under 3 non-empty bins give a zero nugget, the mean
    semivariance as sill and the largest co-observed pair distance as range; with no
    co-observed pair there is no model (None).
    """
    coords = np.asarray(coords, dtype=np.float64)
    sums, counts = np.zeros((len(coords),) * 2), np.zeros((len(coords),) * 2)
    # Per pair, sum (v_i^2 + v_j^2) / 2 - v_i v_j where both are seen: products of 0/1 masks m
    # and column-centred values v, 0 where missing, on one BLAS thread whatever the CPU count.
    with _one_blas_thread():
        for block in blocks:
            bad = block[np.isinf(block)]
            if bad.size:
                raise DataError(f"sample value must be finite: {float(bad[0])!r}")
            seen = ~np.isnan(block)
            m = seen.astype(np.float64)
            v = np.where(seen, block, 0.0)
            v = np.where(seen, v - v.sum(axis=0) / np.maximum(m.sum(axis=0), 1.0), 0.0)
            q = (v * v) @ m.T
            sums += 0.5 * (q + q.T) - v @ v.T
            counts += m @ m.T
    i, j = np.nonzero(np.triu(counts, k=1))
    if i.size == 0:
        return None
    n, s = counts[i, j].astype(np.int64), np.maximum(sums[i, j], 0.0)  # rounding may dip below 0
    bins = _bins(coords, i, j, n, s)
    if bins[0].size >= 3:
        return fit_variogram(*bins)
    d_max = float(np.hypot(*(coords[i] - coords[j]).T).max())
    return VariogramModel(0.0, float(s.sum() / n.sum()), d_max or 1.0)
