"""Classical spatial interpolation: IDW and ordinary kriging.

Distances are plain Euclidean in degree space; at the regional scale used
here the anisotropy that introduces is small against station spacing, and
it keeps every routine translation-equivariant. Variograms are fit by
weighted least squares with pair counts as weights, using a coarse grid
search followed by shrinking local refinement so fits are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import GeoPoint, StationId
from .errors import DataError, DomainError, NumericalError

#: Queries closer than this to a sample collapse to that sample's value.
EXACT_DISTANCE = 1e-9

#: Diagonal regularization applied to the kriging system.
KRIGING_JITTER = 1e-10

DEFAULT_BINS = 15


@dataclass(frozen=True)
class SamplePoint:
    location: GeoPoint
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DataError(f"sample value must be finite: {self.value!r}")


def _coords_values(samples: Sequence[SamplePoint]) -> tuple[np.ndarray, np.ndarray]:
    coords = np.array([(s.location.lon, s.location.lat) for s in samples], dtype=np.float64)
    values = np.array([s.value for s in samples], dtype=np.float64)
    return coords, values


def idw(samples: Sequence[SamplePoint], query: GeoPoint, power: float = 2.0) -> float:
    """Inverse-distance-weighted estimate at ``query``.

    Exact at sample locations: a query within EXACT_DISTANCE of a sample
    returns that sample's value directly (first match in input order).
    """
    if not samples:
        raise DataError("idw needs at least one sample")
    if power <= 0:
        raise DomainError(f"idw power must be > 0: {power!r}")
    coords, values = _coords_values(samples)
    d = np.hypot(coords[:, 0] - query.lon, coords[:, 1] - query.lat)
    hit = np.nonzero(d < EXACT_DISTANCE)[0]
    if hit.size:
        return float(values[hit[0]])
    w = d ** -power
    return float(np.sum(w * values) / np.sum(w))


@dataclass(frozen=True)
class VariogramBin:
    lag: float
    semivariance: float
    count: int


def empirical_semivariogram(samples: Sequence[SamplePoint], n_bins: int = DEFAULT_BINS) -> list[VariogramBin]:
    """Binned Matheron estimator: gamma(h) = mean of half squared differences.

    Pairs are grouped into ``n_bins`` equal-width distance bins spanning
    (0, max pair distance]; empty bins are omitted. The reported lag is the
    mean pair distance inside the bin.
    """
    if len(samples) < 2:
        raise DataError("semivariogram needs at least two samples")
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1: {n_bins!r}")
    coords, values = _coords_values(samples)
    i, j = np.triu_indices(len(samples), k=1)
    d = np.hypot(coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1])
    gamma = 0.5 * (values[i] - values[j]) ** 2
    d_max = float(d.max())
    if d_max == 0.0:
        return [VariogramBin(0.0, float(gamma.mean()), int(gamma.size))]
    width = d_max / n_bins
    idx = np.minimum((d / width).astype(np.int64), n_bins - 1)
    out: list[VariogramBin] = []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        out.append(VariogramBin(float(d[mask].mean()), float(gamma[mask].mean()), count))
    return out


@dataclass(frozen=True)
class VariogramModel:
    """Isotropic variogram; ``sill`` is the total (nugget included) plateau."""

    kind: str
    nugget: float
    sill: float
    range_: float

    def __post_init__(self) -> None:
        if self.kind not in ("spherical", "exponential"):
            raise DomainError(f"unknown variogram kind: {self.kind!r}")
        if self.nugget < 0 or self.sill < self.nugget:
            raise DomainError(f"need 0 <= nugget <= sill, got {self.nugget!r}, {self.sill!r}")
        if self.range_ <= 0:
            raise DomainError(f"range must be > 0: {self.range_!r}")

    def __call__(self, h: np.ndarray | float) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        psill = self.sill - self.nugget
        if self.kind == "spherical":
            hr = np.minimum(h / self.range_, 1.0)
            g = self.nugget + psill * (1.5 * hr - 0.5 * hr**3)
        else:
            # Practical-range convention: ~95% of the sill at h = range.
            g = self.nugget + psill * (1.0 - np.exp(-3.0 * h / self.range_))
        return np.where(h == 0.0, 0.0, g)


def fit_variogram(bins: Sequence[VariogramBin], kind: str = "spherical") -> VariogramModel:
    """Weighted-least-squares fit of (nugget, sill, range) to binned estimates.

    Weights are pair counts. The search is a coarse grid over the three
    parameters refined by repeatedly shrinking the grid around the incumbent,
    which is deterministic for identical inputs.
    """
    if kind not in ("spherical", "exponential"):
        raise DomainError(f"unknown variogram kind: {kind!r}")
    bins = [b for b in bins if b.count > 0]
    if len(bins) < 3:
        raise DataError(f"variogram fit needs >= 3 non-empty bins, got {len(bins)}")
    lags = np.array([b.lag for b in bins])
    gammas = np.array([b.semivariance for b in bins])
    counts = np.array([b.count for b in bins], dtype=np.float64)
    g_max = float(gammas.max())
    l_max = float(lags.max())
    if l_max <= 0:
        raise DataError("variogram fit needs positive lags")
    if g_max == 0.0:
        # Constant field: degenerate but legal model.
        return VariogramModel(kind, 0.0, 0.0, l_max)

    if kind == "spherical":
        def predict(nugget: np.ndarray, psill: np.ndarray, rng: np.ndarray) -> np.ndarray:
            hr = np.minimum(lags / rng, 1.0)
            return nugget + psill * (1.5 * hr - 0.5 * hr * hr * hr)
    else:
        def predict(nugget: np.ndarray, psill: np.ndarray, rng: np.ndarray) -> np.ndarray:
            return nugget + psill * (1.0 - np.exp(-3.0 * lags / rng))

    def costs(nuggets, psills, rngs) -> tuple[list[np.ndarray], np.ndarray]:
        # One row per point; each contiguous row sums its lags as a 1-D sum does.
        grid = [g.reshape(-1, 1) for g in np.meshgrid(nuggets, psills, rngs, indexing="ij")]
        resid = predict(*grid) - gammas
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
    return VariogramModel(kind, nugget, nugget + psill, rng)


def _dedup(samples: Sequence[SamplePoint]) -> tuple[np.ndarray, np.ndarray]:
    """Average values at exactly coincident locations before solving."""
    seen: dict[tuple[float, float], list[float]] = {}
    order: list[tuple[float, float]] = []
    for s in samples:
        key = (s.location.lon, s.location.lat)
        if key not in seen:
            seen[key] = []
            order.append(key)
        seen[key].append(s.value)
    coords = np.array(order, dtype=np.float64)
    values = np.array([np.mean(seen[k]) for k in order], dtype=np.float64)
    return coords, values


def _solve_kriging(
    coords: np.ndarray, query: GeoPoint, model: VariogramModel
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the ordinary-kriging system for (n, 2) sample ``coords``.

    Returns the solution (n weights, then the Lagrange multiplier) and the
    right-hand side (the model at each sample's distance to ``query``, then 1).
    """
    n = coords.shape[0]
    dx = coords[:, 0][:, None] - coords[:, 0][None, :]
    dy = coords[:, 1][:, None] - coords[:, 1][None, :]
    a = np.empty((n + 1, n + 1), dtype=np.float64)
    a[:n, :n] = model(np.hypot(dx, dy))
    a[np.arange(n), np.arange(n)] += KRIGING_JITTER
    a[n, :n] = 1.0
    a[:n, n] = 1.0
    a[n, n] = 0.0
    b = np.empty(n + 1, dtype=np.float64)
    b[:n] = model(np.hypot(coords[:, 0] - query.lon, coords[:, 1] - query.lat))
    b[n] = 1.0
    try:
        return np.linalg.solve(a, b), b
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular kriging system: {exc}") from exc


def ordinary_kriging(
    samples: Sequence[SamplePoint], query: GeoPoint, model: VariogramModel
) -> tuple[float, float]:
    """Ordinary-kriging estimate and variance at ``query``.

    Solves the standard (n+1) x (n+1) system with a Lagrange multiplier
    enforcing unit weight sum. Duplicate sample locations are averaged
    first; a singular system raises NumericalError.
    """
    if len(samples) < 2:
        raise DataError("ordinary kriging needs at least two samples")
    coords, values = _coords_values(samples)
    if np.unique(coords, axis=0).shape[0] < coords.shape[0]:
        coords, values = _dedup(samples)
    n = coords.shape[0]
    if n < 2:
        raise DataError("ordinary kriging needs two distinct sample locations")
    sol, b = _solve_kriging(coords, query, model)
    if not np.all(np.isfinite(sol)):
        raise NumericalError("kriging solve produced non-finite weights")
    w, mu = sol[:n], sol[n]
    estimate = float(w @ values)
    variance = float(w @ b[:n] + mu)
    return estimate, max(variance, 0.0)


def kriging_weights(
    samples: Sequence[SamplePoint], query: GeoPoint, model: VariogramModel
) -> np.ndarray:
    """The weight vector of :func:`ordinary_kriging` (diagnostics, tests)."""
    coords, _ = _coords_values(samples)
    return _solve_kriging(coords, query, model)[0][: len(samples)]


def _fallback_model(samples: Sequence[SamplePoint], kind: str) -> VariogramModel:
    """Stand-in model when too few bins exist to fit one properly."""
    coords, values = _coords_values(samples)
    i, j = np.triu_indices(len(samples), k=1)
    d_max = float(np.hypot(coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1]).max())
    sill = float(values.var())
    return VariogramModel(kind, 0.0, sill, d_max if d_max > 0 else 1.0)


def aggregate_by_interpolation(
    predictions: Mapping[StationId, float],
    locations: Mapping[StationId, GeoPoint],
    target: GeoPoint,
    method: str,
    power: float = 2.0,
    variogram: VariogramModel | None = None,
    variogram_kind: str = "spherical",
    n_bins: int = DEFAULT_BINS,
) -> float:
    """Interpolate per-station predictions to the target location.

    ``method`` is "idw" or "ok". For kriging a variogram is fit to the
    prediction snapshot itself unless a frozen ``variogram`` is supplied;
    snapshots too small to support a fit fall back to a zero-nugget model
    with the sample variance as sill.
    """
    missing = set(predictions) - set(locations)
    if missing:
        raise DataError(f"no location for stations: {sorted(missing)}")
    ids = sorted(predictions)
    samples = [SamplePoint(locations[i], float(predictions[i])) for i in ids]
    if method == "idw":
        return idw(samples, target, power=power)
    if method != "ok":
        raise DomainError(f"unknown interpolation method: {method!r}")
    if len(samples) < 2:
        raise DataError("ok aggregation needs at least two predictions")
    model = variogram
    if model is None:
        bins = empirical_semivariogram(samples, n_bins)
        try:
            model = fit_variogram(bins, kind=variogram_kind)
        except DataError:
            model = _fallback_model(samples, variogram_kind)
    estimate, _ = ordinary_kriging(samples, target, model)
    return estimate
