"""Feature engineering: wind decomposition, labels, pair assembly, scaling.

Wind directions arrive in the meteorological convention (degrees the wind
blows *from*). They are first flipped to the direction of travel and then
split into east/north velocity components so the learner sees continuous
inputs instead of a circular coordinate.

Labels are time-true: the label at minute t is the minimum temperature
observed in (t, t + horizon], with the horizon in minutes whatever the
sample interval, and a window that a gap leaves uncovered gets no label
(:func:`label_arrays`).

A station's :class:`StationFrame` holds its attributes and what its roles
read. A *source*, whose submodel predicts elsewhere, reads its observation
timestamps and 5-column climate block; a *target*, where predictions are
scored, reads its label timestamps and labels; an on-site baseline reads both,
as does every station of a training or calibration run. :func:`station_frame`
is the one place that derives them, each part only for a role the station
plays; each public entry point builds one frame per station it uses, and every
step inside it reads that frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .core import StationAttributes, StationId, StationSeries
from .errors import DataError, DomainError

DEFAULT_HORIZON = 60

#: Longest label window in minutes, one leap year: longer is no frost
#: forecast, and it keeps ``timestamp + horizon`` well inside int64.
MAX_HORIZON = 366 * 24 * 60


def _wind_component_arrays(met_deg: np.ndarray, speed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """East/north velocities of (direction-from, speed) columns."""
    if met_deg.size and (met_deg.min() < 0.0 or met_deg.max() >= 360.0):
        raise DomainError("wind direction outside [0, 360)")
    if speed.size and speed.min() < 0.0:
        raise DomainError("wind speed must be non-negative")
    deg = np.where(met_deg < 180.0, met_deg + 180.0, met_deg - 180.0)
    rad = np.radians(deg)
    return speed * np.sin(rad), speed * np.cos(rad)


class ObservationArrays(NamedTuple):
    """Column view of a series; climate is (n, 5) in training-entry order."""

    timestamps: np.ndarray
    climate: np.ndarray


def climate_matrix(series: StationSeries) -> ObservationArrays:
    """Extract timestamps and the 5-column climate block from a series."""
    raw = series.raw
    e_wind, n_wind = _wind_component_arrays(raw[:, 4], raw[:, 3])
    climate = np.column_stack([raw[:, 0], raw[:, 1], raw[:, 2], n_wind, e_wind])
    return ObservationArrays(series.timestamps, climate)


def label_arrays(series: StationSeries, horizon: int = DEFAULT_HORIZON) -> tuple[np.ndarray, np.ndarray]:
    """Next-``horizon``-minute minimum labels as (timestamps, labels) arrays.

    The label at observation time t is the minimum temperature over the
    observations with timestamps in (t, t + horizon]. It exists only when
    that window is covered: no step from t to the window's last observation
    is wider than the series' median step, and that last observation is
    strictly later than t + horizon - the median step.
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise DomainError(f"horizon must be 1 to {MAX_HORIZON} minutes: {horizon!r}")
    ts = series.timestamps
    if ts.size < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    steps = np.diff(ts)
    step = np.median(steps)
    last = np.searchsorted(ts, ts + horizon, side="right") - 1  # each window's last row
    wide_before = np.concatenate(([0], np.cumsum(steps > step)))  # wide steps up to each row
    rows = np.arange(ts.size)
    rows = rows[(last > rows) & (ts[last] - ts > horizon - step)
                & (wide_before[last] == wide_before)]
    # Interleaved (start, stop) bounds: every even reduceat slot is one window's
    # minimum. The appended slot makes a stop at the series end a valid index.
    temps = np.append(series.raw[:, 0], np.inf)
    bounds = np.column_stack([rows + 1, last[rows] + 1]).ravel()
    # A copy, so the labels do not pin the reduceat buffer of twice their size.
    return ts[rows], np.minimum.reduceat(temps, bounds)[::2].copy()


class StationFrame(NamedTuple):
    """One station's derived arrays: a source's climate block, a target's labels.

    The parts of a role the station does not play are None.
    """

    id: StationId
    attributes: StationAttributes
    timestamps: np.ndarray | None
    climate: np.ndarray | None
    label_timestamps: np.ndarray | None
    labels: np.ndarray | None

    def thinned(self, stride: int) -> StationFrame:
        """The frame keeping every ``stride``-th label, as copies, so the full arrays can go."""
        return self._replace(label_timestamps=self.label_timestamps[::stride].copy(),
                             labels=self.labels[::stride].copy())

    def onsite_climate(self) -> np.ndarray:
        """The climate rows at the label timestamps: an on-site model's inputs."""
        return self.climate[np.searchsorted(self.timestamps, self.label_timestamps)]


def station_frame(series: StationSeries, horizon: int = DEFAULT_HORIZON, *,
                  source: bool = True, target: bool = True) -> StationFrame:
    """Derive a series' frame: as a source its climate block, as a target its labels."""
    obs = climate_matrix(series) if source else (None, None)
    labels = label_arrays(series, horizon) if target else (None, None)
    return StationFrame(series.id, series.attributes, *obs, *labels)


def station_frames(
    by_id: Mapping[StationId, StationSeries],
    horizon: int,
    sources: Iterable[StationId],
    targets: Iterable[StationId],
) -> dict[StationId, StationFrame]:
    """One :func:`station_frame` per listed station, sources first, each derived once.

    A station listed in both gets both parts. Raises DataError when a listed
    station has no series.
    """
    sources, targets = dict.fromkeys(sources), dict.fromkeys(targets)
    ids = {**sources, **targets}
    require_series(by_id, ids)
    return {sid: station_frame(by_id[sid], horizon, source=sid in sources, target=sid in targets)
            for sid in ids}


def require_series(by_id: Mapping[StationId, StationSeries], ids: Iterable[StationId]) -> None:
    """Raise one DataError listing every station of ``ids`` that has no series."""
    missing = sorted(set(ids) - set(by_id))
    if missing:
        raise DataError(f"no series for stations: {missing}")


def pair_feature_arrays(
    source: StationSeries,
    target: StationSeries,
    horizon: int = DEFAULT_HORIZON,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the (n, 13) feature matrix and label vector for one pair.

    Rows exist only where a source observation and a target label share an
    exact timestamp; nothing is imputed. ``stride`` keeps every stride-th
    label before the join, which thins near-duplicate minutes when a pair
    corpus would otherwise be enormous.
    """
    if stride < 1:
        raise DomainError(f"stride must be >= 1: {stride!r}")
    return join_pair_arrays(station_frame(source, horizon, target=False),
                            station_frame(target, horizon, source=False).thinned(stride))


def join_timestamps(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared values of two strictly increasing timestamp arrays and their positions.

    Returns ``(common, left_idx, right_idx)`` with ``left[left_idx] ==
    right[right_idx] == common``, as ``np.intersect1d(left, right,
    return_indices=True)`` does for such inputs, by binary search of
    ``right`` in ``left``. Raises DataError if either array repeats or
    goes back in time.
    """
    for name, ts in (("left", left), ("right", right)):
        if ts.size > 1 and not (ts[1:] > ts[:-1]).all():
            raise DataError(f"{name} timestamps are not strictly increasing")
    if left.size == 0 or right.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return right[:0], empty, empty
    pos = np.searchsorted(left, right)
    right_idx = np.flatnonzero(left.take(pos, mode="clip") == right)
    return right[right_idx], pos[right_idx], right_idx


def join_pair_arrays(
    source: StationFrame, target: StationFrame
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join a source's climate block to a target's labels on exact timestamps.

    Returns the (n, 13) feature matrix, the label vector and the shared
    timestamps, as :func:`pair_feature_arrays` does from the two series.
    """
    common, src_idx, lab_idx = join_timestamps(source.timestamps, target.label_timestamps)
    x = feature_rows(source.attributes, target.attributes.as_tuple(), source.climate[src_idx])
    return x, target.labels[lab_idx], common


def feature_rows(source: StationAttributes, target: tuple[float, ...] | np.ndarray,
                 climate: np.ndarray) -> np.ndarray:
    """The (n, 13) submodel inputs, each row ``[source attrs | target attrs | climate]``.

    ``target`` is one site's (lon, lat, dem, ndvi) or an (n, 4) array of per-row ones.
    """
    x = np.empty((climate.shape[0], 13), dtype=np.float64)
    x[:, 0:4] = source.as_tuple()
    x[:, 4:8] = target
    x[:, 8:13] = climate
    return x


@dataclass(frozen=True)
class ScalerStats:
    """Per-column standardization parameters plus the label's own pair."""

    mean: tuple[float, ...]
    sd: tuple[float, ...]
    label_mean: float
    label_sd: float

    def __post_init__(self) -> None:
        if len(self.mean) != len(self.sd):
            raise DataError("mean/sd length mismatch")
        if any(s <= 0 for s in self.sd) or self.label_sd <= 0:
            raise DataError("scaler sds must be positive")


def fit_scaler_arrays(x: np.ndarray, y: np.ndarray) -> ScalerStats:
    if x.shape[0] == 0:
        raise DataError("cannot fit a scaler on zero entries")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[(sd == 0.0) | ~np.isfinite(sd)] = 1.0
    label_sd = float(y.std())
    if label_sd == 0.0 or not np.isfinite(label_sd):
        label_sd = 1.0
    return ScalerStats(tuple(map(float, mean)), tuple(map(float, sd)), float(y.mean()), label_sd)


def apply_scaler(stats: ScalerStats, features: np.ndarray) -> np.ndarray:
    """Standardize a feature vector or matrix; finite in, finite out."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != len(stats.mean):
        raise DataError(
            f"feature width {features.shape[-1]} does not match scaler width {len(stats.mean)}"
        )
    return (features - np.asarray(stats.mean)) / np.asarray(stats.sd)


def scale_label(stats: ScalerStats, label: np.ndarray | float) -> np.ndarray | float:
    return (np.asarray(label, dtype=np.float64) - stats.label_mean) / stats.label_sd


def invert_label(stats: ScalerStats, scaled: np.ndarray | float) -> np.ndarray | float:
    return np.asarray(scaled, dtype=np.float64) * stats.label_sd + stats.label_mean
