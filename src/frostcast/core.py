"""Shared domain types: stations, their columnar series, folds; station distances, the atomic
file writer and the finite-number check of both manifest loaders."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable

import numpy as np

from .errors import DataError, DomainError

StationId = str

# A reported dew point may exceed air temperature by sensor disagreement;
# anything past this margin is treated as invalid.
DEW_POINT_TOLERANCE = 0.5


@dataclass(frozen=True)
class GeoPoint:
    """WGS-84 coordinate in decimal degrees, longitude east and latitude north."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise DomainError(f"longitude out of range: {self.lon!r}")
        if not (math.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise DomainError(f"latitude out of range: {self.lat!r}")


def geo_distances(coords, query: GeoPoint) -> np.ndarray:
    """``(k,)`` distances of ``(k, 2)`` (lon, lat) rows to ``query``: the one station-distance
    rule, ``math.hypot`` of row minus query, whose bits ``np.hypot`` does not always match."""
    return np.array([math.hypot(lon - query.lon, lat - query.lat)
                     for lon, lat in np.asarray(coords, dtype=np.float64).tolist()])


@dataclass(frozen=True)
class StationAttributes:
    """Static site descriptors used both as model features and for weighting."""

    location: GeoPoint
    dem: float
    ndvi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.dem):
            raise DomainError(f"dem must be finite: {self.dem!r}")
        if not (math.isfinite(self.ndvi) and -1.0 <= self.ndvi <= 1.0):
            raise DomainError(f"ndvi out of range: {self.ndvi!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.location.lon, self.location.lat, self.dem, self.ndvi)


#: Column order of ``StationSeries.raw``; ``wind_dir_met`` is the direction the wind blows from.
RAW_COLUMNS = ("temperature", "dew_point", "rh", "wind_speed", "wind_dir_met")


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by validate_series."""

    field: str
    index: int
    rule: str


@dataclass(frozen=True, eq=False)
class StationSeries:
    """Time-ordered readings plus static attributes for one station.

    ``timestamps`` is int64 ``[n]`` minutes since the Unix epoch; ``raw`` is
    float64 ``[n, 5]`` in :data:`RAW_COLUMNS` order. Both are stored as
    read-only views, never copies. Only dtype and shape are checked here:
    :func:`validate_series` inspects the values.
    """

    id: StationId
    attributes: StationAttributes
    timestamps: np.ndarray
    raw: np.ndarray

    def __post_init__(self) -> None:
        if not self.id:
            raise DomainError("station id must be non-empty")
        ts, raw = self.timestamps, self.raw
        if not isinstance(ts, np.ndarray) or ts.dtype != np.int64 or ts.ndim != 1:
            raise DataError(f"station {self.id} timestamps must be a 1-D int64 array")
        if not isinstance(raw, np.ndarray) or raw.dtype != np.float64 or raw.shape != (ts.size, 5):
            raise DataError(f"station {self.id} raw values must be a float64 [{ts.size}, 5] array")
        for name, arr in (("timestamps", ts), ("raw", raw)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return self.timestamps.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StationSeries):
            return NotImplemented
        return (
            self.id == other.id
            and self.attributes == other.attributes
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.raw, other.raw)
        )


# Rule order within a row; "finite" is reported under the first non-finite column.
_RULES = (
    (None, "finite"),
    ("rh", "range"),
    ("wind_speed", "nonnegative"),
    ("wind_dir_met", "range"),
    ("dew_point", "exceeds temperature"),
    ("timestamp", "strictly increasing"),
)


def violation_mask(timestamps: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Bool ``[n, 6]``: row i breaks rule k of ``_RULES``. A non-finite row
    breaks no other value rule; the timestamp rule compares adjacent rows.
    """
    finite = np.isfinite(raw).all(axis=1)
    temperature, dew_point, rh, wind_speed, wind_dir = raw.T
    backwards = np.zeros(finite.shape, dtype=bool)
    backwards[1:] = timestamps[1:] <= timestamps[:-1]
    return np.column_stack([
        ~finite,
        finite & ~((rh >= 0.0) & (rh <= 100.0)),
        finite & (wind_speed < 0.0),
        finite & ~((wind_dir >= 0.0) & (wind_dir < 360.0)),
        finite & (dew_point > temperature + DEW_POINT_TOLERANCE),
        backwards,
    ])


def validate_series(series: StationSeries) -> list[Violation]:
    """Report every invariant breach in a series; empty list means valid.

    Violations come by row, then in rule order: finite, rh range, wind
    speed, wind direction, dew point, timestamp. Never raises: a series
    assembled from a messy file can always be inspected.
    """
    rows, rules = np.nonzero(violation_mask(series.timestamps, series.raw))
    first_bad = np.argmin(np.isfinite(series.raw), axis=1)
    return [Violation(_RULES[k][0] or RAW_COLUMNS[first_bad[i]], i, _RULES[k][1])
            for i, k in zip(rows.tolist(), rules.tolist())]


@dataclass(frozen=True)
class FoldAssignment:
    """Disjoint groups of station ids used for leave-stations-out evaluation."""

    folds: tuple[frozenset[StationId], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.folds, tuple):
            object.__setattr__(self, "folds", tuple(frozenset(f) for f in self.folds))
        total = sum(len(f) for f in self.folds)
        union: set[StationId] = set()
        for f in self.folds:
            union.update(f)
        if len(union) != total:
            raise DataError("folds must be pairwise disjoint")
        if any(len(f) == 0 for f in self.folds):
            raise DataError("folds must be non-empty")

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def all_stations(self) -> frozenset[StationId]:
        out: set[StationId] = set()
        for f in self.folds:
            out.update(f)
        return frozenset(out)

    def test_stations(self, fold: int) -> frozenset[StationId]:
        return self.folds[fold]

    def train_stations(self, fold: int) -> frozenset[StationId]:
        return self.all_stations() - self.folds[fold]


def finite_numbers(value: object, n: int, what: str) -> tuple[float, ...]:
    """A list of ``n`` finite JSON numbers as floats; DomainError naming ``what`` otherwise.

    Booleans, strings, NaN, infinities and integers beyond float range are refused.
    """
    try:
        if (isinstance(value, list) and len(value) == n
                and all(type(v) in (int, float) for v in value)):
            out = tuple(map(float, value))
            if all(map(math.isfinite, out)):
                return out
    except OverflowError:  # an integer beyond float range
        pass
    raise DomainError(f"{what} must be {n} finite numbers, got {value!r}")


def index_series(stations: Iterable[StationSeries]) -> dict[StationId, StationSeries]:
    """Map id -> series, rejecting duplicate ids."""
    out: dict[StationId, StationSeries] = {}
    for s in stations:
        if s.id in out:
            raise DataError(f"duplicate station id: {s.id}")
        out[s.id] = s
    return out


def write_atomically(path: str | os.PathLike, write: Callable[[IO], object], *,
                     binary: bool = False) -> None:
    """Replace ``path`` with what ``write`` writes to a temporary file beside it.

    ``write`` gets a UTF-8 text handle, or a binary one when ``binary``. On
    any error the temporary file is removed and ``path`` keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
