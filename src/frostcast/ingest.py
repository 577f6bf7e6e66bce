"""File ingestion: station CSVs, ESRI ASCII grids, boundary polygons.

Grids are stored south-up internally (row 0 is the southernmost row) with
cell-center origins, regardless of the north-first order ESRI ASCII files
use on disk. NODATA cells carry a False mask bit, and :class:`AttributeGrid`
stores NaN as their value, however the grid was built.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import zipfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    GeoPoint,
    StationAttributes,
    StationId,
    StationSeries,
    finite_numbers,
    index_series,
    validate_series,
    violation_mask,
    write_atomically,
)
from .errors import DataError, DomainError, FormatError, OutOfExtentError, UnsupportedVersionError

CSV_HEADER = ("timestamp", "temperature", "dew_point", "rh", "wind_speed", "wind_dir")
NODATA_DEFAULT = -9999.0
BUNDLE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AttributeGrid:
    """Regular lon/lat grid of one attribute.

    ``origin`` is the center of the south-west cell; ``values`` and ``mask``
    have shape (nrows, ncols) with row 0 southernmost. Masked-out cells
    (mask False) are NODATA, and their values are NaN whatever was passed in.
    """

    origin: GeoPoint
    cell_size: float
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.array(self.mask, dtype=bool)  # a copy: the caller's array stays writable
        if self.cell_size <= 0:
            raise DomainError(f"cell_size must be > 0: {self.cell_size!r}")
        if values.ndim != 2 or values.shape != mask.shape or values.size == 0:
            raise DataError(f"values/mask must be matching non-empty 2-D arrays, got {values.shape}")
        values = np.where(mask, values, np.nan)
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid arrays (lon, lat) of every cell center, shape (nrows, ncols)."""
        lon = self.origin.lon + np.arange(self.ncols) * self.cell_size
        lat = self.origin.lat + np.arange(self.nrows) * self.cell_size
        return np.meshgrid(lon, lat)

    def index_of(self, point: GeoPoint) -> tuple[int, int]:
        """(row, col) of the cell containing ``point``; raises outside the extent."""
        half = self.cell_size / 2.0
        col = int(np.floor((point.lon - (self.origin.lon - half)) / self.cell_size))
        row = int(np.floor((point.lat - (self.origin.lat - half)) / self.cell_size))
        if not (0 <= row < self.nrows and 0 <= col < self.ncols):
            raise OutOfExtentError(
                f"point ({point.lon}, {point.lat}) outside grid extent"
            )
        return row, col

    def same_geometry(self, other: "AttributeGrid") -> bool:
        return (
            self.values.shape == other.values.shape
            and abs(self.origin.lon - other.origin.lon) < 1e-9
            and abs(self.origin.lat - other.origin.lat) < 1e-9
            and abs(self.cell_size - other.cell_size) < 1e-12
        )


def parse_ascii_grid(text: str) -> AttributeGrid:
    """Parse an ESRI ASCII grid; header keywords are case-insensitive.

    The corner-registered header origin is shifted by half a cell to the
    cell-center convention, and rows are flipped south-up.
    """
    tokens_by_line = [line.split() for line in text.splitlines() if line.strip()]
    header: dict[str, float] = {}
    body_start = 0
    for i, tokens in enumerate(tokens_by_line):
        if len(tokens) == 2 and tokens[0].lower() in (
            "ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value",
        ):
            try:
                header[tokens[0].lower()] = float(tokens[1])
            except ValueError as exc:
                raise FormatError(f"bad header value: {' '.join(tokens)}") from exc
            body_start = i + 1
        else:
            break
    required = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
    missing = [k for k in required if k not in header]
    if missing:
        raise FormatError(f"grid header missing keywords: {missing}")
    infinite = [k for k in required if not math.isfinite(header[k])]
    if infinite:
        raise FormatError(f"grid header values must be finite: {infinite}")
    if not (header["ncols"].is_integer() and header["nrows"].is_integer()):
        raise FormatError(f"grid dimensions must be integers: {header['ncols']} x {header['nrows']}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols < 1 or nrows < 1:
        raise FormatError(f"grid dimensions must be positive: {ncols} x {nrows}")
    cell = header["cellsize"]
    if cell <= 0:
        raise FormatError(f"cellsize must be > 0: {cell}")
    nodata = header.get("nodata_value")

    flat: list[float] = []
    for tokens in tokens_by_line[body_start:]:
        for tok in tokens:
            try:
                flat.append(float(tok))
            except ValueError as exc:
                raise FormatError(f"bad grid value: {tok!r}") from exc
    if len(flat) != nrows * ncols:
        raise FormatError(f"expected {nrows * ncols} grid values, got {len(flat)}")
    north_up = np.array(flat, dtype=np.float64).reshape(nrows, ncols)
    values = north_up[::-1].copy()
    if nodata is None:
        mask = np.isfinite(values)
    else:
        mask = np.isfinite(values) & (values != nodata)
    origin = GeoPoint(header["xllcorner"] + cell / 2.0, header["yllcorner"] + cell / 2.0)
    return AttributeGrid(origin, cell, values, mask)


def write_ascii_grid(grid: AttributeGrid) -> str:
    """ESRI ASCII of a grid, masked cells as NODATA_DEFAULT; inverse of parse for finite cells."""
    nodata = repr(NODATA_DEFAULT)
    half = grid.cell_size / 2.0
    lines = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {grid.origin.lon - half!r}",
        f"yllcorner {grid.origin.lat - half!r}",
        f"cellsize {grid.cell_size!r}",
        f"NODATA_value {nodata}",
    ]
    north_up_values = grid.values[::-1]
    north_up_mask = grid.mask[::-1]
    for row, mrow in zip(north_up_values, north_up_mask):
        lines.append(" ".join(repr(float(v)) if ok else nodata for v, ok in zip(row, mrow)))
    return "\n".join(lines) + "\n"


def resample_grid(grid: AttributeGrid, target_cell: float) -> AttributeGrid:
    """Block-mean downsample to a coarser cell size.

    Each target cell averages the unmasked source cell centers falling in
    it; a target cell with none is masked out. Upsampling is not supported.
    """
    if not target_cell >= grid.cell_size:  # NaN included
        raise DomainError(
            f"cannot upsample from {grid.cell_size} to {target_cell}"
        )
    if target_cell == grid.cell_size:
        return grid
    half = grid.cell_size / 2.0
    ll_lon = grid.origin.lon - half
    ll_lat = grid.origin.lat - half
    extent_x = grid.ncols * grid.cell_size
    extent_y = grid.nrows * grid.cell_size
    ncols = max(1, int(np.ceil(extent_x / target_cell - 1e-9)))
    nrows = max(1, int(np.ceil(extent_y / target_cell - 1e-9)))

    lon_grid, lat_grid = grid.cell_centers()
    col_idx = np.minimum(((lon_grid - ll_lon) / target_cell).astype(np.int64), ncols - 1)
    row_idx = np.minimum(((lat_grid - ll_lat) / target_cell).astype(np.int64), nrows - 1)
    flat_idx = row_idx * ncols + col_idx

    m = grid.mask
    sums = np.bincount(flat_idx[m], weights=grid.values[m], minlength=nrows * ncols)
    counts = np.bincount(flat_idx[m], minlength=nrows * ncols)
    mask = counts > 0
    values = sums / np.maximum(counts, 1)  # the empty cells are masked, so NaN
    origin = GeoPoint(ll_lon + target_cell / 2.0, ll_lat + target_cell / 2.0)
    return AttributeGrid(origin, target_cell, values.reshape(nrows, ncols), mask.reshape(nrows, ncols))


@dataclass(frozen=True)
class BoundaryPolygon:
    """One or more rings of (lon, lat) vertices; holes via even-odd parity."""

    rings: tuple[tuple[GeoPoint, ...], ...]

    def __post_init__(self) -> None:
        if not self.rings:
            raise DataError("polygon needs at least one ring")
        for ring in self.rings:
            if len(ring) < 3:
                raise DataError(f"ring needs >= 3 vertices, got {len(ring)}")


def parse_boundary_json(text: str) -> BoundaryPolygon:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"boundary is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "rings" not in doc:
        raise FormatError('boundary JSON must contain a "rings" key')
    try:
        rings = tuple(tuple(GeoPoint(*finite_numbers(v, 2, "boundary vertex")) for v in ring)
                      for ring in doc["rings"])
        return BoundaryPolygon(rings)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed boundary rings: {exc}") from exc


def boundary_to_json(poly: BoundaryPolygon) -> str:
    return json.dumps(
        {"rings": [[[p.lon, p.lat] for p in ring] for ring in poly.rings]}, sort_keys=True
    )


def _crossings_inside(lon: np.ndarray, lat: np.ndarray, ring: Sequence[GeoPoint]) -> np.ndarray:
    """Even-odd ray-casting test, vectorized over query points."""
    inside = np.zeros(lon.shape, dtype=bool)
    n = len(ring)
    for k in range(n):
        p1, p2 = ring[k], ring[(k + 1) % n]
        y1, y2 = p1.lat, p2.lat
        if y1 == y2:
            continue
        straddles = (lat >= min(y1, y2)) & (lat < max(y1, y2))
        if not straddles.any():
            continue
        x_cross = p1.lon + (lat - y1) * (p2.lon - p1.lon) / (y2 - y1)
        inside ^= straddles & (x_cross > lon)
    return inside


def apply_boundary_mask(grid: AttributeGrid, poly: BoundaryPolygon) -> AttributeGrid:
    """Mask out every cell whose center lies outside the polygon.

    Containment is even-odd over every ring, so hole rings punch out.
    """
    lon, lat = grid.cell_centers()
    inside = np.zeros(lon.shape, dtype=bool)
    for ring in poly.rings:
        inside ^= _crossings_inside(lon, lat, ring)
    return AttributeGrid(grid.origin, grid.cell_size, grid.values, grid.mask & inside)


def lookup_attribute(grid: AttributeGrid, point: GeoPoint) -> float:
    """Value of the cell containing ``point``; nearest unmasked cell if masked.

    The nearest cell is the unmasked cell center closest to ``point``; of
    equally close centers the first in row-major order (south row first)
    wins. Points outside the grid extent raise OutOfExtentError rather than
    silently extrapolating.
    """
    row, col = grid.index_of(point)
    if grid.mask[row, col]:
        return float(grid.values[row, col])
    if not grid.mask.any():
        raise DataError("grid has no unmasked cells to fall back on")
    lon, lat = grid.cell_centers()
    m = grid.mask
    nearest = np.argmin((lon[m] - point.lon) ** 2 + (lat[m] - point.lat) ** 2)
    return float(grid.values[m][nearest])


# --- station CSV --------------------------------------------------------------


def _parse_timestamp(token: str, iso_mode: bool | None) -> tuple[int | None, bool | None]:
    """Returns (minutes-since-epoch, detected-mode); None value on failure.

    Mode is detected from the first parseable row and then pinned for the
    rest of the file, so mixed formats are rejected as bad rows.
    """
    token = token.strip()
    if iso_mode in (None, False):
        try:
            minutes = int(token)
        except ValueError:
            if iso_mode is False:
                return None, False
        else:
            return (minutes if -(2**63) <= minutes < 2**63 else None), False
    try:
        stamp = datetime.fromisoformat(token.replace("Z", "+00:00"))
    except ValueError:
        return None, iso_mode
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    seconds = stamp.timestamp()
    minutes = round(seconds / 60.0)
    if minutes * 60 != int(seconds):
        return None, True
    return int(minutes), True


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The rows of ``text``; FormatError at a line the csv module cannot split."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"malformed station file line {reader.line_num}: {exc}") from exc


def parse_station_csv(
    text: str, station_id: StationId, attributes: StationAttributes
) -> tuple[StationSeries, int]:
    """Parse one station's observations; returns (series, dropped row count).

    Rows with missing or unparsable fields, invalid sensor values, or
    non-increasing timestamps are dropped and counted, never imputed, so
    the returned series always validates cleanly.
    """
    reader = _csv_rows(text)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty station file") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise FormatError(
            f"bad station header: expected {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    timestamps: list[int] = []
    values: list[list[float]] = []
    dropped = 0
    iso_mode: bool | None = None
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 6:
            dropped += 1
            continue
        ts, iso_mode = _parse_timestamp(row[0], iso_mode)
        if ts is None:
            dropped += 1
            continue
        try:
            values.append([float(c) for c in row[1:]])
        except ValueError:
            dropped += 1
            continue
        timestamps.append(ts)
    ts_col = np.array(timestamps, dtype=np.int64)
    raw = np.array(values, dtype=np.float64).reshape(-1, 5)
    ok = ~violation_mask(ts_col, raw)[:, :5].any(axis=1)  # the value rules
    ts_col, raw = ts_col[ok], raw[ok]
    # A row is kept when it is later than every earlier valid row, which is
    # the last kept timestamp: rows dropped here never raise the maximum.
    keep = np.ones(ts_col.size, dtype=bool)
    keep[1:] = ts_col[1:] > np.maximum.accumulate(ts_col)[:-1]
    dropped += len(timestamps) - int(keep.sum())
    return StationSeries(station_id, attributes, ts_col[keep], raw[keep]), dropped


# --- dataset bundle -----------------------------------------------------------

_BUNDLE_EPOCH = (1980, 1, 1, 0, 0, 0)


@dataclass(frozen=True)
class Dataset:
    """Validated stations plus the attribute grids they were enriched from."""

    stations: tuple[StationSeries, ...]
    dem: AttributeGrid
    ndvi: AttributeGrid

    def __post_init__(self) -> None:
        if not isinstance(self.stations, tuple):
            object.__setattr__(self, "stations", tuple(self.stations))
        index_series(self.stations)  # rejects duplicate ids

    def station_ids(self) -> list[StationId]:
        return sorted(s.id for s in self.stations)


def _write_npy(zf: zipfile.ZipFile, name: str, arr: np.ndarray) -> None:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr))
    info = zipfile.ZipInfo(name, date_time=_BUNDLE_EPOCH)
    zf.writestr(info, buf.getvalue())


def _grid_meta(grid: AttributeGrid) -> dict:
    return {
        "origin_lon": grid.origin.lon,
        "origin_lat": grid.origin.lat,
        "cell_size": grid.cell_size,
    }


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset bundle: a zip of npy arrays plus a JSON manifest.

    Zip entries are stored uncompressed and carry a fixed timestamp, so
    identical datasets produce byte-identical files. The zip is written to a temporary file and renamed
    over ``path``, so a failed save leaves the old bundle in place.
    """
    manifest: dict = {
        "version": BUNDLE_SCHEMA_VERSION,
        "stations": [
            {
                "id": s.id,
                "lon": s.attributes.location.lon,
                "lat": s.attributes.location.lat,
                "dem": s.attributes.dem,
                "ndvi": s.attributes.ndvi,
                "n_obs": len(s),
            }
            for s in sorted(dataset.stations, key=lambda s: s.id)
        ],
        "grids": {"dem": _grid_meta(dataset.dem), "ndvi": _grid_meta(dataset.ndvi)},
    }

    def write(fh) -> None:
        with zipfile.ZipFile(fh, "w") as zf:
            for name, grid in (("dem", dataset.dem), ("ndvi", dataset.ndvi)):
                _write_npy(zf, f"grid_{name}_values.npy", grid.values)
                _write_npy(zf, f"grid_{name}_mask.npy", grid.mask)
            for s in sorted(dataset.stations, key=lambda s: s.id):
                _write_npy(zf, f"station_{s.id}_ts.npy", s.timestamps)
                _write_npy(zf, f"station_{s.id}_obs.npy", s.raw)
            info = zipfile.ZipInfo("manifest.json", date_time=_BUNDLE_EPOCH)
            zf.writestr(info, json.dumps(manifest, sort_keys=True, indent=2))

    write_atomically(path, write, binary=True)


def load_dataset(path: str | os.PathLike) -> Dataset:
    """The dataset :func:`save_dataset` wrote; FormatError for any bundle it could not have."""
    # On corrupted bytes zipfile, json and numpy's header parser raise errors of
    # many types (BadZipFile, OSError, NotImplementedError, TokenError, ...).
    try:
        zf = zipfile.ZipFile(path)
    except Exception as exc:
        raise FormatError(f"not a dataset bundle: {exc}") from exc
    with zf:

        def read(name: str, parse: Callable[[bytes], object]):
            try:
                return parse(zf.read(name))
            except KeyError as exc:
                raise FormatError(f"bundle missing entry {name}") from exc
            except Exception as exc:
                raise FormatError(f"bundle entry {name} is unreadable: {exc}") from exc

        def read_npy(name: str) -> np.ndarray:
            return read(name, lambda data: np.lib.format.read_array(io.BytesIO(data)))

        manifest = read("manifest.json", json.loads)
        if not isinstance(manifest, dict):
            raise FormatError(f"bundle manifest is not a JSON object: {type(manifest).__name__}")
        if manifest.get("version") != BUNDLE_SCHEMA_VERSION:
            raise UnsupportedVersionError(
                f"unsupported bundle version: {manifest.get('version')!r}"
            )

        try:  # a manifest value that is missing or of the wrong type is a FormatError
            grids: dict[str, AttributeGrid] = {}
            for name in ("dem", "ndvi"):
                meta = manifest["grids"][name]
                lon, lat, cell_size = finite_numbers(
                    [meta[k] for k in ("origin_lon", "origin_lat", "cell_size")], 3,
                    f"grid {name} geometry")
                grids[name] = AttributeGrid(GeoPoint(lon, lat), cell_size,
                                            read_npy(f"grid_{name}_values.npy"),
                                            read_npy(f"grid_{name}_mask.npy"))
            stations = []
            for row in manifest["stations"]:
                lon, lat, dem, ndvi = finite_numbers(
                    [row[k] for k in ("lon", "lat", "dem", "ndvi")], 4,
                    f"station {row['id']} attributes")
                attrs = StationAttributes(GeoPoint(lon, lat), dem, ndvi)
                try:
                    series = StationSeries(row["id"], attrs, read_npy(f"station_{row['id']}_ts.npy"),
                                           read_npy(f"station_{row['id']}_obs.npy"))
                except DataError as exc:
                    raise FormatError(f"bad bundle: {exc}") from exc
                if row.get("n_obs") != len(series):
                    raise FormatError(f"station {series.id} manifest n_obs is {row.get('n_obs')!r} "
                                      f"but its arrays hold {len(series)} rows")
                bad = validate_series(series)
                if bad:
                    raise FormatError(f"station {series.id} row {bad[0].index}: {bad[0].field} "
                                      f"breaks rule {bad[0].rule!r}")
                stations.append(series)
        except FormatError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed manifest: {exc}") from exc
    return Dataset(tuple(stations), grids["dem"], grids["ndvi"])


def _read_utf8(path: Path) -> str:
    """The text of ``path``; a file that is not UTF-8 is a FormatError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def ingest_directory(
    stations_dir: str | os.PathLike,
    dem: AttributeGrid,
    ndvi: AttributeGrid,
    boundary: BoundaryPolygon | None = None,
    cell_size: float | None = None,
) -> tuple[Dataset, dict[StationId, int]]:
    """Full ingestion pipeline from a directory of station files.

    ``stations_dir`` must contain ``stations.json`` (id -> lon/lat) and one
    ``<id>.csv`` per station, whose id is a non-empty string without ``/`` or
    ``\\``. Grids are optionally resampled, masked to the boundary, and used
    to look up each station's DEM and NDVI attributes.
    Returns the dataset plus per-station dropped-row counts. A missing,
    malformed or non-UTF-8 file raises FormatError.
    """
    base = Path(stations_dir)
    locations_path = base / "stations.json"
    if not locations_path.exists():
        raise FormatError(f"missing stations.json in {base}")
    try:
        listing = json.loads(_read_utf8(locations_path))
        entries = []
        for e in listing["stations"]:
            sid = e["id"]  # a file name in base, checked before any CSV is read
            if not isinstance(sid, str) or not sid or {"/", "\\"} & set(sid):
                raise FormatError(f"station id must be a non-empty string without / or \\: {e!r}")
            entries.append((sid, GeoPoint(*finite_numbers([e["lon"], e["lat"]], 2,
                                                          f"station {sid} location"))))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"malformed stations.json: {exc}") from exc
    if cell_size is not None:
        dem = resample_grid(dem, cell_size)
        ndvi = resample_grid(ndvi, cell_size)
    if boundary is not None:
        dem = apply_boundary_mask(dem, boundary)
        ndvi = apply_boundary_mask(ndvi, boundary)
    if not dem.same_geometry(ndvi):
        raise DataError("dem and ndvi grids must share geometry after preparation")
    stations: list[StationSeries] = []
    drops: dict[StationId, int] = {}
    for sid, location in entries:
        csv_path = base / f"{sid}.csv"
        if not csv_path.exists():
            raise FormatError(f"missing station file {csv_path}")
        attrs = StationAttributes(
            location,
            lookup_attribute(dem, location),
            lookup_attribute(ndvi, location),
        )
        series, dropped = parse_station_csv(_read_utf8(csv_path), sid, attrs)
        stations.append(series)
        drops[sid] = dropped
    return Dataset(tuple(stations), dem, ndvi), drops
