"""Closed-form synthetic worlds for end-to-end testing and benchmarks.

A world is a smooth temperature field over a lon/lat region: a regional
mean, a diurnal cycle, an elevation lapse, and a handful of slowly
traveling spatial harmonics. Because the harmonics drift in time, nearby
stations stay strongly correlated while distant ones decorrelate, which is
what makes off-site prediction quality distance-dependent. Station samples
add seeded Gaussian noise on top of the analytic truth, so every derived
quantity has an exact reference to test against.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import GeoPoint, StationAttributes, StationSeries, write_atomically
from .errors import DomainError, FormatError
from .ingest import CSV_HEADER, AttributeGrid, BoundaryPolygon, boundary_to_json
from .ingest import write_ascii_grid

MINUTES_PER_DAY = 1440
#: Upper bounds on a world's size, far above any world the tests or benchmarks
#: build (75 stations, 100 x 100 cells, 756,000 station samples), so a spec that
#: could never be built is refused before anything is allocated. A sample is one
#: station's reading at one time: 48 bytes, so MAX_SAMPLES is 2.4 GB of series.
MAX_STATIONS = 10_000
MAX_GRID_CELLS = 10_000_000
MAX_SAMPLES = 50_000_000


@dataclass(frozen=True)
class WorldSpec:
    """Knobs for one synthetic world; every field has a sane default."""

    seed: int = 0
    n_stations: int = 75
    lon_min: float = 145.0
    lon_max: float = 150.0
    lat_min: float = -35.0
    lat_max: float = -30.0
    cell_size: float = 0.05
    days: int = 7
    sample_interval: int = 1
    mean_temp: float = 3.0
    diurnal_amplitude: float = 5.0
    lapse_rate: float = 0.0065
    dem_relief: float = 600.0
    harmonic_amplitudes: tuple[float, ...] = (1.6, 1.1, 0.7)
    noise_sd: float = 0.5
    start_minute: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0: {self.seed!r}")
        if not 5 <= self.n_stations <= MAX_STATIONS:
            raise DomainError(f"n_stations must be 5 to {MAX_STATIONS}: {self.n_stations!r}")
        if self.days < 1:
            raise DomainError(f"days must be >= 1: {self.days!r}")
        if not 1 <= self.sample_interval <= self.days * MINUTES_PER_DAY:
            raise DomainError(f"sample_interval must be 1 to days * {MINUTES_PER_DAY}: "
                              f"{self.sample_interval!r}")
        samples = self.n_stations * (self.days * MINUTES_PER_DAY // self.sample_interval)
        if samples > MAX_SAMPLES:
            raise DomainError(f"the spec makes {samples} station samples; at most {MAX_SAMPLES} fit")
        if not -2**63 <= self.start_minute <= 2**63 - 1 - self.days * MINUTES_PER_DAY:
            raise DomainError(f"the world's minutes must fit in int64: start {self.start_minute!r}, "
                              f"{self.days!r} days")
        if self.noise_sd < 0:
            raise DomainError(f"noise_sd must be >= 0: {self.noise_sd!r}")
        if not (self.lon_min < self.lon_max and self.lat_min < self.lat_max):
            raise DomainError("region extents must be non-empty")
        if not (-180 <= self.lon_min and self.lon_max <= 180 and -90 <= self.lat_min
                and self.lat_max <= 90):
            raise DomainError("region must lie within longitudes ±180 and latitudes ±90")
        if self.cell_size <= 0:
            raise DomainError(f"cell_size must be > 0: {self.cell_size!r}")
        cells = ((self.lon_max - self.lon_min) / self.cell_size
                 * ((self.lat_max - self.lat_min) / self.cell_size))
        if not cells <= MAX_GRID_CELLS:
            raise DomainError(f"cell_size {self.cell_size!r} makes a grid of {cells:.3g} cells; "
                              f"at most {MAX_GRID_CELLS} fit")
        if self.dem_relief < 0:
            raise DomainError(f"dem_relief must be >= 0: {self.dem_relief!r}")
        if isinstance(self.harmonic_amplitudes, list):
            object.__setattr__(self, "harmonic_amplitudes", tuple(self.harmonic_amplitudes))


class _HarmonicField:
    """Sum of seeded 2-D sinusoids with unit total amplitude."""

    def __init__(self, rng: np.random.Generator, n_terms: int, wavelength_range: tuple[float, float]):
        amps = rng.uniform(0.5, 1.0, n_terms)
        self.amps = amps / amps.sum()
        wavelengths = rng.uniform(*wavelength_range, n_terms)
        angles = rng.uniform(0.0, 2.0 * math.pi, n_terms)
        self.fx = np.cos(angles) / wavelengths
        self.fy = np.sin(angles) / wavelengths
        self.phases = rng.uniform(0.0, 2.0 * math.pi, n_terms)

    def __call__(self, lon, lat):
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        out = np.zeros(np.broadcast(lon, lat).shape)
        for a, fx, fy, ph in zip(self.amps, self.fx, self.fy, self.phases):
            out += a * np.sin(2.0 * math.pi * (fx * lon + fy * lat) + ph)
        return out


class TruthField:
    """Noiseless world: queryable temperature, elevation, and NDVI surfaces."""

    def __init__(self, spec: WorldSpec):
        self.spec = spec
        root = np.random.SeedSequence((spec.seed, 0x7EA7))
        dem_rng, ndvi_rng, wave_rng = (np.random.default_rng(s) for s in root.spawn(3))
        span = min(spec.lon_max - spec.lon_min, spec.lat_max - spec.lat_min)
        self._dem_field = _HarmonicField(dem_rng, 4, (span * 0.3, span * 1.2))
        self._ndvi_field = _HarmonicField(ndvi_rng, 4, (span * 0.25, span * 1.0))
        n_waves = len(spec.harmonic_amplitudes)
        self._wave = _HarmonicField(wave_rng, max(n_waves, 1), (span * 0.3, span * 0.9))
        # Traveling-wave periods between 5 hours and 1.5 days.
        self._wave_omega = 2.0 * math.pi / wave_rng.uniform(300.0, 2160.0, max(n_waves, 1))
        self._wave_amps = np.asarray(spec.harmonic_amplitudes, dtype=np.float64)
        if self._wave_amps.size == 0:
            self._wave_amps = np.zeros(1)

    def dem(self, lon, lat):
        """Elevation in meters, guaranteed non-negative."""
        raw = self._dem_field(lon, lat)  # in [-1, 1]
        return self.spec.dem_relief * 0.5 * (raw + 1.0)

    def ndvi(self, lon, lat):
        """Vegetation index squashed into (-1, 1)."""
        return np.tanh(1.5 * self._ndvi_field(lon, lat))

    def temperature(self, lon, lat, minutes):
        """Noiseless air temperature at (lon, lat) and absolute minute(s)."""
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        minutes = np.asarray(minutes, dtype=np.float64)
        tod = 2.0 * math.pi * (minutes % MINUTES_PER_DAY) / MINUTES_PER_DAY
        # Warmest mid-afternoon (14:00), coldest overnight.
        diurnal = self.spec.diurnal_amplitude * np.cos(tod - 2.0 * math.pi * 14.0 / 24.0)
        base = self.spec.mean_temp + diurnal - self.spec.lapse_rate * self.dem(lon, lat)
        for k, amp in enumerate(self._wave_amps):
            base = base + amp * np.sin(
                2.0 * math.pi * (self._wave.fx[k] * lon + self._wave.fy[k] * lat)
                - self._wave_omega[k] * minutes
                + self._wave.phases[k]
            )
        return base


@dataclass(frozen=True)
class SynthWorld:
    spec: WorldSpec
    truth: TruthField
    stations: tuple[StationSeries, ...]
    dem: AttributeGrid
    ndvi: AttributeGrid
    boundary: BoundaryPolygon


def _magnus_gamma(t: np.ndarray) -> np.ndarray:
    return 17.625 * t / (243.04 + t)


def relative_humidity(temperature: np.ndarray, dew_point: np.ndarray) -> np.ndarray:
    """Magnus-formula RH in (0, 100]; requires dew point <= temperature."""
    rh = 100.0 * np.exp(_magnus_gamma(dew_point) - _magnus_gamma(temperature))
    return np.clip(rh, 1e-6, 100.0)


def _station_grid(spec: WorldSpec, truth: TruthField) -> tuple[AttributeGrid, AttributeGrid]:
    ncols = max(2, int(round((spec.lon_max - spec.lon_min) / spec.cell_size)))
    nrows = max(2, int(round((spec.lat_max - spec.lat_min) / spec.cell_size)))
    origin = GeoPoint(spec.lon_min + spec.cell_size / 2.0, spec.lat_min + spec.cell_size / 2.0)
    lon = origin.lon + np.arange(ncols) * spec.cell_size
    lat = origin.lat + np.arange(nrows) * spec.cell_size
    lon_g, lat_g = np.meshgrid(lon, lat)
    mask = np.ones(lon_g.shape, dtype=bool)
    dem = AttributeGrid(origin, spec.cell_size, truth.dem(lon_g, lat_g), mask)
    ndvi = AttributeGrid(origin, spec.cell_size, truth.ndvi(lon_g, lat_g), mask)
    return dem, ndvi


def generate_world(spec: WorldSpec) -> SynthWorld:
    """Build the full world: truth field, grids, stations, boundary.

    Identical specs produce identical worlds, bit for bit. With
    ``noise_sd=0`` every station temperature equals the truth field at the
    station's location exactly. A spec whose finite numbers overflow a grid
    cell or a station value is a DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        world = _build_world(spec)
    for name, values in [("dem grid", world.dem.values), ("ndvi grid", world.ndvi.values),
                         *((f"station {s.id}", s.raw) for s in world.stations)]:
        if not np.isfinite(values).all():
            raise DomainError(f"the spec's numbers overflow: {name} has non-finite values")
    return world


def _build_world(spec: WorldSpec) -> SynthWorld:
    truth = TruthField(spec)
    dem_grid, ndvi_grid = _station_grid(spec, truth)

    root = np.random.SeedSequence((spec.seed, 0x57A7))
    place_rng = np.random.default_rng(root.spawn(1)[0])
    lon_margin = 0.03 * (spec.lon_max - spec.lon_min)
    lat_margin = 0.03 * (spec.lat_max - spec.lat_min)
    lons = place_rng.uniform(spec.lon_min + lon_margin, spec.lon_max - lon_margin, spec.n_stations)
    lats = place_rng.uniform(spec.lat_min + lat_margin, spec.lat_max - lat_margin, spec.n_stations)

    n_samples = spec.days * MINUTES_PER_DAY // spec.sample_interval
    minutes = spec.start_minute + np.arange(n_samples, dtype=np.int64) * spec.sample_interval

    stations: list[StationSeries] = []
    station_seeds = np.random.SeedSequence((spec.seed, 0x0B5E)).spawn(spec.n_stations)
    for i in range(spec.n_stations):
        rng = np.random.default_rng(station_seeds[i])
        loc = GeoPoint(float(lons[i]), float(lats[i]))
        attrs = StationAttributes(loc, float(truth.dem(loc.lon, loc.lat)),
                                  float(truth.ndvi(loc.lon, loc.lat)))
        temp = truth.temperature(loc.lon, loc.lat, minutes)
        if spec.noise_sd > 0:
            temp = temp + rng.normal(0.0, spec.noise_sd, n_samples)
        dew_base = rng.uniform(1.5, 5.0)
        dew_wiggle = rng.uniform(0.0, 1.0)
        dew_phase = rng.uniform(0.0, 2.0 * math.pi)
        offset = dew_base + dew_wiggle * 0.5 * (
            1.0 + np.sin(2.0 * math.pi * minutes / MINUTES_PER_DAY + dew_phase)
        )
        dew = temp - offset
        rh = relative_humidity(temp, dew)
        speed_base = rng.uniform(1.0, 6.0)
        speed_swing = rng.uniform(0.0, 3.0)
        speed_phase = rng.uniform(0.0, 2.0 * math.pi)
        speed = np.abs(
            speed_base + speed_swing * np.sin(2.0 * math.pi * minutes / (MINUTES_PER_DAY / 2) + speed_phase)
        )
        dir_base = rng.uniform(0.0, 360.0)
        dir_swing = rng.uniform(10.0, 90.0)
        dir_phase = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.mod(
            dir_base + dir_swing * np.sin(2.0 * math.pi * minutes / MINUTES_PER_DAY + dir_phase), 360.0
        )
        raw = np.column_stack([temp, dew, rh, speed, direction])
        stations.append(StationSeries(str(10001 + i), attrs, minutes, raw))

    ring = (
        GeoPoint(spec.lon_min, spec.lat_min),
        GeoPoint(spec.lon_max, spec.lat_min),
        GeoPoint(spec.lon_max, spec.lat_max),
        GeoPoint(spec.lon_min, spec.lat_max),
    )
    return SynthWorld(spec, truth, tuple(stations), dem_grid, ndvi_grid, BoundaryPolygon((ring,)))


def _is_finite_number(value) -> bool:
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def spec_from_json(text: str) -> WorldSpec:
    """Parse a world spec: integer fields take JSON integers (not booleans),
    every other field and each amplitude a finite number."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"world spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("world spec must be a JSON object")
    fields = WorldSpec.__dataclass_fields__
    unknown = set(doc) - set(fields)
    if unknown:
        raise FormatError(f"unknown world spec fields: {sorted(unknown)}")
    for name, value in doc.items():
        default = fields[name].default
        if isinstance(default, tuple):
            if not isinstance(value, list) or not all(map(_is_finite_number, value)):
                raise FormatError(f"world spec {name} must be a list of finite numbers: {value!r}")
            doc[name] = tuple(value)
        elif isinstance(default, int):
            if type(value) is not int:
                raise FormatError(f"world spec {name} must be an integer: {value!r}")
        elif not _is_finite_number(value):
            raise FormatError(f"world spec {name} must be a finite number: {value!r}")
    try:
        return WorldSpec(**doc)
    except (TypeError, DomainError) as exc:
        raise FormatError(f"bad world spec: {exc}") from exc


def write_world(world: SynthWorld, directory: str | os.PathLike) -> None:
    """Emit the world in exactly the formats the ingest pipeline consumes.

    Each file is written to a temporary file and renamed over its final name.
    """
    base = Path(directory)
    (base / "stations").mkdir(parents=True, exist_ok=True)
    listing = {
        "stations": [
            {"id": s.id, "lon": s.attributes.location.lon, "lat": s.attributes.location.lat}
            for s in world.stations
        ]
    }
    spec_doc = asdict(world.spec)
    spec_doc["harmonic_amplitudes"] = list(world.spec.harmonic_amplitudes)
    texts = {
        "dem.asc": write_ascii_grid(world.dem),
        "ndvi.asc": write_ascii_grid(world.ndvi),
        "boundary.json": boundary_to_json(world.boundary),
        "stations/stations.json": json.dumps(listing, sort_keys=True, indent=2),
        "world.json": json.dumps(spec_doc, sort_keys=True, indent=2),
    }
    for name, text in texts.items():
        write_atomically(base / name, lambda fh: fh.write(text))
    for s in world.stations:
        lines = [",".join(CSV_HEADER)]
        for t, (temp, dew, rh, speed, direction) in zip(s.timestamps.tolist(), s.raw.tolist()):
            lines.append(f"{t},{temp!r},{dew!r},{rh!r},{speed!r},{direction!r}")
        text = "\n".join(lines) + "\n"
        write_atomically(base / "stations" / f"{s.id}.csv", lambda fh: fh.write(text))
