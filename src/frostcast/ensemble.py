"""Per-station predictor bank and attribute-weighted aggregation.

One submodel is trained per source station, each mapping that station's
current conditions (plus both stations' static attributes) to the target
site's next-window minimum temperature. A :class:`SubmodelBank` is its
one-file manifest in memory, the held-out stations' on-site baselines
included. One helper fits every network (scale, initialise, train) and one
runs it (scale, forward, un-scale); ``SubmodelBank.predict_batch`` is the
submodels' inference path, for one target site or per-row target attributes.

Weights follow w_i = 1 / (a*g_i + b*d_i + c*n_i) where g, d, n are
min-max-normalized geographic, elevation, and vegetation-index distances
(:func:`attribute_weights`). The normalization bounds are frozen on the full
training-station set of a fold, so removing stations from the available set
never changes the remaining stations' unnormalized weights.

:data:`AGGREGATORS` maps each aggregation method (plain averaging,
attribute-weighted averaging, weighted frost voting, and the weighted mean
of inverse-distance weights) to one function over a block of predictions;
evaluation and rasters both use it.

Training and inference use one process per available CPU through
:func:`map_in_workers`, the package's one pool: forked workers build each
submodel's corpus and train its network, and
``evaluate.build_prediction_matrices`` and :func:`calibrate_coefficients` run
every submodel at one target per task (:func:`_predictions_at_targets`). The
parent process holds OpenBLAS at one thread while the pool runs, so each
worker inherits a one-thread library. Results are identical whatever the
number of CPUs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .core import FoldAssignment, GeoPoint, StationAttributes, StationId, StationSeries, index_series
from .core import finite_numbers, write_atomically
from .errors import DataError, DomainError, FormatError, UnsupportedVersionError
from .features import (
    DEFAULT_HORIZON,
    MAX_HORIZON,
    ScalerStats,
    StationFrame,
    apply_scaler,
    fit_scaler_arrays,
    invert_label,
    join_pair_arrays,
    join_timestamps,
    scale_label,
    station_frame,
)
from .neuralnet import Network, NetworkSpec, SUBMODEL_SPEC, TrainConfig, forward_batch
from .neuralnet import init_network, network_from_dict, network_to_dict, train

#: Lower clamp for the weight denominator; a station matching the target in
#: every attribute would otherwise divide by zero.
WEIGHT_EPSILON = 1e-6

BANK_SCHEMA_VERSION = 3

#: Share of each held-out station's labels, earliest first, that its on-site
#: baseline trains on; the rest is scored.
BASELINE_TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class WeightCoefficients:
    """Relative importance of geographic, elevation, and NDVI distance."""

    geo: float
    dem: float
    ndvi: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.geo, self.dem, self.ndvi))):
            raise DomainError(f"coefficients must be finite: {self!r}")
        if self.geo < 0 or self.dem < 0 or self.ndvi < 0:
            raise DomainError("coefficients must be non-negative")
        if self.geo + self.dem + self.ndvi <= 0:
            raise DomainError("at least one coefficient must be positive")


#: Calibration result when no distance correlates with error at all.
FALLBACK_COEFFICIENTS = WeightCoefficients(1.0, 0.0, 0.0)

#: Published per-fold coefficient presets, keyed by fold index.
FOLD_COEFFICIENT_PRESETS: dict[int, WeightCoefficients] = {
    0: WeightCoefficients(0.1629, 0.0132, 0.0290),
    1: WeightCoefficients(0.1768, 0.0205, 0.0238),
    2: WeightCoefficients(0.1612, 0.0222, 0.0177),
    3: WeightCoefficients(0.1804, 0.0114, 0.0269),
    4: WeightCoefficients(0.1601, 0.0110, 0.0260),
}


class DistanceTriple(NamedTuple):
    geo: float
    dem: float
    ndvi: float


def station_distances(source: StationAttributes, target: StationAttributes) -> DistanceTriple:
    """Raw (geographic, elevation, NDVI) separations between two sites."""
    geo = math.hypot(source.location.lon - target.location.lon,
                     source.location.lat - target.location.lat)
    return DistanceTriple(geo, abs(source.dem - target.dem), abs(source.ndvi - target.ndvi))


@dataclass(frozen=True)
class DistanceNormalization:
    """Frozen min-max bounds for each distance dimension."""

    geo: tuple[float, float]
    dem: tuple[float, float]
    ndvi: tuple[float, float]

    def normalize(self, triples: np.ndarray) -> np.ndarray:
        """Map raw (..., 3) distance rows into [0, 1] per dimension.

        A degenerate dimension (min == max) maps to 0. The output is
        clipped, so sites outside the frozen bounds saturate instead of
        extrapolating.
        """
        triples = np.asarray(triples, dtype=np.float64)
        out = np.empty_like(triples)
        for k, (lo, hi) in enumerate((self.geo, self.dem, self.ndvi)):
            span = hi - lo
            out[..., k] = 0.0 if span <= 0 else (triples[..., k] - lo) / span
        return np.clip(out, 0.0, 1.0, out=out)


def fit_normalization(attrs: Sequence[StationAttributes]) -> DistanceNormalization:
    """Bounds over all distinct ordered pairs of the given stations."""
    if len(attrs) < 2:
        raise DataError("normalization needs at least two stations")
    triples = np.array(
        [station_distances(a, b) for i, a in enumerate(attrs) for j, b in enumerate(attrs) if i != j]
    )
    lo, hi = triples.min(axis=0), triples.max(axis=0)
    return DistanceNormalization((float(lo[0]), float(hi[0])),
                                 (float(lo[1]), float(hi[1])),
                                 (float(lo[2]), float(hi[2])))


def attribute_weights(normalized: np.ndarray, coefficients: WeightCoefficients) -> np.ndarray:
    """Unnormalized weights ``1 / max(a*g + b*d + c*n, WEIGHT_EPSILON)`` of (..., 3) distances."""
    normalized = np.asarray(normalized, dtype=np.float64)
    denom = (coefficients.geo * normalized[..., 0] + coefficients.dem * normalized[..., 1]
             + coefficients.ndvi * normalized[..., 2])
    return 1.0 / np.maximum(denom, WEIGHT_EPSILON)


def _fit(spec: NetworkSpec, seed: int, x: np.ndarray, y: np.ndarray,
         cfg: TrainConfig) -> tuple[Network, ScalerStats]:
    """A network of ``spec`` trained on scaled (x, y), and the scaler fitted to them."""
    scaler = fit_scaler_arrays(x, y)
    net, _ = train(init_network(spec, seed=seed), apply_scaler(scaler, x),
                   np.asarray(scale_label(scaler, y)), cfg)
    return net, scaler


def _predict(net: Network, scaler: ScalerStats, x: np.ndarray) -> np.ndarray:
    """Predictions in label units from a network fitted by :func:`_fit` on raw rows ``x``."""
    scaled = forward_batch(net, apply_scaler(scaler, x))
    return np.asarray(invert_label(scaler, scaled), dtype=np.float64)


@dataclass
class SubmodelBank:
    """Everything needed to predict at arbitrary sites for one fold: its manifest, in memory.

    ``models`` and ``scalers`` hold one submodel per training station.
    ``baselines`` maps held-out stations to on-site ``(network, scaler)``
    pairs, each trained on the first ``baseline_train_fraction`` of its
    station's labels; the ``baseline`` evaluation method scores them.
    """

    fold: int
    horizon: int
    models: dict[StationId, Network]
    scalers: dict[StationId, ScalerStats]
    station_attrs: dict[StationId, StationAttributes]
    coefficients: WeightCoefficients
    normalization: DistanceNormalization
    baselines: dict[StationId, tuple[Network, ScalerStats]] = field(default_factory=dict)
    baseline_train_fraction: float = BASELINE_TRAIN_FRACTION

    @property
    def station_ids(self) -> list[StationId]:
        return sorted(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def predict_batch(
        self,
        source_id: StationId,
        climate: np.ndarray,
        target_attrs: StationAttributes | np.ndarray,
    ) -> np.ndarray:
        """Predictions from one submodel for an (n, 5) climate block.

        ``target_attrs`` is one site for every row, or an (n, 4) array of
        per-row (lon, lat, dem, ndvi) target attributes.
        """
        if source_id not in self.models:
            raise DataError(f"unknown source station: {source_id}")
        climate = np.asarray(climate, dtype=np.float64)
        if climate.ndim != 2 or climate.shape[1] != 5:
            raise DataError(f"expected (n, 5) climate block, got {climate.shape}")
        if isinstance(target_attrs, StationAttributes):
            target_attrs = target_attrs.as_tuple()
        elif np.shape(target_attrs) != (climate.shape[0], 4):
            raise DataError(f"expected ({climate.shape[0]}, 4) target attributes, "
                            f"got {np.shape(target_attrs)}")
        x = np.empty((climate.shape[0], 13), dtype=np.float64)
        x[:, 0:4] = self.station_attrs[source_id].as_tuple()
        x[:, 4:8] = target_attrs
        x[:, 8:13] = climate
        return _predict(self.models[source_id], self.scalers[source_id], x)

    def weights_for_target(self, target_attrs: StationAttributes) -> dict[StationId, float]:
        """Every bank station's weight at a target site, summing to one.

        The min-max bounds are frozen per fold, so a bank restricted to a
        subset of these stations gives the subset's weights renormalized.
        """
        ids = self.station_ids
        if not ids:
            raise DataError("no stations available for weighting")
        raw = np.array([station_distances(self.station_attrs[i], target_attrs) for i in ids])
        w = attribute_weights(self.normalization.normalize(raw), self.coefficients)
        w /= w.sum()
        return dict(zip(ids, w))


def _masked_weighted_mean(
    values: np.ndarray, available: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise weighted mean over the available rows of a (k, n) block.

    ``weights`` is (k,) per row or (k, n) per cell. Returns (mean, valid);
    a column is valid when its available weights sum above zero.
    """
    weights = np.asarray(weights, dtype=np.float64)
    w = (weights[:, None] if weights.ndim == 1 else weights) * available
    total = w.sum(axis=0)
    valid = total > 0
    safe_total = np.where(valid, total, 1.0)
    mean = (w * np.where(available, values, 0.0)).sum(axis=0) / safe_total
    return mean, valid


def _average(values, available, weights, trigger=0.0):
    return _masked_weighted_mean(values, available, np.ones(len(values)))


def _weighted_average(values, available, weights, trigger=0.0):
    return _masked_weighted_mean(values, available, weights)


def _weighted_vote(values, available, weights, trigger=0.0):
    """Weighted frost vote: +1 strictly below the trigger, -1 otherwise.

    The tie (score exactly zero) counts as frost; a missed frost is the
    expensive mistake, so ambiguity resolves toward warning.
    """
    score, valid = _masked_weighted_mean(np.where(values < trigger, 1.0, -1.0), available, weights)
    return score >= 0.0, valid


#: Aggregation method -> ``fn(values, available, weights, trigger)`` over a (k, n)
#: block of k sources' predictions, its availability mask and (k,) or (k, n)
#: weights; returns (n,) (prediction, valid). ``idw`` is the weighted mean of
#: inverse-distance weights, and ``average`` ignores the weights it is given.
AGGREGATORS: dict[str, Callable] = {
    "average": _average,
    "weighted_average": _weighted_average,
    "weighted_vote": _weighted_vote,
    "idw": _weighted_average,
}


def _child_seed(base: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((base, index)))


@functools.lru_cache(maxsize=None)
def _blas_thread_controls():
    """numpy's OpenBLAS ``(get_num_threads, set_num_threads)``, or None when not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread inside the block, where its controls resolve."""
    get_threads, set_threads = _blas_thread_controls() or (lambda: None, lambda n: None)
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


_worker_task: Callable | None = None  # in a pool worker, the task its pool runs


def _start_worker(task: Callable) -> None:
    global _worker_task
    _worker_task = task


def _run_worker_task(index: int):
    return _worker_task(index)


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def map_in_workers(task: Callable[[int], object], n: int) -> Iterator:
    """Yield ``task(0)``, ..., ``task(n - 1)``, run on one forked worker per CPU.

    Every index is queued at once. Results, and the first error, come back
    in index order, as the in-process loop gives them. Work stays in-process
    for one CPU or task, inside a daemonic process (which may not have
    children), and when OpenBLAS's thread count cannot be read and set.

    BLAS threads on top of one worker per CPU oversubscribe, and calling
    ``set_num_threads`` in a forked worker starts an OpenBLAS server thread
    that spins through its first tasks. So the parent holds OpenBLAS at one
    thread until the pool has shut down; the workers fork at the first
    submit and inherit it. Fork, unlike spawn, skips re-importing numpy in
    every worker (about 0.5 s a call) and hands over ``task`` unpickled.
    """
    jobs = min(_worker_count(), n)
    if jobs < 2 or multiprocessing.current_process().daemon or _blas_thread_controls() is None:
        yield from map(task, range(n))
        return
    with _one_blas_thread():
        pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start_worker, initargs=(task,))
        try:
            yield from pool.map(_run_worker_task, range(n))
        finally:
            pool.shutdown(cancel_futures=True)


def _prediction_block(bank: SubmodelBank, sources: list[StationFrame],
                      targets: list[StationFrame], idx: int) -> np.ndarray:
    """Each source's predictions at ``targets[idx]``; NaN where unobserved or where source is target."""
    target = targets[idx]
    values = np.full((len(sources), target.labels.size), np.nan)
    for i, source in enumerate(sources):
        if source.id == target.id:
            continue
        _, src_idx, lab_idx = join_timestamps(source.timestamps, target.label_timestamps)
        if lab_idx.size:
            values[i, lab_idx] = bank.predict_batch(source.id, source.climate[src_idx],
                                                    target.attributes)
    return values


def _predictions_at_targets(bank: SubmodelBank, frames: Mapping[StationId, StationFrame],
                            targets: list[StationFrame]) -> tuple[list[StationId], list]:
    """(source ids, one :func:`_prediction_block` per target frame).

    The sources are the bank's stations with a frame in ``frames``, in bank
    order. Each target is one ``map_in_workers`` task.
    """
    sources = [frames[sid] for sid in bank.station_ids if sid in frames]
    task = functools.partial(_prediction_block, bank, sources, targets)
    return [s.id for s in sources], list(map_in_workers(task, len(targets)))


def _train_submodel(frames: Mapping[StationId, StationFrame], train_ids, test_ids, cfg: TrainConfig,
                    max_entries: int | None, idx: int) -> tuple[Network, ScalerStats, int]:
    """Build source ``train_ids[idx]``'s corpus and train it: (network, scaler, entries)."""
    source_id = train_ids[idx]
    assert source_id not in test_ids
    blocks_x, blocks_y = [], []
    for target_id in train_ids:
        if target_id == source_id:
            continue
        assert target_id not in test_ids
        x, y, _ = join_pair_arrays(frames[source_id], frames[target_id])
        if x.shape[0]:
            blocks_x.append(x)
            blocks_y.append(y)
    if not blocks_x:
        raise DataError(f"station {source_id} shares no timestamps with any target")
    x = np.concatenate(blocks_x)
    y = np.concatenate(blocks_y)
    if max_entries is not None and x.shape[0] > max_entries:
        keep = _child_seed(cfg.seed, idx).choice(x.shape[0], size=max_entries, replace=False)
        keep.sort()
        x, y = x[keep], y[keep]
    return *_fit(SUBMODEL_SPEC, int(cfg.seed * 100003 + idx), x, y, cfg), x.shape[0]


def train_bank(
    stations: Sequence[StationSeries],
    folds: FoldAssignment,
    fold: int,
    cfg: TrainConfig | None = None,
    horizon: int = DEFAULT_HORIZON,
    entry_stride: int = 1,
    max_entries: int | None = None,
    coefficients: WeightCoefficients | None = None,
    progress: bool = False,
) -> SubmodelBank:
    """Train one submodel per training station of ``fold``.

    Each submodel learns from every other training station's labels; the
    fold's held-out stations contribute nothing, which is asserted on the
    assembled examples. ``entry_stride`` thins the label stream before the
    join and ``max_entries`` caps the per-submodel corpus by a seeded draw.
    Each submodel's corpus is built and its network trained by one of
    ``map_in_workers``'s workers; models, progress lines and errors come
    back in station order, as a serial run gives them.
    """
    if not 0 <= fold < folds.n_folds:
        raise DomainError(f"fold index out of range: {fold}")
    cfg = cfg or TrainConfig()
    by_id = index_series(stations)
    train_ids = sorted(folds.train_stations(fold) & set(by_id))
    test_ids = folds.test_stations(fold)
    if len(train_ids) < 2:
        raise DataError("need at least two training stations")
    if entry_stride < 1:
        raise DomainError(f"entry_stride must be >= 1: {entry_stride!r}")
    if max_entries is not None and max_entries < 1:
        raise DomainError(f"max_entries must be >= 1: {max_entries!r}")

    # One frame per station, not per pair, keeping every entry_stride-th label.
    frames = {sid: station_frame(by_id[sid], horizon).thinned(entry_stride) for sid in train_ids}
    normalization = fit_normalization([by_id[i].attributes for i in train_ids])
    task = functools.partial(_train_submodel, frames, train_ids, test_ids, cfg, max_entries)
    models: dict[StationId, Network] = {}
    scalers: dict[StationId, ScalerStats] = {}
    for idx, (net, scaler, n_entries) in enumerate(map_in_workers(task, len(train_ids))):
        source_id = train_ids[idx]
        models[source_id] = net
        scalers[source_id] = scaler
        if progress:
            print(f"trained {source_id} on {n_entries} entries")
    attrs = {i: by_id[i].attributes for i in train_ids}
    return SubmodelBank(
        fold=fold,
        horizon=horizon,
        models=models,
        scalers=scalers,
        station_attrs=attrs,
        coefficients=coefficients or FALLBACK_COEFFICIENTS,
        normalization=normalization,
    )


def calibrate_coefficients(
    bank: SubmodelBank,
    stations: Sequence[StationSeries],
    stride: int = 1,
) -> WeightCoefficients:
    """Derive (geo, dem, ndvi) coefficients from error-distance correlation.

    For every (submodel, validation target) pair the per-prediction absolute
    error is correlated against each normalized distance; the coefficient is
    the magnitude of the Pearson correlation. If all three vanish the
    fallback (1, 0, 0) applies. ``stride`` keeps every stride-th label.
    """
    if stride < 1:
        raise DomainError(f"stride must be >= 1: {stride!r}")
    by_id = index_series(stations)
    if not any(sid in by_id for sid in bank.station_ids):
        raise DataError("none of the bank's source stations have series to calibrate on")
    # Every station is a source and a target; one thinned frame serves both roles.
    frames = {sid: station_frame(series, bank.horizon).thinned(stride)
              for sid, series in by_id.items()}
    targets = list(frames.values())
    source_ids, blocks = _predictions_at_targets(bank, frames, targets)
    dist_rows: list[np.ndarray] = []
    err_blocks: list[np.ndarray] = []
    for target, block in zip(targets, blocks):
        for source_id, preds in zip(source_ids, block):
            observed = ~np.isnan(preds)  # a source's row at its own site is all NaN
            if not observed.any():
                continue
            errors = np.abs(preds[observed] - target.labels[observed])
            raw = np.asarray(station_distances(bank.station_attrs[source_id], target.attributes))
            norm = bank.normalization.normalize(raw[None, :])[0]
            dist_rows.append(np.broadcast_to(norm, (errors.size, 3)))
            err_blocks.append(errors)
    if not err_blocks:
        raise DataError("no overlapping observations to calibrate on")
    dists = np.concatenate(dist_rows)
    errors = np.concatenate(err_blocks)
    geo = abs(pearson(dists[:, 0], errors))
    dem = abs(pearson(dists[:, 1], errors))
    ndvi = abs(pearson(dists[:, 2], errors))
    if geo + dem + ndvi == 0.0:
        return FALLBACK_COEFFICIENTS
    return WeightCoefficients(geo, dem, ndvi)


def save_bank(bank: SubmodelBank, directory: str | os.PathLike) -> None:
    """Persist a bank as one JSON document, ``<directory>/manifest.json``.

    Each ``stations`` entry carries a submodel's site attributes, network
    and scaler; a ``baselines`` map holds the on-site models beside
    ``baseline_train_fraction``. The document replaces the old one
    atomically, so a failed save leaves the previous bank whole. A
    ``baseline_train_fraction`` outside (0, 1), which :func:`load_bank`
    would refuse, is a DomainError before anything is written.
    """
    fraction = bank.baseline_train_fraction
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"baseline_train_fraction must be in (0, 1): {fraction!r}")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": BANK_SCHEMA_VERSION,
        "fold": bank.fold,
        "horizon": bank.horizon,
        "coefficients": asdict(bank.coefficients),
        "normalization": asdict(bank.normalization),
        "stations": [
            {"id": sid, "lon": a.location.lon, "lat": a.location.lat, "dem": a.dem, "ndvi": a.ndvi,
             "model": network_to_dict(bank.models[sid]), "scaler": asdict(bank.scalers[sid])}
            for sid, a in sorted(bank.station_attrs.items())
        ],
        "baselines": {sid: {"model": network_to_dict(net), "scaler": asdict(scaler)}
                      for sid, (net, scaler) in bank.baselines.items()},
        "baseline_train_fraction": bank.baseline_train_fraction,
    }
    # json.dumps, unlike json.dump, runs the C encoder: about half the time.
    write_atomically(path / "manifest.json", lambda fh: fh.write(json.dumps(doc, sort_keys=True)))


def _model_from_dict(entry: dict, what: str) -> tuple[Network, ScalerStats]:
    """The network and scaler of a ``stations`` or ``baselines`` entry."""
    net = network_from_dict(entry["model"])
    scaler, n = entry["scaler"], net.spec.input_dim
    return net, ScalerStats(finite_numbers(scaler["mean"], n, f"{what} scaler mean"),
                            finite_numbers(scaler["sd"], n, f"{what} scaler sd"),
                            *finite_numbers([scaler["label_mean"], scaler["label_sd"]], 2,
                                            f"{what} label scaler"))


def load_bank(directory: str | os.PathLike) -> SubmodelBank:
    """The bank that :func:`save_bank` wrote to ``directory``, from one read of its manifest.

    Raises FormatError when the manifest is missing, unreadable or
    malformed, and UnsupportedVersionError when another schema wrote it.
    """
    try:
        with open(Path(directory) / "manifest.json", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"manifest is not a JSON object: {type(doc).__name__}")
    if doc.get("version") != BANK_SCHEMA_VERSION:
        raise UnsupportedVersionError(f"unsupported bank version: {doc.get('version')!r}")
    # Every check below raises a ValueError (FormatError, DomainError, DataError) or
    # a KeyError/TypeError on a missing key or wrong container; all become FormatError.
    try:
        fold, horizon = doc["fold"], doc["horizon"]
        for name, value in (("fold", fold), ("horizon", horizon)):
            if type(value) is not int:
                raise FormatError(f"{name} must be an integer, got {value!r}")
        if not 1 <= horizon <= MAX_HORIZON:
            raise FormatError(f"horizon must be 1 to {MAX_HORIZON} minutes, got {horizon}")
        coeff = doc["coefficients"]
        coeff = WeightCoefficients(*finite_numbers([coeff[k] for k in ("geo", "dem", "ndvi")], 3,
                                                   "coefficients"))
        norm = DistanceNormalization(*(finite_numbers(doc["normalization"][k], 2,
                                                      f"normalization {k}")
                                       for k in ("geo", "dem", "ndvi")))
        attrs: dict[StationId, StationAttributes] = {}
        models: dict[StationId, Network] = {}
        scalers: dict[StationId, ScalerStats] = {}
        for row in doc["stations"]:
            sid = row["id"]
            if type(sid) is not str or not sid or sid in attrs:
                raise FormatError(f"station id must be a distinct non-empty string, got {sid!r}")
            lon, lat, dem, ndvi = finite_numbers([row[k] for k in ("lon", "lat", "dem", "ndvi")],
                                                 4, f"station {sid} attributes")
            attrs[sid] = StationAttributes(GeoPoint(lon, lat), dem, ndvi)
            models[sid], scalers[sid] = _model_from_dict(row, f"station {sid}")
        if not isinstance(doc["baselines"], dict):
            raise FormatError(f"baselines must be an object, got {doc['baselines']!r}")
        baselines = {sid: _model_from_dict(entry, f"baseline {sid}")
                     for sid, entry in doc["baselines"].items()}
        fraction = doc["baseline_train_fraction"]
        if type(fraction) not in (int, float) or not 0.0 < fraction < 1.0:
            raise FormatError(f"baseline_train_fraction must be in (0, 1), got {fraction!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed manifest: {exc}") from exc
    return SubmodelBank(fold=fold, horizon=horizon, models=models, scalers=scalers,
                        station_attrs=attrs, coefficients=coeff, normalization=norm,
                        baselines=baselines, baseline_train_fraction=float(fraction))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; 0.0 when either side has fewer than 2 distinct values."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise DataError("correlation inputs must have equal length")
    if x.size < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    with _one_blas_thread():  # threaded dot products sum in an order set by the CPU count
        xx, yy, xy = float(xc @ xc), float(yc @ yc), float(xc @ yc)
    denom = math.sqrt(xx * yy)
    if denom == 0.0 or not math.isfinite(denom):
        return 0.0
    return xy / denom
