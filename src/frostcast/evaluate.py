"""Cross-validation harness, accuracy metrics, and the paired t-test.

Stations are split into folds, a submodel bank is trained on each fold's
training side, and aggregated predictions at held-out stations are scored
by RMSE plus frost-event true-positive and false-discovery rates.
:func:`run_station_ablation` is the one evaluation entry point: it returns
the :class:`EvaluationReport` that ``frostcast eval`` writes, scoring the
full bank by default or a sweep of station counts. The sweep reuses one
full prediction matrix and re-aggregates over seeded subsets, so every
method sees identical draws at a given size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import FoldAssignment, GeoPoint, StationId, StationSeries, index_series
from .ensemble import (
    AGGREGATORS,
    BASELINE_TRAIN_FRACTION,
    SubmodelBank,
    _fit,
    _predict,
    _predictions_at_targets,
    map_in_workers,
)
from .errors import DataError, DomainError
from .features import DEFAULT_HORIZON, ScalerStats, StationFrame, station_frames
from .geostats import (
    VariogramModel,
    idw_weights,
    kriging_weights,
    snapshot_variogram,
)
from .neuralnet import Network, ONSITE_SPEC, TrainConfig

DEFAULT_TRIGGER = 0.0

METHODS = ("average", "weighted_average", "weighted_vote", "idw", "ok", "baseline")


def make_folds(station_ids: Sequence[StationId], seed: int, n_folds: int = 5) -> FoldAssignment:
    """Seeded shuffle then round-robin assignment into ``n_folds`` groups."""
    ids = sorted(set(station_ids))
    if len(ids) != len(station_ids):
        raise DataError("station ids must be unique")
    if n_folds < 2:
        raise DomainError(f"n_folds must be >= 2: {n_folds!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0: {seed!r}")
    if len(ids) < n_folds:
        raise DataError(f"need at least {n_folds} stations, got {len(ids)}")
    order = np.random.default_rng(seed).permutation(len(ids))
    groups: list[set[StationId]] = [set() for _ in range(n_folds)]
    for pos, idx in enumerate(order):
        groups[pos % n_folds].add(ids[idx])
    return FoldAssignment(tuple(frozenset(g) for g in groups))


def rmse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    p = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 1:
        raise DataError(f"rmse inputs must be equal-length vectors, got {p.shape} / {a.shape}")
    if p.size == 0:
        raise DataError("rmse of zero predictions is undefined")
    return float(np.sqrt(np.mean((p - a) ** 2)))


@dataclass(frozen=True)
class ConfusionCounts:
    """Frost-event confusion cells; rates stay None when undefined."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def tpr(self) -> float | None:
        denom = self.tp + self.fn
        return self.tp / denom if denom else None

    @property
    def fdr(self) -> float | None:
        denom = self.tp + self.fp
        return self.fp / denom if denom else None


def event_confusion(
    predicted: Sequence[float] | Sequence[bool] | np.ndarray,
    actual: Sequence[float] | np.ndarray,
    trigger: float = DEFAULT_TRIGGER,
) -> ConfusionCounts:
    """Frost confusion counts; an event is a value strictly below the trigger.

    ``predicted`` may be temperatures or boolean decisions (as produced by
    the voting aggregator).
    """
    p = np.asarray(predicted)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 1:
        raise DataError(f"confusion inputs must be equal-length vectors, got {p.shape} / {a.shape}")
    pred_event = p if p.dtype == np.bool_ else np.asarray(p, dtype=np.float64) < trigger
    actual_event = a < trigger
    tp = int(np.sum(pred_event & actual_event))
    fp = int(np.sum(pred_event & ~actual_event))
    fn = int(np.sum(~pred_event & actual_event))
    tn = int(np.sum(~pred_event & ~actual_event))
    return ConfusionCounts(tp, fp, fn, tn)


# --- paired t-test -----------------------------------------------------------

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_BETACF_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise DomainError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_t_test(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t statistic, p-value).

    Degenerate inputs follow fixed conventions: identical vectors give
    (0, 1); a constant nonzero difference gives p = 0 with an infinite
    statistic; p-values that underflow double precision report as 0.0.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise DataError(f"paired test needs equal-length vectors, got {xa.shape} / {ya.shape}")
    n = xa.size
    if n < 2:
        raise DataError("paired test needs at least two pairs")
    d = xa - ya
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if np.all(d == 0.0):
        return 0.0, 1.0
    if sd == 0.0:
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    dof = n - 1
    p = regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))
    if p < 1e-300:
        p = 0.0
    return t, min(max(p, 0.0), 1.0)


# --- baseline (on-site) models ----------------------------------------------


def _train_baseline(frames: Mapping[StationId, StationFrame], ids, cfg: TrainConfig,
                    train_fraction: float, idx: int) -> tuple[Network, ScalerStats]:
    frame = frames[ids[idx]]
    x, y = frame.onsite_climate(), frame.labels
    if x.shape[0] < 10:
        raise DataError(f"station {frame.id} has too few labeled rows for a baseline")
    split = int(x.shape[0] * train_fraction)
    return _fit(ONSITE_SPEC, int(cfg.seed * 99991 + idx), x[:split], y[:split], cfg)


def train_baselines(
    stations: Sequence[StationSeries],
    ids: Sequence[StationId],
    cfg: TrainConfig | None = None,
    horizon: int = DEFAULT_HORIZON,
    train_fraction: float = BASELINE_TRAIN_FRACTION,
) -> dict[StationId, tuple[Network, ScalerStats]]:
    """Train one on-site ``(network, scaler)`` reference model per listed station.

    The earliest ``train_fraction`` of each station's labeled rows is used
    for fitting; everything after the split index is reserved for scoring.
    The models train on ``map_in_workers``'s workers, one station per task.
    A bank carries them as its ``baselines``, beside ``train_fraction`` as
    its ``baseline_train_fraction``.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train_fraction must be in (0, 1): {train_fraction!r}")
    ids = sorted(ids)
    frames = station_frames(index_series(stations), horizon, ids, ids)
    task = functools.partial(_train_baseline, frames, ids, cfg or TrainConfig(), train_fraction)
    return dict(zip(ids, list(map_in_workers(task, len(ids)))))


def evaluate_baselines(
    bank: SubmodelBank, frames: Mapping[StationId, StationFrame]
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled (predictions, labels) over the held-out slice of each bank baseline's frame."""
    preds: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for sid, (net, scaler) in sorted(bank.baselines.items()):
        frame = frames[sid]
        split = int(frame.labels.size * bank.baseline_train_fraction)
        xs = frame.onsite_climate()[split:]
        if xs.shape[0] == 0:
            continue
        preds.append(_predict(net, scaler, xs))
        labels.append(frame.labels[split:])
    if not preds:
        raise DataError("baselines have no held-out rows to score")
    return np.concatenate(preds), np.concatenate(labels)


# --- station-count ablation: the one evaluation entry point -----------------


@dataclass(frozen=True)
class AblationResult:
    """Metrics for one (method, station count) cell of an experiment."""

    method: str
    station_count: int
    fold: int
    seed: int
    rmse: float | None
    tpr: float | None
    fdr: float | None
    n_predictions: int
    n_events: int


@dataclass
class PredictionMatrix:
    """All submodel predictions at one target station.

    ``values[i, t]`` is source ``source_ids[i]``'s prediction for label
    timestamp ``t``; NaN where the source is unobserved at that minute or is the target.
    """

    target_id: StationId
    source_ids: list[StationId]
    timestamps: np.ndarray
    labels: np.ndarray
    values: np.ndarray


def build_prediction_matrices(
    data: Sequence[StationSeries],
    bank: SubmodelBank,
    target_ids: Sequence[StationId],
) -> list[PredictionMatrix]:
    """Run every submodel against every target once; methods share the result.

    Labels use the bank's own horizon. Only the sources' climate blocks and
    the targets' labels are derived. Each target's block of predictions is
    one ``map_in_workers`` task (``ensemble._predictions_at_targets``, which
    ``calibrate_coefficients`` shares).
    """
    target_ids = sorted(target_ids)
    frames = station_frames(index_series(data), bank.horizon, bank.station_ids, target_ids)
    return _prediction_matrices(frames, bank, target_ids)


def _prediction_matrices(frames: Mapping[StationId, StationFrame], bank: SubmodelBank,
                         target_ids: Sequence[StationId]) -> list[PredictionMatrix]:
    targets = [frames[tid] for tid in target_ids]
    source_ids, blocks = _predictions_at_targets(bank, frames, targets)
    return [PredictionMatrix(t.id, list(source_ids), t.label_timestamps, t.labels, values)
            for t, values in zip(targets, blocks)]


def _availability_groups(avail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(avail.T, axis=0, return_inverse=True)``, sorting packed bits.

    Big-endian bit packing keeps the rows' lexicographic order, so the
    groups and their order are the same as sorting the boolean rows.
    """
    packed = np.ascontiguousarray(np.packbits(avail.T, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return avail.T[first], inverse


def _ok_series(
    vals: np.ndarray, coords: np.ndarray, target: GeoPoint, model: VariogramModel | None
) -> tuple[np.ndarray, np.ndarray]:
    """Kriging aggregate per column of a ``(k, n)`` block, grouping columns by availability.

    With a ``model`` each group solves its weights once. Without one, every
    column fits a variogram to its own snapshot first (slow).
    """
    avail = ~np.isnan(vals)
    n_t = vals.shape[1]
    pred = np.full(n_t, np.nan)
    valid = np.zeros(n_t, dtype=bool)
    patterns, inverse = _availability_groups(avail)
    for p_idx, pattern in enumerate(patterns):
        cols = np.nonzero(inverse == p_idx)[0]
        rows = np.nonzero(pattern)[0]
        if rows.size < 2:
            continue
        xy = coords[rows]
        if model is not None:
            pred[cols] = kriging_weights(xy, target, model) @ vals[np.ix_(rows, cols)]
        else:
            for col in cols:
                snapshot = vals[rows, col]
                weights = kriging_weights(xy, target, snapshot_variogram(xy, snapshot))
                pred[col] = weights @ snapshot
        valid[cols] = True
    return pred, valid


@dataclass
class EvaluationReport:
    """Everything one experiment produced, ready for JSON serialization."""

    fold: int
    seed: int
    horizon: int
    trigger: float
    methods: list[str]
    counts: list[int]
    results: list[AblationResult]

    def to_dict(self) -> dict:
        return {"version": 1, **asdict(self)}


def run_station_ablation(
    data: Sequence[StationSeries],
    folds: FoldAssignment,
    fold: int,
    bank: SubmodelBank,
    counts: Sequence[int] | None = None,
    methods: Sequence[str] = ("average", "weighted_average", "weighted_vote"),
    seed: int = 0,
    trigger: float = DEFAULT_TRIGGER,
    ok_refit: bool = False,
    matrices: list[PredictionMatrix] | None = None,
) -> EvaluationReport:
    """Score each method at each source-station count at ``folds``' fold ``fold`` stations.

    This is the package's one evaluation entry point (exported as
    ``frostcast.run_fold_experiment``). The targets are that fold's
    stations, none of which may be one of the bank's training stations;
    the report and every row carry the bank's own fold and horizon.
    ``counts`` are sorted and deduplicated; without them every method uses
    the full bank. At a given count the same seeded subset of stations
    feeds every method, so comparisons are paired. Kriging uses one
    variogram fitted on the first prediction snapshot where every source
    is available, or with ``ok_refit`` (or without such a snapshot) a
    fresh fit per timestep. Kriging needs two stations, so its row at a
    count of 1 has no predictions and null metrics; any other empty
    result is a DataError.
    ``baseline`` scores the bank's on-site baselines. A non-finite
    ``trigger`` or a negative ``seed`` is a DomainError.
    """
    for m in methods:
        if m not in METHODS:
            raise DomainError(f"unknown method: {m!r}")
    if not math.isfinite(trigger):
        raise DomainError(f"trigger must be a finite temperature: {trigger!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0: {seed!r}")
    n_src = len(bank)
    counts = sorted(set(int(c) for c in ([n_src] if counts is None else counts)))
    if not counts:
        raise DomainError("no station counts given")
    if counts[0] < 1 or counts[-1] > n_src:
        raise DomainError(f"counts must lie in [1, {n_src}]: {counts}")
    if "baseline" in methods and not bank.baselines:
        raise DataError("baseline method requested but the bank holds no baseline models")
    target_ids = sorted(folds.test_stations(fold))
    leaked = sorted(set(target_ids) & set(bank.models))
    if leaked:
        raise DataError(f"held-out stations {leaked} are training stations of the bank")
    by_id = index_series(data)
    # Each station is derived once, for the matrices and the baselines alike: the
    # bank's sources, the held-out targets, and a baseline's station as both. The
    # frames go before the ablation, whose peak memory they would otherwise raise.
    sources = list(bank.station_ids) if matrices is None else []
    targets = list(target_ids) if matrices is None else []
    if "baseline" in methods:
        sources += list(bank.baselines)
        targets += list(bank.baselines)
    frames = station_frames(by_id, bank.horizon, sources, targets)
    if matrices is None:
        matrices = _prediction_matrices(frames, bank, target_ids)
    scored = evaluate_baselines(bank, frames) if "baseline" in methods else None
    del frames

    # Per-target unnormalized attribute weights; frozen bounds make the
    # subset restriction equivalent to recomputing from scratch.
    weight_vec: dict[StationId, np.ndarray] = {}
    for pm in matrices:
        w = bank.weights_for_target(by_id[pm.target_id].attributes)
        weight_vec[pm.target_id] = np.array([w[sid] for sid in pm.source_ids])

    # Rows of every matrix follow bank.station_ids, as do these coordinates.
    locations = [bank.station_attrs[sid].location for sid in bank.station_ids]
    src_xy = np.array([(loc.lon, loc.lat) for loc in locations])
    frozen_model = None
    if "ok" in methods and not ok_refit:
        for pm in matrices:
            full = np.nonzero(~np.isnan(pm.values).any(axis=0))[0]
            if full.size:
                frozen_model = snapshot_variogram(src_xy, pm.values[:, full[0]])
                break

    results: list[AblationResult] = []
    for k in counts:
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        subset = np.sort(rng.choice(n_src, size=k, replace=False))
        for method in methods:
            if method == "baseline":
                continue
            pooled_pred: list[np.ndarray] = []
            pooled_labels: list[np.ndarray] = []
            for pm in matrices:
                target = by_id[pm.target_id].attributes.location
                vals = pm.values[subset]
                if method == "ok":
                    pred, valid = _ok_series(vals, src_xy[subset], target, frozen_model)
                else:
                    weights = (idw_weights(src_xy[subset], target) if method == "idw"
                               else weight_vec[pm.target_id][subset])
                    pred, valid = AGGREGATORS[method](vals, ~np.isnan(vals), weights, trigger)
                pooled_pred.append(np.asarray(pred)[valid])
                pooled_labels.append(pm.labels[valid])
            pred_all = np.concatenate(pooled_pred)
            labels_all = np.concatenate(pooled_labels)
            if pred_all.size == 0 and not (method == "ok" and k < 2):
                raise DataError(f"method {method} produced no valid predictions")
            results.append(_result(method, k, bank.fold, seed, trigger, pred_all, labels_all))
    if scored is not None:
        results.append(_result("baseline", 0, bank.fold, seed, trigger, *scored))
    return EvaluationReport(bank.fold, seed, bank.horizon, trigger, list(methods), counts, results)


def _result(method: str, count: int, fold: int, seed: int, trigger: float,
            pred: np.ndarray, labels: np.ndarray) -> AblationResult:
    """One report row; RMSE is None for frost votes and for no predictions."""
    conf = event_confusion(pred, labels, trigger)
    return AblationResult(
        method=method, station_count=count, fold=fold, seed=seed,
        rmse=None if pred.dtype == np.bool_ or pred.size == 0 else rmse(pred, labels),
        tpr=conf.tpr, fdr=conf.fdr, n_predictions=int(pred.size), n_events=conf.tp + conf.fn,
    )
