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
    SubmodelBank,
    _fit,
    _predict,
    _predictions_at_targets,
    map_in_workers,
)
from .errors import DataError, DomainError
from .features import DEFAULT_HORIZON, ScalerStats, StationFrame, require_series, station_frames
from .geostats import VariogramModel, idw_weights, kriging_weights, pooled_variogram
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


#: Share of each held-out station's labels, earliest first, that its on-site
#: baseline trains on; the rest is scored.
BASELINE_TRAIN_FRACTION = 0.8


def _baseline_split(frame: StationFrame) -> int:
    """Rows before this index of ``frame``'s labels train its baseline; the rest are scored."""
    return int(frame.labels.size * BASELINE_TRAIN_FRACTION)


def _train_baseline(frames: Mapping[StationId, StationFrame], ids, cfg: TrainConfig,
                    idx: int) -> tuple[Network, ScalerStats]:
    frame = frames[ids[idx]]
    x, y = frame.onsite_climate(), frame.labels
    if x.shape[0] < 10:
        raise DataError(f"station {frame.id} has too few labeled rows for a baseline")
    split = _baseline_split(frame)
    return _fit(ONSITE_SPEC, int(cfg.seed * 99991 + idx), x[:split], y[:split], cfg)


def train_baselines(
    stations: Sequence[StationSeries],
    ids: Sequence[StationId],
    cfg: TrainConfig | None = None,
    horizon: int = DEFAULT_HORIZON,
) -> dict[StationId, tuple[Network, ScalerStats]]:
    """Train one on-site ``(network, scaler)`` reference model per listed station.

    The earliest ``BASELINE_TRAIN_FRACTION`` of each station's labeled rows
    is used for fitting; everything after the split index is reserved for
    scoring. The models train on ``map_in_workers``'s workers, one station
    per task. A bank carries them as its ``baselines``.
    """
    ids = sorted(ids)
    frames = station_frames(index_series(stations), horizon, ids, ids)
    task = functools.partial(_train_baseline, frames, ids, cfg or TrainConfig())
    return dict(zip(ids, list(map_in_workers(task, len(ids)))))


def evaluate_baselines(
    bank: SubmodelBank, frames: Mapping[StationId, StationFrame]
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled (predictions, labels) over the held-out slice of each bank baseline's frame."""
    preds: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for sid, (net, scaler) in sorted(bank.baselines.items()):
        frame = frames[sid]
        split = _baseline_split(frame)
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
    the targets' labels are derived. Each source is one ``map_in_workers``
    task that derives its climate block and writes its row of every
    target's block in place, in memory shared with the workers
    (``ensemble._predictions_at_targets``, which ``calibrate_coefficients``
    shares). A station without a series is a DataError before any of this.
    """
    target_ids = sorted(target_ids)
    by_id = index_series(data)
    require_series(by_id, [*bank.station_ids, *target_ids])
    frames = station_frames(by_id, bank.horizon, (), target_ids)
    return _prediction_matrices(by_id, frames, bank, target_ids)


def _prediction_matrices(by_id: Mapping[StationId, StationSeries],
                         frames: Mapping[StationId, StationFrame], bank: SubmodelBank,
                         target_ids: Sequence[StationId]) -> list[PredictionMatrix]:
    """The bank's predictions from the sources' series at the targets' label frames."""
    targets = [frames[tid] for tid in target_ids]
    source_ids, blocks = _predictions_at_targets(bank, by_id, targets)
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
    """Kriging aggregate per column of a ``(k, n)`` block with one variogram ``model``;
    each group of columns holding the same two or more sources solves its weights once.
    No model (no two sources ever share a minute) gives no valid column."""
    n_t = vals.shape[1]
    pred = np.full(n_t, np.nan)
    valid = np.zeros(n_t, dtype=bool)
    if model is None:
        return pred, valid
    patterns, inverse = _availability_groups(~np.isnan(vals))
    for p_idx, pattern in enumerate(patterns):
        cols = np.nonzero(inverse == p_idx)[0]
        rows = np.nonzero(pattern)[0]
        if rows.size < 2:
            continue
        pred[cols] = kriging_weights(coords[rows], target, model) @ vals[np.ix_(rows, cols)]
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
    variogram for the whole call: ``geostats.pooled_variogram`` over every
    minute of every target at which two bank sources both predict.
    Kriging needs two stations, so its row at a count of 1 has no
    predictions and null metrics; any other empty result is a DataError.
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
    leaked = sorted(set(target_ids) & set(bank.submodels))
    if leaked:
        raise DataError(f"held-out stations {leaked} are training stations of the bank")
    by_id = index_series(data)
    # Each station is derived once, for the matrices and the baselines alike: the
    # held-out targets' labels, and a baseline's station as source and target. The
    # matrices' sources derive their own climate in the prediction tasks. The
    # frames go before the ablation, whose peak memory they would otherwise raise.
    sources = list(bank.station_ids) if matrices is None else []
    baselines = list(bank.baselines) if "baseline" in methods else []
    targets = (list(target_ids) if matrices is None else []) + baselines
    require_series(by_id, sources + targets)
    frames = station_frames(by_id, bank.horizon, baselines, targets)
    if matrices is None:
        matrices = _prediction_matrices(by_id, frames, bank, target_ids)
    scored = evaluate_baselines(bank, frames) if "baseline" in methods else None
    del frames

    # Rows of every matrix follow bank.station_ids, as do these coordinates and
    # each target's attribute weights; frozen bounds make the subset
    # restriction equivalent to recomputing from scratch.
    src_xy = bank.attribute_rows(bank.station_ids)[:, :2]
    weight_vec = [bank.weights_for_target(by_id[pm.target_id].attributes) for pm in matrices]
    ok_model = (pooled_variogram(src_xy, [pm.values for pm in matrices])
                if "ok" in methods else None)

    results: list[AblationResult] = []
    for k in counts:
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        subset = np.sort(rng.choice(n_src, size=k, replace=False))
        for method in methods:
            if method == "baseline":
                continue
            pooled_pred: list[np.ndarray] = []
            pooled_labels: list[np.ndarray] = []
            for pm, target_weights in zip(matrices, weight_vec):
                target = by_id[pm.target_id].attributes.location
                vals = pm.values[subset]
                if method == "ok":
                    pred, valid = _ok_series(vals, src_xy[subset], target, ok_model)
                else:
                    weights = (idw_weights(src_xy[subset], target) if method == "idw"
                               else target_weights[subset])
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
