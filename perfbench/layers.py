"""Which frostcast functions the traced run wraps, and the per-layer figures.

Layers are frostcast's modules. Each target below is a public function or
method; its span is named ``<module>.<function>``. Per-layer metrics are
read from the spans of one traced set-up plus the mean over the traced
measured operations, so they describe one set-up and one operation.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from pathlib import Path

from spans import Tracer, ancestors, self_times


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _rows(args, kwargs, result):
    return {"rows": len(result[0])}


def _len_rows(args, kwargs, result):
    return {"rows": len(result)}


def _csv_counts(args, kwargs, result):
    series, dropped = result
    return {"rows": len(series), "dropped": dropped}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _dir_bytes(args, kwargs, result):
    base = Path(_arg(args, kwargs, 1, "directory"))
    return {"bytes": sum(p.stat().st_size for p in base.iterdir() if p.is_file())}


def _train_counts(args, kwargs, result):
    n = _arg(args, kwargs, 1, "x").shape[0]
    cfg = _arg(args, kwargs, 3, "cfg")
    epochs = len(result[1])
    n_train = n - min(int(round(cfg.validation_fraction * n)), n - 1)
    return {
        "epochs": epochs,
        "steps": epochs * math.ceil(n_train / cfg.batch_size),
        "samples": epochs * n_train,
    }


def _ablation_group(args, kwargs, result):
    methods = set(_arg(args, kwargs, 5, "methods") or ())
    if methods <= {"average", "weighted_average", "weighted_vote"}:
        return {"group": "ensemble"}
    if methods <= {"idw", "ok"}:
        return {"group": "interp"}
    return {"group": "mixed"}


def _matrix_cells(args, kwargs, result):
    return {"cells": sum(pm.values.size for pm in result)}


# target -> (span name, counter(args, kwargs, result) -> dict)
TARGETS = {
    "frostcast.synth:generate_world": ("synth.generate_world", None),
    "frostcast.synth:write_world": ("synth.write_world", None),
    "frostcast.ingest:parse_station_csv": ("ingest.parse_station_csv", _csv_counts),
    "frostcast.ingest:save_dataset": ("ingest.save_dataset", _file_bytes),
    "frostcast.ingest:load_dataset": ("ingest.load_dataset", None),
    "frostcast.ingest:parse_ascii_grid": ("ingest.parse_ascii_grid", None),
    "frostcast.ingest:write_ascii_grid": ("ingest.write_ascii_grid", None),
    "frostcast.features:climate_matrix": ("features.climate_matrix", _rows),
    "frostcast.features:label_arrays": ("features.label_arrays", None),
    "frostcast.features:pair_feature_arrays": ("features.pair_feature_arrays", _rows),
    "frostcast.features:apply_scaler": ("features.apply_scaler", None),
    "frostcast.neuralnet:train": ("neuralnet.train", _train_counts),
    "frostcast.neuralnet:forward_batch": ("neuralnet.forward_batch", _len_rows),
    "frostcast.ensemble:train_bank": ("ensemble.train_bank", None),
    "frostcast.ensemble:SubmodelBank.predict_batch": ("ensemble.predict_batch", _len_rows),
    "frostcast.ensemble:SubmodelBank.weights_for_target": ("ensemble.weights_for_target", None),
    "frostcast.ensemble:calibrate_coefficients": ("ensemble.calibrate_coefficients", None),
    "frostcast.ensemble:save_bank": ("ensemble.save_bank", _dir_bytes),
    "frostcast.ensemble:load_bank": ("ensemble.load_bank", None),
    "frostcast.geostats:fit_variogram": ("geostats.fit_variogram", None),
    "frostcast.geostats:empirical_semivariogram": ("geostats.empirical_semivariogram", None),
    "frostcast.geostats:kriging_weights": ("geostats.kriging_weights", None),
    "frostcast.evaluate:build_prediction_matrices": (
        "evaluate.build_prediction_matrices", _matrix_cells),
    "frostcast.evaluate:run_station_ablation": ("evaluate.run_station_ablation", _ablation_group),
    "frostcast.evaluate:train_baselines": ("evaluate.train_baselines", None),
    "frostcast.raster:generate_raster": (
        "raster.generate_raster", lambda a, k, r: {"cells": int(r.mask.sum())}),
    "frostcast.raster:raster_matrix": ("raster.raster_matrix", None),
}

# Per-layer metric names that are not <span>.<field>.
ALIASES = {
    "ingest.rows_dropped": "ingest.parse_station_csv.dropped",
    "ingest.bundle_bytes": "ingest.save_dataset.bytes",
    "ensemble.bank_bytes": "ensemble.save_bank.bytes",
}


def span_totals(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """``<span>.{calls,s,self_s,<count>}`` for one set-up plus one operation."""
    spans = tracer.spans
    selfs = self_times(spans)
    acc: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        share = 1.0 if s.run_id == "setup" else 1.0 / n_ops
        key = s.name
        if key == "neuralnet.forward_batch":
            in_train = any(a.name == "neuralnet.train" for a in ancestors(spans, i))
            key += ".train" if in_train else ".predict"
        elif key == "evaluate.run_station_ablation":
            key += "." + s.counts.get("group", "mixed")
        acc[key + ".calls"] += share
        acc[key + ".s"] += share * s.duration
        acc[key + ".self_s"] += share * selfs[i]
        for field, value in s.counts.items():
            if isinstance(value, (int, float)):
                acc[f"{key}.{field}"] += share * value
    samples, busy = acc.get("neuralnet.train.samples", 0.0), acc.get("neuralnet.train.s", 0.0)
    acc["neuralnet.train.samples_per_s"] = samples / busy if busy > 0 else 0.0
    for name, source in ALIASES.items():
        acc[name] = acc.get(source, 0.0)
    return dict(acc)
