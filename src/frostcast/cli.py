"""Command-line pipeline: synth -> ingest -> folds -> train -> eval -> raster.

Exit codes: 0 success, 2 usage error, 3 data or format error (or an input
too large for memory), 4 numerical failure. Every failure prints a single
``error: ...`` line to stderr. JSON outputs are key-sorted; pass
--deterministic to omit wall-clock fields so reruns with the same seeds are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .core import FoldAssignment, write_atomically
from .ensemble import (
    FOLD_COEFFICIENT_PRESETS,
    calibrate_coefficients,
    load_bank,
    save_bank,
    train_bank,
)
from .errors import DataError, DomainError, FormatError, FrostcastError, NumericalError
from .evaluate import make_folds, run_station_ablation, train_baselines
from .features import DEFAULT_HORIZON, climate_matrix
from .ingest import (
    ingest_directory,
    load_dataset,
    parse_ascii_grid,
    parse_boundary_json,
    save_dataset,
    write_ascii_grid,
)
from .neuralnet import TrainConfig
from .raster import generate_raster, matrix_to_csv, raster_matrix, write_png
from .synth import generate_world, spec_from_json, write_world

USAGE_EXIT = 2
DATA_EXIT = 3
NUMERICAL_EXIT = 4

METHOD_TOKENS = {
    "avg": "average",
    "wavg": "weighted_average",
    "vote": "weighted_vote",
    "idw": "idw",
    "ok": "ok",
    "baseline": "baseline",
}


class UsageError(FrostcastError):
    pass


def parse_counts(text: str, upper: int) -> list[int]:
    """Expand a count expression like ``1..10,10..60:10`` into sorted ints in [1, ``upper``].

    Malformed or non-positive tokens are UsageErrors. A count above
    ``upper`` (the bank size) is a DomainError, raised before its token is
    expanded, so a huge range costs no memory.
    """
    out: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty count token in {text!r}")
        step = 1
        if ":" in token:
            token, step_text = token.rsplit(":", 1)
            try:
                step = int(step_text)
            except ValueError:
                raise UsageError(f"bad step in count token {token!r}:{step_text!r}") from None
            if step < 1:
                raise UsageError(f"count step must be >= 1: {step}")
        lo_text, dots, hi_text = token.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            raise UsageError(f"bad count: {token!r}") from None
        if lo > hi:
            raise UsageError(f"count range must be ascending: {token!r}")
        if lo < 1:
            raise UsageError(f"counts must be positive: {text!r}")
        last = lo + (hi - lo) // step * step
        if last > upper:
            raise DomainError(f"counts must lie in [1, {upper}]: {token!r}")
        out.update(range(lo, last + 1, step))
    return sorted(out)


def parse_methods(text: str) -> list[str]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token not in METHOD_TOKENS:
            raise UsageError(
                f"unknown method {token!r}; choose from {','.join(METHOD_TOKENS)}"
            )
        canonical = METHOD_TOKENS[token]
        if canonical not in out:
            out.append(canonical)
    if not out:
        raise UsageError("no methods given")
    return out


def _write_json(path: str, doc: dict, deterministic: bool) -> None:
    if not deterministic:
        doc = dict(doc)
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write_atomically(path, lambda fh: fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n"))


def _load_folds(path: str) -> FoldAssignment:
    """Read ``folds.json``: a list of folds, each a list of station ids."""
    try:
        with open(path, encoding="utf-8") as fh:
            folds = json.load(fh)["folds"]
        if not (isinstance(folds, list) and all(
                isinstance(f, list) and all(isinstance(i, str) and i for i in f) for f in folds)):
            raise TypeError(f"folds must be lists of station ids: {folds!r:.80}")
        return FoldAssignment(tuple(frozenset(f) for f in folds))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"cannot read folds file {path}: {exc}") from exc


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = spec_from_json(Path(args.spec).read_text())
    world = generate_world(spec)
    write_world(world, args.out)
    print(f"wrote world with {len(world.stations)} stations to {args.out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    dem = parse_ascii_grid(Path(args.dem).read_text())
    ndvi = parse_ascii_grid(Path(args.ndvi).read_text())
    boundary = parse_boundary_json(Path(args.boundary).read_text()) if args.boundary else None
    dataset, drops = ingest_directory(args.stations, dem, ndvi, boundary, args.cell)
    save_dataset(dataset, args.out)
    total_drops = sum(drops.values())
    print(f"ingested {len(dataset.stations)} stations ({total_drops} rows dropped) -> {args.out}")
    return 0


def _cmd_folds(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    folds = make_folds(dataset.station_ids(), args.seed, args.n_folds)
    doc = {
        "version": 1,
        "seed": args.seed,
        "folds": [sorted(f) for f in folds.folds],
    }
    _write_json(args.out, doc, args.deterministic)
    sizes = ",".join(str(len(f)) for f in folds.folds)
    print(f"assigned {len(dataset.stations)} stations into folds of sizes {sizes}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    folds = _load_folds(args.folds)
    missing = sorted(folds.all_stations() - set(dataset.station_ids()))
    if missing:
        raise DataError(f"folds file {args.folds} names stations the bundle lacks: {missing}")
    cfg = TrainConfig(
        seed=args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        validation_fraction=args.validation_fraction,
        patience=args.patience,
    )
    bank = train_bank(
        dataset.stations,
        folds,
        args.fold,
        cfg,
        horizon=args.horizon,
        entry_stride=args.entry_stride,
        max_entries=args.max_entries,
        progress=True,
    )
    test_ids = sorted(folds.test_stations(args.fold))
    bank.baselines = train_baselines(dataset.stations, test_ids, cfg, horizon=args.horizon)
    save_bank(bank, args.out)
    print(f"trained {len(bank)} submodels and {len(bank.baselines)} baselines -> {args.out}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.preset is not None and args.data is not None:
        raise UsageError("calibrate takes --preset or --data, not both")
    bank = load_bank(args.bank)
    if args.preset is not None:
        if not args.preset.startswith("paper-fold-"):
            raise UsageError(f"unknown preset {args.preset!r}; expected paper-fold-K")
        try:
            fold = int(args.preset.rsplit("-", 1)[1])
            coeff = FOLD_COEFFICIENT_PRESETS[fold]
        except (ValueError, KeyError):
            raise UsageError(
                f"unknown preset {args.preset!r}; folds {sorted(FOLD_COEFFICIENT_PRESETS)}"
            ) from None
    else:
        if not args.data:
            raise UsageError("calibrate needs --data unless --preset is given")
        coeff = calibrate_coefficients(bank, load_dataset(args.data).stations)
    bank.coefficients = coeff
    save_bank(bank, args.bank)
    print(f"coefficients: geo={coeff.geo!r} dem={coeff.dem!r} ndvi={coeff.ndvi!r}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    bank = load_bank(args.bank)
    methods = parse_methods(args.methods)
    counts = parse_counts(args.counts, len(bank)) if args.counts is not None else None
    train_ids = set(bank.submodels)
    test_ids = frozenset(dataset.station_ids()) - train_ids
    if not test_ids:
        raise DataError("dataset has no held-out stations for this bank")
    folds = FoldAssignment((frozenset(test_ids), frozenset(train_ids)))
    report = run_station_ablation(
        dataset.stations, folds, 0, bank, counts, methods,
        seed=args.seed, trigger=args.trigger,
    )
    _write_json(args.out, report.to_dict(), args.deterministic)
    print(f"wrote {len(report.results)} result rows -> {args.out}")
    return 0


def _cmd_raster(args: argparse.Namespace) -> int:
    sidecar = None
    if args.png:
        try:
            sidecar = Path(args.png).with_suffix(".json")
        except ValueError:  # a path without a file name, such as "." or "/"
            raise UsageError(f"bad --png path {args.png!r}") from None
        if len({Path(p).resolve() for p in (args.out, args.png, sidecar)}) < 3:
            raise UsageError(f"--out, --png and the PNG's sidecar {str(sidecar)!r} "
                             "must be three different files")
    dataset = load_dataset(args.data)
    bank = load_bank(args.bank)
    kind, _, source_id = args.method.partition(":")
    if args.method in ("avg", "wavg"):
        name = method = METHOD_TOKENS[args.method]
    elif kind == "single":
        if not source_id:
            raise UsageError("single raster method needs the form single:<station id>")
        name, method = "single", "average"  # the average over that one station
    else:
        raise UsageError(f"unknown raster method {args.method!r}; use avg, wavg, or single:<id>")
    snapshot = {}
    for series in dataset.stations:
        if series.id not in bank.submodels:
            continue
        i = int(series.timestamps.searchsorted(args.timestamp))
        if i < len(series) and series.timestamps[i] == args.timestamp:
            # Climate columns: temperature, dew point, rh, north wind, east wind.
            snapshot[series.id] = tuple(climate_matrix(series).climate[i].tolist())
    if not snapshot:
        raise DataError(f"no bank station has an observation at minute {args.timestamp}")
    if name == "single":
        if source_id not in snapshot:
            raise DataError(f"no climate snapshot for station {source_id}")
        snapshot = {source_id: snapshot[source_id]}
    grid = generate_raster(bank, snapshot, dataset.dem, dataset.ndvi, method)
    write_atomically(args.out, lambda fh: fh.write(write_ascii_grid(grid)))
    if args.png:
        write_png(grid, args.png, sidecar)
    print(f"wrote {name} raster over {int(grid.mask.sum())} cells -> {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.rasters) < 2:
        raise UsageError("compare needs at least two rasters")
    grids = {}
    for path in args.rasters:
        grids[Path(path).stem] = parse_ascii_grid(Path(path).read_text())
    if len(grids) != len(args.rasters):
        raise UsageError("raster file names must be distinct")
    labels, matrix = raster_matrix(grids)
    write_atomically(args.out, lambda fh: fh.write(matrix_to_csv(labels, matrix)))
    print(f"wrote {len(labels)}x{len(labels)} p-value matrix -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frostcast",
        description="Frost prediction from off-site stations: train, evaluate, map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic world")
    p.add_argument("--spec", required=True, help="world spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse station files and grids into a bundle")
    p.add_argument("--stations", required=True, help="directory with stations.json and <id>.csv")
    p.add_argument("--dem", required=True)
    p.add_argument("--ndvi", required=True)
    p.add_argument("--boundary", default=None)
    p.add_argument("--cell", type=float, default=None, help="resample grids to this cell size")
    p.add_argument("--out", required=True, help="output bundle path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("folds", help="assign stations to cross-validation folds")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-folds", type=int, default=5)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_folds)

    p = sub.add_parser("train", help="train one fold's submodel bank")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--validation-fraction", type=float, default=0.1)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help="label window in minutes")
    p.add_argument("--entry-stride", type=int, default=1)
    p.add_argument("--max-entries", type=int, default=None)
    p.add_argument("--out", required=True, help="bank output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", help="set attribute-weight coefficients")
    p.add_argument("--bank", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--preset", default=None, help="named preset (paper-fold-K)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("eval", help="evaluate methods at held-out stations")
    p.add_argument("--data", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--methods", default="avg,wavg,vote")
    p.add_argument("--counts", default=None, help="e.g. 1..10,10..60:10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trigger", type=float, default=0.0)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("raster", help="predict over the whole grid at one timestamp")
    p.add_argument("--data", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--method", default="wavg", help="avg, wavg, or single:<station id>")
    p.add_argument("--timestamp", type=int, required=True, help="minutes since epoch")
    p.add_argument("--png", default=None, help="also write a heatmap PNG here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_raster)

    p = sub.add_parser("compare", help="pairwise t-test matrix over rasters")
    p.add_argument("--rasters", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (FrostcastError, OSError, UnicodeDecodeError) as exc:  # the last: a non-UTF-8 text file
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except MemoryError as exc:  # an input asking for more memory than the machine has
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
