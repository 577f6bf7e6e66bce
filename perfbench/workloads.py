"""The two benchmark workloads.

Every workload samples its world at 1 minute, runs in one process (``readme``
drives a chain of subprocesses), and is a closed loop: an operation starts
when the previous one has ended. Nothing here adds threads or processes
beyond OpenBLAS's default. Each workload builds its inputs from the seed in
``setup`` and checks what the program returns in ``check_op``. See README.md
in this directory for why each one exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

import frostcast as fc
from frostcast import cli, ensemble, ingest
from frostcast.neuralnet import TrainConfig


def _median(values):
    return statistics.median(values) if values else 0.0


def _rows_by_key(reports):
    return {(r.method, r.station_count): r for rep in reports for r in rep.results}


class Workload:
    """One seeded input set. Subclasses fill in set-up and the operation."""

    name = ""
    min_ops = 1

    def __init__(self, root: Path, seed: int, workdir: Path, tracer=None) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer  # set only for a traced run

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int, traced: bool):
        """One measured operation; returns what ``check_op`` inspects."""
        raise NotImplementedError

    def check_op(self, result) -> tuple[int, list[str], list[str]]:
        """(operations attempted, failed checks, known failures)."""
        raise NotImplementedError

    def stages(self, op_times: list[float]) -> dict[str, tuple[float, str]]:
        """The workload's own named end-to-end figures, by name."""
        return {}

    def layer_extras(self) -> dict[str, float]:
        """Per-layer figures measured outside the traced spans."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- trend --------------------------------------------------------------------

TREND_METHODS = ("average", "weighted_average", "weighted_vote")
TREND_COUNTS = (1, 10, 20, 30, 40, 50, 60)
INTERP_COUNTS = (10, 60)
TREND_EPOCHS = 12
# Criterion 07 caps each submodel at 24,000 entries of a 7-day world; one
# day keeps the cap binding in the same proportion, so feature extraction
# and MLP training split train_bank's time as they do there.
TREND_MAX_ENTRIES = 24000 // 7


class Trend(Workload):
    """Criterion 07's world and settings scaled from seven days to one, fold 0."""

    name = "trend"

    def setup(self) -> None:
        spec = fc.WorldSpec(seed=self.seed, n_stations=75, days=1, sample_interval=1,
                            noise_sd=0.5, mean_temp=7.5, harmonic_amplitudes=(2.2, 1.5, 1.0))
        self.world = fc.generate_world(spec)
        ids = sorted(s.id for s in self.world.stations)
        self.folds = fc.make_folds(ids, seed=0, n_folds=5)
        self.targets = sorted(self.folds.test_stations(0))
        self.split: list[tuple[float, float]] = []

    def op(self, index, traced):
        stations = self.world.stations
        # patience == epochs: every submodel trains the same number of
        # epochs on every seed, so train time measures speed, not how
        # early a seed's validation loss stalled.
        cfg = TrainConfig(seed=self.seed, epochs=TREND_EPOCHS, batch_size=512,
                          patience=TREND_EPOCHS)
        t0 = time.perf_counter()
        bank = fc.train_bank(stations, self.folds, 0, cfg, entry_stride=16,
                             max_entries=TREND_MAX_ENTRIES,
                             coefficients=ensemble.FOLD_COEFFICIENT_PRESETS[0])
        t1 = time.perf_counter()
        matrices = fc.build_prediction_matrices(stations, bank, self.targets)
        nn = fc.run_fold_experiment(stations, self.folds, 0, bank, methods=TREND_METHODS,
                                    counts=list(TREND_COUNTS), seed=self.seed, matrices=matrices)
        interp = fc.run_fold_experiment(stations, self.folds, 0, bank, methods=("idw", "ok"),
                                        counts=list(INTERP_COUNTS), seed=self.seed,
                                        matrices=matrices)
        t2 = time.perf_counter()
        if not traced:
            self.split.append((t1 - t0, t2 - t1))
        self.rows = _rows_by_key([nn, interp])
        return self.rows

    def check_op(self, rows):
        problems = []
        wanted = [(m, k) for m in TREND_METHODS for k in TREND_COUNTS]
        wanted += [(m, k) for m in ("idw", "ok") for k in INTERP_COUNTS]
        for key in wanted:
            row = rows.get(key)
            if row is None:
                problems.append(f"trend: no accuracy row for {key}")
            elif row.n_predictions <= 0:
                problems.append(f"trend: no predictions for {key}")
            elif key[0] != "weighted_vote" and not (row.rmse is not None
                                                     and math.isfinite(row.rmse)):
                problems.append(f"trend: rmse for {key} is {row.rmse!r}")
        return 1, problems, []

    def _accuracy(self):
        return {
            "rmse_wavg": (self.rows[("weighted_average", 60)].rmse, "degC"),
            "tpr_vote": (self.rows[("weighted_vote", 60)].tpr or 0.0, "ratio"),
        }

    def stages(self, op_times):
        return {
            "train_s": (_median([t for t, _ in self.split]), "s"),
            "eval_s": (_median([e for _, e in self.split]), "s"),
            **self._accuracy(),
        }

    def layer_extras(self):
        return {f"evaluate.{k}": v for k, (v, _) in self._accuracy().items()}


# --- readme -------------------------------------------------------------------

README_SPEC = {"seed": 7, "n_stations": 20, "days": 2, "cell_size": 0.1, "noise_sd": 0.4}
README_SETUP = "synth   --spec spec.json --out world/"
# The README command block, verbatim, from ingest to compare.
README_CHAIN = [
    "ingest  --stations world/stations --dem world/dem.asc"
    " --ndvi world/ndvi.asc --boundary world/boundary.json --out data.zip",
    "folds   --data data.zip --seed 0 --n-folds 5 --out folds.json",
    "train   --data data.zip --folds folds.json --fold 0 --epochs 50 --entry-stride 4 --out bank/",
    "calibrate --bank bank/ --data data.zip",
    "eval    --data data.zip --bank bank/ --methods avg,wavg,vote,idw,ok"
    " --counts 1..10,10..15:5 --deterministic --out report.json",
    "raster  --data data.zip --bank bank/ --method wavg --timestamp 300 --out wavg.asc",
    "raster  --data data.zip --bank bank/ --method avg --timestamp 300 --out avg.asc",
    "compare --rasters avg.asc wavg.asc --out pvalues.csv",
]
# The README eval line asks for ok at k = 1, which kriging cannot do: it
# exits 3 with this message until that is fixed. It is run unchanged and
# counted as a failed operation.
KNOWN_EVAL_EXIT = 3
KNOWN_EVAL_ERROR = "error: method ok produced no valid predictions"
IMPORT_REPEATS = 3


class Readme(Workload):
    """The README command block on the README spec, one command at a time."""

    name = "readme"
    # One chain takes about 25 s. A shared host's speed drifts over tens of
    # seconds, so one chain per run gave run-to-run spreads near the bound;
    # the median of two is steadier.
    min_ops = 2

    def setup(self) -> None:
        # The README spec is fixed text (seed 7), so the workload seed does
        # not change this workload's inputs.
        (self.workdir / "spec.json").write_text(json.dumps(README_SPEC))
        code, err, _ = self._command(README_SETUP.split(), traced=self.tracer is not None)
        if code != 0:
            raise RuntimeError(f"synth exited {code}: {err.strip()}")
        self.commands: list[list[tuple[list[str], int, str, float]]] = []

    def _command(self, argv, traced):
        """(exit code, stderr, seconds) for one frostcast command.

        Untraced runs start one interpreter per command, as a user does. A
        traced run calls ``frostcast.cli.main`` in this process, where the
        spans are, both for the traced commands and for the untraced ones
        it compares them with.
        """
        if traced:
            with self.tracer.span(f"cli.{argv[0]}"):
                return self._run(argv)
        return self._run(argv)

    def _run(self, argv):
        t0 = time.perf_counter()
        if self.tracer is not None:
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                os.chdir(cwd)
            return code, err.getvalue(), time.perf_counter() - t0
        proc = subprocess.run([sys.executable, "-m", "frostcast.cli", *argv], cwd=self.workdir,
                              env=self._env(), capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stderr, time.perf_counter() - t0

    def op(self, index, traced):
        chain = []
        for line in README_CHAIN:
            argv = line.split()
            code, err, secs = self._command(argv, traced)
            chain.append((argv, code, err, secs))
        if not traced:
            self.commands.append(chain)
        return chain

    def check_op(self, chain):
        problems, known = [], []
        for argv, code, err, _ in chain:
            if code == 0:
                problem = self._check_output(argv)
                if problem:
                    problems.append(f"readme {argv[0]}: {problem}")
            elif (argv[0] == "eval" and code == KNOWN_EVAL_EXIT
                  and _last_line(err) == KNOWN_EVAL_ERROR):
                known.append(f"readme eval exited {code}: {_last_line(err)}")
            else:
                problems.append(f"readme {argv[0]} exited {code}: {_last_line(err)}")
        return len(chain), problems, known

    def _check_output(self, argv) -> str | None:
        out = self.workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
        try:
            if argv[0] == "ingest":
                with zipfile.ZipFile(out) as zf:
                    manifest = json.loads(zf.read("manifest.json"))
                if len(manifest["stations"]) != README_SPEC["n_stations"]:
                    return "bundle lists the wrong number of stations"
            elif argv[0] == "folds":
                folds = json.loads(out.read_text())["folds"]
                if len(folds) != 5 or sum(map(len, folds)) != README_SPEC["n_stations"]:
                    return "folds do not partition the stations into 5"
            elif argv[0] in ("train", "calibrate"):
                manifest = json.loads((self.workdir / "bank" / "manifest.json").read_text())
                if not manifest["stations"] or not manifest["coefficients"]:
                    return "bank manifest lacks stations or coefficients"
            elif argv[0] == "eval":
                if not json.loads(out.read_text())["results"]:
                    return "report has no result rows"
            elif argv[0] == "raster":
                grid = ingest.parse_ascii_grid(out.read_text())
                if not np.isfinite(grid.values[grid.mask]).all() or not grid.mask.any():
                    return "raster has no cells or non-finite cells"
            elif argv[0] == "compare":
                rows = [line.split(",") for line in out.read_text().splitlines()]
                p = float(rows[1][2])
                if len(rows) != 3 or rows[1][1] != "N/A" or not 0.0 <= p <= 1.0:
                    return f"p-value table malformed: {rows!r}"
        except (OSError, KeyError, ValueError, IndexError, zipfile.BadZipFile,
                fc.FrostcastError) as exc:
            return f"output missing or unreadable: {exc!r}"
        return None

    def _times(self, command):
        return [secs for chain in self.commands for argv, _, _, secs in chain
                if argv[0] == command]

    def _env(self):
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def import_seconds(self) -> float:
        """Median time of ``import frostcast`` in a fresh interpreter."""
        times = []
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import frostcast"], cwd=self.workdir,
                           env=self._env(), check=True, timeout=60)
            times.append(time.perf_counter() - t0)
        return _median(times)

    def stages(self, op_times):
        return {
            "pipeline_s": (_median(op_times), "s"),
            "ingest_s": (_median(self._times("ingest")), "s"),
            "train_s": (_median(self._times("train")), "s"),
            "raster_s": (_median(self._times("raster")), "s"),
            "import_s": (self.import_seconds(), "s"),
        }

    def layer_extras(self):
        return {"cli.import.s": self.import_seconds()}

    def peak_rss_mb(self):
        # The largest frostcast command this process waited for.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


WORKLOADS = {w.name: w for w in (Trend, Readme)}
