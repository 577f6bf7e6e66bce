"""Command-line scenarios on the README world, each command a child ``python -m frostcast.cli``.

Every scenario runs the command line as a shell user does: a child interpreter
with this checkout's ``src`` first on ``PYTHONPATH``, so the exit code, stdout,
stderr and the files left behind are what the shell would see. Four worlds are
built once per session: the README world with its calibrated bank, a gapped
world whose two first training stations keep opposite halves of their rows, a
twin world in which two bank sources share one site, and the README world
ingested through a boundary with a hole around its first station.

Worker pools size themselves from the CPU affinity, so a child pinned to one
CPU trains and predicts in-process. The pinned-vs-unpinned comparisons check
that both write the same bytes; they skip when this process has only one CPU,
since there the two runs are the same run. Library-level twins of the refusals
(the exact messages, the fuzzed specs and manifests) live in ``test_cli.py``
and ``test_ingest.py``; here each refusal is checked as the shell sees it.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frostcast import load_dataset
from frostcast.core import index_series

SRC = Path(__file__).resolve().parents[1] / "src"
README_SPEC = {"seed": 7, "n_stations": 20, "days": 2, "cell_size": 0.1, "noise_sd": 0.4}
#: ``ulimit -v 1500000``: the address space, in bytes, of the huge-count child.
HUGE_COUNT_ADDRESS_SPACE = 1_500_000 * 1024


def frostcast(*argv, one_cpu=False, address_space=None, timeout=None):
    """Run ``frostcast *argv`` in a child process and return its ``CompletedProcess``.

    ``one_cpu`` pins the child, and only the child, to one CPU, as ``taskset``
    would; ``address_space`` caps its virtual memory in bytes, as ``ulimit -v``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpu = {min(os.sched_getaffinity(0))}

    def limit():
        if one_cpu:
            os.sched_setaffinity(0, cpu)
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "frostcast.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout, preexec_fn=limit)


def ok(proc):
    assert proc.returncode == 0, (proc.args, proc.stderr)
    return proc


def assert_refused(proc, *outputs):
    """Exit 3, one ``error:`` line on stderr, nothing on stdout and none of ``outputs``."""
    assert proc.returncode == 3, (proc.args, proc.stderr)
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""
    assert [p.name for p in outputs if p.exists()] == []


def skip_on_one_cpu():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: any unpinned run here has passed, and a run pinned to the one "
                    "CPU would be that same run, so there is nothing to compare")


def assert_same_bytes_on_one_cpu(argv, out, timeout=None):
    """``frostcast *argv --out out`` has run; pinned to one CPU it writes the same bytes."""
    skip_on_one_cpu()
    pinned = out.with_name(f"{out.stem}-one-cpu{out.suffix}")
    ok(frostcast(*argv, "--out", pinned, one_cpu=True, timeout=timeout))
    assert pinned.read_bytes() == out.read_bytes(), f"{pinned.name} differs from {out.name}"


def ingest(base, stations, out, boundary=None):
    """``frostcast ingest`` of ``stations`` over the README world's grids and boundary."""
    world = base / "world"
    return frostcast("ingest", "--stations", stations, "--dem", world / "dem.asc",
                     "--ndvi", world / "ndvi.asc",
                     "--boundary", boundary or world / "boundary.json", "--out", out)


def edited_stations(base, dest, edit):
    """A copy of the README world's stations at ``dest``, its listing changed by ``edit``."""
    shutil.copytree(base / "world" / "stations", dest)
    listing = json.loads((dest / "stations.json").read_text())
    edit(listing["stations"])
    (dest / "stations.json").write_text(json.dumps(listing))
    return dest


def training_stations(base):
    """Fold 0's training stations on the README world, sorted."""
    folds = json.loads((base / "folds.json").read_text())["folds"]
    return sorted(set().union(*folds[1:]))


def calibrated(bank, data, dest, one_cpu=False):
    """The manifest bytes of a copy of ``bank`` at ``dest``, calibrated on ``data``."""
    shutil.copytree(bank, dest)
    ok(frostcast("calibrate", "--bank", dest, "--data", data, one_cpu=one_cpu))
    return (dest / "manifest.json").read_bytes()


def readme_chain(data, bank, out):
    """The README's eval, raster and compare lines on ``bank``, writing into ``out``."""
    ok(frostcast(*readme_eval(data, bank), "--out", out / "readme.json"))
    for method in ("wavg", "avg"):
        ok(frostcast("raster", "--data", data, "--bank", bank, "--method", method,
                     "--timestamp", 300, "--out", out / f"{method}.asc"))
    ok(frostcast("compare", "--rasters", out / "avg.asc", out / "wavg.asc",
                 "--out", out / "pvalues.csv"))


def readme_eval(data, bank):
    return ["eval", "--data", data, "--bank", bank, "--methods", "avg,wavg,vote,idw,ok",
            "--counts", "1..10,10..15:5", "--deterministic"]


def train(data, folds, out, epochs):
    return frostcast("train", "--data", data, "--folds", folds, "--fold", 0, "--epochs", epochs,
                     "--entry-stride", 4, "--out", out)


@pytest.fixture(scope="session")
def readme(tmp_path_factory):
    """The README world's directory: ``world/``, ``data.zip``, ``folds.json``, the bank
    before calibration (``uncalibrated/``) and after it (``bank/``)."""
    base = tmp_path_factory.mktemp("readme-world")
    (base / "spec.json").write_text(json.dumps(README_SPEC))
    ok(frostcast("synth", "--spec", base / "spec.json", "--out", base / "world"))
    ok(ingest(base, base / "world" / "stations", base / "data.zip"))
    ok(frostcast("folds", "--data", base / "data.zip", "--seed", 0, "--n-folds", 5,
                 "--out", base / "folds.json"))
    ok(train(base / "data.zip", base / "folds.json", base / "uncalibrated", epochs=50))
    calibrated(base / "uncalibrated", base / "data.zip", base / "bank")
    return base


@pytest.fixture(scope="session")
def readme_outputs(readme):
    """The README world's directory once the README chain has written ``readme.json``,
    ``wavg.asc``, ``avg.asc`` and ``pvalues.csv`` into it."""
    readme_chain(readme / "data.zip", readme / "bank", readme)
    return readme


@pytest.fixture(scope="session")
def gapped(readme):
    """Bundle and bank of a gapped world: of fold 0's training stations, the first keeps
    the first half of its rows and the second the rest, so no minute has every source."""
    stations = readme / "gapped-stations"
    shutil.copytree(readme / "world" / "stations", stations)
    early, late = (stations / f"{sid}.csv" for sid in training_stations(readme)[:2])
    rows = early.read_text().splitlines(keepends=True)
    half = len(rows) // 2
    early.write_text("".join(rows[:half]))
    rows = late.read_text().splitlines(keepends=True)
    late.write_text("".join(rows[:1] + rows[half:]))
    data, bank = readme / "gapped.zip", readme / "gapped-bank"
    ok(ingest(readme, stations, data))
    ok(train(data, readme / "folds.json", bank, epochs=5))
    return data, bank


@pytest.fixture(scope="session")
def twin(readme):
    """Bundle and bank of a twin world: station "twin" copies the site and rows of fold 0's
    first training station and joins its fold, so two bank sources share a site."""
    copied = training_stations(readme)[0]
    stations = edited_stations(readme, readme / "twin-stations", lambda listing: listing.append(
        {**next(s for s in listing if s["id"] == copied), "id": "twin"}))
    shutil.copy(stations / f"{copied}.csv", stations / "twin.csv")
    folds = json.loads((readme / "folds.json").read_text())
    next(f for f in folds["folds"] if copied in f).append("twin")
    (readme / "twin-folds.json").write_text(json.dumps(folds))
    data, bank = readme / "twin.zip", readme / "twin-bank"
    ok(ingest(readme, stations, data))
    ok(train(data, readme / "twin-folds.json", bank, epochs=5))
    return data, bank


@pytest.fixture(scope="session")
def holed(readme):
    """The README world's bundle ingested through a boundary whose second ring is a hole
    of +-0.15 degrees around the first station."""
    outer = json.loads((readme / "world" / "boundary.json").read_text())["rings"][0]
    first = json.loads((readme / "world" / "stations" / "stations.json").read_text())
    lon, lat = first["stations"][0]["lon"], first["stations"][0]["lat"]
    hole = [[lon - 0.15, lat - 0.15], [lon + 0.15, lat - 0.15],
            [lon + 0.15, lat + 0.15], [lon - 0.15, lat + 0.15]]
    (readme / "holed.json").write_text(json.dumps({"rings": [outer, hole]}))
    data = readme / "holed.zip"
    ok(ingest(readme, readme / "world" / "stations", data, boundary=readme / "holed.json"))
    return data


class TestRefusals:
    @pytest.mark.parametrize("edit", [
        lambda listing: listing[0].update(lon=str(listing[0]["lon"])),
        lambda listing: listing[0].update(id=10001),
    ], ids=["quoted-longitude", "numeric-id"])
    def test_bad_station_listing(self, readme, tmp_path, edit):
        out = tmp_path / "data.zip"
        assert_refused(ingest(readme, edited_stations(readme, tmp_path / "stations", edit), out),
                       out)

    # A string fold or a station the bundle lacks, and specs no world can be built from.
    @pytest.mark.parametrize("command, text", [
        ("train", '{"folds": ["10001", ["10002", "10003"]]}'),
        ("train", '{"folds": [["10001", "99999"], ["10002", "10003"]]}'),
        ("synth", '{"n_stations": 9223372036854775808}'),
        ("synth", '{"seed": 7, "n_stations": 20, "days": 2, "lapse_rate": 1e308}'),
        ("synth", '{"days": 100000}'),
    ], ids=["string-fold", "missing-station", "many-stations", "overflow", "long"])
    def test_bad_folds_or_spec(self, readme, tmp_path, command, text):
        path, out = tmp_path / "input.json", tmp_path / "out"
        path.write_text(text)
        argv = {"train": ["train", "--data", readme / "data.zip", "--folds", path, "--fold", 0],
                "synth": ["synth", "--spec", path]}[command]
        assert_refused(frostcast(*argv, "--out", out), out)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nan_learning_rate_or_trigger(self, readme, tmp_path, command):
        out = tmp_path / "out"
        argv = {"train": ["train", "--data", readme / "data.zip", "--folds", readme / "folds.json",
                          "--fold", 0, "--learning-rate=nan"],
                "eval": ["eval", "--data", readme / "data.zip", "--bank", readme / "bank",
                         "--trigger=nan"]}[command]
        assert_refused(frostcast(*argv, "--out", out), out)

    def test_huge_count_range_within_1_5_gb(self, readme, tmp_path):
        # Expanding the range would take gigabytes; the bank size bounds it first.
        out = tmp_path / "huge.json"
        assert_refused(frostcast("eval", "--data", readme / "data.zip", "--bank", readme / "bank",
                                 "--counts", "1..1000000000", "--out", out,
                                 address_space=HUGE_COUNT_ADDRESS_SPACE), out)


class TestReadmeWorld:
    def test_calibrate_on_one_cpu(self, readme, tmp_path):
        skip_on_one_cpu()
        assert (calibrated(readme / "uncalibrated", readme / "data.zip", tmp_path / "bank",
                           one_cpu=True)
                == (readme / "bank" / "manifest.json").read_bytes())

    @pytest.mark.parametrize("methods, counts", [("idw,ok", "2..10,10..15:5"),
                                                 ("avg,baseline", "5")])
    def test_eval_on_one_cpu(self, readme, tmp_path, methods, counts):
        argv = ["eval", "--data", readme / "data.zip", "--bank", readme / "bank",
                "--methods", methods, "--counts", counts, "--deterministic"]
        out = tmp_path / "report.json"
        ok(frostcast(*argv, "--out", out))
        assert_same_bytes_on_one_cpu(argv, out)

    def test_readme_eval_on_one_cpu(self, readme_outputs):
        assert_same_bytes_on_one_cpu(readme_eval(readme_outputs / "data.zip",
                                                 readme_outputs / "bank"),
                                     readme_outputs / "readme.json")

    def test_readme_chain_twice_is_byte_identical(self, readme_outputs, tmp_path):
        # Train, calibrate, eval, raster and compare again: the bank (its one
        # manifest), the report, both rasters and the p-values keep their bytes.
        data = readme_outputs / "data.zip"
        ok(train(data, readme_outputs / "folds.json", tmp_path / "bank", epochs=50))
        ok(frostcast("calibrate", "--bank", tmp_path / "bank", "--data", data))
        readme_chain(data, tmp_path / "bank", tmp_path)
        assert os.listdir(readme_outputs / "bank") == os.listdir(tmp_path / "bank") == [
            "manifest.json"]
        for name in ("bank/manifest.json", "readme.json", "wavg.asc", "avg.asc", "pvalues.csv"):
            assert (tmp_path / name).read_bytes() == (readme_outputs / name).read_bytes(), name


class TestGappedWorld:
    def test_eval_on_one_cpu(self, gapped, tmp_path):
        # Kriging still fits one pooled variogram, within the minute it always took.
        data, bank = gapped
        argv = ["eval", "--data", data, "--bank", bank, "--methods", "idw,ok",
                "--counts", "2..10,10..15:5", "--deterministic"]
        out = tmp_path / "gapped.json"
        ok(frostcast(*argv, "--out", out, timeout=60))
        assert_same_bytes_on_one_cpu(argv, out, timeout=60)

    def test_calibrate_on_one_cpu(self, gapped, tmp_path):
        # The cut sources leave NaN cells in the calibration blocks.
        data, bank = gapped
        pooled = calibrated(bank, data, tmp_path / "bank")
        skip_on_one_cpu()
        assert calibrated(bank, data, tmp_path / "bank-one-cpu", one_cpu=True) == pooled


class TestTwinWorld:
    def test_eval_scores_every_ok_row_and_matches_on_one_cpu(self, twin, tmp_path):
        data, bank = twin
        argv = ["eval", "--data", data, "--bank", bank, "--methods", "idw,ok",
                "--counts", "2..10,10..16:5", "--deterministic"]
        out = tmp_path / "twin.json"
        ok(frostcast(*argv, "--out", out))
        rows = json.loads(out.read_text())["results"]
        empty = [r["station_count"] for r in rows if r["method"] == "ok" and r["n_predictions"] <= 0]
        assert empty == [], f"ok rows without predictions at counts {empty}"
        assert_same_bytes_on_one_cpu(argv, out)


class TestHoledBoundary:
    def test_bundle_changes_and_raster_has_nodata_cells(self, readme, holed, tmp_path):
        assert holed.read_bytes() != (readme / "data.zip").read_bytes(), \
            "the holed boundary masked no cell"
        out = tmp_path / "holed.asc"
        ok(frostcast("raster", "--data", holed, "--bank", readme / "bank", "--method", "wavg",
                     "--timestamp", 300, "--out", out))
        assert any("-9999.0" in line for line in out.read_text().splitlines()[6:])

    def test_first_station_takes_the_nearest_unmasked_cell(self, readme, holed):
        from scipy.spatial import cKDTree  # an independent nearest-cell oracle

        listing = json.loads((readme / "world" / "stations" / "stations.json").read_text())
        data = load_dataset(holed)
        station = index_series(data.stations)[listing["stations"][0]["id"]].attributes
        for grid, value in ((data.dem, station.dem), (data.ndvi, station.ndvi)):
            assert not grid.mask[grid.index_of(station.location)]
            lon, lat = grid.cell_centers()
            _, nearest = cKDTree(np.column_stack([lon[grid.mask], lat[grid.mask]])).query(
                [station.location.lon, station.location.lat])
            assert value == grid.values[grid.mask][nearest]
