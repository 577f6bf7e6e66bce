"""Command-line interface: argument parsing, the full pipeline, exit codes."""

import builtins
import contextlib
import io
import json
import math
import os
import re
import shutil
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from frostcast import (
    FoldAssignment,
    FrostcastError,
    build_prediction_matrices,
    cli,
    ensemble,
    evaluate,
    features,
    geostats,
    load_bank,
    load_dataset,
    save_bank,
    synth,
)
from frostcast.cli import UsageError, main, parse_counts, parse_methods
from frostcast.core import StationSeries, index_series
from frostcast.ensemble import (
    FOLD_COEFFICIENT_PRESETS,
    SubmodelBank,
    calibrate_coefficients,
)
from frostcast.errors import DomainError
from frostcast.features import climate_matrix, station_frame
from frostcast.synth import MAX_GRID_CELLS, MAX_STATIONS

SPEC = {
    "seed": 77,
    "n_stations": 6,
    "lon_min": 146.0,
    "lon_max": 147.0,
    "lat_min": -34.0,
    "lat_max": -33.0,
    "cell_size": 0.25,
    "days": 1,
    "sample_interval": 5,
    "noise_sd": 0.3,
}


class TestParseCounts:
    def test_ranges_and_steps(self):
        assert parse_counts("1..10,10..60:10", 60) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                                       20, 30, 40, 50, 60]
        assert parse_counts("2..6:2", 60) == [2, 4, 6]

    def test_duplicates_collapse_and_sort(self):
        assert parse_counts("3,1,2,2", 3) == [1, 2, 3]

    def test_single_value(self):
        assert parse_counts("5", 5) == [5]

    @pytest.mark.parametrize("bad", ["", "0", "a", "5..1", "1..4:0", "1..4:x", "1,,2"])
    def test_bad_tokens(self, bad):
        with pytest.raises(UsageError):
            parse_counts(bad, 60)

    def test_upper_bound_checks_the_last_count_a_range_reaches(self):
        assert parse_counts("1..20:5", 16) == [1, 6, 11, 16]
        for text in ("17", "1..17", "2..18:4", "1..1000000000"):
            with pytest.raises(DomainError, match=r"^counts must lie in \[1, 16\]"):
                parse_counts(text, 16)


class TestParseMethods:
    def test_tokens_expand(self):
        assert parse_methods("avg,wavg,vote") == [
            "average", "weighted_average", "weighted_vote",
        ]

    def test_dedup_preserves_order(self):
        assert parse_methods("vote,avg,vote") == ["weighted_vote", "average"]

    def test_unknown_token(self):
        with pytest.raises(UsageError):
            parse_methods("avg,magic")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole CLI once: synth -> ingest -> folds -> train -> calibrate."""
    base = tmp_path_factory.mktemp("cli")
    paths = {
        "spec": base / "spec.json",
        "world": base / "world",
        "data": base / "data.zip",
        "folds": base / "folds.json",
        "bank": base / "bank",
        "report": base / "report.json",
    }
    paths["spec"].write_text(json.dumps(SPEC))
    assert main(["synth", "--spec", str(paths["spec"]), "--out", str(paths["world"])]) == 0
    assert main([
        "ingest",
        "--stations", str(paths["world"] / "stations"),
        "--dem", str(paths["world"] / "dem.asc"),
        "--ndvi", str(paths["world"] / "ndvi.asc"),
        "--boundary", str(paths["world"] / "boundary.json"),
        "--out", str(paths["data"]),
    ]) == 0
    assert main([
        "folds", "--data", str(paths["data"]), "--seed", "1", "--n-folds", "3",
        "--deterministic", "--out", str(paths["folds"]),
    ]) == 0
    assert main([
        "train", "--data", str(paths["data"]), "--folds", str(paths["folds"]),
        "--fold", "0", "--seed", "2", "--epochs", "3", "--entry-stride", "10",
        "--max-entries", "2000", "--out", str(paths["bank"]),
    ]) == 0
    assert main(["calibrate", "--bank", str(paths["bank"]), "--preset", "paper-fold-0"]) == 0
    return paths


class TestPipeline:
    def test_world_files_written(self, pipeline):
        assert (pipeline["world"] / "dem.asc").exists()
        assert (pipeline["world"] / "stations" / "stations.json").exists()

    def test_folds_cover_all_stations(self, pipeline):
        doc = json.loads(pipeline["folds"].read_text())
        assert doc["version"] == 1
        ids = sorted(sid for fold in doc["folds"] for sid in fold)
        assert len(ids) == 6 and len(set(ids)) == 6

    def test_preset_sets_coefficients(self, pipeline):
        bank = load_bank(pipeline["bank"])
        assert (bank.coefficients.geo, bank.coefficients.dem, bank.coefficients.ndvi) == (
            0.1629, 0.0132, 0.0290,
        )

    def test_eval_writes_report(self, pipeline):
        rc = main([
            "eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--methods", "avg,wavg,vote", "--deterministic",
            "--out", str(pipeline["report"]),
        ])
        assert rc == 0
        doc = json.loads(pipeline["report"].read_text())
        assert doc["methods"] == ["average", "weighted_average", "weighted_vote"]
        assert doc["results"] and "generated_at" not in doc

    def test_eval_rerun_byte_identical(self, pipeline, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = [
            "eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--deterministic",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_eval_baseline_uses_stored_split(self, pipeline, tmp_path):
        # The row scores the last fifth of each station's labels, the rows after
        # the 80% its baseline trained on.
        bank = load_bank(pipeline["bank"])
        out = tmp_path / "r.json"
        assert main([
            "eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--methods", "baseline", "--deterministic", "--out", str(out),
        ]) == 0
        [row] = json.loads(out.read_text())["results"]
        by_id = {s.id: s for s in load_dataset(pipeline["data"]).stations}
        rows = [station_frame(by_id[sid]).labels.size for sid in bank.baselines]
        assert rows and row["method"] == "baseline"
        assert row["n_predictions"] == sum(n - int(n * 0.8) for n in rows)

    def test_fold_2_bank_reports_fold_2_on_every_row(self, pipeline, tmp_path):
        bank, out = tmp_path / "bank", tmp_path / "r.json"
        assert main([
            "train", "--data", str(pipeline["data"]), "--folds", str(pipeline["folds"]),
            "--fold", "2", "--seed", "2", "--epochs", "1", "--entry-stride", "10",
            "--max-entries", "2000", "--out", str(bank),
        ]) == 0
        assert main([
            "eval", "--data", str(pipeline["data"]), "--bank", str(bank),
            "--methods", "avg,wavg,idw,baseline", "--counts", "1,2", "--deterministic",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["fold"] == 2
        assert len(doc["results"]) == 7 and {r["fold"] for r in doc["results"]} == {2}

    @pytest.mark.parametrize("command", ["train", "calibrate", "eval", "raster"])
    def test_each_station_derived_once_per_command(self, pipeline, tmp_path, monkeypatch,
                                                   command):
        bank_dir, data = tmp_path / "bank", str(pipeline["data"])
        shutil.copytree(pipeline["bank"], bank_dir)
        argv = {
            "train": ["train", "--data", data, "--folds", str(pipeline["folds"]), "--fold", "0",
                      "--epochs", "1", "--entry-stride", "10", "--out", str(bank_dir)],
            "calibrate": ["calibrate", "--bank", str(bank_dir), "--data", data],
            "eval": ["eval", "--data", data, "--bank", str(bank_dir), "--methods", "avg,baseline",
                     "--deterministic", "--out", str(tmp_path / "r.json")],
            "raster": ["raster", "--data", data, "--bank", str(bank_dir), "--method", "avg",
                       "--timestamp", "60", "--out", str(tmp_path / "a.asc")],
        }[command]
        calls = Counter()

        def counted(name, fn):
            def wrapper(series, *args, **kwargs):
                calls[name, series.id] += 1
                return fn(series, *args, **kwargs)
            return wrapper

        for name in ("label_arrays", "climate_matrix"):
            wrapper = counted(name, getattr(features, name))
            for module in (features, ensemble, evaluate, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        # Pool workers' calls are invisible to this process; one worker runs in it.
        monkeypatch.setattr(ensemble, "_worker_count", lambda: 1)
        assert main(argv) == 0
        assert calls and max(calls.values()) == 1, dict(calls)

    @pytest.mark.parametrize("methods", ["avg", "avg,baseline"])
    def test_eval_derives_only_what_each_role_reads(self, pipeline, tmp_path, derivations,
                                                    methods):
        # Sources are read for their climate, held-out targets for their labels, and
        # a baseline's station for both.
        bank = load_bank(pipeline["bank"])
        sources = set(bank.station_ids)
        targets = set(load_dataset(pipeline["data"]).station_ids()) - sources
        both = set(bank.baselines) if "baseline" in methods else set()
        assert both <= targets
        assert main(["eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
                     "--methods", methods, "--deterministic",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert dict(derivations) == ({("climate_matrix", sid): 1 for sid in sources | both}
                                     | {("label_arrays", sid): 1 for sid in targets})

    def test_eval_baseline_station_missing_from_data(self, pipeline, tmp_path, capsys):
        dropped = sorted(load_bank(pipeline["bank"]).baselines)[-1]
        stations = tmp_path / "stations"
        shutil.copytree(pipeline["world"] / "stations", stations)
        listing = json.loads((stations / "stations.json").read_text())
        listing["stations"] = [e for e in listing["stations"] if str(e["id"]) != dropped]
        (stations / "stations.json").write_text(json.dumps(listing))
        (stations / f"{dropped}.csv").unlink()
        data = tmp_path / "data.zip"
        assert main([
            "ingest", "--stations", str(stations),
            "--dem", str(pipeline["world"] / "dem.asc"),
            "--ndvi", str(pipeline["world"] / "ndvi.asc"),
            "--out", str(data),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "eval", "--data", str(data), "--bank", str(pipeline["bank"]),
            "--methods", "baseline", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(dropped) in err

    def test_ingest_drops_timestamp_outside_int64(self, pipeline, tmp_path, capsys):
        stations = tmp_path / "stations"
        shutil.copytree(pipeline["world"] / "stations", stations)
        first = json.loads((stations / "stations.json").read_text())["stations"][0]["id"]
        with open(stations / f"{first}.csv", "a") as fh:
            fh.write("100000000000000000000,10,5,50,2,90\n")
        capsys.readouterr()
        assert main([
            "ingest", "--stations", str(stations),
            "--dem", str(pipeline["world"] / "dem.asc"),
            "--ndvi", str(pipeline["world"] / "ndvi.asc"),
            "--out", str(tmp_path / "data.zip"),
        ]) == 0
        assert "(1 rows dropped)" in capsys.readouterr().out
        by_id = index_series(load_dataset(tmp_path / "data.zip").stations)
        assert len(by_id[str(first)]) == 24 * 60 // 5

    @pytest.mark.parametrize("source", ["preset", "data"])
    def test_calibrate_rewrites_only_the_manifest(self, pipeline, tmp_path, source):
        bank_dir = tmp_path / "bank"
        bank = load_bank(pipeline["bank"])
        save_bank(bank, bank_dir)
        old_manifest = (bank_dir / "manifest.json").read_bytes()
        if source == "preset":
            extra = ["--preset", "paper-fold-1"]
        else:
            extra = ["--data", str(pipeline["data"])]
        assert main(["calibrate", "--bank", str(bank_dir), *extra]) == 0

        # The loaded bank with only its coefficients changed, saved afresh.
        if source == "preset":
            coefficients = FOLD_COEFFICIENT_PRESETS[1]
        else:
            coefficients = calibrate_coefficients(bank, load_dataset(pipeline["data"]).stations,
                                                  stride=30)
        bank.coefficients = coefficients
        save_bank(bank, tmp_path / "expected")
        assert [f.name for f in bank_dir.iterdir()] == ["manifest.json"]
        new_manifest = (bank_dir / "manifest.json").read_bytes()
        assert new_manifest == (tmp_path / "expected" / "manifest.json").read_bytes()
        assert new_manifest != old_manifest
        # Models, scalers and baselines are carried over bit for bit.
        old, new = json.loads(old_manifest), json.loads(new_manifest)
        assert old.pop("coefficients") != new.pop("coefficients")
        assert old == new and old["baselines"]

    def test_raster_and_compare(self, pipeline, tmp_path):
        bank = load_bank(pipeline["bank"])
        source = bank.station_ids[0]
        rasters = []
        for token in ("avg", "wavg", f"single:{source}"):
            out = tmp_path / f"{token.split(':')[0]}.asc"
            rc = main([
                "raster", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
                "--method", token, "--timestamp", "60", "--out", str(out),
            ])
            assert rc == 0
            rasters.append(out)
        rerun = tmp_path / "again.asc"
        assert main([
            "raster", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--method", "avg", "--timestamp", "60", "--out", str(rerun),
        ]) == 0
        assert rerun.read_bytes() == rasters[0].read_bytes()
        matrix = tmp_path / "matrix.csv"
        assert main(
            ["compare", "--rasters", *map(str, rasters), "--out", str(matrix)]
        ) == 0
        lines = matrix.read_text().strip().splitlines()
        assert lines[0] == ",avg,single,wavg"
        assert len(lines) == 4


def _edited_bundle(pipeline, path, mutate):
    """A copy of the pipeline's bundle at ``path``, its manifest edited in place by ``mutate``."""
    with zipfile.ZipFile(pipeline["data"]) as src, zipfile.ZipFile(path, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            if name == "manifest.json":
                manifest = json.loads(data)
                mutate(manifest)
                data = json.dumps(manifest)
            dst.writestr(name, data)
    return path


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_missing_input_file(self, tmp_path):
        rc = main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 3

    def test_bad_counts_expression(self, pipeline, tmp_path):
        rc = main([
            "eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--counts", "junk", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_diverging_train_is_numerical_error(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--data", str(pipeline["data"]), "--folds", str(pipeline["folds"]),
            "--fold", "0", "--epochs", "2", "--entry-stride", "10",
            "--learning-rate", "1e50", "--out", str(tmp_path / "bank"),
        ])
        assert rc == 4
        assert "error: training diverged at epoch " in capsys.readouterr().err

    def test_manifest_missing_station_key(self, pipeline, tmp_path, capsys):
        bad = _edited_bundle(pipeline, tmp_path / "data.zip",
                             lambda m: m["stations"][0].pop("lon"))
        capsys.readouterr()
        rc = main(["folds", "--data", str(bad), "--seed", "0", "--out", str(tmp_path / "f.json")])
        assert rc == 3
        assert capsys.readouterr().err == "error: malformed manifest: 'lon'\n"

    @pytest.mark.parametrize("command", ["folds", "raster"])
    @pytest.mark.parametrize("mutate", [
        lambda m: m["stations"][0].update(lon=10**400),
        lambda m: m["grids"]["dem"].update(cell_size=math.nan),
    ], ids=["huge-lon", "nan-cell-size"])
    def test_bundle_manifest_numbers_checked(self, pipeline, tmp_path, capsys, mutate, command):
        bad, out = _edited_bundle(pipeline, tmp_path / "data.zip", mutate), tmp_path / "out"
        argv = {
            "folds": ["folds", "--data", str(bad), "--seed", "0", "--out", str(out)],
            "raster": ["raster", "--data", str(bad), "--bank", str(pipeline["bank"]),
                       "--method", "wavg", "--timestamp", "60", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: malformed manifest: ") and err.count("\n") == 1
        assert "finite numbers" in err and not out.exists()

    @pytest.mark.parametrize("command", ["folds", "raster"])
    @pytest.mark.parametrize("grid", ["dem", "ndvi"])
    def test_bundle_without_a_grid_refused(self, pipeline, tmp_path, capsys, grid, command):
        bad = _edited_bundle(pipeline, tmp_path / "data.zip", lambda m: m["grids"].pop(grid))
        out = tmp_path / "out"
        argv = {
            "folds": ["folds", "--data", str(bad), "--seed", "0", "--out", str(out)],
            "raster": ["raster", "--data", str(bad), "--bank", str(pipeline["bank"]),
                       "--method", "wavg", "--timestamp", "60", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: malformed manifest: '{grid}'\n"
        assert not out.exists()

    def test_bundle_manifest_not_an_object(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "data.zip"
        with zipfile.ZipFile(pipeline["data"]) as src, zipfile.ZipFile(bad, "w") as dst:
            for name in src.namelist():
                dst.writestr(name, "[]" if name == "manifest.json" else src.read(name))
        capsys.readouterr()
        rc = main(["folds", "--data", str(bad), "--seed", "0", "--out", str(tmp_path / "f.json")])
        assert rc == 3
        assert capsys.readouterr().err == "error: bundle manifest is not a JSON object: list\n"

    def test_bank_manifest_not_an_object(self, pipeline, tmp_path, capsys):
        bank = tmp_path / "bank"
        shutil.copytree(pipeline["bank"], bank)
        (bank / "manifest.json").write_text("[]")
        capsys.readouterr()
        rc = main(["eval", "--data", str(pipeline["data"]), "--bank", str(bank),
                   "--out", str(tmp_path / "report.json")])
        assert rc == 3
        assert capsys.readouterr().err == "error: manifest is not a JSON object: list\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("baselines", [5, "abc", [1, 2], None])
    def test_bank_baselines_not_a_map_of_models(self, pipeline, tmp_path, capsys, baselines):
        bank = tmp_path / "bank"
        shutil.copytree(pipeline["bank"], bank)
        manifest = json.loads((bank / "manifest.json").read_text())
        manifest["baselines"] = baselines
        (bank / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["eval", "--data", str(pipeline["data"]), "--bank", str(bank),
                   "--methods", "baseline", "--counts", "2", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: malformed manifest: baselines must be an object, got {baselines!r}\n")
        assert not (tmp_path / "r.json").exists()

    def test_bank_baseline_not_a_model(self, pipeline, tmp_path, capsys):
        bank = tmp_path / "bank"
        shutil.copytree(pipeline["bank"], bank)
        manifest = json.loads((bank / "manifest.json").read_text())
        sid = sorted(manifest["baselines"])[0]
        manifest["baselines"][sid] = 1
        (bank / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["eval", "--data", str(pipeline["data"]), "--bank", str(bank),
                   "--methods", "baseline", "--counts", "2", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: malformed manifest: ")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("horizon", True), ("horizon", 60.9), ("horizon", 60.0), ("horizon", "60"),
        ("horizon", None), ("horizon", 0), ("horizon", -60), ("fold", False),
        ("fold", 0.5), ("fold", "0"), ("fold", None),
    ])
    def test_bank_horizon_and_fold_must_be_integers(self, pipeline, tmp_path, capsys, key, value):
        bank = tmp_path / "bank"
        shutil.copytree(pipeline["bank"], bank)
        manifest = json.loads((bank / "manifest.json").read_text())
        manifest[key] = value
        (bank / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["eval", "--data", str(pipeline["data"]), "--bank", str(bank),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: malformed manifest: {key} must be")
        assert not (tmp_path / "r.json").exists()

    def test_eval_ok_and_idw_rows(self, pipeline, tmp_path):
        out = tmp_path / "r.json"
        assert main([
            "eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--methods", "ok,idw", "--counts", "2..4", "--deterministic", "--out", str(out),
        ]) == 0
        rows = json.loads(out.read_text())["results"]
        assert [(r["method"], r["station_count"]) for r in rows] == [
            (m, k) for k in (2, 3, 4) for m in ("ok", "idw")
        ]
        assert all(r["n_predictions"] > 0 for r in rows)

    def test_eval_ok_rejects_inf_prediction(self, pipeline, tmp_path, capsys, monkeypatch):
        # Every source's first prediction is inf, so the minutes the variogram
        # pools hold a non-finite value.
        predict = SubmodelBank.predict_batch

        def first_inf(self, *args):
            out = predict(self, *args)
            out[0] = np.inf
            return out

        monkeypatch.setattr(SubmodelBank, "predict_batch", first_inf)
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main([
            "eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--methods", "ok", "--counts", "2", "--deterministic", "--out", str(out),
        ]) == 3
        assert capsys.readouterr().err == "error: sample value must be finite: inf\n"
        assert not out.exists()

    def test_bad_preset(self, pipeline):
        assert main(["calibrate", "--bank", str(pipeline["bank"]), "--preset", "bogus"]) == 2
        assert main(["calibrate", "--bank", str(pipeline["bank"]), "--preset", "paper-fold-9"]) == 2

    def test_calibrate_without_data_or_preset(self, pipeline):
        assert main(["calibrate", "--bank", str(pipeline["bank"])]) == 2

    def test_bad_raster_method(self, pipeline, tmp_path):
        rc = main([
            "raster", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--method", "cubist", "--timestamp", "60", "--out", str(tmp_path / "r.asc"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("minute", ["61", "100000000000000000000", "-1"])
    def test_raster_at_minute_without_observations(self, pipeline, tmp_path, minute):
        rc = main([
            "raster", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
            "--method", "avg", "--timestamp", minute, "--out", str(tmp_path / "r.asc"),
        ])
        assert rc == 3

    def test_compare_needs_two_distinct(self, pipeline, tmp_path):
        one = tmp_path / "a.asc"
        one.write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1.0\n")
        assert main(["compare", "--rasters", str(one), "--out", str(tmp_path / "m.csv")]) == 2
        other_dir = tmp_path / "sub"
        other_dir.mkdir()
        twin = other_dir / "a.asc"
        twin.write_text(one.read_text())
        assert main([
            "compare", "--rasters", str(one), str(twin), "--out", str(tmp_path / "m.csv"),
        ]) == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block():
    """The README's spec text and its ``frostcast`` commands, each as an argv list."""
    text = README.read_text(encoding="utf-8")
    spec = re.search(r"cat > spec\.json <<'EOF'\n(.*?)\nEOF", text, re.S).group(1)
    joined = text.replace("\\\n", " ")
    commands = [line.split()[1:] for line in joined.splitlines() if line.startswith("frostcast ")]
    return spec, commands


@pytest.fixture(scope="class")
def readme_run(tmp_path_factory):
    """Every README command in order, verbatim except that the bank trains for
    2 epochs instead of 50. Returns the directory, the commands and their exit codes."""
    spec, commands = _readme_block()
    workdir = tmp_path_factory.mktemp("readme")
    codes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        Path("spec.json").write_text(spec)
        for argv in commands:
            if argv[0] == "train":
                argv[argv.index("--epochs") + 1] = "2"
            codes.append(main(argv))
    return workdir, commands, codes


class TestReadmeEval:
    def test_readme_eval_line_exits_0_with_an_empty_ok_row(self, readme_run):
        # The ok row at one station does not depend on how well the submodels fit.
        workdir, commands, codes = readme_run
        names = [argv[0] for argv in commands]
        upto = names.index("eval") + 1
        assert codes[:upto] == [0] * upto, commands[:upto]
        report = commands[names.index("eval")]
        rows = json.loads((workdir / report[report.index("--out") + 1]).read_text())["results"]
        empty = [r for r in rows if r["n_predictions"] == 0]
        assert empty == [{"method": "ok", "station_count": 1, "fold": 0, "seed": 0, "rmse": None,
                          "tpr": None, "fdr": None, "n_predictions": 0, "n_events": 0}]
        assert {(r["method"], r["station_count"]) for r in rows} == {
            (m, k) for m in ("average", "weighted_average", "weighted_vote", "idw", "ok")
            for k in (*range(1, 11), 15)
        }

    def test_gapped_world_fits_one_variogram(self, readme_run, monkeypatch):
        # One bank source keeps only the first half of its rows and another only
        # the second half, so no minute has every source. Kriging still fits
        # one variogram, pooled over the minutes, and scores every row.
        workdir, commands, codes = readme_run
        upto = [argv[0] for argv in commands].index("calibrate") + 1
        assert codes[:upto] == [0] * upto, commands[:upto]
        data, bank = load_dataset(workdir / "data.zip"), load_bank(workdir / "bank")
        assert len(bank) == 16
        first, second = bank.station_ids[:2]
        stations = []
        for series in data.stations:
            half = len(series) // 2
            keep = {first: slice(None, half), second: slice(half, None)}.get(series.id, slice(None))
            stations.append(StationSeries(series.id, series.attributes, series.timestamps[keep],
                                          series.raw[keep]))
        held_out = frozenset(data.station_ids()) - frozenset(bank.station_ids)
        folds = FoldAssignment((held_out, frozenset(bank.station_ids)))
        matrices = build_prediction_matrices(stations, bank, sorted(held_out))
        assert not any((~np.isnan(pm.values)).all(axis=0).any() for pm in matrices)
        fits = []
        fit = geostats.fit_variogram
        monkeypatch.setattr(geostats, "fit_variogram", lambda *bins: fits.append(bins) or fit(*bins))
        [row] = evaluate.run_station_ablation(stations, folds, 0, bank, [16], ("ok",),
                                              matrices=matrices).results
        assert len(fits) == 1
        assert row.n_predictions == sum(pm.labels.size for pm in matrices)
        assert math.isfinite(row.rmse)

    def test_readme_raster_and_compare_lines_exit_0(self, readme_run):
        workdir, commands, codes = readme_run
        names = [argv[0] for argv in commands]
        assert names[-3:] == ["raster", "raster", "compare"]
        assert codes[-3:] == [0, 0, 0], commands[-3:]
        compare = commands[-1]
        rasters = compare[compare.index("--rasters") + 1:compare.index("--out")]
        labels = [Path(r).stem for r in rasters]
        assert len(labels) == 2
        rows = [line.split(",") for line in
                (workdir / compare[compare.index("--out") + 1]).read_text().splitlines()]
        assert rows[0] == ["", *labels]
        assert [row[0] for row in rows[1:]] == labels
        assert rows[1][1] == rows[2][2] == "N/A"
        assert rows[1][2] == rows[2][1]
        assert 0.0 <= float(rows[1][2]) <= 1.0

    def test_readme_raster_snapshot_is_the_climate_block_row(self, readme_run, tmp_path,
                                                             monkeypatch):
        workdir, commands, _ = readme_run
        argv = next(argv for argv in commands if argv[0] == "raster")
        minute = int(argv[argv.index("--timestamp") + 1])
        snapshots = []

        def capture(bank, snapshot, *args):
            snapshots.append(snapshot)
            return generate_raster(bank, snapshot, *args)

        generate_raster = cli.generate_raster
        monkeypatch.setattr(cli, "generate_raster", capture)
        monkeypatch.chdir(workdir)
        out = argv.index("--out") + 1
        assert main([*argv[:out], str(tmp_path / "r.asc"), *argv[out + 1:]]) == 0
        [snapshot] = snapshots
        by_id = index_series(load_dataset(argv[argv.index("--data") + 1]).stations)
        assert sorted(snapshot) == load_bank(argv[argv.index("--bank") + 1]).station_ids
        for sid, values in snapshot.items():
            obs = climate_matrix(by_id[sid])
            row = obs.climate[int(np.searchsorted(obs.timestamps, minute))]
            assert np.array(values).tobytes() == row.tobytes()


BAD_SPECS = [
    '{"seed": "a"}',
    '{"days": 1.5}',
    '{"n_stations": 5.5}',
    '{"harmonic_amplitudes": 5}',
    '{"harmonic_amplitudes": ["a"]}',
    '{"noise_sd": NaN}',
    # Each of these once ended in a traceback and exit 1.
    '{"seed": -1}',
    '{"start_minute": 9223372036854775807}',
    '{"sample_interval": 9223372036854775808}',
    '{"days": 9223372036854775808}',
    '{"lon_min": -1e308, "lon_max": 1e308}',
    '{"n_stations": 9223372036854775808}',
    # This one once wrote a world of -inf temperatures and NaN humidities, and exited 0.
    '{"n_stations": 5, "days": 1, "lapse_rate": 1e308}',
    # 75 stations x 144,000,000 samples: about 430 GB, once accepted.
    '{"days": 100000}',
]


class TestBadInputsExit3:
    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_mistyped_synth_spec(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "world")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "world").exists()

    def test_huge_train_horizon(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--data", str(pipeline["data"]), "--folds", str(pipeline["folds"]),
            "--fold", "0", "--horizon", str(10**30), "--out", str(tmp_path / "bank"),
        ])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: horizon must be 1 to ")
        assert not (tmp_path / "bank").exists()

    # Each replaces one header line; {n} stands for the line's own value.
    @pytest.mark.parametrize("header", [b"ncols nan", b"ncols inf", b"nrows {n}.5",
                                        b"ncols {n}\xff"])
    def test_bad_grid_header(self, pipeline, tmp_path, capsys, header):
        world = pipeline["world"]
        lines = (world / "dem.asc").read_bytes().splitlines(keepends=True)
        key = header.split()[0]
        dem = tmp_path / "dem.asc"
        dem.write_bytes(b"".join(header.replace(b"{n}", line.split()[1]) + b"\n"
                                 if line.split()[0] == key else line for line in lines))
        rc = main(["ingest", "--stations", str(world / "stations"), "--dem", str(dem),
                   "--ndvi", str(world / "ndvi.asc"), "--out", str(tmp_path / "data.zip")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "data.zip").exists()

    def test_huge_count_range(self, pipeline, tmp_path, capsys):
        # Expanding this range would take gigabytes; the bank size bounds it first.
        n_src = len(load_bank(pipeline["bank"]))
        rc = main(["eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
                   "--counts", "1..1000000000", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"error: counts must lie in [1, {n_src}]: '1..1000000000'\n"
        assert not (tmp_path / "r.json").exists()

    def test_negative_max_entries(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--data", str(pipeline["data"]), "--folds", str(pipeline["folds"]),
            "--fold", "0", "--max-entries", "-1", "--out", str(tmp_path / "bank"),
        ])
        assert rc == 3
        assert capsys.readouterr().err == "error: max_entries must be >= 1: -1\n"
        assert not (tmp_path / "bank").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate(self, pipeline, tmp_path, capsys, rate):
        # It once trained and exited 4 with "training diverged at epoch 0".
        rc = main([
            "train", "--data", str(pipeline["data"]), "--folds", str(pipeline["folds"]),
            "--fold", "0", f"--learning-rate={rate}", "--out", str(tmp_path / "bank"),
        ])
        assert rc == 3
        assert capsys.readouterr().err == f"error: learning_rate must be finite and > 0: {rate}\n"
        assert not (tmp_path / "bank").exists()

    @pytest.mark.parametrize("trigger", ["nan", "inf", "-inf"])
    def test_non_finite_trigger(self, pipeline, tmp_path, capsys, trigger):
        # NaN and -inf once scored no frost at all, +inf every minute as frost.
        rc = main(["eval", "--data", str(pipeline["data"]), "--bank", str(pipeline["bank"]),
                   f"--trigger={trigger}", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: trigger must be a finite temperature: {trigger}\n")
        assert not (tmp_path / "r.json").exists()

    def test_synth_spec_too_large_for_memory(self, tmp_path, capsys):
        # The spec check refuses the 2.5e25-cell grid before anything is allocated.
        spec = tmp_path / "spec.json"
        spec.write_text('{"seed": 1, "cell_size": 1e-12}')
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "world")]) == 3
        err = capsys.readouterr().err
        assert err == ("error: bad world spec: cell_size 1e-12 makes a grid of 2.5e+25 cells; "
                       f"at most {MAX_GRID_CELLS} fit\n")
        assert not (tmp_path / "world").exists()

    # Each once became folds of single characters, or named a station the bundle
    # lacks, and either way trained every submodel before it failed.
    @pytest.mark.parametrize("folds", [
        '{"folds": ["10001", ["10002", "10003"]]}',
        '{"folds": "10001"}',
        '{"folds": [["10001", "99999"], ["10002", "10003"]]}',
        '{"folds": [["10001", ""], ["10002"]]}',
    ])
    def test_bad_folds_file_refused_before_training(self, pipeline, tmp_path, capsys,
                                                    monkeypatch, folds):
        def no_training(*args, **kwargs):
            raise AssertionError("train_bank ran")
        monkeypatch.setattr(cli, "train_bank", no_training)
        path = tmp_path / "folds.json"
        path.write_text(folds)
        rc = main(["train", "--data", str(pipeline["data"]), "--folds", str(path), "--fold", "0",
                   "--out", str(tmp_path / "bank")])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "bank").exists()

    @pytest.mark.parametrize("command", ["folds", "train", "eval"])
    def test_negative_seed(self, pipeline, tmp_path, capsys, command):
        data, out = str(pipeline["data"]), str(tmp_path / "out")
        argv = {
            "folds": ["folds", "--data", data, "--out", out],
            "train": ["train", "--data", data, "--folds", str(pipeline["folds"]), "--fold", "0",
                      "--out", out],
            "eval": ["eval", "--data", data, "--bank", str(pipeline["bank"]), "--out", out],
        }[command]
        assert main([*argv, "--seed=-1"]) == 3
        assert capsys.readouterr().err == "error: seed must be >= 0: -1\n"
        assert not (tmp_path / "out").exists()

    def test_nan_ingest_cell(self, pipeline, tmp_path, capsys):
        world = pipeline["world"]
        rc = main(["ingest", "--stations", str(world / "stations"), "--dem", str(world / "dem.asc"),
                   "--ndvi", str(world / "ndvi.asc"), "--cell=nan",
                   "--out", str(tmp_path / "data.zip")])
        assert rc == 3
        assert capsys.readouterr().err == "error: cannot upsample from 0.25 to nan\n"
        assert not (tmp_path / "data.zip").exists()


def _bank_commands(pipeline, bank, out):
    """argv per command that reads a bank, writing ``out`` where it writes a file."""
    data = str(pipeline["data"])
    return {
        "eval": ["eval", "--data", data, "--bank", str(bank), "--methods", "avg,wavg,baseline",
                 "--counts", "2", "--deterministic", "--out", str(out)],
        "raster": ["raster", "--data", data, "--bank", str(bank), "--method", "wavg",
                   "--timestamp", "60", "--out", str(out)],
        "calibrate": ["calibrate", "--bank", str(bank), "--data", data],
    }


def _set(path, value):
    def mutate(manifest):
        node = manifest
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


# Each of these once gave a traceback (or, for the NaN coefficient, a misleading
# "no valid predictions") in eval, raster and calibrate.
LOADER_HOLES = {
    "normalization-one-bound": (_set(("normalization", "geo"), [0.0]), "normalization geo"),
    "normalization-strings": (_set(("normalization", "dem"), ["a", "b"]), "normalization dem"),
    "integer-station-id": (_set(("stations", 0, "id"), 7), "station id"),
    "huge-horizon": (_set(("horizon",), 10**30), "horizon must be"),
    "nan-coefficient": (_set(("coefficients", "geo"), math.nan), "coefficients must be"),
}


class TestBankManifest:
    @pytest.mark.parametrize("command", ["eval", "raster", "calibrate"])
    @pytest.mark.parametrize("hole", sorted(LOADER_HOLES))
    def test_loader_hole_exits_3(self, pipeline, tmp_path, capsys, hole, command):
        mutate, message = LOADER_HOLES[hole]
        bank = tmp_path / "bank"
        shutil.copytree(pipeline["bank"], bank)
        manifest = json.loads((bank / "manifest.json").read_text())
        mutate(manifest)
        (bank / "manifest.json").write_text(json.dumps(manifest))
        before = (bank / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(_bank_commands(pipeline, bank, tmp_path / "out")[command]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed manifest: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert (bank / "manifest.json").read_bytes() == before

    def test_schema_2_bank_refused(self, pipeline, tmp_path, capsys):
        # Schema 2 kept one JSON file per model beside a manifest without models.
        bank = tmp_path / "bank"
        bank.mkdir()
        manifest = json.loads((pipeline["bank"] / "manifest.json").read_text())
        for row in manifest["stations"]:
            (bank / f"submodel_{row['id']}.json").write_text(
                json.dumps({"version": 1, **row.pop("model"), "scaler": row.pop("scaler")}))
        del manifest["baselines"]
        manifest.update(version=2, baseline_ids=[])
        (bank / "manifest.json").write_text(json.dumps(manifest, indent=2))
        capsys.readouterr()
        for argv in _bank_commands(pipeline, bank, tmp_path / "out").values():
            assert main(argv) == 3
            assert capsys.readouterr().err == "error: unsupported bank version: 2\n"

    def test_schema_3_bank_refused(self, pipeline, tmp_path, capsys):
        # Schema 3 stored the share of labels each on-site baseline trained on.
        bank = tmp_path / "bank"
        bank.mkdir()
        manifest = json.loads((pipeline["bank"] / "manifest.json").read_text())
        manifest.update(version=3, baseline_train_fraction=0.8)
        (bank / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        for argv in _bank_commands(pipeline, bank, tmp_path / "out").values():
            assert main(argv) == 3
            assert capsys.readouterr().err == "error: unsupported bank version: 3\n"

    @pytest.mark.parametrize("command", ["eval", "raster", "calibrate"])
    def test_each_command_reads_the_manifest_once(self, pipeline, tmp_path, monkeypatch,
                                                   command):
        bank = tmp_path / "bank"
        shutil.copytree(pipeline["bank"], bank)
        reads = []

        def counted_open(file, *args, **kwargs):
            if Path(file).name == "manifest.json":
                reads.append(file)
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(ensemble, "open", counted_open, raising=False)
        assert main(_bank_commands(pipeline, bank, tmp_path / "out")[command]) == 0
        assert len(reads) == 1


_DELETE = object()
REPLACEMENTS = [_DELETE, None, True, False, "x", "", [], {}, 0, -1, 1, 0.5, [0.0], ["a", "b"],
                math.nan, math.inf, -math.inf, 10**30, -10**30, 10**400]


def _replace_at(node, path, value):
    """Replace (or delete) the value that ``path`` picks, one child index per level.

    The walk stops at the end of ``path`` or at a scalar or empty child.
    """
    for depth, step in enumerate(path):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = keys[step % len(keys)]
        child = node[key]
        if depth == len(path) - 1 or not isinstance(child, (dict, list)) or not child:
            if value is _DELETE:
                del node[key]
            else:
                node[key] = value
            return
        node = child


MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("replace"), st.lists(st.integers(0, 10**6), min_size=1, max_size=9),
              st.sampled_from(REPLACEMENTS)),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestBankManifestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutation=MUTATIONS)
    def test_mutated_manifest_fails_only_with_frostcast_errors(self, pipeline, fuzz_dir,
                                                                mutation):
        text = (pipeline["bank"] / "manifest.json").read_text()
        if mutation[0] == "truncate":
            text = text[:int(mutation[1] * len(text))]
        else:
            doc = json.loads(text)
            _replace_at(doc, *mutation[1:])
            text = json.dumps(doc)
        bank, out = fuzz_dir / "bank", fuzz_dir / "r.json"
        bank.mkdir(exist_ok=True)
        (bank / "manifest.json").write_text(text)
        out.unlink(missing_ok=True)
        try:
            load_bank(bank)
            rejected = False
        except FrostcastError:
            rejected = True
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(_bank_commands(pipeline, bank, out)["eval"])
        if rejected:
            assert rc == 3 and not out.exists()
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert rc in (0, 3), err.getvalue()



# --- argv fuzz: every subcommand through main ----------------------------------

INT64_EDGES = [0, 1, -1, 2, 2**31, -2**31, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64, 10**30]
NON_FINITE = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400"]
FLOATS = st.sampled_from([*NON_FINITE, "0", "-0.0", "-1", "0.5", "1e-308", "1e308", "x", ""])
INTS = st.sampled_from([*map(str, INT64_EDGES), "x", "", "1.5"])
TOKEN_LIST = ["", " ", ",", ":", "..", "x", "-", "avg", "wavg", "vote", "idw", "ok", "baseline",
              "single:", "paper-fold-", "paper-fold-0", "paper-fold-9"]
TOKENS = st.sampled_from(TOKEN_LIST)
#: The one training value that scales the work with its size: each training run is one epoch.
FUZZ_EPOCHS = "1"


def _count_token(draw):
    lo, hi, step = (draw(st.sampled_from(INT64_EDGES)) for _ in range(3))
    return draw(st.sampled_from([f"{lo}", f"{lo}..{hi}", f"{lo}..{hi}:{step}", f"1..{hi}",
                                 f"1..{hi}:{step}", draw(TOKENS)]))


def _options(draw, spec):
    """``--name=value`` for a random subset of ``spec``'s (name, strategy) pairs."""
    return [f"--{name}={draw(values)}" for name, values in spec if draw(st.booleans())]


@st.composite
def fuzz_argv(draw, command, inputs):
    """An argv for ``command``: each path a good input (4 in 5) or a bad one, each option
    an edge value or a token."""
    def path(kind):
        return str(draw(st.sampled_from([inputs[kind]] * 16 + inputs["bad"])))

    out = str(inputs["out"])
    if command == "synth":
        spec = draw(st.sampled_from([inputs["spec"], inputs["huge_spec"], *inputs["bad"]]))
        return ["synth", "--spec", str(spec), "--out", out]
    if command == "ingest":
        world = inputs["world"]
        return ["ingest", "--stations", path("stations"), "--dem", path("dem"),
                "--ndvi", path("ndvi"), *_options(draw, [("boundary", st.sampled_from(
                    [world / "boundary.json", *inputs["bad"]])), ("cell", FLOATS)]),
                "--out", out]
    if command == "folds":
        return ["folds", "--data", path("data"),
                *_options(draw, [("seed", INTS), ("n-folds", INTS)]), "--out", out]
    if command == "train":
        return ["train", "--data", path("data"), "--folds", path("folds"),
                f"--fold={draw(INTS)}", f"--epochs={FUZZ_EPOCHS}", "--entry-stride=10",
                *_options(draw, [("seed", INTS), ("batch-size", INTS), ("learning-rate", FLOATS),
                                 ("validation-fraction", FLOATS), ("patience", INTS),
                                 ("horizon", INTS), ("max-entries", INTS)]),
                "--out", out]
    if command == "calibrate":
        return ["calibrate", "--bank", path("bank"),
                *_options(draw, [("data", st.just(inputs["data"])), ("stride", INTS),
                                 ("preset", TOKENS)])]
    if command == "eval":
        counts = ",".join(_count_token(draw) for _ in range(draw(st.integers(1, 3))))
        methods = ",".join(draw(st.lists(TOKENS, min_size=1, max_size=3)))
        return ["eval", "--data", path("data"), "--bank", path("bank"),
                *_options(draw, [("methods", st.just(methods)), ("counts", st.just(counts)),
                                 ("seed", INTS), ("trigger", FLOATS)]),
                "--deterministic", "--out", out]
    if command == "raster":
        method = draw(st.sampled_from(["avg", "wavg", "single:10001", "single:zz", *TOKEN_LIST]))
        return ["raster", "--data", path("data"), "--bank", path("bank"), f"--method={method}",
                f"--timestamp={draw(st.sampled_from(['300', *map(str, INT64_EDGES)]))}",
                "--out", out]
    rasters = draw(st.lists(st.sampled_from([inputs["dem"], inputs["ndvi"]] * 4 + inputs["bad"]),
                            max_size=3))
    return ["compare", "--rasters", *map(str, rasters), "--out", out]


@pytest.fixture(scope="module")
def fuzz_inputs(pipeline, tmp_path_factory):
    """The pipeline's inputs, a copy of its bank per run, and bad paths of each kind."""
    base = tmp_path_factory.mktemp("argv-fuzz")
    bad = [base / "missing", base / "a-directory", base / "empty", base / "not-utf8"]
    bad[1].mkdir()
    bad[2].write_bytes(b"")
    bad[3].write_bytes(b"\xff\xfe\x00junk\n")
    (base / "huge.json").write_text('{"seed": 1, "cell_size": 1e-12}')
    world = pipeline["world"]
    return {"world": world, "stations": world / "stations", "dem": world / "dem.asc",
            "ndvi": world / "ndvi.asc", "data": pipeline["data"], "folds": pipeline["folds"],
            "spec": pipeline["spec"], "huge_spec": base / "huge.json", "bank": base / "bank",
            "out": base / "out", "bad": bad}


class TestArgvFuzz:
    COMMANDS = ["synth", "ingest", "folds", "train", "calibrate", "eval", "raster", "compare"]

    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exits_cleanly(self, pipeline, fuzz_inputs, command, data):
        argv = data.draw(fuzz_argv(command, fuzz_inputs), label="argv")
        shutil.rmtree(fuzz_inputs["bank"], ignore_errors=True)
        shutil.copytree(pipeline["bank"], fuzz_inputs["bank"])
        out = fuzz_inputs["out"]
        shutil.rmtree(out, ignore_errors=True) if out.is_dir() else out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 2, 3, 4), err.getvalue()
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, err.getvalue()


#: The world sizes the spec fuzz may build. Every other value it draws for these
#: fields is one that the spec check refuses.
FUZZ_STATIONS = [5, 6]
FUZZ_DAYS = [1, 2]
#: A grid larger than this means the fuzz drew a region and cell size that build
#: a large world; with SPEC's region no drawn extent or cell size comes near it.
FUZZ_MAX_CELLS = 100_000
SPEC_NUMBERS = [*map(str, INT64_EDGES), "NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                "1e308", "-1e308", "0", "-0.0", "-1", "0.5", "1e-308"]


def _spec_number(draw, name):
    """JSON text for one spec field: an int64 edge, a non-finite value, 1e308 or another edge."""
    if name == "n_stations":
        return str(draw(st.sampled_from(
            [e for e in INT64_EDGES if not 5 <= e <= MAX_STATIONS] + FUZZ_STATIONS)))
    if name == "days":
        # Below 1, or so many minutes that they overflow int64.
        return str(draw(st.sampled_from([e for e in INT64_EDGES if not 1 <= e <= 2**31]
                                        + FUZZ_DAYS)))
    if name == "harmonic_amplitudes":
        return "[" + ", ".join(draw(st.lists(st.sampled_from(SPEC_NUMBERS), max_size=3))) + "]"
    return draw(st.sampled_from(SPEC_NUMBERS))


class TestSpecNumberFuzz:
    """Every number in the ``synth`` spec, through ``cli.main``: exit 0 or 3, never a traceback."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exits_cleanly(self, tmp_path_factory, data):
        names = data.draw(st.lists(st.sampled_from(sorted(synth.WorldSpec.__dataclass_fields__)),
                                   min_size=1, max_size=4, unique=True), label="fields")
        fields = {k: json.dumps(v) for k, v in SPEC.items()}
        fields.update((name, _spec_number(data.draw, name)) for name in names)
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        note(text)
        try:
            spec = synth.spec_from_json(text)
        except FrostcastError:
            spec = None
        if spec is not None:
            cells = ((spec.lon_max - spec.lon_min) * (spec.lat_max - spec.lat_min)
                     / spec.cell_size ** 2)
            assert spec.n_stations in FUZZ_STATIONS and spec.days in FUZZ_DAYS
            assert cells <= FUZZ_MAX_CELLS
        base = tmp_path_factory.mktemp("spec-fuzz")
        (base / "spec.json").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["synth", "--spec", str(base / "spec.json"), "--out", str(base / "world")])
        assert rc in (0, 3), err.getvalue()
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, err.getvalue()
        if rc == 0:
            # A world that ingest would drop whole is refused, never written.
            texts = [f.read_text() for f in (base / "world").rglob("*")
                     if f.suffix in (".asc", ".csv")]
            assert not any(re.search("nan|inf", t, re.IGNORECASE) for t in texts)
        else:
            assert not (base / "world").exists()
        shutil.rmtree(base)
