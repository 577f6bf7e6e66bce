"""frostcast benchmark: one seeded workload per run, checked and timed.

Run from the root of a frostcast checkout:

    python3 perfbench/run.py --workload trend --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones listed in BENCHMARK.json; with ``--trace 1``
they are the per-layer ones. The line before it is a JSON record of the
machine, the code, the workload's own named figures and every failed check.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-ups timed before the measured operations, and as many again after them:
# the host's speed drifts over tens of seconds, and set-ups timed at both
# ends of a run give a steadier median than set-ups timed back to back.
SETUP_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_frostcast():
    """Import frostcast from this checkout's src/, and nowhere else."""
    package = ROOT / "src" / "frostcast"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no frostcast sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import frostcast

    if Path(frostcast.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: frostcast imported from {frostcast.__file__}, not {package}")


def _blas():
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def facts() -> dict:
    """Machine and code facts recorded with every result."""
    import numpy
    import scipy

    sources = sorted((ROOT / "src" / "frostcast").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    lines["total"] = sum(lines.values())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _measure(workload, seconds, tracer):
    """Closed loop of operations; a traced run alternates traced and untraced.

    Operations start until the next one would end past ``seconds``, and at
    least the workload's minimum run (one per kind in a traced run). A traced
    run starts with a traced operation, which also pays for warming up, so
    the overhead it reports errs high when few operations fit.
    """
    import layers

    times, traced_times = [], []
    attempted, failed, problems, known = 0, 0, [], []
    min_ops = 2 if tracer else workload.min_ops
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.run_id = f"op{index}"
            tracer.install(layers.TARGETS)
        t0 = time.perf_counter()
        try:
            # In a traced run each traced operation and the untraced one
            # after it get the same input, so the overhead compares like work.
            result = workload.op(index // 2 if tracer else index, traced)
        except Exception:  # a failing operation is counted, and the loop goes on
            result = None
            problems.append(f"{workload.name} op {index} raised: "
                            + traceback.format_exc().strip().splitlines()[-1])
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        (traced_times if traced else times).append(elapsed)
        if result is None:
            attempted, failed = attempted + 1, failed + 1
        else:
            n, op_problems, op_known = workload.check_op(result)
            attempted += n
            failed += min(n, len(op_problems) + len(op_known))
            problems += op_problems
            known += op_known
        index += 1
        done = time.perf_counter() - start
        if index >= min_ops and done + statistics.median(times + traced_times) > seconds:
            break
    return times, traced_times, attempted, failed, problems, known


def _timed_setups(make, repeats):
    """Set up ``repeats`` fresh workloads; returns the last and the set-up times."""
    times, workload = [], None
    for _ in range(repeats):
        # Each set-up starts from the same heap: the previous one's inputs
        # are freed first, so the garbage collector does not walk them
        # during the next.
        workload = None
        gc.collect()
        workload = make()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, times


def run(args) -> tuple[dict, dict]:
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tracer = Tracer() if args.trace else None
    try:
        def make():
            return WORKLOADS[args.workload](ROOT, args.seed, workdir, tracer)

        if tracer:
            workload = make()
            tracer.install(layers.TARGETS)
            try:
                workload.setup()
            finally:
                tracer.uninstall()
        else:
            workload, setup_times = _timed_setups(make, SETUP_REPEATS)
        times, traced_times, attempted, failed, problems, known = _measure(
            workload, args.seconds, tracer)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "ops": len(times) + len(traced_times), "problems": problems,
                "known_failures": known, "facts": facts()}
        if tracer:
            values = layers.span_totals(tracer, len(traced_times))
            values.update(workload.layer_extras())
            plain, with_spans = statistics.median(times), statistics.median(traced_times)
            values["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain
            values["trace.spans_per_op"] = sum(
                s.run_id != "setup" for s in tracer.spans) / len(traced_times)
            wanted = spec["per_layer"]
            info["absent"] = sorted(tracer.absent)
            trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(trace_file, info)
            info["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            info["stages"] = {name: {"value": v, "unit": unit}
                              for name, (v, unit) in workload.stages(times).items()}
            values = {"op_s": statistics.median(times), "peak_rss_mb": workload.peak_rss_mb()}
            workload = None
            setup_times += _timed_setups(make, SETUP_REPEATS)[1]
            values["setup_s"] = statistics.median(setup_times)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in wanted}
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return info, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_frostcast()
    info, result = run(args)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
