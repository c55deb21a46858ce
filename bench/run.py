#!/usr/bin/env python3
"""gcquant benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload combined --seed 0 --seconds 20 --trace 0

Runs the workload's gcq invocations (workloads.py) in this process through
`gcquant.cli.main`, imported from this checkout's src/, and starts passes
until --seconds have elapsed (at least MIN_PASSES untraced or one traced
pass).  Every invocation's outputs are checked against reference.json
(check.py).  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of
spans.py for --trace 1; an earlier line records the machine.  Outputs go to a
temporary directory in the checkout that is removed before exit.  Exits
non-zero without a result when the gcquant sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from check import check_operation, load_reference
from spans import Tracer
from workloads import NAMES, operations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# A lab combined pass takes about 12 s, so 20 s would give it only two.
MIN_PASSES = 3


def import_cli():
    """gcquant.cli from this checkout's src/; an installed copy is refused."""
    # GCQ_SEED silently overrides gc-check's --seed.
    os.environ.pop("GCQ_SEED", None)
    if not (SRC / "gcquant" / "cli.py").is_file():
        raise SystemExit(f"bench: no gcquant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from gcquant import cli

    if Path(cli.__file__).resolve().parent != SRC / "gcquant":
        raise SystemExit(f"bench: imported gcquant from {cli.__file__}, not {SRC}")
    return cli


# -- machine record ---------------------------------------------------------------


def _read(path: str):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{d}/{f}") for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for f in sorted((SRC / "gcquant").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


# -- measurement -------------------------------------------------------------------


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import gcquant.cli."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import gcquant.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(r.stdout.split()[-1]))
    print(f"bench: setup_s samples {[round(v, 3) for v in samples]}", file=sys.stderr)
    return statistics.median(samples)


def invoke(cli, argv: list[str]):
    """Exit code of one gcq invocation; an escaping exception is a failure."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code
    except Exception:
        traceback.print_exc()
        return "uncaught exception"


class Pass:
    """One timed pass over a workload's operations."""

    def __init__(self, cli, ops: list[list[str]], work: Path):
        outs = [Path(tempfile.mkdtemp(dir=work)) for _ in ops]
        with contextlib.redirect_stdout(io.StringIO()):
            c0 = time.process_time()
            t0 = time.perf_counter()
            self.codes = [invoke(cli, argv + ["--out", str(d)]) for argv, d in zip(ops, outs)]
            self.wall = time.perf_counter() - t0
            self.cpu = time.process_time() - c0
        self.outs = outs

    def check(self, name: str, seed: int, ref: dict) -> int:
        """Number of failed operations.  Removes the outputs and collects
        garbage, so the next pass starts from a heap like a fresh process's
        (reference cycles in a pass otherwise pile up until a full collection,
        and peak RSS would grow with the number of passes)."""
        failed = 0
        for i, (rc, out) in enumerate(zip(self.codes, self.outs)):
            problems = check_operation(name, i, seed, rc, out, ref)
            for p in problems:
                print(f"bench: {name} op {i}: {p}", file=sys.stderr)
            failed += bool(problems)
        self.artifact_bytes = sum(f.stat().st_size for out in self.outs
                                  for f in out.iterdir() if f.name != "manifest.json")
        for out in self.outs:
            shutil.rmtree(out)
        gc.collect()
        return failed


def end_to_end(cli, name, seed, seconds, ref, work):
    setup = setup_seconds()
    passes, failed, start = [], 0, time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        p = Pass(cli, operations(name, seed), work)
        failed += p.check(name, seed, ref)
        passes.append(p)
    print(f"bench: pass wall_s {[round(p.wall, 3) for p in passes]}", file=sys.stderr)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(passes) * len(passes[0].codes), failed


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("useful_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def traced(cli, name, seed, seconds, ref, work):
    """Alternate untraced and traced passes; times are medians over passes,
    counts come from the first traced pass (later ones must repeat them)."""
    tracer = Tracer()
    plain, runs, failed, start = [], [], 0, time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        p = Pass(cli, operations(name, seed), work)
        failed += p.check(name, seed, ref)
        plain.append(p.wall)
        tracer.reset()
        with tracer.installed():
            p = Pass(cli, operations(name, seed), work)
        failed += p.check(name, seed, ref)
        runs.append((p, tracer.metrics()))
    layer = {}
    for key, first in runs[0][1].items():
        values = [m[key] for _, m in runs]
        if _unit(key) == "s":
            layer[key] = statistics.median(values)
        else:
            if any(v != first for v in values):
                print(f"bench: {key} differs between traced passes: {values}", file=sys.stderr)
            layer[key] = first
    attempted = 2 * len(runs) * len(runs[0][0].codes)
    traced_wall = statistics.median(p.wall for p, _ in runs)
    layer["cli.artifact_bytes"] = runs[0][0].artifact_bytes
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - statistics.median(plain)
    layer["failed_frac"] = failed / attempted
    print(f"bench: pass wall_s untraced {[round(w, 3) for w in plain]} "
          f"traced {[round(p.wall, 3) for p, _ in runs]}", file=sys.stderr)
    return {k: (v, _unit(k)) for k, v in layer.items()}, attempted, failed


class Terminated(BaseException):
    """SIGTERM, raised past the per-operation handlers so that the output
    directory is still removed."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    cli = import_cli()
    ref = load_reference()
    print("machine: " + json.dumps(machine_record(), sort_keys=True), flush=True)
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed = measure(cli, args.workload, args.seed, args.seconds,
                                             ref, work)
    except Terminated:
        print("bench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
