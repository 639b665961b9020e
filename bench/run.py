"""kpex benchmark: one workload, timed for a fixed number of seconds.

Usage, from the root of a checkout:

    python3 bench/run.py --workload supervised --seed 1 --seconds 20 --trace 0

The workload runs its set-up three times (``setup_s`` is the import time
plus the median set-up), then repeats its timed call until ``--seconds``
have passed, at least twice. Every repeat is one attempted operation; it
fails if it raises, if ``kpex extract`` exits non-zero, if its F1 falls
below the workload's floor, or if its output bytes (checkpoint or extracted
JSONL) differ from the first repeat's.

The shared host this was built on slows every process by up to 40 % for
tens of seconds at a time. The host's speed is therefore sampled with a
fixed numpy loop before and after every set-up and repeat, and the timed
end-to-end metrics (``iters_per_s``, ``docs_per_s``, ``setup_s``) are
scaled to the nominal host's speed; the raw times and speeds are in the
detail line.

With ``--trace 1`` untraced and traced repeats alternate, and the
per-layer metrics (raw times) come from the traced ones. The last stdout
line is the result JSON; the line before it holds the host record and
every repeat. Spans of traced repeats are written to ``.bench_out/``.
"""

import os

# Pin BLAS to one thread before numpy loads: on these tiny mat-vecs the
# default pool only adds run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_REPEATS = 2
# Passes per second of reference_speed()'s loop on the nominal host, a quiet
# 2-vCPU 2.1 GHz Xeon VM. Timed end-to-end metrics are scaled to that host.
REF_PASSES_PER_S = 850.0


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # not Linux
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_info(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def reference_speed(seconds: float = 0.15) -> float:
    """Host speed right now, as a share of the nominal host's.

    Times a fixed numpy loop shaped like one LSTM direction (a 256x64
    mat-vec and gate nonlinearities per step, in Python). It uses no kpex
    code, so a change to kpex cannot move it; neighbours on a shared host
    slow it and kpex alike, by up to 40 % for tens of seconds on the
    nominal host.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.normal(size=(256, 64)) * 0.1
    xs = rng.normal(size=(100, 256))
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        h = c = np.zeros(64)
        for x in xs:
            z = w @ h + x
            c = 0.5 * c + 0.5 * (1.0 + np.tanh(z[:64] / 2)) * np.tanh(z[128:192])
            h = np.tanh(c)
        passes += 1
    return passes / (time.perf_counter() - start) / REF_PASSES_PER_S


def measure(workload, work_dir: Path, seconds: float, trace: bool, spans_mod) -> list:
    """Repeat the timed call until ``seconds`` pass; returns one record per repeat.

    The host speed is sampled before and after every repeat; each repeat
    records the mean of the two.
    """
    repeats = []
    first_output = None
    deadline = time.perf_counter() + seconds
    speed_before = reference_speed()
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        tracer = spans_mod.Tracer() if trace and len(repeats) % 2 else None
        rec = {"traced": tracer is not None, "problems": []}
        try:
            out = workload.run(work_dir, tracer)
        except Exception as exc:  # a failing repeat is counted, not fatal
            traceback.print_exc()
            rec["problems"].append(f"{type(exc).__name__}: {exc}")
            out = None
        if out is not None:
            rec.update(elapsed_s=out.elapsed_s, steps=out.steps, docs=out.docs, f1=out.f1)
            if out.f1 < workload.f1_floor:
                rec["problems"].append(f"f1 {out.f1:.4f} below floor {workload.f1_floor}")
            if first_output is None:
                first_output = out.output
            elif out.output != first_output:
                rec["problems"].append("output bytes differ from the first repeat")
        speed_after = reference_speed()
        rec["host_speed"] = (speed_before + speed_after) / 2
        speed_before = speed_after
        rec["ok"] = not rec["problems"]
        repeats.append((rec, tracer))
    return repeats


def rates(records: list, at_nominal_host: bool) -> dict:
    """Median rates over repeats, raw or scaled to the nominal host's speed."""

    def scale(r):
        return r["host_speed"] if at_nominal_host else 1.0

    return {
        "iters_per_s": statistics.median(r["steps"] / r["elapsed_s"] / scale(r) for r in records),
        "docs_per_s": statistics.median(r["docs"] / r["elapsed_s"] / scale(r) for r in records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "kpex" / "__init__.py").is_file():
        print(f"error: kpex sources not found under {src}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import kpex  # imports numpy

    import_s = time.perf_counter() - start
    if Path(kpex.__file__).resolve().parent != (src / "kpex").resolve():
        print(f"error: imported kpex from {kpex.__file__}, not {src}", file=sys.stderr)
        return 2
    # the benchmark's own modules import kpex, so they load after the path is set
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_each = []  # (seconds, host speed)
        speed_before = reference_speed()
        import_speed = speed_before
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup(work_dir)
            elapsed = time.perf_counter() - t
            speed_after = reference_speed()
            setup_each.append((elapsed, (speed_before + speed_after) / 2))
            speed_before = speed_after
        repeats = measure(workload, work_dir, args.seconds, bool(args.trace), spans)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    records = [rec for rec, _ in repeats]
    good = [rec for rec in records if rec["ok"]]
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(args.seed),
        "import_s": import_s,
        "setup_s_each": setup_each,
        "repeats": records,
    }
    if args.workload == "extract":
        detail["extract_tokens"] = workload.tokens
    if not good:
        print(json.dumps(detail))
        print("error: no repeat passed its output checks", file=sys.stderr)
        return 1

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = [(rec, tracer) for rec, tracer in repeats if tracer is not None and rec["ok"]]
        untraced = [rec for rec, tracer in repeats if tracer is None and rec["ok"]]
        if not traced or not untraced:
            print(json.dumps(detail))
            print("error: need a passing traced and untraced repeat", file=sys.stderr)
            return 1
        values = {}
        for label, group in (("untraced", untraced), ("traced", [rec for rec, _ in traced])):
            for key, value in rates(group, at_nominal_host=False).items():
                values[f"trace.{label}.{key}"] = value
        per_repeat = [spans.layer_metrics(tracer) for _, tracer in traced]
        for n in names:
            if n not in values:  # median_low keeps counts whole and values as measured
                values[n] = statistics.median_low(m[n] for m in per_repeat)
        last_rec, last_tracer = traced[-1]
        detail["layers"] = spans.layer_table(last_tracer, last_rec["elapsed_s"])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(
            [{"elapsed_s": rec["elapsed_s"], "spans": tracer.to_json()} for rec, tracer in traced]
        ))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            **rates(good, at_nominal_host=True),
            "f1": good[0]["f1"],
            "setup_s": import_s * import_speed
            + statistics.median(t * speed for t, speed in setup_each),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    print(json.dumps(detail))
    result = {
        "correct": len(good) == len(records),
        "attempted": len(records),
        "failed": len(records) - len(good),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
