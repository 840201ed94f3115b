"""Runs one workload's jobs in a closed loop inside a fresh interpreter.

Usage (from run.py):
    python3 perfbench/worker.py --src SRC --run-dir DIR --seconds S --trace 0|1 --result FILE

One client calls ``nodalscore.cli.main(argv)`` for each job in turn; each
job starts after the previous one returns.  Pass 0 is traced and untimed:
it warms caches and lazy imports, fixes the reference digest of every
job's outputs and captures the eigen solves the reference checks need.
Then timed passes follow until ``--seconds`` is spent: all untraced with
``--trace 0``, alternating untraced and traced with ``--trace 1``.  Every
pass's outputs must be byte-identical to pass 0's.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import warnings

MIN_UNTRACED_PASSES = 3


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _digest(job, stdout):
    h = hashlib.sha256(stdout.encode())
    for name in job["outputs"]:
        h.update(name.encode() + b"\0")
        try:
            with open(name, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def run_pass(cli, jobs, tracer=None):
    """Run every job once; returns (seconds spent in jobs, per-job records)."""
    total = 0.0
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(job["argv"])
        except Exception:  # a traceback is a failed job, not a dead benchmark
            code = traceback.format_exc()
        total += time.perf_counter() - start
        stdout = buf.getvalue()
        records.append({"id": job["id"], "code": code, "stdout": stdout,
                        "digest": _digest(job, stdout)})
    return total, records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import nodalscore.cli as cli
    from nodalscore import _kernels

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported nodalscore from {cli.__file__}, not from {src}")
    import numpy
    import scipy

    from tracer import Tracer, layer_times

    result_path = os.path.abspath(args.result)
    os.chdir(args.run_dir)
    with open("jobs.json") as fh:
        jobs = json.load(fh)
    # warnings would go to stderr on first occurrence only; keep passes alike
    warnings.simplefilter("ignore")

    modules = {k: v for k, v in sys.modules.items()
               if k == "nodalscore" or k.startswith("nodalscore.")}
    tracer = Tracer(modules)

    tracer.install()
    _, first = run_pass(cli, jobs, tracer)
    tracer.uninstall()
    # later passes can only add allocator fragmentation, which varies run to run
    maxrss_first_pass = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans, _, captures = tracer.harvest()
    all_spans = [[0] + list(s) for s in spans]
    reference = {r["id"]: r["digest"] for r in first}
    executions = {job["id"]: {"runs": 1, "bad_code": 0 if first[i]["code"] == 0 else 1,
                              "mismatch": 0}
                  for i, job in enumerate(jobs)}

    untraced, traced, layers = [], [], []
    t0 = time.perf_counter()
    n_pass = 0
    while True:
        n_pass += 1
        tracing = args.trace == 1 and n_pass % 2 == 0
        if tracing:
            tracer.install()
        seconds, records = run_pass(cli, jobs, tracer if tracing else None)
        if tracing:
            tracer.uninstall()
            spans, counts, _ = tracer.harvest()
            all_spans += [[n_pass] + list(s) for s in spans]
            traced.append(seconds)
            layers.append({"times": layer_times(spans), "counts": counts,
                           "spans": len(spans)})
        else:
            untraced.append(seconds)
        for rec in records:
            ex = executions[rec["id"]]
            ex["runs"] += 1
            ex["bad_code"] += rec["code"] != 0
            ex["mismatch"] += rec["digest"] != reference[rec["id"]]
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / n_pass
        enough = len(untraced) >= MIN_UNTRACED_PASSES and (args.trace == 0 or len(traced) >= 2)
        if enough and elapsed + per_pass > args.seconds:
            break

    spans_path = result_path[: -len(".json")] + "-spans.json"
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["pass", "name", "start", "end", "parent", "job"],
                   "spans": all_spans}, fh)
    out = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "layers": layers,
        "jobs": {r["id"]: {"code": r["code"], "stdout": r["stdout"]} for r in first},
        "executions": executions,
        "captures": captures,
        "maxrss_first_pass_kb": maxrss_first_pass,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "kernel_backend": _kernels.BACKEND,
            "blas_threads": _blas_threads(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
