"""nodalscore benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: series, circle-well, image-anomaly, graph-files (see
workloads.py for what each one stresses and why).  The run

1. writes the seed's inputs under .perfbench_work/ in the checkout,
2. runs the jobs in a closed loop with one client in a fresh worker
   process (worker.py) for S seconds, traced or not,
3. times SETUP_STARTS fresh interpreters from start to ready (import
   nodalscore.cli plus one tiny call), half before and half after 2,
4. checks every job's outputs against an independent reference
   (reference.py), outside the timed region,
5. prints one line per metric, then the result as one JSON line.

With --trace 0 the metrics are the end-to-end ones (run_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from the span
recorder (tracer.py).  A job fails on a non-zero exit, on outputs that
differ from its first run, or on a failed reference check; the JSON's
"failed" / "attempted" is the fail ratio over job executions.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters timed per run, half before and half after the worker so
# that one slow stretch of the machine does not set the whole median
SETUP_STARTS = 6
# the whole run, setup and checks included, must end within 180 s
RUN_DEADLINE_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: span busy time (.s), self time (.self_s), call count
# (.calls), or a counter recorded by tracer.py
PER_LAYER = (
    "kernels.interval_series.s",
    "kernels.square_series.s",
    "kernels.sin_evals",
    "analytic.square_lattice.s",
    "analytic.lattice_terms",
    "paley.PaleyField.create.s",
    "paley.paley_score_closed_form.self_s",
    "paley.paley_score_numeric.self_s",
    "eigensolve.lanczos_smallest.s",
    "eigensolve.lanczos_smallest.calls",
    "eigensolve.matvecs",
    "eigensolve.max_residual",
    "eigensolve.dense_sym_eig.s",
    "eigensolve.dense_sym_eig.calls",
    "pipeline.patch_graph.s",
    "pipeline.knn.pairs",
    "pipeline.Graph.components.s",
    "pipeline.components.count",
    "pipeline.graph.edges",
    "pipeline.parse_edge_list.s",
    "pipeline.parse_obj.s",
    "pipeline.mesh_graph.s",
    "pipeline.parse_pgm.s",
    "pipeline.laplacian.s",
    "pipeline.score_graph.self_s",
    "pipeline.write_score_csv.s",
    "pipeline.write_score_csv.bytes",
    "pipeline.write_heatmap_pgm.s",
    "core.compute_score_field.s",
    "core.find_strict_local_minima.s",
    "torus.build_circle_operator.s",
    "torus.torus_score.self_s",
    "torus.find_N_eps.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
    "trace.spans",
)

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import contextlib, io
import nodalscore.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = nodalscore.cli.main(["rational-check", "--p", "1", "--q", "3"])
print(code, time.perf_counter())
"""


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "byte"
    if name.endswith("max_residual"):
        return "ratio"
    return "count"


def layer_value(name, layer):
    """One per-layer metric from one traced pass's times and counts."""
    span, _, field = name.rpartition(".")
    if field in ("s", "self_s", "calls"):
        return layer["times"].get(span, {}).get(field, 0)
    return layer["counts"].get(name, 0)


def llc_bytes():
    """Size of the last-level cache of CPU 0, or None when not exposed."""
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        size = int(text.rstrip("KM")) * mult
        if level > best[0]:
            best = (level, size)
    return best[1]


def measure_setup(src, run_dir, env):
    """Seconds from spawning a fresh interpreter until nodalscore is ready."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)], cwd=run_dir, env=env,
                          capture_output=True, text=True, timeout=60)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
        raise RuntimeError(f"setup start failed: {proc.stderr.strip()[-500:]}")
    # perf_counter is the system-wide monotonic clock, shared by both processes
    return float(fields[1]) - start


def job_outputs(job, record, captures, run_dir):
    def read(names):
        return {name: (run_dir / name).read_bytes() for name in names if (run_dir / name).exists()}

    inputs = [job["params"]["input"]] if "input" in job["params"] else []
    return {
        "code": record["code"],
        "stdout": record["stdout"],
        "files": read(job["outputs"]),
        "inputs": read(inputs),
        "captures": [c for c in captures if c["job"] == job["id"]],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "nodalscore" / "cli.py").is_file():
        print("perfbench: ./src/nodalscore not found; run from the root of a nodalscore "
              "checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench_work"
    run_dir = work / f"{tag}-{os.getpid()}"
    results_dir = work / "results"
    run_dir.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    try:
        return _run(args, tag, src, run_dir, results_dir, t_begin)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, tag, src, run_dir, results_dir, t_begin):
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread: on a 2-vCPU machine two threads made the eigen
    # workloads both slower and noisier (thread hand-offs on small matrices).
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    jobs = workloads.generate(args.workload, args.seed, str(run_dir))
    setup = [measure_setup(src, run_dir, env) for _ in range(SETUP_STARTS // 2)]

    result_path = results_dir / f"{tag}.json"
    budget = RUN_DEADLINE_S - (time.perf_counter() - t_begin)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(src),
           "--run-dir", str(run_dir), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(budget - 15.0, 1.0))
        worker_error = None if proc.returncode == 0 else proc.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        worker_error = "worker exceeded the run deadline"
    if worker_error is not None:
        print(f"perfbench: worker failed: {worker_error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(jobs), "failed": len(jobs),
                          "metrics": {}}))
        return 1
    setup += [measure_setup(src, run_dir, env) for _ in range(SETUP_STARTS - len(setup))]
    with open(result_path) as fh:
        res = json.load(fh)

    attempted = failed = 0
    problems = {}
    for job in jobs:
        ex = res["executions"][job["id"]]
        out = job_outputs(job, res["jobs"][job["id"]], res["captures"], run_dir)
        problem = reference.check_job(job, out)
        if ex["mismatch"]:
            problem = problem or f"{ex['mismatch']} runs differ from the first run's outputs"
        bad = ex["runs"] if problem else min(ex["runs"], ex["bad_code"])
        attempted += ex["runs"]
        failed += bad
        problems[job["id"]] = problem

    untraced = res["untraced_pass_s"]
    if args.trace:
        traced = res["traced_pass_s"]
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            elif name == "trace.spans":
                value = statistics.median(layer["spans"] for layer in res["layers"])
            else:
                value = statistics.median(layer_value(name, layer) for layer in res["layers"])
            metrics[name] = {"value": value, "unit": unit_of(name)}
    else:
        metrics = {
            "run_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["maxrss_first_pass_kb"] / 1024.0, "unit": "MB"},
        }

    env_info = dict(res["env"], nproc=nproc, llc_bytes=llc_bytes())
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env_info,
        "untraced_pass_s": untraced,
        "traced_pass_s": res["traced_pass_s"],
        "setup_samples_s": setup,
        "maxrss_end_kb": res["maxrss_kb"],
        "jobs": {job["id"]: problems[job["id"]] or "ok" for job in jobs},
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(result_path, "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(env_info, sort_keys=True))
    for job in jobs:
        print(f"job {job['id']}: {problems[job['id']] or 'ok'}")
    lo, hi = quartiles(untraced)
    print(f"untraced passes: {len(untraced)}, quartiles {lo:.4f} .. {hi:.4f} s; "
          f"traced passes: {len(res['traced_pass_s'])}; setup starts: {len(setup)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed}/{attempted} (failed / attempted job executions)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
