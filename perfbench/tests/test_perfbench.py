"""Tests of the benchmark itself: generators, span arithmetic, reference checks.

Run from the repository root:
    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_times  # noqa: E402
from worker import run_pass  # noqa: E402


def _nodalscore_modules():
    import nodalscore.cli  # noqa: F401

    return {k: v for k, v in sys.modules.items() if k == "nodalscore" or k.startswith("nodalscore.")}


# ------------------------------------------------------------- generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    def snapshot(seed, name):
        d = tmp_path / name
        d.mkdir()
        workloads.generate(workload, seed, str(d))
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first, again, other = snapshot(5, "a"), snapshot(5, "b"), snapshot(6, "c")
    assert first == again
    assert set(first) == set(other)
    assert first != other


def test_workload_sizes_do_not_depend_on_the_seed(tmp_path):
    # only content varies with the seed, so one pass costs the same
    for seed in range(4):
        d = tmp_path / str(seed)
        d.mkdir()
        jobs = workloads.generate("graph-files", seed, str(d))
        assert [j["id"] for j in jobs] == ["edges-sym", "edges-comb", "mesh", "paley-verify"]
        text = (d / "edges-sym.csv").read_text()
        n = max(max(int(a), int(b)) for a, b, _ in
                (line.split(",") for line in text.splitlines()[1:])) + 1
        assert n == 384 + 256 + 704 + 896


def test_prime_1mod4():
    assert workloads.prime_1mod4(590) == 593
    assert workloads.prime_1mod4(10**6) == 1000033


# --------------------------------------------------------------- tracing


def test_layer_times_self_time_arithmetic():
    # a [0, 10] contains b [1, 4] and c [5, 9]; c contains d [6, 7]
    spans = [
        ("a", 0.0, 10.0, None, "j"),
        ("b", 1.0, 4.0, 0, "j"),
        ("c", 5.0, 9.0, 0, "j"),
        ("d", 6.0, 7.0, 2, "j"),
        ("b", 11.0, 12.0, None, "k"),
    ]
    t = layer_times(spans)
    assert t["a"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert t["b"] == {"s": 4.0, "self_s": 4.0, "calls": 2}
    assert t["c"] == {"s": 4.0, "self_s": 3.0, "calls": 1}
    assert t["d"] == {"s": 1.0, "self_s": 1.0, "calls": 1}


def test_layer_times_counts_a_recursive_layer_once():
    spans = [("f", 0.0, 5.0, None, "j"), ("f", 1.0, 3.0, 0, "j")]
    t = layer_times(spans)
    assert t["f"]["s"] == 5.0
    assert t["f"]["self_s"] == 5.0
    assert t["f"]["calls"] == 2


def test_tracer_patches_names_callers_imported_and_restores_them():
    modules = _nodalscore_modules()
    from nodalscore import eigensolve, pipeline, torus

    original = eigensolve.lanczos_smallest
    tracer = Tracer(modules)
    tracer.install()
    try:
        wrapped = eigensolve.lanczos_smallest
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert pipeline.lanczos_smallest is wrapped
        assert torus.lanczos_smallest is wrapped
    finally:
        tracer.uninstall()
    assert pipeline.lanczos_smallest is original
    assert torus.lanczos_smallest is original
    assert eigensolve.lanczos_smallest is original


def test_tracer_records_nested_spans_counts_and_solves():
    modules = _nodalscore_modules()
    from nodalscore import pipeline, torus

    tracer = Tracer(modules)
    tracer.install()
    try:
        tracer.job = "t"
        spec = torus.PotentialSpec(y=1.0, eps=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            torus.torus_score(128, spec, 2)
        graph = pipeline.Graph(n=3, u=[0, 1], v=[1, 2], w=[1.0, 1.0])
        graph.components()
    finally:
        tracer.uninstall()
    spans, counts, captures = tracer.harvest()
    names = [s[0] for s in spans]
    assert names[0] == "torus.torus_score"
    build = names.index("torus.build_circle_operator")
    assert spans[build][3] == 0 and spans[build][4] == "t"
    solve = names.index("eigensolve.dense_sym_eig")
    assert spans[solve][3] == 0
    assert counts["pipeline.components.count"] == 1
    assert len(captures) == 1 and captures[0]["n"] == 128
    assert counts["eigensolve.matvecs"] == 1  # the dense solver reports one iteration
    assert tracer.spans == [] and tracer.captures == []


# ------------------------------------------------------- reference checks


def _run_workload(workload, seed, run_dir):
    jobs = workloads.generate(workload, seed, str(run_dir))
    tracer = Tracer(_nodalscore_modules())
    import nodalscore.cli as cli

    cwd = os.getcwd()
    os.chdir(run_dir)
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, records = run_pass(cli, jobs, tracer)
    finally:
        tracer.uninstall()
        os.chdir(cwd)
    _, _, captures = tracer.harvest()
    return {job["id"]: (job, run.job_outputs(job, rec, captures, run_dir))
            for job, rec in zip(jobs, records)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    found = {}
    for workload in workloads.WORKLOADS:
        found.update(_run_workload(workload, 3, tmp_path_factory.mktemp(workload)))
    return found


def _scale_csv_row(data, row, factor):
    lines = data.decode().splitlines()
    idx, _, value = lines[row].partition(",")
    lines[row] = f"{idx},{float(value) * factor:.17g}"
    return ("\n".join(lines) + "\n").encode()


def _set_summary(stdout, key, value):
    tokens = stdout.strip().split(" ")
    tokens = [f"{key}={value}" if t.startswith(key + "=") else t for t in tokens]
    return " ".join(tokens) + "\n"


def _scale_summary(stdout, key, factor):
    current = reference.parse_summary(stdout)[key]
    return _set_summary(stdout, key, format(float(current) * factor, ".17g"))


def _scale_capture(out, factor):
    bad = copy.deepcopy(out)
    solve = max(bad["captures"], key=lambda c: c["n"])
    solve["values"][-1] *= factor
    return bad


def _scale_file_row(out, suffix, row, factor):
    bad = copy.deepcopy(out)
    name = next(n for n in bad["files"] if n.endswith(suffix))
    bad["files"][name] = _scale_csv_row(bad["files"][name], row, factor)
    return bad


def _with_stdout(out, stdout):
    return dict(out, stdout=stdout)


def _move_argmax_outside_block(job, out):
    bad = copy.deepcopy(out)
    name = next(n for n in bad["files"] if n.endswith(".csv"))
    lines = bad["files"][name].decode().splitlines()
    top = max(float(line.split(",")[1]) for line in lines)
    lines[0] = f"0,{top * 2:.17g}"  # pixel (0, 0) is never inside the block
    bad["files"][name] = ("\n".join(lines) + "\n").encode()
    return bad


PERTURBATIONS = {
    "interval": [lambda j, o: _scale_file_row(o, "interval.csv", j["params"]["grid"] // 2,
                                              1 + 1e-7)],
    "square": [lambda j, o: _scale_file_row(o, "square.csv", 0, 1 + 1e-7)],
    "rational-0": [
        lambda j, o: _with_stdout(o, _scale_summary(o["stdout"], "center_value", 1 + 1e-7)),
        lambda j, o: _with_stdout(o, _set_summary(o["stdout"], "strict_minimum", "false")),
    ],
    "paley-summary": [
        lambda j, o: _with_stdout(o, _scale_summary(o["stdout"], "s_residue", 1 + 1e-4)),
    ],
    "paley-csv": [lambda j, o: _scale_file_row(o, "paley.csv", 12345, 1 + 1e-4)],
    "paley-verify": [
        lambda j, o: _scale_capture(o, 1 + 1e-4),
        lambda j, o: _with_stdout(o, _set_summary(o["stdout"], "verify_pass", "false")),
    ],
    "torus-field": [
        lambda j, o: _scale_file_row(o, "torus.csv", 7, 1 + 1e-4),
        lambda j, o: _scale_capture(o, 1 + 1e-4),
    ],
    "torus-n-eps": [
        lambda j, o: _with_stdout(o, _set_summary(
            o["stdout"], "n_eps", int(reference.parse_summary(o["stdout"])["n_eps"]) + 1)),
        lambda j, o: _scale_capture(o, 1 + 1e-4),
    ],
    "edges-sym": [
        lambda j, o: _scale_file_row(o, ".out.csv", 100, 1 + 1e-4),
        lambda j, o: _scale_capture(o, 1 + 1e-4),
    ],
    "edges-comb": [lambda j, o: _scale_file_row(o, ".out.csv", 5, 1 + 1e-4)],
    "mesh": [
        lambda j, o: _scale_file_row(o, ".out.csv", 40, 1 + 1e-4),
        lambda j, o: _scale_capture(o, 1 + 1e-4),
    ],
    "image-0": [_move_argmax_outside_block],
    "image-1": [lambda j, o: dict(o, code=1)],
}


def test_every_job_passes_its_reference_check(outputs):
    problems = {job_id: reference.check_job(job, out) for job_id, (job, out) in outputs.items()}
    assert problems == {job_id: "" for job_id in outputs}


@pytest.mark.parametrize(
    "job_id, index",
    [(job_id, i) for job_id, fns in PERTURBATIONS.items() for i in range(len(fns))],
)
def test_reference_check_rejects_perturbed_output(outputs, job_id, index):
    job, out = outputs[job_id]
    bad = PERTURBATIONS[job_id][index](job, out)
    assert reference.check_job(job, bad) != ""


def test_image_check_accepts_a_patch_on_the_block_edge_only():
    params = {"width": 32, "height": 32, "block": 8, "patch": 8, "r0": 12, "c0": 12}

    def out_with_argmax(row, col):
        values = [0.5] * (32 * 32)
        values[row * 32 + col] = 1.0
        csv = "".join(f"{i},{v!r}\n" for i, v in enumerate(values)).encode()
        pgm = reference.heatmap_bytes(reference.np.array(values), 32, 32)
        return {"code": 0, "stdout": f"argmax_index={row * 32 + col}\n",
                "files": {"s.csv": csv, "h.pgm": pgm}}

    job = {"check": "image", "params": params}
    # rows 12-19 hold the block; patches reach 3 rows up and 4 rows down
    for row, col in ((12, 12), (19, 19), (8, 8), (22, 22)):
        assert reference.check_job(job, out_with_argmax(row, col)) == "", (row, col)
    for row, col in ((7, 12), (12, 23), (23, 15), (0, 0)):
        assert reference.check_job(job, out_with_argmax(row, col)) != "", (row, col)


def test_every_check_kind_has_a_perturbation(outputs):
    kinds = {outputs[job_id][0]["check"] for job_id in PERTURBATIONS}
    assert kinds == set(reference.CHECKS)


# ------------------------------------------------------------- contract


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
