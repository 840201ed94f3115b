"""Per-seed job lists and input files for the benchmark workloads.

A job is one ``nodalscore`` command line plus what its reference check
needs.  Every size is fixed per workload and only the content (fractions,
primes near a fixed size, images, graphs, well positions) is drawn from
the seed, so one pass costs about the same for every seed.

Why these workloads:

- ``series``: the closed-form engine.  Grid jobs (interval, square) and
  scattered-point jobs (rational-check probes) each carry about a third
  of a pass, so a trick that only helps tensor grids still pays for the
  scattered points; the rest is Paley at p near 10^6 (summary) and 10^5
  (CSV).  No eigensolver runs here.
- ``circle-well``: the stiff banded circle operator above the 512-point
  dense cutoff, where the iterative eigensolver dominates.
- ``image-anomaly``: kNN patch graphs of clutter images with a planted
  block; the exact kNN dominates and the eigensolver sees a
  well-conditioned Laplacian (the opposite case to ``circle-well``).
- ``graph-files``: the parsers, multi-component edge lists on both sides
  of the dense/iterative switch, a 2-D mesh and a verified Paley graph.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("series", "circle-well", "image-anomaly", "graph-files")

TWO_PI = 2.0 * math.pi


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_1mod4(start):
    """Smallest prime p >= start with p = 1 mod 4."""
    p = max(5, int(start))
    while not (p % 4 == 1 and _is_prime(p)):
        p += 1
    return p


def _job(job_id, argv, check, params, outputs=()):
    return {
        "id": job_id,
        "argv": [str(a) for a in argv],
        "check": check,
        "params": params,
        "outputs": list(outputs),
    }


def _with_config(*paths):
    return [x for p in paths for x in (p, f"{p}.config.json")]


def _series(rng, run_dir):
    # The grid jobs' inputs are fixed by their sizes, and the sizes stay
    # fixed: numpy's temporaries scale with them, and a few rows more or
    # less moved the peak RSS by 10% through the allocator's history.
    jobs = []
    grid, n_terms = 1024, 9000
    jobs.append(
        _job(
            "interval",
            ["interval", "--n-terms", n_terms, "--grid", grid, "--find-minima",
             "--out", "interval.csv"],
            "interval-grid",
            {"grid": grid, "n_terms": n_terms},
            _with_config("interval.csv"),
        )
    )
    mx = my = 48
    jobs.append(
        _job(
            "square",
            ["square", "--lambda-cut", 4000, "--grid", f"{mx}x{my}",
             "--out", "square.csv", "--pgm", "square.pgm"],
            "square-grid",
            {"mx": mx, "my": my, "lambda_cut": 4000},
            _with_config("square.csv") + ["square.pgm"],
        )
    )
    for i in range(7):
        q = int(rng.integers(11, 65))
        p = int(rng.integers(1, q))
        while math.gcd(p, q) != 1:
            p = int(rng.integers(1, q))
        jobs.append(
            _job(
                f"rational-{i}",
                ["rational-check", "--p", p, "--q", q, "--n-terms", 1 << 20],
                "rational",
                {"p": p, "q": q, "n_terms": 1 << 20},
            )
        )
    p = prime_1mod4(10**6 + int(rng.integers(0, 10**4)))
    jobs.append(_job("paley-summary", ["paley", "--p", p], "paley-summary", {"p": p}))
    p = prime_1mod4(10**5 + int(rng.integers(0, 10**3)))
    jobs.append(
        _job(
            "paley-csv",
            ["paley", "--p", p, "--out", "paley.csv"],
            "paley-csv",
            {"p": p},
            _with_config("paley.csv"),
        )
    )
    return jobs


def _well(rng):
    return float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.5, 0.8))


def _circle_well(rng, run_dir):
    y, eps = _well(rng)
    n_grid, n_pairs = 576, 5
    jobs = [
        _job(
            "torus-field",
            ["torus", "--y", f"{y:.17g}", "--eps", f"{eps:.17g}", "--n-grid", n_grid,
             "--n-terms", n_pairs, "--out", "torus.csv"],
            "torus-field",
            {"y": y, "eps": eps, "n_grid": n_grid, "n_pairs": n_pairs},
            _with_config("torus.csv"),
        )
    ]
    y, eps = _well(rng)
    n_grid, n_max = 544, 5
    jobs.append(
        _job(
            "torus-n-eps",
            ["torus", "--y", f"{y:.17g}", "--eps", f"{eps:.17g}", "--n-grid", n_grid,
             "--find-n-eps", n_max],
            "torus-n-eps",
            {"y": y, "eps": eps, "n_grid": n_grid, "n_max": n_max},
        )
    )
    return jobs


def anomaly_image(rng, height, width, block):
    """Uniform clutter with one bright block; returns 8-bit pixels and its corner."""
    img = 0.35 + 0.30 * rng.uniform(size=(height, width))
    r0 = int(rng.integers(block, height - 2 * block + 1))
    c0 = int(rng.integers(block, width - 2 * block + 1))
    img[r0 : r0 + block, c0 : c0 + block] = 0.92 + 0.02 * rng.standard_normal((block, block))
    pixels = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return pixels, (r0, c0)


def write_pgm(pixels, path):
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode() + pixels.tobytes())


def _image_anomaly(rng, run_dir):
    jobs = []
    block, patch = 8, 8
    for i, (height, width) in enumerate(((64, 64), (48, 80))):
        pixels, (r0, c0) = anomaly_image(rng, height, width, block)
        name = f"clutter{i}.pgm"
        write_pgm(pixels, os.path.join(run_dir, name))
        jobs.append(
            _job(
                f"image-{i}",
                ["graph", "--input", name, "--format", "pgm", "--patch", patch,
                 "--n-terms", 15, "--out", f"image{i}.csv", "--pgm", f"heat{i}.pgm"],
                "image",
                {"width": width, "height": height, "block": block, "patch": patch,
                 "r0": r0, "c0": c0},
                _with_config(f"image{i}.csv") + [f"heat{i}.pgm"],
            )
        )
    return jobs


def random_components(rng, sizes, degree):
    """Edge lines of connected random graphs, one per size, ids shuffled.

    Each component is a random spanning tree plus uniform random edges up
    to the average degree, with weights in [0.5, 2] at 6 decimals.
    """
    labels = rng.permutation(sum(sizes))
    lines = []
    offset = 0
    for size in sizes:
        order = rng.permutation(size)
        edges = set()
        for i in range(1, size):
            a, b = int(order[i]), int(order[rng.integers(0, i)])
            edges.add((min(a, b), max(a, b)))
        while len(edges) < size * degree // 2:
            a, b = (int(v) for v in rng.integers(0, size, 2))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        for a, b in sorted(edges):
            u, v = labels[a + offset], labels[b + offset]
            lines.append(f"{u},{v},{rng.uniform(0.5, 2.0):.6f}")
        offset += size
    return lines


def mesh_obj(rng, side):
    """OBJ text of a side x side vertex grid; each quad split on a random diagonal."""
    lines = ["# perturbed grid mesh"]
    for i in range(side):
        for j in range(side):
            z = 0.05 * rng.standard_normal()
            lines.append(f"v {i / (side - 1):.6f} {j / (side - 1):.6f} {z:.6f}")
    for i in range(side - 1):
        for j in range(side - 1):
            a = i * side + j + 1
            b, c, d = a + 1, a + side, a + side + 1
            if rng.integers(2):
                lines += [f"f {a} {b} {d}", f"f {a} {d} {c}"]
            else:
                lines += [f"f {a} {b} {c}", f"f {b} {d} {c}"]
    return lines


def _graph_files(rng, run_dir):
    jobs = []
    # component sizes are distinct so a solve can be matched to its component
    cases = (
        ("edges-sym", "sym", (384, 256, 704, 896), 8),
        ("edges-comb", "comb", (448, 320, 768), 6),
    )
    for job_id, laplacian, sizes, n_terms in cases:
        name = f"{job_id}.csv"
        lines = random_components(rng, sizes, degree=6)
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write("# u,v,w\n" + "\n".join(lines) + "\n")
        jobs.append(
            _job(
                job_id,
                ["graph", "--input", name, "--format", "edges", "--laplacian", laplacian,
                 "--n-terms", n_terms, "--out", f"{job_id}.out.csv"],
                "graph-edges",
                {"input": name, "laplacian": laplacian, "n_terms": n_terms},
                _with_config(f"{job_id}.out.csv"),
            )
        )
    side = 40
    with open(os.path.join(run_dir, "mesh.obj"), "w") as fh:
        fh.write("\n".join(mesh_obj(rng, side)) + "\n")
    jobs.append(
        _job(
            "mesh",
            ["graph", "--input", "mesh.obj", "--format", "obj", "--n-terms", 10,
             "--out", "mesh.out.csv"],
            "graph-mesh",
            {"input": "mesh.obj", "laplacian": "sym", "n_terms": 10},
            _with_config("mesh.out.csv"),
        )
    )
    p = prime_1mod4(590 + int(rng.integers(0, 12)))
    jobs.append(_job("paley-verify", ["paley", "--p", p, "--verify"], "paley-verify", {"p": p}))
    return jobs


_BUILDERS = {
    "series": _series,
    "circle-well": _circle_well,
    "image-anomaly": _image_anomaly,
    "graph-files": _graph_files,
}


def generate(workload, seed, run_dir):
    """Write the workload's input files into run_dir and return its jobs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    jobs = _BUILDERS[workload](rng, run_dir)
    with open(os.path.join(run_dir, "jobs.json"), "w") as fh:
        json.dump(jobs, fh, indent=1)
    return jobs
