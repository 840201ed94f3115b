"""Acceptance gate: eleven end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each check pins its tolerances and its wall-clock budget inline.
"""

import json
import math
import time

import numpy as np

from nodalscore import analytic, paley, pipeline, torus
from nodalscore.analytic import PeriodicSequence, RationalPoint
from nodalscore.cli import main
from nodalscore.eigensolve import SymOperator, dense_sym_eig, lanczos_smallest

TWO_PI = 2.0 * math.pi


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def parse_summary(out):
    line = out.strip().splitlines()[-1]
    return dict(token.partition("=")[::2] for token in line.split(" "))


# ---------------------------------------------------------------- criterion 1


def test_acceptance_01_rational_minima_all_small_denominators(capsys):
    start = time.perf_counter()
    checked, strict = 0, 0
    for q in range(2, 13):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            code = main(["rational-check", "--p", str(p), "--q", str(q)])
            summary = parse_summary(capsys.readouterr().out)
            checked += 1
            if code == 0 and summary["strict_minimum"] == "true":
                strict += 1
    elapsed = time.perf_counter() - start
    ok = strict == checked == 45 and elapsed < 5.0
    report(capsys, 1, ok, f"{strict}/{checked} strict minima at p/q, q<=12, {elapsed:.2f}s (budget 5s)")


# ---------------------------------------------------------------- criterion 2


def test_acceptance_02_deep_cusp_at_5_over_13(capsys):
    start = time.perf_counter()
    x = 5.0 / 13.0
    center = analytic.interval_score(x, 50000)
    left = analytic.interval_score(x - 1e-4, 50000)
    right = analytic.interval_score(x + 1e-4, 50000)
    elapsed = time.perf_counter() - start
    margin = min(left, right) - center
    ok = center < left and center < right and margin > 0.0 and elapsed < 30.0
    report(capsys, 2, ok, f"score(5/13, 50000) sits {margin:.6f} below both 1e-4 neighbors, {elapsed:.2f}s (budget 30s)")


# ---------------------------------------------------------------- criterion 3


def test_acceptance_03_square_minima_at_rational_pairs(capsys):
    start = time.perf_counter()
    cases = [((1, 2), (1, 3)), ((2, 5), (1, 2)), ((1, 3), (1, 4))]
    passed = 0
    for (px, qx), (py, qy) in cases:
        good = analytic.check_rational_minimum_2d(
            RationalPoint(px, qx), RationalPoint(py, qy), 4.0e3, 1.0e-3
        )
        passed += bool(good)
    elapsed = time.perf_counter() - start
    ok = passed == len(cases) and elapsed < 60.0
    report(capsys, 3, ok, f"{passed}/{len(cases)} rational pairs are strict 2-D minima at lambda_cut=4e3, h=1e-3, {elapsed:.2f}s (budget 60s)")


# ---------------------------------------------------------------- criterion 4


def test_acceptance_04_paley_three_values_and_spectrum(capsys):
    start = time.perf_counter()
    primes = [5, 13, 17, 29, 37, 101]
    worst_vertex_dev = 0.0
    worst_spectrum_dev = 0.0
    counts_ok = True
    for p in primes:
        closed = paley.paley_score_closed_form(p)
        numeric = paley.paley_score_numeric(p)
        worst_vertex_dev = max(
            worst_vertex_dev,
            float(np.abs(closed.per_vertex - numeric.per_vertex).max()),
        )
        values = np.round(closed.per_vertex.real, 8)
        _, class_counts = np.unique(values, return_counts=True)
        if sorted(class_counts.tolist()) != sorted([1, (p - 1) // 2, (p - 1) // 2]):
            counts_ok = False
        if class_counts.size != 3:
            counts_ok = False
        lap = pipeline.laplacian(paley.paley_graph(p), "combinatorial")
        numeric_spectrum = np.sort(np.linalg.eigvalsh(lap.to_dense()))
        spec = paley.paley_spectrum(p)
        half = (p - 1) // 2
        expected = np.sort(
            np.concatenate(
                [[0.0], np.full(half, spec.lambda_minus), np.full(half, spec.lambda_plus)]
            )
        )
        worst_spectrum_dev = max(
            worst_spectrum_dev, float(np.abs(numeric_spectrum - expected).max())
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_vertex_dev <= 1e-10
        and counts_ok
        and worst_spectrum_dev <= 1e-9
        and elapsed < 30.0
    )
    report(capsys, 4, ok, f"6 moduli: per-vertex closed-vs-numeric dev {worst_vertex_dev:.2e} (<=1e-10), 3 values with counts (1,(p-1)/2,(p-1)/2), spectrum dev {worst_spectrum_dev:.2e} (<=1e-9), {elapsed:.2f}s (budget 30s)")


# ---------------------------------------------------------------- criterion 5


def test_acceptance_05_circle_minimum_in_window_and_sweep(capsys):
    start = time.perf_counter()
    n_grid, n_max = 512, 8
    spec = torus.PotentialSpec(y=0.35 * TWO_PI, eps=0.10 * TWO_PI, bump="constant-well")
    n_eps = torus.find_N_eps(spec, n_grid, n_max)
    grid = np.arange(n_grid) * (TWO_PI / n_grid)
    in_window = 0
    for n_pairs in range(1, n_eps + 1):
        field = torus.torus_score(n_grid, spec, n_pairs)
        amin = int(np.argmin(field))
        in_window += bool(torus.window_mask(grid[amin : amin + 1], spec)[0])
    sweep = [
        torus.find_N_eps(
            torus.PotentialSpec(y=0.35 * TWO_PI, eps=frac * TWO_PI, bump="constant-well"),
            n_grid,
            n_max,
        )
        for frac in (0.15, 0.10, 0.05)
    ]
    nondecreasing = all(b >= a for a, b in zip(sweep, sweep[1:]))
    elapsed = time.perf_counter() - start
    ok = n_eps >= 1 and in_window == n_eps and nondecreasing and elapsed < 120.0
    report(capsys, 5, ok, f"N_eps={n_eps} with argmin in [y, y+eps] for {in_window}/{n_eps} prefixes; sweep over eps/2pi=(0.15,0.10,0.05) gives {tuple(sweep)} nondecreasing, {elapsed:.2f}s (budget 120s)")


# ---------------------------------------------------------------- criterion 6


def test_acceptance_06_periodic_partial_sum_bound_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    held = 0
    total = 1000
    for _ in range(total):
        period = int(rng.integers(2, 21))
        a = rng.standard_normal(period)
        a -= a.mean()
        n = int(rng.integers(1, 10**4))
        b = np.cumsum(rng.uniform(0.0, 0.1, n)) + rng.uniform(0.1, 2.0)
        out = analytic.periodic_sum_bound(PeriodicSequence(a), b, n)
        held += bool(out.holds)
    elapsed = time.perf_counter() - start
    ok = held == total and elapsed < 5.0
    report(capsys, 6, ok, f"{held}/{total} random zero-mean periodic sums within the nondecreasing-weight bound, {elapsed:.2f}s (budget 5s)")


# ---------------------------------------------------------------- criterion 7


def test_acceptance_07_mean_abs_sin_floor_at_one_half(capsys):
    start = time.perf_counter()
    exact_at_two = analytic.rational_mean_abs_sin(2) == 0.5
    vals = [analytic.rational_mean_abs_sin(q) for q in range(2, 201)]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    irrational_dev = abs(analytic.mean_abs_sin(1.0 / math.sqrt(2.0), 10**6) - 2.0 / math.pi)
    elapsed = time.perf_counter() - start
    ok = exact_at_two and increasing and irrational_dev <= 1e-3 and elapsed < 10.0
    report(capsys, 7, ok, f"mean(2)=1/2 exactly, strictly increasing for q<=200, irrational mean within {irrational_dev:.2e} of 2/pi (<=1e-3), {elapsed:.2f}s (budget 10s)")


# ---------------------------------------------------------------- criterion 8


def random_sparse_laplacian(rng, n, avg_degree=4):
    n_edges = max(1, int(n * avg_degree / 2))
    u = rng.integers(0, n, n_edges)
    v = rng.integers(0, n, n_edges)
    keep = u != v
    u, v = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    key = np.unique(u * n + v)
    u, v = key // n, key % n
    w = rng.uniform(0.5, 2.0, u.size)
    deg = np.zeros(n)
    np.add.at(deg, u, w)
    np.add.at(deg, v, w)
    idx = np.arange(n)
    rows = np.concatenate([idx, u])
    cols = np.concatenate([idx, v])
    vals = np.concatenate([deg, -w])
    return SymOperator.from_triplets(n, rows, cols, vals)


def test_acceptance_08_iterative_solver_matches_dense_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_value_diff = 0.0
    worst_residual = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 301))
        op = random_sparse_laplacian(rng, n)
        dense = dense_sym_eig(op.densified())
        truth = np.array([pair.value for pair in dense.pairs])[:10]
        iterative = lanczos_smallest(op, 10)
        approx = np.array([pair.value for pair in iterative.pairs])
        worst_value_diff = max(worst_value_diff, float(np.abs(approx - truth).max()))
        worst_residual = max(worst_residual, float(iterative.residuals.max()))
    elapsed = time.perf_counter() - start
    ok = worst_value_diff <= 1e-8 and worst_residual <= 1e-8 and elapsed < 60.0
    report(capsys, 8, ok, f"50 sparse graphs n<=300: 10 smallest eigenvalues within {worst_value_diff:.2e} of dense (<=1e-8), residuals <= {worst_residual:.2e} (<=1e-8), {elapsed:.2f}s (budget 60s)")


# ---------------------------------------------------------------- criterion 9


def make_anomaly_image(seed, size=64, block=8):
    rng = np.random.default_rng(seed)
    img = 0.35 + 0.30 * rng.uniform(size=(size, size))
    r0, c0 = rng.integers(block, size - 2 * block + 1, 2)
    patch = 0.92 + 0.02 * rng.standard_normal((block, block))
    img[r0 : r0 + block, c0 : c0 + block] = patch
    img = np.clip(img, 0.0, 1.0)
    img = np.floor(img * 255.0 + 0.5) / 255.0
    return img, (int(r0), int(c0))


def write_pgm(img, path):
    ints = np.floor(img * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    path.write_bytes(header + ints.tobytes())


def test_acceptance_09_image_anomaly_argmax_in_block(capsys, tmp_path):
    start = time.perf_counter()
    size, block = 64, 8
    hits = []
    for seed in range(5):
        img, (r0, c0) = make_anomaly_image(seed, size, block)
        pgm = tmp_path / f"clutter{seed}.pgm"
        write_pgm(img, pgm)
        out = tmp_path / f"scores{seed}.csv"
        code = main(
            [
                "graph", "--input", str(pgm), "--format", "pgm",
                "--n-terms", "15", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        values = np.array(
            [float(line.split(",")[1]) for line in out.read_text().splitlines()]
        )
        row, col = divmod(int(np.argmax(values)), size)
        hits.append(r0 <= row < r0 + block and c0 <= col < c0 + block)
    elapsed = time.perf_counter() - start
    ok = all(hits) and elapsed < 120.0
    report(capsys, 9, ok, f"argmax inside the planted 8x8 block for {sum(hits)}/5 seeds, {elapsed:.2f}s (budget 120s)")


# --------------------------------------------------------------- criterion 10


def test_acceptance_10_score_bounded_by_nodal_distances(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    worst_excess = -math.inf
    for _ in range(10**4):
        x = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, 201))
        lhs = analytic.interval_score(x, n)
        rhs = math.pi * analytic.nodal_distance_sum(x, n)
        worst_excess = max(worst_excess, lhs - rhs)
        if lhs > rhs:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    report(capsys, 10, ok, f"0 violations in 10^4 draws of score <= pi * nodal-distance sum (closest approach {worst_excess:.3e}), {elapsed:.2f}s (budget 5s)")


# --------------------------------------------------------------- criterion 11


def test_acceptance_11_cli_byte_determinism(capsys, tmp_path):
    edges = tmp_path / "g.csv"
    edges.write_text("0,1,1.0\n1,2,1.5\n2,3,0.7\n3,4,1.2\n4,5,0.9\n0,3,0.4\n")
    img, _ = make_anomaly_image(11, size=16, block=4)
    pgm_in = tmp_path / "img.pgm"
    write_pgm(img, pgm_in)
    y, eps = 0.35 * TWO_PI, 0.10 * TWO_PI
    invocations = [
        ["interval", "--n-terms", "40", "--grid", "64", "--find-minima",
         "--out", str(tmp_path / "a.csv")],
        ["square", "--lambda-cut", "30", "--grid", "7x7",
         "--out", str(tmp_path / "b.csv"), "--pgm", str(tmp_path / "b.pgm")],
        ["rational-check", "--p", "3", "--q", "7", "--out", str(tmp_path / "c.txt")],
        ["paley", "--p", "17", "--verify", "--out", str(tmp_path / "d.csv")],
        ["torus", "--y", f"{y:.17g}", "--eps", f"{eps:.17g}",
         "--n-grid", "256", "--n-terms", "3", "--out", str(tmp_path / "e.csv")],
        ["graph", "--input", str(edges), "--format", "edges",
         "--n-terms", "2", "--out", str(tmp_path / "f.csv")],
        ["graph", "--input", str(pgm_in), "--format", "pgm", "--patch", "4",
         "--knn", "8", "--n-terms", "4",
         "--out", str(tmp_path / "h.csv"), "--pgm", str(tmp_path / "h.pgm")],
    ]
    subcommands = {argv[0] for argv in invocations}
    identical = 0
    compared_files = 0
    for argv in invocations:
        out_paths = [
            tmp_path / name
            for name in sorted(p.name for p in tmp_path.iterdir())
        ]
        code = main(argv)
        stdout_one = capsys.readouterr().out
        assert code == 0, argv
        written = [p for p in tmp_path.iterdir() if p not in out_paths]
        artifacts = sorted(written)
        first = [p.read_bytes() for p in artifacts]
        code = main(argv)
        stdout_two = capsys.readouterr().out
        assert code == 0, argv
        second = [p.read_bytes() for p in artifacts]
        same = stdout_one == stdout_two and first == second
        identical += bool(same)
        compared_files += len(artifacts)
    ok = identical == len(invocations) and subcommands == {
        "interval", "square", "rational-check", "paley", "torus", "graph"
    }
    report(capsys, 11, ok, f"{identical}/{len(invocations)} repeated runs byte-identical across all 6 subcommands ({compared_files} artifacts plus stdout compared)")
