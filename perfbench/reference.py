"""Independent reference checks for the benchmark's job outputs.

Nothing here calls into ``nodalscore``: each check recomputes what a job
should have produced from its parameters (or its input file) with plain
numpy, and compares.

- Grid series: sampled grid points against an exact-integer reduction.
  On the grid x = i/G, k*x mod 1 is ((k*i) mod G)/G, so no floating-point
  argument reduction is involved; the square uses (m*i) mod (M+1) on its
  interior lattice i/(M+1).
- Rational probes: the centre value and the strict-minimum verdict, with
  the neighbours p/q +- 1/(8q^2) reduced exactly as (k*(8pq +- 1)) mod 8q^2.
- Paley: the three values against the Gauss-sum closed form.
- Circle well: eigenvalues and the score field against a dense ``eigh`` of
  an independently assembled operator, and N_eps recomputed from it.
- Edge lists and meshes: per component, eigenvalues and residuals against
  dense ``eigh``; the field only where the spectrum is simple.
- Images: the argmax pixel's patch overlaps the planted block.

Each check raises ``CheckFailed`` with the first problem it finds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

TWO_PI = 2.0 * math.pi
# an eigenvalue counts as simple when its neighbours are this far away,
# relative to the largest eigenvalue used
SIMPLE_GAP = 1e-6
# eigenvalues and residuals are normalized by the operator's inf-norm
EIG_TOL = 1e-9
RESIDUAL_TOL = 1e-8
FIELD_RTOL = 1e-6
SERIES_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def parse_summary(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    _require(lines, "no summary line")
    return dict(token.partition("=")[::2] for token in lines[-1].split(" "))


def csv_values(data, rows):
    """Score column of an "index,score" CSV; the index column must count 0.."""
    lines = data.decode().splitlines()
    _require(len(lines) == rows, f"CSV has {len(lines)} rows, expected {rows}")
    idx = np.array([int(line.partition(",")[0]) for line in lines])
    _require((idx == np.arange(rows)).all(), "CSV index column is not 0..n-1")
    return np.array([float(line.partition(",")[2]) for line in lines])


def _close(got, want, rtol, what, atol=0.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    err = np.abs(got - want) - rtol * np.abs(want) - atol
    _require(np.isfinite(got).all() and (err <= 0).all(),
             f"{what}: off by {float(np.max(np.abs(got - want))):.3e}")


def _same_float(summary, key, value):
    _require(float(summary[key]) == float(value), f"summary {key}={summary[key]}, output has {value!r}")


def _output(out, suffix):
    """Bytes of the job's one output file whose name ends with suffix."""
    return next(data for name, data in out["files"].items() if name.endswith(suffix))


def heatmap_bytes(values, width, height):
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.floor((values - lo) / (hi - lo) * 255.0 + 0.5).astype(np.uint8)
    else:
        scaled = np.full(values.size, 128, dtype=np.uint8)
    return f"P5\n{width} {height}\n255\n".encode() + scaled.tobytes()


# ------------------------------------------------------------------ series


def interval_reference(indices, grid, n_terms):
    """sum_k |sin(k pi i/grid)| / k with k*i reduced mod grid in integers."""
    k = np.arange(1, n_terms + 1, dtype=np.int64)
    r = (np.asarray(indices, dtype=np.int64)[:, None] * k[None, :]) % grid
    return (np.sin(np.pi * r / grid) / k).sum(axis=1)


def _reduced_sum(numer, denom, n_terms):
    """sum_{k<=n_terms} sin(pi ((k*numer) mod denom) / denom) / k."""
    total = 0.0
    for lo in range(1, n_terms + 1, 1 << 18):
        k = np.arange(lo, min(lo + (1 << 18), n_terms + 1), dtype=np.int64)
        total += float((np.sin(np.pi * ((k * numer) % denom) / denom) / k).sum())
    return total


def square_lattice(lambda_cut):
    m_max = math.isqrt(math.floor(lambda_cut))
    pairs = [(m, n) for m in range(1, m_max + 1)
             for n in range(1, math.isqrt(math.floor(lambda_cut - m * m)) + 1)]
    ms, ns = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    return ms, ns, 1.0 / np.sqrt((ms * ms + ns * ns).astype(np.float64))


def square_reference(ix, iy, mx, my, lambda_cut):
    """Square score at interior lattice points (ix/(mx+1), iy/(my+1))."""
    ms, ns, ws = square_lattice(lambda_cut)
    rx = (np.asarray(ix, dtype=np.int64)[:, None] * ms[None, :]) % (mx + 1)
    ry = (np.asarray(iy, dtype=np.int64)[:, None] * ns[None, :]) % (my + 1)
    terms = ws * np.sin(np.pi * rx / (mx + 1)) * np.sin(np.pi * ry / (my + 1))
    return terms.sum(axis=1)


def strict_minima_1d(values):
    left = np.concatenate(([np.inf], values[:-1]))
    right = np.concatenate((values[1:], [np.inf]))
    return np.flatnonzero((values < left) & (values < right))


def _sample(n, extra=()):
    return np.unique(np.concatenate([np.linspace(0, n - 1, 33).astype(np.int64),
                                     np.asarray(extra, dtype=np.int64)]))


def check_interval_grid(params, out):
    grid, n_terms = params["grid"], params["n_terms"]
    values = csv_values(out["files"]["interval.csv"], grid + 1)
    idx = _sample(grid + 1, [np.argmin(values), np.argmax(values)])
    _close(values[idx], interval_reference(idx, grid, n_terms), SERIES_RTOL,
           "interval grid vs exact reduction", atol=1e-12)
    s = out["summary"]
    _require(int(s["points"]) == grid + 1 and int(s["n_terms"]) == n_terms, "summary sizes")
    _require(int(s["min_index"]) == int(np.argmin(values)), "summary min_index")
    _same_float(s, "min_value", values.min())
    _same_float(s, "max_value", values.max())
    minima = strict_minima_1d(values)
    _require(int(s["minima_count"]) == minima.size, "minima_count")
    listed = [float(x) for x in s["minima_x"].split(";")] if minima.size else []
    _require(listed == [i / grid for i in minima.tolist()], "minima_x")


def check_square_grid(params, out):
    mx, my, lam = params["mx"], params["my"], params["lambda_cut"]
    values = csv_values(out["files"]["square.csv"], mx * my)
    idx = _sample(mx * my, [np.argmin(values), np.argmax(values)])
    rows, cols = np.divmod(idx, mx)
    _close(values[idx], square_reference(cols + 1, rows + 1, mx, my, lam), SERIES_RTOL,
           "square grid vs exact reduction")
    _require(out["files"]["square.pgm"] == heatmap_bytes(values, mx, my), "square heatmap")
    s = out["summary"]
    amin = int(np.argmin(values))
    _require(int(s["points"]) == mx * my, "summary points")
    _same_float(s, "argmin_x", (amin % mx + 1) / (mx + 1))
    _same_float(s, "argmin_y", (amin // mx + 1) / (my + 1))
    _same_float(s, "min_value", values.min())
    _same_float(s, "max_value", values.max())


def check_rational(params, out):
    p, q, n_terms = params["p"], params["q"], params["n_terms"]
    center = _reduced_sum(p, q, n_terms)
    left = _reduced_sum(8 * p * q - 1, 8 * q * q, n_terms)
    right = _reduced_sum(8 * p * q + 1, 8 * q * q, n_terms)
    s = out["summary"]
    _require(int(s["n_terms"]) == n_terms, "summary n_terms")
    _require(float(s["step"]) == 1.0 / (8 * q * q), "summary step")
    _close(float(s["center_value"]), center, SERIES_RTOL, "center value")
    want = "true" if center < min(left, right) else "false"
    _require(s["strict_minimum"] == want, f"strict_minimum={s['strict_minimum']}, expected {want}")


# ------------------------------------------------------------------- Paley


def paley_closed_form(p):
    """(s_zero, s_residue, s_nonresidue) from the quadratic Gauss sum sqrt(p)."""
    root = math.sqrt(p)
    w_minus = ((p - root) / 2.0) ** -0.5
    w_plus = ((p + root) / 2.0) ** -0.5
    s_zero = (p - 1) / 2.0 * (w_minus + w_plus)
    s_res = w_minus * (root - 1.0) / 2.0 - w_plus * (root + 1.0) / 2.0
    s_non = -w_minus * (root + 1.0) / 2.0 + w_plus * (root - 1.0) / 2.0
    return s_zero, s_res, s_non


def _paley_tol(value):
    return 1e-9 * max(1.0, abs(value))


def check_paley_summary(params, out):
    p = params["p"]
    s = out["summary"]
    _require(int(s["p"]) == p and s["distinct_values"] == "3", "summary p / distinct_values")
    for key, want in zip(("s_zero", "s_residue", "s_nonresidue"), paley_closed_form(p)):
        _require(abs(float(s[key]) - want) <= _paley_tol(want),
                 f"{key}={s[key]}, Gauss sum gives {want!r}")


def check_paley_csv(params, out):
    check_paley_summary(params, out)
    p = params["p"]
    values = csv_values(out["files"]["paley.csv"], p)
    residue = np.zeros(p, dtype=bool)
    residue[(np.arange(1, p, dtype=np.int64) ** 2) % p] = True
    s_zero, s_res, s_non = paley_closed_form(p)
    want = np.where(residue, s_res, s_non)
    want[0] = s_zero
    _close(values, want, 1e-9, "Paley per-vertex values", atol=1e-9)


def check_paley_verify(params, out):
    check_paley_summary(params, out)
    p = params["p"]
    s = out["summary"]
    _require(s["verify_pass"] == "true" and float(s["verify_max_deviation"]) <= 1e-10,
             "numeric verification")
    solves = [c for c in out["captures"] if c["n"] == p]
    _require(len(solves) == 1, f"expected one eigen solve of size {p}, saw {len(solves)}")
    got = np.array(solves[0]["values"])
    want = np.full(got.size, (p - math.sqrt(p)) / 2.0)
    want[0] = 0.0
    _close(got, want, 0.0, "Paley Laplacian spectrum", atol=EIG_TOL * p)
    _require(solves[0]["max_residual"] <= RESIDUAL_TOL, "Paley solve residual")


# ------------------------------------------------------------- eigen oracle


def score_field(values, vectors):
    """sum_k values[k]^{-1/2} |vectors[:, k]| / max |vectors[:, k]|."""
    mags = np.abs(vectors)
    return mags @ (values ** -0.5 / mags.max(axis=0))


def simple_spectrum(values):
    gaps = np.diff(values)
    return bool(gaps.size == 0 or gaps.min() > SIMPLE_GAP * max(1.0, abs(values[-1])))


def _check_solve(captures, n, oracle_values, scale, what):
    """The one captured solve of size n matches the oracle; returns it."""
    solves = [c for c in captures if c["n"] == n]
    _require(len(solves) == 1, f"{what}: expected one eigen solve of size {n}, saw {len(solves)}")
    solve = solves[0]
    m = oracle_values.size
    _require(len(solve["values"]) >= m, f"{what}: solver returned fewer than {m} pairs")
    _require(solve["max_residual"] <= RESIDUAL_TOL,
             f"{what}: residual {solve['max_residual']:.2e} above {RESIDUAL_TOL}")
    # a Ritz value lies within the residual norm of an eigenvalue
    _close(solve["values"][:m], oracle_values, 0.0, f"{what} eigenvalues",
           atol=max(EIG_TOL, solve["max_residual"]) * scale)
    return solve


def _check_field(field, values, vectors, used, solve, scale, what):
    """Field from oracle pairs 1..used-1, when pairs 0..used are simple.

    A vector's error is at most residual / gap (Davis-Kahan) and a unit
    vector's sup norm is at least n^{-1/2}; the tolerance is ten times the
    error bound those give, and never below FIELD_RTOL.
    """
    if not simple_spectrum(values[: used + 1]):
        return
    gap = float(np.diff(values[: used + 1]).min())
    rtol = max(FIELD_RTOL, 10.0 * math.sqrt(field.size) * solve["max_residual"] * scale / gap)
    _close(field, score_field(values[1:used], vectors[:, 1:used]), rtol, what)


# ------------------------------------------------------------------ circle


def circle_operator(n_grid, y, eps):
    """Dense periodic -d^2/dx^2 + V, V = 1 - eps on [y, y + eps] (mod 2 pi)."""
    h = TWO_PI / n_grid
    xs = np.arange(n_grid) * h
    inside = np.mod(xs - y, TWO_PI) <= eps + 1e-12
    a = np.diag(2.0 / h**2 + np.where(inside, 1.0 - eps, 1.0))
    idx = np.arange(n_grid)
    a[idx, (idx + 1) % n_grid] = -1.0 / h**2
    a[idx, (idx - 1) % n_grid] = -1.0 / h**2
    return a, inside


def _circle_oracle(params, m):
    a, inside = circle_operator(params["n_grid"], params["y"], params["eps"])
    values, vectors = np.linalg.eigh(a)
    return values[:m], vectors[:, :m], inside, float(np.abs(a).sum(axis=1).max())


def check_torus_field(params, out):
    n_grid, n_pairs = params["n_grid"], params["n_pairs"]
    used = 2 * n_pairs + 1
    values, vectors, inside, scale = _circle_oracle(params, used + 1)
    solve = _check_solve(out["captures"], n_grid, values[:used], scale, "circle")
    field = csv_values(out["files"]["torus.csv"], n_grid)
    _check_field(field, values, vectors, used, solve, scale, "circle score field")
    s = out["summary"]
    amin = int(np.argmin(field))
    _require(int(s["argmin_index"]) == amin and int(s["n_terms"]) == n_pairs, "summary argmin")
    _require(s["in_window"] == ("true" if inside[amin] else "false"), "summary in_window")
    _same_float(s, "min_value", field.min())


def check_torus_n_eps(params, out):
    n_grid, n_max = params["n_grid"], params["n_max"]
    values, vectors, inside, scale = _circle_oracle(params, 2 * n_max + 1)
    _check_solve(out["captures"], n_grid, values, scale, "circle")
    best = 0
    for n in range(1, n_max + 1):
        f = score_field(values[1 : 2 * n + 1], vectors[:, 1 : 2 * n + 1])
        strict = (f < np.roll(f, 1)) & (f < np.roll(f, -1))
        if not (strict & inside).any():
            break
        best = n
    _require(int(out["summary"]["n_eps"]) == best, f"n_eps={out['summary']['n_eps']}, oracle {best}")


# ------------------------------------------------------------------ graphs


def read_edge_list(text):
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    u = np.array([int(r[0]) for r in rows])
    v = np.array([int(r[1]) for r in rows])
    w = np.array([float(r[2]) if len(r) > 2 else 1.0 for r in rows])
    return int(max(u.max(), v.max())) + 1, u, v, w


def read_obj_edges(text):
    n = 0
    edges = set()
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "v":
            n += 1
        elif fields[0] == "f":
            idx = [int(f.split("/")[0]) - 1 for f in fields[1:]]
            for t in range(1, len(idx) - 1):
                tri = (idx[0], idx[t], idx[t + 1])
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
                    edges.add((min(a, b), max(a, b)))
    u, v = (np.array(c) for c in zip(*sorted(edges)))
    return n, u, v, np.ones(u.size)


def dense_laplacian(n, u, v, w, kind):
    a = np.zeros((n, n))
    a[u, v] = w
    a[v, u] = w
    deg = a.sum(axis=1)
    if kind == "comb":
        return np.diag(deg) - a
    inv = 1.0 / np.sqrt(deg)
    return np.eye(n) - inv[:, None] * a * inv[None, :]


def check_graph(n, u, v, w, params, out):
    """Per-component eigen and field checks for a graph job."""
    n_terms, kind = params["n_terms"], params["laplacian"]
    rows = csv_values(_output(out, ".csv"), n)
    adj = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    n_comp, labels = connected_components(adj, directed=False)
    for comp in range(n_comp):
        verts = np.flatnonzero(labels == comp)
        if verts.size < 2:
            _require(rows[verts].max() == 0.0, "isolated vertex scored nonzero")
            continue
        local = -np.ones(n, dtype=np.int64)
        local[verts] = np.arange(verts.size)
        keep = local[u] >= 0
        lap = dense_laplacian(verts.size, local[u[keep]], local[v[keep]], w[keep], kind)
        values, vectors = np.linalg.eigh(lap)
        want = min(n_terms + 1, verts.size)
        scale = max(1.0, float(np.abs(lap).sum(axis=1).max()))
        what = f"component of size {verts.size}"
        solve = _check_solve(out["captures"], verts.size, values[:want], scale, what)
        _check_field(rows[verts], values, vectors, want, solve, scale, f"{what} score field")
    s = out["summary"]
    _require(int(s["n_vertices"]) == n and int(s["n_edges"]) == u.size, "summary graph size")
    _require(int(s["argmax_index"]) == int(np.argmax(rows)), "summary argmax_index")
    _same_float(s, "argmax_value", rows.max())


def check_graph_edges(params, out):
    n, u, v, w = read_edge_list(out["inputs"][params["input"]].decode())
    check_graph(n, np.minimum(u, v), np.maximum(u, v), w, params, out)


def check_graph_mesh(params, out):
    check_graph(*read_obj_edges(out["inputs"][params["input"]].decode()), params, out)


def check_image(params, out):
    """The argmax pixel's patch overlaps the planted block.

    A pixel is a patch: the one at (r, c) covers rows r - lo .. r + hi with
    lo = (P - 1) // 2, hi = P // 2, and columns alike.  Patches that
    straddle the block's edge are the rarest in the image, so the argmax
    can sit one or two pixels outside the block itself.
    """
    width, height, block = params["width"], params["height"], params["block"]
    lo, hi = (params["patch"] - 1) // 2, params["patch"] // 2
    values = csv_values(_output(out, ".csv"), width * height)
    row, col = divmod(int(np.argmax(values)), width)
    r0, c0 = params["r0"], params["c0"]
    _require(r0 - hi <= row <= r0 + block - 1 + lo and c0 - hi <= col <= c0 + block - 1 + lo,
             f"argmax at ({row}, {col}): its patch misses the block at ({r0}, {c0})")
    _require(_output(out, ".pgm") == heatmap_bytes(values, width, height), "heatmap")
    _require(int(out["summary"]["argmax_index"]) == int(np.argmax(values)), "summary argmax_index")


CHECKS = {
    "interval-grid": check_interval_grid,
    "square-grid": check_square_grid,
    "rational": check_rational,
    "paley-summary": check_paley_summary,
    "paley-csv": check_paley_csv,
    "paley-verify": check_paley_verify,
    "torus-field": check_torus_field,
    "torus-n-eps": check_torus_n_eps,
    "graph-edges": check_graph_edges,
    "graph-mesh": check_graph_mesh,
    "image": check_image,
}


def check_job(job, out):
    """'' when the job's outputs pass its reference check, else the problem."""
    if out["code"] != 0:
        return f"exit code {out['code']}"
    try:
        out = dict(out, summary=parse_summary(out["stdout"]))
        CHECKS[job["check"]](job["params"], out)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, ValueError, IndexError, StopIteration, UnicodeDecodeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return ""
