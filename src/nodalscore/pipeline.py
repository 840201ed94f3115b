"""Graphs from files and images, Laplacians, and the end-to-end score.

Images turn into patch graphs: one vertex per pixel, an 8x8 mirror-padded
patch of integer samples per vertex, exact k-nearest-neighbor search over
all patch pairs with integer distances, Gaussian edge weights
exp(-d^2 / sigma^2), union symmetrization.  Meshes and edge lists map
straight to weighted graphs.  score_graph ties it together: Laplacian,
smallest nontrivial eigenpairs, score field.
"""

from __future__ import annotations

import operator
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import compute_score_field
from .eigensolve import (
    DENSE_FALLBACK_N,
    SymOperator,
    dense_sym_eig,
    lanczos_smallest,
)

__all__ = [
    "Graph",
    "Image",
    "Mesh",
    "PatchGraphConfig",
    "parse_edge_list",
    "parse_pgm",
    "parse_obj",
    "patch_graph",
    "mesh_graph",
    "laplacian",
    "score_graph",
    "write_score_csv",
    "write_class_csv",
    "write_heatmap_pgm",
    "MAX_VERTICES",
    "MAX_PATCH_PIXELS",
    "MAX_PATCH_WORK",
    "check_patch_work",
    "MAX_GRAPH_SOLVE_WORK",
    "WorkCapError",
]

# edge lists name vertices 0..MAX_VERTICES-1; the vertex count is max id + 1,
# so one huge id would otherwise allocate per-vertex storage for all below it
MAX_VERTICES = 1 << 20

# patch graphs: exact kNN takes pixels^2 * patch^2 multiply-adds plus a
# selection over pixels^2 distances, and the patch matrix holds
# pixels * patch^2 floats; at both caps it runs about 6 s on 2 CPUs (README)
MAX_PATCH_PIXELS = 1 << 15
MAX_PATCH_WORK = 1 << 21

# wanted pairs x vertices of the largest component, checked before any
# solve: ARPACK keeps 2 * pairs + 1 Krylov vectors of component-size floats,
# and a component solved for all its modes takes the full dense solve;
# runs at this cap took 5-19 s and at most 346 MB (README)
MAX_GRAPH_SOLVE_WORK = 1 << 19

# rows of one exact kNN block, fixed so that the scratch never depends on
# the machine, and the rows of the distance matrix held at once by all the
# blocks in flight
_KNN_BLOCK_ROWS = 64
_KNN_ROWS_IN_FLIGHT = 256
# rows of the kNN sum-of-squares temporary, a small fraction of a block
_KNN_STRIP_ROWS = 8


class WorkCapError(ValueError):
    """An input above a documented work cap, refused before the work starts."""


@dataclass
class Graph:
    """Undirected weighted graph; edges stored once with u < v."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.int64)
        self.v = np.asarray(self.v, dtype=np.int64)
        self.w = np.asarray(self.w, dtype=np.float64)
        if not (self.u.shape == self.v.shape == self.w.shape):
            raise ValueError("edge arrays must have equal length")
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if self.u.size:
            if self.u.min() < 0 or self.v.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if (self.u >= self.v).any():
                raise ValueError("edges must satisfy u < v (no self-loops)")
            if not np.isfinite(self.w).all() or (self.w <= 0).any():
                raise ValueError("edge weights must be positive and finite")
            # the parsers and graph builders emit edges in (u, v) order, and
            # strictly increasing keys need no sort to rule out duplicates
            key = self.u * self.n + self.v
            if not (key[1:] > key[:-1]).all():
                key = np.sort(key)
                if (key[1:] == key[:-1]).any():
                    raise ValueError("duplicate edges")

    @property
    def n_edges(self):
        return self.u.size

    def degrees(self):
        d = np.zeros(self.n)
        np.add.at(d, self.u, self.w)
        np.add.at(d, self.v, self.w)
        return d

    def components(self):
        """Vertex labels 0..c-1 by connected component, in order of smallest vertex."""
        # imported here, not at module top: scipy costs every run about
        # 0.3 s of start-up, and the closed-form subcommands build no graph
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        adj = sp.csr_matrix(
            (np.ones(self.n_edges), (self.u, self.v)), shape=(self.n, self.n)
        )
        count, labels = connected_components(adj, directed=False)
        return labels.astype(np.int64), int(count)


@dataclass
class Image:
    """Grayscale image of integer samples 0..maxval, row-major."""

    width: int
    height: int
    samples: np.ndarray
    maxval: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples).ravel()
        self.maxval = operator.index(self.maxval)
        if self.width < 1 or self.height < 1:
            raise ValueError("empty image")
        if self.samples.size != self.width * self.height:
            raise ValueError("pixel count does not match dimensions")
        if self.samples.dtype.kind not in "iu":
            raise ValueError("samples must be integers")
        if not 1 <= self.maxval <= 65535:
            raise ValueError("maxval must be in 1..65535")
        if self.samples.min() < 0 or self.samples.max() > self.maxval:
            raise ValueError("samples must lie in 0..maxval")

    @property
    def pixels(self):
        """Intensities in [0, 1]: samples / maxval."""
        return self.samples / self.maxval

    def as_2d(self):
        return self.samples.reshape(self.height, self.width)


@dataclass
class Mesh:
    """Triangle mesh: vertex coordinates and vertex-index triangles."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.vertices.shape[0] < 1:
            raise ValueError("mesh has no vertices")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise ValueError("face index out of range")
            f = self.faces
            if ((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])).any():
                raise ValueError("degenerate face (repeated vertex)")


@dataclass(frozen=True)
class PatchGraphConfig:
    """Patch extraction and kNN parameters for image graphs."""

    patch_size: int = 8
    k_neighbors: int = 16
    bandwidth: float | str = "auto"

    def __post_init__(self):
        # the negated comparisons also refuse nan
        if not self.patch_size >= 1:
            raise ValueError("patch_size must be >= 1")
        if not self.k_neighbors >= 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.bandwidth != "auto" and (
            isinstance(self.bandwidth, str) or not 0.0 < self.bandwidth < np.inf
        ):
            raise ValueError("bandwidth must be 'auto' or a finite number > 0")


def _convert(kind, column):
    """kind of each stripped field, stopping before the first it rejects."""
    try:
        return list(map(kind, map(str.strip, column)))
    except ValueError:
        # error path only: find the first field kind rejects
        values = []
        for field in column:
            try:
                values.append(kind(field.strip()))
            except ValueError:
                return values


def parse_edge_list(text):
    """Graph from "u,v[,w]" lines; '#' starts a comment, blanks skipped.

    Repeated pairs must agree on the weight; self-loops, non-positive
    weights and indices of MAX_VERTICES or more are rejected.  Vertex count
    is max index + 1.  Fields follow Python's int and float rules.  An
    error names the first faulty line; within a line the checks run in the
    order: field count, malformed field, negative index, index too large,
    self-loop, weight, conflicting repeat.
    """
    content = [raw.partition("#")[0].strip() for raw in text.splitlines()]
    lines = [line for line in content if line]
    if not lines:
        raise ValueError("edge list is empty")
    commas = [line.count(",") for line in lines]
    # rows before stop passed every check so far; error is row stop's fault
    stop, error = len(lines), None
    if min(commas) < 1 or max(commas) > 2:
        stop = next(i for i, k in enumerate(commas) if k not in (1, 2))
        error = "expected 'u,v' or 'u,v,w'"
    # a missing weight is 1, so "u,v" becomes "u,v,1" and one split of the
    # joined rows gives every third cell to a column
    rows = [line if k == 2 else line + ",1" for line, k in zip(lines[:stop], commas)]
    cells = ",".join(rows).split(",")
    a = _convert(int, cells[0::3])
    b = _convert(int, cells[1 : 3 * len(a) : 3])
    w = _convert(float, cells[2 : 3 * len(b) : 3])
    if len(w) < stop:
        stop, error = len(w), f"malformed edge {lines[len(w)]!r}"
    # range checks on the Python ints, so a huge id never reaches int64
    a, b = a[:stop], b[:stop]
    if a and (min(min(a), min(b)) < 0 or max(max(a), max(b)) >= MAX_VERTICES):
        for i, (x, y) in enumerate(zip(a, b)):
            if x < 0 or y < 0:
                stop, error = i, "negative vertex index"
                break
            if max(x, y) >= MAX_VERTICES:
                stop, error = i, f"vertex index {max(x, y)} exceeds {MAX_VERTICES - 1}"
                break
    a = np.array(a[:stop], dtype=np.int64)
    b = np.array(b[:stop], dtype=np.int64)
    w = np.array(w[:stop], dtype=np.float64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # a stable sort keeps each pair's rows in file order; the first row that
    # differs from the row before it differs from the pair's first weight too
    key = lo * MAX_VERTICES + hi
    order = np.argsort(key, kind="stable")
    key, ws = key[order], w[order]
    repeat = key[1:] == key[:-1]
    conflict = np.zeros(key.size, dtype=bool)
    conflict[order[1:]] = repeat & (ws[1:] != ws[:-1])
    # a check takes over only at a strictly earlier row, so a line with
    # several faults reports the first in this order
    faults = (
        (a == b, lambda i: f"self-loop at vertex {a[i]}"),
        (~(np.isfinite(w) & (w > 0)), lambda i: "weight must be positive and finite"),
        (conflict, lambda i: f"edge ({lo[i]}, {hi[i]}) repeated with conflicting weight"),
    )
    for fault, message in faults:
        hits = np.flatnonzero(fault[:stop])
        if hits.size:
            stop, error = int(hits[0]), message(hits[0])
    if error is not None:
        lineno = [i for i, line in enumerate(content, start=1) if line][stop]
        raise ValueError(f"line {lineno}: {error}")
    keep = order[np.r_[True, ~repeat]]
    return Graph(n=int(hi[keep].max()) + 1, u=lo[keep], v=hi[keep], w=w[keep])


def _pgm_tokens(data, start, limit):
    """Up to limit tokens of data[start:], '#' comments stripped, each with the offset after it."""
    tokens = []
    i = start
    while i < len(data) and len(tokens) < limit:
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append((data[i:j], j))
            i = j
    return tokens


def parse_pgm(data):
    """Image from PGM bytes, ASCII (P2) or binary (P5), maxval <= 65535.

    An image of more than MAX_PATCH_PIXELS pixels raises WorkCapError from
    the header, before any pixel is decoded.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise ValueError("parse_pgm expects bytes")
    magic = bytes(data[:2])
    if magic not in (b"P2", b"P5"):
        raise ValueError("not a PGM file (expected P2 or P5 magic)")
    # tokens start right after the magic, even where no whitespace follows it
    header = _pgm_tokens(data, 2, 3)
    if len(header) < 3:
        raise ValueError("truncated PGM header")
    try:
        width, height, maxval = (int(t[0]) for t in header)
    except ValueError:
        raise ValueError("malformed PGM header") from None
    if width < 1 or height < 1:
        raise ValueError("bad PGM dimensions")
    if not 1 <= maxval <= 65535:
        raise ValueError("PGM maxval must be in 1..65535")
    count = width * height
    if count > MAX_PATCH_PIXELS:
        raise WorkCapError(f"image of {count} pixels exceeds {MAX_PATCH_PIXELS}")
    end = header[2][1]
    # one or two bytes per sample, as in the binary payload
    stored = np.dtype(np.uint16 if maxval > 255 else np.uint8)
    if magic == b"P2":
        body = _pgm_tokens(data, end, count)
        if len(body) < count:
            raise ValueError("truncated PGM pixel data")
        try:
            samples = [int(t[0]) for t in body]
        except ValueError:
            raise ValueError("malformed PGM pixel data") from None
        # range-checked as Python ints: a huge sample would overflow int64
        if min(samples) < 0:
            raise ValueError("negative PGM sample")
        if max(samples) > maxval:
            raise ValueError("PGM sample exceeds maxval")
        vals = np.array(samples, dtype=stored)
    else:
        # the payload starts one whitespace byte past the maxval token
        nbytes = count * stored.itemsize
        payload = data[end + 1 : end + 1 + nbytes]
        if len(payload) < nbytes:
            raise ValueError("truncated PGM pixel data")
        vals = np.frombuffer(payload, dtype=stored.newbyteorder(">")).astype(stored)
        if vals.max(initial=0) > maxval:
            raise ValueError("PGM sample exceeds maxval")
    return Image(width=width, height=height, samples=vals, maxval=maxval)


def _patch_dtype(patch_size, maxval):
    """float32 when its 24-bit significand holds every patch distance term.

    A patch of integer samples 0..maxval has |a|^2 and 2a.b at most
    patch^2 maxval^2, so every partial sum of the kNN distance formula is
    an integer below 2 patch^2 maxval^2: exact in float32 below 2^24
    (patch <= 11 at 8 bits), and otherwise in float64, whose 2^53 the
    work caps keep out of reach.
    """
    return np.float32 if 2 * patch_size**2 * maxval**2 < 1 << 24 else np.float64


def _patch_matrix(img, patch_size):
    """All mirror-padded patches of samples, one row per pixel, anchored at the center.

    The entries are the integer samples, held in _patch_dtype's float type.
    """
    lo = (patch_size - 1) // 2
    hi = patch_size // 2
    arr = img.as_2d()
    if min(arr.shape) <= max(lo, hi):
        raise ValueError("image too small for the patch size")
    padded = np.pad(arr, ((lo, hi), (lo, hi)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (patch_size, patch_size))
    # one converting copy straight from the windows, no integer copy first
    dtype = _patch_dtype(patch_size, img.maxval)
    patches = np.empty((img.height, img.width, patch_size, patch_size), dtype=dtype)
    patches[...] = windows
    return patches.reshape(img.height * img.width, patch_size * patch_size)


def check_patch_work(n_pixels, patch_size):
    """WorkCapError when a patch graph of this size is above the work caps.

    The caps are MAX_PATCH_PIXELS pixels and MAX_PATCH_WORK for
    pixels * patch_size^2.
    """
    if n_pixels > MAX_PATCH_PIXELS:
        raise WorkCapError(f"image of {n_pixels} pixels exceeds {MAX_PATCH_PIXELS}")
    work = n_pixels * patch_size * patch_size
    if work > MAX_PATCH_WORK:
        raise WorkCapError(
            f"pixels x patch^2 = {n_pixels} x {patch_size}^2 = {work} exceeds {MAX_PATCH_WORK}"
        )


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _knn_block(patches, sq, k, lo, idx_out, d2_out):
    """Fill rows lo..lo+_KNN_BLOCK_ROWS-1 of idx_out and d2_out (see _knn_exact)."""
    n = patches.shape[0]
    hi = min(lo + _KNN_BLOCK_ROWS, n)
    # doubling is exact, so 2a.b comes out of the product with no extra pass
    d2 = (2 * patches[lo:hi]) @ patches.T
    # (|a|^2 + |b|^2) - 2a.b in place, a few rows at a time, exact, so
    # never negative; each strip then becomes the exact key d2 * n + j
    # while it is still in cache
    key = np.empty(d2.shape, dtype=np.int64)
    index = np.arange(n)
    for r in range(lo, hi, _KNN_STRIP_ROWS):
        strip = d2[r - lo : r - lo + _KNN_STRIP_ROWS]
        np.subtract(sq[r : r + _KNN_STRIP_ROWS, None] + sq[None, :], strip, out=strip)
        keys = key[r - lo : r - lo + _KNN_STRIP_ROWS]
        keys[...] = strip
        keys *= n
        keys += index
    del d2
    rows = np.arange(lo, hi)
    key[rows - lo, rows] = np.iinfo(np.int64).max
    key.partition(k - 1, axis=1)
    sel = key[:, :k]
    sel.sort(axis=1)
    idx_out[lo:hi] = sel % n
    d2_out[lo:hi] = sel // n


def _knn_exact(patches, k):
    """k nearest rows per row (self excluded), ties broken by smaller index.

    patches holds integers, in float32 or float64 (see _patch_dtype), and
    every squared distance (|a|^2 + |b|^2) - 2 a.b is formed in that type.
    While 2 max|a|^2 is below 2^24 (float32) or 2^53 (float64), every
    product, norm and partial sum is an integer the type holds, so each
    distance is exact in any summation order: equal distances are true
    ties, ranked by index, and the bytes do not depend on the BLAS, the
    block shape or the thread count.  Each row selects by the int64 key
    d2 * n + j: d2 <= patch^2 maxval^2 and n patch^2 <= MAX_PATCH_WORK
    keep it below 2^53, so one partition ranks by distance, then index.
    Exact O(n^2) scan in blocks of _KNN_BLOCK_ROWS rows, run on a thread
    pool with one worker per CPU but at most
    _KNN_ROWS_IN_FLIGHT // _KNN_BLOCK_ROWS, so the scratch is about
    _KNN_ROWS_IN_FLIGHT rows of n distances and n int64 keys whatever n
    and the CPU count are.  Each block writes only its own output rows.
    Returns (indices (n, k), squared distances (n, k) in float64).
    """
    # imported here, not at module top: the closed-form subcommands build
    # no graph and would pay its import on every start
    from concurrent.futures import ThreadPoolExecutor

    n = patches.shape[0]
    sq = (patches * patches).sum(axis=1)
    idx_out = np.empty((n, k), dtype=np.int64)
    d2_out = np.empty((n, k))
    starts = range(0, n, _KNN_BLOCK_ROWS)
    workers = min(_cpu_count(), _KNN_ROWS_IN_FLIGHT // _KNN_BLOCK_ROWS, len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # the blocks release the GIL in numpy; iterating the results
        # re-raises the first block that failed
        for _ in pool.map(
            lambda lo: _knn_block(patches, sq, k, lo, idx_out, d2_out), starts
        ):
            pass
    return idx_out, d2_out


def patch_graph(img, config=None):
    """kNN patch graph of an image with Gaussian weights.

    Distances are in intensity units (samples / maxval).  sigma is the
    median distance to the k-th neighbor when bandwidth is "auto"; a zero
    median (constant image) is an error.  The directed kNN
    lists are symmetrized by union, both directions sharing one weight.
    The construction is deterministic.
    """
    config = config or PatchGraphConfig()
    n = img.width * img.height
    if config.k_neighbors >= n:
        raise ValueError("k_neighbors must be smaller than the pixel count")
    check_patch_work(n, config.patch_size)
    patches = _patch_matrix(img, config.patch_size)
    nbr_idx, nbr_d2 = _knn_exact(patches, config.k_neighbors)
    # exact squared sample distances to intensity units, one rounding each
    nbr_d2 /= img.maxval * img.maxval
    if config.bandwidth == "auto":
        sigma = float(np.median(np.sqrt(nbr_d2[:, -1])))
        if sigma == 0.0:
            raise ValueError(
                "zero bandwidth: k-th neighbor distances are all zero "
                "(constant image?); set an explicit bandwidth"
            )
    else:
        sigma = float(config.bandwidth)
    src = np.repeat(np.arange(n, dtype=np.int64), config.k_neighbors)
    dst = nbr_idx.ravel()
    d2 = nbr_d2.ravel()
    uu = np.minimum(src, dst)
    vv = np.maximum(src, dst)
    key = uu * n + vv
    order = np.argsort(key, kind="stable")
    key, uu, vv, d2 = key[order], uu[order], vv[order], d2[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    weights = np.exp(-d2[first] / (sigma * sigma))
    return Graph(n=n, u=uu[first], v=vv[first], w=weights)


def parse_obj(text):
    """Mesh from a Wavefront OBJ subset: v and f records, fan triangulation."""
    vertices = []
    faces = []
    ignored = 0
    top, top_line = 0, 0  # largest face index and its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            if len(fields) < 4:
                raise ValueError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                vertices.append(tuple(float(x) for x in fields[1:4]))
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex coordinate") from None
        elif tag == "f":
            if len(fields) < 4:
                raise ValueError(f"line {lineno}: face needs at least 3 vertices")
            idx = []
            for field in fields[1:]:
                head = field.split("/", 1)[0]
                try:
                    k = int(head)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad face index {field!r}") from None
                if k < 1:
                    raise ValueError(f"line {lineno}: face index must be >= 1")
                if k > top:
                    top, top_line = k, lineno
                idx.append(k - 1)
            for t in range(1, len(idx) - 1):
                faces.append((idx[0], idx[t], idx[t + 1]))
        else:
            ignored += 1
    if ignored:
        warnings.warn(f"ignored {ignored} non-v/f OBJ records", stacklevel=2)
    if not vertices:
        raise ValueError("OBJ has no vertices")
    # checked as a Python int: a huge index would overflow int64
    if top > len(vertices):
        raise ValueError(
            f"line {top_line}: face index {top} exceeds the vertex count {len(vertices)}"
        )
    mesh = Mesh(
        vertices=np.array(vertices, dtype=np.float64),
        faces=np.array(faces, dtype=np.int64).reshape(-1, 3),
    )
    return mesh


def mesh_graph(mesh):
    """Unit-weight graph of the unique undirected mesh edges."""
    f = mesh.faces
    if f.size == 0:
        raise ValueError("mesh has no faces, so no edges")
    pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [0, 2]]])
    uu = pairs.min(axis=1).astype(np.int64)
    vv = pairs.max(axis=1).astype(np.int64)
    n = len(mesh.vertices)
    key = np.unique(uu * n + vv)
    return Graph(n=n, u=key // n, v=key % n, w=np.ones(key.size))


LAPLACIAN_KINDS = ("combinatorial", "sym-normalized")


def laplacian(graph, kind="combinatorial"):
    """Graph Laplacian as a sparse symmetric operator.

    combinatorial: D - W.  sym-normalized: I - D^{-1/2} W D^{-1/2}, which
    rejects isolated vertices.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown laplacian kind {kind!r}")
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    deg = graph.degrees()
    n = graph.n
    idx = np.arange(n)
    if kind == "combinatorial":
        vals = np.concatenate([deg, -graph.w])
    else:
        if (deg == 0).any():
            raise ValueError("normalized laplacian undefined for isolated vertices")
        inv_sqrt = 1.0 / np.sqrt(deg)
        vals = np.concatenate(
            [np.ones(n), -graph.w * inv_sqrt[graph.u] * inv_sqrt[graph.v]]
        )
    rows = np.concatenate([idx, graph.u])
    cols = np.concatenate([idx, graph.v])
    return SymOperator.from_triplets(n, rows, cols, vals)


def _score_component(graph, n_terms, kind, seed):
    lap = laplacian(graph, kind)
    want = min(n_terms + 1, graph.n)
    # the iterative solver needs want < n; all n modes take the full dense solve
    if graph.n <= DENSE_FALLBACK_N or want == graph.n:
        report = dense_sym_eig(lap.densified(), m=want)
    else:
        report = lanczos_smallest(lap, want, tol=1e-10, seed=seed)
    if not report.converged:
        raise RuntimeError(
            f"eigensolver did not converge on a component of size {graph.n}"
        )
    # numerically zero modes (a Laplacian's constants) score nothing: the
    # ascending values below 1e-9 times the largest one are dropped
    values, vectors = report.values, report.vectors
    first = int(np.count_nonzero(values < 1e-9 * values.max(initial=0.0)))
    use = min(n_terms, values.size - first)
    if use < n_terms:
        warnings.warn(
            f"component of size {graph.n} supplied only {use} nontrivial modes "
            f"(wanted {n_terms})",
            stacklevel=3,
        )
    if use == 0:
        return np.zeros(graph.n)
    return compute_score_field(values[first:], vectors[:, first:], use)


def score_graph(graph, n_terms, kind="sym-normalized", seed=0):
    """Score every vertex from the smallest nontrivial Laplacian eigenpairs.

    Returns one float per vertex.  Disconnected graphs are scored per
    component (warning emitted), each component contributing its own
    nontrivial modes.  Components too small to carry any nontrivial mode
    score zero.  WorkCapError, before any
    solve, when the largest component's wanted pairs x size exceeds
    MAX_GRAPH_SOLVE_WORK.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    labels, n_comp = graph.components()
    sizes = np.bincount(labels, minlength=n_comp)
    largest = int(sizes.max(initial=0))
    want = min(n_terms + 1, largest)
    if want * largest > MAX_GRAPH_SOLVE_WORK:
        raise WorkCapError(
            f"wanted pairs x component size = {want} x {largest} "
            f"exceeds {MAX_GRAPH_SOLVE_WORK}"
        )
    values = np.zeros(graph.n)
    if n_comp > 1:
        warnings.warn(
            f"graph is disconnected ({n_comp} components); scoring per component",
            stacklevel=2,
        )
    # one stable sort groups the vertices by component, ascending within each;
    # a vertex's rank in its group is its label in the component's subgraph
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    local = np.empty(graph.n, dtype=np.int64)
    local[order] = np.arange(graph.n) - np.repeat(ends - sizes, sizes)
    # edges grouped the same way keep their (u, v)-sorted order in each group
    edge_comp = labels[graph.u]
    edge_order = np.argsort(edge_comp, kind="stable")
    edge_bounds = np.cumsum(np.bincount(edge_comp, minlength=n_comp))[:-1]
    for vertices, edges in zip(
        np.split(order, ends[:-1]), np.split(edge_order, edge_bounds)
    ):
        if vertices.size < 2:
            warnings.warn(
                f"component of size {vertices.size} has no nontrivial modes; scored 0",
                stacklevel=2,
            )
            continue
        sub = Graph(
            n=vertices.size,
            u=local[graph.u[edges]],
            v=local[graph.v[edges]],
            w=graph.w[edges],
        )
        values[vertices] = _score_component(sub, n_terms, kind, seed)
    return values


# rows per write, which keeps the text of a huge field out of memory
_CSV_BLOCK_ROWS = 1 << 16


def write_score_csv(values, path):
    """Write "index,score" lines, scores at 17 significant digits."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "wb") as fh:
        for lo in range(0, len(values), _CSV_BLOCK_ROWS):
            # values first, then rows: faster than one f-string per row
            texts = [f"{val:.17g}" for val in values[lo : lo + _CSV_BLOCK_ROWS].tolist()]
            fh.write("".join(f"{i},{text}\n" for i, text in enumerate(texts, lo)).encode())


def write_class_csv(path, values, classes):
    """Write "index,value" lines for a field of few distinct values.

    Row i holds values[classes[i]] at 17 significant digits, the bytes
    write_score_csv writes for that field.  Each block of rows is assembled
    as one byte matrix: the index digits right-aligned, then the comma,
    value and newline of the row's class from a small table.  NUL pads
    both sides and is dropped on the way out.
    """
    values = np.asarray(values, dtype=np.float64)
    encoded = [f",{val:.17g}\n".encode() for val in values.tolist()]
    table = np.zeros((len(encoded), max(map(len, encoded))), dtype=np.uint8)
    for row, data in enumerate(encoded):
        table[row, : len(data)] = np.frombuffer(data, dtype=np.uint8)
    classes = np.asarray(classes)
    with open(path, "wb") as fh:
        for lo in range(0, classes.size, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, classes.size)
            n_digits = len(str(hi - 1))
            block = np.empty((hi - lo, n_digits + table.shape[1]), dtype=np.uint8)
            for col in range(n_digits):
                power = 10 ** (n_digits - 1 - col)
                # index // power is a step function: one run of rows per quotient
                quotients = np.arange(lo // power, (hi - 1) // power + 2)
                runs = np.diff(np.clip(quotients * power, lo, hi))
                quotients = quotients[:-1]
                # a leading zero is padding; the units digit of 0 is not
                digits = np.where((quotients > 0) | (power == 1), quotients % 10 + ord("0"), 0)
                block[:, col] = np.repeat(digits, runs)
            block[:, n_digits:] = table[classes[lo:hi]]
            fh.write(block[block != 0].tobytes())


def write_heatmap_pgm(values, width, height, path):
    """Write the field min-max normalized as a binary 8-bit PGM.

    A constant field maps to mid-gray 128.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size != width * height:
        raise ValueError("field size does not match width * height")
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.floor((values - lo) / (hi - lo) * 255.0 + 0.5).astype(np.uint8)
    else:
        scaled = np.full(values.size, 128, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(scaled.tobytes())
