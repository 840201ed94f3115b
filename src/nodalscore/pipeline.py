"""Graphs from files and images, Laplacians, and the end-to-end score.

Images turn into patch graphs: one vertex per pixel, an 8x8 mirror-padded
patch of integer samples per vertex, exact k-nearest-neighbor search over
all patch pairs with integer distances, Gaussian edge weights
exp(-d^2 / sigma^2), union symmetrization.  Meshes and edge lists map
straight to weighted graphs.  score_graph ties it together: Laplacian,
smallest nontrivial eigenpairs, score field.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import InputRefused, compute_score_field
from .eigensolve import DENSE_FALLBACK_N, dense_sym_eig, lanczos_smallest

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

# the refusal of bandwidth="auto" when the median k-th neighbor distance
# is zero; a constant image is refused with it before the kNN runs
_ZERO_BANDWIDTH = (
    "zero bandwidth: k-th neighbor distances are all zero "
    "(constant image?); set an explicit bandwidth"
)

# a PGM token, or a '#' comment running to the end of its line
_PGM_TOKEN = re.compile(rb"#[^\n\r]*|[^\s#]+")

# rows of one exact kNN block, fixed so that the scratch never depends on
# the machine, the rows of the key matrix held at once by all the blocks in
# flight, and the columns of one strip a block is ranked over, fixed so
# that the scratch never depends on the image size
_KNN_BLOCK_ROWS = 64
_KNN_ROWS_IN_FLIGHT = 256
_KNN_STRIP_COLS = 2048


class WorkCapError(InputRefused):
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


def _read_rows(lines, dtype, **options):
    """lines converted by numpy's C text reader, or None where it refuses them.

    '#' starts a comment and empty lines are skipped.  The reader refuses a
    field it cannot convert, an integer past int64, a row of another width
    and a text with no rows; its warnings count as refusals and are never
    shown.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, comments="#", **options)
        except (ValueError, OverflowError, Warning):
            return None


def _edge_graph(a, b, w):
    """Graph of the rows (a, b, w) in file order, or the first faulty row.

    a and b are int64 ids in 0..MAX_VERTICES-1, w float64 weights.  A
    fault is returned as (row, message); within a row the checks run in
    the order: self-loop, weight, conflicting repeat.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # a stable sort keeps each pair's rows in file order; the first row that
    # differs from the row before it differs from the pair's first weight too
    key = lo * MAX_VERTICES + hi
    order = np.argsort(key, kind="stable")
    key, ws = key[order], w[order]
    repeat = key[1:] == key[:-1]
    conflict = np.zeros(key.size, dtype=bool)
    conflict[order[1:]] = repeat & (ws[1:] != ws[:-1])
    # a check takes over only at a strictly earlier row, so a row with
    # several faults reports the first in this order
    faults = (
        (a == b, lambda i: f"self-loop at vertex {a[i]}"),
        (~(np.isfinite(w) & (w > 0)), lambda i: "weight must be positive and finite"),
        (conflict, lambda i: f"edge ({lo[i]}, {hi[i]}) repeated with conflicting weight"),
    )
    stop, error = a.size, None
    for fault, message in faults:
        hits = np.flatnonzero(fault[:stop])
        if hits.size:
            stop, error = int(hits[0]), message(hits[0])
    if error is not None:
        return stop, error
    keep = order[np.r_[True, ~repeat]]
    return Graph(n=int(hi[keep].max()) + 1, u=lo[keep], v=hi[keep], w=w[keep])


# the rows numpy's C reader converts for parse_edge_list, tried in turn
_EDGE_ROWS = (
    np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
    np.dtype([("u", np.int64), ("v", np.int64)]),
)


def parse_edge_list(text):
    """Graph from "u,v[,w]" lines; '#' starts a comment, blanks skipped.

    Repeated pairs must agree on the weight; self-loops, non-positive
    weights and indices of MAX_VERTICES or more are rejected.  Vertex count
    is max index + 1.  Fields follow Python's int and float rules.  An
    error names the first faulty line; within a line the checks run in the
    order: field count, malformed field, negative index, index too large,
    self-loop, weight, conflicting repeat.

    An ASCII text of all "u,v,w" or all "u,v" rows is converted by numpy's
    C reader; any other text, and any text with a faulty row, is parsed
    line by line, with the same result, warnings and messages.
    """
    # numpy's integer reader takes some non-ASCII letters for digits
    # (U+01FE reads as 462), so only ASCII text goes to it
    columns = _edge_columns(text) if text.isascii() else None
    if columns is not None:
        a, b, w = columns
        if min(a.min(), b.min()) >= 0 and max(a.max(), b.max()) < MAX_VERTICES:
            graph = _edge_graph(a, b, w)
            if isinstance(graph, Graph):
                return graph
    return _parse_edge_lines(text)


def _edge_columns(text):
    """Ids and weights of an all-"u,v,w" or all-"u,v" text from numpy's C
    reader, or None where it refuses both."""
    for dtype in _EDGE_ROWS:
        rows = _read_rows(text.splitlines(), dtype, delimiter=",", ndmin=1)
        if rows is not None:
            w = rows["w"] if "w" in dtype.names else np.ones(rows.size)
            return rows["u"], rows["v"], w
    return None


def _parse_edge_lines(text):
    """parse_edge_list line by line: any text, faulty lines named."""
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
    # rebound, so the Python numbers are freed before the checks run
    a = np.array(a[:stop], dtype=np.int64)
    b = np.array(b[:stop], dtype=np.int64)
    w = np.array(w[:stop], dtype=np.float64)
    graph = _edge_graph(a, b, w) if stop else None
    if isinstance(graph, tuple):
        stop, error = graph
    if error is not None:
        lineno = [i for i, line in enumerate(content, start=1) if line][stop]
        raise ValueError(f"line {lineno}: {error}")
    return graph


def _pgm_tokens(data, start, limit):
    """Up to limit tokens of data[start:], '#' comments stripped, each with the offset after it."""
    words = (m for m in _PGM_TOKEN.finditer(data, start) if m[0][:1] != b"#")
    return [(m[0], m.end()) for m in itertools.islice(words, limit)]


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
    """float32 when its 24-bit significand holds every patch product.

    A patch of integer samples 0..maxval has |a|^2 and a.b at most
    P = patch^2 maxval^2, so every partial sum of the kNN product is an
    integer of at most P: exact in float32 below 2^24 (patch <= 16 at 8
    bits, maxval <= 4095 at patch 1), and otherwise in float64, whose
    2^53 the work caps keep out of reach.
    """
    return np.float32 if patch_size**2 * maxval**2 < 1 << 24 else np.float64


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


def _knn_block(patches, col_key, sq, k, lo, prod, key, idx_out, d2_out):
    """Fill rows lo..lo+_KNN_BLOCK_ROWS-1 of idx_out and d2_out (see _knn_exact).

    The block's columns are ranked one strip of _KNN_STRIP_COLS at a time.
    prod and key are flat scratch of _KNN_BLOCK_ROWS x min(n,
    _KNN_STRIP_COLS) entries, in the patch type and in int64, whose
    leading entries each strip views as contiguous rows x width arrays
    (into a strided view of wider rows the conversion below took about
    30% longer and the add about twice as long).  Each strip's k smallest
    keys join the k smallest of the strips before it, and a partition of
    the 2k keeps k; a strip narrower than k joins whole.
    """
    n = patches.shape[0]
    hi = min(lo + _KNN_BLOCK_ROWS, n)
    best = np.empty((hi - lo, 2 * k), dtype=np.int64)
    kept = 0  # leading columns of best holding the k smallest keys so far
    for c0 in range(0, n, _KNN_STRIP_COLS):
        c1 = min(c0 + _KNN_STRIP_COLS, n)
        size = (hi - lo) * (c1 - c0)
        strip_prod = prod[:size].reshape(hi - lo, c1 - c0)
        strip_key = key[:size].reshape(hi - lo, c1 - c0)
        np.matmul(patches[lo:hi], patches[c0:c1].T, out=strip_prod)
        # c_j - 2n a.b in int64; the integer-valued product converts exactly
        np.multiply(strip_prod, -2 * n, out=strip_key, dtype=np.int64, casting="unsafe")
        strip_key += col_key[c0:c1]
        own = np.arange(max(lo, c0), min(hi, c1))
        strip_key[own - lo, own - c0] = np.iinfo(np.int64).max
        take = min(k, c1 - c0)
        if take < c1 - c0:
            strip_key.partition(k - 1, axis=1)
        best[:, kept : kept + take] = strip_key[:, :take]
        kept += take
        if kept > k:
            best[:, :kept].partition(k - 1, axis=1)
            kept = k
    sel = best[:, :k]
    sel.sort(axis=1)
    idx_out[lo:hi] = sel % n
    d2_out[lo:hi] = sel // n + sq[lo:hi, None]


def _knn_exact(patches, k):
    """k nearest rows per row (self excluded), ties broken by smaller index.

    patches holds integers, in float32 or float64 (see _patch_dtype).  Row
    i ranks every other row j by the int64 key c_j - 2n (a_i . b_j), with
    c_j = n |b_j|^2 + j formed once per call and a_i . b_j read straight
    from the product.  The key is n d2 + j less the row constant
    n |a_i|^2, so it ranks by squared distance d2, then by index, and no
    two keys of a row are equal.  Every step is exact: a.b and |b|^2 are
    integers of at most P = patch^2 maxval^2, so each partial sum of the
    product is exact in the patch type (see _patch_dtype) and converts to
    int64 exactly; 2n (a.b) is below 2^54 and every key has
    |key| < 2^53, because n patch^2 <= MAX_PATCH_WORK, far inside int64.
    So equal distances are true ties, the k smallest keys of a row are
    the k smallest of any split of its columns into strips, and the bytes
    do not depend on the BLAS, the block or strip shape or the thread
    count.  The k selected keys split exactly into j = key mod n and
    d2 = key // n + |a_i|^2.
    Exact O(n^2) scan in blocks of _KNN_BLOCK_ROWS rows, each ranked over
    strips of _KNN_STRIP_COLS columns (see _knn_block), run on a thread
    pool with one worker per CPU but at most
    _KNN_ROWS_IN_FLIGHT // _KNN_BLOCK_ROWS.  Worker w takes every
    workers-th block from block w on, into its own product and key
    buffer of _KNN_BLOCK_ROWS x min(n, _KNN_STRIP_COLS) entries, allocated
    by the calling thread before the pool starts; so the scratch is at
    most 64 x 2048 x 12 bytes = 1.5 MB per worker with float32 patches
    (2 MB with float64) whatever the image size, and a block allocates
    only its 64 x 2k merge buffer, never a rows x n array.  Each block
    writes only its own output rows.  Returns (indices (n, k), squared
    distances (n, k) in float64).
    """
    # imported here, not at module top: the closed-form subcommands build
    # no graph and would pay its import on every start
    from concurrent.futures import ThreadPoolExecutor

    n = patches.shape[0]
    sq = (patches * patches).sum(axis=1, dtype=np.float64).astype(np.int64)
    col_key = sq * n + np.arange(n)
    idx_out = np.empty((n, k), dtype=np.int64)
    d2_out = np.empty((n, k))
    starts = range(0, n, _KNN_BLOCK_ROWS)
    workers = min(_cpu_count(), _KNN_ROWS_IN_FLIGHT // _KNN_BLOCK_ROWS, len(starts))
    size = _KNN_BLOCK_ROWS * min(n, _KNN_STRIP_COLS)
    scratch = [
        (np.empty(size, dtype=patches.dtype), np.empty(size, dtype=np.int64))
        for _ in range(workers)
    ]

    def stripe(w):
        for lo in starts[w::workers]:
            _knn_block(patches, col_key, sq, k, lo, *scratch[w], idx_out, d2_out)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # the blocks release the GIL in numpy; iterating the results
        # re-raises the first worker that failed
        for _ in pool.map(stripe, range(workers)):
            pass
    return idx_out, d2_out


def patch_graph(img, config=None):
    """kNN patch graph of an image with Gaussian weights.

    Distances are in intensity units (samples / maxval).  sigma is the
    median distance to the k-th neighbor when bandwidth is "auto"; a zero
    median is an error, raised for a constant image before the kNN runs.
    The directed kNN lists are symmetrized by union, both directions
    sharing one weight.  The construction is deterministic.
    """
    config = config or PatchGraphConfig()
    n = img.width * img.height
    check_patch_work(n, config.patch_size)
    if config.k_neighbors >= n:
        raise InputRefused("k_neighbors must be smaller than the pixel count")
    patches = _patch_matrix(img, config.patch_size)
    if config.bandwidth == "auto" and img.samples.min() == img.samples.max():
        raise ValueError(_ZERO_BANDWIDTH)
    nbr_idx, nbr_d2 = _knn_exact(patches, config.k_neighbors)
    # exact squared sample distances to intensity units, one rounding each
    nbr_d2 /= img.maxval * img.maxval
    if config.bandwidth == "auto":
        sigma = float(np.median(np.sqrt(nbr_d2[:, -1])))
        if sigma == 0.0:
            raise ValueError(_ZERO_BANDWIDTH)
    else:
        sigma = float(config.bandwidth)
    src = np.repeat(np.arange(n, dtype=np.int64), config.k_neighbors)
    dst = nbr_idx.ravel()
    # both directions of a pair carry the same exact distance, so the
    # first of each pair gives its weight
    key, first = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst), return_index=True)
    weights = np.exp(-nbr_d2.ravel()[first] / (sigma * sigma))
    return Graph(n=n, u=key // n, v=key % n, w=weights)


# a face field's "/vt/vn" tail after its vertex index, up to whitespace or
# a comment; a field that starts with '/' keeps its first slash
_FACE_TAIL = re.compile(r"(?<=[^\s/])/[^\s#]*")
# an "f a b c" row for numpy's C reader
_FACE_ROWS = np.dtype([("tag", "U1"), ("index", np.int64, (3,))])


def parse_obj(text):
    """Mesh from a Wavefront OBJ subset: v and f records, fan triangulation.

    An ASCII text of "v x y z ..." and "f a b c" records (a field may be
    a/b/c, and a is the vertex) is converted by numpy's C reader; any other
    text, and any text with a faulty record, is parsed line by line, with
    the same result, warnings and messages.
    """
    lines = text.splitlines()
    records = _obj_columns(lines) if text.isascii() else None
    if records is None:
        records = _obj_lines(lines)
    vertices, faces, ignored, top, top_line = records
    if ignored:
        warnings.warn(f"ignored {ignored} non-v/f OBJ records", stacklevel=2)
    if not len(vertices):
        raise ValueError("OBJ has no vertices")
    # checked as a Python int: a huge index would overflow int64
    if top > len(vertices):
        raise ValueError(
            f"line {top_line}: face index {top} exceeds the vertex count {len(vertices)}"
        )
    return Mesh(vertices=vertices, faces=faces)


def _obj_columns(lines):
    """The records of parse_obj from numpy's C reader, or None where it
    refuses a record or a record fails a check."""
    vs, fs, rest = [], [], []
    by_tag = {"v ": vs, "f ": fs}
    for line in lines:
        by_tag.get(line[:2], rest).append(line)
    ignored = 0
    for raw in rest:
        line = raw.split("#", 1)[0].strip()
        if line:
            # "v\t..." or " f ..." is a record the reader is not given
            if line.split()[0] in ("v", "f"):
                return None
            ignored += 1
    vertices = np.empty((0, 3))
    if vs:
        vertices = _read_rows(vs, np.float64, usecols=(1, 2, 3), ndmin=2)
        if vertices is None or not np.isfinite(vertices).all():
            return None
    faces, top, top_line = np.empty((0, 3), dtype=np.int64), 0, 0
    if fs:
        joined = "\n".join(fs)
        if "/" in joined:
            fs = _FACE_TAIL.sub("", joined).split("\n")
        rows = _read_rows(fs, _FACE_ROWS, ndmin=1)
        if rows is None or rows["index"].min() < 1:
            return None
        faces = rows["index"] - 1
        # the first largest index, in file order, names the line
        first = int(np.argmax(faces))
        top = int(faces.flat[first]) + 1
        if top > len(vertices):
            top_line = [i for i, line in enumerate(lines, start=1) if line[:2] == "f "][first // 3]
    return vertices, faces, ignored, top, top_line


def _obj_lines(lines):
    """The records of parse_obj line by line: any text, faulty lines named."""
    vertices = []
    faces = []
    ignored = 0
    top, top_line = 0, 0  # largest face index and its line
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            if len(fields) < 4:
                raise ValueError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                coords = tuple(float(x) for x in fields[1:4])
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex coordinate") from None
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"line {lineno}: vertex coordinates must be finite")
            vertices.append(coords)
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
    return vertices, faces, ignored, top, top_line


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
    """Graph Laplacian as a canonical scipy CSR matrix with no stored zeros.

    combinatorial: D - W.  sym-normalized: I - D^{-1/2} W D^{-1/2}, with a
    zero row for an isolated vertex (the normed convention of
    scipy.sparse.csgraph.laplacian).  ValueError naming the first vertex
    whose degree, the sum of its weights, overflows to inf.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown laplacian kind {kind!r}")
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    # weights near the float64 maximum can sum to inf, which would zero a
    # sym-normalized row or put inf on a combinatorial diagonal
    with np.errstate(over="ignore"):
        deg = graph.degrees()
    if not np.isfinite(deg).all():
        vertex = int(np.flatnonzero(~np.isfinite(deg))[0])
        raise ValueError(f"vertex {vertex} has a non-finite degree (its edge weights overflow)")
    n = graph.n
    idx = np.arange(n)
    if kind == "combinatorial":
        diag, off = deg, -graph.w
    else:
        linked = deg > 0
        inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=linked)
        diag, off = linked.astype(np.float64), -graph.w * inv_sqrt[graph.u] * inv_sqrt[graph.v]
    # imported here, not at module top: scipy costs every interpreter start
    # about 0.3 s, and the closed-form subcommands build no graph
    import scipy.sparse as sp

    # both triangles at once; Graph's u < v keeps each position single
    lap = sp.coo_matrix(
        (
            np.concatenate([diag, off, off]),
            (np.concatenate([idx, graph.u, graph.v]), np.concatenate([idx, graph.v, graph.u])),
        ),
        shape=(n, n),
    ).tocsr()
    lap.eliminate_zeros()  # isolated vertices and underflowed weights store no zero
    return lap


def _dense_block(lap, lo, hi):
    """lap[lo:hi, lo:hi] as a dense array, read straight from the CSR arrays.

    lap stores no duplicate and no zero (laplacian's canonical CSR, and any
    row and column permutation of it), so each stored entry is one cell.
    """
    ptr = lap.indptr[lo : hi + 1]
    start, stop = ptr[0], ptr[-1]
    rows = np.repeat(np.arange(hi - lo), ptr[1:] - ptr[:-1])
    dense = np.zeros((hi - lo, hi - lo))
    dense[rows, lap.indices[start:stop] - lo] = lap.data[start:stop]
    return dense


def _score_component(block, n_terms, seed):
    """Score field of one connected component and its count of nontrivial modes.

    A dense array takes the dense solve, and a CSR block the iterative one.
    """
    n = block.shape[0]
    want = min(n_terms + 1, n)
    if isinstance(block, np.ndarray):
        report = dense_sym_eig(block, m=want)
    else:
        report = lanczos_smallest(block, want, seed=seed)
    values, vectors = report.require(f"a component of size {n}")
    # numerically zero modes (a Laplacian's constants) score nothing: the
    # ascending values below 1e-9 times the largest one are dropped
    first = int(np.count_nonzero(values < 1e-9 * values.max(initial=0.0)))
    use = min(n_terms, values.size - first)
    if use == 0:
        return np.zeros(n), 0
    return compute_score_field(values[first:], vectors[:, first:], use), use


def score_graph(graph, n_terms, kind="sym-normalized", seed=0):
    """Score every vertex from the smallest nontrivial Laplacian eigenpairs.

    Returns one float per vertex.  Disconnected graphs are scored per
    component (warning emitted): one Laplacian of the whole graph,
    permuted into component order, is solved block by block, each
    component contributing its own nontrivial modes.  A block of at most
    DENSE_FALLBACK_N vertices, or one solved for all its modes, is read
    into a dense array straight from the permuted CSR arrays and solved
    densely.  Components too small to carry any nontrivial mode score
    zero.  Each kind of per-component warning (size 1, fewer than n_terms
    nontrivial modes, degenerate eigenvalues) is emitted at most once per
    call, with a count when it concerns more than one component.
    WorkCapError, before any solve, when the largest component's wanted
    pairs x size exceeds MAX_GRAPH_SOLVE_WORK.
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
    # one warning for all of them: an edge list with a huge vertex id has
    # one isolated vertex per unused id below it
    isolated = int(np.count_nonzero(sizes < 2))
    if isolated:
        counted = "1 component has" if isolated == 1 else f"{isolated} components have"
        warnings.warn(f"{counted} size 1 and no nontrivial modes; scored 0", stacklevel=2)
    # one stable sort groups the vertices by component, ascending within each;
    # the Laplacian permuted by it is block diagonal, one block per component,
    # and each block is the component's own Laplacian entry for entry.  A
    # connected graph's order is the identity, and its Laplacian is not copied
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    lap = laplacian(graph, kind) if graph.n_edges else None
    if lap is not None and n_comp > 1:
        lap = lap[order][:, order]
    short = []  # (size, modes) of each component with fewer than n_terms modes
    # each warning of the component solves and score fields (degenerate
    # eigenvalues) is collected, and each text emitted once with its count
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
            if hi - lo < 2:
                continue
            # the iterative solver needs want < n; all n modes take the full dense solve
            if hi - lo <= max(DENSE_FALLBACK_N, n_terms + 1):
                block = _dense_block(lap, lo, hi)
            else:
                block = lap[lo:hi, lo:hi]
            values[order[lo:hi]], use = _score_component(block, n_terms, seed)
            if use < n_terms:
                short.append((hi - lo, use))
    if short:
        least, most = min(use for _, use in short), max(use for _, use in short)
        modes = least if least == most else f"{least} to {most}"
        what = f"component of size {short[0][0]}" if len(short) == 1 else f"{len(short)} components"
        warnings.warn(f"{what} supplied only {modes} nontrivial modes (wanted {n_terms})", stacklevel=2)
    for (category, text), count in Counter((w.category, str(w.message)) for w in caught).items():
        warnings.warn(text if count == 1 else f"{text} (in {count} components)", category, stacklevel=2)
    return values


# rows per write, which keeps the text of a huge field out of memory
_CSV_BLOCK_ROWS = 1 << 16
# "000".."999", the last three digits of the indices of one 1000-row tile
_DIGIT_TILE = np.frombuffer(b"".join(b"%03d" % i for i in range(1000)), np.uint8).reshape(1000, 3)


def write_score_csv(values, path):
    """Write "index,score" lines, scores at 17 significant digits."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "wb") as fh:
        for lo in range(0, len(values), _CSV_BLOCK_ROWS):
            block = values[lo : lo + _CSV_BLOCK_ROWS].tolist()
            # one % over the interleaved indices and values of the block
            cells = [None] * (2 * len(block))
            cells[0::2] = range(lo, lo + len(block))
            cells[1::2] = block
            fh.write((("%d,%.17g\n" * len(block)) % tuple(cells)).encode())


def write_class_csv(path, values, classes):
    """Write "index,value" lines for a field of few distinct values.

    Row i holds values[classes[i]] at 17 significant digits, the bytes
    write_score_csv writes for that field.  The rows are cut into runs at
    every power of ten and every _CSV_BLOCK_ROWS, so that all indices of
    a run have the same digit count d.  A run is assembled as records of
    d + width bytes over the 1000-row tiles that cover it: the last three
    index digits are one broadcast store of the constant "000".."999"
    tile, the higher digits one store per tile, and the comma, value and
    newline one np.take of the class's NUL-padded text.  A run whose rows
    all have texts of the full width is written as it stands; any other
    run drops its NUL padding with bytes.replace.  The bytes never depend
    on which path ran.
    """
    values = np.asarray(values, dtype=np.float64)
    encoded = [f",{val:.17g}\n".encode() for val in values.tolist()]
    width = max(map(len, encoded))
    texts = np.array(encoded, dtype=f"S{width}").view(f"V{width}")
    narrow = np.array([len(text) < width for text in encoded])
    classes = np.asarray(classes)
    n = classes.size
    cuts = sorted(
        {0, n, *range(_CSV_BLOCK_ROWS, n, _CSV_BLOCK_ROWS), *(10**d for d in range(1, len(str(n))))}
    )
    # a run starts up to 999 rows into its first tile and ends up to 999
    # rows before the end of its last one
    tile_rows = (min(n, _CSV_BLOCK_ROWS) + 1998) // 1000 * 1000
    buf = np.empty(tile_rows * (len(str(max(n - 1, 0))) + width), dtype=np.uint8)
    with open(path, "wb") as fh:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            d = len(str(hi - 1))
            low = min(d, 3)
            first = lo - lo % 1000
            tiles = -(-(hi - first) // 1000)
            # one record per row: the d index digits, then the class text
            fields = {
                "names": ["low", "text"],
                "formats": [f"V{low}", f"V{width}"],
                "offsets": [d - low, d],
            }
            if d > 3:
                fields["names"].append("high")
                fields["formats"].append(f"V{d - 3}")
                fields["offsets"].append(0)
            rows = buf[: tiles * 1000 * (d + width)].view(np.dtype(fields))
            # indices of fewer than 3 digits are below 100: the tile's last
            # d digits spell them in full
            tile = np.ascontiguousarray(_DIGIT_TILE[:, 3 - low :]).view(f"V{low}")
            rows["low"].reshape(tiles, 1000)[...] = tile[:, 0]
            if d > 3:
                thousands = np.arange(first // 1000, first // 1000 + tiles)[:, None]
                high = thousands // 10 ** np.arange(d - 4, -1, -1) % 10 + ord("0")
                rows["high"].reshape(tiles, 1000)[...] = high.astype(np.uint8).view(f"V{d - 3}")
            run = classes[lo:hi]
            np.take(texts, run, out=rows["text"][lo - first : hi - first])
            data = buf[(lo - first) * (d + width) : (hi - first) * (d + width)]
            if narrow.take(run).any():
                # memchr-driven: about twice as fast as bytes.translate here
                data = data.tobytes().replace(b"\0", b"")
            fh.write(data)


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
