"""Graphs from files and images, Laplacians, and the end-to-end score.

Images turn into patch graphs: one vertex per pixel, an 8x8 mirror-padded
patch per vertex, exact k-nearest-neighbor search over all patch pairs,
Gaussian edge weights exp(-d^2 / sigma^2), union symmetrization.  Meshes
and edge lists map straight to weighted graphs.  score_graph ties it
together: Laplacian, smallest nontrivial eigenpairs, score field.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    EigenPair,
    ScoreConfig,
    ScoreField,
    SpectralBasis,
    compute_score_field,
    group_degenerate,
    rotation_averaged_score,
)
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
    "GraphLaplacian",
    "parse_edge_list",
    "parse_pgm",
    "parse_obj",
    "patch_graph",
    "mesh_graph",
    "laplacian",
    "score_graph",
    "write_score_csv",
    "write_heatmap_pgm",
    "MAX_VERTICES",
]

# edge lists name vertices 0..MAX_VERTICES-1; the vertex count is max id + 1,
# so one huge id would otherwise allocate per-vertex storage for all below it
MAX_VERTICES = 1 << 20


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
            key = self.u * self.n + self.v
            if np.unique(key).size != key.size:
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
        # imported here, not at module top: csgraph costs every run about
        # 2 MB and 25 ms of start-up, and most subcommands build no graph
        from scipy.sparse.csgraph import connected_components

        adj = sp.csr_matrix(
            (np.ones(self.n_edges), (self.u, self.v)), shape=(self.n, self.n)
        )
        count, labels = connected_components(adj, directed=False)
        return labels.astype(np.int64), int(count)


@dataclass
class Image:
    """Grayscale image, intensities in [0, 1], row-major."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64).ravel()
        if self.width < 1 or self.height < 1:
            raise ValueError("empty image")
        if self.pixels.size != self.width * self.height:
            raise ValueError("pixel count does not match dimensions")
        if self.pixels.min() < 0.0 or self.pixels.max() > 1.0:
            raise ValueError("intensities must lie in [0, 1]")

    def as_2d(self):
        return self.pixels.reshape(self.height, self.width)


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
    padding: str = "mirror"

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError("patch_size must be >= 1")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.padding != "mirror":
            raise ValueError("only mirror padding is supported")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError("bandwidth must be 'auto' or a positive number")
        elif self.bandwidth <= 0:
            raise ValueError("bandwidth must be 'auto' or a positive number")


def parse_edge_list(text):
    """Graph from "u,v[,w]" lines; '#' starts a comment, blanks skipped.

    Repeated pairs must agree on the weight; self-loops, non-positive
    weights and indices of MAX_VERTICES or more are rejected.  Vertex count
    is max index + 1.
    """
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u,v' or 'u,v,w'")
        try:
            a, b = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: malformed edge {line!r}") from None
        if a < 0 or b < 0:
            raise ValueError(f"line {lineno}: negative vertex index")
        if max(a, b) >= MAX_VERTICES:
            raise ValueError(
                f"line {lineno}: vertex index {max(a, b)} exceeds {MAX_VERTICES - 1}"
            )
        if a == b:
            raise ValueError(f"line {lineno}: self-loop at vertex {a}")
        if not np.isfinite(w) or w <= 0:
            raise ValueError(f"line {lineno}: weight must be positive and finite")
        key = (min(a, b), max(a, b))
        if key in seen and seen[key] != w:
            raise ValueError(
                f"line {lineno}: edge {key} repeated with conflicting weight"
            )
        seen[key] = w
    if not seen:
        raise ValueError("edge list is empty")
    edges = sorted(seen.items())
    u = np.array([e[0][0] for e in edges], dtype=np.int64)
    v = np.array([e[0][1] for e in edges], dtype=np.int64)
    w = np.array([e[1] for e in edges])
    return Graph(n=int(v.max()) + 1, u=u, v=v, w=w)


def _pgm_tokens(data):
    """Header tokens with '#' comments stripped, plus the byte offset after each."""
    tokens = []
    i = 0
    while i < len(data):
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
    """Image from PGM bytes, ASCII (P2) or binary (P5), maxval <= 65535."""
    if not isinstance(data, (bytes, bytearray)):
        raise ValueError("parse_pgm expects bytes")
    tokens = _pgm_tokens(data[:2] + b" " + data[2:]) if data[:2] in (b"P2", b"P5") else []
    if not tokens:
        raise ValueError("not a PGM file (expected P2 or P5 magic)")
    magic = tokens[0][0]
    header = tokens[1:4]
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
    if magic == b"P2":
        body = tokens[4:]
        if len(body) < count:
            raise ValueError("truncated PGM pixel data")
        vals = np.array([int(t[0]) for t in body[:count]], dtype=np.int64)
        if vals.min(initial=0) < 0:
            raise ValueError("negative PGM sample")
    else:
        # payload starts one whitespace byte past the maxval token; the
        # spliced byte after the magic cancels against that offset
        offset = header[2][1]
        nbytes = count * (2 if maxval > 255 else 1)
        payload = data[offset : offset + nbytes]
        if len(payload) < nbytes:
            raise ValueError("truncated PGM pixel data")
        dtype = ">u2" if maxval > 255 else np.uint8
        vals = np.frombuffer(payload, dtype=dtype).astype(np.int64)
    if vals.max(initial=0) > maxval:
        raise ValueError("PGM sample exceeds maxval")
    return Image(width=width, height=height, pixels=vals / maxval)


def _patch_matrix(img, patch_size):
    """All mirror-padded patches, one row per pixel, anchored at the center."""
    lo = (patch_size - 1) // 2
    hi = patch_size // 2
    arr = img.as_2d()
    if min(arr.shape) <= max(lo, hi):
        raise ValueError("image too small for the patch size")
    padded = np.pad(arr, ((lo, hi), (lo, hi)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (patch_size, patch_size))
    return windows.reshape(img.height * img.width, patch_size * patch_size).copy()


def _knn_exact(patches, k):
    """k nearest rows per row (self excluded), ties broken by smaller index.

    Exact O(n^2) scan, chunked so the distance buffer stays bounded.
    Returns (indices (n, k), squared distances (n, k)).
    """
    n = patches.shape[0]
    sq = (patches * patches).sum(axis=1)
    idx_out = np.empty((n, k), dtype=np.int64)
    d2_out = np.empty((n, k))
    chunk = max(1, (1 << 24) // max(1, n))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (patches[lo:hi] @ patches.T)
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(lo, hi)
        d2[rows - lo, rows] = np.inf
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        part_d = np.take_along_axis(d2, part, axis=1)
        kth = part_d.max(axis=1)
        for r in range(hi - lo):
            cand = np.flatnonzero(d2[r] <= kth[r])
            if cand.size > k:
                order = np.lexsort((cand, d2[r, cand]))
                cand = cand[order[:k]]
            else:
                cand = cand[np.lexsort((cand, d2[r, cand]))]
            idx_out[lo + r] = cand
            d2_out[lo + r] = d2[r, cand]
    return idx_out, d2_out


def patch_graph(img, config=None, seed=0):
    """kNN patch graph of an image with Gaussian weights.

    sigma is the median distance to the k-th neighbor when bandwidth is
    "auto"; a zero median (constant image) is an error.  The directed kNN
    lists are symmetrized by union, both directions sharing one weight.
    The construction is deterministic; seed is accepted for interface
    symmetry with the other pipelines.
    """
    config = config or PatchGraphConfig()
    n = img.width * img.height
    if config.k_neighbors >= n:
        raise ValueError("k_neighbors must be smaller than the pixel count")
    patches = _patch_matrix(img, config.patch_size)
    nbr_idx, nbr_d2 = _knn_exact(patches, config.k_neighbors)
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
                idx.append(k - 1)
            for t in range(1, len(idx) - 1):
                faces.append((idx[0], idx[t], idx[t + 1]))
        else:
            ignored += 1
    if ignored:
        warnings.warn(f"ignored {ignored} non-v/f OBJ records", stacklevel=2)
    if not vertices:
        raise ValueError("OBJ has no vertices")
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


@dataclass
class GraphLaplacian:
    """Laplacian operator plus the rescale vector for the random-walk kind."""

    op: SymOperator
    kind: str
    rescale: np.ndarray | None = None


LAPLACIAN_KINDS = ("combinatorial", "sym-normalized", "random-walk-compatible")


def laplacian(graph, kind="combinatorial"):
    """Graph Laplacian as a sparse symmetric operator.

    combinatorial: D - W.  sym-normalized: I - D^{-1/2} W D^{-1/2}.
    random-walk-compatible: the sym-normalized operator plus the D^{-1/2}
    vector that turns its eigenvectors into random-walk ones (same
    eigenvalues).  Normalized kinds reject isolated vertices.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown laplacian kind {kind!r}")
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    deg = graph.degrees()
    n = graph.n
    idx = np.arange(n)
    if kind == "combinatorial":
        rows = np.concatenate([idx, graph.u])
        cols = np.concatenate([idx, graph.v])
        vals = np.concatenate([deg, -graph.w])
        return GraphLaplacian(
            op=SymOperator.from_triplets(n, rows, cols, vals), kind=kind
        )
    if (deg == 0).any():
        raise ValueError("normalized laplacian undefined for isolated vertices")
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows = np.concatenate([idx, graph.u])
    cols = np.concatenate([idx, graph.v])
    vals = np.concatenate(
        [np.ones(n), -graph.w * inv_sqrt[graph.u] * inv_sqrt[graph.v]]
    )
    op = SymOperator.from_triplets(n, rows, cols, vals)
    rescale = inv_sqrt if kind == "random-walk-compatible" else None
    return GraphLaplacian(op=op, kind=kind, rescale=rescale)


def _subgraph(graph, vertices):
    """Induced subgraph with vertices relabeled 0..len-1 in given order."""
    lookup = -np.ones(graph.n, dtype=np.int64)
    lookup[vertices] = np.arange(len(vertices))
    keep = (lookup[graph.u] >= 0) & (lookup[graph.v] >= 0)
    return Graph(
        n=len(vertices),
        u=lookup[graph.u[keep]],
        v=lookup[graph.v[keep]],
        w=graph.w[keep],
    )


def _score_component(graph, n_terms, kind, policy, trials, seed, drop_tolerance, rel_tol):
    lap = laplacian(graph, kind)
    want = min(n_terms + 1, graph.n)
    if graph.n <= DENSE_FALLBACK_N:
        report = dense_sym_eig(lap.op.densified())
    else:
        report = lanczos_smallest(lap.op, want, tol=1e-10, seed=seed)
    if not report.converged:
        raise RuntimeError(
            f"eigensolver did not converge on a component of size {graph.n}"
        )
    pairs = report.pairs[:want]
    if lap.rescale is not None:
        pairs = [EigenPair(p.value, p.vector * lap.rescale) for p in pairs]
    basis = SpectralBasis.build(
        pairs, domain_tag=f"graph n={graph.n}", drop_tolerance=drop_tolerance
    )
    use = min(n_terms, basis.n_pairs)
    if use < n_terms:
        warnings.warn(
            f"component of size {graph.n} supplied only {use} nontrivial modes "
            f"(wanted {n_terms})",
            stacklevel=3,
        )
    if use == 0:
        return np.zeros(graph.n), ""
    config = ScoreConfig(
        n_terms=use,
        degenerate_policy=policy,
        trials=trials,
        seed=seed if policy == "rotation-average" else None,
    )
    if policy == "rotation-average":
        field = rotation_averaged_score(basis, group_degenerate(basis, rel_tol), config)
    else:
        field = compute_score_field(basis, config)
    return field.values, field.basis_hash


def score_graph(graph, n_terms, kind="sym-normalized", degenerate_policy="as-given",
                trials=64, seed=0, drop_tolerance=None, rel_tol=1e-8):
    """Score every vertex from the smallest nontrivial Laplacian eigenpairs.

    Disconnected graphs are scored per component (warning emitted), each
    component contributing its own nontrivial modes.  Components too small
    to carry any nontrivial mode score zero.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    labels, n_comp = graph.components()
    values = np.zeros(graph.n)
    hashes = []
    if n_comp > 1:
        warnings.warn(
            f"graph is disconnected ({n_comp} components); scoring per component",
            stacklevel=2,
        )
    # one stable sort groups the vertices by component, ascending within each
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=n_comp))[:-1]
    for vertices in np.split(order, bounds):
        if vertices.size < 2:
            warnings.warn(
                f"component of size {vertices.size} has no nontrivial modes; scored 0",
                stacklevel=2,
            )
            continue
        sub = _subgraph(graph, vertices)
        vals, digest = _score_component(
            sub, n_terms, kind, degenerate_policy, trials, seed, drop_tolerance, rel_tol
        )
        values[vertices] = vals
        hashes.append(digest)
    config = ScoreConfig(
        n_terms=n_terms,
        degenerate_policy=degenerate_policy,
        trials=trials,
        seed=seed if degenerate_policy == "rotation-average" else None,
    )
    digest = hashlib.sha256("|".join(hashes).encode()).hexdigest()[:16]
    return ScoreField(values, config, digest)


def _field_values(field):
    return field.values if isinstance(field, ScoreField) else np.asarray(field, dtype=np.float64)


def write_score_csv(field, path):
    """Write "index,score" lines, scores at 17 significant digits."""
    values = _field_values(field)
    with open(path, "wb") as fh:
        for i, val in enumerate(values):
            fh.write(f"{i},{val:.17g}\n".encode())


def write_heatmap_pgm(field, width, height, path):
    """Write the field min-max normalized as a binary 8-bit PGM.

    A constant field maps to mid-gray 128.
    """
    values = _field_values(field)
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
