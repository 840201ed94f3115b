"""Ingestion, patch graphs, Laplacians, end-to-end scoring, exporters."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodalscore import pipeline
from nodalscore.eigensolve import EigenSolveReport, dense_sym_eig
from nodalscore.paley import PaleyField, paley_score_closed_form
from nodalscore.pipeline import (
    MAX_GRAPH_SOLVE_WORK,
    MAX_PATCH_PIXELS,
    MAX_VERTICES,
    Graph,
    Image,
    Mesh,
    PatchGraphConfig,
    WorkCapError,
    check_patch_work,
    laplacian,
    mesh_graph,
    parse_edge_list,
    parse_obj,
    parse_pgm,
    patch_graph,
    score_graph,
    write_class_csv,
    write_heatmap_pgm,
    write_score_csv,
)


def make_anomaly_image(seed, size=64, block=8):
    """Clutter background with one flat bright block; returns image + anchor."""
    rng = np.random.default_rng(seed)
    img = 0.35 + 0.30 * rng.uniform(size=(size, size))
    r0, c0 = rng.integers(block, size - 2 * block + 1, 2)
    patch = 0.92 + 0.02 * rng.standard_normal((block, block))
    img[r0 : r0 + block, c0 : c0 + block] = patch
    samples = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return Image(width=size, height=size, samples=samples, maxval=255), (int(r0), int(c0))


# -------------------------------------------------------------------- Graph


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(n=3, u=[0], v=[0], w=[1.0])  # self-loop
    with pytest.raises(ValueError):
        Graph(n=3, u=[1], v=[0], w=[1.0])  # u >= v
    with pytest.raises(ValueError):
        Graph(n=3, u=[0], v=[3], w=[1.0])  # out of range
    with pytest.raises(ValueError):
        Graph(n=3, u=[0], v=[1], w=[-2.0])  # negative weight
    with pytest.raises(ValueError):
        Graph(n=3, u=[0, 0], v=[1, 1], w=[1.0, 1.0])  # duplicate


def test_graph_rejects_duplicates_in_unsorted_edges():
    # edges out of (u, v) order take the sorted check, wherever the copy is
    u, v = [1, 0, 2, 0], [2, 1, 3, 1]
    with pytest.raises(ValueError, match="duplicate edges"):
        Graph(n=4, u=u, v=v, w=np.ones(4))
    with pytest.raises(ValueError, match="duplicate edges"):
        Graph(n=4, u=[2, 0, 1, 2], v=[3, 1, 2, 3], w=np.ones(4))
    g = Graph(n=4, u=[2, 0, 1], v=[3, 1, 2], w=np.ones(3))
    assert g.n_edges == 3


def test_graph_components():
    g = Graph(n=5, u=[0, 3], v=[1, 4], w=[1.0, 1.0])
    labels, count = g.components()
    assert count == 3
    assert labels[0] == labels[1]
    assert labels[3] == labels[4]
    assert labels[2] not in (labels[0], labels[3])


# ----------------------------------------------------------- parse_edge_list


def _reference_parse_edge_list(text):
    """The per-line parser parse_edge_list replaced: the oracle for its
    result, its messages and which line it blames."""
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


def _assert_same_graph(got, expected):
    assert got.n == expected.n
    for name in ("u", "v", "w"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_edge_list_basic_path():
    g = parse_edge_list("0,1\n1,2\n")
    assert g.n == 3 and g.n_edges == 2
    assert np.allclose(g.w, 1.0)


def test_edge_list_duplicate_agreeing_weight():
    g = parse_edge_list("0,1,2.5\n1,0,2.5\n")
    assert g.n_edges == 1
    assert g.w[0] == 2.5


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# header\n\n0,1 # trailing\n2,3,0.5\n")
    assert g.n == 4 and g.n_edges == 2


def test_edge_list_errors_with_line_numbers():
    with pytest.raises(ValueError, match="line 1.*self-loop"):
        parse_edge_list("0,0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("0,1\n0,xyz\n")
    with pytest.raises(ValueError, match="conflicting"):
        parse_edge_list("0,1,1.0\n1,0,2.0\n")
    with pytest.raises(ValueError, match="positive"):
        parse_edge_list("0,1,0\n")
    with pytest.raises(ValueError, match="line 2.*exceeds"):
        parse_edge_list(f"0,1\n0,{MAX_VERTICES}\n")
    with pytest.raises(ValueError, match="exceeds"):
        parse_edge_list("100000000,0\n")
    with pytest.raises(ValueError):
        parse_edge_list("# nothing\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1\n-1,2\n0,x\n", "line 2: negative vertex index"),
        ("0,1,1\n1,2\n0,y\n1,0,2\n", "line 3: malformed edge '0,y'"),
        (f"3,3\n0,{2**70}\n", "line 1: self-loop at vertex 3"),
        (
            f"0,1\n0,{MAX_VERTICES}\n1,2,3,4\n",
            f"line 2: vertex index {MAX_VERTICES} exceeds {MAX_VERTICES - 1}",
        ),
        ("0,1,2\n1,0,nan\n", "line 2: weight must be positive and finite"),
        ("0,1,2\n5,5,-1\n1,0,1\n", "line 2: self-loop at vertex 5"),
    ],
)
def test_edge_list_first_faulty_line_wins(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_edge_list(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _reference_parse_edge_list(text)


def test_edge_list_matches_reference_on_a_large_file():
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 300, size=(2, 20000))
    a[a == b] += 1
    # pairs repeat often, each time with that pair's weight
    weight = 1.0 + (np.minimum(a, b) * 7 + np.maximum(a, b)) % 13 / 4
    rows = [f"{x}, {y},{z}\t" for x, y, z in zip(a, b, weight)]
    text = "# u,v,w\r\n" + "\r\n".join(rows)
    _assert_same_graph(parse_edge_list(text), _reference_parse_edge_list(text))
    rows[-1] = f"{b[0]},{a[0]},{weight[0] + 1}"  # the first row's pair, another weight
    pair = f"({min(a[0], b[0])}, {max(a[0], b[0])})"
    message = f"line {len(rows) + 1}: edge {pair} repeated with conflicting weight"
    for parse in (parse_edge_list, _reference_parse_edge_list):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse("# u,v,w\r\n" + "\r\n".join(rows))


# ----------------------------------------------------------------- parse_pgm


# 2^70: above int64, so these must be refused before any numpy conversion
_HUGE_SAMPLE_PGM = b"P2\n2 2\n255\n1 2 3 1180591620717411303424\n"
_HUGE_INDEX_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 1180591620717411303424\n"


def test_pgm_ascii_example():
    img = parse_pgm(b"P2\n2 2\n255\n0 255\n255 0\n")
    assert (img.width, img.height) == (2, 2)
    assert np.allclose(img.pixels, [0.0, 1.0, 1.0, 0.0])


def test_pgm_binary_matches_ascii():
    ascii_img = parse_pgm(b"P2\n2 2\n255\n0 255 255 0\n")
    binary_img = parse_pgm(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    assert np.array_equal(ascii_img.pixels, binary_img.pixels)


def test_pgm_header_comments():
    img = parse_pgm(b"P2 # magic\n# a comment line\n2 1 # dims\n4\n0 4\n")
    assert np.allclose(img.pixels, [0.0, 1.0])


def test_pgm_sixteen_bit_big_endian():
    img = parse_pgm(b"P5\n1 2\n65535\n" + (0).to_bytes(2, "big") + (65535).to_bytes(2, "big"))
    assert np.allclose(img.pixels, [0.0, 1.0])


def test_pgm_keeps_integer_samples():
    img = parse_pgm(b"P2\n3 1\n1000\n0 7 1000\n")
    assert img.maxval == 1000 and img.samples.dtype == np.uint16
    assert img.samples.tolist() == [0, 7, 1000]
    assert img.pixels.tolist() == [0.0, 7 / 1000, 1.0]
    binary = parse_pgm(b"P5\n2 1\n255\n" + bytes([3, 250]))
    assert binary.samples.dtype == np.uint8 and binary.samples.tolist() == [3, 250]


def test_image_refuses_samples_outside_0_to_maxval():
    with pytest.raises(ValueError, match="integers"):
        Image(width=2, height=1, samples=[0.0, 0.5], maxval=1)
    with pytest.raises(ValueError, match="0..maxval"):
        Image(width=2, height=1, samples=[0, 3], maxval=2)
    with pytest.raises(ValueError, match="0..maxval"):
        Image(width=2, height=1, samples=[-1, 0], maxval=2)
    with pytest.raises(ValueError, match="maxval"):
        Image(width=1, height=1, samples=[0], maxval=65536)


def test_pgm_errors():
    with pytest.raises(ValueError, match="magic"):
        parse_pgm(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="truncated"):
        parse_pgm(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(ValueError, match="maxval"):
        parse_pgm(b"P2\n1 1\n0\n0\n")
    with pytest.raises(ValueError, match="exceeds"):
        parse_pgm(b"P2\n1 1\n10\n11\n")
    with pytest.raises(ValueError, match="exceeds maxval"):
        parse_pgm(_HUGE_SAMPLE_PGM)
    with pytest.raises(ValueError, match="malformed PGM pixel data"):
        parse_pgm(b"P2\n2 2\n255\n1 2 3 x\n")
    with pytest.raises(ValueError, match="negative"):
        parse_pgm(b"P2\n2 1\n255\n1 -1180591620717411303424\n")


def test_pgm_pixel_cap_checked_from_header():
    # headers alone: the cap is refused before the missing pixels are noticed
    for magic in (b"P2", b"P5"):
        with pytest.raises(pipeline.WorkCapError, match="exceeds"):
            parse_pgm(magic + b"\n2048 2048\n255\n")
        with pytest.raises(pipeline.WorkCapError, match="exceeds"):
            parse_pgm(magic + f" {MAX_PATCH_PIXELS + 1} 1 255 ".encode())
    img = parse_pgm(f"P5 {MAX_PATCH_PIXELS} 1 255 ".encode() + bytes(MAX_PATCH_PIXELS))
    assert img.pixels.size == MAX_PATCH_PIXELS


# ---------------------------------------------------------------- patch_graph


def test_patch_graph_constant_image_zero_bandwidth():
    img = Image(width=10, height=10, samples=np.full(100, 1), maxval=2)
    with pytest.raises(ValueError, match="zero bandwidth"):
        patch_graph(img, PatchGraphConfig(k_neighbors=3))


def test_patch_graph_two_tone_pairs():
    # 2x2 checkerboard-free split: left column dark, right column bright;
    # with k=1 and patch 1 each pixel links to its same-tone vertical twin
    samples = np.array([[0, 1], [0, 1]])
    img = Image(width=2, height=2, samples=samples, maxval=1)
    g = patch_graph(img, PatchGraphConfig(patch_size=1, k_neighbors=1, bandwidth=1.0))
    edges = set(zip(g.u.tolist(), g.v.tolist()))
    assert edges == {(0, 2), (1, 3)}
    assert np.allclose(g.w, 1.0)  # identical patches, distance 0


def test_patch_graph_determinism():
    img, _ = make_anomaly_image(3, size=16, block=4)
    g1 = patch_graph(img, PatchGraphConfig(k_neighbors=4))
    g2 = patch_graph(img, PatchGraphConfig(k_neighbors=4))
    assert (g1.u == g2.u).all() and (g1.v == g2.v).all() and (g1.w == g2.w).all()


def test_patch_graph_rejects_oversized_k():
    img = Image(width=3, height=3, samples=np.arange(9), maxval=8)
    with pytest.raises(ValueError):
        patch_graph(img, PatchGraphConfig(patch_size=1, k_neighbors=9))


def test_patch_graph_anomaly_block_is_isolated_in_distance():
    """Block vertices sit farther from their neighbors than typical clutter."""
    img, (r0, c0) = make_anomaly_image(0)
    g = patch_graph(img, PatchGraphConfig())
    # mean edge weight per vertex: anomalous block should be lower (bigger
    # distances -> smaller Gaussian weights) than the background median
    weight_sum = np.zeros(g.n)
    degree = np.zeros(g.n)
    np.add.at(weight_sum, g.u, g.w)
    np.add.at(weight_sum, g.v, g.w)
    np.add.at(degree, g.u, 1.0)
    np.add.at(degree, g.v, 1.0)
    mean_w = weight_sum / np.maximum(degree, 1.0)
    rows, cols = np.divmod(np.arange(g.n), 64)
    interior = (
        (rows >= r0 + 2) & (rows < r0 + 6) & (cols >= c0 + 2) & (cols < c0 + 6)
    )
    assert np.median(mean_w[interior]) < np.median(mean_w[~interior])


_ROWS = pipeline._KNN_BLOCK_ROWS


def knn_oracle(patches, k):
    """Brute force in int64 on integer patches: every squared distance, then
    a full per-row lexsort((index, distance)).

    Returns the k nearest (indices, squared distances) and the (k+1)-th
    distance of each row (None when k = n - 1).
    """
    ints = np.asarray(patches).astype(np.int64)
    assert np.array_equal(ints, patches)  # integers only
    patches = ints
    n = patches.shape[0]
    sq = (patches * patches).sum(axis=1)
    index = np.arange(n)
    idx = np.empty((n, k), dtype=np.int64)
    d2 = np.empty((n, k), dtype=np.int64)
    nxt = np.empty(n, dtype=np.int64)
    for lo in range(0, n, 256):
        rows = index[lo : lo + 256]
        block = sq[rows, None] + sq[None, :] - 2 * (patches[rows] @ patches.T)
        block[rows - lo, rows] = np.iinfo(np.int64).max  # self last
        order = np.lexsort((np.broadcast_to(index, block.shape), block), axis=-1)
        ranked = np.take_along_axis(block, order[:, : k + 1], axis=1)
        idx[rows], d2[rows], nxt[rows] = order[:, :k], ranked[:, :k], ranked[:, -1]
    return idx, d2, (nxt if k < n - 1 else None)


def sample_patches(samples, patch_size):
    """Mirror-padded integer patches of a 2-D sample array, built in int64."""
    lo, hi = (patch_size - 1) // 2, patch_size // 2
    padded = np.pad(np.asarray(samples, dtype=np.int64), ((lo, hi), (lo, hi)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (patch_size, patch_size))
    return windows.reshape(samples.size, patch_size * patch_size)


def assert_knn_matches_oracle(result, ref):
    idx, d2 = result
    ref_idx, ref_d2, _ = ref
    assert d2.dtype == np.float64
    assert np.array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.astype(np.float64).tobytes()


@pytest.mark.parametrize(
    "height, width, patch_size, levels, k",
    [
        (7, 9, 1, 3, 5),  # one partial block, ties on every row
        (7, 9, 2, 2, 62),  # k = n - 1
        (1, _ROWS + 1, 1, 2, 16),  # one row in the second block
        (1, _ROWS + 1, 1, 3, _ROWS),  # one row in the second block and k = n - 1
        (5, 41, 2, 3, 16),  # n = 205, not a multiple of the block
        (1, 257, 1, 2, 16),  # n = 257: one row in the last block
        (1, 257, 1, 3, 256),  # n = 257 and k = n - 1
        (13, 37, 2, 3, 16),  # n = 481, not a multiple of the block
        (16, 32, 3, 2, 1),  # two full blocks, k = 1
        (16, 32, 3, 17, 24),  # many levels: ties at the k-th are rare
    ],
)
def test_knn_exact_matches_full_matrix_oracle(height, width, patch_size, levels, k):
    rng = np.random.default_rng(height * width + levels)
    samples = rng.integers(0, levels, (height, width))
    img = Image(width=width, height=height, samples=samples, maxval=levels - 1)
    patches = pipeline._patch_matrix(img, patch_size)
    ref = knn_oracle(sample_patches(samples, patch_size), k)
    assert_knn_matches_oracle(pipeline._knn_exact(patches, k), ref)


def _clutter(seed, size, levels):
    return np.random.default_rng(seed).integers(90, 90 + levels, (size, size))


def _flat_block(size, r0):
    samples = _clutter(0, size, 80)
    samples[r0 : r0 + 10, r0 : r0 + 10] = 235
    return samples


@pytest.mark.parametrize(
    "samples, patch_size, k",
    [
        (_flat_block(32, 11), 3, 8),  # many identical patches in the block
        (_flat_block(32, 0), 5, 16),  # a flat corner: mirror-padded twins
        (_clutter(1, 32, 3), 8, 16),  # 3 levels: most k-th distances tied
        (_clutter(1, 32, 8), 5, 16),
        (make_anomaly_image(1)[0].samples.reshape(64, 64), 8, 16),
        (np.full((24, 24), 128), 3, 16),  # every distance 0: rank by index alone
    ],
    ids=["flat-block", "flat-corner", "3-levels", "8-levels", "anomaly-64", "flat-24"],
)
def test_knn_exact_breaks_exact_ties_by_index(samples, patch_size, k):
    # 8-bit samples scaled to [0, 1] are not dyadic, so a float distance of
    # intensities rounds and can split an exact tie by a last bit; the
    # integer distances cannot
    height, width = samples.shape
    img = Image(width=width, height=height, samples=samples.astype(np.uint8), maxval=255)
    ref = knn_oracle(sample_patches(samples, patch_size), k)
    _, ref_d2, nxt = ref
    assert (ref_d2[:, -1] == nxt).any()  # some k-th distances are tied
    patches = pipeline._patch_matrix(img, patch_size)
    assert_knn_matches_oracle(pipeline._knn_exact(patches, k), ref)


def test_patch_dtype_is_float32_inside_its_exact_range():
    # float32 holds every integer below 2^24, and 2 patch^2 maxval^2 bounds
    # every partial sum of a distance
    assert pipeline._patch_dtype(11, 255) is np.float32
    assert pipeline._patch_dtype(12, 255) is np.float64
    assert pipeline._patch_dtype(1, 2896) is np.float32  # 2 * 2896^2 < 2^24
    assert pipeline._patch_dtype(1, 2897) is np.float64
    assert pipeline._patch_dtype(1, 65535) is np.float64
    img, _ = make_anomaly_image(0, size=16, block=4)
    assert pipeline._patch_matrix(img, 8).dtype == np.float32


@pytest.mark.parametrize(
    "patch_size, maxval",
    [(11, 255), (12, 255), (3, 65535)],
    ids=["patch-11-8bit", "patch-12-8bit", "patch-3-16bit"],
)
def test_knn_exact_float32_and_float64_on_both_sides_of_the_bound(patch_size, maxval):
    # samples maxval - 1 and maxval put every norm at the top of its range,
    # and an odd count of maxval samples in a pair makes |a|^2 + |b|^2 odd
    rng = np.random.default_rng(patch_size)
    samples = maxval - rng.integers(0, 2, (24, 24))
    img = Image(width=24, height=24, samples=samples, maxval=maxval)
    patches = pipeline._patch_matrix(img, patch_size)
    ref = knn_oracle(sample_patches(samples, patch_size), 16)
    as32, as64 = (pipeline._knn_exact(patches.astype(t), 16) for t in (np.float32, np.float64))
    assert_knn_matches_oracle(as64, ref)
    same = all(a.tobytes() == b.tobytes() for a, b in zip(as32, as64))
    # inside the bound float32 is exact; past it an odd sum above 2^24
    # rounds, so float32 is wrong there and the patches are float64
    assert same == (patches.dtype == np.float32)


def test_float64_distances_are_exact_at_every_accepted_patch_size():
    # an image must be wider and taller than half a patch, so the smallest
    # image a patch size accepts has (patch // 2 + 1)^2 pixels
    accepted = []
    for patch_size in range(1, math.isqrt(pipeline.MAX_PATCH_WORK) + 1):
        try:
            check_patch_work((patch_size // 2 + 1) ** 2, patch_size)
        except WorkCapError:
            continue
        accepted.append(patch_size)
    largest = max(accepted)
    assert 2 * largest**2 * 65535**2 < 2**53
    # the selection key d2 * n + j: d2 <= patch^2 maxval^2 and j < n
    assert pipeline.MAX_PATCH_WORK * 65535**2 + MAX_PATCH_PIXELS < 2**53
    assert pipeline._patch_dtype(largest, 65535) is np.float64


def test_knn_exact_scratch_is_bounded():
    import tracemalloc

    img, _ = make_anomaly_image(0)
    patches = pipeline._patch_matrix(img, 8)
    tracemalloc.start()
    try:
        pipeline._knn_exact(patches, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"kNN peaked at {peak / 2**20:.1f} MB"


_FLAT_128 = """
import time
import numpy as np
from nodalscore.pipeline import Image, PatchGraphConfig, patch_graph
img = Image(width=128, height=128, samples=np.full(128 * 128, 7), maxval=255)
start = time.perf_counter()
patch_graph(img, PatchGraphConfig(patch_size=8, k_neighbors=16, bandwidth=1.0))
print(time.perf_counter() - start)
"""


def test_patch_graph_on_a_flat_image_is_not_slow():
    # every distance ties on a flat image; ranking each tied row over all n
    # distances took 6-12 s, one partition of keys 1.3-1.4 s (2 vCPUs).
    # One BLAS thread, as the benchmark runs: more BLAS threads compete with
    # the kNN workers and made the same call take 2.1-2.7 s
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _FLAT_128], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 3.0


def record_pool_sizes(monkeypatch):
    """Worker counts of the thread pools started from now on."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


def test_knn_exact_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    # the distances are exact, so no block shape or worker count can move
    # a last bit; 4 workers is more than most test machines have cores,
    # and a short switch interval interleaves the workers' Python steps
    img, _ = make_anomaly_image(5, size=40, block=6)
    patches = pipeline._patch_matrix(img, 5)
    sizes = record_pool_sizes(monkeypatch)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(pipeline, "_cpu_count", lambda: workers)
            idx, d2 = pipeline._knn_exact(patches, 16)
            results.append((idx.tobytes(), d2.tobytes()))
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [1, 2, 3, 4]
    assert all(result == results[0] for result in results[1:])


def test_knn_exact_workers_keep_the_rows_in_flight(monkeypatch):
    sizes = record_pool_sizes(monkeypatch)
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 64)
    img, _ = make_anomaly_image(0, size=40, block=6)
    pipeline._knn_exact(pipeline._patch_matrix(img, 3), 4)
    pipeline._knn_exact(pipeline._patch_matrix(img, 3)[: _ROWS + 1], 4)
    assert sizes[0] * _ROWS <= pipeline._KNN_ROWS_IN_FLIGHT
    assert sizes[1] == 2  # no more workers than blocks


def test_knn_exact_raises_the_error_of_a_failed_block(monkeypatch):
    block = pipeline._knn_block

    def fail_second(patches, sq, k, lo, idx_out, d2_out):
        if lo == _ROWS:
            raise MemoryError("second block")
        block(patches, sq, k, lo, idx_out, d2_out)

    monkeypatch.setattr(pipeline, "_knn_block", fail_second)
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
    img, _ = make_anomaly_image(0, size=24, block=4)
    with pytest.raises(MemoryError, match="second block"):
        pipeline._knn_exact(pipeline._patch_matrix(img, 3), 4)


def test_patch_graph_work_caps_checked_before_patches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a patch matrix above the cap")

    monkeypatch.setattr(pipeline, "_patch_matrix", refuse)
    wide = Image(
        width=MAX_PATCH_PIXELS + 1, height=1, samples=np.zeros(MAX_PATCH_PIXELS + 1, int), maxval=1
    )
    with pytest.raises(ValueError, match="exceeds"):
        patch_graph(wide, PatchGraphConfig(patch_size=1))
    square = Image(width=64, height=64, samples=np.zeros(4096, int), maxval=1)
    with pytest.raises(ValueError, match="exceeds"):
        patch_graph(square, PatchGraphConfig(patch_size=23))
    check_patch_work(MAX_PATCH_PIXELS, 8)  # both caps met exactly
    check_patch_work(4096, 22)


# ------------------------------------------------------------ OBJ and meshes


def test_obj_single_triangle():
    mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    g = mesh_graph(mesh)
    assert g.n == 3 and g.n_edges == 3  # K3


def test_obj_quad_fan_triangulation():
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    g = mesh_graph(parse_obj(text))
    assert g.n_edges == 5  # 4 boundary + 1 diagonal


def test_obj_tetrahedron_is_k4():
    text = (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\n"
    )
    g = mesh_graph(parse_obj(text))
    assert g.n == 4 and g.n_edges == 6


def test_obj_slash_indices_and_ignored_records():
    text = "vn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
    with pytest.warns(UserWarning, match="ignored 1"):
        mesh = parse_obj(text)
    assert mesh.faces.shape == (1, 3)


def test_obj_errors():
    with pytest.raises(ValueError, match="face index"):
        parse_obj("v 0 0 0\nf 1 2 3\n")  # above the vertex count
    with pytest.raises(ValueError, match="line 4: face index 1180591620717411303424"):
        parse_obj(_HUGE_INDEX_OBJ)
    with pytest.raises(ValueError, match="at least 3"):
        parse_obj("v 0 0 0\nv 1 0 0\nf 1 2\n")
    with pytest.raises(ValueError):
        parse_obj("f 1 2 3\n")  # no vertices


# ------------------------------------------------------------ parser fuzzing

# numbers around every bound the parsers check, from negative to past int64
_NUMBERS = st.one_of(
    st.integers(-3, 300),
    st.sampled_from([65535, 65536, MAX_VERTICES - 1, MAX_VERTICES, 2**63, 2**70]),
    st.integers(-(2**80), 2**80),
).map(str)
_JUNK = st.sampled_from(
    ["", "x", "-0", "+1", "1_0", "0x10", "1e3", "nan", "inf", "-1.5", "5e-324", "#", "1/2/3", "\u0663"]
)
_FIELDS = st.one_of(_NUMBERS, _JUNK)


# "\x1f" is whitespace to str.strip but not to int and float; "\x1c" and
# "\u2028" end a line for str.splitlines
_PAD = st.sampled_from(["", "", " ", "\t", " \t", "\x1f", "\xa0"])
_PADDED = st.tuples(_PAD, _FIELDS, _PAD).map("".join)
_TAILS = st.sampled_from(["", "", ",", " ,", " # note", "#,1", "\t# 0,1,2"])
_BREAKS = st.sampled_from(["\n", "\r\n", "\x1c", "\u2028"])
# small ids, so pairs repeat, with weights that agree or conflict
_PAIRS = st.tuples(
    st.integers(0, 3).map(str),
    st.integers(0, 3).map(str),
    st.sampled_from(["", "1", "1.0", " 2", "0.5"]),
).map(lambda t: ",".join(t if t[2] else t[:2]))


def _lines(heads, sep, *more_lines):
    """Texts of up to 8 lines, each a head and fields joined by sep, or one
    drawn from more_lines."""
    line = st.tuples(heads, st.lists(_PADDED, max_size=5), _TAILS).map(
        lambda t: (sep.join([t[0], *t[1]]) if t[0] else sep.join(t[1])) + t[2]
    )
    return st.tuples(st.lists(st.one_of(line, *more_lines), max_size=8), _BREAKS).map(
        lambda t: t[1].join(t[0])
    )


def _returns_or_value_error(parse, data, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = parse(data)
        except ValueError:
            return
    assert isinstance(result, kind)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=40),
        st.tuples(
            st.sampled_from([b"P2", b"P5", b"P2\n", b"P5 ", b"P6", b""]),
            st.lists(_FIELDS, max_size=10).map(" ".join),
            st.binary(max_size=24),
        ).map(lambda t: t[0] + t[1].encode() + t[2]),
    )
)
@example(_HUGE_SAMPLE_PGM)
@example(b"P2\n2 2\n255\n1 2 3 x\n")
@example(b"P5 2 1 65535\n\xff\xff\x00")
def test_parse_pgm_fuzz(data):
    _returns_or_value_error(parse_pgm, data, Image)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _lines(st.sampled_from(["v", "f", "vn", "#", ""]), " ")))
@example(_HUGE_INDEX_OBJ)
@example("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -1180591620717411303424\n")
def test_parse_obj_fuzz(text):
    _returns_or_value_error(parse_obj, text, Mesh)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=40), _lines(st.just(""), ",", _PAIRS)))
@example("0,1180591620717411303424\n")
@example("0,1,1e999\n")
@example("0,\x1f1\n")
@example("0,1,1\n1,0,1.0\r\n0,1,2\n")
def test_parse_edge_list_fuzz(text):
    # same graph, bit for bit, or the same error on the same line
    try:
        expected = _reference_parse_edge_list(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_edge_list(text)
        assert str(raised.value) == str(exc)
        return
    graph = parse_edge_list(text)
    assert isinstance(graph, Graph)
    _assert_same_graph(graph, expected)


def test_mesh_graph_isometry_invariance():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 2 3 4\n"
    mesh = parse_obj(text)
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = Mesh(vertices=mesh.vertices @ q.T + 5.0, faces=mesh.faces)
    g1, g2 = mesh_graph(mesh), mesh_graph(rotated)
    assert (g1.u == g2.u).all() and (g1.v == g2.v).all()


# ------------------------------------------------------------------ laplacian


def test_laplacian_k2_matrices():
    g = Graph(n=2, u=[0], v=[1], w=[1.0])
    comb = laplacian(g, "combinatorial").to_dense()
    assert np.allclose(comb, [[1.0, -1.0], [-1.0, 1.0]])
    sym = laplacian(g, "sym-normalized").to_dense()
    vals = np.sort(np.linalg.eigvalsh(sym))
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


def test_laplacian_smallest_eigenvalue_zero():
    rng = np.random.default_rng(12)
    for kind in ("combinatorial", "sym-normalized"):
        # random connected graph: a path plus chords
        n = 20
        u = list(range(n - 1))
        v = list(range(1, n))
        for _ in range(10):
            a, b = rng.integers(0, n, 2)
            if a != b and (min(a, b), max(a, b)) not in set(zip(u, v)):
                u.append(min(a, b))
                v.append(max(a, b))
        g = Graph(n=n, u=np.array(u), v=np.array(v), w=np.ones(len(u)))
        lap = laplacian(g, kind)
        vals = np.linalg.eigvalsh(lap.to_dense())
        assert abs(vals[0]) <= 1e-9
        assert vals.min() >= -1e-9  # PSD


def test_laplacian_guards():
    g = Graph(n=2, u=[0], v=[1], w=[1.0])
    with pytest.raises(ValueError):
        laplacian(g, "fancy")
    isolated = Graph(n=3, u=[0], v=[1], w=[1.0])
    with pytest.raises(ValueError, match="isolated"):
        laplacian(isolated, "sym-normalized")
    with pytest.raises(ValueError, match="no edges"):
        laplacian(Graph(n=2, u=[], v=[], w=[]), "combinatorial")


# ----------------------------------------------------------------- score_graph


def test_score_path_p3_hand_values():
    """P3 combinatorial, N = 1: lambda = 1, phi = (1, 0, -1) gives (1, 0, 1)."""
    g = Graph(n=3, u=[0, 1], v=[1, 2], w=[1.0, 1.0])
    field = score_graph(g, 1, kind="combinatorial")
    assert np.allclose(field, [1.0, 0.0, 1.0], atol=1e-10)


def test_score_permutation_equivariance():
    # random weights keep the spectrum simple, so the pointwise score is
    # basis-unambiguous and must commute with vertex relabeling
    rng = np.random.default_rng(33)
    n = 12
    u = list(range(n - 1))
    v = list(range(1, n))
    for _ in range(6):
        a, b = rng.integers(0, n, 2)
        if a != b and (min(a, b), max(a, b)) not in set(zip(u, v)):
            u.append(min(a, b))
            v.append(max(a, b))
    u, v = np.array(u), np.array(v)
    w = rng.uniform(0.5, 2.0, u.size)
    g = Graph(n=n, u=u, v=v, w=w)
    perm = rng.permutation(n)
    pu, pv = perm[u], perm[v]
    order = np.argsort(np.minimum(pu, pv) * n + np.maximum(pu, pv))
    g2 = Graph(
        n=n,
        u=np.minimum(pu, pv)[order],
        v=np.maximum(pu, pv)[order],
        w=w[order],
    )
    f1 = score_graph(g, 3, kind="combinatorial")
    f2 = score_graph(g2, 3, kind="combinatorial")
    assert np.abs(f2[perm] - f1).max() <= 1e-9


def test_score_disconnected_graph_per_component():
    # two triangles, disjoint
    g = Graph(
        n=6,
        u=[0, 0, 1, 3, 3, 4],
        v=[1, 2, 2, 4, 5, 5],
        w=np.ones(6),
    )
    with pytest.warns(UserWarning, match="disconnected"):
        field = score_graph(g, 1, kind="combinatorial")
    assert (field >= 0.0).all()
    # the two components are isometric, so their score vectors agree
    assert np.abs(field[:3] - field[3:]).max() <= 1e-9


def test_score_many_components_each_as_if_alone():
    """Each component's values equal scoring it as its own graph."""
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 25, 60)
    n = int(sizes.sum())
    ids = rng.permutation(n)  # the components' vertex ids interleave
    comps, edges = [], {}
    at = 0
    for size in sizes:
        verts = np.sort(ids[at : at + size])
        at += size
        comps.append(verts)
        for i in range(1, size):  # a random tree plus a few chords
            edges[(verts[rng.integers(i)], verts[i])] = rng.uniform(0.5, 2.0)
        for _ in range(size // 3):
            a, b = np.sort(rng.choice(size, 2, replace=False))
            edges[(verts[a], verts[b])] = rng.uniform(0.5, 2.0)
    keys = sorted(edges)
    g = Graph(
        n=n,
        u=[k[0] for k in keys],
        v=[k[1] for k in keys],
        w=[edges[k] for k in keys],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = score_graph(g, 3)
        for verts in comps:
            if verts.size < 2:
                assert (field[verts] == 0.0).all()
                continue
            rank = {int(x): i for i, x in enumerate(verts)}
            own = [k for k in keys if k[0] in rank]
            alone = Graph(
                n=verts.size,
                u=[rank[int(k[0])] for k in own],
                v=[rank[int(k[1])] for k in own],
                w=[edges[k] for k in own],
            )
            vals = pipeline._score_component(alone, 3, "sym-normalized", 0)
            assert np.array_equal(field[verts], vals)


def test_score_isolated_vertex_scores_zero():
    g = Graph(n=3, u=[0], v=[1], w=[1.0])
    with pytest.warns(UserWarning):
        field = score_graph(g, 1, kind="combinatorial")
    assert field[2] == 0.0


@pytest.mark.parametrize("n", [300, 2048], ids=["dense", "iterative"])
def test_score_graph_scale_law_on_weighted_path(n):
    # every weight times c scales every eigenvalue by c and the score by
    # c^{-1/2}; the iterative solver failed below c = 1e-3 while its scale
    # had a floor of 1, and the degeneracy test grouped every mode into
    # one false cluster at small weights while its tolerance had one
    u = np.arange(n - 1)

    def scores(weight):
        graph = Graph(n=n, u=u, v=u + 1, w=np.full(n - 1, weight))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = score_graph(graph, 7, kind="combinatorial")
        assert not [w for w in caught if "degenerate eigenvalues" in str(w.message)], weight
        return values

    assert (n > pipeline.DENSE_FALLBACK_N) == (n == 2048)
    base = scores(1.0)
    for c in (1e-8, 1e-4, 1e4):
        assert np.abs(scores(c) * math.sqrt(c) - base).max() <= 1e-9 * base.max(), c


def test_score_graph_rejects_bad_n_terms():
    g = Graph(n=2, u=[0], v=[1], w=[1.0])
    with pytest.raises(ValueError):
        score_graph(g, 0)


def unconverged(*args, **kwargs):
    return EigenSolveReport(
        values=np.empty(0), vectors=np.empty((0, 0)), residuals=np.empty(0),
        iterations=0, converged=False,
    )


@pytest.mark.parametrize(
    "solver, n", [("dense_sym_eig", 6), ("lanczos_smallest", 600)]
)
def test_score_graph_stops_on_non_converged_solve(monkeypatch, solver, n):
    monkeypatch.setattr(pipeline, solver, unconverged)
    path = Graph(n=n, u=np.arange(n - 1), v=np.arange(1, n), w=np.ones(n - 1))
    with pytest.raises(RuntimeError, match="did not converge"):
        score_graph(path, 2, kind="combinatorial")


class SolveReached(Exception):
    pass


def test_score_graph_work_cap_checked_before_any_solve(monkeypatch):
    def reached(*args, **kwargs):
        raise SolveReached

    monkeypatch.setattr(pipeline, "dense_sym_eig", reached)
    monkeypatch.setattr(pipeline, "lanczos_smallest", reached)
    n = 2048
    at_cap = MAX_GRAPH_SOLVE_WORK // n - 1  # n_terms + 1 pairs x n = the cap
    u = np.arange(n - 1)
    path = Graph(n=n, u=u, v=u + 1, w=np.ones(n - 1))
    with pytest.raises(SolveReached):
        score_graph(path, at_cap)
    with pytest.raises(WorkCapError, match="exceeds"):
        score_graph(path, at_cap + 1)
    # the largest component decides, not the vertex total: two such paths
    # side by side stay at the cap
    two = Graph(
        n=2 * n,
        u=np.concatenate([u, u + n]),
        v=np.concatenate([u + 1, u + n + 1]),
        w=np.ones(2 * n - 2),
    )
    with pytest.warns(UserWarning, match="disconnected"), pytest.raises(SolveReached):
        score_graph(two, at_cap)
    # all the modes of one component: n^2 is the work
    side = math.isqrt(MAX_GRAPH_SOLVE_WORK)
    for size, exc in ((side, SolveReached), (side + 1, WorkCapError)):
        u = np.arange(size - 1)
        with pytest.raises(exc):
            score_graph(Graph(n=size, u=u, v=u + 1, w=np.ones(size - 1)), size - 1)


# -------------------------------------------------------------------- writers


def test_csv_roundtrip_exact(tmp_path):
    values = np.array([0.0, 1.0 / 3.0, 2.718281828459045])
    path = tmp_path / "scores.csv"
    write_score_csv(values, path)
    lines = path.read_bytes().decode().strip().splitlines()
    assert len(lines) == 3
    parsed = np.array([float(line.split(",")[1]) for line in lines])
    assert (parsed == values).all()  # 17 significant digits round-trip


@pytest.mark.parametrize("block_rows", [7, pipeline._CSV_BLOCK_ROWS])
def test_csv_bytes_match_per_row_format(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(pipeline, "_CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(4)
    values = np.concatenate([
        rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1],
        rng.choice([0.0, -0.0, 1.0 / 3.0, -2.5], 300),
    ])
    path = tmp_path / "scores.csv"
    write_score_csv(values, path)
    want = b"".join(f"{i},{val:.17g}\n".encode() for i, val in enumerate(values))
    assert path.read_bytes() == want
    write_score_csv(np.array([]), path)
    assert path.read_bytes() == b""


def _per_row_class_csv(path, values, classes):
    """Reference for write_class_csv: one f-string per row."""
    with open(path, "wb") as fh:
        for lo in range(0, len(classes), pipeline._CSV_BLOCK_ROWS):
            rows = classes[lo : lo + pipeline._CSV_BLOCK_ROWS].tolist()
            fh.write("".join(f"{i},{values[c]:.17g}\n" for i, c in enumerate(rows, lo)).encode())


# every change in the index's digit count up to 5, and past one 65536-row block
@pytest.mark.parametrize("p", [5, 13, 101, 1009, 10009, 65537])
def test_class_csv_matches_per_row_writer_on_paley_fields(tmp_path, p):
    score = paley_score_closed_form(p)
    values = [s.real for s in (score.s_zero, score.s_residue, score.s_nonresidue)]
    classes = np.where(PaleyField(p).residue_mask(), np.int8(1), np.int8(2))
    classes[0] = 0
    write_class_csv(tmp_path / "got.csv", values, classes)
    _per_row_class_csv(tmp_path / "want.csv", values, classes)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("block_rows", [7, 100, pipeline._CSV_BLOCK_ROWS])
def test_class_csv_matches_per_row_writer_on_any_values(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(pipeline, "_CSV_BLOCK_ROWS", block_rows)
    values = [0.0, -0.0, np.inf, np.nan, 5e-324, -1.2345678901234567e-05, 1.7976931348623157e308]
    for n in (0, 1, 10, 11, 1000, 1001):
        classes = np.random.default_rng(n).integers(0, len(values), n)
        write_class_csv(tmp_path / "got.csv", values, classes)
        _per_row_class_csv(tmp_path / "want.csv", values, classes)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), n
        write_score_csv(np.array(values)[classes], tmp_path / "score.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "score.csv").read_bytes(), n


def test_heatmap_pgm_extremes(tmp_path):
    path = tmp_path / "map.pgm"
    write_heatmap_pgm(np.array([0.0, 1.0]), 2, 1, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 1\n255\n")
    assert data[-2:] == bytes([0, 255])


def test_heatmap_pgm_constant_field(tmp_path):
    path = tmp_path / "flat.pgm"
    write_heatmap_pgm(np.full(4, 7.0), 2, 2, path)
    assert path.read_bytes()[-4:] == bytes([128] * 4)


def test_heatmap_pgm_size_guard(tmp_path):
    with pytest.raises(ValueError):
        write_heatmap_pgm(np.zeros(3), 2, 2, tmp_path / "bad.pgm")


def test_writers_accept_score_fields(tmp_path):
    # a score field is a float array; a list of numbers converts to one
    write_score_csv([1, 2.0], tmp_path / "f.csv")
    write_heatmap_pgm([1, 2.0], 2, 1, tmp_path / "f.pgm")
    assert (tmp_path / "f.csv").read_bytes() == b"0,1\n1,2\n"
    assert (tmp_path / "f.pgm").read_bytes()[-2:] == bytes([0, 255])
