"""Ingestion, patch graphs, Laplacians, end-to-end scoring, exporters."""

import warnings

import numpy as np
import pytest

from nodalscore import pipeline
from nodalscore.core import ScoreField, ScoreConfig
from nodalscore.eigensolve import EigenSolveReport, dense_sym_eig
from nodalscore.pipeline import (
    MAX_VERTICES,
    Graph,
    Image,
    Mesh,
    PatchGraphConfig,
    laplacian,
    mesh_graph,
    parse_edge_list,
    parse_obj,
    parse_pgm,
    patch_graph,
    score_graph,
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
    img = np.clip(img, 0.0, 1.0)
    img = np.floor(img * 255.0 + 0.5) / 255.0
    return Image(width=size, height=size, pixels=img.ravel()), (int(r0), int(c0))


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


def test_graph_components():
    g = Graph(n=5, u=[0, 3], v=[1, 4], w=[1.0, 1.0])
    labels, count = g.components()
    assert count == 3
    assert labels[0] == labels[1]
    assert labels[3] == labels[4]
    assert labels[2] not in (labels[0], labels[3])


# ----------------------------------------------------------- parse_edge_list


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


# ----------------------------------------------------------------- parse_pgm


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


def test_pgm_errors():
    with pytest.raises(ValueError, match="magic"):
        parse_pgm(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="truncated"):
        parse_pgm(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(ValueError, match="maxval"):
        parse_pgm(b"P2\n1 1\n0\n0\n")
    with pytest.raises(ValueError, match="exceeds"):
        parse_pgm(b"P2\n1 1\n10\n11\n")


# ---------------------------------------------------------------- patch_graph


def test_patch_graph_constant_image_zero_bandwidth():
    img = Image(width=10, height=10, pixels=np.full(100, 0.5))
    with pytest.raises(ValueError, match="zero bandwidth"):
        patch_graph(img, PatchGraphConfig(k_neighbors=3))


def test_patch_graph_two_tone_pairs():
    # 2x2 checkerboard-free split: left column dark, right column bright;
    # with k=1 and patch 1 each pixel links to its same-tone vertical twin
    pixels = np.array([[0.0, 1.0], [0.0, 1.0]])
    img = Image(width=2, height=2, pixels=pixels.ravel())
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
    img = Image(width=3, height=3, pixels=np.linspace(0, 1, 9))
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
        parse_obj("v 0 0 0\nf 1 2 3\n")  # out of range at Mesh construction
    with pytest.raises(ValueError, match="at least 3"):
        parse_obj("v 0 0 0\nv 1 0 0\nf 1 2\n")
    with pytest.raises(ValueError):
        parse_obj("f 1 2 3\n")  # no vertices


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
    comb = laplacian(g, "combinatorial").op.to_dense()
    assert np.allclose(comb, [[1.0, -1.0], [-1.0, 1.0]])
    sym = laplacian(g, "sym-normalized").op.to_dense()
    vals = np.sort(np.linalg.eigvalsh(sym))
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


def test_laplacian_smallest_eigenvalue_zero():
    rng = np.random.default_rng(12)
    for kind in ("combinatorial", "sym-normalized", "random-walk-compatible"):
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
        vals = np.linalg.eigvalsh(lap.op.to_dense())
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


def test_laplacian_random_walk_rescale_vector():
    g = Graph(n=3, u=[0, 1], v=[1, 2], w=[2.0, 2.0])
    lap = laplacian(g, "random-walk-compatible")
    assert lap.rescale is not None
    assert np.allclose(lap.rescale, 1.0 / np.sqrt(g.degrees()))


# ----------------------------------------------------------------- score_graph


def test_score_star_graph_leaves_equal_after_rotation_average():
    # the leaf-difference eigenspace is degenerate, so as-given scores depend
    # on the solver's basis choice; averaging over random rotations restores
    # the leaf symmetry up to sampling error
    g = Graph(n=4, u=[0, 0, 0], v=[1, 2, 3], w=[1.0, 1.0, 1.0])
    field = score_graph(
        g, 2, kind="combinatorial",
        degenerate_policy="rotation-average", trials=4096, seed=0,
    )
    leaves = field.values[1:]
    assert np.abs(leaves - leaves[0]).max() <= 0.05
    rerun = score_graph(
        g, 2, kind="combinatorial",
        degenerate_policy="rotation-average", trials=4096, seed=0,
    )
    assert np.array_equal(field.values, rerun.values)


def test_score_path_p3_hand_values():
    """P3 combinatorial, N = 1: lambda = 1, phi = (1, 0, -1) gives (1, 0, 1)."""
    g = Graph(n=3, u=[0, 1], v=[1, 2], w=[1.0, 1.0])
    field = score_graph(g, 1, kind="combinatorial")
    assert np.allclose(field.values, [1.0, 0.0, 1.0], atol=1e-10)


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
    f1 = score_graph(g, 3, kind="combinatorial").values
    f2 = score_graph(g2, 3, kind="combinatorial").values
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
    assert (field.values >= 0.0).all()
    # the two components are isometric, so their score vectors agree
    assert np.abs(field.values[:3] - field.values[3:]).max() <= 1e-9


def test_score_isolated_vertex_scores_zero():
    g = Graph(n=3, u=[0], v=[1], w=[1.0])
    with pytest.warns(UserWarning):
        field = score_graph(g, 1, kind="combinatorial")
    assert field.values[2] == 0.0


def test_score_graph_rejects_bad_n_terms():
    g = Graph(n=2, u=[0], v=[1], w=[1.0])
    with pytest.raises(ValueError):
        score_graph(g, 0)


def unconverged(*args, **kwargs):
    return EigenSolveReport(
        pairs=[], residuals=np.array([]), iterations=0, converged=False
    )


@pytest.mark.parametrize(
    "solver, n", [("dense_sym_eig", 6), ("lanczos_smallest", 600)]
)
def test_score_graph_stops_on_non_converged_solve(monkeypatch, solver, n):
    monkeypatch.setattr(pipeline, solver, unconverged)
    path = Graph(n=n, u=np.arange(n - 1), v=np.arange(1, n), w=np.ones(n - 1))
    with pytest.raises(RuntimeError, match="did not converge"):
        score_graph(path, 2, kind="combinatorial")


# -------------------------------------------------------------------- writers


def test_csv_roundtrip_exact(tmp_path):
    values = np.array([0.0, 1.0 / 3.0, 2.718281828459045])
    path = tmp_path / "scores.csv"
    write_score_csv(values, path)
    lines = path.read_bytes().decode().strip().splitlines()
    assert len(lines) == 3
    parsed = np.array([float(line.split(",")[1]) for line in lines])
    assert (parsed == values).all()  # 17 significant digits round-trip


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
    field = ScoreField(np.array([1.0, 2.0]), ScoreConfig(n_terms=1), "x" * 16)
    write_score_csv(field, tmp_path / "f.csv")
    write_heatmap_pgm(field, 2, 1, tmp_path / "f.pgm")
    assert (tmp_path / "f.csv").exists() and (tmp_path / "f.pgm").exists()
