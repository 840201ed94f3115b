"""The package names that the benchmark harness reads.

``perfbench/run.py`` keys its per-layer metrics by the functions that the
span recorder (``perfbench/tracer.py``) wraps, and the recorder reads each
eigen solve through ``report.pairs``.  These checks fail in the package's
own tests when a change would leave a metric or a solve capture reading
nothing.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import nodalscore.cli  # noqa: E402,F401  (imports every layer module)
from nodalscore import pipeline  # noqa: E402
from nodalscore.eigensolve import dense_sym_eig, lanczos_smallest  # noqa: E402


def _nodalscore_modules():
    return {
        k: v for k, v in sys.modules.items() if k == "nodalscore" or k.startswith("nodalscore.")
    }


def test_every_timed_layer_metric_names_a_wrapped_function():
    wrapped = {name for _, _, name in tracer._targets(_nodalscore_modules())}
    timed = [
        name.rsplit(".", 1)[0]
        for name in run.PER_LAYER
        if name.rsplit(".", 1)[1] in ("s", "self_s", "calls")
    ]
    assert "core.compute_score_field" in timed
    assert [name for name in timed if name not in wrapped] == []


def _path_laplacian(n):
    u = np.arange(n - 1)
    graph = pipeline.Graph(n=n, u=u, v=u + 1, w=np.ones(n - 1))
    return pipeline.laplacian(graph, "combinatorial")


@pytest.mark.parametrize(
    "solve",
    [
        lambda: dense_sym_eig(_path_laplacian(40).toarray()),
        lambda: dense_sym_eig(_path_laplacian(40).toarray(), m=5),
        lambda: lanczos_smallest(_path_laplacian(600), 5, seed=0),
        lambda: lanczos_smallest(sp.csr_matrix((6, 6)), 3),
    ],
    ids=["dense-full", "dense-subset", "lanczos", "zero-operator"],
)
def test_solver_reports_read_as_the_tracer_reads_them(solve):
    report = solve()
    assert tracer._is_report(report)
    pairs = report.pairs
    assert len(pairs) == report.values.size == report.vectors.shape[1]
    for k, (value, vector) in enumerate(pairs):
        assert type(pairs[k].value) is float and value == report.values[k]
        assert np.array_equal(pairs[k].vector, report.vectors[:, k])
    assert pairs[0].vector.size == report.vectors.shape[0]
    with pytest.raises(AttributeError):
        report.pairs = ()


def test_knn_counter_and_patch_graph_span_read_a_parsed_pgm(tmp_path, capsys):
    # as in the image-anomaly jobs: a P5 file through `graph --format pgm`,
    # so tracer._count_knn reads the parsed Image
    width, height = 12, 10
    samples = np.random.default_rng(0).integers(0, 256, width * height).astype(np.uint8)
    pgm = tmp_path / "clutter.pgm"
    pgm.write_bytes(f"P5\n{width} {height}\n255\n".encode() + samples.tobytes())
    n = width * height
    recorder = tracer.Tracer(_nodalscore_modules())
    recorder.install()
    try:
        code = nodalscore.cli.main(
            ["graph", "--input", str(pgm), "--format", "pgm", "--patch", "3", "--knn", "4",
             "--n-terms", "3", "--out", str(tmp_path / "s.csv")]
        )
    finally:
        recorder.uninstall()
    capsys.readouterr()
    spans, counts, _ = recorder.harvest()
    assert code == 0
    names = [span[0] for span in spans]
    assert names.count("pipeline.parse_pgm") == names.count("pipeline.patch_graph") == 1
    assert counts["pipeline.knn.pairs"] == n * (n - 1)


def test_graph_files_inputs_take_numpys_reader(monkeypatch):
    # the shapes the graph-files jobs write never reach the per-line parsers
    def refuse(*args, **kwargs):
        raise AssertionError("parsed line by line")

    monkeypatch.setattr(pipeline, "_parse_edge_lines", refuse)
    monkeypatch.setattr(pipeline, "_obj_lines", refuse)
    rng = np.random.default_rng(3)
    rows = workloads.random_components(rng, (40, 24), 6)
    weighted = pipeline.parse_edge_list("# u,v,w\n" + "\n".join(rows) + "\n")
    unweighted = pipeline.parse_edge_list("\n".join(r.rpartition(",")[0] for r in rows) + "\n")
    assert weighted.n_edges == unweighted.n_edges == len(rows)
    assert (unweighted.w == 1.0).all() and not (weighted.w == 1.0).all()
    mesh = pipeline.parse_obj("\n".join(workloads.mesh_obj(rng, 6)) + "\n")
    assert mesh.vertices.shape == (36, 3) and mesh.faces.shape == (50, 3)
