"""Command line front end: subcommands, config merge, exit codes, outputs."""

import json
import math

import numpy as np

from nodalscore import pipeline, torus
from nodalscore.cli import main
from nodalscore.eigensolve import EigenSolveReport


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_summary(out):
    line = out.strip().splitlines()[-1]
    pairs = {}
    for token in line.split(" "):
        key, _, value = token.partition("=")
        pairs[key] = value
    return pairs


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 2
    assert "usage" in err


def test_interval_writes_csv_and_sidecar(capsys, tmp_path):
    out = tmp_path / "interval.csv"
    code, stdout, _ = run(
        capsys,
        ["interval", "--n-terms", "50", "--grid", "200", "--out", str(out)],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 201
    assert lines[0] == "0,0"  # row format is "index,score", no header
    summary = parse_summary(stdout)
    assert summary["points"] == "201"
    assert summary["n_terms"] == "50"
    # both endpoints score zero, so the reported minimum is exactly 0 at x=0
    assert float(summary["min_value"]) == 0.0
    assert float(summary["min_x"]) == 0.0
    sidecar = json.loads((tmp_path / "interval.csv.config.json").read_text())
    assert sidecar["n-terms"] == 50
    assert sidecar["grid"] == 200
    assert sidecar["seed"] == 0


def test_interval_find_minima_reports_half(capsys, tmp_path):
    out = tmp_path / "i.csv"
    code, stdout, _ = run(
        capsys,
        [
            "interval", "--n-terms", "64", "--grid", "16",
            "--find-minima", "--out", str(out),
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert int(summary["minima_count"]) >= 1
    xs = [float(t) for t in summary["minima_x"].split(";")]
    assert any(abs(x - 0.5) <= 1e-15 for x in xs)


def test_square_csv_and_heatmap(capsys, tmp_path):
    out = tmp_path / "sq.csv"
    pgm = tmp_path / "sq.pgm"
    code, stdout, _ = run(
        capsys,
        [
            "square", "--lambda-cut", "50", "--grid", "9x9",
            "--out", str(out), "--pgm", str(pgm),
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["points"] == "81"
    assert float(summary["min_value"]) > 0.0  # interior lattice avoids the boundary
    lines = out.read_text().splitlines()
    assert len(lines) == 81
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n9 9\n255\n")
    assert len(blob) == len(b"P5\n9 9\n255\n") + 81


def test_square_grid_shape_validation(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["square", "--lambda-cut", "5", "--grid", "9", "--out", str(tmp_path / "x.csv")],
    )
    assert code == 2
    assert "MxM" in err


def test_rational_check_echoes_derived_defaults(capsys):
    code, stdout, _ = run(capsys, ["rational-check", "--p", "2", "--q", "5"])
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["p"] == "2"
    assert summary["q"] == "5"
    assert summary["n_terms"] == "25"  # q**2
    assert float(summary["step"]) == 1.0 / 200.0  # 1/(8 q**2)
    assert summary["strict_minimum"] == "true"
    assert float(summary["center_value"]) > 0.0


def test_rational_check_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "rc.txt"
    code, stdout, _ = run(
        capsys, ["rational-check", "--p", "1", "--q", "3", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == stdout.strip().splitlines()[-1] + "\n"
    sidecar = json.loads((tmp_path / "rc.txt.config.json").read_text())
    assert sidecar["n-terms"] == 9
    assert sidecar["step"] == 1.0 / 72.0


def test_paley_verify_pass(capsys):
    code, stdout, _ = run(capsys, ["paley", "--p", "13", "--verify"])
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["distinct_values"] == "3"
    assert abs(float(summary["s_zero"]) - 4.850693463203614) <= 1e-12
    assert float(summary["verify_max_deviation"]) <= 1e-10
    assert summary["verify_pass"] == "true"


def test_paley_out_writes_per_vertex_csv(capsys, tmp_path):
    out = tmp_path / "paley.csv"
    code, _, _ = run(capsys, ["paley", "--p", "13", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13
    values = np.array([float(line.split(",")[1]) for line in lines])
    assert np.unique(np.round(values, 8)).size == 3


def test_paley_rejects_bad_modulus(capsys):
    for bad in ["7", "12", "9"]:  # 3 mod 4, composite even, composite 1 mod 4
        code, _, err = run(capsys, ["paley", "--p", bad])
        assert code == 2, bad
        assert err != ""


def test_torus_score_mode(capsys, tmp_path):
    out = tmp_path / "torus.csv"
    y = 0.35 * 2.0 * math.pi
    eps = 0.10 * 2.0 * math.pi
    code, stdout, _ = run(
        capsys,
        [
            "torus", "--y", f"{y:.17g}", "--eps", f"{eps:.17g}",
            "--n-grid", "512", "--n-terms", "5", "--out", str(out),
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["n_terms"] == "5"
    assert summary["in_window"] == "true"
    argmin_x = float(summary["argmin_x"])
    # the window runs from y to y + eps around the circle
    offset = (argmin_x - y) % (2.0 * math.pi)
    assert offset <= eps + 1e-9
    lines = out.read_text().splitlines()
    assert len(lines) == 512


def test_torus_find_n_eps_mode(capsys):
    y = 0.35 * 2.0 * math.pi
    eps = 0.10 * 2.0 * math.pi
    code, stdout, _ = run(
        capsys,
        [
            "torus", "--y", f"{y:.17g}", "--eps", f"{eps:.17g}",
            "--n-grid", "256", "--find-n-eps", "3",
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert int(summary["n_eps"]) >= 1
    assert "argmin_x" not in summary


def test_torus_mode_flags_are_exclusive(capsys):
    base = ["torus", "--y", "2.0", "--eps", "0.6"]
    code, _, err = run(capsys, base + ["--n-terms", "3", "--find-n-eps", "3"])
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, base)
    assert code == 2
    assert "exactly one" in err


def write_edge_file(path):
    path.write_text(
        "# weighted path with a chord\n"
        "0,1,1.0\n1,2,1.5\n2,3,0.7\n3,4,1.2\n4,5,0.9\n0,3,0.4\n"
    )


def test_graph_edges_format(capsys, tmp_path):
    edges = tmp_path / "g.csv"
    write_edge_file(edges)
    out = tmp_path / "scores.csv"
    code, stdout, _ = run(
        capsys,
        [
            "graph", "--input", str(edges), "--format", "edges",
            "--laplacian", "comb", "--n-terms", "2", "--out", str(out),
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["n_vertices"] == "6"
    assert summary["n_edges"] == "6"
    assert summary["laplacian"] == "comb"
    lines = out.read_text().splitlines()
    assert len(lines) == 6


def test_graph_obj_format(capsys, tmp_path):
    obj = tmp_path / "m.obj"
    obj.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\n"
    )
    out = tmp_path / "mesh.csv"
    code, stdout, _ = run(
        capsys,
        [
            "graph", "--input", str(obj), "--format", "obj",
            "--n-terms", "1", "--out", str(out),
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["n_vertices"] == "4"
    assert summary["n_edges"] == "6"


def make_pgm_bytes(seed, size):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(size, size))
    body = "\n".join(" ".join(str(v) for v in row) for row in pixels)
    return f"P2\n{size} {size}\n255\n{body}\n".encode()


def test_graph_pgm_format_with_heatmap(capsys, tmp_path):
    pgm_in = tmp_path / "img.pgm"
    pgm_in.write_bytes(make_pgm_bytes(7, 16))
    out = tmp_path / "scores.csv"
    heat = tmp_path / "heat.pgm"
    code, stdout, _ = run(
        capsys,
        [
            "graph", "--input", str(pgm_in), "--format", "pgm",
            "--patch", "4", "--knn", "8", "--n-terms", "5",
            "--out", str(out), "--pgm", str(heat),
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["n_vertices"] == "256"
    blob = heat.read_bytes()
    assert blob.startswith(b"P5\n16 16\n255\n")
    assert len(out.read_text().splitlines()) == 256


def test_graph_heatmap_requires_pgm_input(capsys, tmp_path):
    edges = tmp_path / "g.csv"
    write_edge_file(edges)
    code, _, err = run(
        capsys,
        [
            "graph", "--input", str(edges), "--format", "edges",
            "--n-terms", "1", "--out", str(tmp_path / "s.csv"),
            "--pgm", str(tmp_path / "h.pgm"),
        ],
    )
    assert code == 2
    assert "needs --format pgm" in err


def test_config_supplies_defaults_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n-terms": 10, "grid": 8}))
    out = tmp_path / "o.csv"
    code, stdout, _ = run(
        capsys,
        [
            "interval", "--config", str(cfg),
            "--n-terms", "12", "--out", str(out),
        ],
    )
    assert code == 0
    summary = parse_summary(stdout)
    assert summary["n_terms"] == "12"  # explicit flag beats the config value
    assert summary["points"] == "9"  # grid came from the config
    sidecar = json.loads((tmp_path / "o.csv.config.json").read_text())
    assert sidecar["n-terms"] == 12
    assert sidecar["grid"] == 8


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nterms": 5}))
    code, _, err = run(
        capsys,
        ["interval", "--config", str(cfg), "--grid", "4", "--out", "x.csv"],
    )
    assert code == 2
    assert "unknown config keys" in err


def test_config_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(
        capsys,
        ["interval", "--config", str(cfg), "--grid", "4", "--out", "x.csv"],
    )
    assert code == 2
    assert "JSON object" in err


def test_config_unreadable_path(capsys, tmp_path):
    code, _, err = run(
        capsys,
        [
            "interval", "--config", str(tmp_path / "missing.json"),
            "--grid", "4", "--out", "x.csv",
        ],
    )
    assert code == 2
    assert "cannot read --config" in err


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, ["interval", "--n-terms", "5", "--grid", "4"])
    assert code == 2
    assert "--out is required" in err


def test_runtime_error_exits_one(capsys, tmp_path):
    code, _, err = run(
        capsys,
        [
            "graph", "--input", str(tmp_path / "missing.csv"),
            "--format", "edges", "--n-terms", "2",
            "--out", str(tmp_path / "o.csv"),
        ],
    )
    assert code == 1
    assert err.startswith("error:")


def test_invalid_value_exits_one(capsys, tmp_path):
    edges = tmp_path / "bad.csv"
    edges.write_text("0,0,1.0\n")  # self-loop
    code, _, err = run(
        capsys,
        [
            "graph", "--input", str(edges), "--format", "edges",
            "--n-terms", "1", "--out", str(tmp_path / "o.csv"),
        ],
    )
    assert code == 1
    assert err.startswith("error:")
    assert "self-loop" in err


def test_vertex_id_above_cap_exits_one(capsys, tmp_path):
    edges = tmp_path / "huge.csv"
    edges.write_text("0,100000000\n")
    code, _, err = run(
        capsys,
        [
            "graph", "--input", str(edges), "--format", "edges",
            "--n-terms", "1", "--out", str(tmp_path / "o.csv"),
        ],
    )
    assert code == 1
    assert err.startswith("error:")
    assert "exceeds" in err
    assert not (tmp_path / "o.csv").exists()


def test_non_converged_solve_exits_one(capsys, tmp_path, monkeypatch):
    def unconverged(*args, **kwargs):
        return EigenSolveReport(
            pairs=[], residuals=np.array([]), iterations=0, converged=False
        )

    monkeypatch.setattr(pipeline, "dense_sym_eig", unconverged)
    monkeypatch.setattr(torus, "dense_sym_eig", unconverged)
    edges = tmp_path / "g.csv"
    write_edge_file(edges)
    code, _, err = run(
        capsys,
        [
            "graph", "--input", str(edges), "--format", "edges",
            "--n-terms", "2", "--out", str(tmp_path / "o.csv"),
        ],
    )
    assert code == 1
    assert err.startswith("error:")
    assert "did not converge" in err
    code, _, err = run(
        capsys,
        ["torus", "--y", "2.0", "--eps", "0.6", "--n-grid", "256", "--n-terms", "3"],
    )
    assert code == 1
    assert err.startswith("error:")
    assert "did not converge" in err


def test_identical_argv_identical_bytes(capsys, tmp_path):
    edges = tmp_path / "g.csv"
    write_edge_file(edges)
    pgm_in = tmp_path / "img.pgm"
    pgm_in.write_bytes(make_pgm_bytes(11, 16))
    y = 0.35 * 2.0 * math.pi
    eps = 0.10 * 2.0 * math.pi
    runs = [
        (
            ["interval", "--n-terms", "40", "--grid", "64", "--find-minima",
             "--out", str(tmp_path / "a.csv")],
            [tmp_path / "a.csv", tmp_path / "a.csv.config.json"],
        ),
        (
            ["square", "--lambda-cut", "30", "--grid", "7x7",
             "--out", str(tmp_path / "b.csv"), "--pgm", str(tmp_path / "b.pgm")],
            [tmp_path / "b.csv", tmp_path / "b.pgm"],
        ),
        (
            ["rational-check", "--p", "3", "--q", "7",
             "--out", str(tmp_path / "c.txt")],
            [tmp_path / "c.txt", tmp_path / "c.txt.config.json"],
        ),
        (
            ["paley", "--p", "17", "--out", str(tmp_path / "d.csv")],
            [tmp_path / "d.csv"],
        ),
        (
            ["torus", "--y", f"{y:.17g}", "--eps", f"{eps:.17g}",
             "--n-grid", "256", "--n-terms", "3",
             "--out", str(tmp_path / "e.csv")],
            [tmp_path / "e.csv"],
        ),
        (
            ["graph", "--input", str(edges), "--format", "edges",
             "--n-terms", "2", "--out", str(tmp_path / "f.csv")],
            [tmp_path / "f.csv", tmp_path / "f.csv.config.json"],
        ),
        (
            ["graph", "--input", str(pgm_in), "--format", "pgm",
             "--patch", "4", "--knn", "8", "--n-terms", "4",
             "--out", str(tmp_path / "g2.csv"), "--pgm", str(tmp_path / "g2.pgm")],
            [tmp_path / "g2.csv", tmp_path / "g2.pgm"],
        ),
    ]
    for argv, artifacts in runs:
        code, out_one, _ = run(capsys, argv)
        assert code == 0, argv
        first = [path.read_bytes() for path in artifacts]
        code, out_two, _ = run(capsys, argv)
        assert code == 0, argv
        second = [path.read_bytes() for path in artifacts]
        assert out_one == out_two, argv
        for blob_one, blob_two, path in zip(first, second, artifacts):
            assert blob_one == blob_two, (argv, str(path))
