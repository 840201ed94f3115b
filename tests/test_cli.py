"""Command line front end: subcommands, config merge, exit codes, outputs."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nodalscore
from nodalscore import _kernels, analytic, cli, paley, pipeline, torus
from nodalscore.cli import COMMANDS, REQUIRED, _merge, build_parser, main
from nodalscore.core import InputRefused
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
    assert "seed" not in sidecar  # the closed-form commands have no seed


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


def gauss_sum_values(p):
    """(s_zero, s_residue, s_nonresidue) from the quadratic Gauss sum sqrt(p)."""
    root = math.sqrt(p)
    w_minus = ((p - root) / 2) ** -0.5
    w_plus = ((p + root) / 2) ** -0.5
    return (
        (p - 1) / 2 * (w_minus + w_plus),
        w_minus * (root - 1) / 2 - w_plus * (root + 1) / 2,
        -w_minus * (root + 1) / 2 + w_plus * (root - 1) / 2,
    )


def assert_gauss_sum_summary(summary, p):
    assert int(summary["p"]) == p
    for key, want in zip(("s_zero", "s_residue", "s_nonresidue"), gauss_sum_values(p)):
        assert abs(float(summary[key]) - want) <= 1e-12 * abs(want), key


def test_paley_largest_prime_summary(capsys):
    p = 2147483629  # largest prime = 1 mod 4 below MAX_PRIME = 2**31
    start = time.perf_counter()
    code, stdout, _ = run(capsys, ["paley", "--p", str(p)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert_gauss_sum_summary(parse_summary(stdout), p)


def test_paley_above_max_prime_is_usage_error(capsys):
    # (2**61 - 1)**2 = 1 mod 4; trial division to its factor 2**61 - 1 would not end
    code, _, err = run(capsys, ["paley", "--p", str((2**61 - 1) ** 2)])
    assert code == 2
    assert "2**31" in err


def test_paley_limits_are_usage_errors_before_work(capsys, tmp_path, monkeypatch):
    def no_work(p):
        raise AssertionError("closed form ran")

    monkeypatch.setattr(paley, "paley_score_closed_form", no_work)
    code, _, err = run(capsys, ["paley", "--p", "2017", "--verify"])
    assert code == 2
    assert f"p <= {paley.NUMERIC_MAX_PRIME}" in err
    out = tmp_path / "paley.csv"
    code, _, err = run(capsys, ["paley", "--p", "16777289", "--out", str(out)])
    assert code == 2
    assert f"p <= {paley.PER_VERTEX_MAX_PRIME}" in err
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10, max_value=10**6))
@example(5)
@example(13)
@example(999961)  # largest prime = 1 mod 4 in range
def test_paley_any_integer_exits_cleanly(p):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["paley", "--p", str(p)])
    assert code in (0, 2)
    if code == 0:
        assert_gauss_sum_summary(parse_summary(stdout.getvalue()), p)


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


def test_torus_grid_cap_exits_before_work(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a circle operator above the cap")

    monkeypatch.setattr(torus, "build_circle_operator", refuse)
    out = tmp_path / "t.csv"
    base = ["torus", "--y", "1.0", "--eps", "0.5", "--out", str(out)]
    for n_grid in (torus.MAX_N_GRID + 1, 10**12):
        for mode in (["--n-terms", "1"], ["--find-n-eps", "1"]):
            code, _, err = run(capsys, base + ["--n-grid", str(n_grid)] + mode)
            assert code == 2
            assert "exceeds" in err
    assert not out.exists()
    spec = torus.PotentialSpec(y=1.0, eps=0.5)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="exceeds"):
        torus.build_circle_operator(10**12, spec)


def test_torus_solve_work_cap_exits_before_work(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a circle operator above the cap")

    monkeypatch.setattr(torus, "build_circle_operator", refuse)
    out = tmp_path / "t.csv"
    base = ["torus", "--y", "1.0", "--eps", "0.5"]
    # 8192 x 256 ran 18.7 s with an 863 MB peak before the cap
    for n_grid, pairs in ((8192, 256), (4096, 129), (torus.MAX_N_GRID, 33)):
        # --find-n-eps writes no file and refuses --out
        for mode in (["--n-terms", str(pairs), "--out", str(out)], ["--find-n-eps", str(pairs)]):
            argv = base + ["--n-grid", str(n_grid)] + mode
            code, _, err = run(capsys, argv)
            assert code == 2, argv
            assert "exceeds" in err
    assert not out.exists()
    spec = torus.PotentialSpec(y=1.0, eps=0.5)
    torus.check_solve(4096, spec, 128)  # the cap met exactly
    torus.check_solve(torus.MAX_N_GRID, spec, 32)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "0.6", "--n-grid", "32", "--n-terms", "2"], "--n-grid 32 must be >= 64"),
        (["--eps", "0.6", "--n-grid", "64", "--n-terms", "9"], "n_grid / 8"),
        (["--eps", "0.6", "--n-grid", "64", "--find-n-eps", "9"], "n_grid / 8"),
        (["--eps", "0.2", "--n-grid", "64", "--n-terms", "2"], "unresolved"),
    ],
)
def test_torus_grid_rules_exit_before_work(capsys, tmp_path, monkeypatch, flags, message):
    def refuse(*args, **kwargs):
        raise AssertionError("built a circle operator the rules refuse")

    monkeypatch.setattr(torus, "build_circle_operator", refuse)
    out = tmp_path / "t.csv"
    # --find-n-eps writes no file and refuses --out
    out_flags = ["--out", str(out)] if "--n-terms" in flags else []
    code, _, err = run(capsys, ["torus", "--y", "1"] + flags + out_flags)
    assert code == 2
    assert message in err
    assert not out.exists()


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


def test_graph_warnings_are_one_fixed_stderr_line_on_every_call(capsys, tmp_path):
    edges = tmp_path / "two.csv"
    edges.write_text("0,1\n1,2\n3,4\n4,5\n")  # two 3-vertex paths
    argv = ["graph", "--input", str(edges), "--format", "edges",
            "--n-terms", "1", "--out", str(tmp_path / "s.csv")]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    code, _, err = first
    assert code == 0
    assert err == "warning: graph is disconnected (2 components); scoring per component\n"
    assert ".py:" not in err


def test_graph_isolated_vertices_warn_once_in_total(capsys, tmp_path):
    # one edge between vertices 0 and 65535 leaves 65534 isolated vertices
    edges = tmp_path / "one.csv"
    edges.write_text("0,65535,1.0\n")
    out = tmp_path / "s.csv"
    code, _, err = run(
        capsys,
        ["graph", "--input", str(edges), "--format", "edges",
         "--n-terms", "2", "--out", str(out)],
    )
    assert code == 0
    lines = err.splitlines()
    assert len(lines) <= 3, lines[:5]
    assert "warning: 65534 components have size 1 and no nontrivial modes; scored 0" in lines
    assert len(out.read_text().splitlines()) == 65536


@pytest.mark.parametrize(
    "edge_text, want",
    [
        (
            "".join(f"{2 * i},{2 * i + 1}\n" for i in range(2000)),
            "warning: 2000 components supplied only 1 nontrivial modes (wanted 2)",
        ),
        (
            "".join(f"{3 * i},{3 * i + 1}\n{3 * i + 1},{3 * i + 2}\n{3 * i},{3 * i + 2}\n"
                    for i in range(500)),
            "warning: degenerate eigenvalues scored as-given; pointwise values are "
            "basis-dependent (in 500 components)",
        ),
    ],
    ids=["edges", "triangles"],
)
def test_graph_per_component_warnings_print_once(capsys, tmp_path, edge_text, want):
    # 2000 disjoint edges and 500 disjoint triangles printed one warning
    # line per component
    edges = tmp_path / "g.csv"
    edges.write_text(edge_text)
    code, _, err = run(
        capsys,
        ["graph", "--input", str(edges), "--format", "edges",
         "--n-terms", "2", "--out", str(tmp_path / "s.csv")],
    )
    assert code == 0
    lines = err.splitlines()
    assert len(lines) <= 3, lines[:5]
    assert want in lines


@pytest.mark.parametrize(
    "edge_text, n_terms",
    [("0,1,1e200\n1,2,1e200\n", 1), ("".join(f"{i},{i + 1},1e200\n" for i in range(799)), 4)],
    ids=["dense", "iterative"],
)
def test_graph_weights_of_1e200_converge(capsys, tmp_path, edge_text, n_terms):
    # every row sum is finite, but the residual's square overflowed before
    # its norm was divided by ||A||_inf: numpy's overflow warnings, then
    # a solve reported as non-converged, exit 1
    edges = tmp_path / "huge.csv"
    edges.write_text(edge_text)
    code, _, err = run(
        capsys,
        ["graph", "--input", str(edges), "--format", "edges", "--laplacian", "comb",
         "--n-terms", str(n_terms), "--out", str(tmp_path / "s.csv")],
    )
    assert (code, err) == (0, "")


@pytest.mark.parametrize("kind", ["sym", "comb"])
def test_graph_refuses_a_degree_that_overflows(capsys, tmp_path, kind):
    # vertex 1's two weights sum past the float64 maximum: sym scored the
    # graph 0, 1, 0 (unit weights give 1, 0, 1) and comb failed in the
    # solver, both after numpy's overflow warning
    edges = tmp_path / "huge.csv"
    edges.write_text("0,1,1e308\n1,2,1e308\n")
    out = tmp_path / "s.csv"
    code, _, err = run(
        capsys,
        ["graph", "--input", str(edges), "--format", "edges", "--laplacian", kind,
         "--n-terms", "1", "--out", str(out)],
    )
    assert code == 1
    assert err == "error: vertex 1 has a non-finite degree (its edge weights overflow)\n"
    assert not out.exists()


def test_graph_refuses_row_sums_that_overflow_under_comb(capsys, tmp_path):
    # every degree is finite (vertex 1 has 1.5e308), but under comb the row
    # sums of |L| are twice the degrees; the solver overflowed, printed three
    # numpy warnings and reported non-convergence.  sym's rows sum to 2
    edges = tmp_path / "huge.csv"
    edges.write_text("0,1,1e308\n1,2,5e307\n")
    argv = ["graph", "--input", str(edges), "--format", "edges", "--n-terms", "1"]
    out = tmp_path / "comb.csv"
    code, _, err = run(capsys, [*argv, "--laplacian", "comb", "--out", str(out)])
    assert code == 1
    assert err == "error: row 0 of |A| sums to a non-finite value (its entries overflow)\n"
    assert not out.exists()
    out = tmp_path / "sym.csv"
    code, _, err = run(capsys, [*argv, "--laplacian", "sym", "--out", str(out)])
    assert (code, err) == (0, "")
    assert out.read_bytes() == b"0,0.70710678118654746\n1,2.2422147010954762e-32\n2,0.99999999999999989\n"


@pytest.mark.parametrize("n", [500, 600])
def test_graph_component_asked_for_all_its_modes(capsys, tmp_path, n):
    # a cycle asked for all n - 1 nontrivial modes wants all n pairs; 500
    # is at most DENSE_FALLBACK_N and 600 is above it, and both exit 0
    edges = tmp_path / "cycle.csv"
    edges.write_text("".join(f"{i},{(i + 1) % n}\n" for i in range(n)))
    out = tmp_path / "s.csv"
    code, stdout, err = run(
        capsys,
        ["graph", "--input", str(edges), "--format", "edges",
         "--n-terms", str(n - 1), "--out", str(out)],
    )
    assert code == 0, err
    assert parse_summary(stdout)["n_terms"] == str(n - 1)
    assert len(out.read_text().splitlines()) == n


def test_graph_solve_work_cap_exits_2_before_solving(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved a component above the cap")

    monkeypatch.setattr(pipeline, "dense_sym_eig", refuse)
    monkeypatch.setattr(pipeline, "lanczos_smallest", refuse)
    n = 2048
    edges = tmp_path / "path.csv"
    edges.write_text("".join(f"{i},{i + 1}\n" for i in range(n - 1)))
    out = tmp_path / "s.csv"
    n_terms = pipeline.MAX_GRAPH_SOLVE_WORK // n  # one pair over the cap
    code, _, err = run(
        capsys,
        ["graph", "--input", str(edges), "--format", "edges",
         "--n-terms", str(n_terms), "--out", str(out)],
    )
    assert code == 2
    assert "exceeds" in err
    assert not out.exists()
    assert not (tmp_path / "s.csv.config.json").exists()


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


def test_graph_inputs_read_as_utf8_in_c_locale(tmp_path):
    # under the C locale the default encoding is ASCII, and a UTF-8 comment
    # made both text formats fail with a UnicodeDecodeError (exit 1)
    (tmp_path / "g.csv").write_text("# Grüße\n0,1\n1,2 # ∞\n", encoding="utf-8")
    (tmp_path / "m.obj").write_text(
        "# Grüße\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", encoding="utf-8"
    )
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    for name, fmt in (("g.csv", "edges"), ("m.obj", "obj")):
        proc = subprocess.run(
            [sys.executable, "-m", "nodalscore.cli", "graph", "--input", name,
             "--format", fmt, "--n-terms", "1", "--out", f"{fmt}.out.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert parse_summary(proc.stdout)["n_vertices"] == "3"


@pytest.mark.parametrize(
    "fmt, text",
    [("edges", "0,1,1\n1,2,0.5\n"), ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")],
)
def test_graph_input_may_start_with_a_byte_order_mark(capsys, tmp_path, fmt, text):
    # a UTF-8 BOM read as part of the first line: the edge list's first row
    # was malformed, and the OBJ's first vertex an ignored record
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(prefix + text.encode())
        out = tmp_path / f"{name}.csv"
        argv = ["graph", "--input", str(path), "--format", fmt, "--n-terms", "1",
                "--out", str(out)]
        code, stdout, err = run(capsys, argv)
        assert (code, err) == (0, ""), err
        outputs.append((stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_graph_huge_integers_exit_1_without_traceback(capsys, tmp_path):
    # 2^70 overflows int64: both inputs ended in an OverflowError traceback
    pgm = tmp_path / "big.pgm"
    pgm.write_bytes(b"P2\n2 2\n255\n1 2 3 1180591620717411303424\n")
    obj = tmp_path / "big.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 1180591620717411303424\n")
    out = tmp_path / "o.csv"
    for path, fmt, message in (
        (pgm, "pgm", "PGM sample exceeds maxval"),
        (obj, "obj", "line 4: face index 1180591620717411303424 exceeds"),
    ):
        argv = ["graph", "--input", str(path), "--format", fmt, "--n-terms", "2",
                "--out", str(out)]
        code, _, err = run(capsys, argv)
        assert code == 1, fmt
        assert message in err
    assert not out.exists()


@pytest.mark.parametrize("line, bad", [(1, "v 0 0 nan"), (2, "v 0 1 inf"), (4, "v 1 1 1e400")])
def test_graph_obj_non_finite_vertex_exits_1(capsys, tmp_path, line, bad):
    rows = ["v 0 0 0", "v 0 1 0", "v 1 0 0", "v 1 1 0"]
    rows[line - 1] = bad
    obj = tmp_path / "m.obj"
    obj.write_text("\n".join(rows + ["f 1 2 3", "f 2 4 3"]) + "\n")
    out = tmp_path / "o.csv"
    argv = ["graph", "--input", str(obj), "--format", "obj", "--n-terms", "2", "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 1
    assert stdout == ""
    assert err == f"error: line {line}: vertex coordinates must be finite\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "extra, config",
    [
        (["--bandwidth=abc"], None),
        (["--bandwidth=-1"], None),
        (["--bandwidth=0"], None),
        (["--bandwidth=nan"], None),
        (["--bandwidth=inf"], None),
        (["--patch", "0"], None),
        (["--knn", "0"], None),
        ([], {"knn": -3}),
        ([], {"bandwidth": 1e308 * 10}),
    ],
    ids=["bandwidth-abc", "bandwidth-negative", "bandwidth-zero", "bandwidth-nan",
         "bandwidth-inf", "patch-0", "knn-0", "config-knn", "config-bandwidth-inf"],
)
def test_graph_patch_settings_are_usage_errors(capsys, tmp_path, monkeypatch, extra, config):
    def refuse(*args, **kwargs):
        raise AssertionError("read the input before checking the flags")

    monkeypatch.setattr(pipeline, "parse_pgm", refuse)
    pgm_in = tmp_path / "img.pgm"
    pgm_in.write_bytes(make_pgm_bytes(5, 12))
    argv = ["graph", "--input", str(pgm_in), "--format", "pgm", "--n-terms", "3",
            "--out", str(tmp_path / "s.csv"), "--pgm", str(tmp_path / "h.pgm")] + extra
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "--bandwidth" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["img.pgm"] + (["cfg.json"] if config is not None else [])
    )


def test_graph_bandwidth_flag_and_config_write_one_sidecar(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "img.pgm").write_bytes(make_pgm_bytes(5, 8))
    (tmp_path / "cfg.json").write_text(json.dumps({"bandwidth": 2}))
    argv = ["graph", "--input", "img.pgm", "--format", "pgm", "--patch", "2", "--knn", "4",
            "--n-terms", "3", "--out", "s.csv"]
    sidecars = []
    for extra in (["--bandwidth", "2"], ["--config", "cfg.json"]):
        assert run(capsys, argv + extra)[0] == 0
        sidecars.append((tmp_path / "s.csv.config.json").read_bytes())
    assert sidecars[0] == sidecars[1]
    assert json.loads(sidecars[0])["bandwidth"] == 2.0


def test_graph_heatmap_requires_pgm_input(capsys, tmp_path):
    edges = tmp_path / "g.csv"
    write_edge_file(edges)
    out = tmp_path / "s.csv"
    code, _, err = run(
        capsys,
        [
            "graph", "--input", str(edges), "--format", "edges",
            "--n-terms", "1", "--out", str(out),
            "--pgm", str(tmp_path / "h.pgm"),
        ],
    )
    assert code == 2
    assert "needs --format pgm" in err
    # a usage error: nothing solved, nothing written
    assert not out.exists()
    assert not (tmp_path / "s.csv.config.json").exists()
    assert not (tmp_path / "h.pgm").exists()


def test_graph_patch_caps_exit_before_work(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a patch graph above the cap")

    monkeypatch.setattr(pipeline, "_patch_matrix", refuse)
    wide = tmp_path / "wide.pgm"
    width = pipeline.MAX_PATCH_PIXELS + 1
    wide.write_bytes(f"P5\n{width} 1\n255\n".encode() + bytes(width))
    square = tmp_path / "square.pgm"
    square.write_bytes(make_pgm_bytes(3, 64))
    out = tmp_path / "s.csv"
    cases = (
        [str(wide), "--patch", "1", "--knn", "4"],
        [str(square), "--patch", "23"],  # 4096 x 23^2 > MAX_PATCH_WORK
    )
    for extra in cases:
        argv = ["graph", "--format", "pgm", "--n-terms", "2", "--out", str(out),
                "--pgm", str(tmp_path / "h.pgm"), "--input"] + extra
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "exceeds" in err
    assert not out.exists()
    assert not (tmp_path / "s.csv.config.json").exists()
    assert not (tmp_path / "h.pgm").exists()


def test_graph_pgm_pixel_cap_refused_from_header(capsys, tmp_path):
    side = 2048
    big = tmp_path / "big.pgm"
    big.write_bytes(f"P5\n{side} {side}\n255\n".encode() + bytes(side * side))
    out = tmp_path / "s.csv"
    argv = ["graph", "--input", str(big), "--format", "pgm", "--n-terms", "2",
            "--out", str(out), "--pgm", str(tmp_path / "h.pgm")]
    tracemalloc.start()
    try:
        code, _, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "exceeds" in err
    decoded = side * side * 8  # one float64 per pixel
    assert peak < decoded / 4, f"refusing a {side}^2 PGM peaked at {peak / 2**20:.1f} MB"
    assert not out.exists()
    assert not (tmp_path / "s.csv.config.json").exists()
    assert not (tmp_path / "h.pgm").exists()


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
            values=np.empty(0), vectors=np.empty((0, 0)), residuals=np.empty(0),
            iterations=0, converged=False, method="dense",
        )

    monkeypatch.setattr(pipeline, "dense_sym_eig", unconverged)
    monkeypatch.setattr(torus, "dense_sym_eig", unconverged)
    monkeypatch.setattr(paley, "dense_sym_eig", unconverged)
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
    code, stdout, err = run(capsys, ["paley", "--p", "13", "--verify"])
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:")
    assert "did not converge" in err
    # LAPACK's own failure is a LinAlgError, a ValueError, and it propagates
    monkeypatch.undo()

    def lapack_failure(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", lapack_failure)
    code, stdout, err = run(capsys, ["paley", "--p", "13", "--verify"])
    assert (code, stdout, err) == (1, "", "error: Eigenvalues did not converge\n")


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


# ------------------------------------------------ exact rational series paths


def exact_interval_value(i, grid, n_terms):
    """fsum over k of sin(pi ((k*i) mod grid) / grid) / k, reduced in integers."""
    k = np.arange(1, n_terms + 1, dtype=np.int64)
    return math.fsum((np.sin(np.pi * ((k * i) % grid) / grid) / k).tolist())


def test_interval_grid_is_exact_at_large_n(capsys, tmp_path):
    grid, n_terms = 1000, 1 << 20
    out = tmp_path / "i.csv"
    code, stdout, _ = run(
        capsys,
        ["interval", "--n-terms", str(n_terms), "--grid", str(grid), "--out", str(out)],
    )
    assert code == 0
    values = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()])
    assert values.size == grid + 1
    summary = parse_summary(stdout)
    sample = {1, 7, 333, 500, 999, int(summary["min_index"]), int(np.argmax(values))}
    for i in sorted(sample):
        want = exact_interval_value(i, grid, n_terms)
        assert abs(values[i] - want) <= 1e-13, i


def test_interval_large_grid_operation_guard(capsys, tmp_path):
    start = time.perf_counter()
    code, stdout, _ = run(
        capsys,
        ["interval", "--n-terms", "1048576", "--grid", "4096",
         "--out", str(tmp_path / "g.csv")],
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert parse_summary(stdout)["points"] == "4097"
    assert elapsed < 10.0, f"interval 4097 x 2^20 took {elapsed:.1f}s"


def test_rational_check_snaps_step(capsys, tmp_path):
    out = tmp_path / "rc.txt"
    code, stdout, _ = run(
        capsys,
        ["rational-check", "--p", "1", "--q", "3", "--step", "0.003", "--out", str(out)],
    )
    assert code == 0
    assert parse_summary(stdout)["step"] == format(1.0 / 333.0, ".17g")
    assert json.loads((tmp_path / "rc.txt.config.json").read_text())["step"] == 1.0 / 333.0
    for argv, echoed in (([], "0.013888888888888888"), (["--step", "1e-3"], "0.001")):
        code, stdout, _ = run(capsys, ["rational-check", "--p", "1", "--q", "3"] + argv)
        assert code == 0
        assert parse_summary(stdout)["step"] == echoed


def test_rational_check_default_step_is_exactly_one_over_8_q_squared(capsys, tmp_path):
    # round(1 / (1.0 / (8 q^2))) is 8 q^2 - 8 here, below the guard
    out = tmp_path / "rc.txt"
    argv = ["rational-check", "--p", "1", "--q", "100000007", "--n-terms", "5", "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert parse_summary(stdout)["step"] == "1.2499998250000184e-17"
    sidecar = json.loads((tmp_path / "rc.txt.config.json").read_text())
    assert sidecar["step"] == 1 / (8 * 100000007**2)


def test_rational_check_step_out_of_range_is_usage_error(capsys):
    for step in ("1e-18", "0.02", "0", "nan"):
        code, stdout, err = run(capsys, ["rational-check", "--p", "1", "--q", "3", "--step", step])
        assert code == 2, step
        assert stdout == ""
    assert "overflows int64" in run(
        capsys, ["rational-check", "--p", "1", "--q", "3", "--step", "1e-18"]
    )[2]


def test_rational_check_refuses_a_tiny_step_in_a_short_message(capsys):
    # 1/h has 300 digits: the refusal names the step, not the denominator
    code, stdout, err = run(capsys, ["rational-check", "--p", "1", "--q", "3", "--step", "1e-300"])
    assert code == 2 and stdout == ""
    message = err.strip().splitlines()[-1]
    assert "1e-300" in message and len(message) < 200, message


def test_grid_caps_exit_before_work(capsys, tmp_path, monkeypatch):
    from nodalscore import analytic

    def refuse(*args, **kwargs):
        raise AssertionError("scored a grid above the cap")

    monkeypatch.setattr(analytic, "interval_score_uniform", refuse)
    monkeypatch.setattr(analytic, "square_score_grid", refuse)
    out = tmp_path / "x.csv"
    cases = (
        ["interval", "--n-terms", "4", "--grid", str(1 << 24), "--out", str(out)],
        ["interval", "--n-terms", "4", "--grid", str(10**10), "--out", str(out)],
        ["square", "--lambda-cut", "50", "--grid", "4097x4096", "--out", str(out)],
        ["square", "--lambda-cut", "50", "--grid", "100000x100000", "--out", str(out)],
    )
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "exceeds" in err
    assert not out.exists()


def test_interval_work_cap_exits_before_work(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scored an interval grid above the work cap")

    monkeypatch.setattr(_kernels, "rational_series", refuse)
    out = tmp_path / "x.csv"
    # the first passes the grid cap and would evaluate about 1.8e13 sines
    for grid, n_terms in ((16777215, 1 << 20), (32768, 16384)):
        argv = ["interval", "--n-terms", str(n_terms), "--grid", str(grid), "--out", str(out)]
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "exceeds" in err
    assert not out.exists()
    analytic.check_interval_work(32767, 16384)  # the cap met exactly
    analytic.check_interval_work(16384, 1 << 20)


def test_square_work_cap_exits_before_work(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a square grid above the work cap")

    monkeypatch.setattr(analytic, "square_score_grid", refuse)
    monkeypatch.setattr(analytic, "square_lattice", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    out = tmp_path / "x.csv"
    # all pass the grid cap; the first would run for hours
    for lam, grid in (("4000000", "4096x4096"), ("4194303", "16384x2"), ("4000", "4096x4096")):
        argv = ["square", "--lambda-cut", lam, "--grid", grid, "--out", str(out)]
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "exceeds" in err
    assert not out.exists()
    # the slowest accepted shapes (README), each one row short of the cap
    for mx, my, lam in ((1 << 20, 14, 63.0), (16384, 976, 1023.0)):
        analytic.check_square_work(mx, my, lam)
        with pytest.raises(ValueError, match="exceeds"):
            analytic.check_square_work(mx, my + 1, lam)


@pytest.fixture
def refuse_work(monkeypatch, tmp_path):
    """Inputs for the graph formats, and every scoring or parsing step refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("started work on a bad flag value")

    for module, name in (
        (analytic, "interval_score_uniform"), (analytic, "square_score_grid"),
        (analytic, "square_lattice"), (torus, "build_circle_operator"),
        (pipeline, "parse_edge_list"), (pipeline, "parse_pgm"), (pipeline, "patch_graph"),
    ):
        monkeypatch.setattr(module, name, refuse)
    write_edge_file(tmp_path / "g.csv")
    (tmp_path / "img.pgm").write_bytes(make_pgm_bytes(3, 16))
    monkeypatch.chdir(tmp_path)
    return tmp_path


_TORUS = ["torus", "--y", "1", "--eps", "0.6"]


@pytest.mark.parametrize("argv", [
    ["interval", "--grid", "8", "--n-terms", "0"],
    ["interval", "--grid", "8", "--n-terms", "1048577"],
    ["square", "--grid", "4x4", "--lambda-cut", "1"],
    ["square", "--grid", "4x4", "--lambda-cut", "5000000"],
    ["rational-check", "--p", "2", "--q", "4"],
    ["rational-check", "--p", "0", "--q", "3"],
    ["torus", "--y", "7", "--eps", "0.6", "--n-terms", "2"],
    ["torus", "--y", "1", "--eps", "7", "--n-terms", "2"],
    _TORUS + ["--n-terms", "0"],
    _TORUS + ["--find-n-eps", "-1"],
    _TORUS + ["--n-terms", "2", "--seed", "-1"],
    _TORUS + ["--n-terms", "2", "--seed", "-1", "--n-grid", "576"],
    ["graph", "--input", "g.csv", "--format", "edges", "--n-terms", "0"],
    ["graph", "--input", "img.pgm", "--format", "pgm", "--n-terms", "0"],
    ["graph", "--input", "g.csv", "--format", "edges", "--n-terms", "2", "--seed", "-1"],
    ["graph", "--input", "img.pgm", "--format", "pgm", "--n-terms", "2", "--seed", "-1"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_values_exit_two_before_work(capsys, tmp_path_factory, refuse_work, argv):
    argv = argv + ["--out", "o.csv"]
    code, stdout, err = run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert "error:" in err
    assert sorted(path.name for path in refuse_work.iterdir()) == ["g.csv", "img.pgm"]
    # the same values through --config meet the same checks
    flags = COMMANDS[argv[0]][2]
    values = {f[2:]: flags[f[2:]][0][0](v) for f, v in zip(argv[1::2], argv[2::2])}
    cfg = tmp_path_factory.mktemp("cfg") / "bad.json"
    cfg.write_text(json.dumps(values))
    assert run(capsys, [argv[0], "--config", str(cfg)]) == (code, stdout, err)
    assert sorted(path.name for path in refuse_work.iterdir()) == ["g.csv", "img.pgm"]


@pytest.mark.parametrize("argv, message, library", [
    (_TORUS + ["--n-terms", "2", "--n-grid", "0"], "--n-grid 0 must be >= 64",
     lambda: torus.check_solve(0, torus.PotentialSpec(y=1.0, eps=0.6))),
    (_TORUS + ["--n-terms", "2", "--n-grid", "100000"], "--n-grid 100000 exceeds 16384",
     lambda: torus.check_solve(100000, torus.PotentialSpec(y=1.0, eps=0.6))),
    (["rational-check", "--p", "1", "--q", "3", "--step", "-1"], "--step -1.0 must be positive",
     lambda: analytic.probe_rational_minimum(analytic.RationalPoint(1, 3), 9, -1.0)),
    (["square", "--lambda-cut", "nan", "--grid", "4x4", "--out", "x.csv"],
     "--lambda-cut nan is not a number",
     lambda: analytic.check_square_work(4, 4, math.nan)),
    (["rational-check", "--p", "1", "--q", "3", "--step", "0.02"],
     "--step 0.02 must be at most 1/(8 q^2) = 0.013888888888888888",
     lambda: analytic.probe_rational_minimum(analytic.RationalPoint(1, 3), 9, 0.02)),
    (["square", "--lambda-cut", "5000000", "--grid", "4x4", "--out", "x.csv"],
     "--lambda-cut 5000000.0 must be below 4194304",
     lambda: analytic.check_square_work(4, 4, 5e6)),
], ids=["n-grid-low", "n-grid-high", "step", "lambda-cut-nan", "step-wide", "lambda-cut-high"])
def test_refusals_name_the_flag(capsys, tmp_path, monkeypatch, argv, message, library):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err.splitlines()[-1] == f"nodalscore: error: {message}"
    # library callers keep the library's own names
    with pytest.raises(ValueError) as raised:
        library()
    assert "--" not in str(raised.value)


def _pgm(side):
    return f"P5\n{side} {side}\n255\n".encode() + bytes(i % 256 for i in range(side * side))


# one argv per library check that refuses an input before any work, with
# the last stderr line it exits 2 with
_REFUSALS = [
    (["interval", "--grid", "16777215", "--n-terms", "1048576", "--out", "o.csv"],
     "(grid + 1) x min(grid, n_terms) = 17592186044416 exceeds 536870912"),
    (["square", "--grid", "4000x4000", "--lambda-cut", "4000000", "--out", "o.csv"],
     "square work 1044772125000 on a 4000x4000 grid at lambda_cut 4000000.0 exceeds 1073741824"),
    (["square", "--grid", "4x4", "--lambda-cut", "5000000", "--out", "o.csv"],
     "--lambda-cut 5000000.0 must be below 4194304"),
    (["rational-check", "--p", "2", "--q", "4", "--out", "o.txt"], "2/4 is not in lowest terms"),
    (["rational-check", "--p", "1", "--q", "3", "--n-terms", "0", "--out", "o.txt"],
     "n_terms must be >= 1"),
    (["rational-check", "--p", "1", "--q", "3", "--n-terms", "2000000", "--out", "o.txt"],
     "n_terms > 1048576 exceeds the exact-reduction range"),
    (["rational-check", "--p", "1", "--q", "3", "--step", "0.02", "--out", "o.txt"],
     "--step 0.02 must be at most 1/(8 q^2) = 0.013888888888888888"),
    (["rational-check", "--p", "1", "--q", "3", "--step", "1e-18", "--out", "o.txt"],
     "den * min(den, n_terms) = 2999999999999999616*9 overflows int64"),
    (["rational-check", "--p", "1", "--q", "3", "--step", "1e-300", "--out", "o.txt"],
     "--step 1e-300 is too small: lcm(q, 1/step) overflows int64"),
    (["rational-check", "--p", "1", "--q", "3", "--step", "1e-320", "--out", "o.txt"],
     "--step 1e-320 is too small to snap to 1/d"),
    (["rational-check", "--p", "1", "--q", "1073741824", "--out", "o.txt"],
     "q must be below 1073741824: 8 q^2 overflows int64"),
    (["rational-check", "--p", "1", "--q", str(10**200 + 1), "--out", "o.txt"],
     "q must be below 1073741824: 8 q^2 overflows int64"),
    (["rational-check", "--p", "1", "--step", "1e-3", "--q", str(10**200 + 1), "--out", "o.txt"],
     "--step 0.001 must be at most 1/(8 q^2) = 1.2500000000000000e-401"),
    (["paley", "--p", "7", "--out", "o.csv"],
     "p = 7 is not 1 mod 4 (difference relation not symmetric)"),
    (["paley", "--p", "15", "--out", "o.csv"], "p = 15 is not a prime below 2**31"),
    (["torus", "--y", "7", "--eps", "0.5", "--n-terms", "2", "--out", "o.csv"],
     "y must lie in [0, 2*pi)"),
    (["torus", "--y", "1", "--eps", "0.01", "--n-terms", "2", "--out", "o.csv"],
     "unresolved perturbation: eps < 4 grid spacings"),
    (["torus", "--y", "1", "--eps", "0.6", "--n-grid", "64", "--n-terms", "9", "--out", "o.csv"],
     "pairs must be at most n_grid / 8"),
    (["torus", "--y", "1", "--eps", "0.6", "--n-grid", "16384", "--n-terms", "64", "--out", "o.csv"],
     "pairs x n_grid = 64 x 16384 exceeds 524288"),
    (["torus", "--y", "1", "--eps", "0.6", "--find-n-eps", "3", "--out", "o.csv"],
     "--out needs --n-terms"),
    (["graph", "--input", "182.pgm", "--format", "pgm", "--n-terms", "3", "--out", "o.csv"],
     "image of 33124 pixels exceeds 32768"),
    (["graph", "--input", "100.pgm", "--format", "pgm", "--patch", "16", "--n-terms", "3",
      "--out", "o.csv"],
     "pixels x patch^2 = 10000 x 16^2 = 2560000 exceeds 2097152"),
    (["graph", "--input", "path.csv", "--format", "edges", "--n-terms", "2000", "--out", "o.csv"],
     "wanted pairs x component size = 1000 x 1000 exceeds 524288"),
    (["graph", "--input", "4.pgm", "--format", "pgm", "--knn", "16", "--n-terms", "3",
      "--out", "o.csv"],
     "k_neighbors must be smaller than the pixel count"),
]


@pytest.mark.parametrize("argv, message", _REFUSALS, ids=[" ".join(a[:-2]) for a, _ in _REFUSALS])
def test_refusal_table(capsys, tmp_path, monkeypatch, argv, message):
    for side in (4, 100, 182):
        (tmp_path / f"{side}.pgm").write_bytes(_pgm(side))
    (tmp_path / "path.csv").write_text("".join(f"{i},{i + 1}\n" for i in range(999)))
    inputs = sorted(tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err.splitlines()[-1] == f"nodalscore: error: {message}"
    assert sorted(tmp_path.iterdir()) == inputs


# ---------------------------------------------------------- start-up imports

_SRC = str(Path(nodalscore.__file__).resolve().parents[1])

# runs one command in a cold interpreter and prints its exit code and the
# modules it loaded whose names start with a prefix; in-process tests always
# see a warm sys.modules
_COLD_RUN = """
import contextlib, io, json, sys
from nodalscore.cli import main
prefix = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith(prefix))]))
"""


def run_cold(argv, cwd, prefix="scipy"):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, prefix, *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_CLOSED_FORM_RUNS = [
    ["interval", "--n-terms", "50", "--grid", "64", "--find-minima", "--out", "i.csv"],
    ["square", "--lambda-cut", "100", "--grid", "8x8", "--out", "s.csv", "--pgm", "s.pgm"],
    ["rational-check", "--p", "2", "--q", "5", "--out", "r.txt"],
    ["paley", "--p", "101", "--out", "p.csv"],
    pytest.param(["paley", "--p", "101", "--verify"], id="paley-verify"),
]


@pytest.mark.parametrize("argv", _CLOSED_FORM_RUNS, ids=lambda argv: argv[0])
def test_closed_form_commands_never_load_scipy(tmp_path, argv):
    code, loaded = run_cold(argv, tmp_path)
    assert code == 0
    assert loaded == []


# the kNN thread pool is imported where it runs: at module top it would cost
# every start of these commands a few milliseconds
@pytest.mark.parametrize("argv", _CLOSED_FORM_RUNS, ids=lambda argv: argv[0])
def test_closed_form_commands_never_load_concurrent_futures(tmp_path, argv):
    code, loaded = run_cold(argv, tmp_path, prefix="concurrent")
    assert code == 0
    assert loaded == []


def test_eigen_commands_load_scipy_on_first_use(tmp_path):
    write_edge_file(tmp_path / "g.csv")
    for argv in (
        ["torus", "--y", "2.0", "--eps", "0.6", "--n-grid", "576", "--n-terms", "3",
         "--out", "t.csv"],
        ["graph", "--input", "g.csv", "--format", "edges", "--n-terms", "2", "--out", "g.out"],
    ):
        code, loaded = run_cold(argv, tmp_path)
        assert code == 0, argv
        assert "scipy.sparse" in loaded, argv


# ------------------------------------------------------ --config value types


def config_run(capsys, tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run(capsys, argv + ["--config", str(path)])


def test_config_type_errors_interval_square(capsys, tmp_path):
    out = str(tmp_path / "o.csv")
    bad = (
        (["interval", "--grid", "8", "--out", out], {"n-terms": [3]}, "n-terms"),
        (["interval", "--n-terms", "8", "--out", out], {"grid": 8.5}, "grid"),
        (["interval", "--n-terms", "8", "--out", out], {"grid": "8"}, "grid"),
        (["interval", "--n-terms", "8", "--grid", "8"], {"out": 5}, "out"),
        (["interval", "--n-terms", "8", "--grid", "8", "--out", out],
         {"find-minima": 1}, "find-minima"),
        (["square", "--grid", "5x5", "--out", out], {"lambda-cut": "50"}, "lambda-cut"),
        (["square", "--grid", "5x5", "--out", out], {"lambda-cut": True}, "lambda-cut"),
        (["square", "--lambda-cut", "50", "--out", out], {"grid": {"x": 5}}, "grid"),
        (["square", "--grid", "5x5", "--out", out], {"lambda-cut": 10**400}, "lambda-cut"),
    )
    for argv, cfg, key in bad:
        code, _, err = config_run(capsys, tmp_path, argv, cfg)
        assert code == 2, cfg
        assert f"config key '{key}'" in err, err
    code, stdout, _ = config_run(
        capsys, tmp_path, ["interval", "--out", out], {"n-terms": 8.0, "grid": 8}
    )
    assert code == 0
    assert parse_summary(stdout)["n_terms"] == "8"


def test_config_type_errors_rational_paley(capsys, tmp_path):
    bad = (
        (["rational-check", "--q", "5"], {"p": True}, "p"),
        (["rational-check", "--p", "2", "--q", "5"], {"step": "0.001"}, "step"),
        (["rational-check", "--p", "2"], {"q": 5.5}, "q"),
        (["paley"], {"p": [13]}, "p"),
        (["paley"], {"p": 13.9}, "p"),
        (["paley"], {"p": "13"}, "p"),
        (["paley", "--p", "13"], {"verify": "yes"}, "verify"),
    )
    for argv, cfg, key in bad:
        code, stdout, err = config_run(capsys, tmp_path, argv, cfg)
        assert code == 2, cfg
        assert stdout == ""
        assert f"config key '{key}'" in err, err
    code, stdout, _ = config_run(capsys, tmp_path, ["paley"], {"p": 13.0, "out": None})
    assert code == 0
    assert parse_summary(stdout)["p"] == "13"


def test_config_type_errors_torus_graph(capsys, tmp_path):
    edges = tmp_path / "g.csv"
    write_edge_file(edges)
    out = str(tmp_path / "o.csv")
    graph = ["graph", "--input", str(edges), "--format", "edges", "--out", out]
    bad = (
        (["torus", "--y", "2.0", "--n-terms", "3"], {"eps": {"a": 1}}, "eps"),
        (["torus", "--y", "2.0", "--eps", "0.6"], {"n-terms": 2.5}, "n-terms"),
        (["torus", "--y", "2.0", "--eps", "0.6", "--n-terms", "3"], {"seed": "1"}, "seed"),
        (graph, {"n-terms": 2, "knn": 16.5}, "knn"),
        (graph, {"n-terms": 2, "bandwidth": [1.0]}, "bandwidth"),
        (graph + ["--n-terms", "2"], {"laplacian": 1}, "laplacian"),
        (graph + ["--n-terms", "2"], {"pgm": False}, "pgm"),
    )
    for argv, cfg, key in bad:
        code, _, err = config_run(capsys, tmp_path, argv, cfg)
        assert code == 2, cfg
        assert f"config key '{key}'" in err, err
    code, _, _ = config_run(capsys, tmp_path, graph, {"n-terms": 2, "bandwidth": 0.5})
    assert code == 0


@pytest.mark.parametrize(
    "data",
    [b'\xff\xfe{"p": 13}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_config_undecodable_is_usage_error(capsys, tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    code, stdout, err = run(capsys, ["paley", "--config", str(cfg)])
    assert code == 2
    assert stdout == ""
    assert "cannot read --config" in err


def test_module_runs_as_a_script(tmp_path):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", "nodalscore.cli"]
    proc = subprocess.run(
        cmd + ["paley", "--p", "13"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_summary(proc.stdout)["p"] == "13"
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "usage" in proc.stderr


# -------------------------------------------- the flag table is the one source

_TABLE_FLAGS = [(name, flag) for name, (_, _, flags) in COMMANDS.items() for flag in flags]
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.integers(min_value=-(10**6), max_value=10**6).map(float)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_SAMPLE_ARG = {int: "3", float: "1.5", str: "x"}


def _refusal(key, value, allowed):
    """The InputRefused text _merge gives for a value of the flag's kind, None when allowed."""
    if allowed is None or value is None:
        return None
    if isinstance(allowed[0], str):
        return None if value in allowed else (
            f"--{key} must be {', '.join(allowed[:-1])} or {allowed[-1]}"
        )
    low, high = allowed
    if value < low:
        return f"--{key} {value} must be >= {low}"
    if high is not None and value > high:
        return f"--{key} {value} exceeds {high}"
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_TABLE_FLAGS), _JSON_VALUES)
@example(("paley", "p"), 13.0)
@example(("torus", "y"), 2)
@example(("square", "lambda-cut"), 1)
@example(("graph", "bandwidth"), float("nan"))
@example(("square", "lambda-cut"), 10**400)
@example(("torus", "seed"), -1.0)
@example(("interval", "grid"), 10**400)
@example(("graph", "format"), "x")
def test_config_value_merges_to_its_kind_or_exits_2(tmp_path_factory, command_flag, value):
    command, key = command_flag
    flags = COMMANDS[command][2]
    kinds, default, allowed = flags[key]
    # the other required flags come from the command line with allowed
    # values, so only key can fail
    argv = [command]
    for flag, (flag_kinds, flag_default, flag_allowed) in flags.items():
        if flag_default is REQUIRED and flag != key:
            sample = str(flag_allowed[0]) if flag_allowed else _SAMPLE_ARG[flag_kinds[0]]
            argv += [f"--{flag}", sample]
    cfg = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    cfg.write_text(json.dumps({key: value}))
    parser = build_parser()
    args = parser.parse_args(argv + ["--config", str(cfg)])
    try:
        merged = _merge(args, flags)
    except InputRefused as exc:
        message = str(exc)
        if f"config key '{key}'" in message or (
            value is None and f"--{key} is required" in message
        ):
            return
        # a value of the flag's kind is refused only outside its allowed values,
        # an integral float for an integer flag as the int and an integer for
        # a float flag as the float
        if int in kinds and isinstance(value, float) and value.is_integer():
            value = int(value)
        elif int not in kinds and isinstance(value, int):
            value = float(value)
        assert message == _refusal(key, value, allowed), message
        return
    got = merged[key]
    assert _refusal(key, got, allowed) is None
    if value is None:
        assert got == default
    else:
        assert isinstance(got, kinds), (got, kinds)
        assert bool in kinds or not isinstance(got, bool)


# one small accepted run per subcommand; True is a switch given without a
# value, and square's integer lambda-cut is the float 100.0 either way
_ONE_RUN = {
    "interval": {"n-terms": 50, "grid": 64, "find-minima": True, "out": "o.csv"},
    "square": {"lambda-cut": 100, "grid": "8x8", "out": "o.csv", "pgm": "o.pgm"},
    "rational-check": {"p": 2, "q": 5, "out": "o.txt"},
    "paley": {"p": 101, "out": "o.csv"},
    "torus": {"y": 2.0, "eps": 0.6, "n-grid": 576, "n-terms": 2, "out": "o.csv"},
    "graph": {"input": "g.csv", "format": "edges", "n-terms": 2, "out": "o.csv"},
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_flags_and_config_give_the_same_run(capsys, tmp_path, monkeypatch, command):
    values = _ONE_RUN[command]
    argv = [command]
    for flag, value in values.items():
        argv += [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    results = []
    for way, way_argv in (("flags", argv), ("config", [command, "--config", str(cfg)])):
        work = tmp_path / way
        work.mkdir()
        write_edge_file(work / "g.csv")
        monkeypatch.chdir(work)
        code, stdout, _ = run(capsys, way_argv)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        results.append((code, stdout, files))
    assert results[0][0] == 0
    assert f"{values['out']}.config.json" in results[0][2]
    assert results[0] == results[1]


# one value below and one above every flag's allowed bounds, or one
# unknown string
_OUTSIDE = [
    (command, flag, value)
    for command, (_, _, flags) in COMMANDS.items()
    for flag, (_, _, allowed) in flags.items()
    if allowed is not None
    for value in (
        ["bogus"] if isinstance(allowed[0], str)
        else [allowed[0] - 1] + ([allowed[1] + 1] if allowed[1] is not None else [])
    )
]


@pytest.mark.parametrize("command, flag, value", _OUTSIDE, ids=str)
def test_flag_and_config_meet_one_refusal(capsys, tmp_path, monkeypatch, command, flag, value):
    values = dict(_ONE_RUN[command], **{flag: value})
    argv = [command]
    for key, given in values.items():
        argv += [f"--{key}"] if given is True else [f"--{key}", str(given)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    work = tmp_path / "work"
    work.mkdir()
    write_edge_file(work / "g.csv")
    monkeypatch.chdir(work)
    by_flag = run(capsys, argv)
    assert by_flag[0] == 2 and by_flag[1] == ""
    assert by_flag[2].endswith(f"error: {_refusal(flag, value, COMMANDS[command][2][flag][2])}\n")
    assert run(capsys, [command, "--config", str(cfg)]) == by_flag
    assert [path.name for path in work.iterdir()] == ["g.csv"]


def test_help_names_allowed_values(capsys):
    code, stdout, _ = run(capsys, ["graph", "--help"])
    assert code == 0
    assert "--format {edges,pgm,obj}" in stdout
    assert "--laplacian {sym,comb}" in stdout


# main builds one parser per process and reuses it; no call, error or help
# may leave anything in it that changes the next call
_REUSE_CASES = [
    [],
    ["bogus"],
    ["-h"],
    ["paley", "-h"],
    ["paley"],  # missing required flag
    ["paley", "--p", "13", "--bogus"],  # unknown flag
    ["paley", "--p", "13", "stray"],  # stray positional
    ["interval", "--n-t", "5", "--grid", "8", "--out", "o.csv"],  # abbreviated flag
    ["torus", "--y", "2", "--eps", "0.6", "--n-grid", "64", "--n-terms", "2", "--find-n-eps", "2"],
    ["paley", "--p", "13", "--config", "list.json"],
    ["rational-check", "--p", "1", "--q", "3"],
]


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1]")
    fresh = []
    for argv in _REUSE_CASES:
        cli._shared_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert [run(capsys, argv) for argv in _REUSE_CASES] == fresh
    assert [code for code, _, _ in fresh] == [2, 2, 0, 0, 2, 2, 2, 0, 2, 2, 0]


# 100153: residue and non-residue texts of one width; 100829: one byte apart
@pytest.mark.parametrize("p", [5, 101, 10009, 65537, 100153, 100829])
def test_paley_out_bytes_equal_the_per_vertex_score_csv(capsys, tmp_path, p):
    out = tmp_path / "paley.csv"
    code, _, _ = run(capsys, ["paley", "--p", str(p), "--out", str(out)])
    assert code == 0
    want = tmp_path / "want.csv"
    pipeline.write_score_csv(paley.paley_score_closed_form(p).per_vertex.real, want)
    assert out.read_bytes() == want.read_bytes()
