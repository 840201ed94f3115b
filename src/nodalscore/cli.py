"""Command line front end.

Subcommands: interval, square, rational-check, paley, torus, graph, each
with its flags declared once in COMMANDS.  Every flag can also come from a
JSON file via --config (explicit flags win), and every run that writes an
output file also writes `<out>.config.json` with the effective
configuration.  Summaries are stable key=value lines on
stdout, and each library warning is one `warning: <message>` line on
stderr.  Exit codes: 0 on success, 2 on usage errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import analytic, paley, pipeline, torus
from ._kernels import MAX_GRID_POINTS
from .core import find_strict_local_minima

__all__ = ["main", "entry"]


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _summary(items):
    print(" ".join(f"{k}={_fmt(v)}" for k, v in items))


def _write_config(out_path, effective):
    path = f"{out_path}.config.json"
    with open(path, "w") as fh:
        json.dump(effective, fh, sort_keys=True, indent=2)
        fh.write("\n")


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _config_value(parser, key, value, kinds):
    """value when its JSON type fits one of the flag's kinds, else a usage error.

    An integral float passes for an integer flag (as the int); a bool is
    never a number.
    """
    if isinstance(value, bool):
        if bool in kinds:
            return value
    elif isinstance(value, str):
        if str in kinds:
            return value
    elif isinstance(value, int):
        if int in kinds or (float in kinds and abs(value) <= sys.float_info.max):
            return value
    elif isinstance(value, float):
        if float in kinds:
            return value
        if int in kinds and value.is_integer():
            return int(value)
    wanted = " or ".join(_KIND_NAMES[kind] for kind in kinds)
    parser.error(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")


# stands in for the default of a flag that must be set by flag or config
REQUIRED = object()


def _merge(args, parser, flags):
    """Fill unset flags from --config JSON; explicit flags take precedence.

    flags maps each flag to (kinds, default): the JSON types its config value
    may have, and its value when neither the flag nor the config sets it
    (a JSON null leaves it unset).  After the type checks, the first flag
    still at REQUIRED, in table order, is a usage error.
    """
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: bad UTF-8 or bad JSON; RecursionError: nesting too deep
            parser.error(f"cannot read --config: {exc}")
        if not isinstance(cfg, dict):
            parser.error("--config must hold a JSON object")
        unknown = set(cfg) - set(flags)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, (kinds, default) in flags.items():
        cli_val = getattr(args, key.replace("-", "_"))
        if cli_val is not None:
            merged[key] = cli_val
        elif cfg.get(key) is not None:
            merged[key] = _config_value(parser, key, cfg[key], kinds)
        else:
            merged[key] = default
    for key, value in merged.items():
        if value is REQUIRED:
            parser.error(f"--{key} is required (flag or config)")
    return merged


def _parse_grid_2d(parser, text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        parser.error("--grid must look like MxM")
    try:
        mx, my = int(parts[0]), int(parts[1])
    except ValueError:
        parser.error("--grid must look like MxM")
    if mx < 2 or my < 2:
        parser.error("--grid sides must be >= 2")
    if mx * my > MAX_GRID_POINTS:
        parser.error(f"--grid {mx}x{my} exceeds {MAX_GRID_POINTS} points")
    return mx, my


def _cmd_interval(merged, parser):
    n_terms, grid = merged["n-terms"], merged["grid"]
    if grid < 1:
        parser.error("--grid must be >= 1")
    if grid + 1 > MAX_GRID_POINTS:
        parser.error(f"--grid {grid} exceeds {MAX_GRID_POINTS} points")
    try:
        analytic.check_interval_work(grid, n_terms)
    except ValueError as exc:
        parser.error(str(exc))
    xs = np.arange(grid + 1) / grid
    values = analytic.interval_score_uniform(grid, n_terms)
    out = merged["out"]
    pipeline.write_score_csv(values, out)
    _write_config(out, merged)
    items = [
        ("points", grid + 1),
        ("n_terms", n_terms),
        ("min_index", int(np.argmin(values))),
        ("min_x", float(xs[np.argmin(values)])),
        ("min_value", float(values.min())),
        ("max_value", float(values.max())),
    ]
    if merged["find-minima"]:
        minima = find_strict_local_minima(values)
        items.append(("minima_count", minima.size))
        items.append(("minima_x", ";".join(format(x, ".17g") for x in xs[minima])))
    _summary(items)
    return 0


def _cmd_square(merged, parser):
    mx, my = _parse_grid_2d(parser, merged["grid"])
    lam = float(merged["lambda-cut"])
    try:
        analytic.check_square_work(mx, my, lam)
    except ValueError as exc:
        parser.error(str(exc))
    # interior lattice of the open square; the boundary scores 0 trivially
    xs = np.arange(1, mx + 1) / (mx + 1)
    ys = np.arange(1, my + 1) / (my + 1)
    gx, gy = np.meshgrid(xs, ys)
    values = analytic.square_score_grid(gx.ravel(), gy.ravel(), lam)
    out = merged["out"]
    pipeline.write_score_csv(values, out)
    _write_config(out, merged)
    if merged["pgm"]:
        pipeline.write_heatmap_pgm(values, mx, my, merged["pgm"])
    amin = int(np.argmin(values))
    _summary(
        [
            ("points", values.size),
            ("lambda_cut", lam),
            ("argmin_x", float(gx.ravel()[amin])),
            ("argmin_y", float(gy.ravel()[amin])),
            ("min_value", float(values.min())),
            ("max_value", float(values.max())),
        ]
    )
    return 0


def _cmd_rational_check(merged, parser):
    point = analytic.RationalPoint(merged["p"], merged["q"])
    n_terms = merged["n-terms"] if merged["n-terms"] is not None else point.q**2
    step = float(merged["step"]) if merged["step"] is not None else 1.0 / (8 * point.q**2)
    try:
        probe = analytic.probe_rational_minimum(point, n_terms, step)
    except ValueError as exc:
        parser.error(str(exc))
    merged["n-terms"], merged["step"] = n_terms, probe.step
    items = [
        ("p", point.p),
        ("q", point.q),
        ("n_terms", n_terms),
        ("step", probe.step),
        ("strict_minimum", probe.strict),
        ("center_value", probe.center_value),
    ]
    if merged["out"]:
        with open(merged["out"], "wb") as fh:
            fh.write(" ".join(f"{k}={_fmt(v)}" for k, v in items).encode() + b"\n")
        _write_config(merged["out"], merged)
    _summary(items)
    return 0


def _cmd_paley(merged, parser):
    p = merged["p"]
    if p % 4 != 1 or p < 5:
        parser.error(f"--p {p} must be a prime congruent to 1 mod 4")
    if merged["verify"] and p > paley.NUMERIC_MAX_PRIME:
        parser.error(f"--verify needs --p <= {paley.NUMERIC_MAX_PRIME}")
    if merged["out"] and p > paley.PER_VERTEX_MAX_PRIME:
        parser.error(f"--out needs --p <= {paley.PER_VERTEX_MAX_PRIME}")
    try:
        score = paley.paley_score_closed_form(p)
    except ValueError as exc:
        parser.error(str(exc))
    items = [
        ("p", p),
        ("s_zero", score.s_zero.real),
        ("s_residue", score.s_residue.real),
        ("s_nonresidue", score.s_nonresidue.real),
        ("distinct_values", 3),
    ]
    if merged["verify"]:
        numeric = paley.paley_score_numeric(p)
        deviation = float(np.abs(numeric.per_vertex - score.per_vertex).max())
        items.append(("verify_max_deviation", deviation))
        items.append(("verify_pass", deviation <= 1e-10))
    if merged["out"]:
        # the field holds three values, picked per row by class (0 vertex
        # zero, 1 residue, 2 non-residue); same bytes as write_score_csv of
        # score.per_vertex.real
        values = (score.s_zero.real, score.s_residue.real, score.s_nonresidue.real)
        classes = np.where(paley.PaleyField(p).residue_mask(), np.int8(1), np.int8(2))
        classes[0] = 0
        pipeline.write_class_csv(merged["out"], values, classes)
        _write_config(merged["out"], merged)
    _summary(items)
    return 0


def _cmd_torus(merged, parser):
    if (merged["n-terms"] is None) == (merged["find-n-eps"] is None):
        parser.error("set exactly one of --n-terms and --find-n-eps")
    bump = {"constant": "constant-well", "cosine": "cosine-well"}.get(merged["bump"])
    if bump is None:
        parser.error("--bump must be constant or cosine")
    spec = torus.PotentialSpec(y=float(merged["y"]), eps=float(merged["eps"]), bump=bump)
    n_grid = merged["n-grid"]
    if n_grid > torus.MAX_N_GRID:
        parser.error(f"--n-grid {n_grid} exceeds {torus.MAX_N_GRID}")
    pairs = merged["n-terms"] if merged["n-terms"] is not None else merged["find-n-eps"]
    try:
        torus.check_solve_work(n_grid, pairs)
    except ValueError as exc:
        parser.error(str(exc))
    items = [("y", spec.y), ("eps", spec.eps), ("bump", merged["bump"]), ("n_grid", n_grid)]
    if merged["find-n-eps"] is not None:
        n_eps = torus.find_N_eps(spec, n_grid, merged["find-n-eps"], seed=merged["seed"])
        items.append(("n_eps", n_eps))
    else:
        n_terms = merged["n-terms"]
        values = torus.torus_score(n_grid, spec, n_terms, seed=merged["seed"])
        grid = np.arange(n_grid) * (2.0 * math.pi / n_grid)
        amin = int(np.argmin(values))
        items += [
            ("n_terms", n_terms),
            ("argmin_index", amin),
            ("argmin_x", float(grid[amin])),
            ("in_window", bool(torus.window_mask(grid[amin : amin + 1], spec)[0])),
            ("min_value", float(values.min())),
        ]
        if merged["out"]:
            pipeline.write_score_csv(values, merged["out"])
            _write_config(merged["out"], merged)
    _summary(items)
    return 0


def _cmd_graph(merged, parser):
    fmt = merged["format"]
    if fmt not in ("edges", "pgm", "obj"):
        parser.error("--format must be edges, pgm or obj")
    kind = {"sym": "sym-normalized", "comb": "combinatorial"}.get(merged["laplacian"])
    if kind is None:
        parser.error("--laplacian must be sym or comb")
    if merged["pgm"] and fmt != "pgm":
        parser.error("--pgm output needs --format pgm input")
    image = None
    if fmt == "edges":
        with open(merged["input"], encoding="utf-8") as fh:
            graph = pipeline.parse_edge_list(fh.read())
    elif fmt == "obj":
        with open(merged["input"], encoding="utf-8") as fh:
            graph = pipeline.mesh_graph(pipeline.parse_obj(fh.read()))
    else:
        # usage errors, refused before the input is read
        bandwidth = merged["bandwidth"]
        try:
            if bandwidth != "auto":
                bandwidth = float(bandwidth)
            cfg = pipeline.PatchGraphConfig(
                patch_size=merged["patch"], k_neighbors=merged["knn"], bandwidth=bandwidth
            )
        except ValueError as exc:
            parser.error(f"bad --patch, --knn or --bandwidth: {exc}")
        with open(merged["input"], "rb") as fh:
            data = fh.read()
        try:
            image = pipeline.parse_pgm(data)
            pipeline.check_patch_work(image.width * image.height, cfg.patch_size)
        except pipeline.WorkCapError as exc:
            parser.error(str(exc))
        graph = pipeline.patch_graph(image, cfg)
    try:
        values = pipeline.score_graph(graph, merged["n-terms"], kind=kind, seed=merged["seed"])
    except pipeline.WorkCapError as exc:
        parser.error(str(exc))
    out = merged["out"]
    pipeline.write_score_csv(values, out)
    _write_config(out, merged)
    if merged["pgm"]:
        pipeline.write_heatmap_pgm(values, image.width, image.height, merged["pgm"])
    _summary(
        [
            ("n_vertices", graph.n),
            ("n_edges", graph.n_edges),
            ("n_terms", merged["n-terms"]),
            ("laplacian", merged["laplacian"]),
            ("argmax_index", int(np.argmax(values))),
            ("argmax_value", float(values.max())),
            ("argmin_index", int(np.argmin(values))),
            ("min_value", float(values.min())),
        ]
    )
    return 0


# Every flag of every subcommand, declared once: name -> (help, handler,
# {flag: (kinds, default)}).  kinds are the JSON types a --config value may
# have and kinds[0] is the command-line type; a (bool,) flag is a switch.
_SEED = ((int,), 0)
COMMANDS = {
    "interval": ("interval score on a uniform grid", _cmd_interval, {
        "n-terms": ((int,), REQUIRED),
        "grid": ((int,), REQUIRED),
        "find-minima": ((bool,), False),
        "out": ((str,), REQUIRED),
    }),
    "square": ("square score on an interior grid", _cmd_square, {
        "lambda-cut": ((float,), REQUIRED),
        "grid": ((str,), REQUIRED),
        "out": ((str,), REQUIRED),
        "pgm": ((str,), None),
    }),
    "rational-check": ("strict-minimum check at p/q", _cmd_rational_check, {
        "p": ((int,), REQUIRED),
        "q": ((int,), REQUIRED),
        "n-terms": ((int,), None),
        "step": ((float,), None),
        "out": ((str,), None),
    }),
    "paley": ("three-valued Paley graph score", _cmd_paley, {
        "p": ((int,), REQUIRED),
        "verify": ((bool,), False),
        "out": ((str,), None),
    }),
    "torus": ("perturbed circle operator score", _cmd_torus, {
        "y": ((float,), REQUIRED),
        "eps": ((float,), REQUIRED),
        "bump": ((str,), "constant"),
        "n-grid": ((int,), 512),
        "n-terms": ((int,), None),
        "find-n-eps": ((int,), None),
        "out": ((str,), None),
        "seed": _SEED,
    }),
    "graph": ("score a graph from a file", _cmd_graph, {
        "input": ((str,), REQUIRED),
        "format": ((str,), REQUIRED),
        "laplacian": ((str,), "sym"),
        "knn": ((int,), 16),
        "patch": ((int,), 8),
        "bandwidth": ((str, float), "auto"),
        "n-terms": ((int,), REQUIRED),
        "out": ((str,), REQUIRED),
        "pgm": ((str,), None),
        "seed": _SEED,
    }),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nodalscore",
        description="spectral anomaly scores on intervals, squares, graphs and the circle",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag, (kinds, _) in flags.items():
            if kinds == (bool,):
                sub.add_argument(f"--{flag}", action="store_true", default=None)
            else:
                sub.add_argument(f"--{flag}", type=kinds[0])
        sub.add_argument("--config", help="JSON file with flag defaults")
    return parser


# one parser per process: parsing, _merge and parser.error only read it
_shared_parser = functools.cache(build_parser)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = _shared_parser()
    # every library warning, on every call, as one line with no source
    # location: Python's default shows each location once per process and
    # echoes the install path and source line
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            _, handler, flags = COMMANDS[args.command]
            return handler(_merge(args, parser, flags), parser)
        except SystemExit as exc:
            return exc.code if exc.code is not None else 0
        except (ValueError, RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
