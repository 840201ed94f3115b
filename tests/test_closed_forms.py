"""Solvers and scores against closed-form spectra of paths and cycles.

With unit weights on n vertices (Chung, *Spectral Graph Theory*, 1997;
Strang, "The discrete cosine transform", SIAM Review 41, 1999):

- path, combinatorial: 2(1 - cos(pi k / n)), vector cos(pi k (j + 1/2) / n);
- path, sym-normalized: 1 - cos(pi k / (n - 1));
- cycle, combinatorial: 2(1 - cos(2 pi k / n)), each k >= 1 twice;
- periodic s x s grid, sym-normalized: (2 - cos(2 pi i / s) - cos(2 pi j / s)) / 2.

Each is written as a squared sine below, which has no cancellation at
small k.  n = 64 takes the dense solver and n = 600 and 4096 the
iterative one.
"""

import numpy as np
import pytest

from nodalscore.eigensolve import DENSE_FALLBACK_N, RESIDUAL_TOL, dense_sym_eig, lanczos_smallest
from nodalscore.pipeline import laplacian, parse_edge_list, score_graph

SIZES = [64, 600, 4096]
PAIRS = 9  # the zero mode and 8 more: four whole pairs on the cycle


def edge_list(n, cycle):
    rows = [f"{j},{j + 1}" for j in range(n - 1)] + ([f"{n - 1},0"] if cycle else [])
    return parse_edge_list("\n".join(rows) + "\n")


def path_comb_values(n, k):
    return 4.0 * np.sin(np.pi * k / (2 * n)) ** 2


def path_sym_values(n, k):
    return 2.0 * np.sin(np.pi * k / (2 * (n - 1))) ** 2


def cycle_values(n, k):
    # 0, then every k >= 1 twice
    return 4.0 * np.sin(np.pi * ((k + 1) // 2) / n) ** 2


def solve(lap, m):
    if lap.shape[0] <= DENSE_FALLBACK_N:
        return dense_sym_eig(lap.toarray(), m=m)
    return lanczos_smallest(lap, m, seed=0)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "cycle, kind, closed_form",
    [
        (False, "combinatorial", path_comb_values),
        (False, "sym-normalized", path_sym_values),
        (True, "combinatorial", cycle_values),
    ],
    ids=["path-comb", "path-sym", "cycle-comb"],
)
def test_eigenvalues_match_the_closed_form(n, cycle, kind, closed_form):
    report = solve(laplacian(edge_list(n, cycle), kind), PAIRS)
    values, vectors = report.require(f"a {n}-vertex {kind} graph")
    assert report.method == ("dense" if n <= DENSE_FALLBACK_N else "shift-invert")
    assert values.shape == (PAIRS,) and vectors.shape == (n, PAIRS)
    assert np.abs(values - closed_form(n, np.arange(PAIRS))).max() <= 1e-14
    assert report.residuals.max() <= RESIDUAL_TOL


@pytest.mark.parametrize("n", SIZES)
def test_path_score_matches_the_cosine_field(n):
    n_terms = PAIRS - 1
    k = np.arange(1, PAIRS)
    phi = np.abs(np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n))
    want = (phi / phi.max(axis=0)) @ path_comb_values(n, k) ** -0.5
    got = score_graph(edge_list(n, False), n_terms, kind="combinatorial")
    assert np.abs(got - want).max() <= 1e-9 * want.max()


def test_periodic_grid_past_the_fixed_band_cap_takes_shift_invert():
    # s = 152: the reverse Cuthill-McKee band is 303, over the fixed cap of
    # 300 but under 3 sqrt(n) = 456; on the 160 x 160 grid the Gershgorin
    # route took 4.1 s end to end, the shift-invert solve about 0.7 s
    s = 152
    idx = np.arange(s * s).reshape(s, s)
    right, down = np.roll(idx, -1, axis=1), np.roll(idx, -1, axis=0)
    rows = [f"{u},{v}" for w in (right, down) for u, v in zip(idx.ravel(), w.ravel())]
    graph = parse_edge_list("\n".join(rows) + "\n")
    report = lanczos_smallest(laplacian(graph, "sym-normalized"), PAIRS, seed=0)
    values, _ = report.require("a periodic 152 x 152 grid")
    assert report.method == "shift-invert"
    i, j = np.meshgrid(np.arange(s), np.arange(s))
    want = np.sort((2.0 - np.cos(2 * np.pi * i / s) - np.cos(2 * np.pi * j / s)).ravel() / 2)
    assert np.abs(values - want[:PAIRS]).max() <= 1e-14
