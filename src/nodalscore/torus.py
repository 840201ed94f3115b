"""Perturbed Schroedinger operator on the circle of circumference 2 pi.

The potential is the constant 1 outside a window of width eps at y and

    V(x) = 1 + eps * bump((x - y) / eps)        for y <= x <= y + eps,

with a strictly negative bump profile.  Discretized with the periodic
three-point second difference, the unperturbed eigenvalues k^2 + 1 are
double (sin and cos); the window splits each pair.  The score sums the N
split pairs and excludes the ground mode: the well localizes the ground
state, so its normalized magnitude peaks inside the window and would drag
the global minimum to the antipodal point, while the pair terms alone
attain their minimum inside the window for N up to a perturbation-dependent
cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputRefused, compute_score_field
from .eigensolve import DENSE_FALLBACK_N, dense_sym_eig, lanczos_smallest

__all__ = [
    "PotentialSpec",
    "CircleOperator",
    "BUMP_PROFILES",
    "build_circle_operator",
    "torus_score",
    "find_N_eps",
    "window_mask",
    "MAX_N_GRID",
    "MAX_SOLVE_WORK",
    "check_solve",
]

TWO_PI = 2.0 * math.pi

# largest circle grid: the solve's time and memory grow faster than n_grid
# (10-26 s across runs and 320 MB at this cap for 4 pairs, README)
MAX_N_GRID = 1 << 14
# pairs x grid points of one solve: the Krylov basis holds about
# 20 * pairs + 60 vectors of n_grid floats; runs near this cap took up to
# about 20 s (README)
MAX_SOLVE_WORK = 1 << 19
# grid points this close past the window's far end count as inside it
_WINDOW_SLACK = 1e-12


def _constant_well(t):
    return -np.ones_like(t)


def _cosine_well(t):
    return -(0.6 + 0.4 * np.cos(2.0 * np.pi * t))


BUMP_PROFILES = {
    "constant-well": _constant_well,
    "cosine-well": _cosine_well,
}


@dataclass(frozen=True)
class PotentialSpec:
    """Window position y, width eps, bump profile name, and a weight knob.

    well_scale rescales the bump (0 gives the degenerate test hook V = 1
    with the window still placed); the profile itself must be strictly
    negative on [0, 1].
    """

    y: float
    eps: float
    bump: str = "constant-well"
    well_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.y < TWO_PI:
            raise InputRefused("y must lie in [0, 2*pi)")
        if not 0.0 < self.eps < TWO_PI:
            raise InputRefused("eps must lie in (0, 2*pi)")
        if self.bump not in BUMP_PROFILES:
            raise InputRefused(f"unknown bump profile {self.bump!r}")
        if self.well_scale < 0.0:
            raise InputRefused("well_scale must be nonnegative")
        probe = BUMP_PROFILES[self.bump](np.linspace(0.0, 1.0, 257))
        if not (probe < 0.0).all():
            raise InputRefused("bump profile must be strictly negative on [0, 1]")


def window_mask(xs, spec):
    """Boolean mask of grid points inside [y, y + eps], wrapping mod 2 pi."""
    offset = np.mod(np.asarray(xs, dtype=np.float64) - spec.y, TWO_PI)
    return offset <= spec.eps + _WINDOW_SLACK


@dataclass
class CircleOperator:
    """Discretized -d^2/dx^2 + V on n_grid periodic points."""

    n_grid: int
    h: float
    matrix: "scipy.sparse.csr_matrix"
    potential: np.ndarray
    grid: np.ndarray


def check_solve(n_grid, spec, n_pairs=0):
    """InputRefused unless n_pairs split pairs on this grid and window may be solved.

    n_grid lies in 64..MAX_N_GRID; the window covers at least 4 grid
    spacings, since the stencil does not resolve a narrower one;
    n_pairs <= n_grid / 8, so the top retained mode is resolved; and
    n_pairs * n_grid <= MAX_SOLVE_WORK.
    """
    if n_grid < 64:
        raise InputRefused("n_grid must be at least 64")
    if n_grid > MAX_N_GRID:
        raise InputRefused(f"n_grid {n_grid} exceeds {MAX_N_GRID}")
    if spec.eps < 4.0 * (TWO_PI / n_grid):
        raise InputRefused("unresolved perturbation: eps < 4 grid spacings")
    if n_pairs > n_grid // 8:
        raise InputRefused("pairs must be at most n_grid / 8")
    work = n_pairs * n_grid
    if work > MAX_SOLVE_WORK:
        raise InputRefused(f"pairs x n_grid = {n_pairs} x {n_grid} exceeds {MAX_SOLVE_WORK}")


def build_circle_operator(n_grid, spec):
    """Periodic second-difference plus diagonal potential, as a CSR matrix.

    n_grid and spec.eps must pass check_solve.
    """
    n_grid = int(n_grid)
    check_solve(n_grid, spec)
    h = TWO_PI / n_grid
    xs = np.arange(n_grid) * h
    # V sampled on the grid, exactly 1 outside the window
    v = np.ones(n_grid)
    mask = window_mask(xs, spec)
    t = np.mod(xs[mask] - spec.y, TWO_PI) / spec.eps
    v[mask] = 1.0 + spec.well_scale * spec.eps * BUMP_PROFILES[spec.bump](t)
    inv_h2 = 1.0 / (h * h)
    # imported here, not at module top: scipy costs every interpreter start
    # about 0.3 s, and the closed-form subcommands build no operator
    import scipy.sparse as sp

    idx = np.arange(n_grid)
    up = np.roll(idx, -1)
    off = np.full(n_grid, -inv_h2)
    matrix = sp.coo_matrix(
        (
            np.concatenate([2.0 * inv_h2 + v, off, off]),
            (np.concatenate([idx, idx, up]), np.concatenate([idx, up, idx])),
        ),
        shape=(n_grid, n_grid),
    ).tocsr()
    matrix.eliminate_zeros()
    return CircleOperator(n_grid=n_grid, h=h, matrix=matrix, potential=v, grid=xs)


def _smallest_pairs(matrix, m, seed):
    n = matrix.shape[0]
    if n <= DENSE_FALLBACK_N:
        report = dense_sym_eig(matrix.toarray(), m=m)
    else:
        report = lanczos_smallest(matrix, m, seed=seed)
    return report.require(f"the circle operator (n={n})")


def torus_score(n_grid, spec, n_pairs, seed=0):
    """Score field from the n_pairs split pairs above the ground mode.

    Solves the 2*n_pairs + 1 smallest eigenpairs and sums the 2*n_pairs
    non-ground ones; the localized ground state carries no window signal
    and would pull the minimum to the far side of the circle.  n_pairs >= 1,
    and the arguments must pass check_solve.
    """
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    check_solve(n_grid, spec, n_pairs)
    circle = build_circle_operator(n_grid, spec)
    values, vectors = _smallest_pairs(circle.matrix, 2 * n_pairs + 1, seed)
    return compute_score_field(values[1:], vectors[:, 1:], 2 * n_pairs)


def find_N_eps(spec, n_grid, n_max, seed=0):
    """Largest N* <= n_max with a windowed strict minimum for all N <= N*.

    A prefix N qualifies when the score field has a strict local minimum
    (cyclic grid neighbors) at some point of [y, y + eps].  The global
    argmin is not required: the far side of the circle carries competing
    minima of nearly the same depth, and which side wins the global tie
    flips with eps, while the windowed local minimum is the stable signal.
    Solves once for 2*n_max + 1 pairs and scores prefixes; returns 0 when
    n_max is 0 or already N = 1 has no windowed minimum.  The arguments
    must pass check_solve with n_max pairs.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    check_solve(n_grid, spec, n_max)
    if n_max == 0:
        return 0
    circle = build_circle_operator(n_grid, spec)
    values, vectors = _smallest_pairs(circle.matrix, 2 * n_max + 1, seed)
    inside = window_mask(circle.grid, spec)
    best = 0
    for n in range(1, n_max + 1):
        field = compute_score_field(values[1:], vectors[:, 1:], 2 * n, _warn=False)
        strict = (field < np.roll(field, 1)) & (field < np.roll(field, -1))
        if not (strict & inside).any():
            break
        best = n
    return best
