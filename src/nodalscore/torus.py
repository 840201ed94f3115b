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

from .core import ScoreConfig, SpectralBasis, compute_score_field, group_degenerate, rotation_averaged_score
from .eigensolve import DENSE_FALLBACK_N, SymOperator, dense_sym_eig, lanczos_smallest

__all__ = [
    "PotentialSpec",
    "CircleOperator",
    "BUMP_PROFILES",
    "potential_on_grid",
    "build_circle_operator",
    "torus_score",
    "find_N_eps",
    "window_mask",
]

TWO_PI = 2.0 * math.pi


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
            raise ValueError("y must lie in [0, 2*pi)")
        if not 0.0 < self.eps < TWO_PI:
            raise ValueError("eps must lie in (0, 2*pi)")
        if self.bump not in BUMP_PROFILES:
            raise ValueError(f"unknown bump profile {self.bump!r}")
        if self.well_scale < 0.0:
            raise ValueError("well_scale must be nonnegative")
        probe = BUMP_PROFILES[self.bump](np.linspace(0.0, 1.0, 257))
        if not (probe < 0.0).all():
            raise ValueError("bump profile must be strictly negative on [0, 1]")


def window_mask(xs, spec, slack=1e-12):
    """Boolean mask of grid points inside [y, y + eps], wrapping mod 2 pi."""
    offset = np.mod(np.asarray(xs, dtype=np.float64) - spec.y, TWO_PI)
    return offset <= spec.eps + slack


def potential_on_grid(spec, xs):
    """Sample V on the points xs; exactly 1 outside the window."""
    xs = np.asarray(xs, dtype=np.float64)
    v = np.ones_like(xs)
    mask = window_mask(xs, spec)
    t = np.mod(xs[mask] - spec.y, TWO_PI) / spec.eps
    v[mask] = 1.0 + spec.well_scale * spec.eps * BUMP_PROFILES[spec.bump](t)
    return v


@dataclass
class CircleOperator:
    """Discretized -d^2/dx^2 + V on n_grid periodic points."""

    n_grid: int
    h: float
    matrix: SymOperator
    potential: np.ndarray
    grid: np.ndarray


def build_circle_operator(n_grid, spec):
    """Periodic second-difference plus diagonal potential, as triplets.

    The window must cover at least 4 grid spacings; a narrower one is not
    resolved by the stencil.
    """
    n_grid = int(n_grid)
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    h = TWO_PI / n_grid
    if spec.eps < 4.0 * h:
        raise ValueError("unresolved perturbation: eps < 4 grid spacings")
    xs = np.arange(n_grid) * h
    v = potential_on_grid(spec, xs)
    inv_h2 = 1.0 / (h * h)
    idx = np.arange(n_grid)
    rows = np.concatenate([idx, idx[:-1], [0]])
    cols = np.concatenate([idx, idx[:-1] + 1, [n_grid - 1]])
    vals = np.concatenate([2.0 * inv_h2 + v, np.full(n_grid - 1, -inv_h2), [-inv_h2]])
    op = SymOperator.from_triplets(n_grid, rows, cols, vals)
    return CircleOperator(n_grid=n_grid, h=h, matrix=op, potential=v, grid=xs)


def _smallest_pairs(op, m, seed):
    if op.n <= DENSE_FALLBACK_N:
        report = dense_sym_eig(op.densified())
    else:
        report = lanczos_smallest(op, m, tol=1e-10, seed=seed)
    if not report.converged:
        raise RuntimeError(
            f"eigensolver did not converge on the circle operator (n={op.n})"
        )
    return report.pairs[:m]


def torus_score(n_grid, spec, n_pairs, degenerate_policy="as-given",
                trials=64, seed=0, rel_tol=1e-8):
    """Score field from the n_pairs split pairs above the ground mode.

    Solves the 2*n_pairs + 1 smallest eigenpairs and sums the 2*n_pairs
    non-ground ones; the localized ground state carries no window signal
    and would pull the minimum to the far side of the circle.  Requires
    n_pairs <= n_grid / 8 so the top retained mode is resolved.
    """
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_pairs > n_grid // 8:
        raise ValueError("n_pairs must be at most n_grid / 8")
    circle = build_circle_operator(n_grid, spec)
    m = 2 * n_pairs + 1
    pairs = _smallest_pairs(circle.matrix, m, seed)
    basis = SpectralBasis(pairs[1:], domain_tag=f"circle {n_grid}", drop_tolerance=0.0)
    config = ScoreConfig(
        n_terms=2 * n_pairs,
        degenerate_policy=degenerate_policy,
        trials=trials,
        seed=seed if degenerate_policy == "rotation-average" else None,
    )
    if degenerate_policy == "rotation-average":
        groups = group_degenerate(basis, rel_tol)
        return rotation_averaged_score(basis, groups, config)
    return compute_score_field(basis, config)


def find_N_eps(spec, n_grid, n_max, seed=0):
    """Largest N* <= n_max with a windowed strict minimum for all N <= N*.

    A prefix N qualifies when the score field has a strict local minimum
    (cyclic grid neighbors) at some point of [y, y + eps].  The global
    argmin is not required: the far side of the circle carries competing
    minima of nearly the same depth, and which side wins the global tie
    flips with eps, while the windowed local minimum is the stable signal.
    Solves once for 2*n_max + 1 pairs and scores prefixes; returns 0 when
    already N = 1 has no windowed minimum.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max == 0:
        return 0
    if n_max > n_grid // 8:
        raise ValueError("n_max must be at most n_grid / 8")
    circle = build_circle_operator(n_grid, spec)
    pairs = _smallest_pairs(circle.matrix, 2 * n_max + 1, seed)
    basis = SpectralBasis(pairs[1:], domain_tag=f"circle {n_grid}", drop_tolerance=0.0)
    inside = window_mask(circle.grid, spec)
    best = 0
    for n in range(1, n_max + 1):
        config = ScoreConfig(n_terms=2 * n)
        values = compute_score_field(basis, config, _warn=False).values
        strict = (values < np.roll(values, 1)) & (values < np.roll(values, -1))
        if not (strict & inside).any():
            break
        best = n
    return best
