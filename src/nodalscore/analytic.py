"""Closed-form score series on the unit interval and unit square.

The interval score is sum_{k<=N} |sin(k pi x)| / k, the square score is the
same construction over the Dirichlet lattice m^2 + n^2 <= lambda:

    sum |sin(m pi x)| |sin(n pi y)| / sqrt(m^2 + n^2).

Both have strict local minima at rational points once enough terms are
included.  The module also carries the supporting identities: period-mean
of |sin(k pi y)| and its 2/pi limit, the summation-by-parts bound for
zero-mean periodic weights, and the summed distance to the sine nodal sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .core import InputRefused

# the square kernel's weight matrix has (isqrt(lambda_cut) + 1)^2 cells,
# at most _kernels._CHUNK_BUDGET = 2^22 below this cutoff
MAX_LAMBDA_CUT = 1 << 22
# uniform interval grids cost (grid + 1) * min(grid, n_terms) series terms:
# about 7 s at this cap with n_terms >= grid (grouped by residue) and 20 s
# below it (one sine per term; README)
MAX_INTERVAL_WORK = 1 << 29
# square grids cost per-point products, sines per distinct coordinate and
# gemm rows per distinct x, weighted by their times (check_square_work):
# the kernel takes at most about 9 s at this cap, on a tall grid at a small
# cutoff (README)
MAX_SQUARE_WORK = 1 << 30

__all__ = [
    "RationalPoint",
    "PeriodicSequence",
    "PeriodicBoundResult",
    "interval_score",
    "interval_score_uniform",
    "check_interval_work",
    "check_square_work",
    "square_score_grid",
    "square_lattice",
    "RationalProbe",
    "probe_rational_minimum",
    "check_rational_minimum_2d",
    "mean_abs_sin",
    "rational_mean_abs_sin",
    "periodic_sum_bound",
    "nodal_distance_sum",
    "interval_sine_basis",
]


@dataclass(frozen=True)
class RationalPoint:
    """Reduced fraction p/q strictly inside (0, 1)."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 2 or not 0 < self.p < self.q:
            raise InputRefused("need 0 < p < q")
        if math.gcd(self.p, self.q) != 1:
            raise InputRefused(f"{self.p}/{self.q} is not in lowest terms")

    @property
    def x(self):
        return self.p / self.q


def _check_unit(value, name):
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def interval_score(x, n_terms):
    """sum_{k=1..n_terms} |sin(k pi x)| / k at a single point."""
    x = _check_unit(x, "x")
    return float(_kernels.interval_series(np.array([x]), n_terms)[0])


def check_interval_work(grid, n_terms):
    """InputRefused when (grid + 1) * min(grid, n_terms) exceeds MAX_INTERVAL_WORK."""
    work = (grid + 1) * min(grid, n_terms)
    if work > MAX_INTERVAL_WORK:
        raise InputRefused(
            f"(grid + 1) x min(grid, n_terms) = {work} exceeds {MAX_INTERVAL_WORK}"
        )


def interval_score_uniform(grid, n_terms):
    """Interval score at x = i/grid, i = 0..grid, with k*i reduced mod grid exactly."""
    grid = int(grid)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    check_interval_work(grid, int(n_terms))
    return _kernels.rational_series(np.arange(grid + 1), grid, n_terms)


def _lattice_cut(lambda_cut):
    """floor(lambda_cut), or InputRefused unless 2 <= lambda_cut < MAX_LAMBDA_CUT."""
    lambda_cut = float(lambda_cut)
    if not lambda_cut >= 2.0:
        raise InputRefused("lambda_cut must be >= 2 (no lattice point otherwise)")
    if not lambda_cut < MAX_LAMBDA_CUT:
        raise InputRefused(f"lambda_cut must be below {MAX_LAMBDA_CUT}")
    return math.floor(lambda_cut)


def square_lattice(lambda_cut):
    """Positive lattice points with m^2 + n^2 <= lambda_cut and their weights."""
    cut = _lattice_cut(lambda_cut)
    # column m holds n = 1..isqrt(cut - m^2), counted in integers
    counts = np.array([math.isqrt(cut - m * m) for m in range(1, math.isqrt(cut) + 1)],
                      dtype=np.int32)
    ms = np.repeat(np.arange(1, counts.size + 1, dtype=np.int32), counts)
    starts = np.cumsum(counts, dtype=np.int32) - counts
    ns = np.arange(1, ms.size + 1, dtype=np.int32) - np.repeat(starts, counts)
    ws = 1.0 / np.sqrt(ms.astype(np.float64) ** 2 + ns.astype(np.float64) ** 2)
    return ms, ns, ws


def check_square_work(mx, my, lambda_cut):
    """InputRefused when square_series' work on the mx x my grid exceeds MAX_SQUARE_WORK.

    With k = isqrt(lambda_cut) + 1 frequencies per axis, each chunk of
    points evaluates k sines per distinct x and per distinct y, one k x k
    gemm row per distinct x and a k-term product per point.  The grid is
    ordered x fastest, so a chunk holds at most mx distinct x and my
    distinct y.  The work counts a product as 1, a sine as 8 and a gemm
    multiply-add as 1/128, about their relative times.  A cutoff that
    square_lattice refuses raises its InputRefused here too.
    """
    lambda_cut = float(lambda_cut)
    k = math.isqrt(_lattice_cut(lambda_cut)) + 1
    points = mx * my
    chunks = -(-points // max(1, _kernels._CHUNK_BUDGET // k))
    rows_x, rows_y = min(points, mx * chunks), min(points, my * chunks)
    work = points * k + 8 * (rows_x + rows_y) * k + rows_x * k * k // 128
    if work > MAX_SQUARE_WORK:
        raise InputRefused(
            f"square work {work} on a {mx}x{my} grid at lambda_cut {lambda_cut!r} "
            f"exceeds {MAX_SQUARE_WORK}"
        )


def square_score_grid(xs, ys, lambda_cut):
    """Vectorized square score over paired arrays of points in [0, 1]^2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    for arr, name in ((xs, "xs"), (ys, "ys")):
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
            raise ValueError(f"{name} must lie in [0, 1]")
    ms, ns, ws = square_lattice(lambda_cut)
    return _kernels.square_series(xs, ys, ms, ns, ws)


class RationalProbe(NamedTuple):
    strict: bool
    center_value: float
    step: float


def probe_rational_minimum(point, n_terms, h=None):
    """Interval score at p/q and at p/q +- 1/d, d = round(1/h), exactly.

    The step is snapped to 1/d so all three probes are rationals over
    den = lcm(q, d) and reduce exactly (rational_series); the snapped step
    is returned.  Requires d >= 8 q^2: a wider step can leave the cusp and
    compare against unrelated structure.  h None is the widest step,
    d = 8 q^2 exactly, with no float in between.
    """
    d = 8 * point.q**2
    if h is not None:
        if not h > 0.0:
            raise InputRefused("h must be positive")
        inverse = 1.0 / h
        if not math.isfinite(inverse):
            raise InputRefused(f"h = {h!r} is too small to snap to 1/d")
        if round(inverse) < d:
            raise InputRefused("h must be at most 1/(8 q^2)")
        d = round(inverse)
    den = math.lcm(point.q, d)
    if den > _kernels._INT64_MAX:
        if h is None:
            q_end = math.isqrt(_kernels._INT64_MAX // 8) + 1
            raise InputRefused(f"q must be below {q_end}: 8 q^2 overflows int64")
        raise InputRefused(f"h = {h!r} is too small: lcm(q, 1/h) overflows int64")
    center, offset = point.p * (den // point.q), den // d
    # the neighbours stay inside (0, 1): 1/d <= 1/(8 q^2) < p/q, (q - p)/q
    values = _kernels.rational_series(
        [center, center - offset, center + offset], den, n_terms
    )
    return RationalProbe(bool(values[0] < values[1:].min()), float(values[0]), 1.0 / d)


def check_rational_minimum_2d(point_x, point_y, lambda_cut, h):
    """True when (px/qx, py/qy) scores strictly below its 4 axis neighbors."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    for pt in (point_x, point_y):
        if h > 1.0 / (8 * pt.q**2):
            raise ValueError("h must be at most 1/(8 q^2) in each coordinate")
    x, y = point_x.x, point_y.x
    if min(x - h, y - h) < 0.0 or max(x + h, y + h) > 1.0:
        raise ValueError("axis neighbors must stay inside [0, 1]^2")
    xs = np.array([x, x - h, x + h, x, x])
    ys = np.array([y, y, y, y - h, y + h])
    ms, ns, ws = square_lattice(lambda_cut)
    vals = _kernels.square_series(xs, ys, ms, ns, ws)
    return bool(vals[0] < vals[1:].min())


def mean_abs_sin(y, n):
    """(1/n) sum_{k=1..n} |sin(k pi y)| for 0 < y < 1."""
    y = float(y)
    if not 0.0 < y < 1.0:
        raise ValueError("y must lie strictly inside (0, 1)")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _kernels.MAX_TERMS:
        raise ValueError(f"n > {_kernels.MAX_TERMS} exceeds the exact-reduction range")
    k = np.arange(1, n + 1, dtype=np.float64)
    r = _kernels._frac_multiples(np.array([y]), k)[0]
    return float(np.sin(np.pi * r).sum()) / n


def rational_mean_abs_sin(q):
    """Exact period mean (1/q) sum_{k=0..q-1} sin(k pi / q) at y = p/q."""
    q = int(q)
    if q < 2:
        raise ValueError("q must be >= 2")
    return sum(math.sin(k * math.pi / q) for k in range(q)) / q


class PeriodicBoundResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


@dataclass
class PeriodicSequence:
    """Finite period of a sequence extended periodically; mean is cached."""

    values: np.ndarray
    mean: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("period must be a nonempty 1-d array")
        self.mean = float(self.values.mean())

    @property
    def period(self):
        return self.values.size


def periodic_sum_bound(seq, b, n_terms):
    """Summation-by-parts bound |sum a_n b_n| <= (3/2) b_N sum_period |a|.

    a must have zero mean over its period (within 1e-12) and b must be
    positive and nondecreasing with at least n_terms entries.
    """
    if abs(seq.mean) > 1e-12:
        raise ValueError("periodic sequence must have zero mean over one period")
    b = np.asarray(b, dtype=np.float64)
    n_terms = int(n_terms)
    if n_terms < 1 or b.size < n_terms:
        raise ValueError("b must supply at least n_terms entries")
    b = b[:n_terms]
    if b[0] <= 0.0 or (np.diff(b) < 0).any():
        raise ValueError("b must be positive and nondecreasing")
    a_ext = seq.values[np.arange(n_terms) % seq.period]
    lhs = float(abs((a_ext * b).sum()))
    rhs = float(1.5 * b[-1] * np.abs(seq.values).sum())
    return PeriodicBoundResult(lhs, rhs, bool(lhs <= rhs + 1e-12))


def nodal_distance_sum(x, n_terms):
    """sum_{k=1..n_terms} distance from x to the k-th sine nodal set."""
    x = _check_unit(x, "x")
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    k = np.arange(1, n_terms + 1, dtype=np.float64)
    t = k * x
    return float((np.abs(t - np.round(t)) / k).sum())


def interval_sine_basis(grid_intervals, n_pairs):
    """Sine modes sampled on the uniform grid i/grid_intervals, i = 0..grid.

    Returns (values, vectors), one mode per column of vectors.  Eigenvalues
    are k^2 (the normalization in which the interval score is exactly
    sum |sin(k pi x)| / k).  Pick grid_intervals divisible by
    4 * lcm(1..n_pairs) when exact unit sup norms matter.
    """
    grid_intervals = int(grid_intervals)
    n_pairs = int(n_pairs)
    if grid_intervals < 2 or n_pairs < 1:
        raise ValueError("need grid_intervals >= 2 and n_pairs >= 1")
    xs = np.arange(grid_intervals + 1) / grid_intervals
    ks = np.arange(1, n_pairs + 1)
    return (ks * ks).astype(np.float64), np.sin(xs[:, None] * (ks * np.pi))
