"""Closed-form score series on the unit interval and unit square.

The interval score is sum_{k<=N} |sin(k pi x)| / k, the square score is the
same construction over the Dirichlet lattice m^2 + n^2 <= lambda:

    sum |sin(m pi x)| |sin(n pi y)| / sqrt(m^2 + n^2).

Both have strict local minima at rational points once enough terms are
included.  The module also carries the supporting identities: period-mean
of |sin(k pi y)| and its 2/pi limit, the summation-by-parts bound for
zero-mean periodic weights, the signed-cosine cancellation at rationals,
and nodal-set distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .core import EigenPair, SpectralBasis

__all__ = [
    "RationalPoint",
    "PeriodicSequence",
    "PeriodicBoundResult",
    "interval_score",
    "interval_score_grid",
    "square_score",
    "square_score_grid",
    "square_lattice",
    "check_rational_minimum",
    "check_rational_minimum_2d",
    "mean_abs_sin",
    "rational_mean_abs_sin",
    "periodic_sum_bound",
    "sign_cos_period_sum",
    "nodal_distance_interval",
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
            raise ValueError("need 0 < p < q")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not in lowest terms")

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


def interval_score_grid(xs, n_terms):
    """Vectorized interval score over an array of points in [0, 1]."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise ValueError("grid points must lie in [0, 1]")
    return _kernels.interval_series(xs, n_terms)


def square_lattice(lambda_cut):
    """Positive lattice points with m^2 + n^2 <= lambda_cut and their weights."""
    lambda_cut = float(lambda_cut)
    if lambda_cut < 2.0:
        raise ValueError("lambda_cut must be >= 2 (no lattice point otherwise)")
    ms, ns = [], []
    m_max = math.isqrt(math.floor(lambda_cut))
    for m in range(1, m_max + 1):
        n_max = math.isqrt(math.floor(lambda_cut - m * m))
        ms.extend([m] * n_max)
        ns.extend(range(1, n_max + 1))
    ms = np.array(ms, dtype=np.int32)
    ns = np.array(ns, dtype=np.int32)
    ws = 1.0 / np.sqrt(ms.astype(np.float64) ** 2 + ns.astype(np.float64) ** 2)
    return ms, ns, ws


def square_score(x, y, lambda_cut):
    """Square score at one point for the lattice cutoff lambda_cut."""
    x = _check_unit(x, "x")
    y = _check_unit(y, "y")
    ms, ns, ws = square_lattice(lambda_cut)
    return float(
        _kernels.square_series(np.array([x]), np.array([y]), ms, ns, ws)[0]
    )


def square_score_grid(xs, ys, lambda_cut):
    """Vectorized square score over paired arrays of points in [0, 1]^2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    for arr, name in ((xs, "xs"), (ys, "ys")):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    ms, ns, ws = square_lattice(lambda_cut)
    return _kernels.square_series(xs, ys, ms, ns, ws)


def check_rational_minimum(point, n_terms, h):
    """True when p/q scores strictly below both neighbors p/q +- h.

    Requires h <= 1/(8 q^2): a wider step can leave the cusp and compare
    against unrelated structure.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if h > 1.0 / (8 * point.q**2):
        raise ValueError("h must be at most 1/(8 q^2)")
    x = point.x
    if x - h < 0.0 or x + h > 1.0:
        raise ValueError("p/q +- h must stay inside [0, 1]")
    center, left, right = _kernels.interval_series(
        np.array([x, x - h, x + h]), n_terms
    )
    return bool(center < min(left, right))


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


def sign_cos_period_sum(point):
    """sum_{k=1..q} sgn(sin(k pi p/q)) cos(k pi p/q); zero for reduced p/q.

    The sign is classified exactly from (k p) mod 2q, so the zero terms at
    multiples of q are exact.
    """
    p, q = point.p, point.q
    total = 0.0
    for k in range(1, q + 1):
        r = (k * p) % (2 * q)
        if r % q == 0:
            continue
        sign = 1.0 if r < q else -1.0
        total += sign * math.cos(math.pi * r / q)
    return total


def nodal_distance_interval(k, x):
    """Distance from x to the nodal set {j/k : 0 <= j <= k} of sin(k pi x)."""
    if int(k) < 1:
        raise ValueError("k must be >= 1")
    x = _check_unit(x, "x")
    t = k * x
    return abs(t - round(t)) / k


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

    Eigenvalues are k^2 (the normalization in which the interval score is
    exactly sum |sin(k pi x)| / k).  Pick grid_intervals divisible by
    4 * lcm(1..n_pairs) when exact unit sup norms matter.
    """
    grid_intervals = int(grid_intervals)
    n_pairs = int(n_pairs)
    if grid_intervals < 2 or n_pairs < 1:
        raise ValueError("need grid_intervals >= 2 and n_pairs >= 1")
    xs = np.arange(grid_intervals + 1) / grid_intervals
    pairs = [
        EigenPair(float(k * k), np.sin(k * np.pi * xs)) for k in range(1, n_pairs + 1)
    ]
    return SpectralBasis(pairs, domain_tag=f"interval grid {grid_intervals}")
