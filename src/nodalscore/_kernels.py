"""Trigonometric series kernels with exact argument reduction.

|sin(k*pi*x)| is evaluated as sin(pi * frac(k*x)).  frac is computed with x
split in two: the high part has at most 26 mantissa bits, so k * x_hi is an
exact double for k <= MAX_TERMS = 2**20, and the reduction keeps the cusps
at rational x that rounding in a naive k*pi*x would blur.  _frac_multiples
is the only place that does the split; every series in the package goes
through it.
"""

import numpy as np

# the kernel implementation, recorded with benchmark results
BACKEND = "pure"

_SPLIT = 67108864.0  # 2**26
# k * x_hi must stay exactly representable: 26 bits of x_hi + 20 bits of k < 53
MAX_TERMS = 1 << 20
# points x terms evaluated per chunk, bounding each temporary to 32 MB
_CHUNK_BUDGET = 1 << 22


def _frac_multiples(xs, k):
    """frac(k[j] * xs[i]) as an (len(xs), len(k)) array, for k <= MAX_TERMS."""
    x_hi = np.floor(xs * _SPLIT + 0.5) / _SPLIT
    x_lo = xs - x_hi
    r = np.mod(x_hi[:, None] * k, 1.0) + x_lo[:, None] * k
    r -= np.floor(r)
    return r


def interval_series(xs, n_terms):
    """sum_{k<=n_terms} |sin(k*pi*x)| / k for each x, via reduced arguments."""
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if n_terms > MAX_TERMS:
        raise ValueError(f"n_terms > {MAX_TERMS} exceeds the exact-reduction range")
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    out = np.zeros(xs.shape[0])
    if xs.shape[0] == 0:
        return out
    chunk = max(1, _CHUNK_BUDGET // xs.shape[0])
    for lo in range(1, n_terms + 1, chunk):
        k = np.arange(lo, min(lo + chunk, n_terms + 1), dtype=np.float64)
        out += (np.sin(np.pi * _frac_multiples(xs, k)) / k).sum(axis=1)
    return out


def square_series(xs, ys, ms, ns, ws):
    """sum_i ws[i] * |sin(ms[i]*pi*x)| * |sin(ns[i]*pi*y)| per point (x, y)."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have the same length")
    ms = np.ascontiguousarray(ms, dtype=np.int32)
    ns = np.ascontiguousarray(ns, dtype=np.int32)
    ws = np.ascontiguousarray(ws, dtype=np.float64)
    if not (ms.shape == ns.shape == ws.shape):
        raise ValueError("ms, ns, ws must have the same length")
    if ms.size and (ms.max(initial=1) > MAX_TERMS or ns.max(initial=1) > MAX_TERMS):
        raise ValueError("frequency exceeds the exact-reduction range")
    out = np.zeros(xs.shape[0])
    if xs.shape[0] == 0 or ms.shape[0] == 0:
        return out
    chunk = max(1, _CHUNK_BUDGET // xs.shape[0])
    for lo in range(0, ms.shape[0], chunk):
        m = ms[lo:lo + chunk].astype(np.float64)
        n = ns[lo:lo + chunk].astype(np.float64)
        w = ws[lo:lo + chunk]
        sx = np.sin(np.pi * _frac_multiples(xs, m))
        sy = np.sin(np.pi * _frac_multiples(ys, n))
        out += (w * sx * sy).sum(axis=1)
    return out
