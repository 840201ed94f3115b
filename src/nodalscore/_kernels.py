"""Trigonometric series kernels with exact argument reduction.

|sin(k*pi*x)| is evaluated as sin(pi * frac(k*x)).  At float x, frac is
computed with x split in two: the high part has at most 26 mantissa bits,
so k * x_hi is an exact double for k <= MAX_TERMS = 2**20, and the
reduction keeps the cusps at rational x that rounding in a naive k*pi*x
would blur.  _frac_multiples is the only place that does the split.

At a rational x = num/den the reduction is done in integers instead:
(k*num) mod den is exact, and the term repeats with period den in k, so
rational_series groups the weights 1/k by residue class.  Each class is a
shifted harmonic sum, taken in O(den) from the digamma function
(_residue_weights), whatever the number of terms.

Caps, each refused before anything of that size is allocated:

- MAX_TERMS = 2**20 terms per series (the exact range of the float split);
- MAX_GRID_POINTS = 2**24 points on a command-line grid (interval
  --grid + 1, square mx * my), checked by the CLI;
- rational_series needs den * min(den, n_terms) < 2**63, so every
  integer product it forms fits in int64;
- square_series holds a dense (max m + 1) x (max n + 1) weight matrix of
  at most _CHUNK_BUDGET cells; on the Dirichlet lattice that is
  lambda_cut < 2**22.
"""

import numpy as np

from .core import InputRefused

# the kernel implementation, recorded with benchmark results
BACKEND = "pure"

_SPLIT = 67108864.0  # 2**26
# k * x_hi must stay exactly representable: 26 bits of x_hi + 20 bits of k < 53
MAX_TERMS = 1 << 20
MAX_GRID_POINTS = 1 << 24
# points x terms evaluated per chunk, bounding each temporary to 32 MB
_CHUNK_BUDGET = 1 << 22
# residues formed at once by rational_series: at most 256 KB, cache-resident
_STRIP_CELLS = 1 << 15
_INT64_MAX = np.iinfo(np.int64).max


def _check_terms(n_terms):
    n_terms = int(n_terms)
    if n_terms < 1:
        raise InputRefused("n_terms must be >= 1")
    if n_terms > MAX_TERMS:
        raise InputRefused(f"n_terms > {MAX_TERMS} exceeds the exact-reduction range")
    return n_terms


def _frac_multiples(xs, k):
    """frac(k[j] * xs[i]) as an (len(xs), len(k)) array, for k <= MAX_TERMS."""
    x_hi = np.floor(xs * _SPLIT + 0.5) / _SPLIT
    x_lo = xs - x_hi
    r = np.mod(x_hi[:, None] * k, 1.0) + x_lo[:, None] * k
    r -= np.floor(r)
    return r


def interval_series(xs, n_terms):
    """sum_{k<=n_terms} |sin(k*pi*x)| / k for each x, via reduced arguments."""
    n_terms = _check_terms(n_terms)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    out = np.zeros(xs.shape[0])
    if xs.shape[0] == 0:
        return out
    chunk = max(1, _CHUNK_BUDGET // xs.shape[0])
    for lo in range(1, n_terms + 1, chunk):
        k = np.arange(lo, min(lo + chunk, n_terms + 1), dtype=np.float64)
        out += (np.sin(np.pi * _frac_multiples(xs, k)) / k).sum(axis=1)
    return out


def _sin_pi_over(r, den):
    """sin(pi * r / den) for integers 0 <= r < den, symmetric in r <-> den - r."""
    return np.sin(np.pi * (np.minimum(r, den - r) / den))


# psi(y) = ln y - 1/(2y) - sum_n B_2n / (2n y^2n) (DLMF 5.11.2): the
# coefficients B_2n / 2n through B_14; the first omitted term,
# B_16 / (16 y^16), is below 1e-16 for y >= _DIRECT_TERMS
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
# terms of each residue class summed directly, before the series holds
_DIRECT_TERMS = 10


def _log_minus_psi(k, den, u2, out):
    """ln y - psi(y) at y = k / den >= _DIRECT_TERMS, by the asymptotic series.

    The result is written to out; k is overwritten and u2 is scratch.
    """
    u = np.divide(den, k, out=k)
    np.multiply(u, u, out=u2)
    out.fill(_PSI_SERIES[-1])
    for c in _PSI_SERIES[-2::-1]:
        out *= u2
        out += c
    out *= u2
    u *= 0.5
    out += u
    return out


def _residue_weights(den, n_terms):
    """weights[c] = sum of 1/k over k = 1..n_terms with k = c (mod den), den <= n_terms.

    Class r = 1..den (residue r mod den) holds k = r + j*den for
    j = 0..J_r, J_r = (n_terms - r) // den, so with x = r/den its sum is
    (psi(x + J_r + 1) - psi(x)) / den (DLMF 5.5.2).  The first
    S = _DIRECT_TERMS terms are added as 1/k; when J_r >= S the rest is
    psi(a) - psi(b) = ln(a/b) + (ln b - psi(b)) - (ln a - psi(a)) over den,
    with a = x + J_r + 1 and b = x + S.  The cost is O(den) for any
    n_terms, and each weight is within 4 ulp of math.fsum over its class.
    The buffers are few and reused: a den-sized temporary costs more in
    page faults, on a fresh allocation, than a pass of arithmetic over it.
    """
    q, rem = divmod(n_terms, den)  # J_r = q for r <= rem, q - 1 above
    # w[r] for class r = 1..den; w[0] takes class den (residue 0) at the end
    w = np.zeros(den + 1)
    r = np.arange(1.0, den + 1)
    k = np.empty(den)  # den * (x + j), exact integers below 2^22
    tail = den if q > _DIRECT_TERMS else rem if q == _DIRECT_TERMS else 0
    if tail:  # the classes r <= tail have J_r >= S
        part, scratch = w[1:tail + 1], np.empty((2, tail))
        kb = np.add(r[:tail], _DIRECT_TERMS * den, out=k[:tail])
        # ln(a/b) = log1p((a - b)/b), den * (a - b) = (J_r + 1 - S) * den
        np.divide((q - _DIRECT_TERMS) * den, kb, out=part)
        np.divide((q + 1 - _DIRECT_TERMS) * den, kb[:rem], out=part[:rem])
        np.log1p(part, out=part)
        part += _log_minus_psi(kb, den, *scratch)
        ka = np.add(r[:tail], q * den, out=k[:tail])
        ka[:rem] += den
        part -= _log_minus_psi(ka, den, *scratch)
        part /= den
    for j in range(min(_DIRECT_TERMS, q + 1) - 1, -1, -1):  # largest k first
        n = den if j < q else rem
        term = np.add(r[:n], j * den, out=k[:n])
        np.reciprocal(term, out=term)
        w[1:n + 1] += term
    w[0] = w[den]
    return w[:den]


def rational_series(nums, den, n_terms):
    """sum_{k<=n_terms} sin(pi * ((k*num) mod den) / den) / k for each integer num.

    This is the interval series at x = num/den, reduced exactly.  With
    n_terms >= den the weights 1/k are summed per residue k mod den once
    (_residue_weights, O(den)), and each point costs den terms; otherwise
    every k is reduced directly.  k*num and k*(den - num) have residues r
    and den - r, whose sines are equal, so each such pair is evaluated once:
    the values are symmetric under x <-> 1 - x bit for bit, and repeating
    or reordering the points leaves their bits unchanged.
    """
    n_terms = _check_terms(n_terms)
    den = int(den)
    if den < 1:
        raise ValueError("den must be >= 1")
    terms = min(den, n_terms)
    if den > _INT64_MAX // terms:
        raise InputRefused(f"den * min(den, n_terms) = {den}*{terms} overflows int64")
    nums = np.mod(np.asarray(nums, dtype=np.int64), den)
    nums, inverse = np.unique(np.minimum(nums, den - nums), return_inverse=True)
    out = np.empty(nums.shape[0])
    grouped = n_terms >= den
    if grouped:
        weights = _residue_weights(den, n_terms)
        k = np.arange(den, dtype=np.int64)  # one k per residue class
        table = _sin_pi_over(k, den)
    else:
        k = np.arange(1, n_terms + 1, dtype=np.int64)
        weights = 1.0 / k
    chunk = max(1, _CHUNK_BUDGET // terms)
    strip = max(1, _STRIP_CELLS // terms)
    products = np.empty((min(strip, nums.shape[0]), terms), dtype=np.int64)
    quotients = np.empty_like(products)
    for lo in range(0, nums.shape[0], chunk):
        block = nums[lo:lo + chunk]
        sines = np.empty((block.shape[0], terms))
        # the residues are formed a strip of rows at a time; the product
        # stays one (rows x terms) gemv, whose bits depend on the row count
        for s in range(0, block.shape[0], strip):
            part = block[s:s + strip]
            r, q = products[:part.shape[0]], quotients[:part.shape[0]]
            np.multiply(part[:, None], k, out=r)
            # r - den * (r // den): numpy divides by a scalar without a
            # hardware division per element, which % does not
            np.floor_divide(r, den, out=q)
            q *= den
            r -= q
            if grouped:  # 0 <= r < den; "clip" writes into out unbuffered
                np.take(table, r, out=sines[s:s + strip], mode="clip")
            else:
                sines[s:s + strip] = _sin_pi_over(r, den)
        out[lo:lo + chunk] = sines @ weights
    return out[inverse]


def square_series(xs, ys, ms, ns, ws):
    """sum_i ws[i] * |sin(ms[i]*pi*x)| * |sin(ns[i]*pi*y)| per point (x, y).

    The terms are scattered into a dense weight matrix W[m, n] (duplicates
    summed), so the series is the separable form rowsum((Sx @ W) * Sy) with
    Sx[i, m] = |sin(m*pi*x_i)| for m = 0..max m.  Within each chunk of
    points, the rows of Sx @ W and of Sy are built once per distinct x and
    distinct y and gathered per point, so a tensor grid costs one sine per
    frequency and grid line, and one gemm row per distinct x.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have the same length")
    # |sin(-m pi x)| = |sin(m pi x)|
    ms = np.abs(np.asarray(ms, dtype=np.int64))
    ns = np.abs(np.asarray(ns, dtype=np.int64))
    ws = np.ascontiguousarray(ws, dtype=np.float64)
    if not (ms.shape == ns.shape == ws.shape):
        raise ValueError("ms, ns, ws must have the same length")
    out = np.zeros(xs.shape[0])
    if ms.size == 0:
        return out
    m_size, n_size = int(ms.max()) + 1, int(ns.max()) + 1
    if max(m_size, n_size) > MAX_TERMS + 1:
        raise ValueError("frequency exceeds the exact-reduction range")
    if m_size * n_size > _CHUNK_BUDGET:
        raise ValueError(f"weight matrix {m_size}x{n_size} exceeds {_CHUNK_BUDGET} cells")
    weights = np.bincount(
        ms * n_size + ns, weights=ws, minlength=m_size * n_size
    ).reshape(m_size, n_size)
    m = np.arange(m_size, dtype=np.float64)
    n = np.arange(n_size, dtype=np.float64)
    chunk = max(1, _CHUNK_BUDGET // max(m_size, n_size))
    for lo in range(0, xs.shape[0], chunk):
        ux, ix = np.unique(xs[lo:lo + chunk], return_inverse=True)
        uy, iy = np.unique(ys[lo:lo + chunk], return_inverse=True)
        if ux.size == 1 < ix.size:
            # numpy sends a one-row product to gemv, which rounds unlike
            # the gemm rows of a chunk of two or more points
            ux = np.repeat(ux, 2)
        sxw = np.sin(np.pi * _frac_multiples(ux, m)) @ weights
        sy = np.sin(np.pi * _frac_multiples(uy, n))
        out[lo:lo + chunk] = (sxw[ix] * sy[iy]).sum(axis=1)
    return out
