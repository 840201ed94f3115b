"""Series kernels: reduced-argument series vs naive direct summation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalscore import _kernels, analytic


def naive_interval(xs, n_terms):
    out = np.zeros(len(xs))
    for i, x in enumerate(xs):
        out[i] = math.fsum(abs(math.sin(k * math.pi * x)) / k for k in range(1, n_terms + 1))
    return out


def exact_rational_interval(p, q, n_terms):
    """Exact-reduction oracle at x = p/q: |sin(k pi p/q)| has period q in k."""
    residue_vals = [abs(math.sin(math.pi * (k * p % q) / q)) for k in range(q)]
    return math.fsum(
        residue_vals[k % q] / k for k in range(1, n_terms + 1)
    )


def test_interval_series_matches_naive_sum():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1.0, 50)
    for n_terms in (1, 2, 17, 500):
        got = _kernels.interval_series(xs, n_terms)
        want = naive_interval(xs, n_terms)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_interval_series_exact_at_rationals_large_n():
    # the split reduction must hold the cusp at p/q even at 10^5 terms,
    # where naive k*pi*x accumulates rounding in the argument
    for p, q in ((1, 2), (5, 13), (3, 7)):
        got = float(_kernels.interval_series(np.array([p / q]), 100000)[0])
        want = exact_rational_interval(p, q, 100000)
        assert abs(got - want) <= 1e-9 * want


def test_interval_series_endpoint_zero():
    vals = _kernels.interval_series(np.array([0.0, 1.0]), 1000)
    assert np.abs(vals).max() <= 1e-12


def test_interval_series_rejects_bad_term_counts():
    xs = np.array([0.5])
    with pytest.raises(ValueError):
        _kernels.interval_series(xs, 0)
    with pytest.raises(ValueError):
        _kernels.interval_series(xs, _kernels.MAX_TERMS + 1)


def test_square_series_matches_naive_sum():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 1.0, 20)
    ys = rng.uniform(0.0, 1.0, 20)
    lam = 150.0
    ms, ns, ws = [], [], []
    m_max = int(math.isqrt(int(lam)))
    for m in range(1, m_max + 1):
        for n in range(1, int(math.isqrt(int(lam - m * m))) + 1):
            ms.append(m)
            ns.append(n)
            ws.append(1.0 / math.sqrt(m * m + n * n))
    ms = np.array(ms, dtype=np.int32)
    ns = np.array(ns, dtype=np.int32)
    ws = np.array(ws)
    got = _kernels.square_series(xs, ys, ms, ns, ws)
    want = np.zeros(20)
    for i in range(20):
        want[i] = math.fsum(
            w * abs(math.sin(m * math.pi * xs[i])) * abs(math.sin(n * math.pi * ys[i]))
            for m, n, w in zip(ms, ns, ws)
        )
    assert np.abs(got - want).max() <= 1e-10


def integer_oracle(num, den, n_terms):
    """fsum of sin(pi r / den) / k with r = (k * num) mod den in Python integers."""
    return math.fsum(
        math.sin(math.pi * ((k * num) % den) / den) / k for k in range(1, n_terms + 1)
    )


@pytest.mark.parametrize(
    "den, n_terms",
    [(7, 7), (13, 5000), (1000, 20000), (97, 96), (5000, 3000), (10**12 + 39, 50)],
    ids=["den=N", "grouped", "grouped-wide", "direct", "direct-wide", "direct-huge-den"],
)
def test_rational_series_matches_integer_oracle(den, n_terms):
    rng = np.random.default_rng(den % 1000)
    nums = np.unique(np.concatenate([[0, 1, den - 1, den // 2], rng.integers(0, den, 12)]))
    got = _kernels.rational_series(nums, den, n_terms)
    want = np.array([integer_oracle(int(num), den, n_terms) for num in nums])
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(-10**6, 10**6),
    den=st.integers(1, 300),
    n_terms=st.integers(1, 600),
)
def test_rational_series_property(num, den, n_terms):
    got = float(_kernels.rational_series([num], den, n_terms)[0])
    want = integer_oracle(num % den, den, n_terms)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
    # the series at num/den and (den - num)/den are the same sum, term by term
    mirror = float(_kernels.rational_series([-num], den, n_terms)[0])
    assert mirror == got


def bincount_rational_series(nums, den, n_terms):
    """Reference formulation: int64 residues by %, one sines @ weights per chunk.

    The weights and the num <-> den - num mirror are the kernel's own; the
    residues, the sine table and the product are formed here.
    """
    nums = np.mod(np.asarray(nums, dtype=np.int64), den)
    nums, inverse = np.unique(np.minimum(nums, den - nums), return_inverse=True)
    out = np.zeros(nums.shape[0])
    grouped = n_terms >= den
    if grouped:
        weights = _kernels._residue_weights(den, n_terms)
        k = np.arange(den, dtype=np.int64)
        table = np.sin(np.pi * (np.minimum(k, den - k) / den))
    else:
        k = np.arange(1, n_terms + 1, dtype=np.int64)
        weights = 1.0 / k
    chunk = max(1, _kernels._CHUNK_BUDGET // min(den, n_terms))
    for lo in range(0, nums.shape[0], chunk):
        r = (nums[lo:lo + chunk, None] * k) % den
        sines = table[r] if grouped else np.sin(np.pi * (np.minimum(r, den - r) / den))
        out[lo:lo + chunk] = sines @ weights
    return out[inverse]


def _bitwise_cases():
    top = _kernels.MAX_TERMS
    cases = []
    for den in (1, 2, 3, 1024, 46340, 46341, top):
        for n_terms in (den, den + 1, 2 * den, top - 1, top):
            if den <= n_terms <= top and (den, n_terms) not in cases:
                cases.append((den, n_terms))
        for n_terms in (1, 7, den - 1):  # direct reduction, n_terms < den
            if 1 <= n_terms < den and (den, n_terms) not in cases:
                cases.append((den, n_terms))
    cases.append(((2**63 - 1) // 50, 50))  # residue products just below 2^63
    return cases


@pytest.mark.parametrize("den, n_terms", _bitwise_cases())
def test_rational_series_bitwise_equals_bincount_form(den, n_terms):
    # residues formed in strips by a scalar division, the table lookup and
    # the product must give the bits of the plain % and gather, down to
    # residue products just below 2^63
    nums = [0, 1, -1, den - 1, den // 2 + 1, -(2**62) - 3, 2**63 - 1, -(2**63)]
    got = _kernels.rational_series(nums, den, n_terms)
    want = bincount_rational_series(nums, den, n_terms)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk_rows", [None, 100])
@pytest.mark.parametrize(
    "den, n_terms, n_points",
    [(1024, 9000, 1025), (1024, 9000, 77), (5000, 3000, 333), (10**6 + 3, 3000, 45), (97, 96, 250)],
    ids=["interval-job", "one-strip", "direct", "large-den", "direct-narrow"],
)
def test_rational_series_bitwise_in_strips_and_chunks(monkeypatch, den, n_terms, n_points, chunk_rows):
    # the residues are formed a strip of rows at a time; none of these point
    # counts is a multiple of the strip, and with chunk_rows the points also
    # span several chunks, the last one partial
    if chunk_rows is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_BUDGET", chunk_rows * min(den, n_terms))
    nums = np.arange(n_points) * 7919 - 3
    assert n_points % max(1, _kernels._STRIP_CELLS // min(den, n_terms)) != 0
    got = _kernels.rational_series(nums, den, n_terms)
    want = bincount_rational_series(nums, den, n_terms)
    assert got.tobytes() == want.tobytes()


def fsum_residue_weights(den, n_terms):
    """math.fsum of the rounded 1/k over each class k = c (mod den), k <= n_terms."""
    recip = (1.0 / np.arange(1, n_terms + 1)).tolist()
    # class c starts at k = c (k = den for c = 0), at index k - 1
    return np.array([math.fsum(recip[(c - 1) % den::den]) for c in range(den)])


def _weight_cases():
    s, top = _kernels._DIRECT_TERMS, _kernels.MAX_TERMS
    return [
        (den, n_terms)
        for den in (1, 2, 3, 72, 1024, 46341)
        for n_terms in dict.fromkeys(
            (den, den + 1, s * den - 1, s * den, s * den + 1, top - 1, top)
        )
    ]


@pytest.mark.parametrize("den, n_terms", _weight_cases())
def test_residue_weights_within_4_ulp_of_fsum(den, n_terms):
    # n_terms around S * den puts the classes on both sides of the switch
    # from direct terms to the digamma tail
    got = _kernels._residue_weights(den, n_terms)
    want = fsum_residue_weights(den, n_terms)
    ulps = np.abs(got - want) / np.spacing(want)
    assert ulps.max() <= 4, (ulps.max(), int(ulps.argmax()))


@settings(max_examples=100, deadline=None)
@given(
    den=st.integers(1, 5000),
    n_terms=st.integers(1, _kernels.MAX_TERMS),
    nums=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40),
    data=st.data(),
)
def test_rational_series_bitwise_invariant_under_mirror_repeats_and_order(den, n_terms, nums, data):
    got = _kernels.rational_series(nums, den, n_terms)
    flips = data.draw(st.lists(st.booleans(), min_size=len(nums), max_size=len(nums)))
    mirrored = [den - num if flip else num for num, flip in zip(nums, flips)]
    assert _kernels.rational_series(mirrored, den, n_terms).tobytes() == got.tobytes()
    picks = data.draw(st.permutations(range(len(nums)))) + data.draw(
        st.lists(st.integers(0, len(nums) - 1), max_size=40)
    )
    moved = _kernels.rational_series([nums[i] for i in picks], den, n_terms)
    assert moved.tobytes() == got[picks].tobytes()


def test_rational_series_memory_does_not_grow_with_n_terms():
    # the weights cost O(den): 2^20 terms allocate no 8 MB array of 1/k
    tracemalloc.start()
    try:
        _kernels.rational_series([1, 2, 3], 97, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_rational_series_agrees_with_float_kernel():
    nums = np.arange(0, 65)
    got = _kernels.rational_series(nums, 64, 4000)
    want = _kernels.interval_series(nums / 64, 4000)
    assert np.abs(got - want).max() <= 1e-12


def test_rational_series_rejects_overflow_and_bad_sizes():
    # den * min(den, n_terms) must fit in int64
    with pytest.raises(ValueError, match="overflows int64"):
        _kernels.rational_series([1], 2**62, 4)
    with pytest.raises(ValueError, match="overflows int64"):
        _kernels.rational_series([1], 2**43 + 1, 2**20)
    _kernels.rational_series([1], 2**43 - 1, 2**20 - 1)[0]
    with pytest.raises(ValueError):
        _kernels.rational_series([1], 0, 4)
    with pytest.raises(ValueError):
        _kernels.rational_series([1], 5, 0)
    with pytest.raises(ValueError):
        _kernels.rational_series([1], 5, _kernels.MAX_TERMS + 1)
    assert _kernels.rational_series([], 5, 10).shape == (0,)


def test_square_series_duplicates_zero_frequency_scattered_points():
    rng = np.random.default_rng(23)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 30), [0.0, 1.0, 0.5, 1.0 / 3.0]])
    ys = np.concatenate([rng.uniform(0.0, 1.0, 30), [0.25, 0.5, 1.0, 2.0 / 7.0]])
    ms = np.array([0, 1, 1, 3, 3, 7, 2, 0, 11, -4], dtype=np.int32)
    ns = np.array([2, 1, 1, 5, 5, 0, 9, 0, 4, 6], dtype=np.int32)
    ws = np.array([0.5, 1.0, 2.0, 0.25, -0.75, 3.0, 1.5, 4.0, 0.125, 0.3])
    got = _kernels.square_series(xs, ys, ms, ns, ws)
    want = [
        math.fsum(
            w * abs(math.sin(m * math.pi * x)) * abs(math.sin(n * math.pi * y))
            for m, n, w in zip(ms.tolist(), ns.tolist(), ws)
        )
        for x, y in zip(xs, ys)
    ]
    assert np.abs(got - want).max() <= 1e-13


def per_point_square_series(xs, ys, ms, ns, ws):
    """Reference formulation: the sine tables and the Sx @ W rows built per point."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    ms = np.abs(np.asarray(ms, dtype=np.int64))
    ns = np.abs(np.asarray(ns, dtype=np.int64))
    ws = np.ascontiguousarray(ws, dtype=np.float64)
    out = np.zeros(xs.shape[0])
    m_size, n_size = int(ms.max()) + 1, int(ns.max()) + 1
    weights = np.bincount(
        ms * n_size + ns, weights=ws, minlength=m_size * n_size
    ).reshape(m_size, n_size)
    m = np.arange(m_size, dtype=np.float64)
    n = np.arange(n_size, dtype=np.float64)
    chunk = max(1, _kernels._CHUNK_BUDGET // max(m_size, n_size))
    for lo in range(0, xs.shape[0], chunk):
        sx = np.sin(np.pi * _kernels._frac_multiples(xs[lo:lo + chunk], m))
        sy = np.sin(np.pi * _kernels._frac_multiples(ys[lo:lo + chunk], n))
        out[lo:lo + chunk] = ((sx @ weights) * sy).sum(axis=1)
    return out


def tensor_grid(mx, my):
    """The interior mx x my grid of the square command, x varying fastest."""
    gx, gy = np.meshgrid(np.arange(1, mx + 1) / (mx + 1), np.arange(1, my + 1) / (my + 1))
    return gx.ravel(), gy.ravel()


def _square_point_sets():
    rng = np.random.default_rng(31)
    xs, ys = rng.uniform(0.0, 1.0, 300), rng.uniform(0.0, 1.0, 300)
    sets = {f"grid-{mx}x{my}": tensor_grid(mx, my)
            for mx, my in ((48, 48), (37, 23), (2, 2), (2, 64), (64, 3), (13, 100))}
    sets["scattered"] = (xs, ys)
    sets["scattered-repeats"] = (rng.choice(xs[:5], 300), rng.choice(ys[:7], 300))
    sets["one-x-many-y"] = (np.full(40, 0.3), ys[:40])
    sets["one-point-repeated"] = (np.full(40, 0.3), np.full(40, 0.7))
    sets["single-point"] = (xs[:1], ys[:1])
    return sets


_SQUARE_SETS = _square_point_sets()


@pytest.mark.parametrize("lam", [50.0, 900.0, 4000.0])
@pytest.mark.parametrize("name", list(_SQUARE_SETS))
def test_square_series_bitwise_equals_per_point_form(name, lam):
    # one Sx @ W row per distinct x is the row the per-point form computes
    # for every point with that x; at these cutoffs (the benchmark uses
    # 4000) the OpenBLAS build these tests were written on rounds each gemm
    # row the same for any row count.  That is a property of the BLAS
    # kernel, not of this code: another CPU or BLAS build may round a row
    # by the row count, as this one does at the cutoffs of the next test
    xs, ys = _SQUARE_SETS[name]
    ms, ns, ws = analytic.square_lattice(lam)
    got = _kernels.square_series(xs, ys, ms, ns, ws)
    assert got.tobytes() == per_point_square_series(xs, ys, ms, ns, ws).tobytes()


@pytest.mark.parametrize("lam", [300.0, 20000.0, 1e5])
def test_square_series_near_per_point_form_where_blas_rounds_by_row_count(lam):
    # at these inner sizes OpenBLAS rounds a gemm row differently with the
    # row count and the thread split, so the per-point form itself is only
    # reproducible to an ulp; both agree to that
    for xs, ys in (tensor_grid(64, 64), tensor_grid(37, 23), tensor_grid(3, 23)):
        ms, ns, ws = analytic.square_lattice(lam)
        got = _kernels.square_series(xs, ys, ms, ns, ws)
        want = per_point_square_series(xs, ys, ms, ns, ws)
        assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps * np.abs(want).max()


_ZERO_FREQUENCY_TERMS = (
    np.array([0, 1, 1, 3, 3, 7, 2, 0, 11, -4], dtype=np.int32),
    np.array([2, 1, 1, 5, 5, 0, 9, 0, 4, 6], dtype=np.int32),
    np.array([0.5, 1.0, 2.0, 0.25, -0.75, 3.0, 1.5, 4.0, 0.125, 0.3]),
)


def test_square_series_bitwise_zero_frequency_terms():
    for xs, ys in _SQUARE_SETS.values():
        got = _kernels.square_series(xs, ys, *_ZERO_FREQUENCY_TERMS)
        want = per_point_square_series(xs, ys, *_ZERO_FREQUENCY_TERMS)
        assert got.tobytes() == want.tobytes()


def test_square_series_bitwise_across_chunks(monkeypatch):
    # 64 frequencies per axis at lambda = 4000: chunks of 100 points, so the
    # 48x48 grid spans 24 chunks (the last one partial) and the scattered
    # set 3, each chunk with its own distinct coordinates
    monkeypatch.setattr(_kernels, "_CHUNK_BUDGET", 6400)
    ms, ns, ws = analytic.square_lattice(4000.0)
    for name in ("grid-48x48", "grid-13x100", "scattered", "scattered-repeats"):
        xs, ys = _SQUARE_SETS[name]
        got = _kernels.square_series(xs, ys, ms, ns, ws)
        assert got.tobytes() == per_point_square_series(xs, ys, ms, ns, ws).tobytes(), name


def test_square_series_memory_stays_within_chunks(monkeypatch):
    # 20000 scattered points: one (points x 64) float64 array would be
    # 10 MB, a chunk's is 64 KB
    monkeypatch.setattr(_kernels, "_CHUNK_BUDGET", 1 << 13)
    rng = np.random.default_rng(41)
    xs, ys = rng.uniform(0.0, 1.0, 20000), rng.uniform(0.0, 1.0, 20000)
    ms, ns, ws = analytic.square_lattice(4000.0)
    tracemalloc.start()
    try:
        _kernels.square_series(xs, ys, ms, ns, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_square_series_refuses_large_weight_matrix():
    one = np.array([0.5])
    with pytest.raises(ValueError, match="weight matrix"):
        _kernels.square_series(one, one, np.array([4096]), np.array([4096]), np.array([1.0]))
    assert _kernels.square_series(one, one, np.array([], dtype=np.int32),
                                  np.array([], dtype=np.int32), np.array([]))[0] == 0.0


def test_square_series_validates_shapes():
    ms = np.array([1], dtype=np.int32)
    ws = np.array([1.0])
    with pytest.raises(ValueError):
        _kernels.square_series(np.array([0.5]), np.array([0.5, 0.5]), ms, ms, ws)
    with pytest.raises(ValueError):
        _kernels.square_series(np.array([0.5]), np.array([0.5]), ms, np.array([1, 2], dtype=np.int32), ws)
    with pytest.raises(ValueError):
        _kernels.square_series(
            np.array([0.5]),
            np.array([0.5]),
            np.array([_kernels.MAX_TERMS + 1], dtype=np.int32),
            ms,
            ws,
        )


def test_backend_tag_is_reported():
    assert _kernels.BACKEND == "pure"


def test_empty_point_set():
    assert _kernels.interval_series(np.array([]), 10).shape == (0,)
