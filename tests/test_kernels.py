"""Series kernels: reduced-argument series vs naive direct summation."""

import math

import numpy as np
import pytest

from nodalscore import _kernels


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
