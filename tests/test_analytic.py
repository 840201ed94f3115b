"""Interval and square score series, period-mean and partial-sum oracles, nodal distances."""

import math

import numpy as np
import pytest

from nodalscore.analytic import (
    PeriodicSequence,
    RationalPoint,
    check_rational_minimum_2d,
    interval_score,
    interval_score_uniform,
    interval_sine_basis,
    mean_abs_sin,
    nodal_distance_sum,
    periodic_sum_bound,
    probe_rational_minimum,
    rational_mean_abs_sin,
    square_lattice,
    square_score_grid,
)
from nodalscore import analytic
from nodalscore._kernels import interval_series
from nodalscore.core import InputRefused, compute_score_field

TWO_OVER_PI = 2.0 / math.pi


# ------------------------------------------------------------ RationalPoint


def test_rational_point_validation():
    RationalPoint(1, 2)
    with pytest.raises(ValueError):
        RationalPoint(2, 4)
    with pytest.raises(ValueError):
        RationalPoint(0, 3)
    with pytest.raises(ValueError):
        RationalPoint(3, 3)


# ------------------------------------------------------------ interval_score


def test_interval_score_examples():
    assert abs(interval_score(0.5, 1) - 1.0) <= 1e-15
    for n in (1, 10, 1000):
        assert interval_score(0.0, n) == 0.0
    assert abs(interval_score(0.5, 3) - 4.0 / 3.0) <= 1e-14


def test_interval_score_grid_matches_pointwise():
    xs = np.linspace(0.0, 1.0, 41)
    grid = interval_series(xs, 37)
    point = np.array([interval_score(float(x), 37) for x in xs])
    assert np.abs(grid - point).max() <= 1e-13


def test_interval_score_domain_check():
    with pytest.raises(ValueError):
        interval_score(1.5, 3)


def test_interval_score_agrees_with_sine_basis_field():
    """The closed form equals the generic score on an interval sine basis."""
    values, vectors = interval_sine_basis(240, 4)
    xs = np.arange(241) / 240
    field = compute_score_field(values, vectors, 4)
    closed = interval_series(xs, 4)
    # grid of 240 intervals keeps every sup norm exactly 1 for k <= 4
    assert np.abs(field - closed).max() <= 1e-10


def test_interval_score_uniform_matches_float_grid():
    for grid, n_terms in ((1, 5), (16, 64), (240, 4), (97, 500)):
        xs = np.arange(grid + 1) / grid
        exact = interval_score_uniform(grid, n_terms)
        assert exact.shape == (grid + 1,)
        assert exact[0] == 0.0 and exact[-1] == 0.0
        assert np.abs(exact - interval_series(xs, n_terms)).max() <= 1e-12
        # x and 1 - x are the same sum term by term
        assert (exact == exact[::-1]).all()
    with pytest.raises(ValueError):
        interval_score_uniform(0, 5)


def test_interval_work_cap_checked_before_the_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("summed a series above the work cap")

    monkeypatch.setattr(analytic._kernels, "rational_series", refuse)
    with pytest.raises(ValueError, match="exceeds"):
        interval_score_uniform(16777215, 1 << 20)
    with pytest.raises(ValueError, match="exceeds"):
        interval_score_uniform(32768, 16384)


# --------------------------------------------------------- square_score_grid


def square_score(x, y, lambda_cut):
    """The square score at one point, as a one-point grid."""
    return float(square_score_grid(np.array([x]), np.array([y]), lambda_cut)[0])


def test_square_score_single_term_examples():
    assert abs(square_score(0.5, 0.5, 2.0) - 1.0 / math.sqrt(2.0)) <= 1e-14
    # (1,2) and (2,1) contribute sin(pi) = 0 at the center point
    assert abs(square_score(0.5, 0.5, 5.0) - 1.0 / math.sqrt(2.0)) <= 1e-14


def test_square_score_symmetric_in_arguments():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, y = rng.uniform(0.0, 1.0, 2)
        assert abs(square_score(x, y, 30.0) - square_score(y, x, 30.0)) <= 1e-12


def test_square_lattice_counts():
    ms, ns, ws = square_lattice(8.0)
    # pairs with m^2 + n^2 <= 8: (1,1),(1,2),(2,1),(2,2)
    assert sorted(zip(ms.tolist(), ns.tolist())) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert np.allclose(ws, 1.0 / np.sqrt(ms.astype(float) ** 2 + ns.astype(float) ** 2))
    with pytest.raises(ValueError):
        square_lattice(1.5)
    for bad in (float(analytic.MAX_LAMBDA_CUT), 1e300, math.inf, math.nan):
        with pytest.raises(ValueError):
            square_lattice(bad)


def loop_square_lattice(lambda_cut):
    """Reference formulation: one Python loop over the columns m."""
    ms, ns = [], []
    for m in range(1, math.isqrt(math.floor(lambda_cut)) + 1):
        n_max = math.isqrt(math.floor(lambda_cut - m * m))
        ms.extend([m] * n_max)
        ns.extend(range(1, n_max + 1))
    ms = np.array(ms, dtype=np.int32)
    ns = np.array(ns, dtype=np.int32)
    ws = 1.0 / np.sqrt(ms.astype(np.float64) ** 2 + ns.astype(np.float64) ** 2)
    return ms, ns, ws


@pytest.mark.parametrize("lam", [2.0, 4.0, 24.999, 25.0, 25.5, 4000.0, 4000.5, 1e5, 1e5 - 0.25])
def test_square_lattice_equals_loop_form(lam):
    # 25 and 1e5 lie on lattice circles (3^2 + 4^2, 300^2 + 100^2)
    for got, want in zip(square_lattice(lam), loop_square_lattice(lam)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid_fn", [
    lambda xs: square_score_grid(xs, np.full(xs.shape, 0.5), 4000.0),
    lambda xs: square_score_grid(np.full(xs.shape, 0.5), xs, 4000.0),
], ids=["square-xs", "square-ys"])
def test_grid_scores_refuse_nan_and_points_outside(grid_fn):
    for bad in ([math.nan, 0.5], [0.5, math.nan], [math.nan], [-0.25, 0.5], [0.5, 1.5]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            grid_fn(np.array(bad))
    assert grid_fn(np.array([0.0, 0.5, 1.0])).shape == (3,)


def test_check_square_work_counts_the_kernels_work():
    # 4096x4096 at 4000: k = 64, 256 chunks of 65536 points, each with 4096
    # distinct x and 16 distinct y, bounded by 2^20 rows per axis; work =
    # 2^24 * 64 + 8 * 2^21 * 64 + 2^20 * 64^2 / 128
    with pytest.raises(ValueError, match=f"square work {2**31 + 2**25} on a 4096x4096"):
        analytic.check_square_work(4096, 4096, 4000.0)
    # square grids at moderate cutoffs stay accepted; wide grids at the
    # largest cutoff pay a 2048^2 gemm row per point and are refused
    for mx, my, lam in ((2048, 2048, 4000.0), (1024, 1024, 65535.0), (1 << 20, 14, 63.0)):
        analytic.check_square_work(mx, my, lam)
    with pytest.raises(ValueError, match="exceeds"):
        analytic.check_square_work(16384, 2, 4194303.0)
    # the benchmark's 48x48 grid at 4000 (work 198144) stays far below
    analytic.check_square_work(48, 48, 4000.0)
    assert 198144 * 1000 < analytic.MAX_SQUARE_WORK
    # a cutoff square_lattice refuses is refused here with its message
    for bad in (1.5, math.nan, math.inf, float(analytic.MAX_LAMBDA_CUT)):
        with pytest.raises(ValueError, match="lambda_cut must be"):
            analytic.check_square_work(4096, 4096, bad)


def test_square_score_grid_matches_pointwise():
    rng = np.random.default_rng(13)
    xs = rng.uniform(0.0, 1.0, 12)
    ys = rng.uniform(0.0, 1.0, 12)
    grid = square_score_grid(xs, ys, 60.0)
    point = np.array([square_score(float(x), float(y), 60.0) for x, y in zip(xs, ys)])
    assert np.abs(grid - point).max() <= 1e-12


# ---------------------------------------------------- probe_rational_minimum


def test_check_rational_minimum_examples():
    assert probe_rational_minimum(RationalPoint(1, 2), 4, 1e-3).strict is True
    # N = 1 is far below the q^2/pi threshold at q = 3
    assert probe_rational_minimum(RationalPoint(1, 3), 1, 1e-3).strict is False


def test_check_rational_minimum_step_guard():
    with pytest.raises(ValueError):
        probe_rational_minimum(RationalPoint(1, 5), 25, 1.0 / 100.0)  # h > 1/(8 q^2)
    with pytest.raises(ValueError):
        probe_rational_minimum(RationalPoint(1, 2), 4, -1e-3)


def test_probe_snaps_step_to_unit_fraction():
    point = RationalPoint(2, 5)
    for h in (1.0 / 200.0, 1e-3, 1.0 / 360.0):
        assert probe_rational_minimum(point, 25, h).step == h
    probe = probe_rational_minimum(point, 25, 0.003)
    assert probe.step == 1.0 / 333.0
    assert probe.strict is True
    assert probe.center_value == interval_score_uniform(5, 25)[2]
    # the snapped step is what the guard sees: round(1/0.00502) = 199 < 8 q^2
    with pytest.raises(ValueError, match="1/\\(8 q\\^2\\)"):
        probe_rational_minimum(point, 25, 0.00502)
    probe_rational_minimum(point, 25, 0.004999)  # snaps to 1/200
    for bad in (0.0, math.nan, -1.0, 5e-324):
        with pytest.raises(ValueError):
            probe_rational_minimum(point, 25, bad)


def test_probe_default_step_is_exactly_one_over_8_q_squared():
    for q in (3, 64, 28221420, 100000007):
        point = RationalPoint(1, q)
        assert probe_rational_minimum(point, 5).step == 1 / (8 * q**2)
    assert probe_rational_minimum(RationalPoint(2, 5), 25) == probe_rational_minimum(
        RationalPoint(2, 5), 25, 1.0 / 200.0
    )
    # 8 q^2 past int64 is refused by q, before any float of it
    for q in (1 << 30, 10**200 + 1):
        with pytest.raises(InputRefused, match="^q must be below 1073741824: 8 q\\^2 overflows"):
            probe_rational_minimum(RationalPoint(1, q), 5)


def test_probe_neighbours_match_float_kernel():
    point = RationalPoint(5, 13)
    n_terms = 4096
    h = 1.0 / (8 * 13**2)
    probe = probe_rational_minimum(point, n_terms, h)
    values = interval_series(np.array([5 / 13, 5 / 13 - h, 5 / 13 + h]), n_terms)
    assert abs(probe.center_value - values[0]) <= 1e-12
    assert probe.strict == bool(values[0] < values[1:].min())


def test_check_rational_minimum_2d_example():
    ok = check_rational_minimum_2d(RationalPoint(1, 2), RationalPoint(1, 3), 4000.0, 1e-3)
    assert ok is True


def test_check_rational_minimum_2d_step_guard():
    with pytest.raises(ValueError):
        check_rational_minimum_2d(RationalPoint(1, 2), RationalPoint(1, 5), 100.0, 1e-2)


# ------------------------------------------------------- period means of |sin|


def test_mean_abs_sin_examples():
    assert abs(mean_abs_sin(0.5, 2) - 0.5) <= 1e-15
    for m in (1, 3, 10):
        assert abs(mean_abs_sin(0.5, 2 * m) - 0.5) <= 1e-14
    with pytest.raises(ValueError):
        mean_abs_sin(0.0, 5)
    with pytest.raises(ValueError):
        mean_abs_sin(0.5, 0)


def test_mean_abs_sin_irrational_limit():
    got = mean_abs_sin(1.0 / math.sqrt(2.0), 10**6)
    assert abs(got - TWO_OVER_PI) <= 1e-3


def test_rational_mean_abs_sin_examples():
    assert abs(rational_mean_abs_sin(2) - 0.5) <= 1e-15
    assert abs(rational_mean_abs_sin(3) - math.sqrt(3.0) / 3.0) <= 1e-14
    assert abs(rational_mean_abs_sin(4) - (1.0 + math.sqrt(2.0)) / 4.0) <= 1e-14


def test_rational_mean_abs_sin_strictly_increasing_to_200():
    vals = [rational_mean_abs_sin(q) for q in range(2, 201)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert min(vals) == vals[0] == pytest.approx(0.5, abs=1e-15)
    assert abs(vals[-1] - TWO_OVER_PI) <= 1e-4


# ------------------------------------------------ periodic partial-sum bounds


def test_periodic_sum_bound_reference_example():
    seq = PeriodicSequence(np.array([1.0, -1.0]))
    out = periodic_sum_bound(seq, np.ones(10), 7)
    assert out.lhs == pytest.approx(1.0)
    assert out.rhs == pytest.approx(3.0)
    assert out.holds


def test_periodic_sum_bound_alternating_any_n():
    seq = PeriodicSequence(np.array([1.0, -1.0]))
    for n in range(1, 30):
        out = periodic_sum_bound(seq, np.ones(30), n)
        assert out.lhs in (0.0, 1.0)
        assert out.holds


def test_periodic_sum_bound_randomized():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        period = int(rng.integers(2, 21))
        a = rng.standard_normal(period)
        a -= a.mean()
        n = int(rng.integers(1, 10**4))
        b = np.cumsum(rng.uniform(0.0, 0.1, n)) + rng.uniform(0.1, 2.0)
        out = periodic_sum_bound(PeriodicSequence(a), b, n)
        assert out.holds


def test_periodic_sum_bound_input_guards():
    with pytest.raises(ValueError, match="zero mean"):
        periodic_sum_bound(PeriodicSequence(np.array([1.0, 1.0])), np.ones(5), 3)
    zero_mean = PeriodicSequence(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        periodic_sum_bound(zero_mean, np.array([2.0, 1.0, 1.0]), 3)  # decreasing b
    with pytest.raises(ValueError):
        periodic_sum_bound(zero_mean, np.array([1.0]), 3)  # too short


# ------------------------------------------------------------ nodal distances


def test_nodal_distance_sum_examples():
    assert nodal_distance_sum(0.0, 10) == 0.0
    assert nodal_distance_sum(0.5, 2) == pytest.approx(0.5)


def test_nodal_inequality_random():
    rng = np.random.default_rng(55)
    for _ in range(300):
        x = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, 101))
        assert interval_score(x, n) <= math.pi * nodal_distance_sum(x, n) + 1e-12


# ----------------------------------------------------- remark-scaling search


def test_remark_scaling_constant_exists():
    """2-D minimum at (p/q, 1/2) passes at lambda_cut = C q^4 for one C.

    The smallest passing C from the ladder is recorded in the assertion
    message rather than pinned, since the threshold constant is empirical.
    """
    ladder = (0.25, 0.5, 1.0, 2.0, 4.0)
    half = RationalPoint(1, 2)

    def passes(c):
        for q in (2, 3, 4, 5):
            pt = RationalPoint(1, q)
            h = 1.0 / (16.0 * q**2)
            if not check_rational_minimum_2d(pt, half, c * q**4, h):
                return False
        return True

    smallest = next((c for c in ladder if passes(c)), None)
    assert smallest is not None, "no constant in the ladder passed"
    print(f"\nsmallest passing lattice-cut constant: C = {smallest}")
    assert smallest <= 1.0, f"smallest passing constant {smallest} grew past 1"


def test_interval_sine_basis_validation():
    with pytest.raises(ValueError):
        interval_sine_basis(1, 2)
    values, vectors = interval_sine_basis(48, 3)
    assert vectors.shape == (49, 3)
    assert np.allclose(values, [1.0, 4.0, 9.0])
