"""Score fields, degeneracy grouping, local minima."""

import warnings

import numpy as np
import pytest

from nodalscore import pipeline, torus
from nodalscore.analytic import interval_sine_basis as sine_basis
from nodalscore.core import (
    compute_score_field,
    find_strict_local_minima,
    group_degenerate,
)
from nodalscore.eigensolve import dense_sym_eig, lanczos_smallest


def column(vector):
    return np.asarray(vector, dtype=float)[:, None]


# ------------------------------------------------------------ input checks


def test_eigenpair_caches_sup_norm():
    # each term divides by its own column's sup norm max|v|: 2 and 4 here
    vectors = np.array([[0.0, 3.0], [2.0, 0.0], [-2.0, -4.0]])
    field = compute_score_field([4.0, 16.0], vectors, 2)
    assert np.array_equal(field, [0.1875, 0.5, 0.75])


def test_eigenpair_rejects_bad_input():
    # the score checks each pair it sums: a positive value, a finite
    # eigenvector with a nonzero sup norm, one column per value
    with pytest.raises(ValueError):
        compute_score_field([-1.0], column([1.0]), 1)
    with pytest.raises(ValueError):
        compute_score_field([1.0], column([0.0, 0.0]), 1)
    with pytest.raises(ValueError):
        compute_score_field([1.0], column([np.nan]), 1)
    with pytest.raises(ValueError):
        compute_score_field([1.0], column([np.inf, 1.0]), 1)
    with pytest.raises(ValueError):
        compute_score_field([np.nan], column([1.0]), 1)
    with pytest.raises(ValueError):
        compute_score_field([1.0], np.ones(2), 1)


def test_basis_requires_sorted_values():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="ascending"):
        compute_score_field([1.0, 0.5], vectors, 2)


def test_basis_requires_equal_lengths():
    with pytest.raises(ValueError, match="one column per value"):
        compute_score_field([1.0, 2.0], np.ones((3, 3)), 2)


def test_basis_build_drops_trivial_modes():
    """A graph component is scored without its modes below 1e-9 lambda_max."""
    # path 0 - 1 - 2 with weights 1 and 1e-12: spectrum {0, ~1.5e-12, ~2}
    graph = pipeline.Graph(n=3, u=[0, 1], v=[1, 2], w=[1.0, 1e-12])
    with pytest.warns(UserWarning, match="supplied only 1 nontrivial modes"):
        field = pipeline.score_graph(graph, 2, kind="combinatorial")
    report = dense_sym_eig(pipeline.laplacian(graph).densified())
    assert report.values[1] < 1e-9 * report.values[2]
    want = compute_score_field(report.values[2:], report.vectors[:, 2:], 1)
    assert np.array_equal(field, want)


# ------------------------------------------------------- compute_score_field


def test_score_single_pair_example():
    """One pair (lambda=4, phi=[0,2,-2,0]) at N=1 gives (1/2)|phi|/2."""
    field = compute_score_field([4.0], column([0.0, 2.0, -2.0, 0.0]), 1)
    assert np.allclose(field, [0.0, 0.5, 0.5, 0.0], atol=1e-15)


def test_score_two_pairs_is_sum_of_single_fields():
    rng = np.random.default_rng(0)
    v1 = rng.standard_normal(6)
    v2 = rng.standard_normal(6)
    both = compute_score_field([1.0, 3.0], np.column_stack([v1, v2]), 2)
    one = compute_score_field([1.0], column(v1), 1)
    two = compute_score_field([3.0], column(v2), 1)
    assert np.allclose(both, one + two, atol=1e-14)


def test_score_interval_sine_half_point():
    """Sine basis at x = 1/2, N = 3: 1 + 0 + 1/3."""
    field = compute_score_field(*sine_basis(16, 3), 3)
    assert abs(field[8] - 4.0 / 3.0) <= 1e-12


def test_score_errors():
    values, vectors = sine_basis(8, 2)
    with pytest.raises(ValueError, match="need n_terms=3"):
        compute_score_field(values, vectors, 3)
    with pytest.raises(ValueError, match="zero eigenvalue in score"):
        compute_score_field([0.0], column([1.0, 1.0]), 1)


def test_score_warns_on_degenerate_as_given():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="degenerate"):
        compute_score_field([2.0, 2.0], vectors, 2)


def test_score_config_validation():
    values, vectors = sine_basis(8, 2)
    with pytest.raises(ValueError, match="n_terms must be >= 1"):
        compute_score_field(values, vectors, 0)
    # only the selected prefix is checked and summed
    field = compute_score_field([1.0, np.nan], np.ones((2, 2)), 1)
    assert np.array_equal(field, [1.0, 1.0])


# ---------------------------------------------------- bitwise per-pair oracle


def per_pair_score(values, vectors, n_terms):
    """The score as the per-pair form computes it, the reference for the bits.

    The columns are stacked into a (n_terms, n) block, each pair's sup norm
    is its own max|v|, and the weighted row is multiplied into |block|.
    """
    rows = np.stack([vectors[:, k] for k in range(n_terms)])
    sups = np.array([float(np.max(np.abs(vectors[:, k]))) for k in range(n_terms)])
    weights = np.array([float(values[k]) for k in range(n_terms)]) ** -0.5
    return (weights / sups) @ np.abs(rows)


def assert_same_bits(values, vectors, n_terms):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = compute_score_field(values, vectors, n_terms)
    assert got.tobytes() == per_pair_score(values, vectors, n_terms).tobytes()


def test_score_bits_match_per_pair_form_on_random_bases():
    rng = np.random.default_rng(17)
    for n, m in ((5, 1), (40, 7), (333, 12), (1000, 30), (2048, 64)):
        values = np.sort(rng.uniform(0.01, 100.0, m))
        vectors = rng.standard_normal((n, m))
        for n_terms in sorted({1, (m + 1) // 2, m}):
            assert_same_bits(values, vectors, n_terms)
        # a Fortran-ordered matrix scores the same bits
        assert_same_bits(values, np.asfortranarray(vectors), m)


def test_score_bits_match_per_pair_form_on_solved_graphs():
    rng = np.random.default_rng(3)
    n = 700
    # a path plus random chords, as sorted unique (u, v) keys
    a, b = rng.integers(0, n, (2, 2 * n))
    chords = np.minimum(a, b) * n + np.maximum(a, b)
    path = np.arange(n - 1) * n + np.arange(1, n)
    keys = np.unique(np.concatenate([path, chords[a != b]]))
    graph = pipeline.Graph(n=n, u=keys // n, v=keys % n, w=rng.uniform(0.5, 2.0, keys.size))
    op = pipeline.laplacian(graph, "sym-normalized")
    for report in (dense_sym_eig(op.densified(), m=9), lanczos_smallest(op, 9, seed=0)):
        assert report.converged
        assert_same_bits(report.values[1:], report.vectors[:, 1:], 8)


def test_score_bits_match_per_pair_form_on_the_circle_operator():
    spec = torus.PotentialSpec(y=2.2, eps=0.6)
    for n_grid in (256, 576):
        op = torus.build_circle_operator(n_grid, spec).matrix
        values, vectors = torus._smallest_pairs(op, 11, 0)
        assert_same_bits(values[1:], vectors[:, 1:], 10)
        field = torus.torus_score(n_grid, spec, 5)
        assert field.tobytes() == per_pair_score(values[1:], vectors[:, 1:], 10).tobytes()


# ------------------------------------------------------------- nodal proxy


def test_nodal_proxy_examples():
    # one term of the score, value^{-1/2} |vector[x]| / max|vector|, is the
    # nodal-distance proxy of one pair
    xs = np.arange(17) / 16
    assert abs(compute_score_field([1.0], column(np.sin(np.pi * xs)), 1)[8] - 1.0) <= 1e-12
    assert compute_score_field([4.0], column([0.0, 1.0]), 1)[0] == 0.0
    xs = np.arange(25) / 24
    # x = 1/6 is index 4; sin(3 pi / 6) = 1
    term = compute_score_field([9.0], column(np.sin(3 * np.pi * xs)), 1)
    assert abs(term[4] - 1.0 / 3.0) <= 1e-12


def test_nodal_proxy_rejects_zero_value():
    with pytest.raises(ValueError, match="zero eigenvalue in score"):
        compute_score_field([0.0], column([1.0]), 1)


# ------------------------------------------------------ spec-level properties


def test_property_nonnegative_and_monotone_in_n():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n_pts = rng.integers(3, 30)
        n_pairs = rng.integers(1, 8)
        values = np.sort(rng.uniform(0.1, 50.0, n_pairs))
        vectors = rng.standard_normal((n_pts, n_pairs))
        prev = np.zeros(n_pts)
        for n in range(1, n_pairs + 1):
            field = compute_score_field(values, vectors, n, _warn=False)
            assert (field >= 0.0).all()
            assert (field >= prev - 1e-14).all()
            prev = field


def test_property_scale_invariance():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(10)
    f1 = compute_score_field([2.0], column(v), 1)
    f2 = compute_score_field([2.0], column(-17.5 * v), 1)
    assert np.allclose(f1, f2, atol=1e-14)


def test_property_term_bound():
    rng = np.random.default_rng(9)
    values = np.sort(rng.uniform(0.5, 9.0, 6))
    field = compute_score_field(values, rng.standard_normal((12, 6)), 6, _warn=False)
    assert field.max() <= (values ** -0.5).sum() + 1e-12


# ------------------------------------------------------------ group_degenerate


def test_group_degenerate_examples():
    assert group_degenerate(np.array([0.5, 1.0, 1.0, 3.0]), 1e-9) == [[0], [1, 2], [3]]
    assert group_degenerate(np.array([1.0, 1.0 + 1e-12, 2.0]), 1e-9) == [[0, 1], [2]]
    assert group_degenerate(np.array([1.0, 2.0, 4.0]), 0.0) == [[0], [1], [2]]
    assert group_degenerate(np.array([]), 1e-9) == []
    with pytest.raises(ValueError):
        group_degenerate(np.array([1.0]), -1.0)


def test_group_degenerate_partitions_all_indices():
    rng = np.random.default_rng(1)
    for _ in range(20):
        values = np.sort(rng.uniform(0.0, 10.0, rng.integers(1, 15)))
        groups = group_degenerate(values, 1e-6)
        flat = [i for g in groups for i in g]
        assert flat == list(range(len(values)))


# -------------------------------------------------- find_strict_local_minima


def test_minima_1d_examples():
    assert list(find_strict_local_minima(np.array([3.0, 1.0, 2.0]))) == [1]
    assert list(find_strict_local_minima(np.ones(5))) == []
    # boundary points compete only against their single neighbor
    assert list(find_strict_local_minima(np.array([0.0, 1.0, 0.5]))) == [0, 2]
    assert list(find_strict_local_minima(np.array([0.0, 1.0, 1.5]))) == [0]


def test_degeneracy_groups_type_roundtrip():
    # plain lists of Python ints, ready for indexing and JSON alike
    groups = group_degenerate(np.array([1.0, 1.0, 2.0]), 1e-8)
    assert groups == [[0, 1], [2]]
    assert all(type(i) is int for g in groups for i in g)
