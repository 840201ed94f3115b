"""Dense and iterative symmetric eigensolvers against independent oracles."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nodalscore.eigensolve import (
    CHECK_TOL,
    DENSE_MAX_N,
    RESIDUAL_TOL,
    _gershgorin_bound,
    _symmetric_row_sums,
    dense_sym_eig,
    lanczos_smallest,
)
from nodalscore.torus import PotentialSpec, build_circle_operator


def path_laplacian_3():
    return np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def random_sparse_laplacian(rng, n, avg_degree=4):
    """Combinatorial Laplacian of a random weighted graph (often disconnected)."""
    n_edges = max(1, int(n * avg_degree / 2))
    u = rng.integers(0, n, n_edges)
    v = rng.integers(0, n, n_edges)
    keep = u != v
    u, v = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    key = np.unique(u * n + v)
    u, v = key // n, key % n
    w = rng.uniform(0.5, 2.0, u.size)
    deg = np.zeros(n)
    np.add.at(deg, u, w)
    np.add.at(deg, v, w)
    idx = np.arange(n)
    return sp.csr_matrix(
        (
            np.concatenate([deg, -w, -w]),
            (np.concatenate([idx, u, v]), np.concatenate([idx, v, u])),
        ),
        shape=(n, n),
    )


# ------------------------------------------------------------ norm helpers


def _inf_norm(a):
    """||A||_inf as both solvers take it: the largest row sum of |A|."""
    return float(_symmetric_row_sums(a).max(initial=0.0))


def test_gershgorin_bounds_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        csr = sp.csr_matrix(a)
        bound = _gershgorin_bound(csr, _symmetric_row_sums(csr))
        assert bound >= np.linalg.eigvalsh(a).max() - 1e-12


def test_inf_norm_reads_dense_and_sparse_matrices():
    a = random_sparse_laplacian(np.random.default_rng(4), 40)
    want = np.abs(a.toarray()).sum(axis=1).max()
    assert _inf_norm(a) == pytest.approx(want, rel=1e-15)
    assert _inf_norm(a.toarray()) == pytest.approx(want, rel=1e-15)
    assert _inf_norm(sp.csr_matrix((5, 5))) == _inf_norm(np.zeros((5, 5))) == 0.0


def test_each_solve_forms_the_absolute_matrix_once(monkeypatch):
    # the symmetry check, the scale and the Gershgorin bound share one |A|
    from nodalscore import eigensolve

    calls = []

    def counted(a):
        calls.append(a.shape)
        return _symmetric_row_sums(a)

    monkeypatch.setattr(eigensolve, "_symmetric_row_sums", counted)
    wide = random_sparse_laplacian(np.random.default_rng(4), 704, avg_degree=6)
    assert lanczos_smallest(wide, 10, seed=1).method == "arpack"
    narrow = random_sparse_laplacian(np.random.default_rng(0), 120)
    assert lanczos_smallest(narrow, 4).method == "shift-invert"
    dense_sym_eig(path_laplacian_3(), m=2)
    assert calls == [(704, 704), (120, 120), (3, 3)]


# ------------------------------------------------------------ dense_sym_eig


def test_dense_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        dense_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_dense_symmetry_check_is_relative_to_the_matrix():
    # 1e-9 relative asymmetry in a matrix of entries near 1e-6
    a = 1e-6 * np.array([[1.0, 1.0 + 1e-9], [1.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        dense_sym_eig(a)
    assert dense_sym_eig(np.zeros((3, 3))).converged


@pytest.mark.parametrize(
    "a, message",
    [
        (np.ones((2, 3)), "must be square"),
        (np.ones(4), "must be square"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "non-finite"),
    ],
    ids=["wide", "1-d", "nan", "inf"],
)
def test_dense_rejects_non_square_and_non_finite(a, message):
    with pytest.raises(ValueError, match=message):
        dense_sym_eig(a)


# the combinatorial Laplacian of the path 0-1-2 with weights 1e308 and
# 5e307: every entry and degree is finite, but |A|'s row sums are 2e308,
# 3e308 and 1e308, and ||A||_inf and the Gershgorin bound overflowed
_ROW_SUM_OVERFLOW = np.array(
    [[1e308, -1e308, 0.0], [-1e308, 1.5e308, -5e307], [0.0, -5e307, 5e307]]
)


def test_both_solvers_refuse_row_sums_that_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^row 0 of \|A\| sums to a non-finite value"):
            dense_sym_eig(_ROW_SUM_OVERFLOW)
        with pytest.raises(ValueError, match=r"^row 0 of \|A\| sums to a non-finite value"):
            lanczos_smallest(sp.csr_matrix(_ROW_SUM_OVERFLOW), 1)
        # the first such row is named, not the largest
        a = _ROW_SUM_OVERFLOW.copy()
        a[0, 0] = a[1, 0] = a[0, 1] = 0.0
        with pytest.raises(ValueError, match=r"^row 1 of "):
            lanczos_smallest(sp.csr_matrix(a), 1)


def test_dense_2x2_example():
    report = dense_sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    values = [p.value for p in report.pairs]
    assert np.allclose(values, [1.0, 3.0], atol=1e-12)
    assert report.converged
    assert report.method == "dense"


def test_dense_identity_multiplicity():
    report = dense_sym_eig(np.eye(5))
    assert np.allclose([p.value for p in report.pairs], np.ones(5), atol=1e-14)


def test_dense_path_graph_against_charpoly_oracle():
    """P3 Laplacian spectrum {0, 1, 3} from its characteristic polynomial."""
    # det(L - x I) expands to -x^3 + 4x^2 - 3x by hand
    roots = np.sort(np.roots([-1.0, 4.0, -3.0, 0.0]).real)
    report = dense_sym_eig(path_laplacian_3())
    values = np.array([p.value for p in report.pairs])
    assert np.abs(values - roots).max() <= 1e-10
    assert np.abs(values - np.array([0.0, 1.0, 3.0])).max() <= 1e-10


def test_dense_clamps_tiny_negative_psd_values():
    # diagonal input reaches the solver unchanged, so the clamp band is exact
    report = dense_sym_eig(np.diag([-1e-12, 1.0, 2.0]))
    assert report.pairs[0].value == 0.0
    assert report.pairs[1].value == 1.0
    # clearly negative spectra violate the nonnegative eigenvalue contract
    with pytest.raises(ValueError, match="eigenvalue must be >= 0"):
        dense_sym_eig(np.diag([-1e-3, 1.0]))


def test_dense_sign_convention():
    report = dense_sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    for pair in report.pairs:
        assert pair.vector[np.argmax(np.abs(pair.vector))] > 0


def test_dense_requires_dense_representation():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for held in (sp.csr_matrix(a), a.tolist()):
        with pytest.raises(ValueError, match="dense ndarray"):
            dense_sym_eig(held)


def test_dense_size_cap():
    # refused from the shape, before any check reads the entries
    big = np.broadcast_to(np.float64(0.0), (DENSE_MAX_N + 1, DENSE_MAX_N + 1))
    with pytest.raises(ValueError, match="limited to n"):
        dense_sym_eig(big)


def test_dense_residuals_within_tolerance():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((60, 60))
    report = dense_sym_eig(a @ a.T)
    assert report.converged
    assert report.residuals.max() <= 1e-10


def star_laplacian(leaves):
    """Star K_{1,leaves}: spectrum {0, 1 (leaves - 1 times), leaves + 1}."""
    n = leaves + 1
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = -1.0
    a[np.arange(n), np.arange(n)] = np.concatenate([[leaves], np.ones(leaves)])
    return a


def subset_cases():
    rng = np.random.default_rng(61)
    for n in (40, 150, 300):
        op = random_sparse_laplacian(rng, n).toarray()
        yield pytest.param(op, (1, 5, 17, n - 1), id=f"random-{n}")
    yield pytest.param(star_laplacian(40), (1, 2, 3, 40), id="star")
    # V = 1: eigenvalues (2 - 2cos(2 pi k/n))/h^2 + 1, each k >= 1 twice;
    # even counts cut a double in half
    circle = build_circle_operator(256, PotentialSpec(y=1.0, eps=0.5, well_scale=0.0))
    yield pytest.param(circle.matrix.toarray(), (1, 2, 3, 8, 11, 255), id="circle")


@pytest.mark.parametrize("op, counts", list(subset_cases()))
def test_dense_subset_matches_full_solve(op, counts):
    full_vals = np.array([p.value for p in dense_sym_eig(op).pairs])
    scale = max(1.0, _inf_norm(op))
    for k in counts:
        report = dense_sym_eig(op, m=k)
        assert report.converged and report.method == "dense", k
        assert len(report.pairs) == report.residuals.size == k
        got = np.array([p.value for p in report.pairs])
        assert np.abs(got - full_vals[:k]).max() <= 1e-12 * scale, k
        assert report.residuals.max() <= 1e-10, k
        q = np.stack([p.vector for p in report.pairs], axis=1)
        assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12, k


def test_dense_subset_circle_doubles_closed_form():
    n = 256
    circle = build_circle_operator(n, PotentialSpec(y=1.0, eps=0.5, well_scale=0.0))
    report = dense_sym_eig(circle.matrix.toarray(), m=11)
    k = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
    want = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / circle.h**2 + 1.0
    got = np.array([p.value for p in report.pairs])
    assert np.abs(got - want).max() <= 1e-12 * _inf_norm(circle.matrix)


def test_dense_full_spectrum_unchanged_without_m():
    # m=None (and any m >= n) is the full LAPACK solve, bit for bit
    op = random_sparse_laplacian(np.random.default_rng(62), 90).toarray()
    n = op.shape[0]
    scale = max(1.0, _inf_norm(op))
    values, vectors = np.linalg.eigh(op)
    values[(values < 0) & (values > -1e-10 * scale)] = 0.0
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(n)])
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    for m in (None, n, n + 3):
        report = dense_sym_eig(op, m=m)
        assert len(report.pairs) == n
        assert np.array_equal([p.value for p in report.pairs], values)
        assert np.array_equal(np.stack([p.vector for p in report.pairs], axis=1), vectors)


def test_dense_subset_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        dense_sym_eig(np.eye(3), m=0)


# --------------------------------------------------------- lanczos_smallest


def test_lanczos_complete_graph_k4():
    # L = 4I - J on 4 vertices: spectrum {0, 4, 4, 4}
    a = 4.0 * np.eye(4) - np.ones((4, 4))
    report = lanczos_smallest(sp.csr_matrix(a), 2)
    values = [p.value for p in report.pairs]
    assert np.allclose(values, [0.0, 4.0], atol=1e-8)
    assert report.converged


def test_lanczos_resolves_high_multiplicity():
    # star graph S_4: spectrum {0, 1, 1, 1, 5}; ask for the triple eigenvalue
    n = 5
    u = np.zeros(4, dtype=np.int64)
    v = np.arange(1, 5, dtype=np.int64)
    deg = np.zeros(n)
    np.add.at(deg, u, 1.0)
    np.add.at(deg, v, 1.0)
    idx = np.arange(n)
    op = sp.csr_matrix(
        (
            np.concatenate([deg, -np.ones(8)]),
            (np.concatenate([idx, u, v]), np.concatenate([idx, v, u])),
        ),
        shape=(n, n),
    )
    report = lanczos_smallest(op, 4)
    values = np.array([p.value for p in report.pairs])
    assert np.abs(values - np.array([0.0, 1.0, 1.0, 1.0])).max() <= 1e-8


def test_lanczos_matches_dense_oracle_n200():
    rng = np.random.default_rng(123)
    op = random_sparse_laplacian(rng, 200)
    report = lanczos_smallest(op, 10, seed=7)
    dense = dense_sym_eig(op.toarray())
    got = np.array([p.value for p in report.pairs])
    want = np.array([p.value for p in dense.pairs[:10]])
    assert np.abs(got - want).max() <= 1e-8


def test_lanczos_deterministic_bit_identical():
    rng = np.random.default_rng(77)
    op = random_sparse_laplacian(rng, 120)
    r1 = lanczos_smallest(op, 6, seed=5)
    r2 = lanczos_smallest(op, 6, seed=5)
    for p1, p2 in zip(r1.pairs, r2.pairs):
        assert p1.value == p2.value
        assert (p1.vector == p2.vector).all()


def test_lanczos_orthonormal_vectors():
    rng = np.random.default_rng(31)
    op = random_sparse_laplacian(rng, 150)
    report = lanczos_smallest(op, 8)
    q = np.stack([p.vector for p in report.pairs], axis=1)
    dev = np.abs(q.T @ q - np.eye(8)).max()
    assert dev <= 1e-8


def test_lanczos_residual_contract():
    rng = np.random.default_rng(15)
    op = random_sparse_laplacian(rng, 180)
    tol = RESIDUAL_TOL
    report = lanczos_smallest(op, 8)
    scale = max(1.0, _inf_norm(op))
    dense = op.toarray()
    for pair in report.pairs:
        resid = np.linalg.norm(dense @ pair.vector - pair.value * pair.vector)
        assert resid / scale <= 10 * tol


def test_lanczos_zero_mode_constant_on_connected_graph():
    # cycle graph C_30 is connected: lambda_0 = 0 with the constant vector
    n = 30
    u = np.arange(n - 1, dtype=np.int64)
    v = u + 1
    u = np.concatenate([u, [0]])
    v = np.concatenate([v, [n - 1]])
    deg = np.full(n, 2.0)
    idx = np.arange(n)
    op = sp.csr_matrix(
        (
            np.concatenate([deg, -np.ones(2 * n)]),
            (np.concatenate([idx, u, v]), np.concatenate([idx, v, u])),
        ),
        shape=(n, n),
    )
    report = lanczos_smallest(op, 3)
    assert report.pairs[0].value <= 1e-9
    vec = report.pairs[0].vector
    vec = vec / np.linalg.norm(vec)
    assert np.abs(vec - vec.mean()).max() <= 1e-6


@pytest.mark.parametrize("held", ["dense", "sparse"])
def test_zero_operator_is_solved_exactly(held):
    # each solver on the form it takes; the sparse zero stores one 0.0
    n, m = 600, 5
    if held == "dense":
        report = dense_sym_eig(np.zeros((n, n)), m=m)
    else:
        report = lanczos_smallest(sp.csr_matrix(([0.0], ([0], [0])), shape=(n, n)), m)
    assert report.converged
    assert [p.value for p in report.pairs] == [0.0] * m
    assert not report.residuals.any()
    vecs = np.column_stack([p.vector for p in report.pairs])
    assert np.allclose(vecs.T @ vecs, np.eye(m), atol=1e-14)


def test_lanczos_rejects_m_not_below_n():
    with pytest.raises(ValueError):
        lanczos_smallest(sp.identity(4, format="csr"), 4)


def test_lanczos_requires_sparse_representation():
    with pytest.raises(ValueError, match="sparse"):
        lanczos_smallest(np.eye(4), 2)
    with pytest.raises(ValueError, match="square"):
        lanczos_smallest(sp.csr_matrix((4, 5)), 2)


def test_lanczos_rejects_asymmetry():
    # one stray off-diagonal entry on a 40-vertex path Laplacian; without
    # the check the solve ran until "lanczos failed to converge"
    deg = np.full(40, 2.0)
    deg[[0, -1]] = 1.0
    a = sp.diags([-np.ones(39), deg, -np.ones(39)], [-1, 0, 1], format="lil")
    a[0, 5] = -0.7
    with pytest.raises(ValueError, match=r"not symmetric \(1e-12 relative\)"):
        lanczos_smallest(a.tocsr(), 3)
    # the mirrored entry and its degrees make it a Laplacian, which solves
    a[5, 0] = -0.7
    a[0, 0] += 0.7
    a[5, 5] += 0.7
    assert lanczos_smallest(a.tocsr(), 3).converged


def test_lanczos_oracle_sweep_small():
    """Randomized dense-oracle equivalence on operators up to n = 300.

    Sparse operators this small always have a band narrow enough for the
    shift-invert transform.
    """
    rng = np.random.default_rng(2024)
    for _ in range(8):
        n = int(rng.integers(20, 301))
        op = random_sparse_laplacian(rng, n)
        m = min(10, n - 1)
        report = lanczos_smallest(op, m, seed=1)
        assert report.method == "shift-invert"
        got = np.array([p.value for p in report.pairs])
        want = np.array([p.value for p in dense_sym_eig(op.toarray()).pairs[:m]])
        assert np.abs(got - want).max() <= 1e-8


def test_lanczos_wide_band_sparse_takes_arpack_path():
    # connected, average degree 6: reverse Cuthill-McKee leaves a band of
    # 380, wider than the shift-invert band limit of 300 at m = 10
    op = random_sparse_laplacian(np.random.default_rng(4), 704, avg_degree=6)
    report = lanczos_smallest(op, 10, seed=1)
    assert report.method == "arpack"
    assert report.converged
    got = np.array([p.value for p in report.pairs])
    want = np.array([p.value for p in dense_sym_eig(op.toarray()).pairs[:10]])
    assert np.abs(got - want).max() <= 1e-8


def grid_mesh_laplacian(side, seed):
    """Unit-weight Laplacian of a side x side grid numbered row by row,
    each square split on a random diagonal."""
    idx = np.arange(side * side).reshape(side, side)
    flip = np.random.default_rng(seed).integers(2, size=(side - 1, side - 1)).astype(bool)
    a = np.where(flip, idx[:-1, :-1], idx[:-1, 1:])
    b = np.where(flip, idx[1:, 1:], idx[1:, :-1])
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel(), a.ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel(), b.ravel()])
    adj = sp.coo_matrix((np.ones(u.size), (u, v)), shape=(side * side,) * 2)
    adj = (adj + adj.T).tocsr()
    return (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()


@pytest.mark.parametrize(
    "build",
    [
        lambda: grid_mesh_laplacian(20, 0),
        # periodic: band n - 1 as numbered, 2 under RCM
        lambda: build_circle_operator(576, PotentialSpec(y=1.3, eps=0.6)).matrix,
        lambda: sp.diags([[-1.0] * 99, [1.0] + [2.0] * 98 + [1.0], [-1.0] * 99], [-1, 0, 1]),
    ],
    ids=["mesh", "circle", "path"],
)
def test_shift_invert_factor_solves_the_shifted_system(build):
    from nodalscore import eigensolve

    a = sp.csr_matrix(build())
    shift = -1e-3 * _inf_norm(a)
    solve = eigensolve._shift_invert(a, shift, 300)
    x = np.random.default_rng(1).standard_normal(a.shape[0])
    want = np.linalg.solve(a.toarray() - shift * np.eye(a.shape[0]), x)
    assert np.abs(solve(x) - want).max() <= 1e-10 * np.abs(want).max()


def test_lanczos_wide_band_operation_count():
    # a count, not a time: the rounds take 463 matvecs here
    op = random_sparse_laplacian(np.random.default_rng(4), 704, avg_degree=6)
    report = lanczos_smallest(op, 10, seed=1)
    assert report.method == "arpack"
    assert report.converged
    assert report.iterations <= 600


def block_copies(copies, isolated=0):
    """Disjoint copies of one wide-band Laplacian, plus isolated vertices.

    Every eigenvalue repeats, and zero has copies + isolated copies.
    """
    base = random_sparse_laplacian(np.random.default_rng(4), 704, avg_degree=6)
    blocks = [base] * copies + ([sp.csr_matrix((isolated, isolated))] if isolated else [])
    return sp.block_diag(blocks, format="csr")


def oracle_values(op, m):
    return np.array([p.value for p in dense_sym_eig(op.toarray()).pairs[:m]])


@pytest.mark.parametrize("copies, isolated, m", [(2, 0, 10), (3, 0, 12), (1, 3, 10), (2, 2, 12)])
def test_arpack_path_recovers_exact_copies(copies, isolated, m):
    # ARPACK's single Krylov start sees one vector per eigenspace, and on
    # isolated vertices no rounding ever adds another: it returns one zero
    # of four at (1, 3).  The deflated rounds after the first must supply
    # the missing copies.
    op = block_copies(copies, isolated)
    zeros = copies + isolated
    report = lanczos_smallest(op, m, seed=1)
    assert report.method == "arpack"
    assert report.converged
    got = np.array([p.value for p in report.pairs])
    want = oracle_values(op, m)
    assert (want[:zeros] < 1e-10).all() and want[zeros] > 1e-3
    assert np.abs(got - want).max() <= 1e-8


def test_arpack_path_deterministic_bit_identical():
    op = block_copies(2)
    r1 = lanczos_smallest(op, 10, seed=3)
    r2 = lanczos_smallest(op, 10, seed=3)
    assert r1.method == "arpack" and r1.iterations == r2.iterations
    for p1, p2 in zip(r1.pairs, r2.pairs):
        assert p1.value == p2.value
        assert (p1.vector == p2.vector).all()


@pytest.mark.parametrize("kept", [0, 4, None])
def test_arpack_no_convergence_falls_through_to_lanczos(monkeypatch, kept):
    # the first ARPACK round stopping short, with none or some of its pairs
    # converged, or failing outright (kept=None): the later rounds, run
    # by the real eigsh, must finish the solve
    real_eigsh = spla.eigsh
    calls = []

    def short_eigsh(a, k, **kwargs):
        calls.append(k)
        vals, vecs = real_eigsh(a, k=k, **kwargs)
        if len(calls) > 1:
            return vals, vecs
        if kept is None:
            raise spla.ArpackError(-9999)
        raise spla.ArpackNoConvergence("no convergence", vals[:kept], vecs[:, :kept])

    monkeypatch.setattr(spla, "eigsh", short_eigsh)
    op = random_sparse_laplacian(np.random.default_rng(4), 704, avg_degree=6)
    report = lanczos_smallest(op, 10, seed=1)
    assert report.method == "arpack"
    assert report.converged
    assert len(calls) >= 2
    got = np.array([p.value for p in report.pairs])
    assert np.abs(got - oracle_values(op, 10)).max() <= 1e-8


def test_arpack_rounds_reach_m_equal_n_minus_one():
    # an indefinite sparse operator is off the band path; m = n - 1 asks
    # ARPACK for n - 1 of n pairs and still meets the PSD contract
    lap = random_sparse_laplacian(np.random.default_rng(9), 40)
    op = (lap - sp.identity(40)).tocsr()
    with pytest.raises(ValueError, match="eigenvalue must be >= 0"):
        lanczos_smallest(op, 39, seed=3)


def test_lanczos_indefinite_sparse_falls_back_to_gershgorin_path(monkeypatch):
    # a Laplacian shifted down by 1 is not positive definite at the
    # shift-invert path's shift: SuperLU factors it without pivoting, a
    # negative entry of U's diagonal sends the solve to the Gershgorin
    # route, and the solve meets the same PSD contract as the dense solver
    from nodalscore import eigensolve

    factors, methods = [], []
    real_splu, real_finish = spla.splu, eigensolve._finish

    def splu(*args, **kwargs):
        factors.append(real_splu(*args, **kwargs))
        return factors[-1]

    def finish(*args):
        methods.append(args[-1])
        return real_finish(*args)

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(eigensolve, "_finish", finish)
    lap = random_sparse_laplacian(np.random.default_rng(9), 120)
    op = (lap - sp.identity(120)).tocsr()
    with pytest.raises(ValueError, match="eigenvalue must be >= 0"):
        lanczos_smallest(op, 6, seed=3)
    [lu] = factors
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.U.diagonal().min() < 0
    assert methods == ["arpack"]


def test_lanczos_shift_invert_is_scale_invariant():
    # a Laplacian with large weights: every wanted pair still converges,
    # to the dense oracle's relative accuracy
    lap = random_sparse_laplacian(np.random.default_rng(0), 120)
    for weight in (1e4, 1e8, 1e13):
        op = lap * weight
        report = lanczos_smallest(op, 4)
        assert report.method == "shift-invert"
        assert report.converged
        got = np.array([p.value for p in report.pairs])
        want = np.array([p.value for p in dense_sym_eig(op.toarray()).pairs[:4]])
        assert np.abs(got - want).max() <= 1e-8 * _inf_norm(op)


def unit_path_laplacian(n):
    off = -np.ones(n - 1)
    return sp.diags([off, np.r_[1.0, np.full(n - 2, 2.0), 1.0], off], [-1, 0, 1]).tocsr()


# the 800-vertex path takes the shift-invert path and the random graph the
# Gershgorin one; ARPACK's stopping test is relative only for Ritz values
# above eps^(2/3), so as given the path failed at weights 1e25 and the
# random graph at 1e-30
SCALED_SOLVES = [
    (lambda: unit_path_laplacian(800), 5, "shift-invert"),
    (lambda: random_sparse_laplacian(np.random.default_rng(0), 700, avg_degree=6), 9, "arpack"),
]


@pytest.mark.parametrize("build, m, method", SCALED_SOLVES, ids=["path", "random"])
def test_lanczos_scales_by_a_power_of_four_bit_for_bit(build, m, method):
    # the solve runs on 4^-k A, so 4^j A gives 4^j times the values and the
    # same vectors; the path drifted at 4^30 and the random graph at 4^-30
    op = build()
    base = lanczos_smallest(op, m)
    assert base.method == method and base.converged
    for c in (4.0**30, 4.0**-30):
        report = lanczos_smallest(op * c, m)
        assert np.array_equal(report.values, base.values * c), c
        assert np.array_equal(report.vectors, base.vectors), c
        assert report.iterations == base.iterations, c


@pytest.mark.parametrize("build, m, method", SCALED_SOLVES, ids=["path", "random"])
def test_lanczos_converges_at_extreme_weights(build, m, method):
    # the path takes 113 solves at every weight; the random graph's
    # weights times c round differently for each c, and the number of
    # ARPACK restarts follows that rounding (446 matvecs at c = 1, 427-493
    # at weights from 1e-300 to 1e300)
    op = build()
    base = lanczos_smallest(op, m)
    for c in (1e-30, 1e30, 1e100):
        report = lanczos_smallest(op * c, m)
        assert report.method == method and report.converged, c
        assert np.abs(report.values / c - base.values).max() <= 1e-8 * base.values.max(), c
        if method == "shift-invert":
            assert report.iterations == base.iterations, c
        else:
            assert report.iterations <= 1.25 * base.iterations, c


def test_lanczos_shift_invert_recovers_exact_circle_doubles():
    """Unperturbed circle: ground mode plus exact doubles, closed form.

    V = 1 makes the operator circulant with eigenvalues
    (2 - 2 cos(2 pi k / n)) / h^2 + 1, each k >= 1 twice; one Krylov start
    sees one vector per double, so the copies come from deflated restarts.
    """
    n = 1024
    circle = build_circle_operator(n, PotentialSpec(y=1.0, eps=0.5, well_scale=0.0))
    report = lanczos_smallest(circle.matrix, 11)
    assert report.method == "shift-invert"
    assert report.converged
    k = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
    want = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / circle.h**2 + 1.0
    got = np.array([p.value for p in report.pairs])
    assert np.abs(got - want).max() <= 1e-8 * want.max()


def test_lanczos_circle_well_operation_count():
    # a count, not a time: the Gershgorin-shifted iteration needed 876
    # operator applications here, the shift-invert one needs about 100
    circle = build_circle_operator(576, PotentialSpec(y=1.3, eps=0.6))
    report = lanczos_smallest(circle.matrix, 11)
    assert report.method == "shift-invert"
    assert report.converged
    assert report.iterations <= 150


def test_lanczos_circle_well_certificate_operation_count():
    # a count, not a time: the loose certificate ends the solve after 81
    # shift-invert solves here; a tol=0 check round took 101
    circle = build_circle_operator(576, PotentialSpec(y=1.3, eps=0.6))
    report = lanczos_smallest(circle.matrix, 11)
    assert report.method == "shift-invert"
    assert report.converged
    assert report.iterations <= 90


def recording_eigsh(monkeypatch, loose=None):
    """Log (k, tol, v0) of every eigsh call; ``loose`` replaces the certificate calls."""
    real_eigsh = spla.eigsh
    calls = []

    def eigsh(a, k, **kwargs):
        calls.append((k, kwargs["tol"], kwargs["v0"].copy()))
        if kwargs["tol"] == CHECK_TOL and loose is not None:
            return loose(real_eigsh, a, k, **kwargs)
        return real_eigsh(a, k=k, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    return calls


def circle_copies():
    circle = build_circle_operator(576, PotentialSpec(y=1.3, eps=0.6)).matrix
    return sp.block_diag([circle, circle], format="csr")


@pytest.mark.parametrize(
    "build, method", [(circle_copies, "shift-invert"), (lambda: block_copies(2), "arpack")]
)
def test_certificate_falls_back_on_exact_copies(monkeypatch, build, method):
    # with m pairs accepted, one copy of each eigenvalue is still missing:
    # the certificate must not end the solve, and the tol=0 round that
    # follows, from the same start, must supply the copies
    op = build()
    calls = recording_eigsh(monkeypatch)
    report = lanczos_smallest(op, 11, seed=1)
    assert report.method == method
    assert report.converged
    fallbacks = [
        i for i in range(len(calls) - 1)
        if calls[i][1] == CHECK_TOL and calls[i + 1][:2] == (1, 0)
        and (calls[i][2] == calls[i + 1][2]).all()
    ]
    assert fallbacks
    got = np.array([p.value for p in report.pairs])
    want = oracle_values(op, 11)
    assert np.abs(want[0::2][:5] - want[1::2][:5]).max() <= 1e-8 * want.max()
    assert np.abs(got - want).max() <= 1e-8 * want.max()


def no_theta(real_eigsh, a, k, **kwargs):
    return np.zeros(1), np.zeros((a.shape[0], 1))


def arpack_error(real_eigsh, a, k, **kwargs):
    raise spla.ArpackError(-9999)


def no_convergence(real_eigsh, a, k, **kwargs):
    vals, vecs = real_eigsh(a, k=k, **kwargs)
    raise spla.ArpackNoConvergence("no convergence", vals, vecs)


@pytest.mark.parametrize("loose", [arpack_error, no_convergence])
def test_certificate_failure_reproduces_the_tol0_round(monkeypatch, loose):
    # a certificate that raises takes the tol=0 round from the same start,
    # with no extra draw: the pairs are bitwise those of a solve whose
    # certificate sees no theta > 0, which runs no application for it and
    # so is the solve without a certificate; an accepted certificate
    # returns the same pairs too
    op = build_circle_operator(576, PotentialSpec(y=1.3, eps=0.6)).matrix
    recording_eigsh(monkeypatch, no_theta)
    reference = lanczos_smallest(op, 11, seed=2)
    recording_eigsh(monkeypatch, loose)
    failed = lanczos_smallest(op, 11, seed=2)
    monkeypatch.undo()
    certified = lanczos_smallest(op, 11, seed=2)
    assert reference.converged and failed.converged and certified.converged
    assert certified.iterations < reference.iterations
    for report in (failed, certified):
        for p1, p2 in zip(reference.pairs, report.pairs, strict=True):
            assert p1.value == p2.value
            assert (p1.vector == p2.vector).all()
