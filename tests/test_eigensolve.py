"""Dense and iterative symmetric eigensolvers against independent oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nodalscore.eigensolve import (
    CHECK_TOL,
    DENSE_MAX_N,
    SymOperator,
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
    rows = np.concatenate([idx, u])
    cols = np.concatenate([idx, v])
    vals = np.concatenate([deg, -w])
    return SymOperator.from_triplets(n, rows, cols, vals)


# ------------------------------------------------------------- SymOperator


def test_from_dense_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        SymOperator.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_from_dense_symmetry_check_is_relative_to_the_matrix():
    # 1e-9 relative asymmetry in a matrix of entries near 1e-6
    a = 1e-6 * np.array([[1.0, 1.0 + 1e-9], [1.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        SymOperator.from_dense(a)
    SymOperator.from_dense(np.zeros((3, 3)))


def test_from_triplets_rejects_lower_triangle():
    with pytest.raises(ValueError):
        SymOperator.from_triplets(2, [1], [0], [1.0])


def test_triplets_duplicates_sum_and_mirror():
    op = SymOperator.from_triplets(2, [0, 0, 0], [1, 1, 0], [1.0, 2.0, 5.0])
    dense = op.to_dense()
    assert np.allclose(dense, [[5.0, 3.0], [3.0, 0.0]])


def test_triplets_csr_is_canonical_without_stored_zeros():
    # explicit zeros and duplicates that cancel leave no stored entry
    op = SymOperator.from_triplets(
        3, [0, 0, 1, 1, 0, 2], [0, 2, 2, 2, 1, 2], [0.0, 4.0, 1.5, -1.5, 0.0, 2.0]
    )
    csr = op.csr
    assert csr.has_canonical_format
    assert np.all(csr.data != 0.0)
    assert csr.nnz == 3
    assert np.array_equal(op.to_dense(), [[0.0, 0.0, 4.0], [0.0, 0.0, 0.0], [4.0, 0.0, 2.0]])
    rng = np.random.default_rng(5)
    n = 40
    rows = rng.integers(0, n, 300)
    cols = rng.integers(0, n, 300)
    rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
    vals = rng.standard_normal(300)
    want = np.zeros((n, n))
    np.add.at(want, (rows, cols), vals)
    want = want + np.triu(want, 1).T
    dense = SymOperator.from_triplets(n, rows, cols, vals).to_dense()
    assert np.abs(dense - want).max() <= 1e-14


def test_gershgorin_bounds_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        op = SymOperator.from_dense(a)
        assert op.gershgorin_bound >= np.linalg.eigvalsh(a).max() - 1e-12


def test_matvec_matches_dense():
    rng = np.random.default_rng(4)
    op = random_sparse_laplacian(rng, 40)
    x = rng.standard_normal(40)
    assert np.allclose(op.matvec(x), op.to_dense() @ x, atol=1e-12)


# ------------------------------------------------------------ dense_sym_eig


def test_dense_2x2_example():
    report = dense_sym_eig(SymOperator.from_dense([[2.0, 1.0], [1.0, 2.0]]))
    values = [p.value for p in report.pairs]
    assert np.allclose(values, [1.0, 3.0], atol=1e-12)
    assert report.converged
    assert report.method == "dense"


def test_dense_identity_multiplicity():
    report = dense_sym_eig(SymOperator.from_dense(np.eye(5)))
    assert np.allclose([p.value for p in report.pairs], np.ones(5), atol=1e-14)


def test_dense_path_graph_against_charpoly_oracle():
    """P3 Laplacian spectrum {0, 1, 3} from its characteristic polynomial."""
    # det(L - x I) expands to -x^3 + 4x^2 - 3x by hand
    roots = np.sort(np.roots([-1.0, 4.0, -3.0, 0.0]).real)
    report = dense_sym_eig(SymOperator.from_dense(path_laplacian_3()))
    values = np.array([p.value for p in report.pairs])
    assert np.abs(values - roots).max() <= 1e-10
    assert np.abs(values - np.array([0.0, 1.0, 3.0])).max() <= 1e-10


def test_dense_clamps_tiny_negative_psd_values():
    # diagonal input reaches the solver unchanged, so the clamp band is exact
    op = SymOperator.from_dense(np.diag([-1e-12, 1.0, 2.0]))
    report = dense_sym_eig(op)
    assert report.pairs[0].value == 0.0
    assert report.pairs[1].value == 1.0
    # clearly negative spectra violate the nonnegative eigenvalue contract
    with pytest.raises(ValueError, match="eigenvalue must be >= 0"):
        dense_sym_eig(SymOperator.from_dense(np.diag([-1e-3, 1.0])))


def test_dense_sign_convention():
    report = dense_sym_eig(SymOperator.from_dense([[2.0, 1.0], [1.0, 2.0]]))
    for pair in report.pairs:
        assert pair.vector[np.argmax(np.abs(pair.vector))] > 0


def test_dense_requires_dense_representation():
    op = SymOperator.from_triplets(2, [0], [1], [1.0])
    with pytest.raises(ValueError, match="dense"):
        dense_sym_eig(op)


def test_dense_size_cap():
    big = SymOperator(n=DENSE_MAX_N + 1, dense=np.eye(DENSE_MAX_N + 1))
    with pytest.raises(ValueError):
        dense_sym_eig(big)


def test_dense_residuals_within_tolerance():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((60, 60))
    report = dense_sym_eig(SymOperator.from_dense(a @ a.T))
    assert report.converged
    assert report.residuals.max() <= 1e-10


def star_laplacian(leaves):
    """Star K_{1,leaves}: spectrum {0, 1 (leaves - 1 times), leaves + 1}."""
    n = leaves + 1
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = -1.0
    a[np.arange(n), np.arange(n)] = np.concatenate([[leaves], np.ones(leaves)])
    return SymOperator.from_dense(a)


def subset_cases():
    rng = np.random.default_rng(61)
    for n in (40, 150, 300):
        op = random_sparse_laplacian(rng, n).densified()
        yield pytest.param(op, (1, 5, 17, n - 1), id=f"random-{n}")
    yield pytest.param(star_laplacian(40), (1, 2, 3, 40), id="star")
    # V = 1: eigenvalues (2 - 2cos(2 pi k/n))/h^2 + 1, each k >= 1 twice;
    # even counts cut a double in half
    circle = build_circle_operator(256, PotentialSpec(y=1.0, eps=0.5, well_scale=0.0))
    yield pytest.param(circle.matrix.densified(), (1, 2, 3, 8, 11, 255), id="circle")


@pytest.mark.parametrize("op, counts", list(subset_cases()))
def test_dense_subset_matches_full_solve(op, counts):
    full_vals = np.array([p.value for p in dense_sym_eig(op).pairs])
    scale = max(1.0, op.inf_norm_estimate)
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
    report = dense_sym_eig(circle.matrix.densified(), m=11)
    k = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
    want = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / circle.h**2 + 1.0
    got = np.array([p.value for p in report.pairs])
    assert np.abs(got - want).max() <= 1e-12 * circle.matrix.inf_norm_estimate


def test_dense_full_spectrum_unchanged_without_m():
    # m=None (and any m >= n) is the full LAPACK solve, bit for bit
    op = random_sparse_laplacian(np.random.default_rng(62), 90).densified()
    scale = max(1.0, op.inf_norm_estimate)
    values, vectors = np.linalg.eigh(op.dense)
    values[(values < 0) & (values > -1e-10 * scale)] = 0.0
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(op.n)])
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    for m in (None, op.n, op.n + 3):
        report = dense_sym_eig(op, m=m)
        assert len(report.pairs) == op.n
        assert np.array_equal([p.value for p in report.pairs], values)
        assert np.array_equal(np.stack([p.vector for p in report.pairs], axis=1), vectors)


def test_dense_subset_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        dense_sym_eig(SymOperator.from_dense(np.eye(3)), m=0)


# --------------------------------------------------------- lanczos_smallest


def test_lanczos_complete_graph_k4():
    # L = 4I - J on 4 vertices: spectrum {0, 4, 4, 4}
    a = 4.0 * np.eye(4) - np.ones((4, 4))
    report = lanczos_smallest(SymOperator.from_dense(a), 2)
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
    op = SymOperator.from_triplets(
        n,
        np.concatenate([idx, u]),
        np.concatenate([idx, v]),
        np.concatenate([deg, -np.ones(4)]),
    )
    report = lanczos_smallest(op, 4)
    values = np.array([p.value for p in report.pairs])
    assert np.abs(values - np.array([0.0, 1.0, 1.0, 1.0])).max() <= 1e-8


def test_lanczos_matches_dense_oracle_n200():
    rng = np.random.default_rng(123)
    op = random_sparse_laplacian(rng, 200)
    report = lanczos_smallest(op, 10, seed=7)
    dense = dense_sym_eig(op.densified())
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
    tol = 1e-10
    report = lanczos_smallest(op, 8, tol=tol)
    scale = max(1.0, op.inf_norm_estimate)
    dense = op.to_dense()
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
    op = SymOperator.from_triplets(
        n,
        np.concatenate([idx, u]),
        np.concatenate([idx, v]),
        np.concatenate([deg, -np.ones(n)]),
    )
    report = lanczos_smallest(op, 3)
    assert report.pairs[0].value <= 1e-9
    vec = report.pairs[0].vector
    vec = vec / np.linalg.norm(vec)
    assert np.abs(vec - vec.mean()).max() <= 1e-6


@pytest.mark.parametrize("held", ["dense", "sparse"])
def test_zero_operator_is_solved_exactly(held):
    n, m = 600, 5
    op = (
        SymOperator.from_dense(np.zeros((n, n))) if held == "dense"
        else SymOperator.from_triplets(n, [0], [0], [0.0])
    )
    for report in (lanczos_smallest(op, m), dense_sym_eig(op.densified(), m=m)):
        assert report.converged
        assert [p.value for p in report.pairs] == [0.0] * m
        assert not report.residuals.any()
        vecs = np.column_stack([p.vector for p in report.pairs])
        assert np.allclose(vecs.T @ vecs, np.eye(m), atol=1e-14)


def test_lanczos_rejects_m_not_below_n():
    op = SymOperator.from_dense(np.eye(4))
    with pytest.raises(ValueError):
        lanczos_smallest(op, 4)


@pytest.mark.parametrize(
    "held, method", [("sparse", "shift-invert"), ("dense", "arpack")]
)
def test_lanczos_oracle_sweep_small(held, method):
    """Randomized dense-oracle equivalence on operators up to n = 300.

    Sparse operators this small always have a band narrow enough for the
    shift-invert transform; the same matrices held dense take the
    Gershgorin-shifted one.
    """
    rng = np.random.default_rng(2024)
    for _ in range(8):
        n = int(rng.integers(20, 301))
        op = random_sparse_laplacian(rng, n)
        m = min(10, n - 1)
        solve_op = op if held == "sparse" else SymOperator.from_dense(op.to_dense())
        report = lanczos_smallest(solve_op, m, seed=1)
        assert report.method == method
        got = np.array([p.value for p in report.pairs])
        want = np.array([p.value for p in dense_sym_eig(op.densified()).pairs[:m]])
        assert np.abs(got - want).max() <= 1e-8


def test_lanczos_wide_band_sparse_takes_arpack_path():
    # connected, average degree 6: reverse Cuthill-McKee leaves a band of
    # 380, wider than the shift-invert band limit of 300 at m = 10
    op = random_sparse_laplacian(np.random.default_rng(4), 704, avg_degree=6)
    report = lanczos_smallest(op, 10, seed=1)
    assert report.method == "arpack"
    assert report.converged
    got = np.array([p.value for p in report.pairs])
    want = np.array([p.value for p in dense_sym_eig(op.densified()).pairs[:10]])
    assert np.abs(got - want).max() <= 1e-8


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
    blocks = [base.csr] * copies + ([sp.csr_matrix((isolated, isolated))] if isolated else [])
    csr = sp.block_diag(blocks, format="csr")
    return SymOperator(n=csr.shape[0], csr=csr)


def oracle_values(op, m):
    return np.array([p.value for p in dense_sym_eig(op.densified()).pairs[:m]])


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
    op = SymOperator(n=lap.n, csr=(lap.csr - sp.identity(lap.n)).tocsr())
    with pytest.raises(ValueError, match="eigenvalue must be >= 0"):
        lanczos_smallest(op, lap.n - 1, seed=3)


def test_lanczos_indefinite_sparse_falls_back_to_gershgorin_path():
    # a Laplacian shifted down by 1 has no Cholesky factor at the band
    # path's shift; the solve falls back and meets the same PSD contract
    # as the dense solver, instead of surfacing a LinAlgError
    lap = random_sparse_laplacian(np.random.default_rng(9), 120)
    op = SymOperator(n=lap.n, csr=(lap.csr - sp.identity(lap.n)).tocsr())
    with pytest.raises(ValueError, match="eigenvalue must be >= 0"):
        lanczos_smallest(op, 6, seed=3)


def test_lanczos_shift_invert_is_scale_invariant():
    # a Laplacian with large weights: every wanted pair still converges,
    # to the dense oracle's relative accuracy
    lap = random_sparse_laplacian(np.random.default_rng(0), 120)
    for weight in (1e4, 1e8, 1e13):
        op = SymOperator(n=lap.n, csr=lap.csr * weight)
        report = lanczos_smallest(op, 4)
        assert report.method == "shift-invert"
        assert report.converged
        got = np.array([p.value for p in report.pairs])
        want = np.array([p.value for p in dense_sym_eig(op.densified()).pairs[:4]])
        assert np.abs(got - want).max() <= 1e-8 * op.inf_norm_estimate


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
    # banded solves here; a tol=0 check round took 101
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
    csr = sp.block_diag([circle.csr, circle.csr], format="csr")
    return SymOperator(n=csr.shape[0], csr=csr)


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
