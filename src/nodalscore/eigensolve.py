"""Deterministic symmetric eigensolvers.

``dense_sym_eig`` wraps LAPACK for small dense operators and reports
per-pair residuals: the full spectrum by default, or only the m smallest
pairs from the subset driver (``dsyevr``, Dhillon & Parlett 2004), whose
residuals then cost n^2 m instead of n^3.
``lanczos_smallest`` extracts the smallest eigenpairs iteratively.  It
runs Lanczos with full reorthogonalization on a spectral transform B of A
whose dominant eigenvalues are the smallest ones of A:

    B = (A - SHIFT * scale * I)^-1,  SHIFT = -1e-3     ("shift-invert")
    B = sigma * I - A,  sigma = Gershgorin upper bound  ("lanczos")

where scale = max(1, ||A||_inf) is also the residual normalization.
Shift-invert (Ericsson & Ruhe, Math. Comp. 35, 1980) is taken when A is
sparse, its reverse Cuthill-McKee ordering has a band no wider than the
Krylov sweep budget, and the shifted A has a banded Cholesky factor; each
step is then a banded solve, and the stiff circle and mesh operators
converge in about a hundred steps instead of close to a thousand.  Sparse
operators off that path (kNN and random graphs, failed factorizations)
take a first round of implicitly restarted Lanczos on A itself (ARPACK,
Lehoucq, Sorensen & Yang 1998; "arpack"), and dense operators the
Gershgorin shift.  Because one Krylov start reaches a single vector per
eigenspace, and ARPACK is no exception, the iteration always continues
with Gershgorin-shifted restarts deflated against everything found, until
a round stops lowering the m-th smallest value; that is what resolves
degenerate multiplicities.  The solvers are intended for
positive-semidefinite operators (Laplacians, Schroedinger
discretizations).

Both solvers fix the eigenvector sign by making the entry of largest
magnitude positive, report which method ran, and are bitwise deterministic
for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EigenPair

__all__ = ["SymOperator", "EigenSolveReport", "dense_sym_eig", "lanczos_smallest"]

DENSE_MAX_N = 4096
# callers solve below this size densely; iterating would gain nothing
DENSE_FALLBACK_N = 512
# shift of the banded path in units of scale = max(1, ||A||_inf), so that
# A - SHIFT*scale*I is positive definite for every PSD operator.  It scales
# with A because rounding in B = (A - shift*I)^-1 is of order eps/|shift|:
# with an absolute shift, the zero modes of a Laplacian with large weights
# dominate B so far that its other wanted pairs never reach the residual
# tolerance (random Laplacians scaled by 1e8 failed to converge).
SHIFT = -1e-3
# cap on ARPACK's implicit restarts in the first round of a wide-band
# solve, each of them ncv - m >= 10 matvecs.  64x64 kNN patch graphs
# (m = 16) converge in 11-13, random graphs of average degree 6 with
# n = 704..4096 (m = 7..16) in 30-80.  Pairs still unconverged at the cap
# are left to the deflated Lanczos rounds.
ARPACK_MAXITER = 300


@dataclass
class SymOperator:
    """Symmetric operator held either dense or as sparse upper triplets."""

    n: int
    dense: np.ndarray | None = None
    csr: "scipy.sparse.csr_matrix | None" = None

    def __post_init__(self):
        if (self.dense is None) == (self.csr is None):
            raise ValueError("exactly one representation must be set")

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries")
        scale = max(1.0, np.abs(a).max(initial=0.0))
        if np.abs(a - a.T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric (1e-12 relative)")
        return cls(n=a.shape[0], dense=a)

    @classmethod
    def from_triplets(cls, n, rows, cols, vals):
        """Build from upper-triangle triplets (i <= j); duplicates sum."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have equal length")
        if rows.size and (rows.min() < 0 or cols.max() >= n):
            raise ValueError("triplet index out of range")
        if (rows > cols).any():
            raise ValueError("triplets must satisfy i <= j")
        if not np.isfinite(vals).all():
            raise ValueError("triplet values must be finite")
        # scipy is imported where it is used, not at module top: it costs
        # every interpreter start about 0.3 s, and the closed-form
        # subcommands never build an operator
        import scipy.sparse as sp

        off = rows != cols
        full = sp.coo_matrix(
            (
                np.concatenate([vals, vals[off]]),
                (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])),
            ),
            shape=(n, n),
        ).tocsr()
        full.eliminate_zeros()  # no stored zeros, from explicit zeros or cancelled duplicates
        return cls(n=n, csr=full)

    @property
    def is_dense(self):
        return self.dense is not None

    def matvec(self, x):
        return self.dense @ x if self.is_dense else self.csr @ x

    def to_dense(self):
        return self.dense.copy() if self.is_dense else self.csr.toarray()

    def densified(self):
        return SymOperator(n=self.n, dense=self.to_dense()) if not self.is_dense else self

    def _row_abs_sums(self):
        if self.is_dense:
            return np.abs(self.dense).sum(axis=1)
        absm = self.csr.copy()
        absm.data = np.abs(absm.data)
        return np.asarray(absm.sum(axis=1)).ravel()

    @property
    def inf_norm_estimate(self):
        return float(self._row_abs_sums().max(initial=0.0))

    @property
    def gershgorin_bound(self):
        """max_i (a_ii + sum_{j != i} |a_ij|), an upper bound on the spectrum."""
        diag = np.diag(self.dense) if self.is_dense else self.csr.diagonal()
        off = self._row_abs_sums() - np.abs(diag)
        return float((diag + off).max(initial=0.0))


@dataclass
class EigenSolveReport:
    """Solver output: ascending eigenpairs, normalized residuals, bookkeeping.

    ``iterations`` counts operator applications: 1 for a dense solve,
    matvecs for ``"lanczos"`` and ``"arpack"`` (its ARPACK round plus the
    deflated Lanczos rounds that check it for missed copies), banded
    solves for ``"shift-invert"``; ``method`` names the solver that ran.
    """

    pairs: list[EigenPair]
    residuals: np.ndarray
    iterations: int
    converged: bool
    method: str = ""


def _fix_signs(vectors):
    """Columns flipped so the largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _clamp_tiny_negatives(values, scale):
    out = values.copy()
    tiny = (out < 0) & (out > -1e-10 * scale)
    out[tiny] = 0.0
    return out


def dense_sym_eig(op, residual_tol=1e-10, m=None):
    """Smallest m (default: all n) eigenpairs of a dense symmetric operator.

    The full spectrum uses the LAPACK symmetric solver (Householder
    tridiagonalization plus divide and conquer); with m < n the subset
    driver ``dsyevr`` computes only the m smallest pairs, and only their
    residuals are formed.  Eigenvalues in [-1e-10 * scale, 0) are clamped
    to zero so PSD operators round-trip through EigenPair.
    """
    if not op.is_dense:
        raise ValueError("dense_sym_eig needs a dense representation")
    if op.n > DENSE_MAX_N:
        raise ValueError(f"dense solve limited to n <= {DENSE_MAX_N}")
    if m is not None and m < 1:
        raise ValueError("need m >= 1")
    scale = max(1.0, op.inf_norm_estimate)
    try:
        if m is None or m >= op.n:
            values, vectors = np.linalg.eigh(op.dense)
        else:
            from scipy.linalg import eigh

            values, vectors = eigh(op.dense, subset_by_index=[0, m - 1])
    except np.linalg.LinAlgError:
        return EigenSolveReport(
            pairs=[], residuals=np.array([]), iterations=0, converged=False
        )
    values = _clamp_tiny_negatives(values, scale)
    vectors = _fix_signs(vectors)
    resid = np.linalg.norm(op.dense @ vectors - vectors * values, axis=0) / scale
    pairs = [EigenPair(values[i], vectors[:, i]) for i in range(values.size)]
    return EigenSolveReport(
        pairs=pairs,
        residuals=resid,
        iterations=1,
        converged=bool((resid <= residual_tol).all()),
        method="dense",
    )


def lanczos_smallest(op, m, tol=1e-10, seed=0, max_restarts=5):
    """The m smallest eigenpairs of a PSD-ish symmetric operator.

    Lanczos with a seeded random start and full reorthogonalization, run
    on one of two transforms B of A, reported as ``method``:

    - ``"shift-invert"``: B = (A - SHIFT*scale*I)^-1 with SHIFT = -1e-3
      and scale = max(1, ||A||_inf), applied by a banded Cholesky solve.
      Taken when A is sparse, its reverse Cuthill-McKee bandwidth b has
      b + 1 <= max(10m + 50, 300) (the sweep budget), and the shifted A
      factors.  A sweep stops once every wanted Ritz value theta has
      beta*|s_last| <= eps*theta, which puts the normalized residuals at
      roundoff: stopping at 0.1*tol instead leaves residuals near 1e-14,
      and error bounds that scale with the residual over the gap then
      widen on closely split pairs.
    - ``"lanczos"``: B = sigma*I - A with the Gershgorin bound sigma, for
      dense operators.  A sweep stops once every wanted estimate
      beta*|s_last| is at most 0.1*tol*scale.
    - ``"arpack"``: sparse operators with wider bands or a failed
      factorization.  A first round runs ARPACK's implicitly restarted
      Lanczos for the m smallest eigenvalues of A (``eigsh``, which="SA",
      tol=0, start drawn from the seeded generator, at most
      ARPACK_MAXITER restarts); if it stops short, the pairs it did
      converge are kept.  The rounds after it are those of ``"lanczos"``.
      ARPACK is skipped when m >= n - 1, which leaves ``"lanczos"``.

    Ritz pairs are accepted when their true normalized residual
    ||A v - lambda v|| / scale is at most tol.  The iteration restarts
    deflated against everything accepted until a round finds nothing
    below the current m-th smallest, which is what surfaces degenerate
    copies, including those ARPACK misses; rounds that make no progress
    count toward max_restarts and double the sweep budget.
    ``iterations`` counts applications of B (ARPACK's matvecs included):
    matvecs, or banded solves on the shift-invert path.
    """
    from scipy.linalg import eigh_tridiagonal

    n = op.n
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    scale = max(1.0, op.inf_norm_estimate)
    tol_abs = tol * scale
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(seed)
    sweep_budget = max(10 * m + 50, 300)

    shift = SHIFT * scale
    solve = _banded_shift_invert(op, shift, sweep_budget)
    if solve is None:
        method = "lanczos"
        sigma = op.gershgorin_bound

        def apply(q):
            return sigma * q - op.matvec(q)

        def to_eigenvalues(theta):
            return sigma - theta

        def settled(theta, ests):
            return ests.max() <= 0.1 * tol_abs

        breakdown_tol = 1e4 * eps * max(1.0, abs(sigma) + scale)
    else:
        method = "shift-invert"
        apply = solve

        def to_eigenvalues(theta):
            return shift + 1.0 / theta

        def settled(theta, ests):
            return (ests <= eps * theta).all()

        # ||B|| <= 1 / |shift| for positive-semidefinite A
        breakdown_tol = 1e4 * eps / abs(shift)

    found_vals = []
    found_vecs = np.empty((n, 0))
    failed_rounds = 0
    total_matvecs = 0
    if solve is None and not op.is_dense and m < n - 1:
        method = "arpack"
        vals, vecs, total_matvecs = _arpack_round(op, m, rng.standard_normal(n))
        resid = np.linalg.norm(_apply(op, vecs) - vecs * vals, axis=0) / scale
        keep = resid <= tol
        found_vals = vals[keep].tolist()
        found_vecs = vecs[:, keep]

    while True:
        m_rem = m - len(found_vals)
        dim_rem = n - found_vecs.shape[1]
        if dim_rem == 0:
            break
        start = rng.standard_normal(n)
        start -= found_vecs @ (found_vecs.T @ start)
        norm = np.linalg.norm(start)
        if norm < 1e-8:
            failed_rounds += 1
            if failed_rounds > max_restarts:
                raise RuntimeError("lanczos: restart budget exhausted")
            continue
        start /= norm

        jmax = min(dim_rem, sweep_budget)
        alphas, betas, Q, breakdown, matvecs = _run_sweep(
            apply, start, found_vecs, jmax, max(m_rem, 1), settled, breakdown_tol
        )
        total_matvecs += matvecs

        k = len(alphas)
        theta, s = eigh_tridiagonal(alphas, betas[: k - 1])
        ritz_vecs = Q @ s
        a_vals = to_eigenvalues(theta)
        order = np.argsort(a_vals, kind="stable")
        a_vals = a_vals[order]
        ritz_vecs = ritz_vecs[:, order]
        if not breakdown:
            # trust only the extraction targets; interior Ritz values of an
            # unexhausted Krylov space may be far from eigenvalues
            a_vals = a_vals[: max(m_rem, 1)]
            ritz_vecs = ritz_vecs[:, : max(m_rem, 1)]
        resid = (
            np.linalg.norm(
                _apply(op, ritz_vecs) - ritz_vecs * a_vals, axis=0
            )
            / scale
        )
        keep = resid <= tol
        new_vals = a_vals[keep]
        new_vecs = ritz_vecs[:, keep]
        if found_vecs.shape[1]:
            new_vecs = new_vecs - found_vecs @ (found_vecs.T @ new_vecs)
            norms = np.linalg.norm(new_vecs, axis=0)
            good = norms > 0.5  # a converged direction cannot collapse here
            new_vals, new_vecs = new_vals[good], new_vecs[:, good] / norms[good]

        prev_mth = sorted(found_vals)[m - 1] if len(found_vals) >= m else None
        if new_vals.size == 0:
            failed_rounds += 1
            if failed_rounds > max_restarts:
                raise RuntimeError(
                    f"lanczos failed to converge {m} pairs to tol={tol}"
                )
            # a longer sweep is the only lever against slow extremal
            # convergence when the sweep ended without breakdown
            if not breakdown:
                sweep_budget = min(2 * sweep_budget, n)
            continue
        found_vals.extend(new_vals.tolist())
        found_vecs = np.hstack([found_vecs, new_vecs])

        if (
            len(found_vals) >= m
            and prev_mth is not None
            and new_vals.min() >= prev_mth - 10 * tol_abs
        ):
            break
        # a single Krylov start sees one vector per eigenspace, so copies
        # of multiple eigenvalues surface only across deflated restarts;
        # keep going until a round stops lowering the m-th smallest

    order = np.argsort(found_vals, kind="stable")[:m]
    vals = _clamp_tiny_negatives(np.array(found_vals)[order], scale)
    vecs = _fix_signs(found_vecs[:, order])
    resid = np.linalg.norm(_apply(op, vecs) - vecs * vals, axis=0) / scale
    pairs = [EigenPair(vals[i], vecs[:, i]) for i in range(m)]
    return EigenSolveReport(
        pairs=pairs,
        residuals=resid,
        iterations=total_matvecs,
        converged=bool((resid <= tol).all()),
        method=method,
    )


def _apply(op, block):
    return op.dense @ block if op.is_dense else op.csr @ block


def _arpack_round(op, m, v0):
    """ARPACK's m smallest Ritz pairs of sparse A, and its matvec count.

    On ArpackNoConvergence the pairs it did converge are returned, which
    may be none; any other ARPACK error returns none.
    """
    from scipy.sparse.linalg import (
        ArpackError,
        ArpackNoConvergence,
        LinearOperator,
        eigsh,
    )

    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return op.csr @ x

    a = LinearOperator((op.n, op.n), matvec=matvec, dtype=np.float64)
    try:
        vals, vecs = eigsh(a, k=m, which="SA", tol=0, v0=v0, maxiter=ARPACK_MAXITER)
    except ArpackNoConvergence as err:
        vals, vecs = err.eigenvalues, err.eigenvectors
    except ArpackError:
        vals, vecs = np.empty(0), np.empty((op.n, 0))
    return vals, vecs, matvecs


def _banded_shift_invert(op, shift, max_width):
    """x -> (A - shift*I)^-1 x from a banded Cholesky factor, or None.

    None when A is held dense, when its reverse Cuthill-McKee bandwidth b
    has b + 1 > max_width, or when A - shift*I is not positive definite.
    At b + 1 <= max_width a solve costs no more than one reorthogonalized
    Lanczos step, and the factor is no larger than the Krylov basis.
    """
    if op.is_dense:
        return None
    # imported here, not at module top: most runs never reach a sparse
    # solve, and csgraph costs every interpreter start about 25 ms
    from scipy.linalg import cho_solve_banded, cholesky_banded
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(op.csr, symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(op.n, dtype=perm.dtype)
    coo = op.csr.tocoo()
    rows, cols = inv[coo.row], inv[coo.col]
    width = int(np.abs(cols - rows).max(initial=0))
    if width + 1 > max_width:
        return None
    upper = cols >= rows
    band = np.zeros((width + 1, op.n))  # LAPACK upper band storage
    np.add.at(band, (width + rows[upper] - cols[upper], cols[upper]), coo.data[upper])
    band[width] -= shift
    try:
        factor = cholesky_banded(band)
    except np.linalg.LinAlgError:
        return None

    def solve(x):
        return cho_solve_banded((factor, False), x[perm], check_finite=False)[inv]

    return solve


def _run_sweep(apply, start, deflate, jmax, m_want, settled, breakdown_tol):
    """Lanczos sweep on B (q -> apply(q)), deflated; full reorthogonalization.

    Every 5 steps the m_want dominant Ritz values theta and the last
    entries s_last of their eigenvectors give the residual estimates
    beta*|s_last| of B's Ritz pairs; the sweep stops
    once settled(theta, ests) holds, at breakdown, or after jmax steps.
    """
    from scipy.linalg import eigh_tridiagonal

    n = start.size
    alphas, betas = [], []
    Q = np.empty((n, jmax))
    Q[:, 0] = start
    matvecs = 0
    breakdown = False
    j = 0
    while True:
        q = Q[:, j]
        w = apply(q)
        matvecs += 1
        alphas.append(float(q @ w))
        for _ in range(2):
            w -= Q[:, : j + 1] @ (Q[:, : j + 1].T @ w)
            if deflate.shape[1]:
                w -= deflate @ (deflate.T @ w)
        beta = float(np.linalg.norm(w))
        j += 1
        if beta <= breakdown_tol:
            breakdown = True
            break
        if j == jmax:
            break
        betas.append(beta)
        Q[:, j] = w / beta
        if j >= m_want + 2 and j % 5 == 0:
            theta, s = eigh_tridiagonal(
                np.array(alphas),
                np.array(betas)[: j - 1],
                select="i",
                select_range=(j - m_want, j - 1),
            )
            if settled(theta, beta * np.abs(s[-1])):
                break
    return np.array(alphas), np.array(betas), Q[:, :j], breakdown, matvecs
