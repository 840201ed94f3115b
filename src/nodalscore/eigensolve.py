"""Deterministic symmetric eigensolvers.

``dense_sym_eig`` wraps LAPACK for small dense arrays and reports
per-pair residuals: the full spectrum by default, or only the m smallest
pairs from the subset driver (``dsyevr``, Dhillon & Parlett 2004), whose
residuals then cost n^2 m instead of n^3.
``lanczos_smallest`` finds the m smallest pairs of a scipy sparse matrix
iteratively, in rounds of ARPACK's implicitly restarted Lanczos
(``scipy.sparse.linalg.eigsh``; Lehoucq, Sorensen & Yang 1998) on one
spectral transform B of A whose largest eigenvalues belong to the
smallest ones of A:

    B = (A - SHIFT * scale * I)^-1,  SHIFT = -1e-3     ("shift-invert")
    B = sigma * I - A,  sigma = Gershgorin upper bound  ("arpack")

where scale = ||A||_inf is also the residual normalization.  The scale
has no floor.  ``lanczos_smallest`` solves 4^-k A, 4^k the power of four
nearest ||A||_inf, and multiplies the values back by 4^k, so 4^j A gives
4^j times the values and the same vectors bit for bit, and any c > 0
leaves the convergence tests the same; ``dense_sym_eig`` hands A to
LAPACK as given.  The zero operator is solved exactly by both solvers.
Shift-invert (Ericsson & Ruhe, Math. Comp. 35, 1980) is taken when the
band of A, in its own vertex order or the reverse Cuthill-McKee order, is
narrow and the shifted A has a banded Cholesky factor; each application
of B is then a banded solve, and the stiff circle and mesh operators
converge in about a hundred of them.
Every other matrix (kNN and random graphs, failed factorizations) takes
the Gershgorin shift.  One Krylov start reaches a single
vector per eigenspace, and ARPACK is no exception, so every round after
the first runs on B deflated against the pairs accepted so far, until a
round stops lowering the m-th smallest value; that is what resolves
degenerate multiplicities.  Such a check round first runs ARPACK loosely
(tol=CHECK_TOL) and stops the solve when its Ritz value, less its true
residual, still lies above the m-th value; only an inconclusive check
pays for the full tol=0 round.  The solvers are intended for
positive-semidefinite operators (Laplacians, Schroedinger
discretizations).

Both solvers return the pairs as two arrays, ascending ``values`` and
the eigenvectors as the columns of ``vectors``, fix each eigenvector's
sign by making its entry of largest magnitude positive, report which
method ran, and are bitwise deterministic for a fixed seed at a fixed
BLAS thread count (LAPACK's results change with the thread count: the
dense solve's bits differ between one and two OpenBLAS threads).  A pair
counts as converged when its residual ||A v - lambda v|| / ||A||_inf is
at most RESIDUAL_TOL; ``EigenSolveReport.require`` returns the pairs of
a solve whose pairs all converged and raises RuntimeError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenPair",
    "EigenSolveReport",
    "dense_sym_eig",
    "lanczos_smallest",
]

DENSE_MAX_N = 4096
# largest normalized residual ||A v - lambda v|| / ||A||_inf of a converged pair
RESIDUAL_TOL = 1e-10
# callers solve below this size densely; iterating would gain nothing
DENSE_FALLBACK_N = 512
# shift of the banded path in units of scale = ||A||_inf, so that
# A - SHIFT*scale*I is positive definite for every PSD operator.  It scales
# with A because rounding in B = (A - shift*I)^-1 is of order eps/|shift|:
# with an absolute shift, the zero modes of a Laplacian with large weights
# dominate B so far that its other wanted pairs never reach the residual
# tolerance (random Laplacians scaled by 1e8 failed to converge).
SHIFT = -1e-3
# cap on ARPACK's implicit restarts in one round, each of them ncv - k >= 10
# applications of B.  64x64 kNN patch graphs (m = 16) converge in 11-13,
# random graphs of average degree 6 with n = 704..4096 (m = 7..16) in
# 30-80.  Pairs still unconverged at the cap are left to the next round.
ARPACK_MAXITER = 300
# rounds that add no pair (ARPACK stopped short or raised) before a solve
# gives up
MAX_RESTARTS = 5
# ARPACK tolerance of the certificate that ends a solve.  It only has to
# show that nothing lies below the m-th accepted value, not converge a
# pair, so it stops far sooner than tol=0: on the circle operator of
# n = 576, y = 1.3, eps = 0.6 with m = 11 the check round takes 21
# banded solves instead of 41.
CHECK_TOL = 1e-4


def _symmetric_row_sums(a):
    """Row sums of |A| (dense or sparse a), after its symmetry check.

    ValueError unless max|a - a^T| <= 1e-12 max|a|, and ValueError naming
    the first row whose sum overflows to inf: finite entries near the
    float64 maximum can sum past it, and ||A||_inf and the Gershgorin
    bound would then be inf.  |A| is formed once, for the check and the
    sums, and is freed on return.
    """
    diff = abs(a - a.T)
    mag = abs(a)
    if diff.size and diff.max() > 1e-12 * mag.max():
        raise ValueError("matrix is not symmetric (1e-12 relative)")
    with np.errstate(over="ignore"):
        sums = np.asarray(mag.sum(axis=1)).ravel()
    if not np.isfinite(sums).all():
        row = int(np.flatnonzero(~np.isfinite(sums))[0])
        raise ValueError(f"row {row} of |A| sums to a non-finite value (its entries overflow)")
    return sums


def _gershgorin_bound(a, row_sums):
    """max_i (a_ii + sum_{j != i} |a_ij|), an upper bound on the spectrum.

    row_sums are the row sums of |A| (see _symmetric_row_sums).
    """
    diag = a.diagonal()
    off = row_sums - np.abs(diag)
    return float((diag + off).max(initial=0.0))


class EigenPair(NamedTuple):
    """One eigenvalue and its eigenvector."""

    value: float
    vector: np.ndarray


@dataclass
class EigenSolveReport:
    """Solver output: ascending eigenpairs, normalized residuals, bookkeeping.

    ``values`` has shape (m,) and ``vectors`` (n, m), one eigenvector per
    column.  ``iterations`` counts operator applications: 1 for a dense
    solve, and applications of the spectral transform over all rounds for
    the iterative solver (matvecs for ``"arpack"``, banded solves for
    ``"shift-invert"``); ``method`` names the solver that ran.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool
    method: str

    def require(self, what):
        """(values, vectors), or RuntimeError naming ``what`` if not converged."""
        if not self.converged:
            raise RuntimeError(f"eigensolver did not converge on {what}")
        return self.values, self.vectors

    @property
    def pairs(self):
        """The pairs as (value, vector) tuples, read from the two arrays."""
        return tuple(map(EigenPair, self.values.tolist(), self.vectors.T))


def _residuals(a, values, vectors, scale):
    """||A v - lambda v|| / scale per column, divided before the norm so it stays finite."""
    r = a @ vectors
    r -= vectors * values
    r /= scale or 1.0  # the zero operator has no scale and is solved exactly
    return np.linalg.norm(r, axis=0)


def _finish(a, values, vectors, scale, iterations, method):
    """The report of a solve, after the closing steps both solvers share.

    Values in [-1e-10 * scale, 0) become 0, a value below that or NaN raises
    ValueError, and each vector's largest entry is made positive in place.
    """
    values[(values < 0) & (values > -1e-10 * scale)] = 0.0
    bad = ~(values >= 0.0)
    if bad.any():
        raise ValueError(f"eigenvalue must be >= 0, got {float(values[bad][0])}")
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    residuals = _residuals(a, values, vectors, scale)
    return EigenSolveReport(
        values=values,
        vectors=vectors,
        residuals=residuals,
        iterations=iterations,
        converged=bool((residuals <= RESIDUAL_TOL).all()),
        method=method,
    )


def dense_sym_eig(a, m=None):
    """Smallest m (default: all n) eigenpairs of a dense symmetric matrix.

    ``a`` is a square, finite 2-D ndarray, symmetric to 1e-12 times its
    largest entry; anything else raises ValueError.  The full spectrum
    uses the LAPACK symmetric solver (Householder tridiagonalization plus
    divide and conquer); with m < n the subset driver ``dsyevr`` computes
    only the m smallest pairs, and only their residuals are formed.
    Eigenvalues in [-1e-10 * scale, 0) are clamped to zero and a value
    below that raises ValueError, so only PSD matrices pass; residuals
    are divided by scale = ||A||_inf, and the report is converged when
    every one is at most RESIDUAL_TOL.  LAPACK's LinAlgError, a
    ValueError, propagates.
    """
    if not isinstance(a, np.ndarray):
        raise ValueError("dense_sym_eig needs a dense ndarray")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > DENSE_MAX_N:
        raise ValueError(f"dense solve limited to n <= {DENSE_MAX_N}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    row_sums = _symmetric_row_sums(a)
    if m is not None and m < 1:
        raise ValueError("need m >= 1")
    # ||A||_inf, the largest absolute row sum
    scale = float(row_sums.max(initial=0.0))
    if m is None or m >= n:
        values, vectors = np.linalg.eigh(a)
    else:
        from scipy.linalg import eigh

        values, vectors = eigh(a, subset_by_index=[0, m - 1])
    return _finish(a, values, vectors, scale, 1, "dense")


def lanczos_smallest(a, m, seed=0):
    """The m smallest eigenpairs of a PSD-ish symmetric sparse matrix.

    ``a`` is a scipy sparse matrix, read once as CSR and symmetric to
    1e-12 times its largest entry; a dense array or an asymmetric matrix
    raises ValueError.  Runs in rounds of ARPACK (``eigsh``, which="LA",
    tol=0, at most ARPACK_MAXITER restarts) on x -> P B P x, where B is
    the spectral transform of A named by ``method`` and P = I - F F^T
    projects out the accepted vectors F.  A here is the given matrix
    times 4^-k, 4^k the power of four nearest its ||A||_inf, and the
    values are multiplied back by 4^k at the end:

    - ``"shift-invert"``: B = (A - SHIFT*scale*I)^-1 with SHIFT = -1e-3
      and scale = ||A||_inf, applied by a banded Cholesky solve.
      Taken when the bandwidth b of A, the narrower of its natural and
      reverse Cuthill-McKee orders, has b + 1 <= max(10m + 50, 300), and
      the shifted A factors.
    - ``"arpack"``: B = sigma*I - A with the Gershgorin bound sigma, for
      every other matrix.

    Each round asks for max(m_rem, 1) Ritz pairs, m_rem being the count
    still missing, from the start P g with g the next draw of the seeded
    generator.  Ritz values theta <= 0 belong to the deflated directions
    and are dropped.  A pair is accepted when its true normalized residual
    ||A v - lambda v|| / scale is at most RESIDUAL_TOL.  One Krylov start sees one
    vector per eigenspace, so the rounds go on until one finds nothing
    below the current m-th smallest value; that is what surfaces the
    copies of a repeated eigenvalue.  Each such check round, once m pairs
    are accepted, starts with a certificate: one k = 1 ARPACK run at
    tol=CHECK_TOL from the round's start.  If its Ritz value mu, less its
    true residual r = ||A v - mu v||, exceeds the m-th value, the solve
    ends: an eigenvalue lies within r of mu (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4), so the round has found nothing below
    the m-th value, which is all a tol=0 round would have shown.
    Otherwise (mu - r too low, ARPACK raised, no theta > 0) the round
    runs at tol=0 from the same start, as it would without the
    certificate, so the certificate never adds or changes a pair.  A
    round that adds no pair (ARPACK
    stopped short with none converged, or raised) retries from the next
    draw, at most MAX_RESTARTS times.  ``iterations`` counts applications
    of B over all rounds: matvecs, or banded solves.  The zero operator
    is returned exactly (``method="zero"``, no application).
    """
    from scipy.sparse.linalg import (
        ArpackError,
        ArpackNoConvergence,
        LinearOperator,
        eigsh,
    )
    from scipy.sparse import csr_matrix, issparse

    if not issparse(a):
        raise ValueError("lanczos_smallest needs a scipy sparse matrix")
    a = a.tocsr()
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    # one |A| serves the symmetry check, the scale and the Gershgorin bound
    row_sums = _symmetric_row_sums(a)
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    scale = float(row_sums.max(initial=0.0))
    if scale == 0.0:  # the zero operator: every vector has eigenvalue 0
        return _finish(a, np.zeros(m), np.eye(n, m), scale, 0, "zero")
    # the solve runs on the exact product 4^-k A with ||4^-k A||_inf in
    # [1/2, 2): ARPACK's stopping test bound <= tol * max(eps^(2/3), |theta|)
    # is relative only for |theta| above eps^(2/3) ~ 4e-11, and as given
    # weights of 1e25 (shift-invert) and 1e-30 (Gershgorin) did not converge
    power = 2 * (math.frexp(scale)[1] // 2)
    # scaled data on the given index arrays: no copy of the indices
    given, a = a, csr_matrix((np.ldexp(a.data, -power), a.indices, a.indptr), shape=a.shape)
    np.ldexp(row_sums, -power, out=row_sums)
    scale = math.ldexp(scale, -power)
    rng = np.random.default_rng(seed)
    shift = SHIFT * scale
    solve = _banded_shift_invert(a, shift, max(10 * m + 50, 300))
    if solve is None:
        method = "arpack"
        sigma = _gershgorin_bound(a, row_sums)

        def apply(x):
            return sigma * x - a @ x

        def to_eigenvalues(theta):
            return sigma - theta

    else:
        method = "shift-invert"
        apply = solve

        def to_eigenvalues(theta):
            return shift + 1.0 / theta

    found_vals = []
    found_vecs = np.empty((n, 0))
    applications = 0
    failed_rounds = 0

    def project(x):
        return x - found_vecs @ (found_vecs.T @ x) if found_vecs.shape[1] else x

    def deflated(x):
        nonlocal applications
        applications += 1
        return project(apply(project(x)))

    transform = LinearOperator((n, n), matvec=deflated, dtype=np.float64)

    def certified(start, mth):
        try:
            theta, vecs = eigsh(
                transform, k=1, which="LA", tol=CHECK_TOL, v0=start,
                maxiter=ARPACK_MAXITER,
            )
        except ArpackError:  # ArpackNoConvergence included
            return False
        if not theta[0] > 0:
            return False
        mu = to_eigenvalues(theta[:1])
        return mu[0] - scale * _residuals(a, mu, vecs, scale)[0] > mth

    while len(found_vals) < n:
        start = project(rng.standard_normal(n))
        if len(found_vals) >= m and certified(start, sorted(found_vals)[m - 1]):
            break
        try:
            theta, vecs = eigsh(
                transform, k=max(m - len(found_vals), 1), which="LA", tol=0,
                v0=start, maxiter=ARPACK_MAXITER,
            )
        except ArpackNoConvergence as err:
            theta, vecs = err.eigenvalues, err.eigenvectors
        except ArpackError:
            theta, vecs = np.empty(0), np.empty((n, 0))
        live = theta > 0
        vals, vecs = to_eigenvalues(theta[live]), vecs[:, live]
        keep = _residuals(a, vals, vecs, scale) <= RESIDUAL_TOL
        new_vals, new_vecs = vals[keep], vecs[:, keep]
        if found_vecs.shape[1]:
            new_vecs = project(new_vecs)
            norms = np.linalg.norm(new_vecs, axis=0)
            good = norms > 0.5  # a converged direction cannot collapse here
            new_vals, new_vecs = new_vals[good], new_vecs[:, good] / norms[good]

        if new_vals.size == 0:
            failed_rounds += 1
            if failed_rounds > MAX_RESTARTS:
                raise RuntimeError(
                    f"lanczos failed to converge {m} pairs to tol={RESIDUAL_TOL}"
                )
            continue
        prev_mth = sorted(found_vals)[m - 1] if len(found_vals) >= m else None
        found_vals.extend(new_vals.tolist())
        found_vecs = np.hstack([found_vecs, new_vecs])
        if prev_mth is not None and new_vals.min() >= prev_mth - 10 * RESIDUAL_TOL * scale:
            break

    order = np.argsort(found_vals, kind="stable")[:m]
    values = np.ldexp(np.array(found_vals)[order], power)
    return _finish(
        given, values, found_vecs[:, order], math.ldexp(scale, power), applications, method
    )


def _banded_shift_invert(csr, shift, max_width):
    """x -> (A - shift*I)^-1 x from a banded Cholesky factor, or None.

    The band is taken in the natural vertex order when that is strictly
    narrower than the reverse Cuthill-McKee order, and in RCM otherwise:
    a 40x40 grid mesh numbered row by row has b = 41 as given and 74
    under RCM, a periodic circle operator n - 1 as given and 2 under RCM.
    None when that bandwidth b of the CSR matrix A has
    b + 1 > max_width, or when A - shift*I is not positive definite.
    Callers pass max_width = max(10m + 50, 300) for m wanted pairs, which
    splits the operators where the transform pays: circle operators
    (b = 2) and meshes (b = 41 on a 40x40 grid) factor and converge in
    about a hundred solves instead of close to a thousand matvecs, while
    kNN and random graphs (bands of several hundred to thousands) take
    the Gershgorin shift.  A factor holds (b + 1) n floats, and a solve
    costs about 4 (b + 1) n flops.
    """
    # imported here, not at module top: most runs never reach a sparse
    # solve, and csgraph costs every interpreter start about 25 ms
    from scipy.linalg import cholesky_banded
    from scipy.linalg.lapack import dpbtrs
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = csr.shape[0]
    perm = reverse_cuthill_mckee(csr, symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n, dtype=perm.dtype)
    # both widths straight from the CSR arrays: a wide band (kNN and random
    # graphs) is refused before any COO copy or band is built
    rows = np.repeat(np.arange(n, dtype=perm.dtype), np.diff(csr.indptr))
    cols = csr.indices
    width = int(np.abs(cols - rows).max(initial=0))
    rcm_rows, rcm_cols = inv[rows], inv[cols]
    rcm_width = int(np.abs(rcm_cols - rcm_rows).max(initial=0))
    if rcm_width <= width:
        rows, cols, width = rcm_rows, rcm_cols, rcm_width
    else:  # a grid numbered row by row: RCM's band is the wider one
        perm = inv = None
    if width + 1 > max_width:
        return None
    upper = cols >= rows
    band = np.zeros((width + 1, n))  # LAPACK upper band storage
    np.add.at(band, (width + rows[upper] - cols[upper], cols[upper]), csr.data[upper])
    band[width] -= shift
    try:
        factor = cholesky_banded(band)
    except np.linalg.LinAlgError:
        return None

    def solve(x):
        # LAPACK directly: cho_solve_banded makes the same call behind
        # about 18 us of argument checks per application
        if perm is None:
            return dpbtrs(factor, x, lower=0)[0]
        return dpbtrs(factor, x[perm], lower=0)[0][inv]

    return solve
