"""Score fields from eigenpair arrays, degeneracy grouping, minima on a path.

A basis is two arrays: ascending eigenvalues ``values`` of shape (m,) and
the sampled eigenvectors as the columns of ``vectors``, shape (n, m).  The
score field of its first N pairs is

    f_N(x) = sum_{k<=N} values[k]^{-1/2} * |vectors[x, k]| / max|vectors[:, k]|.

Degenerate eigenspaces make the pointwise field depend on the basis the
solver picked inside them; ``compute_score_field`` warns when its
selection contains one.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "compute_score_field",
    "group_degenerate",
    "find_strict_local_minima",
]


def compute_score_field(values, vectors, n_terms, _warn=True):
    """The score field of the first n_terms pairs, one value per row of vectors.

    The selected values must be finite, positive and ascending, and each
    selected column must have a finite, nonzero sup norm; otherwise
    ValueError.  A RuntimeWarning is emitted when the selection contains a
    (near-)degenerate group, since the pointwise values then depend on the
    solver's arbitrary choice of basis.
    """
    values = np.asarray(values, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.size:
        raise ValueError("vectors must be an (n, m) array with one column per value")
    if values.size < n_terms:
        raise ValueError(f"basis has {values.size} pairs, need n_terms={n_terms}")
    values = values[:n_terms]
    if not np.isfinite(values).all():
        raise ValueError("eigenvalues must be finite")
    if (values <= 0.0).any():
        raise ValueError("zero eigenvalue in score")
    if (np.diff(values) < 0).any():
        raise ValueError("eigenvalues must be sorted ascending")
    # |Phi| as a C-contiguous (n_terms, n) block: the product below then
    # reduces in the same order for every caller
    block = np.abs(vectors[:, :n_terms].T, order="C")
    sups = block.max(axis=1, initial=0.0)
    if not ((sups > 0.0) & (sups < np.inf)).all():
        raise ValueError("every eigenvector needs a finite, nonzero sup norm")
    if _warn and n_terms > 1 and any(len(g) > 1 for g in group_degenerate(values, 1e-9)):
        warnings.warn(
            "degenerate eigenvalues scored as-given; pointwise values are "
            "basis-dependent",
            RuntimeWarning,
            stacklevel=2,
        )
    return (values**-0.5 / sups) @ block


def group_degenerate(values, rel_tol):
    """Partition the indices of ascending values into maximal runs of near-equal ones.

    Consecutive values lambda_i <= lambda_j join one run when
    lambda_j - lambda_i <= rel_tol * max(lambda_j, lambda_i); chaining
    makes the runs maximal.  The tolerance has no absolute floor, so
    scaling every value by c > 0 leaves the runs the same.  Returns a
    list of index lists.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return []
    near = values[1:] - values[:-1] <= rel_tol * np.maximum(values[1:], values[:-1])
    breaks = np.flatnonzero(~near) + 1
    return [run.tolist() for run in np.split(np.arange(values.size), breaks)]


def find_strict_local_minima(values):
    """Indices of a path whose value is strictly below each path neighbor's.

    The end points compete only with their one neighbor; a lone point
    qualifies.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be 1-d")
    padded = np.concatenate(([np.inf], values, [np.inf]))
    ok = (values < padded[:-2]) & (values < padded[2:])
    return np.flatnonzero(ok)
