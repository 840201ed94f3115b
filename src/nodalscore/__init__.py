"""Spectral anomaly scoring from Laplacian eigenpairs.

The score of a point x under a basis of eigenpairs (lambda_k, phi_k) is

    f_N(x) = sum_{k<=N} lambda_k^{-1/2} * |phi_k(x)| / ||phi_k||_inf,

small where many eigenfunctions vanish (arithmetic structure on the interval,
residue classes on Paley graphs, the perturbation window on the circle) and
large on outliers in data graphs.  Subpackages cover the analytic domains,
the eigensolvers, Paley graphs, the perturbed circle operator, and the
image/mesh graph pipeline; the command line lives in nodalscore.cli.
"""

__version__ = "0.1.0"

from .core import compute_score_field, find_strict_local_minima
from .eigensolve import EigenPair, EigenSolveReport, dense_sym_eig, lanczos_smallest

__all__ = [
    "EigenPair",
    "EigenSolveReport",
    "compute_score_field",
    "dense_sym_eig",
    "find_strict_local_minima",
    "lanczos_smallest",
    "__version__",
]
