"""Paley graphs and their phase-preserving spectral score.

For a prime p = 1 mod 4, vertices are Z/pZ and a, b are adjacent exactly
when a - b is a nonzero quadratic residue (-1 is a residue, so the relation
is symmetric).  The Laplacian spectrum is closed-form: 0 once and

    lambda_minus = (p - sqrt(p)) / 2,   lambda_plus = (p + sqrt(p)) / 2,

each with multiplicity (p - 1) / 2; the characters e_k(j) = exp(2 pi i jk/p)
are eigenvectors, residues k pairing with lambda_minus.  The score kept
complex (no absolute value, k = 0 excluded) collapses to three values by
class: vertex 0, residues, non-residues.  The quadratic Gauss sum
sum_k e(k^2/p) = sqrt(p) gives the residue class sum in closed form,
sum_{k in R} e(jk/p) = (chi(j) sqrt(p) - 1) / 2 for j != 0, so the three
values cost O(1) and only the per-vertex field is of size p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import dense_sym_eig
from .pipeline import Graph

__all__ = [
    "PaleyField",
    "PaleySpectrum",
    "PaleyScore",
    "is_quadratic_residue",
    "paley_graph",
    "paley_spectrum",
    "paley_score_closed_form",
    "paley_score_numeric",
]

MAX_PRIME = 2**31
# largest p for anything of size p (residue mask, per-vertex field, CSV)
PER_VERTEX_MAX_PRIME = 2**24
NUMERIC_MAX_PRIME = 2000


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_quadratic_residue(a, p):
    """Euler's criterion a^((p-1)/2) = 1 mod p; a must not be 0 mod p."""
    p = int(p)
    if p >= MAX_PRIME or p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime below 2**31")
    a = int(a) % p
    if a == 0:
        raise ValueError("a must be nonzero mod p")
    return pow(a, (p - 1) // 2, p) == 1


@dataclass(frozen=True)
class PaleyField:
    """Prime p = 1 mod 4 below 2**31; `create` costs an O(sqrt p) primality test."""

    p: int

    @classmethod
    def create(cls, p):
        p = int(p)
        if p >= MAX_PRIME or not _is_prime(p):
            raise ValueError(f"p = {p} is not a prime below 2**31")
        if p % 4 != 1 or p < 5:
            raise ValueError(
                f"p = {p} is not 1 mod 4 (difference relation not symmetric)"
            )
        return cls(p=p)

    def residue_mask(self):
        """mask[k] true iff k is a nonzero quadratic residue, k = 0..p-1."""
        if self.p > PER_VERTEX_MAX_PRIME:
            raise ValueError(
                f"per-vertex values limited to p <= {PER_VERTEX_MAX_PRIME}"
            )
        mask = np.zeros(self.p, dtype=bool)
        mask[np.arange(1, (self.p + 1) // 2, dtype=np.int64) ** 2 % self.p] = True
        return mask


def paley_graph(p):
    """Paley graph on p vertices; (p-1)/2-regular with p(p-1)/4 edges."""
    mask = PaleyField.create(p).residue_mask()
    a, b = np.nonzero(np.triu(mask[(np.arange(p)[None, :] - np.arange(p)[:, None]) % p], 1))
    return Graph(n=p, u=a.astype(np.int64), v=b.astype(np.int64), w=np.ones(a.size))


@dataclass
class PaleySpectrum:
    """Closed-form Laplacian spectrum in the character basis."""

    p: int
    lambda_minus: float
    lambda_plus: float
    char_values: np.ndarray  # eigenvalue of the character e_k, k = 0..p-1


def paley_spectrum(p):
    field = PaleyField.create(p)
    root = math.sqrt(p)
    lam_minus = (p - root) / 2.0
    lam_plus = (p + root) / 2.0
    values = np.where(field.residue_mask(), lam_minus, lam_plus)
    values[0] = 0.0
    return PaleySpectrum(
        p=field.p, lambda_minus=lam_minus, lambda_plus=lam_plus, char_values=values
    )


@dataclass
class PaleyScore:
    """The three score values; the per-vertex field (complex) is built on first read."""

    p: int
    s_zero: complex
    s_residue: complex
    s_nonresidue: complex
    _per_vertex: np.ndarray | None = None

    @property
    def per_vertex(self):
        """Score at every vertex; raises above PER_VERTEX_MAX_PRIME."""
        if self._per_vertex is None:
            mask = PaleyField(self.p).residue_mask()
            values = np.where(mask, complex(self.s_residue), complex(self.s_nonresidue))
            values[0] = self.s_zero
            self._per_vertex = values
        return self._per_vertex


def paley_score_closed_form(p):
    """Phase-preserving score sum_{k>=1} lambda(k)^{-1/2} e^{2 pi i jk/p}.

    With w = lambda_minus^{-1/2}, lambda_plus^{-1/2} the Gauss sum gives
    s_residue = w_minus (sqrt(p) - 1)/2 - w_plus (sqrt(p) + 1)/2 and the
    mirror image for non-residues.  They are evaluated as (+-d - s)/2, where
    s = w_minus + w_plus and d = sqrt(p) (w_minus - w_plus) = 4 / ((p-1) s),
    which avoids the cancellation of the two O(1) terms.  O(1) after the
    primality test; nothing of size p is allocated until ``per_vertex``
    is read.
    """
    p = PaleyField.create(p).p
    root = math.sqrt(p)
    s = ((p - root) / 2.0) ** -0.5 + ((p + root) / 2.0) ** -0.5
    d = 4.0 / ((p - 1) * s)
    return PaleyScore(
        p=p, s_zero=(p - 1) / 2.0 * s, s_residue=(d - s) / 2.0, s_nonresidue=(-d - s) / 2.0
    )


def paley_score_numeric(p):
    """Same score from a dense Laplacian solve, validated by projections.

    The numeric spectrum must cluster as {0, lambda_minus, lambda_plus}
    with the right multiplicities, and every character must project onto
    its cluster's eigenspace with residual at most 1e-8; otherwise
    "eigenspace mismatch" is raised.  The score at each vertex is then
    the explicit character sum with the measured cluster weights, so it
    checks the Gauss-sum values of the closed form independently.  A
    solve that does not converge raises RuntimeError.
    """
    p = int(p)
    if p > NUMERIC_MAX_PRIME:
        raise ValueError(f"numeric route limited to p <= {NUMERIC_MAX_PRIME}")
    field = PaleyField.create(p)
    mask = field.residue_mask()
    # the circulant Laplacian (p-1)/2 I - mask[(j - i) mod p], exact in
    # float64; no sparse build, so --verify never loads scipy
    ks = np.arange(p)
    lap = np.where(mask[(ks[None, :] - ks[:, None]) % p], -1.0, 0.0)
    lap[ks, ks] = (p - 1) / 2.0
    report = dense_sym_eig(lap)
    if not report.converged:
        raise RuntimeError(f"eigensolver did not converge on the Paley Laplacian (p={p})")
    values, vectors = report.values, report.vectors

    if values[0] > 1e-9 * p:
        raise ValueError("eigenspace mismatch: smallest eigenvalue is not 0")
    lower = (values > 1e-9 * p) & (values < p / 2.0)
    upper = values >= p / 2.0
    half = (p - 1) // 2
    if lower.sum() != half or upper.sum() != half:
        raise ValueError("eigenspace mismatch: wrong cluster multiplicities")
    lam_minus = float(values[lower].mean())
    lam_plus = float(values[upper].mean())

    # validate the character basis against the numeric eigenspaces
    # column k = e_k, entry j = exp(2 pi i (jk mod p) / p): the p exponentials
    # are taken once and gathered (same values, bit for bit); the exponent
    # table is reduced in place and freed before the projections, which set
    # the peak memory
    exps = np.outer(ks, ks)
    exps %= p
    chars = np.exp(2j * np.pi * ks / p)[exps]
    del exps
    for cluster_mask, class_mask in ((lower, mask), (upper, ~mask)):
        basis = vectors[:, cluster_mask]
        # k = 1..(p-1)/2 only: -1 is a residue, so e_{p-k} = conj(e_k) is in
        # the same class, and against a real basis its residual is e_k's
        cls = class_mask.copy()
        cls[0] = False
        cls[half + 1 :] = False
        # the basis is real: project the real and imaginary parts side by
        # side in real arithmetic, a dgemm instead of a complex zgemm, with
        # no complex copy of the block and the residual formed in place
        parts = np.hstack([chars.real[:, cls], chars.imag[:, cls]])
        norms = np.linalg.norm(parts, axis=0)
        parts -= basis @ (basis.T @ parts)
        resid = np.linalg.norm(parts, axis=0)
        rel = np.hypot(*np.split(resid, 2)) / np.hypot(*np.split(norms, 2))
        if rel.max(initial=0.0) > 1e-8:
            raise ValueError("eigenspace mismatch: character projection residual")

    weights = np.where(mask, lam_minus**-0.5, lam_plus**-0.5)
    weights[0] = 0.0
    per_vertex = chars @ weights
    if np.abs(per_vertex.imag).max() > 1e-10:
        raise ValueError("per-vertex score has imaginary part above 1e-10")
    j_non = int(np.argmin(mask[1:])) + 1  # smallest non-residue
    return PaleyScore(p, per_vertex[0], per_vertex[1], per_vertex[j_non], per_vertex)
