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

``paley_score_numeric`` checks this without the Gauss sum, for p up to
NUMERIC_MAX_PRIME: LAPACK gives the spectrum of the dense Laplacian, and
the FFT of the circulant's first row assigns each character its eigenvalue;
an inverse FFT of the measured weights gives the character sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputRefused
from .eigensolve import dense_sym_eig
from .pipeline import Graph

__all__ = [
    "PaleyField",
    "PaleySpectrum",
    "PaleyScore",
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


@dataclass(frozen=True)
class PaleyField:
    """Prime p = 1 mod 4 below 2**31; `create` costs an O(sqrt p) primality test."""

    p: int

    @classmethod
    def create(cls, p):
        p = int(p)
        if p >= MAX_PRIME or not _is_prime(p):
            raise InputRefused(f"p = {p} is not a prime below 2**31")
        if p % 4 != 1 or p < 5:
            raise InputRefused(
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
    """Paley graph on p vertices; (p-1)/2-regular with p(p-1)/4 edges.

    The edges come from a p x p table of differences (16 p^2 bytes at its
    peak), so p is limited to NUMERIC_MAX_PRIME like the dense solve.
    """
    p = int(p)
    if p > NUMERIC_MAX_PRIME:
        raise ValueError(f"paley_graph limited to p <= {NUMERIC_MAX_PRIME}")
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
    """Same score from a dense Laplacian solve and the circulant's FFT.

    LAPACK gives the spectrum: it must cluster as {0, lambda_minus,
    lambda_plus} with multiplicity 1, (p-1)/2, (p-1)/2, and the cluster
    means are the measured lambda_minus, lambda_plus.  The FFT assigns the
    characters: the Laplacian is the circulant with first row c, so
    fft(c) holds the eigenvalue of every character e_k(j) = exp(2 pi i
    jk/p).  Those must be real, 0 at k = 0, and within 1e-9 p of
    lambda_minus on the residues and of lambda_plus on the non-residues;
    otherwise "eigenspace mismatch" is raised.  The score at each vertex
    is then the character sum with the measured cluster weights, p times
    an inverse FFT, so it checks the Gauss-sum values of the closed form
    independently.  A solve that does not converge raises RuntimeError.
    """
    p = int(p)
    if p > NUMERIC_MAX_PRIME:
        raise ValueError(f"numeric route limited to p <= {NUMERIC_MAX_PRIME}")
    field = PaleyField.create(p)
    mask = field.residue_mask()
    # c, the first row of the circulant Laplacian (p-1)/2 I - A, exact in
    # float64; lap[i, j] = c[(j - i) mod p], row i is c shifted right by i.
    # No sparse build, so --verify never loads scipy
    c = np.where(mask, -1.0, 0.0)
    c[0] = (p - 1) / 2.0
    lap = np.lib.stride_tricks.sliding_window_view(np.concatenate([c, c]), p)[p:0:-1].copy()
    values, _ = dense_sym_eig(lap).require(f"the Paley Laplacian (p={p})")

    if values[0] > 1e-9 * p:
        raise ValueError("eigenspace mismatch: smallest eigenvalue is not 0")
    lower = (values > 1e-9 * p) & (values < p / 2.0)
    upper = values >= p / 2.0
    half = (p - 1) // 2
    if lower.sum() != half or upper.sum() != half:
        raise ValueError("eigenspace mismatch: wrong cluster multiplicities")
    lam_minus = float(values[lower].mean())
    lam_plus = float(values[upper].mean())

    # c is even (c[d] = c[-d], as -1 is a residue), so fft(c) is real and
    # its k-th entry is the eigenvalue of e_k
    char_values = np.fft.fft(c)
    if np.abs(char_values.imag).max() > 1e-9 * p:
        raise ValueError("eigenspace mismatch: character eigenvalues are not real")
    want = np.where(mask, lam_minus, lam_plus)
    want[0] = 0.0
    if np.abs(char_values.real - want).max() > 1e-9 * p:
        raise ValueError("eigenspace mismatch: a character eigenvalue is off its cluster")

    # per_vertex[j] = sum_k weights[k] exp(2 pi i jk/p)
    weights = np.where(mask, lam_minus**-0.5, lam_plus**-0.5)
    weights[0] = 0.0
    per_vertex = p * np.fft.ifft(weights)
    if np.abs(per_vertex.imag).max() > 1e-10:
        raise ValueError("per-vertex score has imaginary part above 1e-10")
    j_non = int(np.argmin(mask[1:])) + 1  # smallest non-residue
    return PaleyScore(p, per_vertex[0], per_vertex[1], per_vertex[j_non], per_vertex)
