"""Score fields built from eigenpairs, degeneracy handling, local minima.

The central object is the score field

    f(x) = sum over selected pairs of  value^{-1/2} * |vector[x]| / norm,

where norm is the sup norm by default (L2 optionally).  Selection is either
the first n_terms pairs of a sorted basis or every pair with value below a
cutoff.  Degenerate eigenspaces make the pointwise field basis-dependent;
``rotation_averaged_score`` removes that dependence in the mean by averaging
over uniformly random rotations of each degenerate group.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenPair",
    "SpectralBasis",
    "ScoreConfig",
    "ScoreField",
    "DegeneracyGroups",
    "compute_score_field",
    "group_degenerate",
    "rotation_averaged_score",
    "nodal_proxy",
    "find_strict_local_minima",
]


@dataclass
class EigenPair:
    """One eigenvalue with its sampled eigenvector and cached sup norm."""

    value: float
    vector: np.ndarray
    sup_norm: float = 0.0

    def __post_init__(self):
        self.value = float(self.value)
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1 or self.vector.size < 1:
            raise ValueError("vector must be a nonempty 1-d array")
        if not np.isfinite(self.vector).all():
            raise ValueError("vector has non-finite entries")
        if not (self.value >= 0.0):
            raise ValueError(f"eigenvalue must be >= 0, got {self.value}")
        if self.sup_norm == 0.0:
            self.sup_norm = float(np.max(np.abs(self.vector)))
        if self.sup_norm <= 0.0:
            raise ValueError("zero vector is not a valid eigenvector")


@dataclass
class SpectralBasis:
    """Eigenpairs sorted by ascending value, trivial modes dropped.

    Pairs with value < drop_tolerance are removed at construction; the
    default tolerance is 1e-9 times the largest value present, which
    removes numerically-zero modes (graph Laplacian constants) and keeps
    everything else.
    """

    pairs: list[EigenPair]
    domain_tag: str = ""
    drop_tolerance: float = 0.0

    def __post_init__(self):
        if self.drop_tolerance < 0.0:
            raise ValueError("drop_tolerance must be nonnegative")
        values = [p.value for p in self.pairs]
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("pairs must be sorted by ascending eigenvalue")
        sizes = {p.vector.size for p in self.pairs}
        if len(sizes) > 1:
            raise ValueError("all eigenvectors must have the same length")
        if any(v < self.drop_tolerance for v in values):
            raise ValueError("pair below drop_tolerance survived construction")

    @classmethod
    def build(cls, pairs, domain_tag="", drop_tolerance=None):
        """Sort pairs, apply the drop tolerance, return the basis."""
        pairs = sorted(pairs, key=lambda p: p.value)
        if drop_tolerance is None:
            lam_max = max((p.value for p in pairs), default=0.0)
            drop_tolerance = 1e-9 * lam_max
        kept = [p for p in pairs if p.value >= drop_tolerance]
        return cls(kept, domain_tag=domain_tag, drop_tolerance=drop_tolerance)

    @property
    def n_pairs(self):
        return len(self.pairs)

    @property
    def n_points(self):
        return self.pairs[0].vector.size if self.pairs else 0

    @property
    def values(self):
        return np.array([p.value for p in self.pairs])

    def basis_hash(self):
        """Digest of eigenvalues, eigenvectors and the domain tag."""
        h = hashlib.sha256()
        h.update(self.domain_tag.encode())
        for p in self.pairs:
            h.update(np.float64(p.value).tobytes())
            h.update(np.ascontiguousarray(p.vector).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class ScoreConfig:
    """Selection and normalization for a score computation.

    Exactly one of n_terms / lambda_cutoff must be set.  norm_exponent is
    math.inf (sup norm) or 2.  trials and seed only matter for the
    rotation-average policy.
    """

    n_terms: int | None = None
    lambda_cutoff: float | None = None
    norm_exponent: float = math.inf
    degenerate_policy: str = "as-given"
    trials: int = 1
    seed: int | None = None

    def __post_init__(self):
        if (self.n_terms is None) == (self.lambda_cutoff is None):
            raise ValueError("set exactly one of n_terms and lambda_cutoff")
        if self.n_terms is not None and self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if self.norm_exponent not in (math.inf, 2):
            raise ValueError("norm_exponent must be inf or 2")
        if self.degenerate_policy not in ("as-given", "rotation-average"):
            raise ValueError(f"unknown degenerate_policy {self.degenerate_policy!r}")
        if self.degenerate_policy == "rotation-average":
            if self.trials < 1:
                raise ValueError("rotation averaging needs trials >= 1")
            if self.seed is None:
                raise ValueError("rotation averaging needs a seed")


@dataclass
class ScoreField:
    """Per-point score values plus the config and basis digest that made them."""

    values: np.ndarray
    config: ScoreConfig
    basis_hash: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(self.values).all():
            raise ValueError("score field has non-finite values")
        if (self.values < 0).any():
            raise ValueError("score field has negative values")


@dataclass
class DegeneracyGroups:
    """Contiguous runs of indistinguishable eigenvalues (maximal chains)."""

    groups: list[list[int]]
    rel_tol: float


def _select_pairs(basis, config):
    if config.n_terms is not None:
        if basis.n_pairs < config.n_terms:
            raise ValueError(
                f"basis has {basis.n_pairs} pairs, need n_terms={config.n_terms}"
            )
        pairs = basis.pairs[: config.n_terms]
    else:
        pairs = [p for p in basis.pairs if p.value <= config.lambda_cutoff]
    if not pairs:
        raise ValueError("no eigenpairs selected")
    if any(p.value == 0.0 for p in pairs):
        raise ValueError("zero eigenvalue in score")
    return pairs


def compute_score_field(basis, config, _warn=True):
    """Evaluate the score field for the selected pairs, in fixed order.

    With the as-given policy a RuntimeWarning is emitted when the selection
    contains a (near-)degenerate group, since the pointwise values then
    depend on the solver's arbitrary choice of basis.
    """
    pairs = _select_pairs(basis, config)
    if _warn and config.degenerate_policy == "as-given" and len(pairs) > 1:
        probe = SpectralBasis(pairs, domain_tag=basis.domain_tag)
        if any(len(g) > 1 for g in group_degenerate(probe, 1e-9).groups):
            warnings.warn(
                "degenerate eigenvalues scored as-given; pointwise values are "
                "basis-dependent (consider rotation averaging)",
                RuntimeWarning,
                stacklevel=2,
            )
    vectors = np.stack([p.vector for p in pairs])
    weights = np.array([p.value for p in pairs]) ** -0.5
    if config.norm_exponent == 2:
        norms = np.linalg.norm(vectors, axis=1)
    else:
        norms = np.array([p.sup_norm for p in pairs])
    values = (weights / norms) @ np.abs(vectors)
    return ScoreField(values, config, basis.basis_hash())


def group_degenerate(basis, rel_tol):
    """Partition basis indices into maximal runs of near-equal values.

    Consecutive values lambda_i <= lambda_j join one group when
    lambda_j - lambda_i <= rel_tol * max(lambda_j, lambda_i); chaining
    makes the runs maximal.  The tolerance has no absolute floor, so
    scaling every value by c > 0 leaves the groups the same.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    values = basis.values
    groups = []
    current = [0] if len(values) else []
    for i in range(1, len(values)):
        gap = values[i] - values[i - 1]
        if gap <= rel_tol * max(values[i], values[i - 1]):
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    if current:
        groups.append(current)
    return DegeneracyGroups(groups=groups, rel_tol=float(rel_tol))


def _haar_rotation(rng, g):
    """Uniformly random g x g orthogonal matrix (QR of a Gaussian draw)."""
    gauss = rng.standard_normal((g, g))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


def rotation_averaged_score(basis, groups, config):
    """Mean score field over random rotations of each degenerate group.

    Per trial every non-singleton group's vectors are replaced by a random
    orthogonal rotation of their span (sup norms recomputed), the field is
    evaluated, and the trial fields are averaged.  Deterministic for a
    fixed seed.  Rotations that produce an all-zero vector are redrawn; a
    hundred consecutive rejections raise.
    """
    if config.degenerate_policy != "rotation-average":
        raise ValueError("config.degenerate_policy must be rotation-average")
    rng = np.random.default_rng(config.seed)
    total = np.zeros(basis.n_points)
    for _ in range(config.trials):
        pairs = list(basis.pairs)
        for group in groups.groups:
            if len(group) < 2:
                continue
            block = np.stack([basis.pairs[i].vector for i in group])
            for attempt in range(100):
                rotated = _haar_rotation(rng, len(group)) @ block
                sups = np.max(np.abs(rotated), axis=1)
                if (sups > 0).all():
                    break
            else:
                raise RuntimeError("rotation kept producing an all-zero vector")
            for row, i in enumerate(group):
                pairs[i] = EigenPair(basis.pairs[i].value, rotated[row])
        trial_basis = SpectralBasis(
            pairs, domain_tag=basis.domain_tag, drop_tolerance=basis.drop_tolerance
        )
        total += compute_score_field(trial_basis, config, _warn=False).values
    return ScoreField(total / config.trials, config, basis.basis_hash())


def nodal_proxy(pair, point):
    """value^{-1/2} * |vector[point]| / sup_norm, a nodal-distance surrogate."""
    if pair.value <= 0.0:
        raise ValueError("zero eigenvalue in score")
    return pair.value ** -0.5 * abs(pair.vector[point]) / pair.sup_norm


def _grid2d_minima(values, shape):
    rows, cols = shape
    v = values.reshape(rows, cols)
    padded = np.full((rows + 2, cols + 2), np.inf)
    padded[1:-1, 1:-1] = v
    ok = (
        (v < padded[:-2, 1:-1])
        & (v < padded[2:, 1:-1])
        & (v < padded[1:-1, :-2])
        & (v < padded[1:-1, 2:])
    )
    return np.flatnonzero(ok.ravel())


def find_strict_local_minima(values, topology, shape=None, adjacency=None):
    """Indices whose value is strictly below every neighbor's.

    topology is "grid-1d" (path neighbors), "grid-2d" (4-neighborhood,
    shape=(rows, cols) required) or "graph-adjacency" (adjacency = list of
    neighbor index arrays).  Boundary points only compete with neighbors
    that exist; a point with no neighbors qualifies vacuously.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be 1-d")
    n = values.size
    if topology == "grid-1d":
        padded = np.concatenate(([np.inf], values, [np.inf]))
        ok = (values < padded[:-2]) & (values < padded[2:])
        return np.flatnonzero(ok)
    if topology == "grid-2d":
        if shape is None or len(shape) != 2:
            raise ValueError("grid-2d needs shape=(rows, cols)")
        if shape[0] * shape[1] != n:
            raise ValueError("shape does not match the number of values")
        return _grid2d_minima(values, shape)
    if topology == "graph-adjacency":
        if adjacency is None:
            raise ValueError("graph-adjacency needs adjacency lists")
        if len(adjacency) != n:
            raise ValueError("adjacency length does not match the number of values")
        out = [
            i
            for i in range(n)
            if all(values[i] < values[j] for j in adjacency[i])
        ]
        return np.array(out, dtype=np.int64)
    raise ValueError(f"unknown topology {topology!r}")
