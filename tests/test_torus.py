"""Perturbed circle operator: spectra, window localization, bifurcation."""

import math

import numpy as np
import pytest

from nodalscore import torus
from nodalscore.eigensolve import EigenSolveReport, dense_sym_eig
from nodalscore.torus import (
    PotentialSpec,
    build_circle_operator,
    find_N_eps,
    potential_on_grid,
    torus_score,
    window_mask,
)

TWO_PI = 2.0 * math.pi
PINNED = PotentialSpec(y=0.35 * TWO_PI, eps=0.10 * TWO_PI, bump="constant-well")


def spectrum(n_grid, spec):
    op = build_circle_operator(n_grid, spec)
    return np.array([p.value for p in dense_sym_eig(op.matrix.densified()).pairs])


# ------------------------------------------------------------- PotentialSpec


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(y=-0.1, eps=0.5)
    with pytest.raises(ValueError):
        PotentialSpec(y=0.0, eps=TWO_PI)
    with pytest.raises(ValueError):
        PotentialSpec(y=0.0, eps=0.5, bump="plateau")
    with pytest.raises(ValueError):
        PotentialSpec(y=0.0, eps=0.5, well_scale=-1.0)


def test_potential_is_one_outside_window():
    xs = np.arange(512) * (TWO_PI / 512)
    v = potential_on_grid(PINNED, xs)
    inside = window_mask(xs, PINNED)
    assert np.all(v[~inside] == 1.0)
    assert np.all(v[inside] < 1.0)


def test_window_mask_wraps_around_zero():
    spec = PotentialSpec(y=0.95 * TWO_PI, eps=0.10 * TWO_PI)
    xs = np.array([0.0, 0.04 * TWO_PI, 0.06 * TWO_PI, 0.5 * TWO_PI])
    assert window_mask(xs, spec).tolist() == [True, True, False, False]


def test_constant_well_lowers_the_trace():
    op = build_circle_operator(256, PotentialSpec(y=1.0, eps=0.1, bump="constant-well"))
    assert op.potential.sum() < op.n_grid


# ------------------------------------------------------ build_circle_operator


def test_operator_guards():
    with pytest.raises(ValueError):
        build_circle_operator(32, PINNED)
    narrow = PotentialSpec(y=0.0, eps=3.0 * TWO_PI / 512)
    with pytest.raises(ValueError, match="unresolved perturbation"):
        build_circle_operator(512, narrow)


def test_unperturbed_spectrum_matches_circulant_closed_form():
    """well_scale = 0 gives V = 1; eigenvalues are (2 - 2cos(2 pi k/n))/h^2 + 1."""
    n = 128
    spec = PotentialSpec(y=1.0, eps=0.5, well_scale=0.0)
    h = TWO_PI / n
    k = np.arange(n)
    closed = np.sort((2.0 - 2.0 * np.cos(TWO_PI * k / n)) / (h * h) + 1.0)
    got = spectrum(n, spec)
    assert np.abs(got - closed).max() <= 1e-8 * closed.max()


def test_unperturbed_ground_mode_is_constant_one():
    n = 256
    spec = PotentialSpec(y=2.0, eps=0.3, well_scale=0.0)
    op = build_circle_operator(n, spec)
    report = dense_sym_eig(op.matrix.densified())
    h = TWO_PI / n
    assert abs(report.pairs[0].value - 1.0) <= h * h
    vec = report.pairs[0].vector / np.linalg.norm(report.pairs[0].vector)
    assert np.abs(np.abs(vec) - 1.0 / math.sqrt(n)).max() <= 1e-9


def test_unperturbed_pairs_near_k_squared_plus_one():
    n = 512
    spec = PotentialSpec(y=0.0, eps=0.5, well_scale=0.0)
    vals = spectrum(n, spec)
    h = TWO_PI / n
    for k in (1, 2, 3, 4):
        pair = vals[2 * k - 1 : 2 * k + 1]
        discretization = abs((2.0 - 2.0 * math.cos(k * h)) / (h * h) - k * k)
        assert np.abs(pair - (k * k + 1.0)).max() <= discretization + 1e-9


# ------------------------------------------------------------ proof identity


def test_sin_plus_cos_lower_bound():
    z = np.linspace(-3.0 * math.pi, 3.0 * math.pi, 20001)
    vals = np.abs(np.sin(z)) + np.abs(np.cos(z))
    assert vals.min() >= 1.0 - 1e-12
    equality = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, -2.0 * math.pi])
    at_eq = np.abs(np.sin(equality)) + np.abs(np.cos(equality))
    assert np.abs(at_eq - 1.0).max() <= 1e-12
    # strict inequality away from multiples of pi/2
    off = equality[:4] + 0.3
    assert (np.abs(np.sin(off)) + np.abs(np.cos(off)) > 1.0 + 1e-3).all()


# ------------------------------------------------------- bifurcation pattern


def test_split_pairs_bracket_the_reference():
    """Each double eigenvalue splits: one branch clearly below the V = 1
    value, the other staying within a small fraction of the split of it."""
    eps = 0.05 * TWO_PI
    spec = PotentialSpec(y=0.35 * TWO_PI, eps=eps, bump="constant-well")
    ref = spectrum(512, PotentialSpec(y=spec.y, eps=eps, well_scale=0.0))
    split = spectrum(512, spec)
    for k in (1, 2, 3):
        reference = ref[2 * k - 1]  # exact double in the unperturbed operator
        lam_minus, lam_plus = split[2 * k - 1], split[2 * k]
        gap = lam_plus - lam_minus
        assert gap > 0.0
        assert lam_minus < reference - 1e-3
        assert reference - lam_plus <= 0.15 * gap


# ---------------------------------------------------------------- torus_score


def test_score_argmin_in_window_at_pinned_parameters():
    field = torus_score(512, PINNED, 5)
    grid = np.arange(512) * (TWO_PI / 512)
    argmin = grid[int(np.argmin(field.values))]
    assert PINNED.y <= argmin <= PINNED.y + PINNED.eps


def test_score_grid_stability_512_vs_1024():
    grids = {}
    for n in (512, 1024):
        field = torus_score(n, PINNED, 5)
        axis = np.arange(n) * (TWO_PI / n)
        grids[n] = axis[int(np.argmin(field.values))]
    h = TWO_PI / 512
    assert abs(grids[512] - grids[1024]) <= 2.0 * h


def test_score_unperturbed_rotation_average_is_nearly_flat():
    """well_scale = 0 makes every pair exactly degenerate; the rotation
    average flattens toward the translation-invariant constant (Monte
    Carlo noise at 4096 trials stays under 0.01)."""
    spec = PotentialSpec(y=PINNED.y, eps=PINNED.eps, well_scale=0.0)
    field = torus_score(
        512, spec, 3, degenerate_policy="rotation-average", trials=4096, seed=0
    )
    spread = field.values.max() - field.values.min()
    assert spread <= 0.01
    ideal = sum(2.0 * (2.0 / math.pi) / math.sqrt(k * k + 1.0) for k in (1, 2, 3))
    assert abs(field.values.mean() - ideal) <= 0.05


def test_score_input_guards():
    with pytest.raises(ValueError):
        torus_score(512, PINNED, 0)
    with pytest.raises(ValueError):
        torus_score(512, PINNED, 65)


@pytest.mark.parametrize(
    "solver, n_grid", [("dense_sym_eig", 256), ("lanczos_smallest", 1024)]
)
def test_score_stops_on_non_converged_solve(monkeypatch, solver, n_grid):
    def unconverged(*args, **kwargs):
        return EigenSolveReport(
            pairs=[], residuals=np.array([]), iterations=0, converged=False
        )

    monkeypatch.setattr(torus, solver, unconverged)
    with pytest.raises(RuntimeError, match="did not converge"):
        torus_score(n_grid, PINNED, 3)
    with pytest.raises(RuntimeError, match="did not converge"):
        find_N_eps(PINNED, n_grid, 3)


# ----------------------------------------------------------------- find_N_eps


def test_find_n_eps_zero_cap():
    assert find_N_eps(PINNED, 512, 0) == 0


def test_find_n_eps_pinned_case_and_localization():
    n_star = find_N_eps(PINNED, 512, 6)
    assert n_star >= 1
    # re-assert the window localization independently, via the global argmin
    grid = np.arange(512) * (TWO_PI / 512)
    for n in range(1, n_star + 1):
        field = torus_score(512, PINNED, n)
        argmin = grid[int(np.argmin(field.values))]
        assert PINNED.y <= argmin <= PINNED.y + PINNED.eps, f"N={n} argmin {argmin}"


def test_find_n_eps_trend_under_shrinking_window():
    results = []
    for frac in (0.15, 0.10, 0.05):
        spec = PotentialSpec(y=0.35 * TWO_PI, eps=frac * TWO_PI, bump="constant-well")
        results.append(find_N_eps(spec, 512, 8))
    assert all(n >= 1 for n in results)
    assert results[0] <= results[1] <= results[2]


def test_find_n_eps_guards():
    with pytest.raises(ValueError):
        find_N_eps(PINNED, 512, -1)
    with pytest.raises(ValueError):
        find_N_eps(PINNED, 512, 65)
