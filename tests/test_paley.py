"""Paley graphs: construction, closed-form spectra, three-valued scores."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from nodalscore import paley
from nodalscore.eigensolve import EigenSolveReport, dense_sym_eig
from nodalscore.paley import (
    PER_VERTEX_MAX_PRIME,
    PaleyField,
    paley_graph,
    paley_score_closed_form,
    paley_score_numeric,
    paley_spectrum,
)
from nodalscore.pipeline import laplacian

PRIMES = (5, 13, 17, 29, 37, 101)

# frozen against paley_score_numeric(13) during development; the dense
# eigendecomposition route is the independent oracle for these decimals
P13_S_ZERO = 4.850693463203614
P13_S_RESIDUE = -0.19806836488818014
P13_S_NONRESIDUE = -0.6103805456457556


def test_residues_match_euler_criterion_enumeration():
    for p in PRIMES:
        mask = PaleyField.create(p).residue_mask()
        brute = {x * x % p for x in range(1, p)}
        assert set(np.flatnonzero(mask).tolist()) == brute
        assert mask.sum() == (p - 1) // 2
        assert [bool(m) for m in mask[1:]] == [pow(k, (p - 1) // 2, p) == 1 for k in range(1, p)]


def test_field_rejects_bad_primes():
    for bad in (7, 9, 15, 21):
        with pytest.raises(ValueError):
            PaleyField.create(bad)


def test_paley_graph_p5_is_cycle():
    g = paley_graph(5)
    edges = set(zip(g.u.tolist(), g.v.tolist()))
    assert edges == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def test_paley_graph_regularity():
    for p, degree in ((13, 6), (29, 14)):
        g = paley_graph(p)
        assert g.n == p
        assert g.n_edges == p * (p - 1) // 4
        assert np.allclose(g.degrees(), degree)


def test_paley_graph_cap_refuses_before_allocating():
    # p = 2017 is prime and 1 mod 4; its difference table would peak at 62 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"p <= {paley.NUMERIC_MAX_PRIME}"):
            paley_graph(2017)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2017  # not even one int64 array of p entries


def test_spectrum_closed_form_values():
    spec = paley_spectrum(13)
    assert spec.lambda_minus == pytest.approx((13 - math.sqrt(13)) / 2)
    assert spec.lambda_plus == pytest.approx((13 + math.sqrt(13)) / 2)
    assert spec.char_values[0] == 0.0
    counts = {
        0.0: 1,
        spec.lambda_minus: (13 - 1) // 2,
        spec.lambda_plus: (13 - 1) // 2,
    }
    for value, count in counts.items():
        assert (spec.char_values == value).sum() == count


def test_spectrum_trace_identity():
    for p in PRIMES:
        spec = paley_spectrum(p)
        assert spec.lambda_minus + spec.lambda_plus == pytest.approx(p)
        assert spec.char_values.sum() == pytest.approx(p * (p - 1) / 2)


def test_spectrum_p5_matches_cycle_closed_form():
    # the 5-cycle Laplacian eigenvalues are 2 - 2 cos(2 pi k / 5)
    cycle = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(5) / 5.0))
    spec = np.sort(paley_spectrum(5).char_values)
    assert np.abs(cycle - spec).max() <= 1e-12


def test_spectrum_matches_dense_laplacian():
    for p in PRIMES:
        got = np.sort(
            [pair.value for pair in dense_sym_eig(laplacian(paley_graph(p), "combinatorial").toarray()).pairs]
        )
        want = np.sort(paley_spectrum(p).char_values)
        assert np.abs(got - want).max() <= 1e-9 * p


def test_closed_form_score_p13_frozen_decimals():
    score = paley_score_closed_form(13)
    assert score.s_zero.real == pytest.approx(P13_S_ZERO, abs=1e-12)
    assert score.s_residue.real == pytest.approx(P13_S_RESIDUE, abs=1e-12)
    assert score.s_nonresidue.real == pytest.approx(P13_S_NONRESIDUE, abs=1e-12)
    # and the four-decimal values visible in summaries
    assert round(score.s_zero.real, 4) == 4.8507
    assert round(score.s_residue.real, 4) == -0.1981
    assert round(score.s_nonresidue.real, 4) == -0.6104


def test_closed_form_s_zero_identity():
    for p in PRIMES:
        spec = paley_spectrum(p)
        score = paley_score_closed_form(p)
        want = (p - 1) / 2 * (spec.lambda_minus**-0.5 + spec.lambda_plus**-0.5)
        assert score.s_zero.real == pytest.approx(want, abs=1e-12)


def test_closed_form_class_sum_identity():
    # summing the full character sum at fixed j != 0 gives -1 per class pair
    for p in PRIMES:
        spec = paley_spectrum(p)
        score = paley_score_closed_form(p)
        want = -(spec.lambda_minus**-0.5 + spec.lambda_plus**-0.5)
        got = score.s_residue + score.s_nonresidue
        assert got.real == pytest.approx(want, abs=1e-10)


def test_scores_take_exactly_three_values():
    for p in PRIMES:
        score = paley_score_closed_form(p)
        vals = score.per_vertex.real
        rounded = np.unique(np.round(vals, 9))
        assert rounded.size == 3
        mask = PaleyField.create(p).residue_mask()
        assert np.abs(vals[mask] - score.s_residue.real).max() <= 1e-10
        nonres = ~mask
        nonres[0] = False
        assert np.abs(vals[nonres] - score.s_nonresidue.real).max() <= 1e-10
        assert abs(vals[0] - score.s_zero.real) <= 1e-10


def test_imaginary_parts_cancel():
    for p in PRIMES:
        score = paley_score_closed_form(p)
        assert np.abs(score.per_vertex.imag).max() <= 1e-10


def test_numeric_oracle_matches_closed_form():
    for p in PRIMES:
        closed = paley_score_closed_form(p)
        numeric = paley_score_numeric(p)
        assert np.abs(closed.per_vertex - numeric.per_vertex).max() <= 1e-10


def test_numeric_p5_three_values_with_counts():
    score = paley_score_numeric(5)
    vals = np.round(score.per_vertex.real, 9)
    uniq, counts = np.unique(vals, return_counts=True)
    assert uniq.size == 3
    assert sorted(counts.tolist()) == [1, 2, 2]


def test_residue_class_multiplicativity():
    rng = np.random.default_rng(17)
    for p in PRIMES:
        mask = PaleyField.create(p).residue_mask()
        residues = np.flatnonzero(mask).tolist()
        nonresidues = [a for a in range(1, p) if not mask[a]]
        for _ in range(20):
            r = residues[rng.integers(0, len(residues))]
            n1 = nonresidues[rng.integers(0, len(nonresidues))]
            n2 = nonresidues[rng.integers(0, len(nonresidues))]
            assert not mask[(r * n1) % p]
            assert mask[(n1 * n2) % p]


def test_closed_form_matches_explicit_character_sum():
    # S(j) = sum_{k >= 1} lambda(k)^{-1/2} e^{2 pi i jk/p}, term by term
    for p in PRIMES:
        root = math.sqrt(p)
        squares = {x * x % p for x in range(1, p)}
        ks = np.arange(1, p)
        lam = np.array([(p - root) / 2 if k in squares else (p + root) / 2 for k in ks])
        js = np.arange(p)
        brute = (np.exp(2j * np.pi * (np.outer(js, ks) % p) / p) * lam**-0.5).sum(axis=1)
        assert np.abs(paley_score_closed_form(p).per_vertex - brute).max() <= 1e-12


def test_closed_form_accurate_to_rounding_up_to_max_prime():
    # the Gauss-sum values in 40-digit decimal arithmetic
    for p in (13, 1007921, 16777213, 2147483629):
        score = paley_score_closed_form(p)
        with localcontext() as ctx:
            ctx.prec = 40
            root = Decimal(p).sqrt()
            w_minus = 1 / ((p - root) / 2).sqrt()
            w_plus = 1 / ((p + root) / 2).sqrt()
            want = (
                (p - 1) * (w_minus + w_plus) / 2,
                (w_minus * (root - 1) - w_plus * (root + 1)) / 2,
                (w_plus * (root - 1) - w_minus * (root + 1)) / 2,
            )
            got = (score.s_zero, score.s_residue, score.s_nonresidue)
            for value, exact in zip(got, want):
                assert abs((Decimal(value) - exact) / exact) <= Decimal("1e-15")


def test_closed_form_allocates_nothing_of_size_p():
    p = 1000033
    tracemalloc.start()
    try:
        score = paley_score_closed_form(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p // 10  # a residue mask alone would be p bytes
    assert score.per_vertex.size == p


def test_per_vertex_cap():
    score = paley_score_closed_form(2147483629)
    assert score.s_zero > 0
    with pytest.raises(ValueError, match="per-vertex"):
        score.per_vertex
    assert PER_VERTEX_MAX_PRIME >= 10**7


@pytest.mark.parametrize("p", [13, 101])
def test_numeric_rejects_a_spectrum_off_the_character_eigenvalues(monkeypatch, p):
    # shift the lambda_minus cluster by 1e-6 p: its multiplicity still
    # passes, but the residue characters' FFT eigenvalues now lie off the
    # measured cluster mean by far more than 1e-9 p
    def shifted_solve(a):
        report = dense_sym_eig(a)
        report.values[1 : (p + 1) // 2] += 1e-6 * p
        return report

    paley_score_numeric(p)
    monkeypatch.setattr(paley, "dense_sym_eig", shifted_solve)
    with pytest.raises(ValueError, match="eigenspace mismatch: a character eigenvalue is off"):
        paley_score_numeric(p)


def test_numeric_field_is_the_explicit_character_sum():
    # per_vertex[j] = sum_k w_k exp(2 pi i (jk mod p) / p), w from the
    # measured cluster means of the dense solve
    for p in PRIMES:
        values = dense_sym_eig(laplacian(paley_graph(p), "combinatorial").toarray()).values
        half = (p - 1) // 2
        mask = PaleyField.create(p).residue_mask()
        weights = np.where(mask, values[1 : half + 1].mean() ** -0.5, values[half + 1 :].mean() ** -0.5)
        weights[0] = 0.0
        ks = np.arange(p)
        brute = np.exp(2j * np.pi * (np.outer(ks, ks) % p) / p) @ weights
        assert np.abs(paley_score_numeric(p).per_vertex - brute).max() <= 1e-12


def test_numeric_peak_memory_below_five_dense_matrices():
    # the dense solve holds the Laplacian, its eigenvectors and the
    # residual products; no p x p character or exponent table is built
    p = 601
    paley_score_numeric(p)
    tracemalloc.start()
    try:
        paley_score_numeric(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * p * p


def test_numeric_stops_on_non_converged_solve(monkeypatch):
    # the failed dense solve returns no pairs; the check precedes any use
    def failed(a):
        return EigenSolveReport(
            values=np.empty(0), vectors=np.empty((a.shape[0], 0)), residuals=np.empty(0),
            iterations=0, converged=False, method="dense",
        )

    monkeypatch.setattr(paley, "dense_sym_eig", failed)
    with pytest.raises(RuntimeError, match="did not converge on the Paley Laplacian"):
        paley_score_numeric(13)
