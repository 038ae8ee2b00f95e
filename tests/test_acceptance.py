"""Acceptance gate: eleven numbered criteria, one test each.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line through the hook in
conftest.py.  The shared 300-matrix corpus (mixed complex-pair and
negative-real spectra, >= 50 degenerate, dimensions up to 40) comes from the
session fixture; criteria with their own stated populations build them
locally with fixed seeds.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from wignerpf import (
    OffDiagBlock,
    SpectrumEntry,
    SpectrumSpec,
    antisymmetrized_pfaffian,
    generalized_pfaffian,
    generalized_pfaffian_via_relation,
    identity_report,
    pf_polynomial,
    pf_skew_parlett_reid,
    pfaffian_derivative,
    random_conjugate_normal,
    random_ginibre,
    reconstruct,
    wigner_normal_form,
)
from wignerpf.ensembles import random_unitary, spectrum_blocks
from wignerpf.linalg import unitarity_defect
from wignerpf.normal_form import assemble_sigma
from wignerpf.pfaffian import pf_skew_householder

from conftest import mixed_gauge
from test_cli import (
    GOLDEN_PF_A2,
    GOLDEN_PF_J,
    JSON_A2,
    MM_DIAG_POSITIVE,
    MM_J,
)
from wignerpf.cli import main


def test_criterion_01_polynomial_equals_householder_oracle():
    """The matching-sum Pfaffian agrees with the Householder route to 1e-11
    on 200 arbitrary complex matrices of dimension 2, 4, 6, 8 in <= 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 4, 6, 8):
        for k in range(50):
            matrix = random_ginibre(dim, 10_000 + 100 * dim + k)
            oracle = pf_polynomial(matrix)
            other = pf_skew_householder((matrix - matrix.T) / 2.0)
            worst = max(worst, abs(oracle - other) / abs(oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-11, f"worst relative discrepancy {worst:.3e}"
    assert elapsed <= 10.0, f"took {elapsed:.2f} s"


def test_criterion_02_square_equals_determinant(corpus):
    """pf(A)^2 = det(A) to 1e-9 relative across the 300-matrix corpus in
    <= 30 s."""
    start = time.perf_counter()
    worst = 0.0
    for _, matrix in corpus:
        result = generalized_pfaffian(matrix)
        det = result.diagnostics.det
        worst = max(worst, abs(result.value**2 - det) / abs(det))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst |pf^2 - det| / |det| = {worst:.3e}"
    assert elapsed <= 30.0, f"took {elapsed:.2f} s"


def test_criterion_03_identity_battery(corpus):
    """Every algebraic identity holds to 1e-8 on the corpus; the tensor
    identity is additionally exercised with 1x1 and 3x3 partners on the
    small matrices, including a hand-checked value."""
    b1 = np.array([[5.0]])
    b3 = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.25], [0.0, 0.25, 1.5]])
    for _, matrix in corpus:
        report = identity_report(matrix)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"failed checks: {failed}"
        if matrix.shape[0] <= 4:
            for partner in (b1, b3):
                extra = identity_report(matrix, b=partner)
                assert extra.check("tensor").passed

    # hand value: the standard 2x2 skew block against diag(2, 3)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    product = np.kron(j, np.diag([2.0, 3.0]))
    np.testing.assert_allclose(
        generalized_pfaffian(product).value, -6.0, atol=1e-12
    )
    np.testing.assert_allclose(pf_skew_householder(product), -6.0, atol=1e-12)


def test_criterion_04_normal_form_contract(corpus):
    """A = U Sigma U^T with unitary U, blocks matching the prescription,
    and the antisymmetric part carried by i Im(Sigma)."""
    for spec, matrix in corpus:
        nf = wigner_normal_form(matrix)
        dim = matrix.shape[0]
        norm = np.linalg.norm(matrix)
        assert unitarity_defect(nf.u) <= 1e-10 * math.sqrt(dim)
        assert np.linalg.norm(matrix - reconstruct(nf)) <= 1e-9 * norm
        sigma = assemble_sigma(nf.blocks)
        skew_sigma = (sigma - sigma.conj()) / 2.0  # (Sigma - Sigma^T)/2 for Hermitian Sigma
        assert (
            np.linalg.norm((matrix - matrix.T) / 2.0 - nf.u @ skew_sigma @ nf.u.T)
            <= 1e-9 * norm
        )
        prescribed = spectrum_blocks(spec)
        assert len(nf.blocks) == len(prescribed)
        for got, want in zip(nf.blocks, prescribed):
            assert type(got) is type(want)
            assert got.multiplicity == want.multiplicity


def test_criterion_05_gauge_and_ordering_invariance(corpus, svd_route):
    """Randomized eigenvector gauges leave the Pfaffian unchanged to 1e-8,
    including 4-fold degenerate spectra.  The cluster order needs no
    randomizing: distinct clusters have distinct block keys, and the
    canonical block sort fixes their order.  Taken on the SVD route, whose
    group kernel reads the singular vectors the gauge mixes (the fast path
    reads no basis)."""
    selected = [pair for i, pair in enumerate(corpus) if i % 6 == 0]
    selected += [corpus[i] for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)]
    assert any(
        entry.kind == "negative-real" and entry.multiplicity == 4
        for spec, _ in selected
        for entry in spec.entries
    )
    worst = 0.0
    for _, matrix in selected:
        base = generalized_pfaffian(matrix).value
        for seed in (1, 2):
            with mixed_gauge(seed):
                value = generalized_pfaffian(matrix).value
            worst = max(worst, abs(value - base) / abs(base))
    assert worst <= 1e-8, f"worst gauge sensitivity {worst:.3e}"


def test_criterion_06_bridge_relation(corpus):
    """The determinant-ratio route reproduces the normal-form value to 1e-9
    and det(A)/det((A - A^T)/2) is positive real on every instance."""
    worst = 0.0
    for _, matrix in corpus:
        reference = generalized_pfaffian(matrix)
        via = generalized_pfaffian_via_relation(matrix)
        worst = max(worst, abs(via.value - reference.value) / abs(reference.value))
        ratio = reference.diagnostics.det / reference.diagnostics.det_antisymmetric
        assert ratio.real > 0.0
        assert abs(ratio.imag) <= 1e-8 * abs(ratio.real)
    assert worst <= 1e-9, f"worst bridge discrepancy {worst:.3e}"


def test_criterion_07_jump_discontinuity():
    """|pf([[0, 1+ix], [1-ix, 0]])| = sqrt(1 + x^2) and the value flips
    sign exactly under x -> -x."""
    for x in (0.1, 0.5, 1.0):
        plus = generalized_pfaffian(
            [[0.0, 1.0 + 1.0j * x], [1.0 - 1.0j * x, 0.0]]
        ).value
        minus = generalized_pfaffian(
            [[0.0, 1.0 - 1.0j * x], [1.0 + 1.0j * x, 0.0]]
        ).value
        assert abs(abs(plus) - math.sqrt(1.0 + x * x)) <= 1e-10
        assert minus == -plus


def _derivative_path(k: int):
    """One conjugate-normality-preserving path A(x) with its exact dA at 0.

    A(x) = G(x) (A0 + x D) G(x)^T with unitary G(x) = exp(i x H) and
    D = U0 dSigma U0^T for a Hermitian perturbation dSigma with the block
    sparsity of Sigma0, so A(x) is conjugate-normal for every x and
    dA = i (H A0 + A0 H^T) + D.
    """
    rng = np.random.default_rng(5_000 + k)
    entries = []
    pairs = 1 + k % 5
    for j in range(pairs):
        if k % 2 and j == pairs - 1:
            entries.append(SpectrumEntry("negative-real", -(1.3 + 0.9 * j), 2))
        else:
            entries.append(
                SpectrumEntry("complex", (0.5 + 0.7 * j) + (0.8 + 0.31 * j) * 1j, 1)
            )
    spec = SpectrumSpec(entries=tuple(entries), seed=6_000 + k)
    sigma0 = assemble_sigma(spectrum_blocks(spec))
    dim = spec.dimension
    u0 = random_unitary(dim, spec.seed)
    a0 = u0 @ sigma0 @ u0.T

    half = dim // 2
    dsigma = np.zeros_like(sigma0)
    for j in range(half):
        delta = 0.3 * (rng.normal() + 1j * rng.normal())
        dsigma[j, half + j] = delta
        dsigma[half + j, j] = np.conj(delta)
    d = u0 @ dsigma @ u0.T

    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    da = 1j * (h @ a0 + a0 @ h.T) + d

    def at(x: float) -> np.ndarray:
        gx = expm(1j * x * h)
        return gx @ (a0 + x * d) @ gx.T

    return a0, da, at


def test_criterion_08_derivative_matches_finite_differences():
    """The trace formula for the directional derivative agrees with central
    finite differences to 1e-5 along 20 structure-preserving paths."""
    step = 1e-5
    worst = 0.0
    for k in range(20):
        a0, da, at = _derivative_path(k)
        numeric = (
            generalized_pfaffian(at(step)).value
            - generalized_pfaffian(at(-step)).value
        ) / (2.0 * step)
        analytic = pfaffian_derivative(a0, da)
        worst = max(worst, abs(analytic - numeric) / abs(analytic))
    assert worst <= 1e-5, f"worst derivative mismatch {worst:.3e}"


def test_criterion_09_phase_agreement(corpus):
    """arg pf(A) and arg pf((A - A^T)/2) agree to 1e-7 whenever the latter
    is not vanishingly small."""
    checked = 0
    for _, matrix in corpus:
        apf = antisymmetrized_pfaffian(matrix).value
        if abs(apf) < 1e-6:
            continue
        pf = generalized_pfaffian(matrix).value
        delta = np.angle(apf) - np.angle(pf)
        wrapped = (delta + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(wrapped) <= 1e-7, f"phase gap {wrapped:.3e}"
        checked += 1
    assert checked > 250  # the filter must not hollow the criterion out


def test_criterion_10_performance():
    """A 200x200 generalized Pfaffian completes in <= 5 s and a 1000x1000
    skew Pfaffian in <= 10 s through the Householder oracle and in <= 1 s
    through the production Parlett-Reid kernel, the two agreeing to 1e-10
    relative."""
    entries = tuple(
        SpectrumEntry("complex", (-2.5 + 0.05 * j) + (0.6 + 0.007 * j) * 1j, 1)
        for j in range(100)
    )
    big = random_conjugate_normal(SpectrumSpec(entries=entries, seed=424_242))
    assert big.shape == (200, 200)
    start = time.perf_counter()
    result = generalized_pfaffian(big)
    elapsed = time.perf_counter() - start
    assert result.value != 0
    assert elapsed <= 5.0, f"200x200 took {elapsed:.2f} s"

    # scaled so the Pfaffian magnitude stays inside double range
    g = random_ginibre(1000, 7)
    skew = (g - g.T) / 2.0 / math.sqrt(1000.0)
    start = time.perf_counter()
    value = pf_skew_householder(skew)
    elapsed = time.perf_counter() - start
    assert value != 0 and np.isfinite(value)
    assert elapsed <= 10.0, f"1000x1000 took {elapsed:.2f} s"

    start = time.perf_counter()
    production = pf_skew_parlett_reid(skew)
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0, f"1000x1000 Parlett-Reid took {elapsed:.2f} s"
    discrepancy = abs(production - value) / abs(value)
    assert discrepancy <= 1e-10, f"Parlett-Reid vs Householder {discrepancy:.3e}"


def test_criterion_11_cli_golden_outputs(tmp_path, capsys):
    """The three documented CLI invocations reproduce byte-identical JSON
    and their exit codes."""
    j = tmp_path / "j.mm"
    j.write_text(MM_J)
    a2 = tmp_path / "a2.json"
    a2.write_text(JSON_A2)
    diag = tmp_path / "diag.mm"
    diag.write_text(MM_DIAG_POSITIVE)

    code = main(["pf", str(j)])
    assert (code, capsys.readouterr().out) == (0, GOLDEN_PF_J)

    code = main(["pf", "--format", "json", str(a2)])
    assert (code, capsys.readouterr().out) == (0, GOLDEN_PF_A2)

    code = main(["pf", str(diag)])
    out = capsys.readouterr().out
    assert code == 4
    assert out == (
        '{"error": {"code": 4, "message": "the spectrum of A conj(A) '
        "contains a positive real eigenvalue; the antisymmetric part is "
        'singular while A is not, so no continuous Pfaffian extension exists"}}\n'
    )


def test_corpus_composition(corpus):
    """The corpus itself satisfies its advertised shape: 300 matrices,
    dimensions <= 40, >= 50 degenerate spectra, both 2- and 4-fold cases."""
    assert len(corpus) == 300
    assert max(m.shape[0] for _, m in corpus) <= 40
    degenerate = 0
    fourfold = 0
    for spec, _ in corpus:
        mults = [
            (e.kind, e.multiplicity) for e in spec.entries if e.multiplicity > 1
        ]
        pair_degenerate = any(
            (k == "complex" and m >= 2) or (k == "negative-real" and m >= 4)
            for k, m in mults
        )
        degenerate += pair_degenerate
        fourfold += any(k == "negative-real" and m == 4 for k, m in mults)
    assert degenerate >= 50
    assert fourfold >= 20
