"""Shared fixtures: the spectral test corpus, a mixed-gauge test seam, a
seam that sends every Pfaffian down its SVD route, and acceptance
reporting.

The corpus is a deterministic family of 300 conjugate-normal matrices with
prescribed mixed spectra (complex pairs and negative-real eigenvalues,
dimensions up to 40).  Every sixth spectrum is degenerate -- either a
multiplicity-2 complex pair or a multiplicity-4 negative-real eigenvalue --
so clustered eigenspaces are exercised throughout.  Eigenvalues are kept at
least 1e-2 apart (conjugates included) and at least 0.05 away from the real
axis so that clustering decisions are unambiguous at default tolerances.
"""

import os
import re
from contextlib import contextmanager
from dataclasses import replace

# One BLAS/OpenMP thread unless the environment says otherwise, set before
# numpy loads: the timed acceptance criterion then measures the program, not
# the scheduler of a machine shared with other processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
import scipy.linalg

from wignerpf import SpectrumEntry, SpectrumSpec, generalized, normal_form, random_conjugate_normal
from wignerpf.ensembles import random_unitary

CORPUS_SIZE = 300

_MIN_SEPARATION = 1e-2


def _separated(omega, used):
    return all(abs(omega - u) >= _MIN_SEPARATION for u in used)


def corpus_spec(index: int) -> SpectrumSpec:
    """Deterministic spectrum prescription number ``index``."""
    rng = np.random.default_rng(987_000 + index)
    degenerate = index % 6 == 0
    half = int(rng.integers(1, 21))  # dimension 2 .. 40
    if degenerate:
        half = max(half, 2)
    target = 2 * half
    entries = []
    used = [0j]  # keep the spectrum away from zero as well
    filled = 0

    def draw_complex() -> complex:
        while True:
            omega = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
            if _separated(omega, used) and _separated(np.conj(omega), used):
                used.extend([omega, np.conj(omega)])
                return omega

    def draw_negative() -> complex:
        while True:
            omega = complex(-rng.uniform(0.1, 9.0))
            if _separated(omega, used):
                used.append(omega)
                return omega

    if degenerate:
        if index % 12:
            entries.append(SpectrumEntry("complex", draw_complex(), 2))
        else:
            entries.append(SpectrumEntry("negative-real", draw_negative(), 4))
        filled += 4
    while filled < target:
        if rng.random() < 0.65:
            entries.append(SpectrumEntry("complex", draw_complex(), 1))
        else:
            entries.append(SpectrumEntry("negative-real", draw_negative(), 2))
        filled += 2
    return SpectrumSpec(entries=tuple(entries), seed=31_000 + index)


@pytest.fixture(scope="session")
def corpus():
    """List of (spec, matrix) pairs, built once per session."""
    specs = [corpus_spec(i) for i in range(CORPUS_SIZE)]
    return [(spec, random_conjugate_normal(spec)) for spec in specs]


@pytest.fixture
def schur_orders(monkeypatch):
    """The order of every ``scipy.linalg.schur`` call, in order."""
    orders = []
    schur = scipy.linalg.schur

    def spying(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spying)
    return orders


@contextmanager
def only_svd_route():
    """Inside the block every Pfaffian value takes the SVD route: the
    well-conditioned fast path's gate declines at once, before the fast path
    measures anything, so the group kernel, its witnesses, its gauge and its
    pass counts are what a test pins on inputs the fast path would
    otherwise serve."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generalized, "_well_conditioned_pfaffian", lambda m, tol: (None, None))
        yield


@pytest.fixture
def svd_route():
    """:func:`only_svd_route` for the whole test."""
    with only_svd_route():
        yield


@contextmanager
def mixed_gauge(seed):
    """Inside the block, every normal form and Pfaffian is built from a mixed
    basis.

    Patches ``normal_form.classify_spectrum`` to return the same pairing with
    each cluster's eigenvectors B replaced by B R and their images A conj(B)
    by A conj(B) conj(R), and ``normal_form._svd`` to return the same SVD
    with each group's singular vectors X_J and Y_J replaced by X_J R and Y_J
    R; R is a random unitary drawn from a generator seeded with ``seed``
    afresh on every call (so repeated calls mix alike).  The blocks, det(U)
    and pf must not depend on R.  ``None`` mixes nothing.
    """
    original = normal_form.classify_spectrum
    original_svd = normal_form._svd

    def mixed(a, tol=normal_form.DEFAULT_TOL):
        pairing = original(a, tol)
        rng = np.random.default_rng(seed)
        vectors, images = np.array(pairing.vectors), np.array(pairing.images)
        for cluster in pairing.clusters:
            cols = list(cluster.columns)
            mix = random_unitary(len(cols), int(rng.integers(2**32)))
            vectors[:, cols] = vectors[:, cols] @ mix
            images[:, cols] = images[:, cols] @ mix.conj()
        return replace(pairing, vectors=vectors, images=images)

    def mixed_svd(m):
        x, d, yh = original_svd(m)
        rng = np.random.default_rng(seed)
        stops = np.flatnonzero(d[:-1] - d[1:] > normal_form._GROUP_RTOL * d[0]) + 1
        for lo, hi in zip([0, *stops.tolist()], [*stops.tolist(), len(d)]):
            mix = random_unitary(hi - lo, int(rng.integers(2**32)))
            x[:, lo:hi] = x[:, lo:hi] @ mix
            yh[lo:hi] = mix.conj().T @ yh[lo:hi]
        return x, d, yh

    if seed is not None:
        normal_form.classify_spectrum = mixed
        normal_form._svd = mixed_svd
    try:
        yield
    finally:
        normal_form.classify_spectrum = original
        normal_form._svd = original_svd


_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if "test_acceptance" not in item.nodeid:
        return
    match = _CRITERION.search(item.name)
    if match is None:
        return
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
    elif report.failed:  # collection/setup error counts as a failure
        status = "FAIL"
    else:
        return
    line = f"ACCEPTANCE {int(match.group(1))}: {status}"
    reporter = item.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_line(line)
    else:  # pragma: no cover - no terminal plugin registered
        print(line)
