"""Reducible inputs: A's nonzero pattern splits into diagonal blocks up to a
symmetric permutation, and the Gram guard, the skew kernel and the skew
part's condition estimate run block by block, while A's LU stays whole."""

import math

import numpy as np
import pytest
import scipy.linalg

from wignerpf import (
    NotConjugateNormalError,
    PfUndefinedError,
    SpectrumEntry,
    SpectrumSpec,
    antisymmetrized_pfaffian,
    generalized_pfaffian,
    generalized_pfaffian_via_relation,
    is_conjugate_normal,
    random_conjugate_normal,
)
from wignerpf import errors, generalized, linalg, normal_form, pfaffian

from conftest import CORPUS_SIZE

EPS = np.finfo(float).eps


def block(pairs, seed, *extra):
    """A conjugate-normal block with ``pairs`` distinct complex pairs, whose
    arguments stay 0.2 rad off the real axis, and the ``extra`` entries."""
    rng = np.random.default_rng(seed)
    omegas = np.exp(rng.uniform(-1.0, 1.0, pairs)) * np.exp(
        1j * rng.uniform(0.2, math.pi - 0.2, pairs)
    )
    entries = tuple(SpectrumEntry("complex", complex(w)) for w in omegas) + tuple(extra)
    return random_conjugate_normal(SpectrumSpec(entries, seed=seed))


def permuted(matrix, order):
    """``P matrix P^T`` with row i of ``matrix`` moved to row ``order[i]``."""
    out = np.empty_like(matrix)
    out[np.ix_(order, order)] = matrix
    return out


def direct_sum_inputs():
    a, b = block(32, 1), block(48, 2)
    order = np.random.default_rng(3).permutation(160)
    return {
        "sum": (scipy.linalg.block_diag(a, b), [64, 96]),
        "permuted": (permuted(scipy.linalg.block_diag(a, b), order), [64, 96]),
        "tensor": (np.kron(block(40, 4), np.diag([2.0, 3.0])), [80, 80]),
        "three-copies": (np.kron(np.eye(3), block(32, 5)), [64, 64, 64]),
    }


INPUTS = direct_sum_inputs()


@pytest.fixture
def whole(monkeypatch):
    """Inside the test, no input splits: every pass runs on A whole."""

    def use_whole():
        for module in (generalized, normal_form):
            monkeypatch.setattr(module, "_direct_blocks", lambda m: None)

    return use_whole


def hexes(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("name", list(INPUTS))
def test_components_of_two_panels_are_blocks(name):
    matrix, sizes = INPUTS[name]
    blocks = pfaffian._direct_blocks(linalg._unit_scaled(matrix)[0])
    assert sorted(len(b) for b in blocks) == sorted(sizes)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(len(matrix)))
    for rows in blocks:
        outside = np.setdiff1d(np.arange(len(matrix)), rows)
        assert not matrix[np.ix_(rows, outside)].any()
        assert not matrix[np.ix_(outside, rows)].any()


@pytest.mark.parametrize("name", list(INPUTS))
def test_value_and_det_keep_the_whole_paths_bits(name, whole):
    # A's LU stays whole, so det and the value +-sqrt(det) keep their bits;
    # only apf and the guard's residual are added up from the blocks
    matrix, _ = INPUTS[name]
    split = generalized_pfaffian(matrix)
    relation = generalized_pfaffian_via_relation(matrix)
    whole()
    want = generalized_pfaffian(matrix)
    assert split.diagnostics.cross_check_residual == 0  # the fast path served
    assert hexes(split.value) == hexes(want.value)
    assert hexes(split.diagnostics.det) == hexes(want.diagnostics.det)
    assert hexes(relation.value) == hexes(generalized_pfaffian_via_relation(matrix).value)
    residual = split.diagnostics.conjugate_normal_residual
    assert abs(residual - want.diagnostics.conjugate_normal_residual) <= 4 * EPS
    assert abs(split.diagnostics.apf - want.diagnostics.apf) <= 1e-12 * abs(want.diagnostics.apf)


@pytest.mark.parametrize("name", list(INPUTS))
def test_check_reports_the_whole_guards_residual(name):
    matrix, _ = INPUTS[name]
    flag, residual = is_conjugate_normal(matrix)
    unit, _ = linalg._unit_scaled(matrix)
    want, _ = normal_form._require_conjugate_normal(unit, linalg.DEFAULT_TOL, None)
    assert flag and abs(residual - want) <= 4 * EPS


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_apf_is_the_signed_product_of_the_blocks_apfs(seed):
    # P interleaves the rows of A and B and keeps each one's order, so the
    # blocks the split takes are A and B themselves, times one power of two
    rng = np.random.default_rng(seed)
    a, b = block(32 + 8 * seed, 10 + seed), 2.0 ** (3 - seed) * block(40, 20 + seed)
    dim = len(a) + len(b)
    rows_a = np.sort(rng.choice(dim, len(a), replace=False))
    order = np.concatenate([rows_a, np.setdiff1d(np.arange(dim), rows_a)])
    sign = round(np.linalg.det(np.eye(dim)[order]))
    apf_a, apf_b = antisymmetrized_pfaffian(a).value, antisymmetrized_pfaffian(b).value
    want = apf_a * apf_b
    assert all(generalized._in_range(x) for x in (apf_a, apf_b, want))
    if sign < 0:
        want = -want
    got = antisymmetrized_pfaffian(permuted(scipy.linalg.block_diag(a, b), order)).value
    assert hexes(got) == hexes(want)


#: a second block of 64 or 65 rows beside 32 pairs, each of one kind that
#: keeps the fast path from serving, and the outcome of the direct sum
SECOND_BLOCKS = {
    # two odd blocks: each holds a positive sigma, its kernel gives 0
    "odd": (lambda: block(32, 31, SpectrumEntry("positive-real", 2.0)), PfUndefinedError),
    "positive-sigma": (
        lambda: block(31, 32, SpectrumEntry("positive-real", 3.0, 2)),
        PfUndefinedError,
    ),
    "not-conjugate-normal": (
        lambda: np.random.default_rng(33).normal(size=(64, 64)) + 0j,
        NotConjugateNormalError,
    ),
    "singular": (lambda: block(31, 34, SpectrumEntry("zero", 0.0, 2)), None),
    # a pair 1e-8 rad from the real axis: the block's skew estimate declines
    "ill-conditioned": (
        lambda: block(31, 35, SpectrumEntry("complex", 2.0 * np.exp(1e-8j))),
        None,
    ),
}


def outcome(matrix):
    try:
        result = generalized_pfaffian(matrix)
    except errors.Error as exc:
        return type(exc), None
    return None, (hexes(result.value), result.diagnostics.singular)


@pytest.mark.parametrize("kind", list(SECOND_BLOCKS))
def test_error_class_is_the_whole_paths(kind, whole):
    second, error = SECOND_BLOCKS[kind]
    first = block(32, 30)
    if kind == "odd":
        first = block(32, 36, SpectrumEntry("positive-real", 1.5))
    matrix = scipy.linalg.block_diag(first, second())
    assert len(pfaffian._direct_blocks(linalg._unit_scaled(matrix)[0])) == 2
    split = outcome(matrix)
    whole()
    assert split == outcome(matrix)
    assert split[0] is error
    if kind == "singular":
        assert split[1][1]


def test_dense_inputs_stop_at_the_row_test(corpus, monkeypatch):
    def no_search(m):
        raise AssertionError("a dense input needs no pattern")

    monkeypatch.setattr(pfaffian, "_pattern_blocks", no_search)
    assert len(corpus) == CORPUS_SIZE
    for _, matrix in corpus:
        generalized_pfaffian(matrix)
    for seed in range(3):
        matrix = block(50 + 50 * seed, 40 + seed)
        generalized_pfaffian(matrix)
        generalized_pfaffian(0.5 * matrix.T)
        generalized_pfaffian_via_relation(matrix)
        is_conjugate_normal(matrix)


@pytest.mark.parametrize("name", ["sum", "three-copies"])
def test_direct_sums_in_order_need_no_search(name, monkeypatch):
    # each row of a block in order links to an earlier row of it, so its
    # run of rows is one component
    def no_search(linked):
        raise AssertionError("a direct sum in order needs no component search")

    monkeypatch.setattr(pfaffian, "_components", no_search)
    matrix, sizes = INPUTS[name]
    blocks = pfaffian._direct_blocks(linalg._unit_scaled(matrix)[0])
    assert [len(b) for b in blocks] == sizes


@pytest.mark.parametrize(
    "pairs, sizes",
    [
        # two components of 2 _PANEL rows, with and without a remainder
        ((40, 32), [80, 64]),
        ((40, 4, 32), [80, 64, 8]),
        # one beside small components that fill a panel together
        ((40, *[4] * 8), [80, 64]),
        ((64, 16), [128, 32]),
        ((32, 32, 0), [64, 64, 1]),
        # one beside fewer than _PANEL rows; small components in order, which
        # the run test settles; too few rows
        ((64, 8), None),
        ((48, 12), None),
        ((8,) * 8, None),
        ((1,) * 80, None),
        ((32, 8), None),
    ],
)
def test_blocks_of_two_panels_and_a_remainder(pairs, sizes):
    # a count of 0 pairs stands for one isolated row
    matrix = scipy.linalg.block_diag(
        *[block(count, 40 + k) if count else np.eye(1) for k, count in enumerate(pairs)]
    )
    blocks = pfaffian._direct_blocks(linalg._unit_scaled(matrix)[0])
    if sizes is None:
        assert blocks is None
        return
    assert [len(b) for b in blocks] == sizes
    bounds = np.cumsum([0, *(2 * count or 1 for count in pairs)])
    small = [k for k, count in enumerate(pairs) if 2 * count < 64]
    if small:  # the remainder, last, holds the small components' rows
        want = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in small])
        assert np.array_equal(blocks[-1], want)


def test_shuffled_small_components_stay_whole():
    # one run spans the matrix, so the components are searched for: none
    # has 2 _PANEL rows
    matrix = scipy.linalg.block_diag(*[block(8, 50 + k) for k in range(10)])
    matrix = permuted(matrix, np.random.default_rng(5).permutation(len(matrix)))
    assert pfaffian._direct_blocks(linalg._unit_scaled(matrix)[0]) is None


@pytest.mark.parametrize("corner", [2.0, 0.0], ids=["isolated-row", "zero-row"])
def test_one_row_remainder(corner, whole):
    # an odd dimension: pf declines its fast path, and the guard of check and
    # of the relation route runs on three blocks, the last of one row
    matrix = scipy.linalg.block_diag(block(32, 60), block(32, 61), [[corner]])
    assert [len(b) for b in pfaffian._direct_blocks(linalg._unit_scaled(matrix)[0])] == [64, 64, 1]
    flag, residual = is_conjugate_normal(matrix)
    split = relation_outcome(matrix)
    whole()
    assert flag and abs(residual - is_conjugate_normal(matrix)[1]) <= 4 * EPS
    assert split == relation_outcome(matrix)
    assert split[0] is (None if corner == 0 else PfUndefinedError)


def relation_outcome(matrix):
    try:
        result = generalized_pfaffian_via_relation(matrix)
    except errors.Error as exc:
        return type(exc), None
    return None, (hexes(result.value), result.diagnostics.singular)
