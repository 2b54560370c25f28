"""Both paths of EdgeMeasure against numpy's own reduction of the cube.

A dense chain's edge measure is reduced from its cube, and a sparse
chain's from P's non-zeros, in the order numpy's summation adds the cube,
so every projection keeps the bits of ``cube.sum``.  These tests call the
reduction directly on every non-empty mask, through either storage, and
scatter its compact form, so a change in numpy's summation order shows up
here as a named failure.  The empty mask is no reduction: it gives the
point mass.
"""

import tracemalloc
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcselect import chain_core
from helpers_naive import edge_projection, naive_weighted_support
from mcselect.chain_core import (
    EdgeMeasure,
    ProductStateSpace,
    SubsetMask,
    TransitionMatrix,
    stationary_distribution,
)
from mcselect.functionals import shannon_entropy
from mcselect.models import CurieWeissParams, curie_weiss_chain, load_chain
from mcselect.objectives import Workspace

MIXED_CHAIN = Path(__file__).parent / "golden" / "mixed_3223.json"


def random_chain(seed, dims, zeros=0.0):
    """A random chain with the given share of zero entries; a cycle through
    every state keeps it irreducible."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    rows = rng.random((n, n))
    rows[rng.random((n, n)) < zeros] = 0.0
    rows[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    rows /= rows.sum(axis=1, keepdims=True)
    P = TransitionMatrix(ProductStateSpace(dims), rows)
    return P, stationary_distribution(P)


def chain(spec):
    if spec == "mixed_3223":
        return load_chain(MIXED_CHAIN)
    if isinstance(spec, int):
        return curie_weiss_chain(CurieWeissParams(spec, 10.0, 1.0))
    dims, zeros = spec
    return random_chain(sum(dims), dims, zeros)


def cube_of(P, pi):
    return (pi.probs[:, None] * P.rows).reshape(P.space.dims * 2)


def cube_sum(cube, mask):
    drop = tuple(i for i in range(mask.d) if i not in mask)
    return cube.sum(axis=drop + tuple(mask.d + i for i in drop))


def scattered(compact, cube, mask):
    """A reduction's compact form (int32 ascending cell indices, values)
    scattered into zeros of the shape of ``cube_sum(cube, mask)``."""
    index, values = compact
    assert index.dtype == np.int32 and (np.diff(index) > 0).all()
    shape = tuple(cube.shape[i] for i in mask) * 2
    e = np.zeros(math.prod(shape))
    e[index] = values
    return e.reshape(shape)


SPECS = [6, 8, "mixed_3223"] + [
    (dims, zeros)
    for dims in [(3, 2, 2), (5, 5, 5, 5), (7, 3, 5, 2, 3), (2,) * 8]
    for zeros in (0.0, 0.9)
] + [((3,) * 6, 0.9)]  # runs of 243 and 81 entries, not a multiple of 8


def on_support(em):
    """``em``, reduced from its held non-zeros whatever the density."""
    if em.cube is not None:
        em._hold_nonzeros()
        em.cube = None
    return em


def nonempty(d):
    return [S for S in SubsetMask.full(d).subsets() if S.bits]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_every_mask_has_the_bits_of_cube_sum(spec):
    P, pi = chain(spec)
    cube = cube_of(P, pi)
    em = on_support(EdgeMeasure(P, pi))
    for S in nonempty(P.space.d):
        assert np.array_equal(scattered(em._reduce(S), cube, S), cube_sum(cube, S)), S


# every run length that numpy adds in order, 2 to 7 entries, and at (3,)*6
# runs of 243 and 81 entries
DENSE_SPECS = ["mixed_3223", ((3, 2, 2), 0.9)] + [
    (dims, 0.0) for dims in [(3, 2, 2), (5, 5, 5, 5), (7, 3, 5, 2, 3), (3, 2, 7), (2,) * 8,
                             (3,) * 6]
]


@pytest.mark.parametrize("spec", DENSE_SPECS, ids=str)
def test_every_mask_of_the_cube_has_the_bits_of_cube_sum(spec):
    """The reduction from the cube against numpy's multi-axis sum."""
    P, pi = chain(spec)
    cube = cube_of(P, pi)
    em = EdgeMeasure(P, pi)
    assert em.cube is not None
    for S in nonempty(P.space.d):
        assert np.array_equal(scattered(em._reduce(S), cube, S), cube_sum(cube, S)), S


def same_bits(a, b):
    return a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


HOLD_SPECS = ["mixed_3223", ((3, 2, 7), 0.0), ((3,) * 6, 0.0), ((2,) * 8, 0.0)]


@pytest.mark.parametrize("spec", HOLD_SPECS, ids=str)
def test_held_pass_one_keeps_the_bits(spec, monkeypatch):
    """Every mask, in shuffled order on one measure that holds its run
    sums, against a fresh measure's reduction; pass 1 runs at most once
    per last kept coordinate (none for the last coordinate, whose runs
    are single entries)."""
    P, pi = chain(spec)
    d = P.space.d
    masks = nonempty(d)
    fresh = [EdgeMeasure(P, pi)._reduce(S) for S in masks]
    calls = []
    sum_rows = chain_core._sum_rows
    monkeypatch.setattr(chain_core, "_sum_rows",
                        lambda block: calls.append(block.shape[1]) or sum_rows(block))
    em = EdgeMeasure(P, pi)
    assert em.cube is not None
    order = np.random.default_rng(d).permutation(len(masks))
    for i in order:
        assert same_bits(em._reduce(masks[i]), fresh[i]), masks[i]
    assert len(calls) == len(set(calls)) == d - 1
    assert all(arr.flags.writeable is False for (arr,) in em._runs.values())


@pytest.mark.parametrize("cap", [0, 3000, 40_000])
def test_held_bytes_stay_within_a_small_cap(cap):
    """Past the cap, run sums and compact cells are computed and not kept,
    with the same bits."""
    P, pi = chain(((3, 2, 7), 0.0))
    masks = nonempty(3)
    fresh = [EdgeMeasure(P, pi)._reduce(S) for S in masks]
    em = EdgeMeasure(P, pi)
    em._held_cap = cap
    for S, want in zip(masks * 2, fresh * 2):
        assert same_bits(em._cells(S), want), S
        assert em.held_bytes <= cap
    held = [arr for store in (em._runs, em._held) for arrays in store.values() for arr in arrays]
    assert em.held_bytes == sum(arr.nbytes for arr in held)


@pytest.mark.parametrize("spec", [6, ((3, 2, 2), 0.0)], ids=str)
def test_empty_mask_is_the_point_mass(spec):
    """E_empty is the point mass, weight 1 in one cell, on either storage."""
    P, pi = chain(spec)
    em = EdgeMeasure(P, pi)
    assert (em.cube is None) == (spec == 6)
    empty = SubsetMask.empty(P.space.d)
    assert em.weights(empty).tolist() == [1.0]
    assert em.keep_in(empty).rows.tolist() == [[1.0]]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(2, 7), st.integers(1, 3000)), st.integers(1, 6),
       st.floats(0.0005, 0.5), st.booleans(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_run_sums_of_any_run(run, groups, share, small, block, seed):
    """Runs of any length, half of them 2 to 7 entries, many with one or two
    values, against numpy's sum over the last axis of the dense rows; with
    a small RUN_BLOCK the runs spread over several blocks, or are longer
    than one."""
    rng = np.random.default_rng(seed)
    dense = rng.random((groups, run)) * (rng.random((groups, run)) < share)
    dense[:, rng.integers(run)] += 1.0  # no run is empty
    group, pos = np.nonzero(dense)
    start = np.ones(len(group), dtype=bool)
    start[1:] = group[1:] != group[:-1]
    with pytest.MonkeyPatch.context() as patch:
        if small:
            patch.setattr(chain_core, "RUN_BLOCK", block)
        got = chain_core._run_sums(start, pos, dense[group, pos], run)
    assert np.array_equal(got, dense.sum(axis=1))


def test_runs_over_a_block_at_d10(cw10):
    """Runs of 512 and 256 entries, many to a block."""
    P, pi = cw10
    cube = cube_of(P, pi)
    em = on_support(EdgeMeasure(P, pi))
    for kept in [(0,), (1,), (0, 1), (1, 3)]:
        S = SubsetMask.of(10, kept)
        assert np.array_equal(scattered(em._reduce(S), cube, S), cube_sum(cube, S)), S


def test_storage_follows_the_density():
    assert EdgeMeasure(*chain(4)).cube is not None  # 80 non-zeros of 256
    assert EdgeMeasure(*chain(6)).cube is None  # 448 of 4096
    assert EdgeMeasure(*chain(((3, 2, 2), 0.0))).cube is not None


def test_floor_weights_are_reduced_but_not_in_the_support():
    """The held scan keeps every non-zero; support() drops those at or below
    TERM_FLOOR, as a fresh scan of P does."""
    n = 32
    rows = np.zeros((n, n))
    rows[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    rows[0, 0], rows[0, 1] = 1e-305, 1.0 - 1e-305
    P = TransitionMatrix(ProductStateSpace((2,) * 5), rows)
    pi = stationary_distribution(P)
    em = EdgeMeasure(P, pi)
    assert em.cube is None
    assert len(em._nonzeros[0]) == n + 1
    for got, want in zip(em.support(), naive_weighted_support(pi.probs, P.rows)):
        assert np.array_equal(got, want)
    assert len(em.support()[0]) == n
    cube = cube_of(P, pi)
    for S in nonempty(5):
        assert np.array_equal(scattered(em._reduce(S), cube, S), cube_sum(cube, S))


def test_sparse_chain_scans_P_once(monkeypatch):
    """A Curie-Weiss P is built from its non-zeros and is never scanned; a
    copy built from its rows is scanned once."""
    born, pi = chain(6)
    scans = []
    scan = chain_core._scan
    monkeypatch.setattr(chain_core, "_scan", lambda M: scans.append(1) or scan(M))
    for P, want in ((born, 0), (TransitionMatrix(born.space, born.rows.copy()), 1)):
        scans.clear()
        em = EdgeMeasure(P, pi)
        em.support()
        em.weights(SubsetMask.full(6))
        em.keep_in(SubsetMask.of(6, (0, 2)))
        em.support()
        assert len(scans) == want


def traced_peak(step) -> int:
    """Bytes traced at the peak of ``step()`` above those held before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    step()
    return tracemalloc.get_traced_memory()[1] - before


def test_sparse_chain_allocates_no_n_by_n_array(cw8):
    P, pi = cw8
    n = P.space.total
    full = SubsetMask.full(8)
    tracemalloc.start()
    try:
        # the measure is able to see an n x n array
        assert traced_peak(lambda: np.ones((n, n))) >= n * n * 8
        em = None

        def build():
            nonlocal em
            em = EdgeMeasure(P, pi)

        peaks = [traced_peak(build), traced_peak(em.support),
                 traced_peak(lambda: em.weights(full))]
        for S in full.subsets():
            if S != full:
                peaks.append(traced_peak(lambda: edge_projection(em, S)))
        ws = Workspace(P, pi)
        peaks.append(traced_peak(lambda: ws.entropy_rate(full)))
    finally:
        tracemalloc.stop()
    assert em.cube is None and ws.edge.cube is None
    assert max(peaks) < n * n * 8


@pytest.mark.parametrize("d", [6, 8, 10])
def test_full_mask_entropy_is_that_of_the_dense_cube(d):
    P, pi = chain(d)
    want = shannon_entropy(pi.probs[:, None] * P.rows)
    ws = Workspace(P, pi)
    assert ws.edge.cube is None
    assert shannon_entropy(ws.edge.weights(SubsetMask.full(d))) == want
    assert ws.entropy_rate(SubsetMask.full(d)) == want - shannon_entropy(pi)
