"""Property tests over random small chains: every catalog entry, on every
feasible candidate, satisfies f = g - c - shift exactly and agrees with its
direct evaluation within the drift tolerance the command line enforces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_naive import random_product_chain, random_reversible_chain
from mcselect.chain_core import SubsetMask, ValidationError
from mcselect.cli import DRIFT_TOL
from mcselect.objectives import (
    CRITERIA,
    PARTITION_PROBLEMS,
    SUBSET_PROBLEMS,
    SUBSET_ROWS,
    Workspace,
    build_partition_objective,
    build_subset_objective,
    is_product_form,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@st.composite
def chains_with_ceiling(draw):
    """A random reversible or product chain on 1..5 coordinates of sizes 2
    and 3, and a ceiling of k non-empty groups with coordinates left out."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=5)))
    make = draw(st.sampled_from((random_reversible_chain, random_product_chain)))
    P, pi = make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dims)
    d = len(dims)
    k = draw(st.integers(1, d))
    labels = draw(st.lists(st.integers(0, k), min_size=d, max_size=d))
    labels[:k] = range(1, k + 1)  # every group gets at least one coordinate
    labels = draw(st.permutations(labels))
    caps = tuple(SubsetMask.of(d, (i for i, lab in enumerate(labels) if lab == j))
                 for j in range(1, k + 1))
    return P, pi, caps


def feasible(dec):
    """Candidates the optimizers may return: subsets of the ground set, or
    partitions below the ceiling, whose size the entry admits."""
    for S in dec.ground.subsets():
        try:
            dec.validate_m(S.size)
        except ValidationError:
            continue
        yield S if dec.kind == "subset" else tuple(cap & S for cap in dec.ceiling)


def assert_identities(dec):
    for S in feasible(dec):
        assert dec.f(S) == dec.g(S) - dec.c(S) - dec.shift, (dec.problem_id, S)
        drift = abs(dec.report_value(S) - dec.report_sign * dec.f_direct(S))
        assert drift <= DRIFT_TOL, (dec.problem_id, S, drift)


def variants(row_id, product):
    row = CRITERIA[row_id]
    if row.product_form == "required" and not product:
        return ()
    return (False, True) if row.block_order else (False,)


@PROPERTY_SETTINGS
@given(chains_with_ceiling())
def test_every_subset_entry_identities(chain):
    P, pi, _ = chain
    ws = Workspace(P, pi)
    product = is_product_form(pi)
    for problem_id in SUBSET_PROBLEMS:
        W = SubsetMask.of(P.space.d, (0,)) if problem_id == "dist2fact-fixed" else None
        for block_order in variants(SUBSET_ROWS[problem_id], product):
            assert_identities(build_subset_objective(
                problem_id, P, pi, W=W, heuristic=True, block_order=block_order, workspace=ws))


@PROPERTY_SETTINGS
@given(chains_with_ceiling())
def test_every_partition_entry_identities(chain):
    P, pi, caps = chain
    ws = Workspace(P, pi)
    product = is_product_form(pi)
    for problem_id in PARTITION_PROBLEMS:
        for block_order in variants(problem_id, product):
            assert_identities(build_partition_objective(
                problem_id, P, pi, caps, heuristic=True, block_order=block_order, workspace=ws))
