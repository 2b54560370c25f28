"""Property tests over random small chains: every catalog entry, on every
feasible candidate, satisfies f = g - c - shift exactly and agrees with its
direct evaluation within the drift tolerance the command line enforces; the
g of every entry that carries a guarantee passes the exhaustive oracle, and
the distorted greedy runs meet their certificate; the distance to
independence obeys the chain rule over a two-block split.  Over random
sparse and dense matrices, a point lookup reads the rows and every
reduction of the edge measure scatters to ``cube.sum``.  Over random set
functions, every failing oracle clause reports its first violation."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_naive import random_product_chain, random_reversible_chain
from mcselect import chain_core
from mcselect.chain_core import (
    Distribution,
    EdgeMeasure,
    ProductStateSpace,
    SubsetMask,
    TransitionMatrix,
    ValidationError,
    marginalize,
    tensor,
    tensor_dist,
)
from mcselect.cli import DRIFT_TOL
from mcselect.functionals import distance_to_independence
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
from mcselect.optimizers import certify, distorted_greedy, generalized_distorted_greedy
from mcselect.oracle import (
    SUBMODULARITY_TOL,
    check_k_submodular,
    check_monotone,
    check_submodular,
)
from test_acceptance import TOL_IDENT

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


def guaranteed(P, pi, caps, ws):
    """The decompositions whose g carries the (k-)submodularity guarantee on
    this chain: no raw dist2stat target, no dist2fact-fixed, no block order,
    and product-form rows only on product-form chains."""
    product = is_product_form(pi)
    for problem_id in SUBSET_PROBLEMS:
        row = SUBSET_ROWS[problem_id]
        if problem_id not in ("dist2stat", "dist2fact-fixed") and (
                product or CRITERIA[row].product_form is None):
            yield build_subset_objective(problem_id, P, pi, workspace=ws)
    for problem_id in PARTITION_PROBLEMS:
        if product or CRITERIA[problem_id].product_form is None:
            yield build_partition_objective(problem_id, P, pi, caps, workspace=ws)


@PROPERTY_SETTINGS
@given(chains_with_ceiling())
def test_every_guaranteed_g_passes_the_oracle(chain):
    P, pi, caps = chain
    for dec in guaranteed(P, pi, caps, Workspace(P, pi)):
        if dec.kind == "subset":
            assert check_monotone(dec.g, dec.ground).passed, dec.problem_id
            assert check_submodular(dec.g, dec.ground).passed, dec.problem_id
        else:
            report = check_k_submodular(dec.g, dec.ground, len(caps), ceiling=caps)
            assert report.lattice.passed and report.orthant.passed, dec.problem_id


@PROPERTY_SETTINGS
@given(chains_with_ceiling())
def test_distorted_runs_meet_their_certificate(chain):
    P, pi, caps = chain
    for dec in guaranteed(P, pi, caps, Workspace(P, pi)):
        search = distorted_greedy if dec.kind == "subset" else generalized_distorted_greedy
        for m in range(dec.ground.size + 1):
            try:
                dec.validate_m(m)
            except ValidationError:
                continue
            assert certify(dec, m, search(dec, m)).satisfied, (dec.problem_id, m)


@st.composite
def chains_with_split(draw):
    """A random reversible chain on 2..4 coordinates of sizes 2 and 3, and a
    random split of its coordinates into two non-empty blocks."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=4)))
    P, pi = random_reversible_chain(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dims)
    d = len(dims)
    first = draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(lambda f: 0 < sum(f) < d))
    block = SubsetMask.of(d, (i for i in range(d) if first[i]))
    return P, pi, (block, block.complement())


@PROPERTY_SETTINGS
@given(chains_with_split())
def test_chain_rule_of_the_distance_to_independence(chain):
    """The tensor of the blocks' keep-in chains is as far from independence
    as the blocks are, summed."""
    P, pi, blocks = chain
    edge = EdgeMeasure(P, pi)
    joined = tensor([edge.keep_in(S) for S in blocks])
    joined_pi = tensor_dist([marginalize(pi, S) for S in blocks])
    lhs = distance_to_independence(joined, joined_pi, SubsetMask.full(P.space.d))
    rhs = sum(distance_to_independence(P, pi, S) for S in blocks)
    assert abs(lhs - rhs) <= TOL_IDENT


@st.composite
def matrices(draw):
    """Random stochastic rows on 2..5 coordinates of sizes 2 and 3 with a
    random share of zero entries (a cycle through every state keeps each
    row non-empty), a random full-support pi, and a generator."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from((0.0, 0.5, 0.9, 0.99)))
    n = math.prod(dims)
    rows = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
    rows[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    rows /= rows.sum(axis=1, keepdims=True)
    weights = rng.random(n) + 0.05
    space = ProductStateSpace(dims)
    return space, rows, Distribution(space, weights / weights.sum()), rng


def support_born(space, rows):
    x, y = np.nonzero(rows)
    return TransitionMatrix._from_support(space, x, y, rows[x, y])


@PROPERTY_SETTINGS
@given(matrices())
def test_point_lookup_reads_the_rows(chain):
    """At random pairs, every absent pair among them, and the whole grid:
    built from the non-zeros, from the rows, and from the rows after a
    scan that keeps a sparse matrix's non-zeros."""
    space, rows, _, rng = chain
    n = space.total
    absent = np.argwhere(rows == 0.0)[:50].T
    x = np.concatenate([rng.integers(0, n, 100), absent[0]])
    y = np.concatenate([rng.integers(0, n, 100), absent[1]])
    grid = np.arange(n)
    scanned = TransitionMatrix(space, rows)
    chain_core._sparse_nonzeros(scanned)
    born = support_born(space, rows)
    for P in (born, TransitionMatrix(space, rows), scanned):
        assert np.array_equal(P.at(x, y), rows[x, y])
        assert np.array_equal(P.at(grid[:, None], grid[None, :]), rows)
    assert ("rows" in vars(born)) == (born._nonzeros is None)


@PROPERTY_SETTINGS
@given(matrices(), st.data())
def test_compact_reduction_scatters_to_cube_sum(chain, data):
    """The reduction's compact form, int32 ascending cell indices and
    values, scattered into zeros has the bits of ``cube.sum``; on a dense
    chain both through the cube and through the support."""
    space, rows, pi, _ = chain
    d = space.d
    S = SubsetMask(data.draw(st.integers(1, 2**d - 2)), d)  # neither empty nor full
    drop = tuple(i for i in range(d) if i not in S)
    cube = (pi.probs[:, None] * rows).reshape(space.dims * 2)
    want = cube.sum(axis=drop + tuple(d + i for i in drop)).reshape(-1)
    em = EdgeMeasure(support_born(space, rows), pi)
    compacts = [em._reduce(S)]
    if em.cube is not None:
        em._hold_nonzeros()
        em.cube = None  # the support path
        compacts.append(em._reduce(S))
    for index, values in compacts:
        assert index.dtype == np.int32 and (np.diff(index) > 0).all()
        got = np.zeros(len(want))
        got[index] = values
        assert np.array_equal(got, want)


@st.composite
def tables(draw):
    """A set function on k-tuples of disjoint parts of d elements: small
    integer values, so that some clauses pass and some fail."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(-2, 2), min_size=(k + 1) ** d, max_size=(k + 1) ** d))
    # element e in slot j (label j + 1) or in none (label 0), e least significant
    code = lambda parts: sum(j * (k + 1) ** e for j, part in enumerate(parts, 1) for e in part)
    return d, k, lambda parts: float(values[code(parts)])


def _grown(parts, i, e):
    return parts[:i] + (parts[i].add(e),) + parts[i + 1:]


def scans(d, k, F):
    """Each clause's (slack, witness) pairs in the order the oracle scans;
    the k-submodularity clauses also below a ceiling V that puts element e
    in slot (-1 - e) mod k, so slot order runs against element order, and
    leaves element 2 out of every cap."""
    ground = SubsetMask.full(d)
    caps = tuple(SubsetMask.of(d, (e for e in range(min(d, 2)) if (-1 - e) % k == j))
                 for j in range(k))
    f = lambda S: F((S,))
    subsets = list(ground.subsets())
    tuples = [tuple(SubsetMask.of(d, (e for e in range(d) if labels[e] == j + 1))
                    for j in range(k))
              for labels in itertools.product(range(k + 1), repeat=d)]
    union = lambda parts: SubsetMask.of(d, (e for part in parts for e in part))

    def meet(S, T):
        return tuple(a & b for a, b in zip(S, T))

    def join(S, T):
        unions = [a | b for a, b in zip(S, T)]
        return tuple(SubsetMask.of(d, (e for e in u if sum(e in w for w in unions) == 1))
                     for u in unions)

    def slots(e, capped):
        return [i for i in range(k) if not capped or e in caps[i]]

    def orthant(tuples, capped):
        for T in tuples:
            assigned = [(j, e) for j, part in enumerate(T) for e in part]
            for keep in itertools.product((False, True), repeat=len(assigned)):
                kept = [a for a, flag in zip(assigned, reversed(keep)) if flag]
                S = tuple(SubsetMask.of(d, (e for j, e in kept if j == i)) for i in range(k))
                for e in ground - union(T):
                    for i in slots(e, capped):
                        gain_s = F(_grown(S, i, e)) - F(S)
                        gain_t = F(_grown(T, i, e)) - F(T)
                        yield gain_s - gain_t, (S, T, i, e)

    def pairwise(tuples, capped):
        for S in tuples:
            for e in ground - union(S):
                for i, j in itertools.combinations(slots(e, capped), 2):
                    yield (F(_grown(S, i, e)) - F(S)) + (F(_grown(S, j, e)) - F(S)), (S, e, i, j)

    def lattice(tuples):
        return ((F(S) + F(T) - F(meet(S, T)) - F(join(S, T)), (S, T))
                for S, T in itertools.combinations_with_replacement(tuples, 2))

    # the partitions below V: each subset of its support, in counting order
    support = [e for cap in caps for e in cap]
    below = [tuple(cap & SubsetMask.of(d, (e for t, e in enumerate(sorted(support))
                                            if code >> t & 1)) for cap in caps)
             for code in range(1 << len(support))]
    report = check_k_submodular(F, ground, k)
    capped = check_k_submodular(F, ground, k, ceiling=caps)
    return {
        "submodular": (check_submodular(f, ground), (
            (f(S) + f(T) - f(S | T) - f(S & T), (S, T))
            for S, T in itertools.combinations_with_replacement(subsets, 2))),
        "monotone": (check_monotone(f, ground), (
            (f(S.add(e)) - f(S), (S, e)) for S in subsets for e in ground - S)),
        "lattice": (report.lattice, lattice(tuples)),
        "orthant": (report.orthant, orthant(tuples, False)),
        "pairwise": (report.pairwise_monotone, pairwise(tuples, False)),
        "lattice below V": (capped.lattice, lattice(below)),
        "orthant below V": (capped.orthant, orthant(below, True)),
        "pairwise below V": (capped.pairwise_monotone, pairwise(below, True)),
    }


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(tables())
def test_failing_clause_reports_its_first_violation(table):
    for clause, (report, scan) in scans(*table).items():
        first = next(((slack, w) for slack, w in scan if slack < -SUBMODULARITY_TOL), None)
        if first is None:
            assert report.passed, clause
        else:
            # the margin is the slack recomputed at the first violating witness
            assert not report.passed, clause
            assert (report.margin, report.witness) == first, clause
