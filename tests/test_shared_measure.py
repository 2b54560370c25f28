"""The edge measure a chain keeps (``chain_core.edge_measure``): objectives
built on one chain share its projections with the bits of fresh ones, the
measure dies with its chain, an inline-built P keeps working, and a sparse
chain's held forms stay within d * nnz compact cells."""

import gc
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from mcselect import chain_core, cli, functionals, objectives
from mcselect.chain_core import Distribution, EdgeMeasure, SubsetMask, ValidationError, edge_measure
from mcselect.cli import parse_ceiling, parse_coords
from mcselect.models import CurieWeissParams, curie_weiss_chain, load_chain

MIXED_CHAIN = Path(__file__).parent / "golden" / "mixed_3223.json"

CHAINS = {
    "cw8": (lambda: curie_weiss_chain(CurieWeissParams(8, 10.0, 1.0)), "1,2,3|4,5,6|7,8", "1"),
    "mixed_3223": (lambda: load_chain(MIXED_CHAIN), "1,2|3,4", "2"),
}


def problems(d: int, ceiling: str, fixed: str) -> list[tuple]:
    """(problem, block_order, build keywords, algorithm) for every catalog
    entry that runs on a chain whose pi is not of product form."""
    caps = parse_ceiling(ceiling, d)
    out = []
    for problem in objectives.SUBSET_PROBLEMS + objectives.PARTITION_PROBLEMS:
        if problem.endswith("entropy-product"):
            continue  # needs a product-form chain
        partition = problem in objectives.PARTITION_PROBLEMS
        kwargs = {"V": caps} if partition else (
            {"W": parse_coords(fixed, d)} if problem == "dist2fact-fixed" else {})
        algorithm = "gen-distorted" if partition else "distorted"
        out.append((problem, False, kwargs, algorithm))
        if problem in ("dist2fact", "k-dist2fact"):
            out.append((problem, True, kwargs, algorithm))
    return out


def build(P, pi, problem, block_order, kwargs):
    if "V" in kwargs:
        return objectives.build_partition_objective(
            problem, P, pi, kwargs["V"], heuristic=True, block_order=block_order)
    return objectives.build_subset_objective(
        problem, P, pi, heuristic=True, block_order=block_order, W=kwargs.get("W"))


def sweep(dec, algorithm):
    low = dec.min_support or 1
    high = min(dec.max_support or dec.ground.size, dec.ground.size)
    return cli.run_selection(dec, algorithm, list(range(low, high + 1)), oracle=True)


def bits(dec, rows) -> tuple:
    """Everything a sweep reports, floats as hex: the objective's constants,
    then per row the picks, value, trajectory scores and certificate."""
    def solution(x):
        return tuple(p.bits for p in x.parts) if hasattr(x, "parts") else (
            tuple(p.bits for p in x) if isinstance(x, tuple) else x.bits)

    weights = tuple(sorted((str(k), w.hex()) for k, w in dec.c_weights.items()))
    out = [(dec.beta.hex(), dec.shift.hex(), dec.c_const.hex(), weights)]
    for row in rows:
        cert = row.certificate
        out.append((
            row.m, solution(row.chosen), row.value.hex(),
            tuple((s.iteration, s.element, s.slot, s.score.hex(), s.accepted)
                  for s in row.trajectory),
            (solution(cert.opt), cert.g_opt.hex(), cert.c_opt.hex(), cert.lower_bound.hex(),
             cert.achieved.hex(), cert.satisfied),
        ))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_shared_projections_keep_the_bits_of_fresh_ones(name):
    """Every catalog problem built on one chain, built and swept in two
    shuffled orders, reports bit for bit what it reports on a fresh chain
    of its own; with the scalar caches per objective, only the reductions
    are shared."""
    make, ceiling, fixed = CHAINS[name]
    P, pi = make()
    entries = problems(P.space.d, ceiling, fixed)
    fresh = {}
    for entry in entries:
        problem, block_order, kwargs, algorithm = entry
        dec = build(*make(), problem, block_order, kwargs)
        fresh[entry[:2]] = bits(dec, sweep(dec, algorithm))
    shuffler = random.Random(name)
    built_order, swept_order = entries[:], entries[:]
    shuffler.shuffle(built_order)
    shuffler.shuffle(swept_order)
    decs = {e[:2]: build(P, pi, *e[:3]) for e in built_order}
    for problem, block_order, _, algorithm in swept_order:
        dec = decs[problem, block_order]
        assert bits(dec, sweep(dec, algorithm)) == fresh[problem, block_order], problem
    assert edge_measure(P, pi).held_bytes > 0


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_measure_dies_with_its_chain(name):
    """With the cycle collector off, P and its measure are freed by refcount
    once the last reference to P and to its objectives goes, after sweeps,
    the distance helpers and the mixing study."""
    make, ceiling, fixed = CHAINS[name]
    gc.disable()
    try:
        P, pi = make()
        d = P.space.d
        decs = [build(P, pi, *e[:3]) for e in problems(d, ceiling, fixed)[:4]]
        rows = [sweep(dec, "distorted" if dec.kind == "subset" else "gen-distorted")
                for dec in decs]
        S = SubsetMask.of(d, (0, d - 1))
        functionals.distance_to_factorizability(P, pi, S)
        functionals.distance_to_stationarity(P, pi, S)
        cli.mcmc_study((P, pi), n_max=2)
        chain_ref, edge_ref = weakref.ref(P), weakref.ref(edge_measure(P, pi))
        del P
        assert edge_ref() is not None  # the objectives still read it
        del decs
        assert chain_ref() is None and edge_ref() is None
        assert rows and pi.probs.sum() > 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_inline_chain_keeps_working(name):
    """A P built inside the call, which nothing else holds, dies at once;
    its measure and the objectives on it keep working, with the bits of a
    P held by name."""
    make, ceiling, fixed = CHAINS[name]
    P, pi = make()
    full = SubsetMask.full(P.space.d)
    held = EdgeMeasure(P, pi)
    gc.disable()
    try:
        chain_ref = []

        def inline():
            Q, _ = make()
            chain_ref.append(weakref.ref(Q))
            return Q

        edge = edge_measure(inline(), pi)
        assert chain_ref[0]() is None
    finally:
        gc.enable()
    assert np.array_equal(edge.keep_in(full).rows, P.rows)
    for got, want in zip(edge.support(), held.support()):
        assert np.array_equal(got, want)
    for S in full.subsets():
        assert np.array_equal(edge.weights(S), held.weights(S)), S
    for entry in problems(P.space.d, ceiling, fixed)[:3]:
        problem, block_order, kwargs, algorithm = entry
        dec = build(make()[0], pi, problem, block_order, kwargs)
        want = build(P, pi, problem, block_order, kwargs)
        assert bits(dec, sweep(dec, algorithm)) == bits(want, sweep(want, algorithm))


def test_sparse_cap_holds_across_the_catalog(monkeypatch):
    """On a sparse chain the measure P keeps holds at most d * nnz compact
    cells of 12 bytes across every catalog build and sweep.  The cap binds,
    and a mask past it is reduced again: the eviction rule makes 688
    reductions of 255 distinct masks on this sequence (1069 when the cap
    kept the forms first come)."""
    P, pi = curie_weiss_chain(CurieWeissParams(8, 10.0, 1.0))
    d, nnz = P.space.d, len(P._nonzeros[0])
    cap = d * nnz * 12
    edge = edge_measure(P, pi)
    assert edge.cube is None and edge._held_cap == cap
    hold, reduce = EdgeMeasure._hold, EdgeMeasure._reduce
    reduced = []

    def checked_hold(measure, store, key, make):
        held = hold(measure, store, key, make)
        assert measure.held_bytes <= cap
        return held

    monkeypatch.setattr(EdgeMeasure, "_hold", checked_hold)
    monkeypatch.setattr(EdgeMeasure, "_reduce",
                        lambda measure, mask: reduced.append(mask.bits) or reduce(measure, mask))
    for problem, block_order, kwargs, algorithm in problems(d, "1,2,3|4,5,6|7,8", "1"):
        dec = build(P, pi, problem, block_order, kwargs)
        sweep(dec, algorithm)
        assert edge.held_bytes <= cap
    assert edge_measure(P, pi) is edge
    assert len(reduced) > len(set(reduced))
    assert len(reduced) == 688
    held = sum(arr.nbytes for arrays in edge._held.values() for arr in arrays)
    assert edge.held_bytes == held and not edge._runs


def _pair(P) -> SubsetMask:
    """S = {1, 3}, or {1} on a chain with fewer than four coordinates."""
    d = P.space.d
    return SubsetMask.of(d, (1, 3) if d > 3 else (1,))


# everything in src/ that reaches a chain's measure through edge_measure
CONSUMERS = {
    "workspace": objectives.Workspace,
    "entropy": lambda P, pi: objectives.build_subset_objective("entropy", P, pi),
    "mcmc_study": lambda P, pi: cli.mcmc_study((P, pi), n_max=2),
    "distance_to_independence":
        lambda P, pi: functionals.distance_to_independence(P, pi, _pair(P)),
    "distance_to_factorizability":
        lambda P, pi: functionals.distance_to_factorizability(P, pi, _pair(P)),
    "distance_to_stationarity":
        lambda P, pi: functionals.distance_to_stationarity(P, pi, _pair(P)),
    "distance_to_factorizability_fixed":
        lambda P, pi: functionals.distance_to_factorizability_fixed(
            P, pi, SubsetMask.of(P.space.d, (0,)), _pair(P)),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_a_bad_pi_leaves_the_measure_its_chain_keeps(name, consumer):
    """edge_measure checks pi for stationarity before it builds a measure,
    so a consumer that refuses a bad pi neither builds a measure on it nor
    replaces the one P keeps."""
    P, pi = CHAINS[name][0]()
    edge = edge_measure(P, pi)
    edge.weights(SubsetMask.full(P.space.d).remove(0))
    held = edge.held_bytes
    assert held > 0
    bad = Distribution(pi.space, (pi.probs + 1.0 / len(pi.probs)) / 2)
    with pytest.raises(ValidationError, match="not stationary"):
        CONSUMERS[consumer](P, bad)
    assert edge_measure(P, pi) is edge and edge.held_bytes == held


def test_a_non_stochastic_chain_is_refused():
    """A P with an entry outside [0, 1] is refused by every consumer, even
    when pi is stationary for it (this doubly stochastic P has residual 0
    under the uniform law), and P keeps no measure."""
    rows = [[.6, .6, -.2, 0], [.6, -.2, 0, .6], [-.2, 0, .6, .6], [0, .6, .6, -.2]]
    P = chain_core.TransitionMatrix(chain_core.ProductStateSpace((2, 2)), np.array(rows))
    pi = Distribution(P.space, np.full(4, 0.25))
    assert chain_core.stationary_residual(P, pi) == 0.0
    for name, consumer in sorted(CONSUMERS.items()):
        with pytest.raises(ValidationError, match=r"^entry \(0, 2\) = -0\.2 outside \[0, 1\]$"):
            consumer(P, pi)
        assert P._edge is None, name


def test_a_chain_is_checked_once_per_pi(monkeypatch):
    """Every objective, distance helper and study on one (P, pi) reads the
    measure P keeps, which checked stationarity once, when it was built; a
    new pi object with the same values is checked again."""
    P, pi = curie_weiss_chain(CurieWeissParams(6, 10.0, 1.0))
    residual = chain_core.stationary_residual
    calls = []

    def counted(*args):
        calls.append(args)
        return residual(*args)

    for module in (chain_core, functionals, objectives, cli):
        if getattr(module, "stationary_residual", None) is residual:
            monkeypatch.setattr(module, "stationary_residual", counted)
    for problem in ("entropy", "dist2fact", "dist2indp", "dist2stat"):
        objectives.build_subset_objective(problem, P, pi, heuristic=True)
    for consumer in ("distance_to_factorizability", "distance_to_stationarity",
                     "distance_to_factorizability_fixed", "mcmc_study"):
        CONSUMERS[consumer](P, pi)
    assert len(calls) == 1
    edge = edge_measure(P, pi)
    again = Distribution(pi.space, pi.probs.copy())
    objectives.Workspace(P, again)
    assert len(calls) == 2 and edge_measure(P, again) is not edge


def test_dense_chain_keeps_the_cube_cap():
    P, pi = load_chain(MIXED_CHAIN)
    edge = edge_measure(P, pi)
    assert edge.cube is not None and edge._held_cap == edge.cube.nbytes


def test_measure_holds_no_reference_to_its_chain():
    """What P keeps references neither P nor itself through P, so freeing
    P needs no cycle collection; the full mask gives a matrix on P's own
    arrays, with what P has learnt of them."""
    for make, _, _ in CHAINS.values():
        P, pi = make()
        chain_core.validate(P)
        edge = edge_measure(P, pi)
        twin = edge.keep_in(SubsetMask.full(P.space.d))
        assert twin is not P and edge.P is twin and twin._edge is None
        assert all(value is not P for value in vars(edge).values())
        for name, value in vars(P).items():
            if name != "_edge":
                assert vars(twin)[name] is value, name
        assert twin._stochastic
