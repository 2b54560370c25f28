import math

import numpy as np
import pytest

from helpers_naive import parts_below, random_product_chain, random_reversible_chain
from mcselect.chain_core import SubsetMask, ValidationError
from mcselect.objectives import (
    Partition,
    Workspace,
    build_partition_objective,
    build_subset_objective,
    is_product_form,
    union_of,
)

GENERAL_SUBSET_IDS = ("entropy", "dist2fact", "dist2indp", "dist2indp-complement",
                      "dist2stat", "dist2fact-fixed")
PRODUCT_SUBSET_IDS = ("entropy-product", "dist2stat-product", "dist2stat-complement")
GENERAL_PARTITION_IDS = ("k-entropy", "k-dist2fact", "k-dist2indp", "k-dist2indp-complement")
PRODUCT_PARTITION_IDS = ("k-entropy-product", "k-dist2stat", "k-dist2stat-complement")


def build_any_subset(problem_id, P, pi, ws):
    kwargs = {"workspace": ws}
    if problem_id == "dist2fact-fixed":
        kwargs["W"] = SubsetMask.of(P.space.d, (0,))
    return build_subset_objective(problem_id, P, pi, **kwargs)


def build_any_partition(problem_id, P, pi, ws, caps):
    return build_partition_objective(problem_id, P, pi, caps, workspace=ws)


def default_caps(d):
    half = d // 2
    return (SubsetMask.of(d, range(half)), SubsetMask.of(d, range(half, d)))


def random_parts(rng, caps):
    return tuple(
        SubsetMask.of(cap.d, (e for e in cap if rng.random() < 0.5)) for cap in caps
    )


class TestPartitionType:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            Partition((SubsetMask.of(4, (0, 1)), SubsetMask.of(4, (1, 2))))

    def test_ceiling_containment(self):
        with pytest.raises(ValidationError, match="ceiling"):
            Partition((SubsetMask.of(4, (0, 3)),), (SubsetMask.of(4, (0, 1)),))

    def test_support(self):
        part = Partition((SubsetMask.of(4, (0,)), SubsetMask.of(4, (2, 3))))
        assert union_of(part.parts).indices() == (0, 2, 3)


class TestProductFormDetection:
    def test_product_chain_detected(self, rng):
        _, pi = random_product_chain(rng, (2, 2, 2))
        assert is_product_form(pi)

    def test_generic_chain_rejected(self, rng):
        _, pi = random_reversible_chain(rng, (2, 2))
        assert not is_product_form(pi)


class TestCatalogIdentity:
    """f = g - c (minus the recorded shift) must match the direct functional."""

    def test_subset_entries(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        Pp, pip = random_product_chain(rng, (2, 2, 2))
        ws, wsp = Workspace(P, pi), Workspace(Pp, pip)
        for problem_id in GENERAL_SUBSET_IDS:
            dec = build_any_subset(problem_id, P, pi, ws)
            for _ in range(100):
                S = SubsetMask(int(rng.integers(8)), 3)
                if not S.issubset(dec.ground):
                    continue
                assert abs(dec.f(S) - dec.f_direct(S)) <= 1e-10, problem_id
        for problem_id in PRODUCT_SUBSET_IDS:
            dec = build_any_subset(problem_id, Pp, pip, wsp)
            for bits in range(8):
                S = SubsetMask(bits, 3)
                assert abs(dec.f(S) - dec.f_direct(S)) <= 1e-10, problem_id

    def test_partition_entries(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        Pp, pip = random_product_chain(rng, (2, 2, 2, 2))
        caps = default_caps(4)
        ws, wsp = Workspace(P, pi), Workspace(Pp, pip)
        for problem_id in GENERAL_PARTITION_IDS:
            dec = build_any_partition(problem_id, P, pi, ws, caps)
            for _ in range(100):
                parts = random_parts(rng, caps)
                assert abs(dec.f(parts) - dec.f_direct(parts)) <= 1e-10, problem_id
        for problem_id in PRODUCT_PARTITION_IDS:
            dec = build_any_partition(problem_id, Pp, pip, wsp, caps)
            for _ in range(100):
                parts = random_parts(rng, caps)
                assert abs(dec.f(parts) - dec.f_direct(parts)) <= 1e-10, problem_id

    def test_block_order_identity(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        dec = build_subset_objective("dist2fact", P, pi, block_order=True)
        for bits in range(8):
            S = SubsetMask(bits, 3)
            assert abs(dec.f(S) - dec.f_direct(S)) <= 1e-10

    def test_heterogeneous_cardinalities(self, rng):
        P, pi = random_reversible_chain(rng, (2, 3, 2))
        ws = Workspace(P, pi)
        for problem_id in ("entropy", "dist2fact", "dist2stat"):
            dec = build_any_subset(problem_id, P, pi, ws)
            for bits in range(8):
                S = SubsetMask(bits, 3)
                assert abs(dec.f(S) - dec.f_direct(S)) <= 1e-10, problem_id


class TestAlgorithmPreconditions:
    """Entries consumed by the distorted greedy algorithms must offer
    g(empty) >= 0, and non-negative penalties where the catalog promises
    them (the entropy entries compensate signed weights with the -beta
    constant instead, keeping c itself pointwise non-negative)."""

    NONNEG_WEIGHT_IDS = ("dist2fact", "dist2indp", "dist2stat-product")
    NONNEG_WEIGHT_K_IDS = ("k-dist2indp", "k-dist2stat")

    def test_subset_preconditions(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        Pp, pip = random_product_chain(rng, (2, 2, 2))
        ws, wsp = Workspace(P, pi), Workspace(Pp, pip)
        for problem_id in GENERAL_SUBSET_IDS:
            dec = build_any_subset(problem_id, P, pi, ws)
            assert dec.g(dec.empty_solution()) >= -1e-12, problem_id
            assert dec.c(dec.empty_solution()) >= -1e-12, problem_id
        for problem_id in PRODUCT_SUBSET_IDS:
            dec = build_any_subset(problem_id, Pp, pip, wsp)
            assert dec.g(dec.empty_solution()) >= -1e-12, problem_id
        for problem_id in self.NONNEG_WEIGHT_IDS:
            chain = (Pp, pip, wsp) if problem_id == "dist2stat-product" else (P, pi, ws)
            dec = build_any_subset(problem_id, *chain)
            assert all(w >= -1e-12 for w in dec.c_weights.values()), problem_id

    def test_pointwise_c_nonnegative_for_entropy(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        dec = build_subset_objective("entropy", P, pi)
        for bits in range(8):
            assert dec.c(SubsetMask(bits, 3)) >= -1e-12

    def test_partition_preconditions(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        Pp, pip = random_product_chain(rng, (2, 2, 2, 2))
        caps = default_caps(4)
        ws, wsp = Workspace(P, pi), Workspace(Pp, pip)
        for problem_id in GENERAL_PARTITION_IDS:
            dec = build_any_partition(problem_id, P, pi, ws, caps)
            assert dec.g(dec.empty_solution()) >= -1e-12, problem_id
            assert dec.c(dec.empty_solution()) >= -1e-12, problem_id
        for problem_id in self.NONNEG_WEIGHT_K_IDS:
            chain = (Pp, pip, wsp) if problem_id == "k-dist2stat" else (P, pi, ws)
            dec = build_any_partition(problem_id, *chain, caps)
            assert all(w >= -1e-12 for w in dec.c_weights.values()), problem_id
        dec = build_partition_objective("k-entropy", P, pi, caps, workspace=ws)
        for _ in range(50):
            parts = random_parts(np.random.default_rng(7), caps)
            assert dec.c(parts) >= -1e-12


class TestWorkspaceCaches:
    def test_masks_of_another_universe_are_refused_before_the_caches(self, rng):
        """A cached mask's bits, or the empty mask's, in another universe do
        not answer from the cache."""
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        ws = Workspace(P, pi)
        ws.entropy_rate(SubsetMask.of(3, (0, 1)))
        blocks = (SubsetMask.of(3, (0,)), SubsetMask.of(3, (1, 2)))
        ws.block_order_kl(blocks)
        for query in (
            lambda: ws.entropy_rate(SubsetMask.of(5, (0, 1))),
            lambda: ws.entropy_pi(SubsetMask.of(5, (0, 1))),
            lambda: ws.entropy_rate(SubsetMask.empty(7)),
            lambda: ws.entropy_pi(SubsetMask.empty(7)),
            lambda: ws.block_order_kl(tuple(SubsetMask(b.bits, 5) for b in blocks)),
        ):
            with pytest.raises(ValidationError, match="universe"):
                query()

    @pytest.mark.parametrize("problem_id", ["dist2fact", "k-dist2fact"])
    def test_block_order_kl_is_computed_once_per_parts(self, rng, monkeypatch, problem_id):
        """The cached path reduces each distinct parts tuple once per
        Workspace, across builds; f_direct recomputes it on every call."""
        from mcselect import functionals

        calls = []
        kl = functionals.kl_to_blocks
        monkeypatch.setattr(functionals, "kl_to_blocks",
                            lambda *args, **kwargs: calls.append(args[1]) or kl(*args, **kwargs))
        P, pi = random_reversible_chain(rng, (2, 3, 2))
        ws = Workspace(P, pi)
        if problem_id == "dist2fact":
            build = lambda: build_subset_objective(problem_id, P, pi, block_order=True,
                                                   workspace=ws)
            solutions = list(SubsetMask.full(3).subsets())
        else:
            caps = (SubsetMask.of(3, (0,)), SubsetMask.of(3, (1, 2)))
            build = lambda: build_partition_objective(problem_id, P, pi, caps,
                                                      block_order=True, workspace=ws)
            solutions = list(parts_below(caps))
        decs = [build(), build()]
        for dec in decs:
            for S in solutions:
                dec.f(S)
                dec.f(S)
        keys = [tuple(block.bits for block in blocks) for blocks in calls]
        assert len(keys) == len(set(keys)) == len(solutions)
        calls.clear()
        for S in solutions:
            decs[0].f_direct(S)
            decs[0].f_direct(S)
        assert len(calls) == 2 * len(solutions)


class TestBuildErrors:
    def test_unknown_id(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        with pytest.raises(ValidationError, match="unknown"):
            build_subset_objective("no-such-problem", P, pi)

    def test_product_form_required(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        with pytest.raises(ValidationError, match="product"):
            build_subset_objective("dist2stat-product", P, pi)
        dec = build_subset_objective("dist2stat-product", P, pi, heuristic=True)
        assert dec.notes

    def test_entropy_product_has_no_heuristic_escape(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        with pytest.raises(ValidationError, match="product"):
            build_subset_objective("entropy-product", P, pi, heuristic=True)

    def test_admissibility_bounds(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        with pytest.raises(ValidationError, match="m >= 2"):
            build_subset_objective("dist2indp", P, pi).validate_m(1)
        with pytest.raises(ValidationError, match="m <= 2"):
            build_subset_objective("dist2indp-complement", P, pi).validate_m(3)
        caps = default_caps(4)
        with pytest.raises(ValidationError, match="m >= 3"):
            build_partition_objective("k-dist2indp", P, pi, caps).validate_m(2)
        with pytest.raises(ValidationError, match="m <= 1"):
            build_partition_objective("k-dist2indp-complement", P, pi, caps).validate_m(2)

    @pytest.mark.parametrize("problem_id", ["entropy", "dist2stat", "dist2fact-fixed",
                                            "k-entropy", "k-dist2indp"])
    def test_block_order_needs_a_block_order_row(self, rng, problem_id):
        P, pi = random_reversible_chain(rng, (2, 2))
        with pytest.raises(ValidationError, match=f"{problem_id} has no block-order form"):
            if problem_id.startswith("k-"):
                build_partition_objective(problem_id, P, pi, default_caps(2), block_order=True)
            else:
                build_subset_objective(problem_id, P, pi, W=SubsetMask.of(2, (0,)),
                                       block_order=True)

    def test_overlapping_ceiling_rejected(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        caps = (SubsetMask.of(2, (0, 1)), SubsetMask.of(2, (1,)))
        with pytest.raises(ValidationError, match="overlap"):
            build_partition_objective("k-entropy", P, pi, caps)


class TestMonotonicityOfG:
    def test_subset_g_single_addition_marginals(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        Pp, pip = random_product_chain(rng, (2, 2, 2, 2))
        ws, wsp = Workspace(P, pi), Workspace(Pp, pip)
        for problem_id, chain in [(pid, (P, pi, ws)) for pid in GENERAL_SUBSET_IDS] + [
            (pid, (Pp, pip, wsp)) for pid in PRODUCT_SUBSET_IDS
        ]:
            dec = build_any_subset(problem_id, *chain)
            for bits in range(16):
                S = SubsetMask(bits, 4)
                if not S.issubset(dec.ground):
                    continue
                base = dec.g(S)
                for e in dec.ground - S:
                    assert dec.g(S.add(e)) - base >= -1e-9, problem_id

    def test_partition_g_marginals(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        Pp, pip = random_product_chain(rng, (2, 2, 2, 2))
        caps = default_caps(4)
        ws, wsp = Workspace(P, pi), Workspace(Pp, pip)
        entries = [(pid, (P, pi, ws)) for pid in GENERAL_PARTITION_IDS] + [
            (pid, (Pp, pip, wsp)) for pid in PRODUCT_PARTITION_IDS
        ]
        for problem_id, (cP, cpi, cws) in entries:
            dec = build_any_partition(problem_id, cP, cpi, cws, caps)
            for _ in range(40):
                parts = random_parts(rng, caps)
                base = dec.g(parts)
                support = union_of(parts)
                for j, cap in enumerate(caps):
                    for e in cap - parts[j]:
                        if e in support:
                            continue
                        grown = parts[:j] + (parts[j].add(e),) + parts[j + 1 :]
                        assert dec.g(grown) - base >= -1e-9, problem_id


class TestRawPartitionMaps:
    """Orthant structure of the unconstrained partition maps themselves:
    the tensorized entropy rate and distance to factorizability are orthant
    submodular; the tensorized distance to independence is orthant
    supermodular and pairwise monotone non-decreasing (so its negation is
    orthant submodular but not k-submodular)."""

    def test_orthant_structure_d4_k2(self, rng):
        from mcselect.oracle import check_k_submodular

        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        ws = Workspace(P, pi)
        ground = SubsetMask.full(4)

        def support(parts):
            bits = 0
            for p in parts:
                bits |= p.bits
            return SubsetMask(bits, 4)

        entropy_map = lambda parts: sum(ws.entropy_rate(p) for p in parts)
        fact_map = lambda parts: (
            sum(ws.entropy_rate(p) for p in parts)
            + ws.entropy_rate(support(parts).complement())
            - ws.entropy_rate(ground)
        )
        indp_map = lambda parts: sum(ws.dist_to_independence(p) for p in parts)

        assert check_k_submodular(entropy_map, ground, 2).orthant.passed
        assert check_k_submodular(fact_map, ground, 2).orthant.passed
        # orthant supermodularity of the independence map
        assert check_k_submodular(lambda p: -indp_map(p), ground, 2).orthant.passed
        # pairwise monotone non-decreasing, hence -I is not k-submodular
        assert check_k_submodular(indp_map, ground, 2).pairwise_monotone.passed


class TestCurieWeissGoldens:
    def test_entropy_singleton(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("entropy", P, pi, workspace=cw10_ws)
        S = SubsetMask.of(10, (0,))
        assert abs(dec.f(S) - 0.29085) <= 1e-4
        assert abs((dec.g(S) - dec.c(S)) - dec.f(S)) <= 1e-12

    def test_k_entropy_first_group_singleton(self, cw10, cw10_ws):
        P, pi = cw10
        caps = (SubsetMask.of(10, (0, 1, 2, 3)), SubsetMask.of(10, (4, 5, 6)),
                SubsetMask.of(10, (7, 8, 9)))
        dec = build_partition_objective("k-entropy", P, pi, caps, workspace=cw10_ws)
        parts = (SubsetMask.of(10, (0,)), SubsetMask.empty(10), SubsetMask.empty(10))
        assert abs(dec.f(parts) - 0.29085) <= 1e-4

    def test_default_beta_is_admissibility_bound(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("entropy", P, pi, workspace=cw10_ws)
        assert abs(dec.beta - (-10.0 * math.log(2.0))) <= 1e-12

    def test_empty_solution_objective_zero(self, cw10, cw10_ws):
        P, pi = cw10
        for problem_id in ("entropy", "dist2fact", "dist2indp", "dist2stat"):
            dec = build_subset_objective(problem_id, P, pi, workspace=cw10_ws)
            assert abs(dec.gc(dec.empty_solution())) <= 1e-12
