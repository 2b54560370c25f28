import math

import numpy as np
import pytest

from helpers_naive import (
    all_states,
    naive_entropy,
    naive_entropy_rate,
    naive_keep_in,
    naive_kl,
    naive_marginal,
    naive_tensor,
    random_chain,
    random_reversible_chain,
    stationary_kernel,
)
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
from mcselect.functionals import (
    distance_to_factorizability,
    distance_to_factorizability_fixed,
    distance_to_independence,
    distance_to_stationarity,
    entropy_rate,
    kl_rate,
    kl_to_blocks,
    kl_to_stationary,
    shannon_entropy,
)
from mcselect.objectives import Workspace


def dist(dims, probs):
    return Distribution(ProductStateSpace(dims), np.asarray(probs))


def tm(dims, rows):
    return TransitionMatrix(ProductStateSpace(dims), np.asarray(rows))


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy(dist((2,), [1.0, 0.0])) == 0.0

    def test_uniform(self):
        assert abs(shannon_entropy(dist((4,), [0.25] * 4)) - math.log(4)) <= 1e-14

    def test_bernoulli_value(self):
        # -0.3 ln 0.3 - 0.7 ln 0.7
        assert abs(shannon_entropy(dist((2,), [0.3, 0.7])) - 0.6108643020548935) <= 1e-12

    def test_against_naive(self, rng):
        probs = rng.random(12) + 0.01
        probs /= probs.sum()
        got = shannon_entropy(probs)
        assert abs(got - naive_entropy(probs.tolist())) <= 1e-12


class TestEntropyRate:
    def test_deterministic_chain_is_zero(self):
        P = tm((2,), np.eye(2))
        pi = dist((2,), [0.5, 0.5])
        assert entropy_rate(P, pi) == 0.0

    def test_curie_weiss_full_chain(self, cw10):
        P, pi = cw10
        assert abs(entropy_rate(P, pi) - 2.29109) <= 1e-4

    def test_edge_measure_identity(self, cw4):
        P, pi = cw4
        em = pi.probs[:, None] * P.rows
        lhs = shannon_entropy(em.reshape(-1)) - shannon_entropy(pi)
        assert abs(lhs - entropy_rate(P, pi)) <= 1e-10

    def test_rejects_non_stationary_reference(self, rng):
        P, _ = random_chain(rng, (2, 2), stationary=False)
        skew = dist((2, 2), [0.7, 0.1, 0.1, 0.1])
        with pytest.raises(ValidationError, match="stationary"):
            entropy_rate(P, skew)

    def test_rejects_a_non_stochastic_matrix(self):
        """Uniform pi is stationary for this P, whose -0.2 entries the
        support would drop silently (the rate read -0.2188 unchecked)."""
        P = tm((2,), [[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(ValidationError, match=r"entry \(0, 0\) = 1.2 outside \[0, 1\]"):
            entropy_rate(P, dist((2,), [0.5, 0.5]))

    def test_against_naive(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        got = entropy_rate(P, pi)
        want = naive_entropy_rate(P.rows.tolist(), pi.probs.tolist())
        assert abs(got - want) <= 1e-12


class TestKLRate:
    def test_equal_kernels(self, rng):
        P, pi = random_chain(rng, (2, 2))
        out = kl_rate(P, P, pi)
        assert out.finite and abs(out.value) <= 1e-14

    def test_absolute_continuity_failure_witness(self):
        M = tm((2,), [[0.5, 0.5], [0.5, 0.5]])
        L = tm((2,), np.eye(2))
        pi = dist((2,), [0.5, 0.5])
        out = kl_rate(M, L, pi)
        assert not out.finite
        assert out.value == math.inf
        assert out.infinite_support_pair == (0, 1)

    def test_hand_value(self):
        M = tm((2,), [[0.5, 0.5], [0.5, 0.5]])
        L = tm((2,), [[0.9, 0.1], [0.1, 0.9]])
        pi = dist((2,), [0.5, 0.5])
        # 0.5 KL((.5,.5)||(.9,.1)) + 0.5 KL((.5,.5)||(.1,.9)) = 0.5 ln(25/9)
        assert abs(kl_rate(M, L, pi).value - 0.5108256237659907) <= 1e-12

    @pytest.mark.parametrize("bad", ["M", "L"])
    def test_rejects_a_non_stochastic_kernel(self, bad):
        """Unchecked, kl_rate(P, P, pi) read 0.0 for this P."""
        P = tm((2,), [[1.2, -0.2], [-0.2, 1.2]])
        Q = tm((2,), [[0.5, 0.5], [0.5, 0.5]])
        M, L = (P, Q) if bad == "M" else (Q, P)
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            kl_rate(M, L, dist((2,), [0.5, 0.5]))

    def test_non_negative_and_zero_iff_equal(self, rng):
        for _ in range(5):
            M, pi = random_chain(rng, (2, 2))
            L, _ = random_chain(rng, (2, 2))
            assert kl_rate(M, L, pi).value >= 0.0

    def test_against_naive(self, rng):
        M, pi = random_chain(rng, (2, 2))
        L, _ = random_chain(rng, (2, 2))
        got = kl_rate(M, L, pi).value
        want = naive_kl(M.rows.tolist(), L.rows.tolist(), pi.probs.tolist())
        assert abs(got - want) <= 1e-12


class TestDistanceToIndependence:
    def test_singleton_and_empty_are_zero(self, rng):
        P, pi = random_chain(rng, (2, 2, 2))
        assert distance_to_independence(P, pi, SubsetMask.of(3, (1,))) == 0.0
        assert distance_to_independence(P, pi, SubsetMask.empty(3)) == 0.0

    def test_curie_weiss_pair(self, cw10):
        P, pi = cw10
        S = SubsetMask.of(10, (3, 9))  # coordinates {4, 10}
        assert abs(distance_to_independence(P, pi, S) - 0.00757) <= 1e-4

    def test_product_chain_is_independent(self, rng):
        factors = [random_reversible_chain(rng, (2,)) for _ in range(3)]
        P = tensor([f[0] for f in factors])
        pi = tensor_dist([f[1] for f in factors])
        for bits in range(8):
            S = SubsetMask(bits, 3)
            assert distance_to_independence(P, pi, S) <= 1e-12

    def test_entropy_identity(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        naive_h = lambda keep: naive_entropy_rate(
            naive_keep_in(P.rows.tolist(), pi.probs.tolist(), (2, 2, 2), keep),
            naive_marginal(pi.probs.tolist(), (2, 2, 2), keep),
        )
        for bits in range(8):
            S = SubsetMask(bits, 3)
            want = sum(naive_h((i,)) for i in S) - naive_h(S.indices()) if S.size else 0.0
            assert abs(distance_to_independence(P, pi, S) - want) <= 1e-10


class TestDistanceToFactorizability:
    def test_trivial_splits_are_zero(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        assert distance_to_factorizability(P, pi, SubsetMask.empty(2)) == 0.0
        assert distance_to_factorizability(P, pi, SubsetMask.full(2)) == 0.0

    def test_symmetric_in_complement(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        for bits in range(8):
            S = SubsetMask(bits, 3)
            a = distance_to_factorizability(P, pi, S)
            b = distance_to_factorizability(P, pi, S.complement())
            assert abs(a - b) <= 1e-10

    def test_entropy_identity_on_random_chains(self, rng):
        for _ in range(4):
            P, pi = random_reversible_chain(rng, (2, 2, 2))
            dims = (2, 2, 2)
            naive_h = lambda keep: naive_entropy_rate(
                naive_keep_in(P.rows.tolist(), pi.probs.tolist(), dims, keep),
                naive_marginal(pi.probs.tolist(), dims, keep),
            )
            h_full = naive_entropy_rate(P.rows.tolist(), pi.probs.tolist())
            for bits in range(8):
                S = SubsetMask(bits, 3)
                want = naive_h(S.indices()) + naive_h(S.complement().indices()) - h_full
                got = distance_to_factorizability(P, pi, S)
                assert abs(got - want) <= 1e-10


class TestDistanceToStationarity:
    def test_empty_is_zero(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        assert distance_to_stationarity(P, pi, SubsetMask.empty(2)) == 0.0

    def test_curie_weiss_singleton(self, cw10):
        P, pi = cw10
        S = SubsetMask.of(10, (5,))  # coordinate {6}
        assert abs(distance_to_stationarity(P, pi, S) - 0.40245) <= 1e-4

    def test_stationary_kernel_has_zero_distance(self, rng):
        _, pi = random_reversible_chain(rng, (2, 2))
        Pi = stationary_kernel(pi)
        for bits in range(4):
            S = SubsetMask(bits, 2)
            assert distance_to_stationarity(Pi, pi, S) <= 1e-13

    def test_entropy_identity(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        for bits in range(8):
            S = SubsetMask(bits, 3)
            if S.size == 0:
                continue
            pi_S = marginalize(pi, S)
            P_S = EdgeMeasure(P, pi).keep_in(S)
            want = shannon_entropy(pi_S) - entropy_rate(P_S, pi_S, stationarity_tol=1e-6)
            got = distance_to_stationarity(P, pi, S)
            assert abs(got - want) <= 1e-10

    def test_monotone_in_subset(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        values = {bits: distance_to_stationarity(P, pi, SubsetMask(bits, 3)) for bits in range(8)}
        for bits in range(8):
            for e in range(3):
                if bits >> e & 1:
                    continue
                assert values[bits] <= values[bits | 1 << e] + 1e-12


class TestDistanceToFactorizabilityFixed:
    def test_empty_addition_is_zero(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        W = SubsetMask.of(3, (0,))
        assert distance_to_factorizability_fixed(P, pi, W, SubsetMask.empty(3)) == 0.0

    def test_overlap_rejected(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        W = SubsetMask.of(2, (0,))
        with pytest.raises(ValidationError, match="disjoint"):
            distance_to_factorizability_fixed(P, pi, W, W)

    def test_curie_weiss_golden(self, cw10):
        P, pi = cw10
        W = SubsetMask.of(10, (0, 1, 2))  # {1,2,3}
        S = SubsetMask.of(10, (3,))  # {4}
        assert abs(distance_to_factorizability_fixed(P, pi, W, S) - 0.02751) <= 1e-4

    def test_against_naive_kl(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        dims = (2, 2, 2, 2)
        W = SubsetMask.of(4, (0, 3))
        S = SubsetMask.of(4, (2,))
        union = (0, 2, 3)
        P_rows, pi_probs = P.rows.tolist(), pi.probs.tolist()
        P_U = naive_keep_in(P_rows, pi_probs, dims, union)
        pi_U = naive_marginal(pi_probs, dims, union)
        # independent reference: keep-W x keep-S, re-expanded over the union
        # coordinates in ascending order (0, 2, 3) with W = (0, 3), S = (2,)
        P_W = naive_keep_in(P_rows, pi_probs, dims, (0, 3))
        P_S = naive_keep_in(P_rows, pi_probs, dims, (2,))
        import itertools

        union_states = list(itertools.product((0, 1), repeat=3))
        w_states = list(itertools.product((0, 1), repeat=2))
        L = [[0.0] * 8 for _ in range(8)]
        for ix, x in enumerate(union_states):
            for iy, y in enumerate(union_states):
                xw, yw = (x[0], x[2]), (y[0], y[2])  # positions of 0 and 3 in the union
                xs, ys = (x[1],), (y[1],)  # position of 2
                L[ix][iy] = P_W[w_states.index(xw)][w_states.index(yw)] * P_S[xs[0]][ys[0]]
        want = naive_kl(P_U, L, pi_U)
        got = distance_to_factorizability_fixed(P, pi, W, S)
        assert abs(got - want) <= 1e-10

    def test_monotone_non_decreasing(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        W = SubsetMask.of(4, (0,))
        ground = W.complement()
        values = {}
        for bits in range(16):
            S = SubsetMask(bits, 4)
            if not S.issubset(ground):
                continue
            values[bits] = distance_to_factorizability_fixed(P, pi, W, S)
        for bits, val in values.items():
            for e in ground:
                if bits >> e & 1:
                    continue
                assert val <= values[bits | 1 << e] + 1e-12


def naive_blocks_kl(P, pi, blocks, block_order):
    """D(P_U || tensor_b P_b) by enumeration: the tensor product of the
    keep-in blocks is built in block order, then (unless ``block_order``)
    re-indexed by the digits of U in ascending coordinate order."""
    dims = P.space.dims
    rows, probs = P.rows.tolist(), pi.probs.tolist()
    union = sorted(c for block in blocks for c in block)
    P_U = naive_keep_in(rows, probs, dims, union)
    pi_U = naive_marginal(probs, dims, union)
    block_dims = [tuple(dims[c] for c in block) for block in blocks]
    L = naive_tensor([naive_keep_in(rows, probs, dims, block) for block in blocks], block_dims)
    if not block_order:
        concatenated = all_states(tuple(n for bd in block_dims for n in bd))
        order = [union.index(c) for block in blocks for c in block]
        idx = [concatenated.index(tuple(x[p] for p in order))
               for x in all_states([dims[c] for c in union])]
        L = [[L[a][b] for b in idx] for a in idx]
    return naive_kl(P_U, L, pi_U)


class TestKlToBlocks:
    CASES = [
        ((3, 2, 2), ((0,), (1,), (2,))),
        ((3, 2, 2), ((1,), (0, 2))),  # block-order radix (2, 6) against P's (3, 2, 2)
        ((3, 2, 2), ((2,), (0, 1))),
        ((2, 3, 2), ((0, 2), (1,))),  # block-order radix (4, 3) against P's (2, 3, 2)
        ((2, 3, 2), ((1,), (), (0, 2))),  # an empty block contributes the factor 1
        ((2, 3, 2), ((2,), (0,))),  # U = {0, 2} is not the full set
    ]

    @pytest.mark.parametrize("block_order", [False, True])
    @pytest.mark.parametrize("dims, blocks", CASES)
    def test_against_naive(self, rng, dims, blocks, block_order):
        P, pi = random_chain(rng, dims)
        masks = [SubsetMask.of(len(dims), block) for block in blocks]
        got = kl_to_blocks(EdgeMeasure(P, pi), masks, block_order=block_order)
        assert got == pytest.approx(naive_blocks_kl(P, pi, blocks, block_order), abs=1e-12)

    @pytest.mark.parametrize("block_order", [False, True])
    def test_full_union_reads_the_held_support(self, rng, monkeypatch, block_order):
        """On a full union the held support of P gives exactly the value of
        a fresh np.nonzero scan, and P is scanned once per edge measure."""
        partitions = [((0,), (1,), (2,)), ((1,), (0, 2)), ((2,), (0, 1)), ((0, 1, 2),)]
        scan = chain_core.weighted_support
        for _ in range(5):
            P, pi = random_chain(rng, (3, 2, 2))
            blocks = [[SubsetMask.of(3, b) for b in part] for part in partitions]
            with monkeypatch.context() as patch:
                patch.setattr(EdgeMeasure, "support",
                              lambda edge: scan(edge.pi.probs, edge.P))
                fresh = [kl_to_blocks(EdgeMeasure(P, pi), masks, block_order) for masks in blocks]
            scans = []
            with monkeypatch.context() as patch:
                patch.setattr(chain_core, "weighted_support",
                              lambda mu, M: scans.append(1) or scan(mu, M))
                edge = EdgeMeasure(P, pi)
                held = [kl_to_blocks(edge, masks, block_order) for masks in blocks]
            assert held == fresh
            assert len(scans) == 1

    def test_block_order_differs_when_radix_differs(self, rng):
        P, pi = random_chain(rng, (3, 2, 2))
        edge = EdgeMeasure(P, pi)
        blocks = [SubsetMask.of(3, (1,)), SubsetMask.of(3, (0, 2))]
        assert abs(kl_to_blocks(edge, blocks) - kl_to_blocks(edge, blocks, block_order=True)) > 1e-3

    def test_entropy_identity_with_workspace(self, rng):
        P, pi = random_reversible_chain(rng, (2, 3, 2))
        ws = Workspace(P, pi)
        for blocks in (((0,), (2,)), ((0, 1), (2,)), ((1,), (0,), (2,))):
            masks = [SubsetMask.of(3, block) for block in blocks]
            assert abs(kl_to_blocks(ws.edge, masks) - ws.kl_to_blocks(masks)) <= 1e-12

    def test_overlapping_blocks_rejected(self, rng):
        P, pi = random_chain(rng, (2, 2))
        with pytest.raises(ValidationError):
            kl_to_blocks(EdgeMeasure(P, pi), [SubsetMask.of(2, (0,)), SubsetMask.of(2, (0, 1))])

    def test_absolute_continuity_failure_is_infinite(self):
        # coordinate 0 always flips and coordinate 1 never moves, so P is the
        # tensor product of its blocks; read in block order (1, 0), the flip
        # of x's leading digit lands on the zero off-diagonal of P_1
        P = tm((2, 2), [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
        edge = EdgeMeasure(P, dist((2, 2), [0.25] * 4))
        blocks = [SubsetMask.of(2, (0,)), SubsetMask.of(2, (1,))]
        assert kl_to_blocks(edge, blocks) == 0.0
        assert kl_to_blocks(edge, blocks, block_order=True) == 0.0
        assert kl_to_blocks(edge, blocks[::-1], block_order=True) == math.inf

    def test_stationary_kl_matches_dense_kernel(self, rng):
        P, pi = random_chain(rng, (3, 2))
        edge = EdgeMeasure(P, pi)
        for S in SubsetMask.full(2).subsets():
            pi_S = marginalize(pi, S)
            want = kl_rate(edge.keep_in(S), stationary_kernel(pi_S), pi_S).value
            assert kl_to_stationary(edge, S) == want
