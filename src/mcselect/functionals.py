"""Shannon entropy, entropy rate, KL divergence rate, and the distance
functionals (to independence, factorizability, and stationarity).

Everything is in nats.  The conventions 0 ln 0 = 0 and 0 ln(0/a) = 0 are
realised by skipping terms whose probability weight falls below 1e-300,
which is numerically equivalent and avoids log underflow.

Every rate here is a sum over the support of the weighted kernel,
mu(x) M(x, y) > 1e-300, taken in row-major order.  The distance
functionals evaluate their defining KL divergences directly on that
support: the reference kernel (a product of keep-in blocks, or the
rank-one stationary kernel) is read entry by entry and never built as a
dense tensor product.  The entropy identities they satisfy for
stationary chains are exercised by the test suite, and the fast
entropy-based evaluation paths live with the objective constructions.

The ``distance_*`` helpers read the measure ``chain_core.edge_measure``
gives, which checks P and pi; :func:`entropy_rate` and :func:`kl_rate`,
which read no kept measure, check every matrix they are given here, and
:func:`entropy_rate` and :func:`keep_in_entropy_rate` check pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain_core import (
    STATIONARITY_TOL,
    TERM_FLOOR,
    Distribution,
    EdgeMeasure,
    SubsetMask,
    TransitionMatrix,
    ValidationError,
    assert_stationary,
    edge_measure,
    marginalize,
    validate,
    weighted_support,
)


@dataclass(frozen=True)
class KLResult:
    """Value of a KL divergence rate, with an absolute-continuity witness.

    ``value`` is ``math.inf`` exactly when ``infinite_support_pair`` is set;
    the pair (x, y) then witnesses M(x, y) > 0 while L(x, y) = 0 on a row
    with positive reference weight.
    """

    value: float
    infinite_support_pair: tuple[int, int] | None = None

    @property
    def finite(self) -> bool:
        return self.infinite_support_pair is None


def _entropy(weights: np.ndarray) -> float:
    w = weights.reshape(-1)
    w = w[w > TERM_FLOOR]
    return float(-(w * np.log(w)).sum())


def shannon_entropy(mu: Distribution | np.ndarray) -> float:
    probs = mu.probs if isinstance(mu, Distribution) else np.asarray(mu, dtype=float)
    return _entropy(probs)


def _support_in(edge: EdgeMeasure, S: SubsetMask, P_S: TransitionMatrix) -> tuple:
    """``weighted_support(pi_S, P_S)`` for the keep-S-in matrix P_S; on the
    full mask, P's support as ``edge`` holds it."""
    if S.size == edge.space.d:
        return edge.support()
    return weighted_support(marginalize(edge.pi, S).probs, P_S)


def _kl(support: tuple, reference: Callable) -> KLResult:
    """sum over the support (x, y, M(x, y), mu(x) M(x, y)) of
    mu(x) M(x, y) ln(M(x, y) / L(x, y)), where ``reference(x, y)`` gives L
    at the support entries."""
    x, y, m, w = support
    L = reference(x, y)
    bad = np.flatnonzero(L <= TERM_FLOOR)
    if bad.size:
        return KLResult(math.inf, (int(x[bad[0]]), int(y[bad[0]])))
    return KLResult(float((w * (np.log(m) - np.log(L))).sum()))


def entropy_rate(
    P: TransitionMatrix, pi: Distribution, stationarity_tol: float = STATIONARITY_TOL
) -> float:
    """Entropy rate -sum_x sum_y pi(x) P(x,y) ln P(x,y) of a stationary chain."""
    validate(P)
    assert_stationary(P, pi, stationarity_tol)
    _, _, p, w = weighted_support(pi.probs, P)
    return float(-(w * np.log(p)).sum())


def keep_in_entropy_rate(edge: EdgeMeasure, S: SubsetMask) -> float:
    """``entropy_rate(P_S, pi_S)`` of the keep-S-in chain; zero for the
    empty S."""
    if S.size == 0:
        return 0.0
    P_S = edge.keep_in(S)
    assert_stationary(P_S, marginalize(edge.pi, S))
    _, _, p, w = _support_in(edge, S, P_S)
    return float(-(w * np.log(p)).sum())


def kl_rate(M: TransitionMatrix, L: TransitionMatrix, pi: Distribution) -> KLResult:
    """KL divergence rate sum_x pi(x) sum_y M(x,y) ln(M(x,y)/L(x,y)).

    ``pi`` need not be stationary for either kernel, but both must pass
    ``validate``.  Returns the +inf flag with a witnessing pair when
    absolute continuity fails.
    """
    if M.space.dims != L.space.dims or M.space.dims != pi.space.dims:
        raise ValidationError("M, L, pi must live on the same space")
    validate(M)
    validate(L)
    return _kl(weighted_support(pi.probs, M), L.at)


def block_codes(dims: Sequence[int], groups: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """For every state of the space with digit radix ``dims``, the index of
    its digits at each group of digit positions, read in the group's radix."""
    states = np.arange(math.prod(dims))
    codes = []
    for group in groups:
        code = np.zeros_like(states)
        for p in group:
            code = code * dims[p] + states // math.prod(dims[p + 1:]) % dims[p]
        codes.append(code)
    return codes


def product_at(
    factors: Sequence[TransitionMatrix], codes: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """The product kernel prod_b F_b(code_b[x], code_b[y]) at the index
    arrays ``x`` and ``y`` (broadcast together), multiplied left to right
    as ``np.kron`` does: with ``codes`` from :func:`block_codes` this reads
    the tensor product of the factors, realigned to the space the codes
    index, without building it."""
    L = np.ones(np.broadcast_shapes(x.shape, y.shape))
    for F, code in zip(factors, codes):
        L = L * F.at(code[x], code[y])
    return L


def kl_to_blocks(
    edge: EdgeMeasure, blocks: Sequence[SubsetMask], block_order: bool = False
) -> float:
    """D(P_U || tensor_b P_b) weighted by pi_U, for disjoint blocks with
    union U: the information lost by running the blocks as independent
    keep-in chains.  It is +inf when absolute continuity fails.

    The reference kernel is L(x, y) = prod_b P_b(x_b, y_b), multiplied left
    to right as ``np.kron`` does.  By default x_b is read from the digits
    of x at b's coordinates in ascending coordinate order, so L is the
    tensor product realigned to U's indexing.  With ``block_order`` the
    digits of x are read in the radix of the blocks laid end to end: the
    tensor product is compared entrywise with P_U, without realignment.
    """
    bits = 0
    for block in blocks:
        if bits & block.bits:
            raise ValidationError("blocks overlap")
        bits |= block.bits
    union = SubsetMask(bits, edge.space.d)
    P_U = edge.keep_in(union)
    factors = [edge.keep_in(block) for block in blocks]
    if block_order:
        codes = block_codes([F.space.total for F in factors], [(b,) for b in range(len(blocks))])
    else:
        position = {coord: p for p, coord in enumerate(union)}
        codes = block_codes(P_U.space.dims, [[position[c] for c in block] for block in blocks])
    return _kl(_support_in(edge, union, P_U),
               lambda x, y: product_at(factors, codes, x, y)).value


def kl_to_stationary(edge: EdgeMeasure, S: SubsetMask) -> float:
    """D(P_S || Pi_S) weighted by pi_S, where every row of Pi_S is pi_S;
    zero for the empty S."""
    if S.size == 0:
        return 0.0
    pi_S = marginalize(edge.pi, S).probs
    return _kl(_support_in(edge, S, edge.keep_in(S)), lambda x, y: pi_S[y]).value


def distance_to_independence(P: TransitionMatrix, pi: Distribution, S: SubsetMask) -> float:
    """KL rate from the tensor product of single-coordinate projections to
    the keep-S-in chain: D(P_S || tensor_{i in S} P_i) weighted by pi_S.

    Zero whenever |S| <= 1.
    """
    return kl_to_blocks(edge_measure(P, pi), [SubsetMask.of(S.d, (i,)) for i in S])


def distance_to_factorizability(P: TransitionMatrix, pi: Distribution, S: SubsetMask) -> float:
    """D(P || P_S tensor P_-S): the information lost by splitting the
    coordinates into the two independent blocks S and its complement."""
    return kl_to_blocks(edge_measure(P, pi), (S, S.complement()))


def distance_to_stationarity(P: TransitionMatrix, pi: Distribution, S: SubsetMask) -> float:
    """D(P_S || Pi_S) where Pi_S has every row equal to pi_S."""
    return kl_to_stationary(edge_measure(P, pi), S)


def distance_to_factorizability_fixed(
    P: TransitionMatrix, pi: Distribution, W: SubsetMask, S: SubsetMask
) -> float:
    """D(P_{W u S} || P_W tensor P_S) for disjoint W and S."""
    if not W.isdisjoint(S):
        raise ValidationError("W and S must be disjoint")
    return kl_to_blocks(edge_measure(P, pi), (W, S))
