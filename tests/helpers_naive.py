"""Naive loop-based reference implementations, independent of the library's
vectorized code paths.  Everything here works on plain Python lists/ndarrays
and itertools enumeration, so the tests have a second opinion for every
non-trivial formula."""

from __future__ import annotations

import itertools
import math

import numpy as np

from mcselect.chain_core import (
    Distribution,
    GuardError,
    ProductStateSpace,
    SubsetMask,
    TransitionMatrix,
    ValidationError,
    stationary_distribution,
)
from mcselect.objectives import union_of
from mcselect.oracle import (
    MAX_K_TUPLES,
    MAX_RATIO_UNIVERSE,
    MAX_SUBSET_UNIVERSE,
    RATIO_FLOOR,
    SUBMODULARITY_TOL,
    CheckResult,
    KSubmodularityReport,
    RatioReport,
)


def all_states(dims):
    return list(itertools.product(*[range(n) for n in dims]))


def naive_index(dims, state):
    states = all_states(dims)
    return states.index(tuple(state))


def naive_entropy(probs):
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def naive_entropy_rate(P, pi):
    total = 0.0
    n = len(pi)
    for x in range(n):
        for y in range(n):
            w = pi[x] * P[x][y]
            if w > 0.0:
                total -= w * math.log(P[x][y])
    return total


def naive_kl(M, L, pi):
    """Row-weighted KL with the 0 ln(0/a) = 0 convention; inf on failure."""
    total = 0.0
    n = len(pi)
    for x in range(n):
        for y in range(n):
            w = pi[x] * M[x][y]
            if w <= 0.0:
                continue
            if L[x][y] <= 0.0:
                return math.inf
            total += w * math.log(M[x][y] / L[x][y])
    return total


def naive_weighted_support(mu, rows):
    """(x, y, M(x, y), mu(x) M(x, y)) at the entries with mu(x) M(x, y) >
    1e-300, in row-major order, from a scan of the dense rows."""
    x, y = np.nonzero(rows)
    m = rows[x, y]
    w = mu[x] * m
    keep = w > 1e-300
    return x[keep], y[keep], m[keep], w[keep]


def naive_marginal(pi, dims, keep):
    states = all_states(dims)
    kept_states = all_states([dims[i] for i in keep])
    out = [0.0] * len(kept_states)
    for idx, state in enumerate(states):
        key = tuple(state[i] for i in keep)
        out[kept_states.index(key)] += pi[idx]
    return out


def naive_keep_in(P, pi, dims, keep):
    """Keep-S-in matrix by the defining double sum, all explicit loops."""
    states = all_states(dims)
    kept_states = all_states([dims[i] for i in keep])
    m = len(kept_states)
    numer = [[0.0] * m for _ in range(m)]
    denom = [0.0] * m
    for ix, x in enumerate(states):
        kx = kept_states.index(tuple(x[i] for i in keep))
        denom[kx] += pi[ix]
        for iy, y in enumerate(states):
            ky = kept_states.index(tuple(y[i] for i in keep))
            numer[kx][ky] += pi[ix] * P[ix][iy]
    return [[numer[a][b] / denom[a] for b in range(m)] for a in range(m)]


def naive_tensor(mats, dims_list):
    """Tensor product by explicit state enumeration."""
    dims = tuple(n for dims in dims_list for n in dims)
    states = all_states(dims)
    n = len(states)
    offsets = []
    start = 0
    for block in dims_list:
        offsets.append((start, start + len(block)))
        start += len(block)
    out = [[1.0] * n for _ in range(n)]
    for ix, x in enumerate(states):
        for iy, y in enumerate(states):
            value = 1.0
            for mat, dims_b, (a, b) in zip(mats, dims_list, offsets):
                sub_states = all_states(dims_b)
                value *= mat[sub_states.index(x[a:b])][sub_states.index(y[a:b])]
            out[ix][iy] = value
    return out


def brute_force_best(f, universe, m, constraint="le"):
    """Independent exhaustive maximizer over itertools combinations."""
    best, best_val = None, -math.inf
    sizes = range(m, m + 1) if constraint == "eq" else range(0, m + 1)
    for size in sizes:
        for combo in itertools.combinations(sorted(universe), size):
            val = f(frozenset(combo))
            if val > best_val:
                best, best_val = frozenset(combo), val
    return best, best_val


def parts_below(caps):
    """Every tuple of parts below the pairwise-disjoint ceiling ``caps``, in
    the binary counting order of ``SubsetMask.subsets`` over their union."""
    for S in union_of(caps).subsets():
        yield tuple(cap & S for cap in caps)


def naive_brute_force_opt(fn, domain, m, constraint="le"):
    """The streaming exhaustive search: every subset of a ground set, or
    every tuple of parts below a ceiling, in the binary counting order of
    ``SubsetMask.subsets`` over their union; the first candidate whose value
    beats every earlier one under |S| <= m (or = m) wins."""
    if isinstance(domain, SubsetMask):
        caps, pick = (domain,), lambda parts: parts[0]
    else:
        caps, pick = tuple(domain), lambda parts: parts
    best, best_value = None, -math.inf
    for parts in parts_below(caps):
        size = sum(part.size for part in parts)
        if size > m or (constraint == "eq" and size != m):
            continue
        candidate = pick(parts)
        value = fn(candidate)
        if value > best_value:
            best, best_value = candidate, value
    if best is None:
        raise ValidationError("constraint admits no feasible candidate")
    return best, best_value


def naive_power_iteration(rows, tol=1e-12, max_iters=200_000):
    """The lazy power iteration with a dense ``v @ rows`` at every step:
    (pi, the steps taken, the last residual), pi None if ``max_iters``
    steps fall short of ``tol``."""
    return _lazy_power_iteration(lambda v: v @ rows, len(rows), tol, max_iters)


def row_major_nonzeros(P):
    """P's non-zeros (x, y, P(x, y)) in row-major order: those a matrix
    built from its non-zeros holds, else those of its rows."""
    if P._nonzeros:
        return P._nonzeros
    x, y = np.nonzero(P.rows)
    return x, y, P.rows[x, y]


def naive_bincount_power_iteration(P, tol=1e-12, max_iters=200_000):
    """:func:`naive_power_iteration` with the sparse step
    ``np.bincount(y, v[x] * p)`` over P's row-major non-zeros at every
    step: the bits that the solve's column layout of a sparse P keeps."""
    x, y, p = row_major_nonzeros(P)
    n = P.space.total
    return _lazy_power_iteration(lambda v: np.bincount(y, v[x] * p, minlength=n), n, tol,
                                 max_iters)


def _lazy_power_iteration(product, n, tol, max_iters):
    v = np.full(n, 1.0 / n)
    for step in range(1, max_iters + 1):
        w = product(v)
        residual = float(np.abs(w - v).sum())
        if residual <= tol:
            return w / w.sum(), step, residual
        v = 0.5 * (w + v)
        v /= v.sum()
    return None, max_iters, residual


def random_chain(rng, dims, stationary=True):
    """Random strictly positive chain; pi by power iteration when needed."""
    space = ProductStateSpace(tuple(dims))
    n = space.total
    rows = rng.random((n, n)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    P = TransitionMatrix(space, rows)
    pi = stationary_distribution(P) if stationary else None
    return P, pi


def random_reversible_chain(rng, dims):
    """Random reversible chain with machine-exact stationarity: symmetrize a
    positive edge measure and read off pi as its row sums."""
    space = ProductStateSpace(tuple(dims))
    n = space.total
    edge = rng.random((n, n)) + 0.05
    edge = (edge + edge.T) / 2.0
    edge /= edge.sum()
    pi = edge.sum(axis=1)
    rows = edge / pi[:, None]
    return TransitionMatrix(space, rows), Distribution(space, pi)


def random_product_chain(rng, dims):
    """Tensor of independent per-coordinate reversible chains: stationary
    distribution is of product form by construction."""
    from mcselect.chain_core import tensor, tensor_dist

    factors, factor_pis = [], []
    for n in dims:
        M, mu = random_reversible_chain(rng, (n,))
        factors.append(M)
        factor_pis.append(mu)
    return tensor(factors), tensor_dist(factor_pis)


def mask_of(d, coords):
    return SubsetMask.of(d, coords)


def relabel_within(inner, outer):
    """``inner``, a subset of ``outer``, in the compact indexing of the
    projected space on ``outer`` (ascending original order)."""
    assert inner.issubset(outer)
    positions = {coord: pos for pos, coord in enumerate(outer.indices())}
    return SubsetMask.of(outer.size, (positions[i] for i in inner))


def edge_projection(em, S):
    """E_S as a ``(total_S, total_S)`` array: the edge measure's compact
    cells for S scattered into zeros."""
    total_s = math.prod(em.space.dims[i] for i in S)
    index, values = em._cells(S)
    e_s = np.zeros(total_s * total_s)
    e_s[index] = values
    return e_s.reshape(total_s, total_s)


def stationary_kernel(pi):
    """The rank-one kernel whose every row is pi."""
    return TransitionMatrix(pi.space, np.tile(pi.probs, (pi.space.total, 1)))


# -- the oracle's checks as generator scans over Python objects ---------------
# Each yields (slack, witness) pairs in the order mcselect.oracle scans its
# entries and computes every slack with the same operations, so verdicts,
# margins (to the bit) and witnesses must agree with the library's.


def naive_verdict(slacks, tol):
    """The first (slack, witness) below -tol, as a failure; or else the
    smallest slack with the first witness that reached it."""
    worst, witness = math.inf, None
    for slack, seen in slacks:
        if slack < -tol:
            return CheckResult(False, seen, slack)
        if slack < worst:
            worst, witness = slack, seen
    return CheckResult(True, witness, worst)


def _naive_subset_values(f, ground, cap, what):
    if ground.size > cap:
        raise GuardError(f"{what} over 2^{ground.size} subsets exceeds the guard")
    subsets = list(ground.subsets())
    return subsets, {S.bits: f(S) for S in subsets}


def naive_check_submodular(f, ground, tol=SUBMODULARITY_TOL):
    subsets, values = _naive_subset_values(f, ground, MAX_SUBSET_UNIVERSE, "submodularity check")
    return naive_verdict((
        (values[S.bits] + values[T.bits] - values[S.bits | T.bits] - values[S.bits & T.bits],
         (S, T))
        for S, T in itertools.combinations_with_replacement(subsets, 2)
    ), tol)


def check_supermodular(f, ground, tol=SUBMODULARITY_TOL):
    """f is supermodular when -f is submodular."""
    return naive_check_submodular(lambda S: -f(S), ground, tol)


def naive_check_monotone(f, ground, nondecreasing=True, tol=SUBMODULARITY_TOL):
    subsets, values = _naive_subset_values(f, ground, MAX_SUBSET_UNIVERSE, "monotonicity check")
    sign = 1.0 if nondecreasing else -1.0
    return naive_verdict((
        (sign * (values[S.bits | 1 << e] - values[S.bits]), (S, e))
        for S in subsets for e in ground - S
    ), tol)


def _naive_meet(S, T):
    return tuple(a & b for a, b in zip(S, T))


def _naive_join(S, T):
    """Slot-wise unions, minus every element that two slots claim."""
    unions = [a | b for a, b in zip(S, T)]
    seen = clash = 0
    for u in unions:
        clash |= seen & u.bits
        seen |= u.bits
    return tuple(SubsetMask(u.bits & ~clash, u.d) for u in unions)


def _naive_grow(parts, i, e):
    return parts[:i] + (parts[i].add(e),) + parts[i + 1:]


def _naive_assigned(pairs, k, d):
    groups = [0] * k
    for j, e in pairs:
        groups[j] |= 1 << e
    return tuple(SubsetMask(bits, d) for bits in groups)


def naive_check_k_submodular(F, ground, k, tol=SUBMODULARITY_TOL, ceiling=None):
    """Lattice, orthant and pairwise clauses over dicts keyed by the parts'
    bits; below a ceiling the lattice is the subsets of its support."""
    radix, label = (2, "2") if ceiling is not None else (k + 1, "(k+1)")
    if radix ** ground.size > MAX_K_TUPLES:
        raise GuardError(
            f"k-submodularity check over {label}^{ground.size} tuples exceeds the guard")
    if ceiling is not None:
        tuples = list(parts_below(tuple(cap & ground for cap in ceiling)))
        slot_of = {e: j for j, cap in enumerate(ceiling) for e in cap}
        slots_for = lambda e: (slot_of[e],) if e in slot_of else ()
    else:
        elements = ground.indices()
        tuples = [_naive_assigned(((lab - 1, e) for e, lab in zip(elements, labels) if lab),
                                  k, ground.d)
                  for labels in itertools.product(range(k + 1), repeat=len(elements))]
        slots_for = lambda e: range(k)
    values = {tuple(p.bits for p in parts): F(parts) for parts in tuples}
    val = lambda parts: values[tuple(p.bits for p in parts)]

    lattice = (
        (val(S) + val(T) - val(_naive_meet(S, T)) - val(_naive_join(S, T)), (S, T))
        for S, T in itertools.combinations_with_replacement(tuples, 2)
    )

    def orthant():
        for T in tuples:
            supp_t = union_of(T).bits
            free = [e for e in ground if not supp_t >> e & 1]
            assigned = [(j, e) for j, part in enumerate(T) for e in part]
            for keep_code in range(1 << len(assigned)):
                S = _naive_assigned(
                    (pair for t, pair in enumerate(assigned) if keep_code >> t & 1), k, ground.d)
                for e in free:
                    for i in slots_for(e):
                        gain_s = val(_naive_grow(S, i, e)) - val(S)
                        gain_t = val(_naive_grow(T, i, e)) - val(T)
                        yield gain_s - gain_t, (S, T, i, e)

    def pairwise():
        for S in tuples:
            supp = union_of(S).bits
            base = val(S)
            for e in ground:
                if supp >> e & 1:
                    continue
                gains = {i: val(_naive_grow(S, i, e)) - base for i in slots_for(e)}
                for i, j in itertools.combinations(sorted(gains), 2):
                    yield gains[i] + gains[j], (S, e, i, j)

    return KSubmodularityReport(naive_verdict(lattice, tol), naive_verdict(orthant(), tol),
                                naive_verdict(pairwise(), tol))


def naive_ratios(f, ground, m):
    subsets, values = _naive_subset_values(f, ground, MAX_RATIO_UNIVERSE, "ratio computation")
    if m < 1:
        raise ValidationError("ratios need a cardinality constraint m >= 1")
    pairs = []
    for S in subsets:
        base = values[S.bits]
        rest = ground - S
        singles = {e: values[S.bits | 1 << e] - base for e in rest}
        for T in rest.subsets():
            if not 1 <= T.size <= m:
                continue
            joint = values[S.bits | T.bits] - base
            split = sum(singles[e] for e in T)
            if abs(joint) < RATIO_FLOOR and abs(split) < RATIO_FLOOR:
                continue
            pairs.append((S, T, joint, split))
    eta = naive_verdict(((joint / split if split != 0.0 else math.inf, (S, T))
                         for S, T, joint, split in pairs), math.inf)
    gamma = naive_verdict(((split / joint if joint != 0.0 else math.inf, (S, T))
                           for S, T, joint, split in pairs), math.inf)
    return RatioReport(eta.margin, gamma.margin, eta.witness, gamma.witness)
