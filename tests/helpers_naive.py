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
    ProductStateSpace,
    SubsetMask,
    TransitionMatrix,
    stationary_distribution,
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


def naive_power_iteration(rows, tol=1e-12, max_iters=200_000):
    """The lazy power iteration with a dense ``v @ rows`` at every step:
    (pi, the steps taken, the last residual), pi None if ``max_iters``
    steps fall short of ``tol``."""
    n = len(rows)
    v = np.full(n, 1.0 / n)
    for step in range(1, max_iters + 1):
        w = v @ rows
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
