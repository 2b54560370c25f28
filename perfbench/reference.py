"""Reference evaluator for the benchmark, written apart from mcselect.

Nothing here imports mcselect.  Chains are kept as the (source, target,
probability) triples of P's non-zero entries; a projection onto a coordinate
set S keys every triple by the mixed-radix code of its endpoints' S-digits
and sums the edge weights pi(x) P(x, y) of equal keys with ``np.bincount``.
The program's objectives and functionals instead reduce dense cubes, so
agreement between the two is evidence about the program, not a tautology.

The module also holds the Curie-Weiss Gibbs law and Glauber chain built
from the Hamiltonian formula, and the paper's reference rows for the d=10
chain (T=10, h=1, ceiling {1,2,3,4} | {5,6,7} | {8,9,10}).
"""

from __future__ import annotations

import math

import numpy as np

TERM_FLOOR = 1e-300

# Paper reference rows for Curie-Weiss d=10, T=10, h=1 (1-based coordinates).
ENTROPY_GREEDY = {
    1: ([1], 0.29085), 2: ([1, 10], 0.57371), 3: ([1, 9, 10], 0.83933),
    4: ([1, 2, 9, 10], 1.09570), 5: ([1, 2, 6, 9, 10], 1.33953),
    6: ([1, 2, 4, 6, 9, 10], 1.57098), 7: ([1, 2, 4, 6, 8, 9, 10], 1.78757),
    8: ([1, 2, 3, 4, 6, 8, 9, 10], 1.98500),
    9: ([1, 2, 3, 4, 6, 7, 8, 9, 10], 2.15793),
    10: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 2.29109),
}
ENTROPY_DISTORTED = {
    1: 0.29085, 2: 0.57371, 3: 0.83933, 4: 1.09570, 5: 1.33953,
    6: 1.57098, 7: 1.78757, 8: 1.98458, 9: 2.15793, 10: 2.29109,
}
# Partition entropy: independent per-m runs reproduce m in {1, 3, 9, 10};
# at the other budgets the reference rows are nested into one another and
# independent runs land strictly higher, so only ">= reference" holds there.
K_ENTROPY = {1: 0.29085, 3: 0.86152, 9: 2.46832, 10: 2.72011}
K_ENTROPY_FLOOR = {2: 0.57067, 4: 1.13316, 5: 1.40732, 6: 1.66816, 7: 1.93090, 8: 2.20505}
DIST2FACT_GREEDY = {
    1: ([6], 0.14837), 2: ([2, 6], 0.24497), 3: ([2, 6, 9], 0.30927),
    4: ([2, 5, 6, 9], 0.34590), 5: ([2, 3, 5, 6, 9], 0.35758),
}
K_DIST2FACT = {
    1: 0.14836, 2: 0.25388, 3: 0.33529, 4: 0.39056, 5: 0.43104,
    6: 0.45978, 7: 0.46887, 8: 0.46887, 9: 0.46887, 10: 0.46887,
}
DIST2INDP_GREEDY = {
    2: 0.00757, 3: 0.02350, 4: 0.04889, 5: 0.08592, 6: 0.13555,
    7: 0.19989, 8: 0.28356, 9: 0.39102, 10: 0.53813,
}
DIST2STAT_BATCH_PAIRS = {
    1: 0.40245, 2: 0.80739, 3: 1.22234, 4: 1.64615, 5: 2.07601,
    6: 2.51771, 7: 2.97051, 8: 3.44085, 9: 3.93568, 10: 4.46975,
}
PAPER_TOL = 1e-4


def mirror(labels: list[int], d: int) -> list[int]:
    """The co-optimal twin of a 1-based subset under i <-> d+1-i."""
    return sorted(d + 1 - c for c in labels)


def cw_energies(d: int, h: float) -> np.ndarray:
    """H(x) = -sum_{i,j} 2^-|i-j| x_i x_j - h sum_i x_i for every state,
    spin i being +1 where bit d-1-i of the state index is set."""
    n = 1 << d
    states = np.arange(n)
    spins = [2.0 * ((states >> (d - 1 - i)) & 1) - 1.0 for i in range(d)]
    energy = np.zeros(n)
    for i in range(d):
        energy -= h * spins[i]
        for j in range(d):
            energy -= 2.0 ** -abs(i - j) * spins[i] * spins[j]
    return energy


def cw_gibbs(d: int, T: float, h: float) -> np.ndarray:
    """The Curie-Weiss Gibbs law exp(-H/T) / Z."""
    energy = cw_energies(d, h)
    weights = np.exp(-(energy - energy.min()) / T)
    return weights / math.fsum(weights)


class Chain:
    """A chain as the triples of P's non-zero entries plus its stationary law."""

    def __init__(self, dims, src, dst, prob, pi):
        self.dims = tuple(int(n) for n in dims)
        self.d = len(self.dims)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.prob = np.asarray(prob, dtype=float)
        self.pi = np.asarray(pi, dtype=float)
        self.weight = self.pi[self.src] * self.prob
        n = math.prod(self.dims)
        # digits[i][x]: digit of coordinate i in state x (coordinate 0 most significant)
        self.digits = []
        rest = np.arange(n)
        for size in reversed(self.dims):
            self.digits.append(rest % size)
            rest = rest // size
        self.digits.reverse()
        self._cache: dict[tuple[int, ...], tuple] = {}

    @classmethod
    def from_dense(cls, dims, rows: np.ndarray, pi: np.ndarray) -> "Chain":
        src, dst = np.nonzero(rows)
        return cls(dims, src, dst, rows[src, dst], pi)

    @classmethod
    def curie_weiss(cls, d: int, T: float, h: float) -> "Chain":
        """Single-flip Glauber dynamics: each of the d flips with probability
        exp(-(H(y) - H(x))_+ / T) / d, the rest of the mass on the diagonal."""
        energy = cw_energies(d, h)
        n = 1 << d
        states = np.arange(n)
        src, dst, prob = [], [], []
        stay = np.ones(n)
        for i in range(d):
            flipped = states ^ (1 << (d - 1 - i))
            p = np.exp(-np.maximum(energy[flipped] - energy, 0.0) / T) / d
            src.append(states)
            dst.append(flipped)
            prob.append(p)
            stay -= p
        src.append(states)
        dst.append(states)
        prob.append(stay)
        return cls((2,) * d, np.concatenate(src), np.concatenate(dst),
                   np.concatenate(prob), cw_gibbs(d, T, h))

    def dense(self) -> np.ndarray:
        n = math.prod(self.dims)
        rows = np.zeros((n, n))
        np.add.at(rows, (self.src, self.dst), self.prob)
        return rows

    def _code(self, coords, states) -> np.ndarray:
        code = np.zeros(len(states), dtype=np.int64)
        for i in coords:
            code = code * self.dims[i] + self.digits[i][states]
        return code

    def project(self, coords) -> tuple:
        """(x_S code, y_S code, edge mass E_S, pi_S) over the distinct
        (x_S, y_S) pairs that carry mass."""
        coords = tuple(sorted(coords))
        hit = self._cache.get(coords)
        if hit is not None:
            return hit
        size = math.prod(self.dims[i] for i in coords)
        kx = self._code(coords, self.src)
        ky = self._code(coords, self.dst)
        pairs, inverse = np.unique(kx * size + ky, return_inverse=True)
        mass = np.bincount(inverse.reshape(-1), weights=self.weight)
        pi_s = np.bincount(kx, weights=self.weight, minlength=size)
        keep = mass > TERM_FLOOR
        out = (pairs[keep] // size, pairs[keep] % size, mass[keep], pi_s)
        self._cache[coords] = out
        return out

    def kernel(self, coords) -> tuple:
        """P_S(x_S, y_S) at the pairs of :meth:`project`, with the pairs."""
        x, y, mass, pi_s = self.project(coords)
        return x, y, mass, mass / pi_s[x]

    def entropy_rate(self, coords) -> float:
        if not len(coords):
            return 0.0
        _, _, mass, p = self.kernel(coords)
        return float(-(mass * np.log(p)).sum())

    def dist_to_stationarity(self, coords) -> float:
        if not len(coords):
            return 0.0
        _, y, mass, p = self.kernel(coords)
        pi_s = self.project(coords)[3]
        return float((mass * (np.log(p) - np.log(pi_s[y]))).sum())

    def _dense_kernel(self, coords) -> np.ndarray:
        size = math.prod(self.dims[i] for i in coords)
        x, y, _, p = self.kernel(coords)
        out = np.zeros((size, size))
        out[x, y] = p
        return out

    def dist_to_independence(self, coords) -> float:
        """D(P_S || tensor_i P_i) weighted by pi_S, term by term."""
        coords = tuple(sorted(coords))
        if len(coords) <= 1:
            return 0.0
        x, y, mass, p = self.kernel(coords)
        log_ref = np.zeros(len(x))
        # decode the S-codes back into per-coordinate digits
        rx, ry = x.copy(), y.copy()
        for i in reversed(coords):
            n = self.dims[i]
            single = self._dense_kernel((i,))
            log_ref += np.log(single[rx % n, ry % n])
            rx, ry = rx // n, ry // n
        return float((mass * (np.log(p) - log_ref)).sum())

    def kl_to_blocks(self, blocks, block_order: bool) -> float:
        """D(P || tensor_B P_B) over a split of all coordinates into blocks.

        Aligned: the reference kernel is read in P's coordinate order.  Block
        order: the tensor's index (blocks concatenated, each ascending) is
        compared with P's index of the same number, without realignment.
        """
        blocks = [tuple(sorted(b)) for b in blocks if len(b)]
        if len(blocks) <= 1:
            return 0.0
        log_ref = np.zeros(len(self.src))
        if block_order:
            layout = [i for b in blocks for i in b]
            src_digits = self._relabel(layout, self.src)
            dst_digits = self._relabel(layout, self.dst)
        offset = 0
        for b in blocks:
            kern = self._dense_kernel(b)
            if block_order:
                kx = self._pack(b, src_digits[offset:offset + len(b)])
                ky = self._pack(b, dst_digits[offset:offset + len(b)])
                offset += len(b)
            else:
                kx, ky = self._code(b, self.src), self._code(b, self.dst)
            with np.errstate(divide="ignore"):
                log_ref += np.log(kern[kx, ky])
        live = self.weight > TERM_FLOOR
        if not np.all(np.isfinite(log_ref[live])):
            return math.inf
        return float((self.weight[live] * (np.log(self.prob[live]) - log_ref[live])).sum())

    def _relabel(self, layout, states) -> list[np.ndarray]:
        """Digits of each state index read in the radix of ``layout``."""
        out = []
        rest = np.asarray(states)
        for i in reversed(layout):
            out.append(rest % self.dims[i])
            rest = rest // self.dims[i]
        out.reverse()
        return out

    def factorized_dense(self, blocks) -> np.ndarray:
        """The dense kernel (tensor_B P_B)(x, y) = prod_B P_B(x_B, y_B),
        indexed in P's coordinate order."""
        states = np.arange(math.prod(self.dims))
        out = np.ones((len(states), len(states)))
        for b in blocks:
            code = self._code(tuple(sorted(b)), states)
            out *= self._dense_kernel(b)[np.ix_(code, code)]
        return out

    def _pack(self, coords, digits) -> np.ndarray:
        code = np.zeros(len(digits[0]), dtype=np.int64)
        for i, dig in zip(coords, digits):
            code = code * self.dims[i] + dig
        return code


def stationary_by_solve(rows: np.ndarray) -> np.ndarray:
    """pi with pi P = pi and sum(pi) = 1 by one dense least-squares solve."""
    n = rows.shape[0]
    system = np.vstack([rows.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return pi


def n_step_row(rows: np.ndarray, start: int, n: int) -> np.ndarray:
    """Law after n steps from ``start``, by n vector-matrix products."""
    v = np.zeros(rows.shape[0])
    v[start] = 1.0
    for _ in range(n):
        v = v @ rows
    return v


def worst_tv(rows: np.ndarray, pi: np.ndarray, n: int) -> float:
    """max_x TV(P^n(x, .), pi) with P^n by n dense products."""
    power = np.eye(rows.shape[0])
    for _ in range(n):
        power = power @ rows
    return float(np.abs(power - pi[None, :]).sum(axis=1).max() / 2.0)


def sampling_bound(q: np.ndarray, samples: int, delta: float = 1e-9) -> float:
    """Half-width within which TV(empirical, pi) stays of TV(q, pi) with
    probability >= 1 - delta when ``samples`` draws are taken from q.

    |TV(emp, pi) - TV(q, pi)| <= TV(emp, q); E TV(emp, q) is at most
    (1/2) sum_x sqrt(q(x)(1 - q(x)) / N), and TV(emp, q) moves by at most
    1/N per draw, so McDiarmid adds sqrt(ln(1/delta) / (2N)).
    """
    mean = 0.5 * float(np.sqrt(q * (1.0 - q) / samples).sum())
    return mean + math.sqrt(math.log(1.0 / delta) / (2.0 * samples))
