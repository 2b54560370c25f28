"""Product state spaces, stochastic matrices, and projection machinery for
finite multivariate Markov chains.

Conventions used throughout the library:

* Coordinates are 0-based (the command line prints 1-based labels).
* State indices use mixed-radix encoding with coordinate 0 most significant
  and the last coordinate varying fastest.  This is exactly numpy C-order
  over the per-coordinate digits, so ``array.reshape(dims)`` lines up with
  the state indexing.
* Projected spaces re-index compactly, keeping the retained coordinates in
  ascending original order.
* All wrapper objects are immutable; their arrays are defensively copied and
  marked read-only, so they can be shared freely.
* A sparse transition matrix built from its non-zeros is stored as those
  alone, any other as its n x n rows (see :class:`TransitionMatrix`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

STOCHASTIC_TOL = 1e-10
POWER_STOCHASTIC_TOL = 1e-9
DISTRIBUTION_TOL = 1e-12
STATIONARY_SOLVE_TOL = 1e-12
STATIONARY_MAX_ITERS = 200_000

# Dense storage cap: total**2 matrix entries.
DENSE_ENTRY_CAP = 1 << 26

# Weights at or below this count as zero (0 ln 0 = 0 without log underflow).
TERM_FLOOR = 1e-300

# A matrix is sparse when its non-zeros are fewer than one in SPARSE_SHARE
# of its n^2 entries: it then keeps them, and its edge measure and
# stationary solve work on them alone.  Measured on 2 cores over every mask
# of dense random chains with 6 to 8 binary coordinates, the cube's
# reduction costs 3 to 12 ns per cube entry (3 to 4 at d = 8) and the
# support reduction 26 to 49 ns per non-zero: they break even at 1/16 to 1/4.
SPARSE_SHARE = 8


class ValidationError(ValueError):
    """A matrix or distribution violates its structural invariants."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


class GuardError(RuntimeError):
    """An exhaustive computation would exceed its hard size guard."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _adopt(cls, space: "ProductStateSpace", name: str, arr: np.ndarray):
    """A ``cls`` on ``space`` that takes over ``arr``, a fresh float array
    that nothing else references, as its field ``name``: read-only, without
    the defensive copy or the checks (for arrays valid by construction,
    such as the rows of a keep-in chain or a marginal of a validated law)."""
    arr.setflags(write=False)
    out = object.__new__(cls)
    object.__setattr__(out, "space", space)
    object.__setattr__(out, name, arr)
    return out


@dataclass(frozen=True)
class ProductStateSpace:
    """Cartesian product of finite coordinate spaces.

    ``dims=()`` is the empty product: a single-state space, used for the
    projection onto no coordinates.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        for i, n in enumerate(self.dims):
            if n < 2:
                raise ValidationError(f"coordinate {i} has cardinality {n} < 2")
        if self.total**2 > DENSE_ENTRY_CAP:
            raise GuardError(
                f"state space of size {self.total} exceeds the dense cap "
                f"({self.total}^2 > 2^26 matrix entries)"
            )

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def subspace(self, mask: "SubsetMask") -> "ProductStateSpace":
        if mask.d != self.d:
            raise ValidationError("mask universe does not match space dimension")
        return ProductStateSpace(tuple(self.dims[i] for i in mask))


@dataclass(frozen=True, slots=True)
class SubsetMask:
    """A subset of the coordinate set {0, ..., d-1} as a bitmask."""

    bits: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValidationError("universe size must be non-negative")
        if self.bits < 0 or self.bits >> self.d:
            raise ValidationError(f"mask {self.bits:#x} has bits outside universe of size {self.d}")

    @classmethod
    def empty(cls, d: int) -> "SubsetMask":
        return cls(0, d)

    @classmethod
    def full(cls, d: int) -> "SubsetMask":
        return cls((1 << d) - 1, d)

    @classmethod
    def of(cls, d: int, indices: Iterable[int]) -> "SubsetMask":
        bits = 0
        for i in indices:
            if not 0 <= i < d:
                raise ValidationError(f"coordinate {i} outside universe of size {d}")
            bits |= 1 << i
        return cls(bits, d)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.d) if self.bits >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def subsets(self) -> Iterator["SubsetMask"]:
        """Every subset of this mask, in binary counting order over its
        members (the first member is the lowest bit)."""
        positions = self.indices()
        for code in range(1 << len(positions)):
            bits = 0
            for t, p in enumerate(positions):
                if code >> t & 1:
                    bits |= 1 << p
            yield SubsetMask(bits, self.d)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.d and bool(self.bits >> i & 1)

    def __len__(self) -> int:
        return self.size

    def _check(self, other: "SubsetMask") -> None:
        if other.d != self.d:
            raise ValidationError("masks live in different universes")

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.bits ^ ((1 << self.d) - 1), self.d)

    def union(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.bits | other.bits, self.d)

    def intersection(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.bits & other.bits, self.d)

    def minus(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.bits & ~other.bits, self.d)

    __or__ = union
    __and__ = intersection
    __sub__ = minus

    def add(self, i: int) -> "SubsetMask":
        if not 0 <= i < self.d:
            raise ValidationError(f"coordinate {i} outside universe of size {self.d}")
        return SubsetMask(self.bits | 1 << i, self.d)

    def remove(self, i: int) -> "SubsetMask":
        return SubsetMask(self.bits & ~(1 << i), self.d)

    def issubset(self, other: "SubsetMask") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: "SubsetMask") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def __repr__(self) -> str:
        return f"SubsetMask({set(self.indices()) or '{}'}, d={self.d})"


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a (possibly projected) product state space."""

    space: ProductStateSpace
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _frozen(self.probs).reshape(-1)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (self.space.total,):
            raise ValidationError(
                f"distribution has {probs.shape[0]} entries for a space of size {self.space.total}"
            )
        finite = np.isfinite(probs)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValidationError(f"probability at index {i} is {float(probs[i])!r}, not finite")
        if np.any(probs < 0):
            raise ValidationError(f"negative probability at index {int(np.argmin(probs))}")
        if abs(float(probs.sum()) - 1.0) > DISTRIBUTION_TOL:
            raise ValidationError(f"probabilities sum to {float(probs.sum())!r}, not 1")

    @property
    def min_prob(self) -> float:
        return float(self.probs.min())

    def require_full_support(self) -> "Distribution":
        if self.min_prob <= 0.0:
            raise ValidationError("distribution must have full support")
        return self


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over a product state space.

    A sparse matrix (fewer than one non-zero in SPARSE_SHARE of its n^2
    entries) holds its non-zeros (x, y, P(x, y)) in row-major order: one
    built from its rows, ``TransitionMatrix(space, rows)``, from the first
    scan of them; one built from its non-zeros, :meth:`_from_support`,
    holds only those and builds ``rows`` on first access.  Validation, the
    irreducibility search, the stationary solve and its residual, point
    lookups (:meth:`at`) and :class:`EdgeMeasure` read held non-zeros, so
    only the consumers that need all n^2 entries build rows:
    :func:`matrix_power` and :func:`worst_case_tv`, :func:`tensor`, the
    sampler of the mixing study and ``models.save_chain``.

    Construction only checks the shape; use :func:`validate` for the
    stochasticity check.  A matrix keeps what its checks learn, so each
    check and scan runs once per matrix, however many callers ask: a pass
    of :func:`validate` at STOCHASTIC_TOL, the irreducibility verdict,
    whether it is sparse, and the edge measure of one pi (:func:`edge_measure`).
    """

    space: ProductStateSpace
    rows: np.ndarray = field(repr=False)
    # set by validate once P has passed it at STOCHASTIC_TOL
    _stochastic: bool = field(default=False, init=False, repr=False, compare=False)
    # set by _require_irreducible once P has passed it
    _irreducible: bool = field(default=False, init=False, repr=False, compare=False)
    # a sparse P's non-zeros, set at construction from them or by _scan;
    # () for a dense P
    _nonzeros: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    # set by edge_measure: the edge measure of the last pi it was given
    _edge: "EdgeMeasure | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = _frozen(self.rows)
        object.__setattr__(self, "rows", rows)
        n = self.space.total
        if rows.shape != (n, n):
            raise ValidationError(f"matrix shape {rows.shape} does not match space size {n}")

    @classmethod
    def _from_support(cls, space: ProductStateSpace, x: np.ndarray, y: np.ndarray,
                      p: np.ndarray) -> "TransitionMatrix":
        """The matrix with the non-zeros ``p`` at ``(x, y)``, in row-major
        order and without repeats.  A sparse matrix takes the arrays over
        (they become read-only) and builds no rows; a dense one is stored
        as the rows they scatter into."""
        n = space.total
        if SPARSE_SHARE * len(p) >= n * n:
            return _adopt(cls, space, "rows", _scatter(n, x, y, p))
        out = object.__new__(cls)
        object.__setattr__(out, "space", space)
        for arr in (x, y, p):
            arr.setflags(write=False)
        object.__setattr__(out, "_nonzeros", (x, y, p))
        return out

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: the rows of a
        # matrix built from its non-zeros, before their first use
        if name != "rows" or not self._nonzeros:
            raise AttributeError(name)
        rows = _scatter(self.space.total, *self._nonzeros)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        return rows

    def at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """P(x, y) at the index arrays ``x`` and ``y`` (broadcast together).
        A matrix that holds its non-zeros looks each pair up among them
        (0 where absent); any other reads its rows."""
        if not self._nonzeros:
            return self.rows[x, y]
        xs, ys, p = self._nonzeros
        n = self.space.total
        flat = xs * n + ys
        key = np.asarray(x) * n + np.asarray(y)
        i = np.minimum(np.searchsorted(flat, key), len(flat) - 1)
        return np.where(flat[i] == key, p[i], 0.0)


def _scatter(n: int, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The n x n array with ``p`` at ``(x, y)`` and zeros elsewhere."""
    rows = np.zeros((n, n))
    rows[x, y] = p
    return rows


def validate(P: TransitionMatrix, tol: float = STOCHASTIC_TOL) -> None:
    """Raise :class:`ValidationError` naming the first offending row/entry.
    P keeps a pass at STOCHASTIC_TOL or tighter, so a matrix that passed
    is not checked again at that tolerance or a looser one.  ``tol`` must
    be a number with 0 <= tol < inf."""
    if not 0.0 <= tol < math.inf:  # written so that NaN fails too
        raise ValidationError(f"stochasticity check needs 0 <= tol < inf, got {tol!r}")
    if P._stochastic and tol >= STOCHASTIC_TOL:
        return
    _check_stochastic(P, tol)
    if tol <= STOCHASTIC_TOL:
        object.__setattr__(P, "_stochastic", True)


def _check_stochastic(P: TransitionMatrix, tol: float) -> None:
    """Raise for the first entry outside [0, 1] in row-major order, then
    for the row whose sum is furthest from 1.  A matrix that holds its
    non-zeros is checked on them, with the bits of ``rows.sum(axis=1)``,
    so both storage forms raise the same message."""
    n = P.space.total
    support = P._nonzeros
    values = support[2] if support else P.rows.reshape(-1)
    # written so that NaN, for which every comparison is False, fails too
    bad = np.flatnonzero(~((values >= 0) & (values <= 1)))
    if bad.size:
        i = int(bad[0])
        x, y = (int(support[0][i]), int(support[1][i])) if support else divmod(i, n)
        value = float(values[i])
        problem = "outside [0, 1]" if math.isfinite(value) else "is not finite"
        raise ValidationError(f"entry ({x}, {y}) = {value!r} {problem}")
    sums = _row_sums(*support, n) if support else P.rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    worst = int(np.argmax(off))
    if off[worst] > tol:
        raise ValidationError(
            f"row {worst} sums to {float(sums[worst])!r} (|1 - sum| = {off[worst]:.3e})")


def _scan(P: TransitionMatrix) -> tuple[np.ndarray, ...]:
    """Scan P for its non-zeros (x, y, P(x, y)) in row-major order.  A
    sparse P keeps them as read-only arrays, a dense P only the verdict."""
    x, y = np.nonzero(P.rows)
    entries = (x, y, P.rows[x, y])
    n = P.space.total
    if SPARSE_SHARE * len(x) < n * n:
        for arr in entries:
            arr.setflags(write=False)
        object.__setattr__(P, "_nonzeros", entries)
    else:
        object.__setattr__(P, "_nonzeros", ())
    return entries


def _sparse_nonzeros(P: TransitionMatrix) -> tuple[np.ndarray, ...] | None:
    """The non-zeros a sparse P keeps (see :func:`_scan`), None for a dense
    P; only the first call on a matrix scans it."""
    if P._nonzeros is None:
        _scan(P)
    return P._nonzeros or None


def _reached(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """The states reached from state 0 along the edges src -> dst."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        step = np.zeros(n, dtype=bool)
        step[dst[frontier[src]]] = True
        frontier = step & ~seen
        seen |= frontier
    return seen


def _require_irreducible(P: TransitionMatrix) -> None:
    """Ergodicity detection: every state must be reachable from state 0 and
    reach state 0 (mutual reachability of all states).  The search walks
    P's support, O(nnz) a frontier step.  P keeps the verdict, so each
    matrix is searched once, however many callers ask."""
    if P._irreducible:
        return
    x, y, _ = P._nonzeros or _scan(P)
    for src, dst, direction in ((x, y, "unreachable from"), (y, x, "cannot reach")):
        seen = _reached(src, dst, P.space.total)
        if not seen.all():
            state = int(np.argmin(seen))
            raise ValidationError(
                f"chain is not irreducible: state {state} {direction} state 0"
            )
    object.__setattr__(P, "_irreducible", True)


def _left_product(v: np.ndarray, P: TransitionMatrix) -> np.ndarray:
    """v P: over a sparse P's non-zeros alone, as
    ``np.bincount(y, v[x] * P(x, y))``, else ``v @ P.rows``.  Whether P is
    sparse is found from its entries, not from whether it was scanned
    before, so a matrix gives the same bits whatever the order of calls."""
    sparse = _sparse_nonzeros(P)
    if sparse is None:
        return v @ P.rows
    x, y, p = sparse
    return np.bincount(y, v[x] * p, minlength=len(v))


def _column_product(P: TransitionMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """v -> v P with the bits of :func:`_left_product`, for the many
    products of one solve.  A sparse P's non-zeros are laid out by column:
    row j of a (K, n) array holds each column's j-th source in ascending
    row order and its weight, zero-padded up to K, the largest in-degree.
    A product gathers v at the sources, multiplies by the weights and adds
    the K rows in order, which adds each column's terms in the order of
    ``np.bincount``'s row-major input, from the same start (the first
    term is 0.0 + t, which is t), and then +0.0 for the padding; every
    term is >= 0, so the bits are the same.  A dense P, or one whose
    padding would more than double its entries, keeps :func:`_left_product`.
    The layout is the returned function's alone: nothing is kept on P."""
    sparse = _sparse_nonzeros(P)
    if sparse is None:
        return lambda v: _left_product(v, P)
    x, y, p = sparse
    n = P.space.total
    indegree = np.bincount(y, minlength=n)
    k = int(indegree.max())
    if k * n > 2 * len(p):
        return lambda v: _left_product(v, P)
    # the non-zeros by column, each column's in row order, and where each
    # column's run starts among them
    order = np.argsort(y, kind="stable")
    start = np.cumsum(indegree) - indegree
    sources = np.zeros((k, n), dtype=np.intp)
    weights = np.zeros((k, n))
    for j in range(k):
        columns = np.flatnonzero(indegree > j)
        entry = order[start[columns] + j]
        sources[j, columns] = x[entry]
        weights[j, columns] = p[entry]
    terms = np.empty((k, n))

    def product(v: np.ndarray) -> np.ndarray:
        np.take(v, sources, out=terms, mode="clip")
        np.multiply(terms, weights, out=terms)
        out = terms[0].copy()
        for row in terms[1:]:
            out += row
        return out

    return product


def stationary_residual(P: TransitionMatrix, pi: Distribution) -> float:
    """||pi P - pi||_1, the distance of pi from stationarity under P."""
    if pi.space.dims != P.space.dims:
        raise ValidationError(
            f"pi lives on dims {pi.space.dims}, P on dims {P.space.dims}")
    return float(np.abs(_left_product(pi.probs, P) - pi.probs).sum())


def stationary_distribution(
    P: TransitionMatrix,
    tol: float = STATIONARY_SOLVE_TOL,
    max_iters: int = STATIONARY_MAX_ITERS,
) -> Distribution:
    """Stationary distribution by power iteration on the lazy chain (P + I)/2.

    The lazy chain shares the stationary distribution and is aperiodic, so
    power iteration converges for any irreducible P.  The residual is
    measured on the original chain: ||pi P - pi||_1 <= tol, with
    0 < tol < inf, within an integer ``max_iters`` >= 1 steps.  A dense P
    is multiplied as ``v @ P.rows``.  A sparse P's non-zeros are laid out
    by column once per call, and each step reads them so, with the bits of
    ``np.bincount(y, v[x] * P(x, y))`` (:func:`_column_product`).  On
    Curie-Weiss d=12 (509 steps) that solve takes about 0.055 s, against
    0.10-0.11 s with a ``np.bincount`` every step (one thread of a shared
    2-core host, median of 5).
    """
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"power iteration needs 0 < tol < inf, got {tol!r}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)):
        raise ValidationError(f"power iteration needs an integer max_iters, got {max_iters!r}")
    if max_iters < 1:
        raise ValidationError(f"power iteration needs max_iters >= 1, got {max_iters}")
    validate(P)
    n = P.space.total
    _require_irreducible(P)
    product = _column_product(P)
    v = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        w = product(v)
        residual = float(np.abs(w - v).sum())
        if residual <= tol:
            v = w / w.sum()
            break
        v = 0.5 * (w + v)
        v /= v.sum()
    else:
        raise ConvergenceError(
            f"power iteration did not reach ||pi P - pi||_1 <= {tol} after "
            f"{max_iters} iterations (residual {residual:.3e})"
        )
    if v.min() <= 0.0:
        raise ValidationError(
            f"stationary distribution has zero mass at state {int(np.argmin(v))}; "
            "full support is required"
        )
    return Distribution(P.space, v)


def marginalize(dist: Distribution, mask: SubsetMask) -> Distribution:
    """Marginal of ``dist`` on the coordinates in ``mask``, adopted without
    the checks ``dist`` has passed."""
    space = dist.space
    if mask.d != space.d:
        raise ValidationError("mask universe does not match space dimension")
    if mask.size == space.d:
        return dist
    out = dist.probs.reshape(space.dims).sum(axis=tuple(i for i in range(mask.d) if i not in mask))
    return _adopt(Distribution, space.subspace(mask), "probs", out.reshape(-1))


def weighted_support(mu: np.ndarray, M: TransitionMatrix) -> tuple[np.ndarray, ...]:
    """The entries (x, y) with mu(x) M(x, y) > TERM_FLOOR, in row-major
    order, with M(x, y) and the weight mu(x) M(x, y) at each.  A matrix
    that holds its non-zeros is read from them, any other is scanned."""
    x, y, m = M._nonzeros or _scan(M)
    w = mu[x] * m
    keep = w > TERM_FLOOR
    return (x, y, m, w) if keep.all() else tuple(arr[keep] for arr in (x, y, m, w))


# the most floats _run_sums lays out at a time (one run, if a run is longer)
RUN_BLOCK = 1 << 16


def _sum_rows(block: np.ndarray) -> np.ndarray:
    """numpy's sum of each row of the C-ordered 2-d ``block``; numpy adds a
    row of fewer than 8 entries in order, and a loop a column does that
    faster."""
    if block.shape[1] >= 8:
        return block.sum(axis=1)
    return reduce(np.add, block.T)


def _run_sums(start: np.ndarray, pos: np.ndarray, w: np.ndarray, run: int) -> np.ndarray:
    """For each run of ``run`` entries that are zero except for ``w`` at the
    ascending offsets ``pos`` (``start`` marks each run's first value),
    numpy's sum of the run.  A run with one value is that value; the others
    are written as rows into a reused zero block and summed by
    :func:`_sum_rows`, RUN_BLOCK floats or one run at a time."""
    first = np.flatnonzero(start)
    sums = w[first]
    counts = np.diff(first, append=len(w))
    many = counts > 1
    runs = np.flatnonzero(many)
    if not len(runs):
        return sums
    at = np.repeat(many, counts)
    # each value's place in the rows of all runs with several values
    place = np.repeat(np.arange(0, len(runs) * run, run), counts[runs]) + pos[at]
    w = w[at]
    rows = min(len(runs), max(1, RUN_BLOCK // run))
    block = np.zeros(rows * run)
    edges = np.searchsorted(place, np.arange(0, len(runs) * run, rows * run))
    for lo, i, j in zip(range(0, len(runs), rows), edges, np.append(edges[1:], len(w))):
        k = min(rows, len(runs) - lo)
        here = place[i:j] - lo * run
        block[here] = w[i:j]
        sums[runs[lo:lo + k]] = _sum_rows(block[:k * run].reshape(k, run))
        block[here] = 0.0
    return sums


def _row_sums(x: np.ndarray, y: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """``rows.sum(axis=1)``, bit for bit, of the n x n matrix with the
    non-zeros ``p`` at ``(x, y)`` in row-major order; 0 for a row without
    any."""
    sums = np.zeros(n)
    if len(p):
        start = np.ones(len(x), dtype=bool)
        start[1:] = x[1:] != x[:-1]
        sums[x[start]] = _run_sums(start, y, p, n)
    return sums


def _compact(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A flat array's non-zero cells: int32 ascending indices and values."""
    # the same indices as np.flatnonzero(e), found about 3x faster
    index = np.flatnonzero(e != 0.0).astype(np.int32)
    return index, e[index]


class EdgeMeasure:
    """The edge measure pi(x) P(x, y) of a chain, the one object every
    projection of the chain is read from; pi must have full support.

    Its storage is picked once, from P's density.  A dense P (at least one
    non-zero in SPARSE_SHARE of its n^2 entries) is held as a read-only
    ``cube`` over ``dims + dims`` (source digits, then target digits), and
    its support is found on first use.  A sparse P is held as the non-zeros
    P keeps, and no n x n array is built.  Both reduce in one order, that
    of ``cube.sum`` over the dropped digits, so both give its bits.  Pass 1
    is numpy's sum of each run of trailing dropped target digits (past the
    last kept coordinate): :func:`_sum_rows` over the cube's rows, or
    :func:`_run_sums` over the runs the non-zeros touch.  Pass 2 is one
    ``np.bincount`` over the runs' cells (kept source digits, then kept
    target digits), which adds each cell's runs in input order: row-major
    in its other dropped digits.  The empty mask keeps nothing to reduce:
    E_empty is the point mass 1.

    A reduction gives E_S in compact form: its non-zero cells as int32
    ascending flat indices and their values (a sparse chain may also keep
    a cell whose entries sum to 0).  Entropies read the values alone;
    :meth:`keep_in` scatters them into an array.  The cube's pass 1, the
    run sums, depends only on the last kept coordinate, so it is computed
    at most once per coordinate, not once per mask, while it is held.

    The compact forms and the run sums are held under one cap on
    ``held_bytes``.  On the cube the cap is the cube's own size.  On a
    sparse chain it is d * nnz compact cells at 12 bytes each (int32 index
    and float64 value): E_S never has more cells than P has non-zeros, so
    the cap can hold the d one-short projections that every catalog build
    reads, and it bounds a measure that lives long (7.3 MiB on Curie-Weiss
    d=12).  A fresh set that fits is held.  One that does not fit displaces
    the largest held set that has not been read since it was stored, if
    that set is larger than itself (dropping one such set always makes
    room); otherwise it is returned and not held.  A set read again is
    kept.  So many small sets, each about as costly to compute again,
    stand where one large set stood (size-aware caching, as in
    GreedyDual-Size: Cao and Irani, USITS 1997), and what a later build
    reads again stays.  A round of the benchmark's cw12-certify workload
    (Curie-Weiss d=12, then dense chains on d=6..8) reduces 845 times for
    478 distinct masks, against 1331 when the sets were held first come.
    A heap by size, whose entries for sets read since are dropped when
    they come up, keeps each miss at O(log held).

    ``EdgeMeasure(P, pi)`` builds an independent measure that holds P.
    :func:`edge_measure` gives the one that P keeps, which every objective,
    study and distance built on the chain shares.
    """

    def __init__(self, P: TransitionMatrix, pi: Distribution):
        if pi.space.dims != P.space.dims:
            raise ValidationError("distribution and matrix live on different spaces")
        pi.require_full_support()
        self.P = P
        self.pi = pi
        self.space = P.space
        dims = P.space.dims
        n = P.space.total
        self._held: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._runs: dict[int, tuple[np.ndarray]] = {}  # pass 1, by last kept coordinate
        self.held_bytes = 0
        # (whether a run sum, key) of each held set not read since it was
        # stored, and a heap of held sets, largest first, then first stored
        self._unread: set[tuple[bool, int]] = set()
        self._by_size: list[tuple[int, int, bool, int]] = []
        self._stored = itertools.count()
        self._support: tuple[np.ndarray, ...] | None = None
        self.cube: np.ndarray | None = None
        states = np.arange(n)  # each state's digits, as narrow codes
        self._digits = [(states // math.prod(dims[i + 1:]) % radix).astype(
            np.min_scalar_type(radix - 1)) for i, radix in enumerate(dims)]
        if _sparse_nonzeros(P) is not None:
            self._hold_nonzeros()
            self._held_cap = P.space.d * len(self._nonzeros[0]) * 12
        else:
            self.cube = (pi.probs[:, None] * P.rows).reshape(dims + dims)
            self.cube.setflags(write=False)
            self._held_cap = self.cube.nbytes

    def _hold_nonzeros(self) -> None:
        """Hold P's non-zeros weighted by pi."""
        x, y, p = self.P._nonzeros or _scan(self.P)
        self._nonzeros = (x, y, p, self.pi.probs[x] * p)
        for arr in self._nonzeros:
            arr.setflags(write=False)

    def _reduce(self, mask: SubsetMask) -> tuple[np.ndarray, np.ndarray]:
        """The one reduction of the edge measure: sum out the digits outside
        ``mask`` at both endpoints, in compact form and in the order the
        class states.  Each cell adds its runs into a dense array when E_S
        has no more cells than there are runs (always so on the cube), else
        over the distinct cells only.  The empty mask gives the point mass."""
        if not mask.bits:
            return np.zeros(1, dtype=np.int32), np.ones(1)
        dims, n = self.space.dims, self.space.total
        kept = mask.indices()
        # int32 suffices: cell codes stay below total_S^2 <= n^2 <= DENSE_ENTRY_CAP
        code = np.zeros(n, dtype=np.int32)
        for i in kept:
            code = code * dims[i] + self._digits[i]
        total_s = math.prod(dims[i] for i in kept)
        run = math.prod(dims[kept[-1] + 1:])
        if self.cube is not None:
            if run == 1:  # runs of one entry: the cube itself
                w = self.cube.reshape(-1)
            else:
                (w,) = self._hold(self._runs, kept[-1],
                                  lambda: (_sum_rows(self.cube.reshape(-1, run)),))
            cell = (code[:, None] * total_s + code[::run]).reshape(-1)  # source, target run
        else:
            x, y, _, w = self._nonzeros
            cell = code[x] * total_s + code[y]
            if run > 1:
                pos = x * n + y  # each entry's flat index, then its offset in its run
                start = np.ones(len(pos), dtype=bool)
                start[1:] = pos[1:] // run != pos[:-1] // run
                pos %= run
                w = _run_sums(start, pos, w, run)
                cell = cell[start]
        if total_s * total_s <= len(cell):
            return _compact(np.bincount(cell, w, minlength=total_s * total_s))
        cells, inverse = np.unique(cell, return_inverse=True)
        return cells, np.bincount(inverse, w)

    def _hold(self, store: dict, key: int, make) -> tuple[np.ndarray, ...]:
        """``store[key]``, the arrays ``make()`` gives on a miss, kept
        read-only under the cap by the rule the class states."""
        name = (store is self._runs, key)
        held = store.get(key)
        if held is not None:
            self._unread.discard(name)
            return held
        held = make()
        nbytes = sum(arr.nbytes for arr in held)
        if self.held_bytes + nbytes > self._held_cap and not self._evict_larger(nbytes):
            return held
        for arr in held:
            arr.setflags(write=False)
        store[key] = held
        self.held_bytes += nbytes
        self._unread.add(name)
        heapq.heappush(self._by_size, (-nbytes, next(self._stored)) + name)
        return held

    def _evict_larger(self, nbytes: int) -> bool:
        """Drop the largest held set not read since it was stored, if it
        is larger than ``nbytes``; whether one was dropped.  The held bytes
        are within the cap, so dropping one such set makes room for a set
        of ``nbytes``.  Heap entries of sets read since are dropped on the
        way, each once."""
        heap = self._by_size
        while heap and heap[0][2:] not in self._unread:
            heapq.heappop(heap)
        if not heap or -heap[0][0] <= nbytes:
            return False
        negative_size, _, runs, key = heapq.heappop(heap)
        self._unread.remove((runs, key))
        del (self._runs if runs else self._held)[key]
        self.held_bytes += negative_size
        return True

    def _cells(self, mask: SubsetMask) -> tuple[np.ndarray, np.ndarray]:
        """E_S in compact form for a mask short of the full one, reduced
        when it is not held."""
        return self._hold(self._held, mask.bits, lambda: self._reduce(mask))

    def weights(self, mask: SubsetMask) -> np.ndarray:
        """E_S's entries as an entropy reads them, in row-major order: all
        of them on a dense chain's full mask, otherwise its non-zero cells
        only.  Entries at or below TERM_FLOOR count as zero in all forms,
        so each gives the entropy of the full array E_S, bit for bit."""
        if mask.d != self.space.d:
            raise ValidationError("mask universe does not match space dimension")
        if mask.size < self.space.d:
            return self._cells(mask)[1]
        return self._nonzeros[3] if self.cube is None else self.cube.reshape(-1)

    def keep_in(self, mask: SubsetMask) -> TransitionMatrix:
        """Keep-``mask``-in matrix ``P_S(x_S, y_S) = E_S(x_S, y_S) / pi_S(x_S)``:
        the hidden coordinates averaged under pi, with E_S's cells scattered
        into a fresh ``(total_S, total_S)`` array.  The full mask gives P
        (the twin of P for the measure P keeps, see :func:`edge_measure`)."""
        space = self.space.subspace(mask)  # checks the mask's universe
        if mask.size == self.space.d:
            return self.P
        index, values = self._cells(mask)
        e_s = np.zeros(space.total * space.total)
        e_s[index] = values
        e_s = e_s.reshape(space.total, space.total)
        e_s /= e_s.sum(axis=1)[:, None]
        return _adopt(TransitionMatrix, space, "rows", e_s)

    def support(self) -> tuple[np.ndarray, ...]:
        """P's support weighted by pi, ``weighted_support(pi, P)``: read-only
        arrays (x, y, P(x, y), pi(x) P(x, y)), found on the first call.  A
        sparse chain none of whose weights is at or below TERM_FLOOR gives
        the non-zeros the measure holds, which are those arrays."""
        if self._support is None:
            if self.cube is None and (self._nonzeros[3] > TERM_FLOOR).all():
                self._support = self._nonzeros
            else:
                self._support = weighted_support(self.pi.probs, self.P)
                for arr in self._support:
                    arr.setflags(write=False)
        return self._support


def _twin(P: TransitionMatrix) -> TransitionMatrix:
    """A matrix on P's own arrays, with what P has learnt of them, that does
    not reference P (nor the edge measure P keeps)."""
    _sparse_nonzeros(P)  # the verdict, learnt once for both
    out = object.__new__(TransitionMatrix)
    vars(out).update(vars(P), _edge=None)
    return out


def edge_measure(P: TransitionMatrix, pi: Distribution) -> EdgeMeasure:
    """The edge measure of P under ``pi`` that P keeps, so that every
    objective, study and distance built on one chain reads one set of
    projections.  It is built on the first call and reused while the same
    pi object is passed; another pi builds a new one, which replaces it.

    P keeps the measure and the measure does not reference P: it holds a
    twin of P on the same arrays (see :func:`_twin`), which its full mask
    gives in place of P.  So there is no cycle, and the measure is freed
    with P, by refcount, once no objective holds it either."""
    edge = P._edge
    if edge is None or edge.pi is not pi:
        edge = EdgeMeasure(_twin(P), pi)
        object.__setattr__(P, "_edge", edge)
    return edge


def tensor(matrices: Sequence[TransitionMatrix]) -> TransitionMatrix:
    """Tensor product of transition matrices; factor coordinates concatenate."""
    dims: tuple[int, ...] = ()
    rows = np.ones((1, 1))
    for M in matrices:
        rows = np.kron(rows, M.rows)
        dims = dims + M.space.dims
    return TransitionMatrix(ProductStateSpace(dims), rows)


def tensor_dist(dists: Sequence[Distribution]) -> Distribution:
    dims: tuple[int, ...] = ()
    probs = np.ones(1)
    for mu in dists:
        probs = np.kron(probs, mu.probs)
        dims = dims + mu.space.dims
    return Distribution(ProductStateSpace(dims), probs)


def matrix_power(P: TransitionMatrix, n: int) -> TransitionMatrix:
    """P**n by repeated squaring; asserts stochasticity within 1e-9 after."""
    if n < 0:
        raise ValidationError("matrix power requires n >= 0")
    size = P.space.total
    result = np.eye(size)
    base = P.rows.copy()
    k = n
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    out = TransitionMatrix(P.space, result)
    validate(out, tol=POWER_STOCHASTIC_TOL)
    return out


def worst_case_tv(P: TransitionMatrix, pi: Distribution, n: int) -> float:
    """max over rows x of the total variation distance between P^n(x, .)
    and pi."""
    if pi.space.total != P.space.total:
        raise ValidationError("reference size does not match the state space")
    return float(np.abs(matrix_power(P, n).rows - pi.probs[None, :]).sum(axis=1).max() / 2.0)
