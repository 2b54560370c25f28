"""Product state spaces, dense stochastic matrices, and projection machinery
for finite multivariate Markov chains.

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
* On Linux, importing the library holds the C allocator's mmap threshold at
  128 KiB (see :func:`_hold_mmap_threshold`).
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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

# mallopt parameter number (glibc malloc.h) and the value it is held at:
# glibc's own default threshold.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024


def _hold_mmap_threshold() -> None:
    """Keep the C allocator's mmap threshold at 128 KiB.

    glibc raises the threshold to the size of every larger block it frees,
    up to 32 MiB.  Once the first d=10 cube (8 MiB) is freed, later cubes,
    projections and memo arrays all live in the heap, which gives memory
    back only from its top, so the peak resident size depends on the order
    of earlier allocations: 60.6 to 67.3 MiB for the same paper-suite
    sweeps.  A threshold set by ``mallopt`` stays put: every array of
    128 KiB or more is mapped on its own and returned when freed.  Where
    there is no ``mallopt`` (not glibc or musl) nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


_hold_mmap_threshold()


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

    def index_of(self, state: Sequence[int]) -> int:
        if len(state) != self.d:
            raise ValidationError(f"state has {len(state)} digits, expected {self.d}")
        idx = 0
        for digit, n in zip(state, self.dims):
            if not 0 <= digit < n:
                raise ValidationError(f"digit {digit} out of range [0, {n})")
            idx = idx * n + digit
        return idx

    def state_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.total:
            raise ValidationError(f"index {index} out of range [0, {self.total})")
        digits = []
        for n in reversed(self.dims):
            index, r = divmod(index, n)
            digits.append(r)
        return tuple(reversed(digits))

    def subspace(self, mask: "SubsetMask") -> "ProductStateSpace":
        if mask.d != self.d:
            raise ValidationError("mask universe does not match space dimension")
        return ProductStateSpace(tuple(self.dims[i] for i in mask))


@dataclass(frozen=True)
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

    def relabel_within(self, outer: "SubsetMask") -> "SubsetMask":
        """Re-express this subset of ``outer`` in the compact indexing of the
        projected space on ``outer`` (ascending original order)."""
        if not self.issubset(outer):
            raise ValidationError("mask is not contained in the outer mask")
        positions = {coord: pos for pos, coord in enumerate(outer.indices())}
        return SubsetMask.of(outer.size, (positions[i] for i in self))

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
            raise ValidationError(f"probabilities sum to {probs.sum()!r}, not 1")

    @property
    def min_prob(self) -> float:
        return float(self.probs.min())

    def require_full_support(self) -> "Distribution":
        if self.min_prob <= 0.0:
            raise ValidationError("distribution must have full support")
        return self


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense row-stochastic matrix over a product state space.

    Construction only checks the shape; use :func:`validate` for the
    stochasticity check.
    """

    space: ProductStateSpace
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = _frozen(self.rows)
        object.__setattr__(self, "rows", rows)
        n = self.space.total
        if rows.shape != (n, n):
            raise ValidationError(f"matrix shape {rows.shape} does not match space size {n}")

    @classmethod
    def _adopt(cls, space: ProductStateSpace, rows: np.ndarray) -> "TransitionMatrix":
        """Take over ``rows``, a fresh ``(total, total)`` float array that
        nothing else references, without the defensive copy; the array
        becomes read-only."""
        rows.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "rows", rows)
        return out


def validate(P: TransitionMatrix, tol: float = STOCHASTIC_TOL) -> None:
    """Raise :class:`ValidationError` naming the first offending row/entry."""
    rows = P.rows
    # written so that NaN, for which every comparison is False, fails too
    bad = np.argwhere(~((rows >= 0) & (rows <= 1)))
    if bad.size:
        x, y = (int(v) for v in bad[0])
        value = float(rows[x, y])
        problem = "outside [0, 1]" if math.isfinite(value) else "is not finite"
        raise ValidationError(f"entry ({x}, {y}) = {value!r} {problem}")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    worst = int(np.argmax(off))
    if off[worst] > tol:
        raise ValidationError(f"row {worst} sums to {sums[worst]!r} (|1 - sum| = {off[worst]:.3e})")


def _require_irreducible(rows: np.ndarray) -> None:
    """Ergodicity detection: every state must be reachable from state 0 and
    reach state 0 (mutual reachability of all states)."""
    support = rows > 0.0
    n = rows.shape[0]
    for adjacency, direction in ((support, "unreachable from"), (support.T, "cannot reach")):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            state = int(np.argmin(seen))
            raise ValidationError(
                f"chain is not irreducible: state {state} {direction} state 0"
            )


def stationary_residual(P: TransitionMatrix, pi: Distribution) -> float:
    """||pi P - pi||_1, the distance of pi from stationarity under P."""
    return float(np.abs(pi.probs @ P.rows - pi.probs).sum())


def stationary_distribution(
    P: TransitionMatrix,
    tol: float = STATIONARY_SOLVE_TOL,
    max_iters: int = STATIONARY_MAX_ITERS,
) -> Distribution:
    """Stationary distribution by power iteration on the lazy chain (P + I)/2.

    The lazy chain shares the stationary distribution and is aperiodic, so
    power iteration converges for any irreducible P.  The residual is
    measured on the original chain: ||pi P - pi||_1 <= tol.
    """
    if max_iters < 1:
        raise ValidationError(f"power iteration needs max_iters >= 1, got {max_iters}")
    validate(P)
    n = P.space.total
    rows = P.rows
    _require_irreducible(rows)
    v = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        w = v @ rows
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


def _dropped(mask: SubsetMask) -> tuple[int, ...]:
    """The coordinates outside ``mask``: the axes a projection sums out."""
    return tuple(i for i in range(mask.d) if i not in mask)


def marginalize(dist: Distribution, mask: SubsetMask) -> Distribution:
    """Marginal of ``dist`` on the coordinates in ``mask``."""
    space = dist.space
    if mask.d != space.d:
        raise ValidationError("mask universe does not match space dimension")
    if mask.size == space.d:
        return dist
    out = dist.probs.reshape(space.dims).sum(axis=_dropped(mask))
    return Distribution(space.subspace(mask), out.reshape(-1))


def weighted_support(mu: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries (x, y) with mu(x) M(x, y) > TERM_FLOOR, in row-major
    order, with M(x, y) and the weight mu(x) M(x, y) at each."""
    x, y = np.nonzero(M)
    m = M[x, y]
    w = mu[x] * m
    keep = w > TERM_FLOOR
    return x[keep], y[keep], m[keep], w[keep]


class EdgeMeasure:
    """The edge measure pi(x) P(x, y) of a chain, the one object every
    projection of the chain is read from.

    It is built once, as a read-only cube over ``dims + dims`` (source
    digits, then target digits), and pi must have full support.  Each mask
    is reduced from the cube at most once: the reduction's non-zero
    entries are kept and later projections are rebuilt from them, with the
    same bits.  The kept entries never take more bytes than the cube; past
    that, reductions are computed and not kept.  P's support is found
    once, on first use.
    """

    def __init__(self, P: TransitionMatrix, pi: Distribution):
        if pi.space.dims != P.space.dims:
            raise ValidationError("distribution and matrix live on different spaces")
        pi.require_full_support()
        self.P = P
        self.pi = pi
        self.space = P.space
        dims = P.space.dims
        self.cube = (pi.probs[:, None] * P.rows).reshape(dims + dims)
        self.cube.setflags(write=False)
        self._held: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.held_bytes = 0
        self._support: tuple[np.ndarray, ...] | None = None

    def _reduce(self, mask: SubsetMask) -> np.ndarray:
        """The one reduction of the cube: sum out the digits outside ``mask``
        at both endpoints."""
        drop = _dropped(mask)
        return self.cube.sum(axis=drop + tuple(self.space.d + i for i in drop))

    def project(self, mask: SubsetMask) -> np.ndarray:
        """E_S(x_S, y_S) = sum of pi(x) P(x, y) over the hidden digits of both
        endpoints, as a ``(total_S, total_S)`` array with row sums pi_S.
        The full mask is a read-only view of the cube; any other mask gives
        a fresh array that the caller owns."""
        if mask.d != self.space.d:
            raise ValidationError("mask universe does not match space dimension")
        total_s = math.prod(self.space.dims[i] for i in mask)
        if mask.size == self.space.d:
            return self.cube.reshape(total_s, total_s)
        held = self._held.get(mask.bits)
        if held is not None:
            index, values = held
            e_s = np.zeros(total_s * total_s)
            e_s[index] = values
            return e_s.reshape(total_s, total_s)
        e_s = self._reduce(mask).reshape(total_s, total_s)
        # the same indices as np.flatnonzero(e_s), found about 3x faster
        index = np.flatnonzero(e_s != 0.0).astype(np.int32)
        values = e_s.reshape(-1)[index]
        if self.held_bytes + index.nbytes + values.nbytes <= self.cube.nbytes:
            self._held[mask.bits] = (index, values)
            self.held_bytes += index.nbytes + values.nbytes
        return e_s

    def keep_in(self, mask: SubsetMask) -> TransitionMatrix:
        """Keep-``mask``-in matrix ``P_S(x_S, y_S) = E_S(x_S, y_S) / pi_S(x_S)``:
        the hidden coordinates averaged under pi.  The full mask gives P."""
        if mask.size == self.space.d:
            return self.P
        e_s = self.project(mask)
        e_s /= e_s.sum(axis=1)[:, None]
        return TransitionMatrix._adopt(self.space.subspace(mask), e_s)

    def support(self) -> tuple[np.ndarray, ...]:
        """P's support weighted by pi, ``weighted_support(pi, P)``: read-only
        arrays (x, y, P(x, y), pi(x) P(x, y)), found on the first call."""
        if self._support is None:
            self._support = weighted_support(self.pi.probs, self.P.rows)
            for arr in self._support:
                arr.setflags(write=False)
        return self._support


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
