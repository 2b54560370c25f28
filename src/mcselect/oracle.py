"""Brute-force verifiers: exhaustive submodularity, monotonicity and
k-submodularity checks, and the supermodularity/submodularity ratios that
enter the batch-greedy bound.

All guards are hard errors rather than silent truncation: a sampled check is
not an oracle.  A check evaluates its function once per candidate, through an
:class:`OptimumTable` but for the (k+1)^|U| labellings (a non-finite value is
an error naming its candidate), and runs each clause through :func:`_scan` as
numpy arrays, each slack in the operation order of its inequality as written,
so margins have the bits of the naive scans in ``tests/helpers_naive.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain_core import GuardError, SubsetMask, ValidationError
from .objectives import Parts
from .optimizers import OptimumTable

SUBMODULARITY_TOL = 1e-9
RATIO_FLOOR = 1e-12
MAX_SUBSET_UNIVERSE = 12
MAX_K_TUPLES = 2_000_000
MAX_RATIO_UNIVERSE = 8
CHUNK = 1 << 16  # scan entries held in memory at once


@dataclass(frozen=True, slots=True)
class CheckResult:
    passed: bool
    witness: object = None
    margin: float = math.inf  # smallest slack observed (negative on failure)


@dataclass(frozen=True)
class KSubmodularityReport:
    lattice: CheckResult
    orthant: CheckResult
    pairwise_monotone: CheckResult

    @property
    def passed(self) -> bool:
        return self.lattice.passed


@dataclass(frozen=True)
class RatioReport:
    eta: float
    gamma: float
    eta_witness: tuple[SubsetMask, SubsetMask] | None
    gamma_witness: tuple[SubsetMask, SubsetMask] | None


def _finite(values: np.ndarray, candidate: Callable[[int], object], what: str) -> np.ndarray:
    """The values at candidates 0, 1, ..., each checked to be finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(
            f"{what}: the value at {candidate(int(bad[0]))!r} is {values[bad[0]]}")
    return values


def _refuse(tol: float, ground: SubsetMask, cap: int, what: str) -> None:
    """Before any evaluation: a NaN or negative tolerance, or over 2^cap subsets."""
    if not tol >= 0:
        raise ValidationError(f"tol must be a non-negative number, not {tol!r}")
    if ground.size > cap:
        raise GuardError(f"{what} over 2^{ground.size} subsets exceeds the guard")


def _scan(counts: np.ndarray, entries: Callable, witness: Callable, tol: float) -> CheckResult:
    """The verdict over the entries (t, r), r < counts[t], in that order, from
    ``entries(t, r)``: their slacks and the integer arrays ``witness`` reads.
    The first slack below -tol fails; else the first smallest (never NaN) is reported."""
    ends = np.cumsum(counts)
    worst, seen = math.inf, None
    for start in range(0, int(ends[-1]), CHUNK):
        flat = np.arange(start, min(start + CHUNK, int(ends[-1])))
        t = np.searchsorted(ends, flat, side="right")
        slack, coords = entries(t, flat - ends[t] + counts[t])
        fail = np.flatnonzero(slack < -tol)
        low = fail[:1] if fail.size else np.flatnonzero(slack < worst)
        if low.size:
            at = low[np.argmin(slack[low])]
            worst, seen = float(slack[at]), witness(*(int(c[at]) for c in coords))
            if fail.size:
                return CheckResult(False, seen, worst)
    return CheckResult(True, seen, worst)


def _pick(flags: list[np.ndarray], r: np.ndarray) -> np.ndarray:
    """Per entry, the index o of its r-th set flag among flags[0], flags[1], ..."""
    seen, picked = np.zeros_like(r), np.zeros_like(r)
    for o, flag in enumerate(flags):
        picked[flag & (seen == r)] = o
        seen += flag
    return picked


def check_submodular(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    tol: float = SUBMODULARITY_TOL,
) -> CheckResult:
    """Exhaustively test f(S) + f(T) >= f(S u T) + f(S n T) - tol."""
    _refuse(tol, ground, MAX_SUBSET_UNIVERSE, what := "submodularity check")
    table = OptimumTable(f, ground)
    v = _finite(table.values(np.arange(len(table.sizes))), table.candidate, what)
    # the pairs S <= T in counting order: T = S + r
    return _scan(np.arange(len(v), 0, -1),
                 lambda s, r: (v[s] + v[s + r] - v[s | s + r] - v[s & s + r], (s, s + r)),
                 lambda s, t: (table.candidate(s), table.candidate(t)), tol)


def check_monotone(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    nondecreasing: bool = True,
    tol: float = SUBMODULARITY_TOL,
) -> CheckResult:
    """Test every single-element addition marginal for the stated direction."""
    _refuse(tol, ground, MAX_SUBSET_UNIVERSE, what := "monotonicity check")
    table = OptimumTable(f, ground)
    v = _finite(table.values(np.arange(len(table.sizes))), table.candidate, what)
    sign = 1.0 if nondecreasing else -1.0

    def entries(s, r):
        q = _pick([s >> p & 1 == 0 for p in range(ground.size)], r)
        return sign * (v[s | 1 << q] - v[s]), (s, q)

    return _scan(ground.size - table.sizes.astype(np.int64), entries,
                 lambda s, q: (table.candidate(s), table.positions[q]), tol)


def check_k_submodular(
    F: Callable[[Parts], float],
    ground: SubsetMask,
    k: int,
    tol: float = SUBMODULARITY_TOL,
    ceiling: Parts | None = None,
) -> KSubmodularityReport:
    """Exhaustive k-submodularity test over the (k+1)^|U| lattice, with the
    orthant-submodularity and pairwise-monotonicity conditions reported
    separately (they jointly characterize k-submodularity).

    With a pairwise-disjoint ``ceiling`` of k groups the test runs on the
    sublattice of partitions below it (lattice and orthant conditions; the
    pairwise clause compares slots of one element and is vacuous there)."""
    if not tol >= 0:
        raise ValidationError(f"tol must be a non-negative number, not {tol!r}")
    if not (k >= 1 and (ceiling is None or k == len(ceiling))):
        raise ValidationError(f"k={k!r} must be >= 1 and, with a ceiling, its number of groups")
    radix, label = (2, "2") if ceiling is not None else (k + 1, "(k+1)")
    if radix ** ground.size > MAX_K_TUPLES:
        raise GuardError(
            f"k-submodularity check over {label}^{ground.size} tuples exceeds the guard")
    # a candidate's index has a digit of weight weights[q] per element elems[q],
    # 0 when it is in no part; ``options`` lists each (q, slot, digit) it may
    # take, and ``pairs`` the pairs of options of one element, element-major
    if ceiling is not None:
        # below a pairwise-disjoint ceiling each element has one admissible
        # slot: the candidates are the subsets of its support, counting order
        below = OptimumTable(F, tuple(cap & ground for cap in ceiling))
        elems, item = below.positions, below.candidate
        v = _finite(below.values(np.arange(len(below.sizes))), item, "k-submodularity check")
        options = [(q, j, 1) for q, e in enumerate(elems) for j, c in enumerate(ceiling) if e in c]
    else:  # every labelling of the elements, in itertools.product order
        elems = ground.indices()
        items = [tuple(SubsetMask.of(ground.d, (e for e, lab in zip(elems, labels) if lab == j))
                       for j in range(1, k + 1))
                 for labels in itertools.product(range(k + 1), repeat=len(elems))]
        item = items.__getitem__
        v = _finite(np.fromiter(map(F, items), float, len(items)), item, "k-submodularity check")
        options = [(q, j, j + 1) for q in range(len(elems)) for j in range(k)]
    weights = (radix ** np.arange(len(elems), dtype=np.int64))[::1 if ceiling is not None else -1]
    codes = np.arange(len(v))
    table = np.empty((len(elems), len(v)), np.min_scalar_type(radix))
    for q, w in enumerate(weights):
        table[q] = codes // w % radix
    digits = lambda t: table[:, t]  # row q: digit q of each index in t
    at_q, at_slot, digit = np.array(options, dtype=np.int64).reshape(-1, 3).T
    grown = digit * weights[at_q]
    pairs = np.array([(a, b) for a, b in itertools.combinations(range(len(options)), 2)
                      if options[a][0] == options[b][0]], dtype=np.int64).reshape(-1, 2)

    def lattice(s, r):
        t = s + r
        meet, join = (s & t, s | t) if radix == 2 else (0, 0)  # one slot each: AND, OR
        for w, a, b in zip(weights, digits(s), digits(t)) if radix > 2 else ():
            meet = meet + np.where(a == b, a, 0) * w  # slot-wise intersection
            join = join + np.where(a == 0, b, np.where((b == 0) | (b == a), a, 0)) * w
        return v[s] + v[t] - v[meet] - v[join], (s, t)

    def orthant(t, r):
        # each S with S_i within T_i: the assignments of T it keeps, in
        # (slot, element) order; then each free (element, slot) to grow by
        free = ((dig := digits(t)) == 0)[at_q]  # the options T leaves open
        keep, o = np.divmod(r, free.sum(0))
        o, s, held = _pick(free, o), 0, 0
        for q, _, d in sorted(options, key=lambda x: (x[1], x[0])):
            hit = dig[q] == d
            s = s + np.where(hit & (keep >> held & 1 == 1), d * weights[q], 0)
            held = held + hit
        return (v[s + grown[o]] - v[s]) - (v[t + grown[o]] - v[t]), (s, t, at_slot[o], at_q[o])

    def pairwise(s, r):
        a, b = pairs[_pick((digits(s) == 0)[at_q[pairs[:, 0]]], r)].T
        slack = (v[s + grown[a]] - v[s]) + (v[s + grown[b]] - v[s])
        return slack, (s, at_q[a], at_slot[a], at_slot[b])

    free = (table == 0)[at_q]
    clauses = (
        (len(codes) - codes, lattice, lambda s, t: (item(s), item(t))),
        (np.left_shift(1, (table != 0).sum(0)) * free.sum(0), orthant,
         lambda s, t, i, q: (item(s), item(t), i, elems[q])),
        (free[pairs[:, 0]].sum(0), pairwise,
         lambda s, q, i, j: (item(s), elems[q], i, j)),
    )
    return KSubmodularityReport(*(_scan(n, scan, seen, tol) for n, scan, seen in clauses))


def ratios(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    m: int,
) -> RatioReport:
    """Exact supermodularity ratio eta_{U,m} and submodularity ratio
    gamma_{U,m} by exhaustive enumeration; 0/0 pairs are skipped."""
    _refuse(math.inf, ground, MAX_RATIO_UNIVERSE, what := "ratio computation")
    if m < 1:
        raise ValidationError("ratios need a cardinality constraint m >= 1")
    table = OptimumTable(f, ground)
    v = _finite(table.values(np.arange(len(table.sizes))), table.candidate, what)

    def entries(s, r, num):
        """T, the r-th subset of the rest in counting order; f(S u T) - f(S)
        and the singleton gains of T at S summed left to right, in a ratio."""
        t, split, seen = 0, 0.0, 0
        for q in range(ground.size):
            free = s >> q & 1 == 0
            take = free & (r >> seen & 1 == 1)
            t, seen = t | np.where(take, 1 << q, 0), seen + free
            split = np.where(take, split + (v[s | 1 << q] - v[s]), split)
        terms, size = (v[s | t] - v[s], split), sum(t >> q & 1 for q in range(ground.size))
        flat = (abs(terms[0]) < RATIO_FLOOR) & (abs(split) < RATIO_FLOOR)
        ok = (1 <= size) & (size <= m) & ~flat & (terms[1 - num] != 0.0)
        return np.where(ok, terms[num] / np.where(ok, terms[1 - num], 1.0), math.inf), (s, t)

    counts = np.left_shift(1, ground.size - table.sizes.astype(np.int64))
    pair = lambda s, t: (table.candidate(s), table.candidate(t))
    eta, gamma = (_scan(counts, lambda s, r: entries(s, r, num), pair, math.inf) for num in (0, 1))
    return RatioReport(eta.margin, gamma.margin, eta.witness, gamma.witness)
