"""Independent brute-force verifiers: exhaustive (super/sub)modularity and
k-submodularity checks, and the supermodularity/submodularity ratios that
enter the batch-greedy bound.

All guards are hard errors rather than silent truncation: a sampled check is
not an oracle.  Every check is one scan of (slack, witness) pairs through
:func:`_verdict`: a failure reports the first violation in scan order, a pass
the smallest slack and the first witness that reached it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .chain_core import GuardError, SubsetMask, ValidationError
from .objectives import Parts, parts_below, union_of

SUBMODULARITY_TOL = 1e-9
RATIO_FLOOR = 1e-12
MAX_SUBSET_UNIVERSE = 12
MAX_K_TUPLES = 2_000_000
MAX_RATIO_UNIVERSE = 8


@dataclass(frozen=True)
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


def _verdict(slacks: Iterable[tuple[float, object]], tol: float) -> CheckResult:
    """The first (slack, witness) below -tol, as a failure; or else the
    smallest slack with the first witness that reached it."""
    worst, witness = math.inf, None
    for slack, seen in slacks:
        if slack < -tol:
            return CheckResult(False, seen, slack)
        if slack < worst:
            worst, witness = slack, seen
    return CheckResult(True, witness, worst)


def _subset_values(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    cap: int,
    what: str,
) -> tuple[list[SubsetMask], dict[int, float]]:
    """The subsets of the ground set in counting order and f on each, keyed
    by bits; guarded by ``cap`` on the ground set's size."""
    if ground.size > cap:
        raise GuardError(f"{what} over 2^{ground.size} subsets exceeds the guard")
    subsets = list(ground.subsets())
    return subsets, {S.bits: f(S) for S in subsets}


def check_submodular(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    tol: float = SUBMODULARITY_TOL,
) -> CheckResult:
    """Exhaustively test f(S) + f(T) >= f(S u T) + f(S n T) - tol."""
    subsets, values = _subset_values(f, ground, MAX_SUBSET_UNIVERSE, "submodularity check")
    return _verdict((
        (values[S.bits] + values[T.bits] - values[S.bits | T.bits] - values[S.bits & T.bits],
         (S, T))
        for S, T in itertools.combinations_with_replacement(subsets, 2)
    ), tol)


def check_supermodular(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    tol: float = SUBMODULARITY_TOL,
) -> CheckResult:
    return check_submodular(lambda S: -f(S), ground, tol)


def check_monotone(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    nondecreasing: bool = True,
    tol: float = SUBMODULARITY_TOL,
) -> CheckResult:
    """Test every single-element addition marginal for the stated direction."""
    subsets, values = _subset_values(f, ground, MAX_SUBSET_UNIVERSE, "monotonicity check")
    sign = 1.0 if nondecreasing else -1.0
    return _verdict((
        (sign * (values[S.bits | 1 << e] - values[S.bits]), (S, e))
        for S in subsets for e in ground - S
    ), tol)


def _meet(S: Parts, T: Parts) -> Parts:
    return tuple(a & b for a, b in zip(S, T))


def _join(S: Parts, T: Parts) -> Parts:
    """Slot-wise unions, minus every element that two slots claim."""
    unions = [a | b for a, b in zip(S, T)]
    seen = clash = 0
    for u in unions:
        clash |= seen & u.bits
        seen |= u.bits
    return tuple(SubsetMask(u.bits & ~clash, u.d) for u in unions)


def _grow(parts: Parts, i: int, e: int) -> Parts:
    return parts[:i] + (parts[i].add(e),) + parts[i + 1 :]


def _assigned(pairs: Iterable[tuple[int, int]], k: int, d: int) -> Parts:
    """The k parts that hold element e in slot j for each (j, e) in pairs."""
    groups = [0] * k
    for j, e in pairs:
        groups[j] |= 1 << e
    return tuple(SubsetMask(bits, d) for bits in groups)


def _all_assignments(ground: SubsetMask, k: int, ceiling: Parts | None = None) -> list[Parts]:
    if ceiling is not None:
        # below a pairwise-disjoint ceiling each element has one admissible
        # slot, so the lattice is the subsets of the ceiling's support
        return list(parts_below(tuple(cap & ground for cap in ceiling)))
    elements = ground.indices()
    return [_assigned(((lab - 1, e) for e, lab in zip(elements, labels) if lab), k, ground.d)
            for labels in itertools.product(range(k + 1), repeat=len(elements))]


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

    With a pairwise-disjoint ``ceiling`` the test runs on the sublattice of
    partitions below it (lattice and orthant conditions; the pairwise clause
    compares slots of one element and is vacuous there)."""
    radix, label = (2, "2") if ceiling is not None else (k + 1, "(k+1)")
    if radix ** ground.size > MAX_K_TUPLES:
        raise GuardError(
            f"k-submodularity check over {label}^{ground.size} tuples exceeds the guard")
    tuples = _all_assignments(ground, k, ceiling)
    values = {tuple(p.bits for p in parts): F(parts) for parts in tuples}
    val = lambda parts: values[tuple(p.bits for p in parts)]
    if ceiling is not None:
        slot_of = {e: j for j, cap in enumerate(ceiling) for e in cap}
        slots_for = lambda e: (slot_of[e],) if e in slot_of else ()
    else:
        slots_for = lambda e: range(k)

    lattice = (
        (val(S) + val(T) - val(_meet(S, T)) - val(_join(S, T)), (S, T))
        for S, T in itertools.combinations_with_replacement(tuples, 2)
    )

    def orthant():
        for T in tuples:
            supp_t = union_of(T).bits
            free = [e for e in ground if not supp_t >> e & 1]
            assigned = [(j, e) for j, part in enumerate(T) for e in part]
            # every S with S_i subseteq T_i: drop any subset of the assignments
            for keep_code in range(1 << len(assigned)):
                S = _assigned((pair for t, pair in enumerate(assigned) if keep_code >> t & 1),
                              k, ground.d)
                for e in free:
                    for i in slots_for(e):
                        gain_s = val(_grow(S, i, e)) - val(S)
                        gain_t = val(_grow(T, i, e)) - val(T)
                        yield gain_s - gain_t, (S, T, i, e)

    def pairwise():
        for S in tuples:
            supp = union_of(S).bits
            base = val(S)
            for e in ground:
                if supp >> e & 1:
                    continue
                gains = {i: val(_grow(S, i, e)) - base for i in slots_for(e)}
                for i, j in itertools.combinations(sorted(gains), 2):
                    yield gains[i] + gains[j], (S, e, i, j)

    return KSubmodularityReport(_verdict(lattice, tol), _verdict(orthant(), tol),
                                _verdict(pairwise(), tol))


def ratios(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    m: int,
) -> RatioReport:
    """Exact supermodularity ratio eta_{U,m} and submodularity ratio
    gamma_{U,m} by exhaustive enumeration; 0/0 pairs are skipped."""
    subsets, values = _subset_values(f, ground, MAX_RATIO_UNIVERSE, "ratio computation")
    if m < 1:
        raise ValidationError("ratios need a cardinality constraint m >= 1")
    pairs = []  # (S, T, f(S u T) - f(S), sum of the singleton gains of T at S)
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
    # the smallest ratio and its first witness: a verdict that never fails
    eta = _verdict(((joint / split if split != 0.0 else math.inf, (S, T))
                    for S, T, joint, split in pairs), math.inf)
    gamma = _verdict(((split / joint if joint != 0.0 else math.inf, (S, T))
                      for S, T, joint, split in pairs), math.inf)
    return RatioReport(eta.margin, gamma.margin, eta.witness, gamma.witness)
