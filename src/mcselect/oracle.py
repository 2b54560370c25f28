"""Independent brute-force verifiers: exhaustive (super/sub)modularity and
k-submodularity checks, and the supermodularity/submodularity ratios that
enter the batch-greedy bound.

All guards are hard errors rather than silent truncation: a sampled check is
not an oracle.  Witnesses are returned on failure for debuggability.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .chain_core import GuardError, SubsetMask, ValidationError
from .objectives import Parts, union_of

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


def check_submodular(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    tol: float = SUBMODULARITY_TOL,
) -> CheckResult:
    """Exhaustively test f(S) + f(T) >= f(S u T) + f(S n T) - tol."""
    if ground.size > MAX_SUBSET_UNIVERSE:
        raise GuardError(f"submodularity check over 2^{ground.size} subsets exceeds the guard")
    subsets = list(ground.subsets())
    values = {S.bits: f(S) for S in subsets}
    worst = math.inf
    witness = None
    for S, T in itertools.combinations_with_replacement(subsets, 2):
        slack = (
            values[S.bits]
            + values[T.bits]
            - values[(S | T).bits]
            - values[(S & T).bits]
        )
        if slack < worst:
            worst, witness = slack, (S, T)
        if slack < -tol:
            return CheckResult(False, (S, T), slack)
    return CheckResult(True, witness, worst)


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
    if ground.size > MAX_SUBSET_UNIVERSE:
        raise GuardError(f"monotonicity check over 2^{ground.size} subsets exceeds the guard")
    sign = 1.0 if nondecreasing else -1.0
    worst = math.inf
    witness = None
    for S in ground.subsets():
        base = f(S)
        for e in ground - S:
            slack = sign * (f(S.add(e)) - base)
            if slack < worst:
                worst, witness = slack, (S, e)
            if slack < -tol:
                return CheckResult(False, (S, e), slack)
    return CheckResult(True, witness, worst)


def _meet(S: Parts, T: Parts) -> Parts:
    return tuple(a & b for a, b in zip(S, T))


def _join(S: Parts, T: Parts) -> Parts:
    k = len(S)
    unions = [a | b for a, b in zip(S, T)]
    out = []
    for i in range(k):
        others = 0
        for j in range(k):
            if j != i:
                others |= unions[j].bits
        out.append(SubsetMask(unions[i].bits & ~others, unions[i].d))
    return tuple(out)


def _all_assignments(ground: SubsetMask, k: int, ceiling: Parts | None = None) -> list[Parts]:
    elements = ground.indices()
    d = ground.d
    out = []
    if ceiling is not None:
        # below a pairwise-disjoint ceiling each element has one admissible
        # slot, so the lattice is the subsets of the ceiling's support
        slot_of = {e: j for j, cap in enumerate(ceiling) for e in cap}
        members = [e for e in elements if e in slot_of]
        for code in range(1 << len(members)):
            groups = [0] * k
            for t, e in enumerate(members):
                if code >> t & 1:
                    groups[slot_of[e]] |= 1 << e
            out.append(tuple(SubsetMask(bits, d) for bits in groups))
        return out
    for labels in itertools.product(range(k + 1), repeat=len(elements)):
        groups = [0] * k
        for e, lab in zip(elements, labels):
            if lab:
                groups[lab - 1] |= 1 << e
        out.append(tuple(SubsetMask(bits, d) for bits in groups))
    return out


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
    if ceiling is None and (k + 1) ** ground.size > MAX_K_TUPLES:
        raise GuardError(
            f"k-submodularity check over (k+1)^{ground.size} tuples exceeds the guard"
        )
    if ceiling is not None and 2 ** ground.size > MAX_K_TUPLES:
        raise GuardError(
            f"k-submodularity check over 2^{ground.size} tuples exceeds the guard"
        )
    tuples = _all_assignments(ground, k, ceiling)
    values = {tuple(p.bits for p in parts): F(parts) for parts in tuples}
    val = lambda parts: values[tuple(p.bits for p in parts)]
    if ceiling is not None:
        slot_of = {e: j for j, cap in enumerate(ceiling) for e in cap}
        slots_for = lambda e: (slot_of[e],) if e in slot_of else ()
    else:
        slots_for = lambda e: range(k)

    lattice = CheckResult(True, None, math.inf)
    worst, witness = math.inf, None
    for S, T in itertools.combinations_with_replacement(tuples, 2):
        slack = val(S) + val(T) - val(_meet(S, T)) - val(_join(S, T))
        if slack < worst:
            worst, witness = slack, (S, T)
        if slack < -tol:
            lattice = CheckResult(False, (S, T), slack)
            break
    else:
        lattice = CheckResult(True, witness, worst)

    orthant = CheckResult(True, None, math.inf)
    worst, witness = math.inf, None
    done = False
    for T in tuples:
        if done:
            break
        supp_t = union_of(T).bits
        free = [e for e in ground if not supp_t >> e & 1]
        assigned = [(j, e) for j, part in enumerate(T) for e in part]
        # every S with S_i subseteq T_i: drop any subset of the assignments
        for keep_code in range(1 << len(assigned)):
            groups = [0] * k
            for t, (j, e) in enumerate(assigned):
                if keep_code >> t & 1:
                    groups[j] |= 1 << e
            S = tuple(SubsetMask(bits, ground.d) for bits in groups)
            for e in free:
                for i in slots_for(e):
                    gain_s = val(S[:i] + (S[i].add(e),) + S[i + 1 :]) - val(S)
                    gain_t = val(T[:i] + (T[i].add(e),) + T[i + 1 :]) - val(T)
                    slack = gain_s - gain_t
                    if slack < worst:
                        worst, witness = slack, (S, T, i, e)
                    if slack < -tol:
                        orthant = CheckResult(False, (S, T, i, e), slack)
                        done = True
    if not done:
        orthant = CheckResult(True, witness, worst)

    pairwise = CheckResult(True, None, math.inf)
    worst, witness = math.inf, None
    done = False
    for S in tuples:
        if done:
            break
        supp = union_of(S).bits
        base = val(S)
        for e in ground:
            if supp >> e & 1:
                continue
            gains = {
                i: val(S[:i] + (S[i].add(e),) + S[i + 1 :]) - base for i in slots_for(e)
            }
            for i, j in itertools.combinations(sorted(gains), 2):
                slack = gains[i] + gains[j]
                if slack < worst:
                    worst, witness = slack, (S, e, i, j)
                if slack < -tol:
                    pairwise = CheckResult(False, (S, e, i, j), slack)
                    done = True
    if not done:
        pairwise = CheckResult(True, witness, worst)

    return KSubmodularityReport(lattice, orthant, pairwise)


def ratios(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    m: int,
) -> RatioReport:
    """Exact supermodularity ratio eta_{U,m} and submodularity ratio
    gamma_{U,m} by exhaustive enumeration; 0/0 pairs are skipped."""
    if ground.size > MAX_RATIO_UNIVERSE:
        raise GuardError(f"ratio computation over 2^{ground.size} subsets exceeds the guard")
    if m < 1:
        raise ValidationError("ratios need a cardinality constraint m >= 1")
    subsets = list(ground.subsets())
    values = {S.bits: f(S) for S in subsets}
    eta, gamma = math.inf, math.inf
    eta_wit = gamma_wit = None
    for S in subsets:
        base = values[S.bits]
        rest = ground - S
        singles = {e: values[S.add(e).bits] - base for e in rest}
        for T in rest.subsets():
            if not 1 <= T.size <= m:
                continue
            joint = values[(S | T).bits] - base
            split = sum(singles[e] for e in T)
            if abs(joint) < RATIO_FLOOR and abs(split) < RATIO_FLOOR:
                continue
            cand_eta = joint / split if split != 0.0 else math.inf
            cand_gamma = split / joint if joint != 0.0 else math.inf
            if cand_eta < eta:
                eta, eta_wit = cand_eta, (S, T)
            if cand_gamma < gamma:
                gamma, gamma_wit = cand_gamma, (S, T)
    return RatioReport(eta, gamma, eta_wit, gamma_wit)
