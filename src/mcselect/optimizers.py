"""Greedy-family search procedures with deterministic tie-breaking.

Greedy, distorted greedy, generalized distorted greedy and batch greedy are
rounds of one candidate scan (:func:`_scan`); ties go to the smallest
element index, or the lexicographically smallest (slot, element).

Cardinality semantics: problems posed with an exact constraint ("eq") force
an acceptance every iteration, because their objectives are non-increasing
and the distorted score test would otherwise never fire; the strict "> 0"
acceptance test applies to budget ("le") constraints.

Local search is one loop of first-improving moves.  While f > 0 a move must
reach (1 + epsilon/d^2) f; otherwise it must raise f strictly, so the search
also ends on objectives that are zero or negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain_core import GuardError, SubsetMask, ValidationError
from .objectives import ObjectiveDecomposition, Partition, Parts, check_budget, union_of

CERT_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    iteration: int
    element: int
    slot: int | None
    score: float
    accepted: bool


@dataclass(frozen=True, slots=True)
class Certificate:
    """Record of the theoretical lower bound against a brute-force optimum."""

    opt: object
    g_opt: float
    c_opt: float
    lower_bound: float
    achieved: float
    satisfied: bool


@dataclass(frozen=True, slots=True)
class RunResult:
    chosen: object  # SubsetMask or Partition
    objective_value: float
    trajectory: tuple[TrajectoryStep, ...]


def check_batch_sizes(sizes: Sequence[int], m: int) -> None:
    """Batch sizes must be positive and sum to the budget m."""
    if sum(sizes) != m:
        raise ValidationError(f"batch sizes {sizes} sum to {sum(sizes)}, expected m={m}")
    if any(q <= 0 for q in sizes):
        raise ValidationError(f"batch sizes {sizes} must be positive")


def _scan(
    g: Callable[[Parts], float],
    caps: Parts,
    constraint: str,
    rounds: Sequence[tuple[float, int]],
    penalty: Callable[[int, int], float],
    slotted: bool,
) -> tuple[Parts, tuple[TrajectoryStep, ...]]:
    """The candidate scan behind the greedy family, one round per (kappa, q).

    Round i scores every (slot j, element e in caps[j] minus S_j) by
    kappa * (g(S + e in slot j) - g(S)) - penalty(j, e) and takes the q best,
    ties broken on the smallest (slot, element); a subset is the one-slot
    case, recorded with slot None unless ``slotted``.  A NaN score is an
    error naming the first candidate that has one.  A round that accepts
    nothing at kappa 1 ends the run, since nothing changes afterwards.
    """
    parts: Parts = tuple(SubsetMask.empty(cap.d) for cap in caps)
    grown = lambda j, e: parts[:j] + (parts[j].add(e),) + parts[j + 1 :]
    steps: list[TrajectoryStep] = []
    g_current = g(parts)
    for i, (kappa, q) in enumerate(rounds):
        # negated scores, so that ascending order puts the best first
        ranked = [(-(kappa * (g(grown(j, e)) - g_current) - penalty(j, e)), j, e)
                  for j, cap in enumerate(caps) for e in cap - parts[j]]
        for neg_score, j, e in ranked:
            if math.isnan(neg_score):
                raise ValidationError(f"round {i}: the score of element {e} in slot {j} is nan")
        ranked.sort()
        if not ranked:
            break  # every ceiling group exhausted: remaining rounds no-op
        accepted = False
        for neg_score, j, e in ranked[:q]:
            accept = constraint == "eq" or -neg_score > 0.0
            steps.append(TrajectoryStep(i, e, j if slotted else None, -neg_score, accept))
            if accept:
                parts, accepted = grown(j, e), True
        if accepted:
            g_current = g(parts)
        elif kappa == 1.0:
            break
    return parts, tuple(steps)


def _distortion(m: int) -> list[tuple[float, int]]:
    """Rounds (kappa_i, 1) with kappa_i = (1 - 1/m)^(m - (i+1)) of the
    distorted greedy algorithms."""
    return [((1.0 - 1.0 / m) ** (m - (i + 1)), 1) for i in range(m)]


def greedy(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    m: int,
    constraint: str = "le",
) -> RunResult:
    """Plain greedy maximization of a set function under |S| <= m or = m.

    Under "eq" the best remaining element is always added; under "le" an
    element is added only if its marginal gain is strictly positive (and the
    run stops early once it is not, since nothing changes afterwards).
    """
    check_budget(m, ground, constraint)
    (S,), steps = _scan(lambda parts: f(parts[0]), (ground,), constraint, [(1.0, 1)] * m,
                        lambda j, e: 0.0, slotted=False)
    return RunResult(S, f(S), steps)


def distorted_greedy(dec: ObjectiveDecomposition, m: int) -> RunResult:
    """Distorted greedy for f = g - c: at step i pick the element maximizing
    (1 - 1/m)^(m-(i+1)) (g(S + e) - g(S)) - c({e})."""
    if dec.kind != "subset":
        raise ValidationError("distorted_greedy expects a subset decomposition")
    check_budget(m, dec.ground, dec.constraint)
    (S,), steps = _scan(lambda parts: dec.g(parts[0]), (dec.ground,), dec.constraint,
                        _distortion(m), lambda j, e: dec.penalty(e), slotted=False)
    return RunResult(S, dec.f(S), steps)


def generalized_distorted_greedy(dec: ObjectiveDecomposition, m: int) -> RunResult:
    """Distorted greedy over partitions below the ceiling V: the argmax runs
    over pairs (slot j, element e in V_j minus S_j)."""
    if dec.kind != "partition":
        raise ValidationError("generalized_distorted_greedy expects a partition decomposition")
    check_budget(m, dec.ground, dec.constraint)
    parts, steps = _scan(dec.g, dec.ceiling, dec.constraint, _distortion(m),
                         lambda j, e: dec.penalty((j, e)), slotted=True)
    return RunResult(Partition(parts, dec.ceiling), dec.f(parts), steps)


def local_search(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    epsilon: float,
    max_steps: int = 10_000_000,
) -> RunResult:
    """Local add/drop search for non-negative submodular maximization.

    Starts from the best singleton.  Each step takes the first addition that
    improves f, or if there is none the first deletion; it stops when there
    is neither.  While f(S) > 0 a move improves f when it reaches
    (1 + epsilon/d^2) f(S); otherwise it must exceed f(S).  Every evaluation
    counts against ``max_steps``.  Returns the better of the final S and its
    complement in the ground set.
    """
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be positive and finite, not {epsilon!r}")
    d = ground.size
    if d == 0:
        empty = SubsetMask.empty(ground.d)
        return RunResult(empty, f(empty), ())
    factor = 1.0 + epsilon / d**2
    budget = max_steps

    singles = {e: f(SubsetMask.of(ground.d, (e,))) for e in ground}
    best = max(singles, key=singles.get)  # the first, so the smallest, maximizer
    S, current = SubsetMask.of(ground.d, (best,)), singles[best]
    steps = [TrajectoryStep(0, best, None, current, True)]

    def first_improving(moves):
        nonlocal budget
        for a, candidate in moves:
            budget -= 1
            if budget < 0:
                raise GuardError("local search exceeded its iteration cap")
            val = f(candidate)
            if (val >= factor * current) if current > 0 else (val > current):
                return a, candidate, val
        return None

    while True:
        added = True
        move = first_improving((a, S.add(a)) for a in ground - S)
        if move is None:
            added = False
            move = first_improving((a, S.remove(a)) for a in S)
            if move is None:
                break
        a, S, current = move
        steps.append(TrajectoryStep(len(steps), a, None, current, added))

    inside, outside = f(S), f(ground - S)
    if inside >= outside:
        return RunResult(S, inside, tuple(steps))
    return RunResult(ground - S, outside, tuple(steps))


def batch_greedy(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    m: int,
    batch_sizes: Sequence[int],
) -> RunResult:
    """Batch greedy for a monotone set function with f(empty) = 0: each step
    adds the batch of elements with the top singleton incremental gains."""
    sizes = [int(q) for q in batch_sizes]
    check_batch_sizes(sizes, m)
    check_budget(m, ground, "eq")
    base = f(SubsetMask.empty(ground.d))
    if not abs(base) <= 1e-9:  # NaN fails too
        raise ValidationError(f"batch greedy requires f(empty) = 0, got {base!r}")
    (S,), steps = _scan(lambda parts: f(parts[0]), (ground,), "eq",
                        [(1.0, q) for q in sizes], lambda j, e: 0.0, slotted=False)
    return RunResult(S, f(S), steps)


class OptimumTable:
    """``fn`` at every candidate of a domain, the subsets of a ground set or
    the tuples of parts below a pairwise-disjoint ceiling, as float64
    indexed by the candidate's code in the binary counting order of
    :meth:`SubsetMask.subsets` over their union: bit t of a code is the
    t-th of ``positions``, and ``sizes`` holds each code's bit count.  It
    fills lazily: :meth:`values` evaluates a candidate on its first
    request.  Guarded: the candidate count may not exceed 2^24.
    """

    def __init__(self, fn: Callable, domain: SubsetMask | Partition | Sequence[SubsetMask]):
        if isinstance(domain, SubsetMask):
            self._caps: Parts | None = None
            ground = domain
        else:
            self._caps = tuple(domain.parts if isinstance(domain, Partition) else domain)
            Partition(self._caps)  # checks pairwise disjointness
            ground = union_of(self._caps)
        if ground.size > 24:
            raise GuardError(f"brute force over 2^{ground.size} candidates exceeds the 2^24 cap")
        self._fn = fn
        self._d = ground.d
        self.positions = ground.indices()
        sizes = np.zeros(1, dtype=np.int8)  # int8: 16 MiB at the cap
        for _ in self.positions:
            sizes = np.concatenate((sizes, sizes + 1))
        self.sizes = sizes
        self._values = np.empty(len(sizes))
        self._filled = np.zeros(len(sizes), dtype=bool)

    def candidate(self, code: int):
        """The candidate with counting-order code ``code``."""
        S = SubsetMask(sum(1 << p for t, p in enumerate(self.positions) if code >> t & 1),
                       self._d)
        return S if self._caps is None else tuple(cap & S for cap in self._caps)

    def values(self, codes: np.ndarray) -> np.ndarray:
        """fn at these ascending codes, evaluating the unfilled ones in order."""
        fresh = codes[~self._filled[codes]]
        self._values[fresh] = np.fromiter(
            (self._fn(self.candidate(code)) for code in fresh.tolist()), float, len(fresh))
        self._filled[fresh] = True
        return self._values[codes]

    def opt(self, m: int, constraint: str = "le"):
        """The first maximizer in counting order over the candidates with
        |S| <= m (or = m), and its value: the first-found optimum of a
        streaming search.  A NaN value among them is an error naming its
        candidate; -inf never wins."""
        if constraint not in ("le", "eq"):
            raise ValidationError(f"unknown constraint {constraint!r}")
        codes = np.flatnonzero(self.sizes <= m if constraint == "le" else self.sizes == m)
        if not len(codes):
            raise ValidationError("constraint admits no feasible candidate")
        values = self.values(codes)
        nan = np.flatnonzero(np.isnan(values))
        if nan.size:
            raise ValidationError(
                f"the objective at {self.candidate(int(codes[nan[0]]))!r} is nan")
        best = int(np.argmax(values))  # the first maximum
        if values[best] == -math.inf:
            raise ValidationError("every feasible candidate has the value -inf")
        return self.candidate(int(codes[best])), float(values[best])


def optimum_table(dec: ObjectiveDecomposition) -> OptimumTable:
    """The table of g - c over the decomposition's feasible domain, which
    :func:`certify` reads; one per sweep serves all its rows."""
    return OptimumTable(dec.gc, dec.ground if dec.kind == "subset" else dec.ceiling)


def certify(dec: ObjectiveDecomposition, m: int, result: RunResult,
            table: OptimumTable | None = None) -> Certificate:
    """Attach the distorted-greedy bound (1 - 1/e) g(OPT) - c(OPT) with OPT
    read from ``table``, the decomposition's :func:`optimum_table` (a fresh
    one when None)."""
    if table is None:
        table = optimum_table(dec)
    opt, _ = table.opt(m, dec.constraint)
    g_opt, c_opt = dec.g(opt), dec.c(opt)
    lower = (1.0 - math.exp(-1.0)) * g_opt - c_opt
    chosen = result.chosen.parts if isinstance(result.chosen, Partition) else result.chosen
    achieved = dec.gc(chosen)
    return Certificate(opt, g_opt, c_opt, lower, achieved, achieved >= lower - CERT_SLACK)


def batch_certificate(
    f: Callable[[SubsetMask], float],
    ground: SubsetMask,
    m: int,
    batch_sizes: Sequence[int],
    eta_by_batch: dict[int, float],
    gamma: float,
    result: RunResult,
) -> Certificate:
    """Bound for batch greedy: f(S) >= (1 - prod_i (1 - q_i eta_{q_i} gamma / m)) OPT."""
    opt, opt_value = OptimumTable(f, ground).opt(m, "eq")
    product = 1.0
    for q in batch_sizes:
        product *= 1.0 - q * eta_by_batch[q] * gamma / m
    lower = (1.0 - product) * opt_value
    achieved = f(result.chosen)
    return Certificate(opt, opt_value, 0.0, lower, achieved, achieved >= lower - CERT_SLACK)
