"""Catalog of (g, c) decompositions for the subset- and partition-selection
problems: a monotone (k-)submodular g and a modular c with objective
f = g - c, built around cached projected-entropy evaluations.

Each catalog entry records

* ``g`` and the modular ``c`` (element weights plus the constant -beta),
* ``shift``: the constant with g - c = f + shift (non-zero only for the
  complement objectives, whose g is translated so that g(empty) = 0),
* ``report_sign``: +1/-1 mapping the maximised f back to the non-negative
  distance that experiment tables report,
* admissibility bounds on the cardinality constraint, where the problem
  has them.

Every entry is one row of ``CRITERIA``, stated on a tuple of parts below a
ceiling.  A subset problem is the k=1 case of its partition twin, with the
ceiling ``(ground,)`` and weights keyed by element; only ``dist2stat`` and
``dist2fact-fixed`` have no twin.

The beta constant shifts g and c equally, so it never affects optimizer
trajectories; it only enters the reported bound certificates.  It is the
row's admissibility bound (or 0), the tightest choice that keeps c
non-negative.  Optimizers consume c through its per-element weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import functionals
from .chain_core import (
    Distribution,
    SubsetMask,
    TransitionMatrix,
    ValidationError,
    edge_measure,
    marginalize,
    tensor_dist,
)
from .functionals import assert_stationary

PRODUCT_FORM_TOL = 1e-10

Parts = tuple[SubsetMask, ...]


def union_of(parts: Parts) -> SubsetMask:
    """The coordinates covered by any of the groups."""
    bits = 0
    for part in parts:
        bits |= part.bits
    return SubsetMask(bits, parts[0].d)


@dataclass(frozen=True)
class Partition:
    """k pairwise-disjoint coordinate groups, optionally below a ceiling V."""

    parts: Parts
    ceiling: Parts | None = None

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValidationError("a partition needs at least one group")
        d = self.parts[0].d
        seen = 0
        for part in self.parts:
            if part.d != d:
                raise ValidationError("partition groups live in different universes")
            if seen & part.bits:
                raise ValidationError("partition groups overlap")
            seen |= part.bits
        if self.ceiling is not None:
            if len(self.ceiling) != len(self.parts):
                raise ValidationError("ceiling must have one group per part")
            for part, cap in zip(self.parts, self.ceiling):
                if not part.issubset(cap):
                    raise ValidationError("partition exceeds its ceiling")

    @property
    def d(self) -> int:
        return self.parts[0].d


def is_product_form(pi: Distribution) -> bool:
    d = pi.space.d
    factors = [marginalize(pi, SubsetMask.of(d, (i,))) for i in range(d)]
    product = tensor_dist(factors)
    return float(np.abs(product.probs - pi.probs).sum()) <= PRODUCT_FORM_TOL


class Workspace:
    """Cached projected-entropy evaluations for one stationary chain.

    All catalog functions reduce to entropies of projected edge measures
    H(pi_S x P_S) and of marginals H(pi_S); both are cached per coordinate
    mask, which makes repeated marginal-gain queries cheap.  ``edge`` is the
    edge measure P keeps for pi (:func:`chain_core.edge_measure`): the
    direct evaluations share it, and so does every objective, study and
    distance built on the same chain and pi object, so they share the
    projections it holds.  The scalar caches stay per Workspace.
    """

    def __init__(self, P: TransitionMatrix, pi: Distribution):
        assert_stationary(P, pi)  # first, so a bad pi leaves the measure P keeps
        self.edge = edge_measure(P, pi)
        self.pi = pi
        self.space = P.space
        self.d = P.space.d
        self._H_edge: dict[int, float] = {0: 0.0}
        self._H_pi: dict[int, float] = {0: 0.0}
        self._KL_block: dict[tuple[int, ...], float] = {}

    def full(self) -> SubsetMask:
        return SubsetMask.full(self.d)

    def single(self, e: int) -> SubsetMask:
        return SubsetMask.of(self.d, (e,))

    def _key(self, mask: SubsetMask) -> int:
        """The cache key of a mask, checked first to live in the chain's universe."""
        if mask.d != self.d:
            raise ValidationError("mask universe does not match space dimension")
        return mask.bits

    def _edge_entropy(self, mask: SubsetMask) -> float:
        key = self._key(mask)
        if key not in self._H_edge:
            self._H_edge[key] = functionals.shannon_entropy(self.edge.weights(mask))
        return self._H_edge[key]

    def entropy_pi(self, mask: SubsetMask) -> float:
        """H(pi_S)."""
        key = self._key(mask)
        if key not in self._H_pi:
            self._H_pi[key] = functionals.shannon_entropy(marginalize(self.pi, mask))
        return self._H_pi[key]

    def block_order_kl(self, blocks: Sequence[SubsetMask]) -> float:
        """``functionals.kl_to_blocks(edge, blocks, block_order=True)``, which
        has no entropy form, cached per tuple of blocks."""
        key = tuple(self._key(block) for block in blocks)
        if key not in self._KL_block:
            self._KL_block[key] = functionals.kl_to_blocks(self.edge, blocks, block_order=True)
        return self._KL_block[key]

    def entropy_rate(self, mask: SubsetMask) -> float:
        """H(P_S) = H(pi_S x P_S) - H(pi_S)."""
        return self._edge_entropy(mask) - self.entropy_pi(mask)

    def kl_to_blocks(self, blocks: Sequence[SubsetMask]) -> float:
        """sum_b H(P_b) - H(P_U) for disjoint blocks with union U: the cached
        twin of :func:`functionals.kl_to_blocks` on a stationary chain."""
        return sum(self.entropy_rate(b) for b in blocks) - self.entropy_rate(union_of(blocks))

    def dist_to_independence(self, mask: SubsetMask) -> float:
        return 0.0 if mask.size <= 1 else self.kl_to_blocks([self.single(i) for i in mask])

    def dist_to_stationarity(self, mask: SubsetMask) -> float:
        return self.entropy_pi(mask) - self.entropy_rate(mask)

    def dist_to_factorizability(self, mask: SubsetMask) -> float:
        return self.kl_to_blocks((mask, mask.complement()))

    def dist_to_factorizability_fixed(self, W: SubsetMask, S: SubsetMask) -> float:
        return self.kl_to_blocks((W, S))

    def split_divergence(self, block: SubsetMask, e: int) -> float:
        """D(P_A || P_{A - e} x P_e) for e in the block A."""
        return self.kl_to_blocks((block.remove(e), self.single(e)))


def check_budget(m: int, ground: SubsetMask, constraint: str) -> None:
    """A cardinality budget m over ``ground`` under "le" or "eq"."""
    if m < 0:
        raise ValidationError("cardinality constraint must be non-negative")
    if m > ground.size:
        raise ValidationError(f"budget m={m} exceeds the ground set of size {ground.size}")
    if constraint not in ("le", "eq"):
        raise ValidationError(f"unknown constraint {constraint!r}")


@dataclass(frozen=True)
class ObjectiveDecomposition:
    """A problem instance f = g - c with reporting metadata.

    ``g`` is monotone non-decreasing and (k-)submodular by construction,
    ``c`` is modular with per-element ``c_weights`` and constant ``c_const``
    (= -beta).  For subset problems the callables take a SubsetMask; for
    partition problems a tuple of SubsetMask groups.
    """

    problem_id: str
    kind: str  # "subset" | "partition"
    constraint: str  # "le" | "eq"
    ground: SubsetMask
    g: Callable
    c_weights: Mapping
    c_const: float
    beta: float
    shift: float
    report_sign: float
    f_direct: Callable
    ceiling: Parts | None = None
    min_support: int | None = None
    max_support: int | None = None
    notes: tuple[str, ...] = ()

    def penalty(self, key) -> float:
        """Modular weight of one element (slot-element pair for partitions)."""
        return self.c_weights.get(key, 0.0)

    def c(self, S) -> float:
        if self.kind == "subset":
            return self.c_const + sum(self.c_weights.get(e, 0.0) for e in S)
        return self.c_const + sum(
            self.c_weights.get((j, e), 0.0) for j, part in enumerate(S) for e in part
        )

    def gc(self, S) -> float:
        return self.g(S) - self.c(S)

    def f(self, S) -> float:
        """The unshifted objective of the source problem."""
        return self.gc(S) - self.shift

    def report_value(self, S) -> float:
        """The non-negative quantity the experiment tables report."""
        return self.report_sign * self.f(S)

    def empty_solution(self):
        if self.kind == "subset":
            return SubsetMask.empty(self.ground.d)
        return tuple(SubsetMask.empty(self.ground.d) for _ in self.ceiling)

    def validate_m(self, m: int) -> None:
        check_budget(m, self.ground, self.constraint)
        if self.min_support is not None and m < self.min_support:
            raise ValidationError(
                f"{self.problem_id} requires m >= {self.min_support}, got {m}"
            )
        if self.max_support is not None and m > self.max_support:
            raise ValidationError(
                f"{self.problem_id} requires m <= {self.max_support}, got {m}"
            )


def _direct_indp(ws: Workspace, parts: Parts) -> float:
    return sum(functionals.kl_to_blocks(ws.edge, [ws.single(i) for i in part]) for part in parts)


def _factor_blocks(parts: Parts) -> Parts:
    """The groups, then the remainder: the blocks of dist2fact's product."""
    return tuple(parts) + (union_of(parts).complement(),)


def _dist2fact_fixed(ws: Workspace, caps: Parts, parts: Parts) -> float:
    (S,), (ground,) = parts, caps
    if not S.issubset(ground):
        raise ValidationError("S overlaps the fixed set W")
    return ws.dist_to_factorizability_fixed(ground.complement(), S)


@dataclass(frozen=True)
class Criterion:
    """One catalog row, stated on a tuple of parts below the ceiling caps.

    ``value(ws, caps, parts)`` is the cached value, read according to ``form``:

    * "f+c": value is f and g = f + c (the distorted construction);
    * "g": value is g itself;
    * "shift": g = shift - value, with shift the value at the empty parts.

    ``direct(ws, caps, parts)`` evaluates f from the defining divergences,
    and ``weight(ws, caps, j, e, value)`` is the modular weight of element e
    in slot j.  ``beta(ws, caps)`` is the admissibility bound that beta
    takes, or None for beta = 0; ``subset_beta`` False makes the k=1 subset
    view take beta = 0.
    ``product_form`` is "required", or "heuristic" when a non-product pi is
    allowed under ``heuristic=True``.  The support bounds take (d, k).
    ``block_order`` is the (value, direct) pair read under ``block_order=True``.
    """

    value: Callable
    direct: Callable
    weight: Callable | None = None
    form: str = "f+c"
    beta: Callable | None = None
    subset_beta: bool = True
    constraint: str = "le"
    report_sign: float = 1.0
    product_form: str | None = None
    min_support: Callable[[int, int], int] | None = None
    max_support: Callable[[int, int], int] | None = None
    block_order: tuple[Callable, Callable] | None = None


CRITERIA: dict[str, Criterion] = {
    "k-entropy": Criterion(
        value=lambda ws, caps, parts: sum(ws.entropy_rate(part) for part in parts),
        direct=lambda ws, caps, parts: sum(
            functionals.keep_in_entropy_rate(ws.edge, part) for part in parts),
        weight=lambda ws, caps, j, e, value: (
            ws.entropy_rate(caps[j].remove(e)) - ws.entropy_rate(caps[j])),
        beta=lambda ws, caps: -sum(math.log(ws.space.dims[e]) for cap in caps for e in cap),
    ),
    "k-entropy-product": Criterion(
        # H(pi_S x P_S), the edge-measure entropy of the projected chain
        value=lambda ws, caps, parts: sum(
            ws.entropy_rate(part) + ws.entropy_pi(part) for part in parts),
        direct=lambda ws, caps, parts: sum(
            functionals.keep_in_entropy_rate(ws.edge, part) for part in parts),
        weight=lambda ws, caps, j, e, value: functionals.shannon_entropy(
            marginalize(ws.pi, ws.single(e))),
        form="g",
        product_form="required",
    ),
    "k-dist2fact": Criterion(
        value=lambda ws, caps, parts: ws.kl_to_blocks(_factor_blocks(parts)),
        direct=lambda ws, caps, parts: functionals.kl_to_blocks(ws.edge, _factor_blocks(parts)),
        weight=lambda ws, caps, j, e, value: (
            value(caps[:j] + (caps[j].remove(e),) + caps[j + 1:]) - value(caps)),
        beta=lambda ws, caps: -sum(
            ws.entropy_rate(union_of(caps).complement()) + ws.entropy_rate(ws.single(e))
            for cap in caps for e in cap),
        subset_beta=False,
        # the reference values of the factorizability experiments use this form
        block_order=(
            lambda ws, caps, parts: ws.block_order_kl(_factor_blocks(parts)),
            lambda ws, caps, parts: functionals.kl_to_blocks(
                ws.edge, _factor_blocks(parts), block_order=True),
        ),
    ),
    "k-dist2indp": Criterion(
        value=lambda ws, caps, parts: -sum(ws.dist_to_independence(part) for part in parts),
        direct=lambda ws, caps, parts: -_direct_indp(ws, parts),
        weight=lambda ws, caps, j, e, value: ws.split_divergence(caps[j], e),
        constraint="eq",
        report_sign=-1.0,
        min_support=lambda d, k: k + 1,
    ),
    "k-dist2indp-complement": Criterion(
        value=lambda ws, caps, parts: sum(
            ws.dist_to_independence(cap - part) for cap, part in zip(caps, parts)),
        direct=lambda ws, caps, parts: -_direct_indp(
            ws, [cap - part for cap, part in zip(caps, parts)]),
        form="shift",
        report_sign=-1.0,
        max_support=lambda d, k: d - k - 1,
    ),
    "k-dist2stat": Criterion(
        value=lambda ws, caps, parts: -sum(ws.dist_to_stationarity(part) for part in parts),
        direct=lambda ws, caps, parts: -sum(
            functionals.kl_to_stationary(ws.edge, part) for part in parts),
        weight=lambda ws, caps, j, e, value: (
            ws.split_divergence(caps[j], e) + ws.dist_to_stationarity(ws.single(e))),
        constraint="eq",
        report_sign=-1.0,
        product_form="heuristic",
    ),
    "k-dist2stat-complement": Criterion(
        value=lambda ws, caps, parts: sum(
            ws.dist_to_stationarity(cap - part) for cap, part in zip(caps, parts)),
        direct=lambda ws, caps, parts: -sum(
            functionals.kl_to_stationary(ws.edge, cap - part) for cap, part in zip(caps, parts)),
        form="shift",
        report_sign=-1.0,
        product_form="heuristic",
    ),
    # subset-only rows, read with exactly one part
    "dist2stat": Criterion(
        # raw monotone target for the batch greedy algorithm; no decomposition
        value=lambda ws, caps, parts: ws.dist_to_stationarity(parts[0]),
        direct=lambda ws, caps, parts: functionals.kl_to_stationary(ws.edge, parts[0]),
        form="g",
        constraint="eq",
    ),
    "dist2fact-fixed": Criterion(
        value=_dist2fact_fixed,
        direct=lambda ws, caps, parts: functionals.kl_to_blocks(
            ws.edge, (caps[0].complement(), parts[0])),
        form="g",
        constraint="eq",
    ),
}

# subset problem id -> catalog row; twins are the k=1 case with ceiling (ground,)
SUBSET_ROWS = {
    "entropy": "k-entropy",
    "entropy-product": "k-entropy-product",
    "dist2fact": "k-dist2fact",
    "dist2indp": "k-dist2indp",
    "dist2indp-complement": "k-dist2indp-complement",
    "dist2stat": "dist2stat",
    "dist2stat-product": "k-dist2stat",
    "dist2stat-complement": "k-dist2stat-complement",
    "dist2fact-fixed": "dist2fact-fixed",
}

SUBSET_PROBLEMS = tuple(SUBSET_ROWS)
PARTITION_PROBLEMS = tuple(pid for pid in CRITERIA if pid.startswith("k-"))


def check_block_order(problem_id: str, block_order: bool) -> None:
    """``block_order`` only on a row that has a block-order form."""
    if block_order and CRITERIA[SUBSET_ROWS.get(problem_id, problem_id)].block_order is None:
        raise ValidationError(f"{problem_id} has no block-order form; dist2fact and k-dist2fact do")


def _build(
    problem_id: str,
    kind: str,
    ws: Workspace,
    caps: Parts,
    *,
    heuristic: bool,
    block_order: bool,
) -> ObjectiveDecomposition:
    """Read one catalog row on the ceiling ``caps``: the partition problem
    itself, or for a subset problem its one-part view keyed by element."""
    row = CRITERIA[SUBSET_ROWS[problem_id] if kind == "subset" else problem_id]
    check_block_order(problem_id, block_order)
    notes: tuple[str, ...] = ()
    if row.product_form is not None and not is_product_form(ws.pi):
        message = f"{problem_id} requires a product-form stationary distribution"
        if row.product_form == "required":
            raise ValidationError(message)
        if not heuristic:
            raise ValidationError(
                f"{message}; pass heuristic=True to run without the approximation guarantee")
        notes = ("pi is not of product form; run is heuristic, no bound applies",)

    value_of, direct_of = row.block_order if block_order else (row.value, row.direct)
    if block_order:
        notes = ("block-order indexing of the factorized reference kernel "
                 "(selected blocks first, not realigned)",)
    value = functools.partial(value_of, ws, caps)
    direct = functools.partial(direct_of, ws, caps)

    bounded = row.beta is not None and (kind == "partition" or row.subset_beta)
    beta = row.beta(ws, caps) if bounded else 0.0
    c_const = -beta

    weights = {} if row.weight is None else {
        (j, e): row.weight(ws, caps, j, e, value) for j, cap in enumerate(caps) for e in cap
    }
    shift = 0.0
    if row.form == "shift":
        shift = value(tuple(SubsetMask.empty(ws.d) for _ in caps))
        g = lambda parts: shift - value(parts)
    elif row.form == "g":
        g = value
    else:
        g = lambda parts: value(parts) + c_const + sum(
            weights[(j, e)] for j, part in enumerate(parts) for e in part
        )

    k = len(caps)
    return ObjectiveDecomposition(
        problem_id=problem_id,
        kind=kind,
        constraint=row.constraint,
        ground=caps[0] if kind == "subset" else union_of(caps),
        g=(lambda S: g((S,))) if kind == "subset" else g,
        c_weights={e: w for (_, e), w in weights.items()} if kind == "subset" else weights,
        c_const=c_const,
        beta=beta,
        shift=shift,
        report_sign=row.report_sign,
        f_direct=(lambda S: direct((S,))) if kind == "subset" else direct,
        ceiling=None if kind == "subset" else caps,
        min_support=row.min_support(ws.d, k) if row.min_support else None,
        max_support=row.max_support(ws.d, k) if row.max_support else None,
        notes=notes,
    )


def build_subset_objective(
    problem_id: str,
    P: TransitionMatrix,
    pi: Distribution,
    *,
    W: SubsetMask | None = None,
    heuristic: bool = False,
    block_order: bool = False,
    workspace: Workspace | None = None,
) -> ObjectiveDecomposition:
    if problem_id not in SUBSET_PROBLEMS:
        raise ValidationError(f"unknown subset problem id {problem_id!r}")
    ws = workspace if workspace is not None else Workspace(P, pi)
    ground = ws.full()
    if problem_id == "dist2fact-fixed":
        if W is None:
            raise ValidationError("dist2fact-fixed needs the fixed coordinate set W")
        if W.d != ws.d:
            raise ValidationError("W lives in the wrong universe")
        ground = W.complement()
    return _build(problem_id, "subset", ws, (ground,), heuristic=heuristic,
                  block_order=block_order)


def build_partition_objective(
    problem_id: str,
    P: TransitionMatrix,
    pi: Distribution,
    V: Sequence[SubsetMask] | Partition,
    *,
    heuristic: bool = False,
    block_order: bool = False,
    workspace: Workspace | None = None,
) -> ObjectiveDecomposition:
    if problem_id not in PARTITION_PROBLEMS:
        raise ValidationError(f"unknown partition problem id {problem_id!r}")
    caps: Parts = tuple(V.parts if isinstance(V, Partition) else V)
    Partition(caps)  # checks pairwise disjointness
    ws = workspace if workspace is not None else Workspace(P, pi)
    if caps[0].d != ws.d:
        raise ValidationError("ceiling lives in the wrong universe")
    return _build(problem_id, "partition", ws, caps, heuristic=heuristic,
                  block_order=block_order)
