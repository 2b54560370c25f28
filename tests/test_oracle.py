import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers_naive as naive
from helpers_naive import check_supermodular, random_product_chain, random_reversible_chain
from mcselect import oracle
from mcselect.chain_core import GuardError, SubsetMask, ValidationError
from mcselect.objectives import Workspace, build_partition_objective
from mcselect.oracle import (
    check_k_submodular,
    check_monotone,
    check_submodular,
    ratios,
)


def subsets_of(universe):
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


class TestCheckSubmodular:
    def test_modular_passes_both_directions(self):
        ground = SubsetMask.full(4)
        f = lambda S: 0.25 * S.size - 1.0
        assert check_submodular(f, ground).passed
        assert check_supermodular(f, ground).passed

    def test_coverage_passes(self):
        ground = SubsetMask.full(4)
        f = lambda S: float(min(S.size, 1))
        assert check_submodular(f, ground).passed

    def test_cardinality_square_fails_with_witness(self):
        ground = SubsetMask.full(3)
        f = lambda S: float(S.size**2)
        report = check_submodular(f, ground)
        assert not report.passed
        S, T = report.witness
        assert f(S) + f(T) < f(S | T) + f(S & T)

    def test_projected_entropy_rate_submodular(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        ws = Workspace(P, pi)
        assert check_submodular(ws.entropy_rate, SubsetMask.full(4)).passed

    def test_guard(self):
        with pytest.raises(GuardError):
            check_submodular(lambda S: 0.0, SubsetMask.full(13))

    def test_complement_lemma(self, rng):
        # f submodular implies S -> f(U - S) submodular
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        ws = Workspace(P, pi)
        ground = SubsetMask.full(3)
        assert check_submodular(ws.entropy_rate, ground).passed
        assert check_submodular(lambda S: ws.entropy_rate(ground - S), ground).passed


class TestCheckMonotone:
    def test_directions(self):
        ground = SubsetMask.full(4)
        assert check_monotone(lambda S: float(S.size), ground).passed
        assert check_monotone(lambda S: -float(S.size), ground, nondecreasing=False).passed
        assert not check_monotone(lambda S: -float(S.size), ground).passed


class TestCheckKSubmodular:
    def test_slotwise_modular_passes(self):
        ground = SubsetMask.full(3)
        F = lambda parts: float(sum(p.size for p in parts))
        report = check_k_submodular(F, ground, 2)
        assert report.passed
        assert report.orthant.passed and report.pairwise_monotone.passed

    def test_k1_agrees_with_subset_checker(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        ws = Workspace(P, pi)
        ground = SubsetMask.full(3)
        subset_report = check_submodular(ws.entropy_rate, ground)
        k_report = check_k_submodular(lambda parts: ws.entropy_rate(parts[0]), ground, 1)
        assert subset_report.passed == k_report.passed

    def test_k_entropy_g_is_k_submodular(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        caps = (SubsetMask.of(4, (0, 1)), SubsetMask.of(4, (2, 3)))
        dec = build_partition_objective("k-entropy", P, pi, caps)
        # restrict assignments to the ceiling: elements outside their slot's
        # cap contribute through the ceiling-constrained g
        def F(parts):
            clipped = tuple(cap & part for cap, part in zip(caps, parts))
            return dec.g(clipped)

        report = check_k_submodular(F, SubsetMask.full(4), 2)
        assert report.passed

    def test_sum_of_nonincreasing_supermodular_is_k_supermodular(self):
        ground = SubsetMask.full(3)
        drop = lambda S: float((3 - S.size) ** 2)  # non-increasing, supermodular
        F = lambda parts: sum(drop(p) for p in parts)
        report = check_k_submodular(lambda parts: -F(parts), ground, 2)
        assert report.passed

    def test_guard(self):
        with pytest.raises(GuardError):
            check_k_submodular(lambda parts: 0.0, SubsetMask.full(14), 2)


BAD = SubsetMask.of(3, (0, 2))
CAPS = (SubsetMask.of(3, (2,)), SubsetMask.of(3, (0, 1)))
# each check, and the first of its candidates on which f sees the set BAD
NON_FINITE_CHECKS = {
    "submodular": (lambda f: check_submodular(f, SubsetMask.full(3)), BAD),
    "monotone": (lambda f: check_monotone(f, SubsetMask.full(3)), BAD),
    "nonincreasing": (lambda f: check_monotone(f, SubsetMask.full(3), nondecreasing=False), BAD),
    "k-submodular": (lambda f: check_k_submodular(
        lambda parts: f(parts[0] | parts[1]), SubsetMask.full(3), 2),
        (BAD, SubsetMask.empty(3))),
    "k-submodular below a ceiling": (lambda f: check_k_submodular(
        lambda parts: f(parts[0] | parts[1]), SubsetMask.full(3), 2, ceiling=CAPS),
        (SubsetMask.of(3, (2,)), SubsetMask.of(3, (0,)))),
    "ratios": (lambda f: ratios(f, SubsetMask.full(3), 2), BAD),
}


@pytest.mark.parametrize("check, first", NON_FINITE_CHECKS.values(), ids=NON_FINITE_CHECKS)
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
class TestNonFiniteValues:
    """A value that is not finite stops every check with an error naming the
    first candidate that has it; none is skipped or reported as a pass."""

    def test_everywhere(self, check, first, bad):
        # the empty set, or the partition of empty parts, comes first
        with pytest.raises(ValidationError, match=r"at \(?SubsetMask\(\{\}, d=3\).* is " + str(bad)):
            check(lambda S: bad)

    def test_at_one_set(self, check, first, bad):
        with pytest.raises(ValidationError, match=re.escape(f"at {first!r} is {bad}")):
            check(lambda S: bad if S == BAD else float(S.size))


def _spy(f):
    """f, and the list of the candidates it has been called on."""
    calls = []
    return (lambda x: calls.append(x) or f(x)), calls


class TestRefusedBeforeEvaluation:
    """Bad arguments are a ValidationError naming them, raised before f is
    called once."""

    @pytest.mark.parametrize("tol", (math.nan, -1e-9, -math.inf))
    @pytest.mark.parametrize("check", (
        lambda f, tol: check_submodular(f, SubsetMask.full(3), tol=tol),
        lambda f, tol: check_monotone(f, SubsetMask.full(3), tol=tol),
        lambda f, tol: check_monotone(f, SubsetMask.full(3), nondecreasing=False, tol=tol),
        lambda f, tol: check_k_submodular(lambda parts: f(parts[0]), SubsetMask.full(3), 2,
                                          tol=tol),
        lambda f, tol: check_k_submodular(lambda parts: f(parts[0]), SubsetMask.full(3), 2,
                                          tol=tol, ceiling=CAPS),
    ), ids=("submodular", "monotone", "nonincreasing", "k-submodular", "below a ceiling"))
    def test_a_tolerance_that_is_nan_or_negative(self, check, tol):
        f, calls = _spy(lambda S: float(S.size) ** 2)
        with pytest.raises(ValidationError, match="tol"):
            check(f, tol)
        assert calls == []

    @pytest.mark.parametrize("k, ceiling", [(0, None), (-1, None), (5, CAPS), (1, CAPS),
                                            (0, CAPS[:0])])
    def test_k_below_one_or_unlike_the_ceiling(self, k, ceiling):
        F, calls = _spy(lambda parts: 0.0)
        with pytest.raises(ValidationError, match=f"k={k}"):
            check_k_submodular(F, SubsetMask.full(3), k, ceiling=ceiling)
        assert calls == []

    def test_an_overlapping_ceiling(self):
        F, calls = _spy(lambda parts: float(sum(p.size for p in parts)))
        overlap = (SubsetMask.of(3, (0, 1)), SubsetMask.of(3, (1, 2)))
        with pytest.raises(ValidationError, match="overlap"):
            check_k_submodular(F, SubsetMask.full(3), 2, ceiling=overlap)
        assert calls == []

    @pytest.mark.parametrize("m", (0, -1))
    def test_ratios_without_a_cardinality_constraint(self, m):
        f, calls = _spy(lambda S: float(S.size))
        with pytest.raises(ValidationError, match="ratios need a cardinality constraint m >= 1"):
            ratios(f, SubsetMask.full(8), m)
        assert calls == []


@pytest.mark.parametrize("check, candidates", [
    (lambda f: check_submodular(f, SubsetMask.full(5)), 32),
    (lambda f: check_monotone(f, SubsetMask.of(6, (0, 2, 3, 5))), 16),
    (lambda f: ratios(f, SubsetMask.full(4), 2), 16),
    (lambda F: check_k_submodular(F, SubsetMask.full(3), 2), 27),
    (lambda F: check_k_submodular(F, SubsetMask.of(5, (0, 1, 2, 4)), 3,
                                  ceiling=(SubsetMask.of(5, (4, 0)), SubsetMask.of(5, (1, 3)),
                                           SubsetMask.empty(5))), 8),
], ids=("submodular", "monotone", "ratios", "k-submodular", "below a ceiling"))
def test_each_check_evaluates_each_candidate_once(check, candidates):
    f, calls = _spy(lambda candidate: 0.0)
    check(f)
    assert len(calls) == len(set(calls)) == candidates


def test_guard_size_checks_stay_within_96_mib():
    """check_submodular over 2^12 subsets (8.4M pairs) and check_k_submodular
    below a 3 x 4 ceiling on 12 elements hold one chunk of entries at a time.
    Their functions are submodular and k-submodular, so every entry is
    scanned; the verdicts are asserted, the time is not.  The peak is the
    child's VmHWM: ru_maxrss would keep the peak of the test process, which
    Linux carries across exec."""
    script = (
        "import math\n"
        "from mcselect.chain_core import SubsetMask\n"
        "from mcselect.oracle import check_k_submodular, check_submodular\n"
        "ground = SubsetMask.full(12)\n"
        "caps = tuple(SubsetMask.of(12, range(4 * j, 4 * j + 4)) for j in range(3))\n"
        "subset = check_submodular(lambda S: math.sqrt(S.size), ground)\n"
        "k = check_k_submodular(lambda parts: sum(math.sqrt(p.size) for p in parts),\n"
        "                       ground, 3, ceiling=caps)\n"
        "print(subset.passed, k.lattice.passed, k.orthant.passed, k.pairwise_monotone.passed)\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=600)
    assert result.returncode == 0, result.stderr
    verdicts, peak_kib = result.stdout.splitlines()
    assert verdicts == "True True True True"
    assert int(peak_kib) < 96 * 1024


class TestRatios:
    def test_modular_has_unit_ratios(self):
        ground = SubsetMask.full(4)
        weights = [0.5, 1.0, 0.25, 0.75]
        f = lambda S: sum(weights[e] for e in S)
        report = ratios(f, ground, 2)
        assert abs(report.eta - 1.0) <= 1e-12
        assert abs(report.gamma - 1.0) <= 1e-12

    def test_cardinality_square_exhaustive(self):
        ground = SubsetMask.full(3)
        f = lambda S: float(S.size**2)
        report = ratios(f, ground, 2)
        # independent enumeration
        eta = gamma = math.inf
        for s_combo in subsets_of(range(3)):
            S = SubsetMask.of(3, s_combo)
            rest = [e for e in range(3) if e not in s_combo]
            for t_len in (1, 2):
                for t_combo in itertools.combinations(rest, t_len):
                    T = SubsetMask.of(3, t_combo)
                    joint = f(S | T) - f(S)
                    split = sum(f(S.add(e)) - f(S) for e in T)
                    eta = min(eta, joint / split)
                    gamma = min(gamma, split / joint)
        assert abs(report.eta - eta) <= 1e-12
        assert abs(report.gamma - gamma) <= 1e-12
        assert abs(report.gamma - 0.5) <= 1e-12

    def test_skips_flat_pairs(self):
        ground = SubsetMask.full(3)
        f = lambda S: 1.0 if 0 in S else 0.0
        report = ratios(f, ground, 2)
        assert report.eta > 0.0

    def test_guard(self):
        with pytest.raises(GuardError):
            ratios(lambda S: 0.0, SubsetMask.full(9), 2)


class TestMarkovChainStructure:
    """The submodular/supermodular structures the optimizer relies on."""

    def test_distance_to_independence_monotone_supermodular(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        ws = Workspace(P, pi)
        ground = SubsetMask.full(4)
        assert check_monotone(ws.dist_to_independence, ground).passed
        assert check_supermodular(ws.dist_to_independence, ground).passed

    def test_complement_independence_nonincreasing_supermodular(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        ws = Workspace(P, pi)
        ground = SubsetMask.full(4)
        f = lambda S: ws.dist_to_independence(ground - S)
        assert check_monotone(f, ground, nondecreasing=False).passed
        assert check_supermodular(f, ground).passed

    def test_dist2fact_symmetric_submodular(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        ws = Workspace(P, pi)
        ground = SubsetMask.full(4)
        assert check_submodular(ws.dist_to_factorizability, ground).passed
        for bits in range(16):
            S = SubsetMask(bits, 4)
            assert abs(
                ws.dist_to_factorizability(S) - ws.dist_to_factorizability(ground - S)
            ) <= 1e-10

    def test_dist2stat_supermodular_under_product_form(self, rng):
        P, pi = random_product_chain(rng, (2, 2, 2, 2))
        ws = Workspace(P, pi)
        ground = SubsetMask.full(4)
        assert check_monotone(ws.dist_to_stationarity, ground).passed
        assert check_supermodular(ws.dist_to_stationarity, ground).passed


@st.composite
def set_functions(draw):
    """A universe of 2..7 elements, a ground set within it, and k-part
    functions from a random integer or float table (the integer one possibly
    with a low value at the empty candidate), or a sum of concave
    per-slot functions (k-submodular, so some clauses pass with a minimum
    to find), possibly negated.  Half the draws carry a ceiling whose slot
    order differs from element order, may leave elements in no cap, and may
    reach past the ground set."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    capped = draw(st.booleans())
    k = int(rng.integers(1, 4))
    d = int(rng.integers(2, 8 if capped else (7, 6, 5)[k - 1]))  # keep the naive scans short
    ground = SubsetMask.of(d, np.flatnonzero(rng.random(d) < 0.8).tolist() or [d - 1])
    kind = draw(st.sampled_from(("int", "float", "concave", "-concave", "lifted")))
    table = rng.integers(-2, 3, (k + 1) ** d) if kind != "float" else rng.normal(size=(k + 1) ** d)
    if kind == "lifted":
        # every gain at the empty candidate is large, so the first orthant
        # violation has S non-empty and depends on the order S runs in
        table[0] = -10
    weights = rng.random((k, d))

    def F(parts):
        if kind.endswith("concave"):
            value = sum(math.sqrt(sum(weights[j, e] for e in part)) for j, part in enumerate(parts))
            return -value if kind[0] == "-" else value
        return float(table[sum((j + 1) * (k + 1) ** e for j, part in enumerate(parts) for e in part)])

    ceiling = None
    if capped:
        labels = rng.integers(1, k + 1, d) * (rng.random(d) < 0.85)
        order = rng.permutation(k)
        ceiling = tuple(SubsetMask.of(d, (e for e in range(d) if labels[e] == order[j] + 1))
                        for j in range(k))
    return ground, k, F, ceiling


def _same(new, old):
    assert (new.passed, new.margin.hex(), new.witness) == \
        (old.passed, float(old.margin).hex(), old.witness)


class TestAgainstNaiveScans:
    """Verdict, margin bits and witness equal those of the element-by-element
    scans in helpers_naive, clause by clause; also with scans cut into
    chunks of 7 entries, so that minima tie across chunks."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(set_functions(), st.sampled_from((oracle.CHUNK, 7)))
    def test_every_check_matches_its_scan(self, drawn, chunk):
        ground, k, F, ceiling = drawn
        with mock.patch.object(oracle, "CHUNK", chunk):
            self.compare(ground, k, F, ceiling)

    @staticmethod
    def compare(ground, k, F, ceiling):
        f = lambda S: F((S,))
        _same(check_submodular(f, ground), naive.naive_check_submodular(f, ground))
        for up in (True, False):
            _same(check_monotone(f, ground, up), naive.naive_check_monotone(f, ground, up))
        new = check_k_submodular(F, ground, k, ceiling=ceiling)
        old = naive.naive_check_k_submodular(F, ground, k, ceiling=ceiling)
        for clause in ("lattice", "orthant", "pairwise_monotone"):
            _same(getattr(new, clause), getattr(old, clause))
        for m in (1, 2, ground.size):
            new, old = ratios(f, ground, m), naive.naive_ratios(f, ground, m)
            assert (new.eta.hex(), new.gamma.hex(), new.eta_witness, new.gamma_witness) == \
                (float(old.eta).hex(), float(old.gamma).hex(), old.eta_witness, old.gamma_witness)

    def test_a_non_contiguous_ceiling_with_a_failing_table(self):
        d, k = 7, 3
        ceiling = (SubsetMask.of(d, (0, 4, 5)), SubsetMask.of(d, (2, 1)), SubsetMask.of(d, (6,)))
        rng = np.random.default_rng(3)
        table = rng.normal(size=2**d)
        F = lambda parts: float(table[sum(part.bits for part in parts)])
        ground = SubsetMask.of(d, (0, 1, 2, 4, 6))
        new = check_k_submodular(F, ground, k, ceiling=ceiling)
        assert not new.lattice.passed and not new.orthant.passed
        assert new == naive.naive_check_k_submodular(F, ground, k, ceiling=ceiling)
