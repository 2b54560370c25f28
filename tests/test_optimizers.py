import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_naive import (
    brute_force_best,
    naive_brute_force_opt,
    parts_below,
    random_product_chain,
    random_reversible_chain,
)
from mcselect import cli, optimizers
from mcselect.chain_core import GuardError, SubsetMask, ValidationError
from mcselect.objectives import (
    ObjectiveDecomposition,
    Partition,
    Workspace,
    build_partition_objective,
    build_subset_objective,
    union_of,
)
from mcselect.optimizers import (
    CERT_SLACK,
    OptimumTable,
    RunResult,
    batch_certificate,
    batch_greedy,
    certify,
    distorted_greedy,
    generalized_distorted_greedy,
    greedy,
    local_search,
    optimum_table,
)
from mcselect.oracle import ratios


def coords1(mask):
    return sorted(i + 1 for i in mask)


class TestGreedy:
    def test_curie_weiss_entropy_pair(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("entropy", P, pi, workspace=cw10_ws)
        result = greedy(dec.f, dec.ground, 2, dec.constraint)
        assert coords1(result.chosen) == [1, 10]
        assert abs(result.objective_value - 0.57371) <= 1e-4

    def test_zero_budget(self, cw4):
        P, pi = cw4
        dec = build_subset_objective("entropy", P, pi)
        result = greedy(dec.f, dec.ground, 0, dec.constraint)
        assert result.chosen.size == 0 and result.objective_value == 0.0

    def test_never_beats_brute_force(self, rng):
        for _ in range(5):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            dec = build_subset_objective("entropy", P, pi)
            for m in (1, 2, 3):
                got = greedy(dec.f, dec.ground, m, "le").objective_value
                _, opt = OptimumTable(dec.f, dec.ground).opt(m, "le")
                assert got <= opt + 1e-12

    def test_budget_trajectory_never_decreases(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        dec = build_subset_objective("dist2fact", P, pi)
        result = greedy(dec.f, dec.ground, 3, "le")
        for step in result.trajectory:
            if step.accepted:
                assert step.score > 0.0

    def test_exact_constraint_forces_cardinality(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        dec = build_subset_objective("dist2indp", P, pi)
        result = greedy(dec.f, dec.ground, 3, dec.constraint)
        assert result.chosen.size == 3

    def test_nan_score_is_an_error_naming_its_candidate(self):
        f = lambda S: math.nan if S.bits == 0b101 else float(S.size)
        assert greedy(f, SubsetMask.full(3), 1).chosen == SubsetMask.of(3, (0,))
        with pytest.raises(ValidationError, match="round 1: the score of element 2 in slot 0"):
            greedy(f, SubsetMask.full(3), 2, "eq")
        with pytest.raises(ValidationError, match="round 0: the score of element 0 in slot 1"):
            optimizers._scan(lambda parts: math.nan if parts[1] else 0.0,
                             (SubsetMask.of(2, (1,)), SubsetMask.of(2, (0,))), "le",
                             [(1.0, 1)], lambda j, e: 0.0, slotted=True)

    def test_infinite_scores_keep_their_order(self):
        minus_inf_at_0 = lambda S: -math.inf if 0 in S else float(S.size)
        assert greedy(minus_inf_at_0, SubsetMask.full(3), 2).chosen == SubsetMask.of(3, (1, 2))
        inf_at_2 = lambda S: math.inf if 2 in S else float(S.size)
        result = greedy(inf_at_2, SubsetMask.full(3), 1)
        assert (result.chosen, result.objective_value) == (SubsetMask.of(3, (2,)), math.inf)

    def test_budget_exceeding_ground_rejected(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        dec = build_subset_objective("entropy", P, pi)
        with pytest.raises(ValidationError, match="exceeds"):
            greedy(dec.f, dec.ground, 3, "le")


class TestDistortedGreedy:
    def test_curie_weiss_entropy_m8(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("entropy", P, pi, workspace=cw10_ws)
        result = distorted_greedy(dec, 8)
        assert abs(result.objective_value - 1.98458) <= 1e-4

    def test_zero_budget(self, cw4):
        P, pi = cw4
        dec = build_subset_objective("entropy", P, pi)
        result = distorted_greedy(dec, 0)
        assert result.chosen.size == 0 and result.objective_value == 0.0
        assert result.trajectory == ()

    def test_certificate_on_dist2fact(self, rng):
        for _ in range(3):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            dec = build_subset_objective("dist2fact", P, pi)
            for m in (1, 2, 3):
                result = distorted_greedy(dec, m)
                cert = certify(dec, m, result)
                assert cert.satisfied

    def test_telescoping_identity(self, rng):
        # Phi_i(S) = (1 - 1/m)^(m-i) g(S) - c(S); each iteration's increment
        # equals max(0, score_i) + (1/m)(1 - 1/m)^(m-(i+1)) g(S_i).
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        dec = build_subset_objective("dist2fact", P, pi)
        m = 4
        result = distorted_greedy(dec, m)
        phi = lambda i, S: (1 - 1 / m) ** (m - i) * dec.g(S) - dec.c(S)
        S = SubsetMask.empty(4)
        total = 0.0
        by_iteration = {step.iteration: step for step in result.trajectory}
        for i in range(m):
            step = by_iteration.get(i)
            S_next = S.add(step.element) if step is not None and step.accepted else S
            increment = phi(i + 1, S_next) - phi(i, S)
            psi = max(0.0, step.score) if step is not None else 0.0
            lemma = psi + (1 / m) * (1 - 1 / m) ** (m - (i + 1)) * dec.g(S)
            assert abs(increment - lemma) <= 1e-9
            total += increment
            S = S_next
        assert abs(total - (dec.gc(S) - phi(0, SubsetMask.empty(4)))) <= 1e-9
        assert S == result.chosen


class TestGeneralizedDistortedGreedy:
    CAPS10 = (SubsetMask.of(10, (0, 1, 2, 3)), SubsetMask.of(10, (4, 5, 6)),
              SubsetMask.of(10, (7, 8, 9)))

    def test_curie_weiss_k_entropy_m3(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_partition_objective("k-entropy", P, pi, self.CAPS10, workspace=cw10_ws)
        result = generalized_distorted_greedy(dec, 3)
        assert [coords1(p) for p in result.chosen.parts] == [[1], [7], [10]]
        assert abs(result.objective_value - 0.86152) <= 1e-4

    def test_zero_budget_all_empty(self, cw4):
        P, pi = cw4
        caps = (SubsetMask.of(4, (0, 1)), SubsetMask.of(4, (2, 3)))
        dec = build_partition_objective("k-entropy", P, pi, caps)
        result = generalized_distorted_greedy(dec, 0)
        assert all(p.size == 0 for p in result.chosen.parts)

    def test_exhausted_ceiling_is_noop(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        caps = (SubsetMask.of(3, (0,)), SubsetMask.of(3, (1,)))
        dec = build_partition_objective("k-entropy", P, pi, caps)
        result = generalized_distorted_greedy(dec, 2)
        assert union_of(result.chosen.parts).size <= 2

    def test_certificate_on_k_dist2indp(self, rng):
        for _ in range(2):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2, 2))
            caps = (SubsetMask.of(5, (0, 1, 2)), SubsetMask.of(5, (3, 4)))
            dec = build_partition_objective("k-dist2indp", P, pi, caps)
            for m in (3, 4):
                result = generalized_distorted_greedy(dec, m)
                cert = certify(dec, m, result)
                assert cert.satisfied

    @pytest.mark.parametrize(
        "subset_id,partition_id",
        [
            ("entropy", "k-entropy"),
            ("dist2fact", "k-dist2fact"),
            ("dist2indp", "k-dist2indp"),
            ("dist2indp-complement", "k-dist2indp-complement"),
        ],
    )
    def test_k1_full_ceiling_reproduces_subset_algorithm(self, rng, subset_id, partition_id):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        ws = Workspace(P, pi)
        sub = build_subset_objective(subset_id, P, pi, workspace=ws)
        part = build_partition_objective(partition_id, P, pi, (SubsetMask.full(4),), workspace=ws)
        for m in (1, 2):
            if sub.min_support is not None and m < sub.min_support:
                continue
            if sub.max_support is not None and m > sub.max_support:
                continue
            a = distorted_greedy(sub, m)
            b = generalized_distorted_greedy(part, m)
            assert [(s.iteration, s.element, s.accepted) for s in a.trajectory] == [
                (s.iteration, s.element, s.accepted) for s in b.trajectory
            ]
            assert {e for e in a.chosen} == {e for e in b.chosen.parts[0]}
            assert [s.score for s in a.trajectory] == [s.score for s in b.trajectory]

    def test_k1_product_form_pairs(self, rng):
        Pp, pip = random_product_chain(rng, (2, 2, 2, 2))
        ws = Workspace(Pp, pip)
        for subset_id, partition_id in [
            ("entropy-product", "k-entropy-product"),
            ("dist2stat-product", "k-dist2stat"),
            ("dist2stat-complement", "k-dist2stat-complement"),
        ]:
            sub = build_subset_objective(subset_id, Pp, pip, workspace=ws)
            part = build_partition_objective(partition_id, Pp, pip, (SubsetMask.full(4),),
                                             workspace=ws)
            a = distorted_greedy(sub, 2)
            b = generalized_distorted_greedy(part, 2)
            assert [(s.element, s.accepted, s.score) for s in a.trajectory] == [
                (s.element, s.accepted, s.score) for s in b.trajectory
            ]


class TestLocalSearch:
    def test_modular_returns_full_ground(self):
        ground = SubsetMask.full(4)
        f = lambda S: float(S.size)
        result = local_search(f, ground, 0.1)
        assert result.chosen == ground

    def test_unique_singleton_maximizer(self):
        ground = SubsetMask.full(4)
        weights = {0: 0.5, 1: 2.0, 2: 0.5, 3: 0.5}
        f = lambda S: max((weights[e] for e in S), default=0.0)
        result = local_search(f, ground, 0.1)
        assert result.chosen.indices() == (1,)
        assert result.objective_value == 2.0

    def test_symmetric_guarantee_curie_weiss_d6(self):
        from mcselect.models import CurieWeissParams, curie_weiss_chain

        P, pi = curie_weiss_chain(CurieWeissParams(6, 10.0, 1.0))
        dec = build_subset_objective("dist2fact", P, pi)
        eps = 0.1
        result = local_search(dec.f, dec.ground, eps)
        _, opt = OptimumTable(dec.f, dec.ground).opt(6, "le")
        assert result.objective_value >= (0.5 - eps / 6) * opt - 1e-12

    def test_symmetric_guarantee_random_chains(self, rng):
        for _ in range(3):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            dec = build_subset_objective("dist2fact", P, pi)
            eps = 0.1
            result = local_search(dec.f, dec.ground, eps)
            _, opt = OptimumTable(dec.f, dec.ground).opt(4, "le")
            assert result.objective_value >= (0.5 - eps / 4) * opt - 1e-12

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValidationError):
            local_search(lambda S: 0.0, SubsetMask.full(2), 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_refuses_an_epsilon_that_is_not_finite(self, epsilon):
        with pytest.raises(ValidationError, match="epsilon must be positive and finite"):
            local_search(lambda S: float(S.size), SubsetMask.full(3), epsilon)

    @pytest.mark.parametrize("f, scores", [
        (lambda S: min(S.size - 3, 0) - 1.0, [-3.0, -2.0, -1.0]),  # negative, flat from |S|=3
        (lambda S: 0.0, [0.0]),  # zero plateau
    ], ids=["non-positive", "zero-plateau"])
    def test_non_positive_objective_ends_strictly_increasing(self, f, scores):
        # the factor rule would accept equal (or worse) sets here and cycle
        result = local_search(f, SubsetMask.full(5), 0.1, max_steps=1000)
        assert [step.score for step in result.trajectory] == scores
        assert result.objective_value == scores[-1]


class TestBatchGreedy:
    def test_curie_weiss_dist2stat_goldens(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("dist2stat", P, pi, workspace=cw10_ws)
        one = batch_greedy(dec.f, dec.ground, 1, [1])
        assert coords1(one.chosen) == [6]
        assert abs(one.objective_value - 0.40245) <= 1e-4
        two = batch_greedy(dec.f, dec.ground, 2, [2])
        assert coords1(two.chosen) == [5, 6]
        assert abs(two.objective_value - 0.80739) <= 1e-4

    def test_singleton_batches_match_plain_greedy(self, rng):
        for _ in range(4):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            dec = build_subset_objective("dist2stat", P, pi)
            for m in (1, 2, 3):
                a = batch_greedy(dec.f, dec.ground, m, [1] * m)
                b = greedy(dec.f, dec.ground, m, "eq")
                assert a.chosen == b.chosen

    def test_size_mismatch_rejected(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        dec = build_subset_objective("dist2stat", P, pi)
        with pytest.raises(ValidationError, match="sum"):
            batch_greedy(dec.f, dec.ground, 2, [1])

    def test_requires_zero_at_empty(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        with pytest.raises(ValidationError, match="empty"):
            batch_greedy(lambda S: 1.0 + S.size, SubsetMask.full(2), 1, [1])

    def test_refuses_nan_at_empty(self):
        with pytest.raises(ValidationError, match="f\\(empty\\) = 0, got nan"):
            batch_greedy(lambda S: math.nan, SubsetMask.full(3), 2, [1, 1])

    def test_bound_with_exact_ratios(self, rng):
        for _ in range(3):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2, 2))
            dec = build_subset_objective("dist2stat", P, pi)
            m, sizes = 3, [2, 1]
            result = batch_greedy(dec.f, dec.ground, m, sizes)
            gamma = ratios(dec.f, dec.ground, m).gamma
            eta_by_batch = {q: ratios(dec.f, dec.ground, q).eta for q in set(sizes)}
            cert = batch_certificate(dec.f, dec.ground, m, sizes, eta_by_batch, gamma, result)
            assert cert.satisfied


class TestBruteForce:
    def test_two_coordinate_enumeration(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2))
        dec = build_subset_objective("entropy", P, pi)
        best, value = OptimumTable(dec.f, dec.ground).opt(2, "le")
        values = {bits: dec.f(SubsetMask(bits, 2)) for bits in range(4)}
        assert value == max(values.values())
        assert values[best.bits] == value

    def test_matches_greedy_on_modular(self):
        ground = SubsetMask.full(4)
        weights = [0.4, 0.1, 0.3, 0.2]
        f = lambda S: sum(weights[e] for e in S)
        got, value = OptimumTable(f, ground).opt(2, "le")
        assert got.indices() == (0, 2)
        assert abs(value - 0.7) <= 1e-15

    def test_matches_itertools_oracle(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        dec = build_subset_objective("entropy", P, pi)
        for m, constraint in ((2, "le"), (2, "eq")):
            got_set, got_val = OptimumTable(dec.f, dec.ground).opt(m, constraint)
            want_set, want_val = brute_force_best(
                lambda fs: dec.f(SubsetMask.of(3, fs)), range(3), m, constraint
            )
            assert abs(got_val - want_val) <= 1e-12

    def test_partition_domain(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
        caps = (SubsetMask.of(4, (0, 1)), SubsetMask.of(4, (2, 3)))
        dec = build_partition_objective("k-entropy", P, pi, caps)
        parts, value = OptimumTable(dec.gc, caps).opt(2, "le")
        # independent enumeration over all feasible partitions
        best = -math.inf
        for bits in range(16):
            subset = SubsetMask(bits, 4)
            if subset.size > 2:
                continue
            cand = tuple(cap & subset for cap in caps)
            best = max(best, dec.gc(cand))
        assert abs(value - best) <= 1e-12

    def test_guard(self):
        with pytest.raises(GuardError):
            OptimumTable(lambda S: 0.0, SubsetMask.full(25)).opt(2, "le")


def table_decomposition(caps, g_values, weights, c_const, constraint, subset):
    """A decomposition whose g reads ``g_values`` at the counting-order code
    of a candidate's union and whose c has integer weights, so ties occur."""
    ground = union_of(caps)
    positions = ground.indices()

    def g(S):
        bits = S.bits if subset else union_of(S).bits
        return float(g_values[sum(1 << t for t, p in enumerate(positions) if bits >> p & 1)])

    keys = [(j, e) for j, cap in enumerate(caps) for e in cap]
    c_weights = {key[1] if subset else key: float(w) for key, w in zip(keys, weights)}
    return ObjectiveDecomposition(
        problem_id="table", kind="subset" if subset else "partition", constraint=constraint,
        ground=ground, g=g, c_weights=c_weights, c_const=float(c_const), beta=0.0,
        shift=0.0, report_sign=1.0, f_direct=g, ceiling=None if subset else caps)


@st.composite
def table_problems(draw):
    d = draw(st.integers(1, 6))
    slots = draw(st.lists(st.integers(-1, 2), min_size=d, max_size=d))
    subset = draw(st.booleans())
    if subset:
        caps = (SubsetMask.of(d, (i for i, s in enumerate(slots) if s >= 0)),)
    else:
        k = max(slots) + 1 or 1
        caps = tuple(SubsetMask.of(d, (i for i, s in enumerate(slots) if s == j))
                     for j in range(k))
    u = union_of(caps).size
    g_values = draw(st.lists(st.integers(-3, 3), min_size=1 << u, max_size=1 << u))
    weights = draw(st.lists(st.integers(-2, 2), min_size=u, max_size=u))
    dec = table_decomposition(caps, g_values, weights, draw(st.integers(-2, 2)),
                              draw(st.sampled_from(["le", "eq"])), subset)
    ms = draw(st.lists(st.integers(-1, u + 1), min_size=1, max_size=u + 3))
    chosen_code = draw(st.integers(0, (1 << u) - 1))
    return dec, ms, chosen_code


def naive_certificate(dec, m, chosen):
    """OPT by the streaming search, and the certificate's fields from it."""
    domain = dec.ground if dec.kind == "subset" else dec.ceiling
    opt, _ = naive_brute_force_opt(dec.gc, domain, m, dec.constraint)
    g_opt, c_opt = dec.g(opt), dec.c(opt)
    lower = (1.0 - math.exp(-1.0)) * g_opt - c_opt
    return opt, g_opt.hex(), c_opt.hex(), dec.gc(chosen) >= lower - CERT_SLACK


class TestOptimumTable:
    @settings(max_examples=150, deadline=None)
    @given(table_problems())
    def test_certificates_match_the_streaming_search(self, problem):
        """One table across a sweep, rows in any order, against the
        streaming brute force: OPT, g(OPT), c(OPT) and the verdict."""
        dec, ms, chosen_code = problem
        ground = union_of((dec.ground,) if dec.kind == "subset" else dec.ceiling)
        chosen = next(itertools.islice(ground.subsets(), chosen_code, None))
        if dec.kind == "partition":
            chosen = tuple(cap & chosen for cap in dec.ceiling)
        result = RunResult(chosen, 0.0, ())
        table = optimum_table(dec)
        for m in ms:
            try:
                want = naive_certificate(dec, m, chosen)
            except ValidationError as err:
                with pytest.raises(ValidationError, match=str(err)):
                    certify(dec, m, result, table)
                continue
            cert = certify(dec, m, result, table)
            assert (cert.opt, cert.g_opt.hex(), cert.c_opt.hex(), cert.satisfied) == want, m

    def test_fills_lazily_by_size(self):
        calls = []
        table = OptimumTable(lambda S: calls.append(S) or float(S.size % 3), SubsetMask.full(8))
        for m in (1, 2, 1):
            table.opt(m, "le")
        assert max(S.size for S in calls) == 2
        assert len(calls) == len(set(calls)) == 1 + 8 + 28
        calls.clear()
        table.opt(3, "eq")
        assert len(calls) == 56 and {S.size for S in calls} == {3}

    @pytest.mark.parametrize("ground, ceiling", [
        ((0, 1, 2, 3, 4), ((0, 1), (2, 3, 4))),  # contiguous
        ((0, 1, 2, 4, 5), ((0, 4, 5), (2, 1), ())),  # non-contiguous, an empty cap
        ((1, 2, 4), ((0, 1, 2), (3, 4, 5))),  # caps reaching past the ground set
        ((3,), ((), ())),  # nothing below the ceiling
    ], ids=("contiguous", "non-contiguous", "past the ground", "empty"))
    def test_codes_decode_in_counting_order(self, ground, ceiling):
        ground = SubsetMask.of(6, ground)
        caps = tuple(SubsetMask.of(6, cap) & ground for cap in ceiling)
        for domain, want in ((ground, ground.subsets()), (caps, parts_below(caps))):
            table = OptimumTable(lambda candidate: 0.0, domain)
            assert [table.candidate(code) for code in range(len(table.sizes))] == list(want)
            assert table.sizes.dtype == np.int8

    def test_values_evaluate_only_what_opt_left_unfilled(self):
        calls = []
        table = OptimumTable(lambda S: calls.append(S) or float(S.size), SubsetMask.full(5))
        table.opt(2, "le")
        first, every = list(calls), np.arange(len(table.sizes))
        calls.clear()
        values = table.values(every)
        assert calls == [table.candidate(code) for code in every if table.sizes[code] > 2]
        assert not set(calls) & set(first)
        assert values.tolist() == table.sizes.tolist()
        calls.clear()
        table.values(every)
        assert calls == []

    @pytest.mark.parametrize("problem, algorithm, ms", [
        ("entropy", "distorted", range(1, 3)),
        ("dist2indp", "greedy", range(2, 4)),  # "eq" rows: sizes 2 and 3 only
    ])
    def test_a_sweep_evaluates_no_larger_candidate(self, monkeypatch, rng, problem, algorithm,
                                                   ms):
        P, pi = random_reversible_chain(rng, (2,) * 6)
        dec = build_subset_objective(problem, P, pi)
        sizes = []

        class Spy(OptimumTable):
            def __init__(self, fn, domain):
                super().__init__(lambda S: sizes.append(S.size) or fn(S), domain)

        monkeypatch.setattr(optimizers, "OptimumTable", Spy)
        cli.run_selection(dec, algorithm, ms, oracle=True)
        admitted = [k for k in range(7) if (k in ms if dec.constraint == "eq" else k <= ms[-1])]
        assert set(sizes) == set(admitted)
        assert len(sizes) == sum(math.comb(6, k) for k in admitted)  # each candidate once

    def test_nan_is_an_error_naming_the_first_nan_candidate(self):
        nan_at_pairs = lambda S: math.nan if S.size == 2 else float(S.size)
        with pytest.raises(ValidationError, match=r"SubsetMask\(\{0, 1\}, d=3\) is nan"):
            OptimumTable(nan_at_pairs, SubsetMask.full(3)).opt(3)
        with pytest.raises(ValidationError, match=r"SubsetMask\(\{\}, d=3\) is nan"):
            OptimumTable(lambda S: math.nan, SubsetMask.full(3)).opt(3)
        # a NaN the row does not admit is never read
        assert OptimumTable(nan_at_pairs, SubsetMask.full(3)).opt(1)[0].size == 1

    def test_infinities_keep_the_first_found_order(self):
        inf_at_pairs = lambda S: math.inf if S.size == 2 else float(S.size)
        assert OptimumTable(inf_at_pairs, SubsetMask.full(3)).opt(3) == (
            SubsetMask.of(3, (0, 1)), math.inf)
        # -inf never wins; a row of -inf alone has no optimum
        minus_inf_but_last = lambda S: 0.0 if S.bits == 0b110 else -math.inf
        assert OptimumTable(minus_inf_but_last, SubsetMask.full(3)).opt(2)[0].bits == 0b110
        with pytest.raises(ValidationError, match="-inf"):
            OptimumTable(lambda S: -math.inf, SubsetMask.full(3)).opt(2)

    def test_unknown_constraint(self):
        with pytest.raises(ValidationError, match="unknown constraint"):
            OptimumTable(lambda S: 0.0, SubsetMask.full(2)).opt(1, "ge")
