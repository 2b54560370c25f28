"""Acceptance gate: every criterion from the build contract, at its stated
tolerance, printing one pass/fail line per criterion.

Criterion families:
1. Curie-Weiss reference values (d=10, T=10, h=1), each within 1e-4, with a
   two-minute budget for the whole family.
2. The d=8 leave-one-out mixing study (split coordinate and worst-case TV
   values within 0.005, one-minute budget).
3. Property suites: structural (super/sub)modularity, identities, bound
   certificates, and algorithm equivalences on seeded random chains,
   exhaustive at d <= 4 (k <= 2), zero failures over >= 50 instances.
4. Bernoulli-Laplace tables: reproducible only from an externally supplied
   chain file; skipped when none is provided.
"""

import os
import time

import numpy as np
import pytest

import mcselect.functionals as fn
from helpers_naive import (
    check_supermodular,
    random_product_chain,
    random_reversible_chain,
    stationary_kernel,
)
from mcselect.chain_core import (
    Distribution,
    EdgeMeasure,
    SubsetMask,
    marginalize,
    stationary_distribution,
    tensor,
    tensor_dist,
)
from mcselect.cli import mcmc_study, run_selection
from mcselect.models import CurieWeissParams, curie_weiss_chain, load_chain
from mcselect.objectives import (
    Workspace,
    build_partition_objective,
    build_subset_objective,
)
from mcselect.optimizers import (
    OptimumTable,
    batch_certificate,
    batch_greedy,
    certify,
    distorted_greedy,
    generalized_distorted_greedy,
    greedy,
    local_search,
)
from mcselect.oracle import (
    check_k_submodular,
    check_monotone,
    check_submodular,
    ratios,
)

TOL_VALUE = 1e-4
TOL_TV = 0.005
TOL_PROP = 1e-9
TOL_IDENT = 1e-10
CW_CAPS = (SubsetMask.of(10, (0, 1, 2, 3)), SubsetMask.of(10, (4, 5, 6)),
           SubsetMask.of(10, (7, 8, 9)))

_crit1_seconds: list[float] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def timed(fn_, *args, **kwargs):
    start = time.perf_counter()
    out = fn_(*args, **kwargs)
    _crit1_seconds.append(time.perf_counter() - start)
    return out


def ones(mask):
    return sorted(i + 1 for i in mask)


class TestCriterion1CurieWeissGoldens:
    def test_entropy_rate_of_full_chain(self, cw10):
        P, pi = cw10
        value = timed(fn.entropy_rate, P, pi)
        report("1 entropy rate H(P) = 2.29109", abs(value - 2.29109) <= TOL_VALUE,
               f"got {value:.6f}")

    def test_entropy_greedy_sweep(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("entropy", P, pi, workspace=cw10_ws)
        values = {}
        for m in (1, 2, 10):
            values[m] = timed(greedy, dec.f, dec.ground, m, dec.constraint).objective_value
        ok = (abs(values[1] - 0.29085) <= TOL_VALUE
              and abs(values[2] - 0.57371) <= TOL_VALUE
              and abs(values[10] - 2.29109) <= TOL_VALUE)
        report("1 entropy greedy m=1/2/10 = 0.29085/0.57371/2.29109", ok,
               " ".join(f"{m}:{v:.5f}" for m, v in values.items()))

    def test_entropy_distorted_m8(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("entropy", P, pi, workspace=cw10_ws)
        value = timed(distorted_greedy, dec, 8).objective_value
        report("1 entropy distorted greedy m=8 = 1.98458",
               abs(value - 1.98458) <= TOL_VALUE, f"got {value:.6f}")

    def test_k_entropy_generalized(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_partition_objective("k-entropy", P, pi, CW_CAPS, workspace=cw10_ws)
        v3 = timed(generalized_distorted_greedy, dec, 3).objective_value
        v10 = timed(generalized_distorted_greedy, dec, 10).objective_value
        ok = abs(v3 - 0.86152) <= TOL_VALUE and abs(v10 - 2.72011) <= TOL_VALUE
        report("1 k-entropy generalized m=3/10 = 0.86152/2.72011", ok,
               f"got {v3:.5f}/{v10:.5f}")

    def test_dist2fact_greedy_m1(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("dist2fact", P, pi, block_order=True,
                                     workspace=cw10_ws)
        value = timed(greedy, dec.f, dec.ground, 1, dec.constraint).objective_value
        report("1 dist2fact greedy m=1 = 0.14837",
               abs(value - 0.14837) <= TOL_VALUE, f"got {value:.6f}")

    def test_k_dist2fact_plateau(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_partition_objective("k-dist2fact", P, pi, CW_CAPS, block_order=True,
                                        workspace=cw10_ws)
        values = [timed(generalized_distorted_greedy, dec, m).objective_value
                  for m in (7, 8, 9, 10)]
        ok = all(abs(v - 0.46887) <= TOL_VALUE for v in values)
        report("1 k-dist2fact generalized m=7..10 plateau = 0.46887", ok,
               " ".join(f"{v:.5f}" for v in values))

    def test_dist2indp_greedy_m2(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("dist2indp", P, pi, workspace=cw10_ws)
        result = timed(greedy, dec.f, dec.ground, 2, dec.constraint)
        value = dec.report_value(result.chosen)
        report("1 dist2indp greedy m=2 value = 0.00757 (co-optimal pair)",
               abs(value - 0.00757) <= TOL_VALUE,
               f"got {value:.6f} at {ones(result.chosen)}")

    def test_dist2stat_batch_greedy(self, cw10, cw10_ws):
        P, pi = cw10
        dec = build_subset_objective("dist2stat", P, pi, workspace=cw10_ws)
        one = timed(batch_greedy, dec.f, dec.ground, 1, [1])
        two = timed(batch_greedy, dec.f, dec.ground, 2, [2])
        full = timed(dec.f, SubsetMask.full(10))
        ok = (ones(one.chosen) == [6] and abs(one.objective_value - 0.40245) <= TOL_VALUE
              and abs(two.objective_value - 0.80739) <= TOL_VALUE
              and abs(full - 4.46975) <= TOL_VALUE)
        report("1 dist2stat batch m=1 -> {6} 0.40245; m=2 0.80739; full 4.46975", ok,
               f"{ones(one.chosen)} {one.objective_value:.5f} / "
               f"{two.objective_value:.5f} / {full:.5f}")

    def test_dist2fact_fixed(self, cw10, cw10_ws):
        P, pi = cw10
        W = SubsetMask.of(10, (0, 1, 2))
        dec = build_subset_objective("dist2fact-fixed", P, pi, W=W, workspace=cw10_ws)
        one = timed(batch_greedy, dec.f, dec.ground, 1, [1]).objective_value
        seven = timed(batch_greedy, dec.f, dec.ground, 7, [2, 2, 2, 1]).objective_value
        ok = abs(one - 0.02751) <= TOL_VALUE and abs(seven - 0.30491) <= TOL_VALUE
        report("1 fixed-set factorizability m=1/7 = 0.02751/0.30491", ok,
               f"got {one:.5f}/{seven:.5f}")

    def test_runtime_budget(self):
        total = sum(_crit1_seconds)
        report("1 runtime budget (<= 120 s)", total <= 120.0, f"{total:.1f} s")


class TestCriterion2Mixing:
    def test_leave_one_out_study(self):
        start = time.perf_counter()
        study = mcmc_study(curie_weiss_chain(CurieWeissParams(8, 10.0, 1.0)), n_max=10)
        elapsed = time.perf_counter() - start
        ok_star = study.i_star + 1 == 4
        ok_orig = abs(study.tv_original - 0.22) <= TOL_TV
        ok_fact = abs(study.tv_factorized - 0.19) <= TOL_TV
        report("2 mixing split i* = 4", ok_star, f"got {study.i_star + 1}")
        report("2 worst-case TV at n=10: P = 0.22", ok_orig,
               f"got {study.tv_original:.4f}")
        report("2 worst-case TV at n=10: factorized = 0.19", ok_fact,
               f"got {study.tv_factorized:.4f}")
        report("2 runtime budget (<= 60 s)", elapsed <= 60.0, f"{elapsed:.1f} s")


class TestCriterion3Properties:
    def test_structural_properties_50_instances(self):
        rng = np.random.default_rng(31415)
        failures = 0
        for i in range(50):
            dims = (2, 2, 2, 2) if i % 5 == 0 else (2, 2, 2)
            P, pi = random_reversible_chain(rng, dims)
            ws = Workspace(P, pi)
            ground = SubsetMask.full(len(dims))
            checks = [
                check_submodular(ws.entropy_rate, ground, TOL_PROP),
                check_submodular(ws.dist_to_factorizability, ground, TOL_PROP),
                check_monotone(ws.dist_to_independence, ground, tol=TOL_PROP),
                check_supermodular(ws.dist_to_independence, ground, TOL_PROP),
                check_monotone(lambda S: ws.dist_to_independence(ground - S), ground,
                               nondecreasing=False, tol=TOL_PROP),
                check_supermodular(lambda S: ws.dist_to_independence(ground - S),
                                   ground, TOL_PROP),
                check_monotone(ws.dist_to_stationarity, ground, tol=TOL_PROP),
            ]
            sym = all(
                abs(ws.dist_to_factorizability(SubsetMask(b, ground.d))
                    - ws.dist_to_factorizability(ground - SubsetMask(b, ground.d)))
                <= TOL_IDENT
                for b in range(1 << ground.d)
            )
            if not (sym and all(c.passed for c in checks)):
                failures += 1
        report("3 structural properties on 50 random chains", failures == 0,
               f"{failures} failing instances")

    def test_chain_rule_tensorization_partition_lemma(self):
        rng = np.random.default_rng(27182)
        failures = 0
        for i in range(25):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            blocks = (SubsetMask.of(4, (0, 2)), SubsetMask.of(4, (1, 3)))
            projected = [EdgeMeasure(P, pi).keep_in(S) for S in blocks]
            marginals = [marginalize(pi, S) for S in blocks]
            prod_chain = tensor(projected)
            prod_pi = tensor_dist(marginals)
            # chain rule for the distance to independence of a tensor chain
            lhs = fn.distance_to_independence(prod_chain, prod_pi, SubsetMask.full(4))
            rhs = sum(fn.distance_to_independence(P, pi, S) for S in blocks)
            if abs(lhs - rhs) > TOL_IDENT:
                failures += 1
            # tensorization of the distance to stationarity
            lhs = fn.kl_rate(prod_chain, stationary_kernel(prod_pi), prod_pi).value
            rhs = sum(fn.distance_to_stationarity(P, pi, S) for S in blocks)
            if abs(lhs - rhs) > TOL_IDENT:
                failures += 1
            # partition lemma, random reference kernel and reference measure
            L, _ = random_reversible_chain(rng, (2, 2, 2, 2))
            probs = rng.random(16) + 0.05
            ref = Distribution(P.space, probs / probs.sum())
            full_kl = fn.kl_rate(P, L, ref).value
            for bits in range(16):
                S = SubsetMask(bits, 4)
                proj = fn.kl_rate(
                    EdgeMeasure(P, ref).keep_in(S), EdgeMeasure(L, ref).keep_in(S),
                    marginalize(ref, S),
                ).value
                if proj > full_kl + TOL_IDENT:
                    failures += 1
        report("3 chain rule, tensorization, partition lemma (25 instances)",
               failures == 0, f"{failures} failures")

    def test_every_catalog_g_monotone_and_submodular(self):
        rng = np.random.default_rng(16180)
        failures = []
        caps4 = (SubsetMask.of(4, (0, 1)), SubsetMask.of(4, (2, 3)))
        for i in range(8):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            Pp, pip = random_product_chain(rng, (2, 2, 2, 2))
            ws, wsp = Workspace(P, pi), Workspace(Pp, pip)
            ground = SubsetMask.full(4)
            subset_cases = [
                ("entropy", P, pi, ws, {}),
                ("dist2fact", P, pi, ws, {}),
                ("dist2indp", P, pi, ws, {}),
                ("dist2indp-complement", P, pi, ws, {}),
                ("dist2stat", P, pi, ws, {}),
                ("dist2fact-fixed", P, pi, ws, {"W": SubsetMask.of(4, (0,))}),
                ("entropy-product", Pp, pip, wsp, {}),
                ("dist2stat-product", Pp, pip, wsp, {}),
                ("dist2stat-complement", Pp, pip, wsp, {}),
            ]
            for problem_id, cP, cpi, cws, kwargs in subset_cases:
                dec = build_subset_objective(problem_id, cP, cpi, workspace=cws, **kwargs)
                sub_ground = dec.ground
                if not check_monotone(dec.g, sub_ground, tol=TOL_PROP).passed:
                    failures.append((i, problem_id, "monotone"))
                # dist2stat and dist2fact-fixed are raw monotone batch-greedy
                # targets, not monotonized decompositions; no submodularity
                # is claimed for them (their guarantee runs through the
                # supermodularity/submodularity ratios instead)
                if problem_id not in ("dist2stat", "dist2fact-fixed") and not check_submodular(
                    dec.g, sub_ground, TOL_PROP
                ).passed:
                    failures.append((i, problem_id, "submodular"))
            partition_cases = [
                ("k-entropy", P, pi, ws),
                ("k-dist2fact", P, pi, ws),
                ("k-dist2indp", P, pi, ws),
                ("k-dist2indp-complement", P, pi, ws),
                ("k-entropy-product", Pp, pip, wsp),
                ("k-dist2stat", Pp, pip, wsp),
                ("k-dist2stat-complement", Pp, pip, wsp),
            ]
            for problem_id, cP, cpi, cws in partition_cases:
                dec = build_partition_objective(problem_id, cP, cpi, caps4, workspace=cws)
                rep = check_k_submodular(dec.g, ground, 2, TOL_PROP, ceiling=caps4)
                if not rep.lattice.passed or not rep.orthant.passed:
                    failures.append((i, problem_id, "k-submodular"))
                empty = dec.empty_solution()
                for j, cap in enumerate(caps4):
                    grown = list(empty)
                    base = dec.g(empty)
                    for e in cap:
                        one = tuple(
                            p if t != j else p.add(e) for t, p in enumerate(empty)
                        )
                        if dec.g(one) - base < -TOL_PROP:
                            failures.append((i, problem_id, "monotone"))
        report("3 catalog g monotone + (k-)submodular (8 instances, all entries)",
               not failures, f"failures: {failures[:3]}")

    def test_bound_certificates_every_entry(self):
        rng = np.random.default_rng(14142)
        failures = []
        caps4 = (SubsetMask.of(4, (0, 1)), SubsetMask.of(4, (2, 3)))
        caps5 = (SubsetMask.of(5, (0, 1, 2)), SubsetMask.of(5, (3, 4)))
        for i in range(5):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            Pp, pip = random_product_chain(rng, (2, 2, 2, 2))
            P5, pi5 = random_reversible_chain(rng, (2, 2, 2, 2, 2))
            ws, wsp, ws5 = Workspace(P, pi), Workspace(Pp, pip), Workspace(P5, pi5)
            subset_cases = [
                ("entropy", P, pi, ws, {}),
                ("dist2fact", P, pi, ws, {}),
                ("dist2indp", P, pi, ws, {}),
                ("dist2indp-complement", P, pi, ws, {}),
                ("entropy-product", Pp, pip, wsp, {}),
                ("dist2stat-product", Pp, pip, wsp, {}),
                ("dist2stat-complement", Pp, pip, wsp, {}),
            ]
            for problem_id, cP, cpi, cws, kwargs in subset_cases:
                dec = build_subset_objective(problem_id, cP, cpi, workspace=cws, **kwargs)
                for m in (1, 2, 3):
                    if dec.min_support is not None and m < dec.min_support:
                        continue
                    if dec.max_support is not None and m > dec.max_support:
                        continue
                    result = distorted_greedy(dec, m)
                    if not certify(dec, m, result).satisfied:
                        failures.append((i, problem_id, m))
            partition_cases = [
                ("k-entropy", P, pi, caps4, ws),
                ("k-dist2fact", P, pi, caps4, ws),
                ("k-dist2indp", P5, pi5, caps5, ws5),
                ("k-dist2indp-complement", P5, pi5, caps5, ws5),
                ("k-entropy-product", Pp, pip, caps4, wsp),
                ("k-dist2stat", Pp, pip, caps4, wsp),
                ("k-dist2stat-complement", Pp, pip, caps4, wsp),
            ]
            for problem_id, cP, cpi, caps, cws in partition_cases:
                dec = build_partition_objective(problem_id, cP, cpi, caps, workspace=cws)
                for m in (1, 2, 3):
                    if dec.min_support is not None and m < dec.min_support:
                        continue
                    if dec.max_support is not None and m > dec.max_support:
                        continue
                    result = generalized_distorted_greedy(dec, m)
                    if not certify(dec, m, result).satisfied:
                        failures.append((i, problem_id, m))
        report("3 distorted-greedy certificates vs brute-force OPT (5 instances)",
               not failures, f"failures: {failures[:3]}")

    def test_generalized_reduces_to_distorted_at_k1(self):
        rng = np.random.default_rng(17320)
        failures = 0
        for _ in range(5):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            ws = Workspace(P, pi)
            for problem_id, partition_id in [
                ("entropy", "k-entropy"),
                ("dist2fact", "k-dist2fact"),
                ("dist2indp", "k-dist2indp"),
            ]:
                sub = build_subset_objective(problem_id, P, pi, workspace=ws)
                part = build_partition_objective(
                    partition_id, P, pi, (SubsetMask.full(4),), workspace=ws)
                for m in (2, 3):
                    a = distorted_greedy(sub, m)
                    b = generalized_distorted_greedy(part, m)
                    if [(s.iteration, s.element, s.accepted) for s in a.trajectory] != [
                        (s.iteration, s.element, s.accepted) for s in b.trajectory
                    ]:
                        failures += 1
        report("3 generalized distorted greedy at k=1 = distorted greedy",
               failures == 0, f"{failures} trajectory mismatches")

    def test_local_search_symmetric_guarantee(self):
        rng = np.random.default_rng(16018)
        eps = 0.1
        failures = 0
        P6, pi6 = curie_weiss_chain(CurieWeissParams(6, 10.0, 1.0))
        instances = [(P6, pi6)] + [random_reversible_chain(rng, (2, 2, 2, 2)) for _ in range(5)]
        for P, pi in instances:
            dec = build_subset_objective("dist2fact", P, pi)
            d = P.space.d
            result = local_search(dec.f, dec.ground, eps)
            _, opt = OptimumTable(dec.f, dec.ground).opt(d, "le")
            if result.objective_value < (0.5 - eps / d) * opt - TOL_PROP:
                failures += 1
        report("3 local search >= (1/2 - eps/d) OPT on symmetric instances",
               failures == 0, f"{failures} failures")

    def test_batch_greedy_equivalence_and_bound(self):
        rng = np.random.default_rng(12020)
        failures = 0
        for _ in range(10):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2))
            dec = build_subset_objective("dist2stat", P, pi)
            for m in (1, 2, 3):
                a = batch_greedy(dec.f, dec.ground, m, [1] * m)
                b = greedy(dec.f, dec.ground, m, "eq")
                if a.chosen != b.chosen:
                    failures += 1
        for _ in range(3):
            P, pi = random_reversible_chain(rng, (2, 2, 2, 2, 2))
            dec = build_subset_objective("dist2stat", P, pi)
            m, sizes = 4, [2, 2]
            result = batch_greedy(dec.f, dec.ground, m, sizes)
            gamma = ratios(dec.f, dec.ground, m).gamma
            eta_by_batch = {q: ratios(dec.f, dec.ground, q).eta for q in set(sizes)}
            cert = batch_certificate(dec.f, dec.ground, m, sizes, eta_by_batch,
                                     gamma, result)
            if not cert.satisfied:
                failures += 1
        report("3 batch greedy: singleton batches = greedy; exact-ratio bound holds",
               failures == 0, f"{failures} failures")


class TestCriterion4BernoulliLaplace:
    def test_external_chain_file(self):
        path = os.environ.get("MCSELECT_BL_CHAIN", "")
        if not path or not os.path.exists(path):
            print("[acceptance] 4 Bernoulli-Laplace tables: SKIP "
                  "(no external chain file; construction out of scope)")
            pytest.skip("Bernoulli-Laplace chain file not provided "
                        "(set MCSELECT_BL_CHAIN to run)")
        P, pi = load_chain(path)
        if pi is None:
            pi = stationary_distribution(P)
        value = fn.entropy_rate(P, pi)
        report("4 Bernoulli-Laplace H(P) = 1.96068",
               abs(value - 1.96068) <= TOL_VALUE, f"got {value:.6f}")
        dec = build_subset_objective("entropy", P, pi)
        rows = run_selection(dec, "greedy", [1, 2])
        report("4 Bernoulli-Laplace select pipeline runs", len(rows) == 2)
