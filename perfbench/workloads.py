"""The benchmark workloads: input generation from the seed, one timed round
through mcselect's public calls, and the checks of a round's outputs.

Program calls go through module attributes (``cli.run_selection``, not a
name imported at load time) so that the traced run sees them.  A round
keeps only small results (rows, studies, check reports), never a chain or a
workspace, so that peak memory is that of one round.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from mcselect import chain_core, cli, models, objectives, oracle
from mcselect.chain_core import ProductStateSpace, SubsetMask, TransitionMatrix

VALUE_TOL = 1e-9  # program vs reference evaluator, same chain and pi
CW12_TOL = 1e-8  # program (power-iteration pi) vs evaluator (Gibbs pi)
TV_TOL = 0.005


class Clock:
    """Accumulates the setup and solve time of one round."""

    def __init__(self):
        self.setup = 0.0
        self.solve = 0.0

    @contextmanager
    def phase(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            setattr(self, name, getattr(self, name) + perf_counter() - start)


@dataclass(frozen=True)
class Entry:
    """One `mcselect select` sweep: catalog entry, algorithm and budgets."""

    problem: str
    algorithm: str
    ms: tuple[int, ...]
    block_order: bool = False
    partition: bool = False
    batch: str = "ones"

    @property
    def key(self) -> str:
        return f"{self.problem}/{self.algorithm}" + ("/block-order" if self.block_order else "")


@dataclass
class Sweep:
    """The rows of one sweep, or the error that stopped it, plus the
    objective's reporting constants read after the build."""

    entry: Entry
    rows: list | None = None
    error: str | None = None
    shift: float = 0.0
    report_sign: float = 1.0
    c_const: float = 0.0
    c_weights: dict | None = None
    build_s: float = 0.0
    sweep_s: float = 0.0


def labels(mask: SubsetMask) -> list[int]:
    return [i + 1 for i in mask]


def run_sweep(entry: Entry, clock: Clock, P, pi, caps=None, oracle_certs=False,
              after=None) -> Sweep:
    """Build the entry's objective (setup) and run its sweep (solve), as
    `mcselect select` does, with a fresh Workspace per entry.  ``after``
    receives the objective inside the solve phase, for oracle checks."""
    sweep = Sweep(entry)
    setup0, solve0 = clock.setup, clock.solve
    try:
        with clock.phase("setup"):
            if entry.partition:
                dec = objectives.build_partition_objective(
                    entry.problem, P, pi, caps, block_order=entry.block_order)
            else:
                dec = objectives.build_subset_objective(
                    entry.problem, P, pi, block_order=entry.block_order)
        sweep.shift, sweep.report_sign = dec.shift, dec.report_sign
        sweep.c_const, sweep.c_weights = dec.c_const, dict(dec.c_weights)
        with clock.phase("solve"):
            sweep.rows = cli.run_selection(dec, entry.algorithm, list(entry.ms),
                                           batch_spec=entry.batch, oracle=oracle_certs)
            if after is not None:
                after(dec)
    except Exception as err:  # a failed sweep is counted, not fatal
        sweep.error = f"{type(err).__name__}: {err}"
    sweep.build_s, sweep.sweep_s = clock.setup - setup0, clock.solve - solve0
    return sweep


class Report:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def sweep_failed(self, sweep: Sweep, ops_per_row: int = 1) -> bool:
        """Count every operation of a sweep that raised as failed."""
        if sweep.error is None:
            return False
        for m in sweep.entry.ms:
            for _ in range(ops_per_row):
                self.op(False, f"{sweep.entry.key} m={m}: {sweep.error}")
        return True


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
class PaperSuite:
    """The paper's experiment suite: the reference sweeps on Curie-Weiss
    d=10, T=10, h=1 with closed-form pi, then the leave-one-out mixing study
    on Curie-Weiss d=8 with the seeded sampler comparison.  The seed sets
    the order in which the sweeps run and the sampler's seed; the chains
    are the paper's."""

    D = 10
    CEILING = ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
    ENTRIES = (
        Entry("entropy", "greedy", tuple(range(1, 11))),
        Entry("entropy", "distorted", tuple(range(1, 11))),
        Entry("dist2fact", "greedy", tuple(range(1, 11)), block_order=True),
        Entry("dist2indp", "greedy", tuple(range(2, 11))),
        Entry("dist2stat", "batch", tuple(range(1, 11)), batch="pairs"),
        Entry("k-entropy", "gen-distorted", tuple(range(1, 11)), partition=True),
        Entry("k-dist2fact", "gen-distorted", tuple(range(1, 11)), block_order=True,
              partition=True),
    )

    def __init__(self, seed: int, workdir: Path):
        self.entries = list(self.ENTRIES)
        random.Random(seed).shuffle(self.entries)
        self.caps = tuple(SubsetMask.of(self.D, g) for g in self.CEILING)
        self.mixing = MixingStudy(seed)
        self._ref = None
        self._ref_values: dict = {}

    def round(self, clock: Clock) -> dict:
        with clock.phase("setup"):
            P, pi = models.curie_weiss_chain(models.CurieWeissParams(d=self.D, T=10.0, h=1.0))
        sweeps = [run_sweep(e, clock, P, pi, self.caps) for e in self.entries]
        del P, pi
        return {"sweeps": sweeps, "study": self.mixing.run(clock)}

    def notes(self, rounds: list[dict]) -> list[str]:
        """Per-entry build and sweep times, and the study's, means over rounds."""
        out = []
        for i, sweep in enumerate(rounds[0]["sweeps"]):
            build = statistics.fmean(r["sweeps"][i].build_s for r in rounds)
            solve = statistics.fmean(r["sweeps"][i].sweep_s for r in rounds)
            out.append(f"{sweep.entry.key}: build {build:.3f} s, sweep {solve:.3f} s")
        study = statistics.fmean(r["study"][1] for r in rounds)
        out.append(f"mcmc_study d=8 with {self.mixing.SAMPLES} samples: {study:.3f} s")
        return out

    def evaluator(self) -> ref.Chain:
        if self._ref is None:
            chain = ref.Chain.curie_weiss(self.D, 10.0, 1.0)
            # the evaluator itself must reproduce the paper's d=10 rows
            for m, (subset, value) in ref.ENTROPY_GREEDY.items():
                got = chain.entropy_rate([i - 1 for i in subset])
                if not close(got, value, ref.PAPER_TOL):
                    raise RuntimeError(f"reference evaluator: H(P_S) at m={m} is {got}")
            for m, (subset, value) in ref.DIST2FACT_GREEDY.items():
                S = [i - 1 for i in subset]
                got = chain.kl_to_blocks([S, [i for i in range(self.D) if i not in S]], True)
                if not close(got, value, ref.PAPER_TOL):
                    raise RuntimeError(f"reference evaluator: block-order KL at m={m} is {got}")
            self._ref = chain
        return self._ref

    def reference_value(self, entry: Entry, chosen) -> float:
        """The reported value of ``chosen`` according to the evaluator."""
        key = (entry.key, tuple(p.bits for p in chosen.parts) if entry.partition
               else chosen.bits)
        if key not in self._ref_values:
            self._ref_values[key] = report_value(self.evaluator(), entry, chosen)
        return self._ref_values[key]

    def check(self, rounds: list[dict], report: Report) -> None:
        for result in rounds:
            for sweep in result["sweeps"]:
                if report.sweep_failed(sweep):
                    continue
                prev = -math.inf
                for row in sweep.rows:
                    ok, why = self.check_row(sweep.entry, row, prev)
                    report.op(ok, f"{sweep.entry.key} m={row.m}: {why}")
                    prev = row.value
        self.mixing.check([r["study"][0] for r in rounds], report)

    def check_row(self, entry: Entry, row, prev: float) -> tuple[bool, str]:
        m, value = row.m, row.value
        if not close(value, self.reference_value(entry, row.chosen), VALUE_TOL):
            return False, f"value {value} disagrees with the reference evaluator"
        key = (entry.problem, entry.algorithm)
        if key == ("entropy", "greedy"):
            subset, paper = ref.ENTROPY_GREEDY[m]
            if labels(row.chosen) not in (subset, ref.mirror(subset, self.D)):
                return False, f"picked {labels(row.chosen)}, paper {subset}"
            return close(value, paper, ref.PAPER_TOL), f"value {value}, paper {paper}"
        if key == ("entropy", "distorted"):
            paper = ref.ENTROPY_DISTORTED[m]
            return close(value, paper, ref.PAPER_TOL), f"value {value}, paper {paper}"
        if key == ("dist2fact", "greedy"):
            if m in ref.DIST2FACT_GREEDY:
                subset, paper = ref.DIST2FACT_GREEDY[m]
                if labels(row.chosen) not in (subset, ref.mirror(subset, self.D)):
                    return False, f"picked {labels(row.chosen)}, paper {subset}"
                return close(value, paper, ref.PAPER_TOL), f"value {value}, paper {paper}"
            # no paper row: greedy under |S| <= m never loses value as m grows
            return value >= prev - VALUE_TOL, f"value {value} below m-1 value {prev}"
        if key == ("dist2indp", "greedy"):
            paper = ref.DIST2INDP_GREEDY[m]
            ok = row.chosen.size == m and close(value, paper, ref.PAPER_TOL)
            return ok, f"value {value} (|S|={row.chosen.size}), paper {paper}"
        if key == ("dist2stat", "batch"):
            paper = ref.DIST2STAT_BATCH_PAIRS[m]
            ok = row.chosen.size == m and close(value, paper, ref.PAPER_TOL)
            return ok, f"value {value} (|S|={row.chosen.size}), paper {paper}"
        if key == ("k-entropy", "gen-distorted"):
            if m in ref.K_ENTROPY:
                paper = ref.K_ENTROPY[m]
                return close(value, paper, ref.PAPER_TOL), f"value {value}, paper {paper}"
            floor = ref.K_ENTROPY_FLOOR[m]
            return value >= floor - ref.PAPER_TOL, f"value {value} below paper row {floor}"
        if key == ("k-dist2fact", "gen-distorted"):
            paper = ref.K_DIST2FACT[m]
            return close(value, paper, ref.PAPER_TOL), f"value {value}, paper {paper}"
        return False, "no check for this entry"


def report_value(chain: ref.Chain, entry: Entry, chosen) -> float:
    """The value `run_selection` reports for ``chosen`` by the evaluator:
    ``chosen`` is a subset's coordinates, or a partition's groups."""
    groups = [tuple(p) for p in getattr(chosen, "parts", chosen)] if entry.partition else []
    S = () if entry.partition else tuple(chosen)
    used = {i for g in groups for i in g} | set(S)
    rest = tuple(i for i in range(chain.d) if i not in used)
    if entry.problem == "k-entropy":
        return sum(chain.entropy_rate(g) for g in groups)
    if entry.problem == "k-dist2fact":
        return chain.kl_to_blocks(groups + [rest], entry.block_order)
    if entry.problem == "entropy":
        return chain.entropy_rate(S)
    if entry.problem == "dist2fact":
        return chain.kl_to_blocks([S, rest], entry.block_order)
    if entry.problem == "dist2indp":
        return chain.dist_to_independence(S)
    if entry.problem == "dist2stat":
        return chain.dist_to_stationarity(S)
    raise ValueError(f"no reference value for {entry.key}")


# ---------------------------------------------------------------------------
class CW12Scale:
    """Curie-Weiss d=12, T=10, h=1 with the closed-form pi discarded and
    solved again by `stationary_distribution`, as for a chain file without a
    stored stationary vector; then short entropy/greedy and dist2stat/batch
    sweeps.  The seed sets the order of the two sweeps.  It does not touch
    the chain: flipping the sign of h, say, moves a floating-point tie
    between coordinates 1 and 12, and with it which masks greedy projects,
    which changes the solve time by about a third."""

    D = 12
    ENTRIES = (
        Entry("entropy", "greedy", (1, 2)),
        Entry("dist2stat", "batch", (2,), batch="pairs"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.entries = list(self.ENTRIES)
        random.Random(seed).shuffle(self.entries)
        self._ref = None

    def round(self, clock: Clock) -> dict:
        with clock.phase("setup"):
            P, _closed_form = models.curie_weiss_chain(
                models.CurieWeissParams(d=self.D, T=10.0, h=1.0))
            del _closed_form
            pi = chain_core.stationary_distribution(P)
        sweeps = [run_sweep(e, clock, P, pi) for e in self.entries]
        return {"pi": pi.probs, "sweeps": sweeps}

    def check(self, rounds: list[dict], report: Report) -> None:
        if self._ref is None:
            self._ref = ref.Chain.curie_weiss(self.D, 10.0, 1.0)
        chain = self._ref
        singles = {
            "entropy": [chain.entropy_rate((i,)) for i in range(self.D)],
            "dist2stat": [chain.dist_to_stationarity((i,)) for i in range(self.D)],
        }
        for result in rounds:
            pi_err = float(np.abs(result["pi"] - chain.pi).sum())
            for sweep in result["sweeps"]:
                if report.sweep_failed(sweep):
                    continue
                for row in sweep.rows:
                    what = f"{sweep.entry.key} m={row.m}"
                    if pi_err > CW12_TOL:
                        report.op(False, f"{what}: |pi - Gibbs|_1 = {pi_err:.3e}")
                        continue
                    expect = report_value(chain, sweep.entry, row.chosen)
                    if not close(row.value, expect, CW12_TOL):
                        report.op(False, f"{what}: value {row.value}, evaluator {expect}")
                        continue
                    report.op(self.best_singletons(sweep.entry, row, singles[sweep.entry.problem]),
                              f"{what}: picks {labels(row.chosen)} are not the best singletons")

    @staticmethod
    def best_singletons(entry: Entry, row, singles: list[float]) -> bool:
        """Greedy's first pick, and batch greedy's first batch, must be
        among the largest singleton values (ties allowed)."""
        if entry.algorithm == "greedy":
            first = row.trajectory[0].element
            return singles[first] >= max(singles) - VALUE_TOL
        size = min(row.m, 2)
        cutoff = sorted(singles, reverse=True)[size - 1]
        return row.chosen.size == row.m and all(
            singles[i] >= cutoff - VALUE_TOL for i in row.chosen)


# ---------------------------------------------------------------------------
class MixingStudy:
    """`mcmc_study` on Curie-Weiss d=8 (T=10, h=1), n_max=10, with the
    seeded sampler comparison, sized so that the sampler takes most of it."""

    D = 8
    N_MAX = 10
    SAMPLES = 20_000
    I_STAR = 4  # 1-based
    TV_ORIGINAL = 0.22
    TV_FACTORIZED = 0.19

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, clock: Clock) -> tuple:
        """(study or error message, solve seconds of the study)."""
        with clock.phase("setup"):
            chain = models.curie_weiss_chain(models.CurieWeissParams(d=self.D, T=10.0, h=1.0))
        start = clock.solve
        with clock.phase("solve"):
            try:
                study = cli.mcmc_study(chain, n_max=self.N_MAX, samples=self.SAMPLES,
                                       seed=self.seed)
            except Exception as err:  # a failed study is counted, not fatal
                study = f"{type(err).__name__}: {err}"
        return study, clock.solve - start

    def check(self, studies: list, report: Report) -> None:
        chain = ref.Chain.curie_weiss(self.D, 10.0, 1.0)
        rows, pi = chain.dense(), chain.pi
        split = self.I_STAR - 1
        factor = chain.factorized_dense([[i for i in range(self.D) if i != split], [split]])
        exact = {"original": ref.n_step_row(rows, 0, self.N_MAX),
                 "factorized": ref.n_step_row(factor, 0, self.N_MAX)}
        tv_orig = ref.worst_tv(rows, pi, self.N_MAX)
        tv_fact = ref.worst_tv(factor, pi, self.N_MAX)
        for study in studies:
            report.op(*self.check_study(study, exact, pi, tv_orig, tv_fact))

    def check_study(self, study, exact, pi, tv_orig, tv_fact) -> tuple[bool, str]:
        if isinstance(study, str):
            return False, f"mcmc_study failed: {study}"
        if study.i_star + 1 != self.I_STAR:
            return False, f"i* = {study.i_star + 1}, paper {self.I_STAR}"
        for got, paper, exact_tv, label in (
                (study.tv_original, self.TV_ORIGINAL, tv_orig, "original"),
                (study.tv_factorized, self.TV_FACTORIZED, tv_fact, "factorized")):
            if not close(got, paper, TV_TOL):
                return False, f"worst-case TV {label} {got:.4f}, paper {paper}"
            if not close(got, exact_tv, VALUE_TOL):
                return False, f"worst-case TV {label} {got}, evaluator {exact_tv}"
        for i, curve in study.curves.items():
            if any(b > a + 1e-12 for a, b in zip(curve, curve[1:])):
                return False, f"leave-one-out curve of coordinate {i + 1} increases"
        for label, (tv,) in study.sample_tv.items():
            q = exact[label]
            exact_tv = 0.5 * float(np.abs(q - pi).sum())
            bound = ref.sampling_bound(q, self.SAMPLES)
            if abs(tv - exact_tv) > bound:
                return False, (f"empirical TV {label} {tv:.4f} is not within {bound:.4f} "
                               f"of the exact {exact_tv:.4f}")
        return True, ""


# ---------------------------------------------------------------------------
class CertifySmall:
    """Seeded random chains with every entry positive (dense, not
    reversible) on d = 6, 7, 8 binary coordinates, written without pi and
    read back with `load_chain`; certificates on four entries and the
    exhaustive oracle checks on the entropy objectives."""

    DIMS = (6, 7, 8)
    FLOOR = 0.05  # smallest unnormalized entry, keeps every entry positive

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.chains = []
        for d in self.DIMS:
            n = 1 << d
            rows = rng.random((n, n)) + self.FLOOR
            rows /= rows.sum(axis=1, keepdims=True)
            path = workdir / f"chain-d{d}.json"
            # floats are written with repr, so the file holds exactly these rows
            models.save_chain(path, TransitionMatrix(ProductStateSpace((2,) * d), rows))
            self.chains.append((d, path, rows))
        self._refs: dict[int, tuple] = {}

    @staticmethod
    def ceiling(d: int) -> tuple[tuple[int, ...], ...]:
        a, b = (d + 2) // 3, (d + 1) // 3
        return tuple(range(0, a)), tuple(range(a, a + b)), tuple(range(a + b, d))

    @staticmethod
    def entries(d: int) -> tuple[Entry, ...]:
        return (
            Entry("entropy", "distorted", tuple(range(1, d + 1))),
            Entry("dist2fact", "distorted", tuple(range(1, d + 1))),
            Entry("dist2indp", "greedy", tuple(range(2, d + 1))),
            Entry("k-entropy", "gen-distorted", tuple(range(1, d + 1)), partition=True),
        )

    def round(self, clock: Clock) -> list[dict]:
        out = []
        for d, path, _ in self.chains:
            with clock.phase("setup"):
                P, pi = models.load_chain(path)
                if pi is None:
                    pi = chain_core.stationary_distribution(P)
            caps = tuple(SubsetMask.of(d, g) for g in self.ceiling(d))
            checks: dict[str, object] = {}

            def subset_checks(dec):
                checks["submodular"] = oracle.check_submodular(dec.g, dec.ground)
                checks["monotone"] = oracle.check_monotone(dec.g, dec.ground)

            def k_check(dec):
                checks["k-submodular"] = oracle.check_k_submodular(
                    dec.g, dec.ground, len(caps), ceiling=caps)

            hooks = {"entropy": subset_checks, "k-entropy": k_check}
            sweeps = [run_sweep(e, clock, P, pi, caps, oracle_certs=True,
                                after=hooks.get(e.problem)) for e in self.entries(d)]
            out.append({"d": d, "pi": pi.probs, "sweeps": sweeps, "checks": checks})
        return out

    def evaluator(self, d: int, rows: np.ndarray) -> tuple:
        if d not in self._refs:
            pi = ref.stationary_by_solve(rows)
            self._refs[d] = (ref.Chain.from_dense((2,) * d, rows, pi), {})
        return self._refs[d]

    def check(self, rounds: list[list[dict]], report: Report) -> None:
        for result in rounds:
            for item, (d, _, rows) in zip(result, self.chains):
                chain, memo = self.evaluator(d, rows)
                pi_err = float(np.abs(item["pi"] - chain.pi).sum())
                for sweep in item["sweeps"]:
                    if report.sweep_failed(sweep, ops_per_row=2):  # row and certificate
                        continue
                    for row in sweep.rows:
                        what = f"d={d} {sweep.entry.key} m={row.m}"
                        if pi_err > VALUE_TOL:
                            report.op(False, f"{what}: |pi - solve|_1 = {pi_err:.3e}")
                            report.op(False, f"{what}: certificate not checked")
                            continue
                        ok, why = self.check_value(chain, memo, sweep, row)
                        report.op(ok, f"{what}: {why}")
                        ok, why = self.check_certificate(chain, memo, sweep, row, d)
                        report.op(ok, f"{what} certificate: {why}")
                for name in ("submodular", "monotone", "k-submodular"):
                    res = item["checks"].get(name)
                    if res is None:
                        ok = False
                    elif name == "k-submodular":
                        ok = res.lattice.passed and res.orthant.passed and \
                            res.pairwise_monotone.passed
                    else:
                        ok = res.passed
                    report.op(ok, f"d={d} oracle {name} check failed or missing")

    def f_value(self, chain, memo, sweep: Sweep, members: tuple) -> float:
        """Unshifted objective f of the candidate with these coordinates, by
        the evaluator: the reported value times the entry's sign."""
        entry = sweep.entry
        key = (entry.problem, members)
        if key not in memo:
            chosen = members
            if entry.partition:
                chosen = [[i for i in g if i in members] for g in self.ceiling(chain.d)]
            memo[key] = sweep.report_sign * report_value(chain, entry, chosen)
        return memo[key]

    def check_value(self, chain, memo, sweep: Sweep, row) -> tuple[bool, str]:
        expect = sweep.report_sign * self.f_value(chain, memo, sweep, members(row.chosen))
        return close(row.value, expect, VALUE_TOL), f"value {row.value}, evaluator {expect}"

    def check_certificate(self, chain, memo, sweep: Sweep, row, d: int) -> tuple[bool, str]:
        cert, entry = row.certificate, sweep.entry
        if cert is None:
            return False, "missing"
        f = lambda S: self.f_value(chain, memo, sweep, S)
        # f = g - c - shift, on the chosen set (direct path) and on OPT (evaluator)
        if not close(cert.achieved - sweep.shift, sweep.report_sign * row.value, VALUE_TOL):
            return False, f"g - c - shift = {cert.achieved - sweep.shift} at the pick"
        opt = members(cert.opt)
        if not close(cert.g_opt - cert.c_opt - sweep.shift, f(opt), VALUE_TOL):
            return False, f"g - c - shift = {cert.g_opt - cert.c_opt - sweep.shift} at OPT"
        c_opt = sweep.c_const + sum(
            sweep.c_weights.get(key, 0.0) for key in element_keys(cert.opt, entry))
        if not close(cert.c_opt, c_opt, VALUE_TOL):
            return False, f"c(OPT) = {cert.c_opt}, modular sum {c_opt}"
        # OPT by the benchmark's own enumeration of the feasible sets
        sizes = [row.m] if entry.problem == "dist2indp" else range(row.m + 1)
        best = max(f(S) for k in sizes for S in itertools.combinations(range(d), k))
        if not close(f(opt), best, VALUE_TOL):
            return False, f"brute-force OPT value {f(opt)}, enumeration {best}"
        lower = (1.0 - math.exp(-1.0)) * cert.g_opt - cert.c_opt
        if not (cert.satisfied and cert.achieved >= lower - 1e-9):
            return False, f"achieved {cert.achieved} below the bound {lower}"
        return True, ""


def members(chosen) -> tuple[int, ...]:
    """Sorted coordinates of a subset, a Partition or a tuple of groups."""
    parts = getattr(chosen, "parts", chosen)
    if isinstance(parts, tuple):
        return tuple(sorted(i for p in parts for i in p))
    return tuple(parts)


def element_keys(opt, entry: Entry) -> list:
    if entry.partition:
        return [(j, e) for j, part in enumerate(opt) for e in part]
    return list(opt)


# ---------------------------------------------------------------------------
class CW12Certify:
    """The Curie-Weiss d=12 part, then the certificate part, in one round.
    Alone, the certificate part's solve time spread too much between runs:
    it is pure-Python work, which the host's busy periods slow most.  Here
    it is about a third of the round's solve time."""

    PARTS = (("cw12", CW12Scale), ("certify", CertifySmall))

    def __init__(self, seed: int, workdir: Path):
        self.parts = [(name, cls(seed, workdir)) for name, cls in self.PARTS]

    def round(self, clock: Clock) -> dict:
        out = {}
        for name, part in self.parts:
            setup0, solve0 = clock.setup, clock.solve
            result = part.round(clock)
            out[name] = (result, clock.setup - setup0, clock.solve - solve0)
        return out

    def check(self, rounds: list[dict], report: Report) -> None:
        for name, part in self.parts:
            part.check([r[name][0] for r in rounds], report)

    def notes(self, rounds: list[dict]) -> list[str]:
        """Setup and solve time of each part, means over rounds."""
        return [f"{name} part: setup {statistics.fmean(r[name][1] for r in rounds):.3f} s, "
                f"solve {statistics.fmean(r[name][2] for r in rounds):.3f} s"
                for name, _ in self.parts]


WORKLOADS = {
    "paper-suite": PaperSuite,
    "cw12-certify": CW12Certify,
}
