import csv
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_naive import random_reversible_chain, stationary_kernel
from mcselect.chain_core import ValidationError
from mcselect.cli import _inverse_cdf, _step, main, mcmc_study, parse_ceiling, parse_coords
from mcselect.models import save_chain

SPARSE_CHAIN = Path(__file__).parent / "data" / "cw6_unsolved.json"
MIXED_CHAIN = Path(__file__).parent / "golden" / "mixed_3223.json"

ENTROPY_GREEDY_REFERENCE = {
    1: 0.29085, 2: 0.57371, 3: 0.83933, 4: 1.09570, 5: 1.33953,
    6: 1.57098, 7: 1.78757, 8: 1.98500, 9: 2.15793, 10: 2.29109,
}


# algorithm/problem pairings that no search can run: refused before the run
PAIRING_ERRORS = [
    ["--problem", "k-entropy", "--V", "1,2|3,4", "--m", "1"],  # greedy is subset-only
    ["--problem", "k-entropy", "--V", "1,2|3,4", "--algorithm", "batch", "--m", "1"],
    ["--problem", "k-entropy", "--V", "1,2|3,4", "--algorithm", "local-search"],
    ["--problem", "entropy", "--algorithm", "gen-distorted", "--m", "1"],
    ["--problem", "dist2indp-complement", "--algorithm", "batch", "--m", "1"],  # f(empty) != 0
    ["--problem", "dist2stat-complement", "--algorithm", "batch", "--heuristic", "--m", "1"],
    # local search takes no cardinality, so it cannot meet an exact one
    ["--problem", "dist2indp", "--algorithm", "local-search"],
    ["--problem", "dist2stat", "--algorithm", "local-search"],
    ["--problem", "dist2stat-product", "--algorithm", "local-search", "--heuristic"],
    ["--problem", "dist2fact-fixed", "--algorithm", "local-search", "--W", "1"],
]


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestParsing:
    def test_coords_one_based(self):
        assert parse_coords("1,3,10", 10).indices() == (0, 2, 9)

    def test_coords_out_of_range(self):
        import click

        with pytest.raises(click.UsageError):
            parse_coords("0,3", 10)

    def test_ceiling(self):
        caps = parse_ceiling("1,2|3,4", 4)
        assert caps[0].indices() == (0, 1)
        assert caps[1].indices() == (2, 3)


class TestSelect:
    def test_entropy_greedy_matches_reference_table(self, tmp_path):
        out = tmp_path / "table.csv"
        result = run_cli([
            "select", "--problem", "entropy", "--algorithm", "greedy",
            "--d", "10", "--m", "1", "--m-max", "10", "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = parse_csv(out.read_text())
        assert len(rows) == 10
        for row in rows:
            assert abs(float(row["value"]) - ENTROPY_GREEDY_REFERENCE[int(row["m"])]) <= 1e-4

    def test_zero_budget_row(self):
        result = run_cli([
            "select", "--problem", "entropy", "--d", "4", "--m", "0", "--m-max", "0",
        ])
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert rows[0]["subset"] == "" and float(rows[0]["value"]) == 0.0

    def test_partition_columns(self, tmp_path):
        out = tmp_path / "parts.csv"
        result = run_cli([
            "select", "--problem", "k-entropy", "--algorithm", "gen-distorted",
            "--d", "6", "--V", "1,2,3|4,5,6", "--m", "2", "--m-max", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = parse_csv(out.read_text())
        assert set(rows[0]) == {"m", "part1", "part2", "value"}

    def test_oracle_sidecar_certificates(self, tmp_path):
        out = tmp_path / "cert.csv"
        result = run_cli([
            "select", "--problem", "dist2fact", "--algorithm", "distorted",
            "--d", "4", "--m", "1", "--m-max", "3", "--oracle", "--out", str(out),
        ])
        assert result.exit_code == 0
        sidecar = json.loads((tmp_path / "cert.csv.json").read_text())
        assert len(sidecar["rows"]) == 3
        for row in sidecar["rows"]:
            cert = row["certificate"]
            assert cert["satisfied"]
            assert row["value"] >= cert["lower_bound"] - 1e-9
            assert "seconds" in row and "trajectory" in row

    def test_byte_identical_reruns(self, tmp_path):
        args = ["select", "--problem", "dist2stat", "--algorithm", "batch",
                "--batch-sizes", "pairs", "--d", "6", "--m", "1", "--m-max", "4"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.output == second.output

    def test_fixed_set_problem(self):
        result = run_cli([
            "select", "--problem", "dist2fact-fixed", "--algorithm", "batch",
            "--batch-sizes", "pairs", "--d", "6", "--W", "1,2,3", "--m", "1",
        ])
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert rows[0]["subset"] != ""

    def test_block_order_flag_reproduces_reference_value(self):
        result = run_cli([
            "select", "--problem", "dist2fact", "--algorithm", "greedy",
            "--d", "10", "--m", "1", "--block-order",
        ])
        rows = parse_csv(result.output)
        assert rows[0]["subset"] == "6"
        assert abs(float(rows[0]["value"]) - 0.14837) <= 1e-4

    def test_missing_ceiling_is_usage_error(self):
        result = CliRunner().invoke(main, ["select", "--problem", "k-entropy", "--d", "4"])
        assert result.exit_code == 2

    def test_admissibility_violation_is_usage_error(self):
        result = CliRunner().invoke(
            main, ["select", "--problem", "dist2indp", "--d", "4", "--m", "1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--problem", "entropy", "--m", "1", "--m-max", "5"],  # beyond the ground set
        ["--problem", "dist2indp-complement", "--m", "1", "--m-max", "3"],  # beyond d - 2
        ["--problem", "dist2stat", "--algorithm", "batch", "--batch-sizes", "2,0", "--m", "2"],
        ["--problem", "entropy", "--algorithm", "local-search", "--epsilon", "0"],
        # local search gives one row, so a sweep is refused
        ["--problem", "entropy", "--algorithm", "local-search", "--m", "1", "--m-max", "3"],
        ["--problem", "entropy", "--m", "1", "--oracle"],  # certificates need --out
        # rows with no block-order form
        ["--problem", "entropy", "--m", "1", "--block-order"],
        ["--problem", "dist2stat", "--m", "1", "--block-order"],
        ["--problem", "dist2fact-fixed", "--W", "1", "--m", "1", "--block-order"],
        ["--problem", "k-entropy", "--algorithm", "gen-distorted", "--V", "1,2|3,4", "--m", "1",
         "--block-order"],
        # a ceiling or a fixed block the problem takes none of
        ["--problem", "entropy", "--m", "1", "--W", "1", "--V", "1,2|3,4"],
        ["--problem", "k-entropy", "--algorithm", "gen-distorted", "--V", "1,2|3,4", "--W", "9",
         "--m", "1"],
        ["--problem", "dist2fact-fixed", "--W", "1", "--V", "1,2|3,4", "--m", "1"],
        # numbers that are not finite, and a ceiling group with no coordinate
        ["--problem", "entropy", "--algorithm", "local-search", "--epsilon", "nan"],
        ["--problem", "entropy", "--m", "1", "--h", "inf"],
        ["--problem", "entropy", "--m", "1", "--h", "nan"],
        ["--problem", "k-entropy", "--algorithm", "gen-distorted", "--V", "1,2||3", "--m", "1"],
        *PAIRING_ERRORS,
        # local search labels its one row with --m, which may not be negative
        ["--problem", "entropy", "--algorithm", "local-search", "--m", "-1"],
    ])
    def test_flag_errors_are_usage_errors(self, args):
        result = CliRunner().invoke(main, ["select", "--d", "4", *args])
        assert result.exit_code == 2
        unused = [flag for flag, takes in (("--V", "k-"), ("--W", "dist2fact-fixed"))
                  if flag in args and not args[1].startswith(takes)]
        if unused:  # the first one is named
            assert f"{unused[0]}: {args[1]} takes no" in result.output
        if args in PAIRING_ERRORS:
            assert "--algorithm" in result.output
        if "--oracle" in args:
            assert "--oracle" in result.output
        if "--block-order" in args:
            assert f"--block-order: {args[1]} has no block-order form" in result.output
        for flag in ("--epsilon", "--h"):
            if flag in args:
                assert f"{flag} must be" in result.output
        if "1,2||3" in args:
            assert "--V '1,2||3' has an empty group" in result.output
        if "local-search" in args and "--m-max" in args:
            assert "--m-max: local search takes no budget" in result.output
        if "-1" in args:
            assert "--m must be non-negative, not -1" in result.output

    def test_local_search_ends_on_a_non_positive_objective(self):
        # f = -D(P_{U-S} || independence) <= 0; the factor rule cycled on it
        result = CliRunner().invoke(main, ["select", "--problem", "dist2indp-complement",
                                           "--algorithm", "local-search", "--d", "5"])
        assert result.exit_code == 0, result.output
        (row,) = parse_csv(result.output)
        assert float(row["value"]) == 0.0

    def test_local_search_ignores_the_budget(self):
        # m = 5 lies past the ground set and past d - 2, but local search has no budget
        result = CliRunner().invoke(main, ["select", "--problem", "dist2indp-complement",
                                           "--algorithm", "local-search", "--d", "3",
                                           "--m", "5"])
        assert result.exit_code == 0, result.output
        assert len(parse_csv(result.output)) == 1

    @pytest.mark.parametrize("flag", ["--seed", "--beta"])
    def test_select_has_no_removed_flag(self, flag):
        result = CliRunner().invoke(main, ["select", "--problem", "entropy", "--d", "4",
                                           flag, "1"])
        assert result.exit_code == 2
        assert flag in result.output

    def test_flags_are_checked_before_the_first_search(self, monkeypatch, cw4):
        import click

        from mcselect import cli, objectives, optimizers

        calls = []
        greedy = optimizers.greedy
        monkeypatch.setattr(optimizers, "greedy", lambda *args: calls.append(args) or greedy(*args))
        P, pi = cw4
        dec = objectives.build_subset_objective("entropy", P, pi)
        with pytest.raises(click.UsageError, match="m=9 exceeds"):
            cli.run_selection(dec, "greedy", [1, 9])
        assert calls == []

    def test_drift_is_model_error(self, monkeypatch):
        from mcselect import functionals

        exact = functionals.keep_in_entropy_rate
        monkeypatch.setattr(functionals, "keep_in_entropy_rate",
                            lambda edge, mask: exact(edge, mask) + 1e-6)
        result = CliRunner().invoke(main, ["select", "--problem", "entropy", "--d", "4",
                                           "--m", "1"])
        assert result.exit_code == 3
        assert "model error: objective drift" in result.output

    def test_one_edge_measure_per_chain(self, monkeypatch):
        """Every objective built on one chain and pi, with its build, search,
        certificates and drift check, reads the one edge measure P keeps for
        pi; so do the distance helpers and the mixing study.  Another pi
        object builds one more, which replaces it."""
        from mcselect import chain_core, cli, functionals, objectives
        from mcselect.models import CurieWeissParams, curie_weiss_chain

        built = []
        init = chain_core.EdgeMeasure.__init__

        def counting_init(edge, *args):
            built.append(edge)
            init(edge, *args)

        monkeypatch.setattr(chain_core.EdgeMeasure, "__init__", counting_init)
        P, pi = curie_weiss_chain(CurieWeissParams(4, 10.0, 1.0))
        caps = parse_ceiling("1,2|3,4", 4)
        for problem in objectives.SUBSET_PROBLEMS + objectives.PARTITION_PROBLEMS:
            if problem.endswith("entropy-product"):
                continue  # needs a product-form chain
            if problem in objectives.PARTITION_PROBLEMS:
                dec = objectives.build_partition_objective(
                    problem, P, pi, caps, heuristic=True, block_order=problem == "k-dist2fact")
                algorithm = "gen-distorted"
            else:
                dec = objectives.build_subset_objective(
                    problem, P, pi, heuristic=True, block_order=problem == "dist2fact",
                    W=parse_coords("1", 4) if problem == "dist2fact-fixed" else None)
                algorithm = "distorted"
            low = dec.min_support or 1
            high = min(dec.max_support or dec.ground.size, dec.ground.size)
            cli.run_selection(dec, algorithm, list(range(low, high + 1)), oracle=True)
            assert len(built) == 1, problem
        S = parse_coords("1,3", 4)
        functionals.distance_to_independence(P, pi, S)
        functionals.distance_to_factorizability(P, pi, S)
        functionals.distance_to_stationarity(P, pi, S)
        functionals.distance_to_factorizability_fixed(P, pi, parse_coords("2", 4), S)
        cli.mcmc_study((P, pi), n_max=2)
        assert len(built) == 1
        assert chain_core.edge_measure(P, pi) is built[0]
        other = chain_core.Distribution(pi.space, pi.probs)
        assert chain_core.edge_measure(P, other) is built[1]
        assert chain_core.edge_measure(P, other) is built[1]
        assert chain_core.edge_measure(P, pi) is built[2]

    @pytest.mark.parametrize("args", [
        ["--problem", "dist2fact", "--algorithm", "greedy", "--block-order"],
        ["--problem", "k-dist2fact", "--algorithm", "gen-distorted", "--block-order",
         "--V", "1,2,3|4,5,6|7,8"],
    ])
    def test_one_reduction_per_distinct_mask(self, monkeypatch, args):
        """Across the build, the search, the block-order memo and the drift
        check, each mask is reduced from the cube once."""
        from mcselect.chain_core import EdgeMeasure

        requested, reduced = set(), []
        cells, reduce = EdgeMeasure._cells, EdgeMeasure._reduce

        def spy_cells(edge, mask):
            requested.add(mask.bits)
            return cells(edge, mask)

        def spy_reduce(edge, mask):
            reduced.append(mask.bits)
            return reduce(edge, mask)

        monkeypatch.setattr(EdgeMeasure, "_cells", spy_cells)
        monkeypatch.setattr(EdgeMeasure, "_reduce", spy_reduce)
        result = run_cli(["select", *args, "--d", "8", "--m", "1", "--m-max", "8"])
        assert result.exit_code == 0, result.output
        assert len(reduced) == len(requested) > 8
        assert set(reduced) == requested

    def test_missing_chain_file_is_model_error(self, tmp_path):
        result = CliRunner().invoke(main, [
            "select", "--problem", "entropy", "--model", "file",
            "--chain-file", str(tmp_path / "missing.json"), "--m", "1",
        ])
        assert result.exit_code == 3

    def test_product_form_violation_is_model_error(self):
        result = CliRunner().invoke(main, [
            "select", "--problem", "dist2stat-product", "--d", "4", "--m", "1",
        ])
        assert result.exit_code == 3

    def test_heuristic_flag_permits_nonproduct(self):
        result = run_cli([
            "select", "--problem", "dist2stat-product", "--d", "4", "--m", "1",
            "--heuristic",
        ])
        assert result.exit_code == 0

    def test_dense_cap_guard_exit_code(self):
        result = CliRunner().invoke(main, [
            "select", "--problem", "entropy", "--d", "14", "--m", "1",
        ])
        assert result.exit_code == 4

    def test_chain_file_model_round_trip(self, tmp_path, cw4):
        P, pi = cw4
        path = tmp_path / "cw4.json"
        save_chain(path, P, pi)
        from_file = run_cli([
            "select", "--problem", "entropy", "--model", "file",
            "--chain-file", str(path), "--m", "1", "--m-max", "2",
        ])
        built = run_cli([
            "select", "--problem", "entropy", "--d", "4", "--m", "1", "--m-max", "2",
        ])
        assert from_file.output == built.output

    def test_svg_emission(self, tmp_path):
        svg = tmp_path / "chart.svg"
        run_cli([
            "select", "--problem", "entropy", "--d", "4", "--m", "1", "--m-max", "3",
            "--svg", str(svg),
        ])
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


def sampler_table(kernel):
    """The sampler's table of a dense kernel, from its row-major non-zeros."""
    x, y = np.nonzero(kernel)
    return _inverse_cdf(x, y, kernel[x, y], len(kernel))


def dense_search(kernel, states, u):
    """Each sample's next state by the dense inverse CDF of its row."""
    return np.array([int(np.searchsorted(np.cumsum(kernel[s]), x)) for s, x in zip(states, u)],
                    dtype=int)


@st.composite
def sampler_cases(draw):
    """A random sparse kernel on 1..12 states, some of whose rows have a
    single non-zero and whose column 0 may be all zero, 300 samples that
    leave a state unoccupied, and for each a u from its own row: a
    cumulative sum, one float below or above it, 0.0, or a uniform draw,
    never above the row's last sum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    zeros = draw(st.sampled_from((0.0, 0.5, 0.9)))
    kernel = rng.random((n, n)) ** 4 * (rng.random((n, n)) >= zeros)
    kernel[np.arange(n), rng.integers(0, n, size=n)] += 0.5  # no empty row
    single = rng.random(n) < 0.25
    kernel[single] = np.eye(n)[rng.integers(0, n, size=int(single.sum()))]
    if n > 1 and draw(st.booleans()):
        kernel[:, 0] = 0.0
        kernel[kernel.sum(axis=1) == 0.0, n - 1] = 1.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(kernel, axis=1)
    states = rng.integers(0, n, size=300)
    states[states == n - 1] = 0  # state n - 1 unoccupied, unless n = 1
    u = cumulative[states, rng.integers(0, n, size=300)]
    u = np.where(rng.random(300) < 0.3, np.nextafter(u, -np.inf), u)
    u = np.where(rng.random(300) < 0.3, np.nextafter(u, np.inf), u)
    u = np.where(rng.random(300) < 0.1, 0.0, u)
    u = np.where(rng.random(300) < 0.2, rng.random(300), u)
    return kernel, states, np.clip(u, 0.0, cumulative[states, -1])


class TestMcmc:
    def test_sampler_step_matches_the_per_sample_search(self, rng):
        kernel = rng.random((7, 7)) ** 4
        kernel[2, :] = 0.0
        kernel[2, 5] = 1.0  # a row whose only mass sits in one state
        kernel /= kernel.sum(axis=1, keepdims=True)
        cumulative = np.cumsum(kernel, axis=1)
        states = rng.integers(0, 7, size=2000)
        states[states == 4] = 3  # an unoccupied state
        u = rng.random(2000)
        want = np.array([int(np.searchsorted(cumulative[s], x)) for s, x in zip(states, u)])
        assert np.array_equal(_step(sampler_table(kernel), states, u), want)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(sampler_cases())
    def test_sampler_step_is_the_dense_search(self, case):
        """The padded table gives np.searchsorted's index on the dense
        cumulative row, bit for bit, at and next to every cumulative sum."""
        kernel, states, u = case
        assert np.array_equal(_step(sampler_table(kernel), states, u),
                              dense_search(kernel, states, u))

    def test_sampler_step_takes_column_0_at_u_zero(self):
        """The dense search sends u = 0.0 to column 0, even where the row
        has no mass there; the step does the same."""
        kernel = np.array([[0.0, 0.25, 0.75], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]])
        states, u = np.array([0, 1, 2, 0]), np.array([0.0, 0.0, 0.0, 0.25])
        assert dense_search(kernel, states, u).tolist() == [0, 0, 0, 1]
        assert _step(sampler_table(kernel), states, u).tolist() == [0, 0, 0, 1]

    def test_sampler_step_refuses_u_above_the_last_sum(self):
        """Where the row's mass falls short of u, the dense search gives the
        state n, which does not exist; the step names the state and u."""
        kernel = np.array([[0.5, 0.25], [0.0, 1.0]])
        states, u = np.array([1, 0]), np.array([0.5, 0.8])
        assert dense_search(kernel, states, u).tolist() == [1, 2]
        with pytest.raises(ValidationError, match=r"state 0: u = 0.8 lies above its last "
                                                  r"cumulative sum 0.75"):
            _step(sampler_table(kernel), states, u)

    def test_study_refuses_negative_seed_and_samples(self, cw4):
        for kwargs, name in (({"seed": -1}, "seed"), ({"samples": -5}, "samples")):
            with pytest.raises(ValidationError, match=f"{name} must be >= 0"):
                mcmc_study(cw4, n_max=1, **kwargs)

    def test_study_peak_stays_below_3_25_mib(self, cw4):
        """The sampler holds each kernel's non-zero columns and cumulative
        sums as (K, n) tables and moves every sample at once.  On Curie-Weiss
        d=8 with n_max=10 and 20000 samples, the study's traced peak was
        3.75 MiB with the dense cumulative rows and a search per occupied
        state, and is 2.7 MiB now (the worst-case TVs set it)."""
        from mcselect.models import CurieWeissParams, curie_weiss_chain

        mcmc_study(cw4, n_max=1, samples=1)  # first-use imports stay out of the peak
        chain = curie_weiss_chain(CurieWeissParams(8, 10.0, 1.0))
        tracemalloc.start()
        try:
            study = mcmc_study(chain, n_max=10, samples=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert study.sample_tv is not None
        assert peak < 3.25 * 2**20

    def test_summary_and_curves(self, tmp_path):
        out = tmp_path / "curves.csv"
        summary_path = tmp_path / "summary.json"
        result = run_cli([
            "mcmc", "--d", "5", "--n-max", "6", "--out", str(out),
            "--json", str(summary_path),
        ])
        assert result.exit_code == 0
        rows = parse_csv(out.read_text())
        assert len(rows) == 5 * 6
        summary = json.loads(summary_path.read_text())
        assert 1 <= summary["i_star"] <= 5
        assert 0.0 <= summary["worst_tv_factorized"] <= 1.0

    def test_stationary_kernel_has_flat_curves(self, rng):
        from mcselect.chain_core import SubsetMask, marginalize, tensor_dist

        _, pi = random_reversible_chain(rng, (2, 2, 2))
        study = mcmc_study((stationary_kernel(pi), pi), n_max=4)
        for curve in study.curves.values():
            assert max(curve) <= 1e-12
        assert study.tv_original <= 1e-12
        # the factorized design targets the product approximation of pi, so
        # its distance to pi is exactly that approximation gap
        keep = SubsetMask.of(3, (study.i_star,)).complement()
        product = tensor_dist([marginalize(pi, keep), marginalize(pi, keep.complement())])
        perm = keep.indices() + (study.i_star,)
        cube = product.probs.reshape((2, 2, 2)).transpose(tuple(np.argsort(perm)))
        gap = float(np.abs(cube.reshape(-1) - pi.probs).sum() / 2.0)
        assert abs(study.tv_factorized - gap) <= 1e-12

    def test_seeded_samples_deterministic(self):
        from mcselect.models import CurieWeissParams, curie_weiss_chain

        chain = curie_weiss_chain(CurieWeissParams(4, 10.0, 1.0))
        a = mcmc_study(chain, n_max=3, samples=50, seed=7)
        b = mcmc_study(chain, n_max=3, samples=50, seed=7)
        assert a.sample_tv == b.sample_tv
        c = mcmc_study(chain, n_max=3, samples=50, seed=8)
        assert c.sample_tv != a.sample_tv


    @pytest.mark.parametrize("args, flag", [
        (["--split", "0"], "--split"),
        (["--split", "9"], "--split"),
        (["--n-max", "-1"], "--n-max"),
        (["--samples", "-5"], "--samples"),
        (["--seed", "-1"], "--seed"),
        (["--samples", "10", "--seed", "-1"], "--seed"),
        (["--h", "nan"], "--h"),
    ])
    def test_flag_errors_are_usage_errors(self, args, flag):
        result = CliRunner().invoke(main, ["mcmc", "--d", "4", *args])
        assert result.exit_code == 2
        assert flag in result.output

    def test_split_at_the_last_coordinate_runs(self):
        result = run_cli(["mcmc", "--d", "4", "--split", "4", "--n-max", "0"])
        assert result.exit_code == 0

    def test_dense_cap_guard_exit_code(self):
        result = CliRunner().invoke(main, ["mcmc", "--d", "14"])
        assert result.exit_code == 4
        assert "guard violation" in result.output

    @pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 2, 2)])
    def test_factorized_kernel_matches_the_realigned_tensor(self, rng, dims):
        """On mixed-radix chains, at every split, the factorized distance and
        the sampled distances equal those of np.kron's tensor product with
        its axes transposed back to the chain's coordinate order."""
        from mcselect.chain_core import EdgeMeasure, SubsetMask, matrix_power, tensor

        P, pi = random_reversible_chain(rng, dims)
        d, n, n_max, samples, seed = len(dims), P.space.total, 3, 400, 5

        def realigned(factors, perm):
            kernel = tensor(factors)
            axes = tuple(np.argsort(perm))
            cube = kernel.rows.reshape(kernel.space.dims * 2)
            return cube.transpose(axes + tuple(d + a for a in axes)).reshape(n, n)

        for split in range(d):
            study = mcmc_study((P, pi), n_max=n_max, split=split, samples=samples, seed=seed)
            keep = SubsetMask.of(d, (split,)).complement()
            edge = EdgeMeasure(P, pi)
            factors = [edge.keep_in(keep), edge.keep_in(SubsetMask.of(d, (split,)))]
            perm = keep.indices() + (split,)
            powered = realigned([matrix_power(F, n_max) for F in factors], perm)
            want = float(np.abs(powered - pi.probs[None, :]).sum(axis=1).max() / 2.0)
            assert study.tv_factorized == want

            rng_s = np.random.Generator(np.random.Philox(seed))
            sample_tv = {}
            for label, kernel in (("original", P.rows), ("factorized", realigned(factors, perm))):
                cumulative = np.cumsum(kernel, axis=1)
                states = np.zeros(samples, dtype=int)
                for _ in range(n_max):
                    u = rng_s.random(samples)
                    states = np.array([np.searchsorted(cumulative[s], x)
                                       for s, x in zip(states, u)])
                counts = np.bincount(states, minlength=n) / samples
                sample_tv[label] = [float(np.abs(counts - pi.probs).sum() / 2.0)]
            assert study.sample_tv == sample_tv


class TestValidateCommand:
    def test_valid_file(self, tmp_path, cw4):
        P, pi = cw4
        path = tmp_path / "ok.json"
        save_chain(path, P, pi)
        result = CliRunner().invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        result = CliRunner().invoke(main, ["validate", str(path)])
        assert result.exit_code == 3

    def test_committed_sparse_chain_is_solved(self):
        """Curie-Weiss d=6 (448 non-zeros of 4096) stored without pi: the
        solve runs over its non-zeros."""
        result = run_cli(["validate", str(SPARSE_CHAIN)])
        assert result.exit_code == 0
        assert result.output.startswith("ok: 6 coordinates, 64 states, stationary recomputed, ")
        assert float(result.output.rsplit("residual", 1)[1]) <= 1e-12

    def test_round_trip_of_generated_chain(self, tmp_path, cw4):
        P, _ = cw4
        path = tmp_path / "nopi.json"
        save_chain(path, P)
        result = CliRunner().invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert "recomputed" in result.output


def write_chain_with_nan(path, P, pi):
    """Chain file whose transition entry (0, 1) is NaN, as JSON writes it."""
    rows = P.rows.tolist()
    rows[0][1] = float("nan")
    doc = {"d": P.space.d, "dims": list(P.space.dims), "transition": rows}
    if pi is not None:
        doc["stationary"] = pi.probs.tolist()
    path.write_text(json.dumps(doc))


class TestLowTemperature:
    @pytest.mark.parametrize("command", [
        ["select", "--problem", "entropy", "--T", "0.01", "--d", "10", "--m", "1"],
        ["mcmc", "--T", "0.01", "--d", "6"],
    ])
    def test_underflow_is_named_model_error(self, command):
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 3
        assert "underflows to 0 at T=0.01" in result.output
        assert "full support" in result.output


class TestHostileInput:
    @pytest.mark.parametrize("stored_pi", [True, False])
    @pytest.mark.parametrize("command", ["validate", "select"])
    def test_nan_transition_entry_is_model_error(self, tmp_path, cw4, stored_pi, command):
        P, pi = cw4
        path = tmp_path / "nan.json"
        write_chain_with_nan(path, P, pi if stored_pi else None)
        args = ["validate", str(path)] if command == "validate" else [
            "select", "--problem", "entropy", "--model", "file", "--chain-file", str(path),
            "--m", "1"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3
        assert "entry (0, 1) = nan is not finite" in result.output
        assert "ok" not in result.output

    @pytest.mark.parametrize("field, edit", [
        ("dims", lambda doc: doc.update(dims="3223")),
        ("dims", lambda doc: doc.update(dims=[3.5, 2, 2, 3])),
        ("dims", lambda doc: doc.update(dims=[3, True, 2, 3])),
        ("d", lambda doc: doc.update(d=4.0)),
        ("d", lambda doc: doc.update(d="4")),
        ("transition", lambda doc: doc.update(
            transition=[[str(p) for p in row] for row in doc["transition"]])),
        ("transition", lambda doc: doc["transition"][0].__setitem__(0, True)),
        ("transition", lambda doc: doc["transition"][1].__setitem__(2, None)),
        ("stationary", lambda doc: doc.update(stationary=[str(p) for p in doc["stationary"]])),
    ])
    def test_chain_file_fields_are_checked_not_cast(self, tmp_path, field, edit):
        doc = json.loads(MIXED_CHAIN.read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["validate", str(path)])
        assert result.exit_code == 3
        assert f": {field} must be" in result.output
        assert not result.output.startswith("ok")

    @pytest.mark.parametrize("command", ["validate", "select"])
    def test_reducible_chain_with_stored_pi_is_model_error(self, tmp_path, command):
        # two closed classes {0, 1} and {2, 3}; the uniform pi is stationary
        block = [[0.5, 0.5], [0.5, 0.5]]
        rows = np.kron(np.eye(2), block).tolist()
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps({"d": 2, "dims": [2, 2], "transition": rows,
                                    "stationary": [0.25] * 4}))
        args = ["validate", str(path)] if command == "validate" else [
            "select", "--problem", "entropy", "--model", "file", "--chain-file", str(path),
            "--m", "1"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3
        assert "chain is not irreducible: state 2 unreachable from state 0" in result.output
        assert "ok" not in result.output

    @pytest.mark.parametrize("command", ["validate", "select"])
    def test_stationary_solve_failure_is_model_error(self, tmp_path, command):
        # two states that swap with probabilities 1e-9 and 2e-9: irreducible,
        # but power iteration cannot reach its tolerance within its cap
        eps = 1e-9
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({"d": 1, "dims": [2],
                                    "transition": [[1 - eps, eps], [2 * eps, 1 - 2 * eps]]}))
        args = ["validate", str(path)] if command == "validate" else [
            "select", "--problem", "entropy", "--model", "file", "--chain-file", str(path),
            "--m", "1"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3
        assert "power iteration did not reach" in result.output

    @pytest.mark.parametrize("command", [
        ["select", "--problem", "entropy", "--d", "4", "--m", "1"],
        ["mcmc", "--d", "4", "--n-max", "2"],
    ])
    def test_unwritable_out_is_file_error(self, tmp_path, command):
        result = CliRunner().invoke(main, [*command, "--out", str(tmp_path / "no" / "out.csv")])
        assert result.exit_code == 3
        assert "model error: [Errno 2] No such file or directory" in result.output
