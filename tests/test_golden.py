"""Byte-for-byte goldens of the `select` CSV, of `select --oracle`
sidecars, of one `mcmc` study and of the exhaustive oracle reports.

Each case runs `mcselect select` with fixed flags and compares the CSV it
writes against a committed file under ``tests/golden``.  The goldens pin the
contract that refactors keep the CSV byte-identical.  The `--oracle`
sidecars (with the wall-clock ``seconds`` dropped) pin the optimizer
trajectories and the bound certificates, and the oracle report golden pins
the verdict, margin bits and witness of the brute-force checks.  The `mcmc`
golden (curve CSV and ``--json`` summary, with the seeded sampler) pins the
sampler's draws as well.

To regenerate them from a given checkout (only when an output change is
intended), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

The mixed-radix chain file is written once from a seeded generator and is
kept as committed afterwards.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers_naive import check_supermodular
from mcselect.chain_core import SubsetMask
from mcselect.cli import main
from mcselect.models import load_chain
from mcselect.objectives import (
    Workspace,
    build_partition_objective,
    build_subset_objective,
    union_of,
)
from mcselect.oracle import (
    check_k_submodular,
    check_monotone,
    check_submodular,
    ratios,
)

GOLDEN = Path(__file__).parent / "golden"
MIXED_CHAIN = GOLDEN / "mixed_3223.json"

_CW8 = ["--d", "8", "--T", "10", "--h", "1"]
_CW13 = ["--d", "13", "--T", "10", "--h", "1"]
_MIXED = ["--model", "file", "--chain-file", str(MIXED_CHAIN)]

# golden file name -> `select` arguments (without --out)
CASES = {
    "cw8_entropy_greedy.csv": [
        "--problem", "entropy", "--algorithm", "greedy", *_CW8, "--m", "1", "--m-max", "8"],
    "cw8_dist2fact_greedy_block.csv": [
        "--problem", "dist2fact", "--algorithm", "greedy", "--block-order", *_CW8,
        "--m", "1", "--m-max", "8"],
    "cw8_k_dist2fact_gen_block.csv": [
        "--problem", "k-dist2fact", "--algorithm", "gen-distorted", "--block-order",
        "--V", "1,2,3|4,5,6|7,8", *_CW8, "--m", "1", "--m-max", "8"],
    "cw8_dist2indp_greedy.csv": [
        "--problem", "dist2indp", "--algorithm", "greedy", *_CW8, "--m", "2", "--m-max", "8"],
    "cw8_dist2stat_batch_pairs.csv": [
        "--problem", "dist2stat", "--algorithm", "batch", "--batch-sizes", "pairs", *_CW8,
        "--m", "1", "--m-max", "8"],
    "cw13_entropy_greedy.csv": [
        "--problem", "entropy", "--algorithm", "greedy", *_CW13, "--m", "1", "--m-max", "2"],
    "cw13_dist2stat_batch_pairs.csv": [
        "--problem", "dist2stat", "--algorithm", "batch", "--batch-sizes", "pairs", *_CW13,
        "--m", "2"],
    "mixed_dist2fact_greedy_block.csv": [
        "--problem", "dist2fact", "--algorithm", "greedy", "--block-order", *_MIXED,
        "--m", "1", "--m-max", "4"],
    "mixed_k_dist2fact_gen.csv": [
        "--problem", "k-dist2fact", "--algorithm", "gen-distorted", "--V", "1,2|3,4",
        *_MIXED, "--m", "1", "--m-max", "4"],
    "mixed_k_dist2fact_gen_block.csv": [
        "--problem", "k-dist2fact", "--algorithm", "gen-distorted", "--V", "1,2|3,4",
        "--block-order", *_MIXED, "--m", "1", "--m-max", "4"],
}


# golden file name -> `select --oracle` arguments (without --out); the golden
# is the JSON sidecar with every row's `seconds` dropped
ORACLE_CASES = {
    "cw6_dist2stat_batch_pairs.oracle.json": [
        "--problem", "dist2stat", "--algorithm", "batch", "--batch-sizes", "pairs",
        "--d", "6", "--T", "10", "--h", "1", "--m", "1", "--m-max", "6"],
    "mixed_entropy_distorted.oracle.json": [
        "--problem", "entropy", "--algorithm", "distorted", *_MIXED, "--m", "1", "--m-max", "4"],
    "mixed_k_entropy_gen.oracle.json": [
        "--problem", "k-entropy", "--algorithm", "gen-distorted", "--V", "1,2|3,4", *_MIXED,
        "--m", "1", "--m-max", "4"],
    "mixed_entropy_local_search.oracle.json": [
        "--problem", "entropy", "--algorithm", "local-search", *_MIXED],
}

# oracle reports on the mixed-radix chain: verdict, margin bits and witness
ORACLE_REPORTS = "mixed_oracle_reports.json"

# `mcmc` arguments (without --out/--json) -> (curve CSV, summary JSON) goldens
MCMC_ARGS = ["--d", "8", "--samples", "20000", "--seed", "1"]
MCMC_GOLDEN = ("cw8_mcmc_samples.csv", "cw8_mcmc_samples.json")


def _select_csv(args: list[str], out: Path) -> bytes:
    result = CliRunner().invoke(main, ["select", *args, "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_select_csv_matches_golden(name, tmp_path):
    assert _select_csv(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()


def _oracle_sidecar(args: list[str], out: Path) -> str:
    result = CliRunner().invoke(main, ["select", *args, "--oracle", "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    payload = json.loads(Path(f"{out}.json").read_text())
    for row in payload["rows"]:
        del row["seconds"]
    return json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_sidecar_matches_golden(name, tmp_path):
    got = _oracle_sidecar(ORACLE_CASES[name], tmp_path / "out.csv")
    assert got == (GOLDEN / name).read_text()


def _check(result, clause: str = "subset") -> dict:
    """A check's verdict; margin and witness are kept for every passing
    check and for failing subset and lattice checks, whose witness is the
    first violation in scan order."""
    entry = {"passed": result.passed}
    if result.passed or clause in ("subset", "lattice"):
        entry["margin"] = float(result.margin).hex()
        entry["witness"] = repr(result.witness)
    return entry


def _oracle_reports() -> str:
    P, pi = load_chain(MIXED_CHAIN)
    ws = Workspace(P, pi)
    d = P.space.d
    ground = SubsetMask.full(d)
    caps = (SubsetMask.of(d, (0, 1)), SubsetMask.of(d, (2, 3)))
    reports: dict[str, dict] = {}
    subset_fns = {
        problem: build_subset_objective(problem, P, pi, heuristic=True, workspace=ws).g
        for problem in ("entropy", "dist2fact", "dist2indp", "dist2indp-complement",
                        "dist2stat-product", "dist2stat-complement")
    }
    subset_fns.update({"entropy_rate": ws.entropy_rate, "entropy_pi": ws.entropy_pi,
                       "dist_to_independence": ws.dist_to_independence,
                       "dist_to_stationarity": ws.dist_to_stationarity})
    for name, fn in subset_fns.items():
        reports[f"{name} submodular"] = _check(check_submodular(fn, ground))
        reports[f"{name} supermodular"] = _check(check_supermodular(fn, ground))
        reports[f"{name} monotone"] = _check(check_monotone(fn, ground))
        reports[f"{name} nonincreasing"] = _check(check_monotone(fn, ground, False))
        for m in (1, 2, 4):
            report = ratios(fn, ground, m)
            reports[f"{name} ratios m={m}"] = {
                "eta": float(report.eta).hex(), "gamma": float(report.gamma).hex(),
                "eta_witness": repr(report.eta_witness),
                "gamma_witness": repr(report.gamma_witness)}

    k_fns = {
        problem: (build_partition_objective(problem, P, pi, caps, heuristic=True,
                                            workspace=ws).g, caps)
        for problem in ("k-entropy", "k-dist2fact", "k-dist2indp", "k-dist2indp-complement",
                        "k-dist2stat", "k-dist2stat-complement")
    }
    k_fns.update({
        "sum entropy_rate": (lambda parts: sum(ws.entropy_rate(p) for p in parts), None),
        "-sum dist_to_independence": (
            lambda parts: -sum(ws.dist_to_independence(p) for p in parts), None),
        "entropy_rate of union": (lambda parts: ws.entropy_rate(union_of(parts)), None),
        "sum dist_to_stationarity": (
            lambda parts: sum(ws.dist_to_stationarity(p) for p in parts), None),
    })
    for name, (F, ceiling) in k_fns.items():
        report = check_k_submodular(F, ground, 2, ceiling=ceiling)
        label = f"{name} k-submodular" + (" below V" if ceiling else "")
        for clause in ("lattice", "orthant", "pairwise_monotone"):
            reports[f"{label} {clause}"] = _check(getattr(report, clause), clause)
    return json.dumps(reports, indent=1) + "\n"


def test_oracle_reports_match_golden():
    assert _oracle_reports() == (GOLDEN / ORACLE_REPORTS).read_text()


def _mcmc_outputs(csv_path: Path, json_path: Path) -> tuple[bytes, bytes]:
    result = CliRunner().invoke(
        main, ["mcmc", *MCMC_ARGS, "--out", str(csv_path), "--json", str(json_path)],
        catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return csv_path.read_bytes(), json_path.read_bytes()


def test_mcmc_outputs_match_golden(tmp_path):
    got = _mcmc_outputs(*(tmp_path / name for name in MCMC_GOLDEN))
    assert got == tuple((GOLDEN / name).read_bytes() for name in MCMC_GOLDEN)


def _write_mixed_chain() -> None:
    from mcselect.chain_core import ProductStateSpace, TransitionMatrix, stationary_distribution
    from mcselect.models import save_chain

    space = ProductStateSpace((3, 2, 2, 3))
    rng = np.random.default_rng(3223)
    rows = rng.random((space.total, space.total)) ** 8 + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    P = TransitionMatrix(space, rows)
    save_chain(MIXED_CHAIN, P, stationary_distribution(P))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    if not MIXED_CHAIN.exists():
        _write_mixed_chain()
    for name, args in CASES.items():
        _select_csv(args, GOLDEN / name)
        print(f"wrote {GOLDEN / name}")
    for name, args in ORACLE_CASES.items():
        (GOLDEN / name).write_text(_oracle_sidecar(args, GOLDEN / "oracle.csv"))
        print(f"wrote {GOLDEN / name}")
    for scratch in (GOLDEN / "oracle.csv", GOLDEN / "oracle.csv.json"):
        scratch.unlink()
    (GOLDEN / ORACLE_REPORTS).write_text(_oracle_reports())
    print(f"wrote {GOLDEN / ORACLE_REPORTS}")
    _mcmc_outputs(*(GOLDEN / name for name in MCMC_GOLDEN))
    print("wrote " + ", ".join(str(GOLDEN / name) for name in MCMC_GOLDEN))
