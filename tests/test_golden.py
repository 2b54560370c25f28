"""Byte-for-byte goldens of the `select` CSV and of one `mcmc` study.

Each case runs `mcselect select` with fixed flags and compares the CSV it
writes against a committed file under ``tests/golden``.  The goldens pin the
contract that refactors keep the CSV byte-identical.  The `mcmc` golden
(curve CSV and ``--json`` summary, with the seeded sampler) pins the
sampler's draws as well.

To regenerate them from a given checkout (only when an output change is
intended), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

The mixed-radix chain file is written once from a seeded generator and is
kept as committed afterwards.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mcselect.cli import main

GOLDEN = Path(__file__).parent / "golden"
MIXED_CHAIN = GOLDEN / "mixed_3223.json"

_CW8 = ["--d", "8", "--T", "10", "--h", "1"]
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
    _mcmc_outputs(*(GOLDEN / name for name in MCMC_GOLDEN))
    print("wrote " + ", ".join(str(GOLDEN / name) for name in MCMC_GOLDEN))
