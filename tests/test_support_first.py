"""Chains built from their non-zeros against their copies built from rows.

``models.curie_weiss_chain`` builds P from its d + 1 entries a row, and a
sparse P then holds no n x n array.  Every reader of P must give what it
gives on the dense-born copy ``TransitionMatrix(P.space, P.rows.copy())``,
bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mcselect import chain_core
from mcselect.chain_core import (
    EdgeMeasure,
    ProductStateSpace,
    SubsetMask,
    TransitionMatrix,
    ValidationError,
    stationary_distribution,
    stationary_residual,
    validate,
)
from mcselect.cli import main
from mcselect.functionals import (
    distance_to_factorizability,
    distance_to_factorizability_fixed,
    distance_to_independence,
    distance_to_stationarity,
    entropy_rate,
    kl_rate,
)
from mcselect.models import CurieWeissParams, curie_weiss_chain
from test_golden import CASES, MCMC_ARGS

GRID = [(10.0, 1.0), (1.0, -0.5), (0.3, 0.0)]
CHAINS = [(d, T, h) for d in range(1, 11) for T, h in GRID]


def dense_born(P):
    return TransitionMatrix(P.space, P.rows.copy())


def twins(d, T, h):
    """A Curie-Weiss chain as built, its dense-born copy, and its pi."""
    P, pi = curie_weiss_chain(CurieWeissParams(d, T, h))
    assert bool(P._nonzeros) == (8 * (d + 1) < 1 << d)  # sparse from d = 6
    return P, dense_born(P), pi


def masks(d):
    """The empty, single, leading-half and full masks, and a spread one."""
    full = SubsetMask.full(d)
    return [SubsetMask.empty(d), SubsetMask.of(d, (d - 1,)),
            SubsetMask.of(d, range(d // 2 + 1)), SubsetMask.of(d, range(0, d, 2)), full]


@pytest.mark.parametrize("d, T, h", CHAINS)
def test_every_reader_gives_the_bits_of_the_dense_born_copy(d, T, h):
    P, Q, pi = twins(d, T, h)
    assert np.array_equal(P.rows, Q.rows)
    assert np.array_equal(stationary_distribution(P).probs,
                          stationary_distribution(dense_born(P)).probs)
    assert entropy_rate(P, pi) == entropy_rate(Q, pi)
    L, M, _ = twins(d, 2.0 * T, -h)
    assert kl_rate(P, L, pi) == kl_rate(Q, M, pi)
    for S in masks(d):
        for distance in (distance_to_independence, distance_to_factorizability,
                         distance_to_stationarity):
            assert distance(P, pi, S) == distance(Q, pi, S), (distance.__name__, S)
        W = S.complement() - SubsetMask.of(d, (0,))
        assert (distance_to_factorizability_fixed(P, pi, W, S - W)
                == distance_to_factorizability_fixed(Q, pi, W, S - W)), S


@pytest.mark.parametrize("d, T, h", CHAINS)
def test_stationary_residual(d, T, h):
    """Whether P is multiplied over its non-zeros (np.bincount) or its rows
    (BLAS) follows from its entries, not from how it was built or whether
    it was scanned before, so both forms give the same bits.  The two
    products differ by at most 1e-15."""
    P, Q, pi = twins(d, T, h)
    residual = stationary_residual(P, pi)
    assert stationary_residual(Q, pi) == residual
    blas = float(np.abs(pi.probs @ P.rows - pi.probs).sum())
    assert abs(residual - blas) <= 1e-15


@pytest.mark.parametrize("d, T, h", [c for c in CHAINS if c[0] <= 6])
def test_keep_in_on_every_mask(d, T, h):
    P, Q, pi = twins(d, T, h)
    support, rows = EdgeMeasure(P, pi), EdgeMeasure(Q, pi)
    for S in SubsetMask.full(d).subsets():
        assert np.array_equal(support.keep_in(S).rows, rows.keep_in(S).rows), S


BAD_ENTRIES = {
    "negative": [(3, 4, -0.25)],
    "above one": [(3, 4, 1.5)],
    "nan": [(5, 0, np.nan)],
    "inf": [(5, 0, np.inf)],
    "first in row-major order": [(7, 1, np.nan), (2, 9, -1.0)],
    "worst row": [(1, 1, 0.75), (6, 6, 0.5)],
    "lowest worst row": [(4, 4, 0.75), (9, 9, 0.75)],
}


@pytest.mark.parametrize("case", BAD_ENTRIES)
def test_both_forms_raise_the_same_message(case):
    """The first bad entry in row-major order, else the worst row sum."""
    rows = np.zeros((16, 16))
    rows[np.arange(16), (np.arange(16) + 1) % 16] = 1.0
    for x, y, value in BAD_ENTRIES[case]:
        rows[x, y] = value
    x, y = np.nonzero(rows)
    space = ProductStateSpace((2,) * 4)
    P = TransitionMatrix._from_support(space, x, y, rows[x, y])
    assert P._nonzeros and "rows" not in vars(P)
    messages = []
    for M in (P, TransitionMatrix(space, rows)):
        with pytest.raises(ValidationError) as err:
            validate(M)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "np." not in messages[0]


def spy_on_dense_rows(monkeypatch) -> list:
    """Record every n x n array built from a held support."""
    built = []
    scatter = chain_core._scatter
    monkeypatch.setattr(chain_core, "_scatter",
                        lambda n, x, y, p: built.append(n) or scatter(n, x, y, p))
    return built


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("cw8_")))
def test_select_builds_no_dense_rows(name, tmp_path, monkeypatch):
    built = spy_on_dense_rows(monkeypatch)
    result = CliRunner().invoke(main, ["select", *CASES[name], "--out", str(tmp_path / name)],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert built == []


def test_mcmc_builds_the_rows_once(tmp_path, monkeypatch):
    """The worst-case TV needs all of P's entries; the sampler reads its
    non-zeros."""
    built = spy_on_dense_rows(monkeypatch)
    result = CliRunner().invoke(main, ["mcmc", *MCMC_ARGS, "--out", str(tmp_path / "mcmc.csv")],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert built == [256]


def test_d13_entropy_sweep_stays_within_256_mib():
    """The dense P of Curie-Weiss d=13 alone would take 512 MiB.  One child
    runs the entropy sweep and then dist2fact m=1 (whose keep-in chains are
    still dense), reading its VmHWM after each: ru_maxrss would keep the
    peak of the test process, which Linux carries across exec."""
    script = (
        "import sys\n"
        "from mcselect.cli import main\n"
        "def run(*args):\n"
        "    try:\n"
        "        main(['select', '--d', '13', *args])\n"
        "    except SystemExit as exit:\n"
        "        assert not exit.code, exit.code\n"
        "    print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0], file=sys.stderr)\n"
        "run('--problem', 'entropy', '--m', '1', '--m-max', '2')\n"
        "run('--problem', 'dist2fact', '--m', '1')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert result.returncode == 0, result.stderr
    entropy_kib, dist2fact_kib = map(int, result.stderr.split()[-2:])
    assert entropy_kib < 256 * 1024
    assert dist2fact_kib < 256 * 1024
