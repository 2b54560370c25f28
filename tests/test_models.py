import json

import numpy as np
import pytest

from mcselect import chain_core
from mcselect.chain_core import (
    ProductStateSpace,
    TransitionMatrix,
    ValidationError,
    stationary_distribution,
    validate,
)
from mcselect.functionals import entropy_rate
from mcselect.models import (
    CurieWeissParams,
    StationaryMismatchWarning,
    curie_weiss_chain,
    hamiltonian,
    load_chain,
    save_chain,
)


class TestHamiltonian:
    def test_single_spin_up(self):
        assert hamiltonian([1], CurieWeissParams(1, 1.0, 1.0)) == -2.0

    def test_single_spin_down(self):
        assert hamiltonian([-1], CurieWeissParams(1, 1.0, 1.0)) == 0.0

    def test_two_spins_no_field(self):
        # interaction matrix [[1, .5], [.5, 1]], all-up energy -(1+.5+.5+1)
        assert hamiltonian([1, 1], CurieWeissParams(2, 1.0, 0.0)) == -3.0

    def test_rejects_non_spin_entries(self):
        with pytest.raises(ValidationError):
            hamiltonian([1, 0], CurieWeissParams(2, 1.0, 0.0))


class TestCurieWeissChain:
    def test_golden_entropy_rate(self, cw10):
        P, pi = cw10
        assert abs(entropy_rate(P, pi) - 2.29109) <= 1e-4

    def test_infinite_temperature_limit(self):
        P, _ = curie_weiss_chain(CurieWeissParams(4, 1e9, 1.0))
        off = P.rows[~np.eye(16, dtype=bool)]
        flips = off[off > 0]
        assert np.abs(flips - 0.25).max() <= 1e-8

    def test_detailed_balance_small(self):
        P, pi = curie_weiss_chain(CurieWeissParams(2, 10.0, 1.0))
        flux = pi.probs[:, None] * P.rows
        assert np.abs(flux - flux.T).max() <= 1e-12

    def test_reversibility_grid(self):
        for d in (2, 4, 6):
            for T in (0.5, 3.0, 50.0):
                for h in (-1.0, 0.0, 0.7):
                    P, pi = curie_weiss_chain(CurieWeissParams(d, T, h))
                    flux = pi.probs[:, None] * P.rows
                    assert np.abs(flux - flux.T).max() <= 1e-12

    def test_row_sums_exact(self, cw10):
        P, _ = cw10
        assert np.abs(P.rows.sum(axis=1) - 1.0).max() <= 1e-14

    def test_gibbs_is_stationary(self, cw4):
        P, pi = cw4
        assert np.abs(stationary_distribution(P).probs - pi.probs).max() <= 1e-10

    def test_gibbs_underflow_names_temperature_and_state(self):
        message = r"state 0 \(spins ----\) underflows to 0 at T=0.001"
        with pytest.raises(ValidationError, match=message):
            curie_weiss_chain(CurieWeissParams(4, 0.001, 1.0))

    @pytest.mark.parametrize("h", [float("inf"), float("-inf"), float("nan")])
    def test_field_must_be_finite(self, h):
        with pytest.raises(ValidationError, match="external field h must be finite"):
            CurieWeissParams(4, 10.0, h)

    def test_spin_to_digit_convention(self):
        # state index 0 is all spins down: its energy is -sum_ij 2^{-|i-j|} + d h
        params = CurieWeissParams(3, 2.0, 0.25)
        P, pi = curie_weiss_chain(params)
        energies = [hamiltonian(s, params) for s in
                    ([-1, -1, -1], [-1, -1, 1], [-1, 1, -1], [-1, 1, 1],
                     [1, -1, -1], [1, -1, 1], [1, 1, -1], [1, 1, 1])]
        weights = np.exp(-(np.array(energies) - min(energies)) / params.T)
        assert np.allclose(pi.probs, weights / weights.sum(), atol=1e-14)


class TestChainFiles:
    def test_round_trip_bit_identical(self, tmp_path, cw4):
        P, pi = cw4
        first = tmp_path / "chain.json"
        second = tmp_path / "again.json"
        save_chain(first, P, pi)
        P2, pi2 = load_chain(first)
        assert np.array_equal(P2.rows, P.rows)
        assert np.array_equal(pi2.probs, pi.probs)
        save_chain(second, P2, pi2)
        assert first.read_bytes() == second.read_bytes()

    def test_row_sum_violation_names_row(self, tmp_path):
        doc = {"d": 1, "dims": [2], "transition": [[0.5, 0.4], [0.5, 0.5]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="row 0"):
            load_chain(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed"):
            load_chain(path)

    def test_shape_mismatch(self, tmp_path):
        doc = {"d": 2, "dims": [2, 2], "transition": [[1.0, 0.0], [0.0, 1.0]]}
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="shape"):
            load_chain(path)

    def test_inconsistent_stationary_recomputed_with_warning(self, tmp_path, cw4):
        P, pi = cw4
        path = tmp_path / "skewed.json"
        skew = pi.probs.copy()
        skew[0] += 0.05
        skew[-1] -= 0.05
        save_chain(path, P, type(pi)(pi.space, skew))
        with pytest.warns(StationaryMismatchWarning):
            _, recovered = load_chain(path)
        assert np.abs(recovered.probs @ P.rows - recovered.probs).sum() <= 1e-12

    def test_missing_stationary_returns_none(self, tmp_path, cw4):
        P, _ = cw4
        path = tmp_path / "bare.json"
        save_chain(path, P)
        loaded, pi = load_chain(path)
        validate(loaded)
        assert pi is None


def naive_first_unreached(rows):
    """The first failure of mutual reachability with state 0, found by a
    dense boolean frontier search, or None."""
    support = rows > 0.0
    n = rows.shape[0]
    for adjacency, direction in ((support, "unreachable from"), (support.T, "cannot reach")):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return f"chain is not irreducible: state {int(np.argmin(seen))} {direction} state 0"
    return None


class TestIrreducibility:
    @pytest.mark.parametrize("seed", range(40))
    def test_first_reported_state_matches_a_dense_search(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rows = rng.random((n, n)) * (rng.random((n, n)) < 0.25)
        rows[np.arange(n), np.arange(n)] += 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        P = TransitionMatrix(ProductStateSpace((3, 4)), rows)
        want = naive_first_unreached(rows)
        if want is None:
            chain_core._require_irreducible(P)
        else:
            with pytest.raises(ValidationError) as err:
                chain_core._require_irreducible(P)
            assert str(err.value) == want

    @pytest.mark.parametrize("stored", [False, True])
    def test_searched_once_per_load(self, tmp_path, monkeypatch, cw4, stored):
        """A chain file without pi is checked in load_chain, and the solve
        that follows does not search P again."""
        P, pi = cw4
        path = tmp_path / "chain.json"
        save_chain(path, P, pi if stored else None)
        walks = []
        reached = chain_core._reached
        monkeypatch.setattr(chain_core, "_reached",
                            lambda src, dst, n: walks.append(1) or reached(src, dst, n))
        loaded, loaded_pi = load_chain(path)
        if loaded_pi is None:
            stationary_distribution(loaded)
        assert len(walks) == 2  # state 0 forwards, then backwards

    def test_each_matrix_is_searched_again(self, monkeypatch, cw4):
        walks = []
        reached = chain_core._reached
        monkeypatch.setattr(chain_core, "_reached",
                            lambda src, dst, n: walks.append(1) or reached(src, dst, n))
        P = cw4[0]
        for _ in range(2):
            stationary_distribution(TransitionMatrix(P.space, P.rows))
        assert len(walks) == 4


def support_born(rows):
    """``rows`` as the top-left block of a 16-state matrix that is the
    identity elsewhere, built from its non-zeros: sparse, so it holds no
    rows and is checked on its support."""
    big = np.eye(16)
    big[:len(rows), :len(rows)] = rows
    x, y = np.nonzero(big)
    P = TransitionMatrix._from_support(ProductStateSpace((2,) * 4), x, y, big[x, y])
    assert P._nonzeros and "rows" not in vars(P)
    return P


def spy_on_checks(monkeypatch):
    """Record the tolerance of every stochasticity check made."""
    checks = []
    check = chain_core._check_stochastic
    monkeypatch.setattr(chain_core, "_check_stochastic",
                        lambda rows, tol: checks.append(tol) or check(rows, tol))
    return checks


class TestValidatedOnce:
    def test_load_then_solve(self, tmp_path, monkeypatch, cw4):
        path = tmp_path / "chain.json"
        save_chain(path, cw4[0])
        checks = spy_on_checks(monkeypatch)
        loaded, pi = load_chain(path)
        assert pi is None
        stationary_distribution(loaded)
        assert checks == [chain_core.STOCHASTIC_TOL]

    def test_curie_weiss_then_solve(self, monkeypatch):
        checks = spy_on_checks(monkeypatch)
        P, _ = curie_weiss_chain(CurieWeissParams(4, 10.0, 1.0))
        stationary_distribution(P)
        validate(P)
        assert checks == [chain_core.STOCHASTIC_TOL]

    def test_each_matrix_is_checked_again(self, monkeypatch, cw4):
        P = cw4[0]
        validate(P)
        checks = spy_on_checks(monkeypatch)
        for _ in range(2):
            stationary_distribution(TransitionMatrix(P.space, P.rows))
        assert len(checks) == 2

    def test_a_failing_matrix_fails_every_time(self, monkeypatch):
        self.fails_every_time(monkeypatch, lambda rows: TransitionMatrix(ProductStateSpace((2,)), rows))

    def test_a_failing_support_born_matrix_fails_every_time(self, monkeypatch):
        self.fails_every_time(monkeypatch, support_born)

    def fails_every_time(self, monkeypatch, matrix):
        P = matrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
        checks = spy_on_checks(monkeypatch)
        for _ in range(3):
            with pytest.raises(ValidationError) as err:
                validate(P)
            assert str(err.value) == "row 0 sums to 1.1 (|1 - sum| = 1.000e-01)"
        assert len(checks) == 3

    def test_a_pass_counts_for_looser_tolerances_only(self):
        self.looser_tolerances_only(lambda rows: TransitionMatrix(ProductStateSpace((2,)), rows))

    def test_a_support_born_pass_counts_for_looser_tolerances_only(self):
        self.looser_tolerances_only(support_born)

    def looser_tolerances_only(self, matrix):
        rows = np.array([[0.5, 0.5 + 5e-10], [0.5, 0.5]])
        P = matrix(rows)
        validate(P, tol=chain_core.POWER_STOCHASTIC_TOL)
        with pytest.raises(ValidationError) as err:
            validate(P)
        assert str(err.value) == "row 0 sums to 1.0000000005 (|1 - sum| = 5.000e-10)"
        rows[0, 1] = 0.5 + 5e-11
        P = matrix(rows)
        validate(P)
        with pytest.raises(ValidationError) as err:
            validate(P, tol=1e-11)
        assert str(err.value) == "row 0 sums to 1.00000000005 (|1 - sum| = 5.000e-11)"

    def test_matrix_power_checks_its_result(self, monkeypatch, cw4):
        P = cw4[0]
        validate(P)
        checks = spy_on_checks(monkeypatch)
        chain_core.matrix_power(P, 3)
        assert checks == [chain_core.POWER_STOCHASTIC_TOL]
