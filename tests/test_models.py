import json

import numpy as np
import pytest

from mcselect.chain_core import ValidationError, stationary_distribution, validate
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
