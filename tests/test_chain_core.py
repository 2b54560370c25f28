import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_naive import (
    all_states,
    edge_projection,
    naive_bincount_power_iteration,
    naive_index,
    naive_keep_in,
    naive_marginal,
    naive_power_iteration,
    naive_tensor,
    naive_weighted_support,
    random_chain,
    random_reversible_chain,
    relabel_within,
    row_major_nonzeros,
)
from mcselect import chain_core, functionals
from mcselect.chain_core import (
    ConvergenceError,
    Distribution,
    ProductStateSpace,
    SubsetMask,
    TransitionMatrix,
    EdgeMeasure,
    ValidationError,
    marginalize,
    matrix_power,
    stationary_distribution,
    stationary_residual,
    tensor,
    tensor_dist,
    validate,
    worst_case_tv,
)
from mcselect.functionals import entropy_rate, kl_rate, shannon_entropy
from mcselect.models import CurieWeissParams, curie_weiss_chain, load_chain, save_chain

MIXED_CHAIN = Path(__file__).parent / "golden" / "mixed_3223.json"


def dist(space_dims, probs):
    return Distribution(ProductStateSpace(space_dims), np.asarray(probs))


def tm(space_dims, rows):
    return TransitionMatrix(ProductStateSpace(space_dims), np.asarray(rows))


def point(dims, index):
    probs = np.zeros(math.prod(dims))
    probs[index] = 1.0
    return dist(dims, probs)


def digits(mu):
    """The state a point mass sits on, read one coordinate at a time."""
    d = mu.space.d
    return tuple(int(np.argmax(marginalize(mu, SubsetMask.of(d, (i,))).probs)) for i in range(d))


class TestIndexing:
    """States index in mixed radix, coordinate 0 most significant, as
    ``marginalize`` and ``tensor_dist`` read them."""

    def test_zero_state(self):
        assert digits(point((2, 2), 0)) == (0, 0)

    def test_radix_order_first_coordinate_most_significant(self):
        assert digits(point((2, 2), 2)) == (1, 0)

    def test_mixed_radix_against_enumeration(self):
        dims = (2, 3, 2)
        assert digits(point(dims, 11)) == (1, 2, 1)
        for idx, state in enumerate(all_states(dims)):
            assert naive_index(dims, state) == idx
            assert digits(point(dims, idx)) == state

    def test_round_trip_inverse(self):
        dims = (3, 2, 4)
        for idx, state in enumerate(all_states(dims)):
            factors = [point((n,), digit) for n, digit in zip(dims, state)]
            assert np.array_equal(tensor_dist(factors).probs, point(dims, idx).probs)

    def test_cardinality_below_two_rejected(self):
        with pytest.raises(ValidationError):
            ProductStateSpace((2, 1))


class TestSubsetMask:
    def test_complement_involution(self):
        S = SubsetMask.of(5, (0, 3))
        assert S.complement().complement() == S
        assert S.size + S.complement().size == 5

    def test_out_of_universe_bit(self):
        with pytest.raises(ValidationError):
            SubsetMask(1 << 3, 3)

    def test_subsets_in_binary_counting_order(self):
        subsets = list(SubsetMask.of(5, (1, 3, 4)).subsets())
        assert [S.indices() for S in subsets] == [
            (), (1,), (3,), (1, 3), (4,), (1, 4), (3, 4), (1, 3, 4)]

    def test_relabel_within(self):
        outer = SubsetMask.of(6, (1, 3, 4))
        inner = SubsetMask.of(6, (3,))
        assert relabel_within(inner, outer).indices() == (1,)


class TestValidate:
    def test_identity_ok(self):
        validate(tm((2, 2), np.eye(4)))

    def test_bad_row_sum_reported(self):
        rows = np.eye(3)
        rows[1] = [0.5, 0.5, 0.5]
        with pytest.raises(ValidationError, match="row 1"):
            validate(TransitionMatrix(ProductStateSpace((3,)), rows))

    def test_negative_entry_reported(self):
        rows = np.array([[0.5, 0.5], [-0.2, 1.2]])
        with pytest.raises(ValidationError, match=r"entry \(1, 0\)"):
            validate(tm((2,), rows))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_reported(self, bad):
        rows = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ValidationError, match=r"entry \(1, 0\) = (nan|inf) is not finite"):
            validate(tm((2,), rows))

    def test_non_finite_probability_rejected(self):
        with pytest.raises(ValidationError, match="index 1 is nan, not finite"):
            dist((3,), [0.5, float("nan"), 0.5])

    def test_curie_weiss_valid(self, cw10):
        validate(cw10[0])

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf, -math.inf])
    def test_a_tolerance_outside_zero_to_inf_rejected(self, tol):
        """NaN would pass any matrix, a negative tol fail every one with a
        row message, and inf pass any finite one; the tolerance is refused
        before P is read, here a matrix whose row sums to 1.4."""
        P = tm((2,), np.array([[0.5, 0.9], [0.5, 0.5]]))
        with mock.patch.object(chain_core, "_check_stochastic") as check:
            with pytest.raises(ValidationError) as err:
                validate(P, tol=tol)
        assert str(err.value) == f"stochasticity check needs 0 <= tol < inf, got {tol!r}"
        assert check.call_count == 0 and not P._stochastic

    def test_a_zero_tolerance_is_a_check(self):
        validate(tm((2,), np.eye(2)), tol=0.0)
        with pytest.raises(ValidationError, match="row 0 sums to"):
            validate(tm((2,), np.array([[0.5, 0.5 + 1e-16 * 3], [0.5, 0.5]])), tol=0.0)

    def test_sum_message_prints_a_float(self):
        """The text is the same under numpy 1 and 2: a float, not numpy's
        scalar repr."""
        with pytest.raises(ValidationError) as err:
            dist((2,), [0.5, 0.6])
        assert str(err.value) == "probabilities sum to 1.1, not 1"


class TestStationary:
    def test_doubly_stochastic_uniform(self):
        rows = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        pi = stationary_distribution(tm((3,), rows))
        assert np.allclose(pi.probs, 1.0 / 3.0, atol=1e-12)

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.1
        rows = np.array([[1 - a, a], [b, 1 - b]])
        pi = stationary_distribution(tm((2,), rows))
        assert np.allclose(pi.probs, [b / (a + b), a / (a + b)], atol=1e-12)

    def test_periodic_chain_converges_via_lazy_iteration(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = stationary_distribution(tm((2,), swap))
        assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-12)

    def test_residual_below_tolerance(self, rng):
        P, _ = random_chain(rng, (2, 3), stationary=False)
        pi = stationary_distribution(P)
        assert np.abs(pi.probs @ P.rows - pi.probs).sum() <= 1e-12

    def test_curie_weiss_matches_gibbs(self, cw10):
        P, gibbs = cw10
        pi = stationary_distribution(P)
        assert np.abs(pi.probs - gibbs.probs).max() <= 1e-10

    def test_transient_state_rejected(self):
        rows = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="irreducible"):
            stationary_distribution(tm((2,), rows))

    def test_disconnected_classes_rejected(self):
        with pytest.raises(ValidationError, match="irreducible"):
            stationary_distribution(tm((2, 2), np.eye(4)))

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iterations_rejected(self, max_iters):
        rows = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="max_iters >= 1"):
            stationary_distribution(tm((2,), rows), max_iters=max_iters)

    def test_one_iteration_short_of_tolerance(self):
        rows = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ConvergenceError, match="after 1 iterations"):
            stationary_distribution(tm((2,), rows), max_iters=1)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_a_tolerance_outside_zero_to_inf_rejected(self, tol):
        """NaN or a tolerance <= 0 would never be met and inf always; the
        tolerance is refused before P is validated, here a matrix whose
        row does not sum to 1."""
        rows = np.array([[0.9, 0.1], [0.2, 0.9]])
        with pytest.raises(ValidationError, match=r"needs 0 < tol < inf, got " + re.escape(repr(tol))):
            stationary_distribution(tm((2,), rows), tol=tol)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, "7", True])
    def test_max_iters_that_is_not_an_integer_rejected(self, max_iters):
        rows = np.array([[0.9, 0.1], [0.2, 0.9]])
        with pytest.raises(ValidationError, match=r"needs an integer max_iters, got "):
            stationary_distribution(tm((2,), rows), max_iters=max_iters)

    def test_numpy_integer_max_iters(self):
        rows = np.array([[0.9, 0.1], [0.2, 0.8]])
        want = stationary_distribution(tm((2,), rows), max_iters=1000)
        got = stationary_distribution(tm((2,), rows), max_iters=np.int64(1000))
        assert np.array_equal(got.probs, want.probs)


class TestStationaryResidualSpace:
    """pi must live on P's space: neither another number of states nor
    other dims with the same total are read against P."""

    @pytest.fixture
    def cw6(self):
        return curie_weiss_chain(CurieWeissParams(6, 10.0, 1.0))

    @pytest.mark.parametrize("dims", [(2,) * 5, (4, 4, 4), (8, 8)])
    @pytest.mark.parametrize("call", [
        stationary_residual,
        functionals.assert_stationary,
        entropy_rate,
    ], ids=("stationary_residual", "assert_stationary", "entropy_rate"))
    def test_pi_on_other_dims_rejected(self, cw6, call, dims):
        P, _ = cw6
        n = math.prod(dims)
        with pytest.raises(ValidationError) as err:
            call(P, dist(dims, np.full(n, 1.0 / n)))
        assert str(err.value) == f"pi lives on dims {dims}, P on dims {(2,) * 6}"

    def test_pi_on_the_same_dims(self, cw6):
        P, gibbs = cw6
        pi = dist((2,) * 6, gibbs.probs)
        assert stationary_residual(P, pi) == stationary_residual(P, gibbs) <= 1e-12


def is_sparse(P):
    return chain_core._sparse_nonzeros(P) is not None


def chorded_cycle():
    """A 16-state cycle with one chord 0 -> 3: 17 non-zeros, period 2 (the
    cycles have lengths 16 and 14), and a stationary law that is not
    uniform, so the plain iteration would oscillate from the uniform start."""
    n = 16
    rows = np.zeros((n, n))
    rows[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    rows[0, 1] = rows[0, 3] = 0.5
    return tm((2, 2, 2, 2), rows)


@st.composite
def sparse_chains(draw):
    """A random irreducible chain on 4 or 5 coordinates of sizes 2 and 3
    with fewer than n/8 non-zeros a row: a cycle through every state, which
    keeps it irreducible, and random chords."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=4, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = math.prod(dims)
    states = np.arange(n)
    rows = np.zeros((n, n))
    rows[states, (states + 1) % n] = rng.random(n) + 0.05
    for x, chords in zip(states, rng.integers(0, (n - 1) // 8, size=n)):
        rows[x, rng.choice(n, chords, replace=False)] += rng.random(chords) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return tm(dims, rows)


class TestSparseSolve:
    """The solve over a sparse P's non-zeros against the dense iteration
    ``v @ rows``: the same steps, and pi within 1e-14 in L1."""

    def assert_matches_the_dense_iteration(self, P):
        assert is_sparse(P)
        want, steps, _ = naive_power_iteration(P.rows)
        pi = stationary_distribution(P)
        assert np.abs(pi.probs - want).sum() <= 1e-14
        stationary_distribution(P, max_iters=steps)
        if steps > 1:
            with pytest.raises(ConvergenceError, match=f"after {steps - 1} iterations"):
                stationary_distribution(P, max_iters=steps - 1)

    @pytest.mark.parametrize("d", [6, 7, 8, 9, 10])
    def test_curie_weiss(self, d):
        P, _ = curie_weiss_chain(CurieWeissParams(d, 10.0, 1.0))
        self.assert_matches_the_dense_iteration(P)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(sparse_chains())
    def test_random_sparse_chains(self, P):
        n = P.space.total
        assert (np.count_nonzero(P.rows, axis=1) < n / 8).all()
        self.assert_matches_the_dense_iteration(P)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 2, 2, 2)])
    def test_dense_input_keeps_its_bits(self, rng, dims):
        P, _ = random_chain(rng, dims, stationary=False)
        assert not is_sparse(P)
        assert np.array_equal(stationary_distribution(P).probs, naive_power_iteration(P.rows)[0])

    def test_the_sparse_rule_is_strict(self):
        """A cycle with self-loops has 2n non-zeros, 8 nnz = n^2 at n=16:
        dense, and bit for bit the dense iteration; dropping a self-loop
        makes it sparse."""
        n = 16
        rows = np.zeros((n, n))
        rows[np.arange(n), (np.arange(n) + 1) % n] = np.linspace(0.2, 0.8, n)
        rows[np.arange(n), np.arange(n)] = 1.0 - rows[np.arange(n), (np.arange(n) + 1) % n]
        P = tm((2, 2, 2, 2), rows)
        assert not is_sparse(P)
        assert np.array_equal(stationary_distribution(P).probs, naive_power_iteration(rows)[0])
        rows[5, 6], rows[5, 5] = 1.0, 0.0
        self.assert_matches_the_dense_iteration(tm((2, 2, 2, 2), rows))

    def test_periodic_chain_converges_via_lazy_iteration(self):
        P = chorded_cycle()
        self.assert_matches_the_dense_iteration(P)
        want = np.full(16, 2.0)
        want[1:3] = 1.0  # the states the chord skips
        assert np.allclose(stationary_distribution(P).probs, want / 30.0, rtol=0, atol=1e-12)

    def test_disconnected_classes_rejected(self):
        P = tm((2, 2, 2, 2), np.eye(16))
        assert is_sparse(P)
        with pytest.raises(ValidationError) as err:
            stationary_distribution(P)
        assert str(err.value) == "chain is not irreducible: state 1 unreachable from state 0"

    def test_transient_state_rejected(self):
        """State 0 leads into the cycle 1 -> 2 -> ... -> 15 -> 1, which never
        returns to it."""
        rows = np.zeros((16, 16))
        rows[np.arange(15), np.arange(1, 16)] = 1.0
        rows[15, 1] = 1.0
        P = tm((2, 2, 2, 2), rows)
        assert is_sparse(P)
        with pytest.raises(ValidationError) as err:
            stationary_distribution(P)
        assert str(err.value) == "chain is not irreducible: state 1 cannot reach state 0"

    def test_one_iteration_short_of_tolerance(self):
        P = chorded_cycle()
        _, _, residual = naive_power_iteration(P.rows, max_iters=1)
        with pytest.raises(ConvergenceError) as err:
            stationary_distribution(P, max_iters=1)
        assert str(err.value) == (
            "power iteration did not reach ||pi P - pi||_1 <= 1e-12 after 1 iterations "
            f"(residual {residual:.3e})")


@st.composite
def in_degree_chains(draw, hub):
    """A random irreducible chain on 6 coordinates of sizes 2 and 3 whose
    in-degrees are uneven: each column y draws one from lo..2 lo and takes
    its sources from y - 1, which closes a cycle, and other random states,
    so the largest in-degree is at most twice the mean.  With ``hub``,
    every state also moves to one hub column, whose in-degree is then n."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=6, max_size=6)))
    lo = draw(st.integers(1, 3))
    hi = draw(st.integers(lo, 2 * lo))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = math.prod(dims)
    rows = np.zeros((n, n))
    for y, degree in enumerate(rng.integers(lo, hi + 1, size=n)):
        others = np.delete(np.arange(n), (y - 1) % n)
        sources = np.append(rng.choice(others, degree - 1, replace=False), (y - 1) % n)
        rows[sources, y] = rng.random(degree) + 0.05
    if hub:
        rows[:, rng.integers(n)] += rng.random(n) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return tm(dims, rows)


def padded_entries(P):
    """(K n, nnz): the entries of P's column layout padded to its largest
    in-degree K, and its non-zeros."""
    _, y, _ = row_major_nonzeros(P)
    return int(np.bincount(y).max()) * P.space.total, len(y)


def reads_by_column(P):
    """Whether the solve's product over P makes no ``np.bincount`` call."""
    product = chain_core._column_product(P)
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
        product(np.full(P.space.total, 1.0 / P.space.total))
    return bincount.call_count == 0


class TestColumnProduct:
    """The solve of a sparse P reads its non-zeros by column, with the bits
    of ``np.bincount`` over them in row-major order: pi bit for bit and the
    same number of steps as :func:`naive_bincount_power_iteration`.  A P
    whose layout would more than double its entries keeps the bincount."""

    def assert_bincount_bits(self, P):
        assert is_sparse(P)
        want, steps, _ = naive_bincount_power_iteration(P)
        assert np.array_equal(stationary_distribution(P).probs, want)
        assert np.array_equal(stationary_distribution(P, max_iters=steps).probs, want)
        if steps > 1:
            with pytest.raises(ConvergenceError, match=f"after {steps - 1} iterations"):
                stationary_distribution(P, max_iters=steps - 1)

    @pytest.mark.parametrize("d", [6, 7, 8, 9, 10, 11, 12])
    def test_bincount_bits_curie_weiss(self, d):
        P, _ = curie_weiss_chain(CurieWeissParams(d, 10.0, 1.0))
        # in-degrees d and d + 1: at most one padding entry a column
        assert np.isin(np.bincount(P._nonzeros[1]), (d, d + 1)).all()
        assert reads_by_column(P)
        self.assert_bincount_bits(P)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(sparse_chains())
    def test_bincount_bits_random_sparse_chains(self, P):
        self.assert_bincount_bits(P)

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(in_degree_chains(hub=False))
    def test_bincount_bits_uneven_in_degrees(self, P):
        padded, nnz = padded_entries(P)
        assert padded <= 2 * nnz and reads_by_column(P)
        self.assert_bincount_bits(P)

    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(in_degree_chains(hub=True))
    def test_bincount_bits_hub_column_falls_back(self, P):
        padded, nnz = padded_entries(P)
        assert padded > 2 * nnz and not reads_by_column(P)
        self.assert_bincount_bits(P)

    def test_bincount_bits_periodic_chain(self):
        self.assert_bincount_bits(chorded_cycle())

    @staticmethod
    def assert_one_product_bits(P, rng):
        """The solve's product and the one-off product of the residual
        checks (:func:`chain_core._left_product`) agree bit for bit."""
        product = chain_core._column_product(P)
        for _ in range(3):
            v = rng.random(P.space.total)
            assert np.array_equal(product(v), chain_core._left_product(v, P))

    @pytest.mark.parametrize("make", [
        lambda rng: curie_weiss_chain(CurieWeissParams(9, 1.0, -0.5))[0],
        lambda rng: random_chain(rng, (2, 3, 2), stationary=False)[0],
    ], ids=("curie-weiss", "dense"))
    def test_bincount_bits_one_product(self, rng, make):
        self.assert_one_product_bits(make(rng), rng)

    @settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @given(st.one_of(sparse_chains(), in_degree_chains(hub=False), in_degree_chains(hub=True)),
           st.integers(0, 2**32 - 1))
    def test_bincount_bits_one_product_random(self, P, seed):
        self.assert_one_product_bits(P, np.random.default_rng(seed))

    def test_layout_built_once_per_call_and_not_kept(self, monkeypatch):
        """One layout a solve, one product a step, and P holds nothing new
        after the call beyond the verdicts of its first solve."""
        P, _ = curie_weiss_chain(CurieWeissParams(8, 10.0, 1.0))
        _, steps, _ = naive_bincount_power_iteration(P)
        layouts, products = [], []
        column_product = chain_core._column_product

        def spy(M):
            layouts.append(M)
            product = column_product(M)
            return lambda v: products.append(1) or product(v)

        monkeypatch.setattr(chain_core, "_column_product", spy)
        stationary_distribution(P)
        layouts.clear()
        products.clear()
        held = dict(vars(P))
        for calls in (1, 2):
            stationary_distribution(P)
            assert len(layouts) == calls and len(products) == calls * steps
        assert vars(P).keys() == held.keys()
        assert all(vars(P)[key] is value for key, value in held.items())


class TestOneScanPerMatrix:
    """A loaded chain is scanned for its non-zeros once, by the
    irreducibility search; the solve and every edge measure read what P
    keeps.  A dense P keeps none of its entries."""

    def run(self, tmp_path, monkeypatch, P):
        path = tmp_path / "chain.json"
        save_chain(path, P)
        scans = []
        scan = chain_core._scan
        monkeypatch.setattr(chain_core, "_scan", lambda M: scans.append(1) or scan(M))
        loaded, pi = load_chain(path)
        assert pi is None
        pi = stationary_distribution(loaded)
        for _ in range(2):
            EdgeMeasure(loaded, pi).keep_in(SubsetMask.of(P.space.d, (0,)))
        assert len(scans) == 1
        return loaded

    def test_sparse_chain(self, tmp_path, monkeypatch):
        P = self.run(tmp_path, monkeypatch, curie_weiss_chain(CurieWeissParams(6, 10.0, 1.0))[0])
        assert len(P._nonzeros) == 3
        assert all(not arr.flags.writeable for arr in P._nonzeros)

    def test_dense_chain(self, tmp_path, monkeypatch, rng):
        P = self.run(tmp_path, monkeypatch, random_chain(rng, (2, 2, 2), stationary=False)[0])
        assert P._nonzeros == ()


class TestMarginalize:
    def test_product_factorizes(self):
        mu = dist((2,), [0.3, 0.7])
        nu = dist((2,), [0.4, 0.6])
        joint = tensor_dist([mu, nu])
        out = marginalize(joint, SubsetMask.of(2, (0,)))
        assert np.allclose(out.probs, mu.probs, atol=1e-15)

    def test_uniform(self):
        joint = dist((2, 2), [0.25] * 4)
        out = marginalize(joint, SubsetMask.of(2, (1,)))
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_hand_sum(self):
        joint = dist((2, 2), [0.1, 0.2, 0.3, 0.4])
        out = marginalize(joint, SubsetMask.of(2, (0,)))
        assert np.allclose(out.probs, [0.3, 0.7], atol=1e-15)

    def test_empty_mask_scalar(self):
        joint = dist((2, 2), [0.1, 0.2, 0.3, 0.4])
        out = marginalize(joint, SubsetMask.empty(2))
        assert out.space.total == 1
        assert np.allclose(out.probs, [1.0])

    def test_against_naive(self, rng):
        P, pi = random_chain(rng, (2, 3, 2))
        keep = (0, 2)
        got = marginalize(pi, SubsetMask.of(3, keep))
        want = naive_marginal(pi.probs.tolist(), (2, 3, 2), keep)
        assert np.allclose(got.probs, want, atol=1e-14)

    def test_adopted_marginal_has_the_bits_of_the_validating_path(self, rng):
        """A marginal is adopted without a copy or a check: read-only, with
        the bits of a Distribution built and validated from the same sum."""
        dims = (2, 3, 2)
        _, pi = random_chain(rng, dims)
        for S in SubsetMask.full(3).subsets():
            got = marginalize(pi, S)
            drop = tuple(i for i in range(3) if i not in S)
            want = Distribution(pi.space.subspace(S), pi.probs.reshape(dims).sum(axis=drop))
            assert got.space == want.space
            assert got.probs.tobytes() == want.probs.tobytes()
            assert not got.probs.flags.writeable


class TestProjection:
    def test_full_keep_returns_same_object(self, rng):
        P, pi = random_chain(rng, (2, 2))
        assert EdgeMeasure(P, pi).keep_in(SubsetMask.full(2)) is P
        out = EdgeMeasure(P, pi).keep_in(SubsetMask.empty(2))
        assert out.space.total == 1 and np.allclose(out.rows, [[1.0]])

    def test_product_chain_projects_to_factor(self, rng):
        M1, mu1 = random_reversible_chain(rng, (2,))
        M2, mu2 = random_reversible_chain(rng, (3,))
        P = tensor([M1, M2])
        pi = tensor_dist([mu1, mu2])
        got = EdgeMeasure(P, pi).keep_in(SubsetMask.of(2, (0,)))
        assert np.allclose(got.rows, M1.rows, atol=1e-12)

    def test_keep_in_against_brute_force(self, rng):
        P, pi = random_chain(rng, (2, 2))
        got = EdgeMeasure(P, pi).keep_in(SubsetMask.of(2, (0,)))
        want = naive_keep_in(P.rows.tolist(), pi.probs.tolist(), (2, 2), (0,))
        assert np.allclose(got.rows, want, atol=1e-13)

    def test_keep_in_rows_stochastic(self, rng):
        P, pi = random_chain(rng, (2, 3, 2))
        edge = EdgeMeasure(P, pi)
        for mask_bits in range(8):
            validate(edge.keep_in(SubsetMask(mask_bits, 3)))

    def test_projection_tower(self, rng):
        P, pi = random_chain(rng, (2, 2, 3))
        T = SubsetMask.of(3, (0, 2))
        S = SubsetMask.of(3, (2,))
        P_T = EdgeMeasure(P, pi).keep_in(T)
        pi_T = marginalize(pi, T)
        two_step = EdgeMeasure(P_T, pi_T).keep_in(relabel_within(S, T))
        one_step = EdgeMeasure(P, pi).keep_in(S)
        assert np.abs(two_step.rows - one_step.rows).max() <= 1e-10

    def test_stationarity_inherited(self, rng):
        P, pi = random_reversible_chain(rng, (2, 2, 2))
        for bits in range(1, 8):
            S = SubsetMask(bits, 3)
            P_S = EdgeMeasure(P, pi).keep_in(S)
            pi_S = marginalize(pi, S)
            assert np.abs(pi_S.probs @ P_S.rows - pi_S.probs).sum() <= 1e-10


class TestTensor:
    def test_identity_factors(self):
        I2 = tm((2,), np.eye(2))
        assert np.allclose(tensor([I2, I2]).rows, np.eye(4))

    def test_row_of_mixed_product(self):
        A = tm((2,), [[0.5, 0.5], [0.5, 0.5]])
        B = tm((2,), np.eye(2))
        got = tensor([A, B]).rows
        assert np.allclose(got[0], [0.5, 0.0, 0.5, 0.0])

    def test_empty_product_is_scalar(self):
        out = tensor([])
        assert out.space.total == 1 and np.allclose(out.rows, [[1.0]])

    def test_three_factors_against_naive(self, rng):
        mats = [random_reversible_chain(rng, (2,))[0] for _ in range(3)]
        got = tensor(mats).rows
        want = naive_tensor([M.rows.tolist() for M in mats], [(2,)] * 3)
        assert np.allclose(got, want, atol=1e-14)

    def test_tensor_dist_values(self):
        mu = dist((2,), [0.3, 0.7])
        nu = dist((2,), [0.4, 0.6])
        assert np.allclose(tensor_dist([mu, nu]).probs, [0.12, 0.18, 0.28, 0.42])
        u = dist((2,), [0.5, 0.5])
        assert np.allclose(tensor_dist([u, u]).probs, [0.25] * 4)

    def test_tensor_dist_three_factors_against_naive(self, rng):
        parts = [random_reversible_chain(rng, (2,))[1] for _ in range(3)]
        got = tensor_dist(parts).probs
        want = np.array(
            [p1 * p2 * p3 for p1 in parts[0].probs for p2 in parts[1].probs for p3 in parts[2].probs]
        )
        assert np.allclose(got, want, atol=1e-15)

    def test_project_inverts_tensor_on_product_chains(self, rng):
        factors = [random_reversible_chain(rng, (2,)) for _ in range(3)]
        P = tensor([f[0] for f in factors])
        pi = tensor_dist([f[1] for f in factors])
        S = SubsetMask.of(3, (0, 2))
        got = EdgeMeasure(P, pi).keep_in(S)
        want = tensor([factors[0][0], factors[2][0]])
        assert np.abs(got.rows - want.rows).max() <= 1e-12


class TestEdgeMeasure:
    def test_identity_diagonal(self):
        mu = dist((2,), [0.5, 0.5])
        P = tm((2,), np.eye(2))
        em = EdgeMeasure(P, mu)
        assert np.allclose(edge_projection(em, SubsetMask.full(1)), [[0.5, 0.0], [0.0, 0.5]])

    def test_values(self):
        mu = dist((2,), [0.25, 0.75])
        P = tm((2,), [[0.5, 0.5], [0.5, 0.5]])
        em = EdgeMeasure(P, mu)
        assert np.allclose(edge_projection(em, SubsetMask.full(1)).reshape(-1),
                           [0.125, 0.125, 0.375, 0.375])
        assert np.allclose(edge_projection(em, SubsetMask.empty(1)), [[1.0]])

    def test_marginals(self, rng):
        """The row sums of every projection are the marginal of pi, and for
        a stationary pi so are the column sums."""
        P, pi = random_chain(rng, (3, 2, 2))
        em = EdgeMeasure(P, pi)
        for S in SubsetMask.full(3).subsets():
            E_S = edge_projection(em, S)
            assert np.allclose(E_S.sum(axis=1), marginalize(pi, S).probs, atol=1e-14)
            assert np.allclose(E_S.sum(axis=0), marginalize(pi, S).probs, atol=1e-12)

    def test_keep_in_full_is_P(self, rng):
        P, pi = random_chain(rng, (2, 3))
        em = EdgeMeasure(P, pi)
        assert em.keep_in(SubsetMask.full(2)) is P

    def test_keep_in_checks_the_universe_of_a_full_sized_mask(self, rng):
        """A mask of another universe with d coordinates is not the full mask."""
        P, pi = random_chain(rng, (2, 2, 2))
        with pytest.raises(ValidationError, match="universe"):
            EdgeMeasure(P, pi).keep_in(SubsetMask.of(5, (0, 3, 4)))

    def test_keep_in_against_naive(self, rng):
        dims = (2, 3, 2)
        P, pi = random_chain(rng, dims)
        em = EdgeMeasure(P, pi)
        for keep in ((0,), (1, 2), (0, 2)):
            got = em.keep_in(SubsetMask.of(3, keep)).rows
            want = naive_keep_in(P.rows.tolist(), pi.probs.tolist(), dims, keep)
            assert np.allclose(got, want, atol=1e-14)

    def test_entropy_rate_identity_curie_weiss(self, cw4):
        P, pi = cw4
        em = EdgeMeasure(P, pi)
        for S in SubsetMask.full(4).subsets():
            if S.size == 0:
                continue
            lhs = shannon_entropy(edge_projection(em, S)) - shannon_entropy(marginalize(pi, S))
            assert abs(lhs - entropy_rate(em.keep_in(S), marginalize(pi, S))) <= 1e-10

    def test_cube_is_read_only(self, cw4):
        em = EdgeMeasure(*cw4)
        with pytest.raises(ValueError):
            em.cube[(0,) * 8] = 1.0

    def test_requires_full_support(self):
        P = tm((2,), [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            EdgeMeasure(P, dist((2,), [1.0, 0.0]))


def count_reductions(monkeypatch) -> list:
    """Record (edge measure, mask bits) at every reduction of a cube."""
    calls = []
    reduce = EdgeMeasure._reduce

    def spy(self, mask):
        calls.append((id(self), mask.bits))
        return reduce(self, mask)

    monkeypatch.setattr(EdgeMeasure, "_reduce", spy)
    return calls


class TestProjectionMemo:
    @pytest.mark.parametrize("chain", ["cw6", "mixed_3223"])
    def test_hit_equals_a_fresh_projection(self, chain, monkeypatch):
        if chain == "cw6":
            P, pi = curie_weiss_chain(CurieWeissParams(6, 10.0, 1.0))
        else:
            P, pi = load_chain(MIXED_CHAIN)
        d = P.space.d
        fresh = {S.bits: (edge_projection(EdgeMeasure(P, pi), S) if S.size < d else None,
                          EdgeMeasure(P, pi).keep_in(S).rows)
                 for S in SubsetMask.full(d).subsets()}
        reductions = count_reductions(monkeypatch)
        for S in SubsetMask.full(d).subsets():
            reductions.clear()
            em = EdgeMeasure(P, pi)
            first, hit = em.keep_in(S).rows, em.keep_in(S).rows
            assert np.array_equal(first, fresh[S.bits][1])
            assert np.array_equal(hit, fresh[S.bits][1])
            if S.size < d:
                assert np.array_equal(edge_projection(em, S), fresh[S.bits][0])
            # the full mask is P itself; any other is reduced once
            assert reductions == ([] if S.size == d else [(id(em), S.bits)])

    def test_mutating_a_result_leaves_the_memo_alone(self, rng):
        P, pi = random_chain(rng, (3, 2, 2))
        S = SubsetMask.of(3, (0, 2))
        want = edge_projection(EdgeMeasure(P, pi), S)
        want_keep_in = EdgeMeasure(P, pi).keep_in(S).rows
        em = EdgeMeasure(P, pi)
        for _ in range(2):  # the reduction's result, then a memo hit
            edge_projection(em, S)[:] = -1.0
            assert np.array_equal(edge_projection(em, S), want)
            assert np.array_equal(em.keep_in(S).rows, want_keep_in)
        with pytest.raises(ValueError):
            em.keep_in(S).rows[0, 0] = -1.0

    def test_memo_stays_within_the_cube(self, rng, monkeypatch):
        P, pi = random_chain(rng, (2,) * 7)
        masks = list(SubsetMask.full(7).subsets())
        want = [EdgeMeasure(P, pi).keep_in(S).rows for S in masks]
        em = EdgeMeasure(P, pi)
        reductions = count_reductions(monkeypatch)
        for S in masks:
            em.keep_in(S)
            assert em.held_bytes <= em.cube.nbytes
        assert len(reductions) == len(masks) - 1
        # a dense chain does not fit: the first masks are kept, the rest are
        # reduced again and still give the same values
        assert 0 < em.held_bytes
        for S, P_S in zip(masks, want):
            assert np.array_equal(em.keep_in(S).rows, P_S)
        assert em.held_bytes <= em.cube.nbytes
        assert len(masks) - 1 < len(reductions) < 2 * (len(masks) - 1)


class TestHeldSupport:
    def test_is_the_weighted_support_of_P(self, rng):
        P, pi = random_chain(rng, (3, 2, 2))
        held = EdgeMeasure(P, pi).support()
        for got, want in zip(held, naive_weighted_support(pi.probs, P.rows)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable


class TestMatrixPower:
    def test_identity(self):
        P = tm((2,), np.eye(2))
        assert np.allclose(matrix_power(P, 7).rows, np.eye(2))

    def test_first_power(self, rng):
        P, _ = random_chain(rng, (2,), stationary=False)
        assert np.allclose(matrix_power(P, 1).rows, P.rows)

    def test_square_against_naive_loops(self, rng):
        P, _ = random_chain(rng, (2, 2), stationary=False)
        got = matrix_power(P, 2).rows
        n = 4
        want = [[sum(P.rows[x][z] * P.rows[z][y] for z in range(n)) for y in range(n)] for x in range(n)]
        assert np.allclose(got, want, atol=1e-14)

    def test_zero_power(self, rng):
        P, _ = random_chain(rng, (2, 2), stationary=False)
        assert np.allclose(matrix_power(P, 0).rows, np.eye(4))


class TestWorstCaseTV:
    def test_stationary_kernel_zero(self, rng):
        _, pi = random_chain(rng, (2, 2))
        rows = np.tile(pi.probs, (4, 1))
        P = TransitionMatrix(pi.space, rows)
        for n in (1, 3):
            assert worst_case_tv(P, pi, n) <= 1e-15

    def test_power_zero_gives_delta_distance(self, rng):
        P, pi = random_chain(rng, (2, 2))
        got = worst_case_tv(P, pi, 0)
        assert abs(got - (1.0 - pi.probs.min())) <= 1e-14

    def test_curie_weiss_ten_steps(self, cw8):
        P, pi = cw8
        assert abs(worst_case_tv(P, pi, 10) - 0.22) <= 0.005


class TestPartitionLemma:
    def test_projection_never_increases_kl(self, rng):
        for _ in range(8):
            P, _ = random_chain(rng, (2, 2), stationary=False)
            L, _ = random_chain(rng, (2, 2), stationary=False)
            probs = rng.random(4) + 0.1
            pi = Distribution(P.space, probs / probs.sum())
            full = kl_rate(P, L, pi).value
            for bits in range(4):
                S = SubsetMask(bits, 2)
                P_S = EdgeMeasure(P, pi).keep_in(S)
                L_S = EdgeMeasure(L, pi).keep_in(S)
                pi_S = marginalize(pi, S)
                assert kl_rate(P_S, L_S, pi_S).value <= full + 1e-10
