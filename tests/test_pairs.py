import math

import numpy as np
import pytest

import framekit as fk
from framekit.pairs import Branch
from conftest import random_psd, random_parseval_frame


def self_dual(frame, op):
    return fk.build_dual_system(frame, frame, op)


class TestPairBounds:
    def test_identity_three_vectors(self):
        op = fk.build_operator(np.eye(2))
        b = fk.pair_bounds(op, 3)
        assert b.o1_min == pytest.approx(2 / 3, abs=1e-15)
        assert b.r1_min == pytest.approx(2 / 3, abs=1e-15)
        assert b.mu == pytest.approx(2 / 3, abs=1e-14)
        # plugging into the nonnegative branch: 2/3 + sqrt((2/3)/6) = 1
        assert b.branch is Branch.MU_NONNEG
        assert b.r2_min == pytest.approx(1.0, abs=1e-12)

    def test_rank_two_diagonal(self):
        op = fk.build_operator(np.diag([2.0, 1.0, 0.0]))
        b = fk.pair_bounds(op, 4)
        assert b.o1_min == 0.75

    def test_onb_case(self):
        n = 5
        op = fk.build_operator(np.eye(n))
        b = fk.pair_bounds(op, n)
        assert b.o1_min == 1.0
        assert b.mu == pytest.approx(0.0, abs=1e-12)
        assert b.r2_min == pytest.approx(1.0, abs=1e-12)

    def test_negative_mu_branch_formula(self):
        # mu < 0 is only reachable below rank(K); the formulas still evaluate
        op = fk.build_operator(np.eye(4))
        b = fk.pair_bounds(op, 2)
        assert b.mu == pytest.approx(4 - 8.0, abs=1e-12)
        assert b.branch is Branch.MU_NEG
        # value consistent with the derivation: sqrt((16 - 4) / 2)
        assert b.r2_min == pytest.approx(math.sqrt(6.0), abs=1e-12)
        # the statement-variant diagnostic is populated and differs
        assert b.r2_min_statement_variant is not None
        assert abs(b.r2_min_statement_variant - b.r2_min) > 1e-6

    def test_requires_psd(self):
        op = fk.build_operator(np.diag([1.0, -1.0]))
        with pytest.raises(fk.NotPSDError):
            fk.pair_bounds(op, 3)

    def test_requires_positive_n(self):
        op = fk.build_operator(np.eye(2))
        with pytest.raises(ValueError):
            fk.pair_bounds(op, 0)

    def test_single_vector_has_no_r2(self):
        op = fk.build_operator(np.eye(1))
        b = fk.pair_bounds(op, 1)
        assert b.r2_min is None and b.branch is None


class TestOptimalityPredicates:
    def test_full_rank_example_is_optimal(self, ex2):
        frame, op = ex2
        ds = fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)
        assert fk.is_o1_optimal_pair(ds)
        assert fk.is_r1_optimal_pair(ds)

    def test_rank_deficient_example_is_not(self, ex1):
        frame, op = ex1
        ds = fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)
        assert not fk.is_o1_optimal_pair(ds)
        assert not fk.is_r1_optimal_pair(ds)

    def test_onb(self):
        frame = fk.build_frame(np.eye(4))
        op = fk.build_operator(np.eye(4))
        ds = self_dual(frame, op)
        assert fk.is_o1_optimal_pair(ds)
        assert fk.is_r1_optimal_pair(ds)
        assert fk.is_r2_optimal_pair(ds)

    def test_mercedes_r2_optimal(self, mb):
        frame, op = mb
        ds = self_dual(frame, op)
        assert fk.is_r2_optimal_pair(ds)
        assert abs(fk.r2_closed_form(ds) - fk.pair_bounds(op, 3).r2_min) < 1e-12

    def test_single_vector_is_not_r2_optimal(self):
        # One vector is 1-uniform, but with no pair it has no r2 bound.
        frame = fk.build_frame([[1.0]])
        ds = self_dual(frame, fk.build_operator(np.eye(1)))
        assert fk.is_r1_optimal_pair(ds)
        assert not fk.is_r2_optimal_pair(ds)

    def test_one_uniform_but_not_two_is_not_r2_optimal(self):
        s = 1 / math.sqrt(2)
        frame = fk.build_frame([[s, 0], [0, s], [-s, 0], [0, -s]])
        op = fk.build_operator(np.eye(2))
        ds = self_dual(frame, op)
        assert fk.is_r1_optimal_pair(ds)
        assert not fk.is_r2_optimal_pair(ds)

    def test_o1_optimal_implies_one_uniform(self):
        # argmax-level restatement: operator-norm attainment forces
        # constant diagonal inner products
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(max(2, n), 7))
            op = fk.build_operator(random_psd(rng, n))
            T = fk.construct_optimal_self_dual(op, N)
            ds = self_dual(T, op)
            if fk.is_o1_optimal_pair(ds):
                c, _ = fk.uniformity(ds)
                assert c is not None
                assert c == pytest.approx(op.trace / N, abs=1e-9)


class TestUniformParsevalFrame:
    def test_square_is_onb(self):
        frame = fk.uniform_parseval_frame(4, 4)
        assert np.array_equal(frame.synthesis, np.eye(4))

    def test_mercedes_type(self):
        frame = fk.uniform_parseval_frame(2, 3)
        assert np.allclose(fk.frame_operator(frame), np.eye(2), atol=1e-13)
        assert np.allclose(frame.norms() ** 2, 2 / 3, atol=1e-14)

    def test_three_four(self):
        frame = fk.uniform_parseval_frame(3, 4)
        assert np.allclose(fk.frame_operator(frame), np.eye(3), atol=1e-12)
        assert np.allclose(frame.norms() ** 2, 3 / 4, atol=1e-12)

    @pytest.mark.parametrize("n,N", [(1, 1), (1, 5), (2, 2), (2, 5), (3, 7), (4, 5), (4, 6), (5, 6), (6, 8)])
    def test_parseval_and_equal_norms(self, n, N):
        frame = fk.uniform_parseval_frame(n, N)
        assert np.allclose(fk.frame_operator(frame), np.eye(n), atol=1e-12)
        assert np.allclose(frame.norms() ** 2, n / N, atol=1e-12)

    def test_dim_exceeding_count_rejected(self):
        with pytest.raises(ValueError):
            fk.uniform_parseval_frame(4, 3)


class TestConstructOptimalSelfDual:
    def test_identity_gives_uniform_parseval(self):
        op = fk.build_operator(np.eye(3))
        T = fk.construct_optimal_self_dual(op, 5)
        assert np.allclose(fk.frame_operator(T), np.eye(3), atol=1e-12)
        assert np.allclose(T.norms() ** 2, 3 / 5, atol=1e-12)

    def test_full_rank_diagonal(self):
        op = fk.build_operator(np.diag([2.0, 1.0, 1.0]))
        T = fk.construct_optimal_self_dual(op, 4)
        assert np.allclose(fk.frame_operator(T), op.matrix, atol=1e-12)
        assert np.allclose(T.norms() ** 2, 1.0, atol=1e-12)
        ds = self_dual(T, op)
        assert ds.kind is fk.DualKind.K_DUAL_PAIR
        assert fk.is_o1_optimal_pair(ds)
        assert fk.is_r1_optimal_pair(ds)

    def test_zero_operator(self):
        op = fk.build_operator(np.zeros((3, 3)))
        T = fk.construct_optimal_self_dual(op, 4)
        assert np.allclose(T.synthesis, 0.0)
        ds = self_dual(T, op)
        assert fk.o1(ds) == 0.0

    def test_fewer_vectors_than_dim(self):
        # rank 1 operator in R^3 admits a single-vector optimal pair
        op = fk.build_operator(np.diag([3.0, 0.0, 0.0]))
        T = fk.construct_optimal_self_dual(op, 2)
        assert T.n_vectors == 2
        assert np.allclose(fk.frame_operator(T), op.matrix, atol=1e-12)
        assert np.allclose(T.norms() ** 2, 1.5, atol=1e-12)

    def test_infeasible_below_rank(self):
        op = fk.build_operator(np.eye(3))
        with pytest.raises(fk.InfeasibleError):
            fk.construct_optimal_self_dual(op, 2)

    def test_attainment_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            rank = int(rng.integers(1, n + 1))
            op = fk.build_operator(random_psd(rng, n, rank))
            N = int(rng.integers(rank, 2 * n + 1))
            if N == 0:
                continue
            T = fk.construct_optimal_self_dual(op, N)
            target = op.trace / N
            assert np.max(np.abs(T.norms() ** 2 - target)) <= 1e-9
            assert np.linalg.norm(fk.frame_operator(T) - op.matrix) <= 1e-9


class TestUnitaryTransport:
    def test_identity_transport(self, mb):
        frame, op = mb
        ds = self_dual(frame, op)
        moved = fk.unitary_transport(ds, np.eye(2))
        assert np.allclose(moved.cross_gram, ds.cross_gram)

    def test_rotation_preserves_measures(self, mb):
        frame, op = mb
        ds = self_dual(frame, op)
        theta = 0.7
        U = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = fk.unitary_transport(ds, U)
        assert abs(fk.o1(moved) - fk.o1(ds)) <= 1e-12
        assert abs(fk.r1(moved) - fk.r1(ds)) <= 1e-12
        assert abs(fk.r2_closed_form(moved) - fk.r2_closed_form(ds)) <= 1e-12

    def test_block_rotation_commuting(self, ex2):
        frame, op = ex2
        ds = fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)
        theta = 0.3
        U = np.eye(3)
        U[1:, 1:] = [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
        moved = fk.unitary_transport(ds, U)
        assert abs(fk.o1(moved) - fk.o1(ds)) <= 1e-12
        assert abs(fk.r1(moved) - fk.r1(ds)) <= 1e-12

    def test_not_orthogonal_rejected(self, mb):
        frame, op = mb
        ds = self_dual(frame, op)
        with pytest.raises(ValueError):
            fk.unitary_transport(ds, 2.0 * np.eye(2))

    def test_non_commuting_rejected(self, ex1):
        frame, op = ex1
        ds = fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)
        theta = 0.4
        U = np.eye(3)
        U[:2, :2] = [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
        with pytest.raises(ValueError):
            fk.unitary_transport(ds, U)


class TestLowerBoundProperty:
    def test_random_pairs_respect_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            N = int(rng.integers(n, 8))
            op = fk.build_operator(random_psd(rng, n))
            frame = random_parseval_frame(rng, op, N)
            param = fk.dual_parameterization(frame, op)
            dual = fk.reconstruct_dual(param, rng.normal(size=param.dof))
            ds = fk.build_dual_system(frame, dual, op)
            bound = op.trace / N
            assert fk.o1(ds) >= bound - 1e-9
            assert fk.r1(ds) >= bound - 1e-9

    def test_two_uniform_product_matches_mu(self, mb):
        # simplex-type frames: constant products equal mu / (N (N-1))
        for n, N in [(2, 3), (3, 4)]:
            frame = fk.uniform_parseval_frame(n, N)
            op = fk.build_operator(np.eye(n))
            ds = self_dual(frame, op)
            c, c_prime = fk.uniformity(ds)
            assert c is not None and c_prime is not None
            mu = fk.pair_bounds(op, N).mu
            assert c_prime == pytest.approx(mu / (N * (N - 1)), abs=1e-9)
