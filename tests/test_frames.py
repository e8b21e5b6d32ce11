import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import framekit as fk
from framekit import fixtures
from framekit.erasures import Measure
from framekit.frames import (
    CHOLESKY_BLOCK,
    DEFAULT_TOL,
    RANK_TOL,
    DualParameterization,
    _cholesky_solver,
    _components,
    _matroid_components,
    _pivoted_qr,
)
from framekit.search import _Objective
from conftest import (
    certificate_systems,
    chart_value,
    coefficient_space_polish,
    degenerate_frame,
    dense_diagonal_map,
    kv_block_frame,
    near_joined_components,
    non_orthogonal_components,
    random_block_frame,
    random_parseval_frame,
    random_psd,
)

S2 = math.sqrt(2.0)


class TestBuildFrame:
    def test_rank_deficient_example(self, ex1):
        frame, _ = ex1
        assert frame.dim == 3
        assert frame.n_vectors == 4
        assert np.array_equal(frame.synthesis[:, 2], [S2, 0, 0])

    def test_standard_basis(self):
        frame = fk.build_frame([[1, 0], [0, 1]])
        assert np.array_equal(frame.synthesis, np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fk.build_frame([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            fk.build_frame([[1, 0], [1, 0, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fk.build_frame([[1, np.nan]])

    def test_vectors_view_matches_columns(self, ex1):
        frame, _ = ex1
        for i in range(frame.n_vectors):
            assert np.array_equal(frame.vectors[i], frame.synthesis[:, i])

    def test_immutable(self, ex1):
        frame, _ = ex1
        with pytest.raises(ValueError):
            frame.synthesis[0, 0] = 5.0

    def test_owns_its_array(self):
        # Frame copies its input: the caller's array stays writable, and a
        # later write to it or to the base of a view changes no frame.
        A = np.arange(6.0).reshape(2, 3)
        B = np.arange(6.0).reshape(2, 3)
        frame, view = fk.Frame(A), fk.Frame(B[:, :])
        assert A.flags.writeable and B.flags.writeable
        A[0, 0] = B[0, 0] = 9.0
        assert frame.synthesis[0, 0] == 0.0 and view.synthesis[0, 0] == 0.0


def penrose_residuals(K, P):
    """(residual, cut) of the four Penrose identities of P = K^+, each cut
    1e-10 times that identity's rounding size: ||K|| ||P|| for the
    symmetry of K P and P K, ||K||^2 ||P|| for K P K = K and ||P||^2 ||K||
    for P K P = P (Frobenius norms)."""
    k, p = np.linalg.norm(K), np.linalg.norm(P)
    return [
        (np.linalg.norm(K @ P @ K - K), 1e-10 * k * k * p),
        (np.linalg.norm(P @ K @ P - P), 1e-10 * p * p * k),
        (np.linalg.norm((K @ P).T - K @ P), 1e-10 * k * p),
        (np.linalg.norm((P @ K).T - P @ K), 1e-10 * k * p),
    ]


class TestBuildOperator:
    def test_owns_its_matrix(self):
        # A later write to the caller's matrix reaches none of K, K^+, trace.
        B = np.diag([2.0, 1.0])
        op = fk.build_operator(B[:, :])
        assert B.flags.writeable
        B[0, 0] = 9.0
        assert op.matrix[0, 0] == 2.0 and op.pinv[0, 0] == 0.5 and op.trace == 3.0

    def test_rank_two_diagonal(self):
        op = fk.build_operator(np.diag([2.0, 1.0, 0.0]))
        assert np.allclose(op.pinv, np.diag([0.5, 1.0, 0.0]))
        assert op.trace == 3.0
        assert op.trace_sq == 5.0
        assert op.psd_flag
        assert op.rank == 2

    def test_identity(self):
        op = fk.build_operator(np.eye(4))
        assert np.allclose(op.pinv, np.eye(4))
        assert np.allclose(op.sqrt, np.eye(4))

    def test_full_rank_diagonal(self):
        op = fk.build_operator(np.diag([2.0, 1.0, 1.0]))
        assert np.allclose(op.pinv, np.diag([0.5, 1.0, 1.0]))
        assert op.trace == 4.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            fk.build_operator(np.ones((2, 3)))

    def test_non_psd_flag(self):
        op = fk.build_operator(np.diag([1.0, -1.0]))
        assert not op.psd_flag
        assert op.sqrt is None
        op2 = fk.build_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not op2.psd_flag

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
    def test_psd_and_symmetry_verdicts_do_not_depend_on_units(self, scale):
        # A negative eigenvalue and an asymmetric entry, each 1e-3 of ||K||.
        assert not fk.build_operator(scale * np.diag([1.0, -1e-3])).psd_flag
        assert not fk.build_operator(scale * np.array([[1.0, 1e-3], [0.0, 1.0]])).psd_flag
        op = fk.build_operator(scale * np.diag([1.0, 1e-3, 0.0]))
        assert op.psd_flag
        assert np.allclose(op.sqrt @ op.sqrt, op.matrix, rtol=0, atol=1e-12 * scale)

    def test_zero_operator_is_psd(self):
        op = fk.build_operator(np.zeros((2, 2)))
        assert op.psd_flag and not np.any(op.sqrt)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        K = rng.normal(size=(n, n))
        if rng.random() < 0.4:
            K[:, rng.integers(0, n)] = 0.0
        op = fk.build_operator(K)
        for residual, cut in penrose_residuals(K, op.pinv):
            assert residual <= cut

    def test_penrose_check_catches_a_perturbed_pinv(self):
        # A pseudoinverse off by 1e-6 relative on a well-conditioned K
        # fails each of the four identities.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        K = (q * rng.uniform(1.0, 2.0, size=4)) @ q.T @ np.linalg.qr(rng.normal(size=(4, 4)))[0]
        pinv = fk.build_operator(K).pinv
        delta = rng.normal(size=(4, 4))
        wrong = pinv + 1e-6 * np.linalg.norm(pinv) * delta / np.linalg.norm(delta)
        for residual, cut in penrose_residuals(K, wrong):
            assert residual > cut

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_psd_square_root(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        K = random_psd(rng, n)
        op = fk.build_operator(K)
        assert op.psd_flag
        assert np.allclose(op.sqrt @ op.sqrt, K, atol=1e-10 * max(1, np.linalg.norm(K)))


class TestFrameOperator:
    def test_rank_deficient_example(self, ex1):
        frame, _ = ex1
        # oracle: explicit outer-product sum
        oracle = sum(np.outer(v, v) for v in frame.vectors)
        S = fk.frame_operator(frame)
        assert np.allclose(S, oracle, atol=1e-15)
        assert np.allclose(S, np.diag([4.0, 1.0, 0.0]), atol=1e-15)

    def test_orthonormal_basis(self):
        assert np.allclose(
            fk.frame_operator(fk.build_frame(np.eye(3))), np.eye(3)
        )

    def test_full_rank_example(self, ex2):
        frame, _ = ex2
        assert np.allclose(
            fk.frame_operator(frame), np.diag([4.0, 1.0, 1.0]), atol=1e-15
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_operator_norm_is_squared_top_singular_value(self, seed):
        rng = np.random.default_rng(seed)
        syn = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 7))))
        frame = fk.Frame(syn)
        smax = np.linalg.svd(syn, compute_uv=False)[0]
        S_norm = np.linalg.norm(fk.frame_operator(frame), 2)
        assert abs(S_norm - smax**2) <= 1e-10 * max(1.0, smax**2)


class TestKFrameBounds:
    def test_rank_deficient_example(self, ex1):
        frame, op = ex1
        A, B = fk.k_frame_bounds(frame, op)
        assert abs(A - 1.0) < 1e-10
        assert abs(B - 4.0) < 1e-10

    def test_orthonormal_basis_identity(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        A, B = fk.k_frame_bounds(frame, op)
        assert abs(A - 1.0) < 1e-12 and abs(B - 1.0) < 1e-12

    def test_full_rank_example(self, ex2):
        frame, op = ex2
        A, B = fk.k_frame_bounds(frame, op)
        assert abs(A - 1.0) < 1e-10
        assert abs(B - 4.0) < 1e-10

    def test_rank_zero_operator_vacuous_lower_bound(self):
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(np.zeros((2, 2)))
        A, B = fk.k_frame_bounds(frame, op)
        assert A == float("inf") and abs(B - 1.0) < 1e-12

    def test_zero_frame_fails(self):
        frame = fk.Frame(np.zeros((2, 3)))
        op = fk.build_operator(np.eye(2))
        with pytest.raises(fk.NotKFrameError):
            fk.k_frame_bounds(frame, op)

    @staticmethod
    def pencil_bounds(frame, op):
        """(A, B) from scipy's generalized eigensolver on range(K)."""
        S = frame.synthesis @ frame.synthesis.T
        Q = np.linalg.svd(op.matrix)[0][:, : op.rank]
        KKt = op.matrix @ op.matrix.T
        A = scipy.linalg.eigh(Q.T @ S @ Q, Q.T @ KKt @ Q, eigvals_only=True)[0]
        return A, np.linalg.eigvalsh(S)[-1]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_matches_generalized_eigensolver(self, scale):
        rng = np.random.default_rng(5)
        systems = [fixtures.example_1(), fixtures.example_2(), fixtures.mercedes()]
        for _ in range(10):
            n = int(rng.integers(2, 7))
            op = fk.build_operator(random_psd(rng, n))
            systems.append((random_parseval_frame(rng, op, int(rng.integers(n, 4 * n))), op))
            rank_deficient = fk.build_operator(random_psd(rng, n, int(rng.integers(1, n))))
            systems.append((random_parseval_frame(rng, rank_deficient, n + 3), rank_deficient))
            frame, op, _ = random_block_frame(rng)
            systems.append((frame, op))
        assert any(op.rank < op.dim for _, op in systems)
        for frame, op in systems:
            frame = fk.Frame(scale * frame.synthesis)
            op = fk.build_operator(scale * op.matrix)
            A, B = fk.k_frame_bounds(frame, op)
            A_ref, B_ref = self.pencil_bounds(frame, op)
            assert A == pytest.approx(A_ref, rel=1e-12, abs=0)
            assert B == pytest.approx(B_ref, rel=1e-12, abs=0)

    def test_lower_bound_by_sampling(self, ex1):
        # oracle: A is a valid lower bound on sampled unit vectors in range(K)
        frame, op = ex1
        A, _ = fk.k_frame_bounds(frame, op)
        S = fk.frame_operator(frame)
        KKt = op.matrix @ op.matrix.T
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = np.concatenate([rng.normal(size=2), [0.0]])
            num = f @ S @ f
            den = f @ KKt @ f
            assert num >= A * den - 1e-9


class TestParsevalAndCanonical:
    def test_examples_are_parseval(self, ex1, ex2):
        for frame, op in (ex1, ex2):
            assert fk.is_parseval_k_frame(frame, op)

    def test_scaled_identity_not_parseval(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(2.0 * np.eye(3))
        assert not fk.is_parseval_k_frame(frame, op)

    def test_below_unit_scale_not_parseval(self):
        # ||F F^T - K K^T|| / ||K||^2 = 0.53 here.
        frame = fk.build_frame(1e-5 * np.eye(2))
        op = fk.build_operator(2e-5 * np.eye(2))
        assert not fk.is_parseval_k_frame(frame, op)

    def test_zero_operator_admits_only_the_zero_frame(self):
        op = fk.build_operator(np.zeros((2, 2)))
        assert fk.is_parseval_k_frame(fk.Frame(np.zeros((2, 3))), op)
        assert not fk.is_parseval_k_frame(fk.Frame(np.full((2, 3), 1e-100)), op)

    def test_canonical_dual_values(self, ex1):
        frame, op = ex1
        dual = fk.canonical_k_dual(frame, op)
        expected = np.array([[0.5, 0, 0], [0.5, 0, 0], [1 / S2, 0, 0], [0, 1, 0]]).T
        assert np.allclose(dual.synthesis, expected, atol=1e-14)

    def test_canonical_dual_full_rank_example(self, ex2):
        frame, op = ex2
        dual = fk.canonical_k_dual(frame, op)
        expected = np.array(
            [[1 / S2, 0, 0], [1 / S2, 0, 0], [0, 1 / S2, 1 / S2], [0, 1 / S2, -1 / S2]]
        ).T
        assert np.allclose(dual.synthesis, expected, atol=1e-14)

    def test_identity_self_dual(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        dual = fk.canonical_k_dual(frame, op)
        assert np.allclose(dual.synthesis, np.eye(3))

    def test_not_parseval_raises(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(2.0 * np.eye(3))
        with pytest.raises(fk.NotParsevalError):
            fk.canonical_k_dual(frame, op)


class TestVerifyKDual:
    def test_canonical_is_pair(self, ex1):
        frame, op = ex1
        dual = fk.canonical_k_dual(frame, op)
        assert fk.verify_k_dual(frame, dual, op) is fk.DualKind.K_DUAL_PAIR
        # oracle: direct products
        assert np.allclose(frame.synthesis @ dual.synthesis.T, op.matrix)
        assert np.allclose(dual.synthesis @ frame.synthesis.T, op.matrix.T)

    def test_onb_self_dual(self):
        frame = fk.build_frame(np.eye(4))
        op = fk.build_operator(np.eye(4))
        assert fk.verify_k_dual(frame, frame, op) is fk.DualKind.K_DUAL_PAIR

    def test_frame_not_its_own_dual(self, ex1):
        frame, op = ex1
        assert fk.verify_k_dual(frame, frame, op) is fk.DualKind.NOT_DUAL

    def test_shape_mismatch(self, ex1):
        frame, op = ex1
        with pytest.raises(ValueError):
            fk.verify_k_dual(frame, fk.build_frame(np.eye(3)), op)


def near_miss_systems(ex1, ex2):
    """(frame, dual, operator) triples whose Parseval and duality residuals,
    relative to ||K||^2 and ||K||, sit at about 1e-10 or 1e-6, on either
    side of the default tolerance 1e-8."""
    for frame, op in (ex1, ex2):
        dual = fk.canonical_k_dual(frame, op).synthesis
        for eps in (1e-10, 1e-6):
            yield frame.synthesis, dual, (1.0 + eps) * op.matrix
            yield frame.synthesis, (1.0 + eps) * dual, op.matrix


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_scaling_keeps_parseval_and_dual_verdicts(ex1, ex2, scale):
    verdicts = set()
    for F, G, K in near_miss_systems(ex1, ex2):
        verdict = []
        for s in (1.0, scale):
            frame = fk.Frame(s * F)
            op = fk.build_operator(s * K)
            verdict.append(
                (
                    fk.is_parseval_k_frame(frame, op),
                    fk.verify_k_dual(frame, fk.Frame(G), op),
                )
            )
        assert verdict[0] == verdict[1]
        verdicts.add(verdict[0])
    assert len(verdicts) == 3  # passes, fails Parseval, fails duality


def test_zero_operator_dual_is_exact():
    frame = fk.build_frame(np.eye(2))
    op = fk.build_operator(np.zeros((2, 2)))
    zero = fk.Frame(np.zeros((2, 2)))
    assert fk.verify_k_dual(frame, zero, op) is fk.DualKind.K_DUAL_PAIR
    tiny = fk.Frame(np.full((2, 2), 1e-100))
    assert fk.verify_k_dual(frame, tiny, op) is fk.DualKind.NOT_DUAL


class TestDualParameterization:
    def test_dof_rank_deficient_example(self, ex1):
        frame, op = ex1
        # oracle: dof = n (N - rank synthesis)
        rank = np.linalg.matrix_rank(frame.synthesis)
        param = fk.dual_parameterization(frame, op)
        assert param.dof == frame.dim * (frame.n_vectors - rank) == 6

    def test_dof_full_rank_example(self, ex2):
        frame, op = ex2
        param = fk.dual_parameterization(frame, op)
        assert param.dof == 3 * (4 - 3) == 3

    def test_onb_dof_zero(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        param = fk.dual_parameterization(frame, op)
        assert param.dof == 0
        assert param.basis.shape == (3, 0)

    def test_basis_orthonormal_and_admissible(self, ex1):
        frame, op = ex1
        param = fk.dual_parameterization(frame, op)
        W = param.basis
        assert W.shape == (4, 2)
        assert np.allclose(W.T @ W, np.eye(2), atol=1e-12)
        assert np.linalg.norm(frame.synthesis @ W) <= 1e-12

    def test_chart_stores_the_row_basis_and_builds_w_when_read(self):
        # The chart keeps V (N x rank F) from a thin SVD; W, the null basis
        # of the coefficient API, is absent until read, and then it is the
        # full SVD's, bit for bit.
        rng = np.random.default_rng(3)
        n, N = 20, 600
        op = fk.build_operator(random_psd(rng, n))
        frame = random_parseval_frame(rng, op, N)
        param = fk.dual_parameterization(frame, op)
        V = param.row_basis
        assert V.shape == (N, n) and V.nbytes == 8 * N * n
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-12
        assert param.dof == n * (N - n)
        assert "basis" not in vars(param)
        W = param.basis
        assert "basis" in vars(param) and param.basis is W
        assert W.shape == (N, N - n) and not W.flags.writeable
        assert np.array_equal(W, np.linalg.svd(frame.synthesis)[2][n:].T)
        assert np.max(np.abs(V @ V.T + W @ W.T - np.eye(N))) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_every_coefficient_vector_gives_a_dual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        N = int(rng.integers(n, 8))
        op = fk.build_operator(random_psd(rng, n))
        frame = random_parseval_frame(rng, op, N)
        param = fk.dual_parameterization(frame, op)
        coeffs = rng.normal(size=param.dof) * 3.0
        dual = fk.reconstruct_dual(param, coeffs)
        assert fk.verify_k_dual(frame, dual, op) is not fk.DualKind.NOT_DUAL
        # dense reference: sum_k c_k e_a w_m^T with k = m n + a
        W = param.basis
        ref = param.base.synthesis.copy()
        for m in range(W.shape[1]):
            for a in range(n):
                ref[a, :] += coeffs[m * n + a] * W[:, m]
        assert np.max(np.abs(dual.synthesis - ref)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1.0, 1e6])
    def test_diagonal_solve_does_not_depend_on_units(self, scale):
        # example-1 pins its last diagonal at 1, so trace(K)/N is missed at
        # every scale; Mercedes' canonical diagonal is already trace(K)/N.
        for (frame, op), reachable in (
            (fixtures.example_1(), False),
            (fixtures.mercedes(), True),
        ):
            frame = fk.Frame(scale * frame.synthesis)
            op = fk.build_operator(scale * op.matrix)
            param = fk.dual_parameterization(frame, op)
            target = np.full(frame.n_vectors, op.trace / frame.n_vectors)
            c = param.diagonal_coefficients(frame, target)
            assert (c is not None) == reachable

    def test_diagonal_solve_reaches_an_exactly_zero_diagonal(self):
        # A skew orthogonal K makes every <K^+ f_i, f_i> zero, computed as
        # rounding noise; K = 0 leaves only the zero frame.
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A = Q @ np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]]) @ Q.T
        V, _ = np.linalg.qr(rng.normal(size=(9, 4)))
        for frame, op in (
            (fk.Frame(A @ V.T), fk.build_operator(A)),
            (fk.Frame(np.zeros((2, 3))), fk.build_operator(np.zeros((2, 2)))),
        ):
            param = fk.dual_parameterization(frame, op)
            assert param.diagonal_coefficients(frame, np.zeros(frame.n_vectors)) is not None

    def test_zero_dof_unique_dual(self):
        # with no admissible perturbations the canonical dual is the only dual
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        rng = np.random.default_rng(1)
        for _ in range(25):
            cand = fk.Frame(np.eye(3) + rng.normal(size=(3, 3)) * 0.1)
            kind = fk.verify_k_dual(frame, cand, op)
            if kind is not fk.DualKind.NOT_DUAL:
                assert np.allclose(cand.synthesis, np.eye(3))


class TestDiagonalRoutes:
    @pytest.fixture
    def map_reads(self, monkeypatch):
        """Reads of DualParameterization.diagonal_map from here on."""
        reads = []
        build = DualParameterization.diagonal_map.func
        monkeypatch.setattr(
            DualParameterization, "diagonal_map",
            property(lambda self: reads.append(1) or build(self)),
        )
        return reads

    def test_unresolved_rank_takes_the_diagonal_map(self, map_reads):
        frame, op = near_joined_components()
        param = fk.dual_parameterization(frame, op)
        F = frame.synthesis
        scale = np.linalg.norm(F)
        s = np.linalg.svd(dense_diagonal_map(param), compute_uv=False)
        assert np.count_nonzero(s <= RANK_TOL * scale) == 1  # one component
        assert np.count_nonzero(s <= 1e-5 * scale) == 3
        # The Gram sees three null directions; only D resolves two of them.
        gram = (F.T @ F) * (param.basis @ param.basis.T)
        assert np.count_nonzero(np.linalg.eigvalsh(gram) <= RANK_TOL * scale**2) == 3
        assert param._diagonal_factor[0].shape[1] == 1
        assert map_reads

        obj = _Objective(param, Measure.SPECTRAL)
        expected = chart_value(obj, coefficient_space_polish(obj))
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL)
        assert result.value == pytest.approx(expected, rel=1e-9)
        assert result.value == pytest.approx(fk.min_r1_fixed_frame(frame, op), rel=1e-9)

        # The dense reference: lstsq on D^T to the component-mean diagonal.
        target = np.full(frame.n_vectors, np.mean(param.canonical_diagonal))
        c, *_ = np.linalg.lstsq(
            dense_diagonal_map(param).T, target - param.canonical_diagonal, rcond=None
        )
        reference = fk.reconstruct_dual(param, c).synthesis
        constructed = fk.construct_spectrally_optimal_dual(frame, op).synthesis
        assert np.linalg.norm(constructed - reference) <= 1e-9 * np.linalg.norm(reference)

    def test_ill_conditioned_gram_refines_its_lift(self, map_reads):
        # At weight 3e-4 the Gram resolves D's rank, but cond(D)^2 * 1e-16 is
        # 7e-8: the first lift misses the component means by 2.8 times
        # DEFAULT_TOL, and refining it reaches them to rounding.
        frame, op = near_joined_components(3e-4, seed=2)
        minimum = fk.min_r1_fixed_frame(frame, op)
        constructed = fk.construct_spectrally_optimal_dual(frame, op)
        diag = fk.build_dual_system(frame, constructed, op).diag
        assert np.max(np.abs(diag - np.mean(diag))) <= 1e-14 * minimum
        assert abs(diag[0]) == pytest.approx(minimum, rel=1e-13)
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL)
        assert result.value == pytest.approx(minimum, rel=1e-13)
        assert not map_reads

    def test_unreachable_target_needs_no_diagonal_map(self, map_reads):
        # example-1 pins its last diagonal at 1 for every dual: the Gram
        # certifies that null direction, so trace(K)/N is refused without D.
        frame, op = fixtures.example_1()
        param = fk.dual_parameterization(frame, op)
        target = np.full(frame.n_vectors, op.trace / frame.n_vectors)
        assert param.diagonal_coefficients(frame, target) is None
        assert not map_reads


def lapack_components(syn):
    """The matroid components from LAPACK's pivoted QR (``dgeqp3``, through
    scipy) and least-squares coordinates on its basis, linked as an N x N
    graph: an independent reference for :func:`_matroid_components`."""
    N = syn.shape[1]
    _, R, piv = scipy.linalg.qr(syn, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(R))
    basis = piv[: np.count_nonzero(pivots > RANK_TOL * pivots[0])]
    coords, *_ = np.linalg.lstsq(syn[:, basis], syn, rcond=None)
    linked = np.zeros((N, N), dtype=bool)
    linked[basis] = np.abs(coords) > DEFAULT_TOL
    return _components(linked | linked.T)


def bench_shaped_syntheses(seed):
    """One-block frames and the block layouts of the chart-scale benchmark."""
    rng = np.random.default_rng(seed)
    for n, N in ((5, 50), (10, 200), (20, 600)):
        op = fk.build_operator(random_psd(rng, n))
        yield random_parseval_frame(rng, op, N).synthesis
    yield kv_block_frame(rng, (3, 3, 3, 3), (6, 8, 10, 12))[0].synthesis
    yield kv_block_frame(rng, (4, 4, 4, 4, 4), (6, 8, 10, 12, 12))[0].synthesis


class TestMatroidComponents:
    """The numpy pivoted QR decides the components LAPACK's does."""

    def assert_matches_lapack(self, syn):
        assert _matroid_components(syn) == lapack_components(syn)

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    @pytest.mark.parametrize("seed, count", [(37, 104), (101, 200), (104, 104)])
    def test_certificate_suites(self, seed, count, kind):
        for frame, _ in certificate_systems(np.random.default_rng(seed), kind, count):
            self.assert_matches_lapack(frame.synthesis)

    def test_near_joined_sweep(self):
        # Across and around the window where the components are hard to
        # decide, with the weights of TestOneMatroidDecision among them,
        # reordered and rescaled too.
        rng = np.random.default_rng(71)
        weights = [*np.geomspace(1e-3, 1e-12, 28), 3e-8, 3e-9, 3e-10]
        for seed in range(4):
            for weight in weights:
                syn = near_joined_components(weight, seed)[0].synthesis
                self.assert_matches_lapack(syn)
                self.assert_matches_lapack(1e-6 * syn[:, rng.permutation(syn.shape[1])])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_shaped_frames(self, seed):
        for syn in bench_shaped_syntheses(seed):
            self.assert_matches_lapack(syn)

    def test_degenerate_frames(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            self.assert_matches_lapack(degenerate_frame(rng).synthesis)
            self.assert_matches_lapack(non_orthogonal_components(rng)[0].synthesis)
        self.assert_matches_lapack(np.zeros((3, 4)))
        self.assert_matches_lapack(np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pivots_and_rank_follow_dgeqp3(self, seed):
        # The same pivots (these frames have no ties), and R, the pivot
        # norms |R_kk| among its entries, up to the signs of its rows.
        for syn in bench_shaped_syntheses(seed):
            R, basis = _pivoted_qr(syn)
            _, ref, piv = scipy.linalg.qr(syn, mode="economic", pivoting=True)
            assert basis == piv[: len(basis)].tolist()
            np.testing.assert_allclose(
                np.abs(np.diag(R[:, basis])), np.abs(np.diag(ref))[: len(basis)], rtol=1e-12
            )
            np.testing.assert_allclose(
                np.abs(R[:, basis]), np.abs(ref[: len(basis), : len(basis)]),
                atol=1e-12 * np.abs(ref[0, 0]),
            )


def spd_matrix(rng, N, cond):
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    return (Q * np.geomspace(1.0, 1.0 / cond, N)) @ Q.T


class TestCholeskySolver:
    @pytest.mark.parametrize("N", [1, 63, CHOLESKY_BLOCK, 65, 200])
    @pytest.mark.parametrize("cond", [1e2, 5e4, 1e10])
    def test_matches_lapack_triangular_solves(self, N, cond):
        # The reference: LAPACK's two triangular solves on the same factor.
        # Either substitution has a forward error of at most about
        # cond(L) eps = sqrt(cond) eps.
        rng = np.random.default_rng(N)
        gram = spd_matrix(rng, N, cond)
        r = rng.standard_normal(N)
        L = np.linalg.cholesky(gram)
        ref = scipy.linalg.solve_triangular(
            L, scipy.linalg.solve_triangular(L, r, lower=True), lower=True, trans=1
        )
        x = _cholesky_solver(gram)(r)
        eps = np.finfo(float).eps
        assert np.linalg.norm(x - ref) <= 10 * eps * math.sqrt(cond) * np.linalg.norm(ref)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_solver(-np.eye(3))


class TestDualSystem:
    def test_trace_identities(self, ex1):
        frame, op = ex1
        ds = fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)
        alpha = ds.cross_gram
        assert abs(np.trace(alpha) - op.trace) <= 1e-9
        assert abs(np.trace(alpha @ alpha) - op.trace_sq) <= 1e-9

    def test_not_dual_rejected(self, ex1):
        frame, op = ex1
        with pytest.raises(fk.NotDualError):
            fk.build_dual_system(frame, frame, op)
