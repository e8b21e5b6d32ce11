import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framekit as fk
import framekit.duals as duals_mod
from framekit.erasures import Measure
from framekit.frames import DEFAULT_TOL
from framekit.duals import Verdict, _diag_inner, _family_radius
from framekit.search import SearchConfig, minimize_measure
from conftest import (
    assert_value_scales,
    certificate_systems,
    degenerate_frame,
    dense_family_rows,
    fixed_frame_answers,
    kkt_instance,
    loop_family_radius,
    near_joined_components,
    non_orthogonal_components,
    non_psd_operator,
    parseval_operator,
    random_block_frame,
    random_orthonormal_rows,
    random_parseval_frame,
    random_psd,
    random_system,
    subset_search_connected_pair,
)

CFG = SearchConfig(max_iters=500, restarts=3, seed=17)


def canonical_system(pair):
    frame, op = pair
    return fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)


def not_optimal_instance(seed=3):
    """Parseval frame (K = I) in the plane with distinct vector norms.

    The top weight vector lies in the span of the others and its weight
    gradient is nonzero, so the canonical dual is not one-erasure optimal
    under either measure.
    """
    rng = np.random.default_rng(seed)
    while True:
        V = random_orthonormal_rows(rng, 2, 3)
        norms = np.linalg.norm(V, axis=0)
        gaps = np.abs(np.subtract.outer(norms, norms))[np.triu_indices(3, 1)]
        if np.min(gaps) > 0.05 and np.min(norms) > 0.2:
            frame = fk.Frame(V)
            return frame, fk.build_operator(np.eye(2))


class TestWeightPartition:
    def test_rank_deficient_example_op_norm(self, ex1):
        frame, op = ex1
        part = fk.weight_partition(frame, op, Measure.OP_NORM)
        assert np.allclose(part.weights, [0.5, 0.5, 1.0, 1.0], atol=1e-12)
        assert part.top_value == pytest.approx(1.0, abs=1e-12)
        assert part.top == (2, 3)
        assert part.rest == (0, 1)

    def test_rank_deficient_example_spectral(self, ex1):
        frame, op = ex1
        part = fk.weight_partition(frame, op, Measure.SPECTRAL)
        assert np.allclose(part.weights, [0.5, 0.5, 1.0, 1.0], atol=1e-12)
        assert part.top == (2, 3)

    def test_onb_all_top(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        part = fk.weight_partition(frame, op, Measure.OP_NORM)
        assert part.top == (0, 1, 2)
        assert part.rest == ()
        assert part.span_rest.shape == (3, 0)

    def test_requires_parseval(self):
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(2 * np.eye(2))
        with pytest.raises(fk.NotParsevalError):
            fk.weight_partition(frame, op, Measure.OP_NORM)

    def test_span_bases_are_built_on_first_read(self, ex1, monkeypatch):
        # Only spans_intersect_trivially reads them: the family never does,
        # the certificate reads both.
        frame, op = ex1
        calls = []
        span = fk.duals._orthonormal_span
        monkeypatch.setattr(
            fk.duals, "_orthonormal_span", lambda columns: calls.append(1) or span(columns)
        )
        fk.perturbation_family(frame, op, Measure.SPECTRAL)
        assert len(calls) == 0
        fk.canonical_certificate(frame, op, Measure.SPECTRAL)
        assert len(calls) == 2


class TestSpansIntersectTrivially:
    def test_rank_deficient_example_overlaps(self, ex1):
        frame, op = ex1
        part = fk.weight_partition(frame, op, Measure.OP_NORM)
        # span{f3, f4} contains e1 which also spans the rest block
        assert not fk.spans_intersect_trivially(part)

    def test_full_rank_example_vacuous(self, ex2):
        frame, op = ex2
        part = fk.weight_partition(frame, op, Measure.OP_NORM)
        assert part.rest == ()
        assert fk.spans_intersect_trivially(part)

    def test_orthogonal_blocks(self):
        syn = np.array([[0.5, 0.5, 0, 0], [0, 0, 0.9, 0.1]])
        # make it Parseval for K = sqrt(S)
        S = syn @ syn.T
        w, q = np.linalg.eigh(S)
        K = (q * np.sqrt(w)) @ q.T
        frame = fk.Frame(syn)
        op = fk.build_operator(K)
        part = fk.weight_partition(frame, op, Measure.OP_NORM)
        if part.rest:
            assert fk.spans_intersect_trivially(part) == (
                np.linalg.matrix_rank(np.hstack([part.span_top, part.span_rest]))
                == part.span_top.shape[1] + part.span_rest.shape[1]
            )


class TestSolveEqualInnerProducts:
    def test_coordinate_solution(self):
        h = fk.solve_equal_inner_products([[1, 0, 0], [0, 1, 0]], 1.0)
        assert np.allclose(h, [1, 1, 0], atol=1e-12)

    def test_zero_target(self):
        h = fk.solve_equal_inner_products([[1, 0], [1, 1]], 0.0)
        assert np.allclose(h, [0, 0], atol=1e-14)

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(3, 6))
        h = fk.solve_equal_inner_products(vecs, 0.3)
        assert np.max(np.abs(vecs @ h - 0.3)) < 1e-10

    def test_dependent_rejected(self):
        with pytest.raises(fk.DependentInputError):
            fk.solve_equal_inner_products([[1, 0], [2, 0]], 1.0)


def _assert_valid_witness(frame, i, j, witness):
    """f_i = c f_j + sum coeff_l f_l, all nonzero, with {f_j} u S independent."""
    cols = frame.synthesis[:, [j, *witness.support]]
    recon = cols @ np.concatenate([[witness.c], witness.coefficients])
    assert np.allclose(recon, frame.vector(i), atol=1e-10)
    assert abs(witness.c) > 1e-8 and np.all(np.abs(witness.coefficients) > 1e-8)
    assert np.linalg.matrix_rank(cols) == cols.shape[1]


class TestLinearlyConnectedPair:
    def test_three_vector_chain(self):
        frame = fk.build_frame([[1, 0], [1, 1], [0, 1]])
        connected, witness = fk.is_linearly_connected_pair(frame, 0, 2)
        assert connected
        # representation f0 = c f2 + coeff * f_support
        recon = witness.c * frame.vector(2)
        for l, coef in zip(witness.support, witness.coefficients):
            recon = recon + coef * frame.vector(l)
        assert np.allclose(recon, frame.vector(0), atol=1e-12)
        assert abs(witness.c) > 1e-8
        assert np.all(np.abs(witness.coefficients) > 1e-8)

    def test_parallel_vectors(self, ex1):
        frame, _ = ex1
        connected, witness = fk.is_linearly_connected_pair(frame, 0, 1)
        assert connected and witness.support == ()

    def test_orthogonal_not_connected(self, ex1):
        frame, _ = ex1
        connected, witness = fk.is_linearly_connected_pair(frame, 0, 3)
        assert not connected and witness is None

    def test_same_index_rejected(self, ex1):
        frame, _ = ex1
        with pytest.raises(ValueError):
            fk.is_linearly_connected_pair(frame, 1, 1)

    def test_twenty_vectors_answered_with_witness(self):
        frame = fk.Frame(np.random.default_rng(0).normal(size=(2, 20)))
        connected, witness = fk.is_linearly_connected_pair(frame, 0, 1)
        assert connected
        _assert_valid_witness(frame, 0, 1, witness)

    def test_matches_subset_search_reference(self):
        # Both implications on 200 frames with N <= 12, many of them with
        # parallel, zero or {-1, 0, 1} vectors; witnesses on a sample.
        rng = np.random.default_rng(2024)
        connected_pairs = 0
        for _ in range(200):
            frame = degenerate_frame(rng, n_max=3)
            components = fk.duals._matroid_components(frame.synthesis)
            component = {k: m for m, c in enumerate(components) for k in c}
            for i, j in itertools.combinations(range(frame.n_vectors), 2):
                expected, _ = subset_search_connected_pair(frame, i, j)
                assert (component[i] == component[j]) == expected, (frame, i, j)
                connected_pairs += expected
            N = frame.n_vectors
            for i, j in rng.integers(0, N, size=(2, 2)):
                if i == j:
                    continue
                connected, witness = fk.is_linearly_connected_pair(frame, i, j)
                assert connected == (component[i] == component[j])
                if connected:
                    _assert_valid_witness(frame, i, j, witness)
        assert connected_pairs > 0


class TestConnectedDecomposition:
    def test_rank_deficient_example(self, ex1):
        frame, op = ex1
        d = fk.connected_decomposition(frame, op)
        assert d.blocks == ((0, 1, 2), (3,))
        assert d.deltas == pytest.approx((2 / 3, 1.0), abs=1e-12)
        assert all(d.k_invariant)
        assert all(v for v in d.connectivity_verified)

    def test_onb_diagonal(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.diag([3.0, 1.0, 2.0]))
        d = fk.connected_decomposition(frame, op)
        assert d.blocks == ((0,), (1,), (2,))
        assert d.deltas == pytest.approx((3.0, 1.0, 2.0))

    def test_mercedes_single_block(self, mb):
        frame, op = mb
        d = fk.connected_decomposition(frame, op)
        assert d.blocks == ((0, 1, 2),)
        assert d.deltas == pytest.approx((2 / 3,), abs=1e-12)

    def test_block_spans_orthogonal(self, ex1):
        frame, op = ex1
        d = fk.connected_decomposition(frame, op)
        cross = d.bases[0].T @ d.bases[1]
        assert np.max(np.abs(cross)) < 1e-12

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_blocks_do_not_depend_on_units(self, ex1, mb, scale):
        for frame, op in (ex1, mb, non_orthogonal_components(np.random.default_rng(0))):
            d = fk.connected_decomposition(frame, op)
            scaled = fk.connected_decomposition(
                fk.Frame(scale * frame.synthesis), fk.build_operator(scale * op.matrix)
            )
            assert scaled.blocks == d.blocks
            assert scaled.k_invariant == d.k_invariant
            assert np.array(scaled.deltas) / scale == pytest.approx(d.deltas, rel=1e-12)

    def test_connectivity_verified_for_eighteen_vectors(self):
        rng = np.random.default_rng(1)
        syn = rng.normal(size=(3, 18))
        frame = fk.Frame(syn)
        op = fk.build_operator(np.eye(3))
        d = fk.connected_decomposition(frame, op)
        assert d.connectivity_verified == (True,)


class TestMinR1FixedFrame:
    def test_rank_deficient_example(self, ex1):
        frame, op = ex1
        assert fk.min_r1_fixed_frame(frame, op) == pytest.approx(1.0, abs=1e-12)

    def test_linearly_connected_gives_trace_ratio(self, mb):
        frame, op = mb
        assert fk.min_r1_fixed_frame(frame, op) == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_onb_diagonal(self):
        frame = fk.build_frame(np.diag([3.0, 1.0, 2.0]))
        op = fk.build_operator(np.diag([3.0, 1.0, 2.0]))
        assert fk.min_r1_fixed_frame(frame, op) == pytest.approx(3.0)

    def test_non_parseval_rejected_without_warning(self):
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(np.array([[1.0, 0.5], [0.5, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fk.NotParsevalError):
                fk.min_r1_fixed_frame(frame, op)

    def test_non_orthogonal_components(self):
        # One orthogonality block of two matroid components: the block ratio
        # trace(K)/11 = 0.83875 is below the true minimum.
        frame, op = non_orthogonal_components(np.random.default_rng(0))
        assert fk.connected_decomposition(frame, op).blocks == (tuple(range(11)),)
        value = fk.min_r1_fixed_frame(frame, op)
        assert value == pytest.approx(1.0812555336320497, rel=1e-12)
        search = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG).value
        assert search == pytest.approx(value, rel=1e-9)
        dual = fk.construct_spectrally_optimal_dual(frame, op)
        assert fk.r1(fk.build_dual_system(frame, dual, op)) == pytest.approx(value, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_closed_form_matches_search(self, seed):
        rng = np.random.default_rng(seed)
        kind = seed % 4
        if kind == 0:
            groups = int(rng.integers(2, 4))
            dims = rng.integers(1, 3, size=groups)
            frame, op = non_orthogonal_components(
                rng, dims, dims + rng.integers(0, 3, size=groups)
            )
        elif kind == 1:
            frame = degenerate_frame(rng)
            op = parseval_operator(frame)
        else:
            frame, op, _ = random_block_frame(rng)
            if kind == 3:
                op = non_psd_operator(rng, frame)
        value = fk.min_r1_fixed_frame(frame, op)
        search = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG).value
        assert value == pytest.approx(search, rel=1e-9, abs=1e-15)
        dual = fk.construct_spectrally_optimal_dual(frame, op)
        ds = fk.build_dual_system(frame, dual, op)
        assert fk.r1(ds) == pytest.approx(value, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_value_and_construction_scale_with_input(self, ex1, mb, scale):
        rng = np.random.default_rng(6)
        frame, _, _ = random_block_frame(rng)
        systems = [
            ex1,
            mb,
            non_orthogonal_components(rng),
            (frame, non_psd_operator(rng, frame)),
        ]
        assert_value_scales(fk.min_r1_fixed_frame, systems, scale)

        def attained(frame, op):
            dual = fk.construct_spectrally_optimal_dual(frame, op)
            return fk.r1(fk.build_dual_system(frame, dual, op))

        assert_value_scales(attained, systems, scale)


# Weights of the joining vector of near_joined_components across the window
# where the pivoted-QR components and D's rank rule once disagreed.
JOINED_WEIGHTS = (1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10, 1e-10)


class TestOneMatroidDecision:
    """min_r1_fixed_frame, the spectral search and the construction read
    one decision: they agree, or all raise NumericalError.

    ``coefficient_space_polish`` is 4 to 12 times off on these charts, so
    the checks need no reference solver: the constructed dual is verified
    and attains the value (an upper check), and every dual of the chart has
    the component sums of the canonical dual (a lower check: no dual's r1
    is below the largest absolute component mean).
    """

    @pytest.mark.parametrize("weight", JOINED_WEIGHTS)
    def test_three_answers_agree_or_all_raise(self, weight):
        frame, op = near_joined_components(weight)
        answers = fixed_frame_answers(frame, op)
        if None in answers:
            assert answers == [None] * 3
            return
        minimum = answers[0]
        assert answers[1:] == [pytest.approx(minimum, rel=1e-9)] * 2

        param = fk.dual_parameterization(frame, op)
        components = [list(c) for c in param.components]
        sums = [np.sum(param.canonical_diagonal[c]) for c in components]
        assert minimum == pytest.approx(
            max(abs(s) / len(c) for s, c in zip(sums, components)), rel=1e-12
        )
        rng = np.random.default_rng(0)
        scale = np.linalg.norm(param.base.synthesis)
        for _ in range(10):
            c = rng.standard_normal(param.dof) * scale / math.sqrt(param.dof)
            diag = _diag_inner(frame, fk.reconstruct_dual(param, c))
            moved = [np.sum(diag[c]) for c in components]
            assert np.max(np.abs(np.subtract(moved, sums))) <= 1e-9 * minimum

    def test_both_sides_of_the_window_answer(self):
        # One component at the heavy end, three at the light end: both
        # sides give values, and whatever lies between raises.
        one, three = (fixed_frame_answers(*near_joined_components(w))[0] for w in (1e-7, 1e-10))
        assert one == pytest.approx(0.768855204881, rel=1e-9)
        assert three == pytest.approx(1.08125553363, rel=1e-9)

    def test_error_names_the_components(self):
        frame, op = near_joined_components(1e-8)
        with pytest.raises(fk.NumericalError, match=r"components \(\(0, 1, 2, 3, 4\),"):
            fk.min_r1_fixed_frame(frame, op)


class TestImproveDualStep:
    def perturbed_mercedes(self, mb):
        frame, op = mb
        w = np.full(3, 1 / math.sqrt(3.0))
        h = np.array([0.3, 0.1])
        dual = fk.Frame(frame.synthesis + np.outer(h, w))
        return frame, op, dual

    def test_one_step_restores_one_diagonal(self, mb):
        frame, op, dual = self.perturbed_mercedes(mb)
        target = op.trace / 3
        before = _diag_inner(frame, dual)
        assert np.all(np.abs(before - target) > 1e-8)
        improved = fk.improve_dual_step(frame, dual, op)
        after = _diag_inner(frame, improved)
        assert np.count_nonzero(np.abs(after - target) <= 1e-9) >= 1
        assert fk.verify_k_dual(frame, improved, op) is not fk.DualKind.NOT_DUAL

    def test_monotone_and_preserves_done(self, mb):
        frame, op, dual = self.perturbed_mercedes(mb)
        target = op.trace / 3
        current = dual
        for _ in range(3):
            diag = _diag_inner(frame, current)
            done = set(np.flatnonzero(np.abs(diag - target) <= 1e-8))
            if len(done) == 3:
                break
            improved = fk.improve_dual_step(frame, current, op)
            diag2 = _diag_inner(frame, improved)
            done2 = set(np.flatnonzero(np.abs(diag2 - target) <= 1e-8))
            assert len(done2) > len(done)
            for i in done:
                assert abs(diag2[i] - diag[i]) <= 1e-12
            current = improved
        assert np.allclose(_diag_inner(frame, current), target, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
    def test_step_does_not_depend_on_units(self, mb, scale):
        # Scaling F and K by s keeps every K-dual and scales the diagonal.
        frame, op, dual = self.perturbed_mercedes(mb)
        reference = _diag_inner(frame, fk.improve_dual_step(frame, dual, op))
        frame = fk.Frame(scale * frame.synthesis)
        op = fk.build_operator(scale * op.matrix)
        improved = fk.improve_dual_step(frame, dual, op)
        assert improved is not dual
        after = _diag_inner(frame, improved) / scale
        assert np.allclose(after, reference, rtol=1e-9, atol=0)
        assert np.count_nonzero(np.abs(after - 2 / 3) <= 1e-9) == 1

    def test_noop_when_finished(self, mb):
        frame, op = mb
        result = fk.improve_dual_step(frame, frame, op)
        assert result is frame

    def test_no_connected_pair(self):
        # both off-target indices are orthogonal singleton blocks
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(np.diag([2.0, 1.0]))
        dual = fk.Frame(np.diag([2.0, 1.0]))
        assert fk.verify_k_dual(frame, dual, op) is not fk.DualKind.NOT_DUAL
        with pytest.raises(fk.NoConnectedPairAvailableError):
            fk.improve_dual_step(frame, dual, op)

    def test_near_full_diagonal_count_never_one_short(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            ds = random_system(rng)
            target = ds.op.trace / ds.n_vectors
            on_target = int(
                np.count_nonzero(np.abs(ds.diag - target) <= 1e-8)
            )
            assert on_target != ds.n_vectors - 1


class TestConstructSpectrallyOptimalDual:
    def test_rank_deficient_example(self, ex1):
        frame, op = ex1
        dual = fk.construct_spectrally_optimal_dual(frame, op)
        diag = _diag_inner(frame, dual)
        assert np.allclose(diag, [2 / 3, 2 / 3, 2 / 3, 1.0], atol=1e-9)
        ds = fk.build_dual_system(frame, dual, op)
        assert fk.r1(ds) == pytest.approx(1.0, abs=1e-9)
        assert fk.r1(ds) == pytest.approx(fk.min_r1_fixed_frame(frame, op), abs=1e-9)

    def test_linearly_connected_frame(self, mb):
        frame, op = mb
        dual = fk.construct_spectrally_optimal_dual(frame, op)
        assert np.allclose(_diag_inner(frame, dual), 2 / 3, atol=1e-9)

    def test_onb_returns_canonical(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        dual = fk.construct_spectrally_optimal_dual(frame, op)
        assert np.allclose(dual.synthesis, np.eye(3), atol=1e-12)

    def test_non_parseval_rejected(self):
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(np.array([[1.0, 0.5], [0.5, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fk.NotParsevalError):
                fk.construct_spectrally_optimal_dual(frame, op)

    def test_follows_a_reordering_of_the_frame(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            frame, op, _ = random_block_frame(rng)
            perm = rng.permutation(frame.n_vectors)
            dual = fk.construct_spectrally_optimal_dual(frame, op)
            permuted = fk.construct_spectrally_optimal_dual(
                fk.Frame(frame.synthesis[:, perm]), op
            )
            assert np.max(np.abs(permuted.synthesis - dual.synthesis[:, perm])) <= 1e-9


class TestPerturbationFamily:
    def test_rank_deficient_example_op_norm(self, ex1):
        frame, op = ex1
        fam = fk.perturbation_family(frame, op, Measure.OP_NORM)
        assert fam.exists and fam.radius > 0
        ds0 = canonical_system(ex1)
        base = fk.o1(ds0)
        for t in np.linspace(-fam.radius, fam.radius, 7)[1:-1]:
            dual = fk.Frame(
                fk.canonical_k_dual(frame, op).synthesis + t * fam.direction
            )
            ds = fk.build_dual_system(frame, dual, op)
            assert abs(fk.o1(ds) - base) <= 1e-10

    def test_strict_interiority_at_half_radius(self, ex1):
        frame, op = ex1
        fam = fk.perturbation_family(frame, op, Measure.OP_NORM)
        part = fk.weight_partition(frame, op, Measure.OP_NORM)
        for sign in (-1, 1):
            t = sign * fam.radius / 2
            syn = fk.canonical_k_dual(frame, op).synthesis + t * fam.direction
            weights = frame.norms() * np.linalg.norm(syn, axis=0)
            for i in part.rest:
                assert weights[i] < part.top_value - 1e-12

    def test_full_rank_example_op_norm_unique(self, ex2):
        frame, op = ex2
        fam = fk.perturbation_family(frame, op, Measure.OP_NORM)
        assert not fam.exists

    def test_full_rank_example_spectral_family(self, ex2):
        frame, op = ex2
        fam = fk.perturbation_family(frame, op, Measure.SPECTRAL)
        assert fam.exists and fam.basis.shape[0] == 2
        assert fam.radius == math.inf
        rng = np.random.default_rng(8)
        canonical = fk.canonical_k_dual(frame, op)
        for _ in range(5):
            z = rng.uniform(-1, 1, size=2)
            dual = fk.Frame(
                canonical.synthesis + np.tensordot(z, fam.basis, axes=1)
            )
            ds = fk.build_dual_system(frame, dual, op)
            assert abs(fk.r1(ds) - 1.0) <= 1e-12

    def test_no_free_directions_onb(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        fam = fk.perturbation_family(frame, op, Measure.OP_NORM)
        assert not fam.exists and fam.basis.shape[0] == 0

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_matches_the_dense_reference(self, kind):
        rng = np.random.default_rng(43)
        for frame, op in certificate_systems(rng, kind, 120):
            param = fk.dual_parameterization(frame, op)
            part = fk.weight_partition(frame, op, kind)
            fam = fk.perturbation_family(frame, op, kind)
            ref = dense_family_rows(frame, param, part, kind)
            assert fam.dimension == ref.shape[0]
            assert fam.exists == (fam.dimension > 0)
            assert fam.basis.shape == (fam.dimension, frame.dim, frame.n_vectors)
            if not fam.exists:
                continue
            d = fam.direction
            assert np.linalg.norm(frame.synthesis @ d.T) <= 1e-12
            canonical = param.base.synthesis
            top = list(part.top)
            for t in (-1.0, 0.5):
                weights = part_weights(frame, canonical + t * d, kind)
                assert np.max(np.abs(weights[top] - part.weights[top])) <= 1e-12
            # direction is the unit projection of an axis g_j e_j^T / ||g_j||
            # that projects longest, up to ties in rounding, or of a standard
            # axis e_a e_j^T where every such axis projects to about 0
            R = param.perturbation(ref).reshape(ref.shape[0], -1)
            projector = R.T @ R
            assert np.max(np.abs(projector @ d.ravel() - d.ravel())) <= 1e-12
            G0 = param.base.synthesis
            axes = [np.outer(G0[:, j] / np.linalg.norm(G0[:, j]), np.eye(frame.n_vectors)[j])
                    for j in range(frame.n_vectors) if np.any(G0[:, j])]
            lengths = [a.ravel() @ projector @ a.ravel() for a in axes]
            if not axes or max(lengths) <= DEFAULT_TOL:
                axes = list(np.eye(frame.synthesis.size).reshape(-1, *frame.synthesis.shape))
                lengths = list(np.diag(projector))
            expected = [
                (projector @ a.ravel()) / math.sqrt(length)
                for a, length in zip(axes, lengths)
                if length >= max(lengths) - 1e-12
            ]
            assert min(np.max(np.abs(e - d.ravel())) for e in expected) <= 1e-9
            B = fam.basis.reshape(fam.dimension, -1)
            assert np.array_equal(fam.basis[0], d)
            assert np.max(np.abs(B @ B.T - np.eye(fam.dimension))) <= 1e-12
            assert np.max(np.abs(B.T @ B - projector)) <= 1e-10

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_radius_matches_the_loop_reference(self, kind):
        # Generic directions: every rest index bounds the radius.
        rng = np.random.default_rng(47)
        for frame, op in certificate_systems(rng, kind, 60):
            part = fk.weight_partition(frame, op, kind)
            param = fk.dual_parameterization(frame, op)
            direction = rng.normal(size=frame.synthesis.shape)
            direction[:, rng.random(frame.n_vectors) < 0.2] = 0.0
            radius = _family_radius(param, direction, part, kind)
            expected = loop_family_radius(frame, param.base, direction, part, kind)
            assert radius == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_rounding_noise_column_bounds_nothing(self, ex1, kind):
        # A unit direction whose one rest column holds 1e-17 entries: that
        # column is rounding noise of a zero and moves no weight.  At 1e-9
        # it is a real column and bounds the radius.
        frame, op = ex1
        param = fk.dual_parameterization(frame, op)
        part = fk.weight_partition(frame, op, kind)
        i = part.rest[0]
        column = frame.synthesis[:, i] + param.base.synthesis[:, i]
        for size, bounded in ((1e-17, False), (1e-9, True)):
            direction = np.zeros(frame.synthesis.shape)
            direction[0, part.top[0]] = 1.0
            direction[:, i] = size * column / np.linalg.norm(column)
            radius = _family_radius(param, direction, part, kind)
            assert (radius < math.inf) == bounded
            expected = loop_family_radius(frame, param.base, direction, part, kind)
            assert bounded == (expected == radius)

    def test_rounding_noise_slope_bounds_nothing(self):
        # A (2, 2) frame whose one family direction leaves every diagonal
        # fixed; its rest slope rounds to about 1e-17 and once read as a
        # radius of 2.3e16.
        systems = certificate_systems(np.random.default_rng(5), Measure.SPECTRAL, 40)
        frame, op = next(itertools.islice(systems, 6, None))
        fam = fk.perturbation_family(frame, op, Measure.SPECTRAL)
        assert frame.synthesis.shape == (2, 2) and fam.dimension == 1
        assert fam.radius == math.inf
        canonical = fk.canonical_k_dual(frame, op).synthesis
        weights = part_weights(frame, canonical, Measure.SPECTRAL)
        for t in (-1e6, 1e6):
            moved = part_weights(frame, canonical + t * fam.direction, Measure.SPECTRAL)
            assert np.max(np.abs(moved - weights)) <= 1e-9 * np.max(np.abs(weights))

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_large_frame_needs_no_dense_chart_factor(self, kind):
        # The dense reference takes a dof x dof factor here: 1.08 GB.
        rng = np.random.default_rng(3)
        n, N = 20, 600
        op = fk.build_operator(random_psd(rng, n))
        frame = random_parseval_frame(rng, op, N)
        assert len(fk.weight_partition(frame, op, kind).top) == 1
        tracemalloc.start()
        try:
            fam = fk.perturbation_family(frame, op, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        # one top index: D_T is one nonzero column, W_T one nonzero row
        dof = n * (N - n)
        assert fam.dimension == (dof - 1 if kind is Measure.SPECTRAL else dof - n)
        assert "basis" not in vars(fam)


def part_weights(frame, dual_syn, kind):
    """Per-index weights of a dual under one measure."""
    if kind is Measure.OP_NORM:
        return frame.norms() * np.linalg.norm(dual_syn, axis=0)
    return np.einsum("ij,ij->j", dual_syn, frame.synthesis)


def measure_of(frame, dual, op, kind):
    ds = fk.build_dual_system(frame, dual, op)
    return fk.o1(ds) if kind is Measure.OP_NORM else fk.r1(ds)


class TestCanonicalCertificate:
    def test_rank_deficient_example_optimal_kkt(self, ex1):
        frame, op = ex1
        for kind in (Measure.OP_NORM, Measure.SPECTRAL):
            cert = fk.canonical_certificate(frame, op, kind)
            assert cert.verdict is Verdict.OPTIMAL_KKT
            assert cert.evidence["hypothesis"] == "kkt"
            assert np.allclose(cert.evidence["multipliers"], [0, 0, 0, 1], atol=1e-9)

    def test_verdict_members(self):
        assert {v.name for v in Verdict} == {
            "UNIQUE_OPTIMAL",
            "OPTIMAL_UNCOUNTABLE_FAMILY",
            "OPTIMAL_KKT",
            "NOT_OPTIMAL",
        }

    def test_never_runs_the_search(self, ex1, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate must not search")

        monkeypatch.setattr(duals_mod, "minimize_measure", refuse, raising=False)
        for kind in (Measure.OP_NORM, Measure.SPECTRAL):
            assert fk.canonical_certificate(*ex1, kind).verdict is Verdict.OPTIMAL_KKT

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_agrees_with_search(self, kind):
        rng = np.random.default_rng(41)
        cfg = SearchConfig(max_iters=300, restarts=2, seed=5)
        seen = set()
        for frame, op in certificate_systems(rng, kind, 32):
            cert = fk.canonical_certificate(frame, op, kind)
            seen.add(cert.verdict)
            ev = cert.evidence
            if cert.verdict is Verdict.NOT_OPTIMAL:
                dual = fk.Frame(
                    fk.canonical_k_dual(frame, op).synthesis
                    + ev["step"] * ev["direction"]
                )
                assert fk.verify_k_dual(frame, dual, op) is fk.DualKind.K_DUAL_PAIR
                value = measure_of(frame, dual, op, kind)
                assert abs(value - ev["improved_value"]) <= 1e-12 * max(1.0, value)
                assert ev["improved_value"] < ev["canonical_value"]
                assert ev["slope"] < 0
            else:
                top_value = fk.weight_partition(frame, op, kind).top_value
                result = minimize_measure(frame, op, kind, cfg)
                assert result.value >= top_value - 1e-7
            if cert.verdict is Verdict.OPTIMAL_KKT:
                lam = ev["multipliers"]
                assert np.all(lam >= 0) and abs(lam.sum() - 1.0) <= 1e-12
        assert {Verdict.OPTIMAL_KKT, Verdict.NOT_OPTIMAL} <= seen

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_permutation_permutes_multipliers(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(5):
            frame, op = kkt_instance(rng, kind)
            cert = fk.canonical_certificate(frame, op, kind)
            perm = rng.permutation(frame.n_vectors)
            moved = fk.canonical_certificate(
                fk.Frame(frame.synthesis[:, perm]), op, kind
            )
            assert moved.verdict is cert.verdict is Verdict.OPTIMAL_KKT
            assert np.allclose(
                moved.evidence["multipliers"],
                cert.evidence["multipliers"][perm],
                atol=1e-9,
            )
        frame, op = not_optimal_instance()
        perm = [2, 0, 1]
        moved = fk.Frame(frame.synthesis[:, perm])
        assert fk.canonical_certificate(moved, op, kind).verdict is Verdict.NOT_OPTIMAL

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e6, 1e8])
    def test_scaling_keeps_verdicts(self, ex1, scale):
        frame, op = ex1
        scaled = fk.Frame(scale * frame.synthesis)
        scaled_op = fk.build_operator(scale * op.matrix)
        for kind in (Measure.OP_NORM, Measure.SPECTRAL):
            cert = fk.canonical_certificate(scaled, scaled_op, kind)
            assert cert.verdict is Verdict.OPTIMAL_KKT
        frame, op = not_optimal_instance()
        scaled = fk.Frame(scale * frame.synthesis)
        scaled_op = fk.build_operator(scale * op.matrix)
        for kind in (Measure.OP_NORM, Measure.SPECTRAL):
            cert = fk.canonical_certificate(scaled, scaled_op, kind)
            assert cert.verdict is Verdict.NOT_OPTIMAL

    def test_full_rank_example_op_norm_unique(self, ex2):
        frame, op = ex2
        cert = fk.canonical_certificate(frame, op, Measure.OP_NORM)
        assert cert.verdict is Verdict.UNIQUE_OPTIMAL

    def test_full_rank_example_spectral_family(self, ex2):
        frame, op = ex2
        cert = fk.canonical_certificate(frame, op, Measure.SPECTRAL)
        assert cert.verdict is Verdict.OPTIMAL_UNCOUNTABLE_FAMILY
        assert cert.evidence["family_dim"] == 2

    def test_zero_dof_unique(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        cert = fk.canonical_certificate(frame, op, Measure.OP_NORM)
        assert cert.verdict is Verdict.UNIQUE_OPTIMAL
        assert cert.evidence["dof"] == 0

    def test_not_optimal_instance(self):
        frame, op = not_optimal_instance()
        for kind in (Measure.OP_NORM, Measure.SPECTRAL):
            cert = fk.canonical_certificate(frame, op, kind)
            assert cert.verdict is Verdict.NOT_OPTIMAL
            assert cert.evidence["improved_value"] < cert.evidence[
                "canonical_value"
            ] - 1e-8

    def test_certificate_soundness_against_search(self, ex2):
        frame, op = ex2
        for kind in (Measure.OP_NORM, Measure.SPECTRAL):
            cert = fk.canonical_certificate(frame, op, kind)
            part = fk.weight_partition(frame, op, kind)
            result = minimize_measure(frame, op, kind, CFG)
            if cert.verdict in (
                Verdict.UNIQUE_OPTIMAL,
                Verdict.OPTIMAL_UNCOUNTABLE_FAMILY,
                Verdict.OPTIMAL_KKT,
            ):
                assert abs(result.value - part.top_value) <= 1e-6

    def test_not_optimal_search_improves(self):
        frame, op = not_optimal_instance()
        part = fk.weight_partition(frame, op, Measure.OP_NORM)
        result = minimize_measure(frame, op, Measure.OP_NORM, CFG)
        assert result.value < part.top_value - 1e-8

    def test_requires_parseval_and_psd(self):
        frame = fk.build_frame(np.eye(2))
        with pytest.raises(fk.NotParsevalError):
            fk.canonical_certificate(
                frame, fk.build_operator(2 * np.eye(2)), Measure.OP_NORM
            )
        op_bad = fk.build_operator(np.diag([1.0, -1.0]))
        with pytest.raises(fk.NotPSDError):
            fk.canonical_certificate(frame, op_bad, Measure.OP_NORM)


def scipy_nnls(E, e):
    """The reference NNLS: scipy's, with the residual vector ``E u - e``."""
    import scipy.optimize

    u, _ = scipy.optimize.nnls(E, e)
    return u, E @ u - e


def assert_same_nnls(E, e, unique=True):
    u, r = duals_mod._nnls(E, e)
    ref_u, ref_r = scipy_nnls(E, e)
    assert np.all(u >= 0.0)
    assert np.array_equal(r, E @ u - e)
    assert abs(np.linalg.norm(r) - np.linalg.norm(ref_r)) <= 1e-12
    if unique:
        assert np.max(np.abs(u - ref_u)) <= 1e-12 * max(1.0, np.max(ref_u))
    return u, r


class TestNNLS:
    """The certificate's Lawson-Hanson NNLS against scipy's."""

    def test_random_problems_match_scipy(self):
        # Mixed columns often make a new column push others out of the
        # passive set, so the steps back to the boundary run too.
        rng = np.random.default_rng(53)
        for k in range(1, 9):
            for m in (k, k + 1, 2 * k + 3, 50, 2000):
                for mixing in (np.eye(k),) * 3 + (rng.standard_normal((k, k)),) * 3:
                    E = rng.standard_normal((m, k)) @ mixing
                    e = rng.standard_normal(m)
                    assert_same_nnls(E, e / np.linalg.norm(e))

    def test_certificate_shaped_problems_match_scipy(self):
        # The least-distance form: scaled gradients over a row of ones,
        # right-hand side the last unit vector.
        rng = np.random.default_rng(59)
        for k in range(1, 9):
            for m in (k + 1, 40, 2000):
                S = rng.standard_normal((m - 1, k)) + rng.standard_normal((m - 1, 1))
                S /= np.max(np.linalg.norm(S, axis=0))
                e = np.zeros(m)
                e[-1] = 1.0
                assert_same_nnls(np.vstack([-S, np.ones(k)]), e)

    @pytest.mark.parametrize(
        "case", ["duplicate", "zero", "in_cone", "in_cone_duplicate", "in_cone_near_parallel"]
    )
    def test_degenerate_columns(self, case):
        # Near-parallel columns (1e-7 apart) need the QR: solved through
        # their Gram, the in-cone residual is about eps / 1e-7 = 1e-9.
        rng = np.random.default_rng(61)
        for k in range(2, 9):
            for m in (k + 1, 30, 2000):
                E = rng.standard_normal((m, k))
                e = rng.standard_normal(m)
                if case in ("duplicate", "in_cone_duplicate"):
                    E[:, k - 1] = E[:, 0]
                if case == "in_cone_near_parallel":
                    E[:, k - 1] = E[:, 0] + 1e-7 * rng.standard_normal(m)
                if case == "zero":
                    E[:, int(rng.integers(k))] = 0.0
                if case.startswith("in_cone"):
                    e = E @ rng.uniform(0.1, 1.0, k)
                e /= np.linalg.norm(e)
                # Duplicates split their coefficient any way, and near
                # duplicates leave it ill-determined: only the residual and
                # the point's fit are unique.
                unique = case in ("zero", "in_cone")
                u, r = assert_same_nnls(E, e, unique=unique)
                if case.startswith("in_cone"):
                    assert np.linalg.norm(r) <= 1e-12

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    @pytest.mark.parametrize("seed, count", [(37, 104), (101, 200), (104, 104)])
    def test_certificates_match_scipy_nnls(self, seed, count, kind, monkeypatch):
        systems = list(certificate_systems(np.random.default_rng(seed), kind, count))
        ours = [fk.canonical_certificate(frame, op, kind) for frame, op in systems]
        monkeypatch.setattr(duals_mod, "_nnls", scipy_nnls)
        kkt = 0
        for (frame, op), cert in zip(systems, ours):
            ref = fk.canonical_certificate(frame, op, kind)
            assert cert.verdict is ref.verdict
            assert cert.evidence.keys() == ref.evidence.keys()
            for key in ("multipliers", "direction"):
                if key in ref.evidence:
                    a, b = cert.evidence[key], ref.evidence[key]
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
            kkt += ref.evidence.get("hypothesis") == "kkt" or "slope" in ref.evidence
        assert kkt >= count // 8

    def test_step_cap_raises(self, monkeypatch):
        # A least-squares step that keeps the new column (the last one
        # passed) and pushes the other one out makes the two columns take
        # turns: the cap of 3 k steps stops it with an error, not a point.
        import scipy.linalg

        def newest_wins(a, b, *args, **kwargs):
            x = np.zeros_like(b)
            x[:2] = (-1.0, 1.0)
            return a, x, 0

        monkeypatch.setattr(scipy.linalg.lapack, "dgels", newest_wins)
        with pytest.raises(fk.NumericalError, match="within 6 steps"):
            duals_mod._nnls(np.eye(2), np.ones(2))

    def test_lapack_failure_raises(self, monkeypatch):
        import scipy.linalg

        monkeypatch.setattr(
            scipy.linalg.lapack, "dgels", lambda a, b, *args, **kwargs: (a, b, 2)
        )
        with pytest.raises(fk.NumericalError, match="LAPACK info 2"):
            duals_mod._nnls(np.eye(3), np.ones(3))


def constant_product_system(rng, case):
    """Dual system over an orthonormal frame with constant cross products.

    case controls the sign of the product constant and the argmax count of
    the (nonnegative) diagonal.
    """
    if case == "pos_single":
        d = np.array([1.0 + rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.9)])
        p, q = rng.uniform(0.2, 1.0, size=2)
        G = np.array([[d[0], p], [q, d[1]]]).T
        n = 2
    elif case == "pos_multi":
        d = rng.uniform(0.3, 1.2)
        p, q = rng.uniform(0.2, 1.0, size=2)
        G = np.array(
            [[d, p, p], [q, d, p], [q, q, d]]
        ).T
        n = 3
    elif case == "zero":
        d = rng.uniform(0.1, 1.0, size=3)
        G = np.diag(d)
        n = 3
    else:  # "neg_multi"
        d = rng.uniform(0.3, 1.2)
        p = rng.uniform(0.2, 1.0)
        q = -rng.uniform(0.2, 1.0)
        G = np.array(
            [[d, p, p], [q, d, p], [q, q, d]]
        ).T
        n = 3
    frame = fk.build_frame(np.eye(n))
    dual = fk.Frame(G)
    op = fk.build_operator(frame.synthesis @ dual.synthesis.T)
    return fk.build_dual_system(frame, dual, op)


class TestR2SpecialClosedForm:
    def test_positive_constant_multi_argmax(self, mb):
        ds = canonical_system(mb)
        # c = 1/9 > 0 with all diagonals tied: r1 + sqrt(c) = 1
        assert fk.r2_special_closed_form(ds) == pytest.approx(1.0, abs=1e-12)

    def test_zero_product_onb(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        ds = fk.build_dual_system(frame, frame, op)
        assert fk.r2_special_closed_form(ds) == pytest.approx(1.0, abs=1e-14)

    def test_negative_constant_two_argmax(self):
        rng = np.random.default_rng(0)
        ds = constant_product_system(rng, "neg_multi")
        val = fk.r2_special_closed_form(ds)
        brute, _ = fk.rm_bruteforce(ds, 2)
        assert val == pytest.approx(brute, abs=1e-9)
        alpha = ds.cross_gram
        c = alpha[0, 1] * alpha[1, 0]
        assert val == pytest.approx(
            math.sqrt(float(np.max(ds.diag)) ** 2 - c), abs=1e-12
        )

    def test_hypotheses_not_met(self, ex1):
        ds = canonical_system(ex1)
        with pytest.raises(fk.HypothesesNotMetError):
            fk.r2_special_closed_form(ds)  # products not constant

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(123)
        cases = ["pos_single", "pos_multi", "zero", "neg_multi"]
        for k in range(200):
            ds = constant_product_system(rng, cases[k % 4])
            try:
                val = fk.r2_special_closed_form(ds)
            except fk.HypothesesNotMetError:
                continue
            brute, _ = fk.rm_bruteforce(ds, 2)
            assert abs(val - brute) <= 1e-9


class TestTwoUniformSpectralOptimality:
    def test_mercedes(self, mb):
        frame, op = mb
        optimal, value = fk.two_uniform_spectral_optimality(frame, frame, op)
        assert optimal and value == pytest.approx(1.0, abs=1e-12)

    def test_onb(self):
        frame = fk.build_frame(np.eye(4))
        op = fk.build_operator(np.eye(4))
        optimal, value = fk.two_uniform_spectral_optimality(frame, frame, op)
        assert optimal and value == pytest.approx(1.0, abs=1e-12)

    def test_simplex_three_four(self):
        frame = fk.uniform_parseval_frame(3, 4)
        op = fk.build_operator(np.eye(3))
        optimal, value = fk.two_uniform_spectral_optimality(frame, frame, op)
        brute, _ = fk.rm_bruteforce(
            fk.build_dual_system(frame, frame, op), 2
        )
        assert optimal and value == pytest.approx(brute, abs=1e-9)

    def test_not_two_uniform(self, ex1):
        frame, op = ex1
        dual = fk.canonical_k_dual(frame, op)
        with pytest.raises(fk.NotTwoUniformError):
            fk.two_uniform_spectral_optimality(frame, dual, op)

    def test_single_vector_is_not_two_uniform(self):
        frame = fk.build_frame([[1.0]])
        with pytest.raises(fk.NotTwoUniformError):
            fk.two_uniform_spectral_optimality(frame, frame, fk.build_operator(np.eye(1)))

    def test_negative_trace_branch(self):
        # 2-uniform dual of a negative-trace operator: diagonal constant -1,
        # products constant 0, so the two-erasure value is |trace(K)/N| = 1
        frame = fk.build_frame(np.eye(2))
        dual = fk.Frame(-np.eye(2))
        op = fk.build_operator(-np.eye(2))
        optimal, value = fk.two_uniform_spectral_optimality(frame, dual, op)
        assert optimal and value == pytest.approx(1.0, abs=1e-12)
        ds = fk.build_dual_system(frame, dual, op)
        brute, _ = fk.rm_bruteforce(ds, 2)
        assert value == pytest.approx(brute, abs=1e-12)

    def test_negative_trace_with_positive_products(self, mb):
        # negated tight-frame dual: trace(K) = -2 with product constant +1/9;
        # the minus square-root branch carries the two-erasure maximum
        frame, _ = mb
        dual = fk.Frame(-frame.synthesis)
        op = fk.build_operator(-np.eye(2))
        optimal, value = fk.two_uniform_spectral_optimality(frame, dual, op)
        ds = fk.build_dual_system(frame, dual, op)
        brute, _ = fk.rm_bruteforce(ds, 2)
        assert optimal
        assert value == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(brute, abs=1e-12)
