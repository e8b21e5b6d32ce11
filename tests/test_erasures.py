import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import framekit as fk
from framekit.erasures import ErasurePattern, o1_argmax, r1_argmax, r2_closed_form_argmax
from conftest import complex_pair_terms, random_system


def canonical_system(pair):
    frame, op = pair
    return fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)


class TestErrorOperator:
    def test_single_erasure_last_index(self, ex1):
        ds = canonical_system(ex1)
        E = fk.error_operator(ds, ErasurePattern((3,)))
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        assert np.allclose(E, expected)

    def test_zero_dual_vector_gives_zero(self, ex1):
        frame, op = ex1
        dual = fk.canonical_k_dual(frame, op)
        syn = dual.synthesis.copy()
        syn[:, 0] = 0.0
        syn[:, 2] += np.array([0.5 / math.sqrt(2), 0, 0])  # keep duality
        ds = fk.build_dual_system(frame, fk.Frame(syn), op)
        assert np.allclose(fk.error_operator(ds, ErasurePattern((0,))), 0.0)

    def test_onb_two_erasures(self):
        frame = fk.build_frame(np.eye(4))
        op = fk.build_operator(np.eye(4))
        ds = fk.build_dual_system(frame, frame, op)
        E = fk.error_operator(ds, ErasurePattern((0, 1)))
        assert np.allclose(E, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_additive_on_disjoint_patterns(self):
        rng = np.random.default_rng(7)
        ds = random_system(rng)
        N = ds.n_vectors
        if N < 4:
            pytest.skip("needs 4 indices")
        a = ErasurePattern((0, 2))
        b = ErasurePattern((1, 3))
        union = ErasurePattern((0, 1, 2, 3))
        assert np.allclose(
            fk.error_operator(ds, a) + fk.error_operator(ds, b),
            fk.error_operator(ds, union),
        )

    def test_out_of_range(self, ex1):
        ds = canonical_system(ex1)
        with pytest.raises(IndexError):
            fk.error_operator(ds, ErasurePattern((4,)))

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            ErasurePattern(())
        with pytest.raises(ValueError):
            ErasurePattern((1, 1))


class TestSingleErasure:
    def test_known_values(self, ex1):
        ds = canonical_system(ex1)
        assert abs(fk.op_norm_error(ds, ErasurePattern((0,))) - 0.5) < 1e-12
        assert abs(fk.op_norm_error(ds, ErasurePattern((2,))) - 1.0) < 1e-12
        assert abs(fk.spectral_radius_error(ds, ErasurePattern((0,))) - 0.5) < 1e-12

    def test_onb(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        ds = fk.build_dual_system(frame, frame, op)
        for i in range(3):
            assert abs(fk.op_norm_error(ds, ErasurePattern((i,))) - 1.0) < 1e-14
        assert abs(fk.o1(ds) - 1.0) < 1e-14
        assert abs(fk.r1(ds) - 1.0) < 1e-14

    def test_o1_equals_max_singleton(self, ex1):
        ds = canonical_system(ex1)
        singles = [
            fk.op_norm_error(ds, ErasurePattern((i,))) for i in range(4)
        ]
        assert abs(fk.o1(ds) - max(singles)) < 1e-13
        assert abs(fk.o1(ds) - 1.0) < 1e-12
        assert o1_argmax(ds) == int(np.argmax(singles))

    def test_r1_equals_max_singleton_radius(self, ex2):
        ds = canonical_system(ex2)
        singles = [
            fk.spectral_radius_error(ds, ErasurePattern((i,))) for i in range(4)
        ]
        assert abs(fk.r1(ds) - max(singles)) < 1e-12
        assert abs(fk.r1(ds) - 1.0) < 1e-12

    def test_singleton_radius_is_diagonal_gram(self, ex1):
        ds = canonical_system(ex1)
        for i in range(4):
            assert (
                abs(
                    fk.spectral_radius_error(ds, ErasurePattern((i,)))
                    - abs(ds.diag[i])
                )
                < 1e-13
            )

    def test_zero_dual_gives_zero_r1(self):
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(np.zeros((2, 2)))
        ds = fk.build_dual_system(frame, fk.Frame(np.zeros((2, 2))), op)
        assert fk.r1(ds) == 0.0


class TestTwoErasures:
    def test_onb_self_dual(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        ds = fk.build_dual_system(frame, frame, op)
        assert abs(fk.r2_closed_form(ds) - 1.0) < 1e-14

    def test_argmax_ties_break_to_first_pair(self):
        # every pair of the ONB self-dual attains r2 = 1
        frame = fk.build_frame(np.eye(4))
        op = fk.build_operator(np.eye(4))
        ds = fk.build_dual_system(frame, frame, op)
        value, pair = fk.erasures.r2_closed_form_argmax(ds)
        assert pair == (0, 1)
        assert type(value) is float and value == 1.0

    def test_mercedes(self, mb):
        ds = canonical_system(mb)
        # oracle: brute-force eigenvalues over all three 2-patterns
        brute = max(
            fk.spectral_radius_error(ds, ErasurePattern(p))
            for p in [(0, 1), (0, 2), (1, 2)]
        )
        assert abs(brute - 1.0) < 1e-12
        assert abs(fk.r2_closed_form(ds) - brute) < 1e-12

    def test_zero_pair_contributes_zero(self):
        # duals with two vanished vectors: that pair's radius is 0
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.diag([1.0, 0.0, 0.0]))
        dual = fk.Frame(np.diag([1.0, 0.0, 0.0]))
        ds = fk.build_dual_system(frame, dual, op)
        assert fk.spectral_radius_error(ds, ErasurePattern((1, 2))) == 0.0

    def test_needs_two_vectors(self):
        frame = fk.build_frame([[1.0]])
        op = fk.build_operator([[1.0]])
        ds = fk.build_dual_system(frame, frame, op)
        with pytest.raises(ValueError):
            fk.r2_closed_form(ds)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    @example(seed=8015)  # builtin abs() of a complex scalar missed np.abs by an ulp here
    def test_pair_kernel_matches_pair_loop(self, seed):
        # reference: the scalar two-erasure formula, one pair at a time, with
        # the kernel's modulus, the np.abs ufunc
        ds = random_system(np.random.default_rng(seed))
        alpha = ds.cross_gram
        best, best_pair, prods = -1.0, None, []
        for i in range(ds.n_vectors - 1):
            for j in range(i + 1, ds.n_vectors):
                prod = alpha[i, j] * alpha[j, i]
                s = alpha[i, i] + alpha[j, j]
                root = np.sqrt(complex((alpha[i, i] - alpha[j, j]) ** 2 + 4.0 * prod))
                val = max(np.abs((s + root) / 2.0), np.abs((s - root) / 2.0))
                prods.append(prod)
                if val > best:
                    best, best_pair = val, (i, j)
        assert fk.erasures.r2_closed_form_argmax(ds) == (best, best_pair)
        _, kernel_prods = fk.erasures._pair_products(alpha)
        assert np.array_equal(kernel_prods, prods)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_eigen_bruteforce(self, seed):
        ds = random_system(np.random.default_rng(seed))
        closed = fk.r2_closed_form(ds)
        brute, _ = fk.rm_bruteforce(ds, 2)
        assert abs(closed - brute) <= 1e-9


class TestRmBruteforce:
    def test_m1_reproduces_r1(self, ex1):
        ds = canonical_system(ex1)
        value, pattern = fk.rm_bruteforce(ds, 1)
        assert abs(value - fk.r1(ds)) < 1e-13
        assert pattern.indices == (r1_argmax(ds),)

    def test_full_erasure_onb(self):
        frame = fk.build_frame(np.eye(4))
        op = fk.build_operator(np.eye(4))
        ds = fk.build_dual_system(frame, frame, op)
        value, pattern = fk.rm_bruteforce(ds, 4)
        assert abs(value - 1.0) < 1e-14
        assert pattern.indices == (0, 1, 2, 3)

    def test_budget(self, ex1):
        ds = canonical_system(ex1)
        with pytest.raises(fk.BudgetExceededError):
            fk.rm_bruteforce(ds, 2, max_patterns=3)

    def test_op_norm_variant(self, ex1):
        ds = canonical_system(ex1)
        value, _ = fk.rm_bruteforce(ds, 1, use_op_norm=True)
        assert abs(value - fk.o1(ds)) < 1e-13

    def test_lexicographic_tie_break(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        ds = fk.build_dual_system(frame, frame, op)
        _, pattern = fk.rm_bruteforce(ds, 2)
        assert pattern.indices == (0, 1)

    def test_m_out_of_range(self, ex1):
        ds = canonical_system(ex1)
        with pytest.raises(ValueError):
            fk.rm_bruteforce(ds, 0)
        with pytest.raises(ValueError):
            fk.rm_bruteforce(ds, 5)


class TestUniformity:
    def test_mercedes(self, mb):
        ds = canonical_system(mb)
        c, c_prime = fk.uniformity(ds)
        assert abs(c - 2.0 / 3.0) < 1e-12
        assert abs(c_prime - 1.0 / 9.0) < 1e-12

    def test_onb(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        ds = fk.build_dual_system(frame, frame, op)
        c, c_prime = fk.uniformity(ds)
        assert c == pytest.approx(1.0, abs=1e-14)
        assert c_prime == pytest.approx(0.0, abs=1e-14)

    def test_rank_deficient_example_not_uniform(self, ex1):
        ds = canonical_system(ex1)
        c, c_prime = fk.uniformity(ds)
        assert c is None and c_prime is None

    def test_one_uniform_but_not_two(self):
        # four axis-aligned vectors in the plane: constant diagonal, two
        # distinct off-diagonal products (0 and 1/4)
        s = 1 / math.sqrt(2)
        frame = fk.build_frame([[s, 0], [0, s], [-s, 0], [0, -s]])
        op = fk.build_operator(np.eye(2))
        ds = fk.build_dual_system(frame, frame, op)
        c, c_prime = fk.uniformity(ds)
        assert abs(c - 0.5) < 1e-14
        assert c_prime is None


class TestR2SimplifiedUniform:
    def test_mercedes(self, mb):
        ds = canonical_system(mb)
        assert abs(fk.r2_simplified_uniform(ds) - 1.0) < 1e-12

    def test_onb(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        ds = fk.build_dual_system(frame, frame, op)
        assert abs(fk.r2_simplified_uniform(ds) - 1.0) < 1e-14

    def test_requires_one_uniform(self, ex1):
        ds = canonical_system(ex1)
        with pytest.raises(fk.NotOneUniformError):
            fk.r2_simplified_uniform(ds)

    def test_negative_products_modulus(self):
        # 1-uniform dual with a negative off-diagonal product -q: the pair
        # eigenvalues are complex and the measure is sqrt(c^2 + q)
        frame = fk.build_frame(np.eye(2))
        c, p, q = 0.4, 0.9, 0.3
        dual = fk.build_frame([[c, p], [-q, c]])
        op = fk.build_operator(frame.synthesis @ dual.synthesis.T)
        ds = fk.build_dual_system(frame, dual, op)
        alpha = ds.cross_gram
        prod = alpha[0, 1] * alpha[1, 0]
        assert prod == pytest.approx(-p * q)
        expected = math.sqrt(c**2 + p * q)
        assert abs(fk.r2_simplified_uniform(ds) - expected) < 1e-12
        assert abs(fk.r2_closed_form(ds) - expected) < 1e-12

    def test_agrees_with_closed_form_on_uniform_systems(self, mb):
        ds = canonical_system(mb)
        assert abs(
            fk.r2_simplified_uniform(ds) - fk.r2_closed_form(ds)
        ) <= 1e-9

    def test_negative_diagonal_with_positive_products(self, mb):
        # negated equal-norm tight dual: diagonal -2/3, products +1/9; the
        # dominant pair eigenvalue is -(2/3 + 1/3), modulus 1
        frame, _ = mb
        dual = fk.Frame(-frame.synthesis)
        op = fk.build_operator(-np.eye(2))
        ds = fk.build_dual_system(frame, dual, op)
        brute, _ = fk.rm_bruteforce(ds, 2)
        assert brute == pytest.approx(1.0, abs=1e-12)
        assert fk.r2_closed_form(ds) == pytest.approx(brute, abs=1e-12)
        assert fk.r2_simplified_uniform(ds) == pytest.approx(brute, abs=1e-12)


class TestInvariantsAndReport:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_radius_below_norm_all_patterns(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_system(rng, n_max=4, N_max=5)
        import itertools

        N = ds.n_vectors
        for m in range(1, N + 1):
            for combo in itertools.combinations(range(N), m):
                p = ErasurePattern(combo)
                assert fk.spectral_radius_error(ds, p) <= fk.op_norm_error(
                    ds, p
                ) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_trace_identities(self, seed):
        ds = random_system(np.random.default_rng(seed))
        alpha = ds.cross_gram
        assert abs(np.trace(alpha) - ds.op.trace) <= 1e-9
        assert abs(np.trace(alpha @ alpha) - ds.op.trace_sq) <= 1e-9

    def test_report_and_serialization(self, mb):
        ds = canonical_system(mb)
        report = fk.build_report(ds, ms=(2,))
        d = fk.report_to_dict(report)
        assert d["argmax_o1"] >= 1  # 1-based on the wire
        assert d["c"] == pytest.approx(2 / 3)
        assert d["c_prime"] == pytest.approx(1 / 9)
        assert d["rm"]["2"] == pytest.approx(1.0)
        value, pair = r2_closed_form_argmax(ds)
        assert d["argmax_r2"] == [pair[0] + 1, pair[1] + 1]
        assert abs(value - d["r2"]) < 1e-12


def harmonic_frame(N, n=3):
    """Parseval harmonic frame for K = I_n: its self-pair's cross Gram has
    many exact ties."""
    k = np.arange(N)
    rows = [np.ones(N) / math.sqrt(2.0)] if n % 2 else []
    for m in range(1, n // 2 + 1):
        rows += [np.cos(2 * math.pi * m * k / N), np.sin(2 * math.pi * m * k / N)]
    return fk.Frame(np.array(rows) * math.sqrt(2.0 / N))


# Entries from a small set: ties, d_i = d_j with zero products (disc = 0),
# negative products (disc < 0) and both signed zeros.
SMALL_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0)
NON_FINITE = (math.inf, -math.inf, math.nan)


class TestBlockedPairKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        N=st.integers(2, 150),
        kind=st.sampled_from(("normal", "small", "harmonic", "non-finite")),
        uniform=st.booleans(),
    )
    def test_bit_identical_to_the_complex_kernel(self, seed, N, kind, uniform):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            alpha = rng.standard_normal((N, N))
        elif kind == "harmonic":
            syn = harmonic_frame(N).synthesis
            alpha = syn.T @ syn
        else:
            alpha = rng.choice(SMALL_VALUES, size=(N, N))
            if kind == "non-finite":
                spots = rng.integers(0, N, size=(int(rng.integers(1, 4)), 2))
                alpha[spots[:, 0], spots[:, 1]] = rng.choice(NON_FINITE, size=len(spots))
        d = np.full(N, alpha[0, 0]) if uniform else np.diag(alpha)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, on purpose
            (iu, ju), prods, radii = complex_pair_terms(alpha, d)
            (kiu, kju), kprods = fk.erasures._pair_products(alpha)
            kradii = fk.erasures._pair_radii(d[kiu] + d[kju], (d[kiu] - d[kju]) ** 2 + 4.0 * kprods)
            value, pair = fk.erasures._max_pair_radius(alpha, d)
        assert np.array_equal(kiu, iu) and np.array_equal(kju, ju)
        assert np.array_equal(kprods, prods, equal_nan=True)
        assert np.array_equal(kradii, radii, equal_nan=True)
        assert np.array_equal(np.signbit(kradii), np.signbit(radii))
        k = int(np.argmax(radii))
        assert pair == (int(iu[k]), int(ju[k]))
        assert np.array_equal(value, radii[k], equal_nan=True)

    def test_ties_go_to_the_first_pair(self):
        # The tie with the first pair sits two blocks further down.
        N = 3 * fk.erasures._PAIR_BLOCK + 10
        late = 2 * fk.erasures._PAIR_BLOCK + 5
        alpha = np.zeros((N, N))
        alpha[[3, late], [N - 7, N - 1]] = alpha[[N - 7, N - 1], [3, late]] = 1.0
        assert fk.erasures._max_pair_radius(alpha, np.zeros(N)) == (1.0, (3, N - 7))

    @pytest.mark.parametrize("N", [12, 65, 240])
    def test_harmonic_self_pair_matches_the_complex_kernel(self, N):
        frame = harmonic_frame(N)
        ds = fk.build_dual_system(frame, frame, fk.build_operator(np.eye(3)))
        (iu, ju), _, radii = complex_pair_terms(ds.cross_gram, ds.diag)
        k = int(np.argmax(radii))
        assert r2_closed_form_argmax(ds) == (float(radii[k]), (int(iu[k]), int(ju[k])))
        _, _, uniform = complex_pair_terms(ds.cross_gram, np.full(N, 3 / N))
        assert fk.r2_simplified_uniform(ds) == float(np.max(uniform))
