from types import SimpleNamespace

import numpy as np
import pytest

import framekit as fk
from framekit.erasures import Measure
import framekit.search as search_mod
from framekit.frames import DEFAULT_TOL
from framekit.search import _Objective, _polish_spectral, _subgradient_run
from conftest import (
    assert_value_scales,
    certificate_systems,
    coefficient_space_polish,
    coefficient_space_run,
    loop_then_polish,
    random_block_frame,
    random_psd,
    random_parseval_frame,
)

CFG = fk.SearchConfig(max_iters=500, restarts=3, seed=99)
BUDGET = fk.SearchConfig(max_iters=300, restarts=2, seed=0)


def reference_subgradient(obj, c):
    """Mean gradient of the tied terms, one term at a time."""
    G = obj.dual_syn(c)
    diag = np.einsum("ij,ij->j", G, obj.fsyn)
    gnorms = np.linalg.norm(G, axis=0)
    w = np.abs(diag) if obj.kind is Measure.SPECTRAL else obj.fnorms * gnorms
    ties = np.flatnonzero(np.max(w) - w <= DEFAULT_TOL * obj.canonical_value)
    sub = np.zeros(obj.dof)
    for i in ties:
        if obj.kind is Measure.SPECTRAL:
            sub += np.sign(diag[i]) * obj.D[:, i]
        elif gnorms[i] > 0:
            u = G[:, [i]] / gnorms[i]
            sub += obj.fnorms[i] * obj.param.column_jacobian(u, [i])[:, 0]
    return sub / len(ties)


class TestObjective:
    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_subgradient_matches_per_term_reference(self, mb, kind):
        # All three Mercedes weights tie at the canonical dual (c = 0).
        frame, op = mb
        obj = _Objective(frame, fk.dual_parameterization(frame, op), kind)
        rng = np.random.default_rng(4)
        points = np.vstack([np.zeros(obj.dof), rng.standard_normal((20, obj.dof))])
        assert np.ptp(obj.terms(points[0])[0]) <= 1e-14
        for c in points:
            val, sub = obj.value_and_subgrad(c)
            assert val == obj.value(c)
            assert np.max(np.abs(sub - reference_subgradient(obj, c))) <= 1e-13
            for c2 in rng.standard_normal((10, obj.dof)):
                assert obj.value(c2) >= val + sub @ (c2 - c) - 1e-12


class TestMinimizeMeasure:
    def test_rank_deficient_example_spectral(self, ex1):
        frame, op = ex1
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.value == pytest.approx(
            fk.min_r1_fixed_frame(frame, op), abs=1e-6
        )

    def test_full_rank_example_op_norm_returns_canonical(self, ex2):
        frame, op = ex2
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
        canonical = fk.canonical_k_dual(frame, op)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(result.frame.synthesis - canonical.synthesis)) <= 1e-9

    def test_onb_zero_dof(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
        assert np.allclose(result.frame.synthesis, np.eye(3))
        assert result.value == pytest.approx(1.0, abs=1e-14)

    def test_result_is_verified_dual(self, ex1):
        frame, op = ex1
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
        assert (
            fk.verify_k_dual(frame, result.frame, op)
            is not fk.DualKind.NOT_DUAL
        )

    def test_unverified_result_is_numerical_error(self, ex1, monkeypatch):
        import framekit.search as search_mod

        frame, op = ex1
        monkeypatch.setattr(search_mod, "reconstruct_dual", lambda param, c: frame)
        with pytest.raises(fk.NumericalError):
            fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)

    def test_requires_parseval(self):
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(2 * np.eye(2))
        with pytest.raises(fk.NotParsevalError):
            fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)

    def test_determinism(self, ex1):
        frame, op = ex1
        a = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        b = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        assert a.trace == b.trace
        assert a.value == b.value
        assert np.array_equal(a.frame.synthesis, b.frame.synthesis)

    def test_bound_respect_random(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(2, 4))
            N = int(rng.integers(n, 7))
            op = fk.build_operator(random_psd(rng, n))
            frame = random_parseval_frame(rng, op, N)
            result = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
            assert result.value >= op.trace / N - 1e-9

    def test_op_norm_keeps_slsqp_point_on_status_8(self):
        # SLSQP stops with status 8 here at a point worth 0.4365755248; the
        # subgradient runs alone reach 0.5718972807.
        rng = np.random.default_rng(0)
        rank = 4 if rng.random() < 0.7 else int(rng.integers(1, 4))
        op = fk.build_operator(random_psd(rng, 4, rank))
        frame = random_parseval_frame(rng, op, 6)
        cfg = fk.SearchConfig(max_iters=300, restarts=2, seed=0)
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, cfg)
        assert result.value == pytest.approx(0.4365755248, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_spectral_value_scales_with_input(self, scale):
        assert_value_scales(search_value(Measure.SPECTRAL), scaling_systems(), scale)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_op_norm_value_scales_with_input(self, scale):
        rng = np.random.default_rng(3)
        op = fk.build_operator(random_psd(rng, 4))
        # At this (4,12) frame an absolute-units polish lands 95 % high at
        # both scales.
        systems = [(random_parseval_frame(rng, op, 12), op), *scaling_systems()]
        assert_value_scales(search_value(Measure.OP_NORM), systems, scale)

    def test_one_block_ten_by_two_hundred(self):
        rng = np.random.default_rng(11)
        op = fk.build_operator(random_psd(rng, 10))
        frame = random_parseval_frame(rng, op, 200)
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL, BUDGET)
        deltas = fk.connected_decomposition(frame, op).deltas
        assert result.value == pytest.approx(max(deltas), rel=1e-9, abs=0)

    def test_block_frame_accuracy(self):
        rng = np.random.default_rng(5)
        frame, op, _ = random_block_frame(rng)
        closed = fk.min_r1_fixed_frame(frame, op)
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        assert result.value == pytest.approx(closed, abs=1e-6)


def search_value(kind):
    return lambda frame, op: fk.minimize_measure(frame, op, kind, BUDGET).value


def scaling_systems():
    """A (5,50) one-block frame, an n=12 frame of four blocks and a (4,12)
    frame of a rank-3 K."""
    rng = np.random.default_rng(3)
    op = fk.build_operator(random_psd(rng, 5))
    yield random_parseval_frame(rng, op, 50), op
    frame, op, _ = random_block_frame(rng, [(3, 6), (3, 8), (3, 10), (3, 12)])
    yield frame, op
    op = fk.build_operator(random_psd(rng, 4, rank=3))
    yield random_parseval_frame(rng, op, 12), op


class TestExactSolveFirst:
    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_never_worse_than_loop_then_polish(self, kind):
        rng = np.random.default_rng(37)
        for frame, op in certificate_systems(rng, kind, 104):
            value = fk.minimize_measure(frame, op, kind, BUDGET).value
            reference = loop_then_polish(frame, op, kind, BUDGET)
            assert value <= reference * (1 + 1e-9) + 1e-15

    @staticmethod
    def count_runs(monkeypatch):
        runs = []

        def counted(*args):
            runs.append(args)
            return _subgradient_run(*args)

        monkeypatch.setattr(search_mod, "_subgradient_run", counted)
        return runs

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_polished_point_skips_the_loop(self, ex1, kind, monkeypatch):
        frame, op = ex1
        runs = self.count_runs(monkeypatch)
        result = fk.minimize_measure(frame, op, kind, CFG)
        assert runs == [] and result.restart_index == 0
        canonical = fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)
        measure = fk.o1 if kind is Measure.OP_NORM else fk.r1
        assert result.trace[0] == pytest.approx(measure(canonical), rel=1e-12)
        assert len(result.trace) <= 2 and result.trace[-1] == result.value

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_loop_runs_without_polish(self, kind, monkeypatch):
        # A canonical value of 0 leaves the exact solve nothing to improve:
        # it returns no point and the restarts run, keeping the value 0.
        frame, op = fk.Frame(np.zeros((2, 3))), fk.build_operator(np.zeros((2, 2)))
        runs = self.count_runs(monkeypatch)
        cfg = fk.SearchConfig(max_iters=200, restarts=3, seed=99)
        result = fk.minimize_measure(frame, op, kind, cfg)
        assert len(runs) == cfg.restarts and result.value == 0.0

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_loop_runs_when_polish_fails(self, ex1, kind, monkeypatch):
        frame, op = ex1
        runs = self.count_runs(monkeypatch)
        for name in ("_polish_spectral", "_polish_op_norm"):
            monkeypatch.setattr(search_mod, name, lambda obj: None)
        result = fk.minimize_measure(frame, op, kind, CFG)
        assert len(runs) == CFG.restarts
        assert result.trace == tuple(
            _subgradient_run(*runs[result.restart_index])[2]
        )


class TestPolishSpectral:
    def test_matches_coefficient_space_reference(self):
        rng = np.random.default_rng(23)
        checked = 0
        for frame, op in certificate_systems(rng, Measure.SPECTRAL, 140):
            param = fk.dual_parameterization(frame, op)
            obj = _Objective(frame, param, Measure.SPECTRAL)
            if param.dof == 0 or not np.any(obj.a0):
                continue  # minimize_measure polishes only when dof > 0
            reference = coefficient_space_polish(obj)
            assert reference is not None
            c = _polish_spectral(obj)
            assert c is not None
            expected = obj.value(reference)
            assert abs(obj.value(c) - expected) <= 1e-9 * expected
            checked += 1
        assert checked >= 100

    def test_matches_reference_on_generic_charts(self):
        # On a frame's chart null(D) is spanned by the indicators of the
        # matroid components of F, so the minimum-norm lift of any diagonal
        # lands on the component means, an optimum.  A generic low-rank D
        # has no such structure: only the exact LP reaches the optimum.
        rng = np.random.default_rng(29)
        for _ in range(40):
            N = int(rng.integers(3, 15))
            rank = int(rng.integers(1, N))
            dof = int(rng.integers(rank, 2 * N))
            D = rng.normal(size=(dof, rank)) @ rng.normal(size=(rank, N))
            a0 = rng.normal(size=N)
            # fsyn only sets the scale of the rank cut; ||D||_F bounds ||D||.
            reference = coefficient_space_polish(
                SimpleNamespace(D=D, a0=a0, dof=dof, fsyn=D)
            )
            expected = np.max(np.abs(a0 + reference @ D))
            # The reference runs at unit scale; the polish must not need to.
            scale = 10.0 ** rng.integers(-9, 10)
            obj = SimpleNamespace(D=D, a0=scale * a0, dof=dof, fsyn=D)
            c = _polish_spectral(obj)
            value = np.max(np.abs(obj.a0 + c @ D)) / scale
            assert value == pytest.approx(expected, rel=1e-9)


def generic_chart(rng):
    """A spectral objective on a random low-rank diagonal map D, with none
    of the matroid structure of a frame's chart."""
    N = int(rng.integers(3, 15))
    rank = int(rng.integers(1, N))
    dof = int(rng.integers(rank, 2 * N))
    obj = _Objective.__new__(_Objective)
    obj.kind = Measure.SPECTRAL
    obj.D = rng.normal(size=(dof, rank)) @ rng.normal(size=(rank, N))
    obj.a0 = rng.normal(size=N)
    obj.dof = dof
    obj.M = obj.D.T @ obj.D
    return obj


def spectral_charts(rng):
    """Objectives of certificate_systems frames with dof > 0, then generic
    low-rank charts."""
    for frame, op in certificate_systems(rng, Measure.SPECTRAL, 140):
        param = fk.dual_parameterization(frame, op)
        if param.dof:
            yield _Objective(frame, param, Measure.SPECTRAL)
    for _ in range(40):
        yield generic_chart(rng)


def starts(obj):
    """The restart points of a BUDGET search."""
    yield np.zeros(obj.dof)
    for idx in range(1, BUDGET.restarts):
        yield np.random.default_rng([BUDGET.seed, idx]).standard_normal(obj.dof)


class TestDiagonalLoop:
    def test_gram_is_the_gram_of_the_diagonal_map(self):
        rng = np.random.default_rng(13)
        for frame, op in certificate_systems(rng, Measure.SPECTRAL, 40):
            obj = _Objective(frame, fk.dual_parameterization(frame, op), Measure.SPECTRAL)
            DtD = obj.D.T @ obj.D
            assert np.max(np.abs(obj.M - DtD)) <= 1e-14 * max(1.0, np.max(np.abs(DtD)))

    def test_oracle_matches_the_coefficient_chart(self):
        # At c = start + D lam the step is D s, with squared norm s^T M s.
        rng = np.random.default_rng(17)
        for obj in spectral_charts(rng):
            start = rng.standard_normal(obj.dof)
            lam0, oracle, coefficients = obj.descent_chart(start)
            assert not np.any(lam0)
            for lam in rng.standard_normal((3, obj.a0.shape[0])):
                c = coefficients(lam)
                assert np.allclose(c, start + obj.D @ lam, rtol=0, atol=1e-12)
                value, s, norm_sq = oracle(lam)
                ref_value, ref_sub = obj.value_and_subgrad(c)
                scale = 1e-12 * max(1.0, ref_value)
                assert abs(value - ref_value) <= scale
                assert np.max(np.abs(obj.D @ s - ref_sub)) <= scale
                assert abs(norm_sq - ref_sub @ ref_sub) <= 1e-12 * max(1.0, norm_sq)

    def test_runs_match_the_coefficient_space_reference(self):
        rng = np.random.default_rng(19)
        stopped = checked = 0
        for obj in spectral_charts(rng):
            for start in starts(obj):
                _, value, trace = _subgradient_run(obj, start, BUDGET)
                _, ref_value, ref_trace = coefficient_space_run(obj, start, BUDGET)
                assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-300)
                checked += 1
                if len(trace) == len(ref_trace):
                    continue
                # The loop stops where the tied signs s have D s = 0, an
                # optimum.  In the coefficient chart that D s is rounding
                # noise, which the reference follows, never improving, until
                # it stalls.
                stopped += 1
                assert len(trace) < len(ref_trace)
                tail = np.array(ref_trace[len(trace) - 1 :])
                assert np.ptp(tail) <= 1e-12 * max(1.0, value)
        assert checked >= 300 and stopped <= checked // 50


class TestMinimizeR2WithinUniform:
    def test_mercedes(self, mb):
        frame, op = mb
        result = fk.minimize_r2_within_uniform(frame, op, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.comparison["pair_r2_min"] == pytest.approx(1.0, abs=1e-12)

    def test_onb(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        result = fk.minimize_r2_within_uniform(frame, op, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_uniform_slice_respects_pair_bound(self):
        rng = np.random.default_rng(8)
        op = fk.build_operator(np.eye(2))
        frame = random_parseval_frame(rng, op, 4)
        try:
            result = fk.minimize_r2_within_uniform(frame, op, CFG)
        except fk.InfeasibleError:
            pytest.skip("no 1-uniform dual for this draw")
        bound = fk.pair_bounds(op, 4).r2_min
        assert result.value >= bound - 1e-6
        # returned dual really is 1-uniform
        ds = fk.build_dual_system(frame, result.frame, op)
        assert np.max(np.abs(ds.diag - op.trace / 4)) <= 1e-6

    def test_infeasible(self, ex1):
        # the last diagonal inner product is pinned at 1 for every dual,
        # so a constant diagonal of trace(K)/N = 3/4 is unreachable
        frame, op = ex1
        with pytest.raises(fk.InfeasibleError):
            fk.minimize_r2_within_uniform(frame, op, CFG)


class TestGridOracle:
    def test_full_rank_example(self, ex2):
        frame, op = ex2
        grid = fk.brute_force_grid_oracle(frame, op, Measure.OP_NORM, CFG)
        assert grid.value == pytest.approx(1.0, abs=1e-9)
        assert grid.num_minimizers == 1
        assert all(c == 0 for c in grid.coefficients)

    def test_zero_dof(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        grid = fk.brute_force_grid_oracle(frame, op, Measure.OP_NORM, CFG)
        assert grid.value == pytest.approx(1.0)
        assert grid.coefficients == ()

    def test_dof_cap(self, ex1):
        frame, op = ex1  # dof = 6 > default cap 4
        with pytest.raises(fk.DofTooLargeError):
            fk.brute_force_grid_oracle(frame, op, Measure.OP_NORM, CFG)

    def test_oracle_agreement(self, ex2, mb):
        for frame, op in (ex2, mb):
            for kind in (Measure.OP_NORM, Measure.SPECTRAL):
                grid = fk.brute_force_grid_oracle(frame, op, kind, CFG)
                result = fk.minimize_measure(frame, op, kind, CFG)
                assert result.value <= grid.value + 1e-6


class TestSearchConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fk.SearchConfig(max_iters=0)
        with pytest.raises(ValueError):
            fk.SearchConfig(restarts=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            fk.SearchConfig(seed=-1)
