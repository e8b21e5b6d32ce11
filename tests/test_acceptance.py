"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion (the [PASS] print plus the pytest verdict).
"""

import itertools
import math

import numpy as np
import pytest

import framekit as fk
from framekit import fixtures
from framekit.erasures import ErasurePattern, Measure
from framekit.duals import _diag_inner
from conftest import (
    random_block_frame,
    random_orthonormal_rows,
    random_parseval_frame,
    random_psd,
    random_system,
)

S2 = math.sqrt(2.0)


def canonical_system(frame, op):
    return fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)


def test_criterion_1_rank_deficient_example_regression():
    frame, op = fixtures.example_1()
    assert fk.is_parseval_k_frame(frame, op)

    canonical = fk.canonical_k_dual(frame, op)
    expected = np.array([[0.5, 0, 0], [0.5, 0, 0], [1 / S2, 0, 0], [0, 1, 0]]).T
    assert np.max(np.abs(canonical.synthesis - expected)) <= 1e-14

    part = fk.weight_partition(frame, op, Measure.OP_NORM)
    assert np.max(np.abs(part.weights - np.array([0.5, 0.5, 1, 1]))) <= 1e-12

    ds = canonical_system(frame, op)
    assert abs(fk.o1(ds) - 1.0) <= 1e-12
    assert abs(fk.r1(ds) - 1.0) <= 1e-12
    assert op.trace / frame.n_vectors == 0.75

    perturbed = fixtures.example_1_perturbed_dual()
    third = perturbed.synthesis[0, 2]
    assert abs(third - 0.9 / S2) <= 1e-12
    assert abs(third - 0.6364) <= 1e-3
    ds_pert = fk.build_dual_system(frame, perturbed, op)
    assert abs(fk.o1(ds_pert) - 1.0) <= 1e-12

    result = fk.minimize_measure(
        frame, op, Measure.OP_NORM, fk.SearchConfig(max_iters=800, restarts=4, seed=1)
    )
    assert result.value >= 1.0 - 1e-6  # the 0.75 pair bound is unattainable

    print("[PASS] criterion 1: rank-deficient diagonal example regression")


def test_criterion_2_full_rank_example_regression():
    frame, op = fixtures.example_2()
    gap = np.linalg.norm(fk.frame_operator(frame) - op.matrix @ op.matrix.T)
    assert gap <= 1e-12

    ds = canonical_system(frame, op)
    bound = op.trace / frame.n_vectors
    assert abs(fk.o1(ds) - 1.0) <= 1e-12
    assert abs(fk.r1(ds) - 1.0) <= 1e-12
    assert bound == 1.0
    assert fk.is_o1_optimal_pair(ds)
    assert fk.is_r1_optimal_pair(ds)

    cfg = fk.SearchConfig(max_iters=800, restarts=4, seed=2)
    param = fk.dual_parameterization(frame, op)
    assert param.dof == 3
    grid = fk.brute_force_grid_oracle(frame, op, Measure.OP_NORM, cfg)
    assert grid.num_minimizers == 1
    assert all(c == 0.0 for c in grid.coefficients)
    assert abs(grid.value - 1.0) <= 1e-9
    result = fk.minimize_measure(frame, op, Measure.OP_NORM, cfg)
    canonical = fk.canonical_k_dual(frame, op)
    assert np.max(np.abs(result.frame.synthesis - canonical.synthesis)) <= 1e-9

    rng = np.random.default_rng(2024)
    for _ in range(5):
        b, g = rng.uniform(-1.0, 1.0, size=2)
        member = fixtures.example_2_family_dual(b, g)
        ds_m = fk.build_dual_system(frame, member, op)
        assert abs(fk.r1(ds_m) - 1.0) <= 1e-12

    print("[PASS] criterion 2: full-rank diagonal example regression")


def test_criterion_3_mercedes_two_uniform_suite():
    frame, op = fixtures.mercedes()
    ds = fk.build_dual_system(frame, frame, op)
    c, c_prime = fk.uniformity(ds)
    assert c is not None and abs(c - 2 / 3) <= 1e-12
    assert c_prime is not None and abs(c_prime - 1 / 9) <= 1e-12

    bounds = fk.pair_bounds(op, 3)
    assert abs(bounds.r2_min - 1.0) <= 1e-12

    closed = fk.r2_closed_form(ds)
    simplified = fk.r2_simplified_uniform(ds)
    brute, _ = fk.rm_bruteforce(ds, 2)
    assert abs(closed - 1.0) <= 1e-12
    assert abs(simplified - 1.0) <= 1e-12
    assert abs(brute - 1.0) <= 1e-12

    optimal, value = fk.two_uniform_spectral_optimality(frame, frame, op)
    assert optimal and abs(value - 1.0) <= 1e-12

    print("[PASS] criterion 3: equal-norm tight frame two-uniform suite")


def test_criterion_4_closed_form_vs_oracle_property_suite():
    rng = np.random.default_rng(44)
    n_cases = 500
    for _ in range(n_cases):
        ds = random_system(rng, n_max=5, N_max=8)
        closed = fk.r2_closed_form(ds)
        brute, _ = fk.rm_bruteforce(ds, 2)
        assert abs(closed - brute) <= 1e-9
        alpha = ds.cross_gram
        assert abs(np.trace(alpha) - ds.op.trace) <= 1e-9
        assert abs(np.trace(alpha @ alpha) - ds.op.trace_sq) <= 1e-9
        N = ds.n_vectors
        for m in range(1, N + 1):
            for combo in itertools.combinations(range(N), m):
                p = ErasurePattern(combo)
                assert (
                    fk.spectral_radius_error(ds, p)
                    <= fk.op_norm_error(ds, p) + 1e-12
                )

    print(f"[PASS] criterion 4: closed form vs eigen oracle on {n_cases} systems")


def test_criterion_5_pair_bound_suite():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        N = int(rng.integers(n, 9))
        op = fk.build_operator(random_psd(rng, n))
        frame = random_parseval_frame(rng, op, N)
        param = fk.dual_parameterization(frame, op)
        dual = fk.reconstruct_dual(param, rng.normal(size=param.dof))
        ds = fk.build_dual_system(frame, dual, op)
        bound = op.trace / N
        assert fk.o1(ds) >= bound - 1e-9
        assert fk.r1(ds) >= bound - 1e-9

    for _ in range(20):
        n = int(rng.integers(2, 6))
        rank = int(rng.integers(1, n + 1))
        op = fk.build_operator(random_psd(rng, n, rank))
        N = int(rng.integers(max(rank, 1), 2 * n + 1))
        T = fk.construct_optimal_self_dual(op, N)
        ds = fk.build_dual_system(T, T, op)
        bound = op.trace / N
        assert abs(fk.o1(ds) - bound) <= 1e-9
        assert abs(fk.r1(ds) - bound) <= 1e-9

    print("[PASS] criterion 5: trace(K)/N bounds hold and are attained")


def test_criterion_6_fixed_frame_spectral_optimum():
    rng = np.random.default_rng(66)
    cfg = fk.SearchConfig(max_iters=400, restarts=2, seed=6)
    for _ in range(20):
        frame, op, block_deltas = random_block_frame(rng)
        decomp = fk.connected_decomposition(frame, op)
        assert all(decomp.k_invariant)
        closed = fk.min_r1_fixed_frame(frame, op)
        assert closed == pytest.approx(max(block_deltas), abs=1e-9)
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL, cfg)
        assert abs(result.value - closed) <= 1e-6

        dual = fk.construct_spectrally_optimal_dual(frame, op)
        ds = fk.build_dual_system(frame, dual, op)
        assert abs(fk.r1(ds) - closed) <= 1e-9
        diag = _diag_inner(frame, dual)
        for block, delta in zip(decomp.blocks, decomp.deltas):
            for i in block:
                assert abs(diag[i] - delta) <= 1e-9

    print("[PASS] criterion 6: fixed-frame spectral optimum on 20 block frames")


def _commuting_pair(rng, n):
    """PSD operator with a repeated eigenvalue and an orthogonal commuting U."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.sort(rng.uniform(0.5, 3.0, size=n))[::-1]
    lam[1] = lam[0]  # repeated pair supports a nontrivial rotation
    K = (q * lam) @ q.T
    theta = rng.uniform(0.1, 3.0)
    R = np.eye(n)
    R[:2, :2] = [
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ]
    U = q @ R @ q.T
    return fk.build_operator(0.5 * (K + K.T)), U


def test_criterion_7_unitary_invariance():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        op, U = _commuting_pair(rng, n)
        N = int(rng.integers(n, 8))
        frame = random_parseval_frame(rng, op, N)
        param = fk.dual_parameterization(frame, op)
        dual = fk.reconstruct_dual(param, rng.normal(size=param.dof) * 0.5)
        ds = fk.build_dual_system(frame, dual, op)
        moved = fk.unitary_transport(ds, U)

        assert abs(fk.o1(moved) - fk.o1(ds)) <= 1e-12
        assert abs(fk.r1(moved) - fk.r1(ds)) <= 1e-12
        assert abs(fk.r2_closed_form(moved) - fk.r2_closed_form(ds)) <= 1e-12
        m = min(3, N)
        v0, _ = fk.rm_bruteforce(ds, m)
        v1, _ = fk.rm_bruteforce(moved, m)
        assert abs(v1 - v0) <= 1e-12
        w0, _ = fk.rm_bruteforce(ds, 2, use_op_norm=True)
        w1, _ = fk.rm_bruteforce(moved, 2, use_op_norm=True)
        assert abs(w1 - w0) <= 1e-12

    print("[PASS] criterion 7: all measures invariant under 50 commuting transports")


def test_criterion_8_negative_mu_discrepancy_diagnostics():
    # For PSD K any K-frame needs N >= rank(K), which forces mu >= 0 by
    # Cauchy-Schwarz; the negative branch is exercised at the formula level
    # (N below the effective rank), where a hypothetical 2-uniform pair with
    # the forced product constant c = mu/(N(N-1)) would attain
    # |trace(K)/N + sqrt(c)|.  The implemented bound must equal that value,
    # while the inconsistent statement-variant formula must differ and still
    # be reported.
    rng = np.random.default_rng(88)
    found = 0
    while found < 20:
        n = int(rng.integers(3, 7))
        base = rng.uniform(0.5, 2.0)
        lam = base * (1.0 + 0.05 * rng.uniform(-1, 1, size=n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        K = (q * lam) @ q.T
        op = fk.build_operator(0.5 * (K + K.T))
        eff_rank = op.trace**2 / op.trace_sq
        if eff_rank <= 2.1:
            continue
        N = int(rng.integers(2, math.floor(eff_rank) + 1))
        bounds = fk.pair_bounds(op, N)
        if bounds.mu >= 0:
            continue
        found += 1

        c = bounds.mu / (N * (N - 1))
        attained = abs(op.trace / N + np.sqrt(complex(c)))
        assert abs(bounds.r2_min - attained) <= 1e-9

        assert bounds.r2_min_statement_variant is not None
        assert abs(bounds.r2_min_statement_variant - bounds.r2_min) > 1e-9

    print("[PASS] criterion 8: negative-mu branch diagnostics on 20 operators")
