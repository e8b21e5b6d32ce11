"""Bundled worked examples with machine-checked regression assertions.

Three fixtures back the ``verify-example`` CLI command:

* ``example-1``: four vectors on two coordinate axes of R^3 with a rank-2
  diagonal operator.  The canonical dual is one-erasure optimal under both
  measures but not unique, and no dual pair reaches the trace(K)/N bound.
* ``example-2``: a full-rank diagonal operator whose Parseval K-frame has
  all canonical weights equal; the canonical dual is the unique operator-norm
  optimal dual yet sits in a two-parameter family of spectrally optimal ones.
* ``mercedes``: the equal-norm tight frame of three vectors in R^2, a
  2-uniform self-dual pair attaining every bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import (
    Frame,
    OperatorSpec,
    build_dual_system,
    build_frame,
    build_operator,
    canonical_k_dual,
    is_parseval_k_frame,
    frame_operator,
)
from .erasures import Measure, o1, r1, r2_closed_form, r2_simplified_uniform, rm_bruteforce, uniformity
from .pairs import is_o1_optimal_pair, is_r1_optimal_pair, pair_bounds
from .duals import two_uniform_spectral_optimality, weight_partition
from .search import SearchConfig, brute_force_grid_oracle, minimize_measure

S2 = math.sqrt(2.0)


def example_1() -> tuple[Frame, OperatorSpec]:
    frame = build_frame([[1, 0, 0], [1, 0, 0], [S2, 0, 0], [0, 1, 0]])
    op = build_operator(np.diag([2.0, 1.0, 0.0]))
    return frame, op


def example_2() -> tuple[Frame, OperatorSpec]:
    frame = build_frame(
        [
            [S2, 0, 0],
            [S2, 0, 0],
            [0, 1 / S2, 1 / S2],
            [0, 1 / S2, -1 / S2],
        ]
    )
    op = build_operator(np.diag([2.0, 1.0, 1.0]))
    return frame, op


def mercedes() -> tuple[Frame, OperatorSpec]:
    scale = math.sqrt(2.0 / 3.0)
    vecs = [
        [
            scale * math.cos(2.0 * math.pi * k / 3.0),
            scale * math.sin(2.0 * math.pi * k / 3.0),
        ]
        for k in range(3)
    ]
    return build_frame(vecs), build_operator(np.eye(2))


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> Assertion:
    return Assertion(name, bool(passed), detail)


def example_1_perturbed_dual() -> Frame:
    """The explicit non-canonical optimal dual with both free shifts 0.05."""
    frame, op = example_1()
    base = canonical_k_dual(frame, op).synthesis.copy()
    base[0, 0] += 0.05
    base[0, 1] += 0.05
    base[0, 2] -= 0.1 / S2
    return Frame(base)


def verify_example_1() -> list[Assertion]:
    frame, op = example_1()
    out = []
    out.append(
        _check(
            "parseval",
            is_parseval_k_frame(frame, op),
            "frame operator equals K K^T",
        )
    )
    canonical = canonical_k_dual(frame, op)
    expected = np.array(
        [[0.5, 0, 0], [0.5, 0, 0], [1 / S2, 0, 0], [0, 1, 0]]
    ).T
    gap = float(np.max(np.abs(canonical.synthesis - expected)))
    out.append(
        _check("canonical_dual", gap <= 1e-12, f"max deviation {gap:.2e}")
    )
    part = weight_partition(frame, op, Measure.OP_NORM)
    w_gap = float(np.max(np.abs(part.weights - np.array([0.5, 0.5, 1, 1]))))
    out.append(
        _check("weights", w_gap <= 1e-12, f"weights {part.weights.tolist()}")
    )
    ds = build_dual_system(frame, canonical, op)
    out.append(
        _check(
            "one_erasure_measures",
            abs(o1(ds) - 1) <= 1e-12 and abs(r1(ds) - 1) <= 1e-12,
            f"o1={o1(ds)}, r1={r1(ds)}",
        )
    )
    bound = op.trace / frame.n_vectors
    out.append(_check("pair_bound", bound == 0.75, f"trace(K)/N = {bound}"))
    perturbed = example_1_perturbed_dual()
    third = perturbed.synthesis[0, 2]
    formula = 0.9 / S2
    ds_pert = build_dual_system(frame, perturbed, op)
    out.append(
        _check(
            "perturbed_dual_value",
            abs(third - formula) <= 1e-12 and abs(third - 0.6364) <= 1e-3,
            f"third vector first coordinate {third}",
        )
    )
    out.append(
        _check(
            "non_uniqueness",
            abs(o1(ds_pert) - 1) <= 1e-12
            and np.max(np.abs(perturbed.synthesis - canonical.synthesis)) > 1e-3,
            f"o1 of perturbed dual = {o1(ds_pert)}",
        )
    )
    return out


def example_2_family_dual(b: float, g: float) -> Frame:
    """Spectrally optimal family member: opposite shifts on the twin vectors."""
    frame, op = example_2()
    syn = canonical_k_dual(frame, op).synthesis.copy()
    syn[1, 0] += b
    syn[2, 0] += g
    syn[1, 1] -= b
    syn[2, 1] -= g
    return Frame(syn)


def verify_example_2() -> list[Assertion]:
    frame, op = example_2()
    out = []
    gap = float(
        np.max(np.abs(frame_operator(frame) - op.matrix @ op.matrix.T))
    )
    out.append(_check("parseval", gap <= 1e-12, f"||S - K K^T|| gap {gap:.2e}"))
    canonical = canonical_k_dual(frame, op)
    expected = np.array(
        [
            [1 / S2, 0, 0],
            [1 / S2, 0, 0],
            [0, 1 / S2, 1 / S2],
            [0, 1 / S2, -1 / S2],
        ]
    ).T
    cgap = float(np.max(np.abs(canonical.synthesis - expected)))
    out.append(
        _check("canonical_dual", cgap <= 1e-12, f"max deviation {cgap:.2e}")
    )
    ds = build_dual_system(frame, canonical, op)
    bound = op.trace / frame.n_vectors
    out.append(
        _check(
            "one_erasure_measures",
            abs(o1(ds) - 1) <= 1e-12
            and abs(r1(ds) - 1) <= 1e-12
            and bound == 1.0,
            f"o1={o1(ds)}, r1={r1(ds)}, trace(K)/N={bound}",
        )
    )
    out.append(
        _check(
            "pair_optimal",
            is_o1_optimal_pair(ds) and is_r1_optimal_pair(ds),
            "canonical self-pair attains the one-erasure bound",
        )
    )
    cfg = SearchConfig(max_iters=400, restarts=3, seed=11)
    grid = brute_force_grid_oracle(frame, op, Measure.OP_NORM, cfg)
    result = minimize_measure(frame, op, Measure.OP_NORM, cfg)
    move = float(
        np.max(np.abs(result.frame.synthesis - canonical.synthesis))
    )
    out.append(
        _check(
            "op_norm_uniqueness",
            grid.num_minimizers == 1
            and max(abs(c) for c in grid.coefficients) == 0.0
            and abs(grid.value - 1) <= 1e-9
            and move <= 1e-9,
            f"grid min {grid.value} at {grid.coefficients}, "
            f"search returned canonical (move {move:.2e})",
        )
    )
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        b, g = rng.uniform(-1, 1, size=2)
        member = example_2_family_dual(b, g)
        ds_m = build_dual_system(frame, member, op)
        worst = max(worst, abs(r1(ds_m) - 1.0))
    out.append(
        _check(
            "spectral_family",
            worst <= 1e-12,
            f"max |r1 - 1| over 5 family members = {worst:.2e}",
        )
    )
    return out


def verify_mercedes() -> list[Assertion]:
    frame, op = mercedes()
    out = []
    ds = build_dual_system(frame, frame, op)
    c, c_prime = uniformity(ds)
    out.append(
        _check(
            "uniformity",
            c is not None
            and c_prime is not None
            and abs(c - 2 / 3) <= 1e-12
            and abs(c_prime - 1 / 9) <= 1e-12,
            f"c={c}, c'={c_prime}",
        )
    )
    bounds = pair_bounds(op, 3)
    out.append(
        _check(
            "pair_two_erasure_bound",
            abs(bounds.r2_min - 1) <= 1e-12,
            f"r2 bound {bounds.r2_min}",
        )
    )
    closed = r2_closed_form(ds)
    simplified = r2_simplified_uniform(ds)
    brute, _ = rm_bruteforce(ds, 2)
    out.append(
        _check(
            "two_erasure_agreement",
            abs(closed - 1) <= 1e-12
            and abs(simplified - 1) <= 1e-12
            and abs(brute - 1) <= 1e-12,
            f"closed={closed}, simplified={simplified}, brute={brute}",
        )
    )
    optimal, value = two_uniform_spectral_optimality(frame, frame, op)
    out.append(
        _check(
            "two_uniform_optimality",
            optimal and abs(value - 1) <= 1e-12,
            f"optimal={optimal}, r2={value}",
        )
    )
    return out


# Name -> (build, verify) of each bundled example.
EXAMPLES = {
    "example-1": (example_1, verify_example_1),
    "example-2": (example_2, verify_example_2),
    "mercedes": (mercedes, verify_mercedes),
}
EXAMPLE_NAMES = tuple(EXAMPLES)


def _lookup(name: str):
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    return EXAMPLES[name]


def get_example(name: str) -> tuple[Frame, OperatorSpec]:
    return _lookup(name)[0]()


def verify_example(name: str) -> list[Assertion]:
    return _lookup(name)[1]()
