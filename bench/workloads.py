"""Job lists of the three workloads, built from a seed (numpy only).

``build(workload, seed, workdir, budget)`` writes the inputs into
``workdir`` and returns the manifest: the ordered job list one pass runs.
A CLI job is an argv for ``framekit.cli.main`` with paths relative to
``workdir``; a library job lists calls of functions exported by ``framekit``
on one input system.  Block layouts and sizes are fixed; the seed draws the
operators, frames, rotations and duals, except chart-scale's (10, 200)
frames.
"""

from __future__ import annotations

import os

import numpy as np

import inputs

WORKLOADS = ("small-cli", "chart-scale", "erasure-batch")

# small-cli: one-block frames (n, N, rank of K) and block frames (dims, sizes).
SMALL_ONE_BLOCK = ((2, 4, None), (3, 6, 2), (3, 8, None), (4, 10, 3), (4, 12, None))
SMALL_BLOCKS = (((1, 2), (3, 4)), ((2, 2), (5, 7)))
R2U_MAX_N = 4  # r2u (Nelder-Mead on the uniform slice) only up to this N

# chart-scale: one-block sizes with their instance counts, and the n=12 /
# n=20 block layouts (two instances each).
CHART_ONE_BLOCK = ((5, 50, 2), (10, 200, 4), (20, 600, 2))
CHART_BLOCKS = {
    "blk12": ((3, 3, 3, 3), (6, 8, 10, 12)),
    "blk20": ((4, 4, 4, 4, 4), (6, 8, 10, 12, 12)),
}
CHART_BLOCK_INSTANCES = 2
CHART_SEARCH_MAX_N = 200  # search / optimal-dual left out at (20, 600)
# The HiGHS LP behind spectral search at (10, 200) takes 0.7 s to 2.3 s
# depending on the draw, so those frames come from a fixed stream, not the
# seed.  Their eight LP-bound jobs are the slowest tenth of the job list.
CHART_FIXED_DRAW = (10, 200)

# erasure-batch: frame sizes, harmonic dimension, rm orders by size.  A
# second random-dual system at the largest size makes the four N=600 jobs the
# slowest tenth, so job_p90_ms falls between two jobs of the same cost.
ERASURE_SIZES = (12, 24, 60, 120, 240, 600)
HARMONIC_DIM = 3
SELF_DUAL_DIM, SELF_DUAL_RANK = 4, 3
SIMPLEX_MAX_N = 120


def rm_orders(N: int) -> tuple[int, ...]:
    if N <= 24:
        return (2, 3)
    if N <= 120:
        return (2,)
    return ()


def _cli(jobs, name, argv, frame=None):
    jobs.append({"id": f"{argv[0]}:{name}:" + " ".join(a for a in argv[1:] if a != frame),
                 "kind": "cli", "input": name, "argv": argv})


def _frame_jobs(jobs, name, F, budget, ops):
    f = f"{name}.json"
    iters, restarts = budget
    b = ["--max-iters", str(iters), "--restarts", str(restarts)]
    if "analyze" in ops:
        _cli(jobs, name, ["analyze", "--frame", f, *ops["analyze"]], f)
    if "canonical-dual" in ops:
        _cli(jobs, name, ["canonical-dual", "--frame", f], f)
    for m in ops.get("optimal-dual", ()):
        _cli(jobs, name, ["optimal-dual", "--frame", f, "--measure", m, *b], f)
    for m in ops.get("search", ()):
        _cli(jobs, name, ["search", "--frame", f, "--measure", m, *b], f)
    if "pair-bounds" in ops:
        _cli(jobs, name, ["pair-bounds", "--k", f, "--n-vectors", str(F.shape[1])], f)


def _small_cli(rng, workdir, budget):
    frames = dict(inputs.fixtures())
    for n, N, r in SMALL_ONE_BLOCK:
        frames[f"ob{n}x{N}" + (f"r{r}" if r else "")] = inputs.one_block(rng, n, N, r)
    for dims, sizes in SMALL_BLOCKS:
        frames[f"blk{sum(dims)}x{sum(sizes)}"] = inputs.block_frame(rng, dims, sizes)
    jobs = []
    for name, (F, K) in frames.items():
        inputs.write_frame(os.path.join(workdir, f"{name}.json"), F, K)
        search = ("o1", "r1", "r2u") if F.shape[1] <= R2U_MAX_N else ("o1", "r1")
        _frame_jobs(jobs, name, F, budget, {
            "analyze": ["--rm", "2", "--rm", "3"],
            "canonical-dual": True,
            "optimal-dual": ("opnorm", "spectral"),
            "search": search,
            "pair-bounds": True,
        })
    for name in inputs.fixtures():
        _cli(jobs, name, ["verify-example", name])
    return jobs


def _chart_scale(rng, workdir, budget):
    fixed = np.random.default_rng(list(CHART_FIXED_DRAW))
    frames = {}
    for n, N, count in CHART_ONE_BLOCK:
        draw = fixed if (n, N) == CHART_FIXED_DRAW else rng
        for k in range(1, count + 1):
            frames[f"ob{n}x{N}-{k}"] = inputs.one_block(draw, n, N)
    for name, (dims, sizes) in CHART_BLOCKS.items():
        for k in range(1, CHART_BLOCK_INSTANCES + 1):
            frames[f"{name}-{k}"] = inputs.block_frame(rng, dims, sizes)
    jobs = []
    for name, (F, K) in frames.items():
        inputs.write_frame(os.path.join(workdir, f"{name}.json"), F, K)
        ops = {"analyze": [], "canonical-dual": True, "pair-bounds": True}
        if F.shape[1] <= CHART_SEARCH_MAX_N:
            ops["search"] = ("r1",)
            ops["optimal-dual"] = ("spectral",)
            if name.startswith(("ob5x50", "blk12")):
                ops["search"] = ("r1", "o1")
                ops["optimal-dual"] = ("spectral", "opnorm")
        _frame_jobs(jobs, name, F, budget, ops)
    return jobs


def _lib(jobs, system, calls):
    """One library job: the calls, in order, on one input system."""
    name = calls[0][0] if len(calls) == 1 else "closed-forms"
    jobs.append({"id": f"{name}:{system}", "kind": "lib", "input": system,
                 "calls": [[func, kwargs] for func, kwargs in calls]})


OPTIMAL_PAIR = [("is_o1_optimal_pair", {}), ("is_r1_optimal_pair", {}), ("is_r2_optimal_pair", {})]


def _erasure_batch(rng, workdir, budget):
    systems = {}  # name -> {"F", "G", "K"}, or {"K", "N"} for a self-dual pair
    jobs = []
    for N in ERASURE_SIZES:
        H = inputs.harmonic(rng, HARMONIC_DIM, N)
        systems[f"H{N}"] = {"F": H, "G": H, "K": np.eye(HARMONIC_DIM)}
        systems[f"S{N}"] = {"K": inputs.random_psd(rng, SELF_DUAL_DIM, SELF_DUAL_RANK),
                            "N": np.array([N])}
        F, K = inputs.one_block(rng, SELF_DUAL_DIM, N)
        systems[f"R{N}"] = {"F": F, "G": inputs.random_dual(rng, F, K), "K": K}
        report = ("build_report", {"ms": list(rm_orders(N))})
        _lib(jobs, f"S{N}", [("construct_optimal_self_dual", {"n_vectors": N})])
        _lib(jobs, f"H{N}", [("build_dual_system", {}), report, ("uniformity", {}),
                             ("r2_simplified_uniform", {}), ("pair_bounds", {}), *OPTIMAL_PAIR])
        _lib(jobs, f"R{N}", [("build_dual_system", {}), report, ("uniformity", {}),
                             ("pair_bounds", {}), *OPTIMAL_PAIR])
        _lib(jobs, f"S{N}", [("build_report", {"ms": []}), ("uniformity", {}),
                             ("r2_simplified_uniform", {}), *OPTIMAL_PAIR])
        if N == ERASURE_SIZES[-1]:
            F, K = inputs.one_block(rng, SELF_DUAL_DIM, N)
            systems[f"R{N}b"] = {"F": F, "G": inputs.random_dual(rng, F, K), "K": K}
            _lib(jobs, f"R{N}b", [("build_dual_system", {}), report, ("uniformity", {}),
                                  ("pair_bounds", {}), *OPTIMAL_PAIR])
        if N <= SIMPLEX_MAX_N:
            E = inputs.simplex(rng, N)
            systems[f"E{N}"] = {"F": E, "G": E, "K": np.eye(N - 1)}
            _lib(jobs, f"E{N}", [("build_dual_system", {}), ("r2_special_closed_form", {}),
                                 ("two_uniform_spectral_optimality", {})])
    F, K = inputs.fixtures()["mercedes"]
    systems["M3"] = {"F": F, "G": F, "K": K}
    _lib(jobs, "M3", [("r2_special_closed_form", {}), ("two_uniform_spectral_optimality", {})])
    arrays = {f"{name}.{key}": arr for name, sysd in systems.items() for key, arr in sysd.items()}
    np.savez(os.path.join(workdir, "systems.npz"), **arrays)
    return jobs


def build(workload: str, seed: int, workdir: str, budget: tuple[int, int]) -> dict:
    """Write the inputs of one workload into workdir; return the manifest."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make_jobs = {"small-cli": _small_cli, "chart-scale": _chart_scale,
                 "erasure-batch": _erasure_batch}[workload]
    jobs = make_jobs(rng, workdir, budget)
    ids = [j["id"] for j in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate job ids")
    return {"workload": workload, "seed": seed, "jobs": jobs}
