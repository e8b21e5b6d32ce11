"""Independent numpy oracle for every job kind of the benchmark.

Nothing here imports framekit.  Each check takes the job, its input arrays
and what the program returned, and gives back one of

* ``"ok"``: the output is right;
* ``"confirmed"``: a non-zero exit that is the right answer (``search r2u``
  on a frame with no 1-uniform dual, confirmed by least squares);
* ``"refused"``: a documented refusal the oracle confirms applies
  (``optimal-dual spectral`` on a block of more than 16 vectors, where the
  subset search of linear connectivity is disabled);
* ``"defect"``: a known program defect whose trigger the oracle confirms
  (``analyze`` on a 2-uniform system crashes serializing a numpy bool);
* ``"failed"``: anything else, with a reason.

Values printed by the CLI carry 12 significant digits, so comparisons use
a relative tolerance of 1e-9 on values and 1e-7 on duality residuals.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

REL = 1e-9
RESID = 1e-7
UNIFORM_TOL = 1e-8  # framekit's uniformity / weight tolerance
SUBSET_SEARCH_CAP = 16  # documented cap of framekit's connectivity search


class Mismatch(Exception):
    """Output disagrees with the oracle."""


def close(a, b, rel=REL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def expect_close(got, want, what: str, rel=REL) -> None:
    if not close(got, want, rel):
        raise Mismatch(f"{what}: got {got}, oracle {want}")


# ---------------------------------------------------------------------------
# closed forms recomputed from the arrays


def pinv(K: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(K, rcond=1e-10)


def residual(F, G, K) -> float:
    return float(np.linalg.norm(F @ G.T - K) / max(1.0, np.linalg.norm(K)))


def cross_gram(F, G) -> np.ndarray:
    return G.T @ F


def o1_weights(F, G) -> np.ndarray:
    return np.linalg.norm(F, axis=0) * np.linalg.norm(G, axis=0)


def pair_radii(alpha: np.ndarray):
    """Spectral radius of every two-erasure operator, from batched 2x2 eigvals.

    The nonzero spectrum of ``E_L`` equals that of ``alpha[L, L]``.
    """
    iu, ju = np.triu_indices(alpha.shape[0], k=1)
    blocks = np.empty((iu.size, 2, 2))
    blocks[:, 0, 0] = alpha[iu, iu]
    blocks[:, 0, 1] = alpha[iu, ju]
    blocks[:, 1, 0] = alpha[ju, iu]
    blocks[:, 1, 1] = alpha[ju, ju]
    return np.max(np.abs(np.linalg.eigvals(blocks)), axis=1), iu, ju


def r2(alpha: np.ndarray) -> float:
    return float(np.max(pair_radii(alpha)[0]))


def rm(alpha: np.ndarray, m: int) -> float:
    """Worst spectral radius over all m-erasure patterns (coefficient space)."""
    idx = np.array(list(itertools.combinations(range(alpha.shape[0]), m)))
    best = 0.0
    for lo in range(0, len(idx), 4096):
        chunk = idx[lo : lo + 4096]
        sub = alpha[chunk[:, :, None], chunk[:, None, :]]
        best = max(best, float(np.max(np.abs(np.linalg.eigvals(sub)))))
    return best


def uniformity(alpha: np.ndarray, tol=UNIFORM_TOL):
    diag = np.diag(alpha)
    center = float(np.mean(diag))
    if np.max(np.abs(diag - center)) > tol:
        return None, None
    N = alpha.shape[0]
    if N < 2:
        return center, None
    iu, ju = np.triu_indices(N, k=1)
    prods = alpha[iu, ju] * alpha[ju, iu]
    p = float(np.mean(prods))
    return center, (p if np.max(np.abs(prods - p)) <= tol else None)


def pair_bounds(K: np.ndarray, N: int) -> dict:
    t, t2 = float(np.trace(K)), float(np.trace(K @ K))
    mu = t2 - t * t / N
    out = {"o1_min": t / N, "r1_min": t / N, "mu": mu, "r2_min": None,
           "branch": None, "r2_min_statement_variant": None}
    if N >= 2:
        if mu >= 0:
            out["r2_min"], out["branch"] = t / N + math.sqrt(mu / (N * (N - 1))), "mu_nonneg"
        else:
            out["r2_min"], out["branch"] = math.sqrt((t * t - t2) / (N * (N - 1))), "mu_neg"
            out["r2_min_statement_variant"] = math.sqrt(
                ((N - 2) * t * t + N * t2) / (N * N * (N - 1)))
    return out


def optimal_flags(F, G, K) -> dict:
    N = F.shape[1]
    alpha = cross_gram(F, G)
    t = float(np.trace(K))
    c, cp = uniformity(alpha)
    pb = pair_bounds(K, N)
    r2_opt = (N >= 2 and c is not None and cp is not None
              and abs(r2(alpha) - pb["r2_min"]) <= UNIFORM_TOL)
    return {
        "o1_optimal": bool(np.max(np.abs(o1_weights(F, G) - t / N)) <= UNIFORM_TOL),
        "r1_optimal": c is not None,
        "r2_optimal": bool(r2_opt),
    }


def blocks(F: np.ndarray, tol=UNIFORM_TOL) -> list[list[int]]:
    """Connected components of the non-orthogonality graph, sorted."""
    N = F.shape[1]
    norms = np.linalg.norm(F, axis=0)
    adj = np.abs(F.T @ F) > tol * np.maximum(1.0, np.outer(norms, norms))
    seen = np.zeros(N, dtype=bool)
    out = []
    for s in range(N):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            a = stack.pop()
            comp.append(a)
            for b in np.flatnonzero(adj[a] & ~seen):
                seen[b] = True
                stack.append(int(b))
        out.append(sorted(comp))
    return out


def block_data(F, K, block):
    u, s, _ = np.linalg.svd(F[:, block], full_matrices=False)
    Q = u[:, : int(np.count_nonzero(s > 1e-10 * s[0]))]
    P = Q @ Q.T
    invariant = np.linalg.norm(K @ P - P @ K @ P) <= UNIFORM_TOL * max(1.0, np.linalg.norm(K))
    return float(np.trace(Q.T @ K @ Q)) / len(block), bool(invariant)


def one_uniform_feasible(F, K) -> bool:
    """Least squares: is there a K-dual with every <g_i, f_i> = trace(K)/N?"""
    N = F.shape[1]
    G0 = pinv(K) @ F
    _, s, vt = np.linalg.svd(F)
    W = vt[int(np.count_nonzero(s > 1e-10 * s[0])):].T  # N x d
    target = np.trace(K) / N - np.einsum("ij,ij->j", G0, F)
    if W.shape[1] == 0:
        return bool(np.max(np.abs(target)) <= 1e-8 * max(1.0, abs(np.trace(K) / N)))
    # diag(W C^T F)_i = sum_{a,k} C[a,k] W[i,k] F[a,i]
    M = np.einsum("ik,ai->iak", W, F).reshape(N, -1)
    c, *_ = np.linalg.lstsq(M, target, rcond=None)
    return bool(np.max(np.abs(M @ c - target)) <= 1e-8 * max(1.0, abs(np.trace(K) / N)))


# ---------------------------------------------------------------------------
# CLI jobs


def load_frame(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return np.asarray(doc["vectors"], dtype=float).T, np.asarray(doc["K"], dtype=float)


def _check_report(rep, F, G, K, ms):
    alpha = cross_gram(F, G)
    w = o1_weights(F, G)
    d = np.abs(np.diag(alpha))
    radii, iu, ju = pair_radii(alpha)
    expect_close(rep["o1"], float(np.max(w)), "o1")
    expect_close(rep["r1"], float(np.max(d)), "r1")
    expect_close(rep["r2"], float(np.max(radii)), "r2")
    expect_close(float(w[rep["argmax_o1"] - 1]), float(np.max(w)), "argmax_o1")
    expect_close(float(d[rep["argmax_r1"] - 1]), float(np.max(d)), "argmax_r1")
    i, j = rep["argmax_r2"][0] - 1, rep["argmax_r2"][1] - 1
    expect(i < j, "argmax_r2 order")
    k = int(np.flatnonzero((iu == i) & (ju == j))[0])
    expect_close(float(radii[k]), float(np.max(radii)), "argmax_r2")
    c, cp = uniformity(alpha)
    expect_close(rep["c"], c, "c")
    expect_close(rep["c_prime"], cp, "c_prime")
    expect(sorted(rep["rm"]) == sorted(str(m) for m in ms), "rm orders")
    for m in ms:
        expect_close(rep["rm"][str(m)], rm(alpha, m), f"rm[{m}]")


def _check_pair_bounds(doc, K, N):
    want = pair_bounds(K, N)
    for key in ("o1_min", "r1_min", "mu", "r2_min", "r2_min_statement_variant"):
        expect_close(doc[key], want[key], key)
    expect(doc["branch"] == want["branch"], "branch")


def _measure(F, G, kind):
    if kind in ("opnorm", "o1"):
        return float(np.max(o1_weights(F, G)))
    return float(np.max(np.abs(np.einsum("ij,ij->j", G, F))))


def _cli_ok(cmd, argv, doc, F, K):
    N = F.shape[1]
    if cmd == "pair-bounds":
        _check_pair_bounds(doc, K, N)
        return
    G0 = pinv(K) @ F
    if cmd == "canonical-dual":
        G = np.asarray(doc["vectors"], dtype=float).T
        expect(np.max(np.abs(G - G0)) <= REL * max(1.0, np.max(np.abs(G0))), "canonical dual")
        expect(residual(F, G, K) <= RESID, "canonical dual residual")
        return
    if cmd == "analyze":
        expect(doc["dim"] == F.shape[0] and doc["n_vectors"] == N, "shape")
        expect_close(doc["k_frame_bounds"]["A"], 1.0, "lower K-frame bound", rel=1e-7)
        expect_close(doc["k_frame_bounds"]["B"], float(np.linalg.eigvalsh(F @ F.T)[-1]), "B")
        ms = [int(argv[i + 1]) for i, a in enumerate(argv) if a == "--rm"]
        _check_report(doc["canonical_dual_report"], F, G0, K, ms)
        _check_pair_bounds(doc["pair_bounds"], K, N)
        expect(doc["optimal_pair_flags"] == optimal_flags(F, G0, K), "optimal pair flags")
        return
    measure = argv[argv.index("--measure") + 1]
    if cmd == "search":
        G = np.asarray(doc["best_dual"], dtype=float).T
        expect(residual(F, G, K) <= RESID, "best dual residual")
        bound = pair_bounds(K, N)
        if measure == "r2u":
            diag = np.einsum("ij,ij->j", G, F)
            expect(np.max(np.abs(diag - np.trace(K) / N)) <= 1e-7, "best dual is 1-uniform")
            expect_close(doc["value"], r2(cross_gram(F, G)), "r2u value", rel=1e-7)
            expect(doc["value"] >= bound["r2_min"] - 1e-7, "r2u beats the pair bound")
            return
        expect_close(doc["value"], _measure(F, G, measure), "search value", rel=1e-7)
        expect(doc["value"] <= _measure(F, G0, measure) * (1 + REL) + REL, "worse than canonical")
        expect(doc["value"] >= bound["o1_min"] * (1 - 1e-7), "beats the pair bound")
        return
    if cmd == "optimal-dual":
        G = np.asarray(doc["optimal_dual"], dtype=float).T
        expect(residual(F, G, K) <= RESID, "optimal dual residual")
        canonical = _measure(F, G0, measure)
        expect(_measure(F, G, measure) <= canonical * (1 + 1e-7) + REL, "worse than canonical")
        expect(doc["search_value"] <= canonical * (1 + REL) + REL, "search worse than canonical")
        dec = doc["decomposition"]
        want = blocks(F)
        expect([[i - 1 for i in b] for b in dec["blocks"]] == want, "blocks")
        data = [block_data(F, K, b) for b in want]
        for got, (delta, _) in zip(dec["deltas"], data):
            expect_close(got, delta, "delta")
        expect(dec["k_invariant"] == [inv for _, inv in data], "k_invariant")
        if measure == "spectral" and all(inv for _, inv in data):
            expect_close(doc["minimal_value"], max(dec["deltas"]), "minimal = max(deltas)")
            expect_close(_measure(F, G, measure), doc["minimal_value"], "dual attains minimum", rel=1e-7)
            expect(doc["search_value"] >= doc["minimal_value"] * (1 - 1e-7), "search beats minimum")
        else:
            expect_close(doc["minimal_value"], doc["search_value"], "minimal = search value")
        fam = doc["perturbation_family"]
        expect(fam["exists"] == (fam["dimension"] > 0), "family dimension")
        return
    raise Mismatch(f"no oracle for {cmd}")


def check_cli(job, path, rc, out, err):
    """Classify one CLI job from its exit code and captured streams."""
    argv = job["argv"]
    cmd = argv[0]
    if cmd == "verify-example":
        if rc == 0 and "FAIL" not in out and out.rstrip().endswith("assertions passed"):
            return "ok", ""
        return "failed", f"verify-example exit {rc}"
    F, K = load_frame(path)
    if isinstance(rc, BaseException):
        if (cmd == "analyze" and isinstance(rc, TypeError) and "bool" in str(rc)
                and None not in uniformity(cross_gram(F, pinv(K) @ F))):
            return "defect", "analyze on a 2-uniform system: numpy bool in JSON output"
        return "failed", f"raised {rc!r}"
    if rc != 0:
        if (cmd == "search" and "r2u" in argv and rc == 3
                and "no 1-uniform dual" in err and not one_uniform_feasible(F, K)):
            return "confirmed", "no 1-uniform dual (least squares)"
        if (cmd == "optimal-dual" and "spectral" in argv and rc == 3
                and "subset search disabled" in err):
            parts = blocks(F)
            if (all(block_data(F, K, b)[1] for b in parts)
                    and max(len(b) for b in parts) > SUBSET_SEARCH_CAP):
                return "refused", "block of more than 16 vectors: subset search disabled"
        return "failed", f"exit {rc}: {err.strip()[:200]}"
    try:
        doc = json.loads(out)
        expect(doc.get("schema") == "framekit/1", "schema")
        _cli_ok(cmd, argv, doc, F, K)
    except (Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
        return "failed", f"{type(exc).__name__}: {exc}"
    return "ok", ""


# ---------------------------------------------------------------------------
# library jobs


def _lib_ok(func, kwargs, result, F, G, K):
    N = F.shape[1]
    alpha = cross_gram(F, G)
    t = float(np.trace(K))
    if func == "construct_optimal_self_dual":
        T = np.asarray(result.synthesis)
        expect(np.linalg.norm(T @ T.T - K) <= RESID * max(1.0, np.linalg.norm(K)), "T T^T = K")
        expect(np.max(np.abs(np.sum(T * T, axis=0) - t / N)) <= 1e-9 * max(1.0, t), "equal norms")
    elif func == "build_dual_system":
        expect(np.max(np.abs(result.cross_gram - alpha)) <= 1e-12 * max(1.0, np.max(np.abs(alpha))),
               "cross Gram")
        expect(result.kind.value == "k_dual_pair", "pair status")
        expect(residual(F, G, K) <= RESID, "residual")
    elif func == "build_report":
        ms = kwargs["ms"]
        rep = {
            "o1": result.o1, "r1": result.r1, "r2": result.r2,
            "argmax_o1": result.argmax_o1 + 1, "argmax_r1": result.argmax_r1 + 1,
            "argmax_r2": [result.argmax_r2[0] + 1, result.argmax_r2[1] + 1],
            "c": result.uniform1, "c_prime": result.uniform2,
            "rm": {str(m): v for m, v in result.rm.items()},
        }
        _check_report(rep, F, G, K, ms)
    elif func == "uniformity":
        c, cp = uniformity(alpha)
        expect_close(result[0], c, "c")
        expect_close(result[1], cp, "c_prime")
    elif func in ("r2_simplified_uniform", "r2_special_closed_form"):
        expect_close(result, r2(alpha), func)
    elif func == "pair_bounds":
        got = {"o1_min": result.o1_min, "r1_min": result.r1_min, "mu": result.mu,
               "r2_min": result.r2_min, "r2_min_statement_variant": result.r2_min_statement_variant,
               "branch": result.branch.value if result.branch else None}
        _check_pair_bounds(got, K, N)
    elif func.startswith("is_") and func.endswith("_optimal_pair"):
        key = func[3:-5]  # is_o1_optimal_pair -> o1_optimal
        expect(bool(result) == optimal_flags(F, G, K)[key], key)
    elif func == "two_uniform_spectral_optimality":
        expect(result[0] is True, "optimal flag")
        expect_close(result[1], r2(alpha), "two-uniform value")
    else:
        raise Mismatch(f"no oracle for {func}")


def check_lib(func, kwargs, result, F, G, K):
    """Classify one library call from its return value or exception."""
    if isinstance(result, BaseException):
        return "failed", f"raised {result!r}"
    try:
        _lib_ok(func, kwargs, result, F, G, K)
    except (Mismatch, AttributeError, TypeError, IndexError) as exc:
        return "failed", f"{type(exc).__name__}: {exc}"
    return "ok", ""
