import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import framekit as fk
from framekit import fixtures
from framekit.erasures import Measure
from framekit.frames import DEFAULT_TOL
from framekit.io import round_floats
from framekit.search import _Objective

# First step of the reference loop's diminishing steps STEP_INIT / sqrt(it);
# a run stops after STALL_ITERS iterations without progress.
STEP_INIT = 0.1
STALL_ITERS = 50


@pytest.fixture
def ex1():
    return fixtures.example_1()


@pytest.fixture
def ex2():
    return fixtures.example_2()


@pytest.fixture
def mb():
    return fixtures.mercedes()


def reference_emit(doc):
    """The CLI's JSON text by definition: every real rounded to 12
    significant digits by ``round_floats``, then ``json.dumps(indent=2)``.
    ``io.dumps_rounded`` must give these bytes."""
    return json.dumps(round_floats(doc), indent=2)


def complex_pair_terms(alpha, d):
    """The pair kernel as it was first written: every radius from the
    principal complex square root, both signs evaluated."""
    iu, ju = np.triu_indices(alpha.shape[0], 1)
    prods = alpha[iu, ju] * alpha[ju, iu]
    s = d[iu] + d[ju]
    root = np.sqrt(((d[iu] - d[ju]) ** 2 + 4.0 * prods).astype(complex))
    radii = np.maximum(np.abs((s + root) / 2.0), np.abs((s - root) / 2.0))
    return (iu, ju), prods, radii


def random_psd(rng, n, rank=None):
    """Random well-conditioned PSD matrix, optionally rank-deficient.

    Nonzero eigenvalues live in [0.2, 1.5] so absolute tolerances on trace
    identities and duality residuals are meaningful.
    """
    r = rank if rank is not None else n
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.zeros(n)
    lam[:r] = rng.uniform(0.2, 1.5, size=r)
    K = (q * lam) @ q.T
    return 0.5 * (K + K.T)


def random_orthonormal_rows(rng, n, N):
    """n x N matrix V with V V^T = I (requires n <= N)."""
    q, _ = np.linalg.qr(rng.normal(size=(N, n)))
    return q[:, :n].T


def random_parseval_frame(rng, op, N):
    """Parseval K-frame for a PSD operator: K V with orthonormal rows V."""
    V = random_orthonormal_rows(rng, op.dim, N)
    return fk.Frame(op.matrix @ V)


def random_system(rng, n_max=5, N_max=8, coeff_scale=0.7):
    """Random dual system: Parseval K-frame plus a random K-dual."""
    n = int(rng.integers(2, n_max + 1))
    N = int(rng.integers(n, N_max + 1))
    rank = n if rng.random() < 0.7 else int(rng.integers(1, n))
    op = fk.build_operator(random_psd(rng, n, rank))
    frame = random_parseval_frame(rng, op, N)
    param = fk.dual_parameterization(frame, op)
    coeffs = rng.normal(size=param.dof) * coeff_scale
    dual = fk.reconstruct_dual(param, coeffs)
    return fk.build_dual_system(frame, dual, op)


def random_block_frame(rng, specs=None):
    """Parseval K-frame split into orthogonal linearly connected blocks.

    Each block draws ``size`` generic vectors in its own ``dim``-dimensional
    coordinate slot (size 1, or size > dim so pairs stay linearly connected)
    and takes the block operator to be the PSD square root of the block frame
    operator, making the whole frame Parseval for the block-diagonal K.
    """
    if specs is None:
        n_blocks = int(rng.integers(2, 4))
        specs = []
        for _ in range(n_blocks):
            if rng.random() < 0.3:
                specs.append((1, 1))
            else:
                dim = int(rng.integers(1, 3))
                specs.append((dim, dim + int(rng.integers(1, 3))))
    n = sum(d for d, _ in specs)
    N = sum(s for _, s in specs)
    syn = np.zeros((n, N))
    K = np.zeros((n, n))
    row = col = 0
    deltas = []
    for dim, size in specs:
        while True:
            sub = rng.normal(size=(dim, size))
            gram = sub.T @ sub
            norms = np.linalg.norm(sub, axis=0)
            min_cos = np.min(
                np.abs(gram[np.triu_indices(size, k=1)])
                / np.outer(norms, norms)[np.triu_indices(size, k=1)]
            ) if size > 1 else 1.0
            if min_cos > 1e-2 and np.min(norms) > 1e-2:
                break
        S = sub @ sub.T
        w, q = np.linalg.eigh(S)
        K_block = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T
        syn[row : row + dim, col : col + size] = sub
        K[row : row + dim, row : row + dim] = K_block
        deltas.append(float(np.trace(K_block)) / size)
        row += dim
        col += size
    return fk.Frame(syn), fk.build_operator(K), deltas


def subset_search_connected_pair(frame, i, j, tol=1e-8, rank_tol=1e-10):
    """Reference linear-connectivity test by exhaustive subset search.

    Searches subsets S of the remaining indices in increasing size, requiring
    {f_j} union {f_l : l in S} independent, an exact representation of f_i,
    and every coefficient bounded away from zero.  First success (smallest
    subset, then lexicographic) wins; returns (connected, (c, S, coeffs)).
    Exponential in N: tests only.
    """
    syn = frame.synthesis
    f_i = syn[:, i]
    others = [k for k in range(frame.n_vectors) if k not in (i, j)]
    for size in range(0, min(len(others), frame.dim - 1) + 1):
        for subset in itertools.combinations(others, size):
            cols = syn[:, [j, *subset]]
            s = np.linalg.svd(cols, compute_uv=False)
            if s[-1] <= rank_tol * s[0]:
                continue
            coeffs, *_ = np.linalg.lstsq(cols, f_i, rcond=None)
            residual = np.linalg.norm(cols @ coeffs - f_i)
            if residual > tol * max(1.0, np.linalg.norm(f_i)):
                continue
            if np.min(np.abs(coeffs)) <= tol:
                continue
            return True, (float(coeffs[0]), subset, coeffs[1:])
    return False, None


def degenerate_frame(rng, n_max=4, N_max=12):
    """Small frame with exact dependencies: parallel and zero vectors and
    {-1, 0, 1} entries mixed with generic columns."""
    n = int(rng.integers(1, n_max + 1))
    N = int(rng.integers(2, N_max + 1))
    kind = rng.integers(0, 3, size=N)
    syn = np.where(kind == 0, rng.normal(size=(n, N)), rng.integers(-1, 2, size=(n, N)))
    for k in range(1, N):
        if rng.random() < 0.2:
            syn[:, k] = rng.choice([-2.0, 0.5, 1.0]) * syn[:, int(rng.integers(0, k))]
        elif rng.random() < 0.1:
            syn[:, k] = 0.0
    return fk.Frame(syn.astype(float))


def parseval_operator(frame):
    """PSD K with K K^T equal to the frame operator (tiny eigenvalues cut)."""
    w, q = np.linalg.eigh(frame.synthesis @ frame.synthesis.T)
    w = np.where(w > 1e-12 * np.max(w, initial=0.0), w, 0.0)
    return fk.build_operator((q * np.sqrt(w)) @ q.T)


def non_orthogonal_components(rng, dims=(2, 2), sizes=(5, 6)):
    """Parseval K-frame whose matroid components span linearly independent
    but non-orthogonal subspaces: one orthogonality block, several
    components.

    Group k holds ``sizes[k]`` generic combinations of ``dims[k]`` columns
    of one random n x n matrix; K is :func:`parseval_operator`.  The
    defaults with ``default_rng(0)`` give the (4, 11) frame whose spectral
    minimum the block ratio missed.
    """
    n = sum(dims)
    basis = rng.standard_normal((n, n))
    groups = []
    start = 0
    for dim, size in zip(dims, sizes):
        groups.append(basis[:, start : start + dim] @ rng.standard_normal((dim, size)))
        start += dim
    frame = fk.Frame(np.hstack(groups))
    return frame, parseval_operator(frame)


def near_joined_components(weight=1e-5, seed=0):
    """Two matroid components joined by a vector of the given weight: one
    component.  At 1e-5 its diagonal map D has two singular values near
    1e-6 of ||F||_F, below what the Gram D^T D resolves and above D's rank
    cut.

    With ``seed=0`` and a weight between 1e-7 and 1e-10 this is the frame
    on which the pivoted-QR components and D's rank rule once gave three
    different spectral minima; see :func:`fixed_frame_answers`.
    """
    frame, _ = non_orthogonal_components(np.random.default_rng(seed))
    F = frame.synthesis
    u, v = F[:, 0] / np.linalg.norm(F[:, 0]), F[:, -1] / np.linalg.norm(F[:, -1])
    frame = fk.Frame(np.column_stack([F, weight * (u + v)]))
    return frame, parseval_operator(frame)


def fixed_frame_answers(frame, op):
    """The three fixed-frame spectral answers: ``min_r1_fixed_frame``, the
    spectral ``minimize_measure`` value and the r1 of
    ``construct_spectrally_optimal_dual``, each None where it raised
    NumericalError.  The two duals must pass ``verify_k_dual``."""
    answers = []
    for answer in (
        lambda: fk.min_r1_fixed_frame(frame, op),
        lambda: fk.minimize_measure(frame, op, Measure.SPECTRAL).frame,
        lambda: fk.construct_spectrally_optimal_dual(frame, op),
    ):
        try:
            value = answer()
        except fk.NumericalError:
            answers.append(None)
            continue
        if isinstance(value, fk.Frame):
            assert fk.verify_k_dual(frame, value, op) is fk.DualKind.K_DUAL_PAIR
            value = float(np.max(np.abs(fk.build_dual_system(frame, value, op).diag)))
        answers.append(value)
    return answers


def non_psd_operator(rng, frame):
    """Non-PSD K = S^{1/2} U, U a random rotation, with K K^T = F F^T."""
    U, _ = np.linalg.qr(rng.standard_normal((frame.dim, frame.dim)))
    return fk.build_operator(parseval_operator(frame).matrix @ U)


def assert_value_scales(value, systems, scale):
    """Scaling F and K by ``scale`` scales ``value(frame, op)`` by ``scale``."""
    for frame, op in systems:
        scaled = value(fk.Frame(scale * frame.synthesis), fk.build_operator(scale * op.matrix))
        assert scaled / scale == pytest.approx(value(frame, op), rel=1e-9, abs=0)


def kkt_instance(rng, kind):
    """A block of four vectors in the plane plus an orthogonal singleton
    whose weight ties with the block's top weight.

    No dual moves the singleton's weight, so its gradient is zero and the
    canonical dual is optimal with multiplier 1 on it; the other top vector
    lies in the span of its block, so the span hypotheses do not apply.
    """
    frame, op, _ = random_block_frame(rng, [(2, 4)])
    top = float(np.max(fk.weight_partition(frame, op, kind).weights))
    syn = np.zeros((3, 5))
    syn[:2, :4] = frame.synthesis
    syn[2, 4] = top
    K = np.zeros((3, 3))
    K[:2, :2] = op.matrix
    K[2, 2] = top
    return fk.Frame(syn), fk.build_operator(K)


def kv_block_frame(rng, dims, sizes):
    """Parseval K-frame of blocks K_j V_j (V_j with orthonormal rows) in
    mutually orthogonal subspaces of the given dimensions, columns
    shuffled."""
    n = sum(dims)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    K, cols, start = np.zeros((n, n)), [], 0
    for dim, size in zip(dims, sizes):
        Q = basis[:, start : start + dim]
        start += dim
        Kj = Q @ random_psd(rng, dim) @ Q.T
        K += Kj
        cols.append(Kj @ Q @ random_orthonormal_rows(rng, dim, size))
    F = np.hstack(cols)[:, rng.permutation(sum(sizes))]
    return fk.Frame(F), fk.build_operator(0.5 * (K + K.T))


def certificate_systems(rng, kind, count):
    """One-block, block, degenerate and KKT-tied Parseval K-frames."""
    for k in range(count):
        if k % 4 == 0:
            n = int(rng.integers(2, 5))
            rank = n if rng.random() < 0.7 else int(rng.integers(1, n))
            op = fk.build_operator(random_psd(rng, n, rank))
            yield random_parseval_frame(rng, op, int(rng.integers(n + 1, 10))), op
        elif k % 4 == 1:
            frame, op, _ = random_block_frame(rng)
            yield frame, op
        elif k % 4 == 2:
            frame = degenerate_frame(rng)
            yield frame, parseval_operator(frame)
        else:
            yield kkt_instance(rng, kind)


def spectral_systems():
    """The fixtures, a one-block frame, a block frame and a frame whose
    matroid components are not orthogonal: name -> (frame, op)."""
    rng = np.random.default_rng(11)
    op = fk.build_operator(random_psd(rng, 3))
    systems = {name: fixtures.get_example(name) for name in fixtures.EXAMPLE_NAMES}
    systems["one-block"] = (random_parseval_frame(rng, op, 9), op)
    systems["blocks"] = random_block_frame(rng)[:2]
    systems["non-orthogonal"] = non_orthogonal_components(rng, (1, 2, 1), (3, 4, 2))
    return systems


def dense_diagonal_map(param):
    """The dof x N diagonal map D: ``D[m n + a, i] = W[i, m] F[a, i]``, the
    chart derivatives of ``<g_i, f_i>``."""
    return param.column_jacobian(param.frame.synthesis)


def chart_value(obj, c):
    """The objective at chart coefficients c: at ``K^+ F + C W^T``, through
    the public ``perturbation``."""
    return obj.value(obj.param.perturbation(c))


def coefficient_space_polish(obj):
    """Reference spectral minimum: the epigraph LP over all chart
    coefficients, which knows nothing of matroid components.

    min t subject to -t <= a0 + D^T c <= t, with the dof coefficients c and t
    as variables: a dense 2N x (dof + 1) constraint matrix, with the
    diagonal map D built from its definition.  Returns the coefficients, or
    None when HiGHS reports failure.
    """
    a0 = obj.param.canonical_diagonal
    dof, N = obj.param.dof, a0.shape[0]
    D = dense_diagonal_map(obj.param)
    cost = np.zeros(dof + 1)
    cost[-1] = 1.0
    A = np.zeros((2 * N, dof + 1))
    A[:N, :dof] = D.T
    A[:N, -1] = -1.0
    A[N:, :dof] = -D.T
    A[N:, -1] = -1.0
    b = np.concatenate([-a0, a0])
    res = scipy.optimize.linprog(
        cost, A_ub=A, b_ub=b, bounds=[(None, None)] * dof + [(0, None)],
        method="highs",
    )
    return res.x[:dof] if res.success else None


def reference_gradient(obj, G, i):
    """Gradient in the chart coefficients of term i of the objective at the
    dual synthesis G, from its definition."""
    if obj.kind is Measure.SPECTRAL:
        return np.sign(G[:, i] @ obj.fsyn[:, i]) * dense_diagonal_map(obj.param)[:, i]
    gnorm = np.linalg.norm(G[:, i])
    if gnorm == 0.0:
        return np.zeros(obj.param.dof)
    u = G[:, [i]] / gnorm
    return obj.fnorms[i] * obj.param.column_jacobian(u, [i])[:, 0]


def reference_subgradient(obj, c):
    """Objective at c and the mean gradient of the terms within DEFAULT_TOL
    of the canonical value of the maximum, one term at a time, in the
    chart coefficients."""
    G = obj.base + obj.param.perturbation(c)
    if obj.kind is Measure.SPECTRAL:
        w = np.abs(np.einsum("ij,ij->j", G, obj.fsyn))
    else:
        w = obj.fnorms * np.linalg.norm(G, axis=0)
    val = float(np.max(w))
    ties = np.flatnonzero(val - w <= DEFAULT_TOL * obj.canonical_value)
    return val, sum(reference_gradient(obj, G, i) for i in ties) / len(ties)


def coefficient_space_run(obj, start, cfg):
    """Reference subgradient loop over all chart coefficients.

    Each iteration evaluates the terms at c and steps along
    :func:`reference_subgradient`, a dof-vector.  The run stalls after
    STALL_ITERS iterations whose best value moved by at most DEFAULT_TOL of
    the canonical value.  Returns the best coefficients, the best value and
    the trace of best values.
    """
    c = start.copy()
    best_c = c.copy()
    best = chart_value(obj, c)
    trace = [best]
    stall_ref = best
    stall_count = 0
    for it in range(1, cfg.max_iters + 1):
        val, sub = reference_subgradient(obj, c)
        if val < best:
            best = val
            best_c = c.copy()
        norm_sq = float(sub @ sub)
        if norm_sq == 0.0:
            trace.append(best)
            break
        c = c - STEP_INIT / math.sqrt(it) * sub
        trace.append(best)
        if abs(stall_ref - best) <= DEFAULT_TOL * obj.canonical_value:
            stall_count += 1
            if stall_count >= STALL_ITERS:
                break
        else:
            stall_ref = best
            stall_count = 0
    return best_c, best, trace


def dense_null_space(rows, dof, tol=1e-10):
    """Reference orthonormal basis (as rows) of the null space of a
    constraint matrix, from its full SVD: a dof x dof factor."""
    if rows.size == 0:
        return np.eye(dof)
    _, s, vt = np.linalg.svd(rows)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > max(tol * smax, tol)))
    return vt[rank:]


def dense_family_rows(frame, param, part, kind):
    """Reference family: the coefficient directions preserving the top
    weights, as rows, from one constraint row per top condition."""
    dof = param.dof
    if dof == 0:
        return np.zeros((0, 0))
    top = list(part.top)
    if kind is fk.Measure.OP_NORM:
        # u_i = 0 for every top index: one row per entry (a, i), a-major.
        rows = np.vstack(
            [
                param.column_jacobian(np.outer(e, np.ones(len(top))), top).T
                for e in np.eye(frame.dim)
            ]
        )
    else:
        # <u_i, f_i> = 0 for every top index.
        rows = param.column_jacobian(frame.synthesis[:, top], top).T
    return dense_null_space(np.atleast_2d(rows), dof)


def loop_family_radius(frame, base_dual, direction, part, kind):
    """Reference family radius, one rest index at a time."""
    L = part.top_value
    radius = float("inf")
    for i in part.rest:
        f = frame.synthesis[:, i]
        v = base_dual.synthesis[:, i]
        u = direction[:, i]
        if kind is fk.Measure.OP_NORM:
            fn = float(np.linalg.norm(f))
            if fn == 0.0:
                continue
            a = float(u @ u)
            b = float(v @ u)
            d = float(v @ v) - (L / fn) ** 2
            if a == 0.0:
                if b == 0.0:
                    continue
                radius = min(radius, -d / (2.0 * abs(b)))
                continue
            disc = math.sqrt(max(b * b - a * d, 0.0))
            t_plus = (-b + disc) / a
            t_minus = (-b - disc) / a
            radius = min(radius, min(abs(t_plus), abs(t_minus)))
        else:
            s = float(u @ f)
            if s == 0.0:
                continue
            a0 = float(v @ f)
            radius = min(radius, (L - abs(a0)) / abs(s))
    return radius


def absolute_op_norm_polish(obj, c0):
    """Reference op-norm polish: the SLSQP epigraph in absolute units over
    the chart coefficients, warm-started at c0 with t = value(c0) + 1e-9."""
    t0 = chart_value(obj, c0)
    x0 = np.concatenate([c0, [t0 + 1e-9]])
    fn2 = obj.fnorms**2

    def dual_syn(c):
        return obj.base + obj.param.perturbation(c)

    def cons_f(x):
        G = dual_syn(x[:-1])
        return x[-1] ** 2 - fn2 * np.einsum("ij,ij->j", G, G)

    def cons_jac(x):
        G = dual_syn(x[:-1])
        jac = np.zeros((G.shape[1], x.size))
        jac[:, :-1] = -2.0 * (fn2[None, :] * obj.param.column_jacobian(G)).T
        jac[:, -1] = 2.0 * x[-1]
        return jac

    res = scipy.optimize.minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: np.eye(x0.size)[-1],
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        bounds=[(None, None)] * obj.param.dof + [(0.0, None)],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    return res.x[:-1] if np.all(np.isfinite(res.x)) else None


def loop_then_polish(frame, op, kind, cfg):
    """Reference search: every seeded subgradient restart, then the exact
    polish from the best loop point, kept when it improves by more than
    DEFAULT_TOL of the canonical value.  Returns the value."""
    param = fk.dual_parameterization(frame, op)
    obj = _Objective(param, kind)
    if param.dof == 0 or obj.canonical_value == 0.0:
        return obj.canonical_value
    scale = max(1.0, float(np.linalg.norm(param.base.synthesis)))
    best_c, best_val = None, np.inf
    for idx in range(cfg.restarts):
        if idx == 0:
            start = np.zeros(param.dof)
        else:
            rng = np.random.default_rng([cfg.seed, idx])
            start = rng.standard_normal(param.dof) * scale
        c, val, _ = coefficient_space_run(obj, start, cfg)
        if val < best_val:
            best_c, best_val = c, val
    if kind is fk.Measure.SPECTRAL:
        new_val = obj.value(param._component_mean_perturbation)
    else:
        c_new = absolute_op_norm_polish(obj, best_c)
        new_val = None if c_new is None else chart_value(obj, c_new)
    if new_val is not None and best_val - new_val > DEFAULT_TOL * obj.canonical_value:
        best_val = new_val
    return best_val


def nan_qr(a, mode="reduced"):
    """``np.linalg.qr`` in mode "reduced" or "r" with factors all NaN."""
    k = min(a.shape)
    r = np.full((k, a.shape[1]), np.nan)
    return r if mode == "r" else (np.full((a.shape[0], k), np.nan), r)


def break_lifts(monkeypatch):
    """Make every chart lift of a diagonal miss: ``_diagonal_perturbation``,
    and so ``diagonal_coefficients``, returns None."""
    monkeypatch.setattr(
        fk.DualParameterization, "_diagonal_perturbation", lambda self, target: None
    )


def break_solvers(monkeypatch):
    """:func:`break_lifts`, and make every numpy QR, the one of each op-norm
    Lawson step among them, return NaN factors, so the Lawson iterate is
    not finite."""
    monkeypatch.setattr(np.linalg, "qr", nan_qr)
    break_lifts(monkeypatch)
