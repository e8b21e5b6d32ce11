"""Minimization over the K-dual affine space.

Both one-erasure objectives are pointwise maxima of convex functions of the
admissible perturbation E (n x N, ``E V = 0``, the dual being ``K^+ F + E``):
a norm of an affine map for the operator norm, the absolute value of an
affine functional for the spectral radius.  So each is a convex min-max
problem, and :func:`minimize_measure` solves it once, exactly.  Reported
values are always true measure values of verified duals, and a solve that
returns no usable point raises :class:`~framekit.errors.NumericalError`.

The spectral objective sees a dual only through its diagonal, and the
reachable diagonals are those with the component sums of the canonical
diagonal a0 over the matroid components of F.  So the minimum is the
largest absolute component mean of a0, attained by the diagonal with every
component at its mean; the chart certifies the components and lifts that
diagonal once (``_component_mean_perturbation``), and the search returns
that dual.  The tests check it against an epigraph LP over all chart
coefficients that knows nothing of components.

The operator norm ``min max_i ||f_i|| ||g_i||`` splits over the matroid
components of F and is solved by Lawson's reweighting (C. L. Lawson, PhD
thesis, UCLA, 1961; Rice and Usow, Math. Comp. 22, 1968) in the rank F
dimensional range of each component: every step is a weighted least-squares
dual, which gives a lower bound, and a candidate, projected back onto the
K-duals and evaluated exactly.  Once the two are within NEWTON_GAP,
Newton steps on the weights take over.  A component stops when the two
meet within LAWSON_GAP, so the value comes with a certified interval; one
that hits LAWSON_MAX_STEPS keeps its best dual and leaves the interval
open.  The per-term gradients (:meth:`_Objective.gradients`) serve
:func:`framekit.duals.canonical_certificate`, whose exact optimality test
at the canonical dual is a KKT system in them.

``minimize_r2_within_uniform`` restricts the coefficient chart (``E = C
W^T``) to duals with constant diagonal trace(K)/N (an affine constraint)
and minimizes the two-erasure spectral radius by direct search; that
objective is not convex, hence the restarts actually matter there.

The fixed-frame solves run on numpy alone.  scipy is imported by the
two-erasure search alone, inside :func:`_minimize_r2_within_uniform`, so
importing this module does not load it, and no other command does: the
Nelder-Mead solver is looked up on the ``scipy.optimize`` module at each
call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DofTooLargeError, InfeasibleError, NumericalError
from .frames import (
    DualKind,
    DualParameterization,
    Frame,
    OperatorSpec,
    _rank,
    _within,
    dual_parameterization,
    reconstruct_dual,
    verify_k_dual,
)
from .erasures import Measure, _max_pair_radius
from .pairs import pair_bounds

# Points per chart axis and largest dof of brute_force_grid_oracle.
GRID_POINTS_PER_DOF = 11
GRID_DOF_CAP = 4

# The op-norm Lawson solve: its step cap per matroid component, the relative
# gap between the exact value and the lower bound at which a component
# stops, the floor of each weight relative to the largest, and the power of the update lam_i <- lam_i w_i^p (p = 2
# stalls on about half of the random test systems; 1 converges slower).
LAWSON_MAX_STEPS = 2000
LAWSON_GAP = 1e-10
LAWSON_FLOOR = 1e-14
LAWSON_POWER = 1.5
# Newton steps on the weights (see _lawson_component) start below the
# relative gap NEWTON_GAP; their active set starts at the weights above
# NEWTON_ACTIVE of the largest.
NEWTON_GAP = 1e-2
NEWTON_ACTIVE = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the numerical searches.

    No solver reads ``max_iters``, a validated field of the public
    configuration: the exact solves of :func:`minimize_measure` have no
    budget here.  ``restarts`` and ``seed`` drive only the Nelder-Mead
    starts of :func:`minimize_r2_within_uniform`.
    """

    max_iters: int = 200
    restarts: int = 8
    seed: int = 20240

    def __post_init__(self):
        if self.max_iters <= 0 or self.restarts <= 0:
            raise ValueError("search configuration fields must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    frame: Frame
    value: float
    trace: tuple[float, ...]
    restart_index: int = 0
    comparison: dict | None = None


class _Objective:
    """Vectorized one-erasure objectives over the admissible perturbations:
    the terms of the dual ``G = K^+ F + E`` for an n x N matrix E with
    ``E V = 0`` (V the chart's row basis)."""

    def __init__(self, param: DualParameterization, kind: Measure):
        self.kind = kind
        self.param = param
        self.fsyn = param.frame.synthesis
        self.fnorms = np.linalg.norm(self.fsyn, axis=0)
        self.base = param.base.synthesis

    def value(self, E: np.ndarray) -> float:
        return float(np.max(self.terms(E)[0]))

    @cached_property
    def canonical_value(self) -> float:
        """The objective at the canonical dual (E = 0), the scale of the
        keep rule of the search."""
        return self.value(np.zeros_like(self.base))

    def terms(self, E: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Per-index terms at E, whose maximum is the objective, and the
        state :meth:`gradients` needs.  A stack of perturbations (..., n, N)
        gives terms of shape (..., N)."""
        G = self.base + E
        if self.kind is Measure.SPECTRAL:
            diag = np.einsum("...ij,ij->...j", G, self.fsyn)
            return np.abs(diag), (diag,)
        gnorms = np.linalg.norm(G, axis=-2)
        return self.fnorms * gnorms, (G, gnorms)

    def gradients(self, state: tuple, indices) -> np.ndarray:
        """Gradients of the terms at the given indices over the admissible
        perturbations: column t of the nN x len(indices) result is the
        n x N gradient of term ``i = indices[t]``, raveled.  Term i moves
        with column i of E alone, so it is ``x_i (e_i - V v_i)^T``, the
        admissible part of ``x_i e_i^T`` (v_i row i of V), with ``x_i =
        sign(<g_i, f_i>) f_i`` (spectral) or ``||f_i|| g_i / ||g_i||``
        (operator norm; 0 where ``g_i = 0``).
        """
        idx = np.asarray(indices, dtype=int)
        V = self.param.row_basis
        P = -(V @ V[idx].T)  # column t: e_i - V v_i for i = idx[t]
        P[idx, np.arange(idx.size)] += 1.0
        if self.kind is Measure.SPECTRAL:
            (diag,) = state
            X = self.fsyn[:, idx] * np.sign(diag[idx])
        else:
            G, gnorms = state
            norms = gnorms[idx]
            X = self.fnorms[idx] * G[:, idx] / np.where(norms > 0, norms, 1.0)
        return (X[:, None, :] * P[None, :, :]).reshape(-1, idx.size)


@dataclass(frozen=True, eq=False)
class _LawsonResult:
    """The op-norm Lawson solve: the best projected dual found (synthesis),
    its exact value, the lower bound the stop rule reads, the rounding
    margin of that bound (``bound - margin`` is the reported bound, safe
    against rounding), the final weights (each matroid component's sum to
    1) and the steps per component in the order they ran; LAWSON_MAX_STEPS
    among them marks a capped run."""

    dual: np.ndarray
    value: float
    bound: float
    margin: float
    weights: np.ndarray
    steps: tuple[int, ...]


def _lawson_component(F: np.ndarray, G0: np.ndarray, known: float):
    """Lawson reweighting on one matroid component with n x N_B synthesis F
    and canonical dual G0, given a lower bound ``known`` of the whole
    minimum.

    Returns (dual, value, bound, margin, weights, steps).  With
    u_i = f_i / ||f_i|| and weights lam in the simplex, the dual minimizing
    ``sum_i lam_i ||f_i||^2 ||g_i||^2`` has
    ``||f_i|| g_i = Y^T Q^T e_i / sqrt(lam_i)``, where ``Q R`` is a QR of
    ``diag(lam)^(-1/2) U^T`` (U: the u_i in an orthonormal basis of
    range F) and ``R^T Y = T``, T being the target ``F G0^T`` in that basis.
    Its weighted value ``||Y||_F^2`` is at most the squared minimum, so
    ``||Y||_F`` is a lower bound at every step.  Each candidate is projected
    back onto the K-duals, ``E -> E (I - F^+ F)`` for ``E = G - G0``, and
    evaluated exactly.  The run stops when the best exact value is within
    LAWSON_GAP, relatively, of the larger of its best bound and ``known``:
    below ``known`` the component cannot raise the maximum.  The start
    ``lam ~ ||f_i||^-2`` gives the canonical dual; the update is
    ``lam_i <- lam_i w_i^LAWSON_POWER`` with ``w_i = ||f_i|| ||g_i||``,
    floored at LAWSON_FLOOR of the largest weight.  Once the gap is below
    NEWTON_GAP, :func:`_newton_weights` steps instead, for as long as each
    Newton step halves the gap; a step that does not is undone, and after
    two such misses only Lawson's update runs.  Newton goes first because
    Lawson's update converges linearly: on the one-block frames of the
    benchmark (seeds 1-3, n <= 5) Newton-first takes 9-12 steps where
    Lawson's update alone takes 31-55.  That pays for numpy: its QR and
    solve cost about 37 us a step, against 11 us for LAPACK's QR and
    triangular solve called directly (one BLAS thread, 2-vCPU VM), so a
    component that Lawson's update closes in a few steps anyway (Mercedes,
    the blk20 frames) costs up to 1.4 times what those direct calls cost.
    Every step's candidate and bound are exact whatever the weights, so
    neither update can spoil the interval.  Computed, the bound carries a
    relative rounding error of about cond(R) * eps, R the triangular factor
    of the step that gave it; ``margin`` is ``rank * eps * cond_1(R)`` of
    the bound, the exact 1-norm condition, so ``bound - margin`` is a lower
    bound in floating point too.  The stop rule reads the bound without the
    margin.  A singular R, whose ``R^T Y = T`` gives no bound, or a
    non-finite candidate raises NumericalError.
    """
    fnorms = np.linalg.norm(F, axis=0)
    size = F.shape[1]
    value = float(np.max(fnorms * np.linalg.norm(G0, axis=0)))
    lam = np.full(size, 1.0 / size)
    if value <= known * (1.0 + LAWSON_GAP):
        return G0, value, 0.0, 0.0, lam, 0
    _, s, Vt = np.linalg.svd(F, full_matrices=False)
    rank = _rank(s, s[0])
    if rank in (0, size):  # a loop or a coloop: its dual does not matter
        return G0, value, value, 0.0, lam, 0
    V = Vt[:rank].T  # orthonormal basis of the row space of F
    coords = s[:rank, None] * Vt[:rank]  # F in an orthonormal basis of range F
    Ut = (coords / fnorms).T  # row i is u_i
    T = (coords @ G0.T)[::-1]  # T, rows reversed (see the solve below)
    G0V = G0 @ V
    lam = fnorms**-2.0
    lam /= lam.sum()
    best, bound, factor = (G0, value), 0.0, None  # factor: the bound's R
    last_gap = math.inf  # the relative gap of the step before
    before_newton, misses = None, 0
    for step in range(1, LAWSON_MAX_STEPS + 1):
        root = lam**-0.5
        Q, R = np.linalg.qr(Ut * root[:, None])
        if not R.diagonal().all():  # R^T Y = T has no solution: no bound
            raise NumericalError(f"opnorm Lawson step {step}: singular triangular factor")
        # R^T Y = T with the order of the unknowns reversed: an upper
        # triangular system, which LU factors without a row exchange, so
        # np.linalg.solve runs a plain substitution, as LAPACK's dtrtrs.
        Y = np.linalg.solve(R.T[::-1, ::-1], T)[::-1]
        H = (Q @ Y) * root[:, None]  # row i is ||f_i|| g_i
        G = H.T / fnorms
        G -= (G @ V - G0V) @ V.T  # the projection onto the K-duals
        w = fnorms * np.sqrt(np.einsum("ij,ij->j", G, G))
        top = float(w.max())
        if not math.isfinite(top):
            raise NumericalError(f"opnorm Lawson step {step} gave a non-finite iterate")
        weighted = math.sqrt(np.vdot(Y, Y))
        if weighted > bound:
            bound, factor = weighted, R
        if top < best[1]:
            best = (G, top)
        if best[1] <= max(bound, known) * (1.0 + LAWSON_GAP):
            return best[0], best[1], bound, _margin(bound, factor), lam, step
        gap = best[1] / bound - 1.0
        if before_newton is None:  # Lawson's update made this step
            newton = gap <= NEWTON_GAP
        else:  # a Newton step made it: go on while each halves the gap
            newton = gap <= 0.5 * last_gap
            if not newton:  # back to where the Newton step started
                misses += 1
                lam, w = before_newton
        last_gap, before_newton = gap, None
        if newton and misses < 2:
            new = _newton_weights(lam, H, Q)
            if new is not None:
                before_newton, lam = (lam, w), new
                continue
        lam = lam * w**LAWSON_POWER
        np.maximum(lam, LAWSON_FLOOR * lam.max(), out=lam)
        lam /= lam.sum()
    return best[0], best[1], bound, _margin(bound, factor), lam, LAWSON_MAX_STEPS


def _margin(bound: float, factor: np.ndarray | None) -> float:
    """Rounding margin ``rank * eps * bound * cond_1(R)`` of a Lawson bound
    computed with the triangular factor R (rank x rank; None when no step
    raised the bound above 0)."""
    if factor is None:
        return 0.0
    # np.linalg.cond(factor, 1), without its wrapper: the column sums of
    # |R| and of |R^-1|.  R's diagonal is nonzero, so R^-1 exists.
    cond = np.abs(factor).sum(axis=0).max() * np.abs(np.linalg.inv(factor)).sum(axis=0).max()
    if not math.isfinite(cond):
        raise NumericalError(f"opnorm Lawson bound: triangular factor of condition {cond}")
    return factor.shape[0] * np.finfo(float).eps * bound * float(cond)


def _newton_weights(lam: np.ndarray, H: np.ndarray, Q: np.ndarray):
    """Newton step on the weights towards ``||h_i(lam)|| = t`` (t free) on
    an active set, keeping ``sum lam = 1``; None when its system is
    singular or no index stays active.

    ``H`` (row i is h_i) and ``Q`` come from the Lawson step at ``lam``.
    With ``S = U diag(1/lam) U^T``, the derivative of ``||h_i||`` in
    ``lam_j`` is ``<h_i, h_j> (Q Q^T)_ij / (||h_i|| sqrt(lam_i lam_j))``,
    minus ``||h_i|| / lam_i`` on the diagonal.  On the indices whose
    multipliers are positive at the optimum these equations are the KKT
    conditions, so the step converges quadratically where Lawson's update
    is slow.  The active set starts at the weights above NEWTON_ACTIVE of
    the largest; an index the step would drive to zero or below leaves it,
    at the floor, and the step is solved again.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", H, H))
    roots = np.sqrt(lam)
    J = (H @ H.T) * (Q @ Q.T) / np.outer(norms * roots, roots)
    J.flat[:: J.shape[0] + 1] -= norms / lam  # the diagonal
    active = lam > NEWTON_ACTIVE * lam.max()
    while np.any(active):
        idx = np.flatnonzero(active)
        m = idx.size
        A = np.zeros((m + 1, m + 1))
        A[:m, :m] = J[np.ix_(idx, idx)]
        A[:m, m], A[m, :m] = -1.0, 1.0
        try:
            delta = np.linalg.solve(A, np.append(-norms[idx], 0.0))[:m]
        except np.linalg.LinAlgError:
            return None
        step = lam[idx] + delta
        if np.all(step > 0.0):
            new = np.full_like(lam, LAWSON_FLOOR * step.max())
            new[active] = step
            return new / new.sum()
        active[idx[step <= 0.0]] = False
    return None


def _lawson_op_norm(param: DualParameterization) -> _LawsonResult:
    """Op-norm Lawson solve, one matroid component at a time.

    null(F) is the direct sum of the null(F_B) over the components B, the
    target of component B is ``F_B (K^+ F_B)^T`` and the objective is a max
    over indices, so the minimum is the largest component minimum and the
    lower bound the largest component bound.  The singletons, whose dual is
    fixed, run first, then the others in decreasing order of their
    canonical value, each stopping once it is below the bound of those
    before it.  The components are the chart's.  Builds no dof-sized object.
    """
    F, G0 = param.frame.synthesis, param.base.synthesis
    canonical = np.linalg.norm(F, axis=0) * np.linalg.norm(G0, axis=0)
    components = sorted(  # singletons (one dual, exact bound) first
        param.components,
        key=lambda c: (len(c) > 1, -float(np.max(canonical[list(c)]))),
    )
    dual = G0.copy()
    weights = np.empty(F.shape[1])
    value = bound = safe = 0.0
    steps = []
    for component in components:
        idx = list(component)
        G, v, b, m, lam, k = _lawson_component(F[:, idx], G0[:, idx], bound)
        dual[:, idx], weights[idx] = G, lam
        value, bound, safe = max(value, v), max(bound, b), max(safe, b - m)
        steps.append(k)
    return _LawsonResult(dual, value, bound, bound - safe, weights, tuple(steps))


def minimize_measure(
    frame: Frame,
    op: OperatorSpec,
    kind: Measure,
    cfg: SearchConfig = SearchConfig(),
) -> MinimizeResult:
    """Minimize a one-erasure measure over all K-duals of F.

    The spectral result is the closed-form component-mean dual, lifted once
    per chart.  The op-norm Lawson dual is kept when its exact value beats
    the canonical one by more than DEFAULT_TOL of it.  ``trace`` is the
    canonical value, then the solved one if kept.  With dof 0 or a
    canonical value of 0 the canonical dual is optimal (and the
    component-mean dual) and no solver runs.  For the operator norm
    ``comparison`` holds ``fixed_frame_lower_bound``: the Lawson bound less
    a margin from the condition number of its triangular factor (see
    :func:`_lawson_component`), or the value when no solver runs.  A solver
    failure raises NumericalError.  The result is deterministic, reads
    nothing from ``cfg``, and its value is an exact objective value at a
    verified dual.
    """
    return _minimize_measure(dual_parameterization(frame, op), kind)


def _minimize_measure(param: DualParameterization, kind: Measure) -> MinimizeResult:
    """:func:`minimize_measure` on a chart."""
    obj = _Objective(param, kind)
    value = obj.canonical_value
    bound = value  # the op-norm lower bound when no solver runs: exact
    if param.dof == 0 or value == 0.0:
        return MinimizeResult(
            param.base, value, (value,), comparison=_lower_bound(kind, bound)
        )

    trace = [value]
    if kind is Measure.SPECTRAL:  # the module docstring's closed form
        E = param._component_mean_perturbation
    else:
        lawson = _lawson_op_norm(param)
        bound = lawson.bound - lawson.margin
        E = lawson.dual - obj.base
    solved = obj.value(E)
    if kind is Measure.SPECTRAL or (solved < value and not _within(value - solved, value)):
        value = solved
        trace.append(value)
    else:
        E = np.zeros_like(obj.base)
    dual = Frame(obj.base + E)
    if verify_k_dual(param.frame, dual, param.op) is DualKind.NOT_DUAL:
        raise NumericalError("search result fails the K-duality check")
    return MinimizeResult(
        dual, value, tuple(trace), comparison=_lower_bound(kind, bound)
    )


def _lower_bound(kind: Measure, bound: float) -> dict | None:
    """The comparison of an op-norm result: its certified lower bound."""
    return {"fixed_frame_lower_bound": bound} if kind is Measure.OP_NORM else None


def minimize_r2_within_uniform(
    frame: Frame,
    op: OperatorSpec,
    cfg: SearchConfig = SearchConfig(),
) -> MinimizeResult:
    """Best two-erasure spectral radius among duals with constant diagonal.

    The constant-diagonal constraint (every ``<g_i, f_i>`` = trace(K)/N) is
    affine in the chart; infeasibility raises InfeasibleError.  On the
    feasible slice the objective is minimized by seeded multi-start direct
    search (Nelder-Mead).  The result carries a comparison against the pair
    bound when K is PSD.
    """
    return _minimize_r2_within_uniform(dual_parameterization(frame, op), cfg)


def _minimize_r2_within_uniform(
    param: DualParameterization, cfg: SearchConfig
) -> MinimizeResult:
    """:func:`minimize_r2_within_uniform` on a chart."""
    import scipy.optimize

    frame, op = param.frame, param.op
    N = frame.n_vectors
    if N < 2:
        raise ValueError("two-erasure search needs at least 2 vectors")
    F, base = frame.synthesis, param.base.synthesis
    c0 = param.diagonal_coefficients(frame, np.full(N, op.trace / N))
    if c0 is None:
        raise InfeasibleError("no 1-uniform dual exists for this frame")
    _, s, vt = np.linalg.svd(param.diagonal_map.T, full_matrices=True)
    # Relative to ||F||_F >= ||D||, as in the chart's diagonal factor.
    Z = vt[_rank(s, np.linalg.norm(F)) :]  # rows span the feasible directions

    def r2_of(z: np.ndarray) -> float:
        alpha = (base + param.perturbation(c0 + z @ Z)).T @ F
        return _max_pair_radius(alpha, np.diag(alpha))[0]

    q = Z.shape[0]
    best_idx = 0
    if q == 0:
        best_z = np.zeros(0)
        best_val = r2_of(best_z)
        trace = [best_val]
    else:
        scale = max(1.0, float(np.linalg.norm(param.base.synthesis)))
        best_z, best_val = None, np.inf
        trace = []
        for idx in range(cfg.restarts):
            if idx == 0:
                z0 = np.zeros(q)
            else:
                rng = np.random.default_rng([cfg.seed, 7919 + idx])
                z0 = rng.standard_normal(q) * scale
            res = scipy.optimize.minimize(
                r2_of,
                z0,
                method="Nelder-Mead",
                options={
                    "maxiter": 400 * (q + 1),
                    "xatol": 1e-10,
                    "fatol": 1e-12,
                },
            )
            val = r2_of(res.x)
            trace.append(val)
            if val < best_val:
                best_z, best_val, best_idx = res.x, val, idx

    c_best = c0 + best_z @ Z
    dual = reconstruct_dual(param, c_best)
    comparison = None
    if op.psd_flag:
        bounds = pair_bounds(op, N)
        comparison = {
            "pair_r2_min": bounds.r2_min,
            "gap_to_pair_bound": best_val - bounds.r2_min,
        }
    return MinimizeResult(dual, best_val, tuple(trace), best_idx, comparison)


@dataclass(frozen=True)
class GridOracleResult:
    value: float
    coefficients: tuple[float, ...]
    num_minimizers: int  # grid points tied with the minimum


def brute_force_grid_oracle(
    frame: Frame,
    op: OperatorSpec,
    kind: Measure,
    cfg: SearchConfig = SearchConfig(),
) -> GridOracleResult:
    """Exhaustive minimum over a coefficient grid (validation only).

    Enumerates GRID_POINTS_PER_DOF points per axis on [-1, 1] scaled by the
    Frobenius norm of the canonical dual; refuses when dof exceeds
    GRID_DOF_CAP.  Ties resolve to the lexicographically first grid point;
    ``num_minimizers`` counts the points within DEFAULT_TOL of the
    canonical value above the minimum.  ``cfg`` is not read: the grid has
    no budget beyond its constants.
    """
    param = dual_parameterization(frame, op)
    obj = _Objective(param, kind)
    if param.dof > GRID_DOF_CAP:
        raise DofTooLargeError(f"dof {param.dof} exceeds grid cap {GRID_DOF_CAP}")

    scale = float(np.linalg.norm(param.base.synthesis))
    axis = np.linspace(-1.0, 1.0, GRID_POINTS_PER_DOF) * scale
    # P x dof in lexicographic order; one point, the canonical dual, at dof 0.
    points = np.array(list(itertools.product(axis, repeat=param.dof)))
    values = np.max(obj.terms(param.perturbation(points))[0], axis=1)
    arg = int(np.argmin(values))
    vmin = float(values[arg])
    n_min = int(np.count_nonzero(_within(values - vmin, obj.canonical_value)))
    return GridOracleResult(vmin, tuple(points[arg]), n_min)
