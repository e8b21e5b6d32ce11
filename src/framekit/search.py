"""Numerical minimization over the K-dual affine space.

This is the independent oracle validating every closed form: it never looks
at block decompositions, uniformity, or bound formulas.  Both one-erasure
objectives are pointwise maxima of convex functions of the perturbation
coefficients (a norm of an affine map for the operator norm, the absolute
value of an affine functional for the spectral radius), so each is a convex
min-max problem with an exact epigraph form.  :func:`minimize_measure`
solves that epigraph once, from the canonical dual, and keeps its point when
the exact re-evaluated objective improves on the canonical value by more
than DEFAULT_TOL of it, so reported values are always true measure values
of verified duals.  A solver that returns no usable point raises
:class:`~framekit.errors.NumericalError`.

The spectral objective sees a dual only through its diagonal
``d = a0 + D^T c``.  The spectral solve is an epigraph LP on that
diagonal: N + 1 variables, with the reachable diagonals written as equality
rows.  For the operator norm it is an SLSQP solve of the second-order-cone
epigraph on the chart coefficients, with the bound in units of the
canonical value so that it is scale-free.  The per-term gradients
(:meth:`_Objective.gradients`) serve
:func:`framekit.duals.canonical_certificate`, whose exact optimality test
at the canonical dual is a KKT system in them.

``minimize_r2_within_uniform`` restricts the chart to duals with constant
diagonal trace(K)/N (an affine constraint) and minimizes the two-erasure
spectral radius by direct search; that objective is not convex, hence the
restarts actually matter there.

The three scipy solvers (HiGHS ``linprog``, SLSQP and Nelder-Mead) are
imported inside the functions that call them and looked up on the
``scipy.optimize`` module at each call, so importing this module does not
load scipy.
"""

from __future__ import annotations

import itertools
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
from .erasures import Measure, _pair_terms
from .pairs import pair_bounds

# Points per chart axis and largest dof of brute_force_grid_oracle.
GRID_POINTS_PER_DOF = 11
GRID_DOF_CAP = 4


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the numerical searches.

    ``max_iters`` caps the SLSQP iterations of the operator-norm solve of
    :func:`minimize_measure`; the spectral LP has no budget.  ``restarts``
    and ``seed`` drive only the Nelder-Mead starts of
    :func:`minimize_r2_within_uniform`.
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
    """Vectorized one-erasure objectives over the coefficient chart."""

    def __init__(self, param: DualParameterization, kind: Measure):
        self.kind = kind
        self.param = param
        self.fsyn = param.frame.synthesis
        self.fnorms = np.linalg.norm(self.fsyn, axis=0)
        self.base = param.base.synthesis
        self.dof = param.dof
        if kind is Measure.SPECTRAL:  # diag(c) = a0 + D^T c, from the chart
            self.a0, self.D = param.canonical_diagonal, param.diagonal_map

    def dual_syn(self, c: np.ndarray) -> np.ndarray:
        return self.base + self.param.perturbation(c)

    def value(self, c: np.ndarray) -> float:
        return float(np.max(self.terms(c)[0]))

    @cached_property
    def canonical_value(self) -> float:
        """The objective at the canonical dual (c = 0), the scale of the
        keep rule of the search."""
        return self.value(np.zeros(self.dof))

    def terms(self, c: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Per-index terms at c, whose maximum is the objective, and the
        state :meth:`gradients` needs.  A stack of points (..., dof) gives
        terms of shape (..., N)."""
        if self.kind is Measure.SPECTRAL:
            diag = self.a0 + c @ self.D
            return np.abs(diag), (diag,)
        G = self.dual_syn(c)
        gnorms = np.linalg.norm(G, axis=-2)
        return self.fnorms * gnorms, (G, gnorms)

    def gradients(self, state: tuple, indices) -> np.ndarray:
        """Gradients (dof x len(indices)) of the terms at the given indices.

        Spectral: ``sign(<g_i, f_i>) D[:, i]``.  Operator norm:
        ``||f_i||`` times the chart derivative of ``||g_i||``, i.e. of
        ``<g_i, g_i / ||g_i||>``; zero where ``g_i = 0``.
        """
        if self.kind is Measure.SPECTRAL:
            (diag,) = state
            return self.D[:, indices] * np.sign(diag[indices])
        G, gnorms = state
        norms = gnorms[indices]
        U = G[:, indices] / np.where(norms > 0, norms, 1.0)
        return self.fnorms[indices] * self.param.column_jacobian(U, indices)


def _polish_spectral(obj: _Objective) -> np.ndarray:
    """Exact epigraph LP on the diagonal d = a0 + D^T c.

    The objective depends on c only through d, and the reachable diagonals
    are ``a0 + range(D^T)``.  So the LP is min t with ``|d_i| <= t`` and
    ``P d = P a0``, where the rows of P span null(D): N + 1 variables and
    p = N - rank D equality rows (p >= 1, since the all-ones vector lies in
    null(D): ``sum_i D[k, i] = (F W)[a, m] = 0``).  One SVD of D gives P and
    the minimum-norm coefficients of the optimal diagonal.  The canonical
    value ``max |a0|`` must be positive; a failed LP raises NumericalError.
    """
    import scipy.optimize

    dof, N = obj.dof, obj.a0.shape[0]
    top = float(np.max(np.abs(obj.a0)))
    # Vt needs N rows to hold a basis of null(D); the thin SVD keeps only
    # min(dof, N), and the full one costs nothing more when dof < N.
    U, s, Vt = np.linalg.svd(obj.D, full_matrices=dof < N)
    # The rank cut is relative to ||F||_F >= ||D||, not to s[0]: D can be
    # all rounding noise (null(F) spanned by zero vectors of F).
    rank = _rank(s, np.linalg.norm(obj.fsyn))
    P = Vt[rank:]
    # Scaled to unit size, so HiGHS's absolute tolerances act relatively.
    a0 = obj.a0 / top
    cost = np.zeros(N + 1)
    cost[-1] = 1.0
    ones = np.ones((N, 1))
    A_ub = np.block([[np.eye(N), -ones], [-np.eye(N), -ones]])
    A_eq = np.hstack([P, np.zeros((P.shape[0], 1))])
    res = scipy.optimize.linprog(
        cost, A_ub=A_ub, b_ub=np.zeros(2 * N), A_eq=A_eq, b_eq=P @ a0,
        bounds=[(None, None)] * N + [(0, None)], method="highs",
    )
    if not res.success:
        raise NumericalError(f"spectral LP failed: {res.message}")
    shift = top * (res.x[:N] - a0)
    return U[:, :rank] @ ((Vt[:rank] @ shift) / s[:rank])


def _polish_op_norm(obj: _Objective, max_iters: int) -> np.ndarray:
    """Epigraph NLP with squared-norm constraints, from the canonical dual.

    The bound t is posed in units of the canonical value t0, with
    ``t^2 >= (||f_i|| / t0)^2 ||g_i(c)||^2``.  Scaling F and K together
    leaves the duals, the chart and this problem unchanged, so SLSQP's
    absolute ``ftol`` acts relatively.  t0 must be positive; a point that
    is not finite raises NumericalError.
    """
    import scipy.optimize

    t0 = obj.canonical_value
    x0 = np.concatenate([np.zeros(obj.dof), [1.0 + 1e-9]])
    weights = (obj.fnorms / t0) ** 2

    def cons_f(x):
        c, t = x[:-1], x[-1]
        G = obj.dual_syn(c)
        return t * t - weights * np.einsum("ij,ij->j", G, G)

    def cons_jac(x):
        c, t = x[:-1], x[-1]
        G = obj.dual_syn(c)
        jac = np.zeros((G.shape[1], x.size))
        jac[:, :-1] = -2.0 * (weights[None, :] * obj.param.column_jacobian(G)).T
        jac[:, -1] = 2.0 * t
        return jac

    res = scipy.optimize.minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: np.eye(x0.size)[-1],
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        bounds=[(None, None)] * obj.dof + [(0.0, None)],
        method="SLSQP",
        options={"maxiter": max_iters, "ftol": 1e-12},
    )
    # SLSQP can report failure (e.g. status 8, a line search that stalls)
    # at a point better than the canonical dual; minimize_measure keeps a
    # point only when its exact objective improves, so any finite point is
    # worth returning.
    if not np.all(np.isfinite(res.x)):
        raise NumericalError(f"opnorm SLSQP gave no finite point: {res.message}")
    return res.x[:-1]


def minimize_measure(
    frame: Frame,
    op: OperatorSpec,
    kind: Measure,
    cfg: SearchConfig = SearchConfig(),
) -> MinimizeResult:
    """Minimize a one-erasure measure over all K-duals of F.

    The exact epigraph solve of the measure runs once from the canonical
    dual (c = 0), and its point is kept when its exact value beats the
    canonical one by more than DEFAULT_TOL of it; ``trace`` is the
    canonical value, followed by the solved one if kept.  With no chart
    (dof 0) or a canonical value of 0 the canonical dual is optimal and no
    solver runs.  A solver failure raises NumericalError.  The result is
    deterministic, reads only ``cfg.max_iters``, and its value is always an
    exact objective value at a verified dual.
    """
    param = dual_parameterization(frame, op)
    obj = _Objective(param, kind)
    value = obj.canonical_value
    if param.dof == 0 or value == 0.0:
        return MinimizeResult(param.base, value, (value,))

    if kind is Measure.SPECTRAL:
        c = _polish_spectral(obj)
    else:
        c = _polish_op_norm(obj, cfg.max_iters)
    trace = [value]
    c_value = obj.value(c)
    if c_value < value and not _within(value - c_value, value):
        value = c_value
        trace.append(value)
    else:
        c = np.zeros(param.dof)
    dual = reconstruct_dual(param, c)
    if verify_k_dual(frame, dual, op) is DualKind.NOT_DUAL:
        raise NumericalError("search result fails the K-duality check")
    return MinimizeResult(dual, value, tuple(trace))


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
    import scipy.optimize

    N = frame.n_vectors
    if N < 2:
        raise ValueError("two-erasure search needs at least 2 vectors")
    param = dual_parameterization(frame, op)
    obj = _Objective(param, Measure.SPECTRAL)
    c0 = param.diagonal_coefficients(frame, np.full(N, op.trace / N))
    if c0 is None:
        raise InfeasibleError("no 1-uniform dual exists for this frame")
    _, s, vt = np.linalg.svd(obj.D.T, full_matrices=True)
    # Relative to ||F||_F >= ||D||, as in the spectral polish.
    Z = vt[_rank(s, np.linalg.norm(obj.fsyn)) :]  # rows span the feasible directions

    def r2_of(z: np.ndarray) -> float:
        c = c0 + z @ Z
        alpha = obj.dual_syn(c).T @ obj.fsyn
        _, _, radii = _pair_terms(alpha)
        return float(np.max(radii))

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
    values = np.max(obj.terms(points)[0], axis=1)
    arg = int(np.argmin(values))
    vmin = float(values[arg])
    n_min = int(np.count_nonzero(_within(values - vmin, obj.canonical_value)))
    return GridOracleResult(vmin, tuple(points[arg]), n_min)
