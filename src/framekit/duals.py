"""Optimal K-duals of a fixed Parseval K-frame.

The one-erasure optimization over all K-duals of a fixed F is controlled by
the per-index weights of the canonical dual:

* operator norm:   ``w_i = ||f_i|| ||K^+ f_i||``
* spectral radius: ``w_i = <K^+ f_i, f_i>``

The argmax ("top") index set and its span, versus the complementary span,
decide whether the canonical dual is optimal, uniquely optimal, or sits in
an uncountable family of optimal duals:

* If the top and rest spans intersect trivially, the admissible-perturbation
  constraint restricts to the top set alone and a zero-trace argument shows
  no competing dual can lower the top weights, so the canonical dual is
  optimal.
* Given optimality, the optimal set is the canonical dual plus every
  admissible perturbation that preserves the top weights.  For the operator
  norm that means perturbations vanishing on the top indices; for the
  spectral radius only the diagonal inner products on top must be preserved.
  The certificate reports UniqueOptimal when that space is zero and an
  uncountable family (with an explicit direction and safety radius) when it
  is not.
* Otherwise the certificate decides exactly.  Both measures are maxima of
  convex terms on the dual chart, so the canonical dual is optimal iff 0
  lies in the convex hull of the top terms' gradients there (Boyd and
  Vandenberghe, *Convex Optimization*, 5.5).  One NNLS solve of the
  least-distance problem returns either the multipliers of that convex
  combination or an exact descent direction with a verified step.

Separately, the spectral-radius minimum over all K-duals is closed-form:
``F diag(lam) W = 0`` holds exactly when lam is constant on each component
of the vector matroid of F, so every K-dual has the same component sums of
its diagonal and any diagonal with those sums is attained.  The minimum is
the largest absolute component mean of ``<K^+ f_i, f_i>``
(:func:`construct_spectrally_optimal_dual` attains it); for orthogonal
K-invariant blocks it is the block ratio ``max_j delta_j`` of Pehlivan,
Han and Mohapatra (J. Funct. Anal., 2013).
Linear connectivity of i and j holds exactly when they lie in a common
circuit of the vector matroid of F (Oxley, *Matroid Theory*, ch. 4).

Every fixed-frame answer here reads one K-dual chart
(:class:`~framekit.frames.DualParameterization`): its matroid components,
decided once, and for the spectral answers its diagonal factor, which
certifies those components against the chart's diagonal map or raises
NumericalError, and the component-mean diagonal and its lift, computed once
and shared with the spectral search.  The KKT test and the optimal family
work on n x N perturbations E with ``E V = 0`` (V the chart's row basis).
The public ``(frame, op)`` functions build the chart and call a private
function that takes it, so a caller holding a chart (the CLI) builds it
once.

The least-distance problem of the KKT test is solved by a Lawson-Hanson
NNLS written here (:func:`_nnls`), whose least-squares steps on two or
more columns run numpy's QR (:func:`_least_squares`): no certificate loads
scipy.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DependentInputError,
    HypothesesNotMetError,
    NoConnectedPairAvailableError,
    NotPSDError,
    NotTwoUniformError,
    NumericalError,
)
from .frames import (
    DEFAULT_TOL,
    RANK_TOL,
    DualParameterization,
    DualSystem,
    Frame,
    OperatorSpec,
    _CanonicalDual,
    _components,
    _diagonal_scale,
    _matroid_components,
    _project,
    _rank,
    _system_scale,
    _within,
    build_dual_system,
    canonical_k_dual,
    dual_parameterization,
)
from .erasures import Measure, _pair_products, uniformity
from .search import _Objective

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# weight partitions and span tests


@dataclass(frozen=True, eq=False)
class WeightPartition:
    """Canonical-dual weights split into the argmax set and the rest.

    The orthonormal bases of the two spans are built on first read: only
    :func:`spans_intersect_trivially` needs them.
    """

    measure_kind: Measure
    weights: np.ndarray
    top_value: float
    top: tuple[int, ...]
    rest: tuple[int, ...]
    synthesis: np.ndarray  # n x N, the frame's

    @cached_property
    def span_top(self) -> np.ndarray:
        """n x k orthonormal basis of the span of the top vectors."""
        return _orthonormal_span(self.synthesis[:, list(self.top)])

    @cached_property
    def span_rest(self) -> np.ndarray:
        """Orthonormal basis of the span of the other vectors."""
        return _orthonormal_span(self.synthesis[:, list(self.rest)])


def _orthonormal_span(columns: np.ndarray) -> np.ndarray:
    if columns.shape[1] == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, : _rank(s, s[0] if s.size else 0.0)]  # empty when s[0] == 0


def weight_partition(
    frame: Frame, op: OperatorSpec, kind: Measure
) -> WeightPartition:
    """Per-index canonical-dual weights with argmax set and span bases.

    Index i is top when ``top_value - w_i`` is within DEFAULT_TOL at the
    diagonal scale of the canonical dual (``frames._diagonal_scale``), so
    scaling F and K together keeps the partition.
    """
    canon = _CanonicalDual(frame, op, canonical_k_dual(frame, op))
    return _weight_partition(canon, kind)


def _weight_partition(canon: _CanonicalDual, kind: Measure) -> WeightPartition:
    """:func:`weight_partition` of a validated canonical dual or chart."""
    if kind is Measure.SPECTRAL and not canon.op.psd_flag:
        raise NotPSDError("spectral weights require a PSD operator")
    syn, dual_syn = canon.frame.synthesis, canon.base.synthesis
    if kind is Measure.OP_NORM:
        weights = np.linalg.norm(syn, axis=0) * np.linalg.norm(dual_syn, axis=0)
    else:
        weights = canon.canonical_diagonal
    top_value = float(np.max(weights))
    scale = _diagonal_scale(syn, dual_syn, canon.op.trace / canon.frame.n_vectors)
    top = tuple(int(i) for i in np.flatnonzero(_within(top_value - weights, scale)))
    rest = tuple(i for i in range(canon.frame.n_vectors) if i not in top)
    return WeightPartition(
        measure_kind=kind,
        weights=weights,
        top_value=top_value,
        top=top,
        rest=rest,
        synthesis=syn,
    )


def spans_intersect_trivially(part: WeightPartition) -> bool:
    """True iff span(top vectors) and span(rest vectors) meet only in 0."""
    k1 = part.span_top.shape[1]
    k2 = part.span_rest.shape[1]
    if k1 == 0 or k2 == 0:
        return True
    stacked = np.hstack([part.span_top, part.span_rest])
    s = np.linalg.svd(stacked, compute_uv=False)
    return _rank(s, s[0]) == k1 + k2


# ---------------------------------------------------------------------------
# linear-connectivity machinery


def solve_equal_inner_products(vectors, alpha: float):
    """Minimum-norm h with ``<f_i, h> = alpha`` for an independent family.

    NumericalError when the residual is not small at the scale ``|alpha|``.
    """
    rows = np.asarray([np.asarray(v, dtype=float) for v in vectors])
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a nonempty family of vectors")
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or _rank(s, s[0]) < s.size:
        raise DependentInputError("input vectors are linearly dependent")
    target = np.full(rows.shape[0], float(alpha))
    h, *_ = np.linalg.lstsq(rows, target, rcond=None)
    residual = np.max(np.abs(rows @ h - target))
    if not _within(residual, abs(alpha)):
        raise NumericalError(f"inner-product solve residual {residual:.2e}")
    return h


@dataclass(frozen=True, eq=False)
class ConnectionWitness:
    """Representation ``f_i = c f_j + sum_k coeff_k f_support[k]``."""

    c: float
    support: tuple[int, ...]
    coefficients: np.ndarray


def is_linearly_connected_pair(
    frame: Frame, i: int, j: int
) -> tuple[bool, ConnectionWitness | None]:
    """Decide whether f_i can be written over f_j plus an independent subset.

    True exactly when i and j lie in one matroid component.  The witness
    comes from support reduction: starting from that component, every other
    index, highest first, is dropped when i and j stay in one component
    without it.  What remains is a circuit through i and j, and the
    coefficients of f_i over it are all nonzero: the residual is small at
    the scale ``||f_i||`` and no coefficient, a ratio, is small at scale 1.
    """
    N = frame.n_vectors
    if i == j:
        raise ValueError("indices must differ")
    if not (0 <= i < N and 0 <= j < N):
        raise IndexError(f"indices ({i}, {j}) out of range for N={N}")
    syn = frame.synthesis

    def joined(keep: list[int]) -> bool:
        ends = {keep.index(i), keep.index(j)}
        return any(ends <= set(c) for c in _matroid_components(syn[:, keep]))

    component = next(c for c in _matroid_components(syn) if i in c)
    if j not in component:
        return False, None
    keep = list(component)
    for l in reversed(component):
        trial = [k for k in keep if k != l]
        if l not in (i, j) and joined(trial):
            keep = trial
    support = [k for k in keep if k not in (i, j)]
    cols = syn[:, [j, *support]]
    coeffs, *_ = np.linalg.lstsq(cols, syn[:, i], rcond=None)
    residual = np.linalg.norm(cols @ coeffs - syn[:, i])
    if not _within(residual, np.linalg.norm(syn[:, i])) or np.any(_within(coeffs, 1.0)):
        raise NumericalError(f"support reduction left no circuit through {i}, {j}")
    return True, ConnectionWitness(float(coeffs[0]), tuple(support), coeffs[1:].copy())


@dataclass(frozen=True, eq=False)
class ConnectedDecomposition:
    """Partition into blocks spanning mutually orthogonal subspaces."""

    blocks: tuple[tuple[int, ...], ...]
    bases: tuple[np.ndarray, ...]  # orthonormal basis of each H_j
    k_invariant: tuple[bool, ...]
    deltas: tuple[float, ...]  # trace(K restricted to H_j) / |block j|
    connectivity_verified: tuple[bool, ...]  # block j is one matroid component


def connected_decomposition(frame: Frame, op: OperatorSpec) -> ConnectedDecomposition:
    """Orthogonality-closure blocks with per-block invariance and ratios.

    Blocks are connected components of the graph joining i and j when
    ``<f_i, f_j>`` is not small at the scale ``||f_i|| ||f_j||``; block j
    is K-invariant when ``||K P - P K P||`` is small at the scale ``||K||``,
    P projecting onto H_j, so scaling F and K keeps both.
    ``connectivity_verified[j]`` reports, without rejecting, whether block j
    is one matroid component.
    """
    return _connected_decomposition(frame, op, _matroid_components(frame.synthesis))


def _connected_decomposition(
    frame: Frame, op: OperatorSpec, matroid: tuple[tuple[int, ...], ...]
) -> ConnectedDecomposition:
    """:func:`connected_decomposition`, given the matroid components of F."""
    syn = frame.synthesis
    norms = np.linalg.norm(syn, axis=0)
    blocks = _components(~_within(syn.T @ syn, np.outer(norms, norms)))

    K = op.matrix
    k_scale = float(np.linalg.norm(K))
    bases = []
    invariant = []
    deltas = []
    for block in blocks:
        Q = _orthonormal_span(syn[:, list(block)])
        bases.append(Q)
        P = Q @ Q.T
        invariant.append(bool(_within(np.linalg.norm(K @ P - P @ K @ P), k_scale)))
        deltas.append(float(np.trace(Q.T @ K @ Q)) / len(block))
    return ConnectedDecomposition(
        blocks=blocks,
        bases=tuple(bases),
        k_invariant=tuple(invariant),
        deltas=tuple(deltas),
        connectivity_verified=tuple(block in matroid for block in blocks),
    )


def min_r1_fixed_frame(frame: Frame, op: OperatorSpec) -> float:
    """Minimum one-erasure spectral radius over all K-duals of F.

    Equals ``max_B |sum_{i in B} <K^+ f_i, f_i>| / |B|`` over the matroid
    components B of F, for any Parseval K-frame; NotParsevalError
    otherwise.  For orthogonal K-invariant blocks this is ``max_j
    delta_j``.  NumericalError when the components cannot be certified
    against the chart's diagonal map (see
    :attr:`~framekit.frames.DualParameterization._diagonal_factor`).
    """
    return _min_r1(dual_parameterization(frame, op))


def _min_r1(param: DualParameterization) -> float:
    """:func:`min_r1_fixed_frame` on a chart."""
    return float(np.max(np.abs(param._component_means)))


# ---------------------------------------------------------------------------
# spectrally optimal duals


def _diag_inner(frame: Frame, dual: Frame) -> np.ndarray:
    return np.einsum("ij,ij->j", dual.synthesis, frame.synthesis)


def improve_dual_step(frame: Frame, dual: Frame, op: OperatorSpec) -> Frame:
    """One correction step driving another diagonal to trace(K)/N.

    Picks the first linearly connected pair (i1, i2) of unfinished indices
    and adds the admissible correction that sets ``<g_i2, f_i2>`` to the
    target while leaving every finished diagonal untouched.  Returns the
    dual unchanged when all diagonals are already on target.  A diagonal is
    on target within DEFAULT_TOL at the diagonal scale, the larger of
    ``|trace(K)/N|`` and ``max ||g_i|| ||f_i||``, so scaling F and K keeps
    the verdict.
    """
    N = frame.n_vectors
    target = op.trace / N
    diag = _diag_inner(frame, dual)
    scale = _diagonal_scale(frame.synthesis, dual.synthesis, target)
    done = _within(diag - target, scale)
    pending = [int(i) for i in np.flatnonzero(~done)]
    if not pending:
        return dual
    if len(pending) == 1:
        raise NumericalError(
            "exactly one off-target diagonal contradicts the trace identity"
        )
    syn = frame.synthesis
    component = {k: c for c in _matroid_components(syn) for k in c}
    pairs = [(a, b) for a in pending for b in component[a] if b != a and b in pending]
    if not pairs:
        raise NoConnectedPairAvailableError(
            f"no linearly connected pair among unfinished indices {pending}"
        )
    i1, i2 = pairs[0]
    _, witness = is_linearly_connected_pair(frame, i1, i2)
    cols = [i2, *witness.support]
    rhs = np.zeros(len(cols))
    rhs[0] = (target - diag[i2]) / witness.c
    v, *_ = np.linalg.lstsq(syn[:, cols].T, rhs, rcond=None)
    weights = np.zeros(N)
    weights[[i1, *cols]] = [-1.0, witness.c, *witness.coefficients]
    return Frame(dual.synthesis + np.outer(v, weights))


def construct_spectrally_optimal_dual(frame: Frame, op: OperatorSpec) -> Frame:
    """K-dual whose diagonal ``<g_i, f_i>`` is the mean of the canonical
    diagonal over the matroid component of i; it attains
    :func:`min_r1_fixed_frame`.

    One chart lift gives the K-dual closest to the canonical dual among
    those with this diagonal; it is unique, so it follows any reordering of
    the frame.  The chart caches it, and the spectral search returns the
    same dual.
    NotParsevalError when F is not a Parseval K-frame.  The diagonal always
    lies in the range of the chart's diagonal map, so a missed lift raises
    NumericalError, as do components the chart cannot certify.
    """
    return _construct_spectral(dual_parameterization(frame, op))


def _construct_spectral(param: DualParameterization) -> Frame:
    """:func:`construct_spectrally_optimal_dual` on a chart."""
    return Frame(param.base.synthesis + param._component_mean_perturbation)


# ---------------------------------------------------------------------------
# optimal-family directions and certificates


@dataclass(frozen=True, eq=False)
class PerturbationFamily:
    """Directions along which the canonical dual stays optimal.

    ``dimension`` is the dimension of the direction space, n x N admissible
    perturbations (0 when there is none).  ``direction`` is the unit
    projection onto it of the frame's own axis ``g_j e_j^T / ||g_j||`` that
    projects longest, so it follows a reordering or a transport of the
    frame (see :func:`_family`).  ``radius`` is the largest symmetric
    interval of step sizes along it keeping every rest weight strictly below
    the top value (infinite when nothing constrains it).  ``basis`` stacks
    an orthonormal basis of the space, with ``basis[0] == direction``; it
    needs a dense factorization of size nN, so it is built on first access.
    """

    direction: np.ndarray | None
    radius: float
    dimension: int
    _build_basis: Callable[[], np.ndarray] = field(repr=False)

    @property
    def exists(self) -> bool:
        return self.dimension > 0

    @cached_property
    def basis(self) -> np.ndarray:
        return self._build_basis()


def _family_radius(
    canon: _CanonicalDual, direction: np.ndarray, part: WeightPartition, kind: Measure
) -> float:
    """Largest delta with all rest weights < top value for |t| < delta.

    Rounding noise of an exact zero bounds nothing (read as a bound it gives
    a radius near 1e16): a rest column u_i of the unit direction with
    ``||u_i|| <= RANK_TOL``, and a spectral slope below ``RANK_TOL ||u_i||
    ||f_i||``.
    """
    L = part.top_value
    rest = list(part.rest)
    f = canon.frame.synthesis[:, rest]
    v = canon.base.synthesis[:, rest]
    u = direction[:, rest]
    un, fn = np.linalg.norm(u, axis=0), np.linalg.norm(f, axis=0)
    if kind is Measure.OP_NORM:
        # ||g_i(t)||^2 = a t^2 + 2 b t + ||v||^2 meets (L / ||f_i||)^2 at the
        # roots t of a t^2 + 2 b t + d; it stays put where f_i = 0.
        moving = (un > RANK_TOL) & (fn > 0.0)
        fn, u, v = fn[moving], u[:, moving], v[:, moving]
        a = np.einsum("ij,ij->j", u, u)
        b = np.einsum("ij,ij->j", v, u)
        d = np.einsum("ij,ij->j", v, v) - (L / fn) ** 2
        disc = np.sqrt(np.maximum(b * b - a * d, 0.0))
        bounds = np.minimum(np.abs(-b + disc), np.abs(-b - disc)) / a
    else:
        slopes = np.einsum("ij,ij->j", u, f)
        moving = (un > RANK_TOL) & (np.abs(slopes) > RANK_TOL * un * fn)
        a0 = canon.canonical_diagonal[rest][moving]
        bounds = (L - np.abs(a0)) / np.abs(slopes[moving])
    return float(np.min(bounds, initial=math.inf))


def _first_longest(lengths: np.ndarray) -> int:
    """First index within DEFAULT_TOL of the largest (ties go by index)."""
    return int(np.argmax(_within(np.max(lengths) - lengths, 1.0)))


def _family(
    param: DualParameterization, part: WeightPartition, kind: Measure
) -> PerturbationFamily:
    """The family from a factorization of the top constraints alone.

    With V the chart's row basis and ``P = I - V V^T`` (never formed), the
    admissible perturbations are the ``X P``.  Operator norm: ``E e_i = 0``
    on the top set; R, the right singular vectors of ``P[top, :]`` above
    RANK_TOL (its singular values are those of the top rows of a basis of
    null(F)), spans the constrained rows, so the family is ``X (P - R
    R^T)``, of dimension ``n (N - rank F - rank R)``.  Spectral: ``<E e_i,
    f_i> = 0`` on the top set; Q, an orthonormal basis of the span of the
    ``f_i (P e_i)^T`` cut at RANK_TOL ``||F||_F``, leaves the admissible E
    orthogonal to range(Q), of dimension ``dof - rank Q``.

    With Pi the projector onto the family, the direction is ``Pi A_j /
    ||Pi A_j||`` for the first j maximizing ``||Pi A_j||^2`` over the axes
    ``A_j = g_j e_j^T / ||g_j||``, ``g_j = K^+ f_j != 0``.  Axes and Pi
    move with a reordering or a transport ``F -> U F``, ``K -> U K U^T``,
    and no basis of null(F) enters.  When that maximum is within
    DEFAULT_TOL of 0, the longest standard axis ``e_a e_j^T``, first in (j,
    a) order, stands in.
    """
    F, G0 = param.frame.synthesis, param.base.synthesis
    n, N = F.shape
    V = param.row_basis
    top = list(part.top)
    free = 1.0 - np.einsum("ij,ij->i", V, V)  # P_jj
    gnorms = np.linalg.norm(G0, axis=0)
    axes = np.flatnonzero(gnorms > 0.0)
    G = G0[:, axes] / gnorms[axes]  # the unit g_j of the axes A_j
    cols = -(V @ V[top].T)  # P[:, top]
    cols[top, np.arange(len(top))] += 1.0
    if kind is Measure.OP_NORM:
        _, s, vt = np.linalg.svd(cols.T, full_matrices=False)
        # ||P[top, :]|| <= 1, so the cut is absolute.
        R = vt[: _rank(s, 1.0)].T
        dimension = n * (N - V.shape[1] - R.shape[1])
        free -= np.einsum("ij,ij->i", R, R)  # ||Pi A_j||^2 for every unit column
        lengths, standard = free[axes], np.tile(free, (n, 1))

        def project(A):
            return _project(A, V) - (A @ R) @ R.T

        def constraints():  # n N x n rank R: built only for the basis
            return np.kron(np.eye(n), R)
    else:
        D_T = (F[:, top][:, None, :] * cols[None, :, :]).reshape(n * N, len(top))
        U, s, _ = np.linalg.svd(D_T, full_matrices=False)
        # Relative to ||F||_F >= ||D_T||: D_T can be all rounding noise.
        Q = U[:, : _rank(s, np.linalg.norm(F))]
        dimension = param.dof - Q.shape[1]
        Qs = Q.T.reshape(-1, n, N)  # Q_l as n x N matrices, each admissible
        inner = np.einsum("laj,aj->lj", Qs[:, :, axes], G)  # <Q_l, A_j>
        lengths = free[axes] - np.einsum("lj,lj->j", inner, inner)
        standard = free - np.einsum("laj,laj->aj", Qs, Qs)  # [a, j]: e_a e_j^T

        def project(A):
            X = _project(A, V)
            return X - (Q @ (Q.T @ X.ravel())).reshape(n, N)

        def constraints():
            return Q

    if not dimension:
        return PerturbationFamily(None, 0.0, 0, lambda: np.zeros((0, n, N)))
    A = np.zeros((n, N))
    if axes.size and not _within(np.max(lengths), 1.0):
        k = _first_longest(lengths)
        A[:, axes[k]] = G[:, k]
    else:  # every A_j projects to about 0: the first longest e_a e_j^T
        j, a = divmod(_first_longest(standard.T.ravel()), n)
        A[a, j] = 1.0
    direction = project(A)
    direction /= np.linalg.norm(direction)

    def build_basis():
        # The columns of [direction, I_n (x) V, constraints] are orthonormal
        # and all but the first span the family's complement, so the other
        # left singular vectors complete the direction to a family basis.
        known = np.column_stack([direction.ravel(), np.kron(np.eye(n), V), constraints()])
        rest = np.linalg.svd(known)[0][:, known.shape[1] :]
        return np.concatenate([direction[None], rest.T.reshape(-1, n, N)])

    return PerturbationFamily(
        direction=direction,
        radius=_family_radius(param, direction, part, kind),
        dimension=dimension,
        _build_basis=build_basis,
    )


def perturbation_family(
    frame: Frame, op: OperatorSpec, kind: Measure
) -> PerturbationFamily:
    """Optimality-preserving perturbation directions of the canonical dual.

    Operator norm: admissible perturbations supported off the top set (the
    top vectors are untouched, so their weights stay pinned at the maximum).
    Spectral radius: admissible perturbations whose top diagonal inner
    products vanish (the top diagonals stay pinned).  Either way rest
    weights stay strictly below the top value for steps inside ``radius``,
    so the measure is constant on the whole interval.  ``dimension``,
    ``direction`` (the projected axis ``g_j e_j^T / ||g_j||`` that projects
    longest) and ``radius`` come from a thin factorization of the top
    constraints; ``basis`` is built only when read.
    """
    param = dual_parameterization(frame, op)
    return _family(param, _weight_partition(param, kind), kind)


class Verdict(enum.Enum):
    OPTIMAL_UNCOUNTABLE_FAMILY = "optimal_uncountable_family"
    UNIQUE_OPTIMAL = "unique_optimal"
    OPTIMAL_KKT = "optimal_kkt"
    NOT_OPTIMAL = "not_optimal"


@dataclass(frozen=True, eq=False)
class OptimalityCertificate:
    verdict: Verdict
    evidence: dict


def _least_squares(Ab: np.ndarray) -> np.ndarray:
    """``argmin ||A x - b||`` for ``Ab = [A | b]``, A of full column rank k.

    The triangular factor of a QR of ``[A | b]`` is ``[[R, Q^T b], [0,
    rho]]``, so one factorization gives both sides of ``R x = Q^T b``, and
    Q, m x k, is never formed (LAPACK's dgels applies it the same way).  LU
    factors the upper triangular R without a row exchange, so
    ``np.linalg.solve`` runs a plain back substitution.  A singular R, or a
    point that is not finite, raises NumericalError.
    """
    k = Ab.shape[1] - 1
    R = np.linalg.qr(Ab, mode="r")
    try:
        x = np.linalg.solve(R[:k, :k], R[:k, k])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"KKT NNLS least-squares step: {exc}") from exc
    if not np.isfinite(x).all():
        raise NumericalError("KKT NNLS least-squares step is not finite")
    return x


def _nnls(E: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``min ||E u - e||`` over ``u >= 0``: the point u and its residual
    ``E u - e``, by Lawson and Hanson's active-set NNLS (ch. 23).

    Each outer step moves the column with the most negative gradient
    ``(E^T r)_j`` into the passive set, provided its angle to the residual
    clears rounding (cosine above ``tol = 10 eps max(m, k)``, which keeps
    the passive columns independent) and its coefficient in the new
    least-squares point is positive; otherwise the
    next column is tried.  A point with a coefficient <= 0 is stepped back
    to the boundary and the zeros leave the set.  The run stops when no
    column qualifies or the residual is at rounding level, ``tol (||e|| +
    sum_j u_j ||E_j||)``.  The residual and the gradient are formed from
    E's columns.  A least-squares step on one column is a ratio of dot
    products, and on more :func:`_least_squares`, a QR of those columns,
    never their Gram (nor ``np.linalg.lstsq``, whose singular-value cutoff
    leaves residuals far above rounding on near-parallel columns).  Past
    3 k least-squares steps, or on a singular triangular factor,
    NumericalError.
    """
    m, k = E.shape
    Ee = np.column_stack([E, e])  # [E | e]: each step factors its columns of E with e
    tol = 10.0 * _EPS * max(m, k)
    squares = np.einsum("ij,ij->j", E, E)
    norms = np.sqrt(squares)
    floor = tol * math.sqrt(e @ e)
    u = np.zeros(k)
    passive: list[int] = []  # u > 0 exactly there
    r = -e
    steps = 0

    def solve(idx: list[int]) -> np.ndarray:
        nonlocal steps
        steps += 1
        if steps > 3 * k:
            raise NumericalError(f"KKT NNLS: no solution within {3 * k} steps")
        if len(idx) < 2:
            return np.array([E[:, j] @ e / squares[j] for j in idx])
        return _least_squares(Ee[:, [*idx, k]])

    while True:
        rnorm = math.sqrt(r @ r)
        if rnorm <= floor + tol * (u @ norms):
            return u, r
        w = E.T @ r  # minus the dual vector E^T (e - E u)
        w[passive] = np.inf
        while True:
            j = int(w.argmin())
            if not -w[j] > tol * norms[j] * rnorm:
                return u, r
            idx = [*passive, j]
            z = solve(idx)
            if z[-1] > 0.0:
                break
            w[j] = np.inf
        while idx and z.min() <= 0.0:  # back to the boundary of u >= 0
            uP = u[idx]
            neg = z <= 0.0
            ratio = uP[neg] / (uP[neg] - z[neg])  # u > 0 >= z there
            alpha = ratio.min()
            uP += alpha * (z - uP)
            uP[np.flatnonzero(neg)[ratio == alpha]] = 0.0
            np.maximum(uP, 0.0, out=uP)
            u[idx] = uP
            idx = [i for i, x in zip(idx, uP.tolist()) if x > 0.0]
            z = solve(idx)
        passive = idx
        u = np.zeros(k)
        u[idx] = z
        r = E @ u - e


def _kkt_certificate(
    param: DualParameterization, part: WeightPartition, kind: Measure
) -> OptimalityCertificate:
    """Exact first-order optimality test at the canonical dual (E = 0).

    The measure is the maximum of convex terms of the admissible
    perturbation E, so its subdifferential at E = 0 is the convex hull of
    the top terms' gradients S (nN-long columns).  The least-distance
    problem ``min ||d||`` subject to ``S^T d <= -1`` (S scaled by its
    longest column) is one NNLS solve of ``[-S; 1^T] u = e`` (Lawson and
    Hanson, ch. 23).  A zero residual means ``S u = 0`` with ``u >= 0``
    summing to 1: the multipliers of ``0 in conv(S)``.  Otherwise ``d =
    -r[:-1] / r[-1]`` (an n x N matrix) is a descent direction, and halving
    from where the linear model reaches 0 finds an Armijo step.
    """
    obj = _Objective(param, kind)
    top = list(part.top)
    _, state = obj.terms(np.zeros_like(obj.base))
    S = obj.gradients(state, top)
    scale = float(np.max(np.linalg.norm(S, axis=0)))
    E = np.vstack([-S / scale if scale > 0 else S, np.ones(len(top))])
    e = np.zeros(E.shape[0])
    e[-1] = 1.0
    u, r = _nnls(E, e)
    if math.sqrt(r @ r) <= RANK_TOL:
        multipliers = np.zeros(param.frame.n_vectors)
        multipliers[top] = u / u.sum()
        return OptimalityCertificate(
            Verdict.OPTIMAL_KKT, {"hypothesis": "kkt", "multipliers": multipliers}
        )
    d = -r[:-1] / r[-1]
    slope = float(np.max(d @ S))
    direction = d.reshape(obj.base.shape)
    canonical_value = part.top_value
    step = canonical_value / -slope
    for _ in range(60):
        improved = obj.value(step * direction)
        if improved <= canonical_value + 0.5 * step * slope:
            return OptimalityCertificate(
                Verdict.NOT_OPTIMAL,
                {
                    "direction": direction,
                    "slope": slope,
                    "step": step,
                    "improved_value": improved,
                    "canonical_value": canonical_value,
                },
            )
        step /= 2.0
    raise NumericalError("no Armijo step along the KKT descent direction")


def canonical_certificate(
    frame: Frame, op: OperatorSpec, kind: Measure
) -> OptimalityCertificate:
    """Decide optimality status of the canonical K-dual under one measure.

    Cascade (the first rung that applies answers):

    1. no admissible perturbations at all -> UNIQUE_OPTIMAL, evidence
       ``hypothesis`` and ``dof``;
    2. trivially intersecting top and rest spans (the paper's sufficient
       condition) -> UNIQUE_OPTIMAL when no admissible direction preserves
       the top weights (operator norm: rest vectors independent; spectral:
       no direction keeps the top diagonals), evidence ``hypothesis`` and
       ``uniqueness_reason``; otherwise OPTIMAL_UNCOUNTABLE_FAMILY, evidence
       ``hypothesis``, ``direction``, ``radius`` and ``family_dim``;
    3. the exact KKT test at c = 0 -> OPTIMAL_KKT, evidence ``hypothesis``
       and ``multipliers`` (length N, zero off the top set, summing to 1);
       or NOT_OPTIMAL, evidence ``direction`` (an n x N admissible
       perturbation), ``slope`` (the measure's directional derivative along
       it), ``step``, ``improved_value`` (the exact measure of
       ``canonical + step * direction``) and ``canonical_value``.
    """
    return _canonical_certificate(dual_parameterization(frame, op), kind)[0]


def _certificate_and_family(
    param: DualParameterization, kind: Measure
) -> tuple[OptimalityCertificate, PerturbationFamily]:
    """:func:`canonical_certificate` and :func:`perturbation_family` on a
    chart, from one weight partition and one family: the certificate's, or
    built after it where the certificate needed none."""
    cert, part, family = _canonical_certificate(param, kind)
    if family is None:
        family = _family(param, _weight_partition(param, kind) if part is None else part, kind)
    return cert, family


def _canonical_certificate(
    param: DualParameterization, kind: Measure
) -> tuple[OptimalityCertificate, WeightPartition | None, PerturbationFamily | None]:
    """:func:`canonical_certificate` on a chart, with the weight partition
    and the family it built on the way (None where its rung needed none)."""
    if not param.op.psd_flag:
        raise NotPSDError("certificate requires a PSD operator")
    if param.dof == 0:
        return OptimalityCertificate(
            Verdict.UNIQUE_OPTIMAL,
            {"hypothesis": "no_admissible_perturbations", "dof": 0},
        ), None, None

    part = _weight_partition(param, kind)
    if not spans_intersect_trivially(part):
        return _kkt_certificate(param, part, kind), part, None

    family = _family(param, part, kind)
    if not family.exists:
        reason = (
            "rest_vectors_independent"
            if kind is Measure.OP_NORM
            else "no_diagonal_preserving_direction"
        )
        return OptimalityCertificate(
            Verdict.UNIQUE_OPTIMAL,
            {
                "hypothesis": "trivial_span_intersection",
                "uniqueness_reason": reason,
            },
        ), part, family
    return OptimalityCertificate(
        Verdict.OPTIMAL_UNCOUNTABLE_FAMILY,
        {
            "hypothesis": "trivial_span_intersection",
            "direction": family.direction,
            "radius": family.radius,
            "family_dim": family.dimension,
        },
    ), part, family


# ---------------------------------------------------------------------------
# special-case two-erasure closed forms


def r2_special_closed_form(ds: DualSystem) -> float:
    """Two-erasure spectral radius for nonnegative diagonal and constant
    off-diagonal products.

    With ``c`` the common product and ``Delta`` the argmax set of the
    diagonal:

    * c > 0, |Delta| = 1: mixes the top diagonal with the runner-up;
    * c > 0, |Delta| > 1: ``r1 + sqrt(c)``;
    * c = 0: ``r1``;
    * c < 0, |Delta| > 1: ``sqrt(r1^2 - c)``.

    Diagonal entries are compared at the diagonal scale s of the system and
    products at s^2.  Raises HypothesesNotMetError when the pattern does not
    match (caller falls back to the general closed form).
    """
    N = ds.n_vectors
    if N < 2:
        raise ValueError("two-erasure measure needs at least 2 vectors")
    diag = ds.diag
    scale = _system_scale(ds)
    if np.min(diag) < -DEFAULT_TOL * scale:
        raise HypothesesNotMetError("diagonal inner products must be nonnegative")
    _, prods = _pair_products(ds.cross_gram)
    c = float(np.mean(prods))
    if not np.all(_within(prods - c, scale**2)):
        raise HypothesesNotMetError("off-diagonal products are not constant")
    r1_val = float(np.max(diag))
    top = _within(r1_val - diag, scale)
    delta_size = int(np.count_nonzero(top))
    if _within(c, scale**2):
        return r1_val
    if c > 0:
        if delta_size == 1:
            second = float(np.max(diag[~top]))
            return 0.5 * (
                r1_val + second + math.sqrt((r1_val - second) ** 2 + 4.0 * c)
            )
        return r1_val + math.sqrt(c)
    if delta_size <= 1:
        raise HypothesesNotMetError(
            "negative constant product needs at least two argmax diagonals"
        )
    return math.sqrt(r1_val * r1_val - c)


def two_uniform_spectral_optimality(
    frame: Frame, dual: Frame, op: OperatorSpec
) -> tuple[bool, float]:
    """Two-erasure optimality of a 2-uniform K-dual, with its value.

    A 2-uniform dual is spectrally optimal for two erasures and attains
    ``max |trace(K)/N +/- sqrt(c)|`` under the principal square root, where
    the common product satisfies ``c = (trace(K^2) - trace(K)^2/N)/(N(N-1))``
    (the minus branch only matters for negative-trace operators).  Raises
    NotTwoUniformError when the dual is not 2-uniform, and NumericalError
    when the observed product misses c at the squared diagonal scale.
    """
    ds = build_dual_system(frame, dual, op)
    c1, c2 = uniformity(ds)
    if c1 is None or c2 is None:
        raise NotTwoUniformError("dual system is not 2-uniform")
    N = ds.n_vectors
    c = (op.trace_sq - op.trace**2 / N) / (N * (N - 1))
    if not _within(c - c2, _system_scale(ds) ** 2):
        raise NumericalError(
            f"observed product constant {c2} violates the trace identity value {c}"
        )
    root = np.sqrt(complex(c))
    value = max(abs(op.trace / N + root), abs(op.trace / N - root))
    return True, float(value)
