"""Frame/operator object model over real, finite-dimensional spaces.

A frame is an ordered sequence of N vectors in R^n stored column-wise in its
synthesis matrix.  The operator K that gates reconstruction is wrapped in an
:class:`OperatorSpec` carrying its cached pseudoinverse, PSD square root and
traces.  A dual system bundles a frame F with a K-dual G and the N x N cross
Gram matrix ``alpha[i, j] = <g_i, f_j>``; every closed-form error measure is a
function of ``alpha``.

Duality is the synthesis-level identity ``F G^T = K`` (equivalently
``K f = sum_i <f, g_i> f_i`` for all f).  For a Parseval K-frame, i.e.
``F F^T = K K^T``, the pseudoinverse image ``{K^+ f_i}`` is the canonical
K-dual and the full K-dual set is the affine space ``K^+ F + E`` over the
n x N matrices E with ``E V = 0``, V an orthonormal basis of the row space
of F; that chart, with the coordinates ``E = C W^T`` (W an orthonormal
basis of null(F)), is exposed through :func:`dual_parameterization`.  It
also holds the spectral optimum in closed form: the diagonal with every
matroid component of F at its mean, which no K-dual beats in one-erasure
spectral radius, and its lift to the closest K-dual, each computed once.

All objects are immutable after construction (each copies its arrays and
marks them read-only), so values can be shared freely across threads; every
operation here is a pure function.  The K-frame bounds need numpy alone:
they reduce their generalized eigenproblem to standard form by a Cholesky
factor.  scipy is imported inside the two chart steps that use it, so
importing this module does not load it: the pivoted QR of
:func:`_matroid_components` and the LAPACK triangular solves of the chart's
diagonal factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotDualError,
    NotKFrameError,
    NotParsevalError,
    NumericalError,
)

# The tolerance rule.  A value decision (equal within tolerance) compares a
# difference with DEFAULT_TOL times a named scale of the input; a rank
# decision counts singular values above RANK_TOL times a scale.  Every scale
# moves with the input, so scaling F and K together keeps each verdict, and
# a zero scale makes the comparison exact.
DEFAULT_TOL = 1e-8
RANK_TOL = 1e-10


def _within(diff, scale):
    """``|diff| <= DEFAULT_TOL * scale``, elementwise."""
    return np.abs(diff) <= DEFAULT_TOL * scale


def _rank(s: np.ndarray, scale: float) -> int:
    """Number of singular values s above ``RANK_TOL * scale``."""
    return int(np.count_nonzero(s > RANK_TOL * scale))


def _readonly(a) -> np.ndarray:
    a = np.array(a, dtype=float, order="C")  # a copy: no later write reaches it
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered sequence of N vectors in R^n; column i of ``synthesis`` is f_i."""

    synthesis: np.ndarray  # n x N

    def __post_init__(self):
        object.__setattr__(self, "synthesis", _readonly(self.synthesis))

    @property
    def dim(self) -> int:
        return self.synthesis.shape[0]

    @property
    def n_vectors(self) -> int:
        return self.synthesis.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """N x n view; row i is f_i (bit-identical to synthesis column i)."""
        return self.synthesis.T

    def vector(self, i: int) -> np.ndarray:
        return self.synthesis[:, i]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.synthesis, axis=0)


def build_frame(vectors) -> Frame:
    """Assemble a Frame from a sequence of equal-length real vectors.

    Raises ValueError on an empty sequence, ragged lengths, or non-finite
    entries.  Well-formed input converts in one call; the per-vector loop
    runs only to word the error, naming the first bad vector.
    """
    try:
        rows = np.asarray(vectors, dtype=float)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is not None and rows.ndim == 2 and rows.size and np.isfinite(rows).all():
        return Frame(rows.T)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("frame needs at least one vector")
    dim = vecs[0].shape
    if len(dim) != 1 or dim[0] < 1:
        raise ValueError("frame vectors must be 1-d and nonempty")
    for i, v in enumerate(vecs):
        if v.shape != dim:
            raise ValueError(
                f"vector {i} has length {v.shape}, expected {dim}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError(f"vector {i} has a non-finite entry")
    return Frame(np.column_stack(vecs))


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """Square operator K with cached pseudoinverse, PSD root and traces.

    ``sqrt`` is populated only when K is PSD; ``rank`` counts singular
    values above ``tol * sigma_max`` (see :func:`build_operator`).
    """

    matrix: np.ndarray
    pinv: np.ndarray
    sqrt: np.ndarray | None
    trace: float
    trace_sq: float
    psd_flag: bool
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        object.__setattr__(self, "pinv", _readonly(self.pinv))
        if self.sqrt is not None:
            object.__setattr__(self, "sqrt", _readonly(self.sqrt))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_operator(matrix, tol: float = RANK_TOL) -> OperatorSpec:
    """Build an OperatorSpec from a square real matrix.

    The pseudoinverse comes from an SVD with singular values below
    ``tol * sigma_max`` zeroed out.  K is symmetric when
    ``||K - K^T|| <= tol * ||K||``, and then PSD when its symmetric part has
    no eigenvalue below ``-tol * ||K||``: both relative, so scaling K keeps
    the verdict, and K = 0 is PSD.  The square root is the symmetric
    eigendecomposition root with tiny negatives clamped to zero.
    """
    K = np.asarray(matrix, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"operator must be square, got shape {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ValueError("operator has a non-finite entry")

    u, s, vt = np.linalg.svd(K)
    keep = s > tol * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(keep))
    s_inv = np.zeros_like(s)
    np.divide(1.0, s, out=s_inv, where=keep)
    pinv = (vt.T * s_inv) @ u.T

    scale = np.linalg.norm(K)
    sym_gap = np.linalg.norm(K - K.T)
    psd = False
    sqrt = None
    if sym_gap <= tol * scale:
        sym = 0.5 * (K + K.T)
        w, q = np.linalg.eigh(sym)
        if w.size == 0 or w[0] >= -tol * scale:
            psd = True
            sqrt = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T

    return OperatorSpec(
        matrix=K,
        pinv=pinv,
        sqrt=sqrt,
        trace=float(np.trace(K)),
        trace_sq=float(np.trace(K @ K)),
        psd_flag=psd,
        rank=rank,
    )


def frame_operator(frame: Frame) -> np.ndarray:
    """S = sum_i f_i f_i^T, the symmetric PSD frame operator."""
    syn = frame.synthesis
    return syn @ syn.T


def k_frame_bounds(frame: Frame, op: OperatorSpec) -> tuple[float, float]:
    """Optimal frame bounds (A, B) of F measured against ``K*``.

    B is the largest eigenvalue of the frame operator.  A is the smallest
    generalized eigenvalue of the pencil (S, K K^T) restricted to range(K),
    i.e. the best constant with ``A ||K^T f||^2 <= sum |<f, f_i>|^2``.
    Raises NotKFrameError when A <= RANK_TOL; A is a ratio of the two
    quadratic forms, so the cut does not depend on units.  A rank-zero K
    yields A = inf (the lower inequality is vacuous).
    """
    if frame.dim != op.dim:
        raise ValueError(
            f"frame dim {frame.dim} does not match operator dim {op.dim}"
        )
    S = frame_operator(frame)
    evals = np.linalg.eigvalsh(S)
    B = float(evals[-1]) if evals.size else 0.0
    if op.rank == 0:
        return float("inf"), B

    # Orthonormal basis of range(K) from the SVD kept columns.
    u, s, _ = np.linalg.svd(op.matrix)
    Q = u[:, : op.rank]
    S_r = Q.T @ S @ Q
    KKt = op.matrix @ op.matrix.T
    KKt_r = Q.T @ KKt @ Q
    # The pencil in standard form, as LAPACK sygv reduces it: with
    # KKt_r = L L^T, its eigenvalues are those of L^{-1} S_r L^{-T}.
    try:
        L = np.linalg.cholesky(KKt_r)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate pencil
        raise NotKFrameError(f"generalized eigenproblem failed: {exc}") from exc
    X = np.linalg.solve(L, S_r)
    A = float(np.linalg.eigvalsh(np.linalg.solve(L, X.T))[0])
    if A <= RANK_TOL:
        raise NotKFrameError(
            f"lower K-frame bound {A:.3e} is not positive within tol"
        )
    return A, B


def is_parseval_k_frame(frame: Frame, op: OperatorSpec) -> bool:
    """True iff the frame operator equals ``K K^T``.

    The Frobenius residual is compared at the scale ``||K||^2``, so scaling
    F and K together keeps the verdict.  For K = 0 only the zero frame is
    Parseval.
    """
    if frame.dim != op.dim:
        return False
    if not np.any(op.matrix):  # exact, and safe from underflow in the norm
        return not np.any(frame.synthesis)
    residual = np.linalg.norm(frame_operator(frame) - op.matrix @ op.matrix.T)
    return bool(_within(residual, np.linalg.norm(op.matrix) ** 2))


def canonical_k_dual(frame: Frame, op: OperatorSpec) -> Frame:
    """Canonical K-dual ``{K^+ f_i}`` of a Parseval K-frame."""
    if not is_parseval_k_frame(frame, op):
        raise NotParsevalError("canonical K-dual requires a Parseval K-frame")
    return Frame(op.pinv @ frame.synthesis)


class DualKind(enum.Enum):
    NOT_DUAL = "not_dual"
    K_DUAL_PAIR = "k_dual_pair"


def verify_k_dual(frame: Frame, dual: Frame, op: OperatorSpec) -> DualKind:
    """Classify (F, G) by the duality residual of ``F G^T = K``.

    The residual is a Frobenius norm at the scale ``||K||``, so scaling F
    and K by the same factor keeps the verdict.  For K = 0 the product
    ``F G^T`` must vanish exactly.  Over the reals the reversed relation
    ``G F^T = K^T`` is its transpose, so a verified K-dual always forms a
    K-dual pair.
    """
    if frame.dim != dual.dim or frame.n_vectors != dual.n_vectors:
        raise ValueError("frame and dual shapes disagree")
    if frame.dim != op.dim:
        raise ValueError("frame and operator dims disagree")
    product = frame.synthesis @ dual.synthesis.T
    if not np.any(op.matrix):
        return DualKind.NOT_DUAL if np.any(product) else DualKind.K_DUAL_PAIR
    if _within(np.linalg.norm(product - op.matrix), np.linalg.norm(op.matrix)):
        return DualKind.K_DUAL_PAIR
    return DualKind.NOT_DUAL


@dataclass(frozen=True, eq=False)
class DualSystem:
    """A frame with a verified K-dual and the cached cross Gram matrix."""

    frame: Frame
    dual: Frame
    op: OperatorSpec
    cross_gram: np.ndarray  # alpha[i, j] = <g_i, f_j>
    kind: DualKind

    def __post_init__(self):
        object.__setattr__(self, "cross_gram", _readonly(self.cross_gram))

    @property
    def n_vectors(self) -> int:
        return self.frame.n_vectors

    @property
    def diag(self) -> np.ndarray:
        """Diagonal inner products ``<g_i, f_i>``."""
        return np.diag(self.cross_gram)


def build_dual_system(frame: Frame, dual: Frame, op: OperatorSpec) -> DualSystem:
    """Validate duality and cache the cross Gram matrix.

    Raises NotDualError if G fails the duality relation.
    """
    kind = verify_k_dual(frame, dual, op)
    if kind is DualKind.NOT_DUAL:
        raise NotDualError("sequence is not a K-dual of the frame")
    alpha = dual.synthesis.T @ frame.synthesis
    return DualSystem(frame=frame, dual=dual, op=op, cross_gram=alpha, kind=kind)


def _diagonal_scale(F: np.ndarray, G: np.ndarray, target: float) -> float:
    """Scale s of the diagonal ``<g_i, f_i>`` of synthesis matrices F and G,
    of the weights ``||f_i|| ||g_i||`` and of two-erasure radii: the larger
    of ``|target|`` (usually trace(K)/N) and ``max ||g_i|| ||f_i||``.
    Scaling F and K scales it too, and it stays above the rounding of a
    diagonal that is exactly 0.  Products ``alpha_ij alpha_ji`` are at most
    ``w_i w_j``, so their scale is s^2."""
    weights_sq = np.einsum("ij,ij->j", G, G) * np.einsum("ij,ij->j", F, F)
    return max(abs(target), math.sqrt(weights_sq.max()))


def _system_scale(ds: DualSystem) -> float:
    """:func:`_diagonal_scale` of a dual system, at ``target = trace(K)/N``."""
    return _diagonal_scale(
        ds.frame.synthesis, ds.dual.synthesis, ds.op.trace / ds.n_vectors
    )


def _components(linked: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Connected components of a symmetric boolean adjacency, sorted."""
    N = linked.shape[0]
    unseen = np.ones(N, dtype=bool)
    components = []
    for start in range(N):
        if not unseen[start]:
            continue
        # Breadth-first search, one vectorized step per graph distance.
        component = np.zeros(N, dtype=bool)
        frontier = component.copy()
        frontier[start] = True
        while frontier.any():
            component |= frontier
            frontier = linked[frontier].any(axis=0) & ~component
        unseen &= ~component
        components.append(tuple(int(i) for i in np.flatnonzero(component)))
    return tuple(components)


def _matroid_components(syn: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Components of the vector matroid on the columns of ``syn``.

    Pivoted QR picks a basis B; linking each basis index to the columns with
    a coordinate above DEFAULT_TOL on it in ``B^+ F`` (the fundamental
    circuits) gives a graph with the same components.  The coordinates are
    ratios of columns, so the cut does not depend on units.  Zero columns
    stay singletons.
    """
    import scipy.linalg

    N = syn.shape[1]
    _, R, piv = scipy.linalg.qr(syn, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(R))
    basis = piv[: _rank(pivots, pivots[0])]
    coords, *_ = np.linalg.lstsq(syn[:, basis], syn, rcond=None)
    linked = np.zeros((N, N), dtype=bool)
    linked[basis] = ~_within(coords, 1.0)
    return _components(linked | linked.T)


@dataclass(frozen=True, eq=False)
class _CanonicalDual:
    """A Parseval K-frame F, its operator K and its canonical K-dual
    ``base = K^+ F``: everything the fixed-frame weights read."""

    frame: Frame
    op: OperatorSpec
    base: Frame

    @cached_property
    def canonical_diagonal(self) -> np.ndarray:
        """``<K^+ f_i, f_i>``, the diagonal of the canonical dual."""
        diag = np.einsum("ij,ij->j", self.base.synthesis, self.frame.synthesis)
        diag.setflags(write=False)
        return diag


def _project(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``X - (X V) V^T``: the n x N matrix X projected onto the admissible
    perturbations ``{E : E V = 0}``, V having orthonormal columns."""
    return X - (X @ V) @ V.T


@dataclass(frozen=True, eq=False)
class DualParameterization(_CanonicalDual):
    """The K-dual set of F: ``G = K^+ F + E`` over the admissible
    perturbations, the n x N matrices E with ``E V = 0``.

    ``frame`` and ``op`` are the Parseval K-frame F and its operator K,
    ``base`` is ``K^+ F``, and ``row_basis`` is V, N x rank F with
    orthonormal columns spanning the row space of F (a thin SVD); any X has
    the admissible part ``X - (X V) V^T`` (:func:`_project`).  Every
    fixed-frame answer works on these perturbations.  The coefficient API
    is the orthonormal chart ``E = C W^T``: ``basis`` is W, N x (N - rank
    F), an orthonormal basis of null(F) from a full SVD built on first
    read, and c of length ``dof = n (N - rank F)`` stands for ``C[a, m] =
    c[m n + a]`` (the ``e_a w_m^T`` are Frobenius-orthonormal).

    The chart decides the matroid components of F once
    (:attr:`components`).  ``F diag(lam) (I - V V^T) = 0`` exactly when lam
    is constant on each component, so no dual moves the component sums of
    the diagonal; :attr:`_diagonal_factor` certifies that and lifts a
    diagonal shift, or raises NumericalError.  The spectral minimum, search
    and construction read :attr:`_component_means` and its lift
    :attr:`_component_mean_perturbation`, each built when first read.
    """

    row_basis: np.ndarray  # N x rank F

    def __post_init__(self):
        object.__setattr__(self, "row_basis", _readonly(self.row_basis))

    @property
    def dof(self) -> int:  # n (N - rank F), the dimension of the K-dual set
        return self.frame.dim * (self.frame.n_vectors - self.row_basis.shape[1])

    @cached_property
    def basis(self) -> np.ndarray:  # W: F's right singular vectors beyond its rank
        return _readonly(np.linalg.svd(self.frame.synthesis)[2][self.row_basis.shape[1] :].T)

    @cached_property
    def diagonal_map(self) -> np.ndarray:
        """D (dof x N), the chart derivatives of the diagonal ``<g_i, f_i>``."""
        D = self.column_jacobian(self.frame.synthesis)
        D.setflags(write=False)
        return D

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The matroid components of F (:func:`_matroid_components`, a
        pivoted QR at DEFAULT_TOL), decided once for every reader."""
        return _matroid_components(self.frame.synthesis)

    @cached_property
    def _diagonal_factor(self):
        """(null, lift, embed): Z, the N x p normalized indicators of the p
        :attr:`components` (``1/sqrt|B|`` on component B), which span
        null(D), the diagonal shifts no dual reaches; the map from a shift r
        to the coordinates of the minimum-norm perturbation whose diagonal
        shift is r projected onto range(D^T); and the linear map from those
        coordinates to the n x N perturbation.

        With ``s = ||F||_F`` (``||D|| <= s``), ``P = I - V V^T`` and the Gram
        ``M = D^T D = (F^T F) o P``, the components are certified when

        * ``||X_B - (X_B V) V^T||_F <= RANK_TOL s`` for every component B,
          X_B being F with the columns outside B set to 0, formed entry by
          entry (it is ``||F_B W_B||_F``): Z lies in null(D) by D's own rank
          rule, without squaring its condition number; and
        * ``M + s^2 Z Z^T - RANK_TOL s^2 I`` has a Cholesky factor: no
          eigenvalue of M outside span(Z) is at or below the cut.

        Then the lift is ``F diag(mu) P``, projected twice, with ``(M + s^2
        Z Z^T) mu = r - Z Z^T r``; no N x N eigendecomposition runs.
        Otherwise M cannot resolve a singular value of D between ``RANK_TOL
        s`` and about ``1e-5 s``, or Z misses null(D): one SVD of D decides
        its rank and gives the lift in chart coefficients, embedded by
        :meth:`perturbation` (whose rounding stays admissible).  Its null
        space must be span(Z), or NumericalError names the components rather
        than answer from either side.
        """
        from scipy.linalg import lapack

        F, V = self.frame.synthesis, self.row_basis
        N = F.shape[1]
        scale = float(np.linalg.norm(F))
        label = np.empty(N, dtype=int)
        for k, component in enumerate(self.components):
            label[list(component)] = k
        sizes = np.bincount(label)[label]  # |B| of the component of each index
        null = np.zeros((N, len(self.components)))
        null[np.arange(N), label] = 1.0 / np.sqrt(sizes)

        def leak(component):  # ||X_B - (X_B V) V^T||_F, entry by entry
            X = -((F[:, component] @ V[component]) @ V.T)
            X[:, component] += F[:, component]
            return np.linalg.norm(X)

        if max(map(leak, map(list, self.components))) <= RANK_TOL * scale:
            gram = V @ V.T
            np.negative(gram, out=gram)
            gram[np.diag_indices(N)] += 1.0  # P = I - V V^T
            gram *= F.T @ F
            gram += (label[:, None] == label) * (scale**2 / sizes)[:, None]  # s^2 Z Z^T
            shifted = gram.copy()
            shifted[np.diag_indices(N)] -= RANK_TOL * scale**2
            try:
                np.linalg.cholesky(shifted)
                upper = np.linalg.cholesky(gram).T  # U^T U = gram, Fortran order for LAPACK
            except np.linalg.LinAlgError:
                pass
            else:

                def lift(r):
                    r = r - np.bincount(label, r)[label] / sizes  # r - Z Z^T r
                    mu = lapack.dtrtrs(upper, lapack.dtrtrs(upper, r, trans=1)[0])[0]
                    # F diag(mu) can be cond(M) times longer than its
                    # projection, whose rounding then leaves a part along V
                    # that breaks F G^T = K: a second pass removes it.
                    return _project(_project(F * mu, V), V)

                return null, lift, lambda E: E
        # Vt needs N rows to hold a basis of null(D); the thin SVD keeps
        # only min(dof, N), and the full one costs nothing more when dof < N.
        U, s, Vt = np.linalg.svd(self.diagonal_map, full_matrices=self.dof < N)
        # Relative to ||F||_F >= ||D||, not to s[0]: D can be all rounding
        # noise (null(F) spanned by zero vectors of F).
        rank = _rank(s, scale)
        found = Vt[rank:].T
        if found.shape[1] != null.shape[1] or not _within(
            np.linalg.norm(found - null @ (null.T @ found)), 1.0
        ):
            raise NumericalError(
                f"the matroid components {self.components} of the frame do not "
                f"span the {found.shape[1]} null directions of its diagonal map: "
                "the frame is too close to one with other components to decide"
            )
        return null, lambda r: U[:, :rank] @ ((Vt[:rank] @ r) / s[:rank]), self.perturbation

    @cached_property
    def _component_means(self) -> np.ndarray:
        """Per index i, the mean of ``<K^+ f_i, f_i>`` over its matroid
        component: the K-dual diagonal of smallest largest absolute entry.

        Every dual has the component sums of the canonical diagonal, so no
        dual has a smaller largest entry, and this diagonal is reached.  The
        components are certified by :attr:`_diagonal_factor` first, or it
        raises NumericalError.
        """
        self._diagonal_factor  # certifies self.components, or raises
        diag = self.canonical_diagonal
        means = np.empty_like(diag)
        for component in map(list, self.components):
            means[component] = np.mean(diag[component])
        means.setflags(write=False)
        return means

    @cached_property
    def _component_mean_perturbation(self) -> np.ndarray:
        """:meth:`_diagonal_perturbation` of :attr:`_component_means`: with
        it, ``K^+ F`` gives the K-dual closest to the canonical one among
        those of smallest one-erasure spectral radius.  The diagonal is
        always reachable, so a missed lift raises NumericalError."""
        E = self._diagonal_perturbation(self._component_means)
        if E is None:
            raise NumericalError("the chart lift missed the component-mean diagonal")
        E.setflags(write=False)
        return E

    def perturbation(self, coefficients) -> np.ndarray:
        """``C W^T`` for a coefficient vector, or a stack of them.

        Input of shape (..., dof) gives output of shape (..., n, N).
        """
        c = np.asarray(coefficients, dtype=float)
        C = c.reshape(*c.shape[:-1], self.basis.shape[1], self.base.dim)
        return np.swapaxes(C, -1, -2) @ self.basis.T

    def column_jacobian(self, X: np.ndarray, columns=slice(None)) -> np.ndarray:
        """Derivatives of the column inner products with X along the chart.

        Entry ``[k, t]`` is the derivative of ``<g_j, x_t>`` in ``c_k``,
        where ``j = columns[t]`` and x_t is column t of the n x T matrix X:
        ``W[j, m] X[a, t]`` for ``k = m n + a``.
        """
        W = self.basis[columns]
        return (W.T[:, None, :] * X[None, :, :]).reshape(self.dof, X.shape[1])

    def _diagonal_perturbation(self, target) -> np.ndarray | None:
        """Minimum-norm admissible E whose dual ``K^+ F + E`` has ``<g_i,
        f_i> = target_i`` (the dual with that diagonal closest to the
        canonical one), or None.

        E embeds the sum, in the lift's coordinates, of lifts of
        :attr:`_diagonal_factor`: of the shift, then of what the exact
        diagonal of its dual still misses, for as long as each lift halves
        the miss (a Gram lift loses up to cond(D)^2 * 1e-16 of the shift).
        None when the final miss exceeds DEFAULT_TOL at the
        :func:`_diagonal_scale` of the canonical dual (scale-free, and above
        the rounding of an exactly zero diagonal).
        """
        rhs = target - self.canonical_diagonal
        _, lift, embed = self._diagonal_factor
        syn, base = self.frame.synthesis, self.base.synthesis
        scale = _diagonal_scale(syn, base, np.max(np.abs(target)))
        step = lift(rhs)
        x, miss = np.zeros_like(step), rhs
        while True:
            left = miss - np.einsum("ij,ij->j", embed(step), syn)
            if not np.max(np.abs(left)) < 0.5 * np.max(np.abs(miss)):  # also 0, NaN
                break
            x, miss = x + step, left
            step = lift(miss)
        return embed(x) if np.all(_within(miss, scale)) else None

    def diagonal_coefficients(self, frame: Frame, target):
        """Minimum-norm c whose dual has ``<g_i, f_i> = target_i``, or None:
        ``C = E W`` of :meth:`_diagonal_perturbation`.  ``frame`` is F."""
        E = self._diagonal_perturbation(target)
        return None if E is None else (E @ self.basis).T.ravel()


def dual_parameterization(frame: Frame, op: OperatorSpec) -> DualParameterization:
    """The K-dual set ``K^+ F + E``, ``E V = 0``, of F: V holds the right
    singular vectors of F within its numerical rank (a thin SVD).  Raises
    NotParsevalError through :func:`canonical_k_dual`, and NotDualError
    when the canonical dual fails :func:`verify_k_dual`, which happens when
    F passes the Parseval test but K keeps a rounding-level singular value
    in its rank.
    """
    base = canonical_k_dual(frame, op)
    if verify_k_dual(frame, base, op) is DualKind.NOT_DUAL:
        # F F^T = K K^T holds within tol, yet K^+ F misses F G^T = K: K
        # counts in its rank a singular value that F F^T only has as noise.
        s = np.linalg.svd(op.matrix, compute_uv=False)
        raise NotDualError(
            "the canonical dual K^+ F is not a K-dual of this frame; the "
            f"smallest singular value counted in rank(K), {s[op.rank - 1]:.3e}"
            f" ({s[op.rank - 1] / s[0]:.1e} of the largest), is likely rounding"
            " noise"
        )
    _, s, vt = np.linalg.svd(frame.synthesis, full_matrices=False)
    rank = _rank(s, s[0] if s.size else 0.0)
    return DualParameterization(frame, op, base, vt[:rank].T)


def reconstruct_dual(param: DualParameterization, coefficients) -> Frame:
    """K-dual frame at the given coefficient vector."""
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (param.dof,):
        raise ValueError(f"expected {param.dof} coefficients, got {c.shape}")
    return Frame(param.base.synthesis + param.perturbation(c))
