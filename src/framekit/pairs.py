"""Optimization over all (N, n) K-dual pairs.

For a positive semi-definite K, the worst-case one-erasure error over all
pairs has the sharp lower bound trace(K)/N under both the operator norm and
the spectral radius, attained exactly by the 1-uniform pairs (operator norm
attainment additionally pins every ``||f_i|| ||g_i||`` to the bound).  The
two-erasure bound branches on ``mu = trace(K^2) - trace(K)^2 / N``:

* mu >= 0: ``r2_min = trace(K)/N + sqrt(mu / (N (N-1)))``
* mu <  0: ``r2_min = sqrt((trace(K)^2 - trace(K^2)) / (N (N-1)))``

and is attained exactly by the 2-uniform pairs whenever one exists.  Two
candidate formulas circulate for the ``mu < 0`` branch; only the one above
equals the value ``|trace(K)/N + sqrt(c)|`` that a 2-uniform pair (whose
product constant is forced to ``c = mu / (N (N-1))``) would attain, so that
is the implemented bound, and the inconsistent variant
``sqrt(((N-2) trace(K)^2 + N trace(K^2)) / (N^2 (N-1)))`` is carried along
as a diagnostic (``r2_min_statement_variant``).  Note that for PSD K any
K-frame has N >= rank(K), which forces mu >= 0 by Cauchy-Schwarz, so the
negative branch can only be exercised at the formula level.

:func:`construct_optimal_self_dual` realizes the bound: it builds T with
frame operator exactly K and equal column norms, so the self-dual pair
(T, T) is 1-uniform and hits trace(K)/N under both measures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NotPSDError
from .frames import (
    DualSystem,
    Frame,
    OperatorSpec,
    _system_scale,
    _within,
    build_dual_system,
)
from .erasures import r2_closed_form, uniformity


class Branch(enum.Enum):
    MU_NONNEG = "mu_nonneg"
    MU_NEG = "mu_neg"


@dataclass(frozen=True)
class PairBounds:
    """Lower bounds for one- and two-erasure errors over all (N, n) pairs."""

    o1_min: float
    r1_min: float
    mu: float
    r2_min: float | None
    branch: Branch | None
    r2_min_statement_variant: float | None


def pair_bounds(op: OperatorSpec, n_vectors: int) -> PairBounds:
    """Evaluate the pair-optimal bounds for (K, N).

    Requires PSD K and N >= 1; the two-erasure fields need N >= 2 and are
    None otherwise.
    """
    if not op.psd_flag:
        raise NotPSDError("pair bounds require a PSD operator")
    N = int(n_vectors)
    if N < 1:
        raise ValueError(f"need at least one vector, got N={N}")
    t = op.trace
    t2 = op.trace_sq
    o1_min = t / N
    mu = t2 - t * t / N
    if N < 2:
        return PairBounds(o1_min, o1_min, mu, None, None, None)
    variant = None
    if mu >= 0:
        branch = Branch.MU_NONNEG
        r2_min = t / N + math.sqrt(mu / (N * (N - 1)))
    else:
        branch = Branch.MU_NEG
        r2_min = math.sqrt((t * t - t2) / (N * (N - 1)))
        variant = math.sqrt(((N - 2) * t * t + N * t2) / (N * N * (N - 1)))
    return PairBounds(o1_min, o1_min, mu, r2_min, branch, variant)


def _require_pair(ds: DualSystem) -> None:
    if not ds.op.psd_flag:
        raise NotPSDError("pair optimality tests require a PSD operator")


def is_o1_optimal_pair(ds: DualSystem) -> bool:
    """True iff every ``||f_i|| ||g_i||`` equals trace(K)/N at the
    diagonal scale."""
    _require_pair(ds)
    gaps = ds.frame.norms() * ds.dual.norms() - ds.op.trace / ds.n_vectors
    return bool(np.all(_within(gaps, _system_scale(ds))))


def is_r1_optimal_pair(ds: DualSystem) -> bool:
    """True iff the pair is 1-uniform (constant diagonal inner products)."""
    _require_pair(ds)
    return _r1_optimal(uniformity(ds)[0])


def is_r2_optimal_pair(ds: DualSystem) -> bool:
    """True iff the pair is 2-uniform and attains the two-erasure bound at
    the diagonal scale."""
    _require_pair(ds)
    return _r2_optimal(ds, uniformity(ds)[1])


def _r1_optimal(c: float | None) -> bool:
    """The r1 rule, given the diagonal constant c of :func:`uniformity`."""
    return c is not None


def _r2_optimal(ds: DualSystem, c_prime: float | None) -> bool:
    """The r2 rule, given the product constant c' of :func:`uniformity`
    (set only when the pair is 2-uniform and N >= 2, so r2_min exists)."""
    if c_prime is None:
        return False
    bound = pair_bounds(ds.op, ds.n_vectors).r2_min
    return bool(_within(r2_closed_form(ds) - bound, _system_scale(ds)))


def uniform_parseval_frame(dim: int, n_vectors: int) -> Frame:
    """Parseval frame of N equal-norm vectors in R^n (``||f_i||^2 = n/N``).

    Harmonic construction: rows are sampled cosine/sine waves (in complete
    frequency pairs) plus the constant row when n is odd, all orthonormal by
    discrete orthogonality; pairing the frequencies makes every column norm
    exactly n/N.
    """
    n, N = int(dim), int(n_vectors)
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= dim <= n_vectors, got n={n}, N={N}")
    if n == N:
        return Frame(np.eye(n))
    t = np.arange(N)
    rows = []
    if n % 2 == 1:
        rows.append(np.full(N, 1.0 / math.sqrt(N)))
    scale = math.sqrt(2.0 / N)
    for k in range(1, n // 2 + 1):
        theta = 2.0 * math.pi * k * t / N
        rows.append(scale * np.cos(theta))
        rows.append(scale * np.sin(theta))
    return Frame(np.vstack(rows))


def _rotate_column_norm_to_target(
    syn: np.ndarray, i: int, j: int, target: float
) -> None:
    """Apply a coefficient-space Givens rotation making ``||col i||^2 = target``.

    Requires the target to lie between the two squared column norms; the
    rotation mixes only columns i and j, so the frame operator is unchanged.
    """
    x = syn[:, i]
    y = syn[:, j]
    a = float(x @ x) - target
    b = float(y @ y) - target
    g = float(x @ y)
    # Solve b s^2 + 2 g c s + a c^2 = 0 for tan = s/c; a, b have opposite
    # signs so the discriminant is nonnegative.
    disc = math.sqrt(max(g * g - a * b, 0.0))
    if abs(b) < 1e-300:
        if abs(g) < 1e-300:
            return
        tan = -a / (2.0 * g)
    else:
        # Root choice with the stable (same-sign) addition.
        tan = (-g - disc) / b if g >= 0 else (-g + disc) / b
    c = 1.0 / math.sqrt(1.0 + tan * tan)
    s = c * tan
    new_i = c * x + s * y
    new_j = -s * x + c * y
    syn[:, i] = new_i
    syn[:, j] = new_j


def construct_optimal_self_dual(op: OperatorSpec, n_vectors: int) -> Frame:
    """Frame T with frame operator K and all ``||t_i||^2 = trace(K)/N``.

    (T, T) is then a 1-uniform self-dual pair attaining the one-erasure
    bounds under both measures.  Construction: start from Q sqrt(L) W where
    K = Q L Q^T restricted to its positive eigenvalues and W is an
    equal-norm Parseval frame of N vectors in rank(K) dimensions (so the
    frame operator is K exactly), then equalize column norms with
    coefficient-space Givens rotations, each fixing one column exactly;
    rotations preserve the frame operator and at most N - 1 are needed.
    The loop stops once every squared norm is on target at the scale of
    the target.
    """
    if not op.psd_flag:
        raise NotPSDError("self-dual construction requires a PSD operator")
    N = int(n_vectors)
    n = op.dim
    r = op.rank
    if N < r:
        raise InfeasibleError(
            f"need at least rank(K)={r} vectors, got N={N}"
        )
    if N < 1:
        raise InfeasibleError("need at least one vector")
    if r == 0:
        return Frame(np.zeros((n, N)))

    w, q = np.linalg.eigh(0.5 * (op.matrix + op.matrix.T))
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1][:r]
    root = q[:, order] * np.sqrt(w[order])
    syn = root @ uniform_parseval_frame(r, N).synthesis

    target = op.trace / N
    for _ in range(N):
        sq = np.einsum("ij,ij->j", syn, syn)
        if _within(np.max(np.abs(sq - target)), target):
            break
        lo = int(np.argmin(sq))
        hi = int(np.argmax(sq))
        _rotate_column_norm_to_target(syn, lo, hi, target)
    return Frame(syn)


def unitary_transport(ds: DualSystem, U) -> DualSystem:
    """Transport (F, G) to (UF, UG) by an orthogonal U commuting with K.

    All erasure measures are invariant under this map (the cross Gram matrix
    itself is preserved).  Raises ValueError when ``U^T U - I`` is not small
    at the scale 1 or ``U K - K U`` at the scale ``||K||``.
    """
    U = np.asarray(U, dtype=float)
    n = ds.frame.dim
    if U.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {U.shape}")
    if not _within(np.linalg.norm(U.T @ U - np.eye(n)), 1.0):
        raise ValueError("matrix is not orthogonal within tol")
    K = ds.op.matrix
    if not _within(np.linalg.norm(U @ K - K @ U), np.linalg.norm(K)):
        raise ValueError("matrix does not commute with the operator")
    return build_dual_system(
        Frame(U @ ds.frame.synthesis),
        Frame(U @ ds.dual.synthesis),
        ds.op,
    )
