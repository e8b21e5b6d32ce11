"""Erasure error operators and worst-case error measures.

Losing the coefficients indexed by a pattern L turns reconstruction error
into the rank-|L| operator ``E_L = sum_{i in L} f_i g_i^T`` acting on the
signal space.  Worst-case measures over all patterns of size m:

* ``o1``: operator norm, single erasure; equals ``max_i ||f_i|| ||g_i||``.
* ``r1``: spectral radius, single erasure; equals ``max_i |<g_i, f_i>|``.
* ``r2_closed_form``: spectral radius over pairs, from the quadratic
  eigenvalues of the 2 x 2 compression of the cross Gram matrix.
* ``rm_bruteforce``: exhaustive maximum for any m.

Operator-norm convention on multi-index patterns: the measure is evaluated
on the n x n operator ``E_L`` above.  The N x N coefficient-space operator
has the same nonzero spectrum (so every spectral-radius measure agrees) but
a different operator norm for |L| >= 2; the n x n choice is used throughout.

1-uniformity (constant diagonal of the cross Gram, forced to trace(K)/N) and
2-uniformity (additionally constant off-diagonal products) are detected by
:func:`uniformity`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotOneUniformError, BudgetExceededError, NumericalError
from .frames import DualSystem, _system_scale, _within

# Cap on the number of patterns rm_bruteforce will enumerate.
DEFAULT_PATTERN_BUDGET = 10**6


class Measure(enum.Enum):
    """Error measure for the one-erasure optimization problems."""

    OP_NORM = "opnorm"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class ErasurePattern:
    """Nonempty set of erased indices, stored sorted and 0-based."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        if not idx:
            raise ValueError("erasure pattern must be nonempty")
        if len(idx) != len(self.indices):
            raise ValueError("erasure pattern has repeated indices")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def validate(self, n_vectors: int) -> None:
        if self.indices[0] < 0 or self.indices[-1] >= n_vectors:
            raise IndexError(
                f"pattern {self.indices} out of range for N={n_vectors}"
            )


def error_operator(ds: DualSystem, pattern: ErasurePattern) -> np.ndarray:
    """n x n matrix of ``f -> sum_{i in L} <f, g_i> f_i``."""
    pattern.validate(ds.n_vectors)
    idx = list(pattern.indices)
    F = ds.frame.synthesis[:, idx]
    G = ds.dual.synthesis[:, idx]
    return F @ G.T


def op_norm_error(ds: DualSystem, pattern: ErasurePattern) -> float:
    """Largest singular value of the error operator."""
    return float(np.linalg.norm(error_operator(ds, pattern), 2))


def spectral_radius_error(ds: DualSystem, pattern: ErasurePattern) -> float:
    """Spectral radius of the error operator via a dense eigensolve."""
    E = error_operator(ds, pattern)
    try:
        eig = np.linalg.eigvals(E)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solve failed: {exc}") from exc
    return float(np.max(np.abs(eig))) if eig.size else 0.0


def _singleton_norms(ds: DualSystem) -> np.ndarray:
    return ds.frame.norms() * ds.dual.norms()


def o1(ds: DualSystem) -> float:
    """Worst-case one-erasure operator norm, ``max_i ||f_i|| ||g_i||``."""
    return float(np.max(_singleton_norms(ds)))


def o1_argmax(ds: DualSystem) -> int:
    return int(np.argmax(_singleton_norms(ds)))


def r1(ds: DualSystem) -> float:
    """Worst-case one-erasure spectral radius, ``max_i |<g_i, f_i>|``."""
    return float(np.max(np.abs(ds.diag)))


def r1_argmax(ds: DualSystem) -> int:
    return int(np.argmax(np.abs(ds.diag)))


def _pair_products(alpha: np.ndarray):
    """Pairs i < j, lexicographically, and products ``alpha_ij alpha_ji``."""
    iu, ju = np.triu_indices(alpha.shape[0], 1)
    return (iu, ju), alpha[iu, ju] * alpha[ju, iu]


def _pair_radii(s: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """Two-erasure radii ``max |(s +/- sqrt(disc)) / 2|`` of pairs with
    diagonal sum s and discriminant disc, under the principal complex
    square root with both signs evaluated.

    When every disc is finite and >= 0 the roots are real, and
    ``(|s| + sqrt(disc)) / 2`` in real arithmetic gives the same bits at a
    fraction of the cost.  Otherwise the complex formula runs: numpy's
    complex modulus matches no real formula bit for bit (``np.hypot``
    rounds differently), and NaN and inf keep their complex results.
    """
    if disc.size and 0.0 <= disc.min() and disc.max() < math.inf:
        return (np.abs(s) + np.sqrt(disc)) / 2.0
    root = np.sqrt(disc.astype(complex))
    return np.maximum(np.abs((s + root) / 2.0), np.abs((s - root) / 2.0))


# Rows of the upper triangle per step of _max_pair_radius: at N = 600 a
# step's arrays stay near 300 kB, inside the cache, while a step costs far
# more than its Python overhead.
_PAIR_BLOCK = 64


def _max_pair_radius(alpha: np.ndarray, d: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest two-erasure radius over pairs i < j and the lexicographically
    first pair attaining it (the first NaN, if any).  The error operator of
    pair (i, j) has the nonzero eigenvalues ``(d_i + d_j +/- sqrt(disc)) /
    2``, ``disc = (d_i - d_j)^2 + 4 alpha_ij alpha_ji``; the radius is the
    larger modulus (:func:`_pair_radii`).

    Runs over blocks of _PAIR_BLOCK rows, each on the columns right of its
    first row; the entries with j <= i in a block are masked, and no array
    of all N (N - 1) / 2 pairs is built.
    """
    N = alpha.shape[0]
    best, best_pair = -np.inf, None
    for a in range(0, N - 1, _PAIR_BLOCK):
        b = min(a + _PAIR_BLOCK, N - 1)
        di, dj = d[a:b, None], d[None, a + 1 :]
        prods = alpha[a:b, a + 1 :] * alpha[a + 1 :, a:b].T
        radii = _pair_radii(di + dj, (di - dj) ** 2 + 4.0 * prods)
        rows, cols = np.indices(radii.shape, sparse=True)
        radii[cols < rows] = -np.inf  # j = a + 1 + col <= i = a + row
        row, col = divmod(int(np.argmax(radii)), radii.shape[1])
        value = radii[row, col]
        if value > best or math.isnan(value):
            best, best_pair = float(value), (a + row, a + 1 + col)
            if math.isnan(value):
                break
    return best, best_pair


def r2_closed_form(ds: DualSystem) -> float:
    """Worst-case two-erasure spectral radius from the cross Gram matrix."""
    value, _ = r2_closed_form_argmax(ds)
    return value


def r2_closed_form_argmax(ds: DualSystem) -> tuple[float, tuple[int, int]]:
    """As :func:`r2_closed_form`, also returning the lexic. first argmax pair."""
    if ds.n_vectors < 2:
        raise ValueError("two-erasure measure needs at least 2 vectors")
    return _max_pair_radius(ds.cross_gram, ds.diag)


def rm_bruteforce(
    ds: DualSystem,
    m: int,
    use_op_norm: bool = False,
    max_patterns: int = DEFAULT_PATTERN_BUDGET,
) -> tuple[float, ErasurePattern]:
    """Exhaustive worst case over all C(N, m) patterns of size m.

    Ties break to the lexicographically smallest pattern (enumeration order),
    making the result deterministic.  Raises BudgetExceededError when the
    pattern count exceeds ``max_patterns``.
    """
    N = ds.n_vectors
    if not 1 <= m <= N:
        raise ValueError(f"m={m} outside 1..{N}")
    n_patterns = math.comb(N, m)
    if n_patterns > max_patterns:
        raise BudgetExceededError(
            f"C({N},{m}) = {n_patterns} patterns exceeds cap {max_patterns}"
        )
    measure = op_norm_error if use_op_norm else spectral_radius_error
    best = -1.0
    best_pattern = None
    for combo in itertools.combinations(range(N), m):
        pattern = ErasurePattern(combo)
        val = measure(ds, pattern)
        if val > best:
            best = val
            best_pattern = pattern
    return best, best_pattern


def uniformity(ds: DualSystem) -> tuple[float | None, float | None]:
    """Detect constant diagonal (c) and constant off-diagonal products (c').

    c is present iff all ``<g_i, f_i>`` agree within DEFAULT_TOL at the
    scale s of the system (:func:`framekit.frames._system_scale`); it then
    must equal trace(K)/N at that scale (a trace identity of any dual
    system, asserted here).  c' is present iff c is and all products
    ``alpha_ij alpha_ji`` (i != j) agree within DEFAULT_TOL at the scale s^2.
    """
    alpha = ds.cross_gram
    diag = np.diag(alpha)
    expected = ds.op.trace / ds.n_vectors
    scale = _system_scale(ds)
    c = None
    c_prime = None
    center = float(np.mean(diag))
    if np.all(_within(diag - center, scale)):
        c = center
        if not _within(c - expected, scale):
            raise NumericalError(
                f"uniform diagonal {c} deviates from trace(K)/N = {expected}"
            )
        if ds.n_vectors >= 2:
            _, prods = _pair_products(alpha)
            p_center = float(np.mean(prods))
            if np.all(_within(prods - p_center, scale**2)):
                c_prime = p_center
    return c, c_prime


def r2_simplified_uniform(ds: DualSystem) -> float:
    """Two-erasure spectral radius of a 1-uniform system.

    With constant diagonal c = trace(K)/N the pairwise eigenvalues collapse
    to ``c +/- sqrt(alpha_ij alpha_ji)``; the measure maximizes the modulus
    over pairs with both square-root signs evaluated (for c >= 0 this is the
    usual ``max |c + sqrt(alpha_ij alpha_ji)|``, and the minus branch only
    matters for negative-trace systems).
    """
    c, _ = uniformity(ds)
    if c is None:
        raise NotOneUniformError("diagonal inner products are not constant")
    N = ds.n_vectors
    if N < 2:
        raise ValueError("two-erasure measure needs at least 2 vectors")
    value, _ = _max_pair_radius(ds.cross_gram, np.full(N, ds.op.trace / N))
    return value


@dataclass(frozen=True, eq=False)
class ErasureReport:
    """Headline error measures of a dual system (indices 0-based)."""

    o1: float
    r1: float
    r2: float | None
    argmax_o1: int
    argmax_r1: int
    argmax_r2: tuple[int, int] | None
    uniform1: float | None
    uniform2: float | None
    rm: dict[int, float] = field(default_factory=dict)


def build_report(ds: DualSystem, ms: tuple[int, ...] = ()) -> ErasureReport:
    """Assemble the standard report; extra ``rm`` orders are brute-forced."""
    c, c_prime = uniformity(ds)
    if ds.n_vectors >= 2:
        r2_val, r2_pair = r2_closed_form_argmax(ds)
    else:
        r2_val, r2_pair = None, None
    rm = {int(m): rm_bruteforce(ds, int(m))[0] for m in ms}
    return ErasureReport(
        o1=o1(ds),
        r1=r1(ds),
        r2=r2_val,
        argmax_o1=o1_argmax(ds),
        argmax_r1=r1_argmax(ds),
        argmax_r2=r2_pair,
        uniform1=c,
        uniform2=c_prime,
        rm=rm,
    )


def report_to_dict(report: ErasureReport) -> dict:
    """JSON-ready dict; erasure indices are 1-based on the wire."""
    return {
        "o1": report.o1,
        "r1": report.r1,
        "r2": report.r2,
        "c": report.uniform1,
        "c_prime": report.uniform2,
        "argmax_o1": report.argmax_o1 + 1,
        "argmax_r1": report.argmax_r1 + 1,
        "argmax_r2": None
        if report.argmax_r2 is None
        else [report.argmax_r2[0] + 1, report.argmax_r2[1] + 1],
        "rm": {str(m): v for m, v in sorted(report.rm.items())},
    }
