"""Seeded input generator for the framekit benchmark (numpy only).

Every input is a plain numpy array or a frame JSON file; the program under
test never sees the seed.  The families, and why each is there:

* one-block Parseval K-frames ``F = K V`` (V with orthonormal rows): the
  generic case, a single linearly connected block, with full-rank or
  rank-deficient PSD K;
* orthogonal block frames: K block-diagonal in a random orthonormal basis,
  each block a Parseval frame of its own subspace with at most 16 vectors,
  so the spectral construction runs block by block;
* harmonic equal-norm frames (self-dual under K = I, 1-uniform), simplex
  frames (equiangular, 2-uniform) and PSD operators for the optimal
  self-dual construction: the closed forms for uniform pairs;
* random non-canonical duals ``K^+ F + C W^T`` with W an orthonormal basis
  of null(F): dual systems that are not uniform.
"""

from __future__ import annotations

import json
import math

import numpy as np

S2 = math.sqrt(2.0)


def random_psd(rng, n: int, rank: int | None = None) -> np.ndarray:
    """PSD matrix with nonzero eigenvalues in [0.5, 1.5]."""
    r = n if rank is None else rank
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.zeros(n)
    lam[:r] = rng.uniform(0.5, 1.5, size=r)
    K = (q * lam) @ q.T
    return 0.5 * (K + K.T)


def orthonormal_rows(rng, n: int, N: int) -> np.ndarray:
    """n x N matrix V with V V^T = I (n <= N)."""
    q, _ = np.linalg.qr(rng.standard_normal((N, n)))
    return q[:, :n].T


def one_block(rng, n: int, N: int, rank: int | None = None):
    """Parseval K-frame F = K V; generic V makes it a single block."""
    K = random_psd(rng, n, rank)
    return K @ orthonormal_rows(rng, n, N), K


def block_frame(rng, dims, sizes):
    """Parseval K-frame whose blocks span mutually orthogonal K-invariant
    subspaces of the given dimensions, with the given block sizes.

    Columns are shuffled so blocks are not contiguous.
    """
    n = int(sum(dims))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = np.zeros((n, n))
    cols = []
    start = 0
    for d, m in zip(dims, sizes):
        Q = q[:, start : start + d]
        start += d
        Kj = random_psd(rng, d)
        K += Q @ Kj @ Q.T
        cols.append(Q @ Kj @ orthonormal_rows(rng, d, m))
    F = np.hstack(cols)[:, rng.permutation(int(sum(sizes)))]
    return F, 0.5 * (K + K.T)


def harmonic(rng, n: int, N: int) -> np.ndarray:
    """Equal-norm Parseval frame (K = I) of N vectors in R^n, rotated."""
    t = np.arange(N)
    rows = []
    if n % 2 == 1:
        rows.append(np.full(N, 1.0 / math.sqrt(N)))
    for k in range(1, n // 2 + 1):
        theta = 2.0 * math.pi * k * t / N
        rows.append(math.sqrt(2.0 / N) * np.cos(theta))
        rows.append(math.sqrt(2.0 / N) * np.sin(theta))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return U @ np.vstack(rows)


def simplex(rng, N: int) -> np.ndarray:
    """Equiangular Parseval frame of N vectors in R^(N-1) (K = I)."""
    q, _ = np.linalg.qr(np.hstack([np.ones((N, 1)), rng.standard_normal((N, N - 1))]))
    return q[:, 1:].T


def null_basis(F: np.ndarray) -> np.ndarray:
    """Orthonormal basis of null(F) as columns, N x (N - rank F)."""
    _, s, vt = np.linalg.svd(F)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    return vt[rank:].T


def random_dual(rng, F: np.ndarray, K: np.ndarray, scale: float = 0.5):
    """Non-canonical K-dual: K^+ F plus a random perturbation in null(F)."""
    W = null_basis(F)
    C = rng.standard_normal((F.shape[0], W.shape[1])) * scale / math.sqrt(max(1, W.shape[1]))
    return np.linalg.pinv(K) @ F + C @ W.T


def fixtures() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The three worked examples bundled with framekit, as (F, K)."""
    ex1 = np.array([[1, 0, 0], [1, 0, 0], [S2, 0, 0], [0, 1, 0]], dtype=float).T
    ex2 = np.array(
        [[S2, 0, 0], [S2, 0, 0], [0, 1 / S2, 1 / S2], [0, 1 / S2, -1 / S2]]
    ).T
    a = 2.0 * math.pi * np.arange(3) / 3.0
    merc = math.sqrt(2.0 / 3.0) * np.vstack([np.cos(a), np.sin(a)])
    return {
        "example-1": (ex1, np.diag([2.0, 1.0, 0.0])),
        "example-2": (ex2, np.diag([2.0, 1.0, 1.0])),
        "mercedes": (merc, np.eye(2)),
    }


def write_frame(path, F: np.ndarray, K: np.ndarray) -> None:
    """Frame file in framekit's JSON format, at full precision."""
    doc = {"dim": int(F.shape[0]), "vectors": F.T.tolist(), "K": K.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
