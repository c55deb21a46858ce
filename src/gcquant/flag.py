"""Pluecker coordinates, their one-parameter deformation, and the spectral
Gelfand-Cetlin map on flag matrices.

Minors are expanded over permutations with integer exponent bookkeeping so the
t = 1 specialization of the deformed coordinates is bitwise equal to the
classical ones (same term order, same arithmetic path), and so the expansion
also runs on symbolic entries.
"""

from __future__ import annotations

import itertools

import numpy as np

from .polytope import GCPattern

__all__ = [
    "weight_matrix",
    "index_sets",
    "minor",
    "pluecker_levels",
    "moment_matrix",
    "gc_map",
    "gc_rows",
    "random_flag",
    "random_flags",
]


def weight_matrix(n: int) -> np.ndarray:
    """Strictly lower-triangular integer weights w_ij = 3^(i-j-1) for i > j."""
    w = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i):
            w[i, j] = 3 ** (i - j - 1)
    return w


def index_sets(n: int, level: int) -> list[tuple[int, ...]]:
    """Row index sets of size `level`, lexicographic, 0-based."""
    return list(itertools.combinations(range(n), level))


_PERM_CACHE: dict[int, list[tuple[int, tuple[int, ...]]]] = {}


def _signed_permutations(l: int):
    if l not in _PERM_CACHE:
        perms = []
        for p in itertools.permutations(range(l)):
            inv = sum(1 for a in range(l) for b in range(a + 1, l) if p[a] > p[b])
            perms.append((-1 if inv % 2 else 1, p))
        _PERM_CACHE[l] = perms
    return _PERM_CACHE[l]


def minor(V, rows: tuple[int, ...], t=None):
    """det of the submatrix (rows, first len(rows) columns), permutation
    expansion in a fixed term order.  Batched over leading axes of V.

    With t, the deformed minor: each permutation term carries
    t^(e(perm) - e(id)) with e(perm) = sum_a w[rows[a], perm[a]] and
    w = weight_matrix(n).  The identity assignment achieves the minimal
    exponent, so the result is polynomial in t, and at t = 1 every term is
    multiplied by 1: the plain minor, bitwise."""
    l = len(rows)
    if t is not None:
        w = weight_matrix(V.shape[-1])
        e0 = sum(int(w[rows[a], a]) for a in range(l))
    total = 0
    for sign, p in _signed_permutations(l):
        term = V[..., rows[0], p[0]]
        for a in range(1, l):
            term = term * V[..., rows[a], p[a]]
        if t is not None:
            e = sum(int(w[rows[a], p[a]]) for a in range(l)) - e0
            if e < 0:
                raise ValueError("non-minimal identity exponent; weight matrix invalid")
            term = term * t**e
        total = total + (term if sign > 0 else -term)
    return total


def pluecker_levels(V, t=None) -> list[np.ndarray]:
    """The minors of levels 1..n-1: per level, minor(V, I, t) stacked along the
    last axis over the row sets I in lexicographic order (batch-friendly).
    Plain p_I(V), or with t the deformed q_I(V, t); q_I(V, 1) == p_I(V)
    bitwise."""
    V = np.asarray(V, dtype=complex)
    n = V.shape[-1]
    return [np.stack([minor(V, I, t) for I in index_sets(n, l)], axis=-1)
            for l in range(1, n)]


# -- spectral side -------------------------------------------------------------


def moment_matrix(V, a) -> np.ndarray:
    """H = sum_l a_l P_l with P_l the orthogonal projection onto the span of
    the first l columns.  Batched over leading axes of V."""
    V = np.asarray(V, dtype=complex)
    n = V.shape[-1]
    a = tuple(float(x) for x in a)
    if len(a) != n - 1:
        raise ValueError("need n-1 weights")
    Q, _ = np.linalg.qr(V)
    H = np.zeros_like(V)
    for l in range(1, n):
        Ql = Q[..., :, :l]
        H = H + a[l - 1] * (Ql @ np.conj(np.swapaxes(Ql, -1, -2)))
    return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))


def gc_rows(V, a) -> list[np.ndarray]:
    """Descending eigenvalues of the upper-left l x l blocks, l = 1..n.
    Batched; entry l-1 has shape (..., l)."""
    H = moment_matrix(V, a)
    n = H.shape[-1]
    return [np.linalg.eigvalsh(H[..., :l, :l])[..., ::-1] for l in range(1, n + 1)]


def gc_map(V, a) -> GCPattern:
    rows = gc_rows(np.asarray(V, dtype=complex), a)
    return GCPattern(tuple(tuple(float(x) for x in r) for r in rows))


def random_flag(n: int, seed=0) -> np.ndarray:
    """Complex Gaussian matrix, resampled while nearly singular."""
    rng = np.random.default_rng(seed)
    while True:
        V = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        if abs(np.linalg.det(V)) >= 1e-6:
            return V


def random_flags(n: int, count: int, seed=0) -> np.ndarray:
    """Deterministic ensemble: child seeds are spawned per sample index."""
    if count < 1:
        raise ValueError("count must be at least 1")
    children = np.random.SeedSequence(seed).spawn(count)
    return np.stack([random_flag(n, s) for s in children])
