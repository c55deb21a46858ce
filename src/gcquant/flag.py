"""Pluecker coordinates of flags in C^3, their one-parameter deformation, and
the spectral Gelfand-Cetlin map on flag matrices.

The deformed coordinates are the closed-form minors of the first one and two
columns: the t = 1 specialization is bitwise equal to the classical ones (same
term order, same arithmetic path), and the formulas also run on symbolic
entries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pluecker_levels",
    "moment_matrix",
    "gc_map",
    "random_flag",
    "random_flags",
]

# Row pairs (i, j) of the level-2 minors p_12, p_13, p_23 (0-based), each with
# the exponent of t on its swapped term.  With the weights w_ij = 3^(i-j-1)
# below the diagonal (1-based: w_21 = w_32 = 1, w_31 = 3, else 0), the term of
# the minor on rows {i, j} that takes column 1 from row k and column 2 from
# row l carries t^(w_k1 + w_l2 - w_i1 - w_j2).  The identity term (k, l) =
# (i, j) has exponent 0, and the swapped term (k, l) = (j, i) has
# w_21 + w_12 - w_11 - w_22 = 1 on {1, 2}, w_31 + w_12 - w_11 - w_32 = 2 on
# {1, 3} and w_31 + w_22 - w_21 - w_32 = 1 on {2, 3}.
_LEVEL2 = (((0, 1), 1), ((0, 2), 2), ((1, 2), 1))


def pluecker_levels(V, t=None) -> list[np.ndarray]:
    """[level 1, level 2] of a flag V (..., 3, 3), batched over leading axes:
    (p_1, p_2, p_3), the first column, and (p_12, p_13, p_23), the 2 x 2
    minors of the first two columns, each the identity term minus the swapped
    term.  Plain p_I(V), or with t the deformed q_I(V, t), whose swapped terms
    carry t, t^2 and t; q_I(V, 1) == p_I(V) bitwise.  V keeps its dtype, so
    object arrays of symbols work too."""
    V = np.asarray(V)
    if V.shape[-2:] != (3, 3):
        raise ValueError(f"pluecker_levels needs 3 x 3 flags, got shape {V.shape}")
    level2 = []
    for (i, j), e in _LEVEL2:
        swapped = V[..., i, 1] * V[..., j, 0]
        if t is not None:
            swapped = swapped * t**e
        level2.append(V[..., i, 0] * V[..., j, 1] - swapped)
    return [V[..., :, 0].copy(), np.stack(level2, axis=-1)]


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


def gc_map(V, a) -> np.ndarray:
    """Gelfand-Cetlin coordinates of a flag (n, n) or a stack (..., n, n): the
    descending eigenvalues of the upper-left l x l blocks of the moment
    matrix, l = 1..n-1, row-major (the coordinate order of `gc_polytope`).
    The top row, the spectrum of the whole matrix, is lambda(a) for every
    flag and is not computed."""
    H = moment_matrix(V, a)
    return np.concatenate([np.linalg.eigvalsh(H[..., :l, :l])[..., ::-1]
                           for l in range(1, H.shape[-1])], axis=-1)


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
