import numpy as np
import pytest
import sympy as sp

from gcquant.flag import (
    gc_map,
    moment_matrix,
    pluecker_levels,
    random_flag,
    random_flags,
)
from gcquant.polytope import gc_polytope

PAIRS = [(0, 1), (0, 2), (1, 2)]


def symbolic_flag():
    return np.array(sp.Matrix(3, 3, sp.symbols("v:3:3")), dtype=object)


# -- symbolic oracle: the deformed quadric relation is an algebraic identity ------


def test_deformed_relation_symbolic():
    t = sp.symbols("t")
    (q1, q2, q3), (q12, q13, q23) = pluecker_levels(symbolic_flag(), t)
    assert sp.expand(q1 * q23 - q2 * q13 + t * q3 * q12) == 0


def test_deformed_minor_symbolic_t_exponents():
    # the term of the minor on rows {i, j} taking column 0 from row k and
    # column 1 from row l carries t^(w[k, 0] + w[l, 1] - w[i, 0] - w[j, 1]),
    # w[i, j] = 3^(i-j-1) below the diagonal; level 1 carries no t
    t = sp.symbols("t")
    w = [[3 ** (i - j - 1) if i > j else 0 for j in range(3)] for i in range(3)]
    arr = symbolic_flag()
    lv1, lv2 = pluecker_levels(arr, t)
    for i in range(3):
        assert sp.expand(lv1[i] - arr[i, 0]) == 0
    for got, (i, j) in zip(lv2, PAIRS):
        e = w[j][0] + w[i][1] - w[i][0] - w[j][1]
        assert e >= 0
        manual = arr[i, 0] * arr[j, 1] - t ** e * arr[i, 1] * arr[j, 0]
        assert sp.expand(got - manual) == 0


def test_pluecker_levels_rejects_non_3x3_flags():
    for shape in [(4, 4), (2, 3, 2), (3,), (5, 3, 4)]:
        with pytest.raises(ValueError, match="3 x 3"):
            pluecker_levels(np.ones(shape), 0.5)


def test_relation_residual_numeric():
    rng = np.random.default_rng(7)
    count = 200
    V = (rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3)))
    t = rng.uniform(0.05, 1.5, size=count)
    lv1, lv2 = pluecker_levels(V, t)
    q1, q2, q3 = lv1[..., 0], lv1[..., 1], lv1[..., 2]
    q12, q13, q23 = lv2[..., 0], lv2[..., 1], lv2[..., 2]
    resid = q1 * q23 - q2 * q13 + t * q3 * q12
    scale = np.abs(lv1).max(axis=-1) * np.abs(lv2).max(axis=-1)
    assert np.max(np.abs(resid) / scale) < 1e-13


def test_deformed_at_one_is_plain_bitwise():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    for Vi in V:
        for q, p in zip(pluecker_levels(Vi, 1.0), pluecker_levels(Vi)):
            # identical code path at t=1: equality is exact, not approximate
            assert np.array_equal(q, p)


def test_pluecker_levels_batch_consistency():
    rng = np.random.default_rng(11)
    V = rng.standard_normal((17, 3, 3)) + 1j * rng.standard_normal((17, 3, 3))
    t = rng.uniform(0.1, 1.0, size=17)
    lv1, lv2 = pluecker_levels(V, t)
    for i in range(17):
        s1, s2 = pluecker_levels(V[i], t[i])
        assert np.allclose(lv1[i], s1, rtol=0, atol=1e-15)
        assert np.allclose(lv2[i], s2, rtol=0, atol=1e-15)


def test_minor_matches_numpy_det():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lv1, lv2 = pluecker_levels(V)
    rows = [[(i,) for i in range(3)], PAIRS]
    for level, (got, sets) in enumerate(zip((lv1, lv2), rows), start=1):
        for p, I in zip(got, sets):
            ref = np.linalg.det(V[np.ix_(I, range(level))])
            assert abs(p - ref) < 1e-12 * max(1.0, abs(ref))


# -- moment matrix and eigenvalue patterns ---------------------------------------


def test_moment_matrix_spectrum():
    a = (1.0, 1.0)
    V = random_flags(3, 100, seed=1)
    for Vi in V:
        H = moment_matrix(Vi, a)
        assert np.allclose(H, H.conj().T)
        ev = np.linalg.eigvalsh(H)
        assert np.max(np.abs(np.sort(ev) - np.array([0.0, 1.0, 2.0]))) < 1e-12


def test_gc_map_interlaces_and_lands_in_polytope():
    # the polytope's walls are the interlacing inequalities against the
    # exact top row, so containment is interlacing; one flag maps like a
    # stack of one
    a = (2.0, 1.0)
    P = gc_polytope(3, a)
    flags = random_flags(3, 100, seed=2)
    pats = gc_map(flags, a)
    assert pats.shape == (100, 3)
    assert P.contains(pats, tol=1e-10).all()
    for V, pat in zip(flags, pats):
        assert np.array_equal(gc_map(V, a), pat)


def test_gc_map_invariant_under_flag_basis_change():
    # right multiplication by unit upper-triangular fixes the flag, hence the
    # pattern; the Hermitian moment data sees only the subspaces
    rng = np.random.default_rng(9)
    V = random_flag(3, seed=4)
    U = np.eye(3, dtype=complex)
    U[0, 1], U[0, 2], U[1, 2] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pat1 = gc_map(V, (1.0, 1.0))
    pat2 = gc_map(V @ U, (1.0, 1.0))
    assert np.max(np.abs(pat1 - pat2)) < 1e-10


def test_gc_map_is_block_spectra():
    # rows 1..n-1, each the descending spectrum of its upper-left block,
    # concatenated row-major: the coordinate order of gc_polytope
    for n, a in ((3, (2.0, 1.0)), (4, (1.0, 2.0, 1.0))):
        V = random_flag(n, seed=8)
        H = moment_matrix(V, a)
        want = [x for l in range(1, n)
                for x in sorted(np.linalg.eigvalsh(H[:l, :l]), reverse=True)]
        pat = gc_map(V, a)
        assert pat.shape == (n * (n - 1) // 2,)
        assert np.allclose(pat, want, atol=1e-12)
        assert gc_polytope(n, a).contains(pat, tol=1e-10)


def test_random_flags_deterministic_and_nonsingular():
    A = random_flags(3, 5, seed=42)
    B = random_flags(3, 5, seed=42)
    assert np.array_equal(A, B)
    C = random_flags(3, 5, seed=43)
    assert not np.array_equal(A, C)
    for Vi in A:
        assert abs(np.linalg.det(Vi)) >= 1e-6
