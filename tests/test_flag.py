import numpy as np
import pytest
import sympy as sp

from gcquant.flag import (
    gc_map,
    index_sets,
    minor,
    moment_matrix,
    pluecker_levels,
    random_flag,
    random_flags,
    weight_matrix,
)
from gcquant.polytope import gc_polytope


def test_weight_matrix_values():
    W = weight_matrix(3)
    # strictly upper weights 3^(i-j-1) with the convention i > j below diagonal
    assert W[1, 0] == 1 and W[2, 1] == 1 and W[2, 0] == 3
    W4 = weight_matrix(4)
    assert W4[3, 0] == 9 and W4[3, 1] == 3 and W4[3, 2] == 1


def test_index_sets_shape():
    assert index_sets(3, 1) == [(0,), (1,), (2,)]
    assert index_sets(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert len(index_sets(4, 2)) == 6


# -- symbolic oracle: the deformed quadric relation is an algebraic identity ------


def test_deformed_relation_symbolic():
    t = sp.symbols("t")
    V = sp.Matrix(3, 3, sp.symbols("v:3:3"))
    arr = np.array(V, dtype=object)

    def q(rows):
        return minor(arr, rows, t)

    expr = q((0,)) * q((1, 2)) - q((1,)) * q((0, 2)) + t * q((2,)) * q((0, 1))
    assert sp.expand(expr) == 0


def test_deformed_minor_symbolic_t_exponents():
    # each permutation term carries t^(e(perm)-e(id)); at level 1 the minors
    # are single entries and no t appears
    t = sp.symbols("t")
    V = sp.Matrix(3, 3, sp.symbols("v:3:3"))
    arr = np.array(V, dtype=object)
    for I in index_sets(3, 1):
        assert sp.expand(minor(arr, I, t) - arr[I[0], 0]) == 0
    # level 2, rows (1,2): swap exponent e = w[1,1]+w[2,0] - (w[1,0]+w[2,1]) = 3-1+...
    got = minor(arr, (1, 2), t)
    w = weight_matrix(3)
    e_swap = int(w[1, 1] + w[2, 0]) - int(w[1, 0] + w[2, 1])
    manual = arr[1, 0] * arr[2, 1] - t ** e_swap * arr[1, 1] * arr[2, 0]
    assert sp.expand(got - manual) == 0


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
    V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for l in (1, 2, 3):
        for I in index_sets(4, l):
            ref = np.linalg.det(V[np.ix_(I, range(l))])
            assert abs(minor(V, I) - ref) < 1e-12 * max(1.0, abs(ref))


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
    a = (2.0, 1.0)
    P = gc_polytope(3, a)
    for Vi in random_flags(3, 100, seed=2):
        pat = gc_map(Vi, a)
        assert pat.interlacing_ok(tol=1e-10)
        assert P.contains(pat.flatten(), tol=1e-10)


def test_gc_map_invariant_under_flag_basis_change():
    # right multiplication by unit upper-triangular fixes the flag, hence the
    # pattern; the Hermitian moment data sees only the subspaces
    rng = np.random.default_rng(9)
    V = random_flag(3, seed=4)
    U = np.eye(3, dtype=complex)
    U[0, 1], U[0, 2], U[1, 2] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pat1 = gc_map(V, (1.0, 1.0)).flatten()
    pat2 = gc_map(V @ U, (1.0, 1.0)).flatten()
    assert np.max(np.abs(pat1 - pat2)) < 1e-10


def test_gc_rows_are_block_spectra():
    a = (2.0, 1.0)
    V = random_flag(3, seed=8)
    H = moment_matrix(V, a)
    pat = gc_map(V, a)
    top = np.sort(np.linalg.eigvalsh(H))[::-1]
    assert np.allclose(pat.rows[-1], top, atol=1e-12)
    lam11 = np.linalg.eigvalsh(H[:1, :1])
    assert abs(pat.rows[0][0] - lam11[0]) < 1e-12


def test_random_flags_deterministic_and_nonsingular():
    A = random_flags(3, 5, seed=42)
    B = random_flags(3, 5, seed=42)
    assert np.array_equal(A, B)
    C = random_flags(3, 5, seed=43)
    assert not np.array_equal(A, C)
    for Vi in A:
        assert abs(np.linalg.det(Vi)) >= 1e-6
