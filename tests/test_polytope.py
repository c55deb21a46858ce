import itertools
import json
from fractions import Fraction
from math import gcd, inf

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import gcquant.polytope as polytope
from gcquant.polytope import (
    DelzantPolytope,
    Facet,
    UnboundedPolytopeError,
    ambient_polytope,
    box_polytope,
    gc_polytope,
    gc_variable_names,
    gc_weight,
    interval,
    polytope_to_json,
    product_polytope,
    simplex_polytope,
    weyl_dim,
)


# Lattice count == irreducible-representation dimension is the one exact
# integer identity the whole package hangs on; pin the known values.
KNOWN_COUNTS = [
    (2, (1,), 2),
    (3, (1, 1), 8),
    (3, (2, 1), 15),
    (4, (1, 1, 1), 64),
    (4, (3, 3, 3), 4096),
]


@pytest.mark.parametrize("n,a,expected", KNOWN_COUNTS)
def test_lattice_count_matches_weyl_dim(n, a, expected):
    P = gc_polytope(n, a)
    pts = P.lattice_points()
    assert len(pts) == expected
    assert weyl_dim(gc_weight(a)) == expected


@given(n=st.sampled_from([2, 3]),
       a=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
@settings(max_examples=20, deadline=None)
def test_lattice_weyl_agreement_random(n, a):
    a = tuple(a[: n - 1]) + (1,) * (n - 1 - len(a))
    assert len(gc_polytope(n, a).lattice_points()) == weyl_dim(gc_weight(a))


def brute_lattice(P, box):
    """Integer points of P by brute force over an integer box containing it,
    in lex order, with exact integer support values."""
    return [p for p in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
            if all(sum(r * x for r, x in zip(f.normal, p)) + f.offset >= 0
                   for f in P.facets)]


# A real triangle with no lattice point, vertices (1/3, 2/3), (1/2, 1) and
# (3/5, 4/5), cut from the unit square so that interval propagation bounds it.
LATTICE_FREE = DelzantPolytope(2, box_polytope([(0, 1), (0, 1)]).facets + (
    Facet((-2, -1), 2), Facet((-1, 2), -1), Facet((2, -1), 0)))

SIDES = st.integers(-3, 1).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, lo + 3)))


@st.composite
def polytopes_with_boxes(draw):
    """A polytope with an integer box that contains it by construction, so the
    oracle does not rely on the bounds of the code under test."""
    kind = draw(st.sampled_from(["gc", "box", "simplex", "product", "ambient", "cut"]))
    if kind == "gc":
        n = draw(st.integers(2, 4))
        a = tuple(draw(st.lists(st.integers(1, 3 if n < 4 else 2),
                                min_size=n - 1, max_size=n - 1)))
        lam = gc_weight(a)
        # interlacing pins lam_l^j between lam_{j+n-l} and lam_j of the top row
        box = [(lam[j + n - l - 1], lam[j - 1]) for l in range(1, n) for j in range(1, l + 1)]
        return gc_polytope(n, a), box
    if kind == "box":
        sides = draw(st.lists(SIDES, min_size=1, max_size=3))
        return box_polytope(sides), sides
    if kind == "simplex":
        d, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return simplex_polytope(d, s), [(0, s)] * d
    if kind == "product":
        d, s = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        lo, hi = draw(SIDES)
        parts = [simplex_polytope(d, s), interval(lo, hi), LATTICE_FREE]
        order = draw(st.permutations(range(2 + draw(st.booleans()))))
        boxes = [[(0, s)] * d, [(lo, hi)], [(0, 1), (0, 1)]]
        return (product_polytope([parts[i] for i in order]),
                [side for i in order for side in boxes[i]])
    if kind == "ambient":
        a = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        return ambient_polytope(3, a), [(0, a[0])] * 2 + [(0, a[1])] * 2
    # a box with one more facet of random primitive normal
    sides = draw(st.lists(SIDES, min_size=2, max_size=3))
    normal = draw(st.lists(st.integers(-3, 3), min_size=len(sides), max_size=len(sides)))
    g = gcd(*normal)
    assume(g != 0)
    cut = Facet(tuple(r // g for r in normal), draw(st.integers(-4, 4)))
    P = box_polytope(sides)
    P = DelzantPolytope(P.dim, P.facets + (cut,), P.labels)
    try:
        P.bounding_box()
    except ValueError:  # empty over the reals
        assume(False)
    return P, sides


@given(polytopes_with_boxes())
@settings(max_examples=150, deadline=None)
@example((LATTICE_FREE, [(0, 1), (0, 1)]))
# the frontier empties at the second coordinate, after a non-empty first
@example((product_polytope([interval(0, 2), LATTICE_FREE]), [(0, 2), (0, 1), (0, 1)]))
def test_lattice_points_match_brute_force(case):
    P, box = case
    # widen the box so the oracle's facet filter, not the box, does the cutting
    expected = brute_lattice(P, [(lo - 1, hi + 1) for lo, hi in box])
    pts = P.lattice_points()
    assert [tuple(p) for p in pts] == expected
    assert pts.dtype == np.int64 and pts.shape == (len(expected), P.dim)


def test_lattice_enumeration_limits(monkeypatch):
    P = gc_polytope(4, (3, 3, 3))
    monkeypatch.setattr(polytope, "MAX_LATTICE_POINTS", 4096)
    assert len(P.lattice_points()) == 4096
    monkeypatch.setattr(polytope, "MAX_LATTICE_POINTS", 4095)
    with pytest.raises(ValueError, match="MAX_LATTICE_POINTS"):
        P.lattice_points()
    # facet values on the box must stay below 2**62: -x + a >= 0 reaches 2a
    with pytest.raises(ValueError, match="int64"):
        gc_polytope(2, (2 ** 61,)).lattice_points()
    with pytest.raises(ValueError, match="MAX_LATTICE_POINTS"):
        gc_polytope(2, (2 ** 61 - 1,)).lattice_points()


def test_weyl_dim_staircase_powers():
    # staircase weights give 2^(n choose 2); scaling by c gives (c+1)^(n choose 2)
    assert weyl_dim(gc_weight((1, 1, 1))) == 2 ** 6
    assert weyl_dim(gc_weight((3, 3, 3))) == 4 ** 6


def test_facet_rejects_non_primitive_normal():
    with pytest.raises(ValueError):
        Facet((2, 0), 4.0)
    with pytest.raises(ValueError):
        Facet((0, 0), 1.0)


def test_interval_basics():
    P = interval(0, 3)
    assert P.dim == 1
    v = np.sort(P.vertices()[:, 0])
    assert np.allclose(v, [0.0, 3.0])
    assert P.contains(np.array([1.5]))
    assert P.contains(np.array([0.0]))
    assert not P.contains(np.array([0.0]), strict=True)
    assert not P.contains(np.array([3.1]))
    assert len(P.lattice_points()) == 4


def test_box_and_simplex_and_product_counts():
    assert len(box_polytope([(0, 2), (0, 1)]).lattice_points()) == 6
    assert len(simplex_polytope(2, 2).lattice_points()) == 6
    prod = product_polytope([interval(0, 1), interval(0, 2)])
    assert prod.dim == 2
    assert len(prod.lattice_points()) == 6


def test_support_values_sign_convention():
    P = interval(0, 3)
    pts = np.array([[0.5], [2.5]])
    sv = P.support_values(pts)
    # support >= 0 inside, one coordinate per facet
    assert sv.shape == (2, len(P.facets))
    assert np.all(sv >= 0)
    assert np.any(P.support_values(np.array([-0.1])) < 0)


def primitive_rows(dim, entries):
    return st.lists(st.sampled_from(entries), min_size=dim, max_size=dim).filter(
        lambda r: gcd(*r) == 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), lead=st.sampled_from([(), (1,), (7,), (3, 4)]))
def test_support_values_match_matrix_product(data, dim, lead):
    # random integer normals in [-2, 2]; the first row has no zero entry, so
    # every example has a row with several nonzero entries once dim > 1
    rows = [data.draw(primitive_rows(dim, (-2, -1, 1, 2)))]
    rows += data.draw(st.lists(primitive_rows(dim, (-2, -1, 0, 1, 2)), max_size=5))
    offsets = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
    P = DelzantPolytope(dim, tuple(Facet(tuple(r), c) for r, c in zip(rows, offsets)))
    p = data.draw(hnp.arrays(np.float64, lead + (dim,), elements=st.floats(-100, 100)))
    sv = P.support_values(p)
    assert sv.shape == lead + (len(rows),)
    assert sv.flags.writeable
    R, c = np.array(rows, dtype=float), np.array(offsets, dtype=float)
    # dim + 1 roundings each side, each within half an ulp of the row scale
    scale = np.abs(p) @ np.abs(R).T + np.abs(c)
    assert np.all(np.abs(sv - (p @ R.T + c)) <= (dim + 1) * np.finfo(float).eps * scale)
    low = sv.min(axis=-1)
    assert np.array_equal(P.contains(p), low >= 0)
    assert np.array_equal(P.contains(p, strict=True), low > 0)


def fill_and_accumulate(P, p):
    """support_values as it was first written: each facet row filled with its
    offset, then every nonzero r_jk p[..., k] added to it in turn."""
    p = np.asarray(p, dtype=float)
    if p.ndim < 2:
        return p @ P.normal_matrix.T + P.offsets
    out = np.empty((len(P.facets),) + p.shape[:-1])
    for row, f in zip(out, P.facets):
        row.fill(f.offset)
        for k, r in enumerate(f.normal):
            if r == 1:
                row += p[..., k]
            elif r == -1:
                row -= p[..., k]
            elif r:
                row += r * p[..., k]
    return np.moveaxis(out, 0, -1)


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    # the layout of polytope_grid: points over contiguous coordinate rows
    "rows": lambda p: np.ascontiguousarray(np.moveaxis(p, -1, 0)).transpose(
        tuple(range(1, p.ndim)) + (0,)),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), lead=st.sampled_from([(), (1,), (9,), (3, 4)]),
       layout=st.sampled_from(sorted(LAYOUTS)))
def test_support_values_bit_identical_to_fill_and_accumulate(data, dim, lead, layout):
    # each row starts from its first nonzero normal entry in one ufunc with
    # the offset instead of from a row filled with the offset; addition and
    # multiplication commute, so no value may move, on any memory layout,
    # for any sign of zero, and for integer or float offsets; the first row
    # has no zero entry, so rows with several nonzero entries always occur
    rows = [data.draw(primitive_rows(dim, (-2, -1, 1, 2)))]
    rows += data.draw(st.lists(primitive_rows(dim, (-2, -1, 0, 1, 2)), max_size=5))
    offsets = data.draw(st.lists(st.integers(-5, 5) | st.floats(-5, 5, width=64),
                                 min_size=len(rows), max_size=len(rows)))
    P = DelzantPolytope(dim, tuple(Facet(tuple(r), c) for r, c in zip(rows, offsets)))
    p = LAYOUTS[layout](data.draw(hnp.arrays(np.float64, lead + (dim,),
                                             elements=st.floats(-100, 100))))
    got, want = P.support_values(p), fill_and_accumulate(P, p)
    assert got.shape == want.shape == lead + (len(rows),)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_gc_polytope_structure():
    P = gc_polytope(3, (1, 1))
    assert P.dim == 3
    assert len(P.facets) == 6
    assert P.labels == gc_variable_names(3)
    # the top vertex of the interlacing cone meets 4 facets in dimension 3,
    # so the polytope is not simple, hence not Delzant; a simplex's vertices
    # each meet exactly dim facets
    def facets_met(Q):
        return (np.abs(Q.support_values(Q.vertices())) < 1e-9).sum(axis=-1)

    assert facets_met(P).max() == 4
    assert np.all(facets_met(simplex_polytope(3, 2)) == 3)


def test_gc_lattice_points_are_valid_patterns():
    # every lattice point interlaces with its neighbours, row 1 inside row 2
    # and row 2 inside the exact top row lambda(a)
    a = (2, 1)
    top = (a[0] + a[1], a[1], 0)
    points = gc_polytope(3, a).lattice_points()
    assert len(points) == weyl_dim(top)
    for lam11, lam21, lam22 in points:
        assert top[0] >= lam21 >= top[1] >= lam22 >= top[2]
        assert lam21 >= lam11 >= lam22


def test_interlacing_detects_violation():
    # lam1_1 = 2.5 lies above lam2_1 = 2 by 0.5: outside the polytope of
    # a = (1, 1), and inside once the walls are relaxed by that much
    P = gc_polytope(3, (1, 1))
    assert not P.contains((2.5, 2.0, 0.0))
    assert not P.contains((2.5, 2.0, 0.0), tol=0.49)
    assert P.contains((2.5, 2.0, 0.0), tol=0.5)


def test_json_round_trip():
    P = gc_polytope(3, (2, 1))
    data = json.loads(polytope_to_json(P))
    assert data["dim"] == P.dim
    assert data["labels"] == list(P.labels)
    assert [Facet(tuple(f["normal"]), f["offset"], f["label"])
            for f in data["facets"]] == list(P.facets)


def test_barycenter_is_interior():
    for P in (interval(0, 3), gc_polytope(3, (1, 1)), simplex_polytope(3, 2)):
        assert P.contains(P.barycenter(), strict=True)


def test_bounding_box_contains_vertices():
    P = gc_polytope(3, (2, 1))
    box = P.bounding_box()
    V = P.vertices()
    for i, (lo, hi) in enumerate(box):
        assert V[:, i].min() >= lo - 1e-12
        assert V[:, i].max() <= hi + 1e-12


def fraction_interval_bounds(P):
    """`_interval_bounds` in all-Fraction arithmetic, as it was written before
    its bounds became ints where integral: the reference for the values, the
    fixpoint and the errors."""
    lo = [-inf] * P.dim
    hi = [inf] * P.dim
    for _ in range(64 * P.dim + 64):
        changed = False
        for f in P.facets:
            for i, ri in enumerate(f.normal):
                if ri == 0:
                    continue
                rest = Fraction(f.offset)
                ok = True
                for j, rj in enumerate(f.normal):
                    if j == i or rj == 0:
                        continue
                    b = hi[j] if rj > 0 else lo[j]
                    if b in (inf, -inf):
                        ok = False
                        break
                    rest += rj * Fraction(b)
                if not ok:
                    continue
                cand = -rest / ri
                if ri > 0:
                    if lo[i] == -inf or cand > lo[i]:
                        lo[i] = cand
                        changed = True
                elif hi[i] == inf or cand < hi[i]:
                    hi[i] = cand
                    changed = True
        if not changed:
            break
    if any(b == -inf for b in lo) or any(b == inf for b in hi):
        raise UnboundedPolytopeError("interval propagation did not bound the polytope")
    if any(l > h for l, h in zip(lo, hi)):
        raise ValueError("empty polytope")
    return list(zip(lo, hi))


# The triangle of LATTICE_FREE without the unit square: no facet is
# axis-aligned, so every facet needs a bound on the other coordinate first,
# and interval propagation cannot bound it although it is bounded.
TRIANGLE = DelzantPolytope(2, LATTICE_FREE.facets[4:])
# a box cut by a facet of normal (-2, -1), x1 <= (4 - x2)/2: the bound 5/2 at
# x2 = -1 is not integral
HALF_CUT = DelzantPolytope(2, box_polytope([(0, 3), (-1, 3)]).facets + (Facet((-2, -1), 4),))


@st.composite
def bounded_polytopes(draw):
    """GC polytopes up to n = 5, boxes with negative corners, simplices, their
    products, ambient polytopes of Fl(3), and boxes cut by facets of random
    primitive normal, whose bounds can be Fractions and read Fractions."""
    kind = draw(st.sampled_from(["gc", "box", "simplex", "product", "ambient", "cut", "float"]))
    if kind == "gc":
        n = draw(st.integers(2, 5))
        return gc_polytope(n, draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1)))
    if kind == "ambient":
        return ambient_polytope(3, (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    simplices = st.builds(simplex_polytope, st.integers(1, 3), st.integers(1, 4))
    boxes = st.lists(SIDES, min_size=1, max_size=3).map(box_polytope)
    if kind == "simplex":
        return draw(simplices)
    if kind == "box":
        return draw(boxes)
    if kind == "product":
        return product_polytope(draw(st.lists(st.one_of(simplices, boxes, st.just(LATTICE_FREE)),
                                              min_size=1, max_size=3)))
    P = draw(boxes.filter(lambda B: B.dim >= 2))
    cuts = []
    for _ in range(draw(st.integers(1, 3))):
        normal = draw(st.lists(st.integers(-3, 3), min_size=P.dim, max_size=P.dim))
        g = gcd(*normal)
        assume(g != 0)
        cuts.append(Facet(tuple(r // g for r in normal), draw(st.integers(-6, 6))))
    facets = P.facets + tuple(cuts)
    if kind == "float":
        # float offsets, as GCTorusModel.image_delta's, integral or not
        facets = tuple(Facet(f.normal, f.offset + draw(st.sampled_from([0.0, 0.5, 0.1, -0.25])))
                       for f in facets)
    return DelzantPolytope(P.dim, facets, P.labels)


def outcome(f, P):
    try:
        return f(P)
    except ValueError as e:  # UnboundedPolytopeError included
        return type(e), str(e)


@given(bounded_polytopes())
@settings(max_examples=300, deadline=None)
@example(gc_polytope(5, (4, 3, 2, 1)))
@example(HALF_CUT)
@example(DelzantPolytope(2, HALF_CUT.facets + (Facet((1, 3), -10),)))
@example(TRIANGLE)
# GCTorusModel((2.0, 1.5)).image_delta(): float offsets, one of them 0.0
@example(DelzantPolytope(3, tuple(Facet(r, c) for r, c in (
    ((1, 0, 0), 0.0), ((0, 1, 0), 0.0), ((0, 0, 1), 0.0), ((0, -1, 0), 2.0), ((0, 0, -1), 1.5),
    ((-1, -1, 1), 2.0)))))
def test_interval_bounds_match_fraction_propagation(P):
    expected = outcome(fraction_interval_bounds, P)
    bounds = outcome(DelzantPolytope._interval_bounds, P)
    assert bounds == expected
    if isinstance(expected, tuple):  # both raised the same error
        return
    for b in (b for pair in bounds for b in pair):
        assert type(b) is (int if b.denominator == 1 else Fraction), bounds
    # compared as strings, so that a -0.0 for 0 shows
    assert repr(P.bounding_box()) == repr([(float(a), float(b)) for a, b in expected])


def test_interval_bounds_are_ints_where_integral():
    assert all(type(b) is int for pair in gc_polytope(5, (2, 2, 1, 1))._interval_bounds()
               for b in pair)
    assert HALF_CUT._interval_bounds() == [(0, Fraction(5, 2)), (-1, 3)]
    assert HALF_CUT.bounding_box() == [(0.0, 2.5), (-1.0, 3.0)]
    for f in (DelzantPolytope.bounding_box, DelzantPolytope.lattice_points):
        with pytest.raises(UnboundedPolytopeError, match="did not bound"):
            f(TRIANGLE)


@given(st.lists(st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
                min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_contains_iff_all_supports_nonneg(coords):
    P = gc_polytope(3, (2, 1))
    p = np.array(coords)
    assert P.contains(p) == bool(P.support_values(p).min() >= 0)


def test_contains_batched_matches_scalar():
    P = gc_polytope(3, (1, 1))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 2.5, size=(64, 3))
    batched = P.contains(pts)
    scalar = np.array([P.contains(p) for p in pts])
    assert np.array_equal(batched, scalar)
