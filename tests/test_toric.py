import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcquant import toric
from gcquant.lab import GCTorusModel
from gcquant.polytope import DelzantPolytope, Facet, box_polytope, gc_polytope, interval
from gcquant.toric import (
    ConvexDeformation,
    SectionDensity,
    SymplecticPotential,
    bohr_sommerfeld_test,
    complex_to_moment_log,
    g_can_grad,
    g_can_hess,
    g_can_value,
    holonomy,
    moment_to_log_complex,
    outside_ball,
    polytope_grid,
    section_log_density,
    transport_phase,
)

RNG = np.random.default_rng(20260815)


def interior_points(P, count, rng=RNG, shrink=0.05):
    """Rejection-sample strictly interior points off the walls."""
    box = np.array(P.bounding_box())
    lo, hi = box[:, 0], box[:, 1]
    pts = []
    while len(pts) < count:
        cand = rng.uniform(lo, hi, size=(4 * count, P.dim))
        keep = P.support_values(cand).min(axis=-1) > shrink
        pts.extend(cand[keep])
    return np.array(pts[:count])


def potential(P, s=0.0, scale=1.0):
    return SymplecticPotential(P, 0.0, ConvexDeformation(scale * np.eye(P.dim))).at_s(s)


# -- canonical potential ---------------------------------------------------------


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("P", [interval(0, 3), gc_polytope(3, (2, 1))],
                         ids=["interval", "gc3"])
def test_g_can_grad_matches_finite_differences(P):
    for x in interior_points(P, 10):
        g = g_can_grad(P, x)
        g_fd = fd_grad(lambda p: g_can_value(P, p), x)
        assert np.max(np.abs(g - g_fd)) < 1e-5 * max(1.0, np.abs(g).max())


def test_g_can_hess_matches_grad_differences():
    P = gc_polytope(3, (2, 1))
    for x in interior_points(P, 5):
        H = g_can_hess(P, x)
        assert np.allclose(H, H.T)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            col = (g_can_grad(P, x + e) - g_can_grad(P, x - e)) / 2e-6
            assert np.max(np.abs(H[:, i] - col)) < 1e-4 * max(1.0, np.abs(H).max())
        # strict convexity in the interior
        assert np.linalg.eigvalsh(H).min() > 0


def test_g_can_grad_raises_on_wall():
    P = interval(0, 3)
    with pytest.raises(ValueError):
        g_can_grad(P, np.array([0.0]))
    with pytest.raises(ValueError):
        g_can_hess(P, np.array([3.0]))


def test_potential_at_s_adds_quadratic():
    P = interval(0, 3)
    x = np.array([1.7])
    p0, p10 = potential(P, 0.0), potential(P, 10.0)
    assert np.isclose(p10.grad(x)[0] - p0.grad(x)[0], 10.0 * x[0], atol=1e-12)
    assert np.isclose(p10.hess(x)[0, 0] - p0.hess(x)[0, 0], 10.0, atol=1e-12)


def test_deformation_extreme_curvatures():
    d = ConvexDeformation(np.diag([1.0, 2.0]))
    assert d.c1() == 0.5
    assert d.c2() == 1.0


@pytest.mark.parametrize("Q", [-np.eye(2), np.zeros((2, 2)), [[1.0, 2.0], [2.0, 1.0]],
                               [[np.nan]]])
def test_quadratic_nu_must_be_positive_definite(Q):
    # the closed-form density needs nu >= 0; only the symmetric part counts
    with pytest.raises(ValueError, match="positive definite"):
        ConvexDeformation(np.asarray(Q))
    d = ConvexDeformation(np.array([[1.0, 5.0], [-5.0, 1.0]]))
    assert np.array_equal(d.Q, np.eye(2))


def test_deformation_restriction_chain_rule():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
    d = ConvexDeformation(np.diag([1.0, 3.0]), iota_star=A)
    x = np.array([0.3, -0.2, 0.5])
    p = A @ x
    assert np.isclose(d.value(x), 0.5 * p @ d.Q @ p)
    g_fd = fd_grad(d.value, x)
    assert np.max(np.abs(d.grad(x) - g_fd)) < 1e-6
    assert np.allclose(d.hess(x), A.T @ d.Q @ A)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), restricted=st.booleans(),
       lead=st.sampled_from([(), (5,), (2, 3)]))
def test_deformation_value_matches_quadratic_form(data, dim, restricted, lead):
    floats = st.floats(-2, 2)
    k = data.draw(st.integers(1, dim)) if restricted else dim
    L = np.array(data.draw(st.lists(st.lists(floats, min_size=k, max_size=k),
                                    min_size=k, max_size=k)))
    A = (np.array(data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim,
                                                max_size=dim), min_size=k, max_size=k)),
                  dtype=float) if restricted else None)
    d = ConvexDeformation(L @ L.T + np.eye(k), iota_star=A)
    x = np.array(data.draw(st.lists(floats, min_size=dim * int(np.prod(lead)),
                                    max_size=dim * int(np.prod(lead))))).reshape(lead + (dim,))
    val = d.value(x)
    assert np.shape(val) == lead
    ref = 0.5 * np.einsum("...i,ij,...j->...", x, d.H, x)
    scale = 0.5 * np.einsum("...i,ij,...j->...", np.abs(x), np.abs(d.H), np.abs(x))
    assert np.all(np.abs(val - ref) <= 4 * dim * np.finfo(float).eps * scale)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_outside_ball_matches_norm_bit_for_bit(data, dim, seed):
    # eps runs through the labels' own distances, so a distance that differs
    # from np.linalg.norm's in its last bit flips a mask bit
    labels = np.random.default_rng(seed).uniform(-3, 3, size=(50, dim))
    center = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)))
    dist = np.linalg.norm(labels - center, axis=-1)
    for eps in dist:
        assert np.array_equal(outside_ball(labels, center, eps), dist > eps)


# -- Legendre round trip ---------------------------------------------------------


def literal_chart_round_trip(pot, x, theta):
    """(x, theta) through the literal complex chart w = exp(2 pi (y + i theta))
    with y = moment_to_log_complex(pot, x), and back from w alone."""
    w = np.exp(2 * np.pi * (moment_to_log_complex(pot, x) + 1j * theta))
    xb = complex_to_moment_log(pot, np.log(np.abs(w)) / (2 * np.pi))
    return xb, np.mod(np.angle(w) / (2 * np.pi), 1.0)


@pytest.mark.parametrize("s", [0.0, 1.0, 10.0])
def test_legendre_round_trip_interval(s):
    P = interval(0, 3)
    pot = potential(P, s)
    x = interior_points(P, 200)
    theta = RNG.uniform(0, 1, size=x.shape)
    xb, tb = literal_chart_round_trip(pot, x, theta)
    assert np.max(np.abs(xb - x)) < 1e-10
    assert np.max(np.abs(np.mod(tb - theta + 0.5, 1.0) - 0.5)) < 1e-12


@pytest.mark.parametrize("s", [1.0, 100.0])
def test_legendre_round_trip_log_route(s):
    # exp(2 pi y) overflows for strong deformations; the log-coordinate pair
    # must invert where the literal complex chart cannot represent the point
    P = interval(0, 3)
    pot = potential(P, s)
    x = interior_points(P, 200)
    xb = complex_to_moment_log(pot, moment_to_log_complex(pot, x))
    assert np.max(np.abs(xb - x)) < 1e-10


def test_legendre_round_trip_3d():
    P = gc_polytope(3, (2, 1))
    pot = potential(P, 10.0)
    x = interior_points(P, 100)
    theta = RNG.uniform(0, 1, size=x.shape)
    xb, _ = literal_chart_round_trip(pot, x, theta)
    assert np.max(np.abs(xb - x)) < 1e-10


@given(st.floats(min_value=0.05, max_value=2.95))
@settings(max_examples=30, deadline=None)
def test_legendre_round_trip_property(x0):
    P = interval(0, 3)
    pot = potential(P, 10.0)
    xb, _ = literal_chart_round_trip(pot, np.array([x0]), np.array([0.25]))
    assert abs(xb[0, 0] - x0) < 1e-10


def test_moment_to_log_complex_rejects_wall():
    pot = potential(interval(0, 3))
    with pytest.raises(ValueError):
        moment_to_log_complex(pot, np.array([0.0]))


# -- section densities -----------------------------------------------------------


def test_density_deformation_factor_is_gaussian():
    # nu = x^2/2 with identity restriction: the s-dependent factor of the
    # log-density at m is exactly -2 pi s (|x-m|^2/2 - |m|^2/2 + const-free)
    P = interval(0, 3)
    m = np.array([1.0])
    x = interior_points(P, 50)
    base = section_log_density(potential(P, 0.0), m, x)
    for s in (5.0, 40.0):
        ld = section_log_density(potential(P, s), m, x)
        diff = ld - base
        expected = -2 * np.pi * s * (0.5 * x[:, 0] ** 2 - x[:, 0] * m[0])
        expected -= expected[0] - diff[0]  # common additive constant
        assert np.max(np.abs(diff - expected)) < 1e-9 * s


def alpha_reference(deformer, m, x):
    """alpha_m(x) = <x - m, grad nu~(x)> - nu~(x) with nu~ = nu o iota_star."""
    return np.einsum("...i,...i->...", x - m, deformer.grad(x)) - deformer.value(x)


def test_deformation_term_is_shifted_alpha():
    # nu has no linear term, so alpha_m(x) - alpha_m(m) = nu(iota_star(x - m)),
    # under the identity restriction and under the lab's 3 x 4 A
    model = GCTorusModel((2.0, 2.0))
    cases = [
        (box_polytope([(0, 3), (0, 2)]),
         ConvexDeformation(np.array([[2.0, 0.5], [0.5, 1.0]]))),
        (model.ambient_delta(),
         ConvexDeformation(np.eye(3), iota_star=model.A.astype(float))),
    ]
    for P, deformer in cases:
        x = interior_points(P, 200)
        m = interior_points(P, 1)[0]
        shifted = deformer.value(x - m)
        want = alpha_reference(deformer, m, x) - alpha_reference(deformer, m, m)
        assert np.max(np.abs(shifted - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert np.all(shifted >= 0.0)
        # the density subtracts 2 pi s times it from the canonical part
        pot = SymplecticPotential(P, 0.0, deformer)
        diff = section_log_density(pot.at_s(7.0), m, x) - section_log_density(pot, m, x)
        ref = -2 * np.pi * 7.0 * want
        assert np.max(np.abs(diff - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_density_wall_and_outside_behavior():
    P = interval(0, 3)
    pot = potential(P, 0.0)
    m = np.array([1.0])
    assert section_log_density(pot, m, np.array([[0.0]]))[0] == -np.inf
    with pytest.raises(ValueError):
        section_log_density(pot, m, np.array([[-0.5]]))


@pytest.mark.parametrize("s", [0.0, 10.0])
def test_density_allocates_one_support_matrix(s):
    # the support values are the only (points, facets) array: a second one,
    # such as an (lm - lx) temporary, lifts the traced peak past 2 of them
    P = box_polytope([(0, 3)] * 3)
    x, _ = polytope_grid(P, 96)
    support_bytes = x.shape[0] * len(P.facets) * x.itemsize
    tracemalloc.start()
    try:
        section_log_density(potential(P, s), np.array([1.0, 1.0, 1.0]), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * support_bytes


def test_density_matches_out_of_place_reference():
    # the in-place evaluation keeps the arithmetic of the plain formula, with
    # the deformation term shifted to vanish at m, bit for bit, on walls and
    # on walls shared with m (0 log 0 = 0) included; so does the s-sweep of
    # lab.concentration_sweep, b - 2 pi s q with b and q evaluated once
    P = box_polytope([(0, 3), (0, 2)])
    pts, _ = polytope_grid(P, 12)
    x = np.concatenate([pts, [[0.0, 1.0], [1.5, 0.0], [0.0, 0.0], [3.0, 2.0]]])
    for m in (np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([3.0, 0.0])):
        b = section_log_density(potential(P, 0.0), m, x)
        q = potential(P, 0.0).deformer.value(x - m)
        for s in (0.0, 7.0, 2000.0):
            pot = potential(P, s)
            lx = np.maximum(P.support_values(x), 0.0)
            lm = P.support_values(m)
            with np.errstate(divide="ignore", invalid="ignore"):
                loglx = np.where(lx > 0.0, np.log(np.where(lx > 0.0, lx, 1.0)), -np.inf)
                terms = np.where(lm == 0.0, 0.0, 0.5 * lm * loglx)
            ref = terms.sum(axis=-1) + 0.5 * (lm - lx).sum(axis=-1)
            ref = ref - 2 * np.pi * s * pot.deformer.value(x - m)
            assert np.array_equal(section_log_density(pot, m, x), ref)
            assert np.array_equal(b - toric.TWO_PI * s * q, ref)


def test_section_density_object_matches_function():
    P = interval(0, 3)
    pot = potential(P, 3.0)
    dens = SectionDensity(pot, np.array([1.0]))
    x = interior_points(P, 20)
    assert np.allclose(dens.log_magnitude(x), section_log_density(pot, np.array([1.0]), x))


# -- quadrature grid -------------------------------------------------------------


def test_polytope_grid_interior_and_volume():
    P = interval(0, 3)
    pts, logvol = polytope_grid(P, 128)
    assert P.contains(pts, strict=True).all()
    assert np.isclose(np.exp(logvol) * len(pts), 3.0)
    B = box_polytope([(0, 2), (0, 1)])
    pts2, lv2 = polytope_grid(B, 64)
    assert np.isclose(np.exp(lv2) * len(pts2), 2.0)


def test_polytope_grid_matches_meshgrid_order():
    # the points of meshgrid(indexing="ij") stacked, in that order, bit for bit
    B = box_polytope([(0, 2), (-1, 1), (0, 3)])
    pts, _ = polytope_grid(B, 5)
    axes = [lo + (hi - lo) / 5 * (np.arange(5) + 0.5) for lo, hi in B.bounding_box()]
    ref = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert np.array_equal(pts, ref)


def test_polytope_grid_point_limit(monkeypatch):
    B = box_polytope([(0, 1), (0, 1), (0, 1)])
    monkeypatch.setattr(toric, "MAX_GRID_POINTS", 8 ** 3)
    assert polytope_grid(B, 8)[0].shape == (8 ** 3, 3)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        polytope_grid(B, 9)


@pytest.mark.parametrize("P, box", [(box_polytope([(0, 3), (0, 2), (0, 1)]), True),
                                    (gc_polytope(3, (1, 1)), False)])
@pytest.mark.parametrize("block", ["above", "equal", "k_plus_r", 1])
def test_polytope_grid_blocks_match_one_block(monkeypatch, P, box, block):
    # the wall mask is evaluated block by block over the box points; N < BLOCK,
    # N = BLOCK and N = k BLOCK + r must all give the single-block grid; on
    # gc_polytope(3, (1, 1)) wall cells straddle the block boundaries
    per_axis = 8
    n = per_axis ** P.dim
    want, want_vol = polytope_grid(P, per_axis)
    size = {"above": n + 5, "equal": n, "k_plus_r": (n - 3) // 4}.get(block, block)
    monkeypatch.setattr(toric, "BLOCK", size)
    got, vol = polytope_grid(P, per_axis)
    assert np.array_equal(got, want)
    assert vol == want_vol
    assert (len(got) == n) == box


def test_polytope_grid_on_a_box_stays_below_four_grid_arrays():
    # the box points are the only (points, d) array: the mask is evaluated in
    # blocks, and a mask that keeps every point returns the points uncopied
    P = box_polytope([(0, 3)] * 3)
    n = 96 ** 3
    tracemalloc.start()
    try:
        pts, _ = polytope_grid(P, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.shape == (n, 3)
    assert peak < 4 * n * pts.itemsize


@pytest.mark.parametrize("P, checked", [
    (box_polytope([(0, 3), (0, 2), (0, 1)]), None),
    (GCTorusModel((1, 1)).image_delta(), ((-1, -1, 1),)),
    (gc_polytope(3, (1, 1)), None),
    # a box of width 0 along x2: h_2/2 = 0 does not clear 1e-9, so its walls
    # stay in the mask, which keeps no point
    (DelzantPolytope(2, (Facet((1, 0), 0), Facet((-1, 0), 3), Facet((0, 1), -1),
                         Facet((0, -1), 1))), ((0, 1), (0, -1))),
])
def test_polytope_grid_skips_only_box_walls_that_clear(monkeypatch, P, checked):
    # the wall mask leaves out the facets on the box's own bounds and keeps
    # the full mask's points, in order, bit for bit
    per_axis = 12
    axes = [lo + (hi - lo) / per_axis * (np.arange(per_axis) + 0.5)
            for lo, hi in P.bounding_box()]
    raw = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    want = raw[P.contains(raw, tol=1e-9, strict=True)]
    masks = []
    contains = DelzantPolytope.contains

    def recording_contains(self, p, tol=0.0, strict=False):
        masks.append(tuple(f.normal for f in self.facets))
        return contains(self, p, tol, strict)

    monkeypatch.setattr(DelzantPolytope, "contains", recording_contains)
    with np.errstate(divide="ignore"):  # the log cell volume of a flat box
        got, _ = polytope_grid(P, per_axis)
    assert np.array_equal(got, want)
    if checked is not None:
        assert set(masks) == ({checked} if checked else set())
    if P.dim == 2:
        assert len(got) == 0


def test_polytope_grid_masks_wall_cells():
    # non-box polytope: grid keeps only strictly interior midpoints
    P = gc_polytope(3, (1, 1))
    pts, _ = polytope_grid(P, 16)
    assert P.support_values(pts).min() > 0


# -- connection transport --------------------------------------------------------


def test_holonomy_matches_character():
    for x in np.linspace(0.05, 2.95, 13):
        h = holonomy(np.array([x]), 0)
        assert abs(h - np.exp(2j * np.pi * x)) < 1e-12
    assert abs(holonomy(np.array([0.5]), 0) + 1.0) < 1e-12
    assert abs(holonomy(np.array([2.0]), 0) - 1.0) < 1e-12


def test_holonomy_multiplicative_in_winding():
    x = np.array([0.37, 1.42])
    h1 = holonomy(x, 1)
    h3 = holonomy(x, 1, k=3)
    assert abs(h3 - h1 ** 3) < 1e-12


def test_bohr_sommerfeld_integrality():
    assert bohr_sommerfeld_test(np.array([1.0, 2.0]))
    assert bohr_sommerfeld_test(np.array([1.0 + 1e-12]))
    assert not bohr_sommerfeld_test(np.array([1.0, 0.5]))


def test_transport_phase_rectangle_loop():
    # oint x dtheta over the boundary of [xa,xb] x [0,dth] equals (xb-xa)*dth
    xa, xb, dth = 0.4, 1.9, 0.3
    xs = np.array([[xa], [xb], [xb], [xa], [xa]])
    th = np.array([[0.0], [0.0], [dth], [dth], [0.0]])
    ph = transport_phase(xs, th)
    assert abs(ph - np.exp(2j * np.pi * (xb - xa) * dth)) < 1e-12
    assert abs(abs(ph) - 1.0) < 1e-14


def test_transport_phase_shape_guard():
    with pytest.raises(ValueError):
        transport_phase(np.zeros((3, 1)), np.zeros((4, 1)))
