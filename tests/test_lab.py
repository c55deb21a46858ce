import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

import gcquant.lab
from gcquant import toric
from gcquant.flag import gc_map, random_flags
from gcquant.flow import DegenerationFamily, FlowSingularityError, loop_phase
from gcquant.lab import (
    ExperimentConfig,
    GCTorusModel,
    QuadratureError,
    analytic_decay_rate,
    combined_experiment,
    concentration_sup,
    concentration_sweep,
    decay_slope,
    delta_pairing,
    gc_vs_torus_moment_check,
    mass_decay_slope,
    outside_mass,
    section_equality_on_v0,
)
from gcquant.polytope import box_polytope, gc_polytope, interval
from gcquant.toric import (
    ConvexDeformation,
    SectionDensity,
    SymplecticPotential,
    g_can_grad,
    grid_sums,
    outside_ball,
    polytope_grid,
    section_log_density,
)

from test_acceptance import c09_holds, c09_points, circle_loops


# -- the rank-3 torus identification ---------------------------------------------


MODEL = GCTorusModel((2.0, 2.0))


@pytest.mark.parametrize("cls", [DegenerationFamily, GCTorusModel])
@pytest.mark.parametrize("a", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (0.0, 1.0),
                               (1.0,), (1.0, 1.0, 1.0)])
def test_weights_must_be_two_positive_finite_numbers(cls, a):
    # the family owns the check; the model inherits it by building its family
    with pytest.raises(ValueError, match="a must be two positive weights"):
        cls(a)


def test_model_kernel_direction():
    assert np.array_equal(MODEL.A @ MODEL.B, np.eye(3, dtype=np.int64))
    assert np.array_equal(MODEL.A @ MODEL.k, np.zeros(3, dtype=np.int64))
    # [B | k] is a lattice basis of Z^4, so A maps Z^4 onto Z^3
    P = np.column_stack([MODEL.B, MODEL.k])
    assert abs(round(np.linalg.det(P.astype(float)))) == 1
    # the facet slopes along k that the closed-form slice map relies on
    slopes = MODEL.ambient_delta().normal_matrix @ MODEL.k
    assert sorted(slopes) == [-1, -1, 0, 0, 1, 1]


@pytest.mark.parametrize("a", [(1.0, 1.0), (2.0, 1.0)])
def test_affine_map_carries_vertices_to_vertices(a):
    # the combinatorial fingerprint of the identification: a bijection on
    # vertex sets, checked as exact set equality
    model = GCTorusModel(a)
    V_gc = gc_polytope(3, a).vertices()
    V_img = model.image_delta().vertices()
    mapped = model.xi_of_pattern(V_gc)
    got = {tuple(np.round(v, 9)) for v in mapped}
    want = {tuple(np.round(v, 9)) for v in V_img}
    assert got == want
    assert len(got) == len(V_gc)


def test_xi_of_pattern_input_forms():
    xi1 = MODEL.xi_of_pattern(np.array([2.0, 3.0, 1.0]))
    xi2 = MODEL.xi_of_pattern((2.0, 3.0, 1.0))
    xi3 = MODEL.xi_of_pattern(np.array([[2.0, 3.0, 1.0]] * 2))
    assert np.allclose(xi1, xi2)
    assert np.allclose(xi3, xi1)
    # one form only: the flat (lam1_1, lam2_1, lam2_2)
    for bad in ((2.0, 3.0), np.ones((2, 4)), 2.0):
        with pytest.raises(ValueError, match="lam1_1, lam2_1, lam2_2"):
            MODEL.xi_of_pattern(bad)


def test_xi_of_pattern_batched():
    lam = np.array([[2.0, 3.0, 1.0], [1.0, 2.0, 1.0]])
    xi = MODEL.xi_of_pattern(lam)
    assert xi.shape == (2, 3)
    assert np.allclose(xi[0], MODEL.xi_of_pattern(lam[0]))


def test_conserved_coordinates_are_residual_torus_moments():
    xi = np.array([1.0, 1.0, 1.0])
    assert np.allclose(MODEL.conserved_coordinates(xi), [2.0, 2.0])


def test_lifts_of_interior_lattice_point():
    lifts = MODEL.lifts(np.array([1.0, 1.0, 1.0]))
    assert [tuple(l) for l in lifts] == [(0, 1, 0, 1), (1, 1, 1, 0)]
    amb = MODEL.ambient_delta()
    for l in lifts:
        assert l.dtype.kind == "i"
        assert np.allclose(MODEL.A @ l, [1.0, 1.0, 1.0])
        assert amb.contains(l.astype(float))
    # consecutive lifts differ by the kernel direction
    assert np.array_equal(lifts[1] - lifts[0], MODEL.k)


def test_slice_point_solves_constraints():
    xi = np.array([1.0, 1.0, 1.0])
    x = MODEL.slice_point(xi)
    a1 = MODEL.a[0]
    assert np.allclose(MODEL.A @ x, xi, atol=1e-12)
    # modulus condition of the degenerate-fiber torus orbit
    assert abs(x[0] * x[2] - (a1 - x[0] - x[1]) * x[3]) < 1e-12
    assert MODEL.ambient_delta().contains(x, strict=True)


def test_slice_point_batched_matches_scalar():
    rng = np.random.default_rng(21)
    img = MODEL.image_delta()
    pts = []
    while len(pts) < 12:
        cand = rng.uniform(0.05, 1.95, size=3)
        if img.support_values(cand).min() > 0.05:
            pts.append(cand)
    pts = np.array(pts)
    batched = MODEL.slice_point(pts)
    for i, xi in enumerate(pts):
        assert np.max(np.abs(batched[i] - MODEL.slice_point(xi))) < 1e-12


# one point on each facet of MODEL.image_delta(), interior to the other five;
# x1_2 >= 0 and a2 - x2_1 - x2_2 >= 0 are constant along k and show up as the
# walls xi2 >= 0 and xi3 <= a2
WALL_POINTS = {
    "xi1>=0": (0.0, 1.0, 1.0),
    "xi2>=0": (1.0, 0.0, 1.0),
    "xi3>=0": (0.5, 1.0, 0.0),
    "xi2<=a1": (0.5, 2.0, 1.5),
    "xi3<=a2": (1.0, 1.0, 2.0),
    "xi1+xi2-xi3<=a1": (1.5, 1.5, 1.0),
}


@pytest.mark.parametrize("wall", list(WALL_POINTS))
def test_slice_point_rejects_wall(wall):
    xi = np.array(WALL_POINTS[wall])
    vals = {f.label: v for f, v in zip(MODEL.image_delta().facets,
                                       MODEL.image_delta().support_values(xi))}
    assert vals.pop(wall) == 0.0 and min(vals.values()) > 0
    with pytest.raises(ValueError):
        MODEL.slice_point(xi)
    # one wall point spoils a batch
    with pytest.raises(ValueError):
        MODEL.slice_point(np.array([[1.0, 1.0, 1.0], xi]))


def test_slice_point_rejects_exterior_point():
    # xi2 > a1 + xi3: the fiber line misses the ambient polytope altogether
    with pytest.raises(ValueError):
        MODEL.slice_point(np.array([1.0, 3.0, 0.5]))


@pytest.mark.parametrize("a", [(1.0, 1.0), (2.0, 2.0), (3.0, 1.0)])
def test_slice_point_is_critical_along_the_fiber(a):
    # independent oracle: d/ds g_can(x + s k) = grad g_can(x) . k through toric
    model = GCTorusModel(a)
    img = model.image_delta()
    rng = np.random.default_rng(5)
    cand = rng.uniform(0.0, 1.0, size=(4000, 3)) * [a[0] + a[1], a[0], a[1]]
    xi = cand[img.support_values(cand).min(axis=-1) > 0.05][:200]
    assert xi.shape == (200, 3)
    x = model.slice_point(xi)
    assert np.max(np.abs(x @ model.A.T - xi)) <= 1e-12
    assert model.ambient_delta().contains(x, strict=True).all()
    phi = g_can_grad(model.ambient_delta(), x) @ model.k
    assert np.max(np.abs(phi)) <= 1e-12


@given(st.tuples(st.floats(0.1, 1.9), st.floats(0.1, 1.9), st.floats(0.1, 1.9)))
@settings(max_examples=40, deadline=None)
def test_slice_point_property(xi):
    xi = np.array(xi)
    assume(MODEL.image_delta().support_values(xi).min() > 0.05)
    x = MODEL.slice_point(xi)
    assert np.allclose(MODEL.A @ x, xi, atol=1e-11)
    a1 = MODEL.a[0]
    scale = max(1.0, np.abs(x).max()) ** 2
    assert abs(x[0] * x[2] - (a1 - x[0] - x[1]) * x[3]) < 1e-11 * scale


def test_v0_state_moment_anchors_slice():
    fam = MODEL.fam
    xi = np.array([1.0, 1.0, 1.0])
    st0 = MODEL.v0_state(xi)
    assert np.max(np.abs(fam.residual(st0))) < 1e-12
    assert np.allclose(st0.t, 0.0)
    x = fam.moment(st0)
    assert np.max(np.abs(x - MODEL.slice_point(xi))) < 1e-12
    assert np.allclose(MODEL.xi_of_state(st0), xi, atol=1e-12)
    # angles move the point but not its moment
    st1 = MODEL.v0_state(xi, theta_prime=(0.2, -0.3, 0.11))
    assert np.max(np.abs(st1.u - st0.u)) > 1e-3
    assert np.max(np.abs(fam.moment(st1) - x)) < 1e-12


def test_v0_state_fiber_check_can_fail():
    # the constructed point lies on the fiber only up to rounding, which the
    # weight ratio 1e4 lifts past the check's 1e-10
    model = GCTorusModel((1.0, 1e4))
    xi, _ = polytope_grid(model.image_delta(), 10)
    with pytest.raises(FlowSingularityError, match="misses the fiber"):
        model.v0_state(xi)


def test_v0_state_angle_map():
    # the phases of (u_2, u_3, w_13, w_23) relative to (u_1, w_12) are theta' A
    A = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1]])
    rng = np.random.default_rng(5)
    tp = rng.uniform(-1.0, 1.0, size=(8, 3))
    st = MODEL.v0_state(np.tile([1.0, 1.0, 1.0], (8, 1)), theta_prime=tp)
    rel = np.concatenate([st.u[:, 1:] / st.u[:, :1], st.w[:, 1:] / st.w[:, :1]], axis=1)
    diff = np.angle(rel) / (2 * np.pi) - tp @ A
    assert np.max(np.abs(diff - np.rint(diff))) < 1e-12


# c09 trips on a wrong input to the holonomy: the weights of the connection,
# or the direction of the loops


def c09_holonomies(model, xi, a, sign=1.0):
    return np.array([loop_phase(loop.u, loop.w, a) for loop in circle_loops(model, xi, sign)])


def test_c09_trips_on_swapped_weights():
    # O(a_2, a_1) in place of O(a_1, a_2): |h - exp(2 pi i xi_j)| >= 1.41 at every point
    model = GCTorusModel((3.0, 2.0))
    for xi in c09_points(model):
        h = c09_holonomies(model, xi, model.a[::-1])
        assert np.abs(h - np.exp(2j * np.pi * xi)).max() > 1.4
        assert not c09_holds(xi, h)


def test_c09_trips_on_a_weight_off_by_one():
    # a_1 + 1 at the lattice point (1, 1, 1): |h - 1| is 1.41 and 2.00 on circles 1 and 2
    xi = np.array([1.0, 1.0, 1.0])
    h = c09_holonomies(MODEL, xi, (MODEL.a[0] + 1.0, MODEL.a[1]))
    assert np.abs(h[:2] - 1.0).min() > 1.4
    assert not c09_holds(xi, h)


def test_c09_trips_on_reversed_loops():
    # theta' negated runs each circle backwards: h goes to its conjugate, 1.90 away
    xi = np.array([1.3, 0.7, 1.1])
    h = c09_holonomies(MODEL, xi, MODEL.a, sign=-1.0)
    assert np.abs(h - np.exp(2j * np.pi * xi)).max() > 1.8
    assert not c09_holds(xi, h)
    assert c09_holds(xi, c09_holonomies(MODEL, xi, MODEL.a))


def test_section_equality_on_shared_image():
    lifts = MODEL.lifts(np.array([1.0, 1.0, 1.0]))
    dev = section_equality_on_v0(lifts[0], lifts[1], samples=200, seed=1)
    assert dev < 1e-12
    # negative control: lifts of different points must separate
    other = MODEL.lifts(np.array([1.0, 1.0, 2.0]))[0]
    assert section_equality_on_v0(lifts[0], other, samples=200, seed=1) > 1e-2


def test_section_equality_input_guard():
    with pytest.raises(ValueError):
        section_equality_on_v0(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))


# -- quadrature functionals ------------------------------------------------------


def gaussian_density(s):
    P = interval(0, 3)
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(1))).at_s(s)
    return P, SectionDensity(pot, np.array([1.0]))


def grid_measure(P, dens, per_axis):
    """Midpoint points of P, dens's log densities on them and the log cell volume."""
    pts, log_vol = polytope_grid(P, per_axis)
    return pts, dens.log_magnitude(pts), log_vol


def test_outside_mass_against_adaptive_quadrature():
    P, dens = gaussian_density(25.0)
    eps = 0.3
    f = lambda t: np.exp(dens.log_magnitude(np.array([[t]]))[0])
    total, _ = quad(f, 0.0, 3.0, epsabs=0, epsrel=1e-11, limit=300)
    out = (quad(f, 0.0, 1.0 - eps, epsabs=0, epsrel=1e-11, limit=300)[0]
           + quad(f, 1.0 + eps, 3.0, epsabs=0, epsrel=1e-11, limit=300)[0])
    pts, logdens, log_vol = grid_measure(P, dens, 2048)
    mask = outside_ball(pts, np.array([1.0]), eps)
    got = outside_mass(logdens, log_vol, mask)
    assert abs(got - out / total) < 1e-4
    sup = concentration_sup(logdens, log_vol, mask)
    assert 0 < sup < f(1.0) / total


def test_outside_mass_empty_exclusion_raises():
    P, dens = gaussian_density(5.0)
    pts, logdens, log_vol = grid_measure(P, dens, 64)
    with pytest.raises(QuadratureError):
        outside_mass(logdens, log_vol, outside_ball(pts, np.array([1.0]), 10.0))


def test_delta_pairing_normalization_is_exact():
    P, dens = gaussian_density(40.0)
    pts, logdens, log_vol = grid_measure(P, dens, 256)
    assert delta_pairing(logdens, log_vol, np.ones(len(pts))) == 1.0
    pts, logdens, log_vol = grid_measure(P, dens, 1024)
    val = delta_pairing(logdens, log_vol, pts[:, 0])
    assert abs(val - 1.0) < 1e-2  # concentrating near m = 1


@pytest.mark.parametrize("dim, per_axis", [(1, 2048), (3, 24)])
@pytest.mark.parametrize("s", [0.0, 40.0, 2000.0])
def test_measure_matches_logsumexp_oracle(dim, per_axis, s):
    # the normalizer computed once per measure against the logsumexp and
    # max-shift formulas it replaced; at s = 2000 the outside masses are
    # near 1e-250
    from scipy.special import logsumexp

    P = box_polytope([(0, 3)] * dim)
    m = np.ones(dim)
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(dim))).at_s(s)
    pts, logdens, log_vol = grid_measure(P, SectionDensity(pot, m), per_axis)
    lw = logdens + log_vol
    log_total = logsumexp(lw)
    mask = outside_ball(pts, m, 0.3)
    oracle = {
        "log_total": log_total,
        "outside_mass": np.exp(logsumexp(lw[mask]) - log_total),
        "concentration_sup": np.exp(np.max(logdens[mask]) - log_total),
        "delta_pairing": (np.sum(pts[:, 0] * np.exp(lw - np.max(lw)))
                          / np.sum(np.exp(lw - np.max(lw)))),
    }
    got = {
        "log_total": grid_sums(logdens, log_vol).log_total,
        "outside_mass": outside_mass(logdens, log_vol, mask),
        "concentration_sup": concentration_sup(logdens, log_vol, mask),
        "delta_pairing": delta_pairing(logdens, log_vol, pts[:, 0]),
    }
    # a mass exp(u - log_total) is only as exact as the doubles holding u and
    # log_total: on the cube at s = 2000, log_total is 1.9e4 and its spacing
    # 3.6e-12, and the oracle itself is 2.2e-12 off a 200-bit sum
    slack = 2 * np.spacing(abs(log_total))
    for name, want in oracle.items():
        rtol = 1e-12 if name in ("log_total", "delta_pairing") else 1e-12 + slack
        assert abs(got[name] - want) <= rtol * abs(want), name
    if s == 2000.0:
        assert got["outside_mass"] < 1e-200


@pytest.mark.parametrize("s, rtol", [(40.0, 1e-14), (2000.0, 1e-13)])
def test_cube_mass_and_sup_against_200_bit_sum(s, rtol):
    # [0, 3]^3 at 24 points per axis, m = (1, 1, 1), eps = 0.3.  The density
    # is a product over the axes, f(x) = log(x)/2 + log(3 - x) - pi s (x - 1)^2
    # on each.  Every point inside the ball has its three indices in the
    # window W of the 4 points nearest 1, so the outside mass is the sum over
    # the triples not in W^3, S^3 - S_W^3 = S_O (S^2 + S S_W + S_W^2) with
    # S = S_W + S_O the 1-D sums, plus the 8 triples of W^3 outside the ball:
    # positive terms only, as 1 - inside/S^3 would cancel at s = 2000
    import mpmath

    P = box_polytope([(0, 3)] * 3)
    m = np.ones(3)
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(3)))
    pts, logdens, log_vol = grid_measure(P, SectionDensity(pot.at_s(s), m), 24)
    mask = outside_ball(pts, m, 0.3)
    got_mass = outside_mass(logdens, log_vol, mask)
    got_sup = concentration_sup(logdens, log_vol, mask)

    with mpmath.workprec(200):
        xs = [(mpmath.mpf(k) + 0.5) / 8 for k in range(24)]
        f = [mpmath.log(x) / 2 + mpmath.log(3 - x) - mpmath.pi * s * (x - 1) ** 2 for x in xs]
        window = [6, 7, 8, 9]
        s_w = mpmath.fsum(mpmath.exp(f[i]) for i in window)
        s_o = mpmath.fsum(mpmath.exp(f[i]) for i in range(24) if i not in window)
        total = (s_w + s_o) ** 3
        # squared offsets from 1 are dyadic, so these sums are exact doubles
        d2 = np.array([float((x - 1) ** 2) for x in xs])
        D = d2[:, None, None] + d2[None, :, None] + d2[None, None, :]
        corners = [(i, j, k) for i in window for j in window for k in window if D[i, j, k] > 0.09]
        assert len(corners) == 8 and np.count_nonzero(D <= 0.09) == 56
        outside = (s_o * ((s_w + s_o) ** 2 + (s_w + s_o) * s_w + s_w ** 2)
                   + mpmath.fsum(mpmath.exp(f[i] + f[j] + f[k]) for i, j, k in corners))
        want_mass = outside / total
        # the outside maximum is among the points whose double sum is near it
        fl = np.array([float(v) for v in f])
        F = fl[:, None, None] + fl[None, :, None] + fl[None, None, :]
        top = np.max(F[D > 0.09])
        near = np.argwhere((D > 0.09) & (F >= top - 1e-6))
        log_top = max(f[i] + f[j] + f[k] for i, j, k in near)
        want_sup = mpmath.exp(log_top) / (total / 8 ** 3)
        assert abs(got_mass - want_mass) <= rtol * want_mass
        assert abs(got_sup - want_sup) <= rtol * want_sup

    # the deformation term vanishes at m: the peak does not grow with s
    at_m = [SectionDensity(pot.at_s(v), m).log_magnitude(m[None])[0] for v in (0.0, s)]
    assert at_m[0] == at_m[1]


def recording_sweep_sums(monkeypatch):
    """Patch `lab.grid_sums` to record copies of the arguments of the sweep's
    calls: the canonical part b, the mask and (q, s); returns the list of
    records."""
    records = []

    def recording_grid_sums(logdens, log_vol, outside=None, values=None, deformed=None):
        if deformed is not None:
            q, s = deformed
            records.append((logdens.copy(), outside.copy(), q.copy(), s))
        return grid_sums(logdens, log_vol, outside, values, deformed)

    monkeypatch.setattr(gcquant.lab, "grid_sums", recording_grid_sums)
    return records


@pytest.mark.parametrize("dim, per_axis", [(1, 256), (3, 24)])
def test_sweep_matches_standalone_quadrature_bit_for_bit(monkeypatch, dim, per_axis):
    # the sweep evaluates the canonical part, the deformation term and the
    # exclusion mask once per grid; every density must still be the one
    # computed at that s alone, and every reduction that of the standalone
    # functionals on it, which make the same pass
    P = box_polytope([(0, 3)] * dim)
    m = np.ones(dim)
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(dim)))
    x, log_vol = polytope_grid(P, per_axis)
    values = {"one": np.ones(len(x)), "x1": x[..., 0]}
    svals = [0.0, 7.0, 2000.0]
    mask = outside_ball(x, m, 0.3)
    records = recording_sweep_sums(monkeypatch)
    for s, sums in zip(svals, concentration_sweep(pot, m, x, svals, x, log_vol, m, 0.3, values),
                       strict=True):
        ref = section_log_density(pot.at_s(s), m, x)
        b, _, q, _ = records[-1]
        assert np.array_equal(b - toric.TWO_PI * s * q, ref)
        assert sums == grid_sums(ref, log_vol, mask, values)
        assert sums.mass == outside_mass(ref, log_vol, mask)
        assert sums.sup == concentration_sup(ref, log_vol, mask)
        assert sums.pairings == {name: delta_pairing(ref, log_vol, v)
                                 for name, v in values.items()}
        assert sums.pairings["one"] == 1.0


def test_sweep_allocates_no_grid_sized_array_per_s():
    # each s is one grid_sums pass over the s-independent b and q with
    # block-sized buffers: past the setup and the first s, the traced peak of
    # the sweep stays below one (N,) float64 array (2 MB on 64^3 points)
    import tracemalloc

    P = box_polytope([(0, 3)] * 3)
    m = np.ones(3)
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(3)))
    x, log_vol = polytope_grid(P, 64)
    sweep = concentration_sweep(pot, m, x, [5.0, 10.0, 20.0, 40.0], x, log_vol, m, 0.3,
                                {"one": 1.0, "x1": x[..., 0]})
    tracemalloc.start()
    try:
        next(sweep)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rest = list(sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rest) == 3
    assert peak - base < 8 * len(x)


def assert_reductions_close(got, want):
    """The bounds of test_measure_matches_logsumexp_oracle: 1e-12 relative on
    the total mass (absolute on its log) and the pairings, plus the spacing
    of log_total on exp(u - log_total); a constant pairs to exactly 1."""
    slack = 2 * np.spacing(abs(want.log_total))
    assert abs(got.log_total - want.log_total) <= 1e-12 + slack
    for name in ("mass", "sup"):
        assert abs(getattr(got, name) - getattr(want, name)) <= \
            (1e-12 + slack) * abs(getattr(want, name)), name
    assert got.pairings.keys() == want.pairings.keys()
    for name, value in want.pairings.items():
        assert abs(got.pairings[name] - value) <= 1e-12 * abs(value), name
    assert got.pairings["one"] == want.pairings["one"] == 1.0


@pytest.mark.parametrize("P, m, walls", [
    (box_polytope([(0, 3), (0, 2)]), (1.0, 1.0), [[0.0, 1.0], [1.5, 0.0], [0.0, 0.0], [3.0, 2.0]]),
    (box_polytope([(0, 3), (0, 2)]), (0.0, 1.0), [[0.0, 1.0], [1.5, 0.0], [0.0, 0.0], [3.0, 2.0]]),
    (gc_polytope(3, (1, 1)), (1.0, 1.5, 0.5), [[0.0, 1.0, 0.0], [1.0, 1.0, 0.5], [2.0, 2.0, 1.0]]),
    (gc_polytope(3, (1, 1)), (1.0, 1.0, 0.0), [[0.0, 1.0, 0.0], [1.0, 1.0, 0.5], [2.0, 2.0, 1.0]]),
])
@pytest.mark.parametrize("block", ["above", "equal", "k_plus_r", 1])
def test_sweep_blocks_match_one_block(monkeypatch, P, m, walls, block):
    # b, q and the exclusion mask are filled block by block, and each s is
    # reduced block by block; N < BLOCK, N = BLOCK and N = k BLOCK + r must
    # all give the single-block b, q and mask bit for bit and the
    # single-block reductions to rounding, with m on a wall and grid points
    # on walls (-inf densities)
    m = np.array(m)
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(P.dim)))
    pts, log_vol = polytope_grid(P, 10)
    x = np.concatenate([pts[: len(pts) // 2], walls, pts[len(pts) // 2:]])
    values = {"one": 1.0, "x1": x[..., 0]}
    svals = [0.0, 7.0, 2000.0]
    records = recording_sweep_sums(monkeypatch)

    def sweep():
        return list(concentration_sweep(pot, m, x, svals, x, log_vol, m, 0.3, values))

    want = sweep()
    n = len(x)
    size = {"above": n + 5, "equal": n, "k_plus_r": (n - 3) // 4}.get(block, block)
    monkeypatch.setattr(toric, "BLOCK", size)
    got = sweep()
    for sums, want_sums in zip(got, want, strict=True):
        assert_reductions_close(sums, want_sums)
    b, mask, q, _ = records[0]
    assert len(records) == 2 * len(svals)
    for rec_b, rec_mask, rec_q, _ in records:
        assert np.array_equal(rec_b, b) and np.array_equal(rec_q, q)
        assert np.array_equal(rec_mask, mask)
    assert [s for *_, s in records] == svals + svals
    assert np.isneginf(b).any()


def test_sweep_block_of_wall_points_adds_nothing(monkeypatch):
    # a whole block of -inf densities (wall points) between finite blocks is
    # skipped: no NaN, and the reductions of one block to rounding
    P = box_polytope([(0, 3), (0, 2)])
    m = np.array([1.0, 1.0])
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(2)))
    pts, log_vol = polytope_grid(P, 10)
    walls = [[0.0, 1.0], [1.5, 0.0], [0.0, 0.0], [3.0, 2.0]]
    x = np.concatenate([pts[:40], walls, pts[40:]])
    values = {"one": 1.0, "x1": x[..., 0]}

    def sweep():
        return list(concentration_sweep(pot, m, x, [0.0, 7.0, 2000.0], x, log_vol, m, 0.3,
                                        values))

    want = sweep()
    records = recording_sweep_sums(monkeypatch)
    monkeypatch.setattr(toric, "BLOCK", len(walls))
    for sums, want_sums in zip(sweep(), want, strict=True):
        assert np.isfinite([sums.log_total, sums.mass, sums.sup, *sums.pairings.values()]).all()
        assert_reductions_close(sums, want_sums)
    b = records[0][0]
    assert np.isneginf(b[40:44]).all() and np.isfinite(b[:40]).all()


def test_grid_sums_scalar_pairs_to_exactly_its_value():
    # a constant test function pairs to exactly its value, not to a ratio of
    # two block sums that round apart; an array keeps its block pass and its
    # place among the pairings; with zero total mass every pairing is NaN
    rng = np.random.default_rng(5)
    consts = {"0.1": 0.1, "0.3": 0.3, "1/3": 1 / 3, "2.7": 2.7, "-1.3": -1.3, "1": 1}
    for _ in range(20):
        logdens = 10.0 * rng.standard_normal(50_000)
        assert grid_sums(logdens, -3.0, values=consts).pairings == consts
    phi = rng.standard_normal(50_000)
    mixed = grid_sums(logdens, -3.0, values={"c": 2.7, "phi": phi, "one": 1.0}).pairings
    assert list(mixed.items()) == [("c", 2.7), ("phi", delta_pairing(logdens, -3.0, phi)),
                                   ("one", 1.0)]
    with np.errstate(invalid="ignore"):
        walls = grid_sums(np.full(10, -np.inf), 0.0, values={"c": 2.7, "phi": np.arange(10.0)})
    assert all(math.isnan(p) for p in walls.pairings.values())


def test_concentration_sup_reads_the_mask_in_place():
    # the max over the mask, as the max of the masked copy; -inf on walls
    logdens = np.array([0.5, -np.inf, 2.0, -1.0, 3.0])
    log_total = grid_sums(logdens, 0.0).log_total
    for mask in ([0, 1, 1, 1, 0], [0, 1, 0, 1, 0], [0, 1, 0, 0, 0], [1, 1, 1, 1, 1]):
        mask = np.array(mask, dtype=bool)
        want = float(np.exp(np.max(logdens[mask]) - log_total))
        assert concentration_sup(logdens, 0.0, mask) == want
    with pytest.raises(QuadratureError, match="covers the whole quadrature grid"):
        concentration_sup(logdens, 0.0, np.zeros(5, dtype=bool))


@pytest.mark.parametrize("eps, message", [(10.0, "covers the whole quadrature grid"),
                                          (1e-3, "contains no quadrature point")])
def test_sweep_raises_for_a_ball_without_inside_or_outside(eps, message):
    # 1 is 7.8e-3 from the nearest midpoint of the 64-point grid on [0, 3]
    P = interval(0, 3)
    m = np.array([1.0])
    pot = SymplecticPotential(P, 0.0, ConvexDeformation(np.eye(1)))
    x, log_vol = polytope_grid(P, 64)
    with pytest.raises(QuadratureError, match=message):
        next(concentration_sweep(pot, m, x, [5.0], x, log_vol, m, eps, {}))


def test_decay_slope_recovers_exact_exponential():
    s = np.array([5.0, 10.0, 20.0, 40.0])
    rate = -0.37
    assert abs(decay_slope(s, np.exp(rate * s)) - rate) < 1e-12
    with pytest.raises(ValueError):
        decay_slope([1.0], [1.0])
    with pytest.raises(ValueError):
        decay_slope([1.0, 2.0], [1.0, -1.0])
    # the samples a mass slope is fitted to: s > 0 and a positive mass
    masses = np.exp(rate * s)
    assert mass_decay_slope([0.0, *s, 80.0], [1.0, *masses, 0.0]) == decay_slope(s, masses)
    assert mass_decay_slope([0.0, 5.0, 10.0], [1.0, 0.5, 0.0]) is None


def test_analytic_decay_rate_quadratic():
    d = ConvexDeformation(np.diag([1.0, 3.0]))
    assert np.isclose(analytic_decay_rate(d, 0.3, 0.0), 2 * np.pi * 0.5 * 0.09)
    assert np.isclose(analytic_decay_rate(d, 0.3, 0.1),
                      2 * np.pi * (0.5 * 0.09 - 1.5 * 0.01))


# -- the schedule ----------------------------------------------------------------


def test_exp_schedule_contract():
    # t(s) = exp(-s / schedule_rate): t(0) = 1, decreasing, nonnegative s only
    cfg = ExperimentConfig(s_grid=(0.0, 1.0, 5.0, 20.0), schedule_rate=5.0,
                           per_axis=6, flow_per_axis=2)
    ts = [c.t for c in combined_experiment(cfg).cells]
    assert ts[0] == 1.0
    assert all(b < a for a, b in zip(ts, ts[1:]))
    assert np.isclose(ts[2], math.exp(-1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(s_grid=(-1.0, 5.0))
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ExperimentConfig(schedule_rate=rate)


# -- experiment configuration and runs -------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(s_grid=(5.0, 5.0))
    with pytest.raises(ValueError):
        ExperimentConfig(s_grid=(-1.0, 5.0))
    for s_grid in ((0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError):
            ExperimentConfig(s_grid=s_grid)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ExperimentConfig(eps=eps)
    for scale in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            ExperimentConfig(nu_scale=scale)
    with pytest.raises(ValueError):
        ExperimentConfig(per_axis=1)


def test_combined_experiment_boundary_pattern_rejected():
    cfg = ExperimentConfig(a=(2.0, 2.0), pattern=(0.0, 2.0, 0.0),
                           s_grid=(0.0,), per_axis=8, flow_per_axis=4)
    with pytest.raises(ValueError):
        combined_experiment(cfg)


def test_combined_experiment_small_run():
    cfg = ExperimentConfig(a=(2.0, 2.0), pattern=(2.0, 3.0, 1.0),
                           s_grid=(0.0, 5.0, 10.0), per_axis=12,
                           flow_per_axis=5)
    rep = combined_experiment(cfg)
    assert [c.s for c in rep.cells] == [0.0, 5.0, 10.0]
    assert rep.cells[0].t == 1.0
    assert rep.monotone
    assert not rep.incomplete
    masses = [c.outside_mass for c in rep.cells]
    assert all(0.0 <= m <= 1.0 for m in masses)
    assert masses[0] > masses[1] > masses[2]
    for c in rep.cells:
        assert c.pairings["one"] == pytest.approx(1.0, abs=1e-12)
        assert c.flow_failures == 0
        assert 0.0 <= c.outside_mass_flow <= 1.0
        assert c.flow_points > 0
    assert rep.slope < 0
    # lift is the lexicographically smallest preimage of xi*
    assert tuple(rep.lift) == (0, 1, 0, 1)
    assert np.allclose(rep.xi_star, [1.0, 1.0, 1.0])


def test_chained_flow_matches_independent_flows(monkeypatch):
    # the one flow chained through the scheduled t lands where independent
    # flows from the degenerate fiber to each t land
    segments = []
    orig = DegenerationFamily.flow

    def recording(self, state, tau, **kw):
        res = orig(self, state, tau, **kw)
        segments.append((self, state, res))
        return res

    monkeypatch.setattr(DegenerationFamily, "flow", recording)
    cfg = ExperimentConfig(a=(2.0, 2.0), pattern=(2.0, 3.0, 1.0),
                           s_grid=(0.0, 5.0, 10.0), per_axis=10, flow_per_axis=5)
    rep = combined_experiment(cfg)
    monkeypatch.undo()
    fam, v0, _ = segments[0]
    ts = sorted(c.t for c in rep.cells if c.t > 0)
    assert len(segments) == len(ts) == 3
    for t, (_, _, chained) in zip(ts, segments):
        alone = fam.flow(v0, -t)
        assert np.max(np.abs(fam.moment(chained.state) - fam.moment(alone.state))) < 1e-10


def test_point_failing_late_keeps_earlier_t(monkeypatch):
    # the batched flow fails and the per-point fallback runs; a point failing
    # on its last segment (up to t = 1) still counts for the smaller t
    orig = DegenerationFamily.flow
    point_calls = []

    def failing(self, state, tau, **kw):
        if state.batch_shape != ():
            raise FlowSingularityError("batched flow")
        point_calls.append(tau)
        if len(point_calls) == 3:
            raise FlowSingularityError("first point, segment up to t = 1")
        return orig(self, state, tau, **kw)

    monkeypatch.setattr(DegenerationFamily, "flow", failing)
    cfg = ExperimentConfig(s_grid=(0.0, 5.0, 10.0), per_axis=10, flow_per_axis=4)
    rep = combined_experiment(cfg)
    assert [c.flow_failures for c in rep.cells] == [1, 0, 0]
    assert rep.incomplete


def test_s0_cell_equals_undeformed_baseline():
    # the reported s = 0 cell must be reproducible from public pieces alone:
    # undeformed ambient density at the slice points, no schedule, no flow
    from scipy.special import logsumexp

    from gcquant.toric import polytope_grid

    cfg = ExperimentConfig(a=(2.0, 2.0), pattern=(2.0, 3.0, 1.0),
                           s_grid=(0.0, 5.0), per_axis=14, flow_per_axis=4)
    rep = combined_experiment(cfg)
    cell0 = rep.cells[0]
    assert cell0.t == 1.0
    assert rep.cells[1].t == math.exp(-5.0 / cfg.schedule_rate)

    model = GCTorusModel(cfg.a)
    xi_star = model.xi_of_pattern(cfg.pattern)
    img = model.image_delta()
    pts, log_vol = polytope_grid(img, cfg.per_axis)
    pts = pts[img.support_values(pts).min(axis=-1) > 1e-9]
    lift = model.lifts(xi_star)[0]
    deformer = ConvexDeformation(cfg.nu_scale * np.eye(3),
                                 iota_star=model.A.astype(float))
    pot = SymplecticPotential(model.ambient_delta(), 0.0, deformer).at_s(0.0)
    dens = SectionDensity(pot, tuple(lift.astype(float)))
    logdens = dens.log_magnitude(model.slice_point(pts))
    mask = np.linalg.norm(pts - xi_star, axis=-1) > cfg.eps
    assert cell0.outside_mass == grid_sums(logdens, log_vol, mask).mass
    lw = logdens + log_vol
    oracle = float(np.exp(logsumexp(lw[mask]) - logsumexp(lw)))
    assert abs(cell0.outside_mass - oracle) <= 1e-13 * oracle


def test_flow_route_measure_takes_the_flow_grid_cell_volume(monkeypatch):
    # the flowed points are the coarse grid's: their measure has its cells.
    # Each flowed s is one `grid_sums` call, and the flow grid's exclusion
    # mask is computed once for all s
    log_vols = {"sweep": [], "flow": []}
    mask_sizes = []

    def recording_grid_sums(logdens, log_vol, *args, **kwargs):
        log_vols["sweep" if "deformed" in kwargs else "flow"].append(log_vol)
        return grid_sums(logdens, log_vol, *args, **kwargs)

    def recording_ball(labels, center, eps):
        mask_sizes.append(len(labels))
        return outside_ball(labels, center, eps)

    monkeypatch.setattr(gcquant.lab, "grid_sums", recording_grid_sums)
    monkeypatch.setattr(gcquant.lab, "outside_ball", recording_ball)
    # the 1.0-ball holds some but not all of the 4-per-axis flow grid
    cfg = ExperimentConfig(s_grid=(0.0, 5.0), eps=1.0, per_axis=10, flow_per_axis=4)
    rep = combined_experiment(cfg)
    img = GCTorusModel(cfg.a).image_delta()
    xi_flow, flow_log_vol = polytope_grid(img, cfg.flow_per_axis)
    xi_pts, log_vol = polytope_grid(img, cfg.per_axis)
    assert flow_log_vol != log_vol
    assert log_vols == {"sweep": [log_vol, log_vol], "flow": [flow_log_vol, flow_log_vol]}
    assert sorted(mask_sizes) == sorted([len(xi_pts), len(xi_flow)])
    assert all(0.0 < c.outside_mass_flow < 1.0 for c in rep.cells)


@pytest.mark.parametrize("eps, mass_flow", [(0.3, 1.0), (2.5, 0.0)])
def test_flow_route_ball_covering_none_or_all_coarse_points(monkeypatch, eps, mass_flow):
    # at 3 points per axis the flow grid's point nearest xi* = (1, 1, 1) is
    # 1/3 away, so the 0.3-ball holds none of its points, and the 2.5-ball
    # holds all of them; the 12-per-axis grid of the sweep has points on both
    # sides of either ball.  The flow route then reports exactly 1 or 0 and
    # reduces nothing
    cfg = ExperimentConfig(s_grid=(0.0, 5.0, 10.0), eps=eps, per_axis=12, flow_per_axis=3)
    img = GCTorusModel(cfg.a).image_delta()
    xi_star = np.ones(3)
    fine, coarse = polytope_grid(img, cfg.per_axis)[0], polytope_grid(img, cfg.flow_per_axis)[0]
    assert 0 < outside_ball(fine, xi_star, eps).sum() < len(fine)
    out = outside_ball(coarse, xi_star, eps)
    assert out.all() == out.any() == bool(mass_flow)
    reduced = []

    def recording_grid_sums(logdens, log_vol, *args, **kwargs):
        reduced.append("deformed" in kwargs)
        return grid_sums(logdens, log_vol, *args, **kwargs)

    monkeypatch.setattr(gcquant.lab, "grid_sums", recording_grid_sums)
    rep = combined_experiment(cfg)
    assert [c.outside_mass_flow for c in rep.cells] == [mass_flow] * 3
    assert all(0.0 < c.outside_mass < 1.0 for c in rep.cells[:2])
    assert reduced == [True] * 3


def test_gc_check_chained_gaps_match_independent_flows():
    # the one flow chained down through the t values gives the gaps of
    # independent flows from t = 1 to each t
    ts, a, samples, seed = [0.2, 0.05, 0.1, 0.02], (1.0, 1.0), 6, 3
    chained = gc_vs_torus_moment_check(ts, samples=samples, a=a, seed=seed)
    model = GCTorusModel(a)
    fam = model.fam
    flags = random_flags(3, samples, seed=seed)
    xi_start = model.xi_of_pattern(gc_map(flags, a))
    v1 = fam.embed_flag(flags, 1.0)
    for t, gap in zip(ts, chained):
        alone = fam.flow(v1, 1.0 - t).state
        assert abs(gap - np.max(np.abs(model.xi_of_state(alone) - xi_start))) < 1e-10


def test_gc_vs_torus_trend():
    d_coarse, d_fine = gc_vs_torus_moment_check([0.1, 0.02], samples=5, seed=0)
    assert d_fine < d_coarse
    with pytest.raises(ValueError):
        gc_vs_torus_moment_check([0.5])
