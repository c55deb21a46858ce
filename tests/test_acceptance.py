"""Acceptance suite: one test per shipped guarantee, tolerances stated inline.

Each test prints a single [c##] PASS line with the measured margin so a plain
`pytest -v tests/test_acceptance.py` reads as a checklist.  Criteria 5-9 are
exact-invariant checks; 7, 10 and 11 are quantitative trends with analytic or
cross-route oracles.
"""

import numpy as np
import pytest

from gcquant.flag import (
    gc_map,
    moment_matrix,
    pluecker_levels,
    random_flags,
)
from gcquant import flow
from gcquant.flow import DegenerationFamily, loop_phase, torus_loop
from gcquant.lab import (
    ExperimentConfig,
    GCTorusModel,
    analytic_decay_rate,
    combined_experiment,
    decay_slope,
    delta_pairing,
    gc_vs_torus_moment_check,
    outside_mass,
    section_equality_on_v0,
)
from gcquant.polytope import gc_polytope, gc_weight, interval, weyl_dim
from gcquant.toric import (
    ConvexDeformation,
    SectionDensity,
    SymplecticPotential,
    complex_to_moment_log,
    moment_to_log_complex,
    outside_ball,
    polytope_grid,
)


def report(tag, detail):
    print(f"[{tag}] PASS {detail}")


def test_c01_lattice_counts_equal_weyl_dimensions():
    """Exact integer equality |Delta_GC ∩ Z^d| = weyl_dim for four cases."""
    cases = [(2, (1,), 2), (3, (1, 1), 8), (3, (2, 1), 15), (4, (1, 1, 1), 64)]
    for n, a, expected in cases:
        count = len(gc_polytope(n, a).lattice_points())
        dim = weyl_dim(gc_weight(a))
        assert count == dim == expected, (n, a, count, dim)
    report("c01", "counts 2/8/15/64 exact")


def test_c02_moment_spectrum_and_interlacing_1000_flags():
    """1000 random flags: moment spectrum (2,1,0) within 1e-10; patterns lie
    in the polytope within 1e-10.  The polytope's walls are the interlacing
    inequalities against the exact top row lambda(a), and the spectrum check
    pins the pattern's top row, the spectrum of the whole moment matrix, to
    lambda(a): together they are the interlacing of all three rows."""
    a = (1.0, 1.0)
    flags = random_flags(3, 1000, seed=202)
    ev = np.linalg.eigvalsh(moment_matrix(flags, a))
    worst_spec = float(np.max(np.abs(ev - [0.0, 1.0, 2.0])))
    margin = float(gc_polytope(3, a).support_values(gc_map(flags, a)).min())
    assert worst_spec < 1e-10
    assert margin >= -1e-10
    report("c02", f"spectrum dev {worst_spec:.2e} < 1e-10, min support {margin:.2e} "
                  ">= -1e-10 over 1000 flags")


def test_c03_deformed_relation_residual_and_t1_exactness():
    """Residual of q1 q23 - q2 q13 + t q3 q12 below 1e-12 * scale over 1000
    random (V, t); deformed minors at t = 1 equal plain minors bitwise."""
    rng = np.random.default_rng(303)
    V = rng.standard_normal((1000, 3, 3)) + 1j * rng.standard_normal((1000, 3, 3))
    t = rng.uniform(0.01, 2.0, size=1000)
    lv1, lv2 = pluecker_levels(V, t)
    resid = lv1[:, 0] * lv2[:, 2] - lv1[:, 1] * lv2[:, 1] + t * lv1[:, 2] * lv2[:, 0]
    scale = np.abs(lv1).max(axis=-1) * np.abs(lv2).max(axis=-1)
    rel = np.max(np.abs(resid) / scale)
    assert rel < 1e-12
    l1, l2 = pluecker_levels(V, np.ones(1000))
    p1, p2 = pluecker_levels(V)
    assert np.array_equal(l1, p1) and np.array_equal(l2, p2)
    for Vi in V[:25]:
        for q, plain in zip(pluecker_levels(Vi, 1.0), pluecker_levels(Vi)):
            assert np.array_equal(q, plain)
    report("c03", f"relation residual {rel:.2e} < 1e-12, t=1 bitwise equal")


def test_c04_legendre_round_trip_1000_points():
    """max |x - xhat| < 1e-10 over 1000 interior points, canonical potential
    and s-deformed variants, s in {1, 10, 100}."""
    rng = np.random.default_rng(404)
    P = GCTorusModel((2.0, 2.0)).image_delta()
    pts = []
    while len(pts) < 1000:
        cand = rng.uniform(0.0, 2.0, size=(4000, 3))
        keep = P.support_values(cand).min(axis=-1) > 0.02
        pts.extend(cand[keep])
    x = np.array(pts[:1000])
    theta = rng.uniform(0, 1, size=x.shape)
    deform = ConvexDeformation(np.eye(3))
    worst = 0.0
    for s in (0.0, 1.0, 10.0, 100.0):
        pot = SymplecticPotential(P, 0.0, deform).at_s(s)
        xb = complex_to_moment_log(pot, moment_to_log_complex(pot, x))
        worst = max(worst, float(np.max(np.abs(xb - x))))
    assert worst < 1e-10
    # literal complex-chart route where exp(2 pi y) is representable: the
    # angles ride along in w and drop out of |w|
    pot = SymplecticPotential(P, 0.0, deform).at_s(1.0)
    w = np.exp(2 * np.pi * (moment_to_log_complex(pot, x[:100]) + 1j * theta[:100]))
    xb = complex_to_moment_log(pot, np.log(np.abs(w)) / (2 * np.pi))
    assert np.max(np.abs(xb - x[:100])) < 1e-10
    report("c04", f"round-trip dev {worst:.2e} < 1e-10 over 1000 points, s up to 100")


def test_c05_flow_time_direction_and_symplectic_pairing(monkeypatch):
    """tau = 0.5: |dt - tau| < 1e-10; the field tangent to the total space,
    |dF(Z)| < 1e-12 at the flowed points; pairing drift < 1e-6 at
    FLOW_TOL = 1e-10, the drift ratio between FLOW_TOL = 1e-8 and 1e-10 in
    [20, 500]; the moved frame tangent to the end's fiber, |dF(v)| and |v_t|
    below 100 FLOW_TOL at both tolerances.

    The exact flow maps the fiber over t onto the fiber over t - tau, so its
    linearization maps the fiber's tangent vectors (dF(v) = 0, v_t = 0) onto
    those of the end's fiber.  `transport_frame` integrates the vectors with
    the point, under one error control over both, and returns them
    unprojected: what they miss of the end's tangent space is integration
    error.  Each DOP853 step's combined error estimate, built from its
    fifth- and third-order estimates, is below FLOW_TOL in every coordinate,
    and the eighth-order solution that is carried is more accurate than
    those estimates, so after a segment of a few to tens of steps the
    vectors and the point are within a few FLOW_TOL of the exact linearized
    flow.  dF(v) = sum_k dF_k v_k has seven coefficients of modulus at
    most 1 (|u| = |w| = 1, |t| <= 1), so |dF(v)| is within a small multiple
    of FLOW_TOL of 0 too.  100 FLOW_TOL is that allowance with room:
    measured on this point, |dF(v)| is 7.0e-11 at 1e-8 and 1.4e-12 at
    1e-10, and at most 1.5e-12 at 1e-10 over seeds 101-104.

    Every check runs at a = (1, 1) and again at the asymmetric a = (3, 2),
    where a metric that confuses the two weights differs from the true one;
    measured there: pairing drift 3.1e-12, tolerance ratio 38.6."""

    def dF(state):
        """dF of F = u1 w23 - u2 w13 + t u3 w12 in the coordinates (u, w, t)."""
        (u1, u2, u3), (w12, w13, w23), t = state.u.T, state.w.T, state.t
        return np.stack([w23, -w13, t * w12, t * u3, -u2, u1, u3 * w12], axis=-1)

    worst = {"dt": 0.0, "dfz": 0.0, "d10": 0.0, "ratio": []}
    tangency = 0.0
    for a in ((1.0, 1.0), (3.0, 2.0)):
        fam = DegenerationFamily(a)
        st = fam.embed_flag(random_flags(3, 4, seed=100), 1.0)
        res = fam.flow(st, 0.5)
        assert res.t_deviation < 1e-10

        Z, _ = fam.z_field(res.state)
        dfz = float(np.max(np.abs(np.sum(dF(res.state) * Z, axis=-1))))
        assert dfz < 1e-12

        p = fam.embed_flag(random_flags(3, 1, seed=101), 1.0)[0]
        frame = fam.tangent_frame(p)
        o0 = fam.omega_matrix(frame)

        def drift(tol):
            nonlocal tangency
            monkeypatch.setattr(flow, "FLOW_TOL", tol)
            end, moved = fam.transport_frame(p, frame, 0.5)
            assert abs(end.t - (p.t - 0.5)) < 1e-10
            off = max(float(np.max(np.abs(moved @ dF(end)))),
                      float(np.max(np.abs(moved[:, 6]))))
            assert off < 100 * tol
            tangency = max(tangency, off / tol)
            return float(np.abs(fam.omega_matrix(fam.project(end, moved)) - o0).max())

        d8, d10 = drift(1e-8), drift(1e-10)
        assert d10 < 1e-6
        assert 20.0 <= d8 / d10 <= 500.0
        worst["dt"] = max(worst["dt"], res.t_deviation)
        worst["dfz"] = max(worst["dfz"], dfz)
        worst["d10"] = max(worst["d10"], d10)
        worst["ratio"].append(f"{d8 / d10:.1f}")
    report("c05", f"dt dev {worst['dt']:.2e}, |dF(Z)| {worst['dfz']:.1e}, pairing drift "
                  f"{worst['d10']:.2e}, tolerance ratio {'/'.join(worst['ratio'])} at "
                  f"a = (1, 1)/(3, 2), tangency {tangency:.2f} FLOW_TOL < 100")


def test_c06_prequantum_transport_and_loop_holonomy():
    """Holonomy of 5 fiber loops agrees within 1e-5 between the start of two
    chained 0.15 flows and their ends at tau = 0.15 (midpoint) and tau = 0.3
    (end), at a = (1, 1) and at the asymmetric a = (3, 2), where the loop
    phase weighs the u and w loops differently (measured there: 2.9e-8)."""
    worst = {"mid": 0.0, "end": 0.0}
    for a in ((1.0, 1.0), (3.0, 2.0)):
        fam = DegenerationFamily(a)
        base = fam.embed_flag(random_flags(3, 1, seed=102), 1.0)[0]
        mid = fam.flow(base, 0.15).state
        end = fam.flow(mid, 0.15).state
        assert abs(mid.t - (base.t - 0.15)) < 1e-10

        def holonomy(state, k):
            loop = torus_loop(state, k, samples=8192)
            return loop_phase(loop.u, loop.w, a)

        for k in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 1)]:
            hb = holonomy(base, k)
            for name, state in (("mid", mid), ("end", end)):
                worst[name] = max(worst[name], abs(holonomy(state, k) - hb))
    assert max(worst.values()) < 1e-5
    report("c06", f"loop dev {worst['mid']:.2e} at tau 0.15, {worst['end']:.2e} at tau 0.3 "
                  "< 1e-5 at a = (1, 1) and (3, 2)")


def test_c07_toric_delta_concentration_on_p1():
    """Interval [0, 3], nu = x^2/2, m = 1, eps = 0.3: outside-mass log-slope
    within 15% of -2 pi C1 eps^2 across s in {20, 40, 80, 160}; <x, tau> -> 1
    within 1e-3 at s = 200; <1, tau> = 1 within 1e-6 at every s."""
    P = interval(0, 3)
    deform = ConvexDeformation(np.eye(1))
    base = SymplecticPotential(P, 0.0, deform)
    m = np.array([1.0])
    eps = 0.3
    svals = [20.0, 40.0, 80.0, 160.0]
    masses = []
    pts, log_vol = polytope_grid(P, 4096)
    outside = outside_ball(pts, m, eps)
    for s in svals:
        dens = SectionDensity(base.at_s(s), m)
        logdens = dens.log_magnitude(pts)
        masses.append(outside_mass(logdens, log_vol, outside))
        one = delta_pairing(logdens, log_vol, np.ones(len(pts)))
        assert abs(one - 1.0) < 1e-6
    slope = decay_slope(svals, masses)
    target = -analytic_decay_rate(deform, eps, 0.0)
    rel = abs(slope - target) / abs(target)
    assert rel < 0.15
    dens200 = SectionDensity(base.at_s(200.0), m)
    px = delta_pairing(dens200.log_magnitude(pts), log_vol, pts[:, 0])
    assert abs(px - 1.0) < 1e-3
    report("c07", f"slope {slope:.5f} vs {target:.5f} ({100 * rel:.1f}% < 15%), "
                  f"<x,tau>(200) dev {abs(px - 1.0):.2e}")


def test_c08_section_restriction_depends_only_on_image():
    """Two integer lifts of one interior lattice point: max discrepancy of the
    restricted monomial sections on 500 samples < 1e-10; a lift pair with
    different images exceeds 1e-2."""
    model = GCTorusModel((2.0, 2.0))
    lifts = model.lifts(np.array([1.0, 1.0, 1.0]))
    assert len(lifts) >= 2
    dev = section_equality_on_v0(lifts[0], lifts[1], samples=500, seed=808)
    assert dev < 1e-10
    other = model.lifts(np.array([1.0, 1.0, 2.0]))[0]
    ctrl = section_equality_on_v0(lifts[0], other, samples=500, seed=808)
    assert ctrl > 1e-2
    report("c08", f"shared-image dev {dev:.2e} < 1e-10, control {ctrl:.2e} > 1e-2")


# c09 reads the prequantum holonomy along the three circles theta' = s e_j,
# s = k/N for k < N, of the degenerate fiber over xi.  On circle j the
# coordinates u_i and w_i keep their moduli and turn at integer rates n_i, the
# entries of A's row j, which are 0 or 1.  Each of the N segments of
# `loop_phase` reads arg sum_i |u_i|^2 exp(i phi_i), phi_i = 2 pi n_i / N, in
# place of the exact sum_i |u_i|^2 phi_i.  The two differ by minus a sixth of
# the third cumulant of phi under the weights |u_i|^2, up to O(N^-5).  With
# rates 0 and 1 that cumulant is p (1 - p) (1 - 2 p) (2 pi / N)^3, where p is
# the weight of rate 1, so it is at most (2 pi / N)^3 / (6 sqrt 3) in size.
# Over N segments of a_1 du + a_2 dw, the phase misses 2 pi xi_j by at most
# (2 pi)^3 (a_1 + a_2) / (36 sqrt 3 N^2): 2.96e-7 at a = (3, 2) and N = 8192,
# under C09_BOUND by a factor 3.4.
C09_SAMPLES = 8192
C09_BOUND = 1e-6


def c09_points(model):
    """The strictly interior points of the image polytope on the half-integer
    grid."""
    img = model.image_delta()
    axes = [np.arange(2 * lo, 2 * hi + 1) / 2 for lo, hi in img.bounding_box()]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, img.dim)
    return grid[img.contains(grid, strict=True)]


def circle_loops(model, xi, sign=1.0):
    """The loops theta' = sign s e_j, s = k/C09_SAMPLES, of the degenerate
    fiber over xi, one batched State per circle j."""
    s = sign * np.arange(C09_SAMPLES) / C09_SAMPLES
    for e in np.eye(3):
        yield model.v0_state(np.broadcast_to(xi, (C09_SAMPLES, 3)), theta_prime=np.outer(s, e))


def c09_holds(xi, h) -> bool:
    """The holonomies h on the three circles equal exp(2 pi i xi_j) within
    C09_BOUND, and are all trivial exactly when xi is a lattice point."""
    character = np.abs(h - np.exp(2j * np.pi * xi)).max() < C09_BOUND
    trivial = np.abs(h - 1.0).max() < C09_BOUND
    return bool(character and trivial == np.array_equal(xi, np.rint(xi)))


def test_c09_holonomy_character_and_integrality():
    """At a = (3, 2), on the 60 interior half-integer points xi of the image
    polytope, the loop holonomy around each circle of the degenerate fiber
    equals exp(2 pi i xi_j) within 1e-6 at N = 8192; it is trivial on all
    three circles exactly at the 3 lattice points."""
    model = GCTorusModel((3.0, 2.0))
    points = c09_points(model)
    worst, trivial = 0.0, 0
    for xi in points:
        h = np.array([loop_phase(loop.u, loop.w, model.a) for loop in circle_loops(model, xi)])
        assert c09_holds(xi, h), (xi, h)
        worst = max(worst, float(np.abs(h - np.exp(2j * np.pi * xi)).max()))
        trivial += bool(np.abs(h - 1.0).max() < C09_BOUND)
    assert (len(points), trivial) == (60, 3)
    report("c09", f"loop dev {worst:.2e} < 1e-6 at N = {C09_SAMPLES} on {len(points)} "
                  f"half-integer points, trivial at the {trivial} lattice points only")


def test_c10_combined_experiment_concentration_trend():
    """Default configuration, s-grid {0, 5, 10, 20, 40}: outside mass strictly
    decreasing with final value < 0.1; constant-function pairing 1 +- 1e-3 at
    every s; every flowed cell keeps the residual-torus moments within the
    CLI gate's 1e-6 (torus_moment_drift).  The same at the asymmetric weights
    a = (3, 2), pattern 2;4,1, where a metric with a_1 and a_2 exchanged
    leaves the masses as they are and only the drift shows it."""
    details = []
    for cfg in (ExperimentConfig(), ExperimentConfig(a=(3.0, 2.0), pattern=(2.0, 4.0, 1.0))):
        rep = combined_experiment(cfg)
        masses = [c.outside_mass for c in rep.cells]
        assert [c.s for c in rep.cells] == [0.0, 5.0, 10.0, 20.0, 40.0]
        assert all(b < a for a, b in zip(masses, masses[1:])), masses
        assert masses[-1] < 0.1
        for c in rep.cells:
            assert abs(c.pairings["one"] - 1.0) <= 1e-3
        assert rep.monotone and not rep.incomplete
        drift = [c.torus_moment_drift for c in rep.cells if c.flow_points]
        assert len(drift) == len(rep.cells) and max(drift) <= 1e-6, drift
        details.append(f"a={cfg.a}: mass {masses[0]:.3f} -> {masses[-1]:.2e} strictly "
                       f"decreasing, pairing dev "
                       f"{max(abs(c.pairings['one'] - 1.0) for c in rep.cells):.1e}, "
                       f"drift {max(drift):.1e}")
    report("c10", "; ".join(details))


def test_c11_gc_torus_consistency_trend():
    """Flow-vs-identification discrepancy shrinks with t: value at t = 0.02
    below the value at t = 0.1 on a 20-sample ensemble, at the weights
    a = (1, 1), (2, 1) and (3, 2)."""
    details = []
    for a in ((1.0, 1.0), (2.0, 1.0), (3.0, 2.0)):
        d_coarse, d_fine = gc_vs_torus_moment_check([0.1, 0.02], samples=20, a=a, seed=0)
        assert d_fine < d_coarse, a
        details.append(f"a={a}: {d_coarse:.2e} @ t=0.1 -> {d_fine:.2e} @ t=0.02")
    report("c11", "discrepancy " + "; ".join(details))
