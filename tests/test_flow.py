import math

import numpy as np
import pytest

from gcquant import flow
from gcquant.flag import pluecker_levels, random_flag, random_flags
from gcquant.flow import (
    _DP,
    FLOW_TOL,
    DegenerationFamily,
    FlowSingularityError,
    State,
    _dp_step,
    loop_phase,
    torus_loop,
)
from gcquant.lab import ExperimentConfig, GCTorusModel
from gcquant.toric import polytope_grid

# a closed form that divides by zero fails its test instead of yielding NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

A = (1.0, 1.0)
FAM = DegenerationFamily(A)


def embedded_batch(count=8, t=1.0, seed=0):
    return FAM.embed_flag(random_flags(3, count, seed=seed), t)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def random_parts(shape, seed=0):
    """Generic complex (u, w, t) of one batch shape, off the unit spheres."""
    rng = np.random.default_rng(seed)

    def c(s):
        return rng.standard_normal(s) + 1j * rng.standard_normal(s)

    return c(shape + (3,)), c(shape + (3,)), c(shape)


BATCH_SHAPES = [(), (1,), (5,), (2, 3)]


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_state_holds_its_parts_bit_for_bit(shape):
    u, w, t = (np.array(x) for x in random_parts(shape))
    st = State(u, w, t)
    assert st.batch_shape == shape
    assert same_bits(st.u, u) and same_bits(st.w, w) and same_bits(st.t, t)
    assert same_bits(st.y, np.concatenate([np.moveaxis(u, -1, 0), np.moveaxis(w, -1, 0),
                                           t[None]]))
    # the state copies its parts: writing into them leaves it as it was
    parts = u.copy(), w.copy(), t.copy()
    for x in (u, w, t):
        x[...] = 0.0
    assert all(same_bits(a, b) for a, b in zip((st.u, st.w, st.t), parts))
    with pytest.raises(ValueError):
        State(u, w, np.zeros(shape + (2,)))


@pytest.mark.parametrize("shape, indices", [
    ((5,), [3, slice(1, 3), np.array([True, False, True, True, False]), (Ellipsis, 0)]),
    ((2, 3), [1, slice(1, 3), np.array([[True, False, True], [False, False, True]]),
              (Ellipsis, 0)]),
])
def test_state_indexing_selects_points(shape, indices):
    u, w, t = random_parts(shape, seed=1)
    st = State(u, w, t)
    for idx in indices:
        pts = (idx if isinstance(idx, tuple) else (idx,)) + (slice(None),)
        sub = st[idx]
        assert same_bits(sub.u, u[pts]) and same_bits(sub.w, w[pts]) and same_bits(sub.t, t[idx])


def reshaped(st, shape):
    return State(st.u.reshape(shape + (3,)), st.w.reshape(shape + (3,)), st.t.reshape(shape))


@pytest.mark.parametrize("shape, flat", [((2, 3), (6,)), ((), (1,))])
def test_kernels_do_not_depend_on_batch_shape(shape, flat):
    # the same points in another batch shape give the same bits; a single
    # point is the one-point batch
    u, w, t = random_parts(shape, seed=2)
    flags = random_flags(3, int(np.prod(shape)), seed=4).reshape(shape + (3, 3))
    on = FAM.embed_flag(flags, t)
    noisy = State(on.u + 1e-4 * u, on.w + 1e-4 * w, on.t)
    assert np.max(np.abs(FAM.residual(noisy))) > 1e-6
    for st in (FAM.normalize(u, w, t), noisy):
        ref = reshaped(st, flat)
        Z, gn = FAM.z_field(st)
        Z_ref, gn_ref = FAM.z_field(ref)
        assert same_bits(Z, Z_ref.reshape(shape + (7,)))
        assert same_bits(gn, gn_ref.reshape(shape))
        assert same_bits(FAM.residual(st), FAM.residual(ref).reshape(shape))
        assert same_bits(FAM.moment(st), FAM.moment(ref).reshape(shape + (4,)))
    fixed, fixed_ref = FAM.retract(noisy), FAM.retract(reshaped(noisy, flat))
    assert same_bits(fixed.y, fixed_ref.y.reshape((7,) + shape))


def test_embed_flag_lies_on_family():
    st = embedded_batch(16)
    assert np.max(np.abs(FAM.residual(st))) < 1e-13
    # chart normalization
    assert np.allclose(np.sum(np.abs(st.u) ** 2, axis=-1), 1.0, atol=1e-13)
    assert np.allclose(np.sum(np.abs(st.w) ** 2, axis=-1), 1.0, atol=1e-13)


def test_embed_flag_matches_deformed_minors():
    V = random_flag(3, seed=6)
    t = 0.7
    st = FAM.embed_flag(V, t)
    lv1, lv2 = pluecker_levels(V, t)
    # proportional up to the chart scaling: cross terms vanish
    for got, ref in ((st.u, lv1), (st.w, lv2)):
        outer = got[..., :, None] * ref[..., None, :]
        assert np.max(np.abs(outer - outer.swapaxes(-1, -2))) < 1e-12 * np.abs(ref).max()


def test_moment_in_ambient_simplex_product():
    st = embedded_batch(32, seed=3)
    x = FAM.moment(st)
    assert x.shape == (32, 4)
    assert x.min() > -1e-12
    assert np.max(x[:, 0] + x[:, 1]) <= A[0] + 1e-12
    assert np.max(x[:, 2] + x[:, 3]) <= A[1] + 1e-12


def test_z_field_time_component_is_minus_one():
    st = embedded_batch(8, seed=1)
    Z, gn = FAM.z_field(st)
    assert np.max(np.abs(Z[..., 6] + 1.0)) < 1e-13
    assert np.min(gn) > 0


def project_reference(fam, state, vec, fiber=False):
    """Metric-orthogonal projection of vectors (..., 7) onto the null space of
    the tangent conditions, by a Gram solve in metric-orthonormal (scaled)
    coordinates: the gauge rows <u, du> = 0, <w, dw> = 0, the linearized
    defining equation and, on the fiber, dt = 0."""
    u, w, t = state.u, state.w, state.t
    s = fam._scale
    m = 4 if fiber else 3
    C = np.zeros(state.batch_shape + (m, 7), dtype=complex)
    C[..., 0, 0:3] = np.conj(u) / s[0]
    C[..., 1, 3:6] = np.conj(w) / s[3]
    C[..., 2, 0:3] = np.stack([w[..., 2], -w[..., 1], t * w[..., 0]], axis=-1) / s[0]
    C[..., 2, 3:6] = np.stack([t * u[..., 2], -u[..., 1], u[..., 0]], axis=-1) / s[3]
    C[..., 2, 6] = u[..., 2] * w[..., 0]
    if fiber:
        C[..., 3, 6] = 1.0
    zhat = np.asarray(vec, dtype=complex) * s
    G = C @ np.conj(np.swapaxes(C, -1, -2))
    sol = np.linalg.solve(G, np.einsum("...kj,...j->...k", C, zhat)[..., None])[..., 0]
    return (zhat - np.einsum("...kj,...k->...j", np.conj(C), sol)) / s


def off_sphere_states(t, n=64, seed=17):
    """n generic states at t, off the unit spheres and off the hypersurface,
    as RK stages are."""
    u, w, _ = random_parts((n,), seed=seed)
    return State(u, w, np.full(n, t, dtype=complex))


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_z_field_matches_generic_projection(t):
    # Z = -grad(Re t)/|grad|^2 with grad the projection of e_t, through the
    # generic Gram solve
    a = (2.0, 0.7)
    fam = DegenerationFamily(a)
    st = off_sphere_states(t)
    e_t = np.zeros((64, 7), dtype=complex)
    e_t[:, 6] = 1.0
    grad = project_reference(fam, st, e_t)
    metric = np.array([a[0] / np.pi] * 3 + [a[1] / np.pi] * 3 + [1.0])
    norm2 = np.sum(metric * np.abs(grad) ** 2, axis=-1)
    Z_ref = -grad / norm2[:, None]
    Z, gn = fam.z_field(st)
    rel = np.linalg.norm(Z - Z_ref, axis=-1) / np.linalg.norm(Z_ref, axis=-1)
    assert np.max(rel) < 1e-13
    assert np.max(np.abs(gn / np.sqrt(norm2) - 1.0)) < 1e-13


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0 + 0.5j])
def test_project_matches_gram_solve(t, batched):
    # the fiber projection, on a batch of states with one vector each, or at
    # one point against a stack of vectors, as frame transport calls it
    fam = DegenerationFamily((2.0, 0.7))
    st = off_sphere_states(t, n=50, seed=23)
    rng = np.random.default_rng(24)
    vec = rng.standard_normal((50, 7)) + 1j * rng.standard_normal((50, 7))
    if not batched:
        st = st[3]
    got = fam.project(st, vec)
    assert np.max(np.abs(got - project_reference(fam, st, vec, fiber=True))) < 1e-14


@pytest.mark.parametrize("t", [0.0, 0.6])
def test_tangent_frame_is_orthonormal_fiber_basis(t):
    fam = DegenerationFamily((1.0, 2.0))
    st = fam.embed_flag(random_flag(3, seed=8), t)
    frame = fam.tangent_frame(st)
    zh = frame * fam._scale
    assert np.max(np.abs(np.real(zh @ np.conj(zh.T)) - np.eye(6))) < 1e-14
    assert np.max(np.abs(frame[1::2] - 1j * frame[0::2])) == 0.0
    assert np.max(np.abs(project_reference(fam, st, frame, fiber=True) - frame)) < 1e-14


def test_z_field_guard_at_singular_point():
    # u = e_3, w = (1, 0, 0), t = 0: dF vanishes except along dt, so the
    # gradient of Re t has no tangential part
    st = State(np.array([[1, 0, 0], [0, 0, 1]]), np.array([[1, 0, 0], [1, 0, 0]]),
               np.zeros(2))
    assert np.max(np.abs(FAM.residual(st))) == 0.0
    FAM.z_field(st[:1])
    with pytest.raises(FlowSingularityError, match="gradient norm 0.000e"):
        FAM.z_field(st)
    with pytest.raises(FlowSingularityError):
        FAM.z_field(st[1])


def test_fiber_projection_guard_at_singular_point():
    # at the point above P = 0 the fiber's tangent conditions drop rank
    st = State(np.array([0, 0, 1]), np.array([1, 0, 0]), 0.0)
    with pytest.raises(FlowSingularityError, match=r"\|dF\| 0.000e\+00 <= 1.0e-08"):
        FAM.project(st, np.eye(7))
    with pytest.raises(FlowSingularityError):
        FAM.tangent_frame(st)


def counting_z_field(monkeypatch, limit=None):
    """Record the batch shape of every z_field call; past `limit` calls the
    flow counts as hung."""
    calls = []
    z_field = DegenerationFamily.z_field

    def counted(self, state, *args, **kwargs):
        calls.append(state.batch_shape)
        assert limit is None or len(calls) <= limit, "flow does not stop"
        return z_field(self, state, *args, **kwargs)

    monkeypatch.setattr(DegenerationFamily, "z_field", counted)
    return calls


def oversize_first_step(monkeypatch, factor=1e3):
    first_step = flow._first_step
    monkeypatch.setattr(flow, "_first_step", lambda *args: factor * first_step(*args))


def test_controlled_flow_evaluation_counts(monkeypatch):
    # 6 field evaluations per attempted step, accepted or rejected (the last
    # stage of one is the first of the next), plus 2 per segment: the start
    # field and the starting-step probe
    calls = counting_z_field(monkeypatch)
    res = FAM.flow(embedded_batch(3), 0.5)
    assert res.rejected == 0 and res.steps > 1
    assert calls == [(3,)] * (6 * res.steps + 2)
    calls.clear()
    oversize_first_step(monkeypatch)
    res = FAM.flow(embedded_batch(3), 0.5)
    assert res.rejected > 0
    assert calls == [(3,)] * (6 * (res.steps + res.rejected) + 2)


def test_flow_leaves_its_input_untouched():
    st = embedded_batch(4, seed=3)
    p = st[1]
    frame = FAM.tangent_frame(p)
    before = st.y.copy(), p.y.copy(), frame.copy()
    FAM.flow(st, 0.1, keep_states=True)
    FAM.transport_frame(p, frame, 0.1)
    assert all(same_bits(a, b) for a, b in zip((st.y, p.y, frame), before))


@pytest.mark.parametrize("tau", [1e-20, -1e-150])
def test_controlled_flow_spans_below_step_floor(tau):
    # the step floor bounds the controller's proposals, not a segment
    # shorter than the floor
    st = embedded_batch(2)
    res = FAM.flow(st, tau)
    assert res.steps == 1 and res.rejected == 0
    assert res.t_deviation < 1e-15


@pytest.fixture(scope="module")
def lab_flow_grid():
    # the flow grid and scheduled t of lab combined at flow_per_axis = 5,
    # with reference moments at each t from scipy's DOP853 on the
    # unretracted field at a tolerance far below FLOW_TOL
    from scipy.integrate import solve_ivp

    cfg = ExperimentConfig(flow_per_axis=5)
    model = GCTorusModel(cfg.a)
    img = model.image_delta()
    pts, _ = polytope_grid(img, cfg.flow_per_axis)
    pts = pts[img.support_values(pts).min(axis=-1) > 1e-9]
    fam = model.fam
    v0 = model.v0_state(pts)
    ts = sorted({math.exp(-s / cfg.schedule_rate) for s in cfg.s_grid})

    def backwards(_, y):
        return -fam.z_field(State._of_rows(y.reshape(v0.y.shape)))[0].T.ravel()

    sol = solve_ivp(backwards, (0.0, ts[-1]), v0.y.ravel(), method="DOP853", t_eval=ts,
                    rtol=1e-12, atol=1e-13)
    assert sol.success
    ref = [fam.moment(State._of_rows(y.reshape(v0.y.shape))) for y in sol.y.T]
    return fam, v0, ts, ref


@pytest.mark.parametrize("oversize", [False, True])
def test_controlled_flow_matches_dop853_reference(lab_flow_grid, monkeypatch, oversize):
    fam, v0, ts, ref = lab_flow_grid
    if oversize:
        oversize_first_step(monkeypatch)
    cur, t_prev, rejected = v0, 0.0, 0
    for t, x_ref in zip(ts, ref):
        res = fam.flow(cur, -(t - t_prev))
        cur, t_prev, rejected = res.state, t, rejected + res.rejected
        assert np.max(np.abs(cur.t - t)) < 1e-12
        assert np.max(np.abs(fam.moment(cur) - x_ref)) < 1e-9
    assert (rejected > 0) == oversize


@pytest.mark.parametrize("tol", [FLOW_TOL, 1e-6])
def test_flow_stays_near_fiber_without_retraction(lab_flow_grid, monkeypatch, tol):
    # the integrator's points before any retraction stay within 1e-10 of the
    # hypersurface and the unit spheres, and only because FLOW_TOL is tight
    fam, v0, ts = lab_flow_grid[:3]
    monkeypatch.setattr(flow, "FLOW_TOL", tol)
    cur, t_prev, drift = v0, 0.0, 0.0
    for t in ts:
        res = fam.flow(cur, -(t - t_prev), keep_states=True)
        for st in res.states[1:]:
            drift = max(drift, np.max(np.abs(fam.residual(st))),
                        np.max(np.abs(np.linalg.norm(st.u, axis=-1) - 1.0)),
                        np.max(np.abs(np.linalg.norm(st.w, axis=-1) - 1.0)))
        cur, t_prev = res.state, t
    assert (drift < 1e-10) == (tol == FLOW_TOL)


@pytest.mark.parametrize("eps", [0.03, 0.1, 0.3])
def test_controlled_flow_through_singular_point_raises(monkeypatch, eps):
    # u = (eps, 0, 1), w = (1, 0, -eps) at t = eps^2 lies on the vanishing
    # cycle of the singular point of test_z_field_guard_at_singular_point:
    # its flow reaches that point at t = 0 and cannot go on to t = -eps^2
    st = FAM.retract(FAM.normalize(np.array([eps, 0, 1]), np.array([1, 0, -eps]), eps ** 2))
    assert np.max(np.abs(FAM.residual(st))) < 1e-15
    counting_z_field(monkeypatch, limit=10_000)
    with pytest.raises(FlowSingularityError):
        FAM.flow(st, 2 * eps ** 2)


@pytest.mark.parametrize("eps, steps, rejected", [(0.03, 45, 22), (0.1, 51, 24), (0.3, 60, 25)])
def test_controlled_flow_rejections_near_singular_point(eps, steps, rejected):
    # the start above, flowed to just short of the singular point: the step
    # controller rejects about one step per two accepted ones on the approach,
    # since the step accepted after a rejection proposes no longer a step.
    # Exact pins, so that a better controller shows as smaller counts.
    st = FAM.retract(FAM.normalize(np.array([eps, 0, 1]), np.array([1, 0, -eps]), eps ** 2))
    res = FAM.flow(st, 0.999999 * eps ** 2)
    assert (res.steps, res.rejected) == (steps, rejected)


def test_retract_restores_fiber_and_fixes_t():
    rng = np.random.default_rng(12)
    st = embedded_batch(8, seed=2)
    noisy = State(
        st.u + 1e-4 * (rng.standard_normal(st.u.shape) + 1j * rng.standard_normal(st.u.shape)),
        st.w + 1e-4 * (rng.standard_normal(st.w.shape) + 1j * rng.standard_normal(st.w.shape)),
        st.t,
    )
    assert np.max(np.abs(FAM.residual(noisy))) > 1e-6
    fixed = FAM.retract(noisy)
    assert np.max(np.abs(FAM.residual(fixed))) < 1e-12
    assert np.array_equal(fixed.t, st.t)
    assert np.max(np.abs(fixed.y - noisy.y)) < 1e-3


def retract_reference(state):
    """The retraction on point-major (N, 3) u and w: Gauss-Newton on the
    defining equation plus per-factor renormalization."""
    u, w, t = state.u.copy(), state.w.copy(), state.t
    scale = np.maximum(1.0, np.abs(t))
    for _ in range(20):
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
        F = u[..., 0] * w[..., 2] - u[..., 1] * w[..., 1] + t * u[..., 2] * w[..., 0]
        if np.all(np.abs(F) <= 1e-12 * scale):
            return np.concatenate([u, w, t[..., None]], axis=-1)
        J = np.stack([w[..., 2], -w[..., 1], t * w[..., 0],
                      t * u[..., 2], -u[..., 1], u[..., 0]], axis=-1)
        step = -np.conj(J) * (F / (np.abs(J) ** 2).sum(axis=-1))[..., None]
        u = u + step[..., 0:3]
        w = w + step[..., 3:6]
    raise AssertionError("reference retraction stalled")


# Dormand-Prince 5(4) (Dormand and Prince, J. Comput. Appl. Math. 6, 1980),
# written out weight by weight: the stage rows, whose last row holds the
# fifth-order weights, and the embedded fourth-order weights.
DP_STAGES = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_FOURTH = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def dp_step_reference(f, y, h):
    """One Dormand-Prince step of y' = f(y) on point-major y (N, 7), each
    stage sum taken weight by weight: the fifth-order point and the error
    estimate, the fifth- minus the fourth-order increment, with the stages."""
    k = [f(y)]
    for row in DP_STAGES:
        yi = y.copy()
        for a, kj in zip(row, k):
            yi = yi + (h * a) * kj
        k.append(f(yi))
    fifth = DP_STAGES[-1] + (0.0,)
    err = sum((h * (b5 - b4)) * kj for b5, b4, kj in zip(fifth, DP_FOURTH, k))
    return yi, err, np.array(k)


def test_dormand_prince_tableau():
    A = _DP
    assert A.shape == (7, 7) and np.array_equal(A, np.tril(A))
    for row, ref in zip(A, DP_STAGES):
        assert np.array_equal(row[:len(ref)], ref)
    # row sums are the nodes; the fifth-order weights sum to 1 and the error
    # weights, fifth- minus fourth-order, to 0
    nodes = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    assert np.max(np.abs(A[:6].sum(axis=1) - nodes)) < 1e-15
    assert abs(A[5].sum() - 1.0) < 1e-15
    assert abs(A[6].sum()) < 1e-15
    assert np.max(np.abs(A[6] - (A[5] - DP_FOURTH))) < 1e-16


@pytest.mark.parametrize("n", [1, 20, 475])
def test_stepper_matches_point_major_reference(n):
    # one backward step (the sign rides the tableau row) of the contracted
    # step against the weight-by-weight reference on the signed field
    st = embedded_batch(n, t=0.7, seed=n)

    def field(y, out):
        FAM.z_field(State._of_rows(y), _out=out)

    K = np.empty((7,) + st.y.shape, dtype=complex)
    field(st.y, K[0])
    h = 0.05
    new = np.empty_like(st.y)
    err, _ = _dp_step(field, st.y, K, -h, new)
    ref, ref_err, k = dp_step_reference(
        lambda y: -FAM.z_field(State._of_rows(y.T))[0], st.y.T.copy(), h)
    assert np.max(np.abs(new.T - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the error estimate cancels terms of size h |K| down to about 1e-10, so
    # it agrees relative to that size
    assert abs(err * FLOW_TOL - np.max(np.abs(ref_err))) <= 1e-14 * h * np.max(np.abs(k))
    # and the estimate itself lies far above that agreement (about 1e-5 FLOW_TOL)
    assert err > 1e-3
    # first same as last: the last stage is the field at the new point itself
    at_new = np.empty_like(new)
    field(new, at_new)
    assert same_bits(K[6], at_new)


def test_retract_matches_point_major_reference(lab_flow_grid):
    rng = np.random.default_rng(21)
    n = 475
    t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    on = FAM.embed_flag(random_flags(3, n, seed=22), t)

    def noise():
        return 1e-4 * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))

    noisy = State(on.u + noise(), on.w + noise(), on.t)
    assert np.max(np.abs(FAM.residual(noisy))) > 1e-6
    # lab combined's flow grid flowed for 0.05, then 0.05 more: the end point
    # the flow's one retraction receives
    fam, v0 = lab_flow_grid[:2]
    cur = fam.flow(v0, -0.05).state
    raw = fam.flow(cur, -0.05, keep_states=True).states[-1]
    for st in (noisy, raw):
        assert np.max(np.abs(fam.retract(st).y.T - retract_reference(st))) < 1e-14


def test_flow_step_bookkeeping():
    st = embedded_batch(2)
    res = FAM.flow(st, 0.105, keep_states=True)
    assert res.steps > 1
    assert len(res.states) == res.steps + 1
    # one state per accepted step, each further down in Re t
    re_t = np.array([s.t.real for s in res.states])
    assert np.all(np.diff(re_t, axis=0) < 0)
    assert np.max(np.abs(re_t[-1] - 0.895)) < 1e-12
    zero = FAM.flow(st, 0.0)
    assert zero.steps == 0 and zero.t_deviation == 0.0


def test_zero_flow_records_start(monkeypatch):
    st = embedded_batch(2)
    frame = FAM.tangent_frame(st[0])
    calls = counting_z_field(monkeypatch)
    zero = FAM.flow(st, 0.0, keep_states=True)
    assert zero.steps == 0 and zero.rejected == 0
    assert zero.states == [st]
    # and evaluates no field, nor does a frame transport over tau = 0
    FAM.transport_frame(st[0], frame, 0.0)
    assert calls == []


def test_flow_time_exactness_and_residual():
    st = embedded_batch(8, seed=4)
    res = FAM.flow(st, 0.1)
    assert res.t_deviation < 1e-12
    assert res.max_residual < 1e-10
    assert np.allclose(res.state.t, 0.9, atol=1e-12)


@pytest.mark.parametrize("tau", [0.3, -0.3])
def test_flow_max_residual_is_largest_over_its_states(tau):
    # the states are the start and the integrator's points, which the flow
    # does not retract: max_residual is their largest residual, the drift
    # off the fiber, and the last of them retracts to the final state
    res = FAM.flow(embedded_batch(8, seed=7), tau, keep_states=True)
    assert res.steps > 1
    assert res.max_residual == max(float(np.max(np.abs(FAM.residual(s)))) for s in res.states)
    assert same_bits(FAM.retract(res.states[-1]).y, res.state.y)


def test_flow_reverses_exactly():
    st = embedded_batch(4, seed=5)
    fwd = FAM.flow(st, 0.1)
    back = FAM.flow(fwd.state, -0.1)
    assert np.max(np.abs(back.state.y - st.y)) < 1e-10


def test_flow_conserves_torus_hamiltonians():
    st = embedded_batch(8, seed=7)
    x0 = FAM.moment(st)
    res = FAM.flow(st, 0.15)
    x1 = FAM.moment(res.state)
    # the two circle actions surviving on the limit fiber
    c0 = x0[:, 0] + x0[:, 1] + x0[:, 3], x0[:, 1] + x0[:, 2] + x0[:, 3]
    c1 = x1[:, 0] + x1[:, 1] + x1[:, 3], x1[:, 1] + x1[:, 2] + x1[:, 3]
    assert np.max(np.abs(c1[0] - c0[0])) < 1e-10
    assert np.max(np.abs(c1[1] - c0[1])) < 1e-10


def test_frame_transport_preserves_omega_second_order():
    # the flow preserves the symplectic pairing but not the metric, so only
    # the omega drift is an invariant; its scaling with the tolerance is
    # checked by c05 and by test_frame_transport_drift_at_tight_tolerance
    st = embedded_batch(1, seed=9)[0]
    frame = FAM.tangent_frame(st)
    end, moved = FAM.transport_frame(st, frame, 0.1)
    zh = moved * FAM._scale
    assert np.linalg.eigvalsh(np.real(zh @ np.conj(zh.T))).min() > 0.1  # stays well conditioned
    assert np.abs(FAM.omega_matrix(moved) - FAM.omega_matrix(frame)).max() < 1e-6


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_dz_matches_central_differences_to_second_order(seed):
    # a generic point off the spheres and off the hypersurface, as RK stages
    # are, and six directions: the central difference of z_field at step eps
    # differs from the closed form by O(eps^2), so by 100x per decade
    u, w, t = random_parts((), seed=seed)
    fam = DegenerationFamily((2.0, 0.7))
    x = State(u, w, t).y[:, None]
    rng = np.random.default_rng(seed + 1)
    V = rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6))
    dz = fam._dz(x, V)
    assert dz.shape == (7, 6) and np.max(np.abs(dz[6])) == 0.0

    def central(eps):
        Zp = fam.z_field(State._of_rows(x + eps * V))[0].T
        Zm = fam.z_field(State._of_rows(x - eps * V))[0].T
        return np.max(np.abs((Zp - Zm) / (2 * eps) - dz))

    errs = [central(eps) for eps in (1e-2, 1e-3, 1e-4)]
    assert errs[0] < 1e-2 * np.max(np.abs(dz))
    assert all(90 < e0 / e1 < 110 for e0, e1 in zip(errs, errs[1:]))


def test_frame_transport_drift_at_tight_tolerance(monkeypatch):
    # c05's point and frame at FLOW_TOL = 1e-12: the drift keeps following
    # the tolerance, with no rounding floor from the variational field
    monkeypatch.setattr(flow, "FLOW_TOL", 1e-12)
    p = FAM.embed_flag(random_flags(3, 1, seed=101), 1.0)[0]
    frame = FAM.tangent_frame(p)
    end, moved = FAM.transport_frame(p, frame, 0.5)
    assert abs(end.t - (p.t - 0.5)) < 1e-12
    assert np.abs(FAM.omega_matrix(moved) - FAM.omega_matrix(frame)).max() < 1e-13


@pytest.mark.parametrize("mutation", ["u-scaled", "w-shifted"])
def test_frame_tangency_check_can_fail(monkeypatch, mutation):
    # c05's tangency check on c05's point and frame: a variational field off
    # by 1e-3 in its u-block, or by 1e-4 V in its w-block, carries the frame
    # off the end's fiber, |dF(v)| 2e-4 or 4e-5, far above the 100 FLOW_TOL
    # that c05 allows; the true field leaves it near 0.1 FLOW_TOL
    dz = DegenerationFamily._dz

    def wrong(self, x, V):
        out = dz(self, x, V)
        if mutation == "u-scaled":
            out[0:3] *= 1 + 1e-3
        else:
            out[3:6] += 1e-4 * V[3:6]
        return out

    def tangency():
        end, moved = FAM.transport_frame(p, frame, 0.5)
        (u1, u2, u3), (w12, w13, w23), t = end.u, end.w, end.t
        dF = np.array([w23, -w13, t * w12, t * u3, -u2, u1, u3 * w12])
        return float(np.max(np.abs(moved @ dF)))

    p = FAM.embed_flag(random_flags(3, 1, seed=101), 1.0)[0]
    frame = FAM.tangent_frame(p)
    assert tangency() < FLOW_TOL
    monkeypatch.setattr(DegenerationFamily, "_dz", wrong)
    assert tangency() > 1e5 * FLOW_TOL


def test_torus_loop_phase_matches_weight_formula():
    fam = DegenerationFamily((1.0, 2.0))
    st = fam.embed_flag(random_flag(3, seed=5), 1.0)
    xu = np.abs(st.u) ** 2 / np.sum(np.abs(st.u) ** 2)
    xw = np.abs(st.w) ** 2 / np.sum(np.abs(st.w) ** 2)
    for k in [(1, 0, 0), (0, 1, -1), (1, 1, 1)]:
        path = torus_loop(st, k, samples=8192)
        ph = loop_phase(path.u, path.w, (1.0, 2.0))
        kw = np.array([k[0] + k[1], k[0] + k[2], k[1] + k[2]])
        expected = np.exp(2j * np.pi * (1.0 * np.dot(k, xu) + 2.0 * np.dot(kw, xw)))
        assert abs(ph - expected) < 1e-5
        assert abs(abs(ph) - 1.0) < 1e-12


def test_torus_loop_stays_on_fiber():
    st = embedded_batch(1, seed=11)[0]
    path = torus_loop(st, (1, -1, 0), samples=256)
    assert np.max(np.abs(FAM.residual(path))) < 1e-12
    assert np.allclose(path.t, st.t)
    # starts at the base point; the closing point is left implicit
    assert np.max(np.abs(path.u[0] - st.u)) < 1e-12
    assert path.u.shape[0] == 256


def test_loop_holonomy_flow_invariant():
    st = embedded_batch(1, seed=13)[0]
    k = (1, 0, -1)
    before = loop_phase(*(lambda p: (p.u, p.w))(torus_loop(st, k, samples=8192)), A)
    moved = FAM.flow(st, 0.1).state
    after = loop_phase(*(lambda p: (p.u, p.w))(torus_loop(moved, k, samples=8192)), A)
    assert abs(before - after) < 1e-5


def test_loop_phase_unit_modulus():
    # the holonomy of a flowed path, closed by its last-to-first segment, is
    # a product of unit phases
    st = embedded_batch(1, seed=15)[0]
    res = FAM.flow(st, 0.05, keep_states=True)
    u_path = np.stack([s.u for s in res.states])
    w_path = np.stack([s.w for s in res.states])
    assert len(u_path) == res.steps + 1
    assert abs(abs(loop_phase(u_path, w_path, A)) - 1.0) < 1e-12
