"""Gradient-Hamiltonian flow on the pencil of bilinear hypersurfaces that
interpolates between the full flag threefold and its toric limit.

The family lives in P^2 x P^2 x C_t:

    X = { u_1 w_23 - u_2 w_13 + t u_3 w_12 = 0 },

with u homogeneous on the first factor and w = (w_12, w_13, w_23) Pluecker
coordinates on the second.  The fiber at t = 1 is the flag variety Fl(3) in
its Pluecker embedding; at t = 0 the equation degenerates to the binomial
u_1 w_23 = u_2 w_13 cutting out the toric limit.

Points are carried on the unit-sphere charts of the two projective factors
(|u| = |w| = 1) so the ambient Kaehler metric

    g = (a_1/pi) Re<.,.>  +  (a_2/pi) Re<.,.>  +  Re(dt conj dt)

restricts to explicit formulas; tangent spaces of the total space are cut by
three complex conditions (two sphere/phase gauges, one defining equation).
All core routines are batched over leading axes.  A `State` stores one
contiguous coordinate-major (7, ...) array, and the flow kernels run on its rows.
The flow maps fibers onto fibers, so one error-controlled loop of
Dormand-Prince 8(5,3) steps (DOP853) integrates it without re-imposing the
fiber, and each segment ends in one retraction.

The rows are complex, or float64 where u, w and t are all real.  F has real
coefficients and the metric is invariant under conjugation, so the field and
the retraction keep the real locus, and the flow, its field and its
retraction run on either dtype with the same kernels: their buffers follow
the rows' dtype, and each kernel reads the dtype once per call.  numpy
divides a complex number by a real one as x * (1/d), so on real rows every
division by a real value is written as that multiply by the reciprocal; a
plain `/` there rounds differently and moves the bits of the flowed points.
So real rows give the real parts of the complex path bit for bit, except
where BLAS sums the stage contraction of a real entry in another order than
that of its complex counterpart (OpenBLAS's gemv: the last (length mod 4)
entries of a call), which moves the flowed points by a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import ToleranceError
from .flag import pluecker_levels

__all__ = [
    "FLOW_TOL",
    "FlowSingularityError",
    "State",
    "FlowResult",
    "DegenerationFamily",
    "loop_phase",
    "torus_loop",
]


# Bound on the combined local error estimate of one flow step (`_dp_step`),
# in the sup norm of the flat coordinates (u, w, t) over the batch.  It bounds
# steps, not flowed points: it is the largest value in {1, 2, 5} 10^k at which
# both flow routes are no less accurate than with the Dormand-Prince 5(4)
# pair at 1e-10 that DOP853 replaced, both measured against that pair at
# 1e-14.  The moments of lab combined's default flow grid are within 5.3e-12
# (5(4): 3.6e-11) and the xi of gc-check's ensembles, seeds 0-3 at
# a = (1,1), (2,1), (1,3), within 8.2e-11 (5(4): 8.9e-11; 1e-9 gives
# 1.5e-10), far inside the 1e-8 that flow-route quadrature is checked to.
FLOW_TOL = 5e-10
# Smallest step the controller may propose short of the segment's end.  The
# steps shrink toward zero only where the field blows up, next to a singular
# point of a fiber, so a proposal below this raises FlowSingularityError
# instead of creeping on.
FLOW_MIN_STEP = 1e-12


class FlowSingularityError(ToleranceError):
    """The flow field or a tangent frame is not defined at the given point."""

    def __init__(self, detail: str):
        super().__init__("flow-singularity", detail)


def _points_last(rows: np.ndarray) -> np.ndarray:
    """View of coordinate-major rows (k, ...) as points (..., k)."""
    return rows.transpose(tuple(range(1, rows.ndim)) + (0,))


def _coords_first(points: np.ndarray) -> np.ndarray:
    """View of points (..., k) as coordinate-major rows (k, ...)."""
    return points.transpose((-1,) + tuple(range(points.ndim - 1)))


class State:
    """A batch of points of the total space: unit vectors u, w and scalar t.

    u has shape (..., 3) (homogeneous coordinates on the first P^2), w has
    shape (..., 3) holding (w_12, w_13, w_23), and t matches the batch shape.
    All three are views of one contiguous coordinate-major array y (7, ...)
    with rows (u_1, u_2, u_3, w_12, w_13, w_23, t).  y is float64 when u, w
    and t are all real and complex otherwise; the flow keeps the dtype (a
    real point flows along the real locus, see the module docstring).
    """

    __slots__ = ("y",)

    def __init__(self, u, w, t):
        u, w, t = np.asarray(u), np.asarray(w), np.asarray(t)
        if u.shape[-1] != 3 or w.shape[-1] != 3:
            raise ValueError("u and w must have trailing dimension 3")
        if u.shape[:-1] != w.shape[:-1] or t.shape != u.shape[:-1]:
            raise ValueError("batch shapes of u, w, t must agree")
        cplx = any(np.iscomplexobj(x) for x in (u, w, t))
        self.y = np.empty((7,) + t.shape, dtype=complex if cplx else float)
        self.y[0:3], self.y[3:6], self.y[6] = _coords_first(u), _coords_first(w), t

    @classmethod
    def _of_rows(cls, y: np.ndarray) -> "State":
        """The state whose coordinate rows are y (7, ...), without a copy."""
        st = object.__new__(cls)
        st.y = y
        return st

    @property
    def u(self) -> np.ndarray:
        return _points_last(self.y[0:3])

    @property
    def w(self) -> np.ndarray:
        return _points_last(self.y[3:6])

    @property
    def t(self) -> np.ndarray:
        return self.y[6, ...]

    @property
    def batch_shape(self) -> tuple:
        return self.y.shape[1:]

    def __getitem__(self, idx) -> "State":
        """The points that idx selects on the batch axes."""
        pts = (idx if isinstance(idx, tuple) else (idx,)) + (slice(None),)
        return State(self.u[pts], self.w[pts], self.t[idx])


@dataclass
class FlowResult:
    """Outcome of an integrated flow segment."""

    state: State
    steps: int                  # accepted steps
    t_deviation: float          # |t_final - t_expected|, max over the batch
    max_residual: float         # largest |F| over `states`, before the final retraction
    min_grad_norm: float        # smallest gradient norm at accepted step starts, not stages
    rejected: int = 0           # error-controlled steps rejected and retried
    # the start and the integrator's point after each accepted step, not
    # retracted: states[-1] is the end that `state` retracts
    states: Optional[list] = field(default=None, repr=False)


def _sq(x, real: bool):
    """Elementwise |x|^2 of a complex or float64 array: x.real^2 + x.imag^2,
    or x x on real rows (`real`, the caller's one read of the dtype), the
    same bits as the complex form on their complex cast (x.imag^2 is +0
    there) without its two temporaries."""
    return x * x if real else x.real ** 2 + x.imag ** 2


def _defining(y: np.ndarray) -> np.ndarray:
    """F = u_1 w_23 - u_2 w_13 + t u_3 w_12 at the flat coordinate rows y (7, n)."""
    u1, u2, u3, w12, w13, w23, t = y
    return u1 * w23 - u2 * w13 + t * u3 * w12


def _grad_uw(y: np.ndarray) -> np.ndarray:
    """(dF/du, dF/dw) as rows (6, n) at the flat coordinate rows y (7, n)."""
    u1, u2, u3, w12, w13, w23, t = y
    g = np.empty((6, y.shape[1]), dtype=y.dtype)
    g[0] = w23
    np.negative(w13, out=g[1])
    np.multiply(t, w12, out=g[2])
    np.multiply(t, u3, out=g[3])
    np.negative(u2, out=g[4])
    g[5] = u1
    return g


def _reduced_grad(y: np.ndarray, real: bool):
    """(g, c) at the flat coordinate rows y (7, n), float64 where `real` and
    complex otherwise: c = dF/dt, and g (6, n) is
    conj(dF/du, dF/dw) less its components along the gauge rows u and w,
    pa = conj(dF/du) - u conj(F)/|u|^2, pb = conj(dF/dw) - w conj(F)/|w|^2
    (u.dF/du = w.dF/dw = F; exact off the unit spheres, where RK stages lie).
    On real rows the divisions by |u|^2 and |w|^2 are multiplies by their
    reciprocals, as numpy divides complex rows (module docstring)."""
    u, w = y[0:3], y[3:6]
    g = _grad_uw(y)
    pa, pb = g[0:3], g[3:6]
    F = u[0] * pa[0] + u[1] * pa[1] + u[2] * pa[2]
    c = u[2] * w[0]
    n2 = _sq(y[0:6], real)
    nu, nw = n2[0] + n2[1] + n2[2], n2[3] + n2[4] + n2[5]
    if real:
        # conjugation is the identity on real rows
        pa -= u * (F * (1.0 / nu))
        pb -= w * (F * (1.0 / nw))
    else:
        Fc = np.conj(F)
        np.conjugate(g, out=g)
        pa -= u * (Fc / nu)
        pb -= w * (Fc / nw)
    return g, c


# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett and Wanner, Solving ODEs I,
# II.10; the coefficients of their dop853.f), as one lower-triangular tableau
# of 14 rows over 12 stages.  The field is autonomous, so the nodes are not
# needed.  Row i < 11 weights stages 1 .. i + 1 into the point of stage i + 2;
# row 11 holds the eighth-order weights, so its point is the new point, and
# the field there is the next step's first stage.  Rows 12 and 13 weight the
# twelve stages into the fifth- and third-order error estimates; row 13 is
# the eighth-order weights less the third-order ones, which are nonzero on
# stages 1, 9 and 12 only.
_DOP853 = np.array([row + (0,) * (12 - len(row)) for row in (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
     -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
     -0.3503288487499736816886487290, 0.3341791187130174790297318841,
     0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1),
)] + [(0,) * 12])
_DOP853[13] = _DOP853[11]
_DOP853[13, [0, 8, 11]] -= (0.244094488188976377952755905512,
                            0.733846688281611857341361741547,
                            0.220588235294117647058823529412e-1)


def _first_step(f, y: np.ndarray, K: np.ndarray, tau: float) -> float:
    """Starting step of `_dormand_prince` from K[0] = f(y) (Hairer, Norsett
    and Wanner, Solving ODEs I, II.4) for an eighth-order method, in the sup
    norm scaled by FLOW_TOL: one field evaluation, into K[1], at y + h0 k1
    with h0 <= |tau| gauges the curvature."""
    k1 = K[0]
    d1 = np.max(np.abs(k1))
    h0 = min(0.01 * np.max(np.abs(y)) / d1, abs(tau))
    f(y + math.copysign(h0, tau) * k1, K[1])
    d2 = np.max(np.abs(K[1] - k1)) / h0
    return float(min(100.0 * h0, (0.01 * FLOW_TOL / max(d1, d2)) ** 0.125))


def _dp_step(f, y: np.ndarray, K: np.ndarray, h: float, out: np.ndarray):
    """One DOP853 step of signed length h from the rows y, with K[0] = f(y):
    each stage point is one contraction of a tableau row, scaled by h, with
    the float64 view of K (K itself on real rows), and the two error
    estimates are one contraction of the last two rows.  Writes the new point
    into out (C-contiguous) and its field into K[12].  Returns Hairer's
    combined error err5^2 / sqrt(err5^2 + 0.01 err3^2) of the fifth- and
    third-order estimates' sup norms, over FLOW_TOL, and what f returned at
    the new point."""
    hA = h * _DOP853
    cplx = K.dtype.kind == "c"
    Kr, yr, outr = K.reshape(13, -1), y.reshape(-1), out.reshape(-1)
    if cplx:
        Kr, yr, outr = Kr.view(float), yr.view(float), outr.view(float)
    for i in range(12):
        np.add(yr, np.dot(hA[i, :i + 1], Kr[:i + 1]), out=outr)
        aux = f(out, K[i + 1])
    e = np.dot(hA[12:], Kr[:12])
    e5, e3 = np.max(np.abs(e.view(complex) if cplx else e), axis=1)
    err = float(e5 * (e5 / math.hypot(e5, 0.1 * e3))) if e5 > 0 else 0.0
    return err / FLOW_TOL, aux


def _dormand_prince(f, y: np.ndarray, tau: float):
    """Advance the coordinate rows y in place along y' = sign(tau) f(y) for
    |tau|, by DOP853 steps (`_dp_step`) whose combined error estimate is at
    most FLOW_TOL in the sup norm over all of y.

    f(y, out) writes the field at y into out, a row of the stage buffer, and
    returns what the caller reads at step starts.  This loop makes every field
    evaluation of a segment: one at its start, one for the starting step
    (`_first_step`) and 12 per attempted step, accepted or rejected.  The last
    evaluation is the field at the new point, so it is the next step's first
    stage (first same as last; Hairer, Norsett and Wanner, II.5).  After each
    accepted step, with y moved on, it yields (aux, rejected): what f
    returned at the step's start, and the steps rejected so far; tau = 0
    yields nothing and evaluates nothing.  Standard controller for an
    eighth-order method (safety 0.9, exponent -1/8, step ratio clamped to
    [0.333, 10]), with two changes.  From a segment's second accepted step
    on, the proposal is lowered to Gustafsson's predictive step where that is
    shorter: the ratio 0.9 (h_n / h_{n-1}) (err_{n-1} / err_n^2)^(1/8) over
    the last two accepted steps, err_{n-1} floored at 0.01, anticipates an
    error that grows along the flow (Hairer and Wanner, Solving ODEs II,
    IV.8, as in their RADAU5).  And the step accepted after a rejection
    proposes no longer a step (Solving ODEs I, II.4, as in DOP853).  The last
    step is clipped to end at |tau|."""
    span = abs(tau)
    if span == 0:
        return
    K = np.empty((13,) + y.shape, dtype=y.dtype)
    new = np.empty(y.shape, dtype=y.dtype)
    aux = f(y, K[0])
    h = _first_step(f, y, K, tau)
    elapsed, rejected = 0.0, 0
    accepted = None  # (length, floored error) of the last accepted step
    while elapsed < span:
        retried = False
        while True:
            last = h >= span - elapsed
            if not last and h < FLOW_MIN_STEP:
                raise FlowSingularityError(
                    f"flow step {h:.3e} below {FLOW_MIN_STEP:.1e} at {elapsed:.6g} of {span:.6g}"
                )
            step = span - elapsed if last else h
            err, aux_new = _dp_step(f, y, K, math.copysign(step, tau), new)
            ratio = 10.0 if err == 0 else min(10.0, max(0.333, 0.9 * err ** -0.125))
            if err <= 1.0:
                if accepted is not None and err > 0:
                    h_acc, err_acc = accepted
                    ratio = min(ratio, max(0.333, 0.9 * (step / h_acc) * err_acc ** 0.125
                                           / err ** 0.25))
                accepted = step, max(err, 0.01)
                h = step * (min(ratio, 1.0) if retried else ratio)
                break
            h = step * ratio
            retried = True
            rejected += 1
        elapsed = span if last else elapsed + step
        y[...] = new
        yield aux, rejected
        K[0], aux = K[12], aux_new


class DegenerationFamily:
    """The pencil for weights a = (a_1, a_2) with its ambient Kaehler data.

    a sets both the line-bundle twist O(a_1) x O(a_2) used by parallel
    transport and the Fubini-Study scalings of the metric.
    """

    def __init__(self, a: Sequence[float] = (1.0, 1.0)):
        a = tuple(float(x) for x in a)
        if len(a) != 2 or not all(0 < x < math.inf for x in a):
            raise ValueError("a must be two positive weights")
        self.a = a
        # block scales turning the ambient metric into the standard one; the
        # t block is already standard
        su = math.sqrt(a[0] / math.pi)
        sw = math.sqrt(a[1] / math.pi)
        self._scale = np.array([su] * 3 + [sw] * 3 + [1.0], dtype=float)
        # pi/a_i on the (u, w) coordinates: the inverse metric of those blocks;
        # a subnormal weight underflows the scale or overflows its inverse square
        with np.errstate(divide="ignore", over="ignore"):
            self._inv_metric = self._scale[:6] ** -2
        if not all(0 < x < math.inf for x in np.concatenate([self._scale, self._inv_metric])):
            raise ValueError("a must be two weights whose metric scales sqrt(a/pi) and their "
                             "inverse squares are positive and finite")

    # ---------------------------------------------------------------- basics

    def residual(self, state: State) -> np.ndarray:
        """Defining equation F = u_1 w_23 - u_2 w_13 + t u_3 w_12."""
        return _defining(state.y.reshape(7, -1)).reshape(state.batch_shape)

    def normalize(self, u, w, t) -> State:
        u = np.asarray(u, dtype=complex)
        w = np.asarray(w, dtype=complex)
        nu = np.linalg.norm(u, axis=-1, keepdims=True)
        nw = np.linalg.norm(w, axis=-1, keepdims=True)
        if np.any(nu == 0) or np.any(nw == 0):
            raise ValueError("zero homogeneous coordinate vector")
        return State(u / nu, w / nw, np.asarray(t, dtype=complex))

    def embed_flag(self, V: np.ndarray, t) -> State:
        """Deformed Pluecker image of a flag (batched): a point of the fiber
        over t, on unit-sphere charts."""
        lv1, lv2 = pluecker_levels(V, t)
        tt = np.broadcast_to(np.asarray(t, dtype=complex), lv1.shape[:-1]).copy()
        return self.normalize(lv1, lv2, tt)

    def moment(self, state: State) -> np.ndarray:
        """Ambient torus moment coordinates (..., 4) in the chart anchored at
        (u_1, w_12): (a_1|u_2|^2, a_1|u_3|^2, a_2|w_13|^2, a_2|w_23|^2)."""
        a1, a2 = self.a
        u2 = np.abs(state.y[0:3]) ** 2
        w2 = np.abs(state.y[3:6]) ** 2
        u2 = u2 / np.sum(u2, axis=0)
        w2 = w2 / np.sum(w2, axis=0)
        return np.stack([a1 * u2[1], a1 * u2[2], a2 * w2[1], a2 * w2[2]], axis=-1)

    # ------------------------------------------------------- tangent spaces

    def project(self, state: State, vec: np.ndarray) -> np.ndarray:
        """Metric-orthogonal projection of ambient vectors (..., 7) onto the
        fiber's tangent space at `state`, in closed form: v loses its dt
        component, then its components along u and w, then along
        r = ((pi/a_1) pa, (pi/a_2) pb), the metric dual of dF on the fiber
        (`_reduced_grad`); these are mutually orthogonal, and |r|^2 = P (see
        z_field).  Raises FlowSingularityError where sqrt(P) <= 1e-8."""
        real = state.y.dtype.kind == "f"
        g, _ = _reduced_grad(state.y.reshape(7, -1), real)
        P = self._inv_metric @ _sq(g, real)
        if not (np.sqrt(P) > 1e-8).all():
            bad = float(np.sqrt(np.min(P)))
            raise FlowSingularityError(f"tangent space undefined: |dF| {bad:.3e} <= 1.0e-08")
        v = np.array(vec, dtype=complex)
        v[..., 6] = 0.0
        for z, s in ((state.u, slice(0, 3)), (state.w, slice(3, 6))):
            zv = np.sum(np.conj(z) * v[..., s], axis=-1, keepdims=True)
            v[..., s] -= z * zv / np.sum(_sq(z, real), axis=-1, keepdims=True)
        g = _points_last(g.reshape((6,) + state.batch_shape))
        gv = np.sum(np.conj(g) * v[..., :6], axis=-1, keepdims=True)
        v[..., :6] -= self._inv_metric * g * gv / P.reshape(state.batch_shape + (1,))
        return v

    # ------------------------------------------------------------ flow field

    def z_field(self, state: State, *, _out: Optional[np.ndarray] = None):
        """Gradient-Hamiltonian field Z = -grad(Re t)/|grad(Re t)|^2 as flat
        coordinates (..., 7).  Returns (Z, grad_norm); a grad_norm at or below
        1e-8 anywhere in the batch raises FlowSingularityError.  The flow
        passes _out, a row of `_dormand_prince`'s stage buffer shaped like
        state.y, and Z is then written there and returned as a view of it.

        grad(Re t) is e_t less its component along the metric dual
        r = ((pi/a_1) pa, (pi/a_2) pb, conj c) of dF on the total space (e_t
        has none along u and w).  In closed form, with pa, pb, c from
        `_reduced_grad`, P = (pi/a_1)|pa|^2 + (pi/a_2)|pb|^2 and Q = |c|^2,
        grad_norm = sqrt(P/(P+Q)), Z_u = (pi/a_1) c pa/P,
        Z_w = (pi/a_2) c pb/P and Z_t = -(P/(P+Q))/(P/(P+Q)) = -1: grad(Re t)
        has t component P/(P+Q), its squared norm.
        """
        y = state.y.reshape(7, -1)
        real = y.dtype.kind == "f"
        g, c = _reduced_grad(y, real)
        P = self._inv_metric @ _sq(g, real)
        grad_norm = np.sqrt(P / (P + _sq(c, real)))
        if not (grad_norm > 1e-8).all():
            bad = float(np.min(grad_norm))
            raise FlowSingularityError(
                f"flow field undefined: gradient norm {bad:.3e} <= 1.0e-08"
            )
        Z = np.empty_like(y) if _out is None else _out.reshape(y.shape)
        cP = c * (1.0 / P) if real else c / P
        np.multiply(g, cP * self._inv_metric[:, None], out=Z[0:6])
        Z[6] = -1.0
        return _points_last(Z.reshape(state.y.shape)), grad_norm.reshape(state.batch_shape)

    # ------------------------------------------------------------ retraction

    def retract(self, state: State) -> State:
        """Pull (u, w) back onto the hypersurface at fixed t: Gauss-Newton on
        the defining equation plus per-factor renormalization, until the
        residual is at most 1e-12 max(1, |t|), within 20 steps.  On real rows
        each division by a real value is a multiply by its reciprocal, as
        numpy divides complex rows (module docstring)."""
        out = State._of_rows(state.y.copy())
        y = out.y.reshape(7, -1)
        real = y.dtype.kind == "f"
        scale = np.maximum(1.0, np.abs(y[6]))
        for _ in range(20):
            if real:
                y[0:3] *= 1.0 / np.linalg.norm(y[0:3], axis=0)
                y[3:6] *= 1.0 / np.linalg.norm(y[3:6], axis=0)
            else:
                y[0:3] /= np.linalg.norm(y[0:3], axis=0)
                y[3:6] /= np.linalg.norm(y[3:6], axis=0)
            F = _defining(y)
            if (np.abs(F) <= 1e-12 * scale).all():
                return out
            # the whole Gauss-Newton step comes from the u, w before it
            J = _grad_uw(y)
            d = _sq(J, real).sum(axis=0)
            y[0:6] += -np.conj(J) * (F * (1.0 / d) if real else F / d)
        worst = float(np.max(np.abs(_defining(y)) / scale))
        raise FlowSingularityError(f"retraction stalled at residual {worst:.3e}")

    # ----------------------------------------------------------- integration

    def flow(self, state: State, tau: float, keep_states: bool = False) -> FlowResult:
        """Integrate the flow for time tau (tau < 0 runs the field backwards,
        increasing Re t) by `_dormand_prince`, then retract the end onto the
        fiber once.

        The exact flow maps the fiber over t onto the fiber over t - tau, so
        the steps do not re-impose it: the integrator's drift off the fiber
        follows FLOW_TOL, and max_residual is its largest |F| over the start
        and every accepted point.  The combined local error estimate of each
        step, in the sup norm of the flat coordinates over the whole batch,
        stays below FLOW_TOL, and the last step is clipped to end at |tau|.  min_grad_norm
        reads the field at each accepted step's start, the stage the step
        reuses.
        """
        y = state.y.copy()
        rows = y.reshape(7, -1)
        max_res = float(np.max(np.abs(_defining(rows))))
        states = [state] if keep_states else None
        min_grad, steps, rejected = float("inf"), 0, 0

        def f(y: np.ndarray, out: np.ndarray) -> np.ndarray:
            return self.z_field(State._of_rows(y), _out=out)[1]

        for gn, rejected in _dormand_prince(f, y, tau):
            steps += 1
            min_grad = min(min_grad, float(np.min(gn)))
            max_res = max(max_res, float(np.max(np.abs(_defining(rows)))))
            if keep_states:
                states.append(State._of_rows(y.copy()))
        end = self.retract(State._of_rows(y))
        t_dev = float(np.max(np.abs(end.t - (state.t - tau))))
        return FlowResult(end, steps, t_dev, max_res, min_grad, rejected, states)

    # --------------------------------------------------------------- frames

    def tangent_frame(self, state: State) -> np.ndarray:
        """Metric-orthonormal real frame of the fiber tangent space at a single
        point, shape (6, 7) complex: pairs (n, i n) of the eigenvalue-1
        eigenvectors n of the fiber projector, which is Hermitian in scaled
        coordinates.  Raises FlowSingularityError where `project` does."""
        if state.batch_shape != ():
            raise ValueError("tangent_frame expects a single point")
        # row j: the j-th scaled unit vector projected, in scaled coordinates
        proj = self.project(state, np.diag(1.0 / self._scale)) * self._scale
        null = np.linalg.eigh(proj.T)[1][:, 4:].T
        frame = np.empty((6, 7), dtype=complex)
        frame[0::2] = null
        frame[1::2] = 1j * null
        return frame / self._scale

    def omega_matrix(self, vectors: np.ndarray) -> np.ndarray:
        """Symplectic pairing matrix of a stack of coordinate vectors."""
        zh = vectors * self._scale
        return np.imag(zh @ np.conj(zh.T))

    def _dz(self, x: np.ndarray, V: np.ndarray) -> np.ndarray:
        """DZ(x) V: z_field's Z at one point x (7, 1) differentiated along the
        columns of V (7, k), by the quotient rule on Z_uw = (pi/a) c g/P with
        g = (pa, pb) from `_reduced_grad`.  Z_t = -1, so its row is 0."""
        real = x.dtype.kind == "f"
        g, c = _reduced_grad(x, real)
        u3, w12, t = x[2], x[3], x[6]
        du1, du2, du3, dw12, dw13, dw23, dt = V
        Fc = np.conj(_defining(x))
        dFc = np.conj((_grad_uw(x) * V[0:6]).sum(axis=0) + c * dt)
        # conj(d(dF/du, dF/dw)), less the derivative of the gauge reduction
        # against z = u, w (blocks of 3 rows)
        dg = np.conj([dw23, -dw13, dt * w12 + t * dw12, dt * u3 + t * du3, -du2, du1])
        z, dz = x[0:6].reshape(2, 3, 1), V[0:6].reshape(2, 3, -1)
        n2 = _sq(z, real).sum(axis=1, keepdims=True)
        dn2 = 2.0 * (np.conj(z) * dz).real.sum(axis=1, keepdims=True)
        dg -= ((dz * Fc + z * (dFc - Fc * dn2 / n2)) / n2).reshape(dg.shape)
        P = self._inv_metric @ _sq(g, real)
        dP = 2.0 * (self._inv_metric @ (np.conj(g) * dg).real)
        dc = du3 * w12 + u3 * dw12
        out = np.zeros_like(V)
        out[0:6] = self._inv_metric[:, None] * (dc * g + c * dg - c * g * (dP / P)) / P
        return out

    def transport_frame(self, state: State, vectors: np.ndarray, tau: float):
        """Carry fiber tangent vectors (k, 7) at a single point along the flow
        by the linearized flow map: the point and its vectors ride the same
        `_dormand_prince` steps as (7, 1 + k) rows, the error measured over
        all of them, each stage evaluating z_field at the point and
        v' = DZ(x) v by `_dz`.  The linearized flow maps the fiber's tangent
        spaces onto each other, so only the end point is retracted onto the
        fiber.  The end vectors are returned as integrated, unprojected: their
        distance from the end's tangent space measures the integration error.
        Returns (final_state, final_vectors)."""
        if state.batch_shape != ():
            raise ValueError("transport_frame expects a single point")

        def f(y: np.ndarray, out: np.ndarray) -> None:
            x = y[:, :1]
            self.z_field(State._of_rows(x), _out=out[:, :1])
            out[:, 1:] = self._dz(x, y[:, 1:])

        y = np.column_stack([state.y, np.asarray(vectors, dtype=complex).T])
        for _ in _dormand_prince(f, y, tau):
            pass
        return self.retract(State._of_rows(y[:, 0])), y[:, 1:].T


# -------------------------------------------------------------- line bundle


def loop_phase(u_path: np.ndarray, w_path: np.ndarray, a: Sequence[float]) -> complex:
    """Holonomy of the O(a_1, a_2) connection around a discretized loop of
    unit-sphere representatives (K, 3) each: the product of the per-segment
    parallel-transport phases.  The path must be closed up to projective
    rescaling; the last-to-first segment is included automatically."""
    u = np.concatenate([u_path, u_path[:1]], axis=0)
    w = np.concatenate([w_path, w_path[:1]], axis=0)
    du = np.angle(np.sum(np.conj(u[:-1]) * u[1:], axis=-1))
    dw = np.angle(np.sum(np.conj(w[:-1]) * w[1:], axis=-1))
    return complex(np.prod(np.exp(1j * (a[0] * du + a[1] * dw))))


def torus_loop(state: State, weights: Sequence[int], samples: int = 1024) -> State:
    """Orbit loop of the diagonal torus s . (u, w) with u_i -> s_i u_i and
    w_ij -> s_i s_j w_ij, run along s_i = exp(2 pi i theta weights_i).  The
    action preserves every fiber, so the loop stays on the hypersurface.
    Returns a batched State of `samples` points (the closing point omitted).
    """
    k = np.asarray(weights, dtype=float)
    if k.shape != (3,):
        raise ValueError("weights must be three integers")
    if state.batch_shape != ():
        raise ValueError("torus_loop expects a single point")
    theta = np.arange(samples) / samples
    pu = np.exp(2j * np.pi * np.outer(theta, k))
    kw = np.array([k[0] + k[1], k[0] + k[2], k[1] + k[2]])
    pw = np.exp(2j * np.pi * np.outer(theta, kw))
    t = np.broadcast_to(state.t, (samples,)).copy()
    return State(pu * state.u, pw * state.w, t)
