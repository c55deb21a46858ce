"""Concentration experiments.

Toric side: L^1-normalized section densities on a moment polytope, their mass
and sup outside an exclusion ball, and pairings against test functions.  The
density concentrates on the lattice point m as the deformation strength s
grows; the routines here measure rates against the analytic Hessian bounds.

Flag side (n = 3): the linear identification between Gelfand-Cetlin patterns
and the moment image of the toric limit, the slice map singling out the
x-locus of the degenerate fiber over a pattern, and the combined experiment
that runs the deformation and the family flow together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .polytope import DelzantPolytope, Facet, ambient_polytope
from .toric import (
    TWO_PI,
    ConvexDeformation,
    GridMeasure,
    QuadraticNu,
    QuadratureError,
    SymplecticPotential,
    blocks,
    grid_sums,
    outside_ball,
    polytope_grid,
    section_log_density,
)
from .flag import gc_rows, random_flags
from .flow import DegenerationFamily, FlowSingularityError, State

__all__ = [
    "GridMeasure",
    "outside_mass",
    "concentration_sup",
    "delta_pairing",
    "concentration_sweep",
    "analytic_decay_rate",
    "decay_slope",
    "mass_decay_slope",
    "checked_s_grid",
    "GCTorusModel",
    "section_equality_on_v0",
    "ExperimentConfig",
    "CellResult",
    "ConcentrationReport",
    "combined_experiment",
    "gc_vs_torus_moment_check",
]


# -- toric quadrature experiments ----------------------------------------------


def _check_ball(outside: np.ndarray):
    """QuadratureError unless the mask `outside` has points on both sides."""
    if not outside.any():
        raise QuadratureError("exclusion ball covers the whole quadrature grid")
    if outside.all():
        raise QuadratureError("exclusion ball contains no quadrature point")


def outside_mass(measure: GridMeasure, outside: np.ndarray) -> float:
    """L^1 mass of the normalized density on the points of the mask `outside`
    (`outside_ball` of the labels)."""
    _check_ball(outside)
    return grid_sums(measure.logdens, measure.log_vol, outside).mass


def concentration_sup(measure: GridMeasure, outside: np.ndarray) -> float:
    """Sup of the L^1-normalized density over the points of the mask `outside`."""
    if not outside.any():
        raise QuadratureError("exclusion ball covers the whole quadrature grid")
    return grid_sums(measure.logdens, measure.log_vol, outside).sup


def delta_pairing(measure: GridMeasure, values) -> float:
    """<phi, normalized density> from phi's `values` on the labels; phi == 1 gives 1."""
    return grid_sums(measure.logdens, measure.log_vol, values={"phi": values}).pairings["phi"]


def concentration_sweep(pot: SymplecticPotential, m, x: np.ndarray, s_values,
                        labels: np.ndarray, log_vol: float, center, eps: float, values: dict):
    """Yield the `grid_sums` of each s of s_values: the midpoint measure with
    the log density of the section m under pot.at_s(s) at the moment points x,
    on cells of volume exp(log_vol) labeled by `labels`, reduced outside the
    eps-ball around `center` and paired with each test function of `values`
    (name -> its values on the labels, (N,) or a scalar).

    Everything that does not depend on s is evaluated once: the canonical
    part b = section_log_density(pot.at_s(0), m, x), the deformation term
    q = nu(iota_star(x - m)) and the exclusion mask.  They are filled block
    by block (`blocks`), x - m as the transpose of a (d, BLOCK) buffer, so no
    (points, facets) or (points, d) temporary spans the grid; these values
    are per point and keep the bits of one whole-grid call.  Each s is then
    one `grid_sums` pass with deformed = (q, s), whose block densities
    b - 2 pi s q are bit for bit section_log_density(pot.at_s(s), m, x); no
    (N,) array is made per s.  The reductions move with BLOCK by rounding only.
    """
    pot0 = pot.at_s(0.0)
    m = np.asarray(m, dtype=float)
    n = len(x)
    b, q = np.empty(n), np.empty(n)
    outside = np.empty(n, dtype=bool)
    spans = blocks(n)
    diff = np.empty((len(m), spans[0].stop if spans else 0))
    for blk in spans:
        b[blk] = section_log_density(pot0, m, x[blk])
        d = np.subtract(x[blk].T, m[:, None], out=diff[:, :blk.stop - blk.start])
        q[blk] = pot.deformer.value(d.T)
        outside[blk] = outside_ball(labels[blk], center, eps)
    _check_ball(outside)
    for s in s_values:
        yield grid_sums(b, log_vol, outside, values, deformed=(q, s))


def analytic_decay_rate(deformation: ConvexDeformation, eps: float, r: float) -> float:
    """Exponential rate 2 pi (C1 eps^2 - C2 r^2) of the sup bound outside the
    eps-ball, with C1, C2 half the extreme Hessian eigenvalues of nu."""
    return TWO_PI * (deformation.c1() * eps**2 - deformation.c2() * r**2)


def decay_slope(s_values: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against s."""
    s = np.asarray(s_values, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.size < 2:
        raise ValueError("need at least two samples to fit a slope")
    if np.any(v <= 0):
        raise ValueError("values must be positive for a log fit")
    return float(np.polyfit(s, np.log(v), 1)[0])


def mass_decay_slope(s_values: Sequence[float], masses: Sequence[float]) -> Optional[float]:
    """`decay_slope` of the outside masses over the samples with s > 0 and a
    positive mass; None with fewer than two such samples."""
    pos = [(s, m) for s, m in zip(s_values, masses) if s > 0 and m > 0]
    return decay_slope(*zip(*pos)) if len(pos) >= 2 else None


def checked_s_grid(s_values: Sequence[float]) -> np.ndarray:
    """s_values as an array; ValueError unless strictly increasing, nonnegative, finite."""
    s = np.asarray(s_values, dtype=float)
    if s.size == 0 or np.any(np.diff(s) <= 0):
        raise ValueError("s-grid must be strictly increasing")
    if not np.all((0 <= s) & (s < math.inf)):
        raise ValueError("s-grid must be nonnegative and finite")
    return s


# -- the n = 3 identification ---------------------------------------------------


class GCTorusModel:
    """Linear identification between Gelfand-Cetlin data and the toric limit
    for n = 3 with weights a = (a_1, a_2).

    xi-coordinates are the moment coordinates of the degenerate fiber's torus;
    `A` maps ambient moment coordinates onto them, `k` spans ker A and is the
    exponent vector of the binomial u_1 w_23 = u_2 w_13 in the affine chart
    (w_4 = w_1 w_3, i.e. k = (1, 0, 1, -1)).
    """

    def __init__(self, a: Sequence[float] = (1.0, 1.0)):
        a = tuple(float(x) for x in a)
        if len(a) != 2 or min(a) <= 0:
            raise ValueError("a must be two positive weights")
        self.a = a
        # character restriction on the ambient chart anchored at (u_1, w_12):
        # columns are the residual-torus characters of the affine coordinates
        # (u_2/u_1, u_3/u_1, w_13/w_12, w_23/w_12) in the rank-3 quotient by
        # the binomial direction
        self.A = np.array([[1, 0, 0, 1],
                           [0, 1, 0, 0],
                           [0, 0, 1, 1]], dtype=np.int64)
        self.k = np.array([1, 0, 1, -1], dtype=np.int64)
        # right inverse used as a base solution of A x = xi
        self.B = np.array([[1, 0, 0],
                           [0, 1, 0],
                           [0, 0, 1],
                           [0, 0, 0]], dtype=np.int64)

    # polytopes

    def ambient_delta(self) -> DelzantPolytope:
        return ambient_polytope(3, self.a)

    def image_delta(self) -> DelzantPolytope:
        """A(ambient polytope) = {xi >= 0, xi_2 <= a_1, xi_3 <= a_2,
        xi_1 + xi_2 - xi_3 <= a_1}."""
        a1, a2 = self.a
        return DelzantPolytope(3, (
            Facet((1, 0, 0), 0.0, "xi1>=0"),
            Facet((0, 1, 0), 0.0, "xi2>=0"),
            Facet((0, 0, 1), 0.0, "xi3>=0"),
            Facet((0, -1, 0), a1, "xi2<=a1"),
            Facet((0, 0, -1), a2, "xi3<=a2"),
            Facet((-1, -1, 1), a1, "xi1+xi2-xi3<=a1"),
        ), ("xi1", "xi2", "xi3"))

    # pattern <-> xi

    def i_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """xi = M lam + c on flattened patterns (lam1_1, lam2_1, lam2_2)."""
        a1, a2 = self.a
        M = np.array([[-1.0, 1.0, 0.0],
                      [0.0, -1.0, 0.0],
                      [0.0, 0.0, -1.0]])
        c = np.array([0.0, a1 + a2, a2])
        return M, c

    def xi_of_pattern(self, pattern) -> np.ndarray:
        """xi of flattened patterns (..., 3), or of one pattern's rows below
        the top, ((lam1_1,), (lam2_1, lam2_2))."""
        if isinstance(pattern, np.ndarray) and pattern.shape[-1] == 3:
            lam = np.asarray(pattern, dtype=float)
        else:
            flat = []
            for row in pattern:
                flat.extend(np.atleast_1d(np.asarray(row, dtype=float)))
            lam = np.asarray(flat, dtype=float)
            if lam.shape != (3,):
                raise ValueError("pattern must flatten to (lam1_1, lam2_1, lam2_2)")
        M, c = self.i_affine()
        return lam @ M.T + c

    def xi_of_state(self, fam: DegenerationFamily, state: State) -> np.ndarray:
        return fam.moment(state) @ self.A.T.astype(float)

    def conserved_coordinates(self, xi) -> np.ndarray:
        """Combinations of xi constant along the family flow: (xi1 + xi2,
        xi2 + xi3) are moments of the residual torus acting on every fiber."""
        xi = np.asarray(xi, dtype=float)
        return np.stack([xi[..., 0] + xi[..., 1], xi[..., 1] + xi[..., 2]], axis=-1)

    def lifts(self, xi) -> list[np.ndarray]:
        """Ambient lattice points m with A m = xi, lexicographically sorted."""
        xi = np.asarray(xi)
        v = np.rint(xi).astype(np.int64)
        if not np.allclose(xi, v, atol=1e-9):
            raise ValueError("xi must be an integer lattice point")
        P = self.ambient_delta()
        # all lattice solutions are B xi + c k; their first coordinate xi1 + c
        # lies in [0, a1] and increases with c
        base = self.B @ v
        cands = [base + c * self.k for c in range(-v[0], int(self.a[0]) - v[0] + 1)]
        out = [m for m in cands if P.contains(m.astype(float), tol=1e-9)]
        if not out:
            raise ValueError("no ambient lattice lift inside the polytope")
        return out

    # the slice of the degenerate fiber

    def slice_point(self, xi) -> np.ndarray:
        """x in Int ambient polytope with A x = xi and d/ds g_can(x + s k) = 0:
        the unique moment point of the degenerate fiber over xi (batched).

        The facet slopes n_f.k are (1, 0, -1, 1, -1, 0) and sum to 0, so
        4 pi d/ds g_can(x0 + s k) = sum_f (n_f.k) log l_f vanishes iff l0 l3 = l2 l4
        (w4 = w1 w3); the s^2 terms cancel: s = (L2 L4 - L0 L3)/(L0 + L2 + L3 + L4).
        """
        xi = np.asarray(xi, dtype=float)
        P = self.ambient_delta()
        slopes = P.normal_matrix @ self.k
        x0 = xi @ self.B.T.astype(float)
        L = P.support_values(x0)
        den = L[..., slopes != 0].sum(axis=-1)
        if not np.all(den > 0):
            raise ValueError("xi is not in the interior of the image polytope")
        s = (L[..., slopes < 0].prod(axis=-1) - L[..., slopes > 0].prod(axis=-1)) / den
        x = x0 + s[..., None] * self.k
        # all six walls, the two constant along k (x1_2, a2 - x2_1 - x2_2) included
        if not np.all(P.support_values(x) > 0):
            raise ValueError("xi is not in the interior of the image polytope")
        return x

    def v0_state(self, xi, theta_prime=(0.0, 0.0, 0.0),
                 fam: Optional[DegenerationFamily] = None) -> State:
        """Point of the degenerate fiber over xi with angle coordinates
        theta_prime on the quotient torus, batched over xi rows: the phases of
        (u_2, u_3, w_13, w_23) relative to (u_1, w_12) are theta_prime A."""
        if fam is None:
            fam = DegenerationFamily(self.a)
        a1, a2 = self.a
        x = self.slice_point(xi)
        tp = np.broadcast_to(np.asarray(theta_prime, dtype=float), x.shape[:-1] + (3,))
        theta = tp @ self.A.astype(float)
        xu = np.stack([a1 - x[..., 0] - x[..., 1], x[..., 0], x[..., 1]], axis=-1) / a1
        xw = np.stack([a2 - x[..., 2] - x[..., 3], x[..., 2], x[..., 3]], axis=-1) / a2
        pu = np.concatenate([np.zeros(x.shape[:-1] + (1,)), theta[..., 0:2]], axis=-1)
        pw = np.concatenate([np.zeros(x.shape[:-1] + (1,)), theta[..., 2:4]], axis=-1)
        u = np.sqrt(xu) * np.exp(2j * np.pi * pu)
        w = np.sqrt(xw) * np.exp(2j * np.pi * pw)
        state = State(u, w, np.zeros(x.shape[:-1], dtype=complex))
        res = np.max(np.abs(fam.residual(state)))
        if res > 1e-10:
            raise FlowSingularityError(f"constructed point misses the fiber ({res:.3e})")
        return state


# -- section restriction on the degenerate fiber --------------------------------


def section_equality_on_v0(m, mprime, samples: int = 500, seed: int = 0) -> float:
    """max |w^m - w^m'| / max(1, |w^m|) over torus samples of the binomial
    subvariety w_4 = w_1 w_3 with |log |w_i|| <= 0.5; exact 0 when A m = A m'
    (the monomials agree on the subvariety), bounded away from 0 otherwise."""
    m = np.asarray(m, dtype=np.int64)
    mp = np.asarray(mprime, dtype=np.int64)
    if m.shape != (4,) or mp.shape != (4,):
        raise ValueError("lifts must be integer 4-vectors")
    rng = np.random.default_rng(seed)
    logr = rng.uniform(-0.5, 0.5, size=(samples, 3))
    ang = rng.uniform(0.0, 1.0, size=(samples, 3))
    w123 = np.exp(logr + 2j * np.pi * ang)
    w = np.concatenate([w123, (w123[:, 0] * w123[:, 2])[:, None]], axis=1)

    def monomial(e):
        return np.prod(w ** e[None, :], axis=1)

    sm = monomial(m)
    smp = monomial(mp)
    return float(np.max(np.abs(sm - smp) / np.maximum(1.0, np.abs(sm))))


# -- the combined experiment ----------------------------------------------------


def _chained(fam: DegenerationFamily, state: State, t0: float, ts):
    """Yield (t, state) for each t of ts in turn: the state flowed from t0 to t,
    each segment starting where the last one ended."""
    for t in ts:
        state = fam.flow(state, t0 - t).state
        yield t, state
        t0 = t


@dataclass
class ExperimentConfig:
    """Configuration of toric/combined concentration runs (n = 3)."""

    a: tuple = (2.0, 2.0)
    pattern: tuple = ((2.0,), (3.0, 1.0))   # rows below the pinned top row
    s_grid: tuple = (0.0, 5.0, 10.0, 20.0, 40.0)
    eps: float = 0.3
    nu_scale: float = 1.0                   # nu = nu_scale |xi|^2 / 2 on xi-space
    schedule_rate: float = 5.0              # t(s) = exp(-s / schedule_rate)
    per_axis: int = 32
    flow_per_axis: int = 10

    def __post_init__(self):
        self.validate()

    def validate(self):
        checked_s_grid(self.s_grid)
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        QuadraticNu(self.nu_scale * np.eye(3))  # positive definite: nu_scale > 0
        if not 0 < self.schedule_rate < math.inf:
            raise ValueError("schedule_rate must be positive and finite")
        if self.per_axis < 4 or self.flow_per_axis < 2:
            raise ValueError("quadrature resolution too small")


@dataclass
class CellResult:
    """One (m, s) cell of a concentration report."""

    s: float
    t: float
    outside_mass: float                 # toric-route value (reported)
    sup_outside: float
    pairings: dict
    outside_mass_flow: Optional[float]  # flow-route cross check
    flow_points: int
    flow_failures: int
    torus_moment_drift: Optional[float]  # max change of the residual-torus moments

    def as_row(self) -> dict:
        """Fields in declaration order, then one `pairing_<name>` per test function."""
        row = {k: v for k, v in vars(self).items() if k != "pairings"}
        row.update((f"pairing_{k}", v) for k, v in sorted(self.pairings.items()))
        return row


@dataclass
class ConcentrationReport:
    xi_star: tuple
    lift: tuple
    cells: list
    slope: Optional[float]
    monotone: bool
    incomplete: bool


def combined_experiment(cfg: ExperimentConfig) -> ConcentrationReport:
    """Deformation + degeneration concentration run for n = 3.

    Reported masses and pairings evaluate the deformed density at the slice
    points of the degenerate fiber, labeled by xi.  The flow route carries a
    coarser grid from the degenerate fiber up through the scheduled t in one
    chained flow and evaluates the same density at the moment points of each
    V_t, as a cross check.  The two routes agree only as t -> 0: at t = 1 the
    log-densities differ by several units.  The residual-torus moments of the
    flowed points must stay those of their start (`torus_moment_drift`).
    """
    model = GCTorusModel(cfg.a)
    xi_star = model.xi_of_pattern(cfg.pattern)
    img = model.image_delta()
    if not img.contains(xi_star, strict=True):
        raise ValueError("pattern must be an interior point (boundary patterns "
                         "are out of scope)")
    lift = model.lifts(xi_star)[0].astype(float)
    deformer = ConvexDeformation(QuadraticNu(cfg.nu_scale * np.eye(3)),
                                 iota_star=model.A.astype(float))
    ambient = model.ambient_delta()
    pot0 = SymplecticPotential(ambient, 0.0, deformer)
    xi_pts, log_vol = polytope_grid(img, cfg.per_axis)
    x_slice = model.slice_point(xi_pts)
    xi_flow, flow_log_vol = polytope_grid(img, cfg.flow_per_axis)
    fam = DegenerationFamily(cfg.a)
    v0 = model.v0_state(xi_flow, fam=fam)
    n_flow = xi_flow.shape[0]
    conserved0 = model.conserved_coordinates(xi_flow)

    # one flow from the degenerate fiber up through the scheduled t (nested);
    # at t = 0 the two routes coincide by construction and no flow is run
    svals = [float(s) for s in cfg.s_grid]
    t_of = [math.exp(-s / cfg.schedule_rate) for s in svals]
    ts = sorted({t for t in t_of if t > 0})
    end_x = {t: np.full((n_flow, 4), np.nan) for t in ts}
    try:
        for t, cur in _chained(fam, v0, 0.0, ts):
            end_x[t][:] = fam.moment(cur)
    except FlowSingularityError:
        # a failing point keeps its moments for the t it reached
        for i in range(n_flow):
            try:
                for t, cur in _chained(fam, v0[i], 0.0, ts):
                    end_x[t][i] = fam.moment(cur)
            except FlowSingularityError:
                pass

    values = {"one": 1.0, "xi1": xi_pts[..., 0],
              "dist2": np.sum((xi_pts - xi_star) ** 2, axis=-1)}
    reported = concentration_sweep(pot0, lift, x_slice, svals, xi_pts, log_vol,
                                   xi_star, cfg.eps, values)
    out_flow = outside_ball(xi_flow, xi_star, cfg.eps)
    cells = []
    for s, t, sums in zip(svals, t_of, reported):
        mass_out_flow, failures, drift = None, 0, None
        if t > 0:
            x = end_x[t]
            # failed points (NaN) and points drifting out of the polytope
            ok = ambient.contains(x, tol=1e-12)
            failures = int((~ok).sum())
            if ok.any():
                out = out_flow[ok]
                # a ball covering none or all of the coarse points gives 0 or 1
                mass_out_flow = (grid_sums(section_log_density(pot0.at_s(s), lift, x[ok]),
                                           flow_log_vol, out).mass
                                 if 0 < out.sum() < out.size else float(out.all()))
                moved = model.conserved_coordinates(x[ok] @ model.A.T)
                drift = float(np.max(np.abs(moved - conserved0[ok])))
        cells.append(CellResult(
            s=s, t=t,
            outside_mass=sums.mass, sup_outside=sums.sup, pairings=sums.pairings,
            outside_mass_flow=mass_out_flow,
            flow_points=n_flow if t > 0 else 0,
            flow_failures=failures,
            torus_moment_drift=drift,
        ))

    masses = [c.outside_mass for c in cells]
    slope = mass_decay_slope(svals, masses)
    monotone = all(b < a for a, b in zip(masses, masses[1:]))
    incomplete = any(c.flow_failures > 0 for c in cells)
    return ConcentrationReport(
        xi_star=tuple(float(v) for v in xi_star),
        lift=tuple(int(v) for v in lift),
        cells=cells, slope=slope, monotone=monotone, incomplete=incomplete,
    )


# -- flag-vs-toric moment consistency --------------------------------------------


def gc_vs_torus_moment_check(t_values: Sequence[float], samples: int = 20,
                             a: Sequence[float] = (1.0, 1.0), seed: int = 0) -> np.ndarray:
    """Flow random flags from t = 1 down through t_values in one chained flow
    and compare Gelfand-Cetlin eigenvalue data of the start against the
    ambient torus moments at each t through the fixed linear identification;
    returns the max sup-norm gap per t, in input order.

    The gap shrinks as t -> 0 (trend, no absolute bound); at t = 1 the two
    sides live on different spaces and no comparison is attempted.
    """
    t_values = [float(t) for t in t_values]
    if not t_values or not all(0 < t <= 0.2 for t in t_values):
        raise ValueError("t values must lie in (0, 0.2]")
    model = GCTorusModel(a)
    fam = DegenerationFamily(a)
    flags = random_flags(3, samples, seed=seed)
    xi_start = model.xi_of_pattern(np.concatenate(gc_rows(flags, a)[:-1], axis=-1))
    gap = {t: float(np.max(np.abs(model.xi_of_state(fam, cur) - xi_start)))
           for t, cur in _chained(fam, fam.embed_flag(flags, 1.0), 1.0,
                                  sorted(set(t_values), reverse=True))}
    return np.array([gap[t] for t in t_values])
