"""Canonical symplectic potentials on Delzant polytopes, the moment/log-complex
Legendre pair, section densities and quadrature.

A potential is g_can + s nu(iota_star .), with nu one `ConvexDeformation(Q,
iota_star)`: the form p^T Q p / 2, checked positive definite, and its restriction.

All densities are handled as logarithms; deformation strengths s of order 1e3
would overflow doubles otherwise.  The angle torus always carries total mass 1.
Every quadrature reduction (the log normalizer, the mass and sup outside an
exclusion ball, the pairings with test functions) comes out of one pass over
blocks of grid points, `grid_sums`, with one exp per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import ToleranceError
from .polytope import DelzantPolytope

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi
# largest tensor grid polytope_grid builds: 256 points per axis in 3-D
MAX_GRID_POINTS = 2**24
# points per block of a grid pass: a block's (facets, points) support array
# of a 3-D polytope (6 x 2^14 float64, 786 KB) and the few (points,) buffers
# of a `grid_sums` block (128 KB each) stay in L2
BLOCK = 2**14

__all__ = [
    "ConvergenceError",
    "QuadratureError",
    "ConvexDeformation",
    "SymplecticPotential",
    "SectionDensity",
    "g_can_value",
    "g_can_grad",
    "g_can_hess",
    "section_log_density",
    "moment_to_log_complex",
    "complex_to_moment_log",
    "GridSums",
    "grid_sums",
    "outside_ball",
    "MAX_GRID_POINTS",
    "BLOCK",
    "blocks",
    "polytope_grid",
]


class ConvergenceError(ToleranceError):
    """An iterative solve did not reach its tolerance."""

    def __init__(self, detail: str):
        super().__init__("convergence", detail)


class QuadratureError(ToleranceError):
    """A quadrature did not reach its tolerance or has no points to use."""

    def __init__(self, detail: str):
        super().__init__("quadrature", detail)


# -- canonical potential ------------------------------------------------------


def g_can_value(P: DelzantPolytope, x) -> np.ndarray:
    """(1/4pi) sum_j l_j log l_j with 0 log 0 = 0; continuous up to the boundary."""
    l = P.support_values(x)
    if np.any(l < -1e-12):
        raise ValueError("point outside the polytope")
    return (l * np.log(l, out=np.zeros_like(l), where=l > 0)).sum(axis=-1) / FOUR_PI


def g_can_grad(P: DelzantPolytope, x) -> np.ndarray:
    l = P.support_values(x)
    if np.any(l <= 0.0):
        raise ValueError("gradient needs a strictly interior point")
    return (np.log(l) + 1.0) @ P.normal_matrix / FOUR_PI


def g_can_hess(P: DelzantPolytope, x) -> np.ndarray:
    l = P.support_values(x)
    if np.any(l <= 0.0):
        raise ValueError("Hessian needs a strictly interior point")
    R = P.normal_matrix
    return np.einsum("...f,fi,fj->...ij", 1.0 / l, R, R) / FOUR_PI


# -- deformations -------------------------------------------------------------


@dataclass(frozen=True)
class ConvexDeformation:
    """x -> nu(iota_star x) = x^T H x / 2 with nu(p) = p^T Q p / 2 on the
    restricted coordinates, Q positive definite (symmetrised on construction),
    and H = iota_star^T Q iota_star; iota_star = None means the identity
    restriction.

    c1/c2 are *half* the extreme eigenvalues of Q: the Taylor bound along
    segments, alpha(p) - alpha(m) >= c1 |p - m|^2, carries the 1/2 from
    int_0^1 t dt.
    """

    Q: np.ndarray
    iota_star: Optional[np.ndarray] = None
    H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Q = 0.5 * (Q + Q.T)
        if not np.linalg.eigvalsh(Q)[0] > 0.0:
            raise ValueError("nu must be positive definite")
        A = np.eye(len(Q)) if self.iota_star is None else np.asarray(self.iota_star, dtype=float)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "H", A.T @ Q @ A)

    def value(self, x):
        """x^T H x / 2 over the leading axes of x, as sum_k x_k (x H)_k, by
        elementwise column operations and no BLAS call; zero entries of H
        (every off-diagonal one of a diagonal nu) are skipped."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for k, col in enumerate(self.H.T):
            nz = np.flatnonzero(col)
            if nz.size:
                y = x[..., nz[0]] * col[nz[0]]
                for j in nz[1:]:
                    y += x[..., j] * col[j]
                y *= x[..., k]
                out += y
        return 0.5 * out

    def grad(self, x):
        return np.asarray(x, dtype=float) @ self.H

    def hess(self, x):
        """H broadcast over the points of x, as a read-only view."""
        return np.broadcast_to(self.H, np.shape(x)[:-1] + self.H.shape)

    def c1(self) -> float:
        return 0.5 * float(np.linalg.eigvalsh(self.Q)[0])

    def c2(self) -> float:
        return 0.5 * float(np.linalg.eigvalsh(self.Q)[-1])


@dataclass(frozen=True)
class SymplecticPotential:
    """g = g_can + s * nu(iota_star .) on Int Delta."""

    polytope: DelzantPolytope
    s: float
    deformer: ConvexDeformation

    def grad(self, x):
        return g_can_grad(self.polytope, x) + self.s * self.deformer.grad(x)

    def hess(self, x):
        return g_can_hess(self.polytope, x) + self.s * self.deformer.hess(x)

    def at_s(self, s: float) -> "SymplecticPotential":
        return SymplecticPotential(self.polytope, s, self.deformer)


# -- section densities ---------------------------------------------------------


def section_log_density(pot: SymplecticPotential, m, x) -> np.ndarray:
    """log |pullback of sigma^m| at moment point x (theta-independent).

    The canonical part uses the boundary-continuous closed form
    sum_j [ l_j(m)/2 * log l_j(x) + (l_j(m) - l_j(x))/2 ],
    which agrees with 2 pi (g - <x - m, grad g>) in the interior.  The
    deformation part of that expression is -2 pi s a(x), with
    a(x) = <x - m, grad nu~(x)> - nu~(x) and nu~ = nu o iota_star.  Every nu
    is a quadratic form without a linear term, so a(x) - a(m) = nu~(x - m)
    exactly, and that is what is subtracted.  The section is thereby rescaled
    by the constant exp(2 pi s a(m)), which cancels from every normalized
    output, and the log density at m is the canonical part for every s; at
    s = 0 the deformation term is not evaluated.
    Returns -inf on boundary walls not containing m.  The support values are
    the only (points, facets) array and are updated in place; the linear term
    is summed one facet at a time, in facet order.  The s-sweep of `lab`
    calls it on blocks of BLOCK grid points.
    """
    P = pot.polytope
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    lx = P.support_values(x)
    if np.any(lx < -1e-12):
        raise ValueError("point outside the polytope")
    np.maximum(lx, 0.0, out=lx)
    lm = P.support_values(m)
    rows = np.moveaxis(lx, -1, 0)
    linear = lm[0] - rows[0]
    for j in range(1, len(lm)):
        linear += lm[j] - rows[j]
    linear *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(lx, out=lx)  # -inf on walls
        lx *= 0.5 * lm
    lx[..., lm == 0.0] = 0.0  # 0 * log 0 = 0 on shared walls
    out = lx.sum(axis=-1) + linear
    del lx, rows  # the deformation term runs without the (points, facets) array
    if pot.s:
        out -= TWO_PI * pot.s * pot.deformer.value(x - m)
    return out


@dataclass(frozen=True)
class SectionDensity:
    """Log-magnitude profile of the lattice section m under a potential."""

    potential: SymplecticPotential
    m: tuple

    def log_magnitude(self, x) -> np.ndarray:
        return section_log_density(self.potential, self.m, x)


# -- moment <-> log-complex -----------------------------------------------------


def moment_to_log_complex(pot: SymplecticPotential, x):
    """y = grad g(x), the log-complex coordinates of the interior moment point
    x; the holomorphic coordinate is w = exp(2 pi (y + i theta)) at angle
    theta, which the Legendre pair leaves alone."""
    x = np.asarray(x, dtype=float)
    if not np.all(pot.polytope.contains(x, strict=True)):
        raise ValueError("moment point must be strictly interior")
    return pot.grad(x)


def complex_to_moment_log(pot: SymplecticPotential, y):
    """Invert grad g(x) = y by damped Newton from the vertex barycenter, to a
    residual of 1e-13 max(1, |y|) within 100 steps; x as an (N, d) array."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    P = pot.polytope
    x = np.tile(P.barycenter(), (y.shape[0], 1))
    bound = 1e-13 * np.maximum(1.0, np.abs(y).max(axis=-1))
    for _ in range(100):
        r = pot.grad(x) - y
        rnorm = np.abs(r).max(axis=-1)
        if np.all(rnorm <= bound):
            break
        step = -np.linalg.solve(pot.hess(x), r[..., None])[..., 0]
        alpha = np.ones(y.shape[0])
        active = rnorm > bound
        for _ in range(60):
            xn = x + alpha[:, None] * step
            inside = P.contains(xn, strict=True)
            rn = np.full_like(rnorm, np.inf)
            if np.any(inside):
                rn_in = np.abs(pot.grad(xn[inside]) - y[inside]).max(axis=-1)
                rn[inside] = rn_in
            bad = active & (~inside | (rn > (1.0 - 1e-4 * alpha) * rnorm))
            if not np.any(bad):
                break
            alpha[bad] *= 0.5
        x = np.where(active[:, None], x + alpha[:, None] * step, x)
    else:
        raise ConvergenceError("moment-map inversion did not converge")
    return x


# -- quadrature -----------------------------------------------------------------


class GridSums(NamedTuple):
    """The reductions of one `grid_sums` pass."""

    log_total: float   # log of the total mass
    mass: float        # share of the total mass on the points of the mask
    sup: float         # max of the normalized density over the mask
    pairings: dict     # name -> <phi, normalized density>


def grid_sums(logdens: np.ndarray, log_vol: float, outside=None, values=None,
              deformed=None) -> GridSums:
    """Every reduction of the midpoint measure with log densities `logdens`
    (N,) on cells of volume exp(log_vol), in one pass over blocks of BLOCK
    points: the log of the total mass, the share of it on the points of the
    mask `outside` (None: no point), the sup of the normalized density there,
    and the normalized pairing with each test function of `values` (name ->
    its values on the points, (N,) or a scalar).

    With deformed = (q, s) the log densities are logdens - 2 pi s q, the
    density of the s-sweep: each block's is written into a block buffer, bit
    for bit the whole-array expression.  No array passed in is written.
    Each block is shifted by its own max and exponentiated once into a block
    buffer, and every sum of the block is taken from that buffer (the masked
    one with `where=`); the block sums are then combined with the factors
    exp(top_k - top).  A block whose points all carry -inf (wall points) adds
    nothing.  The sums run in an order set by BLOCK, so the reductions move
    by rounding with it; a constant test function pairs to exactly its value.
    No BLAS call is made.
    """
    n = len(logdens)
    values = values or {}
    vals = [np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in values.values()]
    spans = blocks(n)
    tops = np.full(len(spans), -np.inf)
    part = np.zeros((2 + len(vals), len(spans)))  # block sums: total, mask, each phi
    top_out = -np.inf
    e, prod, dens = (np.empty(min(n, BLOCK)) for _ in range(3))
    add, big = np.add.reduce, np.maximum.reduce  # ndarray.sum/max without their wrappers
    if deformed is not None:
        q, s = deformed
        c = TWO_PI * s
    for k, blk in enumerate(spans):
        lb = logdens[blk]
        if deformed is not None:
            db = np.multiply(q[blk], c, out=dens[:len(lb)])
            lb = np.subtract(lb, db, out=db)
        if outside is not None:
            top_out = max(top_out, big(lb, where=outside[blk], initial=-np.inf))
        tops[k] = top = big(lb)
        if top == -np.inf:
            continue
        eb, pb = e[:len(lb)], prod[:len(lb)]
        np.exp(np.subtract(lb, top, out=eb), out=eb)
        part[0, k] = add(eb)
        if outside is not None:
            part[1, k] = add(eb, where=outside[blk])
        for j, v in enumerate(vals, 2):
            part[j, k] = add(np.multiply(v[blk], eb, out=pb))
    top = tops.max(initial=-np.inf)
    sums = (part * np.exp(tops - top)).sum(axis=1)
    log_total = float(top + np.log(sums[0]) + log_vol)
    return GridSums(log_total, float(sums[1] / sums[0]), float(np.exp(top_out - log_total)),
                    {name: float(p / sums[0]) for name, p in zip(values, sums[2:])})


def outside_ball(labels: np.ndarray, center, eps: float) -> np.ndarray:
    """Mask of the labels (N, d) that lie outside the eps-ball around `center`.
    The squared distance is summed one coordinate at a time, in order, with
    (N,) temporaries only; for d < 8 np.linalg.norm sums in the same order,
    so the mask is the norm's bit for bit."""
    center = np.asarray(center, dtype=float)
    sq = np.zeros(labels.shape[:-1])
    for k, c in enumerate(center):
        d = labels[..., k] - c
        d *= d
        sq += d
    return np.sqrt(sq, out=sq) > eps


def blocks(n: int) -> list[slice]:
    """Consecutive slices of at most BLOCK indices that cover range(n)."""
    return [slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK)]


def polytope_grid(P: DelzantPolytope, per_axis: int):
    """Midpoint tensor grid on the bounding box, masked to the polytope.

    Returns (points, log_cell_volume) with every point more than 1e-9 inside
    every wall: centers on a wall to roundoff carry no density, but they break
    maps defined on the interior only, such as the slice map of `lab`.
    ValueError past MAX_GRID_POINTS points on the box.  A facet with normal
    +-e_k on the box's own bound along axis k keeps every midpoint h_k/2
    inside; a midpoint and its support value round by a few spacings of the
    box's coordinates, so such a facet is left out of the wall mask when h_k/2
    clears 1e-9 by 16 of them.  The other facets are checked block by block
    (`blocks`); when none is left, as on a box, or the mask keeps every
    point, the points are returned uncopied.
    """
    if per_axis ** P.dim > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {per_axis}^{P.dim} points passes MAX_GRID_POINTS = "
                         f"{MAX_GRID_POINTS}")
    pts = np.empty((per_axis,) * P.dim + (P.dim,))
    vol = 0.0
    clear = set()  # (normal, offset) of the box walls left out of the mask
    for k, (lo, hi) in enumerate(P.bounding_box()):
        h = (hi - lo) / per_axis
        axis = lo + h * (np.arange(per_axis) + 0.5)
        pts[..., k] = axis.reshape((per_axis,) + (1,) * (P.dim - 1 - k))
        vol += np.log(h)
        if h / 2 - 1e-9 > 16 * np.spacing(max(abs(lo), abs(hi))):
            e_k = tuple(int(i == k) for i in range(P.dim))
            clear |= {(e_k, -lo), (tuple(-v for v in e_k), hi)}
    pts = pts.reshape(-1, P.dim)
    walls = tuple(f for f in P.facets if (tuple(f.normal), f.offset) not in clear)
    if not walls:
        return pts, vol
    Q = DelzantPolytope(P.dim, walls)
    mask = np.empty(len(pts), dtype=bool)
    for b in blocks(len(pts)):
        mask[b] = Q.contains(pts[b], tol=1e-9, strict=True)
    return (pts if mask.all() else pts.compress(mask, axis=0)), vol

