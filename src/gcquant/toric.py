"""Canonical symplectic potentials on Delzant polytopes, the moment/log-complex
Legendre pair, section densities and quadrature.

A potential is g_can + s nu(iota_star .), with nu one `ConvexDeformation(Q,
iota_star)`: the form p^T Q p / 2, checked positive definite, and its restriction.

All densities are handled as logarithms; deformation strengths s of order 1e3
would overflow doubles otherwise.  The angle torus always carries total mass 1.
Every quadrature reduction (the log normalizer, the mass and sup outside an
exclusion ball, the pairings with test functions) comes out of one pass over
blocks of grid points with one exp per point: `_block_sums` reduces a block
and `_combined` combines the block sums.  `grid_sums` makes that pass over
given log densities; the per-axis sums of a box in `lab` call the same pair
on the parts of the box grid.
"""

from __future__ import annotations

import math
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
    # per column k of H with a nonzero entry: (k, its nonzero (j, H_jk) in order)
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Q = 0.5 * (Q + Q.T)
        if not np.linalg.eigvalsh(Q)[0] > 0.0:
            raise ValueError("nu must be positive definite")
        A = np.eye(len(Q)) if self.iota_star is None else np.asarray(self.iota_star, dtype=float)
        H = A.T @ Q @ A
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "_columns", tuple(
            (k, tuple((j, col[j]) for j in np.flatnonzero(col)))
            for k, col in enumerate(H.T) if col.any()))

    def value(self, x):
        """x^T H x / 2 over the leading axes of x, as sum_k x_k (x H)_k, by
        elementwise column operations and no BLAS call; zero entries of H
        (every off-diagonal one of a diagonal nu), found once on construction,
        are skipped."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for k, ((j, h), *rest) in self._columns:
            y = x[..., j] * h
            for j, h in rest:
                y += x[..., j] * h
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
    is summed one facet at a time, in facet order.
    """
    P = pot.polytope
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    lx = P.support_values(x)
    if np.any(lx < -1e-12):
        raise ValueError("point outside the polytope")
    np.maximum(lx, 0.0, out=lx)
    lm = P.support_values(m)
    rows = lx.transpose((-1,) + tuple(range(lx.ndim - 1)))
    linear = lm[0] - rows[0]
    for j in range(1, len(lm)):
        linear += lm[j] - rows[j]
    linear *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(lx, out=lx)  # -inf on walls
        lx *= 0.5 * lm
    lx[..., lm == 0.0] = 0.0  # 0 * log 0 = 0 on shared walls
    out = lx.sum(axis=-1)
    out += linear
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


def _block_sums(lb: np.ndarray, mask, phis, col: np.ndarray, e: np.ndarray,
                prod: np.ndarray) -> None:
    """Reduce one block of log densities `lb` into `col`: its max, its max on
    the points of `mask` (None: no point), then, relative to its max, its
    total, its sum on the mask and its products with each test function of
    `phis` (their values on the block).  The block is shifted by its max and
    exponentiated once into the buffer `e`, and every sum is taken from that
    buffer (the masked one with `where=`, the products through `prod`).  A
    block whose points all carry -inf (wall points) sums to 0."""
    add, big = np.add.reduce, np.maximum.reduce  # ndarray.sum/max without their wrappers
    col[0] = top = big(lb)
    col[1] = -np.inf if mask is None else big(lb, where=mask, initial=-np.inf)
    if top == -np.inf:
        col[2:] = 0.0
        return
    eb, pb = e[:len(lb)], prod[:len(lb)]
    np.exp(np.subtract(lb, top, out=eb), out=eb)
    col[2] = add(eb)
    col[3] = 0.0 if mask is None else add(eb, where=mask)
    for j, v in enumerate(phis, 4):
        col[j] = add(np.multiply(v, eb, out=pb))


def _combined(cols: np.ndarray, log_vol: float, values: dict) -> GridSums:
    """The `GridSums` of one measure from its block columns (one per block,
    as `_block_sums` fills them), combined with the factors exp(top_k - top).
    `values` are the test functions, in the order of the columns' rows for
    those that are arrays; a scalar pairs to exactly its value (NaN where the
    total mass is 0)."""
    tops = cols[0]
    top = tops.max(initial=-np.inf)
    sums = (cols[2:] * np.exp(tops - top)).sum(axis=1)
    log_total = float(top + np.log(sums[0]) + log_vol)
    top_out = cols[1].max(initial=-np.inf)
    paired = iter(sums[2:])
    pairings = {name: float(next(paired) / sums[0]) if np.ndim(v)
                else (float(v) if sums[0] > 0 else math.nan) for name, v in values.items()}
    return GridSums(log_total, float(sums[1] / sums[0]), float(np.exp(top_out - log_total)),
                    pairings)


def grid_sums(logdens: np.ndarray, log_vol: float, outside=None, values=None) -> GridSums:
    """Every reduction of the midpoint measure with log densities `logdens`
    (N,) on cells of volume exp(log_vol), in one pass over blocks of BLOCK
    points: the log of the total mass, the share of it on the points of the
    mask `outside` (None: no point), the sup of the normalized density there,
    and the normalized pairing with each test function of `values` (name ->
    its values on the points, (N,) or a scalar).  A scalar pairs to exactly
    its value, with no block pass of its own (NaN where the total mass is 0).

    Each block is reduced by `_block_sums` into block-sized buffers, and the
    block sums are combined by `_combined`.  No array passed in is written.
    The sums run in an order set by BLOCK, so the reductions move by
    rounding with it.  No BLAS call is made.
    """
    n = len(logdens)
    values = values or {}
    phis = [np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in values.values()
            if np.ndim(v)]
    spans = blocks(n)
    cols = np.empty((4 + len(phis), len(spans)))
    e, prod = np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK))
    for k, blk in enumerate(spans):
        _block_sums(logdens[blk], None if outside is None else outside[blk],
                    [v[blk] for v in phis], cols[:, k], e, prod)
    return _combined(cols, log_vol, values)


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
    The points are those of the C-ordered (N, d) tensor grid, in its order,
    but stored coordinate-major: the (N, d) transpose view of a (d, N) array,
    so that every column points[..., k] is a contiguous row.
    """
    if per_axis ** P.dim > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {per_axis}^{P.dim} points passes MAX_GRID_POINTS = "
                         f"{MAX_GRID_POINTS}")
    rows = np.empty((P.dim,) + (per_axis,) * P.dim)
    vol = 0.0
    clear = set()  # (normal, offset) of the box walls left out of the mask
    for k, (lo, hi) in enumerate(P.bounding_box()):
        h = (hi - lo) / per_axis
        axis = lo + h * (np.arange(per_axis) + 0.5)
        rows[k] = axis.reshape((per_axis,) + (1,) * (P.dim - 1 - k))
        vol += np.log(h)
        if h / 2 - 1e-9 > 16 * np.spacing(max(abs(lo), abs(hi))):
            e_k = tuple(int(i == k) for i in range(P.dim))
            clear |= {(e_k, -lo), (tuple(-v for v in e_k), hi)}
    rows = rows.reshape(P.dim, -1)
    pts = rows.T
    walls = tuple(f for f in P.facets if (tuple(f.normal), f.offset) not in clear)
    if not walls:
        return pts, vol
    Q = DelzantPolytope(P.dim, walls)
    mask = np.empty(len(pts), dtype=bool)
    for b in blocks(len(pts)):
        mask[b] = Q.contains(pts[b], tol=1e-9, strict=True)
    return (pts if mask.all() else rows.compress(mask, axis=1).T), vol

