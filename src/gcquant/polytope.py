"""Facet presentations of lattice polytopes, the Gelfand-Cetlin polytope of
patterns, and lattice counts.

A polytope is stored as {p : <p, r_j> + c_j >= 0} with primitive integer
normals r_j and integer offsets c_j.  The counting side is exact: the
bounding box is rational interval propagation, lattice points are enumerated
on an int64 frontier whose every bound is an integer floor division, and the
Weyl dimension is an integer product.  Enumeration refuses polytopes whose
facet values could leave int64 or whose frontier passes MAX_LATTICE_POINTS.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, inf

import numpy as np

__all__ = [
    "Facet",
    "DelzantPolytope",
    "MAX_LATTICE_POINTS",
    "UnboundedPolytopeError",
    "interval",
    "simplex_polytope",
    "box_polytope",
    "product_polytope",
    "integer_weights",
    "gc_weight",
    "gc_variable_names",
    "gc_polytope",
    "ambient_polytope",
    "weyl_dim",
    "polytope_to_json",
]


# Largest frontier lattice_points expands to; larger polytopes are an error.
MAX_LATTICE_POINTS = 2**22


class UnboundedPolytopeError(ValueError):
    pass


@dataclass(frozen=True)
class Facet:
    """One affine wall  x -> <x, normal> + offset >= 0."""

    normal: tuple[int, ...]
    offset: int
    label: str = ""

    def __post_init__(self):
        if not any(self.normal):
            raise ValueError("facet normal must be nonzero")
        g = 0
        for a in self.normal:
            g = gcd(g, a)
        if g != 1:
            raise ValueError(f"facet normal {self.normal} is not primitive")


@dataclass(frozen=True)
class DelzantPolytope:
    """Facet-presented polytope in R^dim.  Delzant-ness is not assumed:
    Gelfand-Cetlin polytopes are not even simple."""

    dim: int
    facets: tuple[Facet, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise ValueError("facet dimension mismatch")
        if self.labels and len(self.labels) != self.dim:
            raise ValueError("need one label per coordinate")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"x{i+1}" for i in range(self.dim)))

    # -- basic geometry ----------------------------------------------------

    @property
    def normal_matrix(self) -> np.ndarray:
        return np.array([f.normal for f in self.facets], dtype=float)

    @property
    def offsets(self) -> np.ndarray:
        return np.array([f.offset for f in self.facets], dtype=float)

    def support_values(self, p) -> np.ndarray:
        """All l_j(p) = <p, r_j> + c_j, batched over leading axes of p.

        A batch is filled facet-major, row j = c_j + sum_k r_jk p[..., k] over
        the nonzero r_jk, by elementwise operations and no BLAS call; the
        result is the (..., facets) view of that (facets, ...) array.  A row
        starts from its first nonzero r_jk and c_j in one ufunc, which rounds
        as c_j + r_jk p_k does, since addition and multiplication commute.
        """
        p = np.asarray(p, dtype=float)
        if p.ndim < 2:
            return p @ self.normal_matrix.T + self.offsets
        out = np.empty((len(self.facets),) + p.shape[:-1])
        for row, f in zip(out, self.facets):
            (k, r), *rest = [(k, r) for k, r in enumerate(f.normal) if r]
            if r == 1:
                np.add(p[..., k], f.offset, out=row)
            elif r == -1:
                np.subtract(f.offset, p[..., k], out=row)
            else:
                np.multiply(p[..., k], r, out=row)
                row += f.offset
            for k, r in rest:
                if r == 1:
                    row += p[..., k]
                elif r == -1:
                    row -= p[..., k]
                else:
                    row += r * p[..., k]
        return out.transpose(tuple(range(1, out.ndim)) + (0,))

    def contains(self, p, tol: float = 0.0, strict: bool = False) -> np.ndarray | bool:
        vals = self.support_values(p)
        ok = (vals > tol).all(axis=-1) if strict else (vals >= -tol).all(axis=-1)
        return bool(ok) if ok.ndim == 0 else ok

    # -- exact bounds and enumeration --------------------------------------

    def _interval_bounds(self) -> list[tuple[Fraction, Fraction]]:
        """Fixpoint interval propagation through the facet system, exact."""
        lo = [-inf] * self.dim
        hi = [inf] * self.dim
        for _ in range(64 * self.dim + 64):
            changed = False
            for f in self.facets:
                for i, ri in enumerate(f.normal):
                    if ri == 0:
                        continue
                    # bound on x_i given box bounds on the other coordinates
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
                    if ri > 0:
                        cand = -rest / ri
                        if lo[i] == -inf or cand > lo[i]:
                            lo[i] = cand
                            changed = True
                    else:
                        cand = -rest / ri
                        if hi[i] == inf or cand < hi[i]:
                            hi[i] = cand
                            changed = True
            if not changed:
                break
        if any(b == -inf for b in lo) or any(b == inf for b in hi):
            raise UnboundedPolytopeError("interval propagation did not bound the polytope")
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError("empty polytope")
        return list(zip(lo, hi))

    def bounding_box(self) -> list[tuple[float, float]]:
        """The box of `_interval_bounds` in floats.  Interval propagation cannot
        bound some bounded polytopes without axis-aligned facets, where every
        facet needs a bound on another coordinate first; those raise
        UnboundedPolytopeError.  Every polytope the CLI builds is bounded by it."""
        return [(float(a), float(b)) for a, b in self._interval_bounds()]

    def lattice_points(self) -> np.ndarray:
        """All integer points as an (N, dim) int64 array, rows in lex order.

        Breadth-first over the coordinates on an int64 frontier of integer
        prefixes (x_1..x_k).  Facet j reads r_jk x_k + rest >= 0, where rest
        is c_j plus the exact prefix term plus the largest value of the
        suffix term on the integer box, so every bound on x_k is one exact
        floor division.  A facet whose last nonzero coordinate is k has no
        suffix term: its bound is exact there and holds for every expanded
        point.  Every facet has such a coordinate, so the rows are exactly
        the integer points of P.  Raises ValueError when a facet value on
        the box could leave int64 or a frontier would pass
        MAX_LATTICE_POINTS.
        """
        box = [(ceil(lo), floor(hi)) for lo, hi in self._interval_bounds()]
        for f in self.facets:
            reach = abs(f.offset) + sum(abs(r) * max(abs(lo), abs(hi))
                                        for r, (lo, hi) in zip(f.normal, box))
            # half the int64 range, so that a difference of two bounds fits too
            if reach >= 2**62:
                raise ValueError(f"facet {f.label or f.normal} reaches 2**62 on the "
                                 "bounding box, too large for int64 enumeration")
        R = np.array([f.normal for f in self.facets], dtype=np.int64)
        R = R.reshape(len(self.facets), self.dim)
        c = np.array([f.offset for f in self.facets], dtype=np.int64)
        box_lo, box_hi = np.array(box, dtype=np.int64).reshape(self.dim, 2).T
        top = np.where(R > 0, R * box_hi, R * box_lo)  # max of r_j x_j on the box
        suffix = np.cumsum(top[:, ::-1], axis=1)[:, ::-1] - top  # sum over j > k
        # the frontier is stored transposed, one row per coordinate, so that
        # each expansion writes its rows in place
        pts = np.zeros((0, 1), dtype=np.int64)
        for k in range(self.dim):
            on = R[:, k] != 0
            rest = (c + suffix[:, k])[on, None] + R[on, :k] @ pts  # facets x prefixes
            rk = R[on, k, None]
            up, down = rk[:, 0] > 0, rk[:, 0] < 0
            lo = np.max(-(rest[up] // rk[up]), axis=0, initial=box_lo[k])
            cnt = np.min(rest[down] // -rk[down], axis=0, initial=box_hi[k]) - lo + 1
            del rest  # keep the peak to the old and the new frontier
            np.clip(cnt, 0, MAX_LATTICE_POINTS + 1, out=cnt)
            total = int(cnt.sum())
            if total > MAX_LATTICE_POINTS:
                raise ValueError(f"lattice enumeration passes MAX_LATTICE_POINTS = "
                                 f"{MAX_LATTICE_POINTS} points at coordinate {self.labels[k]}")
            idx = np.repeat(np.arange(pts.shape[1]), cnt)  # the prefix of each new point
            new = np.empty((k + 1, total), dtype=np.int64)
            # mode="clip" skips numpy's bounds-check buffer; every index is in range
            np.take(pts, idx, axis=1, out=new[:k], mode="clip")
            lo -= np.cumsum(cnt) - cnt  # x_k of a point is lo + its rank among its siblings
            np.add(lo[idx], np.arange(total), out=new[k])
            pts = new
        return pts.T

    # -- vertices and the Delzant test --------------------------------------

    def vertices(self) -> np.ndarray:
        """Brute-force vertex enumeration: facet intersections within 1e-9 of
        the polytope.  Only sensible for dim <= 6."""
        if self.dim > 6:
            raise ValueError("vertex enumeration limited to dimension <= 6")
        R = self.normal_matrix
        c = self.offsets
        verts: list[np.ndarray] = []
        for idx in itertools.combinations(range(len(self.facets)), self.dim):
            A = R[list(idx)]
            b = -c[list(idx)]
            if abs(np.linalg.det(A)) < 1e-12:
                continue
            v = np.linalg.solve(A, b)
            if not self.contains(v, tol=1e-9):
                continue
            if not any(np.max(np.abs(v - w)) < 1e-8 for w in verts):
                verts.append(v)
        if not verts:
            raise ValueError("no vertices found (empty or unbounded input)")
        order = np.lexsort(np.array(verts).T[::-1])
        return np.array(verts)[order]

    def barycenter(self) -> np.ndarray:
        return self.vertices().mean(axis=0)


# -- constructors -----------------------------------------------------------


def interval(lo: int, hi: int, label: str = "x1") -> DelzantPolytope:
    if hi <= lo:
        raise ValueError("need lo < hi")
    return DelzantPolytope(
        1,
        (
            Facet((1,), -lo, f"{label}>={lo}"),
            Facet((-1,), hi, f"{label}<={hi}"),
        ),
        (label,),
    )


def simplex_polytope(dim: int, scale: int, prefix: str = "x") -> DelzantPolytope:
    """scale * standard simplex: x_i >= 0, scale - sum x_i >= 0."""
    if dim < 1 or scale < 1:
        raise ValueError("need dim >= 1 and scale >= 1")
    facets = [
        Facet(tuple(1 if j == i else 0 for j in range(dim)), 0, f"{prefix}{i+1}>=0")
        for i in range(dim)
    ]
    facets.append(Facet((-1,) * dim, scale, f"sum<={scale}"))
    labels = tuple(f"{prefix}{i+1}" for i in range(dim))
    return DelzantPolytope(dim, tuple(facets), labels)


def box_polytope(sides: list[tuple[int, int]]) -> DelzantPolytope:
    parts = [interval(lo, hi, f"x{i+1}") for i, (lo, hi) in enumerate(sides)]
    return product_polytope(parts)


def product_polytope(factors: list[DelzantPolytope]) -> DelzantPolytope:
    """Block-diagonal product; labels get a per-factor prefix when they clash."""
    dim = sum(P.dim for P in factors)
    facets: list[Facet] = []
    labels: list[str] = []
    seen = set()
    offset = 0
    for k, P in enumerate(factors):
        for f in P.facets:
            normal = (0,) * offset + f.normal + (0,) * (dim - offset - P.dim)
            label = f.label if f.label not in seen else f"f{k+1}:{f.label}"
            seen.add(label)
            facets.append(Facet(normal, f.offset, label))
        for lab in P.labels:
            labels.append(lab if lab not in labels else f"f{k+1}_{lab}")
        offset += P.dim
    return DelzantPolytope(dim, tuple(facets), tuple(labels))


# -- Gelfand-Cetlin ----------------------------------------------------------


def integer_weights(a) -> tuple[int, ...]:
    """The weights as ints; a non-integral weight is an error, not truncated."""
    if not all(float(x).is_integer() for x in a):
        raise ValueError(f"weights a must be integers, got {tuple(a)}")
    return tuple(int(x) for x in a)


def gc_weight(a) -> tuple[int, ...]:
    """lambda_i = sum_{k >= i} a_k, with lambda_n = 0 appended."""
    a = integer_weights(a)
    if any(x <= 0 for x in a):
        raise ValueError("weights a must be positive integers")
    lam = tuple(sum(a[i:]) for i in range(len(a))) + (0,)
    return lam


def _var_index(l: int, j: int) -> int:
    # row-major over rows l = 1..n-1, entries j = 1..l
    return l * (l - 1) // 2 + (j - 1)


def gc_variable_names(n: int) -> tuple[str, ...]:
    return tuple(f"lam{l}_{j}" for l in range(1, n) for j in range(1, l + 1))


def gc_polytope(n: int, a) -> DelzantPolytope:
    """Interlacing polytope of patterns below the fixed top row lambda(a).

    Coordinates are (lam_l^j) for 1 <= j <= l <= n-1, row-major with l
    increasing; row n is pinned to lambda_i = sum_{k>=i} a_k, lambda_n = 0.
    Facets: lam_{l+1}^j >= lam_l^j and lam_l^j >= lam_{l+1}^{j+1}.
    """
    if len(tuple(a)) != n - 1:
        raise ValueError("need n-1 weights")
    lam = gc_weight(a)
    d = n * (n - 1) // 2
    facets: list[Facet] = []
    for l in range(1, n):
        for j in range(1, l + 1):
            # upper neighbour: lam_{l+1}^j - lam_l^j >= 0
            normal = [0] * d
            normal[_var_index(l, j)] = -1
            if l + 1 <= n - 1:
                normal[_var_index(l + 1, j)] = 1
                off = 0
            else:
                off = lam[j - 1]
            facets.append(Facet(tuple(normal), off, f"lam{l+1}_{j}>=lam{l}_{j}"))
            # lower neighbour: lam_l^j - lam_{l+1}^{j+1} >= 0
            normal = [0] * d
            normal[_var_index(l, j)] = 1
            if l + 1 <= n - 1:
                normal[_var_index(l + 1, j + 1)] = -1
                off = 0
            else:
                off = -lam[j]
            facets.append(Facet(tuple(normal), off, f"lam{l}_{j}>=lam{l+1}_{j+1}"))
    return DelzantPolytope(d, tuple(facets), gc_variable_names(n))


def ambient_polytope(n: int, a) -> DelzantPolytope:
    """Moment polytope of prod_l P(wedge^l C^n) with weights a: product of
    scaled simplices a_l * Delta^(C(n,l)-1)."""
    from math import comb

    a = integer_weights(a)
    if len(a) != n - 1:
        raise ValueError("need n-1 weights")
    factors = [simplex_polytope(comb(n, l) - 1, a[l - 1], prefix=f"x{l}_") for l in range(1, n)]
    return product_polytope(factors)


# -- counting ----------------------------------------------------------------


def weyl_dim(lam) -> int:
    """prod_{i<j} (lam_i - lam_j + j - i)/(j - i), exact integer."""
    lam = tuple(int(x) for x in lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("lambda must be weakly decreasing")
    num = 1
    den = 1
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


# -- serialization -----------------------------------------------------------


def polytope_to_json(P: DelzantPolytope) -> str:
    data = {
        "dim": P.dim,
        "labels": list(P.labels),
        "facets": [
            {"normal": list(f.normal), "offset": f.offset, "label": f.label}
            for f in P.facets
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True)

