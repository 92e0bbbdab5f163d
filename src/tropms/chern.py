"""Total Chern classes of rank-2 weighted double covers over the projective
plane, read off the integer values of their equivariant classes at the rays,
and exact Newton polytopes of piecewise linear functions on complete plane
fans."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lattice import Vec, det2, dot, fan_flaw


class CompleteFan:
    """Complete fan in the plane: primitive rays in strictly counterclockwise
    order, with the two-dimensional cones spanned by consecutive rays."""

    def __init__(self, rays: Sequence[Vec]):
        rays = tuple([tuple(int(c) for c in r) for r in rays])
        flaw = fan_flaw(rays)
        if flaw:
            raise ValueError(f"fan {list(rays)} {flaw}")
        self.rays: tuple[Vec, ...] = rays

    @property
    def n_cones(self) -> int:
        return len(self.rays)

    def cone_rays(self, i: int) -> tuple[Vec, Vec]:
        return self.rays[i], self.rays[(i + 1) % len(self.rays)]

    def __eq__(self, other) -> bool:
        return isinstance(other, CompleteFan) and self.rays == other.rays

    def __repr__(self) -> str:
        return f"CompleteFan({list(self.rays)})"


#: Fan of the projective plane in the basis used throughout: rays (-1,0),
#: (0,-1), (1,1); cone i is spanned by rays i and i+1.
CANONICAL_FAN = CompleteFan([(-1, 0), (0, -1), (1, 1)])


def _meet(a: Vec, b: Vec, p: int, q: int) -> tuple[Fraction, Fraction]:
    """The u with dot(u, a) = p and dot(u, b) = q, by Cramer's rule."""
    d = det2(a, b)
    return Fraction(det2((p, q), (a[1], b[1])), d), Fraction(det2((a[0], b[0]), (p, q)), d)


class CohomologyClass(NamedTuple):
    """Class in the cohomology of the projective plane, written against the
    basis 1, H, H^2 with H the hyperplane class."""

    h0: Fraction
    h1: Fraction
    h2: Fraction

    @classmethod
    def of(cls, h0=0, h1=0, h2=0) -> "CohomologyClass":
        return cls(Fraction(h0), Fraction(h1), Fraction(h2))

    def __repr__(self) -> str:
        bits = []
        for c, sym in ((self.h0, ""), (self.h1, "H"), (self.h2, "H^2")):
            if c == 0:
                continue
            if c == 1 and sym:
                bits.append(sym)
            else:
                bits.append(f"{c}{sym}" if sym else f"{c}")
        return " + ".join(bits) if bits else "0"


def sheet_slopes(m: int, n: int) -> list[tuple[Vec, Vec]]:
    """Slopes of the two branches of the weight-(m, n) local model over each
    cone of the canonical fan, in cone order."""
    if m == n:
        raise ValueError("the two weights must differ (m != n)")
    d = n - m
    return [
        ((d, 0), (0, d)),
        ((n, 0), (n, d)),
        ((d, n), (0, n)),
    ]


def total_chern(m: int, n: int) -> CohomologyClass:
    """Total class 1 + c1 + c2 in ordinary cohomology. On each cone the
    equivariant c1 and c2 are the elementary symmetric functions of the two
    sheets' slopes; the forgetful map sends each ray class to H, each product
    of two to H^2 and globally linear functions to zero. Each cone is smooth,
    so over cone i, spanned by rays r_i and r_(i+1), H collects c1(r_i) and
    H^2 collects c2(r_i + r_(i+1)) - c2(r_i)."""
    slopes = sheet_slopes(m, n)

    def c(i: int, r: Vec) -> tuple[int, int]:  # c1 and c2 on cone i, at r
        a, b = (dot(u, r) for u in slopes[i % len(slopes)])
        return a + b, a * b

    h1 = h2 = 0
    for i in range(len(slopes)):
        ra, rb = CANONICAL_FAN.cone_rays(i)
        if c(i, rb) != c(i + 1, rb):
            raise RuntimeError(f"equivariant classes discontinuous across ray {rb}")
        h1 += c(i, ra)[0]
        h2 += c(i, (ra[0] + rb[0], ra[1] + rb[1]))[1] - c(i, ra)[1]
    return CohomologyClass.of(1, h1, h2)


def stability_discriminant(m: int, n: int, tc: CohomologyClass) -> tuple[int, str]:
    """Discriminant c1^2 - 4*c2 of the rank-2 bundle with total Chern class
    ``tc = total_chern(m, n)``, and a stability verdict."""
    delta = tc.h1 * tc.h1 - 4 * tc.h2
    if delta != -3 * (m - n) ** 2:
        raise RuntimeError(f"discriminant invariant violated: {delta}")
    verdict = "stable" if delta < 0 else "not stable"
    return int(delta), verdict


# -- Newton polytopes --------------------------------------------------------


class NewtonPolytope(NamedTuple):
    """Lattice points of the polytope of a piecewise linear function, with the
    vertices of their convex hull in counterclockwise order from the
    lexicographically smallest point."""

    lattice_points: frozenset[Vec]
    vertices: tuple[Vec, ...]

    @property
    def is_empty(self) -> bool:
        return not self.lattice_points

    def __contains__(self, u) -> bool:
        return tuple(u) in self.lattice_points


def _hull(points: list[Vec]) -> tuple[Vec, ...]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and det2(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (q[0] - out[-1][0], q[1] - out[-1][1]),
            ) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return tuple(lower[:-1] + upper[:-1])


def check_pl_continuity(fan: CompleteFan, slopes: Sequence[Vec]) -> None:
    """Raise when per-cone slopes disagree on a shared ray."""
    n = fan.n_cones
    if len(slopes) != n:
        raise ValueError("one slope per cone required")
    for i in range(n):
        ray = fan.rays[(i + 1) % n]
        if dot(slopes[i], ray) != dot(slopes[(i + 1) % n], ray):
            raise ValueError(f"slopes discontinuous across ray {ray}")


def newton_polytope(fan: CompleteFan, slopes: Sequence[Vec]) -> NewtonPolytope:
    """Polytope of points pairing below a piecewise linear function.

    The function has the given integral slope on each cone; the polytope is
    cut out by one exact inequality per ray.
    """
    slopes = [tuple(int(c) for c in u) for u in slopes]
    check_pl_continuity(fan, slopes)
    values = [dot(slopes[i], fan.rays[i]) for i in range(fan.n_cones)]
    rays = fan.rays

    def feasible(u) -> bool:
        return all(
            Fraction(u[0]) * r[0] + Fraction(u[1]) * r[1] <= values[i]
            for i, r in enumerate(rays)
        )

    corners = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if det2(rays[i], rays[j]) == 0:
                continue
            sol = _meet(rays[i], rays[j], values[i], values[j])
            if feasible(sol):
                corners.append(sol)
    if not corners:
        return NewtonPolytope(frozenset(), ())

    lo_x = math.ceil(min(c[0] for c in corners))
    hi_x = math.floor(max(c[0] for c in corners))
    lo_y = math.ceil(min(c[1] for c in corners))
    hi_y = math.floor(max(c[1] for c in corners))
    pts = [
        (x, y)
        for x in range(lo_x, hi_x + 1)
        for y in range(lo_y, hi_y + 1)
        if feasible((x, y))
    ]
    return NewtonPolytope(frozenset(pts), _hull(pts))


def nonvanishing_at_fixed_point(
    fan: CompleteFan, slopes: Sequence[Vec], cone_index: int
) -> bool:
    """Whether the slope of the given cone lies in the Newton polytope of the
    function, so the corresponding local section survives at that fixed point."""
    return tuple(int(c) for c in slopes[cone_index]) in newton_polytope(fan, slopes)
