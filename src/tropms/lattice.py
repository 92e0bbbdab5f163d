"""Exact helpers for the rank-2 integer lattice, and the exact linear solver."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vec = tuple[int, int]


def dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def rot90(u: Vec) -> Vec:
    """Counterclockwise quarter turn."""
    return (-u[1], u[0])


def is_primitive(u: Vec) -> bool:
    return u != (0, 0) and math.gcd(u[0], u[1]) == 1


def is_basis(u: Vec, v: Vec) -> bool:
    return det2(u, v) in (1, -1)


def standard_triple(rays: Sequence[Vec]) -> bool:
    """Three primitive rays summing to zero, any two a lattice basis. When
    three rays sum to zero and the first two are a basis, so are the other
    pairs, and a vector of a basis is primitive."""
    if len(rays) != 3:
        return False
    a, b, c = rays
    return a[0] + b[0] + c[0] == 0 and a[1] + b[1] + c[1] == 0 and is_basis(a, b)


def canonical_transverse(r: Vec) -> Vec:
    """Canonical generator of the lattice modulo a primitive direction.

    Returns the unique q with det(r, q) = 1 and 0 <= dot(r, q) < dot(r, r).
    Negating r negates the result.
    """
    if not is_primitive(r):
        raise ValueError(f"direction {r} must be primitive")
    # det(r, (x, y)) = r0*y - r1*x = 1 via the extended Euclid identity
    g, s, t = _xgcd(r[0], -r[1])
    if g != 1:
        raise RuntimeError(f"gcd of primitive direction {r} is {g}")
    q0 = (t, s)
    rr = dot(r, r)
    k = (dot(r, q0) % rr - dot(r, q0)) // rr
    q = (q0[0] + k * r[0], q0[1] + k * r[1])
    if det2(r, q) != 1 or not 0 <= dot(r, q) < rr:
        raise RuntimeError(f"transverse generator {q} of {r} is not reduced")
    return q


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def angular_class(u: Vec) -> int:
    """0 for the closed upper half starting at the positive x-axis, 1 below."""
    if u[1] > 0 or (u[1] == 0 and u[0] > 0):
        return 0
    return 1


def ccw_cmp(u: Vec, v: Vec) -> int:
    """Compare directions counterclockwise from the positive x-axis."""
    hu, hv = angular_class(u), angular_class(v)
    if hu != hv:
        return -1 if hu < hv else 1
    d = det2(u, v)
    if d > 0:
        return -1
    if d < 0:
        return 1
    return 0


def fan_flaw(rays: Sequence[Vec]) -> str:
    """What keeps rays listed in order from being the primitive rays of a
    complete fan, turning once around the origin, strictly counterclockwise;
    empty if nothing does. Each step then turns by less than a half turn, so
    the angle passes the positive x-axis once per full turn: rays that pass
    are at least three and point in distinct directions."""
    n = len(rays)
    if not all(map(is_primitive, rays)):
        return "has a non-primitive ray"
    strict = all(det2(rays[i - 1], rays[i]) > 0 for i in range(n))
    turns = sum(ccw_cmp(rays[i - 1], rays[i]) > 0 for i in range(n))
    if not strict or turns != 1:
        return "rays do not sweep one full turn"
    return ""


def solve_linear(rows: Sequence, rhs: Sequence[Sequence]) -> list[list[Fraction] | None]:
    """Solve ``rows`` x = b exactly for each right-hand side b in ``rhs``: the
    unique solution as Fractions, or None where that side is inconsistent.

    A row is a dense sequence or a {column: value} dict of ints and Fractions;
    the columns run to the last one a row names. Raises ValueError on a side of
    the wrong length or on dependent columns. Sparse Gaussian elimination: a
    column's pivot is the shortest remaining row with an entry there, and only
    a pivot other than 1 divides its row, so integers stay integers."""
    m = len(rows)
    if any(len(side) != m for side in rhs):
        raise ValueError("shape mismatch")
    a = [dict(r if isinstance(r, dict) else enumerate(r)) for r in rows]
    n = max((c + 1 for r in a for c in r), default=0)
    a = [{c: v.numerator if v.denominator == 1 else v for c, v in r.items() if v} for r in a]
    b = [[side[i] for side in rhs] for i in range(m)]  # row i's value in each side
    holding: list[set[int]] = [set() for _ in range(n)]  # column -> rows that had an entry
    for i, r in enumerate(a):
        for c in r:
            holding[c].add(i)
    pivots: list[int] = []  # the pivot row of each column
    for c in range(n):
        below = {i for i in holding[c] if c in a[i]}.difference(pivots)
        if not below:
            raise ValueError("dependent columns")
        p = min(below, key=lambda i: (len(a[i]), i))
        below.remove(p)
        inv = 1 / Fraction(a[p].pop(c))  # the pivot row keeps only its later columns
        if inv != 1:  # scale them to pivot 1, by an int when the inverse is one
            inv = inv.numerator if inv.denominator == 1 else inv
            a[p] = {c2: v * inv for c2, v in a[p].items()}
            b[p] = [s * inv for s in b[p]]
        for i in below:
            f = a[i].pop(c)
            for c2, v in a[p].items():
                w = a[i].get(c2, 0) - f * v
                if w:
                    a[i][c2] = w
                    holding[c2].add(i)
                else:
                    del a[i][c2]
            b[i] = [s - f * t if t else s for s, t in zip(b[i], b[p])]
        pivots.append(p)
    x: list[list] = [[]] * n  # column -> its value in each side
    for c in reversed(range(n)):
        acc = b[pivots[c]]
        for c2, v in a[pivots[c]].items():
            acc = [s - v * t if t else s for s, t in zip(acc, x[c2])]
        x[c] = acc
    zero = set(range(m)).difference(pivots)  # rows eliminated to nothing
    return [[Fraction(col[j]) for col in x] if all(b[i][j] == 0 for i in zero) else None
            for j in range(len(rhs))]
