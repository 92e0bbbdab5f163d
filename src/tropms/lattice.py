"""Exact helpers for the rank-2 integer lattice and small linear algebra."""

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
    """Three primitive rays summing to zero, any two a lattice basis."""
    if len(rays) != 3:
        return False
    if any(not is_primitive(r) for r in rays):
        return False
    if (sum(r[0] for r in rays), sum(r[1] for r in rays)) != (0, 0):
        return False
    return all(
        is_basis(rays[i], rays[j]) for i in range(3) for j in range(i + 1, 3)
    )


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


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve an exact linear system with a unique solution.

    Raises ValueError when inconsistent or underdetermined.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("shape mismatch")
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ValueError("inconsistent system")
    if len(pivots) < n:
        raise ValueError("underdetermined system")
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x
