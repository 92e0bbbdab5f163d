"""Exact integer helpers for the rank-2 lattice and complete plane fans."""

from __future__ import annotations

import math
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
