"""Exact integer helpers for the rank-2 lattice and complete plane fans, in
closed form: a modular inverse and a count of positive x-axis crossings."""

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


def standard_triple(rays: Sequence[Vec]) -> bool:
    """Three primitive rays summing to zero, any two a lattice basis. When
    three rays sum to zero and the first two are a basis, so are the other
    pairs, and a vector of a basis is primitive."""
    if len(rays) != 3:
        return False
    a, b, c = rays
    return a[0] + b[0] + c[0] == 0 and a[1] + b[1] + c[1] == 0 and det2(a, b) in (1, -1)


def canonical_transverse(r: Vec) -> Vec:
    """Canonical generator of the lattice modulo a primitive direction.

    Returns the unique q with det(r, q) = 1 and 0 <= dot(r, q) < dot(r, r).
    Negating r negates the result.
    """
    if not is_primitive(r):
        raise ValueError(f"direction {r} must be primitive")
    # det(r, (x, y)) = r0*y - r1*x = 1: y inverts r0 mod r1 (r0 = y = +-1 if r1 = 0)
    y = pow(r[0], -1, abs(r[1])) if r[1] else r[0]
    x = (r[0] * y - 1) // r[1] if r[1] else 0
    rr = dot(r, r)
    k = -(dot(r, (x, y)) // rr)
    q = (x + k * r[0], y + k * r[1])
    if det2(r, q) != 1 or not 0 <= dot(r, q) < rr:
        raise RuntimeError(f"transverse generator {q} of {r} is not reduced")
    return q


def angular_class(u: Vec) -> int:
    """0 for the closed upper half starting at the positive x-axis, 1 below."""
    if u[1] > 0 or (u[1] == 0 and u[0] > 0):
        return 0
    return 1


def fan_flaw(rays: Sequence[Vec]) -> str:
    """What keeps rays listed in order from being the primitive rays of a
    complete fan, turning once around the origin, strictly counterclockwise;
    empty if nothing does. Each step then turns by less than a half turn, so
    it crosses the positive x-axis when its ``angular_class`` drops from 1 to
    0, once per full turn: rays that pass are at least three and distinct."""
    n = len(rays)
    if not all(map(is_primitive, rays)):
        return "has a non-primitive ray"
    strict = all(det2(rays[i - 1], rays[i]) > 0 for i in range(n))
    turns = sum(angular_class(rays[i - 1]) > angular_class(rays[i]) for i in range(n))
    if not strict or turns != 1:
        return "rays do not sweep one full turn"
    return ""
