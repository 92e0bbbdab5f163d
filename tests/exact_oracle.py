"""Exact references that the checker itself never needs: a general sparse
linear solver, and the forgetful map of ``tropms.chern`` computed the long
way, by solving for the coefficients of a class in the ray classes and their
products.

``solve_linear`` is the reference for the gluing obstruction's solver and for
``forgetful``'s closed form. ``ray_class``, ``add``, ``mul`` and
``homogeneous_part`` build and split piecewise polynomials part by part.
"""

from fractions import Fraction
from typing import Sequence

from tropms.chern import CANONICAL_FAN, CohomologyClass, CompleteFan, PiecewisePoly
from tropms.laurent import LaurentPoly as Poly


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


def add(p: PiecewisePoly, q: PiecewisePoly) -> PiecewisePoly:
    """Part-wise sum of two piecewise polynomials on one fan."""
    if p.fan != q.fan:
        raise ValueError("fan mismatch")
    return PiecewisePoly(p.fan, tuple(a + b for a, b in zip(p.parts, q.parts)))


def mul(p: PiecewisePoly, q: PiecewisePoly) -> PiecewisePoly:
    """Part-wise product of two piecewise polynomials on one fan."""
    if p.fan != q.fan:
        raise ValueError("fan mismatch")
    return PiecewisePoly(p.fan, tuple(a * b for a, b in zip(p.parts, q.parts)))


def homogeneous_part(p: PiecewisePoly, d: int) -> PiecewisePoly:
    """The terms of total degree ``d`` of each part."""
    return PiecewisePoly(p.fan, tuple(
        Poly({e: c for e, c in part.terms.items() if e[0] + e[1] == d}) for part in p.parts
    ))


def ray_class(fan: CompleteFan, ray_index: int) -> PiecewisePoly:
    """Piecewise linear class of the divisor at one ray: value 1 on that ray,
    0 on every other ray, linear on each cone, found cone by cone by solving
    for the form's two coefficients."""
    target = fan.rays[ray_index]
    parts = []
    for i in range(fan.n_cones):
        ra, rb = fan.cone_rays(i)
        (u,) = solve_linear([ra, rb], [[int(target == ra), int(target == rb)]])
        parts.append(Poly({(1, 0): u[0], (0, 1): u[1]}))
    return PiecewisePoly(fan, tuple(parts))


_LINEAR, _QUADRATIC = ((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2))  # exponents


def _coef(p: Poly, e: tuple[int, int]) -> Fraction:
    return p.terms.get(e, Fraction(0))


def forgetful_by_solve(p: PiecewisePoly) -> CohomologyClass:
    """The forgetful map on the canonical fan by solving, cone by cone, for
    the coefficients of the linear part in the three ray classes and of the
    quadratic part in their six pairwise products; ray classes map to H and
    their products to H^2."""
    if p.fan != CANONICAL_FAN or p.max_degree() > 2:
        raise ValueError("defined on the canonical fan up to degree two")
    t = [ray_class(CANONICAL_FAN, i) for i in range(3)]
    products = [mul(t[i], t[j]) for i in range(3) for j in range(i, 3)]
    h = []
    for d, basis, exponents in ((1, t, _LINEAR), (2, products, _QUADRATIC)):
        part = homogeneous_part(p, d)
        rows = [[_coef(b.parts[cone], e) for b in basis] for cone in range(3) for e in exponents]
        rhs = [_coef(part.parts[cone], e) for cone in range(3) for e in exponents]
        (x,) = solve_linear(rows, [rhs])
        if x is None:
            raise ValueError("not in the span of the ray classes")
        h.append(sum(x, Fraction(0)))
    return CohomologyClass(p.parts[0].terms.get((0, 0), Fraction(0)), *h)
