"""Exact references that the checker itself never needs: a general sparse
linear solver, and the equivariant Chern classes of ``tropms.chern`` as
piecewise polynomials, pushed to ordinary cohomology in closed form and the
long way, by solving for the coefficients of a class in the ray classes and
their products.

``solve_linear`` is the reference for the gluing obstruction's solver and for
``forgetful``'s closed form. ``equivariant_chern`` with ``forgetful`` or
``forgetful_by_solve`` is the reference for ``total_chern``, which reads the
same classes only as integers at the rays. ``ray_class``, ``add``, ``mul``
and ``homogeneous_part`` build and split piecewise polynomials part by part.
"""

from fractions import Fraction
from typing import NamedTuple, Sequence

from tropms.chern import CANONICAL_FAN, CohomologyClass, CompleteFan, sheet_slopes
from tropms.lattice import Vec
from tropms.laurent import LaurentPoly as Poly  # slot 0 is xi1, slot 1 is xi2; exponents >= 0


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


def _restrict_ray(p: Poly, ray: Vec) -> dict[int, Fraction]:
    """Coefficients of p(t*ray) as a polynomial in t, keyed by degree."""
    out: dict[int, Fraction] = {}
    for (i, j), c in p.terms.items():
        if i < 0 or j < 0:
            raise ValueError("piecewise data must be polynomial")
        val = c * (ray[0] ** i * ray[1] ** j)
        d = i + j
        s = out.get(d, Fraction(0)) + val
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def linear_form(u) -> Poly:
    return Poly({(1, 0): Fraction(u[0]), (0, 1): Fraction(u[1])})


class _Piecewise(NamedTuple):
    fan: CompleteFan
    parts: tuple[Poly, ...]


class PiecewisePoly(_Piecewise):
    """One polynomial per cone of a complete fan, agreeing on shared rays."""

    __slots__ = ()

    def __new__(cls, fan: CompleteFan, parts: tuple[Poly, ...]):
        if len(parts) != fan.n_cones:
            raise ValueError("one polynomial per cone required")
        n = fan.n_cones
        for i in range(n):
            ray = fan.rays[(i + 1) % n]
            here = _restrict_ray(parts[i], ray)
            there = _restrict_ray(parts[(i + 1) % n], ray)
            if here != there:
                raise ValueError(
                    f"discontinuous across ray {ray}: {here} vs {there}"
                )
        return super().__new__(cls, fan, parts)

    def max_degree(self) -> int:
        return max(
            (e[0] + e[1] for p in self.parts for e in p.terms), default=0
        )


def equivariant_chern(m: int, n: int) -> tuple[PiecewisePoly, PiecewisePoly]:
    """First and second equivariant classes as piecewise polynomials: the
    elementary symmetric functions of the two branch slopes on each cone."""
    slopes = sheet_slopes(m, n)
    c1_parts = []
    c2_parts = []
    for ua, ub in slopes:
        fa, fb = linear_form(ua), linear_form(ub)
        c1_parts.append(fa + fb)
        c2_parts.append(fa * fb)
    return (
        PiecewisePoly(CANONICAL_FAN, tuple(c1_parts)),
        PiecewisePoly(CANONICAL_FAN, tuple(c2_parts)),
    )


def forgetful(p: PiecewisePoly) -> CohomologyClass:
    """Push an equivariant class down to ordinary cohomology.

    Degree-one ray classes t_i (1 on ray i, 0 on the others) map to H and
    their pairwise products to H^2; globally linear functions map to zero.
    Defined on the canonical fan for piecewise polynomials of degree at most
    two. Each cone is smooth, so on cone i, spanned by rays r_i and r_(i+1),
    the linear part is p1(r_i) t_i + p1(r_(i+1)) t_(i+1) and the quadratic
    part q_i is q(r_i) t_i^2 + q(r_(i+1)) t_(i+1)^2 plus
    (q_i(r_i + r_(i+1)) - q(r_i) - q(r_(i+1))) t_i t_(i+1). Summing the
    coefficients gives H and H^2 without a solve.
    """
    if p.fan != CANONICAL_FAN:
        raise ValueError("forgetful map is defined over the canonical fan")
    if p.max_degree() > 2:
        raise ValueError("degree above two is not supported")

    consts = [pc.terms.get((0, 0), Fraction(0)) for pc in p.parts]
    if len(set(consts)) != 1:
        raise RuntimeError("constant parts disagree despite continuity")
    h1 = h2 = Fraction(0)
    for i, part in enumerate(p.parts):
        ra, rb = p.fan.cone_rays(i)
        at_ray = _restrict_ray(part, ra)
        h1 += at_ray.get(1, 0)
        h2 += _restrict_ray(part, (ra[0] + rb[0], ra[1] + rb[1])).get(2, 0) - at_ray.get(2, 0)
    return CohomologyClass(consts[0], h1, h2)


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
