"""Exact references that the checker itself never needs: a general sparse
linear solver; the Laurent matrix algebra of the fan cocycle; and the
equivariant Chern classes of ``tropms.chern`` as piecewise polynomials,
pushed to ordinary cohomology in closed form and the long way, by solving for
the coefficients of a class in the ray classes and their products.

``solve_linear`` is the reference for the gluing obstruction's solver and for
``forgetful``'s closed form. ``build_tau`` builds the corrected transition
matrices of a weight pair on the three inhomogeneous charts of the projective
plane; chart i carries the coordinates w_i^j for j != i, in increasing j, and
a matrix remembers which chart its entries are written in. A chart change maps
the exponent of each term by a unimodular matrix and keeps its coefficient.
``verify_cocycle_by_product`` multiplies the transitions in chart 0: it is the
reference for ``laurent.verify_cocycle``, which tests the closed form
P = a0 a1 a2 b0 b1 b2 = -1. ``equivariant_chern`` with ``forgetful`` or
``forgetful_by_solve`` is the reference for ``total_chern``, which reads the
same classes only as integers at the rays. ``ray_class``, ``add``, ``mul``
and ``homogeneous_part`` build and split piecewise polynomials part by part.
"""

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from tropms.chern import CANONICAL_FAN, CohomologyClass, CompleteFan, sheet_slopes
from tropms.lattice import Vec
from tropms.laurent import _checked


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


# -- Laurent polynomials and the transition matrices of the fan cocycle ------

class LaurentPoly:
    """Laurent polynomial in two variables with rational coefficients.

    Terms are kept in a dict mapping integer exponent pairs to nonzero
    Fractions; zero coefficients are dropped on construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                c = Fraction(c)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    @classmethod
    def mono(cls, coeff, i: int = 0, j: int = 0) -> "LaurentPoly":
        return cls({(i, j): Fraction(coeff)})

    @classmethod
    def const(cls, coeff) -> "LaurentPoly":
        return cls.mono(coeff)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, c) for (i, j), c in sorted(self.terms.items())]

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for i, j, c in self.sorted_terms():
            mono = "".join(
                f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)


def _m(c, i, j):
    return LaurentPoly.mono(c, i, j)


#: The exponents (X, Y) in chart 0 of each chart's two coordinates, writing
#: x = w0^1, y = w0^2: w1^0 = 1/x, w1^2 = y/x and w2^0 = 1/y, w2^1 = x/y.
TO_CHART0 = {
    0: ((1, 0), (0, 1)),
    1: ((-1, 0), (-1, 1)),
    2: ((0, -1), (1, -1)),
}


class LaurentMatrix:
    """Dense matrix of LaurentPoly entries tagged with its chart."""

    def __init__(self, entries: Iterable[Iterable[LaurentPoly]], chart: int):
        rows = [list(r) for r in entries]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.chart = chart

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if self.chart != other.chart:
            raise ValueError(
                f"chart mismatch ({self.chart} vs {other.chart}); convert first"
            )
        cols = list(zip(*other.entries))
        out = [  # products with a zero entry are skipped
            [sum((x * y for x, y in zip(row, col) if x.terms and y.terms), ZERO)
             for col in cols]
            for row in self.entries
        ]
        return LaurentMatrix(out, self.chart)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentMatrix)
            and self.chart == other.chart
            and self.entries == other.entries
        )

    def is_identity(self) -> bool:
        identity = [[ONE if i == j else ZERO for j in range(self.cols)] for i in range(self.rows)]
        return self.entries == identity

    def to_chart0(self) -> "LaurentMatrix":
        """The matrix written in chart 0: each term's exponent (i, j) goes to
        i*X + j*Y, with (X, Y) from ``TO_CHART0``, and keeps its coefficient.
        The map is unimodular, so no two terms collide."""
        (xa, xb), (ya, yb) = TO_CHART0[self.chart]
        return LaurentMatrix([
            [LaurentPoly({(i * xa + j * ya, i * xb + j * yb): c for (i, j), c in p.terms.items()})
             for p in row]
            for row in self.entries
        ], chart=0)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.entries
        )
        return f"LaurentMatrix(chart={self.chart}, [{body}])"


def build_tau_sf(m: int, n: int, a, b) -> tuple[LaurentMatrix, LaurentMatrix, LaurentMatrix]:
    """Naive (pre-correction) transition matrices, each in its natural chart.

    Returns (tau10, tau21, tau02) on charts 0, 1, 2.
    """
    a, b = _checked(m, n, a, b)
    tau10 = LaurentMatrix([[_m(a[0], -m, 0), ZERO], [ZERO, _m(b[0], -n, 0)]], chart=0)
    tau21 = LaurentMatrix([[_m(b[1], 0, -n), ZERO], [ZERO, _m(a[1], 0, -m)]], chart=1)
    tau02 = LaurentMatrix([[ZERO, _m(b[2], -n, 0)], [_m(a[2], -m, 0), ZERO]], chart=2)
    return tau10, tau21, tau02


def build_theta(m: int, n: int, a, b) -> tuple[LaurentMatrix, LaurentMatrix, LaurentMatrix]:
    """Unipotent wall-crossing corrections, each in its natural chart."""
    a, b = _checked(m, n, a, b)

    def lower_left(p: LaurentPoly, chart: int) -> LaurentMatrix:
        return LaurentMatrix([[ONE, ZERO], [p, ONE]], chart)

    def upper_right(p: LaurentPoly, chart: int) -> LaurentMatrix:
        return LaurentMatrix([[ONE, p], [ZERO, ONE]], chart)

    if m > n:
        d = m - n
        th10 = lower_left(_m(-a[0] * b[1] * a[2], -d, d), chart=0)
        th21 = upper_right(_m(-a[0] * a[1] * b[2], d, -d), chart=1)
        th02 = lower_left(_m(-b[0] * a[1] * a[2], -d, d), chart=2)
    else:
        d = n - m
        th10 = upper_right(_m(-b[0] * a[1] * b[2], -d, d), chart=0)
        th21 = lower_left(_m(-b[0] * b[1] * a[2], d, -d), chart=1)
        th02 = upper_right(_m(-a[0] * b[1] * b[2], -d, d), chart=2)
    return th10, th21, th02


def build_tau(m: int, n: int, a, b) -> tuple[LaurentMatrix, LaurentMatrix, LaurentMatrix]:
    """Corrected transitions tau_ij = tau_sf_ij * Theta_ij."""
    sf = build_tau_sf(m, n, a, b)
    th = build_theta(m, n, a, b)
    return tuple(s @ t for s, t in zip(sf, th))


def verify_cocycle_by_product(m: int, n: int, a, b) -> bool:
    """Pull all transitions to chart 0 and test tau02 * tau21 * tau10 == I."""
    tau10, tau21, tau02 = build_tau(m, n, a, b)
    prod = tau02.to_chart0() @ tau21.to_chart0() @ tau10.to_chart0()
    return prod.is_identity()


# -- equivariant Chern classes as piecewise polynomials ----------------------

Poly = LaurentPoly  # slot 0 is xi1, slot 1 is xi2; exponents >= 0


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
