"""Exact two-variable Laurent polynomial and matrix algebra.

Everything lives on the three inhomogeneous charts of the projective plane.
Chart i carries the coordinates w_i^j for j != i, in increasing j; a matrix
remembers which chart its entries are written in, and chart changes are
monomial substitutions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


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

    @property
    def is_one(self) -> bool:
        return self.terms == {(0, 0): Fraction(1)}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
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
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def scale(self, coeff) -> "LaurentPoly":
        return self * LaurentPoly.const(coeff)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, x_image: "LaurentPoly", y_image: "LaurentPoly") -> "LaurentPoly":
        """Monomial substitution; both images must be single terms so that
        negative exponents stay Laurent."""
        for im in (x_image, y_image):
            if not im.is_monomial():
                raise ValueError("substitution images must be monomials")
        (xi, xj), xc = next(iter(x_image.terms.items()))
        (yi, yj), yc = next(iter(y_image.terms.items()))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            coeff = c * xc**i * yc**j
            e = (xi * i + yi * j, xj * i + yj * j)
            s = out.get(e, Fraction(0)) + coeff
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

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


class ChartMap:
    """Invertible monomial substitution between charts."""

    def __init__(self, src: int, dst: int, x_image: LaurentPoly, y_image: LaurentPoly):
        for im in (x_image, y_image):
            if not im.is_monomial():
                raise ValueError("chart maps are monomial substitutions")
        (a, b), _ = next(iter(x_image.terms.items()))
        (c, d), _ = next(iter(y_image.terms.items()))
        if a * d - b * c not in (1, -1):
            raise ValueError("substitution exponent matrix must be unimodular")
        self.src = src
        self.dst = dst
        self.x_image = x_image
        self.y_image = y_image

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        return p.substitute(self.x_image, self.y_image)

    def apply_matrix(self, m: "LaurentMatrix") -> "LaurentMatrix":
        if m.chart != self.src:
            raise ValueError(f"matrix is in chart {m.chart}, map expects {self.src}")
        return LaurentMatrix(
            [[self.apply(e) for e in row] for row in m.entries], chart=self.dst
        )


def _m(c, i, j):
    return LaurentPoly.mono(c, i, j)


#: Coordinate changes into chart 0, writing x = w0^1, y = w0^2:
#: w1^0 = 1/x, w1^2 = y/x and w2^0 = 1/y, w2^1 = x/y.
TO_CHART0 = {
    0: ChartMap(0, 0, _m(1, 1, 0), _m(1, 0, 1)),
    1: ChartMap(1, 0, _m(1, -1, 0), _m(1, -1, 1)),
    2: ChartMap(2, 0, _m(1, 0, -1), _m(1, 1, -1)),
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

    @classmethod
    def const(cls, grid, chart: int) -> "LaurentMatrix":
        return cls(
            [[LaurentPoly.const(c) for c in row] for row in grid], chart
        )

    @classmethod
    def diag(cls, values, chart: int) -> "LaurentMatrix":
        vals = [
            v if isinstance(v, LaurentPoly) else LaurentPoly.const(v) for v in values
        ]
        n = len(vals)
        return cls(
            [[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)], chart
        )

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if self.chart != other.chart:
            raise ValueError(
                f"chart mismatch ({self.chart} vs {other.chart}); convert first"
            )
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return LaurentMatrix(out, self.chart)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentMatrix)
            and self.chart == other.chart
            and self.entries == other.entries
        )

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            [[self.entries[j][i] for j in range(self.rows)] for i in range(self.cols)],
            self.chart,
        )

    def det2(self) -> LaurentPoly:
        if self.rows != 2 or self.cols != 2:
            raise ValueError("det2 is for 2x2 matrices")
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def is_identity(self) -> bool:
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if i == j and not e.is_one:
                    return False
                if i != j and not e.is_zero:
                    return False
        return True

    def to_chart0(self) -> "LaurentMatrix":
        return TO_CHART0[self.chart].apply_matrix(self)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.entries
        )
        return f"LaurentMatrix(chart={self.chart}, [{body}])"


#: Reference constants under which the transition matrices are compared.
REFERENCE_A = (Fraction(-1), Fraction(-1), Fraction(-1))
REFERENCE_B = (Fraction(1), Fraction(1), Fraction(1))


def _check_exponents(m: int, n: int) -> None:
    if m == n:
        raise ValueError("the two weights must differ (m != n)")


def _check_constants(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
    if len(a) != 3 or len(b) != 3:
        raise ValueError("need three constants on each side")
    if any(x == 0 for x in a + b):
        raise ValueError("constants must be nonzero")
    return a, b


def build_tau_sf(m: int, n: int, a, b) -> tuple[LaurentMatrix, LaurentMatrix, LaurentMatrix]:
    """Naive (pre-correction) transition matrices, each in its natural chart.

    Returns (tau10, tau21, tau02) on charts 0, 1, 2.
    """
    _check_exponents(m, n)
    a, b = _check_constants(a, b)
    tau10 = LaurentMatrix([[_m(a[0], -m, 0), ZERO], [ZERO, _m(b[0], -n, 0)]], chart=0)
    tau21 = LaurentMatrix([[_m(b[1], 0, -n), ZERO], [ZERO, _m(a[1], 0, -m)]], chart=1)
    tau02 = LaurentMatrix([[ZERO, _m(b[2], -n, 0)], [_m(a[2], -m, 0), ZERO]], chart=2)
    return tau10, tau21, tau02


def build_theta(m: int, n: int, a, b) -> tuple[LaurentMatrix, LaurentMatrix, LaurentMatrix]:
    """Unipotent wall-crossing corrections, each in its natural chart."""
    _check_exponents(m, n)
    a, b = _check_constants(a, b)

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


def verify_cocycle(m: int, n: int, a, b) -> bool:
    """Pull all transitions to chart 0 and test tau02 * tau21 * tau10 == I."""
    tau10, tau21, tau02 = build_tau(m, n, a, b)
    prod = tau02.to_chart0() @ tau21.to_chart0() @ tau10.to_chart0()
    return prod.is_identity()


def verify_constant_independence(m: int, n: int, a, b) -> bool:
    """Check the diagonal gauge conjugating the constants to the reference ones.

    Requires prod(a_i * b_i) = -1; the gauge f is built from the constants and
    the identities tau02*f2 = f0*tau'02, tau21*f1 = f2*tau'21,
    tau10*f0 = f1*tau'10 are tested exactly, where tau' uses the reference
    constants.
    """
    _check_exponents(m, n)
    a, b = _check_constants(a, b)
    prod = Fraction(1)
    for x, y in zip(a, b):
        prod *= x * y
    if prod != -1:
        raise ValueError("gauge exists only when prod(a_i b_i) = -1")

    tau10, tau21, tau02 = build_tau(m, n, a, b)
    ref10, ref21, ref02 = build_tau(m, n, REFERENCE_A, REFERENCE_B)

    f0 = (Fraction(1), a[0] * a[2] * b[1])
    f1 = (-a[0], a[0] * a[2] * b[0] * b[1])
    f2 = (-a[0] * b[1], 1 / b[2])

    ok0 = tau02 @ LaurentMatrix.diag(f2, 2) == LaurentMatrix.diag(f0, 2) @ ref02
    ok1 = tau21 @ LaurentMatrix.diag(f1, 1) == LaurentMatrix.diag(f2, 1) @ ref21
    ok2 = tau10 @ LaurentMatrix.diag(f0, 0) == LaurentMatrix.diag(f1, 0) @ ref10
    return ok0 and ok1 and ok2


def verify_duality(m: int, n: int) -> bool:
    """J-conjugation swap of the two weights and transpose-inverse duality,
    at the reference constants."""
    _check_exponents(m, n)
    tau = build_tau(m, n, REFERENCE_A, REFERENCE_B)
    swp = build_tau(n, m, REFERENCE_A, REFERENCE_B)
    dua = build_tau(-m, -n, REFERENCE_A, REFERENCE_B)

    def J(chart):
        return LaurentMatrix.const([[0, -1], [1, 0]], chart)

    def Jinv(chart):
        return LaurentMatrix.const([[0, 1], [-1, 0]], chart)

    tau10, tau21, tau02 = tau
    swp10, swp21, swp02 = swp
    ok = (
        tau10 @ J(0) == Jinv(0) @ swp10
        and tau21 @ Jinv(1) == J(1) @ swp21
        and tau02 @ J(2) == J(2) @ swp02
    )
    if not ok:
        return False
    for t, d in zip(tau, dua):
        if not (t @ d.transpose()).is_identity():
            return False
    return True

