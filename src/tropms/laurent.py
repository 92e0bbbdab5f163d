"""Exact two-variable Laurent polynomial and matrix algebra.

Everything lives on the three inhomogeneous charts of the projective plane.
Chart i carries the coordinates w_i^j for j != i, in increasing j; a matrix
remembers which chart its entries are written in. A chart change maps the
exponent of each term by a unimodular matrix and keeps its coefficient.
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


#: Reference constants under which the transition matrices are compared.
REFERENCE_A = (Fraction(-1), Fraction(-1), Fraction(-1))
REFERENCE_B = (Fraction(1), Fraction(1), Fraction(1))


def _checked(m: int, n: int, a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The constants as Fractions; the weights must differ, and each side
    needs three nonzero constants."""
    if m == n:
        raise ValueError("the two weights must differ (m != n)")
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


def verify_cocycle(m: int, n: int, a, b) -> bool:
    """Pull all transitions to chart 0 and test tau02 * tau21 * tau10 == I."""
    tau10, tau21, tau02 = build_tau(m, n, a, b)
    prod = tau02.to_chart0() @ tau21.to_chart0() @ tau10.to_chart0()
    return prod.is_identity()
