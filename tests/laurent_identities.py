"""The gauge and duality identities of the corrected transition matrices:
an oracle for ``build_tau`` that the checker itself never needs.

``verify_constant_independence`` conjugates the transitions at any constants
with prod(a_i b_i) = -1 to those at the reference constants by an explicit
diagonal gauge; ``verify_duality`` checks the J-conjugation swap of the two
weights and the transpose-inverse duality (m, n) -> (-m, -n).
"""

from fractions import Fraction

from exact_oracle import ZERO, LaurentMatrix, LaurentPoly, build_tau
from tropms.laurent import REFERENCE_A, REFERENCE_B


def const(grid, chart: int) -> LaurentMatrix:
    """Matrix of constant entries in one chart."""
    return LaurentMatrix([[LaurentPoly.const(c) for c in row] for row in grid], chart)


def diag(values, chart: int) -> LaurentMatrix:
    """Diagonal matrix of constants in one chart."""
    n = len(values)
    return LaurentMatrix(
        [[LaurentPoly.const(values[i]) if i == j else ZERO for j in range(n)] for i in range(n)],
        chart,
    )


def transpose(m: LaurentMatrix) -> LaurentMatrix:
    return LaurentMatrix(
        [[m.entries[j][i] for j in range(m.rows)] for i in range(m.cols)], m.chart
    )


def det2(m: LaurentMatrix) -> LaurentPoly:
    """Determinant of a 2x2 matrix."""
    if m.rows != 2 or m.cols != 2:
        raise ValueError("det2 is for 2x2 matrices")
    e = m.entries
    return e[0][0] * e[1][1] - e[0][1] * e[1][0]


def verify_constant_independence(m: int, n: int, a, b) -> bool:
    """Check the diagonal gauge conjugating the constants to the reference ones.

    Requires prod(a_i * b_i) = -1; the gauge f is built from the constants and
    the identities tau02*f2 = f0*tau'02, tau21*f1 = f2*tau'21,
    tau10*f0 = f1*tau'10 are tested exactly, where tau' uses the reference
    constants.
    """
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
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

    ok0 = tau02 @ diag(f2, 2) == diag(f0, 2) @ ref02
    ok1 = tau21 @ diag(f1, 1) == diag(f2, 1) @ ref21
    ok2 = tau10 @ diag(f0, 0) == diag(f1, 0) @ ref10
    return ok0 and ok1 and ok2


def verify_duality(m: int, n: int) -> bool:
    """J-conjugation swap of the two weights and transpose-inverse duality,
    at the reference constants."""
    tau = build_tau(m, n, REFERENCE_A, REFERENCE_B)
    swp = build_tau(n, m, REFERENCE_A, REFERENCE_B)
    dua = build_tau(-m, -n, REFERENCE_A, REFERENCE_B)

    def J(chart):
        return const([[0, -1], [1, 0]], chart)

    def Jinv(chart):
        return const([[0, 1], [-1, 0]], chart)

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
        if not (t @ transpose(d)).is_identity():
            return False
    return True
