"""The fan cocycle of the local models around a ramification point, in closed form.

The corrected transitions tau_ij = tau_sf_ij * Theta_ij of a weight pair
m != n with nonzero constants a, b live on the three charts of the projective
plane. Pulled to chart 0, tau02 * tau21 * tau10 has -P on one diagonal entry,
where P = a0 a1 a2 b0 b1 b2, and equals the identity once P = -1, for every n
and every gap |m - n| >= 1: the cocycle holds exactly when P = -1. The proof
is the sympy test in ``tests/test_laurent.py``; the Laurent matrix algebra
that builds and multiplies the transitions is the reference the closed form
is tested against, in ``tests/exact_oracle.py``.
"""

from fractions import Fraction

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


def verify_cocycle(m: int, n: int, a, b) -> bool:
    """Whether tau02 * tau21 * tau10 == I in chart 0: whether P == -1."""
    a, b = _checked(m, n, a, b)
    return a[0] * a[1] * a[2] * b[0] * b[1] * b[2] == -1
