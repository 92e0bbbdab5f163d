import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurent_identities import det2, verify_constant_independence, verify_duality
from tropms.laurent import (
    REFERENCE_A,
    REFERENCE_B,
    TO_CHART0,
    LaurentMatrix,
    LaurentPoly,
    build_tau,
    build_tau_sf,
    build_theta,
    verify_cocycle,
)

ONES = (Fraction(1), Fraction(1), Fraction(1))


def rand_fraction(rng):
    num = rng.choice([x for x in range(-6, 7) if x != 0])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_tuples(rng, normalized):
    """Three a's and three b's, nonzero; if normalized, scale so the product
    of all six is -1."""
    a = [rand_fraction(rng) for _ in range(3)]
    b = [rand_fraction(rng) for _ in range(3)]
    if normalized:
        prod = Fraction(1)
        for x, y in zip(a, b):
            prod *= x * y
        b[2] = b[2] * (-1 / prod)
    return tuple(a), tuple(b)


# -- polynomial ring laws ----------------------------------------------------

coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=9)
exps = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly() == p
    assert p * LaurentPoly.const(1) == p
    assert p - p == LaurentPoly()


@settings(max_examples=25, deadline=None)
@given(polys, polys, polys, polys, st.sampled_from(sorted(TO_CHART0)))
def test_chart_map_respects_products(p, q, r, s, chart):
    a = LaurentMatrix([[p, q], [r, s]], chart=chart)
    b = LaurentMatrix([[s, p], [q, r]], chart=chart)
    assert (a @ b).to_chart0() == a.to_chart0() @ b.to_chart0()


def test_chart_maps_are_unimodular():
    """Each chart change maps exponents by a unimodular matrix, so no two
    terms of a polynomial collide, and it keeps every coefficient."""
    assert sorted(TO_CHART0) == [0, 1, 2]
    for chart, ((a, b), (c, d)) in TO_CHART0.items():
        assert a * d - b * c in (1, -1), chart
    assert TO_CHART0[0] == ((1, 0), (0, 1))
    # w1^0 = 1/x and w1^2 = y/x
    w1 = LaurentMatrix([[LaurentPoly.mono(3, 1, 0), LaurentPoly.mono(5, 0, 1)]], chart=1)
    assert w1.to_chart0() == LaurentMatrix(
        [[LaurentPoly.mono(3, -1, 0), LaurentPoly.mono(5, -1, 1)]], chart=0)
    p = LaurentPoly({(i, j): Fraction(i + 2, j + 5) for i in range(-3, 4) for j in range(-3, 4)})
    for chart in TO_CHART0:
        (q,), = LaurentMatrix([[p]], chart=chart).to_chart0().entries
        assert len(q.terms) == len(p.terms)
        assert sorted(q.terms.values()) == sorted(p.terms.values())


# -- frozen shapes of the transition factors ---------------------------------

def test_tau_sf_display_weights_one_zero():
    tau10, tau21, tau02 = build_tau_sf(1, 0, ONES, ONES)
    assert tau10.entries[0][0] == LaurentPoly.mono(1, -1, 0)  # 1/w0^1
    assert tau10.entries[1][1] == LaurentPoly.const(1)
    assert tau10.entries[0][1].is_zero and tau10.entries[1][0].is_zero
    # the 0<-2 factor is antidiagonal
    assert tau02.entries[0][0].is_zero and tau02.entries[1][1].is_zero
    assert tau02.entries[0][1] == LaurentPoly.const(1)
    assert tau02.entries[1][0] == LaurentPoly.mono(1, -1, 0)
    assert (tau10.chart, tau21.chart, tau02.chart) == (0, 1, 2)


def test_tau_sf_places_constants():
    a = (Fraction(2), Fraction(3), Fraction(5))
    b = (Fraction(7), Fraction(11), Fraction(13))
    tau10, tau21, tau02 = build_tau_sf(3, 1, a, b)
    assert tau10.entries[0][0] == LaurentPoly.mono(2, -3, 0)
    assert tau10.entries[1][1] == LaurentPoly.mono(7, -1, 0)
    assert tau21.entries[0][0] == LaurentPoly.mono(11, 0, -1)
    assert tau21.entries[1][1] == LaurentPoly.mono(3, 0, -3)
    assert tau02.entries[0][1] == LaurentPoly.mono(13, -1, 0)
    assert tau02.entries[1][0] == LaurentPoly.mono(5, -3, 0)


def test_theta_display_descending_weights():
    a = (Fraction(2), Fraction(3), Fraction(5))
    b = (Fraction(7), Fraction(11), Fraction(13))
    th10, th21, th02 = build_theta(2, 0, a, b)
    assert th10.entries[1][0] == LaurentPoly.mono(-2 * 11 * 5, -2, 2)
    assert th10.entries[0][1].is_zero
    assert th21.entries[0][1] == LaurentPoly.mono(-2 * 3 * 13, 2, -2)
    assert th02.entries[1][0] == LaurentPoly.mono(-7 * 3 * 5, -2, 2)
    for th in (th10, th21, th02):
        assert det2(th) == LaurentPoly.const(1)


def test_theta_display_ascending_weights():
    a = (Fraction(2), Fraction(3), Fraction(5))
    b = (Fraction(7), Fraction(11), Fraction(13))
    th10, th21, th02 = build_theta(0, 3, a, b)
    assert th10.entries[0][1] == LaurentPoly.mono(-7 * 3 * 13, -3, 3)
    assert th10.entries[1][0].is_zero
    assert th21.entries[1][0] == LaurentPoly.mono(-7 * 11 * 5, 3, -3)
    assert th02.entries[0][1] == LaurentPoly.mono(-2 * 11 * 13, -3, 3)


def test_equal_weights_rejected():
    with pytest.raises(ValueError):
        build_tau_sf(0, 0, ONES, ONES)
    with pytest.raises(ValueError):
        build_theta(2, 2, ONES, ONES)
    with pytest.raises(ValueError):
        verify_cocycle(1, 1, ONES, ONES)


def test_zero_constant_rejected():
    with pytest.raises(ValueError):
        build_tau_sf(1, 0, (1, 0, 1), ONES)


# -- cocycle -----------------------------------------------------------------

def test_cocycle_reference_constants():
    assert verify_cocycle(1, 0, REFERENCE_A, REFERENCE_B)
    assert verify_cocycle(0, 1, REFERENCE_A, REFERENCE_B)
    assert verify_cocycle(3, -2, REFERENCE_A, REFERENCE_B)


def test_cocycle_fails_when_product_not_minus_one():
    assert not verify_cocycle(1, 0, ONES, ONES)


def test_cocycle_random_normalized_tuples():
    rng = random.Random(20240811)
    for _ in range(40):
        m = rng.randint(-5, 5)
        n = rng.randint(-5, 5)
        if m == n:
            n += 1
        a, b = random_tuples(rng, normalized=True)
        assert verify_cocycle(m, n, a, b), (m, n, a, b)


def test_cocycle_detects_unnormalized_tuples():
    rng = random.Random(7)
    hits = 0
    for _ in range(40):
        a, b = random_tuples(rng, normalized=False)
        prod = Fraction(1)
        for x, y in zip(a, b):
            prod *= x * y
        if prod == -1:
            continue
        hits += 1
        assert not verify_cocycle(2, -1, a, b)
    assert hits > 30


def test_corrected_tau_det_is_unit_monomial():
    for m, n in itertools.product(range(-3, 4), repeat=2):
        if m == n:
            continue
        for t in build_tau(m, n, REFERENCE_A, REFERENCE_B):
            d = det2(t)
            assert len(d.terms) == 1
            (_, _), c = next(iter(d.terms.items()))
            assert c in (Fraction(1), Fraction(-1))


# -- gauge equivalence and duality -------------------------------------------

def test_constant_independence_examples():
    a = (Fraction(2), Fraction(1), Fraction(1))
    b = (Fraction(1), Fraction(-1, 2), Fraction(1))
    assert verify_constant_independence(2, 0, a, b)
    assert verify_constant_independence(0, 2, a, b)
    assert verify_constant_independence(1, 0, REFERENCE_A, REFERENCE_B)


def test_constant_independence_requires_normalization():
    with pytest.raises(ValueError):
        verify_constant_independence(1, 0, ONES, ONES)


def test_constant_independence_random():
    rng = random.Random(99)
    for _ in range(25):
        m = rng.randint(-5, 5)
        n = rng.randint(-5, 5)
        if m == n:
            m += 1
        a, b = random_tuples(rng, normalized=True)
        assert verify_constant_independence(m, n, a, b), (m, n, a, b)


def test_duality_examples():
    assert verify_duality(1, 0)
    assert verify_duality(3, -2)
    assert verify_duality(0, 1)
    with pytest.raises(ValueError):
        verify_duality(2, 2)


def test_duality_full_range():
    for m, n in itertools.product(range(-5, 6), repeat=2):
        if m != n:
            assert verify_duality(m, n), (m, n)

