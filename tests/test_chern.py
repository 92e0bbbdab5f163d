import itertools
import random
from fractions import Fraction

import pytest
from exact_oracle import (
    PiecewisePoly,
    add,
    equivariant_chern,
    forgetful,
    forgetful_by_solve,
    linear_form,
    mul,
    ray_class,
)

from tropms.chern import (
    CANONICAL_FAN,
    CohomologyClass,
    CompleteFan,
    NewtonPolytope,
    newton_polytope,
    nonvanishing_at_fixed_point,
    sheet_slopes,
    stability_discriminant,
    total_chern,
)
from tropms.lattice import det2
from tropms.laurent import LaurentPoly as Poly

SQUARE_FAN = CompleteFan([(1, 0), (0, 1), (-1, 0), (0, -1)])
HEX_FAN = CompleteFan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])


def xi(c1, c2):
    return Poly({(1, 0): Fraction(c1), (0, 1): Fraction(c2)})


def quad(c20, c11, c02):
    return Poly({(2, 0): Fraction(c20), (1, 1): Fraction(c11), (0, 2): Fraction(c02)})


# -- fans and piecewise polynomials ------------------------------------------

def test_fan_validation():
    with pytest.raises(ValueError):
        CompleteFan([(1, 0), (0, -1), (-1, 0), (0, 1)])  # clockwise
    with pytest.raises(ValueError):
        CompleteFan([(2, 0), (0, 1), (-1, -1)])  # non-primitive ray
    with pytest.raises(ValueError):
        CompleteFan([(1, 0), (-1, 1)])  # too few rays
    CompleteFan([(1, 1), (-1, 0), (0, -1)])


def test_piecewise_continuity_enforced():
    # slope jump across the ray (1,1) that does not match on the ray
    with pytest.raises(ValueError):
        PiecewisePoly(CANONICAL_FAN, (xi(0, 0), xi(1, 0), xi(0, 2)))


def test_ray_classes_frozen_values():
    # indicator-style classes: value 1 on the ray, 0 on the two others
    t = [ray_class(CANONICAL_FAN, i) for i in range(3)]
    fan_rays = CANONICAL_FAN.rays
    for i, ti in enumerate(t):
        for j, ray in enumerate(fan_rays):
            # evaluate on the cone containing the ray
            for cone in range(3):
                ra, rb = CANONICAL_FAN.cone_rays(cone)
                if ray in (ra, rb):
                    part = ti.parts[cone]
                    val = sum(
                        c * Fraction(ray[0]) ** a * Fraction(ray[1]) ** b
                        for (a, b), c in part.terms.items()
                    )
                    assert val == (1 if i == j else 0)


def test_ray_class_products_vanish():
    t0, t1, t2 = (ray_class(CANONICAL_FAN, i) for i in range(3))
    assert all(p.is_zero for p in mul(mul(t0, t1), t2).parts)


def test_global_linear_forms_die():
    for u in ((1, 0), (0, 1), (3, -2)):
        p = PiecewisePoly(CANONICAL_FAN, (linear_form(u),) * 3)
        assert forgetful(p) == CohomologyClass.of(0, 0, 0)


def test_forgetful_sends_ray_classes_to_hyperplane():
    for i in range(3):
        assert forgetful(ray_class(CANONICAL_FAN, i)) == CohomologyClass.of(0, 1, 0)


def test_forgetful_additive_on_random_combinations():
    rng = random.Random(4242)
    t = [ray_class(CANONICAL_FAN, i) for i in range(3)]
    basis = t + [mul(t[i], t[j]) for i in range(3) for j in range(i, 3)]
    for _ in range(30):
        p = _combine(rng, basis)
        q = _combine(rng, basis)
        assert forgetful(add(p, q)) == CohomologyClass(*map(sum, zip(forgetful(p), forgetful(q))))


def test_forgetful_agrees_with_the_basis_solve():
    """The closed form against solving for the coefficients in the ray
    classes and their products: 300 random combinations of the ray classes,
    their six products, a constant and a global linear form."""
    rng = random.Random(2718)
    t = [ray_class(CANONICAL_FAN, i) for i in range(3)]
    basis = t + [mul(t[i], t[j]) for i in range(3) for j in range(i, 3)]
    for _ in range(300):
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        shift = Poly({(0, 0): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}) + linear_form(u)
        p = add(_combine(rng, basis), PiecewisePoly(CANONICAL_FAN, (shift,) * 3))
        assert forgetful(p) == forgetful_by_solve(p)


def _combine(rng, basis):
    def scale(b, c):
        return PiecewisePoly(b.fan, tuple(p * Poly.const(c) for p in b.parts))

    acc = scale(basis[0], 0)
    for b in basis:
        acc = add(acc, scale(b, rng.randint(-3, 3)))
    return acc


# -- equivariant classes -----------------------------------------------------

def test_sheet_slopes_frozen():
    assert sheet_slopes(1, 0) == [
        ((-1, 0), (0, -1)),
        ((0, 0), (0, -1)),
        ((-1, 0), (0, 0)),
    ]
    with pytest.raises(ValueError):
        sheet_slopes(2, 2)


def test_equivariant_display_formulas():
    for m, n in itertools.product(range(-3, 4), repeat=2):
        if m == n:
            continue
        c1, c2 = equivariant_chern(m, n)
        d = n - m
        assert c1.parts[0] == xi(d, d)
        assert c1.parts[1] == xi(2 * n, d)
        assert c1.parts[2] == xi(d, 2 * n)
        assert c2.parts[0] == quad(0, d * d, 0)
        assert c2.parts[1] == quad(n * n, n * d, 0)
        assert c2.parts[2] == quad(0, n * d, n * n)


def test_equivariant_spot_values():
    c1, _ = equivariant_chern(1, 0)
    assert c1.parts[0] == xi(-1, -1)
    _, c2 = equivariant_chern(2, -1)
    assert c2.parts[1] == quad(1, 3, 0)


# -- total classes and stability ---------------------------------------------

def test_total_chern_frozen_values():
    assert total_chern(1, 0) == CohomologyClass.of(1, 1, 1)
    assert total_chern(2, -1) == CohomologyClass.of(1, 1, 7)
    assert total_chern(1, -1) == CohomologyClass.of(1, 0, 3)


def test_total_chern_agrees_with_the_equivariant_path():
    """The total class against the equivariant classes pushed down by solving
    for their coefficients in the ray classes and their products."""
    for m, n in itertools.product(range(-6, 7), repeat=2):
        if m == n:
            continue
        parts = [CohomologyClass.of(1), *map(forgetful_by_solve, equivariant_chern(m, n))]
        assert total_chern(m, n) == CohomologyClass(*map(sum, zip(*parts)))


def test_total_chern_refuses_slopes_that_break_across_a_ray(monkeypatch):
    """Sheet slopes whose classes disagree on a shared ray are no local model:
    a fault of the program, raised as RuntimeError, not an input error."""
    from tropms import chern

    monkeypatch.setattr(chern, "sheet_slopes", lambda m, n: [((1, 0), (0, 1))] + [((0, 0),) * 2] * 2)
    with pytest.raises(RuntimeError, match=r"discontinuous across ray \(0, -1\)"):
        total_chern(2, 1)


def test_total_chern_closed_form_and_symmetry():
    for m, n in itertools.product(range(-4, 5), repeat=2):
        if m == n:
            continue
        tc = total_chern(m, n)
        assert tc == CohomologyClass.of(1, m + n, m * m + n * n - m * n)
        assert tc == total_chern(n, m)


def test_stability_discriminant():
    assert stability_discriminant(1, 0, total_chern(1, 0)) == (-3, "stable")
    assert stability_discriminant(3, 1, total_chern(3, 1)) == (-12, "stable")
    delta, verdict = stability_discriminant(-2, 3, total_chern(-2, 3))
    assert delta == -75 and verdict == "stable"


# -- Newton polytopes --------------------------------------------------------

def tri_slopes(k):
    # uniform-kink function on the canonical fan, anchored at zero on cone 0
    return [(0, 0), (k, 0), (0, k)]


def test_newton_polytope_triangles():
    p = newton_polytope(CANONICAL_FAN, tri_slopes(1))
    assert p.lattice_points == frozenset({(0, 0), (1, 0), (0, 1)})
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
    for k in range(1, 5):
        pk = newton_polytope(CANONICAL_FAN, tri_slopes(k))
        assert len(pk.lattice_points) == (k + 1) * (k + 2) // 2


def test_newton_polytope_difference_orders():
    # difference of uniform-kink sheets with kinks n+1 and n
    up = newton_polytope(CANONICAL_FAN, tri_slopes(1))
    down = newton_polytope(CANONICAL_FAN, tri_slopes(-1))
    assert len(up.lattice_points) == 3
    assert down.is_empty
    assert down.vertices == ()


def test_newton_polytope_rejects_discontinuous():
    with pytest.raises(ValueError):
        newton_polytope(CANONICAL_FAN, [(0, 0), (1, 0), (1, 1)])


HEX_SLOPES = [(0, 0), (1, -1), (-1, -1), (-1, -3), (1, -5), (0, -5)]


def test_newton_polytope_hexagon_fixture():
    p = newton_polytope(HEX_FAN, HEX_SLOPES)
    assert len(p.lattice_points) == 7
    assert p.lattice_points == frozenset(
        {(0, -1), (0, -2), (0, -3), (0, -4), (-1, -1), (-1, -2), (-1, -3)}
    )
    assert set(p.vertices) == {(0, -1), (0, -4), (-1, -3), (-1, -1)}


def test_nonvanishing_hexagon_fixture():
    expected = [False, False, True, True, False, False]
    got = [
        nonvanishing_at_fixed_point(HEX_FAN, HEX_SLOPES, i) for i in range(6)
    ]
    assert got == expected


def test_nonvanishing_convex_case_all_true():
    for i in range(3):
        assert nonvanishing_at_fixed_point(CANONICAL_FAN, tri_slopes(2), i)


@pytest.mark.parametrize("fan, slopes", [
    (HEX_FAN, HEX_SLOPES),
    *[(CANONICAL_FAN, tri_slopes(k)) for k in (-1, 1, 2)],
])
def test_nonvanishing_is_membership_in_the_newton_polytope(fan, slopes):
    """A cone's fixed point survives exactly when its integral slope lies in
    the polytope, which is cut out by the same inequalities."""
    poly = newton_polytope(fan, slopes)
    for i, u in enumerate(slopes):
        assert nonvanishing_at_fixed_point(fan, slopes, i) == (u in poly)


def scan_polytope(fan, slopes, bound=24):
    """Independent membership scan: sample the function on many directions."""
    samples = [
        (x, y)
        for x in range(-6, 7)
        for y in range(-6, 7)
        if (x, y) != (0, 0)
    ]

    def phi(xi_):
        for i in range(fan.n_cones):
            ra, rb = fan.cone_rays(i)
            if det2(ra, xi_) >= 0 and det2(xi_, rb) >= 0:
                return slopes[i][0] * xi_[0] + slopes[i][1] * xi_[1]
        raise AssertionError("direction not covered by fan")

    vals = {s: phi(s) for s in samples}
    pts = {
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if all(x * s[0] + y * s[1] <= v for s, v in vals.items())
    }
    return pts


def test_newton_polytope_against_scan_square_fan():
    rng = random.Random(11)
    for _ in range(12):
        u0 = (rng.randint(-4, 4), rng.randint(-4, 4))
        k1 = rng.randint(0, 4)
        k2 = rng.randint(0, 4)
        # walls in order (0,1), (-1,0), (0,-1), (1,0); closure forces the
        # opposite kinks to match
        u1 = (u0[0] - k1, u0[1])
        u2 = (u1[0], u1[1] - k2)
        u3 = (u2[0] + k1, u2[1])
        slopes = [u0, u1, u2, u3]
        p = newton_polytope(SQUARE_FAN, slopes)
        assert p.lattice_points == frozenset(scan_polytope(SQUARE_FAN, slopes))


def test_newton_polytope_against_scan_hexagon():
    p = newton_polytope(HEX_FAN, HEX_SLOPES)
    assert p.lattice_points == frozenset(scan_polytope(HEX_FAN, HEX_SLOPES))
