"""The test oracle's exact linear solver against an independent one: sympy's exact
rank and solve on small dense and sparse systems, with consistent,
inconsistent and dependent-column cases, zero rows and several right-hand
sides. Every returned solution is also checked by substitution.

The cases are derandomized and their number is fixed (300). Their budget is
10 s; they take about 2 s on a shared 2-vCPU VM.

The complete-fan predicate against floating-point angles: 300 derandomized
lists of one to six small integer rays, budget 2 s.

The transverse generator on every primitive ray in the box |r_i| <= 12.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from exact_oracle import solve_linear
from hypothesis import strategies as st

from tropms.chern import CompleteFan
from tropms.complexes import VertexFan, surface_from_cycles, validate_surface
from tropms.lattice import canonical_transverse, det2, dot

ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def systems(draw):
    """(rows, sides, columns): an m x n system whose rows are dense lists,
    possibly cut short, or {column: value} dicts, its right-hand sides, some
    of them rows times a drawn vector, and the columns that its rows name."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    if n >= 2 and draw(st.booleans()):  # one column a multiple of another
        i, j = draw(st.permutations(range(n)))[:2]
        t = draw(ENTRIES)
        for row in a:
            row[j] = t * row[i]
    if m and draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = [0] * n
    sides = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = [draw(ENTRIES) for _ in range(n)]
            sides.append([sum(v * w for v, w in zip(row, x)) for row in a])
        else:
            sides.append([draw(ENTRIES) for _ in range(m)])
    rows = []
    for row in a:
        form = draw(st.sampled_from(["dense", "short", "sparse", "sparse with zeros"]))
        if form == "dense":
            rows.append(row)
        elif form == "short":  # trailing zeros dropped
            rows.append(row[:max((c + 1 for c, v in enumerate(row) if v), default=0)])
        else:
            rows.append({c: v for c, v in enumerate(row) if v or form == "sparse with zeros"})
    named = [max(r, default=-1) + 1 if isinstance(r, dict) else len(r) for r in rows]
    return rows, sides, max(named, default=0)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def _agrees_with_sympy(system):
    rows, sides, n = system
    entries = [r if isinstance(r, dict) else dict(enumerate(r)) for r in rows]
    a = sympy.Matrix(len(rows), n, lambda i, c: sympy.Rational(Fraction(entries[i].get(c, 0))))
    if a.rank() < n:
        with pytest.raises(ValueError, match="dependent columns"):
            solve_linear(rows, sides)
        return
    solutions = solve_linear(rows, sides)
    assert len(solutions) == len(sides)
    for side, x in zip(sides, solutions):
        b = sympy.Matrix(len(rows), 1, [sympy.Rational(Fraction(v)) for v in side])
        if a.row_join(b).rank() > n:
            assert x is None
            continue
        assert x is not None and all(type(v) is Fraction for v in x)
        expected = a.solve(b) if n else sympy.Matrix(0, 1, [])
        assert [sympy.Rational(v) for v in x] == list(expected)
        for i, row in enumerate(entries):  # substitution
            assert sum(v * x[c] for c, v in row.items()) == side[i]


def test_solve_linear_agrees_with_sympy():
    """300 derandomized systems of at most 5 x 5 with up to three sides;
    under ten seconds."""
    start = time.monotonic()
    _agrees_with_sympy()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_solve_linear_refuses_a_side_of_the_wrong_length():
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_linear([[1, 0], [0, 1]], [[1, 2], [1, 2, 3]])


# -- complete fans --------------------------------------------------------------


def _is_complete_fan(rays) -> bool:
    """Primitive rays, at least three in distinct directions, listed in
    increasing angle up to a rotation, no two neighbours a half turn or more
    apart: read off ``math.atan2``."""
    if len(rays) < 3 or any(math.gcd(*r) != 1 for r in rays):
        return False
    angle = [math.atan2(y, x) % (2 * math.pi) for x, y in rays]
    order = sorted(range(len(rays)), key=angle.__getitem__)
    ascending = [angle[i] for i in order]
    gaps = [b - a for a, b in zip(ascending, ascending[1:])]
    gaps.append(2 * math.pi - ascending[-1] + ascending[0])
    k = order.index(0)
    return (
        min(gaps) > 1e-9
        and max(gaps) < math.pi - 1e-9
        and order[k:] + order[:k] == list(range(len(rays)))
    )


def _pyramid_with_fan(rays):
    """A closed surface with apex a joined to r0, ..., r(n-1) by 2-cells
    (a, ri, ri+1), closed by the 2-cell (rn-1, ..., r0) when n >= 3, with
    the rays as the fan at a and the cones tiling in list order."""
    n = len(rays)
    ring = [f"r{i}" for i in range(n)]
    cycles = {f"s{i}": ("a", ring[i], ring[(i + 1) % n]) for i in range(n)}
    if n >= 3:
        cycles["t"] = tuple(reversed(ring))
    s = surface_from_cycles(cycles)
    fan_rays = tuple((r, s.edge_between("a", v)) for r, v in zip(rays, ring))
    cones = tuple((f"s{i}", (i, (i + 1) % n)) for i in range(n))
    s.fans["a"] = VertexFan("a", fan_rays, cones)
    return s


RAY = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def ray_lists(draw):
    """One to six rays with coordinates in [-4, 4]. Half the lists hold
    distinct primitive rays listed by angle from a drawn one, so that
    complete fans are drawn often, and near misses: one ray may then be
    negated, two swapped, or every other ray listed first, which makes five
    rays spread evenly wind twice."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(st.lists(RAY, min_size=n, max_size=n))
    primitive = RAY.filter(lambda r: math.gcd(*r) == 1)
    rays = draw(st.lists(primitive, min_size=n, max_size=n, unique=True))
    rays.sort(key=lambda r: math.atan2(r[1], r[0]) % (2 * math.pi))
    k = draw(st.integers(0, n - 1))
    rays = rays[k:] + rays[:k]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "none", "negate", "swap", "twice"]))
    if change == "negate":
        rays[i] = (-rays[i][0], -rays[i][1])
    elif change == "swap":
        rays[i], rays[j] = rays[j], rays[i]
    elif change == "twice":
        rays = rays[::2] + rays[1::2]
    return rays


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ray_lists())
@example([(1, 0), (-3, 1), (2, -3), (1, 3), (-1, -2)])  # strictly ccw steps, two full turns
def _fan_agrees_with_angles(rays):
    complete = _is_complete_fan(rays)
    try:
        CompleteFan(rays)
        raised = False
    except ValueError:
        raised = True
    assert raised != complete, rays
    if len(rays) >= 2:  # no vertex of a closed surface here has one edge
        codes = [d.code for d in validate_surface(_pyramid_with_fan(rays))]
        assert ("fan-not-complete" in codes) != complete, (rays, codes)


def test_complete_fan_agrees_with_angles():
    """``CompleteFan`` refuses exactly the ray lists that the angles reject,
    and ``validate_surface`` reports the same lists, their cones tiling, as
    ``fan-not-complete``; 300 derandomized cases under two seconds."""
    start = time.monotonic()
    _fan_agrees_with_angles()
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


# -- transverse generators ------------------------------------------------------


def test_canonical_transverse_on_every_primitive_ray_in_a_box():
    """The generator q of every primitive ray r with |r_i| <= 12, among them
    r1 = 0 and r1 = +-1, where r0 has no inverse modulo |r1| to speak of:
    det(r, q) = 1, 0 <= <r, q> < <r, r>, and negating r negates q. The other
    rays in the box are refused."""
    primitive = 0
    for r in itertools.product(range(-12, 13), repeat=2):
        if r == (0, 0) or math.gcd(*r) != 1:
            with pytest.raises(ValueError, match="must be primitive"):
                canonical_transverse(r)
            continue
        primitive += 1
        q = canonical_transverse(r)
        assert det2(r, q) == 1, r
        assert 0 <= dot(r, q) < dot(r, r), r
        assert canonical_transverse((-r[0], -r[1])) == (-q[0], -q[1]), r
    assert primitive == 368
