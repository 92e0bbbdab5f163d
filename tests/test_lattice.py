"""The exact linear solver against an independent oracle: sympy's exact
rank and solve on small dense and sparse systems, with consistent,
inconsistent and dependent-column cases, zero rows and several right-hand
sides. Every returned solution is also checked by substitution.

The cases are derandomized and their number is fixed (300). Their budget is
10 s; they take about 2 s on a shared 2-vCPU VM.
"""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropms.lattice import solve_linear

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
