import random

import pytest

from tropms.complexes import (
    Cell,
    PolyhedralSurface,
    VertexFan,
    combinatorial_dual,
    complex_to_json,
    complex_to_text,
    parse_complex,
    surface_from_cycles,
    validate_surface,
)
from tropms.covers import BranchedCover, validate_cover
from tropms.lattice import canonical_transverse, det2, dot, standard_triple


from conftest import tetrahedron


def test_tetrahedron_validates():
    s = tetrahedron()
    rep = validate_surface(s)
    assert rep == (), rep
    assert s.euler_characteristic() == 2


def test_missing_coface_detected():
    t = tetrahedron()
    s = PolyhedralSurface(
        {cid: c for cid, c in t.cells.items() if cid != "fBDC"},
        {},
        {fid: cyc for fid, cyc in t.orientation.items() if fid != "fBDC"},
        dict(t.asserted),
    )
    rep = validate_surface(s)
    assert rep
    assert "edge-coface-count" in [d.code for d in rep]


def test_orientation_flip_detected():
    t = tetrahedron()
    s = PolyhedralSurface(
        dict(t.cells), {}, t.orientation | {"fBDC": ("B", "C", "D")}, dict(t.asserted)
    )
    rep = validate_surface(s)
    assert "orientation-inconsistent" in [d.code for d in rep]


def test_incomplete_fan_detected():
    s = tetrahedron()
    fan = s.fans["A"]
    # upper half plane only: rays do not sweep a full turn
    vecs = [(1, 0), (0, 1), (-1, 1)]
    s.fans["A"] = VertexFan(
        "A", tuple(zip(vecs, (e for _, e in fan.rays))), fan.cones
    )
    rep = validate_surface(s)
    assert "fan-not-complete" in [d.code for d in rep]


def test_pinched_vertex_reported_not_raised():
    """Two octahedra glued at both poles: each pole's corners close into two
    cycles. Validation reports both poles instead of raising, and a cover
    over the surface is refused with the same diagnostics."""
    cycles = {}
    for k in (1, 2):
        ring = [f"{c}{k}" for c in "abcd"]
        for i in range(4):
            cycles[f"n{k}{i}"] = ("N", ring[i], ring[(i + 1) % 4])
            cycles[f"s{k}{i}"] = ("S", ring[(i + 1) % 4], ring[i])
    s = surface_from_cycles(cycles)
    rep = validate_surface(s)
    assert s.euler_characteristic() == 2
    assert [f"{d.code}: {d.message}" for d in rep] == [
        "vertex-link: corners around N split into several cycles",
        "vertex-link: corners around S split into several cycles",
    ]
    cover = BranchedCover(s, 2, {e.id: (0, 1) for e in s.edges}, frozenset())
    assert validate_cover(cover) == rep
    with pytest.raises(ValueError, match="split into several cycles"):
        s.corners("N")


def test_fan_corner_mismatch_detected():
    s = tetrahedron()
    fan = s.fans["A"]
    rolled = fan.cones[1:] + fan.cones[:1]
    relabeled = tuple(
        (f, pair) for (f, _), (_, pair) in zip(rolled, fan.cones)
    )
    s.fans["A"] = VertexFan("A", fan.rays, relabeled)
    rep = validate_surface(s)
    assert "fan-cone-mismatch" in [d.code for d in rep]


def test_standard_vertex_examples():
    fan = tetrahedron().fans["A"]
    assert standard_triple([v for v, _ in fan.rays])
    alt = VertexFan(
        "x",
        (((1, 1), "a"), ((0, -1), "b"), ((-1, 0), "c")),
        (("f", (0, 1)), ("g", (1, 2)), ("h", (2, 0))),
    )
    assert standard_triple([v for v, _ in alt.rays])
    four = VertexFan(
        "x",
        (((1, 0), "a"), ((0, 1), "b"), ((-1, 0), "c"), ((0, -1), "d")),
        tuple((f, (i, (i + 1) % 4)) for i, f in enumerate("fghi")),
    )
    assert not standard_triple([v for v, _ in four.rays])


def test_standard_vertex_unimodular_invariance():
    rng = random.Random(5)
    base = [(1, 0), (0, 1), (-1, -1)]
    for _ in range(25):
        # random unimodular matrix from row operations
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(-3, 3)
            if rng.random() < 0.5:
                a, b = a + k * c, b + k * d
            else:
                c, d = c + k * a, d + k * b
        img = [(a * x + b * y, c * x + d * y) for x, y in base]
        fan = VertexFan(
            "x",
            tuple((v, f"e{i}") for i, v in enumerate(img)),
            tuple((f"f{i}", (i, (i + 1) % 3)) for i in range(3)),
        )
        assert standard_triple([v for v, _ in fan.rays])


def test_canonical_transverse_frozen():
    assert canonical_transverse((1, 0)) == (0, 1)
    assert canonical_transverse((1, 1)) == (0, 1)
    assert canonical_transverse((0, 1)) == (-1, 0)
    assert canonical_transverse((0, -1)) == (1, 0)
    assert canonical_transverse((-1, 0)) == (0, -1)
    for r in ((1, 0), (2, 1), (-3, 2), (5, -3)):
        q = canonical_transverse(r)
        assert det2(r, q) == 1
        assert 0 <= dot(r, q) < dot(r, r)
        nq = canonical_transverse((-r[0], -r[1]))
        assert nq == (-q[0], -q[1])


def test_dual_of_tetrahedron():
    s = tetrahedron()
    d = combinatorial_dual(s)
    assert len(d.vertices) == 4 and len(d.edges) == 6 and len(d.faces2) == 4
    assert d.asserted == s.asserted
    assert not d.fans
    rep = validate_surface(d)
    assert rep == (), rep


def test_dual_involution_on_poset():
    s = tetrahedron()
    dd = combinatorial_dual(combinatorial_dual(s))
    assert set(dd.cells) == set(s.cells)
    for cid, c in s.cells.items():
        assert dd.cells[cid].dim == c.dim
        assert set(dd.cells[cid].faces) == set(c.faces)
    # boundary cycles agree up to rotation and reflection
    for fid, cyc in s.orientation.items():
        got = dd.orientation[fid]
        assert len(got) == len(cyc)
        doubled = cyc + cyc
        rev = tuple(reversed(cyc)) * 2
        assert any(
            doubled[i : i + len(cyc)] == got or rev[i : i + len(cyc)] == got
            for i in range(len(cyc))
        )


def test_json_roundtrip_byte_identical():
    s = tetrahedron()
    text = complex_to_text(s)
    again = complex_to_text(parse_complex(complex_to_json(s)))
    assert text == again
    s2 = parse_complex(complex_to_json(s))
    assert validate_surface(s2) == ()
    assert set(s2.cells) == set(s.cells)


def test_json_rejects_unknown_fields():
    s = tetrahedron()
    doc = complex_to_json(s)
    doc["extra"] = 1
    with pytest.raises(ValueError):
        parse_complex(doc)
    doc = complex_to_json(s)
    doc["cells"][0]["weird"] = True
    with pytest.raises(ValueError):
        parse_complex(doc)
    doc = complex_to_json(s)
    doc["schema"] = "complex/v2"
    with pytest.raises(ValueError):
        parse_complex(doc)


def test_singular_markers_survive_roundtrip():
    s = tetrahedron()
    s.cells["eAB"] = Cell("eAB", 1, ("A", "B"), ("s0", "s1"))
    doc = complex_to_json(s)
    s2 = parse_complex(doc)
    assert s2.cells["eAB"].singular_markers == ("s0", "s1")
