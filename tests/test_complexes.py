import random

import pytest

from tropms.complexes import (
    Cell,
    PolyhedralSurface,
    VertexFan,
    check_standard_vertex,
    combinatorial_dual,
    complex_to_json,
    complex_to_text,
    parse_complex,
    validate_surface,
)
from tropms.lattice import canonical_transverse, det2, dot


from conftest import tetrahedron


def test_tetrahedron_validates():
    s = tetrahedron()
    rep = validate_surface(s)
    assert rep.ok, rep.diagnostics
    assert rep.euler_characteristic == 2


def test_missing_coface_detected():
    s = tetrahedron()
    del s.cells["fBDC"]
    del s.orientation["fBDC"]
    s.fans.clear()
    rep = validate_surface(s)
    assert not rep.ok
    assert "edge-coface-count" in rep.codes()


def test_orientation_flip_detected():
    s = tetrahedron()
    s.orientation["fBDC"] = ("B", "C", "D")
    s.fans.clear()
    rep = validate_surface(s)
    assert "orientation-inconsistent" in rep.codes()


def test_incomplete_fan_detected():
    s = tetrahedron()
    fan = s.fans["A"]
    # upper half plane only: rays do not sweep a full turn
    vecs = [(1, 0), (0, 1), (-1, 1)]
    s.fans["A"] = VertexFan(
        "A", tuple(zip(vecs, (e for _, e in fan.rays))), fan.cones
    )
    rep = validate_surface(s)
    assert "fan-not-complete" in rep.codes()


def test_fan_corner_mismatch_detected():
    s = tetrahedron()
    fan = s.fans["A"]
    rolled = fan.cones[1:] + fan.cones[:1]
    relabeled = tuple(
        (f, pair) for (f, _), (_, pair) in zip(rolled, fan.cones)
    )
    s.fans["A"] = VertexFan("A", fan.rays, relabeled)
    rep = validate_surface(s)
    assert "fan-cone-mismatch" in rep.codes()


def test_standard_vertex_examples():
    fan = tetrahedron().fans["A"]
    assert check_standard_vertex(fan)
    alt = VertexFan(
        "x",
        (((1, 1), "a"), ((0, -1), "b"), ((-1, 0), "c")),
        (("f", (0, 1)), ("g", (1, 2)), ("h", (2, 0))),
    )
    assert check_standard_vertex(alt)
    four = VertexFan(
        "x",
        (((1, 0), "a"), ((0, 1), "b"), ((-1, 0), "c"), ((0, -1), "d")),
        tuple((f, (i, (i + 1) % 4)) for i, f in enumerate("fghi")),
    )
    assert not check_standard_vertex(four)


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
        assert check_standard_vertex(fan)


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
    assert d.asserted.get("dual-no-fans") is True
    assert not d.fans
    rep = validate_surface(d)
    assert rep.ok, rep.diagnostics


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
    assert validate_surface(s2).ok
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
