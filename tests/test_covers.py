import ast
import json
import tracemalloc

import pytest
from conftest import cube_surface, rebuilt, tetrahedron, triangulated_torus, two_sheet_cover

from tropms.bundle import Invalid, load
from tropms.complexes import VertexFan, validate_surface
from tropms.covers import (
    BranchedCover,
    MultiSection,
    build_double_cover,
    check_class_C,
    check_condition_E,
    classify,
    euler_genus,
    multisection_to_text,
    parse_multisection,
    riemann_hurwitz_genus,
    validate_cover,
    validate_multisection,
)
from tropms.generators import STANDARD_FAN_RAYS, _dual_base
from tropms.lattice import rot90
from tropms.pipeline import generate_example


def all_vertices(s):
    return [v.id for v in s.vertices]


def cover_1_0(m=1, n=0):
    s = cube_surface()
    return build_double_cover(s, all_vertices(s), m, n)


def reslope_vertex(msec, v, kinks):
    """The section with the slopes around the single lift of a branch vertex
    rewritten from a kink sequence, anchored at the zero covector."""
    cover = msec.cover
    corners = cover.base.corners(v)
    lid = cover.computed_lifts(v)[0][0]
    cyc = cover.lift_cycles(v)[0]
    assert len(kinks) == len(cyc)
    fan = cover.base.fans[v]
    ray_of = {e: vec for vec, e in fan.rays}
    u, slopes = (0, 0), dict(msec.slopes)
    for t, (i, s) in enumerate(cyc):
        slopes[(lid, corners[i][0], s)] = u
        g = rot90(ray_of[corners[i][2]])
        u = (u[0] + kinks[t] * g[0], u[1] + kinks[t] * g[1])
    assert u == (0, 0), "test kink pattern must close up"
    return rebuilt(msec, slopes=slopes)


def test_cube_fixture():
    s = cube_surface()
    rep = validate_surface(s)
    assert rep == (), rep
    assert s.euler_characteristic() == 2
    assert len(s.vertices) == 8 and len(s.edges) == 12 and len(s.faces2) == 6


def test_condition_E():
    s = cube_surface()
    assert check_condition_E(s, all_vertices(s))
    assert not check_condition_E(s, {"v000", "v001"})
    assert check_condition_E(s, [])
    t = tetrahedron()
    assert not check_condition_E(t, {"A", "B"})


def test_build_preconditions():
    s = cube_surface()
    vs = all_vertices(s)
    with pytest.raises(ValueError):
        build_double_cover(s, vs, 2, 2)
    with pytest.raises(ValueError):
        build_double_cover(s, vs[:3], 1, 0)
    with pytest.raises(ValueError):
        build_double_cover(s, [], 1, 0)
    with pytest.raises(ValueError):
        build_double_cover(s, vs[:2] + ["ghost", "ghost2"], 1, 0)
    with pytest.raises(ValueError):
        build_double_cover(s, ["v000", "v001"], 1, 0)


def test_double_cover_refuses_an_inconsistent_sheet_typing():
    """On a torus, a branch set may meet every 2-cell evenly and still admit
    no sheet typing under the edge twists the builder picks (none outside
    its spanning tree): the refusal names a cycle of the 1-skeleton around
    which the typing parity does not close."""
    base = _dual_base(triangulated_torus(), STANDARD_FAN_RAYS, "honeycomb torus", 18, 0)
    branch = {"a00", "a01", "b01", "b02"}
    assert check_condition_E(base, branch)
    with pytest.raises(ValueError, match=r"^no consistent sheet typing with no twist off the "
                       r"spanning tree; inconsistent cycle ") as err:
        build_double_cover(base, branch, 2, 1)
    cycle = ast.literal_eval(str(err.value).partition("cycle ")[2])
    assert cycle == ["a10", "b10", "a00", "b00", "a20", "b20"]
    assert len(set(cycle)) == len(cycle) >= 3
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):  # a closed walk along edges
        base.edge_between(v, w)


def test_double_cover_shape():
    msec = cover_1_0()
    cover = msec.cover
    rep = validate_multisection(msec)
    assert rep == (), rep
    assert cover.degree == 2
    assert len(cover.branch_vertices) == 8
    for v in cover.branch_vertices:
        cycles = cover.lift_cycles(v)
        assert len(cycles) == 1 and len(cycles[0]) == 6
        assert tuple(block for _, block in cover.computed_lifts(v)) == ((0, 1),)
    assert cover.is_connected()
    nv, ne, nf = cover.total_space_counts()
    assert nv - ne + nf == 8 - 24 + 12


def test_kink_sequences_alternate():
    msec = cover_1_0()
    cover = msec.cover
    for v in sorted(cover.branch_vertices):
        (lift,) = cover._vertex(v)[1]
        kinks = [msec.kinks[node] for node in cover._index.orbits[lift]]
        assert sorted(set(kinks)) == [0, 1]
        assert kinks == kinks[:2] * 3


def test_genus_against_riemann_hurwitz():
    msec = cover_1_0()
    assert euler_genus(msec.cover) == 3
    assert riemann_hurwitz_genus(8) == 3


def test_riemann_hurwitz_table():
    assert riemann_hurwitz_genus(74) == 36
    assert riemann_hurwitz_genus(58) == 28
    assert riemann_hurwitz_genus(48) == 23
    assert riemann_hurwitz_genus(36) == 17
    assert riemann_hurwitz_genus(2) == 0
    with pytest.raises(ValueError):
        riemann_hurwitz_genus(0)
    with pytest.raises(ValueError):
        riemann_hurwitz_genus(7)


def test_classify_uniform_pairs():
    assert classify(cover_1_0()).tag == "S_mn"
    assert classify(cover_1_0()).pair == (1, 0)
    msec = cover_1_0(2, -1)
    tag = classify(msec)
    assert tag.tag == "S_mn" and tag.pair == (2, -1)
    swapped = cover_1_0(0, 1)
    assert classify(swapped).pair == (1, 0)


def test_classify_affine_shift_invariance():
    msec = cover_1_0()
    v = "v101"
    lid = msec.cover.computed_lifts(v)[0][0]
    msec = rebuilt(msec, slopes={
        key: (u[0] + 3, u[1] - 2) if key[0] == lid else u for key, u in msec.slopes.items()
    })
    assert validate_multisection(msec) == ()
    tag = classify(msec)
    assert tag.tag == "S_mn" and tag.pair == (1, 0)


def test_classify_mixed_weights():
    msec = reslope_vertex(cover_1_0(), "v000", [2, 0, 2, 0, 2, 0])
    assert validate_multisection(msec) == ()
    tag = classify(msec)
    assert tag.tag == "S"
    assert tag.detail["v000"]["pair"] == (2, 0)
    assert tag.detail["v111"]["pair"] == (1, 0)


def test_classify_uniform_kinks_is_not_standard():
    msec = reslope_vertex(cover_1_0(), "v000", [1, 1, 1, 1, 1, 1])
    assert validate_multisection(msec) == ()
    tag = classify(msec)
    assert tag.tag == "none"
    assert any(viol[0] == "coincident-slopes" for viol in tag.detail["violations"])


def test_class_C_holds_for_alternating_models():
    msec = cover_1_0()
    rep = check_class_C(msec)
    assert rep == ()


def test_class_C_interior_difference_violation():
    msec = reslope_vertex(cover_1_0(), "v000", [0, 1, 2, 2, 1, 0])
    assert validate_multisection(msec) == ()
    rep = check_class_C(msec)
    assert rep
    kinds = {viol[0] for viol in rep}
    assert "difference-interior" in kinds
    assert any(viol[1] == "v000" for viol in rep)
    assert classify(msec).tag == "none"


def test_class_C_requires_total_ramification():
    s = cube_surface()
    matchings = {e.id: (1, 0, 2) for e in s.edges}
    # one edge moves sheet 2 too, so that the total space is connected
    matchings[s.edges[0].id] = (0, 2, 1)
    cover = BranchedCover(s, 3, matchings, frozenset(), {})
    ram = {v.id: tuple(block for _, block in cover.computed_lifts(v.id)) for v in s.vertices}
    assert all(len(blocks) == 2 for blocks in ram.values())
    cover = BranchedCover(s, 3, matchings, frozenset(all_vertices(s)), ram)
    assert validate_cover(cover) == ()
    with pytest.raises(ValueError):
        check_class_C(MultiSection(cover, {}, "partial"))


def test_gl2_equivariance_of_class_C():
    msec = reslope_vertex(cover_1_0(), "v000", [0, 1, 2, 2, 1, 0])
    m_fwd = ((1, 1), (0, 1))
    m_inv = ((1, -1), (0, 1))

    def apply_vec(mat, u):
        return (mat[0][0] * u[0] + mat[0][1] * u[1], mat[1][0] * u[0] + mat[1][1] * u[1])

    def apply_covec(u, mat):
        return (
            u[0] * mat[0][0] + u[1] * mat[1][0],
            u[0] * mat[0][1] + u[1] * mat[1][1],
        )

    base = msec.cover.base
    from tropms.complexes import PolyhedralSurface

    fans = {
        v: VertexFan(
            v,
            tuple((apply_vec(m_fwd, vec), e) for vec, e in fan.rays),
            fan.cones,
        )
        for v, fan in base.fans.items()
    }
    base2 = PolyhedralSurface(base.cells, fans, base.orientation, dict(base.asserted))
    cover2 = BranchedCover(
        base2,
        msec.cover.degree,
        msec.cover.edge_matchings,
        msec.cover.branch_vertices,
        msec.cover.ramification,
    )
    slopes2 = {k: apply_covec(u, m_inv) for k, u in msec.slopes.items()}
    msec2 = MultiSection(cover2, slopes2, msec.label)
    assert validate_multisection(msec2) == ()
    r1, r2 = check_class_C(msec), check_class_C(msec2)
    assert bool(r1) == bool(r2)
    assert {v[:2] for v in r1} == {v[:2] for v in r2}


def test_tampered_matching_detected():
    old = cover_1_0().cover
    eid = sorted(old.edge_matchings)[0]
    flipped = (1, 0) if old.edge_matchings[eid] == (0, 1) else (0, 1)
    cover = BranchedCover(
        old.base, old.degree, old.edge_matchings | {eid: flipped},
        old.branch_vertices, old.ramification,
    )
    rep = validate_cover(cover)
    assert rep
    codes = {d.code for d in rep}
    assert "ramification-mismatch" in codes
    assert "trivial-branch-vertex" in codes


def test_undeclared_branch_detected():
    msec = cover_1_0()
    cover = msec.cover
    v = sorted(cover.branch_vertices)[0]
    cover = rebuilt(cover, branch_vertices=cover.branch_vertices - {v},
                    ramification=cover.ramification | {v: ((0,), (1,))})
    rep = validate_cover(cover)
    codes = {d.code for d in rep}
    assert "undeclared-branch-vertex" in codes
    assert "ramification-mismatch" in codes


def test_slope_coverage_diagnostic():
    msec = cover_1_0()
    key = sorted(msec.slopes)[0]
    msec = rebuilt(msec, slopes={k: u for k, u in msec.slopes.items() if k != key})
    rep = validate_multisection(msec)
    assert rep
    assert "slope-coverage" in [d.code for d in rep]


def test_slope_discontinuity_diagnostic():
    msec = cover_1_0()
    key = sorted(msec.slopes)[3]
    u = msec.slopes[key]
    msec = rebuilt(msec, slopes=msec.slopes | {key: (u[0] + 1, u[1] + 1)})
    rep = validate_multisection(msec)
    assert rep
    assert "slope-discontinuous" in [d.code for d in rep]


def test_multisection_roundtrip_byte_identical():
    msec = cover_1_0()
    text = multisection_to_text(msec)
    parsed = parse_multisection(json.loads(text))
    assert multisection_to_text(parsed) == text
    assert validate_multisection(parsed) == ()
    assert classify(parsed).pair == (1, 0)


def test_multisection_rejects_unknown_fields():
    msec = cover_1_0()
    doc = json.loads(multisection_to_text(msec))
    doc["surprise"] = []
    with pytest.raises(ValueError):
        parse_multisection(doc)
    doc = json.loads(multisection_to_text(msec))
    doc["schema"] = "multisection/v2"
    with pytest.raises(ValueError):
        parse_multisection(doc)


@pytest.mark.parametrize("damage", ["empty", "bogus-id", "sheets", "extra-vertex", "absent"])
def test_declared_lifts_checked_against_computed(damage):
    doc = json.loads(multisection_to_text(cover_1_0()))
    if damage == "empty":
        doc["lifts"] = []
    elif damage == "bogus-id":
        doc["lifts"][0]["lifts"][0]["id"] = "bogus#9"
    elif damage == "sheets":
        doc["lifts"][0]["lifts"][0]["sheets"] = [1]
    elif damage == "extra-vertex":
        doc["lifts"].append({"vertex": "nowhere", "lifts": []})
    else:  # lifts left undeclared are not compared
        del doc["lifts"]
    codes = {d.code for d in validate_multisection(parse_multisection(doc))}
    assert codes == (set() if damage == "absent" else {"lift-mismatch"})


def test_labels_preserved():
    s = cube_surface()
    msec = build_double_cover(s, all_vertices(s), 3, 1, label="demo")
    assert msec.label == "demo"
    text = multisection_to_text(msec)
    assert parse_multisection(json.loads(text)).label == "demo"


def test_disconnected_cover_fails_validation():
    msec = two_sheet_cover()
    assert not msec.cover.is_connected()
    assert [d.code for d in validate_multisection(msec)] == ["cover-disconnected"]


@pytest.mark.parametrize("field", ["matchings", "ramification", "branch"])
def test_multisection_rejects_duplicate_keyed_entries(field):
    """A second entry for the same edge or vertex is refused, whichever of
    the two entries is wrong; neither silently wins. A repeated branch
    vertex is refused too, where the writer would drop the copy."""
    doc = json.loads(multisection_to_text(cover_1_0()))
    entries = doc[field]
    if field == "branch":
        entries.append(entries[0])
        key, at = entries[0], len(entries) - 1
    elif field == "matchings":
        first = entries[0]
        entries.append({"edge": first["edge"], "perm": first["perm"][::-1]})
        key, at = first["edge"], len(entries) - 1
    else:
        first = entries[0]
        entries.insert(0, {"vertex": first["vertex"], "blocks": [[0], [1]]})
        key, at = first["vertex"], 1
    with pytest.raises(ValueError, match=rf"{field}\[{at}\] duplicates an earlier entry: '{key}'"):
        parse_multisection(doc)


def test_declared_degree_is_checked_before_anything_is_sized_by_it(tmp_path):
    """A declared degree far above what the matchings show is refused on
    the matchings, and nothing is allocated by the degree before that: at a
    million sheets one list of them would take 8 MB."""
    generate_example("cube2", str(tmp_path))
    path = tmp_path / "cube2.section.json"
    doc = json.loads(path.read_text())
    doc["degree"] = 10**6
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(Invalid, match="edge-matching"):
            load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
