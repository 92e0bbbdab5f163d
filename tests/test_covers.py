import json

import pytest
from conftest import cube_surface, tetrahedron, two_sheet_cover

from tropms.complexes import VertexFan, validate_surface
from tropms.covers import (
    BranchedCover,
    MultiSection,
    build_double_cover,
    check_class_C,
    check_condition_E,
    classify,
    euler_genus,
    kink_sequence,
    multisection_to_text,
    parse_multisection,
    riemann_hurwitz_genus,
    validate_cover,
    validate_multisection,
)
from tropms.lattice import rot90


def all_vertices(s):
    return [v.id for v in s.vertices]


def cover_1_0(m=1, n=0):
    s = cube_surface()
    return build_double_cover(s, all_vertices(s), m, n)


def reslope_vertex(msec, v, kinks):
    """Rewrite the slopes around the single lift of a branch vertex from a
    kink sequence, anchored at the zero covector."""
    cover = msec.cover
    corners = cover.wall_sequence(v)
    lid = cover.vertex_lift_ids(v)[0]
    cyc = cover.lift_cycles(v)[0]
    assert len(kinks) == len(cyc)
    fan = cover.base.fans[v]
    ray_of = {e: vec for vec, e in fan.rays}
    u = (0, 0)
    for t, (i, s) in enumerate(cyc):
        msec.slopes[(lid, corners[i][0], s)] = u
        g = rot90(ray_of[corners[i][2]])
        u = (u[0] + kinks[t] * g[0], u[1] + kinks[t] * g[1])
    assert u == (0, 0), "test kink pattern must close up"


def test_cube_fixture():
    s = cube_surface()
    rep = validate_surface(s)
    assert rep.ok, rep.diagnostics
    assert rep.euler_characteristic == 2
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


def test_double_cover_shape():
    msec = cover_1_0()
    cover = msec.cover
    rep = validate_multisection(msec)
    assert rep.ok, rep.diagnostics
    assert cover.degree == 2
    assert len(cover.branch_vertices) == 8
    for v in cover.branch_vertices:
        cycles = cover.lift_cycles(v)
        assert len(cycles) == 1 and len(cycles[0]) == 6
        assert cover.computed_ramification(v) == ((0, 1),)
    assert cover.is_connected()
    # total space characteristic recorded in the report
    assert rep.euler_characteristic == 8 - 24 + 12


def test_kink_sequences_alternate():
    msec = cover_1_0()
    cover = msec.cover
    for v in sorted(cover.branch_vertices):
        lid = cover.vertex_lift_ids(v)[0]
        kinks = [k for _, k in kink_sequence(msec, v, lid)]
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
    lid = msec.cover.vertex_lift_ids(v)[0]
    for key in list(msec.slopes):
        if key[0] == lid:
            u = msec.slopes[key]
            msec.slopes[key] = (u[0] + 3, u[1] - 2)
    assert validate_multisection(msec).ok
    tag = classify(msec)
    assert tag.tag == "S_mn" and tag.pair == (1, 0)


def test_classify_mixed_weights():
    msec = cover_1_0()
    reslope_vertex(msec, "v000", [2, 0, 2, 0, 2, 0])
    assert validate_multisection(msec).ok
    tag = classify(msec)
    assert tag.tag == "S"
    assert tag.detail["v000"]["pair"] == (2, 0)
    assert tag.detail["v111"]["pair"] == (1, 0)


def test_classify_uniform_kinks_is_not_standard():
    msec = cover_1_0()
    reslope_vertex(msec, "v000", [1, 1, 1, 1, 1, 1])
    assert validate_multisection(msec).ok
    tag = classify(msec)
    assert tag.tag == "none"
    assert any(viol[0] == "coincident-slopes" for viol in tag.detail["violations"])


def test_class_C_holds_for_alternating_models():
    msec = cover_1_0()
    rep = check_class_C(msec)
    assert rep.ok and not rep.violations


def test_class_C_interior_difference_violation():
    msec = cover_1_0()
    reslope_vertex(msec, "v000", [0, 1, 2, 2, 1, 0])
    assert validate_multisection(msec).ok
    rep = check_class_C(msec)
    assert not rep.ok
    kinds = {viol[0] for viol in rep.violations}
    assert "difference-interior" in kinds
    assert any(viol[1] == "v000" for viol in rep.violations)
    assert classify(msec).tag == "none"


def test_class_C_requires_total_ramification():
    s = cube_surface()
    matchings = {e.id: (1, 0, 2) for e in s.edges}
    # one edge moves sheet 2 too, so that the total space is connected
    matchings[s.edges[0].id] = (0, 2, 1)
    cover = BranchedCover(s, 3, matchings, frozenset(), {})
    ram = {v.id: cover.computed_ramification(v.id) for v in s.vertices}
    assert all(len(blocks) == 2 for blocks in ram.values())
    cover = BranchedCover(s, 3, matchings, frozenset(all_vertices(s)), ram)
    assert validate_cover(cover).ok
    with pytest.raises(ValueError):
        check_class_C(MultiSection(cover, {}, "partial"))


def test_gl2_equivariance_of_class_C():
    msec = cover_1_0()
    reslope_vertex(msec, "v000", [0, 1, 2, 2, 1, 0])
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
    assert validate_multisection(msec2).ok
    r1, r2 = check_class_C(msec), check_class_C(msec2)
    assert r1.ok == r2.ok
    assert {v[:2] for v in r1.violations} == {v[:2] for v in r2.violations}


def test_tampered_matching_detected():
    msec = cover_1_0()
    cover = msec.cover
    eid = sorted(cover.edge_matchings)[0]
    cover.edge_matchings[eid] = (1, 0) if cover.edge_matchings[eid] == (0, 1) else (0, 1)
    cover._cycle_cache = {}
    rep = validate_cover(cover)
    assert not rep.ok
    codes = set(rep.codes())
    assert "ramification-mismatch" in codes
    assert "trivial-branch-vertex" in codes


def test_undeclared_branch_detected():
    msec = cover_1_0()
    cover = msec.cover
    v = sorted(cover.branch_vertices)[0]
    cover.branch_vertices = cover.branch_vertices - {v}
    cover.ramification[v] = ((0,), (1,))
    rep = validate_cover(cover)
    codes = set(rep.codes())
    assert "undeclared-branch-vertex" in codes
    assert "ramification-mismatch" in codes


def test_slope_coverage_diagnostic():
    msec = cover_1_0()
    key = sorted(msec.slopes)[0]
    del msec.slopes[key]
    rep = validate_multisection(msec)
    assert not rep.ok
    assert "slope-coverage" in rep.codes()


def test_slope_discontinuity_diagnostic():
    msec = cover_1_0()
    key = sorted(msec.slopes)[3]
    u = msec.slopes[key]
    msec.slopes[key] = (u[0] + 1, u[1] + 1)
    rep = validate_multisection(msec)
    assert not rep.ok
    assert "slope-discontinuous" in rep.codes()


def test_multisection_roundtrip_byte_identical():
    msec = cover_1_0()
    text = multisection_to_text(msec)
    parsed = parse_multisection(json.loads(text))
    assert multisection_to_text(parsed) == text
    assert validate_multisection(parsed).ok
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


def test_labels_preserved():
    s = cube_surface()
    msec = build_double_cover(s, all_vertices(s), 3, 1, label="demo")
    assert msec.label == "demo"
    text = multisection_to_text(msec)
    assert parse_multisection(json.loads(text)).label == "demo"


def test_disconnected_cover_fails_validation():
    msec = two_sheet_cover()
    assert not msec.cover.is_connected()
    assert validate_multisection(msec).codes() == ["cover-disconnected"]
