"""Worked examples: frozen counts, genera, verdicts, and determinism."""

import json
from fractions import Fraction

import pytest

from tropms.bundle import check
from tropms.certificate import endomorphism_witness, transport, transport_ratios
from tropms.complexes import complex_to_text, validate_surface
from tropms.covers import (
    check_class_C,
    check_condition_E,
    classify,
    multisection_to_text,
    parse_multisection,
    validate_cover,
    validate_multisection,
)
from tropms.generators import (
    CUBE_O1_UNBRANCHED,
    PLANTED_FACE,
    PLANTED_TRIANGLE_FACE,
    PLANTED_UNBRANCHED,
    RANK3_SLOPE_TABLE,
    SIMPLEX5_UNBRANCHED,
    cube2_base,
    cube2_multisection,
    cube_o1_multisection,
    euler_genus,
    planted_multisection,
    planted_triangle_multisection,
    rank3_multisection,
    riemann_hurwitz_genus,
    seeded_coboundary_gluing,
    simplex5_base,
    simplex5_multisection,
)
from tropms.gluing import (
    bar_complex,
    obstruction_class,
    triple_cocycle,
    validate_gluing,
)
from tropms.graphs import (
    build_G0,
    build_G0_tilde,
    find_minimal_cycles,
    general_simplicity,
    is_simple_rank2,
    simplicity_verdict,
)


def counts(s):
    return len(s.vertices), len(s.edges), len(s.faces2)


def face_size_histogram(s):
    sizes = [len(f.faces) for f in s.faces2]
    return {k: sizes.count(k) for k in set(sizes)}


# -- cube2 base ---------------------------------------------------------------


def test_cube2_base_counts():
    base = cube2_base()
    assert counts(base) == (48, 72, 26)
    assert validate_surface(base) == ()
    assert face_size_histogram(base) == {8: 6, 4: 12, 6: 8}


def test_cube2_base_markers_sit_on_corner_duals():
    base = cube2_base()
    marked = sorted(c.id for c in base.cells.values() if c.singular_markers)
    assert len(marked) == 8
    # corner duals are the hexagons whose id encodes coordinates in {0, 2}
    assert all(set(m[1:]) <= {"0", "2"} for m in marked)
    assert all(base.cells[m].dim == 2 for m in marked)
    assert all(base.cells[m].singular_markers == ("cone-point",) for m in marked)


def test_cube2_base_deterministic():
    assert complex_to_text(cube2_base()) == complex_to_text(cube2_base())


# -- cube2 all-vertex cover ---------------------------------------------------


def test_cube2_cover_genus_and_class():
    msec = cube2_multisection()
    assert validate_multisection(msec) == ()
    assert euler_genus(msec.cover) == 23 == riemann_hurwitz_genus(48)
    tag = classify(msec)
    assert (tag.tag, tag.pair) == ("S_mn", (2, 1))


def test_cube2_cover_simple():
    msec = cube2_multisection()
    assert len(build_G0(msec).vertices) == 0
    assert is_simple_rank2(msec, classify(msec)).tag == "simple"


def test_cube2_section_round_trip():
    msec = cube2_multisection()
    data = json.loads(multisection_to_text(msec))
    again = json.loads(multisection_to_text(parse_multisection(data)))
    assert data == again
    assert multisection_to_text(msec) == multisection_to_text(parse_multisection(data))


# -- cube-o1 ------------------------------------------------------------------


def test_cube_o1_branch_set():
    msec = cube_o1_multisection()
    branch = msec.cover.branch_vertices
    assert len(branch) == 36
    assert branch | set(CUBE_O1_UNBRANCHED) == {
        v.id for v in msec.cover.base.vertices
    }
    assert check_condition_E(msec.cover.base, branch)


def test_cube_o1_genus_class_verdict():
    msec = cube_o1_multisection()
    assert euler_genus(msec.cover) == 17
    tag = classify(msec)
    assert (tag.tag, tag.pair) == ("S_mn", (1, 0))
    verdict = is_simple_rank2(msec, tag)
    assert verdict.tag == "simple"
    assert verdict.reasons[0].startswith("[rank2-gap1]")


def test_cube_o1_smoothable_upgrade():
    msec = cube_o1_multisection()
    flags = {"positive", "simple", "elementary", "open-gluing-induced"}
    verdict = simplicity_verdict(msec, classify(msec), "rank2", flags, True)
    assert verdict.tag == "smoothable"
    assert any(r.startswith("[smoothability-upgrade]") for r in verdict.reasons)


def test_cube_o1_seeded_gluing_trivial_obstruction():
    msec = cube_o1_multisection()
    g = seeded_coboundary_gluing(msec, seed=0)
    bar = bar_complex(msec)
    assert g and validate_gluing(msec, g, bar) == ()
    assert g == seeded_coboundary_gluing(cube_o1_multisection(), seed=0)
    report = obstruction_class(triple_cocycle(msec, g, bar), bar)
    assert report.trivial and report.witness == 1


# -- planted unbranched 2-cell ------------------------------------------------


def test_planted_unique_full_face():
    msec = planted_multisection()
    base = msec.cover.base
    branch = msec.cover.branch_vertices
    assert len(branch) == 36
    assert branch | set(PLANTED_UNBRANCHED) == {v.id for v in base.vertices}
    full = [
        f.id
        for f in base.faces2
        if all(v not in branch for v in base.boundary_cycle(f.id))
    ]
    assert full == [PLANTED_FACE]


def test_planted_not_simple_with_witness():
    msec = planted_multisection()
    verdict = is_simple_rank2(msec, classify(msec))
    assert verdict.tag == "not_simple"
    assert len(verdict.witnesses) == 1
    cycle, fid = verdict.witnesses[0]
    assert fid == PLANTED_FACE
    assert tuple(cycle) == msec.cover.base.boundary_cycle(PLANTED_FACE)


def test_planted_witness_validates():
    msec = planted_multisection()
    verdict = is_simple_rank2(msec, classify(msec))
    w = endomorphism_witness(transport(check(msec, {})), verdict.witnesses[0])
    assert w.ok and w.zero_extension
    assert all(passed for _, _, passed in w.edge_checks)


def test_planted_witness_under_coboundary_gluing():
    msec = planted_multisection()
    g = seeded_coboundary_gluing(msec, seed=3)
    cycle = find_minimal_cycles(build_G0(msec))[0]
    w = endomorphism_witness(transport(check(msec, g)), cycle)
    assert w.ok
    hol = Fraction(1)
    for _, lam, _ in w.edge_checks:
        hol *= lam
    assert hol == 1


def test_planted_triangle_unique_full_face():
    msec = planted_triangle_multisection()
    base = msec.cover.base
    assert len(msec.cover.branch_vertices) == 74
    assert len(base.cells[PLANTED_TRIANGLE_FACE].faces) == 3
    cycles = find_minimal_cycles(build_G0(msec))
    assert len(cycles) == 1
    cycle, fid = cycles[0]
    assert fid == PLANTED_TRIANGLE_FACE
    assert len(cycle) == 3
    assert is_simple_rank2(msec, classify(msec)).tag == "not_simple"


# -- simplex5 -----------------------------------------------------------------


def test_simplex5_base_counts():
    base = simplex5_base()
    assert counts(base) == (100, 150, 52)
    assert validate_surface(base) == ()
    assert face_size_histogram(base) == {3: 4, 6: 48}


def test_simplex5_markers():
    base = simplex5_base()
    marked = sorted(c.id for c in base.cells.values() if c.singular_markers)
    assert len(marked) == 24
    assert "q1400" in marked and "q0032" in marked
    assert "q5000" not in marked  # simplex corners stay unmarked
    assert "q1130" not in marked  # facet-interior points stay unmarked
    for m in marked:
        coords = [int(ch) for ch in m[1:]]
        assert coords.count(0) == 2 and sum(coords) == 5
        assert base.cells[m].singular_markers == ("focus-focus",)


@pytest.mark.parametrize("branch_count,genus", [(74, 36), (58, 28)])
def test_simplex5_presets(branch_count, genus):
    msec = simplex5_multisection(branch_count)
    assert validate_multisection(msec) == ()
    assert len(msec.cover.branch_vertices) == branch_count
    assert check_condition_E(msec.cover.base, msec.cover.branch_vertices)
    assert euler_genus(msec.cover) == genus == riemann_hurwitz_genus(branch_count)
    tag = classify(msec)
    assert (tag.tag, tag.pair) == ("S_mn", (2, 1))
    assert is_simple_rank2(msec, tag).tag == "simple"


def test_simplex5_unknown_preset():
    with pytest.raises(ValueError, match="branch_count"):
        simplex5_multisection(60)


def test_simplex5_preset_tables_disjoint_sizes():
    assert len(SIMPLEX5_UNBRANCHED[74]) == 26
    assert len(SIMPLEX5_UNBRANCHED[58]) == 42


# -- rank3-cube ---------------------------------------------------------------


def test_rank3_cover_structure():
    msec = rank3_multisection()
    cover = msec.cover
    assert validate_cover(cover) == ()
    assert cover.degree == 3
    assert cover.is_connected()
    assert all(
        len(cyc) == 9
        for v in cover.base.vertices
        for cyc in cover.lift_cycles(v.id)
    )
    assert cover.total_space_counts() == (48, 216, 78)
    assert euler_genus(cover) == 46


def test_rank3_slope_table_applied_per_cone():
    msec = rank3_multisection()
    base = msec.cover.base
    v = base.vertices[0].id
    fan = base.fans[v]
    for fid, (i, _) in fan.cones:
        for sheet in range(3):
            assert msec.slopes[(f"{v}#0", fid, sheet)] == RANK3_SLOPE_TABLE[i][sheet]
    table_values = {u for row in RANK3_SLOPE_TABLE for u in row}
    assert set(msec.slopes.values()) == table_values


def test_rank3_class_and_criterion():
    msec = rank3_multisection()
    assert classify(msec).tag == "C"
    assert check_class_C(msec) == ()
    assert len(build_G0_tilde(msec).vertices) == 0
    verdict = general_simplicity(msec, classify(msec), local_bundles_asserted=True)
    assert verdict.tag == "smoothable"
    assert any("criterion satisfied" in r for r in verdict.reasons)


def test_rank3_requires_local_bundle_assertion():
    msec = rank3_multisection()
    v = general_simplicity(msec, classify(msec))
    assert v.tag == "refused"
    assert len(v.reasons) == 1 and "local-bundle-assumption" in v.reasons[0]


# -- holonomy across a planted cycle ------------------------------------------


def test_planted_cycle_holonomy_trivial_for_coboundary():
    msec = planted_multisection()
    cycle, _ = is_simple_rank2(msec, classify(msec)).witnesses[0]
    g = seeded_coboundary_gluing(msec, seed=11)
    ratios = transport_ratios(transport(check(msec, g)), list(cycle), PLANTED_FACE)
    hol = Fraction(1)
    for _, lam in ratios:
        hol *= lam
    assert hol == 1
