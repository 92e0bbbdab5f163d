import ast
import json
import tracemalloc

import pytest
from conftest import (
    cube_surface,
    rebuilt,
    run_cli,
    tetrahedron,
    triangulated_torus,
    two_sheet_cover,
)
from test_perfbench_names import inputs as perfbench_inputs  # the benchmark's input builders

from tropms.bundle import Invalid, load
from tropms.complexes import (
    Cell,
    PolyhedralSurface,
    VertexFan,
    complex_to_text,
    validate_surface,
)
from tropms.covers import (
    BranchedCover,
    MultiSection,
    _branch_pair,
    build_double_cover,
    check_class_C,
    check_condition_E,
    classify,
    edge_voltages,
    multisection_to_text,
    parse_multisection,
    validate_cover,
    validate_multisection,
)
from tropms.generators import (
    RANK3_FAN_RAYS,
    STANDARD_FAN_RAYS,
    _dual_base,
    cube2_base,
    cube2_multisection,
    cube_o1_multisection,
    euler_genus,
    generate_example,
    planted_multisection,
    planted_triangle_multisection,
    rank3_base,
    riemann_hurwitz_genus,
    simplex5_multisection,
)
from tropms.lattice import rot90
from tropms.pipeline import Manifest, manifest_to_text


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


def _two_copies(s):
    """The disjoint union of two copies of a surface, ids prefixed a and b."""
    cells, fans, orientation = {}, {}, {}
    for p in "ab":
        for c in s.cells.values():
            cells[p + c.id] = Cell(p + c.id, c.dim, tuple(p + f for f in c.faces),
                                   c.singular_markers)
        for v, fan in s.fans.items():
            fans[p + v] = VertexFan(p + v, tuple((vec, p + e) for vec, e in fan.rays),
                                    tuple((p + f, pair) for f, pair in fan.cones))
        orientation |= {p + f: tuple(p + v for v in cyc) for f, cyc in s.orientation.items()}
    return PolyhedralSurface(cells, fans, orientation, dict(s.asserted))


@pytest.mark.parametrize("case", ["non-primitive", "no-fan", "unbalanced", "disconnected"])
def test_double_cover_refuses_a_base_it_cannot_cover(case):
    """Each refusal of a base that passes the branch-set checks, on the
    cube2 base branched at every vertex."""
    base = cube2_base()
    vid = sorted(base.fans)[5]
    fan = base.fans[vid]

    def with_rays(vecs):
        rays = tuple((vec, e) for vec, (_, e) in zip(vecs, fan.rays))
        return rebuilt(base, fans=base.fans | {vid: fan._replace(rays=rays)})

    base, want = {
        "non-primitive": (with_rays([(2, 0), (0, 1), (-1, -1)]),
                          "base surface invalid: ['fan-not-complete']"),
        "no-fan": (rebuilt(base, fans={v: f for v, f in base.fans.items() if v != vid}),
                   f"vertex {vid} must be trivalent with a fan"),
        "unbalanced": (with_rays([(1, 0), (0, 1), (-1, -2)]),
                       f"fan rays at {vid} do not sum to zero"),
        "disconnected": (_two_copies(base), "base 1-skeleton is disconnected"),
    }[case]
    if case != "non-primitive":  # a valid surface, refused by the builder's own checks
        assert validate_surface(base) == ()
    with pytest.raises(ValueError) as err:
        build_double_cover(base, all_vertices(base), 2, 1)
    assert str(err.value) == want


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


def _branch_rhs(build):
    """A double cover's base with its branch set as a right-hand side mod 2."""
    cover = build().cover
    return cover.base, {v.id: int(v.id in cover.branch_vertices) for v in cover.base.vertices}, 2


def _rank3_rhs(base):
    """A base with a 3-cycle at every vertex as a right-hand side mod 3."""
    return base, {v.id: 1 for v in base.vertices}, 3


VOLTAGE_CASES = {
    "cube2": lambda: _branch_rhs(cube2_multisection),
    "cube-o1": lambda: _branch_rhs(cube_o1_multisection),
    "planted": lambda: _branch_rhs(planted_multisection),
    "planted-triangle": lambda: _branch_rhs(planted_triangle_multisection),
    "simplex5-74": lambda: _branch_rhs(simplex5_multisection),
    "simplex5-58": lambda: _branch_rhs(lambda: simplex5_multisection(58)),
    "rank3-cube": lambda: _rank3_rhs(rank3_base()),
    "torus3-3": lambda: _rank3_rhs(perfbench_inputs.honeycomb_torus(3, RANK3_FAN_RAYS)),
}


@pytest.mark.parametrize("case", list(VOLTAGE_CASES))
def test_edge_voltages_solve_every_vertex_equation_on_the_tree(case):
    """Read through the public surface API: at each vertex, the wall of each
    corner counts +1 when the corner lies on the wall's first coface by id,
    -1 otherwise; the signed sums are the right-hand side, and the values
    vanish off the returned spanning tree."""
    base, rhs, p = VOLTAGE_CASES[case]()
    x = base._index
    value, tree = edge_voltages(x, [rhs[vid] for vid in x.ids[0]], p)
    by_id = dict(zip(x.ids[1], value))
    for v in base.vertices:
        signed = sum(by_id[wall] if f == base.cofaces(wall)[0] else -by_id[wall]
                     for f, _, wall in base.corners(v.id))
        assert (signed - rhs[v.id]) % p == 0, v.id
    tree_edges = {x.ids[1][e] for e, _ in tree.values()}
    assert len(tree) == len(tree_edges) == len(x.ids[0]) - 1
    assert all(0 <= g < p for g in value)
    assert not [eid for eid, g in by_id.items() if g and eid not in tree_edges]


class _ZeroRng:
    def randrange(self, n):
        return 0


@pytest.mark.parametrize("n", [None, 3, 6], ids=["rank3-cube", "torus-3", "torus-6"])
def test_edge_voltages_equal_the_benchmark_sweep_before_its_relabelling(n):
    """The benchmark's GF(3) sweep, with every per-2-cell relabelling 0,
    gives the solver's voltages."""
    base = rank3_base() if n is None else perfbench_inputs.honeycomb_torus(n, RANK3_FAN_RAYS)
    x = base._index
    value, _ = edge_voltages(x, [1] * len(x.ids[0]), 3)
    assert dict(zip(x.ids[1], value)) == perfbench_inputs.gf3_edge_voltages(base, _ZeroRng())


@pytest.mark.parametrize("p", [2, 3])
def test_edge_voltages_refuse_a_right_hand_side_with_nonzero_sum(p):
    x = rank3_base()._index
    rhs = [0] * len(x.ids[0])
    rhs[5] = 1
    with pytest.raises(ValueError, match=f"^no voltages: the right-hand side sums to 1 mod {p}$"):
        edge_voltages(x, rhs, p)


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
    number = msec.cover.base._index.number[0]
    assert _branch_pair(msec, number["v000"]) == (2, 0)
    assert _branch_pair(msec, number["v111"]) == (1, 0)


def test_classify_uniform_kinks_is_not_standard():
    msec = reslope_vertex(cover_1_0(), "v000", [1, 1, 1, 1, 1, 1])
    assert validate_multisection(msec) == ()
    tag = classify(msec)
    assert tag.tag == "none"
    assert any(viol[0] == "coincident-slopes" for viol in check_class_C(msec))


@pytest.mark.parametrize("asserted, record, verdict", [
    ({}, "refused", "refused"),
    ({"assumption-1.4": True}, "pass", "smoothable"),
], ids=["unasserted", "asserted"])
def test_simplicity_command_agrees_with_validate_on_degree2_class_C(tmp_path, asserted,
                                                                    record, verdict):
    """A degree-2 section of class C gets the general criterion from the
    simplicity command, as from validate: both read the criterion off the
    class, not the degree."""
    msec = reslope_vertex(cover_1_0(), "v000", [-1, 0, -1, 1, 0, 1])
    assert validate_multisection(msec) == () and classify(msec).tag == "C"
    doc = json.loads(multisection_to_text(msec))
    if asserted:
        doc["complex"]["asserted"] = asserted
    (tmp_path / "c.section.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "c.complex.json").write_text(complex_to_text(msec.cover.base), encoding="utf-8")
    (tmp_path / "c.manifest.json").write_text(manifest_to_text(
        Manifest("c.complex.json", "c.section.json", None, {})), encoding="utf-8")
    res = run_cli(["validate", "--manifest", tmp_path / "c.manifest.json"])
    assert res.exit_code == 0
    simplicity = next(r for r in json.loads(res.stdout)["checks"] if r["check"] == "simplicity")
    res = run_cli(["simplicity", "--section", tmp_path / "c.section.json"])
    assert res.exit_code == 0, res.stderr
    data = json.loads(res.stdout)
    assert (simplicity["verdict"], data["tag"]) == (record, verdict)
    assert simplicity["witnesses"][-len(data["reasons"]):] == data["reasons"]


@pytest.mark.parametrize("asserted", [{}, {"assumption-1.4": True}],
                         ids=["unasserted", "asserted"])
def test_simplicity_command_agrees_with_validate_on_class_S(tmp_path, asserted):
    """A section of class S, alternating with differing weight pairs, is out
    of scope for both commands: validate skips the simplicity check and the
    simplicity command refuses with the same reason, exit 0, whatever is
    asserted. ``--general`` still forces the general criterion."""
    msec = reslope_vertex(cover_1_0(), "v000", [2, 0, 2, 0, 2, 0])
    assert validate_multisection(msec) == () and classify(msec).tag == "S"
    doc = json.loads(multisection_to_text(msec))
    if asserted:
        doc["complex"]["asserted"] = asserted
    (tmp_path / "s.section.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "s.complex.json").write_text(complex_to_text(msec.cover.base), encoding="utf-8")
    (tmp_path / "s.manifest.json").write_text(manifest_to_text(
        Manifest("s.complex.json", "s.section.json", None, {})), encoding="utf-8")
    res = run_cli(["validate", "--manifest", tmp_path / "s.manifest.json",
                   "--check", "simplicity"])
    assert res.exit_code == 0
    (record,) = json.loads(res.stdout)["checks"]
    assert (record["verdict"], record["witnesses"]) == ("skipped", ["class S out of scope"])
    res = run_cli(["simplicity", "--section", tmp_path / "s.section.json"])
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.stdout) == {"tag": "refused", "reasons": record["witnesses"],
                                      "witnesses": []}
    res = run_cli(["simplicity", "--section", tmp_path / "s.section.json", "--general"])
    assert res.exit_code == 0, res.stderr
    forced = json.loads(res.stdout)["tag"]
    assert (forced == "refused") == (not asserted)


def test_class_none_exits_invalid_in_both_commands(tmp_path):
    msec = reslope_vertex(cover_1_0(), "v000", [1, 1, 1, 1, 1, 1])
    assert validate_multisection(msec) == () and classify(msec).tag == "none"
    (tmp_path / "n.section.json").write_text(multisection_to_text(msec), encoding="utf-8")
    (tmp_path / "n.complex.json").write_text(complex_to_text(msec.cover.base), encoding="utf-8")
    (tmp_path / "n.manifest.json").write_text(manifest_to_text(
        Manifest("n.complex.json", "n.section.json", None, {})), encoding="utf-8")
    res = run_cli(["validate", "--manifest", tmp_path / "n.manifest.json"])
    assert res.exit_code == 2
    res = run_cli(["simplicity", "--section", tmp_path / "n.section.json"])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: class mismatch")


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
