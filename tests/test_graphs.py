"""Branch-free graphs, fiber products, simplicity verdicts, and the
endomorphism certificate on minimal cycles."""

from fractions import Fraction

import pytest

from conftest import cube_surface, rebuilt
from tropms import chern
from tropms.bundle import check
from tropms.complexes import VertexFan, surface_from_cycles, validate_surface
from tropms.covers import (
    BranchedCover,
    MultiSection,
    build_double_cover,
    check_class_C,
    classify,
    validate_multisection,
)
from tropms.generators import (
    cube2_multisection,
    cube_o1_multisection,
    planted_multisection,
    planted_triangle_multisection,
    rank3_multisection,
    simplex5_multisection,
)
from tropms.gluing import TorusElement, coboundary_gluing, transport
from tropms.graphs import (
    EmbeddedGraph,
    _difference_data,
    build_G0,
    build_G0_tilde,
    build_fiber_product,
    endomorphism_witness,
    find_minimal_cycles,
    general_simplicity,
    is_simple_rank2,
    pair_id,
    simplicity_verdict,
)

RING = frozenset({"v001", "v101", "v111", "v011"})
CORNERS = frozenset({"v000", "v110", "v101", "v011"})
ALL8 = frozenset(
    f"v{x}{y}{z}" for x in (0, 1) for y in (0, 1) for z in (0, 1)
)
BOTTOM = ("v000", "v010", "v110", "v100")
BOTTOM_EDGES = ("ev000v010", "ev000v100", "ev010v110", "ev100v110")


def ring(m=2, n=1):
    return build_double_cover(cube_surface(), RING, m, n)


def corner(m=2, n=1):
    return build_double_cover(cube_surface(), CORNERS, m, n)


def full(m=2, n=1):
    return build_double_cover(cube_surface(), ALL8, m, n)


# hexagonal bipyramid with a double cover branched at the two ends of one
# equator edge, so that it is connected; sheet 1 realizes, at both
# apexes, a function whose polytope misses every one of its own cone slopes
HEX = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
HEX_SLOPES = [(0, 0), (2, -2), (-1, -2), (-1, -1), (1, -3), (0, -3)]
KINK = [3, -2, 3, -1, 2, -1]
W = [f"w{j}" for j in range(6)]
S_SLOPES = {
    "b1": (0, 0),
    "b0": (-2, -2),
    "b5": (-2, 1),
    "b4": (-1, 1),
    "b3": (-3, -1),
    "b2": (-3, 0),
}


def lift_at(cover, v, fid, sheet):
    """Number of the vertex lift under one sheet of a 2-cell at a vertex."""
    x = cover.base._index
    return cover._index.lift_of[x.corner(x.number[0][v], x.number[2][fid]) * cover.degree + sheet]


def ids(base, dim, numbers):
    """The ids of base cells of one dimension given by number."""
    return frozenset(base._index.ids[dim][k] for k in numbers)


def _edge(a, b):
    return "e" + "".join(sorted((a, b)))


def bipyramid_surface():
    faces = {}
    for j in range(6):
        faces[f"t{j}"] = ("n", W[j], W[(j + 1) % 6])
        faces[f"b{j}"] = ("s", W[(j + 1) % 6], W[j])
    s = surface_from_cycles(faces)
    s.fans["n"] = VertexFan(
        "n",
        tuple((HEX[j], _edge("n", W[j])) for j in range(6)),
        tuple((f"t{j}", (j, (j + 1) % 6)) for j in range(6)),
    )
    for j in range(6):
        s.fans[W[j]] = VertexFan(
            W[j],
            (
                ((1, 0), _edge(W[j], W[(j + 1) % 6])),
                ((0, 1), _edge("n", W[j])),
                ((-1, 0), _edge(W[(j - 1) % 6], W[j])),
                ((0, -1), _edge("s", W[j])),
            ),
            (
                (f"t{j}", (0, 1)),
                (f"t{(j - 1) % 6}", (1, 2)),
                (f"b{(j - 1) % 6}", (2, 3)),
                (f"b{j}", (3, 0)),
            ),
        )
    mirrored = [(x, -y) for x, y in HEX]
    order = [2, 1, 0, 5, 4, 3]
    s.fans["s"] = VertexFan(
        "s",
        tuple((mirrored[j], _edge("s", W[j])) for j in order),
        tuple((f"b{(order[p] - 1) % 6}", (p, (p + 1) % 6)) for p in range(6)),
    )
    return s


# the branch points, and the slopes around each one's single lift by cone
# (t_j, t_j-1, b_j-1, b_j, then again): pairwise distinct, and differences
# along the rays, so the distinct-covector conditions hold
CUT = ("w0", "w1")
CUT_SLOPES = [(0, 0), (0, 0), (0, 0), (1, 0), (1, 0), (-1, 0), (-1, 0), (0, 0)]


def bipyramid_msec(branch=frozenset()):
    s = bipyramid_surface()
    matchings = {e.id: (0, 1) for e in s.edges}
    matchings[_edge(*CUT)] = (1, 0)
    ram = {v.id: ((0, 1),) if v.id in CUT else ((0,), (1,)) for v in s.vertices}
    cover = BranchedCover(s, 2, matchings, frozenset(branch) | set(CUT), ram)
    slopes = {}
    for v in CUT:
        corners = s.corners(v)
        cone = {fid: i for fid, (i, _) in s.fans[v].cones}
        cyc = cover.lift_cycles(v)[0]
        start = cone[corners[cyc[0][0]][0]]
        for t, (i, sheet) in enumerate(cyc):
            slopes[(f"{v}#0", corners[i][0], sheet)] = CUT_SLOPES[(start + t) % 8]
    for v in s.vertices:
        if v.id in CUT:
            continue
        for fid, _ in s.fans[v.id].cones:
            l0 = cover._index.ids[lift_at(cover, v.id, fid, 0)]
            l1 = cover._index.ids[lift_at(cover, v.id, fid, 1)]
            slopes[(l0, fid, 0)] = (0, 0)
            if v.id == "n":
                slopes[(l1, fid, 1)] = HEX_SLOPES[int(fid[1:])]
            elif v.id == "s":
                slopes[(l1, fid, 1)] = S_SLOPES[fid]
            else:
                j = int(v.id[1:])
                same = int(fid[1:]) == j
                slopes[(l1, fid, 1)] = (0, 0) if same else (-KINK[j], 0)
    return MultiSection(cover, slopes, "bipyramid")


def test_bipyramid_fixture_is_valid():
    s = bipyramid_surface()
    assert validate_surface(s) == ()
    assert validate_multisection(bipyramid_msec()) == ()


def test_embedded_graph_rejects_dangling_edge():
    base = cube_surface()
    number = base._index.number
    with pytest.raises(ValueError, match="outside"):
        EmbeddedGraph(frozenset({number[0]["v000"]}), frozenset({number[1]["ev000v010"]}), base)


def test_g0_ring():
    g = build_G0(ring())
    assert ids(g.host, 0, g.vertices) == frozenset(BOTTOM)
    assert ids(g.host, 1, g.edges) == frozenset(BOTTOM_EDGES)
    assert not g.is_empty


def test_g0_corner_isolated_vertices():
    g = build_G0(corner())
    assert ids(g.host, 0, g.vertices) == frozenset({"v100", "v010", "v001", "v111"})
    assert g.edges == frozenset()


def test_g0_full_branch_empty():
    assert build_G0(full()).is_empty


def test_minimal_cycles_ring():
    msec = ring()
    cycles = find_minimal_cycles(build_G0(msec))
    assert cycles == [(BOTTOM, "fz0")]
    assert cycles[0][0] == msec.cover.base.boundary_cycle("fz0")


def test_minimal_cycles_whole_skeleton():
    base = cube_surface()
    g = EmbeddedGraph(
        frozenset(range(len(base.vertices))),
        frozenset(range(len(base.edges))),
        base,
    )
    cycles = find_minimal_cycles(g)
    assert [fid for _, fid in cycles] == ["fx0", "fx1", "fy0", "fy1", "fz0", "fz1"]


def test_minimal_cycles_empty_graph():
    g = EmbeddedGraph(frozenset(), frozenset(), cube_surface())
    assert find_minimal_cycles(g) == []


def test_rank2_gap1_simple():
    msec = corner(2, 1)
    v = is_simple_rank2(msec, classify(msec))
    assert v.tag == "simple"
    assert v.reasons[0].startswith("[rank2-gap1]")
    assert v.witnesses == ()


def test_rank2_gap1_not_simple():
    msec = ring(2, 1)
    v = is_simple_rank2(msec, classify(msec))
    assert v.tag == "not_simple"
    assert v.witnesses == ((BOTTOM, "fz0"),)


def test_rank2_gap2():
    msec = corner(3, 1)
    assert is_simple_rank2(msec, classify(msec)).tag == "simple"
    msec = ring(3, 1)
    v = is_simple_rank2(msec, classify(msec))
    assert v.tag == "not_simple"
    assert v.reasons[0].startswith("[rank2-gap2]")
    assert v.witnesses == BOTTOM_EDGES


def test_rank2_gap3():
    msec = corner(4, 1)
    v = is_simple_rank2(msec, classify(msec))
    assert v.tag == "not_simple"
    assert v.reasons[0].startswith("[rank2-gap3]")
    assert v.witnesses == ("v001", "v010", "v100", "v111")
    msec = full(4, 1)
    assert is_simple_rank2(msec, classify(msec)).tag == "simple"


def test_rank2_swap_symmetric():
    msec = ring(1, 2)
    assert is_simple_rank2(msec, classify(msec)).tag == "not_simple"
    msec = corner(1, 3)
    assert is_simple_rank2(msec, classify(msec)).tag == "simple"


def test_rank2_class_mismatch():
    msec = bipyramid_msec()
    with pytest.raises(ValueError, match="class mismatch"):
        is_simple_rank2(msec, classify(msec))


def test_rank2_smoothable_upgrade():
    msec = corner(2, 1)
    tag = classify(msec)
    assert simplicity_verdict(msec, tag, "rank2", {"open-gluing-induced"}, True).tag == "simple"
    flags = {"positive", "simple", "elementary", "open-gluing-induced"}
    assert simplicity_verdict(msec, tag, "rank2", flags).tag == "simple"
    v = simplicity_verdict(msec, tag, "rank2", flags, True)
    assert v.tag == "smoothable"
    assert any("[smoothability-upgrade]" in r for r in v.reasons)


def test_fiber_product_counts():
    msec = ring()
    fp = build_fiber_product(msec)
    assert [len(fp.of_dim(d)) for d in (0, 1, 2)] == [20, 48, 24]
    diag = [c for c in fp.cells if c.diagonal]
    by_dim = [len([c for c in diag if c.dim == d]) for d in (0, 1, 2)]
    assert by_dim == list(msec.cover.total_space_counts())


def test_fiber_product_off_diagonal_involution():
    fp = build_fiber_product(ring())
    number = {fp.id(k): k for k in range(len(fp.cells))}
    off = [k for k, c in enumerate(fp.cells) if not c.diagonal]
    assert len(off) == 44
    for k in off:
        a, b = fp.lift_ids(k)
        twin = fp.cells[number[pair_id(b, a)]]
        assert not twin.diagonal and twin.base == fp.cells[k].base
    # orbits under the swap match the base cells with two distinct lifts
    orbits = {frozenset(fp.lift_ids(k)) for k in off}
    assert len(orbits) == 22


def test_fiber_product_incidence_componentwise():
    msec = ring()
    fp = build_fiber_product(msec)
    cover = msec.cover
    number = {fp.id(k): k for k in range(len(fp.cells))}
    pe = fp.cells[number[pair_id("ev000v010~0", "ev000v010~1")]]
    assert pe.dim == 1 and ids(cover.base, 1, [pe.base]) == {"ev000v010"}
    want = {
        pair_id(
            cover.vertex_lift_at_edge(v, "ev000v010", 0),
            cover.vertex_lift_at_edge(v, "ev000v010", 1),
        )
        for v in ("v000", "v010")
    }
    assert {fp.id(pv) for pv in pe.faces} == want
    pf_number = number[pair_id("fz0~0", "fz0~1")]
    pf = fp.cells[pf_number]
    assert len(pf.faces) == 4
    cyc = fp.boundary_cycle(pf_number)
    assert len(cyc) == 4
    assert ids(cover.base, 0, [fp.cells[pv].base for pv in cyc]) == set(BOTTOM)
    boundary_endpoints = {pv for peid in pf.faces for pv in fp.cells[peid].faces}
    assert set(cyc) == boundary_endpoints


def test_g0_tilde_ring():
    msec = ring()
    gt = build_G0_tilde(msec)
    fp = gt.host
    assert len(gt.vertices) == 12 and len(gt.edges) == 12
    diag = {pv for pv in gt.vertices if fp.cells[pv].diagonal}
    assert ids(msec.cover.base, 0, [fp.cells[pv].base for pv in diag]) == set(BOTTOM)
    assert len(diag) == 8
    off = sorted(map(fp.id, gt.vertices - diag))
    assert off == [
        "v000#1|v000#0",
        "v010#1|v010#0",
        "v100#1|v100#0",
        "v110#1|v110#0",
    ]


def test_g0_tilde_off_diagonal_matches_g0():
    msec = ring()
    g0 = build_G0(msec)
    gt = build_G0_tilde(msec)
    fp = gt.host
    off_v = [pv for pv in gt.vertices if not fp.cells[pv].diagonal]
    off_e = [pe for pe in gt.edges if not fp.cells[pe].diagonal]
    assert sorted(fp.cells[pv].base for pv in off_v) == sorted(g0.vertices)
    assert sorted(fp.cells[pe].base for pe in off_e) == sorted(g0.edges)


def test_g0_tilde_projection_surjective():
    msec = ring()
    assert check_class_C(msec) == ()
    gt = build_G0_tilde(msec)
    g0 = build_G0(msec)
    assert {gt.host.cells[pv].base for pv in gt.vertices} == g0.vertices


def test_g0_tilde_cycles():
    gt = build_G0_tilde(ring())
    cycles = find_minimal_cycles(gt)
    assert [sigma for _, sigma in cycles] == [
        "fz0~0|fz0~0",
        "fz0~1|fz0~0",
        "fz0~1|fz0~1",
    ]


def _g0_tilde_from_full_fiber_product(msec):
    """The branch-free pair graph read off the whole self fiber product."""
    fp = build_fiber_product(msec)
    branch = msec.cover.branch_vertices
    V = msec.cover.base._index.ids[0]
    vertices = frozenset(
        k
        for k, c in zip(fp.of_dim(0), fp.cells)
        if V[c.base] not in branch
        and not _difference_data(msec, c.base, c.a, c.b)[2].is_empty
    )
    edges = frozenset(
        k for k in fp.of_dim(1) if all(pv in vertices for pv in fp.cells[k].faces)
    )
    return EmbeddedGraph(vertices, edges, fp)


@pytest.mark.parametrize(
    "build, n_cycles",
    [
        (simplex5_multisection, 0),
        (cube2_multisection, 0),
        (cube_o1_multisection, 0),
        (rank3_multisection, 0),
        (planted_multisection, 3),
        (planted_triangle_multisection, 3),
    ],
    ids=["simplex5", "cube2", "cube-o1", "rank3-cube", "planted", "planted-triangle"],
)
def test_g0_tilde_over_branch_free_cells_matches_full_fiber_product(build, n_cycles):
    msec = build()
    gt = build_G0_tilde(msec)
    full = _g0_tilde_from_full_fiber_product(msec)
    # the two fiber products number their cells apart, so compare ids
    for part in ("vertices", "edges"):
        assert {gt.host.id(k) for k in getattr(gt, part)} == {
            full.host.id(k) for k in getattr(full, part)}
    assert find_minimal_cycles(gt) == find_minimal_cycles(full)
    assert len(find_minimal_cycles(gt)) == n_cycles


def test_g0_tilde_diagonal_polytope_is_origin():
    msec = ring()
    cover = msec.cover
    lift = lift_at(cover, "v000", "fz0", 0)
    poly = _difference_data(msec, cover.base._index.number[0]["v000"], lift, lift)[2]
    assert poly.lattice_points == frozenset({(0, 0)})


def test_general_requires_assertion():
    msec = ring()
    v = general_simplicity(msec, classify(msec))
    assert v.tag == "refused"
    assert len(v.reasons) == 1 and "asserted" in v.reasons[0]


def test_general_class_mismatch_on_coincident_slopes():
    msec = ring()
    cover = msec.cover
    lift = cover.computed_lifts("v001")[0][0]
    pos0, fid = 0, cover.base.corners("v001")[0][0]
    sheets = sorted(s for i, s in cover.lift_cycles("v001")[0] if i == pos0)
    same = msec.slopes[(lift, fid, sheets[0])]
    msec = rebuilt(msec, slopes=msec.slopes | {(lift, fid, sheets[1]): same})
    with pytest.raises(ValueError, match="class mismatch"):
        general_simplicity(msec, classify(msec), local_bundles_asserted=True)


def test_general_requires_total_ramification():
    msec = bipyramid_msec(branch=frozenset({"n"}))
    with pytest.raises(ValueError, match="total ramification"):
        general_simplicity(msec, classify(msec), local_bundles_asserted=True)


def test_general_satisfied_corner():
    msec = corner(2, 1)
    v = general_simplicity(msec, classify(msec), local_bundles_asserted=True)
    assert v.tag == "smoothable"
    assert any("criterion satisfied" in r for r in v.reasons)
    assert any("simple" in r for r in v.reasons)
    assert v.witnesses == ()


def test_general_satisfied_vacuously_on_full_branch():
    msec = full(2, 1)
    assert build_G0_tilde(msec).is_empty
    tag = classify(msec)
    assert general_simplicity(msec, tag, local_bundles_asserted=True).tag == "smoothable"


def test_general_inconclusive_on_cycles_never_not_simple():
    msec = ring()
    v = general_simplicity(msec, classify(msec), local_bundles_asserted=True)
    assert v.tag == "criterion_inconclusive"
    assert any("minimal cycles exist" in r for r in v.reasons)
    assert "pair level: 3, base level: 1" in v.reasons[0]


def test_general_inconclusive_on_starved_fixed_points():
    msec = bipyramid_msec()
    n0 = lift_at(msec.cover, "n", "t0", 0)
    n1 = lift_at(msec.cover, "n", "t0", 1)
    poly = _difference_data(msec, msec.cover.base._index.number[0]["n"], n0, n1)[2]
    assert poly.lattice_points == frozenset({(0, -2)})
    assert all(u not in poly for u in HEX_SLOPES)
    v = general_simplicity(msec, classify(msec), local_bundles_asserted=True)
    assert v.tag == "criterion_inconclusive"
    starved = [r for r in v.reasons if r.startswith("[fixed-point-support]")]
    assert len(starved) == 1
    assert "n#0|n#1" in starved[0] and "s#0|s#1" in starved[0]


@pytest.mark.parametrize("build, calls", [(ring, 8), (bipyramid_msec, 12)],
                         ids=["ring", "bipyramid"])
def test_general_criterion_computes_each_difference_polytope_once(monkeypatch, build, calls):
    """One Newton polytope per off-diagonal branch-free pair vertex, whose
    diagonal ones get the origin: the fixed-point test reuses the data of
    the pair graph's build."""
    msec = build()
    tag = classify(msec)
    seen = []
    newton_polytope = chern.newton_polytope
    monkeypatch.setattr(chern, "newton_polytope",
                        lambda *args: seen.append(args) or newton_polytope(*args))
    general_simplicity(msec, tag, local_bundles_asserted=True)
    assert len(seen) == calls


def test_witness_ring_trivial_gluing():
    msec = ring()
    cycle = find_minimal_cycles(build_G0(msec))[0]
    w = endomorphism_witness(transport(check(msec, {})), cycle)
    assert w.ok and w.zero_extension
    assert w.order == (1, 0)
    assert all(c == 1 for c in w.constants.values())
    assert w.weights == {
        "v000": (-1, 0),
        "v010": (0, -1),
        "v110": (0, -1),
        "v100": (0, 0),
    }
    assert [e for e, _, _ in w.edge_checks] == [
        "ev000v010",
        "ev010v110",
        "ev100v110",
        "ev000v100",
    ]
    assert all(passed for _, _, passed in w.edge_checks)


def test_witness_weight_divisor_pattern():
    # each weight pairs maximally against the two cycle-edge rays and
    # strictly below the maximum on the remaining ray
    msec = ring()
    cycle = find_minimal_cycles(build_G0(msec))[0]
    w = endomorphism_witness(transport(check(msec, {})), cycle)
    cycle_edges = set(BOTTOM_EDGES)
    for v, u in w.weights.items():
        poly = _difference_data(
            msec,
            msec.cover.base._index.number[0][v],
            lift_at(msec.cover, v, "fz0", 1),
            lift_at(msec.cover, v, "fz0", 0),
        )[2]
        for vec, eid in msec.cover.base.fans[v].rays:
            vals = [p[0] * vec[0] + p[1] * vec[1] for p in poly.lattice_points]
            pairing = u[0] * vec[0] + u[1] * vec[1]
            if eid in cycle_edges:
                assert pairing == max(vals)
            else:
                assert pairing < max(vals)


def test_witness_coboundary_gluing():
    msec = ring()
    cycle = find_minimal_cycles(build_G0(msec))[0]
    lam_vertex = {
        "v000#0": TorusElement.single((1, 1), Fraction(2)),
        "v010#1": TorusElement.single((2, -1), Fraction(3, 5)),
    }
    lam_edge = {"ev000v010~0": Fraction(7, 2)}
    g = coboundary_gluing(msec, lam_vertex, lam_edge)
    w = endomorphism_witness(transport(check(msec, g)), cycle)
    assert w.ok
    assert all(passed for _, _, passed in w.edge_checks)
    hol = Fraction(1)
    for _, lam, _ in w.edge_checks:
        hol *= lam
    assert hol == 1
    assert w.constants[min(w.constants)] == 1


def test_witness_from_rank2_verdict():
    msec = ring()
    verdict = is_simple_rank2(msec, classify(msec))
    assert verdict.tag == "not_simple"
    w = endomorphism_witness(transport(check(msec, {})), verdict.witnesses[0])
    assert w.ok
