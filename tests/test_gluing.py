import itertools
import json
import random
from fractions import Fraction

import pytest
from conftest import by_id, cube_surface, holonomy, rebuilt, run_cli, tree_gauged_rows
from hypothesis import given
from hypothesis import strategies as st

from tropms import EXIT_INVALID
from tropms.bundle import Invalid, check
from tropms.complexes import complex_to_text
from tropms.covers import BranchedCover, MultiSection, build_double_cover, multisection_to_text
from tropms.gluing import (
    TRIVIAL,
    TorusElement,
    bar_complex,
    check_edge_kinks,
    coboundary_gluing,
    edge_lift_id,
    gluing_to_text,
    obstruction_class,
    parse_gluing,
    transport,
    triple_cocycle,
    unbounded_chains,
    validate_gluing,
    vertex_edge_flags,
)
from tropms.lattice import dot, rot90, solve_linear
from tropms.pipeline import CHECK_ORDER, Manifest, manifest_to_text


def full_branch(m=2, n=1):
    s = cube_surface()
    return build_double_cover(s, [v.id for v in s.vertices], m, n)


def ring_cover(m=2, n=1):
    """Branch only the top face's corners; the bottom face boundary is then a
    branch-free cycle bounding a 2-cell."""
    s = cube_surface()
    return build_double_cover(s, ["v001", "v101", "v111", "v011"], m, n)


BOTTOM_CYCLE = ["v000", "v010", "v110", "v100"]


def rand_elem(rng):
    facs = []
    for _ in range(rng.randrange(1, 3)):
        vec = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        q = Fraction(rng.choice([2, 3, 5, 7]), rng.choice([1, 2, 3]))
        facs.append((vec, q))
    return TorusElement(facs)


def rand_coboundary(msec, rng):
    cover = msec.cover
    lam_v = {}
    for v in cover.base.vertices:
        for lid, _ in cover.computed_lifts(v.id):
            lam_v[lid] = rand_elem(rng)
    lam_e = {}
    for e in cover.base.edges:
        for lift in range(cover.degree):
            lam_e[edge_lift_id(e.id, lift)] = Fraction(
                rng.choice([2, 3, 5, 7]), rng.choice([1, 2, 3])
            )
    return coboundary_gluing(msec, lam_v, lam_e)


# -- torus elements -----------------------------------------------------------


def evaluate(t: TorusElement, m) -> Fraction:
    """Pair a torus element against a covector: product of q ** <m, vec>."""
    out = Fraction(1)
    for vec, q in t.factors:
        out *= q ** dot(m, vec)
    return out


def test_evaluate_examples():
    assert evaluate(TorusElement.single((1, 0), 2), (3, 5)) == 8
    t = TorusElement([((1, 0), 2), ((0, 1), 3)])
    assert evaluate(t, (1, 1)) == 6
    assert evaluate(t, (0, 0)) == 1
    assert evaluate(t, (-1, 2)) == Fraction(9, 2)


def test_canonical_merging():
    t = TorusElement([((1, 0), 2), ((1, 0), 3)])
    assert t.factors == (((1, 0), Fraction(6)),)
    assert TorusElement([((1, 0), 2), ((1, 0), Fraction(1, 2))]).is_trivial
    assert TorusElement([((0, 0), 7)]).is_trivial
    with pytest.raises(ValueError):
        TorusElement([((1, 0), 0)])


vecs = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
elems = st.lists(
    st.tuples(vecs, st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)),
    max_size=3,
).map(TorusElement)


@given(elems, elems, vecs)
def test_group_laws(a, b, m):
    assert evaluate(a * b, m) == evaluate(a, m) * evaluate(b, m)


# -- total-space structure ----------------------------------------------------


def test_bar_complex_counts():
    msec = full_branch()
    bar = bar_complex(msec)
    assert len(bar.nodes) == 8 + 24 + 12
    assert len(bar.edges) == 144
    assert len(bar.triangles) == 96
    assert len(vertex_edge_flags(msec)) == 48


def test_bar_edge_signs_cancel():
    # every inclusion edge sits in exactly two chains, with opposite
    # orientation signs
    bar = bar_complex(full_branch())
    from collections import defaultdict

    seen = defaultdict(list)
    for v, e, f, sign in bar.triangles:
        seen[(v, e)].append(sign)
        seen[(e, f)].append(sign)
        seen[(v, f)].append(-sign)
    for edge, signs in seen.items():
        assert len(signs) == 2 and sum(signs) == 0, edge


# -- validation ---------------------------------------------------------------


def test_validate_trivial_and_violations():
    msec = full_branch()
    bar = bar_complex(msec)
    assert validate_gluing(msec, {}, bar) == ()
    good_flag = sorted(vertex_edge_flags(msec))[0]
    assert validate_gluing(msec, {good_flag: TorusElement.single((1, 1), 2)}, bar) == ()

    # nontrivial element into a 2-cell lift names the offending chain
    rep = validate_gluing(
        msec, {("ev000v010~0", "fz0~0"): TorusElement.single((1, 0), 2)}, bar
    )
    assert "gluing-cocycle-violation" in [d.code for d in rep]
    msg = next(d for d in rep if d.code == "gluing-cocycle-violation")
    assert "fz0~0" in msg.message

    rep = validate_gluing(msec, {("v000#0", "fz1~0"): TorusElement.single((1, 0), 2)}, bar)
    assert "gluing-flag" in [d.code for d in rep]


# -- triple cocycle -----------------------------------------------------------


def test_cocycle_trivial_data():
    msec = full_branch()
    bar = bar_complex(msec)
    c = by_id(bar, triple_cocycle(msec, {}, bar), bar.chains)
    assert len(c) == 96
    assert all(v == 1 for v in c.values())


def test_cocycle_single_entry_min_endpoint():
    msec = full_branch()
    cover = msec.cover
    vl = cover.vertex_lift_at_edge("v000", "ev000v010", 0)
    assert vl == "v000#0"
    g = {(vl, "ev000v010~0"): TorusElement.single((1, 0), 2)}
    bar = bar_complex(msec)
    c = by_id(bar, triple_cocycle(msec, g, bar), bar.chains)
    nontrivial = {k: v for k, v in c.items() if v != 1}
    assert nontrivial == {("v000#0", "ev000v010~0", "fz0~0"): Fraction(1, 4)}


def test_cocycle_single_entry_other_endpoint():
    msec = full_branch()
    bar = bar_complex(msec)
    cover = msec.cover
    vl = cover.vertex_lift_at_edge("v010", "ev000v010", 1)
    assert vl == "v010#0"
    g = {(vl, "ev000v010~1"): TorusElement.single((0, 1), 3)}
    nontrivial = {
        k: v for k, v in by_id(bar, triple_cocycle(msec, g, bar), bar.chains).items()
        if v != 1
    }
    assert nontrivial == {
        ("v010#0", "ev000v010~1", "fx0~1"): Fraction(1, 3),
        ("v010#0", "ev000v010~1", "fz0~1"): Fraction(1, 9),
    }
    # at this endpoint the edge direction is (1,0), so data along it is inert
    g2 = {(vl, "ev000v010~1"): TorusElement.single((1, 0), 3)}
    assert all(v == 1 for v in by_id(bar, triple_cocycle(msec, g2, bar), bar.chains).values())


def reslope_uniform(msec, v, kinks):
    cover = msec.cover
    corners = cover.base.corners(v)
    lid = cover.computed_lifts(v)[0][0]
    cyc = cover.lift_cycles(v)[0]
    fan = cover.base.fans[v]
    ray_of = {e: vec for vec, e in fan.rays}
    u, slopes = (0, 0), dict(msec.slopes)
    for t, (i, s) in enumerate(cyc):
        slopes[(lid, corners[i][0], s)] = u
        g = rot90(ray_of[corners[i][2]])
        u = (u[0] + kinks[t] * g[0], u[1] + kinks[t] * g[1])
    assert u == (0, 0)
    return rebuilt(msec, slopes=slopes)


def test_kink_mismatch_rejected():
    assert check_edge_kinks(full_branch()) == []
    msec = reslope_uniform(full_branch(), "v000", [3, 0] * 3)
    bad = check_edge_kinks(msec)
    assert bad and all(e.startswith("ev000") for e in bad)
    with pytest.raises(Invalid, match="gluing-kink-mismatch") as err:
        check(msec, {})
    assert [d.message for d in err.value.diagnostics] == [
        f"edge lift {e}: kinks disagree between endpoints" for e in bad
    ]


def test_kink_mismatch_fails_validation_under_every_check_subset(tmp_path, monkeypatch):
    """A valid section whose edge kinks disagree, with gluing data (here
    none flagged), fails the validate check, and stops the run without it."""
    msec = reslope_uniform(full_branch(), "v000", [3, 0] * 3)
    (tmp_path / "k.complex.json").write_text(complex_to_text(msec.cover.base))
    (tmp_path / "k.section.json").write_text(multisection_to_text(msec))
    (tmp_path / "k.gluing.json").write_text(gluing_to_text({}))
    m = Manifest("k.complex.json", "k.section.json", "k.gluing.json", {})
    (tmp_path / "k.manifest.json").write_text(manifest_to_text(m))
    monkeypatch.chdir(tmp_path)
    res = run_cli(["validate", "--manifest", "k.manifest.json"])
    assert res.exit_code == EXIT_INVALID, res.output
    first = json.loads(res.stdout)["checks"][0]
    assert (first["check"], first["verdict"]) == ("validate", "fail")
    assert first["witnesses"] and all(
        w.startswith("gluing-kink-mismatch: edge lift ev000") for w in first["witnesses"]
    )
    for k in range(1, len(CHECK_ORDER) + 1):
        for subset in itertools.combinations(CHECK_ORDER, k):
            argv = ["validate", "--manifest", "k.manifest.json"]
            for name in subset:
                argv += ["--check", name]
            res = run_cli(argv)
            assert res.exit_code == EXIT_INVALID, subset
            assert "gluing-kink-mismatch" in res.output, subset


# -- obstruction --------------------------------------------------------------


def test_obstruction_trivial_data():
    msec = full_branch()
    bar = bar_complex(msec)
    ob = obstruction_class(triple_cocycle(msec, {}, bar), bar)
    ob = ob._replace(cochain=by_id(bar, ob.cochain, bar.edges))
    assert ob.trivial and ob.witness == 1
    assert len(ob.cochain) == 144
    assert all(v == 1 for v in ob.cochain.values())


def test_obstruction_of_coboundaries():
    msec = full_branch()
    bar = bar_complex(msec)
    rng = random.Random(2207)
    for _ in range(6):
        g = rand_coboundary(msec, rng)
        c = triple_cocycle(msec, g, bar)
        ob = obstruction_class(c, bar)
        c, ob = by_id(bar, c, bar.chains), ob._replace(cochain=by_id(bar, ob.cochain, bar.edges))
        assert ob.trivial and ob.witness == 1
        for v, e, f in c:
            assert (
                ob.cochain[(e, f)] * ob.cochain[(v, e)] / ob.cochain[(v, f)]
                == c[(v, e, f)]
            )


def test_obstruction_deterministic():
    msec = full_branch()
    g = rand_coboundary(msec, random.Random(5))
    bar = bar_complex(msec)
    c = triple_cocycle(msec, g, bar)
    assert obstruction_class(c, bar) == obstruction_class(c, bar)


def test_unbounded_chains_does_not_rely_on_the_shared_one():
    msec = full_branch()
    bar = bar_complex(msec)
    c = triple_cocycle(msec, rand_coboundary(msec, random.Random(31)), bar, [Fraction(2)])
    k = obstruction_class(c, bar).cochain
    # zero vectors but not the shared one: every chain takes the arithmetic
    fresh_c = c._replace(values=[tuple(list(v)) for v in c.values])
    fresh_k = k._replace(values=[tuple(list(v)) for v in k.values])
    assert unbounded_chains(bar, fresh_c, fresh_k) == []
    b = next(b for b, v in enumerate(k.fractions()) if v != 1)
    bar_edge = tuple(bar.nodes[x] for x in bar.edges[b])
    fresh_k.values[b] = tuple(map(sum, zip(fresh_k.values[b], k.vector(Fraction(2)))))
    through = [
        (v, e, f)
        for v, e, f in by_id(bar, c, bar.chains)
        if bar_edge in ((e, f), (v, e), (v, f))
    ]
    assert len(through) == 2
    assert unbounded_chains(bar, fresh_c, fresh_k) == through


def test_planted_obstruction_detected():
    msec = full_branch()
    rng = random.Random(404)
    base = rand_coboundary(msec, rng)
    flag = sorted(vertex_edge_flags(msec))[7]
    tampered = dict(base)
    tampered[flag] = tampered.get(flag, TRIVIAL) * TorusElement.single((1, 1), 2)
    bar = bar_complex(msec)
    ob = obstruction_class(triple_cocycle(msec, tampered, bar), bar)
    assert not ob.trivial
    assert ob.witness != 1
    assert ob.cochain is None


def test_obstruction_agrees_with_solve_linear():
    """lattice.solve_linear on the coboundary gauged on a spanning tree of the
    chains, one base element at a time, finds a bounding cochain exactly when
    obstruction_class does: random coboundaries bound, tampered ones do not."""
    msec = full_branch()
    bar = bar_complex(msec)
    rows = tree_gauged_rows(bar)
    flag = sorted(vertex_edge_flags(msec))[7]
    rng = random.Random(12)
    for planted in (False, True) * 3:
        g = rand_coboundary(msec, rng)
        if planted:
            g[flag] = g.get(flag, TRIVIAL) * TorusElement.single((1, 1), 2)
        c = triple_cocycle(msec, g, bar)
        assert all(v[0] == 0 for v in c.values)  # no negative value
        solutions = solve_linear(rows, [[v[i] for v in c.values] for i in range(1, len(c.base))])
        bounds = None not in solutions
        assert obstruction_class(c, bar).trivial == bounds == (not planted)


def test_single_entry_witnesses():
    msec = full_branch()
    bar = bar_complex(msec)
    cover = msec.cover
    vl = cover.vertex_lift_at_edge("v000", "ev000v010", 0)
    g = {(vl, "ev000v010~0"): TorusElement.single((1, 0), 2)}
    assert obstruction_class(triple_cocycle(msec, g, bar), bar).witness == Fraction(1, 4)
    vl = cover.vertex_lift_at_edge("v010", "ev000v010", 1)
    g = {(vl, "ev000v010~1"): TorusElement.single((0, 1), 3)}
    assert obstruction_class(triple_cocycle(msec, g, bar), bar).witness == 3


# -- holonomy -----------------------------------------------------------------


def test_holonomy_trivial_and_coboundary():
    msec = ring_cover()
    t = transport(check(msec, {}))
    assert holonomy(t, BOTTOM_CYCLE, "fz0") == 1
    rng = random.Random(808)
    for _ in range(6):
        g = rand_coboundary(msec, rng)
        assert holonomy(transport(check(msec, g)), BOTTOM_CYCLE, "fz0") == 1
    rev = list(reversed(BOTTOM_CYCLE))
    t = transport(check(msec, rand_coboundary(msec, rng)))
    assert holonomy(t, rev, "fz0") == 1


def test_holonomy_with_corrupted_cochain():
    msec = ring_cover()
    g = rand_coboundary(msec, random.Random(11))
    bar = bar_complex(msec)
    c = triple_cocycle(msec, g, bar, [Fraction(3)])
    ob = obstruction_class(c, bar)
    k = ob.cochain
    vlift = msec.cover.vertex_lift_at_edge("v000", "ev000v010", 0)
    b = bar.number(vlift, "ev000v010~0")
    k.values[b] = tuple(map(sum, zip(k.values[b], k.vector(Fraction(3)))))
    h = holonomy(transport(check(msec, g))._replace(k=k), BOTTOM_CYCLE, "fz0")
    assert h in (Fraction(3), Fraction(1, 3))


def test_holonomy_rejects_bad_input():
    msec = ring_cover()
    # obstructed data: a single entry transverse to its edge
    vl = msec.cover.vertex_lift_at_edge("v000", "ev000v010", 0)
    g = {(vl, "ev000v010~0"): TorusElement.single((1, 0), 2)}
    bar = bar_complex(msec)
    assert not obstruction_class(triple_cocycle(msec, g, bar), bar).trivial
    with pytest.raises(ValueError, match="inconsistency"):
        holonomy(transport(check(msec, g)), BOTTOM_CYCLE, "fz0")
    # invalid data placement
    bad = {("v000#0", "fz0~0"): TorusElement.single((1, 0), 2)}
    with pytest.raises(ValueError, match="invalid"):
        holonomy(transport(check(msec, bad)), BOTTOM_CYCLE, "fz0")
    # cycle edge off the 2-cell
    with pytest.raises(ValueError, match="boundary"):
        holonomy(transport(check(msec, {})), ["v000", "v010", "v011", "v001"], "fz0")


def test_holonomy_needs_rank_two():
    s = cube_surface()
    cover = BranchedCover(
        base=s,
        degree=1,
        edge_matchings={e.id: (0,) for e in s.edges},
        branch_vertices=frozenset(),
        ramification={v.id: ((0,),) for v in s.vertices},
    )
    # constant zero slopes: a valid section, refused for its degree alone
    slopes = {(f"{v.id}#0", fid, 0): (0, 0) for v in s.vertices for fid, _, _ in s.corners(v.id)}
    msec = MultiSection(cover, slopes, label="flat")
    with pytest.raises(ValueError, match="rank-two"):
        holonomy(transport(check(msec, {})), BOTTOM_CYCLE, "fz0")


# -- serialization ------------------------------------------------------------


def test_round_trip():
    msec = full_branch()
    g = rand_coboundary(msec, random.Random(77))
    text = gluing_to_text(g)
    import json

    back = parse_gluing(json.loads(text))
    assert back == g
    assert gluing_to_text(back) == text


def test_parse_rejections():
    import json

    msec = full_branch()
    doc = json.loads(gluing_to_text(rand_coboundary(msec, random.Random(7))))
    bad = dict(doc)
    bad["extra"] = 1
    with pytest.raises(ValueError, match="unknown field"):
        parse_gluing(bad)
    with pytest.raises(ValueError, match="schema"):
        parse_gluing({"schema": "gluing/v2", "assignments": []})
    dup = {
        "schema": "gluing/v1",
        "assignments": [
            {"flag": ["a", "b"], "element": [{"vec": [1, 0], "q": "2/1"}]},
            {"flag": ["a", "b"], "element": [{"vec": [0, 1], "q": "3/1"}]},
        ],
    }
    with pytest.raises(ValueError, match="duplicate"):
        parse_gluing(dup)
    # trivial elements are dropped
    assert (
        parse_gluing(
            {
                "schema": "gluing/v1",
                "assignments": [{"flag": ["a", "b"], "element": []}],
            }
        )
        == {}
    )
