"""The numbered surface and cover against a recomputation from the
definition on string ids, a renaming that keeps the order of ids, the
contract that validation reads fans on every run while a cover reads them
once, the read-only surface, cover and section, the readers of a fan at
a vertex without one or with its rays listed from another ray, and how many
surfaces and covers the benchmark's set-up, an example base and a verdict
number."""

import json
import os
from fractions import Fraction

import pytest
from conftest import run_cli, tetrahedron
from test_perfbench_names import inputs

from tropms import complexes, covers, generators
from tropms.bundle import check
from tropms.certificate import endomorphism_witness, transport
from tropms.complexes import (
    PolyhedralSurface,
    VertexFan,
    complex_to_text,
    parse_complex,
    validate_surface,
)
from tropms.covers import (
    BranchedCover,
    MultiSection,
    classify,
    multisection_to_text,
    parse_multisection,
    validate_cover,
    validate_multisection,
)
from tropms.generators import (
    coboundary_gluing,
    cube2_multisection,
    generate_example,
    vertex_edge_flags,
)
from tropms.gluing import (
    TorusElement,
    bar_complex,
    gluing_to_text,
    obstruction_class,
    triple_cocycle,
)
from tropms.graphs import (
    build_fiber_product,
    general_simplicity,
    is_simple_rank2,
)
from tropms.pipeline import (
    EXIT_INVALID,
    load_manifest,
    report_to_text,
    run_pipeline,
)

SECTIONS = {
    **{name: build for name, (build, _) in generators.EXAMPLES.items()},
    "planted": generators.planted_multisection,
    "planted-triangle": generators.planted_triangle_multisection,
}


def recomputed(msec):
    """From the definition, on string ids: each vertex's lift ids and
    ramification, the connectivity and cell counts of the total space, the
    nodes, chains and inclusions of its order complex, each cell of the
    self fiber product as pair id -> (dimension, base cell, sorted face ids,
    diagonal), and the cone of each corner, vertex by vertex in id order, as
    the fan's rays on its outgoing and incoming edge, None without a fan.

    The corners around a vertex are read off the boundary cycles and chained
    ccw from the smallest outgoing edge; a vertex lift is an orbit of (corner
    position, sheet) under crossing the wall after each corner, where an
    edge lift meets the sheets of its first coface by the identity. A pair
    of lifts over one base cell has as faces the pairs of their faces, read
    off the chains, over one base face."""
    cover = msec.cover
    base, r = cover.base, cover.degree
    edge_of = {frozenset(c.faces): c.id for c in base.edges}
    cofaces = {e.id: sorted(f.id for f in base.faces2 if e.id in f.faces) for e in base.edges}

    def sheet(e, f, lift):
        return lift if f == cofaces[e][0] else cover.edge_matchings[e][lift]

    def lift_of(e, f, s):
        return next(x for x in range(r) if sheet(e, f, x) == s)

    around = {}
    for f, cyc in base.orientation.items():
        for i, v in enumerate(cyc):
            out = edge_of[frozenset((v, cyc[(i + 1) % len(cyc)]))]
            around.setdefault(v, {})[out] = (f, edge_of[frozenset((cyc[i - 1], v))])
    lifts, ramification, chains, base_of, cones = {}, {}, set(), {}, []
    for v, by_out in sorted(around.items()):
        walls = [min(by_out)]
        while by_out[walls[-1]][1] != walls[0]:
            walls.append(by_out[walls[-1]][1])
        corners = [(by_out[e][0], e, by_out[e][1]) for e in walls]
        ray = {e: vec for vec, e in base.fans[v].rays} if v in base.fans else None
        cones += [ray and (ray[out], ray[inn]) for _, out, inn in corners]
        k, seen = len(corners), set()
        lifts[v], blocks = [], []
        for s0 in range(r):
            node, orbit = (0, s0), []
            while node not in seen:
                seen.add(node)
                orbit.append(node)
                i, s = node
                f, _, wall = corners[i]
                node = ((i + 1) % k, sheet(wall, corners[(i + 1) % k][0], lift_of(wall, f, s)))
            if orbit:
                lifts[v].append(f"{v}#{s0}")
                blocks.append(tuple(sorted(s for i, s in orbit if i == 0)))
                base_of[lifts[v][-1]] = v
                for i, s in orbit:
                    f, out, inn = corners[i]
                    base_of[f"{f}~{s}"] = f
                    for e in (out, inn):
                        base_of[f"{e}~{lift_of(e, f, s)}"] = e
                        chains.add((lifts[v][-1], f"{e}~{lift_of(e, f, s)}", f"{f}~{s}"))
        ramification[v] = tuple(sorted(blocks))

    component = {(f.id, s): {(f.id, s)} for f in base.faces2 for s in range(r)}
    for e, (a, b) in cofaces.items():
        for lift in range(r):
            x, y = component[a, sheet(e, a, lift)], component[b, sheet(e, b, lift)]
            if x is not y:
                x |= y
                for member in y:
                    component[member] = x
    connected = len({id(c) for c in component.values()}) == 1
    counts = (sum(map(len, lifts.values())), len(base.edges) * r, len(base.faces2) * r)
    nodes = sorted({x for chain in chains for x in chain})
    inclusions = {pair for v, e, f in chains for pair in ((v, e), (e, f), (v, f))}

    faces_of, over = {}, {}
    for v, e, f in chains:
        faces_of.setdefault(e, set()).add(v)
        faces_of.setdefault(f, set()).add(e)
    for lift, cell in base_of.items():
        over.setdefault(cell, []).append(lift)
    pairs = {}
    for cell, over_cell in over.items():
        for a in over_cell:
            for b in over_cell:
                faces = sorted(f"{fa}|{fb}" for fa in faces_of.get(a, ())
                               for fb in faces_of.get(b, ()) if base_of[fa] == base_of[fb])
                pairs[f"{a}|{b}"] = (base.cells[cell].dim, cell, faces, a == b)
    return lifts, ramification, connected, counts, nodes, chains, inclusions, pairs, cones


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_numbering_matches_a_walk_from_the_definition(name):
    msec = SECTIONS[name]()
    cover = msec.cover
    (lifts, ramification, connected, counts, nodes, chains, inclusions, pairs,
     cones) = recomputed(msec)
    computed = {v.id: [lid for lid, _ in cover.computed_lifts(v.id)] for v in cover.base.vertices}
    assert computed == lifts
    assert {v.id: tuple(block for _, block in cover.computed_lifts(v.id))
            for v in cover.base.vertices} == ramification
    assert cover.is_connected() is connected is True
    assert cover.total_space_counts() == counts
    bar = bar_complex(msec)
    assert list(bar.nodes) == nodes
    assert {tuple(bar.nodes[n] for n in chain) for chain in bar.chains} == chains
    assert len(bar.chains) == len(bar.triangles) == len(chains)
    assert {tuple(bar.nodes[n] for n in edge) for edge in bar.edges} == inclusions
    assert len(bar.edges) == len(inclusions)
    fp = build_fiber_product(msec)
    names = cover.base._index.ids
    assert len(fp.cells) == len(pairs)
    assert {fp.id(k): (c.dim, names[c.dim][c.base], sorted(map(fp.id, c.faces)), c.diagonal)
            for k, c in enumerate(fp.cells)} == pairs
    assert list(cover._index.rays) == cones and None not in cones


def test_a_vertex_without_a_fan_has_no_cones():
    msec = cube2_multisection()
    fans = dict(msec.cover.base.fans)
    v = min(fans)
    del fans[v]
    fanless = _refanned(msec, fans)
    cones = recomputed(fanless)[-1]
    assert list(fanless.cover._index.rays) == cones
    x = fanless.cover.base._index
    n = x.number[0][v]
    corners = range(x.first[n], x.first[n + 1])
    assert [c for c, cone in enumerate(cones) if cone is None] == list(corners)


ID_FIELDS = {"id", "faces", "vertex", "edge", "face2", "cycle", "vertex_lift", "branch", "flag"}


def _prefixed(doc, field=None):
    """A document with every cell and lift id prefixed by "Z", which keeps
    the order of the ids."""
    if isinstance(doc, dict):
        return {key: _prefixed(value, key) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_prefixed(value, field) for value in doc]
    return "Z" + doc if isinstance(doc, str) and field in ID_FIELDS else doc


def _report(manifest) -> str:
    doc = json.loads(report_to_text(run_pipeline(manifest)))
    for check in doc["checks"]:
        check["seconds"] = 0
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(generators.EXAMPLES))
def test_order_preserving_renaming_keeps_the_report(tmp_path, name):
    manifest = generate_example(name, str(tmp_path / "plain"))
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    for file in os.listdir(manifest.root):
        with open(os.path.join(manifest.root, file), encoding="utf-8") as fh:
            doc = json.load(fh)
        if not file.endswith(".manifest.json"):
            doc = _prefixed(doc)
        (renamed / file).write_text(json.dumps(doc), encoding="utf-8")
    plain = _report(manifest)
    assert "Z" not in plain
    assert _report(load_manifest(str(renamed / f"{name}.manifest.json"))).replace("Z", "") == plain


def test_fans_and_markers_are_read_after_numbering():
    """The surface index holds topology only: a fan assigned after the first
    corner query is what later validation reads, while a cell, and so its
    markers, cannot be replaced once the surface is built."""
    s = tetrahedron()  # its fans were assigned from the corners, so it is numbered
    assert validate_surface(s) == ()
    good = s.fans["A"]
    s.fans["A"] = VertexFan("A", tuple(((2, 0), e) for _, e in good.rays), good.cones)
    assert [d.code for d in validate_surface(s)] == ["fan-not-complete"]
    cover = BranchedCover(s, 1, {e.id: (0,) for e in s.edges}, frozenset())
    assert [d.code for d in validate_cover(cover)] == ["fan-not-complete"]
    s.fans["A"] = good
    assert validate_cover(cover) == ()
    with pytest.raises(TypeError):
        s.cells["fABC"] = s.cells["fABC"]._replace(singular_markers=("cone-point",))
    assert s.cells["fABC"].singular_markers == ()
    assert validate_surface(s) == ()


@pytest.mark.parametrize("source", ["parsed", "generated"])
def test_surface_cover_and_section_are_read_only(source):
    """No attribute of a surface, cover or section can be assigned or
    deleted, and the mappings they hold take no item assignment."""
    msec = cube2_multisection()
    surface = msec.cover.base
    if source == "parsed":
        surface = parse_complex(json.loads(complex_to_text(surface)))
        msec = parse_multisection(json.loads(multisection_to_text(msec)))
    validate_multisection(msec)  # the indexes are in the instance dicts too
    cells = ("cells", "orientation")
    for obj, mappings in ((surface, cells), (msec.cover.base, cells),
                          (msec.cover, ("edge_matchings", "ramification", "lifts")),
                          (msec, ("slopes",))):
        for name in [*vars(obj), "added"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        for name in mappings:
            table = getattr(obj, name)
            if table is None:  # a cover built with no declared lifts
                assert (source, name) == ("generated", "lifts")
                continue
            key = next(iter(table))
            with pytest.raises(TypeError):
                table[key] = table[key]


def test_section_validation_reads_a_fan_replaced_after_numbering():
    msec = cube2_multisection()
    assert validate_multisection(msec) == ()
    base = msec.cover.base
    v = base.vertices[0].id
    fan = base.fans.pop(v)
    assert validate_multisection(msec) == ()  # a vertex may carry no fan
    rolled = fan.cones[1:] + fan.cones[:1]  # each 2-cell gets the next one's rays
    base.fans[v] = fan._replace(cones=tuple((f, p) for (f, _), (_, p) in zip(rolled, fan.cones)))
    assert "fan-cone-mismatch" in [d.code for d in validate_multisection(msec)]


def test_a_fanless_vertex_is_refused_where_its_rays_are_read(tmp_path):
    """rank3-cube passes validation without the fan of fx0.00a, whose lift
    has rank three and no kinks; a gluing element or an edge potential
    there needs the fan, and both are refused by name."""
    msec = generators.rank3_multisection()
    msec.cover.base.fans.pop("fx0.00a")
    text = multisection_to_text(msec)
    fresh = parse_multisection(json.loads(text))  # a cover built without the fan
    flag = min(f for f in vertex_edge_flags(fresh) if f[0] == "fx0.00a#0")
    args = ["obstruction"]
    for kind, body in (("complex", complex_to_text(msec.cover.base)), ("section", text),
                       ("gluing", gluing_to_text({flag: TorusElement.single((1, 0), 2)}))):
        path = tmp_path / f"fanless.{kind}.json"
        path.write_text(body, encoding="utf-8")
        args += [f"--{kind}", path]
    res = run_cli(args)
    assert (res.exit_code, res.stderr) == (EXIT_INVALID, "error: vertex fx0.00a has no fan\n")
    with pytest.raises(ValueError, match="^vertex fx0.00a has no fan$"):
        coboundary_gluing(fresh, {}, {flag[1]: Fraction(2)})


def _refanned(msec, fans):
    """The section on a fresh cover over a copy of its base with ``fans``."""
    base, cover = msec.cover.base, msec.cover
    copy = PolyhedralSurface(base.cells, fans, base.orientation, base.asserted)
    assert validate_surface(copy) == ()
    return MultiSection(BranchedCover(copy, cover.degree, cover.edge_matchings,
                                      cover.branch_vertices, cover.ramification, cover.lifts),
                        msec.slopes, msec.label)


def _rotated(msec, k: int):
    """The section on a fresh cover whose fans list their rays from the
    k-th on, with the cone indices remapped to match."""
    fans = {}
    for vid, fan in msec.cover.base.fans.items():
        n = len(fan.rays)
        fans[vid] = fan._replace(rays=fan.rays[k:] + fan.rays[:k], cones=tuple(
            (f, ((i - k) % n, (j - k) % n)) for f, (i, j) in fan.cones))
    return _refanned(msec, fans)


def _fan_readings(name, msec):
    if name == "planted":
        verdict = is_simple_rank2(msec, classify(msec))
        t = transport(check(msec, {}))
        return verdict, [endomorphism_witness(t, cycle) for cycle in verdict.witnesses]
    if name == "rank3-cube":
        tag = classify(msec)
        return tag, general_simplicity(msec, tag, local_bundles_asserted=True)
    g = generators.seeded_coboundary_gluing(msec, 3)
    bar = bar_complex(msec)
    return g, obstruction_class(triple_cocycle(msec, g, bar), bar)


@pytest.mark.parametrize("name, build", [
    ("planted", generators.planted_multisection),
    ("rank3-cube", generators.rank3_multisection),
    ("cube-o1", generators.cube_o1_multisection),
])
def test_verdicts_do_not_depend_on_where_a_fan_starts_its_rays(name, build):
    msec = build()
    plain = _fan_readings(name, msec)
    for k in (1, 2):
        assert _fan_readings(name, _rotated(msec, k)) == plain


@pytest.fixture
def numberings(monkeypatch):
    """How many surfaces and covers are numbered, counted from when the test
    last cleared the counts."""
    counts = {"surface": 0, "cover": 0}
    number_surface, number_cover = complexes._number_surface, covers._number_cover

    def surface(*args):
        counts["surface"] += 1
        return number_surface(*args)

    def cover(*args):
        counts["cover"] += 1
        return number_cover(*args)

    monkeypatch.setattr(complexes, "_number_surface", surface)
    monkeypatch.setattr(covers, "_number_cover", cover)
    return counts


def test_the_benchmark_session_set_up_numbers_two_surfaces_per_base(tmp_path, numberings):
    """Seven sphere bases, each numbered as the primal and as its dual."""
    inputs.build_cli_session(str(tmp_path), 1)
    assert numberings["surface"] == 14


@pytest.mark.parametrize("build", [generators.cube2_base, generators.simplex5_base,
                                   generators.rank3_base])
def test_an_example_base_is_numbered_as_primal_and_dual(numberings, build):
    build()
    assert numberings["surface"] == 2


@pytest.mark.parametrize("family, n", [("torus2", 8), ("torus3", 9)])
def test_a_verdict_numbers_one_surface_and_one_cover(tmp_path, numberings, family, n):
    builder = inputs.build_torus2 if family == "torus2" else inputs.build_torus3
    manifest = builder(str(tmp_path), n, 1).covers[0][1]["manifest"]
    numberings.update(surface=0, cover=0)
    assert run_cli(["validate", "--manifest", manifest]).exit_code == 0
    assert numberings == {"surface": 1, "cover": 1}


def test_validation_numbers_nothing(numberings, monkeypatch):
    """Validation reads what a surface, a cover and a section recorded when
    they were built: it numbers nothing and computes no kink."""
    base = generators.cube2_base()
    numberings.update(surface=0)
    assert validate_surface(base) == ()
    assert numberings["surface"] == 0
    msec = cube2_multisection()
    kinks = []
    monkeypatch.setattr(covers, "_kink", lambda *args: kinks.append(args))
    numberings.update(surface=0, cover=0)
    assert validate_cover(msec.cover) == validate_multisection(msec) == ()
    assert numberings == {"surface": 0, "cover": 0} and kinks == []
