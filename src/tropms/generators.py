"""Worked examples: triangulated sphere bases and branched-cover sections.

Four deterministic generators:

  cube2        side-2 cube surface triangulated corner-to-center; its dual is
               a trivalent base with 48 vertices. The all-vertex double cover
               with weights (2, 1) has genus 23.
  cube-o1      same base, branch at 36 of the 48 vertices, weights (1, 0);
               the cover has genus 17.
  simplex5     boundary of the 3-simplex dilated by 5; the dual base has 100
               vertices and 24 singular markers. Branch presets of sizes 74
               and 58 give covers of genus 36 and 28, weights (2, 1).
  rank3-cube   cube2 base carrying rank-3 fans and a degree-3 totally
               ramified cover, its sheet shifts the mod-3 edge voltages of
               a 3-cycle at every vertex, with a fixed three-sheet slope table.

Branch presets were found once by a seeded parity search and are frozen below.
Every builder rechecks its invariants and raises RuntimeError when one fails;
the voltage solver ``edge_voltages`` raises ValueError on a system with no
solution, which no frozen base gives.
A base must be trivalent, with its frozen vertex and marker counts; it is
validated once, by what consumes it: ``build_double_cover``, or the final
``validate_multisection`` of ``rank3_multisection``. Every double cover is
built by ``_double_cover``: the 2-cells with a fully unbranched boundary must
be exactly the planted one (none for cube2, cube-o1 and simplex5),
``build_double_cover`` refuses a branch set that breaks condition E, and the
genus from the Euler characteristic, the Riemann-Hurwitz genus of the branch
count and the frozen genus must agree. ``generate_example`` writes a row of
``EXAMPLES``, the table of the examples ``tropms example`` writes.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from .complexes import (
    PolyhedralSurface,
    VertexFan,
    combinatorial_dual,
    complex_to_text,
    surface_from_cycles,
)
from .covers import (
    BranchedCover,
    MultiSection,
    _section_text,
    build_double_cover,
    edge_lift_id,
    edge_voltages,
    validate_multisection,
)
from .gluing import (
    TRIVIAL,
    GluingData,
    TorusElement,
    bar_complex,
    gluing_to_text,
    validate_gluing,
)
from .lattice import canonical_transverse
from .pipeline import Manifest, manifest_to_text

STANDARD_FAN_RAYS = ((1, 0), (0, 1), (-1, -1))
RANK3_FAN_RAYS = ((2, 1), (-1, 0), (-1, -1))

# per cone, the slopes of sheets 0, 1, 2
RANK3_SLOPE_TABLE = (
    ((0, -3), (-1, -1), (4, -3)),
    ((-1, -2), (-2, 0), (-2, 3)),
    ((0, 0), (-1, 3), (4, -2)),
)

CUBE_O1_UNBRANCHED = (
    "fx0.00b", "fx0.01a", "fx1.00b", "fx1.01a", "fx1.01b", "fx1.11a",
    "fy0.00a", "fy0.10b", "fy1.00a", "fy1.10b", "fz1.01b", "fz1.11a",
)

# leaves the boundary of the 2-cell "p001" entirely unbranched, and no other
PLANTED_UNBRANCHED = (
    "fx0.00a", "fx0.01a", "fx0.10b", "fx0.11b", "fy0.00b", "fy0.01a",
    "fy0.10b", "fy0.11a", "fz0.01a", "fz0.10b", "fz1.01a", "fz1.10b",
)
PLANTED_FACE = "p001"

# simplex5 analogue: only the triangular 2-cell "q0005" is fully unbranched
PLANTED_TRIANGLE_UNBRANCHED = (
    "f0.d012", "f0.d030", "f0.d111", "f0.d300", "f0.u004", "f0.u013",
    "f0.u130", "f0.u211", "f0.u400", "f1.d003", "f1.d012", "f1.d021",
    "f1.d102", "f1.d111", "f1.d120", "f1.u004", "f1.u022", "f1.u040",
    "f1.u103", "f2.u004", "f3.d012", "f3.d111", "f3.d300", "f3.u103",
    "f3.u211", "f3.u400",
)
PLANTED_TRIANGLE_FACE = "q0005"

SIMPLEX5_UNBRANCHED = {
    74: (
        "f0.d021", "f0.d102", "f0.d120", "f0.u013", "f0.u022", "f0.u040",
        "f0.u202", "f0.u220", "f1.d003", "f1.d021", "f1.d030", "f1.u004",
        "f1.u013", "f1.u022", "f2.d201", "f2.u031", "f2.u040", "f2.u130",
        "f2.u211", "f2.u220", "f2.u301", "f2.u310", "f2.u400", "f3.d003",
        "f3.d012", "f3.u022",
    ),
    58: (
        "f0.d012", "f0.d021", "f0.d030", "f0.d120", "f0.d210", "f0.u103",
        "f0.u130", "f0.u301", "f1.d012", "f1.d102", "f1.d111", "f1.d120",
        "f1.d201", "f1.u004", "f1.u013", "f1.u022", "f1.u040", "f1.u112",
        "f1.u130", "f1.u301", "f2.d030", "f2.d120", "f2.d201", "f2.d300",
        "f2.u013", "f2.u031", "f2.u040", "f2.u103", "f2.u130", "f2.u211",
        "f2.u301", "f2.u400", "f3.d021", "f3.d102", "f3.d300", "f3.u112",
        "f3.u130", "f3.u202", "f3.u211", "f3.u220", "f3.u301", "f3.u310",
    ),
}


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"example generator invariant failed: {what}")


def _dual_base(primal: PolyhedralSurface, rays, what: str, vertices: int, markers: int,
               quad_corner_first: bool = False) -> PolyhedralSurface:
    """The combinatorial dual of ``primal`` with one fan per vertex: the given
    rays assigned to outgoing edges in counterclockwise corner order,
    optionally starting the chain at the corner lying on a quadrilateral
    2-cell. Requires a trivalent surface with the given numbers of vertices
    and of marked 2-cells; what consumes it validates it. A dual vertex is a
    2-cell of ``primal``; at each cycle vertex its dual corner leaves along
    the edge the walk enters by and enters along the one it leaves by, and
    the corners chain in cycle order from the smallest outgoing edge."""
    fans = {}
    for f in primal.faces2:
        cyc = primal.boundary_cycle(f.id)
        walk = [primal.edge_between(v, w) for v, w in zip(cyc, (*cyc[1:], *cyc[:1]))]
        chain = [(v, walk[i - 1], walk[i]) for i, v in enumerate(cyc)]
        _require(len(chain) == 3, f"vertex {f.id} is not trivalent")
        p = min(range(3), key=lambda i: chain[i][1])
        if quad_corner_first:
            sizes = [len(primal.cofaces(v)) for v, _, _ in chain]
            _require(sizes.count(4) == 1, f"vertex {f.id} has {sizes.count(4)} quad corners")
            p = sizes.index(4)
        chain = chain[p:] + chain[:p]
        fan_rays = tuple((rays[i], out) for i, (_, out, _) in enumerate(chain))
        cones = tuple((v, (i, (i + 1) % 3)) for i, (v, _, _) in enumerate(chain))
        fans[f.id] = VertexFan(f.id, fan_rays, cones)
    base = combinatorial_dual(primal, fans)
    _require(len(base.vertices) == vertices, f"{what} base must have {vertices} vertices")
    marked = [c for c in base.cells.values() if c.singular_markers]
    _require(len(marked) == markers, f"{what} base must carry {markers} singular markers")
    return base


def euler_genus(cover: BranchedCover) -> int:
    """Genus of the total space from its cell counts."""
    if not cover.is_connected():
        raise ValueError("total space is disconnected")
    nv, ne, nf = cover.total_space_counts()
    chi = nv - ne + nf
    if chi % 2 != 0:
        raise ValueError(f"total space Euler characteristic {chi} is odd")
    return (2 - chi) // 2


def riemann_hurwitz_genus(n_branch: int) -> int:
    """Genus of a double cover of the sphere with simple branch points."""
    if n_branch < 2 or n_branch % 2 != 0:
        raise ValueError("branch count must be even and at least 2")
    return n_branch // 2 - 1


def _double_cover(base: PolyhedralSurface, unbranched, m: int, n: int, label: str,
                  genus: int, planted: str | None = None) -> MultiSection:
    """Double cover of ``base`` branched over every vertex but
    ``unbranched``, with weights (m, n). Requires that the 2-cells with a
    fully unbranched boundary are exactly ``planted`` (or none), and that the
    Euler-characteristic genus, the Riemann-Hurwitz genus and ``genus``
    agree."""
    branch = frozenset(v.id for v in base.vertices) - set(unbranched)
    full = [f.id for f in base.faces2 if branch.isdisjoint(base.boundary_cycle(f.id))]
    _require(full == ([] if planted is None else [planted]),
             f"{label} fully unbranched 2-cells {full}")
    msec = build_double_cover(base, branch, m, n, label=label)
    _require(
        euler_genus(msec.cover) == riemann_hurwitz_genus(len(branch)) == genus,
        f"{label} cover genus",
    )
    return msec


# -- cube2 --------------------------------------------------------------------

_CUBE_FACES = {
    "fz1": ((0, 0, 2), (2, 0, 2), (2, 2, 2), (0, 2, 2)),
    "fz0": ((0, 0, 0), (0, 2, 0), (2, 2, 0), (2, 0, 0)),
    "fx1": ((2, 0, 0), (2, 2, 0), (2, 2, 2), (2, 0, 2)),
    "fx0": ((0, 0, 0), (0, 0, 2), (0, 2, 2), (0, 2, 0)),
    "fy1": ((0, 2, 0), (0, 2, 2), (2, 2, 2), (2, 2, 0)),
    "fy0": ((0, 0, 0), (2, 0, 0), (2, 0, 2), (0, 0, 2)),
}


def _cube2_triangles() -> dict[str, tuple[str, ...]]:
    """Subdivide each cube face into a 2x2 grid of squares and each square
    into two triangles along its cube-corner-to-face-center diagonal."""

    def pid(c):
        return f"p{c[0]}{c[1]}{c[2]}"

    tris = {}
    for fid, (a0, b0, c0, d0) in _CUBE_FACES.items():

        def grid(st, tt):
            return tuple(
                a0[k] + (b0[k] - a0[k]) * st // 2 + (d0[k] - a0[k]) * tt // 2
                for k in range(3)
            )

        for a in (0, 1):
            for b in (0, 1):
                sq = (grid(a, b), grid(a + 1, b), grid(a + 1, b + 1), grid(a, b + 1))
                corner_pos = [(0, 0), (1, 0), (1, 1), (0, 1)].index((a, b))
                q = [sq[(corner_pos + i) % 4] for i in range(4)]
                tris[f"{fid}.{a}{b}a"] = (pid(q[0]), pid(q[1]), pid(q[2]))
                tris[f"{fid}.{a}{b}b"] = (pid(q[0]), pid(q[2]), pid(q[3]))
    return tris


def _cube_dual(rays, what: str, quad_corner_first: bool = False) -> PolyhedralSurface:
    """Dual of the triangulated side-2 cube, the eight 2-cells dual to cube
    corners carrying a cone-point marker each, with the given fans."""
    tris = _cube2_triangles()
    corners = {v: ("cone-point",) for cyc in tris.values() for v in cyc
               if set(v[1:]) <= {"0", "2"}}
    return _dual_base(surface_from_cycles(tris, markers=corners), rays, what, 48, 8,
                      quad_corner_first)


def cube2_base() -> PolyhedralSurface:
    """Dual of the triangulated side-2 cube: 48 trivalent vertices, 72 edges,
    26 two-cells, standard fans everywhere. The eight 2-cells dual to cube
    corners carry a cone-point marker each."""
    return _cube_dual(STANDARD_FAN_RAYS, "cube2")


def cube2_multisection() -> MultiSection:
    """Double cover branched over all 48 base vertices, weights (2, 1)."""
    return _double_cover(cube2_base(), (), 2, 1, "cube2", 23)


def cube_o1_multisection() -> MultiSection:
    """Double cover branched over 36 of the 48 base vertices, weights (1, 0);
    no 2-cell has a fully unbranched boundary."""
    return _double_cover(cube2_base(), CUBE_O1_UNBRANCHED, 1, 0, "cube-o1", 17)


def planted_multisection() -> MultiSection:
    """Like cube-o1 but with the boundary of one 2-cell kept entirely
    unbranched, defeating simplicity there; weights (2, 1)."""
    return _double_cover(cube2_base(), PLANTED_UNBRANCHED, 2, 1, "planted", 17, PLANTED_FACE)


# -- simplex5 -----------------------------------------------------------------


def _simplex5_triangles() -> dict[str, tuple[str, ...]]:
    """Standard triangulation of each of the four facets of the dilated
    3-simplex, consistently oriented: facet zi enters the boundary of the
    simplex with sign (-1)^zi, so the triangles of the odd facets are
    listed reversed."""

    def qid(c):
        return "q" + "".join(str(x) for x in c)

    tris = {}
    for zi in range(4):
        rest = [j for j in range(4) if j != zi]
        step = (-1) ** zi

        def pt(x, y, z):
            c = [0, 0, 0, 0]
            c[rest[0]], c[rest[1]], c[rest[2]] = x, y, z
            return qid(c)

        for x in range(5):
            for y in range(5 - x):
                z = 4 - x - y
                tris[f"f{zi}.u{x}{y}{z}"] = (
                    pt(x + 1, y, z), pt(x, y + 1, z), pt(x, y, z + 1),
                )[::step]
        for x in range(4):
            for y in range(4 - x):
                z = 3 - x - y
                tris[f"f{zi}.d{x}{y}{z}"] = (
                    pt(x, y + 1, z + 1), pt(x + 1, y, z + 1), pt(x + 1, y + 1, z),
                )[::step]
    return tris


def simplex5_base() -> PolyhedralSurface:
    """Dual of the triangulated simplex boundary: 100 trivalent vertices, 150
    edges, 52 two-cells, standard fans everywhere. The 24 two-cells dual to
    points interior to simplex edges carry a focus-focus marker each."""
    tris = _simplex5_triangles()
    on_edges = {v: ("focus-focus",) for cyc in tris.values() for v in cyc if v.count("0") == 2}
    return _dual_base(surface_from_cycles(tris, markers=on_edges), STANDARD_FAN_RAYS,
                      "simplex5", 100, 24)


def simplex5_multisection(branch_count: int = 74) -> MultiSection:
    """Double cover of the simplex5 base with 74 or 58 branch vertices,
    weights (2, 1); genus 36 or 28."""
    if branch_count not in SIMPLEX5_UNBRANCHED:
        raise ValueError(
            f"branch_count must be one of {sorted(SIMPLEX5_UNBRANCHED)}, "
            f"got {branch_count}"
        )
    return _double_cover(
        simplex5_base(), SIMPLEX5_UNBRANCHED[branch_count], 2, 1,
        f"simplex5-{branch_count}", {74: 36, 58: 28}[branch_count],
    )


def planted_triangle_multisection() -> MultiSection:
    """Simplex5 cover with the triangular 2-cell at one simplex corner kept
    entirely unbranched; weights (2, 1), 74 branch vertices, genus 36."""
    base = simplex5_base()
    _require(
        len(base.cells[PLANTED_TRIANGLE_FACE].faces) == 3,
        "the planted 2-cell must be a triangle",
    )
    return _double_cover(base, PLANTED_TRIANGLE_UNBRANCHED, 2, 1, "planted-triangle", 36,
                         PLANTED_TRIANGLE_FACE)


# -- rank3-cube ---------------------------------------------------------------


def rank3_base() -> PolyhedralSurface:
    """The cube2 base with rank-3 fans: rays (2,1), (-1,0), (-1,-1) assigned
    in corner order starting at each vertex's quadrilateral corner."""
    return _cube_dual(RANK3_FAN_RAYS, "rank3-cube", quad_corner_first=True)


def rank3_multisection() -> MultiSection:
    """Degree-3 cover of the rank3 base, totally ramified over every vertex,
    with the fixed slope table applied per cone and sheet."""
    base = rank3_base()
    x = base._index
    voltages = edge_voltages(x, [1] * len(x.ids[0]), 3)[0]  # a 3-cycle around every vertex
    matchings = {e: tuple((s + g) % 3 for s in range(3)) for e, g in zip(x.ids[1], voltages)}
    branch = frozenset(v.id for v in base.vertices)
    ram = {v: ((0, 1, 2),) for v in branch}
    cover = BranchedCover(base, 3, matchings, branch, ram)
    _require(euler_genus(cover) == 46, "rank3-cube cover genus")
    slopes = {}
    for v in base.vertices:
        lid = f"{v.id}#0"
        fan = base.fans[v.id]
        for fid, (i, _) in fan.cones:
            for sheet in range(3):
                slopes[(lid, fid, sheet)] = RANK3_SLOPE_TABLE[i][sheet]
    msec = MultiSection(cover, slopes, label="rank3-cube")
    _require(not validate_multisection(msec), "rank3-cube ramification, connectivity, slopes")
    return msec


# -- gluing data for the worked examples --------------------------------------


def vertex_edge_flags(msec: MultiSection) -> dict[tuple[str, str], int]:
    """All (vertex lift, edge lift) inclusion flags, each mapped to the
    corner that carries it: the corner whose incoming edge is the flag's."""
    cover = msec.cover
    x, cx, r = cover.base._index, cover._index, cover.degree
    return {
        (cx.ids[cx.lift_of[c * r + cx.sheets[c][1][lift]]], edge_lift_id(x.ids[1][e], lift)): c
        for e, walls in enumerate(x.walls) for c in walls for lift in range(r)
    }


def coboundary_gluing(
    msec: MultiSection,
    lam_vertex: dict[str, TorusElement],
    lam_edge: dict[str, Fraction],
) -> GluingData:
    """Gluing data of the form (vertex potential) / (edge potential) on every
    vertex-into-edge flag. Such data always has trivial obstruction. An edge
    potential's chart representative is its scalar against the canonical
    generator of the edge quotient at the smaller endpoint, the inverse at the
    other."""
    x, out = msec.cover.base._index, {}
    flags = vertex_edge_flags(msec)
    for vlift, elift in sorted(f for f in flags if f[0] in lam_vertex or f[1] in lam_edge):
        elem = lam_vertex.get(vlift, TRIVIAL)
        coeff = Fraction(lam_edge.get(elift, 1))
        if coeff != 1:
            c = flags[vlift, elift]
            e = x.corners[c][2]  # the flag's vertex is the end of e whose wall c is
            chart = coeff if x.ends[e][x.walls[e].index(c)] == min(x.ends[e]) else 1 / coeff
            ray = msec.cover.cone(c)[1]
            elem = elem * TorusElement.single(canonical_transverse(ray), 1 / chart)
        if not elem.is_trivial:
            out[(vlift, elift)] = elem
    return out


def seeded_coboundary_gluing(msec: MultiSection, seed: int = 0) -> GluingData:
    """Deterministic nontrivial-looking gluing data with trivial obstruction:
    the coboundary of seeded vertex and edge potentials."""
    rng = random.Random(seed)
    cover = msec.cover
    vertex_lifts = sorted(cover._index.ids)
    lam_vertex = {}
    for lid in vertex_lifts[:: max(1, len(vertex_lifts) // 6)]:
        vec = (rng.randint(-2, 2), rng.randint(-2, 2))
        scalar = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        lam_vertex[lid] = TorusElement.single(vec, scalar)
    lam_edge = {}
    for e in sorted(e.id for e in cover.base.edges)[::17]:
        for lift in range(cover.degree):
            lam_edge[f"{e}~{lift}"] = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    g = coboundary_gluing(msec, lam_vertex, lam_edge)
    _require(not validate_gluing(msec, g, bar_complex(msec)), "seeded gluing validation")
    return g


#: The examples ``tropms example`` writes: name -> (builder, manifest
#: assertions).
EXAMPLES = {
    "simplex5": (simplex5_multisection, {"regular": True}),
    "cube2": (cube2_multisection, {"regular": True}),
    "cube-o1": (cube_o1_multisection, {"regular": True, "positive": True, "simple": True,
                                       "elementary": True, "open-gluing-induced": True}),
    "rank3-cube": (rank3_multisection, {"regular": True, "assumption-1.4": True}),
}


def generate_example(name: str, outdir: str = ".") -> Manifest:
    """Write one worked example (complex, section, gluing data for the rank-2
    covers, manifest) into ``outdir`` and return its manifest."""
    if name not in EXAMPLES:
        raise ValueError(f"unknown example {name!r}; pick one of {tuple(EXAMPLES)}")
    build, assertions = EXAMPLES[name]
    msec = build()
    os.makedirs(outdir, exist_ok=True)

    complex_path = f"{name}.complex.json"
    section_path = f"{name}.section.json"
    complex_text = complex_to_text(msec.cover.base)
    with open(os.path.join(outdir, complex_path), "w", encoding="utf-8") as fh:
        fh.write(complex_text)
    with open(os.path.join(outdir, section_path), "w", encoding="utf-8") as fh:
        fh.write(_section_text(msec, complex_text))

    gluing_path = None
    if msec.cover.degree == 2:
        gluing_path = f"{name}.gluing.json"
        g = seeded_coboundary_gluing(msec, seed=0)
        with open(os.path.join(outdir, gluing_path), "w", encoding="utf-8") as fh:
            fh.write(gluing_to_text(g))

    manifest = Manifest(complex_path, section_path, gluing_path, dict(assertions), root=outdir)
    with open(os.path.join(outdir, f"{name}.manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest_to_text(manifest))
    return manifest
