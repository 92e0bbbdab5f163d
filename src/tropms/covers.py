"""Branched covers of polyhedral surfaces and their multi-sections.

A cover of degree r is combinatorial: every 2-cell has sheets 0..r-1, every
edge has r lifts matched to the sheets of its two cofaces (the match to the
lexicographically first coface is the identity), and vertex lifts arise as
orbits of the induced monodromy around each vertex. Branching is confined to
vertices. A multi-section adds one integral slope covector per 2-cell lift
around each vertex lift, continuous across walls at lifts of rank at most two.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .complexes import (
    Diagnostic,
    PolyhedralSurface,
    ValidationReport,
    check_standard_vertex,
    complex_to_json,
    parse_complex,
    parses,
    validate_surface,
)
from .lattice import Vec, dot, rot90

SlopeKey = tuple[str, str, int]  # (vertex lift id, 2-cell id, sheet)

Partition = tuple[tuple[int, ...], ...]


def _canon_partition(blocks) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


class _VertexLifts(NamedTuple):
    corners: list[tuple[str, str, str]]
    cycles: list[list[tuple[int, int]]]
    ids: list[str]
    lift_at: dict[tuple[int, int], str]  # (corner position, sheet) -> lift id


@dataclass
class BranchedCover:
    """A degree-r cover of a base surface, given by its edge matchings.

    ``base``, ``degree`` and ``edge_matchings`` must not change after the
    first query: corners and vertex lifts are read from an index built once.
    """

    base: PolyhedralSurface
    degree: int
    edge_matchings: dict[str, tuple[int, ...]]
    branch_vertices: frozenset[str]
    ramification: dict[str, Partition] = field(default_factory=dict)

    def edge_sides(self, eid: str) -> tuple[str, str]:
        sides = self.base.cofaces(eid)
        if len(sides) != 2:
            raise ValueError(f"edge {eid} has {len(sides)} cofaces")
        return sides[0], sides[1]

    def matching(self, eid: str, fid: str) -> tuple[int, ...]:
        """Bijection from edge lifts to the sheets of one coface."""
        a, b = self.edge_sides(eid)
        if fid == a:
            return tuple(range(self.degree))
        if fid == b:
            return self.edge_matchings[eid]
        raise ValueError(f"2-cell {fid} is not a coface of edge {eid}")

    @functools.cached_property
    def _index(self) -> dict[str, _VertexLifts]:
        out = {}
        for v in self.base.vertices:
            corners = self.base.corners(v.id)
            k = len(corners)

            def step(node):
                i, s = node
                f_here, _, wall = corners[i]
                f_next = corners[(i + 1) % k][0]
                lift = self.matching(wall, f_here).index(s)
                return ((i + 1) % k, self.matching(wall, f_next)[lift])

            seen = set()
            cycles = []
            for s0 in range(self.degree):
                if (0, s0) in seen:
                    continue
                cyc = []
                node = (0, s0)
                while node not in seen:
                    seen.add(node)
                    cyc.append(node)
                    node = step(node)
                if node != cyc[0]:
                    raise RuntimeError("wall transitions are not bijective")
                cycles.append(cyc)
            cycles.sort(key=lambda c: min(s for i, s in c if i == 0))
            ids = [f"{v.id}#{min(s for i, s in cyc if i == 0)}" for cyc in cycles]
            lift_at = {node: lid for lid, cyc in zip(ids, cycles) for node in cyc}
            out[v.id] = _VertexLifts(corners, cycles, ids, lift_at)
        return out

    def wall_sequence(self, v: str) -> list[tuple[str, str, str]]:
        """Corner chain around a vertex: (2-cell, outgoing edge, incoming edge)."""
        return self._index[v].corners

    def lift_cycles(self, v: str) -> list[list[tuple[int, int]]]:
        """Orbits of (corner position, sheet) under crossing walls ccw.

        Each orbit is one vertex lift, listed from its smallest position-0
        sheet; orbits are ordered by that sheet.
        """
        return self._index[v].cycles

    def vertex_lift_ids(self, v: str) -> list[str]:
        return list(self._index[v].ids)

    def lift_cycle_of(self, v: str, lift_id: str) -> list[tuple[int, int]]:
        at = self._index[v]
        if lift_id not in at.ids:
            raise KeyError(f"no lift {lift_id} at vertex {v}")
        return at.cycles[at.ids.index(lift_id)]

    def computed_ramification(self, v: str) -> Partition:
        return _canon_partition(
            [s for i, s in cyc if i == 0] for cyc in self.lift_cycles(v)
        )

    def vertex_lift_at_edge(self, v: str, eid: str, edge_lift: int) -> str:
        """Vertex lift to which one edge lift attaches at an endpoint."""
        at = self._index[v]
        for i, (f, _, inn) in enumerate(at.corners):
            if inn == eid:
                return at.lift_at[(i, self.matching(eid, f)[edge_lift])]
        raise KeyError(f"edge {eid} is not incident to vertex {v}")

    def vertex_lift_at_face(self, v: str, fid: str, sheet: int) -> str:
        """Vertex lift sitting under one sheet of a 2-cell at a corner."""
        at = self._index[v]
        for i, (f, _, _) in enumerate(at.corners):
            if f == fid and (i, sheet) in at.lift_at:
                return at.lift_at[(i, sheet)]
        raise KeyError(f"2-cell {fid} has no corner at vertex {v}")

    def total_space_counts(self) -> tuple[int, int, int]:
        nv = sum(len(self.lift_cycles(v.id)) for v in self.base.vertices)
        ne = len(self.base.edges) * self.degree
        nf = len(self.base.faces2) * self.degree
        return nv, ne, nf

    def is_connected(self) -> bool:
        parent: dict[tuple[str, int], tuple[str, int]] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for f in self.base.faces2:
            for s in range(self.degree):
                parent[(f.id, s)] = (f.id, s)
        for e in self.base.edges:
            a, b = self.edge_sides(e.id)
            ma, mb = self.matching(e.id, a), self.matching(e.id, b)
            for lift in range(self.degree):
                ra, rb = find((a, ma[lift])), find((b, mb[lift]))
                if ra != rb:
                    parent[ra] = rb
        roots = {find(x) for x in parent}
        return len(roots) == 1


@dataclass
class MultiSection:
    cover: BranchedCover
    slopes: dict[SlopeKey, Vec]
    label: str = ""

    def slope(self, lift_id: str, fid: str, sheet: int) -> Vec:
        return self.slopes[(lift_id, fid, sheet)]


def validate_cover(cover: BranchedCover) -> ValidationReport:
    """Base validity, matching shape, and declared-versus-computed branching."""
    base_rep = validate_surface(cover.base)
    diags = list(base_rep.diagnostics)

    def bad(code, msg):
        diags.append(Diagnostic(code, msg))

    if cover.degree < 1:
        bad("cover-degree", f"degree {cover.degree} is not positive")
        return ValidationReport(tuple(diags), base_rep.euler_characteristic)
    edge_ids = {e.id for e in cover.base.edges}
    if set(cover.edge_matchings) != edge_ids:
        bad(
            "edge-matching",
            "matchings must cover exactly the edges of the base",
        )
    else:
        for eid in sorted(edge_ids):
            perm = cover.edge_matchings[eid]
            if sorted(perm) != list(range(cover.degree)):
                bad("edge-matching", f"edge {eid}: {perm} is not a permutation")
    for v in sorted(cover.branch_vertices):
        if v not in cover.base.cells or cover.base.cells[v].dim != 0:
            bad("branch-not-vertex", f"branch point {v} is not a vertex")
    if any(d.code in ("edge-matching", "branch-not-vertex") for d in diags) or not base_rep.ok:
        return ValidationReport(tuple(diags), base_rep.euler_characteristic)

    trivial = _canon_partition([(s,) for s in range(cover.degree)])
    for v in cover.base.vertices:
        computed = cover.computed_ramification(v.id)
        declared = cover.ramification.get(v.id, trivial)
        if _canon_partition(declared) != computed:
            bad(
                "ramification-mismatch",
                f"vertex {v.id}: declared {declared}, computed {computed}",
            )
        if computed != trivial and v.id not in cover.branch_vertices:
            bad(
                "undeclared-branch-vertex",
                f"vertex {v.id} has nontrivial monodromy {computed}",
            )
        if computed == trivial and v.id in cover.branch_vertices:
            bad("trivial-branch-vertex", f"vertex {v.id} is declared branch but unbranched")
    if not cover.is_connected():
        bad("cover-disconnected", "the total space is disconnected")

    nv, ne, nf = cover.total_space_counts()
    return ValidationReport(tuple(diags), nv - ne + nf)


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


def _kink_along(diff: Vec, ray: Vec) -> int:
    """Integer k with diff = k * rot90(ray), or raise."""
    g = rot90(ray)
    if g[0] != 0:
        if diff[0] % g[0] != 0:
            raise ValueError(f"difference {diff} not a multiple of {g}")
        k = diff[0] // g[0]
    else:
        if g[1] == 0 or diff[1] % g[1] != 0:
            raise ValueError(f"difference {diff} not a multiple of {g}")
        k = diff[1] // g[1]
    if (k * g[0], k * g[1]) != tuple(diff):
        raise ValueError(f"difference {diff} not a multiple of {g}")
    return k


def _fan_ray(s: PolyhedralSurface, v: str, eid: str) -> Vec:
    fan = s.fans.get(v)
    if fan is None:
        raise ValueError(f"vertex {v} has no fan")
    for vec, e in fan.rays:
        if e == eid:
            return vec
    raise ValueError(f"edge {eid} has no ray in the fan at {v}")


def kink_sequence(msec: MultiSection, v: str, lift_id: str) -> list[tuple[str, int]]:
    """Kinks around one vertex lift, in ccw order: (wall edge, kink).

    The kink across a wall is the integer multiple of the quarter-turned wall
    direction by which the slope jumps.
    """
    cover = msec.cover
    corners = cover.wall_sequence(v)
    cyc = cover.lift_cycle_of(v, lift_id)
    out = []
    for t, (i, s) in enumerate(cyc):
        j, s2 = cyc[(t + 1) % len(cyc)]
        wall = corners[i][2]
        ray = _fan_ray(cover.base, v, wall)
        u_here = msec.slope(lift_id, corners[i][0], s)
        u_next = msec.slope(lift_id, corners[j][0], s2)
        diff = (u_next[0] - u_here[0], u_next[1] - u_here[1])
        out.append((wall, _kink_along(diff, ray)))
    return out


def validate_multisection(msec: MultiSection) -> ValidationReport:
    """Cover validity plus slope coverage and continuity at lifts of rank
    at most two. Lifts of higher rank carry raw chart data and are exempt
    from the continuity check."""
    rep = validate_cover(msec.cover)
    diags = list(rep.diagnostics)
    declaration_only = {
        "ramification-mismatch",
        "undeclared-branch-vertex",
        "trivial-branch-vertex",
    }
    if any(d.code not in declaration_only for d in diags):
        return rep

    def bad(code, msg):
        diags.append(Diagnostic(code, msg))

    cover = msec.cover
    expected: set[SlopeKey] = {
        (lid, at.corners[i][0], s)
        for at in cover._index.values()
        for (i, s), lid in at.lift_at.items()
    }
    missing = expected - set(msec.slopes)
    extra = set(msec.slopes) - expected
    for key in sorted(missing):
        bad("slope-coverage", f"missing slope for {key}")
    for key in sorted(extra):
        bad("slope-coverage", f"slope for unknown key {key}")
    if missing or extra:
        return ValidationReport(tuple(diags), rep.euler_characteristic)

    for v in cover.base.vertices:
        k = len(cover.wall_sequence(v.id))
        for lid, cyc in zip(cover.vertex_lift_ids(v.id), cover.lift_cycles(v.id)):
            if len(cyc) // k >= 3:
                continue
            try:
                kink_sequence(msec, v.id, lid)
            except ValueError as exc:
                bad("slope-discontinuous", f"lift {lid}: {exc}")
    return ValidationReport(tuple(diags), rep.euler_characteristic)


@dataclass(frozen=True)
class ClassTag:
    tag: str  # "S_mn", "S", "C" or "none"
    pair: tuple[int, int] | None
    detail: dict


def _branch_pair(msec: MultiSection, v: str) -> tuple[int, int] | None:
    """Weight pair at a 2-fold branch vertex, or None if not a standard
    alternating local model."""
    cover = msec.cover
    k = len(cover.wall_sequence(v))
    cycles = cover.lift_cycles(v)
    doubles = [c for c in cycles if len(c) == 2 * k]
    if len(doubles) != 1 or any(len(c) != k for c in cycles if c not in doubles):
        return None
    fan = cover.base.fans.get(v)
    if fan is None or not check_standard_vertex(fan):
        return None
    lift_id = cover.vertex_lift_ids(v)[cycles.index(doubles[0])]
    try:
        kinks = [kk for _, kk in kink_sequence(msec, v, lift_id)]
    except ValueError:
        return None
    x, y = kinks[0], kinks[1]
    if x == y:
        return None
    if kinks != [x, y] * k:
        return None
    return (max(x, y), min(x, y))


def classify(msec: MultiSection) -> ClassTag:
    """Sort a multi-section into the alternating two-weight classes, the
    distinct-covector class, or neither. The section must be valid."""
    cover = msec.cover
    detail: dict = {}
    if cover.degree == 2 and cover.branch_vertices:
        pairs = {}
        for v in sorted(cover.branch_vertices):
            pairs[v] = _branch_pair(msec, v)
        detail = {v: {"pair": p} for v, p in pairs.items()}
        if all(p is not None for p in pairs.values()):
            distinct = set(pairs.values())
            if len(distinct) == 1:
                return ClassTag("S_mn", next(iter(distinct)), detail)
            return ClassTag("S", None, detail)
    try:
        creport = check_class_C(msec)
    except ValueError:
        return ClassTag("none", None, detail)
    if creport.ok:
        return ClassTag("C", None, detail or {"violations": []})
    detail = dict(detail)
    detail["violations"] = creport.violations
    return ClassTag("none", None, detail)


@dataclass(frozen=True)
class ClassCReport:
    ok: bool
    violations: tuple


def check_class_C(msec: MultiSection) -> ClassCReport:
    """Distinct-covector conditions at totally ramified branch vertices.

    Requires every branch vertex to be totally ramified. On each maximal cone
    at such a vertex the sheet slopes must be pairwise distinct, and no
    ordered difference may pair strictly positively with both rays of the
    cone.
    """
    cover = msec.cover
    violations = []
    for v in sorted(cover.branch_vertices):
        cycles = cover.lift_cycles(v)
        corners = cover.wall_sequence(v)
        k = len(corners)
        if len(cycles) != 1 or len(cycles[0]) != k * cover.degree:
            raise ValueError(
                f"class check requires total ramification; vertex {v} is not"
            )
        fan = cover.base.fans.get(v)
        if fan is None:
            raise ValueError(f"vertex {v} has no fan")
        lift_id = cover.vertex_lift_ids(v)[0]
        cyc = cycles[0]
        cone_rays = {f: pair for f, pair in fan.cones}
        for pos in range(k):
            fid = corners[pos][0]
            sheets = sorted(s for i, s in cyc if i == pos)
            us = [msec.slope(lift_id, fid, s) for s in sheets]
            ia, ib = cone_rays[fid]
            ra = fan.rays[ia][0]
            rb = fan.rays[ib][0]
            for a in range(len(us)):
                for b in range(len(us)):
                    if a == b:
                        continue
                    d = (us[a][0] - us[b][0], us[a][1] - us[b][1])
                    if d == (0, 0):
                        if a < b:
                            violations.append(
                                ("coincident-slopes", v, fid, sheets[a], sheets[b])
                            )
                        continue
                    if dot(d, ra) > 0 and dot(d, rb) > 0:
                        violations.append(
                            ("difference-interior", v, fid, sheets[a], sheets[b], d)
                        )
    return ClassCReport(not violations, tuple(violations))


def check_condition_E(s: PolyhedralSurface, branch) -> bool:
    """Every 2-cell must carry an even number of branch vertices on its
    boundary."""
    branch = set(branch)
    for f in s.faces2:
        cyc = s.orientation[f.id]
        if sum(1 for v in cyc if v in branch) % 2 != 0:
            return False
    return True


def _spanning_tree(s: PolyhedralSurface) -> tuple[list[str], dict[str, str], set[str]]:
    """Lexicographic BFS tree of the 1-skeleton: (bfs order, vertex -> tree
    edge to parent, tree edges)."""
    adj: dict[str, list[tuple[str, str]]] = {v.id: [] for v in s.vertices}
    for e in s.edges:
        a, b = e.faces
        adj[a].append((b, e.id))
        adj[b].append((a, e.id))
    for v in adj:
        adj[v].sort()
    root = min(adj)
    order = [root]
    parent_edge: dict[str, str] = {}
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w, eid in adj[v]:
            if w not in seen:
                seen.add(w)
                parent_edge[w] = eid
                order.append(w)
                queue.append(w)
    if len(order) != len(adj):
        raise ValueError("base 1-skeleton is disconnected")
    return order, parent_edge, set(parent_edge.values())


def build_double_cover(
    s: PolyhedralSurface, branch, m: int, n: int, label: str | None = None
) -> MultiSection:
    """Double cover of a trivalent surface branched over the given vertices,
    with alternating weights (m, n) at branch points and uniform weights on
    unbranched sheets.

    The branch set must be even-sized, at least two, and meet every 2-cell in
    an even number of vertices. Edge twists are the canonical solution with
    no twists outside the lexicographic spanning tree.
    """
    if m == n:
        raise ValueError("the two weights must differ (m != n)")
    branch = frozenset(branch)
    vertex_ids = {v.id for v in s.vertices}
    if not branch <= vertex_ids:
        raise ValueError("branch points must be vertices of the base")
    if len(branch) < 2 or len(branch) % 2 != 0:
        raise ValueError("need an even branch set of size at least 2")
    base_rep = validate_surface(s)
    if not base_rep.ok:
        raise ValueError(f"base surface invalid: {base_rep.codes()}")
    for v in s.vertices:
        fan = s.fans.get(v.id)
        if fan is None or len(fan.rays) != 3:
            raise ValueError(f"vertex {v.id} must be trivalent with a fan")
        total = tuple(sum(c) for c in zip(*(vec for vec, _ in fan.rays)))
        if total != (0, 0):
            raise ValueError(f"fan rays at {v.id} do not sum to zero")
    if not check_condition_E(s, branch):
        raise ValueError("branch set meets some 2-cell an odd number of times")

    order, parent_edge, tree = _spanning_tree(s)
    incident: dict[str, list[str]] = {v: [] for v in vertex_ids}
    for e in s.edges:
        incident[e.faces[0]].append(e.id)
        incident[e.faces[1]].append(e.id)

    twist = {e.id: 0 for e in s.edges}
    for v in reversed(order[1:]):
        want = 1 if v in branch else 0
        rest = sum(twist[e] for e in incident[v] if e != parent_edge[v]) % 2
        twist[parent_edge[v]] = (want - rest) % 2
    root = order[0]
    root_sum = sum(twist[e] for e in incident[root]) % 2
    if root_sum != (1 if root in branch else 0):
        raise RuntimeError("parity bookkeeping broke")

    matchings = {
        eid: ((0, 1) if t == 0 else (1, 0)) for eid, t in twist.items()
    }
    ram = {}
    for v in vertex_ids:
        if v in branch:
            ram[v] = ((0, 1),)
        else:
            ram[v] = ((0,), (1,))
    cover = BranchedCover(s, 2, matchings, branch, ram)
    if not cover.is_connected():
        raise ValueError("double cover is disconnected")

    # one bit per vertex: unbranched, which lift has the larger weight;
    # branched, the phase of the alternation. Edge constraints tie them.
    offset: dict[tuple[str, str], int] = {}
    for e in s.edges:
        for v in e.faces:
            offset[(v, e.id)] = _typing_offset(cover, v, e.id)
    bit: dict[str, int] = {order[0]: 0}
    rhs = {
        e.id: (offset[(e.faces[0], e.id)] + offset[(e.faces[1], e.id)]) % 2
        for e in s.edges
    }
    for v in order[1:]:
        eid = parent_edge[v]
        a, b = s.cells[eid].faces
        other = b if v == a else a
        bit[v] = (rhs[eid] + bit[other]) % 2
    for e in s.edges:
        a, b = e.faces
        if (bit[a] + bit[b]) % 2 != rhs[e.id]:
            cycle = _tree_cycle(s, parent_edge, order[0], a, b)
            raise ValueError(
                f"no consistent sheet typing; inconsistent cycle {cycle}"
            )

    slopes: dict[SlopeKey, Vec] = {}
    for v in vertex_ids:
        corners = cover.wall_sequence(v)
        for lid, cyc in zip(cover.vertex_lift_ids(v), cover.lift_cycles(v)):
            if v in branch:
                kinks = [
                    m if (t + bit[v]) % 2 == 0 else n for t in range(len(cyc))
                ]
            else:
                ref = min(sh for i, sh in cyc if i == 0)
                weight = m if (ref + bit[v]) % 2 == 0 else n
                kinks = [weight] * len(cyc)
            u = (0, 0)
            for t, (i, sh) in enumerate(cyc):
                slopes[(lid, corners[i][0], sh)] = u
                ray = _fan_ray(s, v, corners[i][2])
                g = rot90(ray)
                u = (u[0] + kinks[t] * g[0], u[1] + kinks[t] * g[1])
            if u != (0, 0):
                raise RuntimeError("kink pattern does not close up")

    return MultiSection(
        cover, slopes, label if label is not None else f"double({m},{n})"
    )


def _typing_offset(cover: BranchedCover, v: str, eid: str) -> int:
    """Parity comparing edge lift 0 at an endpoint with the vertex bit."""
    if v in cover.branch_vertices:
        corners = cover.wall_sequence(v)
        cyc = cover.lift_cycles(v)[0]
        k = len(corners)
        for t, (i, s) in enumerate(cyc):
            if corners[i][2] == eid:
                f_here = corners[i][0]
                if cover.matching(eid, f_here).index(s) == 0:
                    return t % 2
        raise RuntimeError("edge lift 0 not crossed")
    lid = cover.vertex_lift_at_edge(v, eid, 0)
    return 0 if lid.endswith("#0") else 1


def _tree_cycle(s, parent_edge, root, a, b) -> list[str]:
    def path_to_root(v):
        out = [v]
        while v != root:
            eid = parent_edge[v]
            x, y = s.cells[eid].faces
            v = y if v == x else x
            out.append(v)
        return out

    pa, pb = path_to_root(a), path_to_root(b)
    sa, sb = set(pa), set(pb)
    meet = next(v for v in pa if v in sb)
    cycle = pa[: pa.index(meet) + 1] + list(reversed(pb[: pb.index(meet)]))
    return cycle


# -- serialization ------------------------------------------------------------

SCHEMA = "multisection/v1"

_TOP_KEYS = {
    "schema",
    "complex",
    "degree",
    "label",
    "lifts",
    "matchings",
    "branch",
    "ramification",
    "slopes",
}


def multisection_to_json(msec: MultiSection) -> dict:
    cover = msec.cover
    lifts = []
    for v in cover.base.vertices:
        entries = []
        for lid, cyc in zip(cover.vertex_lift_ids(v.id), cover.lift_cycles(v.id)):
            entries.append(
                {"id": lid, "sheets": sorted(s for i, s in cyc if i == 0)}
            )
        lifts.append({"vertex": v.id, "lifts": entries})
    slopes = []
    for (lid, fid, sheet), u in sorted(msec.slopes.items()):
        slopes.append(
            {"vertex_lift": lid, "face2": fid, "sheet": sheet, "slope": list(u)}
        )
    return {
        "schema": SCHEMA,
        "complex": complex_to_json(cover.base),
        "degree": cover.degree,
        "label": msec.label,
        "lifts": lifts,
        "matchings": [
            {"edge": eid, "perm": list(cover.edge_matchings[eid])}
            for eid in sorted(cover.edge_matchings)
        ],
        "branch": sorted(cover.branch_vertices),
        "ramification": [
            {"vertex": v, "blocks": [list(b) for b in cover.ramification[v]]}
            for v in sorted(cover.ramification)
            if v in cover.branch_vertices
        ],
        "slopes": slopes,
    }


@parses("multi-section")
def parse_multisection(data: dict) -> MultiSection:
    if not isinstance(data, dict):
        raise ValueError("multi-section document must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} in multi-section")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA!r}, got {data.get('schema')!r}")
    base = parse_complex(data["complex"])
    degree = int(data["degree"])
    matchings = {}
    for raw in data.get("matchings", []):
        if set(raw) != {"edge", "perm"}:
            raise ValueError(f"bad matching entry {raw}")
        matchings[str(raw["edge"])] = tuple(int(x) for x in raw["perm"])
    branch = frozenset(str(v) for v in data.get("branch", []))
    ram: dict[str, Partition] = {}
    for raw in data.get("ramification", []):
        if set(raw) != {"vertex", "blocks"}:
            raise ValueError(f"bad ramification entry {raw}")
        ram[str(raw["vertex"])] = _canon_partition(
            tuple(int(x) for x in b) for b in raw["blocks"]
        )
    trivial = _canon_partition([(sh,) for sh in range(degree)])
    cover = BranchedCover(base, degree, matchings, branch, {})
    for v in base.vertices:
        cover.ramification[v.id] = ram.get(v.id, trivial)
    slopes: dict[SlopeKey, Vec] = {}
    for raw in data.get("slopes", []):
        if set(raw) != {"vertex_lift", "face2", "sheet", "slope"}:
            raise ValueError(f"bad slope entry {raw}")
        key = (str(raw["vertex_lift"]), str(raw["face2"]), int(raw["sheet"]))
        if key in slopes:
            raise ValueError(f"duplicate slope for {key}")
        sx, sy = raw["slope"]
        slopes[key] = (int(sx), int(sy))
    declared_lifts = data.get("lifts", [])
    for raw in declared_lifts:
        if set(raw) != {"vertex", "lifts"}:
            raise ValueError(f"bad lift entry {raw}")
    return MultiSection(cover, slopes, str(data.get("label", "")))


def multisection_to_text(msec: MultiSection) -> str:
    return json.dumps(multisection_to_json(msec), indent=2, sort_keys=True) + "\n"
