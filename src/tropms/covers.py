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
from bisect import bisect_right
from contextlib import suppress
from types import MappingProxyType
from typing import NamedTuple

from . import schema
from .complexes import (
    Diagnostic,
    PolyhedralSurface,
    ReadOnly,
    complex_to_text,
    parse_complex,
    validate_surface,
)
from .lattice import Vec, dot, rot90, standard_triple

SlopeKey = tuple[str, str, int]  # (vertex lift id, 2-cell id, sheet)

Partition = tuple[tuple[int, ...], ...]


def _canon_partition(blocks) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def edge_lift_id(eid: str, lift: int) -> str:
    return f"{eid}~{lift}"


def face_lift_id(fid: str, sheet: int) -> str:
    return f"{fid}~{sheet}"


class _CoverIndex(NamedTuple):
    """The sheets of a cover numbered once over the numbers of its base. Node
    ``c * degree + s`` is sheet s at corner c; the vertex lifts are numbered
    vertex by vertex, those of one vertex by their smallest sheet at its first
    corner, and each lift's orbit starts there and crosses the walls ccw. The
    fans are read here once, as the cone of each corner."""

    matchings: tuple[tuple[tuple[int, ...], ...], ...]  # per edge and side: lift -> sheet
    lifts: tuple[tuple[tuple[int, ...], ...], ...]  # per corner, out and in edge: sheet -> lift
    sheets: tuple[tuple[tuple[int, ...], ...], ...]  # per corner, out and in edge: lift -> sheet
    orbits: tuple[tuple[int, ...], ...]  # per vertex lift: its nodes
    blocks: tuple[tuple[int, ...], ...]  # per vertex lift: its sheets at its vertex's first corner
    lift_of: tuple[int, ...]  # per node: its vertex lift
    first: tuple[int, ...]  # per vertex and one more: its first lift
    ids: tuple[str, ...]  # per vertex lift: its id
    rays: tuple[tuple[Vec, Vec] | None, ...]  # per corner: rays of its out and in edge, or no fan


class BranchedCover(ReadOnly):
    """A degree-r cover of a base surface, given by its edge matchings; its
    mappings are read-only copies of what it is built from.

    ``ramification`` and ``lifts`` are what an input declares: the partition
    of the sheets at each vertex, trivial where none is given, and each
    vertex's lifts as (lift id, sheets at corner position 0), or None when
    the input declares no lifts.

    The lifts are numbered once, on the first query, from the base's topology.
    The fans are read then too, into the cone of each corner: a fan replaced
    later is seen by validation only.
    """

    def __init__(self, base: PolyhedralSurface, degree: int,
                 edge_matchings: dict[str, tuple[int, ...]], branch_vertices: frozenset[str],
                 ramification: dict[str, Partition] | None = None,
                 lifts: dict[str, tuple[tuple[str, tuple[int, ...]], ...]] | None = None):
        self.__dict__.update(
            base=base, degree=degree, edge_matchings=MappingProxyType(dict(edge_matchings)),
            branch_vertices=frozenset(branch_vertices),
            ramification=MappingProxyType(dict(ramification or {})),
            lifts=None if lifts is None else MappingProxyType(dict(lifts)))

    @functools.cached_property
    def _index(self) -> _CoverIndex:
        x, r = self.base._index, self.degree
        E = x.ids[1]
        if x.links:
            raise ValueError(next(iter(x.links.values())))
        identity = tuple(range(r))
        pairs: dict[tuple[int, ...], tuple] = {}  # matching -> (both sides, their inverses)
        matchings, inverses = [], []
        for e, eid in enumerate(E):
            if len(x.sides[e]) != 2:
                raise ValueError(f"edge {eid} has {len(x.sides[e])} cofaces")
            perm = tuple(self.edge_matchings[eid])
            if perm not in pairs:
                pairs[perm] = ((identity, perm), (identity, tuple(map(perm.index, identity))))
            matchings.append(pairs[perm][0])
            inverses.append(pairs[perm][1])
        lifts, sheets = [], []
        for f, out, inn in x.corners:
            a, b = x.sides[out].index(f), x.sides[inn].index(f)
            lifts.append((inverses[out][a], inverses[inn][b]))
            sheets.append((matchings[out][a], matchings[inn][b]))
        lift_of = [-1] * (len(x.corners) * r)
        orbits, blocks, first, ids, rays = [], [], [], [], []
        for v, vid in enumerate(x.ids[0]):
            first.append(len(orbits))
            c0, c1 = x.first[v], x.first[v + 1]
            fan = self.base.fans.get(vid)
            ray_of = {e: vec for vec, e in fan.rays} if fan else {}
            rays += [(ray_of.get(E[out]), ray_of.get(E[inn])) if fan else None
                     for _, out, inn in x.corners[c0:c1]]
            for s0 in range(r) if c1 > c0 else ():
                if lift_of[c0 * r + s0] >= 0:
                    continue
                orbit, c, s = [], c0, s0
                while lift_of[c * r + s] < 0:
                    lift_of[c * r + s] = len(orbits)
                    orbit.append(c * r + s)
                    nxt = c + 1 if c + 1 < c1 else c0
                    c, s = nxt, sheets[nxt][0][lifts[c][1][s]]
                if (c, s) != (c0, s0):
                    raise RuntimeError("wall transitions are not bijective")
                orbits.append(tuple(orbit))
                blocks.append(tuple(sorted([node - c0 * r for node in orbit[::c1 - c0]])))
                ids.append(f"{vid}#{s0}")
        first.append(len(orbits))
        return _CoverIndex(tuple(matchings), tuple(lifts), tuple(sheets), tuple(orbits),
                           tuple(blocks), tuple(lift_of), tuple(first), tuple(ids), tuple(rays))

    def cone(self, c: int) -> tuple[Vec, Vec]:
        """The rays of the outgoing and incoming edge of corner ``c``, or
        raise where its vertex has no fan."""
        rays = self._index.rays[c]
        if rays is None:
            x = self.base._index
            raise ValueError(f"vertex {x.ids[0][bisect_right(x.first, c) - 1]} has no fan")
        return rays

    def _vertex(self, v: str) -> tuple[int, range]:
        """Number of a base vertex and the numbers of its lifts."""
        n = self.base._index.number[0][v]
        return n, range(self._index.first[n], self._index.first[n + 1])

    def lift_cycles(self, v: str) -> list[list[tuple[int, int]]]:
        """Orbits of (corner position, sheet) under crossing walls ccw.

        Each orbit is one vertex lift, listed from its smallest position-0
        sheet; orbits are ordered by that sheet.
        """
        n, lifts = self._vertex(v)
        c0, r = self.base._index.first[n], self.degree
        return [[(node // r - c0, node % r) for node in self._index.orbits[i]] for i in lifts]

    def computed_lifts(self, v: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Each lift of a vertex as (lift id, its sheets at corner position 0)."""
        lifts = self._vertex(v)[1]
        return tuple(zip(self._index.ids[lifts.start:lifts.stop],
                         self._index.blocks[lifts.start:lifts.stop]))

    def vertex_lift_at_edge(self, v: str, eid: str, edge_lift: int) -> str:
        """Vertex lift to which one edge lift attaches at an endpoint."""
        x, cx = self.base._index, self._index
        n, e = x.number[0].get(v), x.number[1].get(eid)
        if e is None or n not in x.ends[e]:
            raise KeyError(f"edge {eid} is not incident to vertex {v}")
        c = x.walls[e][x.ends[e].index(n)]
        return cx.ids[cx.lift_of[c * self.degree + cx.sheets[c][1][edge_lift]]]

    def total_space_counts(self) -> tuple[int, int, int]:
        ids = self.base._index.ids
        return len(self._index.ids), len(ids[1]) * self.degree, len(ids[2]) * self.degree

    def is_connected(self) -> bool:
        """Whether the sheets of the 2-cells, joined across every edge lift,
        form one component."""
        x, r = self.base._index, self.degree
        parent = list(range(len(x.ids[2]) * r))  # sheet s of 2-cell f is f * r + s

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (a, b), (ma, mb) in zip(x.sides, self._index.matchings):
            for lift in range(r):
                ra, rb = find(a * r + ma[lift]), find(b * r + mb[lift])
                if ra != rb:
                    parent[ra] = rb
        return len({find(a) for a in range(len(parent))}) == 1


class MultiSection(ReadOnly):
    """Slopes of a section over a branched cover, a read-only copy of what it
    is built from: they are read into a table by node once, and the kinks
    into another."""

    def __init__(self, cover: BranchedCover, slopes: dict[SlopeKey, Vec], label: str = ""):
        self.__dict__.update(cover=cover, slopes=MappingProxyType(dict(slopes)), label=label)

    @functools.cached_property
    def _slope_at(self) -> tuple[Vec | None, ...]:
        """The slope at every node of the cover, None where none is given."""
        x, cx, r = self.cover.base._index, self.cover._index, self.cover.degree
        F, ids, get = x.ids[2], cx.ids, self.slopes.get
        return tuple([get((ids[cx.lift_of[c * r + s]], F[f], s))
                      for c, (f, _, _) in enumerate(x.corners) for s in range(r)])

    @functools.cached_property
    def kinks(self) -> tuple[int | None, ...]:
        """Kink across the wall after each node of every lift of rank at most
        two, by node; None at other lifts, and at a wall with no kink, where
        the slope jump is no multiple of the turned wall."""
        x, cx = self.cover.base._index, self.cover._index
        out: list[int | None] = [None] * len(cx.lift_of)
        for v in range(len(x.ids[0])):
            for lift in range(cx.first[v], cx.first[v + 1]):
                cyc = cx.orbits[lift]
                if len(cyc) > 2 * (x.first[v + 1] - x.first[v]):
                    continue
                for t in range(len(cyc)):
                    with suppress(ValueError):
                        out[cyc[t]] = _kink(self, cyc, t)
        return tuple(out)


def validate_cover(cover: BranchedCover) -> tuple[Diagnostic, ...]:
    """Base validity, matching shape, and declared-versus-computed branching;
    the diagnostics of what fails."""
    base_diags = validate_surface(cover.base)
    diags = list(base_diags)

    def bad(code, msg):
        diags.append(Diagnostic(code, msg))

    if cover.degree < 1:
        bad("cover-degree", f"degree {cover.degree} is not positive")
        return tuple(diags)
    x = cover.base._index
    V = x.ids[0]
    if cover.edge_matchings.keys() != set(x.ids[1]):
        bad(
            "edge-matching",
            "matchings must cover exactly the edges of the base",
        )
    else:
        for eid in x.ids[1]:  # nothing is sized by the degree before a matching confirms it
            perm = cover.edge_matchings[eid]
            if len(perm) != cover.degree or sorted(perm) != list(range(len(perm))):
                bad("edge-matching", f"edge {eid}: {perm} is not a permutation")
    for v in sorted(cover.branch_vertices):
        if v not in x.number[0]:
            bad("branch-not-vertex", f"branch point {v} is not a vertex")
    if base_diags or any(d.code in ("edge-matching", "branch-not-vertex") for d in diags):
        return tuple(diags)

    trivial = tuple((s,) for s in range(cover.degree))
    first, blocks = cover._index.first, cover._index.blocks
    if cover.lifts is not None:
        computed = {vid: cover.computed_lifts(vid) for vid in V}
        if computed != cover.lifts:
            for v in sorted(set(cover.lifts) | set(computed)):
                declared, actual = cover.lifts.get(v), computed.get(v)
                if declared != actual:
                    bad("lift-mismatch",
                        f"vertex {v}: declared lifts {declared}, computed {actual}")
    for v, vid in enumerate(V):
        computed = blocks[first[v]:first[v + 1]]
        declared = cover.ramification.get(vid, trivial)
        if declared != computed and _canon_partition(declared) != computed:
            bad(
                "ramification-mismatch",
                f"vertex {vid}: declared {declared}, computed {computed}",
            )
        if computed != trivial and vid not in cover.branch_vertices:
            bad(
                "undeclared-branch-vertex",
                f"vertex {vid} has nontrivial monodromy {computed}",
            )
        if computed == trivial and vid in cover.branch_vertices:
            bad("trivial-branch-vertex", f"vertex {vid} is declared branch but unbranched")
    if not cover.is_connected():
        bad("cover-disconnected", "the total space is disconnected")
    return tuple(diags)


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


def _kink(msec: MultiSection, cyc, t: int) -> int:
    """Kink across the wall after node ``t`` of the orbit ``cyc`` of a vertex
    lift: the integer k such that the slope jumps by k times the
    quarter-turned wall, or raise."""
    slope_at = msec._slope_at
    ray = msec.cover.cone(cyc[t] // msec.cover.degree)[1]
    u, w = slope_at[cyc[t]], slope_at[cyc[(t + 1) % len(cyc)]]
    diff, g = (w[0] - u[0], w[1] - u[1]), rot90(ray)
    k = diff[0] // g[0] if g[0] else diff[1] // g[1] if g[1] else 0
    if g == (0, 0) or (k * g[0], k * g[1]) != diff:
        raise ValueError(f"difference {diff} not a multiple of {g}")
    return k


def validate_multisection(msec: MultiSection) -> tuple[Diagnostic, ...]:
    """Cover validity plus slope coverage and continuity at lifts of rank
    at most two, as diagnostics. Lifts of higher rank carry raw chart data
    and are exempt from the continuity check."""
    diags = list(validate_cover(msec.cover))
    declaration_only = {
        "lift-mismatch",
        "ramification-mismatch",
        "undeclared-branch-vertex",
        "trivial-branch-vertex",
    }
    if any(d.code not in declaration_only for d in diags):
        return tuple(diags)

    def bad(code, msg):
        diags.append(Diagnostic(code, msg))

    cover = msec.cover
    x, cx, r = cover.base._index, cover._index, cover.degree
    if None in msec._slope_at or len(msec.slopes) != len(msec._slope_at):
        expected: set[SlopeKey] = {
            (cx.ids[cx.lift_of[c * r + s]], x.ids[2][f], s)
            for c, (f, _, _) in enumerate(x.corners) for s in range(r)
        }
        for key in sorted(expected - set(msec.slopes)):
            bad("slope-coverage", f"missing slope for {key}")
        for key in sorted(set(msec.slopes) - expected):
            bad("slope-coverage", f"slope for unknown key {key}")
        return tuple(diags)

    kinks = msec.kinks
    for v in range(len(x.ids[0])):
        for lift in range(cx.first[v], cx.first[v + 1]):
            cyc = cx.orbits[lift]
            if len(cyc) > 2 * (x.first[v + 1] - x.first[v]):
                continue
            at = [kinks[node] for node in cyc]
            if None in at:
                try:
                    _kink(msec, cyc, at.index(None))  # raises at the first wall with no kink
                except ValueError as exc:
                    bad("slope-discontinuous", f"lift {cx.ids[lift]}: {exc}")
    return tuple(diags)


class ClassTag(NamedTuple):
    tag: str  # "S_mn", "S", "C" or "none"
    pair: tuple[int, int] | None
    detail: dict


def _branch_pair(msec: MultiSection, v: int) -> tuple[int, int] | None:
    """Weight pair at the 2-fold branch vertex numbered ``v``, or None if not
    a standard alternating local model."""
    cover = msec.cover
    x, cx = cover.base._index, cover._index
    k = x.first[v + 1] - x.first[v]
    cycles = cx.orbits[cx.first[v]:cx.first[v + 1]]
    doubles = [c for c in cycles if len(c) == 2 * k]
    if len(doubles) != 1 or any(len(c) != k for c in cycles if c is not doubles[0]):
        return None
    rays = cx.rays[x.first[v]:x.first[v + 1]]
    if None in rays or not standard_triple([out for out, _ in rays]):
        return None
    kinks = [msec.kinks[node] for node in doubles[0]]
    if None in kinks:
        return None
    a, b = kinks[0], kinks[1]
    if a == b or kinks != [a, b] * k:
        return None
    return (max(a, b), min(a, b))


def classify(msec: MultiSection) -> ClassTag:
    """Sort a multi-section into the alternating two-weight classes, the
    distinct-covector class, or neither. The section must be valid."""
    cover = msec.cover
    detail: dict = {}
    if cover.degree == 2 and cover.branch_vertices:
        number = cover.base._index.number[0]
        pairs = {}
        for v in sorted(cover.branch_vertices):
            pairs[v] = _branch_pair(msec, number[v])
        detail = {v: {"pair": p} for v, p in pairs.items()}
        if all(p is not None for p in pairs.values()):
            distinct = set(pairs.values())
            if len(distinct) == 1:
                return ClassTag("S_mn", next(iter(distinct)), detail)
            return ClassTag("S", None, detail)
    try:
        violations = check_class_C(msec)
    except ValueError:
        return ClassTag("none", None, detail)
    if not violations:
        return ClassTag("C", None, detail or {"violations": []})
    detail = dict(detail)
    detail["violations"] = violations
    return ClassTag("none", None, detail)


def check_class_C(msec: MultiSection) -> tuple:
    """Distinct-covector conditions at totally ramified branch vertices: the
    violations, none when the section is of class C.

    Requires every branch vertex to be totally ramified. On each maximal cone
    at such a vertex the sheet slopes must be pairwise distinct, and no
    ordered difference may pair strictly positively with both rays of the
    cone.
    """
    cover = msec.cover
    x, cx, r = cover.base._index, cover._index, cover.degree
    violations = []
    for v in sorted(cover.branch_vertices):
        n, lifts = cover._vertex(v)
        c0, c1 = x.first[n], x.first[n + 1]
        if len(lifts) != 1 or len(cx.orbits[lifts[0]]) != (c1 - c0) * r:
            raise ValueError(
                f"class check requires total ramification; vertex {v} is not"
            )
        for c in range(c0, c1):  # the one lift covers every sheet at every corner
            fid = x.ids[2][x.corners[c][0]]
            us = msec._slope_at[c * r:(c + 1) * r]
            ra, rb = cover.cone(c)
            for a in range(r):
                for b in range(r):
                    if a == b:
                        continue
                    d = (us[a][0] - us[b][0], us[a][1] - us[b][1])
                    if d == (0, 0):
                        if a < b:
                            violations.append(("coincident-slopes", v, fid, a, b))
                        continue
                    if dot(d, ra) > 0 and dot(d, rb) > 0:
                        violations.append(("difference-interior", v, fid, a, b, d))
    return tuple(violations)


def check_condition_E(s: PolyhedralSurface, branch) -> bool:
    """Every 2-cell must carry an even number of branch vertices on its
    boundary."""
    branch = set(branch)
    return all(sum(v in branch for v in s.orientation[f]) % 2 == 0 for f in s._index.ids[2])


def _spanning_tree(x) -> tuple[list[int], list[int]]:
    """Lexicographic BFS tree of the 1-skeleton of a numbered surface: (bfs
    order, per vertex its tree edge to the parent, -1 at the root)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in x.star]
    for e, (a, b) in enumerate(x.ends):
        adj[a].append((b, e))
        adj[b].append((a, e))
    order, parent = [0], [-1] * len(adj)
    for v in order:  # breadth first: order grows while it is walked
        for w, e in sorted(adj[v]):
            if w and parent[w] < 0:
                parent[w] = e
                order.append(w)
    if len(order) != len(adj):
        raise ValueError("base 1-skeleton is disconnected")
    return order, parent


def build_double_cover(
    s: PolyhedralSurface, branch, m: int, n: int, label: str | None = None
) -> MultiSection:
    """Double cover of a trivalent surface branched over the given vertices,
    with alternating weights (m, n) at branch points and uniform weights on
    unbranched sheets.

    The branch set must be even-sized, at least two, and meet every 2-cell in
    an even number of vertices. Edge twists are the canonical solution with
    no twists outside the lexicographic spanning tree: on a base with nonzero
    H^1, a branch set whose cover needs a twist off the tree is refused.
    """
    if m == n:
        raise ValueError("the two weights must differ (m != n)")
    branch = frozenset(branch)
    x = s._index
    V, E, F = x.ids[0], x.ids[1], x.ids[2]
    if not branch <= x.number[0].keys():
        raise ValueError("branch points must be vertices of the base")
    if len(branch) < 2 or len(branch) % 2 != 0:
        raise ValueError("need an even branch set of size at least 2")
    diags = validate_surface(s)
    if diags:
        raise ValueError(f"base surface invalid: {[d.code for d in diags]}")
    for vid in V:
        fan = s.fans.get(vid)
        if fan is None or len(fan.rays) != 3:
            raise ValueError(f"vertex {vid} must be trivalent with a fan")
        total = tuple(sum(c) for c in zip(*(vec for vec, _ in fan.rays)))
        if total != (0, 0):
            raise ValueError(f"fan rays at {vid} do not sum to zero")
    if not check_condition_E(s, branch):
        raise ValueError("branch set meets some 2-cell an odd number of times")

    order, parent = _spanning_tree(x)
    branched = [vid in branch for vid in V]
    twist = [0] * len(E)
    for v in reversed(order[1:]):
        rest = sum(twist[e] for e in x.star[v] if e != parent[v]) % 2
        twist[parent[v]] = (branched[v] - rest) % 2
    if sum(twist[e] for e in x.star[0]) % 2 != branched[0]:
        raise RuntimeError("parity bookkeeping broke")

    matchings = {eid: ((0, 1) if t == 0 else (1, 0)) for eid, t in zip(E, twist)}
    ram = {vid: ((0, 1),) if b else ((0,), (1,)) for vid, b in zip(V, branched)}
    cover = BranchedCover(s, 2, matchings, branch, ram)
    if not cover.is_connected():
        raise ValueError("double cover is disconnected")

    # one bit per vertex: unbranched, which lift has the larger weight;
    # branched, the phase of the alternation. Edge constraints tie them.
    cx = cover._index
    rhs = [(_typing_offset(cover, e, 0) + _typing_offset(cover, e, 1)) % 2 for e in range(len(E))]
    bit = [0] * len(V)
    for v in order[1:]:
        a, b = x.ends[parent[v]]
        bit[v] = (rhs[parent[v]] + bit[b if v == a else a]) % 2
    for e, (a, b) in enumerate(x.ends):
        if (bit[a] + bit[b]) % 2 != rhs[e]:
            cycle = [V[v] for v in _tree_cycle(x, parent, a, b)]
            raise ValueError("no consistent sheet typing with no twist off the spanning "
                             f"tree; inconsistent cycle {cycle}")

    slopes: dict[SlopeKey, Vec] = {}
    for v in range(len(V)):
        for lift in range(cx.first[v], cx.first[v + 1]):
            cyc = cx.orbits[lift]
            if branched[v]:
                kinks = [m if (t + bit[v]) % 2 == 0 else n for t in range(len(cyc))]
            else:  # cyc[0] % 2 is the lift's sheet at the first corner
                kinks = [m if (cyc[0] + bit[v]) % 2 == 0 else n] * len(cyc)
            u = (0, 0)
            for t, node in enumerate(cyc):
                slopes[(cx.ids[lift], F[x.corners[node // 2][0]], node % 2)] = u
                g = rot90(cx.rays[node // 2][1])
                u = (u[0] + kinks[t] * g[0], u[1] + kinks[t] * g[1])
            if u != (0, 0):
                raise RuntimeError("kink pattern does not close up")

    return MultiSection(
        cover, slopes, label if label is not None else f"double({m},{n})"
    )


def _typing_offset(cover: BranchedCover, e: int, end: int) -> int:
    """Parity comparing edge lift 0 at one end of edge ``e`` with the vertex bit."""
    x, cx = cover.base._index, cover._index
    c = x.walls[e][end]
    node = c * 2 + cx.sheets[c][1][0]  # where edge lift 0 enters the vertex
    lift, v = cx.lift_of[node], x.ends[e][end]
    if x.ids[0][v] in cover.branch_vertices:
        return cx.orbits[lift].index(node) % 2
    return 0 if lift == cx.first[v] else 1


def _tree_cycle(x, parent: list[int], a: int, b: int) -> list[int]:
    def path_to_root(v):
        out = [v]
        while parent[v] >= 0:
            p, q = x.ends[parent[v]]
            v = q if v == p else p
            out.append(v)
        return out

    pa, pb = path_to_root(a), path_to_root(b)
    sb = set(pb)
    meet = next(v for v in pa if v in sb)
    return pa[: pa.index(meet) + 1] + list(reversed(pb[: pb.index(meet)]))


# -- serialization ------------------------------------------------------------


def parse_multisection(data: dict) -> MultiSection:
    return schema.MULTISECTION.parse(data, _build_multisection)


def _build_multisection(complex_doc, degree, label, lifts, matchings, branch,
                        ramification, slopes) -> MultiSection:
    base = schema.within("complex", parse_complex, complex_doc)
    ram = schema.unique("ramification", ramification)
    cover = BranchedCover(
        base, degree, schema.unique("matchings", matchings),
        frozenset(schema.unique("branch", [(v, None) for v in branch])),
        {v: _canon_partition(blocks) for v, blocks in ram.items()},
        None if lifts is None else schema.unique("lifts", lifts),
    )
    return MultiSection(cover, schema.unique("slopes", [(s[:3], s[3]) for s in slopes]), label)


def multisection_to_text(msec: MultiSection) -> str:
    return _section_text(msec, complex_to_text(msec.cover.base))


def _section_text(msec: MultiSection, complex_text: str) -> str:
    """The multisection/v1 text of a section that embeds ``complex_text``,
    the text of its base, for a writer that has it already."""
    cover = msec.cover
    return schema.MULTISECTION.text((
        complex_text,
        cover.degree,
        msec.label,
        [(v.id, cover.computed_lifts(v.id)) for v in cover.base.vertices],
        [(eid, cover.edge_matchings[eid]) for eid in sorted(cover.edge_matchings)],
        sorted(cover.branch_vertices),
        [(v, cover.ramification[v]) for v in sorted(cover.ramification)
         if v in cover.branch_vertices],
        [(*key, u) for key, u in sorted(msec.slopes.items())],
    ))
