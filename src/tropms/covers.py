"""Branched covers of polyhedral surfaces and their multi-sections.

A cover of degree r is combinatorial: every 2-cell has sheets 0..r-1, every
edge has r lifts matched to the sheets of its two cofaces (the identity on
the first by id), vertex lifts are the orbits of the induced monodromy around
each vertex, and branching is confined to vertices; ``edge_voltages`` finds
the matchings of a prescribed monodromy. A multi-section adds one integral
slope covector per 2-cell lift around each vertex lift, continuous across
walls at lifts of rank at most two. A cover and a section are numbered once,
as they are built, over the numbers of a closed oriented base, and that pass
records what keeps them from being one."""

from __future__ import annotations

from bisect import bisect_right
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
    """The sheets of a cover, numbered as it is built over the numbers of its
    base. Node ``c * degree + s`` is sheet s at corner c; the vertex lifts are
    numbered vertex by vertex, those of one vertex by their smallest sheet at
    its first corner, and each lift's orbit starts there and crosses the walls
    ccw. The fans are read here once, as the cone of each corner."""

    lifts: tuple[tuple[tuple[int, ...], ...], ...]  # per corner, out and in edge: sheet -> lift
    sheets: tuple[tuple[tuple[int, ...], ...], ...]  # per corner, out and in edge: lift -> sheet
    orbits: tuple[tuple[int, ...], ...]  # per vertex lift: its nodes
    blocks: tuple[tuple[int, ...], ...]  # per vertex lift: its sheets at its vertex's first corner
    lift_of: tuple[int, ...]  # per node: its vertex lift
    first: tuple[int, ...]  # per vertex and one more: its first lift
    ids: tuple[str, ...]  # per vertex lift: its id
    rays: tuple[tuple[Vec, Vec] | None, ...]  # per corner: rays of its out and in edge, or None
    connected: bool  # whether the sheets of the 2-cells, joined across the edge lifts, are one


def _number_cover(base: PolyhedralSurface, r: int, matchings: dict[str, tuple[int, ...]],
                  branch: frozenset[str], ramification: dict[str, Partition],
                  lifts: dict | None) -> tuple[_CoverIndex | None, tuple[Diagnostic, ...]]:
    """Number a cover in one pass, and record each cover check that fails in
    report order. The degree, the matchings and the branch points are
    checked first; a malformed degree or matching, or a base that is not
    closed, leaves no index, and a branch point that is no vertex stops the
    checks of the lifts."""
    x = base._index
    V, E = x.ids[0], x.ids[1]
    diags: list[Diagnostic] = []

    def bad(code: str, msg: str) -> None:
        diags.append(Diagnostic(code, msg))

    if r < 1:
        bad("cover-degree", f"degree {r} is not positive")
        return None, tuple(diags)
    if matchings.keys() != set(E):
        bad("edge-matching", "matchings must cover exactly the edges of the base")
    else:  # nothing is sized by the degree before a matching confirms it
        wrong = {p for p in set(map(tuple, matchings.values()))
                 if len(p) != r or sorted(p) != list(range(r))}
        for eid in E if wrong else ():
            if tuple(matchings[eid]) in wrong:
                bad("edge-matching", f"edge {eid}: {matchings[eid]} is not a permutation")
    for v in sorted(branch - x.number[0].keys()):
        bad("branch-not-vertex", f"branch point {v} is not a vertex")
    if x.diagnostics or any(d.code == "edge-matching" for d in diags):
        return None, tuple(diags)

    identity = tuple(range(r))
    pairs: dict[tuple[int, ...], tuple] = {}  # matching -> (both sides, their inverses)
    matched, inverses = [], []
    for eid in E:
        perm = tuple(matchings[eid])
        if perm not in pairs:
            pairs[perm] = ((identity, perm), (identity, tuple(map(perm.index, identity))))
        matched.append(pairs[perm][0])
        inverses.append(pairs[perm][1])
    to_lift, sheets = [], []
    for f, out, inn in x.corners:
        a, b = x.sides[out].index(f), x.sides[inn].index(f)
        to_lift.append((inverses[out][a], inverses[inn][b]))
        sheets.append((matched[out][a], matched[inn][b]))
    lift_of = [-1] * (len(x.corners) * r)
    orbits, blocks, first, ids, rays = [], [], [], [], []
    trivial, mismatched, checks = tuple((s,) for s in identity), {}, []
    for v, vid in enumerate(V):
        first.append(len(orbits))
        c0, c1 = x.first[v], x.first[v + 1]
        fan = base.fans.get(vid)
        ray_of = {e: vec for vec, e in fan.rays} if fan else {}
        for _, out, inn in x.corners[c0:c1]:  # no cone where a ray is missing
            cone = (ray_of.get(E[out]), ray_of.get(E[inn]))
            rays.append(None if None in cone else cone)
        for s0 in identity:
            if lift_of[c0 * r + s0] >= 0:
                continue
            orbit, c, s, node, lift = [], c0, s0, c0 * r + s0, len(orbits)
            while lift_of[node] < 0:
                lift_of[node] = lift
                orbit.append(node)
                nxt = c + 1 if c + 1 < c1 else c0
                c, s = nxt, sheets[nxt][0][to_lift[c][1][s]]
                node = c * r + s
            if (c, s) != (c0, s0):
                raise RuntimeError("wall transitions are not bijective")
            orbits.append(tuple(orbit))
            blocks.append(tuple(sorted([node - c0 * r for node in orbit[::c1 - c0]])))
            ids.append(f"{vid}#{s0}")
        computed = tuple(blocks[first[v]:])
        if lifts is not None and lifts.get(vid) != (mine := tuple(zip(ids[first[v]:], computed))):
            mismatched[vid] = mine
        declared = ramification.get(vid, trivial)
        if declared != computed and _canon_partition(declared) != computed:
            checks.append(Diagnostic("ramification-mismatch",
                                     f"vertex {vid}: declared {declared}, computed {computed}"))
        if computed != trivial and vid not in branch:
            checks.append(Diagnostic("undeclared-branch-vertex",
                                     f"vertex {vid} has nontrivial monodromy {computed}"))
        if computed == trivial and vid in branch:
            checks.append(Diagnostic("trivial-branch-vertex",
                                     f"vertex {vid} is declared branch but unbranched"))
    first.append(len(orbits))
    parent = list(range(len(x.ids[2]) * r))  # sheet s of 2-cell f is f * r + s
    for (f, g), (_, perm) in zip(x.sides, matched):  # lift i meets sheet i of f, perm[i] of g
        for i, j in enumerate(perm):
            a, b = f * r + i, g * r + j
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]  # halve the path as it is walked
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[a] = b
    connected = sum(a == p for a, p in enumerate(parent)) == 1
    if not diags:  # every branch point is a vertex
        for vid in sorted([*mismatched, *(lifts or {}).keys() - x.number[0].keys()]):
            bad("lift-mismatch",
                f"vertex {vid}: declared lifts {lifts.get(vid)}, computed {mismatched.get(vid)}")
        diags += checks
        for vid in sorted(ramification.keys() - x.number[0].keys()):
            bad("ramification-mismatch",
                f"vertex {vid}: declared {ramification[vid]}, computed None")
        if not connected:
            bad("cover-disconnected", "the total space is disconnected")
    return _CoverIndex(tuple(to_lift), tuple(sheets), tuple(orbits), tuple(blocks),
                       tuple(lift_of), tuple(first), tuple(ids), tuple(rays),
                       connected), tuple(diags)


class BranchedCover(ReadOnly):
    """A degree-r cover of a base surface, given by its edge matchings; its
    mappings are read-only copies of what it is built from.

    ``ramification`` and ``lifts`` are what an input declares: the partition
    of the sheets at each vertex, trivial where none is given, and each
    vertex's lifts as (lift id, sheets at corner position 0), or None when
    the input declares no lifts.

    The lifts are numbered once, as the cover is built, and the cover checks
    that fail are kept in ``diagnostics``. A cover with a malformed degree or
    matching, or over a base that is not closed and oriented, has no
    numbering to query. The fans are read into the cone of each corner: a
    fan replaced after the cover is built is seen by validation only."""

    def __init__(self, base: PolyhedralSurface, degree: int,
                 edge_matchings: dict[str, tuple[int, ...]], branch_vertices: frozenset[str],
                 ramification: dict[str, Partition] | None = None,
                 lifts: dict[str, tuple[tuple[str, tuple[int, ...]], ...]] | None = None):
        matchings, branch = dict(edge_matchings), frozenset(branch_vertices)
        ram, lifts = dict(ramification or {}), None if lifts is None else dict(lifts)
        index, diags = _number_cover(base, degree, matchings, branch, ram, lifts)
        self.__dict__.update(
            base=base, degree=degree, edge_matchings=MappingProxyType(matchings),
            branch_vertices=branch, ramification=MappingProxyType(ram),
            lifts=None if lifts is None else MappingProxyType(lifts), diagnostics=diags)
        if index is not None:
            self.__dict__["_index"] = index

    def cone(self, c: int) -> tuple[Vec, Vec]:
        """The rays of the outgoing and incoming edge of corner ``c``, or
        raise where its vertex has no fan with a ray on both."""
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
        return self._index.connected


class MultiSection(ReadOnly):
    """Slopes of a section over a branched cover, a read-only copy of what it
    is built from. Over a numbered cover they are read once, as the section
    is built, into a table by node, and, where they are given at exactly the
    nodes, the kinks into another; the slope checks that fail are kept in
    ``diagnostics``."""

    def __init__(self, cover: BranchedCover, slopes: dict[SlopeKey, Vec], label: str = ""):
        slopes = dict(slopes)
        self.__dict__.update(cover=cover, slopes=MappingProxyType(slopes), label=label,
                             diagnostics=())
        if "_index" not in vars(cover):
            return
        x, cx, r = cover.base._index, cover._index, cover.degree
        F, ids = x.ids[2], cx.ids
        keys = [(ids[cx.lift_of[c * r + s]], F[f], s)  # by node
                for c, (f, _, _) in enumerate(x.corners) for s in range(r)]
        slope_at = self.__dict__["_slope_at"] = tuple(map(slopes.get, keys))  # None: not given
        kinks: list[int | None] = [None] * len(slope_at)  # None: no lift of rank two, or no kink
        diags = []
        if None in slope_at or len(slopes) != len(slope_at):
            expected = set(keys)
            diags = [Diagnostic("slope-coverage", f"missing slope for {key}")
                     for key in sorted(expected - slopes.keys())]
            diags += [Diagnostic("slope-coverage", f"slope for unknown key {key}")
                      for key in sorted(slopes.keys() - expected)]
        else:  # the kinks across every wall of each lift of rank at most two
            for v in range(len(x.ids[0])):
                rank2 = 2 * (x.first[v + 1] - x.first[v])  # nodes in a lift of rank two
                for lift in range(cx.first[v], cx.first[v + 1]):
                    cyc, flaw = cx.orbits[lift], None
                    for t in range(len(cyc)) if len(cyc) <= rank2 else ():
                        try:
                            kinks[cyc[t]] = _kink(self, cyc, t)
                        except ValueError as exc:
                            flaw = flaw or exc
                    if flaw:
                        diags.append(Diagnostic("slope-discontinuous",
                                                f"lift {ids[lift]}: {flaw}"))
        self.__dict__.update(kinks=tuple(kinks), diagnostics=tuple(diags))


def validate_cover(cover: BranchedCover) -> tuple[Diagnostic, ...]:
    """Base validity, matching shape, and declared-versus-computed branching;
    the diagnostics of what fails. A fault of the base stops the checks of
    the lifts."""
    base = validate_surface(cover.base)
    if not base:
        return cover.diagnostics
    shape = ("cover-degree", "edge-matching", "branch-not-vertex")
    return base + tuple(d for d in cover.diagnostics if d.code in shape)


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
    and are exempt from the continuity check. A cover fault other than one
    of a declaration stops the checks of the slopes."""
    diags = validate_cover(msec.cover)
    declarations = ("lift-mismatch", "ramification-mismatch", "undeclared-branch-vertex",
                    "trivial-branch-vertex")
    if any(d.code not in declarations for d in diags):
        return diags
    return diags + msec.diagnostics


class ClassTag(NamedTuple):
    tag: str  # "S_mn", "S", "C" or "none"
    pair: tuple[int, int] | None


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
    if cover.degree == 2 and cover.branch_vertices:
        number = cover.base._index.number[0]
        pairs = {_branch_pair(msec, number[v]) for v in cover.branch_vertices}
        if None not in pairs:
            if len(pairs) == 1:
                return ClassTag("S_mn", pairs.pop())
            return ClassTag("S", None)
    try:
        violations = check_class_C(msec)
    except ValueError:
        return ClassTag("none", None)
    return ClassTag("none" if violations else "C", None)


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


def edge_voltages(x, rhs, p: int) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Values mod ``p`` on the edges of the valid surface numbered ``x``, zero
    off its lexicographic BFS tree, whose signed sum at each vertex v is
    ``rhs[v]``: an edge counts +1 where it is the incoming edge of a corner on
    its first coface, -1 at its other end (the voltages of a cover; Gross and
    Tucker, *Topological Graph Theory*, 1987, ch. 4). Returns them with the
    tree: each vertex but the root, in bfs order, to its tree edge and parent.
    Raises ValueError on a disconnected 1-skeleton or if ``rhs`` sums to nonzero mod p."""
    adj: list[list[tuple[int, int]]] = [[] for _ in x.star]
    head = []  # per edge: the end where it counts +1
    for e, (a, b) in enumerate(x.ends):
        adj[a].append((b, e))
        adj[b].append((a, e))
        head.append(a if x.corners[x.walls[e][0]][0] == x.sides[e][0] else b)
    order, tree = [0], {}
    for v in order:  # breadth first: order grows while it is walked
        for w, e in sorted(adj[v]):
            if w and w not in tree:
                tree[w] = (e, v)
                order.append(w)
    if len(order) != len(adj):
        raise ValueError("base 1-skeleton is disconnected")
    value = [0] * len(head)
    for v, (e, _) in reversed(tree.items()):  # e is still 0 in the sum at v
        rest = sum(value[d] if head[d] == v else -value[d] for d in x.star[v])
        value[e] = (rhs[v] - rest) * (1 if head[e] == v else -1) % p
    if sum(value[e] if head[e] == 0 else -value[e] for e in x.star[0]) % p != rhs[0] % p:
        raise ValueError(f"no voltages: the right-hand side sums to {sum(rhs) % p} mod {p}")
    return value, tree


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

    branched = [vid in branch for vid in V]
    twist, tree = edge_voltages(x, branched, 2)

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
    for v, (e, u) in tree.items():
        bit[v] = (rhs[e] + bit[u]) % 2
    for e, (a, b) in enumerate(x.ends):
        if (bit[a] + bit[b]) % 2 != rhs[e]:
            cycle = [V[v] for v in _tree_cycle(tree, a, b)]
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


def _tree_cycle(tree: dict[int, tuple[int, int]], a: int, b: int) -> list[int]:
    def path(v, stop):  # from v up the tree to the root, or to the first vertex in stop
        out = [v]
        while v in tree and v not in stop:
            v = tree[v][1]
            out.append(v)
        return out

    pa = path(a, ())
    pb = path(b, pa)  # ends where the two paths meet
    return pa[: pa.index(pb[-1]) + 1] + pb[-2::-1]


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
