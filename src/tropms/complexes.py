"""Two-dimensional polyhedral surfaces with integral affine vertex fans.

A surface is a closed cell complex: vertices, edges with two distinct
endpoints, and oriented 2-cells whose boundaries are vertex cycles. A vertex
may carry a fan: integral ray directions for its incident edges in
counterclockwise order, together with the angular sectors occupied by the
incident 2-cells. Any cell can be marked as meeting singular points of the
affine structure.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import NamedTuple, Sequence

from . import schema
from .lattice import Vec, fan_flaw


class Cell(NamedTuple):
    id: str
    dim: int
    faces: tuple[str, ...] = ()
    singular_markers: tuple[str, ...] = ()


class VertexFan(NamedTuple):
    """Affine chart at a vertex: one primitive ray per incident edge, listed
    counterclockwise, and one angular cone per incident 2-cell given by the
    pair of bounding ray indices."""

    vertex: str
    rays: tuple[tuple[Vec, str], ...]
    cones: tuple[tuple[str, tuple[int, int]], ...]


class Diagnostic(NamedTuple):
    code: str
    message: str


class _SurfaceIndex(NamedTuple):
    """The topology of a surface numbered once. The cells of each dimension
    are numbered in id order, so numbers sort as ids do, and every other
    table holds numbers. Corners are numbered vertex by vertex in chain
    order; a vertex whose corners do not chain into one cycle has none."""

    ids: dict[int, tuple[str, ...]]  # dimension -> cell ids, sorted
    number: tuple[dict[str, int], ...]  # per dimension 0, 1, 2: cell id -> number
    ends: tuple[tuple, ...]  # per edge: its vertices as listed, None for a non-vertex
    star: tuple[tuple[int, ...], ...]  # per vertex: the edges ending there
    sides: tuple[tuple[int, ...], ...]  # per edge: the 2-cells it bounds
    walks: tuple[tuple[int, ...] | None, ...]  # per 2-cell: the edge leaving each cycle vertex
    between: dict[int, int]  # v * (vertex count) + w -> the edge between vertices v and w
    corners: tuple[tuple[int, int, int], ...]  # (2-cell, outgoing edge, incoming edge)
    first: tuple[int, ...]  # per vertex and one more: its first corner
    walls: tuple[list[int], ...]  # per edge and end: the corner there whose incoming edge it is
    links: dict[int, str]  # vertex -> why its corners do not chain into one cycle

    def corner(self, v: int, f: int) -> int:
        """The corner of the 2-cell numbered ``f`` at the vertex numbered ``v``."""
        return next(c for c in range(self.first[v], self.first[v + 1]) if self.corners[c][0] == f)


class ReadOnly:
    """An object built whole: assigning or deleting an attribute raises.
    ``functools.cached_property`` writes the instance dict directly, so an
    index is still computed on its first query, from fields that cannot change."""

    def __setattr__(self, name: str, *_):
        raise AttributeError(f"{type(self).__name__} is read-only: {name} cannot change")

    __delattr__ = __setattr__


class PolyhedralSurface(ReadOnly):
    """Cells, fans, boundary cycles and assertion flags of one surface.

    ``cells`` and ``orientation`` are read-only copies of what the surface
    is built from, and its topology is numbered once, on the first query.
    The fans and flags are plain dicts, which validation reads whenever it
    runs; a cover over the surface reads the fans once, into its index.
    """

    def __init__(self, cells: dict[str, Cell], fans: dict[str, VertexFan] | None = None,
                 orientation: dict[str, tuple[str, ...]] | None = None,
                 asserted: dict[str, bool] | None = None):
        self.__dict__.update(cells=MappingProxyType(dict(cells)), fans=dict(fans or {}),
                             orientation=MappingProxyType(dict(orientation or {})),
                             asserted=dict(asserted or {}))

    def of_dim(self, d: int) -> list[Cell]:
        """Cells of one dimension in id order."""
        return [self.cells[i] for i in self._index.ids.get(d, ())]

    @property
    def vertices(self) -> list[Cell]:
        return self.of_dim(0)

    @property
    def edges(self) -> list[Cell]:
        return self.of_dim(1)

    @property
    def faces2(self) -> list[Cell]:
        return self.of_dim(2)

    def euler_characteristic(self) -> int:
        ids = self._index.ids
        return len(ids[0]) - len(ids[1]) + len(ids[2])

    @functools.cached_property
    def _index(self) -> _SurfaceIndex:
        cells = self.cells
        by_dim: dict[int, list[str]] = {0: [], 1: [], 2: []}
        for c in cells.values():
            by_dim.setdefault(c.dim, []).append(c.id)
        ids = {d: tuple(sorted(cids)) for d, cids in by_dim.items()}
        number = tuple({cid: i for i, cid in enumerate(ids[d])} for d in (0, 1, 2))
        nv = len(ids[0])
        ends = tuple([tuple(map(number[0].get, cells[e].faces)) for e in ids[1]])
        boundaries = tuple([tuple(map(number[1].get, cells[f].faces)) for f in ids[2]])
        star: list[list[int]] = [[] for _ in ids[0]]
        sides: list[list[int]] = [[] for _ in ids[1]]
        between = {}
        for e, p in enumerate(ends):  # a malformed edge is skipped; validation reports it
            if len(p) != 2 or None in p or p[0] == p[1]:
                continue
            star[p[0]].append(e)
            star[p[1]].append(e)
            between[p[0] * nv + p[1]] = between[p[1] * nv + p[0]] = e
        for f, edges in enumerate(boundaries):
            for e in edges:  # an unknown face is skipped, an edge listed twice bounds once
                if e is not None and (not sides[e] or sides[e][-1] != f):
                    sides[e].append(f)
        # a boundary step without an edge leaves its 2-cell out of the corners
        walks = []
        around: list[list[tuple[int, int, int]]] = [[] for _ in ids[0]]
        for f, fid in enumerate(ids[2]):
            cyc, walk = self.orientation.get(fid), None
            if cyc is not None:
                cyc = tuple(map(number[0].get, cyc))
            if cyc is not None and None not in cyc:
                walk = tuple([between.get(v * nv + w) for v, w in zip(cyc, cyc[1:] + cyc[:1])])
                walk = None if None in walk else walk
            walks.append(walk)
            if walk:
                prev = walk[-1]
                for v, out in zip(cyc, walk):
                    around[v].append((f, out, prev))
                    prev = out
        corners, first, links = [], [], {}
        walls = tuple([-1, -1] for _ in ids[1])
        for v, local in enumerate(around):
            first.append(len(corners))
            by_out = {corner[1]: corner for corner in local}
            chain = [by_out[min(by_out)]] if by_out else []
            while chain and chain[-1][2] != chain[0][1] and len(chain) <= len(local):
                chain.append(by_out.get(chain[-1][2]))
                if chain[-1] is None:
                    break
            if len({f for f, _, _ in local}) != len(local):
                links[v] = f"a 2-cell touches vertex {ids[0][v]} more than once"
            elif chain and (chain[-1] is None or chain[-1][2] != chain[0][1]):
                links[v] = f"corners around {ids[0][v]} do not close up"
            elif len(chain) != len(local):
                links[v] = f"corners around {ids[0][v]} split into several cycles"
            if v in links:
                continue
            for c, (_, _, inn) in enumerate(chain, len(corners)):
                end = 0 if ends[inn][0] == v else 1
                if walls[inn][end] < 0:
                    walls[inn][end] = c
            corners += chain
        first.append(len(corners))
        return _SurfaceIndex(ids, number, ends, tuple(map(tuple, star)),
                             tuple(map(tuple, sides)), tuple(walks), between,
                             tuple(corners), tuple(first), walls, links)

    def cofaces(self, cell_id: str) -> list[str]:
        """Cells of one dimension more having the given vertex or edge as a face, in id order."""
        x = self._index
        for d, table in ((0, x.star), (1, x.sides)):
            k = x.number[d].get(cell_id)
            if k is not None:
                return [x.ids[d + 1][c] for c in table[k]]
        return []

    def boundary_cycle(self, face_id: str) -> tuple[str, ...]:
        return self.orientation[face_id]

    def edge_between(self, v: str, w: str) -> str:
        """Edge whose endpoints are the given pair of vertices."""
        x = self._index
        a, b = x.number[0].get(v), x.number[0].get(w)
        e = None if a is None or b is None else x.between.get(a * len(x.ids[0]) + b)
        if e is None:
            raise KeyError(f"no edge between {v} and {w}")
        return x.ids[1][e]

    def corners(self, vertex_id: str) -> list[tuple[str, str, str]]:
        """2-cells around a vertex in counterclockwise order as
        (face id, outgoing edge, incoming edge), chained so that the incoming
        edge of one corner is the outgoing edge of the next."""
        x = self._index
        v = x.number[0].get(vertex_id)
        if v is None:
            return []
        if v in x.links:
            raise ValueError(x.links[v])
        E, F = x.ids[1], x.ids[2]
        return [(F[f], E[out], E[inn]) for f, out, inn in x.corners[x.first[v]:x.first[v + 1]]]


def validate_surface(s: PolyhedralSurface) -> tuple[Diagnostic, ...]:
    """Structural checks for a closed oriented surface with affine fans; the
    diagnostics of what fails, none when it is valid."""
    x = s._index
    V, E, F = x.ids[0], x.ids[1], x.ids[2]
    diags: list[Diagnostic] = []

    def bad(code: str, msg: str) -> None:
        diags.append(Diagnostic(code, msg))

    for c in (s.cells[cid] for d in sorted(x.ids) for cid in x.ids[d]):
        if c.dim not in (0, 1, 2):
            bad("cell-dim", f"cell {c.id} has dimension {c.dim}")
            continue
        for f in c.faces:
            if f not in s.cells:
                bad("missing-face", f"cell {c.id} lists unknown face {f}")
            elif s.cells[f].dim != c.dim - 1:
                bad(
                    "face-dim",
                    f"cell {c.id} (dim {c.dim}) lists face {f} of dim {s.cells[f].dim}",
                )
        if c.dim == 0 and c.faces:
            bad("face-dim", f"vertex {c.id} must not have faces")
        if c.dim == 1 and (len(c.faces) != 2 or c.faces[0] == c.faces[1]):
            bad("edge-endpoints", f"edge {c.id} needs two distinct endpoints")

    if any(d.code in ("missing-face", "face-dim", "edge-endpoints") for d in diags):
        return tuple(diags)

    for e, sides in enumerate(x.sides):
        if len(sides) != 2:
            bad("edge-coface-count", f"edge {E[e]} has {len(sides)} cofaces, expected 2")
    for v, star in enumerate(x.star):
        if not star:
            bad("vertex-isolated", f"vertex {V[v]} is a face of no edge")

    nv = len(V)
    directed: dict[int, list[int]] = {}  # v * nv + w -> the 2-cells walking from v to w
    for f, fid in enumerate(F):
        cyc, walk = s.orientation.get(fid), x.walks[f]
        if cyc is None:
            bad("orientation-missing", f"2-cell {fid} has no boundary cycle")
        elif len(set(cyc)) != len(cyc) or len(cyc) < 3:
            bad("orientation-degenerate", f"2-cell {fid} cycle {cyc} is degenerate")
        elif walk is None:
            try:
                for v, w in zip(cyc, (*cyc[1:], *cyc[:1])):
                    s.edge_between(v, w)
            except KeyError as exc:
                bad("orientation-edge", f"2-cell {fid}: {exc}")
        else:
            if sorted(walk) != sorted(map(x.number[1].__getitem__, s.cells[fid].faces)):
                bad(
                    "orientation-face-mismatch",
                    f"2-cell {fid} boundary cycle does not match its edge list",
                )
            cyc = tuple(map(x.number[0].__getitem__, cyc))
            for v, w in zip(cyc, cyc[1:] + cyc[:1]):
                directed.setdefault(v * nv + w, []).append(f)
    for k, users in sorted(directed.items()):  # in the order of the (tail, head) id pairs
        v, w = V[k // nv], V[k % nv]
        if len(users) > 1:
            bad(
                "orientation-inconsistent",
                f"edge {v}->{w} traversed twice (by {[F[f] for f in users]})",
            )
        if k % nv * nv + k // nv not in directed:
            bad(
                "orientation-inconsistent",
                f"edge {v}->{w} never traversed in the opposite direction",
            )

    chi = s.euler_characteristic()
    if chi % 2 != 0:
        bad("euler-characteristic-odd", f"closed surface cannot have chi = {chi}")
    if any(d.code.startswith("orientation-") for d in diags):
        # corners are read off the boundary cycles, so they are undefined
        return tuple(diags)
    for why in x.links.values():
        bad("vertex-link", why)

    for vid in sorted(s.fans):
        fan = s.fans[vid]
        v = x.number[0].get(vid)
        if v is None:
            bad("fan-vertex", f"fan attached to non-vertex {vid}")
            continue
        incident = [E[e] for e in x.star[v]]
        fan_edges = sorted(e for _, e in fan.rays)
        if fan_edges != incident:
            bad(
                "fan-edge-mismatch",
                f"fan at {vid} covers edges {fan_edges}, incident are {incident}",
            )
            continue
        flaw = _fan_flaw(tuple([vec for vec, _ in fan.rays]), tuple([p for _, p in fan.cones]))
        if flaw:
            bad("fan-not-complete", f"fan at {vid} {flaw}")
            continue
        if v in x.links:  # reported as vertex-link
            continue
        corner_by_face = {
            F[f]: (E[out], E[inn]) for f, out, inn in x.corners[x.first[v]:x.first[v + 1]]
        }
        edge_of = {i: e for i, (_, e) in enumerate(fan.rays)}
        for face2, (i, j) in fan.cones:
            if face2 not in corner_by_face:
                bad(
                    "fan-cone-mismatch",
                    f"fan at {vid} assigns a cone to non-incident 2-cell {face2}",
                )
                continue
            out, inn = corner_by_face[face2]
            if (edge_of[i], edge_of[j]) != (out, inn):
                bad(
                    "fan-cone-mismatch",
                    f"fan at {vid}, 2-cell {face2}: cone rays ({edge_of[i]}, "
                    f"{edge_of[j]}) but corner edges ({out}, {inn})",
                )

    return tuple(diags)


@functools.lru_cache(maxsize=256)
def _fan_flaw(vecs: tuple[Vec, ...], cones: tuple[tuple[int, int], ...]) -> str:
    """What keeps rays, and cones given as pairs of ray indices, from forming
    a complete fan; empty if nothing does. Fans of one shape are checked once."""
    n = len(vecs)
    flaw = fan_flaw(vecs)
    if flaw:
        return flaw
    if set(cones) != {(i, (i + 1) % n) for i in range(n)} or len(cones) != n:
        return "cones do not tile the circle"
    return ""


def combinatorial_dual(s: PolyhedralSurface) -> PolyhedralSurface:
    """Swap vertices with 2-cells; edges stay themselves with dual endpoints.

    Fans do not dualize: the result has none, and keeps the flags of ``s``.
    """
    x = s._index
    V, E, F = x.ids[0], x.ids[1], x.ids[2]
    cells: dict[str, Cell] = {}
    for fid in F:
        cells[fid] = Cell(fid, 0, (), s.cells[fid].singular_markers)
    for e, sides in enumerate(x.sides):
        if len(sides) != 2:
            raise ValueError(f"edge {E[e]} has {len(sides)} cofaces; dual undefined")
        cells[E[e]] = Cell(E[e], 1, (F[sides[0]], F[sides[1]]), s.cells[E[e]].singular_markers)
    orientation: dict[str, tuple[str, ...]] = {}
    for v, vid in enumerate(V):
        if v in x.links:
            raise ValueError(x.links[v])
        chain = x.corners[x.first[v]:x.first[v + 1]]
        if not chain:
            raise ValueError(f"vertex {vid} has no incident 2-cells")
        edges = tuple([E[out] for out in sorted({out for _, out, _ in chain})])
        cells[vid] = Cell(vid, 2, edges, s.cells[vid].singular_markers)
        orientation[vid] = tuple([F[f] for f, _, _ in chain])
    return PolyhedralSurface(cells, {}, orientation, s.asserted)


def surface_from_cycles(
    face_cycles: dict[str, tuple[str, ...]],
    asserted: dict[str, bool] | None = None,
    markers: dict[str, tuple[str, ...]] | None = None,
) -> PolyhedralSurface:
    """Assemble a closed surface from oriented boundary cycles of its 2-cells,
    with the singular ``markers`` of its vertices by id.

    Vertices are created as encountered; edges get content-derived ids, so the
    result does not depend on dict order.
    """
    cells: dict[str, Cell] = {}
    edge_ids: dict[tuple[str, str], str] = {}  # sorted endpoints -> edge id
    for cyc in face_cycles.values():
        for v in cyc:
            cells.setdefault(v, Cell(v, 0, (), markers.get(v, ()) if markers else ()))
        for v, w in zip(cyc, (*cyc[1:], *cyc[:1])):
            ends = (v, w) if v < w else (w, v)
            if ends not in edge_ids:
                eid = edge_ids[ends] = "e" + ends[0] + ends[1]
                cells[eid] = Cell(eid, 1, ends)
    orientation = {}
    for fid, cyc in sorted(face_cycles.items()):
        steps = zip(cyc, (*cyc[1:], *cyc[:1]))
        es = tuple([edge_ids[(v, w) if v < w else (w, v)] for v, w in steps])
        cells[fid] = Cell(fid, 2, es)
        orientation[fid] = tuple(cyc)
    return PolyhedralSurface(cells, {}, orientation, asserted)


# -- serialization ------------------------------------------------------------


def parse_complex(data: dict) -> PolyhedralSurface:
    return schema.COMPLEX.parse(data, _build_complex)


def _build_complex(cells, fans, orientation, asserted) -> PolyhedralSurface:
    return PolyhedralSurface(
        schema.unique("cells", [(cell[0], Cell(*cell)) for cell in cells]),
        schema.unique("fans", [(fan[0], VertexFan(*fan)) for fan in fans]),
        schema.unique("orientation", orientation),
        asserted,
    )


def _cycle_canonical(cyc: Sequence[str]) -> tuple[str, ...]:
    # rotate so the lexicographically smallest entry comes first
    k = cyc.index(min(cyc))
    return tuple(cyc[k:]) + tuple(cyc[:k])


def canonical(s: PolyhedralSurface) -> tuple:
    """The cells, fans and boundary cycles of a surface as its text lists
    them: cells by dimension and id with sorted faces and markers, fans by
    vertex, each cycle from its smallest vertex; equal for equal complexes."""
    ids = s._index.ids
    cells = [
        (c.id, c.dim, sorted(c.faces) if c.faces else None,
         sorted(c.singular_markers) if c.singular_markers else None)
        for c in (s.cells[cid] for d in sorted(ids) for cid in ids[d])
    ]
    fans = [(vid, s.fans[vid].rays, s.fans[vid].cones) for vid in sorted(s.fans)]
    orientation = [(fid, _cycle_canonical(s.orientation[fid])) for fid in sorted(s.orientation)]
    return cells, fans or None, orientation or None


def complex_to_text(s: PolyhedralSurface) -> str:
    """The complex/v1 text of a surface; optional fields that are empty are left out."""
    return schema.COMPLEX.text((*canonical(s), s.asserted or None))
