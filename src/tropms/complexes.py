"""Two-dimensional polyhedral surfaces with integral affine vertex fans.

A surface is a closed cell complex: vertices, edges with two distinct
endpoints, and oriented 2-cells whose boundaries are vertex cycles. A vertex
may carry a fan: integral ray directions for its incident edges in
counterclockwise order, together with the angular sectors occupied by the
incident 2-cells. Any cell can be marked as meeting singular points of the
affine structure. A surface is numbered once, as it is built, and that pass
records what keeps it from being closed and oriented; ``validate_surface``
adds the checks of its fans.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

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
    """The topology of a surface numbered once, and what is wrong with it.
    The cells of each dimension are numbered in id order, so numbers sort as
    ids do, and every other table holds numbers. Corners are numbered vertex
    by vertex in chain order; a vertex whose corners do not chain into one
    cycle has none. A surface with a malformed cell has no incidences, and
    one whose boundary cycles are not consistently oriented has no corners."""

    ids: dict[int, tuple[str, ...]]  # dimension -> cell ids, sorted
    number: tuple[dict[str, int], ...]  # per dimension 0, 1, 2: cell id -> number
    ends: tuple[tuple[int, int], ...]  # per edge: its vertices as listed
    star: tuple[tuple[int, ...], ...]  # per vertex: the edges ending there
    sides: tuple[tuple[int, ...], ...]  # per edge: the 2-cells it bounds
    walks: tuple[tuple[int, ...] | None, ...]  # per 2-cell: the edge leaving each cycle vertex
    between: dict[int, int]  # v * (vertex count) + w -> the edge between vertices v and w
    corners: tuple[tuple[int, int, int], ...]  # (2-cell, outgoing edge, incoming edge)
    first: tuple[int, ...]  # per vertex and one more: its first corner
    walls: tuple[list[int], ...]  # per edge and end: the corner there whose incoming edge it is
    diagnostics: tuple[Diagnostic, ...]  # the topology checks that fail, in report order
    oriented: bool  # no malformed cell and no orientation fault: the fans can be checked

    def corner(self, v: int, f: int) -> int:
        """The corner of the 2-cell numbered ``f`` at the vertex numbered ``v``."""
        return next(c for c in range(self.first[v], self.first[v + 1]) if self.corners[c][0] == f)

    def closed(self) -> _SurfaceIndex:
        """This index, where the surface is closed and oriented; else raise
        ValueError with the first diagnostic its numbering recorded."""
        if self.diagnostics:
            raise ValueError(self.diagnostics[0].message)
        return self


def _number_surface(cells: dict[str, Cell], orientation: dict[str, tuple[str, ...]]
                    ) -> _SurfaceIndex:
    """Number a surface in one pass, recording each topology check that
    fails in report order. A malformed cell (``cell-dim`` aside) stops the
    pass, and a fault of orientation stops it before ``vertex-link``."""
    by_dim: dict[int, list[str]] = {0: [], 1: [], 2: []}
    for c in cells.values():
        by_dim.setdefault(c.dim, []).append(c.id)
    ids = {d: tuple(sorted(cids)) for d, cids in by_dim.items()}
    number = tuple({cid: i for i, cid in enumerate(ids[d])} for d in (0, 1, 2))
    V, E, F = ids[0], ids[1], ids[2]
    nv = len(V)
    diags: list[Diagnostic] = []

    def bad(code: str, msg: str) -> None:
        diags.append(Diagnostic(code, msg))

    listed: dict[int, list[tuple]] = {}  # per dimension 1, 2: each cell's faces by number
    malformed = False
    for d in sorted(ids):
        if d not in (0, 1, 2):
            for cid in ids[d]:
                bad("cell-dim", f"cell {cid} has dimension {d}")
            continue
        get, listed[d] = (number[d - 1].get if d else {}.get), []
        for cid in ids[d]:
            faces = cells[cid].faces
            nums = tuple(map(get, faces))
            listed[d].append(nums)
            if None not in nums and (d != 1 or len(nums) == 2 and nums[0] != nums[1]):
                continue
            malformed = True  # rare: read the cell of each face to say what is wrong
            for f in faces:
                if f not in cells:
                    bad("missing-face", f"cell {cid} lists unknown face {f}")
                elif cells[f].dim != d - 1:
                    bad("face-dim", f"cell {cid} (dim {d}) lists face {f} of dim {cells[f].dim}")
            if d == 0:
                bad("face-dim", f"vertex {cid} must not have faces")
            if d == 1 and (len(faces) != 2 or faces[0] == faces[1]):
                bad("edge-endpoints", f"edge {cid} needs two distinct endpoints")
    if malformed:
        none = ((),)
        return _SurfaceIndex(ids, number, (), none * nv, none * len(E), (None,) * len(F), {}, (),
                             (0,) * (nv + 1), (), tuple(diags), False)

    ends = tuple(listed[1])
    star: list[list[int]] = [[] for _ in V]
    sides: list[list[int]] = [[] for _ in E]
    between = {}
    for e, (a, b) in enumerate(ends):
        star[a].append(e)
        star[b].append(e)
        between[a * nv + b] = between[b * nv + a] = e
    for f, edges in enumerate(listed[2]):
        for e in edges:  # an edge listed twice bounds once
            if not sides[e] or sides[e][-1] != f:
                sides[e].append(f)
    for e, fs in enumerate(sides):
        if len(fs) != 2:
            bad("edge-coface-count", f"edge {E[e]} has {len(fs)} cofaces, expected 2")
    for v, es in enumerate(star):
        if not es:
            bad("vertex-isolated", f"vertex {V[v]} is a face of no edge")

    directed: dict[int, int] = {}  # v * nv + w -> the 2-cell walking from v to w
    twice: dict[int, list[int]] = {}  # v * nv + w -> the 2-cells, where several walk it
    around: list[list[tuple[int, int, int]]] = [[] for _ in V]
    walks: list[tuple[int, ...] | None] = [None] * len(F)
    vertex = number[0].get
    for f, fid in enumerate(F):
        cyc = orientation.get(fid)
        if cyc is None:
            bad("orientation-missing", f"2-cell {fid} has no boundary cycle")
            continue
        if len(set(cyc)) != len(cyc) or len(cyc) < 3:
            bad("orientation-degenerate", f"2-cell {fid} cycle {cyc} is degenerate")
            continue
        vs = tuple(map(vertex, cyc))
        keys = [None if None in (v, w) else v * nv + w for v, w in zip(vs, vs[1:] + vs[:1])]
        walk = tuple(map(between.get, keys))
        if None in walk:
            i = walk.index(None)
            step = f"no edge between {cyc[i]} and {cyc[i + 1 - len(cyc)]}"
            bad("orientation-edge", f"2-cell {fid}: {step!r}")
            continue
        walks[f] = walk
        if sorted(walk) != sorted(listed[2][f]):
            bad("orientation-face-mismatch",
                f"2-cell {fid} boundary cycle does not match its edge list")
        prev = walk[-1]
        for v, k, out in zip(vs, keys, walk):
            g = directed.setdefault(k, f)
            if g != f:
                twice.setdefault(k, [g]).append(f)
            around[v].append((f, out, prev))
            prev = out
    unpaired = [k for k in directed if k % nv * nv + k // nv not in directed]
    for k in sorted({*twice, *unpaired}):  # in the order of the (tail, head) id pairs
        v, w = V[k // nv], V[k % nv]
        if k in twice:
            bad("orientation-inconsistent",
                f"edge {v}->{w} traversed twice (by {[F[f] for f in twice[k]]})")
        if k % nv * nv + k // nv not in directed:
            bad("orientation-inconsistent",
                f"edge {v}->{w} never traversed in the opposite direction")
    oriented = not any(d.code.startswith("orientation-") for d in diags)
    chi = len(V) - len(E) + len(F)
    if chi % 2 != 0:
        bad("euler-characteristic-odd", f"closed surface cannot have chi = {chi}")

    corners, first = [], []
    walls = tuple([-1, -1] for _ in E)
    for v, local in enumerate(around if oriented else [[] for _ in V]):
        # oriented: each corner enters by the edge one other corner leaves by
        first.append(len(corners))
        by_out = {corner[1]: corner for corner in local}
        chain = [by_out[min(by_out)]] if local else []
        while len(chain) < len(local) and chain[-1][2] != chain[0][1]:
            chain.append(by_out[chain[-1][2]])
        if len(chain) != len(local):
            bad("vertex-link", f"corners around {V[v]} split into several cycles")
            continue
        for c, (_, _, inn) in enumerate(chain, len(corners)):
            walls[inn][0 if ends[inn][0] == v else 1] = c
        corners += chain
    first.append(len(corners))
    return _SurfaceIndex(ids, number, ends, tuple(map(tuple, star)), tuple(map(tuple, sides)),
                         tuple(walks), between, tuple(corners), tuple(first), walls,
                         tuple(diags), oriented)


class ReadOnly:
    """An object built whole, whose constructor writes its instance dict:
    assigning or deleting an attribute raises."""

    def __setattr__(self, name: str, *_):
        raise AttributeError(f"{type(self).__name__} is read-only: {name} cannot change")

    __delattr__ = __setattr__


class PolyhedralSurface(ReadOnly):
    """Cells, fans, boundary cycles and assertion flags of one surface.

    ``cells`` and ``orientation`` are read-only copies of what the surface
    is built from, and its topology is numbered and checked once, as it is
    built. The fans and flags are plain dicts, which validation reads
    whenever it runs; a cover over the surface reads the fans once, into its
    index.
    """

    def __init__(self, cells: dict[str, Cell], fans: dict[str, VertexFan] | None = None,
                 orientation: dict[str, tuple[str, ...]] | None = None,
                 asserted: dict[str, bool] | None = None):
        cells, orientation = dict(cells), dict(orientation or {})
        self.__dict__.update(cells=MappingProxyType(cells), fans=dict(fans or {}),
                             orientation=MappingProxyType(orientation),
                             asserted=dict(asserted or {}),
                             _index=_number_surface(cells, orientation))

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
        edge of one corner is the outgoing edge of the next; raises
        ValueError on a surface that is not closed and oriented."""
        x = self._index.closed()
        v = x.number[0].get(vertex_id)
        if v is None:
            return []
        E, F = x.ids[1], x.ids[2]
        return [(F[f], E[out], E[inn]) for f, out, inn in x.corners[x.first[v]:x.first[v + 1]]]


def validate_surface(s: PolyhedralSurface) -> tuple[Diagnostic, ...]:
    """Checks for a closed oriented surface with affine fans: what its
    numbering recorded, then, where its cells and cycles allow, its fans as
    they are now; none when it is valid. The fans are read as cell numbers,
    and fans of one shape are checked for completeness once a call."""
    x = s._index
    if not x.oriented:
        return x.diagnostics
    E, edge, face = x.ids[1], x.number[1].get, x.number[2].get
    diags = list(x.diagnostics)
    flaws: dict[tuple, str] = {}  # (ray vectors, cone pairs) -> what keeps them from a fan

    def bad(code: str, msg: str) -> None:
        diags.append(Diagnostic(code, msg))

    for vid in sorted(s.fans):
        fan = s.fans[vid]
        v = x.number[0].get(vid)
        if v is None:
            bad("fan-vertex", f"fan attached to non-vertex {vid}")
            continue
        rays = [edge(e, -1) for _, e in fan.rays]  # numbers sort as ids do
        if sorted(rays) != list(x.star[v]):
            bad("fan-edge-mismatch", f"fan at {vid} covers edges "
                f"{sorted(e for _, e in fan.rays)}, incident are {[E[e] for e in x.star[v]]}")
            continue
        shape = (tuple([vec for vec, _ in fan.rays]), tuple([p for _, p in fan.cones]))
        if shape not in flaws:
            n = len(rays)
            tiled = len(shape[1]) == n and set(shape[1]) == {(i, (i + 1) % n) for i in range(n)}
            flaws[shape] = fan_flaw(shape[0]) or ("" if tiled else "cones do not tile the circle")
        if flaws[shape]:
            bad("fan-not-complete", f"fan at {vid} {flaws[shape]}")
            continue
        chain = x.corners[x.first[v]:x.first[v + 1]]
        if not chain and any(x.sides[e] for e in x.star[v]):  # reported as vertex-link
            continue
        corner_of = {f: (out, inn) for f, out, inn in chain}
        for face2, (i, j) in fan.cones:
            corner = corner_of.get(face(face2))
            if corner is None:
                bad("fan-cone-mismatch",
                    f"fan at {vid} assigns a cone to non-incident 2-cell {face2}")
            elif (rays[i], rays[j]) != corner:
                bad("fan-cone-mismatch", f"fan at {vid}, 2-cell {face2}: cone rays "
                    f"({fan.rays[i][1]}, {fan.rays[j][1]}) but corner edges "
                    f"({E[corner[0]]}, {E[corner[1]]})")
    return tuple(diags)


def combinatorial_dual(s: PolyhedralSurface,
                       fans: dict[str, VertexFan] | None = None) -> PolyhedralSurface:
    """Swap vertices with 2-cells; edges stay themselves with dual endpoints.
    Raises ValueError on a surface that is not closed and oriented.

    Fans do not dualize: the result carries ``fans``, none by default, and
    keeps the flags of ``s``.
    """
    x = s._index.closed()
    V, E, F = x.ids[0], x.ids[1], x.ids[2]
    cells: dict[str, Cell] = {}
    for fid in F:
        cells[fid] = Cell(fid, 0, (), s.cells[fid].singular_markers)
    for e, (a, b) in enumerate(x.sides):
        cells[E[e]] = Cell(E[e], 1, (F[a], F[b]), s.cells[E[e]].singular_markers)
    orientation: dict[str, tuple[str, ...]] = {}
    for v, vid in enumerate(V):
        cells[vid] = Cell(vid, 2, tuple([E[e] for e in x.star[v]]), s.cells[vid].singular_markers)
        orientation[vid] = tuple([F[f] for f, _, _ in x.corners[x.first[v]:x.first[v + 1]]])
    return PolyhedralSurface(cells, fans, orientation, s.asserted)


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
    return PolyhedralSurface(*read_complex(data))


def read_complex(data: dict) -> tuple[dict, dict, dict, dict]:
    """The cells, fans and boundary cycles by id, and the assertion flags, of
    a complex/v1 document: checked in one walk, and not numbered."""
    return schema.COMPLEX.parse(data, lambda cells, fans, orientation, asserted: (
        schema.unique("cells", [(cell[0], Cell(*cell)) for cell in cells]),
        schema.unique("fans", [(fan[0], VertexFan(*fan)) for fan in fans]),
        schema.unique("orientation", orientation),
        asserted,
    ))


def _cycle_canonical(cyc: Sequence[str]) -> tuple[str, ...]:
    # rotate so the lexicographically smallest entry comes first
    k = cyc.index(min(cyc))
    return tuple(cyc[k:]) + tuple(cyc[:k])


def canonical(cells: Mapping[str, Cell], fans: Mapping[str, VertexFan],
              orientation: Mapping[str, Sequence[str]]) -> tuple:
    """The cells, fans and boundary cycles of a complex, by id, as its text
    lists them: cells by dimension and id with sorted faces and markers, fans
    by vertex, each cycle from its smallest vertex; equal for equal complexes."""
    listed = [
        (c.id, c.dim, sorted(c.faces) if c.faces else None,
         sorted(c.singular_markers) if c.singular_markers else None)
        for c in sorted(cells.values(), key=lambda c: (c.dim, c.id))
    ]
    rays = [(vid, fans[vid].rays, fans[vid].cones) for vid in sorted(fans)]
    cycles = [(fid, _cycle_canonical(orientation[fid])) for fid in sorted(orientation)]
    return listed, rays or None, cycles or None


def complex_to_text(s: PolyhedralSurface) -> str:
    """The complex/v1 text of a surface; optional fields that are empty are left out."""
    return schema.COMPLEX.text((*canonical(s.cells, s.fans, s.orientation), s.asserted or None))
