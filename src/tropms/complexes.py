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
import json
from collections import deque
from typing import NamedTuple, Sequence

from . import schema
from .lattice import (
    Vec,
    ccw_cmp,
    det2,
    is_primitive,
    standard_triple,
)


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


class ValidationReport(NamedTuple):
    diagnostics: tuple[Diagnostic, ...]
    euler_characteristic: int

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]


class _SurfaceIndex(NamedTuple):
    by_dim: dict[int, list[str]]  # cell ids, sorted
    cofaces: dict[str, tuple[str, ...]]
    edge_of: dict[frozenset, str]  # endpoints -> edge id
    corners: dict[str, list[tuple[str, str, str]]]  # in 2-cell id order


class PolyhedralSurface:
    """Cells, fans, boundary cycles and assertion flags of one surface.

    ``cells`` (but for replacing a cell by one of its id and dimension) and
    ``orientation`` must not change after the first query: the cells of each
    dimension, cofaces, edges and corners are read from an index built once.
    """

    def __init__(self, cells: dict[str, Cell], fans: dict[str, VertexFan] | None = None,
                 orientation: dict[str, tuple[str, ...]] | None = None,
                 asserted: dict[str, bool] | None = None):
        self.cells = cells
        self.fans = {} if fans is None else fans
        self.orientation = {} if orientation is None else orientation
        self.asserted = {} if asserted is None else asserted

    def of_dim(self, d: int) -> list[Cell]:
        """Cells of one dimension in id order."""
        return [self.cells[i] for i in self._index.by_dim.get(d, ())]

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
        counts = [len(self.of_dim(d)) for d in (0, 1, 2)]
        return counts[0] - counts[1] + counts[2]

    @functools.cached_property
    def _index(self) -> _SurfaceIndex:
        by_dim: dict[int, list[str]] = {}
        cofaces: dict[str, list[str]] = {}
        edge_of: dict[frozenset, str] = {}
        for c in self.cells.values():
            by_dim.setdefault(c.dim, []).append(c.id)
            for f in set(c.faces):
                cofaces.setdefault(f, []).append(c.id)
            if c.dim == 1:
                edge_of[frozenset(c.faces)] = c.id
        by_dim = {d: sorted(ids) for d, ids in by_dim.items()}
        # a boundary step without an edge leaves its 2-cell out of the corners
        corners: dict[str, list[tuple[str, str, str]]] = {}
        for f in map(self.cells.get, by_dim.get(2, ())):
            cyc = self.orientation.get(f.id, ())
            eids = [edge_of.get(frozenset(p)) for p in zip(cyc, cyc[1:] + cyc[:1])]
            if None not in eids:
                for i, v in enumerate(cyc):
                    corners.setdefault(v, []).append((f.id, eids[i], eids[i - 1]))
        cofaces_sorted = {k: tuple(sorted(ids)) for k, ids in cofaces.items()}
        return _SurfaceIndex(by_dim, cofaces_sorted, edge_of, corners)

    def cofaces(self, cell_id: str) -> list[str]:
        return list(self._index.cofaces.get(cell_id, ()))

    def boundary_cycle(self, face_id: str) -> tuple[str, ...]:
        return self.orientation[face_id]

    def oriented_edges(self, face_id: str) -> list[tuple[str, str, str]]:
        """Directed boundary walk: (edge id, tail vertex, head vertex)."""
        cyc = self.orientation[face_id]
        out = []
        for i, v in enumerate(cyc):
            w = cyc[(i + 1) % len(cyc)]
            out.append((self.edge_between(v, w), v, w))
        return out

    def edge_between(self, v: str, w: str) -> str:
        """Edge whose endpoints are the given pair of vertices."""
        try:
            return self._index.edge_of[frozenset((v, w))]
        except KeyError:
            raise KeyError(f"no edge between {v} and {w}") from None

    def corners(self, vertex_id: str) -> list[tuple[str, str, str]]:
        """2-cells around a vertex in counterclockwise order as
        (face id, outgoing edge, incoming edge), chained so that the incoming
        edge of one corner is the outgoing edge of the next."""
        local = self._index.corners.get(vertex_id, [])
        if len({f for f, _, _ in local}) != len(local):
            raise ValueError(f"a 2-cell touches vertex {vertex_id} more than once")
        if not local:
            return []
        by_out = {out: (f, out, inn) for f, out, inn in local}
        start = min(by_out)
        chain = [by_out[start]]
        while True:
            nxt = chain[-1][2]
            if nxt == start:
                break
            if nxt not in by_out or len(chain) > len(local):
                raise ValueError(f"corners around {vertex_id} do not close up")
            chain.append(by_out[nxt])
        if len(chain) != len(local):
            raise ValueError(f"corners around {vertex_id} split into several cycles")
        return chain


def validate_surface(s: PolyhedralSurface) -> ValidationReport:
    """Structural checks for a closed oriented surface with affine fans."""
    diags: list[Diagnostic] = []

    def bad(code: str, msg: str) -> None:
        diags.append(Diagnostic(code, msg))

    for c in sorted(s.cells.values(), key=lambda c: (c.dim, c.id)):
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
        return ValidationReport(tuple(diags), s.euler_characteristic())

    for e in s.edges:
        n = len(s.cofaces(e.id))
        if n != 2:
            bad("edge-coface-count", f"edge {e.id} has {n} cofaces, expected 2")
    for v in s.vertices:
        if not s.cofaces(v.id):
            bad("vertex-isolated", f"vertex {v.id} is a face of no edge")

    directed: dict[tuple[str, str], list[str]] = {}
    for f in s.faces2:
        if f.id not in s.orientation:
            bad("orientation-missing", f"2-cell {f.id} has no boundary cycle")
            continue
        cyc = s.orientation[f.id]
        if len(set(cyc)) != len(cyc) or len(cyc) < 3:
            bad("orientation-degenerate", f"2-cell {f.id} cycle {cyc} is degenerate")
            continue
        try:
            walk = s.oriented_edges(f.id)
        except KeyError as exc:
            bad("orientation-edge", f"2-cell {f.id}: {exc}")
            continue
        if sorted(e for e, _, _ in walk) != sorted(f.faces):
            bad(
                "orientation-face-mismatch",
                f"2-cell {f.id} boundary cycle does not match its edge list",
            )
        for eid, v, w in walk:
            directed.setdefault((v, w), []).append(f.id)
    for (v, w), users in sorted(directed.items()):
        if len(users) > 1:
            bad(
                "orientation-inconsistent",
                f"edge {v}->{w} traversed twice (by {users})",
            )
        if (w, v) not in directed:
            bad(
                "orientation-inconsistent",
                f"edge {v}->{w} never traversed in the opposite direction",
            )

    chi = s.euler_characteristic()
    if chi % 2 != 0:
        bad("euler-characteristic-odd", f"closed surface cannot have chi = {chi}")
    if any(d.code.startswith("orientation-") for d in diags):
        # corners are read off the boundary cycles, so they are undefined
        return ValidationReport(tuple(diags), chi)

    for vid in sorted(s.fans):
        fan = s.fans[vid]
        if vid not in s.cells or s.cells[vid].dim != 0:
            bad("fan-vertex", f"fan attached to non-vertex {vid}")
            continue
        incident = s.cofaces(vid)
        fan_edges = sorted(e for _, e in fan.rays)
        if fan_edges != incident:
            bad(
                "fan-edge-mismatch",
                f"fan at {vid} covers edges {fan_edges}, incident are {incident}",
            )
            continue
        n = len(fan.rays)
        vecs = [v for v, _ in fan.rays]
        if any(not is_primitive(v) for v in vecs):
            bad("fan-not-complete", f"fan at {vid} has a non-primitive ray")
            continue
        ok_order = all(det2(vecs[i], vecs[(i + 1) % n]) > 0 for i in range(n))
        descents = sum(
            1 for i in range(n) if ccw_cmp(vecs[i], vecs[(i + 1) % n]) > 0
        )
        if not ok_order or descents != 1:
            bad("fan-not-complete", f"fan at {vid} rays do not sweep one full turn")
            continue
        sectors = {(i, (i + 1) % n) for i in range(n)}
        got = {pair for _, pair in fan.cones}
        if got != sectors or len(fan.cones) != n:
            bad("fan-not-complete", f"fan at {vid} cones do not tile the circle")
            continue
        try:
            corner_list = s.corners(vid)
        except ValueError as exc:
            bad("fan-cone-mismatch", str(exc))
            continue
        corner_by_face = {f: (out, inn) for f, out, inn in corner_list}
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

    return ValidationReport(tuple(diags), chi)


def check_standard_vertex(fan: VertexFan) -> bool:
    """Three primitive rays summing to zero and pairwise lattice bases."""
    return standard_triple([v for v, _ in fan.rays])


def combinatorial_dual(s: PolyhedralSurface) -> PolyhedralSurface:
    """Swap vertices with 2-cells; edges stay themselves with dual endpoints.

    Fans do not dualize: the result has none, and keeps the flags of ``s``.
    """
    cells: dict[str, Cell] = {}
    for f in s.faces2:
        cells[f.id] = Cell(f.id, 0, (), s.cells[f.id].singular_markers)
    for e in s.edges:
        sides = s.cofaces(e.id)
        if len(sides) != 2:
            raise ValueError(f"edge {e.id} has {len(sides)} cofaces; dual undefined")
        cells[e.id] = Cell(e.id, 1, tuple(sides), e.singular_markers)
    orientation: dict[str, tuple[str, ...]] = {}
    for v in s.vertices:
        chain = s.corners(v.id)
        if not chain:
            raise ValueError(f"vertex {v.id} has no incident 2-cells")
        incident_edges = tuple(sorted({out for _, out, _ in chain}))
        cells[v.id] = Cell(v.id, 2, incident_edges, s.cells[v.id].singular_markers)
        orientation[v.id] = tuple(f for f, _, _ in chain)
    return PolyhedralSurface(
        cells=cells,
        fans={},
        orientation=orientation,
        asserted=dict(s.asserted),
    )


def surface_from_cycles(
    face_cycles: dict[str, tuple[str, ...]],
    asserted: dict[str, bool] | None = None,
) -> PolyhedralSurface:
    """Assemble a closed surface from oriented boundary cycles of its 2-cells.

    Vertices are created as encountered; edges get content-derived ids, so the
    result does not depend on dict order.
    """
    cells: dict[str, Cell] = {}
    edge_ids: dict[frozenset, str] = {}
    for cyc in face_cycles.values():
        for v in cyc:
            cells.setdefault(v, Cell(v, 0))
        for i, v in enumerate(cyc):
            w = cyc[(i + 1) % len(cyc)]
            key = frozenset((v, w))
            if key not in edge_ids:
                eid = "e" + "".join(sorted((v, w)))
                edge_ids[key] = eid
                cells[eid] = Cell(eid, 1, tuple(sorted((v, w))))
    orientation = {}
    for fid, cyc in sorted(face_cycles.items()):
        es = tuple(
            edge_ids[frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))]
            for i in range(len(cyc))
        )
        cells[fid] = Cell(fid, 2, es)
        orientation[fid] = tuple(cyc)
    return PolyhedralSurface(cells, {}, orientation, dict(asserted or {}))


def orient_cycles(
    face_cycles: dict[str, tuple[str, ...]]
) -> dict[str, tuple[str, ...]]:
    """Flip whole boundary cycles until every shared edge is traversed once in
    each direction; breadth-first from the lexicographically smallest face id.

    Works on any orientable closed complex; an inconsistent input surfaces
    later as a validation failure, not here.
    """
    users: dict[frozenset, list[str]] = {}
    for fid, cyc in face_cycles.items():
        for i, v in enumerate(cyc):
            users.setdefault(frozenset((v, cyc[(i + 1) % len(cyc)])), []).append(fid)
    out = {}
    flip = {}
    queue = deque()
    for start in sorted(face_cycles):
        if start in flip:
            continue
        flip[start] = False
        queue.append(start)
        while queue:
            fid = queue.popleft()
            cyc = face_cycles[fid]
            if flip[fid]:
                cyc = tuple(reversed(cyc))
            out[fid] = tuple(cyc)
            for i, v in enumerate(cyc):
                w = cyc[(i + 1) % len(cyc)]
                for other in users[frozenset((v, w))]:
                    if other == fid or other in flip:
                        continue
                    ocyc = face_cycles[other]
                    same = any(
                        (ocyc[j], ocyc[(j + 1) % len(ocyc)]) == (v, w)
                        for j in range(len(ocyc))
                    )
                    flip[other] = same  # same direction means it must flip
                    queue.append(other)
    return out


# -- serialization ------------------------------------------------------------


def parse_complex(data: dict) -> PolyhedralSurface:
    return schema.COMPLEX.parse(data, _build_complex)


def _build_complex(cells, fans, orientation, asserted) -> PolyhedralSurface:
    return PolyhedralSurface(
        schema.unique("cells", [(cell[0], Cell(*cell)) for cell in cells]),
        schema.unique("fans", [(fan[0], VertexFan(*fan)) for fan in fans]),
        schema.unique("orientation", orientation),
        dict(asserted),
    )


def _cycle_canonical(cyc: Sequence[str]) -> tuple[str, ...]:
    # rotate so the lexicographically smallest entry comes first
    k = min(range(len(cyc)), key=lambda i: cyc[i])
    return tuple(cyc[k:]) + tuple(cyc[:k])


def complex_to_text(s: PolyhedralSurface) -> str:
    """The complex/v1 text of a surface; optional fields that are empty are
    left out."""
    cells = [
        (c.id, c.dim, sorted(c.faces) or None, sorted(c.singular_markers) or None)
        for c in sorted(s.cells.values(), key=lambda c: (c.dim, c.id))
    ]
    fans = [(vid, s.fans[vid].rays, s.fans[vid].cones) for vid in sorted(s.fans)]
    orientation = [(fid, _cycle_canonical(s.orientation[fid])) for fid in sorted(s.orientation)]
    return schema.COMPLEX.text((cells, fans or None, orientation or None, s.asserted or None))


def complex_to_json(s: PolyhedralSurface) -> dict:
    """The complex/v1 document of a surface, read back from its text."""
    return json.loads(complex_to_text(s))
