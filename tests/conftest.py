"""Shared hand-built fixtures: small closed surfaces with standard fans."""

from tropms.complexes import PolyhedralSurface, VertexFan, surface_from_cycles
from tropms.covers import BranchedCover, MultiSection

STD = ((1, 0), (0, 1), (-1, -1))


def attach_standard_fans(s: PolyhedralSurface) -> None:
    """Give every trivalent vertex the standard fan, rays assigned to outgoing
    edges in counterclockwise corner order."""
    for v in s.vertices:
        chain = s.corners(v.id)
        if len(chain) != 3:
            raise ValueError(f"vertex {v.id} is not trivalent")
        rays = tuple((STD[i], out) for i, (_, out, _) in enumerate(chain))
        cones = tuple((f, (i, (i + 1) % 3)) for i, (f, _, _) in enumerate(chain))
        s.fans[v.id] = VertexFan(v.id, rays, cones)


def tetrahedron() -> PolyhedralSurface:
    s = surface_from_cycles(
        {
            "fABC": ("A", "B", "C"),
            "fACD": ("A", "C", "D"),
            "fADB": ("A", "D", "B"),
            "fBDC": ("B", "D", "C"),
        },
        {"regular": True},
    )
    attach_standard_fans(s)
    return s


def cube_surface() -> PolyhedralSurface:
    """Surface of the unit cube: 8 trivalent vertices, outward-oriented faces."""

    def v(x, y, z):
        return f"v{x}{y}{z}"

    faces = {
        "fz1": (v(0, 0, 1), v(1, 0, 1), v(1, 1, 1), v(0, 1, 1)),
        "fz0": (v(0, 0, 0), v(0, 1, 0), v(1, 1, 0), v(1, 0, 0)),
        "fx1": (v(1, 0, 0), v(1, 1, 0), v(1, 1, 1), v(1, 0, 1)),
        "fx0": (v(0, 0, 0), v(0, 0, 1), v(0, 1, 1), v(0, 1, 0)),
        "fy1": (v(0, 1, 0), v(0, 1, 1), v(1, 1, 1), v(1, 1, 0)),
        "fy0": (v(0, 0, 0), v(1, 0, 0), v(1, 0, 1), v(0, 0, 1)),
    }
    s = surface_from_cycles(faces)
    attach_standard_fans(s)
    return s


def two_sheet_cover() -> MultiSection:
    """Two identity-matched sheets over the tetrahedron with zero slopes: a
    disconnected double cover."""
    s = tetrahedron()
    cover = BranchedCover(
        s, 2, {e.id: (0, 1) for e in s.edges}, frozenset(),
        {v.id: ((0,), (1,)) for v in s.vertices},
    )
    slopes = {}
    for v in s.vertices:
        corners = cover.wall_sequence(v.id)
        for lid, cyc in zip(cover.vertex_lift_ids(v.id), cover.lift_cycles(v.id)):
            for i, sheet in cyc:
                slopes[(lid, corners[i][0], sheet)] = (0, 0)
    return MultiSection(cover, slopes, "two sheets")
