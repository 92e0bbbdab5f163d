"""Shared hand-built fixtures: small closed surfaces with standard fans, a
modified copy of a read-only surface, cover or section, an in-process
runner for the command line, cochains read by cell ids, the
coboundary of an order complex gauged on a spanning tree of its chains, and
the holonomy of a transport around a cycle."""

import contextlib
import inspect
import io
from fractions import Fraction
from math import prod
from typing import NamedTuple

from tropms.cli import main
from tropms.complexes import PolyhedralSurface, VertexFan, surface_from_cycles
from tropms.covers import BranchedCover, MultiSection


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout, then stderr


def ids(bar, cells) -> list[tuple[str, ...]]:
    """The node ids of each of ``cells`` (``bar.chains`` or ``bar.edges``)
    of the order complex ``bar``."""
    return [tuple(map(bar.nodes.__getitem__, cell)) for cell in cells]


def by_id(bar, cochain, cells) -> dict:
    """A cochain on ``cells`` of the order complex ``bar`` as rationals keyed
    by the ids of each cell's nodes."""
    return dict(zip(ids(bar, cells), cochain.fractions(), strict=True))


def tree_gauged_rows(bar) -> list[dict[int, Fraction]]:
    """The rows of the coboundary d(k)(v, e, f) = k(e, f) + k(v, e) - k(v, f)
    on exponents, one per chain, restricted to the edges of a spanning tree
    of the chains (two chains are adjacent through a shared edge), as
    {tree edge column: coefficient}.

    Restricted to a tree the map is injective, and its image has the
    dimension of the image of the whole map, one less than the number of
    chains (H^2 of the total space is Z): the two images agree.
    """
    owners: dict[int, list[int]] = {}
    for t, sides in enumerate(bar.sides):
        for b in sides:
            owners.setdefault(b, []).append(t)
    root = list(range(len(bar.chains)))

    def find(t):
        while root[t] != t:
            root[t] = root[root[t]]
            t = root[t]
        return t

    column = {}
    for b, (s, t) in sorted(owners.items()):
        if find(s) != find(t):
            root[find(s)] = find(t)
            column[b] = len(column)
    assert len(column) == len(bar.chains) - 1
    return [
        {column[b]: Fraction(sign) for b, sign in zip(sides, (1, 1, -1)) if b in column}
        for sides in bar.sides
    ]


def holonomy(t, cycle, sigma) -> Fraction:
    """Multiplicative holonomy of the sheet-comparison constants of the
    transport ``t`` around a cycle bounding the 2-cell ``sigma``: the product
    of its ``transport_ratios``. With the canonical bounding cochain it is 1
    for consistent gluing data; a transport on an explicit cochain exposes
    corrupted data."""
    from tropms.certificate import transport_ratios

    return prod((lam for _, lam in transport_ratios(t, list(cycle), sigma)), start=Fraction(1))


def rebuilt(obj, **fields):
    """A copy of a surface, cover or section built with the given
    constructor arguments replaced: the three are read-only once built."""
    names = inspect.signature(type(obj)).parameters
    return type(obj)(**{name: fields.get(name, getattr(obj, name)) for name in names})


def run_cli(argv) -> CliResult:
    """Run ``tropms argv`` in this process and capture its exit code and
    streams; an exception that ``main`` does not map to an exit code
    propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # usage errors and --version
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue(), out.getvalue() + err.getvalue())


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


def triangulated_torus() -> PolyhedralSurface:
    """A 3x3 triangulated torus without fans: 9 vertices, 27 edges and 18
    triangles a{i}{j}, b{i}{j}."""

    def v(i, j):
        return f"v{i % 3}{j % 3}"

    faces = {}
    for i in range(3):
        for j in range(3):
            faces[f"a{i}{j}"] = (v(i, j), v(i + 1, j), v(i + 1, j + 1))
            faces[f"b{i}{j}"] = (v(i, j), v(i + 1, j + 1), v(i, j + 1))
    return surface_from_cycles(faces)


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
        corners = s.corners(v.id)
        for (lid, _), cyc in zip(cover.computed_lifts(v.id), cover.lift_cycles(v.id)):
            for i, sheet in cyc:
                slopes[(lid, corners[i][0], sheet)] = (0, 0)
    return MultiSection(cover, slopes, "two sheets")
