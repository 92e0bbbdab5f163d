"""Deterministic SVG rendering of a manifest bundle.

Five layers: ``base`` draws the complex (one vertex glyph per base vertex,
singular cells marked), ``cover`` adds the vertex lifts and sheet-offset
edges, ``G0`` highlights the branch-free graph, ``cycles`` highlights its
minimal cycles, and ``fiber`` draws the branch-free pair graph. Layout is a
Tutte embedding of the base 1-skeleton with the lexicographically smallest
2-cell as outer boundary, solved once with numpy and rounded, so output is
byte-stable. The TOOL_SEED environment variable only rotates the outer ring;
the default of 0 is itself deterministic.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .graphs import build_G0, build_G0_tilde, find_minimal_cycles
from .pipeline import Manifest, load_bundle

LAYERS = ("base", "cover", "G0", "cycles", "fiber")

_SIZE = 600
_RADIUS = 250


def _layout(surface, seed: int) -> dict[str, tuple[float, float]]:
    """Tutte embedding: outer face pinned on a circle, interior vertices at
    the centroid of their neighbors."""
    vids = sorted(v.id for v in surface.vertices)
    outer = min(f.id for f in surface.faces2)
    ring = surface.boundary_cycle(outer)
    spin = 2.0 * math.pi * (seed % 360) / 360.0
    pos = {}
    for k, v in enumerate(ring):
        ang = spin + 2.0 * math.pi * k / len(ring)
        pos[v] = (
            _SIZE / 2 + _RADIUS * math.cos(ang),
            _SIZE / 2 + _RADIUS * math.sin(ang),
        )
    neighbors: dict[str, set[str]] = {v: set() for v in vids}
    for e in surface.edges:
        a, b = e.faces
        neighbors[a].add(b)
        neighbors[b].add(a)
    free = [v for v in vids if v not in pos]
    if free:
        fi = {v: i for i, v in enumerate(free)}
        mat = np.zeros((len(free), len(free)))
        rhs = np.zeros((len(free), 2))
        for v in free:
            i = fi[v]
            mat[i, i] = len(neighbors[v])
            for w in sorted(neighbors[v]):
                if w in fi:
                    mat[i, fi[w]] -= 1.0
                else:
                    rhs[i, 0] += pos[w][0]
                    rhs[i, 1] += pos[w][1]
        sol = np.linalg.solve(mat, rhs)
        for v in free:
            pos[v] = (float(sol[fi[v], 0]), float(sol[fi[v], 1]))
    return {v: (round(x, 2), round(y, 2)) for v, (x, y) in pos.items()}


def _line(a, b, cls, width=1.0) -> str:
    return (
        f'<line class="{cls}" x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
        f'stroke-width="{width}"/>'
    )


def _dot(p, cls, r=4.0) -> str:
    return f'<circle class="{cls}" cx="{p[0]}" cy="{p[1]}" r="{r}"/>'


def _offset(a, b, amount):
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm = math.hypot(dx, dy) or 1.0
    ox, oy = -dy / norm * amount, dx / norm * amount
    return (
        (round(a[0] + ox, 2), round(a[1] + oy, 2)),
        (round(b[0] + ox, 2), round(b[1] + oy, 2)),
    )


_STYLE = (
    "<style>"
    ".edge{stroke:#888;}.vertex{fill:#222;}.singular{fill:none;stroke:#c22;}"
    ".lift{fill:#26c;}.branch{fill:#c22;}.cover-edge{stroke:#9bd;}"
    ".g0-vertex{fill:#2a2;}.g0-edge{stroke:#2a2;}"
    ".cycle{stroke:#e60;fill:none;}.pair{fill:#62a;}.pair-edge{stroke:#b9d;}"
    "</style>"
)


def render_svg(manifest: Manifest, layer: str) -> str:
    """Render one layer of the manifest bundle as an SVG document."""
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}; pick one of {LAYERS}")
    seed = int(os.environ.get("TOOL_SEED", "0"))
    msec, _ = load_bundle(manifest)
    surface = msec.cover.base
    pos = _layout(surface, seed)
    body: list[str] = [_STYLE]

    def skeleton():
        for e in surface.edges:
            body.append(_line(pos[e.faces[0]], pos[e.faces[1]], "edge"))
        for v in surface.vertices:
            body.append(_dot(pos[v.id], "vertex"))

    if layer == "base":
        skeleton()
        for c in sorted(surface.cells.values(), key=lambda c: c.id):
            if not c.singular_markers:
                continue
            if c.dim == 2:
                cyc = surface.boundary_cycle(c.id)
                x = round(sum(pos[v][0] for v in cyc) / len(cyc), 2)
                y = round(sum(pos[v][1] for v in cyc) / len(cyc), 2)
            elif c.dim == 1:
                a, b = pos[c.faces[0]], pos[c.faces[1]]
                x, y = round((a[0] + b[0]) / 2, 2), round((a[1] + b[1]) / 2, 2)
            else:
                x, y = pos[c.id]
            body.append(f'<circle class="singular" cx="{x}" cy="{y}" r="7"/>')

    elif layer == "cover":
        cover = msec.cover
        for e in surface.edges:
            a, b = pos[e.faces[0]], pos[e.faces[1]]
            for lift in range(cover.degree):
                oa, ob = _offset(a, b, 3.0 * (lift - (cover.degree - 1) / 2.0))
                body.append(_line(oa, ob, "cover-edge"))
        for v in surface.vertices:
            lifts = cover.vertex_lift_ids(v.id)
            cls = "branch" if v.id in cover.branch_vertices else "lift"
            x, y = pos[v.id]
            for k in range(len(lifts)):
                ang = 2.0 * math.pi * k / len(lifts)
                body.append(
                    _dot((round(x + 6 * math.cos(ang), 2),
                          round(y + 6 * math.sin(ang), 2)), cls, r=3.0)
                )

    elif layer == "G0":
        skeleton()
        g0 = build_G0(msec)
        for eid in sorted(g0.edges):
            a, b = surface.cells[eid].faces
            body.append(_line(pos[a], pos[b], "g0-edge", width=3.0))
        for v in sorted(g0.vertices):
            body.append(_dot(pos[v], "g0-vertex", r=5.0))

    elif layer == "cycles":
        skeleton()
        for cycle, _fid in find_minimal_cycles(build_G0(msec)):
            pts = " ".join(f"{pos[v][0]},{pos[v][1]}" for v in cycle)
            body.append(f'<polygon class="cycle" points="{pts}" stroke-width="4"/>')

    elif layer == "fiber":
        gt = build_G0_tilde(msec)
        fp = gt.host
        spots = {}
        for pv in sorted(gt.vertices):
            cell = fp.cells[pv]
            sa = int(cell.a.rpartition("#")[2])
            sb = int(cell.b.rpartition("#")[2])
            x, y = pos[cell.base]
            spots[pv] = (round(x + 8 * (sa - sb), 2), round(y + 8 * (sa + sb - 1), 2))
        for eid in sorted(gt.edges):
            ends = fp.cells[eid].faces
            body.append(_line(spots[ends[0]], spots[ends[1]], "pair-edge"))
        for pv in sorted(gt.vertices):
            body.append(_dot(spots[pv], "pair", r=3.5))

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"
