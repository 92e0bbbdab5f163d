"""Reference checks written from the definitions in ``docs/GLOSSARY.md``, for
differential testing against ``tropms`` (McKeeman, "Differential Testing for
Software", Digital Technical Journal 10(1), 1998).

A reference works on a decoded input document, on its ids and plain dicts,
and imports nothing from ``tropms``: no numbering, no index and no shared
helper, so that a fault in the checker cannot hide in both.
"""

from functools import cmp_to_key
from math import gcd


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _ccw(u, v) -> int:
    """Order of two nonzero vectors by angle from the positive x-axis."""
    upper_u = u[1] > 0 or (u[1] == 0 and u[0] > 0)
    upper_v = v[1] > 0 or (v[1] == 0 and v[0] > 0)
    if upper_u != upper_v:
        return -1 if upper_u else 1
    return -_cross(u, v)


def _complete(rays, cones) -> bool:
    """Whether rays listed in order are the primitive rays of a complete fan,
    turning once around the origin strictly counterclockwise, and the cones
    are its n cones, each a pair of consecutive ray positions."""
    n = len(rays)
    if n < 3 or any(gcd(x, y) != 1 for x, y in rays) or len(set(rays)) != n:
        return False
    by_angle = sorted(rays, key=cmp_to_key(_ccw))
    k = by_angle.index(rays[0])
    if by_angle[k:] + by_angle[:k] != rays:
        return False
    if any(_cross(rays[i - 1], rays[i]) <= 0 for i in range(n)):
        return False  # some cone is not strictly convex
    return sorted(cones) == sorted((i, (i + 1) % n) for i in range(n))


def surface_codes(doc: dict) -> set[str]:
    """The codes of the glossary's complex-structure family that a complex/v1
    document breaks: its surface must be a closed oriented 2-complex whose
    fans are complete and match the 2-cells around each vertex.

    - ``cell-dim``: a cell of a dimension other than 0, 1 and 2. Such a cell
      is left out of the surface: it is no vertex, edge or 2-cell.
    - Structure: a cell of dimension 0, 1 or 2 lists a face that is no cell
      (``missing-face``) or one that is not of one dimension less
      (``face-dim``); a vertex lists faces (``face-dim``); an edge does not
      list two distinct endpoints (``edge-endpoints``).
    - ``edge-coface-count``: an edge is a face of other than two 2-cells.
    - ``vertex-isolated``: a vertex is a face of no edge.
    - ``orientation-*``, for each 2-cell: it has no boundary cycle
      (``-missing``); its cycle has fewer than three entries or repeats one
      (``-degenerate``); two consecutive entries, cyclically, are joined by
      no edge (``-edge``); the edges the cycle steps along are not, with
      repeats, those the 2-cell lists (``-face-mismatch``). Over all cycles
      that step along edges, a step from v to w is taken twice, or the step
      from w to v is never taken (``-inconsistent``). Where several edges
      join two vertices, the glossary leaves open which one a step takes;
      this takes the last in id order, as the checker does.
    - ``euler-characteristic-odd``: vertices minus edges plus 2-cells is odd.
    - ``vertex-link``: around a vertex, the corners, one per 2-cell whose
      cycle passes through it, with the edges the cycle leaves and enters it
      by, do not close into one cycle when each corner is followed by the
      corner leaving along the edge it entered by.
    - ``fan-*``, for each fan, each check only when those before it pass:
      the fan is attached to no vertex (``fan-vertex``); the edges of its
      rays, with repeats, are not the edges at the vertex
      (``fan-edge-mismatch``); its rays and cones are no complete fan
      (``fan-not-complete``); at a vertex whose corners close into one
      cycle, a cone lies on a 2-cell with no corner there, or its two rays
      are on other edges than that corner leaves and enters by
      (``fan-cone-mismatch``).

    The checks stop at two points: a structure fault stops every later
    check, and an ``orientation-*`` fault stops the checks of
    ``vertex-link`` and ``fan-*``.
    """
    codes: set[str] = set()
    dim = {c["id"]: c["dim"] for c in doc.get("cells", [])}
    faces = {c["id"]: c.get("faces", []) for c in doc.get("cells", [])}
    for cid, d in dim.items():
        if d not in (0, 1, 2):
            codes.add("cell-dim")
            continue
        for f in faces[cid]:
            if f not in dim:
                codes.add("missing-face")
            elif dim[f] != d - 1:
                codes.add("face-dim")
        if d == 0 and faces[cid]:
            codes.add("face-dim")
        if d == 1 and (len(faces[cid]) != 2 or len(set(faces[cid])) != 2):
            codes.add("edge-endpoints")
    if codes & {"missing-face", "face-dim", "edge-endpoints"}:
        return codes

    vertices = sorted(c for c, d in dim.items() if d == 0)
    edges = sorted(c for c, d in dim.items() if d == 1)
    cells2 = sorted(c for c, d in dim.items() if d == 2)
    for e in edges:
        if sum(e in faces[f] for f in cells2) != 2:
            codes.add("edge-coface-count")
    at = {v: sorted(e for e in edges if v in faces[e]) for v in vertices}
    if any(not star for star in at.values()):
        codes.add("vertex-isolated")

    joining = {}  # unordered vertex pair -> the edge a cycle step takes
    for e in edges:
        joining[frozenset(faces[e])] = e
    cycles = {o["face2"]: o.get("cycle", []) for o in doc.get("orientation", [])}
    steps: dict[tuple[str, str], list[str]] = {}
    corners = {v: [] for v in vertices}  # vertex -> (2-cell, edge out, edge in)
    for f in cells2:
        cyc = cycles.get(f)
        if cyc is None:
            codes.add("orientation-missing")
            continue
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            codes.add("orientation-degenerate")
            continue
        pairs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
        walk = [joining.get(frozenset(p)) for p in pairs]
        if None in walk:
            codes.add("orientation-edge")
            continue
        if sorted(walk) != sorted(faces[f]):
            codes.add("orientation-face-mismatch")
        for i, p in enumerate(pairs):
            steps.setdefault(p, []).append(f)
            corners[p[0]].append((f, walk[i], walk[i - 1]))
    for (v, w), users in steps.items():
        if len(users) > 1 or (w, v) not in steps:
            codes.add("orientation-inconsistent")

    if (len(vertices) - len(edges) + len(cells2)) % 2:
        codes.add("euler-characteristic-odd")
    if any(code.startswith("orientation-") for code in codes):
        return codes

    closed = {}  # vertex -> whether its corners close into one cycle
    for v, around in corners.items():
        leaving = {out: (f, out, inn) for f, out, inn in around}
        orbit, corner = [], around[0] if around else None
        while corner is not None and corner not in orbit:
            orbit.append(corner)
            corner = leaving.get(corner[2])
        closed[v] = not around or (corner == around[0] and len(orbit) == len(around))
        if not closed[v]:
            codes.add("vertex-link")

    for fan in doc.get("fans", []):
        v = fan["vertex"]
        if v not in at:
            codes.add("fan-vertex")
            continue
        rays = fan.get("rays", [])
        if sorted(r["edge"] for r in rays) != at[v]:
            codes.add("fan-edge-mismatch")
            continue
        cones = fan.get("cones", [])
        if not _complete([tuple(r["vec"]) for r in rays], [tuple(c["rays"]) for c in cones]):
            codes.add("fan-not-complete")
            continue
        if not closed[v]:
            continue
        corner_of = {f: (out, inn) for f, out, inn in corners[v]}
        for cone in cones:
            i, j = cone["rays"]
            if corner_of.get(cone["face2"]) != (rays[i]["edge"], rays[j]["edge"]):
                codes.add("fan-cone-mismatch")
    return codes


COVER_DECLARATIONS = frozenset({"lift-mismatch", "ramification-mismatch",
                                "undeclared-branch-vertex", "trivial-branch-vertex"})


def section_codes(doc: dict) -> set[str]:
    """The codes of the glossary's cover-structure and section-data families
    that a multisection/v1 document breaks, by the conventions of its
    "branched cover" entry: edge lift i meets sheet i of the edge's first
    coface by id and sheet perm[i] of the other; a vertex's first corner
    leaves along its smallest-id edge, and the corners follow ccw, each the
    one leaving along the edge the last entered by; a vertex lift is an orbit
    of (corner, sheet) under crossing the wall a corner enters by, named
    ``{vertex}#{s}`` for its smallest sheet s at the first corner; and a
    vertex's ramification is the partition of those sheets into lifts.

    - ``cover-degree``: the degree is below 1.
    - ``edge-matching``: the matchings are not on exactly the edges of the
      base, or one is no permutation of the sheets 0..degree-1.
    - ``branch-not-vertex``: a branch point is no vertex.
    - ``lift-mismatch``: the document lists lifts, and they are not, vertex
      by vertex, the computed lifts ordered by their smallest sheet, each as
      its id and its sheets at the first corner in increasing order.
    - ``ramification-mismatch``: a vertex's declared partition, each sheet
      its own block where none is declared, is not the computed one up to
      order; or a partition is declared for no vertex.
    - ``undeclared-branch-vertex``, ``trivial-branch-vertex``: a vertex is
      ramified and not a branch point, or a branch point and unramified.
    - ``cover-disconnected``: the sheets of the 2-cells, joined across each
      edge lift, fall into several components.
    - ``slope-coverage``: the slopes are not given on exactly the (vertex
      lift, 2-cell, sheet) of the nodes of the lifts.
    - ``slope-discontinuous``: at a lift over at most two sheets at each
      corner, across some wall, the vertex has no fan ray on the wall's
      edge, or the slope jump is no multiple of the quarter-turned ray.

    The checks stop at three points: ``cover-degree`` stops every later
    check; a fault of the base (``surface_codes``), ``edge-matching`` or
    ``branch-not-vertex`` stops the checks from ``lift-mismatch`` on; and
    any cover fault other than the four of a declaration
    (``COVER_DECLARATIONS``) stops the section-data checks.
    """
    degree = doc["degree"]
    if degree < 1:
        return {"cover-degree"}
    base = doc["complex"]
    dim = {c["id"]: c["dim"] for c in base.get("cells", [])}
    faces = {c["id"]: c.get("faces", []) for c in base.get("cells", [])}
    vertices = sorted(c for c, d in dim.items() if d == 0)
    edges = sorted(c for c, d in dim.items() if d == 1)
    cells2 = sorted(c for c, d in dim.items() if d == 2)
    perm = {m["edge"]: m["perm"] for m in doc.get("matchings", [])}
    codes = set()
    if sorted(perm) != edges or any(sorted(p) != list(range(degree)) for p in perm.values()):
        codes.add("edge-matching")
    if any(v not in vertices for v in doc.get("branch", [])):
        codes.add("branch-not-vertex")
    if codes or surface_codes(base):
        return codes

    cofaces = {e: [] for e in edges}  # each edge's two 2-cells, in id order
    for f in cells2:
        for e in faces[f]:
            cofaces[e].append(f)

    def sheet(e, f, lift):  # the sheet of 2-cell f on one lift of its edge e
        return lift if f == cofaces[e][0] else perm[e][lift]

    def lift_of(e, f, s):  # the lift of edge e on sheet s of 2-cell f
        return next(lift for lift in range(degree) if sheet(e, f, lift) == s)

    joining = {frozenset(faces[e]): e for e in edges}  # the last in id order, as above
    around = {v: {} for v in vertices}  # vertex -> edge out -> (2-cell, edge in)
    for o in base.get("orientation", []):
        cyc = o["cycle"]
        for i, v in enumerate(cyc):
            out = joining[frozenset((v, cyc[(i + 1) % len(cyc)]))]
            around[v][out] = (o["face2"], joining[frozenset((cyc[i - 1], v))])

    fans = {fan["vertex"]: {r["edge"]: r["vec"] for r in fan["rays"]}
            for fan in base.get("fans", [])}
    computed, nodes, walls = {}, set(), []  # a wall: (vertex, edge, slope keys before and after)
    for v in vertices:
        chain = [min(around[v])]
        while around[v][chain[-1]][1] != chain[0]:
            chain.append(around[v][chain[-1]][1])
        corners = [(around[v][out][0], around[v][out][1]) for out in chain]
        k, seen, computed[v] = len(corners), set(), []
        for s0 in range(degree):
            if (0, s0) in seen:
                continue
            orbit, (i, s) = [], (0, s0)
            while (i, s) not in seen:
                seen.add((i, s))
                orbit.append((i, s))
                f, wall = corners[i]
                i = (i + 1) % k
                s = sheet(wall, corners[i][0], lift_of(wall, f, s))
            name = f"{v}#{s0}"
            computed[v].append((name, sorted(s for i, s in orbit if i == 0)))
            keys = [(name, corners[i][0], s) for i, s in orbit]
            nodes.update(keys)
            if len(orbit) <= 2 * k:  # over at most two sheets at each corner
                walls += [(v, corners[i][1], keys[n], keys[(n + 1) % len(keys)])
                          for n, (i, _) in enumerate(orbit)]

    if "lifts" in doc:
        declared = {e["vertex"]: [(x["id"], list(x["sheets"])) for x in e["lifts"]]
                    for e in doc["lifts"]}
        if declared != computed:
            codes.add("lift-mismatch")
    ramification = {e["vertex"]: sorted(sorted(b) for b in e["blocks"])
                    for e in doc.get("ramification", [])}
    branch = set(doc.get("branch", []))
    for v in vertices:
        blocks = [sheets for _, sheets in computed[v]]
        if ramification.get(v, [[s] for s in range(degree)]) != blocks:
            codes.add("ramification-mismatch")
        if len(blocks) < degree and v not in branch:
            codes.add("undeclared-branch-vertex")
        if len(blocks) == degree and v in branch:
            codes.add("trivial-branch-vertex")
    if any(v not in around for v in ramification):
        codes.add("ramification-mismatch")
    component = {(f, s): {(f, s)} for f in cells2 for s in range(degree)}
    for e, (a, b) in cofaces.items():
        for lift in range(degree):
            x, y = component[a, sheet(e, a, lift)], component[b, sheet(e, b, lift)]
            if x is not y:
                x |= y
                for member in y:
                    component[member] = x
    if len({id(c) for c in component.values()}) > 1:
        codes.add("cover-disconnected")
    if codes - COVER_DECLARATIONS:
        return codes

    slopes = {(s["vertex_lift"], s["face2"], s["sheet"]): s["slope"]
              for s in doc.get("slopes", [])}
    if slopes.keys() != nodes:
        return codes | {"slope-coverage"}
    for v, wall, before, after in walls:
        ray = fans.get(v, {}).get(wall)
        u, w = slopes[before], slopes[after]
        if ray is None or _cross((w[0] - u[0], w[1] - u[1]), (-ray[1], ray[0])) != 0:
            codes.add("slope-discontinuous")
    return codes


def branch_free(doc: dict) -> tuple[set[str], set[str], list[tuple[tuple[str, ...], str]]]:
    """The branch-free graph (G0) of a multisection/v1 document and its
    minimal cycles, by id: the unbranched vertices; the edges joining two of
    them; and each 2-cell whose edges all lie in that graph, as (its
    boundary cycle as ``orientation`` lists it, its id), sorted by id."""
    base, branch = doc["complex"], set(doc.get("branch", []))
    cells = base.get("cells", [])
    vertices = {c["id"] for c in cells if c["dim"] == 0 and c["id"] not in branch}
    edges = {c["id"] for c in cells if c["dim"] == 1 and vertices.issuperset(c.get("faces", []))}
    cycles = {o["face2"]: tuple(o["cycle"]) for o in base.get("orientation", [])}
    minimal = [(cycles[c["id"]], c["id"]) for c in cells
               if c["dim"] == 2 and edges.issuperset(c.get("faces", []))]
    return vertices, edges, sorted(minimal, key=lambda cycle: cycle[1])
