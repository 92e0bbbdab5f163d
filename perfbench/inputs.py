"""Benchmark inputs and their expected answers.

Every input is generated through the public ``tropms`` API and written with
the ``*_to_text`` writers. The expected answers are derived from how each
input was built (weights, branch sets, closed-form counts, the planted cell,
the tampered flag), never by running ``tropms``; each ``Op`` carries a
check of one command's exit code and output against them.

Workloads:

  torus2    double cover of the n x n hexagonal-honeycomb torus, branched at
            every vertex, weights (2, 1), seeded coboundary gluing data.
  torus3    degree-3 cover of the same torus, totally ramified at every
            vertex, rank-3 fan rays and the rank3-cube slope table, no gluing.
  cli-session
            the small sphere examples, two planted non-simple covers and a
            cube2 gluing file with one tampered flag, driven through eight
            different subcommands.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from tropms.complexes import (
    VertexFan,
    combinatorial_dual,
    complex_to_text,
    surface_from_cycles,
)
from tropms.covers import (
    BranchedCover,
    MultiSection,
    build_double_cover,
    multisection_to_text,
)
from tropms.generators import (
    RANK3_FAN_RAYS,
    RANK3_SLOPE_TABLE,
    STANDARD_FAN_RAYS,
    cube2_multisection,
    cube_o1_multisection,
    planted_multisection,
    planted_triangle_multisection,
    rank3_multisection,
    seeded_coboundary_gluing,
    simplex5_multisection,
)
from tropms.gluing import gluing_to_text
from tropms.pipeline import Manifest, manifest_to_text

EXIT_OK, EXIT_NOT_SIMPLE = 0, 1

GAP1_RULE = (
    "[rank2-gap1] weight gap 1: simple if and only if the branch-free graph "
    "carries no minimal cycle"
)
SMOOTHABLE_UPGRADE = (
    "[smoothability-upgrade] base complex asserted positive+simple+elementary "
    "and the gluing obstruction is established trivial"
)
GENERAL_CRITERION_HOLDS = [
    "[general-criterion] no minimal cycle on the branch-free pair graph, "
    "cross-checked against the base branch-free graph",
    "[fixed-point-support] every pair vertex keeps a surviving fixed point",
    "[general-criterion] criterion satisfied: simple and smoothable",
]


@dataclass(frozen=True)
class Op:
    """One `tropms` invocation: its arguments and the check of its answer.

    ``check(exit_code, stdout)`` returns a list of problems, empty when the
    answer is right.
    """

    key: str
    argv: tuple[str, ...]
    check: Callable[[int, str], list[str]]


@dataclass
class Bundle:
    """Files written for one workload at one seed, and the operations on them."""

    workdir: str
    ops: list[Op] = field(default_factory=list)
    # (label, written file paths, expected closed-form counts)
    covers: list[tuple[str, dict, dict]] = field(default_factory=list)


# -- the honeycomb torus ------------------------------------------------------


def triangulated_torus(n: int) -> dict[str, tuple[str, ...]]:
    """n x n grid on the torus, each square cut into two triangles along the
    same diagonal; 2n^2 triangles, 3n^2 edges, n^2 vertices."""
    w = len(str(n - 1))

    def p(i, j):
        return f"p{i % n:0{w}d}.{j % n:0{w}d}"

    tris = {}
    for i in range(n):
        for j in range(n):
            tris[f"t{i:0{w}d}.{j:0{w}d}u"] = (p(i, j), p(i + 1, j), p(i + 1, j + 1))
            tris[f"t{i:0{w}d}.{j:0{w}d}d"] = (p(i, j), p(i + 1, j + 1), p(i, j + 1))
    return tris


def honeycomb_torus(n: int, rays):
    """Dual of the triangulated torus: 2n^2 trivalent vertices, 3n^2 edges,
    n^2 hexagons, one fan per vertex with the rays in corner order."""
    base = combinatorial_dual(surface_from_cycles(triangulated_torus(n)))
    base.asserted.pop("dual-no-fans", None)
    for v in base.vertices:
        chain = base.corners(v.id)
        fan_rays = tuple((rays[i], out) for i, (_, out, _) in enumerate(chain))
        cones = tuple((f, (i, (i + 1) % 3)) for i, (f, _, _) in enumerate(chain))
        base.fans[v.id] = VertexFan(v.id, fan_rays, cones)
    return base


def gf3_edge_voltages(base, rng: random.Random) -> dict[str, int]:
    """Cyclic sheet shifts per edge whose corner walk rotates the sheets by
    one at every vertex.

    Crossing a wall out of its first coface adds the edge's shift, the
    reverse crossing subtracts it, so the system is the signed incidence
    matrix of the 1-skeleton: it is solvable exactly when the vertex count
    is divisible by 3, and a spanning-tree sweep solves it. A seeded sheet
    relabelling per 2-cell then changes the shifts without changing the
    cover.
    """
    cofaces: dict[str, list[str]] = {}
    for f in base.faces2:
        for e in f.faces:
            cofaces.setdefault(e, []).append(f.id)
    first = {e: min(fs) for e, fs in cofaces.items()}
    rows: dict[str, dict[str, int]] = {}
    for v in base.vertices:
        row: dict[str, int] = {}
        for f_here, _, wall in base.corners(v.id):
            row[wall] = row.get(wall, 0) + (1 if f_here == first[wall] else -1)
        rows[v.id] = row

    adj: dict[str, list[tuple[str, str]]] = {v.id: [] for v in base.vertices}
    for e in base.edges:
        a, b = e.faces
        adj[a].append((b, e.id))
        adj[b].append((a, e.id))
    root = min(adj)
    order, parent, seen = [root], {}, {root}
    for v in order:
        for w, eid in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                parent[w] = eid
                order.append(w)
    shift = {e.id: 0 for e in base.edges}
    for v in reversed(order[1:]):
        row, pe = rows[v], parent[v]
        rest = sum(c * shift[e] for e, c in row.items() if e != pe)
        shift[pe] = (1 - rest) * row[pe] % 3  # row[pe] is +1 or -1
    relabel = {f.id: rng.randrange(3) for f in base.faces2}
    for e, (a, b) in ((e, sorted(fs)) for e, fs in cofaces.items()):
        shift[e] = (shift[e] + relabel[b] - relabel[a]) % 3
    for v, row in rows.items():
        if sum(c * shift[e] for e, c in row.items()) % 3 != 1:
            raise RuntimeError(f"GF(3) voltage system has no solution at {v}")
    return shift


def torus3_section(n: int, seed: int) -> MultiSection:
    base = honeycomb_torus(n, RANK3_FAN_RAYS)
    shift = gf3_edge_voltages(base, random.Random(seed))
    matchings = {e: tuple((s + g) % 3 for s in range(3)) for e, g in shift.items()}
    branch = frozenset(v.id for v in base.vertices)
    ram = {v: ((0, 1, 2),) for v in branch}
    cover = BranchedCover(base, 3, matchings, branch, ram)
    slopes = {}
    for v in base.vertices:
        for fid, (i, _) in base.fans[v.id].cones:
            for sheet in range(3):
                slopes[(f"{v.id}#0", fid, sheet)] = RANK3_SLOPE_TABLE[i][sheet]
    return MultiSection(cover, slopes, label=f"torus3-{n}")


# -- writing ------------------------------------------------------------------


def write_bundle(outdir: str, name: str, msec, gluing, assertions) -> dict:
    """Complex, section, optional gluing and manifest files; returns paths."""
    paths = {
        "complex": os.path.join(outdir, f"{name}.complex.json"),
        "section": os.path.join(outdir, f"{name}.section.json"),
        "manifest": os.path.join(outdir, f"{name}.manifest.json"),
    }
    with open(paths["complex"], "w", encoding="utf-8") as fh:
        fh.write(complex_to_text(msec.cover.base))
    with open(paths["section"], "w", encoding="utf-8") as fh:
        fh.write(multisection_to_text(msec))
    gluing_rel = None
    if gluing is not None:
        gluing_rel = f"{name}.gluing.json"
        paths["gluing"] = os.path.join(outdir, gluing_rel)
        with open(paths["gluing"], "w", encoding="utf-8") as fh:
            fh.write(gluing_to_text(gluing))
    manifest = Manifest(
        f"{name}.complex.json", f"{name}.section.json", gluing_rel, dict(assertions)
    )
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        fh.write(manifest_to_text(manifest))
    return paths


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _boundary_cycle(complex_path: str, face: str) -> list[str]:
    return next(o["cycle"] for o in _load(complex_path)["orientation"] if o["face2"] == face)


# -- closed-form checks of the written inputs ---------------------------------


def check_counts(label: str, paths: dict, want: dict) -> list[str]:
    """Compare the written files against counts fixed by the construction:
    base cells by dimension, branch points, and the genus of the total space
    from its cell counts."""
    doc = _load(paths["section"])
    cells = doc["complex"]["cells"]
    nv, ne, nf = (sum(1 for c in cells if c["dim"] == d) for d in (0, 1, 2))
    degree = doc["degree"]
    lifts = sum(len(entry["lifts"]) for entry in doc["lifts"])
    got = {
        "vertices": nv,
        "edges": ne,
        "faces": nf,
        "branch": len(doc["branch"]),
        "genus": (2 - (lifts - degree * ne + degree * nf)) // 2,
    }
    return [
        f"{label}: {k} is {got[k]}, expected {v}"
        for k, v in sorted(want.items())
        if got[k] != v
    ]


# -- expected answers ---------------------------------------------------------


def chern_text(m: int, n: int) -> str:
    """1 + (m+n)H + (m^2 + n^2 - mn)H^2, printed the way reports print it."""
    bits = ["1"]
    for c, sym in ((m + n, "H"), (m * m + n * n - m * n, "H^2")):
        if c:
            bits.append(sym if c == 1 else f"{c}{sym}")
    return " + ".join(bits)


def _report_checks(m: int, n: int, obstruction: str | None, simplicity) -> list:
    """Expected (check, citation, verdict, witnesses) rows of a full
    `validate` report for an alternating weight-(m, n) cover."""
    gap = m - n
    if gap != 1:
        raise ValueError("the simplicity rows are written for weight gap 1")
    rows = [
        ("validate", "complex-validity", "pass", []),
        ("classify", "alternating-class", "pass", ["S_mn", [m, n]]),
        ("cocycle", "fan-cocycle", "pass", [f"m={m}", f"n={n}", "reference constants"]),
        (
            "chern",
            "chern-total",
            "pass",
            [chern_text(m, n), f"discriminant {-3 * gap * gap}", "stable"],
        ),
    ]
    if obstruction is None:
        rows.append(("obstruction", "gluing-obstruction", "skipped",
                     ["no gluing data in the manifest"]))
    else:
        rows.append(("obstruction", "gluing-obstruction", "pass", [f"witness {obstruction}"]))
    rows.append(simplicity)
    return rows


CLASS_C_ROWS = [
    ("validate", "complex-validity", "pass", []),
    ("classify", "alternating-class", "pass", ["C"]),
    ("cocycle", "fan-cocycle", "skipped", ["class C has no weight pair"]),
    ("chern", "chern-total", "skipped", ["class C has no weight pair"]),
    ("obstruction", "gluing-obstruction", "skipped", ["no gluing data in the manifest"]),
    ("simplicity", "general-criterion", "pass", ["simple & smoothable"] + GENERAL_CRITERION_HOLDS),
]


def _json_or_problem(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as err:
        return None, f"output is not JSON ({err})"


def expect_report(rows, exit_code: int):
    """Check of a `validate` report: exit code, and per check its citation,
    verdict and witnesses."""

    def check(code: int, out: str) -> list[str]:
        doc, problem = _json_or_problem(out)
        if problem:
            return [problem]
        bad = []
        if code != exit_code or doc.get("exit_code") != exit_code:
            bad.append(f"exit code {code}/{doc.get('exit_code')}, expected {exit_code}")
        recs = doc.get("checks", [])
        if [r.get("check") for r in recs] != [r[0] for r in rows]:
            return bad + [f"checks {[r.get('check') for r in recs]}"]
        for rec, (name, citation, verdict, witnesses) in zip(recs, rows):
            got = (rec.get("citation"), rec.get("verdict"), rec.get("witnesses"))
            if got != (citation, verdict, witnesses):
                bad.append(f"{name}: got {got}, expected {(citation, verdict, witnesses)}")
        return bad

    return check


def expect_json(want: dict, exit_code: int = EXIT_OK, extra=None):
    """Check of a JSON-printing subcommand: the listed keys must match, and
    ``extra(doc)`` may add problems of its own."""

    def check(code: int, out: str) -> list[str]:
        doc, problem = _json_or_problem(out)
        if problem:
            return [problem]
        bad = [] if code == exit_code else [f"exit code {code}, expected {exit_code}"]
        for k, v in want.items():
            if doc.get(k) != v:
                bad.append(f"{k}: got {doc.get(k)!r}, expected {v!r}")
        if extra is not None:
            bad += extra(doc)
        return bad

    return check


# -- workloads ----------------------------------------------------------------


def torus2_cover_counts(n: int) -> dict:
    return {"vertices": 2 * n * n, "edges": 3 * n * n, "faces": n * n,
            "branch": 2 * n * n, "genus": n * n + 1}


def build_torus2(outdir: str, n: int, seed: int) -> Bundle:
    """`validate` on the branched-everywhere double cover of the torus. All
    vertices branch, so the branch-free graph is empty: simple. n must be
    even: on odd sides `build_double_cover` finds no consistent sheet typing
    around the torus."""
    base = honeycomb_torus(n, STANDARD_FAN_RAYS)
    msec = build_double_cover(
        base, frozenset(v.id for v in base.vertices), 2, 1, label=f"torus2-{n}"
    )
    gluing = seeded_coboundary_gluing(msec, seed=seed)
    paths = write_bundle(outdir, "torus2", msec, gluing, {"regular": True})
    rows = _report_checks(2, 1, "1", ("simplicity", "rank2-gap1", "pass", ["simple", GAP1_RULE]))
    op = Op("validate", ("validate", "--manifest", paths["manifest"]), expect_report(rows, EXIT_OK))
    return Bundle(outdir, [op], [("torus2", paths, torus2_cover_counts(n))])


def build_torus3(outdir: str, n: int, seed: int) -> Bundle:
    """`validate` on the totally ramified degree-3 cover of the torus: class
    C, and with no unbranched vertex the pair graph is empty, so the general
    criterion holds (simple & smoothable) under the asserted local models."""
    if n % 3:
        raise ValueError("the degree-3 torus cover needs 3 | n")
    msec = torus3_section(n, seed)
    paths = write_bundle(
        outdir, "torus3", msec, None, {"regular": True, "assumption-1.4": True}
    )
    want = {"vertices": 2 * n * n, "edges": 3 * n * n, "faces": n * n,
            "branch": 2 * n * n, "genus": 2 * n * n + 1}
    op = Op("validate", ("validate", "--manifest", paths["manifest"]),
            expect_report(CLASS_C_ROWS, EXIT_OK))
    return Bundle(outdir, [op], [("torus3", paths, want)])


def _sphere(v, e, f, branch, degree=2):
    """Expected counts of a cover of a sphere that is totally ramified at
    each branch point; genus from Riemann-Hurwitz."""
    genus = (degree * -2 + branch * (degree - 1) + 2) // 2
    return {"vertices": v, "edges": e, "faces": f, "branch": branch, "genus": genus}


# name -> (build function, weights or None for class C, manifest assertions,
# expected counts)
SPHERE_EXAMPLES = {
    "simplex5": (lambda: simplex5_multisection(74), (2, 1), {"regular": True},
                 _sphere(100, 150, 52, 74)),
    "simplex5-58": (lambda: simplex5_multisection(58), (2, 1), {"regular": True},
                    _sphere(100, 150, 52, 58)),
    "cube2": (cube2_multisection, (2, 1), {"regular": True}, _sphere(48, 72, 26, 48)),
    "cube-o1": (cube_o1_multisection, (1, 0),
                {"regular": True, "positive": True, "simple": True,
                 "elementary": True, "open-gluing-induced": True},
                _sphere(48, 72, 26, 36)),
    "rank3-cube": (rank3_multisection, None, {"regular": True, "assumption-1.4": True},
                   _sphere(48, 72, 26, 48, degree=3)),
    "planted": (planted_multisection, (2, 1), {"regular": True}, _sphere(48, 72, 26, 36)),
    "planted-triangle": (planted_triangle_multisection, (2, 1), {"regular": True},
                         _sphere(100, 150, 52, 74)),
}

PLANTED_FACES = {"planted": "p001", "planted-triangle": "q0005"}


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _fan_ray(complex_doc: dict, v: str, eid: str):
    for fan in complex_doc["fans"]:
        if fan["vertex"] == v:
            for ray in fan["rays"]:
                if ray["edge"] == eid:
                    return tuple(ray["vec"])
    raise KeyError(f"no ray for edge {eid} at {v}")


def tamper_gluing(paths: dict, rng: random.Random) -> tuple[dict, str, str]:
    """Multiply the gluing element of one seeded vertex-into-edge flag of a
    branched-everywhere double cover by t (x) q.

    The flag (x, e~l) lies in two chains of the order complex, one per
    coface A, B of e, with opposite orientation signs, so the obstruction
    witness (1 before tampering) becomes q^E with
    E = sign * det(ray, t) * kink, where ray is the fan ray of e at x, the
    slopes of the two sheets differ by kink * rot90(ray) across the wall,
    and sign is +1 when x is the tail of e in the boundary walk of A.
    Returns the tampered gluing document, the flag and the witness.
    """
    cdoc = _load(paths["complex"])
    sdoc = _load(paths["section"])
    gdoc = _load(paths["gluing"])
    cells = {c["id"]: c for c in cdoc["cells"]}
    edges = sorted(c["id"] for c in cdoc["cells"] if c["dim"] == 1)
    eid = rng.choice(edges)
    lift = rng.randrange(2)
    v = rng.choice(sorted(cells[eid]["faces"]))
    lifts = {e["vertex"]: [lf["id"] for lf in e["lifts"]] for e in sdoc["lifts"]}
    if lifts[v] != [f"{v}#0"]:
        raise RuntimeError(f"{v} must be a branch point with the single lift {v}#0")
    x, elift = f"{v}#0", f"{eid}~{lift}"
    ray = _fan_ray(cdoc, v, eid)
    t = (0, 0)
    while _det(ray, t) == 0:
        t = (rng.randint(-2, 2), rng.randint(-2, 2))
    q = Fraction(1)
    while q == 1:
        q = Fraction(rng.randint(2, 9), rng.randint(1, 9))

    a, b = sorted(c["id"] for c in cdoc["cells"] if c["dim"] == 2 and eid in c["faces"])
    perm = {m["edge"]: m["perm"] for m in sdoc["matchings"]}[eid]
    slopes = {(s["vertex_lift"], s["face2"], s["sheet"]): s["slope"] for s in sdoc["slopes"]}
    ma, mb = slopes[(x, a, lift)], slopes[(x, b, perm[lift])]
    diff = (ma[0] - mb[0], ma[1] - mb[1])
    g = (-ray[1], ray[0])  # rot90
    kink = diff[0] // g[0] if g[0] else diff[1] // g[1]
    if (kink * g[0], kink * g[1]) != diff or kink == 0:
        raise RuntimeError(f"slopes at {x} jump by {diff}, not a multiple of {g}")
    cycle = _boundary_cycle(paths["complex"], a)
    w = cells[eid]["faces"][0] if cells[eid]["faces"][1] == v else cells[eid]["faces"][1]
    i = cycle.index(v)
    sign = 1 if cycle[(i + 1) % len(cycle)] == w else -1
    witness = q ** (sign * _det(ray, t) * kink)

    factor = {"vec": list(t), "q": f"{q.numerator}/{q.denominator}"}
    for entry in gdoc["assignments"]:
        if entry["flag"] == [x, elift]:
            entry["element"].append(factor)
            break
    else:
        gdoc["assignments"].append({"flag": [x, elift], "element": [factor]})
    return gdoc, f"{x},{elift}", str(witness)


def splitting_override(paths: dict) -> tuple[str, set[str]]:
    """A splitting entry whose canonical value is 1, and the chains that an
    override to 2 must break.

    The splitting table is normalised to 1 on a depth-first spanning tree of
    the order complex grown from its smallest node, so every inclusion at
    that node has value 1. For a double cover whose smallest node is an edge
    lift e~0 and whose vertices all branch, (v#0, e~0) is such an inclusion
    and lies in exactly the chains through the two cofaces of e.
    """
    cdoc = _load(paths["complex"])
    sdoc = _load(paths["section"])
    degree = sdoc["degree"]
    nodes = [lf["id"] for entry in sdoc["lifts"] for lf in entry["lifts"]]
    for c in cdoc["cells"]:
        if c["dim"] > 0:
            nodes += [f"{c['id']}~{s}" for s in range(degree)]
    root = min(nodes)
    eid, _, lift = root.rpartition("~")
    cell = {c["id"]: c for c in cdoc["cells"]}.get(eid)
    if cell is None or cell["dim"] != 1 or lift != "0":
        raise RuntimeError(f"smallest order-complex node {root} is not an edge lift ~0")
    v = min(cell["faces"])
    a, b = sorted(c["id"] for c in cdoc["cells"] if c["dim"] == 2 and eid in c["faces"])
    perm = {m["edge"]: m["perm"] for m in sdoc["matchings"]}[eid]
    key = f"{v}#0,{root}"
    return key, {f"{key},{a}~0", f"{key},{b}~{perm[0]}"}


def expect_cycles_svg(edges: int, vertices: int, cycle_len: int):
    """Check of `render --layer cycles`: the base skeleton and one minimal
    cycle polygon."""

    def check(code: int, out: str) -> list[str]:
        polygons = re.findall(r'<polygon class="cycle" points="([^"]*)"', out)
        got = (
            code,
            out.startswith("<svg ") and out.endswith("</svg>\n"),
            out.count('<line class="edge"'),
            out.count('<circle class="vertex"'),
            [len(p.split()) for p in polygons],
        )
        want = (EXIT_OK, True, edges, vertices, [cycle_len])
        return [] if got == want else [f"svg (exit, well-formed, edges, vertices, cycle lengths) {got}, expected {want}"]

    return check


def build_cli_session(outdir: str, seed: int) -> Bundle:
    """Small inputs through every subcommand that reads them, in a seeded
    order; one child process per operation."""
    rng = random.Random(seed)
    bundle = Bundle(outdir)
    paths = {}
    for name, (build, weights, assertions, counts) in SPHERE_EXAMPLES.items():
        msec = build()
        gluing = seeded_coboundary_gluing(msec, seed=seed) if msec.cover.degree == 2 else None
        paths[name] = write_bundle(outdir, name, msec, gluing, assertions)
        bundle.covers.append((name, paths[name], counts))
    tampered, flag, witness = tamper_gluing(paths["cube2"], rng)
    tampered_path = os.path.join(outdir, "cube2-tampered.gluing.json")
    with open(tampered_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tampered, indent=2, sort_keys=True) + "\n")
    override_key, broken = splitting_override(paths["cube2"])

    ops = []
    for name, (_, weights, _, _) in SPHERE_EXAMPLES.items():
        if weights is None:
            rows, code = CLASS_C_ROWS, EXIT_OK
        elif name in PLANTED_FACES:
            face = PLANTED_FACES[name]
            cycle = _boundary_cycle(paths[name]["complex"], face)
            rows = _report_checks(*weights, "1", ("simplicity", "rank2-gap1", "fail",
                                                  ["not simple", [cycle, face]]))
            code = EXIT_NOT_SIMPLE
        else:
            # cube-o1 asserts positive+simple+elementary and open-gluing-induced
            if SPHERE_EXAMPLES[name][2].get("positive"):
                witnesses = ["simple & smoothable", GAP1_RULE, SMOOTHABLE_UPGRADE]
            else:
                witnesses = ["simple", GAP1_RULE]
            rows = _report_checks(*weights, "1", ("simplicity", "rank2-gap1", "pass", witnesses))
            code = EXIT_OK
        ops.append(Op(f"validate {name}", ("validate", "--manifest", paths[name]["manifest"]),
                      expect_report(rows, code)))

    cube2 = paths["cube2"]
    obstruction = ("obstruction", "--complex", cube2["complex"], "--section", cube2["section"])
    planted_cycle = _boundary_cycle(paths["planted"]["complex"], PLANTED_FACES["planted"])

    def plain_table(doc):
        return [] if "consistent" not in doc and doc.get("splitting") else ["splitting table missing or rechecked"]

    def broken_chains(doc):
        got = set(doc.get("violations", []))
        bad = [] if got == broken else [f"violations {sorted(got)}, expected {sorted(broken)}"]
        if doc.get("splitting", {}).get(override_key) != "2":
            bad.append(f"override {override_key} not applied")
        return bad

    def fiber_cells(doc):
        return [] if len(doc.get("cells", [])) == 48 + 648 + 234 else ["fiber product cell list"]

    ops += [
        Op("classify cube-o1", ("classify", "--section", paths["cube-o1"]["section"]),
           expect_json({"class": "S_mn", "pair": [1, 0]})),
        Op("classify rank3-cube", ("classify", "--section", paths["rank3-cube"]["section"]),
           expect_json({"class": "C", "pair": None})),
        Op("obstruction cube2", obstruction + ("--gluing", cube2["gluing"]),
           expect_json({"trivial": True, "witness": "1"}, extra=plain_table)),
        Op(f"obstruction cube2 tampered at {flag}", obstruction + ("--gluing", tampered_path),
           expect_json({"trivial": False, "witness": witness})),
        Op("obstruction cube2 --k", obstruction + ("--gluing", cube2["gluing"], "--k", f"{override_key}=2"),
           expect_json({"trivial": True, "witness": "1", "consistent": False}, extra=broken_chains)),
        Op("simplicity planted", ("simplicity", "--section", paths["planted"]["section"]),
           expect_json({"tag": "not_simple", "reasons": [GAP1_RULE],
                        "witnesses": [[planted_cycle, "p001"]]}, EXIT_NOT_SIMPLE)),
        Op("simplicity cube2", ("simplicity", "--section", cube2["section"], "--gluing", cube2["gluing"]),
           expect_json({"tag": "simple", "reasons": [GAP1_RULE], "witnesses": []})),
        # rank3-cube: one lift per vertex and 3 per edge and 2-cell, so
        # 1, 9 and 9 pairs over each of the 48 vertices, 72 edges, 26 2-cells
        Op("fiber-product rank3-cube", ("fiber-product", "--section", paths["rank3-cube"]["section"]),
           expect_json({"counts": {"0": 48, "1": 648, "2": 234}}, extra=fiber_cells)),
        Op("chern 2 1", ("chern", "--m", "2", "--n", "1"),
           expect_json({"total": chern_text(2, 1), "coefficients": [1, 3, 3],
                        "discriminant": -3, "stability": "stable"})),
        Op("verify-cocycle 2 1", ("verify-cocycle", "--m", "2", "--n", "1"),
           expect_json({"m": 2, "n": 1, "cocycle": True})),
        Op("render planted cycles", ("render", "--manifest", paths["planted"]["manifest"], "--layer", "cycles"),
           expect_cycles_svg(72, 48, len(planted_cycle))),
    ]
    rng.shuffle(ops)
    bundle.ops = ops
    return bundle
