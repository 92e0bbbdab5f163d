"""Open-gluing data on a multi-section, its triple-intersection cocycle, the
obstruction class on the order complex of the total space, and holonomy of
gluing constants around cycles.

Gluing data assigns a torus element to flags between lifted cells. The
coefficient lattice has rank two at vertex lifts, rank one at edge lifts and
rank zero at 2-cell lifts, so all freedom sits on vertex-into-edge flags;
nontrivial data anywhere else is a violation. A flag's element is written in
the chart of its own vertex; an abstract edge potential is a scalar against
the canonical transverse generator taken at the lexicographically smallest
endpoint, and its chart representatives at the two endpoints carry opposite
exponents because the two boundary frames induce opposite generators of the
edge quotient.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .complexes import Diagnostic, ValidationReport, parses
from .covers import MultiSection, _fan_ray, _kink_along, validate_multisection
from .lattice import Vec, canonical_transverse, det2, dot


class TorusElement:
    """Element of a coordinate torus: finite product of vector-tensor-scalar
    factors, evaluated on covectors by pairing exponents."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        merged: dict[Vec, Fraction] = {}
        for vec, q in factors:
            vec = (int(vec[0]), int(vec[1]))
            q = Fraction(q)
            if q == 0:
                raise ValueError("torus coefficients must be nonzero")
            cur = merged.get(vec, Fraction(1))
            cur *= q
            if cur == 1:
                merged.pop(vec, None)
            else:
                merged[vec] = cur
        if (0, 0) in merged:
            del merged[(0, 0)]
        self.factors: tuple[tuple[Vec, Fraction], ...] = tuple(
            sorted(merged.items())
        )

    @classmethod
    def single(cls, vec: Vec, q) -> "TorusElement":
        return cls([(vec, q)])

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        return TorusElement(self.factors + other.factors)

    def inverse(self) -> "TorusElement":
        return TorusElement([(v, 1 / q) for v, q in self.factors])

    def evaluate(self, m: Vec) -> Fraction:
        """Pair against a covector: product of q ** <m, vec>."""
        out = Fraction(1)
        for vec, q in self.factors:
            out *= q ** dot(m, vec)
        return out

    def edge_coefficient(self, ray: Vec) -> Fraction:
        """Scalar of the class in the quotient by an edge direction, written
        against the canonical transverse generator."""
        out = Fraction(1)
        for vec, q in self.factors:
            out *= q ** det2(ray, vec)
        return out

    def edge_value(self, ray: Vec, m: Vec) -> Fraction:
        """Evaluate the edge-quotient class on a covector."""
        qt = canonical_transverse(ray)
        return self.edge_coefficient(ray) ** dot(m, qt)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusElement) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self) -> str:
        if not self.factors:
            return "TorusElement(trivial)"
        body = ", ".join(f"{v}->{q}" for v, q in self.factors)
        return f"TorusElement({body})"


TRIVIAL = TorusElement()

GluingData = dict[tuple[str, str], TorusElement]


def edge_lift_id(eid: str, lift: int) -> str:
    return f"{eid}~{lift}"


def face_lift_id(fid: str, sheet: int) -> str:
    return f"{fid}~{sheet}"


def split_lift_id(lid: str) -> tuple[str, int]:
    base, _, idx = lid.rpartition("~")
    return base, int(idx)


# -- structure of the total space --------------------------------------------


@dataclass(frozen=True)
class BarComplex:
    """Order complex of the total space: nodes are lifted cells, edges are
    proper inclusions, triangles are full chains with orientation signs."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    triangles: tuple[tuple[str, str, str, int], ...]


def vertex_edge_flags(msec: MultiSection) -> set[tuple[str, str]]:
    """All (vertex lift, edge lift) inclusion flags."""
    cover = msec.cover
    out = set()
    for e in cover.base.edges:
        for lift in range(cover.degree):
            elift = edge_lift_id(e.id, lift)
            for v in e.faces:
                out.add((cover.vertex_lift_at_edge(v, e.id, lift), elift))
    return out


def bar_complex(msec: MultiSection) -> BarComplex:
    cover = msec.cover
    cached = getattr(cover, "_bar_cache", None)
    if cached is not None:
        return cached
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    triangles: list[tuple[str, str, str, int]] = []
    for v in cover.base.vertices:
        nodes.update(cover.vertex_lift_ids(v.id))
    for e in cover.base.edges:
        for lift in range(cover.degree):
            nodes.add(edge_lift_id(e.id, lift))
    for f in cover.base.faces2:
        walk = cover.base.oriented_edges(f.id)
        for s in range(cover.degree):
            flift = face_lift_id(f.id, s)
            nodes.add(flift)
            for eid, v, w in walk:
                lift = cover.matching(eid, f.id).index(s)
                elift = edge_lift_id(eid, lift)
                tail = cover.vertex_lift_at_edge(v, eid, lift)
                head = cover.vertex_lift_at_edge(w, eid, lift)
                edges.add((tail, elift))
                edges.add((head, elift))
                edges.add((elift, flift))
                edges.add((tail, flift))
                edges.add((head, flift))
                triangles.append((tail, elift, flift, 1))
                triangles.append((head, elift, flift, -1))
    out = BarComplex(
        tuple(sorted(nodes)), tuple(sorted(edges)), tuple(sorted(triangles))
    )
    cover._bar_cache = out
    return out


# -- gluing data --------------------------------------------------------------


def trivial_gluing() -> GluingData:
    return {}


def validate_gluing(msec: MultiSection, g: GluingData) -> ValidationReport:
    """Flags must be real inclusions; data landing in a rank-zero lattice
    (anything into a 2-cell lift) must be trivial."""
    rep = validate_multisection(msec)
    diags = list(rep.diagnostics)
    if not rep.ok:
        return rep

    def bad(code, msg):
        diags.append(Diagnostic(code, msg))

    cover = msec.cover
    ve = vertex_edge_flags(msec)
    bar = bar_complex(msec)
    bar_edges = set(bar.edges)
    for (src, dst), elem in sorted(g.items()):
        if (src, dst) in ve:
            continue
        if (src, dst) in bar_edges:
            if not elem.is_trivial:
                chains = sorted(
                    t[:3] for t in bar.triangles if (src, dst) in ((t[0], t[2]), (t[1], t[2]))
                )
                where = chains[0] if chains else (src, dst, "?")
                bad(
                    "gluing-cocycle-violation",
                    f"nontrivial element into a 2-cell lift at chain {where}",
                )
        else:
            bad("gluing-flag", f"({src}, {dst}) is not a flag of the total space")
    return ValidationReport(tuple(diags), rep.euler_characteristic)


def base_vertex(lift_id: str) -> str:
    return lift_id.rpartition("#")[0]


def edge_potential_chart(
    msec: MultiSection, eid: str, v: str, coeff: Fraction
) -> TorusElement:
    """Chart representative at one endpoint of an edge potential given as a
    scalar against the canonical generator of the edge quotient."""
    e = msec.cover.base.cells[eid]
    ray = _fan_ray(msec.cover.base, v, eid)
    if v == min(e.faces):
        return TorusElement.single(canonical_transverse(ray), coeff)
    return TorusElement.single(canonical_transverse(ray), 1 / coeff)


def coboundary_gluing(
    msec: MultiSection,
    lam_vertex: dict[str, TorusElement],
    lam_edge: dict[str, Fraction],
) -> GluingData:
    """Gluing data of the form (vertex potential) / (edge potential) on every
    vertex-into-edge flag. Such data always has trivial obstruction."""
    out: GluingData = {}
    for vlift, elift in sorted(vertex_edge_flags(msec)):
        lv = lam_vertex.get(vlift, TRIVIAL)
        coeff = Fraction(lam_edge.get(elift, 1))
        eid, _ = split_lift_id(elift)
        le = edge_potential_chart(msec, eid, base_vertex(vlift), coeff)
        elem = lv * le.inverse()
        if not elem.is_trivial:
            out[(vlift, elift)] = elem
    return out


# -- kink compatibility and the triple cocycle -------------------------------


def _edge_kink_at(msec: MultiSection, v: str, eid: str, lift: int) -> int:
    """Kink of one edge lift seen from one endpoint."""
    cover = msec.cover
    corners = cover.wall_sequence(v)
    k = len(corners)
    ray = _fan_ray(cover.base, v, eid)
    for i, (fid, _, inn) in enumerate(corners):
        if inn != eid:
            continue
        sheet = cover.matching(eid, fid)[lift]
        fid2 = corners[(i + 1) % k][0]
        sheet2 = cover.matching(eid, fid2)[lift]
        for lid, cyc in zip(cover.vertex_lift_ids(v), cover.lift_cycles(v)):
            if (i, sheet) in cyc:
                u1 = msec.slope(lid, fid, sheet)
                u2 = msec.slope(lid, fid2, sheet2)
                return _kink_along((u2[0] - u1[0], u2[1] - u1[1]), ray)
    raise ValueError(f"edge {eid} not incident to vertex {v}")


def _lift_rank(cover, v: str, lid: str) -> int:
    k = len(cover.wall_sequence(v))
    return len(cover.lift_cycle_of(v, lid)) // k


def check_edge_kinks(msec: MultiSection) -> list[str]:
    """Edge lifts whose kinks disagree between their two endpoints.

    Endpoint lifts of rank three or more hold raw chart data and are skipped.
    """
    cover = msec.cover
    bad = []
    for e in cover.base.edges:
        v, w = e.faces
        for lift in range(cover.degree):
            lv = cover.vertex_lift_at_edge(v, e.id, lift)
            lw = cover.vertex_lift_at_edge(w, e.id, lift)
            if _lift_rank(cover, v, lv) >= 3 or _lift_rank(cover, w, lw) >= 3:
                continue
            if _edge_kink_at(msec, v, e.id, lift) != _edge_kink_at(
                msec, w, e.id, lift
            ):
                bad.append(edge_lift_id(e.id, lift))
    return sorted(bad)


Cochain2 = dict[tuple[str, str, str], Fraction]


def triple_cocycle(msec: MultiSection, g: GluingData) -> Cochain2:
    """Value of the gluing data on every chain of the total space.

    The chain (vertex lift, edge lift, 2-cell lift) receives the vertex-edge
    element evaluated on the slope of the 2-cell lift, entirely in the chart
    of the chain's own vertex. Edge lifts whose kinks disagree between their
    endpoints make edge potentials frame-dependent and are rejected.
    """
    mism = check_edge_kinks(msec)
    if mism:
        raise ValueError(f"edge kinks disagree between endpoints: {mism}")
    bar = bar_complex(msec)
    out: Cochain2 = {}
    for x, elift, flift, _ in bar.triangles:
        key = (x, elift, flift)
        if key in out:
            continue
        elem = g.get((x, elift), TRIVIAL)
        if elem.is_trivial:
            out[key] = Fraction(1)
            continue
        eid, _ = split_lift_id(elift)
        fid, sheet = split_lift_id(flift)
        ray = _fan_ray(msec.cover.base, base_vertex(x), eid)
        m = msec.slope(x, fid, sheet)
        out[key] = elem.edge_value(ray, m)
    return out


# -- obstruction --------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    trivial: bool
    witness: Fraction
    cochain: dict[tuple[str, str], Fraction] | None


def obstruction_class(c: Cochain2, msec: MultiSection) -> ObstructionReport:
    """Decide whether a triple cocycle bounds, and if so produce the canonical
    bounding 1-cochain.

    The witness is the product of cocycle values against the orientation
    signs of the order complex; it is 1 exactly when a bounding cochain
    exists. The cochain is normalized to 1 on a lexicographic spanning tree
    of the order complex.
    """
    bar = bar_complex(msec)
    witness = Fraction(1)
    for tail, elift, flift, sign in bar.triangles:
        val = c[(tail, elift, flift)]
        witness *= val if sign == 1 else 1 / val
    if witness != 1:
        return ObstructionReport(False, witness, None)

    tris = list(dict.fromkeys(t[:3] for t in bar.triangles))
    tri_edges = [((v, e), (e, f), (v, f)) for v, e, f in tris]
    by_edge: dict[tuple[str, str], list[int]] = {}
    for idx, trio in enumerate(tri_edges):
        for b in trio:
            by_edge.setdefault(b, []).append(idx)

    order = [0]
    parent: dict[int, tuple[int, tuple[str, str]]] = {}
    seen = {0}
    queue = deque([0])
    while queue:
        t = queue.popleft()
        for b in tri_edges[t]:
            for t2 in by_edge[b]:
                if t2 not in seen:
                    seen.add(t2)
                    parent[t2] = (t, b)
                    order.append(t2)
                    queue.append(t2)
    if len(order) != len(tris):
        raise RuntimeError("order complex of the total space is disconnected")

    tree_bars = {b for _, b in parent.values()}
    k: dict[tuple[str, str], Fraction] = {
        b: Fraction(1) for b in by_edge if b not in tree_bars
    }

    for t in reversed(order[1:]):
        _, b = parent[t]
        (ve, ef, vf) = tri_edges[t]
        known = {bb: k[bb] for bb in (ve, ef, vf) if bb != b}
        target = c[tris[t]]
        # k_ef * k_ve / k_vf = c
        if b == ve:
            k[b] = target * known[vf] / known[ef]
        elif b == ef:
            k[b] = target * known[vf] / known[ve]
        else:
            k[b] = known[ef] * known[ve] / target
    failed = unbounded_chains(bar, c, k)
    if failed:
        raise RuntimeError(f"bounding cochain fails on chain {failed[0]}")

    # normalize to 1 on a lexicographic spanning tree of the 1-skeleton
    adj: dict[str, list[tuple[str, tuple[str, str], bool]]] = {
        n: [] for n in bar.nodes
    }
    for x, y in bar.edges:
        adj[x].append((y, (x, y), True))
        adj[y].append((x, (x, y), False))
    for n in adj:
        adj[n].sort()
    root = bar.nodes[0]
    h: dict[str, Fraction] = {root: Fraction(1)}
    stack = [root]
    visited = {root}
    while stack:
        x = stack.pop()
        for y, b, forward in adj[x]:
            if y in visited:
                continue
            visited.add(y)
            # forward: x is the source of b, so k'_b = k_b * h_y / h_x
            if forward:
                h[y] = h[x] / k[b]
            else:
                h[y] = h[x] * k[b]
            stack.append(y)
    final = {}
    for x, y in bar.edges:
        final[(x, y)] = k[(x, y)] * h[y] / h[x]
    return ObstructionReport(True, Fraction(1), final)


def unbounded_chains(
    bar: BarComplex, c: Cochain2, k: dict[tuple[str, str], Fraction]
) -> list[tuple[str, str, str]]:
    """Chains (vertex lift, edge lift, 2-cell lift) of the order complex on
    which the 1-cochain ``k`` fails to bound ``c``, i.e. where
    k(e, f) * k(v, e) / k(v, f) differs from c(v, e, f); in triangle order."""
    bad = []
    for v, e, f in dict.fromkeys(t[:3] for t in bar.triangles):
        if k[(e, f)] * k[(v, e)] / k[(v, f)] != c[(v, e, f)]:
            bad.append((v, e, f))
    return bad


# -- holonomy -----------------------------------------------------------------


def transport_ratios(
    msec: MultiSection,
    g: GluingData,
    cycle: list[str],
    sigma: str,
    k: dict[tuple[str, str], Fraction] | None = None,
) -> list[tuple[str, Fraction]]:
    """Sheet-comparison ratio on each edge of a cycle bounding a 2-cell, for
    a rank-two cover: (edge id, ratio) in cycle order."""
    cover = msec.cover
    if cover.degree != 2:
        raise ValueError("transport needs a rank-two cover")
    rep = validate_gluing(msec, g)
    if not rep.ok:
        raise ValueError(f"gluing data invalid: {rep.codes()}")
    c = triple_cocycle(msec, g)
    if k is None:
        ob = obstruction_class(c, msec)
        if not ob.trivial:
            raise ValueError(
                f"gluing-data inconsistency: obstruction witness {ob.witness}"
            )
        k = ob.cochain
    faces = cover.base.cells[sigma].faces

    def t_value(v: str, eid: str, sheet: int) -> Fraction:
        lift = cover.matching(eid, sigma).index(sheet)
        elift = edge_lift_id(eid, lift)
        vlift = cover.vertex_lift_at_edge(v, eid, lift)
        kk = k.get((vlift, elift), Fraction(1))
        return c[(vlift, elift, face_lift_id(sigma, sheet))] / kk

    out = []
    n = len(cycle)
    for i in range(n):
        v, w = cycle[i], cycle[(i + 1) % n]
        eid = cover.base.edge_between(v, w)
        if eid not in faces:
            raise ValueError(f"cycle edge {eid} is not on the boundary of {sigma}")
        lam = (t_value(v, eid, 1) / t_value(v, eid, 0)) / (
            t_value(w, eid, 1) / t_value(w, eid, 0)
        )
        out.append((eid, lam))
    return out


def holonomy_around_cycle(
    msec: MultiSection,
    g: GluingData,
    cycle: list[str],
    sigma: str,
    k: dict[tuple[str, str], Fraction] | None = None,
) -> Fraction:
    """Multiplicative holonomy of the sheet-comparison constants around a
    cycle bounding a 2-cell, for a rank-two cover.

    With the canonical bounding cochain the holonomy of consistent gluing
    data is 1; passing an explicit cochain exposes corrupted data.
    """
    hol = Fraction(1)
    for _, lam in transport_ratios(msec, g, cycle, sigma, k):
        hol *= lam
    return hol


# -- serialization ------------------------------------------------------------

SCHEMA = "gluing/v1"


def gluing_to_json(g: GluingData) -> dict:
    assignments = []
    for (src, dst), elem in sorted(g.items()):
        assignments.append(
            {
                "flag": [src, dst],
                "element": [
                    {"vec": list(vec), "q": f"{q.numerator}/{q.denominator}"}
                    for vec, q in elem.factors
                ],
            }
        )
    return {"schema": SCHEMA, "assignments": assignments}


@parses("gluing data")
def parse_gluing(data: dict) -> GluingData:
    if not isinstance(data, dict):
        raise ValueError("gluing document must be an object")
    unknown = set(data) - {"schema", "assignments"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} in gluing data")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA!r}, got {data.get('schema')!r}")
    out: GluingData = {}
    for raw in data.get("assignments", []):
        if set(raw) != {"flag", "element"}:
            raise ValueError(f"bad gluing entry {raw}")
        src, dst = raw["flag"]
        factors = []
        for fac in raw["element"]:
            if set(fac) != {"vec", "q"}:
                raise ValueError(f"bad torus factor {fac}")
            num, _, den = str(fac["q"]).partition("/")
            factors.append(
                (
                    (int(fac["vec"][0]), int(fac["vec"][1])),
                    Fraction(int(num), int(den or "1")),
                )
            )
        key = (str(src), str(dst))
        if key in out:
            raise ValueError(f"duplicate gluing entry for {key}")
        elem = TorusElement(factors)
        if not elem.is_trivial:
            out[key] = elem
    return out


def gluing_to_text(g: GluingData) -> str:
    return json.dumps(gluing_to_json(g), indent=2, sort_keys=True) + "\n"
