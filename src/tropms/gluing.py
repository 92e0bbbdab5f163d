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
from fractions import Fraction
from typing import NamedTuple

from .complexes import Diagnostic, ValidationReport, parses
from .covers import (MultiSection, _fan_ray, _kink_along, edge_lift_id,
                     face_lift_id, require_valid_section)
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

#: The value of every trivial chain of ``triple_cocycle``. The solver skips
#: arithmetic whose result this very object decides (a product of ONEs, a
#: quotient by ONE); a value that equals 1 but is another object takes the
#: arithmetic path, with the same result.
ONE = Fraction(1)

GluingData = dict[tuple[str, str], TorusElement]


def split_lift_id(lid: str) -> tuple[str, int]:
    base, _, idx = lid.rpartition("~")
    return base, int(idx)


# -- structure of the total space --------------------------------------------


class BarComplex(NamedTuple):
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
    """Order complex of the total space of a valid section."""
    cover = msec.cover
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
    return BarComplex(
        tuple(sorted(nodes)), tuple(sorted(edges)), tuple(sorted(triangles))
    )


# -- gluing data --------------------------------------------------------------


def trivial_gluing() -> GluingData:
    return {}


def validate_gluing(
    msec: MultiSection, g: GluingData, bar: BarComplex
) -> ValidationReport:
    """Check gluing data on a valid section whose order complex is ``bar``:
    flags must be real inclusions; data landing in a rank-zero lattice
    (anything into a 2-cell lift) must be trivial."""
    diags: list[Diagnostic] = []

    def bad(code, msg):
        diags.append(Diagnostic(code, msg))

    ve = vertex_edge_flags(msec)
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
    return ValidationReport(tuple(diags), msec.cover.base.euler_characteristic())


def require_valid(
    msec: MultiSection, g: GluingData | None = None
) -> BarComplex | None:
    """Validate a section, then its gluing data when given, where they enter
    the program; raise ValueError with the diagnostic codes unless valid.
    Functions that read the data later expect it valid and do not check.
    With gluing data, return the order complex of the total space: it is
    built once the section is valid, checks the gluing data, and is passed
    on to the functions that read it."""
    require_valid_section(msec)
    if g is None:
        return None
    bar = bar_complex(msec)
    rep = validate_gluing(msec, g, bar)
    if not rep.ok:
        raise ValueError(f"gluing data invalid: {rep.codes()}")
    return bar


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
    ray = _fan_ray(cover.base, v, eid)
    i = cover.wall_position(v, eid)
    if i is None:
        raise ValueError(f"edge {eid} not incident to vertex {v}")
    fid, fid2 = corners[i][0], corners[(i + 1) % len(corners)][0]
    lid = cover.vertex_lift_at_edge(v, eid, lift)
    u1 = msec.slope(lid, fid, cover.matching(eid, fid)[lift])
    u2 = msec.slope(lid, fid2, cover.matching(eid, fid2)[lift])
    return _kink_along((u2[0] - u1[0], u2[1] - u1[1]), ray)


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


def triple_cocycle(msec: MultiSection, g: GluingData, bar: BarComplex) -> Cochain2:
    """Value of the gluing data on every chain of ``bar``, the order complex
    of the total space of ``msec``.

    The chain (vertex lift, edge lift, 2-cell lift) receives the vertex-edge
    element evaluated on the slope of the 2-cell lift, entirely in the chart
    of the chain's own vertex. Edge lifts whose kinks disagree between their
    endpoints make edge potentials frame-dependent and are rejected.
    """
    mism = check_edge_kinks(msec)
    if mism:
        raise ValueError(f"edge kinks disagree between endpoints: {mism}")
    out: Cochain2 = {}
    for x, elift, flift, _ in bar.triangles:
        key = (x, elift, flift)
        if key in out:
            continue
        elem = g.get((x, elift), TRIVIAL)
        if elem.is_trivial:
            out[key] = ONE
            continue
        eid, _ = split_lift_id(elift)
        fid, sheet = split_lift_id(flift)
        ray = _fan_ray(msec.cover.base, base_vertex(x), eid)
        m = msec.slope(x, fid, sheet)
        out[key] = elem.edge_value(ray, m)
    return out


# -- obstruction --------------------------------------------------------------


class ObstructionReport(NamedTuple):
    trivial: bool
    witness: Fraction
    cochain: dict[tuple[str, str], Fraction] | None


def obstruction_class(c: Cochain2, bar: BarComplex) -> ObstructionReport:
    """Decide whether a triple cocycle on the order complex ``bar`` bounds,
    and if so produce a bounding 1-cochain on the edges of ``bar``.

    The witness is the product of cocycle values against the orientation
    signs of the order complex; it is 1 exactly when a bounding cochain
    exists. The cochain is 1 off a breadth-first spanning tree of the chains
    and is checked chain by chain; ``normalize_splitting`` turns it into the
    canonical table.
    """
    witness = ONE
    for tail, elift, flift, sign in bar.triangles:
        val = c[(tail, elift, flift)]
        if val is not ONE:
            witness *= val if sign == 1 else 1 / val
    if witness != 1:
        return ObstructionReport(False, witness, None)

    # chains and edges of the order complex by number, sides as (ve, ef, vf)
    number = {b: i for i, b in enumerate(bar.edges)}
    chains = list(dict.fromkeys(t[:3] for t in bar.triangles))
    sides = [(number[v, e], number[e, f], number[v, f]) for v, e, f in chains]
    on_edge: list[list[int]] = [[] for _ in bar.edges]
    for t, trio in enumerate(sides):
        for b in trio:
            on_edge[b].append(t)

    parent_edge: list[int | None] = [None] * len(chains)  # None: not reached
    parent_edge[0] = -1
    order = [0]
    for t in order:  # breadth first: order grows while it is walked
        for b in sides[t]:
            for t2 in on_edge[b]:
                if parent_edge[t2] is None:
                    parent_edge[t2] = b
                    order.append(t2)
    if len(order) != len(chains):
        raise RuntimeError("order complex of the total space is disconnected")

    k = [ONE] * len(bar.edges)
    for t in reversed(order[1:]):
        b = parent_edge[t]
        ve, ef, vf = sides[t]
        target = c[chains[t]]
        # k_ef * k_ve / k_vf = c, solved for the tree edge b as x * y / z
        if b == ve:
            x, y, z = target, k[vf], k[ef]
        elif b == ef:
            x, y, z = target, k[vf], k[ve]
        else:
            x, y, z = k[ef], k[ve], target
        k[b] = ONE if x is ONE and y is ONE and z is ONE else x * y / z
    cochain = dict(zip(bar.edges, k))
    failed = unbounded_chains(bar, c, cochain)
    if failed:
        raise RuntimeError(f"bounding cochain fails on chain {failed[0]}")
    return ObstructionReport(True, Fraction(1), cochain)


def normalize_splitting(
    bar: BarComplex, k: dict[tuple[str, str], Fraction]
) -> dict[tuple[str, str], Fraction]:
    """The bounding cochain ``k`` of ``obstruction_class`` times the
    coboundary that makes it 1 on a lexicographic spanning tree of the
    1-skeleton of ``bar``: the canonical splitting table."""
    adj: dict[str, list] = {n: [] for n in bar.nodes}
    for x, y in bar.edges:
        adj[x].append((y, (x, y), True))
        adj[y].append((x, (x, y), False))
    h = {bar.nodes[0]: ONE}
    stack = [bar.nodes[0]]
    while stack:
        x = stack.pop()
        for y, b, forward in sorted(adj[x]):
            if y in h:
                continue
            # forward: x is the source of b, so k'_b = k_b * h_y / h_x
            kb = k[b]
            h[y] = h[x] if kb is ONE else h[x] / kb if forward else h[x] * kb
            stack.append(y)
    return {
        (x, y): ONE if k[x, y] is ONE and h[x] is h[y] else k[x, y] * h[y] / h[x]
        for x, y in bar.edges
    }


def unbounded_chains(
    bar: BarComplex, c: Cochain2, k: dict[tuple[str, str], Fraction]
) -> list[tuple[str, str, str]]:
    """Chains (vertex lift, edge lift, 2-cell lift) of the order complex on
    which the 1-cochain ``k`` fails to bound ``c``, i.e. where
    k(e, f) * k(v, e) / k(v, f) differs from c(v, e, f); in triangle order."""
    bad = []
    for chain in dict.fromkeys(t[:3] for t in bar.triangles):
        v, e, f = chain
        ef, ve, vf, val = k[(e, f)], k[(v, e)], k[(v, f)], c[chain]
        if ef is ONE and ve is ONE and vf is ONE and val is ONE:
            continue
        if ef * ve / vf != val:
            bad.append(chain)
    return bad


# -- holonomy -----------------------------------------------------------------


class Transport(NamedTuple):
    """What the sheet comparison along any cycle of a rank-two section reads
    from one set of gluing data: the triple cocycle and a bounding cochain."""

    msec: MultiSection
    c: Cochain2
    k: dict[tuple[str, str], Fraction]


def transport(
    msec: MultiSection, g: GluingData, k: dict[tuple[str, str], Fraction] | None = None
) -> Transport:
    """Validate a rank-two section and its gluing data, and compute the triple
    cocycle and, unless ``k`` is given, the canonical splitting table: once
    per gluing, for every cycle that ``transport_ratios`` then reads."""
    if msec.cover.degree != 2:
        raise ValueError("transport needs a rank-two cover")
    bar = require_valid(msec, g)
    c = triple_cocycle(msec, g, bar)
    if k is None:
        ob = obstruction_class(c, bar)
        if not ob.trivial:
            raise ValueError(
                f"gluing-data inconsistency: obstruction witness {ob.witness}"
            )
        k = normalize_splitting(bar, ob.cochain)
    return Transport(msec, c, k)


def transport_ratios(t: Transport, cycle: list[str], sigma: str) -> list[tuple[str, Fraction]]:
    """Sheet-comparison ratio on each edge of a cycle bounding a 2-cell:
    (edge id, ratio) in cycle order."""
    cover = t.msec.cover
    faces = cover.base.cells[sigma].faces

    def t_value(v: str, eid: str, sheet: int) -> Fraction:
        lift = cover.matching(eid, sigma).index(sheet)
        elift = edge_lift_id(eid, lift)
        vlift = cover.vertex_lift_at_edge(v, eid, lift)
        kk = t.k.get((vlift, elift), Fraction(1))
        return t.c[(vlift, elift, face_lift_id(sigma, sheet))] / kk

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


def holonomy_around_cycle(t: Transport, cycle: list[str], sigma: str) -> Fraction:
    """Multiplicative holonomy of the sheet-comparison constants around a
    cycle bounding a 2-cell.

    With the canonical bounding cochain the holonomy of consistent gluing
    data is 1; a transport on an explicit cochain exposes corrupted data.
    """
    hol = Fraction(1)
    for _, lam in transport_ratios(t, cycle, sigma):
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
