"""Open-gluing data on a multi-section, its triple-intersection cocycle, the
obstruction class on the order complex of the total space, and the transport
of gluing constants along cycles.

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

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from . import schema
from .complexes import Diagnostic
from .covers import MultiSection, edge_lift_id, face_lift_id
from .lattice import Vec, canonical_transverse, det2, dot

if TYPE_CHECKING:
    from .bundle import Bundle


class TorusElement:
    """Element of a coordinate torus: finite product of vector-tensor-scalar
    factors, evaluated on covectors by pairing exponents."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        merged: dict[Vec, Fraction] = {}
        for vec, q in factors:
            vec = (int(vec[0]), int(vec[1]))
            q = q if type(q) is Fraction else Fraction(q)
            if q == 0:
                raise ValueError("torus coefficients must be nonzero")
            cur = merged.get(vec)
            cur = q if cur is None else cur * q
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


# -- structure of the total space --------------------------------------------


class BarComplex(NamedTuple):
    """Order complex of the total space, numbered once: a node (lifted cell)
    is numbered by its place among the sorted ids, so every table is in id
    order. Edges are the inclusions, chains the full chains (vertex lift,
    edge lift, 2-cell lift) with their sides (ve, ef, vf) as edge numbers,
    triangles the chains with orientation signs, (v, e, f, sign), where the
    sign is 1 when the edge lift is over the corner's outgoing edge and -1
    when over its incoming one, and ``node`` the cover node, ``c * degree
    + s``, that each chain lies over."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    chains: tuple[tuple[int, int, int], ...]
    sides: tuple[tuple[int, int, int], ...]
    triangles: tuple[tuple[int, int, int, int], ...]
    node: tuple[int, ...]

    def number(self, src: str, dst: str) -> int | None:
        """Number of the edge of the flag from node ``src`` into ``dst``, or None."""
        key = (_position(self.nodes, src), _position(self.nodes, dst))
        return None if None in key else _position(self.edges, key)


def _position(table: tuple, key) -> int | None:
    i = bisect_left(table, key)
    return i if table[i : i + 1] == (key,) else None


def vertex_edge_flags(msec: MultiSection) -> dict[tuple[str, str], int]:
    """All (vertex lift, edge lift) inclusion flags, each mapped to the
    corner that carries it: the corner whose incoming edge is the flag's."""
    cover = msec.cover
    x, cx, r = cover.base._index, cover._index, cover.degree
    return {
        (cx.ids[cx.lift_of[c * r + cx.sheets[c][1][lift]]], edge_lift_id(x.ids[1][e], lift)): c
        for e, walls in enumerate(x.walls) for c in walls for lift in range(r)
    }


def bar_complex(msec: MultiSection) -> BarComplex:
    """Order complex of the total space of a valid section."""
    cover = msec.cover
    x, cx, r = cover.base._index, cover._index, cover.degree
    # vertex, edge and 2-cell lifts in the cover's numbers, then by rank among the sorted ids
    names = [*cx.ids, *[edge_lift_id(e, i) for e in x.ids[1] for i in range(r)],
             *[face_lift_id(f, s) for f in x.ids[2] for s in range(r)]]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = [0] * len(names)
    for i, k in enumerate(order):
        rank[k] = i
    ne, nf = len(cx.ids), len(cx.ids) + len(x.ids[1]) * r
    signed = []  # (vertex lift, edge lift, 2-cell lift, orientation sign, cover node)
    for c, (f, out, inn) in enumerate(x.corners):  # the boundary walk of f runs inn, vertex, out
        lo, li = cx.lifts[c]
        for s in range(r):
            v, flift = rank[cx.lift_of[c * r + s]], rank[nf + f * r + s]
            signed.append((v, rank[ne + out * r + lo[s]], flift, 1, c * r + s))
            signed.append((v, rank[ne + inn * r + li[s]], flift, -1, c * r + s))
    signed.sort()  # a 2-cell meets a vertex at one corner, so each chain once
    chains = tuple([t[:3] for t in signed])
    # every inclusion is a side of a chain; (a, b) is keyed a * n + b, which sorts as the pair
    n = len(names)
    ve = [v * n + e for v, e, _ in chains]
    ef = [e * n + f for _, e, f in chains]
    vf = [v * n + f for v, _, f in chains]
    keys = sorted({*ve, *ef, *vf})
    edge_no = dict(zip(keys, range(len(keys)))).__getitem__
    sides = zip(map(edge_no, ve), map(edge_no, ef), map(edge_no, vf))
    edges = tuple([divmod(k, n) for k in keys])
    return BarComplex(tuple([names[k] for k in order]), edges, chains, tuple(sides),
                      tuple([t[:4] for t in signed]), tuple([t[4] for t in signed]))


# -- gluing data --------------------------------------------------------------


def validate_gluing(
    msec: MultiSection, g: GluingData, bar: BarComplex
) -> tuple[Diagnostic, ...]:
    """Check gluing data on a valid section whose order complex is ``bar``:
    flags must be real inclusions; data landing in a rank-zero lattice
    (anything into a 2-cell lift) must be trivial. Returns the diagnostics."""
    diags: list[Diagnostic] = []
    ve = {ve for ve, _, _ in bar.sides}
    for (src, dst), elem in sorted(g.items()):
        b = bar.number(src, dst)
        if b is None:
            diags.append(Diagnostic(
                "gluing-flag", f"({src}, {dst}) is not a flag of the total space"))
        elif b not in ve and not elem.is_trivial:
            # an inclusion into a 2-cell lift is a side ef or vf of some chain
            t = min(t for t, (_, ef, vf) in enumerate(bar.sides) if b in (ef, vf))
            where = tuple(bar.nodes[x] for x in bar.chains[t])
            diags.append(Diagnostic(
                "gluing-cocycle-violation",
                f"nontrivial element into a 2-cell lift at chain {where}"))
    return tuple(diags)


def coboundary_gluing(
    msec: MultiSection,
    lam_vertex: dict[str, TorusElement],
    lam_edge: dict[str, Fraction],
) -> GluingData:
    """Gluing data of the form (vertex potential) / (edge potential) on every
    vertex-into-edge flag. Such data always has trivial obstruction. An edge
    potential's chart representative is its scalar against the canonical
    generator of the edge quotient at the smaller endpoint, the inverse at the
    other."""
    x, out = msec.cover.base._index, {}
    flags = vertex_edge_flags(msec)
    for vlift, elift in sorted(f for f in flags if f[0] in lam_vertex or f[1] in lam_edge):
        elem = lam_vertex.get(vlift, TRIVIAL)
        coeff = Fraction(lam_edge.get(elift, 1))
        if coeff != 1:
            c = flags[vlift, elift]
            e = x.corners[c][2]  # the flag's vertex is the end of e whose wall c is
            chart = coeff if x.ends[e][x.walls[e].index(c)] == min(x.ends[e]) else 1 / coeff
            ray = msec.cover.cone(c)[1]
            elem = elem * TorusElement.single(canonical_transverse(ray), 1 / chart)
        if not elem.is_trivial:
            out[(vlift, elift)] = elem
    return out


# -- kink compatibility and the triple cocycle -------------------------------


def check_edge_kinks(msec: MultiSection) -> list[str]:
    """Edge lifts whose kinks disagree between their two endpoints, on a
    valid section. Endpoint lifts of rank three or more hold raw chart data,
    have no kinks and are skipped."""
    cover = msec.cover
    x, cx, r, kinks = cover.base._index, cover._index, cover.degree, msec.kinks
    bad = []
    for e, (c, d) in enumerate(x.walls):  # the walls after corner c and d carry the edge
        for lift in range(r):
            kv, kw = kinks[c * r + cx.sheets[c][1][lift]], kinks[d * r + cx.sheets[d][1][lift]]
            if kv is not None and kw is not None and kv != kw:
                bad.append(edge_lift_id(x.ids[1][e], lift))
    return sorted(bad)


def _coprime_base(values) -> tuple[int, ...]:
    """-1 and increasing pairwise coprime integers above 1 whose powers give
    every given nonzero rational: split at common divisors, never factored
    (Bernstein, "Factoring into coprimes in essentially linear time", 2005)."""
    todo = sorted({abs(n) for q in values for n in (q.numerator, q.denominator)} - {0, 1})
    base: list[int] = []
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            d = gcd(n, b)
            if d > 1:  # the product of all numbers left drops by d
                del base[i]
                todo += [x for x in (d, n // d, b // d) if x > 1]
                break
        else:
            base.append(n)
    return (-1, *sorted(base))


def _fraction(base: tuple[int, ...], v) -> Fraction:
    """The rational with exponent vector ``v`` over ``base`` (-1 included)."""
    num = den = 1
    for p, e in zip(base, v):
        if e > 0:
            num *= p**e
        elif e < 0:
            den *= p**-e
    return Fraction(num, den)


class Cochain(NamedTuple):
    """Rationals on the chains or the edges of an order complex, by number, as exponent
    vectors over a coprime base: ``v`` stands for the product of ``base[i] ** v[i]``,
    ``base[0]`` being -1. Every trivial chain of ``triple_cocycle`` holds the shared zero
    vector ``one``; the solver skips arithmetic whose result this very object decides,
    and takes the arithmetic path, with the same result, on any other zero vector."""

    base: tuple[int, ...]
    one: tuple[int, ...]
    values: list[tuple[int, ...]]

    def fractions(self) -> list[Fraction]:
        """Every entry as a rational, converting each distinct vector once."""
        out = {self.one: Fraction(1)}
        return [out.get(v) or out.setdefault(v, _fraction(self.base, v)) for v in self.values]

    def vector(self, q: Fraction) -> tuple[int, ...]:
        """Exponent vector of a nonzero rational over the base, or raise."""
        out = [int(q < 0)] + [0] * (len(self.base) - 1)
        for sign, n in ((1, abs(q.numerator)), (-1, q.denominator)):
            for i, p in enumerate(self.base[1:], 1):
                while n and n % p == 0:
                    n //= p
                    out[i] += sign
            if n != 1:
                raise ValueError(f"{q} is not a product of powers of {self.base[1:]}")
        return tuple(out)


def triple_cocycle(
    msec: MultiSection, g: GluingData, bar: BarComplex, extra=()
) -> Cochain:
    """Value of the gluing data on every chain of ``bar``, the order complex
    of the total space of ``msec``, over a coprime base of the gluing
    coefficients and the rationals in ``extra``.

    The chain (vertex lift, edge lift, 2-cell lift) receives the vertex-edge
    element evaluated on the slope of the 2-cell lift, entirely in the chart
    of the chain's own vertex: the coefficient q of a factor t (x) q enters
    with exponent det(ray, t) * <m, q_t>. The section is checked: its edge
    lifts have kinks that agree between their endpoints, so edge potentials
    do not depend on the frame.
    """
    cover, slope_at = msec.cover, msec._slope_at
    # keyed by numerator and denominator: hashing a Fraction is slow
    coefficients = {(q.numerator, q.denominator): q for e in g.values() for _, q in e.factors}
    base = _coprime_base([*coefficients.values(), *extra])
    one = (0,) * len(base)
    c = Cochain(base, one, [one] * len(bar.chains))
    exps = {key: c.vector(q) for key, q in coefficients.items()}
    values, nodes = c.values, bar.nodes
    flag = None
    for t, (x, e, _) in enumerate(bar.chains):
        if (x, e) != flag:  # chains are sorted: those of one flag are adjacent
            flag, elem = (x, e), g.get((nodes[x], nodes[e]))
            if elem is not None:  # the sign says if e is the corner's outgoing or incoming edge
                out_ray, in_ray = cover.cone(bar.node[t] // cover.degree)
                ray = out_ray if bar.triangles[t][3] > 0 else in_ray
                qt = canonical_transverse(ray)
                coefficient = [0] * len(base)  # of the class against qt
                for vec, q in elem.factors:
                    d = det2(ray, vec)
                    for i, a in enumerate(exps[q.numerator, q.denominator]):
                        coefficient[i] += d * a
        if elem is None:
            continue
        n = dot(slope_at[bar.node[t]], qt)
        value = [n * a for a in coefficient]
        value[0] %= 2
        if any(value):
            values[t] = tuple(value)
    return c


# -- obstruction --------------------------------------------------------------


class ObstructionReport(NamedTuple):
    trivial: bool
    witness: Fraction
    cochain: Cochain | None


def obstruction_class(c: Cochain, bar: BarComplex) -> ObstructionReport:
    """Decide whether a triple cocycle on the order complex ``bar`` bounds,
    and if so produce a bounding 1-cochain on the edges of ``bar``, over the
    base of ``c``.

    The witness is the product of cocycle values against the orientation
    signs of the order complex; it is 1 exactly when a bounding cochain
    exists. The cochain is 1 off a breadth-first spanning tree of the chains
    and is checked chain by chain; ``normalize_splitting`` turns it into the
    canonical table.
    """
    one, values, sides = c.one, c.values, bar.sides
    w = [0] * len(one)
    for (_, _, _, sign), value in zip(bar.triangles, values):  # one triangle per chain
        if value is not one:
            for i, a in enumerate(value):
                w[i] += sign * a
    if w[0] % 2 or any(w[1:]):
        return ObstructionReport(False, _fraction(c.base, w), None)

    on_edge: list[list[int]] = [[] for _ in bar.edges]
    for t, trio in enumerate(sides):
        for b in trio:
            on_edge[b].append(t)
    parent_edge: list[int | None] = [None] * len(sides)  # None: not reached
    parent_edge[0] = -1
    order = [0]
    for t in order:  # breadth first: order grows while it is walked
        for b in sides[t]:
            for t2 in on_edge[b]:
                if parent_edge[t2] is None:
                    parent_edge[t2] = b
                    order.append(t2)
    if len(order) != len(sides):
        raise RuntimeError("order complex of the total space is disconnected")

    k = [one] * len(bar.edges)
    for t in reversed(order[1:]):
        b = parent_edge[t]
        ve, ef, vf = sides[t]
        target = values[t]
        # k_ef * k_ve / k_vf = c, solved for the tree edge b as x * y / z
        if b == ve:
            x, y, z = target, k[vf], k[ef]
        elif b == ef:
            x, y, z = target, k[vf], k[ve]
        else:
            x, y, z = k[ef], k[ve], target
        if x is not one or y is not one or z is not one:
            k[b] = tuple([p + q - r for p, q, r in zip(x, y, z)])
    cochain = c._replace(values=k)
    failed = unbounded_chains(bar, c, cochain)
    if failed:
        raise RuntimeError(f"bounding cochain fails on chain {failed[0]}")
    return ObstructionReport(True, Fraction(1), cochain)


def normalize_splitting(bar: BarComplex, k: Cochain) -> Cochain:
    """The bounding cochain ``k`` of ``obstruction_class`` times the
    coboundary that makes it 1 on a lexicographic spanning tree of the
    1-skeleton of ``bar``: the canonical splitting table."""
    one, kv = k.one, k.values
    adj: list[list[tuple[int, int, int]]] = [[] for _ in bar.nodes]
    for b, (x, y) in enumerate(bar.edges):
        adj[x].append((y, b, -1))  # x is the source of b: k'_b = k_b * h_y / h_x
        adj[y].append((x, b, 1))
    h: list[tuple[int, ...] | None] = [one] + [None] * (len(bar.nodes) - 1)
    stack = [0]
    while stack:
        x = stack.pop()
        for y, b, sign in sorted(adj[x]):
            if h[y] is not None:
                continue
            kb = kv[b]
            h[y] = h[x] if kb is one else tuple([p + sign * q for p, q in zip(h[x], kb)])
            stack.append(y)
    return k._replace(values=[
        one if kv[b] is one and h[x] is h[y]
        else tuple([p + q - r for p, q, r in zip(kv[b], h[y], h[x])])
        for b, (x, y) in enumerate(bar.edges)
    ])


def unbounded_chains(bar: BarComplex, c: Cochain, k: Cochain) -> list[tuple[str, str, str]]:
    """Chains (vertex lift, edge lift, 2-cell lift) of the order complex on
    which the 1-cochain ``k`` fails to bound ``c``, i.e. where
    k(e, f) * k(v, e) / k(v, f) differs from c(v, e, f); in chain order.
    The two cochains must share their base."""
    one, kv = c.one, k.values
    bad = []
    for t, (ve, ef, vf) in enumerate(bar.sides):
        x, y, z, val = kv[ef], kv[ve], kv[vf], c.values[t]
        if x is one and y is one and z is one and val is one:
            continue
        d = [p + q - r - s for p, q, r, s in zip(x, y, z, val)]
        if d[0] % 2 or any(d[1:]):
            bad.append(tuple(bar.nodes[n] for n in bar.chains[t]))
    return bad


# -- transport ----------------------------------------------------------------


class Transport(NamedTuple):
    """What the sheet comparison along any cycle of a rank-two section reads from
    one set of gluing data: the order complex, the triple cocycle and a bounding cochain."""

    msec: MultiSection
    bar: BarComplex
    c: Cochain
    k: Cochain


def transport(b: Bundle) -> Transport:
    """Compute the triple cocycle of a checked rank-two section with gluing
    data and the canonical splitting table: once per gluing, for every cycle
    that ``transport_ratios`` then reads."""
    if b.msec.cover.degree != 2:
        raise ValueError("transport needs a rank-two cover")
    c = triple_cocycle(b.msec, b.gluing, b.bar)
    ob = obstruction_class(c, b.bar)
    if not ob.trivial:
        raise ValueError(f"gluing-data inconsistency: obstruction witness {ob.witness}")
    return Transport(b.msec, b.bar, c, normalize_splitting(b.bar, ob.cochain))


def transport_ratios(t: Transport, cycle: list[str], sigma: str) -> list[tuple[str, Fraction]]:
    """Sheet-comparison ratio on each edge of a cycle bounding a 2-cell:
    (edge id, ratio) in cycle order."""
    cover, bar = t.msec.cover, t.bar
    x, r = cover.base._index, cover.degree
    f = x.number[2][sigma]
    # the chain over each cover node and its corner's outgoing (1) or incoming (-1) edge
    chain = {(node, tri[3]): k for k, (node, tri) in enumerate(zip(bar.node, bar.triangles))}

    def t_value(v: str, e: int, sheet: int) -> Fraction:
        # the chain over v, e and sigma under one sheet of sigma, and its vertex-edge side
        c = x.corner(x.number[0][v], f)
        k = chain[c * r + sheet, 1 if x.corners[c][1] == e else -1]
        value, side = t.c.values[k], t.k.values[bar.sides[k][0]]
        return _fraction(t.c.base, value) / _fraction(t.k.base, side)

    out = []
    n = len(cycle)
    for i in range(n):
        v, w = cycle[i], cycle[(i + 1) % n]
        eid = cover.base.edge_between(v, w)
        e = x.number[1][eid]
        if f not in x.sides[e]:
            raise ValueError(f"cycle edge {eid} is not on the boundary of {sigma}")
        lam = (t_value(v, e, 1) / t_value(v, e, 0)) / (t_value(w, e, 1) / t_value(w, e, 0))
        out.append((eid, lam))
    return out


# -- serialization ------------------------------------------------------------


def parse_gluing(data: dict) -> GluingData:
    """Gluing data from its gluing/v1 document; trivial elements are dropped."""
    return schema.GLUING.parse(data, _build_gluing)


def _build_gluing(assignments) -> GluingData:
    pairs = []
    for i, (flag, factors) in enumerate(assignments):
        try:
            pairs.append((flag, TorusElement(factors)))
        except ValueError:  # a zero coefficient
            raise schema.Malformed("has a zero coefficient", ValueError,
                                   "assignments", i, "element") from None
    return {flag: elem for flag, elem in schema.unique("assignments", pairs).items()
            if not elem.is_trivial}


def gluing_to_text(g: GluingData) -> str:
    assignments = [(flag, elem.factors) for flag, elem in sorted(g.items())]
    return schema.GLUING.text((assignments,))
