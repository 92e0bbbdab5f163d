"""The certificate of a ``not_simple`` verdict: the transport of gluing
constants along a minimal cycle, and the nonscalar endomorphism it supports.
No verdict runs this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bundle import Bundle
from .chern import CompleteFan, NewtonPolytope
from .covers import MultiSection
from .gluing import (
    BarComplex,
    Cochain,
    _fraction,
    normalize_splitting,
    obstruction_class,
    triple_cocycle,
)
from .graphs import _difference_data
from .lattice import Vec, dot


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


class WitnessRecord(NamedTuple):
    """Machine-checkable certificate extracted from a minimal cycle: sheet
    order, comparison constants, monomial weights, and the per-edge and
    per-vertex checks that were run."""

    order: tuple[int, int]
    constants: dict[str, Fraction]
    weights: dict[str, Vec]
    edge_checks: tuple[tuple[str, Fraction, bool], ...]
    vertex_checks: tuple[tuple[str, bool], ...]
    zero_extension: bool
    ok: bool


def _weight_candidates(
    msec: MultiSection,
    v: int,
    cycle_edges: set[str],
    cfan: CompleteFan,
    diff: list[Vec],
    poly: NewtonPolytope,
) -> list[Vec]:
    """Lattice points of the difference polytope that stay tight on the two
    cycle-edge rays and vanish on every other edge divisor at the vertex
    numbered ``v``, whose difference data ``_difference_data`` gives."""
    x = msec.cover.base._index
    corners = x.corners[x.first[v]:x.first[v + 1]]
    on_cycle = [x.ids[1][out] in cycle_edges for _, out, _ in corners]
    values = [dot(d, ray) for d, ray in zip(diff, cfan.rays)]
    return [p for p in sorted(poly.lattice_points)
            if all((dot(p, ray) == value) == on
                   for ray, value, on in zip(cfan.rays, values, on_cycle))]


def endomorphism_witness(
    t: Transport, minimal_cycle: tuple[tuple[str, ...], str]
) -> WitnessRecord:
    """Certificate that a minimal cycle supports a nonscalar endomorphism:
    comparison constants ratioed by the edge transports of ``t``, built once
    per gluing, monomial weights surviving exactly on the cycle, extended by
    zero elsewhere."""
    cycle, sigma = minimal_cycle
    cycle = list(cycle)
    msec = t.msec
    x, cx = msec.cover.base._index, msec.cover._index
    ratios = transport_ratios(t, cycle, sigma)
    nodes = {}  # per cycle vertex: its number and the node of sheet 0 at its corner of sigma
    for vid in cycle:
        v = x.number[0][vid]
        nodes[vid] = v, x.corner(v, x.number[2][sigma]) * msec.cover.degree

    for order in ((0, 1), (1, 0)):
        data = {}
        for vid, (v, node) in nodes.items():
            la, lb = cx.lift_of[node + order[0]], cx.lift_of[node + order[1]]
            data[vid] = _difference_data(msec, v, la, lb)
        if all(not poly.is_empty for _, _, poly in data.values()):
            break
    else:
        raise ValueError(
            "no sheet order gives nonempty difference polytopes along the cycle"
        )
    if order == (1, 0):
        # the transports compare sheet 1 against sheet 0; flip with the order
        ratios = [(eid, 1 / lam) for eid, lam in ratios]

    n = len(cycle)
    anchor = min(range(n), key=lambda i: cycle[i])
    constants = {cycle[anchor]: Fraction(1)}
    for step in range(n - 1):
        i = (anchor + step) % n
        v, w = cycle[i], cycle[(i + 1) % n]
        constants[w] = constants[v] * ratios[i][1]
    edge_checks = []
    for i in range(n):
        v, w = cycle[i], cycle[(i + 1) % n]
        eid, lam = ratios[i]
        edge_checks.append((eid, lam, constants[w] == constants[v] * lam))

    cycle_edges = {eid for eid, _ in ratios}
    weights = {}
    vertex_checks = []
    for v in cycle:
        cands = _weight_candidates(msec, nodes[v][0], cycle_edges, *data[v])
        if cands:
            weights[v] = cands[0]
        vertex_checks.append((v, bool(cands)))
    zero_extension = all(h for _, h in vertex_checks)
    ok = all(c for _, _, c in edge_checks) and zero_extension
    return WitnessRecord(
        order=order,
        constants=constants,
        weights=weights,
        edge_checks=tuple(edge_checks),
        vertex_checks=tuple(vertex_checks),
        zero_extension=zero_extension,
        ok=ok,
    )
