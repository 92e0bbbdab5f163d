"""Embedded graphs in the skeleton, the branch-free graph and its minimal
cycles, the fiber product of a cover with itself, and the simplicity
verdicts.

Verdict reasons cite rule ids from docs/GLOSSARY.md in square brackets so
reports can be traced to the exact condition that fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .chern import (
    CompleteFan,
    NewtonPolytope,
    newton_polytope,
    nonvanishing_at_fixed_point,
)
from .covers import MultiSection, check_class_C, classify, validate_multisection
from .gluing import GluingData, edge_lift_id, face_lift_id, transport_ratios
from .lattice import Vec, dot


@dataclass(frozen=True)
class EmbeddedGraph:
    """Subgraph of the 1-skeleton of a host complex."""

    vertices: frozenset[str]
    edges: frozenset[str]
    host: object

    def __post_init__(self):
        for e in self.edges:
            for v in self.host.cells[e].faces:
                if v not in self.vertices:
                    raise ValueError(f"edge {e} has endpoint {v} outside the graph")

    @property
    def is_empty(self) -> bool:
        return not self.vertices


@dataclass(frozen=True)
class PairCell:
    """Cell of the fiber product: an ordered pair of lifts over one base cell."""

    id: str
    dim: int
    a: str
    b: str
    base: str
    faces: tuple[str, ...]
    diagonal: bool


@dataclass(frozen=True)
class FiberProductComplex:
    """Self fiber product of a branched cover, cell by cell."""

    cover: object
    cells: dict[str, PairCell]

    def of_dim(self, d: int) -> list[PairCell]:
        return sorted(
            (c for c in self.cells.values() if c.dim == d), key=lambda c: c.id
        )

    @property
    def faces2(self) -> list[PairCell]:
        return self.of_dim(2)

    def diagonal_part(self) -> list[PairCell]:
        return sorted(
            (c for c in self.cells.values() if c.diagonal), key=lambda c: c.id
        )

    def off_diagonal_part(self) -> list[PairCell]:
        return sorted(
            (c for c in self.cells.values() if not c.diagonal), key=lambda c: c.id
        )

    def project(self, cid: str) -> str:
        return self.cells[cid].base

    def boundary_cycle(self, pid: str) -> tuple[str, ...]:
        """Pair vertices around a 2-cell pair, following the base cycle."""
        cell = self.cells[pid]
        if cell.dim != 2:
            raise ValueError(f"{pid} is not a 2-cell pair")
        cover = self.cover
        sa = int(cell.a.rsplit("~", 1)[1])
        sb = int(cell.b.rsplit("~", 1)[1])
        out = []
        for v in cover.base.boundary_cycle(cell.base):
            va = cover.vertex_lift_at_face(v, cell.base, sa)
            vb = cover.vertex_lift_at_face(v, cell.base, sb)
            out.append(pair_id(va, vb))
        return tuple(out)


def pair_id(a: str, b: str) -> str:
    return f"{a}|{b}"


def _require_valid(msec: MultiSection) -> None:
    rep = validate_multisection(msec)
    if not rep.ok:
        raise ValueError(f"multi-section is invalid: {rep.codes()}")


# -- the branch-free graph ----------------------------------------------------


def build_G0(msec: MultiSection) -> EmbeddedGraph:
    """Vertices and edges of the base whose closures avoid the branch set."""
    _require_valid(msec)
    base = msec.cover.base
    branch = msec.cover.branch_vertices
    vertices = frozenset(v.id for v in base.vertices if v.id not in branch)
    edges = frozenset(
        e.id for e in base.edges if all(v not in branch for v in e.faces)
    )
    return EmbeddedGraph(vertices, edges, base)


def find_minimal_cycles(g: EmbeddedGraph) -> list[tuple[tuple[str, ...], str]]:
    """Boundary cycles of host 2-cells lying entirely inside the graph,
    ordered by 2-cell id."""
    out = []
    for f in g.host.faces2:
        if all(e in g.edges for e in f.faces):
            cyc = g.host.boundary_cycle(f.id)
            if all(v in g.vertices for v in cyc):
                out.append((cyc, f.id))
    out.sort(key=lambda item: item[1])
    return out


# -- fiber product ------------------------------------------------------------


def build_fiber_product(msec: MultiSection) -> FiberProductComplex:
    """All ordered pairs of lifts with equal image, incidence componentwise."""
    _require_valid(msec)
    cover = msec.cover
    base = cover.base
    lifts: dict[str, list[str]] = {}
    faces_of: dict[str, tuple[str, ...]] = {}
    base_of: dict[str, str] = {}
    for v in base.vertices:
        lifts[v.id] = cover.vertex_lift_ids(v.id)
        for lid in lifts[v.id]:
            faces_of[lid] = ()
            base_of[lid] = v.id
    for e in base.edges:
        ids = []
        for lift in range(cover.degree):
            lid = edge_lift_id(e.id, lift)
            ids.append(lid)
            faces_of[lid] = tuple(
                cover.vertex_lift_at_edge(v, e.id, lift) for v in e.faces
            )
            base_of[lid] = e.id
        lifts[e.id] = ids
    for f in base.faces2:
        ids = []
        for sheet in range(cover.degree):
            lid = face_lift_id(f.id, sheet)
            ids.append(lid)
            faces_of[lid] = tuple(
                edge_lift_id(eid, cover.matching(eid, f.id).index(sheet))
                for eid in f.faces
            )
            base_of[lid] = f.id
        lifts[f.id] = ids

    cells: dict[str, PairCell] = {}
    for cell in base.cells.values():
        for a, b in product(lifts[cell.id], lifts[cell.id]):
            pid = pair_id(a, b)
            pair_faces = tuple(
                sorted(
                    pair_id(fa, fb)
                    for fa in faces_of[a]
                    for fb in faces_of[b]
                    if base_of[fa] == base_of[fb]
                )
            )
            cells[pid] = PairCell(pid, cell.dim, a, b, cell.id, pair_faces, a == b)
    return FiberProductComplex(cover, cells)


def _lift_slopes_by_cone(msec: MultiSection, v: str, lid: str) -> list[Vec]:
    """Slopes of a single-sheeted vertex lift, listed in the fan's cone order."""
    cover = msec.cover
    fan = cover.base.fans[v]
    corners = cover.wall_sequence(v)
    cyc = cover.lift_cycle_of(v, lid)
    if len(cyc) != len(corners):
        raise ValueError(f"lift {lid} is not single-sheeted over {v}")
    sheet_at = {corners[pos][0]: s for pos, s in cyc}
    face_at = {pair[0]: face2 for face2, pair in fan.cones}
    return [
        msec.slope(lid, face_at[i], sheet_at[face_at[i]])
        for i in range(len(fan.rays))
    ]


def _difference_data(
    msec: MultiSection, v: str, lift_a: str, lift_b: str
) -> tuple[CompleteFan, list[Vec], NewtonPolytope]:
    """Fan at a vertex with the per-cone slope difference of two lifts and
    its Newton polytope."""
    fan = msec.cover.base.fans[v]
    cfan = CompleteFan([vec for vec, _ in fan.rays])
    sa = _lift_slopes_by_cone(msec, v, lift_a)
    sb = _lift_slopes_by_cone(msec, v, lift_b)
    diff = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(sa, sb)]
    return cfan, diff, newton_polytope(cfan, diff)


def difference_polytope(
    msec: MultiSection, v: str, lift_a: str, lift_b: str
) -> NewtonPolytope:
    """Newton polytope of the difference of two vertex-lift functions."""
    return _difference_data(msec, v, lift_a, lift_b)[2]


def build_G0_tilde(msec: MultiSection) -> EmbeddedGraph:
    """Branch-free pair vertices with nonempty difference polytope, and the
    pair edges between them."""
    _require_valid(msec)
    fp = build_fiber_product(msec)
    branch = msec.cover.branch_vertices
    vertices = set()
    for cell in fp.of_dim(0):
        if cell.base in branch:
            continue
        if not difference_polytope(msec, cell.base, cell.a, cell.b).is_empty:
            vertices.add(cell.id)
    edges = frozenset(
        cell.id
        for cell in fp.of_dim(1)
        if all(pv in vertices for pv in cell.faces)
    )
    return EmbeddedGraph(frozenset(vertices), edges, fp)


# -- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    tag: str  # simple | not_simple | smoothable | criterion_inconclusive | refused
    reasons: tuple[str, ...]
    witnesses: tuple

    def __post_init__(self):
        if not self.reasons:
            raise ValueError("a verdict must cite at least one reason")


class Refusal(ValueError):
    """A criterion declines to run because a required assertion is missing."""


_SMOOTH_FLAGS = ("positive", "simple", "elementary")


def _smoothable_upgrade(
    msec: MultiSection, obstruction_established: bool
) -> str | None:
    base = msec.cover.base
    if not all(base.asserted.get(f, False) for f in _SMOOTH_FLAGS):
        return None
    if not obstruction_established:
        return None
    return (
        "[smoothability-upgrade] base complex asserted "
        + "+".join(_SMOOTH_FLAGS)
        + " and the gluing obstruction is established trivial"
    )


def is_simple_rank2(
    msec: MultiSection, obstruction_established: bool = False
) -> Verdict:
    """Simplicity of a rank-two alternating multi-section from its branch-free
    graph: weight gap 1 forbids minimal cycles, gap 2 forbids edges, gap 3 or
    more forbids vertices."""
    tag = classify(msec)
    if tag.tag != "S_mn":
        raise ValueError(
            f"class mismatch: the rank-two criterion needs a uniform "
            f"alternating class, classification gave {tag.tag!r}"
        )
    m, n = tag.pair
    d = m - n
    g0 = build_G0(msec)

    if d == 1:
        witnesses = tuple(find_minimal_cycles(g0))
        rule = (
            "[rank2-gap1] weight gap 1: simple if and only if the "
            "branch-free graph carries no minimal cycle"
        )
    elif d == 2:
        witnesses = tuple(sorted(g0.edges))
        rule = (
            "[rank2-gap2] weight gap 2: simple if and only if the "
            "branch-free graph has no edges"
        )
    else:
        witnesses = tuple(sorted(g0.vertices))
        rule = (
            "[rank2-gap3] weight gap 3 or more: simple if and only if the "
            "branch-free graph is empty"
        )

    if witnesses:
        return Verdict("not_simple", (rule,), witnesses)
    upgrade = _smoothable_upgrade(msec, obstruction_established)
    if upgrade:
        return Verdict("smoothable", (rule, upgrade), ())
    return Verdict("simple", (rule,), ())


def general_simplicity(
    msec: MultiSection, local_bundles_asserted: bool = False
) -> Verdict:
    """Sufficient criterion for sections with pairwise distinct covectors: no
    minimal cycle on the branch-free pair graph and a surviving fixed point at
    every pair vertex.

    One-directional: when a condition fails the verdict is inconclusive,
    never a proof of non-simplicity.
    """
    crep = check_class_C(msec)
    if not crep.ok:
        raise ValueError(
            f"class mismatch: distinct-covector conditions fail: {crep.violations}"
        )
    if not local_bundles_asserted:
        raise Refusal(
            "[local-bundle-assumption] existence of standard local models at "
            "the branch vertices must be asserted by the caller; refusing to "
            "run the general criterion without it"
        )
    gt = build_G0_tilde(msec)
    g0 = build_G0(msec)
    cycles_pair = find_minimal_cycles(gt)
    cycles_base = find_minimal_cycles(g0)
    failures = []
    witnesses: list = []
    if cycles_pair or cycles_base:
        failures.append(
            "[general-criterion] minimal cycles exist on the branch-free "
            f"graphs (pair level: {len(cycles_pair)}, base level: "
            f"{len(cycles_base)})"
        )
        witnesses.extend(cycles_pair if cycles_pair else cycles_base)
    starved = []
    for pv in sorted(gt.vertices):
        cell = gt.host.cells[pv]
        cfan, diff, _ = _difference_data(msec, cell.base, cell.a, cell.b)
        if not any(
            nonvanishing_at_fixed_point(cfan, diff, i)
            for i in range(cfan.n_cones)
        ):
            starved.append(pv)
    if starved:
        failures.append(
            "[fixed-point-support] pair vertices where every cone fails the "
            f"nonvanishing test: {starved}"
        )
        witnesses.extend(starved)
    if not failures:
        return Verdict(
            "smoothable",
            (
                "[general-criterion] no minimal cycle on the branch-free pair "
                "graph, cross-checked against the base branch-free graph",
                "[fixed-point-support] every pair vertex keeps a surviving "
                "fixed point",
                "[general-criterion] criterion satisfied: simple and smoothable",
            ),
            (),
        )
    return Verdict("criterion_inconclusive", tuple(failures), tuple(witnesses))


def simplicity_verdict(
    msec: MultiSection,
    criterion: str,
    asserts: Callable[[str], bool],
    obstruction_trivial: bool = False,
) -> Verdict:
    """Run the rank-2 or the general criterion, reading the caller's
    assertion flags through ``asserts``.

    A trivial gluing obstruction feeds the smoothability upgrade only when
    the gluing data is asserted to be induced by an open cover. A general
    criterion run without asserted local models is refused, with the
    refusal as the verdict's only reason.
    """
    if criterion == "rank2":
        return is_simple_rank2(
            msec,
            obstruction_established=obstruction_trivial
            and asserts("open-gluing-induced"),
        )
    try:
        return general_simplicity(
            msec, local_bundles_asserted=asserts("assumption-1.4")
        )
    except Refusal as err:
        return Verdict("refused", (str(err),), ())


# -- endomorphism witness -----------------------------------------------------


@dataclass(frozen=True)
class WitnessRecord:
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
    v: str,
    cycle_edges: set[str],
    diff: list[Vec],
    poly: NewtonPolytope,
) -> list[Vec]:
    """Lattice points of the difference polytope that stay tight on the two
    cycle-edge rays and vanish on every other edge divisor at the vertex."""
    fan = msec.cover.base.fans[v]
    vecs = [vec for vec, _ in fan.rays]
    eids = [e for _, e in fan.rays]
    values = [dot(diff[i], vecs[i]) for i in range(len(vecs))]
    good = []
    for p in sorted(poly.lattice_points):
        ok = True
        for i, r in enumerate(vecs):
            tight = dot(p, r) == values[i]
            if tight != (eids[i] in cycle_edges):
                ok = False
                break
        if ok:
            good.append(p)
    return good


def endomorphism_witness(
    msec: MultiSection,
    g: GluingData,
    minimal_cycle: tuple[tuple[str, ...], str],
) -> WitnessRecord:
    """Certificate that a minimal cycle supports a nonscalar endomorphism:
    comparison constants ratioed by the edge transports, monomial weights
    surviving exactly on the cycle, extended by zero elsewhere."""
    cycle, sigma = minimal_cycle
    cycle = list(cycle)
    cover = msec.cover
    ratios = transport_ratios(msec, g, cycle, sigma)

    for order in ((0, 1), (1, 0)):
        data = {}
        for v in cycle:
            la = cover.vertex_lift_at_face(v, sigma, order[0])
            lb = cover.vertex_lift_at_face(v, sigma, order[1])
            data[v] = _difference_data(msec, v, la, lb)
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
        _, diff, poly = data[v]
        cands = _weight_candidates(msec, v, cycle_edges, diff, poly)
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
