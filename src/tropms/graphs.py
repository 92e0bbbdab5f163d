"""Embedded graphs in the skeleton, the branch-free graph and its minimal
cycles, the fiber product of a cover with itself, and the simplicity
verdicts.

Verdict reasons cite rule ids from docs/GLOSSARY.md in square brackets so
reports can be traced to the exact condition that fired. The certificate of
a ``not_simple`` verdict is built by ``certificate``, which no verdict runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .covers import BranchedCover, ClassTag, MultiSection, check_class_C, edge_lift_id, face_lift_id
from .lattice import Vec

if TYPE_CHECKING:  # loaded where it runs: at a pair vertex
    from .chern import CompleteFan, NewtonPolytope


class _Graph(NamedTuple):
    vertices: frozenset[int]
    edges: frozenset[int]
    host: object


class EmbeddedGraph(_Graph):
    """Subgraph of the 1-skeleton of a host, a base surface or a fiber
    product, given by the numbers of its vertices and edges in the host."""

    __slots__ = ()

    def __new__(cls, vertices: frozenset[int], edges: frozenset[int], host: object):
        fp = isinstance(host, FiberProductComplex)
        for e in edges:
            for v in host.cells[e].faces if fp else host._index.ends[e]:
                if v not in vertices:
                    raise ValueError(f"edge {e} has endpoint {v} outside the graph")
        return super().__new__(cls, vertices, edges, host)


class PairCell(NamedTuple):
    """Cell of the fiber product: an ordered pair of lifts a, b over one base
    cell, all by number. The base cell is numbered among the cells of its
    dimension; vertex lifts are numbered as the cover numbers them, edge and
    2-cell lifts by their lift and sheet. Faces are pair cells."""

    dim: int
    base: int
    a: int
    b: int
    faces: tuple[int, ...]

    @property
    def diagonal(self) -> bool:
        return self.a == self.b


class FiberProductComplex(NamedTuple):
    """Self fiber product of a branched cover over some base cells. Its cells
    are numbered dimension by dimension; the pairs (a, b) over one base cell
    are numbered from ``start[dim][base cell]`` on, by a and then by b, each
    counted from the cell's first lift."""

    cover: BranchedCover
    cells: list[PairCell]
    start: tuple[dict[int, int], ...]  # per dimension: base cell -> its first pair cell
    first: list[int]  # per dimension and one more: its first pair cell

    def of_dim(self, d: int) -> range:
        return range(self.first[d], self.first[d + 1])

    def vertex(self, v: int, a: int, b: int) -> int:
        """Number of the pair vertex over base vertex ``v`` with lifts ``a`` and ``b``."""
        lo = self.cover._index.first
        return self.start[0][v] + (a - lo[v]) * (lo[v + 1] - lo[v]) + b - lo[v]

    def lift_ids(self, k: int) -> tuple[str, str]:
        """The ids of the two lifts of pair cell ``k``."""
        dim, base, a, b, _ = self.cells[k]
        if dim == 0:
            ids = self.cover._index.ids
            return ids[a], ids[b]
        name = self.cover.base._index.ids[dim][base]
        lift_id = edge_lift_id if dim == 1 else face_lift_id
        return lift_id(name, a), lift_id(name, b)

    def id(self, k: int) -> str:
        return pair_id(*self.lift_ids(k))

    def boundary_cycle(self, k: int) -> tuple[int, ...]:
        """Pair vertices around pair 2-cell ``k``, following the base cycle."""
        cell = self.cells[k]
        if cell.dim != 2:
            raise ValueError(f"{self.id(k)} is not a 2-cell pair")
        x, cx, r = self.cover.base._index, self.cover._index, self.cover.degree
        out = []
        for vid in self.cover.base.orientation[x.ids[2][cell.base]]:
            v = x.number[0][vid]
            c = x.corner(v, cell.base)
            out.append(self.vertex(v, cx.lift_of[c * r + cell.a], cx.lift_of[c * r + cell.b]))
        return tuple(out)


def pair_id(a: str, b: str) -> str:
    return f"{a}|{b}"


# -- the branch-free graph ----------------------------------------------------


def _branch_free(msec: MultiSection) -> tuple[list[int], ...]:
    """Numbers of the base vertices, edges and 2-cells whose closures avoid
    the branch set."""
    x = msec.cover.base._index
    free = [vid not in msec.cover.branch_vertices for vid in x.ids[0]]
    edges = [e for e, (a, b) in enumerate(x.ends) if free[a] and free[b]]
    inside = set(edges)
    return ([v for v, ok in enumerate(free) if ok], edges,
            [f for f, walk in enumerate(x.walks) if inside.issuperset(walk)])


def build_G0(msec: MultiSection) -> EmbeddedGraph:
    """Vertices and edges of the base whose closures avoid the branch set.
    The section must be valid."""
    vertices, edges, _ = _branch_free(msec)
    return EmbeddedGraph(frozenset(vertices), frozenset(edges), msec.cover.base)


def find_minimal_cycles(g: EmbeddedGraph) -> list[tuple[tuple[str, ...], str]]:
    """Boundary cycles of host 2-cells whose edges all lie inside the graph,
    as (vertex ids in cycle order, 2-cell id), ordered by 2-cell id."""
    host = g.host
    if isinstance(host, FiberProductComplex):
        out = [(tuple(map(host.id, host.boundary_cycle(k))), host.id(k))
               for k in host.of_dim(2) if g.edges.issuperset(host.cells[k].faces)]
    else:
        x = host._index
        out = [(host.boundary_cycle(x.ids[2][f]), x.ids[2][f])
               for f, walk in enumerate(x.walks) if g.edges.issuperset(walk)]
    return sorted(out, key=lambda item: item[1])


# -- fiber product ------------------------------------------------------------


def _pairs_over(msec: MultiSection, cells: tuple[list[int], ...]) -> FiberProductComplex:
    """Ordered pairs of lifts over the base cells numbered ``cells[d]`` in
    each dimension d, which must include the faces of each, with incidence
    componentwise. The section must be valid."""
    cover = msec.cover
    x, cx, r = cover.base._index, cover._index, cover.degree
    fp = FiberProductComplex(cover, [], ({}, {}, {}), [0])
    out, start = fp.cells, fp.start
    for v in cells[0]:
        start[0][v] = len(out)
        lifts = range(cx.first[v], cx.first[v + 1])
        out += [PairCell(0, v, a, b, ()) for a in lifts for b in lifts]
    fp.first.append(len(out))
    for e in cells[1]:
        start[1][e] = len(out)
        # per end: the vertex lift there of each edge lift
        ends = [(v, [cx.lift_of[c * r + s] for s in cx.sheets[c][1]])
                for v, c in zip(x.ends[e], x.walls[e])]
        out += [PairCell(1, e, a, b, tuple([fp.vertex(v, at[a], at[b]) for v, at in ends]))
                for a in range(r) for b in range(r)]
    fp.first.append(len(out))
    rims: dict[int, list] = {f: [] for f in cells[2]}  # per 2-cell: (edge, its lift on each sheet)
    for c, (f, out_edge, _) in enumerate(x.corners):
        if f in rims:
            rims[f].append((start[1][out_edge], cx.lifts[c][0]))
    for f, rim in rims.items():
        start[2][f] = len(out)
        out += [PairCell(2, f, a, b, tuple([e0 + lift[a] * r + lift[b] for e0, lift in rim]))
                for a in range(r) for b in range(r)]
    fp.first.append(len(out))
    return fp


def build_fiber_product(msec: MultiSection) -> FiberProductComplex:
    """All ordered pairs of lifts with equal image, incidence componentwise.
    The section must be valid."""
    ids = msec.cover.base._index.ids
    return _pairs_over(msec, tuple([list(range(len(ids[d]))) for d in (0, 1, 2)]))


def _difference_data(
    msec: MultiSection, v: int, a: int, b: int
) -> tuple[CompleteFan, list[Vec], NewtonPolytope]:
    """Fan at the vertex numbered ``v``, with cone i at its i-th corner, the
    slope difference on each cone of its single-sheeted lifts numbered ``a``
    and ``b``, and its Newton polytope: the origin when a is b."""
    from .chern import CompleteFan, NewtonPolytope, newton_polytope

    cover = msec.cover
    x, cx, slope_at = cover.base._index, cover._index, msec._slope_at
    corners = range(x.first[v], x.first[v + 1])
    for lift in (a, b):
        if len(cx.orbits[lift]) != len(corners):
            raise ValueError(f"lift {cx.ids[lift]} is not single-sheeted over {x.ids[0][v]}")
    # a single-sheeted orbit has its i-th node at the vertex's i-th corner
    diff = [(slope_at[q][0] - slope_at[p][0], slope_at[q][1] - slope_at[p][1])
            for p, q in zip(cx.orbits[a], cx.orbits[b])]
    cfan = CompleteFan([cover.cone(c)[0] for c in corners])
    if a == b:  # the difference is zero
        return cfan, diff, NewtonPolytope(frozenset({(0, 0)}), ((0, 0),))
    return cfan, diff, newton_polytope(cfan, diff)


def _pair_graph(msec: MultiSection) -> tuple[EmbeddedGraph, dict[int, tuple]]:
    """The branch-free pair graph, and the difference data of
    ``_difference_data`` at each of its vertices."""
    fp = _pairs_over(msec, _branch_free(msec))
    data = {}
    for k in fp.of_dim(0):
        cell = fp.cells[k]
        found = _difference_data(msec, cell.base, cell.a, cell.b)
        if not found[2].is_empty:
            data[k] = found
    edges = frozenset(k for k in fp.of_dim(1) if all(pv in data for pv in fp.cells[k].faces))
    return EmbeddedGraph(frozenset(data), edges, fp), data


def build_G0_tilde(msec: MultiSection) -> EmbeddedGraph:
    """Branch-free pair vertices with nonempty difference polytope, diagonal
    ones included, and the pair edges between them, in the fiber product
    over the base cells whose closures avoid the branch set. The section
    must be valid."""
    return _pair_graph(msec)[0]


# -- verdicts -----------------------------------------------------------------


class _Verdict(NamedTuple):
    tag: str  # simple | not_simple | smoothable | criterion_inconclusive | refused
    reasons: tuple[str, ...]
    witnesses: tuple


class Verdict(_Verdict):
    __slots__ = ()

    def __new__(cls, tag: str, reasons: tuple[str, ...], witnesses: tuple):
        if not reasons:
            raise ValueError("a verdict must cite at least one reason")
        return super().__new__(cls, tag, reasons, witnesses)


_SMOOTH_FLAGS = ("positive", "simple", "elementary")

_UPGRADE = (
    "[smoothability-upgrade] base complex asserted "
    + "+".join(_SMOOTH_FLAGS)
    + " and the gluing obstruction is established trivial"
)


def is_simple_rank2(msec: MultiSection, tag: ClassTag, upgrade: bool = False) -> Verdict:
    """Simplicity of a rank-two alternating multi-section, whose class is
    ``tag``, from its branch-free graph: weight gap 1 forbids minimal cycles,
    gap 2 forbids edges, gap 3 or more forbids vertices. A simple section is
    smoothable when ``upgrade`` says that the upgrade's conditions hold."""
    if tag.tag != "S_mn":
        raise ValueError(
            f"class mismatch: the rank-two criterion needs a uniform "
            f"alternating class, classification gave {tag.tag!r}"
        )
    m, n = tag.pair
    d = m - n
    g0, names = build_G0(msec), msec.cover.base._index.ids

    if d == 1:
        witnesses = tuple(find_minimal_cycles(g0))
        rule = (
            "[rank2-gap1] weight gap 1: simple if and only if the "
            "branch-free graph carries no minimal cycle"
        )
    elif d == 2:
        witnesses = tuple(names[1][e] for e in sorted(g0.edges))  # numbers sort as ids
        rule = (
            "[rank2-gap2] weight gap 2: simple if and only if the "
            "branch-free graph has no edges"
        )
    else:
        witnesses = tuple(names[0][v] for v in sorted(g0.vertices))
        rule = (
            "[rank2-gap3] weight gap 3 or more: simple if and only if the "
            "branch-free graph is empty"
        )

    if witnesses:
        return Verdict("not_simple", (rule,), witnesses)
    if upgrade:
        return Verdict("smoothable", (rule, _UPGRADE), ())
    return Verdict("simple", (rule,), ())


def general_simplicity(
    msec: MultiSection, tag: ClassTag, local_bundles_asserted: bool = False
) -> Verdict:
    """Sufficient criterion for sections with pairwise distinct covectors: no
    minimal cycle on the branch-free pair graph and a surviving fixed point at
    every pair vertex. A section of class ``tag`` other than C, which
    ``classify`` may give without running the class-C check, is checked here.
    Without asserted local models the criterion is refused, with the refusal
    as the verdict's only reason.

    One-directional: when a condition fails the verdict is inconclusive,
    never a proof of non-simplicity.
    """
    if tag.tag != "C":
        violations = check_class_C(msec)
        if violations:
            raise ValueError(
                f"class mismatch: distinct-covector conditions fail: {violations}"
            )
    if not local_bundles_asserted:
        return Verdict("refused", (
            "[local-bundle-assumption] existence of standard local models at "
            "the branch vertices must be asserted by the caller; refusing to "
            "run the general criterion without it",
        ), ())
    gt, data = _pair_graph(msec)
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
        witnesses.extend(cycles_pair)  # nonempty with cycles_base: it lifts to the diagonal
    # a cone's fixed point survives when its slope difference lies in the polytope
    starved = sorted(gt.host.id(k) for k, (_, diff, poly) in data.items()
                     if not any(d in poly for d in diff))
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


def out_of_scope(tag: ClassTag) -> str | None:
    """Why no criterion runs unforced on class ``tag``: rank-2 covers S_mn, general C."""
    return None if tag.tag in ("S_mn", "C") else f"class {tag.tag} out of scope"


def simplicity_verdict(
    msec: MultiSection,
    tag: ClassTag,
    criterion: str | None,
    flags: frozenset[str],
    obstruction_trivial: bool = False,
) -> Verdict:
    """Run the rank-2 or the general criterion on a section of class ``tag``,
    under the assertion flags that hold, ``flags``. With no ``criterion``, an
    S_mn section gets the rank-2 criterion, a C section the general one, and
    one of class S a refusal: it is ``out_of_scope``.

    A trivial gluing obstruction feeds the smoothability upgrade only when
    the base is asserted positive, simple and elementary and the gluing data
    induced by an open cover. The general criterion runs when the local
    models are asserted (``assumption-1.4``), and is refused otherwise.
    """
    if criterion is None:
        reason = out_of_scope(tag)
        if reason and tag.tag != "none":  # class none fails the general criterion's class check
            return Verdict("refused", (reason,), ())
        criterion = "rank2" if tag.tag == "S_mn" else "general"
    if criterion == "rank2":
        upgrade = obstruction_trivial and flags >= {*_SMOOTH_FLAGS, "open-gluing-induced"}
        return is_simple_rank2(msec, tag, upgrade)
    return general_simplicity(msec, tag, local_bundles_asserted="assumption-1.4" in flags)
