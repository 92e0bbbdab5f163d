"""Metamorphic relations on the bundled examples (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM Computing Surveys
51(1), 2018):

- renaming the sheets of every 2-cell by a seeded permutation leaves the
  validate, classify and simplicity verdicts, the weight pair and the cell
  counts of the self fiber product unchanged, on cube2, cube-o1, planted and
  rank3-cube as read back from their section text, three seeds each;
- multiplying cube2's gluing data, and a copy tampered on one flag, by a
  seeded coboundary leaves the obstruction verdict and witness unchanged,
  three seeds each.

Budget: 2 s for each example relabelled and 2 s for the coboundaries; they
take about 0.1 s each on a shared 2-vCPU VM.
"""

import json
import random
import time

import pytest

from tropms.bundle import check
from tropms.covers import (
    BranchedCover,
    MultiSection,
    classify,
    multisection_to_text,
    parse_multisection,
    validate_multisection,
)
from tropms.generators import (
    EXAMPLES,
    cube2_multisection,
    cube_o1_multisection,
    planted_multisection,
    rank3_multisection,
    seeded_coboundary_gluing,
    vertex_edge_flags,
)
from tropms.gluing import (
    TRIVIAL,
    TorusElement,
    obstruction_class,
    triple_cocycle,
)
from tropms.graphs import build_fiber_product, simplicity_verdict

SECTIONS = {
    "cube2": cube2_multisection,
    "cube-o1": cube_o1_multisection,
    "planted": planted_multisection,
    "rank3-cube": rank3_multisection,
}
FLAGS = {name: frozenset(flag for flag, holds in EXAMPLES[name][1].items() if holds)
         for name in ("cube2", "cube-o1", "rank3-cube")} | {"planted": frozenset({"regular"})}


def relabel_sheets(msec: MultiSection, rng: random.Random) -> MultiSection:
    """The same section with the sheets of each 2-cell f renamed by a drawn
    permutation p[f]. Lift l of an edge lies on sheet l of its first coface
    a and on sheet m[l] of the second, b; it becomes lift p[a][l], on sheet
    p[b][m[l]] of b. Declared partitions and lifts are renamed by the
    permutation of the 2-cell at each vertex's first corner, a lift keeping
    the name of its smallest sheet there, and slopes move with their sheets."""
    cover = msec.cover
    base, r = cover.base, cover.degree
    p = {f.id: rng.sample(range(r), r) for f in base.faces2}
    matchings = {}
    for e in base.edges:
        a, b = sorted(f.id for f in base.faces2 if e.id in f.faces)
        moved = [0] * r
        for lift, sheet in enumerate(cover.edge_matchings[e.id]):
            moved[p[a][lift]] = p[b][sheet]
        matchings[e.id] = tuple(moved)
    lifts, rename, ramification = {}, {}, {}
    for v in base.vertices:
        q = p[base.corners(v.id)[0][0]]
        declared = cover.computed_lifts(v.id) if cover.lifts is None else cover.lifts[v.id]
        blocks = sorted((tuple(sorted(q[s] for s in block)), lid) for lid, block in declared)
        lifts[v.id] = tuple((f"{v.id}#{block[0]}", block) for block, _ in blocks)
        rename.update((lid, f"{v.id}#{block[0]}") for block, lid in blocks)
        if v.id in cover.ramification:
            ramification[v.id] = tuple(sorted(
                tuple(sorted(q[s] for s in block)) for block in cover.ramification[v.id]
            ))
    relabelled = BranchedCover(base, r, matchings, cover.branch_vertices, ramification,
                               None if cover.lifts is None else lifts)
    slopes = {(rename[lid], f, p[f][s]): vec for (lid, f, s), vec in msec.slopes.items()}
    return MultiSection(relabelled, slopes, label=msec.label)


def verdicts(msec: MultiSection, flags: frozenset[str]) -> tuple:
    """Validity, class tag, weight pair, simplicity verdict and the cell
    counts of the self fiber product of a section."""
    valid = validate_multisection(msec) == ()
    tag = classify(msec)
    simplicity = simplicity_verdict(msec, tag, None, flags, True).tag
    fp = build_fiber_product(msec)
    return valid, tag.tag, tag.pair, simplicity, [len(fp.of_dim(d)) for d in (0, 1, 2)]


@pytest.mark.parametrize("name", SECTIONS)
def test_sheet_relabelling_keeps_verdicts(name):
    start = time.monotonic()
    msec = parse_multisection(json.loads(multisection_to_text(SECTIONS[name]())))
    assert msec.cover.lifts is not None  # a section file declares its lifts
    want = verdicts(msec, FLAGS[name])
    assert want[0]
    for seed in range(3):
        relabelled = relabel_sheets(msec, random.Random(seed))
        assert relabelled.cover.edge_matchings != msec.cover.edge_matchings
        assert verdicts(relabelled, FLAGS[name]) == want, seed
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def _product(g, h):
    return {flag: g.get(flag, TRIVIAL) * h.get(flag, TRIVIAL) for flag in g.keys() | h.keys()}


def test_coboundary_keeps_obstruction():
    """cube2's seeded gluing has a trivial obstruction; one nontrivial
    transverse element on a vertex-edge flag makes it nontrivial. Both
    verdicts and witnesses survive a seeded coboundary factor."""
    start = time.monotonic()
    msec = cube2_multisection()
    g = seeded_coboundary_gluing(msec, seed=0)
    flag = sorted(vertex_edge_flags(msec))[0]
    tampered = _product(g, {flag: TorusElement.single((1, 1), 2)})

    def obstruction(gluing):
        b = check(msec, gluing)
        rep = obstruction_class(triple_cocycle(msec, gluing, b.bar), b.bar)
        return rep.trivial, rep.witness

    wants = [obstruction(g), obstruction(tampered)]
    assert [w[0] for w in wants] == [True, False]
    for seed in range(1, 4):
        h = seeded_coboundary_gluing(msec, seed=seed)
        assert [obstruction(_product(x, h)) for x in (g, tampered)] == wants, seed
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
