"""Obstruction classes, hands on.

Builds the cube-o1 double cover, then walks three gluing datasets through the
obstruction solver:

  1. a seeded coboundary: trivial by construction, with a splitting table
     whose coboundary we recheck chain by chain;
  2. empty gluing data: also trivial, the baseline everything compares to;
  3. a single transverse torus element planted on one flag: witness 2, no
     splitting exists.

Run with: python3 demos/obstruction_tour.py
"""

from fractions import Fraction

from tropms.generators import cube_o1_multisection, seeded_coboundary_gluing
from tropms.gluing import (
    TorusElement,
    bar_complex,
    normalize_splitting,
    obstruction_class,
    triple_cocycle,
)


def recheck_splitting(bar, c, table) -> int:
    """Count the chains where table fails to bound c (want zero)."""
    k, values = table.fractions(), c.fractions()
    return sum(k[ef] * k[ve] / k[vf] != values[t] for t, (ve, ef, vf) in enumerate(bar.sides))


def main() -> None:
    msec = cube_o1_multisection()
    print(f"cover: degree {msec.cover.degree}, "
          f"{len(msec.cover.base.vertices)} base vertices")

    # 1. seeded coboundary, trivial with an explicit splitting
    bar = bar_complex(msec)
    g = seeded_coboundary_gluing(msec, seed=7)
    c = triple_cocycle(msec, g, bar)
    rep = obstruction_class(c, bar)
    print(f"\ncoboundary gluing: trivial={rep.trivial}, witness={rep.witness}")
    table = normalize_splitting(bar, rep.cochain)
    nontree = [(b, v) for b, v in enumerate(table.fractions()) if v != 1]
    for b, v in nontree[:3]:
        x, y = bar.edges[b]
        print(f"  k[{bar.nodes[x]}, {bar.nodes[y]}] = {v}")
    print(f"  ... {len(bar.edges)} entries, {len(nontree)} off the spanning tree")
    print(f"  chains violating delta k = c: {recheck_splitting(bar, c, table)}")

    # 2. empty gluing data
    rep0 = obstruction_class(triple_cocycle(msec, {}, bar), bar)
    print(f"\nempty gluing: trivial={rep0.trivial}, witness={rep0.witness}")

    # 3. one transverse entry makes the class nontrivial
    planted = {("fx0.00a#0", "ep000p001~1"): TorusElement.single((0, 1), Fraction(2))}
    repx = obstruction_class(triple_cocycle(msec, planted, bar), bar)
    print(f"\nplanted entry:  trivial={repx.trivial}, witness={repx.witness}")
    print(f"  splitting table produced: {repx.cochain is not None}")


if __name__ == "__main__":
    main()
