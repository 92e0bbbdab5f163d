"""Every simplicity verdict the toolkit can produce, on one stage.

Walks the bundled covers through classification and the simplicity criteria:
three simple rank-2 covers, a cover with a planted minimal cycle (not simple,
with a machine-checked endomorphism certificate), its triangular cousin, and
the rank-3 cover that exercises the general criterion including its refusal
to run without the local model assertion.

Run with: python3 demos/simplicity_gallery.py
"""

from tropms.bundle import check
from tropms.certificate import endomorphism_witness, transport
from tropms.covers import classify
from tropms.generators import (
    cube_o1_multisection,
    euler_genus,
    planted_multisection,
    planted_triangle_multisection,
    rank3_multisection,
    simplex5_multisection,
)
from tropms.graphs import (
    general_simplicity,
    is_simple_rank2,
)


def show(name, msec, verdict) -> None:
    tag = classify(msec)
    print(f"{name:18s} class {tag.tag:4s} pair {tag.pair}  "
          f"genus {euler_genus(msec.cover):2d}  -> {verdict.tag}")


def main() -> None:
    for name, msec in (
        ("cube-o1", cube_o1_multisection()),
        ("simplex5 (74)", simplex5_multisection(74)),
        ("simplex5 (58)", simplex5_multisection(58)),
    ):
        show(name, msec, is_simple_rank2(msec, classify(msec)))

    planted = planted_multisection()
    verdict = is_simple_rank2(planted, classify(planted))
    show("planted square", planted, verdict)
    cycle, sigma = verdict.witnesses[0]
    print(f"  witness cycle {list(cycle)} around 2-cell {sigma}")
    cert = endomorphism_witness(transport(check(planted, {})), verdict.witnesses[0])
    print(f"  certificate ok={cert.ok}, sheet order {cert.order}, "
          f"zero extension {cert.zero_extension}")
    for v in cycle:
        print(f"    c[{v}] = {cert.constants[v]}, weight {cert.weights[v]}")

    triangle = planted_triangle_multisection()
    tverdict = is_simple_rank2(triangle, classify(triangle))
    show("planted triangle", triangle, tverdict)
    tcycle, tsigma = tverdict.witnesses[0]
    print(f"  witness cycle {list(tcycle)} around 2-cell {tsigma}")

    rank3 = rank3_multisection()
    refusal = general_simplicity(rank3, classify(rank3))
    print(f"\nrank3-cube {refusal.tag}: {refusal.reasons[0].split(';')[0]}")
    gverdict = general_simplicity(rank3, classify(rank3), local_bundles_asserted=True)
    show("rank3-cube", rank3, gverdict)
    for reason in gverdict.reasons:
        print(f"  {reason}")


if __name__ == "__main__":
    main()
