"""Acceptance suite: eight end-to-end criteria, one test and one verdict line
each, and an independent recheck of the obstruction solver. Every test is
self-contained, uses exact arithmetic throughout, and asserts its own
wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

from conftest import holonomy, ids, tree_gauged_rows
from exact_oracle import solve_linear
from laurent_identities import verify_constant_independence, verify_duality

from tropms.bundle import check
from tropms.certificate import endomorphism_witness, transport
from tropms.chern import (
    CANONICAL_FAN,
    CompleteFan,
    newton_polytope,
    stability_discriminant,
    total_chern,
)
from tropms.covers import classify
from tropms.generators import (
    coboundary_gluing,
    cube2_multisection,
    cube_o1_multisection,
    euler_genus,
    planted_multisection,
    rank3_multisection,
    riemann_hurwitz_genus,
    simplex5_multisection,
    vertex_edge_flags,
)
from tropms.gluing import (
    TRIVIAL,
    TorusElement,
    bar_complex,
    edge_lift_id,
    obstruction_class,
    triple_cocycle,
)
from tropms.graphs import (
    build_G0,
    build_G0_tilde,
    find_minimal_cycles,
    general_simplicity,
    is_simple_rank2,
)
from tropms.lattice import det2
from tropms.laurent import verify_cocycle


def _weight_pairs(bound):
    return [
        (m, n)
        for m in range(-bound, bound + 1)
        for n in range(-bound, bound + 1)
        if m != n
    ]


def _random_admissible(rng):
    """Three-plus-three nonzero rationals with product of all six equal -1."""
    while True:
        a = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3))
        b2 = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2))
        partial = a[0] * a[1] * a[2] * b2[0] * b2[1]
        if partial != 0:
            return a, b2 + (Fraction(-1) / partial,)


def _random_coboundary(msec, rng):
    """Coboundary gluing data over random vertex and edge potentials."""
    cover = msec.cover
    lam_vertex = {}
    for v in cover.base.vertices:
        for lid, _ in cover.computed_lifts(v.id):
            if rng.random() < 0.4:
                lam_vertex[lid] = TorusElement.single(
                    (rng.randint(-2, 2), rng.randint(-2, 2)),
                    Fraction(rng.randint(1, 6), rng.randint(1, 6)),
                )
    lam_edge = {}
    for e in cover.base.edges:
        for lift in range(cover.degree):
            if rng.random() < 0.3:
                lam_edge[edge_lift_id(e.id, lift)] = Fraction(
                    rng.randint(1, 6), rng.randint(1, 6)
                )
    return coboundary_gluing(msec, lam_vertex, lam_edge)


def test_cocycle_identity_random_constants():
    """Transition cocycle closes exactly for 50 random admissible constant
    tuples at every weight pair up to 5; under five seconds."""
    rng = random.Random(20260823)
    start = time.monotonic()
    checked = 0
    for m, n in _weight_pairs(5):
        for _ in range(50):
            a, b = _random_admissible(rng)
            assert verify_cocycle(m, n, a, b), (m, n, a, b)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 110 * 50
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_gauge_and_duality_identities():
    """Constant-gauge conjugation and the duality identity hold exactly for
    every weight pair up to 5; under five seconds."""
    rng = random.Random(5)
    start = time.monotonic()
    for m, n in _weight_pairs(5):
        a, b = _random_admissible(rng)
        assert verify_constant_independence(m, n, a, b), (m, n, a, b)
        assert verify_duality(m, n), (m, n)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_total_chern_closed_form_and_discriminant():
    """Total Chern class equals 1 + (m+n)H + (m^2+n^2-mn)H^2 and the
    discriminant equals -3(m-n)^2, exactly, for all pairs up to 4; under two
    seconds."""
    start = time.monotonic()
    for m, n in _weight_pairs(4):
        total = total_chern(m, n)
        assert total.h0 == 1
        assert total.h1 == m + n
        assert total.h2 == m * m + n * n - m * n
        delta, verdict = stability_discriminant(m, n, total)
        assert delta == -3 * (m - n) ** 2
        assert verdict == "stable"
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_genus_counts_for_generated_covers():
    """Generated covers with 74, 58, 48, 36 branch vertices have genus 36,
    28, 23, 17, matching the ramification count; under two seconds."""
    start = time.monotonic()
    cases = (
        (lambda: simplex5_multisection(74), 74, 36),
        (lambda: simplex5_multisection(58), 58, 28),
        (cube2_multisection, 48, 23),
        (cube_o1_multisection, 36, 17),
    )
    for build, branch_count, genus in cases:
        msec = build()
        assert len(msec.cover.branch_vertices) == branch_count
        assert euler_genus(msec.cover) == genus
        assert riemann_hurwitz_genus(branch_count) == genus
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_simplicity_verdicts_across_examples():
    """Both simplex presets and the gap-1 cube cover report simple; a planted
    unbranched 2-cell flips to not_simple with a validated endomorphism
    certificate; the rank-3 cover has an empty pair graph and satisfies the
    general criterion; under five seconds."""
    start = time.monotonic()
    for build in (
        lambda: simplex5_multisection(74),
        lambda: simplex5_multisection(58),
        cube_o1_multisection,
    ):
        msec = build()
        assert is_simple_rank2(msec, classify(msec)).tag == "simple"

    planted = planted_multisection()
    verdict = is_simple_rank2(planted, classify(planted))
    assert verdict.tag == "not_simple"
    witness = endomorphism_witness(transport(check(planted, {})), verdict.witnesses[0])
    assert witness.ok and witness.zero_extension
    assert all(passed for _, _, passed in witness.edge_checks)

    rank3 = rank3_multisection()
    pair_graph = build_G0_tilde(rank3)
    assert not pair_graph.vertices and not pair_graph.edges
    general = general_simplicity(rank3, classify(rank3), local_bundles_asserted=True)
    assert general.tag == "smoothable"
    assert any("criterion satisfied" in reason for reason in general.reasons)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _solver_gluings(msec, bar):
    """Gluing data for the obstruction solver: 200 random coboundaries, each
    with None, then 20 coboundaries tampered on one flag each, with the
    witness that the tampering alone gives."""
    rng = random.Random(6)
    for _ in range(200):
        yield _random_coboundary(msec, rng), None
    flags = sorted(vertex_edge_flags(msec))
    vecs = ((1, 0), (0, 1), (1, 1))
    planted_count = 0
    position = 0
    while planted_count < 20:
        flag = flags[position % len(flags)]
        position += 1
        tamper = TorusElement.single(
            vecs[planted_count % 3], Fraction(2 + planted_count % 3)
        )
        expected = obstruction_class(
            triple_cocycle(msec, {flag: tamper}, bar), bar
        ).witness
        if expected == 1:
            continue
        g = dict(_random_coboundary(msec, rng))
        g[flag] = g.get(flag, TRIVIAL) * tamper
        yield g, expected
        planted_count += 1


def test_obstruction_solver_on_random_cochains():
    """200 random coboundary cochains are declared trivial with splittings
    rechecked chain by chain; 20 planted non-coboundaries are declared
    nontrivial with the predicted witness; under thirty seconds."""
    start = time.monotonic()
    msec = cube2_multisection()
    bar = bar_complex(msec)
    chains, edges = ids(bar, bar.chains), ids(bar, bar.edges)
    for g, expected in _solver_gluings(msec, bar):
        c = triple_cocycle(msec, g, bar)
        report = obstruction_class(c, bar)
        if expected is None:
            assert report.trivial and report.witness == 1
            k = dict(zip(edges, report.cochain.fractions()))
            c = dict(zip(chains, c.fractions()))
            for tail, elift, flift in chains:
                lhs = k[(elift, flift)] * k[(tail, elift)] / k[(tail, flift)]
                assert lhs == c[(tail, elift, flift)]
        else:
            assert not report.trivial
            assert report.witness == expected
            assert report.cochain is None
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_obstruction_solver_agrees_with_elimination():
    """The solver's verdict on each cochain of the solver test agrees with
    exact_oracle.solve_linear on the coboundary gauged on a spanning tree of the
    chains, given the exponent row of every base element of every cochain as
    a right-hand side in one call, and with the signed exponent sum; under
    ten seconds."""
    start = time.monotonic()
    msec = cube2_multisection()
    bar = bar_complex(msec)
    cochains = [triple_cocycle(msec, g, bar) for g, _ in _solver_gluings(msec, bar)]
    columns = [(n, i) for n, c in enumerate(cochains) for i in range(1, len(c.base))]
    assert all(v[0] == 0 for c in cochains for v in c.values)  # no negative value
    rhs = [[v[i] for v in cochains[n].values] for n, i in columns]
    bounds = [True] * len(cochains)
    for (n, _), x in zip(columns, solve_linear(tree_gauged_rows(bar), rhs)):
        bounds[n] = bounds[n] and x is not None
    assert bounds.count(False) == 20
    number = {chain: t for t, chain in enumerate(bar.chains)}
    orientation = [0] * len(bar.chains)
    for v, e, f, sign in bar.triangles:
        orientation[number[v, e, f]] += sign
    for c, by_elimination in zip(cochains, bounds):
        signed = [
            sum(o * v[i] for o, v in zip(orientation, c.values)) for i in range(len(c.base))
        ]
        assert obstruction_class(c, bar).trivial == by_elimination == (not any(signed))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_holonomy_trivial_on_minimal_cycles():
    """100 random valid gluing data sets give holonomy exactly 1 around every
    minimal cycle of the planted-cycle cover; under ten seconds."""
    start = time.monotonic()
    msec = planted_multisection()
    cycles = find_minimal_cycles(build_G0(msec))
    assert cycles
    rng = random.Random(7)
    for _ in range(100):
        t = transport(check(msec, _random_coboundary(msec, rng)))
        for cycle, fid in cycles:
            assert holonomy(t, cycle, fid) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _random_continuous_slopes(fan, rng):
    """Integer slopes, one per cone, continuous across every ray and lying in
    the box [-4, 4]^2."""

    def perp(r):
        return (-r[1], r[0])

    while True:
        u = [(rng.randint(-4, 4), rng.randint(-4, 4))]
        if fan is CANONICAL_FAN:
            t = rng.randint(-4, 4)
            steps = [perp(fan.rays[1]), perp(fan.rays[2])]
            ts = [t, t]
        else:
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            steps = [perp(fan.rays[1]), perp(fan.rays[2]), perp(fan.rays[3])]
            ts = [s, t, s]
        for coef, step in zip(ts, steps):
            x, y = u[-1]
            u.append((x + coef * step[0], y + coef * step[1]))
        if all(-4 <= x <= 4 and -4 <= y <= 4 for x, y in u):
            return u


def _random_fan_and_slopes(rng):
    """A complete fan of 3 to 6 primitive rays with coordinates in [-2, 2],
    and integer slopes in [-4, 4]^2 continuous across every ray: values at
    the rays up to 3 above a linear function, so some ray cuts the polytope
    short of its neighbours, and each cone's slope found by scanning the
    box for the point that takes them."""
    pool = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if math.gcd(x, y) == 1]
    while True:
        rays = sorted(rng.sample(pool, rng.randint(3, 6)), key=lambda r: math.atan2(r[1], r[0]))
        n = len(rays)
        if any(rays[i][0] * rays[(i + 1) % n][1] - rays[i][1] * rays[(i + 1) % n][0] <= 0
               for i in range(n)):
            continue  # a cone of angle pi or more: not complete
        u = (rng.randint(-4, 4), rng.randint(-4, 4))
        values = [u[0] * x + u[1] * y + rng.randint(0, 3) for x, y in rays]
        slopes = []
        for i in range(n):
            (ax, ay), (bx, by) = rays[i], rays[(i + 1) % n]
            slopes += [(x, y) for x in range(-4, 5) for y in range(-4, 5)
                       if x * ax + y * ay == values[i] and x * bx + y * by == values[(i + 1) % n]]
        if len(slopes) == n:
            return CompleteFan(rays), slopes


def test_newton_polytope_against_box_scan():
    """Newton polytope lattice points agree with an exhaustive bounding-box
    scan for 200 random continuous piecewise linear functions with slopes in
    [-4, 4]^2: 100 on the canonical and square fans, and 100 on random
    complete fans, where two rays spanning a cone of determinant 2 or more
    put polytope corners off the lattice; under ten seconds."""
    start = time.monotonic()
    square_fan = CompleteFan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    rng = random.Random(88)
    fans = (CANONICAL_FAN, square_fan)
    cases = [(fans[t % 2], _random_continuous_slopes(fans[t % 2], rng)) for t in range(100)]
    cases += [_random_fan_and_slopes(rng) for _ in range(100)]
    wide = sum(any(abs(det2(*fan.cone_rays(i))) >= 2 for i in range(fan.n_cones))
               for fan, _ in cases[100:])
    assert wide >= 50, wide
    for fan, slopes in cases:
        poly = newton_polytope(fan, slopes)
        scan = set()
        for x in range(-8, 9):
            for y in range(-8, 9):
                ok = True
                for i, (ux, uy) in enumerate(slopes):
                    for rx, ry in fan.cone_rays(i):
                        if (ux - x) * rx + (uy - y) * ry < 0:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    scan.add((x, y))
        assert set(poly.lattice_points) == scan, (fan.rays, slopes)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
