"""Command-line front end.

Every subcommand reads and writes the JSON artifact formats: complexes,
multi-sections, gluing data, manifests, and check reports. Numeric output is
exact; fractions print as "p/q" strings. Exit codes follow one contract
everywhere: 0 for success or an inconclusive criterion, 1 when a simplicity
criterion comes back negative, 2 for invalid input or a usage error, 3 for a
broken internal invariant. Each command imports only the modules it runs; the
functions it calls, not the parser, reject an unknown check, layer or example.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NOT_SIMPLE,
    EXIT_OK,
    __version__,
    _json_text,
)


def _echo_json(obj) -> None:
    sys.stdout.write(_json_text(obj))


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as err:
        raise ValueError(f"malformed rational (ZeroDivisionError: {err})") from err


def _validate(args):
    """Run the check pipeline on a manifest and print the report."""
    from .pipeline import load_manifest, report_to_text, run_pipeline

    report = run_pipeline(load_manifest(args.manifest), checks=args.checks)
    sys.stdout.write(report_to_text(report))
    return report.exit_code


def _classify(args):
    """Print the weight class of a multi-section."""
    from .bundle import load
    from .covers import classify

    tag = classify(load(args.section).msec)
    _echo_json({"class": tag.tag, "pair": tag.pair})


def _verify_cocycle(args):
    """Check the three-chart transition matrices multiply to the identity."""
    from .laurent import REFERENCE_A, REFERENCE_B, verify_cocycle

    av = tuple(_rational(x) for x in args.a) if args.a else REFERENCE_A
    bv = tuple(_rational(x) for x in args.b) if args.b else REFERENCE_B
    ok = verify_cocycle(args.m, args.n, av, bv)
    _echo_json({"m": args.m, "n": args.n, "a": av, "b": bv, "cocycle": ok})


def _chern(args):
    """Print the total Chern class and the stability verdict."""
    from .chern import stability_discriminant, total_chern

    total = total_chern(args.m, args.n)
    delta, verdict = stability_discriminant(args.m, args.n, total)
    _echo_json(
        {
            "total": repr(total),
            "coefficients": [int(total.h0), int(total.h1), int(total.h2)],
            "discriminant": delta,
            "stability": verdict,
        }
    )


def _newton(args):
    """Lattice points of the Newton polytope of a piecewise linear function.

    The file (``schema.NEWTON``) holds {"slopes": [[a, b], ...]} with one
    integer slope per cone in cyclic order, plus an optional "rays" list
    replacing the default fan (-1,0), (0,-1), (1,1). Lattice points print in
    lexicographic order.
    """
    from . import schema
    from .chern import CANONICAL_FAN, CompleteFan, newton_polytope

    slopes, rays = schema.from_file(
        args.slopes, lambda data: schema.NEWTON.parse(data, lambda *fields: fields)
    )
    poly = newton_polytope(CompleteFan(rays) if rays else CANONICAL_FAN, slopes)
    _echo_json(
        {
            "lattice_points": sorted(poly.lattice_points),
            "vertices": list(poly.vertices),
        }
    )


def _parse_override(text: str) -> tuple[tuple[str, str], Fraction]:
    key, sep, value = text.partition("=")
    x, comma, y = key.partition(",")
    if not sep or not comma:
        raise ValueError(
            f"override {text!r} must look like 'source,target=p/q'"
        )
    q = _rational(value)
    if q == 0:
        raise ValueError(f"override {text!r}: splitting entries must be nonzero")
    return (x.strip(), y.strip()), q


def _obstruction(args):
    """Evaluate the gluing obstruction: verdict, witness or splitting table."""
    from .bundle import load
    from .gluing import normalize_splitting, obstruction_class, triple_cocycle, unbounded_chains

    msec, g, bar, _ = load(args.section, args.gluing, args.complex)
    overrides = {}
    for text in args.overrides or ():
        (x, y), value = _parse_override(text)
        b = bar.number(x, y)
        if b is None:
            raise ValueError(f"no splitting entry for {x},{y}")
        overrides[b] = value
    c = triple_cocycle(msec, g, bar, overrides.values())
    report = obstruction_class(c, bar)
    if not report.trivial:
        _echo_json({"trivial": False, "witness": report.witness})
        return EXIT_OK
    table = normalize_splitting(bar, report.cochain)
    out = {"trivial": True, "witness": report.witness}
    if overrides:
        for b, value in overrides.items():
            table.values[b] = table.vector(value)
        violations = unbounded_chains(bar, c, table)
        out["consistent"] = not violations
        if violations:
            out["violations"] = [",".join(chain) for chain in violations]
    names = bar.nodes
    out["splitting"] = {
        f"{names[x]},{names[y]}": q for (x, y), q in zip(bar.edges, table.fractions())
    }
    _echo_json(out)


def _simplicity(args):
    """Minimal-cycle simplicity verdict, printed with reasons and witnesses.

    Without an explicit mode, class S_mn gets the rank-2 criterion, class C
    the general one and class S a refusal as out of scope, as in ``validate``.
    Assertion flags come from the complex embedded in the section file.
    Gluing data, when supplied, feeds the smoothability upgrade through its
    obstruction class.
    """
    from .bundle import load
    from .covers import classify
    from .graphs import simplicity_verdict

    msec, g, bar, flags = load(args.section, args.gluing)
    if g is not None:
        from .gluing import obstruction_class, triple_cocycle
    trivial = g is not None and obstruction_class(triple_cocycle(msec, g, bar), bar).trivial
    verdict = simplicity_verdict(msec, classify(msec), args.mode, flags, trivial)
    _echo_json(
        {
            "tag": verdict.tag,
            "reasons": verdict.reasons,
            "witnesses": verdict.witnesses,
        }
    )
    return EXIT_NOT_SIMPLE if verdict.tag == "not_simple" else EXIT_OK


def _fiber_product(args):
    """Dump the fiber product of the cover with itself, cell by cell."""
    from .bundle import load
    from .graphs import build_fiber_product, pair_id

    fp = build_fiber_product(load(args.section).msec)
    names = fp.cover.base._index.ids
    lifts = [fp.lift_ids(k) for k in range(len(fp.cells))]
    ids = [pair_id(a, b) for a, b in lifts]
    cells = [(k, fp.cells[k]) for d in (0, 1, 2) for k in sorted(fp.of_dim(d), key=ids.__getitem__)]
    _echo_json(
        {
            "counts": {str(d): len(fp.of_dim(d)) for d in (0, 1, 2)},
            "cells": [
                {
                    "id": ids[k],
                    "dim": c.dim,
                    "a": lifts[k][0],
                    "b": lifts[k][1],
                    "base": names[c.dim][c.base],
                    "faces": sorted(ids[f] for f in c.faces),
                    "diagonal": c.diagonal,
                }
                for k, c in cells
            ],
        }
    )


def _example(args):
    """Write a built-in example (complex, section, gluing, manifest)."""
    from .generators import generate_example
    from .pipeline import manifest_to_text

    sys.stdout.write(manifest_to_text(generate_example(args.name, args.outdir)))


def _render(args):
    """Render one diagnostic SVG layer for a manifest's data."""
    from .pipeline import load_bundle, load_manifest
    from .svg import render_svg

    document = render_svg(load_bundle(load_manifest(args.manifest)).msec, args.layer)
    if args.out is None:
        sys.stdout.write(document)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(document)
        print(args.out)


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_RATIONALS = {"nargs": 3, "help": "Three rationals."}

#: Each command: its function and its arguments as (flag, options).
_COMMANDS = {
    "validate": (_validate, [("--manifest", _REQUIRED), ("--check", {
        "dest": "checks", "action": "append",
        "help": "Restrict to these checks; default runs all of them in order."})]),
    "classify": (_classify, [("--section", _REQUIRED)]),
    "verify-cocycle": (_verify_cocycle, [
        ("--m", _INT), ("--n", _INT), ("--a", _RATIONALS), ("--b", _RATIONALS)]),
    "chern": (_chern, [("--m", _INT), ("--n", _INT)]),
    "newton": (_newton, [("--slopes", _REQUIRED)]),
    "obstruction": (_obstruction, [
        ("--complex", _REQUIRED), ("--section", _REQUIRED), ("--gluing", _REQUIRED),
        ("--k", {"dest": "overrides", "action": "append", "help":
                 "Replace a splitting entry, e.g. --k 'p001#0,ep001p003#0=3/4'; "
                 "the overridden table is rechecked against the cocycle."})]),
    "simplicity": (_simplicity, [
        ("--section", _REQUIRED), ("--gluing", {}),
        ("--rank2", {"dest": "mode", "action": "store_const", "const": "rank2",
                     "help": "Force the rank-2 criterion."}),
        ("--general", {"dest": "mode", "action": "store_const", "const": "general",
                       "help": "Force the general criterion."})]),
    "fiber-product": (_fiber_product, [("--section", _REQUIRED)]),
    "example": (_example, [("name", {}), ("--outdir", {"default": "."})]),
    "render": (_render, [("--manifest", _REQUIRED), ("--layer", _REQUIRED), ("--out", {})]),
}


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: only the subparser of the command it starts
    with, else all of them, for the help, usage errors and ``--version``."""
    parser = argparse.ArgumentParser(
        prog="tropms",
        description="Exact checks for tropical multi-sections over affine surfaces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s, version {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        fn, arguments = _COMMANDS[name]
        doc = fn.__doc__
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc)
        sub.set_defaults(run=fn)
        if name == "verify-cocycle":
            # a negative rational such as -5/4 is a value, not an option
            sub._negative_number_matcher = re.compile(r"^-\.?\d")
        for flag, options in arguments:
            sub.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; a usage error exits 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv).parse_args(argv)
    try:
        code = args.run(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if code is None else code


# perfbench/run.py calls main.main(args=..., prog_name=..., standalone_mode=...)
main.main = lambda args, **_: sys.exit(main(args))


if __name__ == "__main__":
    sys.exit(main())
