"""Command-line front end.

Every subcommand reads and writes the JSON artifact formats: complexes,
multi-sections, gluing data, manifests, and check reports. Numeric output is
exact; fractions print as "p/q" strings. Exit codes follow one contract
everywhere: 0 for success or an inconclusive criterion, 1 when a simplicity
criterion comes back negative, 2 for invalid input, 3 for a broken internal
invariant.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import click

from . import __version__
from .chern import (
    CANONICAL_FAN,
    CompleteFan,
    newton_polytope,
    stability_discriminant,
    total_chern,
)
from .complexes import parse_complex
from .covers import classify as classify_section
from .covers import parse_multisection
from .generators import EXAMPLE_NAMES
from .gluing import (
    bar_complex,
    obstruction_class,
    parse_gluing,
    triple_cocycle,
    unbounded_chains,
    validate_gluing,
)
from .graphs import build_fiber_product, simplicity_verdict
from .laurent import REFERENCE_A, REFERENCE_B, verify_cocycle
from .pipeline import (
    CHECK_ORDER,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NOT_SIMPLE,
    EXIT_OK,
    Manifest,
    _jsonable,
    generate_example,
    load_bundle,
    load_manifest,
    manifest_to_text,
    report_to_text,
    run_pipeline,
)
from .svg import LAYERS, render_svg


def _guard(fn):
    """Map exceptions onto the exit-code contract and exit explicitly."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except (ValueError, OSError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_INVALID)
        except Exception as err:
            click.echo(f"internal error: {err}", err=True)
            sys.exit(EXIT_INTERNAL)
        sys.exit(EXIT_OK if code is None else code)

    return wrapper


def _echo_json(obj) -> None:
    click.echo(json.dumps(_jsonable(obj), indent=2))


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_section(path: str):
    return parse_multisection(_load_json(path))


def _valid_gluing(msec, g):
    rep = validate_gluing(msec, g)
    if not rep.ok:
        raise ValueError(f"gluing data invalid: {rep.codes()}")
    return g


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact checks for tropical multi-sections over affine surfaces."""


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option(
    "--check",
    "checks",
    multiple=True,
    type=click.Choice(CHECK_ORDER),
    help="Restrict to these checks; default runs all of them in order.",
)
@_guard
def validate(manifest_path, checks):
    """Run the check pipeline on a manifest and print the report."""
    manifest = load_manifest(manifest_path)
    report = run_pipeline(manifest, checks=checks or None)
    click.echo(report_to_text(report), nl=False)
    return report.exit_code


@main.command()
@click.option("--section", "section_path", required=True, type=click.Path())
@_guard
def classify(section_path):
    """Print the weight class of a multi-section."""
    tag = classify_section(_load_section(section_path))
    _echo_json({"class": tag.tag, "pair": tag.pair})


@main.command("verify-cocycle")
@click.option("--m", "m", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--a", "a", nargs=3, type=str, default=None, help="Three rationals.")
@click.option("--b", "b", nargs=3, type=str, default=None, help="Three rationals.")
@_guard
def verify_cocycle_command(m, n, a, b):
    """Check the three-chart transition matrices multiply to the identity."""
    av = tuple(Fraction(x) for x in a) if a else REFERENCE_A
    bv = tuple(Fraction(x) for x in b) if b else REFERENCE_B
    ok = verify_cocycle(m, n, av, bv)
    _echo_json({"m": m, "n": n, "a": av, "b": bv, "cocycle": ok})


@main.command()
@click.option("--m", "m", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
@_guard
def chern(m, n):
    """Print the total Chern class and the stability verdict."""
    total = total_chern(m, n)
    delta, verdict = stability_discriminant(m, n)
    _echo_json(
        {
            "total": repr(total),
            "coefficients": [int(total.h0), int(total.h1), int(total.h2)],
            "discriminant": delta,
            "stability": verdict,
        }
    )


@main.command()
@click.option("--slopes", "slopes_path", required=True, type=click.Path())
@_guard
def newton(slopes_path):
    """Lattice points of the Newton polytope of a piecewise linear function.

    The file holds {"slopes": [[a, b], ...]} with one integer slope per cone
    in cyclic order, plus an optional "rays" list replacing the default fan
    (-1,0), (0,-1), (1,1). Lattice points print in lexicographic order.
    """
    data = _load_json(slopes_path)
    if not isinstance(data, dict) or "slopes" not in data:
        raise ValueError('slopes file must be an object with a "slopes" list')
    fan = CompleteFan(data["rays"]) if data.get("rays") else CANONICAL_FAN
    slopes = [tuple(int(c) for c in u) for u in data["slopes"]]
    poly = newton_polytope(fan, slopes)
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
    return (x.strip(), y.strip()), Fraction(value)


@main.command()
@click.option("--complex", "complex_path", required=True, type=click.Path())
@click.option("--section", "section_path", required=True, type=click.Path())
@click.option("--gluing", "gluing_path", required=True, type=click.Path())
@click.option(
    "--k",
    "overrides",
    multiple=True,
    help="Replace a splitting entry, e.g. --k 'p001#0,ep001p003#0=3/4'; "
    "the overridden table is rechecked against the cocycle.",
)
@_guard
def obstruction(complex_path, section_path, gluing_path, overrides):
    """Evaluate the gluing obstruction: verdict, witness or splitting table."""
    msec, g = load_bundle(
        Manifest(complex_path, section_path, gluing_path, {}, root=".")
    )
    c = triple_cocycle(msec, _valid_gluing(msec, g))
    report = obstruction_class(c, msec)
    if not report.trivial:
        _echo_json({"trivial": False, "witness": report.witness})
        return EXIT_OK
    table = dict(report.cochain)
    out = {"trivial": True, "witness": report.witness}
    if overrides:
        for text in overrides:
            bar, value = _parse_override(text)
            if bar not in table:
                raise ValueError(f"no splitting entry for {bar[0]},{bar[1]}")
            table[bar] = value
        violations = unbounded_chains(bar_complex(msec), c, table)
        out["consistent"] = not violations
        if violations:
            out["violations"] = [",".join(chain) for chain in violations]
    out["splitting"] = {f"{x},{y}": v for (x, y), v in sorted(table.items())}
    _echo_json(out)


@main.command()
@click.option("--section", "section_path", required=True, type=click.Path())
@click.option("--gluing", "gluing_path", default=None, type=click.Path())
@click.option("--rank2", "mode", flag_value="rank2", help="Force the rank-2 criterion.")
@click.option("--general", "mode", flag_value="general", help="Force the general criterion.")
@_guard
def simplicity(section_path, gluing_path, mode):
    """Minimal-cycle simplicity verdict, printed with reasons and witnesses.

    Without an explicit mode, degree-2 sections get the rank-2 criterion and
    everything else the general one. Assertion flags come from the complex
    embedded in the section file. Gluing data, when supplied, feeds the
    smoothability upgrade through its obstruction class.
    """
    msec = _load_section(section_path)
    trivial = False
    if gluing_path is not None:
        g = _valid_gluing(msec, parse_gluing(_load_json(gluing_path)))
        trivial = obstruction_class(triple_cocycle(msec, g), msec).trivial
    if mode is None:
        mode = "rank2" if msec.cover.degree == 2 else "general"
    asserted = msec.cover.base.asserted
    verdict = simplicity_verdict(
        msec, mode, lambda flag: asserted.get(flag, False), trivial
    )
    _echo_json(
        {
            "tag": verdict.tag,
            "reasons": verdict.reasons,
            "witnesses": verdict.witnesses,
        }
    )
    return EXIT_NOT_SIMPLE if verdict.tag == "not_simple" else EXIT_OK


@main.command("fiber-product")
@click.option("--section", "section_path", required=True, type=click.Path())
@_guard
def fiber_product(section_path):
    """Dump the fiber product of the cover with itself, cell by cell."""
    fp = build_fiber_product(_load_section(section_path))
    cells = sorted(fp.cells.values(), key=lambda c: (c.dim, c.id))
    _echo_json(
        {
            "counts": {
                str(d): sum(1 for c in cells if c.dim == d) for d in (0, 1, 2)
            },
            "cells": [
                {
                    "id": c.id,
                    "dim": c.dim,
                    "a": c.a,
                    "b": c.b,
                    "base": c.base,
                    "faces": list(c.faces),
                    "diagonal": c.diagonal,
                }
                for c in cells
            ],
        }
    )


@main.command()
@click.argument("name", type=click.Choice(EXAMPLE_NAMES))
@click.option("--outdir", default=".", type=click.Path(file_okay=False))
@_guard
def example(name, outdir):
    """Write a built-in example (complex, section, gluing, manifest)."""
    manifest = generate_example(name, outdir)
    click.echo(manifest_to_text(manifest), nl=False)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--layer", required=True, type=click.Choice(LAYERS))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@_guard
def render(manifest_path, layer, out_path):
    """Render one diagnostic SVG layer for a manifest's data."""
    manifest = load_manifest(manifest_path)
    document = render_svg(manifest, layer)
    if out_path is None:
        click.echo(document, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(document)
        click.echo(out_path)


if __name__ == "__main__":
    main()
