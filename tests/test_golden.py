"""Golden outputs of the `validate`, `obstruction`, `simplicity`, `render`
and `fiber-product` commands.

Each case runs one command on example inputs written to a scratch directory
and addressed by relative paths, and compares the exit code, stdout and
stderr byte for byte with ``tests/golden/<case>.txt``; the `seconds` fields
of reports are masked. The inputs themselves are pinned too: the sha256 of
every file ``write_inputs`` writes is kept in ``tests/golden/inputs.sha256``.
After an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import itertools
import json
import os
import re
import sys
from pathlib import Path

import pytest
from conftest import run_cli

from tropms.complexes import complex_to_text
from tropms.covers import multisection_to_text
from tropms.generators import (
    cube2_multisection,
    generate_example,
    planted_multisection,
    planted_triangle_multisection,
    simplex5_multisection,
)
from tropms.gluing import (
    TorusElement,
    bar_complex,
    gluing_to_text,
    parse_gluing,
)
from tropms.pipeline import (
    CHECK_ORDER,
    EXIT_INVALID,
    Manifest,
    manifest_to_text,
)

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "inputs.sha256"
SECONDS = re.compile(r'"seconds": [-+0-9.eE]+')

EXAMPLES = ("simplex5", "cube2", "cube-o1", "rank3-cube")
PLANTED = {"planted": planted_multisection, "planted-triangle": planted_triangle_multisection}
SECTIONS = EXAMPLES + tuple(PLANTED)
INPUTS = SECTIONS + ("cube2-tampered",)

# an entry of the canonical cube2 splitting table, for the --k overrides
SPLIT_KEY = "ep000p001~0,p000~0"


def write_inputs(root: Path) -> None:
    """Write every input the cases read into ``root``."""
    for name in EXAMPLES:
        generate_example(name, str(root))
    for name, build in PLANTED.items():
        msec = build()
        (root / f"{name}.complex.json").write_text(complex_to_text(msec.cover.base))
        (root / f"{name}.section.json").write_text(multisection_to_text(msec))
        m = Manifest(f"{name}.complex.json", f"{name}.section.json", None,
                     {"regular": True}, root=str(root))
        (root / f"{name}.manifest.json").write_text(manifest_to_text(m))
    # the 58-branch simplex5 cover, which no case reads but perfbench's
    # cli-session does
    msec = simplex5_multisection(58)
    (root / "simplex5-58.complex.json").write_text(complex_to_text(msec.cover.base))
    (root / "simplex5-58.section.json").write_text(multisection_to_text(msec))
    # cube2 gluing with one extra nontrivial flag into a 2-cell lift
    g = parse_gluing(json.loads((root / "cube2.gluing.json").read_text()))
    bar = bar_complex(cube2_multisection())
    tail, _, flift = (bar.nodes[x] for x in bar.chains[0])
    g[(tail, flift)] = TorusElement.single((1, 0), 3)
    (root / "cube2-tampered.gluing.json").write_text(gluing_to_text(g))
    m = Manifest("cube2.complex.json", "cube2.section.json",
                 "cube2-tampered.gluing.json", {"regular": True}, root=str(root))
    (root / "cube2-tampered.manifest.json").write_text(manifest_to_text(m))
    # a single transverse torus element obstructs the cube-o1 gluing
    g = {("fx0.00a#0", "ep000p001~1"): TorusElement.single((0, 1), 2)}
    (root / "obstructed.gluing.json").write_text(gluing_to_text(g))


def input_digests(root: Path) -> str:
    """One `sha256sum` line per file in ``root``, sorted by name."""
    return "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(root.iterdir())
    )


def _obstruction(gluing, *extra):
    return ("obstruction", "--complex", "cube2.complex.json",
            "--section", "cube2.section.json", "--gluing", gluing, *extra)


def cases() -> dict[str, tuple[str, ...]]:
    out = {}
    for name in INPUTS:
        manifest = ("validate", "--manifest", f"{name}.manifest.json")
        out[f"validate-{name}"] = manifest
        out[f"validate-{name}-simplicity"] = manifest + ("--check", "simplicity")
        out[f"validate-{name}-obstruction-chern"] = manifest + (
            "--check", "obstruction", "--check", "chern")
    out["obstruction-trivial"] = _obstruction("cube2.gluing.json")
    out["obstruction-tampered"] = _obstruction("cube2-tampered.gluing.json")
    out["obstruction-k-consistent"] = _obstruction("cube2.gluing.json", "--k", f"{SPLIT_KEY}=1")
    out["obstruction-k-inconsistent"] = _obstruction("cube2.gluing.json", "--k", f"{SPLIT_KEY}=271/13")
    out["obstruction-k-unknown"] = _obstruction("cube2.gluing.json", "--k", "never,seen=1")
    # the full splitting table of each rank-2 example's own seeded gluing
    for name in ("simplex5", "cube-o1"):
        out[f"obstruction-{name}"] = (
            "obstruction", "--complex", f"{name}.complex.json", "--section",
            f"{name}.section.json", "--gluing", f"{name}.gluing.json")
    out["obstruction-nontrivial"] = (
        "obstruction", "--complex", "cube-o1.complex.json", "--section",
        "cube-o1.section.json", "--gluing", "obstructed.gluing.json")
    for name in SECTIONS:
        section = ("simplicity", "--section", f"{name}.section.json")
        out[f"simplicity-{name}"] = section
        out[f"simplicity-{name}-rank2"] = section + ("--rank2",)
        out[f"simplicity-{name}-general"] = section + ("--general",)
    out["simplicity-cube-o1-gluing"] = (
        "simplicity", "--section", "cube-o1.section.json", "--gluing", "cube-o1.gluing.json")
    out["simplicity-cube2-gluing"] = (
        "simplicity", "--section", "cube2.section.json", "--gluing", "cube2.gluing.json")
    out["simplicity-cube2-tampered"] = (
        "simplicity", "--section", "cube2.section.json", "--gluing", "cube2-tampered.gluing.json")
    # the base layer prints every vertex position of the Tutte layout
    for name in SECTIONS:
        out[f"render-{name}"] = (
            "render", "--manifest", f"{name}.manifest.json", "--layer", "base")
    # the other layers, of which only fiber draws a nonempty pair graph
    for name in ("cube-o1", "planted", "simplex5", "planted-triangle"):
        for layer in ("cover", "G0", "cycles", "fiber"):
            out[f"render-{name}-{layer}"] = (
                "render", "--manifest", f"{name}.manifest.json", "--layer", layer)
    out["render-rank3-cube-cover"] = (
        "render", "--manifest", "rank3-cube.manifest.json", "--layer", "cover")
    for name in ("cube-o1", "rank3-cube"):
        out[f"fiber-product-{name}"] = ("fiber-product", "--section", f"{name}.section.json")
    return out


CASES = cases()


def run_case(argv) -> str:
    """Exit code, stdout and stderr of one command, with `seconds` masked."""
    res = run_cli(argv)
    stdout = SECONDS.sub('"seconds": 0', res.stdout)
    return f"exit: {res.exit_code}\n--- stdout\n{stdout}--- stderr\n{res.stderr}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_inputs(root)
    return root


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert run_case(CASES[case]) == (GOLDEN / f"{case}.txt").read_text()


def test_written_inputs_are_byte_identical(inputs):
    """Every input file the writers produce keeps its bytes."""
    assert input_digests(inputs) == DIGESTS.read_text()


def test_tampered_gluing_refused_under_every_check_subset(inputs, monkeypatch):
    """Gluing data is checked where it enters, whichever checks are selected:
    with the validate check it fails that check, without it the run stops."""
    monkeypatch.chdir(inputs)
    for k in range(1, len(CHECK_ORDER) + 1):
        for subset in itertools.combinations(CHECK_ORDER, k):
            argv = ["validate", "--manifest", "cube2-tampered.manifest.json"]
            for check in subset:
                argv += ["--check", check]
            res = run_cli(argv)
            assert res.exit_code == EXIT_INVALID, subset
            assert "gluing-cocycle-violation" in res.output, subset


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        digests = input_digests(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            texts = {case: run_case(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(here)
    for case, text in texts.items():
        (GOLDEN / f"{case}.txt").write_text(text)
    DIGESTS.write_text(digests)
    print(f"wrote {len(texts)} golden files and {DIGESTS.name} to {GOLDEN}", file=sys.stderr)
