"""Golden outputs of the `validate`, `obstruction` and `simplicity` commands.

Each case runs one command on example inputs written to a scratch directory
and addressed by relative paths, and compares the exit code, stdout and
stderr byte for byte with ``tests/golden/<case>.txt``; the `seconds` fields
of reports are masked. After an intended change of output, rewrite the
files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import re
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tropms.cli import main
from tropms.complexes import complex_to_text
from tropms.covers import multisection_to_text
from tropms.generators import (
    cube2_multisection,
    planted_multisection,
    planted_triangle_multisection,
)
from tropms.gluing import (
    TorusElement,
    bar_complex,
    gluing_to_text,
    parse_gluing,
)
from tropms.pipeline import Manifest, generate_example, manifest_to_text

GOLDEN = Path(__file__).parent / "golden"
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
    # cube2 gluing with one extra nontrivial flag into a 2-cell lift
    g = parse_gluing(json.loads((root / "cube2.gluing.json").read_text()))
    tail, _, flift, _ = bar_complex(cube2_multisection()).triangles[0]
    g[(tail, flift)] = TorusElement.single((1, 0), 3)
    (root / "cube2-tampered.gluing.json").write_text(gluing_to_text(g))
    m = Manifest("cube2.complex.json", "cube2.section.json",
                 "cube2-tampered.gluing.json", {"regular": True}, root=str(root))
    (root / "cube2-tampered.manifest.json").write_text(manifest_to_text(m))
    # a single transverse torus element obstructs the cube-o1 gluing
    g = {("fx0.00a#0", "ep000p001~1"): TorusElement.single((0, 1), 2)}
    (root / "obstructed.gluing.json").write_text(gluing_to_text(g))


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
    return out


CASES = cases()


def run_case(argv) -> str:
    """Exit code, stdout and stderr of one command, with `seconds` masked."""
    res = CliRunner().invoke(main, list(argv))
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
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


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            texts = {case: run_case(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(here)
    for case, text in texts.items():
        (GOLDEN / f"{case}.txt").write_text(text)
    print(f"wrote {len(texts)} golden files to {GOLDEN}", file=sys.stderr)
