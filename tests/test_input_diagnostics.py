"""Every input diagnostic, reached through `tropms validate`.

Each case edits one field of the cube2 example (the complex its section
embeds, written out as the manifest's complex too, or its gluing data) and
checks that `validate` exits 2 with the diagnostic's line in its failed
record. A last check keeps the glossary naming every code the package emits.
"""

import json
import re
from pathlib import Path

import pytest
from conftest import run_cli

from tropms.generators import generate_example
from tropms.pipeline import EXIT_INVALID

ROOT = Path(__file__).resolve().parents[1]


def _cell(section, cid):
    return next(c for c in section["complex"]["cells"] if c["id"] == cid)


def _fan(section, vid):
    return next(f for f in section["complex"]["fans"] if f["vertex"] == vid)


def _endpoints(section, *faces):
    _cell(section, "ep000p001")["faces"] = [_cell(section, "ep000p001")["faces"][0], *faces]


def _swap_boundary_edge(section):
    """p000 lists an edge of p001 in place of one of its own."""
    own, other = _cell(section, "p000")["faces"], _cell(section, "p001")["faces"]
    own[0] = next(e for e in other if e not in own)


# case -> (document, edit, lines the validate record must hold)
CASES = {
    "cell-dim": ("section", lambda d: d["complex"]["cells"].append({"id": "zz", "dim": 3}),
                 ["cell-dim: cell zz has dimension 3"]),
    "missing-face": ("section", lambda d: _endpoints(d, "ghost"),
                     ["missing-face: cell ep000p001 lists unknown face ghost"]),
    "face-dim": ("section",
                 lambda d: (_endpoints(d, "p001"), _cell(d, "fx0.00b").update(faces=["fx0.00a"])),
                 ["face-dim: cell ep000p001 (dim 1) lists face p001 of dim 2",
                  "face-dim: cell fx0.00b (dim 0) lists face fx0.00a of dim 0",
                  "face-dim: vertex fx0.00b must not have faces"]),
    "edge-endpoints": ("section", lambda d: _endpoints(d, _cell(d, "ep000p001")["faces"][0]),
                       ["edge-endpoints: edge ep000p001 needs two distinct endpoints"]),
    "orientation-missing": ("section", lambda d: d["complex"]["orientation"].pop(0),
                            ["orientation-missing: 2-cell p000 has no boundary cycle"]),
    "orientation-degenerate": (
        "section", lambda d: d["complex"]["orientation"][0].update(cycle=["fx0.00a", "fx0.00b"]),
        ["orientation-degenerate: 2-cell p000 cycle ('fx0.00a', 'fx0.00b') is degenerate"]),
    "orientation-face-mismatch": (
        "section", _swap_boundary_edge,
        ["orientation-face-mismatch: 2-cell p000 boundary cycle does not match its edge list"]),
    "euler-characteristic-odd": (
        "section", lambda d: d["complex"]["cells"].append({"id": "zz", "dim": 0}),
        ["euler-characteristic-odd: closed surface cannot have chi = 3"]),
    "fan-vertex": ("section",
                   lambda d: d["complex"]["fans"].append(dict(_fan(d, "fx0.00a"), vertex="p000")),
                   ["fan-vertex: fan attached to non-vertex p000"]),
    "fan-edge-mismatch": (
        "section", lambda d: _fan(d, "fx0.00a")["rays"][0].update(edge="ep001p002"),
        ["fan-edge-mismatch: fan at fx0.00a covers edges ['ep000p011', 'ep001p002', "
         "'ep001p011'], incident are ['ep000p001', 'ep000p011', 'ep001p011']"]),
    "fan-not-complete": ("section", lambda d: _fan(d, "fx0.00a")["cones"][0].update(rays=[1, 0]),
                         ["fan-not-complete: fan at fx0.00a cones do not tile the circle"]),
    "fan-cone-mismatch": (
        "section", lambda d: _fan(d, "fx0.00a")["cones"][0].update(face2="p222"),
        ["fan-cone-mismatch: fan at fx0.00a assigns a cone to non-incident 2-cell p222"]),
    "cover-degree": ("section", lambda d: d.update(degree=0),
                     ["cover-degree: degree 0 is not positive"]),
    "edge-matching": ("section", lambda d: d["matchings"][0].update(edge="ghost"),
                      ["edge-matching: matchings must cover exactly the edges of the base"]),
    "branch-not-vertex": ("section", lambda d: d["branch"].append("ghost"),
                          ["branch-not-vertex: branch point ghost is not a vertex"]),
    "ramification-mismatch": (
        "section", lambda d: d["ramification"].append({"vertex": "nowhere", "blocks": [[0, 1]]}),
        ["ramification-mismatch: vertex nowhere: declared ((0, 1),), computed None"]),
    "slope-coverage": (
        "section", lambda d: d["slopes"].append(dict(d["slopes"][0], vertex_lift="ghost#0")),
        ["slope-coverage: slope for unknown key ('ghost#0', 'p000', 0)"]),
    "gluing-zero-coefficient": (
        "gluing", lambda d: d["assignments"][0]["element"][0].update(q="0"),
        ["malformed gluing data (ValueError: cube2.gluing.json: assignments[0].element "
         "has a zero coefficient)"]),
    "gluing-q-not-rational": (
        "gluing", lambda d: d["assignments"][0]["element"][0].update(q="1.5"),
        ["malformed gluing data (TypeError: cube2.gluing.json: assignments[0].element[0].q "
         "must be a \"p/q\" rational, got '1.5')"]),
}


@pytest.fixture(scope="module")
def cube2(tmp_path_factory):
    root = tmp_path_factory.mktemp("cube2")
    generate_example("cube2", str(root))
    return {kind: json.loads((root / f"cube2.{kind}.json").read_text())
            for kind in ("section", "gluing", "manifest")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_reports_the_diagnostic(cube2, tmp_path, case):
    kind, edit, lines = CASES[case]
    docs = json.loads(json.dumps(cube2))  # a deep copy
    edit(docs[kind])
    docs["complex"] = docs["section"]["complex"]
    for name, doc in docs.items():
        (tmp_path / f"cube2.{name}.json").write_text(json.dumps(doc))
    res = run_cli(["validate", "--manifest", tmp_path / "cube2.manifest.json"])
    assert res.exit_code == EXIT_INVALID, res.output
    rec = json.loads(res.stdout)["checks"][0]
    assert (rec["check"], rec["verdict"]) == ("validate", "fail")
    for line in lines:
        assert line in rec["witnesses"], rec["witnesses"]


def test_glossary_names_every_emitted_code():
    """Every code a validator emits is in docs/GLOSSARY.md, literally or
    through its ``orientation-*`` or ``fan-*`` family."""
    codes = set()
    for path in (ROOT / "src" / "tropms").glob("*.py"):
        codes |= set(re.findall(r'(?:bad|Diagnostic|violations\.append)\(\(?\s*"([a-z0-9-]+)"',
                                path.read_text(encoding="utf-8")))
    assert {case for case in CASES if not case.startswith("gluing-")} <= codes
    glossary = (ROOT / "docs" / "GLOSSARY.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([a-z0-9*-]+)`", glossary))
    assert {"orientation-*", "fan-*"} <= named
    missing = sorted(c for c in codes
                     if c not in named and c.split("-")[0] not in ("orientation", "fan"))
    assert not missing
