"""Manifest plumbing, the check pipeline, and the example writer."""

import ast
import json
import sys
from pathlib import Path

import pytest
from conftest import two_sheet_cover

import tropms
from click.testing import CliRunner
from tropms import complexes
from tropms.cli import main

from tropms.complexes import complex_to_text, parse_complex
from tropms.covers import multisection_to_text, parse_multisection
from tropms.generators import planted_multisection
from tropms.gluing import gluing_to_text, parse_gluing
from tropms.pipeline import (
    CHECK_ORDER,
    EXIT_INVALID,
    EXIT_NOT_SIMPLE,
    EXIT_OK,
    Manifest,
    generate_example,
    load_manifest,
    manifest_to_text,
    parse_manifest,
    report_to_json,
    report_to_text,
    run_pipeline,
)


@pytest.fixture(scope="module")
def exdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("examples")
    manifests = {
        name: generate_example(name, str(root / name))
        for name in ("cube-o1", "rank3-cube")
    }
    return root, manifests


def test_generate_example_writes_expected_files(exdir):
    root, manifests = exdir
    names = sorted(p.name for p in (root / "cube-o1").iterdir())
    assert names == [
        "cube-o1.complex.json",
        "cube-o1.gluing.json",
        "cube-o1.manifest.json",
        "cube-o1.section.json",
    ]
    assert manifests["cube-o1"].gluing_path == "cube-o1.gluing.json"
    # no gluing data for the degree-3 cover
    assert manifests["rank3-cube"].gluing_path is None
    assert not (root / "rank3-cube" / "rank3-cube.gluing.json").exists()


def test_generate_example_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown example"):
        generate_example("klein-bottle", str(tmp_path))


def test_generated_artifacts_reparse_byte_identically(exdir):
    root, _ = exdir
    rewriters = {
        "complex": lambda d: complex_to_text(parse_complex(d)),
        "section": lambda d: multisection_to_text(parse_multisection(d)),
        "gluing": lambda d: gluing_to_text(parse_gluing(d)),
    }
    checked = 0
    for path in sorted((root / "cube-o1").iterdir()):
        kind = path.name.split(".")[-2]
        if kind == "manifest":
            text = manifest_to_text(load_manifest(str(path)))
        else:
            text = rewriters[kind](json.loads(path.read_text()))
        assert text == path.read_text(), path.name
        checked += 1
    assert checked == 4


def test_parse_manifest_rejections():
    good = {
        "schema": "manifest/v1",
        "complex": "a.json",
        "section": "b.json",
        "assertions": {"regular": True},
    }
    parse_manifest(dict(good))
    with pytest.raises(ValueError, match="schema"):
        parse_manifest({**good, "schema": "manifest/v2"})
    with pytest.raises(ValueError, match="unknown field"):
        parse_manifest({**good, "extra": 1})
    with pytest.raises(ValueError, match="unknown assertion flag"):
        parse_manifest({**good, "assertions": {"shiny": True}})
    with pytest.raises(ValueError, match="must be boolean"):
        parse_manifest({**good, "assertions": {"regular": "yes"}})
    with pytest.raises(ValueError, match="must be a path"):
        parse_manifest({**good, "complex": 7})


def test_manifest_asserts_and_resolve(tmp_path):
    m = Manifest("c.json", "s.json", None, {"regular": True}, root=str(tmp_path))
    assert m.asserts("regular")
    assert not m.asserts("positive")
    assert m.resolve("c.json") == str(tmp_path / "c.json")


def test_full_pipeline_cube_o1(exdir):
    _, manifests = exdir
    report = run_pipeline(manifests["cube-o1"])
    assert report.exit_code == EXIT_OK
    assert tuple(r.check for r in report.checks) == CHECK_ORDER
    assert all(r.verdict == "pass" for r in report.checks)
    assert report.record("classify").witnesses == ("S_mn", (1, 0))
    assert report.record("chern").witnesses[:2] == ("1 + H + H^2", "discriminant -3")
    assert report.record("obstruction").witnesses == ("witness 1",)
    simp = report.record("simplicity")
    assert simp.witnesses[0] == "simple & smoothable"
    assert simp.citation == "rank2-gap1"


def test_pipeline_deterministic_modulo_seconds(exdir):
    _, manifests = exdir

    def strip(report):
        data = report_to_json(report)
        for rec in data["checks"]:
            del rec["seconds"]
        return data

    a = strip(run_pipeline(manifests["cube-o1"]))
    b = strip(run_pipeline(manifests["cube-o1"]))
    assert a == b
    assert a["schema"] == "report/v1"


def test_pipeline_check_subset(exdir):
    _, manifests = exdir
    report = run_pipeline(manifests["cube-o1"], checks=("chern", "validate"))
    assert tuple(r.check for r in report.checks) == ("validate", "chern")


def test_report_text_is_json_with_newline(exdir):
    _, manifests = exdir
    text = report_to_text(run_pipeline(manifests["cube-o1"], checks=("validate",)))
    assert text.endswith("\n")
    assert json.loads(text)["exit_code"] == EXIT_OK


def test_rank3_pipeline_skips_and_refusal(exdir):
    root, manifests = exdir
    report = run_pipeline(manifests["rank3-cube"])
    assert report.exit_code == EXIT_OK
    assert report.record("cocycle").verdict == "skipped"
    assert report.record("chern").witnesses == ("class C has no weight pair",)
    assert report.record("obstruction").witnesses == ("no gluing data in the manifest",)
    assert report.record("simplicity").verdict == "pass"

    # same data without the local-model assertion: the criterion refuses
    bare = Manifest(
        "rank3-cube.complex.json",
        "rank3-cube.section.json",
        None,
        {},
        root=str(root / "rank3-cube"),
    )
    report = run_pipeline(bare, checks=("validate", "classify", "simplicity"))
    assert report.exit_code == EXIT_OK
    simp = report.record("simplicity")
    assert simp.verdict == "refused"
    assert simp.citation == "local-bundle-assumption"


def test_pipeline_cross_checks_section_against_complex(exdir):
    root, _ = exdir
    # same cells, different fans: the rank-3 complex is not the section's base
    m = Manifest(
        str(root / "rank3-cube" / "rank3-cube.complex.json"),
        str(root / "cube-o1" / "cube-o1.section.json"),
        None,
        {},
        root=".",
    )
    report = run_pipeline(m)
    assert report.exit_code == EXIT_INVALID
    rec = report.record("validate")
    assert rec.verdict == "fail"
    assert "section is not built over the complex named alongside it" in rec.witnesses[0]


def test_pipeline_corrupted_slope_names_the_lift(exdir, tmp_path):
    root, _ = exdir
    data = json.loads((root / "cube-o1" / "cube-o1.section.json").read_text())
    data["slopes"][0]["slope"] = [7, 9]
    (tmp_path / "bad.section.json").write_text(json.dumps(data))
    m = Manifest(
        str(root / "cube-o1" / "cube-o1.complex.json"),
        str(tmp_path / "bad.section.json"),
        None,
        {},
        root=".",
    )
    report = run_pipeline(m)
    assert report.exit_code == EXIT_INVALID
    rec = report.record("validate")
    assert rec.verdict == "fail"
    joined = " ".join(rec.witnesses)
    assert "slope-discontinuous" in joined
    assert "fx0.00a#0" in joined
    # requested checks after a failed validation are recorded as skipped
    assert report.record("simplicity").verdict == "skipped"


def test_planted_pipeline_exits_not_simple(tmp_path):
    msec = planted_multisection()
    (tmp_path / "planted.complex.json").write_text(complex_to_text(msec.cover.base))
    (tmp_path / "planted.section.json").write_text(multisection_to_text(msec))
    m = Manifest(
        "planted.complex.json", "planted.section.json", None, {}, root=str(tmp_path)
    )
    report = run_pipeline(m)
    assert report.exit_code == EXIT_NOT_SIMPLE
    simp = report.record("simplicity")
    assert simp.verdict == "fail"
    assert simp.witnesses[0] == "not simple"
    assert any("p001" in str(w) for w in simp.witnesses[1:])


def test_disconnected_cover_fails_validate(tmp_path):
    msec = two_sheet_cover()
    (tmp_path / "two.complex.json").write_text(complex_to_text(msec.cover.base))
    (tmp_path / "two.section.json").write_text(multisection_to_text(msec))
    m = Manifest("two.complex.json", "two.section.json", None, {}, root=str(tmp_path))
    report = run_pipeline(m)
    assert report.exit_code == EXIT_INVALID
    rec = report.record("validate")
    assert rec.verdict == "fail"
    assert rec.witnesses == ("cover-disconnected: the total space is disconnected",)
    assert all(r.verdict == "skipped" for r in report.checks[1:])


def test_no_assert_statements_in_package():
    # invariants must hold under python -O too, so they raise explicitly
    for path in sorted(Path(tropms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not any(isinstance(n, ast.Assert) for n in ast.walk(tree)), path.name


@pytest.mark.parametrize("case", ["cube2", "rank3-cube", "simplicity --gluing"])
def test_one_validation_pass_per_run(tmp_path, monkeypatch, case):
    name = "rank3-cube" if case == "rank3-cube" else "cube2"
    manifest = generate_example(name, str(tmp_path))
    calls = []
    original = complexes.validate_surface

    def counting(s):
        calls.append(s)
        return original(s)

    # every tropms module that binds the validator calls it by that name
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("tropms") and getattr(mod, "validate_surface", None) is original:
            monkeypatch.setattr(mod, "validate_surface", counting)
    if case == "simplicity --gluing":
        res = CliRunner().invoke(main, [
            "simplicity", "--section", str(tmp_path / manifest.section_path),
            "--gluing", str(tmp_path / manifest.gluing_path),
        ])
        assert res.exit_code == EXIT_OK, res.output
    else:
        report = run_pipeline(manifest)
        assert report.exit_code == EXIT_OK
        assert [r.check for r in report.checks] == list(CHECK_ORDER)
    assert len(calls) == 1
