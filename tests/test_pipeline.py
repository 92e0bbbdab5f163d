"""Manifest plumbing, the check pipeline, and the example writer."""

import ast
import json
import sys
from pathlib import Path

import pytest
from conftest import run_cli, two_sheet_cover

import tropms
from tropms import complexes, gluing
from tropms.complexes import complex_to_text, parse_complex
from tropms.covers import multisection_to_text, parse_multisection
from tropms.generators import generate_example, planted_multisection
from tropms.gluing import gluing_to_text, parse_gluing
from tropms.pipeline import (
    CHECK_ORDER,
    EXIT_INVALID,
    EXIT_NOT_SIMPLE,
    EXIT_OK,
    Manifest,
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


def record(report, check: str):
    """The record of one check in a report."""
    return next(rec for rec in report.checks if rec.check == check)


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
    assert m.resolve("c.json") == str(tmp_path / "c.json")


_SMOOTH = {"positive": True, "simple": True, "elementary": True}


@pytest.mark.parametrize(
    "name, embedded, assertions, label",
    [
        ("cube-o1", _SMOOTH, {"open-gluing-induced": True}, "simple & smoothable"),
        ("cube-o1", _SMOOTH, {"open-gluing-induced": True, "positive": False}, "simple"),
        ("rank3-cube", {"assumption-1.4": True}, {}, "simple & smoothable"),
    ],
    ids=["embedded-and-manifest", "manifest-false-wins", "embedded-local-models"],
)
def test_manifest_overrides_embedded_flags_key_by_key(tmp_path, name, embedded, assertions,
                                                      label):
    """A flag holds when the manifest asserts it, or when the manifest is
    silent on it and the section's embedded complex asserts it."""
    manifest = generate_example(name, str(tmp_path))
    path = tmp_path / manifest.section_path
    data = json.loads(path.read_text())
    data["complex"]["asserted"] = embedded
    path.write_text(json.dumps(data))
    report = run_pipeline(manifest._replace(assertions=assertions))
    assert report.exit_code == EXIT_OK
    simp = record(report, "simplicity")
    assert (simp.verdict, simp.witnesses[0]) == ("pass", label)


def test_full_pipeline_cube_o1(exdir):
    _, manifests = exdir
    report = run_pipeline(manifests["cube-o1"])
    assert report.exit_code == EXIT_OK
    assert tuple(r.check for r in report.checks) == CHECK_ORDER
    assert all(r.verdict == "pass" for r in report.checks)
    assert record(report, "classify").witnesses == ("S_mn", (1, 0))
    assert record(report, "chern").witnesses[:2] == ("1 + H + H^2", "discriminant -3")
    assert record(report, "obstruction").witnesses == ("witness 1",)
    simp = record(report, "simplicity")
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
    assert record(report, "cocycle").verdict == "skipped"
    assert record(report, "chern").witnesses == ("class C has no weight pair",)
    assert record(report, "obstruction").witnesses == ("no gluing data in the manifest",)
    assert record(report, "simplicity").verdict == "pass"

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
    simp = record(report, "simplicity")
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
    rec = record(report, "validate")
    assert rec.verdict == "fail"
    assert "section is not built over the complex named alongside it" in rec.witnesses[0]


@pytest.mark.parametrize("edit, parsed", [("asserted", 1), ("cell order", 2), ("cycle start", 2)])
def test_complex_file_parsed_only_when_its_document_differs(
    exdir, tmp_path, monkeypatch, edit, parsed
):
    """A complex file whose document equals the section's embedded complex,
    assertion flags aside, is not parsed again; one that differs as a
    document but not as a complex is parsed, compared and accepted."""
    root, manifests = exdir
    doc = json.loads((root / "rank3-cube" / "rank3-cube.complex.json").read_text())
    if edit == "asserted":
        doc["asserted"] = {"positive": True}
    elif edit == "cell order":
        doc["cells"].reverse()
    else:  # the same boundary cycle, listed from its second vertex
        cycle = doc["orientation"][0]["cycle"]
        cycle.append(cycle.pop(0))
    (tmp_path / "edited.complex.json").write_text(json.dumps(doc))
    m = manifests["rank3-cube"]._replace(
        complex_path=str(tmp_path / "edited.complex.json"),
        section_path=str(root / "rank3-cube" / "rank3-cube.section.json"),
        root=".",
    )
    calls = _count_calls(monkeypatch, complexes.parse_complex)
    report = run_pipeline(m)
    assert report.exit_code == EXIT_OK
    assert len(calls) == parsed


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
    rec = record(report, "validate")
    assert rec.verdict == "fail"
    joined = " ".join(rec.witnesses)
    assert "slope-discontinuous" in joined
    assert "fx0.00a#0" in joined
    # requested checks after a failed validation are recorded as skipped
    assert record(report, "simplicity").verdict == "skipped"


def test_planted_pipeline_exits_not_simple(tmp_path):
    msec = planted_multisection()
    (tmp_path / "planted.complex.json").write_text(complex_to_text(msec.cover.base))
    (tmp_path / "planted.section.json").write_text(multisection_to_text(msec))
    m = Manifest(
        "planted.complex.json", "planted.section.json", None, {}, root=str(tmp_path)
    )
    report = run_pipeline(m)
    assert report.exit_code == EXIT_NOT_SIMPLE
    simp = record(report, "simplicity")
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
    rec = record(report, "validate")
    assert rec.verdict == "fail"
    assert rec.witnesses == ("cover-disconnected: the total space is disconnected",)
    assert all(r.verdict == "skipped" for r in report.checks[1:])


def test_no_assert_statements_in_package():
    # invariants must hold under python -O too, so they raise explicitly
    for path in sorted(Path(tropms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not any(isinstance(n, ast.Assert) for n in ast.walk(tree)), path.name


def _count_calls(monkeypatch, original) -> list:
    """Record every call of a tropms function; every tropms module that
    binds the function calls it by that name."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("tropms") and getattr(mod, original.__name__, None) is original:
            monkeypatch.setattr(mod, original.__name__, counting)
    return calls


@pytest.mark.parametrize(
    "case",
    ["cube2", "rank3-cube", "cube2 --check obstruction", "simplicity --gluing", "classify",
     "fiber-product", "render", "obstruction"],
)
def test_one_validation_pass_per_run(tmp_path, monkeypatch, case):
    name = "rank3-cube" if case == "rank3-cube" else "cube2"
    manifest = generate_example(name, str(tmp_path))
    calls = _count_calls(monkeypatch, complexes.validate_surface)
    section = ["--section", str(tmp_path / manifest.section_path)]
    gluing = ["--gluing", str(tmp_path / f"{name}.gluing.json")]
    args = {
        "simplicity --gluing": ["simplicity", *section, *gluing],
        "classify": ["classify", *section],
        "fiber-product": ["fiber-product", *section],
        "render": ["render", "--manifest", str(tmp_path / f"{name}.manifest.json"),
                   "--layer", "base"],
        "obstruction": ["obstruction", "--complex", str(tmp_path / manifest.complex_path),
                        *section, *gluing],
    }.get(case)
    if args is not None:
        res = run_cli(args)
        assert res.exit_code == EXIT_OK, res.output
    else:
        checks = ["obstruction"] if "--check" in case else list(CHECK_ORDER)
        report = run_pipeline(manifest, checks)
        assert report.exit_code == EXIT_OK
        assert [r.check for r in report.checks] == checks
    assert len(calls) == 1


@pytest.mark.parametrize(
    "case",
    ["cube2", "cube2 --check obstruction", "obstruction --k", "simplicity --gluing"],
)
def test_one_order_complex_per_run(tmp_path, monkeypatch, case):
    manifest = generate_example("cube2", str(tmp_path))
    calls = _count_calls(monkeypatch, gluing.bar_complex)
    files = ["--section", str(tmp_path / manifest.section_path),
             "--gluing", str(tmp_path / manifest.gluing_path)]
    if case.startswith("cube2"):
        checks = ["obstruction"] if "--check" in case else None
        report = run_pipeline(manifest, checks)
        assert report.exit_code == EXIT_OK
        assert record(report, "obstruction").verdict == "pass"
    else:
        args = {
            "obstruction --k": [
                "obstruction", "--complex", str(tmp_path / manifest.complex_path),
                *files, "--k", "ep000p001~0,p000~0=1"],
            "simplicity --gluing": ["simplicity", *files],
        }[case]
        res = run_cli(args)
        assert res.exit_code == EXIT_OK, res.output
        if case == "obstruction --k":
            assert json.loads(res.stdout)["consistent"] is True
    assert len(calls) == 1


@pytest.mark.parametrize(
    "case, normalized",
    [("cube2", 0), ("simplicity --gluing", 0), ("obstruction", 1)],
)
def test_splitting_normalized_only_where_printed(tmp_path, monkeypatch, case, normalized):
    manifest = generate_example("cube2", str(tmp_path))
    calls = _count_calls(monkeypatch, gluing.normalize_splitting)
    files = ["--section", str(tmp_path / manifest.section_path),
             "--gluing", str(tmp_path / manifest.gluing_path)]
    if case == "cube2":
        report = run_pipeline(manifest)
        assert record(report, "obstruction").verdict == "pass"
    else:
        args = {
            "obstruction": ["obstruction", "--complex",
                            str(tmp_path / manifest.complex_path), *files],
            "simplicity --gluing": ["simplicity", *files],
        }[case]
        res = run_cli(args)
        assert res.exit_code == EXIT_OK, res.output
    assert len(calls) == normalized


@pytest.mark.parametrize(
    "name, counted, expected",
    [
        ("rank3-cube", "check_class_C", 1),
        ("rank3-cube", "parse_complex", 1),
        ("rank3-cube", "build_fiber_product", 0),
        ("cube2", "classify", 1),
    ],
)
def test_class_and_complex_computed_once_per_run(
    tmp_path, monkeypatch, name, counted, expected
):
    """The class is computed once and passed on to the simplicity criteria,
    the complex is parsed once from the section, and the branch-free pair
    graph is built without the whole fiber product."""
    from tropms import covers, graphs

    manifest = generate_example(name, str(tmp_path))
    module = {"parse_complex": complexes, "build_fiber_product": graphs}.get(counted, covers)
    calls = _count_calls(monkeypatch, getattr(module, counted))
    report = run_pipeline(manifest)
    assert report.exit_code == EXIT_OK
    assert record(report, "simplicity").verdict == "pass"
    assert len(calls) == expected


def test_order_complex_and_kinks_computed_once_per_verdict(tmp_path, monkeypatch):
    """A verdict with gluing data builds the order complex once and computes
    the kink at each wall of each lift of rank at most two once; classify
    and the kink check read the kinks from the section's index."""
    from tropms import covers

    manifest = generate_example("cube2", str(tmp_path))
    bars = _count_calls(monkeypatch, gluing.bar_complex)
    kinks = _count_calls(monkeypatch, covers._kink)
    report = run_pipeline(manifest)
    assert report.exit_code == EXIT_OK
    assert record(report, "obstruction").verdict == "pass"
    assert record(report, "classify").verdict == "pass"
    cover = kinks[0][0].cover
    walls = [
        (lid, t)
        for v in cover.base.vertices
        for (lid, _), cyc in zip(cover.computed_lifts(v.id), cover.lift_cycles(v.id))
        if len(cyc) <= 2 * len(cover.base.corners(v.id))
        for t in range(len(cyc))
    ]
    assert len(bars) == 1
    ids, lift_of = cover._index.ids, cover._index.lift_of
    assert walls and sorted((ids[lift_of[cyc[0]]], t) for _, cyc, t in kinks) == sorted(walls)
