"""End-to-end checks of the command-line front end and the SVG renderer."""

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_cli, triangulated_torus

import tropms
from tropms.complexes import complex_to_text, validate_surface
from tropms.covers import multisection_to_text
from tropms.generators import (
    generate_example,
    planted_multisection,
    planted_triangle_multisection,
)
from tropms.gluing import TorusElement, gluing_to_text
from tropms.pipeline import (
    CHECK_ORDER,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NOT_SIMPLE,
    EXIT_OK,
    Manifest,
    manifest_to_text,
)
from tropms.svg import _layout


def invoke(*args):
    return run_cli(args)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Example artifacts plus hand-written sections the generators don't ship."""
    root = tmp_path_factory.mktemp("cli")
    for name in ("cube2", "cube-o1", "rank3-cube"):
        res = invoke("example", name, "--outdir", root)
        assert res.exit_code == EXIT_OK, res.output
    for tag, msec in (
        ("planted", planted_multisection()),
        ("triangle", planted_triangle_multisection()),
    ):
        (root / f"{tag}.complex.json").write_text(complex_to_text(msec.cover.base))
        (root / f"{tag}.section.json").write_text(multisection_to_text(msec))
        m = Manifest(
            f"{tag}.complex.json", f"{tag}.section.json", None, {}, root=str(root)
        )
        (root / f"{tag}.manifest.json").write_text(manifest_to_text(m))
    # a single transverse torus element is enough to obstruct the gluing
    g = {("fx0.00a#0", "ep000p001~1"): TorusElement.single((0, 1), 2)}
    (root / "obstructed.gluing.json").write_text(gluing_to_text(g))
    return root


def test_version_flag():
    res = invoke("--version")
    assert res.exit_code == EXIT_OK
    assert "version" in res.output


COMMANDS = ("validate", "classify", "verify-cocycle", "chern", "newton", "obstruction",
            "simplicity", "fiber-product", "example", "render")


@pytest.mark.parametrize(
    "argv, code, stream, lines",
    [
        (["--help"], EXIT_OK, "stdout",
         ["usage: tropms [-h] [--version] COMMAND ...",
          "    validate      Run the check pipeline on a manifest and print the report.",
          "    render        Render one diagnostic SVG layer for a manifest's data."]),
        (["--version"], EXIT_OK, "stdout", [f"tropms, version {tropms.__version__}"]),
        ([], EXIT_INVALID, "stderr",
         ["usage: tropms [-h] [--version] COMMAND ...",
          "tropms: error: the following arguments are required: COMMAND"]),
        (["bogus"], EXIT_INVALID, "stderr",
         ["tropms: error: argument COMMAND: invalid choice: 'bogus' (choose from "
          + ", ".join(f"'{c}'" for c in COMMANDS) + ")"]),
        (["validate"], EXIT_INVALID, "stderr",
         ["usage: tropms validate [-h] --manifest MANIFEST [--check CHECKS]",
          "tropms validate: error: the following arguments are required: --manifest"]),
    ],
    ids=["help", "version", "no-command", "unknown-command", "missing-option"],
)
def test_usage_output_and_exit_codes(argv, code, stream, lines, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    res = invoke(*argv)
    assert res.exit_code == code
    for line in lines:
        assert line in getattr(res, stream).splitlines()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_built_alone_matches_the_full_parser(command, monkeypatch):
    """A command's arguments parse and print the same whether its subparser
    is built alone, as a run builds it, or among all of them."""
    from tropms.cli import _parser

    monkeypatch.setenv("COLUMNS", "80")
    alone, full = _parser([command]), _parser([])
    assert len(alone._subparsers._group_actions[0].choices) == 1
    assert len(full._subparsers._group_actions[0].choices) == len(COMMANDS)
    outputs = []
    for parser in (alone, full):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--no-such-option"])
        outputs.append((out.getvalue(), err.getvalue()))
    assert outputs[0] == outputs[1]


def test_example_stdout_matches_manifest_file(tmp_path):
    res = invoke("example", "cube-o1", "--outdir", tmp_path)
    assert res.exit_code == EXIT_OK
    assert res.stdout == (tmp_path / "cube-o1.manifest.json").read_text()


def test_example_rejects_unknown_name(tmp_path):
    res = invoke("example", "doughnut", "--outdir", tmp_path)
    assert res.exit_code != EXIT_OK


def test_validate_full_run(workdir):
    res = invoke("validate", "--manifest", workdir / "cube-o1.manifest.json")
    assert res.exit_code == EXIT_OK, res.output
    report = json.loads(res.stdout)
    assert report["schema"] == "report/v1"
    verdicts = {rec["check"]: rec["verdict"] for rec in report["checks"]}
    assert verdicts == {
        "validate": "pass",
        "classify": "pass",
        "cocycle": "pass",
        "chern": "pass",
        "obstruction": "pass",
        "simplicity": "pass",
    }
    simp = next(r for r in report["checks"] if r["check"] == "simplicity")
    assert simp["witnesses"][0] == "simple & smoothable"


def test_validate_selected_checks(workdir):
    res = invoke(
        "validate",
        "--manifest", workdir / "cube-o1.manifest.json",
        "--check", "chern",
        "--check", "validate",
    )
    assert res.exit_code == EXIT_OK
    report = json.loads(res.stdout)
    assert [rec["check"] for rec in report["checks"]] == ["validate", "chern"]


def test_validate_planted_exits_not_simple(workdir):
    res = invoke("validate", "--manifest", workdir / "planted.manifest.json")
    assert res.exit_code == EXIT_NOT_SIMPLE
    report = json.loads(res.stdout)
    simp = next(r for r in report["checks"] if r["check"] == "simplicity")
    assert simp["verdict"] == "fail"


def test_validate_missing_manifest(tmp_path):
    res = invoke("validate", "--manifest", tmp_path / "nope.json")
    assert res.exit_code == EXIT_INVALID
    assert "error:" in res.stderr


@pytest.mark.parametrize("command", ["classify", "validate"])
@pytest.mark.parametrize("damage", ["no-degree", "bare-slope"])
def test_malformed_section_exits_invalid(workdir, tmp_path, command, damage):
    data = json.loads((workdir / "cube2.section.json").read_text())
    if damage == "no-degree":
        del data["degree"]
    else:
        data["slopes"][0]["slope"] = 1
    (tmp_path / "bad.section.json").write_text(json.dumps(data))
    if command == "classify":
        res = invoke("classify", "--section", tmp_path / "bad.section.json")
        (message,) = res.stderr.splitlines()
        assert message.startswith("error: malformed multi-section (")
    else:
        m = Manifest(str(workdir / "cube2.complex.json"), "bad.section.json",
                     None, {}, root=str(tmp_path))
        (tmp_path / "bad.manifest.json").write_text(manifest_to_text(m))
        res = invoke("validate", "--manifest", tmp_path / "bad.manifest.json")
        (rec,) = json.loads(res.stdout)["checks"]
        assert (rec["check"], rec["verdict"]) == ("validate", "fail")
        (message,) = rec["witnesses"]
        assert message.startswith("malformed multi-section (")
        assert "\n" not in message
    assert res.exit_code == EXIT_INVALID


# Leniencies of the hand-written readers each type now rejects, as
# (file, JSON path, new value from the old one, kind of document): cube2's
# section read by `classify`, or a slopes file read by `newton`.
SLOPES = {"slopes": [[0, 0], [1, 0], [0, 1]]}
STRICT_READS = {
    "degree-float": ("section", ("degree",), lambda old: 2.9, "multi-section"),
    "slope-half": ("section", ("slopes", 0, "slope", 0), lambda old: old + 0.5, "multi-section"),
    "sheet-bool": ("section", ("slopes", 0, "sheet"), lambda old: True, "multi-section"),
    "dim-string": ("section", ("complex", "cells", 0, "dim"), str, "complex"),
    "label-object": ("section", ("label",), lambda old: {"x": 1}, "multi-section"),
    "branch-string": ("section", ("branch",), lambda old: "p000", "multi-section"),
    "lifts-string": ("section", ("lifts",), lambda old: "nonsense", "multi-section"),
    "slope-string": ("section", ("slopes", 0, "slope"), lambda old: "ab", "multi-section"),
    "slope-triple": ("section", ("slopes", 0, "slope"), lambda old: [1, 2, 3], "multi-section"),
    "newton-bare-slopes": ("slopes", ("slopes",), lambda old: [1, 2, 3], "slopes file"),
    "newton-slopes-int": ("slopes", ("slopes",), lambda old: 5, "slopes file"),
    "newton-bare-rays": ("slopes", ("rays",), lambda old: [1, 2, 3], "slopes file"),
    "newton-half-slope": ("slopes", ("slopes", 1, 0), lambda old: old + 0.5, "slopes file"),
    "newton-unknown-key": ("slopes", ("extra",), lambda old: 1, "slopes file"),
}


@pytest.mark.parametrize("case", sorted(STRICT_READS))
def test_strict_read_names_kind_and_path(workdir, tmp_path, case):
    kind, path, new, document = STRICT_READS[case]
    data = json.loads(json.dumps(SLOPES)) if kind == "slopes" else json.loads(
        (workdir / "cube2.section.json").read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new(node.get(path[-1]) if isinstance(node, dict) else node[path[-1]])
    bad = tmp_path / f"bad.{kind}.json"
    bad.write_text(json.dumps(data))
    if kind == "slopes":
        res = invoke("newton", "--slopes", bad)
    else:
        res = invoke("classify", "--section", bad)
    assert res.exit_code == EXIT_INVALID
    (message,) = res.stderr.splitlines()
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).removeprefix(".")
    assert message.startswith(f"error: malformed {document} (")
    assert f"bad.{kind}.json: {where}" in message  # the place changed, or one inside it


UNDECODABLE = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "leading-0xff": lambda raw: b"\xff" + raw,
    "nested-too-deeply": lambda raw: b"[" * 100_000 + raw,
}


@pytest.mark.parametrize("damage", sorted(UNDECODABLE))
@pytest.mark.parametrize("kind", ["manifest", "complex", "section", "gluing", "slopes"])
def test_file_that_is_not_json_text_is_named(workdir, tmp_path, kind, damage):
    """A file that is not JSON text in UTF-8, or nests too deeply to decode,
    exits 2, and the error leads with the file's name: on stderr, or as the
    failed validate record."""
    for name in ("manifest", "complex", "section", "gluing"):
        (tmp_path / f"cube2.{name}.json").write_bytes((workdir / f"cube2.{name}.json").read_bytes())
    (tmp_path / "slopes.json").write_text(json.dumps(SLOPES))
    bad = tmp_path / ("slopes.json" if kind == "slopes" else f"cube2.{kind}.json")
    bad.write_bytes(UNDECODABLE[damage](bad.read_bytes()))
    if kind == "slopes":
        res = invoke("newton", "--slopes", bad)
    else:
        res = invoke("validate", "--manifest", tmp_path / "cube2.manifest.json")
    assert res.exit_code == EXIT_INVALID
    if kind in ("slopes", "manifest"):
        (message,) = res.stderr.splitlines()
        assert message.startswith(f"error: {bad.name}: ")
    else:
        (rec,) = json.loads(res.output)["checks"]
        assert (rec["check"], rec["verdict"]) == ("validate", "fail")
        (message,) = rec["witnesses"]
        assert message.startswith(f"{bad.name}: ")


def _edited_cube2(workdir, tmp_path, edit):
    """Copy the cube2 files into tmp_path, passing each parsed document
    through ``edit(kind, data)``, with a manifest naming all three."""
    for kind in ("complex", "section", "gluing"):
        data = json.loads((workdir / f"cube2.{kind}.json").read_text())
        edit(kind, data)
        (tmp_path / f"cube2.{kind}.json").write_text(json.dumps(data))
    m = Manifest("cube2.complex.json", "cube2.section.json", "cube2.gluing.json",
                 {}, root=str(tmp_path))
    (tmp_path / "cube2.manifest.json").write_text(manifest_to_text(m))
    return tmp_path


def test_orientation_step_without_edge_exits_invalid(workdir, tmp_path):
    def swap(kind, data):
        # p000 becomes (fx0.00a, fz0.00a, fx0.00b, ...): no edge fx0.00a-fz0.00a
        cx = data if kind == "complex" else data.get("complex")
        if cx is not None:
            cyc = cx["orientation"][0]["cycle"]
            cyc[1], cyc[2] = cyc[2], cyc[1]

    d = _edited_cube2(workdir, tmp_path, swap)
    res = invoke("validate", "--manifest", d / "cube2.manifest.json")
    assert res.exit_code == EXIT_INVALID
    rec = json.loads(res.stdout)["checks"][0]
    assert (rec["check"], rec["verdict"]) == ("validate", "fail")
    assert "orientation-edge: 2-cell p000: 'no edge between fx0.00a and fz0.00a'" in rec["witnesses"]
    for command in ("classify", "simplicity"):
        res = invoke(command, "--section", d / "cube2.section.json")
        assert res.exit_code == EXIT_INVALID
        (message,) = res.stderr.splitlines()
        assert message.startswith("error: multi-section is invalid: ['orientation-edge'")


def test_isolated_vertex_exits_invalid(workdir, tmp_path):
    def add_vertices(kind, data):
        # two vertices keep the Euler characteristic even
        cx = data if kind == "complex" else data.get("complex")
        if cx is not None:
            cx["cells"] += [{"id": "zz1", "dim": 0}, {"id": "zz2", "dim": 0}]

    d = _edited_cube2(workdir, tmp_path, add_vertices)
    res = invoke("validate", "--manifest", d / "cube2.manifest.json")
    assert res.exit_code == EXIT_INVALID
    rec = json.loads(res.stdout)["checks"][0]
    assert (rec["check"], rec["verdict"]) == ("validate", "fail")
    assert rec["witnesses"] == [
        f"vertex-isolated: vertex {v} is a face of no edge" for v in ("zz1", "zz2")
    ]
    res = invoke("classify", "--section", d / "cube2.section.json")
    assert res.exit_code == EXIT_INVALID
    assert res.stderr == (
        "error: multi-section is invalid: ['vertex-isolated', 'vertex-isolated']; "
        "vertex-isolated: vertex zz1 is a face of no edge\n"
    )


def test_invalid_line_quotes_a_message_with_a_line_break(workdir, tmp_path):
    def add_vertices(kind, data):
        cx = data if kind == "complex" else data.get("complex")
        if cx is not None:
            cx["cells"] += [{"id": "zz\n1", "dim": 0}, {"id": "zz2", "dim": 0}]

    d = _edited_cube2(workdir, tmp_path, add_vertices)
    res = invoke("classify", "--section", d / "cube2.section.json")
    assert res.exit_code == EXIT_INVALID
    assert res.stderr == (
        "error: multi-section is invalid: ['vertex-isolated', 'vertex-isolated']; "
        "vertex-isolated: 'vertex zz\\n1 is a face of no edge'\n"
    )


@pytest.mark.parametrize(
    "command", ["simplicity", "fiber-product", "render", "validate --check"]
)
def test_invalid_section_rejected_at_boundary(workdir, tmp_path, command):
    def drop_slope(kind, data):
        if kind == "section":
            del data["slopes"][0]

    d = _edited_cube2(workdir, tmp_path, drop_slope)
    section, manifest = d / "cube2.section.json", d / "cube2.manifest.json"
    args = {
        "simplicity": ("simplicity", "--section", section),
        "fiber-product": ("fiber-product", "--section", section),
        "render": ("render", "--manifest", manifest, "--layer", "G0"),
        "validate --check": ("validate", "--manifest", manifest, "--check", "simplicity"),
    }[command]
    res = invoke(*args)
    assert res.exit_code == EXIT_INVALID
    assert res.stderr == (
        "error: multi-section is invalid: ['slope-coverage']; slope-coverage: "
        "missing slope for ('fx0.00a#0', 'p000', 0)\n"
    )


@pytest.mark.parametrize("damage", ["malformed", "missing"])
def test_unreadable_section_under_every_check_subset(workdir, tmp_path, damage):
    """A section that cannot be read fails the validate check when it is
    selected; without it the run stops with the error alone, as it does on a
    section that fails validation."""
    def float_degree(kind, data):
        if kind == "section":
            data["degree"] = 2.0

    d = _edited_cube2(workdir, tmp_path, float_degree)
    section = d / "cube2.section.json"
    if damage == "missing":
        section.unlink()
    message = {
        "malformed": "malformed multi-section (TypeError: cube2.section.json: "
                     "degree must be an integer, got 2.0)",
        "missing": f"[Errno 2] No such file or directory: '{section}'",
    }[damage]
    for k in range(1, len(CHECK_ORDER) + 1):
        for subset in itertools.combinations(CHECK_ORDER, k):
            argv = ["validate", "--manifest", d / "cube2.manifest.json"]
            for check in subset:
                argv += ["--check", check]
            res = invoke(*argv)
            assert res.exit_code == EXIT_INVALID, subset
            if "validate" in subset:
                report = json.loads(res.stdout)
                assert [(r["check"], r["verdict"], r["witnesses"]) for r in report["checks"]] == [
                    ("validate", "fail", [message])], subset
                assert (report["exit_code"], res.stderr) == (EXIT_INVALID, ""), subset
            else:
                assert (res.stdout, res.stderr) == ("", f"error: {message}\n"), subset


def test_render_checks_the_gluing_data_its_manifest_names(workdir, tmp_path):
    def tamper(kind, data):
        if kind == "gluing":  # a nontrivial element into a 2-cell lift
            data["assignments"].append(
                {"flag": ["fx0.00a#0", "p000~0"], "element": [{"vec": [1, 0], "q": "3"}]})

    d = _edited_cube2(workdir, tmp_path, tamper)
    res = invoke("render", "--manifest", d / "cube2.manifest.json", "--layer", "base")
    assert res.exit_code == EXIT_INVALID
    assert res.stderr == (
        "error: gluing data invalid: ['gluing-cocycle-violation']; gluing-cocycle-violation: "
        "nontrivial element into a 2-cell lift at chain ('fx0.00a#0', 'ep000p001~0', 'p000~0')\n"
    )


@pytest.mark.parametrize(
    "case",
    ["gluing-validate", "gluing-obstruction", "k-zero-denominator",
     "cocycle-zero-denominator", "k-zero"],
)
def test_zero_rationals_exit_invalid(workdir, tmp_path, case):
    def zero_denominator(kind, data):
        if kind == "gluing" and case.startswith("gluing"):
            data["assignments"][0]["element"][0]["q"] = "1/0"

    d = _edited_cube2(workdir, tmp_path, zero_denominator)
    obstruction = (
        "obstruction", "--complex", d / "cube2.complex.json",
        "--section", d / "cube2.section.json", "--gluing", d / "cube2.gluing.json",
    )
    args = {
        "gluing-validate": ("validate", "--manifest", d / "cube2.manifest.json"),
        "gluing-obstruction": obstruction,
        "k-zero-denominator": obstruction + ("--k", "fx0.00a#0,ep000p001~0=1/0"),
        "cocycle-zero-denominator": ("verify-cocycle", "--m", 2, "--n", 1,
                                     "--a", "1/0", 1, 1),
        # a vertex-into-2-cell entry of the splitting table set to zero
        "k-zero": obstruction + ("--k", "fx0.00a#0,p000~0=0"),
    }[case]
    res = invoke(*args)
    assert res.exit_code == EXIT_INVALID
    if case == "gluing-validate":
        (rec,) = json.loads(res.stdout)["checks"]
        (message,) = rec["witnesses"]
        assert message.startswith("malformed gluing data (ZeroDivisionError")
    else:
        (message,) = res.stderr.splitlines()
        assert message.startswith("error: ")


def test_unexpected_exception_exits_internal(workdir, monkeypatch):
    def broken(msec):
        raise KeyError("lost")

    monkeypatch.setattr("tropms.covers.classify", broken)
    res = invoke("classify", "--section", workdir / "cube-o1.section.json")
    assert res.exit_code == EXIT_INTERNAL
    assert res.stderr == "internal error: 'lost'\n"


def test_classify(workdir):
    res = invoke("classify", "--section", workdir / "cube-o1.section.json")
    assert res.exit_code == EXIT_OK
    assert json.loads(res.stdout) == {"class": "S_mn", "pair": [1, 0]}


def test_verify_cocycle_reference_constants():
    res = invoke("verify-cocycle", "--m", 2, "--n", 1)
    assert res.exit_code == EXIT_OK
    data = json.loads(res.stdout)
    assert data["cocycle"] is True
    assert data["a"] == ["-1", "-1", "-1"]
    assert data["b"] == ["1", "1", "1"]


def test_verify_cocycle_explicit_constants():
    res = invoke(
        "verify-cocycle", "--m", 3, "--n", 1,
        "--a", "1/2", "-3", "4/5", "--b", "2", "1/3", "5/4",
    )
    assert json.loads(res.stdout)["cocycle"] is True
    # product of a_i b_i is +1, not -1: the identity genuinely fails
    res = invoke(
        "verify-cocycle", "--m", 3, "--n", 1,
        "--a", "1/2", "-3", "4/5", "--b", "2", "1/3", "-5/4",
    )
    assert json.loads(res.stdout)["cocycle"] is False


def test_verify_cocycle_rejects_equal_weights():
    res = invoke("verify-cocycle", "--m", 2, "--n", 2)
    assert res.exit_code == EXIT_INVALID


def test_chern():
    res = invoke("chern", "--m", 2, "--n", 1)
    assert res.exit_code == EXIT_OK
    assert json.loads(res.stdout) == {
        "total": "1 + 3H + 3H^2",
        "coefficients": [1, 3, 3],
        "discriminant": -3,
        "stability": "stable",
    }


def test_chern_broken_invariant_is_internal(monkeypatch):
    """A forgetful map that breaks the discriminant invariant is a fault of
    the program, not of its input: exit 3, not 2."""
    from tropms import chern

    monkeypatch.setattr(chern, "forgetful", lambda p: chern.CohomologyClass.of(0, 1, 0))
    res = invoke("chern", "--m", 2, "--n", 1)
    assert res.exit_code == EXIT_INTERNAL
    assert res.stderr.startswith("internal error: discriminant invariant violated")


def test_newton_lexicographic_points(tmp_path):
    path = tmp_path / "slopes.json"
    path.write_text(json.dumps({"slopes": [[0, 0], [1, 0], [0, 1]]}))
    res = invoke("newton", "--slopes", path)
    assert res.exit_code == EXIT_OK
    data = json.loads(res.stdout)
    assert data["lattice_points"] == [[0, 0], [0, 1], [1, 0]]
    assert data["vertices"] == [[0, 0], [1, 0], [0, 1]]


def test_newton_custom_fan(tmp_path):
    path = tmp_path / "slopes.json"
    path.write_text(
        json.dumps(
            {
                "rays": [[1, 0], [0, 1], [-1, -1]],
                "slopes": [[2, 2], [2, 2], [2, 2]],
            }
        )
    )
    res = invoke("newton", "--slopes", path)
    assert json.loads(res.stdout)["lattice_points"] == [[2, 2]]


def test_newton_rejects_discontinuous_slopes(tmp_path):
    path = tmp_path / "slopes.json"
    path.write_text(json.dumps({"slopes": [[0, 0], [2, 0], [1, 1]]}))
    res = invoke("newton", "--slopes", path)
    assert res.exit_code == EXIT_INVALID
    assert "discontinuous" in res.stderr


def test_newton_rejects_malformed_file(tmp_path):
    path = tmp_path / "slopes.json"
    path.write_text(json.dumps([[0, 0]]))
    res = invoke("newton", "--slopes", path)
    assert res.exit_code == EXIT_INVALID


def _obstruction(workdir, *extra):
    return invoke(
        "obstruction",
        "--complex", workdir / "cube-o1.complex.json",
        "--section", workdir / "cube-o1.section.json",
        "--gluing", workdir / "cube-o1.gluing.json",
        *extra,
    )


def test_obstruction_trivial_with_splitting(workdir):
    res = _obstruction(workdir)
    assert res.exit_code == EXIT_OK
    data = json.loads(res.stdout)
    assert data["trivial"] is True
    assert data["witness"] == "1"
    assert len(data["splitting"]) > 0
    assert all(re.match(r"^[^,]+,[^,]+$", k) for k in data["splitting"])


def test_obstruction_override_rechecked(workdir):
    base = json.loads(_obstruction(workdir).stdout)
    key, value = next(iter(base["splitting"].items()))
    res = _obstruction(workdir, "--k", f"{key}={value}")
    data = json.loads(res.stdout)
    assert data["consistent"] is True
    res = _obstruction(workdir, "--k", f"{key}=271/13")
    data = json.loads(res.stdout)
    assert data["consistent"] is False
    assert len(data["violations"]) > 0


def test_obstruction_override_unknown_entry(workdir):
    res = _obstruction(workdir, "--k", "never,seen=1")
    assert res.exit_code == EXIT_INVALID
    res = _obstruction(workdir, "--k", "malformed")
    assert res.exit_code == EXIT_INVALID


@pytest.mark.parametrize(
    "override", ["garbage", "a,b=1/0", "ep000p001~0,p000~0=0", "never,seen=1"],
    ids=["malformed", "division-by-zero", "zero", "unknown"],
)
def test_obstruction_bad_override_refused_whatever_the_class(workdir, override):
    # the obstructed gluing has no splitting table, yet the override is checked
    res = invoke(
        "obstruction",
        "--complex", workdir / "cube-o1.complex.json",
        "--section", workdir / "cube-o1.section.json",
        "--gluing", workdir / "obstructed.gluing.json",
        "--k", override,
    )
    assert res.exit_code == EXIT_INVALID, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")


def test_obstruction_nontrivial(workdir):
    res = invoke(
        "obstruction",
        "--complex", workdir / "cube-o1.complex.json",
        "--section", workdir / "cube-o1.section.json",
        "--gluing", workdir / "obstructed.gluing.json",
    )
    assert res.exit_code == EXIT_OK
    data = json.loads(res.stdout)
    assert data == {"trivial": False, "witness": "2"}


def test_simplicity_planted_exits_one(workdir):
    res = invoke("simplicity", "--section", workdir / "planted.section.json")
    assert res.exit_code == EXIT_NOT_SIMPLE
    data = json.loads(res.stdout)
    assert data["tag"] == "not_simple"
    assert data["witnesses"][0][1] == "p001"


def test_simplicity_rank3_refuses_without_assertion(workdir):
    res = invoke("simplicity", "--section", workdir / "rank3-cube.section.json")
    assert res.exit_code == EXIT_OK
    data = json.loads(res.stdout)
    assert data["tag"] == "refused"
    assert data["reasons"][0].startswith("[local-bundle-assumption]")


def test_simplicity_forced_rank2_on_degree3(workdir):
    res = invoke(
        "simplicity", "--section", workdir / "rank3-cube.section.json", "--rank2"
    )
    assert res.exit_code == EXIT_INVALID
    assert "class mismatch" in res.stderr


def test_simplicity_with_gluing_upgrade(workdir):
    res = invoke(
        "simplicity",
        "--section", workdir / "cube-o1.section.json",
        "--gluing", workdir / "cube-o1.gluing.json",
    )
    assert res.exit_code == EXIT_OK
    # the example section carries no asserted flags, so no upgrade: still simple
    assert json.loads(res.stdout)["tag"] == "simple"


def test_fiber_product_dump(workdir):
    res = invoke("fiber-product", "--section", workdir / "cube-o1.section.json")
    assert res.exit_code == EXIT_OK
    data = json.loads(res.stdout)
    assert data["counts"] == {"0": 84, "1": 288, "2": 104}
    first = data["cells"][0]
    assert first["dim"] == 0
    assert first["diagonal"] is True
    assert first["id"] == f"{first['a']}|{first['b']}"
    by_id = {c["id"]: c for c in data["cells"]}
    for cell in data["cells"]:
        assert all(f in by_id for f in cell["faces"])


def test_render_to_file_and_stdout(workdir, tmp_path):
    out = tmp_path / "base.svg"
    res = invoke(
        "render",
        "--manifest", workdir / "cube2.manifest.json",
        "--layer", "base",
        "--out", out,
    )
    assert res.exit_code == EXIT_OK
    assert res.stdout.strip() == str(out)
    doc = out.read_text()
    streamed = invoke(
        "render", "--manifest", workdir / "cube2.manifest.json", "--layer", "base"
    )
    assert streamed.stdout == doc


def test_render_base_glyph_counts(workdir):
    res = invoke(
        "render", "--manifest", workdir / "cube2.manifest.json", "--layer", "base"
    )
    doc = res.stdout
    assert doc.count('class="vertex"') == 48
    assert doc.count('class="singular"') == 8


def test_render_g0_empty_when_fully_branched(workdir):
    res = invoke(
        "render", "--manifest", workdir / "cube2.manifest.json", "--layer", "G0"
    )
    assert 'class="g0-' not in res.stdout


def test_render_cycles_highlights_planted_triangle(workdir):
    res = invoke(
        "render", "--manifest", workdir / "triangle.manifest.json", "--layer", "cycles"
    )
    polygons = re.findall(r'class="cycle" points="([^"]+)"', res.stdout)
    assert len(polygons) == 1
    assert len(polygons[0].split()) == 3


def test_render_cover_and_fiber_layers(workdir):
    res = invoke(
        "render", "--manifest", workdir / "cube-o1.manifest.json", "--layer", "cover"
    )
    assert 'class="branch"' in res.stdout
    assert 'class="lift"' in res.stdout
    res = invoke(
        "render", "--manifest", workdir / "cube-o1.manifest.json", "--layer", "fiber"
    )
    assert 'class="pair"' in res.stdout


def test_render_deterministic(workdir):
    args = ("render", "--manifest", workdir / "cube2.manifest.json", "--layer", "base")
    first = invoke(*args).stdout
    assert invoke(*args).stdout == first


def test_render_rejects_unknown_layer(workdir):
    res = invoke(
        "render", "--manifest", workdir / "cube2.manifest.json", "--layer", "shadow"
    )
    assert res.exit_code != EXIT_OK


def test_render_refuses_base_that_is_not_a_sphere():
    torus = triangulated_torus()
    assert validate_surface(torus) == ()
    with pytest.raises(ValueError, match="chi = 0"):
        _layout(torus)


def _modules_loaded(code: str, *argv, cwd=None) -> set[str]:
    """Names in ``sys.modules`` once a fresh interpreter has run ``code``
    with ``argv`` as its arguments."""
    src = str(Path(tropms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys\ntry:\n    {code}\nfinally:\n    sys.stderr.write(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True)
    return set(out.stderr.split())


def test_cli_import_loads_no_third_party_module():
    """Every command is a fresh process, so all that `tropms.cli` imports is
    paid on each run; compared against a bare interpreter, whose site hooks
    may load packages of their own."""

    def top_level(names):
        return {name.partition(".")[0] for name in names}

    extra = top_level(_modules_loaded("import tropms.cli")) - top_level(_modules_loaded("pass"))
    assert extra - set(sys.stdlib_module_names) <= {"tropms"}


# The tropms modules a `validate` child loads, and their source lines, at
# most: every child compiles them, so code added to the verdict path shows here.
VALIDATE_SOURCE = {"cube2.manifest.json": (12, 3459), "rank3-cube.manifest.json": (9, 2485),
                   "rotated.manifest.json": (12, 3459)}
# The same for a `chern` child: cli, __init__, chern, laurent and lattice.
CHERN_SOURCE = (5, 969)
# The same for a `verify-cocycle` child: cli, __init__ and laurent.
COCYCLE_SOURCE = (3, 583)


@pytest.mark.parametrize(
    "argv, ran, absent",
    [
        (("validate", "--manifest", "cube2.manifest.json"), "tropms.pipeline",
         {"click", "dataclasses", "inspect", "tropms.certificate", "tropms.generators",
          "tropms.svg", "tropms.writer"}),
        (("chern", "--m", "2", "--n", "1"), "tropms.chern",
         {"tropms.covers", "tropms.gluing", "tropms.pipeline", "tropms.writer"}),
        (("verify-cocycle", "--m", "3", "--n", "1"), "tropms.laurent",
         {"tropms.chern", "tropms.lattice", "tropms.covers", "tropms.pipeline",
          "tropms.writer"}),
        (("classify", "--section", "cube2.section.json"), "tropms.covers",
         {"tropms.certificate", "tropms.gluing", "tropms.graphs", "tropms.chern",
          "tropms.pipeline", "tropms.writer"}),
        (("validate", "--manifest", "rank3-cube.manifest.json"), "tropms.graphs",
         {"tropms.certificate", "tropms.gluing", "tropms.chern", "tropms.laurent",
          "tropms.writer"}),
        (("validate", "--manifest", "rotated.manifest.json"), "tropms.pipeline",
         {"tropms.certificate", "tropms.generators", "tropms.svg", "tropms.writer"}),
        (("obstruction", "--complex", "cube2.complex.json", "--section", "cube2.section.json",
          "--gluing", "cube2.gluing.json"), "tropms.gluing",
         {"tropms.certificate", "tropms.graphs", "tropms.chern", "tropms.pipeline",
          "tropms.writer"}),
        (("fiber-product", "--section", "cube2.section.json"), "tropms.graphs",
         {"tropms.certificate", "tropms.gluing", "tropms.chern", "tropms.laurent",
          "tropms.pipeline", "tropms.writer"}),
        (("simplicity", "--section", "planted.section.json"), "tropms.graphs",
         {"tropms.certificate", "tropms.gluing", "tropms.laurent", "tropms.writer"}),
        (("render", "--manifest", "planted.manifest.json", "--layer", "cycles"), "tropms.svg",
         {"tropms.certificate", "tropms.gluing", "tropms.writer"}),
        (("render", "--manifest", "planted.manifest.json", "--layer", "fiber"), "tropms.chern",
         {"tropms.certificate", "tropms.gluing", "tropms.writer"}),
        (("example", "cube2", "--outdir", "written"), "tropms.writer",
         {"tropms.chern", "tropms.laurent", "tropms.svg"}),
    ],
    ids=["validate", "chern", "verify-cocycle", "classify", "validate-class-C", "validate-differing-complex",
         "obstruction", "fiber-product", "simplicity", "render", "render-fiber", "example"],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, ran, absent):
    """A command imports the modules it runs and no others: beyond a bare
    interpreter, a child pays for compiling and executing each of them. A
    complex file that differs from the section's embedded complex only in
    where a boundary cycle starts is parsed and compared without the writer."""
    cube2 = generate_example("cube2", str(tmp_path))
    doc = json.loads((tmp_path / "cube2.complex.json").read_text(encoding="utf-8"))
    cycle = doc["orientation"][0]["cycle"]
    cycle.append(cycle.pop(0))
    (tmp_path / "rotated.complex.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "rotated.manifest.json").write_text(manifest_to_text(
        cube2._replace(complex_path="rotated.complex.json")), encoding="utf-8")
    generate_example("rank3-cube", str(tmp_path))
    planted = planted_multisection()
    (tmp_path / "planted.section.json").write_text(
        multisection_to_text(planted), encoding="utf-8"
    )
    (tmp_path / "planted.complex.json").write_text(
        complex_to_text(planted.cover.base), encoding="utf-8"
    )
    (tmp_path / "planted.manifest.json").write_text(manifest_to_text(
        Manifest("planted.complex.json", "planted.section.json", None, {})), encoding="utf-8")
    loaded = _modules_loaded("from tropms.cli import main; main(sys.argv[1:])",
                             *argv, cwd=tmp_path)
    extra = loaded - _modules_loaded("pass")
    assert ran in extra
    assert not extra & absent
    if argv[0] in ("validate", "chern", "verify-cocycle"):
        ours = [name.partition(".")[2] or "__init__" for name in extra
                if name.partition(".")[0] == "tropms"]
        package = Path(tropms.__file__).parent
        lines = sum(len((package / f"{name}.py").read_text(encoding="utf-8").splitlines())
                    for name in ours)
        modules, bound = (VALIDATE_SOURCE[argv[2]] if argv[0] == "validate"
                          else CHERN_SOURCE if argv[0] == "chern" else COCYCLE_SOURCE)
        assert len(ours) <= modules and lines <= bound, (sorted(ours), lines)
