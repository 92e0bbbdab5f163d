"""End-to-end checks of the command-line front end and the SVG renderer."""

import json
import re

import pytest
from click.testing import CliRunner

from tropms.cli import main
from tropms.complexes import complex_to_text
from tropms.covers import multisection_to_text
from tropms.generators import (
    planted_multisection,
    planted_triangle_multisection,
)
from tropms.gluing import TorusElement, gluing_to_text
from tropms.pipeline import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NOT_SIMPLE,
    EXIT_OK,
    Manifest,
    manifest_to_text,
)

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(main, [str(a) for a in args], env=env)


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


def test_unexpected_exception_exits_internal(workdir, monkeypatch):
    def broken(msec):
        raise KeyError("lost")

    monkeypatch.setattr("tropms.cli.classify_section", broken)
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


def test_render_deterministic_and_seed_sensitive(workdir):
    args = ("render", "--manifest", workdir / "cube2.manifest.json", "--layer", "base")
    first = invoke(*args).stdout
    assert invoke(*args).stdout == first
    assert invoke(*args, env={"TOOL_SEED": "90"}).stdout != first


def test_render_rejects_unknown_layer(workdir):
    res = invoke(
        "render", "--manifest", workdir / "cube2.manifest.json", "--layer", "shadow"
    )
    assert res.exit_code != EXIT_OK
