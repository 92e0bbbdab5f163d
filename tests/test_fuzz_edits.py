"""No schema-preserving edit of an input file ends in an internal error.

Each case applies one edit of ``edits.py`` (an id replaced by another id of
the same document, an integer shifted by one or two, a list entry deleted
or duplicated) to the section, complex or gluing file of a bundled example.
It then runs those of `validate`, `classify`, `simplicity`,
`fiber-product`, `render` and `obstruction` that read the edited file on the
example, in this process: all six for a section, four for gluing data and
three for a complex. Each must exit 0, 1 or 2, never 3, and print at most
one line to stderr and no traceback.
rank3-cube has no gluing data, so its `obstruction` reads an empty gluing
file.

The cases are derandomized and their number is fixed: 25 per example.
Budget: 8 s in all; they take about 5 s, and 6 to 8 s under
`python -X dev`, on a shared 2-vCPU VM, most of it in reading the bundle.
"""

import json

import pytest
from conftest import run_cli
from edits import edits
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropms.generators import EXAMPLES, generate_example
from tropms.svg import LAYERS

EMPTY_GLUING = {"schema": "gluing/v1", "assignments": []}


@pytest.fixture(scope="module")
def examples(tmp_path_factory):
    root = tmp_path_factory.mktemp("edits")
    for name in EXAMPLES:
        generate_example(name, str(root / name))
    (root / "empty.gluing.json").write_text(json.dumps(EMPTY_GLUING))
    return root


def _commands(files, layer):
    """Each command, with the input files it reads."""
    section, gluing = files["section"], files["gluing"]
    return [
        (["validate", "--manifest", files["manifest"]], {"section", "complex", "gluing"}),
        (["classify", "--section", section], {"section"}),
        (["simplicity", "--section", section, "--gluing", gluing], {"section", "gluing"}),
        (["fiber-product", "--section", section], {"section"}),
        (["render", "--manifest", files["manifest"], "--layer", layer],
         {"section", "complex", "gluing"}),
        (["obstruction", "--complex", files["complex"], "--section", section, "--gluing", gluing],
         {"section", "complex", "gluing"}),
    ]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_no_edit_ends_in_an_internal_error(examples, name):
    files = {kind: examples / name / f"{name}.{kind}.json"
             for kind in ("manifest", "section", "complex", "gluing")}
    if not files["gluing"].exists():
        files["gluing"] = examples / "empty.gluing.json"
    originals = {kind: files[kind].read_text() for kind in ("section", "complex", "gluing")
                 if files[kind].parent.name == name}
    strategies = {kind: edits(json.loads(text)) for kind, text in originals.items()}

    @settings(max_examples=25, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def run(data):
        kind = data.draw(st.sampled_from(sorted(strategies)))
        doc, what = data.draw(strategies[kind])
        layer = data.draw(st.sampled_from(LAYERS))
        files[kind].write_text(json.dumps(doc))
        try:
            for argv, reads in _commands(files, layer):
                if kind not in reads:  # it would repeat its run on the unedited example
                    continue
                res = run_cli(argv)
                assert res.exit_code in (0, 1, 2), (kind, what, argv[0], res.output)
                assert len(res.stderr.splitlines()) <= 1, (kind, what, argv[0], res.stderr)
                assert "Traceback" not in res.output, (kind, what, argv[0])
        finally:
            files[kind].write_text(originals[kind])

    run()
