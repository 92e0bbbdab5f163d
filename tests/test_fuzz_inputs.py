"""Fuzzing of every input format through the command line, in the style of
MacIver et al., "Hypothesis: A new approach to property-based testing",
JOSS 2019.

Each case changes one place in one input file of a bundled example, or in a
`newton` slopes file: it drops a key, changes a value to another JSON type,
truncates or duplicates a list, or inserts an unknown key. It then runs
`tropms validate` on the example's manifest (or `tropms newton` on the slopes
file) in this process. Every run must exit 0, 1 or 2, never 3, and print at
most one line to stderr and no traceback. A change that breaks the schema
must be reported as malformed input, with the JSON path of the change.

The cases are derandomized and their number is fixed (50 per test). Their
budget is 10 s in all; they take about 7 s on a shared 2-vCPU VM.
"""

import copy
import json

import pytest
from conftest import run_cli
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropms.generators import generate_example

EXAMPLES = ("simplex5", "cube2", "cube-o1", "rank3-cube")
KINDS = ("manifest", "complex", "section", "gluing")
SLOPES = {"slopes": [[0, 0], [1, 0], [0, 1]], "rays": [[-1, 0], [0, -1], [1, 1]]}
# one value of each JSON type
VALUES = (7, 0.5, "x", True, None, [], {})
FUZZ = settings(max_examples=50, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def examples(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name in EXAMPLES:
        generate_example(name, str(root / name))
    return root


def _places(doc, path=()):
    """Every place in a JSON document: (path, value)."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _places(value, path + (key,))


def _render(path) -> str:
    text = "".join(f".{k}" if isinstance(k, str) and k.isidentifier() else f"[{k!r}]"
                   for k in path)
    return text.removeprefix(".") or "document"


@st.composite
def mutations(draw, doc):
    """A changed copy of ``doc``; whether the change must break its schema;
    and the path the error must name."""
    doc = copy.deepcopy(doc)
    places = list(_places(doc))
    objects = [(p, v) for p, v in places if isinstance(v, dict)]
    lists = [(p, v) for p, v in places if isinstance(v, list) and v]
    kinds = ["type", "insert"] + ["drop"] * any(obj for _, obj in objects)
    kinds += ["truncate", "duplicate"] * bool(lists)
    kind = draw(st.sampled_from(kinds))

    def at(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    def put(path, value):
        if not path:
            return value
        at(path[:-1])[path[-1]] = value
        return doc

    if kind == "type":
        path, old = draw(st.sampled_from(places))
        new = draw(st.sampled_from([v for v in VALUES if type(v) is not type(old)]))
        return put(path, copy.deepcopy(new)), True, path
    if kind == "insert":
        path, _ = draw(st.sampled_from(objects))
        at(path)["zz_unknown"] = 1
        return doc, True, path + ("zz_unknown",)
    if kind == "drop":
        path, obj = draw(st.sampled_from([(p, v) for p, v in objects if v]))
        key = draw(st.sampled_from(sorted(obj)))
        del obj[key]
        return doc, False, path + (key,)
    path, items = draw(st.sampled_from(lists))
    if kind == "truncate":
        del items[draw(st.integers(0, len(items) - 1)):]
    else:
        items.append(copy.deepcopy(items[draw(st.integers(0, len(items) - 1))]))
    return doc, False, path


def _check(res, breaks: bool, path) -> None:
    assert res.exit_code in (0, 1, 2), res.output
    assert len(res.stderr.splitlines()) <= 1, res.stderr
    assert "Traceback" not in res.output
    if breaks or "malformed" in res.output:
        assert "malformed" in res.output, res.output
        assert _render(path) in res.output, res.output


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_input_file_is_rejected_with_its_path(examples, kind):
    names = [n for n in EXAMPLES if (examples / n / f"{n}.{kind}.json").exists()]

    @FUZZ
    @given(data=st.data())
    def run(data):
        name = data.draw(st.sampled_from(names))
        path = examples / name / f"{name}.{kind}.json"
        original = path.read_text()
        doc, breaks, where = data.draw(mutations(json.loads(original)))
        path.write_text(json.dumps(doc))
        try:
            res = run_cli(["validate", "--manifest", examples / name / f"{name}.manifest.json"])
        finally:
            path.write_text(original)
        _check(res, breaks, where)

    run()


@FUZZ
@given(data=st.data())
def test_mutated_slopes_file_is_rejected_with_its_path(tmp_path_factory, data):
    doc, breaks, where = data.draw(mutations(SLOPES))
    path = tmp_path_factory.mktemp("newton") / "slopes.json"
    path.write_text(json.dumps(doc))
    _check(run_cli(["newton", "--slopes", path]), breaks, where)
