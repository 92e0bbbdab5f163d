"""Differential tests of the validators against the references in
``reference.py``, written from the glossary: on every input, the set of codes
``validate_surface`` reports must equal the set ``surface_codes`` computes,
and the set ``validate_multisection`` reports the union of that and
``section_codes``.

The surface inputs are every example base, the surface cases of
``test_input_diagnostics.py``, and schema-preserving edits (``edits.py``) of
the cube2 and rank3-cube complexes. The section inputs are every example
section, the cover and section cases of ``test_input_diagnostics.py``, the
surface cases applied to a section's embedded complex, a disconnected cover
and an unramified branch point, which no other case reaches, and edits of
the cube2, cube-o1 and rank3-cube sections that leave their embedded
complex as it is. The edits are derandomized and their number is fixed:
300 of each kind that still read are checked, and an edit the reader
refuses (a duplicated id) is drawn again. Budget: 5 s for
each kind of edit; under ``-X dev`` on a shared 2-vCPU VM the complex edits
take about 1.5 s and the section edits about 3 s.
"""

import json

import pytest
from conftest import two_sheet_cover
from edits import edits
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from reference import section_codes, surface_codes
from test_input_diagnostics import CASES

from tropms import generators
from tropms.complexes import complex_to_text, parse_complex, validate_surface
from tropms.covers import multisection_to_text, parse_multisection, validate_multisection
from tropms.schema import Malformed

BASES = {
    "cube2": generators.cube2_base,
    "simplex5": generators.simplex5_base,
    "rank3-cube": generators.rank3_base,
}

DOCS = {name: json.loads(complex_to_text(build())) for name, build in BASES.items()}


def _codes(doc) -> set[str]:
    return {d.code for d in validate_surface(parse_complex(doc))}


@pytest.mark.parametrize("name", sorted(BASES))
def test_reference_passes_every_example_base(name):
    assert surface_codes(DOCS[name]) == _codes(DOCS[name]) == set()


# the cases of the glossary's complex-structure family; the others edit the
# cover, the slopes or the gluing data
SURFACE_CASES = sorted(case for case in CASES if case.startswith(
    ("cell-", "missing-", "face-", "edge-endpoints", "orientation-", "euler-", "fan-")))


@pytest.mark.parametrize("case", SURFACE_CASES)
def test_reference_agrees_on_the_input_diagnostics(case):
    doc = {"complex": json.loads(json.dumps(DOCS["cube2"]))}
    CASES[case][1](doc)
    assert case in surface_codes(doc["complex"])
    assert surface_codes(doc["complex"]) == _codes(doc["complex"])


def test_the_surface_cases_edit_only_the_complex():
    assert len(SURFACE_CASES) == 12
    for case in SURFACE_CASES:
        CASES[case][1]({"complex": json.loads(json.dumps(DOCS["cube2"]))})  # reads no other key


EDITS = {name: edits(DOCS[name]) for name in ("cube2", "rank3-cube")}


def test_reference_agrees_on_edited_complexes():
    read = []

    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data())
    def run(data):
        name = data.draw(st.sampled_from(sorted(EDITS)))
        doc, what = data.draw(EDITS[name])
        try:
            surface = parse_complex(doc)
        except Malformed:
            reject()  # a duplicated id: the edit is not counted
        read.append(what)
        want = surface_codes(doc)
        assert {d.code for d in validate_surface(surface)} == want, (name, what)

    run()
    assert len(read) >= 300, len(read)


# -- the cover-structure and section-data families ------------------------------

SECTIONS = {name: json.loads(multisection_to_text(build()))
            for name, (build, _) in generators.EXAMPLES.items()}


def _section_codes(doc) -> set[str]:
    return {d.code for d in validate_multisection(parse_multisection(doc))}


def _reference(doc) -> set[str]:
    return surface_codes(doc["complex"]) | section_codes(doc)


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_reference_passes_every_example_section(name):
    assert _reference(SECTIONS[name]) == _section_codes(SECTIONS[name]) == set()


COVER_CASES = sorted(case for case in CASES if case.startswith(
    ("cover-", "edge-matching", "branch-", "ramification-", "lift-", "slope-")))


@pytest.mark.parametrize("case", COVER_CASES)
def test_reference_agrees_on_the_cover_and_section_diagnostics(case):
    doc = json.loads(json.dumps(SECTIONS["cube2"]))
    CASES[case][1](doc)
    assert case in section_codes(doc)
    assert _reference(doc) == _section_codes(doc)


@pytest.mark.parametrize("case", SURFACE_CASES)
def test_reference_agrees_on_sections_over_a_faulty_base(case):
    doc = json.loads(json.dumps(SECTIONS["cube2"]))
    CASES[case][1](doc)
    assert case in surface_codes(doc["complex"])
    assert _reference(doc) == _section_codes(doc)


def test_the_cover_cases_are_those_of_the_two_families():
    assert COVER_CASES == ["branch-not-vertex", "cover-degree", "edge-matching",
                           "ramification-mismatch", "slope-coverage"]


# the sections without their embedded complex, which every edit leaves as it is
SECTION_EDITS = {name: edits({k: v for k, v in SECTIONS[name].items() if k != "complex"})
                 for name in ("cube2", "cube-o1", "rank3-cube")}


def test_reference_agrees_on_edited_sections():
    read = []

    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data())
    def run(data):
        name = data.draw(st.sampled_from(sorted(SECTION_EDITS)))
        doc, what = data.draw(SECTION_EDITS[name])
        doc = dict(doc, complex=SECTIONS[name]["complex"])
        try:
            msec = parse_multisection(doc)
        except Malformed:
            reject()  # a duplicated id or entry: the edit is not counted
        read.append(what)
        want = section_codes(doc)  # the embedded complex is valid
        assert {d.code for d in validate_multisection(msec)} == want, (name, what)

    run()
    assert len(read) >= 300, len(read)


def _unramified_branch_point():
    """cube-o1 with one of its unramified vertices declared a branch point."""
    doc = json.loads(json.dumps(SECTIONS["cube-o1"]))
    vertices = sorted(c["id"] for c in doc["complex"]["cells"] if c["dim"] == 0)
    doc["branch"].append(next(v for v in vertices if v not in doc["branch"]))
    return doc


# codes that no case above reaches, each on an input that breaks it alone
FIXED = {
    "cover-disconnected": lambda: json.loads(multisection_to_text(two_sheet_cover())),
    "trivial-branch-vertex": _unramified_branch_point,
}


@pytest.mark.parametrize("code", sorted(FIXED))
def test_reference_agrees_where_the_edits_do_not_reach(code):
    doc = FIXED[code]()
    assert _reference(doc) == _section_codes(doc) == {code}
