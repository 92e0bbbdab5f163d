"""Differential tests of the surface validator against the reference in
``reference.py``, written from the glossary: on every input, the set of codes
``validate_surface`` reports must equal the set the reference computes.

The inputs are every example base, the surface cases of
``test_input_diagnostics.py``, and schema-preserving edits (``edits.py``) of
the cube2 and rank3-cube complexes. The edits are derandomized and their
number is fixed: 300 that still read as a complex are checked, and an edit
the reader refuses (a duplicated id) is drawn again. Budget: 5 s in all;
they take about 2 s on a shared 2-vCPU VM.
"""

import json

import pytest
from edits import edits
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from reference import surface_codes
from test_input_diagnostics import CASES

from tropms import generators
from tropms.complexes import complex_to_text, parse_complex, validate_surface
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
