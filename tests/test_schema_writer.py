"""The table-driven writer of every input format, checked against ``json``
in the style of MacIver et al., "Hypothesis: A new approach to
property-based testing", JOSS 2019.

Values are drawn for every table from its own field types: ids with
non-ASCII characters, quotes, backslashes, line breaks, U+2028 and control
characters; empty and absent optional lists; negative ints and ints above
2**63; rationals. ``Document.text`` must write exactly what ``json.dumps``
with sorted keys and a two-space indent writes for the same document, and
reading the text back must return the values, with the defaults in place of
the fields given as None. The section's embedded complex is drawn the same
way, so its ids are as hostile as the section's own.

The cases are derandomized and their number is fixed (100 per table). Their
budget is 10 s in all; they take about 5 s on a shared 2-vCPU VM. One more,
deterministic case writes every table with strings that would break a
``%`` or ``format`` template built from them, and ints of 2**70.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropms import schema

CASES = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

IDS = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\u2028\x00\x1f\x7fé𝕃')),
              max_size=6)
INTS = st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**90),
                 st.integers(max_value=-(2**63)))
LEAVES = {schema.INT: INTS, schema.STR: IDS, schema.PATH: IDS,
          schema.VEC: st.tuples(INTS, INTS), schema.FLAG: st.tuples(IDS, IDS),
          schema.RATIONAL: st.fractions(), schema.FLAGS: st.dictionaries(IDS, st.booleans())}


def values(kind):
    """Values of one field type, as the writers build them."""
    if isinstance(kind, schema.Record):
        return st.tuples(*(
            values(k) if default is schema._REQUIRED else st.one_of(st.none(), values(k))
            for _, k, default, _ in kind.fields))
    if isinstance(kind, schema.List):
        return st.lists(values(kind.item), max_size=3).map(tuple)
    if kind is schema.OBJECT:  # the section's embedded complex, as its text
        return values(schema.COMPLEX).map(schema.COMPLEX.text)
    return LEAVES[kind]


def expected(kind, value):
    """What reading back the text of ``value`` returns."""
    if isinstance(kind, schema.Record):
        return tuple(default if v is None else expected(k, v)
                     for (_, k, default, _), v in zip(kind.fields, value))
    if isinstance(kind, schema.List):
        return tuple(expected(kind.item, x) for x in value)
    return json.loads(value) if kind is schema.OBJECT else value


DOCUMENTS = {"complex": schema.COMPLEX, "section": schema.MULTISECTION,
             "gluing": schema.GLUING, "manifest": schema.MANIFEST, "slopes": schema.NEWTON}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_text_is_canonical_json_and_reads_back(name):
    doc = DOCUMENTS[name]

    @CASES
    @given(values(doc))
    def check(value):
        text = doc.text(value)
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert doc.parse(json.loads(text), lambda *fields: fields) == expected(doc, value)

    check()


def test_embedded_complex_keeps_a_hostile_id():
    cid = 'v"\\\n\u2028\x01𝕃'
    complex_text = schema.COMPLEX.text((((cid, 0, None, ()),), None, None, None))
    text = schema.MULTISECTION.text((complex_text, 1, "", None, (), (cid,), (), ()))
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    back = schema.MULTISECTION.parse(json.loads(text), lambda *fields: fields)
    assert back[0]["cells"] == [{"dim": 0, "id": cid, "singular": []}]
    assert back[5] == (cid,)


HOSTILE = "%s %% %(a)d {} {0} \\ \u2028 "  # would break a template that held it
BIG = 2**70


def hostile(kind, n=0):
    """A value of ``kind`` whose strings hold HOSTILE and whose ints are
    about ±2**70, and the JSON it stands for. A record at an odd ``n``
    leaves its optional fields out."""
    if isinstance(kind, schema.Record):
        out = [(name, None if n % 2 and default is not schema._REQUIRED else hostile(k, i))
               for i, (name, k, default, _) in enumerate(kind.fields)]
        return (tuple(pair and pair[0] for _, pair in out),
                {name: pair[1] for name, pair in out if pair is not None})
    if isinstance(kind, schema.List):
        pairs = [hostile(kind.item, i) for i in range(2)]
        return tuple(v for v, _ in pairs), [doc for _, doc in pairs]
    if kind is schema.OBJECT:
        value, doc = hostile(schema.COMPLEX)
        return schema.COMPLEX.text(value), {**doc, "schema": schema.COMPLEX.schema}
    text, big = f"{HOSTILE}{n}", (-1) ** n * (BIG + n)
    if kind is schema.RATIONAL:
        q = Fraction(big, 3)
        return q, f"{q.numerator}/{q.denominator}"
    leaves = {schema.INT: (big, big), schema.STR: (text, text), schema.PATH: (text, text),
              schema.VEC: ((big, -big), [big, -big]),
              schema.FLAG: ((text, text + "!"), [text, text + "!"]),
              schema.FLAGS: ({text: True, "%(a)d": False},) * 2}
    return leaves[kind]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_text_of_template_syntax_and_huge_ints_is_json(name):
    doc = DOCUMENTS[name]
    value, expected_doc = hostile(doc)
    if doc.schema:
        expected_doc["schema"] = doc.schema
    assert doc.text(value) == json.dumps(expected_doc, indent=2, sort_keys=True) + "\n"
