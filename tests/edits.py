"""Schema-preserving edits of a decoded JSON input document, as a Hypothesis
strategy: each keeps every value's JSON type, so that most edited documents
still read and the checks behind the reader see them.

An edit does one of three things. It replaces an id with another id of the
same document, shifts an integer by one or two either way, or deletes or
duplicates an entry of a list. Ids are the strings under the fields that
name cells and lifts; the fixed-length pairs of the formats (a vector, a
cone's two ray positions, a flag) keep their length. An edited document is
a new one that shares every value off the edited path with the original.
"""

from hypothesis import strategies as st

ID_FIELDS = frozenset({"id", "faces", "vertex", "edge", "face2", "cycle", "vertex_lift",
                       "branch", "flag"})
PAIRS = frozenset({"vec", "rays", "slope", "flag"})  # a list under one of these may be a pair


def _places(doc, path=(), field=None):
    """Every value in a document: (path, value, the field it sits under)."""
    yield path, doc, field
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _places(value, path + (key,), key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _places(value, path + (i,), field)


def _is_pair(value, field) -> bool:
    return field in PAIRS and len(value) == 2 and not isinstance(value[0], dict)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, change):
    """``doc`` with the value at ``path`` replaced by ``change(value)``."""
    if not path:
        return change(doc)
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], change)
    return out


def edits(doc):
    """A strategy of (a copy of ``doc`` with one edit, a line saying which)."""
    places = list(_places(doc))
    ids = sorted({v for _, v, f in places if type(v) is str and f in ID_FIELDS})
    where = {
        "id": [p for p, v, f in places if type(v) is str and f in ID_FIELDS and len(ids) > 1],
        "int": [p for p, v, _ in places if type(v) is int],
        "list": [p for p, v, f in places if type(v) is list and v and not _is_pair(v, f)],
    }
    kinds = [kind for kind in sorted(where) if where[kind]]

    @st.composite
    def edit(draw):
        kind = draw(st.sampled_from(kinds))
        path = draw(st.sampled_from(where[kind]))
        old = _at(doc, path)
        if kind == "id":
            new = draw(st.sampled_from(ids).filter(lambda x: x != old))
            return _replaced(doc, path, lambda _: new), f"{path}: {old!r} -> {new!r}"
        if kind == "int":
            step = draw(st.sampled_from((-2, -1, 1, 2)))
            return _replaced(doc, path, lambda _: old + step), f"{path}: {old} {step:+d}"
        i, drop = draw(st.integers(0, len(old) - 1)), draw(st.booleans())
        new = old[:i] + old[i + 1:] if drop else old[:i + 1] + old[i:]
        what = "deleted" if drop else "duplicated"
        return _replaced(doc, path, lambda _: new), f"{path}[{i}] {what}"

    return edit()
