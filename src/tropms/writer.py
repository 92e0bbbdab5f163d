"""The canonical text of every input format, written from its schema table.

``text(doc, values)`` writes the field values of a document, a tuple in
table order, as ``json.dumps(..., indent=2, sort_keys=True)`` writes the
JSON object, leaving out the fields given as None; the section's embedded
complex arrives as its own text and is indented one level deeper. Each
document is compiled once, the way ``collections.namedtuple`` builds
``__new__``: its table becomes Python source, one function per nested type
and indentation depth, run with ``exec``. A record whose fields are all
required is one ``%`` template, with ints as ``%d`` slots and strings
quoted by ``encode_basestring_ascii``; a record with an optional field is
a list of the texts of the fields present, joined; a list of ints or
strings is one ``join``, and a list of fixed-shape records one
comprehension. Flags, rationals, lists of lists and the embedded complex
are written by closures. The source holds only field names and separators
from the tables; every value reaches it as an argument.

``schema.Document.text`` imports this module on its first call, and of the
commands only ``example`` calls it: ``bundle.load`` compares a named complex
whose tables differ from the section's base through
``complexes.canonical``, the values written here, without writing either.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from .schema import _REQUIRED, STR, Document, Flags, Leaf, List, Pair, Rational, Record


def text(doc: Document, values) -> str:
    """The canonical text of a document with these field values."""
    return _compile(doc)((*values, doc.schema) if doc.schema else values) + "\n"


@cache
def _compile(doc: Document) -> Callable:
    src = _Source()
    fields = doc.fields + [("schema", STR, _REQUIRED)] if doc.schema else doc.fields
    name = src.record(fields, 0)
    exec(compile("\n".join(src.lines), f"<writer of {doc.kind}>", "exec"), src.names)
    return src.names[name]


def _pad(depth: int) -> str:
    return "\n" + "  " * depth


def _edges(brackets: str, depth: int) -> tuple[str, str, str]:
    """The opening, the separator and the closing of a container at
    ``depth`` that holds one item to a line."""
    inner = _pad(depth + 1)
    return brackets[0] + inner, "," + inner, _pad(depth) + brackets[1]


def _form(brackets: str, depth: int, items: list[str]) -> str:
    """A container at ``depth`` holding ``items``; without items, ``brackets``."""
    head, sep, tail = _edges(brackets, depth)
    return head + sep.join(items) + tail if items else brackets


def _key(name: str) -> str:
    """The template of an object key and its colon."""
    return _quote(name).replace("%", "%%") + ": "


def _fill(form: str, args: list[str]) -> str:
    """The source of a template filled with the values of ``args``."""
    return f"{form!r} % ({''.join(arg + ', ' for arg in args)})"


def _scalar(kind) -> str | None:
    """The writer of a leaf written as it is read: an int or a string."""
    return {int: "_int", str: "_q"}.get(kind.exact) if type(kind) is Leaf else None


def _fixed(kind) -> bool:
    """Whether every value of ``kind`` has the same keys: one template."""
    return type(kind) is Pair or (
        type(kind) is Record and all(default is _REQUIRED for _, _, default, _ in kind.fields))


def _rational(q) -> str:
    return f'"{q.numerator}/{q.denominator}"'


def _flags(depth: int) -> Callable:
    return lambda flags: _form("{}", depth, [
        _quote(name) + (": true" if flags[name] else ": false") for name in sorted(flags)])


def _embedded(depth: int) -> Callable:
    """The writer of a document held at ``depth`` of another, from its own
    canonical text, which holds no raw line break inside a string."""
    pad = _pad(depth)
    return lambda inner: inner.rstrip("\n").replace("\n", pad)


class _Source:
    """The source of one document's writer, one definition at a time, and
    the names it runs with."""

    def __init__(self):
        self.lines: list[str] = []
        self.names = {"_q": _quote, "_int": int.__repr__}
        self.defined: dict[tuple, str] = {}  # (type, depth): the name of its writer
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def slots(self, kind, depth: int) -> tuple[str, list[str], str]:
        """The template of a value of ``kind`` at ``depth``, the source of
        its slots' values, and the target that unpacks the value into the
        names they read."""
        if not _fixed(kind):
            name = self.fresh("v")
            if _scalar(kind) == "_int":
                return "%d", [name], name
            return "%s", [self.expr(kind, depth, name)], name
        if type(kind) is Pair:
            (a, x, s), (b, y, t) = (self.slots(kind.item, depth + 1) for _ in range(2))
            return _form("[]", depth, [a, b]), x + y, f"({s}, {t})"
        parts = [self.slots(k, depth + 1) for _, k, _, _ in kind.fields]
        order = sorted(range(len(parts)), key=lambda i: kind.fields[i][0])
        form = _form("{}", depth, [_key(kind.fields[i][0]) + parts[i][0] for i in order])
        target = "(" + "".join(part[2] + ", " for part in parts) + ")"
        return form, [arg for i in order for arg in parts[i][1]], target

    def expr(self, kind, depth: int, value: str) -> str:
        """The source of the text of ``value``, a name, of ``kind`` at ``depth``."""
        if _scalar(kind):
            return f"{_scalar(kind)}({value})"
        if type(kind) is not List:
            return f"{self.define(kind, depth)}({value})"
        item, body = kind.item, self.fresh("b")
        if _scalar(item):
            items = f"map({_scalar(item)}, {value})"
        elif _fixed(item):
            form, args, target = self.slots(item, depth + 1)
            items = f"[{_fill(form, args)} for {target} in {value}]"
        else:
            items = f"map({self.define(item, depth + 1)}, {value})"
        head, sep, tail = _edges("[]", depth)
        return f"({head!r} + {body} + {tail!r} if ({body} := {sep!r}.join({items})) else '[]')"

    def define(self, kind, depth: int) -> str:
        """The name of the writer of ``kind`` at ``depth``, defined once."""
        key = (kind, depth)
        if key not in self.defined:
            if type(kind) in (Flags, Rational, Leaf):  # Leaf: the embedded complex
                name = self.fresh("_c")
                self.names[name] = (_flags(depth) if type(kind) is Flags else
                                    _rational if type(kind) is Rational else _embedded(depth))
            elif type(kind) is Record:
                name = self.record(kind.fields, depth)
            else:  # a list: no table has an optional pair
                name, body = self.fresh("w"), self.expr(kind, depth, "v")
                self.lines += [f"def {name}(v):", f"    return {body}"]
            self.defined[key] = name
        return self.defined[key]

    def record(self, fields: list, depth: int) -> str:
        """Define the writer of a record with these fields: the text of each
        field present, required or not None, in a list joined in key order."""
        name, parts = self.fresh("w"), self.fresh("p")
        targets, appends = [], {}  # appends: field name -> the statement adding its text
        for key, kind, default, *_ in fields:
            if default is _REQUIRED:
                form, args, target = self.slots(kind, depth + 1)
                guard = ""
            else:
                target = self.fresh("v")
                form, args = "%s", [self.expr(kind, depth + 1, target)]
                guard = f"if {target} is not None: "
            appends[key] = f"    {guard}{parts}.append({_fill(_key(key) + form, args)})"
            targets.append(target)
        head, sep, tail = _edges("{}", depth)
        body = f"{head!r} + {sep!r}.join({parts}) + {tail!r}"
        self.lines += [f"def {name}(v):", "    (" + "".join(t + ", " for t in targets) + ") = v",
                       f"    {parts} = []", *(appends[key] for key in sorted(appends)),
                       f"    return {body} if {parts} else '{{}}'"]
        return name
