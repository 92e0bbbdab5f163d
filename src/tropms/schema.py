"""The input formats, one declarative table each, and the walker that reads
and writes them.

A table maps each field of a JSON object to its type when the field is
required, or to (type, default) when it is optional. A type is a leaf such
as INT or VEC, [T] for a list of T, or a table for a nested object.
``Document.parse`` walks a document, checking the exact JSON type of every
value (an integer is not a bool, a float or a string), and hands its fields
in table order to a build function; lists read as tuples, and so do nested
objects, of their fields. ``Document.text`` writes such tuples back as
canonical text, leaving out the fields given as None: each table is
compiled once per indentation depth into a writer that knows its sorted
keys and separators, so no generic encoder walks the values. A document
that breaks its table raises ``Malformed``: one line that names the kind of
document, the cause, the file when known and the JSON path, which is built
only as the error unwinds. ``read`` opens and decodes every input file; one
that is not JSON text in UTF-8 raises a ValueError led by the file's name.
"""

from __future__ import annotations

import json
import os
import re
import reprlib
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable


class Malformed(ValueError):
    """A document that breaks its format, at the JSON path ``path``."""

    def __init__(self, detail: str, cause: type = ValueError, *path):
        super().__init__(detail)
        self.detail, self.cause, self.path = detail, cause.__name__, list(path)
        self.kind = self.file = None

    def __str__(self) -> str:
        where = "".join(
            f".{k}" if type(k) is str and k.isidentifier() else f"[{k!r}]" for k in self.path
        ).removeprefix(".")
        file = f"{self.file}: " if self.file else ""
        return f"malformed {self.kind} ({self.cause}: {file}{where or 'document'} {self.detail})"


def _wrong(what: str, value, *path, cause: type = TypeError) -> Malformed:
    return Malformed(f"must be {what}, got {reprlib.repr(value)}", cause, *path)


def _seps(depth: int) -> tuple[str, str]:
    """The separator between the items of a container whose opening line
    sits at ``depth``, and the line break before its closing bracket."""
    return ",\n" + "  " * (depth + 1), "\n" + "  " * depth


def _container(brackets: str, depth: int) -> Callable:
    """The writer of a container at ``depth`` from the texts of its items,
    one to a line; without items it is just ``brackets``."""
    sep, end = _seps(depth)
    head, tail = brackets[0] + sep[1:], end + brackets[1]

    def wrap(items) -> str:
        body = sep.join(items)
        return head + body + tail if body else brackets

    return wrap


_ARRAY = (list, tuple)  # the types of a JSON array as read and as written


class Leaf:
    """A JSON value of one exact type, read as it is and written by ``write``."""

    def __init__(self, what: str, exact: type, write: Callable | None = None):
        self.what, self.exact, self.write = what, exact, write

    def read(self, value):
        if type(value) is not self.exact:
            raise _wrong(self.what, value)
        return value

    def writer(self, depth: int) -> Callable:
        return self.write


class Embedded(Leaf):
    """An object read as it is and written from its own canonical text,
    which holds no raw line break inside a string."""

    def writer(self, depth: int) -> Callable:
        pad = _seps(depth)[1]
        return lambda text: text.rstrip("\n").replace("\n", pad)


class Pair:
    """A list of two values of one leaf type."""

    def __init__(self, what: str, item: Leaf):
        self.what, self.item = what, item

    def read(self, value):
        exact = self.item.exact
        if type(value) in _ARRAY and len(value) == 2 and type(value[0]) is type(value[1]) is exact:
            return (value[0], value[1])
        if type(value) not in _ARRAY or len(value) != 2:
            raise _wrong(self.what, value)
        i = int(type(value[0]) is exact)  # the element of another type
        raise _wrong(self.item.what, value[i], i)

    def writer(self, depth: int) -> Callable:
        sep, end = _seps(depth)
        form, write = f"[{sep[1:]}%s{sep}%s{end}]", self.item.write
        return lambda v: form % (write(v[0]), write(v[1]))


class Flags(Leaf):
    """An object of boolean flags; its reader decides which names it knows."""

    def read(self, value):
        for name, flag in Leaf.read(self, value).items():
            if type(flag) is not bool:
                raise _wrong("boolean", flag, name)
        return value

    def writer(self, depth: int) -> Callable:
        wrap = _container("{}", depth)
        return lambda flags: wrap(
            [_quote(name) + (": true" if flags[name] else ": false") for name in sorted(flags)])


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class Rational(Leaf):
    """A string "p" or "p/q", read as a Fraction and written as "p/q"."""

    def read(self, value):
        match = type(value) is str and _RATIONAL.fullmatch(value)
        if not match:
            raise _wrong(self.what, value)
        if match[2] and not int(match[2]):
            raise Malformed("has a zero denominator", ZeroDivisionError)
        return Fraction(int(match[1]), int(match[2] or 1))

    def writer(self, depth: int) -> Callable:
        return lambda q: f'"{q.numerator}/{q.denominator}"'


class List:
    """A JSON list of one type of item."""

    def __init__(self, item):
        self.item = item

    def read(self, value) -> tuple:
        if type(value) not in _ARRAY:
            raise _wrong("a list", value)
        if type(self.item) is Leaf:  # items read as they are: check their types only
            exact = self.item.exact
            for i, x in enumerate(value):
                if type(x) is not exact:
                    raise _wrong(self.item.what, x, i)
            return tuple(value)
        read, out = self.item.read, []
        try:
            for x in value:
                out.append(read(x))
        except Malformed as err:
            err.path.insert(0, len(out))
            raise
        return tuple(out)

    def writer(self, depth: int) -> Callable:
        wrap, write = _container("[]", depth), self.item.writer(depth + 1)
        return lambda values: wrap(map(write, values))


_REQUIRED = object()


class Record:
    """A JSON object with the fields of a table and no others."""

    def __init__(self, table: dict):
        self.names = frozenset(table)
        self.fields = []  # (name, type, default, exact type when read as is)
        for name, spec in table.items():
            kind, default = spec if type(spec) is tuple else (spec, _REQUIRED)
            kind = _type(kind)
            self.fields.append((name, kind, default, kind.exact if type(kind) is Leaf else None))

    def read(self, value) -> tuple:
        if type(value) is not dict:
            raise _wrong("an object", value)
        out, absent = [], 0
        try:
            for name, kind, default, exact in self.fields:
                if name in value:
                    v = value[name]
                    out.append(v if type(v) is exact else kind.read(v))
                elif default is _REQUIRED:
                    raise Malformed("is required", KeyError)
                else:
                    out.append(default)
                    absent += 1
        except Malformed as err:
            err.path.insert(0, name)
            raise
        if len(value) > len(self.names) - absent:  # a key that names no field
            raise Malformed("is an unknown field", ValueError, min(set(value) - self.names))
        return tuple(out)

    def writer(self, depth: int, fields=None) -> Callable:
        """The writer of the tuple of field values in table order, keys
        sorted; a field given as None is left out."""
        fields = sorted((name, i, kind) for i, (name, kind, *_) in enumerate(fields or self.fields))
        fields = [(i, _quote(name) + ": ", kind.writer(depth + 1)) for name, i, kind in fields]
        wrap = _container("{}", depth)
        return lambda values: wrap(
            [key + write(v) for i, key, write in fields if (v := values[i]) is not None])


def _type(spec):
    if type(spec) is list:
        return List(_type(spec[0]))
    return Record(spec) if type(spec) is dict else spec


class Document(Record):
    """A kind of input file: its table, the kind its errors name, and the
    value of its "schema" field (None: it has no such field)."""

    def __init__(self, kind: str, schema: str | None, table: dict):
        super().__init__(table)
        self.kind, self.schema = kind, schema
        if schema:
            self.names |= {"schema"}

    def parse(self, data, build: Callable):
        """``build(*fields)`` of a document. Errors of the walk and of
        ``build`` name this kind, unless a nested document named its own."""
        try:
            if self.schema and type(data) is dict and data.get("schema") != self.schema:
                raise _wrong(repr(self.schema), data.get("schema"), "schema", cause=ValueError)
            return build(*self.read(data))
        except Malformed as err:
            err.kind = err.kind or self.kind
            raise

    @cached_property
    def _write(self) -> Callable:
        return self.writer(0, self.fields + [("schema", STR)])

    def text(self, values) -> str:
        """The canonical text of a document with these field values."""
        return self._write((*values, self.schema)) + "\n"


def within(key: str, parse: Callable, value):
    """``parse(value)`` for a document held at ``key`` of another; its errors
    carry the path from the outer document's root."""
    try:
        return parse(value)
    except Malformed as err:
        err.path.insert(0, key)
        raise


def read(path: str):
    """The JSON document of a file. A file that is not JSON text in UTF-8, or
    nests too deeply to decode, raises ValueError led by the file's name."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as err:  # ValueError: JSON or UTF-8 decoding
        raise ValueError(f"{os.path.basename(path)}: {err}") from err


def from_file(path: str, parse: Callable, data=None):
    """``parse`` the JSON document of a file, or ``data`` already ``read``
    from it; its errors name the file."""
    if data is None:
        data = read(path)
    try:
        return parse(data)
    except Malformed as err:
        err.file = os.path.basename(path)
        raise


def unique(field: str, pairs) -> dict:
    """The dict of the (key, value) ``pairs`` read from the list ``field``; a
    key given twice is an error at its second entry."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        i = next(i for i, key in enumerate(keys) if key in keys[:i])
        raise Malformed(f"duplicates an earlier entry: {keys[i]!r}", ValueError, field, i)
    return out


INT = Leaf("an integer", int, int.__repr__)
STR = Leaf("a string", str, _quote)
PATH = Leaf("a path", str, _quote)
OBJECT = Embedded("an object", dict)
VEC = Pair("[int, int]", INT)
FLAG = Pair("[str, str]", STR)
RATIONAL = Rational('a "p/q" rational', str)
FLAGS = Flags("an object", dict)

COMPLEX = Document("complex", "complex/v1", {
    "cells": ([{"id": STR, "dim": INT, "faces": ([STR], ()), "singular": ([STR], ())}], ()),
    "fans": ([{
        "vertex": STR,
        "rays": ([{"vec": VEC, "edge": STR}], ()),
        "cones": ([{"face2": STR, "rays": VEC}], ()),
    }], ()),
    "orientation": ([{"face2": STR, "cycle": ([STR], ())}], ()),
    "asserted": (FLAGS, {}),
})

MULTISECTION = Document("multi-section", "multisection/v1", {
    "complex": OBJECT,  # a complex/v1 document, read by parse_complex, written as its text
    "degree": INT,
    "label": (STR, ""),
    # absent, the lifts are not declared, so not compared with the computed ones
    "lifts": ([{"vertex": STR, "lifts": [{"id": STR, "sheets": [INT]}]}], None),
    "matchings": ([{"edge": STR, "perm": [INT]}], ()),
    "branch": ([STR], ()),
    "ramification": ([{"vertex": STR, "blocks": [[INT]]}], ()),
    "slopes": ([{"vertex_lift": STR, "face2": STR, "sheet": INT, "slope": VEC}], ()),
})

GLUING = Document("gluing data", "gluing/v1", {
    "assignments": ([{"flag": FLAG, "element": [{"vec": VEC, "q": RATIONAL}]}], ()),
})

MANIFEST = Document("manifest", "manifest/v1", {
    "complex": PATH,
    "section": PATH,
    "gluing": (PATH, None),
    "assertions": (FLAGS, {}),
})

# the input of `tropms newton`; without rays (or with none) the default fan
NEWTON = Document("slopes file", None, {"slopes": [VEC], "rays": ([VEC], ())})
