"""The checked input of every command, read and validated once where it enters.

``check`` is the only code that validates a section and its gluing data, and
``load`` the only code that reads section, complex and gluing files, each
through ``schema.read``. Whatever reads a ``Bundle`` expects it valid and
does not check again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import schema
from .complexes import Diagnostic, complex_to_json, parse_complex
from .covers import MultiSection, parse_multisection, validate_multisection

if TYPE_CHECKING:  # gluing is loaded only when gluing data is given
    from .gluing import BarComplex, GluingData


class Bundle(NamedTuple):
    """A valid section, its valid gluing data or None, the order complex of
    its total space (with gluing data) or None, and the assertion flags that hold."""

    msec: MultiSection
    gluing: GluingData | None
    bar: BarComplex | None
    flags: frozenset[str]


class Invalid(ValueError):
    """Input that parsed but failed validation; carries the diagnostics."""

    def __init__(self, what: str, diagnostics: tuple[Diagnostic, ...]):
        first = diagnostics[0]
        # the message names input ids as they are; quoted, it stays on one line
        message = first.message if first.message.isprintable() else repr(first.message)
        super().__init__(f"{what}: {[d.code for d in diagnostics]}; {first.code}: {message}")
        self.diagnostics = diagnostics


def check(msec: MultiSection, gluing: GluingData | None = None, flags=frozenset()) -> Bundle:
    """Validate a section, then its gluing data on the order complex of its
    total space and the kinks its edge potentials need to agree; raise
    ``Invalid`` unless all hold."""
    diags = validate_multisection(msec)
    if diags:
        raise Invalid("multi-section is invalid", diags)
    bar = None
    if gluing is not None:
        from .gluing import bar_complex, check_edge_kinks, validate_gluing

        bar = bar_complex(msec)
        diags = validate_gluing(msec, gluing, bar) + tuple(
            Diagnostic("gluing-kink-mismatch", f"edge lift {e}: kinks disagree between endpoints")
            for e in check_edge_kinks(msec)
        )
        if diags:
            raise Invalid("gluing data invalid", diags)
    return Bundle(msec, gluing, bar, frozenset(flags))


def _structural_json(data):
    """A complex document without its assertion flags; anything else as is."""
    if isinstance(data, dict):
        return {key: value for key, value in data.items() if key != "asserted"}
    return data


def load(section_path: str, gluing_path: str | None = None, complex_path: str | None = None,
         assertions: dict[str, bool] | None = None) -> Bundle:
    """Read, parse and check a section file and the gluing and complex files
    when named. The section must be built over the named complex, which is
    parsed only when its document differs from the one the section embeds.
    A flag holds when ``assertions`` say so, or when they are silent on it
    and the embedded complex asserts it."""
    named = None if complex_path is None else schema.read(complex_path)
    data = schema.read(section_path)
    embedded = data.get("complex") if isinstance(data, dict) else None
    same = complex_path is None or (
        isinstance(named, dict) and _structural_json(named) == _structural_json(embedded)
    )
    surface = None if same else schema.from_file(complex_path, parse_complex, named)
    if same and named is not None:  # equal values may differ in JSON type (1 == 1.0 == true)
        schema.from_file(complex_path, lambda d: schema.COMPLEX.parse(d, lambda *_: None), named)
    msec = schema.from_file(section_path, parse_multisection, data)
    if not same and _structural_json(complex_to_json(surface)) != _structural_json(
        complex_to_json(msec.cover.base)
    ):
        raise ValueError("section is not built over the complex named alongside it")
    gluing = None
    if gluing_path is not None:
        from .gluing import parse_gluing

        gluing = schema.from_file(gluing_path, parse_gluing)
    flags = msec.cover.base.asserted | (assertions or {})
    return check(msec, gluing, (flag for flag, holds in flags.items() if holds))
