"""The checked input of every command, read and validated once where it enters.

``check`` is the only code that validates a section and its gluing data, and
``load`` the only code that reads complex, section and gluing files, each
once, through ``schema.from_file``. A named complex file is checked as a
complex and compared with the section's base by its tables, without being
built into a surface. Whatever reads a ``Bundle`` expects it valid and does
not check again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import schema
from .complexes import Diagnostic, canonical, read_complex
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


def load(section_path: str, gluing_path: str | None = None, complex_path: str | None = None,
         assertions: dict[str, bool] | None = None) -> Bundle:
    """Read, parse and check the complex file when named, the section file,
    and the gluing file when named, in that order, each in one walk. The
    section must be built over the named complex: its base has the same
    cells, fans and boundary cycles, or the same canonical forms of them.
    A flag holds when ``assertions`` say so, or when they are silent on it
    and the embedded complex asserts it."""
    named = None if complex_path is None else schema.from_file(complex_path, read_complex)
    msec = schema.from_file(section_path, parse_multisection)
    base = msec.cover.base
    ours = (base.cells, base.fans, base.orientation)
    if named is not None and named[:3] != ours and canonical(*named[:3]) != canonical(*ours):
        raise ValueError("section is not built over the complex named alongside it")
    gluing = None
    if gluing_path is not None:
        from .gluing import parse_gluing

        gluing = schema.from_file(gluing_path, parse_gluing)
    flags = base.asserted | (assertions or {})
    return check(msec, gluing, (flag for flag, holds in flags.items() if holds))
