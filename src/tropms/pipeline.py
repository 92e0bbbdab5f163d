"""Manifest-driven verification pipeline.

A manifest names a complex file, a section file, optional gluing data, and a
set of assertion flags that the files cannot prove (regularity, positivity,
simplicity and elementarity of the decomposition, whether the gluing data is
induced by an open cover, and the local-bundle assumption for rank three and
up); they override the flags of the section's embedded complex key by key.
``run_pipeline`` loads the checked bundle, runs the selected checks in a fixed
order, and emits a report whose records each carry a check id, a glossary
citation, a verdict, witnesses, and the elapsed time. Reports are
deterministic apart from the timing fields.

Exit codes: 0 success or inconclusive, 1 a simplicity check concluded
not simple, 2 invalid input, 3 internal invariant breach.
"""

from __future__ import annotations

import os
import time
from typing import NamedTuple

from . import EXIT_INTERNAL, EXIT_INVALID, EXIT_NOT_SIMPLE, EXIT_OK, _json_text, schema
from .bundle import Bundle, Invalid, load
from .covers import ClassTag, classify
from .graphs import Verdict, out_of_scope, simplicity_verdict

ASSERTION_FLAGS = (
    "regular",
    "positive",
    "simple",
    "elementary",
    "open-gluing-induced",
    "assumption-1.4",
)

REPORT_SCHEMA = "report/v1"


class Manifest(NamedTuple):
    complex_path: str
    section_path: str
    gluing_path: str | None
    assertions: dict[str, bool]
    root: str = "."

    def resolve(self, path: str) -> str:
        return os.path.join(self.root, path)


def manifest_to_text(m: Manifest) -> str:
    return schema.MANIFEST.text((m.complex_path, m.section_path, m.gluing_path, m.assertions))


def parse_manifest(data: dict, root: str = ".") -> Manifest:
    def build(complex_path, section_path, gluing_path, assertions):
        unknown = sorted(set(assertions) - set(ASSERTION_FLAGS))
        if unknown:
            raise schema.Malformed("is an unknown assertion flag", ValueError,
                                   "assertions", unknown[0])
        return Manifest(complex_path, section_path, gluing_path, dict(assertions), root)

    return schema.MANIFEST.parse(data, build)


def load_manifest(path: str) -> Manifest:
    return schema.from_file(path, lambda data: parse_manifest(data, os.path.dirname(path) or "."))


class CheckRecord(NamedTuple):
    """One check of a report; its fields, in order, are the record's keys."""

    check: str
    citation: str
    verdict: str  # pass | fail | refused | inconclusive | skipped
    witnesses: tuple
    seconds: float


class Report(NamedTuple):
    checks: tuple[CheckRecord, ...]
    exit_code: int


def report_to_json(report: Report) -> dict:
    return {"schema": REPORT_SCHEMA, "checks": [rec._asdict() for rec in report.checks],
            "exit_code": report.exit_code}


def report_to_text(report: Report) -> str:
    return _json_text(report_to_json(report))


# -- loading ------------------------------------------------------------------


def load_bundle(manifest: Manifest) -> Bundle:
    """Read and check every file the manifest names, under its assertions."""
    gluing = manifest.gluing_path
    return load(
        manifest.resolve(manifest.section_path),
        None if gluing is None else manifest.resolve(gluing),
        manifest.resolve(manifest.complex_path),
        manifest.assertions,
    )


# -- the pipeline -------------------------------------------------------------


def _citation_of(verdict: Verdict) -> str:
    lead = verdict.reasons[0]
    return lead[1 : lead.index("]")]


class _Outcome(NamedTuple):
    verdict: str
    witnesses: tuple
    exit_code: int = EXIT_OK
    citation: str | None = None  # None: the check's own citation


# Each check reads the checked bundle, the class tag and the records of the
# checks that ran before it.


def _classify(b: Bundle, tag: ClassTag, records: list[CheckRecord]) -> _Outcome:
    witnesses = (tag.tag,) + ((tag.pair,) if tag.pair else ())
    if tag.tag == "none":
        return _Outcome("fail", witnesses, EXIT_INVALID)
    return _Outcome("pass", witnesses)


def _cocycle(b: Bundle, tag: ClassTag, records: list[CheckRecord]) -> _Outcome:
    from .laurent import REFERENCE_A, REFERENCE_B, verify_cocycle

    m, n = tag.pair
    ok = verify_cocycle(m, n, REFERENCE_A, REFERENCE_B)
    witnesses = (f"m={m}", f"n={n}", "reference constants")
    return _Outcome("pass", witnesses) if ok else _Outcome("fail", witnesses, EXIT_INTERNAL)


def _chern(b: Bundle, tag: ClassTag, records: list[CheckRecord]) -> _Outcome:
    from .chern import stability_discriminant, total_chern

    m, n = tag.pair
    total = total_chern(m, n)
    delta, stability = stability_discriminant(m, n, total)
    return _Outcome("pass", (repr(total), f"discriminant {delta}", stability))


def _obstruction(b: Bundle, tag: ClassTag, records: list[CheckRecord]) -> _Outcome:
    from .gluing import obstruction_class, triple_cocycle

    rep = obstruction_class(triple_cocycle(b.msec, b.gluing, b.bar), b.bar)
    return _Outcome("pass" if rep.trivial else "fail", (f"witness {rep.witness}",))


def _simplicity(b: Bundle, tag: ClassTag, records: list[CheckRecord]) -> _Outcome:
    trivial = any(r.check == "obstruction" and r.verdict == "pass" for r in records)
    v = simplicity_verdict(b.msec, tag, None, b.flags, trivial)
    citation = _citation_of(v)
    if v.tag == "not_simple":
        return _Outcome("fail", ("not simple",) + v.witnesses, EXIT_NOT_SIMPLE, citation)
    if v.tag == "criterion_inconclusive":
        return _Outcome("inconclusive", v.reasons, EXIT_OK, citation)
    if v.tag == "refused":
        return _Outcome("refused", v.reasons, EXIT_OK, citation)
    label = "simple & smoothable" if v.tag == "smoothable" else "simple"
    return _Outcome("pass", (label,) + v.reasons, EXIT_OK, citation)


def _without_pair(b: Bundle, tag: ClassTag) -> str | None:
    if tag.tag != "S_mn":
        return f"class {tag.tag} has no weight pair"
    return None


def _without_gluing(b: Bundle, tag: ClassTag) -> str | None:
    return "no gluing data in the manifest" if b.gluing is None else None


def _out_of_scope(b: Bundle, tag: ClassTag) -> str | None:
    return out_of_scope(tag)


#: The checks in run order: (check id, citation, reason to skip, run); the
#: validate check runs as the bundle is loaded.
CHECKS = (
    ("validate", "complex-validity", None, None),
    ("classify", "alternating-class", None, _classify),
    ("cocycle", "fan-cocycle", _without_pair, _cocycle),
    ("chern", "chern-total", _without_pair, _chern),
    ("obstruction", "gluing-obstruction", _without_gluing, _obstruction),
    ("simplicity", "general-criterion", _out_of_scope, _simplicity),
)

CHECK_ORDER = tuple(check for check, *_ in CHECKS)


def run_pipeline(manifest: Manifest, checks=None) -> Report:
    """Run the selected checks (all of them by default) in the fixed order
    validate, classify, cocycle, chern, obstruction, simplicity. Input that
    cannot be read, or fails validation, is reported by the validate check
    when it is selected, and raises otherwise."""
    selected = set(CHECK_ORDER if checks is None else checks)
    unknown = selected - set(CHECK_ORDER)
    if unknown:
        raise ValueError(f"unknown check(s): {sorted(unknown)}; pick from {CHECK_ORDER}")

    t0 = time.perf_counter()
    try:
        b = load_bundle(manifest)
        validated = _Outcome("pass", ())
    except Invalid as err:
        if "validate" not in selected:
            raise
        lines = tuple(dict.fromkeys(f"{d.code}: {d.message}" for d in err.diagnostics))
        validated = _Outcome("fail", lines, EXIT_INVALID)
    except (OSError, ValueError) as err:
        if "validate" not in selected:
            raise
        rec = CheckRecord("validate", "complex-validity", "fail", (str(err),),
                          round(time.perf_counter() - t0, 6))
        return Report((rec,), EXIT_INVALID)

    records: list[CheckRecord] = []
    exit_code = EXIT_OK
    tag = None
    for check, citation, skip, fn in CHECKS:
        if check not in selected:
            continue
        if exit_code == EXIT_INVALID:  # validate or classify failed
            records.append(CheckRecord(check, citation, "skipped",
                                       ("input failed validation",), 0.0))
            continue
        if fn is None:  # validation ran as the bundle was loaded
            out, start = validated, t0
        else:
            start = time.perf_counter()
            if tag is None:
                tag = classify(b.msec)  # every later check reads the class
            reason = skip(b, tag) if skip else None
            if reason is not None:
                records.append(CheckRecord(check, citation, "skipped", (reason,), 0.0))
                continue
            out = fn(b, tag, records)
        records.append(
            CheckRecord(check, out.citation or citation, out.verdict,
                        out.witnesses, round(time.perf_counter() - start, 6))
        )
        exit_code = max(exit_code, out.exit_code)
    return Report(tuple(records), exit_code)
