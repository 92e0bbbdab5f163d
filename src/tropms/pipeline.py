"""Manifest-driven verification pipeline.

A manifest names a complex file, a section file, optional gluing data, and a
set of assertion flags that the files cannot express themselves (regularity,
positivity, simplicity and elementarity of the decomposition, whether the
gluing data is induced by an open cover, and the local-bundle assumption for
rank three and up). ``run_pipeline`` loads the bundle, runs the selected
checks in a fixed order, and emits a report whose records each carry a check
id, a glossary citation, a verdict, witnesses, and the elapsed time. Reports
are deterministic apart from the timing fields.

Exit codes: 0 success or inconclusive, 1 a simplicity check concluded
not simple, 2 invalid input, 3 internal invariant breach.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .chern import stability_discriminant, total_chern
from .complexes import (
    PolyhedralSurface,
    complex_to_json,
    complex_to_text,
    parse_complex,
    parses,
)
from .covers import (
    ClassTag,
    MultiSection,
    classify,
    multisection_to_text,
    parse_multisection,
    validate_multisection,
)
from .generators import (
    EXAMPLE_NAMES,
    cube2_multisection,
    cube_o1_multisection,
    rank3_multisection,
    seeded_coboundary_gluing,
    simplex5_multisection,
)
from .gluing import (
    GluingData,
    gluing_to_text,
    obstruction_class,
    parse_gluing,
    require_valid,
    triple_cocycle,
    validate_gluing,
)
from .graphs import Verdict, simplicity_verdict
from .laurent import REFERENCE_A, REFERENCE_B, verify_cocycle

EXIT_OK = 0
EXIT_NOT_SIMPLE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

ASSERTION_FLAGS = (
    "regular",
    "positive",
    "simple",
    "elementary",
    "open-gluing-induced",
    "assumption-1.4",
)

MANIFEST_SCHEMA = "manifest/v1"
REPORT_SCHEMA = "report/v1"


@dataclass(frozen=True)
class Manifest:
    complex_path: str
    section_path: str
    gluing_path: str | None = None
    assertions: dict[str, bool] = field(default_factory=dict)
    root: str = "."

    def asserts(self, flag: str) -> bool:
        return bool(self.assertions.get(flag, False))

    def resolve(self, path: str) -> str:
        return os.path.join(self.root, path)


def manifest_to_json(m: Manifest) -> dict:
    out = {
        "schema": MANIFEST_SCHEMA,
        "complex": m.complex_path,
        "section": m.section_path,
        "assertions": {k: m.assertions[k] for k in sorted(m.assertions)},
    }
    if m.gluing_path is not None:
        out["gluing"] = m.gluing_path
    return out


def manifest_to_text(m: Manifest) -> str:
    return json.dumps(manifest_to_json(m), indent=2, sort_keys=True) + "\n"


@parses("manifest")
def parse_manifest(data: dict, root: str = ".") -> Manifest:
    if not isinstance(data, dict):
        raise ValueError("manifest must be an object")
    unknown = set(data) - {"schema", "complex", "section", "gluing", "assertions"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} in manifest")
    if data.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"expected schema {MANIFEST_SCHEMA!r}, got {data.get('schema')!r}"
        )
    for key in ("complex", "section"):
        if not isinstance(data.get(key), str):
            raise ValueError(f"manifest field {key!r} must be a path")
    gluing = data.get("gluing")
    if gluing is not None and not isinstance(gluing, str):
        raise ValueError("manifest field 'gluing' must be a path")
    assertions = {}
    for k, v in data.get("assertions", {}).items():
        if k not in ASSERTION_FLAGS:
            raise ValueError(f"unknown assertion flag {k!r}")
        if not isinstance(v, bool):
            raise ValueError(f"assertion flag {k!r} must be boolean")
        assertions[k] = v
    return Manifest(data["complex"], data["section"], gluing, assertions, root)


def load_manifest(path: str) -> Manifest:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_manifest(data, root=os.path.dirname(path) or ".")


@dataclass(frozen=True)
class CheckRecord:
    check: str
    citation: str
    verdict: str  # pass | fail | refused | inconclusive | skipped
    witnesses: tuple
    seconds: float


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckRecord, ...]
    exit_code: int

    def record(self, check: str) -> CheckRecord:
        for rec in self.checks:
            if rec.check == check:
                return rec
        raise KeyError(f"no record for check {check!r}")


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items())}
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def report_to_json(report: Report) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "checks": [
            {
                "check": rec.check,
                "citation": rec.citation,
                "verdict": rec.verdict,
                "witnesses": _jsonable(rec.witnesses),
                "seconds": rec.seconds,
            }
            for rec in report.checks
        ],
        "exit_code": report.exit_code,
    }


def report_to_text(report: Report) -> str:
    return json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"


# -- loading ------------------------------------------------------------------


def _structural_json(s: PolyhedralSurface) -> dict:
    data = complex_to_json(s)
    data.pop("asserted", None)
    return data


def load_bundle(manifest: Manifest) -> tuple[MultiSection, GluingData | None]:
    """Read and parse every file the manifest names, cross-check that the
    section was built over the named complex, and apply the manifest's
    assertion flags to the section's base. Returns the section and the
    gluing data, if any."""
    with open(manifest.resolve(manifest.complex_path), encoding="utf-8") as fh:
        surface = parse_complex(json.load(fh))
    with open(manifest.resolve(manifest.section_path), encoding="utf-8") as fh:
        msec = parse_multisection(json.load(fh))
    if _structural_json(surface) != _structural_json(msec.cover.base):
        raise ValueError("section is not built over the complex named alongside it")
    gluing = None
    if manifest.gluing_path is not None:
        with open(manifest.resolve(manifest.gluing_path), encoding="utf-8") as fh:
            gluing = parse_gluing(json.load(fh))
    for flag in ("regular", "positive", "simple", "elementary"):
        if manifest.asserts(flag):
            msec.cover.base.asserted[flag] = True
    return msec, gluing


# -- the pipeline -------------------------------------------------------------


def _citation_of(verdict: Verdict) -> str:
    lead = verdict.reasons[0]
    if lead.startswith("["):
        return lead[1 : lead.index("]")]
    return "general-criterion"


@dataclass
class _Run:
    """What the checks of one pipeline run read and leave for later checks."""

    manifest: Manifest
    msec: MultiSection
    gluing: GluingData | None
    tag: ClassTag | None = None
    obstruction_trivial: bool = False


class _Outcome(NamedTuple):
    verdict: str
    witnesses: tuple
    exit_code: int = EXIT_OK
    citation: str | None = None  # None: the check's own citation


def _validate(run: _Run) -> _Outcome:
    # the outermost validator reports the diagnostics of the ones it runs
    if run.gluing is not None:
        rep = validate_gluing(run.msec, run.gluing)
    else:
        rep = validate_multisection(run.msec)
    lines = tuple(dict.fromkeys(f"{d.code}: {d.message}" for d in rep.diagnostics))
    return _Outcome("fail", lines, EXIT_INVALID) if lines else _Outcome("pass", ())


def _classify(run: _Run) -> _Outcome:
    tag = run.tag
    witnesses = (tag.tag,) + ((tag.pair,) if tag.pair else ())
    if tag.tag == "none":
        return _Outcome("fail", witnesses, EXIT_INVALID)
    return _Outcome("pass", witnesses)


def _cocycle(run: _Run) -> _Outcome:
    m, n = run.tag.pair
    ok = verify_cocycle(m, n, REFERENCE_A, REFERENCE_B)
    witnesses = (f"m={m}", f"n={n}", "reference constants")
    return _Outcome("pass", witnesses) if ok else _Outcome("fail", witnesses, EXIT_INTERNAL)


def _chern(run: _Run) -> _Outcome:
    m, n = run.tag.pair
    delta, stability = stability_discriminant(m, n)
    return _Outcome("pass", (repr(total_chern(m, n)), f"discriminant {delta}", stability))


def _obstruction(run: _Run) -> _Outcome:
    rep = obstruction_class(triple_cocycle(run.msec, run.gluing), run.msec)
    run.obstruction_trivial = rep.trivial
    return _Outcome("pass" if rep.trivial else "fail", (f"witness {rep.witness}",))


def _simplicity(run: _Run) -> _Outcome:
    criterion = "rank2" if run.tag.tag == "S_mn" else "general"
    v = simplicity_verdict(
        run.msec, criterion, run.manifest.asserts, run.obstruction_trivial
    )
    citation = _citation_of(v)
    if v.tag == "not_simple":
        return _Outcome("fail", ("not simple",) + v.witnesses, EXIT_NOT_SIMPLE, citation)
    if v.tag == "criterion_inconclusive":
        return _Outcome("inconclusive", v.reasons, EXIT_OK, citation)
    if v.tag == "refused":
        return _Outcome("refused", v.reasons, EXIT_OK, citation)
    label = "simple & smoothable" if v.tag == "smoothable" else "simple"
    return _Outcome("pass", (label,) + v.reasons, EXIT_OK, citation)


def _without_pair(run: _Run) -> str | None:
    if run.tag.tag != "S_mn":
        return f"class {run.tag.tag} has no weight pair"
    return None


def _without_gluing(run: _Run) -> str | None:
    return "no gluing data in the manifest" if run.gluing is None else None


def _out_of_scope(run: _Run) -> str | None:
    if run.tag.tag not in ("S_mn", "C"):
        return f"class {run.tag.tag} out of scope"
    return None


#: The checks in run order: (check id, citation, reason to skip, run).
CHECKS = (
    ("validate", "complex-validity", None, _validate),
    ("classify", "alternating-class", None, _classify),
    ("cocycle", "fan-cocycle", _without_pair, _cocycle),
    ("chern", "chern-total", _without_pair, _chern),
    ("obstruction", "gluing-obstruction", _without_gluing, _obstruction),
    ("simplicity", "general-criterion", _out_of_scope, _simplicity),
)

CHECK_ORDER = tuple(check for check, *_ in CHECKS)


def run_pipeline(manifest: Manifest, checks=None) -> Report:
    """Run the selected checks (all of them by default) in the fixed order
    validate, classify, cocycle, chern, obstruction, simplicity."""
    selected = set(CHECK_ORDER if checks is None else checks)
    unknown = selected - set(CHECK_ORDER)
    if unknown:
        raise ValueError(f"unknown check(s): {sorted(unknown)}")

    t0 = time.perf_counter()
    try:
        msec, gluing = load_bundle(manifest)
    except (OSError, ValueError) as err:
        rec = CheckRecord("validate", "complex-validity", "fail", (str(err),),
                          round(time.perf_counter() - t0, 6))
        return Report((rec,), EXIT_INVALID)

    run = _Run(manifest, msec, gluing)
    records: list[CheckRecord] = []
    exit_code = EXIT_OK
    for check, citation, skip, fn in CHECKS:
        if check not in selected:
            continue
        if exit_code == EXIT_INVALID:  # validate or classify failed
            records.append(CheckRecord(check, citation, "skipped",
                                       ("input failed validation",), 0.0))
            continue
        start = time.perf_counter()
        if check != "validate" and run.tag is None:
            if "validate" not in selected:
                require_valid(run.msec)
            run.tag = classify(run.msec)  # every later check reads the class
        reason = skip(run) if skip else None
        if reason is not None:
            records.append(CheckRecord(check, citation, "skipped", (reason,), 0.0))
            continue
        out = fn(run)
        records.append(
            CheckRecord(check, out.citation or citation, out.verdict,
                        out.witnesses, round(time.perf_counter() - start, 6))
        )
        exit_code = max(exit_code, out.exit_code)
    return Report(tuple(records), exit_code)


# -- example emission ---------------------------------------------------------

_SECTION_BUILDERS = {
    "simplex5": simplex5_multisection,
    "cube2": cube2_multisection,
    "cube-o1": cube_o1_multisection,
    "rank3-cube": rank3_multisection,
}

_EXAMPLE_ASSERTIONS = {
    "simplex5": {"regular": True},
    "cube2": {"regular": True},
    "cube-o1": {
        "regular": True,
        "positive": True,
        "simple": True,
        "elementary": True,
        "open-gluing-induced": True,
    },
    "rank3-cube": {"regular": True, "assumption-1.4": True},
}


def generate_example(name: str, outdir: str = ".") -> Manifest:
    """Write one worked example (complex, section, gluing data for the rank-2
    covers, manifest) into ``outdir`` and return its manifest."""
    if name not in EXAMPLE_NAMES:
        raise ValueError(f"unknown example {name!r}; pick one of {EXAMPLE_NAMES}")
    msec = _SECTION_BUILDERS[name]()
    os.makedirs(outdir, exist_ok=True)

    complex_path = f"{name}.complex.json"
    section_path = f"{name}.section.json"
    with open(os.path.join(outdir, complex_path), "w", encoding="utf-8") as fh:
        fh.write(complex_to_text(msec.cover.base))
    with open(os.path.join(outdir, section_path), "w", encoding="utf-8") as fh:
        fh.write(multisection_to_text(msec))

    gluing_path = None
    if msec.cover.degree == 2:
        gluing_path = f"{name}.gluing.json"
        g = seeded_coboundary_gluing(msec, seed=0)
        with open(os.path.join(outdir, gluing_path), "w", encoding="utf-8") as fh:
            fh.write(gluing_to_text(g))

    manifest = Manifest(
        complex_path,
        section_path,
        gluing_path,
        dict(_EXAMPLE_ASSERTIONS[name]),
        root=outdir,
    )
    with open(os.path.join(outdir, f"{name}.manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest_to_text(manifest))
    return manifest
