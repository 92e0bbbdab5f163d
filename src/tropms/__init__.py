"""Tropical multi-section toolkit: integral affine surfaces, branched covers
with piecewise linear slope data, exact transition-matrix algebra, equivariant
characteristic classes, gluing obstructions and simplicity criteria.

The exit codes and the JSON writer live here, so that the command line and
the pipeline share them without loading the check modules."""

import json
from fractions import Fraction

__version__ = "0.1.0"

EXIT_OK = 0
EXIT_NOT_SIMPLE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


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


def _json_text(x) -> str:
    """The JSON text of reports and command output: ``x`` made JSON-able,
    keys sorted, two-space indent, final newline."""
    return json.dumps(_jsonable(x), indent=2) + "\n"
