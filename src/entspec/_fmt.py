"""Deterministic text formatting shared by the file-format emitters."""

from __future__ import annotations

import json


def g17(x: float) -> str:
    """Full-double-precision cell: 17 significant digits, trailing noise trimmed."""
    return format(float(x), ".17g")


def json_dumps(obj) -> str:
    """Compact JSON with insertion-ordered keys and round-trip float text.

    Floats are emitted via repr (shortest text that parses back to the same
    double), keeping output byte-stable across runs; NaN and infinities are
    rejected with ValueError.
    """
    return json.dumps(obj, allow_nan=False)
