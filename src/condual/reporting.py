"""Report serialization: stable JSON documents and aligned text tables.

Every subcommand's result is a plain dict with documented keys under the
top-level schema tag "condual/1".  Extended reals serialize as the strings
"inf"/"-inf", exact rationals as "p/q" strings; everything else is plain
JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .scalars import INF, NEG_INF, number_to_json

SCHEMA = "condual/1"


def to_jsonable(value):
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, (float, Fraction)):
        return number_to_json(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return str(value)


def emit_report(report: dict | None, fmt: str = "text") -> bytes:
    """Render a report dict; an empty report gets the no-op verdict."""
    if not report:
        report = {"schema": SCHEMA, "verdict": "no-op"}
    payload = {"schema": SCHEMA}
    payload.update(to_jsonable(report))
    if fmt == "json":
        return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()
    if fmt == "text":
        return _render_text(payload).encode()
    raise ValueError(f"unknown report format {fmt!r}")


def _render_text(payload, indent=0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for key, value in payload.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"{pad}{key}:")
                lines.append(_render_table(value, indent + 1))
            else:
                rendered = _scalar(value)
                lines.append(f"{pad}{str(key):<{width}}  {rendered}")
        return "\n".join(lines)
    return f"{pad}{_scalar(payload)}"


def _render_table(rows, indent=0) -> str:
    pad = "  " * indent
    keys = list(rows[0].keys())
    cells = [[_scalar(r.get(k, "")) for k in keys] for r in rows]
    widths = [max(len(k), max(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    out = [pad + "  ".join(f"{k:<{w}}" for k, w in zip(keys, widths))]
    for row in cells:
        out.append(pad + "  ".join(f"{c:<{w}}" for c, w in zip(row, widths)))
    return "\n".join(out)


def _scalar(value) -> str:
    if isinstance(value, float):
        if value in (INF, NEG_INF):
            return "inf" if value > 0 else "-inf"
        return f"{value:.10g}"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)
